"""One measuring child of a benchmark run.

    child.py <workload> <seed> <trace 0|1>

``run.py`` starts every child with ``src/`` on ``PYTHONPATH``, a fixed
``PYTHONHASHSEED`` and one BLAS/OpenMP thread.  The child starts its
reference clock (``refclock.py``), which times everything after it,
imports the program (timed, part of set-up), generates its inputs from
``seed`` (timed separately, not part of set-up), then runs one job with
layer timers installed: every layer's in traced runs, in untraced runs
only the few the workload's end-to-end metrics need.  The last line of
standard output is a JSON object with the raw results.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

from refclock import RefClock

# Modules the workload needs, imported up front so that their import
# counts toward set-up and never lands inside the timed region.
IMPORTS = {
    "offline": [
        "repro.core.strategies",
        "repro.experiments.common",
        "repro.core.lprr",
        "repro.lpsolve.scipy_backend",
        "repro.search.engine",
        "repro.search.index",
    ],
    "online": [
        "repro.core.strategies",
        "repro.core.lprr",
        "repro.lpsolve.scipy_backend",
        "repro.online",
        "repro.resilience.healing",
    ],
    "serve": [
        "repro.core.strategies",
        "repro.core.streampart",
        "repro.search.engine",
        "repro.search.index",
        "repro.serve",
    ],
}


def _import_program(workload: str, src: str, clock: RefClock) -> float:
    start = clock.now()
    for name in IMPORTS[workload]:
        importlib.import_module(name)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {src}")
    return clock.now() - start


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    clock = RefClock()
    clock.start()
    src = os.path.abspath(os.environ["PERFBENCH_SRC"])
    import_s = _import_program(workload, src, clock)
    import layers
    import workloads

    start = clock.now()
    inputs = workloads.generate(workload, seed)
    gen_s = clock.now() - start
    tracer = layers.LayerTracer(clock.now, _obs_values if trace else None)
    if trace:
        from repro import obs

        layers.install(tracer)
        obs.enable()
    else:
        layers.install(tracer, layers.TIMED[workload])
    out = workloads.run_job(workload, seed, inputs, import_s, tracer)
    clock.stop()
    out["gen_s"] = gen_s
    if trace:
        out["layers"] = {"setup": tracer.setup, "region": tracer.region}
        out["obs"] = tracer.observed
    print(json.dumps(out))
    return 0


def _obs_values() -> dict:
    """Counters, gauges and histogram medians the program recorded."""
    from repro import obs

    values = {}
    for instrument in obs.current().metrics:
        if hasattr(instrument, "percentile"):
            values[instrument.key + ".p50"] = instrument.percentile(50)
        else:
            values[instrument.key] = instrument.value
    return values


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
