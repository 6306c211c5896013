"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload {offline,online,serve} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Every job runs in a fresh child process
(``child.py``).  With ``--trace 0`` a run starts one child per
sub-seed, as many as ``--seconds`` makes by ``JOB_SECONDS`` (at least
``MIN_CHILDREN``), and the last line of standard output is a
JSON object with the end-to-end metrics.  With ``--trace 1`` untraced
and traced children alternate on the first sub-seed and the JSON holds
the per-layer metrics.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

from layers import NOT_MEASURED, REGION

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("offline", "online", "serve")
MIN_CHILDREN = 3
# Untraced/traced child pairs behind a --trace 1 run.
TRACE_PAIRS = 2
# Each job's share of --seconds.  The child count comes from these
# constants, never from a measurement, so it is the same on every run:
# at --seconds 16, 5 offline, 8 online and 5 serve jobs, each run 20
# to 45 s of wall time on a two-vCPU host.
JOB_SECONDS = {"offline": 3.2, "online": 2.0, "serve": 3.2}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            # Alternate untraced and traced children on one sub-seed and
            # keep the least disturbed of each kind.
            seed = _sub_seed(args.seed, 0)
            pairs = [
                (_child(args.workload, seed, False), _child(args.workload, seed, True))
                for _ in range(TRACE_PAIRS)
            ]
            correct, attempted, failed = _tally([child for pair in pairs for child in pair])
            plain, traced = (
                min((pair[k] for pair in pairs), key=lambda c: c["work_s"]) for k in (0, 1)
            )
            metrics = _layer_metrics(args.workload, plain, traced)
        else:
            count = max(MIN_CHILDREN, round(args.seconds / JOB_SECONDS[args.workload]))
            children = [
                _child(args.workload, _sub_seed(args.seed, i), False)
                for i in range(count)
            ]
            correct, attempted, failed = _tally(children)
            passing = [child for child in children if not child["failures"]]
            metrics = _end_to_end(args.workload, passing) if passing else {}
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for name, metric in metrics.items():
        note = metric.pop("note", "")
        print(f"{args.workload:8s} {name:28s} {metric['value']:>16.6g} {metric['unit']:10s} {note}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return seed


class ChildFailed(RuntimeError):
    pass


def _child_env(seed: int) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PERFBENCH_SRC=str(SRC),
        # String hashing feeds tie-breaks in the program; a fixed hash
        # seed per job makes quality metrics repeat exactly, and a
        # different one per job lets a run's mean average over them.
        PYTHONHASHSEED=str(seed % 2**32),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _sub_seed(seed: int, index: int) -> int:
    """The seed of a run's ``index``-th job.

    Spaced by ten because a job also draws from the next few seeds
    (the drifted half of a stream, serve's warm-up log), and jobs of one
    run must not share draws.
    """
    return seed * 1000 + 10 * index


def _child(workload: str, seed: int, trace: bool) -> dict:
    argv = [workload, str(seed), "1" if trace else "0"]
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv],
            cwd=ROOT,
            env=_child_env(seed),
            capture_output=True,
            text=True,
            timeout=160,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {argv} timed out") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"child {argv} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tally(children: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over the measuring children.

    A child whose checks failed counts all its operations as failed;
    otherwise shed and unserved operations are its failures.
    """
    correct = True
    attempted = failed = 0
    for child in children:
        attempted += child["ops"]
        if child["failures"]:
            correct = False
            failed += child["ops"]
            for failure in child["failures"]:
                print(f"check failed: {failure}")
        else:
            failed += child["ops"] - child["answered"]
    return correct, attempted, failed


def _percentile(values: list[float], q: float, weights: list[float] | None = None):
    """Nearest-rank percentile; returns (value, samples, samples beyond)."""
    weights = weights or [1.0] * len(values)
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    running = 0.0
    for rank, (value, weight) in enumerate(pairs):
        running += weight
        if running >= q * total:
            return value, len(pairs), len(pairs) - rank - 1
    return pairs[-1][0], len(pairs), 0


def _metric(value: float, unit: str, note: str = "") -> dict:
    return {"value": value, "unit": unit, "note": note}


def _end_to_end(workload: str, children: list[dict]) -> dict:
    # Times and rates are medians over the run's jobs: a shared machine
    # runs whole stretches of jobs up to a fifth slower or faster, and
    # the median moves less with them than the best job does.  Quality
    # figures, which do not depend on speed, are means over the jobs'
    # seeds.
    def median(key: str) -> float:
        return statistics.median(child[key] for child in children)

    def mean(key: str) -> float:
        return statistics.fmean(child[key] for child in children)

    # A p99 needs ten samples beyond it.  Serve's jobs each have that
    # many, so their percentiles are per job and the median job counts,
    # as for every time; offline's and online's jobs do not, so theirs
    # are taken over the run's pooled samples.
    if all(len(child["latencies_ms"]) >= 1000 for child in children):
        per_job = [
            (
                _percentile(c["latencies_ms"], 0.50, c["latency_weights"]),
                _percentile(c["latencies_ms"], 0.99, c["latency_weights"]),
            )
            for c in children
        ]
        p50 = statistics.median(job[0][0] for job in per_job)
        p99 = statistics.median(job[1][0] for job in per_job)
        _, samples, beyond = per_job[0][1]
        pooling = "median job of"
    else:
        latencies: list[float] = []
        weights: list[float] = []
        for child in children:
            latencies += child["latencies_ms"]
            weights += child["latency_weights"] or [1.0] * len(child["latencies_ms"])
        p50 = _percentile(latencies, 0.50, weights)[0]
        p99, samples, beyond = _percentile(latencies, 0.99, weights)
        pooling = "pooled"
    sample_note = {
        "offline": "job latency",
        "online": "period latency, weighted by operations",
        "serve": "scheduled send to answer",
    }[workload]
    count_note = f"{sample_note}; {pooling} {samples} samples, {beyond} beyond p99"
    jobs_note = f"median of {len(children)} jobs"
    metrics = {
        "setup_s": _metric(median("setup_s"), "s", jobs_note),
        "region_s": _metric(median("region_s"), "s", jobs_note),
        "plan_s": _metric(median("plan_s"), "s", jobs_note),
        "ops_per_s": _metric(median("ops_per_s"), "1/s", jobs_note),
        "comm_ratio": _metric(mean("comm_ratio"), "ratio"),
        "migrated_bytes": _metric(mean("migrated_bytes"), "bytes"),
        "p50_ms": _metric(p50, "ms", count_note),
        "p99_ms": _metric(p99, "ms", count_note),
        "goodput_qps": _metric(
            sum(c["within_limit"] for c in children)
            / sum(c["goodput_window_s"] for c in children),
            "1/s",
        ),
        "served_frac": _metric(
            sum(c["answered"] for c in children) / sum(c["ops"] for c in children),
            "fraction",
        ),
        "cpu_ms_per_op": _metric(median("cpu_ms_per_op"), "ms", jobs_note),
        "bytes_per_op": _metric(mean("bytes_per_op"), "bytes"),
        "peak_rss_mb": _metric(statistics.median(c["rss_mb"] for c in children), "MiB"),
    }
    if workload == "serve":
        late = [ms for child in children for ms in child["late_ms"]]
        late_p99, late_n, late_beyond = _percentile(late, 0.99)
        stalls = [ms for child in children for ms in child["replan_ms"]]
        shed = [Counter(child["shed"]) for child in children]
        print(
            f"serve    loadgen.late_p99_ms {late_p99:.3f} ms ({late_n} samples, "
            f"{late_beyond} beyond); {len(stalls)} replans, longest "
            f"{max(stalls):.1f} ms; shed {dict(sum(shed, Counter()))}"
        )
    return metrics


# (metric, layer) pairs: the layer's self time in the traced region.
SELF_TIMES = [
    ("core.correlation.mine_s", "core.correlation.mine"),
    ("core.lp.build_s", "core.lp.build"),
    ("core.lp.extract_s", "core.lp.extract"),
    ("lpsolve.solve_s", "lpsolve.solve"),
    ("core.rounding.round_s", "core.rounding.round"),
    ("core.repair.repair_s", "core.repair.repair"),
    ("core.greedy.greedy_s", "core.greedy.greedy"),
    ("core.lprr.self_s", "core.lprr.plan"),
    ("search.replay_s", "search.replay"),
    ("search.execute_s", "search.execute"),
    ("online.sketch.ingest_s", "online.sketch.ingest"),
    ("online.drift.detect_s", "online.drift.detect"),
    ("online.replan_s", "online.replan"),
    ("core.migration.select_s", "core.migration.select"),
    ("online.controller_s", "online.period"),
    ("serve.replan_s", "serve.replan"),
]


def _layer_metrics(workload: str, plain: dict, traced: dict) -> dict:
    setup, region = traced["layers"]["setup"], traced["layers"]["region"]

    def delta(kind: str, layer: str) -> float:
        return region[kind].get(layer, 0) - setup[kind].get(layer, 0)

    obs = traced["obs"]
    metrics = {
        "search.index_build_s": _metric(setup["self_s"].get("search.index_build", 0.0), "s"),
    }
    for name, layer in SELF_TIMES:
        metrics[name] = _metric(delta("self_s", layer), "s")
    queries = obs.get("engine.queries", 0)
    periods = region["durations"].get("online.period", [])
    serve = workload == "serve"
    metrics.update(
        {
            "lp.num_variables": _metric(obs.get("lp.num_variables", 0), "count"),
            "lp.num_constraints": _metric(obs.get("lp.num_constraints", 0), "count"),
            "rounding.trials": _metric(obs.get("rounding.trials", 0), "count"),
            "search.unique_frac": _metric(
                obs.get("engine.unique_queries", 0) / queries if queries else 0.0,
                "fraction",
            ),
            "search.bytes": _metric(obs.get("engine.bytes", 0), "bytes"),
            "online.sketch.evictions": _metric(traced.get("evictions", 0), "count"),
            "online.period_p50_s": _metric(
                statistics.median(periods) if periods else 0.0, "s"
            ),
            "online.period_max_s": _metric(max(periods, default=0.0), "s"),
            "online.replans": _metric(obs.get("online.replans", 0), "count"),
            "serve.unique_frac": _metric(
                delta("calls", "search.execute") / traced["answered"] if serve else 0.0,
                "fraction",
            ),
            "serve.batches": _metric(obs.get("serve.batches", 0), "count"),
            "serve.batch_size_p50": _metric(obs.get("serve.batch_size.p50", 0), "count"),
            "serve.replan_max_ms": _metric(max(traced.get("replan_ms", []), default=0.0), "ms"),
            "serve.loop_lag_p99_ms": _metric(
                _percentile(traced["lag_ms"], 0.99)[0] if serve else 0.0, "ms"
            ),
            "serve.shed.throttled": _metric(traced.get("shed", {}).get("throttled", 0), "count"),
            "serve.shed.queue_full": _metric(traced.get("shed", {}).get("queue_full", 0), "count"),
            "loadgen.late_p99_ms": _metric(
                _percentile(traced["late_ms"], 0.99)[0] if serve else 0.0, "ms"
            ),
            # The planner's own model cost, a quality figure of the
            # planning layers; it varies too much from seed to seed on
            # online (a third per job) to serve as an end-to-end metric.
            "core.plan_cost": _metric(traced["plan_cost"], "model_cost"),
            "workloads.gen_s": _metric(traced["gen_s"], "s"),
            "unattributed_s": _metric(delta("self_s", REGION), "s"),
            # The region's work, not its loop clock: serve's region is
            # paced by its schedule.
            "trace.overhead_s": _metric(traced["work_s"] - plain["work_s"], "s"),
        }
    )
    attributed = sum(delta("self_s", layer) for _, layer in SELF_TIMES)
    print(
        f"{workload}: traced region {region['durations'][REGION][-1]:.4f} s = layer self times "
        f"{attributed:.4f} s + unattributed {delta('self_s', REGION):.4f} s; "
        f"region {traced['work_s']:.4f} s traced, "
        f"{plain['work_s']:.4f} s untraced"
    )
    for name, reason in NOT_MEASURED.items():
        print(f"not measured: {name} ({reason})")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
