"""Self-test: the output checks pass real outputs and fail corrupted ones.

    python3 perfbench/selftest.py

Run from the repository root.  Plans a small search case study with
``lprr`` and checks the real placement, then corrupts it (every scoped
object on one node, an unplaced object, a ratio no better than hash)
and feeds the online and serve checks corrupted accounting.  Exits
non-zero if a check accepts a corrupted output or rejects a real one.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import check_offline, check_online, check_serve  # noqa: E402


def _small_offline() -> dict:
    from repro.core.strategies import PlanConfig, get_planner
    from repro.experiments.common import CaseStudy, CaseStudyConfig

    study = CaseStudy.build(
        CaseStudyConfig(
            num_documents=300, vocabulary_size=600, num_queries=3000, num_topics=60
        )
    )
    problem = study.placement_problem(4)
    config = PlanConfig(scope=80, seed=1)
    result = get_planner("lprr")(problem, config=config)
    lprr = result.details
    hashed = get_planner("hash")(problem, config=PlanConfig()).placement
    return dict(
        assignment=result.placement.assignment.copy(),
        num_objects=problem.num_objects,
        num_nodes=problem.num_nodes,
        scope_index=[problem.object_index(obj) for obj in lprr.scope_objects],
        sizes=problem.sizes,
        capacities=lprr.effective_capacities,
        tolerance=config.capacity_tolerance,
        comm_ratio=study.replay_cost(result.placement) / study.replay_cost(hashed),
    )


def main() -> int:
    real = _small_offline()
    overloaded = dict(real, assignment=real["assignment"].copy())
    overloaded["assignment"][real["scope_index"]] = 0
    unplaced = dict(real, assignment=real["assignment"].copy())
    unplaced["assignment"][0] = -1
    online = dict(period_operations=[40, 60], stream_length=100, moves=[(5.0, 10.0)])
    serve = dict(
        offered=5,
        answered_versions=[1, 1, 2, 2],
        shed_reasons=["throttled"],
        published_versions={1, 2},
        dropped_in_flight=0,
    )
    cases = [
        ("offline: real lprr placement", check_offline, real, True),
        ("offline: every scoped object on node 0", check_offline, overloaded, False),
        ("offline: an unplaced object", check_offline, unplaced, False),
        ("offline: no better than hash", check_offline, dict(real, comm_ratio=1.0), False),
        ("online: consistent accounting", check_online, online, True),
        ("online: an operation lost", check_online, dict(online, stream_length=101), False),
        ("online: a move over budget", check_online, dict(online, moves=[(11.0, 10.0)]), False),
        ("serve: consistent accounting", check_serve, serve, True),
        ("serve: a query neither answered nor shed", check_serve, dict(serve, offered=6), False),
        ("serve: an untyped shed", check_serve, dict(serve, shed_reasons=["?"]), False),
        ("serve: a query dropped in flight", check_serve, dict(serve, dropped_in_flight=1), False),
        ("serve: an unpublished version", check_serve, dict(serve, answered_versions=[1, 1, 2, 3]), False),
    ]
    wrong = 0
    for name, check, output, should_pass in cases:
        failures = check(**output)
        ok = (not failures) == should_pass
        wrong += not ok
        verdict = "passes" if not failures else f"fails ({failures[0]})"
        print(f"{'ok ' if ok else 'BAD'} {name}: {verdict}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
