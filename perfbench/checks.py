"""Output checks, one per workload.

Each takes plain values taken from the program's outputs and returns
the list of failed checks (empty when every check passes).  A child
whose list is not empty counts all its operations as failed.
``selftest.py`` feeds them corrupted outputs to show that they fail.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

SHED_REASONS = ("throttled", "queue_full", "draining")


def check_offline(
    *,
    assignment: np.ndarray,
    num_objects: int,
    num_nodes: int,
    scope_index: Sequence[int],
    sizes: np.ndarray,
    capacities: np.ndarray,
    tolerance: float,
    comm_ratio: float,
) -> list[str]:
    """Every object placed, planner capacities respected, beats hash."""
    failures = []
    assignment = np.asarray(assignment)
    if assignment.shape != (num_objects,) or not np.all(
        (assignment >= 0) & (assignment < num_nodes)
    ):
        failures.append("offline: an object is unplaced or on an unknown node")
    else:
        scoped = np.asarray(scope_index, dtype=np.int64)
        loads = np.bincount(
            assignment[scoped], weights=np.asarray(sizes)[scoped], minlength=num_nodes
        )
        limits = np.asarray(capacities, dtype=float) * (1.0 + tolerance)
        if np.any(loads > limits + 1e-9):
            failures.append("offline: a node's load exceeds the planner's capacity")
    if not comm_ratio < 1.0:
        failures.append(f"offline: comm_ratio {comm_ratio:.4f} is not below 1")
    return failures


def check_online(
    *,
    period_operations: Iterable[int],
    stream_length: int,
    moves: Iterable[tuple[float, float | None]],
) -> list[str]:
    """Periods account for the whole stream; no move exceeds its budget."""
    failures = []
    total = sum(period_operations)
    if total != stream_length:
        failures.append(f"online: periods hold {total} operations, stream has {stream_length}")
    for moved, budget in moves:
        if budget is None or moved > budget + 1e-9:
            failures.append(f"online: a replan moved {moved} bytes over budget {budget}")
            break
    return failures


def check_serve(
    *,
    offered: int,
    answered_versions: Sequence[int],
    shed_reasons: Sequence[str],
    published_versions: set[int],
    dropped_in_flight: int,
) -> list[str]:
    """Every query answered or shed for a typed reason, none dropped."""
    failures = []
    if offered != len(answered_versions) + len(shed_reasons):
        failures.append(
            f"serve: offered {offered} != answered {len(answered_versions)}"
            f" + shed {len(shed_reasons)}"
        )
    if any(reason not in SHED_REASONS for reason in shed_reasons):
        failures.append("serve: a shed query has no typed reason")
    if dropped_in_flight:
        failures.append(f"serve: {dropped_in_flight} queries dropped in flight")
    if any(version not in published_versions for version in answered_versions):
        failures.append("serve: an answer carries an unpublished plan version")
    return failures
