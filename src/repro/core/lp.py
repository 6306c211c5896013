"""The linear-programming relaxation of the CCA problem (Figure 4).

The integer program of the paper uses three variable families:

* ``x[i,k] ∈ {0,1}`` — object ``i`` is placed on node ``k``;
* ``y[i,j,k] = |x[i,k] - x[j,k]|`` for each correlated pair;
* ``z[i,j] = ½ Σ_k y[i,j,k]`` — the split indicator of a pair.

We relax ``x`` to ``[0, 1]`` and compact the program in two
optimum-preserving steps:

1. ``z`` is substituted out via its defining equality (8).
2. Because both objects place fully (``Σ_k x[i,k] = 1``), the positive
   and negative parts of ``x_i - x_j`` have equal mass over ``k``:
   ``Σ_k |x[i,k] - x[j,k]| = 2 Σ_k max(0, x[i,k] - x[j,k])``.  So one
   inequality ``y ≥ x[i,k] - x[j,k]`` per (pair, node) with the *full*
   pair weight in the objective replaces the paper's two inequalities
   (6)-(7) with half weight.  The objective minimizes nonnegative-
   weighted ``y``, so ``y = max(0, x_i - x_j)`` at the optimum and the
   optimal value is unchanged.

The result is the same LP optimum with ``|E|`` fewer variables and
``2|E||N| - |E||N|`` fewer rows than the literal Figure 4 program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import obs
from repro.core.problem import PlacementProblem
from repro.exceptions import InfeasibleProblemError, SolverError
from repro.lpsolve import LinearProgram, LPStatus, Sense


@dataclass(frozen=True)
class LPStats:
    """Size and solve statistics for one placement LP (Section 3.1)."""

    num_variables: int
    num_constraints: int
    num_nonzeros: int
    solve_seconds: float
    iterations: int

    def __str__(self) -> str:
        return (
            f"{self.num_variables} vars, {self.num_constraints} constraints, "
            f"{self.num_nonzeros} nonzeros, solved in {self.solve_seconds:.3f}s"
        )


@dataclass(frozen=True)
class FractionalPlacement:
    """Optimal solution of the relaxed placement LP.

    Attributes:
        problem: The instance that was relaxed.
        fractions: ``(t, n)`` matrix; row ``i`` is object ``i``'s
            fractional distribution over nodes (each row sums to 1).
        lower_bound: The LP optimum — a lower bound on the optimal
            integral communication cost, and by Theorem 2 the exact
            expected cost of the randomized rounding.
        stats: Program size and solve statistics.
    """

    problem: PlacementProblem
    fractions: np.ndarray
    lower_bound: float
    stats: LPStats

    def is_integral(self, tolerance: float = 1e-6) -> bool:
        """Whether the LP optimum is already an integral placement."""
        return bool(
            np.all(
                (self.fractions <= tolerance) | (self.fractions >= 1.0 - tolerance)
            )
        )

    def expected_node_loads(self) -> np.ndarray:
        """Expected per-node load ``Σ_i x[i,k] * s(i)`` (Theorem 3)."""
        return self.fractions.T @ self.problem.sizes


@dataclass(frozen=True)
class WarmStart:
    """A fractional solution carried between solves (docs/SOLVERS.md).

    Keyed by object and node *ids*, not indices, so a warm start
    survives scope changes between replans: objects that entered or
    left the heavy-hitter scope simply miss (and start uniform), while
    the stable majority resumes from its previous fractions.  Only the
    first-order backend consumes warm starts; the LP backends ignore
    them (HiGHS re-factorizes regardless).
    """

    node_ids: tuple[Any, ...]
    rows: dict[Any, tuple[float, ...]]

    @classmethod
    def from_fractional(cls, fractional: FractionalPlacement) -> "WarmStart":
        """Capture a solved relaxation as a reusable warm start."""
        problem = fractional.problem
        return cls(
            node_ids=problem.node_ids,
            rows={
                obj: tuple(fractional.fractions[i])
                for i, obj in enumerate(problem.object_ids)
            },
        )

    def matrix(self, problem: PlacementProblem) -> tuple[np.ndarray | None, int]:
        """Map the stored rows onto ``problem``'s index space.

        Returns ``(x0, hits)`` where ``hits`` counts objects whose
        previous fractions were found; unmatched objects get uniform
        rows.  Returns ``(None, 0)`` when nothing matches (node set
        changed entirely, or disjoint objects) — a cold start.
        """
        n = problem.num_nodes
        columns = {node: k for k, node in enumerate(self.node_ids)}
        node_map = [columns.get(node) for node in problem.node_ids]
        if all(k is None for k in node_map):
            return None, 0
        x0 = np.full((problem.num_objects, n), 1.0 / n)
        hits = 0
        for i, obj in enumerate(problem.object_ids):
            row = self.rows.get(obj)
            if row is None:
                continue
            mapped = np.full(n, 0.0)
            for k, source in enumerate(node_map):
                if source is not None and source < len(row):
                    mapped[k] = row[source]
            total = mapped.sum()
            if total > 0:
                x0[i] = mapped / total
                hits += 1
        if hits == 0:
            return None, 0
        return x0, hits


def build_placement_lp(problem: PlacementProblem) -> LinearProgram:
    """Construct the relaxed LP of Figure 4 for ``problem``.

    Variable layout: ``x[i,k]`` at index ``i*n + k``; ``y`` variables
    for pair ``p`` and node ``k`` at index ``t*n + p*n + k``.  Pairs
    with zero objective weight are excluded (they cannot affect the
    optimum), matching the paper's restriction to ``r(i,j) > 0``.

    All ``O(|E||N|)`` rows are assembled as whole COO blocks through
    :meth:`~repro.lpsolve.LinearProgram.add_constraints_from_arrays`;
    the resulting program is identical — same variable and constraint
    names, same row and triplet order — to the per-row reference
    :func:`_build_placement_lp_loop`.
    """
    t, n = problem.num_objects, problem.num_nodes
    lp = LinearProgram(f"cca-{t}x{n}")

    lp.add_variables_from_arrays(
        [f"x[{i},{k}]" for i in range(t) for k in range(n)],
        lower=0.0,
        upper=1.0,
    )

    active_pairs = np.where(problem.pair_weights > 0)[0]
    num_active = len(active_pairs)
    pair_i = problem.pair_index[active_pairs, 0]
    pair_j = problem.pair_index[active_pairs, 1]
    if num_active:
        lp.add_variables_from_arrays(
            [
                f"y[{i},{j},{k}]"
                for i, j in zip(pair_i.tolist(), pair_j.tolist())
                for k in range(n)
            ],
            lower=0.0,
            objective=np.repeat(problem.pair_weights[active_pairs], n),
        )

    ks = np.arange(n, dtype=np.int64)

    # (5): each object fully placed.
    lp.add_constraints_from_arrays(
        rows=np.repeat(np.arange(t, dtype=np.int64), n),
        cols=np.arange(t * n, dtype=np.int64),
        vals=np.ones(t * n),
        senses=Sense.EQ,
        rhs=np.ones(t),
        names=[f"assign[{i}]" for i in range(t)],
    )

    # (6)-(7) compacted: y >= x_i - x_j captures the positive part;
    # the negative part carries equal mass (see module docstring).
    y_base = t * n
    if num_active:
        y_cols = y_base + np.arange(num_active * n, dtype=np.int64).reshape(
            num_active, n
        )
        xi_cols = pair_i[:, None] * n + ks[None, :]
        xj_cols = pair_j[:, None] * n + ks[None, :]
        lp.add_constraints_from_arrays(
            rows=np.repeat(np.arange(num_active * n, dtype=np.int64), 3),
            cols=np.stack([y_cols, xi_cols, xj_cols], axis=2).reshape(-1),
            vals=np.tile([1.0, -1.0, 1.0], num_active * n),
            senses=Sense.GE,
            rhs=np.zeros(num_active * n),
        )

    # (9): per-node capacity; skip unconstrained (infinite) nodes.
    finite_k = np.flatnonzero(np.isfinite(problem.capacities))
    if finite_k.size:
        m = len(finite_k)
        lp.add_constraints_from_arrays(
            rows=np.repeat(np.arange(m, dtype=np.int64), t),
            cols=(
                np.arange(t, dtype=np.int64)[None, :] * n + finite_k[:, None]
            ).reshape(-1),
            vals=np.tile(np.asarray(problem.sizes, dtype=float), m),
            senses=Sense.LE,
            rhs=problem.capacities[finite_k],
            names=[f"capacity[{k}]" for k in finite_k.tolist()],
        )

    # Section 3.3: one more (9)-style row per extra resource and node.
    for spec in problem.resources:
        loaded = np.flatnonzero(np.asarray(spec.loads) > 0)
        budget_k = np.flatnonzero(np.isfinite(spec.budgets))
        if not loaded.size or not budget_k.size:
            continue
        m = len(budget_k)
        lp.add_constraints_from_arrays(
            rows=np.repeat(np.arange(m, dtype=np.int64), loaded.size),
            cols=(loaded[None, :] * n + budget_k[:, None]).reshape(-1),
            vals=np.tile(np.asarray(spec.loads, dtype=float)[loaded], m),
            senses=Sense.LE,
            rhs=np.asarray(spec.budgets, dtype=float)[budget_k],
            names=[f"{spec.name}[{k}]" for k in budget_k.tolist()],
        )
    return lp


def _build_placement_lp_loop(problem: PlacementProblem) -> LinearProgram:
    """Per-row reference assembly of the Figure 4 LP.

    Kept as the equivalence oracle for :func:`build_placement_lp` (the
    property tests assert identical program state) and as the "before"
    side of the ``repro bench`` LP-assembly scenario.
    """
    t, n = problem.num_objects, problem.num_nodes
    lp = LinearProgram(f"cca-{t}x{n}")

    for i in range(t):
        for k in range(n):
            lp.add_variable(f"x[{i},{k}]", lower=0.0, upper=1.0)

    active_pairs = np.where(problem.pair_weights > 0)[0]
    for p in active_pairs:
        i, j = problem.pair_index[p]
        weight = problem.pair_weights[p]
        for k in range(n):
            lp.add_variable(f"y[{i},{j},{k}]", lower=0.0, objective=weight)

    for i in range(t):
        lp.add_constraint(
            [(i * n + k, 1.0) for k in range(n)], Sense.EQ, 1.0, f"assign[{i}]"
        )

    y_base = t * n
    for idx, p in enumerate(active_pairs):
        i, j = problem.pair_index[p]
        for k in range(n):
            y_var = y_base + idx * n + k
            xi, xj = i * n + k, j * n + k
            lp.add_constraint(
                [(y_var, 1.0), (xi, -1.0), (xj, 1.0)], Sense.GE, 0.0
            )

    for k in range(n):
        cap = problem.capacities[k]
        if np.isfinite(cap):
            lp.add_constraint(
                [(i * n + k, float(problem.sizes[i])) for i in range(t)],
                Sense.LE,
                float(cap),
                f"capacity[{k}]",
            )

    for spec in problem.resources:
        for k in range(n):
            budget = spec.budgets[k]
            if not np.isfinite(budget):
                continue
            terms = [
                (i * n + k, float(spec.loads[i]))
                for i in range(t)
                if spec.loads[i] > 0
            ]
            if terms:
                lp.add_constraint(
                    terms, Sense.LE, float(budget), f"{spec.name}[{k}]"
                )
    return lp


def solve_placement_lp(
    problem: PlacementProblem,
    backend: str = "auto",
    time_limit: float | None = None,
    iteration_limit: int | None = None,
    warm_start: WarmStart | None = None,
) -> FractionalPlacement:
    """Solve the relaxed placement LP and extract the fractional scheme.

    Args:
        problem: The CCA instance.
        backend: Relaxation backend name: ``"auto"``, ``"highs"``,
            ``"highs-ipm"``, or ``"simplex"`` solve the Figure 4 LP
            exactly; ``"fo"`` runs the first-order projected-gradient
            solver (:mod:`repro.lpsolve.firstorder`) on the same
            objective — approximate but 10-100x more scalable and warm-
            startable.
        time_limit: Optional solver wall-clock budget in seconds; for
            LP backends an exceeded budget surfaces as
            :class:`SolverError`, which the resilient planning chain
            treats as "try the next backend"; the first-order backend
            instead returns its current iterate (and loses byte-
            reproducibility — leave unset for deterministic runs).
        iteration_limit: Optional solver iteration budget, same
            semantics for LP backends; caps the first-order backend
            deterministically.
        warm_start: Optional previous fractional solution; consumed
            only by the ``"fo"`` backend (LP backends ignore it).

    Returns:
        The optimal :class:`FractionalPlacement`.

    Raises:
        InfeasibleProblemError: If the capacities cannot hold the
            objects (detected up front or reported by the solver).
        SolverError: On unexpected solver failure, including an
            exhausted time or iteration budget.
    """
    if problem.is_trivially_infeasible():
        raise InfeasibleProblemError(
            f"total object size {problem.total_size:.6g} exceeds "
            f"total capacity {problem.total_capacity:.6g}"
        )
    if backend == "fo":
        return _solve_placement_first_order(
            problem,
            time_limit=time_limit,
            iteration_limit=iteration_limit,
            warm_start=warm_start,
        )
    with obs.span("lp", objects=problem.num_objects, nodes=problem.num_nodes):
        with obs.span("lp.build"):
            lp = build_placement_lp(problem)
        obs.gauge("lp.num_variables").set(lp.num_variables)
        obs.gauge("lp.num_constraints").set(lp.num_constraints)
        obs.gauge("lp.num_nonzeros").set(lp.num_nonzeros)
        with obs.timed("lp.solve", backend=backend) as solve_span:
            result = lp.solve(
                backend=backend,
                time_limit=time_limit,
                iteration_limit=iteration_limit,
            )
        elapsed = solve_span.duration
        solve_span.set(status=result.status.name, iterations=result.iterations)
        obs.histogram("lp.solve_seconds").observe(elapsed)
        obs.counter("lp.solves").inc()

    if result.status is LPStatus.INFEASIBLE:
        raise InfeasibleProblemError(
            f"placement LP infeasible: {result.message}"
        )
    if result.status is not LPStatus.OPTIMAL:
        raise SolverError(
            f"placement LP ended with status {result.status}: {result.message}"
        )

    t, n = problem.num_objects, problem.num_nodes
    fractions = np.clip(result.x[: t * n].reshape(t, n), 0.0, 1.0)
    row_sums = fractions.sum(axis=1, keepdims=True)
    # Guard against solver round-off; rows are 1 up to tolerance already.
    np.divide(fractions, row_sums, out=fractions, where=row_sums > 0)

    stats = LPStats(
        num_variables=lp.num_variables,
        num_constraints=lp.num_constraints,
        num_nonzeros=lp.num_nonzeros,
        solve_seconds=elapsed,
        iterations=result.iterations,
    )
    return FractionalPlacement(problem, fractions, float(result.objective), stats)


def _solve_placement_first_order(
    problem: PlacementProblem,
    time_limit: float | None,
    iteration_limit: int | None,
    warm_start: WarmStart | None,
) -> FractionalPlacement:
    """Solve the relaxation approximately with the first-order backend.

    The gradient solver works on the compact ``(t, n)`` fractional
    matrix directly — no ``y`` variables, no explicit rows — so the
    reported :class:`LPStats` describe that formulation (``t*n``
    variables, one "constraint" per simplex row and per capacity-like
    budget).  One semantic caveat: ``lower_bound`` here is the relaxed
    objective *at the returned iterate*, an upper bound on the true LP
    optimum rather than a certified lower bound on the integral cost.
    The optimality-gap harness (``repro gap``) exists to measure what
    that approximation costs.

    Emits one ``plan.warm_start`` journal record per solve with the
    warm/cold decision and iteration count.
    """
    from repro.lpsolve.firstorder import FirstOrderOptions, solve_first_order

    t, n = problem.num_objects, problem.num_nodes
    x0 = None
    hits = 0
    if warm_start is not None:
        x0, hits = warm_start.matrix(problem)
    warm = x0 is not None

    knobs: dict[str, Any] = {"time_limit": time_limit}
    if iteration_limit is not None:
        knobs["max_iterations"] = iteration_limit
    options = FirstOrderOptions(**knobs)

    with obs.span("lp", objects=t, nodes=n, backend="fo"):
        finite_caps = int(np.isfinite(problem.capacities).sum())
        budget_rows = sum(
            int(np.isfinite(spec.budgets).sum()) for spec in problem.resources
        )
        obs.gauge("lp.num_variables").set(t * n)
        obs.gauge("lp.num_constraints").set(t + finite_caps + budget_rows)
        with obs.timed("lp.solve", backend="fo") as solve_span:
            solution = solve_first_order(
                problem.sizes,
                problem.capacities,
                problem.pair_index,
                problem.pair_weights,
                n,
                resources=tuple(
                    (np.asarray(spec.loads), np.asarray(spec.budgets))
                    for spec in problem.resources
                ),
                x0=x0,
                warm=warm,
                options=options,
            )
        elapsed = solve_span.duration
        solve_span.set(
            status="CONVERGED" if solution.converged else "ITERATION_LIMIT",
            iterations=solution.iterations,
        )
        obs.histogram("lp.solve_seconds").observe(elapsed)
        obs.counter("lp.solves").inc()
        obs.record(
            "plan.warm_start",
            backend="fo",
            warm="hit" if warm else ("miss" if warm_start is not None else "off"),
            hits=hits,
            objects=t,
            iterations=solution.iterations,
            converged=solution.converged,
        )

    stats = LPStats(
        num_variables=t * n,
        num_constraints=t + finite_caps + budget_rows,
        num_nonzeros=int(2 * np.count_nonzero(problem.pair_weights) + t * n),
        solve_seconds=elapsed,
        iterations=solution.iterations,
    )
    return FractionalPlacement(
        problem, solution.fractions, float(solution.objective), stats
    )
