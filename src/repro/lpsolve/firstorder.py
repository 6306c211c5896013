"""First-order (projected-gradient) solver for fractional placement.

HiGHS solves the Figure-4 LP exactly but builds an ``O(|E||N|)``-row
program, which caps the practical exact scope.  This module trades the
LP certificate for scale: it performs projected gradient descent
directly on the ``(t, n)`` fractional placement matrix ``X`` (one row
per object, each row on the probability simplex), so scopes 10-100x
beyond the LP backend stay in memory and finish in seconds.

The energy it minimizes is the *quadratic* colocation form

    E(X) = sum_p w_p * (1 - <X[i_p], X[j_p]>)

— the expected communication cost when every object is independently
rounded to a node drawn from its row.  On integral placements ``E``
equals the exact objective (1), so unlike the Figure-4 LP — whose
optimal face is flat (any consensus of fractional rows scores zero,
and a point in the middle of that face says nothing about a good
assignment) — this relaxation is tight at vertices.  ``E`` is concave
in ``X``, so descent is self-sharpening: iterates drift off the
uniform center toward integral corners, with the pair terms choosing
*which* corner (mass gravitates to wherever each object's correlated
neighbors already sit — label-propagation dynamics) and capacity dual
prices arbitrating *how much* lands on each node.

The full pipeline (SNIPPETS.md snippet 2 shape: relax -> first-order
solve -> argmax rounding -> greedy capacity repair):

1. **Mirror step.**  The gradient of the annealed energy
   ``E - T * H`` (``H`` = row entropy, ``T`` the temperature) is
   ``-(W @ X) + s λᵀ + T (log X + 1)``, where ``W`` is the sparse
   symmetric pair-weight matrix, ``s`` the sizes, and ``λ`` the dual
   prices.  A gradient step in the entropic (mirror-descent) geometry
   of the simplex has a closed form: each row moves toward the
   *softmax* of its field ``(W @ X - s λᵀ) / T``, damped by a convex
   combination with the previous iterate — one sparse matvec plus one
   row-softmax per iteration, and rows stay on the simplex by
   construction.  (The Euclidean variant of the same step is
   :func:`project_rows_to_simplex`, which still sanitizes warm starts
   and is property-tested against a loop oracle.)
2. **Annealing.**  ``T`` cools geometrically from
   ``temperature * L`` to ``temperature_min * L`` over the first
   ``cool_fraction`` of the iteration budget (``L`` = largest total
   pair weight incident to one object): high early ``T`` lets the
   label-propagation dynamics discover cluster structure while rows
   are still fractional; the cool-down then commits each row.
3. **Capacity dual ascent.**  Each capacity-like constraint block
   (node capacity, extra resources) carries a nonnegative price vector
   that grows on violated nodes and decays on slack ones, pushing mass
   off overloaded nodes.
4. **Deterministic rounding.**  :func:`round_argmax` takes each row's
   argmax (ties break to the lowest node index) and
   :func:`greedy_capacity_repair` moves the largest objects off
   overloaded nodes to their best-fraction feasible alternative.

A perfectly uniform iterate is a saddle point (every neighbor
attraction and every capacity violation is identical across nodes), so
cold starts apply a tiny seeded perturbation — the one use of
randomness, and a pure function of ``FirstOrderOptions.seed``.  No
decision reads the wall clock unless an explicit ``time_limit`` is set
(the one documented source of nondeterminism), so same-input solves
are byte-identical, which the warm-start journal records and the gap
harness rely on.

This module deliberately speaks raw NumPy arrays (the lpsolve layer
knows nothing about :class:`~repro.core.problem.PlacementProblem`);
:func:`repro.core.lp.solve_placement_lp` adapts problems to it under
``backend="fo"``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FirstOrderOptions:
    """Knobs of the projected-gradient solve.

    Attributes:
        max_iterations: Hard iteration cap (maps from
            ``PlanConfig.lp_iteration_limit``).
        check_every: Iterations between convergence checks and dual
            price updates.
        tolerance: Relative energy-improvement threshold; the solve
            stops once ``patience`` consecutive checks improve less
            than this while the iterate is near-integral.
        patience: Consecutive stalled checks required to stop.
        damping: Convex-combination weight of each mirror step:
            ``x <- (1 - damping) * x + damping * softmax(field / T)``.
            Undamped updates (1.0) oscillate bipartitely on strongly
            coupled graphs; 0.5 is the classic stable choice.
        dual_rate: Dual ascent rate on relative constraint violation
            (in units of the field scale ``L``, the largest total pair
            weight incident to one object).
        temperature: Initial annealing temperature, relative to the
            field scale ``L``.  The solve minimizes
            ``E(X) - T * H(X)`` (``H`` = row entropy): a high early
            ``T`` keeps rows fractional while the label-propagation
            dynamics discover the cluster structure, and the geometric
            cool-down then commits rows gradually instead of freezing
            the first corner the field happens to point at.
        temperature_min: Final relative temperature; warm starts
            begin here (their start point already encodes the cluster
            structure, so re-annealing would only burn iterations —
            this is the mechanism behind cheap online replans).
        cool_fraction: Fraction of the iteration budget over which
            the temperature anneals geometrically down to
            ``temperature_min``; the rest is zero-temperature polish.
            Deriving the cool-down from the budget guarantees a
            capped solve still returns a committed (near-integral)
            iterate rather than a half-cooled one.
        noise: Amplitude of the seeded symmetry-breaking perturbation
            added to the uniform cold start (warm starts skip it).
        seed: Seed of that perturbation.  Same seed, same solve, byte
            for byte.
        time_limit: Optional wall-clock budget in seconds, checked at
            check boundaries; exceeding it returns the current iterate
            early.  The only nondeterministic knob — leave ``None``
            (the default) for byte-reproducible solves.
    """

    max_iterations: int = 300
    check_every: int = 5
    tolerance: float = 1e-4
    patience: int = 2
    damping: float = 0.5
    dual_rate: float = 0.3
    temperature: float = 1.0
    temperature_min: float = 1e-2
    cool_fraction: float = 0.6
    noise: float = 1e-3
    seed: int = 0
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.check_every < 1:
            raise ValueError("check_every must be at least 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if not 0.0 < self.cool_fraction <= 1.0:
            raise ValueError("cool_fraction must be in (0, 1]")
        if self.temperature_min <= 0 or self.temperature < self.temperature_min:
            raise ValueError(
                "need temperature >= temperature_min > 0"
            )


@dataclass(frozen=True)
class FirstOrderSolution:
    """What one projected-gradient solve produced.

    Attributes:
        fractions: ``(t, n)`` matrix, every row on the simplex.
        objective: The colocation energy ``E`` at ``fractions`` — the
            expected communication cost under independent rounding of
            the rows.  At a near-integral iterate this approximates
            the argmax placement's cost; unlike an LP optimum it is
            *not* a certified lower bound (the gap harness measures
            what the approximation costs).
        iterations: Gradient iterations actually run — the quantity
            the warm-vs-cold replan acceptance compares.
        converged: Whether the stall criterion (rather than the
            iteration cap or time limit) ended the solve.
    """

    fractions: np.ndarray
    objective: float
    iterations: int
    converged: bool


def project_rows_to_simplex(matrix: np.ndarray) -> np.ndarray:
    """Euclidean-project every row of ``matrix`` onto the simplex.

    The standard sort-and-threshold algorithm (Held/Wolfe/Crowder),
    vectorized over rows: sort descending, find the largest prefix
    whose shifted mean stays below its last element, subtract that
    threshold, clip at zero.  Equivalent per row to the loop oracle
    :func:`_project_row_simplex_loop` (property-tested).
    """
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("expected a 2-D matrix with at least one column")
    n = x.shape[1]
    u = np.sort(x, axis=1)[:, ::-1]
    shifted = np.cumsum(u, axis=1) - 1.0
    ks = np.arange(1, n + 1, dtype=float)
    positive = u - shifted / ks > 0
    # Last index where the prefix condition holds (it holds at 0).
    rho = n - 1 - np.argmax(positive[:, ::-1], axis=1)
    theta = shifted[np.arange(x.shape[0]), rho] / (rho + 1.0)
    return np.maximum(x - theta[:, None], 0.0)


def _project_row_simplex_loop(row: np.ndarray) -> np.ndarray:
    """Reference per-row simplex projection (equivalence oracle)."""
    u = np.sort(np.asarray(row, dtype=float))[::-1]
    best = 0
    cumulative = 0.0
    for k, value in enumerate(u):
        cumulative += value
        if value - (cumulative - 1.0) / (k + 1) > 0:
            best = k
    theta = (np.cumsum(u)[best] - 1.0) / (best + 1)
    return np.maximum(row - theta, 0.0)


def _constraint_blocks(
    sizes: np.ndarray,
    capacities: np.ndarray,
    resources: tuple[tuple[np.ndarray, np.ndarray], ...],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Normalize capacity-like constraints to (loads, budgets, mask)."""
    blocks = []
    for loads, budgets in ((sizes, capacities), *resources):
        loads = np.asarray(loads, dtype=float)
        budgets = np.asarray(budgets, dtype=float)
        mask = np.isfinite(budgets) & (budgets > 0)
        if mask.any() and loads.any():
            blocks.append((loads, budgets, mask))
    return blocks


def solve_first_order(
    sizes: np.ndarray,
    capacities: np.ndarray,
    pair_index: np.ndarray,
    pair_weights: np.ndarray,
    num_nodes: int,
    *,
    resources: tuple[tuple[np.ndarray, np.ndarray], ...] = (),
    x0: np.ndarray | None = None,
    warm: bool = False,
    options: FirstOrderOptions | None = None,
) -> FirstOrderSolution:
    """Minimize the colocation energy by projected gradient descent.

    Args:
        sizes: ``(t,)`` object sizes.
        capacities: ``(n,)`` node capacities (``inf`` = unconstrained).
        pair_index: ``(p, 2)`` object-index pairs.
        pair_weights: ``(p,)`` nonnegative pair weights (zero-weight
            pairs are ignored).
        num_nodes: Number of nodes ``n``.
        resources: Extra capacity-like blocks as ``(loads, budgets)``
            array pairs (Section 3.3 resources).
        x0: Optional ``(t, n)`` starting matrix (rows are projected
            onto the simplex before use); ``None`` starts uniform plus
            the seeded perturbation.
        warm: Marks ``x0`` as a previous near-optimal solution; the
            solve starts from it unperturbed and typically stalls out
            in a fraction of the cold iterations — the mechanism
            behind cheap online replans.
        options: Solver knobs (:class:`FirstOrderOptions`).

    Returns:
        A :class:`FirstOrderSolution`; ``fractions`` rows sum to 1.
    """
    options = options or FirstOrderOptions()
    sizes = np.asarray(sizes, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    t, n = int(sizes.shape[0]), int(num_nodes)
    if n < 1:
        raise ValueError("num_nodes must be at least 1")

    if x0 is None:
        # Seeded symmetry breaking off the uniform saddle (see the
        # module docstring); projection restores the simplex rows.
        rng = np.random.default_rng(options.seed)
        x = project_rows_to_simplex(
            np.full((t, n), 1.0 / n) + options.noise * rng.random((t, n))
        )
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (t, n):
            raise ValueError(f"x0 shape {x0.shape} does not match ({t}, {n})")
        x = project_rows_to_simplex(x0)

    pair_index = np.asarray(pair_index, dtype=np.int64).reshape(-1, 2)
    pair_weights = np.asarray(pair_weights, dtype=float).reshape(-1)
    active = pair_weights > 0
    pi, pj = pair_index[active, 0], pair_index[active, 1]
    w = pair_weights[active]
    blocks = _constraint_blocks(sizes, capacities, tuple(resources))
    duals = [np.zeros(n) for _ in blocks]

    if pi.size == 0:
        # No pair pulls mass anywhere; the start point is already
        # stationary for the energy, so only report it projected.
        return FirstOrderSolution(
            fractions=x,
            objective=0.0,
            iterations=0,
            converged=True,
        )

    from scipy import sparse

    # Symmetric pair-weight matrix: (W @ X)[i] is the node-mass of
    # object i's correlated neighborhood, weighted by pair weight.
    weight_matrix = sparse.csr_matrix(
        (
            np.concatenate([w, w]),
            (np.concatenate([pi, pj]), np.concatenate([pj, pi])),
        ),
        shape=(t, t),
    )
    total_weight = float(w.sum())
    # Largest total incident weight sets the field scale: temperatures
    # and dual rates are expressed relative to it so one set of knob
    # defaults transfers across instance magnitudes.
    degree = np.asarray(weight_matrix.sum(axis=1)).reshape(-1)
    scale = float(degree.max())
    if scale <= 0:
        scale = 1.0

    def energy_at(matrix: np.ndarray) -> float:
        colocated = float((matrix[pi] * matrix[pj]).sum(axis=1) @ w)
        return total_weight - colocated

    temp_min = options.temperature_min * scale
    temp = temp_min if warm else options.temperature * scale
    # Geometric cool-down sized to finish within cool_fraction of the
    # iteration budget (see the options docstring).
    cool_checks = max(
        1.0,
        options.cool_fraction * options.max_iterations / options.check_every,
    )
    if temp > temp_min:
        temperature_decay = (temp_min / temp) ** (1.0 / cool_checks)
    else:
        temperature_decay = 1.0
    best_e = energy_at(x)
    stalled = 0
    iterations = 0
    converged = False
    deadline = (
        None
        if options.time_limit is None
        else time.monotonic() + options.time_limit
    )

    while iterations < options.max_iterations:
        burst = min(options.check_every, options.max_iterations - iterations)
        for _ in range(burst):
            # The mirror (entropic-prox) step on E - T*H in closed
            # form: each row moves toward the softmax of its field —
            # neighborhood attraction minus capacity prices.
            field = weight_matrix @ x
            for (loads, budgets, mask), price in zip(blocks, duals):
                field -= loads[:, None] * price[None, :]
            field /= temp
            field -= field.max(axis=1, keepdims=True)
            np.exp(field, out=field)
            field /= field.sum(axis=1, keepdims=True)
            x = (1.0 - options.damping) * x + options.damping * field
        iterations += burst

        # Dual ascent on relative violation; slack nodes decay so a
        # price never pins mass off a node that stopped overflowing.
        for (loads, budgets, mask), price in zip(blocks, duals):
            load = x.T @ loads
            violation = np.zeros(n)
            violation[mask] = (load[mask] - budgets[mask]) / budgets[mask]
            np.maximum(
                price + options.dual_rate * scale * violation, 0.0, out=price
            )

        e = energy_at(x)
        cooled = temp <= temp_min
        near_vertex = float(np.mean(x.max(axis=1))) >= 0.95
        if (
            cooled
            and near_vertex
            and e >= best_e - options.tolerance * max(1.0, best_e)
        ):
            stalled += 1
            if stalled >= options.patience:
                converged = True
                break
        else:
            stalled = 0
        best_e = min(best_e, e)
        temp = max(temp_min, temp * temperature_decay)
        if deadline is not None and time.monotonic() >= deadline:
            break

    row_sums = x.sum(axis=1, keepdims=True)
    np.divide(x, row_sums, out=x, where=row_sums > 0)
    return FirstOrderSolution(
        fractions=x,
        objective=energy_at(x),
        iterations=iterations,
        converged=converged,
    )


def round_argmax(fractions: np.ndarray) -> np.ndarray:
    """Deterministic rounding: each object to its largest-fraction node.

    Ties break to the lowest node index (NumPy argmax semantics), so
    the rounding is a pure function of the fractions.
    """
    return np.argmax(np.asarray(fractions, dtype=float), axis=1).astype(np.int64)


def greedy_capacity_repair(
    assignment: np.ndarray,
    fractions: np.ndarray,
    sizes: np.ndarray,
    capacities: np.ndarray,
    tolerance: float = 0.05,
) -> tuple[np.ndarray, int]:
    """Move objects off overloaded nodes, guided by the fractions.

    While some node exceeds ``capacity * (1 + tolerance)``, the most
    overloaded node evicts its largest object that fits elsewhere, to
    the feasible node where the object's fraction is largest (the
    cheapest alternative the relaxation itself suggests).  Entirely
    deterministic: nodes by overload then index, objects by size then
    index, targets by fraction then index.

    Returns:
        ``(assignment, moves)`` — a repaired copy and the move count.
        If some node cannot be drained (nothing fits anywhere else),
        the remaining overload is left for the planner-level repair.
    """
    assignment = np.asarray(assignment, dtype=np.int64).copy()
    sizes = np.asarray(sizes, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    n = capacities.shape[0]
    limits = capacities * (1.0 + tolerance)
    loads = np.bincount(assignment, weights=sizes, minlength=n)
    moves = 0
    for _ in range(assignment.shape[0]):
        excess = loads - limits
        k = int(np.argmax(excess))
        if not excess[k] > 0:
            break
        members = np.flatnonzero(assignment == k)
        # Largest first; ties by object index for determinism.
        order = members[np.lexsort((members, -sizes[members]))]
        moved = False
        for i in order:
            i = int(i)
            room = limits - loads >= sizes[i]
            room[k] = False
            if not room.any():
                continue
            preference = np.where(room, fractions[i], -np.inf)
            target = int(np.argmax(preference))
            assignment[i] = target
            loads[k] -= sizes[i]
            loads[target] += sizes[i]
            moves += 1
            moved = True
            break
        if not moved:
            break
    return assignment, moves
