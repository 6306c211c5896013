"""Tests for LP dual values (shadow prices)."""

import numpy as np
import pytest

from repro.core.lp import build_placement_lp
from repro.core.problem import PlacementProblem
from repro.lpsolve import LinearProgram, Sense


class TestDuals:
    def test_binding_le_constraint_has_negative_dual(self):
        # min -x s.t. x <= 4: relaxing the row by 1 improves by -1.
        lp = LinearProgram()
        x = lp.add_variable(objective=-1.0)
        lp.add_constraint([(x, 1.0)], Sense.LE, 4.0, name="cap")
        result = lp.solve(backend="highs")
        assert result.duals is not None
        assert result.duals[0] == pytest.approx(-1.0)

    def test_slack_constraint_has_zero_dual(self):
        lp = LinearProgram()
        x = lp.add_variable(objective=1.0, upper=1.0)
        lp.add_constraint([(x, 1.0)], Sense.LE, 100.0, name="loose")
        result = lp.solve(backend="highs")
        assert result.duals[0] == pytest.approx(0.0)

    def test_ge_dual_sign_restored(self):
        # min x s.t. x >= 3: raising the rhs by 1 raises the optimum by 1.
        lp = LinearProgram()
        x = lp.add_variable(objective=1.0)
        lp.add_constraint([(x, 1.0)], Sense.GE, 3.0)
        result = lp.solve(backend="highs")
        # Convention: marginal w.r.t. the negated (<=) form, sign flipped
        # back, so the magnitude is the sensitivity |d obj / d rhs| = 1.
        assert abs(result.duals[0]) == pytest.approx(1.0)

    def test_strong_duality_objective_recovered(self):
        """b'y + bound terms == optimum on a pure-inequality program."""
        rng = np.random.default_rng(4)
        lp = LinearProgram()
        xs = [lp.add_variable(objective=float(c)) for c in rng.uniform(1, 2, 3)]
        rows = []
        for _ in range(3):
            coeffs = rng.uniform(0.1, 1.0, 3)
            rhs = float(rng.uniform(1, 2))
            lp.add_constraint(list(zip(xs, coeffs)), Sense.GE, rhs)
            rows.append(rhs)
        result = lp.solve(backend="highs")
        assert result.is_optimal
        # For min c'x, Ax >= b, x >= 0: optimum == b'y with y >= 0 —
        # the sign restoration makes GE duals nonnegative.
        duals = np.asarray(result.duals)
        assert np.all(duals >= -1e-9)
        assert float(np.dot(rows, duals)) == pytest.approx(
            result.objective, abs=1e-6
        )

    def test_mixed_senses_alignment(self):
        """Duals must land on the right original rows after reordering."""
        lp = LinearProgram()
        x = lp.add_variable(objective=1.0, upper=10.0)
        y = lp.add_variable(objective=1.0, upper=10.0)
        eq = lp.add_constraint([(x, 1.0)], Sense.EQ, 2.0, name="pin")
        ge = lp.add_constraint([(y, 1.0)], Sense.GE, 3.0, name="floor")
        le = lp.add_constraint([(y, 1.0)], Sense.LE, 100.0, name="roof")
        result = lp.solve(backend="highs")
        assert abs(result.duals[eq.index]) == pytest.approx(1.0)
        assert abs(result.duals[ge.index]) == pytest.approx(1.0)
        assert result.duals[le.index] == pytest.approx(0.0)


def capacity_prices(problem):
    """Each node's capacity-row dual in the placement LP (NaN: no row)."""
    lp = build_placement_lp(problem)
    result = lp.solve(backend="highs")
    rows = {lp.constraint_name(r): r for r in range(lp.num_constraints)}
    return np.array(
        [
            result.duals[rows[f"capacity[{k}]"]]
            if f"capacity[{k}]" in rows
            else np.nan
            for k in range(problem.num_nodes)
        ]
    )


class TestCapacityShadowPrices:
    """Capacity shadow prices stay readable from ``LPResult.duals``."""

    def test_binding_capacity_detected(self):
        # Two big correlated objects, small nodes: capacity binds.
        p = PlacementProblem.build(
            {"a": 3.0, "b": 3.0, "c": 1.0},
            {0: 4.0, 1: 4.0},
            {("a", "b"): 1.0, ("a", "c"): 0.4},
        )
        prices = capacity_prices(p)
        assert prices.shape == (2,)
        assert np.all(np.isfinite(prices))

    def test_uncapacitated_nodes_have_nan(self):
        p = PlacementProblem.build({"a": 1.0, "b": 1.0}, 2, {("a", "b"): 0.5})
        assert np.all(np.isnan(capacity_prices(p)))

    def test_loose_capacity_zero_price(self):
        p = PlacementProblem.build(
            {"a": 1.0, "b": 1.0}, {0: 100.0, 1: 100.0}, {("a", "b"): 0.5}
        )
        assert np.allclose(capacity_prices(p), 0.0, atol=1e-9)
