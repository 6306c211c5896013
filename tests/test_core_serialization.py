"""Tests for JSON persistence (repro.core.serialization)."""

import json

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.core.serialization import (
    fractional_from_dict,
    fractional_to_dict,
    load_placement,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_placement,
    save_problem,
)
from repro.exceptions import TraceFormatError


@pytest.fixture
def problem():
    return PlacementProblem.build(
        objects={"a": 4.0, "b": 3.0, "c": 5.0},
        nodes={"n0": 8.0, "n1": 8.0},
        correlations={("a", "b"): 0.3, ("b", "c"): 0.2},
        resources={"cpu": ({"a": 2.0, "c": 1.0}, {"n0": 5.0, "n1": 5.0})},
    )


class TestProblemRoundTrip:
    def test_dict_round_trip_preserves_structure(self, problem):
        restored = problem_from_dict(problem_to_dict(problem))
        assert set(restored.object_ids) == set(map(str, problem.object_ids))
        assert restored.num_pairs == problem.num_pairs
        assert restored.total_size == pytest.approx(problem.total_size)
        assert restored.total_pair_weight == pytest.approx(problem.total_pair_weight)

    def test_capacities_preserved(self, problem):
        restored = problem_from_dict(problem_to_dict(problem))
        assert sorted(restored.capacities.tolist()) == [8.0, 8.0]

    def test_infinite_capacity_round_trips(self):
        p = PlacementProblem.build({"a": 1.0}, 2, {})
        restored = problem_from_dict(problem_to_dict(p))
        assert np.all(np.isinf(restored.capacities))

    def test_resources_preserved(self, problem):
        restored = problem_from_dict(problem_to_dict(problem))
        spec = restored.resource("cpu")
        assert spec.total_load == pytest.approx(3.0)
        assert spec.budgets.tolist() == [5.0, 5.0]

    def test_pair_costs_preserved(self, problem):
        restored = problem_from_dict(problem_to_dict(problem))
        weights = sorted(restored.pair_weights.tolist())
        assert weights == pytest.approx(sorted(problem.pair_weights.tolist()))

    def test_file_round_trip(self, problem, tmp_path):
        path = tmp_path / "problem.json"
        save_problem(problem, path)
        restored = load_problem(path)
        assert restored.num_objects == 3

    def test_schema_checked(self):
        with pytest.raises(TraceFormatError, match="schema"):
            problem_from_dict({"schema": "bogus"})

    def test_malformed_document(self):
        with pytest.raises(TraceFormatError, match="malformed"):
            problem_from_dict({"schema": "repro/problem/v1", "objects": {}})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(TraceFormatError, match="invalid JSON"):
            load_problem(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="cannot read"):
            load_problem(tmp_path / "missing.json")


class TestPlacementRoundTrip:
    def test_round_trip_preserves_cost(self, problem, tmp_path):
        placement = Placement.from_mapping(
            problem, {"a": "n0", "b": "n0", "c": "n1"}
        )
        # Serialize both so ids stringify consistently.
        restored_problem = problem_from_dict(problem_to_dict(problem))
        path = tmp_path / "placement.json"
        save_placement(placement, path)
        restored = load_placement(path, restored_problem)
        assert restored.communication_cost() == pytest.approx(
            placement.communication_cost()
        )

    def test_dict_round_trip(self, problem):
        placement = Placement.from_mapping(
            problem, {"a": "n0", "b": "n1", "c": "n1"}
        )
        restored_problem = problem_from_dict(problem_to_dict(problem))
        restored = Placement.from_dict(placement.to_dict(), restored_problem)
        assert restored.node_of("a") == "n0"

    def test_schema_checked(self, problem):
        with pytest.raises(TraceFormatError, match="schema"):
            Placement.from_dict({"schema": "nope"}, problem)

    def test_unknown_object_rejected(self, problem):
        restored_problem = problem_from_dict(problem_to_dict(problem))
        bad = {
            "schema": "repro/placement/v1",
            "mapping": {"zzz": "n0", "a": "n0", "b": "n0", "c": "n0"},
        }
        with pytest.raises(Exception):
            Placement.from_dict(bad, restored_problem)

    def test_removed_shims_stay_removed(self):
        # placement_to_dict / placement_from_dict were deprecated in
        # 1.6 and removed in 1.8 per the policy in docs/API.md.
        import repro.core.serialization as serialization

        assert not hasattr(serialization, "placement_to_dict")
        assert not hasattr(serialization, "placement_from_dict")

    def test_files_are_stable_json(self, problem, tmp_path):
        path = tmp_path / "problem.json"
        save_problem(problem, path)
        data = json.loads(path.read_text())
        assert data["schema"] == "repro/problem/v1"


class TestFractionalRoundTrip:
    def test_dict_round_trip(self, problem):
        from repro.core.lp import solve_placement_lp

        fractional = solve_placement_lp(problem)
        restored = fractional_from_dict(fractional_to_dict(fractional), problem)
        assert np.array_equal(restored.fractions, fractional.fractions)
        assert restored.lower_bound == fractional.lower_bound
        assert restored.stats == fractional.stats

    def test_artifact_with_capacity_duals_still_loads(self, problem):
        # LP cache artifacts written before 1.10 carry one capacity
        # dual per node; the key is ignored on load.
        from repro.core.lp import solve_placement_lp

        fractional = solve_placement_lp(problem)
        doc = fractional_to_dict(fractional)
        assert "capacity_duals" not in doc
        doc["capacity_duals"] = [0.0, float("nan")]
        restored = fractional_from_dict(json.loads(json.dumps(doc)), problem)
        assert np.array_equal(restored.fractions, fractional.fractions)
