"""Tests for the knob auto-tuner (repro.eval.tuning)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import (
    DesignPoint,
    Workbench,
    pareto_frontier,
    select_within_budget,
    sweep_design_space,
    tune_knobs,
)

#: A reduced grid so the tests reuse only detectors the eval/bench
#: suites build anyway.
SMALL_GRID = (("BwCu", 0.5), ("FwAb", 0.5))


@pytest.fixture(scope="module")
def wb():
    return Workbench.get("alexnet_imagenet")


@pytest.fixture(scope="module")
def points(wb):
    return sweep_design_space(wb, grid=SMALL_GRID, attacks=("bim",))


class TestSweep:
    def test_one_point_per_grid_entry(self, points):
        assert [(p.variant, p.theta) for p in points] == list(SMALL_GRID)

    def test_points_carry_valid_measurements(self, points):
        for p in points:
            assert 0.0 <= p.auc <= 1.0
            assert p.latency_overhead >= 1.0
            assert p.energy_overhead >= 1.0

    def test_fwab_cheaper_than_bwcu(self, points):
        by_variant = {p.variant: p for p in points}
        assert (by_variant["FwAb"].latency_overhead
                < by_variant["BwCu"].latency_overhead)


class TestTuneKnobs:
    def test_budget_validation(self, wb):
        with pytest.raises(ValueError):
            tune_knobs(wb, latency_budget=0.5)
        with pytest.raises(ValueError):
            tune_knobs(wb, energy_budget=0.0)
        with pytest.raises(ValueError):
            tune_knobs(wb, latency_budget=float("nan"))

    def test_unbounded_budget_picks_most_accurate(self, wb, points):
        result = tune_knobs(wb, grid=SMALL_GRID, attacks=("bim",))
        assert result.satisfiable
        assert result.best.auc == max(p.auc for p in points)
        assert not result.rejected

    def test_tight_latency_budget_forces_fwab(self, wb):
        """At a ~10% latency budget only forward extraction survives —
        the paper's FwAb headline regime."""
        result = tune_knobs(
            wb, latency_budget=1.1, grid=SMALL_GRID, attacks=("bim",)
        )
        assert result.satisfiable
        assert result.best.variant == "FwAb"
        assert any(p.variant == "BwCu" for p in result.rejected)

    def test_impossible_budget_unsatisfiable(self, wb):
        result = tune_knobs(
            wb, latency_budget=1.0, energy_budget=1.0,
            grid=SMALL_GRID, attacks=("bim",),
        )
        assert not result.satisfiable
        assert result.best is None
        assert len(result.rejected) == len(SMALL_GRID)

    def test_frontier_sorted_by_latency(self, wb):
        result = tune_knobs(wb, grid=SMALL_GRID, attacks=("bim",))
        latencies = [p.latency_overhead for p in result.frontier]
        assert latencies == sorted(latencies)


def _point(auc, latency):
    return DesignPoint(
        variant="x", theta=0.5, auc=auc,
        latency_overhead=latency, energy_overhead=1.0,
    )


class TestSelectWithinBudget:
    def test_picks_best_admissible(self):
        cheap = _point(0.8, 1.1)
        accurate = _point(0.95, 5.0)
        result = select_within_budget([cheap, accurate], latency_budget=2.0)
        assert result.best == cheap
        assert result.rejected == [accurate]

    def test_tie_breaks_toward_lower_latency(self):
        slow = _point(0.9, 3.0)
        fast = _point(0.9, 1.5)
        result = select_within_budget([slow, fast])
        assert result.best == fast

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            select_within_budget([_point(0.9, 2.0)], latency_budget=0.9)


class TestParetoFrontier:
    def test_dominated_point_removed(self):
        good = _point(0.9, 2.0)
        dominated = _point(0.8, 3.0)
        assert pareto_frontier([good, dominated]) == [good]

    def test_incomparable_points_kept(self):
        cheap = _point(0.8, 1.1)
        accurate = _point(0.95, 5.0)
        assert pareto_frontier([cheap, accurate]) == [cheap, accurate]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(
            st.floats(min_value=0.5, max_value=1.0),
            st.floats(min_value=1.0, max_value=50.0),
        ),
        min_size=1, max_size=12,
    ))
    def test_frontier_is_mutually_nondominated(self, raw):
        points = [_point(auc, latency) for auc, latency in raw]
        frontier = pareto_frontier(points)
        assert frontier, "a non-empty set always has a frontier"
        for p in frontier:
            assert not any(
                q.auc > p.auc and q.latency_overhead < p.latency_overhead
                for q in points
            )
