"""Automatic knob tuning over the accuracy-efficiency trade-off space.

The paper's framework "allows programmers to calibrate the algorithmic
knobs to explore the accuracy-cost trade-off that best suits an
application's needs" (Sec. I) and demonstrates the space manually
(Table II, Sec. VII-F).  This module closes the loop: given a latency
(or energy) budget expressed as a multiple of plain inference, it
sweeps the variant x theta grid on a :class:`~repro.eval.harness.
Workbench`, discards points over budget, and returns the most accurate
admissible design point plus the whole frontier for inspection.

The sweep reuses the workbench's caches, so repeated tuning calls (or
tuning after benchmarks already ran) cost little.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.eval.harness import Workbench

__all__ = [
    "DesignPoint",
    "TuningResult",
    "pareto_frontier",
    "select_within_budget",
    "sweep_design_space",
    "tune_knobs",
]

#: (variant, theta) grid the default sweep explores.  Absolute-threshold
#: variants ignore theta (phi is calibrated from profiling data), so
#: they appear once.
DEFAULT_GRID: Tuple[Tuple[str, float], ...] = (
    ("BwCu", 0.1),
    ("BwCu", 0.5),
    ("BwCu", 0.9),
    ("Hybrid", 0.5),
    ("BwAb", 0.5),
    ("FwAb", 0.5),
)


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated point of the trade-off space."""

    variant: str
    theta: float
    auc: float
    latency_overhead: float
    energy_overhead: float

    def within(self, latency_budget: float, energy_budget: float) -> bool:
        return (
            self.latency_overhead <= latency_budget
            and self.energy_overhead <= energy_budget
        )


@dataclass
class TuningResult:
    """Outcome of :func:`tune_knobs`."""

    best: Optional[DesignPoint]
    frontier: List[DesignPoint]
    rejected: List[DesignPoint]

    @property
    def satisfiable(self) -> bool:
        return self.best is not None


def sweep_design_space(
    workbench: Workbench,
    grid: Sequence[Tuple[str, float]] = DEFAULT_GRID,
    attacks: Tuple[str, ...] = ("bim", "fgsm"),
) -> List[DesignPoint]:
    """Measure AUC and modelled cost for every (variant, theta) point.

    ``attacks`` keeps the sweep affordable by default; pass the full
    five-attack tuple for paper-grade averages.
    """
    points = []
    for variant, theta in grid:
        auc = float(np.mean([
            workbench.variant_auc(variant, attack, theta=theta)
            for attack in attacks
        ]))
        cost = workbench.variant_cost(variant, theta=theta)
        points.append(DesignPoint(
            variant=variant,
            theta=theta,
            auc=auc,
            latency_overhead=cost.latency_overhead,
            energy_overhead=cost.energy_overhead,
        ))
    return points


def tune_knobs(
    workbench: Workbench,
    latency_budget: float = float("inf"),
    energy_budget: float = float("inf"),
    grid: Sequence[Tuple[str, float]] = DEFAULT_GRID,
    attacks: Tuple[str, ...] = ("bim", "fgsm"),
) -> TuningResult:
    """Pick the most accurate design point within the given budgets.

    Budgets are overhead multipliers relative to plain inference
    (``latency_budget=1.1`` means "at most 10% extra latency", the
    regime where the paper's FwAb lives).  Ties on AUC break toward
    lower latency.  ``best`` is ``None`` when no point fits, in which
    case the caller can inspect ``rejected`` for the nearest misses.
    """
    _check_budgets(latency_budget, energy_budget)
    points = sweep_design_space(workbench, grid, attacks)
    return select_within_budget(points, latency_budget, energy_budget)


def _check_budgets(latency_budget: float, energy_budget: float) -> None:
    """Budgets are multiples of plain inference: at least 1.0, with
    infinity meaning unbounded.  NaN compares false with everything, so
    it would silently reject every point; it is refused instead."""
    for budget in (latency_budget, energy_budget):
        if not budget >= 1.0:
            raise ValueError(
                "budgets are multiples of plain inference and must be "
                f">= 1.0 (got {budget!r})"
            )


def select_within_budget(
    points: Sequence[DesignPoint],
    latency_budget: float = float("inf"),
    energy_budget: float = float("inf"),
) -> TuningResult:
    """Budgeted selection over already-measured design points.

    The measurement-free half of :func:`tune_knobs`, for callers that
    built their own points (e.g. from a custom sweep like
    ``examples/tradeoff_explorer.py``).  Ties on AUC break toward
    lower latency.
    """
    _check_budgets(latency_budget, energy_budget)
    admissible = [
        p for p in points if p.within(latency_budget, energy_budget)
    ]
    rejected = [
        p for p in points if not p.within(latency_budget, energy_budget)
    ]
    best = (
        max(admissible, key=lambda p: (p.auc, -p.latency_overhead))
        if admissible
        else None
    )
    return TuningResult(
        best=best, frontier=pareto_frontier(points), rejected=rejected
    )


def pareto_frontier(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """Points not dominated in (higher AUC, lower latency), sorted by
    latency."""
    frontier = [
        p for p in points
        if not any(
            q.auc > p.auc and q.latency_overhead < p.latency_overhead
            for q in points
        )
    ]
    return sorted(frontier, key=lambda p: p.latency_overhead)
