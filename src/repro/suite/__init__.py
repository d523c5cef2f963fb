"""repro.suite — the unified scenario suite.

One driver (``repro suite``) runs any {attack x defense x corruption x
workload} grid through the same engine-backed scoring path
and normalizes every result into one versioned ScenarioReport schema
that CI can validate, diff, and gate.
"""

from repro.suite.adapters import (
    ATTACKS,
    DEFENSES,
    AttackAdapter,
    DefenseAdapter,
    FittedDefense,
)
from repro.suite.grid import (
    AXES,
    DEFAULT_AXES,
    SMOKE_AXES,
    ScenarioSpec,
    SkippedScenario,
    expand_grid,
    parse_grid,
)
from repro.suite.runner import SuiteConfig, SuiteRunner
from repro.suite.schema import (
    SCHEMA_VERSION,
    config_fingerprint,
    environment_info,
    example_report,
    scores_digest,
    validate_report,
)
from repro.suite.sweep import sweep_thresholds, threshold_at_fpr
from repro.suite.writer import render_summary, report_filename, write_reports

__all__ = [
    "ATTACKS",
    "AXES",
    "DEFAULT_AXES",
    "DEFENSES",
    "AttackAdapter",
    "DefenseAdapter",
    "FittedDefense",
    "SCHEMA_VERSION",
    "SMOKE_AXES",
    "ScenarioSpec",
    "SkippedScenario",
    "SuiteConfig",
    "SuiteRunner",
    "config_fingerprint",
    "environment_info",
    "example_report",
    "expand_grid",
    "parse_grid",
    "render_summary",
    "report_filename",
    "scores_digest",
    "sweep_thresholds",
    "threshold_at_fpr",
    "validate_report",
    "write_reports",
]
