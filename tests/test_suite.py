"""Tests for the unified scenario suite (repro.suite)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.suite import (
    SMOKE_AXES,
    ScenarioSpec,
    SuiteConfig,
    SuiteRunner,
    config_fingerprint,
    example_report,
    expand_grid,
    parse_grid,
    render_summary,
    scores_digest,
    sweep_thresholds,
    threshold_at_fpr,
    validate_report,
    write_reports,
)
from repro.suite.grid import SkippedScenario


# -- grid expansion ----------------------------------------------------
class TestGrid:
    def test_parse_overrides_defaults(self):
        axes = parse_grid(["attack=bim", "defense=ep,cdrp"])
        assert axes["attack"] == ("bim",)
        assert axes["defense"] == ("ep", "cdrp")
        assert axes["workload"] == ("alexnet_imagenet",)

    def test_parse_space_separated_token(self):
        axes = parse_grid(["attack=bim defense=ep"])
        assert axes["attack"] == ("bim",)
        assert axes["defense"] == ("ep",)

    def test_parse_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown grid axis"):
            parse_grid(["attacks=bim"])

    def test_cli_rejects_backend_axis(self, tmp_path):
        # one numpy kernel path is left, so backend= selects nothing
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown grid axis 'backend'"):
            main(["suite", "--grid", "backend=numpy",
                  "--output", str(tmp_path)])

    def test_parse_rejects_malformed_token(self):
        with pytest.raises(ValueError, match="axis=v1,v2"):
            parse_grid(["bim,fgsm"])

    def test_expansion_is_cartesian(self):
        specs, skipped = expand_grid({
            "workload": ("alexnet_imagenet",),
            "attack": ("bim", "fgsm"),
            "defense": ("ptolemy_fwab", "ep"),
            "corruption": ("none",),
        })
        assert len(specs) == 4
        assert not skipped
        ids = {s.scenario_id for s in specs}
        assert "alexnet_imagenet/bim/ep/none/numpy" in ids

    def test_include_exclude_globs(self):
        axes = dict(SMOKE_AXES)
        specs, skipped = expand_grid(axes, include=["*/bim/*"])
        assert all(s.attack == "bim" for s in specs)
        assert all("include" in s.reason for s in skipped)

        specs, skipped = expand_grid(axes, exclude=["*/ep/*"])
        assert all(s.defense != "ep" for s in specs)

    def test_fault_attack_skipped_for_non_path_defense(self):
        specs, skipped = expand_grid({
            "workload": ("alexnet_imagenet",),
            "attack": ("fault_bitflip",),
            "defense": ("cdrp", "ptolemy_fwab"),
            "corruption": ("none",),
        })
        assert [s.defense for s in specs] == ["ptolemy_fwab"]
        assert len(skipped) == 1 and "path-based" in skipped[0].reason

    def test_bad_corruption_severity_skipped(self):
        specs, skipped = expand_grid({
            "workload": ("alexnet_imagenet",),
            "attack": ("bim",),
            "defense": ("ptolemy_fwab",),
            "corruption": ("gaussian_noise@9", "nonsense@2"),
        })
        assert not specs
        reasons = " | ".join(s.reason for s in skipped)
        assert "out of range" in reasons and "unknown corruption" in reasons

    def test_corruption_severity_parsing(self):
        spec = ScenarioSpec("w", "bim", "ep", corruption="gaussian_noise@3")
        assert spec.corruption_name == "gaussian_noise"
        assert spec.corruption_severity == 3
        assert ScenarioSpec("w", "bim", "ep").corruption_name is None


# -- schema ------------------------------------------------------------
class TestSchema:
    def test_example_round_trips_through_json(self):
        report = example_report()
        assert validate_report(report) == []
        round_tripped = json.loads(json.dumps(report))
        assert validate_report(round_tripped) == []

    def test_fingerprint_is_order_independent(self):
        a = {"workload": "w", "attack": "bim", "x": 1}
        b = {"x": 1, "attack": "bim", "workload": "w"}
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_stale_fingerprint_rejected(self):
        report = example_report()
        report["config"]["attack"] = "fgsm"
        assert any("fingerprint" in e for e in validate_report(report))

    def test_missing_sections_rejected(self):
        for section in ("metrics", "threshold_sweep", "timing",
                        "scores_digest", "environment"):
            report = example_report()
            del report[section]
            assert validate_report(report), f"{section} absence accepted"

    def test_unit_metrics_range_checked(self):
        report = example_report()
        report["metrics"]["auc"] = 1.7
        assert any("auc" in e for e in validate_report(report))

    def test_non_increasing_sweep_rejected(self):
        report = example_report()
        report["threshold_sweep"] = report["threshold_sweep"][::-1]
        assert any("increasing" in e for e in validate_report(report))

    def test_extra_keys_allowed(self):
        report = example_report()
        report["metrics"]["corruption_mse_benign"] = 0.01
        report["notes"] = "anything"
        report["config_fingerprint"] = config_fingerprint(report["config"])
        assert validate_report(report) == []


# -- threshold sweep ---------------------------------------------------
class TestSweep:
    def test_sweep_monotonic_thresholds_and_rates(self, rng):
        scores = rng.random(200)
        labels = (scores + rng.normal(0, 0.2, 200) > 0.5).astype(float)
        rows = sweep_thresholds(labels, scores, points=15)
        thresholds = [r["threshold"] for r in rows]
        assert thresholds == sorted(thresholds)
        assert all(t1 < t2 for t1, t2 in zip(thresholds, thresholds[1:]))
        # raising the threshold can only flag fewer samples
        for rate in ("tpr", "fpr"):
            values = [r[rate] for r in rows]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_sweep_collapses_on_constant_scores(self):
        rows = sweep_thresholds(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert len(rows) == 1

    def test_threshold_at_fpr_respects_budget(self, rng):
        scores = rng.random(300)
        labels = (scores + rng.normal(0, 0.3, 300) > 0.6).astype(float)
        threshold, tpr = threshold_at_fpr(labels, scores, target_fpr=0.1)
        negatives = scores[labels == 0]
        fpr = float((negatives >= threshold).mean())
        assert fpr <= 0.1
        assert 0.0 <= tpr <= 1.0
        assert np.isfinite(threshold)

    def test_threshold_finite_even_when_nothing_feasible(self):
        # every threshold flags the lone negative: only roc's
        # flag-nothing endpoint satisfies fpr=0
        labels = np.array([0.0, 1.0])
        scores = np.array([0.9, 0.1])
        threshold, tpr = threshold_at_fpr(labels, scores, target_fpr=0.0)
        assert np.isfinite(threshold)
        assert threshold > 0.9
        assert tpr == 0.0


# -- the runner against a real (tiny) workload -------------------------
@pytest.fixture(scope="module")
def tiny_workload():
    """A dedicated tiny scenario registered under a private name, so
    these tests never mutate the shared full-size SCENARIOS entries
    (shrink_for_smoke would leak into other test modules)."""
    import dataclasses

    from repro.eval import SCENARIOS
    from repro.eval.harness import _WORKBENCH_CACHE

    name = "_suite_test_tiny"
    SCENARIOS[name] = dataclasses.replace(
        SCENARIOS["alexnet_imagenet"], name=name,
        train_per_class=10, test_per_class=8, epochs=2,
    )
    yield name
    SCENARIOS.pop(name, None)
    _WORKBENCH_CACHE.pop(name, None)


@pytest.fixture(scope="module")
def tiny_report(tiny_workload):
    """One engine-scored scenario run end-to-end (shared: building the
    workbench trains a model)."""
    spec = ScenarioSpec(tiny_workload, "bim", "ptolemy_fwab")
    runner = SuiteRunner(SuiteConfig())
    return spec, runner, runner.run_scenario(spec)


class TestRunner:
    def test_report_is_schema_valid_after_json_round_trip(self, tiny_report):
        _, _, report = tiny_report
        assert validate_report(json.loads(json.dumps(report))) == []

    def test_digest_bit_identical_to_direct_engine_run(self, tiny_report):
        """The acceptance criterion: a suite scenario's scores digest
        equals a direct DetectionEngine.run over the same workload."""
        from repro.runtime import DetectionEngine

        spec, runner, report = tiny_report
        suite_digest, direct_digest = runner.verify_bit_identity(
            spec, report
        )
        assert suite_digest == direct_digest == report["scores_digest"]

        # belt and braces: recompute without the runner's helper
        inputs, _, _ = runner.eval_arrays(spec)
        detector = runner.fitted_defense(spec).detector
        scores = DetectionEngine(
            detector, batch_size=runner.config.batch_size
        ).run(inputs).scores
        assert scores_digest(
            np.ascontiguousarray(scores, np.float64).tobytes()
        ) == report["scores_digest"]

    def test_metrics_consistent_with_sweep(self, tiny_report):
        _, _, report = tiny_report
        metrics = report["metrics"]
        assert metrics["fpr"] <= metrics["target_fpr"] + 1e-9
        assert report["timing"]["samples"] == (
            report["config"]["n_negative"] + report["config"]["n_positive"]
        )

    def test_identity_check_refuses_non_engine_defense(self, tiny_workload):
        runner = SuiteRunner()
        spec = ScenarioSpec(tiny_workload, "bim", "sap")
        with pytest.raises(RuntimeError, match="not engine-scored"):
            runner.verify_bit_identity(spec, {})


# -- writer ------------------------------------------------------------
class TestWriter:
    def test_write_reports_tree_and_manifest(self, tmp_path):
        report = example_report()
        skipped = [SkippedScenario("w/x/y/none/numpy", "because")]
        manifest_path = write_reports(
            tmp_path, [report], skipped, {"attack": ["bim"]}
        )
        manifest = json.loads(manifest_path.read_text())
        assert manifest["scenarios"] == [report["scenario_id"]]
        relative = manifest["reports"][report["scenario_id"]]
        stored = json.loads((tmp_path / relative).read_text())
        assert validate_report(stored) == []
        assert manifest["skipped"][0]["reason"] == "because"
        summary = (tmp_path / "results_summary.md").read_text()
        assert "| attack |" in summary
        assert "Skipped scenarios" in summary

    def test_writer_refuses_invalid_report(self, tmp_path):
        report = example_report()
        report["metrics"]["auc"] = 2.0
        with pytest.raises(RuntimeError, match="schema-invalid"):
            write_reports(tmp_path, [report])

    def test_summary_renders_empty_run(self):
        assert "No scenarios ran" in render_summary([])
