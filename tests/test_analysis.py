"""Static-analyzer tests: rule fixtures, suppressions, baseline
round-trip, JSON schema, and the runtime fixes the rules drove.

The analyzer is a gate (CI `analyze` job + the lint fallback), so its
own contract needs pinning: every rule must accept its clean fixture
and reject its seeded violation, ``# repro: noqa[RPRnnn]`` must
suppress exactly the named rule, the committed baseline must
round-trip, and the tree itself must stay analyzer-clean.  The last
classes pin the behaviour-preserving runtime fixes the first analyzer
run surfaced (transport probe unlink, narrowed release except).
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import all_checkers, analyze_source
from repro.analysis.base import PARSE_ERROR_CODE, Finding
from repro.analysis.engine import (
    BASELINE_VERSION,
    DEFAULT_TARGETS,
    analyze_paths,
    apply_baseline,
    load_baseline,
    render_json,
    run_self_test,
    write_baseline,
)
from repro.analysis.fixtures import clean_fixtures, seeded_violations

REPO = Path(__file__).resolve().parent.parent


# -- rule fixtures ------------------------------------------------------

class TestRuleFixtures:
    @pytest.mark.parametrize(
        "fixture",
        seeded_violations(),
        ids=lambda f: f"{f.rule}-violation",
    )
    def test_seeded_violation_rejected(self, fixture):
        codes = {f.rule for f in analyze_source(fixture.path, fixture.source)}
        assert fixture.rule in codes

    @pytest.mark.parametrize(
        "fixture",
        clean_fixtures(),
        ids=lambda f: f"{f.rule}-clean",
    )
    def test_clean_fixture_accepted(self, fixture):
        findings = analyze_source(fixture.path, fixture.source)
        assert findings == []

    def test_every_rule_has_clean_and_violating_fixture(self):
        codes = {c.code for c in all_checkers()} | {PARSE_ERROR_CODE}
        assert {f.rule for f in seeded_violations()} == codes
        assert {f.rule for f in clean_fixtures()} == codes

    def test_self_test_passes(self):
        assert run_self_test(verbose=False) == 0

    def test_path_scoped_rules_skip_out_of_scope_files(self):
        # The same violating source outside the rule's scope is silent:
        # hot-path and runtime rules must not fire on e.g. core/.
        for fixture in seeded_violations():
            if fixture.rule in ("RPR101", "RPR102", "RPR103", "RPR104",
                                PARSE_ERROR_CODE):
                continue  # unscoped (or needs no scope) rules
            moved = analyze_source(
                "src/repro/core/_fx_moved.py", fixture.source
            )
            assert fixture.rule not in {f.rule for f in moved}, fixture.rule


# -- suppressions -------------------------------------------------------

class TestSuppression:
    SOURCE = (
        "def reap(worker):\n"
        "    try:\n"
        "        worker.join()\n"
        "    except:{comment}\n"
        "        worker.kill()\n"
    )
    PATH = "src/repro/runtime/_sx.py"

    def _codes(self, comment: str) -> set:
        source = self.SOURCE.format(comment=comment)
        return {f.rule for f in analyze_source(self.PATH, source)}

    def test_unsuppressed_fires(self):
        assert "RPR401" in self._codes("")

    def test_named_code_suppresses(self):
        assert "RPR401" not in self._codes("  # repro: noqa[RPR401]")

    def test_bare_noqa_suppresses_all(self):
        assert self._codes("  # repro: noqa") == set()

    def test_other_code_does_not_suppress(self):
        assert "RPR401" in self._codes("  # repro: noqa[RPR999]")

    def test_multiple_codes(self):
        assert "RPR401" not in self._codes(
            "  # repro: noqa[RPR101, RPR401]"
        )


# -- baseline -----------------------------------------------------------

class TestBaseline:
    def _findings(self):
        return [
            Finding("RPR401", "src/repro/runtime/x.py", 10, 4,
                    "bare except", "except:"),
            Finding("RPR401", "src/repro/runtime/x.py", 20, 4,
                    "bare except", "except:"),
            Finding("RPR403", "src/repro/runtime/y.py", 5, 8,
                    "silent except", "except Exception:"),
        ]

    def test_round_trip_masks_everything(self, tmp_path):
        findings = self._findings()
        path = tmp_path / "baseline.json"
        write_baseline(path, findings)
        fresh, matched, stale = apply_baseline(
            findings, load_baseline(path)
        )
        assert fresh == []
        assert matched == 3
        assert stale == 0

    def test_line_drift_still_matches(self, tmp_path):
        findings = self._findings()
        path = tmp_path / "baseline.json"
        write_baseline(path, findings)
        drifted = [
            Finding(f.rule, f.path, f.line + 7, f.col, f.message, f.snippet)
            for f in findings
        ]
        fresh, matched, _ = apply_baseline(drifted, load_baseline(path))
        assert fresh == []
        assert matched == 3

    def test_multiset_semantics_and_stale_entries(self, tmp_path):
        findings = self._findings()
        path = tmp_path / "baseline.json"
        write_baseline(path, findings)
        # One duplicate fixed, one new duplicate appears elsewhere: the
        # budget covers exactly as many identical lines as were
        # grandfathered, and the fixed one surfaces as stale.
        remaining = findings[:1] + findings[2:]
        fresh, matched, stale = apply_baseline(
            remaining, load_baseline(path)
        )
        assert fresh == []
        assert matched == 2
        assert stale == 1

    def test_new_finding_not_masked(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, self._findings())
        new = Finding("RPR102", "src/repro/runtime/z.py", 3, 0,
                      "unpaired acquire", "slot = ring.acquire()")
        fresh, _, _ = apply_baseline([new], load_baseline(path))
        assert fresh == [new]

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError):
            load_baseline(path)
        path.write_text(json.dumps(
            {"version": BASELINE_VERSION, "findings": [{"rule": "X"}]}
        ))
        with pytest.raises(ValueError):
            load_baseline(path)

    def test_committed_baseline_is_empty(self):
        entries = load_baseline(REPO / "ANALYSIS_baseline.json")
        assert entries == []


# -- JSON output --------------------------------------------------------

class TestJsonOutput:
    def test_schema(self):
        findings = [
            Finding("RPR401", "a.py", 3, 0, "bare except", "except:"),
        ]
        payload = json.loads(render_json(findings, matched=2, stale=1))
        assert payload["version"] == BASELINE_VERSION
        assert payload["count"] == 1
        assert payload["baselined"] == 2
        assert payload["stale_baseline_entries"] == 1
        (entry,) = payload["findings"]
        assert set(entry) == {
            "rule", "path", "line", "col", "message", "snippet"
        }
        assert entry["rule"] == "RPR401"
        assert entry["line"] == 3

    def test_parse_error_finding(self):
        findings = analyze_source("src/x.py", "def broken(:\n    pass\n")
        assert [f.rule for f in findings] == [PARSE_ERROR_CODE]


# -- the tree itself ----------------------------------------------------

class TestTreeClean:
    def test_repo_is_analyzer_clean(self):
        # The shipped gate exactly: default targets, no baseline
        # escape hatch.  New findings fail here before they fail CI.
        findings = analyze_paths(list(DEFAULT_TARGETS), root=REPO)
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}" for f in findings
        )


# -- pins for the analyzer-driven runtime fixes -------------------------

class TestRuntimeFixes:
    def test_shm_probe_unlinks_in_finally(self):
        # RPR101 fix: the probe source itself must carry the
        # finally-unlink shape, not just dodge the rule.
        source = (REPO / "src/repro/runtime/transport.py").read_text()
        findings = analyze_source("src/repro/runtime/transport.py", source)
        assert [f for f in findings if f.rule == "RPR101"] == []

    def test_release_slot_swallows_only_transport_errors(self):
        from repro.runtime.service import ShardedDetectionService
        from repro.runtime.transport import TransportError

        svc = ShardedDetectionService.__new__(ShardedDetectionService)

        calls = []

        def torn_down(slot):
            calls.append(slot)
            raise TransportError("ring destroyed")

        shard = SimpleNamespace(slabs=SimpleNamespace(release=torn_down))
        # RPR403 fix: the teardown race stays silent...
        svc._release_slot(shard, 3)
        svc._release_slot(shard, (1, 2))
        assert calls == [3, 1, 2]

        def broken(slot):
            raise RuntimeError("real bug")

        shard = SimpleNamespace(slabs=SimpleNamespace(release=broken))
        # ...but a genuine programming error now propagates.
        with pytest.raises(RuntimeError):
            svc._release_slot(shard, 0)
