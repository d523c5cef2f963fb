"""The versioned ``ScenarioReport`` JSON schema.

Every scenario the suite runs — any {attack x defense x corruption x
workload} cell — is normalized into one report shape so CI
can diff, gate, and aggregate them uniformly (the HYMET bench-harness
pattern: many runners, one profile format).  The schema is deliberately
plain JSON with stdlib-only validation, because the same checks run in
three places: the suite writer (before anything touches disk), the
``scripts/check_report_schema.py`` CI job, and the perf gate's
``suite`` section.

Report shape (``SCHEMA_VERSION`` 1)::

    {
      "schema_version": 1,
      "scenario_id": "alexnet_imagenet/bim/ptolemy_fwab/none/numpy",
      "config": {"workload": ..., "attack": ..., "defense": ...,
                 "corruption": ..., "backend": ..., ...},
      "config_fingerprint": "<sha256 of the canonical config JSON>",
      "metrics": {"auc": ..., "tpr_at_fpr": ..., "accuracy": ...,
                  "tpr": ..., "fpr": ..., "threshold": ...,
                  "target_fpr": ...},
      "threshold_sweep": [{"threshold": ..., "tpr": ..., "fpr": ...,
                           "accuracy": ...}, ...],
      "timing": {"fit_seconds": ..., "score_seconds": ...,
                 "samples": ..., "samples_per_sec": ...},
      "scores_digest": "sha256:<hex of the raw float64 score bytes>",
      "environment": {"python": ..., "platform": ..., "numpy": ...,
                      "backend": ...}
    }

Extra keys are allowed everywhere (reports may carry scenario-specific
detail, e.g. corruption MSE); the required core above is what CI gates.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from typing import Dict, List

__all__ = [
    "SCHEMA_VERSION",
    "config_fingerprint",
    "environment_info",
    "scores_digest",
    "validate_report",
]

SCHEMA_VERSION = 1

#: Required keys per section: ``{section: {key: type}}``.  Floats accept
#: ints too (JSON round-trips may narrow 1.0 -> 1).
_REQUIRED_CONFIG = ("workload", "attack", "defense", "corruption", "backend")
_REQUIRED_METRICS = (
    "auc", "tpr_at_fpr", "accuracy", "tpr", "fpr", "threshold", "target_fpr",
)
_UNIT_METRICS = ("auc", "tpr_at_fpr", "accuracy", "tpr", "fpr")
_REQUIRED_SWEEP_ROW = ("threshold", "tpr", "fpr", "accuracy")
_REQUIRED_TIMING = ("fit_seconds", "score_seconds", "samples",
                    "samples_per_sec")
_REQUIRED_ENVIRONMENT = ("python", "platform", "numpy", "backend")


def config_fingerprint(config: Dict) -> str:
    """Order-independent sha256 over the canonical config JSON."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def scores_digest(raw: bytes) -> str:
    """Digest of the raw score bytes (callers pass
    ``scores.astype(float64).tobytes()`` so bit-identity is exact)."""
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def environment_info() -> Dict[str, str]:
    """The environment section: enough to explain a digest mismatch.
    ``backend`` is always ``"numpy"``, the one kernel path."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - hard dep in-repo  # noqa: BLE001
        numpy_version = "unavailable"
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy_version,
        "backend": "numpy",
    }


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_report(report) -> List[str]:
    """Validate one report dict; returns error strings (empty = valid).

    Pure stdlib so ``scripts/check_report_schema.py`` can run it on a
    bare interpreter.
    """
    errors: List[str] = []
    if not isinstance(report, dict):
        return [f"report must be an object, got {type(report).__name__}"]

    version = report.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )

    scenario_id = report.get("scenario_id")
    if not isinstance(scenario_id, str) or not scenario_id:
        errors.append("scenario_id must be a non-empty string")

    config = report.get("config")
    if not isinstance(config, dict):
        errors.append("config must be an object")
    else:
        for key in _REQUIRED_CONFIG:
            if not isinstance(config.get(key), str):
                errors.append(f"config.{key} must be a string")

    fingerprint = report.get("config_fingerprint")
    if not (isinstance(fingerprint, str) and len(fingerprint) == 64):
        errors.append("config_fingerprint must be a 64-char sha256 hex")
    elif isinstance(config, dict) and fingerprint != config_fingerprint(config):
        errors.append("config_fingerprint does not match config contents")

    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        errors.append("metrics must be an object")
    else:
        for key in _REQUIRED_METRICS:
            if not _is_number(metrics.get(key)):
                errors.append(f"metrics.{key} must be a number")
        for key in _UNIT_METRICS:
            value = metrics.get(key)
            if _is_number(value) and not 0.0 <= value <= 1.0:
                errors.append(f"metrics.{key} must be in [0, 1], got {value}")

    sweep = report.get("threshold_sweep")
    if not isinstance(sweep, list) or not sweep:
        errors.append("threshold_sweep must be a non-empty array")
    else:
        previous = None
        for i, row in enumerate(sweep):
            if not isinstance(row, dict):
                errors.append(f"threshold_sweep[{i}] must be an object")
                continue
            for key in _REQUIRED_SWEEP_ROW:
                if not _is_number(row.get(key)):
                    errors.append(
                        f"threshold_sweep[{i}].{key} must be a number"
                    )
            threshold = row.get("threshold")
            if _is_number(threshold):
                if previous is not None and threshold <= previous:
                    errors.append(
                        "threshold_sweep thresholds must be strictly "
                        f"increasing (row {i})"
                    )
                previous = threshold

    timing = report.get("timing")
    if not isinstance(timing, dict):
        errors.append("timing must be an object")
    else:
        for key in _REQUIRED_TIMING:
            if not _is_number(timing.get(key)):
                errors.append(f"timing.{key} must be a number")
        samples = timing.get("samples")
        if _is_number(samples) and (samples != int(samples) or samples <= 0):
            errors.append(f"timing.samples must be a positive integer, "
                          f"got {samples}")

    digest = report.get("scores_digest")
    if not (isinstance(digest, str) and digest.startswith("sha256:")
            and len(digest) == len("sha256:") + 64):
        errors.append("scores_digest must be 'sha256:' + 64 hex chars")

    environment = report.get("environment")
    if not isinstance(environment, dict):
        errors.append("environment must be an object")
    else:
        for key in _REQUIRED_ENVIRONMENT:
            if not isinstance(environment.get(key), str):
                errors.append(f"environment.{key} must be a string")

    return errors


def example_report() -> Dict:
    """A minimal valid report — the self-test fixture for the CI
    validator (and a living spec for humans)."""
    config = {
        "workload": "alexnet_imagenet",
        "attack": "bim",
        "defense": "ptolemy_fwab",
        "corruption": "none",
        "backend": "numpy",
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario_id": "alexnet_imagenet/bim/ptolemy_fwab/none/numpy",
        "config": config,
        "config_fingerprint": config_fingerprint(config),
        "metrics": {
            "auc": 0.97, "tpr_at_fpr": 0.9, "accuracy": 0.92,
            "tpr": 0.9, "fpr": 0.08, "threshold": 0.55, "target_fpr": 0.1,
        },
        "threshold_sweep": [
            {"threshold": 0.2, "tpr": 1.0, "fpr": 0.6, "accuracy": 0.7},
            {"threshold": 0.5, "tpr": 0.95, "fpr": 0.1, "accuracy": 0.92},
            {"threshold": 0.8, "tpr": 0.4, "fpr": 0.0, "accuracy": 0.7},
        ],
        "timing": {
            "fit_seconds": 1.0, "score_seconds": 0.5,
            "samples": 48, "samples_per_sec": 96.0,
        },
        "scores_digest": "sha256:" + "0" * 64,
        "environment": {
            "python": sys.version.split()[0],
            "platform": "example",
            "numpy": "2.0",
            "backend": "numpy",
        },
    }
