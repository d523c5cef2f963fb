"""Adapters wrapping every scenario module behind one protocol.

The repo's scenario surface — input-space attacks (:mod:`repro.attacks`),
the Ptolemy variants (:mod:`repro.core`), the comparison baselines
(:mod:`repro.baselines`), the redundancy defenses
(:mod:`repro.defenses`), natural corruptions (:mod:`repro.data`), and
transient-fault injection (:mod:`repro.eval.faults`) — grew up with
bespoke call conventions.  These adapters normalize all of them to two
small protocols the suite runner drives:

* an **attack adapter** produces the positive (should-be-flagged) side
  of an evaluation set: adversarial inputs for input-space attacks, or
  faulty forward passes for activation faults;
* a **defense adapter** builds a fitted scorer exposing
  ``scores_for_set(xs) -> np.ndarray`` (higher = more anomalous), the
  surface every detector family in the repo already speaks or can be
  wrapped into in a few lines.

Engine-scored defenses (the Ptolemy variants and EP, whose detectors
ride :class:`repro.runtime.DetectionEngine`) are flagged so the runner
can verify bit-identity between a suite run and a direct engine run —
the suite must be a *view* over the serving path, never a fork of it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "ATTACKS",
    "DEFENSES",
    "AttackAdapter",
    "DefenseAdapter",
    "FittedDefense",
    "fault_scores",
]

#: Engine micro-batch size for suite scoring — small enough that smoke
#: eval sets still span several batches.
SUITE_BATCH = 32


# -- attacks -----------------------------------------------------------
@dataclass(frozen=True)
class AttackAdapter:
    """One value of the ``attack`` grid axis."""

    name: str
    kind: str = "input"          # "input" or "fault"
    #: fault-kind parameters (ignored for input attacks)
    fraction: float = 0.02
    magnitude: float = 4.0

    def adversarial(self, workbench) -> np.ndarray:
        """Adversarial inputs over the workbench's evaluation split
        (input attacks only; cached inside the workbench)."""
        if self.kind != "input":
            raise RuntimeError(
                f"{self.name} perturbs activations, not inputs; score it "
                f"via fault_scores()"
            )
        return workbench.attack_eval(self.name).x_adv

    def corruptor_factory(self):
        """The fault corruption factory (fault attacks only)."""
        from repro.eval.faults import bitflip_fault, stuck_fault

        if self.name == "fault_bitflip":
            return bitflip_fault
        if self.name == "fault_stuck":
            return stuck_fault
        raise RuntimeError(f"{self.name} is not a fault attack")


#: Every value the ``attack`` axis accepts: the paper's five standard
#: attacks plus PGD, and the two Sec. VIII transient-fault models.
ATTACKS: Dict[str, AttackAdapter] = {
    name: AttackAdapter(name)
    for name in ("bim", "cwl2", "deepfool", "fgsm", "jsma", "pgd")
}
ATTACKS["fault_bitflip"] = AttackAdapter("fault_bitflip", kind="fault")
ATTACKS["fault_stuck"] = AttackAdapter(
    "fault_stuck", kind="fault", magnitude=0.0
)


# -- defenses ----------------------------------------------------------
class FittedDefense:
    """A built+fitted scorer: ``scores_for_set`` plus fit accounting."""

    def __init__(self, scorer, fit_seconds: float, detector=None):
        self._scorer = scorer
        self.fit_seconds = fit_seconds
        #: the underlying PtolemyDetector for path-based defenses (what
        #: fault scoring and bit-identity verification need); None for
        #: the non-path families.
        self.detector = detector

    def scores_for_set(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(self._scorer(xs), dtype=np.float64)


class _PerSampleScorer:
    """Adapt a per-sample ``score(x[None])`` detector to the batch
    surface (CDRP and DeepFense score one input at a time)."""

    def __init__(self, score: Callable[[np.ndarray], float]):
        self._score = score

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self._score(x[None]) for x in xs])


@dataclass(frozen=True)
class DefenseAdapter:
    """One value of the ``defense`` grid axis."""

    name: str
    family: str
    builder: Callable  # (workbench, fit_attack) -> FittedDefense
    #: path-based defenses observe activation paths, so they are the
    #: only ones a fault attack can meaningfully target.
    path_based: bool = False
    #: engine-scored defenses run through DetectionEngine, so their
    #: suite scores must be bit-identical to a direct engine run.
    engine_scored: bool = False
    #: stateful scorers (SAP's RNG advances per call) must be rebuilt
    #: per scenario so every run of the same cell is deterministic.
    cacheable: bool = True

    def build(self, workbench, fit_attack: str) -> FittedDefense:
        return self.builder(workbench, fit_attack)


def _engine_scorer(detector):
    """Score through the serving path itself (DetectionEngine.run)."""
    from repro.runtime import DetectionEngine

    engine = DetectionEngine(detector, batch_size=SUITE_BATCH)
    return lambda xs: engine.run(xs).scores


def _build_ptolemy(variant: str):
    def build(workbench, fit_attack: str) -> FittedDefense:
        started = time.perf_counter()
        detector = workbench.detector(variant, fit_attack=fit_attack)
        fit_seconds = time.perf_counter() - started
        return FittedDefense(
            _engine_scorer(detector), fit_seconds, detector=detector
        )

    return build


def _build_ep(workbench, fit_attack: str) -> FittedDefense:
    from repro.baselines import EPDetector

    started = time.perf_counter()
    detector = EPDetector(
        workbench.model, n_trees=40, seed=workbench.scenario.seed
    )
    detector.profile(
        workbench.dataset.x_train, workbench.dataset.y_train,
        max_per_class=30,
    )
    detector.fit_classifier(
        workbench.fit_benign, workbench.attack_fit(fit_attack).x_adv
    )
    fit_seconds = time.perf_counter() - started
    return FittedDefense(
        _engine_scorer(detector), fit_seconds, detector=detector
    )


def _build_cdrp(workbench, fit_attack: str) -> FittedDefense:
    from repro.baselines import CDRPDetector

    started = time.perf_counter()
    detector = CDRPDetector(
        workbench.model, n_trees=40, seed=workbench.scenario.seed
    )
    detector.fit(
        workbench.fit_benign, workbench.attack_fit(fit_attack).x_adv
    )
    fit_seconds = time.perf_counter() - started
    return FittedDefense(_PerSampleScorer(detector.score), fit_seconds)


def _build_deepfense(workbench, fit_attack: str) -> FittedDefense:
    from repro.baselines import DeepFenseDetector

    started = time.perf_counter()
    detector = DeepFenseDetector(
        workbench.model, num_defenders=4, seed=workbench.scenario.seed
    )
    detector.fit(workbench.fit_benign)
    fit_seconds = time.perf_counter() - started
    return FittedDefense(_PerSampleScorer(detector.score), fit_seconds)


def _build_transform(workbench, fit_attack: str) -> FittedDefense:
    from repro.defenses import TransformDefense

    started = time.perf_counter()
    defense = TransformDefense(workbench.model)
    fit_seconds = time.perf_counter() - started
    return FittedDefense(defense.scores_for_set, fit_seconds)


def _build_sap(workbench, fit_attack: str) -> FittedDefense:
    from repro.defenses import StochasticActivationPruning

    started = time.perf_counter()
    defense = StochasticActivationPruning(
        workbench.model, n_passes=4, seed=workbench.scenario.seed
    )
    fit_seconds = time.perf_counter() - started
    return FittedDefense(defense.scores_for_set, fit_seconds)


#: Every value the ``defense`` axis accepts: the Ptolemy variants, the
#: paper's comparison baselines, and the redundancy-defense families.
DEFENSES: Dict[str, DefenseAdapter] = {
    "ptolemy_fwab": DefenseAdapter(
        "ptolemy_fwab", "activation path", _build_ptolemy("FwAb"),
        path_based=True, engine_scored=True,
    ),
    "ptolemy_bwcu": DefenseAdapter(
        "ptolemy_bwcu", "activation path", _build_ptolemy("BwCu"),
        path_based=True, engine_scored=True,
    ),
    "ptolemy_hybrid": DefenseAdapter(
        "ptolemy_hybrid", "activation path", _build_ptolemy("Hybrid"),
        path_based=True, engine_scored=True,
    ),
    "ep": DefenseAdapter(
        "ep", "effective path", _build_ep,
        path_based=True, engine_scored=True,
    ),
    "cdrp": DefenseAdapter("cdrp", "routing gates", _build_cdrp),
    "deepfense": DefenseAdapter(
        "deepfense", "modular redundancy", _build_deepfense
    ),
    "transform": DefenseAdapter(
        "transform", "input transform", _build_transform, cacheable=False
    ),
    "sap": DefenseAdapter(
        "sap", "randomization", _build_sap, cacheable=False
    ),
}


# -- fault scoring -----------------------------------------------------
def fault_scores(
    workbench,
    detector,
    inputs: np.ndarray,
    attack: AttackAdapter,
    node: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(clean, faulty) anomaly scores for activation-fault scenarios.

    Each input is scored twice through the path machinery: once clean
    and once with the fault struck into a mid-network feature map
    (per-input seeds, so the sweep is deterministic).  The anomaly
    score is ``1 - path_similarity`` to the predicted class's canary —
    the same signal ``bench_ext_fault_detection`` reports.
    """
    from repro.core import path_similarity
    from repro.eval.faults import FaultSpec, forward_with_fault

    units = workbench.model.extraction_units()
    node = node or units[min(2, len(units) - 1)].name
    extractor = detector.extractor
    factory = attack.corruptor_factory()
    clean, faulty = [], []
    for i in range(len(inputs)):
        x = inputs[i : i + 1]
        result = extractor.extract(x)
        clean.append(1.0 - _canary_similarity(
            detector, result, path_similarity
        ))
        spec = FaultSpec(
            node=node, fraction=attack.fraction,
            magnitude=attack.magnitude, seed=i,
        )
        forward_with_fault(workbench.model, x, spec, corrupt=factory(spec))
        faulted = extractor.extract(x, reuse_forward=True)
        faulty.append(1.0 - _canary_similarity(
            detector, faulted, path_similarity
        ))
    return np.array(clean), np.array(faulty)


def _canary_similarity(detector, extraction, path_similarity) -> float:
    """Similarity to the predicted class's canary (0.0 when that class
    was never profiled — maximally anomalous, as the bench treats it)."""
    if extraction.predicted_class not in detector.class_paths:
        return 0.0
    canary = detector.class_paths.path_for(extraction.predicted_class)
    return float(path_similarity(extraction.path, canary))
