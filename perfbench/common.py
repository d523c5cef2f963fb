"""Pieces every workload shares: set-up, the layer-by-layer detection
pipeline the traced runs time, and the per-run result record.

The benchmark only calls the stack's public entry points (``Workbench``,
``DetectionEngine``, ``PtolemyDetector``, ``PathExtractor``, the service,
the HTTP front end and the transport helpers) and times each layer from
outside, around the calls into it.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.path import batch_path_similarity, batch_per_tap_similarity
from repro.eval.harness import Workbench
from repro.eval.workloads import SCENARIOS
from repro.runtime import DetectionEngine
from repro.runtime.transport import checksum_array, pack_arrays

#: The scenario every workload serves: the repo's fastest to train.
SCENARIO = "alexnet_imagenet"
#: Attack used to fit the forest and to make the adversarial third of
#: the traffic.
ATTACK = "bim"
#: Samples in one seeded traffic stream; phases cycle over it.
STREAM_SAMPLES = 4096
#: Samples per HTTP request and per service batch.
REQUEST_SAMPLES = 16
#: Set-ups per run, unless a workload sets fewer; ``setup_s`` is their
#: median.
SETUP_REPS = 2


@dataclass
class Deployment:
    """One set-up's state; ``close`` stops whatever it started."""

    workbench: Workbench
    detector: object
    engine: Optional[DetectionEngine] = None
    service: object = None
    server: object = None

    def close(self) -> None:
        """Stop the server and pool, and drop the model state so the
        next set-up in the same process does not sit on top of it."""
        try:
            if self.server is not None:
                self.server.close()
        finally:
            if self.service is not None:
                self.service.stop()
            self.workbench = self.detector = self.engine = None


def build_detector(variant: str, tracer) -> Tuple[Workbench, object]:
    """Train the model, make the attacks, profile and fit one variant."""
    with tracer.span("setup.train"):
        workbench = Workbench(SCENARIOS[SCENARIO])
    with tracer.span("setup.attack"):
        workbench.attack_fit(ATTACK)
        workbench.attack_eval(ATTACK)
    with tracer.span("setup.profile_fit"):
        detector = workbench.detector(variant, fit_attack=ATTACK)
    return workbench, detector


def deployments(
    start: Callable[[object], Deployment],
    tracer,
    setups: List[float],
    reps: int = SETUP_REPS,
) -> Iterator[Deployment]:
    """Set up ``reps`` times, one deployment at a time.

    Each deployment is closed when the caller moves on to the next; the
    seconds of every set-up are appended to ``setups``.  Workloads split
    their measured phases across the set-ups, so one run samples more
    than one process and thread layout.  Use under
    ``contextlib.closing`` so an error also closes the last one."""
    for _ in range(reps):
        began = time.perf_counter()
        with tracer.span("setup"):
            deployment = start(tracer)
        setups.append(time.perf_counter() - began)
        try:
            yield deployment
        finally:
            deployment.close()
            gc.collect()


def traffic(workbench: Workbench, seed: int) -> np.ndarray:
    """The seeded mixed stream (about a third BIM-adversarial)."""
    return workbench.traffic(ATTACK, count=STREAM_SAMPLES, seed=seed)


def layered_batch(detector, canaries, x: np.ndarray, tracer, batch_id: int):
    """``DetectionEngine.process_batch``'s work, one layer per span.

    Mirrors ``PtolemyDetector.features_batch`` + ``classify_features``
    through their public parts, so the scores must equal the engine's.
    Span names carry the batch size (``nn.forward@b64``).
    """
    tag = f"@b{len(x)}"
    with tracer.span("engine.batch" + tag, batch_id):
        with tracer.span("nn.forward" + tag):
            detector.model.forward(x)
        with tracer.span("extraction.select" + tag):
            extraction = detector.extractor.extract_batch(x, reuse_forward=True)
        with tracer.span("kernels.similarity" + tag):
            rows, _known = canaries.rows_for(extraction.predicted_classes)
            sims = batch_path_similarity(
                extraction.packed, rows, kernels=detector.kernels
            )
            per_tap = batch_per_tap_similarity(
                extraction.packed, rows, kernels=detector.kernels
            )
        if detector.feature_mode == "per_layer":
            features = np.concatenate([sims[:, None], per_tap], axis=1)
        else:
            features = sims[:, None]
        with tracer.span("forest.predict" + tag):
            scores = detector.classify_features(features)
    return scores, extraction, rows


LAYERS = ("nn.forward", "extraction.select", "kernels.similarity", "forest.predict")

#: Per-layer metrics of the serving stack's own layers.  The engine
#: workloads never enter these layers and report them as 0.
SERVING_LAYERS = {
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p95_ms": "ms",
    "service.worker_batch_p50_ms": "ms",
    "service.worker_slowdown": "x",
    "service.direct_p50_ms": "ms",
    "service.requeues": "count",
    "service.worker_rss_mb": "MiB",
    "transport.fallback_ratio": "ratio",
    "server.overhead_p50_ms": "ms",
    "server.admit_ratio": "ratio",
    "openloop.p50_ms": "ms",
    "openloop.p90_ms": "ms",
    "gen.late_p95_ms": "ms",
}


def layer_split(
    detector,
    engine: DetectionEngine,
    stream: np.ndarray,
    batch: int,
    seconds: float,
    tracer,
    result: RunResult,
) -> Dict[str, float]:
    """Alternate untraced ``process_batch`` with the traced layered
    pipeline on the same batches for ``seconds``; check the scores
    agree and return per-batch medians (ms) of each layer's self time,
    the untraced batch time, the residual and the tracing overhead."""
    canaries = detector.class_paths.packed()
    slices = len(stream) // batch
    untraced: List[float] = []
    traced: List[float] = []
    neurons = 0
    samples = 0
    kernel_bytes = 0
    bits = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        x = stream[(i % slices) * batch : (i % slices + 1) * batch]
        # alternate which of the pair runs first, so drift within the
        # phase does not bias the residual or the overhead
        for traced_turn in (i % 2 == 1, i % 2 == 0):
            began = time.perf_counter()
            if traced_turn:
                scores, extraction, rows = layered_batch(
                    detector, canaries, x, tracer, i
                )
                traced.append(time.perf_counter() - began)
            else:
                expected = engine.process_batch(x).scores
                untraced.append(time.perf_counter() - began)
        if not np.array_equal(scores, expected):
            result.errors.append(
                f"layered pipeline scores differ from the engine's "
                f"(batch {batch}, slice {i % slices})"
            )
        neurons += int(extraction.packed.popcounts().sum())
        samples += len(x)
        bits = extraction.packed.layout.total_bits
        # path + gathered canary words, read once by each of the two
        # similarity kernels (computed from the packed shapes)
        kernel_bytes = 2 * (extraction.packed.words.nbytes + rows.nbytes)
        i += 1
    result.count(f"layers@b{batch}", i, 0)
    self_times = tracer.self_times()
    tag = f"@b{batch}"
    per_layer = {
        name: np.asarray(self_times[name + tag][-i:]) for name in LAYERS
    }
    layer_sum = sum(per_layer.values())
    out = {name: ms(np.median(v)) for name, v in per_layer.items()}
    out["engine.batch"] = ms(np.median(untraced))
    out["engine.residual"] = ms(np.median(np.asarray(untraced) - layer_sum))
    out["trace.overhead"] = ms(np.median(np.asarray(traced) - np.asarray(untraced)))
    out["important_neurons"] = neurons / samples
    out["path_bits"] = bits
    out["kernel_bytes"] = kernel_bytes
    return out


def put_layers(result: RunResult, batch: dict, b1: dict, hw_overhead: float) -> None:
    """Per-layer metrics shared by the engine and serving workloads
    (``batch`` is the split at the workload's batch size)."""
    result.put("nn.forward_ms", batch["nn.forward"], "ms")
    result.put("nn.forward_ms_b1", b1["nn.forward"], "ms")
    result.put("extraction.select_ms", batch["extraction.select"], "ms")
    result.put("extraction.select_ms_b1", b1["extraction.select"], "ms")
    result.put("extraction.important_neurons", batch["important_neurons"], "count")
    result.put("extraction.path_bits", batch["path_bits"], "count")
    result.put("kernels.similarity_ms", batch["kernels.similarity"], "ms")
    result.put("kernels.bytes_computed", batch["kernel_bytes"], "bytes")
    result.put("forest.predict_ms", batch["forest.predict"], "ms")
    result.put("forest.predict_ms_b1", b1["forest.predict"], "ms")
    result.put("engine.batch_ms", batch["engine.batch"], "ms")
    result.put("engine.batch_ms_b1", b1["engine.batch"], "ms")
    result.put("engine.residual_ms", batch["engine.residual"], "ms")
    result.put("engine.residual_ms_b1", b1["engine.residual"], "ms")
    result.put("trace.overhead_ms", batch["trace.overhead"], "ms")
    # paper tie-in (Fig. 11): software detect time over inference time,
    # beside the hardware model's latency overhead for the same variant
    result.put("paper.sw_overhead_x", batch["engine.batch"] / batch["nn.forward"], "x")
    result.put("paper.hw_overhead_x", hw_overhead, "x")


def transport_probe(payload: np.ndarray, result: RunResult, reps: int = 200) -> None:
    """Median microseconds of ``pack_arrays`` and ``checksum_array`` on
    one request payload, the work the shm transport adds per batch."""
    buf = memoryview(bytearray(payload.nbytes + 4096))
    pack, crc = [], []
    for _ in range(reps):
        began = time.perf_counter()
        pack_arrays(buf, {"x": payload})
        pack.append(time.perf_counter() - began)
        began = time.perf_counter()
        checksum_array(payload)
        crc.append(time.perf_counter() - began)
    result.put("transport.pack_us", np.median(pack) * 1e6, "us")
    result.put("transport.crc_us", np.median(crc) * 1e6, "us")


def ms(seconds: float) -> float:
    return float(seconds) * 1e3


def latency_ms(seconds) -> Tuple[float, float]:
    """Median and p90 of per-operation seconds, in ms.

    p90, not p95 or p99: at the default 22 s the FwAb workloads still
    have about a hundred operations beyond it, and on a shared 2-vCPU
    host the farther tail is set by stalls from other tenants (on
    batch 64, run-to-run spread 0.08 at p90, 0.10 at p95, 0.18 at p99)."""
    values = np.asarray(seconds)
    return ms(np.median(values)), ms(np.percentile(values, 90.0))


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``RUSAGE_CHILDREN`` gives the
    largest reaped child).  Workloads read their own peak at the end of
    the first set-up's phases: how much of a later set-up lands on top
    of the freed first one depends on the allocator, not the program."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def digest(scores: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(scores, dtype=np.float64).tobytes()
    ).hexdigest()[:16]


@dataclass
class RunResult:
    """Everything one workload run reports."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    phases: List[dict] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def count(self, phase: str, attempted: int, failed: int, **extra) -> None:
        self.phases.append(
            {
                "phase": phase,
                "attempted": int(attempted),
                "succeeded": int(attempted - failed),
                "failed": int(failed),
                **extra,
            }
        )

    @property
    def attempted(self) -> int:
        return sum(p["attempted"] for p in self.phases)

    @property
    def failed(self) -> int:
        return sum(p["failed"] for p in self.phases)
