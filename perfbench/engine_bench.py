"""``engine_fwab`` and ``engine_bwcu``: the in-process ``DetectionEngine``.

The untraced run times ``process_batch`` at batch 64 over the seeded
stream for the whole of ``--seconds``; a few untimed batch-1 calls (the
paper's per-inference deployment) check that batch size does not change
a score.  Batch-1 times are in the traced split (``*_b1``): on a shared
2-vCPU host their run-to-run spread stays near a quarter of the median
however long the run, wider than any bound an end-to-end metric may
have.  No processes, IPC or HTTP; BLAS may use every core.
"""

from __future__ import annotations

import time
from contextlib import closing
from typing import List, Tuple

import numpy as np

from common import (
    REQUEST_SAMPLES,
    SERVING_LAYERS,
    Deployment,
    RunResult,
    build_detector,
    deployments,
    digest,
    latency_ms,
    layer_split,
    peak_rss_mb,
    put_layers,
    traffic,
    transport_probe,
)
from repro.runtime import DetectionEngine

HEAVY_BATCH = 64
#: Batch-64 batches every run makes at least, and the untimed batch-1
#: calls of the check, so the digest and the check always cover the same
#: samples.
MIN_HEAVY_OPS = 3
CHECK_B1_CALLS = 32


def start_engine(variant: str, tracer) -> Deployment:
    workbench, detector = build_detector(variant, tracer)
    with tracer.span("setup.service_start"):
        engine = DetectionEngine(detector, batch_size=HEAVY_BATCH)
        # first calls build the extractor layout and warm the caches
        warm = workbench.dataset.x_test[:HEAVY_BATCH]
        engine.process_batch(warm)
        engine.process_batch(warm[:1])
    return Deployment(workbench, detector, engine=engine)


def time_batches(
    engine: DetectionEngine,
    stream: np.ndarray,
    batch: int,
    seconds: float,
    min_ops: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``process_batch`` over consecutive slices of ``stream`` (cycling)
    for ``seconds``; returns each call's seconds and the scores of the
    first pass over the stream."""
    slices = len(stream) // batch
    durations: List[float] = []
    scores: List[np.ndarray] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        k = i % slices
        x = stream[k * batch : (k + 1) * batch]
        began = time.perf_counter()
        result = engine.process_batch(x)
        durations.append(time.perf_counter() - began)
        if i < slices:
            scores.append(result.scores)
        i += 1
    return np.asarray(durations), np.concatenate(scores)


def run_engine(
    variant: str,
    heavy_share: float,
    reps: int,
    seed: int,
    seconds: float,
    tracer,
    traced: bool,
    import_s: float,
) -> RunResult:
    result = RunResult()
    setups: List[float] = []
    heavy_s: List[np.ndarray] = []
    digests: List[str] = []
    with closing(
        deployments(lambda t: start_engine(variant, t), tracer, setups, reps)
    ) as set_ups:
        for rep, deployment in enumerate(set_ups):
            stream = traffic(deployment.workbench, seed)
            backend = deployment.detector.kernel_backend
            if traced:
                if rep == reps - 1:
                    trace_layers(
                        deployment, stream, variant, heavy_share, seconds,
                        tracer, result,
                    )
                continue
            heavy, heavy_scores = time_batches(
                deployment.engine, stream, HEAVY_BATCH, seconds / reps,
                MIN_HEAVY_OPS,
            )
            heavy_s.append(heavy)
            _, b1_scores = time_batches(
                deployment.engine, stream, 1, 0.0, CHECK_B1_CALLS
            )
            bad = int(np.sum(b1_scores != heavy_scores[:CHECK_B1_CALLS]))
            if bad:
                result.errors.append(
                    f"batch-1 scores differ from batch-64 scores on {bad} of "
                    f"{CHECK_B1_CALLS} samples"
                )
            digests.append(digest(heavy_scores[: MIN_HEAVY_OPS * HEAVY_BATCH]))
            if rep == 0:
                first_rss = peak_rss_mb()
    result.info.update(
        variant=variant,
        setup_reps=[round(s, 3) for s in setups],
        kernel_backend=backend,
        transport="none (in-process)",
    )
    if traced:
        return result

    if len(set(digests)) != 1:
        result.errors.append(f"set-ups score the stream differently: {digests}")
    result.info["scores_digest"] = digests[0]
    heavy = np.concatenate(heavy_s)
    result.count("heavy@b64", len(heavy), 0, samples=len(heavy) * HEAVY_BATCH)
    result.count("check@b1", CHECK_B1_CALLS * reps, 0)
    result.put("setup_s", import_s + float(np.median(setups)), "s")
    result.put("sps", HEAVY_BATCH * len(heavy) / heavy.sum(), "1/s")
    p50, p90 = latency_ms(heavy)
    result.put("p50_ms", p50, "ms")
    result.put("p90_ms", p90, "ms")
    result.put("peak_rss_mb", first_rss, "MiB")
    return result


def trace_layers(
    deployment: Deployment,
    stream: np.ndarray,
    variant: str,
    heavy_share: float,
    seconds: float,
    tracer,
    result: RunResult,
) -> None:
    detector, engine = deployment.detector, deployment.engine
    heavy = layer_split(
        detector, engine, stream, HEAVY_BATCH, seconds * heavy_share, tracer,
        result,
    )
    light = layer_split(
        detector, engine, stream, 1, seconds * (1 - heavy_share), tracer,
        result,
    )
    cost = deployment.workbench.variant_cost(variant)
    result.info["layer_batch"] = HEAVY_BATCH
    put_layers(result, heavy, light, cost.latency_overhead)
    transport_probe(stream[:REQUEST_SAMPLES], result)
    for name, unit in SERVING_LAYERS.items():
        result.put(name, 0.0, unit)
