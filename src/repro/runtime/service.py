"""Sharded multi-worker detection service.

:class:`ShardedDetectionService` scales :class:`DetectionEngine`
beyond one process: a pool of worker processes each holds its own
engine (with a pre-warmed packed-canary cache), fed by an async
submission queue through a pluggable :mod:`~repro.runtime.sharding`
scheduler.  The fitted detector is flattened once with
:func:`repro.core.detector_to_state` and broadcast to every worker at
startup — per-request traffic is only raw sample arrays and decision
arrays, never model state.

Guarantees:

* **Ordering** — every request's decisions come back in submission
  order regardless of which shards processed which micro-batches, so
  results are bit-identical to a single-process
  :meth:`DetectionEngine.run` over the same array.
* **Fault tolerance** — a dead worker is detected, its in-flight
  batches are requeued to the surviving shards, and a replacement is
  spawned (up to ``max_restarts``); requests complete as long as one
  shard survives.  Every shard owns private task/result queues, so a
  worker dying mid-write can never wedge the survivors' plumbing.
* **Accounting** — per-shard :class:`ThroughputStats` are merged for
  the aggregate engine-time view, while request/service throughput is
  reported from wall clock (shards overlap in time, so summed engine
  seconds deliberately over-count).
* **Transport** — batch payloads travel through per-shard
  shared-memory slab rings (:mod:`repro.runtime.transport`) by
  default: the queues carry only ``(seq, slot, shape, dtype)``
  descriptors, so no batch or result is ever pickled on the hot path.
  Anything the slabs cannot carry — shared memory unavailable, ring
  exhausted, oversized batch — falls back per-batch to the original
  pickle queue with bit-identical results (``transport="queue"``
  forces that path everywhere).
* **Multi-model** — one pool serves N named, versioned detectors out
  of a :class:`~repro.runtime.registry.ModelRegistry`: every worker
  holds one engine per registered model, each batch descriptor carries
  its ``(name, version)`` key through the transport, and
  :meth:`ShardedDetectionService.load_model` hot-swaps a new version
  with drain-and-replace (routing flips only after every worker holds
  the new state; the old version unloads once its in-flight requests
  finish).  The single-detector constructor path registers under
  ``"default"`` and is bit-identical to the pre-registry service.
  Requests also carry a :class:`~repro.runtime.registry.RequestClass`
  (``interactive``/``standard``/``batch``): higher classes jump the
  dispatch queue and batches form per (model, class) with
  class-scaled SLOs.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import pickle
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.serialization import detector_from_state, detector_to_state
from repro.runtime.adaptive import AdaptiveBatcher
from repro.runtime.batching import iter_microbatches
from repro.runtime.registry import (
    DEFAULT_CLASS,
    DEFAULT_MODEL,
    REQUEST_CLASSES,
    ModelEntry,
    ModelRegistry,
    RequestClass,
    UnknownModelError,
    parse_model_spec,
    resolve_request_class,
)
from repro.runtime.sharding import (
    ShardLoad,
    ShardScheduler,
    make_scheduler,
    merge_shard_stats,
    plan_worker_affinity,
)
from repro.runtime.stats import ThroughputStats
from repro.runtime.transport import (
    DEFAULT_SLAB_SLOTS,
    OUT_BYTES_PER_SAMPLE,
    SlabRing,
    TransportError,
    WorkerSlabs,
    shm_available,
)

__all__ = [
    "ServiceError",
    "ServiceFuture",
    "ServiceResult",
    "ShardedDetectionService",
    "measure_worker_scaling",
]

#: How often an idle worker bumps its heartbeat counter (it also bumps
#: between chunks of a batch); the parent's watchdog declares a shard
#: hung only after ``hang_timeout`` seconds without a bump, so keep
#: ``hang_timeout`` several multiples of this.
HEARTBEAT_INTERVAL = 0.25

#: Window of per-class enqueue→dispatch waits kept for percentiles.
WAIT_WINDOW = 4096


class ServiceError(RuntimeError):
    """The service cannot complete a request (worker pool failure)."""


# -- worker side -----------------------------------------------------------

def _build_worker_engine(
    model_factory: Callable,
    state_payload,
    threshold: float,
    batch_size: int,
):
    """Rebuild one engine from a broadcast model payload (worker side)."""
    from repro.runtime.engine import DetectionEngine

    state = (
        pickle.loads(state_payload)
        if isinstance(state_payload, (bytes, bytearray))
        else state_payload
    )
    detector = detector_from_state(model_factory(), state)
    return DetectionEngine(detector, threshold=threshold, batch_size=batch_size)


def _beat(heartbeat) -> None:
    """Bump the shard's liveness counter (monotonic, parent-visible).

    Lock-free single-writer: only this worker increments, the parent
    only reads, so a plain ``Value`` without a lock is race-free."""
    if heartbeat is not None:
        heartbeat.value += 1


def _quiet_inherited_slab_teardown() -> None:
    """Silence the one unfixable teardown wart of fork-mode respawns.

    A replacement worker forked while the dispatcher was mid-write
    inherits that thread's numpy view into a slab segment.  The view
    can never be released here (its owning thread does not exist in the
    child), so the interpreter-exit ``SharedMemory.__del__`` raises a
    harmless ``BufferError: cannot close exported pointers exist``.
    Filter exactly that unraisable; everything else still reports."""
    import sys

    default_hook = sys.unraisablehook

    def hook(unraisable):
        if isinstance(unraisable.exc_value, BufferError) and (
            getattr(unraisable.object, "__qualname__", "").startswith(
                "SharedMemory."
            )
        ):
            return
        default_hook(unraisable)

    sys.unraisablehook = hook


def _worker_main(
    worker_id: int,
    # (name, version) -> (payload, model_factory, threshold); payloads
    # are dicts under fork (COW pages), pickled bytes under spawn
    models_payload: dict,
    batch_size: int,
    task_queue,
    result_queue,
    heartbeat=None,
    pin_cpus: Optional[Tuple[int, ...]] = None,
) -> None:
    """Shard process entry point: rebuild one engine per broadcast
    model, then serve model-keyed micro-batches until told to stop."""
    _quiet_inherited_slab_teardown()
    if pin_cpus:
        # Pin before warming caches so they live on the pinned core;
        # best-effort — a shrunken cgroup mask must not kill the shard.
        try:
            os.sched_setaffinity(0, set(pin_cpus))
        except (AttributeError, OSError):
            pass
    slabs: Optional[WorkerSlabs] = None
    engines: Dict[Tuple[str, int], object] = {}
    try:
        for key, (payload, factory, threshold) in models_payload.items():
            engines[key] = _build_worker_engine(
                factory, payload, threshold, batch_size
            )
        if not engines:
            raise RuntimeError("worker started with no models to serve")
    except Exception as exc:  # startup failure is fatal for this shard
        result_queue.put(("fatal", worker_id, repr(exc)))
        return
    result_queue.put(("ready", worker_id, None))
    slow_delay = 0.0
    while True:
        # Heartbeat-bounded get: an idle worker still proves liveness
        # every interval, so the parent watchdog can tell "no traffic"
        # from "alive but wedged".
        _beat(heartbeat)
        try:
            message = task_queue.get(timeout=HEARTBEAT_INTERVAL)
        except queue.Empty:
            continue
        kind = message[0]
        if kind == "stop":
            if slabs is not None:
                # the models' layer caches — and this loop's own locals
                # from the last batch — still reference slot views; drop
                # them so the mmap can close without "exported pointers
                # exist" noise
                engines.clear()
                engine = None  # noqa: F841 — releases the last engine
                chunks = parts = None  # noqa: F841 — drops slot views
                import gc

                gc.collect()
                slabs.close()
            return
        if kind == "crash":
            # Fault-injection hook (tests / chaos drills): die the way a
            # segfaulted or OOM-killed worker would — no cleanup, no
            # farewell message.
            os._exit(17)
        if kind == "hang":
            # Fault-injection hook: stay alive but go completely silent
            # — no queue reads, no heartbeats — the exact failure shape
            # the watchdog exists to reap (terminate + requeue).
            while True:
                time.sleep(3600.0)
        if kind == "slow":
            # Fault-injection hook: delay every subsequent batch by
            # message[1] seconds while still heartbeating, so the
            # watchdog must classify this shard as slow, never hung.
            slow_delay = float(message[1])
            continue
        if kind == "attach":
            try:
                slabs = WorkerSlabs(*message[1])
            except Exception:
                # Attach failures surface per-batch as "reject" below,
                # which flips the parent back to the queue transport.
                slabs = None
            continue
        if kind == "load":
            # hot-swap: build the new version's engine and ack, so the
            # parent flips routing only once every worker holds it
            key, payload, factory, threshold = message[1:]
            try:
                engines[key] = _build_worker_engine(
                    factory, payload, threshold, batch_size
                )
            except Exception as exc:
                result_queue.put(("loaded", worker_id, (key, repr(exc))))
            else:
                result_queue.put(("loaded", worker_id, (key, None)))
            continue
        if kind == "unload":
            # drained old version: drop its engine (and caches)
            engines.pop(message[1], None)
            continue
        if kind == "shm_batch":
            seq, key, slot, shape, dtype_str, crc = message[1:]
            if slabs is None:
                result_queue.put(("reject", worker_id, (seq, slot)))
                continue
            try:
                chunks = [slabs.input_view(slot, shape, dtype_str, crc)]
            except TransportError:
                # the slot's bytes no longer match the descriptor's
                # crc32 (corrupted slab payload): refuse it — the
                # parent reclaims the slot and redispatches the batch
                # over the pickle queue, bit-identically
                result_queue.put(("corrupt", worker_id, (seq, slot)))
                continue
        elif kind == "shm_spill":
            # an oversized batch spilled across several slots: one
            # zero-copy view per row chunk, processed in row order
            seq, key, slot, shapes, dtype_str, crcs = message[1:]
            if slabs is None:
                result_queue.put(("reject", worker_id, (seq, slot)))
                continue
            try:
                chunks = slabs.input_views(slot, shapes, dtype_str, crcs)
            except TransportError:
                result_queue.put(("corrupt", worker_id, (seq, slot)))
                continue
        else:
            seq, key, batch = message[1], message[2], message[3]
            slot = None
            chunks = [batch]
            batch = None
        if slow_delay > 0.0:
            # injected slowdown: sleep in heartbeat-sized increments so
            # a slow shard still reads as alive
            slow_until = time.monotonic() + slow_delay
            while True:
                remaining = slow_until - time.monotonic()
                if remaining <= 0.0:
                    break
                _beat(heartbeat)
                time.sleep(min(HEARTBEAT_INTERVAL / 4.0, remaining))
        engine = engines.get(key)
        if engine is None:
            # should not happen (the parent broadcasts before routing),
            # but a deterministic error beats a crashed worker
            result_queue.put((
                "error", worker_id,
                (seq, f"model {key[0]}@{key[1]} is not loaded", slot),
            ))
            continue
        try:
            # Chunk splits never change results — the kernels are
            # bit-identical across batch sizes — so a spilled batch's
            # concatenated decisions match the unsplit batch exactly.
            parts = []
            size = 0
            seconds = 0.0
            stages: dict = {}
            for chunk in chunks:
                _beat(heartbeat)
                parts.append(engine.process_batch(chunk))
                size += len(chunk)
                seconds += engine.last_batch_seconds
                for stage, value in engine.last_batch_stages.items():
                    stages[stage] = stages.get(stage, 0.0) + value
        except Exception as exc:
            result_queue.put(("error", worker_id, (seq, repr(exc), slot)))
            continue
        if len(parts) == 1:
            result = parts[0]
            arrays = {
                "scores": result.scores,
                "predicted_classes": result.predicted_classes,
                "is_adversarial": result.is_adversarial,
                "similarities": result.similarities,
            }
        else:
            arrays = {
                "scores": np.concatenate([r.scores for r in parts]),
                "predicted_classes": np.concatenate(
                    [r.predicted_classes for r in parts]
                ),
                "is_adversarial": np.concatenate(
                    [r.is_adversarial for r in parts]
                ),
                "similarities": np.concatenate(
                    [r.similarities for r in parts]
                ),
            }
        payload = {
            "seq": seq,
            "size": size,
            "slot": slot,
            "seconds": seconds,
            "stages": stages,
        }
        # drop the slot views before they can be reused
        chunks = parts = result = None
        out_slot = slot[0] if isinstance(slot, tuple) else slot
        packed = (
            slabs.pack_output(out_slot, arrays)
            if out_slot is not None else None
        )
        if packed is not None:
            payload["spec"], payload["crc"] = packed
            result_queue.put(("shm_batch", worker_id, payload))
        else:
            # queue path, or a result too large for its output slot
            payload.update(arrays)
            result_queue.put(("batch", worker_id, payload))


# -- parent-side bookkeeping -------------------------------------------------

@dataclass
class _Task:
    """One dispatched micro-batch.

    ``slot`` is the shard-local slab slot the batch currently occupies
    when it went out over shared memory — or a tuple of slots when an
    oversized batch spilled across several (``None`` on the queue
    path); the parent keeps the batch array regardless so a crashed
    shard's work can be requeued to a different shard's slabs.
    """

    seq: int
    request: "_Request"
    chunk_index: int
    batch: np.ndarray
    key: Tuple[str, int] = (DEFAULT_MODEL, 1)
    priority: int = 1
    slot: Union[int, Tuple[int, ...], None] = None
    # pinned to the pickle queue after a crc32 mismatch, so the retry
    # cannot go back through a (possibly damaged) slab
    force_queue: bool = False
    # monotonic timestamps: queue-wait accounting + redelivery watchdog
    enqueued_at: float = 0.0
    dispatched_at: float = 0.0


@dataclass
class _Request:
    """One submitted workload, split into ordered chunks."""

    request_id: int
    seqs: List[int]
    chunks: List[Optional[dict]]
    chunk_shards: List[int]
    remaining: int
    future: "ServiceFuture"
    submitted_at: float
    key: Tuple[str, int] = (DEFAULT_MODEL, 1)
    cls: RequestClass = REQUEST_CLASSES[DEFAULT_CLASS]
    failed: bool = False
    closed: bool = False  # per-model open-request count released


@dataclass
class _Shard:
    """Parent-side handle for one worker process.

    Each shard owns a private result queue: a worker that dies while
    its queue feeder holds a put-lock can only wedge *its own* queue,
    never the survivors' — its in-flight batches are requeued anyway.
    """

    shard_id: int
    process: mp.process.BaseProcess
    task_queue: "mp.queues.Queue"
    result_queue: "mp.queues.Queue"
    ready: threading.Event = field(default_factory=threading.Event)
    inflight: Dict[int, _Task] = field(default_factory=dict)
    inflight_samples: int = 0
    dispatched_batches: int = 0
    stopping: bool = False
    broken: bool = False
    # shared-memory data plane: created lazily at first dispatch (the
    # slabs are sized from the first batch's sample shape); slab_failed
    # pins this shard to the queue transport after a create/attach
    # failure instead of retrying every batch
    slabs: Optional[SlabRing] = None
    slab_failed: bool = False
    # model keys this worker holds engines for: seeded at spawn, grown
    # by "loaded" acks during hot-swap (read by load_model's barrier)
    loaded_models: set = field(default_factory=set)
    # liveness side channel: the worker bumps `heartbeat` (a lock-free
    # mp.Value) every queue poll and every chunk; the parent watchdog
    # tracks the last observed counter and when it last moved
    heartbeat: Optional[object] = None
    last_beat: int = -1
    last_beat_at: float = field(default_factory=time.monotonic)
    spawned_at: float = field(default_factory=time.monotonic)

    def load(self) -> ShardLoad:
        return ShardLoad(
            shard_id=self.shard_id,
            inflight_batches=len(self.inflight),
            inflight_samples=self.inflight_samples,
            dispatched_batches=self.dispatched_batches,
        )


class ServiceFuture:
    """Completion handle for one submitted request."""

    def __init__(self):
        self._event = threading.Event()
        self._result: Optional["ServiceResult"] = None
        self._error: Optional[Exception] = None
        # wired by the service once the request exists (the hook closes
        # over the request object, which itself holds this future)
        self._cancel_hook: Optional[Callable[[], bool]] = None
        # routing record, set at submit time: the resolved model spec
        # ("name@version") and request-class name this request ran as
        self.model: Optional[str] = None
        self.request_class: Optional[str] = None

    def done(self) -> bool:
        return self._event.is_set()

    def cancel(self) -> bool:
        """Best-effort cancel: drop the request's not-yet-dispatched
        chunks and discard any still in flight, so an abandoned caller
        (e.g. an HTTP deadline) cannot leave work piling up in the
        service.  Returns True if the request was cancelled before it
        completed; False if it had already resolved."""
        if self._event.is_set():
            return False
        if self._cancel_hook is None:
            return False
        return self._cancel_hook()

    def result(self, timeout: Optional[float] = None) -> "ServiceResult":
        """Block until the request completes; raises on service failure."""
        if not self._event.wait(timeout):
            raise TimeoutError("service request did not complete in time")
        if self._error is not None:
            raise self._error
        return self._result

    def _set_result(self, result: "ServiceResult") -> None:
        self._result = result
        self._event.set()

    def _set_error(self, error: Exception) -> None:
        self._error = error
        self._event.set()


@dataclass
class ServiceResult:
    """Ordered decisions of one service request plus its accounting.

    ``stats`` merges the engine-side per-batch accounting of every
    shard that worked on this request; ``samples_per_sec`` is computed
    from wall clock (submission to last chunk), which is the number
    that improves with more workers.
    """

    scores: np.ndarray
    predicted_classes: np.ndarray
    is_adversarial: np.ndarray
    similarities: np.ndarray
    stats: ThroughputStats
    chunk_shards: List[int]
    wall_seconds: float

    @property
    def num_samples(self) -> int:
        return self.scores.shape[0]

    @property
    def rejection_rate(self) -> float:
        if self.num_samples == 0:
            return 0.0
        return float(self.is_adversarial.mean())

    @property
    def samples_per_sec(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.num_samples / self.wall_seconds


# -- the service -------------------------------------------------------------

class ShardedDetectionService:
    """Fans detection traffic out over a pool of engine workers.

    Parameters
    ----------
    detector:
        A profiled and fitted detector; flattened once into the
        broadcast state and registered as model ``"default"``.  May be
        omitted when ``state`` or ``registry`` is given.
    model_factory:
        Zero-argument picklable callable building an
        architecture-compatible model (e.g. ``scenario.build_model``);
        each worker calls it once per model and loads the broadcast
        weights.
    state:
        Pre-built :func:`repro.core.detector_to_state` payload; lets
        several pools share one serialisation pass.
    registry:
        A pre-populated :class:`~repro.runtime.registry.ModelRegistry`
        to serve instead of a single detector (mutually exclusive with
        ``detector``/``state``).  Every serving entry is broadcast to
        every worker; requests route with ``submit(..., model=...)``.
        The single-detector path builds an internal one-entry registry,
        so multi-model introspection works either way.
    num_workers / threshold / batch_size:
        Pool size, decision threshold, and micro-batch size (the chunk
        granularity requests are split at — identical splitting to
        ``DetectionEngine.run``, so results stay bit-identical).
    scheduler:
        ``"round-robin"`` (default), ``"least-loaded"``, or a
        :class:`ShardScheduler` instance.
    slo_ms:
        Optional per-batch latency objective.  When set, requests are
        chunked by an :class:`~repro.runtime.adaptive.AdaptiveBatcher`
        (fed from every shard's per-batch latencies) instead of at the
        fixed ``batch_size``; ``batch_size`` becomes the adaptive
        ceiling.  Chunk sizing never changes decisions — the kernels
        are bit-identical across batch sizes.
    max_restarts:
        Total worker respawns allowed over the service lifetime
        (default: ``num_workers``); the pool keeps serving with fewer
        shards once exhausted, failing only when none survive.
    start_method:
        multiprocessing start method; default ``fork`` where available
        (instant startup, zero-copy page sharing) else ``spawn``.
    transport:
        ``"shm"`` (default) moves batch and result payloads through
        per-shard shared-memory slab rings, with the queues carrying
        only small descriptors; it degrades per-batch to the pickle
        queue whenever shared memory is unavailable or a slab slot
        cannot be acquired.  ``"queue"`` forces the pickle path
        everywhere.  Decisions are bit-identical on both.
    pin_workers:
        Pin each worker to a disjoint CPU set
        (:func:`~repro.runtime.sharding.plan_worker_affinity` +
        ``os.sched_setaffinity`` at worker startup) so the OS cannot
        migrate shards — and their warm caches — across cores.
        Best-effort no-op on platforms without affinity support.
    slab_slots:
        Slots per shard slab ring (default 16); once a shard's ring is
        exhausted further batches for it fall back to the queue until
        results free slots.  A batch too large for one slot spills
        across several on row boundaries instead of leaving the
        zero-copy path.
    hang_timeout:
        Heartbeat watchdog: every worker bumps a lock-free counter at
        least every ``HEARTBEAT_INTERVAL`` while healthy; a ready
        shard whose counter stays frozen this many seconds is declared
        hung and reaped exactly like a dead one (terminate, reclaim
        slab slots, requeue its in-flight batches, respawn within the
        ``max_restarts`` budget).  Must comfortably exceed the worst
        single-chunk engine latency; ``None`` disables the watchdog.
    task_timeout:
        In-flight redelivery: a batch dispatched this many seconds ago
        with no result is requeued to another shard (the seq-ordered
        duplicate guard makes the late original harmless).  This is
        what recovers a dropped descriptor without waiting for a shard
        reap.  ``None`` (default) disables redelivery; when set it
        must exceed the worst queued+processing time of one batch.
    """

    def __init__(
        self,
        detector=None,
        *,
        model_factory: Optional[Callable] = None,
        state: Optional[dict] = None,
        registry: Optional[ModelRegistry] = None,
        num_workers: int = 2,
        threshold: float = 0.5,
        batch_size: int = 64,
        scheduler: Union[str, ShardScheduler] = "round-robin",
        slo_ms: Optional[float] = None,
        max_restarts: Optional[int] = None,
        start_method: Optional[str] = None,
        ready_timeout: float = 120.0,
        transport: str = "shm",
        pin_workers: bool = False,
        slab_slots: int = DEFAULT_SLAB_SLOTS,
        hang_timeout: Optional[float] = 30.0,
        task_timeout: Optional[float] = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be positive")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive (or None)")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if transport not in ("shm", "queue"):
            raise ValueError(
                f"unknown transport {transport!r}; choose 'shm' or 'queue'"
            )
        if slab_slots < 1:
            raise ValueError("slab_slots must be positive")
        if registry is not None:
            if detector is not None or state is not None:
                raise ValueError(
                    "pass either a registry or a detector/state, not both"
                )
            if len(registry) == 0:
                raise ValueError("registry has no models")
            self.registry = registry
        else:
            # single-detector back-compat path: a one-entry registry
            # under the "default" name (register() validates the
            # detector-or-state and fitted invariants)
            self.registry = ModelRegistry(default=DEFAULT_MODEL)
            self.registry.register(
                DEFAULT_MODEL,
                detector=detector,
                state=state,
                model_factory=model_factory,
                threshold=threshold,
            )
        method = start_method or (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self._ctx = mp.get_context(method)
        self._fork = method == "fork"
        # (name, version) -> (payload, factory, threshold), broadcast
        # to every worker at spawn.  Under fork the payload is the
        # state dict itself (copy-on-write pages, zero serialization);
        # under spawn it is pickled exactly once and the buffer reused
        # for every spawn — initial pool and respawns alike.
        self._models: Dict[Tuple[str, int], tuple] = {}
        for entry in self.registry.serving_entries():
            self._models[entry.key] = self._model_payload(entry)
        self.num_workers = num_workers
        self.threshold = threshold
        self.batch_size = batch_size
        self.transport_requested = transport
        self._shm_ok = transport == "shm" and shm_available()
        self.slab_slots = slab_slots
        self.pin_workers = bool(pin_workers)
        self._affinity_plan = (
            plan_worker_affinity(num_workers) if self.pin_workers else None
        )
        # shard_id -> plan slot, so a replacement takes over the CPU
        # share of the shard it replaces (never a live shard's)
        self._affinity_slots: Dict[int, int] = {}
        self._transport_counts = {
            "shm_batches": 0,
            "queue_batches": 0,
            "slot_fallbacks": 0,
            "size_fallbacks": 0,
            "spill_batches": 0,
            "spill_slots": 0,
            "shm_bytes_in": 0,
            "shm_bytes_out": 0,
            "slots_reclaimed": 0,
        }
        self.hang_timeout = hang_timeout
        self.task_timeout = task_timeout
        # self-healing / chaos accounting (see fault_stats())
        self._fault_counts = {
            "dead_reaps": 0,
            "hung_reaps": 0,
            "corrupted_slots": 0,
            "corrupt_redispatches": 0,
            "descriptor_drops": 0,
            "redelivered_tasks": 0,
            "injected_crashes": 0,
            "injected_hangs": 0,
            "injected_slowdowns": 0,
        }
        # armed one-shot fault injections, consumed on the dispatch path
        self._corrupt_next = 0
        self._drop_next = 0
        # spawn→ready latency of every shard this service ever started
        # (respawns included) — the drill's time-to-respawn source
        self._spawn_seconds: List[float] = []
        # enqueue→dispatch wait per request class, recent window
        self._class_waits: Dict[str, deque] = {
            name: deque(maxlen=WAIT_WINDOW) for name in REQUEST_CLASSES
        }
        self._slo_ms = slo_ms
        # one AdaptiveBatcher per (model key, class name), lazily
        # created with the class-scaled SLO; `adaptive` (back-compat)
        # is the default model's standard-class controller
        self._adaptive: Dict[
            Tuple[Tuple[str, int], str], AdaptiveBatcher
        ] = {}
        if slo_ms is not None:
            default_key = self.registry.resolve(None).key
            self._adaptive[(default_key, DEFAULT_CLASS)] = AdaptiveBatcher(
                slo_ms,
                max_batch=batch_size,
                initial_batch=min(8, batch_size),
            )
        self._scheduler = make_scheduler(scheduler)
        self.max_restarts = (
            num_workers if max_restarts is None else max_restarts
        )
        self._ready_timeout = ready_timeout

        self._lock = threading.RLock()
        # Serialises start()/stop() against concurrent submit() callers
        # (reentrant: start()'s failure path calls stop()).
        self._lifecycle_lock = threading.RLock()
        self._shards: Dict[int, _Shard] = {}
        self._shard_stats: Dict[int, ThroughputStats] = {}
        # class-priority dispatch: entries are (priority, tie-breaker,
        # task); the tie-breaker keeps FIFO order within a class and
        # makes entries comparable (tasks are not)
        self._dispatch_queue: "queue.PriorityQueue" = queue.PriorityQueue()
        self._dispatch_counter = itertools.count()
        self._open_seqs: Dict[int, Tuple[_Request, int]] = {}
        # per-model serving accounting + drain-and-replace state
        self._model_stats: Dict[Tuple[str, int], ThroughputStats] = {}
        self._model_requests: Dict[Tuple[str, int], int] = {}
        self._open_model_requests: Dict[Tuple[str, int], int] = {}
        self._retiring: set = set()
        self._load_errors: Dict[Tuple[str, int], str] = {}
        self._seq = 0
        self._request_counter = 0
        self._next_shard_id = 0
        self.restarts = 0
        self._started = False
        self._stopped = False  # True only after an explicit stop()
        self._stop_event = threading.Event()
        self._failure: Optional[ServiceError] = None
        self._collector: Optional[threading.Thread] = None
        self._dispatcher: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "ShardedDetectionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> "ShardedDetectionService":
        """Spawn the worker pool and wait until every shard is warm.

        A stopped service can be started again: the pool, queues, and
        control threads are rebuilt from scratch (lifetime accounting
        and the restart counter carry over).
        """
        with self._lifecycle_lock:
            if self._started:
                return self
            self._stopped = False
            self._stop_event = threading.Event()
            self._failure = None
            # adopt anything registered directly on the registry while
            # the pool was down (load_model keeps this in sync itself)
            for entry in self.registry.serving_entries():
                if entry.key not in self._models:
                    self._models[entry.key] = self._model_payload(entry)
            for _ in range(self.num_workers):
                self._spawn_shard()
            self._collector = threading.Thread(
                target=self._collect_loop, name="service-collector",
                daemon=True,
            )
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="service-dispatcher",
                daemon=True,
            )
            self._collector.start()
            self._dispatcher.start()
            self._started = True
            deadline = time.monotonic() + self._ready_timeout
            while time.monotonic() < deadline:
                if self._failure is not None:
                    self.stop()
                    raise self._failure
                with self._lock:
                    shards = list(self._shards.values())
                if shards and all(s.ready.is_set() for s in shards):
                    return self
                time.sleep(0.01)
            self.stop()
            raise ServiceError("worker pool failed to become ready in time")

    def stop(self) -> None:
        """Shut the pool down; outstanding requests fail cleanly."""
        with self._lifecycle_lock:
            self._stop_locked()

    def _stop_locked(self) -> None:
        if not self._started:
            return
        self._stop_event.set()
        with self._lock:
            shards = list(self._shards.values())
            for shard in shards:
                shard.stopping = True
                try:
                    shard.task_queue.put(("stop",))
                except (ValueError, OSError):
                    pass
        for shard in shards:
            shard.process.join(timeout=10)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=5)
        # the stop sentinel sorts after every real task, so queued work
        # is drained (and failed below) before the dispatcher exits
        self._dispatch_queue.put((1 << 30, next(self._dispatch_counter), None))
        for thread in (self._dispatcher, self._collector):
            if thread is not None:
                thread.join(timeout=10)
        with self._lock:
            open_requests = {
                request for request, _ in self._open_seqs.values()
            }
            self._open_seqs.clear()
            for request in open_requests:
                request.future._set_error(
                    ServiceError("service stopped with the request pending")
                )
                self._close_request_locked(request)
            for shard in shards:
                # workers already joined (or were terminated): unlink
                # every shared-memory segment so nothing outlives the
                # pool in /dev/shm
                self._destroy_shard_slabs(shard)
                for q in (shard.task_queue, shard.result_queue):
                    q.close()
                    q.cancel_join_thread()
            self._shards.clear()
        self._started = False
        self._stopped = True

    @property
    def alive_workers(self) -> int:
        """Shards currently able to take traffic."""
        with self._lock:
            return sum(
                1
                for s in self._shards.values()
                if s.process.is_alive() and not s.stopping
            )

    @property
    def failure(self) -> Optional["ServiceError"]:
        """The terminal failure that killed the service, if any (what
        the HTTP front-end's ``/healthz`` reports)."""
        return self._failure

    # -- multi-model surface --------------------------------------------
    def _model_payload(self, entry: ModelEntry) -> tuple:
        """The (payload, factory, threshold) triple workers rebuild an
        engine from; the payload is serialized at most once."""
        payload = (
            entry.state
            if self._fork
            else pickle.dumps(entry.state, pickle.HIGHEST_PROTOCOL)
        )
        return (payload, entry.model_factory, entry.threshold)

    @property
    def default_model(self) -> Optional[str]:
        """Name requests without a ``model`` argument route to."""
        return self.registry.default_name

    @property
    def adaptive(self) -> Optional[AdaptiveBatcher]:
        """The default model's standard-class adaptive batcher (the
        pre-multi-model surface; ``None`` unless ``slo_ms`` was set).
        Per-(model, class) controllers: :meth:`adaptive_snapshots`."""
        if self._slo_ms is None:
            return None
        try:
            key = self.registry.resolve(None).key
        except (UnknownModelError, ValueError):
            return None
        return self._adaptive_for(key, REQUEST_CLASSES[DEFAULT_CLASS])

    def _adaptive_for(
        self, key: Tuple[str, int], cls: RequestClass
    ) -> AdaptiveBatcher:
        """The (model, class) batcher, created on first use with the
        class-scaled SLO."""
        with self._lock:
            batcher = self._adaptive.get((key, cls.name))
            if batcher is None:
                batcher = AdaptiveBatcher(
                    self._slo_ms * cls.slo_scale,
                    max_batch=self.batch_size,
                    initial_batch=min(8, self.batch_size),
                )
                self._adaptive[(key, cls.name)] = batcher
            return batcher

    def adaptive_snapshots(self) -> Dict[str, dict]:
        """Controller state per ``name@version/class`` (empty without
        ``slo_ms``)."""
        with self._lock:
            return {
                f"{key[0]}@{key[1]}/{cls_name}": batcher.snapshot()
                for (key, cls_name), batcher in sorted(
                    self._adaptive.items()
                )
            }

    def model_stats(self) -> Dict[str, ThroughputStats]:
        """Lifetime engine-side accounting per served model version
        (copies, keyed by ``name@version``; retired versions remain)."""
        with self._lock:
            return {
                f"{key[0]}@{key[1]}": ThroughputStats().merge(stats)
                for key, stats in sorted(self._model_stats.items())
            }

    def models(self) -> dict:
        """JSON-safe listing of every registered model version plus the
        live serving view: per-version request/sample counts, open
        requests, and whether the version is draining toward retire.
        This is what ``GET /v1/models`` returns."""
        listing = self.registry.describe()
        with self._lock:
            requests = {
                f"{k[0]}@{k[1]}": count
                for k, count in self._model_requests.items()
            }
            open_requests = {
                f"{k[0]}@{k[1]}": count
                for k, count in self._open_model_requests.items()
            }
            draining = {f"{k[0]}@{k[1]}" for k in self._retiring}
            stats = {
                f"{k[0]}@{k[1]}": stats.samples
                for k, stats in self._model_stats.items()
            }
        for row in listing["models"]:
            spec = row["spec"]
            row["requests"] = requests.get(spec, 0)
            row["open_requests"] = open_requests.get(spec, 0)
            row["samples"] = int(stats.get(spec, 0))
            row["draining"] = spec in draining
        return listing

    def load_model(
        self,
        name: str,
        *,
        detector=None,
        state: Optional[dict] = None,
        model_factory: Optional[Callable] = None,
        threshold: Optional[float] = None,
        source: Optional[str] = None,
        timeout: float = 60.0,
    ) -> ModelEntry:
        """Register a model version and make it serve — the hot-swap
        primitive behind ``POST /v1/models``.

        A new name starts serving immediately; an existing name gets
        version ``highest + 1`` with **drain-and-replace**: the state is
        broadcast to every live worker first, routing flips to the new
        version only after all of them ack the load, and the old
        version is retired (engine unloaded everywhere) once its last
        in-flight request completes — in-flight requests on the old
        version always finish on the old version.

        ``source`` clones an already-registered spec (``name[@ver]``)
        instead of passing a detector/state — the state is reused, so
        this is cheap.  ``model_factory``/``threshold`` default to the
        source's (or, for an existing name, the serving version's).
        Raises :class:`ServiceError` if a worker cannot load the state
        (the new version never serves) or the ack wait times out.
        """
        with self._lifecycle_lock:
            if self._failure is not None:
                raise self._failure
            if source is not None:
                if detector is not None or state is not None:
                    raise ValueError(
                        "pass either source= or a detector/state, not both"
                    )
                src = self.registry.resolve(source)
                state = src.state
                model_factory = model_factory or src.model_factory
                threshold = src.threshold if threshold is None else threshold
            if model_factory is None or threshold is None:
                try:
                    current = self.registry.get(name)
                except UnknownModelError:
                    current = None
                if current is not None:
                    model_factory = model_factory or current.model_factory
                    if threshold is None:
                        threshold = current.threshold
            if threshold is None:
                threshold = self.threshold
            old_key: Optional[Tuple[str, int]] = None
            serving = self.registry.serving_version(name)
            if serving is not None:
                old_key = (name, serving)
            entry = self.registry.register(
                name,
                detector=detector,
                state=state,
                model_factory=model_factory,
                threshold=threshold,
            )
            runtime = self._model_payload(entry)
            with self._lock:
                self._models[entry.key] = runtime
                shards = [
                    s
                    for s in self._shards.values()
                    if not s.stopping and s.process.is_alive()
                ]
            if self._started:
                for shard in shards:
                    try:
                        shard.task_queue.put(
                            ("load", entry.key) + runtime
                        )
                    except (ValueError, OSError):
                        pass
                self._await_model_loaded(entry, timeout)
            self.registry.promote(name, entry.version)
            if old_key is not None and old_key != entry.key:
                with self._lock:
                    self._retiring.add(old_key)
                    self._retire_if_drained_locked(old_key)
            return entry

    def retire_model(self, spec: str) -> dict:
        """Explicitly retire a non-serving model version — the primitive
        behind ``DELETE /v1/models/<spec>``.

        Idempotent for an already-retired version.  Raises
        :class:`UnknownModelError` for an unknown spec, and
        :class:`ValueError` for the serving version or a version that
        still has open requests (the caller maps both to 409: retry
        after promoting a replacement / after the drain finishes).
        """
        with self._lifecycle_lock:
            name, version = parse_model_spec(spec)
            entry = self.registry.get(name, version)
            if entry.retired:
                return {"spec": entry.spec, "retired": True}
            with self._lock:
                if self._open_model_requests.get(entry.key, 0) > 0:
                    raise ValueError(
                        f"{entry.spec} still has in-flight requests; "
                        "retry once they drain"
                    )
                # raises ValueError for the serving version — checked
                # under the lock so a concurrent submit cannot slip in
                # between the check and the unload broadcast
                self.registry.retire(name, entry.version)
                self._retiring.discard(entry.key)
                self._models.pop(entry.key, None)
                for shard in self._shards.values():
                    if shard.stopping or not shard.process.is_alive():
                        continue
                    try:
                        shard.task_queue.put(("unload", entry.key))
                    except (ValueError, OSError):
                        pass
                    shard.loaded_models.discard(entry.key)
            return {"spec": entry.spec, "retired": True}

    def _await_model_loaded(self, entry: ModelEntry, timeout: float) -> None:
        """Block until every live worker acks the new model's engine;
        on any load failure or timeout roll the version back so routing
        never flips to a state the pool cannot serve."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                error = self._load_errors.pop(entry.key, None)
                pending = [
                    s
                    for s in self._shards.values()
                    if not s.stopping
                    and not s.broken
                    and s.process.is_alive()
                    and entry.key not in s.loaded_models
                ]
            if error is not None:
                self._rollback_model(entry)
                raise ServiceError(
                    f"hot-swap of {entry.spec} failed on a worker: {error}"
                )
            if not pending:
                return
            if time.monotonic() >= deadline:
                self._rollback_model(entry)
                raise ServiceError(
                    f"hot-swap of {entry.spec} timed out waiting for "
                    f"{len(pending)} worker(s) to load it"
                )
            time.sleep(0.01)

    def _rollback_model(self, entry: ModelEntry) -> None:
        with self._lock:
            self._models.pop(entry.key, None)
            shards = [
                s
                for s in self._shards.values()
                if not s.stopping and s.process.is_alive()
            ]
        for shard in shards:
            try:
                shard.task_queue.put(("unload", entry.key))
            except (ValueError, OSError):
                pass
        try:
            self.registry.retire(entry.name, entry.version)
        except (ValueError, UnknownModelError):
            pass  # never served / already gone

    def _close_request_locked(self, request: _Request) -> None:
        """Release the request's per-model open count exactly once and
        advance any drain waiting on it (caller holds ``self._lock``)."""
        if request.closed:
            return
        request.closed = True
        count = self._open_model_requests.get(request.key, 0) - 1
        if count > 0:
            self._open_model_requests[request.key] = count
        else:
            self._open_model_requests.pop(request.key, None)
        self._retire_if_drained_locked(request.key)

    def _retire_if_drained_locked(self, key: Tuple[str, int]) -> None:
        """Finish a drain-and-replace: once a retiring version has no
        open requests, unload its engines and retire it in the registry
        (caller holds ``self._lock``)."""
        if key not in self._retiring:
            return
        if self._open_model_requests.get(key, 0) > 0:
            return
        self._retiring.discard(key)
        self._models.pop(key, None)
        for shard in self._shards.values():
            if shard.stopping or not shard.process.is_alive():
                continue
            try:
                shard.task_queue.put(("unload", key))
            except (ValueError, OSError):
                pass
            shard.loaded_models.discard(key)
        try:
            self.registry.retire(*key)
        except (ValueError, UnknownModelError):
            pass

    # -- submission -----------------------------------------------------
    @staticmethod
    def _validate_workload(xs) -> np.ndarray:
        """Reject malformed/empty inputs *before* anything enqueues, so
        bad requests fail loudly at the boundary instead of poisoning a
        worker (or silently producing empty accounting)."""
        try:
            xs = np.asarray(xs)
        except Exception as exc:
            raise ValueError(f"workload is not array-like: {exc}") from exc
        if not np.issubdtype(xs.dtype, np.number):
            raise ValueError(
                f"workload must be a numeric array, got dtype={xs.dtype} "
                "(ragged or non-numeric input)"
            )
        if xs.ndim == 0:
            raise ValueError(
                "workload must be an (N, ...) sample array, got a scalar"
            )
        if xs.ndim < 2:
            raise ValueError(
                "workload must be an (N, ...) sample array with at "
                f"least one feature axis, got shape {xs.shape}"
            )
        if len(xs) == 0:
            raise ValueError(
                "workload is empty: submit at least one sample"
            )
        return xs

    def submit(
        self,
        xs: np.ndarray,
        *,
        model: Optional[str] = None,
        request_class: Optional[str] = None,
    ) -> ServiceFuture:
        """Queue a workload; returns a future resolving to the ordered
        :class:`ServiceResult`.

        ``model`` is a ``name[@version]`` spec routed through the
        registry (``None`` → the default model); ``request_class`` is
        an SLO class name (``None`` → ``standard``).

        Raises :class:`ValueError` on malformed/empty input, a
        malformed model spec, or an unknown class;
        :class:`~repro.runtime.registry.UnknownModelError` on an
        unknown/retired model; and :class:`ServiceError` when called
        after :meth:`stop` (an explicitly stopped pool must be
        restarted with :meth:`start`; it never auto-resurrects, and
        never hangs on dead queues).
        """
        xs = self._validate_workload(xs)
        cls = resolve_request_class(request_class)
        with self._lifecycle_lock:
            # under the lifecycle lock a racing stop() cannot tear the
            # pool down between the started check and task enqueueing
            if self._failure is not None:
                raise self._failure
            if self._stopped and not self._started:
                raise ServiceError(
                    "service is stopped; call start() before submitting"
                )
            entry = self.registry.resolve(model)
            if entry.key not in self._models:
                raise ServiceError(
                    f"model {entry.spec} is registered but not loaded "
                    "into the pool; use load_model() to serve it"
                )
            if not self._started:
                self.start()
            return self._submit_started(xs, entry, cls)

    def _cancel_request(self, request: "_Request") -> bool:
        """Abandon a request: unregister its chunks so queued ones are
        skipped by the dispatcher and in-flight results are dropped as
        late duplicates (worker-side load accounting still releases
        normally in ``_finish_chunk``/``_fail_seq``)."""
        with self._lock:
            if request.future.done():
                return False
            request.failed = True
            for seq in request.seqs:
                self._open_seqs.pop(seq, None)
            self._close_request_locked(request)
        request.future._set_error(
            ServiceError("request cancelled by the caller")
        )
        return True

    def _submit_started(
        self, xs: np.ndarray, entry: ModelEntry, cls: RequestClass
    ) -> ServiceFuture:
        future = ServiceFuture()
        future.model = entry.spec
        future.request_class = cls.name
        if self._slo_ms is not None:
            chunks = list(self._adaptive_for(entry.key, cls).iter_chunks(xs))
        else:
            chunks = list(iter_microbatches(xs, self.batch_size))
        with self._lock:
            request = _Request(
                request_id=self._request_counter,
                seqs=[],
                chunks=[None] * len(chunks),
                chunk_shards=[-1] * len(chunks),
                remaining=len(chunks),
                future=future,
                submitted_at=time.perf_counter(),
                key=entry.key,
                cls=cls,
            )
            future._cancel_hook = lambda: self._cancel_request(request)
            self._request_counter += 1
            self._model_requests[entry.key] = (
                self._model_requests.get(entry.key, 0) + 1
            )
            self._open_model_requests[entry.key] = (
                self._open_model_requests.get(entry.key, 0) + 1
            )
            tasks = []
            for index, chunk in enumerate(chunks):
                seq = self._seq
                self._seq += 1
                request.seqs.append(seq)
                self._open_seqs[seq] = (request, index)
                tasks.append(
                    _Task(
                        seq, request, index, chunk,
                        key=entry.key, priority=cls.priority,
                    )
                )
        for task in tasks:
            self._enqueue_task(task)
        return future

    def _enqueue_task(self, task: _Task) -> None:
        """Priority-queue entry: higher classes (lower priority number)
        dispatch first; the monotonic tie-breaker keeps FIFO order
        within a class and makes entries totally ordered."""
        task.enqueued_at = time.monotonic()
        self._dispatch_queue.put(
            (task.priority, next(self._dispatch_counter), task)
        )

    def run(
        self,
        xs: np.ndarray,
        timeout: Optional[float] = None,
        *,
        model: Optional[str] = None,
        request_class: Optional[str] = None,
    ) -> ServiceResult:
        """Submit a workload and block for its ordered result."""
        return self.submit(
            xs, model=model, request_class=request_class
        ).result(timeout)

    # -- accounting -----------------------------------------------------
    def stats(self) -> ThroughputStats:
        """Lifetime engine-side accounting merged across every shard the
        service has ever run (dead shards included)."""
        with self._lock:
            return merge_shard_stats(self._shard_stats)

    def shard_stats(self) -> Dict[int, ThroughputStats]:
        """Per-shard lifetime accounting (copies, keyed by shard id)."""
        with self._lock:
            return {
                shard_id: ThroughputStats().merge(stats)
                for shard_id, stats in self._shard_stats.items()
            }

    def class_wait_stats(self) -> Dict[str, dict]:
        """Enqueue→dispatch wait percentiles per request class, over a
        sliding window of the last ``WAIT_WINDOW`` dispatches.  Values
        are milliseconds (``None`` until a class has seen traffic)."""
        with self._lock:
            windows = {
                name: list(waits)
                for name, waits in self._class_waits.items()
            }
        out: Dict[str, dict] = {}
        for name, waits in windows.items():
            if waits:
                p50, p95, p99 = np.percentile(waits, [50.0, 95.0, 99.0])
                out[name] = {
                    "count": len(waits),
                    "wait_ms_p50": float(p50) * 1e3,
                    "wait_ms_p95": float(p95) * 1e3,
                    "wait_ms_p99": float(p99) * 1e3,
                }
            else:
                out[name] = {
                    "count": 0,
                    "wait_ms_p50": None,
                    "wait_ms_p95": None,
                    "wait_ms_p99": None,
                }
        return out

    def fault_stats(self) -> dict:
        """Lifetime fault/recovery accounting.  ``dead_reaps`` counts
        every reaped shard (``hung_reaps`` is the watchdog-triggered
        subset of it); ``spawn_to_ready_seconds`` holds one fork→ready
        latency per shard ever spawned (respawns included)."""
        with self._lock:
            stats = dict(self._fault_counts)
            stats["restarts"] = self.restarts
            stats["max_restarts"] = self.max_restarts
            stats["spawn_to_ready_seconds"] = list(self._spawn_seconds)
        return stats

    # -- fault injection ------------------------------------------------
    # The seeded chaos layer (repro.runtime.chaos) drives these five
    # hooks; each one forges a distinct production failure shape and
    # each is recovered by a different mechanism (see fault_stats()).

    def _pick_shard_locked(self, shard_id: Optional[int], verb: str) -> _Shard:
        """Target of one injection (caller holds ``self._lock``)."""
        candidates = sorted(
            s for s in self._shards if not self._shards[s].stopping
        )
        if not candidates:
            raise ServiceError(f"no live shard to {verb}")
        target = candidates[0] if shard_id is None else shard_id
        if target not in self._shards:
            raise ServiceError(f"no shard {target} to {verb}")
        return self._shards[target]

    def inject_crash(self, shard_id: Optional[int] = None) -> int:
        """Make one worker die abruptly (``os._exit``), exercising the
        requeue-and-respawn path.  Returns the doomed shard's id."""
        with self._lock:
            shard = self._pick_shard_locked(shard_id, "crash")
            shard.task_queue.put(("crash",))
            self._fault_counts["injected_crashes"] += 1
            return shard.shard_id

    def inject_hang(self, shard_id: Optional[int] = None) -> int:
        """Make one worker hang: the process stays alive but stops
        reading its queue and stops heartbeating, exercising the
        heartbeat watchdog (reap + requeue + respawn).  Returns the
        hung shard's id."""
        with self._lock:
            shard = self._pick_shard_locked(shard_id, "hang")
            shard.task_queue.put(("hang",))
            self._fault_counts["injected_hangs"] += 1
            return shard.shard_id

    def inject_slowdown(
        self, delay_s: float, shard_id: Optional[int] = None
    ) -> int:
        """Delay every subsequent batch on one worker by ``delay_s``
        seconds (still heartbeating: the watchdog must classify it as
        slow, not hung).  ``delay_s=0`` restores full speed.  Returns
        the slowed shard's id."""
        if delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        with self._lock:
            shard = self._pick_shard_locked(shard_id, "slow down")
            shard.task_queue.put(("slow", float(delay_s)))
            self._fault_counts["injected_slowdowns"] += 1
            return shard.shard_id

    def inject_slot_corruption(self, batches: int = 1) -> None:
        """Arm byte-flips in the next ``batches`` shared-memory batch
        payloads (flipped *after* the slot is written, so the crc32 in
        the descriptor no longer matches).  The worker's integrity
        check must refuse each one and the batch must redispatch over
        the pickle queue, bit-identically."""
        if batches < 1:
            raise ValueError("batches must be positive")
        with self._lock:
            self._corrupt_next += int(batches)

    def inject_descriptor_drop(self, batches: int = 1) -> None:
        """Arm dropping of the next ``batches`` dispatch descriptors:
        the batch is accounted in flight but its control message never
        reaches the worker.  Recovery needs ``task_timeout`` (in-flight
        redelivery); without it the batch waits for a shard reap."""
        if batches < 1:
            raise ValueError("batches must be positive")
        with self._lock:
            self._drop_next += int(batches)

    # -- internals ------------------------------------------------------
    def _spawn_shard(self) -> _Shard:
        # Respawns run on the collector thread while the dispatcher is
        # live, so with the default "fork" method the child may inherit
        # other threads' lock state.  That is safe for everything this
        # child actually touches: both of its queues are created fresh
        # below (no one else holds their locks yet), and it never
        # touches any other shard's queues.  Deployments that still
        # prefer full isolation can pass ``start_method="spawn"``.
        shard_id = self._next_shard_id
        self._next_shard_id += 1
        task_queue = self._ctx.Queue()
        result_queue = self._ctx.Queue()
        # Heartbeat side channel: a lock-free shared counter the worker
        # bumps and the watchdog samples.  Single writer, so torn reads
        # at worst delay one watchdog tick.
        heartbeat = self._ctx.Value("Q", 0, lock=False)
        pin_cpus = None
        if self._affinity_plan:
            # claim the lowest plan slot no live shard holds, so a
            # replacement inherits the dead shard's CPU share and the
            # partition stays disjoint across respawns
            with self._lock:
                held = {
                    self._affinity_slots[sid]
                    for sid in self._shards
                    if sid in self._affinity_slots
                }
                slot = next(
                    (s for s in range(self.num_workers) if s not in held),
                    shard_id % self.num_workers,
                )
                self._affinity_slots[shard_id] = slot
            pin_cpus = self._affinity_plan[slot]
        with self._lock:
            # snapshot of every currently-served model (including any
            # hot-swapped since start), so replacements and late spawns
            # can take traffic for all of them
            models_payload = dict(self._models)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                shard_id,
                models_payload,
                self.batch_size,
                task_queue,
                result_queue,
                heartbeat,
                pin_cpus,
            ),
            name=f"detection-shard-{shard_id}",
            daemon=True,
        )
        shard = _Shard(shard_id, process, task_queue, result_queue)
        shard.heartbeat = heartbeat
        shard.loaded_models = set(models_payload)
        with self._lock:
            self._shards[shard_id] = shard
            self._shard_stats.setdefault(shard_id, ThroughputStats())
        process.start()
        return shard

    def _ready_shards(self) -> List[_Shard]:
        return sorted(
            (
                s
                for s in self._shards.values()
                if s.ready.is_set()
                and not s.stopping
                and not s.broken
                and s.process.is_alive()
            ),
            key=lambda s: s.shard_id,
        )

    def _abort(self, failure: ServiceError) -> None:
        """Last-resort failure path: mark the service dead and fail
        every open request, so callers blocked in ``result()`` get an
        error instead of hanging forever."""
        with self._lock:
            self._failure = failure
            open_requests = {
                request for request, _ in self._open_seqs.values()
            }
            self._open_seqs.clear()
            for request in open_requests:
                request.failed = True
                request.future._set_error(failure)
                self._close_request_locked(request)

    def _dispatch_loop(self) -> None:
        try:
            self._dispatch_forever()
        except Exception as exc:  # e.g. a custom scheduler raising
            self._abort(ServiceError(f"dispatcher crashed: {exc!r}"))

    def _dispatch_forever(self) -> None:
        while True:
            _, _, task = self._dispatch_queue.get()
            if task is None:
                return
            while not self._stop_event.is_set():
                if task.request.failed:
                    break
                with self._lock:
                    ready = self._ready_shards()
                    if ready:
                        target = self._scheduler.choose(
                            [s.load() for s in ready]
                        )
                        shard = self._shards[target]
                        message = self._transport_message(shard, task)
                        now = time.monotonic()
                        task.dispatched_at = now
                        if task.enqueued_at:
                            self._class_waits[task.request.cls.name].append(
                                now - task.enqueued_at
                            )
                        shard.inflight[task.seq] = task
                        shard.inflight_samples += len(task.batch)
                        shard.dispatched_batches += 1
                        if self._drop_next > 0:
                            # injected descriptor drop: the batch is
                            # accounted in flight but its control
                            # message never reaches the worker.  Any
                            # slab slot is released here — the worker
                            # never learned about it, so nothing else
                            # can be reading it.
                            self._drop_next -= 1
                            self._fault_counts["descriptor_drops"] += 1
                            self._release_slot(shard, task.slot)
                            task.slot = None
                        else:
                            shard.task_queue.put(message)
                        break
                # no ready shard right now (e.g. respawn in progress)
                time.sleep(0.005)

    # -- transport (data plane) -----------------------------------------
    def _transport_message(self, shard: _Shard, task: _Task) -> tuple:
        """Build the control message for one batch, writing the payload
        into a slab slot when the shm path can take it (called under
        ``self._lock``)."""
        task.slot = None
        if self._shm_ok and not task.force_queue:
            batch = np.ascontiguousarray(task.batch)
            task.batch = batch  # a requeue reuses the contiguous form
            if shard.slabs is None and not shard.slab_failed:
                self._create_shard_slabs(shard, batch)
            if shard.slabs is not None and not shard.slab_failed:
                if not shard.slabs.fits(batch.nbytes):
                    # too big for one slot: spill across several on row
                    # boundaries, keeping the zero-copy path
                    try:
                        spilled = shard.slabs.spill_input(batch)
                    except TransportError:
                        # a single row outgrows a slot (or there is no
                        # row axis): only the pickle queue can take it
                        spilled = None
                        self._transport_counts["size_fallbacks"] += 1
                    else:
                        if spilled is None:
                            self._transport_counts["slot_fallbacks"] += 1
                    if spilled is not None:
                        slots, shapes, crcs = spilled
                        if self._corrupt_next > 0:
                            self._corrupt_next -= 1
                            self._fault_counts["corrupted_slots"] += 1
                            shard.slabs.corrupt_input(slots[0])
                        task.slot = slots
                        self._transport_counts["shm_batches"] += 1
                        self._transport_counts["spill_batches"] += 1
                        self._transport_counts["spill_slots"] += len(slots)
                        self._transport_counts["shm_bytes_in"] += batch.nbytes
                        return (
                            "shm_spill", task.seq, task.key, slots,
                            shapes, batch.dtype.str, crcs,
                        )
                else:
                    slot = shard.slabs.acquire()
                    if slot is None:
                        self._transport_counts["slot_fallbacks"] += 1
                    else:
                        crc = shard.slabs.write_input(slot, batch)
                        if self._corrupt_next > 0:
                            # flip payload bytes *after* the descriptor
                            # crc was computed, so the worker's
                            # integrity check must reject the slot
                            self._corrupt_next -= 1
                            self._fault_counts["corrupted_slots"] += 1
                            shard.slabs.corrupt_input(slot)
                        task.slot = slot
                        self._transport_counts["shm_batches"] += 1
                        self._transport_counts["shm_bytes_in"] += batch.nbytes
                        return (
                            "shm_batch", task.seq, task.key, slot,
                            batch.shape, batch.dtype.str, crc,
                        )
        self._transport_counts["queue_batches"] += 1
        return ("batch", task.seq, task.key, task.batch)

    def _create_shard_slabs(self, shard: _Shard, batch: np.ndarray) -> None:
        """Lazily build this shard's slab ring, sized from the first
        batch's sample shape and the service's max batch size, and tell
        the worker to attach (the attach message is queued ahead of any
        descriptor, so the worker is always ready for it)."""
        sample_nbytes = (
            int(np.prod(batch.shape[1:], dtype=np.int64)) * batch.itemsize
            if batch.ndim > 1 else batch.itemsize
        )
        in_slot = max(1, sample_nbytes) * self.batch_size
        out_slot = OUT_BYTES_PER_SAMPLE * self.batch_size + 1024
        try:
            shard.slabs = SlabRing(
                shard.shard_id, self.slab_slots, in_slot, out_slot
            )
        except Exception:
            # /dev/shm full, read-only, too small, ... — this shard
            # serves over the queue for the rest of its life
            shard.slab_failed = True
            return
        shard.task_queue.put(("attach", shard.slabs.attach_message()))

    def _release_slot(
        self, shard: _Shard, slot: Union[int, Tuple[int, ...], None]
    ) -> None:
        if slot is None or shard.slabs is None:
            return
        for held in slot if isinstance(slot, tuple) else (slot,):
            try:
                shard.slabs.release(held)
            except TransportError:
                pass  # slab ring already torn down by a racing reap

    def _destroy_shard_slabs(self, shard: _Shard) -> int:
        """Reclaim every slab slot the shard still holds and unlink its
        segments; returns how many in-flight slots were reclaimed."""
        reclaimed = 0
        for task in shard.inflight.values():
            if task.slot is not None:
                reclaimed += (
                    len(task.slot) if isinstance(task.slot, tuple) else 1
                )
                task.slot = None  # the slot(s) die with the slab
        if shard.slabs is not None:
            shard.slabs.destroy()
            shard.slabs = None
        return reclaimed

    @property
    def transport(self) -> str:
        """The effective payload channel: ``"shm"`` when slab rings are
        in play, ``"queue"`` when forced or unavailable."""
        return "shm" if self._shm_ok else "queue"

    def shard_backends(self) -> Dict[int, str]:
        """Kernel backend per live shard: always ``"numpy"``, the one
        kernel path every worker's detector runs."""
        with self._lock:
            return {shard_id: "numpy" for shard_id in sorted(self._shards)}

    def transport_stats(self) -> dict:
        """Lifetime transport accounting: batches per channel, fallback
        causes, and shared-memory bytes moved each way."""
        with self._lock:
            stats = dict(self._transport_counts)
            stats["shards_with_slabs"] = sum(
                1 for s in self._shards.values() if s.slabs is not None
            )
            stats["slots_in_use"] = sum(
                s.slabs.in_use
                for s in self._shards.values()
                if s.slabs is not None
            )
        stats["transport"] = self.transport
        stats["requested"] = self.transport_requested
        stats["slab_slots"] = self.slab_slots
        stats["kernel_backends"] = self.shard_backends()
        return stats

    def _collect_loop(self) -> None:
        try:
            self._collect_forever()
        except Exception as exc:
            self._abort(ServiceError(f"collector crashed: {exc!r}"))

    def _collect_forever(self) -> None:
        # Polls every shard's private result queue.  Health checks run
        # on a clock, not only on queue idleness: under sustained
        # traffic the queues are never all empty, and a dead shard's
        # orphaned batches must still be requeued.
        last_health_check = time.monotonic()
        while not self._stop_event.is_set():
            now = time.monotonic()
            if now - last_health_check >= 0.1:
                last_health_check = now
                self._check_health()
            with self._lock:
                shards = list(self._shards.values())
            progressed = False
            for shard in shards:
                progressed |= self._drain_shard_results(shard)
            if not progressed:
                time.sleep(0.002)

    def _drain_shard_results(self, shard: _Shard) -> bool:
        """Handle everything currently queued by one shard; returns
        whether any message arrived."""
        progressed = False
        while True:
            try:
                kind, worker_id, payload = (
                    shard.result_queue.get_nowait()
                )
            except queue.Empty:
                return progressed
            except Exception:
                # corrupt/closed stream (EOF, truncated pickle from a
                # worker killed mid-write, ...): only this shard is
                # affected — mark it broken so the health check reaps
                # it, requeues its in-flight batches, and spawns a
                # replacement
                shard.broken = True
                return progressed
            progressed = True
            if kind == "ready":
                with self._lock:
                    shard.last_beat_at = time.monotonic()
                    self._spawn_seconds.append(
                        time.monotonic() - shard.spawned_at
                    )
                shard.ready.set()
            elif kind == "loaded":
                # hot-swap ack: the worker built (or failed to build)
                # the new version's engine
                key, error = payload
                if error is None:
                    shard.loaded_models.add(key)
                else:
                    with self._lock:
                        self._load_errors[key] = error
            elif kind == "batch":
                # a queue-path result — or a shm-dispatched batch whose
                # result overflowed its output slot; either way any
                # held slot is done with
                self._release_slot(shard, payload.pop("slot", None))
                self._finish_chunk(worker_id, payload)
            elif kind == "shm_batch":
                slot = payload.pop("slot")
                spec = payload.pop("spec")
                crc = payload.pop("crc", None)
                if shard.slabs is not None:
                    # a spilled batch packs its result into its first
                    # slot; the rest only carried input chunks
                    out_slot = slot[0] if isinstance(slot, tuple) else slot
                    try:
                        arrays = shard.slabs.read_output(
                            out_slot, spec, crc
                        )
                    except TransportError:
                        # the packed result failed its crc32 check:
                        # drop it, reclaim the slot(s), and redispatch
                        # the batch over the pickle queue
                        self._release_slot(shard, slot)
                        self._redispatch_corrupt(shard, payload["seq"])
                        continue
                    payload.update(arrays)
                    with self._lock:
                        self._transport_counts["shm_bytes_out"] += sum(
                            a.nbytes for a in arrays.values()
                        )
                    self._release_slot(shard, slot)
                    self._finish_chunk(worker_id, payload)
                # else: the slabs were already torn down (reap race) —
                # the seq stays open and the batch requeues as an orphan
            elif kind == "corrupt":
                # the worker refused an input slot whose payload failed
                # its crc32 check: reclaim the slot(s) and redispatch
                # the batch over the pickle queue (the parent still
                # holds the pristine array)
                seq, slot = payload
                self._release_slot(shard, slot)
                self._redispatch_corrupt(shard, seq)
            elif kind == "reject":
                # the worker could not attach its slabs: requeue the
                # batch and stop offering this shard the shm path
                seq, slot = payload
                self._requeue_rejected(shard, seq, slot)
            elif kind == "error":
                seq, message, slot = payload
                self._release_slot(shard, slot)
                self._fail_seq(worker_id, seq, message)
            elif kind == "fatal":
                # the worker announced its own startup failure; the
                # health check will reap the process and respawn
                shard.broken = True

    def _finish_chunk(self, worker_id: int, payload: dict) -> None:
        seq = payload["seq"]
        finalize: Optional[_Request] = None
        with self._lock:
            shard = self._shards.get(worker_id)
            if shard is not None:
                task = shard.inflight.pop(seq, None)
                if task is not None:
                    shard.inflight_samples -= len(task.batch)
            entry = self._open_seqs.pop(seq, None)
            if entry is None:
                # late duplicate from a shard whose in-flight batches
                # were requeued after it was declared dead
                return
            # Record against the shard id even if the handle was already
            # reaped — lifetime accounting includes dead shards, and the
            # seq guard above keeps this exactly-once.
            worker_stats = self._shard_stats.get(worker_id)
            if worker_stats is not None:
                worker_stats.record(
                    payload["size"],
                    payload["seconds"],
                    stages=payload["stages"],
                )
            request, chunk_index = entry
            model_stats = self._model_stats.setdefault(
                request.key, ThroughputStats()
            )
            model_stats.record(
                payload["size"],
                payload["seconds"],
                stages=payload["stages"],
            )
            if self._slo_ms is not None:
                # this request's (model, class) controller learns from
                # every shard's engine-side latency, steering how
                # future same-class requests are chunked
                self._adaptive_for(request.key, request.cls).observe(
                    payload["size"], payload["seconds"]
                )
            request.chunks[chunk_index] = payload
            request.chunk_shards[chunk_index] = worker_id
            request.remaining -= 1
            if request.remaining == 0:
                finalize = request
                self._close_request_locked(request)
        if finalize is not None:
            self._finalize_request(finalize)

    def _finalize_request(self, request: _Request) -> None:
        wall = time.perf_counter() - request.submitted_at
        stats = ThroughputStats()
        for chunk in request.chunks:
            stats.record(
                chunk["size"], chunk["seconds"], stages=chunk["stages"]
            )
        request.future._set_result(
            ServiceResult(
                scores=np.concatenate(
                    [c["scores"] for c in request.chunks]
                ),
                predicted_classes=np.concatenate(
                    [c["predicted_classes"] for c in request.chunks]
                ),
                is_adversarial=np.concatenate(
                    [c["is_adversarial"] for c in request.chunks]
                ),
                similarities=np.concatenate(
                    [c["similarities"] for c in request.chunks]
                ),
                stats=stats,
                chunk_shards=list(request.chunk_shards),
                wall_seconds=wall,
            )
        )

    def _requeue_rejected(self, shard: _Shard, seq: int, slot) -> None:
        """A worker bounced a shm descriptor it cannot read (attach
        failed on its side): release the slot, pin the shard to the
        queue transport, and redispatch the batch — the parent still
        holds it."""
        with self._lock:
            shard.slab_failed = True
            task = shard.inflight.pop(seq, None)
            if task is not None:
                shard.inflight_samples -= len(task.batch)
                task.slot = None  # the slot dies with the slabs below
            # an unattached worker can never produce shm results, so
            # the slabs are dead weight: reclaim every slot its pending
            # shm batches hold (they will all be rejected and land
            # here) and unlink the segments now rather than at stop
            self._transport_counts["slots_reclaimed"] += (
                self._destroy_shard_slabs(shard)
            )
        if task is not None and not task.request.failed:
            self._enqueue_task(task)

    def _fail_seq(self, worker_id: int, seq: int, message: str) -> None:
        """A worker hit a deterministic per-batch error: requeueing
        would loop, so the whole request fails."""
        with self._lock:
            # the worker survives the error, so its load accounting
            # must be released like any completed batch
            shard = self._shards.get(worker_id)
            if shard is not None:
                task = shard.inflight.pop(seq, None)
                if task is not None:
                    shard.inflight_samples -= len(task.batch)
            entry = self._open_seqs.pop(seq, None)
            if entry is None:
                return
            request, _ = entry
            request.failed = True
            for other in request.seqs:
                self._open_seqs.pop(other, None)
            self._close_request_locked(request)
        request.future._set_error(
            ServiceError(f"worker failed processing batch: {message}")
        )

    def _redispatch_corrupt(self, shard: _Shard, seq: int) -> None:
        """A batch failed its crc32 integrity check (either direction):
        pull it back from the shard's in-flight set and re-enqueue it
        pinned to the pickle-queue transport, so the retry cannot hit
        the same corrupted-slab failure and the caller still gets the
        bit-identical result.  The caller has already released any
        slab slot."""
        with self._lock:
            self._fault_counts["corrupt_redispatches"] += 1
            task = shard.inflight.pop(seq, None)
            if task is not None:
                shard.inflight_samples -= len(task.batch)
                task.slot = None
                task.force_queue = True
        if task is not None and not task.request.failed:
            self._enqueue_task(task)

    def _check_health(self) -> None:
        orphans: List[_Task] = []
        redelivered: List[_Task] = []
        with self._lock:
            now = time.monotonic()
            for shard in self._shards.values():
                # Heartbeat watchdog: a worker that stops bumping its
                # counter for longer than hang_timeout is alive but
                # wedged (hung syscall, deadlocked import, injected
                # hang).  Mark it broken so the reap below treats it
                # exactly like a dead worker: terminate, reclaim slots,
                # requeue in-flight batches, respawn.
                if (
                    self.hang_timeout is not None
                    and not shard.stopping
                    and not shard.broken
                    and shard.ready.is_set()
                    and shard.heartbeat is not None
                    and shard.process.is_alive()
                ):
                    beat = shard.heartbeat.value
                    if beat != shard.last_beat:
                        shard.last_beat = beat
                        shard.last_beat_at = now
                    elif now - shard.last_beat_at > self.hang_timeout:
                        shard.broken = True
                        self._fault_counts["hung_reaps"] += 1
                # In-flight redelivery: a batch whose descriptor was
                # lost (dropped control message) never comes back on
                # its own; with a task_timeout it is redelivered to the
                # pool.  The original slot is NOT released — the worker
                # may still be reading it, and at-least-once delivery
                # is already safe (late duplicates are dropped by the
                # seq guard in _finish_chunk; the slot itself returns
                # via the worker's late result or a shard reap).
                if (
                    self.task_timeout is not None
                    and not shard.stopping
                    and not shard.broken
                ):
                    overdue = [
                        t
                        for t in shard.inflight.values()
                        if t.dispatched_at
                        and now - t.dispatched_at > self.task_timeout
                    ]
                    for task in overdue:
                        del shard.inflight[task.seq]
                        shard.inflight_samples -= len(task.batch)
                        task.slot = None
                        self._fault_counts["redelivered_tasks"] += 1
                        redelivered.append(task)
            dead = [
                s
                for s in self._shards.values()
                if not s.stopping
                and (s.broken or not s.process.is_alive())
            ]
            self._fault_counts["dead_reaps"] += len(dead)
            for shard in dead:
                if shard.process.is_alive():  # broken stream, live body
                    shard.process.terminate()
                    shard.process.join(timeout=5)
                # salvage results the shard delivered before dying (so
                # only genuinely lost batches get requeued), then drop
                # it from the pool
                self._drain_shard_results(shard)
                del self._shards[shard.shard_id]
                orphans.extend(shard.inflight.values())
                # reclaim the dead worker's slab slots *before* the
                # orphans requeue: their payloads redispatch through a
                # surviving shard's own slabs (or the queue), and the
                # dead slabs unlink so nothing leaks in /dev/shm
                self._transport_counts["slots_reclaimed"] += (
                    self._destroy_shard_slabs(shard)
                )
                for q in (shard.task_queue, shard.result_queue):
                    q.close()
                    q.cancel_join_thread()
                if self.restarts < self.max_restarts:
                    self.restarts += 1
                    self._spawn_shard()
            if dead:
                # the pool membership changed; stateful schedulers may
                # drop any per-shard cursor they keep
                self._scheduler.reset()
            if dead and not self._shards:
                self._abort(ServiceError(
                    "all workers died and the restart budget is exhausted"
                ))
                return
        for task in redelivered + orphans:
            if not task.request.failed:
                self._enqueue_task(task)


# -- measurement harness -----------------------------------------------------

def measure_worker_scaling(
    detector,
    model_factory: Callable,
    traffic: np.ndarray,
    worker_counts=(1, 2, 4),
    batch_size: int = 32,
    repeats: int = 2,
    threshold: float = 0.5,
    scheduler: Union[str, ShardScheduler] = "round-robin",
    state: Optional[dict] = None,
    transport: str = "shm",
    pin_workers: bool = False,
) -> dict:
    """Wall-clock samples/sec of the sharded service per pool size.

    The sharded twin of :func:`repro.runtime.measure_throughput`, and
    the one harness behind the CLI ``serve``/``throughput --workers``,
    ``benchmarks/bench_runtime_scaling.py``, and the CI perf gate's
    worker envelope.  Each pool size gets a warm-up pass plus
    ``repeats`` timed passes with the best pass reported; the first
    pass's scores are attached so callers can check bit-identical
    decisions across pool sizes (and against the single-process
    engine).  The detector state is serialised once and shared by every
    pool.
    """
    if state is None:
        state = detector_to_state(detector)
    results = {}
    for workers in worker_counts:
        with ShardedDetectionService(
            state=state,
            model_factory=model_factory,
            num_workers=workers,
            threshold=threshold,
            batch_size=batch_size,
            scheduler=scheduler,
            transport=transport,
            pin_workers=pin_workers,
        ) as service:
            service.run(traffic[: min(len(traffic), 2 * batch_size)])  # warm
            best = None
            scores = None
            rejection_rate = 0.0
            for _ in range(repeats):
                run = service.run(traffic)
                if scores is None:
                    scores = run.scores
                    rejection_rate = run.rejection_rate
                if best is None or run.samples_per_sec > best.samples_per_sec:
                    best = run
            report = {
                "workers": float(workers),
                "samples": float(best.num_samples),
                "wall_seconds": best.wall_seconds,
                "samples_per_sec": best.samples_per_sec,
                "mean_batch_latency_ms": best.stats.mean_batch_latency_ms,
                "p95_batch_latency_ms": (
                    best.stats.latency_percentile_ms(95.0)
                ),
                "engine_seconds": best.stats.total_seconds,
                "scores": scores,
                "rejection_rate": rejection_rate,
                "transport": service.transport,
                "kernel_backends": service.shard_backends(),
            }
        results[workers] = report
    return results
