"""Self-test fixtures: one clean and one violating source per rule.

The sources live here as strings (not files on disk) so the seeded
violations never show up in real analyzer runs, pytest collection, or
ruff.  Each fixture carries the synthetic repo-relative path the
analyzer should pretend the source lives at — path-scoped rules
(RPR2xx/RPR3xx/RPR4xx) only fire when the path matches their scope.

``--self-test`` must accept every clean fixture (zero findings for the
fixture's rule) and reject every violating one (at least one finding
with exactly that code); ``tests/test_analysis.py`` walks the same
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class Fixture:
    rule: str
    kind: str  # "clean" | "violation"
    path: str  # synthetic repo-relative path the source pretends to be
    source: str


FIXTURES: List[Fixture] = [
    # -- RPR101: shm lifecycle -----------------------------------------
    Fixture(
        "RPR101", "violation", "src/repro/runtime/_fx_shm.py",
        '''\
from multiprocessing import shared_memory


def probe() -> bool:
    try:
        seg = shared_memory.SharedMemory(create=True, size=64)
        seg.close()
        seg.unlink()
        return True
    except Exception:
        return False
''',
    ),
    Fixture(
        "RPR101", "clean", "src/repro/runtime/_fx_shm.py",
        '''\
from multiprocessing import shared_memory


def probe() -> bool:
    try:
        seg = shared_memory.SharedMemory(create=True, size=64)
        try:
            seg.close()
        finally:
            seg.unlink()
        return True
    except OSError:
        return False


class Ring:
    def __init__(self, size: int):
        self._shm = shared_memory.SharedMemory(create=True, size=size)

    def destroy(self) -> None:
        self._shm.close()
        self._shm.unlink()
''',
    ),
    # -- RPR102: slab acquire/release pairing --------------------------
    Fixture(
        "RPR102", "violation", "src/repro/runtime/_fx_slab.py",
        '''\
def send(ring, batch):
    slot = ring.acquire()
    ring.write(slot, batch)
    return slot
''',
    ),
    Fixture(
        "RPR102", "clean", "src/repro/runtime/_fx_slab.py",
        '''\
def send(ring, batch):
    slot = ring.acquire()
    try:
        ring.write(slot, batch)
    finally:
        ring.release(slot)
''',
    ),
    # -- RPR103: lock discipline ---------------------------------------
    Fixture(
        "RPR103", "violation", "src/repro/runtime/_fx_lock.py",
        '''\
import threading

_lock = threading.Lock()


def bump(counters, key):
    _lock.acquire()
    counters[key] += 1
    _lock.release()
''',
    ),
    Fixture(
        "RPR103", "clean", "src/repro/runtime/_fx_lock.py",
        '''\
import threading

_lock = threading.Lock()


def bump(counters, key):
    with _lock:
        counters[key] += 1


def bump_legacy(counters, key):
    _lock.acquire()
    try:
        counters[key] += 1
    finally:
        _lock.release()
''',
    ),
    # -- RPR104: module globals written from worker entry points -------
    Fixture(
        "RPR104", "violation", "src/repro/runtime/_fx_worker.py",
        '''\
_BATCHES = 0


def _worker_loop(inbox, outbox):
    global _BATCHES
    for item in iter(inbox.get, None):
        _BATCHES += 1
        outbox.put(item)
''',
    ),
    Fixture(
        "RPR104", "clean", "src/repro/runtime/_fx_worker.py",
        '''\
def _worker_loop(inbox, outbox):
    batches = 0
    for item in iter(inbox.get, None):
        batches += 1
        outbox.put(item)
    return batches
''',
    ),
    # -- RPR201: raw packed-word math ----------------------------------
    Fixture(
        "RPR201", "violation", "src/repro/isa/_fx_kernel.py",
        '''\
import numpy as np


def tile_popcount(words):
    return np.bitwise_count(words).sum(axis=1)
''',
    ),
    Fixture(
        "RPR201", "clean", "src/repro/isa/_fx_kernel.py",
        '''\
def tile_popcount(batch):
    return batch.popcounts()
''',
    ),
    # -- RPR202: reference-kernel import -------------------------------
    Fixture(
        "RPR202", "violation", "src/repro/suite/_fx_score.py",
        '''\
from repro.core.bitmask import batch_and_popcount


def overlap(a, b):
    return batch_and_popcount(a, b)
''',
    ),
    Fixture(
        "RPR202", "clean", "src/repro/suite/_fx_score.py",
        '''\
from repro.core.path import batch_path_similarity


def overlap(batch, canary_words):
    return batch_path_similarity(batch, canary_words)
''',
    ),
    # -- RPR301: non-2xx outside send_error_json -----------------------
    Fixture(
        "RPR301", "violation", "src/repro/runtime/_fx_http.py",
        '''\
from http.server import BaseHTTPRequestHandler


class Handler(BaseHTTPRequestHandler):
    def _send_json(self, code, payload):
        self.send_response(code)
        self.end_headers()

    def do_GET(self):
        self._send_json(404, {"oops": "hand-rolled error"})
''',
    ),
    Fixture(
        "RPR301", "clean", "src/repro/runtime/_fx_http.py",
        '''\
from http.server import BaseHTTPRequestHandler


class Handler(BaseHTTPRequestHandler):
    def _send_json(self, code, payload):
        self.send_response(code)
        self.end_headers()

    def do_GET(self):
        if self.path == "/healthz":
            payload, code = self.server.front.health()
            self._send_json(code, payload)  # variable status: exempt
        else:
            self.server.front.send_error_json(
                self, 404, "not_found", "no such path"
            )
''',
    ),
    # -- RPR302: undocumented error-code slug --------------------------
    Fixture(
        "RPR302", "violation", "src/repro/runtime/_fx_codes.py",
        '''\
import http.server  # binds the error-schema rules to this module


def reject(front, handler):
    front.send_error_json(handler, 429, "chill_out", "too fast")
''',
    ),
    Fixture(
        "RPR302", "clean", "src/repro/runtime/_fx_codes.py",
        '''\
import http.server  # binds the error-schema rules to this module


def reject(front, handler):
    front.send_error_json(
        handler, 429, "backpressure", "too fast", retry_after=0.1
    )
''',
    ),
    # -- RPR401: bare except -------------------------------------------
    Fixture(
        "RPR401", "violation", "src/repro/runtime/_fx_bare.py",
        '''\
def reap(worker):
    try:
        worker.join(timeout=1.0)
    except:
        worker.kill()
''',
    ),
    Fixture(
        "RPR401", "clean", "src/repro/runtime/_fx_bare.py",
        '''\
def reap(worker):
    try:
        worker.join(timeout=1.0)
    except (OSError, ValueError):
        worker.kill()
''',
    ),
    # -- RPR402: swallowed BaseException -------------------------------
    Fixture(
        "RPR402", "violation", "src/repro/runtime/_fx_base.py",
        '''\
def drain(queue):
    try:
        while True:
            queue.get_nowait()
    except BaseException:
        return
''',
    ),
    Fixture(
        "RPR402", "clean", "src/repro/runtime/_fx_base.py",
        '''\
def drain(queue, log):
    try:
        while True:
            queue.get_nowait()
    except BaseException as exc:
        log.warning("drain interrupted: %s", exc)
        raise
''',
    ),
    # -- RPR403: except Exception: pass --------------------------------
    Fixture(
        "RPR403", "violation", "src/repro/runtime/_fx_silent.py",
        '''\
def release_quietly(slabs, slot):
    try:
        slabs.release(slot)
    except Exception:
        pass
''',
    ),
    Fixture(
        "RPR403", "clean", "src/repro/runtime/_fx_silent.py",
        '''\
from repro.runtime.transport import TransportError


def release_quietly(slabs, slot):
    try:
        slabs.release(slot)
    except TransportError:
        pass  # ring already torn down by a racing reap
''',
    ),
    # -- RPR001: parse failure -----------------------------------------
    Fixture(
        "RPR001", "violation", "src/repro/runtime/_fx_syntax.py",
        '''\
def broken(:
    return
''',
    ),
    Fixture(
        "RPR001", "clean", "src/repro/runtime/_fx_syntax.py",
        '''\
def fine():
    return None
''',
    ),
]


def seeded_violations() -> List[Fixture]:
    return [f for f in FIXTURES if f.kind == "violation"]


def clean_fixtures() -> List[Fixture]:
    return [f for f in FIXTURES if f.kind == "clean"]
