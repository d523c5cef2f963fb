"""In-memory spans recorded around calls into the detection stack.

A span has a name, a start and end (``time.perf_counter`` seconds), the
id of the span that was open around it on the same thread, and a
request id shared by every span of one request or batch.  Spans stay in
memory while the benchmark runs and are written out once at the end.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Collects spans from any thread; each thread nests its own spans."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent["request_id"]
        record = {
            "id": next(self._ids),
            "parent": parent["id"] if parent is not None else None,
            "name": name,
            "request_id": request_id,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def self_times(self) -> Dict[str, List[float]]:
        """Seconds of each span not covered by its child spans, listed
        per span name in the order the spans closed."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out: Dict[str, List[float]] = defaultdict(list)
        for span in self.spans:
            duration = span["end"] - span["start"]
            out[span["name"]].append(duration - covered[span["id"]])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        ordered = sorted(self.spans, key=lambda s: s["id"])
        path.write_text("".join(json.dumps(s) + "\n" for s in ordered))


class NullTracer:
    """Stand-in for untraced runs: spans cost one no-op context."""

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None) -> Iterator[None]:
        yield
