"""Dispatch rules (RPR2xx): packed-word math has one owner.

The packed-word kernels live in ``repro.core`` (``core.bitmask``),
and the runtime, ISA and suite layers reach them only through
``repro.core.path`` and the detector.  A raw ``np.bitwise_count`` (or
a direct import of a ``core.bitmask`` batch primitive) in one of those
layers is a second copy of the detection math: it can drift from the
word layout and tie-breaking the bit-identity tests pin, and a change
to the kernels no longer lands everywhere at once.  ``repro/core/``
itself is exempt: it is the owner.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .base import Checker, FileContext, Finding, dotted_name, register

#: Path fragments of the hot serving/validation layers the rule guards.
HOT_PATHS = ("repro/runtime/", "repro/isa/", "repro/suite/")

#: Raw numpy entry points that duplicate ``repro.core``'s packed-word
#: math when applied to uint64 words.
_NUMPY_BYPASS = {
    "bitwise_count",
    "bitwise_and",
    "bitwise_or",
    "bitwise_xor",
    "packbits",
    "unpackbits",
}

#: The batch primitives of ``core.bitmask``; outside ``repro.core``
#: they are reached through ``core.path`` and the detector.
_HOT_PRIMITIVES = {
    "batch_or",
    "batch_popcount",
    "batch_and_popcount",
    "batch_containment",
    "batch_jaccard",
    "segment_popcount",
    "popcount_words",
}


def _in_hot_path(path: str) -> bool:
    return any(frag in path for frag in HOT_PATHS)


@register
class BackendBypassChecker(Checker):
    """RPR201: no raw numpy popcount/bitwise calls in hot paths."""

    code = "RPR201"
    name = "backend-bypass"
    summary = (
        "hot paths must leave packed-word math to repro.core, not "
        "make raw numpy bitwise/popcount calls"
    )
    paths_note = "repro/{runtime,isa,suite}/"

    def applies(self, path: str) -> bool:
        return _in_hot_path(path)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if "." not in name:
                continue
            head, _, leaf = name.rpartition(".")
            if leaf in _NUMPY_BYPASS and head in ("np", "numpy"):
                yield self.finding(
                    ctx,
                    node,
                    f"direct {name}() duplicates repro.core's "
                    "packed-word math; go through repro.core.path or "
                    "the detector so the kernels keep one owner",
                )


@register
class ReferenceImportChecker(Checker):
    """RPR202: no direct reference-kernel imports in hot paths."""

    code = "RPR202"
    name = "reference-import"
    summary = (
        "hot paths must not import the batch primitives straight from "
        "repro.core.bitmask; reach them via repro.core.path"
    )
    paths_note = "repro/{runtime,isa,suite}/"

    def applies(self, path: str) -> bool:
        return _in_hot_path(path)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if not module.endswith("core.bitmask"):
                    continue
                hot = [
                    alias.name for alias in node.names
                    if alias.name in _HOT_PRIMITIVES
                ]
                if hot:
                    yield self.finding(
                        ctx,
                        node,
                        f"imports {', '.join(hot)} straight from "
                        "repro.core.bitmask; use the repro.core.path "
                        "functions or the detector instead",
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                head, _, leaf = name.rpartition(".")
                if leaf in _HOT_PRIMITIVES and head.endswith("bitmask"):
                    yield self.finding(
                        ctx,
                        node,
                        f"direct {name}() call reaches past "
                        "repro.core.path; use its functions or the "
                        "detector instead",
                    )
