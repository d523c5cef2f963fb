"""Repo-specific static analysis (``repro analyze``).

AST rules with stable codes that machine-check the invariants the
serving stack's bit-identity guarantee rests on:

* ``RPR1xx`` concurrency — shm lifecycle, slab pairing, lock
  discipline, worker-global writes (:mod:`repro.analysis.concurrency`)
* ``RPR2xx`` dispatch — packed-word math outside ``repro.core`` in hot paths
  (:mod:`repro.analysis.dispatch`)
* ``RPR3xx`` API contracts — the one non-2xx error schema
  (:mod:`repro.analysis.api`)
* ``RPR4xx`` hygiene — silent exception handling in runtime code
  (:mod:`repro.analysis.hygiene`)

Stdlib-only by design: runs offline via ``scripts/analyze.py`` and as
the ``repro analyze`` CLI subcommand.  See ``--list-rules`` and the
README "Static analysis" section.
"""

from .base import Checker, FileContext, Finding, all_checkers, register
from .engine import analyze_paths, analyze_source, main, run_self_test

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "all_checkers",
    "analyze_paths",
    "analyze_source",
    "main",
    "register",
    "run_self_test",
]
