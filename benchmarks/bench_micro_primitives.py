"""Micro-benchmarks of the detection primitives (real timed runs):
per-input path extraction for each variant, bitmask algebra on
class-path-sized vectors, compiled-program execution on the ISS, and
the batched packed-word kernels of the score path.

These are the operations the hardware accelerates; their software
timings motivate the co-design (Sec. III-B's 15.4x software overhead).
The kernel timing is also the measurement behind the CI perf gate's
``kernels`` section (``scripts/perf_gate.py``).

Run standalone for the nightly JSON artifact::

    python benchmarks/bench_micro_primitives.py --output kernels.json
"""

import os
import sys
import time
from pathlib import Path

# Standalone-script bootstrap (pytest runs go through conftest instead).
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro.compiler import MemoryMap, compile_bwcu
from repro.core import Bitmask, ExtractionConfig, PathExtractor
from repro.core.bitmask import (
    WORD_BITS,
    batch_containment,
    batch_popcount,
    pack_bool_matrix,
    segment_popcount,
)
from repro.eval import Workbench
from repro.isa import Machine, ModelAdapter

#: Kernel workload: 4096 rows x 512 words packs 16 MiB, far past any
#: cache, like a large served batch.
KERNEL_ROWS = 4096
KERNEL_BITS = 512 * 64


def test_micro_extract_bwcu(benchmark):
    wb = Workbench.get("alexnet_imagenet")
    extractor = PathExtractor(wb.model, wb.config_for("BwCu"))
    x = wb.dataset.x_test[:1]
    result = benchmark(lambda: extractor.extract(x))
    assert result.path.popcount() > 0


def test_micro_extract_fwab(benchmark):
    wb = Workbench.get("alexnet_imagenet")
    extractor = PathExtractor(wb.model, wb.config_for("FwAb"))
    x = wb.dataset.x_test[:1]
    result = benchmark(lambda: extractor.extract(x))
    assert result.predicted_class in range(wb.dataset.num_classes)


def test_micro_bitmask_similarity(benchmark):
    rng = np.random.default_rng(0)
    size = 1 << 16
    a = Bitmask.from_bool(rng.random(size) < 0.05)
    b = Bitmask.from_bool(rng.random(size) < 0.3)
    count = benchmark(lambda: a.intersection_count(b))
    assert 0 <= count <= a.popcount()


def test_micro_iss_bwcu_program(benchmark, trained_mlp=None):
    from repro.data import make_imagenet_like
    from repro.nn import TrainConfig, build_mlp, train_classifier

    ds = make_imagenet_like(num_classes=4, train_per_class=15,
                            test_per_class=4, seed=11)
    x_train = ds.x_train.reshape(len(ds.x_train), -1)
    model = build_mlp(in_features=x_train.shape[1], hidden=(20, 12),
                      num_classes=4, seed=2)
    for node in model.extraction_units():
        node.module.bias = None
    train_classifier(model, x_train, ds.y_train, TrainConfig(epochs=6, seed=2))
    config = ExtractionConfig.bwcu(3, theta=0.5)
    model.forward(x_train[:1])
    mem_map = MemoryMap(model, config)
    program = compile_bwcu(model, config, mem_map)
    x = ds.x_test[:1].reshape(1, -1)

    def run():
        machine = Machine(1 << 16, adapter=ModelAdapter(model, mem_map, x))
        machine.run(program)
        return machine

    machine = benchmark(run)
    assert machine.stats.total > 0


# -- packed-word kernels ----------------------------------------------------
def measure_kernels(
    n_rows: int = KERNEL_ROWS,
    bits: int = KERNEL_BITS,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Time the score path's batched kernels (best of ``repeats``),
    first checking each bit-identical to a reference computed on the
    unpacked boolean matrix.

    Returns a JSON-safe report with per-kernel ``seconds`` /
    ``rows_per_sec`` rows under ``backends.numpy``, the layout recorded
    baselines use.
    """
    rng = np.random.default_rng(seed)
    flags = rng.integers(0, 10, size=(n_rows, bits), dtype=np.uint8) < 3
    canary = rng.integers(0, 10, size=bits, dtype=np.uint8) < 3
    a = pack_bool_matrix(flags)
    b = pack_bool_matrix(canary[None])
    n_words = a.shape[1]
    step = max(1, n_words // 4)
    offsets = np.arange(0, n_words, step, dtype=np.intp)[:4]
    hits = flags & canary
    ones = flags.sum(axis=1)
    containment = np.zeros(n_rows)
    nz = ones > 0
    containment[nz] = hits.sum(axis=1)[nz] / ones[nz]
    bounds = list(offsets * WORD_BITS) + [bits]
    reference = {
        "containment": containment,
        "per_tap": np.stack(
            [hits[:, lo:hi].sum(axis=1)
             for lo, hi in zip(bounds[:-1], bounds[1:])],
            axis=1,
        ),
        "popcount": ones,
    }
    del flags, hits
    kernels = {
        "containment": lambda: batch_containment(a, b),
        "per_tap": lambda: segment_popcount(a & b, offsets),
        "popcount": lambda: batch_popcount(a),
    }
    row = {}
    for kernel_name, fn in kernels.items():
        out = fn()  # warm-up pass doubles as identity check
        if not np.array_equal(out, reference[kernel_name]):
            raise RuntimeError(
                f"{kernel_name} kernel differs from the boolean reference"
            )
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        row[kernel_name] = {
            "seconds": best,
            "rows_per_sec": n_rows / best if best > 0 else 0.0,
        }
    return {
        "n_rows": n_rows,
        "bits": bits,
        "n_words": int(n_words),
        "repeats": repeats,
        "cpu_count": os.cpu_count() or 1,
        "backends": {"numpy": row},
    }


def render_kernel_table(report: dict) -> str:
    from repro.eval import render_table

    row = report["backends"]["numpy"]
    return render_table(
        f"packed-word kernels: {report['n_rows']} rows x "
        f"{report['n_words']} words, best of {report['repeats']} "
        f"({report['cpu_count']} CPUs)",
        ["containment rows/s", "per-tap rows/s", "popcount rows/s"],
        [tuple(
            f"{row[name]['rows_per_sec'] / 1e6:.1f}M"
            for name in ("containment", "per_tap", "popcount")
        )],
    )


def test_micro_kernels(benchmark):
    """The score path's kernels, bit-identical and timed, at a size
    small enough for CI."""
    report = benchmark.pedantic(
        lambda: measure_kernels(n_rows=512, bits=64 * 64, repeats=1),
        rounds=1, iterations=1,
    )
    print()
    print(render_kernel_table(report))
    assert report["backends"]["numpy"]["containment"]["rows_per_sec"] > 0


def main(argv=None) -> int:
    """Standalone entry point for the nightly kernel artifact."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=KERNEL_ROWS)
    parser.add_argument("--bits", type=int, default=KERNEL_BITS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny matrices for CI smoke runs")
    parser.add_argument("--output", default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    from _smoke import cap_kernel_sizes, smoke_requested

    if smoke_requested(args.smoke):
        args.rows, args.bits = cap_kernel_sizes(args.rows, args.bits)
    report = measure_kernels(
        n_rows=args.rows, bits=args.bits, repeats=args.repeats
    )
    print(render_kernel_table(report))
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
