"""Benchmark of the Ptolemy detection stack, from HTTP socket to NN layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine_fwab --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --seed 1          # all three, one process each

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``serve_fwab``  - HTTP front end over a 2-worker sharded service, FwAb.
* ``engine_fwab`` - in-process ``DetectionEngine``, FwAb, batch 64.
* ``engine_bwcu`` - in-process ``DetectionEngine``, BwCu, batch 64.

End-to-end metrics (``--trace 0``), the same names on every workload:

* ``setup_s``: process start to the first timed request - imports, then
  the median set-up (training, attack generation, profiling, forest fit,
  engine warm-up or service start + health).  The FwAb workloads set up
  twice and split every phase across the two set-ups; BwCu sets up once.
* ``sps``: samples/s - batch 64 on the engines, the 2-connection closed
  loop on ``serve_fwab``.
* ``p50_ms``/``p90_ms``: median and p90 latency of the same operations -
  one batch-64 ``process_batch`` on the engines, one 16-sample request on
  ``serve_fwab``; every phase's operation count is printed.
* ``peak_rss_mb``: peak RSS of the benchmark process through the first
  set-up and its phases (on ``serve_fwab`` the largest worker's is
  printed beside it).

``--trace 1`` is a separate run that records spans around every call
into a layer and reports per-layer self times and counts instead; layer
times are per batch at the workload's batch size (64 on the engines, 16
on ``serve_fwab``) unless the name ends in ``_b1``, where batch 1 (the
paper's per-inference deployment) is timed.  Spans are written
to ``perfbench/out/``.  Failed or refused operations count in
``failed`` and as missing any latency limit; a wrong score fails the run.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_fwab", "engine_fwab", "engine_bwcu")
#: Kept out of tuning; confirm a later claim on it as well.
HELD_OUT_SEED = 7919
#: Thread-count variables; expected unset, and never set by the benchmark,
#: so it measures the default users get.
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1, help="traffic seed")
    parser.add_argument(
        "--schedule-seed", type=int, default=None,
        help="arrival schedule seed of the traced open loop (default: --seed)",
    )
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.schedule_seed is None:
        args.schedule_seed = args.seed
    return args


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "REPRO_KERNEL_BACKEND": os.environ.get("REPRO_KERNEL_BACKEND"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
    }


def run_one(args: argparse.Namespace) -> int:
    traced = bool(args.trace)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]
    }
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sys.path.insert(0, str(ROOT / "src"))
    import engine_bench
    import serve_bench
    from tracing import NullTracer, Tracer

    import_s = time.perf_counter() - STARTED
    tracer = Tracer() if traced else NullTracer()
    print(
        f"# {args.workload} seed={args.seed} schedule_seed={args.schedule_seed} "
        f"held_out_seed={HELD_OUT_SEED} seconds={seconds:g} trace={args.trace}"
    )
    print("# env " + json.dumps(environment()))
    if args.workload == "serve_fwab":
        result = serve_bench.run_serve(
            args.seed, args.schedule_seed, seconds, tracer, traced, import_s
        )
    else:
        # (variant, share of the traced split at batch 64, set-ups): BwCu
        # batch-64 batches take ~2 s each, so they get the larger share;
        # one BwCu set-up already takes ~11 s, half a run, so it is not
        # repeated
        variant, heavy_share, reps = {
            "engine_fwab": ("FwAb", 0.5, 2),
            "engine_bwcu": ("BwCu", 0.65, 1),
        }[args.workload]
        result = engine_bench.run_engine(
            variant, heavy_share, reps, args.seed, seconds, tracer, traced,
            import_s,
        )
    if traced:
        self_times = tracer.self_times()
        for part in ("train", "attack", "profile_fit", "service_start"):
            values = sorted(self_times[f"setup.{part}"])
            result.put(f"setup.{part}_s", values[len(values) // 2], "s")
        out = HERE / "out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(out)
        print(f"# spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")

    print("# info " + json.dumps(result.info, default=str))
    for phase in result.phases:
        print("# phase " + json.dumps(phase))
    missing = sorted(set(declared) - set(result.metrics))
    extra = sorted(set(result.metrics) - set(declared))
    if missing or extra:
        result.errors.append(f"metrics missing {missing}, undeclared {extra}")
    for name, (value, unit) in result.metrics.items():
        if name in declared and unit != declared[name]:
            result.errors.append(f"{name}: unit {unit!r}, declared {declared[name]!r}")
    width = max(len(n) for n in result.metrics)
    for name, (value, unit) in sorted(result.metrics.items()):
        print(f"{name:<{width}}  {value:>14.6g} {unit}")
    for error in result.errors:
        print(f"CORRECTNESS FAILURE: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not result.errors,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 1 if result.errors else 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--schedule-seed", str(args.schedule_seed),
            "--trace", str(args.trace),
        ]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no repro package under {ROOT / 'src'}; run from a "
            "full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    finally:
        stop_children()


def stop_children() -> None:
    """End and reap every process the run started.

    The service joins its workers on ``stop``; anything still alive is
    terminated here.  The shared-memory transport also starts
    ``multiprocessing``'s resource tracker, which before Python 3.13 is
    left to exit on its own some time after this process: stop it and
    wait for it, once no worker holds its pipe any more."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
