"""Benchmark of the mubench revocation service.

    python3 bench/run.py --workload dpus-direct --seed 1 --seconds 10 --trace 0

Runs one workload in this process against the library in ``src/`` of the same
checkout, checks the outputs, and prints a readable report followed, on the
last line, by one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run. Exit codes: 0
when every check passed, 1 when a check failed (the result is still printed),
2 when the run is refused (no library, or BLAS threads not pinned to one).
See bench/README.md for the workloads, the metrics and what they leave out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20_261_017  # for checking a claim on a seed it was not tuned on
# glibc malloc's mmap and trim thresholds start at 128 KiB and grow with the
# largest block the process frees, the mmap one up to 32 MiB and the trim one
# to twice that: the values a long-running process ends up with.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_THRESHOLDS = {M_MMAP_THRESHOLD: 32 << 20, M_TRIM_THRESHOLD: 64 << 20}


class Refused(Exception):
    """The run cannot produce a valid result in this environment."""


def pin_threads() -> int:
    """Pin BLAS to one thread, which only works before numpy is imported, and
    the process to one CPU, so that the scheduler cannot move it between CPUs
    whose speed differs. The highest-numbered allowed CPU is taken because
    CPU 0 usually carries more of the system's interrupt work."""
    if "numpy" in sys.modules:
        raise Refused("numpy was imported before the BLAS thread count could be pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def pin_allocator() -> bool:
    """Fix glibc malloc's thresholds at MALLOC_THRESHOLDS. Left to grow, they
    depend on what the process freed before, so whether a freed array goes
    back to the kernel, and the next one is faulted in again, changed from
    episode to episode (5 against 650 page faults per mia-audit restart).
    False where the C library has no mallopt or refuses the values."""
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    return all(mallopt(param, value) == 1 for param, value in MALLOC_THRESHOLDS.items())


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name} not found)"


def load_library():
    if not (SRC / "mubench" / "__init__.py").is_file():
        raise Refused(f"no mubench package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mubench

    if Path(mubench.__file__).resolve().parent != (SRC / "mubench").resolve():
        raise Refused(f"imported mubench from {mubench.__file__}, not from {SRC}")
    return mubench


def environment(threads: int | None, cpu: int, malloc_pinned: bool) -> dict:
    from mubench.report import environment_fingerprint

    return {
        "fingerprint": environment_fingerprint(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "malloc_thresholds_pinned": malloc_pinned,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": threads,
        "git_commit": git_commit(),
    }


def parse_args(argv: list[str]) -> tuple[argparse.ArgumentParser, argparse.Namespace]:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for "
        "checking a claimed gain on a seed it was not tuned on)",
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return parser, args


def main(argv: list[str]) -> int:
    parser, args = parse_args(argv)
    try:
        cpu = pin_threads()
        malloc_pinned = pin_allocator()
        load_library()
        threads = blas_threads()
        if threads not in (None, 1):
            raise Refused(f"BLAS reports {threads} threads, expected 1")
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    env = environment(threads, cpu, malloc_pinned)
    spec = workloads.WORKLOADS[args.workload]
    sizes = workloads.TINY if args.tiny else workloads.FULL
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        result = workloads.run(spec, sizes, args.seed, args.seconds, work_dir, tracer)
        if tracer is not None:
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work_dir)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    print("notes " + json.dumps(result.notes, sort_keys=True))
    for violation in result.violations:
        print(f"CHECK FAILED: {violation}")
    print(f"checks: {'all passed' if not result.violations else len(result.violations)} "
          f"({result.attempted} operations attempted, {result.failed} failed)")
    correct = not result.violations
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
