"""Run one benchmark workload against the ctgsvm sources in this checkout.

From the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 25 --trace 0

Workloads are grid, ensemble, select and serve (see README.md). The program
is imported from `src/` next to this directory, never from an installed
copy. Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json, with
`--trace 1` its per-layer metrics from a run with every layer wrapped.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

# One BLAS thread on every commit: with two, exp1 burns about 1.9 s of CPU
# per wall second without finishing sooner, and the runs spread more.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def add_program_path() -> None:
    if not (SRC / "ctgsvm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: the program sources are missing ({SRC / 'ctgsvm'})")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def blas_threads() -> int | None:
    """Threads of the OpenBLAS this process loaded, asked of the library."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the repository, read from .git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for ln in (git / "packed-refs").read_text().splitlines():
            if ln.endswith(" " + ref):
                return ln.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ctgsvm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("grid", "ensemble", "select", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    add_program_path()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    import ctgsvm
    import speed
    import tracer
    import workloads

    if Path(ctgsvm.__file__).resolve().parent != SRC / "ctgsvm":
        raise SystemExit(f"perfbench: imported ctgsvm from {ctgsvm.__file__}, not from {SRC}")

    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        res = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except workloads.InputMismatch as exc:
        raise SystemExit(f"perfbench: frozen input check failed: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = res.end_to_end(peak_rss_mb)
    if args.trace:
        metrics = tracer.layer_metrics(res.setup_trace, len(res.setup_times), res.work_trace, res.passes, res.cpu_s)
    else:
        metrics = e2e
    if set(metrics) != set(wanted):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(wanted))} disagree with BENCHMARK.json")

    print("env " + json.dumps(environment(args), sort_keys=True))
    print(
        f"{args.workload}: {res.passes} passes in {res.timed_s:.3f} s, {len(res.setup_times)} set-ups; "
        f"pass seconds by table {json.dumps(res.raw_pass_times)}"
    )
    tag = "traced, unscaled: " if args.trace else ""
    if not args.trace:
        print(
            "reference lower quartiles against nominal, ms: " + ", ".join(
                f"{name} {q * 1e3:.4f}/{speed.REFERENCES[name][1] * 1e3:.4f}" for name, q in res.ref_quantiles_s.items()
            ) + f"; interpreter share {workloads.WORKLOADS[args.workload].interpreter_share}; "
            f"scaled pass seconds by table {json.dumps(res.pass_times)}; "
            f"unscaled median set-up {statistics.median(res.raw_setup_times)!r} s"
        )
    for name, value in e2e.items():
        print(f"{tag}{name} = {value!r} {units[name]}")
    print(f"{tag}req percentiles over {len(res.op_latencies)} operations, {res.attempted} timed calls")
    print(f"fail_ratio = {res.failed}/{res.attempted} = {res.failed / res.attempted!r}")
    for problem in res.problems:
        print(f"check failed: {problem}")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
