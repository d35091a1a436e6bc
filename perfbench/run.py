"""zetachain benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process runs one workload: a single
closed-loop client with no extra threads, BLAS at its default thread
count.  The seed fixes every input.  Only the calls into the package are
timed; each result is checked afterwards, outside the timed interval.
The loop runs whole cycles of the workload's input mix until at least S
seconds have passed, so every run of a seed times the same op mix.

--trace 0 prints the end-to-end metrics.  --trace 1 wraps the package's
public functions in spans, prints the per-layer metrics and writes the
spans to perfbench/out/.  The line before the result is a report with
the environment, sample counts and op_s_p90 where the run holds enough
ops for it.  The last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# fresh interpreters timed per run for setup_s (and cli.import_s when traced)
SETUP_REPEATS = 3


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _blas_threads(numpy):
    """Thread count of the OpenBLAS that numpy loaded, or None when unknown."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "zetachain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_ops(workload, seconds, tracer=None, readings=None):
    """Closed loop over whole cycles of the pool; returns per-op times and failures."""
    import tracing

    readings = readings if readings is not None else tracing.Readings()
    durations, reasons = [], []
    pool, cycle = workload.pool, workload.cycle
    begin = time.perf_counter()
    i = 0
    while i < workload.min_ops or i % cycle or time.perf_counter() - begin < seconds:
        item = pool[i % len(pool)]
        if tracer is not None:
            tracer.op_id = i
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = workload.op(item)
            reason = None
        except Exception:  # an op that raises counts as failed; the loop goes on
            reason = traceback.format_exc()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
        durations.append(t1 - t0)
        if reason is None:
            try:
                workload.check(item, result, t1 - t0, readings)
            except Exception as exc:  # any error in checking a result fails the op
                reason = f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracing.health(tracer.take_captures(), readings)
        if reason is not None:
            reasons.append(reason)
        i += 1
    return SimpleNamespace(durations=durations, failed=len(reasons), reasons=reasons, readings=readings)


def _probe_setup(args):
    """Seconds from spawning a fresh interpreter to the point where it would time its first op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"] + (["--smoke"] if args.smoke else [])
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["ready"] - t0


def _timed_import(env):
    """Wall seconds for a fresh interpreter to import the package."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import zetachain"], env=env, check=True, timeout=120)
    return time.perf_counter() - t0


def main(argv=None):
    args = _args(argv)
    if not (SRC / "zetachain" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    import zetachain

    if Path(zetachain.__file__).resolve().parent != SRC / "zetachain":
        print(f"perfbench: imported {zetachain.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    ctx = SimpleNamespace(src=str(SRC), tmp_dir=tmp_dir, tracer=tracer, trace_child=str(HERE / "trace_child.py"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, ctx)
        warm = SimpleNamespace(pool=[workload.warmup], cycle=1, min_ops=1, op=workload.op, check=workload.check)
        warm_run = run_ops(warm, 0.0)
        if args.setup_probe:
            print(json.dumps({"ready": time.time(), "failed": warm_run.failed}))
            return 0 if warm_run.failed == 0 else 1
        run = run_ops(workload, args.seconds, tracer)
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli_process" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    n = len(run.durations)
    failed = run.failed + warm_run.failed
    for reason in (warm_run.reasons + run.reasons)[:3]:
        print(f"perfbench: failed op: {reason}", file=sys.stderr)
    p50 = statistics.median(run.durations)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "ops": n,
        "op_s_p50": p50,
        "op_s_p90": statistics.quantiles(run.durations, n=10)[-1] if n >= 100 else None,
        "timed_s": sum(run.durations),
        "env": environment(args.seed),
    }
    if args.trace:
        for _ in range(SETUP_REPEATS):
            run.readings.sample("cli.import_s", _timed_import(workloads.package_env(str(SRC))))
        metrics = tracing.per_layer_metrics(tracer, run.readings, n)
        spans_path = out_dir / f"spans-{args.workload}.npz"
        tracer.save(spans_path)
        report["spans"] = {"path": str(spans_path.relative_to(ROOT)), "count": len(tracer.start)}
    else:
        setups = [_probe_setup(args) for _ in range(SETUP_REPEATS)]
        report["setup_s_samples"] = setups
        metrics = {
            "op_s_p50": {"value": p50, "unit": "s"},
            "ops_per_s": {"value": (n - run.failed) / sum(run.durations), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": n + 1, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
