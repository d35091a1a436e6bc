"""Self-test of the benchmark's gates and output format.

    python3 perfbench/selftest.py

Run from the repository root.  Checks that
1. a chain_build result with one hopping scaled by (1 + 1e-6) counts as failed;
2. a cli_process op run with the wrong expected exit code counts as failed;
3. a smoke run (tiny inputs) of every workload, untraced and traced, passes
   and prints every metric named in BENCHMARK.json with its unit;
4. in a directory holding only BENCHMARK.json and the benchmark, run.py
   exits non-zero without printing a result.
Exits 0 when every check holds.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
import zetachain as zc  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _once(workload, op):
    """Run the workload's first input once through the benchmark loop with `op`."""
    single = SimpleNamespace(pool=workload.pool[:1], cycle=1, min_ops=1, op=op, check=workload.check)
    return run.run_ops(single, 0.0)


def corrupted_chain_fails(ctx):
    wl = workloads.ChainBuild(1, True, ctx)

    def corrupt(p):
        r = wl.op(p)
        j = r["tri"].offdiagonal.copy()
        j[int(np.argmax(j))] *= 1.0 + 1e-6
        r["tri"] = zc.SymmetricTridiagonal(r["tri"].diagonal, j)
        return r

    clean, bad = _once(wl, wl.op), _once(wl, corrupt)
    print(f"corrupted hopping: clean failed {clean.failed}/1, corrupted failed {bad.failed}/1: {bad.reasons}")
    return clean.failed == 0 and bad.failed == 1


def wrong_exit_code_fails(ctx):
    right = workloads.CliProcess(1, True, ctx, mix=(("verify", ("verify",), 0),))
    wrong = workloads.CliProcess(1, True, ctx, mix=(("verify", ("verify",), 3),))
    clean, bad = _once(right, right.op), _once(wrong, wrong.op)
    print(f"wrong exit code: clean failed {clean.failed}/1, mislabelled failed {bad.failed}/1: {bad.reasons}")
    return clean.failed == 0 and bad.failed == 1


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def smoke_runs_print_every_metric():
    ok = True
    for w in SPEC["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
            res = _result(proc.stdout)
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            values_ok = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                            for v in res["metrics"].values())
            good = (proc.returncode == 0 and set(res) == {"correct", "attempted", "failed", "metrics"}
                    and res["correct"] and res["failed"] == 0 and got == want and values_ok)
            print(f"smoke {w['name']} trace={trace}: {'ok' if good else 'BAD'} "
                  f"({res['attempted']} attempted, {len(got)} metrics)")
            if not good:
                print(proc.stderr[-1000:], sorted(set(want) ^ set(got)))
            ok &= good
    return ok


def bare_directory_fails(work_dir):
    bare = Path(work_dir) / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                             "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=bare, env=env)
    printed_result = any(line.startswith('{"correct"') for line in proc.stdout.splitlines())
    print(f"bare directory: exit {proc.returncode}, result printed: {printed_result}")
    return proc.returncode != 0 and not printed_result


def main():
    (HERE / "out").mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="selftest-", dir=HERE / "out")
    try:
        ctx = SimpleNamespace(src=str(ROOT / "src"), tmp_dir=work_dir, tracer=None, trace_child=None)
        checks = [
            corrupted_chain_fails(ctx),
            wrong_exit_code_fails(ctx),
            smoke_runs_print_every_metric(),
            bare_directory_fails(work_dir),
        ]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("selftest:", "PASS" if all(checks) else "FAIL")
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
