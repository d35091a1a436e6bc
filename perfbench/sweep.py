"""Repeat benchmark runs over seeds and summarise their spread.

    python3 perfbench/sweep.py --workloads zeta_scan,cli_process --seeds 1-10 \
        [--trace 0,1] [--seconds S] [--save FILE]

Run from the repository root.  Runs run.py once per workload, seed and
trace mode, one at a time.  For every end-to-end metric it prints the
median over seeds and the quartile spread (Q3 - Q1) / median, with Q1 and
Q3 from statistics.quantiles(values, n=4), also as a share of the
metric's bound in BENCHMARK.json.  With both trace modes each seed runs
untraced, then traced, and it prints the tracing overhead: the median
over seeds of traced minus untraced op_s_p50.  --save writes every run's
report and result as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", default="0")
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--save")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    runs = []
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            for trace in (int(t) for t in args.trace.split(",")):
                cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(args.seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
                runs.append({"workload": workload, "seed": seed, "trace": trace, "report": report, "result": result})
                print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} op_s_p50={report['op_s_p50']:.6g}",
                      flush=True)
    for workload in args.workloads.split(","):
        untraced = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        traced = [r for r in runs if r["workload"] == workload and r["trace"] == 1]
        for name, bound in bounds.items() if untraced else ():
            values = [r["result"]["metrics"][name]["value"] for r in untraced]
            s = spread(values) if len(values) > 1 else float("nan")
            print(f"{workload:15s} {name:12s} median {statistics.median(values):.6g}  "
                  f"spread {s:.4f}  ({s / bound:.2f} of bound {bound})")
        if untraced and traced:
            u_p50 = {r["seed"]: r["report"]["op_s_p50"] for r in untraced}
            diffs = [r["report"]["op_s_p50"] - u_p50[r["seed"]] for r in traced if r["seed"] in u_p50]
            base = statistics.median(u_p50.values())
            overhead = statistics.median(diffs)
            print(f"{workload:15s} tracing overhead {overhead:+.6g} s per op, median of {len(diffs)} "
                  f"back-to-back pairs ({overhead / base:+.1%} of untraced op_s_p50 {base:.6g} s)")
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
