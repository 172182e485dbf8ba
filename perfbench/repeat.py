"""Repeat the benchmark over several seeds and report each metric's spread.

Usage:
    python3 perfbench/repeat.py [--workloads A,B] [--seeds 1-10]
                                [--trace 0|1] [--out FILE]

For each workload it runs ``run.py`` once per seed, one run at a time,
passes on what each run prints for a reader (every metric with its unit,
``rho_err_max`` and ``failed_frac``), and then prints every metric's median
and its spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, which
``BENCHMARK.json`` bounds per end-to-end metric.  With ``--out`` it also
writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - start
            lines = proc.stdout.splitlines()
            result = (json.loads(lines[-1])
                      if lines and lines[-1].startswith("{") else None)
            runs.append({"seed": seed, "exit": proc.returncode,
                         "wall_s": wall, "result": result})
            print(f"{workload} seed {seed}: exit {proc.returncode}, "
                  f"{wall:.1f} s", flush=True)
            for line in lines[:-1] if result else [proc.stderr]:
                print(f"  {line}", flush=True)
        ok = [r["result"] for r in runs if r["result"]]
        summary = {}
        for name in (ok[0]["metrics"] if ok else {}):
            values = [r["metrics"][name]["value"] for r in ok]
            if len(values) < 2 or any(v is None for v in values):
                continue
            med = statistics.median(values)
            summary[name] = {"median": med,
                             "spread": spread(values) if med else None,
                             "bound": bounds.get(name)}
            if name in bounds:
                print(f"  {name:24s} median {med:.6g}  spread "
                      f"{summary[name]['spread']:.4f}  bound {bounds[name]}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
