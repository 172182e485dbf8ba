"""finslercut benchmark: one seeded scenario workload, timed end to end in
fresh interpreters, checked against exact cut times (and, at seed 0, the
builtin's golden summary).

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` beside this
directory.  With ``--trace 0`` the run repeats the scenario, each time in a
new process, while another run still fits in ``--seconds`` (at least once),
then adds set-up-only processes until at least three set-ups are timed; it
reports the medians of the end-to-end metrics.  With ``--trace 1`` it runs
the scenario once plain and once traced, checks that both give the same
summary, and reports the per-layer metrics of the traced run.  Spans are
written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same figures, and every check, for a reader.  The exit code is 0
when every check passed, 1 when one failed, and 2 when the run could not be
made at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SPAN_METRICS
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# one client, single-threaded: the sample processes get one BLAS thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

MIN_SETUPS = 3
CHILD_TIMEOUT_S = 170

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("scenario_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)
PER_LAYER = tuple(SPAN_METRICS) + (
    ("cutlocus.records_failed", "count", "lower"),
    ("check.rho_err_max", "1", "lower"),
    ("trace.scenario_s", "s", "lower"),
    ("trace.overhead_frac", "1", "lower"),
)


class BenchError(Exception):
    """The benchmark could not make a measurement."""


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_sample(text, *flags):
    """One scenario run in a fresh interpreter; returns its JSON result with
    ``setup_s`` and ``wall_s`` measured from just before the process
    started."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update((var, "1") for var in THREAD_VARS)
    start = _now()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "sample.py"), *flags],
                              input=text, capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sample timed out after {exc.timeout} s") from exc
    wall = _now() - start
    if proc.returncode != 0:
        raise BenchError(f"sample exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    package = Path(out["package"]).resolve()
    if SRC not in package.parents:
        raise BenchError(f"imported finslercut from {package}, not {SRC}")
    out["setup_s"] = out["geometry_at"] - start
    out["wall_s"] = wall
    return out


def timed_run(text, golden, seconds):
    deadline = _now() + seconds
    samples = []
    while True:
        samples.append(run_sample(text, *golden))
        if not samples[-1]["check"]["correct"]:
            break
        if _now() + samples[-1]["wall_s"] > deadline:
            break
    setups = [s["setup_s"] for s in samples]
    while True:
        got = run_sample(text, "--setup-only")
        setups.append(got["setup_s"])
        if len(setups) >= MIN_SETUPS and _now() + got["wall_s"] > deadline:
            break
    problems = [p for s in samples for p in s["check"]["problems"]]
    if len({s["summary"] for s in samples}) > 1:
        problems.append("summaries differ between identical runs")
    metrics = {
        "setup_s": statistics.median(setups),
        "scenario_s": statistics.median(s["scenario_s"] for s in samples),
        "peak_rss_mib": statistics.median(s["peak_rss_kib"]
                                          for s in samples) / 1024.0,
    }
    notes = [f"samples: {len(samples)} scenario runs, {len(setups)} set-ups"]
    notes += [f"  run {i}: scenario_s {s['scenario_s']:.4f}  setup_s "
              f"{s['setup_s']:.4f}  peak_rss_mib {s['peak_rss_kib'] / 1024:.1f}"
              for i, s in enumerate(samples)]
    return samples, metrics, problems, notes


def traced_run(text, golden, name, seed):
    plain = run_sample(text, *golden)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{name}-{seed}.npz"
    traced = run_sample(text, *golden, "--spans", str(spans))
    samples = [plain, traced]
    problems = [p for s in samples for p in s["check"]["problems"]]
    if traced["summary"] != plain["summary"]:
        problems.append("traced and untraced runs give different summaries")
    metrics = dict(traced["layers"])
    metrics["cutlocus.records_failed"] = traced["check"]["records_failed"]
    metrics["check.rho_err_max"] = traced["check"]["rho_err_max"]
    metrics["trace.scenario_s"] = traced["scenario_s"]
    metrics["trace.overhead_frac"] = (traced["scenario_s"]
                                      / plain["scenario_s"] - 1.0)
    notes = [f"untraced scenario_s {plain['scenario_s']:.4f}",
             f"spans written to {spans.relative_to(ROOT)}"]
    return samples, metrics, problems, notes


def _finite(x):
    return x if not isinstance(x, float) or math.isfinite(x) else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "finslercut" / "__init__.py").is_file():
        print(f"no program source at {SRC}/finslercut", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from finslercut.scenario import BUILTINS

    text = json.dumps(generate(args.workload, args.seed, BUILTINS))
    golden = ("--golden", args.workload) if args.seed == 0 else ()
    try:
        if args.trace:
            samples, values, problems, notes = traced_run(
                text, golden, args.workload, args.seed)
            spec = PER_LAYER
        else:
            samples, values, problems, notes = timed_run(text, golden,
                                                         args.seconds)
            spec = END_TO_END
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    checks = [s["check"] for s in samples]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in notes:
        print(line)
    for name, unit, _ in spec:
        print(f"{name:48s} {values[name]:.6g} {unit}")
    rho_err = max(c["rho_err_max"] for c in checks)
    print(f"{'rho_err_max':48s} {rho_err:.3g} 1")
    print(f"{'failed_frac':48s} {failed / attempted:.6g} 1  "
          f"({failed} of {attempted}; tasks failed: "
          f"{sorted({t for c in checks for t in c['tasks_failed']})})")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _finite(values[name]), "unit": unit}
                    for name, unit, _ in spec},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
