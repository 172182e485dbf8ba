"""One timed scenario run in a fresh interpreter.

Reads a scenario document on standard input and prints one JSON line:

* ``geometry_at``: ``CLOCK_MONOTONIC`` reading once ``import finslercut``,
  ``parse_scenario`` and ``build_geometry`` are done; the parent subtracts
  the time it started this process;
* unless ``--setup-only``: ``scenario_s`` (wall time of ``run_scenario`` with
  ``out_dir=None``), ``peak_rss_kib`` right after it, the summary document
  as the run rendered it, and the correctness check;
* with ``--spans PATH``: per-layer metrics from the tracer, whose spans are
  written to PATH.

Usage: python3 perfbench/sample.py [--setup-only] [--golden NAME]
                                   [--spans PATH] < scenario.json
"""

import argparse
import json
import resource
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--golden", help="builtin whose golden summary applies")
    ap.add_argument("--spans", help="trace the run and write spans here")
    args = ap.parse_args()
    text = sys.stdin.read()

    from finslercut import scenario
    sc = scenario.parse_scenario(text)
    scenario.build_geometry(sc)
    out = {"geometry_at": time.clock_gettime(time.CLOCK_MONOTONIC),
           "package": scenario.__file__}
    if args.setup_only:
        print(json.dumps(out))
        return

    tracer = None
    if args.spans:
        from pathlib import Path
        from tracer import Tracer
        tracer = Tracer(run_id=Path(args.spans).stem).install()
    t0 = time.perf_counter()
    if tracer is None:
        bundle = scenario.run_scenario(sc, out_dir=None)
    else:
        bundle = tracer.call("scenario.run_scenario", scenario.run_scenario,
                             sc, out_dir=None)
    out["scenario_s"] = time.perf_counter() - t0
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        tracer.write(args.spans)

    from checks import check_run
    summary = scenario.summary_document(bundle)
    diffs = (scenario.compare_to_golden(summary, args.golden)
             if args.golden else [])
    out["check"] = check_run(json.loads(text), sc.tasks, bundle.documents,
                             bundle.errors, bundle.violations, diffs)
    out["summary"] = bundle.files[f"{sc.name}_summary.json"]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
