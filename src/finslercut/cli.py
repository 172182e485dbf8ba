"""Command line front end: run scenarios, list builtins, validate scenario
files, and manage golden summaries.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 structural-check violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .errors import FinslerError, ScenarioError
from .scenario import (builtin_scenario, compare_to_golden,
                       list_builtin_scenarios, parse_scenario, run_scenario,
                       summary_document, write_golden)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VIOLATION = 3


def _load_scenario(name_or_path):
    path = Path(name_or_path)
    if path.suffix == ".json" or path.exists():
        try:
            return parse_scenario(path.read_text())
        except OSError as exc:
            raise ScenarioError(f"cannot read {name_or_path}: {exc}")
    return builtin_scenario(name_or_path)


def _overridden(sc, args):
    """A copy of the scenario ``sc`` with the ``--seed`` and ``--refine``
    values given on the command line, checked by the schema as if the
    scenario file held them; ``sc`` itself is not modified."""
    if args.seed is None and args.refine is None:
        return sc
    doc = dataclasses.asdict(sc)
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.refine is not None:
        doc["grids"]["refine_levels"] = args.refine
    return parse_scenario(doc)


def _cmd_run(args):
    sc = _overridden(_load_scenario(args.scenario), args)
    out_dir = args.out_dir or sc.output["directory"]
    bundle = run_scenario(sc, out_dir=out_dir)
    for task in bundle.documents:
        status = "VIOLATION" if task in bundle.violations else "ok"
        print(f"[{sc.name}] {task}: {status}")
    for err in bundle.errors:
        print(f"[{sc.name}] {err['task']}: ERROR {err['error']}",
              file=sys.stderr)
    print(f"[{sc.name}] wrote {len(bundle.files) + 1} files to {out_dir} "
          f"({bundle.wall_time:.1f}s)")
    if bundle.violations:
        return EXIT_VIOLATION
    if bundle.errors:
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_list(args):
    for name, desc in list_builtin_scenarios():
        print(f"{name:22s} {desc}")
    return EXIT_OK


def _cmd_validate(args):
    try:
        sc = parse_scenario(Path(args.file).read_text())
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{args.file}: valid scenario {sc.name!r} "
          f"(tasks: {', '.join(sc.tasks)})")
    return EXIT_OK


def _golden_one(sc, args):
    """Run one scenario against its golden summary (or record it); returns
    the exit code and the lines to print, the first one a summary."""
    sc = _overridden(sc, args)
    bundle = run_scenario(sc)
    if bundle.errors:
        return EXIT_NUMERICAL, [f"{sc.name}: {err['task']}: {err['error']}"
                                for err in bundle.errors]
    summary = summary_document(bundle)
    if args.write:
        write_golden(summary, sc.name)
        return EXIT_OK, [f"wrote golden summary for {sc.name}"]
    diffs = compare_to_golden(summary, sc.name)
    wall = f"({bundle.wall_time:.1f} s)"
    if diffs:
        return EXIT_VIOLATION, (
            [f"{sc.name}: {len(diffs)} difference(s) from golden {wall}, "
             f"first: {diffs[0]}"] + [f"  {d}" for d in diffs[1:20]])
    return EXIT_OK, [f"{sc.name}: matches golden summary {wall}"]


def _cmd_golden(args):
    if args.all == (args.scenario is not None):
        raise ScenarioError("golden needs one scenario or --all")
    if args.all and args.write:
        raise ScenarioError("golden --write takes one scenario, not --all")
    if not args.all:
        code, lines = _golden_one(_load_scenario(args.scenario), args)
        out = sys.stderr if code == EXIT_NUMERICAL else sys.stdout
        print("\n".join(lines), file=out)
        return code
    # one line per builtin; a difference (3) outranks a failure (2)
    codes = []
    for name, _ in list_builtin_scenarios():
        code, lines = _golden_one(builtin_scenario(name), args)
        codes.append(code)
        print(lines[0], flush=True)
    return max(codes)


def build_parser():
    p = argparse.ArgumentParser(
        prog="finslercut",
        description="Cut loci of submanifolds in Finsler manifolds")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    common.add_argument("--refine", type=int, default=None,
                        help="override the grid refinement level count")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", parents=[common],
                        help="run a builtin or scenario file")
    pr.add_argument("scenario", help="builtin name or path to a JSON file")
    pr.add_argument("--out-dir", default=None, help="output directory")
    pr.set_defaults(fn=_cmd_run)

    pl = sub.add_parser("list", help="list builtin scenarios")
    pl.set_defaults(fn=_cmd_list)

    pv = sub.add_parser("validate", help="validate a scenario file")
    pv.add_argument("file")
    pv.set_defaults(fn=_cmd_validate)

    pg = sub.add_parser("golden", parents=[common],
                        help="compare a run against its golden summary")
    pg.add_argument("scenario", nargs="?")
    pg.add_argument("--all", action="store_true",
                    help="compare every builtin; exit 3 if any differs")
    pg.add_argument("--write", action="store_true",
                    help="record the current run as the golden summary")
    pg.set_defaults(fn=_cmd_golden)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FinslerError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
