"""Where a traced run spent its time, from the spans ``run.py --trace 1``
wrote.

Usage: python3 perfbench/split.py perfbench/out/spans-<workload>-<seed>.npz

For every span name it prints calls, inclusive time (spans nested in a span
of the same name are counted once) and the inclusive share of the whole
scenario run; then the shares of the layer groups the workloads were chosen
by.  Self times are among the per-layer metrics ``run.py`` prints.
"""

from __future__ import annotations

import sys

import numpy as np

ROOT = "scenario.run_scenario"
GROUPS = {
    "geodesic": ("geodesic.integrate_geodesic", "geodesic.linearized_flow"),
    "legendre_inverse": ("metric.legendre_inverse",),
    "distance": ("cutlocus.distance",),
}


def load(path):
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def _inside(spans, ids):
    """Per span: does it have an ancestor whose name is in ``ids``?"""
    parent = spans["parent"]
    has_parent = parent >= 0
    safe = np.where(has_parent, parent, 0)
    in_group = np.isin(spans["name"], ids)
    hit = has_parent & in_group[safe]
    while True:
        nxt = hit | (has_parent & hit[safe])
        if np.array_equal(nxt, hit):
            return hit
        hit = nxt


def inclusive_s(spans, names):
    """Time covered by spans named in ``names``, nested ones counted once."""
    ids = [i for i, n in enumerate(spans["names"]) if n in names]
    dur = spans["end"] - spans["start"]
    top = np.isin(spans["name"], ids) & ~_inside(spans, ids)
    return float(dur[top].sum())


def table(spans):
    names = list(spans["names"])
    total = inclusive_s(spans, [ROOT])
    rows = []
    for i, name in enumerate(names):
        incl = inclusive_s(spans, [name])
        rows.append((name, int((spans["name"] == i).sum()), incl,
                     incl / total))
    groups = {g: inclusive_s(spans, members) / total
              for g, members in GROUPS.items()}
    return sorted(rows, key=lambda r: -r[2]), groups, total


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    rows, groups, total = table(load(argv[0]))
    print(f"{'span':40s} {'calls':>9s} {'incl_s':>9s} share")
    for name, calls, incl, share in rows:
        print(f"{name:40s} {calls:9d} {incl:9.3f} {share:6.1%}")
    print(f"traced scenario_s {total:.3f}")
    for g, share in groups.items():
        print(f"group {g:20s} {share:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
