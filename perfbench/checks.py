"""Correctness gate on the outputs of one scenario run.

An operation is one cut record or one task.

* A record fails if its cut time is not finite (a record whose ray raised
  carries rho = nan) or misses the exact cut time by more than the
  acceptance-test tolerance.
* A task fails if the run recorded an error for it, if its document shows a
  structural-check violation, or, at seed 0, if its golden entry differs.

The run is correct when no record fails, no task raised, and at seed 0 the
summary matches the golden.  Violations of structural checks are counted as
failed operations but do not make the run incorrect: they are the program's
own verdicts on the geometry, and at least one known defect produces them.
"""

from __future__ import annotations

import math

from workloads import RHO_TOL, exact_rho


def _max(*values):
    return max(float(v) for v in values)


# task -> predicate on its document: does it show a violation?  These are
# the acceptance thresholds the scenario runner applies when it sets
# ``violations``; ``check_run`` cross-checks them against that flag.
VIOLATION = {
    "validate": lambda d: not d["passed"],
    "classify": lambda d: bool(d["violations"]),
    "retracts": lambda d: _max(
        d["retract_to_N_s0_max"], d["retract_to_N_s1_max"],
        d["retract_to_cut_s0_max"], d["retract_to_cut_s1_max"],
        d["cut_point_fixed_residual"]) > 1e-5,
    "dfcheck": lambda d: float(d["max_deviation"]) > 1e-4,
    "loops": lambda d: d["branch"] == "loop" and (
        float(d["smoothness_residual"]) > 1e-4
        or float(d["midpoint_gap"]) > 1e-5),
    "theorems": lambda d: any(not r["passed"] for r in d),
}


def record_errors(doc, records):
    """|rho - rho_exact| per record document; inf where rho is not finite."""
    tol = RHO_TOL[doc["manifold"]["type"]]
    errs = []
    for rec in records:
        rho = rec["rho"]
        if isinstance(rho, str) or not math.isfinite(rho):
            errs.append(math.inf)
            continue
        v = [c / rho for c in rec["tangent_cut"]]
        errs.append(abs(rho - exact_rho(doc, v)))
    return errs, tol


def check_run(doc, tasks, documents, errors, violations, golden_diffs):
    """Check one run of the scenario ``doc``, whose parsed task list is
    ``tasks``.

    ``documents``, ``errors`` and ``violations`` are the fields of the
    returned ``OutputBundle``; ``golden_diffs`` lists the golden comparison's
    differences, empty when no golden applies.
    """
    records = documents.get("cutlocus", {}).get("records", [])
    errs, tol = record_errors(doc, records)
    finite = [e for e in errs if math.isfinite(e)]
    records_failed = sum(e > tol for e in errs)

    raised = {e["task"] for e in errors}
    flagged = {task for task, d in documents.items()
               if task in VIOLATION and VIOLATION[task](d)}
    # a difference at /tasks/<task>/... fails that task
    golden_tasks = {diff.split("/")[2].split(":")[0] for diff in golden_diffs
                    if diff.startswith("/tasks/")}
    tasks_failed = sorted((raised | flagged | golden_tasks) & set(tasks))

    problems = []
    if records_failed:
        problems.append(f"{records_failed} of {len(records)} cut times miss "
                        f"the exact value by more than {tol:g}")
    if raised:
        problems.append(f"tasks raised: {sorted(raised)}")
    if golden_diffs:
        problems.append(f"{len(golden_diffs)} golden differences, first: "
                        f"{golden_diffs[0]}")
    if bool(flagged) != bool(violations):
        problems.append(f"violation flags {sorted(flagged)} disagree with "
                        f"the run's violations={violations}")
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": len(records) + len(tasks),
        "failed": records_failed + len(tasks_failed),
        "records_failed": records_failed,
        "tasks_failed": tasks_failed,
        "rho_err_max": max(finite, default=math.inf),
    }
