"""Self-test of the benchmark itself, on tiny inputs.

    python3 perfbench/run.py --selftest

1. Every workload runs untraced and traced on tiny inputs; the untraced
   run must report exactly the ``end_to_end`` metrics of BENCHMARK.json,
   the traced run exactly its ``per_layer`` metrics, each with its unit,
   and both must pass the gate.
2. Each workload's report is then corrupted in one way at a time (an
   energy, a current, a sector, a flag, a NaN row, a CLI exit code, a
   raised call, a root moved or dropped) and every corruption must trip
   the gate, while a change far inside the tolerances must not.
3. A report whose only pass raised must still give a result line, with
   every result failed and no ``wall_s``.
"""

from __future__ import annotations

import copy
import json
import math

import gate
import run
import workloads


def _first_row(report):
    return report["passes"][0]["results"]["rows"][0]


def _set(key, value):
    def corrupt(report):
        _first_row(report)[key] = value
    return corrupt


def _shift(key, delta):
    def corrupt(report):
        _first_row(report)[key] += delta
    return corrupt


def _shift_root(kind, delta):
    def corrupt(report):
        roots = report["passes"][0]["results"][kind]
        if kind == "boundaries":
            roots[0][0] += delta
        else:
            roots[0] += delta
    return corrupt


def _drop_root(kind):
    def corrupt(report):
        report["passes"][0]["results"][kind].pop()
    return corrupt


def _flip(key):
    def corrupt(report):
        row = _first_row(report)
        row[key] = not row[key]
    return corrupt


def _sectors(report):
    row = _first_row(report)
    row["sectors"] = [q + 1 for q in row["sectors"]]


def _raised(report):
    report["passes"][0].update(wall_s=None, results=None,
                               error="ConvergenceError: test")


def _exit_code(report):
    report["passes"][0]["results"]["exit_code"] = 2


#: (workload, description, corruption, must the gate fail?)
CASES = [
    ("omega_sweep", "energy off by 2e-10", _shift("energy", 2e-10), True),
    ("omega_sweep", "energy off by 1e-13", _shift("energy", 1e-13), False),
    ("omega_sweep", "gap off by 2e-10", _shift("gap", 2e-10), True),
    ("omega_sweep", "sector label wrong", _sectors, True),
    ("omega_sweep", "NaN row", _set("energy", math.nan), True),
    ("omega_sweep", "failed row", _set("failed", True), True),
    ("omega_sweep", "CLI exit code 2", _exit_code, True),
    ("large_point", "current off by 2e-9", _shift("total_current", 2e-9), True),
    ("large_point", "current off by 1e-12", _shift("total_current", 1e-12),
     False),
    ("large_point", "degenerate flag flipped", _flip("degenerate"), True),
    ("large_point", "fast-current flag flipped", _flip("is_fast_current"),
     True),
    ("large_point", "call raised", _raised, True),
    ("refine", "boundary moved by 2 tol", _shift_root("boundaries", 0.04),
     True),
    ("refine", "boundary moved by tol/4", _shift_root("boundaries", 0.005),
     False),
    ("refine", "crossing moved by 2 tol", _shift_root("crossings", 2e-7), True),
    ("refine", "crossing dropped", _drop_root("crossings"), True),
]


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = {False: {(m["name"], m["unit"]) for m in spec["end_to_end"]},
              True: {(m["name"], m["unit"]) for m in spec["per_layer"]}}
    problems = []
    reports = {}
    for workload in workloads.WORKLOADS:
        for traced in (False, True):
            result, _, report = run.measure(workload, 1, 0.5, traced,
                                            tiny=True, samples=1)
            names = {(name, m["unit"]) for name, m in result["metrics"].items()}
            ok = names == wanted[traced] and result["correct"]
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace "
                  f"{int(traced)}: {len(names)} metrics, "
                  f"{result['attempted']} results, {result['failed']} failed")
            if names != wanted[traced]:
                problems.append(f"{workload} trace {int(traced)} metrics "
                                f"differ: missing {wanted[traced] - names}, "
                                f"extra {names - wanted[traced]}")
            if not result["correct"]:
                problems.append(f"{workload} trace {int(traced)} failed the "
                                f"gate on clean results")
            if not traced:
                reports[workload] = report

    expected = {w: gate.expected(w, r["inputs"]) for w, r in reports.items()}
    for workload, what, corrupt, must_fail in CASES:
        report = copy.deepcopy(reports[workload])
        corrupt(report)
        _, failures = gate.check(workload, report["inputs"],
                                 expected[workload], report["passes"])
        ok = bool(failures) == must_fail
        verdict = "caught" if failures else "passed"
        print(f"{'ok  ' if ok else 'FAIL'} {workload}: {what} -> {verdict}")
        if not ok:
            problems.append(f"{workload}: {what} was {verdict}")

    for workload, report in reports.items():
        report = copy.deepcopy(report)
        del report["passes"][1:]
        _raised(report)
        result, _ = run.summarize(workload, report, [0.5], traced=False)
        ok = (result["attempted"] > 0 and not result["correct"]
              and result["failed"] == result["attempted"]
              and "wall_s" not in result["metrics"])
        print(f"{'ok  ' if ok else 'FAIL'} {workload}: only pass raised -> "
              f"{result['failed']} of {result['attempted']} failed, "
              f"metrics {sorted(result['metrics'])}")
        if not ok:
            problems.append(f"{workload}: a run whose only pass raised gave "
                            f"{result}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0
