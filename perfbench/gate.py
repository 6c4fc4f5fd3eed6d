"""Correctness gate: every result of every pass against the reference.

The reference comes from :mod:`reference`, which shares no code with
ringlat.  Tolerances: 1e-10 t for energies and gaps, 1e-9 t for currents,
exact sector labels and flags, and each boundary u* or crossing omega*
within its bisection tolerance, with the same count.  A NaN row, a CLI
exit code other than 0 or a call that raises fails every result it
should have produced.
"""

from __future__ import annotations

import math

import numpy as np

import reference

ENERGY_TOL = 1e-10
CURRENT_TOL = 1e-9


def expected(workload: str, inputs: dict) -> dict:
    """Reference answers for the workload's inputs."""
    if workload in ("omega_sweep", "large_point"):
        model = reference.MomentumModel(
            inputs["n_sites"], ("fermion", inputs["n_up"], inputs["n_down"]))
        if workload == "omega_sweep":
            omegas = np.linspace(inputs["omega_min"], inputs["omega_max"],
                                 inputs["omega_points"])
        else:
            omegas = np.linspace(inputs["omegas"][0], inputs["omegas"][1], 2)
        return {"rows": [(float(w), model.ground(float(w), inputs["u"]))
                         for w in omegas]}
    b, c = inputs["boundary"], inputs["crossings"]
    fermions = reference.MomentumModel(b["n_sites"],
                                       ("fermion", b["n_up"], b["n_down"]))
    omega = b["omega_k_over_t"] / fermions.k_factor
    found = []
    for lo, hi, points in b["windows"]:
        us = [float(u) for u in np.linspace(lo, hi, points)]
        found.extend(reference.boundaries(fermions, omega, us))
    bosons = reference.MomentumModel(c["n_sites"], ("boson", c["n_bosons"]))
    omegas = [float(w) for w in np.linspace(c["omega_min"], c["omega_max"],
                                            c["omega_points"])]
    return {"boundaries": found,
            "crossings": reference.crossings(bosons, c["u"], omegas)}


def _row_problems(row: dict, omega: float, answer) -> list[str]:
    if row["failed"]:
        return ["row failed"]
    numbers = ("omega", "energy", "gap", "total_current",
               "per_particle_current")
    if any(math.isnan(row[key]) for key in numbers):
        return ["row has NaN"]
    problems = []
    if abs(row["omega"] - omega) > 1e-12 * max(1.0, abs(omega)):
        problems.append(f"omega {row['omega']!r} != {omega!r}")
    for key, ref, tol in (
            ("energy", answer.energy, ENERGY_TOL),
            ("gap", answer.gap, ENERGY_TOL),
            ("total_current", answer.total_current, CURRENT_TOL),
            ("per_particle_current", answer.per_particle_current, CURRENT_TOL)):
        if not abs(row[key] - ref) <= tol:
            problems.append(f"{key} {row[key]!r} vs {ref!r}")
    if tuple(row["sectors"]) != answer.sectors:
        problems.append(f"sectors {row['sectors']} vs {list(answer.sectors)}")
    for key in ("degenerate", "is_fast_current", "is_max_winding"):
        if row[key] != getattr(answer, key):
            problems.append(f"{key} {row[key]} vs {getattr(answer, key)}")
    return problems


def _check_rows(rows: list[dict], expect: list, label: str,
                failures: list[str]) -> int:
    for i in range(max(len(rows), len(expect))):
        if i >= len(rows) or i >= len(expect):
            failures.append(f"{label} row {i}: count {len(rows)} vs "
                            f"{len(expect)}")
            continue
        omega, answer = expect[i]
        problems = _row_problems(rows[i], omega, answer)
        if problems:
            failures.append(f"{label} row {i} (omega {omega:.6g}): "
                            + "; ".join(problems))
    return max(len(rows), len(expect))


def _check_roots(got: list, want: list, tol: float, label: str,
                 failures: list[str]) -> int:
    """Pairs sorted roots; a count mismatch fails every root."""
    attempted = max(len(got), len(want))
    if len(got) != len(want):
        failures.extend(f"{label}: found {len(got)}, reference {len(want)}"
                        for _ in range(attempted))
        return attempted
    for mine, ref in zip(sorted(got), sorted(want)):
        if isinstance(ref, tuple):
            if mine[1:] != list(ref[1:]) or not abs(mine[0] - ref[0]) <= tol:
                failures.append(f"{label} {mine} vs {list(ref)}")
        elif not abs(mine - ref) <= tol:
            failures.append(f"{label} {mine!r} vs {ref!r}")
    return attempted


def _expected_count(workload: str, expect: dict) -> int:
    if workload == "refine":
        return len(expect["boundaries"]) + len(expect["crossings"])
    return len(expect["rows"])


def check(workload: str, inputs: dict, expect: dict,
          passes: list[dict]) -> tuple[int, list[str]]:
    """Results attempted over all passes, and one message per failure."""
    attempted, failures = 0, []
    for n, done in enumerate(passes):
        label = f"pass {n}"
        results = done["results"]
        if done["error"] is not None:
            count = _expected_count(workload, expect)
            attempted += count
            failures.extend([f"{label}: {done['error']}"] * count)
            continue
        if workload == "refine":
            attempted += _check_roots(results["boundaries"],
                                      expect["boundaries"],
                                      inputs["boundary"]["tol"],
                                      f"{label} boundary", failures)
            attempted += _check_roots(results["crossings"],
                                      expect["crossings"],
                                      inputs["crossings"]["tol"],
                                      f"{label} crossing", failures)
            continue
        if results.get("exit_code", 0) != 0:
            count = len(expect["rows"])
            attempted += count
            failures.extend([f"{label}: CLI exit code "
                             f"{results['exit_code']}"] * count)
            continue
        attempted += _check_rows(results["rows"], expect["rows"], label,
                                 failures)
    return attempted, failures
