"""The three benchmark workloads: seeded inputs and the timed calls.

Every workload is a closed loop of grid points: each call returns before
the next starts, and one pass runs the workload's calls once.

* ``omega_sweep``: the command line ``ringlat sweep``, run in-process with
  its defaults (including the ``workers = cpu_count()`` thread pool), for
  2+2 fermions on 8 sites over 41 drive points.  Many independent points
  on one small basis: the dense solve and the per-point rebuild of H and
  J dominate, enumeration is negligible.
* ``refine``: ``fast_mode_boundary`` for 2+2 fermions on 8 sites over two
  interaction windows, then ``find_crossings`` for 4 bosons on 8 sites.
  Every bisection step waits on the previous one, so the number of
  evaluations and the latency of one evaluation set the time; the
  crossing search labels sectors at every step and never builds J.
* ``large_point``: ``run`` on 3+3 fermions on 10 sites (dimension 14 400)
  at two drives.  The dimension is above the dense threshold, so this is
  the Krylov path, with the largest enumeration, build loops and memory.

The seed moves the inputs within each family (grid endpoints, u, drive)
but keeps the grid sizes and bracket widths, so every seed makes the
same calls (the Lanczos step count of ``large_point`` follows u and the
drive).  ``tiny`` inputs exercise the same calls in well under a second;
every run warms up on them, and the self-test uses them.

Only the standard library is imported at module level: the set-up probe
times ``make_inputs`` and ``prepare`` in a fresh interpreter.
"""

from __future__ import annotations

import csv
import json
import os
import random
import time
from pathlib import Path

WORKLOADS = ("omega_sweep", "refine", "large_point")


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """Plain-data inputs of one workload, a pure function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "omega_sweep":
        if tiny:
            return {"n_sites": 4, "n_up": 1, "n_down": 1,
                    "u": 4.0 + rng.uniform(-0.5, 0.5), "omega_min": 0.0,
                    "omega_max": 12.0 + rng.uniform(-1.0, 1.0),
                    "omega_points": 5}
        return {"n_sites": 8, "n_up": 2, "n_down": 2,
                "u": 4.0 + rng.uniform(-0.5, 0.5), "omega_min": 0.0,
                "omega_max": 40.0 + rng.uniform(-2.0, 2.0),
                "omega_points": 41}
    if workload == "refine":
        # The windows are shifted, never resized, so every bracket takes
        # the same number of bisection steps; the shifts keep the
        # boundaries (near u = -18.6 and u = +53..56) inside them.
        if tiny:
            n_sites, counts, drive = 6, (1, 1), 10.0
            windows = [(-14.0, -10.0, 3), (16.0, 21.0, 2)]
            bosons, omega_max = (4, 2), 12.0
        else:
            n_sites, counts = 8, (2, 2)
            drive = 10.0 + rng.uniform(-0.2, 0.2)
            windows = [(-23.0, -15.0, 3), (50.0, 60.0, 2)]
            bosons, omega_max = (8, 4), 8.0
        shifts = [rng.uniform(-1.0, 1.0) for _ in windows]
        return {
            "boundary": {
                "n_sites": n_sites, "n_up": counts[0], "n_down": counts[1],
                "omega_k_over_t": drive,
                "windows": [[lo + s, hi + s, points]
                            for (lo, hi, points), s in zip(windows, shifts)],
                "tol": 0.02,
            },
            "crossings": {
                "n_sites": bosons[0], "n_bosons": bosons[1],
                "u": 1.0 + rng.uniform(-0.1, 0.1), "omega_min": 0.0,
                "omega_max": omega_max + rng.uniform(-0.2, 0.2),
                "omega_points": 13 if tiny else 41, "tol": 1e-7,
            },
        }
    if workload == "large_point":
        omega = 3.0 + rng.uniform(-0.1, 0.1)
        inputs = {"n_sites": 10, "n_up": 3, "n_down": 3,
                  "u": 4.0 + rng.uniform(-0.25, 0.25),
                  "omegas": [omega, omega + 0.5], "dense_threshold": None}
        if tiny:
            # Small enough to be instant, still forced onto the Krylov path.
            inputs.update(n_sites=5, n_up=2, n_down=1, dense_threshold=20)
        return inputs
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose one of {', '.join(WORKLOADS)}")


def blas_threads(workload: str, warmup_dir: Path) -> int | None:
    """OpenBLAS threads for the timed passes, or None for the default.

    ``omega_sweep`` runs the CLI's own pool of worker threads, and each
    dense solve in it would start ``nproc`` OpenBLAS threads of its own.
    The timed passes cap OpenBLAS at ``nproc // workers`` so the workload
    stays within ``nproc`` busy threads.  ``workers`` is the pool size the
    CLI itself resolved in the warm-up run, read from the ``# config:``
    line of its CSV (1 if the warm-up wrote no such line), so the cap
    follows the program: with one worker OpenBLAS keeps all ``nproc``
    threads.  The other workloads call the library with one worker and
    keep the default.
    """
    if workload != "omega_sweep":
        return None
    workers = 1
    path = warmup_dir / "sweep.csv"
    for line in (path.read_text(encoding="utf-8").splitlines()
                 if path.is_file() else []):
        if line.startswith("# config:"):
            config = json.loads(line[len("# config:"):])
            workers = max(1, int(config.get("workers") or 1))
    return max(1, len(os.sched_getaffinity(0)) // workers)


def prepare(workload: str, inputs: dict, out_dir: Path):
    """Turn plain inputs into the program's own arguments.

    Returns what :func:`run_pass` needs: the command line for
    ``omega_sweep``, sweep specs (and solver options) otherwise.
    """
    import ringlat

    if workload == "omega_sweep":
        return ["sweep", "--sites", str(inputs["n_sites"]),
                "--species", "fermion", "--n-up", str(inputs["n_up"]),
                "--n-down", str(inputs["n_down"]), "--u", repr(inputs["u"]),
                "--omega-min", repr(inputs["omega_min"]),
                "--omega-max", repr(inputs["omega_max"]),
                "--omega-points", str(inputs["omega_points"]),
                "--out", str(out_dir)]
    if workload == "refine":
        b, c = inputs["boundary"], inputs["crossings"]
        ring = ringlat.make_ring(b["n_sites"])
        omega = b["omega_k_over_t"] * ring.t / ring.k_factor
        species = ringlat.Fermions(b["n_up"], b["n_down"])
        boundary_specs = [
            ringlat.SweepSpec(ring, species,
                              ringlat.InteractionGrid(lo, hi, points,
                                                      omega=omega),
                              bisection_tol=b["tol"])
            for lo, hi, points in b["windows"]]
        crossing_spec = ringlat.SweepSpec(
            ringlat.make_ring(c["n_sites"]),
            ringlat.Bosons(c["n_bosons"], u=c["u"]),
            ringlat.OmegaGrid(c["omega_min"], c["omega_max"],
                              c["omega_points"]),
            bisection_tol=c["tol"])
        return boundary_specs, crossing_spec
    if workload == "large_point":
        spec = ringlat.SweepSpec(
            ringlat.make_ring(inputs["n_sites"]),
            ringlat.Fermions(inputs["n_up"], inputs["n_down"], u=inputs["u"]),
            ringlat.OmegaGrid(inputs["omegas"][0], inputs["omegas"][1], 2))
        options = ({} if inputs["dense_threshold"] is None else
                   {"options": ringlat.SolverOptions(
                       dense_threshold=inputs["dense_threshold"])})
        return spec, options
    raise ValueError(f"unknown workload {workload!r}")


def _row(row) -> dict:
    return {"omega": row.omega, "u": row.u, "energy": row.ground_energy,
            "gap": row.gap, "total_current": row.total_current,
            "per_particle_current": row.per_particle_current,
            "sectors": list(row.sectors), "degenerate": row.degenerate,
            "is_fast_current": row.is_fast_current,
            "is_max_winding": row.is_max_winding, "failed": row.failed}


def _csv_rows(path: Path) -> list[dict]:
    """Rows of the CLI's sweep.csv, in the library row's vocabulary.

    Every workload uses t = 1, so the CSV's ``_over_t`` columns are the
    raw values.
    """
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    rows = []
    for rec in csv.DictReader(lines):
        cell = rec["sector"]
        rows.append({
            "omega": float(rec["omega"]), "u": float(rec["u_over_t"]),
            "energy": float(rec["ground_energy_over_t"]),
            "gap": float(rec["gap_over_t"]),
            "total_current": float(rec["current_total_over_t"]),
            "per_particle_current": float(rec["current_per_particle_over_t"]),
            "sectors": ([] if cell in ("failed", "mixed") else
                        [None if q == "mixed" else int(q)
                         for q in cell.split("|")]),
            "degenerate": rec["degenerate"] == "true",
            "is_fast_current": rec["fast_current"] == "true",
            "is_max_winding": rec["max_winding"] == "true",
            "failed": cell == "failed"})
    return rows


def run_pass(workload: str, prepared, out_dir: Path) -> tuple[float, dict]:
    """Run the workload's calls once.

    Returns the wall time of the calls alone and their results as plain
    data; reading the CSV back happens after the clock stops.  The calls
    go through the public names (``ringlat.run``, ``ringlat.cli.main``)
    looked up at call time, so the traced run sees them.
    """
    import ringlat
    import ringlat.cli

    if workload == "omega_sweep":
        start = time.perf_counter()
        code = ringlat.cli.main(prepared)
        wall = time.perf_counter() - start
        rows = _csv_rows(out_dir / "sweep.csv") if code in (0, 2) else []
        return wall, {"exit_code": code, "rows": rows}
    if workload == "refine":
        boundary_specs, crossing_spec = prepared
        start = time.perf_counter()
        found = [ringlat.fast_mode_boundary(spec) for spec in boundary_specs]
        crossings = ringlat.find_crossings(crossing_spec)
        wall = time.perf_counter() - start
        return wall, {
            "boundaries": [[p.u_star, p.sign_below, p.sign_above]
                           for points in found for p in points],
            "crossings": list(crossings)}
    spec, options = prepared
    start = time.perf_counter()
    result = ringlat.run(spec, **options)
    wall = time.perf_counter() - start
    return wall, {"rows": [_row(row) for row in result.rows]}
