"""Command-line front end: spectra, currents, sweeps, crossings,
boundaries, and the self-check suite.

Options resolve in three layers: hard defaults, then a JSON config file
(``--config``), then explicit command-line flags.  CSV files are the
canonical output; every file starts with ``#`` provenance comments whose
body is deterministic for a given configuration (only the timestamp line
varies).  Exit codes: 0 success, 1 configuration error, 2 solver failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analytic, sweep
from .basis import BasisSizeError
from .eigen import (
    DEFAULT_OPTIONS,
    ConvergenceError,
    SolverOptions,
    _lapack_provenance,
)
from .model import (
    Bosons,
    DomainError,
    Fermions,
    PolarizedFermions,
    RingSpec,
    SpeciesSpec,
    make_ring,
    particle_count,
    validate_species,
)
from .plotting import write_line_plot
from .sweep import (
    InteractionGrid,
    OmegaGrid,
    SweepSpec,
    fast_mode_boundary,
    find_crossings,
    run as run_sweep,
)
from .verify import run_all as run_all_checks

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved options for one command invocation."""

    ring: RingSpec
    species: SpeciesSpec
    omega_min: float
    omega_max: float
    omega_points: int
    omega_fixed: float
    u_grid: tuple[float, float, int] | None
    out_dir: Path
    svg: bool
    refine: bool
    bisection_tol: float
    workers: int
    solver_tol: float
    degeneracy_tol: float
    solver: SolverOptions
    windings: tuple[int, ...] | None
    echo: dict


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    ring = common.add_argument_group("ring")
    ring.add_argument("--sites", type=int, help="number of lattice sites")
    ring.add_argument("--t", type=float, help="hopping energy (default 1)")
    ring.add_argument("--beta", type=float,
                      help="geometry constant for K = beta*sin(2*pi/N)/2")
    ring.add_argument("--k", type=float,
                      help="set the geometric factor K directly")
    grid = common.add_argument_group("grids")
    grid.add_argument("--omega-min", type=float)
    grid.add_argument("--omega-max", type=float)
    grid.add_argument("--omega-points", type=int)
    grid.add_argument("--omega", type=float,
                      help="fixed drive frequency for interaction sweeps")
    grid.add_argument("--u", type=float, help="fixed interaction strength")
    grid.add_argument("--u-min", type=float)
    grid.add_argument("--u-max", type=float)
    grid.add_argument("--u-points", type=int)
    species = common.add_argument_group("species")
    species.add_argument("--species", choices=("boson", "fermion", "polarized"))
    species.add_argument("--n", type=int, help="particle count")
    species.add_argument("--n-up", type=int)
    species.add_argument("--n-down", type=int)
    out = common.add_argument_group("output and solving")
    out.add_argument("--out", help="output directory")
    out.add_argument("--svg", action="store_true", default=None,
                     help="write SVG plots next to the CSVs")
    out.add_argument("--refine", action="store_true", default=None,
                     help="refine crossings/boundaries from the sweep's own "
                          "grid points, in the same pass")
    out.add_argument("--tol", type=float,
                     help="bisection tolerance for refinement")
    out.add_argument("--workers", type=int,
                     help="kept for compatibility and recorded in the "
                          "provenance; grid points run serially")
    out.add_argument("--config", help="JSON config file; flags override it")

    parser = argparse.ArgumentParser(
        prog="ringlat",
        description="Exact diagonalization of rotating ring lattices")
    sub = parser.add_subparsers(dest="command", required=True)
    spectrum = sub.add_parser("spectrum", parents=[common],
                              help="closed-form one-particle energy levels")
    spectrum.add_argument("--windings",
                          help="comma-separated winding numbers (default all)")
    currents = sub.add_parser("currents", parents=[common],
                              help="closed-form one-particle currents")
    currents.add_argument("--windings",
                          help="comma-separated winding numbers (default all)")
    sub.add_parser("sweep", parents=[common],
                   help="ground-state scan over omega or u")
    sub.add_parser("crossings", parents=[common],
                   help="refined ground-state level crossings")
    sub.add_parser("boundary", parents=[common],
                   help="fast-mode boundaries along an interaction grid")
    sub.add_parser("verify", parents=[common],
                   help="run the built-in consistency suite")
    return parser


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError as error:
        raise DomainError(f"config: {error}") from error
    except json.JSONDecodeError as error:
        raise DomainError(f"config: {path} is not valid JSON: {error}") from error
    if not isinstance(data, dict):
        raise DomainError(f"config: {path} must hold a JSON object")
    for section in ("ring", "species", "sweep", "output", "solver"):
        if not isinstance(data.get(section, {}), dict):
            raise DomainError(f"{section}: must be a JSON object in {path}")
    return data


# The JSON values a config file may give each setting type.  A JSON true
# or false is a Python bool, which is also an int, so bools are told apart
# separately.
_JSON_KINDS = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string"),
               Path: ((str,), "a string")}


def _pick(convert, flag, cfg: dict, key: str, default):
    """``convert`` of the flag if given, else of the config-file value at
    ``key`` ("section.name"), else of the default (None stays None).

    A file value of the wrong JSON type is a DomainError naming its key.
    """
    if flag is not None:
        return convert(flag)
    section, name = key.split(".")
    value = cfg.get(section, {}).get(name)
    if value is None:
        return None if default is None else convert(default)
    types, kind = _JSON_KINDS[convert]
    if (isinstance(value, bool) != (convert is bool)
            or not isinstance(value, types)):
        raise DomainError(f"{key}: expected {kind}, got {json.dumps(value)}")
    return convert(value)


def _resolve_species(args, cfg: dict) -> SpeciesSpec:
    kind = _pick(str, args.species, cfg, "species.kind", "boson")
    u = _pick(float, args.u, cfg, "species.u", 0.0)
    if kind == "boson":
        n = _pick(int, args.n, cfg, "species.n", 1)
        return Bosons(n_particles=n, u=u)
    if kind == "fermion":
        n_up = _pick(int, args.n_up, cfg, "species.n_up", 1)
        n_down = _pick(int, args.n_down, cfg, "species.n_down", 1)
        return Fermions(n_up=n_up, n_down=n_down, u=u)
    if kind == "polarized":
        n = _pick(int, args.n, cfg, "species.n", 1)
        return PolarizedFermions(n_particles=n)
    raise DomainError(f"species: unknown kind {kind!r}")


def resolve_config(args) -> RunConfig:
    cfg = _load_config_file(args.config)

    sites = _pick(int, args.sites, cfg, "ring.sites", 8)
    t = _pick(float, args.t, cfg, "ring.t", 1.0)
    beta = _pick(float, args.beta, cfg, "ring.beta", 1.0)
    k_direct = _pick(float, args.k, cfg, "ring.k", None)
    if k_direct is not None:
        ring = RingSpec(n_sites=sites, t=t, k_factor=k_direct)
    else:
        ring = make_ring(sites, t=t, beta=beta)

    species = _resolve_species(args, cfg)
    validate_species(species, ring)

    omega_min = _pick(float, args.omega_min, cfg, "sweep.omega_min", 0.0)
    omega_max = _pick(float, args.omega_max, cfg, "sweep.omega_max",
                      4.0 * ring.t / ring.k_factor)
    omega_points = _pick(int, args.omega_points, cfg, "sweep.omega_points",
                         201)
    if omega_points < 1:
        raise DomainError(f"omega_points: must be at least 1, got "
                          f"{omega_points}")
    omega_fixed = _pick(float, args.omega, cfg, "sweep.omega", 0.0)

    u_min = _pick(float, args.u_min, cfg, "sweep.u_min", None)
    u_max = _pick(float, args.u_max, cfg, "sweep.u_max", None)
    u_points = _pick(int, args.u_points, cfg, "sweep.u_points", None)
    if any(v is not None for v in (u_min, u_max, u_points)):
        if None in (u_min, u_max, u_points):
            raise DomainError("u_grid: an interaction grid needs u-min, "
                              "u-max and u-points together")
        u_grid = (u_min, u_max, u_points)
    else:
        u_grid = None

    windings = getattr(args, "windings", None)
    if windings is not None:
        try:
            windings = tuple(int(w) for w in windings.split(",") if w.strip())
        except ValueError as error:
            raise DomainError(f"windings: {error}") from error
    else:
        windings = cfg.get("sweep", {}).get("windings")
        if windings is not None:
            if not isinstance(windings, list) or any(
                    type(w) is not int for w in windings):
                raise DomainError(f"sweep.windings: expected a list of "
                                  f"integers, got {json.dumps(windings)}")
            windings = tuple(windings)
    for n in windings or ():
        if not 0 <= n < ring.n_sites:
            raise DomainError(f"windings: {n} outside [0, {ring.n_sites})")

    refine = _pick(bool, args.refine, cfg, "sweep.refine", False)
    bisection_tol = _pick(float, args.tol, cfg, "sweep.tol", 1e-6)
    workers = _pick(int, args.workers, cfg, "solver.workers", 1)
    if workers < 1:
        raise DomainError(f"workers: must be at least 1, got {workers}")
    solver_tol = _pick(float, None, cfg, "solver.tol", 1e-10)
    degeneracy_tol = _pick(float, None, cfg, "solver.degeneracy_tol", 1e-8)
    solver = SolverOptions(
        dense_threshold=_pick(int, None, cfg, "solver.dense_threshold",
                              DEFAULT_OPTIONS.dense_threshold),
        seed=_pick(int, None, cfg, "solver.seed", DEFAULT_OPTIONS.seed),
    )
    echo = {
        "ring": {"sites": sites, "t": t, "k_factor": ring.k_factor},
        "species": repr(species),
        "omega_grid": [omega_min, omega_max, omega_points],
        "omega_fixed": omega_fixed,
        "u_grid": list(u_grid) if u_grid else None,
        "refine": refine,
        "bisection_tol": bisection_tol,
        "workers": workers,
        "solver": {"tol": solver_tol, "degeneracy_tol": degeneracy_tol,
                   "dense_threshold": solver.dense_threshold,
                   "seed": solver.seed},
    }
    return RunConfig(
        ring=ring,
        species=species,
        omega_min=omega_min,
        omega_max=omega_max,
        omega_points=omega_points,
        omega_fixed=omega_fixed,
        u_grid=u_grid,
        out_dir=_pick(Path, args.out, cfg, "output.dir", "out"),
        svg=_pick(bool, args.svg, cfg, "output.svg", False),
        refine=refine,
        bisection_tol=bisection_tol,
        workers=workers,
        solver_tol=solver_tol,
        degeneracy_tol=degeneracy_tol,
        solver=solver,
        windings=windings,
        echo=echo,
    )


def _fmt(value) -> str:
    if value is None:
        return "mixed"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def _write_csv(path: Path, echo: dict, columns: list[str], rows,
               extra_comments: list[str] | None = None) -> None:
    lines = [
        f"# generator: ringlat {__version__}",
        f"# timestamp: {datetime.now(timezone.utc).isoformat()}",
        f"# config: {json.dumps(echo, sort_keys=True)}",
        f"# lapack: {json.dumps(_lapack_provenance(), sort_keys=True)}",
        "# units: energies and currents in units of t",
    ]
    lines.extend(extra_comments or [])
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _omega_grid_values(config: RunConfig) -> np.ndarray:
    return np.linspace(config.omega_min, config.omega_max,
                       config.omega_points)


def _single_particle_or_die(config: RunConfig) -> None:
    if particle_count(config.species) != 1:
        raise DomainError("species: spectrum/currents are one-particle "
                          "commands; use --n 1")


def _plot_windings(path: Path, rows: list[tuple], windings: tuple[int, ...],
                   title: str, y_label: str) -> None:
    """One line per winding n over omega K / t, from rows that begin
    (omega, omegaK_over_t, n, value)."""
    series = [(f"n={n}", [r[1] for r in rows if r[2] == n],
               [r[3] for r in rows if r[2] == n]) for n in windings]
    write_line_plot(path, title=title, x_label="omega K / t",
                    y_label=y_label, series=series)


def cmd_spectrum(config: RunConfig) -> int:
    """Closed-form energy levels versus drive frequency."""
    _single_particle_or_die(config)
    ring0 = config.ring
    windings = config.windings or tuple(range(ring0.n_sites))
    rows = []
    for omega in _omega_grid_values(config):
        ring = ring0.with_omega(float(omega))
        for n in windings:
            state = analytic.winding_state(ring, n)
            rows.append((float(omega), ring.omega_k_over_t, n,
                         analytic.energy(state, ring) / ring.t))
    path = config.out_dir / "spectrum.csv"
    _write_csv(path, config.echo,
               ["omega", "omegaK_over_t", "n", "energy"], rows)
    if config.svg:
        _plot_windings(config.out_dir / "spectrum.svg", rows, windings,
                       f"One-particle levels, {ring0.n_sites} sites", "E / t")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_currents(config: RunConfig) -> int:
    """Closed-form currents versus drive frequency, ground trace marked."""
    _single_particle_or_die(config)
    ring0 = config.ring
    windings = config.windings or tuple(range(ring0.n_sites))
    rows = []
    for omega in _omega_grid_values(config):
        ring = ring0.with_omega(float(omega))
        ground_n = analytic.ground_winding(ring).n
        for n in windings:
            state = analytic.winding_state(ring, n)
            rows.append((float(omega), ring.omega_k_over_t, n,
                         analytic.current(state, ring) / ring.t,
                         n == ground_n))
    comments = []
    if ring0.n_sites % 4 == 0:
        omega_c = analytic.fast_mode_threshold(ring0)
        comments = [
            f"# fast_mode_threshold_omega: {omega_c!r}",
            f"# fast_mode_threshold_omegaK_over_t: "
            f"{omega_c * ring0.k_factor / ring0.t!r}",
            "# ground current saturates at 2 (units of t) above the threshold",
        ]
    path = config.out_dir / "currents.csv"
    _write_csv(path, config.echo,
               ["omega", "omegaK_over_t", "n", "current", "is_ground"],
               rows, extra_comments=comments)
    if config.svg:
        _plot_windings(config.out_dir / "currents.svg", rows, windings,
                       f"One-particle currents, {ring0.n_sites} sites",
                       "J / t")
    print(f"wrote {path}")
    return EXIT_OK


def _sweep_spec(config: RunConfig) -> SweepSpec:
    if config.u_grid is not None:
        u_min, u_max, u_points = config.u_grid
        control = InteractionGrid(u_min, u_max, u_points,
                                  omega=config.omega_fixed)
    else:
        control = OmegaGrid(config.omega_min, config.omega_max,
                            config.omega_points)
    return SweepSpec(ring=config.ring, species=config.species,
                     control=control, bisection_tol=config.bisection_tol)


def _sector_cell(sectors: tuple, failed: bool) -> str:
    return "failed" if failed else "|".join(str(q) for q in sectors)


def cmd_sweep(config: RunConfig) -> int:
    """Ground-state scan; optionally refine crossings or boundaries from
    the scan's own grid points, in the same pass."""
    spec = _sweep_spec(config)
    solving = (config.workers, config.solver_tol, config.degeneracy_tol,
               config.solver)
    search, write = ((sweep._boundaries, _write_boundary)
                     if config.u_grid is not None
                     else (sweep._crossings, _write_crossings))
    if config.refine:
        result, found = sweep._scan(spec, *solving, search)
    else:
        result = run_sweep(spec, *solving)
    t = config.ring.t
    rows = []
    for row in result.rows:
        rows.append((
            row.control_value, row.omega,
            row.omega * config.ring.k_factor / t, row.u / t,
            row.ground_energy / t, row.gap / t, row.total_current / t,
            row.per_particle_current / t,
            _sector_cell(row.sectors, row.failed),
            row.degenerate, row.is_fast_current, row.is_max_winding,
        ))
    path = config.out_dir / "sweep.csv"
    summary = json.dumps(result.provenance["solver_summary"], sort_keys=True)
    _write_csv(path, config.echo, [
        "control", "omega", "omegaK_over_t", "u_over_t",
        "ground_energy_over_t", "gap_over_t", "current_total_over_t",
        "current_per_particle_over_t", "sector", "degenerate",
        "fast_current", "max_winding"], rows, [f"# solver-summary: {summary}"])
    print(f"wrote {path}")

    if config.svg:
        xs = [r[0] for r in rows]
        series = [("J per particle / t", xs, [r[7] for r in rows]),
                  ("E0 / t", xs, [r[4] for r in rows])]
        x_label = ("u / t" if config.u_grid is not None
                   else "omega (energy units)")
        write_line_plot(config.out_dir / "sweep.svg", title="Ground-state scan",
                        x_label=x_label, y_label="units of t", series=series)

    if config.refine:
        if isinstance(found, ConvergenceError):
            raise found  # after sweep.csv, with no roots file
        write(config, found)

    if any(row.failed for row in result.rows):
        failures = [row for row in result.rows if row.failed]
        print(f"{len(failures)} grid points failed "
              f"(first: control={failures[0].control_value}, "
              f"{failures[0].error})", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _write_crossings(config: RunConfig, crossings: tuple) -> None:
    rows = [(i, w, w * config.ring.k_factor / config.ring.t)
            for i, w in enumerate(crossings)]
    path = config.out_dir / "crossings.csv"
    _write_csv(path, config.echo, ["index", "omega", "omegaK_over_t"], rows)
    print(f"wrote {path}")


def _write_boundary(config: RunConfig, points: tuple) -> None:
    omega = config.omega_fixed
    rows = [(omega, omega * config.ring.k_factor / config.ring.t,
             p.u_star / config.ring.t, p.sign_below, p.sign_above)
            for p in points]
    path = config.out_dir / "boundary.csv"
    _write_csv(path, config.echo,
               ["omega", "omegaK_over_t", "u_star_over_t", "sign_below",
                "sign_above"], rows)
    print(f"wrote {path}")


def cmd_crossings(config: RunConfig) -> int:
    _write_crossings(config, find_crossings(
        _sweep_spec(config), config.workers, config.solver_tol,
        config.degeneracy_tol, config.solver))
    return EXIT_OK


def cmd_boundary(config: RunConfig) -> int:
    if config.u_grid is None:
        raise DomainError("u_grid: the boundary command needs --u-min, "
                          "--u-max and --u-points")
    _write_boundary(config, fast_mode_boundary(
        _sweep_spec(config), config.workers, config.solver_tol,
        config.degeneracy_tol, config.solver))
    return EXIT_OK


def cmd_verify(_config: RunConfig | None = None) -> int:
    """Run the consistency suite and report each check on one line."""
    results = run_all_checks()
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        detail = f"  ({result.detail})" if result.detail else ""
        print(f"{status} {result.name}: max deviation {result.max_deviation:.3e}"
              f" (tolerance {result.tolerance:.1e}){detail}")
        failures += 0 if result.passed else 1
    if failures:
        print(f"{failures} of {len(results)} checks failed", file=sys.stderr)
        return EXIT_SOLVER
    print(f"all {len(results)} checks passed")
    return EXIT_OK


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "currents": cmd_currents,
    "sweep": cmd_sweep,
    "crossings": cmd_crossings,
    "boundary": cmd_boundary,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        if args.command != "verify":
            config.out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config)
    except (DomainError, BasisSizeError) as error:
        print(f"configuration error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as error:
        print(f"solver failure: {error}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as error:
        print(f"I/O error: {error}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
