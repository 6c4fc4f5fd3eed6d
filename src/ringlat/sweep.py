"""Parameter scans: drive-frequency grids, interaction grids, crossing and
boundary refinement.

Every grid point is an independent task (build, solve, measure); failed
points are recorded in their row instead of aborting the scan, and rows
always come back ordered by the control value, so a sweep with the same
spec is reproducible bit for bit.

Ground-state level crossings are located by watching the translation
sector of the ground state change between neighboring grid points (with a
fidelity drop as fallback when the label is mixed) and bisecting each
bracket.  Fast-mode boundaries are zero crossings of the per-particle
current along an interaction grid, bracketed and bisected the same way.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .basis import FockBasis, enumerate_basis, sector_of_state, split_into_sectors
from .eigen import (
    DEFAULT_OPTIONS,
    DEGENERACY_TOL,
    ConvergenceError,
    SolverOptions,
    ground_state,
    lowest_k,
)
from .hamiltonian import build_operator
from .model import (
    Bosons,
    DomainError,
    Fermions,
    PolarizedFermions,
    RingSpec,
    SpeciesSpec,
    particle_count,
    validate_species,
)
from .observables import FAST_CURRENT_EPS, current_operator, evaluate

_FIDELITY_DROP = 0.5


@dataclass(frozen=True)
class OmegaGrid:
    """Scan of the drive frequency omega."""

    minimum: float
    maximum: float
    points: int

    def __post_init__(self) -> None:
        if not self.minimum < self.maximum:
            raise DomainError(f"maximum: need minimum < maximum, got "
                              f"[{self.minimum}, {self.maximum}]")
        if self.points < 2:
            raise DomainError(f"points: need at least 2, got {self.points}")

    def values(self) -> np.ndarray:
        return np.linspace(self.minimum, self.maximum, self.points)


@dataclass(frozen=True)
class InteractionGrid:
    """Scan of the interaction u at a fixed drive frequency."""

    minimum: float
    maximum: float
    points: int
    omega: float

    def __post_init__(self) -> None:
        if not self.minimum < self.maximum:
            raise DomainError(f"maximum: need minimum < maximum, got "
                              f"[{self.minimum}, {self.maximum}]")
        if self.points < 2:
            raise DomainError(f"points: need at least 2, got {self.points}")

    def values(self) -> np.ndarray:
        return np.linspace(self.minimum, self.maximum, self.points)


SweepControl = OmegaGrid | InteractionGrid


@dataclass(frozen=True)
class SweepSpec:
    ring: RingSpec
    species: SpeciesSpec
    control: SweepControl
    bisection_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not self.bisection_tol > 0:
            raise DomainError(f"bisection_tol: must be > 0, "
                              f"got {self.bisection_tol}")


@dataclass(frozen=True)
class SweepRow:
    control_value: float
    omega: float
    u: float
    ground_energy: float
    gap: float
    total_current: float
    per_particle_current: float
    sectors: tuple[int | None, ...]
    degenerate: bool
    is_fast_current: bool
    is_max_winding: bool
    failed: bool = False
    error: str = ""


@dataclass(frozen=True, eq=False)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...]
    provenance: dict


@dataclass(frozen=True)
class BoundaryPoint:
    """Zero crossing of the per-particle current along an interaction
    grid, with the current's sign on each side."""

    u_star: float
    sign_below: int
    sign_above: int


def _point_parameters(spec: SweepSpec, value: float) -> tuple[RingSpec, SpeciesSpec]:
    if isinstance(spec.control, OmegaGrid):
        return spec.ring.with_omega(float(value)), spec.species
    ring = spec.ring.with_omega(spec.control.omega)
    if isinstance(spec.species, PolarizedFermions):
        raise DomainError("control: polarized fermions carry no interaction "
                          "to scan")
    return ring, replace(spec.species, u=float(value))


def _ed_row(ring: RingSpec, species: SpeciesSpec, basis: FockBasis,
            control_value: float, degeneracy_tol: float, tol: float,
            options: SolverOptions) -> SweepRow:
    gs = ground_state(build_operator(ring, species, basis),
                      degeneracy_tol=degeneracy_tol, tol=tol, options=options)
    jop = current_operator(ring, species, basis)
    multiplet, _ = split_into_sectors(gs.vectors, basis)
    reports = [evaluate(jop, multiplet[:, i], species, ring, basis)
               for i in range(multiplet.shape[1])]
    total = float(np.mean([r.total_current for r in reports]))
    per_particle = total / particle_count(species)
    return SweepRow(
        control_value=control_value,
        omega=ring.omega,
        u=getattr(species, "u", 0.0),
        ground_energy=gs.energy,
        gap=gs.gap,
        total_current=total,
        per_particle_current=per_particle,
        sectors=tuple(r.sector for r in reports),
        degenerate=gs.degenerate,
        is_fast_current=total > FAST_CURRENT_EPS * ring.t,
        is_max_winding=all(r.is_max_winding for r in reports),
    )


def _polarized_row(ring: RingSpec, species: PolarizedFermions,
                   control_value: float) -> SweepRow:
    n = species.n_particles
    states = sorted((analytic.winding_state(ring, m) for m in range(ring.n_sites)),
                    key=lambda s: (analytic.energy(s, ring), s.n))
    energies = [analytic.energy(s, ring) for s in states]
    ground_energy = sum(energies[:n])
    gap = energies[n] - energies[n - 1] if n < ring.n_sites else math.nan
    left, right, degenerate = analytic.polarized_occupation_limits(n, ring)
    left_sum = sum(analytic.current(s, ring) for s in left)
    right_sum = sum(analytic.current(s, ring) for s in right)
    total = 0.5 * (left_sum + right_sum)
    target = (n * analytic.max_winding_number(ring)) % ring.n_sites
    sectors = tuple(dict.fromkeys(
        sum(s.n for s in picked) % ring.n_sites for picked in (left, right)))
    return SweepRow(
        control_value=control_value,
        omega=ring.omega,
        u=0.0,
        ground_energy=ground_energy,
        gap=gap,
        total_current=total,
        per_particle_current=total / n,
        sectors=sectors,
        degenerate=degenerate,
        is_fast_current=total > FAST_CURRENT_EPS * ring.t,
        is_max_winding=all(q == target for q in sectors),
    )


def _failed_row(spec: SweepSpec, value: float, error: Exception) -> SweepRow:
    omega = (value if isinstance(spec.control, OmegaGrid)
             else spec.control.omega)
    u = (value if isinstance(spec.control, InteractionGrid)
         else getattr(spec.species, "u", 0.0))
    nan = math.nan
    return SweepRow(control_value=float(value), omega=float(omega), u=float(u),
                    ground_energy=nan, gap=nan, total_current=nan,
                    per_particle_current=nan, sectors=(), degenerate=False,
                    is_fast_current=False, is_max_winding=False,
                    failed=True, error=f"{type(error).__name__}: {error}")


def run(spec: SweepSpec, workers: int = 1, tol: float = 1e-10,
        degeneracy_tol: float = DEGENERACY_TOL,
        options: SolverOptions = DEFAULT_OPTIONS) -> SweepResult:
    """Solve the ground state and measure currents on every grid point."""
    validate_species(spec.species, spec.ring)
    polarized = isinstance(spec.species, PolarizedFermions)
    if polarized and isinstance(spec.control, InteractionGrid):
        raise DomainError("control: polarized fermions carry no interaction "
                          "to scan")
    basis = None if polarized else enumerate_basis(spec.ring, spec.species)

    def solve(value: float) -> SweepRow:
        ring, species = _point_parameters(spec, value)
        try:
            if polarized:
                return _polarized_row(ring, species, float(value))
            return _ed_row(ring, species, basis, float(value),
                           degeneracy_tol, tol, options)
        except ConvergenceError as error:
            return _failed_row(spec, value, error)

    values = spec.control.values()
    if workers == 1:
        rows = tuple(solve(v) for v in values)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(solve, values))

    provenance = {
        "ring": {"n_sites": spec.ring.n_sites, "t": spec.ring.t,
                 "k_factor": spec.ring.k_factor, "omega": spec.ring.omega},
        "species": repr(spec.species),
        "control": repr(spec.control),
        "solver": {"tol": tol, "degeneracy_tol": degeneracy_tol,
                   "dense_threshold": options.dense_threshold,
                   "seed": options.seed},
        "workers": workers,
    }
    return SweepResult(spec=spec, rows=rows, provenance=provenance)


def _ground_label(spec: SweepSpec, basis: FockBasis | None, omega: float,
                  degeneracy_tol: float, tol: float,
                  options: SolverOptions) -> tuple[int | None, np.ndarray | None]:
    """Primary ground sector and one ground vector at the given drive."""
    ring = spec.ring.with_omega(float(omega))
    if isinstance(spec.species, PolarizedFermions):
        left, _, _ = analytic.polarized_occupation_limits(
            spec.species.n_particles, ring)
        return sum(s.n for s in left) % ring.n_sites, None
    row_op = build_operator(ring, spec.species, basis)
    result = lowest_k(row_op, min(2, basis.dimension), tol=tol,
                      degeneracy_tol=degeneracy_tol, options=options)
    vector = result.vectors[:, 0]
    return sector_of_state(vector, basis), vector


def find_crossings(spec: SweepSpec, workers: int = 1, tol: float = 1e-10,
                   degeneracy_tol: float = DEGENERACY_TOL,
                   options: SolverOptions = DEFAULT_OPTIONS) -> tuple[float, ...]:
    """Drive frequencies where the ground state changes symmetry sector.

    Scans the grid for sector-label changes (falling back to a ground
    state fidelity drop below 0.5 when labels are mixed) and bisects each
    bracket down to ``spec.bisection_tol``.
    """
    if not isinstance(spec.control, OmegaGrid):
        raise DomainError("control: crossing detection scans the drive "
                          "frequency; use an OmegaGrid")
    validate_species(spec.species, spec.ring)
    polarized = isinstance(spec.species, PolarizedFermions)
    basis = None if polarized else enumerate_basis(spec.ring, spec.species)

    def label_at(omega: float) -> tuple[int | None, np.ndarray | None]:
        return _ground_label(spec, basis, omega, degeneracy_tol, tol, options)

    omegas = spec.control.values()
    if workers == 1:
        labeled = [label_at(w) for w in omegas]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            labeled = list(pool.map(label_at, omegas))

    # Brackets span consecutive points with RESOLVED labels; a grid point
    # that lands exactly on a crossing labels as mixed (None) and must not
    # break the change detection across it.
    resolved = [i for i in range(len(omegas)) if labeled[i][0] is not None]
    brackets = []
    for i, j in zip(resolved, resolved[1:]):
        if labeled[i][0] != labeled[j][0]:
            brackets.append((i, j))
    covered = set()
    for i, j in brackets:
        covered.update(range(i, j))
    # Fidelity fallback for adjacent pairs that label detection cannot
    # see (both ends mixed, e.g. accidental degeneracies).
    for i in range(len(omegas) - 1):
        if i in covered:
            continue
        (label_lo, vec_lo), (label_hi, vec_hi) = labeled[i], labeled[i + 1]
        if label_lo is not None and label_hi is not None:
            continue
        if vec_lo is None or vec_hi is None:
            continue
        if abs(np.vdot(vec_lo, vec_hi)) < _FIDELITY_DROP:
            brackets.append((i, i + 1))

    crossings = []
    for i, j in brackets:
        (label_lo, vec_lo), (label_hi, vec_hi) = labeled[i], labeled[j]
        crossings.append(_bisect_crossing(
            float(omegas[i]), float(omegas[j]), label_lo, label_hi,
            vec_lo, vec_hi, label_at, spec.bisection_tol))
    return tuple(sorted(crossings))


def _bisect_crossing(lo, hi, label_lo, label_hi, vec_lo, vec_hi, label_at,
                     bisection_tol) -> float:
    while hi - lo > bisection_tol:
        mid = 0.5 * (lo + hi)
        label_mid, vec_mid = label_at(mid)
        if label_mid is not None and label_mid == label_lo:
            lo, vec_lo = mid, vec_mid
        elif label_mid is not None and label_mid != label_hi:
            # A third sector appeared inside the bracket: chase the first
            # change so the bracket invariant (different ends) survives.
            hi, label_hi, vec_hi = mid, label_mid, vec_mid
        elif label_mid is not None:
            hi, vec_hi = mid, vec_mid
        elif vec_mid is not None and vec_lo is not None and (
                abs(np.vdot(vec_mid, vec_lo)) >= abs(np.vdot(vec_mid, vec_hi))):
            lo, vec_lo = mid, vec_mid
        else:
            hi, vec_hi = mid, vec_mid
    return 0.5 * (lo + hi)


def _sign(value: float, eps: float) -> int:
    if value > eps:
        return 1
    if value < -eps:
        return -1
    return 0


def fast_mode_boundary(spec: SweepSpec, workers: int = 1, tol: float = 1e-10,
                       degeneracy_tol: float = DEGENERACY_TOL,
                       options: SolverOptions = DEFAULT_OPTIONS,
                       ) -> tuple[BoundaryPoint, ...]:
    """Interactions where the ground-state current changes sign.

    Runs the interaction sweep, brackets every strict sign change of the
    per-particle current, and bisects each bracket to ``bisection_tol``.
    """
    if not isinstance(spec.control, InteractionGrid):
        raise DomainError("control: boundary detection scans the "
                          "interaction; use an InteractionGrid")
    if not isinstance(spec.species, Fermions):
        raise DomainError(f"species: boundary detection needs Fermions, "
                          f"got {type(spec.species).__name__}")
    validate_species(spec.species, spec.ring)
    basis = enumerate_basis(spec.ring, spec.species)
    ring = spec.ring.with_omega(spec.control.omega)
    eps = FAST_CURRENT_EPS * ring.t

    def current_at(u: float) -> float:
        row = _ed_row(ring, replace(spec.species, u=float(u)), basis,
                      float(u), degeneracy_tol, tol, options)
        return row.per_particle_current

    us = spec.control.values()
    if workers == 1:
        currents = [current_at(u) for u in us]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            currents = list(pool.map(current_at, us))

    boundaries = []
    signs = [_sign(c, eps) for c in currents]
    for i in range(len(us) - 1):
        s_lo, s_hi = signs[i], signs[i + 1]
        if s_lo == 0:
            continue
        if s_hi == 0:
            # Exact zero on the grid: the neighbor beyond tells the side.
            after = next((s for s in signs[i + 1:] if s != 0), -s_lo)
            if after != s_lo:
                boundaries.append(BoundaryPoint(float(us[i + 1]), s_lo, after))
            continue
        if s_lo == s_hi:
            continue
        lo, hi = float(us[i]), float(us[i + 1])
        f_lo = currents[i]
        while hi - lo > spec.bisection_tol:
            mid = 0.5 * (lo + hi)
            f_mid = current_at(mid)
            if _sign(f_mid, eps) == _sign(f_lo, eps):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        boundaries.append(BoundaryPoint(0.5 * (lo + hi), s_lo, s_hi))
    return tuple(boundaries)
