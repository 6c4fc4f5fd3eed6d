"""Parameter scans: drive-frequency grids, interaction grids, crossing and
boundary refinement.

Each call splits one basis into translation-sector blocks
(:func:`ringlat.hamiltonian.sector_blocks`); every grid point solves each
block for its lowest level, so each ground-state member carries its
block's exact sector.  Points run serially, and the ``workers`` argument
is accepted and recorded only for compatibility.  Failed points are
recorded in their row instead of aborting the scan, and rows always come
back ordered by the control value, so a sweep with the same spec is
reproducible bit for bit.

Ground-state level crossings are located by watching the sector of the
lowest block level change between neighboring grid points and bisecting
each bracket.  Fast-mode boundaries are zero crossings of the per-particle
current along an interaction grid, bracketed and bisected the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .basis import enumerate_basis
from .eigen import (
    DEFAULT_OPTIONS,
    DEGENERACY_TOL,
    ConvergenceError,
    SolverOptions,
    _level_end,
    _lowest_levels,
)
from .hamiltonian import SectorBlock, hopping_amplitude, sector_blocks
from .model import (
    DomainError,
    Fermions,
    PolarizedFermions,
    RingSpec,
    SpeciesSpec,
    particle_count,
    validate_species,
)
from .observables import FAST_CURRENT_EPS, forward_hop_amplitude


@dataclass(frozen=True)
class _Grid:
    """Evenly spaced control values, both ends included."""

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
class OmegaGrid(_Grid):
    """Scan of the drive frequency omega."""


@dataclass(frozen=True)
class InteractionGrid(_Grid):
    """Scan of the interaction u at a fixed drive frequency."""

    omega: float


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
    sectors: tuple[int, ...]
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


def _sector_blocks(spec: SweepSpec,
                   workers: int) -> tuple[SectorBlock, ...] | None:
    """The spec's sector blocks; None for polarized fermions (closed forms)."""
    if workers < 1:
        raise DomainError(f"workers: must be at least 1, got {workers}")
    validate_species(spec.species, spec.ring)
    if isinstance(spec.species, PolarizedFermions):
        return None
    return sector_blocks(enumerate_basis(spec.ring, spec.species))


def _point_parameters(spec: SweepSpec, value: float) -> tuple[RingSpec, SpeciesSpec]:
    if isinstance(spec.control, OmegaGrid):
        return spec.ring.with_omega(float(value)), spec.species
    return (spec.ring.with_omega(spec.control.omega),
            replace(spec.species, u=float(value)))


def _ground(blocks: tuple[SectorBlock, ...], ring: RingSpec, u: float,
            degeneracy_tol: float, tol: float, options: SolverOptions
            ) -> tuple[np.ndarray, list[tuple[SectorBlock, np.ndarray]]]:
    """Every block's lowest level and next pair, merged by value, and the
    ground multiplet among them as (block, vector) pairs."""
    amp = hopping_amplitude(ring)
    values, pairs = [], []
    for block in blocks:
        levels, vectors, _ = _lowest_levels(block.operator(amp, u), 1, tol,
                                            degeneracy_tol, options)
        values.append(levels)
        pairs.extend((block, vector) for vector in vectors.T)
    values = np.concatenate(values)
    order = np.argsort(values, kind="stable")
    members = order[:_level_end(values[order], 1, degeneracy_tol)]
    return values[order], [pairs[i] for i in members]


def _block_row(ring: RingSpec, species: SpeciesSpec,
               blocks: tuple[SectorBlock, ...], control_value: float,
               degeneracy_tol: float, tol: float,
               options: SolverOptions) -> SweepRow:
    u = getattr(species, "u", 0.0)
    values, members = _ground(blocks, ring, u, degeneracy_tol, tol, options)
    # The multiplet's current is a trace over its span, so any orthonormal
    # basis of it gives the same mean.
    amp = forward_hop_amplitude(ring)
    total = float(np.mean([block.operator(amp).expectation(vector)
                           for block, vector in members]))
    labels = tuple(sorted(block.q for block, _ in members))
    n_particles = particle_count(species)
    target = (n_particles * (ring.n_sites // 4)) % ring.n_sites
    return SweepRow(
        control_value=control_value,
        omega=ring.omega,
        u=u,
        ground_energy=float(values[0]),
        gap=float(values[1] - values[0]) if len(values) > 1 else math.nan,
        total_current=total,
        per_particle_current=total / n_particles,
        sectors=labels,
        degenerate=len(labels) > 1,
        is_fast_current=total > FAST_CURRENT_EPS * ring.t,
        is_max_winding=all(q == target for q in labels),
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


def _failed_row(ring: RingSpec, species: SpeciesSpec, value: float,
                error: Exception) -> SweepRow:
    nan = math.nan
    return SweepRow(control_value=float(value), omega=float(ring.omega),
                    u=float(getattr(species, "u", 0.0)),
                    ground_energy=nan, gap=nan, total_current=nan,
                    per_particle_current=nan, sectors=(), degenerate=False,
                    is_fast_current=False, is_max_winding=False,
                    failed=True, error=f"{type(error).__name__}: {error}")


def run(spec: SweepSpec, workers: int = 1, tol: float = 1e-10,
        degeneracy_tol: float = DEGENERACY_TOL,
        options: SolverOptions = DEFAULT_OPTIONS) -> SweepResult:
    """Solve the ground state and measure currents on every grid point."""
    blocks = _sector_blocks(spec, workers)
    if blocks is None and isinstance(spec.control, InteractionGrid):
        raise DomainError("control: polarized fermions carry no interaction "
                          "to scan")

    def solve(value: float) -> SweepRow:
        ring, species = _point_parameters(spec, value)
        try:
            if blocks is None:
                return _polarized_row(ring, species, float(value))
            return _block_row(ring, species, blocks, float(value),
                              degeneracy_tol, tol, options)
        except ConvergenceError as error:
            return _failed_row(ring, species, value, error)

    rows = tuple(solve(v) for v in spec.control.values())

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


def find_crossings(spec: SweepSpec, workers: int = 1, tol: float = 1e-10,
                   degeneracy_tol: float = DEGENERACY_TOL,
                   options: SolverOptions = DEFAULT_OPTIONS) -> tuple[float, ...]:
    """Drive frequencies where the ground state changes symmetry sector.

    Labels each grid point by the sector of its lowest block level,
    brackets every label change and bisects it down to
    ``spec.bisection_tol``.  A grid point whose ground multiplet spans
    several blocks sits on an exact crossing and is no bracket end.
    """
    if not isinstance(spec.control, OmegaGrid):
        raise DomainError("control: crossing detection scans the drive "
                          "frequency; use an OmegaGrid")
    blocks = _sector_blocks(spec, workers)

    def label_at(omega: float) -> tuple[int, bool]:
        """Sector of the lowest level, and whether the ground ties blocks."""
        ring = spec.ring.with_omega(float(omega))
        if blocks is None:
            left, _, _ = analytic.polarized_occupation_limits(
                spec.species.n_particles, ring)
            return sum(s.n for s in left) % ring.n_sites, False
        _, members = _ground(blocks, ring, getattr(spec.species, "u", 0.0),
                             degeneracy_tol, tol, options)
        sectors = {block.q for block, _ in members}
        return members[0][0].q, len(sectors) > 1

    labeled = [(float(w), *label_at(w)) for w in spec.control.values()]
    ends = [(w, label) for w, label, tie in labeled if not tie]
    return tuple(
        _bisect_crossing(lo, hi, label_lo, lambda w: label_at(w)[0],
                         spec.bisection_tol)
        for (lo, label_lo), (hi, label_hi) in zip(ends, ends[1:])
        if label_lo != label_hi)


def _bisect_crossing(lo, hi, label_lo, label_at, bisection_tol) -> float:
    # Any label but the low end's moves the high end, so a third sector
    # inside the bracket is chased to the first change.
    while hi - lo > bisection_tol:
        mid = 0.5 * (lo + hi)
        if label_at(mid) == label_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    blocks = _sector_blocks(spec, workers)
    eps = FAST_CURRENT_EPS * spec.ring.t

    def sign_at(u: float) -> int:
        """Sign of the per-particle current, 0 within eps of zero."""
        current = _block_row(*_point_parameters(spec, u), blocks, float(u),
                             degeneracy_tol, tol, options).per_particle_current
        return int(current > eps) - int(current < -eps)

    us = spec.control.values()
    signs = [sign_at(u) for u in us]
    boundaries = []
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
        if s_lo != s_hi:
            u_star = _bisect_crossing(float(us[i]), float(us[i + 1]), s_lo,
                                      sign_at, spec.bisection_tol)
            boundaries.append(BoundaryPoint(u_star, s_lo, s_hi))
    return tuple(boundaries)
