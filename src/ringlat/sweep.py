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

Ground-state level crossings are bracketed by watching the sector of the
lowest block level change between neighboring grid points.  A bracket
from sector Q1 to Q2 holds a root of the smooth function E_Q1 - E_Q2 of
the two blocks' lowest levels, which Brent's method finds to a quarter of
``bisection_tol`` while solving only those two blocks at each step.
The grid has already solved both blocks at the bracket ends, so Brent's
method starts from those levels.  Fast-mode boundaries are sign changes
of the per-particle current along an interaction grid; a bracket whose
ends lie in different sectors is refined as such a level crossing.  Each
refined root is checked on every block, solved once there: no third
sector in the ground and, for boundaries, blocks Q1 and Q2 carrying the
current signs of their ends.  A bracket that fails the check, a boundary
bracket inside one sector or with a degenerate end, and crossings of
polarized fermions (closed forms, no blocks) are bisected on the full
ground-state label instead.
"""

from __future__ import annotations

import math
import numbers
import sys
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
        for name, value in (("minimum", self.minimum),
                            ("maximum", self.maximum)):
            if not math.isfinite(value):
                raise DomainError(f"{name}: must be finite, got {value!r}")
        if (isinstance(self.points, bool)
                or not isinstance(self.points, numbers.Integral)):
            raise DomainError(f"points: must be an integer, got "
                              f"{self.points!r}")
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


def _solve(blocks: tuple[SectorBlock, ...], ring: RingSpec, u: float,
           degeneracy_tol: float, tol: float, options: SolverOptions
           ) -> dict[int, tuple[SectorBlock, np.ndarray, np.ndarray]]:
    """Each block's lowest level, its copies and the next level above,
    with their vectors, keyed by the block's sector."""
    amp = hopping_amplitude(ring)
    solved = {}
    for block in blocks:
        levels, vectors, _ = _lowest_levels(block.operator(amp, u), 1, tol,
                                            degeneracy_tol, options)
        solved[block.q] = (block, levels, vectors)
    return solved


def _lowest(solved: dict) -> dict[int, float]:
    """Each solved block's lowest level."""
    return {q: levels[0] for q, (_, levels, _) in solved.items()}


def _ground(solved: dict, degeneracy_tol: float
            ) -> tuple[np.ndarray, list[tuple[SectorBlock, np.ndarray]]]:
    """The solved blocks' levels merged by value, and the ground multiplet
    among them as (block, vector) pairs."""
    values = np.concatenate([levels for _, levels, _ in solved.values()])
    pairs = [(block, vector) for block, _, vectors in solved.values()
             for vector in vectors.T]
    order = np.argsort(values, kind="stable")
    members = order[:_level_end(values[order], 1, degeneracy_tol)]
    return values[order], [pairs[i] for i in members]


def _mean_current(ring: RingSpec, members: list) -> float:
    """Total current of a multiplet given as (block, vector) pairs."""
    # The multiplet's current is a trace over its span, so any orthonormal
    # basis of it gives the same mean.
    amp = forward_hop_amplitude(ring)
    return float(np.mean([block.operator(amp).expectation(vector)
                          for block, vector in members]))


def _block_row(ring: RingSpec, species: SpeciesSpec, solved: dict,
               control_value: float, degeneracy_tol: float) -> SweepRow:
    values, members = _ground(solved, degeneracy_tol)
    total = _mean_current(ring, members)
    labels = tuple(sorted(block.q for block, _ in members))
    n_particles = particle_count(species)
    target = (n_particles * (ring.n_sites // 4)) % ring.n_sites
    return SweepRow(
        control_value=control_value,
        omega=ring.omega,
        u=getattr(species, "u", 0.0),
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
            solved = _solve(blocks, ring, getattr(species, "u", 0.0),
                            degeneracy_tol, tol, options)
            return _block_row(ring, species, solved, float(value),
                              degeneracy_tol)
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

    Labels each grid point by the sector of its lowest block level and
    brackets every label change.  A grid point whose ground multiplet
    spans several blocks sits on an exact crossing and is no bracket end.
    A bracket from sector Q1 to Q2 is refined by Brent's method on
    E_Q1 - E_Q2, the difference of the two blocks' lowest levels, to
    within ``spec.bisection_tol / 4``.  If every block solved at that root
    puts a third sector in the ground multiplet, the bracket is bisected
    on the full ground-state label down to ``spec.bisection_tol`` instead,
    which finds its first label change.  Polarized fermions (closed forms,
    no blocks) are always bisected.
    """
    if not isinstance(spec.control, OmegaGrid):
        raise DomainError("control: crossing detection scans the drive "
                          "frequency; use an OmegaGrid")
    blocks = _sector_blocks(spec, workers)
    by_q = {block.q: block for block in blocks or ()}
    u = getattr(spec.species, "u", 0.0)

    def solve_at(omega: float, among=blocks) -> dict:
        return _solve(among, spec.ring.with_omega(float(omega)), u,
                      degeneracy_tol, tol, options)

    def label_at(omega: float) -> tuple[int, bool, dict | None]:
        """Sector of the lowest level, whether the ground ties blocks, and
        each block's lowest level."""
        if blocks is None:
            ring = spec.ring.with_omega(float(omega))
            left, _, _ = analytic.polarized_occupation_limits(
                spec.species.n_particles, ring)
            return sum(s.n for s in left) % ring.n_sites, False, None
        solved = solve_at(omega)
        _, members = _ground(solved, degeneracy_tol)
        sectors = {block.q for block, _ in members}
        return members[0][0].q, len(sectors) > 1, _lowest(solved)

    def refine(lo: tuple, hi: tuple) -> float:
        (w_lo, label_lo, _, lowest_lo), (w_hi, label_hi, _, lowest_hi) = lo, hi
        if blocks is not None:
            found = _level_crossing(solve_at, w_lo, w_hi, by_q[label_lo],
                                    by_q[label_hi], (lowest_lo, lowest_hi),
                                    spec.bisection_tol / 4, degeneracy_tol)
            if found is not None:
                return found[0]
        return _bisect_crossing(w_lo, w_hi, label_lo,
                                lambda w: label_at(w)[0], spec.bisection_tol)

    labeled = [(float(w), *label_at(w)) for w in spec.control.values()]
    ends = [point for point in labeled if not point[2]]
    return tuple(refine(lo, hi) for lo, hi in zip(ends, ends[1:])
                 if lo[1] != hi[1])


def _brent(f, lo: float, hi: float, f_lo: float, f_hi: float,
           xtol: float) -> float:
    """A sign change of f in [lo, hi], given f_lo = f(lo) and f_hi = f(hi)
    of opposite signs, to within xtol + 4*eps*|x|.

    Brent's method in the form of netlib's ``zeroin``: an inverse
    quadratic or secant step where it shrinks the bracket fast enough, a
    bisection step otherwise (Brent, *Algorithms for Minimization without
    Derivatives*, Prentice-Hall 1973, ch. 4).  The eps*|x| term keeps
    every step at least one ulp long, so any xtol > 0 terminates.
    """
    a, fa, b, fb = lo, f_lo, hi, f_hi
    c, fc, d, e = a, fa, b - a, b - a
    while True:
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        slack = 2.0 * sys.float_info.epsilon * abs(b) + 0.5 * xtol
        half = 0.5 * (c - b)
        if abs(half) <= slack or fb == 0.0:
            return float(b)
        if abs(e) >= slack and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = abs(p), -q if p > 0 else q
            if 2.0 * p < min(3.0 * half * q - abs(slack * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > slack else math.copysign(slack, half)
        fb = f(b)
        if (fb > 0) == (fc > 0):
            c, fc, d, e = a, fa, b - a, b - a


def _level_crossing(solve_at, lo: float, hi: float, lower: SectorBlock,
                    upper: SectorBlock, ends: tuple[dict, dict],
                    xtol: float, degeneracy_tol: float
                    ) -> tuple[float, dict] | None:
    """Where the lowest levels of blocks ``lower`` (the ground at lo) and
    ``upper`` (the ground at hi) cross, by Brent's method on their
    difference, and every block solved there; None when the ground there
    holds a sector of neither.  ``ends`` are each block's lowest level at
    lo and at hi, which the grid has already solved."""
    def split(lowest: dict) -> float:
        return lowest[lower.q] - lowest[upper.q]

    root = _brent(lambda x: split(_lowest(solve_at(x, (lower, upper)))),
                  lo, hi, split(ends[0]), split(ends[1]), xtol)
    solved = solve_at(root)
    _, members = _ground(solved, degeneracy_tol)
    if {block.q for block, _ in members} <= {lower.q, upper.q}:
        return root, solved
    return None


def _bisect_crossing(lo, hi, label_lo, label_at, bisection_tol) -> float:
    # Any label but the low end's moves the high end, so a third sector
    # inside the bracket is chased to the first change.  A tolerance below
    # the spacing of floats there stops when no float lies between the ends.
    mid = 0.5 * (lo + hi)
    while hi - lo > bisection_tol and lo < mid < hi:
        if label_at(mid) == label_lo:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def fast_mode_boundary(spec: SweepSpec, workers: int = 1, tol: float = 1e-10,
                       degeneracy_tol: float = DEGENERACY_TOL,
                       options: SolverOptions = DEFAULT_OPTIONS,
                       ) -> tuple[BoundaryPoint, ...]:
    """Interactions where the ground-state current changes sign.

    Runs the interaction sweep and brackets every strict sign change of
    the per-particle current.  When the ends of a bracket have one-state
    grounds in different sectors Q1 and Q2, the bracket is refined by
    Brent's method on E_Q1 - E_Q2 to within ``spec.bisection_tol / 4``,
    and the root is accepted if the ground there holds no other sector
    and the lowest states of blocks Q1 and Q2 there carry the current
    signs of the low and the high end.  Any other bracket (both ends in
    one sector, or a degenerate end), or one whose check fails, is
    bisected on the sign of the full ground-state current to
    ``bisection_tol``.
    """
    if not isinstance(spec.control, InteractionGrid):
        raise DomainError("control: boundary detection scans the "
                          "interaction; use an InteractionGrid")
    if not isinstance(spec.species, Fermions):
        raise DomainError(f"species: boundary detection needs Fermions, "
                          f"got {type(spec.species).__name__}")
    blocks = _sector_blocks(spec, workers)
    by_q = {block.q: block for block in blocks}
    ring = spec.ring.with_omega(spec.control.omega)
    eps = FAST_CURRENT_EPS * spec.ring.t
    n_particles = particle_count(spec.species)

    def solve_at(u: float, among=blocks) -> dict:
        return _solve(among, ring, float(u), degeneracy_tol, tol, options)

    def row_at(u: float, solved: dict) -> SweepRow:
        return _block_row(*_point_parameters(spec, u), solved, float(u),
                          degeneracy_tol)

    def sign(per_particle_current: float) -> int:
        """Sign of a per-particle current, 0 within eps of zero."""
        return (int(per_particle_current > eps)
                - int(per_particle_current < -eps))

    def block_sign(solved: dict, q: int) -> int:
        """Sign of the current of block q's lowest level."""
        _, members = _ground({q: solved[q]}, degeneracy_tol)
        return sign(_mean_current(ring, members) / n_particles)

    def refine(i: int) -> float:
        lo, hi, s_lo = us[i], us[i + 1], signs[i]
        sectors_lo, sectors_hi = rows[i].sectors, rows[i + 1].sectors
        if (len(sectors_lo) == len(sectors_hi) == 1
                and sectors_lo != sectors_hi):
            found = _level_crossing(
                solve_at, lo, hi, by_q[sectors_lo[0]], by_q[sectors_hi[0]],
                (lowest[i], lowest[i + 1]), spec.bisection_tol / 4,
                degeneracy_tol)
            if found is not None:
                root, solved = found
                if (block_sign(solved, sectors_lo[0]) == s_lo
                        and block_sign(solved, sectors_hi[0]) == signs[i + 1]):
                    return root
        return _bisect_crossing(
            lo, hi, s_lo,
            lambda u: sign(row_at(u, solve_at(u)).per_particle_current),
            spec.bisection_tol)

    us = [float(u) for u in spec.control.values()]
    rows, lowest = [], []
    for u in us:
        solved = solve_at(u)
        rows.append(row_at(u, solved))
        lowest.append(_lowest(solved))
    signs = [sign(row.per_particle_current) for row in rows]
    boundaries = []
    for i in range(len(us) - 1):
        s_lo, s_hi = signs[i], signs[i + 1]
        if s_lo == 0:
            continue
        if s_hi == 0:
            # Exact zero on the grid: the neighbor beyond tells the side.
            after = next((s for s in signs[i + 1:] if s != 0), -s_lo)
            if after != s_lo:
                boundaries.append(BoundaryPoint(us[i + 1], s_lo, after))
            continue
        if s_lo != s_hi:
            boundaries.append(BoundaryPoint(refine(i), s_lo, s_hi))
    return tuple(boundaries)
