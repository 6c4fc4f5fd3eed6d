"""Parameter scans: drive-frequency grids, interaction grids, crossing and
boundary refinement.

Each call solves on the translation-sector blocks of one basis
(:func:`ringlat.hamiltonian.sector_blocks`), split into their spin-flip
halves for fermions with n_up = n_down, so each ground-state member
carries its block's exact sector.  A call knows each block by its
position in the system's block tuple; rows and labels name only sectors.
The blocks do not depend on t, K, omega or u, so a process keeps those
of the two most recently scanned systems, keyed by n_sites, the species
type and its particle counts, and every call on one of them reuses its
blocks (127 MB for 4+4 fermions on 12 sites).  A grid point solves only
the blocks that can reach the levels its caller reads, by Weyl's
inequality: each block's lowest level lies above its plane-wave floor,
the exact u = 0 level from the block's plane-wave lines plus the least
contact energy, and moves between two points by at most the control step
times the block's slope.  A row reads the ground multiplet and the
second level, so a block whose bound lies above both is skipped; a
search label reads the ground multiplet alone, so a search solve skips
every block whose bound lies above it, from the first point on (see
:func:`_grid_point`).  A dense block that the bounds do not rule out is
first tried for a certificate: one Cholesky factorization of its matrix
shifted just above the skip limit, which, if it completes, proves every
level of the block above that limit with room for rounding, and the
block is skipped unsolved (see :func:`_solve`).  A block of at most
``DENSE_THRESHOLD`` states keeps its hop matrix as a dense array, so its
matrix at any point is one complex product and its current one quadratic
form (:class:`~ringlat.hamiltonian.SectorBlock`).  A Krylov block is
solved in two stages, its main ARPACK run and then its lock loop, and
the second stage is screened by the same rule, with the first stage's
theta_1 - r_1 as the bound (see :func:`_solve`).  Rows and labels are
those of a solve of every block.  Points run serially (``workers`` is
recorded only for compatibility), in order of the control value, so a
sweep with the same spec is reproducible bit for bit; a failed point is
recorded in its row.
One walk over the grid feeds the rows and a search alike, so
``ringlat sweep --refine`` solves each grid point once, with the row's
screen (:func:`_scan`); its refinement solves use the label's.

Both searches bracket a change of a grid-point label between neighboring
grid points: the sector of the lowest block level for a level crossing,
the sign of the per-particle current for a fast-mode boundary.  One
refiner serves both, under one rule.  When each end's ground lies in one
block and the two blocks Q1 and Q2 differ, the bracket holds a root of
the smooth function E_Q1 - E_Q2 of the two blocks' lowest levels, which
Brent's method finds to a quarter of ``bisection_tol`` while solving only
those two blocks at each step, starting from the levels the grid solved
at the ends (an end where the screen skipped Q1 or Q2 solves it then).
The root is solved once, screened, with Q1 and Q2 taken from Brent's
step there (or solved, at a bracket end), and kept if the ground there
holds no third block and each end's block alone carries that end's
label.  Every other bracket, and every crossing of polarized fermions
(closed forms, no blocks), is bisected on the full label.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import numbers
import sys
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .basis import enumerate_basis
from .eigen import (
    DEFAULT_OPTIONS,
    DEGENERACY_TOL,
    ConvergenceError,
    SolverOptions,
    _certified_above,
    _check_tolerances,
    _dense_levels,
    _krylov,
    _level_end,
    _level_stages,
)
from .hamiltonian import SectorBlock, hopping_amplitude, sector_blocks
from .model import (
    DomainError,
    Fermions,
    PolarizedFermions,
    RingSpec,
    SpeciesSpec,
    make_ring,
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
        if not 0 < self.bisection_tol < math.inf:
            raise DomainError(f"bisection_tol: must be finite and > 0, "
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
    """The spec's sector blocks, kept per system (:func:`_system_blocks`);
    None for polarized fermions (closed forms)."""
    if workers < 1:
        raise DomainError(f"workers: must be at least 1, got {workers}")
    validate_species(spec.species, spec.ring)
    if isinstance(spec.species, PolarizedFermions):
        if isinstance(spec.control, InteractionGrid):
            raise DomainError("control: polarized fermions carry no "
                              "interaction to scan")
        return None
    return _system_blocks(spec.ring.n_sites, replace(spec.species, u=0.0))


@functools.lru_cache(maxsize=2)
def _system_blocks(n_sites: int,
                   species: SpeciesSpec) -> tuple[SectorBlock, ...]:
    """The sector blocks of ``species`` (at u = 0) on ``n_sites`` sites.

    The blocks hold the hops at unit amplitude and the contact energies at
    unit coupling, so they serve every t, K, omega and u; their arrays are
    read-only.  A failed build raises and is not cached.
    """
    return sector_blocks(enumerate_basis(make_ring(n_sites), species))


def _point_parameters(spec: SweepSpec, value: float) -> tuple[RingSpec, SpeciesSpec]:
    if isinstance(spec.control, OmegaGrid):
        return spec.ring.with_omega(float(value)), spec.species
    return (spec.ring.with_omega(spec.control.omega),
            replace(spec.species, u=float(value)))


# Rounding allowance of the screen's bounds, relative to their scale.
_SLOPE_PAD = 1 + 8 * sys.float_info.epsilon
_FLOOR_PAD = 32 * sys.float_info.epsilon


def _slopes(blocks: tuple[SectorBlock, ...], ring: RingSpec,
            control: SweepControl) -> tuple[np.ndarray, np.ndarray]:
    """(down, up), in block order: how far a falling and a rising control
    of the kind of ``control`` can lower each block's lowest level, per
    unit of the control.

    dH/d omega restricted to a block has spectrum exactly {K B_c} over its
    plane-wave lines (:func:`~ringlat.hamiltonian.plane_wave_lines`), so by
    Weyl a rising omega lowers the level by at most max(0, -min K B_c) per
    unit and a falling omega by at most max(0, max K B_c).  The factor
    1 + 8 eps covers the rounding of the lines.  dH/du is the block's
    contact energies D >= 0, so a falling u lowers the level by at most
    max D per unit and a rising u never lowers it.
    """
    if isinstance(control, InteractionGrid):
        down = np.array([float(block.interaction.max()) for block in blocks])
        return down, np.zeros(len(blocks))
    down, up = [], []
    for block in blocks:
        ends = (ring.k_factor * float(block.lines_drive.min()),
                ring.k_factor * float(block.lines_drive.max()))
        down.append(max(0.0, *ends) * _SLOPE_PAD)
        up.append(max(0.0, -min(ends)) * _SLOPE_PAD)
    return np.array(down), np.array(up)


def _plane_wave_floors(blocks: tuple[SectorBlock, ...], n_particles: int
                       ) -> Callable[[RingSpec, float], np.ndarray]:
    """A function of (ring, u) giving, in block order, each block's
    plane-wave floor F_q, a lower bound on its lowest level.

    At u = 0 block q's lowest level is exactly min_c (t A_c + omega K B_c)
    over its plane-wave lines, and its contact energies D_q are diagonal,
    so by Weyl the level is at least F_q = that minimum + min(u min D_q,
    u max D_q).  F_q is lowered by 32 eps times 2 N_p (|t| + |omega K|) +
    |u| max D_q, a bound on the block's norm, which covers the rounding of
    the lines, of the block's entries and of their sums.  The minimum over
    the lines depends only on t and omega K, so an interaction grid takes
    it once per call.
    """
    starts = np.cumsum([0] + [len(block.lines_t) for block in blocks[:-1]])
    lines_t = np.concatenate([block.lines_t for block in blocks])
    lines_drive = np.concatenate([block.lines_drive for block in blocks])
    low = np.array([block.interaction.min() for block in blocks])
    high = np.array([block.interaction.max() for block in blocks])

    @functools.lru_cache(maxsize=1)
    def minima(t: float, drive: float) -> np.ndarray:
        return np.minimum.reduceat(t * lines_t + drive * lines_drive, starts)

    def floors(ring: RingSpec, u: float) -> np.ndarray:
        drive = ring.omega * ring.k_factor
        reach = 2 * n_particles * (abs(ring.t) + abs(drive)) + abs(u) * high
        return (minima(ring.t, drive) + np.minimum(u * low, u * high)
                - _FLOOR_PAD * reach)

    return floors


def _solve(blocks: tuple[SectorBlock, ...], among: Iterable[int],
           ring: RingSpec, u: float, degeneracy_tol: float, tol: float,
           options: SolverOptions, floors: list[float] | None,
           record: Callable[..., None],
           known: dict | None = None, levels: int = 2
           ) -> dict[int, tuple[SectorBlock, np.ndarray, np.ndarray]]:
    """The lowest level, its copies and the next level above, with their
    vectors, of each block of ``blocks`` at the positions ``among``,
    keyed by position in ascending order.

    ``floors`` holds, per position, a proven lower bound on the block's
    lowest level, or -inf where none is known; None solves every block in
    full.  ``known`` holds blocks already solved at this point, in the
    form returned, which are taken as they are.  One queue, in ascending
    bound, holds two kinds of item: a block not yet solved, at its floor,
    and a Krylov block whose main run gave its lowest level theta_1 with
    residual r_1 (stage 1 of :func:`~ringlat.eigen._level_stages`), at
    theta_1 - r_1, waiting for its lock loop (stage 2).  A dense block is
    solved in one stage.  ``levels`` is how many levels the caller reads:
    2 for a row (the ground multiplet and the second level, for its gap),
    1 for a search label (the ground multiplet alone).  Once that many
    levels are known, an item is skipped if its bound lies above the top
    of the ground multiplet, and for ``levels`` = 2 also above the second
    level, by more than ``degeneracy_tol`` plus the accuracy
    ``tol * max(1, |E|)`` of an accepted solve (:func:`_reach`): no level
    of its block could join the ground multiplet, or be the second level.
    With the screen on, a dense block that is not skipped is first tried
    for a certificate (:func:`_block_stages`): if one Cholesky
    factorization proves its every level above the float just above that
    limit, it goes back into the queue at that bound instead of being
    solved.  There it is skipped in turn, unless a level solved meanwhile
    has raised the limit to it; then it is tried again.  Since the bounds
    ascend, every item after the first skipped one is skipped too.
    ``record(i, bound, outcome)`` receives each solved block's lowest level
    minus its residual, with outcome "solved" (one stage) or "locked"
    (lock loop run), and each skipped item's bound, with outcome "skipped"
    (block not solved) or "lock skipped" (main run only).
    """
    amp = hopping_amplitude(ring)
    solved = dict(known or {})
    values = np.sort(np.concatenate(
        [np.empty(0), *(found for _, found, _ in solved.values())]))
    queue = [(-math.inf if floors is None else floors[i], i, None)
             for i in among if i not in solved]
    heapq.heapify(queue)
    reach = _reach(values, degeneracy_tol, tol, levels)
    while queue:
        bound, i, stages = heapq.heappop(queue)
        if floors is not None and bound > reach:
            record(i, bound, "skipped" if stages is None else "lock skipped")
            continue
        locking = stages is not None
        if stages is None:
            above = (math.inf if floors is None
                     else math.nextafter(reach, math.inf))
            stages = _block_stages(blocks[i], amp, u, tol, degeneracy_tol,
                                   options, above)
        stage = next(stages, None)
        if stage is None:
            # Certified above ``above``: the block waits there, skipped
            # unless a level solved later raises the reach to it.
            heapq.heappush(queue, (above, i, None))
            continue
        found, vectors, residuals, final = stage
        low = float(found[0] - residuals[0])
        if not final:
            heapq.heappush(queue, (low, i, stages))
            continue
        record(i, low, "locked" if locking else "solved")
        solved[i] = (blocks[i], found, vectors)
        values = np.sort(np.concatenate([values, found]))
        reach = _reach(values, degeneracy_tol, tol, levels)
    return dict(sorted(solved.items()))


def _block_stages(block: SectorBlock, amp: complex, u: float, tol: float,
                  degeneracy_tol: float, options: SolverOptions,
                  above: float):
    """The solve of one block at hopping amplitude ``amp`` and interaction
    u, in the stages of :func:`~ringlat.eigen._level_stages`.  A block
    solved densely (at most ``options.dense_threshold`` states) gives its
    one final stage from its dense matrix, with no sparse matrix built,
    or no stage at all where one Cholesky factorization of that matrix
    proves its every level above ``above``
    (:func:`~ringlat.eigen._certified_above`)."""
    if _krylov(block.dimension, 1, options):
        return _level_stages(block.operator(amp, u), 1, tol, degeneracy_tol,
                             options)
    dense = block.dense(amp, u)
    if _certified_above(dense, above):
        return iter(())
    return iter([(*_dense_levels(dense, 1, tol, degeneracy_tol), True)])


def _reach(values: np.ndarray, degeneracy_tol: float, tol: float,
           levels: int) -> float:
    """The bound above which :func:`_solve` skips an item, given the
    ascending levels known and the number of levels the caller reads: the
    top of the ground multiplet (``levels`` = 1), or the larger of that
    and the second level (``levels`` = 2), plus ``degeneracy_tol`` and
    ``tol * max(1, |E|)``; inf while fewer than ``levels`` levels are
    known."""
    if len(values) < levels:
        return math.inf
    limit = values[_level_end(values, 1, degeneracy_tol) - 1]
    if levels == 2:
        limit = max(values[1], limit)
    return limit + degeneracy_tol + tol * max(1.0, abs(limit))


def _ground(solved: dict, degeneracy_tol: float
            ) -> tuple[np.ndarray, list[tuple[int, SectorBlock, np.ndarray]]]:
    """The solved blocks' levels merged by value, and the ground multiplet
    among them as (position, block, vector) triples."""
    values = np.concatenate([levels for _, levels, _ in solved.values()])
    pairs = [(i, block, vector) for i, (block, _, vectors) in solved.items()
             for vector in vectors.T]
    order = np.argsort(values, kind="stable")
    members = order[:_level_end(values[order], 1, degeneracy_tol)]
    return values[order], [pairs[i] for i in members]


def _ground_sectors(solved: dict, degeneracy_tol: float) -> set[int]:
    """Sectors of the solved blocks' ground multiplet."""
    return {block.q for _, block, _ in _ground(solved, degeneracy_tol)[1]}


def _ground_positions(solved: dict, degeneracy_tol: float) -> set[int]:
    """Positions of the blocks that hold the solved blocks' ground
    multiplet."""
    return {i for i, _, _ in _ground(solved, degeneracy_tol)[1]}


def _mean_current(ring: RingSpec, members: list) -> float:
    """Total current of a multiplet given as (position, block, vector)
    triples."""
    # The multiplet's current is a trace over its span, so any orthonormal
    # basis of it gives the same mean.  Each vector's expectation is one
    # quadratic form in X (SectorBlock.hop_expectation): 4 against 12 us
    # for a dense J at 54 states.
    amp = forward_hop_amplitude(ring)
    return float(np.mean([
        block.hop_expectation(amp, vector)
        for _, block, vector in members]))


def _per_particle_current(spec: SweepSpec, value: float, solved: dict,
                          degeneracy_tol: float) -> float:
    """The per-particle current of the solved blocks' ground multiplet at
    a control value, as in its :class:`SweepRow`; it reads no other
    level."""
    ring, species = _point_parameters(spec, value)
    return (_mean_current(ring, _ground(solved, degeneracy_tol)[1])
            / particle_count(species))


def _block_row(ring: RingSpec, species: SpeciesSpec, solved: dict,
               control_value: float, degeneracy_tol: float) -> SweepRow:
    values, members = _ground(solved, degeneracy_tol)
    total = _mean_current(ring, members)
    labels = tuple(sorted(block.q for _, block, _ in members))
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


def _grid_point(spec: SweepSpec, workers: int, tol: float,
                degeneracy_tol: float, options: SolverOptions, search=None,
                tally: Counter | None = None):
    """The grid-point path of one scan, as three functions, after the
    checks of ``search`` (:func:`_crossings` or :func:`_boundaries`).

    ``solve(value, among, known, levels)`` solves the blocks at the
    positions ``among`` in full at a control value and returns them keyed
    by position, or None for polarized fermions; ``known`` passes blocks
    already solved there and ``levels`` is the number of levels the
    caller reads, 2 for a row and 1 for a search label (see
    :func:`_solve`).  ``row(value, solved)`` builds the point's
    :class:`SweepRow` from a solve with ``levels`` = 2.
    ``points(levels)``, the one walk over the grid, solves the grid values
    in order, lazily, and yields (value, solved, None), or (value, None,
    error) where the solve raised.  ``tally``, if given, counts the
    outcomes that :func:`_solve` records.

    With ``among`` left out, ``solve`` screens every block, at bound
    max(ledger bound, F_q).  F_q is the block's plane-wave floor
    (:func:`_plane_wave_floors`), which holds from the first point on.
    The ledger, kept for the call, holds per block a control value x0 and
    a bound l on the block's lowest level there, -inf until the block is
    first solved or skipped.  Each block is affine in the control, so at
    x its lowest level is at least l - (x0 - x) * down - (x - x0) * up,
    with the block's slopes (:func:`_slopes`), and only the positive part
    of each step counts.  :func:`_solve` then skips every block, and the
    lock loop of every Krylov block, that cannot reach the ground
    multiplet or, for a row, the second level, so the rows and labels are
    those of a solve of every block.  Each solve or skip records its
    bound in the ledger, under either screen, since a skip bound is a
    lower bound too; a block whose solve raises a ConvergenceError keeps
    its entry.
    """
    if search is _crossings and not isinstance(spec.control, OmegaGrid):
        raise DomainError("control: crossing detection scans the drive "
                          "frequency; use an OmegaGrid")
    if search is _boundaries and not isinstance(spec.control, InteractionGrid):
        raise DomainError("control: boundary detection scans the "
                          "interaction; use an InteractionGrid")
    if search is _boundaries and not isinstance(spec.species, Fermions):
        raise DomainError(f"species: boundary detection needs Fermions, "
                          f"got {type(spec.species).__name__}")
    blocks = _sector_blocks(spec, workers)
    _check_tolerances(tol, degeneracy_tol)
    tally = Counter() if tally is None else tally
    if blocks is not None:
        down, up = _slopes(blocks, spec.ring, spec.control)
        plane = _plane_wave_floors(blocks, particle_count(spec.species))
        x0, ledger = np.zeros(len(blocks)), np.full(len(blocks), -math.inf)

    def solve(value: float, among=None, known=None,
              levels: int = 2) -> dict | None:
        if blocks is None:
            return None
        ring, species = _point_parameters(spec, value)
        u = getattr(species, "u", 0.0)

        def record(i: int, low: float, outcome: str) -> None:
            tally[outcome] += 1
            x0[i], ledger[i] = value, low

        # A drive near the float limit overflows the floors and the block
        # entries; the solve then fails on its finiteness or residual check.
        with np.errstate(over="ignore", invalid="ignore"):
            if among is None:
                among = range(len(blocks))
                stepped = (ledger - np.maximum(x0 - value, 0.0) * down
                           - np.maximum(value - x0, 0.0) * up)
                floor = plane(ring, u)
                # max(stepped, floor) as Python's max takes it: a NaN
                # ledger bound is kept and a NaN floor dropped.
                floors = np.where(floor > stepped, floor, stepped).tolist()
            else:
                floors = None
            return _solve(blocks, among, ring, u, degeneracy_tol, tol,
                          options, floors, record, known=known, levels=levels)

    def row(value: float, solved: dict | None) -> SweepRow:
        ring, species = _point_parameters(spec, value)
        if solved is None:
            return _polarized_row(ring, species, float(value))
        return _block_row(ring, species, solved, float(value), degeneracy_tol)

    def points(levels: int):
        for value in map(float, spec.control.values()):
            try:
                yield value, solve(value, levels=levels), None
            except ConvergenceError as error:
                yield value, None, error

    return solve, row, points


def run(spec: SweepSpec, workers: int = 1, tol: float = 1e-10,
        degeneracy_tol: float = DEGENERACY_TOL,
        options: SolverOptions = DEFAULT_OPTIONS) -> SweepResult:
    """Solve the ground state and measure currents on every grid point."""
    return _scan(spec, workers, tol, degeneracy_tol, options)[0]


def _scan(spec: SweepSpec, workers: int, tol: float, degeneracy_tol: float,
          options: SolverOptions, search=None) -> tuple[SweepResult, object]:
    """One pass over the grid: :func:`run`'s result, and what ``search``
    returns from the same points as they are solved, or the
    ConvergenceError it raised; the pass then finishes the rows.  The
    provenance's ``solver_summary`` counts the pass's block solves (main
    runs, a failed one left out), skipped blocks, and lock loops run and
    skipped."""
    tally = Counter()
    _, row, points = grid = _grid_point(spec, workers, tol, degeneracy_tol,
                                        options, search, tally)
    rows = []

    def recorded():
        for value, solved, error in points(2):
            rows.append(row(value, solved) if error is None else _failed_row(
                *_point_parameters(spec, value), value, error))
            yield value, solved, error

    source = recorded()
    try:
        found = search(spec, grid, degeneracy_tol, source) if search else None
    except ConvergenceError as error:
        found = error
    for _ in source:
        pass

    provenance = {
        "ring": {"n_sites": spec.ring.n_sites, "t": spec.ring.t,
                 "k_factor": spec.ring.k_factor, "omega": spec.ring.omega},
        "species": repr(spec.species),
        "control": repr(spec.control),
        "solver": {"tol": tol, "degeneracy_tol": degeneracy_tol,
                   "dense_threshold": options.dense_threshold,
                   "seed": options.seed},
        "workers": workers,
        "solver_summary": {
            "block_solves": tally["solved"] + tally["locked"]
            + tally["lock skipped"],
            "blocks_skipped": tally["skipped"],
            "lock_loops_run": tally["locked"],
            "lock_loops_skipped": tally["lock skipped"]},
    }
    return SweepResult(spec=spec, rows=tuple(rows),
                       provenance=provenance), found


def find_crossings(spec: SweepSpec, workers: int = 1, tol: float = 1e-10,
                   degeneracy_tol: float = DEGENERACY_TOL,
                   options: SolverOptions = DEFAULT_OPTIONS) -> tuple[float, ...]:
    """Drive frequencies where the ground state changes symmetry sector.

    Labels each grid point by the sector of its lowest block level and
    brackets every label change.  A grid point whose ground multiplet
    spans several sectors sits on an exact crossing and is no bracket end.
    Each bracket is refined as the module docstring describes, to within
    ``spec.bisection_tol`` of the label change.  Polarized fermions are
    labelled by the sector of the lowest Fermi sea: grid points take
    levels within 1e-9 of each other as tied, like the sweep rows, but
    bisection steps order the levels exactly.
    """
    grid = _grid_point(spec, workers, tol, degeneracy_tol, options, _crossings)
    return _crossings(spec, grid, degeneracy_tol, grid[2](1))


def _crossings(spec: SweepSpec, grid: tuple, degeneracy_tol: float,
               points) -> tuple[float, ...]:
    """:func:`find_crossings` on ``points``; a failed point raises."""
    solve, row, _ = grid

    def label(omega: float, solved: dict | None) -> int:
        if solved is not None:
            return min(solved.values(), key=lambda entry: entry[1][0])[0].q
        ring = spec.ring.with_omega(omega)
        left, _, _ = analytic.polarized_occupation_limits(
            spec.species.n_particles, ring, tol=0.0)
        return sum(s.n for s in left) % ring.n_sites

    def ends():
        for omega, solved, error in points:
            if error is not None:
                raise error
            if solved is None:
                # The row's tie window keeps the grid's labels where two
                # Fermi levels differ by a few ulps, as at omega = 0.
                yield omega, None, row(omega, None).sectors[0]
            elif len(_ground_sectors(solved, degeneracy_tol)) == 1:
                yield omega, solved, label(omega, solved)

    return tuple(_refine(lo, hi, label, solve, degeneracy_tol,
                         spec.bisection_tol)
                 for lo, hi in itertools.pairwise(ends()) if lo[2] != hi[2])


def _refine(lo: tuple, hi: tuple, label, solve, degeneracy_tol: float,
            bisection_tol: float) -> float:
    """Where ``label(value, solved)`` changes between the grid points lo
    and hi, each a (value, solved, label) triple, by the rule of the
    module docstring: Brent's method on two blocks to ``bisection_tol / 4``
    if its root passes the check, else bisection to ``bisection_tol``,
    which finds the bracket's first label change.
    """
    (x_lo, solved_lo, label_lo), (x_hi, solved_hi, label_hi) = lo, hi
    # Each label reads only the ground multiplet.
    solve = functools.partial(solve, levels=1)
    if solved_lo is not None:
        ground_lo = _ground_positions(solved_lo, degeneracy_tol)
        ground_hi = _ground_positions(solved_hi, degeneracy_tol)
        if len(ground_lo) == len(ground_hi) == 1 and ground_lo != ground_hi:
            (i_lo,), (i_hi,) = ground_lo, ground_hi
            pair = (i_lo, i_hi)

            def with_pair(x: float, solved: dict) -> dict:
                """``solved`` at x, with any of the two blocks that the
                screen skipped there solved now."""
                missing = [i for i in pair if i not in solved]
                return {**solved, **solve(x, missing)} if missing else solved

            def split(solved: dict) -> float:
                return solved[i_lo][1][0] - solved[i_hi][1][0]

            steps = {}

            def step(x: float) -> float:
                steps[x] = solve(x, pair)
                return split(steps[x])

            root = _brent(step, x_lo, x_hi, split(with_pair(x_lo, solved_lo)),
                          split(with_pair(x_hi, solved_hi)),
                          bisection_tol / 4)
            # Brent returns one of its steps, or else a bracket end, where
            # with_pair solves whichever of the two blocks the screen skips.
            solved = with_pair(root, solve(root, known=steps.get(root)))
            if (_ground_positions(solved, degeneracy_tol) <= {i_lo, i_hi}
                    and label(root, {i_lo: solved[i_lo]}) == label_lo
                    and label(root, {i_hi: solved[i_hi]}) == label_hi):
                return root
    return _bisect_crossing(x_lo, x_hi, label_lo,
                            lambda x: label(x, solve(x)), bisection_tol)


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

    Labels each point of the interaction grid by the sign of its
    per-particle current and brackets every strict sign change, refined
    as the module docstring describes to within ``spec.bisection_tol``:
    by Brent's method when the ends have grounds in one block each, in
    different blocks, and the lowest states of those two blocks at the
    root carry the signs of their ends; by bisection otherwise.  A run of
    zero currents on the grid is a boundary at its first point when the
    sign after it differs from the sign before, or when it reaches the
    end of the grid.
    """
    grid = _grid_point(spec, workers, tol, degeneracy_tol, options,
                       _boundaries)
    return _boundaries(spec, grid, degeneracy_tol, grid[2](1))


def _boundaries(spec: SweepSpec, grid: tuple, degeneracy_tol: float,
                points) -> tuple[BoundaryPoint, ...]:
    """:func:`fast_mode_boundary` on ``points``; a failed point raises."""
    solve, _, _ = grid
    eps = FAST_CURRENT_EPS * spec.ring.t

    def label(u: float, solved: dict) -> int:
        """Sign of the per-particle current, 0 within eps of zero."""
        current = _per_particle_current(spec, u, solved, degeneracy_tol)
        return int(current > eps) - int(current < -eps)

    def labelled():
        for u, solved, error in points:
            if error is not None:
                raise error
            yield u, solved, label(u, solved)

    # zeros: the first point of a run of zero currents and the sign before.
    boundaries, zeros = [], None
    for lo, hi in itertools.pairwise(labelled()):
        s_lo, s_hi = lo[2], hi[2]
        if s_lo != 0 and s_hi == 0:
            zeros = (hi[0], s_lo)
        elif s_lo == 0 and s_hi != 0 and zeros:
            if s_hi != zeros[1]:
                boundaries.append(BoundaryPoint(*zeros, s_hi))
            zeros = None
        elif s_lo * s_hi < 0:
            root = _refine(lo, hi, label, solve, degeneracy_tol,
                           spec.bisection_tol)
            boundaries.append(BoundaryPoint(root, s_lo, s_hi))
    if zeros:
        # Zeros up to the end of the grid count as a sign change.
        boundaries.append(BoundaryPoint(*zeros, -zeros[1]))
    return tuple(boundaries)
