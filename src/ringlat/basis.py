"""Occupation-number bases for bosons and fermions on the ring.

A basis is the product of its spin components, each a read-only array
of rows with one particle count per site: bosons have one component,
whose rows are every way of spreading the particles over the sites;
fermions have an up and a down component, whose rows are 0/1 bits
(identical, polarized fermions have an empty down component).  The
basis lists the component rows' products in up-major order.  Library
states, built on first use, are occupation tuples for bosons and pairs
of bit masks for fermions, with bit i set when site i is occupied.
Fermion matrix elements take their sign from the reference ordering in
which creation operators are sorted by ascending site index within each
spin sector, all up operators to the left of all down operators.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import (
    Bosons,
    Fermions,
    RingSpec,
    SpeciesSpec,
    validate_species,
)

#: Default ceiling on the many-body dimension (keeps memory desk-scale).
MAX_DIMENSION = 2_000_000


class BasisSizeError(RuntimeError):
    """The requested basis exceeds the configured dimension cap."""


class FermionFockState(NamedTuple):
    up_mask: int
    down_mask: int


BosonFockState = tuple  # occupations per site, summing to the particle count

FockState = BosonFockState | FermionFockState


class HopTable(NamedTuple):
    """Every nonzero matrix element of the forward hops c+_{j+1} c_j.

    Entry i says that the hop across bond ``bonds[i]`` (site j to j+1,
    summed over spins) takes state ``cols[i]`` to state ``rows[i]`` with
    the real factor ``values[i]``: a fermion sign, or sqrt(n_j (n_{j+1}+1))
    for bosons.  Backward hops are the transposed entries.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    bonds: np.ndarray


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Enumerated many-body basis, as arrays.

    ``components`` holds one read-only (rows, n_sites) array of particle
    counts per spin component: the boson occupations in lexicographic
    order, or the up and then the down 0/1 rows of fermions in
    ``itertools.combinations`` order.  State k is the up-major product
    of one row of each.  ``occupations`` holds each state's particle
    count per site, summed over spin, as one read-only (dimension,
    n_sites) array: ``uint8`` for fermions, the smallest unsigned type
    that holds the particle count for bosons.  Hamiltonians and
    observables read occupation numbers from it, so only this module
    knows the Fock encoding.
    ``shift_perm``/``shift_sign`` cache the one-site translation as a
    signed permutation: state k maps to state ``shift_perm[k]`` with
    amplitude ``shift_sign[k]``.  ``reflect_perm``/``reflect_sign`` cache
    the site reflection j -> -j (mod N) the same way.  ``hops`` lists the
    forward hops once, so every ring bilinear on this basis is built from
    numpy arrays.
    ``states`` and the reverse index behind ``index_of`` are Python
    objects, built from ``components`` on first use and then kept.
    """

    n_sites: int
    species: SpeciesSpec
    dimension: int
    components: tuple[np.ndarray, ...] = field(repr=False)
    occupations: np.ndarray = field(repr=False)
    shift_perm: np.ndarray = field(repr=False)
    shift_sign: np.ndarray = field(repr=False)
    reflect_perm: np.ndarray = field(repr=False)
    reflect_sign: np.ndarray = field(repr=False)
    hops: HopTable = field(repr=False)

    @functools.cached_property
    def states(self) -> tuple[FockState, ...]:
        """Every state in basis order: occupation tuples for bosons,
        (up, down) mask pairs for fermions."""
        if isinstance(self.species, Bosons):
            return tuple(map(tuple, self.components[0].tolist()))
        ups, downs = ([int.from_bytes(row.tobytes(), "little") for row in
                       np.packbits(rows, axis=1, bitorder="little")]
                      for rows in self.components)
        return tuple(FermionFockState(up, down)
                     for up in ups for down in downs)

    @functools.cached_property
    def _positions(self) -> dict:
        return {state: k for k, state in enumerate(self.states)}

    def index_of(self, state: FockState) -> int:
        try:
            return self._positions[state]
        except KeyError:
            raise KeyError(f"state {state!r} is not in this basis") from None


def basis_dimension(ring: RingSpec, species: SpeciesSpec) -> int:
    n = ring.n_sites
    if isinstance(species, Bosons):
        return math.comb(species.n_particles + n - 1, n - 1)
    if isinstance(species, Fermions):
        return math.comb(n, species.n_up) * math.comb(n, species.n_down)
    return math.comb(n, species.n_particles)


def _combinations(n: int, k: int) -> np.ndarray:
    """``itertools.combinations(range(n), k)`` as a (comb(n, k), k) array."""
    return np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n), k)), dtype=np.int64,
        count=math.comb(n, k) * k).reshape(math.comb(n, k), k)


def _fermion_rows(n_sites: int, n_particles: int) -> np.ndarray:
    """0/1 rows of one spin, in ``itertools.combinations`` order."""
    positions = _combinations(n_sites, n_particles)
    rows = np.zeros((len(positions), n_sites), dtype=np.uint8)
    rows[np.arange(len(positions))[:, None], positions] = 1
    return rows


def _boson_rows(n_sites: int, n_particles: int) -> np.ndarray:
    """Occupation rows in lexicographic order, by stars and bars: the
    n_sites - 1 bars among n_particles + n_sites - 1 slots, taken in
    ``itertools.combinations`` order, leave the counts between them."""
    slots = n_particles + n_sites - 1
    bars = _combinations(slots, n_sites - 1)
    counts = np.diff(bars, axis=1, prepend=-1, append=slots) - 1
    return counts.astype(np.min_scalar_type(n_particles))


SignedPermutation = tuple[np.ndarray, np.ndarray]


def _component_tables(rows: np.ndarray, fermion: bool
                      ) -> tuple[SignedPermutation, SignedPermutation,
                                 HopTable]:
    """The shift, the reflection and the forward hops of one component,
    by row position.

    Each moved row is found by a binary search among the rows' bytes
    (Sandvik, arXiv:1101.3281, sec. 4).
    Fermion signs: with k particles, the shift moves the top-site
    operator to the front when it wraps, (-1)**(k-1), and so does the
    hop across the wrapping bond (any other hop passes no operator).  The
    reflection keeps site 0 first and reverses the order of the other k'
    occupied sites: (-1)**(k'(k'-1)/2).
    """
    n_sites = rows.shape[1]
    key = np.dtype((np.void, rows.itemsize * n_sites))
    keys = rows.view(key).ravel()
    order = np.argsort(keys)
    ordered = keys[order]

    def find(moved: np.ndarray) -> np.ndarray:
        return order[np.searchsorted(
            ordered, np.ascontiguousarray(moved).view(key).ravel())]

    exchange = -1.0 if fermion else 1.0
    count = rows.sum(axis=1, dtype=np.int64)
    rest = count - rows[:, 0]
    shift_sign = np.where(rows[:, -1] > 0, exchange ** (count - 1), 1.0)
    sites = np.arange(n_sites)
    shift = find(np.roll(rows, 1, axis=1)), shift_sign
    reflection = (find(rows[:, -sites % n_sites]),
                  exchange ** (rest * (rest - 1) // 2))

    dst = (sites + 1) % n_sites
    movable = rows > 0
    if fermion:
        movable &= rows[:, dst] == 0
    cols, bonds = np.nonzero(movable)
    entries, targets = np.arange(len(cols)), dst[bonds]
    moved = rows[cols]
    moved[entries, bonds] -= 1
    moved[entries, targets] += 1
    factor = np.sqrt(rows[cols, bonds].astype(np.int64)
                     * (rows[cols, targets].astype(np.int64) + 1))
    values = factor * np.where(bonds == n_sites - 1, shift_sign[cols], 1.0)
    return shift, reflection, HopTable(find(moved), cols, values, bonds)


def enumerate_basis(ring: RingSpec, species: SpeciesSpec,
                    max_dimension: int = MAX_DIMENSION) -> FockBasis:
    """Enumerate all Fock states of the species: boson occupations in
    lexicographic order, fermions up-major with each spin in
    ``itertools.combinations`` order."""
    validate_species(species, ring)
    dimension = basis_dimension(ring, species)
    if dimension > max_dimension:
        raise BasisSizeError(
            f"basis dimension {dimension} exceeds the cap {max_dimension}; "
            f"raise max_dimension explicitly if this is intentional")

    n = ring.n_sites
    fermion = not isinstance(species, Bosons)
    if not fermion:
        components = (_boson_rows(n, species.n_particles),)
    elif isinstance(species, Fermions):
        components = (_fermion_rows(n, species.n_up),
                      _fermion_rows(n, species.n_down))
    else:
        components = (_fermion_rows(n, species.n_particles),
                      _fermion_rows(n, 0))
    for rows in components:
        rows.setflags(write=False)

    # Fold the components in up-major order (Lin, PRB 42, 6561 (1990)):
    # the state of rows (a, c), with a in the basis so far and c in a
    # component of m rows, is a * m + c.  A hop in one component leaves
    # the other's row, and so its index, untouched; down operators stand
    # right of all up operators, so a down hop's sign depends on the
    # down row alone.
    def combine(left: SignedPermutation, right: SignedPermutation
                ) -> SignedPermutation:
        return (np.add.outer(left[0] * len(right[0]), right[0]).ravel(),
                np.multiply.outer(left[1], right[1]).ravel())

    def spread(hops: HopTable, stride: int, spectators: np.ndarray,
               out: HopTable, start: int) -> int:
        # State index = component index * stride + spectator offset, one
        # row of spectators per hop, written into ``out`` from ``start``
        # on; returns where the next component's hops start.
        shape = (len(hops.rows), len(spectators))
        stop = start + shape[0] * shape[1]
        rows, cols, values, bonds = (array[start:stop].reshape(shape)
                                     for array in out)
        np.add.outer(hops.rows * stride, spectators, out=rows)
        np.add.outer(hops.cols * stride, spectators, out=cols)
        values[...] = hops.values[:, None]
        bonds[...] = hops.bonds[:, None]
        return stop

    occupations = components[0]
    shift, reflection, hops = _component_tables(occupations, fermion)
    for rows in components[1:]:
        size, m = len(occupations), len(rows)
        occupations = (occupations[:, None] + rows[None]).reshape(-1, n)
        right_shift, right_reflection, right_hops = _component_tables(
            rows, fermion)
        shift = combine(shift, right_shift)
        reflection = combine(reflection, right_reflection)
        # Each spread is written straight into the folded table, so the
        # table is built once, not copied.
        folded = HopTable(*(
            np.empty(len(hops.rows) * m + len(right_hops.rows) * size,
                     dtype=np.result_type(left, right))
            for left, right in zip(hops, right_hops)))
        middle = spread(hops, m, np.arange(m), folded, 0)
        spread(right_hops, 1, np.arange(size) * m, folded, middle)
        hops = folded
    for arr in (occupations, *shift, *reflection, *hops):
        arr.setflags(write=False)
    return FockBasis(n_sites=n, species=species, dimension=dimension,
                     components=components, occupations=occupations,
                     shift_perm=shift[0], shift_sign=shift[1],
                     reflect_perm=reflection[0], reflect_sign=reflection[1],
                     hops=hops)


def _shift_mask(mask: int, n_sites: int) -> int:
    return ((mask << 1) & ((1 << n_sites) - 1)) | (mask >> (n_sites - 1))


def translate(state: FockState, ring: RingSpec) -> tuple[FockState, int]:
    """Move every particle one site forward (site i to site i+1).

    Returns the shifted state and the fermionic permutation sign: a spin
    sector with k particles whose top-site particle wraps to site 0 picks
    up (-1)**(k-1) from reordering the wrapped creation operator back to
    the front of the ascending product.  A state that does not fit the
    ring (a mask bit at or above ``n_sites``, a negative mask or count,
    or a tuple of another length) raises ``ValueError``.
    """
    n = ring.n_sites
    if isinstance(state, FermionFockState):
        fits = all(0 <= mask < 1 << n for mask in state)
    else:
        fits = len(state) == n and min(state) >= 0
    if not fits:
        raise ValueError(f"state {state!r} does not fit a ring of {n} sites")
    if isinstance(state, FermionFockState):
        sign = 1
        for mask in (state.up_mask, state.down_mask):
            if (mask >> (n - 1)) & 1:
                k = mask.bit_count()
                if k % 2 == 0:
                    sign = -sign
        return FermionFockState(_shift_mask(state.up_mask, n),
                                _shift_mask(state.down_mask, n)), sign
    return (state[-1],) + state[:-1], 1


def apply_translation(vector: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Apply the unitary one-site forward shift to an amplitude vector."""
    if len(vector) != basis.dimension:
        raise ValueError(f"vector length {len(vector)} != basis dimension "
                         f"{basis.dimension}")
    out = np.empty_like(vector, dtype=complex)
    out[basis.shift_perm] = basis.shift_sign * vector
    return out


def sector_of_state(vector: np.ndarray, basis: FockBasis,
                    tol: float = 1e-8) -> int | None:
    """Translation sector q of an amplitude vector, or None if mixed.

    A vector in sector q is an eigenvector of the one-site shift with
    eigenvalue exp(i*2*pi*q/N); a single particle with winding n sits in
    sector q = n.  Vectors straddling sectors (within ``tol``) return
    None.
    """
    if len(vector) != basis.dimension:
        raise ValueError(f"vector length {len(vector)} != basis dimension "
                         f"{basis.dimension}")
    norm = np.linalg.norm(vector)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"vector must be normalized, got |v| = {norm}")
    # Adjoint of the forward shift: its eigenvalue on winding n is
    # exp(+i*2*pi*n/N), which makes the label match the winding directly.
    shifted = basis.shift_sign * np.asarray(vector)[basis.shift_perm]
    lam = np.vdot(vector, shifted)
    if abs(abs(lam) - 1.0) > tol:
        return None
    if np.linalg.norm(shifted - lam * vector) > tol:
        return None
    n = basis.n_sites
    q = round(np.angle(lam) * n / (2.0 * math.pi)) % n
    return int(q)


def spin_flip(basis: FockBasis) -> tuple[np.ndarray, float] | None:
    """The spin flip F as a signed permutation, (state map, sign), for
    Fermions with n_up = n_down; None for every other basis.

    F swaps c+_{j,up} and c+_{j,down} on every site, so it swaps the up
    and down masks, and moving the n_up flipped up operators past the
    n_down down ones to restore the up-before-down order gives the one
    sign (-1)**(n_up * n_down).  In the up-major product basis, with M
    masks per spin, state i*M + j maps to j*M + i.
    """
    species = basis.species
    if not isinstance(species, Fermions) or species.n_up != species.n_down:
        return None
    masks = math.comb(basis.n_sites, species.n_up)
    perm = np.arange(basis.dimension).reshape(masks, masks).T.ravel()
    return perm, (-1.0) ** (species.n_up * species.n_down)


def translation_orbits(basis: FockBasis) -> tuple[np.ndarray, ...]:
    """Orbits of the forward shift T, walked for every state at once.

    Returns per-state arrays (representative, steps, signs, period,
    closing) with T^steps |s> = signs |representative>, where the
    representative is the orbit's lowest index and steps < period, and
    T^period |s> = closing |s>.
    """
    start = np.arange(basis.dimension)
    current, sign = start, np.ones(basis.dimension)
    representative, steps, signs = start.copy(), np.zeros_like(start), sign
    period, closing = np.zeros_like(start), sign.copy()
    for step in range(1, basis.n_sites + 1):
        sign = sign * basis.shift_sign[current]
        current = basis.shift_perm[current]
        lower = current < representative
        representative[lower], steps[lower] = current[lower], step
        signs = np.where(lower, sign, signs)
        back = (period == 0) & (current == start)
        period[back], closing[back] = step, sign[back]
    return representative, steps, signs, period, closing
