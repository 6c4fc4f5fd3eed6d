"""Occupation-number bases for bosons and fermions on the ring.

Boson states are occupation tuples (one count per site); fermion states
are pairs of bit masks, one per spin, with bit i set when site i is
occupied.  Identical (polarized) fermions reuse the fermion layout with
an empty down sector.  Fermion matrix elements take their sign from the
reference ordering in which creation operators are sorted by ascending
site index within each spin sector, all up operators to the left of all
down operators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

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
    """Enumerated many-body basis with an exact reverse index.

    ``occupations`` holds each state's particle count per site, summed
    over spin, as one read-only (dimension, n_sites) array: ``uint8``
    for fermions, the smallest unsigned type that holds the particle
    count for bosons.  Hamiltonians and observables read occupation
    numbers from it, so only this module knows how ``states`` encode
    them.
    ``shift_perm``/``shift_sign`` cache the one-site translation as a
    signed permutation: state k maps to state ``shift_perm[k]`` with
    amplitude ``shift_sign[k]``.  ``reflect_perm``/``reflect_sign`` cache
    the site reflection j -> -j (mod N) the same way.  ``hops`` lists the
    forward hops once, so every ring bilinear on this basis is built from
    numpy arrays.
    """

    n_sites: int
    species: SpeciesSpec
    states: tuple[FockState, ...]
    dimension: int
    occupations: np.ndarray = field(repr=False)
    shift_perm: np.ndarray = field(repr=False)
    shift_sign: np.ndarray = field(repr=False)
    reflect_perm: np.ndarray = field(repr=False)
    reflect_sign: np.ndarray = field(repr=False)
    hops: HopTable = field(repr=False)
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def index_of(self, state: FockState) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise KeyError(f"state {state!r} is not in this basis") from None


def _boson_occupations(n_sites: int, n_particles: int) -> Iterator[tuple]:
    if n_sites == 1:
        yield (n_particles,)
        return
    for head in range(n_particles + 1):
        for rest in _boson_occupations(n_sites - 1, n_particles - head):
            yield (head, *rest)


def _masks_with_popcount(n_sites: int, n_set: int) -> list[int]:
    masks = []
    for positions in itertools.combinations(range(n_sites), n_set):
        mask = 0
        for p in positions:
            mask |= 1 << p
        masks.append(mask)
    return masks


def basis_dimension(ring: RingSpec, species: SpeciesSpec) -> int:
    n = ring.n_sites
    if isinstance(species, Bosons):
        return math.comb(species.n_particles + n - 1, n - 1)
    if isinstance(species, Fermions):
        return math.comb(n, species.n_up) * math.comb(n, species.n_down)
    return math.comb(n, species.n_particles)


def enumerate_basis(ring: RingSpec, species: SpeciesSpec,
                    max_dimension: int = MAX_DIMENSION) -> FockBasis:
    """Enumerate all Fock states of the species in lexicographic order."""
    validate_species(species, ring)
    dimension = basis_dimension(ring, species)
    if dimension > max_dimension:
        raise BasisSizeError(
            f"basis dimension {dimension} exceeds the cap {max_dimension}; "
            f"raise max_dimension explicitly if this is intentional")

    n = ring.n_sites
    if isinstance(species, Bosons):
        states: tuple[FockState, ...] = tuple(
            _boson_occupations(n, species.n_particles))
        index = {state: k for k, state in enumerate(states)}
        occupations = np.array(
            states, dtype=np.min_scalar_type(species.n_particles))
        hops = _boson_hops(states, index, n)
        shift, reflection = _boson_symmetries(states, index)
    else:
        if isinstance(species, Fermions):
            ups = _masks_with_popcount(n, species.n_up)
            downs = _masks_with_popcount(n, species.n_down)
        else:
            ups = _masks_with_popcount(n, species.n_particles)
            downs = [0]
        states = tuple(FermionFockState(mu, md) for mu in ups for md in downs)
        index = {state: k for k, state in enumerate(states)}
        up, down = (np.array([[(mask >> j) & 1 for j in range(n)]
                              for mask in masks], dtype=np.uint8)
                    for masks in (ups, downs))
        occupations = (up[:, None] + down[None]).reshape(dimension, n)
        hops = _fermion_hops(ups, downs, n)
        shift, reflection = _fermion_symmetries(ups, downs, n)
    for arr in (occupations, *shift, *reflection, *hops):
        arr.setflags(write=False)
    return FockBasis(n_sites=n, species=species, states=states,
                     dimension=dimension, occupations=occupations,
                     shift_perm=shift[0], shift_sign=shift[1],
                     reflect_perm=reflection[0], reflect_sign=reflection[1],
                     hops=hops, _index=index)


SignedPermutation = tuple[np.ndarray, np.ndarray]


def _boson_symmetries(states: tuple, index: dict
                      ) -> tuple[SignedPermutation, SignedPermutation]:
    """The one-site shift and the site reflection, state by state."""
    shift = np.empty(len(states), dtype=np.int64)
    reflect = np.empty(len(states), dtype=np.int64)
    for k, occ in enumerate(states):
        shift[k] = index[(occ[-1],) + occ[:-1]]
        reflect[k] = index[occ[:1] + occ[:0:-1]]
    ones = np.ones(len(states))
    return (shift, ones), (reflect, ones)


def _reflect_mask(mask: int, n_sites: int) -> int:
    reflected = mask & 1
    for j in range(1, n_sites):
        if (mask >> j) & 1:
            reflected |= 1 << (n_sites - j)
    return reflected


def _mask_symmetries(masks: list[int], n_sites: int
                     ) -> tuple[SignedPermutation, SignedPermutation]:
    """The shift and the reflection of one spin sector, by mask position.

    With k particles, the shift moves the top-site operator to the front
    when it wraps: (-1)**(k-1).  The reflection keeps site 0 first and
    reverses the order of the other k' occupied sites: (-1)**(k'(k'-1)/2).
    """
    position = {mask: i for i, mask in enumerate(masks)}
    shift = np.empty(len(masks), dtype=np.int64)
    reflect = np.empty(len(masks), dtype=np.int64)
    shift_sign, reflect_sign = np.ones(len(masks)), np.ones(len(masks))
    for i, mask in enumerate(masks):
        k = mask.bit_count()
        shift[i] = position[_shift_mask(mask, n_sites)]
        if (mask >> (n_sites - 1)) & 1 and k % 2 == 0:
            shift_sign[i] = -1.0
        reflect[i] = position[_reflect_mask(mask, n_sites)]
        rest = k - (mask & 1)
        if rest * (rest - 1) // 2 % 2:
            reflect_sign[i] = -1.0
    return (shift, shift_sign), (reflect, reflect_sign)


def _fermion_symmetries(ups: list[int], downs: list[int], n_sites: int
                        ) -> tuple[SignedPermutation, SignedPermutation]:
    """The shift and the reflection on the product basis (up-major order):
    each spin sector moves on its own, and the signs multiply."""
    n_down = len(downs)

    def combine(up: SignedPermutation,
                down: SignedPermutation) -> SignedPermutation:
        return (np.add.outer(up[0] * n_down, down[0]).ravel(),
                np.multiply.outer(up[1], down[1]).ravel())

    up, down = _mask_symmetries(ups, n_sites), _mask_symmetries(downs, n_sites)
    return combine(up[0], down[0]), combine(up[1], down[1])


def _hop_table(entries: list[tuple[int, int, float, int]]) -> HopTable:
    columns = np.array(entries, dtype=np.float64).reshape(-1, 4).T
    rows, cols, values, bonds = columns
    return HopTable(rows.astype(np.int64), cols.astype(np.int64), values,
                    bonds.astype(np.int64))


def _boson_hops(states: tuple, index: dict, n_sites: int) -> HopTable:
    entries = []
    for col, occ in enumerate(states):
        for j in range(n_sites):
            if occ[j]:
                jp = (j + 1) % n_sites
                shifted = list(occ)
                shifted[j] -= 1
                shifted[jp] += 1
                entries.append((index[tuple(shifted)], col,
                                math.sqrt(occ[j] * (occ[jp] + 1)), j))
    return _hop_table(entries)


def _fermion_hop(mask: int, dst: int, src: int) -> tuple[int, int] | None:
    """Apply c+_dst c_src to one spin sector; None if it annihilates.

    Signs count occupied sites below the touched position, per the
    ascending-site operator ordering.
    """
    if not (mask >> src) & 1:
        return None
    sign = -1 if (mask & ((1 << src) - 1)).bit_count() & 1 else 1
    mask ^= 1 << src
    if (mask >> dst) & 1:
        return None
    if (mask & ((1 << dst) - 1)).bit_count() & 1:
        sign = -sign
    return mask | (1 << dst), sign


def _sector_hops(masks: list[int], n_sites: int) -> HopTable:
    """Forward hops of one spin sector, indexed by position in ``masks``."""
    position = {mask: i for i, mask in enumerate(masks)}
    entries = []
    for col, mask in enumerate(masks):
        for j in range(n_sites):
            hop = _fermion_hop(mask, (j + 1) % n_sites, j)
            if hop is not None:
                entries.append((position[hop[0]], col, float(hop[1]), j))
    return _hop_table(entries)


def _fermion_hops(ups: list[int], downs: list[int], n_sites: int) -> HopTable:
    """Forward hops of both spins on the product basis (up-major order).

    A hop in one spin sector leaves the other sector's mask, and so its
    index, untouched; the down operators stand right of all up operators,
    so a down hop's sign depends on the down mask alone.
    """
    n_down = len(downs)

    def spread(hops: HopTable, stride: int,
               spectators: np.ndarray) -> HopTable:
        # State index = sector index * stride + spectator offset.
        return HopTable(np.add.outer(hops.rows * stride, spectators).ravel(),
                        np.add.outer(hops.cols * stride, spectators).ravel(),
                        np.repeat(hops.values, len(spectators)),
                        np.repeat(hops.bonds, len(spectators)))

    up = spread(_sector_hops(ups, n_sites), n_down, np.arange(n_down))
    down = spread(_sector_hops(downs, n_sites), 1,
                  np.arange(len(ups)) * n_down)
    return HopTable(*(np.concatenate(pair) for pair in zip(up, down)))


def _shift_mask(mask: int, n_sites: int) -> int:
    return ((mask << 1) & ((1 << n_sites) - 1)) | (mask >> (n_sites - 1))


def translate(state: FockState, ring: RingSpec) -> tuple[FockState, int]:
    """Move every particle one site forward (site i to site i+1).

    Returns the shifted state and the fermionic permutation sign: a spin
    sector with k particles whose top-site particle wraps to site 0 picks
    up (-1)**(k-1) from reordering the wrapped creation operator back to
    the front of the ascending product.
    """
    n = ring.n_sites
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
