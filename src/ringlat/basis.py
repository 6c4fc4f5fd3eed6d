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
import scipy.linalg as sla

from .model import (
    Bosons,
    DomainError,
    Fermions,
    PolarizedFermions,
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

    ``shift_perm``/``shift_sign`` cache the one-site translation as a
    signed permutation: state k maps to state ``shift_perm[k]`` with
    amplitude ``shift_sign[k]``.  ``hops`` lists the forward hops once,
    so every ring bilinear on this basis is built from numpy arrays.
    """

    n_sites: int
    species: SpeciesSpec
    states: tuple[FockState, ...]
    dimension: int
    shift_perm: np.ndarray = field(repr=False)
    shift_sign: np.ndarray = field(repr=False)
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
        hops = _boson_hops(states, index, n)
    else:
        if isinstance(species, Fermions):
            ups = _masks_with_popcount(n, species.n_up)
            downs = _masks_with_popcount(n, species.n_down)
        else:
            ups = _masks_with_popcount(n, species.n_particles)
            downs = [0]
        states = tuple(FermionFockState(mu, md) for mu in ups for md in downs)
        index = {state: k for k, state in enumerate(states)}
        hops = _fermion_hops(ups, downs, n)
    perm = np.empty(dimension, dtype=np.int64)
    sign = np.empty(dimension, dtype=np.float64)
    for k, state in enumerate(states):
        shifted, s = translate(state, ring)
        perm[k] = index[shifted]
        sign[k] = s
    for arr in (perm, sign, *hops):
        arr.setflags(write=False)
    return FockBasis(n_sites=n, species=species, states=states,
                     dimension=dimension, shift_perm=perm, shift_sign=sign,
                     hops=hops, _index=index)


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


def split_into_sectors(vectors: np.ndarray, basis: FockBasis,
                       tol: float = 1e-8,
                       ) -> tuple[np.ndarray, tuple[int | None, ...]]:
    """Rotate a degenerate multiplet into translation-sector eigenvectors.

    Eigensolvers return an arbitrary orthonormal span for a degenerate
    level, generally mixing symmetry sectors.  Since the shift commutes
    with the Hamiltonian, its restriction to the span is a small unitary
    matrix; its Schur vectors rotate the span into sector-pure states.
    Returns the rotated columns and their labels, ordered by label.
    """
    if vectors.ndim == 1:
        vectors = vectors[:, None]
    count = vectors.shape[1]
    if count == 1:
        return vectors, (sector_of_state(vectors[:, 0], basis, tol),)
    shifted = np.column_stack([
        apply_translation(vectors[:, i], basis) for i in range(count)])
    restricted = vectors.conj().T @ shifted
    _, rotation = sla.schur(restricted, output="complex")
    rotated = vectors @ rotation
    labels = []
    for i in range(count):
        column = rotated[:, i]
        column /= np.linalg.norm(column)
        rotated[:, i] = column
        labels.append(sector_of_state(column, basis, tol))
    order = sorted(range(count),
                   key=lambda i: (labels[i] is None, labels[i]))
    return rotated[:, order], tuple(labels[i] for i in order)
