"""Sparse rotating-frame Hubbard Hamiltonians on a Fock basis.

The drive enters through the complex bond amplitude: hopping forward
(site j to j+1, increasing index around the ring) carries
``(-t - i*omega*K) * exp(i*twist)`` and the reverse hop its conjugate.
This orientation makes the one-particle spectrum exactly
``-2*(t*cos(phi) + omega*K*sin(phi))`` over the winding phases phi, and a
uniform bond twist theta shifts every phi to phi - theta, so the ring
current is the operator ``-dH/d(theta)`` (see :mod:`ringlat.observables`).

Interactions are diagonal: u * n * (n - 1) summed over sites for bosons
(note: twice the (u/2) n (n-1) convention some codes use) and u times the
number of doubly occupied sites for spin-1/2 fermions.

Every operator is held as plain CSR arrays (:class:`CSRArrays`): the
real-space ones (:func:`build_operator`) built by the kernels of scipy's
``coo_matrix(...).tocsr()``, the sector blocks that every sweep solves
(:func:`sector_blocks`) in numpy.  Their products call scipy's CSR
kernels too, loaded from their extension module alone, so no operator
imports a scipy package.

A dense array of a large operator is checked against
``DENSE_MEMORY_BUDGET`` before it is allocated (:class:`DenseMemoryError`).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .basis import FockBasis, spin_flip, translation_orbits
from .model import (
    Bosons,
    ConvergenceError,
    DomainError,
    Fermions,
    RingSpec,
    SpeciesSpec,
    particle_content,
)

# The largest sector block that the default solver options solve densely
# (eigen), and that keeps its X as a dense array (SectorBlock.dense).
# Real sector blocks cost about the same on both paths near this dimension
# (2-CPU x86, OpenBLAS at 1 and at 2 threads alike, one block of 2+2, 3+1,
# 4+1, 3+2 and 3+3 fermions and 5 and 6 bosons on 10-14 sites, omega = 3).
# Against ARPACK with its lock loop, the dense solve takes 0.1-0.3 of the
# time up to 200 states, 0.5-0.85 at 291-364 and 1.0-1.8 at 495-540.
# Against the main ARPACK run alone, which is all a screened lock loop
# leaves, it takes 0.25-0.75 up to 200 and 1.0-1.1 at 220.
DENSE_THRESHOLD = 300
_DIAG_IMAG_TOL = 1e-14
_HERMITICITY_TOL = 1e-12


def _half_the_memory() -> int | None:
    """Half the physical memory in bytes, as ``os.sysconf`` reports it;
    None where it does not."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None
    return pages * size // 2 if pages > 0 and size > 0 else None


# The most bytes that the arrays of one dense solve may take: half the
# physical memory, or None (no check) where os.sysconf cannot tell.
DENSE_MEMORY_BUDGET = _half_the_memory()


class DenseMemoryError(ConvergenceError):
    """A dense solve would take more memory than ``DENSE_MEMORY_BUDGET``;
    raised before its arrays are allocated."""


def _check_dense_memory(dimension: int, dtype) -> None:
    """Raise :class:`DenseMemoryError` where a dense solve at this
    dimension and entry type would exceed ``DENSE_MEMORY_BUDGET``: the
    dense array, and the copy of it and the eigenvectors (all of them,
    at most) that LAPACK's ``dsyevr``/``zheevr`` works in."""
    budget = DENSE_MEMORY_BUDGET
    need = 3 * dimension * dimension * np.dtype(dtype).itemsize
    if budget is not None and need > budget:
        raise DenseMemoryError(
            f"a dense solve at dimension {dimension} needs about "
            f"{need / 2**30:.3g} GiB, over the budget of "
            f"{budget / 2**30:.3g} GiB (half the physical memory); a lower "
            f"dense_threshold solves it by ARPACK")


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian matrix held as one full canonical CSR matrix
    (:class:`CSRArrays`) with a real diagonal: complex, checked on
    assembly, for the real-space operators; real and exactly symmetric
    by construction for a :class:`SectorBlock`."""

    dimension: int
    matrix: CSRArrays = field(repr=False, compare=False)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """Matrix-vector product, exact within floating point."""
        if len(vector) != self.dimension:
            raise ValueError(f"vector length {len(vector)} != operator "
                             f"dimension {self.dimension}")
        return self.matrix @ vector

    def to_dense(self) -> np.ndarray:
        """The matrix as a dense array, once :func:`_check_dense_memory`
        allows a dense solve of it."""
        _check_dense_memory(self.dimension, self.matrix.dtype)
        return self.matrix.toarray()

    def expectation(self, vector: np.ndarray) -> float:
        """<v|H|v>, guaranteed real for a Hermitian operator."""
        value = np.vdot(vector, self.apply(vector))
        return float(value.real)


def operator_from_entries(dimension: int, rows, cols, values) -> HermitianOperator:
    """Assemble a :class:`HermitianOperator` from raw coordinate terms.

    The term list must describe a Hermitian matrix (every off-diagonal
    entry accompanied by its conjugate mirror); duplicates are summed.
    The arrays are scipy's ``coo_matrix(...).tocsr()``, bit for bit; the
    terms are checked first, as ``coo_matrix`` checks them.
    """
    terms = (np.asarray(rows, dtype=np.int64),
             np.asarray(cols, dtype=np.int64),
             np.asarray(values, dtype=complex))
    if any(term.ndim != 1 for term in terms):
        raise ValueError("coordinates and data arrays must be 1-D")
    if len({len(term) for term in terms}) > 1:
        raise ValueError("all index and data arrays must have the same "
                         "length")
    for axis, index in enumerate(terms[:2]):
        if len(index) and index.max() >= dimension:
            raise ValueError(f"axis {axis} index {index.max()} exceeds "
                             f"matrix dimension {dimension}")
        if len(index) and index.min() < 0:
            raise ValueError(f"negative axis {axis} index: {index.min()}")
    full = _csr_from_terms(dimension, *terms)

    scale = max(1.0, np.abs(full.data).max()) if len(full.data) else 1.0
    defect = _hermitian_defect(full)
    if defect.size and defect.max() > _HERMITICITY_TOL * scale:
        raise ValueError(f"generated terms are not Hermitian: max asymmetry "
                         f"{defect.max():.3e}")
    diagonal = np.empty(dimension, dtype=complex)
    _sparsetools().csr_diagonal(0, dimension, dimension, full.indptr,
                                full.indices, full.data, diagonal)
    diag_imag = np.abs(diagonal.imag)
    if diag_imag.size and diag_imag.max() > _DIAG_IMAG_TOL * scale:
        raise ValueError(f"diagonal is not real: max imaginary part "
                         f"{diag_imag.max():.3e}")
    return HermitianOperator(dimension=dimension, matrix=full)


def _empty_csr(n: int, nnz: int) -> tuple[np.ndarray, ...]:
    """Empty complex (indptr, indices, data) for n rows and nnz entries,
    on scipy's index type: int32 unless n or nnz needs int64."""
    index = np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64
    return (np.empty(n + 1, dtype=index), np.empty(nnz, dtype=index),
            np.empty(nnz, dtype=complex))


def _csr_from_terms(n: int, rows: np.ndarray, cols: np.ndarray,
                    values: np.ndarray) -> CSRArrays:
    """Canonical CSR arrays of the checked n x n terms, built kernel by
    kernel as ``coo_matrix(...).tocsr()`` builds them; explicit zeros are
    kept."""
    kernels = _sparsetools()
    indptr, indices, data = _empty_csr(n, len(values))
    index = indptr.dtype
    kernels.coo_tocsr(n, n, len(values), rows.astype(index, copy=False),
                      cols.astype(index, copy=False), values, indptr,
                      indices, data)
    if not kernels.csr_has_canonical_format(n, indptr, indices):
        if not kernels.csr_has_sorted_indices(n, indptr, indices):
            kernels.csr_sort_indices(n, indptr, indices, data)
        kernels.csr_sum_duplicates(n, n, indptr, indices, data)
        indices, data = indices[:indptr[-1]], data[:indptr[-1]]
    return CSRArrays(data, indices, indptr)


def _hermitian_defect(matrix: CSRArrays) -> np.ndarray:
    """The stored values of scipy's ``abs(A - A.conj().T)`` for canonical
    CSR arrays A: ``csr_tocsc`` transposes, ``csr_minus_csr`` subtracts
    and drops the entries that come out zero."""
    kernels = _sparsetools()
    n, nnz = matrix.shape[0], len(matrix.data)
    # The index type of the difference, which can hold 2 nnz entries.
    d_indptr, d_indices, d_data = _empty_csr(n, 2 * nnz)
    indptr = matrix.indptr.astype(d_indptr.dtype, copy=False)
    indices = matrix.indices.astype(d_indptr.dtype, copy=False)
    t_indptr, t_indices, t_data = (np.empty_like(array) for array in
                                   (indptr, indices, matrix.data))
    kernels.csr_tocsc(n, n, indptr, indices, matrix.data,
                      t_indptr, t_indices, t_data)
    kernels.csr_minus_csr(n, n, indptr, indices, matrix.data, t_indptr,
                          t_indices, t_data.conj(), d_indptr, d_indices,
                          d_data)
    return np.abs(d_data[:d_indptr[-1]])


def hopping_operator(basis: FockBasis, forward_amplitude: complex,
                     diagonal: np.ndarray | None = None) -> HermitianOperator:
    """Sum over bonds of (amp * hop_forward + h.c.), plus a real diagonal.

    Works for any one-body ring bilinear: the Hamiltonian hopping uses
    amp = -t - i*omega*K, the current operator amp = i*t - omega*K.
    """
    hops = basis.hops
    forward = complex(forward_amplitude) * hops.values
    rows = [hops.rows, hops.cols]
    cols = [hops.cols, hops.rows]
    values = [forward, forward.conj()]
    if diagonal is not None:
        nonzero = np.flatnonzero(diagonal)
        rows.append(nonzero)
        cols.append(nonzero)
        values.append(diagonal[nonzero])
    return operator_from_entries(basis.dimension, np.concatenate(rows),
                                 np.concatenate(cols), np.concatenate(values))


def _check_basis(ring: RingSpec, species: SpeciesSpec, basis: FockBasis) -> None:
    if basis.n_sites != ring.n_sites:
        raise DomainError(f"basis: enumerated for {basis.n_sites} sites, "
                          f"ring has {ring.n_sites}")
    if particle_content(basis.species) != particle_content(species):
        raise DomainError(f"basis: enumerated for {basis.species!r}, "
                          f"got species {species!r}")


def interaction_diagonal(species: SpeciesSpec, basis: FockBasis) -> np.ndarray:
    """Per-state diagonal interaction energy at unit coupling, read from
    ``basis.occupations``: sum n(n - 1) for bosons, the number of sites
    with n = 2 for fermions (none for polarized fermions)."""
    if isinstance(species, Bosons):
        # Widened, so that n(n - 1) cannot overflow the narrow counts.
        occupations = basis.occupations.astype(np.int64)
        return (occupations * (occupations - 1)).sum(axis=1).astype(float)
    return np.count_nonzero(basis.occupations == 2, axis=1).astype(float)


def plane_wave_lines(basis: FockBasis
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each basis state read as momentum occupations n_k, k < N: the
    state's per-site counts ``basis.occupations``, summed over spin, read
    as counts per plane wave.

    Returns, per state, the plane-wave configuration c's A_c = -2 sum_k
    n_k cos(phi_k), B_c = -2 sum_k n_k sin(phi_k) and sector sum_k k n_k
    mod N, with phi_k = 2*pi*k/N.  Without interaction H is diagonal in
    the plane-wave Fock states, with energy t A_c + omega K B_c, so the
    configurations of sector q carry that sector's spectrum at u = 0, and
    dH/d omega, restricted to the sector, has spectrum {K B_c}.
    """
    n = basis.n_sites
    phi = 2 * math.pi * np.arange(n) / n
    waves = np.column_stack([-2 * np.cos(phi), -2 * np.sin(phi)])
    lines = basis.occupations @ waves
    return lines[:, 0], lines[:, 1], basis.occupations @ np.arange(n) % n


def build_boson(ring: RingSpec, species: Bosons, basis: FockBasis,
                twist: float = 0.0) -> HermitianOperator:
    """Boson ring Hamiltonian: complex hopping plus u * n * (n - 1)."""
    if not isinstance(species, Bosons):
        raise DomainError(f"species: build_boson needs Bosons, got "
                          f"{type(species).__name__}")
    return build_operator(ring, species, basis, twist)


def build_fermion(ring: RingSpec, species: Fermions, basis: FockBasis,
                  twist: float = 0.0) -> HermitianOperator:
    """Fermion ring Hamiltonian: spin-conserving hopping plus u per
    doubly occupied site."""
    if not isinstance(species, Fermions):
        raise DomainError(f"species: build_fermion needs Fermions, got "
                          f"{type(species).__name__}")
    return build_operator(ring, species, basis, twist)


def build_operator(ring: RingSpec, species: SpeciesSpec, basis: FockBasis,
                   twist: float = 0.0) -> HermitianOperator:
    """Hamiltonian for any species; polarized fermions hop with no
    interaction."""
    _check_basis(ring, species, basis)
    u = getattr(species, "u", 0.0)
    diagonal = u * interaction_diagonal(species, basis) if u else None
    return hopping_operator(basis, hopping_amplitude(ring, twist), diagonal)


def hopping_amplitude(ring: RingSpec, twist: float = 0.0) -> complex:
    """Coefficient of the forward-hop bilinear in the Hamiltonian."""
    return (-ring.t - 1j * ring.omega * ring.k_factor) * np.exp(1j * twist)


def _sparsetools():
    """scipy's CSR kernels, loaded from their extension module alone
    (:func:`ringlat.eigen._scipy_extension`)."""
    from .eigen import _scipy_extension  # eigen imports this module

    return _scipy_extension("scipy.sparse._sparsetools")


class CSRArrays(NamedTuple):
    """A square matrix in compressed sparse row form, as plain arrays:
    row i holds ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, ascending.

    ``@`` and :meth:`toarray` call the kernels that those of scipy's
    ``csr_matrix((data, indices, indptr))`` call, with the same arguments:
    ``csr_matvec`` for a vector or one column, ``csr_matvecs`` for more
    columns, ``csr_todense``.  So each result is bit for bit scipy's,
    without importing ``scipy.sparse``."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n = len(self.indptr) - 1
        return n, n

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __matmul__(self, other) -> np.ndarray:
        other = np.asarray(other)
        n = len(self.indptr) - 1
        if not 1 <= other.ndim <= 2 or other.shape[0] != n:
            raise ValueError(f"matmul: need an operand of {n} rows, got "
                             f"shape {other.shape}")
        result = np.zeros(other.shape,
                          np.result_type(self.data.dtype, other.dtype))
        # ravel() copies an operand that is not C-ordered, as scipy's does,
        # and is a view of the fresh result.
        arrays = (self.indptr, self.indices, self.data, other.ravel(),
                  result.ravel())
        if other.ndim == 1 or other.shape[1] == 1:
            _sparsetools().csr_matvec(n, n, *arrays)
        else:
            _sparsetools().csr_matvecs(n, n, other.shape[1], *arrays)
        return result

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.data.dtype)
        _sparsetools().csr_todense(*self.shape, self.indptr, self.indices,
                                   self.data, dense)
        return dense


@dataclass(frozen=True, eq=False)
class SectorBlock:
    """Sector q of the ring Hamiltonians, real symmetric on states that
    the site reflection times complex conjugation leaves fixed; for
    Fermions with n_up = n_down, the half of sector q with spin-flip
    parity ``parity`` (+1 or -1), else None.

    The states are the Bloch states
    p^(-1/2) sum_{d<p} exp(+2*pi*i*q*d/N) T^d |r> of ``representatives``
    r (T the forward shift, p the period of the orbit of r), rotated by
    the W of :func:`_fixed_columns`, or of :func:`_flip_columns` for a
    half.  In them the forward-hop sum is a complex symmetric
    matrix X, held in ``hop`` as three read-only numpy arrays
    (:class:`CSRArrays`), whose mirror entries hold one value and whose
    every diagonal position is stored (a 0 where X has none), at
    ``diagonal`` in ``hop.data``.  A block of at most ``DENSE_THRESHOLD``
    states keeps X as a dense array too, once :meth:`dense` or
    :meth:`hop_expectation` first needs it (:attr:`dense_hop`).
    ``interaction`` is each state's contact energy at unit coupling.
    ``lines_t`` and ``lines_drive`` hold the A_c and B_c of the block's
    plane-wave configurations c (:func:`plane_wave_lines`), one per state:
    at u = 0 the block's levels are exactly t A_c + omega K B_c.
    """

    q: int
    parity: int | None
    representatives: np.ndarray
    hop: CSRArrays = field(repr=False)
    diagonal: np.ndarray = field(repr=False)
    interaction: np.ndarray = field(repr=False)
    lines_t: np.ndarray = field(repr=False)
    lines_drive: np.ndarray = field(repr=False)

    def __repr__(self) -> str:
        parity = "" if self.parity is None else f", parity={self.parity:+d}"
        return (f"SectorBlock(q={self.q}{parity}, "
                f"representatives={self.representatives!r})")

    @property
    def dimension(self) -> int:
        return len(self.hop.indptr) - 1

    def operator(self, forward_amplitude: complex,
                 u: float = 0.0) -> HermitianOperator:
        """amp * X + h.c. + u * interaction = 2 Re(amp * X) + u * interaction:
        real, and exactly symmetric since both mirror entries hold one
        value, as :class:`CSRArrays` on X's positions."""
        return HermitianOperator(self.dimension, CSRArrays(
            self._entries(forward_amplitude, u), self.hop.indices,
            self.hop.indptr))

    def dense(self, forward_amplitude: complex, u: float = 0.0) -> np.ndarray:
        """The matrix of :meth:`operator` as a dense array, equal to its
        ``to_dense()`` bit for bit at a finite amplitude: for a block of at
        most ``DENSE_THRESHOLD`` states built from the dense X that it
        keeps (:attr:`dense_hop`); for a larger one, solved densely only
        under a raised ``dense_threshold``, as ``to_dense()`` itself,
        which checks the memory first."""
        n = self.dimension
        if n > DENSE_THRESHOLD:
            return self.operator(forward_amplitude, u).to_dense()
        # The complex product of _entries, so each entry rounds alike.
        dense = 2.0 * (complex(forward_amplitude) * self.dense_hop).real
        dense.reshape(-1)[::n + 1] += u * self.interaction
        # to_dense() adds the entries to zeros, so an entry of -0.0 reads 0.0.
        dense += 0.0
        return dense

    def hop_expectation(self, forward_amplitude: complex,
                        vector: np.ndarray) -> float:
        """<v| amp * X + h.c. |v> = 2 Re(amp v^T X v) for a real vector
        v: for a block of at most ``DENSE_THRESHOLD`` states from the
        dense X that it keeps (:attr:`dense_hop`), for a larger one from
        the CSR arrays (:class:`CSRArrays` ``@``)."""
        hop = self.dense_hop if self.dimension <= DENSE_THRESHOLD else self.hop
        product = hop @ vector
        return 2.0 * (complex(forward_amplitude) * (vector @ product)).real

    @functools.cached_property
    def dense_hop(self) -> np.ndarray:
        """X as a dense complex array, read-only, built on first use and
        kept with the block: 16 bytes per entry, 640 KB for the blocks of
        2+2 fermions on 8 sites."""
        n = self.dimension
        hop = np.zeros((n, n), dtype=complex)
        hop[self._rows(), self.hop.indices] = self.hop.data
        hop.setflags(write=False)
        return hop

    def _rows(self) -> np.ndarray:
        """The row of each stored entry of X."""
        return np.repeat(np.arange(self.dimension), np.diff(self.hop.indptr))

    def _entries(self, forward_amplitude: complex, u: float) -> np.ndarray:
        """The values of the block operator at the stored positions of X."""
        data = 2.0 * (complex(forward_amplitude) * self.hop.data).real
        data[self.diagonal] += u * self.interaction
        return data


def _fixed_columns(c: np.ndarray, partner: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unitary from m states that Theta maps as Theta|s> = c_s
    |partner_s> to states that Theta leaves fixed, an m x m matrix given
    as its entries (rows, columns, values): a state with partner_s = s
    gives the column sqrt(c_s)|s>, a pair s < s' the columns (|s> +
    c_s|s'>)/sqrt(2) and i(|s> - c_s|s'>)/sqrt(2), in the order of s.
    Theta squares to 1, so c_s' = c_s."""
    state = np.arange(len(c))
    lead = np.minimum(state, partner)
    alone = partner == state
    width = np.where(alone, 1, 2) * (state == lead)
    column = (np.cumsum(width) - width)[lead]
    half = math.sqrt(0.5)
    first = np.where(alone, np.sqrt(c),
                     np.where(state == lead, half, half * c[lead]))
    second = np.where(state == lead, 1j * half, -1j * half * c[lead])[~alone]
    return (np.concatenate([state, state[~alone]]),
            np.concatenate([column, column[~alone] + 1]),
            np.concatenate([first, second]))


def _bloch_map(basis: FockBasis, orbits: tuple[np.ndarray, ...], q: int,
               members: np.ndarray, perm: np.ndarray, sign
               ) -> tuple[np.ndarray, np.ndarray]:
    """A symmetry S that commutes with T, given on Fock states as the
    signed permutation (perm, sign), on the Bloch states of ``members``
    (sector q): S|r,q> = c_r |r',q>, where r' represents the orbit of
    s = S(r) and c_r = sign[r] * signs[s] * exp(2*pi*i*q*steps[s]/N).
    Returns c and the position of r' in ``members``."""
    orbit, steps, signs = orbits[:3]
    image = perm[members]
    c = sign * signs[image] * np.exp(
        2j * math.pi * q * steps[image] / basis.n_sites)
    return c, np.searchsorted(members, orbit[image])


def _flip_columns(d: np.ndarray, flipped: np.ndarray, c: np.ndarray,
                  mirror: np.ndarray, parity: int
                  ) -> tuple[np.ndarray, tuple[np.ndarray, ...], int]:
    """The W of the spin-flip half of parity ``parity`` from the maps
    F|r,q> = d_r |flipped_r,q> and Theta|r,q> = c_r |mirror_r,q> on m
    Bloch states: which of them the half holds, W's entries (rows,
    columns, values) and its column count.  A pair r < r'' = flipped_r
    gives the F-state (|r,q> + parity d_r |r'',q>)/sqrt(2), a lone r
    with d_r = parity the state |r,q>; :func:`_fixed_columns` rotates
    these F-states, which Theta maps to each other up to phases."""
    state = np.arange(len(d))
    inside = (flipped != state) | (d.real * parity > 0)
    leads = np.flatnonzero((state <= flipped) & inside)
    column = np.searchsorted(leads, np.minimum(state, flipped))
    image = mirror[leads]
    direct = image <= flipped[image]
    phase = np.where(direct, c[leads],
                     parity * d[leads].conj() * c[flipped[leads]])
    # Each entry (s, column, b) of the rotation of the F-states gives W
    # the entry b times the weight of a Bloch state in F-state s: 1 for a
    # lone lead, 1/sqrt(2) for the lead r of a pair and parity d_r /
    # sqrt(2) for its partner r''.
    fixed_rows, cols, values = _fixed_columns(phase, column[image])
    lead = leads[fixed_rows]
    pair = flipped[lead] != lead
    half = math.sqrt(0.5)
    entries = (np.concatenate([lead, flipped[lead][pair]]),
               np.concatenate([cols, cols[pair]]),
               np.concatenate([np.where(pair, half, 1.0) * values,
                               (parity * half * d[lead] * values)[pair]]))
    return inside, entries, len(leads)


class _Orbits(NamedTuple):
    """The representatives of a basis grouped into orbits of {1, R, F,
    RF}, R the reflection and F the spin flip (of {1, R} without F), in
    the order of their lowest representative: ``group`` and ``slot`` give
    each representative's orbit and its rank in it, ``lead`` each orbit's
    lowest representative; ``size`` bounds the orbit sizes (4 with F, 2
    without)."""

    group: np.ndarray
    slot: np.ndarray
    lead: np.ndarray
    size: int


def _symmetry_orbits(reflected: np.ndarray,
                     flipped: np.ndarray | None) -> _Orbits:
    """:class:`_Orbits` from the images of each representative under R
    and, for a basis with a spin flip, F, each as a position among them."""
    positions = np.arange(len(reflected))
    images = [positions, reflected]
    if flipped is not None:
        images += [flipped, reflected[flipped]]
    lowest = np.minimum.reduce(images)
    lead = np.flatnonzero(lowest == positions)
    group = np.searchsorted(lead, lowest)
    order = np.argsort(group, kind="stable")
    slot = np.empty(len(positions), dtype=np.intp)
    slot[order] = positions - np.searchsorted(group[order], group[order])
    return _Orbits(group, slot, lead, len(images))


def sector_blocks(basis: FockBasis) -> tuple[SectorBlock, ...]:
    """The nonempty translation-sector blocks of ring Hamiltonians, and
    for Fermions with n_up = n_down their nonempty spin-flip halves.

    Block q holds the representatives whose orbit period p and closing
    sign c give exp(2*pi*i*q*p/N) * c = 1.  A hop out of representative r
    into state s of the orbit of r' adds its factor times signs[s] *
    exp(2*pi*i*q*steps[s]/N) * sqrt(p_r/p_r') to the Bloch entry (r', r)
    of the forward-hop sum T_q (Sandvik, arXiv:1101.3281, sec. 4.1).  The
    block holds X = W^H T_q W for the W of :func:`_fixed_columns`,
    its upper triangle mirrored, and the contact energies W^H D W, which
    are diagonal since Theta leaves D invariant, and the plane-wave lines
    of :func:`plane_wave_lines` in sector q.

    The spin flip F commutes with H at every t, omega and u, and with T
    and Theta, so with n_up = n_down sector q splits into the halves F =
    +1 and F = -1, each built on the W of :func:`_flip_columns`,
    parity +1 first.  A plane-wave configuration c and its flip f(c)
    have one (A_c, B_c), and F|c> = (-1)**(n_up n_down) |f(c)>, since F
    acts on the momentum operators as on the site operators.  So a pair
    c != f(c) gives the line to each half, through (|c> +- s|f(c)>)/sqrt(2)
    with s that sign, and a configuration c = f(c), with equal up and
    down momenta, is an F-state of parity (-1)**(n_up n_down) and gives
    its line to that half alone.

    W is block-diagonal over the orbits of {1, R, F, RF} among a sector's
    representatives (:class:`_Orbits`): at most 4 of them, and at most 2
    adjacent columns of W each.  R and F map the Bloch states of a sector
    to its own, so every orbit lies in a sector or outside it, and the
    orbits are those of the basis.  So X is a grid of 2 x 2 blocks, one
    per pair of orbits, and each hop of T_q adds to one of them its value
    times the rows of W's blocks of its two orbits, in the order of the
    hops.  The pairs are found once for every sector, and since X is
    mirrored only those whose first orbit does not come after the second
    are summed.

    Every array of a block is read-only, since a sweep shares its blocks
    between calls.
    """
    orbits = translation_orbits(basis)
    orbit, steps, signs, period, closing = orbits
    n, hops = basis.n_sites, basis.hops
    reps = np.flatnonzero(orbit == np.arange(basis.dimension))
    position = np.zeros(basis.dimension, dtype=np.intp)
    position[reps] = np.arange(len(reps))
    flip = spin_flip(basis)
    groups = _symmetry_orbits(
        position[orbit[basis.reflect_perm[reps]]],
        None if flip is None else position[orbit[flip[0][reps]]])

    # The hops out of representatives whose orbit pair lies in the upper
    # triangle, each with its pair and the slots of its two ends.
    from_rep = np.flatnonzero(orbit[hops.cols] == hops.cols)
    source = position[hops.cols[from_rep]]
    target = position[orbit[hops.rows[from_rep]]]
    upper = groups.group[target] <= groups.group[source]
    from_rep, source, target = from_rep[upper], source[upper], target[upper]
    rows, cols = hops.rows[from_rep], hops.cols[from_rep]
    factors = hops.values[from_rep] * signs[rows] * np.sqrt(
        period[cols] / period[orbit[rows]])
    hop_steps = steps[rows]
    count = len(groups.lead)
    # Every orbit's own pair is listed, so every diagonal entry is stored.
    keys, pair = np.unique(np.concatenate([
        groups.group[target] * count + groups.group[source],
        np.arange(count) * (count + 1)]), return_inverse=True)
    pair = pair[:len(target)]
    pair_rows, pair_cols = keys // count, keys % count
    # Both triangles' pairs, in the order of their (row, column) orbits:
    # the order of X's entries in CSR, orbit by orbit.
    lower = np.flatnonzero(pair_rows < pair_cols)
    full = np.concatenate([keys, pair_cols[lower] * count + pair_rows[lower]])
    order = np.argsort(full)
    full_rows, full_cols = full[order] // count, full[order] % count
    full_pair = np.concatenate([np.arange(len(keys)), lower])[order]
    ends = (groups.group[target] * groups.size + groups.slot[target],
            groups.group[source] * groups.size + groups.slot[source])

    contact = interaction_diagonal(basis.species, basis)
    lines_t, lines_drive, wave_sector = plane_wave_lines(basis)
    blocks = []
    for q in range(n):
        # The integer form of the membership rule: 2qp + N[c < 0] = 0 mod 2N.
        inside = (2 * q * period[reps]
                  + n * (closing[reps] < 0)) % (2 * n) == 0
        if not inside.any():
            continue
        phases = np.exp(2j * math.pi * q * np.arange(n) / n)
        members = np.flatnonzero(inside)
        states = reps[members]
        mirror = _bloch_map(basis, orbits, q, states, basis.reflect_perm,
                            basis.reflect_sign[states])
        in_sector = inside[groups.lead]
        live = in_sector[pair_rows] & in_sector[pair_cols]
        renumber = np.cumsum(live) - 1
        hopping = np.flatnonzero(live[pair])
        listed = live[full_pair]
        terms = _Terms(int(renumber[-1]) + 1, renumber[pair[hopping]],
                       ends[0][hopping], ends[1][hopping],
                       factors[hopping] * phases[hop_steps[hopping]],
                       full_rows[listed], full_cols[listed],
                       renumber[full_pair[listed]])
        waves = np.flatnonzero(wave_sector == q)
        if flip is None:
            halves = [(None, np.ones(len(members), dtype=bool),
                       _fixed_columns(*mirror), len(members), waves)]
        else:
            perm, sign = flip
            flipped = perm[waves]
            flips = _bloch_map(basis, orbits, q, states, perm, sign)
            halves = []
            for parity in (1, -1):
                held, entries, width = _flip_columns(*flips, *mirror, parity)
                own = (flipped == waves) & (sign == parity)
                if width:
                    halves.append((parity, held, entries, width,
                                   waves[(flipped > waves) | own]))
        for parity, held, entries, width, lines in halves:
            blocks.append(_block(
                q, parity, states[held], groups, members, entries, width,
                terms, contact[states], lines_t[lines], lines_drive[lines]))
    return tuple(blocks)


class _Terms(NamedTuple):
    """T_q of one sector, summed into the upper triangle of its orbit
    pairs, numbered 0 to ``pairs`` - 1: each hop's pair, the orbit slots
    (orbit * size + slot) of its target and source, and its value; then
    the pairs of both triangles in CSR order, as their row and column
    orbits and the number of the upper pair that holds their block."""

    pairs: int
    pair: np.ndarray
    target: np.ndarray
    source: np.ndarray
    values: np.ndarray
    full_rows: np.ndarray
    full_cols: np.ndarray
    full_pair: np.ndarray


def _block(q: int, parity: int | None, representatives: np.ndarray,
           groups: _Orbits, members: np.ndarray,
           entries: tuple[np.ndarray, np.ndarray, np.ndarray], width: int,
           terms: _Terms, contact: np.ndarray,
           *lines: np.ndarray) -> SectorBlock:
    """The block X = W^H T_q W, mirrored, with its contact energies
    |W|^2 D.  ``entries`` gives W's entries (rows, columns, values); row
    i is the Bloch state of the representative at position ``members[i]``
    among all, with contact energy ``contact[i]``."""
    rows, cols, values = entries
    count, size = len(groups.lead), groups.size
    group, slot = groups.group[members[rows]], groups.slot[members[rows]]
    # W's columns follow its orbits' lowest representatives, at most two
    # adjacent ones per orbit; ``small`` holds W's block of each orbit,
    # one row per slot.
    owner = np.empty(width, dtype=np.intp)
    owner[cols] = group
    wide = np.bincount(owner, minlength=count)
    start = np.cumsum(wide) - wide
    small = np.zeros((count * size, 2), dtype=complex)
    small[group * size + slot, cols - start[group]] = values
    *hop, diagonal = _mirrored_csr(_pair_sums(small, terms), terms, wide,
                                   start)
    interaction = np.bincount(cols, np.abs(values) ** 2 * contact[rows],
                              width)
    for arr in (representatives, *hop, diagonal, interaction, *lines):
        arr.setflags(write=False)
    return SectorBlock(q, parity, representatives, CSRArrays(*hop), diagonal,
                       interaction, *lines)


def _pair_sums(small: np.ndarray, terms: _Terms) -> np.ndarray:
    """The 2 x 2 blocks of X = W^H T_q W of the upper pairs, as a (pairs,
    2, 2) array, from W's blocks ``small``: each hop adds conj(W[target,
    i]) * value * W[source, j] to entry (i, j) of its pair's block, in the
    order of the hops, so the sums are the same on every run."""
    conj_target = small[terms.target].conj()
    weighted = terms.values[:, None] * small[terms.source]
    x = np.empty((terms.pairs, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            part = conj_target[:, i] * weighted[:, j]
            x[:, i, j].real = np.bincount(terms.pair, part.real, terms.pairs)
            x[:, i, j].imag = np.bincount(terms.pair, part.imag, terms.pairs)
    return x


def _mirrored_csr(x: np.ndarray, terms: _Terms, wide: np.ndarray,
                  start: np.ndarray) -> tuple[np.ndarray, ...]:
    """X as (data, indices, indptr, diagonal), from the blocks ``x`` of
    the upper pairs and the column count ``wide`` and first column
    ``start`` of each orbit.

    Each row of orbit A holds, pair by pair in column order, the row's
    entries of the pair's block: ``length[A]`` in all.  A lower pair reads
    its upper pair's block transposed, and a diagonal pair its upper
    triangle, so both mirror entries hold one value.  Exact zeros are
    left out, and every diagonal position is stored, an entry of -0.0 as
    0.0.
    """
    rows, cols, pair = terms.full_rows, terms.full_cols, terms.full_pair
    width = int(wide.sum())
    per_row = wide[cols] * (wide[rows] > 0)
    before = np.cumsum(per_row) - per_row
    length = np.bincount(rows, per_row, len(wide)).astype(np.intp)
    head = (np.cumsum(wide * length) - wide * length)[rows] + before \
        - before[np.searchsorted(rows, rows)]
    data = np.empty(int((wide * length).sum()), dtype=complex)
    indices = np.empty(len(data), dtype=np.int32)
    on = np.zeros(len(data), dtype=bool)
    flat = x.reshape(-1)
    for i in range(2):
        for j in range(2):
            valid = np.flatnonzero((i < wide[rows]) & (j < wide[cols]))
            swap = rows[valid] > cols[valid]
            if i > j:
                swap |= rows[valid] == cols[valid]
            at = head[valid] + i * length[rows[valid]] + j
            data[at] = flat[4 * pair[valid] + np.where(swap, 2 * j + i,
                                                       2 * i + j)]
            indices[at] = start[cols[valid]] + j
            if i == j:
                on[at[rows[valid] == cols[valid]]] = True
    row_length = np.repeat(length, wide)
    stored = on | (data != 0)
    if not stored.all():
        data, indices, on = data[stored], indices[stored], on[stored]
        row_length = np.add.reduceat(stored, np.cumsum(row_length)
                                     - row_length)
    data += 0.0
    indptr = np.zeros(width + 1, dtype=np.int32)
    np.cumsum(row_length, out=indptr[1:])
    return data, indices, indptr, np.flatnonzero(on)
