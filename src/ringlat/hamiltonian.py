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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .basis import FockBasis, translation_orbits
from .model import (
    Bosons,
    DomainError,
    Fermions,
    RingSpec,
    SpeciesSpec,
    particle_content,
)

_DIAG_IMAG_TOL = 1e-14
_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian matrix held as one full CSR matrix.

    ``matrix`` is canonical and Hermitian with a real diagonal: complex
    and checked on assembly for the real-space operators, or real and
    exactly symmetric by construction for a :class:`SectorBlock`.
    """

    dimension: int
    matrix: sparse.csr_matrix = field(repr=False, compare=False)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """Matrix-vector product, exact within floating point."""
        if len(vector) != self.dimension:
            raise ValueError(f"vector length {len(vector)} != operator "
                             f"dimension {self.dimension}")
        return self.matrix @ vector

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def expectation(self, vector: np.ndarray) -> float:
        """<v|H|v>, guaranteed real for a Hermitian operator."""
        value = np.vdot(vector, self.apply(vector))
        return float(value.real)


def operator_from_entries(dimension: int, rows, cols, values) -> HermitianOperator:
    """Assemble a :class:`HermitianOperator` from raw coordinate terms.

    The term list must describe a Hermitian matrix (every off-diagonal
    entry accompanied by its conjugate mirror); duplicates are summed.
    """
    full = sparse.coo_matrix(
        (np.asarray(values, dtype=complex),
         (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(dimension, dimension)).tocsr()
    full.sum_duplicates()

    scale = max(1.0, np.abs(full.data).max()) if full.nnz else 1.0
    defect = abs(full - full.conj().T)
    if defect.nnz and defect.data.max() > _HERMITICITY_TOL * scale:
        raise ValueError(f"generated terms are not Hermitian: max asymmetry "
                         f"{defect.data.max():.3e}")
    diag_imag = np.abs(full.diagonal().imag)
    if diag_imag.size and diag_imag.max() > _DIAG_IMAG_TOL * scale:
        raise ValueError(f"diagonal is not real: max imaginary part "
                         f"{diag_imag.max():.3e}")
    return HermitianOperator(dimension=dimension, matrix=full)


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
    """Per-state diagonal interaction energy at unit coupling."""
    diag = np.zeros(basis.dimension)
    if isinstance(species, Bosons):
        for k, occ in enumerate(basis.states):
            diag[k] = sum(m * (m - 1) for m in occ)
    elif isinstance(species, Fermions):
        for k, state in enumerate(basis.states):
            diag[k] = (state.up_mask & state.down_mask).bit_count()
    return diag


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


@dataclass(frozen=True, eq=False)
class SectorBlock:
    """Sector q of the ring Hamiltonians, real symmetric on states that
    the site reflection times complex conjugation leaves fixed.

    The states are the Bloch states
    p^(-1/2) sum_{d<p} exp(+2*pi*i*q*d/N) T^d |r> of ``representatives``
    r (T the forward shift, p the period of the orbit of r), rotated by
    the W of :func:`reflection_rotation`.  In them the forward-hop sum is
    a complex symmetric matrix X, held in ``hop`` as one CSR matrix whose
    mirror entries hold one value and whose every diagonal position is
    stored (a 0 where X has none), at ``diagonal`` in ``hop.data``.
    ``interaction`` is each state's contact energy at unit coupling.
    """

    q: int
    representatives: np.ndarray
    hop: sparse.csr_matrix = field(repr=False)
    diagonal: np.ndarray = field(repr=False)
    interaction: np.ndarray = field(repr=False)

    def operator(self, forward_amplitude: complex,
                 u: float = 0.0) -> HermitianOperator:
        """amp * X + h.c. + u * interaction = 2 Re(amp * X) + u * interaction:
        real, and exactly symmetric since both mirror entries hold one
        value."""
        data = 2.0 * (complex(forward_amplitude) * self.hop.data).real
        data[self.diagonal] += u * self.interaction
        return HermitianOperator(self.hop.shape[0], sparse.csr_matrix(
            (data, self.hop.indices, self.hop.indptr), shape=self.hop.shape))


def reflection_rotation(basis: FockBasis, orbits: tuple[np.ndarray, ...],
                        q: int, members: np.ndarray) -> sparse.csr_matrix:
    """The unitary W from the Bloch states of ``members`` (sector q) to
    states fixed by Theta = R*K, the site reflection R times complex
    conjugation, as a sparse m x m matrix (row: Bloch state, column:
    rotated state).

    ``orbits`` is :func:`~ringlat.basis.translation_orbits` of the basis.
    Theta commutes with every ring bilinear and maps sector q to itself:
    Theta|r,q> = c_r |r',q>, where r' represents the orbit of s = R(r)
    and c_r = Rsign[r] * signs[s] * exp(2*pi*i*q*steps[s]/N).  A state
    with r' = r gives the column sqrt(c_r)|r,q>; a pair r < r' gives the
    columns (|r> + c_r|r'>)/sqrt(2) and i(|r> - c_r|r'>)/sqrt(2), in the
    order of r.  Theta squares to 1, so c_r' = c_r.
    """
    orbit, steps, signs = orbits[:3]
    mirror = basis.reflect_perm[members]
    c = basis.reflect_sign[members] * signs[mirror] * np.exp(
        2j * math.pi * q * steps[mirror] / basis.n_sites)
    state = np.arange(len(members))
    partner = np.searchsorted(members, orbit[mirror])
    lead = np.minimum(state, partner)
    alone = partner == state
    width = np.where(alone, 1, 2) * (state == lead)
    column = (np.cumsum(width) - width)[lead]
    half = math.sqrt(0.5)
    first = np.where(alone, np.sqrt(c),
                     np.where(state == lead, half, half * c[lead]))
    second = np.where(state == lead, 1j * half, -1j * half * c[lead])[~alone]
    return sparse.csr_matrix(
        (np.concatenate([first, second]),
         (np.concatenate([state, state[~alone]]),
          np.concatenate([column, column[~alone] + 1]))),
        shape=(len(members),) * 2)


def sector_blocks(basis: FockBasis) -> tuple[SectorBlock, ...]:
    """The nonempty translation-sector blocks of ring Hamiltonians.

    Block q holds the representatives whose orbit period p and closing
    sign c give exp(2*pi*i*q*p/N) * c = 1.  A hop out of representative r
    into state s of the orbit of r' adds its factor times signs[s] *
    exp(2*pi*i*q*steps[s]/N) * sqrt(p_r/p_r') to the Bloch entry (r', r)
    of the forward-hop sum T_q (Sandvik, arXiv:1101.3281, sec. 4.1).  The
    block holds X = W^H T_q W for the W of :func:`reflection_rotation`,
    its upper triangle mirrored, and the contact energies W^H D W, which
    are diagonal since Theta leaves D invariant.
    """
    orbits = translation_orbits(basis)
    orbit, steps, signs, period, closing = orbits
    n, hops = basis.n_sites, basis.hops
    from_rep = orbit[hops.cols] == hops.cols
    rows, cols = hops.rows[from_rep], hops.cols[from_rep]
    targets = orbit[rows]
    factors = hops.values[from_rep] * signs[rows] * np.sqrt(
        period[cols] / period[targets])
    reps = np.flatnonzero(orbit == np.arange(basis.dimension))
    contact = interaction_diagonal(basis.species, basis)
    blocks = []
    for q in range(n):
        # The integer form of the membership rule: 2qp + N[c < 0] = 0 mod 2N.
        members = reps[(2 * q * period[reps] + n * (closing[reps] < 0))
                       % (2 * n) == 0]
        m = len(members)
        if not m:
            continue
        keep = np.isin(cols, members) & np.isin(targets, members)
        bloch = sparse.csr_matrix(
            (factors[keep] * np.exp(2j * math.pi * q * steps[rows[keep]] / n),
             (np.searchsorted(members, targets[keep]),
              np.searchsorted(members, cols[keep]))), shape=(m, m))
        w = reflection_rotation(basis, orbits, q, members)
        upper = sparse.triu(w.conj().T @ bloch @ w, format="coo")
        off = upper.row < upper.col
        states = np.arange(m)
        # Mirrored, both entries hold one value, so every block operator is
        # exactly symmetric; the zeros store every diagonal position.
        hop = sparse.csr_matrix(
            (np.concatenate([upper.data, upper.data[off], np.zeros(m)]),
             (np.concatenate([upper.row, upper.col[off], states]),
              np.concatenate([upper.col, upper.row[off], states]))),
            shape=(m, m))
        blocks.append(SectorBlock(
            q, members, hop,
            np.flatnonzero(np.repeat(states, np.diff(hop.indptr))
                           == hop.indices),
            abs(w).power(2).T @ contact[members]))
    return tuple(blocks)
