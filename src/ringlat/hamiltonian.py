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

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .basis import FockBasis
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
    """Complex Hermitian matrix held as one full CSR matrix.

    ``matrix`` is canonical (sorted indices, no duplicates) and was
    checked on assembly to be Hermitian with a real diagonal.
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
    _check_basis(ring, species, basis)
    return _build(ring, species, basis, twist)


def build_fermion(ring: RingSpec, species: Fermions, basis: FockBasis,
                  twist: float = 0.0) -> HermitianOperator:
    """Fermion ring Hamiltonian: spin-conserving hopping plus u per
    doubly occupied site."""
    if not isinstance(species, Fermions):
        raise DomainError(f"species: build_fermion needs Fermions, got "
                          f"{type(species).__name__}")
    _check_basis(ring, species, basis)
    return _build(ring, species, basis, twist)


def build_operator(ring: RingSpec, species: SpeciesSpec, basis: FockBasis,
                   twist: float = 0.0) -> HermitianOperator:
    """Hamiltonian for any species; polarized fermions hop with no
    interaction."""
    if isinstance(species, Bosons):
        return build_boson(ring, species, basis, twist)
    if isinstance(species, Fermions):
        return build_fermion(ring, species, basis, twist)
    _check_basis(ring, species, basis)
    return _build(ring, species, basis, twist)


def _build(ring: RingSpec, species: SpeciesSpec, basis: FockBasis,
           twist: float) -> HermitianOperator:
    amp = (-ring.t - 1j * ring.omega * ring.k_factor) * np.exp(1j * twist)
    u = getattr(species, "u", 0.0)
    diagonal = u * interaction_diagonal(species, basis) if u else None
    return hopping_operator(basis, amp, diagonal)
