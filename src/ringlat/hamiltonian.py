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

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .basis import FockBasis, spin_flip, translation_orbits
from .model import (
    Bosons,
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


@dataclass(frozen=True, eq=False)
class SectorBlock:
    """Sector q of the ring Hamiltonians, real symmetric on states that
    the site reflection times complex conjugation leaves fixed; for
    Fermions with n_up = n_down, the half of sector q with spin-flip
    parity ``parity`` (+1 or -1), else None.

    The states are the Bloch states
    p^(-1/2) sum_{d<p} exp(+2*pi*i*q*d/N) T^d |r> of ``representatives``
    r (T the forward shift, p the period of the orbit of r), rotated by
    the W of :func:`reflection_rotation`, or of :func:`spin_flip_rotation`
    for a half.  In them the forward-hop sum is
    a complex symmetric matrix X, held in ``hop`` as one CSR matrix whose
    mirror entries hold one value and whose every diagonal position is
    stored (a 0 where X has none), at ``diagonal`` in ``hop.data``.  A
    block of at most ``DENSE_THRESHOLD`` states keeps X as a dense array
    too, once :meth:`dense` or :meth:`hop_expectation` first needs it
    (:attr:`dense_hop`).
    ``interaction`` is each state's contact energy at unit coupling.
    ``lines_t`` and ``lines_drive`` hold the A_c and B_c of the block's
    plane-wave configurations c (:func:`plane_wave_lines`), one per state:
    at u = 0 the block's levels are exactly t A_c + omega K B_c.
    """

    q: int
    parity: int | None
    representatives: np.ndarray
    hop: sparse.csr_matrix = field(repr=False)
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
        return self.hop.shape[0]

    def operator(self, forward_amplitude: complex,
                 u: float = 0.0) -> HermitianOperator:
        """amp * X + h.c. + u * interaction = 2 Re(amp * X) + u * interaction:
        real, and exactly symmetric since both mirror entries hold one
        value."""
        return HermitianOperator(self.hop.shape[0], sparse.csr_matrix(
            (self._entries(forward_amplitude, u), self.hop.indices,
             self.hop.indptr), shape=self.hop.shape))

    def dense(self, forward_amplitude: complex, u: float = 0.0) -> np.ndarray:
        """The matrix of :meth:`operator` as a dense array, equal to its
        ``to_dense()`` bit for bit at a finite amplitude: for a block of at
        most ``DENSE_THRESHOLD`` states built from the dense X that it
        keeps (:attr:`dense_hop`), without a sparse matrix; for a larger
        one, solved densely only under a raised ``dense_threshold``, that
        ``to_dense()`` itself."""
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
        ``hop``."""
        hop = self.dense_hop if self.dimension <= DENSE_THRESHOLD else self.hop
        return 2.0 * (complex(forward_amplitude)
                      * (vector @ (hop @ vector))).real

    @functools.cached_property
    def dense_hop(self) -> np.ndarray:
        """X as a dense complex array, read-only, built on first use and
        kept with the block: 16 bytes per entry, 640 KB for the blocks of
        2+2 fermions on 8 sites."""
        hop = self.hop.toarray()
        hop.setflags(write=False)
        return hop

    def _entries(self, forward_amplitude: complex, u: float) -> np.ndarray:
        """The values of the block operator at the positions of ``hop``."""
        data = 2.0 * (complex(forward_amplitude) * self.hop.data).real
        data[self.diagonal] += u * self.interaction
        return data


def _fixed_columns(c: np.ndarray, partner: np.ndarray) -> sparse.csr_matrix:
    """The unitary from m states that Theta maps as Theta|s> = c_s
    |partner_s> to states that Theta leaves fixed, as a sparse m x m
    matrix: a state with partner_s = s gives the column sqrt(c_s)|s>, a
    pair s < s' the columns (|s> + c_s|s'>)/sqrt(2) and
    i(|s> - c_s|s'>)/sqrt(2), in the order of s.  Theta squares to 1, so
    c_s' = c_s."""
    state = np.arange(len(c))
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
        shape=(len(c),) * 2)


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
    return _fixed_columns(*_bloch_map(basis, orbits, q, members,
                                      basis.reflect_perm,
                                      basis.reflect_sign[members]))


def spin_flip_rotation(basis: FockBasis, orbits: tuple[np.ndarray, ...],
                       q: int, members: np.ndarray, parity: int
                       ) -> tuple[np.ndarray, sparse.csr_matrix]:
    """The states of sector q with spin-flip parity ``parity`` that Theta
    leaves fixed, for Fermions with n_up = n_down: which of ``members``
    they hold, and the isometry W to them from the Bloch states of
    ``members``, as a sparse m x m' matrix.

    ``members`` holds, with each representative, that of its flipped
    orbit.  The spin flip F of :func:`~ringlat.basis.spin_flip` commutes
    with T, so F|r,q> = d_r |r'',q> as in :func:`reflection_rotation`,
    and F squares to 1, so d_r'' d_r = 1.  A representative with r'' = r
    has d_r = +-1 and gives the F-state |r,q> to the half of that
    parity; a pair r < r'' gives (|r,q> + parity d_r |r'',q>)/sqrt(2).
    Theta commutes with F, so it maps these F-states to each other up to
    phases c', and :func:`_fixed_columns` rotates them as it rotates the
    Bloch states of a whole sector.  A pair's state maps to the F-state
    that leads with r' = R(r), with c' = c_r, or with R(r''), with c' =
    parity conj(d_r) c_r''.
    """
    perm, sign = spin_flip(basis)
    d, flipped = _bloch_map(basis, orbits, q, members, perm, sign)
    c, mirror = _bloch_map(basis, orbits, q, members, basis.reflect_perm,
                           basis.reflect_sign[members])
    state = np.arange(len(members))
    inside = (flipped != state) | (d.real * parity > 0)
    leads = np.flatnonzero((state <= flipped) & inside)
    column = np.searchsorted(leads, np.minimum(state, flipped))
    pair = flipped[leads] != leads
    half = math.sqrt(0.5)
    states = np.arange(len(leads))
    combine = sparse.csr_matrix(
        (np.concatenate([np.where(pair, half, 1.0),
                         (parity * half * d[leads])[pair]]),
         (np.concatenate([leads, flipped[leads][pair]]),
          np.concatenate([states, states[pair]]))),
        shape=(len(members), len(leads)))
    image = mirror[leads]
    direct = image <= flipped[image]
    phase = np.where(direct, c[leads],
                     parity * d[leads].conj() * c[flipped[leads]])
    return inside, combine @ _fixed_columns(phase, column[image])


def sector_blocks(basis: FockBasis) -> tuple[SectorBlock, ...]:
    """The nonempty translation-sector blocks of ring Hamiltonians, and
    for Fermions with n_up = n_down their nonempty spin-flip halves.

    Block q holds the representatives whose orbit period p and closing
    sign c give exp(2*pi*i*q*p/N) * c = 1.  A hop out of representative r
    into state s of the orbit of r' adds its factor times signs[s] *
    exp(2*pi*i*q*steps[s]/N) * sqrt(p_r/p_r') to the Bloch entry (r', r)
    of the forward-hop sum T_q (Sandvik, arXiv:1101.3281, sec. 4.1).  The
    block holds X = W^H T_q W for the W of :func:`reflection_rotation`,
    its upper triangle mirrored, and the contact energies W^H D W, which
    are diagonal since Theta leaves D invariant, and the plane-wave lines
    of :func:`plane_wave_lines` in sector q.

    The spin flip F commutes with H at every t, omega and u, and with T
    and Theta, so with n_up = n_down sector q splits into the halves F =
    +1 and F = -1, each built on the W of :func:`spin_flip_rotation`,
    parity +1 first.  A plane-wave configuration c and its flip f(c)
    have one (A_c, B_c), and F|c> = (-1)**(n_up n_down) |f(c)>, since F
    acts on the momentum operators as on the site operators.  So a pair
    c != f(c) gives the line to each half, through (|c> +- s|f(c)>)/sqrt(2)
    with s that sign, and a configuration c = f(c), with equal up and
    down momenta, is an F-state of parity (-1)**(n_up n_down) and gives
    its line to that half alone.

    Every array of a block is read-only, since a sweep shares its blocks
    between calls.
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
    lines_t, lines_drive, wave_sector = plane_wave_lines(basis)
    flip = spin_flip(basis)
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
        waves = np.flatnonzero(wave_sector == q)
        if flip is None:
            halves = [(None, members,
                       reflection_rotation(basis, orbits, q, members), waves)]
        else:
            perm, sign = flip
            flipped = perm[waves]
            halves = []
            for parity in (1, -1):
                inside, w = spin_flip_rotation(basis, orbits, q, members,
                                               parity)
                own = (flipped == waves) & (sign == parity)
                if w.shape[1]:
                    halves.append((parity, members[inside], w,
                                   waves[(flipped > waves) | own]))
        for parity, representatives, w, lines in halves:
            blocks.append(_block(q, parity, representatives, w, bloch,
                                 contact[members],
                                 lines_t[lines], lines_drive[lines]))
    return tuple(blocks)


def _block(q: int, parity: int | None, representatives: np.ndarray,
           w: sparse.csr_matrix, bloch: sparse.csr_matrix,
           contact: np.ndarray, *lines: np.ndarray) -> SectorBlock:
    """The block X = W^H T_q W, mirrored, with its contact energies
    |W|^2 D, from the Bloch hop matrix T_q and the contact energies D of
    the sector's representatives."""
    m = w.shape[1]
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
    diagonal = np.flatnonzero(np.repeat(states, np.diff(hop.indptr))
                              == hop.indices)
    interaction = abs(w).power(2).T @ contact
    for arr in (representatives, hop.data, hop.indices, hop.indptr, diagonal,
                interaction, *lines):
        arr.setflags(write=False)
    return SectorBlock(q, parity, representatives, hop, diagonal,
                       interaction, *lines)
