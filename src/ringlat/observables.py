"""Ring-current operator and measurements on many-body states.

The bond current from site j to j+1 is the commutator i*[n_j, H_bond],
which for the complex hopping used here reads

    J_bond = (i*t - omega*K) * hop_forward + h.c.

summed over bonds (and spins) it integrates to the total ring current,
identically equal to -dH(theta)/d(theta) for a uniform bond twist theta.
A state is "fast" when its total current is positive, i.e. the particles
outrun the stirring drive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import FockBasis, sector_of_state
from .hamiltonian import HermitianOperator, _check_basis, hopping_operator
from .model import RingSpec, SpeciesSpec, particle_count

#: Currents with |J| below this (in units of t) count as zero, not fast.
FAST_CURRENT_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class CurrentReport:
    """Current measurement on one state of a homogeneous ring.

    ``sector`` is the translation sector q (None when mixed);
    ``is_max_winding`` tests q against the strong-drive target, the
    per-particle maximal winding N * floor(n_sites/4) mod n_sites.
    """

    total_current: float
    per_particle_current: float
    per_bond: np.ndarray
    sector: int | None
    is_fast_current: bool
    is_max_winding: bool


def forward_hop_amplitude(ring: RingSpec) -> complex:
    """Coefficient of the forward-hop bilinear in the current operator."""
    return 1j * ring.t - ring.omega * ring.k_factor


def current_operator(ring: RingSpec, species: SpeciesSpec,
                     basis: FockBasis) -> HermitianOperator:
    """Integrated ring-current operator on the given basis."""
    _check_basis(ring, species, basis)
    return hopping_operator(basis, forward_hop_amplitude(ring))


def bond_hop_expectations(vector: np.ndarray, basis: FockBasis) -> np.ndarray:
    """<hop_forward> resolved per bond (summed over spin sectors)."""
    v = np.asarray(vector)
    hops = basis.hops
    terms = np.conj(v[hops.rows]) * v[hops.cols] * hops.values
    return (np.bincount(hops.bonds, terms.real, minlength=basis.n_sites)
            + 1j * np.bincount(hops.bonds, terms.imag,
                               minlength=basis.n_sites))


def evaluate(op: HermitianOperator, vector: np.ndarray, species: SpeciesSpec,
             ring: RingSpec, basis: FockBasis,
             sector_tol: float = 1e-8) -> CurrentReport:
    """Measure the current of a normalized state.

    The expectation of the Hermitian current operator is real within
    1e-10 by construction; the per-bond decomposition sums the basis hop
    table bond by bond and adds back up to the total.
    """
    raw = np.vdot(vector, op.apply(vector))
    if abs(raw.imag) > 1e-10 * max(1.0, abs(raw.real)):
        raise ValueError(f"current expectation has imaginary part {raw.imag:.3e}; "
                         f"operator or state is corrupted")
    total = float(raw.real)
    amp = forward_hop_amplitude(ring)
    per_bond = 2.0 * (amp * bond_hop_expectations(vector, basis)).real
    sector = sector_of_state(vector, basis, tol=sector_tol)
    n_particles = particle_count(species)
    target = (n_particles * (ring.n_sites // 4)) % ring.n_sites
    return CurrentReport(
        total_current=total,
        per_particle_current=total / n_particles,
        per_bond=per_bond,
        sector=sector,
        is_fast_current=total > FAST_CURRENT_EPS * ring.t,
        is_max_winding=sector is not None and sector == target,
    )


def occupations(vector: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Per-site densities <n_i>; they sum to the particle count."""
    if len(vector) != basis.dimension:
        raise ValueError(f"vector length {len(vector)} != basis dimension "
                         f"{basis.dimension}")
    return np.abs(np.asarray(vector)) ** 2 @ basis.occupations
