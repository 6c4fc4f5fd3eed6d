"""Built-in consistency suite: analytic formulas against exact
diagonalization, operator identities, and reproducibility.

Each check returns its worst observed deviation together with the
tolerance it must stay under, so a report can show the actual margins.
The checks accept an injectable current-operator builder, letting tests
confirm that a deliberately corrupted convention is caught.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import analytic, observables
from .basis import (
    FermionFockState,
    FockBasis,
    FockState,
    apply_translation,
    enumerate_basis,
    sector_of_state,
    translation_orbits,
)
from .eigen import SolverOptions, lowest_k
from .hamiltonian import (
    SectorBlock,
    build_operator,
    hopping_amplitude,
    reflection_rotation,
    sector_blocks,
)
from .model import Bosons, Fermions, RingSpec, SpeciesSpec, make_ring
from .sweep import OmegaGrid, SweepSpec, find_crossings, run as run_sweep

_TWIST_STEP = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""


def _result(name: str, deviation: float, tolerance: float,
            detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=deviation <= tolerance,
                       max_deviation=float(deviation), tolerance=tolerance,
                       detail=detail)


def _single_particle_rings(sites: Sequence[int] = (4, 6, 8, 12, 16),
                           omega_k_over_t: Sequence[float] = (0.0, 0.7, 2.9),
                           ) -> list[RingSpec]:
    rings = []
    for n in sites:
        base = make_ring(n)
        for x in omega_k_over_t:
            rings.append(base.with_omega(x * base.t / base.k_factor))
    return rings


def check_spectrum_vs_diagonalization() -> CheckResult:
    """One-particle eigenvalues must match the winding energies."""
    worst = 0.0
    for ring in _single_particle_rings():
        basis = enumerate_basis(ring, Bosons(1))
        op = build_operator(ring, Bosons(1), basis)
        computed = np.sort(np.linalg.eigvalsh(op.to_dense()))
        expected = np.sort([
            analytic.energy(analytic.winding_state(ring, n), ring)
            for n in range(ring.n_sites)])
        worst = max(worst, float(np.max(np.abs(computed - expected))))
    return _result("spectrum_vs_diagonalization", worst, 1e-10)


def check_ground_current_vs_formula() -> CheckResult:
    """One-particle ground currents must match the winding currents."""
    worst = 0.0
    for ring in _single_particle_rings(omega_k_over_t=(0.0, 0.9, 3.3, 7.0)):
        species = Bosons(1)
        basis = enumerate_basis(ring, species)
        op = build_operator(ring, species, basis)
        result = lowest_k(op, 1)
        jop = observables.current_operator(ring, species, basis)
        report = observables.evaluate(jop, result.vectors[:, 0], species,
                                      ring, basis)
        expected = analytic.current(analytic.ground_winding(ring), ring)
        worst = max(worst, abs(report.total_current - expected))
    return _result("ground_current_vs_formula", worst, 1e-9)


def _test_systems() -> list[tuple[RingSpec, SpeciesSpec]]:
    return [
        (make_ring(8, omega=1.7), Bosons(1)),
        (make_ring(6, omega=0.9), Bosons(2, u=3.0)),
        (make_ring(8, omega=2.4), Fermions(1, 1, u=4.0)),
        (make_ring(5, omega=-1.1), Fermions(2, 1, u=-2.5)),
    ]


def _with_rest_doublet() -> list[tuple[RingSpec, SpeciesSpec]]:
    """The test systems plus 2+2 fermions on 8 sites at rest, whose second
    level is a doublet split across two translation sectors."""
    return _test_systems() + [(make_ring(8), Fermions(2, 2, u=4.0))]


def check_twist_current_identity(
    current_builder: Callable = observables.current_operator,
) -> CheckResult:
    """<J> must equal the central-difference twist derivative of <H>."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for ring, species in _test_systems():
        basis = enumerate_basis(ring, species)
        vector = rng.standard_normal(basis.dimension) \
            + 1j * rng.standard_normal(basis.dimension)
        vector /= np.linalg.norm(vector)
        plus = build_operator(ring, species, basis, twist=+_TWIST_STEP)
        minus = build_operator(ring, species, basis, twist=-_TWIST_STEP)
        derivative = (plus.expectation(vector)
                      - minus.expectation(vector)) / (2 * _TWIST_STEP)
        jop = current_builder(ring, species, basis)
        measured = float(np.vdot(vector, jop.apply(vector)).real)
        worst = max(worst, abs(measured - (-derivative)))
    return _result("twist_current_identity", worst, 1e-6)


def check_hermiticity() -> CheckResult:
    """<u|H v> must equal conj(<v|H u>) on random vectors."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for ring, species in _test_systems():
        basis = enumerate_basis(ring, species)
        op = build_operator(ring, species, basis)
        scale = max(1.0, float(np.abs(op.matrix.data).max()))
        for _ in range(3):
            u = rng.standard_normal(basis.dimension) \
                + 1j * rng.standard_normal(basis.dimension)
            v = rng.standard_normal(basis.dimension) \
                + 1j * rng.standard_normal(basis.dimension)
            left = np.vdot(u, op.apply(v))
            right = np.conj(np.vdot(v, op.apply(u)))
            worst = max(worst, abs(left - right) / scale)
    return _result("hermiticity", worst, 1e-12)


def check_translation_commutation() -> CheckResult:
    """The one-site shift must commute with every Hamiltonian."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for ring, species in _test_systems():
        basis = enumerate_basis(ring, species)
        op = build_operator(ring, species, basis)
        scale = max(1.0, float(np.abs(op.matrix.data).max()))
        for _ in range(3):
            v = rng.standard_normal(basis.dimension) \
                + 1j * rng.standard_normal(basis.dimension)
            v /= np.linalg.norm(v)
            defect = (apply_translation(op.apply(v), basis)
                      - op.apply(apply_translation(v, basis)))
            worst = max(worst, float(np.linalg.norm(defect)) / scale)
    return _result("translation_commutation", worst, 1e-12)


def check_sector_labels() -> CheckResult:
    """Single-particle plane waves must label by their winding."""
    ring = make_ring(8, omega=0.6)
    species = Bosons(1)
    basis = enumerate_basis(ring, species)
    mismatches = 0
    for n in range(ring.n_sites):
        vector = np.zeros(basis.dimension, dtype=complex)
        for j in range(ring.n_sites):
            occ = tuple(1 if site == j else 0 for site in range(ring.n_sites))
            vector[basis.index_of(occ)] = np.exp(2j * np.pi * n * j
                                                 / ring.n_sites)
        vector /= np.linalg.norm(vector)
        if sector_of_state(vector, basis) != n:
            mismatches += 1
    return _result("sector_labels", float(mismatches), 0.0,
                   detail=f"{mismatches} plane waves mislabeled")


def check_krylov_vs_dense() -> CheckResult:
    """The ARPACK path must reproduce the dense spectrum and its groups.

    Includes the rest-frame 2+2 fermion doublet, where a plain ARPACK
    call skips one copy of the second level.
    """
    dense = SolverOptions(dense_threshold=2**62)
    krylov = SolverOptions(dense_threshold=1)
    worst, mismatched = 0.0, []
    for ring, species in _with_rest_doublet():
        basis = enumerate_basis(ring, species)
        op = build_operator(ring, species, basis)
        for k in (3, 4):
            reference = lowest_k(op, k, options=dense)
            result = lowest_k(op, k, options=krylov)
            worst = max(worst, float(np.max(np.abs(result.values
                                                   - reference.values))))
            if result.degeneracy_groups != reference.degeneracy_groups:
                mismatched.append(f"{species!r} k={k}")
    if mismatched:
        return _result("krylov_vs_dense", np.inf, 1e-10,
                       detail="degeneracy groups differ: "
                       + ", ".join(mismatched))
    return _result("krylov_vs_dense", worst, 1e-10)


def bloch_states(basis: FockBasis, block: SectorBlock) -> np.ndarray:
    """Fock amplitudes of the block's basis states: the Bloch states
    p^(-1/2) sum_{d<p} exp(+2*pi*i*q*d/N) T^d |r> of its representatives
    r (p the period of the orbit of r), built here from the translation
    orbits, times the sparse unitary W of
    :func:`~ringlat.hamiltonian.reflection_rotation`."""
    orbits = translation_orbits(basis)
    orbit, steps, signs, period, _ = orbits
    members = block.representatives
    inside = np.flatnonzero(np.isin(orbit, members))
    states = np.zeros((basis.dimension, len(members)), dtype=complex)
    states[inside, np.searchsorted(members, orbit[inside])] = (
        signs[inside] / np.sqrt(period[inside]) * np.exp(
            -2j * math.pi * block.q * steps[inside] / basis.n_sites))
    return states @ reflection_rotation(basis, orbits, block.q,
                                        members).toarray()


def _reflected(state: FockState, n_sites: int) -> tuple[FockState, int]:
    """R|state> for the site reflection j -> -j (mod N), as (state, sign).

    A fermion sign is the parity of sorting each spin's reflected creation
    operators back into ascending site order.
    """
    if isinstance(state, FermionFockState):
        sign, masks = 1, []
        for mask in state:
            sites = [-j % n_sites for j in range(n_sites) if (mask >> j) & 1]
            sign *= (-1) ** sum(a > b for k, a in enumerate(sites)
                                for b in sites[k + 1:])
            masks.append(sum(1 << j for j in sites))
        return FermionFockState(*masks), sign
    return tuple(state[-j % n_sites] for j in range(n_sites)), 1


def check_sector_blocks() -> CheckResult:
    """The translation-sector blocks must cover the basis, hold states of
    their own sector that the reflection times complex conjugation leaves
    fixed, be real and exactly symmetric, equal H in those states and
    together hold the dense spectrum."""
    worst, problems = 0.0, []
    # 4+2 fermions on 6 sites have orbits whose closing sign is -1.
    systems = _with_rest_doublet() + [(make_ring(6, omega=1.3),
                                       Fermions(4, 2, u=1.5))]
    for ring, species in systems:
        basis = enumerate_basis(ring, species)
        blocks = sector_blocks(basis)
        amp, u = hopping_amplitude(ring), getattr(species, "u", 0.0)
        matrices = [block.operator(amp, u).matrix for block in blocks]
        problems.extend(
            f"{species!r}: block {block.q} is not real and exactly symmetric"
            for block, matrix in zip(blocks, matrices)
            if matrix.dtype != np.float64 or (matrix != matrix.T).nnz)
        spectra = np.sort(np.concatenate(
            [np.linalg.eigvalsh(matrix.toarray()) for matrix in matrices]))
        if len(spectra) != basis.dimension:
            problems.append(f"{species!r}: blocks hold {len(spectra)} of "
                            f"{basis.dimension} states")
            continue
        dense = build_operator(ring, species, basis).to_dense()
        worst = max(worst, float(np.max(np.abs(
            spectra - np.linalg.eigvalsh(dense)))))
        mirror = [_reflected(state, ring.n_sites) for state in basis.states]
        targets = [basis.index_of(state) for state, _ in mirror]
        signs = np.array([sign for _, sign in mirror], dtype=float)
        for block, matrix in zip(blocks, matrices):
            states = bloch_states(basis, block)
            # The block must be H in its basis, not only isospectral.
            worst = max(worst, float(np.max(np.abs(
                states.conj().T @ dense @ states - matrix.toarray()))))
            reflected = np.empty_like(states)
            reflected[targets] = signs[:, None] * states.conj()
            worst = max(worst, float(np.max(np.abs(reflected - states))))
            problems.extend(
                f"{species!r}: a state of block {block.q} has sector {label}"
                for label in {sector_of_state(v, basis) for v in states.T}
                if label != block.q)
    if problems:
        return _result("sector_blocks", np.inf, 1e-10,
                       detail="; ".join(problems))
    return _result("sector_blocks", worst, 1e-10)


def check_twist_degeneracy_crossings() -> CheckResult:
    """Ground crossings pinned by symmetry must be found where they are.

    At omega*K/t = tan(m*pi/N) every bond carries a twist of m*pi/N, where
    sectors q and m*N_p - q (mod N) are exactly degenerate for any u, so
    these crossings lie at omega = t*tan(m*pi/N)/K.
    """
    ring, tol = make_ring(8), 1e-8
    worst, problems = 0.0, []
    for species, windings in ((Bosons(3, u=7.0), (1, 3)),
                              (Fermions(2, 1, u=-3.0), (1, 2, 3))):
        found = find_crossings(SweepSpec(
            ring, species, OmegaGrid(0.0, 8.0, 17), bisection_tol=tol))
        expected = [ring.t * math.tan(m * math.pi / ring.n_sites)
                    / ring.k_factor for m in windings]
        if len(found) != len(expected):
            problems.append(f"{species!r}: {len(found)} crossings, "
                            f"expected {len(expected)}")
            continue
        worst = max(worst, *(abs(f - e) for f, e in zip(found, expected)))
    if problems:
        return _result("twist_degeneracy_crossings", np.inf, tol,
                       detail="; ".join(problems))
    return _result("twist_degeneracy_crossings", worst, tol)


def check_determinism() -> CheckResult:
    """The same sweep spec must reproduce identical rows on both solver
    paths when run twice."""
    specs = (
        (SweepSpec(ring=make_ring(8), species=Fermions(1, 1, u=2.0),
                   control=OmegaGrid(0.0, 6.0, 7)), SolverOptions()),
        # Sector blocks of up to 100 states, pushed onto the ARPACK path.
        (SweepSpec(ring=make_ring(8), species=Fermions(2, 2, u=4.0),
                   control=OmegaGrid(0.0, 6.0, 3)),
         SolverOptions(dense_threshold=20)),
    )
    differing = []
    for spec, options in specs:
        if (run_sweep(spec, options=options).rows
                != run_sweep(spec, options=options).rows):
            differing.append(repr(spec.species))
    return _result("determinism", float(len(differing)), 0.0,
                   detail="" if not differing else
                   "rows differ between runs: " + ", ".join(differing))


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_spectrum_vs_diagonalization,
    check_ground_current_vs_formula,
    check_twist_current_identity,
    check_hermiticity,
    check_translation_commutation,
    check_sector_labels,
    check_krylov_vs_dense,
    check_sector_blocks,
    check_twist_degeneracy_crossings,
    check_determinism,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
