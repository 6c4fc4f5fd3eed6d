"""Built-in consistency suite: analytic formulas against exact
diagonalization, operator identities, and reproducibility.

Each check returns its worst observed deviation together with the
tolerance it must stay under, so a report can show the actual margins.
The checks accept an injectable current-operator builder, letting tests
confirm that a deliberately corrupted convention is caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import analytic, observables
from .basis import apply_translation, enumerate_basis, sector_of_state
from .eigen import SolverOptions, lowest_k
from .hamiltonian import build_operator
from .model import Bosons, Fermions, RingSpec, SpeciesSpec, make_ring
from .sweep import OmegaGrid, SweepSpec, run as run_sweep

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
    systems = _test_systems() + [(make_ring(8), Fermions(2, 2, u=4.0))]
    worst, mismatched = 0.0, []
    for ring, species in systems:
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


def check_determinism() -> CheckResult:
    """The same sweep spec must reproduce identical rows on both solver
    paths when run twice."""
    specs = (
        SweepSpec(ring=make_ring(8), species=Fermions(1, 1, u=2.0),
                  control=OmegaGrid(0.0, 6.0, 7)),
        # dim 784: above the dense threshold, so ARPACK does the solve.
        SweepSpec(ring=make_ring(8), species=Fermions(2, 2, u=4.0),
                  control=OmegaGrid(0.0, 6.0, 3)),
    )
    differing = []
    for spec in specs:
        if run_sweep(spec).rows != run_sweep(spec).rows:
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
    check_determinism,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
