import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlat import (
    Bosons,
    DomainError,
    Fermions,
    PolarizedFermions,
    RingSpec,
    build_boson,
    build_fermion,
    build_operator,
    current_operator,
    energy,
    enumerate_basis,
    make_ring,
    winding_state,
)
from ringlat.hamiltonian import operator_from_entries

from conftest import omega_for
from oracles import dense_ring_bilinear


def analytic_spectrum(ring):
    return np.sort([energy(winding_state(ring, n), ring)
                    for n in range(ring.n_sites)])


class TestSingleParticle:
    @pytest.mark.parametrize("x", [0.0, 0.7, 2.9, 10.0])
    def test_boson_spectrum_matches_winding_energies(self, x):
        base = make_ring(8)
        ring = base.with_omega(omega_for(base, x))
        basis = enumerate_basis(ring, Bosons(1))
        op = build_boson(ring, Bosons(1), basis)
        values = np.linalg.eigvalsh(op.to_dense())
        assert np.max(np.abs(values - analytic_spectrum(ring))) < 1e-10

    def test_single_fermion_same_spectrum(self):
        base = make_ring(6)
        ring = base.with_omega(omega_for(base, 1.4))
        species = Fermions(1, 0)
        basis = enumerate_basis(ring, species)
        op = build_fermion(ring, species, basis)
        values = np.linalg.eigvalsh(op.to_dense())
        assert np.max(np.abs(values - analytic_spectrum(ring))) < 1e-10


class TestInteractions:
    def test_double_occupancy_diagonal(self, ring8):
        species = Bosons(2, u=3.0)
        basis = enumerate_basis(ring8, species)
        op = build_boson(ring8, species, basis)
        dense = op.to_dense()
        doubly = basis.index_of((2, 0, 0, 0, 0, 0, 0, 0))
        spread = basis.index_of((1, 1, 0, 0, 0, 0, 0, 0))
        assert dense[doubly, doubly] == pytest.approx(2.0 * 3.0)
        assert dense[spread, spread] == pytest.approx(0.0)

    def test_fermion_interaction_spectrum_in_atomic_limit(self):
        # Hopping suppressed far below the interaction scale isolates the
        # contact term: 8 doubly occupied states at u, 56 at zero.
        ring = RingSpec(n_sites=8, t=1e-12, k_factor=0.35, omega=0.0)
        species = Fermions(1, 1, u=5.0)
        basis = enumerate_basis(ring, species)
        op = build_fermion(ring, species, basis)
        values = np.linalg.eigvalsh(op.to_dense())
        assert np.sum(np.abs(values) < 1e-9) == 56
        assert np.sum(np.abs(values - 5.0) < 1e-9) == 8

    def test_noninteracting_pair_ground_energy(self, ring8):
        species = Fermions(1, 1, u=0.0)
        basis = enumerate_basis(ring8, species)
        op = build_fermion(ring8, species, basis)
        values = np.linalg.eigvalsh(op.to_dense())
        assert values[0] == pytest.approx(-4.0 * ring8.t, abs=1e-10)


class TestStructure:
    def test_rest_frame_operator_is_real(self, ring8):
        basis = enumerate_basis(ring8, Bosons(2, u=1.5))
        op = build_boson(ring8, Bosons(2, u=1.5), basis)
        assert np.max(np.abs(op.to_dense().imag)) == 0.0

    def test_upper_triangle_storage(self, ring8):
        # The stored CSR matrix is exactly Hermitian with a real diagonal.
        ring = ring8.with_omega(2.0)
        basis = enumerate_basis(ring, Fermions(1, 1, u=2.0))
        op = build_fermion(ring, Fermions(1, 1, u=2.0), basis)
        assert (op.matrix != op.matrix.conj().T).nnz == 0
        assert np.max(np.abs(op.matrix.diagonal().imag)) <= 1e-14

    @pytest.mark.parametrize("n_sites, species", [
        (6, Bosons(3, u=2.5)),
        (3, Bosons(4, u=-1.5)),
        (5, Fermions(2, 1, u=3.0)),
        (8, Fermions(2, 2, u=4.0)),
        (7, PolarizedFermions(3)),
    ])
    def test_matches_dense_state_walk_oracle(self, n_sites, species):
        ring = make_ring(n_sites, omega=1.3)
        basis = enumerate_basis(ring, species)
        twist = 0.37
        amp = (-ring.t - 1j * ring.omega * ring.k_factor) * np.exp(1j * twist)
        expected = dense_ring_bilinear(basis, n_sites, amp,
                                       getattr(species, "u", 0.0))
        op = build_operator(ring, species, basis, twist=twist)
        assert np.array_equal(op.to_dense(), expected)
        jop = current_operator(ring, species, basis)
        expected_j = dense_ring_bilinear(
            basis, n_sites, 1j * ring.t - ring.omega * ring.k_factor)
        assert np.array_equal(jop.to_dense(), expected_j)

    @given(x=st.floats(min_value=-5, max_value=5),
           u=st.floats(min_value=-8, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_quadratic_form_is_real(self, x, u):
        base = make_ring(6)
        ring = base.with_omega(omega_for(base, x))
        species = Fermions(2, 1, u=u)
        basis = enumerate_basis(ring, species)
        op = build_fermion(ring, species, basis)
        rng = np.random.default_rng(17)
        v = rng.standard_normal(basis.dimension) \
            + 1j * rng.standard_normal(basis.dimension)
        value = np.vdot(v, op.apply(v))
        assert abs(value.imag) <= 1e-12 * max(1.0, abs(value.real))

    def test_cross_form_hermiticity(self):
        ring = make_ring(5, omega=1.1)
        species = Bosons(3, u=-2.0)
        basis = enumerate_basis(ring, species)
        op = build_operator(ring, species, basis)
        rng = np.random.default_rng(23)
        u = rng.standard_normal(basis.dimension) \
            + 1j * rng.standard_normal(basis.dimension)
        v = rng.standard_normal(basis.dimension) \
            + 1j * rng.standard_normal(basis.dimension)
        left = np.vdot(u, op.apply(v))
        right = np.conj(np.vdot(v, op.apply(u)))
        assert abs(left - right) <= 1e-12 * max(1.0, abs(left))


class TestTwist:
    @pytest.mark.parametrize("theta", [0.1, -0.35, 1.2])
    def test_uniform_twist_shifts_every_phase_coherently(self, theta):
        # A twist theta on every bond slides each winding phase by the
        # same theta, so the full spectrum maps onto the shifted formula.
        base = make_ring(8)
        ring = base.with_omega(omega_for(base, 1.7))
        basis = enumerate_basis(ring, Bosons(1))
        op = build_boson(ring, Bosons(1), basis, twist=theta)
        values = np.linalg.eigvalsh(op.to_dense())
        shifted = np.sort([
            -2.0 * (ring.t * math.cos(2 * math.pi * n / 8 - theta)
                    + ring.omega * ring.k_factor
                    * math.sin(2 * math.pi * n / 8 - theta))
            for n in range(8)])
        assert np.max(np.abs(values - shifted)) < 1e-10


class TestApply:
    def test_zero_vector(self, ring8):
        basis = enumerate_basis(ring8, Bosons(1))
        op = build_boson(ring8, Bosons(1), basis)
        assert np.all(op.apply(np.zeros(basis.dimension)) == 0)

    def test_identity_diagonal_copies(self):
        op = operator_from_entries(3, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0])
        v = np.array([1.0 + 2j, -0.5, 3.0])
        assert np.allclose(op.apply(v), v)

    def test_length_mismatch(self, ring8):
        basis = enumerate_basis(ring8, Bosons(1))
        op = build_boson(ring8, Bosons(1), basis)
        with pytest.raises(ValueError, match="length"):
            op.apply(np.zeros(basis.dimension + 1))


class TestMismatchErrors:
    def test_wrong_species_for_builder(self, ring8):
        basis = enumerate_basis(ring8, Bosons(1))
        with pytest.raises(DomainError):
            build_fermion(ring8, Bosons(1), basis)

    def test_basis_enumerated_for_other_species(self, ring8):
        basis = enumerate_basis(ring8, Bosons(1))
        with pytest.raises(DomainError, match="basis"):
            build_boson(ring8, Bosons(2), basis)

    def test_basis_enumerated_for_other_ring(self, ring8):
        basis = enumerate_basis(make_ring(6), Bosons(1))
        with pytest.raises(DomainError, match="basis"):
            build_boson(ring8, Bosons(1), basis)

    def test_non_hermitian_entries_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            operator_from_entries(2, [0], [1], [1.0 + 0.5j])

    def test_complex_diagonal_rejected(self):
        # Small enough to slip past the asymmetry check, still not real.
        with pytest.raises(ValueError, match="diagonal"):
            operator_from_entries(2, [0], [0], [1.0 + 1e-13j])


class TestPolarizedBuild:
    def test_matches_single_spin_fermions(self):
        base = make_ring(8)
        ring = base.with_omega(omega_for(base, 3.0))
        polarized = PolarizedFermions(3)
        basis_p = enumerate_basis(ring, polarized)
        op_p = build_operator(ring, polarized, basis_p)

        species_f = Fermions(3, 0, u=7.0)  # u is inert with no down spins
        basis_f = enumerate_basis(ring, species_f)
        op_f = build_fermion(ring, species_f, basis_f)

        values_p = np.linalg.eigvalsh(op_p.to_dense())
        values_f = np.linalg.eigvalsh(op_f.to_dense())
        assert np.max(np.abs(values_p - values_f)) < 1e-12
