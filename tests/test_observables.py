import numpy as np
import pytest

from ringlat import (
    Bosons,
    DomainError,
    Fermions,
    build_operator,
    current,
    current_operator,
    enumerate_basis,
    evaluate,
    ground_state,
    ground_winding,
    lowest_k,
    make_ring,
    occupations,
    winding_state,
)

from conftest import omega_for
from test_basis import single_particle_vector


def solve_ground(ring, species):
    basis = enumerate_basis(ring, species)
    op = build_operator(ring, species, basis)
    gs = ground_state(op)
    return basis, gs


class TestCurrentOperator:
    def test_basis_from_another_ring_rejected(self, ring8):
        basis = enumerate_basis(make_ring(6), Bosons(1))
        with pytest.raises(DomainError, match="basis"):
            current_operator(ring8, Bosons(1), basis)

    def test_saturated_winding_carries_two_t(self, ring8):
        for x in (0.0, 4.0, 11.0):
            ring = ring8.with_omega(omega_for(ring8, x))
            basis = enumerate_basis(ring, Bosons(1))
            jop = current_operator(ring, Bosons(1), basis)
            v = single_particle_vector(basis, 8, 2)
            assert np.vdot(v, jop.apply(v)).real == pytest.approx(
                2.0 * ring.t, abs=1e-12)

    def test_rest_winding_convention_value(self, ring8):
        ring = ring8.with_omega(1.0 / ring8.k_factor)  # omega*K = 1, t = 1
        basis = enumerate_basis(ring, Bosons(1))
        jop = current_operator(ring, Bosons(1), basis)
        v = single_particle_vector(basis, 8, 0)
        assert np.vdot(v, jop.apply(v)).real == pytest.approx(-2.0, abs=1e-12)

    def test_real_amplitudes_carry_no_current_at_rest(self, ring8):
        species = Bosons(2, u=1.0)
        basis = enumerate_basis(ring8, species)
        jop = current_operator(ring8, species, basis)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(basis.dimension)
        v /= np.linalg.norm(v)
        assert abs(np.vdot(v, jop.apply(v)).real) < 1e-12

    @pytest.mark.parametrize("species", [Bosons(2, u=2.0),
                                         Fermions(1, 1, u=-3.0)])
    def test_equals_twist_derivative_on_random_states(self, species, ring8):
        ring = ring8.with_omega(1.7)
        basis = enumerate_basis(ring, species)
        jop = current_operator(ring, species, basis)
        step = 1e-6
        plus = build_operator(ring, species, basis, twist=+step)
        minus = build_operator(ring, species, basis, twist=-step)
        rng = np.random.default_rng(4)
        for _ in range(3):
            v = rng.standard_normal(basis.dimension) \
                + 1j * rng.standard_normal(basis.dimension)
            v /= np.linalg.norm(v)
            derivative = (plus.expectation(v) - minus.expectation(v)) / (2 * step)
            assert np.vdot(v, jop.apply(v)).real == pytest.approx(
                -derivative, abs=1e-6)


class TestEvaluate:
    def test_rest_pair_is_still(self, ring8):
        species = Fermions(1, 1)
        basis, gs = solve_ground(ring8, species)
        jop = current_operator(ring8, species, basis)
        report = evaluate(jop, gs.vectors[:, 0], species, ring8, basis)
        assert report.per_particle_current == pytest.approx(0.0, abs=1e-10)
        assert not report.is_fast_current

    def test_driven_pair_saturates_at_two_t(self, ring8):
        species = Fermions(1, 1)
        ring = ring8.with_omega(omega_for(ring8, 10.0))
        basis, gs = solve_ground(ring, species)
        jop = current_operator(ring, species, basis)
        report = evaluate(jop, gs.vectors[:, 0], species, ring, basis)
        assert report.per_particle_current == pytest.approx(2.0 * ring.t,
                                                            abs=1e-9)
        assert report.is_fast_current
        assert report.sector == 4  # both particles wind twice: q = 2 + 2
        assert report.is_max_winding

    @pytest.mark.parametrize("species", [Fermions(1, 1, u=4.0),
                                         Bosons(2, u=3.0)],
                             ids=["fermions", "bosons"])
    def test_bonds_homogeneous_and_consistent(self, ring8, species):
        ring = ring8.with_omega(2.3)
        basis, gs = solve_ground(ring, species)
        jop = current_operator(ring, species, basis)
        report = evaluate(jop, gs.vectors[:, 0], species, ring, basis)
        assert np.max(np.abs(report.per_bond - report.per_bond[0])) < 1e-9
        assert report.total_current == pytest.approx(
            8.0 * report.per_bond[0], abs=1e-9)
        assert report.total_current == pytest.approx(float(np.sum(report.per_bond)),
                                                     abs=1e-10)

    @pytest.mark.parametrize("x", [0.0, 0.3, 0.9, 1.8, 3.1, 6.0])
    def test_single_particle_reduction(self, x, ring8):
        ring = ring8.with_omega(omega_for(ring8, x))
        species = Bosons(1)
        basis, gs = solve_ground(ring, species)
        jop = current_operator(ring, species, basis)
        report = evaluate(jop, gs.vectors[:, 0], species, ring, basis)
        assert report.total_current == pytest.approx(
            current(ground_winding(ring), ring), abs=1e-10)

    def test_rest_state_not_fast_not_max(self, ring8):
        ring = ring8.with_omega(0.2)
        species = Bosons(1)
        basis, gs = solve_ground(ring, species)
        jop = current_operator(ring, species, basis)
        report = evaluate(jop, gs.vectors[:, 0], species, ring, basis)
        assert report.sector == 0
        assert not report.is_fast_current
        assert not report.is_max_winding


class TestOccupations:
    def test_plane_wave_uniform(self, ring8):
        basis = enumerate_basis(ring8, Bosons(1))
        v = single_particle_vector(basis, 8, 3)
        assert np.allclose(occupations(v, basis), 1.0 / 8.0, atol=1e-12)

    @pytest.mark.parametrize("u,x", [(0.0, 0.0), (4.0, 2.0), (-3.0, 0.7)])
    def test_pair_ground_state_uniform(self, u, x, ring8):
        species = Fermions(1, 1, u=u)
        ring = ring8.with_omega(omega_for(ring8, x))
        basis, gs = solve_ground(ring, species)
        density = occupations(gs.vectors[:, 0], basis)
        assert np.allclose(density, 2.0 / 8.0, atol=1e-9)
        assert np.sum(density) == pytest.approx(2.0, abs=1e-10)

    def test_basis_vector_gives_integer_occupations(self, ring8):
        species = Bosons(2, u=1.0)
        basis = enumerate_basis(ring8, species)
        k = basis.index_of((0, 2, 0, 0, 0, 0, 0, 0))
        v = np.zeros(basis.dimension)
        v[k] = 1.0
        assert np.allclose(occupations(v, basis),
                           [0, 2, 0, 0, 0, 0, 0, 0], atol=0)

    def test_boson_pair_sums_to_count(self, ring8):
        species = Bosons(3, u=2.0)
        ring = ring8.with_omega(1.1)
        basis, gs = solve_ground(ring, species)
        assert np.sum(occupations(gs.vectors[:, 0], basis)) == pytest.approx(
            3.0, abs=1e-10)

    @pytest.mark.parametrize("length", [41, 35])
    def test_vector_of_another_length_is_rejected(self, length):
        # 1+1 fermions on 6 sites have 36 states; a longer vector was once
        # cut to the basis, and a shorter one raised IndexError.
        basis = enumerate_basis(make_ring(6), Fermions(1, 1))
        with pytest.raises(ValueError, match=f"vector length {length} != "
                                             f"basis dimension 36"):
            occupations(np.ones(length) / np.sqrt(length), basis)
