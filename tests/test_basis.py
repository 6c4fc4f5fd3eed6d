import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlat import (
    BasisSizeError,
    Bosons,
    FermionFockState,
    Fermions,
    PolarizedFermions,
    apply_translation,
    build_operator,
    enumerate_basis,
    lowest_k,
    make_ring,
    sector_of_state,
    translate,
)

from oracles import plane_wave


def single_particle_vector(basis, n_sites, winding):
    """Plane wave amplitudes laid out on a one-particle basis."""
    vector = np.zeros(basis.dimension, dtype=complex)
    amplitudes = plane_wave(n_sites, winding)
    for j in range(n_sites):
        if isinstance(basis.species, Bosons):
            state = tuple(1 if s == j else 0 for s in range(n_sites))
        else:
            state = FermionFockState(1 << j, 0)
        vector[basis.index_of(state)] = amplitudes[j]
    return vector


class TestEnumerate:
    def test_two_spin_dimension(self, ring8):
        assert enumerate_basis(ring8, Fermions(1, 1)).dimension == 64

    def test_half_filled_two_spin_dimension(self, ring8):
        basis = enumerate_basis(ring8, Fermions(2, 2))
        assert basis.dimension == 784 == math.comb(8, 2) ** 2

    def test_boson_dimension(self, ring8):
        assert enumerate_basis(ring8, Bosons(2)).dimension == math.comb(9, 7)

    def test_polarized_reuses_mask_layout(self, ring8):
        basis = enumerate_basis(ring8, PolarizedFermions(3))
        assert basis.dimension == math.comb(8, 3)
        assert all(state.down_mask == 0 for state in basis.states)

    def test_index_roundtrip(self, ring8):
        basis = enumerate_basis(ring8, Bosons(2))
        for k, state in enumerate(basis.states):
            assert basis.index_of(state) == k

    def test_boson_occupations_conserve_count(self, ring8):
        basis = enumerate_basis(ring8, Bosons(3))
        assert all(sum(occ) == 3 for occ in basis.states)

    def test_deterministic_ordering(self, ring8):
        first = enumerate_basis(ring8, Fermions(2, 1)).states
        second = enumerate_basis(ring8, Fermions(2, 1)).states
        assert first == second

    def test_dimension_cap(self, ring8):
        with pytest.raises(BasisSizeError):
            enumerate_basis(ring8, Bosons(2), max_dimension=10)

    def test_unknown_state_raises(self, ring8):
        basis = enumerate_basis(ring8, Bosons(2))
        with pytest.raises(KeyError):
            basis.index_of((9, 9, 9, 9, 9, 9, 9, 9))


class TestTranslate:
    def test_boson_pair_moves_forward(self, ring8):
        state, sign = translate((2, 0, 0, 0, 0, 0, 0, 0), ring8)
        assert state == (0, 2, 0, 0, 0, 0, 0, 0)
        assert sign == 1

    def test_single_fermion_no_sign(self, ring8):
        state, sign = translate(FermionFockState(0b00000001, 0), ring8)
        assert state == FermionFockState(0b00000010, 0)
        assert sign == 1

    def test_wrap_with_two_fermions_flips_sign(self, ring8):
        # One particle sits at the top site; shifting wraps it past the
        # other, an odd permutation.
        state, sign = translate(FermionFockState(0b10000001, 0), ring8)
        assert state == FermionFockState(0b00000011, 0)
        assert sign == -1

    def test_wrap_sign_follows_parity(self, ring8):
        for n_up in (1, 2, 3, 4):
            mask = (1 << (n_up - 1)) - 1 | (1 << 7)
            _, sign = translate(FermionFockState(mask, 0), ring8)
            assert sign == (-1) ** (n_up - 1)

    @given(up=st.integers(min_value=0, max_value=255),
           down=st.integers(min_value=0, max_value=255))
    @settings(max_examples=80)
    def test_full_cycle_is_identity_with_positive_sign(self, up, down):
        ring = make_ring(8)
        state = FermionFockState(up, down)
        total = 1
        current = state
        for _ in range(8):
            current, sign = translate(current, ring)
            total *= sign
        assert current == state
        assert total == 1

    def test_vector_translation_matches_statewise(self, ring8):
        basis = enumerate_basis(ring8, Fermions(2, 1))
        rng = np.random.default_rng(3)
        v = rng.standard_normal(basis.dimension) * 1j \
            + rng.standard_normal(basis.dimension)
        moved = apply_translation(v, basis)
        for k, state in enumerate(basis.states):
            shifted, sign = translate(state, ring8)
            assert moved[basis.index_of(shifted)] == sign * v[k]


class TestSectorOfState:
    @pytest.mark.parametrize("winding", [0, 1, 2, 5, 7])
    def test_plane_wave_labels_by_winding(self, ring8, winding):
        basis = enumerate_basis(ring8, Bosons(1))
        vector = single_particle_vector(basis, 8, winding)
        assert sector_of_state(vector, basis) == winding

    def test_superposition_is_mixed(self, ring8):
        basis = enumerate_basis(ring8, Bosons(1))
        vector = (single_particle_vector(basis, 8, 0)
                  + single_particle_vector(basis, 8, 1)) / math.sqrt(2)
        assert sector_of_state(vector, basis) is None

    def test_two_fermion_ground_state_at_rest(self, ring8):
        species = Fermions(1, 1)
        basis = enumerate_basis(ring8, species)
        op = build_operator(ring8, species, basis)
        result = lowest_k(op, 1)
        assert sector_of_state(result.vectors[:, 0], basis) == 0

    def test_unnormalized_rejected(self, ring8):
        basis = enumerate_basis(ring8, Bosons(1))
        with pytest.raises(ValueError, match="normalized"):
            sector_of_state(np.ones(basis.dimension, dtype=complex), basis)

    def test_translation_commutes_with_hamiltonian(self, ring8):
        ring = ring8.with_omega(1.9)
        species = Fermions(2, 2, u=3.0)
        basis = enumerate_basis(ring, species)
        op = build_operator(ring, species, basis)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(basis.dimension) \
            + 1j * rng.standard_normal(basis.dimension)
        v /= np.linalg.norm(v)
        defect = (apply_translation(op.apply(v), basis)
                  - op.apply(apply_translation(v, basis)))
        assert np.linalg.norm(defect) < 1e-12 * max(
            1.0, float(np.abs(op.matrix.data).max()))
