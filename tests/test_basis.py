import math
import re
from collections import defaultdict

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
from ringlat.basis import spin_flip

from oracles import _hops_from, plane_wave, reflection, spin_flip_oracle


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

    @pytest.mark.parametrize("ring,species", [
        (make_ring(8), Bosons(2)), (make_ring(7), Fermions(3, 2)),
        (make_ring(9), PolarizedFermions(4)), (make_ring(70), Fermions(1, 1)),
    ], ids=["bosons-2/8", "fermions-3+2/7", "polarized-4/9", "fermions-1+1/70"])
    def test_index_roundtrip(self, ring, species):
        basis = enumerate_basis(ring, species)
        assert all(not rows.flags.writeable for rows in basis.components)
        assert len(basis.states) == basis.dimension
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

    @pytest.mark.parametrize("state", [
        FermionFockState(1 << 9, 0), FermionFockState(1 << 8, 0),
        FermionFockState(0, 1 << 8), FermionFockState(-1, 0),
        (2, 0, 0), (2, 0, 0, 0, 0, 0, 0, 0, 0), (-1, 1, 0, 0, 0, 0, 0, 0),
    ], ids=["bit-9", "bit-8", "down-bit-8", "negative-mask", "short-tuple",
            "long-tuple", "negative-count"])
    def test_state_that_does_not_fit_the_ring_raises(self, ring8, state):
        with pytest.raises(ValueError,
                           match=re.escape(repr(state)) + ".*8 sites"):
            translate(state, ring8)

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


_SYMMETRY_SYSTEMS = pytest.mark.parametrize("ring,species", [
    (make_ring(8), Bosons(3)), (make_ring(7), Fermions(3, 2)),
    (make_ring(8), Fermions(4, 3)), (make_ring(6), Fermions(2, 0)),
    (make_ring(9), PolarizedFermions(4)), (make_ring(3), Bosons(256)),
], ids=["bosons-3/8", "fermions-3+2/7", "fermions-4+3/8", "fermions-2+0/6",
        "polarized-4/9", "bosons-256/3"])


class TestSymmetryTables:
    @_SYMMETRY_SYSTEMS
    def test_shift_table_matches_statewise_translate(self, ring, species):
        basis = enumerate_basis(ring, species)
        for k, state in enumerate(basis.states):
            shifted, sign = translate(state, ring)
            assert basis.shift_perm[k] == basis.index_of(shifted)
            assert basis.shift_sign[k] == sign

    @_SYMMETRY_SYSTEMS
    def test_reflection_table_matches_oracle(self, ring, species):
        basis = enumerate_basis(ring, species)
        targets, signs = reflection(basis, ring.n_sites)
        assert np.array_equal(basis.reflect_perm, targets)
        assert np.array_equal(basis.reflect_sign, signs)

    @_SYMMETRY_SYSTEMS
    def test_hop_table_matches_statewise_oracle(self, ring, species):
        # Sums per bond and (row, col), so neither side's entry order
        # matters here.
        basis = enumerate_basis(ring, species)
        want = defaultdict(float)
        for col, state in enumerate(basis.states):
            for bond, moved, factor in _hops_from(state, ring.n_sites, True):
                want[bond, basis.index_of(moved), col] += factor
        got = defaultdict(float)
        hops = basis.hops
        for bond, row, col, value in zip(hops.bonds.tolist(),
                                         hops.rows.tolist(),
                                         hops.cols.tolist(),
                                         hops.values.tolist()):
            got[bond, row, col] += value
        assert got == want

    @_SYMMETRY_SYSTEMS
    def test_reflection_inverts_the_shift(self, ring, species):
        # R T R = T^-1 as signed permutations, so R T R T = 1.
        basis = enumerate_basis(ring, species)
        v = np.random.default_rng(6).standard_normal(basis.dimension)

        def reflect(x):
            out = np.empty_like(x)
            out[basis.reflect_perm] = basis.reflect_sign * x
            return out

        moved = reflect(apply_translation(reflect(apply_translation(
            v, basis)), basis))
        assert np.array_equal(moved.real, v)


class TestSpinFlip:
    @pytest.mark.parametrize("ring,species", [
        (make_ring(4), Fermions(1, 1)), (make_ring(6), Fermions(2, 2)),
        (make_ring(6), Fermions(3, 3)), (make_ring(5), Fermions(2, 2)),
    ], ids=["1+1/4", "2+2/6", "3+3/6", "2+2/5"])
    def test_table_matches_oracle(self, ring, species):
        # The sign is (-1)**(n_up * n_down): -1 for odd spin counts.
        basis = enumerate_basis(ring, species)
        perm, sign = spin_flip(basis)
        targets, signs = spin_flip_oracle(basis)
        assert np.array_equal(perm, targets)
        assert np.all(signs == sign)
        assert sign == (-1.0) ** species.n_up

    @pytest.mark.parametrize("species", [
        Bosons(2), Fermions(2, 1), Fermions(2, 0), PolarizedFermions(2)],
        ids=["bosons", "2+1", "2+0", "polarized"])
    def test_only_equal_spin_counts_flip(self, species):
        assert spin_flip(enumerate_basis(make_ring(5), species)) is None


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
