import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlat import (
    Bosons,
    DomainError,
    Fermions,
    OmegaGrid,
    PolarizedFermions,
    RingSpec,
    SweepSpec,
    build_boson,
    build_fermion,
    build_operator,
    current_operator,
    energy,
    enumerate_basis,
    make_ring,
    run,
    winding_state,
)
from ringlat.basis import translation_orbits
from ringlat.model import particle_count
from ringlat.hamiltonian import (
    hopping_amplitude,
    interaction_diagonal,
    operator_from_entries,
    sector_blocks,
)
from ringlat.verify import bloch_states

from conftest import omega_for
from oracles import (
    dense_ring_bilinear,
    reflection,
    spin_flip_oracle,
    unscreened_rows,
)


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

    @pytest.mark.parametrize("n_sites, species", [
        (6, Bosons(3)), (3, Bosons(4)), (5, Fermions(2, 1)),
        (8, Fermions(2, 2)), (6, Fermions(4, 2)), (4, Fermions(0, 3)),
        (64, Fermions(1, 1)), (70, Fermions(1, 1)),
        (7, PolarizedFermions(3)), (3, Bosons(256))])
    def test_interaction_diagonal_counts_each_state(self, n_sites, species):
        # Exact integers, equal to a count over each state's occupations.
        basis = enumerate_basis(make_ring(n_sites), species)
        if isinstance(species, Bosons):
            counts = [list(state) for state in basis.states]
            want = [sum(n * (n - 1) for n in state) for state in basis.states]
        else:
            counts = [[(state.up_mask >> j & 1) + (state.down_mask >> j & 1)
                       for j in range(n_sites)] for state in basis.states]
            want = [(state.up_mask & state.down_mask).bit_count()
                    for state in basis.states]
        # The basis's occupation array holds the same counts, read-only.
        occupations = basis.occupations
        assert occupations.dtype == (
            np.min_scalar_type(species.n_particles)
            if isinstance(species, Bosons) else np.uint8)
        assert not occupations.flags.writeable
        assert np.array_equal(occupations, counts)
        assert np.all(occupations.sum(axis=1) == particle_count(species))
        got = interaction_diagonal(species, basis)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)

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


class TestSectorBlocks:
    @pytest.mark.parametrize("species", [
        Bosons(3, u=2.0), Fermions(4, 2, u=1.5), Fermions(2, 1, u=-2.5),
        PolarizedFermions(2), Fermions(2, 2, u=1.5), Fermions(3, 3, u=-1.0),
    ], ids=["bosons", "fermions-even", "fermions-odd", "polarized",
            "fermions-2+2", "fermions-3+3"])
    def test_blocks_are_the_bloch_projections(self, species):
        # On 6 sites, 4+2 fermions and 2 polarized fermions have orbits
        # whose closing sign is -1.
        ring = make_ring(6, omega=1.3)
        basis = enumerate_basis(ring, species)
        dense = build_operator(ring, species, basis).to_dense()
        blocks = sector_blocks(basis)
        assert sum(b.dimension for b in blocks) == basis.dimension
        amp = hopping_amplitude(ring)
        for block in blocks:
            states = bloch_states(basis, block)
            size = block.dimension
            assert np.allclose(states.conj().T @ states, np.eye(size),
                               atol=1e-12)
            projected = states.conj().T @ dense @ states
            matrix = block.operator(amp, getattr(species, "u", 0.0)).matrix
            assert np.abs(projected - matrix.toarray()).max() < 1e-12
            assert matrix.dtype == np.float64
            assert (matrix != matrix.T).nnz == 0

    @pytest.mark.parametrize("species", [
        Bosons(3, u=2.0), Fermions(4, 2, u=1.5), Fermions(2, 1, u=-2.5),
        Fermions(3, 3, u=1.0), PolarizedFermions(3),
    ], ids=["bosons", "fermions-even", "fermions-odd", "fermions-3+3",
            "polarized"])
    def test_block_states_are_fixed_by_reflection_and_conjugation(
            self, species):
        # Theta = R*K maps each sector to itself and leaves every block
        # state fixed, which makes the block real.  k fermions of one spin
        # off site 0 reflect with the sign (-1)**(k(k-1)/2).
        ring = make_ring(6, omega=1.3)
        basis = enumerate_basis(ring, species)
        targets, signs = reflection(basis, ring.n_sites)
        for block in sector_blocks(basis):
            states = bloch_states(basis, block)
            reflected = np.empty_like(states)
            reflected[targets] = signs[:, None] * states.conj()
            assert np.abs(reflected - states).max() < 1e-12

    @pytest.mark.parametrize("species", [
        Bosons(3), Fermions(4, 2), Fermions(2, 1), Fermions(0, 2),
        PolarizedFermions(2), Fermions(1, 1), Fermions(2, 2), Fermions(3, 3),
    ], ids=["bosons", "fermions-even", "fermions-odd", "down-only",
            "polarized", "fermions-1+1", "fermions-2+2", "fermions-3+3"])
    def test_free_levels_are_the_plane_wave_lines(self, species):
        # At u = 0 each block is diagonal in its sector's plane-wave
        # configurations: its levels are t A_c + omega K B_c, one per state.
        # With n_up = n_down a configuration with equal up and down momenta
        # lies in the half of parity (-1)**(n_up * n_down) alone: a wrong
        # sign moves its line to the other half.
        ring = make_ring(6, omega=1.3)
        amp = hopping_amplitude(ring)
        for block in sector_blocks(enumerate_basis(ring, species)):
            lines = (ring.t * block.lines_t
                     + ring.omega * ring.k_factor * block.lines_drive)
            levels = np.linalg.eigvalsh(block.operator(amp).to_dense())
            assert np.abs(levels - np.sort(lines)).max() < 1e-12

    @pytest.mark.parametrize("name", [
        "representatives", "hop.data", "hop.indices", "hop.indptr",
        "diagonal", "interaction", "lines_t", "lines_drive", "dense_hop"])
    def test_block_arrays_are_read_only(self, name):
        # A sweep shares its blocks between calls, so none may change them.
        basis = enumerate_basis(make_ring(6), Fermions(2, 1, u=1.0))
        for block in sector_blocks(basis):
            array = operator.attrgetter(name)(block)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


def _sector_sizes(basis) -> dict[int, int]:
    """Sector q -> number of orbit representatives r whose period p and
    closing sign c give exp(2*pi*i*q*p/N) * c = 1."""
    orbit, _, _, period, closing = translation_orbits(basis)
    reps = np.flatnonzero(orbit == np.arange(basis.dimension))
    n = basis.n_sites
    sizes = {q: int(np.sum(np.isclose(
        np.exp(2j * math.pi * q * period[reps] / n) * closing[reps], 1.0)))
        for q in range(n)}
    return {q: size for q, size in sizes.items() if size}


class TestSpinFlipHalves:
    @pytest.mark.parametrize("ring,species", [
        (make_ring(8), Fermions(1, 1, u=4.0)),
        (make_ring(8), Fermions(2, 2, u=4.0)),
        (make_ring(10), Fermions(3, 3, u=4.0)),
    ], ids=["1+1/8", "2+2/8", "3+3/10"])
    def test_two_halves_per_sector(self, ring, species):
        basis = enumerate_basis(ring, species)
        blocks = sector_blocks(basis)
        sizes = _sector_sizes(basis)
        assert [(block.q, block.parity) for block in blocks] == [
            (q, parity) for q in sizes for parity in (1, -1)]
        for q, size in sizes.items():
            plus, minus = (block for block in blocks if block.q == q)
            assert plus.dimension + minus.dimension == size
            for block in (plus, minus):
                assert len(block.lines_t) == block.dimension
                assert repr(block).startswith(
                    f"SectorBlock(q={q}, parity={block.parity:+d}, ")

    def test_self_flipped_configurations_set_the_sizes(self):
        # A pair c != f(c) of plane-wave configurations gives one state to
        # each half, and c = f(c) gives one to the half of parity
        # (-1)**(n_up * n_down): on q = 0, 53/47 for 2+2/8 and 708/732 for
        # 3+3/10.
        for ring, species, want in (
                (make_ring(8), Fermions(2, 2), (53, 47)),
                (make_ring(10), Fermions(3, 3), (708, 732))):
            blocks = sector_blocks(enumerate_basis(ring, species))
            assert tuple(block.dimension for block in blocks
                         if block.q == 0) == want

    @pytest.mark.parametrize("n_sites,parity", [(3, -1), (4, 1)])
    def test_an_empty_half_is_left_out(self, n_sites, parity):
        # A full ring holds one state, its own flip, of parity
        # (-1)**(n_up * n_down); the other half of its sector is empty.
        species = Fermions(n_sites, n_sites, u=1.0)
        ring = make_ring(n_sites, omega=0.5)
        (block,) = sector_blocks(enumerate_basis(ring, species))
        assert (block.q, block.parity) == (0, parity)
        assert block.dimension == 1
        (row,) = run(SweepSpec(ring, species, OmegaGrid(0.5, 1.0, 2))).rows[:1]
        assert row.sectors == (0,) and row.ground_energy == n_sites

    @pytest.mark.parametrize("species", [
        Fermions(1, 1, u=2.0), Fermions(2, 2, u=-1.0), Fermions(3, 3, u=1.0)],
        ids=["1+1", "2+2", "3+3"])
    def test_half_states_are_spin_flip_eigenvectors(self, species):
        ring = make_ring(6, omega=0.8)
        basis = enumerate_basis(ring, species)
        targets, signs = spin_flip_oracle(basis)
        for block in sector_blocks(basis):
            states = bloch_states(basis, block)
            flipped = np.empty_like(states)
            flipped[targets] = signs[:, None] * states
            assert np.abs(flipped - block.parity * states).max() < 1e-12

    @pytest.mark.parametrize("ring,species", [
        (make_ring(6), Bosons(3, u=2.0)),
        (make_ring(5), Fermions(2, 1, u=-2.5)),
        (make_ring(6), PolarizedFermions(2)),
    ], ids=["bosons", "2+1/5", "polarized"])
    def test_other_species_keep_one_block_per_sector(self, ring, species):
        basis = enumerate_basis(ring, species)
        blocks = sector_blocks(basis)
        assert [block.q for block in blocks] == list(_sector_sizes(basis))
        for block in blocks:
            assert block.parity is None
            assert (len(block.representatives) == block.dimension
                    == len(block.lines_t))
            assert repr(block) == (f"SectorBlock(q={block.q}, representatives="
                                   f"{block.representatives!r})")

    def test_ground_parity_changes_inside_sectors(self):
        # On 2+2/10 the lower of the two halves of sectors 0, 2, 4 and 6
        # changes along the drive: an exact level crossing inside a sector,
        # now between two blocks.
        spec = SweepSpec(make_ring(10), Fermions(2, 2, u=4.0),
                         OmegaGrid(0.0, 40.0, 41))
        blocks = sector_blocks(enumerate_basis(spec.ring, spec.species))
        lower = {}
        for omega in spec.control.values():
            ring = spec.ring.with_omega(omega)
            amp = hopping_amplitude(ring)
            lowest = {(block.q, block.parity): np.linalg.eigvalsh(
                block.operator(amp, 4.0).to_dense())[0] for block in blocks}
            for q in (0, 2, 4, 6):
                lower.setdefault(q, set()).add(
                    1 if lowest[(q, 1)] < lowest[(q, -1)] else -1)
        assert any(len(lower[q]) == 2 for q in lower)
        assert repr(run(spec).rows) == repr(unscreened_rows(spec))
