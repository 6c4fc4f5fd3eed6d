import numpy as np
import pytest

from ringlat import (
    Bosons,
    ConvergenceError,
    DomainError,
    Fermions,
    SolverOptions,
    build_operator,
    crossing_frequency,
    energy,
    enumerate_basis,
    ground_state,
    lowest_k,
    make_ring,
    sector_of_state,
    winding_state,
)
from ringlat import eigen
from ringlat.basis import split_into_sectors
from ringlat.eigen import _lowest_levels
from ringlat.hamiltonian import operator_from_entries
from ringlat.verify import _test_systems

from conftest import omega_for

FORCE_KRYLOV = SolverOptions(dense_threshold=1)
FORCE_DENSE = SolverOptions(dense_threshold=2**62)


def pauli_x():
    return operator_from_entries(2, [0, 1], [1, 0], [1.0, 1.0])


def diagonal(*values):
    n = len(values)
    return operator_from_entries(n, range(n), range(n), values)


WIDE_COPIES = 24


def wide_level_operator():
    """A 24-fold lowest level at -1 in a 60-dim space (above ncv = 20),
    with the next level at 0."""
    rng = np.random.default_rng(3)
    n = 60
    spectrum = np.concatenate([np.full(WIDE_COPIES, -1.0),
                               np.linspace(0.0, 5.0, n - WIDE_COPIES)])
    unitary, _ = np.linalg.qr(rng.standard_normal((n, n))
                              + 1j * rng.standard_normal((n, n)))
    dense = unitary @ np.diag(spectrum) @ unitary.conj().T
    dense = 0.5 * (dense + dense.conj().T)
    rows, cols = np.indices((n, n))
    return operator_from_entries(n, rows.ravel(), cols.ravel(), dense.ravel())


def ring_operator(n_sites=8, x=0.0, species=None, u=0.0):
    base = make_ring(n_sites)
    ring = base.with_omega(omega_for(base, x))
    species = species or Bosons(1)
    basis = enumerate_basis(ring, species)
    return ring, species, basis, build_operator(ring, species, basis)


class TestLowestKDense:
    def test_known_two_level_pair(self):
        result = lowest_k(pauli_x(), 2)
        assert np.allclose(result.values, [-1.0, 1.0])

    def test_diagonal_subset(self):
        result = lowest_k(diagonal(5.0, 3.0, 1.0), 2)
        assert np.allclose(result.values, [1.0, 3.0])

    def test_full_ring_spectrum(self):
        ring, _, _, op = ring_operator(x=1.3)
        result = lowest_k(op, 8)
        expected = sorted(energy(winding_state(ring, n), ring)
                          for n in range(8))
        assert np.max(np.abs(result.values - expected)) < 1e-10

    def test_vectors_orthonormal(self):
        _, _, _, op = ring_operator(x=0.9)
        result = lowest_k(op, 5)
        gram = result.vectors.conj().T @ result.vectors
        assert np.max(np.abs(gram - np.eye(5))) < 1e-10

    def test_k_bounds(self):
        op = diagonal(1.0, 2.0)
        with pytest.raises(DomainError):
            lowest_k(op, 0)
        with pytest.raises(DomainError):
            lowest_k(op, 3)

    def test_residual_bound_honored(self):
        _, _, _, op = ring_operator(x=2.0, species=Fermions(1, 1, u=3.0))
        result = lowest_k(op, 4, tol=1e-10)
        bounds = 1e-10 * np.maximum(1.0, np.abs(result.values))
        assert np.all(result.residuals <= bounds)


class TestLowestKKrylov:
    def test_agrees_with_dense_small(self):
        # The rest-frame 2+2 case has a doublet as its second level; a
        # single ARPACK call returns only one copy of it.
        for x, species, ks in ((1.1, Fermions(1, 1, u=2.5), (5,)),
                               (0.0, Fermions(2, 2, u=4.0), (3, 4))):
            _, _, _, op = ring_operator(x=x, species=species)
            for k in ks:
                dense = lowest_k(op, k, options=FORCE_DENSE)
                krylov = lowest_k(op, k, options=FORCE_KRYLOV)
                assert np.max(np.abs(dense.values - krylov.values)) < 1e-8
                assert krylov.degeneracy_groups == dense.degeneracy_groups

    @pytest.mark.parametrize("n_sites,species", [
        (16, Fermions(1, 1, u=3.0)),   # dim 256
        (22, Fermions(1, 1, u=-2.0)),  # dim 484
    ])
    def test_path_consistency_straddles_threshold(self, n_sites, species):
        # One dimension below and one above a 300-state threshold; both
        # paths must agree on the lowest five values.
        base = make_ring(n_sites)
        ring = base.with_omega(omega_for(base, 1.2))
        basis = enumerate_basis(ring, species)
        op = build_operator(ring, species, basis)
        boundary = SolverOptions(dense_threshold=300)
        routed = lowest_k(op, 5, options=boundary)
        dense = lowest_k(op, 5, options=FORCE_DENSE)
        krylov = lowest_k(op, 5, options=FORCE_KRYLOV)
        assert np.max(np.abs(dense.values - krylov.values)) < 1e-8
        assert np.max(np.abs(routed.values - dense.values)) < 1e-8

    def test_finds_degenerate_partners_by_deflation(self):
        # At 32 sites the operator is larger than ARPACK's ncv = 20.
        for n_sites in (8, 32):
            base = make_ring(n_sites)
            ring = base.with_omega(crossing_frequency(0, 1, base))
            basis = enumerate_basis(ring, Bosons(1))
            op = build_operator(ring, Bosons(1), basis)
            result = lowest_k(op, 2, options=FORCE_KRYLOV)
            assert result.values[1] - result.values[0] < 1e-9
            gram = result.vectors.conj().T @ result.vectors
            assert np.max(np.abs(gram - np.eye(2))) < 1e-8

    def test_degenerate_level_wider_than_krylov_space_orthonormal(self):
        op = wide_level_operator()
        assert FORCE_KRYLOV.max_krylov < WIDE_COPIES
        result = lowest_k(op, 6, options=FORCE_KRYLOV)
        assert np.max(np.abs(result.values + 1.0)) < 1e-10
        gram = result.vectors.conj().T @ result.vectors
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_ground_value_stable_as_k_grows(self):
        _, _, _, op = ring_operator(x=0.7, species=Bosons(2, u=1.0))
        previous = np.inf
        for k in (1, 2, 4, 8):
            value = lowest_k(op, k, options=FORCE_KRYLOV).values[0]
            assert value <= previous + 1e-10
            previous = value

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed"):
            SolverOptions(seed=-1)

    def test_nonconvergence_raises_with_diagnostics(self):
        _, _, _, op = ring_operator(x=1.0, species=Fermions(2, 2, u=4.0))
        cramped = SolverOptions(dense_threshold=1, max_krylov=3,
                                max_restarts=0)
        with pytest.raises(ConvergenceError, match="residual"):
            lowest_k(op, 1, tol=1e-12, options=cramped)


class TestDegeneracyGroups:
    def test_group_sizes_sum_to_k(self):
        _, _, _, op = ring_operator(x=0.4, species=Fermions(1, 1, u=1.0))
        for k in (1, 3, 6):
            result = lowest_k(op, k)
            assert sum(len(g) for g in result.degeneracy_groups) == k

    def test_rest_frame_excited_pairs_detected(self):
        # With no drive the +n and -n windings pair up.
        _, _, _, op = ring_operator(x=0.0)
        result = lowest_k(op, 3, degeneracy_tol=1e-8)
        assert result.degeneracy_groups == ((0,), (1, 2))


class TestGroundState:
    def test_exact_crossing_reports_both_sectors(self):
        base = make_ring(8)
        ring = base.with_omega(crossing_frequency(0, 1, base))
        basis = enumerate_basis(ring, Bosons(1))
        op = build_operator(ring, Bosons(1), basis)
        gs = ground_state(op)
        assert gs.degenerate
        assert gs.vectors.shape[1] == 2
        # The returned span mixes the two sectors; rotating it into
        # translation eigenvectors recovers them.
        _, labels = split_into_sectors(gs.vectors, basis)
        assert set(labels) == {0, 1}

    def test_rest_frame_unique_ground(self):
        _, _, basis, op = ring_operator(x=0.0)
        gs = ground_state(op)
        assert not gs.degenerate
        assert gs.vectors.shape[1] == 1
        assert sector_of_state(gs.vectors[:, 0], basis) == 0

    def test_independent_pair_energy(self, ring8):
        species = Fermions(1, 1)
        basis = enumerate_basis(ring8, species)
        op = build_operator(ring8, species, basis)
        gs = ground_state(op)
        assert gs.energy == pytest.approx(-4.0 * ring8.t, abs=1e-10)


def ground_paths(op):
    """The Krylov ground state, after checking it against the dense one."""
    dense = ground_state(op, options=FORCE_DENSE)
    krylov = ground_state(op, options=FORCE_KRYLOV)
    assert abs(krylov.energy - dense.energy) < 1e-10
    assert abs(krylov.gap - dense.gap) < 1e-10
    assert krylov.vectors.shape[1] == dense.vectors.shape[1]
    assert krylov.degenerate == dense.degenerate
    return krylov


class TestGroundStatePaths:
    @pytest.mark.parametrize("ring,species", _test_systems())
    def test_verify_systems(self, ring, species):
        basis = enumerate_basis(ring, species)
        ground_paths(build_operator(ring, species, basis))

    def test_rest_frame_pair_below_doublet(self):
        # The second level of 2+2 fermions at rest is a doublet.
        _, _, _, op = ring_operator(species=Fermions(2, 2, u=4.0))
        assert lowest_k(op, 3).degeneracy_groups == ((0,), (1, 2))
        gs = ground_paths(op)
        assert not gs.degenerate
        assert gs.gap > 1e-3

    def test_single_boson_crossing(self):
        base = make_ring(8)
        ring = base.with_omega(crossing_frequency(0, 1, base))
        op = build_operator(ring, Bosons(1), enumerate_basis(ring, Bosons(1)))
        gs = ground_paths(op)
        assert gs.degenerate
        assert gs.vectors.shape[1] == 2
        assert gs.gap < 1e-9

    def test_level_wider_than_krylov_space(self):
        op = wide_level_operator()
        gs = ground_paths(op)
        assert gs.vectors.shape[1] == WIDE_COPIES
        gram = gs.vectors.conj().T @ gs.vectors
        assert np.max(np.abs(gram - np.eye(WIDE_COPIES))) < 1e-10
        # Zero inside the multiplet; the pair after it lies 1.0 higher.
        assert abs(gs.gap) < 1e-10
        for options in (FORCE_DENSE, FORCE_KRYLOV):
            values = _lowest_levels(op, 1, 1e-10, 1e-8, options)[0]
            assert len(values) == WIDE_COPIES + 1
            assert values[-1] - values[0] == pytest.approx(1.0, abs=1e-10)

    def test_deflation_shift_exceeds_spread(self, monkeypatch):
        # The locked ground at -10 must be shifted above the top at 10, or
        # the complement solve finds the locked vector again.  One solve
        # for the ground and one on its complement then suffice.
        op = diagonal(-10.0, *np.linspace(9.9, 10.0, 20))
        solves = []
        arpack = eigen._arpack_lowest

        def counted(*args):
            solves.append(args[1])
            return arpack(*args)

        monkeypatch.setattr(eigen, "_arpack_lowest", counted)
        gs = ground_paths(op)
        assert gs.gap == pytest.approx(19.9, abs=1e-10)
        assert solves == [1, 1]

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            ground_state(pauli_x(), tol=0.0)
        with pytest.raises(DomainError):
            ground_state(operator_from_entries(0, [], [], []))
