import functools
import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ringlat import eigen, hamiltonian
from ringlat.eigen import DEGENERACY_TOL, _lowest_levels
from ringlat.hamiltonian import (
    hopping_amplitude,
    operator_from_entries,
    sector_blocks,
)
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

    @pytest.mark.parametrize("name,value", [
        ("tol", math.inf), ("tol", math.nan), ("degeneracy_tol", math.inf),
        ("degeneracy_tol", math.nan), ("degeneracy_tol", -1e-9)])
    def test_tolerances_must_be_finite(self, name, value):
        # An infinite tol used to accept Krylov energies off by 9.4e-8, and
        # a NaN or infinite degeneracy_tol put every level in the ground.
        _, _, _, op = ring_operator(x=2.0, species=Fermions(1, 1, u=3.0))
        with pytest.raises(DomainError, match=f"^{name}:"):
            lowest_k(op, 1, options=SolverOptions(dense_threshold=20),
                     **{name: value})

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

    @pytest.mark.parametrize("seed", [1.5, True, "7"])
    def test_seed_that_is_no_integer_rejected(self, seed):
        with pytest.raises(DomainError, match="seed: must be an integer"):
            SolverOptions(seed=seed)

    @pytest.mark.parametrize("name,value", [
        ("dense_threshold", 1.5), ("dense_threshold", -1),
        ("dense_threshold", True), ("max_krylov", 2.5), ("max_krylov", -3)])
    def test_bad_sizes_rejected(self, name, value):
        # Each of these used to run a sweep without a word.
        with pytest.raises(DomainError, match=f"^{name}: must be an integer "
                                              f">= 0"):
            SolverOptions(**{"dense_threshold": 1, name: value})

    @pytest.mark.parametrize("max_restarts", [-1, 2.0])
    def test_bad_max_restarts_rejected(self, max_restarts):
        # -1 would reach ARPACK as maxiter = 0.
        with pytest.raises(DomainError, match="max_restarts: must be an "
                                              "integer >= 0"):
            SolverOptions(max_restarts=max_restarts, dense_threshold=1)

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

    @given(values=st.lists(st.one_of(
               st.sampled_from([0.0, 1e-9, 2e-9, 0.5, 0.5 + 1e-12, 1.0]),
               st.floats(-2.0, 2.0)), min_size=1, max_size=12),
           tol=st.sampled_from([0.0, 1e-8, 0.3, 5.0]), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_level_end_is_end_of_group(self, values, tol, data):
        values = np.sort(values)
        k = data.draw(st.integers(1, len(values)))
        groups = eigen._group_degenerate(values, tol)
        want = next(group[-1] for group in groups if group[-1] >= k - 1) + 1
        assert eigen._level_end(values, k, tol) == want

    @given(values=st.lists(st.one_of(
               st.sampled_from([0.0, 0.25, 0.5, 1e-9, 1.0 + 1e-8]),
               st.floats(-2.0, 2.0)), max_size=20), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_level_end_matches_the_vectorised_form(self, values, data):
        # The vectorised form is the reference for the scalar loop; tol is
        # often one of the gaps themselves, so some gaps equal it exactly
        # and count as breaks.
        values = np.sort(np.array(values, dtype=float))
        tol = data.draw(st.sampled_from(
            [0.0, 1e-8, 0.25, *np.diff(values).tolist()]))
        k = data.draw(st.integers(1, len(values) + 1))
        breaks = np.flatnonzero(np.diff(values[k - 1:]) >= tol)
        want = k + int(breaks[0]) if len(breaks) else len(values)
        got = eigen._level_end(values, k, tol)
        assert type(got) is int and got == want


def _block_operator(ring, species, q_parity):
    block, = [block for block in sector_blocks(enumerate_basis(ring, species))
              if (block.q, block.parity) == q_parity]
    return block.operator(hopping_amplitude(ring), species.u)


class TestLevelStages:
    @pytest.mark.parametrize("op,k", [
        (ring_operator(species=Fermions(2, 2, u=4.0))[3], 1),
        (ring_operator(species=Fermions(2, 2, u=4.0))[3], 2),
        (wide_level_operator(), 1),
        # Two copies of the lowest level inside one real block.
        (_block_operator(make_ring(8), Fermions(2, 2, u=0.0), (4, 1)), 1),
        (_block_operator(make_ring(8, omega=0.7), Fermions(2, 2, u=4.0),
                         (2, 1)), 1),
    ], ids=["rest 2+2/8", "rest 2+2/8 k=2", "wide level", "in-block pair",
            "driven block"])
    def test_two_stages_give_lowest_levels(self, op, k):
        stages = list(eigen._level_stages(op, k, 1e-10, 1e-8, FORCE_KRYLOV))
        assert [final for *_, final in stages] == [False, True]
        (first, vectors, residuals, _), (*last, _) = stages
        assert len(first) == vectors.shape[1] == k
        assert np.all(residuals <= 1e-10 * np.maximum(1.0, np.abs(first)))
        for got, want in zip(last, _lowest_levels(op, k, 1e-10, 1e-8,
                                                  FORCE_KRYLOV)):
            assert np.array_equal(got, want)
        # Stage 1's theta_1 - r_1 bounds the lowest level from below.
        assert first[0] - residuals[0] <= last[0][0]

    def test_dense_solve_is_one_stage(self):
        _, _, _, op = ring_operator(species=Fermions(1, 1, u=4.0))
        ((*got, final),) = eigen._level_stages(op, 1, 1e-10, 1e-8,
                                               FORCE_DENSE)
        assert final
        for a, b in zip(got, _lowest_levels(op, 1, 1e-10, 1e-8,
                                            FORCE_DENSE)):
            assert np.array_equal(a, b)


def _random_symmetric(n, seed):
    """A seeded real symmetric CSR matrix with about eight entries a row."""
    import scipy.sparse as sparse

    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, 4 * n)
    cols = rng.integers(0, n, 4 * n)
    upper = sparse.coo_matrix((rng.standard_normal(4 * n), (rows, cols)),
                              shape=(n, n))
    return sparse.csr_matrix(upper + upper.T
                             + sparse.diags(rng.standard_normal(n)))


class TestArpackDriver:
    @pytest.mark.parametrize("n", [30, 300, 720])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_eigsh_bit_for_bit(self, n, k):
        from scipy.sparse.linalg import eigsh

        matrix = _random_symmetric(n, 100 * n + k)
        options = SolverOptions()
        ncv = min(n, max(options.max_krylov, 2 * k + 1))
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        got = eigen._arpack_lowest(matrix, k, 1e-10, options, ours)
        want = eigsh(matrix, k, which="SA", v0=theirs.standard_normal(n),
                     rng=theirs, ncv=ncv, maxiter=options.max_restarts + 1,
                     tol=1e-10 * eigen._ARPACK_TOL_FACTOR)
        assert _bits(*got) == _bits(*want)
        # Both drew the same restart vectors from their generators.
        assert ours.random() == theirs.random()

    def test_one_iteration_raises_with_diagnostics(self):
        op = _block_operator(make_ring(8, omega=0.7), Fermions(2, 2, u=4.0),
                             (2, 1))
        cramped = SolverOptions(dense_threshold=1, max_krylov=3,
                                max_restarts=0)
        with pytest.raises(ConvergenceError,
                           match=r"^ARPACK brought \d/1 eigenpairs under "
                                 r"residual tol 1\.000e-14 in 1 iterations"):
            lowest_k(op, 1, tol=1e-12, options=cramped)

    def test_missing_routine_is_named(self, monkeypatch):
        from scipy.sparse.linalg._eigen.arpack import _arpacklib

        op = _block_operator(make_ring(8), Fermions(2, 2, u=4.0), (0, 1))
        monkeypatch.delattr(_arpacklib, "dseupd_wrap")
        eigen._arpack_routines.cache_clear()
        with pytest.raises(ImportError, match="dseupd_wrap"):
            lowest_k(op, 1, options=FORCE_KRYLOV)

    def test_krylov_sweep_builds_no_linear_operator(self, monkeypatch):
        from scipy.sparse.linalg import LinearOperator

        from ringlat import OmegaGrid, SweepSpec, run

        def refused(self, *args, **kwargs):
            raise AssertionError("a LinearOperator was built")

        monkeypatch.setattr(LinearOperator, "__init__", refused)
        spec = SweepSpec(make_ring(10), Fermions(3, 3, u=4.0),
                         OmegaGrid(3.0, 3.5, 2))
        result = run(spec)
        assert not any(row.failed for row in result.rows)
        assert result.provenance["solver_summary"]["lock_loops_run"] > 0


@functools.cache
def _kernel_blocks():
    """The real sector block operators of 3+3 fermions on 10 sites, and
    of 2+2 fermions on 8 sites, which the Krylov path solves under
    ``FORCE_KRYLOV``, and their complex forward-hop matrices X, each as
    CSRArrays with scipy's csr_matrix of the same arrays."""
    import scipy.sparse as sparse

    pairs = []
    for ring, species in [(make_ring(10, omega=3.0), Fermions(3, 3, u=4.0)),
                          (make_ring(8, omega=1.3), Fermions(2, 2, u=4.0))]:
        amp = hopping_amplitude(ring)
        for block in sector_blocks(enumerate_basis(ring, species)):
            for arrays in (block.operator(amp, species.u).matrix, block.hop):
                pairs.append((arrays, sparse.csr_matrix(
                    tuple(arrays), shape=arrays.shape)))
    return pairs


class TestScipyKernels:
    """A block operator's CSRArrays call scipy's CSR kernels themselves;
    every result must be scipy's csr_matrix's, bit for bit."""

    def test_products_match_csr_matrix(self):
        rng = np.random.default_rng(11)
        for ours, theirs in _kernel_blocks():
            n = ours.shape[0]
            wide = rng.standard_normal((n, 3))
            for operand in (rng.standard_normal(n), wide,
                            np.asfortranarray(wide), wide[:, :1],
                            rng.standard_normal((n, 4))[:, ::2],
                            rng.standard_normal(n)
                            + 1j * rng.standard_normal(n)):
                got, want = ours @ operand, theirs @ operand
                assert got.dtype == want.dtype
                assert _bits(got) == _bits(want)

    def test_dense_arrays_match_csr_matrix(self):
        for ours, theirs in _kernel_blocks():
            assert ours.dtype == theirs.dtype
            assert ours.shape == theirs.shape
            assert _bits(ours.toarray()) == _bits(theirs.toarray())

    def test_absolute_row_sums_match_csr_matrix(self):
        complex_op = ring_operator(x=1.3, species=Fermions(2, 1, u=2.0))[3]
        for ours, theirs in [*_kernel_blocks(),
                             (complex_op.matrix, complex_op.matrix)]:
            want = np.asarray(abs(theirs).sum(axis=1)).ravel()
            assert _bits(eigen._absolute_row_sums(ours)) == _bits(want)

    def test_operand_of_other_length_is_refused(self):
        ours, _ = _kernel_blocks()[0]
        with pytest.raises(ValueError, match="need an operand of"):
            ours @ np.ones(ours.shape[0] + 1)


class TestScipyExtension:
    NAME = "scipy.sparse._sparsetools"

    def test_a_loaded_module_is_returned(self, monkeypatch):
        loaded = object()
        monkeypatch.setitem(sys.modules, self.NAME, loaded)
        assert eigen._scipy_extension(self.NAME) is loaded

    def test_loads_the_file_under_scipy(self, monkeypatch):
        monkeypatch.delitem(sys.modules, self.NAME, raising=False)
        monkeypatch.setattr(eigen, "_EXTENSIONS", {})
        module = eigen._scipy_extension(self.NAME)
        path = Path(module.__file__)
        assert path.parent == eigen._scipy_directory() / "sparse"
        assert path.name.startswith("_sparsetools.")
        assert callable(module.csr_matvec)
        # Kept by the loader, out of sys.modules, and loaded once.
        assert self.NAME not in sys.modules
        assert eigen._scipy_extension(self.NAME) is module

    def test_imports_where_no_file_is_found(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, self.NAME, raising=False)
        monkeypatch.setattr(eigen, "_EXTENSIONS", {})
        monkeypatch.setattr(eigen, "_scipy_directory", lambda: tmp_path)
        monkeypatch.setattr(importlib, "import_module",
                            lambda name: ("imported", name))
        assert eigen._scipy_extension(self.NAME) == ("imported", self.NAME)


def _eigh_lowest(dense, k, degeneracy_tol):
    """The dense solve through ``scipy.linalg.eigh``: the k + 1 lowest
    pairs, or all of them where the (k+1)-th lies within
    ``degeneracy_tol`` of the k-th."""
    if k < len(dense):
        values, vectors = sla.eigh(dense, subset_by_index=(0, k),
                                   driver="evr")
        if values[k] - values[k - 1] >= degeneracy_tol:
            return values, vectors
    return sla.eigh(dense)


def _bits(*arrays):
    return [(array.shape, array.tobytes()) for array in arrays]


class TestDenseKernel:
    @pytest.mark.parametrize("n_sites,species,drive", [
        (8, Fermions(2, 2, u=4.0), 1.3),
        (8, Fermions(2, 2, u=0.0), 0.0),
        (8, Fermions(2, 1, u=-3.0), 2.0),
        (8, Bosons(4, u=1.0), 0.7),
        (8, Bosons(1), 0.4),
        (4, Bosons(2, u=1.0), 0.9),
    ], ids=["2+2/8 halves", "2+2/8 at rest u=0", "2+1/8", "4bosons/8",
            "1boson/8 one state", "2bosons/4 two states"])
    def test_blocks_match_eigh_bit_for_bit(self, n_sites, species, drive):
        base = make_ring(n_sites)
        ring = base.with_omega(omega_for(base, drive))
        amp = hopping_amplitude(ring)
        for block in sector_blocks(enumerate_basis(ring, species)):
            dense = block.operator(amp, species.u).to_dense()
            assert _bits(block.dense(amp, species.u)) == _bits(dense)
            assert (_bits(*eigen._dense_lowest(dense, 1, 1e-8))
                    == _bits(*_eigh_lowest(dense, 1, 1e-8)))

    def test_degenerate_level_takes_the_full_spectrum(self):
        # At rest and u = 0 the lowest level of the spin-flip half (4, +1)
        # of 2+2/8 has two copies, so the solve falls back to every pair.
        ring = make_ring(8)
        block, = [block for block in sector_blocks(
            enumerate_basis(ring, Fermions(2, 2)))
            if (block.q, block.parity) == (4, 1)]
        dense = block.dense(hopping_amplitude(ring))
        values, _ = eigen._dense_lowest(dense, 1, 1e-8)
        assert len(values) == block.dimension > 2
        assert values[1] - values[0] < 1e-8

    @pytest.mark.parametrize("x,species", [
        (1.3, Bosons(1)), (0.0, Bosons(1)), (2.0, Fermions(1, 1, u=3.0)),
        (0.7, Fermions(2, 2, u=4.0))])
    def test_complex_ground_state_matches_eigh(self, x, species):
        _, _, _, op = ring_operator(x=x, species=species)
        dense = op.to_dense()
        assert dense.dtype == complex
        gs = ground_state(op, options=FORCE_DENSE)
        values, vectors = _eigh_lowest(dense, 1, DEGENERACY_TOL)
        members = gs.vectors.shape[1]
        assert gs.energy == values[0]
        assert _bits(gs.vectors) == _bits(vectors[:, :members])
        assert gs.gap == values[members] - values[0]

    def test_nan_residual_fails(self):
        with pytest.raises(ConvergenceError, match="residuals"):
            eigen._residuals(np.eye(2), np.array([np.nan, 1.0]), np.eye(2),
                             1e-10)

    @pytest.mark.parametrize("options", [FORCE_DENSE, FORCE_KRYLOV],
                             ids=["dense", "krylov"])
    def test_entry_that_is_not_finite_fails(self, options):
        op = diagonal(1.0, np.inf, 2.0, 3.0, 4.0)
        with pytest.raises(ConvergenceError, match="not finite"):
            ground_state(op, options=options)


_PR17_BLOCKS = [
    (8, Fermions(2, 2, u=4.0), 1.3), (8, Fermions(2, 2, u=0.0), 0.0),
    (8, Fermions(2, 1, u=-3.0), 2.0), (8, Bosons(4, u=1.0), 0.7),
    (8, Bosons(1), 0.4), (4, Bosons(2, u=1.0), 0.9)]


# A threshold of 0 sends every block down the path of a block above
# DENSE_THRESHOLD, which keeps no dense X.
_KEPT_OR_NOT = pytest.mark.parametrize(
    "threshold", [hamiltonian.DENSE_THRESHOLD, 0], ids=["kept", "scattered"])


class TestDenseFromKeptHop:
    @_KEPT_OR_NOT
    @pytest.mark.parametrize("n_sites,species,drive", _PR17_BLOCKS)
    def test_equals_to_dense_bit_for_bit(self, n_sites, species, drive,
                                         threshold, monkeypatch):
        # At rest, without interaction and at u = -0.0 too: no entry of
        # -0.0 may survive, since to_dense() adds the entries to zeros.
        monkeypatch.setattr(hamiltonian, "DENSE_THRESHOLD", threshold)
        base = make_ring(n_sites)
        blocks = sector_blocks(enumerate_basis(base, species))
        for x in (drive, 0.0, -2.5):
            amp = hopping_amplitude(base.with_omega(omega_for(base, x)))
            for u in (species.u if hasattr(species, "u") else 0.0, 0.0,
                      -0.0, -3.7):
                for block in blocks:
                    dense = block.dense(amp, u)
                    assert _bits(dense) == _bits(
                        block.operator(amp, u).to_dense())
                    assert not np.signbit(dense[dense == 0.0]).any()
        assert all(("dense_hop" in vars(block)) == (threshold > 0)
                   for block in blocks)

    @_KEPT_OR_NOT
    def test_current_is_a_quadratic_form_on_the_kept_hop(self, threshold,
                                                         monkeypatch):
        monkeypatch.setattr(hamiltonian, "DENSE_THRESHOLD", threshold)
        ring = make_ring(8, omega=1.7)
        amp = 1j * ring.t - ring.omega * ring.k_factor
        rng = np.random.default_rng(5)
        for block in sector_blocks(enumerate_basis(ring, Fermions(2, 2))):
            vector = rng.standard_normal(block.dimension)
            assert block.hop_expectation(amp, vector) == pytest.approx(
                block.operator(amp).expectation(vector), rel=1e-13,
                abs=1e-13)


def _symmetric(entries: list[float], n: int) -> np.ndarray:
    """The symmetric n x n array whose lower triangle, row by row, is
    ``entries``."""
    dense = np.zeros((n, n))
    dense[np.tril_indices(n)] = entries
    return dense + np.tril(dense, -1).T


@st.composite
def _certificate_cases(draw):
    """A symmetric array, and a bound near its lowest level or anywhere."""
    n = draw(st.integers(1, 12))
    entries = draw(st.lists(st.floats(-10.0, 10.0), min_size=n * (n + 1) // 2,
                            max_size=n * (n + 1) // 2))
    dense = _symmetric(entries, n)
    if draw(st.booleans()):
        # Copies of the lowest level make the bound's neighborhood crowded.
        dense += np.diag(np.repeat(draw(st.floats(0.0, 1e-6)), n))
    lowest = float(np.linalg.eigvalsh(dense)[0])
    offset = draw(st.floats(-1.0, 1.0)) * 10.0 ** draw(st.integers(-16, 1))
    return dense, lowest + offset


class TestCertificate:
    @settings(max_examples=300, deadline=None)
    @given(_certificate_cases())
    def test_a_certificate_that_holds_puts_the_solve_above(self, case):
        dense, bound = case
        if eigen._certified_above(dense, bound):
            assert np.linalg.eigvalsh(dense)[0] > bound

    def test_holds_below_the_lowest_level_and_fails_above(self):
        ring = make_ring(8, omega=1.3)
        amp = hopping_amplitude(ring)
        for block in sector_blocks(enumerate_basis(ring, Fermions(2, 2))):
            dense = block.dense(amp, 4.0)
            lowest = np.linalg.eigvalsh(dense)[0]
            assert eigen._certified_above(dense, lowest - 1e-6)
            assert not eigen._certified_above(dense, lowest)
            assert not eigen._certified_above(dense, math.inf)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", [(0, 0), (2, 1), (3, 3)],
                             ids=["first pivot", "off diagonal", "last pivot"])
    def test_an_entry_that_is_not_finite_is_never_certified(self, value,
                                                            where):
        dense = np.diag([5.0, 6.0, 7.0, 8.0])
        dense[where] = dense[where[::-1]] = value
        assert not eigen._certified_above(dense, -1e300)


@pytest.fixture(params=["openblas", "cython_lapack"])
def lapack_binding(request, monkeypatch):
    """Each way the LAPACK routines are bound: from the OpenBLAS that the
    scipy wheel ships, and from scipy's cython_lapack capsules, forced by
    hiding that library."""
    if request.param == "cython_lapack":
        monkeypatch.setattr(eigen, "_bundled_openblas", lambda: None)
    for cached in (eigen._lapack, eigen._evr_workspace, eigen._evr_plan):
        cached.cache_clear()
    yield request.param
    for cached in (eigen._lapack, eigen._evr_workspace, eigen._evr_plan):
        cached.cache_clear()


def _random_hermitian(rng, n, complex_):
    dense = rng.standard_normal((n, n))
    if complex_:
        dense = dense + 1j * rng.standard_normal((n, n))
    return dense + dense.conj().T


class TestLapackBinding:
    def test_binding_is_the_one_forced(self, lapack_binding):
        name = eigen._lapack().name
        if lapack_binding == "cython_lapack":
            assert name == "cython_lapack"
        else:
            assert name.startswith("libscipy_openblas")

    @pytest.mark.parametrize("complex_", [False, True],
                             ids=["dsyevr", "zheevr"])
    def test_workspace_matches_scipy(self, lapack_binding, complex_):
        from scipy.linalg.lapack import _compute_lwork, get_lapack_funcs

        query = get_lapack_funcs("heevr_lwork" if complex_ else "syevr_lwork",
                                 dtype=np.dtype(complex if complex_
                                                else float))
        for n in range(1, 65):
            want = _compute_lwork(query, n=n, lower=1)
            lwork, liwork, lrwork = eigen._evr_workspace(complex_, n)
            assert (want == (lwork, lrwork, liwork) if complex_
                    else want == (lwork, liwork))

    @pytest.mark.parametrize("complex_", [False, True],
                             ids=["dsyevr", "zheevr"])
    def test_evr_matches_eigh_bit_for_bit(self, lapack_binding, complex_):
        rng = np.random.default_rng(11)
        for n in range(1, 65):
            dense = _random_hermitian(rng, n, complex_)
            for first, last in {(1, n), (1, min(2, n)), (n, n),
                                (max(1, n // 3), max(1, n // 2))}:
                assert _bits(*eigen._evr(dense, (first, last))) == _bits(
                    *sla.eigh(dense, subset_by_index=(first - 1, last - 1),
                              driver="evr"))
            assert _bits(*eigen._evr(dense, None)) == _bits(
                *sla.eigh(dense, driver="evr"))

    def test_cholesky_matches_scipy_potrf(self, lapack_binding):
        potrf = sla.get_lapack_funcs("potrf", dtype=np.dtype(float))
        rng = np.random.default_rng(5)
        outcomes = set()
        for n in range(1, 41):
            dense = _random_hermitian(rng, n, False)
            lowest = np.linalg.eigvalsh(dense)[0]
            for shift in (lowest - 1.0, lowest - 1e-9, lowest + 1e-9,
                          lowest + 1.0):
                shifted = dense - shift * np.eye(n)
                factor, info = potrf(shifted.T.copy(order="F"), lower=1,
                                     clean=0)
                want = info == 0 and bool(np.isfinite(factor.diagonal()).all())
                assert eigen._positive_definite(shifted.copy()) == want
                outcomes.add(want)
        assert outcomes == {False, True}

    def test_certificate_decides_as_with_scipy_potrf(self, lapack_binding,
                                                     monkeypatch):
        potrf = sla.get_lapack_funcs("potrf", dtype=np.dtype(float))

        def with_scipy(shifted):
            factor, info = potrf(shifted.T, lower=1, overwrite_a=1, clean=0)
            return info == 0 and bool(np.isfinite(factor.diagonal()).all())

        rng = np.random.default_rng(8)
        cases = []
        for n in range(1, 41):
            dense = _random_hermitian(rng, n, False)
            lowest = np.linalg.eigvalsh(dense)[0]
            cases += [(dense, lowest + offset)
                      for offset in (-1.0, -1e-3, -1e-12, 0.0, 1e-3)]
        got = [eigen._certified_above(dense, bound) for dense, bound in cases]
        monkeypatch.setattr(eigen, "_positive_definite", with_scipy)
        assert got == [eigen._certified_above(dense, bound)
                       for dense, bound in cases]
        assert set(got) == {False, True}

    @pytest.mark.parametrize("shape,index", [
        ((3, 3), (0, 1)), ((3, 3), (2, 1)), ((3, 3), (1, 4)),
        ((3, 2), None)], ids=["first 0", "reversed", "past n", "not square"])
    def test_bad_arguments_never_reach_lapack(self, shape, index):
        with pytest.raises(ValueError, match="square array"):
            eigen._evr(np.zeros(shape), index)

    def test_cholesky_needs_a_square_float64_array(self):
        with pytest.raises(ValueError, match="square float64"):
            eigen._positive_definite(np.eye(3, dtype=np.float32))
        with pytest.raises(ValueError, match="square float64"):
            eigen._positive_definite(np.zeros((2, 3)))

    def test_threads_may_solve_at_once(self, lapack_binding):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(2)
        matrices = [_random_hermitian(rng, n, n % 2 == 1)
                    for n in range(20, 60)]
        want = [_bits(*eigen._evr(dense, (1, 2))) for dense in matrices]
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(
                lambda dense: _bits(*eigen._evr(dense, (1, 2))), matrices))
        assert got == want

    def test_provenance_names_the_library(self, lapack_binding):
        info = eigen._lapack_provenance()
        assert info["library"] == eigen._lapack().name
        if lapack_binding == "openblas":
            assert info["config"].startswith("OpenBLAS")
            assert info["threads"] >= 1
        else:
            assert set(info) == {"library"}


class TestGroundState:
    def test_exact_crossing_reports_both_sectors(self):
        base = make_ring(8)
        ring = base.with_omega(crossing_frequency(0, 1, base))
        basis = enumerate_basis(ring, Bosons(1))
        op = build_operator(ring, Bosons(1), basis)
        gs = ground_state(op)
        assert gs.degenerate
        assert gs.vectors.shape[1] == 2
        # One copy of the level lies in each of two translation blocks.
        amp = hopping_amplitude(ring)
        labels = [block.q for block in sector_blocks(basis)
                  if abs(ground_state(block.operator(amp)).energy
                         - gs.energy) < 1e-10]
        assert sorted(labels) == [0, 1]

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
