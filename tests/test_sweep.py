import csv
import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from ringlat import (
    BasisSizeError,
    Bosons,
    DomainError,
    Fermions,
    enumerate_basis,
    InteractionGrid,
    OmegaGrid,
    PolarizedFermions,
    SolverOptions,
    SweepSpec,
    crossing_frequency,
    current,
    fast_mode_boundary,
    find_crossings,
    ground_winding,
    make_ring,
    polarized_current,
    run,
)
from ringlat import cli, hamiltonian, sweep
from ringlat.eigen import ConvergenceError
from ringlat.hamiltonian import CSRArrays, SectorBlock, sector_blocks
from ringlat.verify import _test_systems

from conftest import omega_for
from oracles import real_space_row, unscreened_rows

SQRT2 = math.sqrt(2.0)


class TestControls:
    def test_grid_needs_width(self):
        with pytest.raises(DomainError, match="maximum"):
            InteractionGrid(2.0, 2.0, 5, omega=1.0)

    def test_grid_needs_points(self):
        with pytest.raises(DomainError, match="points"):
            OmegaGrid(0.0, 1.0, 1)

    @pytest.mark.parametrize("points", [3.0, True, "3"])
    def test_grid_needs_integer_points(self, points):
        with pytest.raises(DomainError, match="points"):
            OmegaGrid(0.0, 1.0, points)

    @pytest.mark.parametrize("minimum,maximum,omega,field", [
        (0.0, math.inf, 1.0, "maximum"), (-math.inf, 1.0, 1.0, "minimum"),
        (math.nan, 1.0, 1.0, "minimum"), (0.0, 1.0, math.nan, "omega"),
        (0.0, 1.0, math.inf, "omega"), (0.0, 1.0, -math.inf, "omega")],
        ids=["0.0-inf-maximum", "-inf-1.0-minimum", "nan-1.0-minimum",
             "nan-omega", "inf-omega", "-inf-omega"])
    def test_grid_needs_finite_ends(self, minimum, maximum, omega, field):
        with pytest.raises(DomainError, match=f"^{field}:"):
            InteractionGrid(minimum, maximum, 3, omega=omega)

    def test_bisection_tol_positive(self):
        with pytest.raises(DomainError, match="bisection_tol"):
            SweepSpec(ring=make_ring(8), species=Bosons(1),
                      control=OmegaGrid(0.0, 1.0, 5), bisection_tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_bisection_tol_finite(self, tol):
        with pytest.raises(DomainError, match="^bisection_tol:"):
            SweepSpec(ring=make_ring(8), species=Bosons(1),
                      control=OmegaGrid(0.0, 1.0, 5), bisection_tol=tol)


class TestRun:
    def test_single_particle_energy_piecewise_linear(self, ring8):
        spec = SweepSpec(ring=ring8, species=Bosons(1),
                         control=OmegaGrid(0.0, omega_for(ring8, 3.0), 301))
        result = run(spec)
        energies = np.array([r.ground_energy for r in result.rows])
        omegas = np.array([r.omega for r in result.rows])
        slopes = np.diff(energies) / np.diff(omegas)
        breaks = [omegas[i + 1] for i in range(len(slopes) - 1)
                  if abs(slopes[i + 1] - slopes[i]) > 1e-6]
        # A crossing between grid points bends two consecutive segments;
        # cluster the slope breaks before matching them to crossings.
        spacing = omegas[1] - omegas[0]
        clusters = []
        for b in breaks:
            if clusters and b - clusters[-1][-1] <= 1.5 * spacing:
                clusters[-1].append(b)
            else:
                clusters.append([b])
        expected = [crossing_frequency(0, 1, ring8),
                    crossing_frequency(1, 2, ring8)]
        assert len(clusters) == 2
        for cluster, want in zip(clusters, expected):
            assert min(abs(b - want) for b in cluster) <= 2 * spacing

    def test_pair_reduces_to_single_particle_at_zero_interaction(self, ring8):
        spec = SweepSpec(ring=ring8, species=Fermions(1, 1, u=0.0),
                         control=OmegaGrid(0.0, omega_for(ring8, 3.0), 31))
        result = run(spec)
        for row in result.rows:
            ring = ring8.with_omega(row.omega)
            single = current(ground_winding(ring), ring)
            assert row.per_particle_current == pytest.approx(single, abs=1e-8)

    def test_exact_crossing_row_flags_degeneracy(self, ring8):
        crossing = crossing_frequency(1, 2, ring8)
        spec = SweepSpec(ring=ring8, species=Bosons(1),
                         control=OmegaGrid(0.0, 2.0 * crossing, 3))
        result = run(spec)
        middle = result.rows[1]
        assert middle.omega == pytest.approx(crossing, rel=1e-15)
        assert middle.degenerate
        assert set(middle.sectors) == {1, 2}
        assert middle.gap == pytest.approx(0.0, abs=1e-10)

    def test_rows_ordered_and_deterministic(self, ring8):
        spec = SweepSpec(ring=ring8, species=Fermions(1, 1, u=2.0),
                         control=OmegaGrid(0.0, 5.0, 9))
        first = run(spec)
        second = run(spec)
        assert [r.control_value for r in first.rows] == sorted(
            r.control_value for r in first.rows)
        assert first.rows == second.rows

    def test_worker_pool_matches_serial(self, ring8):
        spec = SweepSpec(ring=ring8, species=Fermions(1, 1, u=1.0),
                         control=OmegaGrid(0.0, 4.0, 7))
        assert run(spec, workers=1).rows == run(spec, workers=4).rows

    @pytest.mark.parametrize("workers", [0, -3, 2.5, True, "2"])
    def test_worker_count_below_one_rejected(self, ring8, workers):
        species = Fermions(1, 1, u=1.0)
        omegas = SweepSpec(ring=ring8, species=species,
                           control=OmegaGrid(0.0, 4.0, 3))
        interactions = SweepSpec(ring=ring8, species=species,
                                 control=InteractionGrid(-1.0, 1.0, 3,
                                                         omega=1.0))
        for call, spec in ((run, omegas), (find_crossings, omegas),
                           (fast_mode_boundary, interactions)):
            with pytest.raises(DomainError, match="workers"):
                call(spec, workers=workers)

    @pytest.mark.parametrize("name,value", [
        ("tol", math.inf), ("degeneracy_tol", math.nan),
        ("degeneracy_tol", math.inf)])
    def test_non_finite_tolerance_rejected(self, ring8, name, value):
        # A NaN or infinite degeneracy_tol used to put all 784 levels of
        # 2+2 fermions on 8 sites into the ground multiplet.
        spec = SweepSpec(ring=ring8, species=Fermions(2, 2, u=4.0),
                         control=OmegaGrid(0.0, 4.0, 3))
        with pytest.raises(DomainError, match=f"^{name}:"):
            run(spec, **{name: value})

    @pytest.mark.parametrize("call", [run, find_crossings])
    @pytest.mark.parametrize("name,value", [
        ("tol", math.inf), ("degeneracy_tol", math.nan)])
    def test_polarized_tolerances_rejected(self, ring8, call, name, value):
        # Polarized fermions use closed forms and never reach the solver,
        # which used to leave these values unchecked.
        spec = SweepSpec(ring=ring8, species=PolarizedFermions(2),
                         control=OmegaGrid(0.0, 4.0, 3))
        with pytest.raises(DomainError, match=f"^{name}:"):
            call(spec, **{name: value})

    def test_failed_points_are_recorded_not_fatal(self, ring8):
        spec = SweepSpec(ring=ring8, species=Fermions(1, 1, u=1.0),
                         control=OmegaGrid(0.0, 4.0, 5))
        cramped = SolverOptions(dense_threshold=1, max_krylov=2,
                                max_restarts=0)
        result = run(spec, options=cramped)
        assert all(row.failed for row in result.rows)
        assert all("ConvergenceError" in row.error for row in result.rows)
        assert [r.control_value for r in result.rows] == list(
            np.linspace(0.0, 4.0, 5))

    def test_interaction_control_uses_fixed_omega(self, ring8):
        omega = omega_for(ring8, 10.0)
        spec = SweepSpec(ring=ring8, species=Fermions(1, 1),
                         control=InteractionGrid(-2.0, 2.0, 5, omega=omega))
        result = run(spec)
        assert all(row.omega == omega for row in result.rows)
        assert [row.u for row in result.rows] == list(np.linspace(-2, 2, 5))

    def test_polarized_rows_use_closed_forms(self, ring8):
        spec = SweepSpec(ring=ring8, species=PolarizedFermions(3),
                         control=OmegaGrid(omega_for(ring8, 5.0),
                                           omega_for(ring8, 12.0), 9))
        result = run(spec)
        for row in result.rows:
            ring = ring8.with_omega(row.omega)
            assert row.total_current == pytest.approx(
                polarized_current(3, ring), abs=1e-12)
            assert row.total_current == pytest.approx(
                2.0 * (1.0 + SQRT2) * ring8.t, abs=1e-9)
            assert row.is_fast_current
            assert row.sectors == (6,)  # windings 1+2+3
            assert row.is_max_winding

    def test_polarized_interaction_scan_rejected(self, ring8):
        spec = SweepSpec(ring=ring8, species=PolarizedFermions(2),
                         control=InteractionGrid(0.0, 1.0, 3, omega=1.0))
        with pytest.raises(DomainError, match="polarized"):
            run(spec)


def _block_row_cases():
    ring8 = make_ring(8)
    crossing = crossing_frequency(1, 2, ring8)
    cases = {f"test_system{i}": SweepSpec(ring, species, OmegaGrid(
        ring.omega, ring.omega + 1.0, 2))
        for i, (ring, species) in enumerate(_test_systems())}
    cases.update({
        "2+2/8": SweepSpec(ring8, Fermions(2, 2, u=4.0),
                           OmegaGrid(0.0, 40.0, 41)),
        "1boson/8 crossing": SweepSpec(ring8, Bosons(1),
                                       OmegaGrid(0.0, 2.0 * crossing, 3)),
        "4bosons/8": SweepSpec(ring8, Bosons(4, u=1.0),
                               OmegaGrid(0.0, 8.0, 9)),
        # Blocks of about 1 440 states: the Krylov path in every block.
        "3+3/10": SweepSpec(make_ring(10), Fermions(3, 3, u=4.0),
                            OmegaGrid(3.0, 3.5, 2)),
    })
    return cases


class TestBlockRows:
    @pytest.mark.parametrize("name", list(_block_row_cases()))
    def test_rows_match_real_space_oracle(self, name):
        spec = _block_row_cases()[name]
        basis = enumerate_basis(spec.ring, spec.species)
        for row in run(spec).rows:
            want = real_space_row(spec.ring.with_omega(row.omega),
                                  spec.species, basis)
            t = spec.ring.t
            assert abs(row.ground_energy - want["energy"]) <= 1e-10 * t
            assert (abs(row.gap - want["gap"]) <= 1e-10 * t
                    or math.isnan(row.gap) and math.isnan(want["gap"]))
            assert abs(row.total_current - want["current"]) <= 1e-9 * t
            assert len(row.sectors) == want["members"]
            assert row.sectors == want["sectors"]
            for flag in ("degenerate", "is_fast_current", "is_max_winding"):
                assert getattr(row, flag) == want[flag], flag


def _screen_cases():
    ring8 = make_ring(8)
    return {
        "2+2/8 drive": SweepSpec(ring8, Fermions(2, 2, u=4.0),
                                 OmegaGrid(0.0, 40.0, 41)),
        "2+2/8 interaction": SweepSpec(
            ring8, Fermions(2, 2, u=4.0),
            InteractionGrid(-30.0, 60.0, 41, omega=omega_for(ring8, 1.0))),
        # Blocks of one state each: the second level comes from another
        # block, so nothing may be skipped before two levels are known.
        "1boson/8": SweepSpec(ring8, Bosons(1),
                              OmegaGrid(0.0, omega_for(ring8, 3.0), 61)),
        "4bosons/8": SweepSpec(ring8, Bosons(4, u=1.0),
                               OmegaGrid(0.0, 8.0, 41)),
        "3+3/10": SweepSpec(make_ring(10), Fermions(3, 3, u=4.0),
                            OmegaGrid(3.0, 3.5, 2)),
    }


def _unscreened(monkeypatch) -> None:
    """Make sweep._solve solve every block it is given in full, lock loop
    included."""
    solve = sweep._solve

    def unscreened(*args, **kwargs):
        *rest, _, record = args
        return solve(*rest, None, record, **kwargs)

    monkeypatch.setattr(sweep, "_solve", unscreened)


class TestScreen:
    @pytest.mark.parametrize("name", list(_screen_cases()))
    def test_rows_match_every_block_solved(self, name, monkeypatch):
        spec = _screen_cases()[name]
        calls = _record_solves(monkeypatch)
        rows = run(spec).rows
        assert repr(rows) == repr(unscreened_rows(spec))
        # The screen skipped blocks, so the comparison tests it.
        assert (sum(len(solved) for *_, solved in calls)
                < sum(len(passed) for _, _, passed, _ in calls))

    def test_first_point_skips_by_plane_wave_floors(self, monkeypatch):
        # Starting at a strong drive, the first grid point skips blocks on
        # their plane-wave floors alone, before any solve fills the ledger:
        # each skipped floor lies above the second level.
        spec = SweepSpec(make_ring(8), Fermions(2, 2, u=4.0),
                         OmegaGrid(30.0, 40.0, 11))
        calls = _record_solves(monkeypatch)
        rows = run(spec).rows
        assert repr(rows) == repr(unscreened_rows(spec))
        _, _, passed, solved = calls[0]
        skipped = set(passed) - set(solved)
        assert skipped
        blocks = sweep._system_blocks(8, Fermions(2, 2))
        floors = dict(zip(passed, sweep._plane_wave_floors(blocks, 4)(
            spec.ring.with_omega(30.0), 4.0)))
        assert min(floors[q] for q in skipped) > (rows[0].ground_energy
                                                 + rows[0].gap)

    @pytest.mark.parametrize("name", ["2+2/8 drive", "2+2/8 interaction",
                                      "4bosons/8"])
    def test_descending_walk_matches_every_block_solved(self, name):
        # A grid runs upward; refinement steps also move down, where a
        # falling u lowers levels.
        spec = _screen_cases()[name]
        scan = sweep._Scan(spec, 1, 1e-10, 1e-8, sweep.DEFAULT_OPTIONS)
        values = spec.control.values()[::-1]
        rows = tuple(scan.row(value, scan.solve(value)) for value in values)
        assert repr(rows) == repr(unscreened_rows(spec)[::-1])

    @pytest.mark.parametrize("search,spec", [
        (find_crossings, SweepSpec(make_ring(8), Bosons(4, u=1.0),
                                   OmegaGrid(0.0, 8.0, 41), 1e-7)),
        (find_crossings, SweepSpec(make_ring(8), Fermions(2, 1, u=-3.0),
                                   OmegaGrid(0.0, 8.0, 17), 1e-8)),
        (fast_mode_boundary, SweepSpec(
            make_ring(8), Fermions(2, 2),
            InteractionGrid(-23.0, -15.0, 3,
                            omega=omega_for(make_ring(8), 10.0)), 0.02)),
        (fast_mode_boundary, SweepSpec(
            make_ring(8), Fermions(2, 2),
            InteractionGrid(50.0, 60.0, 2,
                            omega=omega_for(make_ring(8), 10.0)), 0.02)),
    ], ids=["4bosons/8", "2+1/8", "2+2/8 attractive", "2+2/8 repulsive"])
    def test_roots_match_every_block_solved(self, search, spec,
                                            monkeypatch):
        screened = search(spec)
        _unscreened(monkeypatch)
        assert repr(screened) == repr(search(spec))

    def test_skipped_bracket_block_is_solved_at_its_end(self, monkeypatch):
        # At each end of this bracket the label screen skips the other
        # end's block, which Brent's first step needs: it is solved there
        # alone.  The two-level screen of a row skipped it only at 2.0.
        spec = SweepSpec(make_ring(6), Bosons(2, u=1.0),
                         OmegaGrid(0.0, 8.0, 13))
        calls = _record_solves(monkeypatch)
        screened = find_crossings(spec)
        grid = {float(omega) for omega in spec.control.values()}
        assert [(omega, passed, solved) for omega, _, passed, solved in calls
                if omega in grid and len(passed) != 6] == [
            (2 / 3, (2,), (2,)), (2.0, (0,), (0,))]
        _unscreened(monkeypatch)
        assert repr(screened) == repr(find_crossings(spec))

    def test_failure_in_a_skipped_block_gives_a_row(self, monkeypatch):
        # The spin-flip half (3, -1) fails to solve at every other grid
        # point.  Solving every block, each of those points failed; the
        # screen skips that block at most of them, and those give the rows
        # of a solve of every block.
        spec = _screen_cases()["2+2/8 drive"]
        want = unscreened_rows(spec)
        failing = set(spec.control.values()[1::2])
        omegas = []
        solve, block_stages = sweep._solve, sweep._block_stages

        def solve_at(blocks, among, ring, *args, **kwargs):
            omegas.append(ring.omega)
            return solve(blocks, among, ring, *args, **kwargs)

        def stages(block, *args):
            if (block.q, block.parity) == (3, -1) and omegas[-1] in failing:
                raise ConvergenceError("block (3, -1) fails")
            return block_stages(block, *args)

        monkeypatch.setattr(sweep, "_solve", solve_at)
        monkeypatch.setattr(sweep, "_block_stages", stages)
        rows = run(spec).rows
        failed = {row.control_value for row in rows if row.failed}
        assert failed and failed < failing
        assert len(failed) <= len(failing) // 2
        assert all(row.error == "ConvergenceError: block (3, -1) fails"
                   for row in rows if row.failed)
        assert ([repr(row) for row in rows if not row.failed]
                == [repr(w) for row, w in zip(rows, want) if not row.failed])


class TestDenseBlocks:
    def test_dense_solves_build_no_sparse_matrix(self, monkeypatch):
        # Once a system's blocks are built, a scan whose blocks are all
        # dense builds no scipy.sparse matrix and never calls
        # scipy.linalg.eigh: each block's dense matrix goes to LAPACK.
        spec = _screen_cases()["2+2/8 drive"]
        search = SweepSpec(make_ring(8), Bosons(4, u=1.0),
                           OmegaGrid(0.0, 8.0, 41), 1e-7)
        want = repr(run(spec).rows), repr(find_crossings(search))
        built, dense = [], []
        init = scipy.sparse._base._spbase.__init__
        dense_levels = sweep._dense_levels

        def counted_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        def counted(*args):
            dense.append(args)
            return dense_levels(*args)

        def eigh(*args, **kwargs):
            raise AssertionError("scipy.linalg.eigh called")

        monkeypatch.setattr(scipy.sparse._base._spbase, "__init__",
                            counted_init)
        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
        monkeypatch.setattr(sweep, "_dense_levels", counted)
        assert (repr(run(spec).rows), repr(find_crossings(search))) == want
        assert dense
        assert built == []

    def test_blocks_above_the_threshold_keep_no_dense_hop(self,
                                                          monkeypatch):
        # A dense_threshold raised past DENSE_THRESHOLD solves larger
        # blocks densely from their scattered entries, keeping nothing;
        # the currents come from the sparse X, within rounding.
        spec = _screen_cases()["2+2/8 drive"]
        want = run(spec).rows
        sweep._system_blocks.cache_clear()
        monkeypatch.setattr(hamiltonian, "DENSE_THRESHOLD", 20)
        rows = run(spec, options=SolverOptions(dense_threshold=2**62)).rows
        assert ([(row.ground_energy, row.gap, row.sectors) for row in rows]
                == [(row.ground_energy, row.gap, row.sectors) for row in want])
        assert max(abs(row.total_current - w.total_current)
                   for row, w in zip(rows, want)) < 1e-13
        assert not any("dense_hop" in vars(block)
                       for block in sweep._system_blocks(8, Fermions(2, 2)))

    @pytest.mark.parametrize("options", [sweep.DEFAULT_OPTIONS,
                                         SolverOptions(dense_threshold=1)],
                             ids=["dense", "krylov"])
    def test_drive_that_overflows_gives_a_failed_row(self, options):
        # At omega = 1.7e308 the block entries overflow to inf: the point
        # fails on either path, and the other point is solved.
        spec = SweepSpec(make_ring(6), Fermions(1, 1, u=4.0),
                         OmegaGrid(0.0, 1.7e308, 2))
        with np.errstate(over="ignore"):
            first, last = run(spec, options=options).rows
        assert not first.failed and math.isfinite(first.ground_energy)
        assert last.failed and math.isnan(last.ground_energy)
        assert last.error == ("ConvergenceError: operator has entries that "
                              "are not finite")


def _one_state_block(contact: float) -> SectorBlock:
    """A block of one state with no hop and contact energy ``contact``."""
    hop = CSRArrays(np.zeros(1, dtype=complex), np.zeros(1, dtype=np.int32),
                    np.array([0, 1], dtype=np.int32))
    return SectorBlock(0, None, np.zeros(1, dtype=int), hop, np.zeros(1, int),
                       np.array([contact]), np.zeros(1), np.zeros(1))


def _record_certificates(monkeypatch) -> list:
    """(held, every entry finite) of each certificate the sweep tries."""
    tried = []
    certified_above = sweep._certified_above

    def recorded(dense, bound):
        held = certified_above(dense, bound)
        tried.append((held, bool(np.isfinite(dense).all())))
        return held

    monkeypatch.setattr(sweep, "_certified_above", recorded)
    return tried


class TestCertificates:
    def test_a_certified_block_is_tried_again_when_the_reach_rises(
            self, monkeypatch):
        # Levels 0, 0.9e-8 and 1.05e-8 form one ground multiplet at
        # degeneracy_tol 1e-8, by their gaps.  The floors pop them in the
        # order 0, 1.05e-8, 0.9e-8: the third level is certified above the
        # reach of the first alone, then must be solved once the second
        # joins the multiplet and raises the reach past it.
        blocks = tuple(map(_one_state_block, (0.0, 0.9e-8, 1.05e-8)))
        tried, outcomes = _record_certificates(monkeypatch), []
        solved = sweep._solve(
            blocks, range(3), make_ring(4), 1.0, 1e-8, 1e-10,
            sweep.DEFAULT_OPTIONS, [-1.0, -0.4, -0.5],
            lambda i, bound, outcome: outcomes.append((i, outcome)),
            levels=1)
        assert (True, True) in tried
        assert sweep._ground_positions(solved, 1e-8) == {0, 1, 2}
        assert sorted(outcomes) == [(0, "solved"), (1, "solved"),
                                    (2, "solved")]

    def test_rows_match_every_block_solved_with_certificates(self,
                                                             monkeypatch):
        # The 2+2/8 drive sweep certifies blocks out of reach instead of
        # solving them, and keeps the rows of a solve of every block.
        spec = _screen_cases()["2+2/8 drive"]
        tried = _record_certificates(monkeypatch)
        rows = run(spec).rows
        assert (True, True) in tried
        assert repr(rows) == repr(unscreened_rows(spec))

    def test_block_that_is_not_finite_is_never_certified(self,
                                                         monkeypatch):
        # Once the first block is solved the reach is finite, and the
        # second block, of entry inf, is tried for a certificate: it fails,
        # and the solve raises.
        blocks = tuple(map(_one_state_block, (0.0, math.inf)))
        tried = _record_certificates(monkeypatch)
        with pytest.raises(ConvergenceError, match="not finite"):
            sweep._solve(blocks, range(2), make_ring(4), 1.0, 1e-8, 1e-10,
                         sweep.DEFAULT_OPTIONS, [-1.0, -0.5],
                         lambda *args: None, levels=1)
        assert tried == [(False, True), (False, False)]

    def test_overflowing_drive_fails_its_rows(self, tmp_path, monkeypatch):
        # Certificates hold at omega = 0; at 8.5e307 and 1.7e308 the
        # entries overflow and both rows fail, with exit code 2.
        tried = _record_certificates(monkeypatch)
        with np.errstate(over="ignore"):
            code = cli.main(["sweep", "--sites", "8", "--species", "fermion",
                             "--n-up", "2", "--n-down", "2", "--u", "4",
                             "--omega-min", "0", "--omega-max", "1.7e308",
                             "--omega-points", "3", "--out", str(tmp_path)])
        assert code == 2
        assert (True, True) in tried
        assert [row["sector"] == "failed" for row in _csv_body(
            tmp_path / "sweep.csv")] == [False, True, True]


FORCE_KRYLOV = SolverOptions(dense_threshold=1)


def _positions(blocks) -> dict:
    """Each block's position in ``blocks``, by (q, parity)."""
    return {(block.q, block.parity): i for i, block in enumerate(blocks)}


def _record_stages(monkeypatch) -> list:
    """For each call of sweep._solve: the blocks it returned,
    theta_1 - r_1 of every Krylov block whose main run (stage 1) ran,
    keyed by block position, and the positions of the blocks whose lock
    loop (stage 2) ran."""
    calls, current = [], {}
    solve, block_stages = sweep._solve, sweep._block_stages

    def staged(block, *args):
        i = current["positions"][id(block)]

        def stages():
            for values, vectors, residuals, final in block_stages(block, *args):
                if not final:
                    current["first"][i] = float(values[0] - residuals[0])
                elif i in current["first"]:
                    current["second"].add(i)
                yield values, vectors, residuals, final

        return stages()

    def recorded(blocks, *args, **kwargs):
        current.update(first={}, second=set(),
                       positions={id(block): i
                                  for i, block in enumerate(blocks)})
        solved = solve(blocks, *args, **kwargs)
        calls.append((solved, current["first"], current["second"]))
        return solved

    monkeypatch.setattr(sweep, "_block_stages", staged)
    monkeypatch.setattr(sweep, "_solve", recorded)
    return calls


class TestLockLoopScreen:
    @pytest.mark.parametrize("spec", [
        SweepSpec(make_ring(8), Fermions(2, 2, u=4.0),
                  OmegaGrid(0.0, 40.0, 4)),
        SweepSpec(make_ring(8), Fermions(2, 2, u=0.0),
                  OmegaGrid(0.0, 2.0, 3)),
        SweepSpec(make_ring(8), Fermions(2, 2, u=4.0),
                  InteractionGrid(-30.0, 60.0, 4,
                                  omega=omega_for(make_ring(8), 1.0))),
    ], ids=["2+2/8 drive", "2+2/8 u=0", "2+2/8 interaction"])
    def test_krylov_rows_match_every_block_locked(self, spec, monkeypatch):
        screened = run(spec, options=FORCE_KRYLOV).rows
        _unscreened(monkeypatch)
        assert repr(screened) == repr(run(spec, options=FORCE_KRYLOV).rows)

    @pytest.mark.parametrize("search,spec", [
        (find_crossings, SweepSpec(make_ring(8), Bosons(4, u=1.0),
                                   OmegaGrid(0.0, 8.0, 9), 1e-7)),
        (fast_mode_boundary, SweepSpec(
            make_ring(8), Fermions(2, 2),
            InteractionGrid(-23.0, -15.0, 3,
                            omega=omega_for(make_ring(8), 10.0)), 0.02)),
    ], ids=["4bosons/8", "2+2/8 attractive"])
    def test_krylov_roots_match_every_block_locked(self, search, spec,
                                                   monkeypatch):
        screened = search(spec, options=FORCE_KRYLOV)
        _unscreened(monkeypatch)
        assert repr(screened) == repr(search(spec, options=FORCE_KRYLOV))

    def test_degenerate_ground_inside_a_block_is_locked(self, monkeypatch):
        # 4+2 fermions on 6 sites at u = 0 and rest: the up Fermi sea has
        # momentum 2 or 4 and the down one 1 or 5, so block 3 holds two
        # copies of the ground level (2 + 1 and 4 + 5) and blocks 1 and 5
        # one each.  ARPACK finds one copy in block 3, and its lock loop
        # finds the other.
        spec = SweepSpec(make_ring(6), Fermions(4, 2, u=0.0),
                         OmegaGrid(0.0, 2.0, 2))
        calls = _record_stages(monkeypatch)
        row = run(spec, options=FORCE_KRYLOV).rows[0]
        assert row.sectors == (1, 3, 3, 5)
        solved, _, second = calls[0]
        assert {1, 3, 5} <= second
        assert len(solved[3][1]) == 3

    def test_blocks_asked_for_are_solved_in_full(self):
        # A Brent step needs both of its blocks, however far apart they
        # lie: at rest the spin-flip half (4, +1) lies above the second
        # level of (0, -1), which holds the ground, and its lowest level
        # has two copies.
        spec = SweepSpec(make_ring(8), Fermions(2, 2, u=4.0),
                         OmegaGrid(0.0, 1.0, 2))
        scan = sweep._Scan(spec, 1, 1e-10, 1e-8, FORCE_KRYLOV)
        at = _positions(scan.blocks)
        solved = scan.solve(0.0, (at[0, -1], at[4, 1]))
        assert sorted(solved) == [at[0, -1], at[4, 1]]
        assert solved[at[4, 1]][1][0] > solved[at[0, -1]][1][1]
        assert len(solved[at[4, 1]][1]) == 3

    @pytest.mark.parametrize("spec,options", [
        (SweepSpec(make_ring(10), Fermions(3, 3, u=4.0),
                   OmegaGrid(3.0, 3.5, 2)), sweep.DEFAULT_OPTIONS),
        (SweepSpec(make_ring(8), Fermions(2, 2, u=4.0),
                   OmegaGrid(0.0, 40.0, 9)), FORCE_KRYLOV),
    ], ids=["3+3/10", "2+2/8 forced"])
    def test_skipped_lock_loops_were_out_of_reach(self, spec, options,
                                                  monkeypatch):
        # Stage 2 is skipped only where theta_1 - r_1 of stage 1 lies above
        # the top of the ground multiplet by more than degeneracy_tol plus
        # tol * max(1, |top|).  A block left out lies above the second
        # level by as much too; a block kept holds only its stage-1 pair.
        calls = _record_stages(monkeypatch)
        run(spec, options=options)
        firsts = sum(len(first) for _, first, _ in calls)
        seconds = sum(len(second) for *_, second in calls)
        assert 0 < seconds < firsts
        kept = 0
        for solved, first, second in calls:
            values, _ = sweep._ground(solved, 1e-8)
            top = values[sweep._level_end(values, 1, 1e-8) - 1]
            limit = max(values[1], top)
            for key in first.keys() - second:
                if key in solved:
                    kept += 1
                    assert first[key] > top + 1e-8 + 1e-10 * max(1.0, abs(top))
                    assert len(solved[key][1]) == solved[key][2].shape[1] == 1
                else:
                    assert first[key] > limit + 1e-8 + 1e-10 * max(1.0,
                                                                   abs(limit))
        assert kept > 0


def _record_solves(monkeypatch) -> list:
    """(omega, u, positions of the blocks passed, positions of the blocks
    solved) of every call of sweep._solve; a block returned as it was
    passed in ``known`` does not count as solved."""
    calls = []
    solve = sweep._solve

    def recorded(blocks, among, ring, u, *args, known=None, levels=2):
        solved = solve(blocks, among, ring, u, *args, known=known,
                       levels=levels)
        calls.append((ring.omega, u, tuple(among),
                      tuple(i for i, entry in solved.items()
                            if entry is not (known or {}).get(i))))
        return solved

    monkeypatch.setattr(sweep, "_solve", recorded)
    return calls


def _check_solve_pattern(calls, grid, roots, n_blocks):
    """Given (control value, positions of the blocks passed, positions of
    the blocks solved) of every call: the first grid point passes every
    block and solves at least one (with an empty ledger it skips only
    blocks that their plane-wave floors rule out), each grid point and
    each root takes one screened call over every block, and every other
    call is either a Brent step that solves two blocks between the grid
    points or a call at a bracket end that solves one block, one of the
    pair of a Brent step beside that end, which the screen skipped there.
    The root is one of the steps, and its screened solve takes the step's
    two blocks as they are instead of solving them again."""
    assert len(calls[0][1]) == n_blocks and calls[0][2]
    screened = [call for call in calls if len(call[1]) == n_blocks]
    assert sorted(x for x, _, _ in screened) == sorted([*grid, *roots])
    steps = [call for call in calls if len(call[1]) == 2]
    assert all(len(solved) == 2 for _, _, solved in steps)
    assert not {x for x, _, _ in steps} & set(grid)
    ends = [call for call in calls if len(call[1]) == 1]
    assert len(screened) + len(steps) + len(ends) == len(calls)
    grid = sorted(grid)
    for x, passed, solved in ends:
        assert passed == solved
        i = grid.index(x)
        low, high = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        assert any(low < y < high and passed[0] in pair
                   for y, pair, _ in steps)
    for root in roots:
        (pair,) = {passed for x, passed, _ in steps if x == root}
        (solved,) = [solved for x, _, solved in screened if x == root]
        assert not set(pair) & set(solved)


def _two_level(monkeypatch) -> None:
    """Make every screened solve read two levels, as a row's does, so a
    search screens its blocks against the second level too."""
    reach = sweep._reach

    def two_level(values, degeneracy_tol, tol, levels):
        return reach(values, degeneracy_tol, tol, 2)

    monkeypatch.setattr(sweep, "_reach", two_level)


def _search_cases():
    """Every search over sector blocks that this file runs: (search, spec,
    options, whether the label screen solves fewer blocks than the
    two-level screen, or else as many)."""
    ring4, ring5, ring6, ring8 = (make_ring(n) for n in (4, 5, 6, 8))
    scaled = make_ring(8, t=1.3, beta=0.7)
    dense = sweep.DEFAULT_OPTIONS

    def crossings(ring, species, top, points, tol=1e-6, options=dense):
        return (find_crossings, SweepSpec(
            ring, species, OmegaGrid(0.0, top, points), tol), options, True)

    def boundaries(ring, species, lo, hi, points, drive, tol=1e-6,
                   options=dense, fewer=True):
        return (fast_mode_boundary, SweepSpec(
            ring, species, InteractionGrid(
                lo, hi, points, omega=omega_for(ring, drive)), tol),
            options, fewer)

    return {
        "4bosons/8": crossings(ring8, Bosons(4, u=1.0), 8.0, 41, 1e-7),
        "4bosons/8 krylov": crossings(ring8, Bosons(4, u=1.0), 8.0, 9, 1e-7,
                                      FORCE_KRYLOV),
        "2+1/8": crossings(ring8, Fermions(2, 1, u=-3.0), 8.0, 17, 1e-8),
        "2+2/8 drive": crossings(ring8, Fermions(2, 2, u=4.0), 40.0, 41),
        "2bosons/6": crossings(ring6, Bosons(2, u=1.0), 8.0, 13),
        "3bosons/8": crossings(ring8, Bosons(3, u=7.0), 8.0, 17, 1e-8),
        "1boson/4": crossings(ring4, Bosons(1), omega_for(ring4, 3.0), 61,
                              1e-7),
        "1boson/8": crossings(ring8, Bosons(1), omega_for(ring8, 3.0), 61,
                              1e-7),
        "1boson/8 two points": crossings(ring8, Bosons(1),
                                         omega_for(ring8, 3.0), 2, 1e-8),
        "1+1/8": boundaries(ring8, Fermions(1, 1), -12.0, 12.0, 13, 10.0),
        "2+1/5": boundaries(ring5, Fermions(2, 1), -20.0, -14.0, 7, 1.0),
        "2+1/5 beside a crossing": boundaries(ring5, Fermions(2, 1), -58.0,
                                              -48.0, 2, 0.75),
        # Near these boundaries the dense screen of 2+2/8 reaches the same
        # halves for the ground multiplet as for the second level.  Near
        # some (fewer=False) it solves the same ones; near the others the
        # label's lower limit lets more of them be certified out of reach.
        "2+2/8 attractive": boundaries(ring8, Fermions(2, 2), -23.0, -15.0,
                                       3, 10.0, 0.02, fewer=False),
        "2+2/8 attractive krylov": boundaries(
            ring8, Fermions(2, 2), -23.0, -15.0, 3, 10.0, 0.02, FORCE_KRYLOV),
        "2+2/8 repulsive": boundaries(ring8, Fermions(2, 2), 50.0, 60.0, 2,
                                      10.0, 0.02),
        "2+2/8 pairing": boundaries(ring8, Fermions(2, 2), -22.0, -16.0, 4,
                                    10.0, 0.05),
        "2+2/8 scaled": boundaries(scaled, Fermions(2, 2), -30.0, -20.0, 3,
                                   10.0, 0.02, fewer=False),
        "2+2/8 scaled repulsive": boundaries(scaled, Fermions(2, 2), 65.0,
                                             78.0, 2, 10.0, 0.02),
    }


class TestLabelScreen:
    @pytest.mark.parametrize("name", list(_search_cases()))
    def test_roots_match_every_block_solved_with_fewer_solves(
            self, name, monkeypatch):
        # A search label reads the ground multiplet alone, so its solves
        # skip the blocks that could hold only the second level.
        search, spec, options, fewer = _search_cases()[name]
        calls = _record_solves(monkeypatch)
        screened = search(spec, options=options)
        label = sum(len(solved) for *_, solved in calls)
        calls.clear()
        _two_level(monkeypatch)
        two_level = repr(search(spec, options=options))
        assert repr(screened) == two_level
        solves = sum(len(solved) for *_, solved in calls)
        assert label < solves if fewer else label == solves
        _unscreened(monkeypatch)
        assert repr(screened) == repr(search(spec, options=options))

    def test_reach_of_one_and_two_levels(self):
        values = np.array([-2.0, -2.0 + 5e-9, -1.0, 3.0])
        pad = 1e-8 + 1e-10 * 2.0
        assert sweep._reach(values, 1e-8, 1e-10, 1) == -2.0 + 5e-9 + pad
        assert sweep._reach(values[:1], 1e-8, 1e-10, 1) == -2.0 + pad
        assert sweep._reach(values[2:], 1e-8, 1e-10, 2) == 3.0 + 1e-8 + 3e-10
        assert sweep._reach(values[:1], 1e-8, 1e-10, 2) == math.inf
        assert sweep._reach(values[:0], 1e-8, 1e-10, 1) == math.inf

    @pytest.mark.parametrize("control", [
        ["--species", "fermion", "--n-up", "2", "--n-down", "2", "--u", "4",
         "--omega-min", "0", "--omega-max", "40", "--omega-points", "41"],
        ["--species", "boson", "--n", "4", "--u", "1", "--omega-min", "0",
         "--omega-max", "8", "--omega-points", "41", "--tol", "1e-7"],
        ["--species", "fermion", "--n-up", "2", "--n-down", "2", "--u-min",
         "-23", "--u-max", "-15", "--u-points", "3", "--tol", "0.02",
         "--omega", repr(omega_for(make_ring(8), 10.0))]],
        ids=["2+2/8 drive", "4bosons/8", "2+2/8 interaction"])
    def test_refine_csvs_match_the_two_level_screen(self, tmp_path, control,
                                                    monkeypatch):
        # The rows of sweep --refine come from two-level solves; its
        # search's solves read one.  Its files equal those of a search that
        # screens every solve against two levels, byte for byte, apart
        # from the timestamp.
        def files(out):
            assert cli.main(["sweep", "--sites", "8", *control, "--refine",
                             "--out", str(out)]) == 0
            return {path.name: [line for line in path.read_bytes().splitlines()
                                if not line.startswith(b"# timestamp: ")]
                    for path in sorted(out.iterdir())}

        screened = files(tmp_path / "label")
        _two_level(monkeypatch)
        assert screened == files(tmp_path / "two-level")
        assert len(screened) == 2


class TestFindCrossings:
    def test_eight_site_single_particle(self, ring8):
        spec = SweepSpec(ring=ring8, species=Bosons(1),
                         control=OmegaGrid(0.0, omega_for(ring8, 3.0), 61),
                         bisection_tol=1e-7)
        crossings = find_crossings(spec)
        expected = [(SQRT2 - 1.0) / ring8.k_factor,
                    (1.0 + SQRT2) / ring8.k_factor]
        assert len(crossings) == 2
        for got, want in zip(crossings, expected):
            assert abs(got - want) < 1e-6

    def test_four_site_threshold(self, ring4):
        spec = SweepSpec(ring=ring4, species=Bosons(1),
                         control=OmegaGrid(0.0, omega_for(ring4, 3.0), 61),
                         bisection_tol=1e-7)
        crossings = find_crossings(spec)
        assert len(crossings) == 1
        assert abs(crossings[0] - ring4.t / ring4.k_factor) < 1e-6

    def test_quiet_window_has_none(self, ring8):
        spec = SweepSpec(ring=ring8, species=Bosons(1),
                         control=OmegaGrid(0.0, 0.3 * omega_for(ring8, SQRT2 - 1),
                                           11))
        assert find_crossings(spec) == ()

    def test_needs_omega_control(self, ring8):
        spec = SweepSpec(ring=ring8, species=Fermions(1, 1),
                         control=InteractionGrid(0.0, 1.0, 3, omega=1.0))
        with pytest.raises(DomainError, match="control"):
            find_crossings(spec)

    def test_refinement_stable_under_grid_doubling(self, ring8):
        kwargs = dict(ring=ring8, species=Bosons(1), bisection_tol=1e-8)
        coarse = find_crossings(SweepSpec(
            control=OmegaGrid(0.0, omega_for(ring8, 3.0), 50), **kwargs))
        fine = find_crossings(SweepSpec(
            control=OmegaGrid(0.0, omega_for(ring8, 3.0), 100), **kwargs))
        spacing = omega_for(ring8, 3.0) / 49
        assert len(coarse) == len(fine) == 2
        for a, b in zip(coarse, fine):
            assert abs(a - b) <= spacing

    @pytest.mark.parametrize("species,windings", [
        (Bosons(3, u=7.0), (1, 3)),
        (Fermions(2, 1, u=-3.0), (1, 2, 3)),
    ], ids=["bosons", "fermions"])
    def test_crossings_at_exact_twist_degeneracies(self, ring8, species,
                                                   windings):
        # omega*K/t = tan(m*pi/N) puts a twist of m*pi/N on every bond,
        # where sectors q and m*N_p - q are degenerate for any u.
        spec = SweepSpec(ring=ring8, species=species,
                         control=OmegaGrid(0.0, 8.0, 17), bisection_tol=1e-8)
        crossings = find_crossings(spec)
        expected = [ring8.t * math.tan(m * math.pi / 8) / ring8.k_factor
                    for m in windings]
        assert len(crossings) == len(expected)
        for got, want in zip(crossings, expected):
            assert abs(got - want) <= spec.bisection_tol

    @pytest.mark.parametrize("tol", [1e-8, 1e-300])
    def test_third_sector_at_the_root_falls_back_to_bisection(self, ring8,
                                                              tol):
        # The two grid points lie in sectors 0 and 2.  E_0 - E_2 vanishes at
        # omega*K/t = 1, where sector 1 lies lower, so the search bisects
        # the label and finds the first change, 0 -> 1 at tan(pi/8).  At
        # 1e-300 the bisection stops where no float lies between its ends.
        spec = SweepSpec(ring=ring8, species=Bosons(1),
                         control=OmegaGrid(0.0, omega_for(ring8, 3.0), 2),
                         bisection_tol=tol)
        want = ring8.t * math.tan(math.pi / 8) / ring8.k_factor
        (got,) = find_crossings(spec)
        assert abs(got - want) <= max(tol, 8 * math.ulp(want))

    def test_tolerance_below_float_spacing_terminates(self, ring8):
        spec = SweepSpec(ring=ring8, species=Bosons(1),
                         control=OmegaGrid(0.0, omega_for(ring8, 3.0), 13),
                         bisection_tol=1e-300)
        crossings = find_crossings(spec)
        want = ring8.t * math.tan(math.pi / 8) / ring8.k_factor
        assert len(crossings) == 2
        assert abs(crossings[0] - want) <= 8 * math.ulp(want)

    def test_refinement_solves_two_blocks_per_step(self, monkeypatch):
        calls = _record_solves(monkeypatch)
        spec = SweepSpec(ring=make_ring(8), species=Bosons(4, u=1.0),
                         control=OmegaGrid(0.0, 8.0, 41), bisection_tol=1e-7)
        crossings = find_crossings(spec)
        assert len(crossings) == 2
        grid = [float(omega) for omega in spec.control.values()]
        _check_solve_pattern([(omega, *rest) for omega, _, *rest in calls],
                             grid, crossings, 8)
        # Solving every block took 41 * 8 = 328 solves on the grid and 28
        # more at the roots and Brent steps.  The two-level screen of a row
        # solves 117 and 17; the label screen, which reads the ground
        # multiplet alone, 59 on the grid and 19 more, two of them at
        # bracket ends.
        solves = [len(solved) for omega, _, passed, solved in calls
                  if omega in grid and len(passed) == 8]
        assert sum(solves) <= 59
        assert sum(len(solved) for *_, solved in calls) <= 78

    @pytest.mark.parametrize("species,points", [
        (Bosons(1), 13), (Bosons(1), 2), (PolarizedFermions(2), 61)],
        ids=["brent", "fallback", "polarized"])
    def test_roots_are_python_floats(self, ring8, species, points):
        crossings = find_crossings(SweepSpec(
            ring8, species, OmegaGrid(0.0, omega_for(ring8, 3.0), points)))
        assert crossings
        assert all(type(w) is float for w in crossings)

    def test_polarized_fermi_sea_crossings(self, ring8):
        # The Fermi sea rearranges where a twist of m*pi/N makes two
        # windings degenerate; detection runs on closed forms, no solver.
        # The roots lie within tol of that twist, even at a tol below the
        # closed forms' 1e-9 tie window.
        for n, omega_max, points, tol, windings in [
                (2, 3.0, 61, 1e-7, (0, 2)), (3, 6.0, 25, 1e-9, (1, 3))]:
            spec = SweepSpec(ring=ring8, species=PolarizedFermions(n),
                             control=OmegaGrid(0.0, omega_for(ring8, omega_max),
                                               points),
                             bisection_tol=tol)
            crossings = find_crossings(spec)
            expected = [ring8.t * math.tan(m * math.pi / 8) / ring8.k_factor
                        for m in windings]
            assert len(crossings) == len(expected)
            for got, want in zip(crossings, expected):
                assert abs(got - want) <= tol


class TestFastModeBoundary:
    def test_pair_stays_fast_in_narrow_window(self, ring8):
        # One pair of opposite spins at strong drive carries positive
        # current across this whole interaction window.
        spec = SweepSpec(ring=ring8, species=Fermions(1, 1),
                         control=InteractionGrid(-12.0, 12.0, 13,
                                                 omega=omega_for(ring8, 10.0)))
        assert fast_mode_boundary(spec) == ()

    def test_needs_interaction_control(self, ring8):
        spec = SweepSpec(ring=ring8, species=Fermions(1, 1),
                         control=OmegaGrid(0.0, 1.0, 5))
        with pytest.raises(DomainError, match="control"):
            fast_mode_boundary(spec)

    def test_needs_fermions(self, ring8):
        spec = SweepSpec(ring=ring8, species=Bosons(2),
                         control=InteractionGrid(-1.0, 1.0, 5, omega=1.0))
        with pytest.raises(DomainError, match="species"):
            fast_mode_boundary(spec)

    def test_locates_pairing_transition_of_four_fermions(self, ring8):
        # Strong attraction binds the two pairs and flips the half-filled
        # current positive; the zero sits inside this window.
        spec = SweepSpec(ring=ring8, species=Fermions(2, 2),
                         control=InteractionGrid(-22.0, -16.0, 4,
                                                 omega=omega_for(ring8, 10.0)),
                         bisection_tol=0.05)
        points = fast_mode_boundary(spec)
        assert len(points) == 1
        point = points[0]
        assert point.sign_below == 1 and point.sign_above == -1
        assert -22.0 < point.u_star < -16.0
        assert type(point.u_star) is float

    def test_sign_change_inside_one_sector(self):
        # The ground stays in sector 2 across this window while its
        # current changes sign, so the bracket is bisected.
        ring = make_ring(5)
        spec = SweepSpec(ring=ring, species=Fermions(2, 1),
                         control=InteractionGrid(-20.0, -14.0, 7,
                                                 omega=omega_for(ring, 1.0)),
                         bisection_tol=1e-6)
        assert {row.sectors for row in run(spec).rows} == {(2,)}
        (point,) = fast_mode_boundary(spec)
        assert (point.sign_below, point.sign_above) == (-1, 1)
        assert abs(point.u_star - (-16.4972310)) <= spec.bisection_tol
        assert type(point.u_star) is float

    @pytest.mark.parametrize("drive,window,inside", [
        (0.75, (-58.0, -48.0), (-57.0, -54.0)),
        (0.5, (-50.0, -5.0), (-13.0, -11.0))],
        ids=["low-end-block", "high-end-block"])
    def test_sign_change_beside_a_crossing_falls_back_to_bisection(
            self, drive, window, inside):
        # 2+1 fermions on 5 sites.  Each window runs from sector 2 to 1 or
        # 1 to 2, but the current changes sign inside sector 1, away from
        # the level crossing.  At drive 0.75 block 1 (the low end's) turns
        # negative at u = -55.8, before it meets block 2 at -50.7; at 0.5
        # block 1 (the high end's) turns negative at -11.9, after it meets
        # block 2 at -44.1.  At the crossing one block's current has the
        # wrong sign, so the search bisects and finds the same root as a
        # window inside sector 1.
        ring = make_ring(5)

        def spec(lo, hi):
            return SweepSpec(ring=ring, species=Fermions(2, 1),
                             control=InteractionGrid(
                                 lo, hi, 2, omega=omega_for(ring, drive)),
                             bisection_tol=1e-6)

        rows = run(spec(*window)).rows
        assert {rows[0].sectors, rows[1].sectors} == {(1,), (2,)}
        assert {row.sectors for row in run(spec(*inside)).rows} == {(1,)}
        (point,) = fast_mode_boundary(spec(*window))
        (want,) = fast_mode_boundary(spec(*inside))
        assert (point.sign_below, point.sign_above) == (1, -1)
        assert (want.sign_below, want.sign_above) == (1, -1)
        assert abs(point.u_star - want.u_star) <= 1e-6

    @pytest.mark.parametrize("currents,want", [
        ((1.0, 0.0, 0.0, -1.0, -1.0), [(1.0, 1, -1)]),
        ((0.0, 1.0, 0.0, 1.0, 0.0), [(4.0, 1, -1)])],
        ids=["sign-changes-beyond", "zeros-to-the-end"])
    def test_zero_current_on_the_grid(self, ring4, monkeypatch, currents,
                                      want):
        # A grid point with zero current is a boundary when the first
        # nonzero sign beyond it differs from the one before, or when the
        # zeros run to the end of the grid.
        def pinned(spec, value, solved, degeneracy_tol):
            return currents[int(value)]

        monkeypatch.setattr(sweep, "_per_particle_current", pinned)
        spec = SweepSpec(ring=ring4, species=Fermions(1, 1),
                         control=InteractionGrid(0.0, 4.0, 5, omega=1.0))
        points = fast_mode_boundary(spec)
        assert [(p.u_star, p.sign_below, p.sign_above)
                for p in points] == want

    def test_grid_points_and_roots_are_solved_once(self, ring8,
                                                   monkeypatch):
        # The sign check at a root reads blocks Q1 and Q2 from the screened
        # solve there, and Brent starts from the grid's levels.
        calls = _record_solves(monkeypatch)
        spec = SweepSpec(ring=ring8, species=Fermions(2, 2),
                         control=InteractionGrid(-23.0, -15.0, 3,
                                                 omega=omega_for(ring8, 10.0)),
                         bisection_tol=0.02)
        (point,) = fast_mode_boundary(spec)
        grid = [float(u) for u in spec.control.values()]
        _check_solve_pattern([(u, *rest) for _, u, *rest in calls], grid,
                             [point.u_star], 16)
        # Solving every block, two spin-flip halves in each of 8 sectors,
        # took 4 * 16 + 3 * 2 = 70 solves.
        assert sum(len(solved) for *_, solved in calls) <= 23


class TestOneScan:
    @pytest.mark.parametrize("control,search,window", [
        (["--u", "4", "--omega-min", "0", "--omega-max", "40",
          "--omega-points", "41"], find_crossings, OmegaGrid(0.0, 40.0, 41)),
        (["--u-min", "-23", "--u-max", "-15", "--u-points", "3", "--tol",
          "0.02", "--omega", repr(omega_for(make_ring(8), 10.0))],
         fast_mode_boundary, InteractionGrid(
             -23.0, -15.0, 3, omega=omega_for(make_ring(8), 10.0)))],
        ids=["omega", "u"])
    def test_refine_solves_each_grid_point_once(self, tmp_path, monkeypatch,
                                                control, search, window):
        # The search reads the grid points the rows came from: each grid
        # value takes one screened solve, where a second scan made two.
        screened = []
        solve = sweep._solve

        def recorded(blocks, among, ring, u, degeneracy_tol, tol, options,
                     floors, *args, **kwargs):
            if floors is not None:
                screened.append(ring.omega if search is find_crossings
                                else u)
            return solve(blocks, among, ring, u, degeneracy_tol, tol,
                         options, floors, *args, **kwargs)

        monkeypatch.setattr(sweep, "_solve", recorded)
        assert cli.main(["sweep", "--sites", "8", "--species", "fermion",
                         "--n-up", "2", "--n-down", "2", *control,
                         "--refine", "--out", str(tmp_path)]) == 0
        grid = [float(value) for value in window.values()]
        assert sorted(x for x in screened if x in grid) == grid
        monkeypatch.setattr(sweep, "_solve", solve)
        spec = SweepSpec(make_ring(8), Fermions(2, 2, u=4.0), window,
                         0.02 if search is fast_mode_boundary else 1e-6)
        rows = _csv_body(tmp_path / "sweep.csv")
        assert [(float(r["control"]), float(r["ground_energy_over_t"]),
                 float(r["gap_over_t"]), float(r["current_total_over_t"]),
                 r["sector"]) for r in rows] == [
            (row.control_value, row.ground_energy, row.gap,
             row.total_current, "|".join(map(str, row.sectors)))
            for row in run(spec).rows]
        roots = search(spec)
        assert roots
        if search is find_crossings:
            assert [float(r["omega"]) for r in _csv_body(
                tmp_path / "crossings.csv")] == list(roots)
        else:
            assert [(float(r["u_star_over_t"]), int(r["sign_below"]),
                     int(r["sign_above"])) for r in _csv_body(
                tmp_path / "boundary.csv")] == [
                (p.u_star, p.sign_below, p.sign_above) for p in roots]


class TestSolverSummary:
    def test_counts_match_the_solves_made(self, monkeypatch):
        # Dense blocks: every block solve is one dense solve and runs no
        # lock loop.
        spec = _screen_cases()["2+2/8 drive"]
        stages = []
        dense_levels = sweep._dense_levels

        def counted(*args):
            stages.append(args)
            return dense_levels(*args)

        monkeypatch.setattr(sweep, "_dense_levels", counted)
        summary = run(spec).provenance["solver_summary"]
        # Two spin-flip halves in each of the 8 sectors.
        n_blocks = len(sweep._system_blocks(8, Fermions(2, 2)))
        assert n_blocks == 16
        assert summary == {"block_solves": len(stages),
                           "blocks_skipped": 41 * n_blocks - len(stages),
                           "lock_loops_run": 0, "lock_loops_skipped": 0}
        assert 0 < len(stages) < 41 * n_blocks

    def test_lock_loop_counts_match_the_stages_run(self, monkeypatch):
        spec = SweepSpec(make_ring(8), Fermions(2, 2, u=4.0),
                         OmegaGrid(0.0, 40.0, 9))
        calls = _record_stages(monkeypatch)
        summary = run(spec, options=FORCE_KRYLOV).provenance["solver_summary"]
        firsts = sum(len(first) for _, first, _ in calls)
        seconds = sum(len(second) for *_, second in calls)
        assert summary == {"block_solves": firsts,
                           "blocks_skipped": 9 * 16 - firsts,
                           "lock_loops_run": seconds,
                           "lock_loops_skipped": firsts - seconds}
        assert 0 < seconds < firsts

    @pytest.mark.parametrize("grid,options,want", [
        (OmegaGrid(0.0, 40.0, 41), sweep.DEFAULT_OPTIONS, (93, 563, 0, 0)),
        (OmegaGrid(0.0, 40.0, 9), FORCE_KRYLOV, (30, 114, 9, 21)),
    ], ids=["dense", "krylov"])
    def test_row_screen_counts_are_pinned(self, grid, options, want):
        # The counts above only agree with the solves made; these pin how
        # many the screen leaves out, so a looser screen with the same
        # rows fails here.
        spec = SweepSpec(make_ring(8), Fermions(2, 2, u=4.0), grid)
        summary = run(spec, options=options).provenance["solver_summary"]
        assert summary == dict(zip(("block_solves", "blocks_skipped",
                                    "lock_loops_run", "lock_loops_skipped"),
                                   want))

    def test_label_screen_counts_are_pinned(self):
        # 49 solves on the grid and 14 in the refinement of its two
        # crossings, of 41 * 8 + 26 blocks met.
        spec = SweepSpec(make_ring(8), Bosons(4, u=1.0),
                         OmegaGrid(0.0, 8.0, 41), 1e-7)
        scan = sweep._Scan(spec, 1, 1e-10, 1e-8, sweep.DEFAULT_OPTIONS,
                           sweep._crossings)
        assert len(sweep._crossings(scan, scan.points(1))) == 2
        assert scan.counts == Counter(solved=63, skipped=291)


def _csv_body(path) -> list[dict]:
    """The data rows of a CSV written by the CLI, by column name."""
    with open(path, encoding="utf-8") as handle:
        return list(csv.DictReader(
            line for line in handle if not line.startswith("#")))


def _count_builds(monkeypatch) -> list:
    """Empty the sweep's cache of sector blocks, then record the
    (n_sites, species) of every sector-block build."""
    sweep._system_blocks.cache_clear()
    builds = []
    build = sweep.sector_blocks

    def counted(basis):
        builds.append((basis.n_sites, basis.species))
        return build(basis)

    monkeypatch.setattr(sweep, "sector_blocks", counted)
    return builds


def _two_point_spec(n_sites: int, species) -> SweepSpec:
    ring = make_ring(n_sites)
    return SweepSpec(ring=ring, species=species,
                     control=OmegaGrid(0.0, omega_for(ring, 1.0), 2))


class TestSharedBlocks:
    def test_cli_sweep_and_refinement_build_once(self, tmp_path,
                                                 monkeypatch):
        builds = _count_builds(monkeypatch)
        assert cli.main(["sweep", "--sites", "8", "--species", "fermion",
                         "--n-up", "2", "--n-down", "2", "--u", "4",
                         "--omega-min", "0", "--omega-max", "20",
                         "--omega-points", "11", "--refine",
                         "--out", str(tmp_path)]) == 0
        assert (tmp_path / "crossings.csv").is_file()
        assert builds == [(8, Fermions(2, 2))]

    def test_scans_of_one_system_build_once_with_cold_results(
            self, monkeypatch):
        # Other t, K, omega and u than make_ring(8) and other scans: the
        # blocks serve them all, with the results of freshly built ones.
        builds = _count_builds(monkeypatch)
        ring = make_ring(8, t=1.3, beta=0.7)
        drive = omega_for(ring, 10.0)
        calls = [
            (fast_mode_boundary, SweepSpec(
                ring=ring, species=Fermions(2, 2),
                control=InteractionGrid(lo, hi, points, omega=drive),
                bisection_tol=0.02))
            for lo, hi, points in ((-30.0, -20.0, 3), (65.0, 78.0, 2))]
        def rows_and_counts(spec):
            # The run's counts too: neither they nor the ledger carry over
            # between scans through the blocks kept.
            result = run(spec)
            return result.rows, result.provenance["solver_summary"]

        calls.append((rows_and_counts, SweepSpec(
            ring=ring, species=Fermions(2, 2, u=2.0),
            control=OmegaGrid(0.0, omega_for(ring, 3.0), 7))))
        warm = [repr(call(spec)) for call, spec in calls]
        assert builds == [(8, Fermions(2, 2))]
        cold = []
        for call, spec in calls:
            sweep._system_blocks.cache_clear()
            cold.append(repr(call(spec)))
        assert warm == cold
        assert "BoundaryPoint" in warm[0] and "BoundaryPoint" in warm[1]

    def test_a_third_system_evicts_the_least_recently_used(self,
                                                           monkeypatch):
        builds = _count_builds(monkeypatch)
        a, b, c = (6, Fermions(1, 1)), (6, Bosons(2)), (5, Fermions(1, 1))
        for system in (a, b, a, c, a, b):
            run(_two_point_spec(*system))
        assert builds == [a, b, c, b]

    @pytest.mark.parametrize("first,second", [
        ((6, Fermions(2, 1)), (6, Fermions(1, 2))),
        ((6, Fermions(2, 1)), (7, Fermions(2, 1))),
        ((6, Fermions(2, 0)), (6, Bosons(2))),
        ((6, Bosons(2)), (6, Bosons(3))),
    ], ids=["spin-counts", "sites", "species-type", "boson-count"])
    def test_distinct_systems_never_share_blocks(self, first, second,
                                                 monkeypatch):
        builds = _count_builds(monkeypatch)

        def content(blocks):
            return [(block.q, block.representatives.tolist(),
                     [array.tolist() for array in block.hop],
                     block.interaction.tolist())
                    for block in blocks]

        for n_sites, species in (first, second, first, second):
            spec = _two_point_spec(n_sites, species)
            run(spec)
            scan = sweep._Scan(spec, 1, 1e-10, 1e-8, sweep.DEFAULT_OPTIONS)
            assert content(scan.blocks) == content(
                sector_blocks(enumerate_basis(spec.ring, species)))
        assert builds == [first, second]

    def test_polarized_fermions_build_nothing(self, ring8, monkeypatch):
        builds = _count_builds(monkeypatch)
        spec = SweepSpec(ring=ring8, species=PolarizedFermions(2),
                         control=OmegaGrid(0.0, omega_for(ring8, 3.0), 13),
                         bisection_tol=1e-7)
        run(spec)
        find_crossings(spec)
        assert builds == []
        assert sweep._system_blocks.cache_info().currsize == 0

    @pytest.mark.parametrize("name,value", [("workers", 0), ("tol", math.nan)],
                             ids=["before-the-build", "after-the-build"])
    def test_a_rejected_call_then_a_valid_one_builds_once(self, name, value,
                                                          monkeypatch):
        builds = _count_builds(monkeypatch)
        spec = _two_point_spec(6, Fermions(2, 1, u=3.0))
        with pytest.raises(DomainError, match=f"^{name}:"):
            run(spec, **{name: value})
        run(spec)
        assert builds == [(6, Fermions(2, 1))]

    def test_a_failed_build_is_not_kept(self, monkeypatch):
        builds = _count_builds(monkeypatch)
        spec = _two_point_spec(6, Fermions(2, 1, u=3.0))
        enumerate_all = sweep.enumerate_basis
        monkeypatch.setattr(sweep, "enumerate_basis",
                            lambda ring, species: enumerate_all(
                                ring, species, max_dimension=10))
        with pytest.raises(BasisSizeError):
            run(spec)
        monkeypatch.setattr(sweep, "enumerate_basis", enumerate_all)
        run(spec)
        assert builds == [(6, Fermions(2, 1))]
