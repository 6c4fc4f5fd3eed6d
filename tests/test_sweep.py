import math

import numpy as np
import pytest

from ringlat import (
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

from ringlat.verify import _test_systems

from conftest import omega_for
from oracles import real_space_row

SQRT2 = math.sqrt(2.0)


class TestControls:
    def test_grid_needs_width(self):
        with pytest.raises(DomainError, match="maximum"):
            InteractionGrid(2.0, 2.0, 5, omega=1.0)

    def test_grid_needs_points(self):
        with pytest.raises(DomainError, match="points"):
            OmegaGrid(0.0, 1.0, 1)

    def test_bisection_tol_positive(self):
        with pytest.raises(DomainError, match="bisection_tol"):
            SweepSpec(ring=make_ring(8), species=Bosons(1),
                      control=OmegaGrid(0.0, 1.0, 5), bisection_tol=0.0)


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

    @pytest.mark.parametrize("workers", [0, -3])
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

    def test_polarized_fermi_sea_crossings(self, ring8):
        # The two-fermion sea rearranges where the second-lowest level
        # changes character; detection runs on closed forms, no solver.
        spec = SweepSpec(ring=ring8, species=PolarizedFermions(2),
                         control=OmegaGrid(0.0, omega_for(ring8, 3.0), 61),
                         bisection_tol=1e-7)
        crossings = find_crossings(spec)
        assert crossings, "Fermi-sea rearrangement not detected"


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
