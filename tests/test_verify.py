from ringlat import hamiltonian, sweep, verify
from ringlat.eigen import _certified_above
from ringlat.hamiltonian import hopping_operator
from ringlat.verify import (
    check_dense_certificates,
    check_determinism,
    check_ground_current_vs_formula,
    check_hermiticity,
    check_plane_wave_floors,
    check_scaling_identity,
    check_screened_krylov_sweep,
    check_screened_search,
    check_screening_bounds,
    check_sector_blocks,
    check_sector_labels,
    check_spectrum_vs_diagonalization,
    check_spin_flip,
    check_stage_one_bounds,
    check_translation_commutation,
    check_twist_current_identity,
    check_twist_degeneracy_crossings,
)


def corrupted_current_operator(ring, species, basis):
    """Current with the drive term's sign flipped: a wrong convention."""
    return hopping_operator(basis, 1j * ring.t + ring.omega * ring.k_factor)


def test_all_checks_pass(verify_results):
    failed = [r for r in verify_results if not r.passed]
    assert not failed, "\n".join(
        f"{r.name}: {r.max_deviation} > {r.tolerance}" for r in failed)


def test_every_check_reports_margin(verify_results):
    for result in verify_results:
        assert result.max_deviation <= result.tolerance
        assert result.name


def test_corrupted_sign_convention_is_caught():
    result = check_twist_current_identity(
        current_builder=corrupted_current_operator)
    assert not result.passed
    assert result.max_deviation > result.tolerance


def test_individual_checks_pass():
    for check in (check_spectrum_vs_diagonalization,
                  check_ground_current_vs_formula,
                  check_hermiticity,
                  check_scaling_identity,
                  check_translation_commutation,
                  check_sector_labels,
                  check_sector_blocks,
                  check_spin_flip,
                  check_twist_degeneracy_crossings,
                  check_screening_bounds,
                  check_plane_wave_floors,
                  check_screened_krylov_sweep,
                  check_screened_search,
                  check_dense_certificates,
                  check_determinism):
        result = check()
        assert result.passed, f"{result.name}: {result.max_deviation}"


def test_halved_drive_slope_is_caught(monkeypatch):
    # Strong drives put lowest levels on slopes near their sector's
    # slopes, so bounds half as steep fail.
    slopes = verify._slopes

    def halved(blocks, ring, control):
        down, up = slopes(blocks, ring, control)
        if isinstance(control, sweep.OmegaGrid):
            return 0.5 * down, 0.5 * up
        return down, up

    monkeypatch.setattr(verify, "_slopes", halved)
    result = check_screening_bounds()
    assert not result.passed
    assert result.max_deviation > 1.0


def test_swapped_interaction_slopes_are_caught(monkeypatch):
    # A sweep's interaction slopes are (max D, 0): a falling u lowers a
    # level, a rising u never does.  Swapped, they let a falling u lower
    # no level, which the seeded pairs of interactions contradict.
    slopes = verify._slopes

    def swapped(blocks, ring, control):
        down, up = slopes(blocks, ring, control)
        if isinstance(control, sweep.InteractionGrid):
            return up, down
        return down, up

    monkeypatch.setattr(verify, "_slopes", swapped)
    result = check_screening_bounds()
    assert not result.passed
    assert result.max_deviation > 1.0


def test_raised_plane_wave_floor_is_caught(monkeypatch):
    floors = verify._plane_wave_floors

    def raised(blocks, n_particles):
        exact = floors(blocks, n_particles)
        return lambda ring, u: exact(ring, u) + 1e-6

    monkeypatch.setattr(verify, "_plane_wave_floors", raised)
    result = check_plane_wave_floors()
    assert not result.passed
    assert result.max_deviation > 0.9e-6


def test_flipped_parity_sign_is_caught(monkeypatch):
    # Blocks built with the sign of the spin flip negated label each half
    # with the other parity: the check's own F finds their states to be
    # eigenvectors of the opposite parity, while [H, F] still vanishes.
    spin_flip = hamiltonian.spin_flip

    def negated(basis):
        perm, sign = spin_flip(basis)
        return perm, -sign

    monkeypatch.setattr(hamiltonian, "spin_flip", negated)
    result = check_spin_flip()
    assert not result.passed
    assert "leave their parity" in result.detail


def test_label_screen_that_skips_ground_blocks_is_caught(monkeypatch):
    # A label screen that reaches only half a unit below the lowest level
    # known skips blocks that hold the ground: the crossings move.  The
    # certificates stay off, so the mutated screen alone decides which
    # blocks go unsolved.
    reach = sweep._reach

    def short(values, degeneracy_tol, tol, levels):
        if levels == 2 or len(values) == 0:
            return reach(values, degeneracy_tol, tol, levels)
        return values[0] - 0.5

    monkeypatch.setattr(sweep, "_reach", short)
    monkeypatch.setattr(sweep, "_certified_above", lambda dense, bound: False)
    result = check_screened_search()
    assert not result.passed
    assert result.max_deviation > 0.1


def test_certificate_with_a_raised_shift_is_caught(monkeypatch):
    # Raising the shift of the factored matrix by 0.5 certifies blocks
    # whose lowest level lies up to half a unit below the bound claimed.
    def raised(dense, bound):
        return _certified_above(dense, bound - 0.5)

    monkeypatch.setattr(sweep, "_certified_above", raised)
    result = check_dense_certificates()
    assert not result.passed
    assert result.max_deviation > 0.1
    assert sweep._certified_above is raised


def test_certificates_that_never_hold_fail_the_check(monkeypatch):
    monkeypatch.setattr(sweep, "_certified_above", lambda dense, bound: False)
    result = check_dense_certificates()
    assert not result.passed
    assert result.detail == "no certificate held"


def test_stage_one_bound_above_the_level_is_caught(monkeypatch):
    # A main run whose theta_1 - r_1 lies 1e-6 above the lowest level, as
    # a loosely converged Ritz vector along the second eigenvector would.
    stages = verify._level_stages

    def raised(*args):
        for values, vectors, residuals, final in stages(*args):
            yield values + 1e-6, vectors, residuals, final

    monkeypatch.setattr(verify, "_level_stages", raised)
    result = check_stage_one_bounds()
    assert not result.passed
    assert result.max_deviation > 0.9e-6
