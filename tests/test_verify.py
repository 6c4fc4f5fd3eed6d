from ringlat import hamiltonian, sweep, verify
from ringlat.hamiltonian import hopping_operator
from ringlat.verify import (
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
                  check_determinism):
        result = check()
        assert result.passed, f"{result.name}: {result.max_deviation}"


def test_halved_drive_slope_is_caught(monkeypatch):
    # Strong drives put lowest levels on slopes near their sector's
    # slopes, so bounds half as steep fail.
    slopes = verify._drive_slopes

    def halved(blocks, ring):
        return {q: (0.5 * down, 0.5 * up)
                for q, (down, up) in slopes(blocks, ring).items()}

    monkeypatch.setattr(verify, "_drive_slopes", halved)
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
    # known skips blocks that hold the ground: the crossings move.
    reach = sweep._reach

    def short(values, degeneracy_tol, tol, levels):
        if levels == 2 or len(values) == 0:
            return reach(values, degeneracy_tol, tol, levels)
        return values[0] - 0.5

    monkeypatch.setattr(sweep, "_reach", short)
    result = check_screened_search()
    assert not result.passed
    assert result.max_deviation > 0.1
