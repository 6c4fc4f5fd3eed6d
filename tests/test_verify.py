from ringlat.hamiltonian import hopping_operator
from ringlat.verify import (
    check_determinism,
    check_ground_current_vs_formula,
    check_hermiticity,
    check_sector_labels,
    check_spectrum_vs_diagonalization,
    check_translation_commutation,
    check_twist_current_identity,
    run_all,
)


def corrupted_current_operator(ring, species, basis):
    """Current with the drive term's sign flipped: a wrong convention."""
    return hopping_operator(basis, 1j * ring.t + ring.omega * ring.k_factor)


def test_all_checks_pass():
    results = run_all()
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(
        f"{r.name}: {r.max_deviation} > {r.tolerance}" for r in failed)


def test_every_check_reports_margin():
    for result in run_all():
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
                  check_translation_commutation,
                  check_sector_labels,
                  check_determinism):
        result = check()
        assert result.passed, f"{result.name}: {result.max_deviation}"
