"""Acceptance suite: one test per criterion, one printed line per check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 7 is split into parts (a) through (d).  Part (a) passes; parts
(b) through (d) assert sign structure inside the interaction window
u in [-12t, +12t] at drive strengths omega*K/t in {6, 8, 10}, where this
model's half-filled current simply never changes sign (the real
boundaries sit near u = -19t and u = +46t..+73t, see the addendum test,
which demonstrates the claimed physics at the scales where it actually
happens).  Those parts are implemented exactly as stated and fail
honestly rather than being loosened to pass.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from ringlat import (
    Bosons,
    ContinuumSpec,
    Fermions,
    InteractionGrid,
    OmegaGrid,
    SweepSpec,
    build_operator,
    continuum_spectrum,
    current,
    current_operator,
    energy,
    enumerate_basis,
    evaluate,
    fast_mode_boundary,
    find_crossings,
    ground_state,
    ground_winding,
    lowest_k,
    make_ring,
    meanfield_energy_per_particle,
    polarized_current,
    run,
    winding_state,
)

SQRT2 = math.sqrt(2.0)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


def omega_for(ring, x: float) -> float:
    return x * ring.t / ring.k_factor


def ground_current(ring, species, basis=None):
    basis = basis or enumerate_basis(ring, species)
    op = build_operator(ring, species, basis)
    gs = ground_state(op)
    jop = current_operator(ring, species, basis)
    reports = [evaluate(jop, gs.vectors[:, i], species, ring, basis)
               for i in range(gs.vectors.shape[1])]
    return float(np.mean([r.total_current for r in reports]))


def test_c01_single_particle_oracle_equivalence():
    """Dense eigenvalues vs E(n) to 1e-10*t; ground currents to 1e-9*t."""
    worst_energy = 0.0
    worst_current = 0.0
    species = Bosons(1)
    for n_sites in (4, 6, 8, 12, 16):
        base = make_ring(n_sites)
        basis = enumerate_basis(base, species)
        for omega in np.linspace(0.0, omega_for(base, 3.0), 50):
            ring = base.with_omega(float(omega))
            op = build_operator(ring, species, basis)
            values = lowest_k(op, n_sites).values
            expected = np.sort([energy(winding_state(ring, n), ring)
                                for n in range(n_sites)])
            worst_energy = max(worst_energy,
                               float(np.max(np.abs(values - expected))))
            got = ground_current(ring, species, basis)
            want = current(ground_winding(ring), ring)
            worst_current = max(worst_current, abs(got - want))
    report("C1", worst_energy <= 1e-10 and worst_current <= 1e-9,
           f"max energy dev {worst_energy:.2e} (tol 1e-10), "
           f"max current dev {worst_current:.2e} (tol 1e-9)")


def test_c02_fast_mode_threshold_detection():
    """Last ground-state crossing matches the closed form within 1e-6."""
    devs = []
    for n_sites in (4, 8):
        ring = make_ring(n_sites)
        alpha = 2.0 * math.pi / n_sites
        expected = ring.t * math.sin(alpha) / (ring.k_factor
                                               * (1.0 - math.cos(alpha)))
        spec = SweepSpec(ring=ring, species=Bosons(1),
                         control=OmegaGrid(0.0, omega_for(ring, 3.0), 61),
                         bisection_tol=1e-7)
        crossings = find_crossings(spec)
        devs.append(abs(crossings[-1] - expected))
    report("C2", all(d < 1e-6 for d in devs),
           f"threshold deviations N=4: {devs[0]:.2e}, N=8: {devs[1]:.2e} "
           f"(tol 1e-6)")


def test_c03_current_saturation_above_threshold():
    """Ground current pins to 2t over the whole fast window."""
    base = make_ring(8)
    species = Bosons(1)
    basis = enumerate_basis(base, species)
    worst = 0.0
    for x in np.linspace(2.42, 10.0, 48):
        ring = base.with_omega(omega_for(base, float(x)))
        worst = max(worst, abs(ground_current(ring, species, basis)
                               - 2.0 * ring.t))
    report("C3", worst <= 1e-9,
           f"max |J - 2t| = {worst:.2e} over omegaK/t in (1+sqrt2, 10] "
           f"(tol 1e-9)")


def test_c04_continuum_levels_pair_at_half_integer_drive():
    """E(k+l+1) equals E(k-l) exactly when m*omega*R^2 = k + 1/2."""
    exact = True
    for k in (0, 1, 2):
        spec = ContinuumSpec(mass=1.0, radius=1.0, omega=k + 0.5)
        for l in (0, 1, 2):
            exact &= (continuum_spectrum(k + l + 1, spec)
                      == continuum_spectrum(k - l, spec))
    report("C4", exact, "pairing exact for k, l in {0, 1, 2}")


def test_c05_two_fermion_currents():
    """Per-fermion current near 2t at strong drive; exact reduction at
    zero interaction."""
    base = make_ring(8)
    strong = base.with_omega(omega_for(base, 10.0))
    basis = enumerate_basis(strong, Fermions(1, 1))
    worst_rel = 0.0
    for u in (-8.0, -2.0, 0.0, 2.0, 8.0):
        species = Fermions(1, 1, u=u)
        per = ground_current(strong, species, basis) / 2.0
        worst_rel = max(worst_rel, abs(per - 2.0 * strong.t) / (2.0 * strong.t))
    spec = SweepSpec(ring=base, species=Fermions(1, 1, u=0.0),
                     control=OmegaGrid(0.0, omega_for(base, 10.0), 51))
    rows = run(spec).rows
    worst_trace = 0.0
    for row in rows:
        ring = base.with_omega(row.omega)
        want = current(ground_winding(ring), ring)
        worst_trace = max(worst_trace, abs(row.per_particle_current - want))
    report("C5", worst_rel <= 0.05 and worst_trace <= 1e-8,
           f"max relative deviation from 2t: {worst_rel:.3%} (tol 5%), "
           f"max u=0 trace deviation {worst_trace:.2e} (tol 1e-8)")


def test_c06_polarized_currents_at_strong_drive():
    """Three identical fermions run fast, two run slow."""
    base = make_ring(8)
    ring = base.with_omega(omega_for(base, 10.0))
    three = polarized_current(3, ring)
    two = polarized_current(2, ring)
    expected_three = 2.0 * (1.0 + SQRT2) * ring.t
    report("C6",
           abs(three - expected_three) <= 1e-9 and three > 0 and two < 0,
           f"N=3 current {three:.9f} vs 2t(1+sqrt2) = {expected_three:.9f} "
           f"(tol 1e-9); N=2 current {two:.3f} < 0")


@pytest.fixture(scope="module")
def four_fermion_scan():
    """Shared interaction scans for criterion 7: currents at the window
    edges and sign-change points inside [-12, +12]t."""
    base = make_ring(8)
    scans = {}
    for x in (6.0, 8.0, 10.0):
        omega = omega_for(base, x)
        ring = base.with_omega(omega)
        basis = enumerate_basis(ring, Fermions(2, 2))
        edges = {u: ground_current(ring, Fermions(2, 2, u=u), basis) / 4.0
                 for u in (-12.0, 12.0)}
        spec = SweepSpec(ring=base, species=Fermions(2, 2),
                         control=InteractionGrid(-12.0, 12.0, 13, omega=omega),
                         bisection_tol=1e-2)
        boundaries = fast_mode_boundary(spec)
        scans[x] = (edges, boundaries)
    return scans


def test_c07a_four_fermion_free_current(four_fermion_scan):
    """u = 0 current equals the independent-particle sum and is negative."""
    base = make_ring(8)
    worst = 0.0
    all_negative = True
    for x in (6.0, 8.0, 10.0):
        ring = base.with_omega(omega_for(base, x))
        per = ground_current(ring, Fermions(2, 2, u=0.0)) / 4.0
        want = ((2.0 + SQRT2) * ring.t - SQRT2 * x * ring.t) / 2.0
        worst = max(worst, abs(per - want))
        all_negative &= per < 0
    report("C7a", worst <= 1e-8 and all_negative,
           f"max deviation from ((2+sqrt2)t - sqrt2*omegaK)/2: {worst:.2e} "
           f"(tol 1e-8), all negative: {all_negative}")


def test_c07b_positive_current_at_window_edges(four_fermion_scan):
    """States at u = -12t and u = +12t are claimed fast (positive)."""
    edge_values = {x: four_fermion_scan[x][0] for x in (6.0, 8.0, 10.0)}
    passed = all(edges[-12.0] > 0 and edges[12.0] > 0
                 for edges in edge_values.values())
    detail = "; ".join(
        f"omegaK/t={x}: J({u:+.0f}t)/4 = {edge_values[x][u]:+.3f}"
        for x in (6.0, 8.0, 10.0) for u in (-12.0, 12.0))
    report("C7b", passed, detail)


def test_c07c_two_sign_changes_in_window(four_fermion_scan):
    """Exactly two current sign changes claimed inside [-12t, +12t]."""
    counts = {x: len(four_fermion_scan[x][1]) for x in (6.0, 8.0, 10.0)}
    report("C7c", all(c == 2 for c in counts.values()),
           f"sign changes found in [-12t, 12t]: {counts}")


def test_c07d_attractive_spread_smaller_than_repulsive(four_fermion_scan):
    """Attractive boundary drifts less with drive than the repulsive one."""
    attractive, repulsive = [], []
    for x in (6.0, 8.0, 10.0):
        for point in four_fermion_scan[x][1]:
            (attractive if point.u_star < 0 else repulsive).append(point.u_star)
    complete = len(attractive) == 3 and len(repulsive) == 3
    if complete:
        spread_a = max(attractive) - min(attractive)
        spread_r = max(repulsive) - min(repulsive)
        report("C7d", spread_a < spread_r,
               f"attractive spread {spread_a:.3f} vs repulsive {spread_r:.3f}")
    else:
        report("C7d", False,
               f"boundaries missing inside the stated window: "
               f"{len(attractive)} attractive, {len(repulsive)} repulsive "
               f"of 3 each")


def test_c07_addendum_boundaries_at_their_actual_scales():
    """The claimed sign structure does exist, at larger interactions.

    Demonstrates both boundaries and the spread ordering at drive
    strengths omega*K/t in {8, 10, 12} with windows wide enough to hold
    them; this is the model's genuine version of the stated criterion.
    """
    base = make_ring(8)
    windows = {8.0: (68.0, 78.0), 10.0: (50.0, 60.0), 12.0: (42.0, 50.0)}
    attractive, repulsive = {}, {}
    for x, (rep_lo, rep_hi) in windows.items():
        omega = omega_for(base, x)
        attr = fast_mode_boundary(SweepSpec(
            ring=base, species=Fermions(2, 2),
            control=InteractionGrid(-23.0, -15.0, 3, omega=omega),
            bisection_tol=0.02))
        rep = fast_mode_boundary(SweepSpec(
            ring=base, species=Fermions(2, 2),
            control=InteractionGrid(rep_lo, rep_hi, 2, omega=omega),
            bisection_tol=0.02))
        assert len(attr) == 1 and len(rep) == 1, (x, attr, rep)
        assert attr[0].sign_below == 1 and attr[0].sign_above == -1
        assert rep[0].sign_below == -1 and rep[0].sign_above == 1
        attractive[x] = attr[0].u_star
        repulsive[x] = rep[0].u_star
    spread_a = max(attractive.values()) - min(attractive.values())
    spread_r = max(repulsive.values()) - min(repulsive.values())
    repulsive_sorted = sorted(repulsive.items())
    decreasing = all(a[1] > b[1] for a, b in zip(repulsive_sorted,
                                                 repulsive_sorted[1:]))
    print(f"\nACCEPTANCE C7-addendum PASS: attractive boundaries "
          f"{ {x: round(u, 2) for x, u in attractive.items()} } "
          f"(spread {spread_a:.2f}), repulsive "
          f"{ {x: round(u, 2) for x, u in repulsive.items()} } "
          f"(spread {spread_r:.2f}), repulsive decreases with drive: "
          f"{decreasing}")
    assert spread_a < spread_r
    assert decreasing


def test_c08_meanfield_argmin_invariance():
    """Interaction shift never moves the minimizing winding."""
    base = make_ring(8)
    triples = list(itertools.product((0.5, 1.5, 3.0, 7.0, 11.0),
                                     (3.0, 10.0), (0.5, 2.0)))
    assert len(triples) == 20
    moved = 0
    for x, u, density in triples:
        ring = base.with_omega(omega_for(base, x))
        states = [winding_state(ring, n) for n in range(8)]
        free = min(states, key=lambda s: (energy(s, ring), s.n))
        dressed = min(states, key=lambda s: (
            meanfield_energy_per_particle(s, ring, density, u), s.n))
        moved += free.n != dressed.n
    report("C8", moved == 0,
           f"argmin moved in {moved} of 20 (omega, u, density) triples")


def test_c09_structural_invariants(verify_results):
    """Operator identities and reproducibility, with reported margins."""
    results = verify_results
    for result in results:
        print(f"  {'ok' if result.passed else 'BAD'} {result.name}: "
              f"{result.max_deviation:.2e} <= {result.tolerance:.1e}")
    failed = [r.name for r in results if not r.passed]
    report("C9", not failed,
           f"{len(results)} structural checks, failures: {failed or 'none'}")


def test_c10_docs_state_property_based_acceptance():
    """The docs must say the many-body curves are checked by properties,
    not by matching published figure values."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    report("C10", "not value-reproducible" in text and "property" in text,
           "README documents property-based acceptance for the many-body "
           "current curves")
