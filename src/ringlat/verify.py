"""Built-in consistency suite: analytic formulas against exact
diagonalization, operator identities, and reproducibility.

Each check returns its worst observed deviation together with the
tolerance it must stay under, so a report can show the actual margins.
The checks accept an injectable current-operator builder, letting tests
confirm that a deliberately corrupted convention is caught.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import analytic, observables, sweep
from .basis import (
    FermionFockState,
    FockBasis,
    FockState,
    apply_translation,
    enumerate_basis,
    sector_of_state,
    translation_orbits,
)
from .eigen import DEFAULT_OPTIONS, DEGENERACY_TOL, SolverOptions, lowest_k
from .hamiltonian import (
    SectorBlock,
    build_operator,
    hopping_amplitude,
    reflection_rotation,
    sector_blocks,
    spin_flip_rotation,
)
from .model import (
    Bosons,
    Fermions,
    RingSpec,
    SpeciesSpec,
    make_ring,
    particle_count,
)
from .sweep import (
    InteractionGrid,
    OmegaGrid,
    SweepSpec,
    _boundaries,
    _crossings,
    _grid_point,
    _plane_wave_floors,
    _sector_blocks,
    _slopes,
    _system_blocks,
    fast_mode_boundary,
    find_crossings,
    run as run_sweep,
)

_TWIST_STEP = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""


def _result(name: str, deviation: float, tolerance: float,
            detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=deviation <= tolerance,
                       max_deviation=float(deviation), tolerance=tolerance,
                       detail=detail)


def _single_particle_rings(sites: Sequence[int] = (4, 6, 8, 12, 16),
                           omega_k_over_t: Sequence[float] = (0.0, 0.7, 2.9),
                           ) -> list[RingSpec]:
    rings = []
    for n in sites:
        base = make_ring(n)
        for x in omega_k_over_t:
            rings.append(base.with_omega(x * base.t / base.k_factor))
    return rings


def check_spectrum_vs_diagonalization() -> CheckResult:
    """One-particle eigenvalues must match the winding energies."""
    worst = 0.0
    for ring in _single_particle_rings():
        basis = enumerate_basis(ring, Bosons(1))
        op = build_operator(ring, Bosons(1), basis)
        computed = np.sort(np.linalg.eigvalsh(op.to_dense()))
        expected = np.sort([
            analytic.energy(analytic.winding_state(ring, n), ring)
            for n in range(ring.n_sites)])
        worst = max(worst, float(np.max(np.abs(computed - expected))))
    return _result("spectrum_vs_diagonalization", worst, 1e-10)


def check_ground_current_vs_formula() -> CheckResult:
    """One-particle ground currents must match the winding currents."""
    worst = 0.0
    for ring in _single_particle_rings(omega_k_over_t=(0.0, 0.9, 3.3, 7.0)):
        species = Bosons(1)
        basis = enumerate_basis(ring, species)
        op = build_operator(ring, species, basis)
        result = lowest_k(op, 1)
        jop = observables.current_operator(ring, species, basis)
        report = observables.evaluate(jop, result.vectors[:, 0], species,
                                      ring, basis)
        expected = analytic.current(analytic.ground_winding(ring), ring)
        worst = max(worst, abs(report.total_current - expected))
    return _result("ground_current_vs_formula", worst, 1e-9)


def _test_systems() -> list[tuple[RingSpec, SpeciesSpec]]:
    return [
        (make_ring(8, omega=1.7), Bosons(1)),
        (make_ring(6, omega=0.9), Bosons(2, u=3.0)),
        (make_ring(8, omega=2.4), Fermions(1, 1, u=4.0)),
        (make_ring(5, omega=-1.1), Fermions(2, 1, u=-2.5)),
    ]


def _with_rest_doublet() -> list[tuple[RingSpec, SpeciesSpec]]:
    """The test systems plus 2+2 fermions on 8 sites at rest, whose second
    level is a doublet split across two translation sectors."""
    return _test_systems() + [(make_ring(8), Fermions(2, 2, u=4.0))]


def check_scaling_identity() -> CheckResult:
    """The drive must be exactly a uniform Peierls phase:
    H(t, omega*K, u) = |tau| * H_flux(chi, u/|tau|), where
    tau = t + i*omega*K, chi = arg(tau) and H_flux hops with t = 1, no
    drive and a twist of chi on every bond."""
    worst = 0.0
    base = make_ring(6, t=1.3)
    for species in (Fermions(2, 1, u=-2.5), Bosons(3, u=3.0)):
        basis = enumerate_basis(base, species)
        for omega_k_over_t in (0.0, 0.7, -1.9, 6.0):
            ring = base.with_omega(omega_k_over_t * base.t / base.k_factor)
            drive = ring.omega * ring.k_factor
            tau, chi = math.hypot(ring.t, drive), math.atan2(drive, ring.t)
            flux = RingSpec(ring.n_sites, 1.0, ring.k_factor, 0.0)
            driven = build_operator(ring, species, basis).matrix
            twisted = build_operator(flux, replace(species, u=species.u / tau),
                                     basis, twist=chi).matrix
            worst = max(worst, float(abs(driven - tau * twisted).max()))
    return _result("scaling_identity", worst, 1e-12)


def check_twist_current_identity(
    current_builder: Callable = observables.current_operator,
) -> CheckResult:
    """<J> must equal the central-difference twist derivative of <H>."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for ring, species in _test_systems():
        basis = enumerate_basis(ring, species)
        vector = rng.standard_normal(basis.dimension) \
            + 1j * rng.standard_normal(basis.dimension)
        vector /= np.linalg.norm(vector)
        plus = build_operator(ring, species, basis, twist=+_TWIST_STEP)
        minus = build_operator(ring, species, basis, twist=-_TWIST_STEP)
        derivative = (plus.expectation(vector)
                      - minus.expectation(vector)) / (2 * _TWIST_STEP)
        jop = current_builder(ring, species, basis)
        measured = float(np.vdot(vector, jop.apply(vector)).real)
        worst = max(worst, abs(measured - (-derivative)))
    return _result("twist_current_identity", worst, 1e-6)


def check_hermiticity() -> CheckResult:
    """<u|H v> must equal conj(<v|H u>) on random vectors."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for ring, species in _test_systems():
        basis = enumerate_basis(ring, species)
        op = build_operator(ring, species, basis)
        scale = max(1.0, float(np.abs(op.matrix.data).max()))
        for _ in range(3):
            u = rng.standard_normal(basis.dimension) \
                + 1j * rng.standard_normal(basis.dimension)
            v = rng.standard_normal(basis.dimension) \
                + 1j * rng.standard_normal(basis.dimension)
            left = np.vdot(u, op.apply(v))
            right = np.conj(np.vdot(v, op.apply(u)))
            worst = max(worst, abs(left - right) / scale)
    return _result("hermiticity", worst, 1e-12)


def check_translation_commutation() -> CheckResult:
    """The one-site shift must commute with every Hamiltonian."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for ring, species in _test_systems():
        basis = enumerate_basis(ring, species)
        op = build_operator(ring, species, basis)
        scale = max(1.0, float(np.abs(op.matrix.data).max()))
        for _ in range(3):
            v = rng.standard_normal(basis.dimension) \
                + 1j * rng.standard_normal(basis.dimension)
            v /= np.linalg.norm(v)
            defect = (apply_translation(op.apply(v), basis)
                      - op.apply(apply_translation(v, basis)))
            worst = max(worst, float(np.linalg.norm(defect)) / scale)
    return _result("translation_commutation", worst, 1e-12)


def check_sector_labels() -> CheckResult:
    """Single-particle plane waves must label by their winding."""
    ring = make_ring(8, omega=0.6)
    species = Bosons(1)
    basis = enumerate_basis(ring, species)
    mismatches = 0
    for n in range(ring.n_sites):
        vector = np.zeros(basis.dimension, dtype=complex)
        for j in range(ring.n_sites):
            occ = tuple(1 if site == j else 0 for site in range(ring.n_sites))
            vector[basis.index_of(occ)] = np.exp(2j * np.pi * n * j
                                                 / ring.n_sites)
        vector /= np.linalg.norm(vector)
        if sector_of_state(vector, basis) != n:
            mismatches += 1
    return _result("sector_labels", float(mismatches), 0.0,
                   detail=f"{mismatches} plane waves mislabeled")


def check_krylov_vs_dense() -> CheckResult:
    """The ARPACK path must reproduce the dense spectrum and its groups.

    Includes the rest-frame 2+2 fermion doublet, where a plain ARPACK
    call skips one copy of the second level.
    """
    dense = SolverOptions(dense_threshold=2**62)
    krylov = SolverOptions(dense_threshold=1)
    worst, mismatched = 0.0, []
    for ring, species in _with_rest_doublet():
        basis = enumerate_basis(ring, species)
        op = build_operator(ring, species, basis)
        for k in (3, 4):
            reference = lowest_k(op, k, options=dense)
            result = lowest_k(op, k, options=krylov)
            worst = max(worst, float(np.max(np.abs(result.values
                                                   - reference.values))))
            if result.degeneracy_groups != reference.degeneracy_groups:
                mismatched.append(f"{species!r} k={k}")
    if mismatched:
        return _result("krylov_vs_dense", np.inf, 1e-10,
                       detail="degeneracy groups differ: "
                       + ", ".join(mismatched))
    return _result("krylov_vs_dense", worst, 1e-10)


def check_screened_krylov_sweep() -> CheckResult:
    """A screened sweep on the Krylov path, where a block's lock loop runs
    only if its lowest level can reach the ground, must give the rows of
    the dense path: energies and gaps within 1e-10 t, currents within
    1e-9 t, and the same sectors, copies included.

    2+2 fermions on 8 sites at u = 0 and at rest have a ground level
    doubly degenerate inside block 0, whose second copy only the lock
    loop finds; at u = 4 the second level at rest is a doublet across two
    blocks.  The deviation is the worst of the energy and gap deviations
    and a tenth of the current deviation.
    """
    dense = SolverOptions(dense_threshold=2**62)
    krylov = SolverOptions(dense_threshold=1)
    ring = make_ring(8)
    worst, degenerate, problems = 0.0, 0.0, []
    for species, grid in ((Fermions(2, 2, u=0.0), OmegaGrid(0.0, 2.0, 2)),
                          (Fermions(2, 2, u=4.0), OmegaGrid(0.0, 6.0, 2))):
        spec = SweepSpec(ring, species, grid)
        for want, got in zip(run_sweep(spec, options=dense).rows,
                             run_sweep(spec, options=krylov).rows):
            deviation = max(abs(got.ground_energy - want.ground_energy),
                            abs(got.gap - want.gap),
                            0.1 * abs(got.total_current - want.total_current)
                            ) / ring.t
            worst = max(worst, deviation)
            if len(set(want.sectors)) < len(want.sectors):
                degenerate = max(degenerate, deviation)
            if got.sectors != want.sectors:
                problems.append(f"{species!r} at omega {want.omega}: "
                                f"sectors {got.sectors} != {want.sectors}")
    if problems:
        return _result("screened_krylov_sweep", np.inf, 1e-10,
                       detail="; ".join(problems))
    return _result("screened_krylov_sweep", worst, 1e-10,
                   detail=f"in-block doublet {degenerate:.3e}")


def bloch_states(basis: FockBasis, block: SectorBlock) -> np.ndarray:
    """Fock amplitudes of the block's basis states: the Bloch states of
    its representatives (:func:`_bloch_states`) times the sparse W of
    :func:`~ringlat.hamiltonian.reflection_rotation`, or of
    :func:`~ringlat.hamiltonian.spin_flip_rotation` for a spin-flip
    half."""
    orbits = translation_orbits(basis)
    members = block.representatives
    if block.parity is None:
        w = reflection_rotation(basis, orbits, block.q, members)
    else:
        _, w = spin_flip_rotation(basis, orbits, block.q, members,
                                  block.parity)
    return _bloch_states(basis, orbits, block.q, members) @ w.toarray()


def _bloch_states(basis: FockBasis, orbits: tuple[np.ndarray, ...], q: int,
                  members: np.ndarray) -> np.ndarray:
    """Fock amplitudes of the Bloch states
    p^(-1/2) sum_{d<p} exp(+2*pi*i*q*d/N) T^d |r> of ``members`` r (p the
    period of the orbit of r), built here from the translation orbits."""
    orbit, steps, signs, period, _ = orbits
    inside = np.flatnonzero(np.isin(orbit, members))
    states = np.zeros((basis.dimension, len(members)), dtype=complex)
    states[inside, np.searchsorted(members, orbit[inside])] = (
        signs[inside] / np.sqrt(period[inside]) * np.exp(
            -2j * math.pi * q * steps[inside] / basis.n_sites))
    return states


def _reflected(state: FockState, n_sites: int) -> tuple[FockState, int]:
    """R|state> for the site reflection j -> -j (mod N), as (state, sign).

    A fermion sign is the parity of sorting each spin's reflected creation
    operators back into ascending site order.
    """
    if isinstance(state, FermionFockState):
        sign, masks = 1, []
        for mask in state:
            sites = [-j % n_sites for j in range(n_sites) if (mask >> j) & 1]
            sign *= (-1) ** sum(a > b for k, a in enumerate(sites)
                                for b in sites[k + 1:])
            masks.append(sum(1 << j for j in sites))
        return FermionFockState(*masks), sign
    return tuple(state[-j % n_sites] for j in range(n_sites)), 1


def check_sector_blocks() -> CheckResult:
    """The translation-sector blocks must cover the basis, hold states of
    their own sector that the reflection times complex conjugation leaves
    fixed, be real and exactly symmetric, equal H in those states and
    together hold the dense spectrum."""
    worst, problems = 0.0, []
    # 4+2 fermions on 6 sites have orbits whose closing sign is -1.
    systems = _with_rest_doublet() + [(make_ring(6, omega=1.3),
                                       Fermions(4, 2, u=1.5))]
    for ring, species in systems:
        basis = enumerate_basis(ring, species)
        blocks = sector_blocks(basis)
        amp, u = hopping_amplitude(ring), getattr(species, "u", 0.0)
        matrices = [block.operator(amp, u).matrix for block in blocks]
        problems.extend(
            f"{species!r}: block q={block.q}, parity={block.parity} is not "
            f"real and exactly symmetric"
            for block, matrix in zip(blocks, matrices)
            if matrix.dtype != np.float64 or (matrix != matrix.T).nnz)
        spectra = np.sort(np.concatenate(
            [np.linalg.eigvalsh(matrix.toarray()) for matrix in matrices]))
        if len(spectra) != basis.dimension:
            problems.append(f"{species!r}: blocks hold {len(spectra)} of "
                            f"{basis.dimension} states")
            continue
        dense = build_operator(ring, species, basis).to_dense()
        worst = max(worst, float(np.max(np.abs(
            spectra - np.linalg.eigvalsh(dense)))))
        mirror = [_reflected(state, ring.n_sites) for state in basis.states]
        targets = [basis.index_of(state) for state, _ in mirror]
        signs = np.array([sign for _, sign in mirror], dtype=float)
        for block, matrix in zip(blocks, matrices):
            states = bloch_states(basis, block)
            # The block must be H in its basis, not only isospectral.
            worst = max(worst, float(np.max(np.abs(
                states.conj().T @ dense @ states - matrix.toarray()))))
            reflected = np.empty_like(states)
            reflected[targets] = signs[:, None] * states.conj()
            worst = max(worst, float(np.max(np.abs(reflected - states))))
            problems.extend(
                f"{species!r}: a state of block q={block.q}, "
                f"parity={block.parity} has sector {label}"
                for label in {sector_of_state(v, basis) for v in states.T}
                if label != block.q)
    if problems:
        return _result("sector_blocks", np.inf, 1e-10,
                       detail="; ".join(problems))
    return _result("sector_blocks", worst, 1e-10)


def _flipped(state: FermionFockState) -> tuple[FermionFockState, int]:
    """F|state> for the spin flip, as (state, sign): each creation
    operator changes spin in place, and the sign is the parity of sorting
    them back into the order up before down, by ascending site."""
    up, down = ([j for j in range(mask.bit_length()) if (mask >> j) & 1]
                for mask in state)
    # Keys (spin, site) with up = 0: the flipped up operators come first.
    keys = [(1, j) for j in up] + [(0, j) for j in down]
    inversions = sum(a > b for k, a in enumerate(keys) for b in keys[k + 1:])
    return FermionFockState(state.down_mask, state.up_mask), (-1) ** inversions


def check_spin_flip() -> CheckResult:
    """With n_up = n_down each sector comes as two blocks, the halves of
    spin-flip parity +1 and -1.  On every such test system, [H, F] must
    vanish on each half's states, for the spin flip F built here from the
    Fock states; its largest entry is the check's deviation.  Each half's
    states must also be eigenvectors of F with its parity, each half must
    carry one plane-wave line per state, and the two halves of a sector
    must together hold the spectrum of the whole sector, built on its
    Bloch states in the W of
    :func:`~ringlat.hamiltonian.reflection_rotation`, each within 1e-10.
    """
    tol = 1e-10
    commutator = parity = spectra = 0.0
    problems = []
    for ring, species in _with_rest_doublet():
        if not (isinstance(species, Fermions)
                and species.n_up == species.n_down):
            continue
        basis = enumerate_basis(ring, species)
        dense = build_operator(ring, species, basis).to_dense()
        amp = hopping_amplitude(ring)
        flips = [_flipped(state) for state in basis.states]
        targets = [basis.index_of(state) for state, _ in flips]
        signs = np.array([sign for _, sign in flips], dtype=float)

        def flip(states: np.ndarray) -> np.ndarray:
            out = np.empty_like(states)
            out[targets] = signs[:, None] * states
            return out

        orbits = translation_orbits(basis)
        halves: dict[int, list[SectorBlock]] = {}
        for block in sector_blocks(basis):
            halves.setdefault(block.q, []).append(block)
            if block.parity is None or len(block.lines_t) != block.dimension:
                problems.append(f"{species!r}: block q={block.q}, "
                                f"parity={block.parity} is no spin-flip "
                                f"half with a line per state")
                continue
            states = bloch_states(basis, block)
            parity = max(parity, float(np.max(np.abs(
                flip(states) - block.parity * states))))
            commutator = max(commutator, float(np.max(np.abs(
                flip(dense @ states) - dense @ flip(states)))))
        for q, pair in halves.items():
            members = np.unique(np.concatenate(
                [block.representatives for block in pair]))
            states = _bloch_states(basis, orbits, q, members) @ (
                reflection_rotation(basis, orbits, q, members).toarray())
            whole = np.linalg.eigvalsh(states.conj().T @ dense @ states)
            split = np.sort(np.concatenate([np.linalg.eigvalsh(
                block.operator(amp, species.u).to_dense()) for block in pair]))
            if len(split) != len(whole):
                problems.append(f"{species!r}: the halves of sector {q} hold "
                                f"{len(split)} of {len(whole)} states")
                continue
            spectra = max(spectra, float(np.max(np.abs(split - whole))))
    if parity > tol:
        problems.append(f"half states leave their parity by {parity:.3e}")
    if spectra > tol:
        problems.append(f"halves miss their sector's spectrum by "
                        f"{spectra:.3e}")
    if problems:
        return _result("spin_flip", np.inf, tol, detail="; ".join(problems))
    return _result("spin_flip", commutator, tol,
                   detail=f"parity {parity:.3e}, spectra {spectra:.3e}")


def check_twist_degeneracy_crossings() -> CheckResult:
    """Ground crossings pinned by symmetry must be found where they are.

    At omega*K/t = tan(m*pi/N) every bond carries a twist of m*pi/N, where
    sectors q and m*N_p - q (mod N) are exactly degenerate for any u, so
    these crossings lie at omega = t*tan(m*pi/N)/K.
    """
    ring, tol = make_ring(8), 1e-8
    worst, problems = 0.0, []
    for species, windings in ((Bosons(3, u=7.0), (1, 3)),
                              (Fermions(2, 1, u=-3.0), (1, 2, 3))):
        found = find_crossings(SweepSpec(
            ring, species, OmegaGrid(0.0, 8.0, 17), bisection_tol=tol))
        expected = [ring.t * math.tan(m * math.pi / ring.n_sites)
                    / ring.k_factor for m in windings]
        if len(found) != len(expected):
            problems.append(f"{species!r}: {len(found)} crossings, "
                            f"expected {len(expected)}")
            continue
        worst = max(worst, *(abs(f - e) for f, e in zip(found, expected)))
    if problems:
        return _result("twist_degeneracy_crossings", np.inf, tol,
                       detail="; ".join(problems))
    return _result("twist_degeneracy_crossings", worst, tol)


def _lowest(blocks, ring: RingSpec, u: float) -> np.ndarray:
    """Each block's lowest level by dense eigh, in block order."""
    amp = hopping_amplitude(ring)
    return np.array([np.linalg.eigvalsh(block.operator(amp, u).to_dense())[0]
                     for block in blocks])


def check_screening_bounds() -> CheckResult:
    """The bounds that let a sweep skip a sector block must hold.

    At seeded random pairs of controls, every block's lowest level
    theta_1 (dense eigh) must lie above its plane-wave floor F_q
    (:func:`~ringlat.sweep._plane_wave_floors`) at both controls, and obey
    the Weyl step in the drive, theta_1(w) >= theta_1(w0) - (w0 - w) *
    down - (w - w0) * up (positive parts only), and in the interaction
    likewise, with the slopes that a sweep over that control uses
    (:func:`~ringlat.sweep._slopes`).  Drives up to omega*K/t = 20 put
    lowest levels on slopes near the sector's slopes.  The deviation is
    minus the smallest slack, so the margin is that slack.
    """
    rng = np.random.default_rng(14)
    slack = math.inf
    for ring, species in _test_systems():
        blocks = sector_blocks(enumerate_basis(ring, species))
        u = getattr(species, "u", 0.0)
        floors = _plane_wave_floors(blocks, particle_count(species))
        span = 20.0 * ring.t / ring.k_factor
        down, up = _slopes(blocks, ring, OmegaGrid(-span, span, 2))
        for low, high in ((-3.0, 3.0), (10.0, 20.0), (-20.0, -10.0)):
            w0, w = rng.uniform(low, high, 2) * ring.t / ring.k_factor
            before = _lowest(blocks, ring.with_omega(w0), u)
            after = _lowest(blocks, ring.with_omega(w), u)
            step = max(w0 - w, 0.0) * down + max(w - w0, 0.0) * up
            slack = min(slack, float(np.min(after - (before - step))),
                        float(np.min(before - floors(ring.with_omega(w0), u))),
                        float(np.min(after - floors(ring.with_omega(w), u))))
        down, up = _slopes(blocks, ring,
                           InteractionGrid(-10.0, 10.0, 2, omega=ring.omega))
        for _ in range(3):
            u0, u1 = rng.uniform(-10.0, 10.0, 2)
            before = _lowest(blocks, ring, u0)
            after = _lowest(blocks, ring, u1)
            step = max(u0 - u1, 0.0) * down + max(u1 - u0, 0.0) * up
            slack = min(slack, float(np.min(after - (before - step))),
                        float(np.min(before - floors(ring, u0))),
                        float(np.min(after - floors(ring, u1))))
    return _result("screening_bounds", -slack, 1e-10,
                   detail=f"smallest slack {slack:.3e}")


def check_plane_wave_floors() -> CheckResult:
    """Without interaction each sector block is diagonal in its plane-wave
    configurations, so its lowest level must equal its plane-wave floor
    F_q (:func:`~ringlat.sweep._plane_wave_floors`) within 1e-10 t, and
    each block must carry one plane-wave line per state."""
    worst, problems = 0.0, []
    for ring, species in _with_rest_doublet():
        blocks = sector_blocks(enumerate_basis(ring, species))
        problems.extend(
            f"{species!r}: block q={block.q}, parity={block.parity} has "
            f"{len(block.lines_t)} lines for {block.dimension} states"
            for block in blocks
            if not (len(block.lines_t) == len(block.lines_drive)
                    == block.dimension))
        floors = _plane_wave_floors(blocks, particle_count(species))
        for x in (0.0, 0.7, -2.9, 20.0):
            free = ring.with_omega(x * ring.t / ring.k_factor)
            worst = max(worst, float(np.max(np.abs(
                _lowest(blocks, free, 0.0) - floors(free, 0.0)))) / ring.t)
    if problems:
        return _result("plane_wave_floors", np.inf, 1e-10,
                       detail="; ".join(problems))
    return _result("plane_wave_floors", worst, 1e-10)


def _every_block_roots(search, spec: SweepSpec) -> tuple[tuple, int]:
    """The roots of ``search`` (:func:`~ringlat.sweep._crossings` or
    :func:`~ringlat.sweep._boundaries`) on ``spec`` with every block
    solved in full at every solve, and the number of block solves."""
    tally = Counter()
    solve, row, _ = _grid_point(spec, 1, 1e-10, DEGENERACY_TOL,
                                DEFAULT_OPTIONS, search, tally)
    every = range(len(_sector_blocks(spec, 1)))

    def solve_all(value, among=None, known=None, levels=2):
        return solve(value, every if among is None else among, known)

    points = ((value, solve_all(value), None)
              for value in map(float, spec.control.values()))
    roots = search(spec, (solve_all, row, None), DEGENERACY_TOL, points)
    return roots, tally["solved"]


def _refine_searches() -> list[tuple[Callable, Callable, SweepSpec]]:
    """The searches of the refine benchmark, as (public entry point,
    search, spec): crossings of 4 bosons on 8 sites, and fast-mode
    boundaries of 2+2 fermions on 8 sites at omega*K/t = 10 below and
    above zero interaction."""
    ring = make_ring(8)
    omega = 10.0 * ring.t / ring.k_factor
    searches = [(find_crossings, _crossings, SweepSpec(
        ring, Bosons(4, u=1.0), OmegaGrid(0.0, 8.0, 41), 1e-7))]
    searches += [(fast_mode_boundary, _boundaries, SweepSpec(
        ring, Fermions(2, 2), InteractionGrid(lo, hi, points, omega=omega),
        0.02)) for lo, hi, points in ((-23.0, -15.0, 3), (50.0, 60.0, 2))]
    return searches


def check_screened_search() -> CheckResult:
    """A search screens its solves against the ground multiplet alone,
    since its labels read nothing else: each skips every block whose
    lowest level cannot join the ground multiplet, including those that
    could hold only the second level.  Its roots must equal those of the
    same search with every block solved in full at every solve, on the
    searches of the refine benchmark (:func:`_refine_searches`).  The
    deviation is the largest distance between matching roots; a different
    number of roots, or a different sign, fails."""
    worst, problems, roots, solves = 0.0, [], 0, 0
    for public, search, spec in _refine_searches():
        screened = public(spec)
        full, every = _every_block_roots(search, spec)
        roots, solves = roots + len(full), solves + every
        if len(screened) != len(full):
            problems.append(f"{spec.species!r}: {len(screened)} roots, "
                            f"{len(full)} solving every block")
            continue
        for got, want in zip(screened, full):
            if search is _boundaries:
                if (got.sign_below, got.sign_above) != (want.sign_below,
                                                        want.sign_above):
                    problems.append(f"{spec.species!r}: signs of {got} and "
                                    f"{want} differ")
                got, want = got.u_star, want.u_star
            worst = max(worst, abs(got - want))
    if problems:
        return _result("screened_search", np.inf, 0.0,
                       detail="; ".join(problems))
    return _result("screened_search", worst, 0.0,
                   detail=f"{roots} roots; solving every block took "
                          f"{solves} block solves")


def check_dense_certificates() -> CheckResult:
    """Every dense block that a scan leaves unsolved on a Cholesky
    certificate (:func:`~ringlat.eigen._certified_above`) must have its
    lowest level theta_1 above the bound certified.  The scans are the
    41-point sweep of 2+2 fermions on 8 sites at u = 4 over omega*K/t
    from 0 to 40, and the searches of the refine benchmark
    (:func:`_refine_searches`).  Each certified block is solved in full
    (dense eigh).  The deviation is minus the smallest margin theta_1 -
    bound, so the margin is that slack; a run in which no certificate held
    fails.  The check records through whatever certificate the scans call
    (``sweep._certified_above``).
    """
    margins = []

    def recorded(dense: np.ndarray, bound: float) -> bool:
        held = certify(dense, bound)
        if held:
            margins.append(float(np.linalg.eigvalsh(dense)[0]) - bound)
        return held

    scans = [(run_sweep, SweepSpec(make_ring(8), Fermions(2, 2, u=4.0),
                                   OmegaGrid(0.0, 40.0, 41)))]
    scans += [(public, spec) for public, _, spec in _refine_searches()]
    certify, sweep._certified_above = sweep._certified_above, recorded
    try:
        for scan, spec in scans:
            scan(spec)
    finally:
        sweep._certified_above = certify
    if not margins:
        return _result("dense_certificates", np.inf, 0.0,
                       detail="no certificate held")
    slack = min(margins)
    return _result("dense_certificates", -slack, 0.0,
                   detail=f"{len(margins)} certificates, smallest margin "
                          f"{slack:.3e}")


def check_determinism() -> CheckResult:
    """The same sweep spec must reproduce identical rows on both solver
    paths when run twice: once building its sector blocks, once reusing
    the blocks that the sweep keeps."""
    specs = (
        (SweepSpec(ring=make_ring(8), species=Fermions(1, 1, u=2.0),
                   control=OmegaGrid(0.0, 6.0, 7)), SolverOptions()),
        # Sector blocks of up to 100 states, pushed onto the ARPACK path.
        (SweepSpec(ring=make_ring(8), species=Fermions(2, 2, u=4.0),
                   control=OmegaGrid(0.0, 6.0, 3)),
         SolverOptions(dense_threshold=20)),
    )
    differing = []
    for spec, options in specs:
        _system_blocks.cache_clear()
        if (run_sweep(spec, options=options).rows
                != run_sweep(spec, options=options).rows):
            differing.append(repr(spec.species))
    return _result("determinism", float(len(differing)), 0.0,
                   detail="" if not differing else
                   "rows differ between runs: " + ", ".join(differing))


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_spectrum_vs_diagonalization,
    check_ground_current_vs_formula,
    check_scaling_identity,
    check_twist_current_identity,
    check_hermiticity,
    check_translation_commutation,
    check_sector_labels,
    check_krylov_vs_dense,
    check_screened_krylov_sweep,
    check_sector_blocks,
    check_spin_flip,
    check_twist_degeneracy_crossings,
    check_screening_bounds,
    check_plane_wave_floors,
    check_screened_search,
    check_dense_certificates,
    check_determinism,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
