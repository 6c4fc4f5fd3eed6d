"""Independent reference implementations used as test oracles.

Everything here is built directly from first principles (dense matrices,
finite differences, golden-section searches) without touching the package
internals, so agreement between the two is meaningful.
"""

import math

import numpy as np


def one_particle_matrix(n_sites: int, t: float, omega: float, k: float,
                        twist: float = 0.0) -> np.ndarray:
    """Dense one-particle ring Hamiltonian, assembled bond by bond."""
    amp = (-t - 1j * omega * k) * np.exp(1j * twist)
    h = np.zeros((n_sites, n_sites), dtype=complex)
    for j in range(n_sites):
        jp = (j + 1) % n_sites
        h[jp, j] += amp
        h[j, jp] += np.conj(amp)
    return h


def _fermion_hop(mask: int, dst: int, src: int):
    """c+_dst c_src on one spin's bit mask: (new mask, sign) or None.

    The sign counts occupied sites below each touched position, for
    creation operators sorted by ascending site within a spin.
    """
    if not (mask >> src) & 1:
        return None
    sign = -1 if bin(mask & ((1 << src) - 1)).count("1") & 1 else 1
    mask ^= 1 << src
    if (mask >> dst) & 1:
        return None
    if bin(mask & ((1 << dst) - 1)).count("1") & 1:
        sign = -sign
    return mask | (1 << dst), sign


def _hops_from(state, n_sites: int, forward: bool):
    """(new state, factor) for every hop c+_{j+1} c_j out of a state, or
    every hop c+_j c_{j+1} when ``forward`` is false.

    Boson states are occupation tuples; fermion states are (up, down)
    mask pairs exposing ``up_mask``.
    """
    for j in range(n_sites):
        jp = (j + 1) % n_sites
        src, dst = (j, jp) if forward else (jp, j)
        if not hasattr(state, "up_mask"):
            if state[src]:
                moved = list(state)
                moved[src] -= 1
                moved[dst] += 1
                yield tuple(moved), np.sqrt(state[src] * (state[dst] + 1))
            continue
        for spin in (0, 1):
            hop = _fermion_hop(state[spin], dst, src)
            if hop is not None:
                moved = list(state)
                moved[spin] = hop[0]
                yield type(state)(*moved), hop[1]


def dense_ring_bilinear(basis, n_sites: int, forward_amplitude: complex,
                        u: float = 0.0) -> np.ndarray:
    """Dense sum over bonds of (amp * hop_forward + h.c.), walking every
    Fock state, plus u times the contact interaction on the diagonal.

    Reads only ``basis.states`` and ``basis.index_of``.  The interaction
    is u * sum n (n - 1) for bosons and u per doubly occupied site for
    fermions.
    """
    dim = len(basis.states)
    matrix = np.zeros((dim, dim), dtype=complex)
    amp = complex(forward_amplitude)
    for col, state in enumerate(basis.states):
        for forward, coefficient in ((True, amp), (False, np.conj(amp))):
            for moved, factor in _hops_from(state, n_sites, forward):
                matrix[basis.index_of(moved), col] += coefficient * factor
        if hasattr(state, "up_mask"):
            contact = bin(state.up_mask & state.down_mask).count("1")
        else:
            contact = sum(m * (m - 1) for m in state)
        matrix[col, col] += u * contact
    return matrix


def plane_wave(n_sites: int, n: int) -> np.ndarray:
    j = np.arange(n_sites)
    return np.exp(2j * np.pi * n * j / n_sites) / math.sqrt(n_sites)


def plane_wave_energy(n_sites: int, n: int, t: float, omega: float, k: float,
                      twist: float = 0.0) -> float:
    """Exact eigenvalue of the (twisted) ring matrix on a plane wave."""
    h = one_particle_matrix(n_sites, t, omega, k, twist)
    v = plane_wave(n_sites, n)
    return float(np.vdot(v, h @ v).real)


def twist_derivative_current(n_sites: int, n: int, t: float, omega: float,
                             k: float, step: float = 1e-6) -> float:
    """-dE/d(twist) of a winding state by central finite difference."""
    plus = plane_wave_energy(n_sites, n, t, omega, k, twist=+step)
    minus = plane_wave_energy(n_sites, n, t, omega, k, twist=-step)
    return -(plus - minus) / (2.0 * step)


def gap_minimum_omega(n_sites: int, t: float, k: float, lo: float,
                      hi: float, tol: float = 1e-10) -> float:
    """Drive frequency minimizing the gap between the two lowest levels.

    Golden-section search; at a ground-state level crossing the gap
    touches zero, so the minimizer is the crossing frequency.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0

    def gap(omega: float) -> float:
        values = np.linalg.eigvalsh(one_particle_matrix(n_sites, t, omega, k))
        return float(values[1] - values[0])

    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = gap(c), gap(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = gap(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = gap(d)
    return 0.5 * (a + b)
