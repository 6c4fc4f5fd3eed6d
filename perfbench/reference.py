"""Independent reference answers, computed in the plane-wave basis.

Nothing here imports ringlat.  The ring conserves total momentum, so the
many-body problem splits into one block per total winding Q (mod N).  In
the plane-wave basis c_m = N**-0.5 * sum_j exp(-i k_m j) c_j, with
k_m = 2*pi*m/N, the drive only enters the one-body diagonal

    eps_m = -2 * (t*cos(k_m) + omegaK*sin(k_m))     (energy of winding m)
    j_m   = +2 * (t*sin(k_m) - omegaK*cos(k_m))     (current of winding m)

and the contact interaction becomes a momentum-conserving two-body term:

    fermions  u * sum_j n_up,j n_down,j
              = (u/N) sum_{q,k,p} c+_{k+q,up} c_{k,up} c+_{p-q,down} c_{p,down}
    bosons    u * sum_j n_j (n_j - 1)
              = (u/N) sum_{k1+k2=k3+k4} b+_k1 b+_k2 b_k3 b_k4

Every block is real symmetric.  The current is diagonal in winding
occupations, and a block's Q is the translation sector of its states, so
energies, currents and sector labels all come out of the block
eigenproblems without a translation operator or a current matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

#: Blocks up to this size are diagonalized densely; larger ones with ARPACK.
DENSE_BLOCK = 600
#: Levels kept per block; enough for every multiplet and the gap.
LEVELS_PER_BLOCK = 6
#: Levels closer than this count as one degenerate multiplet (units of t).
DEGENERACY_TOL = 1e-8
#: Currents within this many t of zero are not fast.
FAST_EPS = 1e-9
#: Bisection widths of the reference roots, far below the package's.
BOUNDARY_RESOLUTION = 1e-9
CROSSING_RESOLUTION = 1e-12


def geometric_factor(n_sites: int) -> float:
    """K = sin(2*pi/N) / 2 for equally spaced sites (beta = 1)."""
    return math.sin(2.0 * math.pi / n_sites) / 2.0


@dataclass(frozen=True)
class PointAnswer:
    """Ground-state answer at one (omega, u)."""

    energy: float
    gap: float
    total_current: float
    per_particle_current: float
    sectors: tuple[int, ...]
    degenerate: bool
    is_fast_current: bool
    is_max_winding: bool


def _fermion_move(mask: int, src: int, dst: int) -> tuple[int, int] | None:
    """c+_dst c_src on a set of occupied modes, ascending-mode ordering."""
    if not (mask >> src) & 1:
        return None
    sign = -1 if bin(mask & ((1 << src) - 1)).count("1") & 1 else 1
    mask &= ~(1 << src)
    if (mask >> dst) & 1:
        return None
    if bin(mask & ((1 << dst) - 1)).count("1") & 1:
        sign = -sign
    return mask | (1 << dst), sign


def _fermion_space(n_sites: int, n_up: int, n_down: int):
    """Occupations, total winding and unit-u interaction of all states."""
    def sets(count):
        masks = [sum(1 << m for m in combo)
                 for combo in itertools.combinations(range(n_sites), count)]
        occ = np.array([[(mask >> m) & 1 for m in range(n_sites)]
                        for mask in masks], dtype=float).reshape(len(masks), n_sites)
        winding = np.array([sum(m for m in range(n_sites) if (mask >> m) & 1)
                            for mask in masks], dtype=np.int64)
        index = {mask: i for i, mask in enumerate(masks)}
        # moves[q] lists (old set, new set, sign) for one particle k -> k+q.
        moves = {q: ([], [], []) for q in range(1, n_sites)}
        for i, mask in enumerate(masks):
            for src in range(n_sites):
                for q in range(1, n_sites):
                    hop = _fermion_move(mask, src, (src + q) % n_sites)
                    if hop is not None:
                        moves[q][0].append(i)
                        moves[q][1].append(index[hop[0]])
                        moves[q][2].append(hop[1])
        moves = {q: tuple(np.array(a) for a in arrays)
                 for q, arrays in moves.items()}
        return occ, winding, moves

    occ_up, q_up, moves_up = sets(n_up)
    occ_dn, q_dn, moves_dn = sets(n_down)
    n_dn = len(q_dn)
    occupations = (occ_up[:, None, :] + occ_dn[None, :, :]).reshape(-1, n_sites)
    winding = ((q_up[:, None] + q_dn[None, :]) % n_sites).ravel()
    dimension = len(winding)
    rows = [np.arange(dimension)]
    cols = [np.arange(dimension)]
    vals = [np.full(dimension, n_up * n_down / n_sites)]
    for q in range(1, n_sites):
        a_old, a_new, a_sign = moves_up[q]
        b_old, b_new, b_sign = moves_dn[n_sites - q]
        if len(a_old) == 0 or len(b_old) == 0:
            continue
        rows.append((a_new[:, None] * n_dn + b_new[None, :]).ravel())
        cols.append((a_old[:, None] * n_dn + b_old[None, :]).ravel())
        vals.append((a_sign[:, None] * b_sign[None, :]).ravel() / n_sites)
    interaction = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dimension, dimension)).tocsr()
    return occupations, winding, interaction


def _boson_space(n_sites: int, n_particles: int):
    def compositions(modes, count):
        if modes == 1:
            yield (count,)
            return
        for head in range(count + 1):
            for rest in compositions(modes - 1, count - head):
                yield (head, *rest)

    states = list(compositions(n_sites, n_particles))
    index = {state: i for i, state in enumerate(states)}
    rows, cols, vals = [], [], []
    for col, state in enumerate(states):
        occ = list(state)
        for k4 in range(n_sites):
            if not occ[k4]:
                continue
            amp4 = math.sqrt(occ[k4])
            occ[k4] -= 1
            for k3 in range(n_sites):
                if not occ[k3]:
                    continue
                amp3 = amp4 * math.sqrt(occ[k3])
                occ[k3] -= 1
                for k1 in range(n_sites):
                    k2 = (k3 + k4 - k1) % n_sites
                    amp2 = amp3 * math.sqrt(occ[k2] + 1)
                    occ[k2] += 1
                    amp1 = amp2 * math.sqrt(occ[k1] + 1)
                    occ[k1] += 1
                    rows.append(index[tuple(occ)])
                    cols.append(col)
                    vals.append(amp1 / n_sites)
                    occ[k1] -= 1
                    occ[k2] -= 1
                occ[k3] += 1
            occ[k4] += 1
    occupations = np.array(states, dtype=float)
    modes = np.arange(n_sites)
    winding = (occupations @ modes).astype(np.int64) % n_sites
    interaction = sparse.coo_matrix((vals, (rows, cols)),
                                    shape=(len(states), len(states))).tocsr()
    return occupations, winding, interaction


class MomentumModel:
    """One particle content on an N-site ring, split into Q blocks.

    ``species`` is ``("fermion", n_up, n_down)`` or ``("boson", n)``.
    Hopping is t = 1 and K is that of ``make_ring``, as in every workload.
    The interaction matrices are built once; each point only rebuilds the
    one-body diagonal.
    """

    def __init__(self, n_sites: int, species: tuple):
        self.n_sites = n_sites
        self.k_factor = geometric_factor(n_sites)
        kind = species[0]
        if kind == "fermion":
            occupations, winding, interaction = _fermion_space(
                n_sites, species[1], species[2])
            self.n_particles = species[1] + species[2]
        elif kind == "boson":
            occupations, winding, interaction = _boson_space(n_sites, species[1])
            self.n_particles = species[1]
        else:
            raise ValueError(f"unsupported species {species!r}")
        self.dimension = len(winding)
        self.blocks = []
        for q in range(n_sites):
            members = np.flatnonzero(winding == q)
            if len(members):
                self.blocks.append((q, occupations[members],
                                    interaction[members][:, members]))

    def levels(self, omega: float, u: float) -> list[tuple[float, int, float]]:
        """Lowest (energy, Q, current) levels of every block, ascending."""
        k = 2.0 * np.pi * np.arange(self.n_sites) / self.n_sites
        wk = omega * self.k_factor
        eps = -2.0 * (np.cos(k) + wk * np.sin(k))
        jm = 2.0 * (np.sin(k) - wk * np.cos(k))
        found = []
        for q, occ, interaction in self.blocks:
            diagonal = occ @ eps
            dim = len(diagonal)
            if dim <= DENSE_BLOCK:
                h = u * interaction.toarray()
                h[np.diag_indices(dim)] += diagonal
                values, vectors = np.linalg.eigh(h)
                values = values[:LEVELS_PER_BLOCK]
                vectors = vectors[:, :LEVELS_PER_BLOCK]
            else:
                h = (u * interaction + sparse.diags(diagonal)).tocsr()
                v0 = np.random.default_rng(q).standard_normal(dim)
                values, vectors = sparse_linalg.eigsh(
                    h, k=LEVELS_PER_BLOCK, which="SA", tol=0.0, v0=v0)
                order = np.argsort(values)
                values, vectors = values[order], vectors[:, order]
            currents = (vectors ** 2).T @ (occ @ jm)
            found.extend(zip(values.tolist(), [q] * len(values),
                             currents.tolist()))
        found.sort()
        return found

    def ground(self, omega: float, u: float) -> PointAnswer:
        levels = self.levels(omega, u)
        size = 1
        while (size < len(levels)
               and levels[size][0] - levels[size - 1][0] < DEGENERACY_TOL):
            size += 1
        members = levels[:size]
        total = float(np.mean([level[2] for level in members]))
        sectors = tuple(sorted(level[1] for level in members))
        target = (self.n_particles * (self.n_sites // 4)) % self.n_sites
        return PointAnswer(
            energy=levels[0][0],
            gap=levels[1][0] - levels[0][0],
            total_current=total,
            per_particle_current=total / self.n_particles,
            sectors=sectors,
            degenerate=size > 1,
            is_fast_current=total > FAST_EPS,
            is_max_winding=all(q == target for q in sectors),
        )

    def ground_sector(self, omega: float, u: float) -> int | None:
        """Q of the ground state, or None when two sectors tie."""
        levels = self.levels(omega, u)
        if levels[1][0] - levels[0][0] < DEGENERACY_TOL and levels[1][1] != levels[0][1]:
            return None
        return levels[0][1]


def _sign(value: float) -> int:
    return (value > FAST_EPS) - (value < -FAST_EPS)


def boundaries(model: MomentumModel, omega: float,
               us: list[float]) -> list[tuple[float, int, int]]:
    """Strict sign changes of the per-particle current along ``us``.

    Each change is bisected to ``BOUNDARY_RESOLUTION``; returns
    (u*, sign below, sign above).
    """
    def current(u):
        return model.ground(omega, u).per_particle_current

    signs = [_sign(current(u)) for u in us]
    found = []
    for i in range(len(us) - 1):
        if signs[i] == 0 or signs[i + 1] == 0 or signs[i] == signs[i + 1]:
            continue
        lo, hi = us[i], us[i + 1]
        while hi - lo > BOUNDARY_RESOLUTION:
            mid = 0.5 * (lo + hi)
            if _sign(current(mid)) == signs[i]:
                lo = mid
            else:
                hi = mid
        found.append((0.5 * (lo + hi), signs[i], signs[i + 1]))
    return found


def crossings(model: MomentumModel, u: float,
              omegas: list[float]) -> list[float]:
    """Drive frequencies where the ground sector changes along ``omegas``.

    Brackets join consecutive grid points whose sectors are resolved and
    differ; each is bisected to the first change away from its lower
    sector, judged by the lowest level alone so that the tie window of
    ``ground_sector`` does not bias the root.
    """
    labels = [model.ground_sector(w, u) for w in omegas]
    resolved = [i for i, label in enumerate(labels) if label is not None]
    found = []
    for i, j in zip(resolved, resolved[1:]):
        if labels[i] == labels[j]:
            continue
        lo, hi = omegas[i], omegas[j]
        while hi - lo > CROSSING_RESOLUTION:
            mid = 0.5 * (lo + hi)
            if model.levels(mid, u)[0][1] == labels[i]:
                lo = mid
            else:
                hi = mid
        found.append(0.5 * (lo + hi))
    return found
