"""Lowest eigenpairs of a Hermitian operator.

Small operators (dimension <= ``dense_threshold``) go through LAPACK's
dense Hermitian solver.  Larger ones go through ARPACK's implicitly
restarted Arnoldi iteration, followed by a Rayleigh-Ritz step that makes
the returned vectors exactly orthonormal and a check that no copy of a
degenerate level was skipped.  The Krylov start vector and ARPACK's
restart vectors come from a seeded generator, so repeated runs are
bit-for-bit reproducible at a fixed thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

from .hamiltonian import HermitianOperator
from .model import DomainError

# Ground-state solves cost the same on both paths near this dimension
# (2-CPU x86, OpenBLAS): dense eigh wins at 256 and below, ARPACK with its
# missed-copy check at 324 and above.
DENSE_THRESHOLD = 300
DEGENERACY_TOL = 1e-8
KRYLOV_SEED = 7
# ARPACK stops on its own residual estimate; aim below the bound that
# lowest_k checks so the check does not fail on rounding.
_ARPACK_TOL_FACTOR = 1e-2


class ConvergenceError(RuntimeError):
    """The iterative solver failed to converge; carries diagnostics."""


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the eigensolver paths (all have safe defaults).

    ``max_krylov`` is ARPACK's ``ncv`` (raised to ``2k + 1`` when smaller)
    and ``max_restarts`` bounds its restarts (``maxiter = max_restarts + 1``).
    """

    dense_threshold: int = DENSE_THRESHOLD
    seed: int = KRYLOV_SEED
    max_krylov: int = 20
    # 3+3 fermions on 12 sites fail at 10 restarts and converge by 20
    # (ncv = 20).
    max_restarts: int = 100


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Ascending eigenvalues with orthonormal vectors and residuals.

    ``degeneracy_groups`` partitions the k indices into runs whose
    consecutive gaps stay below the grouping tolerance.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    degeneracy_groups: tuple[tuple[int, ...], ...]


class GroundState(NamedTuple):
    energy: float
    vectors: np.ndarray
    degenerate: bool
    gap: float


def _group_degenerate(values: np.ndarray, tol: float) -> tuple[tuple[int, ...], ...]:
    groups: list[tuple[int, ...]] = []
    current = [0]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] < tol:
            current.append(i)
        else:
            groups.append(tuple(current))
            current = [i]
    groups.append(tuple(current))
    return tuple(groups)


def lowest_k(op: HermitianOperator, k: int, tol: float = 1e-10,
             degeneracy_tol: float = DEGENERACY_TOL,
             options: SolverOptions = DEFAULT_OPTIONS) -> EigenResult:
    """The k lowest eigenpairs, each with ||Hv - ev|| <= tol*max(1, |e|)."""
    if not 1 <= k <= op.dimension:
        raise DomainError(f"k: need 1 <= k <= {op.dimension}, got {k!r}")
    if not tol > 0:
        raise DomainError(f"tol: must be > 0, got {tol!r}")

    # ARPACK needs k < n - 1 and k + 1 < ncv <= n.
    krylov = op.dimension > options.dense_threshold and k + 2 <= op.dimension
    if krylov:
        values, vectors = _krylov_lowest(op, k, tol, degeneracy_tol, options)
    else:
        values, vectors = _dense_lowest(op, k)

    residuals = np.array([
        np.linalg.norm(op.apply(vectors[:, i]) - values[i] * vectors[:, i])
        for i in range(k)
    ])
    bounds = tol * np.maximum(1.0, np.abs(values))
    if krylov and np.any(residuals > bounds):
        raise ConvergenceError(
            f"Krylov residuals {residuals} exceed tolerance bounds {bounds}")
    return EigenResult(values=values, vectors=vectors, residuals=residuals,
                       degeneracy_groups=_group_degenerate(values, degeneracy_tol))


def _dense_lowest(op: HermitianOperator, k: int) -> tuple[np.ndarray, np.ndarray]:
    dense = op.to_dense()
    if k < op.dimension:
        values, vectors = sla.eigh(dense, subset_by_index=(0, k - 1),
                                   driver="evr")
    else:
        values, vectors = sla.eigh(dense)
    return values[:k], vectors[:, :k]


def _arpack_lowest(matrix, k: int, tol: float, options: SolverOptions,
                   rng: np.random.Generator) -> np.ndarray:
    """Ritz vectors of the k smallest-real-part eigenvalues.

    ``eigsh`` hands complex Hermitian matrices to ``eigs`` without the
    generator, so ``eigs`` is called directly to keep the restart vectors
    seeded.
    """
    n = matrix.shape[0]
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ncv = min(n, max(options.max_krylov, 2 * k + 1))
    try:
        _, vectors = eigs(matrix, k, which="SR", v0=start, rng=rng, ncv=ncv,
                          maxiter=options.max_restarts + 1,
                          tol=tol * _ARPACK_TOL_FACTOR)
    except ArpackNoConvergence as error:
        raise ConvergenceError(
            f"ARPACK brought {len(error.eigenvalues)}/{k} eigenpairs under "
            f"residual tol {tol * _ARPACK_TOL_FACTOR:.3e} in "
            f"{options.max_restarts + 1} iterations with ncv {ncv}") from None
    return vectors


def _rayleigh_ritz(op: HermitianOperator,
                   vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending Ritz pairs of H on the span of ``vectors``.

    ARPACK's non-Hermitian driver returns a degenerate level's vectors
    only approximately orthogonal; projecting fixes both that and the
    ordering.
    """
    basis, _ = np.linalg.qr(vectors)
    projected = basis.conj().T @ (op.matrix @ basis)
    values, rotation = sla.eigh(0.5 * (projected + projected.conj().T))
    return values, basis @ rotation


def _krylov_lowest(op: HermitianOperator, k: int, tol: float,
                   degeneracy_tol: float,
                   options: SolverOptions) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(options.seed)
    values, vectors = _rayleigh_ritz(
        op, _arpack_lowest(op.matrix, k, tol, options, rng))
    # ARPACK can skip a copy of a degenerate level.  Lock the vectors found
    # so far, shifted above the spectrum, and ask for the lowest level of
    # the rest until it no longer lies below the k-th value.
    shift = 1.0 + float(abs(op.matrix).sum(axis=1).max())
    while True:
        locked = vectors
        locked_conj = locked.conj()

        def matvec(v: np.ndarray) -> np.ndarray:
            v = v.ravel()
            overlaps = np.einsum("ij,i->j", locked_conj, v)
            w = op.matrix @ (v - np.einsum("ij,j->i", locked, overlaps))
            w = w - np.einsum("ij,j->i", locked,
                              np.einsum("ij,i->j", locked_conj, w))
            return w + shift * np.einsum("ij,j->i", locked, overlaps)

        complement = LinearOperator(op.matrix.shape, matvec=matvec,
                                    dtype=complex)
        extra = _arpack_lowest(complement, 1, tol, options, rng)
        extra = extra[:, 0] - locked @ (locked_conj.T @ extra[:, 0])
        value = float(np.vdot(extra, op.matrix @ extra).real
                      / np.vdot(extra, extra).real)
        if not value < values[k - 1] - degeneracy_tol:
            break
        values, vectors = _rayleigh_ritz(
            op, np.column_stack([locked, extra]))
    return values[:k], vectors[:, :k]


def ground_state(op: HermitianOperator, degeneracy_tol: float = DEGENERACY_TOL,
                 tol: float = 1e-10,
                 options: SolverOptions = DEFAULT_OPTIONS) -> GroundState:
    """Ground energy with every eigenvector inside the degeneracy window.

    Grows the requested pair count until the spectrum escapes the window,
    so exact crossings report all members of the degenerate multiplet.
    ``gap`` is the distance to the next eigenvalue (zero inside a
    multiplet, NaN for a one-state space).
    """
    if op.dimension < 1:
        raise DomainError("dimension: operator is empty")
    k = min(2, op.dimension)
    while True:
        result = lowest_k(op, k, tol=tol, degeneracy_tol=degeneracy_tol,
                          options=options)
        if k == op.dimension or result.values[-1] - result.values[0] > degeneracy_tol:
            break
        k = min(op.dimension, 2 * k)
    members = result.degeneracy_groups[0]
    values = result.values
    return GroundState(
        energy=float(values[0]), vectors=result.vectors[:, list(members)],
        degenerate=len(members) > 1,
        gap=float(values[1] - values[0]) if len(values) > 1 else float("nan"))
