"""Lowest eigenpairs of a Hermitian operator.

``lowest_k`` and ``ground_state`` ask one routine for the k lowest pairs,
every further copy of the k-th level and the next pair above it.  Small
operators (dimension <= ``dense_threshold``) go through LAPACK's dense
solver; larger ones through seeded ARPACK and a Rayleigh-Ritz step, then
through solves on the complement of the locked pairs until its lowest
pair lies above the k-th level.  Repeated runs are bit-for-bit
reproducible at a fixed thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

from .hamiltonian import HermitianOperator
from .model import DomainError

# Ground-state solves cost about the same on both paths near this dimension
# (2-CPU x86, OpenBLAS, 1+1 fermions): dense eigh wins at 256 and below,
# ARPACK with its complement solve at 400 and above, and at 324 they are
# within 10 %.
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

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise DomainError(f"seed: must be >= 0, got {self.seed!r}")


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
    bounds = [0, *(np.flatnonzero(np.diff(values) >= tol) + 1), len(values)]
    return tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))


def _level_end(values: np.ndarray, k: int, tol: float) -> int:
    """One past the last copy of the k-th value in ascending ``values``."""
    groups = _group_degenerate(values, tol)
    return next(group[-1] for group in groups if group[-1] >= k - 1) + 1


def _lowest_levels(op: HermitianOperator, k: int, tol: float,
                   degeneracy_tol: float, options: SolverOptions
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, vectors and residuals of the k lowest pairs, every further
    copy of the k-th level, and the next pair above it (if there is one)."""
    if not 1 <= k <= op.dimension:
        raise DomainError(f"k: need 1 <= k <= {op.dimension}, got {k!r}")
    if not tol > 0:
        raise DomainError(f"tol: must be > 0, got {tol!r}")

    # ARPACK needs k < n - 1 and k + 1 < ncv <= n.
    krylov = op.dimension > options.dense_threshold and k + 2 <= op.dimension
    if krylov:
        values, vectors = _krylov_lowest(op, k, tol, degeneracy_tol, options)
    else:
        values, vectors = _dense_lowest(op, k, degeneracy_tol)
    stop = _level_end(values, k, degeneracy_tol) + 1
    values, vectors = values[:stop], vectors[:, :stop]

    residuals = np.linalg.norm(op.matrix @ vectors - vectors * values, axis=0)
    bounds = tol * np.maximum(1.0, np.abs(values))
    if krylov and np.any(residuals > bounds):
        raise ConvergenceError(
            f"Krylov residuals {residuals} exceed tolerance bounds {bounds}")
    return values, vectors, residuals


def lowest_k(op: HermitianOperator, k: int, tol: float = 1e-10,
             degeneracy_tol: float = DEGENERACY_TOL,
             options: SolverOptions = DEFAULT_OPTIONS) -> EigenResult:
    """The k lowest eigenpairs, each with ||Hv - ev|| <= tol*max(1, |e|)."""
    values, vectors, residuals = _lowest_levels(op, k, tol, degeneracy_tol,
                                                options)
    return EigenResult(values[:k], vectors[:, :k], residuals[:k],
                       _group_degenerate(values[:k], degeneracy_tol))


def _dense_lowest(op: HermitianOperator, k: int,
                  degeneracy_tol: float) -> tuple[np.ndarray, np.ndarray]:
    dense = op.to_dense()
    if k < op.dimension:
        values, vectors = sla.eigh(dense, subset_by_index=(0, k), driver="evr")
        if values[k] - values[k - 1] >= degeneracy_tol:
            return values, vectors
    return sla.eigh(dense)


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
    # ARPACK can skip copies of a degenerate level.  Lock the pairs found by
    # shifting them above the spectrum (H + s*V*V^H; 2*max|row sum| bounds
    # the spread) and add the lowest pair of the rest until it lies above
    # the k-th level: that last pair is the next one.
    shift = 1.0 + 2.0 * float(abs(op.matrix).sum(axis=1).max())
    while len(values) < op.dimension:
        top = values[_level_end(values, k, degeneracy_tol) - 1]
        locked, locked_conj = vectors, vectors.conj()

        def matvec(v: np.ndarray) -> np.ndarray:
            v = v.ravel()
            return op.matrix @ v + shift * np.einsum(
                "ij,j->i", locked, np.einsum("ij,i->j", locked_conj, v))

        complement = LinearOperator(op.matrix.shape, matvec, dtype=complex)
        extra = _arpack_lowest(complement, 1, tol, options, rng)[:, 0]
        value = np.vdot(extra, op.matrix @ extra).real
        values, vectors = _rayleigh_ritz(op, np.column_stack([locked, extra]))
        if value >= top + degeneracy_tol:
            break
    return values, vectors


def ground_state(op: HermitianOperator, degeneracy_tol: float = DEGENERACY_TOL,
                 tol: float = 1e-10,
                 options: SolverOptions = DEFAULT_OPTIONS) -> GroundState:
    """Ground energy with every eigenvector inside the degeneracy window.

    One solve returns every copy of the lowest level and the next pair
    above it, so exact crossings report all members of the degenerate
    multiplet.  ``gap`` is the distance to the next eigenvalue (zero
    inside a multiplet, NaN for a one-state space).
    """
    values, vectors, _ = _lowest_levels(op, 1, tol, degeneracy_tol, options)
    members = _level_end(values, 1, degeneracy_tol)
    return GroundState(
        energy=float(values[0]), vectors=vectors[:, :members],
        degenerate=members > 1,
        gap=float(values[1] - values[0]) if len(values) > 1 else float("nan"))
