"""Lowest eigenpairs of a Hermitian operator.

``lowest_k`` and ``ground_state`` ask one routine for the k lowest pairs,
every further copy of the k-th level and the next pair above it.  Small
operators (dimension <= ``dense_threshold``) go through LAPACK's dense
solver; larger ones through seeded ARPACK and a Rayleigh-Ritz step
(stage 1), then through the lock loop (stage 2): solves on the
complement of the locked pairs until its lowest pair lies above the k-th
level.  ``_level_stages`` yields after stage 1, so a caller can leave out
a stage 2 it does not need (see :func:`ringlat.sweep._solve`); run on,
it gives the result of an uninterrupted solve.  Both paths run in the
operator's own arithmetic: real symmetric matrices (the sector blocks)
through the real drivers (``dsyevr``, symmetric Lanczos), complex
Hermitian ones (the real-space operators) through the complex ones.
Every dense solve is one call of LAPACK's MRRR routine (``dsyevr`` or
``zheevr``; Dhillon, Parlett & Voemel, ACM TOMS 32, 533 (2006)) on a dense
array, through :func:`_dense_levels`, which a caller holding the dense
matrix can call directly.  A caller that needs only to know whether a
real symmetric matrix's levels all lie above a bound can ask
:func:`_certified_above`, one Cholesky factorization (``dpotrf``) that
proves it.  Repeated runs are bit-for-bit reproducible at a fixed thread
count.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import _compute_lwork, get_lapack_funcs

from .hamiltonian import DENSE_THRESHOLD, HermitianOperator
from .model import DomainError

DEGENERACY_TOL = 1e-8
KRYLOV_SEED = 7
# ARPACK stops on its own residual estimate; aim below the bound that
# lowest_k checks so the check does not fail on rounding.
_ARPACK_TOL_FACTOR = 1e-2
_EPS = math.ulp(1.0)
_POTRF = get_lapack_funcs("potrf", dtype=np.dtype(float))


class ConvergenceError(RuntimeError):
    """The iterative solver failed to converge; carries diagnostics."""


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the eigensolver paths (all have safe defaults).

    ``max_krylov`` is ARPACK's ``ncv`` (raised to ``2k + 1`` when smaller)
    and ``max_restarts`` bounds its restarts (``maxiter = max_restarts + 1``).
    Each field must be an integer >= 0, not a bool.
    """

    dense_threshold: int = DENSE_THRESHOLD
    seed: int = KRYLOV_SEED
    max_krylov: int = 20
    # 3+3 fermions on 12 sites fail at 10 restarts and converge by 20
    # (ncv = 20).
    max_restarts: int = 100

    def __post_init__(self) -> None:
        for name in ("dense_threshold", "seed", "max_krylov", "max_restarts"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral) or value < 0):
                raise DomainError(f"{name}: must be an integer >= 0, got "
                                  f"{value!r}")


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
    """One past the last copy of the k-th value in ascending ``values``
    (k >= 1): the end of the :func:`_group_degenerate` group that holds
    index k - 1."""
    # A scalar loop: it stops at the first gap of at least tol, so it reads
    # only the copies of the k-th value and one more.  The sweep calls this
    # on two or three levels, where np.diff and np.flatnonzero cost more.
    for i in range(k, len(values)):
        if values[i] - values[i - 1] >= tol:
            return i
    return len(values)


def _check_tolerances(tol: float, degeneracy_tol: float) -> None:
    if not 0 < tol < math.inf:
        raise DomainError(f"tol: must be finite and > 0, got {tol!r}")
    if not 0 <= degeneracy_tol < math.inf:
        raise DomainError(f"degeneracy_tol: must be finite and >= 0, "
                          f"got {degeneracy_tol!r}")


def _lowest_levels(op: HermitianOperator, k: int, tol: float,
                   degeneracy_tol: float, options: SolverOptions
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, vectors and residuals of the k lowest pairs, every further
    copy of the k-th level, and the next pair above it (if there is one)."""
    *_, (values, vectors, residuals, _) = _level_stages(
        op, k, tol, degeneracy_tol, options)
    return values, vectors, residuals


def _krylov(dimension: int, k: int, options: SolverOptions) -> bool:
    """Whether the k lowest pairs of an operator of this dimension are
    solved by ARPACK, which needs k < n - 1 (else by the dense solver)."""
    return dimension > options.dense_threshold and k + 2 <= dimension


def _level_stages(op: HermitianOperator, k: int, tol: float,
                  degeneracy_tol: float, options: SolverOptions):
    """The solve of :func:`_lowest_levels` in stages, as a generator of
    (values, vectors, residuals, final).

    A dense solve yields its result once, final.  A Krylov solve first
    yields the k Ritz pairs of its main ARPACK run (stage 1); resumed, it
    runs the lock loop with the same generator state and yields the
    result of :func:`_lowest_levels` (stage 2, final).  Every yield, on
    either path, has each residual within ``tol * max(1, |value|)``, or
    raises :class:`ConvergenceError`, as does an operator with an entry
    that is not finite.
    """
    if not 1 <= k <= op.dimension:
        raise DomainError(f"k: need 1 <= k <= {op.dimension}, got {k!r}")
    _check_tolerances(tol, degeneracy_tol)

    if not _krylov(op.dimension, k, options):
        yield (*_dense_levels(op.to_dense(), k, tol, degeneracy_tol), True)
        return
    _check_finite(op.matrix.data)
    rng = np.random.default_rng(options.seed)
    values, vectors = _rayleigh_ritz(
        op, _arpack_lowest(op.matrix, k, tol, options, rng))
    yield values, vectors, _residuals(op.matrix, values, vectors, tol), False
    values, vectors = _lock_loop(op, values, vectors, k, tol, degeneracy_tol,
                                 options, rng)
    yield (*_through_level(op.matrix, values, vectors, k, tol,
                           degeneracy_tol), True)


def _dense_levels(dense: np.ndarray, k: int, tol: float,
                  degeneracy_tol: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_lowest_levels` on the dense Hermitian array ``dense``, with
    the residuals of its own product; the tolerances are not checked."""
    _check_finite(dense)
    values, vectors = _dense_lowest(dense, k, degeneracy_tol)
    return _through_level(dense, values, vectors, k, tol, degeneracy_tol)


def _through_level(matrix, values: np.ndarray, vectors: np.ndarray, k: int,
                   tol: float, degeneracy_tol: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ascending pairs up to the last copy of the k-th level and the
    next one, with their residuals."""
    stop = _level_end(values, k, degeneracy_tol) + 1
    values, vectors = values[:stop], vectors[:, :stop]
    return values, vectors, _residuals(matrix, values, vectors, tol)


def _check_finite(entries: np.ndarray) -> None:
    if not np.isfinite(entries).all():
        raise ConvergenceError("operator has entries that are not finite")


def _residuals(matrix, values: np.ndarray, vectors: np.ndarray,
               tol: float) -> np.ndarray:
    """||H v - value v|| of each pair, each of which must stay within
    ``tol * max(1, |value|)``; a NaN fails."""
    residuals = np.linalg.norm(matrix @ vectors - vectors * values, axis=0)
    # A scalar loop: the sweep checks two or three pairs at a time.
    bounds = [tol * max(1.0, abs(value)) for value in values.tolist()]
    if not all(map(float.__le__, residuals.tolist(), bounds)):
        raise ConvergenceError(f"residuals {residuals} exceed tolerance "
                               f"bounds {np.array(bounds)}")
    return residuals


def lowest_k(op: HermitianOperator, k: int, tol: float = 1e-10,
             degeneracy_tol: float = DEGENERACY_TOL,
             options: SolverOptions = DEFAULT_OPTIONS) -> EigenResult:
    """The k lowest eigenpairs, each with ||Hv - ev|| <= tol*max(1, |e|)."""
    values, vectors, residuals = _lowest_levels(op, k, tol, degeneracy_tol,
                                                options)
    return EigenResult(values[:k], vectors[:, :k], residuals[:k],
                       _group_degenerate(values[:k], degeneracy_tol))


def _dense_lowest(dense: np.ndarray, k: int,
                  degeneracy_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The k + 1 lowest pairs of ``dense``, or all of them where the
    (k+1)-th lies within ``degeneracy_tol`` of the k-th."""
    if k < len(dense):
        values, vectors = _evr(dense, (1, k + 1))
        if values[k] - values[k - 1] >= degeneracy_tol:
            return values, vectors
    return _evr(dense, None)


def _certified_above(dense: np.ndarray, bound: float) -> bool:
    """Whether one Cholesky factorization proves every eigenvalue of the
    real symmetric array ``dense`` above ``bound``, with room for the
    rounding of a dense solve, so that its levels would lie above
    ``bound`` too.  False proves nothing.

    LAPACK's ``dpotrf`` factors A = fl(dense - sigma I), sigma = bound +
    pad.  If it completes, R^T R = A + dA with |dA| <= gamma_{n+1}
    |R^T||R| (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., Thm 10.3), so lambda_min(A) >= -gamma_{n+1} / (1 -
    gamma_{n+1}) tr(A) (Rump, BIT 46 (2006) 433), and the rounding of the
    shifted diagonal costs at most u tr(A) more.  Since sigma > bound,
    tr(A) is at most (1 + u) times the spread sum |d_ii - bound|.  The pad
    is twice that bound on the spread, which covers the rounding of the
    spread and of sigma, plus 32 eps (|bound| + spread), the allowance
    that the screen's floors make for a solve: a certified matrix has
    norm at most |sigma| + tr(A).  A last term is Rump's allowance for
    underflow.  An entry that is not finite is never certified: it makes
    a pivot fail or not finite.
    """
    if not bound < math.inf:
        return False
    n, diagonal = len(dense), dense.diagonal()
    unit = 0.5 * _EPS
    gamma = (n + 1) * unit / (1 - (n + 1) * unit)
    spread = float(np.add.reduce(np.abs(diagonal - bound)))
    sigma = bound + (2 * (gamma / (1 - gamma) + unit) * spread
                     + 32 * _EPS * (abs(bound) + spread)
                     + 4 * unit * abs(bound)
                     + 4 * (n + 1) * (2 * (n + 2) + spread) * math.ulp(0.0))
    # lambda_min is at most the least diagonal entry.
    if not (math.isfinite(sigma) and np.minimum.reduce(diagonal) > sigma):
        return False
    shifted = dense.copy()
    shifted.reshape(-1)[::n + 1] -= sigma
    # The transpose of the symmetric copy is itself, in Fortran order, so
    # dpotrf factors it in place.
    factor, info = _POTRF(shifted.T, lower=1, overwrite_a=1, clean=0)
    return info == 0 and bool(np.isfinite(factor.diagonal()).all())


def _evr(dense: np.ndarray, index: tuple[int, int] | None
         ) -> tuple[np.ndarray, np.ndarray]:
    """Ascending pairs of the dense Hermitian array ``dense`` from LAPACK's
    ``?syevr``/``?heevr`` on its lower triangle: those of 1-based indices
    ``index`` (first, last), or all of them for None.  The arguments are
    those of ``scipy.linalg.eigh(dense, subset_by_index=..., driver="evr")``,
    so the results are bit for bit the same, without its checks; an entry
    that is not finite must be ruled out first."""
    routine, workspace = _evr_routine(dense.dtype.char, dense.shape[0])
    bounds = {} if index is None else {"range": "I", "il": index[0],
                                       "iu": index[1]}
    values, vectors, found, _, info = routine(dense, lower=1, **bounds,
                                              **workspace)
    if info != 0:
        raise ConvergenceError(f"LAPACK {routine.__name__} failed with "
                               f"info {info}")
    return values[:found], vectors[:, :found]


@functools.lru_cache(maxsize=64)
def _evr_routine(dtype: str, n: int) -> tuple:
    """The LAPACK routine for arrays of dtype character ``dtype`` and its
    workspace sizes at dimension n, queried once."""
    prefix = "he" if np.dtype(dtype).kind == "c" else "sy"
    routine, query = get_lapack_funcs((prefix + "evr", prefix + "evr_lwork"),
                                      dtype=np.dtype(dtype))
    sizes = _compute_lwork(query, n=n, lower=1)
    names = ("lwork", "lrwork", "liwork") if prefix == "he" else (
        "lwork", "liwork")
    return routine, dict(zip(names, sizes))


def _arpack_lowest(matrix, k: int, tol: float, options: SolverOptions,
                   rng: np.random.Generator) -> np.ndarray:
    """Ritz vectors of the k lowest eigenvalues.

    A real symmetric matrix goes through ``eigsh`` (symmetric Lanczos).
    ``eigsh`` hands complex Hermitian matrices to ``eigs`` without the
    generator, so those call ``eigs`` directly to keep the restart vectors
    seeded.
    """
    # Imported here, not at module level: only the Krylov path needs ARPACK,
    # and the import costs every start of the package.
    from scipy.sparse.linalg import ArpackNoConvergence, eigs, eigsh

    n = matrix.shape[0]
    ncv = min(n, max(options.max_krylov, 2 * k + 1))
    if np.dtype(matrix.dtype).kind == "f":
        solve, which, start = eigsh, "SA", rng.standard_normal(n)
    else:
        solve, which = eigs, "SR"
        start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    try:
        _, vectors = solve(matrix, k, which=which, v0=start, rng=rng,
                           ncv=ncv, maxiter=options.max_restarts + 1,
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
    values, rotation = _evr(0.5 * (projected + projected.conj().T), None)
    return values, basis @ rotation


def _lock_loop(op: HermitianOperator, values: np.ndarray,
               vectors: np.ndarray, k: int, tol: float, degeneracy_tol: float,
               options: SolverOptions, rng: np.random.Generator
               ) -> tuple[np.ndarray, np.ndarray]:
    """The Ritz pairs of the main run, with every missed copy of the k-th
    level and the next pair above it added."""
    from scipy.sparse.linalg import LinearOperator

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

        complement = LinearOperator(op.matrix.shape, matvec,
                                    dtype=op.matrix.dtype)
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
