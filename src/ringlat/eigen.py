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

The three LAPACK routines are called through ctypes (:func:`_lapack`),
in the OpenBLAS that the scipy wheel ships, found without importing
scipy, with the arguments of scipy's own wrappers, so every result is
bit for bit that of ``scipy.linalg.eigh(..., driver="evr")`` and of
scipy's ``potrf``.  A dense solve therefore imports no scipy module.

For a real symmetric operator the Krylov path runs ARPACK's reverse
communication loop itself (:func:`_symmetric_lanczos`), calling the
``dsaupd``/``dseupd`` wrappers that ``eigsh`` calls with the state it
sets up, and forms each product with scipy's ``csr_matvec`` in ARPACK's
work array, so each run is bit for bit that of ``eigsh(which="SA")``
with none of its Python per product.  Both come from their extension
modules, loaded by file (:func:`_scipy_extension`), so a sector block's
Krylov solve imports no scipy package either; a complex Hermitian
operator goes through ``scipy.sparse.linalg.eigs``, imported inside the
function that calls it.  The lock loop keeps the pairs found
as they are when the complement's lowest pair lies above the k-th level,
its usual exit, so unless it finds a missed copy a main run's theta_1 is
also the solve's.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import numbers
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .hamiltonian import DENSE_THRESHOLD, HermitianOperator
from .model import ConvergenceError, DomainError

DEGENERACY_TOL = 1e-8
KRYLOV_SEED = 7
# ARPACK stops on its own residual estimate; aim below the bound that
# lowest_k checks so the check does not fail on rounding.
_ARPACK_TOL_FACTOR = 1e-2
_EPS = math.ulp(1.0)


class _Lapack(NamedTuple):
    """The LAPACK routines that the dense path calls, bound by address,
    and where they come from: the file name of the library, or
    ``cython_lapack``.  A call passes its character arguments first, then
    pointers, as addresses, then the first of ``lengths``, one per
    character argument: the hidden lengths of the Fortran routines, none
    for the capsules.  ``handle`` is the library, None for the capsules."""

    name: str
    dsyevr: ctypes._CFuncPtr
    zheevr: ctypes._CFuncPtr
    dpotrf: ctypes._CFuncPtr
    lengths: tuple[int, ...]
    handle: ctypes.CDLL | None


# Each routine's count of character and of pointer arguments, in order.
_ROUTINES = {"dsyevr": (3, 18), "zheevr": (3, 20), "dpotrf": (1, 4)}


def _scipy_directory() -> Path | None:
    """The directory of the scipy package, found without importing it;
    None where scipy is not installed."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    return Path(next(iter(spec.submodule_search_locations)))


def _bundled_openblas() -> Path | None:
    """The OpenBLAS that the scipy wheel ships (``scipy.libs`` on Linux
    and Windows, ``scipy/.dylibs`` on macOS), found without importing
    scipy; None where scipy links another LAPACK."""
    package = _scipy_directory()
    if package is None:
        return None
    found = sorted([*package.parent.glob("scipy.libs/libscipy_openblas*"),
                    *package.glob(".dylibs/libscipy_openblas*")])
    return found[0] if found else None


def _symbol(handle: ctypes.CDLL, name: str):
    """``name`` in the library, with the ``scipy_`` prefix of the wheel's
    build or without it; None if absent."""
    for symbol in (f"scipy_{name}", name):
        function = getattr(handle, symbol, None)
        if function is not None:
            return function
    return None


def _bind(address: int, chars: int, pointers: int,
          hidden: bool) -> ctypes._CFuncPtr:
    """The routine at ``address``, with ``chars`` character arguments and
    then ``pointers`` pointers; a Fortran routine (``hidden``) takes one
    hidden length per character argument after the others."""
    return ctypes.CFUNCTYPE(
        None, *(ctypes.c_char_p,) * chars, *(ctypes.c_void_p,) * pointers,
        *(ctypes.c_size_t,) * (chars if hidden else 0))(address)


@functools.cache
def _lapack() -> _Lapack:
    """The LAPACK routines of the dense path, bound on first use.

    They come from the OpenBLAS of :func:`_bundled_openblas`, the library
    that scipy's own wrappers call.  Where it is absent, the same routines
    come from the capsules of ``scipy.linalg.cython_lapack``, which take
    no hidden lengths; only the address lookup differs.
    """
    path = _bundled_openblas()
    handle = None
    if path is not None:
        try:
            handle = ctypes.CDLL(str(path))
        except OSError:
            handle = None
    if handle is not None and all(_symbol(handle, f"{name}_")
                                  for name in _ROUTINES):
        name, hidden = path.name, True

        def address(routine: str) -> int:
            return ctypes.cast(_symbol(handle, f"{routine}_"),
                               ctypes.c_void_p).value
    else:
        from scipy.linalg import cython_lapack

        name, hidden, handle = "cython_lapack", False, None
        get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
            ("PyCapsule_GetName", ctypes.pythonapi))
        get_pointer = ctypes.PYFUNCTYPE(
            ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", ctypes.pythonapi))

        def address(routine: str) -> int:
            capsule = cython_lapack.__pyx_capi__[routine]
            return get_pointer(capsule, get_name(capsule))
    return _Lapack(name, *(_bind(address(routine), *counts, hidden)
                           for routine, counts in _ROUTINES.items()),
                   (1, 1, 1) if hidden else (), handle)


def _lapack_provenance() -> dict:
    """Which LAPACK the dense path calls: the library's file name (or
    ``cython_lapack``), and for an OpenBLAS its build configuration and
    current thread count."""
    lapack = _lapack()
    info = {"library": lapack.name}
    if lapack.handle is not None:
        config = _symbol(lapack.handle, "openblas_get_config")
        threads = _symbol(lapack.handle, "openblas_get_num_threads")
        if config is not None:
            config.argtypes, config.restype = [], ctypes.c_char_p
            info["config"] = config().decode(errors="replace").strip()
        if threads is not None:
            threads.argtypes, threads.restype = [], ctypes.c_int
            info["threads"] = int(threads())
    return info


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
        op, _arpack_lowest(op.matrix, k, tol, options, rng)[1])
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
    return _positive_definite(shifted)


def _positive_definite(shifted: np.ndarray) -> bool:
    """Whether LAPACK's ``dpotrf`` factors the real symmetric C-ordered
    array ``shifted`` (overwritten) with finite pivots, as scipy's
    ``potrf(shifted.T, lower=1, overwrite_a=1, clean=0)`` would: the
    transpose of a symmetric array is itself, in Fortran order, so dpotrf
    factors it in place."""
    if shifted.dtype != np.float64 or shifted.shape != (len(shifted),) * 2:
        raise ValueError(f"need a square float64 array, got "
                         f"{shifted.dtype} {shifted.shape}")
    size, info = ctypes.c_int(len(shifted)), ctypes.c_int()
    lapack = _lapack()
    lapack.dpotrf(b"L", ctypes.byref(size), _address(shifted),
                  ctypes.byref(size), ctypes.byref(info), *lapack.lengths[:1])
    return info.value == 0 and bool(np.isfinite(shifted.diagonal()).all())


def _address(array: np.ndarray) -> int:
    """Where the data of a writable C-contiguous array starts; a third of
    the cost of ``array.ctypes.data``."""
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


class _EvrLayout(NamedTuple):
    """Byte offsets in the scratch array of one ``dsyevr``/``zheevr``
    call, each a multiple of 64 from its start, and its size.  It starts
    with ``scalars``: the int32 N (also LDA and LDZ), IL, IU, M, INFO,
    LWORK, LIWORK and LRWORK, then the float64 VL, VU and ABSTOL."""

    scalars: np.ndarray
    w: int
    isuppz: int
    work: int
    rwork: int
    iwork: int
    a: int
    z: int
    size: int


def _evr(dense: np.ndarray, index: tuple[int, int] | None
         ) -> tuple[np.ndarray, np.ndarray]:
    """Ascending pairs of the dense Hermitian array ``dense`` from LAPACK's
    ``dsyevr``/``zheevr`` on its lower triangle: those of 1-based indices
    ``index`` (first, last), or all of them for None.  The arguments are
    those that ``scipy.linalg.eigh(dense, subset_by_index=...,
    driver="evr")`` passes, workspace sizes included, so the results are
    bit for bit the same, without its checks; an entry that is not finite
    must be ruled out first.  Each call has its own scratch array, so
    threads may call this at once."""
    n, complex_ = dense.shape[0], dense.dtype.kind == "c"
    first, last = (1, n) if index is None else index
    if not (dense.shape == (n, n) and 1 <= first <= last <= n):
        raise ValueError(f"need a square array and 1 <= first <= last <= "
                         f"{n}, got shape {dense.shape} and {index}")
    layout = _evr_plan(complex_, n, first, last)
    dtype = complex if complex_ else float
    scratch = np.empty(layout.size, dtype=np.uint8)
    # The C-ordered transpose holds A column by column, as LAPACK reads it.
    np.copyto(np.ndarray((n, n), dtype, scratch, layout.a), dense.T)
    found, info = _call_evr(complex_, b"V", b"A" if index is None else b"I",
                            scratch, layout)
    if info != 0:
        raise ConvergenceError(f"LAPACK {'zheevr' if complex_ else 'dsyevr'} "
                               f"failed with info {info}")
    # Copied out, so a result kept does not keep A and the work arrays.
    return (np.ndarray(found, float, scratch, layout.w).copy(),
            np.ndarray((found, n), dtype, scratch, layout.z).T.copy("F"))


@functools.lru_cache(maxsize=256)
def _evr_plan(complex_: bool, n: int, first: int, last: int) -> _EvrLayout:
    """The layout of :func:`_evr`'s call for eigenpairs ``first`` to
    ``last`` (1-based) at dimension n."""
    return _evr_layout(complex_, (n, first, last),
                       _evr_workspace(complex_, n))


@functools.lru_cache(maxsize=64)
def _evr_workspace(complex_: bool, n: int) -> tuple[int, int, int]:
    """The workspace sizes (lwork, liwork, lrwork) that LAPACK's query
    (``lwork = -1``) gives for ``zheevr`` (``complex_``) or ``dsyevr`` at
    dimension n, read as scipy's ``_compute_lwork`` reads them; lrwork is
    0 for ``dsyevr``, which has no such array.  The block size of the
    tridiagonal reduction follows lwork, so these must be the sizes that
    scipy passes."""
    layout = _evr_layout(complex_, (n, 1, n), (-1, -1, -1))
    scratch = np.zeros(layout.size, dtype=np.uint8)
    _, info = _call_evr(complex_, b"N", b"A", scratch, layout)
    if info != 0:
        raise ValueError(f"LAPACK workspace query failed with info {info}")
    work, rwork, iwork = (scratch[at:at + 8].view(kind)[0] for at, kind in (
        (layout.work, float), (layout.rwork, float), (layout.iwork, np.intc)))
    return int(work), int(iwork), int(rwork) if complex_ else 0


def _call_evr(complex_: bool, job: bytes, span: bytes, scratch: np.ndarray,
              layout: _EvrLayout) -> tuple[int, int]:
    """One call of ``zheevr`` (``complex_``) or ``dsyevr``, with ``job``
    and ``span`` its JOBZ and RANGE, on the scratch array laid out by
    ``layout``: A is overwritten and the eigenvectors fill Z's rows.
    Returns M and INFO."""
    base = _address(scratch)
    scratch[:len(layout.scalars)] = layout.scalars
    n, il, iu, m, info, lwork, liwork, lrwork = range(base, base + 32, 4)
    head = (job, span, b"L", n, base + layout.a, n, base + 32, base + 40, il,
            iu, base + 48, m, base + layout.w, base + layout.z, n,
            base + layout.isuppz, base + layout.work, lwork)
    lapack = _lapack()
    if complex_:
        lapack.zheevr(*head, base + layout.rwork, lrwork,
                      base + layout.iwork, liwork, info, *lapack.lengths)
    else:
        lapack.dsyevr(*head, base + layout.iwork, liwork, info,
                      *lapack.lengths)
    return struct.unpack_from("=2i", scratch, 12)


def _evr_layout(complex_: bool, sizes: tuple[int, int, int],
                workspace: tuple[int, int, int]) -> _EvrLayout:
    """The :class:`_EvrLayout` of a call with N, IL and IU ``sizes`` and
    LWORK, LIWORK and LRWORK ``workspace``; a workspace query (-1 each)
    gets one entry of each array."""
    n, first, last = sizes
    query = workspace[0] < 0
    item = 16 if complex_ else 8
    lwork, liwork, lrwork = (max(1, size) for size in workspace)
    offsets = [64]
    for size in (8 * n, 8 * n, item * lwork, 8 * lrwork, 4 * liwork,
                 item * (1 if query else n * n),
                 item * (1 if query else n * (last - first + 1))):
        offsets.append(offsets[-1] + -(-size // 64) * 64)
    scalars = np.frombuffer(struct.pack("=8i3d", *sizes, 0, 0, *workspace,
                                        0.0, 1.0, 0.0), dtype=np.uint8)
    return _EvrLayout(scalars, *offsets)


def _arpack_lowest(matrix, k: int, tol: float, options: SolverOptions,
                   rng: np.random.Generator, product=None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Ritz values and vectors of the k lowest eigenvalues of the CSR
    ``matrix`` (:class:`~ringlat.hamiltonian.CSRArrays` or a scipy CSR
    matrix), or of the operator of the same shape and type whose
    ``product(x, y)`` writes its product with x into y.

    A real symmetric operator runs ARPACK's symmetric Lanczos in this
    module's own reverse-communication loop (:func:`_symmetric_lanczos`),
    with the arguments that ``eigsh(which="SA", v0=..., rng=...)`` passes,
    so its results are bit for bit those of ``eigsh``.  ``eigsh`` hands
    complex Hermitian operators to ``eigs`` without the generator, so those
    call ``eigs`` directly to keep the restart vectors seeded.
    """
    n = matrix.shape[0]
    ncv = min(n, max(options.max_krylov, 2 * k + 1))
    maxiter, arpack_tol = options.max_restarts + 1, tol * _ARPACK_TOL_FACTOR
    product = product or _csr_product(matrix)
    if np.dtype(matrix.dtype).kind == "f":
        values, vectors = _symmetric_lanczos(
            product, k, rng.standard_normal(n), rng, ncv, maxiter, arpack_tol)
    else:
        # Imported here, not at module level: only a complex operator's
        # Krylov solve needs it, and the import of scipy.sparse.linalg
        # takes about 0.25 s and 29 MB.
        from scipy.sparse.linalg import (
            ArpackNoConvergence,
            LinearOperator,
            eigs,
        )

        def matvec(x: np.ndarray) -> np.ndarray:
            y = np.empty(n, dtype=matrix.dtype)
            product(x.ravel(), y)
            return y

        start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        try:
            values, vectors = eigs(
                LinearOperator(matrix.shape, matvec, dtype=matrix.dtype), k,
                which="SR", v0=start, rng=rng, ncv=ncv, maxiter=maxiter,
                tol=arpack_tol)
        except ArpackNoConvergence as error:
            values, vectors = error.eigenvalues, error.eigenvectors
    if len(values) < k:
        raise ConvergenceError(
            f"ARPACK brought {len(values)}/{k} eigenpairs under residual tol "
            f"{arpack_tol:.3e} in {maxiter} iterations with ncv {ncv}")
    return values, vectors


def _csr_product(matrix):
    """``product(x, y)``, which writes the product of the CSR ``matrix``
    (a :class:`~ringlat.hamiltonian.CSRArrays` or a scipy CSR matrix) with
    x into y: scipy's ``csr_matvec`` adds each row's terms in order to
    zero, the sum that ``matrix @ x`` computes."""
    matvec = _scipy_extension("scipy.sparse._sparsetools").csr_matvec
    shape, arrays = matrix.shape, (matrix.indptr, matrix.indices, matrix.data)

    def product(x: np.ndarray, y: np.ndarray) -> None:
        y.fill(0.0)
        matvec(*shape, *arrays, x, y)

    return product


# The scipy extension modules that _scipy_extension loaded by file.
_EXTENSIONS = {}


def _scipy_extension(name: str):
    """The scipy extension module ``name`` (a dotted name under
    ``scipy``), loaded from its file without running the ``__init__`` of
    any scipy package: ``scipy.sparse.linalg`` alone imports about 150
    modules.  A module that ``sys.modules`` holds already is returned as
    it is.  One loaded here is kept here and left out of ``sys.modules``
    (a module of single-phase initialization enters itself there, and is
    taken out), so that a later import of its package imports it and
    binds it to the package as usual.  Where no such file lies under the
    directory that ``find_spec("scipy")`` reports, the module is imported
    as usual."""
    module = sys.modules.get(name) or _EXTENSIONS.get(name)
    if module is not None:
        return module
    package = _scipy_directory()
    if package is not None:
        stem = package.joinpath(*name.split(".")[1:])
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = stem.with_name(stem.name + suffix)
            if path.is_file():
                found = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(found)
                found.loader.exec_module(module)
                if sys.modules.get(name) is module:
                    del sys.modules[name]
                return _EXTENSIONS.setdefault(name, module)
    return importlib.import_module(name)


@functools.cache
def _arpack_routines():
    """ARPACK's ``dsaupd`` and ``dseupd`` as scipy wraps them for
    ``eigsh``: private routines, so a scipy without them fails here, on
    first use, by name."""
    _arpacklib = _scipy_extension(
        "scipy.sparse.linalg._eigen.arpack._arpacklib")
    routines = []
    for name in ("dsaupd_wrap", "dseupd_wrap"):
        routine = getattr(_arpacklib, name, None)
        if routine is None:
            raise ImportError(f"{_arpacklib.__name__} has no {name}, which "
                              f"the Krylov path of a real operator calls")
        routines.append(routine)
    return tuple(routines)


# The ARPACK state that scipy's _SymmetricArpackParams sets up for eigsh
# in mode 1 (A x = lambda x) with bmat "I" and which "SA" (7), before the
# sizes and tolerances of a run; every other counter starts at zero.
_SAUPD_STATE = {
    "which": 7, "bmat": 0, "mode": 1, "shift": 1,
    **dict.fromkeys(("getv0_rnorm0", "aitr_betaj", "aitr_rnorm1",
                     "aitr_wnorm", "aup2_rnorm"), 0.0),
    **dict.fromkeys(("ido", "iter", "nconv", "np", "getv0_first",
                     "getv0_iter", "getv0_itry", "getv0_orth", "aitr_iter",
                     "aitr_j", "aitr_orth1", "aitr_orth2", "aitr_restart",
                     "aitr_step3", "aitr_step4", "aitr_ierr", "aup2_initv",
                     "aup2_iter", "aup2_getv0", "aup2_cnorm", "aup2_kplusp",
                     "aup2_nev", "aup2_nev0", "aup2_np0", "aup2_numcnv",
                     "aup2_update", "aup2_ushift"), 0),
}


def _symmetric_lanczos(product, k: int, start: np.ndarray,
                       rng: np.random.Generator, ncv: int, maxiter: int,
                       tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest Ritz pairs of the real symmetric operator whose
    ``product(x, y)`` writes its product with x into y, from ARPACK's
    implicitly restarted Lanczos run by reverse communication (Lehoucq,
    Sorensen & Yang, *ARPACK Users' Guide*, SIAM 1998, sec. 2.3) from
    ``start``: the loop of scipy's ``eigsh(which="SA")``, with its state,
    work arrays and restart vectors from ``rng``, so the pairs are bit for
    bit those of ``eigsh``.  Fewer than k pairs come back where ARPACK did
    not converge in ``maxiter`` iterations."""
    saupd, seupd = _arpack_routines()
    n = len(start)
    state = {**_SAUPD_STATE, "tol": tol, "info": 1, "maxiter": maxiter,
             "n": n, "ncv": ncv, "nev": k}
    resid, v = np.array(start, dtype=float), np.zeros((n, ncv))
    workd, workl = np.zeros(3 * n), np.zeros(ncv * (ncv + 8))
    ipntr = np.zeros(11, dtype=np.int32)
    while True:
        saupd(state, resid, v, ipntr, workd, workl)
        ido = state["ido"]
        if ido == 1 or ido == 5:
            x, y = ipntr[0], ipntr[1]
            product(workd[x:x + n], workd[y:y + n])
        elif ido == 2:
            x, y = ipntr[0], ipntr[1]
            workd[y:y + n] = workd[x:x + n]
        elif ido == 4:
            resid[:] = rng.uniform(-1.0, 1.0, n)
        else:
            break
    info = state["info"]
    if info not in (0, 1):
        raise ConvergenceError(f"ARPACK dsaupd failed with info {info}")
    values, vectors = np.zeros(k), np.zeros((n, ncv), order="F")
    state["info"] = 0
    seupd(state, True, 0, np.zeros(ncv, dtype=np.int32), values, vectors,
          0.0, resid, v, ipntr, workd, workl)
    if state["info"] != 0:
        if info == 1:
            return values[:0], vectors[:, :0]
        raise ConvergenceError(f"ARPACK dseupd failed with info "
                               f"{state['info']}")
    found = state["nconv"]
    return values[:found], vectors[:, :found].copy(order="C")


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


def _absolute_row_sums(matrix) -> np.ndarray:
    """The sum of |entries| of each row of the CSR ``matrix``, bit for bit
    scipy's ``abs(matrix).sum(axis=1)``: ``np.add.reduceat`` of |data| at
    the start of each row that holds an entry, 0 for a row that holds
    none (scipy's ``_minor_reduce``)."""
    indptr = matrix.indptr
    held = np.flatnonzero(np.diff(indptr))
    sums = np.zeros(len(indptr) - 1)
    sums[held] = np.add.reduceat(np.abs(matrix.data), indptr[held])
    return sums


def _lock_loop(op: HermitianOperator, values: np.ndarray,
               vectors: np.ndarray, k: int, tol: float, degeneracy_tol: float,
               options: SolverOptions, rng: np.random.Generator
               ) -> tuple[np.ndarray, np.ndarray]:
    """The Ritz pairs of the main run, with every missed copy of the k-th
    level and the next pair above it added.  The pairs found are kept as
    they are unless a missed copy joins them."""
    # ARPACK can skip copies of a degenerate level.  Lock the pairs found by
    # shifting them above the spectrum (H + s*V*V^H; 2*max|row sum| bounds
    # the spread) and take the lowest pair of the rest.  A copy of a level
    # up to the k-th is added by Rayleigh-Ritz, and the loop goes on; a
    # pair above the k-th level is the next one, inserted in order.
    shift = 1.0 + 2.0 * float(_absolute_row_sums(op.matrix).max())
    multiply = _csr_product(op.matrix)
    while len(values) < op.dimension:
        top = values[_level_end(values, k, degeneracy_tol) - 1]
        locked, locked_conj = vectors, vectors.conj()

        def product(x: np.ndarray, y: np.ndarray) -> None:
            multiply(x, y)
            y += shift * np.einsum("ij,j->i", locked,
                                   np.einsum("ij,i->j", locked_conj, x))

        _, found = _arpack_lowest(op.matrix, 1, tol, options, rng, product)
        extra = found[:, 0]
        value = np.vdot(extra, op.matrix @ extra).real
        if value >= top + degeneracy_tol:
            at = int(np.searchsorted(values, value))
            return (np.insert(values, at, value),
                    np.insert(vectors, at, extra, axis=1))
        values, vectors = _rayleigh_ritz(op, np.column_stack([locked, extra]))
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
