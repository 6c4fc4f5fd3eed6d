"""What a result was measured on: code, interpreter, libraries and machine."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

# glibc sysconf names for the data cache sizes (bits/confname.h).
_SC_LEVEL1_DCACHE_SIZE = 188
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env=env, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(root: Path) -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_bytes() -> dict:
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return {}
    sizes = {"l1d": _SC_LEVEL1_DCACHE_SIZE, "l2": _SC_LEVEL2_CACHE_SIZE,
             "l3": _SC_LEVEL3_CACHE_SIZE}
    return {name: int(libc.sysconf(code)) for name, code in sizes.items()}


def _openblas_libs(module):
    """The OpenBLAS libraries bundled with numpy or scipy, as loaded."""
    libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            yield ctypes.CDLL(str(lib))
        except OSError:
            continue


def _function(handle, name: str):
    """``name`` in one of the symbol spellings of the OpenBLAS builds."""
    for symbol in (f"scipy_{name}64_", f"scipy_{name}", f"{name}64_", name):
        function = getattr(handle, symbol, None)
        if function is not None:
            return function
    return None


def _openblas_threads(module) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy or scipy, if any."""
    for handle in _openblas_libs(module):
        function = _function(handle, "openblas_get_num_threads")
        if function is not None:
            function.restype = ctypes.c_int
            return int(function())
    return None


def set_openblas_threads(count: int) -> None:
    """Cap the OpenBLAS of numpy and of scipy at ``count`` threads."""
    import numpy
    import scipy

    for module in (numpy, scipy):
        for handle in _openblas_libs(module):
            function = _function(handle, "openblas_set_num_threads")
            if function is not None:
                function(ctypes.c_int(count))


def collect(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "openblas_threads_numpy": _openblas_threads(numpy),
        "openblas_threads_scipy": _openblas_threads(scipy),
        "cache_bytes": _cache_bytes(),
        "machine": platform.machine(),
    }
