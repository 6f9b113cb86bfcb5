"""Reproducible Haar sampling on the unitary and orthogonal groups.

A sample is the QR factorization of an i.i.d. Gaussian (Ginibre) matrix with
the gauge freedom of QR removed: each column of Q is rescaled by the unit
phase (complex case) or sign (real case) of the corresponding diagonal entry
of R, which makes the triangular factor's diagonal positive.  Skipping that
correction does NOT give Haar measure.

Every replica is generated from its own Generator seeded by the pair
(master_seed, replica_index), so a replica's matrix is bitwise reproducible
regardless of how replicas are scheduled across workers.

Under Householder QR the first q columns of Q depend only on the first q
Gaussian columns (Mezzadri, Notices AMS 54, 2007).  A statistic that reads
only the leading `columns` of U therefore factorizes just those: the full
n x n Gaussian is still drawn, so the random stream and the replica are the
same, and the returned n x columns block agrees with the full sample's
leading columns to rounding (about 1e-16 per entry).

`single_threaded_blas` pins numpy's bundled OpenBLAS to one thread while
replicas are sampled, whatever the worker count: OpenBLAS's threaded
kernels round differently from its serial ones, and parallelism then lives
at one level, pool threads, not BLAS threads competing with them.
`keep_sample_memory` keeps glibc from unmapping the freed arrays of one
replica only to page-fault them in again for the next.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic address of one replica's random stream."""

    master_seed: int
    replica_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(
                f"master_seed must be an unsigned 64-bit integer, got {self.master_seed}")
        if self.replica_index < 0:
            raise ValueError("replica_index must be non-negative")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng((self.master_seed, self.replica_index))


def _as_seed(seed) -> SeedSpec:
    return seed if isinstance(seed, SeedSpec) else SeedSpec(int(seed))


def _ginibre(rng: np.random.Generator, n: int, columns: int, complex_case: bool) -> np.ndarray:
    """Leading `columns` of one n x n Gaussian draw; the draw itself is always full."""
    if complex_case:
        re = rng.standard_normal((n, n))
        im = rng.standard_normal((n, n))
        return (re[:, :columns] + 1j * im[:, :columns]) / np.sqrt(2.0)
    return rng.standard_normal((n, n))[:, :columns]


def _column_count(n: int, columns: int | None) -> int:
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    if columns is None:
        return n
    if not 1 <= columns <= n:
        raise ValueError(f"columns must lie in [1, {n}], got {columns}")
    return columns


def _gauge_fix(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Scale each column of Q by the unit phase d / |d| of R's diagonal entry.

    For real d that is exactly +-1.0; a zero diagonal entry leaves its column.
    """
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mod = np.abs(d)
    phase = np.where(mod > 0, d / np.where(mod > 0, mod, 1.0), 1.0)
    return q * phase[..., None, :]


def _haar(n: int, seed, columns: int | None, complex_case: bool) -> np.ndarray:
    cols = _column_count(n, columns)
    q, r = np.linalg.qr(_ginibre(_as_seed(seed).rng(), n, cols, complex_case))
    return _gauge_fix(q, r)


def haar_unitary(n: int, seed, columns: int | None = None) -> np.ndarray:
    """Leading `columns` (default all n) of one Haar n x n unitary for the SeedSpec."""
    return _haar(n, seed, columns, True)


def haar_orthogonal(n: int, seed, columns: int | None = None) -> np.ndarray:
    """Leading `columns` (default all n) of one Haar n x n orthogonal for the SeedSpec."""
    return _haar(n, seed, columns, False)


def haar_sample(group: str, n: int, seed, columns: int | None = None) -> np.ndarray:
    if group == "unitary":
        return haar_unitary(n, seed, columns)
    if group == "orthogonal":
        return haar_orthogonal(n, seed, columns)
    raise ValueError(f"unknown group {group!r}")


def haar_batch(group: str, n: int, count: int, master_seed: int,
               start: int = 0, chunk: int = 4096) -> np.ndarray:
    """Stack of replicas start .. start+count-1, identical to per-replica calls.

    Gaussians are drawn per replica from the replica's own stream, then QR is
    applied to whole chunks at once; the chunk size does not affect values.
    Intended for mass statistics at small n where call overhead dominates.
    """
    if group not in ("unitary", "orthogonal"):
        raise ValueError(f"unknown group {group!r}")
    complex_case = group == "unitary"
    out = np.empty((count, n, n), dtype=np.complex128 if complex_case else np.float64)
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        z = np.empty((hi - lo, n, n), dtype=out.dtype)
        for idx in range(lo, hi):
            z[idx - lo] = _ginibre(SeedSpec(master_seed, start + idx).rng(), n, n, complex_case)
        q, r = np.linalg.qr(z)
        out[lo:hi] = _gauge_fix(q, r)
    return out


@functools.lru_cache(maxsize=1)
def _openblas_thread_calls():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None.

    Resolved on first use, so importing the package loads nothing extra.
    """
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


@contextlib.contextmanager
def single_threaded_blas():
    """Run the block with numpy's OpenBLAS on one thread, then restore its count.

    Without a bundled OpenBLAS this does nothing: every replica then runs
    with the same BLAS threads, so values still do not depend on the worker
    count; only the pool may be slower.  The count is process-wide, so
    blocks entered concurrently from several threads restore it in exit
    order, not nesting order.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get_threads, set_threads = calls
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


# glibc's `mallopt` parameters, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Blocks below this come from the heap; 32 MiB is glibc's ceiling and holds
# the n x n complex arrays of a replica up to n of about 1400.
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


@functools.lru_cache(maxsize=1)
def _mallopt():
    """glibc's `mallopt`, or None where the C library has none."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    fn.argtypes, fn.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return fn


def keep_sample_memory() -> None:
    """Make glibc keep freed sample-sized arrays for reuse instead of unmapping them.

    A replica loop allocates and frees the same few megabytes per replica.
    glibc's default thresholds move with the process's allocation history:
    in some processes it reuses those blocks, in others it returns them to
    the kernel after every replica and the next replica page-faults them in
    again (about 2000 faults, 8 MB, per n = 400 unitary replica), so 200
    replicas at n = 400 spent from 0.02 s to 0.5 s in the kernel depending
    on the process.  Fixed thresholds make every process reuse them.  The
    setting is process-wide and stays; blocks of 32 MiB and more are still
    unmapped when freed, and without glibc this does nothing.
    """
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def orthonormality_residual(m: np.ndarray) -> float:
    """Max-norm of M M* - I; the sampling health check."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    gram = m @ m.conj().T
    return float(np.max(np.abs(gram - np.eye(m.shape[0]))))
