"""Reproducible Haar sampling on the unitary and orthogonal groups.

A sample is the QR factorization of an i.i.d. Gaussian (Ginibre) matrix with
the gauge freedom of QR removed: each column of Q is rescaled by the unit
phase (complex case) or sign (real case) of the corresponding diagonal entry
of R, which makes the triangular factor's diagonal positive.  Skipping that
correction does NOT give Haar measure.

One engine samples every replica: it draws each replica of a chunk from its
own Generator, seeded by (master_seed, replica_index), into one
(k, planes, n, n) Gaussian buffer, and factorizes the (k, n, columns) stack
of leading columns.  A chunk holds about 256 KiB of Gaussian draws
(`_CHUNK_BYTES`): 128 replicas at n = 16 (real), one at n = 400.  A
chunk's fixed cost (the stacked QR call, the gauge fix, the stack function
and the chunk's Generator, 70-100 us) is thus spread over many small
matrices, and the buffer stays small even when few columns are read.
`map_replicas` hands each chunk's leading (k, rows, columns) block to a
stack function returning one row per replica, and a thread pool maps over
chunks.  The block comes by one of two routes:

- Householder, the default: one stacked QR, the gauge fix, and Q's leading
  rows.  Stacked QR runs the same LAPACK calls on each matrix as a single
  QR, so a replica is bitwise the same for any chunk size or worker count;
  `haar_sample` is the engine at k = 1, on one BLAS thread as well, and
  `map_replicas` with the identity stack function gives whole replicas.
- R alone, when fewer than n rows are read and one replica's n x columns
  block exceeds 32 KiB (`_R_ONLY_BYTES`), replica by replica.
  With G = QR, Q's leading rows are G[:rows] R^-1, so R from LAPACK
  `geqrf` and one triangular solve (CBLAS `trsm`), both called in numpy's
  bundled OpenBLAS through ctypes (`_r_only_calls`), give them without
  forming Q (LAPACK `ungqr`) and without the gauge fix (Stewart, SIAM J.
  Numer. Anal. 17, 1980).  Each column then differs from Haar's by the
  unit phase of R's diagonal entry, which squared moduli |U_ij|^2 and the
  spectrum of V V* for V = U[:p, :q] do not see; the moduli agree with
  Householder's to rounding, about 1e-13 at n = 400.  R is
  `np.linalg.qr(g, mode="r")` bit for bit, but numpy holds the GIL through
  that call at these sizes, so pool workers took turns in it; ctypes
  releases the GIL.  For one 400 x 300 block on one BLAS thread, two
  threads got through 1.4-2.4 (complex) and 1.6-2.0 (real) times the QRs
  of one, against 0.9-1.1 times through numpy.  100 unitary replicas at
  n = 400 with 300 rows and columns took 1.0-1.1 s on two workers against
  1.5-1.6 s through numpy (1.8-1.9 s and 2.4 s on one).  Smaller blocks
  keep Householder: there a QR and a solve per replica cost more than
  their share of one stacked QR and gauge fix (5000 orthogonal replicas
  of n = 16, 14 x 14, in chunks of 36: 0.44-0.48 s against 0.27-0.30 s).
  Without the bundled library, or any of the four calls in it, every chunk
  takes Householder.  All timings on a shared 2-core x86-64 host, BLAS on
  one thread.

The route depends only on the group, n, rows and columns, never on the
chunk size or the worker count, so rows stay the same for any of them.

A replica's stream is `np.random.default_rng((master_seed, index))` bit for
bit, but the engine builds no `SeedSequence` and PCG64 per replica (12-20
us each).  It ports both seedings.  `_seed_words` hashes the entropy words
of (master_seed, i) for all of a call's replicas at once in uint32 numpy
arithmetic, as `SeedSequence` mixes its pool and runs
`generate_state(4, uint64)` (NEP 19; O'Neill, "Developing a seed_seq
alternative", 2015): about 0.3 us per replica after a fixed 0.1 ms, which
a pass per chunk would pay again for every chunk of one or two replicas.
`_replica_rngs` then does PCG64's seeding step on Python ints and loads
each state into the chunk's one Generator through `bit_generator.state`.
Pool threads run chunks concurrently, so a Generator never leaves its
chunk.  Seeding costs 5 us per replica in chunks of many replicas (4.6 us
over 20 000 at once), and about what `default_rng` costs in chunks of one.
The entropy is the master's words (one below 2^32, two up to 2^64)
followed by the index's low and high words.  The pool holds four words and
`SeedSequence` hashes an unused one as 0, so an index below 2^32, whose
entropy has no high word, mixes the same as with a zero high word: the
port covers every master and index that `SeedSpec` accepts.

Under Householder QR the first q columns of Q depend only on the first q
Gaussian columns (Mezzadri, Notices AMS 54, 2007), and so does R.  A
statistic that reads only the leading `columns` of U therefore factorizes
just those: the full n x n Gaussian is still drawn, so the random stream and
the replica are the same, and the returned block agrees with the full
sample's leading columns to rounding (about 1e-16 per entry).

`single_threaded_blas` pins numpy's bundled OpenBLAS to one thread while
replicas are sampled, whatever the worker count: OpenBLAS's threaded
kernels round differently from its serial ones, and parallelism then lives
at one level, pool threads, not BLAS threads competing with them.
`keep_sample_memory` keeps glibc from unmapping the freed arrays of one
chunk only to page-fault them in again for the next.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DimensionError, InsufficientReplicasError

# Gaussian draw bytes per chunk (k n^2 itemsize): 128 replicas at n = 16 (real), one at n = 400
_CHUNK_BYTES = 256 << 10
# One replica's sampled block (n columns itemsize) above which rows < n take R alone
_R_ONLY_BYTES = 32 << 10
_DTYPE = {"unitary": np.dtype(np.complex128), "orthogonal": np.dtype(np.float64)}
_SQRT_HALF = 1 / np.sqrt(2.0)
# The largest n whose (2, n, n) float64 draw numpy can size at all; above it
# numpy's own errors ("Maximum allowed dimension exceeded") name no value.
_MAX_N = math.isqrt(np.iinfo(np.intp).max // 16)


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic address of one replica's random stream.

    The stream is `rng()`, `default_rng((master_seed, replica_index))`, both
    below 2^64.  The engine seeds its replicas in one batched pass to the
    same states (`_seed_words`, `_replica_rngs`).
    """

    master_seed: int
    replica_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(
                f"master_seed must be an unsigned 64-bit integer, got {self.master_seed}")
        if not 0 <= self.replica_index < 2**64:
            raise ValueError(
                f"replica_index must be an unsigned 64-bit integer, got {self.replica_index}")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng((self.master_seed, self.replica_index))


# numpy's SeedSequence (a pool of 4 uint32 words) and PCG64 seeding constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hash of the entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hash of generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


@functools.lru_cache(maxsize=1)
def _hash_constants() -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's hash constants INIT MULT^t mod 2^32: 17 for mixing, 9 for output.

    Its hash call t xors with constant t and multiplies by constant t + 1.
    """
    def powers(init: int, mult: int, count: int) -> np.ndarray:
        consts = [init]
        for _ in range(count - 1):
            consts.append(consts[-1] * mult & _MASK32)
        return np.array(consts, dtype=np.uint32)

    return powers(_INIT_A, _MULT_A, 17), powers(_INIT_B, _MULT_B, 9)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's `hashmix` of column j of value, as hash call j of `consts`."""
    value = value ^ consts[:-1]
    value *= consts[1:]
    value ^= value >> 16
    return value


def _seed_words(master_seed: int, indices: range) -> np.ndarray:
    """`SeedSequence((master_seed, i)).generate_state(4, np.uint64)`, one row per index < 2^64.

    All rows in one pass of uint32 numpy arithmetic.
    """
    SeedSpec(master_seed)  # rejects a master outside [0, 2^64)
    mixing, output = _hash_constants()
    words = [master_seed & _MASK32] + ([master_seed >> 32] if master_seed >> 32 else [])
    pool = np.zeros((len(indices), 4), dtype=np.uint32)  # the entropy, zero-padded
    pool[:, :len(words)] = words
    index = np.arange(len(indices), dtype=np.uint64) + indices.start
    pool[:, len(words):len(words) + 2] = index.astype("<u8").view("<u4").reshape(-1, 2)
    pool = _hashmix(pool, mixing[:5])
    for src in range(4):  # word src mixes into the 3 others, one hash call each
        dst = [d for d in range(4) if d != src]
        t = 4 + 3 * src
        h = _hashmix(pool[:, src, None], mixing[t:t + 4])
        mixed = pool[:, dst] * _MIX_L - h * _MIX_R
        mixed ^= mixed >> 16
        pool[:, dst] = mixed
    # the output: 8 words cycling the pool, read as 4 uint64
    return _hashmix(np.tile(pool, 2), output).astype("<u4").view("<u8")


def _replica_rngs(words: np.ndarray) -> Iterator[np.random.Generator]:
    """One Generator per row of `_seed_words(m, indices)`, in the state of `SeedSpec(m, i).rng()`.

    The same Generator is reseeded for each row, so draw from it before
    taking the next one, and keep it to the calling thread.
    """
    rng = np.random.default_rng(0)
    bit_generator = rng.bit_generator
    pcg = {"state": 0, "inc": 0}  # one state dict, refilled for each replica
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for s_hi, s_lo, i_hi, i_lo in words.tolist():
        # PCG64's seeding: state 0, a step, add the seed, a step
        inc = pcg["inc"] = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = state
        yield rng


def sampled_block(group: str, n: int, columns: int | None) -> tuple[int, np.dtype]:
    """(columns, dtype) of one sampled n x columns block; columns defaults to n.

    Raises ValueError, naming the value, for a group, n or columns that
    cannot be sampled.
    """
    if group not in _DTYPE:
        raise ValueError(f"unknown group {group!r}")
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    if n > _MAX_N:
        raise ValueError(f"matrix size must be at most {_MAX_N} to be sampled, got {n}")
    columns = n if columns is None else columns
    if not 1 <= columns <= n:
        raise ValueError(f"columns must lie in [1, {n}], got {columns}")
    return columns, _DTYPE[group]


def _gauge_fix(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Scale each column of Q by the unit phase d / |d| of R's diagonal entry.

    For real d that is exactly +-1.0; a zero diagonal entry leaves its column.
    """
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mod = np.abs(d)
    phase = np.where(mod > 0, d / np.where(mod > 0, mod, 1.0), 1.0)
    return q * phase[..., None, :]


def _haar_stack(group: str, n: int, words: np.ndarray, columns: int | None,
                rows: int | None = None,
                r_only: tuple[Callable, Callable] | None = None) -> np.ndarray:
    """Leading `rows` x `columns` of the replicas whose `_seed_words` rows are `words`, stacked.

    Each replica's full n x n Gaussian is one `standard_normal` call into its
    (planes, n, n) slot of one chunk buffer: one plane for a real matrix, two
    (real, then imaginary) for a complex one, the stream of one (n, n) call
    per plane.  A complex entry is (re + i im) / sqrt(2), written for the
    whole chunk by one product by 1/sqrt(2) into the float view of the
    stack: numpy divides a complex number by a real one as a product with
    the reciprocal, so this is the quotient bit for bit.  A real stack is a
    view of the buffer, as both routes copy what they factor.

    Without `r_only` this is Householder Q with the gauge fix.  With the
    `(qr_r, solve)` of `_r_only_calls`, each G's R alone is computed and
    `solve` overwrites a copy of G's leading rows with G[:rows] R^-1: Q's
    rows, each column still carrying R's phase.
    """
    cols, dtype = sampled_block(group, n, columns)
    k = len(words)
    draws = np.empty((k, 2 if dtype.kind == "c" else 1, n, n))
    for i, rng in enumerate(_replica_rngs(words)):
        rng.standard_normal(out=draws[i])
    if dtype.kind == "c":
        z = np.empty((k, n, cols), dtype=dtype)
        planes = z.view(np.float64).reshape(k, n, cols, 2).transpose(0, 3, 1, 2)
        np.multiply(draws[..., :cols], _SQRT_HALF, out=planes)
        del draws  # freed before the QR: 2.6 MB at n = 400
    else:
        z = draws[:, 0, :, :cols]
    if r_only is not None:
        qr_r, solve = r_only
        x = z[:, :rows].copy()  # the solve is in place; a view would overwrite G
        for xk, zk in zip(x, z):
            solve(xk, qr_r(zk))
        return x
    q, r = np.linalg.qr(z)
    return _gauge_fix(q[:, :rows], r)


def haar_sample(group: str, n: int, seed: SeedSpec, columns: int | None = None) -> np.ndarray:
    """Leading `columns` (default all n) of one Haar n x n matrix: the engine at k = 1."""
    i = seed.replica_index
    words = _seed_words(seed.master_seed, range(i, i + 1))
    with single_threaded_blas():  # as `map_replicas`: threaded BLAS rounds differently
        return _haar_stack(group, n, words, columns)[0]


def map_replicas(group: str, n: int, replicas: int, master_seed: int,
                 stack_fn: Callable[[np.ndarray], np.ndarray], workers: int = 1,
                 columns: int | None = None, rows: int | None = None) -> np.ndarray:
    """Rows of replicas 0 .. replicas-1, one chunk of them per stack_fn call.

    stack_fn maps the (k, rows, columns) stack of the leading `rows` x
    `columns` (defaults all n) of k consecutive replicas to their k rows, in
    order; each chunk writes only its own rows, so rows are the same for any
    chunk size and worker count, BLAS being single-threaded.  With workers
    > 1 a pool of min(workers, chunks, `_usable_cpus()`) threads runs the
    chunks; one worker runs them in this thread.  With rows < n
    and a replica's block over `_R_ONLY_BYTES` the block comes from R alone
    (`_haar_stack`): its columns are Haar's up to unit phases, which squared
    moduli and the spectrum of V V* do not see.  Freed sample arrays are kept
    for reuse (`keep_sample_memory`).
    """
    if replicas < 1:
        raise InsufficientReplicasError("need at least one replica")
    cols, dtype = sampled_block(group, n, columns)
    rows = n if rows is None else rows
    if not 1 <= rows <= n:
        raise ValueError(f"rows must lie in [1, {n}], got {rows}")
    step = max(1, _CHUNK_BYTES // (n * n * dtype.itemsize))  # replicas per chunk
    r_only = _r_only_calls() if rows < n and n * cols * dtype.itemsize > _R_ONLY_BYTES else None
    # every replica's seed words in one pass: a pass per chunk costs about
    # 0.1 ms, more than it saves on chunks of a few replicas
    words = _seed_words(master_seed, range(replicas))
    keep_sample_memory()

    def compute(lo: int) -> np.ndarray:
        return stack_fn(_haar_stack(group, n, words[lo:lo + step], columns, rows, r_only))

    starts = range(0, replicas, step)
    out = None
    # BLAS runs on one thread for every worker count: OpenBLAS's threaded
    # kernels round differently from its serial ones (at n = 400, say), so a
    # thread count that followed `workers` would change the rows with it.
    # The pool gets no more threads than chunks or usable CPUs: a thread
    # beyond those adds no speed, only a chunk's arrays held at once.
    with single_threaded_blas():
        threads = min(workers, len(starts), _usable_cpus())
        pool = concurrent.futures.ThreadPoolExecutor(threads) if workers > 1 else None
        with pool or contextlib.nullcontext():  # workers <= 1: no pool, all in this thread
            for lo, chunk in zip(starts, (pool.map if pool else map)(compute, starts)):
                if out is None:
                    out = np.empty((replicas, *chunk.shape[1:]), dtype=chunk.dtype)
                out[lo:lo + step] = chunk
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call (macOS, Windows)
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=1)
def _openblas():
    """numpy's bundled OpenBLAS (`libscipy_openblas64_`), or None.

    Loaded on first use, so importing the package loads nothing extra.
    """
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


@functools.lru_cache(maxsize=1)
def _openblas_thread_calls():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    lib = _openblas()
    try:
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except AttributeError:  # no library (None) or no such symbol
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


# CBLAS enum values, from <cblas.h>
_ROW_MAJOR, _NO_TRANS, _UPPER, _NON_UNIT, _RIGHT = 101, 111, 121, 131, 142


@functools.lru_cache(maxsize=1)
def _r_only_calls():
    """(qr_r, solve) on numpy's bundled OpenBLAS, or None without the library.

    Both take float64 or complex128 arrays and call the library through
    ctypes, which releases the GIL, so pool threads overlap in them; the
    library's sizes are 64-bit.  Resolved on first use of the R-only route,
    and None unless all four symbols are there.

    qr_r(a) returns the upper-triangular R of the m x k array a, C-ordered:
    LAPACK `geqrf` on a Fortran-ordered copy, with the workspace its
    `lwork = -1` query asks for.  numpy's `np.linalg.qr(a, mode="r")` makes
    the same calls on the same library (`qr_r_raw`) but holds the GIL
    through them, so R is the same bit for bit.

    solve(x, r) overwrites the m x k block x with x R^-1 for the k x k
    upper-triangular R: one CBLAS `trsm` call, row-major, R on the right;
    the enums are C ints.
    """
    lib = _openblas()
    try:
        dgeqrf, zgeqrf = lib.scipy_dgeqrf_64_, lib.scipy_zgeqrf_64_
        dtrsm, ztrsm = lib.scipy_cblas_dtrsm64_, lib.scipy_cblas_ztrsm64_
    except AttributeError:  # no library (None) or no such symbol
        return None
    size = ctypes.POINTER(ctypes.c_int64)
    for geqrf in (dgeqrf, zgeqrf):  # (m, n, a, lda, tau, work, lwork, info), all by address
        geqrf.argtypes = [size, size, ctypes.c_void_p, size, ctypes.c_void_p,
                          ctypes.c_void_p, size, size]
        geqrf.restype = None
    head = [ctypes.c_int] * 5 + [ctypes.c_int64] * 2
    tail = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
    dtrsm.argtypes = head + [ctypes.c_double] + tail  # alpha by value
    ztrsm.argtypes = head + [ctypes.c_void_p] + tail  # alpha by address
    dtrsm.restype = ztrsm.restype = None
    complex_one = (ctypes.c_double * 2)(1.0, 0.0)

    def qr_r(a: np.ndarray) -> np.ndarray:
        if not (a.ndim == 2 and a.dtype in (np.float64, np.complex128)):
            raise ValueError(f"cannot factor a {a.dtype} {a.shape} array")
        f = np.array(a, order="F")  # geqrf overwrites it with R and the reflectors
        m, k = f.shape
        geqrf = zgeqrf if f.dtype.kind == "c" else dgeqrf
        tau = np.empty(min(m, k), dtype=f.dtype)

        def call(work: np.ndarray, lwork: int) -> None:
            info = ctypes.c_int64(0)
            geqrf(ctypes.byref(ctypes.c_int64(m)), ctypes.byref(ctypes.c_int64(k)),
                  f.ctypes.data, ctypes.byref(ctypes.c_int64(max(1, m))), tau.ctypes.data,
                  work.ctypes.data, ctypes.byref(ctypes.c_int64(lwork)), ctypes.byref(info))
            if info.value < 0:
                raise ValueError(f"geqrf rejected its argument {-info.value}")

        work = np.empty(1, dtype=f.dtype)
        call(work, -1)  # the workspace query: the size lands in work[0]
        lwork = max(1, k, int(work[0].real))  # numpy's size, so numpy's blocking
        call(np.empty(lwork, dtype=f.dtype), lwork)
        return np.triu(f[:min(m, k)])

    def solve(x: np.ndarray, r: np.ndarray) -> None:
        m, k = x.shape
        r = np.ascontiguousarray(r)  # the call reads both by address
        if not (x.flags.c_contiguous and r.shape == (k, k) and r.dtype == x.dtype
                and x.dtype in (np.float64, np.complex128)):
            raise ValueError(f"cannot solve a {x.dtype} {x.shape} block by "
                             f"a {r.dtype} {r.shape} triangle")
        trsm, alpha = (ztrsm, complex_one) if x.dtype.kind == "c" else (dtrsm, 1.0)
        trsm(_ROW_MAJOR, _RIGHT, _UPPER, _NO_TRANS, _NON_UNIT, m, k, alpha,
             r.ctypes.data, k, x.ctypes.data, k)

    return qr_r, solve


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

    The replica engine allocates and frees the same few megabytes per chunk.
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
