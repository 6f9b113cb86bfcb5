import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from haartrace.empirics import map_replicas, process_value, sample_process_values, trace_field
from haartrace import empirics, sampling
from haartrace.errors import DimensionError
from haartrace.sampling import (
    SeedSpec,
    _gauge_fix,
    _ginibre,
    _mallopt,
    _openblas_thread_calls,
    _r_only_calls,
    haar_batch,
    haar_sample,
    orthonormality_residual,
)


def test_seedspec_validation():
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError, match="-1"):
        SeedSpec(0, -1)
    with pytest.raises(ValueError, match=str(2**64)):
        SeedSpec(0, 2**64)
    with pytest.raises(ValueError):
        haar_sample("unitary", 0, SeedSpec(1))


def test_determinism_bitwise():
    for group in ("unitary", "orthogonal"):
        a = haar_sample(group, 24, SeedSpec(123, 5))
        b = haar_sample(group, 24, SeedSpec(123, 5))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, haar_sample(group, 24, SeedSpec(123, 6)))
        assert not np.array_equal(a, haar_sample(group, 24, SeedSpec(124, 5)))


def test_int_seed_is_replica_zero():
    assert np.array_equal(haar_sample("unitary", 8, 77),
                          haar_sample("unitary", 8, SeedSpec(77, 0)))


def _chunks_of(monkeypatch, k, n, columns, group):
    """Set the engine's byte budget so that its chunks hold k replicas."""
    block = n * columns * sampling._DTYPE[group].itemsize
    monkeypatch.setattr(sampling, "_CHUNK_BYTES", k * block + block // 2)


def test_batch_equals_per_replica(monkeypatch):
    _chunks_of(monkeypatch, 7, 6, 6, "unitary")
    batch = haar_batch("unitary", 6, 40, master_seed=9)
    for i in range(40):
        assert np.array_equal(batch[i], haar_sample("unitary", 6, SeedSpec(9, i)))
    _chunks_of(monkeypatch, 13, 6, 6, "orthogonal")
    batch_o = haar_batch("orthogonal", 6, 40, master_seed=9)
    for i in range(40):
        assert np.array_equal(batch_o[i], haar_sample("orthogonal", 6, SeedSpec(9, i)))


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
@pytest.mark.parametrize("chunk", [1, 7, 13])
@pytest.mark.parametrize("workers", [0, 1, 2])
def test_engine_rows_are_distinct_per_replica_samples(monkeypatch, group, chunk, workers):
    # 40 replicas split into chunks of 7 or 13 leave a short last chunk; a
    # replica drawn twice, skipped or taken from a neighbour's stream fails.
    # workers=0 runs in this thread, as workers=1 does
    n, columns, replicas, master = 6, 4, 40, 21
    _chunks_of(monkeypatch, chunk, n, columns, group)
    sizes = []

    def flatten(z):
        sizes.append(len(z))
        return z.reshape(len(z), -1)

    rows = map_replicas(group, n, replicas, master, flatten,
                        workers=workers, columns=columns)
    assert sorted(sizes, reverse=True) == [chunk] * (replicas // chunk) + (
        [replicas % chunk] if replicas % chunk else [])
    assert rows.shape == (replicas, n * columns)
    assert len(np.unique(rows, axis=0)) == replicas
    for i in range(replicas):
        want = haar_sample(group, n, SeedSpec(master, i), columns=columns)
        assert np.array_equal(rows[i], want.ravel())


def test_orthonormality_residual_examples():
    assert orthonormality_residual(np.eye(4)) == 0.0
    assert orthonormality_residual(np.diag([2.0, 1.0, 1.0])) == 3.0
    with pytest.raises(DimensionError):
        orthonormality_residual(np.ones((2, 3)))


@pytest.mark.parametrize("n", [8, 64, 256, 512])
def test_haar_samples_are_orthonormal(n):
    assert orthonormality_residual(haar_sample("unitary", n, SeedSpec(11, n))) <= 1e-12
    assert orthonormality_residual(haar_sample("orthogonal", n, SeedSpec(11, n))) <= 1e-12


def test_n_equals_one():
    u = haar_sample("unitary", 1, SeedSpec(3, 0))
    assert abs(abs(u[0, 0]) - 1.0) < 1e-15
    signs = {np.sign(haar_sample("orthogonal", 1, SeedSpec(3, i))[0, 0]) for i in range(32)}
    assert signs == {-1.0, 1.0}


def test_real_gauge_fix_is_the_sign_rule():
    # one phase formula serves both groups: for real R it must give exactly
    # the sign of each diagonal entry, with 0 and -0.0 keeping their column
    rng = np.random.default_rng(8)
    q = rng.standard_normal((3, 6, 6))
    r = rng.standard_normal((3, 6, 6))
    r[0, 1, 1], r[1, 2, 2], r[2, 3, 3] = 0.0, -0.0, -1e-300
    d = np.diagonal(r, axis1=-2, axis2=-1)
    want = q * np.where(d >= 0, 1.0, -1.0)[..., None, :]
    got = _gauge_fix(q, r)
    assert got.dtype == np.float64 and np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_unitary_entry_second_moment():
    n, reps = 16, 100_000
    x = np.abs(haar_batch("unitary", n, reps, master_seed=61)[:, 0, 0]) ** 2
    se = x.std(ddof=1) / np.sqrt(reps)
    assert abs(x.mean() - 1 / n) < 3 * se


def test_orthogonal_entry_moments():
    n, reps = 16, 100_000
    x = haar_batch("orthogonal", n, reps, master_seed=62)[:, 0, 0] ** 2
    se = x.std(ddof=1) / np.sqrt(reps)
    assert abs(x.mean() - 1 / n) < 3 * se
    n, reps = 8, 100_000
    x4 = haar_batch("orthogonal", n, reps, master_seed=63)[:, 0, 0] ** 4
    se4 = x4.std(ddof=1) / np.sqrt(reps)
    assert abs(x4.mean() - 3 / (n * (n + 2))) < 3 * se4


def test_entry_law_is_beta():
    n, reps = 8, 100_000
    x = np.abs(haar_batch("unitary", n, reps, master_seed=64)[:, 0, 0]) ** 2
    result = stats.kstest(x, stats.beta(1, n - 1).cdf)
    assert result.pvalue > 0.01


def test_two_sided_permutation_invariance():
    # moments of PUQ match those of U for fixed permutation matrices P, Q
    n, reps = 8, 40_000
    rng = np.random.default_rng(0)
    perm_p = np.eye(n)[rng.permutation(n)]
    perm_q = np.eye(n)[rng.permutation(n)]
    batch = haar_batch("unitary", n, reps, master_seed=65)
    rotated = np.einsum("ij,rjk,kl->ril", perm_p, batch, perm_q)
    for power in (2, 4):
        a = np.abs(batch[:, 0, 0]) ** power
        b = np.abs(rotated[:, 0, 0]) ** power
        gap = abs(a.mean() - b.mean())
        se = np.sqrt(a.var(ddof=1) / reps + b.var(ddof=1) / reps)
        assert gap < 3 * se


def test_first_column_is_dirichlet():
    # squared moduli of one column follow Dirichlet(1,..,1): known covariance
    n, reps = 4, 50_000
    batch = haar_batch("unitary", n, reps, master_seed=66)
    w = np.abs(batch[:, :, 0]) ** 2
    cov = np.cov(w.T, ddof=1)
    var_target = 3 / 80  # a0 = 4: a_i(a0 - a_i) / (a0^2 (a0 + 1))
    cov_target = -1 / 80
    for i in range(n):
        for j in range(n):
            target = var_target if i == j else cov_target
            assert abs(cov[i, j] - target) < 6e-4


def test_group_dispatch():
    assert haar_sample("unitary", 4, SeedSpec(1)).dtype == np.complex128
    assert haar_sample("orthogonal", 4, SeedSpec(1)).dtype == np.float64
    with pytest.raises(ValueError):
        haar_sample("symplectic", 4, SeedSpec(1))


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
@pytest.mark.parametrize("n", [8, 64, 400])
def test_truncated_sample_equals_full_columns(group, n):
    seed = SeedSpec(2027, n)
    full = haar_sample(group, n, seed)
    for q in sorted({1, n // 2, (3 * n) // 4, n - 1, n}):
        part = haar_sample(group, n, seed, columns=q)
        assert part.shape == (n, q) and part.dtype == full.dtype
        assert np.max(np.abs(part - full[:, :q])) <= 1e-13
    # all columns is the default, bit for bit
    assert np.array_equal(haar_sample(group, n, seed, columns=n), full)


def test_columns_out_of_range():
    for cols in (0, 5):
        with pytest.raises(ValueError):
            haar_sample("unitary", 4, SeedSpec(1), columns=cols)
        with pytest.raises(ValueError):
            haar_sample("orthogonal", 4, SeedSpec(1), columns=cols)


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
def test_sample_process_values_matches_pointwise_loop(group):
    n, reps, seed = 40, 12, 505
    pts = [(0.3, 0.45), (0.0, 0.7), (0.5, 0.5), (1.0, 0.2), (0.99, 0.61)]
    got = sample_process_values(group, n, pts, reps, seed, workers=2)
    # only the corners strictly inside are sampled; zero columns pad the block
    # out for T_{0,q}, which is exactly 0
    widest = max(int(n * t) for s, t in pts if 0 < int(n * s) < n and 0 < int(n * t) < n)
    for i in range(reps):
        block = haar_sample(group, n, SeedSpec(seed, i), columns=widest)
        truncated = trace_field(np.pad(block, ((0, 0), (0, n - widest))))
        want = [process_value(truncated, s, t) for s, t in pts]
        assert got[i].tolist() == want  # the same sample gives the same floats
        full = trace_field(haar_sample(group, n, SeedSpec(seed, i)))
        assert np.max(np.abs(got[i] - [process_value(full, s, t) for s, t in pts])) <= 1e-13


def test_dropped_centring_mutant_is_caught(monkeypatch):
    # the first grid point's p*q/n centring left out of sample_process_values,
    # emulated by adding it back to that column of the corner reader's traces
    real = empirics.corner_traces

    def first_point_uncentred(n, ps, qs):
        traces, rows, columns = real(n, ps, qs)
        shift = np.zeros(len(ps))
        shift[0] = ps[0] * qs[0] / n
        return (lambda stack: traces(stack) + shift), rows, columns

    monkeypatch.setattr(empirics, "corner_traces", first_point_uncentred)
    with pytest.raises(AssertionError):
        test_sample_process_values_matches_pointwise_loop("unitary")


def test_replicas_run_single_threaded_blas_and_restore_it(monkeypatch):
    calls = _openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy does not bundle a scipy-openblas library here")
    get_threads, set_threads = calls
    original = get_threads()
    seen, threads = [], set()

    def rows(z):
        seen.append(get_threads())
        threads.add(threading.get_ident())
        return np.zeros((len(z), 1))

    _chunks_of(monkeypatch, 7, 6, 6, "orthogonal")  # 40 replicas in 6 chunks
    try:
        set_threads(2)
        for workers in (1, 2):
            seen.clear()
            threads.clear()
            map_replicas("orthogonal", 6, 40, 3, rows, workers=workers)
            assert get_threads() == 2
            assert len(seen) == 6  # one call per chunk
            assert set(seen) == {1}  # the first chunk too, and without a pool
            # workers=1 stays in this thread; workers=2 runs chunks on pool threads
            assert (threads == {threading.get_ident()}) == (workers == 1)
    finally:
        set_threads(original)


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
def test_rows_do_not_depend_on_worker_count_at_blas_threaded_size(group):
    # at n = 400 OpenBLAS splits a QR over its threads and rounds differently
    # from one thread, so this fails if the BLAS thread count follows workers
    pts = [(0.25, 0.5), (0.75, 0.75)]
    serial = sample_process_values(group, 400, pts, 5, 8, workers=1)
    pooled = sample_process_values(group, 400, pts, 5, 8, workers=2)
    assert np.array_equal(serial, pooled)


@pytest.mark.parametrize("workers", [1, 2])
def test_replica_loop_reuses_its_freed_arrays(workers):
    if _mallopt() is None:
        pytest.skip("the C library has no mallopt")

    def rows(z):
        return trace_field(z)[:, -1, -1:]

    def faults(replicas):  # minor page faults of one call
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        map_replicas("unitary", 200, replicas, 9, rows, workers=workers)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults(4)  # grows the heaps once
    # every call also pays the pool's start-up, so the per-replica rate is
    # the difference of two calls 40 replicas apart.  A replica allocates
    # about 3 MB: unmapped and faulted in again, that would be hundreds of
    # page faults per replica
    short = faults(8)
    assert (faults(48) - short) / 40 < 20


# ---------------------------------------------------------------------------
# the R-only route: leading rows of G R^-1 for one-replica chunks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [8, 400])
def test_complex_draw_written_in_place_equals_the_quotient(n):
    # numpy divides a complex number by a real one as a product with the
    # reciprocal, so the in-place products are the old quotient bit for bit;
    # one draw buffer serves every replica
    draw = np.empty((2, n, n))
    for seed in range(5):
        for q in sorted({1, n // 2, n}):
            out = np.empty((n, q), dtype=np.complex128)
            _ginibre(SeedSpec(seed, n).rng(), draw, out)
            rng = SeedSpec(seed, n).rng()
            re, im = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            assert np.array_equal(out, (re[:, :q] + 1j * im[:, :q]) / np.sqrt(2.0))


def _householder_rows(group, n, master, replicas, rows, columns):
    return np.stack([haar_sample(group, n, SeedSpec(master, i), columns=columns)[:rows]
                     for i in range(replicas)])


def _library_calls():
    """`_r_only_calls()`, skipping the test where numpy bundles no scipy-openblas."""
    found = _r_only_calls()
    if found is None:
        pytest.skip("numpy does not bundle a scipy-openblas library here")
    return found


def _solve_calls(monkeypatch):
    """Count the engine's trsm solves; returns the list the calls append to."""
    calls, (qr_r, solve) = [], _library_calls()

    def counted(x, r):
        calls.append(x.shape)
        solve(x, r)

    monkeypatch.setattr(sampling, "_r_only_calls", lambda: (qr_r, counted))
    return calls


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
@pytest.mark.parametrize("n", [8, 64, 400])
def test_r_only_moduli_equal_householder_moduli(monkeypatch, group, n):
    calls = _solve_calls(monkeypatch)
    replicas = 2 if n == 400 else 4
    for rows, columns in sorted({(n // 2, (3 * n) // 4), ((3 * n) // 4, n // 2),
                                 (1, n), (n - 1, 1), (n - 1, n)}):
        _chunks_of(monkeypatch, 1, n, columns, group)
        calls.clear()
        got = map_replicas(group, n, replicas, 31, lambda z: z, columns=columns, rows=rows)
        assert calls == [(rows, columns)] * replicas  # the route was taken
        want = _householder_rows(group, n, 31, replicas, rows, columns)
        assert got.shape == want.shape == (replicas, rows, columns)
        assert np.max(np.abs(np.abs(got) ** 2 - np.abs(want) ** 2)) <= 1e-12


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
@pytest.mark.parametrize("case", ["all rows", "chunks of 3", "no library"])
def test_householder_route_rows_are_bit_identical(monkeypatch, group, case):
    n, rows, columns, replicas = 24, 10, 20, 7
    calls = _solve_calls(monkeypatch)
    _chunks_of(monkeypatch, 3 if case == "chunks of 3" else 1, n, columns, group)
    if case == "all rows":
        rows = n
    if case == "no library":
        monkeypatch.setattr(sampling, "_r_only_calls", lambda: None)
    got = map_replicas(group, n, replicas, 17, lambda z: z, columns=columns, rows=rows)
    assert calls == []
    assert np.array_equal(got, _householder_rows(group, n, 17, replicas, rows, columns))


def test_r_only_solve_leaves_the_gaussian_unchanged(monkeypatch):
    # the solve runs in place on the leading rows; on a view of the stack it
    # would overwrite the Gaussian that R came from
    calls = _solve_calls(monkeypatch)
    qr_r, solve = sampling._r_only_calls()
    seen = []

    def recording_qr(a):
        seen.append((a, a.copy()))
        return qr_r(a)

    monkeypatch.setattr(sampling, "_r_only_calls", lambda: (recording_qr, solve))
    map_replicas("unitary", 64, 3, 5, lambda z: z, columns=40, rows=30)
    assert len(calls) == len(seen) == 3
    assert all(np.array_equal(g, before) for g, before in seen)


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
def test_r_only_rows_do_not_depend_on_worker_count(monkeypatch, group):
    calls = _solve_calls(monkeypatch)
    serial = map_replicas(group, 400, 4, 8, lambda z: z, workers=1, columns=200, rows=300)
    pooled = map_replicas(group, 400, 4, 8, lambda z: z, workers=2, columns=200, rows=300)
    assert len(calls) == 8
    assert np.array_equal(serial, pooled)


def test_rows_out_of_range():
    for rows in (0, 7):
        with pytest.raises(ValueError, match="rows must lie in"):
            map_replicas("unitary", 6, 2, 1, lambda z: z, rows=rows)


def test_trsm_solve_refuses_mismatched_arguments():
    solve = _library_calls()[1]
    x, r = np.ones((3, 4)), np.eye(4)
    for bad_x, bad_r in ((x, np.eye(3)), (x, np.eye(4, dtype=np.complex128)),
                         (np.ones((4, 3)).T, r), (x.astype(np.float32), r)):
        with pytest.raises(ValueError, match="cannot solve"):
            solve(bad_x, bad_r)
    solve(x, 2 * r)
    assert np.array_equal(x, np.full((3, 4), 0.5))


def test_geqrf_qr_refuses_mismatched_arguments():
    qr_r = _library_calls()[0]
    a = np.vander(np.arange(1.0, 5.0), 3)
    for bad in (a.astype(np.float32), a.astype(np.complex64), a.astype(np.int64),
                a[0], np.stack([a, a])):
        with pytest.raises(ValueError, match="cannot factor"):
            qr_r(bad)
    assert qr_r(a).tobytes() == np.linalg.qr(a, mode="r").tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("shape", [(9, 1), (1, 1), (12, 12), (7, 3), (64, 40), (400, 300),
                                   (1000, 50), "view"])
def test_geqrf_r_equals_numpy_bit_for_bit(dtype, shape):
    # the same LAPACK geqrf with the same workspace as numpy's qr_r_raw, so
    # the same blocking: a numpy that changed either fails here
    qr_r = _library_calls()[0]
    rng = np.random.default_rng(7)
    whole = (64, 90) if shape == "view" else shape
    a = rng.standard_normal(whole).astype(dtype)
    if dtype == np.complex128:
        a += 1j * rng.standard_normal(whole)
    if shape == "view":
        a = a[1::2, 3:70:2]  # 32 x 34, neither C- nor Fortran-contiguous
    before = a.copy()
    with sampling.single_threaded_blas():
        got, want = qr_r(a), np.linalg.qr(a, mode="r")
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous and np.array_equal(a, before)


def _longest_stalls(qr_r, a, calls=9):
    """For each of `calls` qr_r(a) in a second thread, the longest interval
    in which this thread made no progress, as a share of that call."""
    done, spans, beats = threading.Event(), [], []

    def factor():
        for _ in range(calls):
            start = time.perf_counter()
            qr_r(a)
            spans.append((start, time.perf_counter()))
        done.set()

    with sampling.single_threaded_blas():
        worker = threading.Thread(target=factor)
        worker.start()
        while not done.wait(2e-4):  # a short wait gives up the GIL at once
            beats.append(time.perf_counter())
        worker.join(60)
    assert not worker.is_alive() and len(spans) == calls
    beats = np.array(beats)
    return [np.diff(np.concatenate(([t0], beats[(beats > t0) & (beats < t1)], [t1]))).max()
            / (t1 - t0) for t0, t1 in spans]


def test_r_only_qr_releases_the_gil():
    # numpy's qr(mode="r") holds the GIL through geqrf at this shape
    # (mc_bridge's 400 x 300 block): another thread then stalls for about
    # 85% of every call, and through ctypes for under 15%
    qr_r = _library_calls()[0]
    rng = np.random.default_rng(400)
    a = (rng.standard_normal((400, 300)) + 1j * rng.standard_normal((400, 300))) / np.sqrt(2)
    assert np.median(_longest_stalls(qr_r, a)) < 0.5


def _fresh_python(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout.split()


def test_r_only_sampling_imports_no_scipy():
    # scipy would cost the command line about 0.3 s of start-up
    assert _fresh_python(
        "import sys\n"
        "import haartrace.cli\n"
        "from haartrace import sampling\n"
        "from haartrace.empirics import sample_process_values\n"
        "sample_process_values('unitary', 400, [(0.5, 0.5)], 1, 3)\n"
        "print('scipy' in sys.modules, sampling._r_only_calls() is not None)\n"
    ) in (["False", "True"], ["False", "False"])


def test_importing_the_package_resolves_no_trsm_symbol():
    # the trsm and geqrf symbols are resolved together, on the route's first use
    assert _fresh_python(
        "import haartrace, haartrace.cli\n"
        "from haartrace import sampling\n"
        "print(sampling._r_only_calls.cache_info().currsize,"
        " sampling._openblas.cache_info().currsize)\n"
        "found = sampling._r_only_calls() is not None\n"
        "names = vars(sampling._openblas()) if found else {}\n"
        "print(found, sum('geqrf' in name or 'trsm' in name for name in names))\n"
    ) in (["0", "0", "True", "4"], ["0", "0", "False", "0"])


# ---------------------------------------------------------------------------
# batched seeding: the engine's port of numpy's SeedSequence and PCG64 seeding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("master", [0, 1, 2027, 2**32 - 1, 2**32, 2**64 - 1])
def test_batched_seeding_draws_equal_numpy_default_rng(master):
    # a numpy upgrade that changed SeedSequence or PCG64 seeding fails here;
    # 35 and 36 straddle the first chunk boundary at n = 16, 14 real columns,
    # and the index takes a second entropy word from 2^32 on
    for indices in (range(0, 37), range(2**32 - 2, 2**32 + 2), range(2**64 - 3, 2**64)):
        words = sampling._seed_words(master, indices)
        for idx, rng in zip(indices, sampling._replica_rngs(words), strict=True):
            want = np.random.default_rng((master, idx)).standard_normal(64)
            assert np.array_equal(rng.standard_normal(64), want), (master, idx)


def _numpy_draw(group, n, columns, rng):
    """Leading columns of one Gaussian n x n draw from rng, as the engine draws it."""
    if group == "unitary":
        re, im = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        return (re[:, :columns] + 1j * im[:, :columns]) / np.sqrt(2.0)
    return rng.standard_normal((n, n))[:, :columns]


def _gauge_fixed_qr(g, rows):
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return (q * (d / np.abs(d))[..., None, :])[..., :rows, :]


def _numpy_seeded_rows(group, n, master, replicas, rows, columns, r_only):
    """The engine's rows rebuilt from `default_rng((master, i))` draws: one
    stacked QR with the gauge fix, or on the R-only route R and the solve."""
    g = np.stack([_numpy_draw(group, n, columns, np.random.default_rng((master, i)))
                  for i in range(replicas)])
    if not r_only:
        return _gauge_fixed_qr(g, rows)
    x = g[:, :rows].copy()
    with sampling.single_threaded_blas():  # as the engine: threaded kernels round otherwise
        for xk, gk in zip(x, g):
            _r_only_calls()[1](xk, np.linalg.qr(gk, mode="r"))
    return x


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("group, n, replicas, rows, columns, chunk", [
    ("orthogonal", 400, 3, 300, 200, 1),  # the R-only route, where the library is bundled
    ("unitary", 400, 2, 300, 300, 1),  # mc_bridge's shape, the complex R-only route
    ("orthogonal", 16, 80, 16, 14, 36),  # mc_wide_grid's shape
    ("unitary", 4, 600, 4, 4, 256),
])
def test_engine_rows_equal_numpy_seeded_reference(group, n, replicas, rows, columns, chunk,
                                                  workers):
    sizes = []

    def identity(z):
        sizes.append(len(z))
        return z

    got = map_replicas(group, n, replicas, 2027, identity, workers=workers,
                       columns=columns, rows=rows)
    assert max(sizes) == chunk
    r_only = chunk == 1 and rows < n and _r_only_calls() is not None
    want = _numpy_seeded_rows(group, n, 2027, replicas, rows, columns, r_only)
    assert np.array_equal(got, want)
    if rows == columns == n:
        assert np.array_equal(haar_batch(group, n, replicas, 2027), got)


def test_index_from_two_to_the_32_equals_numpy_seeded_reference():
    # such an index takes two entropy words; the port writes the high word
    # even when it is 0, which SeedSequence mixes as its padding
    want = _gauge_fixed_qr(_numpy_draw("unitary", 4, 4, np.random.default_rng((7, 2**32))), 4)
    assert np.array_equal(haar_sample("unitary", 4, SeedSpec(7, 2**32)), want)
