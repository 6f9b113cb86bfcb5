import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from haartrace.cumulants import covariance_closed, covariance_closed_orthogonal
from haartrace.empirics import (
    corner_traces,
    covariance_mc,
    floor_index,
    increment_fourth_moment_fit,
    kesten_mckay,
    kstat_estimators,
    process_value,
    sample_process_values,
    spectral_compare,
    trace_field,
)
from haartrace.errors import DimensionError, InsufficientReplicasError
from haartrace.sampling import SeedSpec, haar_sample, map_replicas


# ---------------------------------------------------------------------------
# trace fields and the centered process
# ---------------------------------------------------------------------------

def test_trace_field_identity_matrix():
    f = trace_field(np.eye(6))
    assert f.shape == (7, 7) and f.dtype == np.float64
    for p in range(7):
        for q in range(7):
            assert f[p, q] == min(p, q)


def test_trace_field_rotation():
    th = 0.37
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    f = trace_field(rot)
    assert f[1, 1] == pytest.approx(math.cos(th) ** 2, abs=1e-15)
    assert f[2, 2] == pytest.approx(2.0, abs=1e-12)


def test_trace_field_haar_unit_rows():
    for group in ("unitary", "orthogonal"):
        f = trace_field(haar_sample(group, 80, SeedSpec(5)))
        assert abs(f[80, 80] - 80) < 1e-10
        assert np.all(np.diff(f, axis=0) >= -1e-14)
        assert np.all(np.diff(f, axis=1) >= -1e-14)


def test_trace_field_requires_square():
    with pytest.raises(DimensionError):
        trace_field(np.ones((3, 4)))


@pytest.mark.parametrize("dtype, k, n, q", [
    (np.float64, 3, 12, 12), (np.complex128, 2, 12, 9),
    # a full chunk of `mc_wide_grid`'s 16 x 14 block; a 400 x 300 block at `mc_bridge`'s n
    (np.float64, 128, 16, 14), (np.complex128, 1, 400, 300),
    (np.float64, 2, 1000, 6), (np.complex128, 1, 1000, 5),
], ids=["real", "complex", "real-chunk-n16", "complex-n400", "real-n1000", "complex-n1000"])
def test_corner_traces_read_trace_field_inside_and_min_on_the_sides(dtype, k, n, q):
    rng = np.random.default_rng(n + q)
    stack = rng.standard_normal((k, n, q)).astype(dtype)
    if dtype is np.complex128:
        stack.imag = rng.standard_normal((k, n, q))
    # unsorted, with repeated rows and columns, and every kind of side
    ps = np.array([5, 1, n - 1, 5, 2, 5, 0, 0, n, 3, n, 4])
    qs = np.array([3, 1, q - 1, q, 3, 3, 4, 0, 2, n, n, q])
    inside = (ps % n > 0) & (qs % n > 0)
    read, rows, columns = corner_traces(n, ps, qs)
    traces = read(stack)
    assert traces.shape == (k, len(ps)) and traces.dtype == np.float64
    field = trace_field(stack)
    assert np.array_equal(traces[:, inside], field[:, ps[inside], qs[inside]])
    assert np.array_equal(traces[:, ~inside], np.tile(np.minimum(ps, qs)[~inside], (k, 1)))
    # the leading block up to the tallest and widest corner inside, as the pipelines sample
    assert (rows, columns) == (ps[inside].max(), qs[inside].max())
    assert np.array_equal(read(stack[:, :rows, :columns].copy()), traces)


def test_corner_traces_without_a_corner_inside():
    read, rows, columns = corner_traces(8, [0, 8, 3, 8], [5, 2, 8, 8])
    assert (rows, columns) == (1, 1)
    traces = read(np.ones((2, 1, 1)))
    assert np.array_equal(traces, [[0.0, 2.0, 3.0, 8.0]] * 2)


def test_replica_pipelines_build_no_trace_field(monkeypatch):
    from haartrace import empirics

    def built(*args, **kwargs):
        raise AssertionError("a trace field was built")

    monkeypatch.setattr(empirics, "trace_field", built)
    values = sample_process_values("unitary", 16, [(0.25, 0.5), (1, 0.5), (0.5, 0)], 4, 3)
    assert values.shape == (4, 3) and np.all(values[:, 1:] == 0.0)
    fit = increment_fourth_moment_fit("orthogonal", 16, 4, master_seed=3, levels=(1,))
    assert fit.fourth_moments.shape == (4,)


def test_process_value_boundaries():
    f = trace_field(haar_sample("unitary", 40, SeedSpec(8)))
    assert process_value(f, 0.0, 0.63) == 0.0
    assert process_value(f, 0.63, 0.0) == 0.0
    assert abs(process_value(f, 1.0, 1.0)) < 1e-10
    # T_{n,q} = q and T_{p,n} = p, so W is an exact 0 on s = 1 and t = 1
    assert process_value(f, 1.0, 0.63) == 0.0
    assert process_value(f, 0.63, 1.0) == 0.0


def test_process_value_floor_convention():
    f = trace_field(haar_sample("unitary", 10, SeedSpec(9)))
    # right-continuous steps: s in [3/10, 4/10) uses p = 3
    assert process_value(f, 0.3, 0.5) == process_value(f, 0.39, 0.5)
    assert process_value(f, 0.3, 0.5) != process_value(f, 0.4, 0.5)


def test_floor_index_rounding_mutant_is_caught(monkeypatch):
    # process_value reads its indices through the module, so the floor
    # convention test sees a floor_index that rounds n x (0.39 -> p = 4)
    from haartrace import empirics
    monkeypatch.setattr(empirics, "floor_index", lambda n, x: min(n, max(0, round(n * x))))
    with pytest.raises(AssertionError):
        test_process_value_floor_convention()


def _uniform_lln_deviation(n, seed):
    """max over the full grid of |T_{p,q}/n - pq/n^2| for one Haar sample."""
    field = trace_field(haar_sample("unitary", n, seed))
    target = np.outer(np.arange(n + 1), np.arange(n + 1)) / (n * n)
    return float(np.max(np.abs(field / n - target)))


def test_uniform_lln_decreases_on_matched_seeds():
    devs = [_uniform_lln_deviation(n, SeedSpec(777, 0)) for n in (50, 100, 200, 400)]
    assert devs[0] > devs[1] > devs[2] > devs[3]
    assert devs[-1] < 0.06


def test_kappa3_of_process_decays_with_n():
    # the skewness of W(s,t) dies as n grows; at (1/2,1/2) it is exactly 0
    # for even n (complement symmetry), so probe an asymmetric grid point
    from fractions import Fraction
    from haartrace.cumulants import CumulantRequest, ProjectorFamily, trace_cumulant
    values = []
    for n in (50, 100, 200, 400):
        p, q = int(0.3 * n), int(0.45 * n)
        fam = ProjectorFamily.uniform(p, q, 3, n)
        values.append(abs(trace_cumulant(CumulantRequest("unitary", 3, fam))))
    assert values[0] > values[1] > values[2] > values[3] > 0
    center = ProjectorFamily.uniform(200, 200, 3, 400)
    assert trace_cumulant(CumulantRequest("unitary", 3, center)) == Fraction(0)


# ---------------------------------------------------------------------------
# k-statistics
# ---------------------------------------------------------------------------

def test_kstats_constant_sample():
    ks = kstat_estimators(np.full(64, 2.5))
    assert ks.k2 == ks.k3 == ks.k4 == 0.0
    assert ks.se2 == ks.se3 == ks.se4 == 0.0


def test_kstats_requires_replicas():
    with pytest.raises(InsufficientReplicasError):
        kstat_estimators(np.arange(7))


def test_kstats_gaussian_sample():
    rng = np.random.default_rng(1)
    ks = kstat_estimators(rng.standard_normal(100_000))
    assert abs(ks.k2 - 1.0) < 4 * ks.se2
    assert abs(ks.k3) < 4 * ks.se3
    assert abs(ks.k4) < 4 * ks.se4


def test_kstats_exponential_sample():
    rng = np.random.default_rng(2)
    ks = kstat_estimators(rng.exponential(size=100_000))
    assert abs(ks.k2 - 1.0) < 4 * ks.se2
    assert abs(ks.k3 - 2.0) < 4 * ks.se3
    assert abs(ks.k4 - 6.0) < 4 * ks.se4


def _exact_kstats(sample):
    """k2, k3, k4 of Fractions from central power sums m_r = sum (x - mean)^r."""
    n = len(sample)
    mean = sum(sample) / n
    m2, m3, m4 = (sum((v - mean) ** r for v in sample) for r in (2, 3, 4))
    return (m2 / (n - 1), n * m3 / ((n - 1) * (n - 2)),
            (n * (n + 1) * m4 - 3 * (n - 1) * m2 * m2) / ((n - 1) * (n - 2) * (n - 3)))


def test_kstats_equal_exact_rationals():
    # pins every k-statistic coefficient and the jackknife factor (n-1)/n
    values = np.random.default_rng(2024).exponential(size=24)
    sample = [Fraction(v) for v in values]
    n = len(sample)
    exact = _exact_kstats(sample)
    leave_one_out = [_exact_kstats(sample[:i] + sample[i + 1:]) for i in range(n)]
    ses = []
    for r in range(3):
        jack = [loo[r] for loo in leave_one_out]
        centre = sum(jack) / n
        ses.append(math.sqrt(Fraction(n - 1, n) * sum((j - centre) ** 2 for j in jack)))
    ks = kstat_estimators(values)
    got = (ks.k2, ks.k3, ks.k4, ks.se2, ks.se3, ks.se4)
    for value, want in zip(got, [float(k) for k in exact] + ses, strict=True):
        assert value == pytest.approx(want, rel=1e-12, abs=0)


def test_kstats_unbiasedness_small_sample():
    # average k2, k3 over many tiny exponential samples ~ true cumulants
    rng = np.random.default_rng(3)
    samples = rng.exponential(size=(20_000, 10))
    k2s = np.array([kstat_estimators(s).k2 for s in samples[:2000]])
    assert abs(k2s.mean() - 1.0) < 4 * k2s.std(ddof=1) / math.sqrt(k2s.size)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def _covariance_mc_leave_one_out(values):
    """Reference: the jackknife over explicit leave-one-out covariances."""
    a = np.asarray(values, dtype=np.float64)
    n = a.shape[0]
    a = a - a.mean(axis=0)
    s_ab = a.T @ a
    est = s_ab / (n - 1)
    outer_i = np.einsum("ia,ib->iab", a, a)
    rest_mean = (a.sum(axis=0)[None, :] - a) / (n - 1)
    cross = np.einsum("ia,ib->iab", rest_mean, rest_mean)
    cov_i = (s_ab[None, :, :] - outer_i - (n - 1) * cross) / (n - 2)
    se = np.sqrt(np.maximum(0.0, (n - 1) / n * np.sum((cov_i - cov_i.mean(axis=0)) ** 2, axis=0)))
    return est, se


@pytest.mark.parametrize("source", ["gaussian", "process"])
def test_covariance_mc_matches_leave_one_out_reference(source):
    if source == "gaussian":
        rng = np.random.default_rng(40)
        mix = rng.standard_normal((7, 7))
        vals = rng.standard_normal((2000, 7)) @ mix + rng.standard_normal(7)
    else:
        axis = (0.0, 0.25, 0.5, 0.75)
        vals = sample_process_values("orthogonal", 16, [(s, t) for s in axis for t in axis],
                                     300, 41)
    est, se = covariance_mc(vals)
    ref_est, ref_se = _covariance_mc_leave_one_out(vals)
    assert np.array_equal(est, ref_est)
    assert np.allclose(se, ref_se, rtol=1e-12, atol=0.0)
    assert np.count_nonzero(se) == np.count_nonzero(ref_se)


def test_covariance_mc_memory_is_grid_squared_above_input():
    vals = np.random.default_rng(42).standard_normal((20_000, 81))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        covariance_mc(vals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * vals.nbytes


def test_covariance_mc_known_covariance():
    rng = np.random.default_rng(4)
    target = np.array([[1.0, 0.3], [0.3, 0.5]])
    vals = rng.standard_normal((30_000, 2)) @ np.linalg.cholesky(target).T
    est, se = covariance_mc(vals)
    assert np.all(np.abs(est - target) < 4 * se)
    assert np.all(se > 0)


def test_covariance_mc_degenerate_column():
    rng = np.random.default_rng(5)
    vals = np.hstack([rng.standard_normal((500, 1)), np.zeros((500, 1)),
                      rng.standard_normal((500, 1)), np.zeros((500, 1))])
    est, se = covariance_mc(vals)
    for zero in (1, 3):
        assert np.all(est[zero] == 0.0) and np.all(est[:, zero] == 0.0)
        assert np.all(se[zero] == 0.0) and np.all(se[:, zero] == 0.0)
    assert np.all(se[np.ix_([0, 2], [0, 2])] > 0)


def test_covariance_mc_guards():
    with pytest.raises(InsufficientReplicasError):
        covariance_mc(np.zeros((99, 2)))
    with pytest.raises(DimensionError):
        covariance_mc(np.zeros(100))


# ---------------------------------------------------------------------------
# process sampling pipelines
# ---------------------------------------------------------------------------

def test_sample_process_values_deterministic_across_workers():
    pts = [(0.25, 0.5), (0.5, 0.5), (0.0, 0.7)]
    a = sample_process_values("unitary", 24, pts, 60, 44, workers=1)
    b = sample_process_values("unitary", 24, pts, 60, 44, workers=3)
    assert np.array_equal(a, b)
    assert np.all(a[:, 2] == 0.0)  # boundary point


def test_process_variance_matches_exact_small_n():
    vals = sample_process_values("unitary", 64, [(0.5, 0.5)], 1500, 4040)
    ks = kstat_estimators(vals[:, 0])
    assert abs(ks.k2 - float(covariance_closed(32, 32, 32, 32, 64))) < 4 * ks.se2
    vals_o = sample_process_values("orthogonal", 64, [(0.5, 0.5)], 1500, 4041)
    ks_o = kstat_estimators(vals_o[:, 0])
    assert abs(ks_o.k2 - float(covariance_closed_orthogonal(32, 32, 32, 32, 64))) < 4 * ks_o.se2


def test_exchange_symmetry_of_corner_laws():
    # k2 for (p,q) on U matches k2 for (q,p) on the transposed ensemble
    pts_a = [(0.25, 0.75)]
    pts_b = [(0.75, 0.25)]
    a = sample_process_values("unitary", 48, pts_a, 1200, 91)
    b = sample_process_values("unitary", 48, pts_b, 1200, 92)
    ka, kb = kstat_estimators(a[:, 0]), kstat_estimators(b[:, 0])
    assert abs(ka.k2 - kb.k2) < 3 * math.hypot(ka.se2, kb.se2)


# ---------------------------------------------------------------------------
# Kesten-McKay law
# ---------------------------------------------------------------------------

def test_kesten_mckay_arcsine_case():
    km = kesten_mckay(0.5, 0.5)
    assert km.u_minus == pytest.approx(0.0, abs=1e-15)
    assert km.u_plus == pytest.approx(1.0, abs=1e-15)
    assert km.const == pytest.approx(2.0, abs=1e-12)
    xs = np.array([0.1, 0.33, 0.5, 0.9])
    assert np.allclose(km.pdf(xs), 1 / (np.pi * np.sqrt(xs * (1 - xs))), atol=1e-12)
    assert km.mass(0.0, 1.0) == pytest.approx(1.0, abs=1e-8)
    assert km.mean() == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("s, t", [(0.3, 0.5), (0.2, 0.7), (0.1, 0.25)])
def test_kesten_mckay_normalization_and_mean(s, t):
    # away from t = 1/2 the moments tell t from 1 - t in the endpoints
    km = kesten_mckay(s, t)
    assert km.clean_regime
    assert km.mass(0.0, 1.0) == pytest.approx(1.0, abs=1e-8)
    assert km.mean() == pytest.approx(t, abs=1e-8)
    # phi(pqpq) / phi(p) for free projections of traces s and t
    assert km._quad(km.u_minus, km.u_plus, moment=2) == \
        pytest.approx(t * t + s * t * (1 - t), abs=1e-8)
    root_a, root_b = math.sqrt(s * (1 - t)), math.sqrt((1 - s) * t)
    assert km.u_minus == pytest.approx((root_a - root_b) ** 2, abs=1e-14)
    assert km.u_plus == pytest.approx((root_a + root_b) ** 2, abs=1e-14)
    # masses add up over a partition of the support
    assert km.mass(0, 0.3) + km.mass(0.3, 0.7) + km.mass(0.7, 1.0) == \
        pytest.approx(1.0, abs=1e-8)


def test_kesten_mckay_regime_flag_and_errors():
    assert not kesten_mckay(0.6, 0.5).clean_regime
    with pytest.raises(ValueError):
        kesten_mckay(0.0, 0.5)
    with pytest.raises(ValueError):
        kesten_mckay(0.5, 1.0)


def test_pdf_zero_outside_support():
    km = kesten_mckay(0.3, 0.5)
    assert km.pdf(np.array([0.0, km.u_minus / 2, km.u_plus + 0.01, 1.0])).tolist() == \
        [0.0, 0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# spectral comparison
# ---------------------------------------------------------------------------

def test_spectral_compare_smoke():
    res = spectral_compare(60, 0.3, 0.5, 12, master_seed=13)
    assert res.warnings == ()
    assert res.empirical_mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.reference_mass.sum() == pytest.approx(1.0, abs=1e-6)
    assert 0 <= res.l1_distance <= 2
    assert res.mean_eigenvalue == pytest.approx(0.5, abs=0.05)
    assert res.p == 18 and res.q == 30


def test_spectral_compare_eigenvalues_are_contractions():
    res = spectral_compare(40, 0.4, 0.5, 6, master_seed=14, group="orthogonal")
    # histogram covers [0,1]; nothing escapes (H is a contraction)
    assert res.empirical_mass.sum() == pytest.approx(1.0, abs=1e-12)


def test_spectral_compare_regime_warning():
    res = spectral_compare(40, 0.7, 0.5, 4, master_seed=15)
    assert any("regime" in w for w in res.warnings)


def test_spectral_compare_degenerate_corner_raises():
    with pytest.raises(ValueError):
        spectral_compare(40, 0.01, 0.5, 4, master_seed=16)


# ---------------------------------------------------------------------------
# increment fourth moments
# ---------------------------------------------------------------------------

def test_increment_fit_smoke():
    fit = increment_fourth_moment_fit("unitary", 32, 250, master_seed=21, levels=(1, 2))
    assert fit.c_max > 0 and math.isfinite(fit.c_max)
    assert len(fit.blocks) == 4 + 16
    assert np.all(fit.fourth_moments >= 0)
    # level-1 blocks of an n=32 field have dp = dq = 16
    assert all(dp == 16 for (lev, i, j, dp, dq) in fit.blocks if lev == 1)


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
def test_increment_fit_reads_exact_boundary_of_leading_block(group):
    # blocks on row or column n read T_{n,q} = q and T_{p,n} = p exactly, so
    # only the leading 7n/8 rows and columns are sampled
    n, replicas, seed = 64, 60, 4101
    fit = increment_fourth_moment_fit(group, n, replicas, master_seed=seed)
    p1, p2, q1, q2 = np.array(
        [[floor_index(n, x / 2 ** lev) for x in (i, i + 1, j, j + 1)]
         for lev, i, j, _, _ in fit.blocks]).T

    def increments(stack):  # the full square, sampled corners throughout
        c = trace_field(stack)
        return (c[:, p2, q2] - c[:, p2, q1] - c[:, p1, q2] + c[:, p1, q1]
                - (p2 - p1) * (q2 - q1) / n)

    full = (map_replicas(group, n, replicas, seed, increments) ** 4).mean(axis=0)
    assert np.max(np.abs(fit.fourth_moments / full - 1)) <= 1e-12
    c_max = float(np.max(full * [n ** 4 / (dp * dp * dq * dq)
                                 for _, _, _, dp, dq in fit.blocks]))
    assert abs(fit.c_max / c_max - 1) <= 1e-12


def test_increment_fit_samples_only_the_inner_cuts(monkeypatch):
    from haartrace import empirics
    shapes, engine = [], empirics.map_replicas

    def recording(*args, **kwargs):
        shapes.append((kwargs["rows"], kwargs["columns"]))
        return engine(*args, **kwargs)

    monkeypatch.setattr(empirics, "map_replicas", recording)
    increment_fourth_moment_fit("unitary", 64, 4, master_seed=1)
    increment_fourth_moment_fit("orthogonal", 20, 4, master_seed=1, levels=(2, 1))
    assert shapes == [(56, 56), (15, 15)]


def test_process_values_sample_only_the_inner_corners(monkeypatch):
    # T on a side of 0 or n is exact, so an axis holding 0 or 1 adds no sampled row or column
    from haartrace import empirics
    shapes, engine = [], empirics.map_replicas

    def recording(*args, **kwargs):
        shapes.append((kwargs["rows"], kwargs["columns"]))
        return engine(*args, **kwargs)

    monkeypatch.setattr(empirics, "map_replicas", recording)
    axis = (0.25, 0.5, 1)
    sample_process_values("unitary", 40, [(s, t) for s in axis for t in axis], 4, 1)
    sample_process_values("orthogonal", 40, [(1, 0.5), (0.75, 0.25), (0, 0.9)], 4, 1)
    sample_process_values("unitary", 40, [(1, 1), (0, 0.5)], 4, 1)
    assert shapes == [(20, 20), (30, 10), (1, 1)]


@pytest.mark.parametrize("replicas", [0, 1])
def test_increment_fit_rejects_too_few_replicas_before_sampling(monkeypatch, replicas):
    from haartrace import empirics

    def sampled(*args, **kwargs):
        raise AssertionError("a replica was sampled")

    monkeypatch.setattr(empirics, "map_replicas", sampled)
    with pytest.raises(InsufficientReplicasError, match=f"got {replicas}$"):
        increment_fourth_moment_fit("unitary", 16, replicas, master_seed=21)


@pytest.mark.parametrize("levels, named", [
    ((), r"\(\)"), ((0,), r"\(0,\)"), ((2, -1), r"\(2, -1\)"), ((1, 11), r"\(1, 11\)"),
], ids=["empty", "zero", "negative", "beyond-unit-blocks"])
def test_increment_fit_rejects_bad_levels_before_sampling(monkeypatch, levels, named):
    from haartrace import empirics

    def sampled(*args, **kwargs):
        raise AssertionError("a replica was sampled")

    monkeypatch.setattr(empirics, "map_replicas", sampled)
    with pytest.raises(ValueError, match=f"levels .* got {named}$"):
        increment_fourth_moment_fit("unitary", 16, 50, master_seed=21, levels=levels)


@pytest.mark.parametrize("pipeline", ["process values", "increment fit"])
def test_pipelines_reject_an_n_beyond_the_sampler_before_any_array(monkeypatch, pipeline):
    # at this n the corner indices hold no C integer: numpy's OverflowError
    # named no value, so the sampler's size rule must come first
    from haartrace import empirics

    def sampled(*args, **kwargs):
        raise AssertionError("a replica was sampled")

    monkeypatch.setattr(empirics, "map_replicas", sampled)
    n = 10**20 - 1
    with pytest.raises(ValueError, match=f"matrix size must be at most .* got {n}$"):
        if pipeline == "process values":
            sample_process_values("unitary", n, [(0.5, 0.5)], 10, 1)
        else:
            increment_fourth_moment_fit("unitary", n, 10, master_seed=1)
