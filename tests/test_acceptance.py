"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Heavy Monte Carlo inputs (the n=400 grid runs) are shared between criteria
through module-scoped fixtures.  All seeds are fixed, so every statistical
assertion is a deterministic, pre-verified outcome at its stated tolerance.

Criterion 5's third-cumulant clause is asserted literally under a strict
xfail: at the stated corners T_{p, n/2} the centered law is symmetric
(permuting the last n/2 columns to the front sends T to p - T without
changing the Haar measure), so kappa_3 is EXACTLY zero at every n in the
stated ranges and "|kappa_3| strictly decreasing" is unsatisfiable.  The
degeneracy itself is proven in exact arithmetic (05b), and the decay claim
is verified on the nearest symmetry-free corner family (05c).
"""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from haartrace.cumulants import (
    CumulantRequest,
    ProjectorFamily,
    covariance_closed,
    covariance_closed_orthogonal,
    cumulant_via_moments,
    limit_covariance,
    trace_cumulant,
    trace_cumulant_orthogonal,
)
from haartrace.empirics import (
    covariance_mc,
    increment_fourth_moment_fit,
    kstat_estimators,
    sample_process_values,
    spectral_compare,
)
from haartrace.sampling import (
    SeedSpec,
    haar_sample,
    map_replicas,
    orthonormality_residual,
)
from haartrace.weingarten import (
    gram,
    gram_inverse,
    is_inverse,
    joint_moment,
    weingarten_orthogonal,
    weingarten_unitary,
)

pytestmark = pytest.mark.acceptance

GRID_AXIS = (0.25, 0.5, 0.75)
GRID_POINTS = tuple((s, t) for s in GRID_AXIS for t in GRID_AXIS)
BRIDGE_REPLICAS = 5000
BRIDGE_N = 400


@pytest.fixture
def announce(capsys):
    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)
    return _announce


@pytest.fixture(scope="module")
def bridge_values_unitary():
    return sample_process_values("unitary", BRIDGE_N, GRID_POINTS,
                                 BRIDGE_REPLICAS, master_seed=2027, workers=2)


@pytest.fixture(scope="module")
def bridge_values_orthogonal():
    return sample_process_values("orthogonal", BRIDGE_N, GRID_POINTS,
                                 BRIDGE_REPLICAS, master_seed=2027, workers=2)


# -- criterion 1 -------------------------------------------------------------

def test_criterion_01_exact_moment_identities(announce):
    for n in range(2, 9):
        assert joint_moment("unitary", (1, 1), (1, 1), n) == Fraction(1, n)
        assert joint_moment("unitary", (1, 1, 1, 1), (1, 1, 1, 1), n) == Fraction(2, n * (n + 1))
        assert joint_moment("unitary", (1, 1, 1, 1), (1, 2, 1, 2), n) == Fraction(1, n * (n + 1))
        assert joint_moment("unitary", (1, 2, 1, 2), (1, 2, 1, 2), n) == Fraction(1, n * n - 1)
    for n in range(4, 9):
        assert joint_moment("orthogonal", (1, 1, 1, 1), (1, 1, 1, 1), n) == Fraction(3, n * (n + 2))
        assert joint_moment("orthogonal", (1, 1, 1, 1), (1, 2, 1, 2), n) == Fraction(1, n * (n + 2))
        assert joint_moment("orthogonal", (1, 2, 1, 2), (1, 2, 1, 2), n) == \
            Fraction(n + 1, n * (n + 2) * (n - 1))
    announce("ACCEPTANCE 01 PASS exact entry-moment identities, n=2..8 (U), 4..8 (O), exact")


# -- criterion 2 -------------------------------------------------------------

def test_criterion_02_weingarten_tables(announce):
    for k in (1, 2, 3, 4):
        for n in (4, 5, 6, 7, 8):
            assert is_inverse(gram("unitary", n, k), gram_inverse("unitary", n, k))
    for k in (1, 2, 3):
        for n in (6, 7, 8, 9, 10):
            assert is_inverse(gram("orthogonal", n, k), gram_inverse("orthogonal", n, k))
    for n in range(4, 11):
        assert weingarten_unitary(n, (1, 1)) == Fraction(1, n * n - 1)
        assert weingarten_unitary(n, (2,)) == Fraction(-1, n * (n * n - 1))
        assert weingarten_orthogonal(n, (1, 1)) == Fraction(n + 1, n * (n + 2) * (n - 1))
        assert weingarten_orthogonal(n, (2,)) == Fraction(-1, n * (n + 2) * (n - 1))
    announce("ACCEPTANCE 02 PASS Gram x Weingarten = identity (U k<=4 n=4..8, "
             "O k<=3 n=6..10) and k=2 closed forms, exact")


# -- criterion 3 -------------------------------------------------------------

def _all_corner_pairs(n):
    return [(p, q) for p in range(1, n + 1) for q in range(1, n + 1)]


def _distinct_samples(n, r, count, seed):
    rng = np.random.default_rng(seed)
    return [
        tuple((int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))) for _ in range(r))
        for _ in range(count)
    ]


def test_criterion_03_oracle_equivalence(announce):
    checked = 0
    for group, rmax in (("unitary", 3), ("orthogonal", 3)):
        for n in (4, 5, 6):
            for r in range(1, rmax + 1):
                pool = (_all_corner_pairs(n) if r == 1 else None)
                families = (
                    [(pq,) for pq in pool] if r == 1
                    else list(itertools.combinations_with_replacement(_all_corner_pairs(n), r))
                )
                for dims in families:
                    fam = ProjectorFamily(n, tuple(dims))
                    assert trace_cumulant(CumulantRequest(group, r, fam)) == \
                        cumulant_via_moments(group, fam), (group, n, r, dims)
                    checked += 1
    # unitary r = 4: full multiset grid at n=4; equal dims plus seeded
    # distinct-dims samples at n in {5, 6} (the fully exhaustive grid does
    # not fit the stated runtime; see notes)
    for dims in itertools.combinations_with_replacement(_all_corner_pairs(4), 4):
        fam = ProjectorFamily(4, tuple(dims))
        assert trace_cumulant(CumulantRequest("unitary", 4, fam)) == \
            cumulant_via_moments("unitary", fam)
        checked += 1
    for n in (5, 6):
        families = [((p, q),) * 4 for p, q in _all_corner_pairs(n)]
        families += _distinct_samples(n, 4, 120, seed=93000 + n)
        for dims in families:
            fam = ProjectorFamily(n, tuple(dims))
            assert trace_cumulant(CumulantRequest("unitary", 4, fam)) == \
                cumulant_via_moments("unitary", fam)
            checked += 1
    announce(f"ACCEPTANCE 03 PASS oracle equivalence (relative-cumulant route == "
             f"moment route), {checked} families, exact")


# -- criterion 4 -------------------------------------------------------------

def test_criterion_04_closed_forms(announce):
    checked = 0
    for n in (2, 3, 4, 5, 6):
        for p, q, p2, q2 in itertools.product(range(1, n + 1), repeat=4):
            fam = ProjectorFamily(n, ((p, q), (p2, q2)))
            assert trace_cumulant(CumulantRequest("unitary", 2, fam)) == \
                covariance_closed(p, q, p2, q2, n)
            checked += 1
    for n in (2, 3, 4, 5, 6):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                fam = ProjectorFamily.uniform(p, q, 2, n)
                assert trace_cumulant(CumulantRequest("orthogonal", 2, fam)) == \
                    covariance_closed_orthogonal(p, q, p, q, n)
                checked += 1
    announce(f"ACCEPTANCE 04 PASS closed-form covariance/variance formulas, "
             f"{checked} dimension tuples, exact")


# -- criterion 5 -------------------------------------------------------------

KAPPA3_RANGES = {"unitary": (8, 16, 32), "orthogonal": (8, 16, 24)}


@pytest.mark.xfail(
    strict=True,
    reason="kappa_3(T_{n/2,n/2}) = 0 exactly for even n (column-complement "
           "symmetry makes the centered law symmetric about 0), so |0| > |0| "
           "strict decrease is unsatisfiable as stated",
)
def test_criterion_05a_kappa3_decay_as_stated(announce):
    announce("ACCEPTANCE 05a UNATTAINABLE AS STATED |kappa3(T_{n/2,n/2})| is "
             "exactly 0 at every stated n (symmetric law); strict decrease "
             "impossible -- asserted literally under strict xfail")
    for group, ns in KAPPA3_RANGES.items():
        values = [
            abs(trace_cumulant(CumulantRequest(
                group, 3, ProjectorFamily.uniform(n // 2, n // 2, 3, n))))
            for n in ns
        ]
        assert values[0] > values[1] > values[2]


def test_criterion_05b_kappa3_exact_symmetry_zeros(announce):
    # the degeneracy behind 05a, verified exactly: zero at the stated
    # corners, and reflection antisymmetry away from them
    for group, ns in KAPPA3_RANGES.items():
        for n in ns:
            fam = ProjectorFamily.uniform(n // 2, n // 2, 3, n)
            assert trace_cumulant(CumulantRequest(group, 3, fam)) == 0
    for group in ("unitary", "orthogonal"):
        for p, q in ((2, 3), (1, 5), (3, 3)):
            plus = trace_cumulant(CumulantRequest(group, 3, ProjectorFamily.uniform(p, q, 3, 8)))
            minus = trace_cumulant(CumulantRequest(group, 3, ProjectorFamily.uniform(8 - p, q, 3, 8)))
            assert plus == -minus and plus != 0
    announce("ACCEPTANCE 05b PASS kappa3 symmetry zeros at (n/2, n/2) and exact "
             "reflection antisymmetry (the 05a degeneracy, proven in exact arithmetic)")


def test_criterion_05c_kappa3_decay_nondegenerate(announce):
    # the paper's r >= 3 decay, at the nearest corner family free of the
    # symmetry degeneracy: p = q = n/2 - 1
    report = []
    for group, ns in KAPPA3_RANGES.items():
        values = []
        for n in ns:
            m = n // 2 - 1
            fam = ProjectorFamily.uniform(m, m, 3, n)
            values.append(abs(trace_cumulant(CumulantRequest(group, 3, fam))))
        assert values[0] > values[1] > values[2] > 0
        report.append(f"{group}: " + " > ".join(f"{float(v):.3e}" for v in values))
    announce("ACCEPTANCE 05c PASS |kappa3(T_{n/2-1,n/2-1})| strictly decreasing "
             "(exact rationals): " + "; ".join(report))


def test_criterion_05d_kappa4_ratio_bound(announce):
    ratios = []
    for n in (6, 8, 10, 12):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                fam = ProjectorFamily.uniform(p, q, 4, n)
                k4 = trace_cumulant(CumulantRequest("unitary", 4, fam))
                ratios.append(abs(k4) * n**4 / Fraction(p * p * q * q))
    c_max = max(ratios)
    # exact constant computed by this engine and frozen; reported, not assumed
    assert c_max == Fraction(12606, 5915)
    assert all(r <= c_max for r in ratios)
    announce(f"ACCEPTANCE 05d PASS |kappa4| n^4 / (p^2 q^2) bounded by the single "
             f"constant {c_max} = {float(c_max):.4f} over p,q <= n in {{6,8,10,12}} "
             f"({len(ratios)} exact ratios)")


# -- criterion 6 -------------------------------------------------------------

def test_criterion_06_mc_variance(announce):
    report = []
    for group, seed in (("unitary", 2026), ("orthogonal", 2126)):
        vals = sample_process_values(group, 200, [(0.5, 0.5)], 10_000, master_seed=seed,
                                     workers=2)
        ks = kstat_estimators(vals[:, 0])
        exact = float(covariance_closed(100, 100, 100, 100, 200) if group == "unitary"
                      else covariance_closed_orthogonal(100, 100, 100, 100, 200))
        z = abs(ks.k2 - exact) / ks.se2
        assert z <= 3.0, (group, ks.k2, exact, ks.se2)
        report.append(f"{group}: k2={ks.k2:.5f} exact={exact:.5f} |z|={z:.2f}")
    announce("ACCEPTANCE 06 PASS MC variance at n=200, N=1e4, (p,q)=(100,100) "
             "within 3 jackknife SEs -- " + "; ".join(report))


# -- criteria 7 and 8 --------------------------------------------------------

def _covariance_check(group, values):
    beta = 2 if group == "unitary" else 1
    est, se = covariance_mc(values)
    worst_exact, worst_limit = 0.0, -math.inf
    for a in range(len(GRID_POINTS)):
        for b in range(a, len(GRID_POINTS)):
            s1, t1 = GRID_POINTS[a]
            s2, t2 = GRID_POINTS[b]
            p1, q1, p2, q2 = (int(BRIDGE_N * x) for x in (s1, t1, s2, t2))
            if group == "unitary":
                exact = float(covariance_closed(p1, q1, p2, q2, BRIDGE_N))
            else:
                fam = ProjectorFamily(BRIDGE_N, ((p1, q1), (p2, q2)))
                exact = float(trace_cumulant_orthogonal(
                    CumulantRequest("orthogonal", 2, fam)))
            limit = limit_covariance(s1, t1, s2, t2, beta)
            assert abs(est[a, b] - exact) <= 4 * se[a, b], (group, a, b)
            assert abs(est[a, b] - limit) <= 0.01 + 4 * se[a, b], (group, a, b)
            worst_exact = max(worst_exact, abs(est[a, b] - exact) / se[a, b])
            worst_limit = max(worst_limit, abs(est[a, b] - limit) - 4 * se[a, b])
    return worst_exact, worst_limit


def test_criterion_07_bridge_covariance(announce, bridge_values_unitary,
                                        bridge_values_orthogonal):
    wu = _covariance_check("unitary", bridge_values_unitary)
    wo = _covariance_check("orthogonal", bridge_values_orthogonal)
    announce(f"ACCEPTANCE 07 PASS n=400 N=5000 grid {{1/4,1/2,3/4}}^2: all 45 "
             f"covariances within 4 SE of exact and 0.01+4SE of the limit "
             f"(worst |z| U {wu[0]:.2f} / O {wo[0]:.2f}; worst limit slack "
             f"U {wu[1]:.4f} / O {wo[1]:.4f})")


def test_criterion_08_gaussianity(announce, bridge_values_unitary,
                                  bridge_values_orthogonal):
    center = GRID_POINTS.index((0.5, 0.5))
    report = []
    for group, values in (("unitary", bridge_values_unitary),
                          ("orthogonal", bridge_values_orthogonal)):
        w = values[:, center]
        exact_var = (covariance_closed(200, 200, 200, 200, BRIDGE_N) if group == "unitary"
                     else covariance_closed_orthogonal(200, 200, 200, 200, BRIDGE_N))
        ks_test = stats.kstest(w / math.sqrt(float(exact_var)), "norm")
        assert ks_test.pvalue > 0.01, (group, ks_test.pvalue)
        ks = kstat_estimators(w)
        assert abs(ks.k3) <= 4 * ks.se3
        assert abs(ks.k4) <= 4 * ks.se4
        report.append(f"{group}: KS p={ks_test.pvalue:.3f}, "
                      f"|k3|={abs(ks.k3):.1e}<=4se={4 * ks.se3:.1e}, "
                      f"|k4|={abs(ks.k4):.1e}<=4se={4 * ks.se4:.1e}")
    announce("ACCEPTANCE 08 PASS standardized W(1/2,1/2) Gaussian at n=400 -- "
             + "; ".join(report))


# -- criterion 9 -------------------------------------------------------------

def test_criterion_09_tightness_surrogate(announce):
    report = []
    for group in ("unitary", "orthogonal"):
        cs = []
        for n in (64, 128, 256):
            fit = increment_fourth_moment_fit(group, n, 800, master_seed=4101)
            assert math.isfinite(fit.c_max) and fit.c_max > 0
            cs.append(fit.c_max)
        spread = max(cs) / min(cs)
        assert spread < 2.0, (group, cs)
        report.append(f"{group}: C={cs[0]:.2f}/{cs[1]:.2f}/{cs[2]:.2f} spread x{spread:.2f}")
    announce("ACCEPTANCE 09 PASS dyadic-increment fourth-moment constant stable "
             "across n in {64,128,256} (report-only bound) -- " + "; ".join(report))


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_spectral_limit(announce):
    report = []
    for group in ("unitary", "orthogonal"):
        res = spectral_compare(400, 0.3, 0.5, 50, master_seed=1005, group=group)
        assert res.warnings == ()
        assert res.l1_distance <= 0.05, (group, res.l1_distance)
        assert abs(res.mean_eigenvalue - 0.5) <= 3 * res.mean_se
        report.append(f"{group}: L1={res.l1_distance:.4f}, "
                      f"mean={res.mean_eigenvalue:.4f}+-{res.mean_se:.4f}")
    announce("ACCEPTANCE 10 PASS spectral histogram vs Kesten-McKay at n=400, "
             "s=0.3, t=0.5, 50 replicas -- " + "; ".join(report))


# -- criterion 11 ------------------------------------------------------------

def test_criterion_11_sampler_correctness(announce):
    x = np.abs(map_replicas("unitary", 8, 100_000, 1101, lambda z: z)[:, 0, 0]) ** 2
    ks = stats.kstest(x, stats.beta(1, 7).cdf)
    assert ks.pvalue > 0.01
    worst = 0.0
    for n in (64, 256, 512):
        worst = max(worst,
                    orthonormality_residual(haar_sample("unitary", n, SeedSpec(1102, n))),
                    orthonormality_residual(haar_sample("orthogonal", n, SeedSpec(1102, n))))
    assert worst <= 1e-12
    announce(f"ACCEPTANCE 11 PASS |U11|^2 ~ Beta(1, n-1) KS p={ks.pvalue:.3f} at "
             f"n=8, N=1e5; orthonormality residual <= {worst:.1e} up to n=512")
