"""Monte Carlo side: the centered corner-mass process and its statistics.

A corner trace T_{p,q} is the squared-entry mass of the leading p x q block
of a sampled matrix.  The replica pipelines read only the corners they need
from each stack of sampled blocks (`corner_traces`), and sample only the
block that spans the corners strictly inside the matrix; T on a side of 0
or n is exact.  The pointwise functions below read one matrix through its
full 2D prefix-sum grid (`trace_field`).  The centered process is

    W(s, t) = T_{floor(ns), floor(nt)} - floor(ns) floor(nt) / n

with right-continuous steps, vanishing on the axes and at (1,1).  Across
replicas we estimate cumulants with unbiased k-statistics, covariances of
grid values, fourth moments of rectangular increments, and the corner
product's spectrum, each with jackknife or plain standard errors.  The
spectrum's limit law (Kesten-McKay density) lives here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, InsufficientReplicasError
from .sampling import map_replicas

GridPoint = tuple[float, float]


# ---------------------------------------------------------------------------
# Trace fields and the centered process
# ---------------------------------------------------------------------------

def _squared_moduli(m: np.ndarray, n: int) -> np.ndarray:
    """|m|^2, in extended precision from n = 1000 on, where float64 sums lose T_{n,n} = n."""
    return (np.abs(m) ** 2).astype(np.longdouble if n >= 1000 else np.float64, copy=False)


def trace_field(m: np.ndarray) -> np.ndarray:
    """Prefix-sum grid of an n x q block (q <= n) or of each in a (k, n, q) stack.

    A float64 array of shape ([k,] n+1, q+1) whose cell (p, q) holds T_{p,q};
    row and column 0 are zero.
    """
    m = np.asarray(m)
    if m.ndim not in (2, 3):
        raise DimensionError(f"expected a block or a stack of blocks, got shape {m.shape}")
    n, cols = m.shape[-2:]
    if cols > n:
        raise DimensionError(f"expected n x q columns with q <= n, got shape {m.shape}")
    weights = _squared_moduli(m, n)
    cum = np.zeros((*m.shape[:-2], n + 1, cols + 1), dtype=weights.dtype)
    np.cumsum(weights, axis=-2, out=weights)
    np.cumsum(weights, axis=-1, out=weights)
    cum[..., 1:, 1:] = weights
    return cum.astype(np.float64, copy=False)


def corner_traces(n: int, ps, qs) -> tuple[Callable[[np.ndarray], np.ndarray], int, int]:
    """(traces, rows, columns): a stack function for the corner traces
    T_{ps[i], qs[i]} of n x n samples, and the leading block it reads.

    traces maps a (k, rows, columns) stack of leading blocks to the
    (k, len(ps)) corner traces.  A side of 0 or n gives the exact
    min(p, q), so the block spans only the corners inside, at least 1 x 1;
    their traces equal `trace_field`'s entries bit for bit (summed down the
    rows, then along).
    """
    ps, qs = np.asarray(ps, dtype=np.intp), np.asarray(qs, dtype=np.intp)
    exact = (ps == 0) | (qs == 0) | (ps == n) | (qs == n)
    fixed = np.where(exact, np.minimum(ps, qs), 0).astype(np.float64)
    inner = np.flatnonzero(~exact)
    rows, row_of = np.unique(ps[inner] - 1, return_inverse=True)
    cols = qs[inner] - 1

    def traces(stack: np.ndarray) -> np.ndarray:
        weights = _squared_moduli(stack, n)
        np.cumsum(weights, axis=-2, out=weights)
        picked = weights[:, rows]
        np.cumsum(picked, axis=-1, out=picked)
        out = np.tile(fixed, (len(stack), 1))
        out[:, inner] = picked[:, row_of, cols]
        return out

    return traces, int(rows.max(initial=0)) + 1, int(cols.max(initial=0)) + 1


def floor_index(n: int, x: float | Fraction) -> int:
    """floor(n x) clipped to [0, n], exact when x is a Fraction.

    Callers that parse decimals pass Fractions: in floats 100 * 0.29 is
    28.999999999999996, which floors to 28 instead of 29.
    """
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    return min(n, max(0, math.floor(n * x)))


def process_value(f: np.ndarray, s: float, t: float) -> float:
    """Centered process W(s,t) of the `trace_field` f of one n x q block.

    Right-continuous step interpolation, with n read from f's rows.  W
    vanishes identically on the axes and on the lines s = 1 and t = 1
    (T_{n,q} = q and T_{p,n} = p); there the value is an exact 0, not the
    rounding noise of the sampled corner.
    """
    n = f.shape[0] - 1
    p, q = floor_index(n, s), floor_index(n, t)
    if n in (p, q):
        return 0.0
    return float(f[p, q]) - p * q / n


# ---------------------------------------------------------------------------
# Replica pipelines
# ---------------------------------------------------------------------------

def sample_process_values(group: str, n: int, grid_points: Sequence[GridPoint],
                          replicas: int, master_seed: int, workers: int = 1) -> np.ndarray:
    """Matrix of W values, one row per replica, one column per grid point.

    Equal, value for value, to `process_value` at each point, so points on
    the axes and on the lines s = 1 and t = 1 give an exact 0.  The corner
    reader and the centring are built once, and only the block that
    `corner_traces` reads is sampled.
    """
    ps, qs = np.array([(floor_index(n, s), floor_index(n, t)) for s, t in grid_points],
                      dtype=np.intp).reshape(-1, 2).T
    traces, rows, columns = corner_traces(n, ps, qs)
    centre = ps * qs / n

    def values(stack: np.ndarray) -> np.ndarray:
        return traces(stack) - centre

    return map_replicas(group, n, replicas, master_seed, values, workers=workers,
                        columns=columns, rows=rows)


# ---------------------------------------------------------------------------
# k-statistics and covariance with jackknife standard errors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KStats:
    """Unbiased cumulant estimates of orders 2..4 with jackknife SEs."""

    k2: float
    k3: float
    k4: float
    se2: float
    se3: float
    se4: float


def _kstats_from_sums(count, s1, s2, s3, s4):
    # powers by products: numpy sends x**3 and x**4 through libm `pow`
    m = count
    s1sq = s1 * s1
    k2 = (m * s2 - s1sq) / (m * (m - 1))
    k3 = (2 * s1sq * s1 - 3 * m * s1 * s2 + m**2 * s3) / (m * (m - 1) * (m - 2))
    k4 = (-6 * s1sq * s1sq + 12 * m * s1sq * s2 - 3 * m * (m - 1) * s2**2
          - 4 * m * (m + 1) * s1 * s3 + m**2 * (m + 1) * s4) / (m * (m - 1) * (m - 2) * (m - 3))
    return k2, k3, k4


def kstat_estimators(values: Sequence[float]) -> KStats:
    """k-statistics k2..k4 of one sample, with leave-one-out jackknife SEs.

    Values are centered by the sample mean first; k-statistics of order >= 2
    are shift-invariant and the centering avoids cancellation in the raw
    power sums.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n < 8:
        raise InsufficientReplicasError(f"k-statistics need at least 8 replicas, got {n}")
    x = x - x.mean()
    x2 = x * x
    powers = np.stack([x, x2, x2 * x, x2 * x2])
    sums = powers.sum(axis=1)
    k2, k3, k4 = _kstats_from_sums(n, *sums)
    loo = sums[:, None] - powers  # (4, n): sums with replica i removed
    j2, j3, j4 = _kstats_from_sums(n - 1, loo[0], loo[1], loo[2], loo[3])
    ses = [
        math.sqrt(max(0.0, (n - 1) / n * np.sum((j - j.mean()) ** 2)))
        for j in (j2, j3, j4)
    ]
    return KStats(float(k2), float(k3), float(k4), *ses)


def check_covariance_replicas(replicas: int) -> None:
    """Raise InsufficientReplicasError unless `covariance_mc` accepts this many rows."""
    if replicas < 100:
        raise InsufficientReplicasError(f"covariance needs at least 100 replicas, got {replicas}")


def covariance_mc(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical covariance across grid points with jackknife SEs.

    Returns (estimate, se), both (G, G).  For centred rows a_i and
    S = sum_i a_i a_i^T, leaving replica i out gives the covariance
    (S - N/(N-1) a_i a_i^T) / (N-2), so the jackknife variance is

        se^2 = N / ((N-1) (N-2)^2) * [(A o A)^T (A o A) - S o S / N]

    (o the entrywise product): one more G x G product.  Memory is one
    centred N x G copy of the input plus O(G^2), with no N x G x G array.
    Degenerate columns (identically zero boundary points) produce exact
    zero rows with zero SE.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError("expected a replicas x grid-points matrix")
    n = a.shape[0]
    check_covariance_replicas(n)
    a = a - a.mean(axis=0)
    s_ab = a.T @ a
    est = s_ab / (n - 1)
    np.square(a, out=a)  # the centred copy is ours; S is already taken from it
    spread = a.T @ a - s_ab * s_ab / n
    se = np.sqrt(np.maximum(0.0, n / ((n - 1) * (n - 2) ** 2) * spread))
    return est, se


# ---------------------------------------------------------------------------
# Spectral limit: generalized Kesten-McKay / arcsine family
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


@dataclass(frozen=True)
class KestenMcKay:
    """Limiting spectral law of the corner product at aspect ratios (s, t).

    Support endpoints u- and u+ and normalizing constant are closed-form;
    masses and moments are computed by Gauss-Legendre quadrature after the
    substitution x = u- + (u+ - u-) sin^2(theta), which removes the
    square-root edge singularities.
    """

    s: float
    t: float
    u_minus: float
    u_plus: float
    const: float
    clean_regime: bool

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        inside = (x > self.u_minus) & (x < self.u_plus) & (x > 0) & (x < 1)
        xi = x[inside]
        out[inside] = (self.const
                       * np.sqrt((xi - self.u_minus) * (self.u_plus - xi))
                       / (2 * np.pi * xi * (1 - xi)))
        return out

    def _theta_of(self, x: float) -> float:
        width = self.u_plus - self.u_minus
        frac = min(1.0, max(0.0, (x - self.u_minus) / width))
        return math.asin(math.sqrt(frac))

    def _quad(self, a: float, b: float, moment: int, order: int = 240) -> float:
        lo = max(a, self.u_minus)
        hi = min(b, self.u_plus)
        if lo >= hi:
            return 0.0
        ta, tb = self._theta_of(lo), self._theta_of(hi)
        nodes, wts = _leggauss(order)
        theta = 0.5 * (tb - ta) * nodes + 0.5 * (ta + tb)
        width = self.u_plus - self.u_minus
        sin2 = np.sin(theta) ** 2
        x = self.u_minus + width * sin2
        dens = (self.const * width**2 * 2 * sin2 * np.cos(theta) ** 2
                / (2 * np.pi * x * (1 - x)))
        return float(0.5 * (tb - ta) * np.sum(wts * dens * x**moment))

    def mass(self, a: float, b: float) -> float:
        """Probability mass of [a, b]."""
        return self._quad(a, b, moment=0)

    def mean(self) -> float:
        return self._quad(self.u_minus, self.u_plus, moment=1)


def kesten_mckay(s: float, t: float) -> KestenMcKay:
    """Limit law parameters for aspect ratios s, t in the open unit square.

    The density form holds on the clean regime s <= min(t, 1-t); outside it
    the limit carries boundary atoms whose masses are not modeled here, and
    the returned object is flagged accordingly.
    """
    if not (0.0 < s < 1.0 and 0.0 < t < 1.0):
        raise ValueError(f"aspect ratios must lie strictly inside (0,1), got s={s}, t={t}")
    u_minus = (math.sqrt(s * (1 - t)) - math.sqrt((1 - s) * t)) ** 2
    u_plus = (math.sqrt(s * (1 - t)) + math.sqrt((1 - s) * t)) ** 2
    inv_const = 0.5 * (1 - math.sqrt(u_minus * u_plus)
                       - math.sqrt((1 - u_minus) * (1 - u_plus)))
    clean = s <= min(t, 1 - t) + 1e-12
    return KestenMcKay(s, t, u_minus, u_plus, 1.0 / inv_const, clean)


@dataclass(frozen=True)
class SpectralHistogram:
    """Pooled eigenvalue histogram of the p x q corner product vs the limit law."""

    p: int
    q: int
    bin_edges: np.ndarray
    empirical_mass: np.ndarray
    reference_mass: np.ndarray
    l1_distance: float
    mean_eigenvalue: float
    mean_se: float
    warnings: tuple[str, ...]


def spectral_compare(n: int, s: float, t: float, replicas: int, master_seed: int,
                     group: str = "unitary", bins: int = 40,
                     workers: int = 1) -> SpectralHistogram:
    """Empirical spectrum of the p x q corner product against the limit law.

    Clean Jacobi regime wants floor(ns) <= floor(nt) and their sum <= n;
    violations only set a warning flag, the computation proceeds.  The
    corner is floored exactly when s and t are Fractions.
    """
    if bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins}")
    if replicas < 2:
        raise InsufficientReplicasError(
            f"spectra needs at least 2 replicas for the standard error of the "
            f"mean eigenvalue, got {replicas}")
    p, q = floor_index(n, s), floor_index(n, t)
    s, t = float(s), float(t)
    if p == 0 or q == 0:
        raise ValueError(f"corner must be nondegenerate: floor(ns), floor(nt) >= 1, "
                         f"got floor(ns) = {p}, floor(nt) = {q}")
    warnings = []
    if not (p <= q and p + q <= n):
        warnings.append("jacobi-regime violated: expect boundary atoms")
    law = kesten_mckay(s, t)
    if not law.clean_regime:
        warnings.append("density regime s <= min(t, 1-t) violated")

    def eigenvalues(v: np.ndarray) -> np.ndarray:  # v: the leading p x q blocks
        return np.linalg.eigvalsh(v @ v.conj().transpose(0, 2, 1)).real

    eigs = map_replicas(group, n, replicas, master_seed, eigenvalues, workers=workers,
                        columns=q, rows=p)
    edges = np.linspace(0.0, 1.0, bins + 1)
    pooled = np.clip(eigs.ravel(), 0.0, 1.0)
    counts, _ = np.histogram(pooled, bins=edges)
    emp_mass = counts / counts.sum()
    ref_mass = np.array([law.mass(a, b) for a, b in zip(edges[:-1], edges[1:])])
    means = eigs.mean(axis=1)
    return SpectralHistogram(
        p=p, q=q, bin_edges=edges, empirical_mass=emp_mass, reference_mass=ref_mass,
        l1_distance=float(np.abs(emp_mass - ref_mass).sum()),
        mean_eigenvalue=float(means.mean()),
        mean_se=float(means.std(ddof=1) / math.sqrt(replicas)),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Increment fourth moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncrementFit:
    """Fourth moments of dyadic block increments and the fitted constant.

    For each dyadic block B the ratio E[W(B)^4] * n^4 / ((dp dq)^2) is
    recorded; c_max is the largest ratio over all blocks with nonempty
    integer sides.
    """

    blocks: tuple[tuple[int, int, int, int, int], ...]  # (level, i, j, dp, dq)
    fourth_moments: np.ndarray
    fourth_moment_ses: np.ndarray
    ratios: np.ndarray
    c_max: float


def increment_fourth_moment_fit(group: str, n: int, replicas: int, master_seed: int,
                                levels: Sequence[int] = (1, 2, 3),
                                workers: int = 1) -> IncrementFit:
    """Estimate E[increment^4] over dyadic blocks and fit the scaling constant."""
    if replicas < 2:
        raise InsufficientReplicasError(f"increment fit needs at least 2 replicas, got {replicas}")
    levels = tuple(levels)
    if not levels or min(levels) < 1:
        raise ValueError(f"levels must be one or more integers >= 1, got {levels}")
    blocks, corners = [], []  # (level, i, j, dp, dq) and (p1, p2, q1, q2) per block
    for lev in levels:
        cells = 2 ** lev
        cuts = [floor_index(n, i / cells) for i in range(cells + 1)]
        for i in range(cells):
            for j in range(cells):
                dp, dq = cuts[i + 1] - cuts[i], cuts[j + 1] - cuts[j]
                if dp > 0 and dq > 0:
                    blocks.append((lev, i, j, dp, dq))
                    corners.append((cuts[i], cuts[i + 1], cuts[j], cuts[j + 1]))
    cuts = np.array(corners, dtype=np.intp).reshape(-1, 4)
    p1, p2, q1, q2 = cuts.T
    centre = (p2 - p1) * (q2 - q1) / n
    traces, rows, columns = corner_traces(n, np.concatenate([p2, p2, p1, p1]),
                                          np.concatenate([q2, q1, q2, q1]))

    def increments(stack: np.ndarray) -> np.ndarray:
        # T at the block's corners (p2, q2) - (p2, q1) - (p1, q2) + (p1, q1), less its centring
        t = traces(stack).reshape(len(stack), 4, -1)
        return t[:, 0] - t[:, 1] - t[:, 2] + t[:, 3] - centre

    deltas = map_replicas(group, n, replicas, master_seed, increments, workers=workers,
                          columns=columns, rows=rows)
    d2 = deltas * deltas
    d4 = d2 * d2
    fourth = d4.mean(axis=0)
    ses = d4.std(axis=0, ddof=1) / math.sqrt(replicas)
    scale = np.array([float(n) ** 4 / (dp * dp * dq * dq) for (_, _, _, dp, dq) in blocks])
    ratios = fourth * scale
    return IncrementFit(
        blocks=tuple(blocks), fourth_moments=fourth, fourth_moment_ses=ses,
        ratios=ratios, c_max=float(ratios.max()),
    )
