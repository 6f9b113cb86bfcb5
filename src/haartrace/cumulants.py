"""Classical and relative cumulants of corner-trace statistics.

The statistic of interest is the squared-entry mass of a p x q corner of a
Haar matrix, written here as the trace of D U Dbar U* for coordinate
projectors D = I_p, Dbar = I_q.  Joint cumulants of several such traces have
an exact finite-n expansion as a double sum over permutation pairs of
relative Weingarten cumulants times products of per-cycle projector traces:

    unitary:     kappa_r = sum_{alpha, beta}  sum_A  C_{beta alpha^-1, A}
                           * Tr_alpha(Dbar) * Tr_{beta^-1}(D)
    orthogonal:  kappa_r = sum_{alpha, beta, eps}  2^(r - #alpha - #beta)
                           * sum_A  C_{sigma, A} * Tr_alpha(D) * Tr_{beta^-1}(Dbar)

where A ranges over partitions that coarsen the cycle partition of the
Weingarten argument while joining with those of alpha and beta to the full
one-block partition, and (orthogonal case) sigma is the double-coset
representative of t_{alpha^-1} tau_eps t_beta in S_2r (Collins and Sniady,
CMP 264, 2006).  Only sigma's cycles, as sets of labels, enter the sum, and
they are read straight off (alpha, beta, eps) by `_sigma_blocks`.

Both sums are evaluated one way.  The admissible (pi, A) do not depend on n,
so they are found once per (group, r), as monomials in cycle-set cumulants.
A pair coefficient depends on (alpha, beta) only up to relabelling the r
trace factors, that is up to simultaneous conjugation by g in S_r: the
relabelled pi is conjugate to pi (orthogonal: relabelling both copies of [r]
lies in H_r, so sigma keeps its double coset), and A moves with it.  So the
monomials are found once per conjugacy orbit of pairs (1, 4, 11 and 43 orbits
of the 1, 4, 36 and 576 pairs at r = 1..4).  Tr_alpha depends only on the
cycle partition of alpha, so at n each orbit is evaluated once into one
integer matrix C over a common denominator D, indexed by the partitions of
[r] (15 x 15 at r = 4) and cached per (group, n, r).  A family costs two trace
vectors a_A, b_B, each entry the product over the blocks of the partition of
the smallest corner side, and one product kappa_r = a^T C b / D.  Everything
on this path is exact.

An independent moment-side oracle (`cumulant_via_moments`) recomputes every
cumulant from raw joint moments by the Weingarten integration formula
(Collins and Sniady, CMP 264, 2006), the same for both groups: a block of m
trace factors has the moment

    E(prod_a T_{p_a, q_a}) = sum_{pi, sigma} Tr_pi(rows) Tr_sigma(cols) G^-1[pi, sigma]

over the pairings that index the Gram matrix G.  `gram_inverse` gives G^-1
as integers N over one denominator D.  Tr_pi depends only on the loops of pi
with gamma_pairing(m), a set partition of [m], so N summed over those
partitions is one integer matrix M over the same D per (group, n, m), and a
block costs the integer a^T M b over D.  The Mobius sum over P(r) of their
products runs in integers over one common denominator per (group, n, r).
The two routes share only `gram_inverse`, so tests can compare them.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .combinatorics import (
    Permutation,
    SetPartition,
    _connected_groups,
    all_permutations,
    cycle_partition,
    enumerate_partitions,
    gamma_pairing,
    join,
    one_partition,
    pair_orbits,
)
from .errors import DimensionError, SizeLimitError
from .weingarten import (
    ORDER_LIMITS,
    gram_inverse,
    pairings,
    weingarten_orthogonal,
    weingarten_unitary,
)

GROUPS = tuple(ORDER_LIMITS)


@dataclass(frozen=True)
class ProjectorFamily:
    """Corner dimensions (p_a, q_a), one pair per trace factor, inside [0, n]."""

    n: int
    dims: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionError(f"matrix size must be positive, got {self.n}")
        for p, q in self.dims:
            if not (0 <= p <= self.n and 0 <= q <= self.n):
                raise DimensionError(f"corner dims ({p},{q}) outside [0,{self.n}]")

    @classmethod
    def uniform(cls, p: int, q: int, r: int, n: int) -> "ProjectorFamily":
        return cls(n, tuple((p, q) for _ in range(r)))

    @property
    def r(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class CumulantRequest:
    group: str
    order: int
    family: ProjectorFamily

    def __post_init__(self) -> None:
        if self.group not in GROUPS:
            raise ValueError(f"group must be one of {GROUPS}")
        if self.order != self.family.r:
            raise ValueError("order must match the number of trace factors")


# ---------------------------------------------------------------------------
# Relative cumulants of the Weingarten functions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cycle_set_cumulant(group: str, n: int, lengths: tuple[int, ...]) -> Fraction:
    """Combinatorial cumulant of Weingarten values over a multiset of cycles.

    Sums over set partitions of the given cycles; each grouping contributes
    the Mobius factor (-1)^(s-1)(s-1)! times the product of Weingarten values
    of the merged cycle types.  The relative cumulant C_{pi, A}, the Mobius
    inversion of block products of Weingarten values along [0_pi, A], is the
    product of this value over the blocks of A, each at the lengths of the
    cycles of pi inside it.
    """
    wg = weingarten_unitary if group == "unitary" else weingarten_orthogonal
    total = Fraction(0)
    for part in enumerate_partitions(len(lengths)):
        s = part.num_blocks  # Mobius factor of the one-block coarsening of this grouping
        term = Fraction((-1) ** (s - 1) * math.factorial(s - 1))
        for block in part.blocks:
            merged = tuple(sorted((lengths[a - 1] for a in block), reverse=True))
            term *= wg(n, merged)
        total += term
    return total


# ---------------------------------------------------------------------------
# Trace cumulants: the closed double-sum route
# ---------------------------------------------------------------------------

def _sigma_blocks(alpha: Permutation, beta: Permutation, eps: tuple) -> list[list[int]]:
    """The cycles of sigma(alpha, beta, eps) as sets of labels, by least element.

    sigma is the double-coset representative of g = t_{alpha^-1} tau_eps t_beta
    in S_2r: its cycles are the loops of the pairing {g(i), g(bar i)} with
    the reference pairing {a, bar a}, read by their labels a.  g sends i to a
    copy of l1(i) and bar i to a copy of l2(i), with l1(i) = i if eps_i = +1
    and alpha^-1(i) otherwise, and l2(i) = alpha^-1(beta(i)) if
    eps_beta(i) = +1 and beta(i) otherwise.  So the cycles of sigma are the
    connected groups of [r] under the links l1(i) - l2(i); no permutation of
    [2r] is built.
    """
    inv = alpha.inverse()
    links = [(i if e == 1 else inv(i), inv(b) if eps[b - 1] == 1 else b)
             for i, (e, b) in enumerate(zip(eps, beta.images), start=1)]
    return _connected_groups(alpha.size, links)


@lru_cache(maxsize=None)
def _admissible_monomials(group: str, r: int) -> tuple[tuple[Fraction, tuple], ...]:
    """The n-free part of the pair coefficients: a weight and monomials per pair orbit.

    The coefficient of one (alpha, beta) term sums relative cumulants C_{pi, A}
    over admissible A: groupings of the cycles of pi that join with the cycle
    partitions of alpha and beta to the one-block partition.  pi is
    beta alpha^-1 (unitary), or the sigma of every sign vector eps, with weight
    2^(r - #alpha - #beta) (orthogonal); either is read only as its cycles,
    sets of labels: `Permutation.cycles` or `_sigma_blocks`.  C_{pi, A}
    factorizes over blocks, so A is kept as a monomial: the sorted tuple of
    its blocks' cycle types.

    Relabelling by g in S_r keeps the weight and the monomial multiset, so
    entry k is built for the leader of the k-th `pair_orbits(r)` orbit only
    and holds for every pair of that orbit.  The monomials of a pair are the
    same multiset as its own construction would give; only their order may
    differ.
    """
    full = one_partition(r)
    perms = all_permutations(r)
    entries = []
    for orbit in pair_orbits(r):
        alpha, beta = (perms[i] for i in orbit[0])
        ab = join(cycle_partition(alpha), cycle_partition(beta))
        if group == "unitary":
            pis, weight = [(beta * alpha.inverse()).cycles()], Fraction(1)
        else:
            pis = [_sigma_blocks(alpha, beta, eps)
                   for eps in itertools.product((1, -1), repeat=r)]
            weight = Fraction(2 ** r, 2 ** (alpha.num_cycles + beta.num_cycles))
        monomials: Counter = Counter()
        for cycles in pis:
            for grouping in enumerate_partitions(len(cycles)):
                blocks = [[cycles[c - 1] for c in block] for block in grouping.blocks]
                merged = [[x for cycle in block for x in cycle] for block in blocks]
                if join(SetPartition.of(r, merged), ab) == full:
                    monomials[tuple(sorted(tuple(sorted(map(len, block), reverse=True))
                                           for block in blocks))] += 1
        entries.append((weight, tuple(monomials.items())))
    return tuple(entries)


@lru_cache(maxsize=None)
def _coefficient_table(group: str, n: int, r: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer matrix C and common denominator D of the pair coefficients.

    Row A and column B belong to the A-th and B-th partition of
    `enumerate_partitions(r)`: C[A][B] / D sums the coefficients of the pairs
    (alpha, beta) whose cycle partitions are A and B.  Each orbit's
    (weight, monomials) entry of `_admissible_monomials` is evaluated at n
    once and added to the cells of the orbit's pairs.
    """
    coeffs = [weight * sum((count * math.prod(_cycle_set_cumulant(group, n, t) for t in mono)
                            for mono, count in monomials), Fraction(0))
              for weight, monomials in _admissible_monomials(group, r)]
    denom = math.lcm(*(c.denominator for c in coeffs))
    parts = enumerate_partitions(r)
    part_of = [parts.index(cycle_partition(perm)) for perm in all_permutations(r)]
    table = [[0] * len(parts) for _ in parts]
    for c, orbit in zip(coeffs, pair_orbits(r)):
        scaled = c.numerator * (denom // c.denominator)
        for i, j in orbit:
            table[part_of[i]][part_of[j]] += scaled
    return tuple(map(tuple, table)), denom


def trace_cumulant(req: CumulantRequest) -> Fraction:
    """Exact order-r joint cumulant of corner traces of a Haar matrix.

    kappa_r = a^T C b / D over the partitions A, B of [r].  A cycle of
    nested coordinate projectors multiplies to the one of smallest rank, so
    Tr_alpha of a permutation with cycle partition A is a_A, the product over
    the blocks of A of the smallest corner side; b_B likewise.  Alpha reads
    the column sides for unitary matrices and the row sides for orthogonal
    ones.
    """
    group, fam, r = req.group, req.family, req.order
    limit = ORDER_LIMITS[group]
    if not 1 <= r <= limit:
        raise SizeLimitError(f"{group} trace cumulants limited to r <= {limit}")
    parts = enumerate_partitions(r)
    a, b = ([math.prod(min(fam.dims[x - 1][side] for x in block) for block in part.blocks)
             for part in parts] for side in ((1, 0) if group == "unitary" else (0, 1)))
    table, denom = _coefficient_table(group, fam.n, r)
    total = sum(x * sum(map(operator.mul, row, b)) for x, row in zip(a, table))
    return Fraction(total, denom)


def trace_cumulant_unitary(req: CumulantRequest) -> Fraction:
    """Exact order-r joint cumulant of corner traces of a Haar unitary."""
    if req.group != "unitary":
        raise ValueError("request group must be 'unitary'")
    return trace_cumulant(req)


def trace_cumulant_orthogonal(req: CumulantRequest) -> Fraction:
    """Exact order-r joint cumulant of corner traces of a Haar orthogonal."""
    if req.group != "orthogonal":
        raise ValueError("request group must be 'orthogonal'")
    return trace_cumulant(req)


# ---------------------------------------------------------------------------
# Independent oracle: joint moments of corner traces
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _moment_matrix(group: str, n: int, m: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer matrix M and common denominator D of the block-moment weights.

    Row A and column B run over `enumerate_partitions(m)`.  With
    gram_inverse(group, n, m) = (N, D), M[A, B] sums N[pi][sigma] over the
    pairings pi and sigma whose loops with gamma_pairing(m), restricted to
    the labels 1..m, form A and B; for a unitary pairing perm_pairing(alpha)
    these are the cycles of alpha.
    """
    index = {part: i for i, part in enumerate(enumerate_partitions(m))}
    gamma = gamma_pairing(m).as_partition()
    loops = [index[SetPartition.of(m, [[a for a in block if a <= m] for block in
                                       join(p.as_partition(), gamma).blocks])]
             for p in pairings(group, m)]
    inverse, denom = gram_inverse(group, n, m)
    table = [[0] * len(index) for _ in index]
    for a, row in zip(loops, inverse):
        for b, x in zip(loops, row):
            table[a][b] += x
    return tuple(map(tuple, table)), denom


@lru_cache(maxsize=None)
def _block_moment(group: str, n: int, pq: tuple[tuple[int, int], ...]) -> int:
    """Exact E(prod_a T_{p_a, q_a}) for one block of m trace factors, times D_m.

    By the Weingarten integration formula the product of corner sums is the
    sum over pairings pi, sigma of Tr_pi(rows) Tr_sigma(cols) G^-1[pi, sigma].
    A pairing admits the indices constant on the blocks of its loop partition
    A, so Tr_pi(dims) is the product of per-block minima of dims, and the
    moment is a^T M b / D_m with a_A = Tr_A(rows), b_B = Tr_B(cols) and
    `_moment_matrix(group, n, m)` = (M, D_m); a^T M b is returned.
    """
    parts = enumerate_partitions(len(pq))
    a, b = ([math.prod(min(pq[x - 1][side] for x in block) for block in part.blocks)
             for part in parts] for side in (0, 1))
    table, _ = _moment_matrix(group, n, len(pq))
    return sum(x * sum(map(operator.mul, row, b)) for x, row in zip(a, table))


@lru_cache(maxsize=None)
def _moment_weights(group: str, n: int, r: int) -> tuple[tuple[int, ...], int]:
    """Integer weights w_c = mu(c, 1) L / prod_b D_{|b|} over L, the lcm of those products.

    D_m is the denominator of `_moment_matrix(group, n, m)`, and c in P(r) with
    k blocks has mu(c, 1) = (-1)^(k-1) (k-1)!.
    """
    parts = enumerate_partitions(r)
    denoms = [math.prod(_moment_matrix(group, n, len(block))[1] for block in c.blocks)
              for c in parts]
    common = math.lcm(*denoms)
    return tuple((-1) ** (c.num_blocks - 1) * math.factorial(c.num_blocks - 1) * (common // d)
                 for c, d in zip(parts, denoms)), common


def cumulant_via_moments(group: str, family: ProjectorFamily) -> Fraction:
    """kappa_r recomputed from raw moments (the independent verification route).

    kappa_r = sum_c mu(c, 1) prod_b E_b = sum_c w_c prod_b N_b / L over c in
    P(r), with the block numerators N_b of `_block_moment`.
    """
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}")
    limit = ORDER_LIMITS[group]
    if family.r > limit:
        raise SizeLimitError(f"mixed moments limited to r <= {limit} for {group}")
    weights, common = _moment_weights(group, family.n, family.r)
    total = 0
    for term, c in zip(weights, enumerate_partitions(family.r)):
        for block in c.blocks:
            term *= _block_moment(group, family.n, tuple(sorted(family.dims[a - 1] for a in block)))
        total += term
    return Fraction(total, common)


# ---------------------------------------------------------------------------
# Closed forms and limits
# ---------------------------------------------------------------------------

def _check_dims(n: int, *dims: int) -> None:
    if n < 2:
        raise DimensionError(f"matrix size must be at least 2, got {n}")
    for d in dims:
        if not 1 <= d <= n:
            raise DimensionError(f"corner dimension {d} outside [1,{n}]")


def covariance_closed(p: int, q: int, p2: int, q2: int, n: int) -> Fraction:
    """Exact covariance of unitary corner traces T_{p,q} and T_{p2,q2}.

    With a = min(p, p2) and b = min(q, q2) it is
    [n^2 ab - n(a q q2 + p p2 b) + p p2 q q2] / (n^2 (n^2 - 1)).
    """
    _check_dims(n, p, q, p2, q2)
    a, b, pp, qq = min(p, p2), min(q, q2), p * p2, q * q2
    return Fraction(n * n * a * b - n * (a * qq + pp * b) + pp * qq, n * n * (n * n - 1))


def covariance_closed_orthogonal(p: int, q: int, p2: int, q2: int, n: int) -> Fraction:
    """Exact covariance of orthogonal corner traces T_{p,q} and T_{p2,q2}.

    With a = min(p, p2), b = min(q, q2), A = p p2 - a and B = q q2 - b it is
    2[(n-1)^2 ab - (n-1)(aB + Ab) + AB] / (n^2 (n-1)(n+2)), from the entry
    moments E O^4 = 3/(n(n+2)), E O_ij^2 O_il^2 = 1/(n(n+2)) and
    E O_ij^2 O_kl^2 = (n+1)/(n(n-1)(n+2)) (Collins and Sniady, CMP 264, 2006).
    """
    _check_dims(n, p, q, p2, q2)
    a, b, m = min(p, p2), min(q, q2), n - 1
    A, B = p * p2 - a, q * q2 - b
    return Fraction(2 * (m * m * a * b - m * (a * B + A * b) + A * B), n * n * m * (n + 2))


def process_covariances(group: str, n: int, dims: Sequence[tuple[int, int]]) -> list[Fraction]:
    """Exact covariances of the centered corner traces at every pair of
    corners dims[a], dims[b] with a <= b, row by row: (0, 0), (0, 1), ...,
    (1, 1), (1, 2), ...

    W vanishes identically on an empty corner and on the lines s = 1 and
    t = 1, where T_{n,q} = q and T_{p,n} = p, so a corner side in {0, n}
    gives 0.  Otherwise the value is the group's closed form:
    `covariance_closed` (unitary) or `covariance_closed_orthogonal`.
    """
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}")
    closed = covariance_closed if group == "unitary" else covariance_closed_orthogonal
    inside = [0 not in d and n not in d for d in dims]
    return [closed(*dims[a], *dims[b], n) if inside[a] and inside[b] else Fraction(0)
            for a in range(len(dims)) for b in range(a, len(dims))]


def process_covariance(group: str, n: int, d1: tuple[int, int], d2: tuple[int, int]) -> Fraction:
    """Exact covariance of the centered corner traces at corners d1 = (p, q)
    and d2: the pair (0, 1) of `process_covariances`."""
    return process_covariances(group, n, (d1, d2))[1]


def limit_covariance(s, t, s2, t2, beta: int):
    """Covariance of the limiting tied-down bridge, scaled by 2/beta.

    The coordinates are floats, or float arrays of one shape that hold many
    pairs of points; each pair gets the same value either way.
    """
    import numpy as np  # here, so that the exact commands start without numpy

    if beta not in (1, 2):
        raise ValueError("beta must be 1 (orthogonal) or 2 (unitary)")
    for x in (s, t, s2, t2):
        if not np.all((0.0 <= x) & (x <= 1.0)):
            raise ValueError("bridge coordinates must lie in [0,1]")
    return (2.0 / beta) * (np.minimum(s, s2) - s * s2) * (np.minimum(t, t2) - t * t2)


def _beta_central_fourth(a: int, b: int) -> Fraction:
    """Exact fourth central moment of a Beta(a, b) variable."""
    raw = [Fraction(1)]
    for k in range(1, 5):
        raw.append(raw[-1] * Fraction(a + k - 1, a + b + k - 1))
    mu = raw[1]
    return raw[4] - 4 * mu * raw[3] + 6 * mu**2 * raw[2] - 3 * mu**4


def fourth_central_moment(p: int, q: int, n: int, group: str = "unitary") -> Fraction:
    """Exact E (T_{p,q} - E T_{p,q})^4 = kappa_4 + 3 kappa_2^2 (unitary only).

    For n >= 4 this goes through the order-4 trace cumulant.  Below that the
    order-4 Gram matrix is singular, so the remaining cases reduce exactly
    instead: a full-row or full-column corner is deterministic; a single-row
    corner is a partial sum of a flat Dirichlet vector, hence Beta(q, n-q);
    and p = n-1 (or q = n-1) complements to the single-row case because
    T_{p,q} + T_{p,n-q} is the constant p.

    The orthogonal fourth cumulant needs order-4 orthogonal tables that are
    deliberately out of the exact path; estimate it by Monte Carlo instead.
    """
    if group != "unitary":
        raise SizeLimitError("exact fourth central moment is unitary-only; use the MC estimators")
    _check_dims(n, p, q)
    if p == n or q == n:
        return Fraction(0)
    if n >= 4:
        kappa4 = trace_cumulant_unitary(
            CumulantRequest("unitary", 4, ProjectorFamily.uniform(p, q, 4, n))
        )
        kappa2 = covariance_closed(p, q, p, q, n)
        return kappa4 + 3 * kappa2 * kappa2
    if p == n - 1 and p != 1:
        p = n - p  # row complement: T_{p,q} is q minus a copy of T_{n-p,q}
    if q == n - 1 and q != 1:
        q = n - q  # column complement, same argument transposed
    if p == 1:
        return _beta_central_fourth(q, n - q)
    if q == 1:
        return _beta_central_fourth(p, n - p)
    raise SizeLimitError(f"no exact route for ({p},{q}) at n={n} without order-4 tables")
