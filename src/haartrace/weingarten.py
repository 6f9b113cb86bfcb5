"""Exact unitary and orthogonal Weingarten functions at fixed matrix size.

Entry moments of a Haar-distributed matrix expand over pairings of a doubled
index set, weighted by the inverse of the Gram matrix

    G(p1, p2) = n ** loop(p1, p2)

where loop counts the connected components of the union graph of two
pairings.  For the unitary group the relevant pairings match plain indices
with barred ones and are parametrized by S_k; the inverse entry between the
identity pairing and the pairing of sigma depends only on the cycle type of
sigma.  For the orthogonal group all pairings of [2k] occur and the inverse
entries are constant on double cosets of the hyperoctahedral group H_k,
indexed here by the cycle type extracted by :func:`sigma_of`.

All arithmetic is exact: matrices of integers are inverted by fraction-free
(Bareiss) Gauss-Jordan elimination, which ends at [d I | adj] with d = +-det
and adj = d A^-1 both integer, so the only division is adj / d at the end.
Results are `fractions.Fraction` values.  A singular Gram matrix raises; no
pseudo-inverse is ever attempted.

Tables are memoized per (n, k).  Everything is a pure function of its
arguments and cache entries are only ever written with the value they will
always hold, so concurrent readers and writers get identical results.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence, Union

from .combinatorics import (
    CycleType,
    Pairing,
    Permutation,
    all_permutations,
    bar,
    enumerate_pairings,
    gamma_pairing,
    loop_count,
    perm_pairing,
)
from .errors import DimensionError, SingularGramError, SizeLimitError

# Exact arithmetic carrier for all Weingarten and cumulant values.
BigRational = Fraction

SignVector = tuple[int, ...]

MAX_UNITARY_ORDER = 4
MAX_ORTHOGONAL_ORDER = 3


class RationalMatrix:
    """Dense matrix of exact rationals with fraction-free inversion."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Union[int, Fraction]]]):
        self.entries: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(Fraction(x) for x in row) for row in entries
        )
        self.rows = len(self.entries)
        if self.rows == 0 or any(len(r) != len(self.entries[0]) for r in self.entries):
            raise DimensionError("matrix must be rectangular and nonempty")
        self.cols = len(self.entries[0])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionError("inner dimensions differ")
        # integer numerators over one common denominator per factor, so each
        # output entry is a single Fraction built from an integer dot product
        left, d_left = self._over_common_denominator()
        right, d_right = other._over_common_denominator()
        cols = list(zip(*right))
        denom = d_left * d_right
        return RationalMatrix(
            [[Fraction(sum(map(operator.mul, row, col)), denom) for col in cols]
             for row in left]
        )

    def _over_common_denominator(self) -> tuple[list[list[int]], int]:
        """(integer matrix N, D) with self = N / D and D the lcm of all denominators."""
        denom = math.lcm(*(x.denominator for row in self.entries for x in row))
        return [[x.numerator * (denom // x.denominator) for x in row]
                for row in self.entries], denom

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            x == (1 if i == j else 0)
            for i, row in enumerate(self.entries)
            for j, x in enumerate(row)
        )

    def invert(self) -> "RationalMatrix":
        """Exact inverse; raises SingularGramError on a singular matrix."""
        if self.rows != self.cols:
            raise DimensionError("only square matrices can be inverted")
        lifted, denom = self._over_common_denominator()
        # self = lifted / denom, so the inverse is denom times lifted's
        return RationalMatrix([[x * denom for x in row] for row in _bareiss_inverse(lifted)])


def _bareiss_inverse(a: list[list[int]]) -> list[list[Fraction]]:
    """Inverse of an integer matrix by fraction-free Gauss-Jordan elimination.

    Each pivot step clears its column above and below the pivot with
    Bareiss's update row_r <- (pivot * row_r - f * row_pivot) / previous pivot,
    where every division is exact.  The augmented matrix [A | I] ends as
    [d I | adj] with d = +-det(A) and adj = d A^-1 integer, so the inverse is
    adj / d entry by entry; no rational arithmetic runs before that.
    """
    n = len(a)
    width = 2 * n
    m = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise SingularGramError("matrix is exactly singular")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        row_c = m[col]
        pv = row_c[col]
        for r in range(n):
            if r == col:
                continue
            row_r = m[r]
            f = row_r[col]
            # columns left of the pivot are zero off the diagonal already; their
            # diagonal (d I at the end) is left stale because it is never read
            for c in range(col + 1, width):
                num = pv * row_r[c] - f * row_c[c]
                q, rem = divmod(num, prev)
                assert rem == 0, "Bareiss division must be exact"
                row_r[c] = q
            row_r[col] = 0
        prev = pv
    # d is the last pivot, and the right block holds adj
    return [[Fraction(x, prev) for x in row[n:]] for row in m]


@dataclass(frozen=True)
class WeingartenTable:
    """Memoized Weingarten values at fixed n, keyed by cycle type."""

    group: str
    n: int
    order: int
    values: Mapping[CycleType, Fraction]


# ---------------------------------------------------------------------------
# Unitary group
# ---------------------------------------------------------------------------

def gram_unitary(k: int, n: int) -> RationalMatrix:
    """Gram matrix n^loop over the bipartite pairings of [2k] (indexed by S_k)."""
    if not 1 <= k <= MAX_UNITARY_ORDER:
        raise SizeLimitError(f"unitary order limited to k <= {MAX_UNITARY_ORDER}, got {k}")
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    pairings = [perm_pairing(p) for p in all_permutations(k)]
    return RationalMatrix(
        [[n ** loop_count(p1, p2) for p2 in pairings] for p1 in pairings]
    )


def unitary_gram_weingarten(k: int, n: int):
    """(permutation index, Gram, exact inverse) for the unitary order-k block."""
    perms = all_permutations(k)
    gram = gram_unitary(k, n)
    return perms, gram, _unitary_inverse(n, k)


@lru_cache(maxsize=None)
def _unitary_inverse(n: int, k: int) -> RationalMatrix:
    return gram_unitary(k, n).invert()


@lru_cache(maxsize=None)
def _unitary_values(n: int, k: int) -> Mapping[CycleType, Fraction]:
    perms = all_permutations(k)
    inv = _unitary_inverse(n, k)
    identity_idx = perms.index(Permutation.identity(k))
    values: dict[CycleType, Fraction] = {}
    for idx, perm in enumerate(perms):
        key = perm.cycle_type()
        val = inv[identity_idx, idx]
        assert values.setdefault(key, val) == val, "Weingarten value not a class function"
    return values


def unitary_table(n: int, k: int) -> WeingartenTable:
    return WeingartenTable("unitary", n, k, dict(_unitary_values(n, k)))


def weingarten_unitary(n: int, sigma: Union[Permutation, CycleType]) -> Fraction:
    """Exact unitary Weingarten value W(n, sigma); class function of sigma."""
    key = sigma.cycle_type() if isinstance(sigma, Permutation) else tuple(sigma)
    k = sum(key)
    if not 1 <= k <= MAX_UNITARY_ORDER:
        raise SizeLimitError(f"unitary order limited to k <= {MAX_UNITARY_ORDER}, got {k}")
    return _unitary_values(n, k)[key]


def joint_moment_unitary(i: Sequence[int], j: Sequence[int], n: int) -> Fraction:
    """Exact E(U_{i1 j1} .. U_{ik jk} conj U_{i1' j1'} .. conj U_{ik' jk'}).

    Index tuples have length 2k and list the k unconjugated factors first.
    The sum runs over permutation pairs whose delta constraints the tuples
    satisfy, weighted by W(n, beta alpha^{-1}).
    """
    if len(i) != len(j) or len(i) % 2 != 0:
        raise ValueError("index tuples must have equal even length")
    k = len(i) // 2
    if not 1 <= k <= MAX_UNITARY_ORDER:
        raise SizeLimitError(f"unitary order limited to k <= {MAX_UNITARY_ORDER}, got {k}")
    if any(not 1 <= x <= n for x in (*i, *j)):
        raise ValueError("matrix indices out of range")
    values = _unitary_values(n, k)
    perms = all_permutations(k)

    def admissible(idx: Sequence[int]) -> list[Permutation]:
        return [
            p for p in perms
            if all(idx[s - 1] == idx[k + p(s) - 1] for s in range(1, k + 1))
        ]

    total = Fraction(0)
    for alpha in admissible(i):
        alpha_inv = alpha.inverse()
        for beta in admissible(j):
            total += values[(beta * alpha_inv).cycle_type()]
    return total


# ---------------------------------------------------------------------------
# Hyperoctahedral machinery
# ---------------------------------------------------------------------------

def eta(g: Permutation) -> Pairing:
    """The pairing matching g(i) with g(bar i) for each i <= k."""
    if g.size % 2 != 0:
        raise ValueError("eta needs a permutation of an even ground set")
    k = g.size // 2
    return Pairing.from_pairs(g.size, [(g(i), g(k + i)) for i in range(1, k + 1)])


def t_of_perm(pi: Permutation) -> Permutation:
    """Embedding of S_k into S_2k acting only on the barred copy."""
    k = pi.size
    return Permutation(tuple(range(1, k + 1)) + tuple(k + pi(i) for i in range(1, k + 1)))


def tau_of_signs(eps: SignVector) -> Permutation:
    """Product of the transpositions (i, bar i) at the -1 coordinates."""
    k = len(eps)
    if any(e not in (-1, 1) for e in eps):
        raise ValueError("sign vector entries must be +1 or -1")
    images = list(range(1, 2 * k + 1))
    for idx, e in enumerate(eps, start=1):
        if e == -1:
            images[idx - 1], images[k + idx - 1] = k + idx, idx
    return Permutation(tuple(images))


def particular_permutations(k: int) -> list[tuple[SignVector, Permutation]]:
    """All pairs (eps, pi) with eps = +1 at the minimum of every cycle of pi.

    These parametrize the cosets of the hyperoctahedral group in S_2k; there
    are (2k)! / (2^k k!) of them.
    """
    if not 1 <= k <= MAX_UNITARY_ORDER:
        raise SizeLimitError(f"particular permutations limited to k <= {MAX_UNITARY_ORDER}")
    out: list[tuple[SignVector, Permutation]] = []
    for pi in all_permutations(k):
        minima = {c[0] for c in pi.cycles()}
        free = [i for i in range(1, k + 1) if i not in minima]
        for signs in itertools.product((1, -1), repeat=len(free)):
            eps = [1] * k
            for pos, s in zip(free, signs):
                eps[pos - 1] = s
            out.append((tuple(eps), pi))
    return out


@lru_cache(maxsize=None)
def hyperoctahedral_group(k: int) -> tuple[Permutation, ...]:
    """The centralizer H_k of the pairing gamma in S_2k (2^k k! elements).

    Elements permute the gamma-pairs and optionally flip within each pair.
    Enumerated only for small k; the production path never needs the list.
    """
    if not 1 <= k <= 3:
        raise SizeLimitError(f"H_k enumeration limited to k <= 3, got {k}")
    out: list[Permutation] = []
    for rho in all_permutations(k):
        for flips in itertools.product((1, -1), repeat=k):
            images = [0] * (2 * k)
            for i in range(1, k + 1):
                target = rho(i) if flips[i - 1] == 1 else k + rho(i)
                images[i - 1] = target
                images[k + i - 1] = bar(target, k)
            out.append(Permutation(tuple(images)))
    return tuple(out)


def sigma_of(big_sigma: Permutation) -> Permutation:
    """Extract the S_k coset representative of a permutation of [2k].

    Walks each cycle of the union graph of eta(big_sigma) and the reference
    pairing gamma, starting at the smallest barred element and alternating
    gamma- and eta-edges; the visited pair labels, in order, form one cycle
    of the result.  The output satisfies t_sigma ~ big_sigma in the double
    coset H_k \\ S_2k / H_k.
    """
    if big_sigma.size % 2 != 0:
        raise ValueError("sigma extraction needs a permutation of an even ground set")
    k = big_sigma.size // 2
    eta_pairing = eta(big_sigma)
    seen = [False] * (k + 1)
    cycles: list[list[int]] = []
    for start_label in range(1, k + 1):
        if seen[start_label]:
            continue
        v1 = k + start_label  # smallest barred element of this component
        labels = [start_label]
        seen[start_label] = True
        cur = eta_pairing.partner_of(start_label)
        while cur != v1:
            label = cur if cur <= k else cur - k
            labels.append(label)
            seen[label] = True
            cur = eta_pairing.partner_of(bar(cur, k))
        cycles.append(labels)
    return Permutation.from_cycles(k, cycles)


# ---------------------------------------------------------------------------
# Orthogonal group
# ---------------------------------------------------------------------------

def gram_orthogonal(k: int, n: int) -> RationalMatrix:
    """Gram matrix n^loop over all (2k-1)!! pairings of [2k]."""
    if not 1 <= k <= MAX_ORTHOGONAL_ORDER:
        raise SizeLimitError(f"orthogonal order limited to k <= {MAX_ORTHOGONAL_ORDER}, got {k}")
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    pairings = enumerate_pairings(2 * k)
    return RationalMatrix(
        [[n ** loop_count(p1, p2) for p2 in pairings] for p1 in pairings]
    )


def orthogonal_gram_weingarten(k: int, n: int):
    """(pairings, Gram, exact inverse) for the orthogonal order-k block."""
    return enumerate_pairings(2 * k), gram_orthogonal(k, n), _orthogonal_inverse(n, k)


@lru_cache(maxsize=None)
def _orthogonal_inverse(n: int, k: int) -> RationalMatrix:
    return gram_orthogonal(k, n).invert()


@lru_cache(maxsize=None)
def _orthogonal_values(n: int, k: int) -> Mapping[CycleType, Fraction]:
    pairings = enumerate_pairings(2 * k)
    index = {p: i for i, p in enumerate(pairings)}
    inv = _orthogonal_inverse(n, k)
    gamma_idx = index[gamma_pairing(k)]
    values: dict[CycleType, Fraction] = {}
    for perm in all_permutations(k):
        key = perm.cycle_type()
        val = inv[gamma_idx, index[perm_pairing(perm)]]
        assert values.setdefault(key, val) == val, "orthogonal Weingarten not coset-invariant"
    return values


def orthogonal_table(n: int, k: int) -> WeingartenTable:
    return WeingartenTable("orthogonal", n, k, dict(_orthogonal_values(n, k)))


def weingarten_orthogonal(n: int, key: Union[Permutation, CycleType]) -> Fraction:
    """Orthogonal Weingarten value, keyed by the double-coset invariant.

    Accepts either a permutation of [2k] (reduced through sigma_of) or the
    cycle type of the extracted representative directly.
    """
    if isinstance(key, Permutation):
        coset = sigma_of(key).cycle_type()
    else:
        coset = tuple(key)
    k = sum(coset)
    if not 1 <= k <= MAX_ORTHOGONAL_ORDER:
        raise SizeLimitError(f"orthogonal order limited to k <= {MAX_ORTHOGONAL_ORDER}, got {k}")
    return _orthogonal_values(n, k)[coset]


def joint_moment_orthogonal(i: Sequence[int], j: Sequence[int], n: int) -> Fraction:
    """Exact E(O_{i1 j1} ... O_{i2k j2k}) as a sum over pairing pairs."""
    if len(i) != len(j) or len(i) % 2 != 0:
        raise ValueError("index tuples must have equal even length")
    k = len(i) // 2
    if not 1 <= k <= MAX_ORTHOGONAL_ORDER:
        raise SizeLimitError(f"orthogonal order limited to k <= {MAX_ORTHOGONAL_ORDER}, got {k}")
    if any(not 1 <= x <= n for x in (*i, *j)):
        raise ValueError("matrix indices out of range")
    pairings = enumerate_pairings(2 * k)
    inv = _orthogonal_inverse(n, k)

    def admissible(idx: Sequence[int]) -> list[int]:
        return [
            pos for pos, p in enumerate(pairings)
            if all(idx[a - 1] == idx[b - 1] for a, b in p.pairs())
        ]

    total = Fraction(0)
    for a in admissible(i):
        for b in admissible(j):
            total += inv[a, b]
    return total
