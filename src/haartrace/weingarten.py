"""Exact unitary and orthogonal Weingarten functions at fixed matrix size.

Entry moments of a Haar-distributed matrix expand over pairings of a doubled
index set, weighted by the inverse of the Gram matrix

    G(p1, p2) = n ** loop(p1, p2)

where loop counts the connected components of the union graph of two
pairings.  One path, keyed by group, inverts G and reads the Weingarten
table off the row of the reference pairing gamma; the groups differ only in
the pairings that index G.  Unitary pairings match plain indices with
barred ones and are parametrized by S_k, and the values depend only on the
cycle type of sigma.  Orthogonal pairings are all pairings of [2k], and the
values are constant on the double cosets H_k \\ S_2k / H_k of the
hyperoctahedral group.  The coset of g in S_2k is indexed by the loop type
of the pairing {g(a), g(bar a)} with gamma, and that of t_sigma is the cycle
type of sigma, so both groups key their values by a partition of k.

G(p1, p2) depends only on the loop type of (p1, p2), the partition of k
formed by the half-lengths of the loops.  Functions of the loop type form a
commutative algebra under matrix product (the class algebra of S_k, or the
Hecke algebra of (S_2k, H_k) for orthogonal; Collins and Matsumoto 2009),
so G^-1 is one too.  `gram_inverse` therefore solves a p(k) x p(k) integer
system for its values on the types, by fraction-free (Bareiss) Gauss-Jordan
elimination, and spreads them over the full matrix.  The result is kept as
(N, D), an integer matrix over one positive denominator in lowest terms,
and `is_inverse` checks G N = D I by integer product against the full G.
Only the Weingarten values and joint moments read off it are
`fractions.Fraction`s.  A singular Gram matrix raises; no pseudo-inverse is
ever attempted.

Inverses and read-only tables are memoized per (group, n, k).  Cache
entries are only ever written with the value they will always hold.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .combinatorics import (
    CycleType,
    Pairing,
    all_permutations,
    enumerate_pairings,
    gamma_pairing,
    loop_type,
    perm_pairing,
)
from .errors import SingularGramError, SizeLimitError

IntMatrix = tuple[tuple[int, ...], ...]

# Largest order k each group's Gram matrix is built for.
ORDER_LIMITS = {"unitary": 4, "orthogonal": 3}


def _bareiss_inverse(a: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(adj, d) with adj = d A^-1, by fraction-free Gauss-Jordan elimination.

    Each pivot step clears its column above and below the pivot with
    Bareiss's update row_r <- (pivot * row_r - f * row_pivot) / previous pivot,
    where every division is exact.  The augmented matrix [A | I] ends as
    [d I | adj] with d = +-det(A), so both results are integers.
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
    return [row[n:] for row in m], prev


def is_inverse(a: Sequence[Sequence[int]], inverse: tuple[Sequence[Sequence[int]], int]) -> bool:
    """True iff inverse = (N, D) satisfies a N = D I, by integer matrix product."""
    num, denom = inverse
    cols = list(zip(*num))
    return denom != 0 and len(cols) == len(a) and all(
        len(row) == len(num)
        and all(sum(map(operator.mul, row, col)) == (denom if i == j else 0)
                for j, col in enumerate(cols))
        for i, row in enumerate(a))


# ---------------------------------------------------------------------------
# Gram matrix, its inverse and the Weingarten table, keyed by group
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def pairings(group: str, k: int) -> tuple[Pairing, ...]:
    """The pairings of [2k] that index the group's order-k Gram matrix.

    Unitary: the bipartite pairings perm_pairing(p) for p in S_k, in the
    order of all_permutations(k), so index a is permutation a.  Orthogonal:
    all (2k-1)!! pairings of [2k].
    """
    limit = ORDER_LIMITS[group]
    if not 1 <= k <= limit:
        raise SizeLimitError(f"{group} order limited to 1 <= k <= {limit}, got {k}")
    if group == "unitary":
        return tuple(perm_pairing(p) for p in all_permutations(k))
    return enumerate_pairings(2 * k)


@lru_cache(maxsize=None)
def _pair_types(group: str, k: int) -> tuple[tuple[CycleType, ...], IntMatrix]:
    """(types, T): T[a][b] indexes loop_type(a, b) in types, over pairings(group, k).

    types lists the partitions of k in their order of first appearance in
    row 0, so types[0] = (1, ..., 1), the type of a pairing with itself.
    Neither depends on n.
    """
    index = pairings(group, k)
    types: dict[CycleType, int] = {}
    table = tuple(tuple(types.setdefault(loop_type(p1, p2), len(types)) for p2 in index)
                  for p1 in index)
    return tuple(types), table


def gram(group: str, n: int, k: int) -> IntMatrix:
    """Gram matrix n^loop(p1, p2) over pairings(group, k)."""
    types, table = _pair_types(group, k)
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    powers = [n ** len(t) for t in types]
    return tuple(tuple(powers[t] for t in row) for row in table)


@lru_cache(maxsize=None)
def gram_inverse(group: str, n: int, k: int) -> tuple[IntMatrix, int]:
    """Exact inverse of gram(group, n, k) as (N, D): the inverse is N / D.

    D > 0 and gcd(D, all N) = 1, so D is the least common denominator of
    the entries.  For unitary, N[a][b] / D = Wg(b a^-1).

    The inverse is W[a][b] = w[type(a, b)] for a vector w over the p(k)
    loop types.  W G is again a function of the type and every row holds
    every type, so W G = I once it holds on row 0 at one column c_mu of each
    type mu.  That reads M w = e_0 with M[mu][lam] the sum of G[b][c_mu]
    over the b of type lam in row 0.  M is singular exactly when G is,
    because the central idempotents of the type algebra are type functions.
    """
    types, table = _pair_types(group, k)
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    powers = [n ** len(t) for t in types]
    first = table[0]
    m = [[0] * len(types) for _ in types]
    for mu, m_row in enumerate(m):
        c = first.index(mu)
        for b, lam in enumerate(first):
            m_row[lam] += powers[table[b][c]]
    adj, d = _bareiss_inverse(m)
    col = [row[0] for row in adj]  # w = adj e_0 / d
    g = math.gcd(d, *col) * (1 if d > 0 else -1)
    w = [x // g for x in col]
    return tuple(tuple(w[t] for t in row) for row in table), d // g


@lru_cache(maxsize=None)
def weingarten_table(group: str, n: int, k: int) -> Mapping[CycleType, Fraction]:
    """Read-only Weingarten values at (group, n, k), keyed by cycle type.

    The value at the cycle type of sigma in S_k is the inverse entry between
    gamma = perm_pairing(identity) and perm_pairing(sigma), whose loop type
    is that cycle type: Wg(sigma) for the unitary group, and the value on the
    double coset of t_sigma for the orthogonal one.
    """
    index = {p: a for a, p in enumerate(pairings(group, k))}
    inv, denom = gram_inverse(group, n, k)
    row = inv[index[gamma_pairing(k)]]
    values: dict[CycleType, Fraction] = {}
    for sigma in all_permutations(k):
        key = sigma.cycle_type()
        val = Fraction(row[index[perm_pairing(sigma)]], denom)
        assert values.setdefault(key, val) == val, f"{group} Weingarten value not constant on {key}"
    return MappingProxyType(values)


# ---------------------------------------------------------------------------
# Weingarten values and joint entry moments
# ---------------------------------------------------------------------------

def weingarten_unitary(n: int, sigma: CycleType) -> Fraction:
    """Exact unitary Weingarten value W(n, sigma), keyed by the cycle type of sigma."""
    return weingarten_table("unitary", n, sum(sigma))[tuple(sigma)]


def weingarten_orthogonal(n: int, key: CycleType) -> Fraction:
    """Orthogonal Weingarten value on a double coset of H_k, keyed by its loop type with gamma."""
    return weingarten_table("orthogonal", n, sum(key))[tuple(key)]


def joint_moment(group: str, i: Sequence[int], j: Sequence[int], n: int) -> Fraction:
    """Exact joint moment of 2k entries of a Haar matrix, at index tuples of length 2k.

    Unitary: E(U_{i1 j1} .. U_{ik jk} conj U_{i(k+1) j(k+1)} .. conj U_{i2k j2k}),
    the k unconjugated factors first.  Orthogonal: E(O_{i1 j1} ... O_{i2k j2k}).
    The moment sums gram_inverse entries over the pairing pairs both tuples
    admit; a pairing is admissible for a tuple when it pairs equal indices
    only.  For the unitary group perm_pairing(alpha) is admissible exactly
    when i_s = i_{k + alpha(s)}, and the entry is W(n, beta alpha^-1).
    """
    if len(i) != len(j) or len(i) % 2 != 0:
        raise ValueError("index tuples must have equal even length")
    k = len(i) // 2
    index = pairings(group, k)
    if any(not 1 <= x <= n for x in (*i, *j)):
        raise ValueError("matrix indices out of range")
    inv, denom = gram_inverse(group, n, k)

    def admissible(idx: Sequence[int]) -> list[int]:
        return [a for a, p in enumerate(index)
                if all(idx[x - 1] == idx[y - 1] for x, y in p.pairs())]

    return Fraction(sum(inv[a][b] for a in admissible(i) for b in admissible(j)), denom)
