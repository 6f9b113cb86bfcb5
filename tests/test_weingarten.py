import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from haartrace.combinatorics import (
    Permutation,
    all_permutations,
    enumerate_pairings,
    gamma_pairing,
    loop_type,
    perm_pairing,
)
from haartrace.errors import SingularGramError, SizeLimitError
from haartrace.sampling import map_replicas
from haartrace.weingarten import (
    ORDER_LIMITS,
    _bareiss_inverse,
    gram,
    gram_inverse,
    is_inverse,
    joint_moment,
    pairings,
    weingarten_orthogonal,
    weingarten_table,
    weingarten_unitary,
)
from hyperoctahedral import eta, hyperoctahedral_group, sigma_of, t_of_perm, tau_of_signs


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def test_rational_matrix_inverse_roundtrip():
    a = [[1, 6, 0], [2, 2, 8], [0, 4, 2]]
    adj, d = _bareiss_inverse(a)
    assert is_inverse(a, (adj, d))
    assert is_inverse(adj, (a, d))  # adj a = d I as well
    assert not is_inverse(a, (adj, d + 1))
    adj[0][0] += 1
    assert not is_inverse(a, (adj, d))


@given(st.integers(0, 2**32 - 1))
def test_rational_matrix_inverse_random(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-6, 7, size=(4, 4)).tolist()
    try:
        adj, d = _bareiss_inverse(a)
    except SingularGramError:
        assert round(np.linalg.det(np.array(a, dtype=float))) == 0
        return
    assert is_inverse(a, (adj, d))


def test_singular_matrix_raises():
    with pytest.raises(SingularGramError):
        _bareiss_inverse([[1, 2], [2, 4]])


def _cofactor_inverse(g):
    """Exact 3x3 inverse adj / det by cofactors, fully independent of the solver."""
    det = (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
           - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
           + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))
    adj = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            sub = [[g[r][c] for c in range(3) if c != j] for r in range(3) if r != i]
            cof = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
            adj[j][i] = (-1) ** (i + j) * cof
    return [[Fraction(adj[i][j]) / det for j in range(3)] for i in range(3)]


def _as_fractions(inverse):
    num, denom = inverse
    return [[Fraction(x, denom) for x in row] for row in num]


def test_adjugate_oracle_3x3_orthogonal_gram():
    n = 4
    g = [[n**2, n, n], [n, n**2, n], [n, n, n**2]]
    assert _as_fractions(gram_inverse("orthogonal", n, 2)) == _cofactor_inverse(g)


@pytest.mark.parametrize("g", [
    [[0, 1, 2], [1, 0, 3], [4, -3, 8]],               # zero first pivot, det -2
    [[1, 2, 3], [2, 4, 5], [3, 5, 6]],                # zero second pivot, det -1
], ids=["swap-first-pivot", "swap-second-pivot"])
def test_adjugate_oracle_3x3_pivot_swaps_and_rationals(g):
    adj, d = _bareiss_inverse(g)
    assert _as_fractions((adj, d)) == _cofactor_inverse(g)
    assert is_inverse(g, (adj, d))
    assert is_inverse(adj, (g, d))


# verify --scope default inverts the Gram matrix at exactly these orders and sizes
@pytest.mark.parametrize("group, orders, sizes", [
    ("unitary", (1, 2, 3, 4), (4, 6, 8)),
    ("orthogonal", (1, 2, 3), (6, 8, 10)),
])
def test_gram_inverse_is_integers_over_one_positive_denominator(group, orders, sizes):
    for k in orders:
        for n in sizes:
            inverse = gram_inverse(group, n, k)
            num, denom = inverse
            assert denom > 0 and math.gcd(denom, *(x for row in num for x in row)) == 1
            assert isinstance(num, tuple) and all(type(row) is tuple for row in num)
            assert is_inverse(gram(group, n, k), inverse)


def _flipped_sign_of_d(monkeypatch, where):
    """Flip the sign of Bareiss's d where it enters gram_inverse.

    "return": `_bareiss_inverse` returns -d with its adjugate of the type
    system, so N / D is -G^-1.  "normalization": gram_inverse reduces the
    solution column by gcd times the opposite sign of d, so D comes out
    negated with every N; N / D keeps every value and only D > 0 breaks.
    """
    import types
    import haartrace.weingarten as wg
    if where == "return":
        real = wg._bareiss_inverse

        def negated_d(a):
            adj, d = real(a)
            return adj, -d

        monkeypatch.setattr(wg, "_bareiss_inverse", negated_d)
    else:
        flipped = types.SimpleNamespace(**vars(math))
        flipped.gcd = lambda *xs: -math.gcd(*xs)
        monkeypatch.setattr(wg, "math", flipped)


@pytest.mark.parametrize("where", ["return", "normalization"])
def test_bareiss_sign_mutant_is_caught(monkeypatch, where):
    _flipped_sign_of_d(monkeypatch, where)
    gram_inverse.cache_clear()
    try:
        with pytest.raises(AssertionError):
            test_gram_inverse_is_integers_over_one_positive_denominator("unitary", (1, 2), (4,))
    finally:
        gram_inverse.cache_clear()


# ---------------------------------------------------------------------------
# unitary Gram and Weingarten
# ---------------------------------------------------------------------------

def test_gram_unitary_small():
    for n in (1, 3, 7):
        assert gram("unitary", n, 1) == ((n,),)
        assert gram("unitary", n, 2) == ((n * n, n), (n, n * n))


@pytest.mark.parametrize("group, k", [(group, k) for group, limit in ORDER_LIMITS.items()
                                      for k in range(1, limit + 1)])
def test_gram_is_n_to_the_loop_count_at_every_size(group, k):
    # the loop counts are cached per (group, k); only the power depends on n
    index = pairings(group, k)
    for n in (1, 4, 9):
        assert gram(group, n, k) == tuple(tuple(n ** len(loop_type(p1, p2)) for p2 in index)
                                          for p1 in index)


def test_gram_exponent_mutant_is_caught_by_verify(monkeypatch):
    # one off-diagonal loop exponent of k = 2 one lower, for both groups.  G
    # moves but its inverse does not, since gram_inverse solves over pair
    # types, so each gram-inverse row fails at its one k = 2 case and the
    # rows that read the inverse still pass.  Raising [0][1] and [1][0]
    # instead would make the unitary k = 2 matrix singular.
    import haartrace.weingarten as wg
    from haartrace.cli import run_verification

    real = wg.gram

    def one_lower(group, n, k):
        g = [list(row) for row in real(group, n, k)]
        if k == 2:
            g[0][1] //= n
        return tuple(map(tuple, g))

    monkeypatch.setattr(wg, "gram", one_lower)
    ok, rows = run_verification("quick")
    failures = {row["identity"]: row["failures"] for row in rows}
    assert not ok
    assert (failures["gram-inverse-unitary"], failures["gram-inverse-orthogonal"]) == (1, 1)
    assert sum(failures.values()) == 2


def test_merged_pair_types_mutant_is_caught_by_verify(monkeypatch):
    # pair types (2, 2) and (3, 1) merged at unitary k = 4.  Both have two
    # loops, so G keeps every entry while the type solve assumes one inverse
    # value on both; only the gram-inverse-unitary row, which multiplies the
    # full G by N, sees it, at each of its three k = 4 sizes.
    import haartrace.weingarten as wg
    from haartrace.cli import run_verification

    real = wg.loop_type
    monkeypatch.setattr(wg, "loop_type",
                        lambda p1, p2: (3, 1) if real(p1, p2) == (2, 2) else real(p1, p2))
    ok, rows = run_verification("default")
    failures = {row["identity"]: row["failures"] for row in rows}
    assert not ok
    assert failures["gram-inverse-unitary"] == 3
    assert sum(failures.values()) == 3


def _reduced_bareiss_inverse(g):
    """The full Gram inversion by Bareiss, reduced to lowest terms with D > 0."""
    adj, d = _bareiss_inverse(g)
    common = math.gcd(d, *(x for row in adj for x in row)) * (1 if d > 0 else -1)
    return tuple(tuple(x // common for x in row) for row in adj), d // common


@pytest.mark.parametrize("group, k", [(group, k) for group, limit in ORDER_LIMITS.items()
                                      for k in range(1, limit + 1)])
def test_gram_inverse_equals_full_bareiss_reference(group, k):
    for n in range(1, 13):
        try:
            reference = _reduced_bareiss_inverse(gram(group, n, k))
        except SingularGramError:
            with pytest.raises(SingularGramError):
                gram_inverse(group, n, k)
            continue
        assert gram_inverse(group, n, k) == reference


def test_type_solve_is_p_of_k_square(monkeypatch):
    import haartrace.weingarten as wg

    sizes = []
    real = wg._bareiss_inverse
    monkeypatch.setattr(wg, "_bareiss_inverse", lambda a: sizes.append(len(a)) or real(a))
    gram_inverse.cache_clear()
    try:
        for group, limit in ORDER_LIMITS.items():
            for k in range(1, limit + 1):
                gram_inverse(group, 7, k)
    finally:
        gram_inverse.cache_clear()
    assert sizes == [1, 2, 3, 5, 1, 2, 3]


def test_gram_unitary_matches_loop_oracle():
    n, k = 5, 3
    perms = all_permutations(k)
    g = gram("unitary", n, k)
    for i, a in enumerate(perms):
        for j, b in enumerate(perms):
            assert g[i][j] == n ** len(loop_type(perm_pairing(a), perm_pairing(b)))
            # loop count of bipartite pairings equals the cycle count of b a^-1
            assert g[i][j] == n ** (b * a.inverse()).num_cycles


def test_weingarten_unitary_closed_forms():
    for n in (2, 3, 4, 6):
        assert weingarten_unitary(n, (1,)) == Fraction(1, n)
        assert weingarten_unitary(n, (1, 1)) == Fraction(1, n * n - 1)
        assert weingarten_unitary(n, (2,)) == Fraction(-1, n * (n * n - 1))
    assert weingarten_unitary(3, (1, 1)) == Fraction(1, 8)
    assert weingarten_unitary(3, (2,)) == Fraction(-1, 24)


def test_weingarten_unitary_class_function():
    for k in (2, 3):
        perms, (inv, denom) = all_permutations(k), gram_inverse("unitary", 5, k)
        ididx = perms.index(Permutation.identity(k))
        for tau in perms:
            for sig in perms:
                conj = tau * sig * tau.inverse()
                want = Fraction(inv[ididx][perms.index(sig)], denom)
                assert weingarten_unitary(5, conj.cycle_type()) == want


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gram_times_weingarten_identity_full_range(k):
    for n in range(2 * k, 2 * k + 5):
        assert is_inverse(gram("unitary", n, k), gram_inverse("unitary", n, k))
    if k <= 3:
        for n in range(2 * k, 2 * k + 5):
            assert is_inverse(gram("orthogonal", n, k), gram_inverse("orthogonal", n, k))


def test_singular_gram_is_error_not_pseudoinverse():
    with pytest.raises(SingularGramError):
        weingarten_unitary(1, (1, 1))
    with pytest.raises(SingularGramError):
        weingarten_unitary(3, (1, 1, 1, 1))
    with pytest.raises(SingularGramError):
        weingarten_orthogonal(2, (1, 1, 1))


def test_order_guards():
    with pytest.raises(SizeLimitError):
        weingarten_unitary(10, (1,) * 5)
    with pytest.raises(SizeLimitError):
        weingarten_orthogonal(10, (1, 1, 1, 1))
    with pytest.raises(SizeLimitError):
        gram("unitary", 10, 5)
    with pytest.raises(SizeLimitError):
        gram("orthogonal", 10, 4)


def test_weingarten_unitary_monte_carlo():
    # MC oracle for W(n, id_3) = E(U11 U22 U33 conj U11 conj U22 conj U33)
    n, reps = 5, 200_000
    batch = map_replicas("unitary", n, reps, 505, lambda z: z)
    prod = batch[:, 0, 0] * batch[:, 1, 1] * batch[:, 2, 2]
    x = np.abs(prod) ** 2
    exact = float(weingarten_unitary(n, (1, 1, 1)))
    se = x.std(ddof=1) / np.sqrt(reps)
    assert abs(x.mean() - exact) < 3 * se


# ---------------------------------------------------------------------------
# hyperoctahedral machinery: the S_2k reference of tests/hyperoctahedral.py
# ---------------------------------------------------------------------------

def particular_permutations(k):
    """All pairs (eps, pi) with eps = +1 at the minimum of every cycle of pi.

    These parametrize the cosets of the hyperoctahedral group in S_2k; there
    are (2k)! / (2^k k!) of them.
    """
    out = []
    for pi in all_permutations(k):
        minima = {c[0] for c in pi.cycles()}
        free = [i for i in range(1, k + 1) if i not in minima]
        for signs in itertools.product((1, -1), repeat=len(free)):
            eps = [1] * k
            for pos, s in zip(free, signs):
                eps[pos - 1] = s
            out.append((tuple(eps), pi))
    return out


def test_eta_basics():
    k = 3
    assert eta(Permutation.identity(2 * k)) == gamma_pairing(k)
    for eps in itertools.product((1, -1), repeat=k):
        assert eta(tau_of_signs(eps)) == gamma_pairing(k)
    with pytest.raises(ValueError):
        eta(Permutation.identity(3))


@given(st.integers(0, 2**32 - 1))
def test_eta_right_invariant_under_h3(seed):
    rng = np.random.default_rng(seed)
    g = Permutation(tuple(int(x) + 1 for x in rng.permutation(6)))
    for h in hyperoctahedral_group(3):
        assert eta(g * h) == eta(g)


def test_t_and_tau_embeddings():
    assert t_of_perm(Permutation.identity(3)) == Permutation.identity(6)
    pi = Permutation((2, 1))
    assert t_of_perm(pi).images == (1, 2, 4, 3)
    assert tau_of_signs((1, 1)) == Permutation.identity(4)
    assert tau_of_signs((-1, -1)).images == (3, 4, 1, 2)  # the reference involution


def test_hyperoctahedral_is_centralizer():
    import math
    for k in (1, 2, 3):
        group = hyperoctahedral_group(k)
        assert len(group) == 2**k * math.factorial(k)
        gamma = tau_of_signs((-1,) * k)
        assert all(h * gamma == gamma * h for h in group)


def test_particular_permutation_counts_and_condition():
    import math
    for k in (1, 2, 3):
        pairs = particular_permutations(k)
        assert len(pairs) == math.factorial(2 * k) // (2**k * math.factorial(k))
        for eps, pi in pairs:
            assert all(eps[c[0] - 1] == 1 for c in pi.cycles())
    assert particular_permutations(1) == [((1,), Permutation.identity(1))]


def test_particular_permutations_hit_each_coset_once():
    # right cosets g H_2 partition S_4; each contains exactly one tau_eps t_pi
    h2 = set(hyperoctahedral_group(2))
    particulars = {tau_of_signs(eps) * t_of_perm(pi) for eps, pi in particular_permutations(2)}
    seen_cosets = []
    for g in all_permutations(4):
        coset = frozenset(g * h for h in h2)
        if coset not in seen_cosets:
            seen_cosets.append(coset)
    assert len(seen_cosets) == 3
    for coset in seen_cosets:
        assert len(coset & particulars) == 1


def test_sigma_of_basics():
    for k in (1, 2, 3):
        assert sigma_of(Permutation.identity(2 * k)) == Permutation.identity(k)
        for eps in itertools.product((1, -1), repeat=k):
            assert sigma_of(tau_of_signs(eps)) == Permutation.identity(k)
    for pi in all_permutations(3):
        assert sigma_of(t_of_perm(pi)).cycle_type() == pi.cycle_type()


def test_sigma_of_lands_in_the_same_double_coset():
    h2 = hyperoctahedral_group(2)
    for big in all_permutations(4):
        rep = t_of_perm(sigma_of(big))
        assert any(h1 * rep * h2e == big for h1 in h2 for h2e in h2)


def test_sigma_of_reproduces_gram_inverse_full_s4():
    pairings = enumerate_pairings(4)
    index = {p: i for i, p in enumerate(pairings)}
    inv, denom = gram_inverse("orthogonal", 5, 2)
    gidx = index[gamma_pairing(2)]
    for big in all_permutations(4):
        assert weingarten_orthogonal(5, sigma_of(big).cycle_type()) == \
            Fraction(inv[gidx][index[eta(big)]], denom)


# ---------------------------------------------------------------------------
# orthogonal Gram and Weingarten
# ---------------------------------------------------------------------------

def test_gram_orthogonal_k2_structure():
    for n in (3, 4, 6):
        g = gram("orthogonal", n, 2)
        assert len(g) == 3 and all(len(row) == 3 for row in g)
        for i in range(3):
            for j in range(3):
                assert g[i][j] == (n * n if i == j else n)


def test_weingarten_orthogonal_closed_forms():
    for n in (3, 4, 6, 9):
        assert weingarten_orthogonal(n, (1,)) == Fraction(1, n)
        assert weingarten_orthogonal(n, (1, 1)) == Fraction(n + 1, n * (n + 2) * (n - 1))
        assert weingarten_orthogonal(n, (2,)) == Fraction(-1, n * (n + 2) * (n - 1))


def test_orthogonal_gram_weingarten_identity():
    for k, n in [(1, 3), (2, 4), (3, 6), (3, 4)]:
        assert is_inverse(gram("orthogonal", n, k), gram_inverse("orthogonal", n, k))


def test_weingarten_orthogonal_double_coset_invariance():
    for k in (1, 2):
        hk = hyperoctahedral_group(k)
        for big in all_permutations(2 * k):
            base = weingarten_orthogonal(6, sigma_of(big).cycle_type())
            for h1 in hk:
                for h2 in hk:
                    assert weingarten_orthogonal(6, sigma_of(h1 * big * h2).cycle_type()) == base


def test_tables_are_memoized_views():
    t1 = weingarten_table("unitary", 5, 2)
    with pytest.raises(TypeError):
        t1[(1, 1)] = Fraction(0)  # type: ignore[index]
    assert weingarten_table("unitary", 5, 2) is t1
    assert t1[(1, 1)] == Fraction(1, 24)
    t2 = weingarten_table("orthogonal", 4, 2)
    assert t2[(1, 1)] == Fraction(5, 72)


# ---------------------------------------------------------------------------
# joint entry moments
# ---------------------------------------------------------------------------

def test_joint_moment_unitary_paper_values():
    for n in range(2, 9):
        assert joint_moment("unitary", (1, 1), (1, 1), n) == Fraction(1, n)
        assert joint_moment("unitary", (1, 1, 1, 1), (1, 1, 1, 1), n) == Fraction(2, n * (n + 1))
        assert joint_moment("unitary", (1, 1, 1, 1), (1, 2, 1, 2), n) == Fraction(1, n * (n + 1))
        assert joint_moment("unitary", (1, 2, 1, 2), (1, 2, 1, 2), n) == Fraction(1, n * n - 1)


def test_joint_moment_unitary_unbalanced_vanishes():
    # unmatched conjugation pattern has no admissible pairing
    assert joint_moment("unitary", (1, 2, 1, 1), (1, 1, 1, 1), 4) == 0


def test_joint_moment_orthogonal_paper_values():
    for n in range(4, 9):
        assert joint_moment("orthogonal", (1, 1, 1, 1), (1, 1, 1, 1), n) == Fraction(3, n * (n + 2))
        assert joint_moment("orthogonal", (1, 1, 1, 1), (1, 2, 1, 2), n) == Fraction(1, n * (n + 2))
        assert joint_moment("orthogonal", (1, 2, 1, 2), (1, 2, 1, 2), n) == \
            Fraction(n + 1, n * (n + 2) * (n - 1))
        assert joint_moment("orthogonal", (1, 1, 1, 1), (1, 1, 1, 2), n) == 0


def _joint_moment_unitary_reference(i, j, n):
    """Sum of W(n, beta alpha^-1) over the permutation pairs the tuples admit."""
    k = len(i) // 2

    def admissible(idx):
        return [p for p in all_permutations(k)
                if all(idx[s - 1] == idx[k + p(s) - 1] for s in range(1, k + 1))]

    return sum((weingarten_unitary(n, (beta * alpha.inverse()).cycle_type())
                for alpha in admissible(i) for beta in admissible(j)), Fraction(0))


def _loop_type(p1, p2):
    """Half the sizes of the components of the union graph of two pairings."""
    seen, halves = set(), []
    for start in range(1, p1.size + 1):
        if start in seen:
            continue
        x, size = start, 0
        while x not in seen:
            seen.update((x, p1.partner[x - 1]))
            size += 1
            x = p2.partner[p1.partner[x - 1] - 1]
        halves.append(size)
    return tuple(sorted(halves, reverse=True))


def _joint_moment_orthogonal_reference(i, j, n):
    """Sum of the orthogonal Weingarten value at the loop type of each admitted pairing pair."""
    k = len(i) // 2

    def admissible(idx):
        return [p for p in enumerate_pairings(2 * k)
                if all(idx[a - 1] == idx[b - 1] for a, b in p.pairs())]

    return sum((weingarten_orthogonal(n, _loop_type(p, q))
                for p in admissible(i) for q in admissible(j)), Fraction(0))


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
def test_joint_moments_match_references_on_two_indices(group):
    ref_fn = {
        "unitary": _joint_moment_unitary_reference,
        "orthogonal": _joint_moment_orthogonal_reference,
    }[group]
    for k in (1, 2, 3):
        tuples = list(itertools.product((1, 2), repeat=2 * k))
        for n in (4, 5, 6):
            for i in tuples:
                for j in tuples:
                    assert joint_moment(group, i, j, n) == ref_fn(i, j, n), (i, j, n)


def test_joint_moment_index_validation():
    with pytest.raises(ValueError):
        joint_moment("unitary", (1, 1), (1, 9), 4)
    with pytest.raises(ValueError):
        joint_moment("unitary", (1, 1, 1), (1, 1, 1), 4)
    with pytest.raises(SizeLimitError):
        joint_moment("orthogonal", (1,) * 8, (1,) * 8, 12)


@given(st.integers(0, 2**32 - 1))
def test_joint_moment_relabeling_invariance(seed):
    rng = np.random.default_rng(seed)
    n, k = 6, 2
    i = tuple(int(x) for x in rng.integers(1, n + 1, size=2 * k))
    j = tuple(int(x) for x in rng.integers(1, n + 1, size=2 * k))
    rowmap = {a + 1: int(b) + 1 for a, b in enumerate(rng.permutation(n))}
    colmap = {a + 1: int(b) + 1 for a, b in enumerate(rng.permutation(n))}
    base = joint_moment("unitary", i, j, n)
    assert base == joint_moment("unitary", 
        tuple(rowmap[x] for x in i), tuple(colmap[x] for x in j), n)
