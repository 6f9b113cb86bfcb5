import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from haartrace.combinatorics import (
    Permutation,
    SetPartition,
    all_permutations,
    cycle_partition,
    enumerate_partitions,
    gamma_pairing,
    join,
    one_partition,
    pair_orbits,
    refines,
    zero_partition,
)
from haartrace.cumulants import (
    CumulantRequest,
    ProjectorFamily,
    _sigma_blocks,
    covariance_closed,
    covariance_closed_orthogonal,
    cumulant_via_moments,
    fourth_central_moment,
    limit_covariance,
    process_covariance,
    trace_cumulant,
)
from haartrace.errors import DimensionError, SizeLimitError
from haartrace.sampling import map_replicas
from haartrace.weingarten import weingarten_orthogonal, weingarten_unitary
from hyperoctahedral import sigma_triple


def uniform_req(group, p, q, r, n):
    return CumulantRequest(group, r, ProjectorFamily.uniform(p, q, r, n))


# ---------------------------------------------------------------------------
# relative cumulants
# ---------------------------------------------------------------------------

def _cycle_type_inside(pi, block):
    """Cycle type of pi restricted to a pi-invariant block."""
    inside = set(block)
    return tuple(sorted((len(cy) for cy in pi.cycles() if cy[0] in inside), reverse=True))


def _relative_cumulant(group, pi, a, n):
    """C_{pi, A}: the product over the blocks of A of `_cycle_set_cumulant`
    at the cycle type of pi inside the block."""
    import haartrace.cumulants as cm
    assert refines(cycle_partition(pi), a)
    return math.prod((cm._cycle_set_cumulant(group, n, _cycle_type_inside(pi, block))
                      for block in a.blocks), start=Fraction(1))


def test_relative_cumulants_order_two_values():
    for n in (2, 3, 6):
        ident = Permutation.identity(2)
        swap = Permutation((2, 1))
        assert _relative_cumulant("unitary", swap, one_partition(2), n) == \
            Fraction(-1, n * (n * n - 1))
        assert _relative_cumulant("unitary", ident, one_partition(2), n) == \
            Fraction(1, n * n * (n * n - 1))
        assert _relative_cumulant("unitary", ident, zero_partition(2), n) == Fraction(1, n * n)


def test_relative_cumulant_at_cycle_partition_is_weingarten_product():
    n = 6
    for pi in all_permutations(3):
        pipart = cycle_partition(pi)
        expected = Fraction(1)
        for cyc in pi.cycles():
            expected *= weingarten_unitary(n, (len(cyc),))
        assert _relative_cumulant("unitary", pi, pipart, n) == expected


def _restricted_weingarten_product(group, pi, c, n):
    wg = weingarten_unitary if group == "unitary" else weingarten_orthogonal
    return math.prod((wg(n, _cycle_type_inside(pi, block)) for block in c.blocks),
                     start=Fraction(1))


@pytest.mark.parametrize("group,n", [("unitary", 6), ("orthogonal", 8)])
def test_relative_cumulants_invert_back_to_weingarten_products(group, n):
    # sum of C_{pi, A} over the interval [0_pi, C] must reproduce the
    # block product of Weingarten values (the defining Mobius round trip)
    for pi in all_permutations(3):
        pipart = cycle_partition(pi)
        for c in enumerate_partitions(3):
            if not refines(pipart, c):
                continue
            total = sum(
                (_relative_cumulant(group, pi, a, n) for a in enumerate_partitions(3)
                 if refines(pipart, a) and refines(a, c)),
                Fraction(0),
            )
            assert total == _restricted_weingarten_product(group, pi, c, n)


def test_relative_cumulant_orthogonal_small_values():
    for n in (4, 7):
        ident1 = Permutation.identity(1)
        assert _relative_cumulant("orthogonal", ident1, one_partition(1), n) == Fraction(1, n)
        ident2 = Permutation.identity(2)
        assert _relative_cumulant("orthogonal", ident2, zero_partition(2), n) == Fraction(1, n * n)


# ---------------------------------------------------------------------------
# trace cumulants and closed forms
# ---------------------------------------------------------------------------

def test_trace_cumulant_mean():
    for group in ("unitary", "orthogonal"):
        for n, p, q in [(4, 2, 3), (6, 5, 1)]:
            assert trace_cumulant(uniform_req(group, p, q, 1, n)) == Fraction(p * q, n)


def test_trace_cumulant_variance_examples():
    assert trace_cumulant(uniform_req("unitary", 1, 1, 2, 2)) == Fraction(1, 12)
    assert covariance_closed(1, 1, 1, 1, 2) == Fraction(1, 12)
    for n in (4, 6, 8):
        assert trace_cumulant(uniform_req("orthogonal", 1, 1, 2, n)) == \
            Fraction(2 * (n - 1), n * n * (n + 2))


def test_trace_cumulant_deterministic_statistic_vanishes():
    for group in ("unitary", "orthogonal"):
        for r in (2, 3):
            assert trace_cumulant(uniform_req(group, 5, 5, r, 5)) == 0
    assert trace_cumulant(uniform_req("unitary", 5, 5, 4, 5)) == 0


def test_variance_closed_forms_match_trace_cumulants():
    for n in (2, 5):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                assert trace_cumulant(uniform_req("unitary", p, q, 2, n)) == \
                    covariance_closed(p, q, p, q, n)
    for n in (4, 5):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                assert trace_cumulant(uniform_req("orthogonal", p, q, 2, n)) == \
                    covariance_closed_orthogonal(p, q, p, q, n)


def test_covariance_closed_form_matches_trace_cumulant():
    n = 4
    for p, q, p2, q2 in itertools.product(range(1, n + 1), repeat=4):
        fam = ProjectorFamily(n, ((p, q), (p2, q2)))
        assert trace_cumulant(CumulantRequest("unitary", 2, fam)) == \
            covariance_closed(p, q, p2, q2, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_covariance_closed_orthogonal_matches_both_routes(n):
    for p, q, p2, q2 in itertools.product(range(1, n + 1), repeat=4):
        got = covariance_closed_orthogonal(p, q, p2, q2, n)
        fam = ProjectorFamily(n, ((p, q), (p2, q2)))
        assert got == trace_cumulant(CumulantRequest("orthogonal", 2, fam))
        assert got == cumulant_via_moments("orthogonal", fam)
        assert got == covariance_closed_orthogonal(p2, q2, p, q, n)  # swap the corners
        assert got == covariance_closed_orthogonal(q, p, q2, p2, n)  # transpose them


@pytest.mark.parametrize("n", range(2, 7))
def test_orthogonal_process_covariance_edges_and_dimension_errors(n):
    for side in (0, n):
        for d in range(n + 1):
            for d1, d2 in [((side, d), (1, 1)), ((d, side), (1, 1)),
                           ((1, 1), (side, d)), ((1, 1), (d, side))]:
                assert process_covariance("orthogonal", n, d1, d2) == 0
    for bad in (0, n + 1):
        for dims in [(bad, 1, 1, 1), (1, bad, 1, 1), (1, 1, bad, 1), (1, 1, 1, bad)]:
            with pytest.raises(DimensionError):
                covariance_closed_orthogonal(*dims, n)
    with pytest.raises(ValueError, match="group must be one of"):
        process_covariance("symplectic", n, (1, 1), (1, 1))


def test_covariance_closed_corner_cases():
    n = 5
    for p2 in range(1, n + 1):
        for q2 in range(1, n + 1):
            assert covariance_closed(n, n, p2, q2, n) == 0
    # Var T_{p,q} = pq (n-p)(n-q) / (n^2 (n^2-1)), the diagonal of the closed form
    assert covariance_closed(2, 3, 2, 3, n) == Fraction(2 * 3 * 3 * 2, n * n * (n * n - 1))


@given(st.integers(2, 8), st.data())
def test_closed_form_symmetries(n, data):
    p = data.draw(st.integers(1, n))
    q = data.draw(st.integers(1, n))
    p2 = data.draw(st.integers(1, n))
    q2 = data.draw(st.integers(1, n))
    assert covariance_closed(p, q, p, q, n) == covariance_closed(q, p, q, p, n)
    assert (covariance_closed_orthogonal(p, q, p, q, n)
            == covariance_closed_orthogonal(q, p, q, p, n))
    assert covariance_closed(p, q, p2, q2, n) == covariance_closed(p2, q2, p, q, n)


def test_closed_form_dimension_errors():
    with pytest.raises(DimensionError):
        covariance_closed(0, 1, 0, 1, 4)
    with pytest.raises(DimensionError):
        covariance_closed(2, 5, 2, 5, 4)
    with pytest.raises(DimensionError):
        covariance_closed(1, 1, 1, 6, 5)


def test_order_guards():
    with pytest.raises(SizeLimitError):
        trace_cumulant(uniform_req("unitary", 1, 1, 5, 8))
    with pytest.raises(SizeLimitError):
        trace_cumulant(uniform_req("orthogonal", 1, 1, 4, 8))
    with pytest.raises(ValueError):
        CumulantRequest("unitary", 3, ProjectorFamily.uniform(1, 1, 2, 4))


# ---------------------------------------------------------------------------
# oracle equivalence (moment route vs relative-cumulant route)
# ---------------------------------------------------------------------------

def _block_moment(group, n, pq):
    """E(prod_a T_{p_a, q_a}) of one block, from its integer numerator and D_m."""
    import haartrace.cumulants as cm
    return Fraction(cm._block_moment(group, n, tuple(sorted(pq))),
                    cm._moment_matrix(group, n, len(pq))[1])


def test_block_moment_examples():
    # one factor: the mean pq/n
    for pq in ((2, 3), (1, 4), (2, 2)):
        assert _block_moment("unitary", 5, (pq,)) == Fraction(pq[0] * pq[1], 5)
    # E |U11|^4 at n=2 equals the uniform second moment 1/3
    assert _block_moment("unitary", 2, ((1, 1),) * 2) == Fraction(1, 3)
    # orthogonal: E O11^4 = 3/(n(n+2)) at n=4
    assert _block_moment("orthogonal", 4, ((1, 1),) * 2) == Fraction(1, 8)


def test_second_moment_matches_classical_derivation():
    # E T^2 = pq ((p+q)/(n(n+1)) + (p-1)(q-1)/(n^2-1))
    for n, p, q in [(4, 2, 3), (6, 4, 4), (7, 1, 5)]:
        expected = Fraction(p * q) * (
            Fraction(p + q, n * (n + 1)) + Fraction((p - 1) * (q - 1), n * n - 1))
        assert _block_moment("unitary", n, ((p, q),) * 2) == expected


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
def test_moment_oracle_low_orders(group):
    # r = 1 is the mean; r = 2 is E(T T') - E(T) E(T')
    for n, (d1, d2) in [(4, ((2, 3), (1, 4))), (5, ((1, 1), (4, 2))), (6, ((3, 3), (3, 3)))]:
        assert cumulant_via_moments(group, ProjectorFamily(n, (d1,))) == \
            Fraction(d1[0] * d1[1], n)
        assert cumulant_via_moments(group, ProjectorFamily(n, (d1, d2))) == \
            _block_moment(group, n, (d1, d2)) - \
            _block_moment(group, n, (d1,)) * _block_moment(group, n, (d2,))


@pytest.mark.parametrize("group, rmax", [("unitary", 4), ("orthogonal", 3)])
def test_moment_oracle_of_a_constant_vanishes(group, rmax):
    # a full-row or full-column corner is deterministic: every block moment
    # of T_{n,q} is q^|block|, so the Mobius weights cancel for r >= 2
    n = 5
    for r in range(2, rmax + 1):
        for p, q in ((n, 2), (3, n), (n, n)):
            assert cumulant_via_moments(group, ProjectorFamily.uniform(p, q, r, n)) == 0


@pytest.mark.parametrize("group,rmax", [("unitary", 3), ("orthogonal", 3)])
def test_oracle_equivalence_equal_dims(group, rmax):
    for n in (4, 5):
        for r in range(1, rmax + 1):
            for p in range(1, n + 1):
                for q in range(1, n + 1):
                    fam = ProjectorFamily.uniform(p, q, r, n)
                    assert trace_cumulant(CumulantRequest(group, r, fam)) == \
                        cumulant_via_moments(group, fam)


@pytest.mark.parametrize("group,rmax", [("unitary", 4), ("orthogonal", 3)])
def test_oracle_equivalence_distinct_dims_sample(group, rmax):
    rng = np.random.default_rng(20260808)
    for n in (4, 6):
        for r in range(2, rmax + 1):
            for _ in range(6):
                dims = tuple(
                    (int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
                    for _ in range(r))
                fam = ProjectorFamily(n, dims)
                assert trace_cumulant(CumulantRequest(group, r, fam)) == \
                    cumulant_via_moments(group, fam)


# Values from the closed route, pinned: the oracle must reproduce them alone
ORACLE_KNOWN = [
    ("unitary", 4, ((1, 2), (3, 1)), Fraction(1, 120)),
    ("unitary", 5, ((2, 3), (1, 4), (4, 2)), Fraction(-1, 15750)),
    ("unitary", 4, ((1, 2), (2, 3), (3, 1), (2, 2)), Fraction(1, 16800)),
    ("unitary", 5, ((3, 3),) * 4, Fraction(-3, 17500)),
    ("orthogonal", 6, ((2, 3), (4, 1)), Fraction(1, 60)),
    ("orthogonal", 6, ((1, 2), (2, 4), (2, 5)), Fraction(-1, 1350)),
    ("orthogonal", 4, ((1, 3),) * 3, Fraction(-1, 64)),
]


CLOSED_ROUTE = ("_coefficient_table", "_admissible_monomials",
                "_cycle_set_cumulant", "trace_cumulant",
                "trace_cumulant_unitary", "trace_cumulant_orthogonal", "_sigma_blocks",
                "pair_orbits", "weingarten_unitary", "weingarten_orthogonal")
MOMENT_ORACLE = ("cumulant_via_moments", "_moment_weights", "_block_moment", "_moment_matrix")


def _patch_to_raise(monkeypatch, names, message):
    import haartrace.cumulants as cm

    def called(*args, **kwargs):
        raise AssertionError(message)

    for name in names:
        monkeypatch.setattr(cm, name, called)


def test_moment_oracle_shares_no_code_with_closed_route(monkeypatch):
    import haartrace.cumulants as cm

    # memoized moment matrices, weights or block moments would hide a call
    oracle = [cm._moment_matrix, cm._block_moment, cm._moment_weights]
    _patch_to_raise(monkeypatch, CLOSED_ROUTE, "the moment oracle reached the closed route")
    for cache in oracle:
        cache.cache_clear()
    try:
        for group, n, dims, want in ORACLE_KNOWN:
            assert cumulant_via_moments(group, ProjectorFamily(n, dims)) == want
    finally:
        for cache in oracle:
            cache.cache_clear()


def test_closed_route_shares_no_code_with_moment_oracle(monkeypatch):
    # the reverse direction, cold: the closed route's tables are rebuilt
    # while every oracle name raises
    import haartrace.cumulants as cm

    closed = [cm._cycle_set_cumulant, cm._admissible_monomials, cm._coefficient_table]
    _patch_to_raise(monkeypatch, MOMENT_ORACLE, "the closed route reached the moment oracle")
    for cache in closed:
        cache.cache_clear()
    try:
        for group, n, dims, want in ORACLE_KNOWN:
            fam = ProjectorFamily(n, dims)
            assert trace_cumulant(CumulantRequest(group, fam.r, fam)) == want
    finally:
        for cache in closed:
            cache.cache_clear()


def _scaled_weights(weight_factor, denom_factor):
    """A _moment_weights mutant: every weight and the common L scaled by factors."""
    import haartrace.cumulants as cm
    real = cm._moment_weights

    @functools.lru_cache(maxsize=None)
    def scaled(group, n, r):
        weights, common = real(group, n, r)
        return tuple(w * weight_factor for w in weights), common * denom_factor

    return scaled


def test_oracle_denominator_mutant_is_caught(monkeypatch):
    # L twice too large against the weights halves every oracle cumulant
    import haartrace.cumulants as cm
    monkeypatch.setattr(cm, "_moment_weights", _scaled_weights(1, 2))
    with pytest.raises(AssertionError, match="assert Fraction"):
        test_moment_oracle_shares_no_code_with_closed_route(monkeypatch)


def test_oracle_common_rescaling_is_an_equivalent_mutant(monkeypatch):
    # L and every weight scaled by one factor leave each quotient unchanged
    import haartrace.cumulants as cm
    monkeypatch.setattr(cm, "_moment_weights", _scaled_weights(3, 3))
    test_moment_oracle_shares_no_code_with_closed_route(monkeypatch)


def _moment_matrix_with_labels(restrict):
    """A _moment_matrix mutant whose loops keep the labels restrict(block, m)."""
    import haartrace.cumulants as cm

    @functools.lru_cache(maxsize=None)
    def mutant(group, n, m):
        index = {part: i for i, part in enumerate(enumerate_partitions(m))}
        gamma = gamma_pairing(m).as_partition()
        loops = [index[SetPartition.of(m, [restrict(block, m) for block in
                                           join(p.as_partition(), gamma).blocks])]
                 for p in cm.pairings(group, m)]
        inverse, denom = cm.gram_inverse(group, n, m)
        table = [[0] * len(index) for _ in index]
        for a, row in zip(loops, inverse):
            for b, x in zip(loops, row):
                table[a][b] += x
        return tuple(map(tuple, table)), denom

    return mutant


def test_moment_matrix_label_mutant_is_caught(monkeypatch):
    # `a < m` for `a <= m` drops label m from its loop, so the loops no
    # longer partition [m] (at m = 1 the one loop is empty); the block-moment
    # examples fail cold
    import haartrace.cumulants as cm
    monkeypatch.setattr(cm, "_moment_matrix",
                        _moment_matrix_with_labels(lambda block, m: [a for a in block if a < m]))
    cm._block_moment.cache_clear()
    try:
        with pytest.raises((IndexError, ValueError)):
            test_block_moment_examples()
    finally:
        cm._block_moment.cache_clear()


@pytest.mark.parametrize("group, rmax", [("unitary", 4), ("orthogonal", 3)])
def test_moment_matrix_barred_labels_are_an_equivalent_mutant(group, rmax):
    # every loop holds a label a together with its barred copy m + a, since
    # gamma_pairing(m) is one of the joined pairings, so restricting to the
    # barred labels gives the same partitions and the same table
    import haartrace.cumulants as cm
    barred = _moment_matrix_with_labels(lambda block, m: [a - m for a in block if a > m])
    for m in range(1, rmax + 1):
        for n in (4, 7):
            assert barred(group, n, m) == cm._moment_matrix(group, n, m)


def _no_signs(alpha, beta, eps):
    """A _sigma_blocks mutant that ignores the sign vector."""
    return _sigma_blocks(alpha, beta, (1,) * len(eps))


def test_coset_mutant_is_caught_by_the_oracle(monkeypatch):
    # a _sigma_blocks that ignores the sign vector breaks the closed
    # orthogonal route; an oracle sharing that code would move with it
    import haartrace.cumulants as cm
    from haartrace.cli import run_verification

    monkeypatch.setattr(cm, "_sigma_blocks", _no_signs)
    _, rows = run_verification("quick")
    row = next(r for r in rows if r["identity"] == "oracle-equivalence-orthogonal")
    assert row["failures"] > 0


def test_coset_mutant_is_caught_with_the_structure_warm(monkeypatch):
    # the admissible monomials are built before the mutant goes in; a
    # structure that survived the verify run's cache clearing would hide it
    import haartrace.cumulants as cm
    from haartrace.cli import run_verification

    for r in (1, 2, 3):
        cm._admissible_monomials("orthogonal", r)
    monkeypatch.setattr(cm, "_sigma_blocks", _no_signs)
    _, rows = run_verification("quick")
    row = next(r for r in rows if r["identity"] == "oracle-equivalence-orthogonal")
    assert row["status"] == "FAIL"


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_sigma_blocks_equal_the_s2r_reference(r):
    # every (alpha, beta, eps): 2, 16, 288 and 9216 triples at r = 1..4
    perms = all_permutations(r)
    for alpha, beta in itertools.product(perms, repeat=2):
        for eps in itertools.product((1, -1), repeat=r):
            want = cycle_partition(sigma_triple(alpha, beta, eps))
            assert SetPartition.of(r, _sigma_blocks(alpha, beta, eps)) == want, (alpha, beta, eps)


def _orbits_by_cycle_type(k):
    """A pair_orbits mutant coarser than conjugacy: pairs keyed by the cycle
    type of beta alpha^-1 alone."""
    perms = all_permutations(k)
    classes = {}
    for i, alpha in enumerate(perms):
        for j, beta in enumerate(perms):
            classes.setdefault((beta * alpha.inverse()).cycle_type(), []).append((i, j))
    return tuple(map(tuple, classes.values()))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_coarse_orbit_mutant_is_caught_by_the_oracle(monkeypatch, warm):
    # pairs in one cycle-type class but not one conjugacy orbit have other
    # admissible groupings and weights; copying the leader's entry to them
    # breaks both closed routes.  Warm, the structure is built before the
    # mutant goes in, and the verify run's cache clearing must drop it
    import haartrace.cumulants as cm
    from haartrace.cli import run_verification

    if warm:
        for group, rmax in (("unitary", 4), ("orthogonal", 3)):
            for r in range(1, rmax + 1):
                cm._admissible_monomials(group, r)
    monkeypatch.setattr(cm, "pair_orbits", _orbits_by_cycle_type)
    _, rows = run_verification("quick")
    status = {row["identity"]: row["status"] for row in rows}
    assert status["oracle-equivalence-unitary"] == status["oracle-equivalence-orthogonal"] == "FAIL"


def _pair_monomials(group, alpha, beta):
    """Weight and monomial Counter of one (alpha, beta), built for that pair alone.

    The per-pair construction that `_admissible_monomials` runs only on the
    leader of each conjugacy orbit: the groupings of the cycles of each pi
    that join with the cycle partitions of alpha and beta to the one-block
    partition, each kept as the sorted tuple of its blocks' cycle types.
    The orthogonal pi is built as a product in S_2r (`sigma_triple`).
    """
    r = alpha.size
    ab = join(cycle_partition(alpha), cycle_partition(beta))
    if group == "unitary":
        pis, weight = [beta * alpha.inverse()], Fraction(1)
    else:
        pis = [sigma_triple(alpha, beta, eps) for eps in itertools.product((1, -1), repeat=r)]
        weight = Fraction(2 ** r, 2 ** (alpha.num_cycles + beta.num_cycles))
    monomials = Counter()
    for pi in pis:
        cycles = pi.cycles()
        for grouping in enumerate_partitions(len(cycles)):
            blocks = [[cycles[c - 1] for c in block] for block in grouping.blocks]
            merged = SetPartition.of(r, [sum(block, ()) for block in blocks])
            if join(merged, ab) == one_partition(r):
                monomials[tuple(sorted(tuple(sorted(map(len, block), reverse=True))
                                       for block in blocks))] += 1
    return weight, monomials


@pytest.mark.parametrize("group, rmax", [("unitary", 4), ("orthogonal", 4)])
def test_admissible_monomials_equal_the_per_pair_reference(group, rmax):
    # every pair of an orbit, not only its leader, gets the orbit's weight
    # and monomials from its own construction; orthogonal order 4 lies past
    # ORDER_LIMITS, but its structure is checked for the day the limit moves
    import haartrace.cumulants as cm
    for r in range(1, rmax + 1):
        perms = all_permutations(r)
        entries = cm._admissible_monomials(group, r)
        assert len(entries) == len(pair_orbits(r))
        for (weight, monomials), orbit in zip(entries, pair_orbits(r)):
            assert len(dict(monomials)) == len(monomials)
            for i, j in orbit:
                assert (weight, Counter(dict(monomials))) == \
                    _pair_monomials(group, perms[i], perms[j])


def _filtered_pair_coefficient(group, n, alpha, beta):
    """One (alpha, beta) coefficient by filtering every partition of [r] at n.

    Sums C_{pi, A} over the coarsenings A of the cycle partition of pi that
    join with the cycle partitions of alpha and beta to the one-block
    partition: the definition that `_admissible_monomials` evaluates once
    per (group, r) instead, with the orthogonal sigma built in S_2r.
    """
    r = alpha.size
    ab = join(cycle_partition(alpha), cycle_partition(beta))
    if group == "unitary":
        pis, weight = [beta * alpha.inverse()], Fraction(1)
    else:
        pis = [sigma_triple(alpha, beta, eps) for eps in itertools.product((1, -1), repeat=r)]
        weight = Fraction(2 ** r, 2 ** (alpha.num_cycles + beta.num_cycles))
    return weight * sum((_relative_cumulant(group, pi, a, n)
                         for pi in pis for a in enumerate_partitions(r)
                         if refines(cycle_partition(pi), a) and join(a, ab) == one_partition(r)),
                        Fraction(0))


@pytest.mark.parametrize("group, rmax", [("unitary", 4), ("orthogonal", 3)])
def test_coefficient_table_equals_the_filtered_reference(group, rmax):
    # the Bell(r) x Bell(r) table sums the per-pair coefficients over the
    # cycle partitions of alpha and beta
    import haartrace.cumulants as cm
    for r in range(1, rmax + 1):
        perms, parts = all_permutations(r), enumerate_partitions(r)
        part_of = {perm: parts.index(cycle_partition(perm)) for perm in perms}
        for n in (4, 5, 6):
            pair = {(a, b): _filtered_pair_coefficient(group, n, a, b)
                    for a in perms for b in perms}
            want = [[Fraction(0)] * len(parts) for _ in parts]
            for (a, b), c in pair.items():
                want[part_of[a]][part_of[b]] += c
            table, denom = cm._coefficient_table(group, n, r)
            assert (len(table), len(table[0])) == (len(parts), len(parts))
            assert denom == math.lcm(*(c.denominator for c in pair.values()))
            assert [[Fraction(c, denom) for c in row] for row in table] == want


def test_trace_cumulant_r3_equals_oracle_spec_example():
    fam = ProjectorFamily.uniform(2, 2, 3, 4)
    assert trace_cumulant(CumulantRequest("unitary", 3, fam)) == \
        cumulant_via_moments("unitary", fam)


# ---------------------------------------------------------------------------
# odd-cumulant symmetries (exact consequences of Haar invariance)
# ---------------------------------------------------------------------------

def test_kappa3_vanishes_on_half_corners():
    # T_{p, n/2} is distributionally symmetric about its mean, so odd
    # cumulants vanish; same for T_{n/2, q} by transposition
    for group in ("unitary", "orthogonal"):
        for p in (2, 3, 4):
            assert trace_cumulant(uniform_req(group, p, 4, 3, 8)) == 0
            assert trace_cumulant(uniform_req(group, 4, p, 3, 8)) == 0


@pytest.mark.parametrize("group, rmax", [("unitary", 4), ("orthogonal", 3)])
def test_transposed_family_has_the_same_cumulant(group, rmax):
    # U^T is Haar too, so swapping p and q in every factor keeps the joint
    # law.  This is also why reading alpha's trace vector from the other side
    # of the corners in `trace_cumulant` is an equivalent mutant: on dims it
    # computes what the real code computes on the transposed dims
    rng = random.Random(4242)
    for n in (4, 5, 6):
        for r in range(1, rmax + 1):
            for _ in range(25):
                dims = tuple((rng.randint(0, n), rng.randint(0, n)) for _ in range(r))
                swapped = tuple((q, p) for p, q in dims)
                assert trace_cumulant(CumulantRequest(group, r, ProjectorFamily(n, dims))) == \
                    trace_cumulant(CumulantRequest(group, r, ProjectorFamily(n, swapped))), dims


def test_kappa3_reflection_antisymmetry():
    # row complement maps T_{p,q} to q - T_{n-p,q}: odd cumulants flip sign
    n = 8
    for group in ("unitary", "orthogonal"):
        for p in (1, 2, 3):
            for q in (3, 5):
                plus = trace_cumulant(uniform_req(group, p, q, 3, n))
                minus = trace_cumulant(uniform_req(group, n - p, q, 3, n))
                assert plus == -minus


# ---------------------------------------------------------------------------
# limit covariance and fourth central moment
# ---------------------------------------------------------------------------

def test_limit_covariance_values():
    assert limit_covariance(0.5, 0.5, 0.5, 0.5, 2) == pytest.approx(1 / 16)
    assert limit_covariance(0.5, 0.5, 0.5, 0.5, 1) == pytest.approx(1 / 8)
    assert limit_covariance(0.0, 0.4, 0.6, 0.9, 2) == 0.0
    assert limit_covariance(0.3, 1.0, 0.5, 1.0, 2) == 0.0
    with pytest.raises(ValueError):
        limit_covariance(0.5, 0.5, 0.5, 0.5, 3)
    with pytest.raises(ValueError):
        limit_covariance(-0.1, 0.5, 0.5, 0.5, 2)


def beta_central_fourth_oracle(a, b):
    raw = [Fraction(1)]
    for k in range(1, 5):
        raw.append(raw[-1] * Fraction(a + k - 1, a + b + k - 1))
    mu = raw[1]
    return raw[4] - 4 * mu * raw[3] + 6 * mu**2 * raw[2] - 3 * mu**4


def test_fourth_central_moment_examples():
    assert fourth_central_moment(2, 2, 3) == beta_central_fourth_oracle(2, 1)
    assert fourth_central_moment(3, 3, 3) == 0  # full matrix: deterministic
    assert fourth_central_moment(4, 4, 4) == 0
    assert fourth_central_moment(1, 1, 2) == Fraction(1, 80)
    assert beta_central_fourth_oracle(1, 1) == Fraction(1, 80)
    with pytest.raises(SizeLimitError):
        fourth_central_moment(2, 2, 4, group="orthogonal")


def test_fourth_central_moment_beta_route_consistent_with_kappa4_route():
    for n in (4, 5, 6):
        for q in range(1, n):
            assert fourth_central_moment(1, q, n) == beta_central_fourth_oracle(q, n - q)


def test_fourth_central_moment_exact_joint_moment_oracle():
    # independent exact route: expand E T^m through entry moments
    from haartrace.weingarten import joint_moment
    p = q = 2
    n = 4
    cells = [(i, j) for i in range(1, p + 1) for j in range(1, q + 1)]
    raw = [Fraction(1)]
    for m in range(1, 5):
        total = Fraction(0)
        for combo in itertools.product(cells, repeat=m):
            rows = tuple(c[0] for c in combo)
            cols = tuple(c[1] for c in combo)
            total += joint_moment("unitary", rows + rows, cols + cols, n)
        raw.append(total)
    mu = raw[1]
    central4 = raw[4] - 4 * mu * raw[3] + 6 * mu**2 * raw[2] - 3 * mu**4
    assert fourth_central_moment(p, q, n) == central4


@pytest.mark.slow
def test_fourth_central_moment_monte_carlo():
    # MC oracle at (p,q,n) = (2,2,4), one million replicas
    n, reps = 4, 1_000_000
    batch = map_replicas("unitary", n, reps, 8808, lambda z: z)
    t = (np.abs(batch[:, :2, :2]) ** 2).sum(axis=(1, 2))
    centered = t - t.mean()
    m4 = (centered ** 4).mean()
    se = (centered ** 4).std(ddof=1) / np.sqrt(reps)
    assert abs(m4 - float(fourth_central_moment(2, 2, 4))) < 4 * se
