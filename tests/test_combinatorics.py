import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from haartrace.combinatorics import (
    Pairing,
    Permutation,
    SetPartition,
    all_permutations,
    cycle_partition,
    enumerate_pairings,
    enumerate_partitions,
    gamma_pairing,
    join,
    loop_type,
    mobius,
    one_partition,
    pair_orbits,
    perm_pairing,
    refines,
    zero_partition,
)
from haartrace.errors import DimensionError, OrderViolationError, SizeLimitError
from hyperoctahedral import bar


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def brute_force_partitions(k):
    """All partitions of [k] by canonicalizing every block-label assignment."""
    seen = set()
    for labels in itertools.product(range(k), repeat=k):
        blocks = {}
        for elem, lab in zip(range(1, k + 1), labels):
            blocks.setdefault(lab, []).append(elem)
        seen.add(frozenset(frozenset(b) for b in blocks.values()))
    return seen


def traversal_components(p1: Pairing, p2: Pairing) -> int:
    """Component count of the union graph by explicit breadth-first search."""
    m = p1.size
    adj = {a: {p1.partner[a - 1], p2.partner[a - 1]} for a in range(1, m + 1)}
    unvisited, comps = set(range(1, m + 1)), 0
    while unvisited:
        comps += 1
        stack = [unvisited.pop()]
        while stack:
            for b in adj[stack.pop()]:
                if b in unvisited:
                    unvisited.remove(b)
                    stack.append(b)
    return comps


def recursive_pairing_count(two_k: int) -> int:
    return 1 if two_k <= 0 else (two_k - 1) * recursive_pairing_count(two_k - 2)


def random_partition(rng, k) -> SetPartition:
    blocks = {}
    top = 0
    for elem in range(1, k + 1):
        lab = rng.integers(0, top + 1)
        top = max(top, lab + 1)
        blocks.setdefault(int(lab), []).append(elem)
    return SetPartition.of(k, blocks.values())


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_enumerate_partitions_counts():
    assert [len(enumerate_partitions(k)) for k in (1, 2, 3)] == [1, 2, 5]
    assert enumerate_partitions(1) == (SetPartition.of(1, [(1,)]),)


def test_enumerate_partitions_matches_brute_force():
    for k in (2, 3, 4):
        expected = brute_force_partitions(k)
        got = {frozenset(frozenset(b) for b in part.blocks)
               for part in enumerate_partitions(k)}
        assert got == expected
    assert len(enumerate_partitions(4)) == 15


def test_enumerate_partitions_no_duplicates():
    parts = enumerate_partitions(6)
    assert len(set(parts)) == len(parts)


def test_enumeration_guards():
    with pytest.raises(SizeLimitError):
        enumerate_partitions(11)
    with pytest.raises(SizeLimitError):
        enumerate_partitions(0)


def test_canonical_form_and_validation():
    a = SetPartition.of(4, [[3, 1], [4, 2]])
    assert a.blocks == ((1, 3), (2, 4))
    assert a == SetPartition.of(4, [(2, 4), (1, 3)])
    with pytest.raises(ValueError):
        SetPartition.of(3, [(1, 2)])
    with pytest.raises(ValueError):
        SetPartition.of(3, [(1, 2), (2, 3)])


def test_meet_join_examples():
    a = SetPartition.of(3, [(1, 2), (3,)])
    b = SetPartition.of(3, [(1,), (2, 3)])
    assert join(a, b) == one_partition(3)
    for part in enumerate_partitions(4):
        assert join(part, one_partition(4)) == one_partition(4)
        assert join(part, zero_partition(4)) == part


def test_lattice_laws_all_pairs():
    # join(a, b) is the finest partition that both a and b refine, found by brute force
    for k in (1, 2, 3, 4, 5):
        parts = enumerate_partitions(k)
        for a in parts:
            for b in parts:
                above = [c for c in parts if refines(a, c) and refines(b, c)]
                (least,) = [c for c in above if all(refines(c, d) for d in above)]
                assert join(a, b) == least
                assert join(a, b) == join(b, a)
                assert refines(a, join(a, b))


def test_lattice_associativity_exhaustive_k4():
    parts = enumerate_partitions(4)
    for a, b, c in itertools.product(parts, repeat=3):
        assert join(join(a, b), c) == join(a, join(b, c))


@given(st.data())
def test_lattice_laws_random_k6(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a, b = random_partition(rng, 6), random_partition(rng, 6)
    assert refines(a, join(a, b))
    assert join(a, b) == join(b, a)


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        join(zero_partition(3), zero_partition(4))
    with pytest.raises(DimensionError):
        refines(one_partition(2), one_partition(3))


# ---------------------------------------------------------------------------
# Mobius function
# ---------------------------------------------------------------------------

def test_mobius_examples():
    for part in enumerate_partitions(4):
        assert mobius(part, part) == 1
    assert mobius(zero_partition(2), one_partition(2)) == -1
    assert mobius(zero_partition(3), one_partition(3)) == 2
    with pytest.raises(OrderViolationError):
        mobius(one_partition(2), zero_partition(2))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_mobius_inversion_identity(k):
    parts = enumerate_partitions(k)
    m = len(parts)
    leq = np.zeros((m, m), dtype=bool)
    for i, ci in enumerate(parts):
        for j, cj in enumerate(parts):
            leq[i, j] = refines(ci, cj)
    mob = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            if leq[i, j]:
                mob[i, j] = mobius(parts[i], parts[j])
    for b in range(m):
        below = np.flatnonzero(leq[:, b])
        # sum over C in [A, B] of mobius(C, B), for every A <= B at once
        sums = leq[np.ix_(below, below)] @ mob[below, b]
        expected = (below == b).astype(np.int64)
        assert np.array_equal(sums, expected)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def test_permutation_basics():
    s = Permutation((2, 3, 1))
    assert s.images == (2, 3, 1)
    assert s.inverse().images == (3, 1, 2)
    assert (s * s.inverse()) == Permutation.identity(3)
    assert s.cycle_type() == (3,)
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_cycle_partition_examples():
    assert cycle_partition(Permutation.identity(3)) == zero_partition(3)
    assert cycle_partition(Permutation((2, 3, 1))) == one_partition(3)
    assert cycle_partition(Permutation((2, 1, 3))) == SetPartition.of(3, [(1, 2), (3,)])


def test_cycle_partition_composition_refinement():
    for sigma in all_permutations(4):
        for tau in all_permutations(4):
            lhs = cycle_partition(sigma * tau)
            rhs = join(cycle_partition(sigma), cycle_partition(tau))
            assert refines(lhs, rhs)


@pytest.mark.parametrize("k, count", [(1, 1), (2, 4), (3, 11), (4, 43)])
def test_pair_orbits_are_the_simultaneous_conjugacy_classes(k, count):
    perms = all_permutations(k)
    orbits = pair_orbits(k)
    assert len(orbits) == count
    members = [pair for orbit in orbits for pair in orbit]
    assert sorted(members) == [(i, j) for i in range(len(perms)) for j in range(len(perms))]
    # each orbit is the full class of its leader, and the leader comes first
    # in row-major order, as do the leaders of successive orbits
    for orbit in orbits:
        i, j = orbit[0]
        alpha, beta = perms[i], perms[j]
        conjugates = {(g * alpha * g.inverse(), g * beta * g.inverse()) for g in perms}
        assert {(perms[a], perms[b]) for a, b in orbit} == conjugates
        assert orbit[0] == min(orbit)
    assert [orbit[0] for orbit in orbits] == sorted(orbit[0] for orbit in orbits)


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

def test_pairing_counts_and_oracle():
    for two_k in (2, 4, 6):
        got = enumerate_pairings(two_k)
        assert len(got) == recursive_pairing_count(two_k)
        assert len(set(got)) == len(got)
    assert len(enumerate_pairings(6)) == 15


def test_pairing_guards():
    with pytest.raises(ValueError):
        enumerate_pairings(5)
    with pytest.raises(SizeLimitError):
        enumerate_pairings(14)
    with pytest.raises(ValueError):
        Pairing((1, 2))  # fixed point


def test_pairing_block_structure():
    for p in enumerate_pairings(6):
        assert all(len(b) == 2 for b in p.as_partition().blocks)


def test_loop_count_examples():
    for p in enumerate_pairings(6):
        assert len(loop_type(p, p)) == 3
    p1 = Pairing.from_pairs(4, [(1, 3), (2, 4)])
    p2 = Pairing.from_pairs(4, [(1, 4), (2, 3)])
    assert len(loop_type(p1, p2)) == 1
    with pytest.raises(DimensionError):
        loop_type(p1, gamma_pairing(3))


def test_loop_count_matches_traversal_oracle():
    pairings = enumerate_pairings(6)
    for p1 in pairings:
        for p2 in pairings:
            assert len(loop_type(p1, p2)) == traversal_components(p1, p2)


@given(st.integers(0, 2**32 - 1))
def test_loop_count_symmetry_and_relabeling(seed):
    rng = np.random.default_rng(seed)
    pairings = enumerate_pairings(8)
    p1, p2 = (pairings[int(rng.integers(len(pairings)))] for _ in range(2))
    assert len(loop_type(p1, p2)) == len(loop_type(p2, p1))
    relab = Permutation(tuple(int(x) + 1 for x in rng.permutation(8)))

    def apply(p: Pairing) -> Pairing:
        return Pairing.from_pairs(8, [(relab(a), relab(b)) for a, b in p.pairs()])

    assert len(loop_type(apply(p1), apply(p2))) == len(loop_type(p1, p2))
    assert loop_type(apply(p1), apply(p2)) == loop_type(p1, p2) == loop_type(p2, p1)


def test_loop_type_is_a_partition_of_k_with_loop_count_parts():
    pairings = enumerate_pairings(8)
    types = set()
    for p1 in pairings:
        for p2 in pairings:
            t = loop_type(p1, p2)
            assert sum(t) == 4 and list(t) == sorted(t, reverse=True)
            assert len(t) == traversal_components(p1, p2)
            types.add(t)
    assert types == {(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)}
    with pytest.raises(DimensionError):
        loop_type(pairings[0], gamma_pairing(3))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_loop_type_of_bipartite_pairings_is_cycle_type(k):
    for a in all_permutations(k):
        for b in all_permutations(k):
            assert loop_type(perm_pairing(a), perm_pairing(b)) == (b * a.inverse()).cycle_type()


def test_bar_and_gamma():
    # the tests' S_2k reference encodes the barred copy as the package does
    assert [bar(a, 3) for a in (1, 2, 3, 4, 5, 6)] == [4, 5, 6, 1, 2, 3]
    assert gamma_pairing(3).partner == tuple(bar(a, 3) for a in range(1, 7))
    assert gamma_pairing(2).pairs() == ((1, 3), (2, 4))
    sigma = Permutation((2, 1))
    assert perm_pairing(sigma).pairs() == ((1, 4), (2, 3))
