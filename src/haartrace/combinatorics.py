"""Set partitions, permutations and pairings on the ground set [k].

This module is the combinatorial substrate for everything else: the
refinement lattice of set partitions with its Mobius function, permutations
with cached cycle decompositions, and fixed-point-free involutions
(pairings) of [2k].  Pairings use one fixed encoding of the doubled ground
set throughout the codebase: the "barred" copy of a is k + a.

All values are immutable after construction and every operation is a pure
function, so concurrent use needs no locking.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import DimensionError, OrderViolationError, SizeLimitError

# Guards against accidental Bell-number / double-factorial blowups.  The
# exact formulas only ever need k <= 4 and 2k <= 8.
MAX_PARTITION_GROUND = 10
MAX_PAIRING_GROUND = 12

CycleType = tuple[int, ...]


@dataclass(frozen=True)
class SetPartition:
    """A partition of [k] in canonical form.

    Blocks are sorted by least element and each block is sorted ascending,
    so equality and hashing are structural.
    """

    ground_size: int
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, ground_size: int, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        """Canonicalize and validate a collection of blocks covering [k]."""
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen: list[int] = []
        for block in canon:
            if not block:
                raise ValueError("empty block")
            seen.extend(block)
        if sorted(seen) != list(range(1, ground_size + 1)):
            raise ValueError(f"blocks do not partition [{ground_size}]: {canon}")
        return cls(ground_size, canon)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_index(self) -> tuple[int, ...]:
        """Index of the block containing each element; entry a-1 is for a."""
        idx = [0] * self.ground_size
        for b, block in enumerate(self.blocks):
            for a in block:
                idx[a - 1] = b
        return tuple(idx)

    def __repr__(self) -> str:
        inner = "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"SetPartition({inner})"


def zero_partition(k: int) -> SetPartition:
    """The discrete partition 0_k into singletons."""
    return SetPartition(k, tuple((a,) for a in range(1, k + 1)))


def one_partition(k: int) -> SetPartition:
    """The one-block partition 1_k."""
    return SetPartition(k, (tuple(range(1, k + 1)),))


@lru_cache(maxsize=None)
def enumerate_partitions(k: int) -> tuple[SetPartition, ...]:
    """All partitions of [k] (Bell(k) of them), canonically ordered.

    Enumerated through restricted-growth strings: element a joins an
    existing block or opens a new one.
    """
    if not 1 <= k <= MAX_PARTITION_GROUND:
        raise SizeLimitError(f"partition enumeration limited to 1..{MAX_PARTITION_GROUND}, got {k}")
    out: list[SetPartition] = []

    def grow(a: int, blocks: list[list[int]]) -> None:
        if a > k:
            out.append(SetPartition.of(k, [tuple(b) for b in blocks]))
            return
        for b in blocks:
            b.append(a)
            grow(a + 1, blocks)
            b.pop()
        blocks.append([a])
        grow(a + 1, blocks)
        blocks.pop()

    grow(1, [])
    return tuple(out)


def _require_same_ground(a: SetPartition, b: SetPartition) -> None:
    if a.ground_size != b.ground_size:
        raise DimensionError(f"ground sizes differ: {a.ground_size} vs {b.ground_size}")


def _connected_groups(size: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected groups of [1..size] under the links, by union-find."""
    parent = list(range(size + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in links:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
    groups: dict[int, list[int]] = {}
    for x in range(1, size + 1):
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def join(a: SetPartition, b: SetPartition) -> SetPartition:
    """Smallest common coarsening: the groups linked by both block systems."""
    _require_same_ground(a, b)
    links = [(block[0], x) for part in (a, b) for block in part.blocks for x in block[1:]]
    return SetPartition.of(a.ground_size, _connected_groups(a.ground_size, links))


def refines(a: SetPartition, b: SetPartition) -> bool:
    """True iff every block of a lies inside some block of b."""
    _require_same_ground(a, b)
    ib = b.block_index()
    return all(len({ib[x - 1] for x in block}) == 1 for block in a.blocks)


def mobius(c: SetPartition, b: SetPartition) -> int:
    """Mobius function of the partition lattice between c <= b.

    Equals the product over blocks of b of (-1)^(s-1) (s-1)! where s is the
    number of c-blocks inside that b-block.
    """
    if not refines(c, b):
        raise OrderViolationError(f"{c} does not refine {b}")
    ib = b.block_index()
    counts = [0] * b.num_blocks
    for block in c.blocks:
        counts[ib[block[0] - 1]] += 1
    value = 1
    for s in counts:
        factor = 1
        for i in range(1, s):
            factor *= -i
        value *= factor
    return value


@dataclass(frozen=True)
class Permutation:
    """A permutation of [k], stored as the tuple of images of 1..k."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of [{len(self.images)}]: {self.images}")

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(tuple(range(1, k + 1)))

    @classmethod
    def from_cycles(cls, k: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(1, k + 1))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + type(cycle)([cycle[0]])):
                images[a - 1] = b
        return cls(tuple(images))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, a: int) -> int:
        return self.images[a - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self * other)(x) = self(other(x))."""
        if other.size != self.size:
            raise DimensionError("permutation sizes differ")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for a, b in enumerate(self.images, start=1):
            inv[b - 1] = a
        return Permutation(tuple(inv))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        return _cycles_of(self)

    def cycle_type(self) -> CycleType:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    @property
    def num_cycles(self) -> int:
        return len(self.cycles())


@lru_cache(maxsize=65536)
def _cycles_of(perm: Permutation) -> tuple[tuple[int, ...], ...]:
    """Cycle decomposition, each cycle starting at its least element."""
    seen = [False] * perm.size
    cycles: list[tuple[int, ...]] = []
    for start in range(1, perm.size + 1):
        if seen[start - 1]:
            continue
        cycle = [start]
        seen[start - 1] = True
        x = perm(start)
        while x != start:
            cycle.append(x)
            seen[x - 1] = True
            x = perm(x)
        cycles.append(tuple(cycle))
    return tuple(cycles)


def cycle_partition(perm: Permutation) -> SetPartition:
    """The partition of [k] whose blocks are the orbits of the permutation."""
    return SetPartition.of(perm.size, perm.cycles())


@lru_cache(maxsize=None)
def all_permutations(k: int) -> tuple[Permutation, ...]:
    """S_k in lexicographic order of image tuples (k! elements)."""
    if not 1 <= k <= 8:
        raise SizeLimitError(f"S_k enumeration limited to k <= 8, got {k}")
    return tuple(Permutation(p) for p in itertools.permutations(range(1, k + 1)))


@lru_cache(maxsize=None)
def pair_orbits(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Orbits of the pairs (alpha, beta) in S_k x S_k under simultaneous conjugation.

    g in S_k sends (alpha, beta) to (g alpha g^-1, g beta g^-1): it relabels
    the ground set by g in both.  Each orbit is a tuple of index pairs (i, j)
    into `all_permutations(k)`, led by its first pair in row-major order, and
    the orbits come in the order of their leaders.  k = 1..4 gives 1, 4, 11
    and 43 orbits of the 1, 4, 36 and 576 pairs.
    """
    perms = [p.images for p in all_permutations(k)]
    index = {images: i for i, images in enumerate(perms)}

    def conjugate(g: tuple[int, ...], a: tuple[int, ...]) -> int:
        # g a g^-1 sends g(x) to g(a(x))
        out = [0] * k
        for x, y in zip(g, a):
            out[x - 1] = g[y - 1]
        return index[tuple(out)]

    seen: set[tuple[int, int]] = set()
    orbits = []
    for i, alpha in enumerate(perms):
        for j, beta in enumerate(perms):
            if (i, j) not in seen:
                orbit = dict.fromkeys((conjugate(g, alpha), conjugate(g, beta)) for g in perms)
                seen.update(orbit)
                orbits.append(tuple(orbit))
    return tuple(orbits)


def bar(a: int, k: int) -> int:
    """The fixed [2k] encoding of the barred copy: a <-> k + a."""
    return a + k if a <= k else a - k


@dataclass(frozen=True)
class Pairing:
    """A fixed-point-free involution of [2k], stored as the partner array."""

    partner: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.partner)
        if m % 2 != 0:
            raise ValueError("pairing needs an even ground set")
        for a in range(1, m + 1):
            b = self.partner[a - 1]
            if not 1 <= b <= m or b == a or self.partner[b - 1] != a:
                raise ValueError(f"not a fixed-point-free involution: {self.partner}")

    @classmethod
    def from_pairs(cls, size: int, pairs: Iterable[tuple[int, int]]) -> "Pairing":
        partner = [0] * size
        for a, b in pairs:
            partner[a - 1] = b
            partner[b - 1] = a
        return cls(tuple(partner))

    @property
    def size(self) -> int:
        return len(self.partner)

    def partner_of(self, a: int) -> int:
        return self.partner[a - 1]

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((a, self.partner[a - 1]) for a in range(1, self.size + 1) if a < self.partner[a - 1])

    def as_partition(self) -> SetPartition:
        return SetPartition.of(self.size, self.pairs())


def gamma_pairing(k: int) -> Pairing:
    """The reference pairing matching a with its barred copy k + a."""
    return Pairing.from_pairs(2 * k, [(a, k + a) for a in range(1, k + 1)])


def perm_pairing(perm: Permutation) -> Pairing:
    """The bipartite pairing of [2k] matching i with the bar of perm(i)."""
    k = perm.size
    return Pairing.from_pairs(2 * k, [(i, k + perm(i)) for i in range(1, k + 1)])


def loop_type(p1: Pairing, p2: Pairing) -> CycleType:
    """Half-lengths of the loops of the union of two pairings, a partition of k.

    Sorted in decreasing order, like `Permutation.cycle_type`; its number of
    parts is the number of loops, the connected components of the union
    multigraph.  For bipartite pairings it is the cycle type of b a^-1, and
    on all pairings it indexes the double cosets H_k \\ S_2k / H_k.
    """
    if p1.size != p2.size:
        raise DimensionError(f"pairing sizes differ: {p1.size} vs {p2.size}")
    a, b = p1.partner, p2.partner
    seen = [False] * (p1.size + 1)
    halves = []
    for start in range(1, p1.size + 1):
        if seen[start]:
            continue
        # walk the loop by alternate p1- and p2-edges, two vertices a step
        length, x = 0, start
        while not seen[x]:
            y = a[x - 1]
            seen[x] = seen[y] = True
            x = b[y - 1]
            length += 1
        halves.append(length)
    return tuple(sorted(halves, reverse=True))


@lru_cache(maxsize=None)
def enumerate_pairings(two_k: int) -> tuple[Pairing, ...]:
    """All (2k-1)!! pairings of [2k]; guarded at 2k <= 12."""
    if two_k % 2 != 0:
        raise ValueError(f"pairings need an even ground set, got {two_k}")
    if not 2 <= two_k <= MAX_PAIRING_GROUND:
        raise SizeLimitError(f"pairing enumeration limited to 2..{MAX_PAIRING_GROUND}, got {two_k}")
    out: list[Pairing] = []

    def grow(rest: tuple[int, ...], pairs: list[tuple[int, int]]) -> None:
        if not rest:
            out.append(Pairing.from_pairs(two_k, pairs))
            return
        a = rest[0]
        for i in range(1, len(rest)):
            pairs.append((a, rest[i]))
            grow(rest[1:i] + rest[i + 1:], pairs)
            pairs.pop()

    grow(tuple(range(1, two_k + 1)), [])
    return tuple(out)
