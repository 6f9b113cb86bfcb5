"""The orthogonal double-coset representative built in S_2k: the tests' reference.

The closed orthogonal route needs sigma(alpha, beta, eps), the double-coset
representative of t_{alpha^-1} tau_eps t_beta in H_k \\ S_2k / H_k (Collins
and Sniady, CMP 264, 2006).  `haartrace.cumulants._sigma_blocks` reads its
cycles straight off (alpha, beta, eps).  This module builds the three
permutations of [2k], multiplies them and walks the loops of the product's
pairing with gamma, so the tests can check the short route against the
definition.  The barred copy of a is k + a, as in `haartrace.combinatorics`.
"""
import functools
import itertools

from haartrace.combinatorics import Pairing, Permutation, all_permutations


def bar(a, k):
    """The fixed [2k] encoding of the barred copy: a <-> k + a."""
    return a + k if a <= k else a - k


def eta(g):
    """The pairing matching g(i) with g(bar i) for each i <= k."""
    if g.size % 2 != 0:
        raise ValueError("eta needs a permutation of an even ground set")
    k = g.size // 2
    return Pairing.from_pairs(g.size, [(g(i), g(k + i)) for i in range(1, k + 1)])


def t_of_perm(pi):
    """Embedding of S_k into S_2k acting only on the barred copy."""
    k = pi.size
    return Permutation(tuple(range(1, k + 1)) + tuple(k + pi(i) for i in range(1, k + 1)))


def tau_of_signs(eps):
    """Product of the transpositions (i, bar i) at the -1 coordinates."""
    k = len(eps)
    if any(e not in (-1, 1) for e in eps):
        raise ValueError("sign vector entries must be +1 or -1")
    images = list(range(1, 2 * k + 1))
    for idx, e in enumerate(eps, start=1):
        if e == -1:
            images[idx - 1], images[k + idx - 1] = k + idx, idx
    return Permutation(tuple(images))


def sigma_of(big_sigma):
    """The S_k coset representative of a permutation of [2k].

    Walks each loop of the union graph of eta(big_sigma) and the reference
    pairing gamma, starting at the smallest barred element and alternating
    gamma- and eta-edges; the visited pair labels, in order, form one cycle
    of the result, so t_sigma ~ big_sigma in H_k \\ S_2k / H_k.
    """
    if big_sigma.size % 2 != 0:
        raise ValueError("sigma extraction needs a permutation of an even ground set")
    k = big_sigma.size // 2
    partner = eta(big_sigma).partner
    seen = [False] * (k + 1)
    images = list(range(1, k + 1))
    for start_label in range(1, k + 1):
        if seen[start_label]:
            continue
        v1 = k + start_label  # smallest barred element of this component
        labels = [start_label]
        seen[start_label] = True
        cur = partner[start_label - 1]
        while cur != v1:
            label = cur if cur <= k else cur - k
            labels.append(label)
            seen[label] = True
            cur = partner[bar(cur, k) - 1]
        for a, b in zip(labels, labels[1:] + labels[:1]):
            images[a - 1] = b
    return Permutation(tuple(images))


def sigma_triple(alpha, beta, eps):
    """sigma of t_{alpha^-1} tau_eps t_beta, built as a product in S_2k."""
    return sigma_of(t_of_perm(alpha.inverse()) * tau_of_signs(eps) * t_of_perm(beta))


@functools.lru_cache(maxsize=None)
def hyperoctahedral_group(k):
    """The centralizer H_k of the pairing gamma in S_2k (2^k k! elements).

    Elements permute the gamma-pairs and optionally flip within each pair.
    """
    out = []
    for rho in all_permutations(k):
        for flips in itertools.product((1, -1), repeat=k):
            images = [0] * (2 * k)
            for i in range(1, k + 1):
                target = rho(i) if flips[i - 1] == 1 else k + rho(i)
                images[i - 1] = target
                images[k + i - 1] = bar(target, k)
            out.append(Permutation(tuple(images)))
    return tuple(out)
