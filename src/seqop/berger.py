"""The complexity poset operad and its contractible word subcomplexes.

An element of the poset in arity k is a pair (b, T): a nonnegative weight
on every two-element subset of {1..k} together with a total order of
{1..k}.  Every surjection word f has an invariant (b_f, T_f) - pairwise
alternation counts and order of first occurrence - and the words below a
fixed (b, T) span a subcomplex of the word complex that is contractible,
which is what the homology engine verifies at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .combinatorics import InputError, Surjection, check_permutation, is_int, is_int_list, pair_runs, perm_inverse, word_bases
from .homology import GradedComplex, complex_from_word_basis


def _pair_index(k: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(1, k + 1), 2))


@dataclass(frozen=True)
class PosetElement:
    """A pair (b, T): pair weights plus a total order, stored as the
    weight tuple over lexicographic pairs and the order's listing."""

    k: int
    weights: tuple[int, ...]
    order: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) != len(_pair_index(self.k)):
            raise InputError(f"need one weight per 2-subset of 1..{self.k}")
        if any(w < 0 for w in self.weights):
            raise InputError(f"weights must be nonnegative, got {list(self.weights)}")
        check_permutation(self.order, self.k, f"order {list(self.order)}")

    def weight(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("weights live on two-element subsets")
        i, j = min(i, j), max(i, j)
        return self.weights[_pair_index(self.k).index((i, j))]

    def position(self, i: int) -> int:
        """Rank of i in the total order (0 = smallest)."""
        return self.order.index(i)

    def before(self, i: int, j: int) -> bool:
        return self.position(i) < self.position(j)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "b": [
                {"pair": [i, j], "val": v}
                for (i, j), v in zip(_pair_index(self.k), self.weights)
            ],
            "order": list(self.order),
        }

    @classmethod
    def from_json(cls, data) -> "PosetElement":
        """Parse ``{"k": k, "b": [{"pair": [i, j], "val": v}], "order": [...]}``;
        InputError if malformed.  Pairs left out weigh 0."""
        if not isinstance(data, dict) or not is_int(data.get("k")) or data["k"] < 0:
            raise InputError('a poset element needs a nonnegative integer "k"')
        k, b, order = data["k"], data.get("b"), data.get("order")
        if not isinstance(b, list) or not is_int_list(order):
            raise InputError('a poset element needs a list "b" and an integer-list "order"')
        check_permutation(order, k, f"order {order}")  # bounds k before the weights are sized by it
        vals = {}
        for item in b:
            if not isinstance(item, dict) or not is_int(item.get("val")):
                raise InputError(f'poset weight {item!r} needs a "pair" and an integer "val"')
            pair = item.get("pair")
            if not is_int_list(pair) or len(pair) != 2 or pair[0] == pair[1] or not all(1 <= v <= k for v in pair):
                raise InputError(f"poset pair {pair!r} is not a 2-subset of 1..{k}")
            key = tuple(sorted(pair))
            if key in vals:
                raise InputError(f"poset pair {pair!r} has two weights")
            vals[key] = item["val"]
        return cls(k, tuple(vals.get(p, 0) for p in _pair_index(k)), tuple(order))


def leq(x: PosetElement, y: PosetElement) -> bool:
    """The partial order: componentwise <=, strict on every pair whose
    relative order differs between the two total orders."""
    if x.k != y.k:
        raise ValueError("poset elements of different arity are incomparable")
    for (i, j), wx, wy in zip(_pair_index(x.k), x.weights, y.weights):
        if wx > wy:
            return False
        if wx == wy and x.before(i, j) != y.before(i, j):
            return False
    return True


def poset_act(x: PosetElement, rho: Sequence[int]) -> PosetElement:
    """Right action: weights pull back along rho, order by rho-images."""
    check_permutation(rho, x.k, rho)
    rinv = perm_inverse(rho)
    weights = tuple(x.weight(rho[i - 1], rho[j - 1]) for i, j in _pair_index(x.k))
    order = tuple(rinv[t - 1] for t in x.order)
    return PosetElement(x.k, weights, order)


def poset_compose(x: PosetElement, inner: Sequence[PosetElement]) -> PosetElement:
    """Operad composition: within a block the inner data rules, across
    blocks the outer weight and the outer order of the block labels."""
    if len(inner) != x.k:
        raise ValueError(f"need {x.k} inner elements, got {len(inner)}")
    arities = [y.k for y in inner]
    offsets = [0]
    for a in arities[:-1]:
        offsets.append(offsets[-1] + a)
    total = sum(arities)
    block = {}
    for i, (off, a) in enumerate(zip(offsets, arities), start=1):
        for r in range(1, a + 1):
            block[off + r] = i
    weights = []
    for r, s in _pair_index(total):
        i, j = block[r], block[s]
        if i == j:
            weights.append(inner[i - 1].weight(r - offsets[i - 1], s - offsets[i - 1]))
        else:
            weights.append(x.weight(i, j))
    order = []
    for i in x.order:
        order.extend(offsets[i - 1] + t for t in inner[i - 1].order)
    return PosetElement(total, tuple(weights), tuple(order))


def enumerate_poset(k: int, n: int) -> list[PosetElement]:
    """All poset elements of arity k with every weight < n."""
    if n < 1:
        return []
    out = []
    npairs = len(_pair_index(k))
    for weights in itertools.product(range(n), repeat=npairs):
        for order in itertools.permutations(range(1, k + 1)):
            out.append(PosetElement(k, weights, order))
    return out


@lru_cache(maxsize=None)
def invariant_of(f: Surjection) -> PosetElement:
    """The invariant (b_f, T_f) of a word: per pair {i, j}, one less than
    the complexity of the restriction to that pair (the run count minus
    two), and the values ordered by first occurrence."""
    weights = tuple(runs - 2 for runs in pair_runs(f.entries, f.arity))
    order = sorted(range(1, f.arity + 1), key=f.entries.index)
    return PosetElement(f.arity, weights, tuple(order))


def subcomplex_basis(bt: PosetElement, max_degree: int) -> GradedComplex:
    """The subcomplex of words whose invariant lies below (b, T).

    The enumeration is cut at b_ij + 2 runs on each pair, the weight bound
    of ``leq``; ``leq`` itself then only decides the order clause on pairs
    at their bound.  Closure under the differential is validated while
    assembling; a boundary term escaping the basis raises a
    ChainComplexError.
    """
    caps = [w + 2 for w in bt.weights]
    bases = {
        d: [f for f in words if leq(invariant_of(f), bt)]
        for d, words in word_bases(bt.k, max_degree, run_caps=caps).items()
    }
    return complex_from_word_basis(bases)

