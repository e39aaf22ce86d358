"""Normalized Hochschild cochains of a finite-rank ring and the action of
low-complexity words on them.

Rings are given by integer structure constants on a basis whose element 0
is the unit.  A normalized cochain then vanishes whenever an argument is
basis element 0, so tables are stored on tuples of nonzero indices only,
making normalization a storage invariant.  Values are coordinate vectors,
the coefficients of a :class:`seqop.combinatorics.LinearCombination`.

The word action theta is one sum over the overlapping partitions of
:func:`seqop.combinatorics.fiber_covers`, the enumerator and coaction sign
that drive the cochain coaction and operad composition: each admissible
partition blows the word up, the blown-up word is evaluated through the
recursive cup/substitution evaluator, and the only extra sign is the
closed form d * sum(deg x_i) + C(d + 1, 2) for a word of degree d.
Together with the cup product and braces this is everything the
complexity-two suboperad does to Hochschild cochains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .combinatorics import InputError, LinearCombination, complexity, epsilon_parity, fiber_covers, is_int, is_int_list
from .operad import OperadElement


class RingError(ValueError):
    """The structure constants do not describe a unital associative ring."""


@dataclass(frozen=True)
class FiniteRing:
    """An associative unital ring, free of finite rank over the integers.

    ``table[i][j]`` holds the coordinates of e_i * e_j.  Basis element 0
    must be the unit; this is what lets normalized cochain tables live on
    nonzero indices only.
    """

    rank: int
    names: tuple[str, ...]
    table: tuple

    def __post_init__(self):
        if self.rank < 1:
            raise InputError(f"a ring needs rank >= 1, got {self.rank}")
        if len(self.names) != self.rank or len(self.table) != self.rank:
            raise InputError("rank, names and table sizes disagree")
        for row in self.table:
            if len(row) != self.rank or any(len(v) != self.rank for v in row):
                raise InputError("structure table must be rank x rank x rank")
        unit = self.basis_vector(0)
        for i in range(self.rank):
            e = self.basis_vector(i)
            if self.mul(unit, e) != e or self.mul(e, unit) != e:
                raise RingError("basis element 0 must be a two-sided unit")
        for i in range(self.rank):
            for j in range(self.rank):
                for l in range(self.rank):
                    left = self.mul(self.table[i][j], self.basis_vector(l))
                    right = self.mul(self.basis_vector(i), self.table[j][l])
                    if left != right:
                        raise RingError(f"multiplication not associative at ({i}, {j}, {l})")

    def basis_vector(self, i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    @property
    def unit(self) -> tuple[int, ...]:
        return self.basis_vector(0)

    def mul(self, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
        acc = [0] * self.rank
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                for l, c in enumerate(self.table[i][j]):
                    if c:
                        acc[l] += ui * vj * c
        return tuple(acc)

    def add(self, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
        return tuple(a + b for a, b in zip(u, v))

    def scale(self, s: int, u: Sequence[int]) -> tuple[int, ...]:
        return tuple(s * a for a in u)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "names": list(self.names),
            "unit": list(self.unit),
            "table": [[list(v) for v in row] for row in self.table],
        }

    @classmethod
    def from_json(cls, data) -> "FiniteRing":
        """Parse ``{"rank": r, "names": [...], "unit": [1, 0, ...], "table": [...]}``.

        A malformed value raises InputError; a table that is not a unital
        associative ring with unit e_0 raises RingError.
        """
        if not isinstance(data, dict) or not is_int(data.get("rank")):
            raise InputError('a ring needs an integer "rank"')
        rank, table, unit = data["rank"], data.get("table"), data.get("unit")
        if not isinstance(table, list) or not all(isinstance(row, list) and all(is_int_list(v) for v in row) for row in table):
            raise InputError('a ring needs a "table" of rows of integer lists')
        if unit is not None and not (is_int_list(unit) and len(unit) == rank and unit[:1] == [1] and not any(unit[1:])):
            raise InputError(f'the ring "unit" must be basis element 0: 1 then zeros, {rank} entries in all')
        # default names follow the table, so a huge "rank" costs nothing before the size check
        names = data.get("names", [f"e{i}" for i in range(len(table))])
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise InputError('ring "names" must be a list of strings')
        return cls(rank, tuple(names), tuple(tuple(tuple(v) for v in row) for row in table))


def dual_numbers() -> FiniteRing:
    """Z[x]/(x^2): basis (1, x)."""
    one, x, zero = (1, 0), (0, 1), (0, 0)
    return FiniteRing(2, ("1", "x"), ((one, x), (x, zero)))


def upper_triangular() -> FiniteRing:
    """2x2 upper-triangular integer matrices: basis (1, E12, E22)."""
    one, a, b, zero = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    table = (
        (one, a, b),
        (a, zero, a),
        (b, zero, b),
    )
    return FiniteRing(3, ("1", "E12", "E22"), table)


def group_ring_c2() -> FiniteRing:
    """The integral group ring of the order-2 group: basis (1, g), g^2 = 1."""
    one, g = (1, 0), (0, 1)
    return FiniteRing(2, ("1", "g"), ((one, g), (g, one)))


SHIPPED_RINGS = {
    "dual-numbers": dual_numbers,
    "upper-triangular": upper_triangular,
    "group-ring-c2": group_ring_c2,
}


class HochschildCochain(LinearCombination):
    """A normalized multilinear cochain, stored on nonzero basis indices.

    ``coeffs`` maps degree-long tuples of indices in {1..rank-1} to
    coordinate vectors; absent keys are zero.  Degree 0 cochains are ring
    elements under the single key ().
    """

    __slots__ = ("ring", "degree")

    def _check_key(self, key):
        if len(key) != self.degree:
            raise InputError(f"key {key} does not have degree {self.degree}")
        if any(not 1 <= t < self.ring.rank for t in key):
            raise InputError(f"key {key} must use nonzero basis indices 1..{self.ring.rank - 1}")

    def _add(self, u, v):
        return self.ring.add(u, v)

    def _scale(self, s, u):
        return self.ring.scale(s, u)

    def _vanishes(self, u):
        return not any(u)

    def value(self, key: Sequence[int]) -> tuple[int, ...]:
        return self.coeffs.get(tuple(key), self.ring.zero)

    def eval_vectors(self, vectors: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """Multilinear evaluation on ring elements; unit components die."""
        acc = list(self.ring.zero)
        for key, val in self.coeffs.items():
            coeff = 1
            for t, vec in zip(key, vectors):
                coeff *= vec[t]
                if not coeff:
                    break
            if coeff:
                for l, c in enumerate(val):
                    acc[l] += coeff * c
        return tuple(acc)

    def __repr__(self):
        return f"HochschildCochain(deg={self.degree}, {len(self.coeffs)} entries)"

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "values": [
                {"args": list(k), "value": list(v)} for k, v in sorted(self.coeffs.items())
            ],
        }

    @classmethod
    def from_json(cls, ring: FiniteRing, data) -> "HochschildCochain":
        """Parse ``{"degree": p, "values": [{"args": [...], "value": [...]}]}`` over ``ring``;
        InputError if malformed."""
        if not isinstance(data, dict) or not is_int(data.get("degree")) or data["degree"] < 0:
            raise InputError('a Hochschild cochain needs a nonnegative integer "degree"')
        values = data.get("values", [])
        if not isinstance(values, list):
            raise InputError('Hochschild cochain "values" must be a list')
        table = {}
        for item in values:
            if not isinstance(item, dict) or not is_int_list(item.get("args")) or not is_int_list(item.get("value")):
                raise InputError(f'Hochschild cochain value {item!r} needs integer lists "args" and "value"')
            if len(item["value"]) != ring.rank:
                raise InputError(f'Hochschild cochain value {item["value"]} must have length {ring.rank}')
            key = tuple(item["args"])
            if key in table:
                raise InputError(f'Hochschild cochain has two values on args {item["args"]}')
            table[key] = tuple(item["value"])
        return cls(ring, data["degree"], table)


def identity_cochain(ring: FiniteRing) -> HochschildCochain:
    """The identity map of the ring, as a degree-1 table on nonzero indices.

    Not normalized as a map (it fixes the unit), but it is only ever fed
    nonzero basis arguments, where the table below is all there is to it.
    """
    return HochschildCochain(ring, 1, {(t,): ring.basis_vector(t) for t in range(1, ring.rank)})


def _keys(ring: FiniteRing, degree: int):
    return itertools.product(range(1, ring.rank), repeat=degree)


def hochschild_d(x: HochschildCochain) -> HochschildCochain:
    """The alternating coboundary: outer multiplications at the ends,
    adjacent products with sign (-1)^i in the middle, (-1)^{p+1} at the far
    end.  Output tables stay normalized because input tables are.
    """
    ring = x.ring
    p = x.degree
    if p < 0:
        return HochschildCochain(ring, p + 1, {})
    acc: dict = {}
    for key in _keys(ring, p + 1):
        total = ring.mul(ring.basis_vector(key[0]), x.value(key[1:]))
        for i in range(1, p + 1):
            prod = ring.table[key[i - 1]][key[i]]
            inner = list(ring.zero)
            for l in range(1, ring.rank):
                if prod[l]:
                    val = x.value(key[: i - 1] + (l,) + key[i + 1 :])
                    inner = [a + prod[l] * b for a, b in zip(inner, val)]
            total = ring.add(total, ring.scale(-1 if i % 2 else 1, inner))
        last = ring.mul(x.value(key[:p]), ring.basis_vector(key[p]))
        total = ring.add(total, ring.scale(-1 if p % 2 == 0 else 1, last))
        if any(total):
            acc[key] = total
    return HochschildCochain(ring, p + 1, acc)


def cup(x: HochschildCochain, y: HochschildCochain) -> HochschildCochain:
    """Pointwise product on split arguments."""
    if x.ring != y.ring:
        raise ValueError("cochains over different rings")
    ring = x.ring
    acc: dict = {}
    for kx, vx in x.coeffs.items():
        for ky, vy in y.coeffs.items():
            val = ring.mul(vx, vy)
            if any(val):
                key = kx + ky
                acc[key] = ring.add(acc.get(key, ring.zero), val)
    return HochschildCochain(ring, x.degree + y.degree, acc)


def brace(x: HochschildCochain, args: Sequence[HochschildCochain]) -> HochschildCochain:
    """Substitution composite: args fill the slots of x in order.

    Requires one argument per slot (len(args) == degree of x); the result
    has degree equal to the sum of the argument degrees.
    """
    ring = x.ring
    if len(args) != x.degree:
        raise ValueError(f"brace needs {x.degree} arguments, got {len(args)}")
    if any(y.ring != ring for y in args):
        raise ValueError("cochains over different rings")
    out_degree = sum(y.degree for y in args)
    acc: dict = {}
    for key in _keys(ring, out_degree):
        vectors = []
        pos = 0
        for y in args:
            vectors.append(y.value(key[pos : pos + y.degree]))
            pos += y.degree
        val = x.eval_vectors(vectors)
        if any(val):
            acc[key] = val
    return HochschildCochain(ring, out_degree, acc)


# ---------------------------------------------------------------------------
# The recursive evaluator and the word action.
# ---------------------------------------------------------------------------


def _maximal_segments(word: tuple[int, ...]) -> list[tuple[int, int]]:
    """Maximal index intervals whose endpoints carry the same value.

    Complexity <= 2 makes the first/last-occurrence spans of the values
    nested or disjoint, so the maximal spans are the answer.
    """
    spans = {}
    for pos, v in enumerate(word):
        lo, hi = spans.get(v, (pos, pos))
        spans[v] = (min(lo, pos), max(hi, pos))
    out = []
    for lo, hi in sorted(spans.values()):
        if not out or lo > out[-1][1]:
            out.append((lo, hi))
        elif hi > out[-1][1]:
            raise ValueError(f"{word} has overlapping value spans: complexity > 2")
    return out


def _eval_word(word: tuple[int, ...], cochains, ring) -> HochschildCochain:
    """The cup/substitution evaluation of a complexity <= 2 word whose value i
    occurs degree(x_i) + 1 times.  Empty word: the identity cochain.  One
    maximal segment: the gap evaluations substituted into the endpoint
    cochain.  Several: their cup product in order.
    """
    if not word:
        return identity_cochain(ring)
    if len(word) == 1:
        return cochains[word[0] - 1]
    segments = _maximal_segments(word)
    if len(segments) > 1:
        out = None
        for lo, hi in segments:
            piece = _eval_word(word[lo : hi + 1], cochains, ring)
            out = piece if out is None else cup(out, piece)
        return out
    i = word[0]
    slots = [pos for pos, v in enumerate(word) if v == i]
    gaps = [word[a + 1 : b] for a, b in zip(slots, slots[1:])]
    return brace(cochains[i - 1], [_eval_word(gap, cochains, ring) for gap in gaps])


def theta(e: OperadElement, cochains: Sequence[HochschildCochain]) -> HochschildCochain:
    """The action of a complexity <= 2 element on Hochschild cochains.

    One sum over overlapping partitions, the sum behind the cochain
    coaction and operad composition.  Take a word f of arity k with m
    entries, degree d = m - k and output degree N = sum(deg x_i) - d.  Each
    partition of ``fiber_covers(f, N + 1)`` contributes its blown-up word
    (entry j repeated sizes[j] times: the concatenated covers) when each
    value i occurs deg x_i + 1 times in it, evaluated by the
    cup/substitution recursion, with sign
    (-1)^(epsilon + d * sum(deg x_i) + d(d+1)/2), where epsilon is the
    coaction parity of f against the sizes.

    The last term is a closed form.  With r_i = |f^-1(i)| - 1, so that
    sum(r_i) = d, the sign collects the number sum_i C(r_i + 1, 2) of
    position pairs on which f repeats a value and the Koszul term
    sum_{i<j} r_i r_j of moving the fibers past each other; the two add up
    to C(d + 1, 2) for every word.  The axioms (chain map, composition,
    equivariance) are enforced by the test suite and A8, not assumed.
    """
    if len(cochains) != e.arity:
        raise ValueError(f"need {e.arity} cochains, got {len(cochains)}")
    if not cochains:
        raise ValueError("the action needs at least one cochain to name the ring")
    ring = cochains[0].ring
    if any(x.ring != ring for x in cochains):
        raise ValueError("cochains over different rings")
    for f, _ in e.items():
        if complexity(f.entries, f.arity) > 2:
            raise ValueError(f"{f} has complexity > 2")
    degrees = [x.degree for x in cochains]
    d = e.degree
    out_degree = sum(degrees) - d
    result = HochschildCochain(ring, out_degree, {})
    if out_degree < 0:
        return result
    base = d * sum(degrees) + d * (d + 1) // 2
    for f, coeff in e.items():
        for sizes, covers in fiber_covers(f.entries, out_degree + 1):
            word = tuple(itertools.chain.from_iterable(covers))
            if any(word.count(i) != p + 1 for i, p in enumerate(degrees, start=1)):
                continue
            sign = -coeff if (epsilon_parity(f.entries, sizes) + base) % 2 else coeff
            result = result + sign * _eval_word(word, cochains, ring)
    return result
