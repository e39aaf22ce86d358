"""Surjection words, overlapping partitions, composition diagrams and signs.

This module is the pure combinatorial substrate of the package.  A
*surjection word* is a finite sequence ``(u_1, ..., u_m)`` with entries in
``{1..k}`` hitting every value, read as a map ``{1..m} -> {1..k}``; it is
*nondegenerate* when no two adjacent entries are equal.  Words are stored
1-indexed.  Ground sets of overlapping partitions are arbitrary ascending
integer tuples (typically ``{0..p}``, matching simplex vertices).

All sign computations are exposed both as parities (``*_parity``, integers
mod 2) and as signs in ``{+1, -1}``; internal code works with parities and
exponentiates once at the boundary.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence


class InvalidEntryError(ValueError):
    """An input sequence has entries outside the allowed range {1..k}."""


class _DegenerateMarker:
    """Semantic zero of the basis: degenerate or non-surjective word.

    Distinct from an input error: a degenerate word is a legal value that
    represents 0, while an out-of-range entry raises InvalidEntryError.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DEGENERATE"

    def __bool__(self):
        return False


DEGENERATE = _DegenerateMarker()


def is_surjective(entries: Sequence[int], arity: int) -> bool:
    return len(set(entries)) == arity


def is_nondegenerate(entries: Sequence[int]) -> bool:
    """True when no two adjacent entries are equal."""
    return all(a != b for a, b in zip(entries, entries[1:]))


@dataclass(frozen=True, order=True)
class Surjection:
    """A nondegenerate surjection word: the canonical basis element.

    ``arity`` is ``k`` and ``entries`` the word ``(u_1, ..., u_m)``.  The
    homological degree is ``m - k``.  Use :func:`validate` to construct
    from untrusted data; the constructor itself rejects anything that is
    not surjective and nondegenerate.

    >>> Surjection(2, (1, 2, 1, 2)).degree
    2
    """

    arity: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 0:
            raise InvalidEntryError(f"arity must be >= 0, got {self.arity}")
        for u in self.entries:
            if not 1 <= u <= self.arity:
                raise InvalidEntryError(f"entry {u} outside 1..{self.arity}")
        if not is_surjective(self.entries, self.arity):
            raise InvalidEntryError(f"{self.entries} is not surjective onto 1..{self.arity}")
        if not is_nondegenerate(self.entries):
            raise InvalidEntryError(f"{self.entries} has equal adjacent entries")

    @property
    def degree(self) -> int:
        return len(self.entries) - self.arity

    @property
    def length(self) -> int:
        return len(self.entries)

    def fiber(self, value: int) -> tuple[int, ...]:
        """The positions (1-indexed, ascending) mapping to ``value``."""
        return tuple(j + 1 for j, u in enumerate(self.entries) if u == value)

    def restrict(self, positions: Iterable[int]) -> tuple[int, ...]:
        return restrict(self.entries, positions)

    def to_json(self) -> dict:
        return {"arity": self.arity, "seq": list(self.entries)}

    def __repr__(self):
        return f"<{''.join(map(str, self.entries)) or 'empty'}>"


def validate(entries: Sequence[int], arity: int):
    """Classify a word: a Surjection, or DEGENERATE (the semantic zero).

    Entries outside {1..arity} raise InvalidEntryError; a word that is
    merely non-surjective or has adjacent equal entries returns
    ``DEGENERATE``, which downstream code treats as 0.

    >>> validate((1, 2, 1, 2), 2)
    <1212>
    >>> validate((1, 1, 2), 2)
    DEGENERATE
    """
    entries = tuple(entries)
    if arity < 0:
        raise InvalidEntryError(f"arity must be >= 0, got {arity}")
    for u in entries:
        if not 1 <= u <= arity:
            raise InvalidEntryError(f"entry {u} outside 1..{arity}")
    if not is_surjective(entries, arity) or not is_nondegenerate(entries):
        return DEGENERATE
    return Surjection(arity, entries)


def tau(entries: Sequence[int]) -> tuple[int, ...]:
    """The position-ranking permutation of a word.

    ``tau[j]`` counts the positions ``j'`` whose value is smaller than the
    one at ``j``, or equal to it with ``j' <= j``.  It is a permutation of
    ``{1..m}``, order-preserving on each fiber.

    >>> tau((1, 2, 3, 1, 2))
    (1, 3, 5, 2, 4)
    >>> tau((2, 1))
    (2, 1)
    """
    counts = Counter(entries)
    below = {}
    total = 0
    for v in sorted(counts):
        below[v] = total
        total += counts[v]
    seen: Counter = Counter()
    out = []
    for u in entries:
        seen[u] += 1
        out.append(below[u] + seen[u])
    return tuple(out)


def restrict(entries: Sequence[int], positions: Iterable[int]) -> tuple[int, ...]:
    """The subword at the given 1-indexed positions, in increasing order.

    The result is re-read as a map from {1..|S|}; it may be degenerate or
    non-surjective, and the caller revalidates.
    """
    return tuple(entries[j - 1] for j in sorted(positions))


def boundary_terms(entries: Sequence[int], arity: int) -> list[tuple[int, tuple[int, ...]]]:
    """Signed single-position deletions of a word, skipping the zeros.

    Term ``j`` carries the sign ``(-1)**(tau[j] - entries[j])``; deletions
    that produce an adjacent-equal pair or lose a value are dropped.
    """
    t = tau(entries)
    counts = Counter(entries)
    out = []
    m = len(entries)
    for j in range(m):
        if 0 < j < m - 1 and entries[j - 1] == entries[j + 1]:
            continue
        if counts[entries[j]] == 1:
            continue
        sign = -1 if (t[j] - entries[j]) % 2 else 1
        out.append((sign, entries[:j] + entries[j + 1 :]))
    return out


def complexity(entries: Sequence[int], arity: int) -> int:
    """Alternation complexity of a word with entries in {1..arity}.

    0 when the codomain has at most one element; for two values, the
    number of maximal constant runs minus 1; in general the maximum over
    all two-element value sets of the complexity of the restriction.

    >>> complexity((1, 2), 2)
    1
    >>> complexity((1, 2, 1, 2), 2)
    3
    >>> complexity((1,), 1)
    0
    """
    if arity <= 1 or not entries:
        return 0
    best = 0
    for i, i2 in itertools.combinations(range(1, arity + 1), 2):
        runs = 0
        prev = 0
        for u in entries:
            if u == i or u == i2:
                if u != prev:
                    runs += 1
                prev = u
        if runs - 1 > best:
            best = runs - 1
    return best


def enumerate_basis(arity: int, degree: int, max_complexity: int | None = None) -> list[Surjection]:
    """All nondegenerate surjections of the given arity and degree.

    Deterministic lexicographic order on the underlying words.  With
    ``max_complexity`` set, keeps only words of complexity <= that bound.

    >>> enumerate_basis(2, 0)
    [<12>, <21>]
    >>> enumerate_basis(2, 1, max_complexity=2)
    [<121>, <212>]
    """
    if arity < 0 or degree < 0:
        raise ValueError("arity and degree must be nonnegative")
    out = []
    for w in _nondegenerate_words(arity, arity + degree):
        if max_complexity is not None and complexity(w, arity) > max_complexity:
            continue
        out.append(Surjection(arity, w))
    return out


def _nondegenerate_words(arity: int, length: int):
    """Yield surjective adjacent-distinct words in lexicographic order."""
    if arity == 0:
        if length == 0:
            yield ()
        return
    if length < arity:
        return

    word = [0] * length

    def rec(pos: int, used: int):
        missing = arity - bin(used).count("1")
        if missing > length - pos:
            return
        if pos == length:
            yield tuple(word)
            return
        prev = word[pos - 1] if pos else 0
        for v in range(1, arity + 1):
            if v == prev:
                continue
            word[pos] = v
            yield from rec(pos + 1, used | (1 << v))

    yield from rec(0, 0)


# ---------------------------------------------------------------------------
# Overlapping partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlappingPartition:
    """Consecutive pieces covering an ordered ground set, adjacent pieces
    sharing exactly one element (the overlap point).

    ``ground`` is an ascending integer tuple and ``pieces`` a tuple of
    ascending tuples.  The partition is determined by its m-1 overlap
    points, which is how enumeration works.
    """

    ground: tuple[int, ...]
    pieces: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("an overlapping partition needs at least one piece")
        if list(self.ground) != sorted(set(self.ground)):
            raise ValueError("ground set must be strictly ascending")
        cover = []
        for j, piece in enumerate(self.pieces):
            if not piece:
                raise ValueError("pieces must be nonempty")
            cover.extend(piece)
            if j + 1 < len(self.pieces):
                shared = set(piece) & set(self.pieces[j + 1])
                if len(shared) != 1:
                    raise ValueError("adjacent pieces must share exactly one element")
                if piece[-1] != self.pieces[j + 1][0]:
                    raise ValueError("pieces must be weakly increasing blocks")
        if sorted(set(cover)) != list(self.ground):
            raise ValueError("pieces must cover the ground set")
        for a, b in zip(cover, cover[1:]):
            if b < a:
                raise ValueError("pieces must be weakly increasing blocks")

    @property
    def num_pieces(self) -> int:
        return len(self.pieces)

    @property
    def piece_sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.pieces)

    @property
    def overlap_points(self) -> tuple[int, ...]:
        return tuple(p[-1] for p in self.pieces[:-1])

    @classmethod
    def from_overlap_points(cls, ground: Sequence[int], points: Sequence[int]) -> "OverlappingPartition":
        ground = tuple(ground)
        index = {t: i for i, t in enumerate(ground)}
        cuts = [0] + [index[t] for t in points] + [len(ground) - 1]
        for a, b in zip(cuts, cuts[1:]):
            if b < a:
                raise ValueError("overlap points must be weakly increasing")
        pieces = tuple(ground[a : b + 1] for a, b in zip(cuts, cuts[1:]))
        return cls(ground, pieces)


def enumerate_partitions(ground: Iterable[int], num_pieces: int) -> list[OverlappingPartition]:
    """All overlapping partitions of ``ground`` with ``num_pieces`` pieces.

    There are C(|ground| + m - 2, m - 1) of them, one per weakly
    increasing (m-1)-tuple of overlap points.

    >>> [p.pieces for p in enumerate_partitions((0, 1), 2)]
    [((0,), (0, 1)), ((0, 1), (1,))]
    """
    ground = tuple(ground)
    if num_pieces <= 0:
        raise ValueError("number of pieces must be positive")
    if not ground:
        return []
    out = []
    for points in itertools.combinations_with_replacement(ground, num_pieces - 1):
        out.append(OverlappingPartition.from_overlap_points(ground, points))
    assert len(out) == comb(len(ground) + num_pieces - 2, num_pieces - 1)
    return out


def partition_size_compositions(ground_size: int, num_pieces: int):
    """Yield the piece-size tuples of partitions of a ground set of the
    given size, in the same order as :func:`enumerate_partitions`.

    Sizes are >= 1 and satisfy sum(sizes) = ground_size + num_pieces - 1.
    """
    if ground_size <= 0:
        return
    for points in itertools.combinations_with_replacement(range(ground_size), num_pieces - 1):
        cuts = (0,) + points + (ground_size - 1,)
        yield tuple(b - a + 1 for a, b in zip(cuts, cuts[1:]))


# ---------------------------------------------------------------------------
# Sign rules
# ---------------------------------------------------------------------------


def epsilon_parity(entries: Sequence[int], piece_sizes: Sequence[int]) -> int:
    """Parity of the coaction sign for a word against piece sizes.

    With ||A|| = |A| - 1, this is the mod-2 value of
    sum of ||A_j|| ||A_j'|| over inverted pairs (j < j', f(j) > f(j'))
    plus sum of ||A_j|| (tau[j] - f(j)).
    """
    if len(entries) != len(piece_sizes):
        raise ValueError("piece count must equal the word length")
    norms = [s - 1 for s in piece_sizes]
    t = tau(entries)
    acc = 0
    for j, j2 in itertools.combinations(range(len(entries)), 2):
        if entries[j] > entries[j2]:
            acc += norms[j] * norms[j2]
    for j in range(len(entries)):
        acc += norms[j] * (t[j] - entries[j])
    return acc % 2


def epsilon_sign(entries: Sequence[int], partition: OverlappingPartition) -> int:
    """The coaction sign in {+1, -1}.

    >>> epsilon_sign((1, 2, 1), OverlappingPartition((0, 1), ((0,), (0, 1), (1,))))
    -1
    """
    return -1 if epsilon_parity(entries, partition.piece_sizes) else 1


def koszul_parity(sigma: Sequence[int], degrees: Sequence[int]) -> int:
    """Koszul parity of rearranging graded items so slot a holds item sigma(a).

    ``sigma`` is in one-line notation on {1..k} and ``degrees[i - 1]`` is
    the degree of item i; sums degree(sigma(a)) degree(sigma(b)) over the
    slot pairs a < b that sigma inverts.

    >>> koszul_parity((2, 1), (1, 1))
    1
    """
    acc = 0
    for a, b in itertools.combinations(range(len(sigma)), 2):
        if sigma[a] > sigma[b]:
            acc += degrees[sigma[a] - 1] * degrees[sigma[b] - 1]
    return acc % 2


def zeta_parity(entries: Sequence[int], arity: int, rho: Sequence[int]) -> int:
    """Parity of the relabeling sign for a permutation acting on a word.

    The Koszul parity of rho on the fiber norms ||f^-1(i)||, i.e. the sum
    of ||f^-1(i)|| ||f^-1(i')|| over value pairs i < i' inverted by rho^-1.
    """
    counts = Counter(entries)
    return koszul_parity(rho, [counts[i] - 1 for i in range(1, arity + 1)])


def zeta_sign(entries: Sequence[int], arity: int, rho: Sequence[int]) -> int:
    """The relabeling sign in {+1, -1}.

    >>> zeta_sign((1, 2, 1, 2), 2, (2, 1))
    -1
    """
    return -1 if zeta_parity(entries, arity, rho) else 1


def perm_inverse(rho: Sequence[int]) -> tuple[int, ...]:
    """Inverse of a permutation given in one-line notation on {1..k}."""
    inv = [0] * len(rho)
    for i, v in enumerate(rho):
        inv[v - 1] = i + 1
    return tuple(inv)


def perm_compose(rho: Sequence[int], sigma: Sequence[int]) -> tuple[int, ...]:
    """Functional composition (rho o sigma)(i) = rho(sigma(i))."""
    if len(rho) != len(sigma):
        raise ValueError("permutations must have equal size")
    return tuple(rho[s - 1] for s in sigma)


# ---------------------------------------------------------------------------
# Composition diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompositionDiagram:
    """One way of composing inner words into an outer surjection.

    Determined by a choice, for each value ``i`` of the outer word, of an
    overlapping partition of the fiber over ``i`` with as many pieces as
    the ``i``-th inner word has entries.  ``a`` maps the composite domain
    order-preservingly onto outer positions; ``b`` records, per domain
    element, the color ``i`` and the inner position ``r`` it lands in.
    """

    outer: Surjection
    inner_sizes: tuple[int, ...]
    fiber_partitions: tuple[OverlappingPartition, ...]
    a: tuple[int, ...]
    b: tuple[tuple[int, int], ...]

    @property
    def domain_size(self) -> int:
        return len(self.a)

    def composite_entries(self, inner_entries: Sequence[Sequence[int]], inner_arities: Sequence[int]) -> tuple[int, ...]:
        """The composite word: inner values shifted into consecutive blocks."""
        offsets = [0]
        for j in inner_arities[:-1]:
            offsets.append(offsets[-1] + j)
        return tuple(offsets[i - 1] + inner_entries[i - 1][r - 1] for i, r in self.b)

    def eta_parity(self, inner_entries: Sequence[Sequence[int]], inner_arities: Sequence[int]) -> int:
        """Parity of the composition sign for this diagram."""
        k = self.outer.arity
        fiber_norms = [len(self.outer.fiber(i)) - 1 for i in range(1, k + 1)]
        acc = 0
        for i in range(1, k + 1):
            deg_i = self.inner_sizes[i - 1] - inner_arities[i - 1]
            for i2 in range(i + 1, k + 1):
                acc += deg_i * fiber_norms[i2 - 1]
        for i in range(1, k + 1):
            acc += epsilon_parity(inner_entries[i - 1], self.fiber_partitions[i - 1].piece_sizes)
        return acc % 2


def enumerate_diagrams(outer: Surjection, inner_sizes: Sequence[int]) -> list[CompositionDiagram]:
    """All composition diagrams for an outer surjection and inner sizes.

    Empty when some inner size is 0 against a nonempty fiber (that slot
    cannot be covered), which is a zero composite rather than an error.
    """
    k = outer.arity
    if len(inner_sizes) != k:
        raise ValueError("need one inner size per value of the outer word")
    per_color = []
    for i in range(1, k + 1):
        fiber = outer.fiber(i)
        if inner_sizes[i - 1] <= 0:
            return []
        per_color.append(enumerate_partitions(fiber, inner_sizes[i - 1]))
    out = []
    for choice in itertools.product(*per_color):
        out.append(_diagram_from_partitions(outer, tuple(inner_sizes), choice))
    return out


def _diagram_from_partitions(
    outer: Surjection,
    inner_sizes: tuple[int, ...],
    partitions: tuple[OverlappingPartition, ...],
) -> CompositionDiagram:
    incidences = []
    for i, partition in enumerate(partitions, start=1):
        for r, piece in enumerate(partition.pieces, start=1):
            for j in piece:
                incidences.append((j, i, r))
    incidences.sort()
    a = tuple(j for j, _, _ in incidences)
    b = tuple((i, r) for _, i, r in incidences)
    return CompositionDiagram(outer, inner_sizes, partitions, a, b)
