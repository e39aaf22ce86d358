"""Surjection words, overlapping partitions, composition terms and signs.

This module is the pure combinatorial substrate of the package.  A
*surjection word* is a finite sequence ``(u_1, ..., u_m)`` with entries in
``{1..k}`` hitting every value, read as a map ``{1..m} -> {1..k}``; it is
*nondegenerate* when no two adjacent entries are equal.  Words are stored
1-indexed.  An overlapping partition of an ordered set (the vertices of a
simplex, or a fiber of a word) is handled as its tuple of piece sizes; the
coaction, the Hochschild brace sum and operad composition all sum over the
tuples of :func:`partition_size_compositions`, signed by
:func:`epsilon_parity`.

All sign computations are exposed both as parities (``*_parity``, integers
mod 2) and as signs in ``{+1, -1}``; internal code works with parities and
exponentiates once at the boundary.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
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

    Internal code that has already proved a word valid builds it with the
    private :meth:`_trusted`, which skips these checks.  The sites, and why
    each preserves validity:

    - :func:`validate`, after its own checks, which are the constructor's;
    - :func:`enumerate_basis`: its generator yields only surjective words
      with adjacent entries distinct;
    - ``operad.differential``: :func:`boundary_terms` drops every deletion
      that leaves an adjacent-equal pair or loses a value;
    - ``operad.act``: relabeling by a permutation of {1..k} keeps both
      properties;
    - ``operad.benson_homotopy``: prepending 1 to a nonempty word that does
      not start with 1 adds no value and no equal neighbours;
    - ``operad.iota``: shifting up by one and prepending 1 hits 1..k+1 and
      puts 1 before an entry >= 2.

    Words from outside still pass every check, through this constructor,
    ``validate``, ``OperadElement.basis`` or ``OperadElement.from_json``.

    >>> Surjection(2, (1, 2, 1, 2)).degree
    2
    """

    arity: int
    entries: tuple[int, ...]

    @classmethod
    def _trusted(cls, arity: int, entries: tuple[int, ...]) -> "Surjection":
        """A Surjection from a word the caller has proved valid, unchecked."""
        f = object.__new__(cls)
        object.__setattr__(f, "arity", arity)
        object.__setattr__(f, "entries", entries)
        return f

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
    return Surjection._trusted(arity, entries)


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
    out = [0] * len(entries)
    for rank, j in enumerate(sorted(range(len(entries)), key=entries.__getitem__), start=1):
        out[j] = rank
    return tuple(out)


def restrict(entries: Sequence[int], positions: Iterable[int]) -> tuple[int, ...]:
    """The subword at the given 1-indexed positions, in increasing order.

    The result is re-read as a map from {1..|S|}; it may be degenerate or
    non-surjective, and the caller revalidates.
    """
    return tuple(entries[j - 1] for j in sorted(positions))


def boundary_terms(entries: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """Signed single-position deletions of a word, skipping the zeros.

    ``boundary_terms(entries)`` needs the word alone, not its arity, and
    returns ``(sign, subword)`` pairs in position order.  Term ``j``
    carries the sign ``(-1)**(tau[j] - entries[j])``; deletions that
    produce an adjacent-equal pair or lose a value are dropped.
    """
    t = tau(entries)
    last = len(entries) - 1
    out = []
    for j, u in enumerate(entries):
        if (0 < j < last and entries[j - 1] == entries[j + 1]) or entries.count(u) == 1:
            continue
        out.append((-1 if (t[j] - u) % 2 else 1, entries[:j] + entries[j + 1 :]))
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
        out.append(Surjection._trusted(arity, w))
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


def partition_size_compositions(ground_size: int, num_pieces: int):
    """Yield the piece sizes of the overlapping partitions of an ordered set.

    An overlapping partition cuts ``ground_size`` ordered elements into
    ``num_pieces`` consecutive pieces, each sharing its last element with
    the next piece's first, so it is fixed by its sizes.  Sizes are >= 1
    and sum to ground_size + num_pieces - 1.  There are
    C(ground_size + num_pieces - 2, num_pieces - 1) of them, one per weakly
    increasing tuple of overlap points, yielded in the lexicographic order
    of those points.

    >>> list(partition_size_compositions(2, 2))
    [(1, 2), (2, 1)]
    """
    if num_pieces <= 0:
        raise ValueError("number of pieces must be positive")
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


def epsilon_sign(entries: Sequence[int], piece_sizes: Sequence[int]) -> int:
    """The coaction sign in {+1, -1}.

    >>> epsilon_sign((1, 2, 1), (1, 2, 1))
    -1
    """
    return -1 if epsilon_parity(entries, piece_sizes) else 1


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
# Composition
# ---------------------------------------------------------------------------


def composition_terms(outer: Surjection, inner: Sequence[Surjection]):
    """Yield ``(parity, composite entries)`` for each composition diagram.

    A diagram chooses, for each value i of ``outer``, an overlapping
    partition of the fiber over i into as many pieces as ``inner[i - 1]``
    has entries, given by its piece sizes; the choices run over the
    product of the values in order, each in the order of
    :func:`partition_size_compositions`.  The composite word reads the
    outer positions left to right and, at each, the pieces covering it in
    order, each contributing its inner entry shifted past the arities of
    the inner words before it.  The parity is that of the composition sign:
    each inner degree times the fiber norms ||f^-1(i')|| of the later
    values i', plus the coaction parity of each inner word against its
    piece sizes.

    Composites may be degenerate; the caller discards them.  Nothing is
    yielded when an inner word is empty, since that slot's nonempty fiber
    cannot be covered: a zero composite, not an error.

    >>> list(composition_terms(Surjection(2, (1, 2)), [Surjection(2, (1, 2)), Surjection(1, (1,))]))
    [(0, (1, 2, 3))]
    """
    k = outer.arity
    if len(inner) != k:
        raise ValueError("need one inner word per value of the outer word")
    if any(not g.entries for g in inner):
        return
    fiber_sizes = [outer.entries.count(i) for i in range(1, k + 1)]
    later_norms = sum(fiber_sizes) - k
    base = 0
    offset = 0
    per_value = []
    for g, size in zip(inner, fiber_sizes):
        later_norms -= size - 1
        base += g.degree * later_norms
        per_value.append(_fiber_covers(g.entries, size, offset))
        offset += g.arity
    # each outer position as (value index, rank within its fiber)
    slots = []
    seen = [0] * k
    for u in outer.entries:
        slots.append((u - 1, seen[u - 1]))
        seen[u - 1] += 1
    for choice in itertools.product(*per_value):
        parity = base
        for p, _ in choice:
            parity += p
        entries = []
        for i, t in slots:
            entries.extend(choice[i][1][t])
        yield parity % 2, tuple(entries)


def _fiber_covers(word: tuple[int, ...], fiber_size: int, offset: int):
    """For each partition of a fiber into ``len(word)`` pieces, its coaction
    parity and, per fiber element, the shifted entries of the pieces
    covering that element, in piece order."""
    out = []
    for sizes in partition_size_compositions(fiber_size, len(word)):
        covers = [[] for _ in range(fiber_size)]
        start = 0
        for u, size in zip(word, sizes):
            for t in range(start, start + size):
                covers[t].append(offset + u)
            start += size - 1
        out.append((epsilon_parity(word, sizes), covers))
    return out
