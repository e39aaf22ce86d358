"""Surjection words, overlapping partitions, composition terms and signs.

This module is the pure combinatorial substrate of the package.  A
*surjection word* is a finite sequence ``(u_1, ..., u_m)`` with entries in
``{1..k}`` hitting every value, read as a map ``{1..m} -> {1..k}``; it is
*nondegenerate* when no two adjacent entries are equal.  Words are stored
1-indexed.  :func:`word_bases` yields every degree of a word complex, or
of a complexity stage run to its end, from one walk over prefixes, and
:func:`enumerate_basis` is its one-degree view.  An overlapping partition of
an ordered set (the vertices of a simplex, or a fiber of a word) is handled
as its tuple of piece sizes.
:func:`fiber_covers` is the one enumerator of these partitions: it yields
each size tuple with the pieces covering each element, and operad
composition, the cochain coaction (``simplicial``) and the Hochschild
action (``hochschild.theta``) all read their sums from it, signed by
:func:`epsilon_parity`.  :class:`LinearCombination` is the one immutable
integer combination of keys behind operad elements, simplicial cochains,
face tensors and Hochschild cochains.

All sign computations are exposed as parities (``*_parity``, integers
mod 2); callers exponentiate once, where a sign is applied.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Sequence


class InputError(ValueError):
    """Malformed input: the type, sign, range or shape of one value is wrong.

    The command line exits 2 on it.  A well-formed input that fails a
    mathematical condition, or does not fit another input, raises a plain
    ValueError instead (exit 1).
    """


class InvalidEntryError(InputError):
    """An input sequence has entries outside the allowed range {1..k}."""


class LinearCombination:
    """An immutable finite combination of keys with integer coefficients,
    in one space.

    A subclass names the two attributes that fix its space in
    ``__slots__`` (``arity`` and ``degree`` for an operad element), states
    which keys a space holds in ``_check_key`` and the error for operands
    of two spaces in ``_mismatch``.  ``coeffs`` maps keys to nonzero
    coefficients: the constructor checks every key, a key with coefficient
    0 too, and then drops the zeros.  Coefficients are integers unless a
    subclass says how its own add, scale and vanish (``_add``, ``_scale``,
    ``_vanishes``).
    """

    __slots__ = ("_space", "coeffs")
    _mismatch = ValueError
    _add = staticmethod(operator.add)
    _scale = staticmethod(operator.mul)
    _vanishes = staticmethod(operator.not_)

    def __init__(self, first, second, coeffs=None):
        put = object.__setattr__
        a, b = self.__slots__
        put(self, a, first)
        put(self, b, second)
        put(self, "_space", (first, second))
        clean = {}
        if coeffs:
            check, vanishes = self._check_key, self._vanishes
            for key, c in coeffs.items():
                check(key)
                if not vanishes(c):
                    clean[key] = c
        put(self, "coeffs", clean)

    def _check_key(self, key):
        """Raise unless ``key`` is a key of this value's space."""
        raise NotImplementedError

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._space == other._space and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self._space, frozenset(self.coeffs.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._space != other._space:
            first, second = self.__slots__
            raise self._mismatch(f"cannot add {type(self).__name__} values of different {first} or {second}")
        acc = dict(self.coeffs)
        add = self._add
        for key, c in other.coeffs.items():
            mine = acc.get(key)
            acc[key] = c if mine is None else add(mine, c)
        return type(self)(*self._space, acc)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar: int):
        scale = self._scale
        return type(self)(*self._space, {k: scale(scalar, c) for k, c in self.coeffs.items()})

    def __repr__(self):
        body = " ".join(f"{c:+d}*{k}" for k, c in sorted(self.coeffs.items()))
        return f"{type(self).__name__}({self.__slots__[1]}={self._space[1]}; {body or '0'})"


def is_int(value) -> bool:
    """Whether a JSON value is an integer (``true`` and ``false`` are not)."""
    return type(value) is int


def is_int_list(value) -> bool:
    """Whether a JSON value is a list of integers."""
    return type(value) is list and all(type(v) is int for v in value)


def _word_fault(entries: Sequence[int], arity: int) -> str | None:
    """The one check of a word: None for a basis word, else a message
    template (fields ``entries`` and ``arity``) saying why it is degenerate.

    A negative arity or an entry outside 1..arity is malformed and raises
    InvalidEntryError.
    """
    if arity < 0:
        raise InvalidEntryError(f"arity must be >= 0, got {arity}")
    for u in entries:
        if not 1 <= u <= arity:
            raise InvalidEntryError(f"entry {u} outside 1..{arity}")
    if len(set(entries)) != arity:
        return "{entries} is not surjective onto 1..{arity}"
    if any(a == b for a, b in zip(entries, entries[1:])):
        return "{entries} has equal adjacent entries"
    return None


@dataclass(frozen=True, order=True)
class Surjection:
    """A nondegenerate surjection word: the canonical basis element.

    ``arity`` is ``k`` and ``entries`` the word ``(u_1, ..., u_m)``.  The
    homological degree is ``m - k``.  Use :func:`validate` to construct
    from untrusted data, which gives None for a degenerate word; the
    constructor itself rejects anything that is not surjective and
    nondegenerate.

    Internal code that has already proved a word valid builds it with the
    private :meth:`_trusted`, which skips these checks.  The sites, and why
    each preserves validity:

    - :func:`validate`, after the constructor's check;
    - :func:`word_bases` and :func:`enumerate_basis`: their walk yields only
      surjective words with adjacent entries distinct;
    - ``operad.differential``: :func:`boundary_terms` drops every deletion
      that leaves an adjacent-equal pair or loses a value;
    - ``operad.act``: relabeling by a permutation of {1..k} keeps both
      properties;
    - ``operad.benson_homotopy``, by ``operad.contract_word``: prepending 1
      to a nonempty word that does not start with 1 adds no value and no
      equal neighbours;
    - ``operad.iota``: shifting up by one and prepending 1 hits 1..k+1 and
      puts 1 before an entry >= 2.

    Words from outside still pass every check, through this constructor,
    ``validate`` or ``OperadElement.basis``.

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
        fault = _word_fault(self.entries, self.arity)
        if fault:
            raise InvalidEntryError(fault.format(entries=self.entries, arity=self.arity))

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


def validate(entries: Sequence[int], arity: int) -> Surjection | None:
    """Classify a word: a Surjection, or None (the semantic zero).

    Entries outside {1..arity} raise InvalidEntryError; a word that is
    merely non-surjective or has adjacent equal entries returns ``None``,
    which downstream code treats as 0.

    >>> validate((1, 2, 1, 2), 2)
    <1212>
    >>> validate((1, 1, 2), 2) is None
    True
    """
    entries = tuple(entries)
    if _word_fault(entries, arity):
        return None
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


def pair_runs(entries: Sequence[int], arity: int) -> list[int]:
    """Run counts of a word on every two-element value set.

    One count per pair i < j of {1..arity}, in lexicographic pair order:
    the number of maximal constant runs of the subword of entries equal to
    i or j.  One pass, by the last-position rule: an entry v starts a run
    on the pair {v, w} unless v already occurs after the last w.  The
    word may be degenerate or miss values; its entries lie in {1..arity}.

    >>> pair_runs((1, 2, 3, 1, 2), 3)
    [4, 3, 3]
    """
    last = [-1] * (arity + 1)
    # started[v][w]: runs on {v, w} begun by v
    started = [[0] * (arity + 1) for _ in range(arity + 1)]
    values = range(1, arity + 1)
    for p, v in enumerate(entries):
        lv = last[v]
        row = started[v]
        for w in values:
            if last[w] >= lv and w != v:
                row[w] += 1
        last[v] = p
    return [started[i][j] + started[j][i] for i, j in itertools.combinations(values, 2)]


def complexity(entries: Sequence[int], arity: int) -> int:
    """Alternation complexity of a word with entries in {1..arity}.

    0 when the codomain has at most one element; for two values, the
    number of maximal constant runs minus 1; in general the maximum over
    all two-element value sets of the complexity of the restriction, read
    from :func:`pair_runs`.

    >>> complexity((1, 2), 2)
    1
    >>> complexity((1, 2, 1, 2), 2)
    3
    >>> complexity((1,), 1)
    0
    """
    if arity <= 1 or not entries:
        return 0
    return max(pair_runs(entries, arity)) - 1


def word_bases(
    arity: int, max_degree: int | None = None, max_complexity: int | None = None, *, run_caps: Sequence[int] | None = None
) -> dict[int, list[Surjection]]:
    """Each degree 0..max_degree of the word complex of one arity, mapped to
    its words as :func:`enumerate_basis` cuts and orders them, from one walk.

    A cut stage is finite: with ``max_degree=None`` the walk runs to its end
    and the result stops at the first empty degree, included as ``[]``.
    Without a cut, ``max_degree=None`` raises ValueError.

    >>> word_bases(2, 1)
    {0: [<12>, <21>], 1: [<121>, <212>]}
    >>> word_bases(2, None, max_complexity=1)
    {0: [<12>, <21>], 1: []}

    ``run_caps`` caps the runs pair by pair instead, one cap per pair in the
    order of :func:`pair_runs`, as Berger cells need:

    >>> word_bases(3, 1, run_caps=(3, 2, 2))[1]
    [<1213>, <2123>, <3121>, <3212>]
    """
    return _nondegenerate_words(arity, 0, max_degree, max_complexity, run_caps)


def enumerate_basis(arity: int, degree: int, max_complexity: int | None = None) -> list[Surjection]:
    """All nondegenerate surjections of the given arity and degree.

    Deterministic lexicographic order on the underlying words.  With
    ``max_complexity`` n set, keeps only words of complexity <= n, that is
    with at most n + 1 runs on every value pair; the cut prunes the
    enumeration itself.  This is the one-degree view of :func:`word_bases`.

    >>> enumerate_basis(2, 0)
    [<12>, <21>]
    >>> enumerate_basis(2, 1, max_complexity=2)
    [<121>, <212>]
    """
    return _nondegenerate_words(arity, degree, degree, max_complexity, None)[degree]


def _nondegenerate_words(
    arity: int, lo: int, hi: int | None, max_complexity: int | None, run_caps: Sequence[int] | None
) -> dict[int, list[Surjection]]:
    """The basis words of one arity at each degree lo..hi, in lexicographic
    order: a depth-first walk over prefixes that emits each word of degree
    >= lo on its way down to degree hi.

    With ``run_caps`` it carries the run count of every value pair (the rule
    of :func:`pair_runs`) and drops a prefix as soon as a pair goes over its
    cap, which is sound because a prefix's run count on a pair never falls
    as the word grows.  Without caps no run is counted.  ``hi=None`` needs a
    cut: every entry takes a run, so no word has degree above the caps' sum,
    and the result ends at the first empty degree.
    """
    if arity < 0 or lo < 0 or (hi is not None and hi < 0):
        raise ValueError("arity and degree must be nonnegative")
    npairs = arity * (arity - 1) // 2
    if max_complexity is not None:
        if run_caps is not None:
            raise ValueError("give max_complexity or run_caps, not both")
        if max_complexity < 0:  # every word has complexity >= 0
            return {d: [] for d in range(lo, (lo if hi is None else hi) + 1)}
        run_caps = [max_complexity + 1] * npairs
    if run_caps is not None and (len(run_caps) != npairs or min(run_caps, default=0) < 0):
        raise ValueError(f"need one nonnegative run cap per 2-subset of 1..{arity}")
    to_end = hi is None
    if to_end:
        if run_caps is None:
            raise ValueError("the full word complex has no top degree: give max_degree or a cut")
        hi = lo + sum(run_caps) + 1
    out: dict[int, list[Surjection]] = {d: [] for d in range(lo, hi + 1)}
    trusted = Surjection._trusted
    shortest, longest = arity + lo, arity + hi
    word = [0] * longest
    values = range(1, arity + 1)

    def rec(pos: int, used: int, missing: int):
        if missing > longest - pos:
            return
        if not missing and pos >= shortest:
            out[pos - arity].append(trusted(arity, tuple(word[:pos])))
        if pos == longest:
            return
        prev = word[pos - 1] if pos else 0
        for v in values:
            if v != prev:
                word[pos] = v
                bit = 1 << v
                rec(pos + 1, used | bit, missing - (not used & bit))

    if run_caps is None:
        rec(0, 0, arity)
        return out

    # room[p]: runs still allowed on pair p; others[v]: (w, p) for w != v
    room = list(run_caps)
    pair_of = {pair: p for p, pair in enumerate(itertools.combinations(values, 2))}
    others = [[]] + [[(w, pair_of[min(v, w), max(v, w)]) for w in values if w != v] for v in values]
    last = [-1] * (arity + 1)

    def rec_capped(pos: int, missing: int, spare: int):
        # every later entry takes a run: a new value one on each of its
        # arity - 1 pairs, any other value at least one on the pair it
        # shares with its left neighbour
        if missing > longest - pos or spare < max(shortest - pos, missing) + missing * (arity - 2):
            return
        if not missing and pos >= shortest:
            out[pos - arity].append(trusted(arity, tuple(word[:pos])))
        if pos == longest:
            return
        prev = word[pos - 1] if pos else 0
        for v in values:
            if v == prev:
                continue
            lv = last[v]
            bumped = [p for w, p in others[v] if last[w] >= lv]
            if 0 in map(room.__getitem__, bumped):  # a pair is at its cap
                continue
            for p in bumped:
                room[p] -= 1
            word[pos] = v
            last[v] = pos
            rec_capped(pos + 1, missing - (lv < 0), spare - len(bumped))
            last[v] = lv
            for p in bumped:
                room[p] += 1

    rec_capped(0, arity, sum(room))
    if to_end:
        end = next(d for d, words in out.items() if not words)
        out = {d: out[d] for d in range(lo, end + 1)}
    return out


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


def fiber_covers(word: Sequence[int], ground_size: int, offset: int = 0):
    """Yield ``(sizes, covers)`` for each overlapping partition of an ordered
    set of ``ground_size`` elements into ``len(word)`` pieces.

    Piece j carries the entry ``word[j] + offset``.  ``sizes`` runs over
    :func:`partition_size_compositions` in its order, and ``covers[t]``
    lists the entries of the pieces covering element t, in piece order.
    Piece order and element order agree, so the concatenation of the
    covers is the word with entry j repeated ``sizes[j]`` times.  This is
    the only code that knows where the pieces lie.  An empty word covers
    nothing, so it yields no partition.

    >>> list(fiber_covers((1, 2), 2, offset=3))
    [((1, 2), [[4, 5], [5]]), ((2, 1), [[4], [4, 5]])]
    """
    if not word:
        return
    for sizes in partition_size_compositions(ground_size, len(word)):
        covers = [[] for _ in range(ground_size)]
        start = 0
        for u, size in zip(word, sizes):
            for t in range(start, start + size):
                covers[t].append(offset + u)
            start += size - 1
        yield sizes, covers


# ---------------------------------------------------------------------------
# Sign rules
# ---------------------------------------------------------------------------


def epsilon_parity(entries: Sequence[int], piece_sizes: Sequence[int]) -> int:
    """Parity of the coaction sign for a word against piece sizes.

    With ||A|| = |A| - 1, this is the mod-2 value of
    sum of ||A_j|| ||A_j'|| over inverted pairs (j < j', f(j) > f(j'))
    plus sum of ||A_j|| (tau[j] - f(j)).

    >>> epsilon_parity((1, 2, 1), (1, 2, 1))
    1
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

    >>> zeta_parity((1, 2, 1, 2), 2, (2, 1))
    1
    """
    counts = Counter(entries)
    return koszul_parity(rho, [counts[i] - 1 for i in range(1, arity + 1)])


def perm_inverse(rho: Sequence[int]) -> tuple[int, ...]:
    """Inverse of a permutation given in one-line notation on {1..k}."""
    inv = [0] * len(rho)
    for i, v in enumerate(rho):
        inv[v - 1] = i + 1
    return tuple(inv)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def composition_terms(outer: Surjection, inner: Sequence[Surjection]):
    """Yield ``(parity, composite entries)`` for each composition diagram.

    A diagram chooses, for each value i of ``outer``, an overlapping
    partition of the fiber over i into as many pieces as ``inner[i - 1]``
    has entries, given by its piece sizes; the choices run over the
    product of the values in order, each in the order of
    :func:`fiber_covers`.  The composite word reads the
    outer positions left to right and, at each, the pieces covering it in
    order, each contributing its inner entry shifted past the arities of
    the inner words before it.  The parity is that of the composition sign:
    each inner degree times the fiber norms ||f^-1(i')|| of the later
    values i', plus the coaction parity of each inner word against its
    piece sizes.

    Composites may be degenerate; the caller discards them.  Nothing is
    yielded when an inner word is empty, since :func:`fiber_covers` finds no
    cover of that slot's nonempty fiber: a zero composite, not an error.

    >>> list(composition_terms(Surjection(2, (1, 2)), [Surjection(2, (1, 2)), Surjection(1, (1,))]))
    [(0, (1, 2, 3))]
    """
    k = outer.arity
    if len(inner) != k:
        raise ValueError("need one inner word per value of the outer word")
    fiber_sizes = [outer.entries.count(i) for i in range(1, k + 1)]
    later_norms = sum(fiber_sizes) - k
    base = 0
    offset = 0
    per_value = []
    for g, size in zip(inner, fiber_sizes):
        later_norms -= size - 1
        base += g.degree * later_norms
        per_value.append(
            [(epsilon_parity(g.entries, sizes), covers) for sizes, covers in fiber_covers(g.entries, size, offset)]
        )
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
