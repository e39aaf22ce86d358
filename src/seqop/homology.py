"""Exact integer homology of finite graded complexes via Smith reduction.

:func:`homology` and :func:`invariant_factors` share one reducer per
differential.  A unit pass first eliminates +-1 pairs across all
differentials together (the Gaussian-elimination lemma, the algebraic form
of coreduction: Kaczynski-Mrozek-Slusarek 1998, Mrozek-Batko 2009), without
the fill of a matrix-by-matrix reduction; a Smith loop then finishes each
differential from what the pass left, which holds no unit.

Matrices are sparse over arbitrary-precision integers; no modular or
floating shortcuts anywhere.  Each pivot of the Smith loop is the least
entry of the matrix by absolute value and then by a Markowitz-style fill
estimate, so a unit whenever a remainder has made one.  Elimination is one
loop: a pivot clears its column by row operations.  The column then holds
the pivot alone, so reducing the other entries of the pivot row modulo the
pivot changes no other row; a row the pivot divides leaves the matrix with
the pivot on the diagonal.  A remainder, in the column or in the row, is
below the pivot in absolute value and becomes a later pivot.  A gcd/lcm
pass puts the diagonal in divisibility order.  No step copies the complex:
input rows are shared until their first write, and no input is mutated.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .combinatorics import Surjection, boundary_terms, word_bases


class ChainComplexError(ValueError):
    """The differentials do not compose, or do not square to zero."""


class SparseIntMatrix:
    """A sparse integer matrix stored as a dict of nonzero rows.

    No stored entry is ever 0, and no stored row is empty: assembly writes
    nonzero signs only, and elimination deletes what it cancels.  A stored 0
    could be picked as a pivot and reach ``v %= piv`` with ``piv == 0``.
    Reduction never mutates a matrix: its reducer shares the matrix's rows
    until their first write."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.data: dict[int, dict[int, int]] = {}

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self.data.values())


class _Reducer:
    """Sparse elimination engine for one differential, recording its Smith
    diagonal.  ``rows`` shares the input's rows, each copied on its first
    write (:meth:`_own`), so the input is never mutated; ``colmap`` lists
    each column's rows, and ``heap`` the rows by length for the unit pass."""

    def __init__(self, M: SparseIntMatrix):
        self.shared = M.data
        self.rows = dict(M.data)
        self.colmap: dict[int, list[int]] = {}
        for r, row in self.rows.items():
            for c in row:
                self.colmap.setdefault(c, []).append(r)
        self.diagonal: list[int] = []
        self.heap: list[tuple[int, int]] = [(len(row), r) for r, row in self.rows.items()]
        heapq.heapify(self.heap)

    def _own(self, r: int) -> dict[int, int]:
        """Row r, copied from the input matrix on its first write."""
        row = self.rows[r]
        if row is self.shared.get(r):
            row = self.rows[r] = dict(row)
        return row

    def _row_add(self, target: int, source: int, q: int):
        """row[target] += q * row[source]"""
        trow = self._own(target)
        for c, v in self.rows[source].items():
            new = trow.get(c, 0) + q * v
            if new:
                if c not in trow:
                    self.colmap.setdefault(c, []).append(target)
                trow[c] = new
            else:
                del trow[c]
                self.colmap[c].remove(target)
        if not trow:
            del self.rows[target]

    # pivot selection -------------------------------------------------------

    def _unit_pivot(self):
        """A +-1 entry of the shortest row that holds one, with the fewest
        entries in its column, or None.  A row without a unit leaves the
        heap: only a row operation can give it one, and the unit pass
        pushes every row its pivot touched again."""
        heap = self.heap
        while heap:
            length, r = heap[0]
            row = self.rows.get(r)
            if row is not None and len(row) == length:
                units = [c for c, v in row.items() if v == 1 or v == -1]
                if units:
                    return r, min(units, key=lambda c: len(self.colmap[c]))
            heapq.heappop(heap)
        return None

    def _scan_pivot(self):
        """The least entry of the whole matrix by (|v|, Markowitz fill
        estimate), so a unit whenever there is one."""
        best = None
        for r, row in self.rows.items():
            for c, v in row.items():
                key = (abs(v), (len(row) - 1) * (len(self.colmap[c]) - 1))
                if best is None or key < best[0]:
                    best = (key, r, c)
        return best[1], best[2]

    # elimination -----------------------------------------------------------

    def _clear(self, r: int, c: int) -> int:
        """Subtract multiples of row r from the other rows of column c, and
        return the pivot; a unit pivot leaves it alone in its column."""
        rows = self.rows
        piv = rows[r][c]
        for r2 in list(self.colmap[c]):
            q = rows[r2][c] // piv
            if r2 != r and q:
                self._row_add(r2, r, -q)
        return piv

    def _drop(self, r: int, piv: int) -> dict[int, int]:
        """Record abs(piv) on the diagonal and delete row r, returning it."""
        self.diagonal.append(abs(piv))
        row = self.rows.pop(r)
        for c2 in row:
            self.colmap[c2].remove(r)
        return row

    def run(self):
        """Reduce to nothing, one pivot at a time.  Each pivot is the least
        entry of the matrix, so a turn that leaves a remainder below it
        lowers the least |entry|; a unit pivot always drops its row, so
        between drops the least |entry| falls strictly, and the loop ends."""
        rows, colmap = self.rows, self.colmap
        while rows:
            r, c = self._scan_pivot()
            piv = self._clear(r, c)
            if len(colmap[c]) > 1:
                continue  # a remainder below |piv| is left in column c
            if piv != 1 and piv != -1:
                row = self._own(r)
                # column c holds the pivot alone, so subtracting multiples
                # of it from the other columns touches row r only
                for c2, v in list(row.items()):
                    if c2 != c:
                        v %= piv
                        if v:
                            row[c2] = v
                        else:
                            del row[c2]
                            colmap[c2].remove(r)
                if len(row) > 1:
                    continue
            self._drop(r, piv)


def _smith_diagonal(diagonal: list[int]) -> list[int]:
    """Invariant factors of a positive diagonal: the units, then the rest
    after a gcd/lcm pass that leaves each entry dividing the next."""
    rest = [v for v in diagonal if v != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = math.gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    return [1] * (len(diagonal) - len(rest)) + rest


def invariant_factors(M: SparseIntMatrix) -> list[int]:
    """The nonzero diagonal of the Smith form, in divisibility order.  A
    single matrix has no neighbouring differential, so its unit pass is
    plain unit elimination.

    >>> M = SparseIntMatrix(3, 3)
    >>> M.data = {0: {0: 4}, 1: {1: 6}, 2: {2: 10}}
    >>> invariant_factors(M)
    [2, 2, 60]
    """
    return _smith_forms({0: M})[0]


@dataclass(frozen=True)
class HomologyGroup:
    """One homology group: free rank, torsion coefficients, and whether the
    degree above was available (False marks a truncation lower bound)."""

    rank: int
    torsion: tuple[int, ...] = ()
    complete: bool = True

    def to_json(self) -> dict:
        out = {"rank": self.rank, "torsion": list(self.torsion)}
        if not self.complete:
            out["truncated"] = True
        return out


@dataclass
class GradedComplex:
    """Ordered bases per degree plus the differentials between them.

    ``diffs[d]`` maps degree d to degree d-1: rows are indexed by
    ``bases[d-1]`` and columns by ``bases[d]``.
    """

    bases: dict = field(default_factory=dict)
    diffs: dict = field(default_factory=dict)

    @property
    def max_degree(self) -> int:
        return max(self.bases, default=-1)

    def dim(self, degree: int) -> int:
        return len(self.bases.get(degree, ()))

    def validate(self):
        """Check that consecutive differentials compose to zero, one row of
        the lower differential at a time, stopping at the first nonzero."""
        for d in sorted(self.diffs):
            upper = self.diffs.get(d + 1)
            if upper is None:
                continue
            lower = self.diffs[d]
            if lower.cols != upper.rows:
                raise ChainComplexError(
                    f"d{d} ({lower.rows} x {lower.cols}) and d{d + 1} ({upper.rows} x {upper.cols}) do not compose"
                )
            upper_rows = upper.data
            for row in lower.data.values():
                acc: dict[int, int] = {}
                for mid, v in row.items():
                    for c, w in upper_rows.get(mid, {}).items():
                        acc[c] = acc.get(c, 0) + v * w
                if any(acc.values()):
                    raise ChainComplexError(f"d o d != 0 between degrees {d + 1} and {d - 1}")
        return self


def _eliminate_units(diffs: dict[int, SparseIntMatrix]) -> dict[int, _Reducer]:
    """Gaussian elimination of unit pairs across differentials d_q keyed by q.

    A +-1 pivot at (r, c) of d_q pairs cell c of degree q with cell r of
    degree q-1: clearing column c by row operations is the Schur update of
    d_q, then row c of d_{q+1} and column r of d_{q-1} are deleted.  As
    d o d = 0, row c of d_{q+1} is an integer combination of its other rows
    and column r of d_{q-1} one of its other columns, so the result is again
    a complex and each d_q keeps its Smith form less one unit per pair.
    Singleton columns come first, from a worklist, and cause no fill; then
    a unit of the lowest degree, whose pivots shrink the next differential
    up by deleting its rows.  Returns the reducers in degree order, each
    with a 1 on its diagonal per pair taken in d_q and no unit left.
    """
    reducers = {q: _Reducer(diffs[q]) for q in sorted(diffs)}
    single = [(q, c) for q, red in reducers.items() for c, rs in red.colmap.items() if len(rs) == 1]
    while True:
        if single:
            q, c = single.pop()
            red = reducers[q]
            rs = red.colmap.get(c, ())
            if len(rs) != 1:
                continue
            (r,) = rs
            if red.rows[r][c] not in (1, -1):
                continue
        else:
            for q, red in reducers.items():
                pick = red._unit_pivot()
                if pick:
                    break
            else:
                return reducers
            r, c = pick
        touched = [r2 for r2 in red.colmap[c] if r2 != r]
        row = red._drop(r, red._clear(r, c))
        for r2 in touched:
            if r2 in red.rows:
                heapq.heappush(red.heap, (len(red.rows[r2]), r2))
        single += [(q, c2) for c2 in row]
        up, down = reducers.get(q + 1), reducers.get(q - 1)
        if up is not None:
            for c2 in up.rows.pop(c, ()):
                up.colmap[c2].remove(c)
                single.append((q + 1, c2))
        if down is not None:
            # d_{q-1} holds no unit here: a singleton's column r there is
            # empty, and any other pivot comes after the lower degrees ran
            # out of units, so these rows need no new heap entry
            for r2 in down.colmap.pop(r, ()):
                drow = down._own(r2)
                del drow[r]
                if not drow:
                    del down.rows[r2]


def _smith_forms(diffs: dict[int, SparseIntMatrix]) -> dict[int, list[int]]:
    """The invariant factors of each differential: the unit pass across all
    of them, then the Smith loop on each reducer.  The loop never feeds back
    into the pass: its column operations on d_q (reducing a pivot row
    modulo the pivot) are not mirrored in d_{q+1}, so a cross-degree
    deletion after them would be invalid."""
    reducers = _eliminate_units(diffs)
    for red in reducers.values():
        red.run()
    return {q: _smith_diagonal(red.diagonal) for q, red in reducers.items()}


def homology(complex: GradedComplex) -> dict[int, HomologyGroup]:
    """Homology groups of a graded complex, degree by degree.

    Checks d o d = 0 first (raising ChainComplexError otherwise), which the
    unit pass across the complex needs; a Smith loop per differential then
    finishes each d_q.  At the top stored degree the incoming differential
    is unknown, so the group there is only an upper bound for the kernel
    and is flagged incomplete rather than silently reported.
    """
    complex.validate()
    top = complex.max_degree
    factors = _smith_forms(complex.diffs)
    out = {}
    for q in range(0, top + 1):
        rank_q = len(factors.get(q, ())) if q > 0 else 0
        above = factors.get(q + 1, [])
        rank_above = len(above) if q < top else 0
        free = complex.dim(q) - rank_q - rank_above
        torsion = tuple(f for f in above if f not in (0, 1)) if q < top else ()
        out[q] = HomologyGroup(free, torsion, complete=q < top)
    return out


def complex_from_word_basis(bases: dict) -> GradedComplex:
    """Assemble the deletion-differential complex over given word bases.

    ``bases`` maps degree -> ordered list of Surjection.  Checks closure
    only: raises ChainComplexError if some boundary term escapes the given
    basis.  d o d = 0 is checked by :func:`homology`.

    Rows are indexed by entry tuples (a word's entries fix its arity).
    Distinct deletions of a nondegenerate word give distinct words, so each
    cell is written once, with a nonzero sign, straight into ``M.data``.
    """
    diffs = {}
    for d in sorted(bases):
        if d - 1 not in bases:
            continue
        index = {f.entries: i for i, f in enumerate(bases[d - 1])}
        M = SparseIntMatrix(len(bases[d - 1]), len(bases[d]))
        data = M.data
        for col, f in enumerate(bases[d]):
            for sign, sub in boundary_terms(f.entries):
                row = index.get(sub)
                if row is None:
                    raise ChainComplexError(f"boundary of {f} leaves the basis at {Surjection(f.arity, sub)}")
                cells = data.get(row)
                if cells is None:
                    data[row] = {col: sign}
                else:
                    cells[col] = sign
        diffs[d] = M
    return GradedComplex(dict(bases), diffs)


def build_word_complex(arity: int, max_degree: int | None, max_complexity: int | None = None) -> GradedComplex:
    """The chain complex of nondegenerate words of one arity, through the
    given degree, optionally cut to a complexity filtration stage, with the
    bases of all degrees from one :func:`word_bases` walk.
    ``max_degree=None`` builds a stage to its end, through its first empty
    degree, so that every group below that degree is complete."""
    return complex_from_word_basis(word_bases(arity, max_degree, max_complexity))
