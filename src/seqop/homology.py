"""Exact integer homology of finite graded complexes via Smith reduction.

Matrices are sparse over arbitrary-precision integers; no modular or
floating shortcuts anywhere.  The reduction prefers unit pivots chosen by
a Markowitz-style fill estimate, which keeps the boundary matrices of the
word complexes (entries in {-1, 0, 1}) from blowing up; general pivots
fall back to the classical divide-and-clear discipline, so the diagonal
comes out in divisibility order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

from .combinatorics import Surjection, boundary_terms, enumerate_basis


class ChainComplexError(ValueError):
    """The differentials do not square to zero."""


class SparseIntMatrix:
    """A sparse integer matrix stored as a dict of nonzero rows."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.data: dict[int, dict[int, int]] = {}

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[int]]) -> "SparseIntMatrix":
        m = cls(len(dense), len(dense[0]) if dense else 0)
        for r, row in enumerate(dense):
            for c, v in enumerate(row):
                if v:
                    m.set(r, c, v)
        return m

    def set(self, r: int, c: int, v: int):
        if not 0 <= r < self.rows or not 0 <= c < self.cols:
            raise IndexError(f"({r}, {c}) outside {self.rows} x {self.cols}")
        row = self.data.setdefault(r, {})
        if v:
            row[c] = v
        else:
            row.pop(c, None)
            if not row:
                del self.data[r]

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self.data.values())

    def is_zero(self) -> bool:
        return not self.data

    def matmul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = SparseIntMatrix(self.rows, other.cols)
        for r, row in self.data.items():
            acc: dict[int, int] = {}
            for mid, v in row.items():
                for c, w in other.data.get(mid, {}).items():
                    acc[c] = acc.get(c, 0) + v * w
            for c, v in acc.items():
                if v:
                    out.set(r, c, v)
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data


class _Reducer:
    """Sparse elimination engine that records the Smith diagonal."""

    def __init__(self, M: SparseIntMatrix):
        self.rows = {r: dict(row) for r, row in M.data.items()}
        self.colmap: dict[int, set[int]] = {}
        for r, row in self.rows.items():
            for c in row:
                self.colmap.setdefault(c, set()).add(r)
        self.factors: list[int] = []
        self.heap: list[tuple[int, int]] = [(len(row), r) for r, row in self.rows.items()]
        heapq.heapify(self.heap)

    # row/column operations -------------------------------------------------

    def _row_add(self, target: int, source: int, q: int):
        """row[target] += q * row[source]"""
        if q == 0:
            return
        trow = self.rows.setdefault(target, {})
        for c, v in self.rows[source].items():
            new = trow.get(c, 0) + q * v
            if new:
                if c not in trow:
                    self.colmap.setdefault(c, set()).add(target)
                trow[c] = new
            else:
                trow.pop(c, None)
                self.colmap[c].discard(target)
        if trow:
            heapq.heappush(self.heap, (len(trow), target))
        else:
            del self.rows[target]

    def _col_add(self, target: int, source: int, q: int):
        """col[target] += q * col[source]"""
        if q == 0:
            return
        for r in list(self.colmap.get(source, ())):
            row = self.rows[r]
            new = row.get(target, 0) + q * row[source]
            if new:
                if target not in row:
                    self.colmap.setdefault(target, set()).add(r)
                row[target] = new
            else:
                row.pop(target, None)
                self.colmap[target].discard(r)

    def _negate_row(self, r: int):
        row = self.rows.get(r)
        if row:
            for c in row:
                row[c] = -row[c]

    # pivot selection -------------------------------------------------------

    def _pick_unit_pivot(self):
        """A +-1 entry with a small Markowitz fill estimate, or None."""
        while self.heap:
            length, r = self.heap[0]
            row = self.rows.get(r)
            if row is None or len(row) != length:
                heapq.heappop(self.heap)
                continue
            best = None
            for c, v in row.items():
                if v == 1 or v == -1:
                    score = len(self.colmap[c])
                    if best is None or score < best[0]:
                        best = (score, r, c)
            if best is None:
                # shortest live row has no unit entry; scan everything once
                return self._scan_unit_pivot()
            return best[1], best[2]
        return None

    def _scan_unit_pivot(self):
        best = None
        for r, row in self.rows.items():
            for c, v in row.items():
                if v == 1 or v == -1:
                    score = (len(row) - 1) * (len(self.colmap[c]) - 1)
                    if best is None or score < best[0]:
                        best = (score, r, c)
        return (best[1], best[2]) if best else None

    def _pick_min_pivot(self):
        best = None
        for r, row in self.rows.items():
            for c, v in row.items():
                key = abs(v)
                if best is None or key < best[0]:
                    best = (key, r, c)
        return (best[1], best[2]) if best else None

    # elimination -----------------------------------------------------------

    def _clear_pivot(self, r: int, c: int):
        """Eliminate row r / column c against a pivot that divides both."""
        piv = self.rows[r][c]
        for r2 in list(self.colmap[c]):
            if r2 != r:
                self._row_add(r2, r, -(self.rows[r2][c] // piv))
        for c2 in list(self.rows[r].keys()):
            if c2 != c:
                self._col_add(c2, c, -(self.rows[r][c2] // piv))

    def _reduce_general_pivot(self, r: int, c: int) -> tuple[int, int]:
        """Shrink |pivot| until it divides its row, column, and remainder."""
        while True:
            piv = self.rows[r][c]
            moved = False
            for r2 in list(self.colmap[c]):
                if r2 == r:
                    continue
                v = self.rows[r2][c]
                q = v // piv
                self._row_add(r2, r, -q)
                if self.rows.get(r2, {}).get(c, 0):
                    r = r2  # strictly smaller remainder becomes the pivot
                    moved = True
                    break
            if moved:
                continue
            piv = self.rows[r][c]
            for c2 in list(self.rows[r].keys()):
                if c2 == c:
                    continue
                v = self.rows[r][c2]
                q = v // piv
                self._col_add(c2, c, -q)
                if self.rows[r].get(c2, 0):
                    c = c2
                    moved = True
                    break
            if moved:
                continue
            # pivot now divides everything in its row and column; make sure
            # it divides the rest of the matrix, else absorb a bad row
            piv = self.rows[r][c]
            bad = None
            for r2, row in self.rows.items():
                if r2 == r:
                    continue
                for c2, v in row.items():
                    if v % piv:
                        bad = r2
                        break
                if bad is not None:
                    break
            if bad is None:
                return r, c
            self._row_add(r, bad, 1)

    def run(self):
        while self.rows:
            unit = self._pick_unit_pivot()
            if unit is not None:
                r, c = unit
                if self.rows[r][c] == -1:
                    self._negate_row(r)
                self._clear_pivot(r, c)
                self.factors.append(1)
            else:
                r, c = self._pick_min_pivot()
                r, c = self._reduce_general_pivot(r, c)
                if self.rows[r][c] < 0:
                    self._negate_row(r)
                self._clear_pivot(r, c)
                self.factors.append(self.rows[r][c])
            row = self.rows.pop(r)
            self.colmap[c].discard(r)
            for c2 in row:
                self.colmap[c2].discard(r)


def invariant_factors(M: SparseIntMatrix) -> list[int]:
    """The nonzero diagonal of the Smith form, in divisibility order."""
    reducer = _Reducer(M)
    reducer.run()
    return sorted(reducer.factors, key=abs)


def rank(M: SparseIntMatrix) -> int:
    return len(invariant_factors(M))


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
        """Check that consecutive differentials compose to zero."""
        for d in sorted(self.diffs):
            if d + 1 in self.diffs:
                if not self.diffs[d].matmul(self.diffs[d + 1]).is_zero():
                    raise ChainComplexError(f"d o d != 0 between degrees {d + 1} and {d - 1}")
        return self


def homology(complex: GradedComplex, max_degree: int | None = None) -> dict[int, HomologyGroup]:
    """Homology groups of a graded complex, degree by degree.

    Checks d o d = 0 first (raising ChainComplexError otherwise).  At the top stored degree the incoming differential is unknown, so the
    group there is only an upper bound for the kernel and is flagged
    incomplete rather than silently reported.
    """
    complex.validate()
    top = complex.max_degree
    if max_degree is None:
        max_degree = top
    factors: dict[int, list[int]] = {}
    for d, M in complex.diffs.items():
        factors[d] = invariant_factors(M)
    out = {}
    for q in range(0, min(max_degree, top) + 1):
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


def build_word_complex(arity: int, max_degree: int, max_complexity: int | None = None) -> GradedComplex:
    """The chain complex of nondegenerate words of one arity, through the
    given degree, optionally cut to a complexity filtration stage."""
    bases = {
        d: enumerate_basis(arity, d, max_complexity)
        for d in range(max_degree + 1)
    }
    return complex_from_word_basis(bases)
