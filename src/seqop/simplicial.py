"""Finite ordered simplicial complexes and the cochain action of words.

Chains are normalized: a vertex list with a repetition is degenerate and
counts as zero, which is exactly what kills the degenerate terms of the
coaction.  A cochain and a face tensor of the coaction are each a
:class:`seqop.combinatorics.LinearCombination` on one complex, keyed by
simplices and by tuples of simplices.  The coboundary carries the sign
convention

    d(x) = -(-1)^{|x|} x o boundary

so the cup product realized by the word (1, 2) differs from the classical
front-face/back-face product by (-1)^{|x||y|}.  Only :func:`coboundary`
applies that sign; the mod-2 columns read d from face indices alone.  The
coaction sums over the partitions of the vertices that
:func:`seqop.combinatorics.fiber_covers` enumerates for composition and
the Hochschild action too.

Evaluation on standard simplices is also an oracle for the operad layer:
:func:`oracle_equal` decides equality of operad elements that way, and
:func:`evaluate` with :func:`coboundary` is the algebra that the structure
identities of :mod:`seqop.operad` are checked on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .combinatorics import InputError, LinearCombination, Surjection, epsilon_parity, fiber_covers, is_int, is_int_list
from .operad import OperadElement


class ComplexMismatchError(ValueError):
    """Operands live on different simplicial complexes."""


class NotACocycleError(ValueError):
    """A mod-2 cocycle was required."""


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite, downward-closed family of ascending vertex tuples."""

    n_vertices: int
    simplices: frozenset

    @classmethod
    def from_simplices(cls, simplices: Iterable[Sequence[int]], n_vertices: int | None = None) -> "SimplicialComplex":
        """Build the downward closure of the given simplices.

        Each simplex must be a nonempty strictly ascending vertex list with
        vertices in 0..n_vertices - 1; anything else raises InputError.
        """
        closed = set()
        low = top = 0
        for simp in simplices:
            simp = _ascending(simp)
            low, top = min(low, simp[0]), max(top, simp[-1] + 1)
            for r in range(1, len(simp) + 1):
                closed.update(itertools.combinations(simp, r))
        if n_vertices is None:
            n_vertices = top
        if low < 0 or top > n_vertices:
            raise InputError(f"every vertex must lie in 0..{n_vertices - 1}")
        return cls(n_vertices, frozenset(closed))

    def faces(self, dim: int) -> list:
        return sorted(s for s in self.simplices if len(s) == dim + 1)

    def has(self, simplex: Sequence[int]) -> bool:
        return tuple(simplex) in self.simplices

    @property
    def dim(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def to_json(self) -> dict:
        return {
            "vertices": self.n_vertices,
            "simplices": [list(s) for s in sorted(self.simplices)],
        }

    @classmethod
    def from_json(cls, data) -> "SimplicialComplex":
        """Parse ``{"vertices": n, "simplices": [[...], ...]}``; InputError if malformed."""
        if not isinstance(data, dict) or not is_int(data.get("vertices")) or data["vertices"] < 0:
            raise InputError('a complex needs a nonnegative integer "vertices"')
        simplices = data.get("simplices")
        if not isinstance(simplices, list) or not all(is_int_list(s) for s in simplices):
            raise InputError('a complex needs "simplices", a list of integer lists')
        return cls.from_simplices(simplices, n_vertices=data["vertices"])


def _ascending(simplex: Sequence[int]) -> tuple[int, ...]:
    """The simplex as a tuple; InputError unless it is nonempty and strictly ascending."""
    simplex = tuple(simplex)
    if not simplex or list(simplex) != sorted(set(simplex)):
        raise InputError(f"simplex {list(simplex)} must be a nonempty strictly ascending vertex list")
    return simplex


def standard_simplex(n: int) -> SimplicialComplex:
    """The full simplex on vertices 0..n (all nonempty subsets)."""
    return SimplicialComplex.from_simplices([tuple(range(n + 1))])


def projective_plane() -> SimplicialComplex:
    """The 6-vertex triangulation of the real projective plane."""
    triangles = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
    ]
    return SimplicialComplex.from_simplices(triangles)


class Cochain(LinearCombination):
    """An integer-valued function on the simplices of one dimension."""

    __slots__ = ("complex", "dim")
    _mismatch = ComplexMismatchError

    def _check_key(self, key):
        if len(key) != self.dim + 1:
            raise InputError(f"{key} is not a {self.dim}-simplex")
        if key not in self.complex.simplices:
            raise ValueError(f"{key} is not a {self.dim}-simplex of the complex")

    def value(self, simplex: Sequence[int]) -> int:
        return self.coeffs.get(tuple(simplex), 0)

    def reduce_mod2(self) -> "Cochain":
        return Cochain(self.complex, self.dim, {k: v % 2 for k, v in self.coeffs.items()})

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "values": [{"simplex": list(k), "coeff": v} for k, v in sorted(self.coeffs.items())],
        }

    @classmethod
    def from_json(cls, complex: SimplicialComplex, data) -> "Cochain":
        """Parse ``{"dim": p, "values": [{"simplex": [...], "coeff": c}]}`` on ``complex``.

        A malformed value raises InputError; a well-formed simplex that the
        complex lacks raises ValueError.
        """
        if not isinstance(data, dict) or not is_int(data.get("dim")) or data["dim"] < 0:
            raise InputError('a cochain needs a nonnegative integer "dim"')
        values = data.get("values", [])
        if not isinstance(values, list):
            raise InputError('cochain "values" must be a list')
        coeffs = {}
        for item in values:
            if not isinstance(item, dict) or not is_int_list(item.get("simplex")) or not is_int(item.get("coeff")):
                raise InputError(f'cochain value {item!r} needs an integer-list "simplex" and an integer "coeff"')
            key = tuple(item["simplex"])
            if key in coeffs:
                raise InputError(f"cochain has two values on simplex {item['simplex']}")
            if key not in complex.simplices:
                _ascending(key)
            coeffs[key] = item["coeff"]
        return cls(complex, data["dim"], coeffs)


class TensorChain(LinearCombination):
    """An integer combination of k-tuples of simplices (mixed dimensions),
    where k is ``factors``."""

    __slots__ = ("complex", "factors")
    _mismatch = ComplexMismatchError

    def _check_key(self, key):
        if len(key) != self.factors:
            raise ValueError(f"expected {self.factors} tensor factors")
        for simp in key:
            if not self.complex.has(simp):
                raise ValueError(f"{simp} is not a simplex of the complex")


def coboundary(x: Cochain) -> Cochain:
    """The coboundary with the sign d(x) = -(-1)^{|x|} x o boundary."""
    front = -1 if x.dim % 2 == 0 else 1
    acc: dict = {}
    for simp in x.complex.faces(x.dim + 1):
        total = 0
        for i in range(len(simp)):
            face = simp[:i] + simp[i + 1 :]
            sign = -1 if i % 2 else 1
            total += sign * x.coeffs.get(face, 0)
        if total:
            acc[simp] = front * total
    return Cochain(x.complex, x.dim + 1, acc)


@lru_cache(maxsize=None)
def _coaction_skeleton(p: int, entries: tuple[int, ...], arity: int):
    """Signed index tensors of the coaction of a word on a standard p-simplex.

    Returns tuples (parity, factors), one per partition of :func:`fiber_covers`
    in its order, where factor i - 1 is the ascending tuple of indices
    covered by the pieces of value i.  A partition that covers an index
    twice with one value repeats a vertex in that factor: it is degenerate
    and dropped.
    """
    out = []
    for sizes, covers in fiber_covers(entries, p + 1):
        if any(len(set(c)) != len(c) for c in covers):
            continue
        factors = tuple(tuple(t for t, c in enumerate(covers) if i in c) for i in range(1, arity + 1))
        out.append((epsilon_parity(entries, sizes), factors))
    return tuple(out)


def coaction(complex: SimplicialComplex, simplex: Sequence[int], f: Surjection) -> TensorChain:
    """The tensor of faces a word extracts from one simplex.

    Each overlapping partition of the vertex positions contributes its
    signed tuple of faces, degenerate ones (repeated vertices) contributing
    nothing.
    """
    simplex = tuple(simplex)
    if not complex.has(simplex):
        _ascending(simplex)  # a malformed simplex is an input error, a missing one is not
        raise ValueError(f"{simplex} is not a simplex of the complex")
    acc: dict = {}
    for parity, factors in _coaction_skeleton(len(simplex) - 1, f.entries, f.arity):
        key = tuple(tuple(simplex[a] for a in factor) for factor in factors)
        acc[key] = acc.get(key, 0) + (-1 if parity else 1)
    return TensorChain(complex, f.arity, acc)


def evaluate(e: OperadElement, cochains: Sequence[Cochain]) -> Cochain:
    """Apply an operad element to a tuple of cochains.

    The result has degree sum(|x_i|) - degree(e); terms whose face
    dimensions do not match the cochain degrees vanish.  The sign is the
    global (-1)^{m-k} together with the Koszul sign of moving each
    cochain past the earlier chain factors.
    """
    if len(cochains) != e.arity:
        raise ValueError(f"need {e.arity} cochains, got {len(cochains)}")
    if e.arity == 0:
        complex = None
    else:
        complex = cochains[0].complex
        for x in cochains:
            if x.complex != complex:
                raise ComplexMismatchError("cochains live on different complexes")
    degrees = [x.dim for x in cochains]
    out_dim = sum(degrees) - e.degree
    faces = complex.faces(out_dim) if complex is not None and out_dim >= 0 else []
    if not faces:  # nothing to evaluate on, so no partition is enumerated
        return Cochain(complex or standard_simplex(0), out_dim, {})

    koszul = sum(degrees[i] * degrees[j] for i in range(len(degrees)) for j in range(i + 1, len(degrees))) % 2
    global_parity = (e.degree + koszul) % 2

    acc: dict = {}
    for f, coeff in e.items():
        matching = [
            (parity, factors)
            for parity, factors in _coaction_skeleton(out_dim, f.entries, f.arity)
            if all(len(factor) - 1 == degrees[i] for i, factor in enumerate(factors))
        ]
        if not matching:
            continue
        for simp in faces:
            total = 0
            for parity, factors in matching:
                prod = coeff
                for i, factor in enumerate(factors):
                    face = tuple(simp[a] for a in factor)
                    prod *= cochains[i].coeffs.get(face, 0)
                    if prod == 0:
                        break
                if prod:
                    total += -prod if parity else prod
            if total:
                acc[simp] = acc.get(simp, 0) + (-total if global_parity else total)
    return Cochain(complex, out_dim, acc)


def cup_i(x: Cochain, y: Cochain, i: int) -> Cochain:
    """The alternating word 1212... with i+2 entries applied to (x, y)."""
    if i < 0:
        raise ValueError("cup-i needs i >= 0")
    word = tuple(1 if j % 2 == 0 else 2 for j in range(i + 2))
    return evaluate(OperadElement.basis(word), [x, y])


def steenrod_square(x: Cochain, i: int) -> Cochain:
    """Sq^i of a mod-2 cocycle of degree p, as the mod-2 cup-(p-i) square."""
    p = x.dim
    if not 0 <= i <= p:
        raise ValueError(f"need 0 <= i <= {p}")
    xm = x.reduce_mod2()
    if not coboundary(xm).reduce_mod2().is_zero():
        raise NotACocycleError("steenrod_square needs a mod-2 cocycle")
    return cup_i(xm, xm, p - i).reduce_mod2()


def oracle_equal(e1: OperadElement, e2: OperadElement) -> bool:
    """Decide equality of operad elements by coaction on standard simplices.

    Compares the signed face tensors extracted from the standard
    p-simplex for every p up to the length of the longest word.
    Evaluating against dual-basis cochains is a diagonal change of sign
    per fixed degree tuple, so tensor equality is evaluation equality.
    """
    if e1.arity != e2.arity or e1.degree != e2.degree:
        raise ValueError("oracle_equal compares elements of one arity and degree")
    p_max = max((f.length for f in itertools.chain(e1.coeffs, e2.coeffs)), default=0)
    for p in range(p_max + 1):
        complex = standard_simplex(p)
        top = tuple(range(p + 1))
        tensors = []
        for e in (e1, e2):
            acc = TensorChain(complex, e.arity, {})
            for f, coeff in e.items():
                acc = acc + coeff * coaction(complex, top, f)
            tensors.append(acc)
        if tensors[0] != tensors[1]:
            return False
    return True


# ---------------------------------------------------------------------------
# Mod-2 linear algebra (kept here: field shortcuts exist only for Steenrod).
# ---------------------------------------------------------------------------


class _GF2Basis:
    """An echelon basis of bit vectors, one row per top bit.

    Each row carries the combination of inserted vectors (as bits, in the
    caller's numbering) that it is the sum of.  A vector is reduced from its
    top bit down and stops at the first top bit that is not a pivot, so no
    row is ever rewritten.
    """

    def __init__(self):
        self.rows: dict[int, tuple[int, int]] = {}  # top bit -> (row, combination)

    def reduce(self, vec: int, combo: int = 0) -> tuple[int, int]:
        rows = self.rows
        while vec:
            hit = rows.get(vec.bit_length() - 1)
            if hit is None:
                break
            vec ^= hit[0]
            combo ^= hit[1]
        return vec, combo

    def insert(self, vec: int, combo: int = 0) -> tuple[int, int]:
        """Reduce ``vec`` and keep the remainder, if any, as a new row."""
        vec, combo = self.reduce(vec, combo)
        if vec:
            self.rows[vec.bit_length() - 1] = (vec, combo)
        return vec, combo


def _coboundary_columns(complex: SimplicialComplex, p: int) -> list[int]:
    """The mod-2 coboundary from degree p, one column per p-face.

    Mod 2 every sign of d vanishes, so the column of a p-face is the set of
    (p+1)-faces that contain it, as bits over the (p+1)-face basis.
    """
    index = {s: c for c, s in enumerate(complex.faces(p))}
    cols = [0] * len(index)
    for r, simp in enumerate(complex.faces(p + 1)):
        for i in range(len(simp)):
            cols[index[simp[:i] + simp[i + 1 :]]] |= 1 << r
    return cols


def _image_basis(complex: SimplicialComplex, p: int) -> _GF2Basis:
    """The mod-2 coboundaries of degree p, over the p-face bits (none at p = 0)."""
    image = _GF2Basis()
    for col in _coboundary_columns(complex, p - 1) if p > 0 else ():
        image.insert(col)
    return image


def mod2_cohomology_basis(complex: SimplicialComplex, p: int) -> list[Cochain]:
    """Representative cocycles spanning H^p with mod-2 coefficients.

    The cocycles are the combinations of coboundary columns that reduce to
    zero; one is kept when it enlarges the span of the coboundaries.
    """
    p_faces = complex.faces(p)
    columns = _GF2Basis()
    image = _image_basis(complex, p)
    out = []
    for c, col in enumerate(_coboundary_columns(complex, p)):
        rest, cocycle = columns.insert(col, 1 << c)
        if not rest and image.insert(cocycle)[0]:
            coeffs = {p_faces[i]: 1 for i in range(len(p_faces)) if cocycle >> i & 1}
            out.append(Cochain(complex, p, coeffs))
    return out


def is_mod2_coboundary(x: Cochain) -> bool:
    """Whether a mod-2 cochain is d(something) mod 2."""
    face_index = {s: c for c, s in enumerate(x.complex.faces(x.dim))}
    bits = 0
    for simp, coeff in x.coeffs.items():
        if coeff % 2:
            bits |= 1 << face_index[simp]
    return not _image_basis(x.complex, x.dim).reduce(bits)[0]


def mod2_cohomologous(x: Cochain, y: Cochain) -> bool:
    """Whether two mod-2 cocycles of one degree differ by a coboundary."""
    return is_mod2_coboundary(x - y)
