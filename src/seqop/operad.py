"""The chain operad of sequence operations and its complexity suboperads.

Elements are integer linear combinations of nondegenerate surjection words
of one arity and one homological degree (mixed degrees are represented as
lists of homogeneous elements).  The module provides the differential, the
right symmetric-group action, multivariable and partial composition, the
prepend-a-1 contraction, and the complexity filtration.  It also holds
the operator side of the three identities an action of the operad must
satisfy (chain map, equivariance, composition), for any algebra given as
an evaluation map, a differential and a degree function.

All values are immutable and all operations pure; results are
deterministic and independent of evaluation order.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .combinatorics import (
    DEGENERATE,
    Surjection,
    boundary_terms,
    complexity,
    composition_terms,
    koszul_parity,
    perm_inverse,
    tau,
    validate,
    zeta_parity,
)


class ArityMismatchError(ValueError):
    """Operands do not have compatible arities."""


class OperadElement:
    """A homogeneous integer combination of surjection words.

    Instances are immutable; ``terms`` maps Surjection keys (all of the
    declared arity and degree) to nonzero coefficients.
    """

    __slots__ = ("arity", "degree", "_terms")

    def __init__(self, arity: int, degree: int, terms: Mapping[Surjection, int] | None = None):
        clean: dict[Surjection, int] = {}
        for key, coeff in (terms or {}).items():
            if coeff == 0:
                continue
            if key.arity != arity or key.degree != degree:
                raise ValueError(f"term {key} does not have arity {arity} and degree {degree}")
            clean[key] = coeff
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("OperadElement is immutable")

    @classmethod
    def basis(cls, entries: Sequence[int], arity: int | None = None) -> "OperadElement":
        """The basis element of a word, e.g. ``OperadElement.basis((1,2,1))``.

        The arity defaults to the maximum entry (0 for the empty word).
        """
        entries = tuple(entries)
        if arity is None:
            arity = max(entries, default=0)
        f = Surjection(arity, entries)
        return cls(f.arity, f.degree, {f: 1})

    @classmethod
    def zero(cls, arity: int, degree: int) -> "OperadElement":
        return cls(arity, degree)

    @classmethod
    def unit(cls) -> "OperadElement":
        return cls.basis((1,), 1)

    def items(self):
        return sorted(self._terms.items())

    def terms(self) -> dict[Surjection, int]:
        return dict(self._terms)

    def coefficient(self, f: Surjection) -> int:
        return self._terms.get(f, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if not isinstance(other, OperadElement):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.degree == other.degree
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.arity, self.degree, frozenset(self._terms.items())))

    def __add__(self, other: "OperadElement") -> "OperadElement":
        self._check_compatible(other)
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            acc[key] = acc.get(key, 0) + coeff
        return OperadElement(self.arity, self.degree, acc)

    def __sub__(self, other: "OperadElement") -> "OperadElement":
        return self + (-1) * other

    def __neg__(self) -> "OperadElement":
        return (-1) * self

    def __rmul__(self, scalar: int) -> "OperadElement":
        return OperadElement(self.arity, self.degree, {k: scalar * c for k, c in self._terms.items()})

    def _check_compatible(self, other: "OperadElement"):
        if self.arity != other.arity:
            raise ArityMismatchError(f"arity {self.arity} vs {other.arity}")
        if self.degree != other.degree:
            raise ValueError(f"degree {self.degree} vs {other.degree}")

    def __repr__(self):
        if not self._terms:
            return f"OperadElement(0; arity={self.arity}, degree={self.degree})"
        bits = []
        for key, coeff in self.items():
            word = "".join(map(str, key.entries))
            if coeff == 1:
                bits.append(f"+<{word}>")
            elif coeff == -1:
                bits.append(f"-<{word}>")
            else:
                bits.append(f"{coeff:+d}<{word}>")
        return "".join(bits)

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "degree": self.degree,
            "terms": [{"coeff": c, "seq": list(f.entries)} for f, c in self.items()],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "OperadElement":
        terms: dict[Surjection, int] = {}
        for item in data.get("terms", []):
            f = Surjection(data["arity"], tuple(item["seq"]))
            terms[f] = terms.get(f, 0) + item["coeff"]
        return cls(data["arity"], data["degree"], terms)


def _collect(arity: int, degree: int, pairs: Iterable[tuple[int, Surjection]]) -> OperadElement:
    acc: dict[Surjection, int] = {}
    for coeff, key in pairs:
        acc[key] = acc.get(key, 0) + coeff
    return OperadElement(arity, degree, acc)


def differential(e: OperadElement) -> OperadElement:
    """The boundary: signed single-position deletions of every term.

    Deletions that become degenerate or lose a value are dropped; the
    degree decreases by 1.
    """
    pairs = []
    for f, coeff in e._terms.items():
        for sign, sub in boundary_terms(f.entries):
            pairs.append((sign * coeff, Surjection._trusted(f.arity, sub)))
    return _collect(e.arity, e.degree - 1, pairs)


def act(e: OperadElement, rho: Sequence[int]) -> OperadElement:
    """Right action of a permutation of {1..k}: signed relabeling.

    ``rho`` is in one-line notation; each word f maps to rho^-1 o f with
    the inversion-pair sign.  This is a right action: acting by rho then
    sigma equals acting by their composite rho o sigma.
    """
    if sorted(rho) != list(range(1, e.arity + 1)):
        raise ArityMismatchError(f"{rho} is not a permutation of 1..{e.arity}")
    rinv = perm_inverse(rho)
    pairs = []
    for f, coeff in e._terms.items():
        sign = -1 if zeta_parity(f.entries, f.arity, rho) else 1
        relabeled = Surjection._trusted(e.arity, tuple(rinv[u - 1] for u in f.entries))
        pairs.append((sign * coeff, relabeled))
    return _collect(e.arity, e.degree, pairs)


def compose(e: OperadElement, inner: Sequence[OperadElement]) -> OperadElement:
    """Multivariable operad composition, summed over all diagrams.

    ``inner`` supplies one homogeneous element per value of ``e``'s words;
    the result has arity ``sum of inner arities`` and degree ``sum of all
    degrees``.  Composing into a slot whose element has arity 0 kills
    every word whose fiber over that slot is nonempty, i.e. yields 0.
    """
    if len(inner) != e.arity:
        raise ArityMismatchError(f"need {e.arity} inner elements, got {len(inner)}")
    out_arity = sum(g.arity for g in inner)
    out_degree = e.degree + sum(g.degree for g in inner)
    pairs = []
    inner_items = [list(g._terms.items()) for g in inner]
    for f, cf in e._terms.items():
        for combo in _product(inner_items):
            coeff = cf
            for _, c in combo:
                coeff *= c
            for parity, entries in composition_terms(f, [g for g, _ in combo]):
                h = validate(entries, out_arity)
                if h is DEGENERATE:
                    continue
                pairs.append((-coeff if parity else coeff, h))
    return _collect(out_arity, out_degree, pairs)


def _product(term_lists):
    if not term_lists:
        yield ()
        return
    head, *rest = term_lists
    for item in head:
        for tail in _product(rest):
            yield (item,) + tail


def partial_compose(e: OperadElement, position: int, g: OperadElement) -> OperadElement:
    """Compose ``g`` into one slot, units elsewhere."""
    if not 1 <= position <= e.arity:
        raise ArityMismatchError(f"position {position} outside 1..{e.arity}")
    inner = [OperadElement.unit() for _ in range(e.arity)]
    inner[position - 1] = g
    return compose(e, inner)


def benson_homotopy(e: OperadElement) -> OperadElement:
    """The contraction: prepend a 1 to every word (degenerate results die).

    Together with :func:`iota` and :func:`retract` it satisfies
    d s + s d = id + iota o retract exactly.  Arity 0 is refused: its one
    word is empty, and 1 prepended to it is not a word of arity 0.
    """
    if e.arity < 1:
        raise ArityMismatchError("benson_homotopy needs arity >= 1")
    pairs = []
    for f, coeff in e._terms.items():
        if f.entries[0] == 1:
            continue
        pairs.append((coeff, Surjection._trusted(f.arity, (1,) + f.entries)))
    return _collect(e.arity, e.degree + 1, pairs)


def iota(e: OperadElement) -> OperadElement:
    """Shift every entry up by one and prepend a 1; raises arity by one."""
    pairs = []
    for f, coeff in e._terms.items():
        pairs.append((coeff, Surjection._trusted(f.arity + 1, (1,) + tuple(u + 1 for u in f.entries))))
    return _collect(e.arity + 1, e.degree, pairs)


def retract(e: OperadElement) -> OperadElement:
    """One-sided inverse of :func:`iota`, one arity down.

    A word survives only if it contains exactly one 1, say at position j0;
    that 1 is deleted, the remaining entries shift down by one, and the
    term picks up the sign (-1)**tau(j0).  On words that *start* with
    their unique 1 this is strip-and-shift up to sign; the extension to a
    unique 1 in any position, with the position-dependent sign, is forced:
    it is the only epimorphism onto the lower arity for which
    ``d s + s d = id + iota o retract`` holds against the deletion
    differential (check the word (2, 1), where the homotopy side produces
    the extra term -<12>).
    """
    if e.arity < 1:
        raise ArityMismatchError("retract needs arity >= 1")
    pairs = []
    for f, coeff in e._terms.items():
        if f.entries.count(1) != 1:
            continue
        j0 = f.entries.index(1)
        sign = -1 if tau(f.entries)[j0] % 2 else 1
        stripped = validate(tuple(u - 1 for u in f.entries if u != 1), e.arity - 1)
        if stripped is DEGENERATE:
            continue
        pairs.append((sign * coeff, stripped))
    return _collect(e.arity - 1, e.degree, pairs)


def complexity_bound(e: OperadElement) -> int:
    """Largest complexity among the words of ``e`` (0 for the zero element)."""
    return max((complexity(f.entries, f.arity) for f in e._terms), default=0)


def in_complexity_suboperad(e: OperadElement, n: int) -> bool:
    """Whether every word of ``e`` has complexity <= n."""
    return complexity_bound(e) <= n


# ---------------------------------------------------------------------------
# Operator side of the structure identities, for any algebra.  ``evaluate(e,
# args)`` applies an element to a list of algebra elements, ``d`` is the
# algebra's differential and ``degree`` reads an algebra element's degree.
# ---------------------------------------------------------------------------


def operator_differential(evaluate, d, degree, e: OperadElement, args: Sequence):
    """d(e(x)) - (-1)^{|e|} e(d x), the differential of e as an operator.

    The action is a chain map when this equals
    ``evaluate(differential(e), args)``.
    """
    result = d(evaluate(e, args))
    sign = -1 if e.degree % 2 else 1
    parity = 0
    for i, x in enumerate(args):
        term = list(args)
        term[i] = d(x)
        result = result - (-sign if parity % 2 else sign) * evaluate(e, term)
        parity += degree(x)
    return result


def permuted_evaluate(evaluate, degree, e: OperadElement, rho: Sequence[int], args: Sequence):
    """The right permutation action computed on the operator side.

    Slot i receives x_{rho^-1(i)} with the Koszul sign of the
    rearrangement; the action is equivariant when this equals
    ``evaluate(act(e, rho), args)``.
    """
    rinv = perm_inverse(rho)
    value = evaluate(e, [args[i - 1] for i in rinv])
    return -value if koszul_parity(rinv, [degree(x) for x in args]) else value


def nested_evaluate(evaluate, degree, e: OperadElement, inner: Sequence[OperadElement], args: Sequence):
    """Evaluate a composition by nesting: inner elements first, then ``e``.

    The sign moves each inner element past the argument blocks before it;
    the action respects composition when this equals
    ``evaluate(compose(e, inner), args)``.
    """
    if sum(g.arity for g in inner) != len(args):
        raise ValueError("argument count does not match total inner arity")
    parity = 0
    moved = 0
    pos = 0
    values = []
    for g in inner:
        block = args[pos : pos + g.arity]
        pos += g.arity
        parity += g.degree * moved
        moved += sum(degree(x) for x in block)
        values.append(evaluate(g, block))
    value = evaluate(e, values)
    return -value if parity % 2 else value
