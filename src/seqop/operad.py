"""The chain operad of sequence operations and its complexity suboperads.

Elements are integer linear combinations of nondegenerate surjection words
of one arity and one homological degree (mixed degrees are represented as
lists of homogeneous elements); their storage and arithmetic are
:class:`seqop.combinatorics.LinearCombination`'s.  The module provides the differential, the
right symmetric-group action, multivariable and partial composition, the
prepend-a-1 contraction, and the complexity filtration.  It also holds
the operator side of the three identities an action of the operad must
satisfy (chain map, equivariance, composition), for any algebra given as
an evaluation map, a differential and a degree function.

All values are immutable and all operations pure; results are
deterministic and independent of evaluation order.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .combinatorics import (
    InputError,
    LinearCombination,
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
    """Operands do not fit together: arities that do not compose, or a sum
    of elements of different arity or degree."""


class OperadElement(LinearCombination):
    """A homogeneous integer combination of surjection words.

    ``coeffs`` maps Surjection keys, all of the declared arity and degree,
    to nonzero coefficients.
    """

    __slots__ = ("arity", "degree")
    _mismatch = ArityMismatchError

    def _check_key(self, key):
        if key.arity != self.arity or key.degree != self.degree:
            raise ValueError(f"term {key} does not have arity {self.arity} and degree {self.degree}")

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
    def unit(cls) -> "OperadElement":
        return cls.basis((1,), 1)

    def items(self):
        return sorted(self.coeffs.items())

    def terms(self) -> dict[Surjection, int]:
        return dict(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
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
    for f, coeff in e.coeffs.items():
        for sign, sub in boundary_terms(f.entries):
            pairs.append((sign * coeff, Surjection._trusted(f.arity, sub)))
    return _collect(e.arity, e.degree - 1, pairs)


def act(e: OperadElement, rho: Sequence[int]) -> OperadElement:
    """Right action of a permutation of {1..k}: signed relabeling.

    ``rho`` is in one-line notation; each word f maps to rho^-1 o f with
    the inversion-pair sign.  This is a right action: acting by rho then
    sigma equals acting by their composite rho o sigma.  A ``rho`` that is
    no permutation is malformed; one of the wrong size is an arity mismatch.
    """
    if sorted(rho) != list(range(1, len(rho) + 1)):
        raise InputError(f"{tuple(rho)} is not a permutation of 1..{len(rho)}")
    if len(rho) != e.arity:
        raise ArityMismatchError(f"{tuple(rho)} permutes 1..{len(rho)}, not 1..{e.arity}")
    rinv = perm_inverse(rho)
    pairs = []
    for f, coeff in e.coeffs.items():
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
    inner_items = [list(g.coeffs.items()) for g in inner]
    for f, cf in e.coeffs.items():
        for combo in itertools.product(*inner_items):
            coeff = cf
            for _, c in combo:
                coeff *= c
            for parity, entries in composition_terms(f, [g for g, _ in combo]):
                h = validate(entries, out_arity)
                if h is None:
                    continue
                pairs.append((-coeff if parity else coeff, h))
    return _collect(out_arity, out_degree, pairs)


def contract_word(w: tuple[int, ...]) -> tuple[int, ...] | None:
    """The contraction on one nonempty word: 1 prepended, or None when the
    word starts with 1, where the result would be degenerate."""
    return None if w[0] == 1 else (1,) + w


def benson_homotopy(e: OperadElement) -> OperadElement:
    """The contraction: :func:`contract_word` on every word.

    Together with :func:`iota` and :func:`retract` it satisfies
    d s + s d = id + iota o retract exactly.  Arity 0 is refused: its one
    word is empty, and 1 prepended to it is not a word of arity 0.
    """
    if e.arity < 1:
        raise ArityMismatchError("benson_homotopy needs arity >= 1")
    pairs = []
    for f, coeff in e.coeffs.items():
        sw = contract_word(f.entries)
        if sw is not None:
            pairs.append((coeff, Surjection._trusted(f.arity, sw)))
    return _collect(e.arity, e.degree + 1, pairs)


def iota(e: OperadElement) -> OperadElement:
    """Shift every entry up by one and prepend a 1; raises arity by one."""
    pairs = []
    for f, coeff in e.coeffs.items():
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
    for f, coeff in e.coeffs.items():
        if f.entries.count(1) != 1:
            continue
        j0 = f.entries.index(1)
        sign = -1 if tau(f.entries)[j0] % 2 else 1
        stripped = validate(tuple(u - 1 for u in f.entries if u != 1), e.arity - 1)
        if stripped is None:
            continue
        pairs.append((sign * coeff, stripped))
    return _collect(e.arity - 1, e.degree, pairs)


def complexity_bound(e: OperadElement) -> int:
    """Largest complexity among the words of ``e`` (0 for the zero element)."""
    return max((complexity(f.entries, f.arity) for f in e.coeffs), default=0)


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
