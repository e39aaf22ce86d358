"""Command-line front end: deterministic JSON in, deterministic JSON out.

Sequences are comma-separated (``--seq 1,2,1,2``); the arity defaults to
the largest entry.  Structured inputs are inline JSON or ``@path`` to a
JSON file.  Output is key-sorted JSON with no timestamps, so identical
invocations produce identical bytes.  Exit codes: 0 success, 1 for a
domain error (mismatched arities, non-cocycles, broken complexes), 2 for
malformed input (:class:`~seqop.combinatorics.InputError`), usage errors
included.  The JSON schemas live next to their types, one ``from_json``
each: ``SimplicialComplex`` and ``Cochain`` in :mod:`seqop.simplicial`,
``FiniteRing`` and ``HochschildCochain`` in :mod:`seqop.hochschild`,
``PosetElement`` in :mod:`seqop.berger`.  :func:`main` may be called many
times in one process; the parser is built on the first call and reused.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import acceptance, berger, hochschild, homology, operad, simplicial
from .combinatorics import InputError, Surjection, complexity, enumerate_basis, validate
from .operad import OperadElement


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as :class:`InputError`, not argparse's usage block and exit."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _parse_seq(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse sequence {text!r}: {exc}") from None


def _parse_json(text: str):
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputError(f"cannot read {text[1:]!r}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from None


def _size(text: str) -> int:
    """The argparse type of every size option: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _dumps(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` byte for byte, with
    strings, ints, literals and lists of ints encoded at C speed (that
    call's ``indent`` runs json's pure-Python encoder).  ``pad`` starts each
    line at obj's depth; anything else goes to ``json.dumps``, re-indented."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    inner = pad + "  "
    if kind is list:
        if not obj:
            return "[]"
        if all(type(v) is int for v in obj):
            items = map(int.__repr__, obj)
        else:
            items = (_dumps(v, inner) for v in obj)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is dict and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        items = (encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", pad)


def _emit(payload) -> None:
    sys.stdout.write(_dumps(payload) + "\n")


def _homology_json(groups) -> dict:
    return {str(q): g.to_json() for q, g in groups.items()}


# --------------------------------------------------------------------------
# verb handlers
# --------------------------------------------------------------------------


def _cmd_basis(args) -> None:
    words = enumerate_basis(args.arity, args.degree, args.max_complexity)
    _emit(
        {
            "arity": args.arity,
            "degree": args.degree,
            "max_complexity": args.max_complexity,
            "count": len(words),
            "basis": [list(w.entries) for w in words],
        }
    )


def _cmd_diff(args) -> None:
    e = OperadElement.basis(_parse_seq(args.seq), args.arity)
    _emit(operad.differential(e).to_json())


def _cmd_act(args) -> None:
    e = OperadElement.basis(_parse_seq(args.seq), args.arity)
    _emit(operad.act(e, _parse_seq(args.perm)).to_json())


def _cmd_compose(args) -> None:
    outer = OperadElement.basis(_parse_seq(args.outer), args.outer_arity)
    inner = [OperadElement.basis(_parse_seq(text)) for text in args.inner]
    _emit(operad.compose(outer, inner).to_json())


def _cmd_complexity(args) -> None:
    seq = _parse_seq(args.seq)
    arity = args.arity if args.arity is not None else max(seq, default=0)
    validate(seq, arity)  # entries in 1..arity; a degenerate word still has a complexity
    _emit({"seq": list(seq), "arity": arity, "complexity": complexity(seq, arity)})


def _cmd_homology(args) -> None:
    complex = homology.build_word_complex(args.arity, args.max_degree, args.max_complexity)
    groups = homology.homology(complex)
    _emit(
        {
            "arity": args.arity,
            "max_complexity": args.max_complexity,
            "dims": {str(d): complex.dim(d) for d in sorted(complex.bases)},
            "homology": _homology_json(groups),
        }
    )


def _cmd_coaction(args) -> None:
    simplex = _parse_seq(args.simplex)
    seq = _parse_seq(args.seq)
    word = Surjection(max(seq, default=0), seq)
    if args.complex:
        complex = simplicial.SimplicialComplex.from_json(_parse_json(args.complex))
    else:
        complex = simplicial.standard_simplex(max(simplex, default=0))
    tensor = simplicial.coaction(complex, simplex, word)
    _emit(
        {
            "factors": tensor.factors,
            "terms": [
                {"coeff": coeff, "simplices": [list(f) for f in key]}
                for key, coeff in sorted(tensor.coeffs.items())
            ],
        }
    )


def _cmd_cup(args) -> None:
    complex = simplicial.SimplicialComplex.from_json(_parse_json(args.complex))
    x = simplicial.Cochain.from_json(complex, _parse_json(args.x))
    y = simplicial.Cochain.from_json(complex, _parse_json(args.y))
    _emit(simplicial.cup_i(x, y, args.i).to_json())


def _cmd_steenrod(args) -> None:
    complex = simplicial.SimplicialComplex.from_json(_parse_json(args.complex))
    x = simplicial.Cochain.from_json(complex, _parse_json(args.x))
    _emit(simplicial.steenrod_square(x, args.i).to_json())


def _cmd_hochschild_theta(args) -> None:
    shipped = hochschild.SHIPPED_RINGS.get(args.ring)
    ring = shipped() if shipped else hochschild.FiniteRing.from_json(_parse_json(args.ring))
    cochains = [hochschild.HochschildCochain.from_json(ring, _parse_json(text)) for text in args.cochain]
    e = OperadElement.basis(_parse_seq(args.seq), args.arity)
    _emit(hochschild.theta(e, cochains).to_json())


def _cmd_berger_subcomplex(args) -> None:
    bt = berger.PosetElement.from_json(_parse_json(args.poset))
    complex = berger.subcomplex_basis(bt, args.max_degree)
    groups = homology.homology(complex)
    _emit(
        {
            "poset": bt.to_json(),
            "bases": {
                str(d): [list(f.entries) for f in complex.bases[d]]
                for d in sorted(complex.bases)
            },
            "homology": _homology_json(groups),
        }
    )


def _cmd_verify(args) -> int:
    results = acceptance.run_all(args.criteria.split(",") if args.criteria else None)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}  [{res.seconds:.1f}s]  {res.detail}")
    print(json.dumps({r.name: r.passed for r in results}, sort_keys=True))
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``seqop`` parser, built on the first call and shared by every later one."""
    parser = _Parser(
        prog="seqop",
        description="Exact computations with sequence operations on cochains.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("basis", help="enumerate nondegenerate words of one arity and degree")
    p.add_argument("--arity", type=_size, required=True)
    p.add_argument("--degree", type=_size, required=True)
    p.add_argument("--max-complexity", type=_size, default=None)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("diff", help="boundary of a basis word")
    p.add_argument("--seq", required=True)
    p.add_argument("--arity", type=_size, default=None)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("act", help="right action of a permutation")
    p.add_argument("--seq", required=True)
    p.add_argument("--perm", required=True, help="one-line notation, e.g. 2,1,3")
    p.add_argument("--arity", type=_size, default=None)
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("compose", help="operad composition of basis words")
    p.add_argument("--outer", required=True)
    p.add_argument("--outer-arity", type=_size, default=None)
    p.add_argument("--inner", action="append", required=True, help="one per slot, repeatable")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("complexity", help="alternation complexity of a word")
    p.add_argument("--seq", required=True)
    p.add_argument("--arity", type=_size, default=None)
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("homology", help="integer homology of a word complex")
    p.add_argument("--arity", type=_size, required=True)
    p.add_argument("--max-degree", type=_size, required=True)
    p.add_argument("--max-complexity", type=_size, default=None)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("coaction", help="face tensor extracted by a word")
    p.add_argument("--simplex", required=True, help="vertex list, e.g. 0,1,2")
    p.add_argument("--seq", required=True)
    p.add_argument("--complex", default=None, help="inline JSON or @file")
    p.set_defaults(func=_cmd_coaction)

    p = sub.add_parser("cup", help="cup-i product of two cochains")
    p.add_argument("--complex", required=True, help="inline JSON or @file")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--i", type=_size, default=0)
    p.set_defaults(func=_cmd_cup)

    p = sub.add_parser("steenrod", help="Steenrod square of a mod-2 cocycle")
    p.add_argument("--complex", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--i", type=_size, required=True)
    p.set_defaults(func=_cmd_steenrod)

    p = sub.add_parser("hochschild-theta", help="word action on Hochschild cochains")
    p.add_argument("--ring", required=True, help=f"one of {sorted(hochschild.SHIPPED_RINGS)} or JSON")
    p.add_argument("--seq", required=True)
    p.add_argument("--arity", type=_size, default=None)
    p.add_argument("--cochain", action="append", required=True, help="one per slot, repeatable")
    p.set_defaults(func=_cmd_hochschild_theta)

    p = sub.add_parser("berger-subcomplex", help="filtration subcomplex and its homology")
    p.add_argument("--poset", required=True, help="inline JSON or @file")
    p.add_argument("--max-degree", type=_size, required=True)
    p.set_defaults(func=_cmd_berger_subcomplex)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--criteria", default=None, help="comma-separated subset, e.g. A1,A5")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out = args.func(args)
        return out if isinstance(out, int) else 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
