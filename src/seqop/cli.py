"""Command-line front end: deterministic JSON in, deterministic JSON out.

Sequences are comma-separated (``--seq 1,2,1,2``); the arity defaults to
the largest entry.  Structured inputs are inline JSON or ``@path`` to a
JSON file.  Output is key-sorted JSON with no timestamps, so identical
invocations produce identical bytes.  Exit codes: 0 success, 1 for a
domain error (mismatched arities, non-cocycles, broken complexes), 2 for
malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance, berger, hochschild, homology, operad, simplicial
from .combinatorics import InvalidEntryError, Surjection, complexity, enumerate_basis, validate
from .homology import ChainComplexError
from .operad import OperadElement


class InputError(ValueError):
    """Malformed command-line input (exit code 2)."""


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


def _word(seq: tuple[int, ...], arity: int | None) -> Surjection:
    if arity is None:
        arity = max(seq, default=0)
    word = validate(seq, arity)
    if not word:
        raise InputError(f"{seq} is degenerate or not surjective onto 1..{arity}")
    return word


def _element(seq: tuple[int, ...], arity: int | None) -> OperadElement:
    word = _word(seq, arity)
    return OperadElement(word.arity, word.degree, {word: 1})


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _homology_json(groups) -> dict:
    return {str(q): g.to_json() for q, g in groups.items()}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


def _complex_from_json(data) -> simplicial.SimplicialComplex:
    if not isinstance(data, dict) or not _is_int(data.get("vertices")):
        raise InputError('a complex needs an integer "vertices"')
    simplices = data.get("simplices")
    if not isinstance(simplices, list) or not all(_is_int_list(s) for s in simplices):
        raise InputError('a complex needs "simplices", a list of integer lists')
    return simplicial.SimplicialComplex.from_json(data)


def _cochain_from_json(complex, data) -> simplicial.Cochain:
    if not isinstance(data, dict) or not _is_int(data.get("dim")):
        raise InputError('a cochain needs an integer "dim"')
    values = data.get("values", [])
    if not isinstance(values, list):
        raise InputError('cochain "values" must be a list')
    coeffs = {}
    for item in values:
        if not isinstance(item, dict) or not isinstance(item.get("simplex"), list) or not _is_int(item.get("coeff")):
            raise InputError(f'cochain value {item!r} needs a list "simplex" and an integer "coeff"')
        coeffs[tuple(item["simplex"])] = item["coeff"]
    return simplicial.Cochain(complex, data["dim"], coeffs)


def _theta_cochains(ring_text: str, cochain_texts: list[str]) -> list:
    """The Hochschild cochains of ``hochschild-theta`` over their ring, checked."""
    if ring_text in hochschild.SHIPPED_RINGS:
        ring = hochschild.SHIPPED_RINGS[ring_text]()
    else:
        data = _parse_json(ring_text)
        if not isinstance(data, dict) or not _is_int(data.get("rank")):
            raise InputError('a ring needs an integer "rank"')
        table = data.get("table")
        if not isinstance(table, list) or not all(isinstance(row, list) and all(_is_int_list(v) for v in row) for row in table):
            raise InputError('a ring needs a "table" of rows of integer lists')
        if not _is_int_list(data.get("unit", [])):
            raise InputError('a ring "unit" must be an integer list')
        names = data.get("names", [])
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise InputError('ring "names" must be a list of strings')
        ring = hochschild.FiniteRing.from_json(data)
    cochains = []
    for text in cochain_texts:
        data = _parse_json(text)
        if not isinstance(data, dict) or not _is_int(data.get("degree")):
            raise InputError('a Hochschild cochain needs an integer "degree"')
        values = data.get("values", [])
        if not isinstance(values, list):
            raise InputError('Hochschild cochain "values" must be a list')
        table = {}
        for item in values:
            if not isinstance(item, dict) or not _is_int_list(item.get("args")) or not _is_int_list(item.get("value")):
                raise InputError(f'Hochschild cochain value {item!r} needs integer lists "args" and "value"')
            if len(item["value"]) != ring.rank:
                raise InputError(f'Hochschild cochain value {item["value"]} must have length {ring.rank}')
            table[tuple(item["args"])] = tuple(item["value"])
        cochains.append(hochschild.HochschildCochain(ring, data["degree"], table))
    return cochains


def _poset_from_json(data) -> berger.PosetElement:
    if not isinstance(data, dict) or not _is_int(data.get("k")):
        raise InputError('a poset element needs an integer "k"')
    if not isinstance(data.get("b"), list) or not _is_int_list(data.get("order")):
        raise InputError('a poset element needs a list "b" and an integer-list "order"')
    k = data["k"]
    for item in data["b"]:
        if not isinstance(item, dict) or not _is_int(item.get("val")):
            raise InputError(f'poset weight {item!r} needs a "pair" and an integer "val"')
        pair = item.get("pair")
        if not _is_int_list(pair) or len(pair) != 2 or pair[0] == pair[1] or not all(1 <= v <= k for v in pair):
            raise InputError(f"poset pair {pair!r} is not a 2-subset of 1..{k}")
    return berger.PosetElement.from_json(data)


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
    e = _element(_parse_seq(args.seq), args.arity)
    _emit(operad.differential(e).to_json())


def _cmd_act(args) -> None:
    e = _element(_parse_seq(args.seq), args.arity)
    _emit(operad.act(e, _parse_seq(args.perm)).to_json())


def _cmd_compose(args) -> None:
    outer = _element(_parse_seq(args.outer), args.outer_arity)
    inner = [_element(_parse_seq(text), None) for text in args.inner]
    _emit(operad.compose(outer, inner).to_json())


def _cmd_complexity(args) -> None:
    seq = _parse_seq(args.seq)
    arity = args.arity if args.arity is not None else max(seq, default=0)
    for u in seq:
        if not 1 <= u <= arity:
            raise InputError(f"entry {u} outside 1..{arity}")
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
    simplex = tuple(_parse_seq(args.simplex))
    word = _word(_parse_seq(args.seq), None)
    if args.complex:
        complex = _complex_from_json(_parse_json(args.complex))
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
    complex = _complex_from_json(_parse_json(args.complex))
    x = _cochain_from_json(complex, _parse_json(args.x))
    y = _cochain_from_json(complex, _parse_json(args.y))
    _emit(simplicial.cup_i(x, y, args.i).to_json())


def _cmd_steenrod(args) -> None:
    complex = _complex_from_json(_parse_json(args.complex))
    x = _cochain_from_json(complex, _parse_json(args.x))
    _emit(simplicial.steenrod_square(x, args.i).to_json())


def _cmd_hochschild_theta(args) -> None:
    cochains = _theta_cochains(args.ring, args.cochain)
    e = _element(_parse_seq(args.seq), args.arity)
    _emit(hochschild.theta(e, cochains).to_json())


def _cmd_berger_subcomplex(args) -> None:
    bt = _poset_from_json(_parse_json(args.poset))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqop",
        description="Exact computations with sequence operations on cochains.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("basis", help="enumerate nondegenerate words of one arity and degree")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-complexity", type=int, default=None)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("diff", help="boundary of a basis word")
    p.add_argument("--seq", required=True)
    p.add_argument("--arity", type=int, default=None)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("act", help="right action of a permutation")
    p.add_argument("--seq", required=True)
    p.add_argument("--perm", required=True, help="one-line notation, e.g. 2,1,3")
    p.add_argument("--arity", type=int, default=None)
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("compose", help="operad composition of basis words")
    p.add_argument("--outer", required=True)
    p.add_argument("--outer-arity", type=int, default=None)
    p.add_argument("--inner", action="append", required=True, help="one per slot, repeatable")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("complexity", help="alternation complexity of a word")
    p.add_argument("--seq", required=True)
    p.add_argument("--arity", type=int, default=None)
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("homology", help="integer homology of a word complex")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--max-complexity", type=int, default=None)
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
    p.add_argument("--i", type=int, default=0)
    p.set_defaults(func=_cmd_cup)

    p = sub.add_parser("steenrod", help="Steenrod square of a mod-2 cocycle")
    p.add_argument("--complex", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(func=_cmd_steenrod)

    p = sub.add_parser("hochschild-theta", help="word action on Hochschild cochains")
    p.add_argument("--ring", required=True, help=f"one of {sorted(hochschild.SHIPPED_RINGS)} or JSON")
    p.add_argument("--seq", required=True)
    p.add_argument("--arity", type=int, default=None)
    p.add_argument("--cochain", action="append", required=True, help="one per slot, repeatable")
    p.set_defaults(func=_cmd_hochschild_theta)

    p = sub.add_parser("berger-subcomplex", help="filtration subcomplex and its homology")
    p.add_argument("--poset", required=True, help="inline JSON or @file")
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(func=_cmd_berger_subcomplex)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--criteria", default=None, help="comma-separated subset, e.g. A1,A5")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.func(args)
        return out if isinstance(out, int) else 0
    except (InputError, InvalidEntryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ChainComplexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
