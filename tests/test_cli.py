import contextlib
import hashlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqop import hochschild, simplicial
from seqop.cli import _dumps, main


DELTA2 = json.dumps({"vertices": 3, "simplices": [[0, 1, 2]]})
EDGE = json.dumps({"dim": 1, "values": [{"simplex": [0, 1], "coeff": 1}]})


THETA_X = json.dumps({"degree": 1, "values": [{"args": [1], "value": [0, 1]}]})

# Z[x]/(x^3) on the basis (1, x, x^2)
TRUNCATED_CUBIC = json.dumps(
    {
        "rank": 3,
        "names": ["1", "x", "x2"],
        "table": [[[int(l == i + j) for l in range(3)] for j in range(3)] for i in range(3)],
    }
)


def theta_cochain(rank, degree, shift):
    """A full Hochschild cochain table with small values fixed by the arguments."""
    values = [
        {"args": list(args), "value": [(shift + 3 * sum(args) + 2 * l) % 5 - 2 for l in range(rank)]}
        for args in itertools.product(range(1, rank), repeat=degree)
    ]
    return json.dumps({"degree": degree, "values": values})


THETA_WORDS = {
    "1,2,1": (2, 1),
    "2,1": (1, 1),
    "1,2,1,3": (1, 1, 1),
    "1,2,1,3,1": (3, 1, 0),
    "1,2,3,2,1": (3, 1, 0),
}

# sha256 of each call's hochschild-theta stdout, pinned so that any change of
# output bytes fails here and not only in the benchmark
THETA_GOLDEN = {
    ("dual-numbers", "1,2,1"): "6e52da16e3bd7ef07cccdd33c44487fbb2b46fdd1f82d55d033b20583a910443",
    ("dual-numbers", "2,1"): "7ac016b0be2c57b262dafe37b59f6ecb2aa06684e8e89b245e38711d52695339",
    ("dual-numbers", "1,2,1,3"): "183d191b251d62ba46c353a2c0198656fa2d33a4e2628339bcc4fd813688c86f",
    ("dual-numbers", "1,2,1,3,1"): "64fb7a312c426253e0f234999d2f46214f8bd66bb541e5259fe3f652f8af9d0c",
    ("dual-numbers", "1,2,3,2,1"): "64fb7a312c426253e0f234999d2f46214f8bd66bb541e5259fe3f652f8af9d0c",
    ("upper-triangular", "1,2,1"): "9034b44abc6591ce981d075da2e80b3db41a6e89640cf9303b7969401fd81412",
    ("upper-triangular", "2,1"): "f96aedea217ac633e01d7af71799ce509d1ff5a1b69f9b3247e5e6bc3cd396a8",
    ("upper-triangular", "1,2,1,3"): "016dd6d8b7249eeeb7875be7a6198af479915e3f172d8b8d28e2cd8218a416ca",
    ("upper-triangular", "1,2,1,3,1"): "f0d2a8c12f51888572c0c8c43548113d00061e6354eefb3b118f0380b4a3a468",
    ("upper-triangular", "1,2,3,2,1"): "91d639ed0e14aedc3d6be4e33a638b41e973a7e024cf74b558901c02cc441821",
    ("truncated-cubic", "1,2,1"): "9034b44abc6591ce981d075da2e80b3db41a6e89640cf9303b7969401fd81412",
    ("truncated-cubic", "2,1"): "59b97f9323ef42bef7965f7ae03db111968d45183645c343c3cc5e48f48b327b",
    ("truncated-cubic", "1,2,1,3"): "0fd5ea8de8af2288a33a8c34a3d8b47275034590fd5181e7be08252d8d5b3c1c",
    ("truncated-cubic", "1,2,1,3,1"): "f0d2a8c12f51888572c0c8c43548113d00061e6354eefb3b118f0380b4a3a468",
    ("truncated-cubic", "1,2,3,2,1"): "91d639ed0e14aedc3d6be4e33a638b41e973a7e024cf74b558901c02cc441821",
}
THETA_RINGS = {
    "dual-numbers": ("dual-numbers", 2),
    "upper-triangular": ("upper-triangular", 3),
    "truncated-cubic": (TRUNCATED_CUBIC, 3),
}


# well formed, but (x x) y = y y = 0 while x (x y) = x 1 = x
NONASSOCIATIVE = json.dumps(
    {
        "rank": 3,
        "table": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        ],
    }
)
RING_2 = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]

RP2 = json.dumps(simplicial.projective_plane().to_json())
# a mod-2 cocycle of RP2 that generates H^1; the golden digests below are of its outputs
RP2_X = json.dumps(
    {"dim": 1, "values": [{"simplex": s, "coeff": 1} for s in ([0, 1], [1, 2], [1, 5], [2, 4], [2, 5], [3, 5])]}
)
POSET_21 = json.dumps({"k": 2, "b": [{"pair": [1, 2], "val": 1}], "order": [2, 1]})

# Small values for the boundary fuzz: integers stay in -1..3, so that arities
# and degrees stay <= 3 and every call takes milliseconds.  Structured inputs
# follow their schema, with any field or the whole value sometimes swapped for
# arbitrary JSON, so that the draws reach past the first check.
FUZZ_INT = st.integers(-1, 3)
FUZZ_LIST = st.lists(FUZZ_INT, max_size=3)
FUZZ_JUNK = st.recursive(
    st.none() | st.booleans() | FUZZ_INT | st.just(1.5) | st.just("a"),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["k", "dim", "values"]), inner, max_size=2),
    max_leaves=6,
)


def mostly(good, other, one_in=10):
    """Draws of ``good``, and about one time in ``one_in`` of ``other``.

    Hypothesis favours the ends of an integer range, so the rare branch sits
    inside it."""
    return st.integers(1, one_in).flatmap(lambda i: other if i == 2 else good)


def near(**fields):
    """A JSON object of the given fields, each about one time in four swapped for arbitrary JSON."""
    return st.fixed_dictionaries({key: mostly(value, FUZZ_JUNK, 4) for key, value in fields.items()})


def fuzz_json(value, *valid):
    """JSON text: mostly one of the ``valid`` texts or the JSON of ``value``,
    now and then of arbitrary JSON or no JSON at all."""
    text = value.map(json.dumps)
    if valid:
        text = mostly(st.sampled_from(valid), text)
    return mostly(text, FUZZ_JUNK.map(json.dumps) | st.just("{not json"))


FUZZ_SIZE = mostly(st.integers(0, 3), st.just(-1)).map(str)
FUZZ_SEQ = mostly(
    st.lists(st.integers(1, 3), max_size=5).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["x", "1,,2", "-1", "0,1", ""]),
)
FUZZ_SIMPLEX = st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True).map(sorted)
FUZZ_COMPLEX = fuzz_json(near(vertices=st.integers(0, 4), simplices=st.lists(FUZZ_SIMPLEX, max_size=3)), DELTA2, RP2)
FUZZ_COCHAIN = fuzz_json(
    near(dim=st.integers(0, 3), values=st.lists(near(simplex=FUZZ_SIMPLEX, coeff=FUZZ_INT), min_size=1, max_size=3))
)
FUZZ_RING = fuzz_json(
    near(rank=FUZZ_INT, table=st.lists(st.lists(FUZZ_LIST, max_size=3), max_size=3)), *sorted(hochschild.SHIPPED_RINGS)
)
FUZZ_HOCHSCHILD = fuzz_json(
    near(
        degree=st.integers(0, 3),
        values=st.lists(
            near(args=st.lists(st.integers(1, 2), max_size=3), value=st.lists(FUZZ_INT, min_size=2, max_size=3)),
            min_size=1,
            max_size=3,
        ),
    )
)
FUZZ_POSET = fuzz_json(
    near(
        k=st.integers(0, 3),
        b=st.lists(
            near(pair=st.lists(st.integers(1, 3), min_size=2, max_size=2, unique=True), val=FUZZ_INT),
            min_size=1,
            max_size=3,
        ),
        order=st.integers(0, 3).flatmap(lambda k: st.permutations(range(1, k + 1))),
    ),
    POSET_21,
)
FUZZ_FLAGS = {
    "basis": {"--arity": FUZZ_SIZE, "--degree": FUZZ_SIZE, "--max-complexity": FUZZ_SIZE},
    "diff": {"--seq": FUZZ_SEQ, "--arity": FUZZ_SIZE},
    "act": {"--seq": FUZZ_SEQ, "--perm": FUZZ_SEQ, "--arity": FUZZ_SIZE},
    "compose": {"--outer": FUZZ_SEQ, "--outer-arity": FUZZ_SIZE, "--inner": FUZZ_SEQ},
    "complexity": {"--seq": FUZZ_SEQ, "--arity": FUZZ_SIZE},
    "homology": {"--arity": FUZZ_SIZE, "--max-degree": FUZZ_SIZE, "--max-complexity": FUZZ_SIZE},
    "coaction": {"--simplex": FUZZ_SEQ, "--seq": FUZZ_SEQ, "--complex": FUZZ_COMPLEX},
    "cup": {"--complex": FUZZ_COMPLEX, "--x": FUZZ_COCHAIN, "--y": FUZZ_COCHAIN, "--i": FUZZ_SIZE},
    "steenrod": {"--complex": FUZZ_COMPLEX, "--x": FUZZ_COCHAIN, "--i": FUZZ_SIZE},
    "hochschild-theta": {"--ring": FUZZ_RING, "--seq": FUZZ_SEQ, "--arity": FUZZ_SIZE, "--cochain": FUZZ_HOCHSCHILD},
    "berger-subcomplex": {"--poset": FUZZ_POSET, "--max-degree": FUZZ_SIZE},
}
REPEATABLE = {"--inner", "--cochain"}


# sha256 of the stdout of one call per output shape, pinned like THETA_GOLDEN
CLI_GOLDEN = {
    "diff": (
        ["diff", "--seq", "1,2,3,1,2"],
        "28565d95c168ffe5c5d5999cf402d148d973b273c05ba21b946a470617b2ec94",
    ),
    "coaction": (
        ["coaction", "--simplex", "0,1,2,3", "--seq", "1,2,1,3"],
        "b663c486e158221faccd319b118c7afe2b3b53fc703690a8ecd3813584687735",
    ),
    "cup": (
        ["cup", "--complex", RP2, "--x", RP2_X, "--y", RP2_X, "--i", "1"],
        "3507d52bd1c1d42b6a0737d6c63dafe3bc6e9d481228df0667f939d50dcd8d62",
    ),
    "steenrod": (
        ["steenrod", "--complex", RP2, "--x", RP2_X, "--i", "1"],
        "3aadd676d816f5d11923f27837e4b4560128bca7f508f00c6262204a3bf099b5",
    ),
    "homology": (
        ["homology", "--arity", "3", "--max-degree", "3"],
        "b1061e26088764d80d3a600d06634437826442a73106fe1c8807909206f0edd8",
    ),
    "berger-subcomplex": (
        ["berger-subcomplex", "--poset", POSET_21, "--max-degree", "3"],
        "2b4259620a05060522be3dfa7c9420dc6737161f3ffecf27fd35558fa58e80ff",
    ),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def assert_exits_2_with_one_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestVerbs:
    def test_diff_display(self, capsys):
        data = run_json(capsys, "diff", "--seq", "1,2,3,1,2")
        assert data["arity"] == 3 and data["degree"] == 1
        terms = {tuple(t["seq"]): t["coeff"] for t in data["terms"]}
        assert terms == {
            (2, 3, 1, 2): 1,
            (1, 3, 1, 2): -1,
            (1, 2, 3, 2): -1,
            (1, 2, 3, 1): 1,
        }

    def test_complexity(self, capsys):
        data = run_json(capsys, "complexity", "--seq", "1,2,1,2")
        assert data["complexity"] == 3

    def test_basis(self, capsys):
        data = run_json(capsys, "basis", "--arity", "2", "--degree", "1", "--max-complexity", "2")
        assert data["basis"] == [[1, 2, 1], [2, 1, 2]]

    def test_act(self, capsys):
        data = run_json(capsys, "act", "--seq", "1,2,1,2", "--perm", "2,1")
        assert data["terms"] == [{"coeff": -1, "seq": [2, 1, 2, 1]}]

    def test_compose(self, capsys):
        data = run_json(capsys, "compose", "--outer", "1,2", "--inner", "1,2", "--inner", "1")
        assert data["terms"] == [{"coeff": 1, "seq": [1, 2, 3]}]

    def test_homology_point(self, capsys):
        data = run_json(capsys, "homology", "--arity", "2", "--max-degree", "5")
        assert data["homology"]["0"] == {"rank": 1, "torsion": []}
        for q in range(1, 5):
            assert data["homology"][str(q)] == {"rank": 0, "torsion": []}
        assert data["homology"]["5"]["truncated"] is True

    def test_homology_filtration_stage(self, capsys):
        data = run_json(
            capsys, "homology", "--arity", "3", "--max-degree", "4", "--max-complexity", "2"
        )
        assert [data["homology"][str(q)]["rank"] for q in range(3)] == [1, 3, 2]

    def test_coaction(self, capsys):
        data = run_json(capsys, "coaction", "--simplex", "0,1", "--seq", "1,2")
        assert data["terms"] == [
            {"coeff": 1, "simplices": [[0], [0, 1]]},
            {"coeff": 1, "simplices": [[0, 1], [1]]},
        ]

    def test_cup_and_steenrod(self, capsys):
        data = run_json(capsys, "cup", "--complex", RP2, "--x", RP2_X, "--y", RP2_X, "--i", "1")
        assert data["dim"] == 1
        data = run_json(capsys, "steenrod", "--complex", RP2, "--x", RP2_X, "--i", "1")
        assert data["dim"] == 2
        assert data["values"]  # nonzero cocycle

    def test_hochschild_theta(self, capsys):
        x = json.dumps({"degree": 1, "values": [{"args": [1], "value": [0, 1]}]})
        data = run_json(
            capsys,
            "hochschild-theta",
            "--ring", "dual-numbers",
            "--seq", "1,2",
            "--cochain", x,
            "--cochain", x,
        )
        assert data["degree"] == 2
        assert data["values"] == []  # x * x = 0 in the dual numbers

    def test_hochschild_theta_of_one_entry_at_degree_40(self, capsys):
        # a loop over the 2^40 keys of the output degree would never finish
        x1 = {"degree": 1, "values": [{"args": [1], "value": [0, 1, 0]}, {"args": [2], "value": [1, 0, 1]}]}
        x2 = {"degree": 40, "values": [{"args": [2] * 40, "value": [0, 0, 1]}]}
        data = run_json(
            capsys,
            "hochschild-theta",
            "--ring", "upper-triangular",
            "--seq", "1,2,1",
            "--cochain", json.dumps(x1),
            "--cochain", json.dumps(x2),
        )
        assert data == {"degree": 40, "values": [{"args": [2] * 40, "value": [1, 0, 1]}]}

    @pytest.mark.parametrize("ring,seq", sorted(THETA_GOLDEN), ids=lambda v: v.replace(",", ""))
    def test_hochschild_theta_golden_bytes(self, capsys, ring, seq):
        ring_text, rank = THETA_RINGS[ring]
        argv = ["hochschild-theta", "--ring", ring_text, "--seq", seq]
        for shift, degree in enumerate(THETA_WORDS[seq]):
            argv += ["--cochain", theta_cochain(rank, degree, shift)]
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["values"]
        assert hashlib.sha256(out.encode()).hexdigest() == THETA_GOLDEN[ring, seq]

    @pytest.mark.parametrize("verb", sorted(CLI_GOLDEN))
    def test_golden_bytes(self, capsys, verb):
        argv, digest = CLI_GOLDEN[verb]
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_berger_subcomplex(self, capsys):
        data = run_json(capsys, "berger-subcomplex", "--poset", POSET_21, "--max-degree", "3")
        assert data["bases"]["0"] == [[1, 2], [2, 1]]
        assert data["bases"]["1"] == [[2, 1, 2]]
        assert data["homology"]["0"] == {"rank": 1, "torsion": []}
        assert data["homology"]["2"] == {"rank": 0, "torsion": []}


class TestContract:
    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "homology", "--arity", "2", "--max-degree", "3")
        _, second = run(capsys, "homology", "--arity", "2", "--max-degree", "3")
        assert first == second

    def test_parser_reuse_keeps_calls_independent(self, capsys):
        # the parser is built once per process: append options, usage errors
        # and domain errors must not leak from one call into the next
        calls = [
            ["compose", "--outer", "1,2", "--inner", "1,2", "--inner", "1"],
            ["hochschild-theta", "--ring", "dual-numbers", "--seq", "1,2,1", "--cochain", THETA_X, "--cochain", THETA_X],
            ["diff", "--seq", "1,2", "--arity", "x"],
            ["diff", "--seq", "1,2,3,1,2"],
            ["diff", "--seq", "1,1,2"],
            ["act", "--seq", "1,2,1,2", "--perm", "2,1"],
            ["coaction", "--simplex", "0,1,2", "--seq", "1,2,1"],
        ]
        first = [run(capsys, *argv) for argv in calls]
        assert [code for code, _ in first] == [0, 0, 2, 0, 2, 0, 0]
        assert [run(capsys, *argv) for argv in calls] == first
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: seqop")

    def test_malformed_sequence_exits_2(self, capsys):
        code, _ = run(capsys, "diff", "--seq", "1,two")
        assert code == 2

    def test_out_of_range_entry_exits_2(self, capsys):
        code, _ = run(capsys, "diff", "--seq", "1,3", "--arity", "2")
        assert code == 2

    def test_degenerate_word_exits_2(self, capsys):
        code, _ = run(capsys, "diff", "--seq", "1,1,2")
        assert code == 2

    def test_semantic_error_exits_1(self, capsys):
        # a non-cocycle fed to the Steenrod square is a domain error
        code, _ = run(capsys, "steenrod", "--complex", RP2, "--x", EDGE, "--i", "1")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["cup", "--complex", DELTA2, "--x", '{"dim": 1, "values": [{"simplex": [0, 7], "coeff": 1}]}', "--y", EDGE],
            ["coaction", "--simplex", "0,1", "--seq", "1,2", "--complex", '{"vertices": 3, "simplices": [[0, 2]]}'],
            ["hochschild-theta", "--ring", NONASSOCIATIVE, "--seq", "1", "--cochain", THETA_X],
            ["act", "--seq", "1,2", "--perm", "1,2,3"],
            ["steenrod", "--complex", DELTA2, "--x", '{"dim": 1, "values": [{"simplex": [0, 7], "coeff": 0}]}', "--i", "1"],
        ],
        ids=[
            "cochain-simplex-outside-complex",
            "coaction-simplex-outside-complex",
            "ring-nonassociative",
            "act-perm-wrong-size",
            "cochain-zero-outside-complex",
        ],
    )
    def test_well_formed_mismatch_exits_1(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["cup", "--complex", DELTA2, "--x", '{"values": []}', "--y", EDGE],
            ["cup", "--complex", DELTA2, "--x", EDGE.replace('"coeff": 1', '"coeff": 1.5'), "--y", EDGE],
            ["coaction", "--simplex", "0,1,2", "--seq", "0,2"],
            ["coaction", "--simplex", "0,1,2", "--seq", "1,1"],
            ["cup", "--complex", DELTA2, "--x", EDGE.replace("}]", '}, {"simplex": [0, 1], "coeff": 2}]'), "--y", EDGE],
            ["diff"],
            ["diff", "--seq", "1,2", "--arity", "x"],
            ["bogus"],
            [],
            ["homology", "--arity", "2"],
            ["act", "--seq", "1,2", "--perm", "1,1"],
            ["act", "--seq", "1,2", "--perm", "0,1"],
            ["cup", "--complex", DELTA2, "--x", '{"dim": 1, "values": [{"simplex": [0, 1, 2], "coeff": 0}]}', "--y", EDGE],
        ],
        ids=[
            "cochain-without-dim",
            "fractional-coeff",
            "coaction-entry-0",
            "coaction-degenerate",
            "cochain-simplex-repeated",
            "missing-option",
            "option-not-int",
            "unknown-verb",
            "no-verb",
            "homology-without-max-degree",
            "act-perm-repeated",
            "act-perm-entry-0",
            "cochain-zero-on-wrong-dimension",
        ],
    )
    def test_malformed_exits_2_with_one_line(self, capsys, argv):
        assert_exits_2_with_one_line(capsys, argv)

    @pytest.mark.parametrize(
        "ring,cochain",
        [
            ("dual-numbers", "[1]"),
            ("dual-numbers", '{"values": []}'),
            ("dual-numbers", '{"degree": true, "values": []}'),
            ("dual-numbers", '{"degree": 1, "values": 5}'),
            ("dual-numbers", '{"degree": 1, "values": [3]}'),
            ("dual-numbers", '{"degree": 1, "values": [{"value": [0, 1]}]}'),
            ("dual-numbers", '{"degree": 1, "values": [{"args": ["a"], "value": [0, 1]}]}'),
            ("dual-numbers", '{"degree": 1, "values": [{"args": [1], "value": 5}]}'),
            ("dual-numbers", '{"degree": 1, "values": [{"args": [1], "value": [0, 1, 7]}]}'),
            ("dual-numbers", '{"degree": 1, "values": [{"args": [1], "value": [5]}]}'),
            ("dual-numbers", '{"degree": 1, "values": [{"args": [1, 1], "value": [0, 1]}]}'),
            ("dual-numbers", '{"degree": 1, "values": [{"args": [5], "value": [0, 1]}]}'),
            ("dual-numbers", '{"degree": 1, "values": [{"args": [0], "value": [0, 1]}]}'),
            ("dual-numbers", '{"degree": 1, "values": [{"args": [1], "value": [0, 1]}, {"args": [1], "value": [1, 0]}]}'),
            ("dual-numbers", '{"degree": -1, "values": []}'),
            ("dual-numbers", '{"degree": 1, "values": [{"args": [0], "value": [0, 0]}]}'),
            ("dual-numbers", '{"degree": 1, "values": [{"args": [1, 1], "value": [0, 0]}]}'),
            ("[1]", THETA_X),
            ('{"table": [[[1]]]}', THETA_X),
            ('{"rank": 1}', THETA_X),
            ('{"rank": 0, "table": []}', THETA_X),
            ('{"rank": -1, "table": []}', THETA_X),
            (json.dumps({"rank": 2, "names": ["1"], "table": RING_2}), THETA_X),
            (json.dumps({"rank": 3, "table": RING_2}), THETA_X),
            (json.dumps({"rank": 2, "table": RING_2[:1]}), THETA_X),
            (json.dumps({"rank": 2, "unit": [1, 0, 0], "table": RING_2}), THETA_X),
        ],
        ids=[
            "cochain-not-object",
            "cochain-without-degree",
            "cochain-bool-degree",
            "values-not-list",
            "value-not-object",
            "value-without-args",
            "args-not-integers",
            "value-not-list",
            "value-too-long",
            "value-too-short",
            "args-wrong-length",
            "args-index-above-rank",
            "args-index-0",
            "args-repeated",
            "negative-degree",
            "zero-value-args-index-0",
            "zero-value-args-wrong-length",
            "ring-not-object",
            "ring-without-rank",
            "ring-without-table",
            "ring-rank-0",
            "ring-rank-negative",
            "ring-names-short",
            "ring-rank-above-table",
            "ring-table-short",
            "ring-unit-long",
        ],
    )
    def test_malformed_theta_input_exits_2(self, capsys, ring, cochain):
        argv = ["hochschild-theta", "--ring", ring, "--seq", "1,2", "--cochain", THETA_X, "--cochain", cochain]
        assert_exits_2_with_one_line(capsys, argv)

    @pytest.mark.parametrize(
        "args,message",
        [([0], "key (0,) must use nonzero basis indices 1..1"), ([1, 1], "key (1, 1) does not have degree 1")],
    )
    def test_zero_value_on_bad_args_names_the_args(self, capsys, args, message):
        cochain = json.dumps({"degree": 1, "values": [{"args": args, "value": [0, 0]}]})
        argv = ["hochschild-theta", "--ring", "dual-numbers", "--seq", "1,2", "--cochain", THETA_X, "--cochain", cochain]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "poset",
        [
            {"b": [], "order": [1, 2]},
            {"k": 2, "order": [1, 2]},
            {"k": 2, "b": []},
            {"k": 2, "b": [{"pair": [1, 1], "val": 1}], "order": [1, 2]},
            {"k": 4, "b": [{"pair": [1, 5], "val": 1}], "order": [1, 2, 3, 4]},
            {"k": 2, "b": [{"pair": [1, 2], "val": -1}], "order": [1, 2]},
            {"k": 2, "b": [], "order": [1, 1]},
            {"k": 3, "b": [], "order": [1, 2]},
            {"k": 2, "b": [{"pair": [1, 2], "val": 1}, {"pair": [2, 1], "val": 2}], "order": [1, 2]},
            {"k": -1, "b": [], "order": []},
        ],
        ids=[
            "without-k",
            "without-b",
            "without-order",
            "pair-1-1",
            "pair-1-5",
            "negative-val",
            "order-repeats",
            "order-short",
            "pair-repeated",
            "negative-k",
        ],
    )
    def test_malformed_poset_exits_2(self, capsys, poset):
        argv = ["berger-subcomplex", "--max-degree", "2", "--poset", json.dumps(poset)]
        assert_exits_2_with_one_line(capsys, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["cup", "--complex", "[[0, 1, 2]]", "--x", EDGE, "--y", EDGE],
            ["steenrod", "--complex", '{"vertices": 3}', "--x", EDGE, "--i", "0"],
            ["coaction", "--simplex", "0,1", "--seq", "1,2", "--complex", '"0,1"'],
            ["cup", "--complex", '{"vertices": 2, "simplices": [[1, 0]]}', "--x", EDGE, "--y", EDGE],
            ["steenrod", "--complex", '{"vertices": 2, "simplices": [[0, 0, 1]]}', "--x", EDGE, "--i", "0"],
            ["coaction", "--simplex", "0,1", "--seq", "1,2", "--complex", '{"vertices": 2, "simplices": [[1, 0]]}'],
            [
                "cup",
                "--complex", '{"vertices": 2, "simplices": [[0, 5]]}',
                "--x", '{"dim": 1, "values": [{"simplex": [0, 5], "coeff": 1}]}',
                "--y", '{"dim": 0, "values": [{"simplex": [5], "coeff": 1}]}',
            ],
            [
                "cup",
                "--complex", '{"vertices": 2, "simplices": [[-1, 0]]}',
                "--x", '{"dim": 1, "values": [{"simplex": [-1, 0], "coeff": 1}]}',
                "--y", '{"dim": 0, "values": [{"simplex": [0], "coeff": 1}]}',
            ],
            ["cup", "--complex", '{"vertices": -1, "simplices": []}', "--x", EDGE, "--y", EDGE],
            ["cup", "--complex", '{"vertices": 2, "simplices": [[]]}', "--x", EDGE, "--y", EDGE],
            ["cup", "--complex", DELTA2, "--x", '{"dim": -1, "values": []}', "--y", EDGE],
            ["cup", "--complex", DELTA2, "--x", '{"dim": 1, "values": [{"simplex": ["a"], "coeff": 1}]}', "--y", EDGE],
            ["cup", "--complex", DELTA2, "--x", '{"dim": 1, "values": [{"simplex": [1, 0], "coeff": 1}]}', "--y", EDGE],
            ["cup", "--complex", DELTA2, "--x", '{"dim": 1, "values": [{"simplex": [0, 1, 2], "coeff": 1}]}', "--y", EDGE],
            ["coaction", "--simplex", "2,1", "--seq", "1,2"],
            ["coaction", "--simplex", "", "--seq", "1,2"],
        ],
        ids=[
            "cup-complex-not-object",
            "steenrod-complex-without-simplices",
            "coaction-complex-not-object",
            "cup-simplex-descending",
            "steenrod-simplex-repeated-vertex",
            "coaction-simplex-descending",
            "cup-vertex-above-range",
            "cup-vertex-negative",
            "cup-vertices-negative",
            "cup-simplex-empty",
            "cochain-dim-negative",
            "cochain-simplex-not-integers",
            "cochain-simplex-descending",
            "cochain-simplex-wrong-dim",
            "coaction-arg-descending",
            "coaction-arg-empty",
        ],
    )
    def test_malformed_complex_exits_2(self, capsys, argv):
        assert_exits_2_with_one_line(capsys, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["basis", "--arity", "-1", "--degree", "0"],
            ["basis", "--arity", "2", "--degree", "-1"],
            ["basis", "--arity", "2", "--degree", "1", "--max-complexity", "-1"],
            ["homology", "--arity", "-1", "--max-degree", "2"],
            ["homology", "--arity", "2", "--max-degree", "-1"],
            ["homology", "--arity", "2", "--max-degree", "2", "--max-complexity", "-1"],
            ["berger-subcomplex", "--max-degree", "-1", "--poset", POSET_21],
            ["cup", "--complex", RP2, "--x", RP2_X, "--y", RP2_X, "--i", "-1"],
            ["steenrod", "--complex", RP2, "--x", RP2_X, "--i", "-1"],
            ["compose", "--outer", "1,2", "--outer-arity", "-1", "--inner", "1", "--inner", "1"],
            ["diff", "--seq", "1,2", "--arity", "-1"],
        ],
        ids=[
            "basis-arity",
            "basis-degree",
            "basis-max-complexity",
            "homology-arity",
            "homology-max-degree",
            "homology-max-complexity",
            "berger-max-degree",
            "cup-i",
            "steenrod-i",
            "compose-outer-arity",
            "diff-arity",
        ],
    )
    def test_negative_size_exits_2(self, capsys, argv):
        assert_exits_2_with_one_line(capsys, argv)

    @pytest.mark.parametrize("verb", sorted(FUZZ_FLAGS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fuzz_boundary(self, verb, data):
        # every flag of the verb, now and then one left out or a repeatable one given twice
        missing = data.draw(mostly(st.none(), st.sampled_from(sorted(FUZZ_FLAGS[verb]))))
        argv = [verb]
        for flag, values in FUZZ_FLAGS[verb].items():
            if flag != missing:
                for _ in range(data.draw(st.integers(1, 2)) if flag in REPEATABLE else 1):
                    argv += [flag, data.draw(values)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    def test_verify_single_criterion(self, capsys):
        code = main(["verify", "--criteria", "A5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS A5" in out


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner)
    | st.lists(st.integers())
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner)
    | st.dictionaries(st.integers(), inner),
    max_leaves=30,
)


class TestDumps:
    @settings(max_examples=150, deadline=None)
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_edge_cases(self):
        cases = [
            [],
            {},
            [[], {}, [[]], {"": {}}],
            [True, False, None, 0, -1, 1.5],
            ["\u00e9\u4e2d\U0001f600", "\n\"\\"],
            {"b": [1, 2, 3], "a": {"z": [True, 1], "y": None}},
            {2: "x", 10: ["y"]},
        ]
        for value in cases:
            assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)
