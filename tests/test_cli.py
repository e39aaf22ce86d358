import json

import pytest

from seqop import simplicial
from seqop.cli import main


DELTA2 = json.dumps({"vertices": 3, "simplices": [[0, 1, 2]]})
EDGE = json.dumps({"dim": 1, "values": [{"simplex": [0, 1], "coeff": 1}]})


THETA_X = json.dumps({"degree": 1, "values": [{"args": [1], "value": [0, 1]}]})


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
        rp2 = json.dumps(simplicial.projective_plane().to_json())
        x = json.dumps(
            simplicial.mod2_cohomology_basis(simplicial.projective_plane(), 1)[0].to_json()
        )
        data = run_json(capsys, "cup", "--complex", rp2, "--x", x, "--y", x, "--i", "1")
        assert data["dim"] == 1
        data = run_json(capsys, "steenrod", "--complex", rp2, "--x", x, "--i", "1")
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

    def test_berger_subcomplex(self, capsys):
        poset = json.dumps({"k": 2, "b": [{"pair": [1, 2], "val": 1}], "order": [2, 1]})
        data = run_json(capsys, "berger-subcomplex", "--poset", poset, "--max-degree", "3")
        assert data["bases"]["0"] == [[1, 2], [2, 1]]
        assert data["bases"]["1"] == [[2, 1, 2]]
        assert data["homology"]["0"] == {"rank": 1, "torsion": []}
        assert data["homology"]["2"] == {"rank": 0, "torsion": []}


class TestContract:
    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "homology", "--arity", "2", "--max-degree", "3")
        _, second = run(capsys, "homology", "--arity", "2", "--max-degree", "3")
        assert first == second

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
        rp2 = json.dumps(simplicial.projective_plane().to_json())
        x = json.dumps({"dim": 1, "values": [{"simplex": [0, 1], "coeff": 1}]})
        code, _ = run(capsys, "steenrod", "--complex", rp2, "--x", x, "--i", "1")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["cup", "--complex", DELTA2, "--x", '{"values": []}', "--y", EDGE],
            ["cup", "--complex", DELTA2, "--x", EDGE.replace('"coeff": 1', '"coeff": 1.5'), "--y", EDGE],
            ["coaction", "--simplex", "0,1,2", "--seq", "0,2"],
            ["coaction", "--simplex", "0,1,2", "--seq", "1,1"],
        ],
        ids=["cochain-without-dim", "fractional-coeff", "coaction-entry-0", "coaction-degenerate"],
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
            ("[1]", THETA_X),
            ('{"table": [[[1]]]}', THETA_X),
            ('{"rank": 1}', THETA_X),
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
            "ring-not-object",
            "ring-without-rank",
            "ring-without-table",
        ],
    )
    def test_malformed_theta_input_exits_2(self, capsys, ring, cochain):
        argv = ["hochschild-theta", "--ring", ring, "--seq", "1,2", "--cochain", THETA_X, "--cochain", cochain]
        assert_exits_2_with_one_line(capsys, argv)

    @pytest.mark.parametrize(
        "poset",
        [
            {"b": [], "order": [1, 2]},
            {"k": 2, "order": [1, 2]},
            {"k": 2, "b": []},
            {"k": 2, "b": [{"pair": [1, 1], "val": 1}], "order": [1, 2]},
            {"k": 4, "b": [{"pair": [1, 5], "val": 1}], "order": [1, 2, 3, 4]},
        ],
        ids=["without-k", "without-b", "without-order", "pair-1-1", "pair-1-5"],
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
        ],
        ids=["cup-complex-not-object", "steenrod-complex-without-simplices", "coaction-complex-not-object"],
    )
    def test_malformed_complex_exits_2(self, capsys, argv):
        assert_exits_2_with_one_line(capsys, argv)

    def test_verify_single_criterion(self, capsys):
        code = main(["verify", "--criteria", "A5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS A5" in out
