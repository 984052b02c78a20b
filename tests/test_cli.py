import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from weylgraded.zfin import FinSet, necklace_count
from weylgraded.picard import PicElement, compose, identity, iota, omega, shift
from weylgraded import gwa
from weylgraded.lattices import iota_lattice
from weylgraded.skew import RationalPoly
from weylgraded.cli import ExpressionError, build_parser, parse_expression, run_command


def fs(*xs):
    return FinSet(xs)


class TestParseExpression:
    def test_normal_form_already(self):
        assert parse_expression("S^2 * i{0,2}") == PicElement(1, 2, fs(0, 2))

    def test_omega_square(self):
        assert parse_expression("w * w") == identity()

    def test_rewrite_needed(self):
        assert parse_expression("i{0} * S") == PicElement(1, 1, fs(-1))

    def test_whitespace_insensitive(self):
        assert parse_expression(" S^-2*i{ -1 , 3 } *w ") == parse_expression(
            "S^-2 * i{-1,3} * w"
        )

    def test_bare_terms(self):
        assert parse_expression("e") == identity()
        assert parse_expression("S") == shift(1)
        assert parse_expression("w") == omega()
        assert parse_expression("i{4}") == iota(fs(4))

    def test_composition_is_left_to_right(self):
        lhs = parse_expression("w * S^3 * i{1}")
        rhs = compose(compose(omega(), shift(3)), iota(fs(1)))
        assert lhs == rhs

    def test_empty_input(self):
        with pytest.raises(ExpressionError):
            parse_expression("   ")

    def test_error_position(self):
        with pytest.raises(ExpressionError) as info:
            parse_expression("S^2 * q")
        assert "position 6" in str(info.value)

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse_expression("S^2 extra")

    def test_round_trip(self):
        for text in ("e", "S", "S^-3", "i{0,2}", "S^2 * i{-1} * w", "w"):
            F = parse_expression(text)
            assert parse_expression(str(F)) == F


class TestRunCommand:
    def test_pic_eval_json(self, capsys):
        code = run_command(["pic", "eval", "i{0} * S", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"a": 1, "b": 1, "J": [-1]}

    def test_pic_pow(self, capsys):
        code = run_command(["pic", "pow", "S * i{0}", "2", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"a": 1, "b": 2, "J": [-1, 0]}

    def test_pic_inv(self, capsys):
        assert run_command(["pic", "inv", "S * i{0}", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"a": 1, "b": -1, "J": [1]}

    def test_pic_conj(self, capsys):
        assert run_command(["pic", "conj", "S^2", "w", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"a": 1, "b": -2, "J": []}

    def test_classify_canonical(self, capsys):
        code = run_command(["classify", "canonical", "S^2 * i{0,2}", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pair"] == {"J": [], "n": 2}
        assert data["conjugator"] == {"a": 1, "b": 0, "J": [2]}

    def test_pic_canonical_is_removed(self, capsys):
        assert run_command(["pic", "canonical", "S^2 * i{0,2}", "--json"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_classify_same_class(self, capsys):
        code = run_command(["classify", "same-class", "S^2 * i{0}", "S^2 * i{1}", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"same_class": True}

    def test_classify_domain_error_exit_one(self, capsys):
        code = run_command(["classify", "canonical", "i{0}"])
        assert code == 1
        assert "not generative" in capsys.readouterr().err

    def test_expression_error_exit_two(self, capsys):
        code = run_command(["pic", "eval", "S^^2"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_usage_error_exit_two(self):
        assert run_command(["pic", "unknown-subcommand"]) == 2
        assert run_command([]) == 2

    def test_necklace_count(self, capsys):
        assert run_command(["necklace", "count", "4"]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_necklace_count_at_the_digit_limit(self, capsys):
        assert run_command(["necklace", "count", "14284"]) == 0
        text = capsys.readouterr().out.strip()
        assert len(text) <= 4300
        assert int(text) == necklace_count(14284)
        assert run_command(["necklace", "count", "14284", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == necklace_count(14284)

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    @pytest.mark.parametrize("n", ["14285", "1000000"])
    def test_necklace_count_past_the_digit_limit(self, capsys, n, fmt):
        assert run_command(["necklace", "count", n, *fmt]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: necklace count is limited to n <= 14284, whose counts "
            f"have at most 4300 digits; got n = {n}\n"
        )

    def test_necklace_enum(self, capsys):
        assert run_command(["necklace", "enum", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["classes"] == [
            {"J": [], "n": 2},
            {"J": [0], "n": 2},
            {"J": [0, 1], "n": 2},
        ]

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    @pytest.mark.parametrize("n", ["23", "1000000000"])
    def test_necklace_enum_past_the_class_limit(self, capsys, n, fmt):
        assert run_command(["necklace", "enum", n, *fmt]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: necklace enumeration is limited to NECKLACE_ENUM_MAX_CLASSES = "
            f"262144 classes, that is n <= 22; got n = {n}\n"
        )

    def test_pic_pow_past_the_set_limit(self, capsys, monkeypatch):
        monkeypatch.setattr("weylgraded.picard.POWER_MAX_SET_SIZE", 1000)
        assert run_command(["pic", "pow", "S*i{0}", "1000"]) == 0
        capsys.readouterr()
        assert run_command(["pic", "pow", "S*i{0}", "1001"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: power would build an involution set of 1001 elements, "
            "over the limit POWER_MAX_SET_SIZE = 1000\n"
        )

    def test_pic_pow_refusal_names_the_size_of_the_power(self, capsys):
        assert run_command(["pic", "pow", "S*i{0}", "2000000"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: power would build an involution set of 2000000 elements, "
            "over the limit POWER_MAX_SET_SIZE = 1000000\n"
        )

    def test_ring_present(self, capsys):
        assert run_command(["ring", "present", "--J", "0", "--n", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 2
        assert data["f"]["num"] == ["1", "1"]  # z + 1
        assert data["fJ"]["num"] == ["0", "1"]  # z

    def test_ring_pieces_matches_idealizer_display(self, capsys):
        code = run_command(
            ["ring", "pieces", "--J", "0", "--n", "1", "--min", "-2", "--max", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "S_-2 = (z) y^2 k[z]",
            "S_-1 = (z) y k[z]",
            "S_0 = k[z]",
            "S_1 = (z) y^-1 k[z]",
            "S_2 = (z) y^-2 k[z]",
        ]

    def test_ring_oracle_agrees(self, capsys):
        assert run_command(
            ["ring", "oracle", "--J", "0", "--n", "1", "--min", "-2", "--max", "2", "--json"]
        ) == 0
        oracle = json.loads(capsys.readouterr().out)
        assert run_command(
            ["ring", "pieces", "--J", "0", "--n", "1", "--min", "-2", "--max", "2", "--json"]
        ) == 0
        closed = json.loads(capsys.readouterr().out)
        assert oracle == closed

    def test_ring_verify(self, capsys):
        assert run_command(["ring", "verify", "--J", "0,2", "--n", "3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"closure": True, "embedding": True}

    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_ring_verify_window_must_be_positive(self, window, capsys):
        assert run_command(["ring", "verify", "--J", "0", "--n", "1", "--window", window]) == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["pieces", "oracle", "compare"])
    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_ring_reversed_degree_range_is_a_usage_error(self, cmd, fmt, capsys):
        argv = ["ring", cmd, "--J", "0", "--n", "1", "--min", "3", "--max", "1", *fmt]
        assert run_command(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "usage:" in err
        assert "--min must not exceed --max, got --min 3 --max 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ring", "present", "--J", "0", "--n", "3000"],
            ["ring", "pieces", "--J", "0", "--n", "1000", "--min", "-5", "--max", "5"],
            ["ring", "oracle", "--J", "0", "--n", "1000", "--min", "-5", "--max", "5", "--json"],
            ["mod", "hom", "--J", "", "--J2", ",".join(map(str, range(0, 20000, 2)))],
            ["mod", "lattice", "--J", "-2500"],
            # refused at the top piece, before the 1599 lower ones are multiplied out
            ["ring", "pieces", "--J", "", "--n", "1", "--min", "1", "--max", "1600"],
        ],
    )
    def test_output_past_the_printed_digits(self, argv, capsys):
        assert run_command(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "over the limit MAX_PRINTED_DIGITS = 4300" in err

    def test_ring_inadmissible_exit_one(self, capsys):
        assert run_command(["ring", "present", "--J", "5", "--n", "2"]) == 1

    @pytest.mark.parametrize("J, n", [("0", "2"), ("{0}", "1")])
    def test_ring_compare_agrees(self, J, n, capsys):
        assert run_command(["ring", "compare", "--J", J, "--n", n, "--min", "-2", "--max", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 + 5
        assert not any("MISMATCH" in line for line in out)

    def test_ring_compare_json(self, capsys):
        argv = ["--J", "0,2", "--n", "3", "--min", "-3", "--max", "3", "--json"]
        assert run_command(["ring", "compare", *argv]) == 0
        data = json.loads(capsys.readouterr().out)
        assert run_command(["ring", "pieces", *argv]) == 0
        assert data["closed_form"] == json.loads(capsys.readouterr().out)
        assert data["oracle"] == data["closed_form"]
        assert data["mismatches"] == []

    def test_ring_compare_names_each_mismatched_degree(self, capsys, monkeypatch):
        true_roots = gwa._oracle_roots

        def wrong_at_one(J, n, j):
            exps, p = true_roots(J, n, j)
            return ({**exps, 7: 1} if j == 1 else exps), p

        monkeypatch.setattr(gwa, "_oracle_roots", wrong_at_one)
        assert run_command(["ring", "compare", "--J", "0", "--n", "1"]) == 1
        out, err = capsys.readouterr()
        rows = {line.split()[0]: line for line in out.splitlines()[2:]}
        assert [j for j, line in rows.items() if "MISMATCH" in line] == ["1"]
        assert err == "error: the closed form and the oracle disagree at j = [1]\n"

    def test_ring_compare_inadmissible_pair_is_a_domain_error(self, capsys):
        assert run_command(["ring", "compare", "--J", "5", "--n", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: J = {5} is not a subset of [0, 1)\n"

    def test_ring_verify_past_the_work_limit(self, capsys):
        assert run_command(["ring", "verify", "--J", "0", "--n", "1", "--window", "80"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "over the limit RING_CLOSURE_MAX_WORK = 20000000" in err

    def test_classify_table(self, capsys):
        assert run_command(["classify", "table", "--max-n", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "rank 1: 2 classes",
            "  S({}, 1):  f = z,  idealizer factor = 1   [full GWA, A itself]",
            "  S({0}, 1):  f = 1,  idealizer factor = z",
            "",
            "rank 2: 3 classes",
            "  S({}, 2):  f = z^2 + z,  idealizer factor = 1   [full GWA, Veronese of A]",
            "  S({0}, 2):  f = z + 1,  idealizer factor = z",
            "  S({0,1}, 2):  f = 1,  idealizer factor = z^2 + z",
            "",
            "rank 3: 4 classes",
            "  S({}, 3):  f = z^3 + 3 z^2 + 2 z,  idealizer factor = 1   [full GWA, Veronese of A]",
            "  S({0}, 3):  f = z^2 + 3 z + 2,  idealizer factor = z",
            "  S({0,1}, 3):  f = z + 2,  idealizer factor = z^2 + z",
            "  S({0,1,2}, 3):  f = 1,  idealizer factor = z^3 + 3 z^2 + 2 z",
            "",
        ]

    def test_classify_table_json(self, capsys):
        assert run_command(["classify", "table", "--max-n", "2", "--json"]) == 0
        ranks = json.loads(capsys.readouterr().out)["ranks"]
        assert [r["n"] for r in ranks] == [1, 2]
        assert [c["J"] for c in ranks[1]["classes"]] == [[], [0], [0, 1]]
        assert ranks[1]["classes"][0] == {
            "J": [],
            "f": {"num": ["0", "1", "1"], "den": ["1"]},
            "fJ": {"num": ["1"], "den": ["1"]},
            "tags": ["full GWA", "Veronese of A"],
        }

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    @pytest.mark.parametrize("n", ["22", "1000000000"])
    def test_classify_table_past_the_class_limit(self, capsys, n, fmt):
        assert run_command(["classify", "table", "--max-n", n, *fmt]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: classify table is limited to NECKLACE_ENUM_MAX_CLASSES = 262144 "
            f"classes in all, that is --max-n <= 21; got --max-n {n}\n"
        )

    def test_classify_table_counts_every_rank_against_the_limit(self, capsys, monkeypatch):
        monkeypatch.setattr("weylgraded.cli.NECKLACE_ENUM_MAX_CLASSES", 2 + 3 + 4)
        assert run_command(["classify", "table", "--max-n", "3"]) == 0
        capsys.readouterr()
        assert run_command(["classify", "table", "--max-n", "4"]) == 1
        assert "--max-n <= 3; got --max-n 4" in capsys.readouterr().err

    @pytest.mark.parametrize("max_n", ["0", "-1", "x"])
    def test_classify_table_max_n_must_be_positive(self, max_n, capsys):
        assert run_command(["classify", "table", "--max-n", max_n]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_mod_dset(self, capsys):
        assert run_command(["mod", "dset", "--J", "0,3", "--shift", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"exceptions": [0, 3]}

    def test_mod_lattice(self, capsys):
        assert run_command(["mod", "lattice", "--J", "0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["lo"] == 1 and data["hi"] == 1

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_mod_lattice_multiplies_each_generator_once(self, capsys, monkeypatch, fmt):
        # only the printed side is built, so no generator is multiplied out twice
        generators = iota_lattice(FinSet([-20])).generators
        assert len(generators) == 21
        calls = []
        of_roots = RationalPoly._of_roots

        def counted(roots):
            calls.append(roots)
            return of_roots(roots)

        # _of_roots multiplies out every root map, from_roots' included
        monkeypatch.setattr(RationalPoly, "_of_roots", staticmethod(counted))
        assert run_command(["mod", "lattice", "--J", "-20", *fmt]) == 0
        out = capsys.readouterr().out
        assert len(calls) == len(generators)
        if fmt:
            assert len(json.loads(out)["gens"]) == len(generators)
        else:
            assert len(out.splitlines()) == len(generators)

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    @pytest.mark.parametrize("cmd", ["count", "enum"])
    def test_necklace_nonpositive_n(self, capsys, cmd, fmt):
        assert run_command(["necklace", cmd, "0", *fmt]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: n must be a positive integer, got 0\n"

    def test_mod_hom(self, capsys):
        assert run_command(
            ["mod", "hom", "--J", "", "--shift", "0", "--J2", "0", "--shift2", "0", "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out) == {
            "generator": {"num": ["0", "1"], "den": ["1"]}
        }

    def test_mod_coker(self, capsys):
        assert run_command(
            ["mod", "coker", "--J", "0,3", "--J2", "", "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out) == {
            "support": [{"point": -3, "count": 1}, {"point": 0, "count": 1}]
        }

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["mod", "dset", "--J", "0", "--shift", "{s}"], "--shift {s} is"),
            (["mod", "hom", "--J", "0", "--J2", "", "--shift2", "{s}"], "--shift2 {s} is"),
            (["mod", "coker", "--J", "0", "--shift", "{s}", "--J2", ""], "--shift {s} is"),
            (["k0", "normalize", "{{}}@{s}"], "summand {{}}@{s} has a shift"),
            (["k0", "iso", "{{}}", "{{1}}+{{0}}@{s}"], "summand {{0}}@{s} has a shift"),
        ],
    )
    @pytest.mark.parametrize("sign", [1, -1])
    def test_shift_past_the_set_limit(self, argv, what, sign, capsys, monkeypatch):
        monkeypatch.setattr("weylgraded.picard.POWER_MAX_SET_SIZE", 1000)
        assert run_command([a.format(s=sign * 1000) for a in argv]) == 0
        capsys.readouterr()
        assert run_command([a.format(s=sign * 1001) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: {what.format(s=sign * 1001)} over the limit "
            "POWER_MAX_SET_SIZE = 1000 in absolute value\n"
        )

    def test_mod_lattice_shift_past_the_set_limit(self, capsys):
        assert run_command(["mod", "lattice", "--J", "0", "--shift", "-1000001"]) == 1
        assert capsys.readouterr().err == (
            "error: --shift -1000001 is over the limit POWER_MAX_SET_SIZE = 1000000 "
            "in absolute value\n"
        )

    def test_k0_normalize(self, capsys):
        assert run_command(["k0", "normalize", "{1,3}+{0,1,2}", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == [
            {"J": [1], "shift": 0},
            {"J": [0, 1, 2, 3], "shift": 0},
        ]

    def test_k0_iso(self, capsys):
        assert run_command(
            ["k0", "iso", "{1,3}+{0,1,2}+{0}", "{0,1,2,3}+{0,1}+{}", "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out) == {"isomorphic": True}

    @pytest.mark.parametrize("text", ["+", "{0}+", "{0}++{1}"])
    def test_k0_empty_summand_exit_two(self, text, capsys):
        assert run_command(["k0", "normalize", text]) == 2
        assert run_command(["k0", "iso", "{0}", text]) == 2
        err = capsys.readouterr().err
        assert err.count("empty summand") == 2

    def test_k0_free_and_empty_sums(self, capsys):
        assert run_command(["k0", "normalize", "{}"]) == 0
        assert run_command(["k0", "normalize", "0"]) == 0
        assert run_command(["k0", "normalize", ""]) == 0
        assert capsys.readouterr().out.splitlines() == ["i{}A", "0", "0"]

    def test_k0_witness(self, capsys):
        assert run_command(["k0", "witness", "--J", "1,3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"adds": [3, 1], "result": [4, 2, 0]}

    def test_k0_theta(self, capsys):
        assert run_command(["k0", "theta", "{0,3}-{}", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"a": 1, "b": 0, "J": [0, 3]}

    def test_k0_theta_whitespace_between_tokens(self, capsys):
        assert run_command(["k0", "theta", "2 {0} - {1}"]) == 0
        assert capsys.readouterr().out.strip() == "i{1}"

    def test_pic_eval_empty_iota(self, capsys):
        assert run_command(["pic", "eval", "i{}"]) == 0
        assert capsys.readouterr().out.strip() == "e"

    def test_k0_bare_summands(self, capsys):
        assert run_command(["k0", "normalize", "1,3+0@2", "--json"]) == 0
        bare = json.loads(capsys.readouterr().out)
        assert run_command(["k0", "normalize", " {1,3} + {0} @ +2 ", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == bare

    @pytest.mark.parametrize(
        "argv, position",
        [
            (["k0", "normalize", "{0}+{1}+{x}"], 9),
            (["k0", "normalize", "{0}+{1}@q"], 8),
            (["mod", "dset", "--J", "0,x"], 2),
            (["k0", "theta", "{0}{1}"], 3),
            (["ring", "compare", "--J", "x", "--n", "1"], 0),
        ],
    )
    def test_syntax_error_position(self, argv, position, capsys):
        assert run_command(argv) == 2
        assert f"(at position {position})" in capsys.readouterr().err

    def test_verify_single_suite(self, capsys):
        assert run_command(["verify", "--suite", "zfin", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out


def _readme_examples():
    """(argv, expected first line or None) for each line of README's command-line examples."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command-line usage", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        prog, *argv = shlex.split(line, comments=True)
        assert prog == "weylgraded", line
        _, arrow, expected = line.partition("# -> ")
        examples.append((argv, expected.strip() if arrow else None))
    return examples


def test_readme_examples(capsys):
    examples = _readme_examples()
    assert sum(expected is not None for _, expected in examples) == 5
    for argv, expected in examples:
        for flags in ([], ["--json"]):
            assert run_command(argv + flags) == 0, argv + flags
            out = capsys.readouterr().out
            if expected is not None and not flags:
                assert out.splitlines()[0] == expected, argv


def test_readme_commands_parse():
    # every `weylgraded` line of every sh block, `verify` examples included
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```sh\n")[1:]]
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("weylgraded ")]
    assert len(lines) == 24
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_closed_stdout_exits_one_without_traceback(flags):
    # enum 16 prints far more than a pipe buffer holds, so the command is still writing
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "weylgraded", "necklace", "enum", "16", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.stdout.readline(200)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in err
