import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symideal import cli
from symideal.cli import run
from symideal.poly import parse_polynomial
from test_report_digests import PINNED_BY_CLI


def run_json(argv, tmp_path, name):
    path = tmp_path / name
    code = run(argv + ["--format", "json", "--out", str(path)])
    return code, json.loads(path.read_text())


class TestSpechtVerb:
    def test_shape_summary(self, tmp_path):
        code, record = run_json(["specht", "--n", "3", "--lambda", "2,1"], tmp_path, "s.json")
        assert code == 0
        result = record["results"][0]
        assert result["specht_count"] == 2
        assert len(result["ideal_generators"]) == 3
        assert result["higher_specht_count"] == 4
        assert record["schema_version"] == 1

    def test_worked_tableau(self, tmp_path):
        code, record = run_json(
            ["specht", "--n", "9", "--lambda", "4,3,2",
             "--tableau", "9,3,6,4/2,1,8/5,7"], tmp_path, "t.json")
        assert code == 0
        text = record["results"][0]["specht_polynomial"]
        from symideal.poly import parse_polynomial
        from symideal.specht import vandermonde

        expected = (vandermonde((9, 2, 5), 9) * vandermonde((3, 1, 7), 9)
                    * vandermonde((6, 8), 9))
        assert parse_polynomial(text, 9) == expected
        assert len(expected.terms) == 3 * 2 * 3 * 2 * 2  # under the term bound

    def test_trivial_shape(self, tmp_path):
        code, record = run_json(["specht", "--n", "3", "--lambda", "3"], tmp_path, "u.json")
        assert code == 0
        assert record["results"][0]["specht_polynomials"] == ["1"]

    def test_bad_partition_message(self):
        with pytest.raises(SystemExit):
            run(["specht", "--n", "3", "--lambda", "2,2"])


class TestTanisakiVerb:
    def test_small_case(self, tmp_path):
        code, record = run_json(["tanisaki", "--n", "4", "--lambda", "2,2"], tmp_path, "a.json")
        assert code == 0
        result = record["results"][0]
        assert result["colength"] == 6
        assert result["modes_agree"] is True
        assert result["decomposition"] == "S[4] + S[3, 1] + S[2, 2]"

    def test_column_shape(self, tmp_path):
        code, record = run_json(["tanisaki", "--n", "3", "--lambda", "1,1,1"], tmp_path, "b.json")
        assert code == 0
        assert record["results"][0]["colength"] == 6

    def test_resource_guard(self):
        with pytest.raises(SystemExit):
            run(["tanisaki", "--n", "7", "--lambda", "6,1"])
        with pytest.raises(SystemExit):
            run(["gr", "--n", "1", "--point", "3"])


class TestTable1Verb:
    def test_n3_passes(self, tmp_path):
        code, record = run_json(["table1", "--n", "3"], tmp_path, "t3.json")
        assert code == 0 and record["ok"]
        rows = {r["row"] for r in record["results"]}
        assert {"1", "2a", "2b", "3", "4a", "4b", "5", "6", "7a", "7c", "12", "13"} <= rows

    def test_deterministic_reports(self, tmp_path):
        run(["table1", "--n", "3", "--seed", "5", "--format", "json",
             "--out", str(tmp_path / "r1.json")])
        run(["table1", "--n", "3", "--seed", "5", "--format", "json",
             "--out", str(tmp_path / "r2.json")])
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        _, serial = run_json(["table1", "--n", "3", "--seed", "2"], tmp_path, "ser.json")
        _, parallel = run_json(["table1", "--n", "3", "--seed", "2", "--jobs", "2"],
                               tmp_path, "par.json")
        keys = [(r["row"], r.get("param"), r["tangent_dim"]) for r in serial["results"]]
        assert keys == [(r["row"], r.get("param"), r["tangent_dim"]) for r in parallel["results"]]

    def test_n6_passes_every_row(self, tmp_path):
        code, record = run_json(["table1", "--n", "6", "--seed", "0"], tmp_path, "t6.json")
        assert code == 0 and record["ok"]
        assert len(record["results"]) == 36 and all(r["ok"] for r in record["results"])
        digest = hashlib.sha256((tmp_path / "t6.json").read_bytes()).hexdigest()
        assert digest == PINNED_BY_CLI["table1 --n 6 --seed 0"]

    def test_guard(self):
        with pytest.raises(SystemExit):
            run(["table1", "--n", "7"])


class TestLemmasVerb:
    def test_n3(self, tmp_path):
        code, record = run_json(["lemmas", "--n", "3"], tmp_path, "l3.json")
        assert code == 0 and record["ok"]
        chains = record["results"][1]["inclusion_chains"]
        hook = next(c for c in chains if c["mu"] == [2, 1])
        assert hook["holds"] and hook["first_strict"]

    def test_n4(self, tmp_path):
        code, record = run_json(["lemmas", "--n", "4"], tmp_path, "l4.json")
        assert code == 0 and record["ok"]
        containments = record["results"][0]["containments"]
        assert all(containments.values())


    def test_n6(self, tmp_path):
        code, record = run_json(["lemmas", "--n", "6"], tmp_path, "l6.json")
        assert code == 0 and record["ok"]
        # the report's digest, recorded from the library at version 0.1.0 as
        # in test_report_digests.py, so the 9 s run is not repeated there
        digest = hashlib.sha256((tmp_path / "l6.json").read_bytes()).hexdigest()
        assert digest == "48b1b74a7acf8d9560c15714ac6e27a95cf52f9bc16928de07669abf1f6f1d93"
        block = record["results"][0]
        assert all(block["containments"].values()) and all(block["memberships"].values())
        chains = record["results"][1]["inclusion_chains"]
        assert len(chains) == 11
        assert all(c["holds"] and not c["failures"] for c in chains)


class TestOtherVerbs:
    def test_tangent_row(self, tmp_path):
        code, record = run_json(["tangent", "--n", "4", "--row", "6"], tmp_path, "tan.json")
        assert code == 0
        assert record["results"][0]["tangent_dim"] == 1

    def test_tangent_gens(self, tmp_path):
        code, record = run_json(
            ["tangent", "--n", "2", "--gens", "x1; x2"], tmp_path, "tg.json")
        assert code == 0
        assert record["results"][0]["tangent_dim"] == 1

    def test_tangent_of_a_homogeneous_ideal_with_inhomogeneous_generators(self, tmp_path):
        # (x1+x2+x1^2, x1+x2, x1*x2) == (x1+x2, x1^2, x1*x2)
        reports = [run_json(["tangent", "--n", "2", "--gens", gens], tmp_path, "t.json")
                   for gens in ("x1+x2+x1^2;x1+x2;x1*x2", "x1+x2;x1^2;x1*x2")]
        assert [code for code, _ in reports] == [0, 0]
        keys = ("n1_graded_dims", "n2_count", "tangent_dim")
        first, second = ([record["results"][0][k] for k in keys] for _, record in reports)
        assert first == second

    def test_decompose(self, tmp_path):
        code, record = run_json(
            ["decompose", "--n", "3", "--tanisaki", "1,1,1"], tmp_path, "dec.json")
        assert code == 0
        result = record["results"][0]
        assert result["colength"] == 6
        assert result["permutation_module_sum"] == [[1, 1, 1]]

    def test_gr(self, tmp_path):
        code, record = run_json(["gr", "--n", "3", "--point", "2,-1,-1"], tmp_path, "gr.json")
        assert code == 0
        result = record["results"][0]
        assert result["orbit_colength"] == 3
        assert result["matches_tanisaki"] is True

    def test_clean_error_for_bad_mathematical_input(self, capsys):
        # a positive-dimensional ideal must fail with a message, not a traceback
        with pytest.raises(SystemExit) as info:
            run(["decompose", "--n", "4", "--gens", "x1+x2+x3+x4; x1^2+x2^2+x3^2+x4^2"])
        assert info.value.code == 2
        assert "finite-dimensional" in capsys.readouterr().err

    def test_text_format_runs(self, capsys):
        code = run(["specht", "--n", "3", "--lambda", "2,1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# specht n=3")


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["gr", "--n", "3", "--point", "1/0,1,1"],
        ["tangent", "--n", "3", "--gens", "1/0*x1; x2"],
        ["tangent", "--n", "4", "--row", "5", "--param", "1/0:1"],
    ])
    def test_zero_denominator_is_bad_input(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "zero denominator" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("verb", ["tangent", "decompose"])
    @pytest.mark.parametrize("row", ["5", "7c", "11"])
    def test_zero_parameter_is_bad_input(self, verb, row, capsys):
        with pytest.raises(SystemExit) as info:
            run([verb, "--n", "4", "--row", row, "--param", "0:0"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err == (f"symideal {verb}: parameter [0:0] is not a point "
                       "of the projective line\n")

    @pytest.mark.parametrize("param", ["1:2:3", "1", ""])
    def test_param_part_count_is_checked(self, param, capsys):
        with pytest.raises(SystemExit) as info:
            run(["tangent", "--n", "3", "--row", "5", "--param", param])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err == f"symideal tangent: --param takes the form a:b, got '{param}'\n"

    def test_guard_is_bad_input(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["table1", "--n", "7"])
        assert info.value.code == 2
        assert capsys.readouterr().err == "symideal table1: table1 is guarded at 3 <= n <= 6\n"

    @pytest.mark.parametrize("verb, argv, n", [
        ("specht", ["--lambda", "1"], 0),
        ("specht", ["--lambda", "12"], 12),
        ("tanisaki", ["--lambda", "1"], 1),
        ("tanisaki", ["--lambda", "7"], 7),
        ("table1", [], 2),
        ("table1", [], 7),
        ("lemmas", [], 2),
        ("lemmas", [], 7),
        ("tangent", ["--tanisaki", "7"], 7),
        ("decompose", ["--tanisaki", "1"], 1),
        ("gr", ["--point", "1,2,3,4,5,6,7"], 7),
    ])
    def test_every_verb_is_guarded_before_it_starts(self, verb, argv, n, monkeypatch, capsys):
        def started(*args):
            raise AssertionError("the verb started")

        for name in vars(cli):
            if name.startswith("cmd_"):
                monkeypatch.setattr(cli, name, started)
        with pytest.raises(SystemExit) as info:
            run([verb, "--n", str(n)] + argv)
        assert info.value.code == 2
        lo, hi = cli.N_GUARDS[verb]
        assert capsys.readouterr().err == f"symideal {verb}: {verb} is guarded at {lo} <= n <= {hi}\n"

    def test_one_specht_polynomial_is_not_guarded(self, monkeypatch):
        # the n guard stops the higher Specht basis of specht without
        # --tableau, not the single product of specht --tableau (the README
        # runs it at n = 9); that product is bounded by its term count and
        # by TABLEAU_N_BOUND
        monkeypatch.setattr(cli, "cmd_specht", lambda args: ([{"n": args.n}], True))
        assert run(["specht", "--n", "12", "--lambda", "12",
                    "--tableau", ",".join(map(str, range(1, 13)))]) == 0

    def test_tableau_term_count_is_bounded(self, monkeypatch, capsys):
        # one column of height 8 has 8! = 40320 terms
        def built(*args):
            raise AssertionError("the product was built")

        monkeypatch.setattr(cli, "specht_polynomial", built)
        with pytest.raises(SystemExit) as info:
            run(["specht", "--n", "8", "--lambda", "1,1,1,1,1,1,1,1",
                 "--tableau", "/".join(map(str, range(1, 9)))])
        assert info.value.code == 2
        assert capsys.readouterr().err == (
            "symideal specht: tableau has 40320 terms, above the bound 5040 = 7!\n")
        # one column of height 7 sits on the bound and is built
        monkeypatch.setattr(cli, "specht_polynomial", lambda t, n: "built")
        assert run(["specht", "--n", "7", "--lambda", "1,1,1,1,1,1,1",
                    "--tableau", "/".join(map(str, range(1, 8)))]) == 0
        assert "specht_polynomial: built" in capsys.readouterr().out

    def test_tableau_n_is_bounded(self, monkeypatch, capsys):
        # lambda = (n - 6, 1^6): one column of height 7, within the term
        # bound, but each term packs and prints n exponents
        def tableau(n):
            return "/".join([",".join(map(str, range(1, n - 5)))]
                            + [str(v) for v in range(n - 5, n + 1)])

        def built(*args):
            raise AssertionError("the product was built")

        monkeypatch.setattr(cli, "specht_polynomial", built)
        n = cli.TABLEAU_N_BOUND + 1
        with pytest.raises(SystemExit) as info:
            run(["specht", "--n", str(n), "--lambda", f"{n - 6},1,1,1,1,1,1",
                 "--tableau", tableau(n)])
        assert info.value.code == 2
        assert capsys.readouterr().err == (
            f"symideal specht: specht --tableau is guarded at 1 <= n <= {n - 1}\n")
        # n = TABLEAU_N_BOUND is built
        monkeypatch.setattr(cli, "specht_polynomial", lambda t, n: "built")
        n -= 1
        assert run(["specht", "--n", str(n), "--lambda", f"{n - 6},1,1,1,1,1,1",
                    "--tableau", tableau(n)]) == 0
        assert "specht_polynomial: built" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["decompose", "--n", "4", "--row", "3", "--tanisaki", "2,2"],
        ["tangent", "--n", "3", "--gens", "x1; x2; x3", "--tanisaki", "2,1"],
        ["tangent", "--n", "3", "--gens", "x1; x2; x3", "--row", "1"],
    ])
    def test_two_ideal_sources_are_bad_input(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["decompose", "--n", "4", "--tanisaki", "2,2", "--colength", "5"],
        ["tangent", "--n", "3", "--gens", "x1; x2; x3", "--param", "1:2"],
        ["tangent", "--n", "3", "--colength", "4"],
    ])
    def test_row_options_without_a_row_are_bad_input(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err == (
            f"symideal {argv[0]}: --colength and --param apply only with --row\n")

    @pytest.mark.parametrize("argv", [
        ["tangent", "--n", "4", "--tanisaki", "2,1"],
        ["decompose", "--n", "2", "--tanisaki", "2,1"],
        ["tangent", "--n", "2", "--tanisaki", "3,3,3"],
    ])
    def test_tanisaki_partition_must_match_n(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        parts = tuple(int(p) for p in argv[-1].split(","))
        assert capsys.readouterr().err == (
            f"symideal {argv[0]}: partition {parts} is not a partition of n={argv[2]}\n")

    def test_broken_invariant_exits_3(self, monkeypatch, capsys):
        import symideal.cli as cli

        def broken(ideal):
            raise ArithmeticError("generator count mismatch in degree 2")

        monkeypatch.setattr(cli, "tangent_dimension", broken)
        with pytest.raises(SystemExit) as info:
            run(["tangent", "--n", "3", "--tanisaki", "2,1"])
        assert info.value.code == 3
        err = capsys.readouterr().err
        assert err == ("symideal tangent: internal invariant broken: "
                       "generator count mismatch in degree 2\n")

    def test_negative_relation_count_exits_3(self, monkeypatch, capsys):
        # a square record that lists its degree-2 standard monomials twice
        # leaves dim (I/I^2)_2 larger than the products that could span it
        from symideal import ideals
        from symideal.poly import DEGREVLEX

        square = ideals._Quotient.square

        def doubled(self, below):
            record = square(self, below)
            record.standard = record.standard + [k for k in record.standard
                                                 if DEGREVLEX.degree(k, 3) == 2]
            return record

        monkeypatch.setattr(ideals._Quotient, "square", doubled)
        with pytest.raises(SystemExit) as info:
            run(["tangent", "--n", "3", "--tanisaki", "2,1"])
        assert info.value.code == 3
        assert capsys.readouterr().err == ("symideal tangent: internal invariant broken: "
                                           "negative relation count in degree 2\n")

    @pytest.mark.parametrize("verb", ["tangent", "decompose"])
    def test_exponent_past_the_engine_bound_is_bad_input(self, verb, capsys):
        with pytest.raises(SystemExit) as info:
            run([verb, "--n", "2", "--gens", f"x1^{2 ** 30}*x2; x1; x2"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "exponent 1073741824 is too large" in err
        assert len(err.strip().splitlines()) == 1

    def test_basis_exponent_past_the_engine_bound_exits_3(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["decompose", "--n", "3", "--gens", f"x1^2 - x2; x1^2*x2^{2 ** 30 - 1}"])
        assert info.value.code == 3
        err = capsys.readouterr().err
        assert "internal invariant broken" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("out", ["no/such/dir/x.json", "."])
    def test_out_outside_a_directory_is_bad_input_before_the_verb_starts(
            self, out, tmp_path, monkeypatch, capsys):
        def started(*args):
            raise AssertionError("the verb started")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "cmd_specht", started)
        with pytest.raises(SystemExit) as info:
            run(["specht", "--n", "3", "--lambda", "2,1", "--out", out])
        assert info.value.code == 2
        assert capsys.readouterr().err == (
            f"symideal specht: --out {out!r} is not a file in an existing directory\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_in_the_current_directory_is_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["specht", "--n", "3", "--lambda", "2,1", "--format", "json",
                    "--out", "x.json"]) == 0
        assert json.loads((tmp_path / "x.json").read_text())["command"] == "specht"

    def test_failed_write_is_bad_input(self, tmp_path, monkeypatch, capsys):
        # a trailing slash passes the directory check and fails at the write
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            run(["specht", "--n", "3", "--lambda", "2,1", "--out", "x.json/"])
        assert info.value.code == 2
        assert capsys.readouterr().err == (
            "symideal specht: cannot write --out 'x.json/': Is a directory\n")

    @pytest.mark.parametrize("argv", [
        ["gr", "--n", "3", "--point=--"],
        ["specht", "--n", "3", "--lambda=--"],
        ["table1", "--n", "3", "--jobs=--"],
    ])
    def test_double_dash_value_is_bad_input(self, argv, capsys):
        # argparse hands the verbs [] for an option value "--"
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err == f"symideal {argv[0]}: '--' is not an option value\n"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, jobs, capsys):
        with pytest.raises(SystemExit) as info:
            run(["table1", "--n", "3", "--jobs", jobs])
        assert info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_pool_size_is_capped(self, monkeypatch):
        import symideal.cli as cli

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        assert cli.pool_size(1, 33) == 1
        assert cli.pool_size(3, 33) == 3
        assert cli.pool_size(10000, 33) == 4
        assert cli.pool_size(10000, 2) == 2
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli.pool_size(8, 33) == 1


# characters of the input grammars, plus a few that no grammar accepts
# and some that Python's number parsing treats specially
ALPHABET = "x0123456789^*/+-.,;: \t\n_e٣"


def bad_input_exit(argv) -> tuple[int, str]:
    """Run the CLI on input expected to be rejected; (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with pytest.raises(SystemExit) as info:
            run(argv)
    return info.value.code, err.getvalue()


class TestParserFuzz:
    """Every text either parses to values that survive printing and
    parsing again, or is rejected with exit 2 and one line, before any
    algebra starts (so no case here builds an ideal or starts a pool)."""

    @settings(max_examples=300, deadline=None)
    @given(st.text(ALPHABET, max_size=24), st.integers(1, 4))
    def test_parse_polynomial(self, text, n):
        try:
            poly = parse_polynomial(text, n)
        except ValueError:
            return
        assert parse_polynomial(str(poly), n) == poly

    @settings(max_examples=200, deadline=None)
    @given(st.text(ALPHABET, max_size=24))
    def test_gens(self, text):
        try:
            gens = cli._parse_gens(text, 3)
        except ValueError:
            code, err = bad_input_exit(["decompose", "--n", "3", f"--gens={text}"])
            assert code == 2 and err.count("\n") == 1, err
        else:
            assert cli._parse_gens("; ".join(str(g) for g in gens), 3) == gens

    @settings(max_examples=200, deadline=None)
    @given(st.text(ALPHABET, max_size=16))
    def test_point(self, text):
        try:
            point = cli._parse_point(text, 3)
        except ValueError:
            code, err = bad_input_exit(["gr", "--n", "3", f"--point={text}"])
            assert code == 2 and err.count("\n") == 1, err
        else:
            assert cli._parse_point(",".join(str(v) for v in point), 3) == point

    @settings(max_examples=200, deadline=None)
    @given(st.text(ALPHABET, max_size=16))
    def test_param(self, text):
        try:
            param = cli._parse_param(text)
        except ValueError:
            code, err = bad_input_exit(["tangent", "--n", "3", "--row", "5", f"--param={text}"])
            assert code == 2 and err.count("\n") == 1, err
        else:
            assert cli._parse_param(f"{param[0]}:{param[1]}") == param
