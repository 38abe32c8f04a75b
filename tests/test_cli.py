"""Command-line interface: exit codes, output formats, determinism."""

import hashlib
import json

import pytest

from finpow.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)
from finpow import cli, suites
from finpow.backend import Budget, TruncationError, parse_monoid_spec
from finpow.suites import run_verify_suite

SPEC23 = "kind numerical; gens 2, 3"
RANK2 = "kind family; family RANK2-5.3 depth 3; sample 7/3, 32/15"
COMMON_FLAGS = ("--spec", "--spec-file", "--budget", "--depth")
SUBCOMMANDS = (
    "sumset", "atoms", "member", "factorize", "divides",
    "p-atom", "p-factorize", "mcd", "chain", "verify",
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_sumset(self, capsys):
        code, out, _ = run(capsys, "sumset", "{0,2}", "{0,3}")
        assert code == EXIT_PASS
        assert out.strip() == "{0, 2, 3, 5}"

    def test_atoms(self, capsys):
        code, out, _ = run(capsys, "atoms", "--spec", SPEC23)
        assert code == EXIT_PASS
        assert out.split() == ["2", "3"]

    def test_member_pass_and_fail(self, capsys):
        code, out, _ = run(capsys, "member", "7", "--spec", SPEC23)
        assert code == EXIT_PASS and "member" in out
        code, out, _ = run(capsys, "member", "1", "--spec", SPEC23)
        assert code == EXIT_FAIL and "non-member" in out

    def test_factorize(self, capsys):
        code, out, _ = run(capsys, "factorize", "6", "--spec", SPEC23)
        assert code == EXIT_PASS
        lines = out.strip().splitlines()
        assert len(lines) == 2  # 3*(2) and 2*(3)

    @pytest.mark.parametrize(
        "element, spec",
        [("1", SPEC23), ("1/2", "kind numerical; gens 2"), ("-1", SPEC23)],
    )
    def test_factorize_says_when_there_is_none(self, capsys, element, spec):
        # a non-member, an element off the lattice and a negative one: each
        # has no factorization, and says so as member and mcd do
        code, out, _ = run(capsys, "factorize", element, "--spec", spec)
        assert code == EXIT_FAIL and out == "no factorization\n"

    def test_factorize_zero_is_the_empty_factorization(self, capsys):
        code, out, _ = run(capsys, "factorize", "0", "--spec", SPEC23)
        assert code == EXIT_PASS and out == "(empty)\n"

    def test_a_target_past_2_63_runs_out_of_budget(self, capsys):
        # the search counts a level's leaves without a range, whose len
        # overflows at 2**63
        spec = "kind numerical; gens 1"
        code, out, err = run(capsys, "factorize", "9223372036854775808", "--spec", spec)
        assert code == EXIT_INCONCLUSIVE and out == ""
        assert "Traceback" not in err and "budget exceeded" in err

    def test_divides(self, capsys):
        code, out, _ = run(capsys, "divides", "{0,2}", "{0,2,3,4,5}", "--spec", SPEC23)
        assert code == EXIT_PASS
        assert "witness {0, 2, 3}" in out
        code, _, _ = run(capsys, "divides", "{0,3}", "{0,2}", "--spec", SPEC23)
        assert code == EXIT_FAIL

    def test_p_atom(self, capsys):
        code, out, _ = run(capsys, "p-atom", "{2,3}", "--spec", SPEC23)
        assert code == EXIT_PASS and out.strip() == "atom"
        code, out, _ = run(capsys, "p-atom", "{4,5,6,7}", "--spec", SPEC23)
        assert code == EXIT_FAIL and "not an atom" in out

    def test_p_factorize(self, capsys):
        code, out, _ = run(capsys, "p-factorize", "{4,5,6,7}", "--spec", SPEC23)
        assert code == EXIT_PASS and " + " in out

    def test_mcd(self, capsys):
        code, out, _ = run(capsys, "mcd", "{4,5}", "--spec", SPEC23)
        assert code == EXIT_PASS and out.strip() == "2"
        code, out, _ = run(capsys, "mcd", "{6,9}", "--spec", SPEC23)
        assert code == EXIT_PASS and out.strip() == "6"


class TestParser:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_help_lists_every_flag(self, capsys, name):
        code, out, _ = run(capsys, name, "--help")
        assert code == EXIT_PASS
        extra = ("--suite", "--format", "--out") if name == "verify" else ()
        for flag in COMMON_FLAGS + extra:
            assert flag in out

    def test_chain_length_must_be_an_integer(self, capsys):
        code, out, _ = run(capsys, "chain", "x")
        assert code == EXIT_USAGE and out == ""

    def test_spec_file(self, capsys, tmp_path):
        path = tmp_path / "m.spec"
        path.write_text("kind numerical\ngens 2, 3\n", encoding="utf-8")
        code, out, _ = run(capsys, "atoms", "--spec-file", str(path))
        assert code == EXIT_PASS
        assert out.split() == ["2", "3"]

    def test_family_tag_alone_is_depth_1(self, capsys):
        # EX44 at depth 1 is generated by 1/7 and 4/15; 1/26 comes at depth 2
        code, out, _ = run(capsys, "atoms", "--spec", "family EX44")
        assert code == EXIT_PASS and out.split() == ["1/7", "4/15"]

    def test_depth_overrides_family_spec(self, capsys):
        # 1/76 is a generator of EX44 at depth 3 but not at depth 2
        spec = "kind family; family EX44 depth 3"
        code, out, _ = run(capsys, "member", "1/76", "--spec", spec)
        assert code == EXIT_PASS and out.strip() == "member"
        code, out, _ = run(capsys, "member", "1/76", "--spec", spec, "--depth", "2")
        assert code == EXIT_FAIL and out.strip() == "non-member"


class TestChain:
    def test_chain_prints_certificates(self, capsys):
        code, out, _ = run(capsys, "chain", "2", "--depth", "3")
        assert code == EXIT_PASS
        assert out.splitlines()[0] == "0 < 1/2 < 3/4"
        assert "13*(1/26)" in out

    def test_chain_truncation_is_inconclusive(self, capsys):
        code, out, _ = run(capsys, "chain", "10", "--depth", "3")
        assert code == EXIT_INCONCLUSIVE
        assert "after 2 steps" in out

    def test_a_truncation_error_from_a_command_is_inconclusive(self, capsys, monkeypatch):
        # no command lets one escape today; `main` still turns one into
        # exit 3 and a one-line message
        def truncated(args):
            raise TruncationError("depth 3 is too shallow")

        desc, params, _ = cli._COMMANDS["chain"]
        monkeypatch.setitem(cli._COMMANDS, "chain", (desc, params, truncated))
        code, out, err = run(capsys, "chain", "2", "--depth", "3")
        assert code == EXIT_INCONCLUSIVE and out == ""
        assert err == "truncation-inconclusive: depth 3 is too shallow\n"
        assert "Traceback" not in err


    def test_default_depth_is_6(self, capsys, monkeypatch):
        monkeypatch.delenv("FINPOW_DEPTH", raising=False)
        default = run(capsys, "chain", "3")
        assert default == run(capsys, "chain", "3", "--depth", "6")
        assert default[0] == EXIT_PASS

    def test_depth_zero_is_usage_error(self, capsys):
        code, out, err = run(capsys, "chain", "2", "--depth", "0")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:")


class TestNonMembers:
    @pytest.mark.parametrize(
        "argv, element",
        [
            (("p-atom", "{1, 5}"), "1"),
            (("divides", "{1}", "{1, 3}"), "1"),
            (("divides", "{0}", "{0, 1}"), "1"),
            (("p-factorize", "{1/2}"), "1/2"),
            (("mcd", "{1/2}"), "1/2"),
        ],
    )
    def test_set_outside_the_monoid_is_usage_error(self, capsys, argv, element):
        # the library's text: 1 lies on the lattice Z of <2, 3>, 1/2 off it
        code, out, err = run(capsys, *argv, "--spec", SPEC23)
        assert code == EXIT_USAGE and out == ""
        off = ": it lies off the generators' lattice" if element == "1/2" else ""
        assert err == f"error: {element} is not in the monoid{off}\n"


class TestVerify:
    def test_cheap_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemma-2.6")
        assert code == EXIT_PASS
        assert "pass" in out

    def test_budget_exhausted_is_inconclusive(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemma-2.6", "--budget", "1")
        assert code == EXIT_INCONCLUSIVE
        assert "budget-exceeded" in out

    def test_all_suites_through_main_are_byte_stable(self, capsys, tmp_path):
        path = tmp_path / "all.jsonl"
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--format", "json-lines",
            "--out", str(path),
        )
        assert code == EXIT_PASS and out == ""
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "e3f17e0f4299d8674ffde12067d17d4cbc787029359b338db45b4fdca1c033a6"
        )

    @pytest.mark.parametrize("fmt", ["text", "json-lines"])
    def test_spec_line_parses_back_to_the_spec(self, capsys, fmt):
        spec = "kind puiseux; gens 1/3, 1/2"
        code, out, _ = run(
            capsys, "verify", "--suite", "lemma-5.2", "--spec", spec, "--format", fmt
        )
        assert code == EXIT_PASS
        if fmt == "text":
            assert out.splitlines()[1] == f"  spec: {spec}"
            assert "" not in out.splitlines()
        else:
            assert [json.loads(line)["spec"] for line in out.splitlines()] == [spec]

    @pytest.mark.parametrize(
        "suite, spec",
        [
            ("lemma-2.6", "kind numerical; gens 2, 3"),
            ("lemma-2.6", "kind family; family EX44 depth 2"),
            ("thm-5.5-gap", "kind family; family RANK2-5.3 depth 3; sample 32/15, 7/3"),
        ],
    )
    def test_report_spec_is_the_cli_syntax(self, suite, spec):
        parsed = parse_monoid_spec(spec.replace(";", "\n"))
        report = run_verify_suite(suite, parsed, budget=1)
        assert report.spec == spec
        assert parse_monoid_spec(report.spec.replace(";", "\n")) == parsed

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "lemma-9.9")
        assert code == EXIT_USAGE
        assert "unknown suite" in err

    def test_json_lines_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for p in (p1, p2):
            code, _, _ = run(
                capsys, "verify", "--suite", "lemma-3.2", "--format",
                "json-lines", "--out", str(p),
            )
            assert code == EXIT_PASS
        assert p1.read_bytes() == p2.read_bytes()
        for line in p1.read_text().splitlines():
            json.loads(line)


class TestUsageErrors:
    def test_missing_spec(self, capsys):
        code, _, err = run(capsys, "atoms")
        assert code == EXIT_USAGE
        assert "spec is required" in err

    def test_bad_spec(self, capsys):
        code, _, err = run(capsys, "atoms", "--spec", "kind lattice; gens 2, 3")
        assert code == EXIT_USAGE

    def test_bad_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_duplicate_generators_rejected(self, capsys):
        code, _, err = run(capsys, "atoms", "--spec", "kind numerical; gens 2, 2, 3")
        assert code == EXIT_USAGE

    def test_rank2_negative_first_coordinate_rejected(self, capsys):
        code, _, err = run(capsys, "atoms", "--spec", "kind rank2; gens (-1, 1), (1, 0)")
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "negative first coordinate" in err

    @pytest.mark.parametrize(
        "gens, shown",
        [("-1/2", "-1/2"), ("1/3, -2", "-2")],
    )
    def test_nonpositive_generator_printed_in_spec_syntax(self, capsys, gens, shown):
        code, _, err = run(capsys, "atoms", "--spec", f"kind puiseux; gens {gens}")
        assert code == EXIT_USAGE
        assert err == f"error: generator {shown} is not strictly positive\n"

    def test_missing_spec_file(self, capsys, tmp_path):
        missing = tmp_path / "absent.spec"
        code, _, err = run(capsys, "atoms", "--spec-file", str(missing))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "absent.spec" in err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_budget(self, capsys, value):
        code, _, err = run(capsys, "member", "7", "--spec", SPEC23, "--budget", value)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "budget" in err


    @pytest.mark.parametrize(
        "argv",
        [
            ("sumset", "{1}", "{(0,1)}"),
            ("sumset", "{1, (0,1)}", "{0}"),
            ("member", "1", "--spec", "kind family; family EX44 depth x"),
            ("member", "1", "--spec", "kind family; family"),
            # malformed specs: a line the grammar would otherwise ignore
            ("member", "1", "--spec", "family EX44 dpth 3"),
            ("member", "1", "--spec", "family EX44 depth"),
            ("member", "1", "--spec", "family EX44 depth 3 extra"),
            ("member", "1", "--spec", "kind numerical; gens 2, 3; family EX44 depth 2"),
            ("member", "1", "--spec", "kind puiseux; gens 1/2; sample 7/3"),
            ("atoms", "--spec", "kind rank2; gens (0,1); family RANK2-5.3"),
            ("member", "1", "--spec", "kind family; family EX44 depth 2; gens 1/2"),
            ("member", "1", "--spec", "family Q-ODDPRIMES depth 2; gens 1/2"),
            ("member", "1", "--spec", "family EX44 depth 2; sample 7/3"),
            ("member", "1", "--spec", "family Q-ODDPRIMES depth 2; sample 7/3"),
            # past the generator bound, which keeps the search's recursion
            # inside Python's limit
            ("member", "1", "--spec", "family Q-ODDPRIMES depth 1200"),
            ("member", "5000", "--spec", "kind numerical; gens " + ", ".join(
                map(str, range(1000, 2200))
            )),
        ],
    )
    def test_no_traceback(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("member", "(1)", "--spec", RANK2), "bad point literal '(1)'"),
            (("p-atom", "1, 2", "--spec", SPEC23), "bad set literal '1, 2'"),
            (("member", "1", "--spec", "family FOO"), "unknown family tag 'FOO'"),
            (("atoms", "--spec", "kind numerical; gens"), "empty generator list"),
            (("atoms", "--spec", "kind rank2; gens 1"), "rank2 spec requires plane-point generators"),
            (("atoms", "--spec", SPEC23 + "; colour red"), "line 3: unknown directive 'colour'"),
        ],
    )
    def test_an_input_refusal_names_the_input(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "suite, spec, needs",
        [
            ("cap-additivity", SPEC23, "rank-1"),
            ("lemma-5.2", SPEC23, "rank-1"),
            ("cap-additivity", "kind rank2; gens (0,1), (1/5, 2)", "rank-1"),
            ("lemma-5.2", "kind rank2; gens (0,1), (1/5, 2)", "rank-1"),
            ("thm-5.5-gap", "family EX44 depth 2", "rank-2"),
            ("lemma-2.6", "kind rank2; gens (0,1), (1/5, 2)", "rank-1"),
            ("lemma-3.2", "kind rank2; gens (0,1), (1/5, 2)", "rank-1"),
            ("prop-4.1", "kind rank2; gens (0,1), (1/5, 2)", "rank-1"),
            ("lemma-4.2", "kind rank2; gens (0,1), (1/5, 2)", "rank-1"),
            ("thm-4.5", "kind rank2; gens (0,1), (1/5, 2)", "rank-1"),
            ("lemma-6.1", "kind rank2; gens (0,1), (1/5, 2)", "rank-1"),
            ("prop-6.4", "kind rank2; gens (0,1), (1/5, 2)", "rank-1"),
            ("prop-6.4", RANK2, "rank-1"),
        ],
    )
    def test_suite_given_a_spec_of_the_wrong_kind(self, capsys, suite, spec, needs):
        code, out, err = run(capsys, "verify", "--suite", suite, "--spec", spec)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and f"needs a {needs} spec" in err

    @pytest.mark.parametrize(
        "suite, spec, message",
        [
            ("ex-4.4", SPEC23, "ex-4.4 needs an EX44 family spec"),
            ("ex-4.4", "family Q-ODDPRIMES depth 3", "ex-4.4 needs an EX44 family spec"),
            ("lemma-5.4", SPEC23, "lemma-5.4 takes no spec"),
            ("lemma-5.4", RANK2, "lemma-5.4 takes no spec"),
        ],
    )
    def test_suite_rejects_a_spec_it_would_ignore(self, capsys, suite, spec, message):
        code, out, err = run(capsys, "verify", "--suite", suite, "--spec", spec)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("spec", [SPEC23, "kind rank2; gens (0,1), (1/5, 2)", None])
    def test_all_suites_take_no_spec(self, capsys, monkeypatch, tmp_path, spec):
        def no_suite_runs(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(suites, "run_verify_suite", no_suite_runs)
        if spec is None:
            path = tmp_path / "m.spec"
            path.write_text("kind numerical\ngens 2, 3\n", encoding="utf-8")
            flags = ("--spec-file", str(path))
        else:
            flags = ("--spec", spec)
        code, out, err = run(capsys, "verify", "--suite", "all", *flags)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: --suite all takes no spec")

    @pytest.mark.parametrize(
        "spec", [SPEC23, "family Q-ODDPRIMES depth 3", RANK2, "kind puiseux; gens 1/7, 4/15"]
    )
    def test_chain_needs_an_ex44_family_spec(self, capsys, spec):
        code, out, err = run(capsys, "chain", "2", "--spec", spec)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: chain needs an EX44 family spec\n"

    def test_lemma_5_2_rejects_a_generator_without_valuation_minus_one(self, capsys):
        # the suite's residue check on scaled ints is sound only for a pair
        # (a, p) with v_p(a) = -1, which 1/9 at 3 is not; the spec has no
        # other pair, so its spec test refuses it
        code, out, err = run(
            capsys, "verify", "--suite", "lemma-5.2", "--spec", "kind puiseux; gens 1/9, 1/2"
        )
        assert code == EXIT_USAGE and out == ""
        assert err == (
            "error: lemma-5.2 needs a rank-1 spec in which an odd prime divides the"
            " denominator of exactly one generator, and its square does not\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "--suite", "ex-4.4", "--depth", "8"), "--depth needs a family spec"),
            (("verify", "--suite", "all", "--depth", "8"), "--depth needs a family spec"),
            (("member", "7", "--spec", SPEC23, "--depth", "0"), "--depth needs a family spec"),
            (("atoms", "--spec", SPEC23, "--depth", "3"), "--depth needs a family spec"),
            (("sumset", "{1}", "{2}", "--spec", "kind rank2; gens (0,1)", "--budget", "0", "--depth", "-3"),
             "sumset takes no --spec"),
            *((("sumset", "{1}", "{2}", flag, "5"), f"sumset takes no {flag}") for flag in COMMON_FLAGS),
        ],
    )
    def test_a_flag_the_command_would_ignore(self, capsys, monkeypatch, argv, message):
        def spend(*args):
            raise AssertionError("a node was spent")

        monkeypatch.setattr(Budget, "spend", spend)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: {message}")

    def test_unwritable_out_path(self, capsys, tmp_path):
        out_path = tmp_path / "absent" / "x"
        code, out, err = run(capsys, "verify", "--suite", "lemma-3.2", "--out", str(out_path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: cannot write")


class TestRank2Elements:
    def test_member_of_a_point(self, capsys):
        code, out, _ = run(capsys, "member", "(1/5, 23/6)", "--spec", RANK2)
        assert code == EXIT_PASS and out.strip() == "member"
        code, out, _ = run(capsys, "member", "(1/35, 9/2)", "--spec", RANK2)
        assert code == EXIT_FAIL and out.strip() == "non-member"

    def test_factorize_a_point(self, capsys):
        code, out, _ = run(capsys, "factorize", "(1/5, 43/12)", "--spec", RANK2)
        assert code == EXIT_PASS
        assert out.strip() == "2*((0, 1/8)) + 1*((1/5, 10/3))"

    @pytest.mark.parametrize("command", ["member", "factorize"])
    @pytest.mark.parametrize("element, spec", [("(1, 2)", SPEC23), ("7/3", RANK2)])
    def test_element_of_the_other_rank_is_usage_error(self, capsys, command, element, spec):
        code, out, err = run(capsys, command, element, "--spec", spec)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and "does not match spec" in err


class TestEnvOverrides:
    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("FINPOW_BUDGET", "1")
        code, _, err = run(capsys, "p-factorize", "{4,5,6,7}", "--spec", SPEC23)
        assert code == EXIT_INCONCLUSIVE
        assert "budget exceeded" in err

    @pytest.mark.parametrize("name", ["FINPOW_BUDGET", "FINPOW_DEPTH"])
    def test_env_non_integer_is_usage_error(self, capsys, monkeypatch, name):
        monkeypatch.setenv(name, "lots")
        code, _, err = run(capsys, "chain", "2", "--spec", "family EX44 depth 3")
        assert code == EXIT_USAGE
        assert err.startswith("error:") and name in err

    def test_env_depth_zero_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("FINPOW_DEPTH", "0")
        code, out, err = run(capsys, "chain", "2")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:")

    def test_env_depth(self, capsys, monkeypatch):
        monkeypatch.setenv("FINPOW_DEPTH", "3")
        code, out, _ = run(capsys, "chain", "10")
        assert code == EXIT_INCONCLUSIVE
        assert "after 2 steps" in out

    @pytest.mark.parametrize(
        "name, value, argv, want",
        [
            ("FINPOW_BUDGET", "100000",
             ["p-factorize", "{4,5,6,7}", "--spec", SPEC23, "--budget", "1"], EXIT_INCONCLUSIVE),
            ("FINPOW_BUDGET", "1",
             ["p-factorize", "{4,5,6,7}", "--spec", SPEC23, "--budget", "100000"], EXIT_PASS),
            ("FINPOW_DEPTH", "2",
             ["member", "1/76", "--spec", "family EX44 depth 3", "--depth", "3"], EXIT_PASS),
            ("FINPOW_DEPTH", "3", ["chain", "10", "--depth", "2"], EXIT_INCONCLUSIVE),
            ("FINPOW_DEPTH", "lots", ["chain", "1", "--depth", "3"], EXIT_PASS),
        ],
    )
    def test_a_flag_wins_over_the_environment(self, capsys, monkeypatch, name, value, argv, want):
        monkeypatch.setenv(name, value)
        code, out, _ = run(capsys, *argv)
        assert code == want
        if argv[0] == "chain" and want == EXIT_INCONCLUSIVE:
            assert "after 1 steps" in out

    def test_env_depth_and_budget_are_ambient(self, capsys, monkeypatch):
        # unlike the flags, they are ignored by a command with no use for them
        monkeypatch.setenv("FINPOW_DEPTH", "8")
        monkeypatch.setenv("FINPOW_BUDGET", "1000")
        assert run(capsys, "sumset", "{1}", "{2}") == (EXIT_PASS, "{3}\n", "")
        assert run(capsys, "member", "7", "--spec", SPEC23) == (EXIT_PASS, "member\n", "")
