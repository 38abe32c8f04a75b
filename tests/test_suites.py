"""The suites that run on scaled sets: how each behaves when its budget runs
out, on a spec of its own, which membership tests it makes in which order;
which specs each suite refuses, here and in the README; and the default
specs that each `_SUITES` row names, which no suite body picks itself."""

import ast
import hashlib
import re
from pathlib import Path

import pytest

from finpow import backend, suites
from finpow.arith import InvalidInputError
from finpow.backend import Budget, clear_caches, parse_monoid_spec
from finpow.suites import _SUITES, SUITE_NAMES, run_verify_suite

PUISEUX = parse_monoid_spec("kind puiseux\ngens 3/2, 5/2")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def shown(n, spec):
    """A cached key as the digest shows it: a rank-1 key as it is, a rank-2
    key decoded, so that the digest does not depend on how a point is
    scaled."""
    return backend.decode(n, spec) if spec.is_rank2 else n


def cache_order() -> str:
    """A digest of every cached membership verdict and divisor list, in the
    order the run first asked for them."""
    h = hashlib.sha256()
    for spec, entry in backend._cache.items():
        key = (
            backend.render_monoid_spec(spec),
            [shown(n, spec) for n in entry.verdicts],
            [shown(n, spec) for n in entry.divisors],
        )
        h.update(repr(key).encode())
    return h.hexdigest()[:16]


# (suite, budget limit, budget_used, status, sha256 of the JSON lines); the
# last limit of each suite is its default run's count minus one
@pytest.mark.parametrize(
    "suite, limit, used, status, lines",
    [
        ("lemma-2.6", 1, 2, "budget-exceeded", "acb5405e16b438d0"),
        ("lemma-2.6", 50, 51, "budget-exceeded", "5ee6d86960baa8fc"),
        ("lemma-2.6", 500, 501, "budget-exceeded", "089ec03187dd43c8"),
        ("lemma-2.6", 3261, 3262, "budget-exceeded", "bcff62a96e033ddb"),
        ("lemma-3.2", 1, 2, "budget-exceeded", "f0804907c1ca7cc3"),
        ("lemma-3.2", 50, 51, "budget-exceeded", "4645f7f5d8d4636a"),
        ("lemma-3.2", 500, 135, "pass", "e96df389100b635c"),
        ("lemma-3.2", 134, 135, "budget-exceeded", "ec13b8c359513f2e"),
        ("prop-4.1", 1, 2, "budget-exceeded", "eafc5a5f463130fb"),
        ("prop-4.1", 50, 51, "budget-exceeded", "8084966d25271c84"),
        ("prop-4.1", 500, 501, "budget-exceeded", "4a7154eb3e00df4a"),
        ("prop-4.1", 27194, 27195, "budget-exceeded", "e9d6045d2a4f9107"),
        ("thm-4.5", 1, 2, "budget-exceeded", "aade98d599f388af"),
        ("thm-4.5", 50, 51, "budget-exceeded", "e55abe720712b304"),
        ("thm-4.5", 500, 501, "budget-exceeded", "d226ef91cc42910f"),
        ("thm-4.5", 7507, 7508, "budget-exceeded", "cb0e85eb1386c8f5"),
        ("lemma-5.2", 1, 2, "budget-exceeded", "ba33925197288a4f"),
        ("lemma-5.2", 50, 51, "budget-exceeded", "62481ee13ee0720d"),
        ("lemma-5.2", 83098, 83099, "budget-exceeded", "93a6178e7c115d3b"),
        ("thm-5.5-gap", 1, 2, "budget-exceeded", "38ab84d4aa6637f9"),
        ("thm-5.5-gap", 50, 51, "budget-exceeded", "2f26102b464ddf43"),
        ("thm-5.5-gap", 3738, 3739, "budget-exceeded", "5892ececac8638ed"),
        ("lemma-6.1", 1, 2, "budget-exceeded", "4f80f904a63da612"),
        ("lemma-6.1", 50, 51, "budget-exceeded", "147ab2baedc3b280"),
        ("lemma-6.1", 2093, 2094, "budget-exceeded", "cd07d4daa7bf1306"),
        ("prop-6.4", 1, 2, "budget-exceeded", "44911a4543c8d567"),
        ("prop-6.4", 50, 51, "budget-exceeded", "c384ba6723c8757e"),
        ("prop-6.4", 1547, 1548, "budget-exceeded", "3775f3a7eac8d019"),
    ],
)
def test_a_suite_stops_where_its_budget_runs_out(suite, limit, used, status, lines):
    clear_caches()
    report = run_verify_suite(suite, budget=limit)
    assert (report.status, report.budget_used) == (status, used)
    assert digest(report.to_json_lines()) == lines


# (suite, budget_used, sha256 of the JSON lines, `cache_order` after the run)
@pytest.mark.parametrize(
    "suite, used, lines, order",
    [
        ("lemma-2.6", 2533, "34f52c5ff0294b93", "21ab054ff51a79c3"),
        ("lemma-3.2", 153, "ac50a6e72470361d", "e3b0c44298fc1c14"),
        ("prop-4.1", 179567, "13853916dcef8ecc", "9931675e4a03ec1a"),
        ("thm-4.5", 54162, "df84dac171124452", "c4ccdf87566a9c3c"),
        ("lemma-6.1", 11477, "75162df2c7f7a604", "7da215f77552944d"),
        ("prop-6.4", 862, "d8e735b50441a57c", "d54bd39411b6d7a7"),
    ],
)
def test_a_suite_on_a_puiseux_spec(suite, used, lines, order):
    clear_caches()
    report = run_verify_suite(suite, PUISEUX)
    assert report.ok and report.budget_used == used
    assert digest(report.to_json_lines()) == lines
    assert cache_order() == order


@pytest.mark.parametrize(
    "suite, order",
    [
        ("lemma-2.6", "54a28b35c57d99ae"),
        ("lemma-3.2", "e3b0c44298fc1c14"),
        ("prop-4.1", "54bc173f7d6f1cf2"),
        ("thm-4.5", "246eb19a0696e306"),
        ("lemma-5.2", "7841774429078fce"),
        ("thm-5.5-gap", "89acce45104c7847"),
        ("lemma-6.1", "d710044be42929b0"),
        ("prop-6.4", "5ebf5b4b8c201654"),
    ],
)
def test_a_default_run_asks_the_same_questions_in_the_same_order(suite, order):
    clear_caches()
    assert run_verify_suite(suite).ok
    assert cache_order() == order


# (suite, spec text or None for the defaults, budget_used, sha256 of the JSON
# lines, `cache_order` after the run).  cap-additivity spends no node, so its
# lines are all there is to pin; thm-5.5-gap also runs on rank-2 specs of
# its own; on a family spec, lemma-3.2 tags its check by family and depth,
# sumset-cardinality[Q-ODDPRIMES@1].
@pytest.mark.parametrize(
    "suite, text, used, lines, order",
    [
        ("cap-additivity", None, 0, "ae0480d282671661", "e3b0c44298fc1c14"),
        ("cap-additivity", "family EX44 depth 2", 0, "725c61700a0ca203", "e3b0c44298fc1c14"),
        ("cap-additivity", "kind puiseux\ngens 1/3, 1/2, 2/5", 0, "74565314098ae36d",
         "e3b0c44298fc1c14"),
        ("thm-5.5-gap", "family RANK2-5.3 depth 2\nsample 7/3, 12/5", 771, "fd79deb8e2aad204",
         "9c00c4cdefd20c69"),
        ("thm-5.5-gap", "kind rank2\ngens (0,1), (1/5,2), (1/7, 5/2)", 218, "89aad6272c76f790",
         "d4a23ccc51d614d9"),
        ("lemma-3.2", "family Q-ODDPRIMES depth 1", 92, "2dbbd41dcf36ad77", "e3b0c44298fc1c14"),
    ],
)
def test_a_run_reports_the_same_lines(suite, text, used, lines, order):
    clear_caches()
    report = run_verify_suite(suite, None if text is None else parse_monoid_spec(text))
    assert report.ok and report.budget_used == used
    assert digest(report.to_json_lines()) == lines
    assert cache_order() == order


RANK2 = "kind rank2\ngens (0,1), (1/5, 2)"
N23 = "kind numerical\ngens 2, 3"

CAP_PAIR_WORDS = (
    "needs a rank-1 spec in which an odd prime divides the denominator of exactly"
    " one generator, and its square does not"
)
HEAD_WORDS = "needs a rank-2 spec whose generators have first coordinate 0, 1/5 or 1/7"

# suite -> (a spec it refuses, the refusal), a row for every suite: a
# rank-2 spec for each that needs rank 1
REFUSALS = {
    "lemma-2.6": (RANK2, "lemma-2.6 needs a rank-1 spec"),
    "lemma-3.2": (RANK2, "lemma-3.2 needs a rank-1 spec"),
    "prop-4.1": (RANK2, "prop-4.1 needs a rank-1 spec"),
    "lemma-4.2": (
        RANK2, "lemma-4.2 needs a rank-1 spec with at least two positive members up to 9"
    ),
    "thm-4.5": (RANK2, "thm-4.5 needs a rank-1 spec"),
    "ex-4.4": (N23, "ex-4.4 needs an EX44 family spec"),
    "cap-additivity": (RANK2, "cap-additivity " + CAP_PAIR_WORDS),
    "lemma-5.2": (RANK2, "lemma-5.2 " + CAP_PAIR_WORDS),
    "lemma-5.4": (N23, "lemma-5.4 takes no spec"),
    "thm-5.5-gap": ("family EX44 depth 2", "thm-5.5-gap " + HEAD_WORDS),
    "lemma-6.1": (RANK2, "lemma-6.1 needs a rank-1 spec with a positive member up to 10"),
    "prop-6.4": (RANK2, "prop-6.4 needs a rank-1 spec"),
}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_a_rank2_spec_is_refused_before_any_node(suite):
    # the name is that of its first rows; a suite that spent a node under
    # Budget(0) would report budget-exceeded rather than refuse
    text, message = REFUSALS[suite]
    bud = Budget(0)
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        run_verify_suite(suite, parse_monoid_spec(text), bud)
    assert bud.used == 0


@pytest.mark.parametrize("gens", ["10", "5", "10, 11", "19/4"])
def test_lemma_4_2_refuses_a_spec_with_fewer_than_two_members_up_to_9(gens):
    # its sets have two to four of the positive members up to 9; the test
    # reads the generators, so no node is spent
    bud = Budget(0)
    message = "lemma-4.2 needs a rank-1 spec with at least two positive members up to 9"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        run_verify_suite("lemma-4.2", parse_monoid_spec(f"kind puiseux\ngens {gens}"), bud)
    assert bud.used == 0


@pytest.mark.parametrize("gens", ["4", "5, 7", "9/2", "1/2, 10"])
def test_lemma_4_2_takes_a_spec_with_two_members_up_to_9(gens):
    report = run_verify_suite("lemma-4.2", parse_monoid_spec(f"kind puiseux\ngens {gens}"))
    assert report.ok


@pytest.mark.parametrize(
    "text", ["kind numerical\ngens 11", "kind numerical\ngens 11, 12", "kind puiseux\ngens 21/2, 11"]
)
def test_lemma_6_1_refuses_a_spec_with_no_positive_member_up_to_10(text):
    # its sets are drawn from the members up to 10, so with no positive one
    # it would check nothing; the test reads the generators, so no node is
    # spent, even on a cold cache
    clear_caches()
    bud = Budget(0)
    message = "lemma-6.1 needs a rank-1 spec with a positive member up to 10"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        run_verify_suite("lemma-6.1", parse_monoid_spec(text), bud)
    assert bud.used == 0


@pytest.mark.parametrize("text", ["kind numerical\ngens 10", None])
def test_lemma_6_1_takes_a_spec_with_a_positive_member_up_to_10(text):
    clear_caches()
    report = run_verify_suite("lemma-6.1", None if text is None else parse_monoid_spec(text))
    assert report.ok


@pytest.mark.parametrize("suite", ["cap-additivity", "lemma-5.2"])
@pytest.mark.parametrize("gens", ["1/9, 1/2", "1/3, 1/6", "2, 3", "1/2, 1/4"])
def test_a_residue_suite_refuses_a_spec_with_no_cap_pair(suite, gens):
    # 1/9 has valuation -2 at 3, 3 divides two denominators of <1/3, 1/6>,
    # and the others have no odd prime in a denominator; the spec test reads
    # the generators, so no node is spent
    clear_caches()
    bud = Budget(0)
    message = f"{suite} {CAP_PAIR_WORDS}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        run_verify_suite(suite, parse_monoid_spec(f"kind puiseux\ngens {gens}"), bud)
    assert bud.used == 0


@pytest.mark.parametrize("suite", ["cap-additivity", "lemma-5.2"])
def test_a_residue_suite_runs_on_the_cap_pair_a_spec_has(suite):
    # 2/9 at 3 is no cap pair, but 3/5 at 5 is, and the suites take it
    report = run_verify_suite(suite, parse_monoid_spec("kind puiseux\ngens 2/9, 3/5, 1"))
    assert report.ok


@pytest.mark.parametrize(
    "gens", ["(0, 1/5), (2, 2/5)", "(1/3, 1)", "(0, 1), (1/5, 2), (1/6, 3)"]
)
def test_thm_5_5_gap_refuses_a_spec_off_its_heads(gens):
    # the mechanism is stated for the first coordinates 0, 1/5 and 1/7; the
    # test reads the generators, so no node is spent, even on a cold cache
    clear_caches()
    bud = Budget(0)
    message = f"thm-5.5-gap {HEAD_WORDS}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        run_verify_suite("thm-5.5-gap", parse_monoid_spec(f"kind rank2\ngens {gens}"), bud)
    assert bud.used == 0


def readme_suite_bullets() -> list:
    """The bullets of README "Verification suites", each on one line."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Verification suites\n", 1)[1].split("\n## ", 1)[0]
    return [" ".join(b.split()) for b in re.findall(r"^- .*?(?=^- |^$|\Z)", section, re.M | re.S)]


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_the_readme_bullet_of_a_suite_carries_its_refusal(suite):
    named = [b for b in readme_suite_bullets() if f"`{suite}`" in b]
    assert len(named) == 1, named
    assert _SUITES[suite][2] in named[0]


# the suites whose `_SUITES` row names exactly one default spec
ONE_DEFAULT = (
    "lemma-4.2", "thm-4.5", "ex-4.4", "cap-additivity", "lemma-5.2", "thm-5.5-gap", "lemma-6.1",
)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_default_spec_passes_its_suites_spec_test(suite):
    _, takes, _, defaults = _SUITES[suite]
    specs = defaults()
    assert (len(specs) == 1) == (suite in ONE_DEFAULT)
    assert all(takes(sp) for sp in specs)


def rows(report) -> tuple:
    return [(c.check_id, c.status, c.witness) for c in report.checks], report.budget_used


@pytest.mark.parametrize("suite", ONE_DEFAULT)
def test_a_suite_given_its_default_spec_runs_as_with_none(suite):
    # only the report's spec line differs: a given spec is rendered there
    clear_caches()
    (spec,) = _SUITES[suite][3]()
    given = run_verify_suite(suite, spec)
    clear_caches()
    assert rows(given) == rows(run_verify_suite(suite))


def test_no_suite_body_picks_its_own_specs():
    # a body runs on the specs `run_verify_suite` passes it, so none builds
    # a `MonoidSpec` or tests its first parameter, the specs, against None
    tree = ast.parse(Path(suites.__file__).read_text(encoding="utf-8"))
    bodies = [
        fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_suite_")
    ]
    bad = []
    for fn in bodies:
        first = fn.args.args[0].arg
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id == "MonoidSpec":
                bad.append(f"{fn.name}:{node.lineno} names MonoidSpec")
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(isinstance(n, ast.Name) and n.id == first for n in sides) and any(
                    isinstance(n, ast.Constant) and n.value is None for n in sides
                ):
                    bad.append(f"{fn.name}:{node.lineno} compares {first} with None")
    assert len(bodies) == len({row[0] for row in _SUITES.values()}) and bad == []
