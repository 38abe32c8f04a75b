"""What the suites that run on scaled sets report when a scaled core they
call is wrong: a FAIL whose witness is rendered from decoded elements.  The
expected reports are those the suites gave while they still built `FinSet`s
or `Fraction`s and called the public functions, made to return the same
wrong answers.  `is_furstenberg_sample`, which scans atoms as prop-6.4's
descent does, is checked under the same wrong scan."""

import dataclasses
import sys
from fractions import Fraction as F

import pytest

from finpow import cli
from finpow.arith import InvalidInputError
from finpow.atomicity import is_furstenberg_sample, lemma54_sum_witness
from finpow.backend import (
    MonoidSpec,
    TruncationError,
    atoms,
    clear_caches,
    encode,
    ex44_a1_atoms,
    ex44_a2_atoms,
    parse_monoid_spec,
)
from finpow.mcd import _cap_constant_on_scaled, _mcd_in_P, chain_divisors, ex44_chain
from finpow.power import (
    NOT_ATOMIC, _divides_in_P, _p_factor, _sumset, _sumset_all, is_indecomposable,
)
from finpow.suites import run_verify_suite

power = sys.modules["finpow.power"]
mcd = sys.modules["finpow.mcd"]
suites = sys.modules["finpow.suites"]
PUISEUX = parse_monoid_spec("kind puiseux\ngens 3/2, 5/2")


def _drop_last(elems: tuple) -> tuple:
    return elems[:-1] if len(elems) > 1 else elems


def _wrong_sumset(a, b):
    return _drop_last(_sumset(a, b))


def _wrong_divides(u, w, q):
    c = _divides_in_P(u, w, q)
    return None if c is None else _drop_last(c)


def _wrong_mcd_in_P(fam, q):
    out = _mcd_in_P(fam, q)
    return [] if any(len(t) > 1 for t in fam) else out


# (core, wrong core, spec, suite, budget_used, checks); a FAIL witness shows
# decoded elements, such as 21/2 over <3/2, 5/2>, never a scaled int
@pytest.mark.parametrize(
    "core, wrong, spec, suite, used, checks",
    [
        ("_sumset", _wrong_sumset, None, "lemma-2.6", 220, [
            ("min-max-additivity[numerical(1)]", "fail", "{4, 11} + {8}"),
            ("min-max-additivity[numerical(2,3)]", "fail", "{7} + {24, 25, 30}"),
            ("divides-witness-invariants[numerical(1)]", "fail", "{22, 28} | {46}"),
            ("divides-witness-invariants[numerical(2,3)]", "fail", "{3, 13} | {6, 16, 24, 26}"),
        ]),
        ("_sumset", _wrong_sumset, None, "lemma-3.2", 135, [
            ("sumset-cardinality[numerical(1)]", "fail",
             "cardinality-bound: {7, 8, 21, 23} + {28}"),
            ("sumset-cardinality[numerical(2,3)]", "fail", "cardinality-bound: {12} + {2, 8, 22}"),
        ]),
        ("_sumset", _wrong_sumset, None, "thm-4.5", 609, [
            ("certificate-resums", "fail", "{0, 2}"),
        ]),
        ("_sumset", _wrong_sumset, PUISEUX, "lemma-2.6", 288, [
            ("min-max-additivity[puiseux(3/2,5/2)]", "fail", "{6, 13} + {21/2}"),
            ("divides-witness-invariants[puiseux(3/2,5/2)]", "fail",
             "{0, 17/2, 28} | {51/2, 53/2, 34, 35, 107/2}"),
        ]),
        ("_sumset", _wrong_sumset, PUISEUX, "lemma-3.2", 153, [
            ("sumset-cardinality[puiseux(3/2,5/2)]", "fail",
             "cardinality-bound: {19/2, 21/2, 23, 25} + {30}"),
        ]),
        ("_sumset", _wrong_sumset, PUISEUX, "thm-4.5", 1278, [
            ("certificate-resums", "fail", "{0, 3/2}"),
        ]),
        ("_divides_in_P", _wrong_divides, None, "lemma-2.6", 445, [
            ("min-max-additivity[numerical(1)]", "pass", "500 random pairs"),
            ("min-max-additivity[numerical(2,3)]", "pass", "500 random pairs"),
            ("divides-witness-invariants[numerical(1)]", "fail",
             "{4, 7, 14} | {9, 12, 19, 34, 37, 44}"),
            ("divides-witness-invariants[numerical(2,3)]", "fail", "{0} | {9, 20}"),
        ]),
        ("_divides_in_P", _wrong_divides, PUISEUX, "lemma-2.6", 381, [
            ("min-max-additivity[puiseux(3/2,5/2)]", "pass", "1000 random pairs"),
            ("divides-witness-invariants[puiseux(3/2,5/2)]", "fail",
             "{21/2, 30} | {29/2, 63/2, 34, 38, 51, 115/2}"),
        ]),
        ("_mcd_in_P", _wrong_mcd_in_P, None, "prop-4.1", 546, [
            ("mcd-existence-agrees[numerical(2,3)]", "fail", "{0, 2}"),
            ("mcd-existence-agrees[numerical(3,4,5)]", "fail", "{0, 3}"),
        ]),
        ("_mcd_in_P", _wrong_mcd_in_P, PUISEUX, "prop-4.1", 512, [
            ("mcd-existence-agrees[puiseux(3/2,5/2)]", "fail", "{0, 3/2}"),
        ]),
    ],
)
def test_a_wrong_core_makes_the_suite_fail_with_a_decoded_witness(
    monkeypatch, core, wrong, spec, suite, used, checks
):
    # the suite and the public functions of the core's own module both see
    # the wrong core; mcd_in_P's strip step keeps the right sumset
    monkeypatch.setattr(suites, core, wrong)
    monkeypatch.setattr(mcd if core == "_mcd_in_P" else power, core, wrong)
    clear_caches()
    report = run_verify_suite(suite, spec)
    assert [(c.check_id, c.status, c.witness) for c in report.checks] == checks
    assert report.budget_used == used


atomicity = sys.modules["finpow.atomicity"]
RANK2 = parse_monoid_spec("kind rank2\ngens (0,1), (1/5,2), (1/7, 5/2)")
EX44_2 = parse_monoid_spec("family EX44 depth 2")
real_projection, real_descent = atomicity._projection_failure, atomicity._descent
real_divisor, real_residue = atomicity._p_furstenberg_divisor, suites._residue
real_atom_divisors = atomicity._atom_divisors


def _gap_at_the_max(sets, q):
    if len(sets) == 2:
        return "offset inside the gap", _sumset_all(sets, 0)[-1]
    return real_projection(sets, q)


def _pair_not_an_atom(sets, q):
    return ("input set is not an atom", sets[0]) if len(sets[0]) == 2 else real_projection(sets, q)


def _descent_fails_at_two_atoms(members, ats, q):
    real_descent(members, ats, q)
    return False, ats[-1] + ats[0]


def _no_atom_divides_twice_the_least(n, ats, q):
    # the real `_descent` then finds no atom at 2 * (least atom) and
    # reports that member as its counterexample
    return iter(()) if n == 2 * ats[0] else real_atom_divisors(n, ats, q)


def _divisor_is_the_triple(t, q):
    return t if len(t) == 3 else real_divisor(t, q)


def _divisor_is_the_largest_atom(t, q):
    if len(t) == 1:
        return (encode(max(atoms(q.spec, q.budget)), q.spec),)
    return real_divisor(t, q)


def _divisor_is_one(t, q):
    # the scaled {1} is {1} over <2, 3>, a set outside the monoid
    return (1,) if len(t) == 1 and t != (1,) else real_divisor(t, q)


def _squared_residue(n, a, p):
    return real_residue(n, a, p) ** 2 % p


# (module, core, wrong core, spec, suite, budget_used, checks).  The expected
# reports are those the suites gave while they called the public
# `thm55_projection_check`, `tidf_implies_atomic_check`,
# `p_furstenberg_divisor` and `cap_residue`, made to return the same wrong
# answers, with a set in set syntax: a point prints as (x, y), a set as
# {...}, a counterexample or a residue's element as a rational.  A divisor
# outside the monoid fails as divisor-in-monoid, before `_decompositions`
# would raise on it.
@pytest.mark.parametrize(
    "module, core, wrong, spec, suite, used, checks",
    [
        (suites, "_projection_failure", _gap_at_the_max, None, "thm-5.5-gap", 1473, [
            ("projection-gap-mechanism", "fail", "offset inside the gap: (1/7, 331/120)"),
        ]),
        (suites, "_projection_failure", _pair_not_an_atom, None, "thm-5.5-gap", 1427, [
            ("projection-gap-mechanism", "fail",
             "input set is not an atom: {(0, 0), (0, 1/8)}"),
        ]),
        (suites, "_projection_failure", _gap_at_the_max, RANK2, "thm-5.5-gap", 78, [
            ("projection-gap-mechanism", "fail", "offset inside the gap: (1/5, 3)"),
        ]),
        (atomicity, "_descent", _descent_fails_at_two_atoms, None, "prop-6.4", 1548, [
            ("atomicity-descent[numerical(2,3)]", "fail", "counterexample 5"),
            ("atomicity-descent[numerical(1)]", "fail", "counterexample 2"),
            ("atomicity-descent[puiseux(1/26,5/66,1/7,4/15)]", "fail", "counterexample 119/390"),
        ]),
        (atomicity, "_descent", _descent_fails_at_two_atoms, PUISEUX, "prop-6.4", 862, [
            ("atomicity-descent[puiseux(3/2,5/2)]", "fail", "counterexample 4"),
        ]),
        (atomicity, "_atom_divisors", _no_atom_divides_twice_the_least, None, "prop-6.4", 280, [
            ("atomicity-descent[numerical(2,3)]", "fail", "counterexample 4"),
            ("atomicity-descent[numerical(1)]", "fail", "counterexample 2"),
            ("atomicity-descent[puiseux(1/26,5/66,1/7,4/15)]", "fail", "counterexample 1/13"),
        ]),
        (atomicity, "_atom_divisors", _no_atom_divides_twice_the_least, PUISEUX, "prop-6.4", 160,
         [
            ("atomicity-descent[puiseux(3/2,5/2)]", "fail", "counterexample 3"),
        ]),
        (suites, "_p_furstenberg_divisor", _divisor_is_the_triple, None, "lemma-6.1", 682, [
            ("divisor-is-atom", "fail", "{0, 2, 4}"),
        ]),
        (suites, "_p_furstenberg_divisor", _divisor_is_the_largest_atom, None, "lemma-6.1", 43, [
            ("divisor-divides", "fail", "{2}"),
        ]),
        (suites, "_p_furstenberg_divisor", _divisor_is_one, None, "lemma-6.1", 22, [
            ("divisor-in-monoid", "fail", "{2}"),
        ]),
        (suites, "_p_furstenberg_divisor", _divisor_is_the_triple, PUISEUX, "lemma-6.1", 1882, [
            ("divisor-is-atom", "fail", "{0, 3/2, 3}"),
        ]),
        (suites, "_p_furstenberg_divisor", _divisor_is_the_largest_atom, PUISEUX, "lemma-6.1",
         45, [
            ("divisor-divides", "fail", "{3/2}"),
        ]),
        (suites, "_residue", _squared_residue, None, "cap-additivity", 0, [
            ("residue-additivity", "fail", "q=238549/340340 r=1104539/1021020 a=7/204 p=17"),
        ]),
        (suites, "_residue", _squared_residue, EX44_2, "cap-additivity", 0, [
            ("residue-additivity", "fail", "q=10139/15015 r=1121/2310 a=4/15 p=5"),
        ]),
    ],
)
def test_a_wrong_atomicity_or_residue_core_fails_with_a_decoded_witness(
    monkeypatch, module, core, wrong, spec, suite, used, checks
):
    monkeypatch.setattr(module, core, wrong)
    clear_caches()
    report = run_verify_suite(suite, spec)
    assert [(c.check_id, c.status, c.witness) for c in report.checks] == checks
    assert report.budget_used == used


@pytest.mark.parametrize(
    "spec, bound, counterexample",
    [(MonoidSpec.numerical(2, 3), 50, 4), (EX44_2, F(1, 2), F(1, 13))],
)
def test_a_wrong_atom_scan_makes_the_furstenberg_sample_fail_at_a_decoded_member(
    monkeypatch, spec, bound, counterexample
):
    # the least member with no atom divisor under the wrong scan is twice
    # the least atom, reported as an element of the monoid, not a scaled int
    monkeypatch.setattr(atomicity, "_atom_divisors", _no_atom_divides_twice_the_least)
    clear_caches()
    report = is_furstenberg_sample(spec, bound)
    assert (report.ok, report.counterexample) == (False, counterexample)


def _wide_sets_decompose(s, sp, bud):
    return is_indecomposable(s, sp, bud) and len(s) < 5


def _refuse_a_falling_pair(q, r, branches):
    if q > r:
        raise InvalidInputError(f"{q} > {r}")
    return lemma54_sum_witness(q, r, branches)


def _second_step_certificates_swapped(length, depth, bud):
    steps = ex44_chain(length, depth, bud)
    swapped = steps[1].residual_certificates[::-1]
    return [steps[0], dataclasses.replace(steps[1], residual_certificates=swapped), *steps[2:]]


def _first_family_from_depth_3(d):
    return ex44_a2_atoms(d) + ex44_a1_atoms(d) if d >= 3 else ex44_a2_atoms(d)


def _pairs_truncate(fam, q):
    out = _mcd_in_P(fam, q)
    if len(fam) == 2:
        raise TruncationError("a two-set family")
    return out


LEMMA52_WITNESS = (
    "{57/65, 1961/2145, 15872/15015, 1264/1155, 32899/30030, 34019/30030} at a=4/15 p=5"
)


def _wide_sets_vary(t, p):
    return len(t) < 2 and _cap_constant_on_scaled(t, p)


def _singletons_vary(t, p):
    return len(t) >= 2 and _cap_constant_on_scaled(t, p)


def _triples_not_atomic(s, q, memo):
    return NOT_ATOMIC if len(s) == 3 else _p_factor(s, q, memo)


def _every_set_an_atom(s, q, memo):
    return [s]


def _chain_without_its_top(steps):
    return chain_divisors(steps)[:-1]


# (core, wrong core, spec, suite, budget_used, checks): the FAIL of a random
# check is that of its first failing trial, prop-4.1 reports a
# TruncationError of `_mcd_in_P` as it reports a family with no MCD, and
# lemma-5.2 fails on a random set before it decomposes it (at no node) and
# on a side of a decomposition after
@pytest.mark.parametrize(
    "core, wrong, spec, suite, used, checks",
    [
        ("is_indecomposable", _wide_sets_decompose, None, "lemma-4.2", 537, [
            ("augmentation-indecomposable", "fail", "{6, 7, 8, 9}"),
        ]),
        ("is_indecomposable", _wide_sets_decompose, PUISEUX, "lemma-4.2", 380, [
            ("augmentation-indecomposable", "fail", "{5, 13/2, 8, 17/2}"),
        ]),
        ("lemma54_sum_witness", _refuse_a_falling_pair, None, "lemma-5.4", 0, [
            ("baseline-identity-7/3", "pass", "p=5, increment=(0, 1/2)"),
            ("random-sum-certificates", "fail", "14/5, 395/143"),
        ]),
        ("ex44_chain", _second_step_certificates_swapped, None, "ex-4.4", 1115, [
            ("ascending-divisor-chain", "pass", "0 < 1/2 < 3/4 < 7/8"),
            ("chain-certificates-resum", "fail", "3 steps, two certificates each"),
            ("one-avoids-second-family", "pass", "all depths <= 6"),
        ]),
        ("ex44_a2_atoms", _first_family_from_depth_3, None, "ex-4.4", 527, [
            ("ascending-divisor-chain", "pass", "0 < 1/2 < 3/4 < 7/8"),
            ("chain-certificates-resum", "pass", "3 steps, two certificates each"),
            ("one-avoids-second-family", "fail", "depth 3"),
        ]),
        ("_mcd_in_P", _pairs_truncate, None, "prop-4.1", 1165, [
            ("mcd-existence-agrees[numerical(2,3)]", "fail", "{0} , {2}"),
            ("mcd-existence-agrees[numerical(3,4,5)]", "fail", "{0} , {3}"),
        ]),
        ("_mcd_in_P", _pairs_truncate, PUISEUX, "prop-4.1", 2011, [
            ("mcd-existence-agrees[puiseux(3/2,5/2)]", "fail", "{0} , {3/2}"),
        ]),
        ("_cap_constant_on_scaled", _wide_sets_vary, None, "lemma-5.2", 0, [
            ("residue-constant-on-divisors", "fail", LEMMA52_WITNESS),
        ]),
        ("_cap_constant_on_scaled", _singletons_vary, None, "lemma-5.2", 440, [
            ("residue-constant-on-divisors", "fail", LEMMA52_WITNESS),
        ]),
        ("_p_factor", _triples_not_atomic, None, "thm-4.5", 2032, [
            ("p-factorization-exists", "fail", "{0, 2, 3}"),
        ]),
        ("_p_factor", _every_set_an_atom, None, "thm-4.5", 70, [
            ("parts-are-atoms", "fail", "{4}"),
        ]),
        ("chain_divisors", _chain_without_its_top, None, "ex-4.4", 1115, [
            ("ascending-divisor-chain", "fail", "0 , 1/2 , 3/4"),
            ("chain-certificates-resum", "pass", "3 steps, two certificates each"),
            ("one-avoids-second-family", "pass", "all depths <= 6"),
        ]),
    ],
)
def test_a_check_fails_at_its_first_bad_trial(monkeypatch, core, wrong, spec, suite, used, checks):
    monkeypatch.setattr(suites, core, wrong)
    clear_caches()
    report = run_verify_suite(suite, spec)
    assert [(c.check_id, c.status, c.witness) for c in report.checks] == checks
    assert report.budget_used == used


def _p_factor_truncates(s, q, memo):
    raise TruncationError("a truncated factorization")


def test_a_truncated_suite_body_is_one_inconclusive_row(monkeypatch, capsys):
    # the TruncationError of a core the suite does not catch itself becomes
    # the report's one suite-body row, and `verify` exits 3 with that report
    # on stdout, not through `main`'s own handler
    monkeypatch.setattr(suites, "_p_factor", _p_factor_truncates)
    clear_caches()
    report = run_verify_suite("thm-4.5")
    assert [(c.check_id, c.status, c.witness) for c in report.checks] == [
        ("suite-body", "truncation-inconclusive", "a truncated factorization"),
    ]
    assert report.status == "truncation-inconclusive"
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "thm-4.5"]) == 3
    out, err = capsys.readouterr()
    assert "suite-body" in out and "truncation-inconclusive" in out
    assert err == ""
