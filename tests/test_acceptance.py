"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail line.
Run `pytest tests/test_acceptance.py -v -s` to see the lines directly.
"""

import hashlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from finpow.atomicity import canonical_decomp_Q, k_of, lemma54_sum_witness
from finpow.arith import QPoint2
from finpow.backend import (
    MonoidSpec,
    clear_caches,
    divisors,
    ex44_a2_atoms,
    expand_family,
    factorizations,
    member,
    members_upto,
    parse_monoid_spec,
)
from finpow.mcd import chain_divisors, ex44_chain
from finpow.power import FinSet, divides_in_P, sumset
from finpow.suites import run_all_suites, run_verify_suite
from oracles import naive_divisors, naive_factorizations, naive_members

N23 = MonoidSpec.numerical(2, 3)
N345 = MonoidSpec.numerical(3, 4, 5)


@contextmanager
def criterion(n: int, label: str, limit_s: float = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {n:2d} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    if limit_s is not None and elapsed > limit_s:
        print(f"[acceptance] criterion {n:2d} ({label}): FAIL (too slow)")
        raise AssertionError(f"criterion {n} took {elapsed:.1f}s > {limit_s}s")
    print(f"[acceptance] criterion {n:2d} ({label}): pass ({elapsed:.1f}s)")


def suite_ok(name):
    clear_caches()
    report = run_verify_suite(name)
    assert report.ok, report.to_text()
    return report


def test_criterion_01_min_max_additivity():
    with criterion(1, "min/max additivity", limit_s=5):
        suite_ok("lemma-2.6")


def test_criterion_02_cardinality_bound():
    with criterion(2, "sumset cardinality bound"):
        suite_ok("lemma-3.2")


def test_criterion_03_divisibility_witness_invariants():
    with criterion(3, "divisibility witness invariants"):
        rng = random.Random(3)
        pool = [b for b in members_upto(N23, 15)]
        checked = 0
        while checked < 500:
            s = FinSet(tuple(rng.sample(pool, rng.randrange(1, 4))))
            d = FinSet(tuple(rng.sample(pool, rng.randrange(1, 4))))
            t = sumset(s, d)
            w = divides_in_P(s, t, N23)
            assert w is not None
            assert sumset(s, w) == t
            assert w.min == t.min - s.min and w.max == t.max - s.max
            assert len(t) >= len(s) + len(w) - 1
            if len(s) >= 2:
                assert len(t) > len(w)
            checked += 1


def test_criterion_04_naive_oracle_equivalence():
    with criterion(4, "naive oracle equivalence", limit_s=30):
        for gens in ((2, 3), (3, 4, 5)):
            spec = MonoidSpec.numerical(*gens)
            want = naive_members(spec.generators, F(30))
            for q in map(F, range(31)):
                assert member(q, spec) == (q in want)
                if q in want:
                    assert divisors(q, spec) == naive_divisors([q], want)
                    got = {f.parts for f in factorizations(q, spec)}
                    assert got == naive_factorizations(q, spec.generators)


def test_criterion_05_p_factorization_sweep():
    with criterion(5, "power-monoid factorization sweep", limit_s=120):
        suite_ok("thm-4.5")


def test_criterion_06_mcd_level_equivalence():
    with criterion(6, "MCD level equivalence"):
        suite_ok("prop-4.1")


def test_criterion_07_witness_chain():
    with criterion(7, "ascending witness chain", limit_s=60):
        suite_ok("ex-4.4")
        steps = ex44_chain(3, 6)
        assert chain_divisors(steps) == [F(0), F(1, 2), F(3, 4), F(7, 8)]
        cert_renders = [
            c.render() for step in steps for c in step.residual_certificates
        ]
        for expected in ("13*(1/26)", "11*(5/66)", "19*(1/76)", "17*(7/204)"):
            assert expected in cert_renders
        for depth in range(1, 7):
            spec = expand_family("EX44", depth)
            a2 = set(ex44_a2_atoms(depth))
            for fac in factorizations(F(1), spec):
                assert not any(a in a2 for a, _ in fac)


def test_criterion_08_residue_invariants():
    with criterion(8, "residue-class invariants"):
        suite_ok("cap-additivity")
        suite_ok("lemma-5.2")


@pytest.mark.parametrize(
    "text, status, witness, used",
    [
        ("kind puiseux\ngens 1/3, 1/2", "pass", "100 random sets, 335 decompositions", 1097),
        ("kind puiseux\ngens 1/3, 1/5, 1/2", "pass", "100 random sets, 1478 decompositions", 7802),
        ("kind family\nfamily Q-ODDPRIMES depth 3", "pass", "100 random sets, 2230 decompositions", 12839),
        (
            "kind family\nfamily EX44 depth 3",
            "budget-exceeded",
            "budget 1000000 exhausted: search budget of 1000000 nodes exceeded",
            1000001,
        ),
    ],
)
def test_lemma_5_2_on_other_specs(text, status, witness, used):
    clear_caches()
    report = run_verify_suite("lemma-5.2", parse_monoid_spec(text))
    assert [(c.status, c.witness) for c in report.checks] == [(status, witness)]
    assert report.budget_used == used


def test_criterion_09_augmented_indecomposables():
    with criterion(9, "augmented indecomposables", limit_s=60):
        suite_ok("lemma-4.2")


def test_criterion_10_canonical_decomposition():
    with criterion(10, "canonical decomposition"):
        assert k_of(F(7, 3)) == 0
        assert k_of(F(32, 15)) == 1
        assert k_of(F(38, 15)) == 0
        rng = random.Random(10)
        primes = (3, 5, 7, 11, 13, 17)
        for _ in range(1000):
            ell = rng.randrange(-5, 6)
            chosen = rng.sample(primes, rng.randrange(0, 4))
            q = F(ell) + sum((F(rng.randrange(0, p), p) for p in chosen), F(0))
            assert canonical_decomp_Q(q).value == q


def test_criterion_11_two_atom_rewriting():
    with criterion(11, "two-atom rewriting identity"):
        cert = lemma54_sum_witness(F(7, 3), F(7, 3), branches=("A", "B"))
        assert cert.p == 5
        assert cert.left == (
            QPoint2(F(1, 5), F(10, 3)),
            QPoint2(F(1, 7), F(10, 3)),
        )
        assert cert.right == (
            QPoint2(F(1, 5), F(32, 15) + F(1, 2)),
            QPoint2(F(1, 7), F(38, 15) + F(1)),
        )
        assert cert.increment == QPoint2(F(0), F(1, 2)) and cert.multiplicity == 1
        assert cert.left_sum == cert.right_sum
        suite_ok("lemma-5.4")


def test_criterion_12_projection_gap():
    with criterion(12, "first-coordinate projection gap"):
        suite_ok("thm-5.5-gap")


def test_criterion_13_atom_divisor_ascent_descent():
    with criterion(13, "atom-divisor ascent and descent"):
        suite_ok("lemma-6.1")
        suite_ok("prop-6.4")


def test_criterion_14_deterministic_full_run():
    with criterion(14, "deterministic full verification", limit_s=300):
        run1 = run_all_suites()
        run2 = run_all_suites()
        assert all(r.ok for r in run1), "\n".join(r.to_text() for r in run1)
        first = b"\n".join(r.to_json_lines().encode() for r in run1)
        second = b"\n".join(r.to_json_lines().encode() for r in run2)
        assert first == second
        assert [r.budget_used for r in run1] == [
            3262, 135, 27195, 7461, 7508, 1115, 0, 83099, 0, 3739, 2094, 1548
        ]
        # the benchmark's golden digest of `finpow verify --suite all`
        digest = hashlib.sha256("".join(r.to_json_lines() for r in run1).encode())
        assert digest.hexdigest() == (
            "e3f17e0f4299d8674ffde12067d17d4cbc787029359b338db45b4fdca1c033a6"
        )


def test_run_all_suites_keeps_a_zero_budget_limit():
    # a limit of 0 is a budget like any other: every suite that searches at
    # all runs out, as it does under run_verify_suite(name, budget=0)
    reports = run_all_suites(budget_limit=0)
    for r in reports:
        clear_caches()
        alone = run_verify_suite(r.suite, budget=0)
        assert (r.status, r.budget_used) == (alone.status, alone.budget_used)
    assert {r.status for r in reports} == {"pass", "budget-exceeded"}
    assert max(r.budget_used for r in reports) == 1
