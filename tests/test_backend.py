"""Monoid backends checked against a naive exhaustive-coefficient oracle."""
import ast
import gc
import hashlib
import importlib
import os
import pickle
import pkgutil
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finpow
from finpow import backend
from finpow.arith import InvalidInputError, QPoint2, parse_element, primes_geq, render_element
from finpow.backend import (
    Factorization,
    clear_caches,
    Budget,
    BudgetExceededError,
    MonoidSpec,
    _Query,
    _divisors,
    atoms,
    decode,
    divisors,
    encode,
    ex44_a1_atoms,
    ex44_a2_atoms,
    expand_family,
    factorizations,
    member,
    members_upto,
    parse_monoid_spec,
    render_monoid_spec,
    representations,
)
from finpow.atomicity import (
    accp_chain_explore,
    atom_divisors,
    is_furstenberg_sample,
    p_accp_chain_explore,
    p_furstenberg_divisor,
    rank2_atom,
    tidf_implies_atomic_check,
)
from finpow.mcd import (
    chain_divisors,
    common_divisors,
    ex44_chain,
    mcd,
    mcd_in_P,
    p_divisors,
)
from finpow.power import (
    FinSet,
    augment_indecomposable,
    decompositions,
    divides_in_P,
    is_p_atom,
    p_factorize,
    parse_finset,
    sumset_all,
)
from oracles import (
    naive_atoms,
    naive_divisors,
    naive_factorizations,
    naive_members,
    naive_representations,
    numerical_specs,
    puiseux_specs,
    rank2_specs,
)


class TestMonoidSpec:
    def test_rejects_nonpositive_generators(self):
        with pytest.raises(InvalidInputError):
            MonoidSpec.puiseux(Fraction(-1, 2))
        with pytest.raises(InvalidInputError):
            MonoidSpec.numerical(0, 2)

    def test_numerical_requires_integers(self):
        with pytest.raises(InvalidInputError):
            MonoidSpec("numerical", (Fraction(1, 2),))

    def test_duplicate_generators_are_rejected(self):
        with pytest.raises(InvalidInputError):
            MonoidSpec.numerical(3, 2, 3)

    def test_the_largest_spec_searches_without_recursion_error(self):
        # the coefficient search recurses once per generator; each query
        # below walks every level
        clear_caches()
        sp = MonoidSpec.of_family("Q-ODDPRIMES", backend._MAX_GENERATORS)
        assert len(sp.generators) == backend._MAX_GENERATORS
        least = sp.generators[0]
        assert member(Fraction(1), sp)
        assert divisors(least, sp) == [0, least]
        assert factorizations(Fraction(1), sp, limit=1) == [
            Factorization(((Fraction(1, 3), 3),))
        ]

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: MonoidSpec.of_family("Q-ODDPRIMES", n),
            lambda n: MonoidSpec.numerical(*range(1000, 1000 + n)),
            lambda n: MonoidSpec.of_family("RANK2-5.3", n - 2, (Fraction(7, 3),)),
        ],
        ids=["Q-ODDPRIMES", "numerical", "RANK2-5.3"],
    )
    def test_one_generator_past_the_bound_is_refused(self, make):
        bound = backend._MAX_GENERATORS
        assert len(make(bound).generators) == bound
        with pytest.raises(InvalidInputError, match=str(bound)):
            make(bound + 1)

    @pytest.mark.parametrize("family", backend.FAMILY_TAGS)
    def test_a_family_past_the_bound_is_refused_before_it_is_expanded(self, monkeypatch, family):
        # expanding a depth of 10**9 would list 10**9 primes or more
        def expand(*args):
            raise AssertionError("expanded")

        monkeypatch.setattr(backend, "expand_family", expand)
        with pytest.raises(InvalidInputError, match="family depth must be from 1 to 512"):
            MonoidSpec.of_family(family, 10**9)

    def test_generators_are_sorted(self):
        sp = MonoidSpec.numerical(3, 2)
        assert sp.generators == (Fraction(2), Fraction(3))

    def test_spec_round_trip(self):
        for sp in (
            MonoidSpec.numerical(2, 3),
            MonoidSpec.puiseux(Fraction(1, 2), Fraction(2, 3)),
            MonoidSpec.of_family("EX44", 3),
            MonoidSpec.of_family(
                "RANK2-5.3", 2, (Fraction(7, 3), Fraction(32, 15))
            ),
        ):
            back = parse_monoid_spec(render_monoid_spec(sp))
            # `==` compares generators only, so the labels are compared too
            assert back == sp
            assert (back.kind, back.family, back.depth, back.sample) == (
                sp.kind, sp.family, sp.depth, sp.sample
            )

    def test_rank2_rejects_negative_first_coordinate(self):
        # the rank-2 search prunes negative x, so such a generator would
        # be reported as a non-member of its own monoid
        with pytest.raises(InvalidInputError, match="negative first coordinate"):
            MonoidSpec.rank2(
                QPoint2(Fraction(-1), Fraction(1)), QPoint2(Fraction(1), Fraction(0))
            )

    def test_equal_specs_built_two_ways_hash_equal(self):
        a = MonoidSpec.numerical(3, 2)
        b = parse_monoid_spec("kind numerical\ngens 2, 3")
        assert a is not b
        assert a == b and hash(a) == hash(b)

    def test_member_cache_hit_from_equal_spec(self):
        clear_caches()
        a = MonoidSpec.numerical(3, 2)
        b = parse_monoid_spec("kind numerical\ngens 2, 3")
        assert member(Fraction(7), a)
        # a cache miss would spend a node and overrun the zero budget
        assert member(Fraction(7), b, Budget(0))

    def test_divisors_cache_hit_from_equal_spec(self):
        clear_caches()
        a = MonoidSpec.numerical(3, 2)
        b = parse_monoid_spec("kind numerical\ngens 2, 3")
        want = divisors(Fraction(7), a)
        assert divisors(Fraction(7), b, Budget(0)) == want

    def test_clear_caches_empties_every_cache(self):
        # run_all_suites clears the caches before each suite; its output is
        # byte-stable only if that leaves no cached state anywhere
        r2 = MonoidSpec.of_family("RANK2-5.3", 2, (Fraction(7, 3),))
        member(Fraction(7), MonoidSpec.numerical(2, 3))
        divisors(Fraction(4, 3), MonoidSpec.of_family("EX44", 2))
        divisors(QPoint2(Fraction(1, 5), Fraction(23, 6)), r2)
        members_upto(MonoidSpec.puiseux(Fraction(1, 2)), Fraction(3))
        factorizations(Fraction(5), MonoidSpec.numerical(2, 3))
        # twice, so the set's divisor enumeration is kept, not only marked
        for _ in range(2):
            decompositions(FinSet((4, 5, 6, 7)), MonoidSpec.numerical(2, 3))
        mcd_in_P([FinSet((3, 4)), FinSet((6, 7, 8))], MonoidSpec.numerical(3, 4, 5))
        # twice each, so that the pairs of kept enumerations are stored
        for _ in range(2):
            mcd_in_P([FinSet((4, 5, 6, 7))], MonoidSpec.numerical(2, 3))
            p_furstenberg_divisor(FinSet((4, 5)), MonoidSpec.numerical(2, 3))
        factorizations(Fraction(7), MonoidSpec.numerical(2, 3, 5, 7), limit=1)
        entries = list(backend._cache.values())
        repeats = ("elements", "mcds", "least", "walks", "picks")
        for name in repeats:
            assert any(getattr(e, name) for e in entries), name
        kept = [r for e in entries for r in e.enumerations.values() if r is not None]
        assert any(r[2] for r in kept)  # the pairs of a kept record
        modules = [
            importlib.import_module(f"finpow.{m.name}")
            for m in pkgutil.iter_modules(finpow.__path__)
        ]
        lru = {
            id(f): f for mod in modules for f in vars(mod).values()
            if hasattr(f, "cache_info")
        }.values()
        assert backend._cache and any(f.cache_info().currsize for f in lru)
        assert any(e.enumerations.get((4, 5, 6, 7)) for e in backend._cache.values())
        clear_caches()
        assert backend._cache == {}
        assert [f for f in lru if f.cache_info().currsize] == []
        fresh = backend._Query(MonoidSpec.numerical(2, 3), Budget()).entry
        assert fresh not in entries
        assert not any(getattr(fresh, name) for name in repeats + ("enumerations",))
        # only what queries repeat is memoized: the plans and the families
        assert sorted(f.__name__ for f in lru) == ["_plan", "expand_family"]

    @pytest.mark.parametrize(
        "spec, q",
        [
            (MonoidSpec.numerical(2, 3), Fraction(1, 2)),
            (MonoidSpec.puiseux(Fraction(1, 2), Fraction(1, 3)), Fraction(1, 5)),
        ],
    )
    def test_member_off_the_lattice_costs_one_node(self, spec, q):
        clear_caches()
        bud = Budget()
        assert not member(q, spec, bud)
        assert bud.used == 1

    def test_a_negative_element_is_no_member_at_no_node(self):
        # -1 is on the lattice, so only the sign test keeps it from a search
        clear_caches()
        bud = Budget()
        assert not member(Fraction(-1), MonoidSpec.numerical(2, 3), bud)
        assert bud.used == 0

    def test_family_is_expanded_once(self):
        # a family spec holds its expansion from construction and equals it,
        # so all three share one result-cache entry
        clear_caches()
        specs = (
            MonoidSpec.of_family("EX44", 3),
            MonoidSpec.of_family("EX44", 3),
            expand_family("EX44", 3),
        )
        assert specs[0] == specs[1] == specs[2]
        assert len({hash(sp) for sp in specs}) == 1
        for sp in specs:
            assert member(Fraction(1), sp)
        assert len(backend._cache) == 1
        assert specs[0].expanded() is specs[0]
        # denominators 76, 204, 26, 66, 7, 15
        assert specs[0].scale == 4 * 3 * 5 * 7 * 11 * 13 * 17 * 19

    def test_specs_are_equal_by_their_generators(self):
        # the kind is a label: both present the same monoid with one plan
        assert MonoidSpec.numerical(2, 3) == MonoidSpec.puiseux(2, 3)
        assert MonoidSpec.of_family("EX44", 2) != MonoidSpec.of_family("EX44", 3)

    @pytest.mark.parametrize(
        "spec",
        [
            MonoidSpec.of_family("EX44", 2),
            MonoidSpec.of_family("EX44", 3),
            MonoidSpec.of_family("EX44", 4),
            MonoidSpec.of_family("Q-ODDPRIMES", 3),
            MonoidSpec.of_family("RANK2-5.3", 2, (Fraction(7, 3),)),
        ],
        ids=["EX44@2", "EX44@3", "EX44@4", "Q-ODDPRIMES@3", "RANK2-5.3@2"],
    )
    def test_family_spec_answers_as_its_generators(self, spec):
        gens = spec.generators
        plain = MonoidSpec("rank2" if spec.is_rank2 else "puiseux", gens)
        b = gens[0] + gens[-1]
        s = FinSet((gens[0], b))
        queries = [
            lambda sp, bud: member(b, sp, bud),
            lambda sp, bud: divisors(b, sp, bud),
            lambda sp, bud: atoms(sp, bud),
            lambda sp, bud: factorizations(b, sp, bud),
            lambda sp, bud: decompositions(s, sp, bud),
        ]
        for query in queries:
            answers = []
            for sp in (spec, plain):
                clear_caches()
                bud = Budget()
                answers.append((query(sp, bud), bud.used))
            assert answers[0] == answers[1]

    def test_a_family_that_fails_to_expand_raises_when_built(self):
        with pytest.raises(InvalidInputError, match="5 is outside"):
            MonoidSpec.of_family("RANK2-5.3", 2, [5])

    def test_pickle_round_trip_keeps_eq_and_hash(self):
        sp = MonoidSpec.of_family("EX44", 3)
        hash(sp)
        assert pickle.loads(pickle.dumps(sp)) == sp
        # str hashes differ between processes: a spec pickled elsewhere must
        # hash like one built here
        code = (
            "import pickle, sys; from finpow.backend import MonoidSpec; "
            "sp = MonoidSpec.of_family('EX44', 3); hash(sp); "
            "sys.stdout.buffer.write(pickle.dumps(sp))"
        )
        env = dict(os.environ, PYTHONHASHSEED="1")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        blob = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, check=True
        ).stdout
        other = pickle.loads(blob)
        assert other == sp and hash(other) == hash(sp)

    def test_comment_and_blank_lines_are_skipped(self):
        text = "# the monoid <2, 3>\nkind numerical\n\n   \ngens 2, 3\n"
        assert parse_monoid_spec(text) == MonoidSpec.numerical(2, 3)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(InvalidInputError, match="line"):
            parse_monoid_spec("kind numerical\ngens 2, x")
        with pytest.raises(InvalidInputError):
            parse_monoid_spec("gens -1/2")


class TestOracleEquivalence:
    @pytest.mark.parametrize("gens", [(2, 3), (3, 4, 5)])
    def test_member_divisors_factorizations(self, gens):
        sp = MonoidSpec.numerical(*gens)
        mset = naive_members(sp.generators, Fraction(15))
        for q in map(Fraction, range(16)):
            assert member(q, sp) == (q in mset), q
            if q in mset:
                assert divisors(q, sp) == naive_divisors([q], mset), q
                got = {f.parts for f in factorizations(q, sp)}
                assert got == naive_factorizations(q, sp.generators), q

    def test_representations_resum(self):
        sp = MonoidSpec.puiseux(Fraction(1, 2), Fraction(2, 3))
        for rep in representations(Fraction(10, 3), sp):
            assert sum(
                (k * g for k, g in zip(rep, sp.generators)), Fraction(0)
            ) == Fraction(10, 3)


class TestAtoms:
    def test_numerical_atoms(self):
        assert atoms(MonoidSpec.numerical(2, 3)) == [Fraction(2), Fraction(3)]
        assert atoms(MonoidSpec.numerical(2, 4)) == [Fraction(2)]

    def test_ex44_generators_are_atoms(self):
        sp = expand_family("EX44", 2)
        assert atoms(sp) == sorted(sp.generators)

    def test_ex44_truncation_layout(self):
        assert ex44_a1_atoms(2) == (Fraction(1, 7), Fraction(1, 26))
        assert ex44_a2_atoms(2) == (Fraction(4, 15), Fraction(5, 66))
        assert ex44_a1_atoms(4)[3] == Fraction(1, 232)
        assert ex44_a2_atoms(4)[3] == Fraction(11, 552)


class TestEx44Membership:
    def test_key_members(self):
        sp = expand_family("EX44", 2)
        assert member(Fraction(1), sp)
        assert member(Fraction(4, 3), sp)
        assert member(Fraction(1, 2), sp)
        assert not member(Fraction(1, 3), sp)
        assert not member(Fraction(1, 5), sp)

    def test_members_upto_is_sorted_and_exact(self):
        sp = MonoidSpec.puiseux(Fraction(1, 2), Fraction(2, 3))
        got = members_upto(sp, Fraction(2))
        want = sorted(naive_members([Fraction(1, 2), Fraction(2, 3)], Fraction(2)))
        assert got == want

    def test_members_upto_a_negative_bound_is_empty(self):
        # 0 is the least member, so nothing lies in [0, -1/2]
        assert members_upto(MonoidSpec.numerical(2, 3), Fraction(-1, 2)) == []


class TestBudget:
    def test_exhaustion_raises_rather_than_lying(self):
        sp = expand_family("EX44", 3)
        with pytest.raises(BudgetExceededError):
            representations(Fraction(4, 3), sp, Budget(3))

    def test_budget_raises_on_first_node_past_limit(self):
        bud = Budget(5)
        for _ in range(5):
            bud.spend()
        with pytest.raises(BudgetExceededError):
            bud.spend()
        assert bud.used == 6

    def test_overshooting_spend_stops_one_past_the_limit(self):
        # a replayed enumeration spends its cost at once; it must leave the
        # count where spending node by node would have stopped
        bud = Budget(5)
        with pytest.raises(BudgetExceededError):
            bud.spend(9)
        assert bud.used == 6

    def test_budget_tracks_usage(self):
        clear_caches()
        bud = Budget(1000)
        member(Fraction(6), MonoidSpec.numerical(2, 3), bud)
        assert 0 < bud.used <= 1000

    def test_factorizations_refuse_a_point_before_the_atoms_cost_a_node(self):
        clear_caches()
        with pytest.raises(InvalidInputError, match="^element \\(1, 2\\) does not match spec"):
            factorizations(QPoint2(1, 2), MonoidSpec.numerical(2, 3), Budget(0))


# (call, message): each input the library refuses, with the message it gives
INPUT_REFUSALS = [
    (lambda: primes_geq(5, -1), "count must be nonnegative"),
    (lambda: parse_element("(1)"), "bad point literal '(1)'"),
    (lambda: parse_element("(1,2"), "bad point literal '(1,2'"),
    (lambda: parse_monoid_spec("family FOO"), "unknown family tag 'FOO'"),
    (lambda: parse_monoid_spec("kind numerical"), "empty generator list"),
    (lambda: parse_monoid_spec("kind rank2\ngens 1"), "rank2 spec requires plane-point generators"),
    (lambda: parse_monoid_spec("kind puiseux\ngens (0, 1)"),
     "rank-1 spec requires rational generators"),
    (lambda: parse_monoid_spec("kind numerical\ngens 2\ncolour red"),
     "line 3: unknown directive 'colour'"),
    (lambda: expand_family("FOO", 1), "unknown family tag 'FOO'"),
    (lambda: Factorization(((1, 0),)), "factorization multiplicities must be >= 1"),
    (lambda: members_upto(MonoidSpec.of_family("RANK2-5.3", 1), Fraction(1)),
     "members_upto supports rank-1 specs only"),
    (lambda: parse_finset("1, 2"), "bad set literal '1, 2'"),
    (lambda: sumset_all([FinSet((Fraction(1),))], MonoidSpec.rank2(QPoint2(0, 1))),
     "cannot add a set of points to a set of rationals"),
    (lambda: augment_indecomposable(FinSet((Fraction(1),))), "need at least two elements"),
    (lambda: augment_indecomposable(FinSet((Fraction(-1), Fraction(1)))),
     "min + max = 0 is unsupported"),
    (lambda: mcd_in_P([], MonoidSpec.numerical(2, 3)), "empty family"),
    (lambda: ex44_chain(0, 3), "chain length must be >= 1"),
]


@pytest.mark.parametrize("call, message", INPUT_REFUSALS)
def test_an_invalid_input_is_refused_with_its_message(call, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


class TestRank2Backend:
    def test_family_expansion_contains_branch_atoms(self):
        sp = MonoidSpec.of_family("RANK2-5.3", 2, (Fraction(7, 3),))
        assert QPoint2(Fraction(1, 5), Fraction(10, 3)) in sp.generators
        assert QPoint2(Fraction(1, 7), Fraction(10, 3)) in sp.generators
        assert QPoint2(Fraction(0), Fraction(1, 2)) in sp.generators

    def test_rank2_membership(self):
        sp = MonoidSpec.of_family("RANK2-5.3", 2, (Fraction(7, 3),))
        a = QPoint2(Fraction(1, 5), Fraction(10, 3))
        d = QPoint2(Fraction(0), Fraction(1, 2))
        assert member(a + d, sp)
        assert not member(QPoint2(Fraction(1, 5), Fraction(10, 3) - Fraction(1, 4)), sp)

    def test_rank2_factorization_totals(self):
        sp = MonoidSpec.of_family("RANK2-5.3", 2, (Fraction(7, 3),))
        b = QPoint2(Fraction(1, 5), Fraction(23, 6))
        facs = factorizations(b, sp)
        assert facs and all(f.total() == b for f in facs)
        assert Factorization(()).total() == 0


F = Fraction
R2_SPEC = MonoidSpec.of_family("RANK2-5.3", 3, (F(7, 3), F(32, 15)))
EX44_3 = MonoidSpec.of_family("EX44", 3)
# atoms (1, 2) + (3, 2) = 2*(2, 2) on one line, so sums repeat residuals
R2_LINE = MonoidSpec.rank2(
    QPoint2(0, 1), QPoint2(0, F(3, 2)), QPoint2(1, 2), QPoint2(2, 2), QPoint2(3, 2)
)
N345 = MonoidSpec.numerical(3, 4, 5)
N23 = MonoidSpec.numerical(2, 3)
N234 = MonoidSpec.numerical(2, 3, 4)
N34567 = MonoidSpec.numerical(3, 4, 5, 6, 7)
N101 = MonoidSpec.numerical(101, 103, 107)
EX44_2 = MonoidSpec.of_family("EX44", 2)
# {0, 1/26} + {5/66, 5/66 + 1/7}, over the generators 1/26, 5/66, 1/7, 4/15
EX44_2_SET = FinSet((F(5, 66), F(49, 429), F(101, 462), F(772, 3003)))
EX44_2_PAIR = FinSet(EX44_2_SET.elems[2:])
R2_ONE = MonoidSpec.of_family("RANK2-5.3", 3, (F(7, 3),))
R2_STEPS = [QPoint2(F(0), F(k, 8)) for k in range(4)]
R2_A = rank2_atom(F(7, 3), "A")
# the search plan puts (0, 2), whose x is 0, ahead of (1, 0), so only the
# x < 0 prune stops a residual with negative x at the root
R2_PRUNE = MonoidSpec.rank2(QPoint2(F(0), F(2)), QPoint2(F(1), F(0)))
R2_PRUNE_SET = FinSet((QPoint2(F(0), F(4)), QPoint2(F(1), F(2)), QPoint2(F(3), F(0))))
P12_23 = MonoidSpec.puiseux(F(1, 2), F(2, 3))
N7 = MonoidSpec.numerical(7)
R2_SINGLE = MonoidSpec.rank2(QPoint2(F(1, 2), F(1, 3)))


class TestNodeCounts:
    """Node counts pinned per call, cold cache.  The verify reports pin only
    suite totals; these pin the coefficient search query by query, off the
    lattice of the generators too.  A moved count moves the budget at which
    a query turns inconclusive."""

    @pytest.mark.parametrize(
        "fn, q, spec, answer, used",
        [
            # off the lattice: 1/4 is not in (1/6)Z, so it is no member, at
            # one node and with no search
            (member, F(1, 4), MonoidSpec.puiseux(F(1, 2), F(1, 6)), False, 1),
            (member, QPoint2(F(1, 35), F(9, 2)), R2_SPEC, False, 5),
            (member, QPoint2(F(12, 35), F(373, 60)), R2_SPEC, True, 55),
            (member, F(1), MonoidSpec.of_family("EX44", 4), True, 10),
            (member, F(117, 232), MonoidSpec.of_family("EX44", 4), True, 9),
            (member, F(1, 3), EX44_3, False, 5),
            (representations, F(1, 4), MonoidSpec.puiseux(F(1, 2), F(1, 6)), 0, 2),
            (representations, F(10, 3), MonoidSpec.puiseux(F(1, 2), F(2, 3)), 2, 6),
            (representations, F(1), EX44_3, 4, 15),
            (representations, QPoint2(F(1, 5), F(23, 6)), R2_SPEC, 4, 84),
            (divisors, F(12), N345, 9, 44),
            (divisors, F(4, 3), EX44_3, 5878, 6746),
            (divisors, QPoint2(F(12, 35), F(179, 30)), R2_SPEC, 6, 48),
            (factorizations, F(20), N345, 6, 83),
            (factorizations, F(1), EX44_3, 4, 15),
            (factorizations, QPoint2(F(1, 5), F(43, 12)), R2_SPEC, 1, 117),
            # the benchmark's member slice: wide leaf levels
            (member, F(2399), N101, True, 2108),
            (member, F(2311), N101, False, 2540),
            (member, F(2000), N101, False, 1731),
            (member, QPoint2(F(-1), F(6)), R2_PRUNE, False, 1),
            # two-generator plans, whose root is the second-to-last level
            (member, F(11), N23, True, 14),
            (divisors, F(12), N23, 11, 48),
            (factorizations, F(12), N23, 3, 29),
            (member, F(17, 6), P12_23, True, 4),
            (member, QPoint2(F(3), F(4)), R2_PRUNE, True, 8),
            (member, QPoint2(F(3), F(5)), R2_PRUNE, False, 4),
            (divisors, QPoint2(F(3), F(4)), R2_PRUNE, 12, 20),
            (factorizations, QPoint2(F(3), F(4)), R2_PRUNE, 1, 10),
            # one-generator plans, whose root is the last level
            (member, F(21), N7, True, 5),
            (member, F(20), N7, False, 4),
            (divisors, F(21), N7, 4, 9),
            (factorizations, F(21), N7, 1, 5),
            (member, QPoint2(F(2), F(4, 3)), R2_SINGLE, True, 6),
            (member, QPoint2(F(2), F(1)), R2_SINGLE, False, 5),
            (divisors, QPoint2(F(2), F(4, 3)), R2_SINGLE, 5, 11),
            (factorizations, QPoint2(F(2), F(4, 3)), R2_SINGLE, 1, 6),
        ],
    )
    def test_budget_used(self, fn, q, spec, answer, used):
        clear_caches()
        bud = Budget()
        out = fn(q, spec, bud)
        assert (out if isinstance(out, bool) else len(out)) == answer
        assert bud.used == used

    # no element of M lies below zero, so each element boundary answers such
    # an element as `member` does: empty, at no node, with no search and no
    # cache entry made, on or off the lattice, of either rank
    @pytest.mark.parametrize("fn, empty", [(member, False), (divisors, []), (atom_divisors, [])])
    @pytest.mark.parametrize(
        "b, spec",
        [
            (F(-1), N23),
            (F(-1, 7), N23),
            (QPoint2(F(0), F(-1)), R2_PRUNE),
            (QPoint2(F(-1), F(0)), R2_PRUNE),
        ],
        ids=["rank1", "rank1-off-lattice", "rank2", "rank2-y-0"],
    )
    def test_an_element_below_zero_costs_no_node(self, fn, empty, b, spec):
        clear_caches()
        bud = Budget()
        assert fn(b, spec, bud) == empty
        assert bud.used == 0
        assert spec not in backend._cache

    @pytest.mark.parametrize(
        "spec, ns, levels",
        [(N101, (2399, 2311, 2000), {0, 1}), (MonoidSpec.numerical(101, 103), (2399, 2311), {0})],
        ids=["three-generators", "two-generators"],
    )
    def test_the_search_enters_no_leaf_frame(self, monkeypatch, spec, ns, levels):
        # the second-to-last level sweeps the last two levels itself; a frame
        # at i > len(plan) - 2 would mean that the fold came undone
        search, seen = backend._search, []

        def spy(plan, i, *rest):
            seen.append((i, len(plan)))
            return search(plan, i, *rest)

        monkeypatch.setattr(backend, "_search", spy)
        clear_caches()
        for n in ns:
            member(F(n), spec, Budget())
        assert {i for i, _ in seen} == levels
        assert {size for _, size in seen} == {len(spec.generators)}

    @pytest.mark.parametrize("fn", [member, divisors, factorizations])
    @pytest.mark.parametrize("n", [2**63, 2**64 + 1])
    @pytest.mark.parametrize("gens", [(1,), (2, 3), (2, 3, 5)], ids=["1", "2-3", "2-3-5"])
    def test_a_target_past_2_63_runs_out_of_budget(self, fn, n, gens):
        # a level's leaves are counted without a range, whose len overflows
        # at 2**63, and a sweep stops once its charge outruns the budget
        clear_caches()
        bud = Budget(10**4)
        with pytest.raises(BudgetExceededError):
            fn(F(n), MonoidSpec.numerical(*gens), bud)
        assert bud.used == bud.limit + 1

    def test_a_sweep_stops_at_its_budget(self):
        # no combination of 4 and 6 is odd, so the root's sweep meets no hit;
        # without its budget break it would walk all 5*10**7 children
        clear_caches()
        bud = Budget(10**5)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            member(F(300000001), MonoidSpec.numerical(4, 6), bud)
        assert time.perf_counter() - start < 1
        assert bud.used == bud.limit + 1

    # the power layer, query by query: a member set's own membership tests
    # are ones the divisor enumeration makes anyway, so they cost nothing
    @pytest.mark.parametrize(
        "call, answer, used",
        [
            (lambda b: decompositions(FinSet((4, 5, 6, 7)), N23, b), 4, 72),
            (lambda b: p_divisors(FinSet((6, 7, 8, 9, 10)), N345, b), 10, 121),
            # divides_in_P tests each element of both sets first
            (lambda b: divides_in_P(FinSet((0, 2)), FinSet((4, 5, 6, 7)), N23, b), 2, 34),
            (lambda b: mcd_in_P([FinSet((3, 4)), FinSet((6, 7, 8))], N345, b), 1, 100),
            (lambda b: is_p_atom(FinSet((2, 3)), N23, b), True, 22),
            (lambda b: is_p_atom(FinSet((3, 4, 5, 6, 7)), N345, b), True, 70),
            (lambda b: decompositions(EX44_2_SET, EX44_2, b), 3, 54),
            (lambda b: p_divisors(EX44_2_SET, EX44_2, b), 8, 54),
            (lambda b: decompositions(FinSet(tuple(R2_STEPS)), R2_ONE, b), 2, 35),
            (lambda b: is_p_atom(FinSet(R2_STEPS[:2] + [R2_A, R2_A + R2_STEPS[1]]), R2_ONE, b), False, 33),
            (lambda b: decompositions(R2_PRUNE_SET, R2_PRUNE, b), 0, 51),
        ],
        ids=[
            "decompositions-N23", "p_divisors-N345", "divides_in_P-N23", "mcd_in_P-N345",
            "is_p_atom-N23", "is_p_atom-N345", "decompositions-EX44@2", "p_divisors-EX44@2",
            "decompositions-RANK2@3", "is_p_atom-RANK2@3", "decompositions-RANK2-prune",
        ],
    )
    def test_power_layer_budget_used(self, call, answer, used):
        clear_caches()
        bud = Budget()
        out = call(bud)
        assert (out.is_atom if hasattr(out, "is_atom") else len(out)) == answer
        assert bud.used == used

    # common divisors in M and atom divisors in P_fin(M), query by query;
    # {0, 2, 3, 5} has no nonzero singleton divisor, so p_furstenberg_divisor
    # takes its non-singleton branch there; a cold call reads the divisor
    # list of every element for its common divisors
    @pytest.mark.parametrize(
        "fn, s, spec, answer, used",
        [
            (common_divisors, FinSet((6, 9)), N23, [0, 2, 3, 4, 6], 45),
            (common_divisors, FinSet((8, 9, 12)), N345, [0, 3, 4, 5], 90),
            (common_divisors, EX44_2_PAIR, EX44_2, [0, F(5, 66), F(1, 7), F(101, 462)], 21),
            (mcd, FinSet((6, 9)), N23, [6], 100),
            (mcd, FinSet((8, 9, 12)), N345, [3, 4, 5], 145),
            (mcd, EX44_2_PAIR, EX44_2, [F(101, 462)], 59),
            (p_furstenberg_divisor, FinSet((0, 2, 3, 5)), N23, FinSet((0, 2)), 63),
            (p_furstenberg_divisor, FinSet((6, 7, 8, 9, 10)), N345, FinSet((3,)), 225),
            (p_furstenberg_divisor, EX44_2_SET, EX44_2, FinSet((F(5, 66),)), 87),
        ],
        ids=[
            "common_divisors-N23", "common_divisors-N345", "common_divisors-EX44@2",
            "mcd-N23", "mcd-N345", "mcd-EX44@2", "p_furstenberg_divisor-N23",
            "p_furstenberg_divisor-N345", "p_furstenberg_divisor-EX44@2",
        ],
    )
    def test_mcd_layer_budget_used(self, fn, s, spec, answer, used):
        clear_caches()
        bud = Budget()
        assert fn(s, spec, bud) == answer
        assert bud.used == used

    # the atomicity layer and p_factorize, query by query: longest chains,
    # atom divisors and the descents and samples built on them
    @pytest.mark.parametrize(
        "call, answer, used",
        [
            (lambda b: accp_chain_explore(F(12), N23, budget=b).chain,
             tuple(F(k) for k in (12, 10, 8, 6, 4, 2, 0)), 207),
            (lambda b: accp_chain_explore(F(1, 2), EX44_2, budget=b).chain,
             tuple(F(k, 26) for k in range(13, -1, -1)), 171),
            (lambda b: p_accp_chain_explore(FinSet((4, 5, 6, 7)), N23, budget=b).chain,
             (FinSet((4, 5, 6, 7)), FinSet((2, 3, 4, 5)), FinSet((0, 2)), FinSet((0,))), 115),
            (lambda b: p_accp_chain_explore(EX44_2_SET, EX44_2, budget=b).chain,
             (EX44_2_SET, FinSet((0, F(1, 26), F(1, 7), F(33, 182))), FinSet((0, F(1, 26))),
              FinSet((0,))), 79),
            (lambda b: atom_divisors(F(6), N23, b), [2, 3], 15),
            (lambda b: atom_divisors(F(772, 3003), EX44_2, b), [F(1, 26), F(5, 66), F(1, 7)], 14),
            (lambda b: is_furstenberg_sample(N345, 50, b).ok, True, 1537),
            (lambda b: is_furstenberg_sample(EX44_2, F(1, 2), b).ok, True, 679),
            (lambda b: tidf_implies_atomic_check(N23, 30, b).max_descent, 15, 492),
            (lambda b: tidf_implies_atomic_check(EX44_2, F(1, 2), b).max_descent, 13, 980),
            (lambda b: p_factorize(FinSet((4, 5, 6, 7)), N23, b),
             [FinSet((0, 2)), FinSet((2,)), FinSet((2, 3))], 92),
            (lambda b: p_factorize(FinSet((6, 7, 8, 9, 10)), N345, b),
             [FinSet((3,)), FinSet((3, 4, 5, 6, 7))], 150),
            (lambda b: p_factorize(EX44_2_SET, EX44_2, b),
             [FinSet((0, F(1, 26))), FinSet((0, F(1, 7))), FinSet((F(5, 66),))], 66),
        ],
        ids=[
            "accp_chain_explore-N23", "accp_chain_explore-EX44@2",
            "p_accp_chain_explore-N23", "p_accp_chain_explore-EX44@2",
            "atom_divisors-N23", "atom_divisors-EX44@2",
            "is_furstenberg_sample-N345", "is_furstenberg_sample-EX44@2",
            "tidf_implies_atomic_check-N23", "tidf_implies_atomic_check-EX44@2",
            "p_factorize-N23", "p_factorize-N345", "p_factorize-EX44@2",
        ],
    )
    def test_atomicity_layer_budget_used(self, call, answer, used):
        clear_caches()
        bud = Budget()
        assert call(bud) == answer
        assert bud.used == used

    # atoms and factorizations, cold and then warm in one process: a repeated
    # atom list costs nothing, while a repeated factorization reruns the
    # coefficient search over the atoms
    @pytest.mark.parametrize(
        "call, answer, cold, warm",
        [
            (lambda b: atoms(N234, b), [2, 3], 12, 0),
            (lambda b: atoms(N34567, b), [3, 4, 5], 36, 0),
            (lambda b: len(factorizations(F(20), N34567, b)), 6, 106, 70),
            # off the lattice: no atom divides 13/2, at one node with no atom search
            (lambda b: atom_divisors(F(13, 2), N23, b), [], 1, 1),
        ],
        ids=["atoms-N234", "atoms-N34567", "factorizations-N34567", "atom_divisors-off-lattice"],
    )
    def test_warm_budget_used(self, call, answer, cold, warm):
        clear_caches()
        for used in (cold, warm):
            bud = Budget()
            assert call(bud) == answer
            assert bud.used == used

    def test_cold_atoms_ignore_a_warm_spec_of_the_other_generators(self):
        # atoms test 4 over (2, 3) on the coefficient search, not through a
        # cached verdict of member(4, <2,3>)
        clear_caches()
        assert member(F(4), MonoidSpec.numerical(2, 3))
        bud = Budget()
        assert atoms(N234, bud) == [2, 3]
        assert bud.used == 12

    def test_ex44_chain_budget_used(self):
        clear_caches()
        bud = Budget()
        steps = ex44_chain(3, 6, bud)
        assert chain_divisors(steps) == [0, F(1, 2), F(3, 4), F(7, 8)]
        assert bud.used == 501

    @pytest.mark.parametrize("depth, used", [(7, 2187), (8, 19612), (9, 319133)])
    def test_deep_ex44_chain_budget_used(self, depth, used):
        clear_caches()
        bud = Budget()
        steps = ex44_chain(3, depth, bud)
        assert chain_divisors(steps) == [0, F(1, 2), F(3, 4), F(7, 8)]
        assert bud.used == used

    def test_depth_10_chain_charges_its_full_walk(self):
        # the digest of the certificates the full walk over each Z(target)
        # gave, 8,953,883 nodes node by node
        clear_caches()
        bud = Budget(10**7)
        steps = ex44_chain(3, 10, bud)
        assert bud.used == 8953883
        text = "\n".join(
            f"{s.q} {s.n} {s.increment} "
            + " | ".join(c.render() for c in s.residual_certificates)
            for s in steps
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a661ba01aa46a34fb62c4aa82a41a9a5e5985c3cac37e3f69642d1659e23533c"
        )

    @pytest.mark.parametrize("limit", [300_000, 319_132])
    def test_depth_9_chain_stops_at_its_budget(self, limit):
        # a replayed subtree's charge can overshoot the limit; the count
        # stops where spending node by node would have
        clear_caches()
        bud = Budget(limit)
        with pytest.raises(BudgetExceededError):
            ex44_chain(3, 9, bud)
        assert bud.used == limit + 1

    @pytest.mark.parametrize("limit", [300_000, 319_132])
    def test_a_cut_chain_stores_only_whole_subtrees(self, limit):
        # the memo of `_least` outlives a call, so a walk the budget cut
        # short must keep no subtree it did not finish: the full chain after
        # it gives the cold chain's certificates, at the count it gives with
        # that memo emptied.  (Both spend less than a cold chain, 319,133,
        # as the cut chain's membership verdicts stay cached and a cached
        # verdict is read free.)
        clear_caches()
        want = ex44_chain(3, 9)
        used = []
        for empty in (False, True):
            clear_caches()
            with pytest.raises(BudgetExceededError):
                ex44_chain(3, 9, Budget(limit))
            if empty:
                for entry in backend._cache.values():
                    entry.least.clear()
            bud = Budget()
            assert ex44_chain(3, 9, bud) == want
            used.append(bud.used)
        assert used[0] == used[1] < 319133

    def test_atoms_returns_a_fresh_list(self):
        clear_caches()
        first = atoms(N234)
        first.append(F(4))
        first[0] = F(7)
        assert atoms(N234) == [2, 3]


class TestScaledDivisors:
    """The result cache's divisor lists hold scaled elements: the scaled core
    `_divisors` returns them as they are, the power and MCD layers read them
    as they are, and `divisors` decodes them."""

    @pytest.mark.parametrize(
        "b, spec, kind",
        [
            (F(12), N23, F),
            (F(10, 3), MonoidSpec.puiseux(F(1, 2), F(2, 3)), F),
            (EX44_2_SET.max, EX44_2, F),
            (QPoint2(F(12, 35), F(179, 30)), R2_SPEC, QPoint2),
        ],
        ids=["N23", "puiseux", "EX44@2", "RANK2@3"],
    )
    def test_cache_serves_the_encoded_public_answer(self, b, spec, kind):
        clear_caches()
        want = divisors(b, spec)
        assert want and all(type(d) is kind for d in want)
        assert want == sorted(d for d in want if member(d, spec) and member(b - d, spec))
        got = _divisors(encode(b, spec), _Query(spec, Budget(0)))
        assert list(got) == [encode(d, spec) for d in want]
        assert [decode(n, spec) for n in got] == divisors(b, spec, Budget(0))

    @pytest.mark.parametrize("b", [F(7, 5), F(25, 8)])
    def test_off_the_lattice_the_core_caches_no_divisor(self, b):
        # (1/6)Z holds the generators; b lies off it, so it has no scaled
        # form, and `divisors` answers at one node without calling the core
        spec = MonoidSpec.puiseux(F(1, 2), F(2, 3))
        clear_caches()
        assert encode(b, spec) is None
        for _ in range(2):
            bud = Budget()
            assert divisors(b, spec, bud) == [] and bud.used == 1
        assert backend._cache == {}

    def test_power_and_mcd_fill_a_miss_through_divisors(self, monkeypatch):
        # so a traced run counts their divisor work under `backend.divisors`;
        # a hit is read from the cache and calls nothing
        seen = []

        def spy(b, spec, budget=None):
            seen.append(b)
            return divisors(b, spec, budget)

        monkeypatch.setattr(sys.modules["finpow.power"], "divisors", spy)
        clear_caches()
        for _ in range(2):
            decompositions(FinSet((4, 5, 6, 7)), N23)
            common_divisors(FinSet((6, 9)), N23)
        assert seen == [4, 6, 9]


R2_SMALL = MonoidSpec.rank2(QPoint2(F(0), F(1, 4)), QPoint2(F(1, 3), F(0)))
PACKED_SPECS = (R2_SPEC, R2_SMALL, MonoidSpec.rank2(QPoint2(F(0), F(2)), QPoint2(F(1), F(0))))
X_BOUND = 2**60


def lattice_points(spec, x_bound):
    """Points of the spec's lattice (1/Lx)Z x (1/Ly)Z with |x*Lx| < x_bound;
    x < 0 included, as in the differences the anchored walk forms."""
    ly, lx = spec.scale
    return st.builds(
        lambda x, y: QPoint2(F(x, lx), F(y, ly)),
        st.integers(-x_bound + 1, x_bound - 1) | st.integers(-8, 8),
        st.integers(-(2**70), 2**70) | st.integers(-8, 8),
    )


@st.composite
def packed_cases(draw, x_bound=X_BOUND):
    spec = draw(st.sampled_from(PACKED_SPECS))
    points = lattice_points(spec, x_bound)
    return spec, draw(points), draw(points)


class TestRank2Packing:
    """A rank-2 point's scaled form is the int y*2**64 + x of its coordinates
    at the spec's scale: `decode` inverts it, and int sums, differences and
    order are those of the points, for every x the cores can form."""

    @given(packed_cases())
    def test_decode_inverts_encode_and_keeps_sums_and_differences(self, case):
        spec, p, r = case
        n, m = encode(p, spec), encode(r, spec)
        assert type(n) is int and decode(n, spec) == p
        assert decode(n + m, spec) == p + r
        assert decode(n - m, spec) == p - r

    @given(packed_cases(x_bound=X_BOUND // 2))
    def test_encode_is_additive(self, case):
        spec, p, r = case
        assert encode(p + r, spec) == encode(p, spec) + encode(r, spec)
        assert encode(p - r, spec) == encode(p, spec) - encode(r, spec)

    @given(packed_cases())
    def test_encode_keeps_the_lexicographic_order(self, case):
        spec, p, r = case
        n, m = encode(p, spec), encode(r, spec)
        assert (n < m, n == m, n > m) == (p < r, p == r, p > r)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_point_past_the_bound_is_refused(self, sign):
        lx = R2_SPEC.scale[1]
        inside = QPoint2(F(sign * (X_BOUND - 1), lx), F(1))
        assert decode(encode(inside, R2_SPEC), R2_SPEC) == inside
        past = QPoint2(F(sign * X_BOUND, lx), F(1))
        message = (
            f"point {render_element(past)} is too far from the y-axis: its x times {lx}"
            " must be below 2**60 in absolute value"
        )
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            encode(past, R2_SPEC)
        bud = Budget(0)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            member(past, R2_SPEC, bud)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            divides_in_P(FinSet((past,)), FinSet((past,)), R2_SPEC, bud)
        assert bud.used == 0

    def test_rank_and_pack_are_set_once_per_spec(self):
        # every derived value is a plain attribute, set when the spec is
        # built, as encode and decode read them for every element; the hash
        # is stored too, and a spec restored by pickle keeps them all
        assert not isinstance(vars(MonoidSpec).get("is_rank2"), property)
        r2_zero = QPoint2(F(0), F(0))
        cases = [
            (MonoidSpec.numerical(2, 3), False, 1, F(0), 1),
            (MonoidSpec.puiseux(F(1, 2), F(2, 3)), False, 1, F(0), 6),
            (MonoidSpec.of_family("EX44", 3), False, 1, F(0), 4 * 3 * 5 * 7 * 11 * 13 * 17 * 19),
            (MonoidSpec.rank2(QPoint2(F(0), F(2)), QPoint2(F(1, 2), F(1, 3))), True, 2**64,
             r2_zero, (3, 2)),
            (MonoidSpec.of_family("RANK2-5.3", 2, (F(7, 3),)), True, 2**64, r2_zero, (12, 35)),
        ]
        for built, rank2, pack, zero, scale in cases:
            for spec in (built, pickle.loads(pickle.dumps(built))):
                derived = dict(vars(spec))
                assert (derived["is_rank2"], derived["pack"]) == (rank2, pack)
                assert derived["scale"] == scale
                assert derived["zero"] == zero and type(derived["zero"]) is type(zero)
                assert derived["_hash"] == hash(spec) == hash(spec.generators)


@pytest.mark.parametrize(
    "spec, q",
    [
        (MonoidSpec.puiseux(F(1, 2), F(2, 3)), F(25, 8)),
        (MonoidSpec.of_family("EX44", 3), F(1) + F(1, 23)),
        (R2_SMALL, QPoint2(F(1, 2), F(1))),
        (R2_SMALL, QPoint2(F(1, 3), F(1, 5))),
    ],
    ids=["puiseux", "EX44@3", "rank2-x", "rank2-y"],
)
def test_off_the_lattice_costs_one_node_cold_and_warm(spec, q):
    # an element with no scaled form is answered at the public boundary:
    # one node, however often it is asked, and nothing in the cache
    assert encode(q, spec) is None
    clear_caches()
    for fn, none in ((member, False), (divisors, [])):
        for _ in range(2):
            assert fn(q, spec, Budget(1)) == none
            bud = Budget(0)
            with pytest.raises(BudgetExceededError):
                fn(q, spec, bud)
            assert bud.used == 1
    assert backend._cache == {}


def node_by_node_search(plan, i, y, x, budget, first_only, results, prefix):
    """The reference coefficient search: one frame and one budget unit per
    node, the leaves included."""
    budget.spend()
    if not y and not x:
        results.append(tuple(prefix) + (0,) * (len(plan) - i))
        return True
    if y < 0 or x < 0 or i == len(plan):
        return False
    gy, gx, more_y, more_x, d, step, inv = plan[i]
    if (y and not more_y) or (x and not more_x) or y % d:
        return False
    kmax = y // gy if gy else x // gx
    if gy and gx:
        kmax = min(kmax, x // gx)
    found = False
    for k in range(y // d * inv % step, kmax + 1, step):
        prefix.append(k)
        ok = node_by_node_search(
            plan, i + 1, y - k * gy, x - k * gx, budget, first_only, results, prefix
        )
        prefix.pop()
        if ok:
            if first_only:
                return True
            found = True
    return found


def check_search(plan: tuple, y: int, x: int, data) -> None:
    """`_search` returns, finds, in order, and spends what
    `node_by_node_search` does from the residual (y, x), and stops at
    limit + 1 under any smaller limit, for `first_only` both ways."""
    for first_only in (True, False):
        want, got, ref, bud = [], [], Budget(), Budget()
        expected = node_by_node_search(plan, 0, y, x, ref, first_only, want, [])
        assert backend._search(plan, 0, y, x, bud, first_only, got, []) == expected
        assert got == want
        assert bud.used == ref.used
        limit = data.draw(st.integers(0, ref.used - 1), label="limit")
        for search in (backend._search, node_by_node_search):
            bud = Budget(limit)
            with pytest.raises(BudgetExceededError):
                search(plan, 0, y, x, bud, first_only, [], [])
            assert bud.used == limit + 1


def spec_plan(spec: MonoidSpec) -> tuple:
    return backend._plan(spec.generators[::-1], spec.scale)


class TestFoldedLeafLevel:
    """`_search` sweeps its last two levels and enters none of their nodes;
    it must return, find and spend what node-by-node recursion does, and
    stop at the same count when the budget runs out."""

    @given(
        st.lists(st.integers(2, 30), min_size=2, max_size=4, unique=True),
        st.integers(0, 150),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_numerical(self, gens, n, data):
        check_search(spec_plan(MonoidSpec.numerical(*gens)), n, 0, data)

    # one generator too, where the root is the last level and charges its
    # leaves itself
    @given(numerical_specs, st.integers(0, 60), st.data())
    @settings(max_examples=80, deadline=None)
    def test_numerical_of_one_to_three_generators(self, spec, y, data):
        check_search(spec_plan(spec), y, 0, data)

    @given(puiseux_specs, st.integers(0, 80), st.data())
    @settings(max_examples=80, deadline=None)
    def test_puiseux(self, spec, y, data):
        check_search(spec_plan(spec), y, 0, data)

    @given(
        puiseux_specs.filter(lambda spec: spec.generators[0].denominator > 1),
        st.integers(0, 60),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_puiseux_with_a_congruence_on_the_last_level(self, spec, n, data):
        plan = spec_plan(spec)
        assert plan[-1][5] > 1  # step
        check_search(plan, n, 0, data)

    # d > 1 on the last level: a child whose residual is off the last
    # generator's lattice is pruned before its leaves are counted
    @given(puiseux_specs.filter(lambda spec: spec_plan(spec)[-1][4] > 1), st.integers(0, 80), st.data())
    @settings(max_examples=80, deadline=None)
    def test_puiseux_with_a_lattice_test_on_the_last_level(self, spec, y, data):
        check_search(spec_plan(spec), y, 0, data)

    @given(rank2_specs, st.integers(0, 24), st.integers(0, 24), st.data())
    @settings(max_examples=80, deadline=None)
    def test_rank2(self, spec, y, x, data):
        check_search(spec_plan(spec), y, x, data)


def half(g):
    return QPoint2(g.x / 2, g.y / 2) if isinstance(g, QPoint2) else g / 2


class TestFactorizationLimit:
    """`factorizations(b, spec, limit=k)` is the first k factorizations of
    the complete list, at the same `Budget.used`, and an exhausted budget
    stops both at the same node."""

    @staticmethod
    def check_lists(spec, b):
        """Check k = 1, 2, 3 against the complete list; its nodes."""
        clear_caches()
        full_bud = Budget()
        full = factorizations(b, spec, full_bud)
        for k in (1, 2, 3):
            clear_caches()
            bud = Budget()
            assert factorizations(b, spec, bud, limit=k) == full[:k]
            assert bud.used == full_bud.used
        return full_bud.used

    @classmethod
    def check(cls, spec, b, data):
        used = cls.check_lists(spec, b)
        if used:
            limit = data.draw(st.integers(0, used - 1))
            for k in (None, data.draw(st.integers(1, 3))):
                clear_caches()
                bud = Budget(limit)
                with pytest.raises(BudgetExceededError):
                    factorizations(b, spec, bud, limit=k)
                assert bud.used == limit + 1

    @staticmethod
    def sum_of_generators(spec, data, top=3):
        gens = spec.generators
        coeffs = data.draw(st.lists(st.integers(0, top), min_size=len(gens), max_size=len(gens)))
        return sum((c * g for c, g in zip(coeffs, gens)), spec.zero)

    @given(
        st.lists(st.integers(2, 30), min_size=2, max_size=4, unique=True),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_numerical(self, gens, non_member, data):
        spec = MonoidSpec.numerical(*gens)
        # 1 and g0 - 1 lie below the least generator g0 >= 2
        b = (
            F(data.draw(st.sampled_from((1, spec.generators[0] - 1))))
            if non_member else self.sum_of_generators(spec, data)
        )
        self.check(spec, b, data)

    @given(
        st.sampled_from(("EX44", "Q-ODDPRIMES")),
        st.integers(1, 4),
        st.integers(-1, 3),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_families(self, family, depth, whole, data):
        # an added whole number has several factorizations in both families;
        # whole == -1 draws half the least generator, which lies below it
        spec = MonoidSpec.of_family(family, depth)
        b = (
            half(spec.generators[0]) if whole < 0
            else self.sum_of_generators(spec, data) + whole
        )
        self.check(spec, b, data)

    @given(st.booleans(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_rank2(self, non_member, data):
        b = (
            half(R2_SPEC.generators[0]) if non_member
            else self.sum_of_generators(R2_SPEC, data, top=2)
        )
        self.check(R2_SPEC, b, data)

    @staticmethod
    def replays(monkeypatch):
        """The list that records, for each `_least` frame, whether its
        subtree is a replay of an earlier one."""
        out, least = [], backend._least

        def spy(plan, i, y, x, budget, memo, k):
            out.append((i, y, x) in memo)
            return least(plan, i, y, x, budget, memo, k)

        monkeypatch.setattr(backend, "_least", spy)
        return out

    @pytest.mark.parametrize("depth", [5, 6, 7])
    @pytest.mark.parametrize("target", [F(5, 6), F(7, 12), F(1), F(4, 3)])
    def test_ex44_targets_replay_repeated_subtrees(self, monkeypatch, depth, target):
        # 5/6 and 7/12 are residual targets of the chain
        replayed = self.replays(monkeypatch)
        self.check_lists(expand_family("EX44", depth), target)
        assert any(replayed)

    @pytest.mark.parametrize(
        "spec, coeffs, repeats",
        [
            # no small relation ties R2_SPEC's upper atoms: no subtree repeats
            (R2_SPEC, (2,) * 7, False),
            (R2_SPEC, (1, 1, 1, 1, 4, 4, 4), False),
            (R2_LINE, (2,) * 5, True),
            (R2_LINE, (0, 0, 4, 4, 4), True),
            (R2_LINE, (3, 0, 3, 3, 3), True),
        ],
    )
    def test_rank2_sums(self, monkeypatch, spec, coeffs, repeats):
        replayed = self.replays(monkeypatch)
        b = sum((c * g for c, g in zip(coeffs, spec.generators)), spec.zero)
        self.check_lists(spec, b)
        assert any(replayed) == repeats

    @pytest.mark.parametrize("limit", [0, -1, 1.0, "1", True])
    def test_a_bad_limit_is_rejected_before_any_node(self, limit):
        # a limit of 0 would keep no vector: [], read as "no factorization"
        clear_caches()
        bud = Budget()
        with pytest.raises(InvalidInputError):
            factorizations(F(20), N345, bud, limit=limit)
        assert bud.used == 0

    def test_the_chain_builds_two_factorizations_per_step(self, monkeypatch):
        # each step keeps one certificate per residual; building the other
        # 9,500 factorizations of Z(target) at depth 8 was two thirds of the
        # chain's time
        built = []
        ascending = Factorization._ascending.__func__

        def spy(cls, parts):
            built.append(parts)
            return ascending(cls, parts)

        monkeypatch.setattr(Factorization, "_ascending", classmethod(spy))
        clear_caches()
        ex44_chain(3, 8)
        assert len(built) <= 6

    @pytest.mark.parametrize("depth", [6, 7])
    def test_chain_certificates_are_the_least_factorizations(self, depth):
        clear_caches()
        spec = expand_family("EX44", depth)
        for step in ex44_chain(3, depth):
            residual = step.q + step.increment
            targets = (1 - residual, F(4, 3) - residual)
            for cert, target in zip(step.residual_certificates, targets):
                assert cert == factorizations(target, spec)[0]


@pytest.mark.parametrize(
    "call",
    [
        lambda: p_factorize(FinSet((4, 5, 6, 7)), MonoidSpec.numerical(2, 3)),
        lambda: members_upto(MonoidSpec.numerical(2, 3), F(10)),
    ],
    ids=["p_factorize", "members_upto"],
)
def test_recursion_leaves_no_reference_cycle(call):
    # a recursive closure that names itself is a function <-> cell cycle,
    # which holds its memo until the cyclic collector runs
    clear_caches()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


# (1/12)Z holds every generator of `puiseux_specs`; 1/8, 1/5 and 1/24 steps
# leave it
rank1_targets = st.builds(F, st.integers(0, 36), st.sampled_from((12, 8, 5, 24)))

rank2_targets = st.builds(
    QPoint2,
    st.builds(F, st.integers(-2, 12), st.sampled_from((6, 5))),
    st.builds(F, st.integers(0, 12), st.sampled_from((4, 3))),
)


def check_atoms_and_factorizations(spec, targets):
    """`atoms` and `factorizations` against the naive oracles, cold and then
    warm: a generator is an atom iff the other generators' closure below it
    misses it, and the factorizations of b are the vectors over the atoms
    that sum to b."""
    clear_caches()
    want_atoms = naive_atoms(spec.generators)
    for _ in ("cold", "warm"):
        assert atoms(spec) == want_atoms
        for b in targets:
            got = factorizations(b, spec)
            want = naive_factorizations(b, want_atoms)
            assert len(got) == len(want) and {f.parts for f in got} == want, b
            for f in got:
                # the trusted constructor keeps the public one's invariant
                assert f == Factorization(f.parts)
                assert f.total(spec.zero) == b
    assert atoms(spec, Budget(0)) == want_atoms
    # atoms test each generator over the others without a spec of their own
    assert list(backend._cache) == [spec]


class TestEngineOracles:
    @given(puiseux_specs, st.lists(rank1_targets, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_small_lattice_puiseux(self, spec, targets):
        clear_caches()
        mset = naive_members(spec.generators, max(targets))
        for q in targets:
            assert member(q, spec) == (q in mset), q
            assert representations(q, spec) == naive_representations(q, spec.generators), q

    @given(rank2_specs, st.lists(rank2_targets, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_rank2_membership(self, spec, targets):
        clear_caches()
        for q in targets:
            assert member(q, spec) == (q in naive_members(spec.generators, q)), q

    @given(puiseux_specs, st.lists(rank1_targets, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_small_lattice_puiseux_divisors(self, spec, targets):
        clear_caches()
        for b in targets:
            assert divisors(b, spec) == naive_divisors([b], naive_members(spec.generators, b)), b

    @given(rank2_specs, st.lists(rank2_targets, min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_rank2_divisors(self, spec, targets):
        clear_caches()
        for b in targets:
            assert divisors(b, spec) == naive_divisors([b], naive_members(spec.generators, b)), b

    @given(puiseux_specs, st.lists(rank1_targets, min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_small_lattice_puiseux_atoms_and_factorizations(self, spec, targets):
        check_atoms_and_factorizations(spec, targets)

    @given(rank2_specs, st.lists(rank2_targets, min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_rank2_atoms_and_factorizations(self, spec, targets):
        check_atoms_and_factorizations(spec, targets)

    @given(puiseux_specs, st.builds(F, st.integers(-12, 36), st.sampled_from((12, 8, 5))))
    @settings(max_examples=40, deadline=None)
    def test_members_upto(self, spec, bound):
        clear_caches()
        want = sorted(q for q in naive_members(spec.generators, bound) if q <= bound)
        assert members_upto(spec, bound) == want


def test_every_traced_name_exists():
    # the benchmark's tracer wraps these names with getattr; one deleted
    # from the library would break every traced run
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    with open(path) as f:
        tree = ast.parse(f.read())
    traced = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
    )
    missing = [
        f"{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not hasattr(
            # `expanded` is traced as the MonoidSpec method
            backend.MonoidSpec if (layer, name) == ("backend", "expanded")
            else importlib.import_module(f"finpow.{layer}"),
            name,
        )
    ]
    assert traced and missing == []


PACKAGE_DIR, TESTS_DIR = os.path.dirname(finpow.__file__), os.path.dirname(__file__)


def module_nodes(root=PACKAGE_DIR):
    """(file name, node) for every ast node of every module in a directory,
    the package's by default."""
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                yield name, node


def test_no_module_calls_expanded():
    # a spec holds its generators, family specs too, so `expanded()` is the
    # identity and a call to it in the package is dead weight
    calls = [
        f"{name}:{node.lineno}" for name, node in module_nodes()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "expanded"
    ]
    assert calls == []


def test_a_spec_computes_no_value_lazily():
    # every derived value of a spec is set when it is built: a property or a
    # read of the instance dict would bring back a value made on first use
    (spec_class,) = [
        node for name, node in module_nodes()
        if name == "backend.py" and isinstance(node, ast.ClassDef) and node.name == "MonoidSpec"
    ]
    lazy = [
        f"backend.py:{n.lineno}" for n in ast.walk(spec_class)
        if (isinstance(n, ast.Name) and n.id in ("property", "cached_property", "vars"))
        or (isinstance(n, ast.Attribute) and n.attr in ("cached_property", "__dict__"))
    ]
    assert lazy == []


def test_only_power_reads_the_kept_enumerations():
    # the kept divisor map {U: (C, covers)}, the kept pattern walks and the
    # kept V lists have one owner: `power` reads and writes each field,
    # `backend` only sets its empty dict, and `mcd` reads no field of an
    # entry but its MCD lists
    owners = {
        field: sorted({
            name for name, node in module_nodes()
            if isinstance(node, ast.Attribute) and node.attr == field
            and not (name == "backend.py" and isinstance(node.ctx, ast.Store))
        })
        for field in ("enumerations", "walks", "picks")
    }
    assert owners == dict.fromkeys(owners, ["power.py"])
    read_by_mcd = {
        node.attr for name, node in module_nodes()
        if name == "mcd.py" and isinstance(node, ast.Attribute)
        and node.attr in backend._Entry.__slots__
    }
    assert read_by_mcd == {"mcds"}


# (module, enclosing function, closed form) of every budget charge in the
# package: each `.spend(` call names on its own line, after "# nodes: ", the
# count it charges, and the README's "What a node is" lists these forms
SPEND_CALLS = [
    ("backend.py", "_search", "one per search frame"),
    ("backend.py", "_search", "one per leaf of the last level"),
    ("backend.py", "_search", "one per child of the frame and per leaf below it"),
    ("backend.py", "_least", "a repeated subtree's recorded count"),
    ("backend.py", "_least", "one per frame above the last two levels"),
    ("backend.py", "_on_lattice", "one per element off the lattice"),
    ("backend.py", "_divisors", "prod(c + 1) sub-multisets"),
    ("backend.py", "_walk", "one per frame of the member walk"),
    ("power.py", "_anchor_walks", "2^(|A| - 1) subsets of an anchor"),
    ("power.py", "_kept", "a kept enumeration's recorded count"),
]


def test_every_budget_charge_is_listed_with_its_closed_form():
    # a node is what these calls charge, so a new charge, a moved one or a
    # changed form must change this list and the README with it
    found = []
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE_DIR, name)) as f:
            text = f.read()
        tree, lines = ast.parse(text), text.splitlines()
        fns = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "spend"):
                continue
            # the innermost function whose lines hold the call
            fn = max(
                (f for f in fns if f.lineno <= node.lineno <= f.end_lineno),
                key=lambda f: f.lineno, default=None,
            )
            form = lines[node.lineno - 1].partition("  # nodes: ")[2]
            found.append((name, node.lineno, fn and fn.name, form))
    assert [(name, fn, form) for name, _, fn, form in sorted(found)] == SPEND_CALLS


def imported_modules(node) -> list:
    """The modules an import statement names, none for a relative one."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module]
    return []


def test_the_runtime_imports_only_the_standard_library():
    # finpow runs on a bare interpreter: each import is relative or names a
    # module of the standard library, deferred imports in functions included
    outside = [
        f"{name}:{node.lineno} {m}" for name, node in module_nodes()
        for m in imported_modules(node) if m.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_no_function_that_takes_a_query_names_fraction_or_qpoint2():
    # a function that takes a query `q: _Query` runs inside it, on scaled
    # ints; Fraction and QPoint2 stay at the boundary, in encode and decode
    cores, named = [], []
    for name, node in module_nodes():
        if name not in ("power.py", "mcd.py", "atomicity.py") or not isinstance(
            node, ast.FunctionDef
        ):
            continue
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if not any(
            a.arg == "q" and isinstance(a.annotation, ast.Name) and a.annotation.id == "_Query"
            for a in params
        ):
            continue
        cores.append(node.name)
        named += [
            f"{name}:{n.lineno} {node.name}" for n in ast.walk(node)
            if (isinstance(n, ast.Name) and n.id in ("Fraction", "QPoint2"))
            or (isinstance(n, ast.Attribute) and n.attr in ("Fraction", "QPoint2"))
        ]
    assert {"_decompositions", "_mcd_in_P", "_descent", "_projection_failure"} <= set(cores)
    assert named == []


def test_no_function_binds_a_local_it_never_reads():
    # a plain `x = ...` in a function whose x nothing reads, not even a
    # nested function, is a dead value; a global or nonlocal x is no local
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    dead = []
    for name, fn in module_nodes():
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, declared, stack = {}, set(), list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        bound.setdefault(t.id, node.lineno)
            # a nested scope binds its own locals; its reads count below
            if not isinstance(node, scopes):
                stack.extend(ast.iter_child_nodes(node))
        read = {
            n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        dead += [
            f"{name}:{line} {fn.name} {v}" for v, line in sorted(bound.items())
            if v not in read and v not in declared
        ]
    assert dead == []


def test_no_module_imports_a_name_it_never_reads():
    # an import whose name nothing reads is dead weight; the package's
    # __init__ imports its names to re-export them, and a name read only in
    # a string annotation such as "Budget | int | None" is read
    imported, read = {}, set()
    for name, node in [*module_nodes(), *module_nodes(TESTS_DIR)]:
        if name == "__init__.py":
            continue
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported.setdefault((name, (alias.asname or alias.name).partition(".")[0]), alias.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add((name, node.id))
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read.update(
                    (name, n.id) for n in ast.walk(ast.parse(note.value, mode="eval"))
                    if isinstance(n, ast.Name)
                )
    unread = [f"{name}:{line} {v}" for (name, v), line in sorted(imported.items()) if (name, v) not in read]
    assert unread == []


def test_no_test_module_imports_another():
    # the test modules share their oracles and strategies through
    # `oracles.py`, not through one another; deferred imports count too
    imports = [
        f"{name}:{node.lineno} {m}" for name, node in module_nodes(TESTS_DIR)
        for m in imported_modules(node) if m.startswith("test_")
    ]
    assert imports == []


def test_the_oracles_name_no_private_name_of_finpow():
    # an oracle that called a core of the package would share its faults, so
    # `oracles.py` imports no private name and reads no private attribute
    with open(os.path.join(TESTS_DIR, "oracles.py")) as f:
        tree = ast.parse(f.read())
    private = [
        f"oracles.py:{node.lineno}" for node in ast.walk(tree)
        if "._" in "." + (
            node.name if isinstance(node, ast.alias)
            else node.module or "" if isinstance(node, ast.ImportFrom)
            else node.attr if isinstance(node, ast.Attribute) else ""
        )
    ]
    assert private == []
