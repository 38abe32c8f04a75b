"""Monoid backends checked against a naive exhaustive-coefficient oracle."""
import ast
import gc
import importlib
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finpow
from finpow import backend
from finpow.arith import InvalidInputError, QPoint2, render_element
from finpow.backend import (
    Factorization,
    clear_caches,
    Budget,
    BudgetExceededError,
    MonoidSpec,
    _Query,
    _divisors,
    _plan,
    _search,
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
    _check_cap_preconditions,
    cap_constant_on,
    chain_divisors,
    common_divisors,
    ex44_chain,
    mcd,
    mcd_in_P,
    p_divisors,
)
from finpow.power import (
    FinSet,
    decompositions,
    divides_in_P,
    is_p_atom,
    p_factorize,
)
from test_power import puiseux_specs, rank2_specs


def naive_members(gens, bound):
    """Breadth-first closure of the generators below a bound."""
    out = {Fraction(0)}
    frontier = {Fraction(0)}
    while frontier:
        nxt = set()
        for q in frontier:
            for g in gens:
                s = q + g
                if s <= bound and s not in out:
                    out.add(s)
                    nxt.add(s)
        frontier = nxt
    return out


def naive_representations(b, gens):
    """All coefficient vectors over gens summing to b, of rank 1 or 2, in
    ascending order.  Every generator is nonzero and nonnegative in each
    coordinate, so a residual that leaves the box [0, b] is dropped."""
    zero = b - b
    out = []

    def inside(r):
        return r.x >= 0 and r.y >= 0 if isinstance(r, QPoint2) else r >= 0

    def rec(i, rest, acc):
        if i == len(gens):
            if rest == zero:
                out.append(tuple(acc))
            return
        k = 0
        while inside(rest):
            rec(i + 1, rest, acc + [k])
            rest, k = rest - gens[i], k + 1

    rec(0, b, [])
    return out


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
        cap_spec = MonoidSpec.puiseux(Fraction(4, 15), Fraction(1, 7), Fraction(2))
        assert cap_constant_on(FinSet((Fraction(4, 15),)), Fraction(4, 15), 5, cap_spec)
        assert _check_cap_preconditions.cache_info().currsize == 1
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
        assert _check_cap_preconditions.cache_info().currsize == 0

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

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(InvalidInputError, match="line"):
            parse_monoid_spec("kind numerical\ngens 2, x")
        with pytest.raises(InvalidInputError):
            parse_monoid_spec("gens -1/2")


class TestOracleEquivalence:
    @pytest.mark.parametrize("gens", [(2, 3), (3, 4, 5)])
    def test_member_divisors_factorizations(self, gens):
        sp = MonoidSpec.numerical(*gens)
        bound = Fraction(15)
        mset = naive_members([Fraction(g) for g in gens], bound)
        for n in range(16):
            q = Fraction(n)
            assert member(q, sp) == (q in mset), q
            if q in mset:
                assert divisors(q, sp) == sorted(
                    d for d in mset if q - d in mset
                ), q
                got = {f.parts for f in factorizations(q, sp)}
                want = set()
                for vec in naive_representations(q, [Fraction(g) for g in gens]):
                    want.add(
                        tuple(
                            (Fraction(g), k) for k, g in zip(vec, gens) if k
                        )
                    )
                assert got == want, q

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
        ],
    )
    def test_budget_used(self, fn, q, spec, answer, used):
        clear_caches()
        bud = Budget()
        out = fn(q, spec, bud)
        assert (out if isinstance(out, bool) else len(out)) == answer
        assert bud.used == used

    def test_the_search_enters_no_leaf_frame(self, monkeypatch):
        # the last level charges its leaves itself; a frame at i == len(plan)
        # would mean that the fold of the leaf level came undone
        search, seen = backend._search, []

        def spy(plan, i, *rest):
            seen.append((i, len(plan)))
            return search(plan, i, *rest)

        monkeypatch.setattr(backend, "_search", spy)
        clear_caches()
        for n in (2399, 2311, 2000):
            member(F(n), N101, Budget())
        assert {i for i, _ in seen} == {0, 1, 2}
        assert {size for _, size in seen} == {3}

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
        ],
        ids=["atoms-N234", "atoms-N34567", "factorizations-N34567"],
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

    @pytest.mark.parametrize("depth, used", [(7, 2187), (8, 19612)])
    def test_deep_ex44_chain_budget_used(self, depth, used):
        clear_caches()
        bud = Budget()
        steps = ex44_chain(3, depth, bud)
        assert chain_divisors(steps) == [0, F(1, 2), F(3, 4), F(7, 8)]
        assert bud.used == used

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
        # plain attributes, set when the spec is built: encode and decode
        # read them for every element
        assert not isinstance(vars(MonoidSpec).get("is_rank2"), property)
        for spec, rank2, pack in ((N23, False, 1), (EX44_3, False, 1), (R2_SPEC, True, 2**64)):
            assert (vars(spec)["is_rank2"], vars(spec)["pack"]) == (rank2, pack)


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


def spec_plan(spec):
    return _plan(spec.generators[::-1], spec.scale)


class TestFoldedLeafLevel:
    """`_search` charges its last level's leaves in one spend and enters none
    of them; it must return, find and spend what node-by-node recursion does,
    and stop at the same count when the budget runs out."""

    @staticmethod
    def check(plan, y, x, data):
        for first_only in (True, False):
            want, got, ref, bud = [], [], Budget(), Budget()
            expected = node_by_node_search(plan, 0, y, x, ref, first_only, want, [])
            assert _search(plan, 0, y, x, bud, first_only, got, []) == expected
            assert got == want
            assert bud.used == ref.used
            limit = data.draw(st.integers(0, ref.used - 1))
            for search in (_search, node_by_node_search):
                bud = Budget(limit)
                with pytest.raises(BudgetExceededError):
                    search(plan, 0, y, x, bud, first_only, [], [])
                assert bud.used == limit + 1

    @given(
        st.lists(st.integers(2, 30), min_size=2, max_size=4, unique=True),
        st.integers(0, 150),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_numerical(self, gens, n, data):
        self.check(spec_plan(MonoidSpec.numerical(*gens)), n, 0, data)

    @given(
        puiseux_specs.filter(lambda spec: spec.generators[0].denominator > 1),
        st.integers(0, 60),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_puiseux_with_a_congruence_on_the_last_level(self, spec, n, data):
        plan = spec_plan(spec)
        assert plan[-1][5] > 1  # step
        self.check(plan, n, 0, data)

    @given(rank2_specs, st.integers(0, 24), st.integers(0, 24), st.data())
    @settings(max_examples=80, deadline=None)
    def test_rank2(self, spec, y, x, data):
        self.check(spec_plan(spec), y, x, data)


def half(g):
    return QPoint2(g.x / 2, g.y / 2) if isinstance(g, QPoint2) else g / 2


class TestFactorizationLimit:
    """`factorizations(b, spec, limit=k)` is the first k factorizations of
    the complete list, at the same `Budget.used`, and an exhausted budget
    stops both at the same node."""

    @staticmethod
    def check(spec, b, data):
        clear_caches()
        full_bud = Budget()
        full = factorizations(b, spec, full_bud)
        for k in (1, 2, 3):
            clear_caches()
            bud = Budget()
            assert factorizations(b, spec, bud, limit=k) == full[:k]
            assert bud.used == full_bud.used
        if full_bud.used:
            limit = data.draw(st.integers(0, full_bud.used - 1))
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

    @pytest.mark.parametrize("limit", [0, -1, 1.0, "1", True])
    def test_a_bad_limit_is_rejected_before_any_node(self, limit):
        # heapq.nsmallest(0, ...) would return [], read as "no factorization"
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


def naive_points(gens, top):
    """Breadth-first closure of plane generators inside the box [0, top].

    Every generator has x, y >= 0, so partial sums of a representation of a
    point of the box stay inside it."""
    zero = QPoint2(F(0), F(0))
    out, frontier = {zero}, {zero}
    while frontier:
        frontier = {
            q + g for q in frontier for g in gens
            if (q + g).x <= top.x and (q + g).y <= top.y
        } - out
        out |= frontier
    return out


def check_atoms_and_factorizations(spec, targets, closure):
    """`atoms` and `factorizations` against the naive oracles, cold and then
    warm: a generator is an atom iff the other generators' closure below it
    misses it, and the factorizations of b are the vectors over the atoms
    that sum to b."""
    clear_caches()
    gens = spec.generators
    want_atoms = [
        g for i, g in enumerate(gens) if g not in closure(gens[:i] + gens[i + 1:], g)
    ]
    for _ in ("cold", "warm"):
        assert atoms(spec) == want_atoms
        for b in targets:
            got = factorizations(b, spec)
            want = {
                tuple((a, k) for a, k in zip(want_atoms, vec) if k)
                for vec in naive_representations(b, want_atoms)
            }
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
            assert member(q, spec) == (q in naive_points(spec.generators, q)), q

    @given(puiseux_specs, st.lists(rank1_targets, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_small_lattice_puiseux_divisors(self, spec, targets):
        clear_caches()
        for b in targets:
            mset = naive_members(spec.generators, b)
            assert divisors(b, spec) == sorted(d for d in mset if b - d in mset), b

    @given(rank2_specs, st.lists(rank2_targets, min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_rank2_divisors(self, spec, targets):
        clear_caches()
        for b in targets:
            box = naive_points(spec.generators, b)
            assert divisors(b, spec) == sorted(d for d in box if b - d in box), b

    @given(puiseux_specs, st.lists(rank1_targets, min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_small_lattice_puiseux_atoms_and_factorizations(self, spec, targets):
        check_atoms_and_factorizations(spec, targets, naive_members)

    @given(rank2_specs, st.lists(rank2_targets, min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_rank2_atoms_and_factorizations(self, spec, targets):
        check_atoms_and_factorizations(spec, targets, naive_points)

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


def package_nodes():
    """(file name, node) for every ast node of every module of the package."""
    root = os.path.dirname(finpow.__file__)
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
        f"{name}:{node.lineno}" for name, node in package_nodes()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "expanded"
    ]
    assert calls == []


def test_the_runtime_imports_only_the_standard_library():
    # finpow runs on a bare interpreter: each import is relative or names a
    # module of the standard library, deferred imports in functions included
    outside = []
    for name, node in package_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        outside += [
            f"{name}:{node.lineno} {m}" for m in modules
            if m.partition(".")[0] not in sys.stdlib_module_names
        ]
    assert outside == []


def test_no_function_that_takes_a_query_names_fraction_or_qpoint2():
    # a function that takes a query `q: _Query` runs inside it, on scaled
    # ints; Fraction and QPoint2 stay at the boundary, in encode and decode
    cores, named = [], []
    for name, node in package_nodes():
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
    for name, fn in package_nodes():
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
    root, here = os.path.dirname(finpow.__file__), os.path.dirname(__file__)
    paths = [
        os.path.join(d, n) for d in (root, here) for n in sorted(os.listdir(d))
        if n.endswith(".py") and (d, n) != (root, "__init__.py")
    ]
    unread = []
    for path in paths:
        with open(path) as f:
            tree = ast.parse(f.read())
        imported, read = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    imported.setdefault(name, alias.lineno)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
                note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
                if isinstance(note, ast.Constant) and isinstance(note.value, str):
                    read.update(
                        n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                        if isinstance(n, ast.Name)
                    )
        unread += [
            f"{os.path.basename(path)}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in read
        ]
    assert unread == []
