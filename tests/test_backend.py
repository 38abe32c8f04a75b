"""Monoid backends checked against a naive exhaustive-coefficient oracle."""
import itertools
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from finpow.arith import InvalidInputError, QPoint2
from finpow.backend import (
    clear_caches,
    Budget,
    BudgetExceededError,
    MonoidSpec,
    atoms,
    divisors,
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
    """All coefficient vectors over gens summing to b, with no pruning."""
    out = []

    def rec(i, rest, acc):
        if i == len(gens):
            if rest == 0:
                out.append(tuple(acc))
            return
        g = gens[i]
        k = 0
        while k * g <= rest:
            rec(i + 1, rest - k * g, acc + [k])
            k += 1

    rec(0, b, [])
    return sorted(out)


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
            assert parse_monoid_spec(render_monoid_spec(sp)) == sp

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
        sp = MonoidSpec.of_family("EX44", 3)
        assert sp.expanded() is MonoidSpec.of_family("EX44", 3).expanded()
        # denominators 76, 204, 26, 66, 7, 15
        assert sp.expanded().scale == 4 * 3 * 5 * 7 * 11 * 13 * 17 * 19

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

    def test_budget_tracks_usage(self):
        clear_caches()
        bud = Budget(1000)
        member(Fraction(6), MonoidSpec.numerical(2, 3), bud)
        assert 0 < bud.used <= 1000


class TestRank2Backend:
    def test_family_expansion_contains_branch_atoms(self):
        sp = MonoidSpec.of_family("RANK2-5.3", 2, (Fraction(7, 3),)).expanded()
        assert QPoint2(Fraction(1, 5), Fraction(10, 3)) in sp.generators
        assert QPoint2(Fraction(1, 7), Fraction(10, 3)) in sp.generators
        assert QPoint2(Fraction(0), Fraction(1, 2)) in sp.generators

    def test_rank2_membership(self):
        sp = MonoidSpec.of_family("RANK2-5.3", 2, (Fraction(7, 3),)).expanded()
        a = QPoint2(Fraction(1, 5), Fraction(10, 3))
        d = QPoint2(Fraction(0), Fraction(1, 2))
        assert member(a + d, sp)
        assert not member(QPoint2(Fraction(1, 5), Fraction(10, 3) - Fraction(1, 4)), sp)
