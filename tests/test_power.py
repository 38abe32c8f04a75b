"""Finite-set layer: sumsets, divisibility witnesses, atoms, factorization."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finpow.arith import InvalidInputError, QPoint2
from finpow.atomicity import p_furstenberg_divisor, rank2_atom
from finpow import backend, power
from finpow.backend import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceededError,
    MonoidSpec,
    TruncationError,
    _Query,
    _divisors,
    clear_caches,
    decode,
    divisors,
    encode,
    expand_family,
    factorizations,
)
from finpow.mcd import common_divisors, mcd, mcd_in_P, p_divisors
from finpow.power import (
    FinSet,
    NOT_ATOMIC,
    _anchored_divisors,
    _decode_set,
    _decompositions,
    _encode_set,
    augment_indecomposable,
    decompositions,
    divides_in_P,
    is_indecomposable,
    is_p_atom,
    p_factorize,
    parse_finset,
    singleton,
    singleton_candidates,
    sumset,
    sumset_all,
    zero_set,
)
from finpow.suites import _ex44_residue_pairs
from oracles import (
    finsets,
    naive_members,
    numerical_specs,
    oracle_pairs,
    puiseux_specs,
    rank2_specs,
    small_points,
    small_rationals,
    window_pairs,
)

N23 = MonoidSpec.numerical(2, 3)
N0 = MonoidSpec.numerical(1)
# the rank-2 oracles draw from the members in the boxes [0, 4]^2 and [0, 2]^2
BOX, HALF_BOX = QPoint2(Fraction(4), Fraction(4)), QPoint2(Fraction(2), Fraction(2))

int_sets = st.lists(st.integers(0, 30), min_size=1, max_size=5).map(
    lambda xs: FinSet(tuple(xs))
)


class TestFinSet:
    def test_dedup_and_sort(self):
        s = FinSet((3, 1, 2, 1))
        assert s.elems == (1, 2, 3)
        assert len(s) == 3
        assert s.min == 1 and s.max == 3
        assert 2 in s and 4 not in s

    def test_parse_render_roundtrip(self):
        s = parse_finset("{0, 1/2, 3/4}")
        assert s.elems == (0, Fraction(1, 2), Fraction(3, 4))
        assert parse_finset(s.render()) == s

    def test_parse_rejects_empty(self):
        with pytest.raises(Exception):
            parse_finset("{}")

    def test_rejects_points_mixed_with_rationals(self):
        with pytest.raises(InvalidInputError, match="mix"):
            FinSet((QPoint2(Fraction(0), Fraction(1)), Fraction(1)))


class TestSumset:
    @given(int_sets, int_sets)
    def test_commutative(self, s, t):
        assert sumset(s, t) == sumset(t, s)

    @given(int_sets, int_sets, int_sets)
    @settings(max_examples=50)
    def test_associative(self, s, t, u):
        assert sumset(sumset(s, t), u) == sumset(s, sumset(t, u))

    @given(int_sets, int_sets)
    def test_min_max_additive(self, s, t):
        r = sumset(s, t)
        assert r.min == s.min + t.min
        assert r.max == s.max + t.max

    @given(int_sets, int_sets)
    def test_cardinality_lower_bound(self, s, t):
        assert len(sumset(s, t)) >= len(s) + len(t) - 1

    @given(int_sets)
    def test_zero_set_is_identity(self, s):
        assert sumset(s, zero_set(N0)) == s

    def test_sumset_all(self):
        sets = [FinSet((0, 2)), FinSet((0, 3)), FinSet((2,))]
        assert sumset_all(sets, N23) == FinSet((2, 4, 5, 7))
        assert sumset_all([], N23) == zero_set(N23)


class TestDividesInP:
    def test_witness(self):
        d = divides_in_P(FinSet((0, 2)), FinSet((0, 2, 3, 4, 5)), N23)
        assert d == FinSet((0, 2, 3))
        assert sumset(FinSet((0, 2)), d) == FinSet((0, 2, 3, 4, 5))

    def test_non_divisor(self):
        assert divides_in_P(FinSet((0, 3)), FinSet((0, 2)), N23) is None

    def test_singleton_divides_translate(self):
        d = divides_in_P(singleton(2), FinSet((4, 5)), N23)
        assert d == FinSet((2, 3))

    @given(int_sets, int_sets)
    @settings(max_examples=50)
    def test_sumsets_are_divisible(self, s, t):
        r = sumset(s, t)
        d = divides_in_P(s, r, N0)
        assert d is not None and sumset(s, d) == r


class TestDecompositions:
    def test_all_resume(self):
        s = FinSet((4, 5, 6, 7))
        decs = decompositions(s, N23)
        assert decs
        for dec in decs:
            assert sumset(dec.left, dec.right) == s
            assert len(dec.left) > 1 or dec.left != zero_set(N23)

    def test_atom_has_none(self):
        assert decompositions(FinSet((2, 3)), N23) == []

    def test_both_nonsingleton_filter(self):
        s = FinSet((4, 5, 6, 7))
        decs = decompositions(s, N23, both_nonsingleton=True)
        for dec in decs:
            assert len(dec.left) >= 2 and len(dec.right) >= 2


class TestAtoms:
    def test_2_3_is_atom(self):
        cert = is_p_atom(FinSet((2, 3)), N23)
        assert cert.is_atom and cert.counterexample is None

    def test_0_1_is_atom_over_n0(self):
        assert is_p_atom(FinSet((0, 1)), N0).is_atom

    def test_non_atom_with_counterexample(self):
        cert = is_p_atom(FinSet((0, 1, 2)), N0)
        assert not cert.is_atom
        dec = cert.counterexample
        assert sumset(dec.left, dec.right) == FinSet((0, 1, 2))

    def test_identity_rejected(self):
        with pytest.raises(Exception):
            is_p_atom(zero_set(N23), N23)

    def test_indecomposable(self):
        assert is_indecomposable(FinSet((2, 3)), N23)
        assert not is_indecomposable(FinSet((4, 5, 6, 7, 8)), N23)

    def test_augment_forces_indecomposable(self):
        s = FinSet((2, 3, 4))
        aug = augment_indecomposable(s)
        assert aug.elems == (2, 3, 4, 16)
        assert is_indecomposable(aug, N23)

    def test_augment_a_set_with_negative_extremes(self):
        # min + max < 0, so the adjoined element is four times the minimum
        assert augment_indecomposable(FinSet((-3, -1))).elems == (-12, -3, -1)


class TestPFactorize:
    def test_identity_is_empty_product(self):
        assert p_factorize(zero_set(N23), N23) == []

    def test_atom_factors_as_itself(self):
        assert p_factorize(FinSet((2, 3)), N23) == [FinSet((2, 3))]

    def test_resums_and_certified(self):
        s = FinSet((4, 5, 6, 7))
        facs = p_factorize(s, N23)
        assert facs is not NOT_ATOMIC
        assert sumset_all(facs, N23) == s
        for a in facs:
            assert is_p_atom(a, N23).is_atom

    def test_the_not_atomic_sentinel_reprs_by_name(self):
        assert repr(NOT_ATOMIC) == "NotAtomic"

    def test_budget_is_tracked(self):
        bud = Budget(10**6)
        p_factorize(FinSet((4, 5, 6, 7)), N23, bud)
        assert bud.used > 0

    @pytest.mark.parametrize(
        "elems, parts",
        [
            ((3, Fraction(9, 2)), [(0, Fraction(3, 2)), (Fraction(3, 2),), (Fraction(3, 2),)]),
            ((Fraction(9, 2), Fraction(11, 2)),
             [(Fraction(3, 2),), (Fraction(3, 2),), (Fraction(3, 2), Fraction(5, 2))]),
        ],
    )
    def test_parts_are_decoded_and_ascend(self, elems, parts):
        spec = MonoidSpec.puiseux(Fraction(3, 2), Fraction(5, 2))
        assert p_factorize(FinSet(elems), spec) == [FinSet(p) for p in parts]


# ---------------------------------------------------------------------------
# Differential checks of the anchored divisor enumeration against a
# brute-force oracle over pairs of subsets.


def check_against_oracle(s: FinSet, spec: MonoidSpec, members: set) -> None:
    zero = spec.zero
    pairs = oracle_pairs(s, members)
    assert {d.elems for d in p_divisors(s, spec)} == {u for u, _ in pairs}
    # lists, not sets: each pair up to swap comes once, in ascending order
    nontrivial = sorted(
        {(min(u, v), max(u, v)) for u, v in pairs if u != (zero,) and v != (zero,)}
    )
    both = [(u, v) for u, v in nontrivial if len(u) >= 2 and len(v) >= 2]
    for both_nonsingleton, want in ((False, nontrivial), (True, both)):
        got = decompositions(s, spec, both_nonsingleton=both_nonsingleton)
        assert [(d.left.elems, d.right.elems) for d in got] == want


class TestAnchoredEnumerationOracle:
    @given(numerical_specs, st.data())
    @settings(max_examples=40, deadline=None)
    def test_numerical(self, spec, data):
        members = naive_members(spec.generators, 12)
        check_against_oracle(data.draw(finsets(members, 4)), spec, members)

    @given(puiseux_specs, st.data())
    @settings(max_examples=40, deadline=None)
    def test_small_lattice_puiseux(self, spec, data):
        members = naive_members(spec.generators, 3)
        check_against_oracle(data.draw(finsets(members, 4)), spec, members)

    @pytest.mark.parametrize("elems", [(4, 5, 6, 7), (4, 5, 6)])
    def test_middle_anchor(self, elems):
        # 2 = 4 - 2 is an anchor of min t = 4 over <2, 3>: the pairs {2, 3} +
        # {2, 4} and {2, 3} + {2, 3, 4} of {4, 5, 6, 7} have sides of equal
        # minimum, each found from both of its sides; {4, 5, 6} is {2, 3} +
        # {2, 3}, found once
        check_against_oracle(FinSet(elems), N23, naive_members(N23.generators, 12))

    @pytest.mark.parametrize("with_atom", [False, True])
    def test_rank2_family(self, with_atom):
        spec = MonoidSpec.of_family("RANK2-5.3", 3, (Fraction(7, 3),))
        dy = [QPoint2(Fraction(0), Fraction(k, 8)) for k in range(4)]
        if with_atom:
            a = rank2_atom(Fraction(7, 3), "A")
            elems = (dy[0], dy[1], a, a + dy[1])  # {0, a} + {0, (0, 1/8)}
        else:
            elems = tuple(dy)  # {0, (0, 1/8)} + {0, (0, 1/4)}
        top = QPoint2(max(e.x for e in elems), max(e.y for e in elems))
        check_against_oracle(FinSet(elems), spec, naive_members(spec.generators, top))


# ---------------------------------------------------------------------------
# Every member subset of a small window against the mask oracle, cold and warm


def check_window(spec: MonoidSpec, n: int) -> None:
    """`decompositions`, `is_p_atom` and `p_divisors` on every member subset
    T of the scaled window [0, n], against `window_pairs`.  Each T runs
    cold, with nothing of its own cached, then again warm: its first
    enumeration is a one-shot run that only marks it, its second is kept
    whole, and the later calls replay the kept map and the kept pairs.  The
    membership verdicts and divisor lists stay cached from set to set, as
    in a suite run.  The expected lists are built on scaled ints, whose
    tuples sort as their decoded sets do.

    A second pass, once every map is kept, checks on each T other than {0}
    that the parts of `p_factorize` re-sum to T and have no nontrivial pair
    in `window_pairs`, and that `mcd` of T is not empty."""
    scale = spec.scale
    members = {int(q * scale) for q in naive_members(spec.generators, Fraction(n, scale))}
    fractions = [Fraction(i, scale) for i in range(n + 1)]

    def ints(mask: int) -> tuple:
        return tuple([i for i in range(mask.bit_length()) if mask >> i & 1])

    def decoded(elems: tuple) -> tuple:
        return tuple([fractions[i] for i in elems])

    def mask(s: FinSet) -> int:
        return sum(1 << int(e * scale) for e in s)

    clear_caches()
    # every T is T + {0}, so every member subset of the window is a key
    table = window_pairs(members, n)
    for t, found in table.items():
        s = FinSet(decoded(ints(t)))
        sides = [(ints(u), ints(v)) for u, v in found]
        nontrivial = sorted({(min(u, v), max(u, v)) for u, v in sides if (0,) not in (u, v)})
        both = [(u, v) for u, v in nontrivial if len(u) >= 2 and len(v) >= 2]
        divs = [decoded(u) for u in sorted({u for u, _ in sides})]
        want = {
            flag: [(decoded(u), decoded(v)) for u, v in pairs]
            for flag, pairs in ((False, nontrivial), (True, both))
        }
        for _ in range(2):
            for both_nonsingleton, pairs in want.items():
                got = decompositions(s, spec, both_nonsingleton=both_nonsingleton)
                assert [(d.left.elems, d.right.elems) for d in got] == pairs, s
            if t != 1:  # {0} is no candidate atom
                cert = is_p_atom(s, spec)
                dec = cert.counterexample
                assert cert.is_atom == (not nontrivial), s
                assert dec is None or (dec.left.elems, dec.right.elems) == want[False][0], s
            assert [d.elems for d in p_divisors(s, spec)] == divs, s
    # each set was decomposed and its divisors listed more than once, so
    # each one's pairs and map are kept
    entry = backend._cache[spec]
    assert None not in entry.pairs.values() and None not in entry.divisor_maps.values()
    for t in table:
        if t == 1:
            continue
        s = FinSet(decoded(ints(t)))
        parts = p_factorize(s, spec)
        assert sumset_all(parts, spec) == s, s
        for p in parts:
            assert all(1 in pair for pair in table[mask(p)]), (s, p)
        assert mcd(s, spec), s


class TestWindowOracle:
    @pytest.mark.parametrize(
        "spec, n",
        [
            (N0, 10),
            (N23, 12),
            (MonoidSpec.numerical(3, 5, 7), 12),
            # L = 2: the window is [0, 13/2]
            (MonoidSpec.puiseux(Fraction(3, 2), Fraction(5, 2)), 13),
        ],
        ids=["<1>", "<2,3>", "<3,5,7>", "<3/2,5/2>"],
    )
    def test_every_set_of_the_window(self, spec, n):
        check_window(spec, n)


class TestOffLattice:
    def test_set_off_the_lattice_is_rejected(self):
        # 1/2 and 1/3 are outside (1/1)Z, so neither {0, 1/2} nor {1/3} is a
        # set of members of <2, 3>; 1/11 is outside (1/35)Z, the x-lattice of
        # RANK2-5.3 with this sample
        r2 = MonoidSpec.of_family("RANK2-5.3", 3, (Fraction(7, 3), Fraction(32, 15)))
        for s, spec in (
            (FinSet((Fraction(0), Fraction(1, 2))), N23),
            (FinSet((Fraction(1, 3),)), N23),
            (FinSet((QPoint2(Fraction(1, 11), Fraction(3)),)), r2),
        ):
            for call in (
                lambda: decompositions(s, spec),
                lambda: p_divisors(s, spec),
                lambda: divides_in_P(zero_set(spec), s, spec),
                lambda: is_p_atom(s, spec),
                lambda: is_indecomposable(s, spec),
                lambda: common_divisors(s, spec),
                lambda: mcd(s, spec),
                lambda: mcd_in_P([zero_set(spec), s], spec),
            ):
                with pytest.raises(InvalidInputError, match="lattice"):
                    call()


# every public function of a set in P_fin(M), by name
SET_CALLS = {
    "decompositions": lambda s: decompositions(s, N23),
    "is_p_atom": lambda s: is_p_atom(s, N23),
    "p_factorize": lambda s: p_factorize(s, N23),
    "p_divisors": lambda s: p_divisors(s, N23),
    "mcd_in_P": lambda s: mcd_in_P([FinSet((2, 3)), s], N23),
    "is_indecomposable": lambda s: is_indecomposable(s, N23),
    "common_divisors": lambda s: common_divisors(s, N23),
    "mcd": lambda s: mcd(s, N23),
    "p_furstenberg_divisor": lambda s: p_furstenberg_divisor(s, N23),
}


class TestNonMemberSets:
    # 1 lies on the lattice Z of <2, 3> but outside the monoid, so {1, 5} is
    # not in P_fin(<2, 3>) and no verdict about it may be certified
    @pytest.mark.parametrize("name", list(SET_CALLS))
    def test_set_outside_the_monoid_is_rejected(self, name):
        with pytest.raises(InvalidInputError, match="^1 is not in the monoid$"):
            SET_CALLS[name](FinSet((1, 5)))

    @pytest.mark.parametrize("name", list(SET_CALLS))
    def test_set_with_a_negative_element_is_rejected(self, name):
        with pytest.raises(InvalidInputError, match="^-2 is not in the monoid$"):
            SET_CALLS[name](FinSet((-2, 4)))

    def test_negative_element_is_rejected(self):
        with pytest.raises(InvalidInputError, match="-1 is not in the monoid"):
            is_p_atom(FinSet((-1, 2)), N23)

    @pytest.mark.parametrize("fn", [divides_in_P, singleton_candidates])
    @pytest.mark.parametrize(
        "s, t", [((1,), (1, 3)), ((0,), (0, 1))], ids=["left", "right"]
    )
    def test_divisibility_rejects_a_non_member_on_either_side(self, fn, s, t):
        # {1} + {0, 2} = {1, 3} and {0} + {0, 1} = {0, 1}, yet neither pair
        # lies in P_fin(<2, 3>), so neither may be given a witness
        with pytest.raises(InvalidInputError, match="^1 is not in the monoid"):
            fn(FinSet(s), FinSet(t), N23)


# ---------------------------------------------------------------------------
# The mask kernel of cofactors and the trusted decoding, against brute force


def check_cofactor(spec: MonoidSpec, top, low, data) -> None:
    """C = {m in M : u + m inside t}, and u divides t iff u + C = t, for a
    pair from `draw_pair` over the members up to `top` and up to `low`."""
    members = naive_members(spec.generators, top)
    u, t = draw_pair(data, members, naive_members(spec.generators, low))
    target = set(t.elems)
    want = tuple(sorted(m for m in members if all(e + m in target for e in u)))
    got = singleton_candidates(u, t, spec)
    assert (got.elems if got is not None else ()) == want
    witness = divides_in_P(u, t, spec)
    if want and sumset(u, FinSet(want)) == t:
        assert witness is not None and witness.elems == want
    else:
        assert witness is None


def draw_pair(data, members: set, low: set) -> tuple:
    """(u, t) over the members: u and v are sets of `low`, and t is u + v,
    u + v less one element, or any set, so that divisors, near misses and
    unrelated sets all occur."""
    u, v = (data.draw(finsets(low)) for _ in range(2))
    t = sumset(u, v)
    mode = data.draw(st.sampled_from(("sum", "less", "any")))
    if mode == "less" and len(t) > 1:
        drop = data.draw(st.sampled_from(t.elems))
        t = FinSet(tuple(e for e in t if e != drop))
    elif mode == "any":
        t = data.draw(finsets(members, 5))
    return u, t


class TestCofactorKernel:
    @given(numerical_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_numerical(self, spec, data):
        check_cofactor(spec, 16, 8, data)

    @given(puiseux_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_small_lattice_puiseux(self, spec, data):
        check_cofactor(spec, 4, 2, data)

    @given(rank2_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank2(self, spec, data):
        # every generator has x, y >= 0, so the members in the box [0, 4]^2
        # hold every m with u + m inside a set of the box
        check_cofactor(spec, BOX, HALF_BOX, data)


def check_sumset(xs: list, ys: list) -> None:
    s, t = FinSet(tuple(xs)), FinSet(tuple(ys))
    want = FinSet(tuple(a + b for a in s for b in t))
    got = sumset(s, t)
    assert got == want and hash(got) == hash(want) and got.elems == want.elems


class TestSumsetConstructor:
    """sumset builds its result unvalidated, from sorted distinct sums."""

    @given(
        st.lists(small_rationals, min_size=1, max_size=5),
        st.lists(small_rationals, min_size=1, max_size=5),
    )
    def test_equals_the_validating_constructor_on_rationals(self, xs, ys):
        check_sumset(xs, ys)

    @given(
        st.lists(small_points, min_size=1, max_size=5),
        st.lists(small_points, min_size=1, max_size=5),
    )
    def test_equals_the_validating_constructor_on_points(self, xs, ys):
        # the points come unsorted, and many pairs share a sum
        check_sumset(xs, ys)

    def test_points_plus_rationals_rejected(self):
        points = FinSet((QPoint2(Fraction(0), Fraction(1)),))
        for s, t in ((points, FinSet((1, 2))), (FinSet((Fraction(1, 2),)), points)):
            with pytest.raises(InvalidInputError, match="cannot add a set of points"):
                sumset(s, t)


class TestDecodeSet:
    @given(
        st.one_of(numerical_specs, puiseux_specs),
        st.sets(st.integers(-60, 60), min_size=1, max_size=6),
    )
    def test_rank1(self, spec, ns):
        got = _decode_set(tuple(sorted(ns)), spec)
        want = FinSet(tuple(decode(n, spec) for n in ns))
        assert got == want and hash(got) == hash(want)
        assert got.elems == want.elems
        assert all(type(e) is Fraction for e in got)

    @given(
        rank2_specs,
        st.sets(st.tuples(st.integers(-60, 60), st.integers(-60, 60)), min_size=1, max_size=6),
    )
    def test_rank2(self, spec, coords):
        # points of the spec's lattice, scaled to packed ints
        ly, lx = spec.scale
        points = [QPoint2(Fraction(x, lx), Fraction(y, ly)) for x, y in coords]
        got = _decode_set(tuple(sorted(encode(p, spec) for p in points)), spec)
        want = FinSet(tuple(points))
        assert got == want and hash(got) == hash(want)
        assert got.elems == want.elems
        assert all(type(e) is QPoint2 for e in got)


# ---------------------------------------------------------------------------
# The kept divisor enumerations of sets: a replay spends what a rerun would


class TestEnumerationMemo:
    T = (4, 5, 6, 7)  # {0, 1} + {4, 6} over <2, 3>

    def entry(self):
        return backend._cache[N23]

    def test_a_set_asked_for_once_keeps_only_its_mark(self):
        clear_caches()
        decompositions(FinSet(self.T), N23)
        assert self.entry().pairs == {self.T: None} and self.entry().divisor_maps == {}

    def test_the_second_request_keeps_what_a_rerun_spends(self):
        clear_caches()
        decompositions(FinSet(self.T), N23)
        used = []
        for _ in range(3):
            bud = Budget()
            got = decompositions(FinSet(self.T), N23, bud)
            used.append(bud.used)
        pairs, nodes = self.entry().pairs[self.T]
        assert len(got) == len(pairs) == 4 and used == [nodes] * 3 and nodes > 0
        # with every test cached, an uncached rerun spends only its U tries
        self.entry().pairs.clear()
        bud = Budget()
        decompositions(FinSet(self.T), N23, bud)
        assert bud.used == nodes

    def test_a_run_that_raises_keeps_nothing(self):
        clear_caches()
        with pytest.raises(BudgetExceededError):
            decompositions(FinSet(self.T), N23, Budget(10))
        assert self.T not in self.entry().pairs
        decompositions(FinSet(self.T), N23)
        with pytest.raises(BudgetExceededError):
            decompositions(FinSet(self.T), N23, Budget(10))
        assert self.entry().pairs == {self.T: None}

    def test_a_kept_list_is_whole(self):
        # `decompositions` walks only the anchors a <= min T - a, so its
        # second run keeps its pairs and no map; `p_divisors` then builds
        # the whole map twice, at the pairs' kept count, where a map of the
        # half walk would lack T itself, and keeps it at that count
        clear_caches()
        for _ in range(2):
            decompositions(FinSet(self.T), N23)
        entry = self.entry()
        pairs, nodes = entry.pairs[self.T]
        assert entry.divisor_maps == {} and len(pairs) == 4 and nodes > 0
        for _ in range(2):
            bud = Budget()
            got = p_divisors(FinSet(self.T), N23, bud)
            assert bud.used == nodes
        kept, count = entry.divisor_maps[self.T]
        assert count == nodes and entry.pairs[self.T] == (pairs, nodes)
        # the kept map is an uncached rerun's, in its order, as dict ==
        # ignores order
        entry.divisor_maps.clear()
        bud = Budget()
        rerun = _anchored_divisors(self.T, _Query(N23, bud))
        assert (list(kept.items()), nodes) == (list(rerun.items()), bud.used)
        want, _ = cold_enumeration(_anchored_divisors, self.T, N23)
        assert sorted((u, tuple(c)) for u, c in kept.items()) == want
        assert [d.elems for d in got] == sorted(u for u, _ in want)
        assert self.T in kept and FinSet(self.T) in got
        # the other way round, two map readers keep the map, and
        # `decompositions` then keeps its pairs on its own second request,
        # each call at the same count
        clear_caches()
        for _ in range(2):
            p_divisors(FinSet(self.T), N23)
        entry = self.entry()
        assert entry.pairs == {}
        assert list(entry.divisor_maps[self.T][0].items()) == list(kept.items())
        for _ in range(3):
            bud = Budget()
            assert [(d.left.elems, d.right.elems)
                    for d in decompositions(FinSet(self.T), N23, bud)] == pairs
            assert bud.used == entry.divisor_maps[self.T][1] == nodes
        assert entry.pairs[self.T] == (pairs, nodes)
        # each kept value replays at its count
        for fn in (p_divisors, decompositions):
            bud = Budget()
            fn(FinSet(self.T), N23, bud)
            assert bud.used == nodes


# the result-cache fields that keep a pure result for a repeat to read, the
# two memos of `power._kept` among them
REPEATS = ("elements", "mcds", "divisor_maps", "pairs", "least", "walks", "picks")


def run_calls(calls: list, spec: MonoidSpec, empty: tuple = ()) -> list:
    """(answer or exception type, Budget.used) per call, from cold caches;
    the result-cache fields named in `empty` are emptied before each call."""
    clear_caches()
    out = []
    for fn, arg, limit in calls:
        for entry in backend._cache.values():
            for name in empty:
                getattr(entry, name).clear()
        bud = Budget(limit)
        try:
            got = fn(arg, spec, bud)
        except (BudgetExceededError, InvalidInputError, TruncationError) as exc:
            got = type(exc)
        out.append((got, bud.used))
    return out


def draw_calls(data, low: set) -> list:
    """A sequence of power-layer calls on a small pool of sets over `low`, so
    that sets repeat, under budgets small enough to run out mid-enumeration."""
    small = finsets(low)
    # sums of two sets, so that the pool has sets that decompose
    pool = data.draw(
        st.lists(st.one_of(st.tuples(small, small).map(lambda p: sumset(*p)), small),
                 min_size=1, max_size=3)
    )
    sets = st.sampled_from(pool)
    call = st.one_of(
        st.tuples(st.sampled_from((decompositions, is_p_atom, p_divisors, p_factorize)), sets),
        st.tuples(st.just(mcd_in_P), st.lists(sets, min_size=1, max_size=2)),
    )
    budgets = st.one_of(st.integers(0, 150), st.just(DEFAULT_BUDGET))
    return [
        (fn, arg, limit)
        for (fn, arg), limit in data.draw(st.lists(st.tuples(call, budgets), min_size=2, max_size=8))
    ]


def check_memo_moves_nothing(calls: list, spec: MonoidSpec) -> None:
    want = run_calls(calls, spec)
    assert run_calls(calls, spec, ("divisor_maps", "pairs")) == want
    assert run_calls(calls, spec, REPEATS) == want


def check_one_shot_against_kept(s: FinSet, spec: MonoidSpec) -> None:
    """`decompositions` of s four ways: cold, in one shot from the walks;
    again, with its pairs kept and no map; after two `p_divisors` calls kept
    the map first; and twice, before `p_divisors` and `mcd_in_P` build the
    map.  The pairs agree, and each call spends what it
    spends with no walk or V list kept."""
    cold = [(decompositions, s, DEFAULT_BUDGET)]
    readers = [(p_divisors, s, DEFAULT_BUDGET), (mcd_in_P, [s], DEFAULT_BUDGET)]
    # each way's calls, and the index of the call whose pairs are compared
    ways = (
        (cold, 0),
        (2 * cold, 1),
        (2 * [(p_divisors, s, DEFAULT_BUDGET)] + cold, 2),
        (2 * cold + readers, 1),
    )
    pairs = []
    for calls, at in ways:
        got = run_calls(calls, spec)
        assert run_calls(calls, spec, ("walks", "picks")) == got
        pairs.append(got[at][0])
    assert pairs[0] == pairs[1] == pairs[2] == pairs[3]


class TestEnumerationMemoOracle:
    @given(numerical_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_numerical(self, spec, data):
        check_memo_moves_nothing(draw_calls(data, naive_members(spec.generators, 8)), spec)

    @given(numerical_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_shot_against_kept_numerical(self, spec, data):
        parts = finsets(naive_members(spec.generators, 8))
        u = data.draw(parts)
        # a doubled set decomposes at its middle anchor, a = min S - a
        v = data.draw(st.one_of(st.just(u), parts))
        check_one_shot_against_kept(sumset(u, v), spec)

    @given(puiseux_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_shot_against_kept_puiseux(self, spec, data):
        parts = finsets(naive_members(spec.generators, 2))
        u = data.draw(parts)
        v = data.draw(st.one_of(st.just(u), parts))
        check_one_shot_against_kept(sumset(u, v), spec)

    @given(puiseux_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_small_lattice_puiseux(self, spec, data):
        check_memo_moves_nothing(draw_calls(data, naive_members(spec.generators, 2)), spec)

    @given(rank2_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank2(self, spec, data):
        check_memo_moves_nothing(draw_calls(data, naive_members(spec.generators, HALF_BOX)), spec)


N5TO9 = MonoidSpec.numerical(5, 6, 7, 8, 9)


def first_factorizations(k: int):
    return lambda b, spec, bud: factorizations(b, spec, bud, limit=k)


# run three times, so that each set's enumeration is kept and its views are
# read back; 25/2 walks the atoms at scale 2, where its residual 25 is the
# scale-1 residual of 25, so a `_least` memo keyed without its scale would
# answer 25 with 25/2's empty list
MIX = 3 * [
    (decompositions, FinSet((10, 11, 12)), DEFAULT_BUDGET),
    (is_p_atom, FinSet((10, 11, 12)), DEFAULT_BUDGET),
    (p_factorize, FinSet((10, 11, 16, 17)), DEFAULT_BUDGET),
    (mcd, FinSet((20, 21)), DEFAULT_BUDGET),
    (mcd_in_P, [FinSet((10, 11, 12)), FinSet((15, 16, 17))], DEFAULT_BUDGET),
    (p_divisors, FinSet((10, 11, 16, 17)), DEFAULT_BUDGET),
    (lambda t, spec, bud: decompositions(t, spec, bud, both_nonsingleton=True),
     FinSet((10, 11, 16, 17)), DEFAULT_BUDGET),
    (decompositions, FinSet((15, 16, 17)), 20),
    (divisors, Fraction(30), DEFAULT_BUDGET),
    (first_factorizations(2), Fraction(40), DEFAULT_BUDGET),
    (first_factorizations(1), Fraction(25, 2), DEFAULT_BUDGET),
    (first_factorizations(1), Fraction(25), DEFAULT_BUDGET),
    (first_factorizations(3), Fraction(31), 200),
    (p_furstenberg_divisor, FinSet((10, 11)), DEFAULT_BUDGET),
]


class TestRepeatedResults:
    """Each result-cache field that keeps a repeated pure result: a hit
    gives the answer and spends the nodes of recomputing it."""

    @pytest.mark.parametrize("name", REPEATS)
    def test_emptying_the_field_moves_nothing(self, name):
        want = run_calls(MIX, N5TO9)
        # the field holds a value, a mark of `_kept`, None, not counting
        assert any(v is not None for v in getattr(backend._cache[N5TO9], name).values())
        assert run_calls(MIX, N5TO9, (name,)) == want

    def test_each_spec_decodes_into_its_own_entry(self):
        clear_caches()
        halves = MonoidSpec.puiseux(Fraction(1, 2))
        divisors(Fraction(3), N23)
        divisors(Fraction(3, 2), halves)
        assert decode(3, N23) == 3 and decode(3, halves) == Fraction(3, 2)

    def test_a_translate_walks_nothing_again(self, monkeypatch):
        # {3, 4, 5, 7} = {0, 1, 2, 4} + 3 has the same offsets from its
        # minimum, and over <1> each of its anchors 0..3 has the pattern of
        # {0, 1, 2, 4}'s one anchor 0, so the kept walk serves them all
        walks = []
        walk = power._relative_divisors
        monkeypatch.setattr(
            power, "_relative_divisors", lambda *args: walks.append(args) or walk(*args)
        )
        one = MonoidSpec.numerical(1)
        got = []
        for empty in (False, True):
            clear_caches()
            walks.clear()
            decompositions(FinSet((0, 1, 2, 4)), one)
            assert len(walks) == 1
            if empty:
                for name in ("walks", "picks"):
                    getattr(backend._cache[one], name).clear()
            walks.clear()
            bud = Budget()
            pairs = decompositions(FinSet((3, 4, 5, 7)), one, bud)
            got.append((len(walks), pairs, bud.used))
        assert [n for n, _, _ in got] == [0, 1]
        assert got[0][1:] == got[1][1:] == (got[0][1], 65) and got[0][1]

    def test_the_mix_finds_what_it_asks(self):
        got = [answer for answer, _ in run_calls(MIX, N5TO9)]
        assert got[10] == [] and len(got[11]) == 1
        assert got[13] == FinSet((Fraction(5),))
        assert got[7] == got[12] == BudgetExceededError


# ---------------------------------------------------------------------------
# The per-pattern enumeration of `_anchored_divisors` against the per-subset
# enumeration it replaced: the same divisors, and the same nodes, also when
# the budget runs out mid-set.


def reference_anchored_divisors(t: tuple, q: _Query) -> dict:
    """Each anchor tries its subsets U one by one, one node each, and at each
    U that passes the tail test takes C(U) = {m in M : U + m inside t} from
    the definition, with the covers and their union by index: the power
    layer's cofactor table and covering walk take no part."""
    is_member, bud = q.is_member, q.budget
    for x in t:
        if not is_member(x):
            raise InvalidInputError(f"{x} is not in the monoid")
    tmax, full = t[-1], (1 << len(t)) - 1
    index = {x: i for i, x in enumerate(t)}
    out = {}
    for a in _divisors(t[0], q):
        mv = t[0] - a
        if not is_member(mv):
            continue
        cand = [x - mv for x in t if is_member(x - mv)]
        others = cand[1:]
        for r in range(len(others) + 1):
            for extra in itertools.combinations(others, r):
                bud.spend()
                u = (a,) + extra
                if not is_member(tmax - u[-1]):
                    continue
                # a + m lies in t, so m = x - a for an x of t; no element of
                # M is below 0, so x >= a; every m is tested, as the walk does
                c = [
                    m for m in (x - a for x in t if x >= a)
                    if is_member(m) and all(v + m in index for v in u)
                ]
                covers = [sum(1 << index[v + m] for v in u) for m in c]
                union = 0
                for cover in covers:
                    union |= cover
                if union == full:
                    out[u] = c, covers
    return out


def reference_divisor_map(t: tuple, q: _Query) -> dict:
    """{U: C} of the reference, the map `_anchored_divisors` keeps."""
    return {u: c for u, (c, _) in reference_anchored_divisors(t, q).items()}


def cold_enumeration(fn, t: tuple, spec: MonoidSpec, limit: int = DEFAULT_BUDGET):
    """(sorted (U, C) or the raised error's type, Budget.used) from cold
    caches."""
    clear_caches()
    bud = Budget(limit)
    try:
        got = sorted((u, tuple(c)) for u, c in fn(t, _Query(spec, bud)).items())
    except BudgetExceededError:
        got = BudgetExceededError
    return got, bud.used


def walked_divisors(t: tuple, q: _Query) -> dict:
    """{U: (C, covers)} from the walk entries of `power._anchor_walks`,
    each cover the complement of an entry's AND, as the V listing reads
    them and keys its `picks`."""
    return {
        tuple([a + d for d in u]): ([mv + d for d in c], [~e for e in ands])
        for a, mv, walk in power._anchor_walks(t, q, False) for u, c, ands in walk
    }


def check_pattern_enumeration(s: FinSet, spec: MonoidSpec, data) -> None:
    t = _encode_set(s, spec)
    want = cold_enumeration(reference_divisor_map, t, spec)
    assert cold_enumeration(_anchored_divisors, t, spec) == want
    if want[0] is not BudgetExceededError:
        clear_caches()
        covers = reference_anchored_divisors(t, _Query(spec, Budget()))
        clear_caches()
        assert walked_divisors(t, _Query(spec, Budget())) == covers
    used = want[1]
    if used:
        limit = data.draw(st.integers(0, used - 1), label="limit")
        for fn in (reference_divisor_map, _anchored_divisors):
            assert cold_enumeration(fn, t, spec, limit) == (BudgetExceededError, limit + 1)


# ---------------------------------------------------------------------------
# The questions the divisor enumeration puts to the result cache, against a
# loop in which every anchor makes each of its own tests: anchors that share
# a membership mask skip only cached verdicts, so the cache fills in the
# same order and at the same cost, also when the budget runs out mid-set.


def replica_questions(t: tuple, q: _Query) -> None:
    """The membership tests of a divisor enumeration of t, anchor by anchor:
    the A tests in ascending order, every tail test, the anchor's charge,
    then the V tests if a tail test passed."""
    is_member, bud = q.is_member, q.budget
    for x in t:
        is_member(x)
    rel = [x - t[0] for x in t]
    for a in _divisors(t[0], q):
        mv, top = t[0] - a, t[-1] - a
        us = [d for d in rel if is_member(a + d)]
        tails = [is_member(top - d) for d in us]
        bud.spend(1 << (len(us) - 1))
        if any(tails):
            for d in rel:
                is_member(mv + d)


def cold_questions(fn, t: tuple, spec: MonoidSpec, limit: int = DEFAULT_BUDGET):
    """(the elements whose verdicts the result cache holds, in the order it
    got them, Budget.used, whether the budget ran out) from cold caches."""
    clear_caches()
    q = _Query(spec, Budget(limit))
    try:
        fn(t, q)
        ran_out = False
    except BudgetExceededError:
        ran_out = True
    return list(q.entry.verdicts), q.budget.used, ran_out


def check_questions(s: FinSet, spec: MonoidSpec, data) -> None:
    t = _encode_set(s, spec)
    want = cold_questions(replica_questions, t, spec)
    for fn in (_anchored_divisors, _decompositions):
        assert cold_questions(fn, t, spec) == want
    limit = data.draw(st.integers(0, want[1] - 1), label="limit")
    cut = cold_questions(replica_questions, t, spec, limit)
    assert cut[1:] == (limit + 1, True)
    for fn in (_anchored_divisors, _decompositions):
        assert cold_questions(fn, t, spec, limit) == cut


class TestQuestionOrder:
    # an anchor a < min T - a whose tail test fails makes no V tests, so its
    # partner min T - a makes its own A tests: over <3, 5>, anchor 3 of
    # {9, 10} fails its tail test 7, and anchor 6 then asks 6 first
    @pytest.mark.parametrize(
        "gens, t", [((3, 5), (9, 10)), ((3, 7), (13, 14)), ((3, 7), (12, 13, 14))]
    )
    def test_a_failed_tail_leaves_the_partner_its_tests(self, gens, t):
        spec = MonoidSpec.numerical(*gens)
        want = cold_questions(replica_questions, t, spec)
        for fn in (_anchored_divisors, _decompositions):
            assert cold_questions(fn, t, spec) == want

    @given(numerical_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_numerical(self, spec, data):
        parts = finsets(naive_members(spec.generators, 10))
        check_questions(sumset(data.draw(parts), data.draw(parts)), spec, data)

    @given(puiseux_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_puiseux(self, spec, data):
        parts = finsets(naive_members(spec.generators, 3))
        check_questions(sumset(data.draw(parts), data.draw(parts)), spec, data)


def draw_lemma_5_2_set(data, spec: MonoidSpec) -> FinSet:
    """A sumset of two sets, each of one to three sums of a multiple k*a,
    k < p, and some generators other than a, as the lemma-5.2 suite builds
    its sets, over a drawn cap pair (a, p)."""
    a, p = data.draw(st.sampled_from(_ex44_residue_pairs(spec)), label="pair")
    others = [g for g in spec.generators if g != a]

    def constant_set() -> set:
        shift = data.draw(st.integers(0, p - 1)) * a
        picks = st.lists(st.booleans(), min_size=len(others), max_size=len(others))
        return {
            shift + sum((g for g, on in zip(others, bits) if on), Fraction(0))
            for bits in data.draw(st.lists(picks, min_size=1, max_size=3))
        }

    return sumset(FinSet(tuple(constant_set())), FinSet(tuple(constant_set())))


# ---------------------------------------------------------------------------
# `_divisors` charges each generator representation once, before it sums
# the representation's sub-multisets, against the per-combination loop it
# replaced: the same divisors, the same nodes, and the same stop when the
# budget runs out mid-representation.


def reference_divisors(n, q: _Query) -> tuple:
    """Each sub-multiset of each representation spends one node as it is
    summed; nothing is cached."""
    plan, bud, pack = q.entry.plan, q.budget, q.spec.pack
    reps: list = []
    backend._search(plan, 0, *backend._split(n, pack), bud, False, reps, [])
    found = set()
    for vec in reps:
        used = [(level[0] * pack + level[1], c) for level, c in zip(plan, vec) if c]
        for combo in itertools.product(*(range(c + 1) for _, c in used)):
            bud.spend()
            found.add(sum(k * g for (g, _), k in zip(used, combo)))
    return tuple(sorted(found))


def cold_divisors(fn, n, spec: MonoidSpec, limit: int = DEFAULT_BUDGET):
    """(the divisors or the raised error's type, Budget.used, whether the
    result cache holds a divisor list of n) from cold caches."""
    clear_caches()
    q = _Query(spec, Budget(limit))
    try:
        got = fn(n, q)
    except BudgetExceededError:
        got = BudgetExceededError
    return got, q.budget.used, n in q.entry.divisors


def check_divisors(b, spec: MonoidSpec, data) -> None:
    n = encode(b, spec)
    got, used, _ = want = cold_divisors(reference_divisors, n, spec)
    assert cold_divisors(_divisors, n, spec) == (got, used, True)
    # a limit from the representations' search cost on runs out while the
    # sub-multiset sums are charged
    clear_caches()
    q = _Query(spec, Budget())
    backend._search(q.entry.plan, 0, *backend._split(n, spec.pack), q.budget, False, [], [])
    if q.budget.used < used:
        limit = data.draw(st.integers(q.budget.used, used - 1), label="limit")
        for fn in (reference_divisors, _divisors):
            assert cold_divisors(fn, n, spec, limit) == (BudgetExceededError, limit + 1, False)


class TestDivisorsOracle:
    @given(numerical_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_numerical(self, spec, data):
        check_divisors(Fraction(data.draw(st.integers(0, 24), label="b")), spec, data)

    @given(puiseux_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_puiseux(self, spec, data):
        members = sorted(naive_members(spec.generators, 6))
        check_divisors(data.draw(st.sampled_from(members), label="b"), spec, data)

    @given(rank2_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank2(self, spec, data):
        members = naive_members(spec.generators, BOX)
        check_divisors(data.draw(st.sampled_from(sorted(members)), label="b"), spec, data)


RANK2_53 = MonoidSpec.of_family("RANK2-5.3", 3, (Fraction(7, 3),))


def rank2_atom_sets(spec: MonoidSpec) -> list:
    """The sets {0, g}, {d, g} and {g} of the thm-5.5-gap suite, for
    generators g and dyadic generators d (first coordinate 0)."""
    zero = spec.zero
    dyadics = [g for g in spec.generators if g.x == 0]
    return (
        [singleton(g) for g in spec.generators]
        + [FinSet((zero, g)) for g in spec.generators]
        + [FinSet((d, g)) for d in dyadics for g in spec.generators if g != d]
    )


class TestPatternEnumerationOracle:
    @given(numerical_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_numerical(self, spec, data):
        parts = finsets(naive_members(spec.generators, 10))
        s = sumset(data.draw(parts), data.draw(parts))
        check_pattern_enumeration(s, spec, data)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_ex44_lemma_5_2_sets(self, data):
        spec = expand_family("EX44", 2)
        check_pattern_enumeration(draw_lemma_5_2_set(data, spec), spec, data)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_rank2_sums_of_atom_sets(self, data):
        sets = data.draw(st.lists(st.sampled_from(rank2_atom_sets(RANK2_53)), min_size=1, max_size=2))
        check_pattern_enumeration(sumset_all(sets, RANK2_53), RANK2_53, data)


# ---------------------------------------------------------------------------
# The covering walk against a brute-force listing of every tuple of row
# indices that holds 0, in the walk's lexicographic order.


def brute_force_covers(rows: list, full: int) -> list:
    """(I, cover) for each tuple I of row indices holding 0,
    lexicographically, whose rows cover full: column j counts iff every row
    of I has a nonzero entry there, and then covers the index bits whose
    complements those entries are; cover holds, per column, the complement
    of what the column covers, or 0 when it does not count."""
    out = []
    for r in range(len(rows)):
        for extra in itertools.combinations(range(1, len(rows)), r):
            ks = (0,) + extra
            cover, union = [], 0
            for j in range(len(rows[0])):
                entries = [rows[k][j] for k in ks]
                bits = 0
                for e in entries:
                    bits |= ~e
                counts = all(e != 0 for e in entries)
                cover.append(~bits if counts else 0)
                union |= bits if counts else 0
            if union == full:
                out.append((ks, cover))
    return sorted(out)


@st.composite
def cofactor_tables(draw) -> tuple:
    """(rows, full): 1 to 7 rows over 1 to 5 columns, each entry 0 or the
    complement of one of 1 to 6 index bits, and the mask of those bits."""
    bits = draw(st.integers(1, 6))
    width = draw(st.integers(1, 5))
    entry = st.sampled_from([0] + [~(1 << i) for i in range(bits)])
    row = st.lists(entry, min_size=width, max_size=width)
    return draw(st.lists(row, min_size=1, max_size=7)), (1 << bits) - 1


def brute_force_v_lists(covers: tuple, full: int) -> list:
    """The index tuples holding 0, lexicographically, whose covers OR to
    full."""
    out = []
    for r in range(len(covers)):
        for extra in itertools.combinations(range(1, len(covers)), r):
            union = covers[0]
            for i in extra:
                union |= covers[i]
            if union == full:
                out.append((0,) + extra)
    return sorted(out)


# the V listing of `_decomposition_pairs`: the walk over one column whose
# rows are the AND entries, the complements of the covers
def v_lists(covers: tuple, full: int) -> list:
    return [ks for ks, _ in power._covering_walk([[~x] for x in covers], full)]


class TestCoveringWalk:
    @given(cofactor_tables())
    @settings(max_examples=300, deadline=None)
    def test_random_tables(self, table):
        rows, full = table
        assert power._covering_walk(rows, full) == brute_force_covers(rows, full)

    @given(st.integers(1, 6).flatmap(
        lambda bits: st.tuples(
            st.lists(st.integers(1, (1 << bits) - 1), min_size=1, max_size=8).map(tuple),
            st.just((1 << bits) - 1),
        )
    ))
    @settings(max_examples=300, deadline=None)
    def test_random_covers(self, drawn):
        covers, full = drawn
        assert v_lists(covers, full) == brute_force_v_lists(covers, full)

    @given(numerical_specs, st.data())
    @settings(max_examples=40, deadline=None)
    def test_kept_v_lists(self, spec, data):
        # every V list that `decompositions` keeps is the brute-force one
        parts = finsets(naive_members(spec.generators, 10))
        s = sumset(data.draw(parts), data.draw(parts))
        clear_caches()
        decompositions(s, spec)
        full = (1 << len(s)) - 1
        for ands, vs in backend._cache[spec].picks.items():
            assert vs == brute_force_v_lists(tuple([~e for e in ands]), full)

    def test_a_23_element_sumset(self, monkeypatch):
        # {1, 2, 18, 19, 22} + {6, 13, 15, 17, 21} over <1>: its anchors
        # charge 2^(|A| - 1) nodes each, 33,555,482 in all, as a walk over
        # every subset would visit; the bounded walks make 3,531 `_covered`
        # calls, and walks without their cut would make millions
        covered, calls = power._covered, []

        def counted(cover):
            calls.append(None)
            assert len(calls) <= 20_000, "the covering walk lost its cut"
            return covered(cover)

        monkeypatch.setattr(power, "_covered", counted)
        t = (7, 8, 14, 15, 16, 17, 18, 19, 22, 23, 24, 25, 28, 31, 32, 33, 34, 35, 36, 37, 39, 40, 43)
        assert sumset(FinSet((1, 2, 18, 19, 22)), FinSet((6, 13, 15, 17, 21))).elems == t
        shapes = [
            ((0, 1, 17, 18, 21), (7, 14, 15, 16, 18, 22)),
            ((0, 1, 17, 18, 21), (7, 14, 16, 18, 22)),
            ((0, 7, 8, 9, 11, 15), (7, 8, 24, 25, 28)),
            ((0, 7, 9, 11, 15), (7, 8, 24, 25, 28)),
            (tuple(x - 7 for x in t), (7,)),
        ]
        want = [(tuple(x + a for x in u), tuple(x - a for x in v)) for a in range(4) for u, v in shapes]
        want += [((a,), tuple(x - a for x in t)) for a in (1, 2, 3)]
        clear_caches()
        bud = Budget(10**9)
        pairs = decompositions(FinSet(t), N0, bud)
        assert [(p.left.elems, p.right.elems) for p in pairs] == sorted(want)
        assert len(pairs) == 23 and bud.used == 33_555_482
