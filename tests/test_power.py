"""Finite-set layer: sumsets, divisibility witnesses, atoms, factorization."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finpow.arith import InvalidInputError, QPoint2
from finpow.atomicity import p_furstenberg_divisor, rank2_atom
from finpow import backend
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
    encode,
    expand_family,
)
from finpow.mcd import common_divisors, mcd, mcd_in_P, p_divisors
from finpow.power import (
    FinSet,
    NOT_ATOMIC,
    _anchored_divisors,
    _cofactors,
    _decode_set,
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

N23 = MonoidSpec.numerical(2, 3)
N0 = MonoidSpec.numerical(1)

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


def closure(gens, zero, fits):
    """Breadth-first closure of the generators among the points that fit."""
    out, frontier = {zero}, {zero}
    while frontier:
        frontier = {q + g for q in frontier for g in gens if fits(q + g)} - out
        out |= frontier
    return out


def oracle_pairs(s: FinSet, members: set) -> set:
    """Every (U, V) of finite subsets of M with U + V = s.

    `members` must hold every member of M below the elements of s.  U ranges
    over the subsets of the divisors of the elements of s with at most |s|
    elements, V over the subsets of the divisors m with U + m inside s."""
    target = set(s.elems)
    divs = sorted(d for d in members if any(x - d in members for x in target))
    pairs = set()
    for k in range(1, len(s) + 1):
        for u in itertools.combinations(divs, k):
            fit = [m for m in divs if all(e + m in target for e in u)]
            for j in range(1, len(fit) + 1):
                for v in itertools.combinations(fit, j):
                    if {e + m for e in u for m in v} == target:
                        pairs.add((u, v))
    return pairs


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


numerical_specs = st.lists(st.integers(2, 7), min_size=1, max_size=3, unique=True).map(
    lambda gs: MonoidSpec.numerical(*gs)
)
small_rationals = st.builds(Fraction, st.integers(1, 6), st.sampled_from((1, 2, 3, 4, 6)))
puiseux_specs = st.lists(small_rationals, min_size=1, max_size=3, unique=True).map(
    lambda gs: MonoidSpec.puiseux(*gs)
)
small_points = st.builds(
    QPoint2,
    st.builds(Fraction, st.integers(0, 3), st.sampled_from((1, 2, 3))),
    st.builds(Fraction, st.integers(0, 3), st.sampled_from((1, 2, 4))),
).filter(lambda g: g > QPoint2(Fraction(0), Fraction(0)))
rank2_specs = st.lists(small_points, min_size=1, max_size=3, unique=True).map(
    lambda gs: MonoidSpec.rank2(*gs)
)


def rank1_members(spec: MonoidSpec, bound) -> set:
    return closure(spec.generators, Fraction(0), lambda q: q <= bound)


class TestAnchoredEnumerationOracle:
    @given(numerical_specs, st.data())
    @settings(max_examples=40, deadline=None)
    def test_numerical(self, spec, data):
        members = rank1_members(spec, 12)
        elems = data.draw(st.lists(st.sampled_from(sorted(members)), min_size=1, max_size=4))
        check_against_oracle(FinSet(tuple(elems)), spec, members)

    @given(puiseux_specs, st.data())
    @settings(max_examples=40, deadline=None)
    def test_small_lattice_puiseux(self, spec, data):
        members = rank1_members(spec, 3)
        elems = data.draw(st.lists(st.sampled_from(sorted(members)), min_size=1, max_size=4))
        check_against_oracle(FinSet(tuple(elems)), spec, members)

    @pytest.mark.parametrize("elems", [(4, 5, 6, 7), (4, 5, 6)])
    def test_middle_anchor(self, elems):
        # 2 = 4 - 2 is an anchor of min t = 4 over <2, 3>: the pairs {2, 3} +
        # {2, 4} and {2, 3} + {2, 3, 4} of {4, 5, 6, 7} have sides of equal
        # minimum, each found from both of its sides; {4, 5, 6} is {2, 3} +
        # {2, 3}, found once
        check_against_oracle(FinSet(elems), N23, rank1_members(N23, 12))

    @pytest.mark.parametrize("with_atom", [False, True])
    def test_rank2_family(self, with_atom):
        spec = MonoidSpec.of_family("RANK2-5.3", 3, (Fraction(7, 3),))
        dy = [QPoint2(Fraction(0), Fraction(k, 8)) for k in range(4)]
        if with_atom:
            a = rank2_atom(Fraction(7, 3), "A")
            elems = (dy[0], dy[1], a, a + dy[1])  # {0, a} + {0, (0, 1/8)}
        else:
            elems = tuple(dy)  # {0, (0, 1/8)} + {0, (0, 1/4)}
        s = FinSet(elems)
        top_x, top_y = max(e.x for e in elems), max(e.y for e in elems)
        members = closure(
            spec.generators,
            spec.zero,
            lambda q: q.x <= top_x and q.y <= top_y,
        )
        check_against_oracle(s, spec, members)


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


def check_cofactor(u: FinSet, t: FinSet, spec: MonoidSpec, members: set) -> None:
    """C = {m in M : u + m inside t}, and u divides t iff u + C = t;
    `members` must hold every member of M up to max t."""
    target = set(t.elems)
    want = tuple(sorted(m for m in members if all(e + m in target for e in u)))
    got = singleton_candidates(u, t, spec)
    assert (got.elems if got is not None else ()) == want
    witness = divides_in_P(u, t, spec)
    if want and sumset(u, FinSet(want)) == t:
        assert witness is not None and witness.elems == want
    else:
        assert witness is None


def draw_pair(data, members: set, half) -> tuple:
    """(u, t) over the members: t is u + v, u + v less one element, or any
    set, so that divisors, near misses and unrelated sets all occur."""
    low = sorted(m for m in members if half(m))
    u, v = (
        FinSet(tuple(data.draw(st.lists(st.sampled_from(low), min_size=1, max_size=3))))
        for _ in range(2)
    )
    t = sumset(u, v)
    mode = data.draw(st.sampled_from(("sum", "less", "any")))
    if mode == "less" and len(t) > 1:
        drop = data.draw(st.sampled_from(t.elems))
        t = FinSet(tuple(e for e in t if e != drop))
    elif mode == "any":
        pool = sorted(members)
        t = FinSet(tuple(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))))
    return u, t


class TestCofactorKernel:
    @given(numerical_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_numerical(self, spec, data):
        members = rank1_members(spec, 16)
        check_cofactor(*draw_pair(data, members, lambda m: m <= 8), spec, members)

    @given(puiseux_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_small_lattice_puiseux(self, spec, data):
        members = rank1_members(spec, 4)
        check_cofactor(*draw_pair(data, members, lambda m: m <= 2), spec, members)

    @given(rank2_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank2(self, spec, data):
        # every generator has x, y >= 0, so the members in the box [0, 4]^2
        # hold every m with u + m inside a set of the box
        members = closure(spec.generators, spec.zero, lambda q: q.x <= 4 and q.y <= 4)
        half = lambda m: m.x <= 2 and m.y <= 2  # noqa: E731
        check_cofactor(*draw_pair(data, members, half), spec, members)


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

    def memo(self) -> dict:
        return backend._cache[N23].enumerations

    def test_a_set_asked_for_once_keeps_only_its_mark(self):
        clear_caches()
        decompositions(FinSet(self.T), N23)
        assert self.memo() == {self.T: None}

    def test_the_second_request_keeps_what_a_rerun_spends(self):
        clear_caches()
        decompositions(FinSet(self.T), N23)
        used = []
        for _ in range(3):
            bud = Budget()
            got = decompositions(FinSet(self.T), N23, bud)
            used.append(bud.used)
        divs, nodes = self.memo()[self.T]
        assert len(got) == 4 and used == [nodes] * 3 and nodes > 0
        # with every test cached, an uncached rerun spends only its U tries
        self.memo().clear()
        bud = Budget()
        decompositions(FinSet(self.T), N23, bud)
        assert bud.used == nodes

    def test_a_run_that_raises_keeps_nothing(self):
        clear_caches()
        with pytest.raises(BudgetExceededError):
            decompositions(FinSet(self.T), N23, Budget(10))
        assert self.T not in self.memo()
        decompositions(FinSet(self.T), N23)
        with pytest.raises(BudgetExceededError):
            decompositions(FinSet(self.T), N23, Budget(10))
        assert self.memo() == {self.T: None}

    def test_a_kept_list_is_whole(self):
        # `decompositions` reads only the anchors a <= min T - a, so its
        # first run translates no other; its second keeps the list, which
        # `p_divisors` replays, and a kept half list would lack T itself
        clear_caches()
        for _ in range(2):
            decompositions(FinSet(self.T), N23)
        kept, nodes = self.memo()[self.T]
        # the kept count is that of a rerun with every test cached
        self.memo().clear()
        bud = Budget()
        rerun = _anchored_divisors(self.T, _Query(N23, bud))
        assert (kept, nodes) == (rerun, bud.used)
        want, _ = cold_enumeration(_anchored_divisors, self.T, N23)
        assert sorted((u, tuple(c), covers) for u, c, covers in kept) == want
        clear_caches()
        for _ in range(2):
            decompositions(FinSet(self.T), N23)
        got = p_divisors(FinSet(self.T), N23)
        assert [d.elems for d in got] == sorted(u for u, _, _ in want)
        assert FinSet(self.T) in got


def run_calls(calls: list, spec: MonoidSpec, empty_memo: bool) -> list:
    """(answer or exception type, Budget.used) per call, from cold caches;
    with `empty_memo` every kept enumeration is dropped before each call."""
    clear_caches()
    out = []
    for fn, arg, limit in calls:
        if empty_memo:
            for entry in backend._cache.values():
                entry.enumerations.clear()
        bud = Budget(limit)
        try:
            got = fn(arg, spec, bud)
        except (BudgetExceededError, InvalidInputError, TruncationError) as exc:
            got = type(exc)
        out.append((got, bud.used))
    return out


def draw_calls(data, members: set, half) -> list:
    """A sequence of power-layer calls on a small pool of sets, so that sets
    repeat, under budgets small enough to run out mid-enumeration."""
    low = sorted(m for m in members if half(m))
    small = st.lists(st.sampled_from(low), min_size=1, max_size=3).map(
        lambda xs: FinSet(tuple(xs))
    )
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
    assert run_calls(calls, spec, False) == run_calls(calls, spec, True)


class TestEnumerationMemoOracle:
    @given(numerical_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_numerical(self, spec, data):
        members = rank1_members(spec, 16)
        check_memo_moves_nothing(draw_calls(data, members, lambda m: m <= 8), spec)

    @given(puiseux_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_small_lattice_puiseux(self, spec, data):
        members = rank1_members(spec, 4)
        check_memo_moves_nothing(draw_calls(data, members, lambda m: m <= 2), spec)

    @given(rank2_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank2(self, spec, data):
        members = closure(spec.generators, spec.zero, lambda q: q.x <= 4 and q.y <= 4)
        half = lambda m: m.x <= 2 and m.y <= 2  # noqa: E731
        check_memo_moves_nothing(draw_calls(data, members, half), spec)


# ---------------------------------------------------------------------------
# The per-pattern enumeration of `_anchored_divisors` against the per-subset
# enumeration it replaced: the same divisors, and the same nodes, also when
# the budget runs out mid-set.


def reference_anchored_divisors(t: tuple, q: _Query) -> list:
    """Each anchor tries its subsets U one by one, one node each, and builds
    its cofactor kernel at the first U that passes the tail test."""
    is_member, bud = q.is_member, q.budget
    for x in t:
        if not is_member(x):
            raise InvalidInputError(f"{x} is not in the monoid")
    tmax, full = t[-1], (1 << len(t)) - 1
    out = []
    for a in _divisors(t[0], q):
        mv = t[0] - a
        if not is_member(mv):
            continue
        cand = [x - mv for x in t if is_member(x - mv)]
        others = cand[1:]
        cofactor = None
        for r in range(len(others) + 1):
            for extra in itertools.combinations(others, r):
                bud.spend()
                u = (a,) + extra
                if not is_member(tmax - u[-1]):
                    continue
                if cofactor is None:
                    cofactor = _cofactors(t, a, cand, is_member)
                c, covers, union = cofactor(u)
                if union == full:
                    out.append((u, c, covers))
    return out


def cold_enumeration(fn, t: tuple, spec: MonoidSpec, limit: int = DEFAULT_BUDGET):
    """(sorted (U, C, covers) or the raised error's type, Budget.used) from
    cold caches."""
    clear_caches()
    bud = Budget(limit)
    try:
        got = sorted((u, tuple(c), tuple(covers)) for u, c, covers in fn(t, _Query(spec, bud)))
    except BudgetExceededError:
        got = BudgetExceededError
    return got, bud.used


def check_pattern_enumeration(s: FinSet, spec: MonoidSpec, data) -> None:
    t = _encode_set(s, spec)
    want = cold_enumeration(reference_anchored_divisors, t, spec)
    assert cold_enumeration(_anchored_divisors, t, spec) == want
    used = want[1]
    if used:
        limit = data.draw(st.integers(0, used - 1), label="limit")
        for fn in (reference_anchored_divisors, _anchored_divisors):
            assert cold_enumeration(fn, t, spec, limit) == (BudgetExceededError, limit + 1)


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
        members = sorted(rank1_members(spec, 6))
        check_divisors(data.draw(st.sampled_from(members), label="b"), spec, data)

    @given(rank2_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank2(self, spec, data):
        members = closure(spec.generators, spec.zero, lambda q: q.x <= 4 and q.y <= 4)
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
        members = sorted(rank1_members(spec, 10))
        parts = st.lists(st.sampled_from(members), min_size=1, max_size=3)
        s = sumset(FinSet(tuple(data.draw(parts))), FinSet(tuple(data.draw(parts))))
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
