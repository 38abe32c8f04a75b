"""Finite-set layer: sumsets, divisibility witnesses, atoms, factorization."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finpow.arith import InvalidInputError, QPoint2
from finpow.atomicity import rank2_atom
from finpow import backend
from finpow.backend import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceededError,
    MonoidSpec,
    TruncationError,
    clear_caches,
    decode,
)
from finpow.mcd import common_divisors, mcd, mcd_in_P, p_divisors
from finpow.power import (
    FinSet,
    NOT_ATOMIC,
    _decode_set,
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
    nontrivial = {
        (min(u, v), max(u, v)) for u, v in pairs if u != (zero,) and v != (zero,)
    }
    assert {(d.left.elems, d.right.elems) for d in decompositions(s, spec)} == nontrivial
    both = {(u, v) for u, v in nontrivial if len(u) >= 2 and len(v) >= 2}
    assert {
        (d.left.elems, d.right.elems)
        for d in decompositions(s, spec, both_nonsingleton=True)
    } == both


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


class TestNonMemberSets:
    # 1 lies on the lattice Z of <2, 3> but outside the monoid, so {1, 5} is
    # not in P_fin(<2, 3>) and no verdict about it may be certified
    @pytest.mark.parametrize(
        "call",
        [
            lambda s: decompositions(s, N23),
            lambda s: is_p_atom(s, N23),
            lambda s: p_factorize(s, N23),
            lambda s: p_divisors(s, N23),
            lambda s: mcd_in_P([FinSet((2, 3)), s], N23),
            lambda s: is_indecomposable(s, N23),
        ],
        ids=[
            "decompositions", "is_p_atom", "p_factorize", "p_divisors",
            "mcd_in_P", "is_indecomposable",
        ],
    )
    def test_set_outside_the_monoid_is_rejected(self, call):
        with pytest.raises(InvalidInputError, match="1 is not in the monoid"):
            call(FinSet((1, 5)))

    def test_negative_element_is_rejected(self):
        with pytest.raises(InvalidInputError, match="-1 is not in the monoid"):
            is_p_atom(FinSet((-1, 2)), N23)


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

    @given(rank2_specs, st.sets(small_points, min_size=1, max_size=6))
    def test_rank2(self, spec, points):
        got = _decode_set(tuple(sorted(points)), spec)
        want = FinSet(tuple(points))
        assert got == want and hash(got) == hash(want)
        assert got.elems == want.elems


# ---------------------------------------------------------------------------
# The kept divisor enumerations of sets: a replay spends what a rerun would


class TestEnumerationMemo:
    T = (4, 5, 6, 7)  # {0, 1} + {4, 6} over <2, 3>

    def memo(self) -> dict:
        return backend._cache[N23][3]

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


def run_calls(calls: list, spec: MonoidSpec, empty_memo: bool) -> list:
    """(answer or exception type, Budget.used) per call, from cold caches;
    with `empty_memo` every kept enumeration is dropped before each call."""
    clear_caches()
    out = []
    for fn, arg, limit in calls:
        if empty_memo:
            for entry in backend._cache.values():
                entry[3].clear()
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
