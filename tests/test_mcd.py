"""Maximal common divisors, the dyadic witness ascent, and residue invariants."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finpow.arith import InvalidInputError, vp_value
from finpow.backend import (
    Budget,
    MonoidSpec,
    TruncationError,
    _Query,
    clear_caches,
    divisors,
    encode,
    expand_family,
)
from finpow.mcd import (
    ResidueClass,
    _cap_constant_on_scaled,
    _check_cap_preconditions,
    _residue,
    cap_constant_on,
    cap_residue,
    chain_divisors,
    common_divisors,
    ex44_chain,
    ex44_witness,
    mcd,
    mcd_in_P,
    p_divisors,
)
from finpow.power import (
    FinSet,
    _anchored_divisors,
    _decode_set,
    _decompositions,
    _encode_set,
    decompositions,
    divides_in_P,
    singleton,
    sumset,
    zero_set,
)
from finpow.suites import _ex44_residue_pairs
from oracles import finsets, naive_divisors, naive_members, numerical_specs, puiseux_specs

N23 = MonoidSpec.numerical(2, 3)


class TestMcdInM:
    def test_common_divisors(self):
        assert common_divisors(FinSet((4, 5)), N23) == [0, 2]

    def test_mcd_simple(self):
        assert mcd(FinSet((4, 5)), N23) == [2]

    def test_mcd_requires_trivial_residual(self):
        # 4 is a common divisor of {6, 9} but {2, 5} still shares the
        # divisor 2, so only 6 is maximal.
        assert common_divisors(FinSet((6, 9)), N23) == [0, 2, 3, 4, 6]
        assert mcd(FinSet((6, 9)), N23) == [6]

    def test_mcd_of_singleton(self):
        assert mcd(FinSet((7,)), N23) == [7]


class TestPDivisors:
    def test_contains_trivial_divisors(self):
        t = FinSet((4, 5, 6, 7))
        divs = p_divisors(t, N23)
        assert zero_set(N23) in divs
        assert t in divs

    def test_all_divide(self):
        t = FinSet((4, 5, 6, 7))
        for s in p_divisors(t, N23):
            assert any(sumset(s, d) == t for d in p_divisors(t, N23))


class TestMcdInP:
    def test_singleton_family(self):
        out = mcd_in_P([FinSet((4, 5))], N23)
        assert out == [FinSet((4, 5))]

    def test_monoid_level_reduction(self):
        out = mcd_in_P([singleton(4), singleton(5)], N23)
        assert out == [singleton(2)]

    def test_resums_into_each_member(self):
        fam = [FinSet((4, 5, 6, 7)), FinSet((6, 7, 8, 9))]
        for d in mcd_in_P(fam, N23):
            for t in fam:
                shifted = FinSet(tuple(e - d.min for e in t))
                assert shifted.min >= 0


class TestResidueClass:
    def test_normalization_and_add(self):
        r = ResidueClass(5, 12)
        assert r.residue == 2
        assert (r + ResidueClass(5, 4)).residue == 1

    def test_composite_modulus_rejected(self):
        with pytest.raises(InvalidInputError):
            ResidueClass(6, 1)

    def test_mismatched_moduli_rejected(self):
        with pytest.raises(InvalidInputError):
            ResidueClass(5, 1) + ResidueClass(7, 1)


class TestCapResidue:
    SPEC = MonoidSpec("puiseux", (F(4, 15), F(1, 7), F(2)))

    def test_zero_residue(self):
        assert cap_residue(F(4, 3), F(4, 15), 5, self.SPEC).residue == 0

    def test_unit_residue(self):
        assert cap_residue(F(4, 15), F(4, 15), 5, self.SPEC).residue == 1

    def test_integer_target(self):
        assert cap_residue(F(1), F(1, 7), 7, self.SPEC).residue == 0

    def test_additive(self):
        a, p = F(4, 15), 5
        q1, q2 = F(4, 15), F(4, 3)
        total = cap_residue(q1 + q2, a, p, self.SPEC)
        assert total == cap_residue(q1, a, p, self.SPEC) + cap_residue(
            q2, a, p, self.SPEC
        )

    def test_rejects_non_generator(self):
        with pytest.raises(InvalidInputError):
            cap_residue(F(1), F(1, 5), 5, self.SPEC)

    def test_rejects_shared_prime(self):
        spec = MonoidSpec("puiseux", (F(1, 5), F(2, 5)))
        with pytest.raises(InvalidInputError):
            cap_residue(F(1), F(1, 5), 5, spec)

    def test_rejects_undefined_residue(self):
        with pytest.raises(InvalidInputError):
            cap_residue(F(1, 25), F(4, 15), 5, self.SPEC)

    def test_constant_on_rejects_bad_pair(self):
        s = FinSet((F(4, 15), F(4, 3)))
        for a, p in ((F(1, 5), 5), (F(4, 15), 6), (F(1, 7), 5)):
            with pytest.raises(InvalidInputError):
                cap_constant_on(s, a, p, self.SPEC)

    def test_bad_pair_raises_after_a_good_one(self):
        clear_caches()
        s = FinSet((F(4, 15), F(4, 3)))
        assert not cap_constant_on(s, F(4, 15), 5, self.SPEC)
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="6 is not prime"):
                cap_constant_on(s, F(4, 15), 6, self.SPEC)
            with pytest.raises(InvalidInputError, match="is not a generator"):
                cap_constant_on(s, F(1, 5), 5, self.SPEC)

    def test_a_pair_good_for_one_spec_is_refused_for_another(self):
        clear_caches()
        s = FinSet((F(1, 5),))
        assert cap_constant_on(s, F(1, 5), 5, MonoidSpec.puiseux(F(1, 5), F(1, 2)))
        with pytest.raises(InvalidInputError, match="divides the denominator"):
            cap_constant_on(s, F(1, 5), 5, MonoidSpec.puiseux(F(1, 5), F(2, 5)))

    def test_constant_on_set(self):
        assert cap_constant_on(FinSet((F(4, 15), F(4, 15) + F(5))), F(4, 15), 5, self.SPEC)
        assert not cap_constant_on(FinSet((F(4, 15), F(4, 3))), F(4, 15), 5, self.SPEC)

    def test_constant_on_rejects_an_element_off_the_lattice(self):
        # 1/11 lies outside (1/105)Z, so it is no element of M, though
        # (1/11) / (4/15) has a residue mod 5
        s = FinSet((F(4, 15), F(1, 11)))
        with pytest.raises(InvalidInputError, match="1/11 is not in the monoid"):
            cap_constant_on(s, F(4, 15), 5, self.SPEC)


class TestEx44Witness:
    def test_first_step(self):
        step = ex44_witness(F(0), 3)
        assert step.n == 0 and step.increment == F(1, 2)
        assert step.next_divisor == F(1, 2)

    def test_second_step(self):
        step = ex44_witness(F(1, 2), 3)
        assert step.n == 1 and step.increment == F(1, 4)
        assert step.next_divisor == F(3, 4)

    def test_third_step(self):
        step = ex44_witness(F(3, 4), 5)
        assert step.n == 2 and step.increment == F(1, 8)

    def test_third_step_truncates_at_shallow_depth(self):
        with pytest.raises(TruncationError):
            ex44_witness(F(3, 4), 3)

    def test_certificates_resum(self):
        step = ex44_witness(F(1, 2), 3)
        cert_one, cert_ft = step.residual_certificates
        assert cert_one.total() == F(1) - F(1, 2) - F(1, 4)
        assert cert_ft.total() == F(4, 3) - F(1, 2) - F(1, 4)
        for cert in step.residual_certificates:
            assert sum(a * k for a, k in cert.parts) == cert.total()

    def test_non_divisor_rejected(self):
        with pytest.raises(InvalidInputError):
            ex44_witness(F(1, 5), 3)

    @pytest.mark.parametrize("q", [F(-1, 2), F(-1)], ids=["-1/2", "-1"])
    def test_negative_divisor_rejected_before_any_node(self, q):
        # 1 - q and 4/3 - q are members for both, so only the sign shows
        # that q, outside M, is no common divisor
        with pytest.raises(InvalidInputError, match=f"^{q} is not a common divisor of"):
            ex44_witness(q, 6, Budget(0))


class TestEx44Chain:
    def test_short_chain(self):
        steps = ex44_chain(1, 2)
        assert chain_divisors(steps) == [F(0), F(1, 2)]

    def test_depth5_chain(self):
        steps = ex44_chain(3, 5)
        assert chain_divisors(steps) == [F(0), F(1, 2), F(3, 4), F(7, 8)]

    def test_truncation_with_partial(self):
        with pytest.raises(TruncationError) as exc:
            ex44_chain(10, 3)
        assert len(exc.value.partial) == 2

    def test_empty_chain_divisors(self):
        assert chain_divisors([]) == [F(0)]


def residue_by_fractions(q, a, p: int) -> int:
    """c_{a,p}(q) by its definition: (q/a) mod p, undefined when v_p(q/a) < 0."""
    if q == 0:
        return 0
    t = q / a
    if vp_value(p, t) < 0:
        raise InvalidInputError("no residue")
    return t.numerator * pow(t.denominator, -1, p) % p


rationals = st.builds(F, st.integers(-400, 400), st.integers(1, 400))


class TestResidueOnInts:
    @given(rationals, rationals.filter(lambda a: a > 0), st.sampled_from((2, 3, 5, 7, 11)))
    def test_matches_the_fraction_definition(self, q, a, p):
        try:
            want = residue_by_fractions(q, a, p)
        except InvalidInputError:
            with pytest.raises(InvalidInputError, match="admits no residue"):
                _residue(q, a, p)
        else:
            assert _residue(q, a, p) == want


# ---------------------------------------------------------------------------
# The scaled MCD layer, against brute force over the members of M and
# against the implementation on decoded sets that it replaced


def oracle_mcd(s, members: set) -> list:
    return [
        d for d in naive_divisors(s, members)
        if naive_divisors([e - d for e in s], members) == [0]
    ]


def reference_common_divisors(s: FinSet, spec: MonoidSpec, bud: Budget) -> list:
    out = None
    for e in s:
        ds = set(divisors(e, spec, bud))
        out = ds if out is None else out & ds
    return sorted(out)


def reference_mcd(s: FinSet, spec: MonoidSpec, bud: Budget) -> list:
    out = []
    for d in reference_common_divisors(s, spec, bud):
        shifted = FinSet(tuple(e - d for e in s))
        if reference_common_divisors(shifted, spec, bud) == [spec.zero]:
            out.append(d)
    return out


def reference_mcd_in_P(family: list, spec: MonoidSpec, bud: Budget) -> list:
    """mcd_in_P on decoded sets: each round re-encodes the family, strips the
    chosen divisor with divides_in_P and adds it with sumset."""
    fam = list(family)
    stripped = zero_set(spec)
    while True:
        common = None
        for t in fam:
            ds = set(_anchored_divisors(_encode_set(t, spec), _Query(spec, bud)))
            common = ds if common is None else common & ds
        nonsingleton = sorted(u for u in common if len(u) >= 2)
        if not nonsingleton:
            break
        d = _decode_set(nonsingleton[0], spec)
        fam = [divides_in_P(d, t, spec, bud) for t in fam]
        stripped = sumset(stripped, d)
    union = FinSet(tuple(e for t in fam for e in t))
    m_level = reference_mcd(union, spec, bud)
    if not m_level:
        raise TruncationError("inconclusive", partial=stripped)
    return sorted(
        (sumset(stripped, singleton(m0)) for m0 in m_level), key=lambda f: f.elems
    )


def cold(fn, *args):
    """(answer or raised TruncationError's partial, Budget.used) on a cold cache."""
    clear_caches()
    bud = Budget()
    try:
        out = fn(*args, bud)
    except TruncationError as exc:
        out = ("truncated", exc.partial)
    return out, bud.used


def check_mcd_layer(s: FinSet, spec: MonoidSpec) -> None:
    members = naive_members(spec.generators, s.max)
    assert common_divisors(s, spec) == naive_divisors(s, members)
    assert mcd(s, spec) == oracle_mcd(s, members)
    assert cold(common_divisors, s, spec) == cold(reference_common_divisors, s, spec)
    assert cold(mcd, s, spec) == cold(reference_mcd, s, spec)


def draw_family(data, pool: set) -> list:
    """One to three sets over `pool`, each d + v for one shared d or any set,
    so that families with and without non-singleton common divisors occur."""
    sets = finsets(pool)
    d = data.draw(sets)
    return [
        sumset(d, data.draw(sets)) if data.draw(st.booleans()) else data.draw(sets)
        for _ in range(data.draw(st.integers(1, 3)))
    ]


class TestScaledMcdLayer:
    @given(numerical_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_numerical_mcd(self, spec, data):
        check_mcd_layer(data.draw(finsets(naive_members(spec.generators, 14))), spec)

    @given(puiseux_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_small_lattice_puiseux_mcd(self, spec, data):
        check_mcd_layer(data.draw(finsets(naive_members(spec.generators, 4))), spec)

    @given(numerical_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_numerical_mcd_in_P(self, spec, data):
        fam = draw_family(data, naive_members(spec.generators, 6))
        assert cold(mcd_in_P, fam, spec) == cold(reference_mcd_in_P, fam, spec)

    @given(puiseux_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_small_lattice_puiseux_mcd_in_P(self, spec, data):
        fam = draw_family(data, naive_members(spec.generators, 2))
        assert cold(mcd_in_P, fam, spec) == cold(reference_mcd_in_P, fam, spec)


# ---------------------------------------------------------------------------
# The scaled path of the lemma-5.2 suite: the decomposition core on scaled
# sets and the residue check on ints, against the public functions


# denominators over the odd primes 3, 5 and 7, some of them squared
cap_rationals = st.builds(F, st.integers(1, 9), st.sampled_from((1, 2, 3, 5, 9, 15, 25, 45, 7)))

RESIDUE_SPECS = [
    pytest.param(expand_family("EX44", 2), id="EX44@2"),
    pytest.param(expand_family("EX44", 3), id="EX44@3"),
    pytest.param(MonoidSpec.puiseux(F(1, 3), F(1, 2)), id="puiseux(1/3,1/2)"),
]


def draw_residue_set(data, spec: MonoidSpec) -> FinSet:
    """A set of one to three sums of distinct generators, sometimes added to
    a second such set, as the lemma-5.2 suite builds its sets."""

    def one() -> FinSet:
        picks = st.lists(st.sampled_from(spec.generators), unique=True, max_size=3)
        sums = st.lists(picks.map(lambda gs: sum(gs, F(0))), min_size=1, max_size=3)
        return FinSet(tuple(data.draw(sums)))

    s = one()
    return sumset(s, one()) if data.draw(st.booleans()) else s


class TestScaledLemma52Path:
    @pytest.mark.parametrize("spec", RESIDUE_SPECS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_decomposition_core_matches_the_public_function(self, spec, data):
        s = draw_residue_set(data, spec)
        for both in (False, True):
            clear_caches()
            bud = Budget()
            want = decompositions(s, spec, bud, both_nonsingleton=both)
            clear_caches()
            core_bud = Budget()
            got = _decompositions(_encode_set(s, spec), _Query(spec, core_bud))
            # the core keeps every pair; the public filter keeps the sorted order
            assert [
                (_decode_set(u, spec), _decode_set(v, spec)) for u, v in got
                if not both or (len(u) >= 2 and len(v) >= 2)
            ] == [(d.left, d.right) for d in want]
            assert core_bud.used == bud.used

    @pytest.mark.parametrize("spec", RESIDUE_SPECS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_int_residue_check_matches_cap_constant_on(self, spec, data):
        s = draw_residue_set(data, spec)
        sides = [s] + [side for d in decompositions(s, spec) for side in (d.left, d.right)]
        # lattice points outside M have a residue too
        ns = data.draw(st.sets(st.integers(-3 * spec.scale, 3 * spec.scale), min_size=1, max_size=4))
        sides.append(FinSet(tuple(F(n, spec.scale) for n in ns)))
        for a, p in _ex44_residue_pairs(spec):
            for side in sides:
                scaled = tuple(encode(q, spec) for q in side)
                assert _cap_constant_on_scaled(scaled, p) == cap_constant_on(side, a, p, spec)

    @pytest.mark.parametrize("spec", RESIDUE_SPECS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cap_constant_on_matches_cap_residue(self, spec, data):
        # the set check agrees with the residue of each element alone, which
        # `TestResidueOnInts` checks against `residue_by_fractions`
        s = draw_residue_set(data, spec)
        sides = [s] + [side for d in decompositions(s, spec) for side in (d.left, d.right)]
        for a, p in _ex44_residue_pairs(spec):
            for side in sides:
                residues = {cap_residue(q, a, p, spec) for q in side}
                assert cap_constant_on(side, a, p, spec) == (len(residues) == 1)

    def test_int_residue_check_rejects_a_bad_pair(self):
        # the int check assumes v_p(a) = -1; 1/9 at 3 is no such pair, so
        # it is not listed, and the residue suites refuse a spec without one
        spec = MonoidSpec.puiseux(F(1, 9), F(1, 2))
        with pytest.raises(InvalidInputError, match="does not have valuation -1 at 3"):
            _check_cap_preconditions(F(1, 9), 3, spec)
        assert _ex44_residue_pairs(spec) == []

    @given(st.lists(cap_rationals, min_size=1, max_size=4, unique=True))
    def test_the_listed_pairs_are_the_odd_cap_pairs(self, gens):
        # the list, read by the residue suites' spec test, is exactly the
        # pairs (a, p) with p odd that `_check_cap_preconditions` takes
        spec = MonoidSpec.puiseux(*gens)
        want = []
        for a in spec.generators:
            for p in (3, 5, 7):
                try:
                    _check_cap_preconditions(a, p, spec)
                except InvalidInputError:
                    continue
                want.append((a, p))
        assert _ex44_residue_pairs(spec) == want
