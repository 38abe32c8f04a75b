"""Maximal common divisors, the dyadic witness ascent, and residue invariants."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finpow.arith import InvalidInputError, vp_value
from finpow.backend import (
    MonoidSpec,
    TruncationError,
    clear_caches,
    expand_family,
)
from finpow.mcd import (
    McdWitnessStep,
    ResidueClass,
    _residue,
    cap_constant_on,
    cap_residue,
    chain_divisors,
    common_divisors,
    ex44_chain,
    ex44_witness,
    is_mcd_monoid_sample,
    leo4_no_atom_divides,
    mcd,
    mcd_in_P,
    p_divisors,
)
from finpow.power import FinSet, singleton, sumset, sumset_all, zero_set

N23 = MonoidSpec.numerical(2, 3)
DYADIC3 = MonoidSpec.puiseux(*(F(1, 2**n) for n in range(1, 4)))


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

    def test_good_pair_is_remembered_per_spec(self):
        clear_caches()
        s = FinSet((F(1, 5),))
        assert cap_constant_on(s, F(1, 5), 5, MonoidSpec.puiseux(F(1, 5), F(1, 2)))
        with pytest.raises(InvalidInputError, match="divides the denominator"):
            cap_constant_on(s, F(1, 5), 5, MonoidSpec.puiseux(F(1, 5), F(2, 5)))

    def test_constant_on_set(self):
        assert cap_constant_on(FinSet((F(4, 15), F(4, 15) + F(5))), F(4, 15), 5, self.SPEC)
        assert not cap_constant_on(FinSet((F(4, 15), F(4, 3))), F(4, 15), 5, self.SPEC)


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


class TestIsMcdMonoidSample:
    def test_numerical_is_mcd_monoid(self):
        rep = is_mcd_monoid_sample(N23, 2, bound=F(12))
        assert rep.ok is True and rep.status == "mcd-monoid"

    def test_ex44_sample_is_inconclusive_with_chain(self):
        spec = MonoidSpec.of_family("EX44", 3)
        rep = is_mcd_monoid_sample(spec, 2, sample=FinSet((F(1), F(4, 3))))
        assert rep.ok is None
        assert rep.status == "no-mcd-within-truncation"
        assert len(rep.chain) >= 2

    def test_requires_bound_or_sample(self):
        with pytest.raises(InvalidInputError):
            is_mcd_monoid_sample(N23, 2)


class TestLeo4:
    def test_false_on_dyadic_pair(self):
        # {0, 1/2} is itself a power-monoid atom dividing the target, so the
        # no-atom-divisor hypothesis fails.
        assert leo4_no_atom_divides(FinSet((F(0), F(1, 2))), DYADIC3) is False

    def test_false_on_numerical(self):
        assert leo4_no_atom_divides(FinSet((2, 3)), N23) is False

    def test_false_on_singleton(self):
        assert leo4_no_atom_divides(singleton(F(1, 2)), DYADIC3) is False

    def test_inconclusive_on_tiny_budget(self):
        assert leo4_no_atom_divides(FinSet((F(0), F(1, 2))), DYADIC3, budget=1) is None

    def test_rank2_rejected(self):
        from finpow.arith import QPoint2

        g = QPoint2(F(0), F(1, 2))
        spec = MonoidSpec.rank2(g)
        with pytest.raises(InvalidInputError):
            leo4_no_atom_divides(FinSet((g,)), spec)


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
