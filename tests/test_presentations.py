"""One monoid under two presentations: ⟨g…⟩ and its multiple ⟨c·g…⟩, whose
members are c times those of ⟨g…⟩, give every answer scaled by c.  Only the
answers are compared: node counts may differ between presentations."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from finpow.backend import MonoidSpec, divisors, factorizations, member
from finpow.mcd import mcd, p_divisors
from finpow.power import FinSet, decompositions, sumset
from oracles import finsets, naive_members, numerical_specs, puiseux_specs


def times(c: int, s: FinSet) -> FinSet:
    return FinSet(tuple(c * e for e in s))


def check_presentations(spec: MonoidSpec, c: int, top, data) -> None:
    big = MonoidSpec(spec.kind, tuple(c * g for g in spec.generators))
    x = Fraction(data.draw(st.integers(0, 30)), spec.scale)
    assert member(c * x, big) == member(x, spec)
    assert divisors(c * x, big) == [c * d for d in divisors(x, spec)]
    assert [f.parts for f in factorizations(c * x, big)] == [
        tuple((c * a, k) for a, k in f.parts) for f in factorizations(x, spec)
    ]
    small = finsets(naive_members(spec.generators, top))
    # sums of two sets, so that some sets decompose
    s = data.draw(st.one_of(small, st.tuples(small, small).map(lambda p: sumset(*p))))
    assert [(d.left, d.right) for d in decompositions(times(c, s), big)] == [
        (times(c, d.left), times(c, d.right)) for d in decompositions(s, spec)
    ]
    assert p_divisors(times(c, s), big) == [times(c, u) for u in p_divisors(s, spec)]
    assert mcd(times(c, s), big) == [c * d for d in mcd(s, spec)]


class TestMultiplePresentation:
    @given(numerical_specs, st.sampled_from((2, 3)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_numerical(self, spec, c, data):
        check_presentations(spec, c, 8, data)

    @given(puiseux_specs, st.sampled_from((2, 3)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_small_lattice_puiseux(self, spec, c, data):
        check_presentations(spec, c, 2, data)
