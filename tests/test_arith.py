"""Exact-arithmetic layer: rationals, p-adic valuations, ordered pairs."""
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from finpow.arith import (
    InvalidInputError,
    QPoint2,
    _den_primes,
    is_prime,
    parse_element,
    parse_qpoint,
    parse_rational,
    primes_from,
    primes_geq,
    render_element,
    render_rational,
    vp_value,
)

rationals = st.fractions(max_denominator=10**6)


class TestRationals:
    @given(rationals)
    def test_parse_render_round_trip(self, q):
        assert parse_rational(render_rational(q)) == q

    def test_parse_plain_integer(self):
        assert parse_rational("7") == Fraction(7)

    def test_parse_rejects_garbage(self):
        for bad in ("", "1/0", "a/b", "1/2/3"):
            with pytest.raises(InvalidInputError):
                parse_rational(bad)


class TestPrimes:
    def test_is_prime_small(self):
        assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_primes_geq_five(self):
        assert primes_geq(5, 6) == [5, 7, 11, 13, 17, 19]

    def test_stream_is_increasing(self):
        it = primes_from(5)
        first = [next(it) for _ in range(10)]
        assert first == sorted(first) and all(is_prime(p) for p in first)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_den_primes_matches_naive_factoring(self, n):
        # the prime divisors among the pairs (d, n/d) with d <= sqrt(n)
        pairs = (e for d in range(1, math.isqrt(n) + 1) if n % d == 0 for e in (d, n // d))
        assert _den_primes(n) == tuple(sorted({e for e in pairs if is_prime(e)}))


class TestValuations:
    def test_vp_values(self):
        assert vp_value(5, Fraction(4, 15)) == -1
        assert vp_value(3, Fraction(9, 2)) == 2
        assert vp_value(2, Fraction(7)) == 0

    def test_vp_of_zero_is_an_error(self):
        with pytest.raises(InvalidInputError):
            vp_value(5, Fraction(0))

    def test_vp_requires_prime(self):
        with pytest.raises(InvalidInputError, match="6 is not prime"):
            vp_value(6, Fraction(1, 2))

    @given(rationals.filter(lambda q: q != 0), rationals.filter(lambda q: q != 0))
    def test_vp_is_additive_on_products(self, a, b):
        assert vp_value(7, a * b) == vp_value(7, a) + vp_value(7, b)


class TestQPoint2:
    def test_order_prioritizes_second_coordinate(self):
        assert QPoint2(Fraction(1, 5), Fraction(79, 30)) < QPoint2(
            Fraction(1, 7), Fraction(10, 3)
        )
        # ties on the second coordinate fall back to the first
        assert QPoint2(Fraction(1, 7), Fraction(10, 3)) < QPoint2(
            Fraction(1, 5), Fraction(10, 3)
        )

    def test_arithmetic(self):
        a = QPoint2(Fraction(1, 5), Fraction(10, 3))
        b = QPoint2(Fraction(0), Fraction(1, 2))
        assert a + b == QPoint2(Fraction(1, 5), Fraction(23, 6))
        assert a - a == QPoint2(Fraction(0), Fraction(0))
        assert 2 * b == QPoint2(Fraction(0), Fraction(1))

    def test_comparison_with_a_rational_is_a_type_error(self):
        p = QPoint2(Fraction(0), Fraction(1))
        for cmp in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                cmp(p, Fraction(1))
            with pytest.raises(TypeError):
                cmp(Fraction(1), p)

    def test_parse_render_round_trip(self):
        for text in ("(1/5, 10/3)", "(0, 1/2)", "(-2/35, 0)"):
            p = parse_qpoint(text)
            assert parse_qpoint(render_element(p)) == p

    def test_parse_element_dispatches(self):
        assert parse_element("3/4") == Fraction(3, 4)
        assert parse_element("(1/7, 2)") == QPoint2(Fraction(1, 7), Fraction(2))
