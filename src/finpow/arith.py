"""Exact rational arithmetic, p-adic valuations, prime factors and streams,
and the lexicographically ordered plane points used by the rank-2 backend.

All values here are immutable and all functions are pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

Rat = Fraction


class InvalidInputError(ValueError):
    """Raised when an argument violates an operation's contract."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_from(lower: int) -> Iterator[int]:
    """All primes >= lower, in increasing order."""
    n = max(lower, 2)
    while True:
        if is_prime(n):
            yield n
        n += 1


def primes_geq(lower: int, count: int) -> list[int]:
    """The first `count` primes >= lower, in increasing order."""
    if count < 0:
        raise InvalidInputError("count must be nonnegative")
    out: list[int] = []
    for p in primes_from(lower):
        if len(out) == count:
            break
        out.append(p)
    return out


def _vp_int(p: int, n: int) -> int:
    # n != 0
    m = 0
    while n % p == 0:
        n //= p
        m += 1
    return m


def vp_value(p: int, q: Rat) -> int:
    """The exact p-adic valuation of a nonzero rational."""
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    if q == 0:
        raise InvalidInputError("0 has no finite valuation")
    return _vp_int(p, q.numerator) - _vp_int(p, q.denominator)


def _den_primes(n: int) -> tuple[int, ...]:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


@dataclass(frozen=True, order=False)
class QPoint2:
    """A point of Q^2 ordered lexicographically with priority on y, then x."""

    x: Rat
    y: Rat

    # Comparing with anything but a point is NotImplemented, so Python raises
    # TypeError as it does for any two unordered types.
    def _key(self) -> tuple[Rat, Rat]:
        return (self.y, self.x)

    def __lt__(self, other: "QPoint2") -> bool:
        return self._key() < other._key() if isinstance(other, QPoint2) else NotImplemented

    def __le__(self, other: "QPoint2") -> bool:
        return self._key() <= other._key() if isinstance(other, QPoint2) else NotImplemented

    def __gt__(self, other: "QPoint2") -> bool:
        return self._key() > other._key() if isinstance(other, QPoint2) else NotImplemented

    def __ge__(self, other: "QPoint2") -> bool:
        return self._key() >= other._key() if isinstance(other, QPoint2) else NotImplemented

    def __add__(self, other: "QPoint2") -> "QPoint2":
        return QPoint2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "QPoint2") -> "QPoint2":
        return QPoint2(self.x - other.x, self.y - other.y)

    def __mul__(self, k: int) -> "QPoint2":
        return QPoint2(k * self.x, k * self.y)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"({render_rational(self.x)}, {render_rational(self.y)})"


QPOINT_ZERO = QPoint2(Fraction(0), Fraction(0))

Element = Union[Rat, QPoint2]


# ---------------------------------------------------------------------------
# Literal syntax shared by files, CLI arguments, and reports:
#   rational: `n/d` with optional sign, or `n` meaning n/1
#   plane point: `(x, y)`

def parse_rational(text: str) -> Rat:
    t = text.strip()
    try:
        if "/" in t:
            n, _, d = t.partition("/")
            return Fraction(int(n.strip()), int(d.strip()))
        return Fraction(int(t))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad rational literal {text!r}") from exc


def render_rational(q: Rat) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_qpoint(text: str) -> QPoint2:
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise InvalidInputError(f"bad point literal {text!r}")
    parts = t[1:-1].split(",")
    if len(parts) != 2:
        raise InvalidInputError(f"bad point literal {text!r}")
    return QPoint2(parse_rational(parts[0]), parse_rational(parts[1]))


def parse_element(text: str) -> Element:
    t = text.strip()
    if t.startswith("("):
        return parse_qpoint(t)
    return parse_rational(t)


def render_element(e: Element) -> str:
    if isinstance(e, QPoint2):
        return repr(e)
    return render_rational(e)
