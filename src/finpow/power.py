"""The finitary power monoid: sumsets, divisibility, decomposition search,
atom testing, and factorization into power-monoid atoms.

Divisibility of finite sets reduces to one polynomial check: the largest
feasible cofactor of S inside T is C = {m : S + {m} subset of T}, and a
cofactor exists iff S + C = T.  The divisor search is anchored at the
minimum: if S = U + V then min U + min V = min S, so candidate U's live in
the translate {s - min V : s in S}, which keeps the subset enumeration tiny.
One generator, `_anchored_divisors`, yields every divisor U of a set with
its largest cofactor C; `decompositions` takes the V's inside C, and
`mcd.p_divisors` collects the U's.

Set arithmetic runs on scaled elements.  A public function encodes its sets
once on entry and decodes its result once on return: a rank-1 element q of
(1/L)Z, with L the lcm of the generator denominators, becomes the int q*L,
and a rank-2 point stays as it is, so one code path serves both ranks.  An
element off the generators' lattice, (1/L)Z or (1/Lx)Z x (1/Ly)Z, is outside
M, and a set holding one is rejected with InvalidInputError.  Membership
tests and divisor lists on scaled elements share the one result cache of
`backend`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import Element, InvalidInputError, QPoint2, parse_element, render_element
from .backend import (
    Budget,
    MonoidSpec,
    _lattice,
    _split_top_level,
    as_budget,
    decode,
    divisors,
    encode,
    membership,
)


@dataclass(frozen=True)
class FinSet:
    """A nonempty finite subset of the ambient monoid, kept sorted."""

    elems: tuple

    def __post_init__(self):
        try:
            elems = tuple(sorted(set(self.elems)))
        except TypeError:  # a point compared with a rational
            raise InvalidInputError("a set cannot mix points and rationals") from None
        if not elems:
            raise InvalidInputError("empty set is not an element of the power monoid")
        object.__setattr__(self, "elems", elems)

    @classmethod
    def of(cls, *elems) -> "FinSet":
        return cls(tuple(elems))

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, e) -> bool:
        return e in self.elems

    @property
    def min(self) -> Element:
        return self.elems[0]

    @property
    def max(self) -> Element:
        return self.elems[-1]

    def translate(self, d: Element) -> "FinSet":
        return FinSet(tuple(e + d for e in self.elems))

    def __lt__(self, other: "FinSet") -> bool:
        return self.elems < other.elems

    def render(self) -> str:
        return "{" + ", ".join(render_element(e) for e in self.elems) + "}"


def parse_finset(text: str) -> FinSet:
    t = text.strip()
    if not (t.startswith("{") and t.endswith("}")):
        raise InvalidInputError(f"bad set literal {text!r}")
    return FinSet(tuple(parse_element(p) for p in _split_top_level(t[1:-1])))


@dataclass(frozen=True)
class Decomposition:
    left: FinSet
    right: FinSet

    def resums_to(self, s: FinSet) -> bool:
        return sumset(self.left, self.right) == s


def singleton(e: Element) -> FinSet:
    return FinSet((e,))


def zero_set(spec: MonoidSpec) -> FinSet:
    return singleton(spec.zero)


def sumset(s: FinSet, t: FinSet) -> FinSet:
    if isinstance(s.min, QPoint2) != isinstance(t.min, QPoint2):
        raise InvalidInputError("cannot add a set of points to a set of rationals")
    return FinSet(tuple(a + b for a in s for b in t))


def sumset_all(sets: list[FinSet], spec: MonoidSpec) -> FinSet:
    acc = zero_set(spec)
    for s in sets:
        acc = sumset(acc, s)
    return acc


def _encode_set(s: FinSet, spec: MonoidSpec) -> tuple:
    """The scaled elements of s over an expanded spec, ascending.

    An element off the spec's lattice lies outside M, so a set holding one
    lies outside P_fin(M) and is rejected.
    """
    out = []
    for e in s:
        spec.check_element(e)
        n = encode(e, spec)
        # encode makes a rank-1 element off the lattice a Fraction; a point
        # is its own scaled form, so its lattice is checked here
        if isinstance(n, Fraction) or (
            isinstance(n, QPoint2) and _lattice(n, spec.scale)[0] != spec.scale
        ):
            raise InvalidInputError(
                f"{render_element(e)} is not in the monoid: it lies off the generators' lattice"
            )
        out.append(n)
    return tuple(out)


def _decode_set(elems, spec: MonoidSpec) -> FinSet:
    return FinSet(tuple(decode(n, spec) for n in elems))


def _scaled_divisors(n, spec: MonoidSpec, bud: Budget) -> list:
    """`divisors` of the scaled element n of an expanded spec, scaled."""
    return [encode(d, spec) for d in divisors(decode(n, spec), spec, bud)]


def _cofactor(u: tuple, t: tuple, members: set, is_member) -> list:
    """The largest scaled C with u + C inside t (members = set(t)).

    Candidates are exactly {x - min u : x in t}: any admissible m satisfies
    min u + m in t.
    """
    umin = u[0]
    out = []
    for x in t:
        if x < umin:
            continue
        m = x - umin
        if is_member(m) and all(e + m in members for e in u):
            out.append(m)
    return out


def _divides(u: tuple, t: tuple, members: set, is_member) -> Optional[list]:
    """The largest scaled cofactor C when u + C = t, else None."""
    c = _cofactor(u, t, members, is_member)
    if c and len({e + m for e in u for m in c}) == len(t):
        return c
    return None


def _anchored_divisors(t: tuple, spec: MonoidSpec, bud: Budget):
    """Yield (U, C) for every divisor U of the scaled set t in the power
    monoid, where C is the largest cofactor: U + C = t.

    Anchored at the minimum: min U is a divisor a of min t, so min C =
    min t - a =: mv, and every u in U has u + mv in t.  U therefore ranges
    over the subsets containing a of the members of {x - mv : x in t}; each
    subset tried spends one node.
    """
    is_member = membership(spec, bud)
    tmax, members = t[-1], set(t)
    for a in _scaled_divisors(t[0], spec, bud):
        mv = t[0] - a
        if not is_member(mv):
            continue
        # a itself heads the list: it is a divisor, hence a member
        cand = [x - mv for x in t if is_member(x - mv)]
        others = cand[1:]
        for r in range(len(others) + 1):
            for extra in itertools.combinations(others, r):
                bud.spend()
                u = (a,) + extra
                if not is_member(tmax - u[-1]):
                    continue
                c = _divides(u, t, members, is_member)
                if c is not None:
                    yield u, c


def singleton_candidates(
    s: FinSet, t: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> Optional[FinSet]:
    """The largest C with s + C subset of t, or None when no m qualifies."""
    spec = spec.expanded()
    u, w = _encode_set(s, spec), _encode_set(t, spec)
    c = _cofactor(u, w, set(w), membership(spec, as_budget(budget)))
    return _decode_set(c, spec) if c else None


def divides_in_P(
    s: FinSet, t: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> Optional[FinSet]:
    """A witness D with s + D = t, or None when s does not divide t."""
    spec = spec.expanded()
    u, w = _encode_set(s, spec), _encode_set(t, spec)
    if len(w) < len(u):
        return None
    c = _divides(u, w, set(w), membership(spec, as_budget(budget)))
    return None if c is None else _decode_set(c, spec)


def decompositions(
    s: FinSet,
    spec: MonoidSpec,
    budget: "Budget | int | None" = None,
    both_nonsingleton: bool = False,
) -> list[Decomposition]:
    """All nontrivial pairs (U, V) with U + V = s, up to swap.

    Each divisor U of s comes with its largest cofactor C, and the V's that
    go with U are the subsets of C holding min C whose sum with U covers s.
    """
    spec = spec.expanded()
    t = _encode_set(s, spec)
    zero = t[0] - t[0]
    found: set = set()
    for u, c in _anchored_divisors(t, spec, as_budget(budget)):
        head, rest = c[0], c[1:]
        base = {e + head for e in u}
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                cover = set(base)
                for m in extra:
                    cover.update(e + m for e in u)
                if len(cover) != len(t):
                    continue
                v = (head,) + extra
                if u == (zero,) or v == (zero,):
                    continue
                if both_nonsingleton and (len(u) < 2 or len(v) < 2):
                    continue
                found.add((min(u, v), max(u, v)))
    return [
        Decomposition(_decode_set(left, spec), _decode_set(right, spec))
        for left, right in sorted(found)
    ]


@dataclass(frozen=True)
class AtomCertificate:
    """Record of the exhaustive decomposition search behind a p-atom verdict."""

    subject: FinSet
    is_atom: bool
    counterexample: Optional[Decomposition]
    nodes_used: int


def is_p_atom(
    s: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> AtomCertificate:
    """True iff s is an atom of the power monoid (no nontrivial decomposition)."""
    spec = spec.expanded()
    if s == zero_set(spec):
        raise InvalidInputError("the identity {0} is not a candidate atom")
    bud = as_budget(budget)
    decs = decompositions(s, spec, bud)
    if decs:
        return AtomCertificate(s, False, decs[0], bud.used)
    return AtomCertificate(s, True, None, bud.used)


def is_indecomposable(
    s: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> bool:
    """True iff every decomposition of s has a singleton side."""
    if len(s) <= 2:
        # a sumset of two non-singletons has at least 3 elements
        return True
    decs = decompositions(s, spec, budget, both_nonsingleton=True)
    return not decs


def augment_indecomposable(s: FinSet) -> FinSet:
    """Adjoin the four-fold extreme element, which forces indecomposability."""
    if len(s) < 2:
        raise InvalidInputError("need at least two elements")
    pivot = s.min + s.max
    zero = pivot - pivot
    if pivot > zero:
        ext = s.max + s.max + s.max + s.max
    elif pivot < zero:
        ext = s.min + s.min + s.min + s.min
    else:
        raise InvalidInputError("min + max = 0 is unsupported")
    return FinSet(s.elems + (ext,))


class NotAtomic:
    """Sentinel outcome: exhaustive search proved no atom chain exists."""

    def __repr__(self) -> str:
        return "NotAtomic"


NOT_ATOMIC = NotAtomic()


def p_factorize(
    s: FinSet,
    spec: MonoidSpec,
    budget: "Budget | int | None" = None,
    _memo: Optional[dict] = None,
):
    """Factor s into certified power-monoid atoms, or prove there is no way.

    Returns a list of FinSet atoms summing to s, or NOT_ATOMIC.
    """
    spec = spec.expanded()
    bud = as_budget(budget)
    if s == zero_set(spec):
        return []
    if _memo is None:
        _memo = {}
    if s.elems in _memo:
        return _memo[s.elems]
    _memo[s.elems] = NOT_ATOMIC  # guards re-entry on cyclic translates
    decs = decompositions(s, spec, bud)
    if not decs:
        result = [s]
        _memo[s.elems] = result
        return result
    result = NOT_ATOMIC
    for dec in decs:
        left = p_factorize(dec.left, spec, bud, _memo)
        if left is NOT_ATOMIC:
            continue
        right = p_factorize(dec.right, spec, bud, _memo)
        if right is NOT_ATOMIC:
            continue
        result = sorted(left + right, key=lambda f: f.elems)
        break
    _memo[s.elems] = result
    return result
