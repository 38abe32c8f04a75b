"""The finitary power monoid: sumsets, divisibility, decomposition search,
atom testing, and factorization into power-monoid atoms.

Divisibility of finite sets reduces to one polynomial check: the largest
feasible cofactor of S inside T is C = {m : S + {m} subset of T}, and a
cofactor exists iff S + C = T.  The decomposition search is anchored at the
minimum: if S = U + V then min U + min V = min S, so candidate U's live in
the translate {s - min V : s in S}, which keeps the subset enumeration tiny.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .arith import Element, InvalidInputError, parse_element, render_element
from .backend import (
    Budget,
    MonoidSpec,
    _split_top_level,
    as_budget,
    divisors,
    member,
)


@dataclass(frozen=True)
class FinSet:
    """A nonempty finite subset of the ambient monoid, kept sorted."""

    elems: tuple

    def __post_init__(self):
        elems = tuple(sorted(set(self.elems)))
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
    return FinSet(tuple(a + b for a in s for b in t))


def sumset_all(sets: list[FinSet], spec: MonoidSpec) -> FinSet:
    acc = zero_set(spec)
    for s in sets:
        acc = sumset(acc, s)
    return acc


def singleton_candidates(
    s: FinSet, t: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> Optional[FinSet]:
    """The largest C with s + C subset of t, or None when no m qualifies.

    Candidates are exactly {u - min s : u in t}: any admissible m satisfies
    min s + m in t.
    """
    bud = as_budget(budget)
    spec = spec.expanded()
    smin, zero, members = s.min, spec.zero, set(t.elems)
    elems = []
    for u in t:
        m = u - smin
        if m < zero or not member(m, spec, bud):
            continue
        if all(e + m in members for e in s):
            elems.append(m)
    if not elems:
        return None
    return FinSet(tuple(elems))


def divides_in_P(
    s: FinSet, t: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> Optional[FinSet]:
    """A witness D with s + D = t, or None when s does not divide t."""
    if len(t) < len(s):
        return None
    c = singleton_candidates(s, t, spec, budget)
    if c is None:
        return None
    if sumset(s, c) != t:
        return None
    return c


def _cofactors(
    u: FinSet, s: FinSet, c: FinSet, required_min: Element
) -> list[FinSet]:
    """All V subset of the candidate set c with u + V = s and min V as required."""
    if required_min not in c:
        return []
    others = [m for m in c.elems if m != required_min]
    out = []
    target = set(s.elems)
    base = {e + required_min for e in u}
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            cover = set(base)
            for m in extra:
                cover.update(e + m for e in u)
            if cover == target:
                out.append(FinSet((required_min,) + extra))
    return out


def decompositions(
    s: FinSet,
    spec: MonoidSpec,
    budget: "Budget | int | None" = None,
    both_nonsingleton: bool = False,
) -> list[Decomposition]:
    """All nontrivial pairs (U, V) with U + V = s, up to swap.

    Search plan: pick a divisor a of min s as min U; then min V = min s - a,
    and every u in U satisfies u + min V in s, so U is a subset of the
    member elements of {e - min V : e in s}.
    """
    spec = spec.expanded()
    bud = as_budget(budget)
    zero = spec.zero
    seen: set = set()
    out: list[Decomposition] = []
    for a in divisors(s.min, spec, bud):
        mv = s.min - a
        if not member(mv, spec, bud):
            continue
        cand_u = []
        for e in s:
            u = e - mv
            if u >= a and member(u, spec, bud):
                cand_u.append(u)
        cand_u = sorted(set(cand_u))
        if a not in cand_u:
            continue
        others = [u for u in cand_u if u != a]
        for r in range(len(others) + 1):
            for extra in itertools.combinations(others, r):
                bud.spend()
                u_set = FinSet((a,) + extra)
                if len(u_set) > len(s):
                    continue
                if both_nonsingleton and len(u_set) < 2:
                    continue
                if not member(s.max - u_set.max, spec, bud):
                    continue
                c = singleton_candidates(u_set, s, spec, bud)
                if c is None or sumset(u_set, c) != s:
                    continue
                for v_set in _cofactors(u_set, s, c, mv):
                    if u_set.elems == (zero,) or v_set.elems == (zero,):
                        continue
                    if both_nonsingleton and len(v_set) < 2:
                        continue
                    key = tuple(sorted((u_set.elems, v_set.elems)))
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(Decomposition(*(FinSet(k) for k in key)))
    out.sort(key=lambda d: (d.left.elems, d.right.elems))
    return out


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
