"""The finitary power monoid: sumsets, divisibility, decomposition search,
atom testing, and factorization into power-monoid atoms.

Divisibility of finite sets reduces to one polynomial check: the largest
feasible cofactor of S inside T is C = {m : S + {m} subset of T}, and a
cofactor exists iff S + C = T.  The divisor search is anchored at the
minimum: if S = U + V then min U + min V = min S, so candidate U's live in
the translate {s - min V : s in S}, which keeps the subset enumeration tiny.
One enumeration, `_anchored_divisors`, lists every divisor U of a set with
its largest cofactor C; `decompositions` takes the V's inside C, and
`mcd.p_divisors` collects the U's.  It walks the subsets once per anchor
membership pattern, not once per anchor, yet charges each anchor one node
per subset, so node counts are those of a walk per anchor, and a budget
that runs out stops at limit + 1.  Each anchor makes its membership tests
in one pass, reading cached verdicts directly.  `decompositions` builds
each unordered pair {U, V} once, from its lesser anchor: if min U <=
min V, then V lies in U's largest cofactor and holds its minimum, so the
pair is among U's; the anchors a > min S - a add none and are skipped.
So `decompositions` asks `_anchored_divisors` for a half run, in which
those anchors make their tests and charges but translate no divisor,
unless the list is to be kept: a kept list is always whole.

`divides_in_P`, `decompositions` and `p_factorize` are each one encode, a
scaled core (`_divides_in_P`, `_decompositions`, `_p_factor`) and one
decode.  `_sumset` adds two ascending tuples of elements, scaled or not, so
`sumset`, `sumset_all` (through `_sumset_all`) and `mcd_in_P`'s strip step
share it with no encoding.  The rank-1 set suites call these cores on scaled
sets and decode a set only to render a failure; lemma-5.2 checks residues
on ints through `mcd._cap_constant_on_scaled`.

Cofactors are computed by one mask kernel, `_cofactors`, which also serves
`divides_in_P` and `singleton_candidates`.  For the sets U with minimum a
it tests the candidates m in {x - a : x in T} for membership once, and
gives each candidate element e an int whose bit j says that e + m_j lies in
T.  C(U) is then the AND of those ints over U, and U + C = T holds iff the
OR of the index bits in T of the sums U + m, m in C, is the full mask.

Set arithmetic runs on scaled elements, ints for both ranks.  A public
function encodes its sets once on entry and decodes its result once on
return: a rank-1 element q of (1/L)Z, with L the lcm of the generator
denominators, becomes the int q*L, and a rank-2 point with coordinates
(y, x) at the spec's scale the packed int y*2**64 + x, whose sums and order
are those of the points, so one code path serves both ranks.  An element
off the generators' lattice, (1/L)Z or (1/Lx)Z x (1/Ly)Z, has no int
form: it is outside M, and a set holding one is rejected with
InvalidInputError; so is a set
holding a lattice point outside M, by `_check_members`, wherever the divisor
enumeration runs and in `divides_in_P` and `singleton_candidates`.
Results are decoded through a constructor that trusts the scaled order, as
decoding is monotone; `sumset` builds its sorted, distinct sums through it
too.  Each public function builds one `backend._Query` and passes it to the
scaled cores.  Membership tests, divisor lists and set divisor enumerations
share the one result cache of `backend`, read by scaled element through
`_Query.is_member` and `_scaled_divisors`; a kept enumeration is replayed
at the node cost of an uncached rerun, so caching moves no count.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .arith import Element, InvalidInputError, QPoint2, parse_element, render_element
from .backend import (
    Budget,
    MonoidSpec,
    _Query,
    _split_top_level,
    as_budget,
    decode,
    divisors,
    encode,
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
    def _ascending(cls, elems: tuple) -> "FinSet":
        """The FinSet of a nonempty tuple already ascending and distinct."""
        s = object.__new__(cls)
        object.__setattr__(s, "elems", elems)
        return s

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


def singleton(e: Element) -> FinSet:
    return FinSet((e,))


def zero_set(spec: MonoidSpec) -> FinSet:
    return singleton(spec.zero)


def _sumset(a: tuple, b: tuple) -> tuple:
    """The sumset of two ascending tuples of elements of one kind, ascending;
    the elements may be scaled or not."""
    return tuple(sorted({x + y for x in a for y in b}))


def _sumset_all(sets, zero) -> tuple:
    """The sumset of the ascending tuples in sets, from the identity (zero,)."""
    acc = (zero,)
    for s in sets:
        acc = _sumset(acc, s)
    return acc


def sumset(s: FinSet, t: FinSet) -> FinSet:
    if isinstance(s.min, QPoint2) != isinstance(t.min, QPoint2):
        raise InvalidInputError("cannot add a set of points to a set of rationals")
    return FinSet._ascending(_sumset(s.elems, t.elems))


def sumset_all(sets: list[FinSet], spec: MonoidSpec) -> FinSet:
    if any(isinstance(s.min, QPoint2) != spec.is_rank2 for s in sets):
        raise InvalidInputError("cannot add a set of points to a set of rationals")
    return FinSet._ascending(_sumset_all([s.elems for s in sets], spec.zero))


def _encode_set(s: FinSet, spec: MonoidSpec) -> tuple:
    """The scaled elements of s over a spec, ascending.

    An element off the spec's lattice lies outside M, so a set holding one
    lies outside P_fin(M) and is rejected.
    """
    out = []
    for e in s:
        spec.check_element(e)
        n = encode(e, spec)
        if n is None:
            raise InvalidInputError(
                f"{render_element(e)} is not in the monoid: it lies off the generators' lattice"
            )
        out.append(n)
    return tuple(out)


def _decode_set(elems, spec: MonoidSpec) -> FinSet:
    """The FinSet of an ascending tuple of distinct scaled elements.

    Decoding is monotone, so the result is ascending and distinct too and is
    taken as it is, without sorting or hashing.
    """
    return FinSet._ascending(tuple([decode(n, spec) for n in elems]))


def _check_members(t: tuple, q: _Query) -> None:
    """Raise unless every scaled element of t is in the query's monoid."""
    for x in t:
        if not q.is_member(x):
            raise InvalidInputError(f"{render_element(decode(x, q.spec))} is not in the monoid")


def _scaled_divisors(n, q: _Query) -> tuple:
    """The scaled divisors of the scaled element n of q's spec, as the result
    cache holds them.  A miss fills the cache through the public `divisors`,
    so the traced per-layer view counts the divisor work of this layer and
    of `mcd` under `backend.divisors`."""
    cache = q.entry.divisors
    if n not in cache:
        divisors(decode(n, q.spec), q.spec, q.budget)
    return cache[n]


def _cofactors(t: tuple, a, es, is_member):
    """The cofactor kernel of the scaled set t for sets U with minimum a and
    elements in es: a function U -> (C, covers, union).

    C is the largest scaled cofactor {m in M : U + m inside t}, ascending,
    covers[i] the mask of the indices in t of U + C[i], and union the OR of
    the covers, so U divides t iff C is nonempty and union is the full mask.
    Its candidates m are the members of {x - a : x in t}, tested once here;
    bit j of fits[e] is set iff e + ms[j] lies in t, and C(U) is the AND of
    the fits over U.
    """
    ms = [x - a for x in t if x >= a and is_member(x - a)]
    index = {x: 1 << i for i, x in enumerate(t)}
    hits, fits = {}, {}
    for e in es:
        row = hits[e] = [index.get(e + m, 0) for m in ms]
        fits[e] = sum(1 << j for j, bit in enumerate(row) if bit)

    def cofactor(u: tuple) -> tuple[list, list, int]:
        common = -1
        for e in u:
            common &= fits[e]
        c, covers, union = [], [], 0
        if not common:
            return c, covers, union
        rows = [hits[e] for e in u]
        for j, m in enumerate(ms):
            if common >> j & 1:
                cover = 0
                for row in rows:
                    cover |= row[j]
                c.append(m)
                covers.append(cover)
                union |= cover
        return c, covers, union

    return cofactor


def _relative_divisors(rel: tuple, us: list, outs: int) -> list:
    """(U, C, covers) for every divisor U of the set t = min t + rel, with
    its largest cofactor C, for the anchors a whose pattern is (us, outs):
    a + d is in M for the d in us, and min t - a + rel[i] for the i whose
    bit is set in the mask outs.  U and C are given by the offsets d of
    their elements a + d and min t - a + d.  Subsets come in the order a
    walk over them takes: by size, then lexicographically."""
    cs = {d for i, d in enumerate(rel) if outs >> i & 1}
    cofactor = _cofactors(rel, rel[0], us, cs.__contains__)
    full, others, out = (1 << len(rel)) - 1, us[1:], []
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            u = (us[0],) + extra
            c, covers, union = cofactor(u)
            if union == full:
                out.append((u, c, tuple(covers)))
    return out


def _anchored_divisors(t: tuple, q: _Query, half=False) -> list:
    """The list of (U, C, covers) for every divisor U of the scaled set t in
    the power monoid, where C is the largest cofactor, U + C = t, and
    covers[i] is the mask of the indices in t of U + C[i].

    Anchored at the minimum: min U is a divisor a of min t, so min C =
    min t - a =: mv, which is in M as a divides min t, and every u in U has
    u + mv in t.  With rel = t - min t, U - a ranges over the subsets
    holding 0 of A = {d in rel : a + d in M} and C - mv lies in
    V = {d in rel : mv + d in M}; translation keeps the covers, so the
    subsets are walked once per pattern (A, V), in a dict local to the call,
    and each anchor translates the result.  The V tests are made only if
    some tail test tmax - x, x in a + A, passes: if U + C = t, then
    tmax - max U = max C is in M.  Each anchor makes its tests in one pass:
    the A tests in ascending order, every tail test, then the V tests; it
    reads a cached verdict straight from the result cache, searches only on
    a miss, and sets the bits of the pattern key, the masks of A and V over
    the indices of rel, as it goes.  The anchors ascend, so the list is
    ordered by min U, which `_decompositions` relies on.

    With `half`, a run whose list will not be kept (t not yet marked) lists
    only the anchors a <= mv, the ones `_decompositions` reads: a later
    anchor still makes every test and its charge, but skips the pattern
    lookup and the translation.  A run whose list will be kept translates
    every anchor, so a kept list is whole whoever asked for it.

    Each anchor spends 2^(|A| - 1) nodes, one per subset it stands for, in
    one charge, and makes the membership tests a walk over its subsets made,
    so node counts are that walk's, and a budget that runs out still stops
    at limit + 1.  An element of t outside M is rejected first; the
    membership tests that makes are ones the anchor a = min t makes anyway.

    A completed enumeration marks t in the result cache; the next finds every
    test cached, so it spends what an uncached rerun would, and is kept with
    that count, which later requests replay.  The kept list is shared.  Only
    a set requested twice is kept: keeping every first enumeration raised
    the peak RSS of `verify --suite all` from 24.0 to 30.1 MB to save its
    361 reruns, with no faster run (one run each, on a 2-core VM).
    """
    memo, bud, is_member = q.entry.enumerations, q.budget, q.is_member
    kept = memo.get(t)
    if kept is not None:
        bud.spend(kept[1])
        return kept[0]
    # only a list that will be kept must be whole
    half = half and t not in memo
    before = bud.used
    _check_members(t, q)
    # read cached verdicts directly: most tests are hits, and a miss searches
    verdict = q.entry.verdicts.get
    t0, tmax = t[0], t[-1]
    rel = tuple(x - t0 for x in t)
    patterns: dict = {}
    out = []
    for a in _scaled_divisors(t0, q):
        mv = t0 - a
        # a itself heads the list: it is a divisor, hence a member
        us, key = [], 0
        for i, d in enumerate(rel):
            ok = verdict(a + d)
            if ok or ok is None and is_member(a + d):
                us.append(d)
                key |= 1 << i
        # every tail test is made, as a walk over U made it
        top, tail = tmax - a, False
        for d in us:
            ok = verdict(top - d)
            if ok or ok is None and is_member(top - d):
                tail = True
        bud.spend(1 << (len(us) - 1))
        if not tail:
            continue
        outs = 0
        for i, d in enumerate(rel):
            ok = verdict(mv + d)
            if ok or ok is None and is_member(mv + d):
                outs |= 1 << i
        if half and a > mv:
            continue
        # one int as the key, the mask of us above the outs mask: a pair of
        # tuples per anchor, freed by the thousand onto the interpreter's
        # tuple free lists, raised peak RSS
        key = key << len(t) | outs
        found = patterns.get(key)
        if found is None:
            found = patterns[key] = _relative_divisors(rel, us, outs)
        for u, c, covers in found:
            out.append((tuple([a + d for d in u]), [mv + d for d in c], covers))
    memo[t] = None if t not in memo else (out, bud.used - before)
    return out


def singleton_candidates(
    s: FinSet, t: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> Optional[FinSet]:
    """The largest C with s + C subset of t, or None when no m qualifies.
    A set holding an element outside M is rejected."""
    u, w = _encode_set(s, spec), _encode_set(t, spec)
    q = _Query(spec, as_budget(budget))
    _check_members(u + w, q)
    c, _, _ = _cofactors(w, u[0], u, q.is_member)(u)
    return _decode_set(c, spec) if c else None


def _divides_in_P(u: tuple, w: tuple, q: _Query) -> Optional[tuple]:
    """`divides_in_P` of the scaled sets u and w: the largest scaled cofactor
    C with u + C = w, or None when u does not divide w."""
    if len(w) < len(u):
        return None
    c, _, union = _cofactors(w, u[0], u, q.is_member)(u)
    return tuple(c) if union == (1 << len(w)) - 1 else None


def divides_in_P(
    s: FinSet, t: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> Optional[FinSet]:
    """A witness D with s + D = t, or None when s does not divide t.  A set
    holding an element outside M is rejected."""
    u, w = _encode_set(s, spec), _encode_set(t, spec)
    q = _Query(spec, as_budget(budget))
    _check_members(u + w, q)
    c = _divides_in_P(u, w, q)
    return None if c is None else _decode_set(c, spec)


def _decompositions(t: tuple, q: _Query, both_nonsingleton=False) -> list:
    """`decompositions` of the scaled set t of q's spec, as sorted
    scaled pairs (left, right).  Each divisor U of t comes with its largest
    cofactor C, and the V's that go with U are the subsets of C holding min C
    whose covers OR to all of t; which subsets those are depends on the
    covers alone, so they are listed once per covers tuple.

    Each pair is built once, from its lesser anchor.  If U + V = t with
    min U <= min V, then U is a divisor with anchor a = min U, and V, a
    subset of U's largest cofactor holding its minimum min t - a, is among
    U's V's; so the divisors with a > min t - a add no pair, and as the
    anchors ascend, the walk stops at the first of them, and a half run of
    `_anchored_divisors`, which translates none of them, is enough unless
    the list is to be kept.  A divisor with a < min t - a gives (U, V) with
    U < V, as min U < min V; one with a = min t - a gives both (U, V) and
    (V, U), and only U <= V is kept."""
    zero, full = t[0] - t[0], (1 << len(t)) - 1
    pairs: list = []
    picks: dict = {}
    for u, c, covers in _anchored_divisors(t, q, half=True):
        if u[0] > c[0]:
            break
        if u == (zero,) or (both_nonsingleton and len(u) < 2):
            continue
        extras = picks.get(covers)
        if extras is None:
            extras = picks[covers] = []
            for r in range(len(c)):
                for extra in itertools.combinations(range(1, len(c)), r):
                    union = covers[0]
                    for i in extra:
                        union |= covers[i]
                    if union == full:
                        extras.append(extra)
        middle = u[0] == c[0]
        for extra in extras:
            v = (c[0],) + tuple([c[i] for i in extra])
            if v == (zero,) or (both_nonsingleton and len(v) < 2):
                continue
            if not middle or u <= v:
                pairs.append((u, v))
    pairs.sort()
    return pairs


def decompositions(
    s: FinSet,
    spec: MonoidSpec,
    budget: "Budget | int | None" = None,
    both_nonsingleton: bool = False,
) -> list[Decomposition]:
    """All nontrivial pairs (U, V) with U + V = s, up to swap."""
    t = _encode_set(s, spec)
    pairs = _decompositions(t, _Query(spec, as_budget(budget)), both_nonsingleton)
    return [Decomposition(_decode_set(u, spec), _decode_set(v, spec)) for u, v in pairs]


@dataclass(frozen=True)
class AtomCertificate:
    """Record of the exhaustive decomposition search behind a p-atom verdict."""

    subject: FinSet
    is_atom: bool
    counterexample: Optional[Decomposition]


def is_p_atom(
    s: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> AtomCertificate:
    """True iff s is an atom of the power monoid (no nontrivial decomposition)."""
    if s == zero_set(spec):
        raise InvalidInputError("the identity {0} is not a candidate atom")
    decs = decompositions(s, spec, as_budget(budget))
    return AtomCertificate(s, not decs, decs[0] if decs else None)


def is_indecomposable(
    s: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> bool:
    """True iff every decomposition of s has a singleton side."""
    return not decompositions(s, spec, budget, both_nonsingleton=True)


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


def p_factorize(s: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None):
    """Factor s into certified power-monoid atoms, or prove there is no way.

    Returns a list of FinSet atoms summing to s, or NOT_ATOMIC.  No side of
    a decomposition is {0}, so the recursion never meets the zero set.
    """
    if s == zero_set(spec):
        return []
    parts = _p_factor(_encode_set(s, spec), _Query(spec, as_budget(budget)), {})
    return parts if parts is NOT_ATOMIC else [_decode_set(p, spec) for p in parts]


def _p_factor(t: tuple, q: _Query, memo: dict):
    """`p_factorize` of the scaled set t other than the zero set: its atoms
    as ascending scaled sets, or NOT_ATOMIC, with the verdicts of the sets
    met so far in memo."""
    if t in memo:
        return memo[t]
    memo[t] = NOT_ATOMIC  # guards re-entry on cyclic translates
    decs = _decompositions(t, q)
    result = NOT_ATOMIC if decs else [t]
    for u, v in decs:
        left = _p_factor(u, q, memo)
        if left is NOT_ATOMIC:
            continue
        right = _p_factor(v, q, memo)
        if right is NOT_ATOMIC:
            continue
        # scaled sets sort as their decoded sets do
        result = sorted(left + right)
        break
    memo[t] = result
    return result
