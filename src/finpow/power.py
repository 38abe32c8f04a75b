"""The finitary power monoid: sumsets, divisibility, decomposition search,
atom testing, and factorization into power-monoid atoms.

Divisibility of finite sets reduces to one polynomial check: the largest
feasible cofactor of S inside T is C = {m : S + {m} subset of T}, and a
cofactor exists iff S + C = T.  The divisor search is anchored at the
minimum: if S = U + V then min U + min V = min S, so candidate U's live in
the translate {s - min V : s in S}, which keeps the subset enumeration tiny.
One enumeration, `_anchored_divisors`, maps every divisor U of a set to
its largest cofactor C; `decompositions` takes the V's inside C,
`mcd.p_divisors` collects the U's, and `mcd.mcd_in_P` strips a U by
reading its C.  It walks the subsets once per anchor membership pattern,
not once per anchor, yet charges each anchor one node per subset, so node
counts are those of a walk per anchor, and a budget that runs out stops
at limit + 1.  Each anchor makes its membership tests in one pass,
reading cached verdicts directly; anchor a's V tests are the A tests of
its partner min S - a, so the two share one mask, and the A list of each
mask is built once per call.  `decompositions` builds each unordered
pair {U, V} once, from its lesser anchor: if min U <= min V, then V lies
in U's largest cofactor and holds its minimum, so the pair is among U's;
the anchors a > min S - a add none.  A set not yet kept is decomposed in
one shot: `_anchored_divisors` hands `_decompositions` the pattern walks
of the anchors a <= min S - a, and the pairs are translated from them
with no divisor map built.  A map that will be kept is always built
whole.  With `both_nonsingleton`, `decompositions` filters the one list
its core builds.

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
`_Query.is_member` and `_scaled_divisors`; a kept enumeration is one
record [map, cost, pairs], replayed at the node cost of an uncached
rerun, and its pairs are read only after that replay, so caching moves
no count.  The cache also keeps the pattern walks of `_anchored_divisors`
and the V lists of `_decompositions` across calls; they charge nothing,
so keeping them moves no count either.  Only this module reads or writes
the kept enumerations, walks and V lists.
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
    decode_all,
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
    return FinSet._ascending(tuple(decode_all(elems, spec)))


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


def _anchored_divisors(t: tuple, q: _Query, walks: Optional[list] = None) -> Optional[dict]:
    """The map {U: (C, covers)} over every divisor U of the scaled set t in
    the power monoid, where C is the largest cofactor, U + C = t, and
    covers[i] is the mask of the indices in t of U + C[i].

    Anchored at the minimum: min U is a divisor a of min t, so min C =
    min t - a =: mv, which is in M as a divides min t, and every u in U has
    u + mv in t.  With rel = t - min t, U - a ranges over the subsets
    holding 0 of A = {d in rel : a + d in M} and C - mv lies in
    V = {d in rel : mv + d in M}; translation keeps the covers, so the
    subsets are walked once per pattern (A, V) and each anchor translates
    the result.  A walk depends on rel and the pattern alone and charges
    nothing, so the walks are kept in the spec's result cache, under rel
    and then the pattern key, and every set with t's offsets, any
    translate of t among them, reads them in later calls too.  The V tests
    are made only if some tail test tmax - x, x in a + A, passes: if
    U + C = t, then tmax - max U = max C is in M.  Each anchor asks its
    questions in one pass: the A tests in ascending order, every tail
    test, then the V tests; it reads a cached verdict straight from the
    result cache, searches only on a miss, and sets the bits of the
    pattern key, the masks of A and V over the indices of rel, as it goes.
    The anchors ascend, so the map's keys are inserted in order of min U,
    which `_decompositions` relies on.

    Anchor a's V tests are the A tests of anchor mv, which divides min t
    too, so the two share one mask per call: an anchor a > mv reads the
    mask anchor mv made, and an anchor a < mv that makes its V tests
    leaves anchor mv no A test to make.  The tests skipped are cached
    verdicts, so the result cache is asked what, and in the order, it
    would be if every anchor made its own.  The A list of each mask is
    built once per call, as patterns repeat across anchors.

    Given a list `walks`, a run whose map will not be kept (t not yet
    marked) is one-shot: it appends (a, mv, walk) for each anchor a <= mv
    whose tail test passes, where walk is the kept list of (U - a, C - mv,
    covers) of its pattern, translates nothing and returns None.  These are
    the anchors `_decompositions` reads; a later anchor still makes every
    test and its charge.  A run whose map will be kept builds the whole
    map, whoever asked for it.

    Each anchor spends 2^(|A| - 1) nodes, one per subset it stands for, in
    one charge, and makes the membership tests a walk over its subsets made,
    so node counts are that walk's, and a budget that runs out still stops
    at limit + 1.  An element of t outside M is rejected first; the
    membership tests that makes are ones the anchor a = min t makes anyway.

    A completed enumeration marks t in the result cache; the next finds every
    test cached, so it spends what an uncached rerun would, and is kept as
    the record [map, that count, None], which later requests replay; the
    None is the slot `_decompositions` fills with the pairs.  Every reader
    of a set's divisors shares the kept map: `p_divisors` and
    `_p_furstenberg_divisor` read its keys, `_decompositions` its items and
    `mcd._mcd_in_P` its cofactors.  Only a set requested twice is kept:
    keeping every first enumeration raised the peak RSS of `verify --suite
    all` from 24.0 to 30.1 MB to save its 361 reruns, with no faster run
    (one run each, on a 2-core VM).
    """
    memo, bud = q.entry.enumerations, q.budget
    kept = memo.get(t)
    if kept is not None:
        bud.spend(kept[1])  # nodes: a kept enumeration's recorded count
        return kept[0]
    if t in memo:
        walks = None  # this map will be kept, so it is built whole
    before = bud.used
    _check_members(t, q)
    # read cached verdicts directly: most tests are hits, and a miss searches
    verdict, is_member = q.entry.verdicts.get, q.is_member
    t0, tmax, n = t[0], t[-1], len(t)
    rel = tuple(x - t0 for x in t)
    bits = [(1 << i, d) for i, d in enumerate(rel)]
    patterns = q.entry.walks.setdefault(rel, {})
    # the A masks by anchor, and the A list of each mask met in this call
    masks: dict = {}
    lists: dict = {}
    out: dict = {}
    for a in _scaled_divisors(t0, q):
        mv = t0 - a
        key = masks.get(a)
        if key is None:
            # a itself heads the list: it is a divisor, hence a member
            key = 0
            for bit, d in bits:
                ok = verdict(a + d)
                if ok or ok is None and is_member(a + d):
                    key |= bit
            masks[a] = key
        us = lists.get(key)
        if us is None:
            us = lists[key] = [d for bit, d in bits if key & bit]
        # every tail test is made, as a walk over U made it
        top, tail = tmax - a, False
        for d in us:
            ok = verdict(top - d)
            if ok or ok is None and is_member(top - d):
                tail = True
        bud.spend(1 << (len(us) - 1))  # nodes: 2^(|A| - 1) subsets of an anchor
        if not tail:
            continue
        if a < mv:
            outs = 0
            for bit, d in bits:
                ok = verdict(mv + d)
                if ok or ok is None and is_member(mv + d):
                    outs |= bit
            masks[mv] = outs
        elif walks is not None and a > mv:
            continue
        else:
            outs = masks[mv]
        # one int as the key, the mask of us above the outs mask: a pair of
        # tuples per anchor, freed by the thousand onto the interpreter's
        # tuple free lists, raised peak RSS
        pattern = key << n | outs
        found = patterns.get(pattern)
        if found is None:
            found = patterns[pattern] = _relative_divisors(rel, us, outs)
        if walks is not None:
            walks.append((a, mv, found))
            continue
        for u, c, covers in found:
            out[tuple([a + d for d in u])] = [mv + d for d in c], covers
    if t not in memo:
        memo[t] = None
        return out if walks is None else None
    memo[t] = [out, bud.used - before, None]
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


def _v_picks(covers: tuple, full: int, picks: dict) -> list:
    """The V's of a divisor whose cofactor has these covers: each as the
    tuple of the indices i >= 1 of C it holds besides min C, such that the
    covers of min C and of those indices OR to the full mask.  They are
    listed once per covers tuple and kept in `picks`, the spec's result
    cache's, across calls and sets.  The covers tuple is a sound key for
    any set: a divisor's covers OR to its own set's full mask, so the tuple
    fixes the mask that the V's must cover."""
    extras = picks.get(covers)
    if extras is None:
        extras = []
        for r in range(len(covers)):
            for extra in itertools.combinations(range(1, len(covers)), r):
                union = covers[0]
                for i in extra:
                    union |= covers[i]
                if union == full:
                    extras.append(extra)
        # kept only once whole, so an interrupted listing leaves none
        picks[covers] = extras
    return extras


def _decompositions(t: tuple, q: _Query) -> list:
    """`decompositions` of the scaled set t of q's spec, as sorted
    scaled pairs (left, right).  Each divisor U of t comes with its largest
    cofactor C, and the V's that go with U are the subsets of C holding min C
    whose covers OR to all of t, as `_v_picks` lists them.  Listing them
    charges nothing, so a kept list moves no count.

    Each pair is built once, from its lesser anchor.  If U + V = t with
    min U <= min V, then U is a divisor with anchor a = min U, and V, a
    subset of U's largest cofactor holding its minimum mv = min t - a, is
    among U's V's; so the divisors with a > mv add no pair.  A divisor with
    a < mv gives (U, V) with U < V, as min U < min V; one with a = mv gives
    both (U, V) and (V, U), and only U <= V is kept.  Neither side is {0}:
    U = {0} is skipped, and V = {0} comes only with mv = 0 <= a, so with
    U = t > {0}, which the U <= V test drops.

    A set not yet kept is decomposed in one shot: `_anchored_divisors`
    hands over the walks of the anchors a <= mv, and each pair is built
    straight from them, U as a plus U's offsets and V as mv plus the picked
    offsets of C, with no divisor map.  Once t's enumeration is kept, the
    pairs are read from its map, as the anchors ascend up to the first
    a > mv, and kept as the third item of its record: the call to
    `_anchored_divisors` replays the map at its cost, which is what
    recomputing the pairs from it spends, and the list is shared."""
    walks: list = []
    divs = _anchored_divisors(t, q, walks)
    kept = None if divs is None else q.entry.enumerations[t]
    if kept is not None and kept[2] is not None:
        return kept[2]
    zero, full, picks = t[0] - t[0], (1 << len(t)) - 1, q.entry.picks
    pairs: list = []
    if divs is None:
        for a, mv, found in walks:
            for offsets, c, covers in found:
                u = tuple([a + d for d in offsets])
                if u == (zero,):
                    continue
                for extra in _v_picks(covers, full, picks):
                    v = (mv,) + tuple([mv + c[i] for i in extra])
                    if a < mv or u <= v:
                        pairs.append((u, v))
    else:
        for u, (c, covers) in divs.items():
            if u[0] > c[0]:
                break
            if u == (zero,):
                continue
            for extra in _v_picks(covers, full, picks):
                v = (c[0],) + tuple([c[i] for i in extra])
                if u[0] < c[0] or u <= v:
                    pairs.append((u, v))
    pairs.sort()
    if kept is not None:
        kept[2] = pairs
    return pairs


def decompositions(
    s: FinSet,
    spec: MonoidSpec,
    budget: "Budget | int | None" = None,
    both_nonsingleton: bool = False,
) -> list[Decomposition]:
    """All nontrivial pairs (U, V) with U + V = s, up to swap; with
    `both_nonsingleton`, only those whose sides each have 2 elements or more."""
    pairs = _decompositions(_encode_set(s, spec), _Query(spec, as_budget(budget)))
    return [
        Decomposition(_decode_set(u, spec), _decode_set(v, spec)) for u, v in pairs
        if not both_nonsingleton or min(len(u), len(v)) > 1
    ]


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
    """Sentinel of a set with no atom factorization, which `p_factorize`
    never returns, as every spec is finitely generated; thm-4.5's
    `p-factorization-exists` check still tests a core's result against it."""

    def __repr__(self) -> str:
        return "NotAtomic"


NOT_ATOMIC = NotAtomic()


def p_factorize(s: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None):
    """Factor s into certified power-monoid atoms: a list of FinSet atoms
    summing to s, ascending.  No side of a decomposition is {0}, so the
    recursion never meets the zero set.
    """
    if s == zero_set(spec):
        return []
    parts = _p_factor(_encode_set(s, spec), _Query(spec, as_budget(budget)), {})
    return [_decode_set(p, spec) for p in parts]


def _p_factor(t: tuple, q: _Query, memo: dict) -> list:
    """`p_factorize` of the scaled set t other than the zero set: its atoms
    as ascending scaled sets, with those of the sets met so far in memo.
    t splits along its first decomposition, if any; neither side is {0}, so
    each has a smaller maximum than t and holds only divisors of t's
    elements, and the recursion ends."""
    if t not in memo:
        decs = _decompositions(t, q)
        if decs:
            u, v = decs[0]
            # scaled sets sort as their decoded sets do
            memo[t] = sorted(_p_factor(u, q, memo) + _p_factor(v, q, memo))
        else:
            memo[t] = [t]
    return memo[t]
