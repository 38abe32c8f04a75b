"""The finitary power monoid: sumsets, divisibility, decomposition search,
atom testing, and factorization into power-monoid atoms.

Divisibility of finite sets reduces to one polynomial check: the largest
feasible cofactor of S inside T is C = {m : S + {m} subset of T}, and a
cofactor exists iff S + C = T.  The divisor search is anchored at the
minimum: if S = U + V then min U + min V = min S, so candidate U's live in
the translate {s - min V : s in S}, which keeps the subset enumeration tiny.
One anchor walk, `_anchor_walks`, finds every divisor U of a set with its
largest cofactor C; `_anchored_divisors` translates it into the map
{U: (C, covers)}, whose U's `mcd.p_divisors` collects and whose C's
`mcd.mcd_in_P` reads to strip a U, and `decompositions` takes the V's
inside each C.  It walks the subsets once per anchor membership pattern,
not once per anchor, yet charges each anchor one node per subset, so node
counts are those of a walk per anchor, and a budget that runs out stops at
limit + 1.  Each anchor makes its membership tests in one pass, reading
cached verdicts directly; anchor a's V tests are the A tests of its
partner min S - a, so the two share one mask, and the A list of each mask
is built once per call.  `decompositions` builds each unordered pair
{U, V} once, from its lesser anchor: if min U <= min V, then V lies in U's
largest cofactor and holds its minimum, so the pair is among U's; so it
reads only the walks of the anchors a <= min S - a, and builds no map.
With `both_nonsingleton`, `decompositions` filters the one list its core
builds.

`divides_in_P`, `decompositions` and `p_factorize` are each one encode, a
scaled core (`_divides_in_P`, `_decompositions`, `_p_factor`) and one
decode.  `_sumset` adds two ascending tuples of elements, scaled or not, so
`sumset`, `sumset_all` (through `_sumset_all`) and `mcd_in_P`'s strip step
share it with no encoding.  The rank-1 set suites call these cores on scaled
sets and decode a set only to render a failure; lemma-5.2 checks residues
on ints through `mcd._cap_constant_on_scaled`.

Cofactors are read from one plain table, `_cofactor_table`, whose row for
an element e holds in column j the complement of the index bit in T of
e + m_j, or 0 when that sum is not in T; the AND of U's rows gives C(U)
and its covers, which `divides_in_P` and `singleton_candidates` read for
their one set.  One bounded walk, `_covering_walk`, lists every set of
rows that holds row 0 and covers T: over the rows of A, the divisors U of
a pattern, and over a table of one column whose rows are the covers of
U's C, the V's that go with U.  Node counts do not depend on it: an
anchor still charges one node per subset it stands for, and listing V's
charges nothing.

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
`_Query.is_member` and `_scaled_divisors`; a set enumerated twice is kept
in one record [map, cost, pairs], whose map and pairs `_kept` fills as
they are built and replays at the node cost of an uncached rerun, so
caching moves no count.  The cache also keeps the pattern walks of
`_anchor_walks` and the V lists of `_decompositions` across calls; they
charge nothing, so keeping them moves no count either.  Only this module
reads or writes the kept enumerations, walks and V lists.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import and_
from typing import Callable, Optional

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
    of `mcd` under `backend.divisors`.  An element below zero has none, and
    `divisors` says so with no search and caches nothing."""
    cache = q.entry.divisors
    if n not in cache:
        divisors(decode(n, q.spec), q.spec, q.budget)
    return cache.get(n, ())


def _cofactor_table(t: tuple, es, ms) -> list:
    """The rows of the cofactor table of the scaled set t for the elements es
    of sets U and the candidates ms of their cofactors: rows[k][j] is ~bit,
    the complement of the index bit in t of es[k] + ms[j], or 0 when that
    sum is not in t, so row k fits column j iff its entry is nonzero.

    The AND of the rows of U then holds, in column j, 0 if some row misses
    m_j, and otherwise the complement of m_j's cover, the mask of the
    indices in t of U + m_j.  If ms holds every m in M with min U + m in t,
    its nonzero columns are U's largest cofactor C(U), and `_covered` ORs
    their covers, which give the full mask iff U + C(U) = t.
    """
    index = {x: ~(1 << i) for i, x in enumerate(t)}
    return [[index.get(e + m, 0) for m in ms] for e in es]


def _covered(cover) -> int:
    """The OR of the covers in the nonzero columns of an AND of table rows."""
    return ~functools.reduce(and_, filter(None, cover), -1)


def _later(rows: list) -> list:
    """lat[k], for each index k of rows: the AND of the rows after k, a row
    that misses a column counting as -1 there, so that column j holds the
    complement of the OR of what the later rows that fit it cover."""
    lat = [[-1] * len(rows[0])] * len(rows)
    for k in range(len(rows) - 2, -1, -1):
        lat[k] = [s & (r or -1) for r, s in zip(rows[k + 1], lat[k + 1])]
    return lat


def _covering_walk(rows: list, full: int) -> list:
    """(I, cover) for every tuple I of row indices that holds 0 and whose
    rows cover the mask full: cover is the AND of I's rows, and
    `_covered(cover) == full`.  The tuples come by size, then
    lexicographically.

    A covering search with a completion bound, in the manner of Knuth,
    "Dancing links" (2000): depth first, from an explicit stack, extending
    a tuple by each later index in turn, so the tuples are met in
    lexicographic order, and one stable sort by size orders them.  A tuple
    I is cut, with every extension, when its nonzero columns, each ORed
    with what all later rows cover in it, do not cover full.  The cut is
    sound: an extension adds only later rows, and a row only zeroes
    columns, so what it covers lies inside that OR; and a cut tuple,
    covering less, is no cover itself.  A tuple with one extension left is
    not bounded: that extension is tested itself, for about what the bound
    costs.  The later rows, `_later`, are built at the first tuple that
    needs them.
    """
    n, lat = len(rows), None
    out, stack = [], [((0,), rows[0])]
    while stack:
        ks, cover = node = stack.pop()
        k = ks[-1] + 1
        if _covered(cover) == full:
            out.append(node)
        elif k == n:
            continue
        elif k < n - 1:
            lat = lat or _later(rows)
            if _covered(map(and_, cover, lat[k - 1])) != full:
                continue
        if k < n:
            # pushed last to first, so the first extension is walked first
            stack += [
                (ks + (j,), list(map(and_, cover, rows[j]))) for j in range(n - 1, k - 1, -1)
            ]
    out.sort(key=lambda node: len(node[0]))
    return out


def _relative_divisors(rel: tuple, us: list, outs: int) -> list:
    """(U, C, covers) for every divisor U of the set t = min t + rel, with
    its largest cofactor C, for the anchors a whose pattern is (us, outs):
    a + d is in M for the d in us, and min t - a + rel[i] for the i whose
    bit is set in the mask outs.  U and C are given by the offsets d of
    their elements a + d and min t - a + d, and covers[i] is the mask of the
    indices in t of U + C[i].  The divisors are the covering walk's over
    the rows of us, in its order: by size, then lexicographically."""
    ms = [d for i, d in enumerate(rel) if outs >> i & 1]
    walk = _covering_walk(_cofactor_table(rel, us, ms), (1 << len(rel)) - 1)
    # a nonzero entry of cover is the complement of its column's cover
    return [
        (
            tuple([us[k] for k in ks]),
            [m for m, e in zip(ms, cover) if e],
            tuple([~e for e in cover if e]),
        )
        for ks, cover in walk
    ]


def _anchor_walks(t: tuple, q: _Query, half: bool) -> list:
    """(a, mv, walk) for each anchor a of the scaled set t whose tail test
    passes, ascending, where mv = min t - a and walk lists (U - a, C - mv,
    covers) over the divisors U of t with minimum a in the power monoid:
    C is U's largest cofactor, U + C = t, and covers[i] is the mask of the
    indices in t of U + C[i].  With `half`, only the anchors a <= mv.

    Anchored at the minimum: min U is a divisor a of min t, so min C = mv,
    which is in M as a divides min t, and every u in U has u + mv in t.
    With rel = t - min t, U - a ranges over the subsets holding 0 of
    A = {d in rel : a + d in M} and C - mv lies in V = {d in rel : mv + d
    in M}; translation keeps the covers, so the subsets are walked once per
    pattern (A, V).  A walk depends on rel and the pattern alone and charges
    nothing, so the walks are kept in the spec's result cache, under rel
    and then the pattern key, and every set with t's offsets, any translate
    of t among them, reads them in later calls too.  The V tests are made
    only if some tail test tmax - x, x in a + A, passes: if U + C = t, then
    tmax - max U = max C is in M.  Each anchor asks its questions in one
    pass: the A tests in ascending order, every tail test, then the V
    tests; it reads a cached verdict straight from the result cache,
    searches only on a miss, and sets the bits of the pattern key, the
    masks of A and V over the indices of rel, as it goes.

    Anchor a's V tests are the A tests of anchor mv, which divides min t
    too, so the two share one mask per call: an anchor a > mv reads the
    mask anchor mv made, and an anchor a < mv that makes its V tests
    leaves anchor mv no A test to make.  The tests skipped are cached
    verdicts, so the result cache is asked what, and in the order, it
    would be if every anchor made its own.  The A list of each mask is
    built once per call, as patterns repeat across anchors.  With `half`,
    an anchor a > mv still makes every test and its charge.

    Each anchor spends 2^(|A| - 1) nodes, one per subset it stands for, in
    one charge, and makes the membership tests a walk over its subsets made,
    so node counts are that walk's, and a budget that runs out still stops
    at limit + 1.  An element of t outside M is rejected first; the
    membership tests that makes are ones the anchor a = min t makes anyway.
    """
    bud = q.budget
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
    out: list = []
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
        elif half and a > mv:
            continue
        else:
            outs = masks[mv]
        # one int as the key, the mask of us above the outs mask: a pair of
        # tuples per anchor, freed by the thousand onto the interpreter's
        # tuple free lists, raised peak RSS
        pattern = key << n | outs
        walk = patterns.get(pattern)
        if walk is None:
            walk = patterns[pattern] = _relative_divisors(rel, us, outs)
        out.append((a, mv, walk))
    return out


def _kept(t: tuple, q: _Query, slot: int, build: Callable):
    """What `build(t, q)` finds from an anchor walk of the scaled set t: its
    divisor map in slot 0 of t's record, or its decomposition pairs in
    slot 2.

    A completed build marks t in the result cache.  A later one finds every
    test cached, so it spends what an uncached rerun would, and keeps that
    count and its value in the record [map or None, count, pairs or None];
    a filled slot is replayed at the count, and an empty one is built,
    at the same count, and kept.  Only a set requested twice is kept:
    keeping every first enumeration raised the peak RSS of `verify --suite
    all` from 24.0 to 30.1 MB to save its 361 reruns, with no faster run
    (one run each, on a 2-core VM).
    """
    memo, bud = q.entry.enumerations, q.budget
    record = memo.get(t)
    if record is not None and record[slot] is not None:
        bud.spend(record[1])  # nodes: a kept enumeration's recorded count
        return record[slot]
    before = bud.used
    value = build(t, q)
    if t not in memo:
        memo[t] = None
        return value
    if record is None:
        record = memo[t] = [None, bud.used - before, None]
    record[slot] = value
    return value


def _anchored_divisors(t: tuple, q: _Query) -> dict:
    """The map {U: (C, covers)} over every divisor U of the scaled set t in
    the power monoid, kept by `_kept`.  `mcd.p_divisors` and
    `_p_furstenberg_divisor` read its keys and `mcd._mcd_in_P` its
    cofactors."""
    return _kept(t, q, 0, _divisor_map)


def _divisor_map(t: tuple, q: _Query) -> dict:
    """`_anchored_divisors` of t, built: the walk of every anchor,
    translated."""
    out = {}
    for a, mv, walk in _anchor_walks(t, q, False):
        for u, c, covers in walk:
            out[tuple([a + d for d in u])] = [mv + d for d in c], covers
    return out


def singleton_candidates(
    s: FinSet, t: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> Optional[FinSet]:
    """The largest C with s + C subset of t, or None when no m qualifies.
    A set holding an element outside M is rejected."""
    u, w = _encode_set(s, spec), _encode_set(t, spec)
    q = _Query(spec, as_budget(budget))
    _check_members(u + w, q)
    c, _ = _largest_cofactor(u, w, q)
    return _decode_set(c, spec) if c else None


def _largest_cofactor(u: tuple, w: tuple, q: _Query) -> tuple:
    """(C, union) for the scaled sets u and w: the largest scaled cofactor
    C = {m in M : u + m inside w}, ascending, and the mask of the indices in
    w of u + C, read from the AND of u's rows of the cofactor table."""
    a = u[0]
    ms = [x - a for x in w if x >= a and q.is_member(x - a)]
    cover = [functools.reduce(and_, column) for column in zip(*_cofactor_table(w, u, ms))]
    return [m for m, e in zip(ms, cover) if e], _covered(cover)


def _divides_in_P(u: tuple, w: tuple, q: _Query) -> Optional[tuple]:
    """`divides_in_P` of the scaled sets u and w: the largest scaled cofactor
    C with u + C = w, or None when u does not divide w."""
    if len(w) < len(u):
        return None
    c, union = _largest_cofactor(u, w, q)
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


def _decompositions(t: tuple, q: _Query) -> list:
    """`decompositions` of the scaled set t of q's spec, as sorted
    scaled pairs (left, right), kept by `_kept`."""
    return _kept(t, q, 2, _decomposition_pairs)


def _decomposition_pairs(t: tuple, q: _Query) -> list:
    """`_decompositions` of t, built.  Each divisor U of t comes with its
    largest cofactor C, and the V's that go with U are the subsets of C
    holding min C whose covers OR to all of t: the tuples of the covering
    walk over a table of one column, whose rows are the covers, each of
    which fits it.  They are listed once per covers tuple and kept in the
    spec's result cache across calls and sets; listing them charges
    nothing, so a kept list moves no count.  The
    covers tuple is a sound key for any set: a divisor's covers OR to its
    own set's full mask, so the tuple fixes the mask that the V's must
    cover.

    Each pair is built once, from its lesser anchor, straight from the
    anchor walks: U as a plus U's offsets and V as mv plus the picked
    offsets of C, with no divisor map.  If U + V = t with min U <= min V,
    then U is a divisor with anchor a = min U, and V, a subset of U's
    largest cofactor holding its minimum mv = min t - a, is among U's V's;
    so only the walks of the anchors a <= mv are read.  A divisor with
    a < mv gives (U, V) with U < V, as min U < min V; one with a = mv gives
    both (U, V) and (V, U), and only U <= V is kept.  Neither side is {0}:
    U = {0} is skipped, and V = {0} comes only with mv = 0 <= a, so with
    U = t > {0}, which the U <= V test drops."""
    zero, full, picks = t[0] - t[0], (1 << len(t)) - 1, q.entry.picks
    pairs = []
    for a, mv, walk in _anchor_walks(t, q, True):
        for offsets, c, covers in walk:
            u = tuple([a + d for d in offsets])
            if u == (zero,):
                continue
            vs = picks.get(covers)
            if vs is None:
                # the indices of C that a V holds, min C among them
                vs = picks[covers] = [
                    ks for ks, _ in _covering_walk([[~x] for x in covers], full)
                ]
            for ks in vs:
                v = tuple([mv + c[i] for i in ks])
                if a < mv or u <= v:
                    pairs.append((u, v))
    pairs.sort()
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
