"""The seeded query mixes of the generated workloads, the calls that run
them, and the independent re-checks of their answers.

Inputs are generated from the seed as text literals and parsed by the
library's own parsers during set-up, so the library receives only the
generated inputs.  The re-checks use integer and `Fraction` arithmetic
written here, never the library's search code: membership in a numerical
monoid is decided by a dynamic programme, and membership of generated
family elements is known by construction.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import finpow
from finpow import (
    NOT_ATOMIC,
    Budget,
    QPoint2,
    chain_divisors,
    expand_family,
    parse_element,
    parse_finset,
    parse_monoid_spec,
    render_element,
)

# -- family-dfs -------------------------------------------------------------

RANK2_SAMPLE = "7/3, 32/15, 38/15, 12/5"
FAMILY_SPECS = (
    "family EX44 depth 3",
    "family EX44 depth 4",
    "family EX44 depth 5",
    "family Q-ODDPRIMES depth 4",
    "family Q-ODDPRIMES depth 5",
    "family Q-ODDPRIMES depth 6",
)
RANK2_SPEC = f"family RANK2-5.3 depth 3\nsample {RANK2_SAMPLE}"
CHAIN_DEPTHS = (6, 7, 8)  # depth 9 takes minutes at the seed commit
# Elements are sums of this many random generators, one element per entry,
# each queried with member, factorizations and divisors.  Fixed term counts
# keep the work of a pass nearly the same from seed to seed.
RANK1_MEMBER_TERMS = (1, 2, 3, 4) * 3  # per spec
RANK1_NON_MEMBER_TERMS = (1, 2, 3, 4)  # per spec, plus 1/p
# Seeded rank-2 elements: (number of atoms from the sample, number of dyadic
# generators (0, 1/2^n)) per element.
RANK2_SHAPES = ((1, 0), (0, 1), (1, 1), (0, 2), (0, 3)) * 6
# Plus a fixed sweep: divisors of every sum of two sample atoms and one
# dyadic generator with second coordinate at most RANK2_MAX_Y.  Their cost
# ranges from 2 to 90 ms at the seed commit, so a seeded handful of them
# would make the tail latency depend on the seed; divisors of larger sums
# take up to minutes.
RANK2_MAX_Y = Fraction(7)
ELEMENT_QUERIES = ("member", "factorizations", "divisors")

# -- numerical-sets ---------------------------------------------------------

NUMERICAL_GENS = ((2, 3), (3, 4, 5), (5, 7, 11), (6, 9, 20))
SET_BOUND = 24  # members of the generated sets are at most this
# Queries per monoid and kind.  Most are cheap set queries, so that the
# median latency sits inside one large class whatever the seed.
SET_QUERY_COUNTS = (
    ("divides-yes", 48),
    ("divides-no", 24),
    ("mcd", 48),
    ("mcd-in-P", 6),
    ("p-divisors", 6),
    ("p-atom", 8),
    ("p-factorize", 4),
)
SLICE_MEMBER_GENS = (101, 103, 107)
SLICE_MEMBER_COUNT = 60
# Evenly spaced over this range and fixed, as the chain depths are: the
# cost of member(n) jumps from 0.2 to 20 ms between neighbouring n at the
# seed commit, so seeded picks moved a pass's time by 10 % from seed to seed.
SLICE_MEMBER_RANGE = (2000, 2400)
SLICE_DIVISOR_GENS = (6, 9, 20)
# Fixed, as the chain depths are: the cost of divisors(n) jumps from one n
# to the next (divisors(300) takes seconds at the seed commit).
SLICE_DIVISOR_ELEMENTS = (150, 151)


@dataclass
class Query:
    """One top-level library call and what is known about its answer."""

    kind: str
    spec: object  # parsed MonoidSpec, or the EX44 depth for "chain"
    args: tuple  # parsed inputs
    # What is known by construction: the generators an element was summed
    # from (None for a non-member), the membership table of a numerical
    # monoid, or the exact divisor list of a numerical element.
    expect: object = None


def _spec_text(body: str, kind: str = "family") -> str:
    return f"kind {kind}\n{body}\n"


class _Specs:
    """Parses each spec text once and expands it once."""

    def __init__(self):
        self.parsed = {}
        self.gens = {}

    def get(self, text: str):
        if text not in self.parsed:
            spec = parse_monoid_spec(text)
            self.parsed[text] = spec
            self.gens[text] = spec.expanded().generators
        return self.parsed[text], self.gens[text]


def _primes_off_denominators(gens) -> list[int]:
    """Small primes that divide no generator's denominator: adding 1/p to a
    member then gives a non-member."""
    return [p for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
            if all(g.denominator % p for g in gens)]


def build_family_dfs(seed: int) -> list[Query]:
    rng = random.Random(f"family-dfs:{seed}")
    specs = _Specs()
    queries = [Query("chain", depth, ()) for depth in CHAIN_DEPTHS]
    for body in FAMILY_SPECS:
        spec, gens = specs.get(_spec_text(body))
        off = _primes_off_denominators(gens)
        elems = []
        for k in RANK1_MEMBER_TERMS + RANK1_NON_MEMBER_TERMS:
            terms = tuple(rng.choice(gens) for _ in range(k))
            b = sum(terms, Fraction(0))
            if len(elems) >= len(RANK1_MEMBER_TERMS):
                b += Fraction(1, rng.choice(off))
                terms = None
            elems.append((render_element(b), terms))
        for text, terms in elems:
            b = parse_element(text)
            for kind in ELEMENT_QUERIES:
                queries.append(Query(kind, spec, (b,), terms))
    spec, gens = specs.get(_spec_text(RANK2_SPEC))
    dyadic = [g for g in gens if g.x == 0]
    least = min(dyadic)
    sampled = [g for g in gens if g.x != 0]
    zero = QPoint2(Fraction(0), Fraction(0))

    def refined(terms):
        # (0, 1/2^n) is 2^(d-n) copies of the smallest dyadic (0, 1/2^d), so
        # its sub-sums are divisors too
        return tuple(t for t in terms if t.x != 0) + tuple(
            least for t in terms if t.x == 0 for _ in range(int(t.y / least.y))
        )

    for n_atoms, n_dyadic in RANK2_SHAPES:
        terms = tuple(rng.choice(sampled) for _ in range(n_atoms)) + tuple(
            rng.choice(dyadic) for _ in range(n_dyadic)
        )
        b = parse_element(render_element(sum(terms, zero)))
        for kind in ELEMENT_QUERIES:
            queries.append(Query(kind, spec, (b,), refined(terms)))
    for pair in itertools.combinations_with_replacement(sampled, 2):
        for d in dyadic:
            b = sum(pair, d)
            if b.y <= RANK2_MAX_Y:
                b = parse_element(render_element(b))
                queries.append(Query("divisors", spec, (b,), refined(pair + (d,))))
    return queries


# -- numerical monoids, decided here by dynamic programming -----------------


def numerical_members(gens, bound: int) -> list[bool]:
    ok = [False] * (bound + 1)
    ok[0] = True
    for n in range(1, bound + 1):
        ok[n] = any(n >= g and ok[n - g] for g in gens)
    return ok


def _int_sumset(a, b) -> tuple:
    return tuple(sorted({x + y for x in a for y in b}))


def _oracle_divides(s: tuple, t: tuple, ok: list) -> Optional[tuple]:
    """The largest C with s + C inside t, when s + C = t; else None."""
    cand = [
        u - s[0]
        for u in t
        if u >= s[0] and ok[u - s[0]] and all(e + u - s[0] in t for e in s)
    ]
    if cand and _int_sumset(s, cand) == t:
        return tuple(cand)
    return None


def _oracle_p_divisors(t: tuple, ok: list) -> list[tuple]:
    """Every divisor of t in the power monoid.  A divisor U with U + C = t
    has min U = a and min C = min t - a, both in M, and U lies inside
    {e - min C : e in t}."""
    out = set()
    for a in range(t[0] + 1):
        mv = t[0] - a
        if not (ok[a] and ok[mv]):
            continue
        others = [e - mv for e in t if e - mv > a and ok[e - mv]]
        for r in range(len(others) + 1):
            for extra in itertools.combinations(others, r):
                if _oracle_divides((a,) + extra, t, ok) is not None:
                    out.add((a,) + extra)
    return sorted(out)


def _oracle_mcds(s: tuple, ok: list) -> list[int]:
    def common(xs):
        return [x for x in range(min(xs) + 1) if ok[x] and all(ok[e - x] for e in xs)]

    return [d for d in common(s) if common([e - d for e in s]) == [0]]


def _terms(n: int, gens, ok: list) -> Optional[tuple]:
    """Generators summing to n, read back from the membership table."""
    if not ok[n]:
        return None
    terms = []
    while n:
        g = next(g for g in gens if n >= g and ok[n - g])
        terms.append(g)
        n -= g
    return tuple(terms)


def _ints(fs) -> tuple:
    return tuple(int(e) for e in fs)


class _Deck:
    """Deals members of `items` in shuffled rounds, so that over many draws
    each member comes up about equally often whatever the seed: the seed
    changes which members meet in a set more than which members are used."""

    def __init__(self, rng: random.Random, items: list):
        self.rng, self.items, self.cards = rng, items, []

    def draw(self, size: int) -> tuple:
        out = set()
        while len(out) < size:
            if not self.cards:
                self.cards = list(self.items)
                self.rng.shuffle(self.cards)
            out.add(self.cards.pop())
        return tuple(sorted(out))


def build_numerical_sets(seed: int) -> list[Query]:
    rng = random.Random(f"numerical-sets:{seed}")
    specs = _Specs()
    queries = []

    for gens in NUMERICAL_GENS:
        text = _spec_text("gens " + ", ".join(map(str, gens)), "numerical")
        spec, _ = specs.get(text)
        ok = numerical_members(gens, 4 * SET_BOUND)
        pool = [n for n in range(SET_BOUND + 1) if ok[n]]
        # operands of the sumsets, so that the sumsets stay within SET_BOUND
        half = [n for n in pool if n <= SET_BOUND // 2]

        whole, halves, nonzero_halves = _Deck(rng, pool), _Deck(rng, half), _Deck(rng, half[1:])

        def rset(size, deck=whole):
            return deck.draw(size)

        def lit(elems) -> str:
            return "{" + ", ".join(map(str, elems)) + "}"

        for kind, count in SET_QUERY_COUNTS:
            for i in range(count):
                # set sizes cycle with i; the seed picks only the members
                a, b = i % 3, i // 3 % 3
                if kind == "divides-yes":
                    s = rset(1 + a, halves)
                    args = (lit(s), lit(_int_sumset(s, rset(1 + b, halves))))
                elif kind == "divides-no":
                    while True:
                        s, t = rset(1 + a), rset(2 + b)
                        if _oracle_divides(s, t, ok) is None:
                            break
                    args = (lit(s), lit(t))
                elif kind == "mcd":
                    args = (lit(rset(1 + a)),)
                elif kind == "mcd-in-P":
                    args = (lit(rset(1 + i % 2)), lit(rset(1 + i // 2 % 2)))
                else:
                    # sumsets of two small sets, never the identity {0}
                    u, v = rset(1 + i % 2, nonzero_halves), rset(1 + i // 2 % 2, halves)
                    args = (lit(_int_sumset(u, v)),)
                parsed = tuple(parse_finset(a) for a in args)
                queries.append(Query(kind, spec, parsed, ok))

    spec, _ = specs.get(_spec_text("gens " + ", ".join(map(str, SLICE_MEMBER_GENS)), "numerical"))
    ok = numerical_members(SLICE_MEMBER_GENS, SLICE_MEMBER_RANGE[1])
    lo, hi = SLICE_MEMBER_RANGE
    for k in range(SLICE_MEMBER_COUNT):
        n = lo + k * (hi - lo) // SLICE_MEMBER_COUNT
        queries.append(Query("member", spec, (parse_element(str(n)),), _terms(n, SLICE_MEMBER_GENS, ok)))
    spec, _ = specs.get(_spec_text("gens " + ", ".join(map(str, SLICE_DIVISOR_GENS)), "numerical"))
    ok = numerical_members(SLICE_DIVISOR_GENS, max(SLICE_DIVISOR_ELEMENTS))
    for n in SLICE_DIVISOR_ELEMENTS:
        expect = [d for d in range(n + 1) if ok[d] and ok[n - d]]
        queries.append(Query("divisors", spec, (parse_element(str(n)),), expect))
    return queries


BUILDERS = {"family-dfs": build_family_dfs, "numerical-sets": build_numerical_sets}


# -- running one query ------------------------------------------------------


def run_query(q: Query, budget: Budget):
    # Calls go through the package namespace at call time, so that the
    # tracer's patched functions are the ones called.
    k, sp, a = q.kind, q.spec, q.args
    if k == "chain":
        return finpow.ex44_chain(3, sp, budget)
    if k in ("member", "factorizations", "divisors"):
        return getattr(finpow, k)(a[0], sp, budget)
    if k in ("divides-yes", "divides-no"):
        return finpow.divides_in_P(a[0], a[1], sp, budget)
    if k == "p-atom":
        return finpow.is_p_atom(a[0], sp, budget)
    if k == "p-factorize":
        return finpow.p_factorize(a[0], sp, budget)
    if k == "p-divisors":
        return finpow.p_divisors(a[0], sp, budget)
    if k == "mcd":
        return finpow.mcd(a[0], sp, budget)
    if k == "mcd-in-P":
        return finpow.mcd_in_P(list(a), sp, budget)
    raise ValueError(f"unknown query kind {k!r}")


def render_answer(q: Query, ans) -> str:
    """A canonical text form of an answer, for digests."""
    k = q.kind
    if k == "chain":
        steps = " ; ".join(
            f"{render_element(s.increment)} {c1.render()} | {c2.render()}"
            for s in ans
            for c1, c2 in [s.residual_certificates]
        )
        return " < ".join(map(render_element, chain_divisors(ans))) + " :: " + steps
    if k == "member":
        return str(bool(ans))
    if k == "factorizations":
        return " ; ".join(f.render() for f in ans)
    if k in ("divisors", "mcd"):
        return ", ".join(map(render_element, ans))
    if k in ("divides-yes", "divides-no"):
        return "none" if ans is None else ans.render()
    if k == "p-atom":
        if ans.is_atom:
            return "atom"
        return f"{ans.counterexample.left.render()} + {ans.counterexample.right.render()}"
    if k == "p-factorize":
        return "not-atomic" if ans is NOT_ATOMIC else " + ".join(p.render() for p in ans)
    if k in ("p-divisors", "mcd-in-P"):
        return " ; ".join(p.render() for p in ans)
    raise ValueError(f"unknown query kind {k!r}")


# -- independent re-checks --------------------------------------------------

_CHAIN_VALUES = [Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)]


def check_answer(q: Query, ans) -> Optional[str]:
    """None when the answer passes its re-check, else what is wrong."""
    k = q.kind
    if k == "chain":
        if chain_divisors(ans) != _CHAIN_VALUES:
            return "chain values"
        gens = set(expand_family("EX44", q.spec).generators)
        for step in ans:
            for target, cert in zip((Fraction(1), Fraction(4, 3)), step.residual_certificates):
                if step.q + step.increment + cert.total() != target:
                    return "chain certificate does not re-sum"
                if any(a not in gens for a, _ in cert):
                    return "chain certificate uses a non-generator"
        return None
    if k == "member":
        return None if bool(ans) == (q.expect is not None) else "membership differs from construction"
    b = q.args[0] if q.args else None
    if k == "factorizations":
        gens = set(q.spec.expanded().generators)
        zero = q.spec.zero
        if bool(ans) != (q.expect is not None):
            return "factorization existence differs from construction"
        if len({f.parts for f in ans}) != len(ans):
            return "repeated factorization"
        for f in ans:
            if f.total(zero) != b or any(a not in gens for a, _ in f):
                return "factorization does not re-sum over generators"
        return None
    if k == "divisors":
        if isinstance(q.expect, list):  # numerical slice: exact oracle
            return None if list(map(int, ans)) == q.expect else "divisors differ from oracle"
        if q.expect is None:
            return None if ans == [] else "non-member has divisors"
        if any(x >= y for x, y in zip(ans, ans[1:])):
            return "divisors not strictly increasing"
        got = set(ans)
        if any(b - d not in got for d in ans):
            return "divisors not closed under complement"
        sums = {q.spec.zero}
        for term in q.expect:
            sums |= {x + term for x in sums}
        return None if sums <= got else "divisors miss a sub-sum of the construction"
    ok = q.expect  # membership table of the numerical monoid
    sets = [_ints(s) for s in q.args]
    if k in ("divides-yes", "divides-no"):
        s, t = sets
        want = _oracle_divides(s, t, ok)
        if k == "divides-yes" and want is None:
            return "generated yes-instance is not divisible"
        if ans is None:
            return None if want is None else "missed a divisibility"
        w = _ints(ans)
        if not all(ok[m] for m in w) or _int_sumset(s, w) != t:
            return "divisibility witness does not re-sum"
        return None
    if k == "p-atom":
        atom = _oracle_p_divisors(sets[0], ok) == [(0,), sets[0]]
        if ans.is_atom != atom:
            return "atom verdict differs from oracle"
        if atom:
            return None
        left, right = _ints(ans.counterexample.left), _ints(ans.counterexample.right)
        if (0,) in (left, right) or not all(ok[m] for m in left + right):
            return "decomposition side is trivial or outside M"
        return None if _int_sumset(left, right) == sets[0] else "decomposition does not re-sum"
    if k == "p-factorize":
        if ans is NOT_ATOMIC:
            return "numerical power monoid reported not atomic"
        acc = (0,)
        for part in map(_ints, ans):
            if part == (0,) or _oracle_p_divisors(part, ok) != [(0,), part]:
                return "factor is not an atom"
            acc = _int_sumset(acc, part)
        return None if acc == sets[0] else "factorization does not re-sum"
    if k == "p-divisors":
        want = _oracle_p_divisors(sets[0], ok)
        return None if [_ints(u) for u in ans] == want else "p-divisors differ from oracle"
    if k == "mcd":
        want = _oracle_mcds(sets[0], ok)
        return None if list(map(int, ans)) == want else "mcds differ from oracle"
    if k == "mcd-in-P":
        for r in ans:
            if any(_oracle_divides(_ints(r), t, ok) is None for t in sets):
                return "mcd in P does not divide every set"
        return None
    raise ValueError(f"unknown query kind {k!r}")
