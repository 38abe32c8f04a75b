"""Atomicity-hierarchy predicates: ascending-chain exploration, atom-divisor
extraction in the power monoid, finite-factorization counting, the canonical
decomposition of rationals over odd-prime unit fractions, the rank-2 atom
construction, and the first-coordinate projection-gap checker.

Chains in M and in P_fin(M) share one memoised search, `_longest_chain`.
Every atom-divisor question, the public `atom_divisors` among them, is one
lazy scan on scaled elements, `_atom_divisors`.

`p_furstenberg_divisor`, `tidf_implies_atomic_check` and
`thm55_projection_check` are each one encode, a scaled core
(`_p_furstenberg_divisor`, `_descent`, `_projection_failure`) and one
decode; the lemma-6.1 and thm-5.5-gap suites call the cores on sets they
encode once.  `_p_furstenberg_divisor` takes a set's common divisors from
`mcd._common_divisors`, the one algorithm for them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import Element, InvalidInputError, QPoint2, Rat, _den_primes, primes_from, vp_value
from .backend import (
    Budget,
    MonoidSpec,
    _Query,
    _on_lattice,
    _scaled_atoms,
    _split,
    as_budget,
    decode,
    decode_all,
    divisors,
    encode,
    factorizations,
    members_upto,
)
from .power import (
    FinSet, _anchored_divisors, _decode_set, _decompositions, _encode_set, _sumset_all, zero_set
)
from .mcd import _common_divisors, p_divisors


@dataclass(frozen=True)
class ChainReport:
    """A strictly-proper divisibility chain found by depth-first search."""

    start: object
    chain: tuple
    stabilized: bool

    @property
    def length(self) -> int:
        return len(self.chain)


def _longest_chain(start, proper_divisors, maxlen: int) -> ChainReport:
    """The longest chain start = x_0, x_1, ... with each x_{i+1} in
    proper_divisors(x_i), tried in the order given, at most maxlen steps deep.
    stabilized is True when the final element has no proper divisor.

    An element whose search was not cut at maxlen is memoised by itself."""
    memo: dict = {}

    def longest(x, depth):
        if depth >= maxlen:
            return [x], False
        if x in memo:
            return memo[x]
        best, done = [x], True
        for d in proper_divisors(x):
            tail, tail_done = longest(d, depth + 1)
            if len(tail) + 1 > len(best):
                best, done = [x] + tail, tail_done
        if done:
            memo[x] = (best, done)
        return best, done

    chain, stabilized = longest(start, 0)
    return ChainReport(start, tuple(chain), stabilized)


def accp_chain_explore(
    b: Element, spec: MonoidSpec, maxlen: int = 32, budget: "Budget | int | None" = None
) -> ChainReport:
    """Longest chain b = b_0, b_1, ... with each b_{i+1} a proper divisor of
    b_i, trying the largest divisors first."""
    bud = as_budget(budget)
    return _longest_chain(
        b,
        lambda x: [d for d in sorted(divisors(x, spec, bud), reverse=True) if d != x],
        maxlen,
    )


def p_accp_chain_explore(
    s: FinSet, spec: MonoidSpec, maxlen: int = 16, budget: "Budget | int | None" = None
) -> ChainReport:
    """Longest strictly-proper divisibility chain of finite sets from s.

    The cardinality profile along any such chain is non-increasing, which is
    what forces stabilization."""
    bud = as_budget(budget)
    return _longest_chain(
        s, lambda t: [u for u in p_divisors(t, spec, bud) if u != t], maxlen
    )


@dataclass(frozen=True)
class SampleReport:
    ok: bool
    counterexample: object = None

    def __bool__(self) -> bool:
        return self.ok


def is_furstenberg_sample(
    spec: MonoidSpec, bound: Rat, budget: "Budget | int | None" = None
) -> SampleReport:
    """True iff every nonzero member below the bound is divisible by an atom.
    A rank-2 spec, whose members are not listed, is refused before any node."""
    if spec.is_rank2:
        raise InvalidInputError("Furstenberg sample requires a rank-1 spec")
    if bound <= 0:
        raise InvalidInputError("bound must be positive")
    q = _Query(spec, as_budget(budget))
    ats = _scaled_atoms(q)
    for b in members_upto(spec, bound, q.budget):
        if b == 0:
            continue
        if next(_atom_divisors(encode(b, spec), ats, q), None) is None:
            return SampleReport(False, counterexample=b)
    return SampleReport(True)


def p_furstenberg_divisor(
    s: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> FinSet:
    """A certified atom of the power monoid dividing s: one encode, the
    scaled core `_p_furstenberg_divisor`, one decode.

    Dichotomy: when s has a nonzero singleton divisor {d}, any atom dividing
    d serves; otherwise a non-singleton proper divisor u of s of least size
    is an atom, as a split V + W of u has no singleton side, so |V| < |u|
    (Lemma 3.2) and V would be a smaller one."""
    if s == zero_set(spec):
        raise InvalidInputError("the zero set has no atom divisor")
    q = _Query(spec, as_budget(budget))
    return _decode_set(_p_furstenberg_divisor(_encode_set(s, spec), q), spec)


def _p_furstenberg_divisor(t: tuple, q: _Query) -> tuple:
    """`p_furstenberg_divisor` of the scaled set t other than the zero set,
    as a scaled set.  The singleton branch takes d, the largest common
    divisor, from `_common_divisors`, and the spec's scaled atoms, the
    kept atom list encoded."""
    if not _decompositions(t, q):
        return t
    common = _common_divisors(t, q)
    if len(common) > 1:
        d = common[-1]
        a = next(_atom_divisors(d, _scaled_atoms(q), q), None)
        if a is None:
            raise InvalidInputError(f"no atom divides {decode(d, q.spec)}")
        return (a,)
    cands = (u for u in _anchored_divisors(t, q) if len(u) >= 2 and u != t)
    u = min(cands, key=lambda u: (len(u), u), default=None)
    if u is not None and not _decompositions(u, q):
        return u
    raise InvalidInputError(f"no atom divisor found for {_decode_set(t, q.spec).render()}")


def _atom_divisors(n, ats: list, q: _Query):
    """The scaled atoms in ats that divide the scaled element n, lazily and
    in the order of ats."""
    return (a for a in ats if a <= n and q.is_member(n - a))


def atom_divisors(
    b: Element, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> list:
    """All atoms of the monoid dividing b: one encode, `_atom_divisors` over
    the scaled atoms, one decode.  An element below zero or off the
    generators' lattice has none, by `_on_lattice`, with no atom search."""
    n, bud = _on_lattice(b, spec, budget)
    if n is None:
        return []
    q = _Query(spec, bud)
    return decode_all(list(_atom_divisors(n, _scaled_atoms(q), q)), spec)


def ffm_count(b: Element, spec: MonoidSpec, budget: "Budget | int | None" = None) -> int:
    """Exact number of factorizations of b into atoms."""
    return len(factorizations(b, spec, budget))


@dataclass(frozen=True)
class DescentReport:
    ok: bool
    max_descent: int = 0
    counterexample: object = None

    def __bool__(self) -> bool:
        return self.ok


def tidf_implies_atomic_check(
    spec: MonoidSpec, bound: Rat, budget: "Budget | int | None" = None
) -> DescentReport:
    """Replay the atomicity descent from every member below the bound:
    repeatedly subtract the minimum atom divisor and confirm termination at 0
    within ceil(b / min atom) steps.  One encode of the atoms and of the
    members, the scaled core `_descent`, and one decode of a
    counterexample."""
    if spec.is_rank2:
        raise InvalidInputError("descent check requires a rank-1 positive backend")
    q = _Query(spec, as_budget(budget))
    ats = _scaled_atoms(q)
    members = [encode(b, spec) for b in members_upto(spec, bound, q.budget)]
    ok, out = _descent(members, ats, q)
    if ok:
        return DescentReport(True, max_descent=out)
    return DescentReport(False, counterexample=decode(out, spec))


def _descent(members: list, ats: list, q: _Query) -> tuple:
    """The atomicity descent from each scaled member, over the scaled atoms
    ats, ascending: (True, the longest descent), or (False, the first member
    whose descent fails).  Each step tests every atom, as the least atom
    divisor is taken from the full list."""
    worst = 0
    for b in members:
        if not b:
            continue
        n, steps = b, 0
        limit = -(-b // ats[0])  # ceil(b / min atom)
        while n:
            advs = list(_atom_divisors(n, ats, q))
            if not advs or steps >= limit:
                return False, b
            n -= min(advs)
            steps += 1
        worst = max(worst, steps)
    return True, worst


# ---------------------------------------------------------------------------
# Canonical decomposition over the odd-prime unit fractions


@dataclass(frozen=True)
class CanonicalDecompQ:
    """q = ell + sum of coeffs[p]/p with each coefficient in [0, p-1]; the
    integer part ell is maximal.  k = 2 - ell."""

    ell: int
    coeffs: tuple  # sorted tuple of (prime, coefficient)

    @property
    def k(self) -> int:
        return 2 - self.ell

    @property
    def value(self) -> Rat:
        return Fraction(self.ell) + sum(
            (Fraction(c, p) for p, c in self.coeffs), Fraction(0)
        )


def canonical_decomp_Q(q: Rat) -> CanonicalDecompQ:
    """Decompose q as a maximal integer plus reduced odd-prime unit-fraction
    multiples.  Defined exactly on the difference group of the monoid
    generated by {1/p : p odd prime}."""
    q = Fraction(q)
    den = q.denominator
    if den % 2 == 0:
        raise InvalidInputError(f"{q} has even denominator")
    coeffs = []
    rest = q
    for p in _den_primes(den):
        if den % (p * p) == 0:
            raise InvalidInputError(f"{q} has a repeated odd prime in its denominator")
        c = q.numerator * pow(den // p, -1, p) % p
        coeffs.append((p, c))
        rest -= Fraction(c, p)
    # den is odd and squarefree, so the partial fractions leave an integer
    return CanonicalDecompQ(int(rest), tuple(coeffs))


def k_of(q: Rat) -> int:
    return canonical_decomp_Q(q).k


def rank2_atom(q: Rat, branch: str) -> QPoint2:
    """The rank-2 atom attached to q on branch A (first coordinate 1/5) or
    branch B (first coordinate 1/7)."""
    q = Fraction(q)
    if not Fraction(2) < q < Fraction(3):
        raise InvalidInputError(f"{q} is outside (2, 3)")
    if branch not in ("A", "B"):
        raise InvalidInputError("branch must be 'A' or 'B'")
    x = Fraction(1, 5) if branch == "A" else Fraction(1, 7)
    return QPoint2(x, q + Fraction(1, 2) ** k_of(q))


@dataclass(frozen=True)
class Lemma54Certificate:
    """An exact re-summable identity a_q + a_r = a_{q-1/p} + a_{r+1/p} +
    multiplicity * increment, with the increment a dyadic second-coordinate
    generator."""

    q: Rat
    r: Rat
    p: int
    branches: tuple
    left: tuple  # (atom for q, atom for r)
    right: tuple  # (atom for q - 1/p, atom for r + 1/p)
    increment: QPoint2
    multiplicity: int

    @property
    def left_sum(self) -> QPoint2:
        return self.left[0] + self.left[1]

    @property
    def right_sum(self) -> QPoint2:
        return self.right[0] + self.right[1] + self.multiplicity * self.increment

    def resums_exactly(self) -> bool:
        return self.left_sum == self.right_sum


_LEMMA54_PRIME_FLOOR = 5
_LEMMA54_SEARCH_CAP = 10_000


def lemma54_sum_witness(
    q: Rat, r: Rat, branches: tuple = ("A", "B")
) -> Lemma54Certificate:
    """Express the sum of two atoms as a sum of two other atoms plus a dyadic
    increment, using the first prime p >= 5 at which both q and r have
    nonnegative valuation and q - 1/p, r + 1/p stay inside (2, 3); the search
    gives up above 10,000."""
    q, r = Fraction(q), Fraction(r)
    two, three = Fraction(2), Fraction(3)
    if not (two < q < three and two < r < three):
        raise InvalidInputError("both arguments must lie in (2, 3)")
    chosen = None
    for p in primes_from(_LEMMA54_PRIME_FLOOR):
        if p > _LEMMA54_SEARCH_CAP:
            break
        inv = Fraction(1, p)
        if (
            vp_value(p, q) >= 0
            and vp_value(p, r) >= 0
            and two < q - inv < three
            and two < r + inv < three
        ):
            chosen = p
            break
    if chosen is None:
        raise InvalidInputError(
            f"no admissible odd prime below {_LEMMA54_SEARCH_CAP} for ({q}, {r})"
        )
    inv = Fraction(1, chosen)
    kq = k_of(q)
    left = (rank2_atom(q, branches[0]), rank2_atom(r, branches[1]))
    right = (rank2_atom(q - inv, branches[0]), rank2_atom(r + inv, branches[1]))
    # q's integer part ell is at most q < 3, its unit-fraction part being
    # nonnegative, so kq = 2 - ell >= 0 and the dyadic increment is taken once
    increment = QPoint2(Fraction(0), Fraction(1, 2 ** (kq + 1)))
    cert = Lemma54Certificate(q, r, chosen, tuple(branches), left, right, increment, 1)
    if not cert.resums_exactly():
        raise InvalidInputError("certificate failed exact re-summation")
    return cert


# ---------------------------------------------------------------------------
# First-coordinate projection gap

PROJECTION_HEADS = (Fraction(0), Fraction(1, 5), Fraction(1, 7))
PROJECTION_GAP = Fraction(2, 35)
UNATTAINABLE_OFFSET = Fraction(1, 35)


@dataclass(frozen=True)
class ProjectionGapReport:
    ok: bool
    detail: str
    violation: object = None

    def __bool__(self) -> bool:
        return self.ok


def thm55_projection_check(
    atom_list: Sequence[FinSet],
    spec: MonoidSpec,
    budget: "Budget | int | None" = None,
) -> ProjectionGapReport:
    """Verify the projection-gap mechanism on a list of power-monoid atoms
    over rank-2 points: each atom's minimum has first coordinate 0, 1/5, or
    1/7, and in the total sumset every first-coordinate offset from the
    minimum is 0 or at least 2/35 — so an offset of exactly 1/35 never
    occurs.  The report covers the supplied atoms only."""
    if not spec.is_rank2:
        raise InvalidInputError("thm55_projection_check needs a rank-2 spec")
    if not atom_list:
        return ProjectionGapReport(True, "mechanism verified (vacuous)")
    sets = [_encode_set(a, spec) for a in atom_list]
    bad = _projection_failure(sets, _Query(spec, as_budget(budget)))
    if bad is None:
        return ProjectionGapReport(True, "mechanism verified")
    detail, v = bad
    return ProjectionGapReport(
        False, detail, _decode_set(v, spec) if type(v) is tuple else decode(v, spec)
    )


def _projection_failure(sets: list, q: _Query):
    """`thm55_projection_check` of a nonempty list of scaled sets over a
    rank-2 spec: None if the mechanism holds, else (detail, the scaled set
    or element that violates it).

    First coordinates are compared at the spec's x-scale Lx: a scaled x is
    the head h iff x = h*Lx, and a scaled offset o is the rational o/Lx.
    """
    pack, lx = q.spec.pack, q.spec.scale[1]
    heads = {h.numerator * lx // h.denominator for h in PROJECTION_HEADS
             if h.numerator * lx % h.denominator == 0}
    for t in sets:
        if _split(t[0], pack)[1] not in heads:
            return "first-coordinate trichotomy violated", t
        if t == (0,):
            raise InvalidInputError("the identity {0} is not a candidate atom")
        if _decompositions(t, q):
            return "input set is not an atom", t
    total = _sumset_all(sets, 0)
    base = _split(total[0], pack)[1]
    odd, gap = UNATTAINABLE_OFFSET, PROJECTION_GAP
    for v in total:
        offset = _split(v, pack)[1] - base
        if offset * odd.denominator == odd.numerator * lx:
            return "unattainable offset 1/35 attained", v
        if offset and offset * gap.denominator < gap.numerator * lx:
            return "offset inside the gap", v
    return None
