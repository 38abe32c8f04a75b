"""Finite presentations of reduced linearly ordered monoids.

A backend is a `MonoidSpec`: either an explicit positive generator list
(integers, rationals, or plane points) or a named truncated family with a
depth parameter.  On top of a spec we decide membership exactly, enumerate
divisors, compute atoms, and enumerate complete factorizations.

Every enumeration runs on scaled int coordinates (y, x): a rational q
becomes (q*L, 0) and a plane point (x, y) becomes (y*Ly, x*Lx), where the
scales clear every denominator of the basis and of the target.  The scaled
form of an element is one int for both ranks, y*K + x, where K = 1 for a
rank-1 spec and K = 2**64 for a rank-2 one; `Fraction` and `QPoint2` stay
in `encode`/`decode` and at the API boundary.  Membership, divisors, atoms
and factorizations share one engine, `_search`: a depth-first enumeration
of coefficient vectors over a descending basis, run from a plan built once
per (basis, scale), whose last two levels are swept in one budget spend,
with no frame for any of their nodes, and cut short once that spend
outruns the budget.  For rational bases the plan holds p-adic congruences:
the coefficient of a generator is forced into one residue class modulo
the primes of L that no later denominator carries, which is what keeps
truncated Puiseux families with large denominators tractable.  `_solve`
runs it over the atoms for `factorizations`, and for `atoms` over the
generators but the one tested, with no spec built for them; `_least` finds
the least factorizations on the same walk, memoized by (level, residual)
across calls, and charges a repeated subtree's nodes in one spend.
Membership verdicts, scaled divisor lists, set divisor enumerations, each
kept with its decomposition pairs, and the atom list live in one result
cache per spec, an `_Entry` with a named field for each; so do the pure
results that queries repeat, decoded elements, MCD lists, `_least`'s
memos and the power layer's pattern walks and V lists, each hit spending
what recomputing it would.  `clear_caches`
empties the cache.  A `_Query` holds a spec, its entry and a budget;
the scaled cores here and in `power` and `mcd` take one, and `member` and
`divisors` wrap `_Query.is_member` and `_divisors` in one encode and decode;
an element off the generators' lattice has no scaled form and is answered
there, at one node, so every scaled core searches the spec's plan.
A family spec is expanded once, when it is built, and equals its expansion.
Every value a spec derives from its generators, its scale, zero and hash
among them, is set then too; `functools.lru_cache` keeps only what queries
repeat, the plans and the family expansions.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .arith import (
    Element,
    InvalidInputError,
    QPoint2,
    QPOINT_ZERO,
    Rat,
    _den_primes,
    parse_element,
    primes_geq,
    render_element,
)

DEFAULT_BUDGET = 10**6
_MAX_GENERATORS = 512  # one search frame per generator, well inside the recursion limit

FAMILY_TAGS = ("EX44", "RANK2-5.3", "Q-ODDPRIMES")

class BudgetExceededError(RuntimeError):
    """A search ran out of its node budget; the query has no verdict."""


class TruncationError(RuntimeError):
    """A family truncation is too shallow for the requested computation."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class Budget:
    """A mutable node counter shared across the sub-searches of one query."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            # where node-by-node spending stops, also after a replayed cost
            self.used = self.limit + 1
            raise BudgetExceededError(f"search budget of {self.limit} nodes exceeded")


def as_budget(budget: "Budget | int | None") -> Budget:
    if budget is None:
        return Budget()
    if isinstance(budget, Budget):
        return budget
    return Budget(int(budget))


# ---------------------------------------------------------------------------
# Specs


@dataclass(frozen=True)
class MonoidSpec:
    """A finite presentation: explicit generators or a named truncated family.

    Generators are strictly positive, deduplicated, and sorted; truncated
    families expand deterministically given their depth (and, for the rank-2
    family, a finite sample of second-coordinate seeds).  A family spec
    holds its expansion's generators from construction.  Rank-2 generators
    must have a nonnegative first coordinate, because the rank-2 search
    prunes every residual with negative x.

    Two specs are equal iff their generators are: `kind`, `family`, `depth`
    and `sample` are labels that name the presentation, and take no part in
    `==` or the hash.  So a family spec equals its expansion, and
    `numerical(2, 3)` equals `puiseux(2, 3)`; equal specs share one
    result-cache entry.

    Every value derived from the generators is set once, when the spec is
    built, as `encode` and `decode` read them for every element: `is_rank2`;
    `pack`, the K of the scaled form; `zero`; the lattice `scale`, for a
    rank-1 spec the lcm L of the generator denominators, so every member
    lies in (1/L)Z, and for a rank-2 spec the pair (Ly, Lx) of the lcms of
    the y and of the x denominators; and the hash, the same in every
    process and kept out of `__eq__` and the repr, so that cache keys do
    not rehash every generator on each lookup.
    """

    kind: str = field(compare=False)  # numerical | puiseux | rank2 | family
    generators: tuple = ()
    family: Optional[str] = field(default=None, compare=False)
    depth: Optional[int] = field(default=None, compare=False)
    sample: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if self.kind == "family":
            if self.family not in FAMILY_TAGS:
                raise InvalidInputError(f"unknown family tag {self.family!r}")
            if self.depth is None or not 1 <= self.depth <= _MAX_GENERATORS:
                raise InvalidInputError(f"family depth must be from 1 to {_MAX_GENERATORS}")
            sample = tuple(sorted(set(self.sample)))
            object.__setattr__(self, "sample", sample)
            self._set_derived(expand_family(self.family, self.depth, sample).generators)
            return
        if self.kind not in ("numerical", "puiseux", "rank2"):
            raise InvalidInputError(f"unknown spec kind {self.kind!r}")
        gens = tuple(sorted(set(self.generators)))
        if not gens:
            raise InvalidInputError("empty generator list")
        if len(gens) < len(self.generators):
            raise InvalidInputError("duplicate generator after reduction")
        zero = QPOINT_ZERO if self.kind == "rank2" else Fraction(0)
        for g in gens:
            if self.kind == "rank2" and not isinstance(g, QPoint2):
                raise InvalidInputError("rank2 spec requires plane-point generators")
            if self.kind != "rank2" and isinstance(g, QPoint2):
                raise InvalidInputError("rank-1 spec requires rational generators")
            if not g > zero:
                raise InvalidInputError(f"generator {render_element(g)} is not strictly positive")
            if self.kind == "rank2" and g.x < 0:
                raise InvalidInputError(
                    f"rank2 generator {render_element(g)} has a negative first coordinate"
                )
        if self.kind == "numerical" and any(g.denominator != 1 for g in gens):
            raise InvalidInputError("numerical spec requires integer generators")
        self._set_derived(gens)

    def _set_derived(self, gens: tuple) -> None:
        """Set the generators and every value derived from them."""
        if len(gens) > _MAX_GENERATORS:
            raise InvalidInputError(f"a spec takes at most {_MAX_GENERATORS} generators")
        rank2 = isinstance(gens[0], QPoint2)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "is_rank2", rank2)
        object.__setattr__(self, "pack", _PACK if rank2 else 1)
        object.__setattr__(self, "zero", QPOINT_ZERO if rank2 else Fraction(0))
        object.__setattr__(self, "scale", _basis_scale(gens, rank2))
        object.__setattr__(self, "_hash", hash(gens))

    def __hash__(self) -> int:
        return self._hash

    # -- convenience constructors ------------------------------------------
    @classmethod
    def numerical(cls, *gens: int) -> "MonoidSpec":
        return cls("numerical", tuple(Fraction(g) for g in gens))

    @classmethod
    def puiseux(cls, *gens) -> "MonoidSpec":
        return cls("puiseux", tuple(Fraction(g) for g in gens))

    @classmethod
    def rank2(cls, *gens: QPoint2) -> "MonoidSpec":
        return cls("rank2", tuple(gens))

    @classmethod
    def of_family(cls, family: str, depth: int, sample: Iterable[Rat] = ()) -> "MonoidSpec":
        return cls("family", family=family, depth=depth, sample=tuple(sample))

    # ----------------------------------------------------------------------
    def expanded(self) -> "MonoidSpec":
        """The spec itself, as a family spec holds its expansion already.
        Nothing in the package calls it; it stays because perfbench's tracer
        wraps it and perfbench's workloads call it."""
        return self

    def check_element(self, q: Element) -> None:
        if self.is_rank2 != isinstance(q, QPoint2):
            raise InvalidInputError(
                f"element {render_element(q)} does not match spec of kind {self.kind!r}"
            )


def _ex44_generators(depth: int) -> tuple[Rat, ...]:
    # p[k] below is the (k+1)-th prime >= 5, p_{k+1} in the paper's indexing.
    p = primes_geq(5, 2 * depth)
    gens = []
    for n in range(depth):
        gens.append(Fraction(1, 2**n * p[2 * n + 1]))
        gens.append(Fraction(1, p[2 * n]) * (Fraction(1, 3) + Fraction(1, 2**n)))
    return tuple(gens)


def ex44_a1_atoms(depth: int) -> tuple[Rat, ...]:
    return tuple(g for i, g in enumerate(_ex44_generators(depth)) if i % 2 == 0)


def ex44_a2_atoms(depth: int) -> tuple[Rat, ...]:
    return tuple(g for i, g in enumerate(_ex44_generators(depth)) if i % 2 == 1)


@functools.lru_cache(maxsize=64)
def expand_family(family: str, depth: int, sample: tuple = ()) -> MonoidSpec:
    """The unlabelled puiseux or rank2 spec of a named truncated family, its
    sample a sorted tuple of distinct rationals; memoized, so the family
    specs of one (family, depth, sample) share one generator tuple."""
    if depth is None or not 1 <= depth <= _MAX_GENERATORS:
        raise InvalidInputError(f"family depth must be from 1 to {_MAX_GENERATORS}")
    if family == "EX44":
        return MonoidSpec("puiseux", _ex44_generators(depth))
    if family == "Q-ODDPRIMES":
        return MonoidSpec(
            "puiseux", tuple(Fraction(1, p) for p in primes_geq(3, depth))
        )
    if family == "RANK2-5.3":
        from .atomicity import rank2_atom  # deferred: atomicity builds on this module

        gens = [rank2_atom(Fraction(q), branch) for q in sample for branch in "AB"]
        gens += [QPoint2(Fraction(0), Fraction(1, 2**n)) for n in range(1, depth + 1)]
        return MonoidSpec("rank2", tuple(gens))
    raise InvalidInputError(f"unknown family tag {family!r}")


# ---------------------------------------------------------------------------
# The coefficient search


def _lattice(b: Element, base) -> tuple:
    """(scale, y, x): the coarsest scale that clears the denominators of b
    and of a basis of scale `base`, and b's int coordinates at that scale.

    A rational q becomes (q*L, 0); a plane point becomes (y*Ly, x*Lx), its
    scale the pair (Ly, Lx).
    """
    if isinstance(b, QPoint2):
        (ly, y, _), (lx, x, _) = _lattice(b.y, base[0]), _lattice(b.x, base[1])
        return (ly, lx), y, x
    scale = math.lcm(base, b.denominator)
    return scale, b.numerator * (scale // b.denominator), 0


def _basis_scale(basis: tuple, rank2: bool):
    if rank2:
        return _basis_scale([g.y for g in basis], False), _basis_scale([g.x for g in basis], False)
    return math.lcm(*(g.denominator for g in basis))


@functools.lru_cache(maxsize=256)
def _plan(ordered: tuple, scale) -> tuple:
    """The per-level table of the coefficient search over a descending basis.

    Level i holds (gy, gx, more_y, more_x, d, step, inv): the scaled
    generator; whether a generator from level i on has a positive y, resp.
    x; and the congruence on the coefficient k of a rank-1 generator.  The
    residual after k copies is a sum of later generators, whose denominators
    carry none of the primes of R, the part of L over primes that divide no
    later denominator; so k*gy = y (mod R).  With d = gcd(gy, R), a residual
    y admits a k iff d divides y, and then k = (y/d)*inv (mod step), step =
    R/d.  Rank-2 levels carry no congruence (d = step = 1).
    """
    rank2 = isinstance(scale, tuple)
    later: set = set()  # the primes of the later denominators
    more_y = more_x = False
    plan = []
    for g in reversed(ordered):
        _, gy, gx = _lattice(g, scale)
        d = step = 1
        if not rank2:
            r = scale
            for p in later:
                while r % p == 0:
                    r //= p
            d = math.gcd(gy, r)
            step = r // d
            later.update(_den_primes(g.denominator))
        more_y, more_x = more_y or gy > 0, more_x or gx > 0
        plan.append((gy, gx, more_y, more_x, d, step, pow(gy // d, -1, step)))
    return tuple(reversed(plan))


def _search(
    plan: tuple, i: int, y: int, x: int,
    budget: Budget, first_only: bool, results: list, prefix: list,
) -> bool:
    """Depth-first search for the coefficients of levels i.. of a plan that
    write the scaled residual (y, x); each node spends one budget unit.

    The last two levels are swept in one charge: a node of the
    second-to-last level tests each child itself, enters none, and spends
    one unit per child it visits and one per leaf below it in one `spend`
    after the sweep, which stops once that charge outruns the budget; a
    one-level plan charges its leaves the same way.  A level's leaves are
    the k = k0, k0 + step, ... <= kmax, with 0 <= k0 < step and kmax >= 0,
    so there are (kmax - k0) // step + 1 of them, 0 when k0 > kmax, counted
    without a `range`, whose length overflows past 2**63.  A leaf is a hit
    only if its residual is zero: k*gy = y and k*gx = x.  Then
    y // gy = k where gy > 0 and x // gx = k where gx > 0, so k = kmax; and
    k*gy = y meets the level's congruence, so kmax is then in the range.
    Only kmax is tested.  A child's residual needs no sign test: k <= kmax
    and gx >= 0 keep it nonnegative.
    """
    budget.spend()  # nodes: one per search frame
    levels = len(plan) - i
    if not y and not x:
        results.append(tuple(prefix) + (0,) * levels)
        return True
    if y < 0 or x < 0:
        return False
    gy, gx, more_y, more_x, d, step, inv = plan[i]
    if (y and not more_y) or (x and not more_x) or y % d:
        return False
    kmax = y // gy if gy else x // gx
    if gy and gx:
        kmax = min(kmax, x // gx)
    k0 = y // d * inv % step
    if levels == 1:
        budget.spend((kmax - k0) // step + 1)  # nodes: one per leaf of the last level
        if kmax * gy == y and kmax * gx == x:
            results.append((*prefix, kmax))
            return True
        return False
    found = False
    if levels == 2:
        gy1, gx1, more_y1, more_x1, d1, step1, inv1 = plan[-1]
        room, spent = budget.limit - budget.used, 0
        for k in range(k0, kmax + 1, step):
            if spent > room:
                break
            cy, cx = y - k * gy, x - k * gx
            spent += 1
            if not cy and not cx:
                results.append((*prefix, k, 0))
            elif (cy and not more_y1) or (cx and not more_x1) or cy % d1:
                continue
            else:
                kmax = cy // gy1 if gy1 else cx // gx1
                if gy1 and gx1:
                    kmax = min(kmax, cx // gx1)
                spent += (kmax - cy // d1 * inv1 % step1) // step1 + 1
                if kmax * gy1 != cy or kmax * gx1 != cx:
                    continue
                results.append((*prefix, k, kmax))
            found = True
            if first_only:
                break
        budget.spend(spent)  # nodes: one per child of the frame and per leaf below it
        return found
    for k in range(k0, kmax + 1, step):
        prefix.append(k)
        ok = _search(plan, i + 1, y - k * gy, x - k * gx, budget, first_only, results, prefix)
        prefix.pop()
        if ok:
            if first_only:
                return True
            found = True
    return found


def _least(plan: tuple, i: int, y: int, x: int, budget: Budget, memo: dict, k: int) -> list:
    """The k least reversed suffixes (coefficients of levels n-1 down to i)
    of the hits of `_search`'s subtree at (i, y, x), at its node count;
    `memo` maps (i, y, x) to both, so a repeated subtree is one `spend`, and
    a walk the budget cuts short raises before it is stored.  The memo is
    kept in the spec's entry, so a later call replays what an earlier one
    walked.  A subtree of at most two levels, or a zero residual, is
    `_search`'s."""
    entry = memo.get((i, y, x))
    if entry is not None:
        budget.spend(entry[0])  # nodes: a repeated subtree's recorded count
        return entry[1]
    used, levels = budget.used, len(plan) - i
    best: list = []
    if levels <= 2 or not (y or x):
        _search(plan, i, y, x, budget, False, best, [])
        best = sorted(h[::-1] for h in best)[:k]
    else:
        budget.spend()  # nodes: one per frame above the last two levels
        gy, gx, more_y, more_x, d, step, inv = plan[i]
        if y >= 0 and x >= 0 and (more_y or not y) and (more_x or not x) and not y % d:
            kmax = y // gy if gy else x // gx
            if gy and gx:
                kmax = min(kmax, x // gx)
            for c in range(y // d * inv % step, kmax + 1, step):
                child = _least(plan, i + 1, y - c * gy, x - c * gx, budget, memo, k)
                best = sorted(best + [s + (c,) for s in child])[:k]
    memo[i, y, x] = budget.used - used, best
    return best


def _solve(
    basis: tuple, b: Element, budget: Budget, first_only: bool,
    limit: Optional[int] = None, memos: Optional[dict] = None,
) -> list:
    """The sorted coefficient vectors writing b over an ascending basis of
    distinct positive elements; with `first_only`, at most the first found.
    A `limit` keeps the least `limit` vectors, by `_least`, whose memo for
    the walk's scale and the limit is kept in `memos`: b's denominator can
    make that scale finer than the basis's, and the kept suffixes depend on
    the limit."""
    ordered = basis[::-1]
    scale, y, x = _lattice(b, _basis_scale(ordered, isinstance(b, QPoint2)))
    plan = _plan(ordered, scale)
    if limit is not None:
        return _least(plan, 0, y, x, budget, memos.setdefault((scale, limit), {}), limit)
    results: list = []
    _search(plan, 0, y, x, budget, first_only, results, [])
    return sorted(vec[::-1] for vec in results)


def representations(
    b: Element, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> list[tuple[int, ...]]:
    """All coefficient vectors writing b over the spec's (sorted) generators."""
    spec.check_element(b)
    return _solve(spec.generators, b, as_budget(budget), False)


class _Entry:
    """The result cache of one spec, so a repeated query of each kind is
    one lookup.  A hit spends what recomputing would spend against the same
    cache, so no field moves a node count.

    `verdicts` maps a scaled element to its membership verdict and `divisors`
    to its scaled divisors, an ascending tuple; `plan` is the search plan over
    the spec's generators at its scale; `enumerations` is `power._kept`'s,
    and maps a scaled set to None once it has been enumerated, then to the
    record [its divisor map {U: (C, covers)} or None until
    `power._anchored_divisors` has built it, the nodes an uncached rerun
    spends, its decomposition pairs or None until `power._decompositions`
    has built them]; only `power` reads or writes it, and a replay of
    either slot spends the count.  `atoms` is the
    atom tuple once `atoms` has completed, None before.

    The rest keep pure results that queries repeat:
    - `elements` maps a scaled element to its decoded one (`decode`); a hit
      spends 0, as decoding charges nothing;
    - `mcds` maps a scaled set to its scaled MCDs (`mcd._mcd`); a hit spends
      0, as a rerun reads only divisor lists the first run cached;
    - `least` maps (scale, k) to the memo of `_least` over the atoms at that
      scale, kept for k least vectors; a replayed subtree spends its count;
    - `walks` maps a set's offsets from its minimum, rel, to the pattern
      walks of `power._anchor_walks` over it, and `picks` a covers
      tuple to the V's of `power._decompositions`; both charge nothing, so
      a hit spends 0, and only `power` reads or writes them.
    """

    __slots__ = (
        "verdicts", "divisors", "plan", "enumerations", "atoms", "elements", "mcds", "least",
        "walks", "picks",
    )

    def __init__(self, spec: MonoidSpec):
        self.verdicts, self.divisors, self.enumerations, self.atoms = {}, {}, {}, None
        self.elements, self.mcds, self.least, self.walks, self.picks = {}, {}, {}, {}, {}
        self.plan = _plan(spec.generators[::-1], spec.scale)


# The one result cache, keyed by generators: a family spec shares the entry
# of its expansion.  The searches of `atoms` add no entry.
_cache: dict[MonoidSpec, _Entry] = {}


# A rank-2 point with int coordinates (y, x) is packed as y*_PACK + x.
_PACK = 1 << 64
# The bound on |x| that `encode` accepts.  A core forms each x it meets as a
# sum or difference of at most four encoded x's, so |x| < 2**62 stays inside
# [-_PACK/2, _PACK/2), where the packing is exact.
_X_BOUND = 1 << 60


def encode(q: Element, spec: MonoidSpec) -> Optional[int]:
    """The scaled form of an element of a spec: for coordinates (y, x) at the
    spec's scale, the int y*K + x, where K = spec.pack.

    A rank-1 element of (1/L)Z becomes the int q*L, where L = spec.scale,
    and a rank-2 point on the lattice (1/Lx)Z x (1/Ly)Z becomes
    y*2**64 + x, so sums, differences and the lexicographic order of points
    are those of ints.  An element off the lattice lies outside M and has
    no scaled form: None.  A point whose |x| reaches 2**60 is refused, so
    that no sum a core forms leaves the range in which `decode` recovers x.
    """
    if spec.is_rank2:
        ly, lx = spec.scale
        y, ry = divmod(q.y.numerator * ly, q.y.denominator)
        x, rx = divmod(q.x.numerator * lx, q.x.denominator)
        if ry or rx:
            return None
        if not -_X_BOUND < x < _X_BOUND:
            raise InvalidInputError(
                f"point {render_element(q)} is too far from the y-axis: its x times"
                f" {lx} must be below 2**60 in absolute value"
            )
        return y * _PACK + x
    n, r = divmod(q.numerator * spec.scale, q.denominator)
    return None if r else n


def _split(n: int, pack: int) -> tuple:
    """The int coordinates (y, x) of the scaled element n = y*pack + x on a
    spec's lattice: x is the balanced remainder, in [-pack/2, pack/2), so a
    difference with x < 0 comes back as it was formed; (n, 0) for pack 1."""
    x = (n + (pack >> 1)) % pack - (pack >> 1)
    return (n - x) // pack, x


def decode(n, spec: MonoidSpec) -> Element:
    """The element whose scaled form over a spec is n, kept in the spec's
    result-cache entry once it has one, so a repeat is one lookup."""
    return decode_all((n,), spec)[0]


def decode_all(ns, spec: MonoidSpec) -> list:
    """`decode` of each scaled element of ns, in order, with one lookup of
    the spec's entry for the whole list."""
    entry = _cache.get(spec)
    if entry is None:
        return [_decoded(n, spec) for n in ns]
    elements, out = entry.elements, []
    for n in ns:
        e = elements.get(n)
        if e is None:
            e = elements[n] = _decoded(n, spec)
        out.append(e)
    return out


def _decoded(n, spec: MonoidSpec) -> Element:
    if not spec.is_rank2:
        return Fraction(n, spec.scale)
    y, x = _split(n, _PACK)
    ly, lx = spec.scale
    return QPoint2(Fraction(x, lx), Fraction(y, ly))


class _Query:
    """One query over a spec: the spec, its result-cache entry, made on first
    use, and the `Budget` its searches charge.  A public function builds one
    per call, a suite one per spec; the scaled cores take it."""

    __slots__ = ("spec", "entry", "budget")

    def __init__(self, spec: MonoidSpec, budget: Budget):
        entry = _cache.get(spec)
        if entry is None:
            entry = _cache[spec] = _Entry(spec)
        self.spec, self.entry, self.budget = spec, entry, budget

    def is_member(self, n: int) -> bool:
        """Membership of the scaled element n >= 0; a cache miss searches."""
        entry = self.entry
        ok = entry.verdicts.get(n)
        if ok is None:
            y, x = _split(n, self.spec.pack)
            ok = entry.verdicts[n] = _search(entry.plan, 0, y, x, self.budget, True, [], [])
        return ok


def _on_lattice(b: Element, spec: MonoidSpec, budget: Budget) -> Optional[int]:
    """The scaled form of b, or None when b lies outside M with no search:
    below zero, where no element of M lies, at no node; or off the
    generators' lattice, at one node.  Either verdict costs the same cold
    or warm and touches no cache, and `member`, `divisors` and
    `atomicity.atom_divisors` each take it from here."""
    if b < spec.zero:
        return None
    n = encode(b, spec)
    if n is None:
        budget.spend()  # nodes: one per element off the lattice
    return n


def member(q: Element, spec: MonoidSpec, budget: "Budget | int | None" = None) -> bool:
    """Exact membership: is q a nonnegative-integer combination of generators?
    An element below zero or off the generators' lattice is not, by
    `_on_lattice`."""
    spec.check_element(q)
    bud = as_budget(budget)
    n = _on_lattice(q, spec, bud)
    return n is not None and _Query(spec, bud).is_member(n)


def _divisors(n: int, q: _Query) -> tuple:
    """The divisors of the scaled element n of q's spec, scaled and ascending.

    Every divisor is a sub-multiset sum of some generator representation of
    n.  The coefficient search enumerates the representations, and the
    sorted sums are cached under n.  Each sub-multiset of a representation
    costs one node, spent for the whole representation in one charge before
    its sums are expanded generator by generator; so a budget that runs out
    stops at limit + 1, as it would node by node, with nothing cached.
    """
    entry, bud, pack = q.entry, q.budget, q.spec.pack
    out = entry.divisors.get(n)
    if out is None:
        reps: list = []
        _search(entry.plan, 0, *_split(n, pack), bud, False, reps, [])
        found: set = set()
        # a level's scaled generator is gy*K + gx
        for vec in reps:
            used = [(level[0] * pack + level[1], c) for level, c in zip(entry.plan, vec) if c]
            bud.spend(math.prod(c + 1 for _, c in used))  # nodes: prod(c + 1) sub-multisets
            sums = {0}
            for g, c in used:
                sums = {s + k * g for s in sums for k in range(c + 1)}
            found |= sums
        out = entry.divisors[n] = tuple(sorted(found))
    return out


def divisors(b: Element, spec: MonoidSpec, budget: "Budget | int | None" = None) -> list:
    """The full divisor set {d in M : d | b}, sorted: `_divisors` of the
    scaled b, decoded.  An element below zero or off the generators'
    lattice has none, by `_on_lattice`."""
    spec.check_element(b)
    bud = as_budget(budget)
    n = _on_lattice(b, spec, bud)
    return [] if n is None else decode_all(_divisors(n, _Query(spec, bud)), spec)


def atoms(spec: MonoidSpec, budget: "Budget | int | None" = None) -> list:
    """Generators that are not sums of the remaining generators.

    Shortcut: a generator whose denominator carries a prime that no other
    generator's denominator does can never be expressed over the others, so
    it is an atom without any search.  The finished list is kept in the
    spec's result-cache entry, so a repeated call costs one lookup; a search
    cut short by the budget keeps nothing.
    """
    bud = as_budget(budget)
    entry = _Query(spec, bud).entry
    if entry.atoms is None:
        gens = spec.generators
        out = []
        for i, g in enumerate(gens):
            others = gens[:i] + gens[i + 1:]
            lone_prime = not spec.is_rank2 and any(
                all(h.denominator % p for h in others) for p in _den_primes(g.denominator)
            )
            if not others or lone_prime or not _solve(others, g, bud, True):
                out.append(g)
        entry.atoms = tuple(out)
    return list(entry.atoms)


def _scaled_atoms(q: _Query) -> tuple:
    """The scaled atoms of q's spec, ascending: `atoms`, encoded."""
    return tuple([encode(a, q.spec) for a in atoms(q.spec, q.budget)])


@dataclass(frozen=True)
class Factorization:
    """A multiset of (atom, multiplicity) pairs summing to the factored element."""

    parts: tuple  # tuple[(Element, int), ...] sorted by atom, multiplicities >= 1

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(sorted(self.parts)))
        if any(m < 1 for _, m in self.parts):
            raise InvalidInputError("factorization multiplicities must be >= 1")

    @classmethod
    def _ascending(cls, parts: tuple) -> "Factorization":
        """The Factorization of parts already sorted by atom, multiplicities >= 1."""
        f = object.__new__(cls)
        object.__setattr__(f, "parts", parts)
        return f

    def total(self, zero: Optional[Element] = None) -> Element:
        """The sum of the parts, from `zero`: by default the zero of their kind."""
        if zero is None:
            zero = 0 * self.parts[0][0] if self.parts else Fraction(0)
        return sum((m * a for a, m in self.parts), zero)

    def __iter__(self):
        return iter(self.parts)

    def render(self) -> str:
        if not self.parts:
            return "(empty)"
        return " + ".join(f"{m}*({render_element(a)})" for a, m in self.parts)


def factorizations(
    b: Element, spec: MonoidSpec, budget: "Budget | int | None" = None,
    limit: Optional[int] = None,
) -> list[Factorization]:
    """The complete list Z(b) of factorizations of b into atoms, ascending.

    With `limit` k >= 1, only the first k of that list, found by a walk
    that replays each repeated subtree in one charge: `Budget.used` is that
    of the complete list, and only the kept factorizations are built.
    """
    if limit is not None and (type(limit) is not int or limit < 1):
        raise InvalidInputError(f"factorization limit must be an int >= 1, not {limit!r}")
    spec.check_element(b)
    q = _Query(spec, as_budget(budget))
    atom_tuple = tuple(atoms(spec, q.budget))
    # the atoms ascend, so each vector's nonzero parts do too
    return [
        Factorization._ascending(tuple((a, c) for a, c in zip(atom_tuple, vec) if c))
        for vec in _solve(atom_tuple, b, q.budget, False, limit, q.entry.least)
    ]


def members_upto(
    spec: MonoidSpec, bound: Rat, budget: "Budget | int | None" = None
) -> list:
    """All members of a rank-1 spec in [0, bound], sorted."""
    if spec.is_rank2:
        raise InvalidInputError("members_upto supports rank-1 specs only")
    if bound < 0:
        return []
    # descending, as the search plan orders them
    gens = [encode(g, spec) for g in spec.generators[::-1]]
    found: set = set()
    _walk(gens, 0, 0, math.floor(bound * spec.scale), as_budget(budget), found)
    return decode_all(sorted(found), spec)


def _walk(gens: list, i: int, acc: int, top: int, bud: Budget, found: set) -> None:
    """Add to `found` every acc + a combination of gens[i:] up to top; each
    node spends one budget unit."""
    bud.spend()  # nodes: one per frame of the member walk
    found.add(acc)
    if i == len(gens):
        return
    g = gens[i]
    for k in range((top - acc) // g + 1):
        _walk(gens, i + 1, acc + k * g, top, bud, found)


def clear_caches() -> None:
    _cache.clear()
    _plan.cache_clear()
    expand_family.cache_clear()


# ---------------------------------------------------------------------------
# Spec file grammar, shared by library and CLI:
#   kind numerical|puiseux|rank2|family
#   gens 2, 3            (or rationals `1/7, 4/15`, or points `(0,1/2), ...`)
#   family EX44 depth 3  (`family EX44` alone is depth 1)
#   sample 7/3, 32/15    (seeds for the RANK2-5.3 family)
# `gens` is for the explicit kinds only, `family` for kind family (implied
# when `kind` is missing), and `sample` for the RANK2-5.3 family only.


def _split_top_level(text: str) -> list[str]:
    # split on commas that are not inside parentheses
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def parse_monoid_spec(text: str) -> MonoidSpec:
    kind = None
    gens: list[Element] = []
    family = None
    depth = 1
    sample: list[Rat] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if word == "kind":
                kind = rest
            elif word == "gens":
                gens.extend(parse_element(t) for t in _split_top_level(rest))
            elif word == "family":
                fields = rest.split()
                if not fields:
                    raise InvalidInputError("`family` needs a family tag")
                family = fields[0]
                if len(fields) > 1:
                    if len(fields) != 3 or fields[1] != "depth":
                        raise InvalidInputError(f"expected `family {family} depth N`")
                    try:
                        depth = int(fields[2])
                    except ValueError:
                        raise InvalidInputError(f"bad family depth {fields[2]!r}") from None
            elif word == "sample":
                sample.extend(Fraction(parse_element(t)) for t in _split_top_level(rest))
            else:
                raise InvalidInputError(f"unknown directive {word!r}")
        except InvalidInputError as exc:
            raise InvalidInputError(f"line {lineno}: {exc}") from exc
    if kind == "family" or (kind is None and family is not None):
        if gens:
            raise InvalidInputError("a family spec takes no `gens`")
        if sample and family != "RANK2-5.3":
            raise InvalidInputError("only the RANK2-5.3 family takes a `sample`")
        return MonoidSpec.of_family(family, depth, sample)
    if kind is None:
        raise InvalidInputError("missing `kind` directive")
    if family is not None or sample:
        raise InvalidInputError("`family` and `sample` need `kind family`")
    return MonoidSpec(kind, tuple(gens))


def render_monoid_spec(spec: MonoidSpec) -> str:
    if spec.kind == "family":
        lines = ["kind family", f"family {spec.family} depth {spec.depth}"]
        if spec.sample:
            lines.append("sample " + ", ".join(render_element(q) for q in spec.sample))
        return "\n".join(lines) + "\n"
    gens = ", ".join(render_element(g) for g in spec.generators)
    return f"kind {spec.kind}\ngens {gens}\n"
