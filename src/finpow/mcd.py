"""Common divisors, maximal common divisors, the residue-class invariant of
atoms with a unique negative p-adic valuation, and the witness machinery for
the truncated family whose pair {1, 4/3} has no maximal common divisor.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import InvalidInputError, Rat, is_prime, vp_value
from .backend import (
    Budget,
    BudgetExceededError,
    MonoidSpec,
    TruncationError,
    as_budget,
    divisors,
    ex44_a1_atoms,
    expand_family,
    factorizations,
    member,
    members_upto,
    membership,
    memoized,
)
from .power import (
    FinSet,
    _anchored_divisors,
    _decode_set,
    _encode_set,
    _scaled_divisors,
    divides_in_P,
    singleton,
    sumset,
    zero_set,
)


def common_divisors(
    s: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> list:
    """Intersection of the divisor sets of the elements of s."""
    bud = as_budget(budget)
    spec = spec.expanded()
    out: Optional[set] = None
    for e in s:
        ds = set(divisors(e, spec, bud))
        out = ds if out is None else out & ds
    return sorted(out)


def mcd(s: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None) -> list:
    """All maximal common divisors of s: common divisors d such that the
    shifted set {e - d} has no common divisor besides 0."""
    bud = as_budget(budget)
    spec = spec.expanded()
    out = []
    for d in common_divisors(s, spec, bud):
        shifted = FinSet(tuple(e - d for e in s))
        if common_divisors(shifted, spec, bud) == [spec.zero]:
            out.append(d)
    return out


@dataclass(frozen=True)
class McdSampleReport:
    status: str  # "mcd-monoid" | "counterexample" | "no-mcd-within-truncation"
    counterexample: Optional[FinSet] = None
    chain: tuple = ()

    @property
    def ok(self) -> Optional[bool]:
        if self.status == "mcd-monoid":
            return True
        if self.status == "counterexample":
            return False
        return None


def is_mcd_monoid_sample(
    spec: MonoidSpec,
    k: int,
    bound: Optional[Rat] = None,
    sample: Optional[FinSet] = None,
    budget: "Budget | int | None" = None,
) -> McdSampleReport:
    """Check MCD existence for every subset of M within a bound, or probe one
    sampled subset of a truncated family via the witness-chain ascent.

    With `bound`, every subset of M intersect [0, bound] of cardinality <= k
    is checked exhaustively.  With `sample` on the EX44 family, the ascent
    machinery climbs common divisors until the truncation runs out; MCD
    nonexistence in the infinite monoid is only ever *evidenced* by the
    chain, never asserted.
    """
    if k < 1:
        raise InvalidInputError("cardinality bound must be >= 1")
    bud = as_budget(budget)
    if sample is not None:
        if spec.kind != "family" or spec.family != "EX44":
            raise InvalidInputError("sampled MCD probing is supported for EX44 only")
        try:
            steps = ex44_chain(spec.depth + 2, spec.depth, bud)
        except TruncationError as exc:
            return McdSampleReport(
                "no-mcd-within-truncation", chain=tuple(exc.partial or ())
            )
        return McdSampleReport("no-mcd-within-truncation", chain=tuple(steps))
    if bound is None:
        raise InvalidInputError("either bound or sample is required")
    elems = members_upto(spec, bound, bud)
    for size in range(1, k + 1):
        for combo in itertools.combinations(elems, size):
            s = FinSet(combo)
            if not mcd(s, spec, bud):
                return McdSampleReport("counterexample", counterexample=s)
    return McdSampleReport("mcd-monoid")


# ---------------------------------------------------------------------------
# Power-monoid MCDs


def p_divisors(
    t: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> list[FinSet]:
    """All divisors of t in the power monoid, including {0} and t itself."""
    spec = spec.expanded()
    divs = _anchored_divisors(_encode_set(t, spec), spec, as_budget(budget))
    return [_decode_set(u, spec) for u in sorted(u for u, _, _ in divs)]


def mcd_in_P(
    family: list[FinSet], spec: MonoidSpec, budget: "Budget | int | None" = None
) -> list[FinSet]:
    """Maximal common divisors of a family of finite sets in the power monoid.

    Induction: strip non-singleton common divisors while any exist; once all
    common divisors are singletons, the problem reduces to a monoid-level MCD
    of the union of the residual family.
    """
    if not family:
        raise InvalidInputError("empty family")
    spec = spec.expanded()
    bud = as_budget(budget)
    fam = list(family)
    stripped = zero_set(spec)
    while True:
        common: Optional[set] = None
        for t in fam:
            ds = {u for u, _, _ in _anchored_divisors(_encode_set(t, spec), spec, bud)}
            common = ds if common is None else common & ds
        # scaled divisors sort as their decoded sets do
        nonsingleton = sorted(u for u in common if len(u) >= 2)
        if not nonsingleton:
            break
        d = _decode_set(nonsingleton[0], spec)
        fam = [divides_in_P(d, t, spec, bud) for t in fam]
        stripped = sumset(stripped, d)
    union = FinSet(tuple(e for t in fam for e in t))
    m_level = mcd(union, spec, bud)
    if not m_level:
        raise TruncationError(
            "monoid-level MCD reduction inconclusive within truncation",
            partial=stripped,
        )
    return sorted(
        (sumset(stripped, singleton(m0)) for m0 in m_level), key=lambda f: f.elems
    )


# ---------------------------------------------------------------------------
# The residue-class invariant c_{a,p}


@dataclass(frozen=True)
class ResidueClass:
    modulus: int
    residue: int

    def __post_init__(self):
        if not is_prime(self.modulus):
            raise InvalidInputError("residue modulus must be prime")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def __add__(self, other: "ResidueClass") -> "ResidueClass":
        if self.modulus != other.modulus:
            raise InvalidInputError("mismatched moduli")
        return ResidueClass(self.modulus, self.residue + other.residue)

    def __repr__(self) -> str:
        return f"{self.residue} mod {self.modulus}"


@memoized(maxsize=256)
def _check_cap_preconditions(a: Rat, p: int, spec: MonoidSpec) -> None:
    """Raise unless (a, p) is a cap pair of the expanded spec.  A pair that
    passes is remembered until `clear_caches`; one that fails raises on
    every call."""
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    if a not in spec.generators:
        raise InvalidInputError(f"{a} is not a generator")
    if a == 0 or vp_value(p, a) != -1:
        raise InvalidInputError(f"generator {a} does not have valuation -1 at {p}")
    for g in spec.generators:
        if g != a and g.denominator % p == 0:
            raise InvalidInputError(
                f"prime {p} divides the denominator of another generator ({g})"
            )


def _residue(q: Rat, a: Rat, p: int) -> int:
    """(q/a) mod p for a prime p, on ints: the p's shared by numerator and
    denominator cancel, and one left in the denominator means v_p(q/a) < 0."""
    num, den = q.numerator * a.denominator, q.denominator * a.numerator
    while den % p == 0:
        if num % p:
            raise InvalidInputError(f"{q} admits no residue at ({a}, {p})")
        num, den = num // p, den // p
    return num * pow(den, -1, p) % p


def cap_residue(q: Rat, a: Rat, p: int, spec: MonoidSpec) -> ResidueClass:
    """The residue class mod p of the number of copies of atom a in any
    expression of q over the generators.  Well defined because p divides the
    denominator of a alone."""
    _check_cap_preconditions(a, p, spec.expanded())
    return ResidueClass(p, _residue(q, a, p))


def cap_constant_on(s: FinSet, a: Rat, p: int, spec: MonoidSpec) -> bool:
    """True iff every element of s has the same residue at (a, p); the
    preconditions on (a, p) are checked once for the whole set."""
    _check_cap_preconditions(a, p, spec.expanded())
    return len({_residue(q, a, p) for q in s}) == 1


# ---------------------------------------------------------------------------
# The MCD-failure witness chain for the EX44 family


@dataclass(frozen=True)
class McdWitnessStep:
    """One ascent step: from a common divisor q of {1, 4/3}, the dyadic
    increment 1/2^(n+1) is again a common divisor of {1 - q, 4/3 - q}.

    The residual certificates factor 1 - q - increment and 4/3 - q -
    increment, so the whole step can be re-verified by pure addition.
    """

    q: Rat
    n: int
    increment: Rat
    residual_certificates: tuple  # (Factorization of 1-q-inc, of 4/3-q-inc)

    @property
    def next_divisor(self) -> Rat:
        return self.q + self.increment


def ex44_witness(
    q: Rat, depth: int, budget: "Budget | int | None" = None
) -> McdWitnessStep:
    """Given a common divisor q of {1, 4/3} in the depth-truncated EX44
    monoid, produce the dyadic increment that strictly improves it."""
    bud = as_budget(budget)
    spec = expand_family("EX44", depth)
    one, four_thirds = Fraction(1), Fraction(4, 3)
    if not (member(one - q, spec, bud) and member(four_thirds - q, spec, bud)):
        raise InvalidInputError(f"{q} is not a common divisor of {{1, 4/3}}")
    a1_spec = MonoidSpec("puiseux", ex44_a1_atoms(depth))
    pivot = None
    for n in range(depth):
        r = four_thirds - q - (Fraction(1, 3) + Fraction(1, 2**n))
        if r >= 0 and member(r, a1_spec, bud):
            pivot = n
            break
    if pivot is None:
        raise TruncationError(
            f"no pivot index below depth {depth} for divisor {q}"
        )
    inc = Fraction(1, 2 ** (pivot + 1))
    certs = []
    for target in (one - q - inc, four_thirds - q - inc):
        facs = factorizations(target, spec, bud)
        if not facs:
            raise TruncationError(
                f"residual {target} has no factorization at depth {depth}"
            )
        certs.append(facs[0])
    return McdWitnessStep(q, pivot, inc, tuple(certs))


def ex44_chain(
    length: int, depth: int, budget: "Budget | int | None" = None
) -> list[McdWitnessStep]:
    """Iterate the witness ascent from q = 0, producing the strictly
    increasing common divisors 0 < 1/2 < 3/4 < ... of {1, 4/3}."""
    if length < 1:
        raise InvalidInputError("chain length must be >= 1")
    bud = as_budget(budget)
    steps: list[McdWitnessStep] = []
    q = Fraction(0)
    for _ in range(length):
        try:
            step = ex44_witness(q, depth, bud)
        except TruncationError as exc:
            raise TruncationError(str(exc), partial=steps) from exc
        steps.append(step)
        q = step.next_divisor
    return steps


def chain_divisors(steps: list[McdWitnessStep]) -> list[Rat]:
    """The ascending divisor values visited by a witness chain."""
    if not steps:
        return [Fraction(0)]
    return [steps[0].q] + [s.next_divisor for s in steps]


# ---------------------------------------------------------------------------
# The no-atom-divisor hypothesis check


def _singleton_divisors(s: tuple, spec: MonoidSpec, bud: Budget) -> list:
    """The scaled x with {x} dividing the scaled set s."""
    is_member = membership(spec, bud)
    return [
        x for x in _scaled_divisors(s[0], spec, bud)
        if all(is_member(e - x) for e in s)
    ]


def leo4_no_atom_divides(
    t: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> Optional[bool]:
    """Check the hypothesis under which no power-monoid atom divides t.

    For every non-invertible divisor S of t and every singleton {x} dividing
    S, the translate of S by -x must admit a nonzero singleton divisor {y}
    with {y} != S.  Returns True when the hypothesis holds on the complete
    divisor set (hence no atom divides t), False with an implicit witness
    when it fails, and None when the search budget ran out.
    """
    spec = spec.expanded()
    if spec.is_rank2:
        raise InvalidInputError("supported on rank-1 specs only")
    bud = as_budget(budget)
    try:
        divs = sorted(u for u, _, _ in _anchored_divisors(_encode_set(t, spec), spec, bud))
        for s in divs:
            if s == (0,):
                continue
            for x in _singleton_divisors(s, spec, bud):
                shifted = tuple(e - x for e in s)
                ok = any(
                    y != 0 and (y,) != s
                    for y in _singleton_divisors(shifted, spec, bud)
                )
                if not ok:
                    return False
        return True
    except BudgetExceededError:
        return None
