"""Common divisors, maximal common divisors, the residue-class invariant of
atoms with a unique negative p-adic valuation, and the witness machinery for
the truncated family whose pair {1, 4/3} has no maximal common divisor.

MCDs at both levels run on the scaled elements of `power`, encoded once on
entry and decoded once on return; `mcd_in_P` strips a common divisor with
the cofactor that the anchored divisor enumeration maps it to.  The common
divisors of a scaled set have one algorithm, `_common_divisors`, the
intersection of its elements' divisor lists; `_mcd`, the singleton branch
of `atomicity._p_furstenberg_divisor` and `common_divisors` all read it.
The scaled cores `_mcd` and `_mcd_in_P` also serve the prop-4.1 suite,
and neither comes back empty on sets of members, as a spec is finitely
generated.  A set outside P_fin(M) is rejected, from the
divisor lists `_common_divisors` reads or by the anchored enumeration.
The result cache keeps each set's MCD list, replayed at the node cost of
recomputing it; that is the only field of it this module reads, as a
set's kept divisor map is `power`'s, read through `_anchored_divisors`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import InvalidInputError, Rat, is_prime, render_element, vp_value
from .backend import (
    Budget,
    MonoidSpec,
    TruncationError,
    _Query,
    as_budget,
    decode,
    ex44_a1_atoms,
    expand_family,
    factorizations,
    member,
)
from .power import (
    FinSet,
    _anchored_divisors,
    _decode_set,
    _encode_set,
    _scaled_divisors,
    _sumset,
)


def _common_divisors(s: tuple, q: _Query) -> list:
    """The scaled common divisors of the scaled set s, ascending.  Every
    member has the divisor 0, so an element with none is outside M, and the
    set is rejected."""
    out = None
    for e in s:
        divs = _scaled_divisors(e, q)
        if not divs:
            raise InvalidInputError(f"{render_element(decode(e, q.spec))} is not in the monoid")
        if out is None:
            out = set(divs)
        else:
            out.intersection_update(divs)
    return sorted(out)


def _mcd(s: tuple, q: _Query) -> list:
    """The scaled maximal common divisors of the scaled set s, ascending,
    kept in the result cache: a rerun reads only divisor lists the first
    run cached, so it spends nothing, and neither does a hit.  The list is
    shared."""
    out = q.entry.mcds.get(s)
    if out is None:
        zero = s[0] - s[0]
        out = q.entry.mcds[s] = [
            d for d in _common_divisors(s, q)
            if _common_divisors(tuple(e - d for e in s), q) == [zero]
        ]
    return out


def common_divisors(
    s: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> list:
    """Intersection of the divisor sets of the elements of s."""
    out = _common_divisors(_encode_set(s, spec), _Query(spec, as_budget(budget)))
    return list(_decode_set(out, spec))


def mcd(s: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None) -> list:
    """All maximal common divisors of s: common divisors d such that the
    shifted set {e - d} has no common divisor besides 0."""
    out = _mcd(_encode_set(s, spec), _Query(spec, as_budget(budget)))
    return list(_decode_set(out, spec))


# ---------------------------------------------------------------------------
# Power-monoid MCDs


def p_divisors(
    t: FinSet, spec: MonoidSpec, budget: "Budget | int | None" = None
) -> list[FinSet]:
    """All divisors of t in the power monoid, including {0} and t itself."""
    divs = _anchored_divisors(_encode_set(t, spec), _Query(spec, as_budget(budget)))
    return [_decode_set(u, spec) for u in sorted(divs)]


def _mcd_in_P(fam: list, q: _Query) -> list:
    """`mcd_in_P` of a nonempty family of scaled sets, as ascending scaled
    sets, never empty: the largest common divisor d of a set S of members is
    an MCD, as a nonzero common divisor d' of S - d would make d + d' larger."""
    stripped = (fam[0][0] - fam[0][0],)
    while True:
        maps = [_anchored_divisors(t, q) for t in fam]
        common = set(maps[0]).intersection(*maps[1:])
        # scaled divisors sort as their decoded sets do
        nonsingleton = sorted(u for u in common if len(u) >= 2)
        if not nonsingleton:
            break
        d = nonsingleton[0]
        fam = [tuple(m[d]) for m in maps]  # the largest cofactor of d in each set
        stripped = _sumset(stripped, d)
    m_level = _mcd(tuple(sorted({e for t in fam for e in t})), q)
    # translates by ascending m0 come out in ascending order
    return [tuple(e + m0 for e in stripped) for m0 in m_level]


def mcd_in_P(
    family: list[FinSet], spec: MonoidSpec, budget: "Budget | int | None" = None
) -> list[FinSet]:
    """Maximal common divisors of a family of finite sets in the power monoid.

    Induction: strip non-singleton common divisors while any exist; once all
    common divisors are singletons, the problem reduces to a monoid-level MCD
    of the union of the residual family, which always has one.  Stripping U
    from t leaves the largest cofactor C that comes with U, as U + C = t.
    """
    if not family:
        raise InvalidInputError("empty family")
    fam = [_encode_set(t, spec) for t in family]
    out = _mcd_in_P(fam, _Query(spec, as_budget(budget)))
    return [_decode_set(u, spec) for u in out]


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


def _check_cap_preconditions(a: Rat, p: int, spec: MonoidSpec) -> None:
    """Raise unless (a, p) is a cap pair of the spec."""
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
    _check_cap_preconditions(a, p, spec)
    return ResidueClass(p, _residue(q, a, p))


def cap_constant_on(s: FinSet, a: Rat, p: int, spec: MonoidSpec) -> bool:
    """True iff every element of s has the same residue at (a, p); the
    preconditions on (a, p) are checked once for the whole set, and an
    element off the generators' lattice is rejected."""
    _check_cap_preconditions(a, p, spec)
    return _cap_constant_on_scaled(_encode_set(s, spec), p)


def _cap_constant_on_scaled(s: tuple, p: int) -> bool:
    """`cap_constant_on` of the set whose scaled elements over the spec are
    s, for a cap pair (a, p) that the caller has checked with
    `_check_cap_preconditions`: True iff n mod p is the same for every n in s,
    so neither a nor the spec is read.

    As v_p(a) = -1 and p divides no other generator's denominator, v_p(L) =
    1 for L = spec.scale.  So for q = n/L, q/a = n*(a.den/p) / (a.num*L/p),
    and the residue of q/a mod p is n*c mod p, where c = (a.den/p) *
    (a.num*L/p)^-1 is a unit mod p: the residue is constant on s iff n mod p
    is.
    """
    return len({n % p for n in s}) == 1


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
    monoid, produce the dyadic increment that strictly improves it.

    Each residual's certificate is its least factorization, the first of
    `factorizations(target)`.  It is taken with `limit=1`, which builds no
    other factorization and charges each repeated subtree of the walk over
    Z(target) in one spend, so the step spends the nodes of the complete
    list in a fraction of their time.  A q < 0 is rejected before any node;
    testing a q >= 0 for membership would add a search to every step.
    """
    bud = as_budget(budget)
    spec = expand_family("EX44", depth)
    one, four_thirds = Fraction(1), Fraction(4, 3)
    if q < 0 or not (member(one - q, spec, bud) and member(four_thirds - q, spec, bud)):
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
        facs = factorizations(target, spec, bud, limit=1)
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
