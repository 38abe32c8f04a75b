"""Named verification suites over the library, each producing a
deterministic report: fixed seeds, sorted iteration orders, and canonical
rendering make identical inputs yield byte-identical output.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import InvalidInputError, QPoint2, Rat, _den_primes, render_element
from .backend import (
    Budget,
    BudgetExceededError,
    MonoidSpec,
    TruncationError,
    _Query,
    as_budget,
    atoms,
    clear_caches,
    decode,
    encode,
    ex44_a2_atoms,
    expand_family,
    factorizations,
    members_upto,
    render_monoid_spec,
)
from .power import (
    FinSet,
    _decode_set,
    _decompositions,
    _divides_in_P,
    _p_factor,
    _sumset,
    _sumset_all,
    augment_indecomposable,
    is_indecomposable,
    NOT_ATOMIC,
)
from .mcd import (
    _cap_constant_on_scaled,
    _mcd,
    _mcd_in_P,
    _residue,
    chain_divisors,
    ex44_chain,
)
from .atomicity import (
    PROJECTION_HEADS,
    _p_furstenberg_divisor,
    _projection_failure,
    lemma54_sum_witness,
    tidf_implies_atomic_check,
)

PASS = "pass"
FAIL = "fail"
TRUNC = "truncation-inconclusive"
OVER = "budget-exceeded"


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str
    witness: str = ""


@dataclass
class VerificationReport:
    suite: str
    spec: str
    checks: list
    budget_used: int

    @property
    def ok(self) -> bool:
        return all(c.status == PASS for c in self.checks)

    @property
    def status(self) -> str:
        order = (FAIL, OVER, TRUNC)
        for bad in order:
            if any(c.status == bad for c in self.checks):
                return bad
        return PASS

    def to_text(self) -> str:
        lines = [f"suite {self.suite}  [{self.status}]"]
        if self.spec:
            lines.append(f"  spec: {self.spec}")
        lines.append(f"  budget used: {self.budget_used}")
        for c in self.checks:
            line = f"  {c.status.upper():24s} {c.check_id}"
            if c.witness:
                line += f"  ({c.witness})"
            lines.append(line)
        return "\n".join(lines) + "\n"

    def to_json_lines(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(
                json.dumps(
                    {
                        "suite": self.suite,
                        "spec": self.spec,
                        "check": c.check_id,
                        "status": c.status,
                        "witness": c.witness,
                        "budget_used": self.budget_used,
                    },
                    sort_keys=True,
                    separators=(", ", ": "),
                )
            )
        return "\n".join(lines) + "\n"


def _spec_tag(sp: MonoidSpec) -> str:
    """Compact one-line identifier for a spec, used in check ids."""
    if sp.kind == "family":
        return f"{sp.family}@{sp.depth}"
    gens = ",".join(render_element(g) for g in sp.generators)
    return f"{sp.kind}({gens})"


def _seed(name: str) -> int:
    return sum(ord(ch) * (i + 1) for i, ch in enumerate(name))


def _random_set(rng: random.Random, pool: list, max_size: int, min_size: int = 1) -> tuple:
    size = rng.randint(min_size, max_size)
    return tuple(sorted(rng.sample(pool, min(size, len(pool)))))


def _corpus(sp: MonoidSpec, bound: int, bud: Budget) -> list:
    """The scaled members of the rank-1 spec sp in [0, bound], ascending: the
    pool a suite draws its sets from."""
    return [encode(q, sp) for q in members_upto(sp, Fraction(bound), bud)]


def _render(s: tuple, sp: MonoidSpec) -> str:
    """The scaled set s of sp, rendered as a set of its elements."""
    return _decode_set(s, sp).render()


def _pair_corpora(spec: Optional[MonoidSpec], bud: Budget) -> list:
    specs = [spec] if spec is not None else [MonoidSpec.numerical(1), MonoidSpec.numerical(2, 3)]
    return [(sp, _corpus(sp, 30, bud)) for sp in specs]


def _first_failure(cid: str, n: int, trial, passed: str) -> CheckResult:
    """Run trial up to n times: the FAIL of the first run that returns a
    failure witness, or PASS with the text passed if every run returns ""."""
    for _ in range(n):
        witness = trial()
        if witness:
            return CheckResult(cid, FAIL, witness)
    return CheckResult(cid, PASS, passed)


def _suite_lemma_2_6(spec, bud, rng) -> list:
    checks = []
    corpora = _pair_corpora(spec, bud)
    for sp, pool in corpora:
        def min_max_additive() -> str:
            s = _random_set(rng, pool, 4)
            t = _random_set(rng, pool, 4)
            u = _sumset(s, t)
            if u[0] == s[0] + t[0] and u[-1] == s[-1] + t[-1]:
                return ""
            return f"{_render(s, sp)} + {_render(t, sp)}"

        n = 1000 // len(corpora)
        cid = f"min-max-additivity[{_spec_tag(sp)}]"
        checks.append(_first_failure(cid, n, min_max_additive, f"{n} random pairs"))
    # witness invariants for divisibility in the power monoid
    for sp, pool in corpora:
        q = _Query(sp, bud)

        def witness_invariants_hold() -> str:
            s = _random_set(rng, pool, 3)
            d = _random_set(rng, pool, 3)
            t = _sumset(s, d)
            w = _divides_in_P(s, t, q)
            ok = (
                w is not None
                and _sumset(s, w) == t
                and len(s) <= len(t)
                and q.is_member(t[0] - s[0])
                and q.is_member(t[-1] - s[-1])
                and w[0] == t[0] - s[0]
                and w[-1] == t[-1] - s[-1]
            )
            return "" if ok else f"{_render(s, sp)} | {_render(t, sp)}"

        n = 500 // len(corpora)
        cid = f"divides-witness-invariants[{_spec_tag(sp)}]"
        checks.append(_first_failure(cid, n, witness_invariants_hold, f"{n} random instances"))
    return checks


def _suite_lemma_3_2(spec, bud, rng) -> list:
    checks = []
    corpora = _pair_corpora(spec, bud)
    for sp, pool in corpora:
        def cardinality_bounded() -> str:
            s = _random_set(rng, pool, 4)
            t = _random_set(rng, pool, 4)
            # |S + T| >= |S| + |T| - 1 also gives |S + T| > |T| once |S| >= 2
            if len(_sumset(s, t)) >= len(s) + len(t) - 1:
                return ""
            return f"cardinality-bound: {_render(s, sp)} + {_render(t, sp)}"

        n = 1000 // len(corpora)
        cid = f"sumset-cardinality[{_spec_tag(sp)}]"
        checks.append(_first_failure(cid, n, cardinality_bounded, f"{n} random pairs"))
    return checks


def _suite_prop_4_1(spec, bud, rng) -> list:
    checks = []
    specs = [spec] if spec is not None else [
        MonoidSpec.numerical(2, 3),
        MonoidSpec.numerical(3, 4, 5),
    ]
    for sp in specs:
        pool = _corpus(sp, 10, bud)
        sets = [c for size in (1, 2) for c in itertools.combinations(pool, size)]
        q = _Query(sp, bud)
        m_ok = all(_mcd(s, q) for s in sets)
        witness = ""
        for fam in (c for size in (1, 2) for c in itertools.combinations(sets, size)):
            # a family whose MCD search truncates counts as one with no MCD
            try:
                found = _mcd_in_P(list(fam), q)
            except TruncationError:
                found = False
            if not found:
                witness = " , ".join(_render(f, sp) for f in fam)
                break
        cid = f"mcd-existence-agrees[{_spec_tag(sp)}]"
        if m_ok and not witness:
            checks.append(CheckResult(cid, PASS, "element bound 10, sizes <= 2"))
        else:
            checks.append(CheckResult(cid, FAIL, witness or "monoid-level failure"))
    return checks


def _suite_lemma_4_2(spec, bud, rng) -> list:
    sp = spec if spec is not None else MonoidSpec.numerical(1)
    pool = [m for m in members_upto(sp, Fraction(9), bud) if m > 0]

    def augmentation_indecomposable() -> str:
        s = FinSet._ascending(_random_set(rng, pool, 4, min_size=2))
        return "" if is_indecomposable(augment_indecomposable(s), sp, bud) else s.render()

    cid = "augmentation-indecomposable"
    return [_first_failure(cid, 200, augmentation_indecomposable, "200 random sets")]


def _suite_thm_4_5(spec, bud, rng) -> list:
    sp = spec if spec is not None else MonoidSpec.numerical(2, 3)
    pool = _corpus(sp, 12, bud)
    q = _Query(sp, bud)
    total = 0
    for size in (1, 2, 3):
        for s in itertools.combinations(pool, size):
            if s == (0,):
                continue
            parts = _p_factor(s, q, {})
            if parts is NOT_ATOMIC:
                return [CheckResult("p-factorization-exists", FAIL, _render(s, sp))]
            if _sumset_all(parts, 0) != s:
                return [CheckResult("certificate-resums", FAIL, _render(s, sp))]
            for p in parts:
                # a part is never the zero set, so an atom is a part with
                # no decomposition
                if _decompositions(p, q):
                    return [CheckResult("parts-are-atoms", FAIL, _render(p, sp))]
            total += 1
    return [
        CheckResult(
            "p-factorization-certified", PASS, f"{total} sets over [0,12], size <= 3"
        )
    ]


def _suite_ex_4_4(spec, bud, rng) -> list:
    depth = spec.depth if spec is not None else 6
    checks = []
    try:
        steps = ex44_chain(3, depth, bud)
    except TruncationError as exc:
        return [CheckResult("ascending-divisor-chain", TRUNC, str(exc))]
    values = chain_divisors(steps)
    expected = [Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)]
    cid = "ascending-divisor-chain"
    if values == expected:
        checks.append(
            CheckResult(cid, PASS, " < ".join(render_element(v) for v in values))
        )
    else:
        checks.append(
            CheckResult(cid, FAIL, " , ".join(render_element(v) for v in values))
        )
    resum_ok = all(
        step.q + step.increment + cert.total() == target
        for step in steps
        for target, cert in zip((Fraction(1), Fraction(4, 3)), step.residual_certificates)
    )
    checks.append(
        CheckResult(
            "chain-certificates-resum",
            PASS if resum_ok else FAIL,
            f"{len(steps)} steps, two certificates each",
        )
    )
    bad_depth = None
    for d in range(1, depth + 1):
        a2 = set(ex44_a2_atoms(d))
        facs = factorizations(Fraction(1), expand_family("EX44", d), bud)
        if any(atom in a2 for fac in facs for atom, _ in fac):
            bad_depth = d
            break
    checks.append(
        CheckResult(
            "one-avoids-second-family",
            FAIL if bad_depth else PASS,
            f"depth {bad_depth}" if bad_depth else f"all depths <= {depth}",
        )
    )
    return checks


def _ex44_residue_pairs(sp: MonoidSpec) -> list:
    """The cap pairs (a, p) of the rank-1 spec sp with p odd: p divides the
    denominator of a exactly once, so v_p(a) = -1, and that of no other
    generator."""
    return [
        (g, p) for g in sp.generators for p in _den_primes(g.denominator)
        if p != 2 and g.denominator % (p * p)
        and all(h == g or h.denominator % p for h in sp.generators)
    ]


def _random_member(rng: random.Random, gens: list) -> int:
    """A scaled member: each scaled generator in gens taken 0 to 3 times."""
    return sum(rng.randint(0, 3) * g for g in gens)


def _suite_cap_additivity(spec, bud, rng) -> list:
    # the residue of q = n/L at (a, p) is that of q/a = n/encode(a), so it
    # is taken on the scaled ints, as v_p(a) = -1 for each pair
    sp = spec if spec is not None else expand_family("EX44", 3)
    pairs = [(a, p, encode(a, sp)) for a, p in _ex44_residue_pairs(sp)]
    gens = [encode(g, sp) for g in sp.generators]

    def residue_additive() -> str:
        a, p, na = rng.choice(pairs)
        m = _random_member(rng, gens)
        n = _random_member(rng, gens)
        if (_residue(m, na, p) + _residue(n, na, p)) % p == _residue(m + n, na, p):
            return ""
        q, r = decode(m, sp), decode(n, sp)
        return f"q={render_element(q)} r={render_element(r)} a={render_element(a)} p={p}"

    return [_first_failure("residue-additivity", 500, residue_additive, "500 random pairs")]


def _suite_lemma_5_2(spec, bud, rng) -> list:
    sp = spec if spec is not None else expand_family("EX44", 2)
    pairs = _ex44_residue_pairs(sp)
    q = _Query(sp, bud)
    bad = None
    checked = 0
    for _ in range(100):
        a, p = rng.choice(pairs)
        others = [encode(g, sp) for g in sp.generators if g != a]

        def constant_set() -> set:
            shift = rng.randint(0, p - 1) * encode(a, sp)
            return {
                shift + sum(rng.randint(0, 1) * g for g in others)
                for _ in range(rng.randint(1, 3))
            }

        u0, v0 = constant_set(), constant_set()
        t = tuple(sorted({x + y for x in u0 for y in v0}))
        if not _cap_constant_on_scaled(t, p):
            bad = (t, a, p)
            break
        for left, right in _decompositions(t, q):
            checked += 1
            if not (_cap_constant_on_scaled(left, p) and _cap_constant_on_scaled(right, p)):
                bad = (t, a, p)
                break
        if bad:
            break
    cid = "residue-constant-on-divisors"
    if bad:
        t = _decode_set(bad[0], sp)
        return [CheckResult(cid, FAIL, f"{t.render()} at a={render_element(bad[1])} p={bad[2]}")]
    return [CheckResult(cid, PASS, f"100 random sets, {checked} decompositions")]


def _random_gap_rational(rng: random.Random) -> Rat:
    # an element of the difference group lying in (2, 3)
    primes = (3, 5, 7, 11, 13)
    while True:
        chosen = rng.sample(primes, rng.randint(1, 2))
        frac = sum((Fraction(rng.randint(1, p - 1), p) for p in chosen), Fraction(0))
        if 0 < frac < 1:
            return Fraction(2) + frac


def _suite_lemma_5_4(spec, bud, rng) -> list:
    checks = []
    q = Fraction(7, 3)
    cert = lemma54_sum_witness(q, q, ("A", "B"))
    baseline_ok = (
        cert.p == 5
        and cert.left
        == (QPoint2(Fraction(1, 5), Fraction(10, 3)), QPoint2(Fraction(1, 7), Fraction(10, 3)))
        and cert.right
        == (
            QPoint2(Fraction(1, 5), Fraction(32, 15) + Fraction(1, 2)),
            QPoint2(Fraction(1, 7), Fraction(38, 15) + 1),
        )
        and cert.increment == QPoint2(Fraction(0), Fraction(1, 2))
        and cert.multiplicity == 1
        and cert.resums_exactly()
    )
    checks.append(
        CheckResult(
            "baseline-identity-7/3",
            PASS if baseline_ok else FAIL,
            f"p={cert.p}, increment={render_element(cert.increment)}",
        )
    )

    def sum_certified() -> str:
        qq, rr = _random_gap_rational(rng), _random_gap_rational(rng)
        branches = (rng.choice("AB"), rng.choice("AB"))
        # a pair the witness search refuses fails as one whose sums differ
        try:
            c = lemma54_sum_witness(qq, rr, branches)
        except InvalidInputError:
            c = None
        if c is not None and c.resums_exactly():
            return ""
        return f"{render_element(qq)}, {render_element(rr)}"

    checks.append(_first_failure("random-sum-certificates", 50, sum_certified, "50 random pairs"))
    return checks


def _suite_thm_5_5(spec, bud, rng) -> list:
    sample = (Fraction(7, 3), Fraction(32, 15), Fraction(38, 15), Fraction(12, 5))
    sp = spec if spec is not None else MonoidSpec.of_family("RANK2-5.3", 3, sample)
    # sample atoms of the two structural classes: those containing the
    # identity, and those whose minimum is a monoid atom with every other
    # element offset by a nonnegative first-coordinate step
    q = _Query(sp, bud)
    scaled = {g: encode(g, sp) for g in sp.generators}
    monoid_atoms = atoms(sp, bud)
    atom_sets = [(scaled[a],) for a in monoid_atoms]
    for g in sp.generators:
        if not _decompositions((0, scaled[g]), q):
            atom_sets.append((0, scaled[g]))
    dyadics = [a for a in monoid_atoms if a.x == 0]
    for d in dyadics:
        for g in sp.generators:
            if g != d and min(d, g).x <= min(d.x, g.x):
                cand = tuple(sorted((scaled[d], scaled[g])))
                if not _decompositions(cand, q):
                    atom_sets.append(cand)
    cid = "projection-gap-mechanism"
    runs = 0
    for size in (1, 2, 3):
        for combo in itertools.combinations(atom_sets, size):
            if size == 3 and rng.random() > 0.02:
                continue
            bad = _projection_failure(list(combo), q)
            runs += 1
            if bad is not None:
                detail, v = bad
                shown = _render(v, sp) if type(v) is tuple else render_element(decode(v, sp))
                return [CheckResult(cid, FAIL, f"{detail}: {shown}")]
    return [
        CheckResult(cid, PASS, f"{len(atom_sets)} atoms, {runs} sampled sums verified")
    ]


def _suite_lemma_6_1(spec, bud, rng) -> list:
    sp = spec if spec is not None else MonoidSpec.numerical(2, 3)
    pool = _corpus(sp, 10, bud)
    q = _Query(sp, bud)
    singleton_branch = nonsingleton_branch = 0
    for size in (1, 2, 3):
        for s in itertools.combinations(pool, size):
            if s == (0,):
                continue
            d = _p_furstenberg_divisor(s, q)
            # `_decompositions` raises on a set outside M and `_divides_in_P`
            # tests no membership, so membership is tested first
            if not all(q.is_member(e) for e in d + s):
                return [CheckResult("divisor-in-monoid", FAIL, _render(s, sp))]
            if _decompositions(d, q):
                return [CheckResult("divisor-is-atom", FAIL, _render(s, sp))]
            if _divides_in_P(d, s, q) is None:
                return [CheckResult("divisor-divides", FAIL, _render(s, sp))]
            if len(d) == 1:
                singleton_branch += 1
            else:
                nonsingleton_branch += 1
    both = singleton_branch > 0 and nonsingleton_branch > 0
    return [
        CheckResult(
            "atom-divisor-dichotomy",
            PASS if both else FAIL,
            f"singleton branch {singleton_branch}, non-singleton branch {nonsingleton_branch}",
        )
    ]


def _suite_prop_6_4(spec, bud, rng) -> list:
    checks = []
    cases = (
        [(spec, Fraction(30))]
        if spec is not None
        else [
            (MonoidSpec.numerical(2, 3), Fraction(30)),
            (MonoidSpec.numerical(1), Fraction(10)),
            (expand_family("EX44", 2), Fraction(1, 2)),
        ]
    )
    for sp, bound in cases:
        rep = tidf_implies_atomic_check(sp, bound, bud)
        min_atom = min(atoms(sp, bud))
        limit = -(-bound // min_atom)  # ceil
        cid = f"atomicity-descent[{_spec_tag(sp)}]"
        if rep.ok and rep.max_descent <= limit:
            checks.append(
                CheckResult(cid, PASS, f"max descent {rep.max_descent} <= {limit}")
            )
        else:
            checks.append(
                CheckResult(cid, FAIL, f"counterexample {rep.counterexample}")
            )
    return checks


_RANK1 = (lambda sp: not sp.is_rank2, "needs a rank-1 spec")
_CAP_PAIRS = (
    lambda sp: not sp.is_rank2 and bool(_ex44_residue_pairs(sp)),
    "needs a rank-1 spec in which an odd prime divides the denominator of"
    " exactly one generator, and its square does not",
)

# name -> (body, the test a given spec must pass, the words of the refusal
# of one that fails it); the body runs on its defaults when no spec is given
_SUITES: dict = {
    "lemma-2.6": (_suite_lemma_2_6, *_RANK1),
    "lemma-3.2": (_suite_lemma_3_2, *_RANK1),
    "prop-4.1": (_suite_prop_4_1, *_RANK1),
    # lemma-4.2's sets take two or more of the positive members up to 9;
    # over ascending generators g1 < g2 < ... the second least is min(2*g1, g2)
    "lemma-4.2": (
        _suite_lemma_4_2,
        lambda sp: not sp.is_rank2 and min((2 * sp.generators[0], *sp.generators[1:2])) <= 9,
        "needs a rank-1 spec with at least two positive members up to 9",
    ),
    "thm-4.5": (_suite_thm_4_5, *_RANK1),
    "ex-4.4": (_suite_ex_4_4, lambda sp: sp.family == "EX44", "needs an EX44 family spec"),
    "cap-additivity": (_suite_cap_additivity, *_CAP_PAIRS),
    "lemma-5.2": (_suite_lemma_5_2, *_CAP_PAIRS),
    "lemma-5.4": (_suite_lemma_5_4, lambda sp: False, "takes no spec"),
    # the mechanism is stated for the first coordinates of the Section 5 family
    "thm-5.5-gap": (
        _suite_thm_5_5,
        lambda sp: sp.is_rank2 and all(g.x in PROJECTION_HEADS for g in sp.generators),
        "needs a rank-2 spec whose generators have first coordinate 0, 1/5 or 1/7",
    ),
    # lemma-6.1's sets are drawn from the members up to 10; with no positive
    # one among them it has no set to check
    "lemma-6.1": (
        _suite_lemma_6_1,
        lambda sp: not sp.is_rank2 and sp.generators[0] <= 10,
        "needs a rank-1 spec with a positive member up to 10",
    ),
    "prop-6.4": (_suite_prop_6_4, *_RANK1),
}

SUITE_NAMES = tuple(_SUITES)


def run_verify_suite(
    suite: str,
    spec: Optional[MonoidSpec] = None,
    budget: "Budget | int | None" = None,
) -> VerificationReport:
    """Run one named suite and return its deterministic report; a spec that
    its `_SUITES` entry does not take is refused before any node."""
    if suite not in _SUITES:
        raise InvalidInputError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    body, takes, refusal = _SUITES[suite]
    if spec is not None and not takes(spec):
        raise InvalidInputError(f"{suite} {refusal}")
    bud = as_budget(budget)
    rng = random.Random(_seed(suite))
    try:
        checks = body(spec, bud, rng)
    except BudgetExceededError as exc:
        checks = [CheckResult("suite-body", OVER, f"budget {bud.limit} exhausted: {exc}")]
    except TruncationError as exc:
        checks = [CheckResult("suite-body", TRUNC, str(exc))]
    return VerificationReport(
        suite=suite,
        spec="; ".join(render_monoid_spec(spec).splitlines()) if spec is not None else "",
        checks=list(checks),
        budget_used=bud.used,
    )


def run_all_suites(budget_limit: Optional[int] = None) -> list:
    """Run every named suite on its default specs, with a fresh budget each,
    in declaration order.  No one spec suits every suite: some need a rank-1
    spec and thm-5.5-gap a rank-2 one."""
    reports = []
    for name in SUITE_NAMES:
        clear_caches()
        reports.append(run_verify_suite(name, None, as_budget(budget_limit)))
    return reports
