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
    as_budget,
    atoms,
    clear_caches,
    encode,
    ex44_a2_atoms,
    expand_family,
    factorizations,
    member,
    members_upto,
    render_monoid_spec,
)
from .power import (
    FinSet,
    _decode_set,
    _decompositions,
    augment_indecomposable,
    divides_in_P,
    is_indecomposable,
    is_p_atom,
    p_factorize,
    singleton,
    sumset,
    sumset_all,
    NOT_ATOMIC,
)
from .mcd import (
    _cap_constant_on_scaled,
    _check_cap_preconditions,
    cap_residue,
    chain_divisors,
    ex44_chain,
    mcd,
    mcd_in_P,
)
from .atomicity import (
    lemma54_sum_witness,
    p_furstenberg_divisor,
    thm55_projection_check,
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


def _random_finset(rng: random.Random, pool: list, max_size: int, min_size: int = 1) -> FinSet:
    size = rng.randint(min_size, max_size)
    return FinSet._ascending(tuple(sorted(rng.sample(pool, min(size, len(pool))))))


def _pair_corpora(spec: Optional[MonoidSpec], bud: Budget):
    if spec is not None:
        return [(spec, members_upto(spec, Fraction(30), bud))]
    out = []
    for s in (MonoidSpec.numerical(1), MonoidSpec.numerical(2, 3)):
        out.append((s, members_upto(s, Fraction(30), bud)))
    return out


def _suite_lemma_2_6(spec, bud, rng) -> list:
    checks = []
    corpora = _pair_corpora(spec, bud)
    for sp, pool in corpora:
        n = 1000 // len(corpora)
        bad = None
        for _ in range(n):
            s = _random_finset(rng, pool, 4)
            t = _random_finset(rng, pool, 4)
            u = sumset(s, t)
            if u.min != s.min + t.min or u.max != s.max + t.max:
                bad = (s, t)
                break
        cid = f"min-max-additivity[{_spec_tag(sp)}]"
        if bad:
            checks.append(CheckResult(cid, FAIL, f"{bad[0].render()} + {bad[1].render()}"))
        else:
            checks.append(CheckResult(cid, PASS, f"{n} random pairs"))
    # witness invariants for divisibility in the power monoid
    for sp, pool in corpora:
        n = 500 // len(corpora)
        bad = None
        for _ in range(n):
            s = _random_finset(rng, pool, 3)
            d = _random_finset(rng, pool, 3)
            t = sumset(s, d)
            w = divides_in_P(s, t, sp, bud)
            ok = (
                w is not None
                and sumset(s, w) == t
                and len(s) <= len(t)
                and member(t.min - s.min, sp, bud)
                and member(t.max - s.max, sp, bud)
                and w.min == t.min - s.min
                and w.max == t.max - s.max
            )
            if not ok:
                bad = (s, t)
                break
        cid = f"divides-witness-invariants[{_spec_tag(sp)}]"
        if bad:
            checks.append(CheckResult(cid, FAIL, f"{bad[0].render()} | {bad[1].render()}"))
        else:
            checks.append(CheckResult(cid, PASS, f"{n} random instances"))
    return checks


def _suite_lemma_3_2(spec, bud, rng) -> list:
    checks = []
    corpora = _pair_corpora(spec, bud)
    for sp, pool in corpora:
        n = 1000 // len(corpora)
        bad = None
        for _ in range(n):
            s = _random_finset(rng, pool, 4)
            t = _random_finset(rng, pool, 4)
            u = sumset(s, t)
            if len(u) < len(s) + len(t) - 1:
                bad = ("cardinality-bound", s, t)
                break
            if len(s) >= 2 and len(u) <= len(t):
                bad = ("strict-growth", s, t)
                break
        cid = f"sumset-cardinality[{_spec_tag(sp)}]"
        if bad:
            checks.append(
                CheckResult(cid, FAIL, f"{bad[0]}: {bad[1].render()} + {bad[2].render()}")
            )
        else:
            checks.append(CheckResult(cid, PASS, f"{n} random pairs"))
    return checks


def _suite_prop_4_1(spec, bud, rng) -> list:
    checks = []
    specs = [spec] if spec is not None else [
        MonoidSpec.numerical(2, 3),
        MonoidSpec.numerical(3, 4, 5),
    ]
    for sp in specs:
        pool = members_upto(sp, Fraction(10), bud)
        sets = [
            FinSet(c)
            for size in (1, 2)
            for c in itertools.combinations(pool, size)
        ]
        m_ok = all(mcd(s, sp, bud) for s in sets)
        p_ok = True
        witness = ""
        for fam_size in (1, 2):
            for fam in itertools.combinations(sets, fam_size):
                try:
                    if not mcd_in_P(list(fam), sp, bud):
                        p_ok = False
                        witness = " , ".join(f.render() for f in fam)
                        break
                except TruncationError:
                    p_ok = False
                    witness = " , ".join(f.render() for f in fam)
                    break
            if not p_ok:
                break
        cid = f"mcd-existence-agrees[{_spec_tag(sp)}]"
        if m_ok == p_ok and m_ok:
            checks.append(CheckResult(cid, PASS, "element bound 10, sizes <= 2"))
        else:
            checks.append(CheckResult(cid, FAIL, witness or "monoid-level failure"))
    return checks


def _suite_lemma_4_2(spec, bud, rng) -> list:
    sp = spec if spec is not None else MonoidSpec.numerical(1)
    pool = [q for q in members_upto(sp, Fraction(9), bud) if q > 0]
    bad = None
    for _ in range(200):
        s = _random_finset(rng, pool, 4, min_size=2)
        aug = augment_indecomposable(s)
        if not is_indecomposable(aug, sp, bud):
            bad = s
            break
    cid = "augmentation-indecomposable"
    if bad:
        return [CheckResult(cid, FAIL, bad.render())]
    return [CheckResult(cid, PASS, "200 random sets")]


def _suite_thm_4_5(spec, bud, rng) -> list:
    sp = spec if spec is not None else MonoidSpec.numerical(2, 3)
    pool = members_upto(sp, Fraction(12), bud)
    total = 0
    for size in (1, 2, 3):
        for combo in itertools.combinations(pool, size):
            s = FinSet(combo)
            if s == FinSet((sp.zero,)):
                continue
            parts = p_factorize(s, sp, bud)
            if parts is NOT_ATOMIC:
                return [CheckResult("p-factorization-exists", FAIL, s.render())]
            if sumset_all(parts, sp) != s:
                return [CheckResult("certificate-resums", FAIL, s.render())]
            for p in parts:
                if not is_p_atom(p, sp, bud).is_atom:
                    return [CheckResult("parts-are-atoms", FAIL, p.render())]
            total += 1
    return [
        CheckResult(
            "p-factorization-certified", PASS, f"{total} sets over [0,12], size <= 3"
        )
    ]


def _suite_ex_4_4(spec, bud, rng) -> list:
    if spec is not None and spec.family != "EX44":
        raise InvalidInputError("ex-4.4 needs an EX44 family spec")
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
    fam_spec = expand_family("EX44", depth)
    resum_ok = True
    for step in steps:
        for target, cert in zip(
            (Fraction(1), Fraction(4, 3)), step.residual_certificates
        ):
            if step.q + step.increment + cert.total() != target:
                resum_ok = False
    checks.append(
        CheckResult(
            "chain-certificates-resum",
            PASS if resum_ok else FAIL,
            f"{len(steps)} steps, two certificates each",
        )
    )
    bad_depth = None
    for d in range(1, depth + 1):
        d_spec = expand_family("EX44", d)
        a2 = set(ex44_a2_atoms(d))
        for fac in factorizations(Fraction(1), d_spec, bud):
            if any(atom in a2 for atom, _ in fac):
                bad_depth = d
                break
        if bad_depth:
            break
    checks.append(
        CheckResult(
            "one-avoids-second-family",
            FAIL if bad_depth else PASS,
            f"depth {bad_depth}" if bad_depth else f"all depths <= {depth}",
        )
    )
    return checks


def _ex44_residue_pairs(sp: MonoidSpec, suite: str):
    """The cap pairs (a, p) of sp with p odd, each checked once, up front."""
    pairs = [] if sp.is_rank2 else [
        (g, p) for g in sp.generators for p in _den_primes(g.denominator)
        if p != 2 and all(h == g or h.denominator % p for h in sp.generators)
    ]
    if not pairs:
        raise InvalidInputError(
            f"{suite} needs a rank-1 spec in which an odd prime divides the"
            " denominator of exactly one generator"
        )
    for a, p in pairs:
        _check_cap_preconditions(a, p, sp)
    return pairs


def _random_member(rng: random.Random, sp: MonoidSpec) -> Rat:
    return sum((rng.randint(0, 3) * g for g in sp.generators), Fraction(0))


def _suite_cap_additivity(spec, bud, rng) -> list:
    sp = spec if spec is not None else expand_family("EX44", 3)
    pairs = _ex44_residue_pairs(sp, "cap-additivity")
    bad = None
    for _ in range(500):
        a, p = rng.choice(pairs)
        q = _random_member(rng, sp)
        r = _random_member(rng, sp)
        if (cap_residue(q, a, p, sp) + cap_residue(r, a, p, sp)) != cap_residue(
            q + r, a, p, sp
        ):
            bad = (q, r, a, p)
            break
    cid = "residue-additivity"
    if bad:
        return [
            CheckResult(
                cid,
                FAIL,
                f"q={render_element(bad[0])} r={render_element(bad[1])} "
                f"a={render_element(bad[2])} p={bad[3]}",
            )
        ]
    return [CheckResult(cid, PASS, "500 random pairs")]


def _suite_lemma_5_2(spec, bud, rng) -> list:
    sp = spec if spec is not None else expand_family("EX44", 2)
    pairs = _ex44_residue_pairs(sp, "lemma-5.2")
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
        if not _cap_constant_on_scaled(t, a, p, sp):
            bad = (t, a, p)
            break
        for left, right in _decompositions(t, sp, bud):
            checked += 1
            if not (
                _cap_constant_on_scaled(left, a, p, sp)
                and _cap_constant_on_scaled(right, a, p, sp)
            ):
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
    if spec is not None:
        raise InvalidInputError("lemma-5.4 takes no spec")
    checks = []
    q = Fraction(7, 3)
    cert = lemma54_sum_witness(q, q, ("A", "B"))
    baseline_ok = (
        cert.p == 5
        and cert.left == (QPoint2(Fraction(1, 5), Fraction(10, 3)), QPoint2(Fraction(1, 7), Fraction(10, 3)))
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
    bad = None
    for _ in range(50):
        qq, rr = _random_gap_rational(rng), _random_gap_rational(rng)
        branches = (rng.choice("AB"), rng.choice("AB"))
        try:
            c = lemma54_sum_witness(qq, rr, branches)
        except InvalidInputError:
            bad = (qq, rr)
            break
        if not c.resums_exactly():
            bad = (qq, rr)
            break
    checks.append(
        CheckResult(
            "random-sum-certificates",
            FAIL if bad else PASS,
            f"{render_element(bad[0])}, {render_element(bad[1])}" if bad else "50 random pairs",
        )
    )
    return checks


def _suite_thm_5_5(spec, bud, rng) -> list:
    sample = (Fraction(7, 3), Fraction(32, 15), Fraction(38, 15), Fraction(12, 5))
    sp = spec if spec is not None else MonoidSpec.of_family("RANK2-5.3", 3, sample)
    if not sp.is_rank2:
        raise InvalidInputError("thm-5.5-gap needs a rank-2 spec")
    # sample atoms of the two structural classes: those containing the
    # identity, and those whose minimum is a monoid atom with every other
    # element offset by a nonnegative first-coordinate step
    monoid_atoms = atoms(sp, bud)
    atom_sets = [singleton(a) for a in monoid_atoms]
    zero = sp.zero
    for g in sp.generators:
        cand = FinSet((zero, g))
        if is_p_atom(cand, sp, bud).is_atom:
            atom_sets.append(cand)
    dyadics = [a for a in monoid_atoms if a.x == 0]
    for d in dyadics:
        for g in sp.generators:
            if g == d:
                continue
            cand = FinSet((d, g))
            if cand.min.x <= min(e.x for e in cand) and is_p_atom(cand, sp, bud).is_atom:
                atom_sets.append(cand)
    cid = "projection-gap-mechanism"
    runs = 0
    for size in (1, 2, 3):
        for combo in itertools.combinations(atom_sets, size):
            if size == 3 and rng.random() > 0.02:
                continue
            report = thm55_projection_check(list(combo), sp, bud)
            runs += 1
            if not report.ok:
                return [CheckResult(cid, FAIL, f"{report.detail}: {report.violation}")]
    return [
        CheckResult(cid, PASS, f"{len(atom_sets)} atoms, {runs} sampled sums verified")
    ]


def _suite_lemma_6_1(spec, bud, rng) -> list:
    sp = spec if spec is not None else MonoidSpec.numerical(2, 3)
    pool = members_upto(sp, Fraction(10), bud)
    singleton_branch = nonsingleton_branch = 0
    for size in (1, 2, 3):
        for combo in itertools.combinations(pool, size):
            s = FinSet(combo)
            if s == FinSet((sp.zero,)):
                continue
            d = p_furstenberg_divisor(s, sp, bud)
            if not is_p_atom(d, sp, bud).is_atom:
                return [CheckResult("divisor-is-atom", FAIL, s.render())]
            if divides_in_P(d, s, sp, bud) is None:
                return [CheckResult("divisor-divides", FAIL, s.render())]
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


_SUITES: dict = {
    "lemma-2.6": _suite_lemma_2_6,
    "lemma-3.2": _suite_lemma_3_2,
    "prop-4.1": _suite_prop_4_1,
    "lemma-4.2": _suite_lemma_4_2,
    "thm-4.5": _suite_thm_4_5,
    "ex-4.4": _suite_ex_4_4,
    "cap-additivity": _suite_cap_additivity,
    "lemma-5.2": _suite_lemma_5_2,
    "lemma-5.4": _suite_lemma_5_4,
    "thm-5.5-gap": _suite_thm_5_5,
    "lemma-6.1": _suite_lemma_6_1,
    "prop-6.4": _suite_prop_6_4,
}

SUITE_NAMES = tuple(_SUITES)


def run_verify_suite(
    suite: str,
    spec: Optional[MonoidSpec] = None,
    budget: "Budget | int | None" = None,
) -> VerificationReport:
    """Run one named suite and return its deterministic report."""
    if suite not in _SUITES:
        raise InvalidInputError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    bud = as_budget(budget)
    rng = random.Random(_seed(suite))
    try:
        checks = _SUITES[suite](spec, bud, rng)
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
