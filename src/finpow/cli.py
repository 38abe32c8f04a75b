"""Command-line front end.

Subcommands: sumset, atoms, member, factorize, divides, p-atom, p-factorize,
mcd, chain, verify.  Exit codes: 0 pass, 1 check failure, 2 usage error,
3 budget exhausted or truncation-inconclusive.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .arith import InvalidInputError, parse_element, render_element
from .backend import (
    Budget,
    BudgetExceededError,
    DEFAULT_BUDGET,
    MonoidSpec,
    TruncationError,
    atoms,
    factorizations,
    member,
    parse_monoid_spec,
)
from .power import divides_in_P, is_p_atom, p_factorize, parse_finset, sumset, NOT_ATOMIC
from .mcd import chain_divisors, ex44_chain, mcd
from .suites import run_all_suites, run_verify_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _env_int(name: str, fallback: Optional[int]) -> Optional[int]:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(f"{name} must be an integer, got {raw!r}") from None


def _load_spec(args) -> MonoidSpec:
    if args.spec_file:
        try:
            with open(args.spec_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InvalidInputError(f"cannot read spec file: {exc}") from exc
    elif args.spec:
        text = args.spec.replace(";", "\n")
    else:
        raise InvalidInputError("a monoid spec is required (--spec or --spec-file)")
    spec = parse_monoid_spec(text)
    depth = _env_int("FINPOW_DEPTH", args.depth)
    if depth is not None and spec.kind == "family":
        spec = MonoidSpec(
            spec.kind, spec.generators, family=spec.family, depth=depth, sample=spec.sample
        )
    return spec


def _budget_limit(args) -> int:
    limit = _env_int("FINPOW_BUDGET", args.budget)
    if limit is None:
        return DEFAULT_BUDGET
    if limit <= 0:
        raise InvalidInputError(f"budget must be a positive node count, got {limit}")
    return limit


def _budget(args) -> Budget:
    return Budget(_budget_limit(args))


def _element(args, spec: MonoidSpec):
    """The element argument, a rational or a point matching the spec."""
    q = parse_element(args.element)
    spec.check_element(q)
    return q


def _require_members(spec: MonoidSpec, bud: Budget, *sets) -> None:
    """Reject a set with an element outside M: such a set lies outside
    P_fin(M), and no verdict about it may be certified."""
    for s in sets:
        for e in s:
            if not member(e, spec, bud):
                raise InvalidInputError(f"{render_element(e)} is not in the monoid")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="inline monoid spec; ';' separates lines")
    p.add_argument("--spec-file", help="path to a monoid spec file")
    p.add_argument("--budget", type=int, default=None, help="search-node budget")
    p.add_argument("--depth", type=int, default=None, help="family truncation depth")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="finpow",
        description="Exact computation in finitary power monoids of ordered monoids.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sumset", help="sumset of two finite sets")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p)

    p = sub.add_parser("atoms", help="atoms of the monoid")
    _add_common(p)

    p = sub.add_parser("member", help="membership of an element")
    p.add_argument("element")
    _add_common(p)

    p = sub.add_parser("factorize", help="factorizations of an element into atoms")
    p.add_argument("element")
    _add_common(p)

    p = sub.add_parser("divides", help="set divisibility in the power monoid")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p)

    p = sub.add_parser("p-atom", help="atom test in the power monoid")
    p.add_argument("set")
    _add_common(p)

    p = sub.add_parser("p-factorize", help="factor a set into power-monoid atoms")
    p.add_argument("set")
    _add_common(p)

    p = sub.add_parser("mcd", help="maximal common divisors of a finite set")
    p.add_argument("set")
    _add_common(p)

    p = sub.add_parser("chain", help="ascending common-divisor chain of {1, 4/3}")
    p.add_argument("length", type=int)
    _add_common(p)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, help="suite name or 'all'")
    p.add_argument("--format", choices=("text", "json-lines"), default="text")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    _add_common(p)

    return ap


def _emit(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc.strerror}") from exc


def emit_report(report, path: str = "-", format: str = "text") -> None:
    """Serialize one report (or a list of reports) bit-stably."""
    reports = report if isinstance(report, list) else [report]
    chunks = [
        r.to_text() if format == "text" else r.to_json_lines() for r in reports
    ]
    _emit("".join(chunks), path)


def _cmd_sumset(args) -> int:
    s, t = parse_finset(args.left), parse_finset(args.right)
    print(sumset(s, t).render())
    return EXIT_PASS


def _cmd_atoms(args) -> int:
    spec = _load_spec(args)
    for a in atoms(spec, _budget(args)):
        print(render_element(a))
    return EXIT_PASS


def _cmd_member(args) -> int:
    spec = _load_spec(args)
    ok = member(_element(args, spec), spec, _budget(args))
    print("member" if ok else "non-member")
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_factorize(args) -> int:
    spec = _load_spec(args)
    facs = factorizations(_element(args, spec), spec, _budget(args))
    for f in facs:
        print(f.render())
    return EXIT_PASS if facs else EXIT_FAIL


def _cmd_divides(args) -> int:
    spec = _load_spec(args)
    s, t = parse_finset(args.left), parse_finset(args.right)
    bud = _budget(args)
    _require_members(spec, bud, s, t)
    w = divides_in_P(s, t, spec, bud)
    if w is None:
        print("does not divide")
        return EXIT_FAIL
    print(f"divides with witness {w.render()}")
    return EXIT_PASS


def _cmd_p_atom(args) -> int:
    spec = _load_spec(args)
    s = parse_finset(args.set)
    bud = _budget(args)
    _require_members(spec, bud, s)
    cert = is_p_atom(s, spec, bud)
    if cert.is_atom:
        print("atom")
        return EXIT_PASS
    dec = cert.counterexample
    print(f"not an atom: {dec.left.render()} + {dec.right.render()}")
    return EXIT_FAIL


def _cmd_p_factorize(args) -> int:
    spec = _load_spec(args)
    s = parse_finset(args.set)
    bud = _budget(args)
    _require_members(spec, bud, s)
    parts = p_factorize(s, spec, bud)
    if parts is NOT_ATOMIC:
        print("not atomic")
        return EXIT_FAIL
    print(" + ".join(p.render() for p in parts) if parts else "{0} (empty factorization)")
    return EXIT_PASS


def _cmd_mcd(args) -> int:
    spec = _load_spec(args)
    s = parse_finset(args.set)
    bud = _budget(args)
    _require_members(spec, bud, s)
    out = mcd(s, spec, bud)
    if not out:
        print("no maximal common divisor found")
        return EXIT_FAIL
    for d in out:
        print(render_element(d))
    return EXIT_PASS


def _cmd_chain(args) -> int:
    spec = _load_spec(args) if (args.spec or args.spec_file) else None
    depth = (
        spec.depth
        if spec is not None and spec.kind == "family"
        else _env_int("FINPOW_DEPTH", args.depth)
    )
    if depth is None:
        depth = 6
    try:
        steps = ex44_chain(args.length, depth, _budget(args))
    except TruncationError as exc:
        partial = exc.partial or []
        print(
            "truncation reached after "
            f"{len(partial)} steps: "
            + " < ".join(render_element(v) for v in chain_divisors(partial))
        )
        return EXIT_INCONCLUSIVE
    print(" < ".join(render_element(v) for v in chain_divisors(steps)))
    for step in steps:
        c1, c2 = step.residual_certificates
        print(
            f"  at {render_element(step.q)}: increment {render_element(step.increment)}"
            f"; 1 residue = {c1.render()}; 4/3 residue = {c2.render()}"
        )
    return EXIT_PASS


def _cmd_verify(args) -> int:
    spec = _load_spec(args) if (args.spec or args.spec_file) else None
    if args.suite == "all":
        reports = run_all_suites(spec, _budget_limit(args))
    else:
        reports = [run_verify_suite(args.suite, spec, _budget(args))]
    emit_report(reports, args.out, args.format)
    worst = EXIT_PASS
    for r in reports:
        if r.status == "fail":
            worst = max(worst, EXIT_FAIL)
        elif r.status in ("truncation-inconclusive", "budget-exceeded"):
            worst = max(worst, EXIT_INCONCLUSIVE)
    return worst


_COMMANDS = {
    "sumset": _cmd_sumset,
    "atoms": _cmd_atoms,
    "member": _cmd_member,
    "factorize": _cmd_factorize,
    "divides": _cmd_divides,
    "p-atom": _cmd_p_atom,
    "p-factorize": _cmd_p_factorize,
    "mcd": _cmd_mcd,
    "chain": _cmd_chain,
    "verify": _cmd_verify,
}


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return _COMMANDS[args.command](args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except TruncationError as exc:
        print(f"truncation-inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    raise SystemExit(main())
