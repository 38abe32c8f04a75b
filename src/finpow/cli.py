"""Command-line front end.

Exit codes: 0 pass, 1 check failure, 2 usage error, 3 budget exhausted or
truncation-inconclusive.
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
from .power import divides_in_P, is_p_atom, p_factorize, parse_finset, sumset
from .mcd import chain_divisors, ex44_chain, mcd
from .suites import FAIL, OVER, TRUNC, run_all_suites, run_verify_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# --depth truncates a family spec; given none, the flag would be ignored
_DEPTH_NEEDS_A_FAMILY = "--depth needs a family spec to truncate"


def _flag_or_env(flag: Optional[int], name: str) -> Optional[int]:
    """An explicit flag's value, else the environment variable `name`'s,
    else None: an ambient default yields to the flag."""
    raw = os.environ.get(name) if flag is None else None
    if raw is None:
        return flag
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
    if args.depth is not None and spec.kind != "family":
        raise InvalidInputError(_DEPTH_NEEDS_A_FAMILY)
    depth = _flag_or_env(args.depth, "FINPOW_DEPTH")
    if depth is not None and spec.kind == "family":
        spec = MonoidSpec.of_family(spec.family, depth, spec.sample)
    return spec


def _budget(args) -> Budget:
    limit = _flag_or_env(args.budget, "FINPOW_BUDGET")
    if limit is None:
        return Budget(DEFAULT_BUDGET)
    if limit <= 0:
        raise InvalidInputError(f"budget must be a positive node count, got {limit}")
    return Budget(limit)


def _load_sets(args, *texts) -> tuple:
    """(spec, budget, *sets) for the set arguments `texts`.  The library
    rejects a set outside P_fin(M), so no membership is tested here."""
    spec = _load_spec(args)
    sets = [parse_finset(t) for t in texts]
    return (spec, _budget(args), *sets)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="finpow",
        description="Exact computation in finitary power monoids of ordered monoids.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, positionals, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg, type=int if arg == "length" else None)
        if name == "verify":
            p.add_argument("--suite", required=True, help="suite name or 'all'")
            p.add_argument("--format", choices=("text", "json-lines"), default="text")
            p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--spec", help="inline monoid spec; ';' separates lines")
        p.add_argument("--spec-file", help="path to a monoid spec file")
        p.add_argument("--budget", type=int, default=None, help="search-node budget")
        p.add_argument("--depth", type=int, default=None, help="family truncation depth")
    return ap


def _cmd_sumset(args) -> int:
    # a sumset needs no monoid, so every flag it lists would be ignored
    for flag in ("spec", "spec_file", "budget", "depth"):
        if getattr(args, flag) is not None:
            raise InvalidInputError(f"sumset takes no --{flag.replace('_', '-')}")
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
    ok = member(parse_element(args.element), spec, _budget(args))
    print("member" if ok else "non-member")
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_factorize(args) -> int:
    spec = _load_spec(args)
    facs = factorizations(parse_element(args.element), spec, _budget(args))
    if not facs:
        print("no factorization")
        return EXIT_FAIL
    for f in facs:
        print(f.render())
    return EXIT_PASS


def _cmd_divides(args) -> int:
    spec, bud, s, t = _load_sets(args, args.left, args.right)
    w = divides_in_P(s, t, spec, bud)
    if w is None:
        print("does not divide")
        return EXIT_FAIL
    print(f"divides with witness {w.render()}")
    return EXIT_PASS


def _cmd_p_atom(args) -> int:
    spec, bud, s = _load_sets(args, args.set)
    cert = is_p_atom(s, spec, bud)
    if cert.is_atom:
        print("atom")
        return EXIT_PASS
    dec = cert.counterexample
    print(f"not an atom: {dec.left.render()} + {dec.right.render()}")
    return EXIT_FAIL


def _cmd_p_factorize(args) -> int:
    spec, bud, s = _load_sets(args, args.set)
    parts = p_factorize(s, spec, bud)
    print(" + ".join(p.render() for p in parts) if parts else "{0} (empty factorization)")
    return EXIT_PASS


def _cmd_mcd(args) -> int:
    spec, bud, s = _load_sets(args, args.set)
    for d in mcd(s, spec, bud):
        print(render_element(d))
    return EXIT_PASS


def _cmd_chain(args) -> int:
    spec = _load_spec(args) if (args.spec or args.spec_file) else None
    if spec is not None and spec.family != "EX44":
        raise InvalidInputError("chain needs an EX44 family spec")
    # `_load_spec` has applied --depth, else FINPOW_DEPTH, to a spec's depth
    depth = spec.depth if spec is not None else _flag_or_env(args.depth, "FINPOW_DEPTH")
    if depth is None:
        depth = 6
    try:
        steps = ex44_chain(args.length, depth, _budget(args))
    except TruncationError as exc:
        partial = exc.partial or []
        print(
            f"truncation reached after {len(partial)} steps: "
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
    given = bool(args.spec or args.spec_file)
    if args.depth is not None and not given:
        raise InvalidInputError(_DEPTH_NEEDS_A_FAMILY)
    if args.suite == "all":
        if given:
            raise InvalidInputError(
                "--suite all takes no spec; name one suite to run it on a spec"
            )
        reports = run_all_suites(_budget(args).limit)
    else:
        spec = _load_spec(args) if given else None
        reports = [run_verify_suite(args.suite, spec, _budget(args))]
    text = "".join(
        r.to_text() if args.format == "text" else r.to_json_lines() for r in reports
    )
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInputError(f"cannot write {args.out}: {exc.strerror}") from exc
    exits = {FAIL: EXIT_FAIL, OVER: EXIT_INCONCLUSIVE, TRUNC: EXIT_INCONCLUSIVE}
    return max(exits.get(r.status, EXIT_PASS) for r in reports)


# name -> (help, positional arguments, handler); every subcommand also lists
# --spec, --spec-file, --budget and --depth, and refuses one it would ignore
_COMMANDS = {
    "sumset": ("sumset of two finite sets", ("left", "right"), _cmd_sumset),
    "atoms": ("atoms of the monoid", (), _cmd_atoms),
    "member": ("membership of an element", ("element",), _cmd_member),
    "factorize": ("factorizations of an element into atoms", ("element",), _cmd_factorize),
    "divides": ("set divisibility in the power monoid", ("left", "right"), _cmd_divides),
    "p-atom": ("atom test in the power monoid", ("set",), _cmd_p_atom),
    "p-factorize": ("factor a set into power-monoid atoms", ("set",), _cmd_p_factorize),
    "mcd": ("maximal common divisors of a finite set", ("set",), _cmd_mcd),
    "chain": ("ascending common-divisor chain of {1, 4/3}", ("length",), _cmd_chain),
    "verify": ("run a named verification suite", (), _cmd_verify),
}


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return _COMMANDS[args.command][2](args)
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
