"""Every suite over generated specs: a suite either refuses a spec before
any node, through the spec test of its `_SUITES` entry, or it runs and
reports PASS, budget-exceeded or truncation-inconclusive.  A FAIL on a
generated spec would claim a counterexample to the paper, and a raise
would be an error the spec test let through; neither may happen.  Through
the CLI, `finpow verify --suite <name> --spec <spec>` exits with one of its
documented codes and prints no traceback."""

import random
from fractions import Fraction as F

from finpow.arith import InvalidInputError, QPoint2
from finpow.backend import Budget, MonoidSpec, clear_caches, render_monoid_spec
from finpow.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, EXIT_USAGE, main
from finpow.suites import _SUITES, OVER, PASS, SUITE_NAMES, TRUNC, run_verify_suite

DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 15, 25)
# the first coordinates that thm-5.5-gap takes, drawn more often than others
HEADS = (F(0), F(1, 5), F(1, 7))
LIMIT = 2000


def draw_spec(rng: random.Random) -> MonoidSpec:
    """A numerical, Puiseux or rank-2 spec of one to four generators."""
    kind, k = rng.choice(("numerical", "puiseux", "rank2")), rng.randint(1, 4)
    if kind == "numerical":
        return MonoidSpec.numerical(*rng.sample(range(1, 16), k))
    if kind == "puiseux":
        return MonoidSpec.puiseux(
            *{F(rng.randint(1, 12), rng.choice(DENOMINATORS)) for _ in range(k)}
        )
    points = set()
    for _ in range(k):
        x = rng.choice(HEADS) if rng.random() < 0.8 else F(rng.randint(0, 3), rng.choice((1, 2, 3)))
        # y leads the order, so a point is positive iff y > 0, or y = 0 < x
        y = F(rng.randint(0 if x else 1, 6), rng.choice((1, 2, 3, 4)))
        points.add(QPoint2(x, y))
    return MonoidSpec.rank2(*points)


FAMILIES = [
    *(MonoidSpec.of_family("EX44", d) for d in (1, 2, 3)),
    *(MonoidSpec.of_family("Q-ODDPRIMES", d) for d in (2, 3, 4)),
    MonoidSpec.of_family("RANK2-5.3", 1, (F(7, 3),)),
    MonoidSpec.of_family("RANK2-5.3", 2, (F(32, 15), F(12, 5))),
    MonoidSpec.of_family("RANK2-5.3", 3, (F(38, 15),)),
]


def test_every_suite_passes_or_refuses_each_generated_spec():
    rng = random.Random(16)
    specs = [draw_spec(rng) for _ in range(200)] + FAMILIES
    kinds = {sp.kind for sp in specs}
    assert kinds == {"numerical", "puiseux", "rank2", "family"}
    bad, ran = [], {name: 0 for name in SUITE_NAMES}
    for sp in specs:
        clear_caches()
        shown = "; ".join(render_monoid_spec(sp).splitlines())
        for name in SUITE_NAMES:
            if _SUITES[name][1](sp):
                try:
                    status = run_verify_suite(name, sp, Budget(LIMIT)).status
                except Exception as exc:  # any raise is a finding
                    status = repr(exc)
                ran[name] += 1
                if status not in (PASS, OVER, TRUNC):
                    bad.append((name, shown, status))
                continue
            bud = Budget(0)
            try:
                run_verify_suite(name, sp, bud)
                bad.append((name, shown, "taken under Budget(0)"))
            except InvalidInputError:
                if bud.used:
                    bad.append((name, shown, f"refused after {bud.used} nodes"))
    assert bad == []
    # every suite that takes a spec took some of the generated ones
    assert [name for name, n in ran.items() if not n] == ["lemma-5.4"]


def test_verify_through_the_cli_exits_with_a_code_and_no_traceback(monkeypatch, capsys):
    # exit 2 exactly when the suite's spec test refuses the spec; a run that
    # runs out of its 2000 nodes exits 3, inconclusive
    monkeypatch.setenv("FINPOW_BUDGET", str(LIMIT))
    rng = random.Random(29)
    specs = [draw_spec(rng) for _ in range(20)] + FAMILIES
    bad = []
    for sp in specs:
        shown = "; ".join(render_monoid_spec(sp).splitlines())
        for name in SUITE_NAMES:
            clear_caches()
            try:
                code = main(["verify", "--suite", name, "--spec", shown])
            except Exception as exc:  # main let it out: a user would see a traceback
                code = repr(exc)
            err = capsys.readouterr().err
            refused = not _SUITES[name][1](sp)
            if (
                code not in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_INCONCLUSIVE)
                or "Traceback" in err
                or (code == EXIT_USAGE) != refused
            ):
                bad.append((name, shown, code, err))
    assert bad == []
