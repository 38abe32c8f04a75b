"""In-process times of two source trees of `finpow`, per suite or per
query kind, on the standard library alone.

    python3 tools/suitetime.py PARENT_SRC CHANGE_SRC [--rounds N]
        [--workload verify-all|numerical-sets|family-dfs]

PARENT_SRC and CHANGE_SRC are the `src` directories of two trees, say a
copy of the parent commit made with `git archive` and the working tree.

With `--workload verify-all` (the default) the script first runs `finpow
verify --suite all --format json-lines` on each and exits 2 if the two
outputs differ, by sha256: a timing of two trees that answer differently
compares nothing.  Each timed interpreter then runs every named suite of
`verify --suite all` three times, cold, with the caches cleared before
each run, as `run_all_suites` does, and reports its best time per suite.

With `--workload numerical-sets` or `family-dfs`, each interpreter builds
the seed-1 query mix of that benchmark workload from the `perfbench/`
directory beside this script, which it imports without writing to it, so
that both sides run the same queries.  It runs the whole mix three times,
each pass cold, with the caches cleared before it, a fresh `Budget` per
query as the benchmark gives, and reports per query kind its best summed
time over the passes, with each query's rendered answer and `Budget.used`
from its first pass.  The script exits 2 if the two trees differ in any
answer or any query's `Budget.used`, and names the first query that does.

In each of N rounds (default 10), the script starts one fresh interpreter
per side, the side that goes first alternating from round to round.  Per
suite or query kind, it prints each side's best time over the N rounds in
ms, and in how many rounds each side was the faster one; a row that one
side wins in nearly every round has moved beyond the noise of the
machine.  Run on the same tree twice, it shows what that noise is.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
WORKLOADS = ("verify-all", "numerical-sets", "family-dfs")

SUITES_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from finpow.backend import as_budget, clear_caches
from finpow.suites import SUITE_NAMES, run_verify_suite
best = {}
for _ in range(3):
    for name in SUITE_NAMES:
        clear_caches()
        start = time.perf_counter()
        run_verify_suite(name, None, as_budget(None))
        elapsed = time.perf_counter() - start
        best[name] = min(best.get(name, elapsed), elapsed)
print(json.dumps({"times": best}))
"""

QUERIES_CHILD = """
import json, sys, time
src, perfbench, workload = sys.argv[1:4]
sys.dont_write_bytecode = True  # perfbench/ is only read
sys.path[:0] = [src, perfbench]
import workloads
from finpow import Budget
from finpow.backend import clear_caches
queries = workloads.BUILDERS[workload](1)
best, answers = {}, []
for run in range(3):
    clear_caches()
    spent = dict.fromkeys((q.kind for q in queries), 0.0)
    for q in queries:
        bud = Budget()
        start = time.perf_counter()
        try:
            ans = workloads.run_query(q, bud)
        except Exception as exc:
            ans = exc
        spent[q.kind] += time.perf_counter() - start
        if not run:
            text = f"raised {ans!r}" if isinstance(ans, Exception) else workloads.render_answer(q, ans)
            answers.append([q.kind, text, bud.used])
    for kind, elapsed in spent.items():
        best[kind] = min(best.get(kind, elapsed), elapsed)
print(json.dumps({"times": best, "answers": answers}))
"""


def verify_sha256(src: str) -> str:
    """The sha256 of `finpow verify --suite all --format json-lines` run on
    the tree whose package lies in src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    run = subprocess.run(
        [sys.executable, "-m", "finpow.cli", "verify", "--suite", "all", "--format", "json-lines"],
        env=env, capture_output=True, check=False,
    )
    if run.returncode != 0 or not run.stdout:
        sys.exit(f"verify --suite all failed on {src}: exit {run.returncode}\n{run.stderr.decode()}")
    return hashlib.sha256(run.stdout).hexdigest()


def child_run(src: str, workload: str) -> dict:
    """{"times": {row: best of three cold in-process runs, in s}} from one
    fresh interpreter on the tree whose package lies in src; for a query
    workload also "answers", [kind, rendered answer, Budget.used] per
    query."""
    if workload == "verify-all":
        cmd = [sys.executable, "-c", SUITES_CHILD, os.path.abspath(src)]
    else:
        cmd = [sys.executable, "-c", QUERIES_CHILD, os.path.abspath(src), PERFBENCH, workload]
    run = subprocess.run(cmd, capture_output=True, check=True, text=True)
    return json.loads(run.stdout)


def first_difference(parent: list, change: list) -> str | None:
    """A line naming the first query whose answer or `Budget.used` differs
    between the two sides, None if none does."""
    if len(parent) != len(change):
        return f"the parent ran {len(parent)} queries, the change {len(change)}"
    for i, (p, c) in enumerate(zip(parent, change)):
        if p != c:
            return f"query {i} ({p[0]}): parent {p[1]!r} at {p[2]} nodes, change {c[1]!r} at {c[2]} nodes"
    return None


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--workload", choices=WORKLOADS, default="verify-all")
    args = parser.parse_args(argv)
    sides = (args.parent_src, args.change_src)
    if args.workload == "verify-all":
        shas = [verify_sha256(src) for src in sides]
        print(f"verify-all sha256: parent {shas[0][:12]}, change {shas[1][:12]}")
        if shas[0] != shas[1]:
            print("the two trees answer verify --suite all differently; no timing")
            return 2
    rounds = []
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        runs = [None, None]
        for side in order:
            runs[side] = child_run(sides[side], args.workload)
        if args.workload != "verify-all":
            diff = first_difference(runs[0]["answers"], runs[1]["answers"])
            if diff:
                print(f"the two trees answer {args.workload} differently; no timing\n{diff}")
                return 2
        rounds.append([runs[0]["times"], runs[1]["times"]])
        print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)
    label = "suite" if args.workload == "verify-all" else "query kind"
    print(f"{label:<16}{'parent ms':>11}{'change ms':>11}{'change/parent':>15}"
          f"{'parent won':>12}{'change won':>12}")
    totals = [0.0, 0.0]
    for name in rounds[0][0]:
        best = [min(times[side][name] for times in rounds) for side in (0, 1)]
        wins = [sum(times[side][name] < times[1 - side][name] for times in rounds) for side in (0, 1)]
        totals = [totals[0] + best[0], totals[1] + best[1]]
        print(f"{name:<16}{best[0] * 1e3:>11.2f}{best[1] * 1e3:>11.2f}{best[1] / best[0]:>15.3f}"
              f"{wins[0]:>12}{wins[1]:>12}")
    print(f"{'sum of bests':<16}{totals[0] * 1e3:>11.2f}{totals[1] * 1e3:>11.2f}"
          f"{totals[1] / totals[0]:>15.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
