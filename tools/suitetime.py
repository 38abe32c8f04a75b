"""Per-suite in-process times of two source trees of `finpow`, on the
standard library alone.

    python3 tools/suitetime.py PARENT_SRC CHANGE_SRC [--rounds N]

PARENT_SRC and CHANGE_SRC are the `src` directories of two trees, say a
copy of the parent commit made with `git archive` and the working tree.
The script first runs `finpow verify --suite all --format json-lines` on
each and exits 2 if the two outputs differ, by sha256: a timing of two
trees that answer differently compares nothing.

Then, in each of N rounds (default 10), it starts one fresh interpreter
per side, the side that goes first alternating from round to round.  Each
interpreter runs every named suite of `verify --suite all` three times,
cold, with the caches cleared before each run, as
`run_all_suites` does, and reports its best time per suite.  Per suite,
the script prints each side's best time over the N rounds in ms, and in
how many rounds each side was the faster one; a suite that one side wins
in nearly every round has moved beyond the noise of the machine.  Run on
the same tree twice, it shows what that noise is.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

CHILD = """
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
print(json.dumps(best))
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


def suite_times(src: str) -> dict:
    """{suite: best of three cold in-process runs, in s} from one fresh
    interpreter on the tree whose package lies in src."""
    run = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.abspath(src)],
        capture_output=True, check=True, text=True,
    )
    return json.loads(run.stdout)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    sides = (args.parent_src, args.change_src)
    shas = [verify_sha256(src) for src in sides]
    print(f"verify-all sha256: parent {shas[0][:12]}, change {shas[1][:12]}")
    if shas[0] != shas[1]:
        print("the two trees answer verify --suite all differently; no timing")
        return 2
    rounds = []
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        times = [None, None]
        for side in order:
            times[side] = suite_times(sides[side])
        rounds.append(times)
        print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)
    print(f"{'suite':<16}{'parent ms':>11}{'change ms':>11}{'change/parent':>15}"
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
