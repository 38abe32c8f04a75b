"""Regenerate perfbench/golden.json from the library in ./src.

    python3 perfbench/make_golden.py

Run it from the root of a checkout whose answers are trusted (every answer
also passes its independent re-check here).  It records the `verify --suite
all` output, per-query answer hashes for the default seed, and one digest
of all answers for each of GOLDEN_SEEDS.
"""
from __future__ import annotations

import io
import json
import os
import sys
import contextlib
import signal

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import worker  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
GOLDEN_SEEDS = range(100)


def main() -> int:
    import finpow.cli

    signal.signal(signal.SIGALRM, worker._on_alarm)
    worker.RUN_CAP_S = float("inf")  # this is no benchmark run

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = finpow.cli.main(list(worker.VERIFY_ARGV))
    if rc != 0:
        raise SystemExit(f"verify exited with {rc}")
    lines = {}
    for line in buf.getvalue().splitlines():
        lines.setdefault(json.loads(line)["suite"], []).append(line)
    golden = {"verify-all": {"sha256": worker.sha256_text(buf.getvalue()), "lines": lines}}
    for name, build in workloads.BUILDERS.items():
        entry = golden[name] = {"per_query": {}, "digests": {}}
        for seed in GOLDEN_SEEDS:
            queries = build(seed)
            p = worker.generated_pass(queries)
            hashes = []
            for i, (q, a) in enumerate(zip(queries, p["answers"])):
                bad = worker.failure_of(q, a)
                if bad:
                    raise SystemExit(f"{name} seed {seed} query {i}: {bad}")
                hashes.append(worker.answer_hash(q, a))
            entry["digests"][str(seed)] = worker.sha256_text("\n".join(hashes))
            if seed == DEFAULT_SEED:
                entry["per_query"][str(seed)] = hashes
            print(f"{name} seed {seed}: {len(queries)} answers", file=sys.stderr)
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
