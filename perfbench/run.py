"""The finpow benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list

Run it from the root of a finpow checkout.  Workloads: verify-all,
family-dfs, numerical-sets (see BENCHMARK.json for why each exists).

Load is one closed-loop client: each query is issued after the previous one
returns.  Set-up is timed first, in fresh interpreters started one at a time;
then one fresh interpreter runs the workload (perfbench/worker.py).  Times
are in calibrated seconds (perfbench/clock.py).  The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, each metric with its value and unit.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` they are
the per-layer ones from a traced run.  `--list` prints every metric with its
unit and what it should move, on which workload.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import clock  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SETUP_RUNS = 7  # timed set-ups per run, after one untimed warm-up
SETUP_TIMEOUT_S = 30.0  # a set-up interpreter is killed after this
HARD_CAP_S = 170.0  # the worker is killed if the run gets this old


def list_metrics() -> None:
    print("end-to-end metrics (trace 0):")
    for name, unit, better, bound, meaning in END_TO_END:
        print(f"  {name:<16} {unit:<14} {better:<7} bound {bound:<5} {meaning}")
    print("per-layer metrics (trace 1): name, unit, better, should move, on workload")
    for name, (unit, better, moves, where) in PER_LAYER.items():
        print(f"  {name:<40} {unit:<11} {better:<7} {moves} | {where}")


def worker_cmd(root: str, args, *extra: str) -> list[str]:
    return [
        sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]


def read_line(proc: subprocess.Popen, deadline: float) -> bytes:
    """The first line `proc` prints; TimeoutError if none by `deadline`."""
    fd = proc.stdout.fileno()
    buf = b""
    while not buf.endswith(b"\n"):
        left = deadline - time.perf_counter()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise TimeoutError("set-up printed no line in time")
        chunk = os.read(fd, 4096)
        if not chunk:
            break
        buf += chunk
    return buf


def time_setup(root: str, args, deadline: float) -> tuple[float, float]:
    """Median set-up time and median import time over fresh interpreters,
    in calibrated seconds: each is scaled by the machine's speed measured
    just before and just after it."""
    setups, imports = [], []
    before = clock.speed_factor()
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(worker_cmd(root, args, "--setup-only"), cwd=root,
                                stdout=subprocess.PIPE)
        try:
            limit = min(t0 + SETUP_TIMEOUT_S, deadline)
            line = read_line(proc, limit)
            t1 = time.perf_counter()
            proc.communicate(timeout=max(limit - t1, 0.1))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up run exited with code {proc.returncode}")
        after = clock.speed_factor()
        if i:  # the first run compiles bytecode and is not counted
            factor = (before + after) / 2
            setups.append((t1 - t0) * factor)
            imports.append(json.loads(line)["import_s"] * factor)
        before = after
    return statistics.median(setups), statistics.median(imports)


def failed_result(args, elapsed: float) -> dict:
    """The worker's result for a run that did not finish: every metric at
    its worst, the run counted as one failed query."""
    better = ({n: b for n, (u, b, *_r) in PER_LAYER.items()} if args.trace
              else {m[0]: m[2] for m in END_TO_END})
    return {"correct": False, "attempted": 1, "failed": 1,
            "metrics": {n: 0.0 if b == "higher" else elapsed for n, b in better.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true", help="print every metric and exit")
    args = ap.parse_args()
    if args.list:
        list_metrics()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "finpow", "__init__.py")):
        print("error: src/finpow not found; run from the root of a finpow checkout",
              file=sys.stderr)
        return 2
    start = time.perf_counter()

    # the runaway guard: a run whose set-up or worker does not finish is
    # killed and fails as a whole
    try:
        setup_s, import_s = time_setup(root, args, start + HARD_CAP_S)
    except (TimeoutError, subprocess.TimeoutExpired, RuntimeError) as exc:
        elapsed = time.perf_counter() - start
        print(f"error: set-up failed after {elapsed:.1f} s: {exc}", file=sys.stderr)
        setup_s = import_s = elapsed
        res = failed_result(args, elapsed)
    else:
        proc = subprocess.Popen(worker_cmd(root, args), cwd=root, stdout=subprocess.PIPE,
                                text=True)
        try:
            out, _ = proc.communicate(timeout=HARD_CAP_S - (time.perf_counter() - start))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            out = ""
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            elapsed = time.perf_counter() - start
            print(f"error: worker exited with code {proc.returncode} after {elapsed:.1f} s",
                  file=sys.stderr)
            res = failed_result(args, elapsed)
        else:
            res = json.loads(lines[-1])
    metrics = res["metrics"]
    if args.trace:
        metrics["cli.import_s"] = import_s
        units = {n: u for n, (u, *_rest) in PER_LAYER.items()}
    else:
        metrics["setup_s"] = setup_s
        units = {m[0]: m[1] for m in END_TO_END}
    for msg in res.get("messages", []):
        print("check: " + msg, file=sys.stderr)
    info = {k: res[k] for k in ("passes", "timings", "reference_ms", "raw_wall_s") if k in res}
    print(f"{args.workload} seed {args.seed}: {info}", file=sys.stderr)
    result = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
