"""One workload run in a fresh interpreter, started by run.py.

    python3 perfbench/worker.py --root DIR --workload W --seed N \
        --seconds S --trace 0|1 [--setup-only]

With --setup-only the worker imports finpow, builds the workload's inputs,
prints one JSON line and exits; run.py times it from spawn to that line.
Otherwise it repeats passes over the queries for --seconds (at least one
pass), clearing the library's caches before each pass, re-checks the
answers outside the timed region and prints one JSON line of results.
Untraced runs time everything with the calibrated clock of clock.py.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

t_start = time.perf_counter()
# What timings read: the calibrated clock in untraced runs (see main).
now = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))

QUERY_CAP_S = 30.0  # a generated query running longer is killed
SUITE_CAP_S = 120.0  # likewise for one verification suite
RUN_CAP_S = 140.0  # no query starts, and none runs on, past this
MAX_PASSES = 200
# verify-all times each suite that took under SHORT_SUITE_S this many more
# times: a few timings of a sub-second suite are too noisy for the median.
SHORT_SUITE_REPEATS = 12
SHORT_SUITE_S = 0.5


class QueryTimeout(BaseException):
    """Raised by the alarm inside a query that ran past its cap."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


@contextlib.contextmanager
def guard(cap: float):
    """Kill the enclosed query with QueryTimeout after `cap` seconds."""
    signal.setitimer(signal.ITIMER_REAL, max(cap, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def remaining() -> float:
    return RUN_CAP_S - (time.perf_counter() - t_start)


def clear_library_caches() -> None:
    """Start cold, as a user's session does."""
    clear = getattr(sys.modules["finpow.backend"], "clear_caches", None)
    if clear is not None:
        clear()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def source_digest(root: str) -> str:
    """Digest of the library's and the benchmark's sources, which keys
    stored counters."""
    h = hashlib.sha256()
    for d in (os.path.join(root, "src", "finpow"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


# -- verify-all ---------------------------------------------------------------

VERIFY_ARGV = ["verify", "--suite", "all", "--format", "json-lines"]


def verify_pass(tracer=None) -> dict:
    """One `finpow verify --suite all` through the CLI entry point."""
    cli = sys.modules["finpow.cli"]
    suites = sys.modules["finpow.suites"]
    inner = suites.run_verify_suite
    latencies, killed = {}, []

    def timed_suite(name, *args, **kwargs):
        if tracer is not None:
            tracer.query_id += 1
        cap = min(SUITE_CAP_S, remaining())
        t0 = now()
        try:
            with guard(cap):
                return inner(name, *args, **kwargs)
        except QueryTimeout:
            killed.append(name)
            raise
        finally:
            latencies[name] = now() - t0

    suites.run_verify_suite = timed_suite
    buf = io.StringIO()
    t0 = now()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(VERIFY_ARGV))
    except QueryTimeout:
        rc = None
    finally:
        wall = now() - t0
        suites.run_verify_suite = inner
    return {"wall": wall, "latencies": latencies, "output": buf.getvalue(), "rc": rc,
            "killed": killed}


def judge_verify(passes, golden) -> tuple[set, list]:
    """(failed suites, messages): every suite of every pass must reproduce
    the golden output byte for byte, and the CLI must exit 0."""
    gold = golden["verify-all"]
    want = gold["lines"]
    failed, msgs = set(), []
    for p in passes:
        got = {}
        for line in p["output"].splitlines():
            try:
                suite = json.loads(line)["suite"]
            except (ValueError, KeyError, TypeError):
                suite = "?"
            got.setdefault(suite, []).append(line)
        bad = {s for s in set(want) | set(got) if want.get(s) != got.get(s)}
        bad |= set(p["killed"])
        digest = sha256_text(p["output"])
        if digest != gold["sha256"]:
            msgs.append(f"output sha256 {digest} differs from golden; suites {sorted(bad)}")
            bad = bad or {"(digest)"}
        if p["rc"] != 0:
            msgs.append(f"verify exited with code {p['rc']}")
            bad = bad or {"(exit code)"}
        failed |= bad
    return failed, msgs


def repeat_short_suites(first: dict, golden: dict) -> tuple[list, set, list]:
    """(timings, failed suites, messages) of SHORT_SUITE_REPEATS more
    rounds over the suites that took under SHORT_SUITE_S in the CLI pass,
    each called as `run_all_suites` calls it."""
    from finpow import Budget

    suites = sys.modules["finpow.suites"]
    want = golden["verify-all"]["lines"]
    short = [name for name, sec in first["latencies"].items() if sec < SHORT_SUITE_S]
    rounds, failed, msgs = [], set(), []
    for _ in range(SHORT_SUITE_REPEATS):
        timings = {}
        for name in short:
            clear_library_caches()
            t0 = now()
            try:
                with guard(min(SUITE_CAP_S, remaining())):
                    report = suites.run_verify_suite(name, None, Budget())
            except QueryTimeout:
                failed.add(name)
                msgs.append(f"suite {name} killed when repeated")
                continue
            timings[name] = now() - t0
            if report.to_json_lines() != "".join(line + "\n" for line in want.get(name, [])):
                failed.add(name)
                msgs.append(f"suite {name} differs from golden when repeated")
        rounds.append(timings)
    return rounds, failed, msgs


# -- generated workloads ------------------------------------------------------


def generated_pass(queries, tracer=None) -> dict:
    from finpow import Budget
    import workloads

    clear_library_caches()
    latencies, answers, nodes = [], [], []
    t0 = now()
    for q in queries:
        if tracer is not None:
            tracer.query_id += 1
        bud = Budget()
        cap = min(QUERY_CAP_S, remaining())
        if cap <= 0:
            answers.append(("killed", "run cap reached"))
            latencies.append(0.0)
            nodes.append(bud.used)
            continue
        q0 = now()
        try:
            with guard(cap):
                ans = workloads.run_query(q, bud)
        except QueryTimeout:
            ans = ("killed", f"over {cap:.0f} s")
        except Exception as exc:  # any library error fails the query, not the run
            ans = ("error", repr(exc))
        latencies.append(now() - q0)
        answers.append(ans)
        nodes.append(bud.used)
    wall = now() - t0
    return {"wall": wall, "latencies": latencies, "answers": answers, "nodes": nodes}


def call_failure(ans):
    """What went wrong with a query that raised or was killed, else None."""
    if isinstance(ans, tuple) and len(ans) == 2 and ans[0] in ("killed", "error"):
        return f"{ans[0]}: {ans[1]}"
    return None


def failure_of(q, ans):
    """What is wrong with an answer, by its independent re-check, else None."""
    import workloads

    bad = call_failure(ans)
    if bad:
        return bad
    try:
        return workloads.check_answer(q, ans)
    except Exception as exc:  # a malformed answer fails its re-check
        return f"re-check raised {exc!r}"


def answer_hash(q, ans) -> str:
    import workloads

    try:
        text = workloads.render_answer(q, ans)
    except Exception as exc:  # a malformed answer still gets a hash, a wrong one
        text = f"unrenderable {exc!r}"
    return sha256_text(f"{q.kind} {text}")[:16]


def judge_generated(queries, passes, gold: dict, seed: int) -> tuple[int, int, list]:
    """(attempted, failed, messages), counting each query once however many
    passes ran it.

    The first pass is re-checked query by query and compared with the golden
    answers of this seed, when golden.json has them; every later pass must
    repeat the first pass's answers and node counts.
    """
    first = passes[0]
    msgs = []
    fails = [failure_of(q, a) for q, a in zip(queries, first["answers"])]
    hashes = [None if f else answer_hash(q, a)
              for q, a, f in zip(queries, first["answers"], fails)]
    for i, f in enumerate(fails):
        if f:
            msgs.append(f"query {i} ({queries[i].kind}): {f}")
    per_query = gold.get("per_query", {}).get(str(seed))
    digest = gold.get("digests", {}).get(str(seed))
    if per_query is not None:
        for i, (got, want) in enumerate(zip(hashes, per_query)):
            if got is not None and got != want:
                fails[i] = "differs from golden"
                msgs.append(f"query {i} ({queries[i].kind}): answer differs from golden")
    elif digest is not None and not any(fails):
        if sha256_text("\n".join(hashes)) != digest:
            fails[0] = "digest"  # which query differs is unknown; count one
            msgs.append("answers digest differs from golden")
    for p in passes[1:]:
        for i, (q, a) in enumerate(zip(queries, p["answers"])):
            f = call_failure(a)
            if not f and hashes[i] != answer_hash(q, a):
                f = "answer changed between passes"
            if not f and p["nodes"][i] != first["nodes"][i]:
                f = "node count changed between passes"
            if f:
                fails[i] = fails[i] or f
                msgs.append(f"query {i} ({q.kind}), later pass: {f}")
    return len(queries), sum(1 for f in fails if f), msgs


# -- running a workload -------------------------------------------------------


def run_passes(one_pass, seconds: float) -> list:
    """At least one pass; more while the next one fits in `seconds`.

    The first pass records the process's peak RSS when it ends, before the
    answers of later passes are kept for judging."""
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MAX_PASSES:
        raw = time.perf_counter()
        passes.append(one_pass())
        passes[-1]["raw_wall"] = time.perf_counter() - raw
        if len(passes) == 1:
            passes[0]["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        spent = time.perf_counter() - t0
        typical = statistics.median(p["raw_wall"] for p in passes)
        if spent + typical > seconds or typical > remaining():
            break
    return passes


def end_to_end(passes, timings: list[dict], n_queries: int, attempted: int, failed: int) -> dict:
    """The end-to-end metrics.  `timings` maps queries to seconds, one dict
    per pass or round; a query's latency is the median of its timings."""
    wall = statistics.median(p["wall"] for p in passes)
    by_query = {}
    for t in timings:
        for key, sec in t.items():
            by_query.setdefault(key, []).append(sec)
    lat = [statistics.median(v) * 1000 for v in by_query.values()]
    return {
        "wall_s": wall,
        "throughput_qps": n_queries / wall,
        "query_ms_p50": statistics.median(lat),
        "query_ms_p95": statistics.quantiles(lat, n=20, method="inclusive")[-1],
        "peak_rss_mb": passes[0]["peak_rss_kb"] / 1024,
        "ops_ok_ratio": 1 - failed / attempted,
    }


def traced_run(args, one_pass, judge, queries) -> dict:
    """Untraced and traced passes, alternating so that both see the same
    machine; per-layer metrics come from the traced pass of median wall
    time."""
    from tracer import Tracer
    import metrics

    tracers = []

    def traced_pass():
        tr = Tracer()
        tr.install()
        try:
            p = one_pass(tr)
        finally:
            tr.uninstall()
        tracers.append(tr)
        return p

    def pair():
        plain, traced = one_pass(), traced_pass()
        return {"wall": plain["wall"] + traced["wall"], "plain": plain, "traced": traced}

    pairs = run_passes(pair, args.seconds)
    plain = [p["plain"] for p in pairs]
    traced = [p["traced"] for p in pairs]
    attempted, failed, msgs = judge(plain + traced)
    problems = [f"{name} is still reachable untraced" for name in tracers[0].uncovered]
    walls = [p["wall"] for p in traced]
    mid = sorted(range(len(traced)), key=walls.__getitem__)[(len(traced) - 1) // 2]
    tr = tracers[mid]
    layer = metrics.layer_metrics(tr, walls[mid], statistics.median(p["wall"] for p in plain))
    counts = [metrics.counters(t) for t in tracers]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counters differ between traced passes")
    if queries is None:
        for line in plain[0]["output"].splitlines():
            rec = json.loads(line)
            st = tr.stats.get(f"suites.{rec['suite']}")
            if st is None or st.nodes != rec["budget_used"]:
                problems.append(f"traced nodes of {rec['suite']} differ from budget_used")
                break
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    problems += compare_stored_counters(
        os.path.join(outdir, f"counters-{stem}.json"), source_digest(args.root), counts[0]
    )
    tr.write_spans(os.path.join(outdir, f"spans-{stem}.tsv"))
    return {"metrics": layer, "attempted": attempted,
            "failed": min(attempted, failed + len(problems)),
            "messages": msgs + problems, "passes": len(pairs)}


def compare_stored_counters(path: str, source: str, counts: dict) -> list[str]:
    """Compare counters with those an earlier run stored at `path` for the
    same sources; store them when there are none."""
    try:
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
    except (OSError, ValueError):
        old = None
    if old is not None and old.get("source") == source:
        if old["counters"] != json.loads(json.dumps(counts)):
            return [f"counters differ from an earlier run ({os.path.basename(path)})"]
        return []
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"source": source, "counters": counts}, fh)
    return []


def main() -> int:
    global now
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(args.root, "src"))

    t0 = time.perf_counter()
    import finpow.cli  # noqa: F401  (the whole package, as the CLI loads it)
    import_s = time.perf_counter() - t0
    import workloads

    queries = None
    if args.workload != "verify-all":
        queries = workloads.BUILDERS[args.workload](args.seed)
    if args.setup_only:
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    golden = load_golden()
    if queries is None:
        one_pass = verify_pass
        n_queries = len(golden["verify-all"]["lines"])

        def judge(passes):
            failed, msgs = judge_verify(passes, golden)
            return n_queries, min(len(failed), n_queries), msgs
    else:
        def one_pass(tracer=None):
            return generated_pass(queries, tracer)
        n_queries = len(queries)

        def judge(passes):
            return judge_generated(queries, passes, golden.get(args.workload, {}), args.seed)

    if args.trace:
        out = traced_run(args, one_pass, judge, queries)
    else:
        from clock import CalibratedClock

        clock = CalibratedClock()
        clock.start()
        now = clock.now
        try:
            passes = run_passes(one_pass, args.seconds)
            if queries is None:
                rounds, failed_repeats, msgs_repeats = repeat_short_suites(passes[0], golden)
        finally:
            clock.stop()
            now = time.perf_counter
        if queries is None:
            failed, msgs = judge_verify(passes, golden)
            failed |= failed_repeats
            attempted, failed = n_queries, min(len(failed), n_queries)
            msgs += msgs_repeats
            timings = [p["latencies"] for p in passes] + rounds
        else:
            attempted, failed, msgs = judge(passes)
            timings = [dict(enumerate(p["latencies"])) for p in passes]
        out = {"metrics": end_to_end(passes, timings, n_queries, attempted, failed),
               "attempted": attempted, "failed": failed, "messages": msgs,
               "passes": len(passes), "timings": sum(len(t) for t in timings),
               "reference_ms": round(statistics.median(clock.samples) * 1000, 3),
               "raw_wall_s": round(statistics.median(p["raw_wall"] for p in passes), 4)}
    out["correct"] = out["failed"] == 0 and not out["messages"]
    out["messages"] = out["messages"][:50]
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    raise SystemExit(main())
