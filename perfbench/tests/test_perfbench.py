"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import finpow  # noqa: E402
import clock  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

backend = sys.modules["finpow.backend"]
suites = sys.modules["finpow.suites"]


@pytest.fixture(autouse=True)
def alarm_handler(monkeypatch):
    monkeypatch.setattr(worker, "RUN_CAP_S", float("inf"))
    old = signal.signal(signal.SIGALRM, worker._on_alarm)
    yield
    signal.signal(signal.SIGALRM, old)


def traced_pass(queries):
    tr = Tracer()
    tr.install()
    try:
        p = worker.generated_pass(queries, tr)
    finally:
        tr.uninstall()
    return tr, p


def inputs(queries):
    return [(q.kind, repr(q.spec), repr(q.args), repr(q.expect)) for q in queries]


@pytest.mark.parametrize("name", ["family-dfs", "numerical-sets"])
def test_same_seed_gives_same_inputs_counters_and_answers(name):
    build = workloads.BUILDERS[name]
    a, b = build(7), build(7)
    assert inputs(a) == inputs(b)
    assert inputs(a) != inputs(build(8))
    tr_a, p_a = traced_pass(a)
    tr_b, p_b = traced_pass(b)
    assert metrics.counters(tr_a) == metrics.counters(tr_b)
    assert p_a["nodes"] == p_b["nodes"]
    hashes = [[worker.answer_hash(q, x) for q, x in zip(a, p["answers"])] for p in (p_a, p_b)]
    assert hashes[0] == hashes[1]
    attempted, failed, msgs = worker.judge_generated(a, [p_a, p_b], {}, 7)
    assert (attempted, failed, msgs) == (len(a), 0, [])


def test_stored_counters_are_compared_across_runs(tmp_path):
    path = str(tmp_path / "counters.json")
    counts = {"backend.member": [3, 10, 10, 1]}
    assert worker.compare_stored_counters(path, "src-a", counts) == []
    assert worker.compare_stored_counters(path, "src-a", counts) == []
    changed = {"backend.member": [3, 11, 11, 1]}
    assert worker.compare_stored_counters(path, "src-a", changed)
    # other sources replace the stored counters instead
    assert worker.compare_stored_counters(path, "src-b", changed) == []


def test_tracer_records_divisors_under_decompositions_from_suites():
    orig = backend.divisors
    backend.clear_caches()
    tr = Tracer()
    tr.install()
    try:
        assert backend.divisors is not orig
        assert sys.modules["finpow.power"].divisors is backend.divisors
        report = suites.run_verify_suite("lemma-4.2", None, finpow.Budget())
    finally:
        tr.uninstall()
    assert backend.divisors is orig and sys.modules["finpow.power"].divisors is orig
    assert report.ok
    spans = {s[0]: s for s in tr.spans}

    def ancestors(span):
        while span[4]:
            span = spans[span[4]]
            yield span[1]

    under = [
        list(ancestors(s)) for s in tr.spans
        if s[1] == "backend.divisors" and spans[s[4]][1] == "power.decompositions"
    ]
    assert under and all("suites.lemma-4.2" in chain for chain in under)
    assert tr.stats["suites.lemma-4.2"].nodes == report.budget_used
    assert tr.uncovered == []


def test_tracer_reports_a_reference_it_cannot_patch(monkeypatch):
    probe = types.ModuleType("finpow.probe")
    probe.table = {"member": backend.member}
    monkeypatch.setitem(sys.modules, "finpow.probe", probe)
    tr = Tracer()
    tr.install()
    tr.uninstall()
    assert tr.uncovered == ["member at finpow.probe.table"]


def golden_verify_output(golden):
    lines = golden["verify-all"]["lines"]
    return "".join(line + "\n" for s in metrics.SUITE_NAMES for line in lines[s])


def test_verify_gate_passes_golden_and_fails_tampered_output():
    golden = worker.load_golden()
    text = golden_verify_output(golden)
    assert worker.sha256_text(text) == golden["verify-all"]["sha256"]

    def judge(output, rc=0):
        p = {"output": output, "rc": rc, "killed": [], "latencies": [], "wall": 1.0}
        return worker.judge_verify([p], golden)

    assert judge(text) == (set(), [])
    tampered = text.replace('"status": "pass"', '"status": "fail"', 1)
    failed, msgs = judge(tampered)
    assert len(failed) == 1 and msgs
    assert judge(text.replace("\n", "\r\n", 1))[0]
    assert judge(text, rc=1)[0]


def test_rechecks_catch_wrong_answers():
    queries = workloads.build_numerical_sets(3) + workloads.build_family_dfs(3)[3:]
    p = worker.generated_pass(queries)
    assert all(worker.failure_of(q, a) is None for q, a in zip(queries, p["answers"]))
    seen = set()
    for q, ans in zip(queries, p["answers"]):
        wrong = None
        if q.kind == "member":
            wrong = not ans
        elif q.kind == "divides-yes":
            wrong = finpow.FinSet(ans.elems[:-1]) if len(ans) > 1 else None
        elif q.kind == "divisors" and len(ans) > 2:
            wrong = ans[:1] + ans[2:]
        elif q.kind == "mcd" and ans:
            wrong = [ans[0] + 1]
        elif q.kind == "factorizations" and ans:
            a, m = ans[0].parts[0]
            wrong = [finpow.Factorization(((a, m + 1),) + ans[0].parts[1:])] + ans[1:]
        if wrong is not None:
            assert workloads.check_answer(q, wrong), (q.kind, q.args)
            seen.add(q.kind)
    assert seen == {"member", "divides-yes", "divisors", "mcd", "factorizations"}


def test_runaway_query_is_killed_and_counted(monkeypatch):
    monkeypatch.setattr(worker, "QUERY_CAP_S", 0.2)
    slow = workloads.Query("chain", 9, ())  # minutes at the seed commit
    p = worker.generated_pass([slow])
    assert p["answers"][0][0] == "killed"
    assert p["latencies"][0] < 5
    attempted, failed, _ = worker.judge_generated([slow], [p], {}, 0)
    assert (attempted, failed) == (1, 1)


def test_set_up_that_never_prints_is_killed(monkeypatch):
    monkeypatch.setattr(run, "SETUP_TIMEOUT_S", 0.5)
    monkeypatch.setattr(
        run, "worker_cmd",
        lambda *a: [sys.executable, "-c", "import time; time.sleep(60)"],
    )
    t0 = time.perf_counter()
    with pytest.raises(TimeoutError):
        run.time_setup(ROOT, None, time.perf_counter() + 60)
    assert time.perf_counter() - t0 < 10


def test_calibrated_clock_leaves_out_its_reference_work():
    c = clock.CalibratedClock()
    c.start()
    try:
        t0, w0 = c.now(), time.perf_counter()
        end = w0 + 0.5
        while time.perf_counter() < end:
            pass
        elapsed, wall = c.now() - t0, time.perf_counter() - w0
    finally:
        c.stop()
    assert len(c.samples) >= 2
    reference = sum(c.samples[1:])
    scale = clock.NOMINAL_S / min(c.samples)
    assert 0 < elapsed <= (wall - reference) * scale * 1.01 + 1e-3


def test_declared_metrics_match_benchmark_json_and_are_all_computed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(metrics.WORKLOADS)
    assert metrics.SUITE_NAMES == suites.SUITE_NAMES
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        m[:4] for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (n, u, b) for n, (u, b, *_rest) in metrics.PER_LAYER.items()
    ]
    computed = metrics.layer_metrics(Tracer(), 1.0, 1.0)
    assert set(computed) == set(metrics.PER_LAYER)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "family-dfs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0 and p.stdout == ""


def test_numerical_oracle_agrees_with_library_membership():
    ok = workloads.numerical_members((6, 9, 20), 60)
    spec = finpow.MonoidSpec.numerical(6, 9, 20)
    assert [n for n in range(61) if ok[n]] == [
        n for n in range(61) if finpow.member(Fraction(n), spec)
    ]
