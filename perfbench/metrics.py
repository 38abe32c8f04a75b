"""Declarations of the benchmark's metrics, and the per-layer metrics
computed from a traced pass.

Every per-layer metric records which end-to-end metric it should move and
on which workload; `python3 perfbench/run.py --list` prints them.
`BENCHMARK.json` carries the same names, units and directions.
"""
from __future__ import annotations

from tracer import LAYERS, Tracer, layer_of

WORKLOADS = ("verify-all", "family-dfs", "numerical-sets")

SUITE_NAMES = (
    "lemma-2.6",
    "lemma-3.2",
    "prop-4.1",
    "lemma-4.2",
    "thm-4.5",
    "ex-4.4",
    "cap-additivity",
    "lemma-5.2",
    "lemma-5.4",
    "thm-5.5-gap",
    "lemma-6.1",
    "prop-6.4",
)

# name, unit, better, bound (share of the parent's median), meaning.
# Times are in calibrated seconds (clock.py).
END_TO_END = (
    ("wall_s", "s", "lower", 0.15, "time of one pass over the workload's queries"),
    ("throughput_qps", "queries/s", "higher", 0.15, "queries of one pass / wall_s"),
    ("query_ms_p50", "ms", "lower", 0.25, "median per-query latency"),
    ("query_ms_p95", "ms", "lower", 0.25, "95th-percentile per-query latency"),
    ("setup_s", "s", "lower", 0.25, "fresh interpreter to ready for the first query"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak RSS of the workload process after one pass"),
    ("ops_ok_ratio", "ok/attempted", "higher", 0.001, "1 - failed/attempted, per query"),
)

_FNS = "family-dfs"
_NS = "numerical-sets"
_VA = "verify-all"

# name, unit, better, end-to-end metrics it should move, workloads
_LAYER_GROUPS = (
    (("cli.import_s",), "s", "lower", "setup_s", "all"),
    (("cli.main.self_s",), "s", "lower", "wall_s", _VA),
    (("arith.vp_value.calls", "arith.primes_geq.calls"), "count", "lower",
     "wall_s, query_ms_p95", _FNS),
    (("arith.vp_value.self_s", "arith.primes_geq.self_s", "arith.self_s"), "s", "lower",
     "wall_s, query_ms_p95", _FNS),
    (("backend.expanded.calls",), "count", "lower", "wall_s", f"{_FNS}, {_VA}"),
    (("backend.expanded.self_s",), "s", "lower", "wall_s", f"{_FNS}, {_VA}"),
    (("backend.representations.calls", "backend.representations.nodes"), "count", "lower",
     "wall_s, query_ms_p95", _FNS),
    (("backend.representations.self_s",), "s", "lower", "wall_s, query_ms_p95", _FNS),
    (("backend.representations.us_per_node",), "us/node", "lower", "wall_s, query_ms_p95", _FNS),
    (("backend.member.calls", "backend.member.nodes"), "count", "lower",
     "throughput_qps, peak_rss_mb", f"{_NS}; bypass {_FNS}"),
    (("backend.member.zero_node_calls",), "count", "higher",
     "throughput_qps, peak_rss_mb", f"{_NS}; bypass {_FNS}"),
    (("backend.member.self_s",), "s", "lower", "throughput_qps", f"{_NS}; bypass {_FNS}"),
    (("backend.member.us_per_node",), "us/node", "lower", "throughput_qps",
     f"{_NS}; bypass {_FNS}"),
    (("backend.divisors.calls", "backend.divisors.self_nodes"), "count", "lower",
     "wall_s, query_ms_p95", f"{_VA}, {_FNS} (rank 2)"),
    (("backend.divisors.zero_node_calls",), "count", "higher",
     "wall_s, query_ms_p95", f"{_VA}, {_FNS} (rank 2)"),
    (("backend.divisors.self_s",), "s", "lower", "wall_s, query_ms_p95", f"{_VA}, {_FNS} (rank 2)"),
    (("backend.divisors.yield_ratio",), "items/node", "higher",
     "wall_s, query_ms_p95", f"{_VA}, {_FNS} (rank 2)"),
    (("backend.atoms.calls", "backend.factorizations.calls", "backend.members_upto.calls",
      "backend.members_upto.nodes", "backend.nodes"), "count", "lower", "wall_s", f"{_FNS}, {_VA}"),
    (("backend.atoms.self_s", "backend.factorizations.self_s", "backend.members_upto.self_s",
      "backend.self_s"), "s", "lower", "wall_s", f"{_FNS}, {_VA}"),
    (("power.sumset.calls", "power.singleton_candidates.calls", "power.divides_in_P.calls",
      "power.p_factorize.calls"), "count", "lower", "throughput_qps", _NS),
    (("power.sumset.self_s", "power.singleton_candidates.self_s", "power.divides_in_P.self_s",
      "power.p_factorize.self_s", "power.self_s"), "s", "lower", "throughput_qps", _NS),
    (("power.decompositions.calls", "power.decompositions.self_nodes"), "count", "lower",
     "wall_s; query_ms_p95", f"{_VA}; {_NS}"),
    (("power.decompositions.self_s",), "s", "lower", "wall_s; query_ms_p95", f"{_VA}; {_NS}"),
    (("power.decompositions.yield_ratio",), "items/node", "higher",
     "wall_s; query_ms_p95", f"{_VA}; {_NS}"),
    (("mcd.common_divisors.calls", "mcd.mcd.calls", "mcd.mcd_in_P.calls",
      "mcd.ex44_witness.calls"), "count", "lower", "throughput_qps; wall_s",
     f"{_NS}; {_FNS} (chain)"),
    (("mcd.common_divisors.self_s", "mcd.mcd.self_s", "mcd.mcd_in_P.self_s",
      "mcd.ex44_witness.self_s", "mcd.self_s"), "s", "lower", "throughput_qps; wall_s",
     f"{_NS}; {_FNS} (chain)"),
    (("mcd.p_divisors.calls", "mcd.p_divisors.self_nodes"), "count", "lower",
     "query_ms_p95", f"{_NS}, {_VA} (prop-4.1)"),
    (("mcd.p_divisors.self_s",), "s", "lower", "query_ms_p95", f"{_NS}, {_VA} (prop-4.1)"),
    (("mcd.p_divisors.yield_ratio",), "items/node", "higher", "query_ms_p95",
     f"{_NS}, {_VA} (prop-4.1)"),
    (("atomicity.calls",), "count", "lower", "wall_s", _VA),
    (("atomicity.self_s", "suites.self_s"), "s", "lower", "wall_s", _VA),
    (tuple(f"suites.{s}.wall_s" for s in SUITE_NAMES), "s", "lower", "wall_s", _VA),
    (tuple(f"suites.{s}.nodes" for s in SUITE_NAMES), "count", "lower", "wall_s", _VA),
    (("trace.wall_s", "trace.outside_s"), "s", "lower", "(accounting)", "all"),
    (("trace.overhead_ratio",), "ratio", "lower", "(traced wall_s / untraced wall_s)", "all"),
)

# name -> (unit, better, moves, workloads)
PER_LAYER = {
    name: (unit, better, moves, where)
    for names, unit, better, moves, where in _LAYER_GROUPS
    for name in names
}


def layer_metrics(tracer: Tracer, wall_s: float, untraced_wall_s: float) -> dict:
    """Every per-layer metric from one traced pass, but `cli.import_s`,
    which run.py measures in fresh interpreters."""
    stats = tracer.stats
    out = dict.fromkeys(PER_LAYER, 0)
    for fname, st in stats.items():
        if fname.startswith("suites."):
            out[f"{fname}.wall_s"] = st.total_s
            out[f"{fname}.nodes"] = st.nodes
            continue
        values = {
            "calls": st.calls,
            "self_s": st.self_s,
            "nodes": st.nodes,
            "self_nodes": st.self_nodes,
            "zero_node_calls": st.zero_node_calls,
            "us_per_node": st.total_s * 1e6 / st.nodes if st.nodes else 0.0,
            "yield_ratio": st.items / st.self_nodes if st.self_nodes else 0.0,
        }
        for field, value in values.items():
            if f"{fname}.{field}" in out:
                out[f"{fname}.{field}"] = value
    for layer in LAYERS[1:]:  # the cli layer is cli.main alone
        out[f"{layer}.self_s"] = sum(st.self_s for n, st in stats.items() if layer_of(n) == layer)
    out["backend.nodes"] = sum(
        st.self_nodes for n, st in stats.items() if layer_of(n) == "backend"
    )
    out["atomicity.calls"] = sum(
        st.calls for n, st in stats.items() if layer_of(n) == "atomicity"
    )
    out["trace.wall_s"] = wall_s
    out["trace.outside_s"] = wall_s - tracer.top_s
    out["trace.overhead_ratio"] = wall_s / untraced_wall_s
    return out


def counters(tracer: Tracer) -> dict:
    """The deterministic counters of a traced pass."""
    return {
        name: [st.calls, st.nodes, st.self_nodes, st.zero_node_calls]
        for name, st in sorted(tracer.stats.items())
    }
