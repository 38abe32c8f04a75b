"""Span tracer for the per-layer metrics.

The tracer wraps public functions of the finpow modules from outside the
package.  ``from .backend import member`` copies the reference into every
importing module, so each wrapper is patched into every module attribute
that holds the original function; otherwise calls between layers would go
untraced.

Each call records a span: its name, start, end, parent span, query id and
``Budget.used`` on entry and exit (read from the ``Budget`` the call
receives).  Aggregates per function are kept exactly; individual spans are
kept in memory up to ``SPAN_CAP`` and written out when the run ends, so a
run with millions of calls stays small in memory.
"""
from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass

# The modules in call order; their names are the layer names.
LAYERS = ("cli", "suites", "atomicity", "mcd", "power", "backend", "arith")

# Functions traced per module.  ``expanded`` is the ``MonoidSpec.expanded``
# method.  ``suites.run_verify_suite`` spans are named after the suite.
TRACED = {
    "arith": ("vp_value", "primes_geq"),
    "backend": (
        "expanded",
        "representations",
        "member",
        "divisors",
        "atoms",
        "factorizations",
        "members_upto",
    ),
    "power": (
        "sumset",
        "singleton_candidates",
        "divides_in_P",
        "decompositions",
        "is_p_atom",
        "is_indecomposable",
        "p_factorize",
    ),
    "mcd": (
        "common_divisors",
        "mcd",
        "mcd_in_P",
        "p_divisors",
        "ex44_witness",
        "ex44_chain",
    ),
    "atomicity": (
        "accp_chain_explore",
        "p_accp_chain_explore",
        "is_furstenberg_sample",
        "p_furstenberg_divisor",
        "atom_divisors",
        "ffm_count",
        "tidf_implies_atomic_check",
        "canonical_decomp_Q",
        "k_of",
        "rank2_atom",
        "lemma54_sum_witness",
        "thm55_projection_check",
    ),
    "suites": ("run_verify_suite",),
    "cli": ("main",),
}

# Functions whose result length counts as items returned (for yield ratios).
COUNT_ITEMS = {"backend.divisors", "power.decompositions", "mcd.p_divisors"}

SPAN_CAP = 200_000


@dataclass
class Stat:
    """Exact aggregates of one span name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    nodes: int = 0
    self_nodes: int = 0
    zero_node_calls: int = 0
    items: int = 0


class Tracer:
    """Records spans of wrapped calls; one instance per traced pass."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.query_id = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self.top_s = 0.0  # summed duration of spans with no parent
        self.uncovered: list[str] = []  # set by install()

    # -- recording -------------------------------------------------------
    def _enter(self, name: str, budget) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        used = budget.used if budget is not None else -1
        frame = [self._next_id, name, budget, used, parent, 0.0, 0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, result) -> None:
        end = time.perf_counter()
        span_id, name, budget, used_in, parent, child_s, child_nodes, start = frame
        self._stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child_s
        used_out = -1
        if budget is not None:
            used_out = budget.used
            delta = used_out - used_in
            st.nodes += delta
            st.self_nodes += delta - child_nodes
            if delta == 0:
                st.zero_node_calls += 1
        if name in COUNT_ITEMS and result is not None:
            st.items += len(result)
        if self._stack:
            up = self._stack[-1]
            up[5] += dur
            if budget is not None and up[2] is budget:
                up[6] += used_out - used_in
        else:
            self.top_s += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (span_id, name, start, end, parent, self.query_id, used_in, used_out)
            )
        else:
            self.dropped += 1

    def wrap(self, fn, name: str, budget_type, naming=None):
        """A wrapper for `fn` that records a span named `name`.

        `naming(args, kwargs)` may return a more specific span name.
        """
        params = list(inspect.signature(fn).parameters)
        bidx = params.index("budget") if "budget" in params else None
        tracer = self

        def traced(*args, **kwargs):
            budget = None
            if bidx is not None:
                b = kwargs["budget"] if "budget" in kwargs else (
                    args[bidx] if len(args) > bidx else None
                )
                if isinstance(b, budget_type):
                    budget = b
            frame = tracer._enter(naming(args, kwargs) if naming else name, budget)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(frame, result)

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        """Patch every traced function into every finpow module binding."""
        import finpow.cli  # noqa: F401  (loads every module of the package)

        mods = {layer: sys.modules["finpow." + layer] for layer in LAYERS}
        namespaces = [sys.modules["finpow"]] + list(mods.values())
        backend = mods["backend"]
        for layer, names in TRACED.items():
            for fname in names:
                if layer == "backend" and fname == "expanded":
                    cls = backend.MonoidSpec
                    orig = cls.__dict__["expanded"]
                    self._set(cls, "expanded", self.wrap(orig, "backend.expanded", backend.Budget))
                    continue
                orig = getattr(mods[layer], fname)
                naming = _suite_name if fname == "run_verify_suite" else None
                wrapper = self.wrap(orig, f"{layer}.{fname}", backend.Budget, naming)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            self._set(ns, attr, wrapper)
        self.uncovered = _untraced_references(
            {id(v): k for owner, k, v in self._patches if owner is not backend.MonoidSpec}
        )

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def write_spans(self, path: str) -> None:
        """Write the kept spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans kept {len(self.spans)}, dropped {self.dropped}\n")
            fh.write("id\tname\tstart\tend\tparent\tquery\tused_in\tused_out\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")


def _untraced_references(originals: dict) -> list[str]:
    """Where a finpow module still holds a traced function unwrapped: as a
    module attribute, or inside a module-level dict, list or tuple.
    `originals` maps id(function) to its name."""
    found = []
    for modname, mod in sorted(sys.modules.items()):
        if modname != "finpow" and not modname.startswith("finpow."):
            continue
        for attr, value in vars(mod).items():
            inner = []
            if isinstance(value, dict):
                inner = list(value.values())
            elif isinstance(value, (list, tuple)):
                inner = list(value)
            for v in [value, *inner]:
                if id(v) in originals and callable(v):
                    found.append(f"{originals[id(v)]} at {modname}.{attr}")
    return found


def _suite_name(args, kwargs) -> str:
    suite = kwargs.get("suite", args[0] if args else "?")
    return f"suites.{suite}"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
