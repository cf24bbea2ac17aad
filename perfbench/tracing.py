"""Outside-in tracing of localpir's layers for the benchmark's traced run.

The tracer wraps public functions of each layer module from outside the
package: every module under `localpir` that holds a reference to a wrapped
function gets the wrapper in its place, so calls between modules and
within one module are both seen.  Spans (name, start, end, parent, request
id) are kept in memory and written out at the end of the run.  Per-point
inner functions such as `verify.query_fingerprint` are left unwrapped:
they run millions of times and wrapping them would distort the trace.

A name that no longer exists in its module is reported as absent, and its
metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass
from math import factorial, prod
from pathlib import Path
from time import perf_counter
from typing import Callable


@dataclass(slots=True)
class Span:
    name: str                 # "<layer>.<function>"
    start: float
    end: float
    parent: int | None        # index of the enclosing span
    request: int
    error: str | None = None  # exception type name, if the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- work counters, computed from call arguments and results ---------------
# Each counter gets (counts, args, kwargs, result, top_level); top_level is
# False when the call is nested inside another call of the same function.

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_points(counts, args, kwargs, result, top_level):
    plan, server = _arg(args, kwargs, 0, "plan"), _arg(args, kwargs, 1,
                                                         "server")
    msgs = {m for atom in plan.atoms_at(server) for (m, _) in atom}
    counts["verify.points_enumerated"] += prod(
        factorial(plan.lengths[m]) for m in msgs)
    counts["verify.support_total"] += len(result)


def _count_trials(counts, args, kwargs, result, top_level):
    counts["verify.decode_trials"] += result.trials


def _count_symbols(counts, args, kwargs, result, top_level):
    plan = _arg(args, kwargs, 0, "plan")
    counts["sim.symbols_needed"] += sum(
        plan.lengths[m] for m in plan.referenced_messages())


def _count_pairs(counts, args, kwargs, result, top_level):
    counts["capacity.et_lower_bound.pairs"] += (
        _arg(args, kwargs, 0, "d_i") * _arg(args, kwargs, 1, "d_j"))


def _count_atoms(counts, args, kwargs, result, top_level):
    if top_level:
        counts["scheme.plans_requested"] += 1
        counts["scheme.atoms_emitted"] += result.download_count()


# (module, function, counter or None)
WRAPPED: tuple[tuple[str, str, Callable | None], ...] = (
    ("graphs", "build_graph", None),
    ("graphs", "components", None),
    ("graphs", "bipartition", None),
    ("graphs", "detect_family", None),
    ("scheme", "build_plan_family", None),
    ("scheme", "build_plan", _count_atoms),
    ("scheme", "build_et_plan", None),
    ("scheme", "build_bipartite_plan", None),
    ("scheme", "build_union_plan", None),
    ("scheme", "default_component_config", None),
    ("scheme", "occurrence_index", None),
    ("scheme", "derive_recipe", None),
    ("verify", "check_scheme", None),
    ("verify", "privacy_check", None),
    ("verify", "fingerprint_distribution", _count_points),
    ("verify", "canonical_privacy_probe", None),
    ("verify", "decode_check", _count_trials),
    ("verify", "cost_audit", None),
    ("sim", "run_retrieval", None),
    ("sim", "execute_plan", _count_symbols),
    ("sim", "measure_rate", None),
    ("capacity", "graph_bounds", None),
    ("capacity", "family_bounds", None),
    ("capacity", "et_lower_bound", _count_pairs),
    ("cli", "main", None),
)

LAYERS = ("graphs", "scheme", "verify", "sim", "capacity", "cli")

# Work counts kept by the counters above and by the request runner.
COUNTS = ("verify.points_enumerated", "verify.support_total",
          "verify.decode_trials", "sim.symbols_needed",
          "capacity.et_lower_bound.pairs", "scheme.plans_requested",
          "scheme.atoms_emitted", "cli.stdout_bytes")

# Per-layer metric -> the end-to-end metric and workload it should move.
# This is the benchmark's metric-to-layer map; units are in BENCHMARK.json.
_VERIFY_HEAVY = "wall_s, req_p90_ms on verify_exact"
_VERIFY_LIGHT = "req_p50_ms on verify_exact"
_SIM = "wall_s, req_p50_ms on retrieve_large"
_PLANS = "wall_s on retrieve_large and plan_bounds"
_ET = "wall_s, req_p90_ms on plan_bounds"
_GRAPHS = "wall_s on retrieve_large (union, path)"
_BOUNDS = "req_p50_ms on plan_bounds"
_CLI = "req_p50_ms on plan_bounds and verify_exact"
MOVES = {
    "verify.fingerprint_distribution.self_ms": _VERIFY_HEAVY,
    "verify.privacy_check.calls": _VERIFY_HEAVY,
    "verify.privacy_check.self_ms": _VERIFY_HEAVY,
    "verify.points_enumerated": _VERIFY_HEAVY,
    "verify.support_total": _VERIFY_HEAVY,
    "verify.support_per_point": _VERIFY_HEAVY,
    "verify.canonical_privacy_probe.self_ms": _VERIFY_HEAVY,
    "verify.refused": _VERIFY_HEAVY,
    "verify.decode_check.self_ms": _VERIFY_LIGHT,
    "verify.decode_trials": _VERIFY_LIGHT,
    "verify.cost_audit.self_ms": _VERIFY_LIGHT,
    "sim.execute_plan.calls": _SIM,
    "sim.execute_plan.self_ms": _SIM,
    "sim.symbols_needed": _SIM,
    "sim.us_per_needed_symbol": _SIM,
    "sim.measure_rate.self_ms": _SIM,
    "scheme.build_plan.calls": _PLANS,
    "scheme.plans_per_theta": _PLANS,
    "scheme.build_union_plan.self_ms": _PLANS + " (union)",
    "scheme.build_bipartite_plan.self_ms": "wall_s on retrieve_large (path)",
    "scheme.build_et_plan.self_ms": _ET + "; req_p90_ms on retrieve_large",
    "scheme.occurrence_index.calls": _ET,
    "scheme.derive_recipe.self_ms": _ET,
    "scheme.atoms_emitted": "nothing: an invariant of the plans built",
    "graphs.build_graph.calls": _GRAPHS,
    "graphs.components.calls": _GRAPHS,
    "graphs.components.self_ms": _GRAPHS,
    "graphs.bipartition.calls": _GRAPHS,
    "graphs.bipartition.self_ms": _GRAPHS,
    "graphs.detect_family.calls": _GRAPHS,
    "capacity.graph_bounds.calls": _BOUNDS,
    "capacity.graph_bounds.self_ms": _BOUNDS,
    "capacity.et_lower_bound.self_ms": _BOUNDS,
    "capacity.et_lower_bound.pairs": _BOUNDS,
    "capacity.family_bounds.self_ms": _BOUNDS,
    "cli.main.self_ms": _CLI,
    "cli.stdout_bytes": _CLI,
    **{f"{layer}.self_ms": "the layer's share of wall_s" for layer in LAYERS},
    "trace.overhead_frac": "nothing; it is reported",
}


class Tracer:
    """Collects spans and work counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.request = 0          # identifies the request being issued
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable,
             counter: Callable | None = None) -> Callable:
        """Return a wrapper recording one span per call of `fn`.

        Return values and exceptions pass through unchanged.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = self._depth.get(name, 0)
            index = len(self.spans)
            span = Span(name, 0.0, 0.0,
                        self._stack[-1] if self._stack else None,
                        self.request)
            self.spans.append(span)
            self._stack.append(index)
            self._depth[name] = depth + 1
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
                self._depth[name] = depth
            if counter is not None:
                counter(self.counts, args, kwargs, result, depth == 0)
            return result

        return traced

    def install(self) -> None:
        """Patch every wrapped name in every localpir module holding it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "localpir" or key.startswith("localpir.")]
        for module_name, fn_name, counter in WRAPPED:
            module = importlib.import_module(f"localpir.{module_name}")
            original = getattr(module, fn_name, None)
            if original is None:
                self.absent.append(f"{module_name}.{fn_name}")
                continue
            wrapper = self.wrap(f"{module_name}.{fn_name}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent,
                       "fields": ["name", "start", "end", "parent",
                                  "request", "error"],
                       "spans": [[s.name, s.start, s.end, s.parent,
                                  s.request, s.error]
                                 for s in self.spans]}, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span], counts: dict[str, int],
                  passes: int) -> dict[str, float]:
    """Per-layer metrics per pass, from the spans and counts of `passes`."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    for span, t in zip(spans, own):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_ms[span.name] = self_ms.get(span.name, 0.0) + 1000.0 * t
    refused = {s.request for s in spans
               if s.name.startswith("verify.")
               and s.error == "EnumerationTooLarge"}

    def per_pass(value: float) -> float:
        return value / passes

    out: dict[str, float] = {}
    for metric in MOVES:
        if metric.endswith(".calls"):
            out[metric] = per_pass(calls.get(metric[:-len(".calls")], 0))
        elif metric.endswith(".self_ms") and metric.count(".") == 2:
            out[metric] = per_pass(self_ms.get(metric[:-len(".self_ms")],
                                               0.0))
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = per_pass(sum(
            v for k, v in self_ms.items() if k.startswith(layer + ".")))
    for key in COUNTS:
        if key in MOVES:
            out[key] = per_pass(counts[key])
    out["verify.refused"] = per_pass(len(refused))
    out["verify.support_per_point"] = _ratio(
        counts["verify.support_total"], counts["verify.points_enumerated"])
    out["sim.us_per_needed_symbol"] = _ratio(
        1000.0 * self_ms.get("sim.execute_plan", 0.0),
        counts["sim.symbols_needed"])
    out["scheme.plans_per_theta"] = _ratio(
        calls.get("scheme.build_plan", 0), counts["scheme.plans_requested"])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
