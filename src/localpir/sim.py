"""End-to-end retrieval harness over in-memory servers.

Executes plans against seeded random storage, records full transcripts,
and measures achieved rates exactly.  Download costs depend only on the
plan, never on the stored values, so the rate is the exact uniform average
over desired messages rather than a sampled estimate.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .capacity import BoundReport, graph_bounds
from .field import check_modulus
from .graphs import Graph, detect_family
from .scheme import (
    PlanConfig,
    SchemePlan,
    _execute,
    _transcribe,
    build_plan,
    build_plan_family,
)
from .verify import cost_audit, decode_check


class ServerLog(NamedTuple):
    server: int
    atoms: tuple        # physical atoms, in answer order
    answers: tuple[int, ...]


@dataclass
class Transcript:
    """One full retrieval: queries sent, answers received, decode outcome.

    `storage` holds the symbols drawn for the run: the messages the plan
    gives a length, for a built plan the desired one and those it reads,
    never the rest of the graph.  The run keeps its plan and the user's
    permutations (`perms`, message -> logical-to-physical list), from which
    `per_server` is built on first read: a caller that only reads the
    decode outcome never translates or answers the atoms the recipe skips.
    """

    theta: int
    seed: int
    q: int
    plan: SchemePlan
    perms: dict[int, list[int]]
    decoded_ok: bool
    download: int
    decoded: list[int]
    storage: dict[int, list[int]]

    @functools.cached_property
    def per_server(self) -> tuple[ServerLog, ...]:
        """Each server's physical atoms and answers, servers ascending."""
        views = _transcribe(self.plan, self.perms, self.storage, self.q)
        return tuple(ServerLog(s, atoms, answers)
                     for s, (atoms, answers) in views.items())

    def to_json(self) -> dict:
        return {
            "theta": self.theta,
            "seed": self.seed,
            "q": self.q,
            "per_server": [
                {"server": log.server,
                 "atoms": [[list(ref) for ref in atom] for atom in log.atoms],
                 "answers": list(log.answers)}
                for log in self.per_server],
            "decoded_ok": self.decoded_ok,
            "D_k": self.download,
        }


def execute_plan(plan: SchemePlan, seed: int, q: int = 2) -> Transcript:
    """Run one plan against honest servers.

    Storage contents and the user's private permutations both derive from
    `seed`, so a transcript replays exactly.  Only the messages the plan
    gives a length are drawn, and only the answers the recipe reads are
    computed; the transcript builds every server's view when its
    `per_server` is first read.
    """
    check_modulus(q)
    rng = random.Random(f"localpir:{plan.theta}:{seed}")
    perms, storage, decoded = _execute(plan, rng, q)
    return Transcript(plan.theta, seed, q, plan, perms,
                      decoded == storage[plan.theta],
                      plan.download_count(), decoded, storage)


def run_retrieval(g: Graph, config: PlanConfig, theta: int, seed: int,
                  q: int = 2) -> Transcript:
    """Build the plan for theta under config, then execute it."""
    return execute_plan(build_plan(g, config, theta), seed, q)


@dataclass
class RateReport:
    """Measured performance of one plan family on one graph."""

    graph: str
    config: PlanConfig
    lengths: dict[int, int]
    per_theta_download: dict[int, int]
    total_download: int
    rate: Fraction
    decoded_ok: bool
    bounds: BoundReport

    @property
    def bracketed(self) -> bool:
        """Whether the measured rate sits inside the theoretical bounds."""
        return bool(self.bounds.lower <= self.rate
                    and self.rate <= self.bounds.upper)

    def to_json(self) -> dict:
        return {
            "graph": self.graph,
            "scheme": self.config.kind,
            "lengths": {str(k): v for k, v in sorted(self.lengths.items())},
            "per_theta_download": {str(k): v for k, v in
                                   sorted(self.per_theta_download.items())},
            "total_download": self.total_download,
            "rate": [self.rate.numerator, self.rate.denominator],
            "rate_approx": float(self.rate),
            "decoded_ok": self.decoded_ok,
            "bounds": self.bounds.to_json(),
            "bracketed": self.bracketed,
        }


def measure_rate(g: Graph, config: PlanConfig, q: int = 2,
                 seeds: int = 0) -> RateReport:
    """Exact achieved rate of a plan family, with its decode verdict.

    The rate is `capacity.union_capacity`'s K / sum_theta D_theta/L_theta
    over the family, as `verify.cost_audit` counts it.  `decoded_ok` is
    `verify.decode_check`'s verdict at field size q, exact by its
    certificate; no plan is executed unless `seeds` asks for end-to-end
    runs of each.
    """
    plans = build_plan_family(g, config)
    decoded_ok = decode_check(plans, g, q, seeds).ok
    cost = cost_audit(plans, g)
    lengths = {t: plans[t].length for t in g.messages}
    return RateReport(_describe_graph(g), config, lengths, cost.per_theta,
                      sum(cost.per_theta.values()), cost.rate, decoded_ok,
                      graph_bounds(g))


def _describe_graph(g: Graph) -> str:
    det = detect_family(g)
    if det is not None:
        name, params = det
        inner = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
        return f"{name}({inner})"
    return f"graph(N={g.n_vertices}, K={g.K})"
