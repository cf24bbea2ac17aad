#!/usr/bin/env python3
"""Audit every shipped plan family end to end and print one line per graph.

Each line reports the exact privacy verdict at every server, the exact
decode verdict (with its count of end-to-end runs, when `--seeds` asks
for any), the audited rate, and whether that rate sits inside the
theoretical bounds for the graph (at or below the upper bound only, for a
family run below its best subset size).  The verdicts come from the
certificates alone; runs are an optional cross check.  Exit status is
nonzero if any family fails any check.
"""

import argparse
import time

from localpir.capacity import graph_bounds
from localpir.graphs import build_graph, family
from localpir.scheme import (
    bipartite_config,
    build_plan_family,
    et_config,
    fixture_config,
    union_config,
)
from localpir.verify import check_scheme


def battery():
    for n in range(3, 7):
        yield f"cycle{n}-t1", family("cycle", n), et_config(1)
        yield f"cycle{n}-t2", family("cycle", n), et_config(2)
    for n in range(4, 7):
        yield f"complete{n}-t2", family("complete", n), et_config(2)
    yield "k33-t2", family("complete_bipartite", a=3, b=3), et_config(2)
    for n in range(3, 9):
        yield f"star{n}", family("star", n), bipartite_config()
    for n in range(3, 8):
        yield f"path{n}", family("path", n), bipartite_config()
    yield "fixture-c4", family("cycle", 4), fixture_config("c4")
    yield "fixture-k4", family("complete", 4), fixture_config("k4")
    c4 = family("cycle", 4)
    star_edges = [(u + 4, v + 4) for (u, v) in family("star", 5).edges]
    yield ("union-c4+star5", build_graph(9, list(c4.edges) + star_edges),
           union_config())
    # three message lengths: 2 on the cycle, 4 on K4, 1 on the star
    k4_edges = [(u + 4, v + 4) for (u, v) in family("complete", 4).edges]
    star_edges = [(u + 8, v + 8) for (u, v) in family("star", 5).edges]
    yield ("union-c4+k4+s5",
           build_graph(13, list(c4.edges) + k4_edges + star_edges),
           union_config())
    yield ("union-3xc4", family("disjoint_copies", base=c4, copies=3),
           union_config())
    yield "cycle2000-t2", family("cycle", 2000), et_config(2)
    yield ("union-100xc4", family("disjoint_copies", base=c4, copies=100),
           union_config())


def below_capacity():
    """Families run at a subset size below their best one.  Their rate is
    held to the upper bound only: the lower bound is the best size's rate."""
    yield "complete12-t1", family("complete", 12), et_config(1)
    yield ("k24-t12", family("complete_bipartite", a=2, b=4),
           et_config(1, 2))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=2, help="prime field size")
    parser.add_argument("--seeds", type=int, default=0,
                        help="optional end-to-end executor runs per "
                             "message (default 0)")
    args = parser.parse_args()
    if args.seeds < 0:
        parser.error(f"--seeds must not be negative, got {args.seeds}")

    failures = 0
    start = time.perf_counter()
    audits = [(entry, True) for entry in battery()]
    audits += [(entry, False) for entry in below_capacity()]
    for (label, g, cfg), reaches_lower in audits:
        plans = build_plan_family(g, cfg)
        rep = check_scheme(plans, g, q=args.q, seeds=args.seeds)
        bounds = graph_bounds(g)
        inside = ((bounds.lower <= rep.cost.rate or not reaches_lower)
                  and rep.cost.rate <= bounds.upper)
        ok = rep.ok and inside
        failures += 0 if ok else 1
        print(f"{label:15s} {'PASS' if ok else 'FAIL'}  "
              f"rate {str(rep.cost.rate):5s}  "
              f"bounds [{bounds.lower}, {bounds.upper}]  "
              f"privacy {sum(p.ok for p in rep.privacy)}/{len(rep.privacy)}  "
              f"decode exact {rep.decode.verdict}"
              + (f", {rep.decode.trials} runs" if rep.decode.trials else ""))
    elapsed = time.perf_counter() - start
    print(f"\n{failures} failures, {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
