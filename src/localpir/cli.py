"""Command line front end: local-pir {bounds, scheme, verify, simulate}.

Storage comes from a named family (--family with --n) or a JSON file
(--graph) shaped {"n": N, "edges": [[u, v], ...]} with 1-based vertices.
Exit codes: 0 success, 1 a verifier verdict is FAIL, 2 invalid input or
a privacy search over its node budget, 3 an internal error (one line on
stderr, no traceback); a closed output pipe keeps the command's code.
`main` alone writes, and may be called repeatedly in one process; it
builds its parser on the first call and reuses it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from .capacity import BoundReport, family_bounds, graph_bounds
from .errors import InvalidFamilyParams, LocalPIRError
from .graphs import (
    FAMILIES,
    Graph,
    components,
    family,
    graph_from_json,
    graph_to_json,
)
from .scheme import (
    PlanConfig,
    bipartite_config,
    build_plan_family,
    default_component_config,
    et_config,
    union_config,
)
from .sim import Transcript, measure_rate, run_retrieval
from .verify import (
    DEFAULT_CAP,
    SchemeReport,
    canonical_privacy_probe,
    check_scheme,
    cost_audit,
)


# --- input resolution --------------------------------------------------------

def load_graph(args) -> Graph:
    if family_source(args):
        return family(args.family, args.n)
    try:
        with open(args.graph, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InvalidFamilyParams(f"cannot read {args.graph}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, nesting too deep to parse, and integers
        # over Python's digit limit, as well as JSON syntax errors
        raise InvalidFamilyParams(
            f"{args.graph} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidFamilyParams(f"{args.graph}: top level must be an object")
    return graph_from_json(obj)


def family_source(args) -> bool:
    """True for --family with --n, False for --graph; refuses the rest."""
    if (args.family is None) == (args.graph is None):
        raise InvalidFamilyParams("give exactly one of --family or --graph")
    if args.family is not None and args.n is None:
        raise InvalidFamilyParams("--family requires --n")
    if args.graph is not None and args.n is not None:
        raise InvalidFamilyParams(
            "--n goes with --family; a --graph file gives its own n")
    return args.family is not None


def resolve_config(args, g: Graph) -> PlanConfig:
    t_i = args.t_i if args.t_i is not None else args.t
    t_j = args.t_j if args.t_j is not None else args.t
    if args.scheme == "bipartite":
        if (t_i, t_j) != (None, None):
            raise InvalidFamilyParams(
                "--scheme bipartite takes no --t, --t-i or --t-j")
        return bipartite_config()
    if (t_i, t_j) != (None, None):
        if None in (t_i, t_j):
            raise InvalidFamilyParams(
                "the t-sum scheme needs --t, or both --t-i and --t-j")
        return et_config(t_i, t_j)
    if len(components(g)) > 1:
        return union_config()
    return default_component_config(g)


def check_theta(args, g: Graph) -> None:
    """Refuse a --theta that names no message, before any work is done."""
    if args.theta is not None and not 1 <= args.theta <= g.K:
        raise InvalidFamilyParams(f"theta {args.theta} outside 1..{g.K}")


def describe_config(cfg: PlanConfig) -> str:
    if cfg.kind == "et":
        return f"t-sum (t_i={cfg.t_i}, t_j={cfg.t_j})"
    if cfg.kind == "bipartite":
        return "bipartite cover (L=1)"
    return "component dispatch (per-component defaults)"


# --- rendering ---------------------------------------------------------------

def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextlib.contextmanager
def long_ints():
    """Lift Python's limit on the digits of an int turned into a string
    (3.10.7 and later) while a verdict is rendered, since an exact support
    may be longer; input parsing keeps the limit.  The old value is
    restored on the way out."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def atom_label(atom, k_total: int) -> str:
    def ref(m: int, p: int) -> str:
        if k_total <= 26:
            return f"{chr(ord('a') + m - 1)}{p}"
        return f"W{m}({p})"

    return "+".join(ref(m, p) for (m, p) in atom)


def render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              if rows else len(header[i]) for i in range(len(header))]
    out = [" | ".join(h.ljust(w) for h, w in zip(header, widths)),
           "-+-".join("-" * w for w in widths)]
    out += [" | ".join(c.ljust(w) for c, w in zip(row, widths))
            for row in rows]
    return "\n".join(line.rstrip() for line in out)


def render_bounds(report: BoundReport) -> str:
    lines = [f"family {report.family}  n={report.n}",
             f"lower bound  {report.lower}",
             f"upper bound  {report.upper}",
             f"exact        {'yes' if report.exact else 'no'}"]
    if report.optimizer is not None:
        lines.append(f"best t-sum   t_i={report.optimizer[0]} "
                     f"t_j={report.optimizer[1]}")
    for comp in report.comparators:
        val = "n/a" if comp.value is None else f"{comp.value:.6g}"
        note = f"  {comp.note}" if comp.note else ""
        lines.append(f"comparator   {val}  [{comp.source}]{note}")
    return "\n".join(lines)


def render_plans(g: Graph, plans, thetas) -> str:
    header = ["theta"] + [f"server {s}" for s in g.vertices]
    rows = []
    for t in thetas:
        row = [str(t)]
        for s in g.vertices:
            atoms = plans[t].atoms_at(s)
            row.append(", ".join(atom_label(a, g.K) for a in atoms)
                       if atoms else "-")
        rows.append(row)
    audit = cost_audit(plans, g)
    lengths = {plans[t].length for t in plans}
    l_part = (f"L={lengths.pop()}" if len(lengths) == 1
              else "L per message: "
                   + ", ".join(f"{t}:{plans[t].length}" for t in sorted(plans)))
    downloads = {plans[t].download_count() for t in plans}
    d_part = (f"D_k={downloads.pop()} for every theta" if len(downloads) == 1
              else f"expected D={audit.expected_download}")
    return (render_table(header, rows)
            + f"\n{l_part}; {d_part}; rate {audit.rate}")


def render_verify(report: SchemeReport, probes) -> str:
    lines = []
    for pr in report.privacy:
        line = (f"server {pr.server}: privacy {pr.verdict} "
                f"(thetas {list(pr.thetas)}, support {pr.support_size})")
        if pr.counterexample is not None:
            line += f"  distinguishing fingerprint: {pr.counterexample}"
        lines.append(line)
    runs = report.decode.trials
    lines.append(f"decode: {report.decode.verdict} (exact"
                 + (f"; {runs} end-to-end runs)" if runs else ")"))
    for failure in report.decode.failures[:5]:
        where = ("certificate" if failure["seed"] is None
                 else f"seed {failure['seed']}")
        lines.append(f"  theta {failure['theta']} {where}: "
                     f"{failure['reason']}")
    cost = report.cost
    lines.append(f"cost: expected download {cost.expected_download}, "
                 f"rate {cost.rate}"
                 + ("" if cost.ok else " [closed-form MISMATCH]"))
    for m in cost.mismatches:
        lines.append(f"  {m}")
    if probes is not None:
        for p in probes:
            what = ("hides every message" if p.canonical else
                    f"distinguishes thetas {list(p.distinguishable)}")
            lines.append(f"server {p.server}: canonical probe {what}")
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines)


def render_transcript(t: Transcript, k_total: int) -> str:
    lines = [f"transcript theta={t.theta} seed={t.seed} q={t.q} "
             f"D_k={t.download} decoded_ok={t.decoded_ok}"]
    for log in t.per_server:
        pairs = "; ".join(f"{atom_label(atom, k_total)}={val}"
                          for atom, val in zip(log.atoms, log.answers))
        lines.append(f"  server {log.server}: {pairs}")
    return "\n".join(lines)


# --- subcommands -------------------------------------------------------------

def cmd_bounds(args) -> tuple[int, str]:
    report = (family_bounds(args.family, args.n) if family_source(args)
              else graph_bounds(load_graph(args)))
    return 0, (dump_json(report.to_json()) if args.format == "json"
               else render_bounds(report))


def cmd_scheme(args) -> tuple[int, str]:
    g = load_graph(args)
    config = resolve_config(args, g)
    check_theta(args, g)
    plans = build_plan_family(g, config)
    thetas = [args.theta] if args.theta is not None else list(g.messages)
    if args.format == "json":
        obj = {
            "graph": graph_to_json(g),
            "scheme": config.kind,
            "lengths": {str(t): plans[t].length for t in thetas},
            "downloads": {str(t): plans[t].download_count() for t in thetas},
            "atoms": {str(t): {str(s): [[list(r) for r in atom]
                                        for atom in plans[t].atoms_at(s)]
                               for s in g.vertices if plans[t].atoms_at(s)}
                      for t in thetas},
        }
        return 0, dump_json(obj)
    return 0, render_plans(g, plans, thetas)


def cmd_verify(args) -> tuple[int, str]:
    g = load_graph(args)
    config = resolve_config(args, g)
    plans = build_plan_family(g, config)
    report = check_scheme(plans, g, q=args.q, seeds=args.seeds, cap=args.cap)
    probes = ([canonical_privacy_probe(plans, g, s, args.cap)
               for s in g.vertices] if args.probe else None)
    code = 0 if report.ok else 1
    with long_ints():
        if args.format == "json":
            obj = report.to_json()
            if probes is not None:
                obj["probes"] = [p.to_json() for p in probes]
            return code, dump_json(obj)
        return code, render_verify(report, probes)


def cmd_simulate(args) -> tuple[int, str]:
    if args.seed is not None and args.theta is None:
        raise InvalidFamilyParams(
            "--seed goes with --theta; without it no transcript is drawn")
    g = load_graph(args)
    config = resolve_config(args, g)
    check_theta(args, g)
    report = measure_rate(g, config, q=args.q, seeds=args.seeds)
    transcript = (None if args.theta is None
                  else run_retrieval(g, config, args.theta, args.seed or 0,
                                     args.q))
    code = 0 if report.decoded_ok else 1
    if args.format == "json":
        obj = report.to_json()
        if transcript is not None:
            obj["transcript"] = transcript.to_json()
        return code, dump_json(obj)
    lines = [f"graph {report.graph}",
             f"scheme {describe_config(config)}",
             f"measured rate {report.rate} (~{float(report.rate):.6g})",
             f"total download {report.total_download} over "
             f"{len(report.per_theta_download)} messages",
             f"decode {'PASS' if report.decoded_ok else 'FAIL'} (exact)",
             f"bounds [{report.bounds.lower}, {report.bounds.upper}]"
             + (" (exact)" if report.bounds.exact else "")
             + ("" if report.bracketed else "  NOT BRACKETED")]
    if transcript is not None:
        lines.append(render_transcript(transcript, g.K))
    return code, "\n".join(lines)


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="local-pir",
        description="Build, verify, and rate retrieval schemes with local "
                    "user privacy on edge-replicated storage.")
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", choices=tuple(FAMILIES),
                       help="named storage family (requires --n)")
        p.add_argument("--n", type=int, help="number of servers")
        p.add_argument("--graph", metavar="PATH",
                       help='graph JSON file {"n": N, "edges": [[u,v], ...]}')
        p.add_argument("--format", choices=("table", "json"),
                       default="table", help="output rendering")

    def scheme_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scheme", choices=("auto", "bipartite"),
                       default="auto",
                       help="plan construction; auto tunes per component "
                            "unless a --t option asks for t-sum")
        p.add_argument("--t", type=int,
                       help="t-sum subset size for both endpoints")
        p.add_argument("--t-i", type=int, dest="t_i",
                       help="subset size at the first endpoint")
        p.add_argument("--t-j", type=int, dest="t_j",
                       help="subset size at the second endpoint")

    def runtime_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--q", type=int, default=2, help="prime field size")
        p.add_argument("--seeds", type=int, default=0,
                       help="optional end-to-end executor runs per message "
                            "(default 0); the decode verdict is exact "
                            "without them")

    p_bounds = sub.add_parser("bounds",
                              help="capacity bounds for a family or graph")
    graph_opts(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_scheme = sub.add_parser("scheme",
                              help="emit a plan family as table or JSON")
    graph_opts(p_scheme)
    scheme_opts(p_scheme)
    p_scheme.add_argument("--theta", type=int,
                          help="restrict output to one desired message")
    p_scheme.set_defaults(func=cmd_scheme)

    p_verify = sub.add_parser("verify",
                              help="privacy, decodability, and cost audit")
    graph_opts(p_verify)
    scheme_opts(p_verify)
    runtime_opts(p_verify)
    p_verify.add_argument("--cap", type=int, default=DEFAULT_CAP,
                          help="search nodes the exact privacy check may "
                               f"visit per server (default {DEFAULT_CAP})")
    p_verify.add_argument("--probe", action="store_true",
                          help="also test the stricter hide-everything "
                               "condition at each server")
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate",
                           help="run retrievals and measure the exact rate")
    graph_opts(p_sim)
    scheme_opts(p_sim)
    runtime_opts(p_sim)
    p_sim.add_argument("--theta", type=int,
                       help="also dump one transcript for this message")
    p_sim.add_argument("--seed", type=int,
                       help="seed for the dumped transcript (default 0)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses.  It holds only option specs, defaults and
    the `cmd_*` functions, which look their callees up at call time."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, text = args.func(args)
        try:
            print(text, flush=True)
        except OSError as exc:
            # Drop what stdout still buffers, so exiting raises no second
            # error.  A closed pipe fails nothing; other errors are internal.
            sys.stdout = open(os.devnull, "w", encoding="utf-8")
            if not isinstance(exc, BrokenPipeError):
                raise
        return code
    except LocalPIRError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
