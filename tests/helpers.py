"""Shared test utilities: plan mutations, corpus builders and oracles.

The mutations deliberately break a plan in one specific way so the
verifier's sensitivity can be exercised; each returns a fresh plan family
with exactly one desired message's layout altered.  The oracles decide
the same questions as the library by brute force, for comparison.
"""

import functools
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

from localpir.errors import (
    EmptyInput,
    EnumerationTooLarge,
    LocalPIRError,
    UnresolvableRef,
)
from localpir.graphs import Graph, build_graph, family
from localpir.scheme import (
    PlanConfig,
    SchemePlan,
    _TemplateRef,
    bipartite_config,
    build_plan_family,
    default_role_rule,
    derive_recipe,
    et_config,
    fixture_config,
)
from localpir.sim import execute_plan
from localpir.verify import (
    DEFAULT_CAP,
    Fingerprint,
    PrivacyReport,
    ProbeReport,
)


def plan_with_queries(plan: SchemePlan, queries) -> SchemePlan:
    """Copy a plan, swapping in mutated queries but keeping the recipe."""
    return SchemePlan(plan.graph, plan.kind, plan.theta, dict(plan.lengths),
                      queries, plan.recipe, dict(plan.meta))


def templated_endpoints(plan: SchemePlan) -> list[int]:
    """The servers whose atoms `plan` holds as a template."""
    return sorted(s for s, atoms in plan.queries._raw.items()
                  if isinstance(atoms, _TemplateRef))


def strip_offset(plan: SchemePlan) -> dict:
    """Undo the second endpoint's position shift on the desired message."""
    i, j = plan.meta["role_i"], plan.meta["role_j"]
    off = comb(plan.graph.degree(i) - 1, plan.meta["t_i"] - 1)
    queries = dict(plan.queries)
    queries[j] = tuple(
        tuple((m, p - off if m == plan.theta else p) for (m, p) in atom)
        for atom in queries[j])
    return queries


def corrupt_gamma(plan: SchemePlan) -> dict:
    """Shift one interference singleton to a wrong occurrence index."""
    queries = dict(plan.queries)
    for server in sorted(queries):
        atoms = list(queries[server])
        for idx, atom in enumerate(atoms):
            (m, pos), = atom if len(atom) == 1 else ((None, None),)
            if m is not None and m != plan.theta and plan.lengths[m] > 1:
                atoms[idx] = ((m, pos % plan.lengths[m] + 1),)
                queries[server] = tuple(atoms)
                return queries
    raise AssertionError("no corruptible singleton found")


def silence_server(plan: SchemePlan, server: int) -> dict:
    """Drop every atom one server would receive for this desired message."""
    queries = dict(plan.queries)
    queries[server] = ()
    return queries


def mutations(plan: SchemePlan):
    """Every mutated query layout the mutations above make of one plan."""
    if plan.kind == "et":
        yield strip_offset(plan)
    try:
        yield corrupt_gamma(plan)
    except AssertionError:
        pass
    for server in sorted(plan.queries):
        yield silence_server(plan, server)


def seeded_decode_ok(plan: SchemePlan, q: int, seeds: int = 32) -> bool:
    """The sampled decode oracle: every one of `seeds` seeded end-to-end
    runs of the plan returns the stored message."""
    for seed in range(seeds):
        try:
            if not execute_plan(plan, seed, q).decoded_ok:
                return False
        except LocalPIRError:
            return False
    return True


def shuffled_permutations(rng, lengths: dict) -> dict:
    """The executor's permutations drawn with `random.shuffle`: one per
    message of `lengths`, ascending, from `rng`."""
    perms = {}
    for m, n in sorted(lengths.items()):
        perms[m] = list(range(1, n + 1))
        rng.shuffle(perms[m])
    return perms


def mutated_family(plans: dict, theta: int, queries) -> dict:
    out = dict(plans)
    out[theta] = plan_with_queries(plans[theta], queries)
    return out


def repeated(plan: SchemePlan, r: int) -> SchemePlan:
    """The plan run r times over messages r times as long.

    Run b reads block b of each message, positions b*L_m + 1..(b+1)*L_m,
    and each server answers the runs in order.  The kind is "repeated",
    since the closed-form costs describe one run.
    """
    queries = {s: tuple(tuple((m, p + b * plan.lengths[m]) for (m, p) in atom)
                        for b in range(r) for atom in atoms)
               for s, atoms in plan.queries.items()}
    return SchemePlan(plan.graph, "repeated", plan.theta,
                      {m: r * n for m, n in plan.lengths.items()}, queries,
                      derive_recipe(queries, plan.theta, r * plan.length))


def reference_et_queries(g: Graph, theta: int, t_i: int,
                         t_j: int | None = None) -> dict:
    """The t-sum layout from a running occurrence count per subset.

    Each endpoint walks its t-subsets in lexicographic order and counts
    every message's occurrences; theta's count starts at the first
    endpoint's block size at the second endpoint.  Every message sharing
    a subset with theta gets one singleton per such subset, at that
    count, from its other replica: endpoint by endpoint, message by
    message, subset by subset.  Servers come in order of first query.
    """
    if t_j is None:
        t_j = t_i
    i, j = default_role_rule(g, theta, t_i, t_j)
    offset = comb(g.degree(i) - 1, t_i - 1)
    queries: dict[int, list] = {}
    singletons = []
    for endpoint, t, shift in ((i, t_i, 0), (j, t_j, offset)):
        stored = g.index_set(endpoint)
        counts = dict.fromkeys(stored, 0)
        counts[theta] = shift
        shared: dict[int, list[int]] = {m: [] for m in stored if m != theta}
        atoms = queries.setdefault(endpoint, [])
        for subset in itertools.combinations(stored, t):
            refs = []
            for msg in subset:
                counts[msg] += 1
                refs.append((msg, counts[msg]))
            atoms.append(tuple(refs))
            if theta in subset:
                for msg in subset:
                    if msg != theta:
                        shared[msg].append(counts[msg])
        for msg, positions in shared.items():
            other = sum(g.endpoints(msg)) - endpoint
            singletons += [(other, ((msg, pos),)) for pos in positions]
    for server, atom in singletons:
        queries.setdefault(server, []).append(atom)
    return {server: tuple(atoms) for server, atoms in queries.items()}


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """A seeded random d-regular graph on n servers: the circulant joining
    each server to those 1..d//2 steps away (and, for odd d and even n,
    to the one opposite), then 20·|E| seeded double-edge swaps, each
    (a, b), (c, e) -> (a, e), (c, b) unless that makes a loop or a
    repeated edge."""
    steps = list(range(1, d // 2 + 1)) + ([n // 2] if d % 2 else [])
    edges = sorted({tuple(sorted((v, (v + k - 1) % n + 1)))
                    for v in range(1, n + 1) for k in steps})
    rng = random.Random(seed)
    present = set(edges)
    for _ in range(20 * len(edges)):
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        (a, b), (c, e) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, e = e, c
        new = tuple(sorted((a, e))), tuple(sorted((c, b)))
        if a == e or c == b or new[0] == new[1] or present & set(new):
            continue
        present -= {edges[i], edges[j]}
        present |= set(new)
        edges[i], edges[j] = new
    return build_graph(n, sorted(edges))


def shipped_corpus() -> list[tuple[str, Graph, PlanConfig]]:
    """The acceptance corpus: the (label, graph, config) triples whose
    per-server enumeration, prod_m L_m! over the messages a view reads,
    acceptance criterion 3 holds to 13824 = (4!)^3.  It is a subset of
    `scripts/verify_battery.py`, which also runs complete-5 and -6 and
    K(3,3) at t=2, three unions, cycle-2000, 100 copies of C4, and
    complete-12 and K(2,4) below their best subset sizes."""
    corpus = []
    for n in range(3, 7):
        corpus.append((f"cycle{n}-t1", family("cycle", n), et_config(1)))
        corpus.append((f"cycle{n}-t2", family("cycle", n), et_config(2)))
    corpus.append(("complete4-t2", family("complete", 4), et_config(2)))
    for n in range(3, 9):
        corpus.append((f"star{n}", family("star", n), bipartite_config()))
    for n in range(3, 8):
        corpus.append((f"path{n}", family("path", n), bipartite_config()))
    corpus.append(("fixture-c4", family("cycle", 4), fixture_config("c4")))
    corpus.append(("fixture-k4", family("complete", 4), fixture_config("k4")))
    return corpus


def corpus_plans():
    return [(label, g, build_plan_family(g, cfg))
            for (label, g, cfg) in shipped_corpus()]


def counted_certificate_fault(plan: SchemePlan, q: int) -> str | None:
    """`verify._certificate_fault` with every step's coefficients counted:
    the source atom's references +1, each cancel atom's -1, mod q."""
    if len(plan.recipe) != plan.length:
        return f"recipe has {len(plan.recipe)} steps, not {plan.length}"
    for pos, step in enumerate(plan.recipe, 1):
        coeffs: Counter = Counter()
        for sign, (s, idx) in ((1, step.source),
                               *((-1, ref) for ref in step.cancel)):
            atoms = plan._lazy_atoms_at(s)
            if not 0 <= idx < len(atoms):
                return (f"step {pos} reads atom {idx} of server "
                        f"{s}, which receives {len(atoms)}")
            for ref in atoms[idx]:
                coeffs[ref] += sign
        left = {ref: c % q for ref, c in sorted(coeffs.items()) if c % q}
        want = {(plan.theta, pos): 1}
        if left != want:
            return (f"step {pos} (source {step.source}, cancel "
                    f"{list(step.cancel)}) leaves {left}, not {want}")
    return None


# --- the enumeration oracle for privacy -----------------------------------

def _physical(perms: dict, msg: int, pos: int) -> int:
    """Where logical position `pos` of `msg` lands under `perms`, a map
    from message to its permutation tuple (logical -> physical); a position
    outside the message raises the executor's refusal."""
    perm = perms[msg]
    if not 1 <= pos <= len(perm):
        raise UnresolvableRef(
            f"position {pos} outside message {msg} of length {len(perm)}")
    return perm[pos - 1]


def query_fingerprint(atoms, perms: dict) -> Fingerprint:
    """What a server actually observes, canonicalized.

    References are mapped to physical positions through `perms`, each
    atom's references are sorted, and the atoms themselves are sorted, so
    two query lists that differ only in presentation order produce the
    same fingerprint.
    """
    mapped = [tuple(sorted((m, _physical(perms, m, p)) for (m, p) in atom))
              for atom in atoms]
    return tuple(sorted(mapped))


def fingerprint_distribution(plan: SchemePlan, server: int,
                             cap: int = DEFAULT_CAP) -> dict:
    """Exact distribution of the server's observed queries, as Fractions,
    counted over every permutation point of the messages referenced here."""
    atoms = plan.atoms_at(server)
    msgs = sorted({m for atom in atoms for (m, _) in atom})
    total = prod(factorial(plan.lengths[m]) for m in msgs)
    if total > cap:
        raise EnumerationTooLarge(
            f"server {server} needs {total} permutation points, cap is {cap}")
    return _distribution(atoms, tuple((m, plan.lengths[m]) for m in msgs))


@functools.lru_cache(maxsize=None)
def _distribution(atoms, lengths) -> dict:
    """Memoized on its inputs: the oracle is rerun on many plan families
    that differ in one plan only."""
    msgs = [m for m, _ in lengths]
    spaces = [itertools.permutations(range(1, n + 1)) for _, n in lengths]
    counts: dict = {}
    for combo in itertools.product(*spaces):
        fp = query_fingerprint(atoms, dict(zip(msgs, combo)))
        counts[fp] = counts.get(fp, 0) + 1
    total = sum(counts.values())
    return {fp: Fraction(c, total) for fp, c in counts.items()}


def oracle_privacy_check(plans: dict, g: Graph, server: int,
                         cap: int = DEFAULT_CAP) -> PrivacyReport:
    """`verify.privacy_check` decided by comparing distributions."""
    thetas = g.index_set(server)
    if not plans:
        raise EmptyInput("no plans given")
    for t in thetas:
        if t not in plans:
            raise EmptyInput(f"no plan for desired message {t}")
    dists = {t: fingerprint_distribution(plans[t], server, cap)
             for t in thetas}
    support = set().union(*dists.values())
    for fp in sorted(support):
        if len({dists[t].get(fp, Fraction(0)) for t in thetas}) > 1:
            return PrivacyReport(server, thetas, "FAIL", len(support), fp)
    return PrivacyReport(server, thetas, "PASS", len(support))


def oracle_probe(plans: dict, g: Graph, server: int,
                 cap: int = DEFAULT_CAP) -> ProbeReport:
    """`verify.canonical_privacy_probe` decided by comparing distributions."""
    thetas = g.index_set(server)
    if not thetas:
        return ProbeReport(server, 0, ())
    for t in g.messages:
        if t not in plans:
            raise EmptyInput(f"no plan for desired message {t}")
    reference = fingerprint_distribution(plans[thetas[0]], server, cap)
    return ProbeReport(server, thetas[0], tuple(
        t for t in g.messages if t != thetas[0]
        and fingerprint_distribution(plans[t], server, cap) != reference))
