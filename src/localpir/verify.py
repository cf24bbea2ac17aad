"""Exact checkers for retrieval plans: privacy, decodability, cost.

Privacy is local: the physical queries a server receives must not depend
on which of its own stored messages is wanted.  The only private randomness
is one uniform permutation per message, so the server's view under a plan
is uniform on the orbit of the plan's layout there.  Two layouts share an
orbit iff per-message position permutations map one onto the other, an
isomorphism of coloured hypergraphs, so each layout is put in a canonical
form by colour refinement and individualisation (McKay and Piperno,
"Practical graph isomorphism, II", 2014).  The canonical form and the
orbit's size fix the view distribution, so messages whose layouts share
both form one view class; verdicts are exact, never sampled.  A t-sum
endpoint's layout is its subset template's, up to a shift of the desired
message's positions, so a templated layout is searched once per
(template, stored messages, L), and each later layout with that key
spends again the nodes that search spent.

Decodability is decided by a linear identity, not by sampling.  Answers
are linear in storage and every reference to a message goes through that
message's one permutation, so distinct logical references are independent
symbols: a plan decodes for every storage content and every permutation
iff each recipe step, source atom minus cancel atoms, leaves exactly the
one desired symbol, coefficients counted mod q.

A plan is checked sendable on its own graph when built (`SchemePlan`), so
the checks here refuse a plan built on a graph other than the one given.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .capacity import et_download_cost, union_capacity
from .errors import (
    EmptyInput,
    EnumerationTooLarge,
    InvalidFamilyParams,
    LocalPIRError,
)
from .field import check_modulus
from .graphs import Graph
from .scheme import Atom, SchemePlan, _execute, _TemplateRef

DEFAULT_CAP = 10**6

Fingerprint = tuple[tuple[tuple[int, int], ...], ...]


class ViewClass(NamedTuple):
    """Messages whose layouts at one server give one view distribution.

    `view` is the layouts' canonical form: each message's referenced
    positions renamed 1..r_m.  `aut` counts the position permutations
    that fix a layout, and `orbit` the views it is uniform on, so each
    has probability 1/orbit.
    """

    members: tuple[int, ...]
    view: Fingerprint
    aut: int
    orbit: int


def _check_filing(plans: dict[int, SchemePlan], g: Graph, thetas) -> None:
    """Refuse a plan for one of `thetas` built on a graph other than `g`,
    or filed under a message other than the one it retrieves."""
    for t in thetas:
        plan = plans.get(t)
        if plan is not None and plan.graph is not g and plan.graph != g:
            raise InvalidFamilyParams(
                f"the plan for message {t} is built on another graph")
        if plan is not None and plan.theta != t:
            raise InvalidFamilyParams(f"the plan filed under message {t} "
                                      f"retrieves message {plan.theta}")


def _check_cap(cap: int) -> None:
    """Refuse a negative search budget before any work."""
    if cap < 0:
        raise InvalidFamilyParams(f"cap must not be negative, got {cap}")


def view_classes(plans: dict[int, SchemePlan], server: int, thetas,
                 cap: int = DEFAULT_CAP) -> list[ViewClass]:
    """Group the messages `thetas` by the view they give `server`.

    A message's layout is its atoms here under identity permutations, and
    its view is uniform on the layout's orbit under the permutations of
    the messages it references: prod_m (L)_{r_m} placements of the r_m
    positions it reads of each message m, |Aut| of them per view, so 1
    for a layout that reads nothing.  Layouts share an orbit iff they
    have one canonical form (`_canonical`) and one orbit size.
    Classes come in order of their first message, members in the given
    order.  The canonical searches of all messages together may visit at
    most `cap` nodes.

    A layout still held as a t-sum endpoint's template reference is the
    template's unshifted layout with the desired message's positions
    shifted, a permutation of that message's positions: it keeps the
    search, the view and |Aut|, and since the template reads every stored
    message at c positions, the orbit too.  So such layouts are searched
    once per (template, stored messages, L), on the unshifted layout; each
    later one joins the class found and spends the nodes that search
    spent, so the cap counts as for one search per layout.
    """
    thetas = tuple(thetas)      # read twice: an iterator must not run dry
    for t in sorted(thetas):
        if t not in plans:
            raise EmptyInput(f"no plan for desired message {t}")
    nodes = 0

    def spend(n: int = 1) -> None:
        nonlocal nodes
        nodes += n
        if nodes > cap:
            raise EnumerationTooLarge(
                f"server {server} searched {cap + 1} nodes, budget is {cap}")

    classes: dict[tuple, tuple[list[int], int]] = {}
    searched: dict[tuple, tuple[tuple, int]] = {}   # key -> class, nodes
    for t in thetas:
        plan = plans[t]
        atoms = plan._lazy_atoms_at(server)
        key = None
        if isinstance(atoms, _TemplateRef):
            # a template holds a dict, so it is keyed by identity; the
            # plans keep it alive for the whole call
            key = (id(atoms.tpl), atoms.stored, plan.length)
            if key in searched:
                cls, spent = searched[key]
                spend(spent)
                classes[cls][0].append(t)
                continue
            atoms = atoms.unshifted()
        before = nodes
        view, aut, orbit = _search(atoms, plan.length, spend)
        classes.setdefault((view, orbit), ([], aut))[0].append(t)
        if key is not None:
            searched[key] = (view, orbit), nodes - before
    return [ViewClass(tuple(members), view, aut, orbit)
            for (view, orbit), (members, aut) in classes.items()]


def _search(atoms: tuple[Atom, ...], length: int,
            spend: Callable[[], None]) -> tuple[Fingerprint, int, int]:
    """A layout's canonical view, |Aut| and orbit size at `length`."""
    refs = sorted({ref for atom in atoms for ref in atom})
    view, aut = _canonical(atoms, refs, spend)
    # prod_m (L)_{r_m} placements: in `refs`, sorted, the k-th position
    # read of a message, k from 0, has L - k places left
    orbit, prev, k = 1, None, 0
    for m, _ in refs:
        k = k + 1 if m == prev else 0
        orbit, prev = orbit * (length - k), m
    return view, aut, orbit // aut


def _canonical(atoms: tuple[Atom, ...], refs: list[tuple[int, int]],
               spend: Callable[[], None]) -> tuple[Fingerprint, int]:
    """The layout's canonical view and |Aut|, its automorphism count.

    The vertices are the referenced (m, p), `refs` in ascending order,
    coloured by m, and the atoms a multiset of edges.  Colour refinement
    splits vertices by the colours of the atoms they lie in; the first
    cell it leaves with more than one vertex has each of them
    individualised in turn, and the search recurses.  A discrete
    colouring is a leaf: it names each message's positions 1..r_m in
    colour order.  The search tree does not depend on how positions are
    numbered, so the least leaf view is canonical, and the leaves that
    reach it are its images under Aut, one each.  `spend` is called once
    per node.
    """
    spend()
    msg = [m for m, _ in refs]
    if len(set(msg)) == len(refs):
        # one position per message: the layout is discrete already
        return tuple(sorted(tuple(sorted((m, 1) for m, _ in atom))
                            for atom in atoms)), 1
    index = {ref: v for v, ref in enumerate(refs)}
    edges = [[index[ref] for ref in atom] for atom in atoms]
    incident: list[list[int]] = [[] for _ in refs]
    for a, edge in enumerate(edges):
        for v in edge:
            incident[v].append(a)
    # Colours stay in message order, so a discrete colouring numbers
    # message m's vertices first[m], first[m] + 1, ...
    first: dict[int, int] = {}
    for v, m in enumerate(msg):
        first.setdefault(m, v)
    best, count = None, 0

    def search(colour: list[int]) -> None:
        nonlocal best, count
        colour = _refine(colour, edges, incident)
        sizes = Counter(colour)
        cell = min((c for c, k in sizes.items() if k > 1), default=None)
        if cell is None:
            view = tuple(sorted(
                tuple(sorted((msg[v], colour[v] - first[msg[v]] + 1)
                             for v in e)) for e in edges))
            if best is None or view < best:
                best, count = view, 1
            elif view == best:
                count += 1
            return
        for v, c in enumerate(colour):
            if c == cell:
                spend()
                search([2 * d + (d == cell and u != v)
                        for u, d in enumerate(colour)])

    search(msg)
    return best, count


def _refine(colour: list[int], edges: list[list[int]],
            incident: list[list[int]]) -> list[int]:
    """Split colour classes until stable: each vertex is recoloured by its
    colour and the sorted colours of the edges it lies in, an edge's colour
    being its vertices' sorted colours.  New colours are ranks, so they
    keep the order of the classes they split."""
    cells = len(set(colour))
    while True:
        edge_colour = [tuple(sorted(colour[v] for v in e)) for e in edges]
        sig = [(c, tuple(sorted(edge_colour[a] for a in incident[v])))
               for v, c in enumerate(colour)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        colour = [rank[s] for s in sig]
        if len(rank) == cells:
            return colour
        cells = len(rank)


def _fingerprint_json(fp: Fingerprint | None):
    if fp is None:
        return None
    return [[list(ref) for ref in atom] for atom in fp]


@dataclass
class PrivacyReport:
    server: int
    thetas: tuple[int, ...]
    verdict: str                       # "PASS" or "FAIL"
    support_size: int
    counterexample: Fingerprint | None = None

    @property
    def ok(self) -> bool:
        return self.verdict == "PASS"

    def to_json(self) -> dict:
        return {"server": self.server, "thetas": list(self.thetas),
                "verdict": self.verdict, "support_size": self.support_size,
                "counterexample": _fingerprint_json(self.counterexample)}


def privacy_check(plans: dict[int, SchemePlan], g: Graph, server: int,
                  cap: int = DEFAULT_CAP) -> PrivacyReport:
    """Decide whether `server` can tell apart the messages it stores.

    PASS means the stored messages form one view class.  The support is
    the union of the classes' orbits (`_support`).  FAIL carries the least
    canonical view among the classes, which has probability 1/|orbit| in
    its class, 0 in a class of another view, and 1/|orbit'| in a class of
    the same view and another orbit size.  A negative `cap` is refused.
    """
    _check_cap(cap)
    thetas = g.index_set(server)
    if not plans:
        raise EmptyInput("no plans given")
    _check_filing(plans, g, thetas)
    classes = view_classes(plans, server, thetas, cap)
    support = _support(classes)
    if len(classes) < 2:
        return PrivacyReport(server, thetas, "PASS", support)
    return PrivacyReport(server, thetas, "FAIL", support,
                         min(c.view for c in classes))


def _support(classes: list[ViewClass]) -> int:
    """|union of the classes' orbits|.  Orbits of distinct views are
    disjoint.  One view's orbit at length L is its placements within
    positions 1..L, over |Aut|, so its orbits of several sizes are
    nested and the largest holds the others."""
    largest: dict[Fingerprint, int] = {}
    for c in classes:
        largest[c.view] = max(largest.get(c.view, 0), c.orbit)
    return sum(largest.values())


@dataclass
class ProbeReport:
    """Outcome of testing the stricter hide-everything condition."""

    server: int
    reference_theta: int
    distinguishable: tuple[int, ...]

    @property
    def canonical(self) -> bool:
        return not self.distinguishable

    def to_json(self) -> dict:
        return {"server": self.server,
                "reference_theta": self.reference_theta,
                "distinguishable": list(self.distinguishable),
                "canonical": self.canonical}


def canonical_privacy_probe(plans: dict[int, SchemePlan], g: Graph,
                            server: int,
                            cap: int = DEFAULT_CAP) -> ProbeReport:
    """Check whether the server's view hides the desired message globally.

    The local condition only compares messages the server stores; this
    probe lists every message outside the first stored one's view class.
    A non-empty list shows the scheme is local-private but not private in
    the classical sense.  A negative `cap` is refused.
    """
    _check_cap(cap)
    thetas = g.index_set(server)
    if not thetas:
        return ProbeReport(server, 0, ())
    order = [thetas[0], *(t for t in g.messages if t != thetas[0])]
    _check_filing(plans, g, order)
    same = view_classes(plans, server, order, cap)[0].members
    return ProbeReport(server, thetas[0],
                       tuple(t for t in g.messages if t not in same))


@dataclass
class DecodeReport:
    trials: int
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"

    def to_json(self) -> dict:
        return {"trials": self.trials, "verdict": self.verdict,
                "failures": self.failures}


def _certificate_fault(plan: SchemePlan, q: int) -> str | None:
    """Why the plan fails to decode for some storage and permutation.

    None means it decodes for all of them.  The recipe must have one step
    per position, read only answers that exist, and step k's source atom
    minus its cancel atoms must leave exactly the desired symbol at
    position k, mod q.  A fault names the step and, if any, the
    references it leaves.
    """
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


def decode_check(plans: dict[int, SchemePlan], g: Graph, q: int = 2,
                 seeds: int = 0) -> DecodeReport:
    """Decide exactly whether every plan decodes.

    The verdict rests on a certificate per plan (`_certificate_fault`): a
    failing plan gets one entry with seed None naming the atom or step at
    fault.  No plan is executed unless `seeds` asks for it: then each
    plan also runs `seeds` times against honest servers on fresh random
    storage and user randomness, a run that decodes wrongly or raises
    adds its own entry, and `trials` counts these runs.  A run can fail
    only where the certificate does, so the runs are an optional cross
    check that never changes the verdict.  A negative count is refused.
    """
    if seeds < 0:
        raise InvalidFamilyParams(f"seeds must not be negative, got {seeds}")
    check_modulus(q)
    _check_filing(plans, g, plans)
    report = DecodeReport(trials=0)
    for theta in sorted(plans):
        plan = plans[theta]
        fault = _certificate_fault(plan, q)
        if fault is not None:
            report.failures.append(
                {"theta": theta, "seed": None, "reason": fault})
        for seed in range(seeds):
            report.trials += 1
            rng = random.Random(f"decode:{theta}:{seed}")
            try:
                _, storage, got = _execute(plan, rng, q)
            except LocalPIRError as exc:
                report.failures.append(
                    {"theta": theta, "seed": seed,
                     "reason": f"{type(exc).__name__}: {exc}"})
                continue
            if got != storage[theta]:
                report.failures.append(
                    {"theta": theta, "seed": seed,
                     "reason": f"decoded {got}, stored {storage[theta]}"})
    return report


@dataclass
class CostReport:
    per_theta: dict[int, int]
    per_server: dict[int, Fraction]
    expected_download: Fraction
    rate: Fraction
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "per_theta": {str(t): d for t, d in self.per_theta.items()},
            "per_server": {str(s): [c.numerator, c.denominator]
                           for s, c in self.per_server.items()},
            "expected_download": [self.expected_download.numerator,
                                  self.expected_download.denominator],
            "rate": [self.rate.numerator, self.rate.denominator],
            "mismatches": self.mismatches,
        }


def cost_audit(plans: dict[int, SchemePlan], g: Graph) -> CostReport:
    """Count downloads and cross-check them against closed forms.

    The forms read degrees off `g` at the plan's roles: `et_download_cost`
    for a t-sum plan, its cover vertex's degree times L for a cover plan.
    Rate is `capacity.union_capacity` over one part per plan:
    K / sum_theta D_theta / L_theta, messages weighted equally (the
    desired index is uniform).  Plans of one length L give K*L / sum D.
    A family that downloads nothing is a mismatch too (rate 0).
    """
    per_theta = {t: plans[t].download_count() for t in sorted(plans)}
    k = len(per_theta)
    if k == 0:
        raise EmptyInput("no plans given")
    _check_filing(plans, g, plans)
    downloads = dict.fromkeys(g.vertices, 0)
    mismatches = []
    for t, plan in plans.items():
        for s in plan.queries:
            downloads[s] += len(plan._lazy_atoms_at(s))
        if plan.kind == "et":
            form = "closed"
            expect = et_download_cost(
                g.degree(plan.meta["role_i"]), g.degree(plan.meta["role_j"]),
                plan.meta["t_i"], plan.meta["t_j"])
        elif plan.kind == "bipartite":
            form = "cover"
            expect = g.degree(plan.meta["cover_vertex"]) * plan.length
        else:
            continue
        if per_theta[t] != expect:
            mismatches.append(f"theta {t}: downloaded {per_theta[t]}, "
                              f"{form} form says {expect}")
    total = sum(per_theta.values())
    if not total:
        mismatches.append("no plan downloads anything")
    rate = (union_capacity((1, Fraction(per_theta[t], plans[t].length))
                           for t in per_theta)
            if total else Fraction(0))
    per_server = {s: Fraction(c, k) for s, c in downloads.items()}
    return CostReport(per_theta, per_server, Fraction(total, k), rate,
                      mismatches)


@dataclass
class SchemeReport:
    privacy: list[PrivacyReport]
    decode: DecodeReport
    cost: CostReport

    @property
    def ok(self) -> bool:
        return (all(r.ok for r in self.privacy)
                and self.decode.ok and self.cost.ok)

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "privacy": [r.to_json() for r in self.privacy],
                "decode": self.decode.to_json(),
                "cost": self.cost.to_json()}


def check_scheme(plans: dict[int, SchemePlan], g: Graph, q: int = 2,
                 seeds: int = 0, cap: int = DEFAULT_CAP) -> SchemeReport:
    """Full audit: privacy at every server, decoding, and cost accounting.

    Every verdict is exact; no plan is executed unless `seeds` asks for
    end-to-end runs (see `decode_check`).  A negative `cap` is refused.
    """
    _check_cap(cap)
    # decode_check refuses a bad q, seeds or graph before any privacy search
    dec = decode_check(plans, g, q, seeds)
    privacy = [privacy_check(plans, g, s, cap) for s in g.vertices]
    cost = cost_audit(plans, g)
    return SchemeReport(privacy, dec, cost)
