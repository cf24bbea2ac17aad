"""Exact checkers for retrieval plans: privacy, decodability, cost.

Privacy is local: the physical queries a server receives must not depend
on which of its own stored messages is wanted.  The only private randomness
is one uniform permutation per message, so the server's view under a plan
is uniform on the orbit of the plan's layout there.  Messages whose layouts
share an orbit form one view class; verdicts are exact, never sampled.

Decodability is decided by a linear identity, not by sampling.  Answers
are linear in storage and every reference to a message goes through that
message's one permutation, so distinct logical references are independent
symbols: a plan decodes for every storage content and every permutation
iff each recipe step, source atom minus cancel atoms, leaves exactly the
one desired symbol, coefficients counted mod q.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod

from .capacity import union_capacity
from .errors import (
    EmptyInput,
    EnumerationTooLarge,
    InvalidFamilyParams,
    LocalPIRError,
    UnresolvableRef,
)
from .field import Field
from .graphs import Graph
from .scheme import Atom, Randomness, SchemePlan, _execute, et_download_cost

DEFAULT_CAP = 10**6

Fingerprint = tuple[tuple[tuple[int, int], ...], ...]


def query_fingerprint(atoms: tuple[Atom, ...], rnd: Randomness) -> Fingerprint:
    """What a server actually observes, canonicalized.

    References are mapped to physical positions, each atom's references are
    sorted, and the atoms themselves are sorted, so two query lists that
    differ only in presentation order produce the same fingerprint.
    """
    mapped = [tuple(sorted((m, rnd.physical(m, p)) for (m, p) in atom))
              for atom in atoms]
    return tuple(sorted(mapped))


def view_classes(plans: dict[int, SchemePlan], server: int, thetas,
                 cap: int = DEFAULT_CAP) -> list[tuple[tuple, frozenset]]:
    """Group the messages `thetas` by the view they give `server`.

    A message's layout is its atoms here under identity permutations, and
    its view is uniform on the layout's orbit under the permutations of
    the messages it references.  A message joins the first class with its
    referenced lengths whose orbit holds its layout, or else enumerates
    its orbit, over placements of the positions it references
    (`_placements`), into a new class: (messages in the given order,
    orbit).  Every message's permutation count is held to `cap`, joined
    or not.
    """
    for t in sorted(thetas):
        if t not in plans:
            raise EmptyInput(f"no plan for desired message {t}")
    classes: list[tuple[list[int], list[int], frozenset[Fingerprint]]] = []
    for t in thetas:
        plan = plans[t]
        atoms = plan.atoms_at(server)
        msgs = sorted({m for atom in atoms for (m, _) in atom})
        lengths = [plan.lengths.get(m) for m in msgs]
        if None in lengths:
            raise UnresolvableRef(
                f"server {server}: message {msgs[lengths.index(None)]} "
                f"has no length in the plan for {t}")
        total = prod(map(factorial, lengths))
        if total > cap:
            raise EnumerationTooLarge(
                f"server {server} needs {total} permutation points, "
                f"cap is {cap}")
        atoms, spaces = _placements(atoms, msgs, lengths)
        views = _views(atoms, msgs, spaces)
        view = next(views)
        # A view in an orbit has its messages, so lengths align in order,
        # and orbits of equal lengths are equal or disjoint.
        for known, members, orbit in classes:
            if known == lengths and view in orbit:
                members.append(t)
                break
        else:
            classes.append((lengths, [t], frozenset({view, *views})))
    return [(tuple(members), orbit) for _, members, orbit in classes]


def _views(atoms: tuple[Atom, ...], msgs: list[int], spaces: list):
    """The view at each point of the product of `spaces`, in order.  One
    Randomness is refilled per point; a fingerprint keeps no reference."""
    rnd = Randomness({})
    for combo in itertools.product(*spaces):
        rnd.perms.update(zip(msgs, combo))
        yield query_fingerprint(atoms, rnd)


def _placements(atoms: tuple[Atom, ...], msgs: list[int],
                lengths: list[int]) -> tuple[tuple[Atom, ...], list]:
    """The atoms and, per message, the placements that give every view.

    A view reads a message's permutation only at the positions the atoms
    reference, and each injective placement of those r positions among
    the L extends to (L - r)! permutations.  So each message's positions
    are renumbered by rank among the referenced ones and range over the
    placements.  Where every length is below 3, each placement is a
    whole permutation, so the atoms stand as they are: renumbering them
    made t=1 plans, all of length 2, about a fifth slower to check.
    """
    if max(lengths, default=0) < 3:
        return atoms, [itertools.permutations(range(1, n + 1))
                       for n in lengths]
    length = dict(zip(msgs, lengths))
    used: dict[int, set[int]] = {m: set() for m in msgs}
    for atom in atoms:
        for (m, p) in atom:
            if not 1 <= p <= length[m]:
                raise UnresolvableRef(f"position {p} outside message {m} "
                                      f"of length {length[m]}")
            used[m].add(p)
    rank = {m: {p: i for i, p in enumerate(sorted(ps), 1)}
            for m, ps in used.items()}
    ranked = tuple(tuple((m, rank[m][p]) for (m, p) in atom)
                   for atom in atoms)
    return ranked, [itertools.permutations(range(1, length[m] + 1),
                                           len(used[m])) for m in msgs]


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

    PASS means the stored messages form one view class.  FAIL carries the
    least view whose probability (1/|orbit| or 0) differs between classes;
    the support is the union of the classes' orbits.
    """
    thetas = g.index_set(server)
    if not plans:
        raise EmptyInput("no plans given")
    orbits = [orbit for _, orbit in view_classes(plans, server, thetas, cap)]
    support = frozenset().union(*orbits)
    differs = [fp for fp in support
               if len({len(o) if fp in o else 0 for o in orbits}) > 1]
    fp = min(differs, default=None)
    verdict = "PASS" if fp is None else "FAIL"
    return PrivacyReport(server, thetas, verdict, len(support), fp)


def _sendable(plan: SchemePlan, server: int) -> bool:
    """Whether every reference the plan sends `server` lies within the
    plan's lengths.  A layout that does not cannot be sent, so it has no
    view."""
    return all(1 <= p <= plan.lengths.get(m, 0)
               for atom in plan.atoms_at(server) for (m, p) in atom)


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
    the classical sense.  A layout that cannot be sent has no view, so its
    message shares no class; if it is the first stored one's, every other
    message is listed.
    """
    thetas = g.index_set(server)
    if not thetas:
        return ProbeReport(server, 0, ())
    order = [thetas[0], *(t for t in g.messages if t != thetas[0])]
    sent = [t for t in order if t not in plans or _sendable(plans[t], server)]
    classes = view_classes(plans, server, sent, cap)
    same = classes[0][0] if sent[:1] == order[:1] else order[:1]
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


def _certificate_fault(plan: SchemePlan, g: Graph, q: int) -> str | None:
    """Why the plan fails to decode for some storage and permutation.

    None means it decodes for all of them.  The checks: every atom at
    server s references only messages s stores and the plan gives a
    length L_m, at logical positions in 1..L_m; the desired message has a
    length L, and the recipe recovers positions 1..L in order; every
    answer a step reads exists; and each step's source atom minus its
    cancel atoms leaves exactly the desired symbol at the step's
    position, mod q.  A fault names the atom or step and, for a step, the
    references left.
    """
    for s, atoms in plan.queries.items():
        if not 1 <= s <= g.n_vertices:
            return f"server {s} outside 1..{g.n_vertices}"
        stored = g.index_set(s)
        for idx, atom in enumerate(atoms):
            for (m, p) in atom:
                if m not in stored:
                    return (f"server {s} atom {idx} reads message {m}, "
                            f"which it does not store")
                if m not in plan.lengths:
                    return (f"server {s} atom {idx} reads message {m}, "
                            f"which has no length in the plan")
                if not 1 <= p <= plan.lengths[m]:
                    return (f"server {s} atom {idx} reads position {p} "
                            f"outside message {m} of length "
                            f"{plan.lengths[m]}")
    if plan.theta not in plan.lengths:
        return f"desired message {plan.theta} has no length in the plan"
    positions = [step.position for step in plan.recipe]
    if positions != list(range(1, plan.length + 1)):
        return f"recipe recovers positions {positions}, not 1..{plan.length}"
    for step in plan.recipe:
        coeffs: Counter = Counter()
        for sign, (s, idx) in ((1, step.source),
                               *((-1, ref) for ref in step.cancel)):
            atoms = plan.atoms_at(s)
            if not 0 <= idx < len(atoms):
                return (f"step {step.position} reads atom {idx} of server "
                        f"{s}, which receives {len(atoms)}")
            for ref in atoms[idx]:
                coeffs[ref] += sign
        left = {ref: c % q for ref, c in sorted(coeffs.items()) if c % q}
        want = {(plan.theta, step.position): 1}
        if left != want:
            return (f"step {step.position} (source {step.source}, cancel "
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
    fld = Field(q)
    report = DecodeReport(trials=0)
    for theta in sorted(plans):
        plan = plans[theta]
        fault = _certificate_fault(plan, g, q)
        if fault is not None:
            report.failures.append(
                {"theta": theta, "seed": None, "reason": fault})
        for seed in range(seeds):
            report.trials += 1
            rng = random.Random(f"decode:{theta}:{seed}")
            try:
                storage, _, _, got = _execute(plan, rng, fld)
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

    Rate is `capacity.union_capacity` over one part per plan length:
    K / sum_theta D_theta / L_theta, messages weighted equally (the
    desired index is uniform).  Plans of one length L give K*L / sum D.
    Mismatches also include a query to a server outside the graph, a plan
    with no length for its desired message (left out of the rate), and a
    family that downloads nothing (rate 0).
    """
    per_theta = {t: plans[t].download_count() for t in sorted(plans)}
    k = len(per_theta)
    if k == 0:
        raise EmptyInput("no plans given")
    downloads = dict.fromkeys(g.vertices, 0)
    # plans and their download, by plan length
    count, downloaded = defaultdict(int), defaultdict(int)
    mismatches = []
    for t, plan in plans.items():
        for s, atoms in plan.queries.items():
            try:
                downloads[s] += len(atoms)
            except KeyError:
                mismatches.append(f"theta {t}: queries server {s} outside "
                                  f"1..{g.n_vertices}")
        if plan.theta not in plan.lengths:
            mismatches.append(f"theta {t}: desired message {plan.theta} has "
                              f"no length in the plan")
            continue
        length = plan.length
        count[length] += 1
        downloaded[length] += per_theta[t]
        if plan.kind == "et":
            expect = et_download_cost(plan.meta["deg_i"], plan.meta["deg_j"],
                                      plan.meta["t_i"], plan.meta["t_j"])
            if per_theta[t] != expect:
                mismatches.append(
                    f"theta {t}: downloaded {per_theta[t]}, "
                    f"closed form says {expect}")
        elif plan.kind == "bipartite":
            expect = g.degree(plan.meta["cover_vertex"]) * length
            if per_theta[t] != expect:
                mismatches.append(
                    f"theta {t}: downloaded {per_theta[t]}, "
                    f"cover form says {expect}")
    total = sum(per_theta.values())
    if not total:
        mismatches.append("no plan downloads anything")
    rate = (union_capacity((count[n], Fraction(downloaded[n], n))
                           for n in count)
            if any(downloaded.values()) else Fraction(0))
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
    end-to-end runs (see `decode_check`).

    A layout that cannot be sent, since it references a symbol outside its
    plan's lengths, has no view: privacy at its server fails with that
    layout as the witness and support 0.
    """
    # Decoding runs first, so a bad modulus or seed count is refused
    # before any privacy enumeration.
    dec = decode_check(plans, g, q, seeds)
    privacy = []
    for s in g.vertices:
        try:
            privacy.append(privacy_check(plans, g, s, cap))
        except UnresolvableRef:
            atoms = next(plans[t].atoms_at(s) for t in g.index_set(s)
                         if not _sendable(plans[t], s))
            layout = tuple(sorted(tuple(sorted(atom)) for atom in atoms))
            privacy.append(PrivacyReport(s, g.index_set(s), "FAIL", 0, layout))
    cost = cost_audit(plans, g)
    return SchemeReport(privacy, dec, cost)
