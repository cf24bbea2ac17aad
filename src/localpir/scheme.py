"""Retrieval plans: how a user queries edge-replicated servers.

A plan fixes, for one desired message, the logical query layout per server
(atoms = sums of symbol references), plus a decoding recipe.  Logical
position m of message k means the m-th symbol under the user's private
permutation of message k.  One executor, `_execute`, runs a plan: it draws
the permutations and storage, then runs the recipe, answering only the
atoms the recipe reads, each summed inline from storage.  `_transcribe`
rebuilds what every server saw from those draws: each atom translated to
physical positions (servers only ever see physical indices) and answered
from the server's stored messages.  Permutations are drawn from the run's
rng exactly as `random.shuffle` would draw them, so seeded transcripts
replay unchanged.  `sim.execute_plan` and `verify.decode_check(seeds=n)`
call `_execute`; only a `sim.Transcript` whose `per_server` is read calls
`_transcribe`.

A plan that cannot be sent cannot be built: `SchemePlan` checks that the
plan gives every message it names the desired message's length, and that
each reference is at a server of the graph, in a message it stores and
the plan names, within that length.  A t-sum endpoint is checked whole,
off its template, in O(d).

Three constructions are provided.

t-sum plan (for edge-transitive storage): the two endpoint servers of the
desired edge answer one sum per t-subset of their stored messages.  Fresh
symbol positions come from a running occurrence count over the subsets in
lexicographic order.  The counts depend only on the degree d and t, so they
run once per (d, t) on a graph, into a template over message ranks that
every plan of that graph reuses.  At the second endpoint the desired
message's positions are shifted past the block already covered by the
first, so the two endpoints jointly deliver all
L = C(d_i-1, t_i-1) + C(d_j-1, t_j-1) symbols.  Every other symbol
entangled with the desired one is fetched as a plain singleton from the
opposite server that replicates it, which lets the decoder cancel it.
The recipe follows by construction, read off the template's subsets:
the k-th subset holding the desired message's rank yields its k-th
position at that endpoint, and each other member of that subset is
cancelled by a singleton its opposite replica sends, laid out in the same
walk.  So the builder states the recipe and scans no atom for it.  Nor
does it lay out the endpoints' atoms: each endpoint's query is a
reference (template, stored messages, the desired message's rank,
shift), expanded into tuples each time `queries` or `atoms_at` is read.
The executor, the decode certificate and the download counts read single
atoms and sizes off the template, so a retrieval builds and reads only
its recipe's atoms.  A built plan and its template never change.

Cover plans state their one-step recipe too.  `derive_recipe` reads a
recipe off a query layout; it serves fixture plans, whose tables give no
recipe, and is the reference the tests compare built recipes with.
Whatever a builder states, `verify`'s decode certificate re-checks every
step of every plan it verifies.

Bipartite cover plan: pick the part with the smaller sum of squared
degrees; the desired edge's endpoint in that part sends its entire storage,
every other server stays silent.  Queries per server never depend on which
of its messages is wanted.

Union plan: the t-sum or cover plan of the component holding the desired
message (the scheme `capacity.component_schemes` lists for it), built on
the whole graph.  `capacity.union_capacity` composes the components' rates.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from math import comb
from typing import NamedTuple

from .capacity import (
    best_scheme,
    component_schemes,
    cover_part,
    subpacketization,
)
from .errors import (
    IncompleteAnswers,
    InvalidFamilyParams,
    RoleConflict,
    UndecodablePlan,
    UnresolvableRef,
)
from .fixtures import fixture
from .graphs import Graph

Ref = tuple[int, int]          # (message, position), both 1-based
Atom = tuple[Ref, ...]         # one downloaded symbol: a sum of refs


class DecodeStep(NamedTuple):
    """Recover one logical symbol of the desired message: step k of a
    recipe recovers position k.

    Take the answer at `source` and subtract the answers at `cancel`
    (each is a (server, atom_index) pair into the plan's query lists).
    """

    source: tuple[int, int]
    cancel: tuple[tuple[int, int], ...]


class _TemplateRef:
    """A t-sum endpoint's atoms by reference: one sum per subset of `tpl`
    over the server's `stored` messages, the desired message stored[rank]
    at its counts plus `shift`.  Indexing it reads one atom off the
    template in O(t), subset idx's (rank, count) pairs so renamed; only
    `expand` builds every atom.  Nothing is kept: each read lays out again
    what it returns."""

    __slots__ = ("tpl", "stored", "rank", "shift")

    def __init__(self, tpl: _SubsetTemplate, stored: tuple[int, ...],
                 rank: int, shift: int):
        self.tpl, self.stored, self.rank, self.shift = tpl, stored, rank, shift

    def __len__(self) -> int:
        return len(self.tpl.subsets)

    def __getitem__(self, idx: int) -> Atom:
        stored, rank, shift = self.stored, self.rank, self.shift
        return tuple([(stored[r], k + shift) if r == rank else (stored[r], k)
                      for r, k in self.tpl.subsets[idx]])

    def unshifted(self) -> tuple[Atom, ...]:
        """The server's layout with no shift: the same for every message
        the server stores."""
        stored = self.stored
        return tuple([tuple([(stored[r], k) for r, k in sub])
                      for sub in self.tpl.subsets])

    def expand(self) -> tuple[Atom, ...]:
        """Every atom: the unshifted layout, with the desired message's
        subsets read again at a shift."""
        layout = self.unshifted()
        if not self.shift:
            return layout
        atoms = list(layout)
        for s in self.tpl.holding[self.rank]:
            atoms[s] = self[s]
        return tuple(atoms)

    def fits(self, stored: tuple[int, ...], lengths: dict[int, int],
             length: int) -> bool:
        """Whether every reference is to a message of `stored`, the
        server's messages, that has a length in `lengths`, within
        1..length: the template's counts run 1..c, so it is enough that
        the server stores exactly these messages, that each has a length,
        and that the shifted block ends within the length."""
        return (self.stored == stored and self.shift + self.tpl.c <= length
                and all(map(lengths.__contains__, stored)))


class _Queries(Mapping):
    """server -> atoms, as `SchemePlan.queries` holds them.

    A t-sum endpoint's value is held as a `_TemplateRef` and expanded
    into tuples on each read; every other value is the atoms themselves.
    """

    __slots__ = ("_raw",)

    def __init__(self, raw):
        self._raw = dict(raw)

    def __getitem__(self, server: int) -> tuple[Atom, ...]:
        atoms = self._raw[server]
        return atoms.expand() if isinstance(atoms, _TemplateRef) else atoms

    def __iter__(self):
        return iter(self._raw)

    def __len__(self) -> int:
        return len(self._raw)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class SchemePlan:
    """Logical query layout and decoding recipe for one desired message.

    `queries` maps each server to its atoms.  A built t-sum plan keeps
    each endpoint's atoms as a reference to its subset template: reading
    `queries` or `atoms_at` expands them into tuples on each read, while
    the executor and the counts read single atoms or sizes off the
    template.  A built plan never changes.

    Checked when built, by `dataclasses.replace` too, that `lengths`
    gives every message the desired one's length and that the plan can
    be sent: a server outside the graph raises IndexOutOfRange, any other
    fault UnresolvableRef.  Each reference (m, p) at server s is checked
    on its own, with no set built per server: m has a length, p lies in
    1..L, and s is an end of edge m.  A templated endpoint is checked
    whole, in O(d): it reads exactly the server's stored messages, each
    with a length, and its shifted block ends within L.  Only if that
    fails are its atoms expanded and checked one by one, so the fault is
    named as for any other server.
    """

    graph: Graph
    kind: str
    theta: int
    lengths: dict[int, int]     # theta and each message read -> one length
    queries: dict[int, tuple[Atom, ...]]    # server -> atoms
    recipe: tuple[DecodeStep, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = self.lengths
        if self.theta not in lengths:
            raise UnresolvableRef(
                f"desired message {self.theta} has no length in the plan")
        length = lengths[self.theta]
        other = min((m for m, n in lengths.items() if n != length),
                    default=None)
        if other is not None:
            raise UnresolvableRef(
                f"message {other} has length {lengths[other]}, desired "
                f"message {self.theta} has {length}")
        queries = self.queries
        if not isinstance(queries, _Queries):
            queries = _Queries(queries)
            object.__setattr__(self, "queries", queries)
        g = self.graph
        edges, n_msgs = g.edges, g.K
        for s, atoms in queries._raw.items():
            stored = g.index_set(s)
            if isinstance(atoms, _TemplateRef):
                if atoms.fits(stored, lengths, length):
                    continue
                atoms = atoms.expand()
            for idx, atom in enumerate(atoms):
                for m, p in atom:
                    # message m is stored at s iff s is an end of edge m
                    if not (m in lengths and 1 <= p <= length
                            and 1 <= m <= n_msgs and s in edges[m - 1]):
                        raise UnresolvableRef(
                            f"server {s} atom {idx} reads " + (
                                f"message {m}, which it does not store"
                                if m not in stored else
                                f"message {m}, which has no length in the plan"
                                if m not in lengths else
                                f"position {p} outside message {m} of length "
                                f"{length}"))

    @property
    def length(self) -> int:
        """Symbol count of the desired message."""
        return self.lengths[self.theta]

    def atoms_at(self, server: int) -> tuple[Atom, ...]:
        return self.queries.get(server, ())

    def _lazy_atoms_at(self, server: int):
        """The atoms `server` receives, for counting or reading one at a
        time: a templated endpoint gives them off its template."""
        return self.queries._raw.get(server, ())

    def download_count(self) -> int:
        return sum(map(len, self.queries._raw.values()))

    def referenced_messages(self) -> tuple[int, ...]:
        # a template reads every stored message: each rank is in a subset
        msgs = set()
        for atoms in self.queries._raw.values():
            msgs.update(atoms.stored if isinstance(atoms, _TemplateRef)
                        else (m for atom in atoms for (m, _) in atom))
        return tuple(sorted(msgs))


@dataclass(frozen=True)
class PlanConfig:
    """Which construction to run, with its parameters.

    kind is one of "et" (t-sum on edge-transitive storage), "bipartite",
    "union" (each component runs the plan `capacity.best_scheme` picks;
    the plans it builds have their component's kind), or "fixture".
    """

    kind: str
    t_i: int | None = None
    t_j: int | None = None
    fixture: str | None = None


def et_config(t_i: int, t_j: int | None = None) -> PlanConfig:
    return PlanConfig(kind="et", t_i=t_i, t_j=t_i if t_j is None else t_j)


def bipartite_config() -> PlanConfig:
    return PlanConfig(kind="bipartite")


def union_config() -> PlanConfig:
    return PlanConfig(kind="union")


def fixture_config(name: str) -> PlanConfig:
    return PlanConfig(kind="fixture", fixture=name)


# --- role assignment -------------------------------------------------------

def default_role_rule(g: Graph, k: int, t_i: int, t_j: int) -> tuple[int, int]:
    """Assign endpoint roles for the desired edge k.

    Unequal endpoint degrees: the smaller-degree endpoint takes the first
    role, so on degree-biregular storage every server always plays the same
    role.  Equal degrees: the lower-numbered endpoint takes the first role,
    which is only safe when t_i == t_j (otherwise a server would face
    different subset sizes for different desired messages, and its queries
    would give the game away); in that case the rule refuses.
    """
    u, v = g.endpoints(k)
    du, dv = g.degree(u), g.degree(v)
    if du == dv:
        if t_i != t_j:
            raise RoleConflict(
                f"equal endpoint degrees ({du}) need t_i == t_j, "
                f"got {t_i} != {t_j}")
        return (u, v) if u < v else (v, u)
    return (u, v) if du < dv else (v, u)


# --- plan constructions ----------------------------------------------------

def _plan(g: Graph, kind: str, theta: int, length: int, queries: dict,
          meta: dict, read, recipe: tuple[DecodeStep, ...]) -> SchemePlan:
    """Every builder returns here: one length for theta and for each of
    the messages `read` its queries read, the recipe the builder states,
    and in `meta` its choices only; the degrees at its roles are `g`'s."""
    lengths = dict.fromkeys((theta, *sorted(read)), length)
    return SchemePlan(g, kind, theta, lengths, queries, recipe, meta)


class _SubsetTemplate(NamedTuple):
    """The t-subsets of ranks 0..d-1, laid out once per (d, t).

    `subsets[s]` holds subset s's (rank, count) pairs, in lexicographic
    subset order: count k says the subset is the k-th to hold that rank,
    k from 1 to c = C(d-1, t-1).  `holding[r]` lists the subsets holding
    rank r, in subset order, so the k-th of them yields r's k-th
    position.  A template is a fixed table: nothing is added to it later.
    """

    c: int
    subsets: tuple[tuple[tuple[int, int], ...], ...]
    holding: tuple[tuple[int, ...], ...]


def _subset_template(d: int, t: int) -> _SubsetTemplate:
    """Run the occurrence counts over the t-subsets of d ranks once."""
    seen = [0] * d
    holding = [[] for _ in range(d)]
    subsets = []
    for s, subset in enumerate(itertools.combinations(range(d), t)):
        for r in subset:
            seen[r] += 1
            holding[r].append(s)
        subsets.append(tuple([(r, seen[r]) for r in subset]))
    return _SubsetTemplate(comb(d - 1, t - 1), tuple(subsets),
                           tuple(map(tuple, holding)))


def build_et_plan(g: Graph, theta: int, t_i: int,
                  t_j: int | None = None) -> SchemePlan:
    """t-sum plan for message theta.

    Both endpoint servers answer one sum per t-subset of their storage; the
    second endpoint shifts the desired message's positions past the first
    endpoint's block.  Interference singletons go to the opposite replica
    of each entangled message, laid out with the recipe step that cancels
    them.  The subsets come from one
    `_subset_template` per (degree, t), kept on the graph.
    """
    if t_j is None:
        t_j = t_i
    i, j = default_role_rule(g, theta, t_i, t_j)
    d_i, d_j = g.degree(i), g.degree(j)
    length = subpacketization(d_i, d_j, t_i, t_j)
    offset = comb(d_i - 1, t_i - 1)

    queries: dict[int, tuple[Atom, ...]] = {}
    singletons: dict[int, list[Atom]] = {}
    recipe: list[DecodeStep] = []
    # new(DecodeStep, (source, cancel)) skips the named tuple's __new__
    edges, new = g.edges, tuple.__new__
    for endpoint, t, shift in ((i, t_i, 0), (j, t_j, offset)):
        stored = g.index_set(endpoint)
        d = len(stored)
        tpl = g.cached(("subset_template", d, t),
                       lambda _: _subset_template(d, t))
        rank = stored.index(theta)
        # theta's counts start at the shift: its positions here follow the
        # block the first endpoint already covers.
        queries[endpoint] = _TemplateRef(tpl, stored, rank, shift)
        # The k-th subset holding theta yields its position shift + k.
        # Each other member msg is cancelled by a singleton at its count
        # in that subset, fetched from msg's other replica: a neighbour
        # of this endpoint that receives only msg's singletons from it,
        # the end of edge msg that is not this endpoint.
        opposite = [sum(edges[msg - 1]) - endpoint for msg in stored]
        for s in tpl.holding[rank]:
            cancel = []
            for other_rank, pos in tpl.subsets[s]:
                if other_rank != rank:
                    server = opposite[other_rank]
                    atoms = singletons.get(server)
                    if atoms is None:
                        atoms = singletons[server] = []
                    cancel.append((server, len(atoms)))
                    atoms.append(((stored[other_rank], pos),))
            recipe.append(new(DecodeStep, ((endpoint, s), tuple(cancel))))
    for server, atoms in singletons.items():
        queries[server] = tuple(atoms)

    meta = {"t_i": t_i, "t_j": t_j, "role_i": i, "role_j": j}
    read = set(g.index_set(i)).union(g.index_set(j))
    return _plan(g, "et", theta, length, queries, meta, read, tuple(recipe))


def build_bipartite_plan(g: Graph, theta: int) -> SchemePlan:
    """Cover plan for two-colorable storage, on one-symbol messages.

    The part with the smaller sum of squared degrees (ties: part 1) is the
    covering part; the desired edge's endpoint there sends all its symbols.
    """
    ends = g.endpoints(theta)
    return _cover_plan(g, theta, ends, cover_part(g)[0])


def _cover_plan(g: Graph, theta: int, ends: tuple[int, int],
                covering: frozenset[int]) -> SchemePlan:
    """The desired edge's endpoint in `covering` sends its entire storage;
    the plan records that cover vertex, whose degree is the graph's."""
    # A proper two-coloring puts exactly one endpoint in the covering part.
    u, v = ends
    server = u if u in covering else v

    stored = g.index_set(server)
    queries = {server: tuple(((msg, 1),) for msg in stored)}
    meta = {"cover_vertex": server}
    recipe = (DecodeStep((server, stored.index(theta)), ()),)
    return _plan(g, "bipartite", theta, 1, queries, meta, stored, recipe)


def build_union_plan(g: Graph, theta: int) -> SchemePlan:
    """The t-sum or cover plan of theta's component, built on the whole graph.

    Every component runs the scheme `capacity.component_schemes` lists for
    it; only theta's component builds a plan.
    """
    ends = g.endpoints(theta)
    ts, cover = g.cached("component_rows", _component_rows)[theta]
    return (_cover_plan(g, theta, ends, cover) if ts is None
            else build_et_plan(g, theta, *ts))


def _component_rows(g: Graph) -> dict[int, tuple]:
    """Message -> its component's (subset sizes, covering servers).

    A t-sum component has no covering servers; a cover component has no
    subset sizes, and its covering servers are in global ids.
    """
    rows = {}
    for comp, _, ts in component_schemes(g):
        cover = None if ts else frozenset(
            comp.vertices[v - 1] for v in cover_part(comp.graph)[0])
        rows.update(dict.fromkeys(comp.edge_indices, (ts, cover)))
    return rows


def default_component_config(cg: Graph) -> PlanConfig:
    """The config of the scheme `capacity.best_scheme` picks for a component."""
    _, ts = best_scheme(cg)
    return bipartite_config() if ts is None else et_config(*ts)


def build_plan(g: Graph, config: PlanConfig, theta: int) -> SchemePlan:
    """The plan for theta under config; a fixture plan rebuilds its frozen
    reference table, which must be defined on g."""
    if config.kind == "et":
        return build_et_plan(g, theta, config.t_i, config.t_j)
    if config.kind == "bipartite":
        return build_bipartite_plan(g, theta)
    if config.kind == "union":
        return build_union_plan(g, theta)
    if config.kind == "fixture":
        name = config.fixture
        graph, table, length = fixture(name)
        if g != graph:
            raise InvalidFamilyParams(
                f"fixture {name!r} is defined on {graph}, not {g}")
        graph.endpoints(theta)      # refuses a theta outside 1..K
        queries = dict(table[theta])
        read = {m for atoms in queries.values() for atom in atoms
                for m, _ in atom}
        return _plan(graph, "fixture", theta, length, queries,
                     {"fixture": name}, read,
                     derive_recipe(queries, theta, length))
    raise InvalidFamilyParams(f"unknown plan kind {config.kind!r}")


def build_plan_family(g: Graph, config: PlanConfig) -> dict[int, SchemePlan]:
    """One plan per desired message; union plans share one component table."""
    return {theta: build_plan(g, config, theta) for theta in g.messages}


# --- decoding --------------------------------------------------------------

def derive_recipe(queries: dict[int, tuple[Atom, ...]], theta: int,
                  length: int) -> tuple[DecodeStep, ...]:
    """Read the decoding recipe off the query layout.

    Every atom containing the desired message yields one of its logical
    symbols once the remaining references are cancelled against matching
    singleton atoms.  Raises UndecodablePlan if cancellation material is
    missing or the recovered positions do not cover 1..length exactly.
    """
    singleton_at: dict[Ref, tuple[int, int]] = {}
    for server, atoms in queries.items():
        for idx, atom in enumerate(atoms):
            if len(atom) == 1 and atom[0][0] != theta:
                singleton_at.setdefault(atom[0], (server, idx))

    steps: dict[int, DecodeStep] = {}
    for server in sorted(queries):
        for idx, atom in enumerate(queries[server]):
            desired = [(m, p) for (m, p) in atom if m == theta]
            if not desired:
                continue
            if len(desired) > 1:
                raise UndecodablePlan(
                    f"atom {atom} references the desired message twice")
            pos = desired[0][1]
            cancel = []
            for ref in atom:
                if ref[0] == theta:
                    continue
                if ref not in singleton_at:
                    raise UndecodablePlan(
                        f"no singleton available to cancel {ref}")
                cancel.append(singleton_at[ref])
            if pos in steps:
                raise UndecodablePlan(f"position {pos} recovered twice")
            steps[pos] = DecodeStep((server, idx), tuple(cancel))

    if set(steps) != set(range(1, length + 1)):
        missing = sorted(set(range(1, length + 1)) - set(steps))
        raise UndecodablePlan(f"positions {missing} never recovered")
    return tuple(steps[m] for m in range(1, length + 1))


@functools.cache
def _byte_tables(q: int) -> tuple[bytes, bytes]:
    """For q <= 256: the table reducing a byte mod q, and the bytes to
    reject, those at or above 256 - 256 % q (the largest multiple of q
    that is at most 256)."""
    return (bytes(b % q for b in range(256)),
            bytes(range(256 - 256 % q, 256)))


def _draw_symbols(rng: random.Random, n: int, q: int) -> list[int]:
    """n independent uniform symbols mod q, drawn from `rng`.

    For q up to 256 the symbols are random bytes reduced mod q, drawn in
    bulk; the bytes `_byte_tables` rejects are skipped and drawn again,
    so every residue stays exactly uniform.  Larger fields draw each
    symbol as `randrange(q)` does: q.bit_length() bits, drawn again
    while at least q, so the same `getrandbits` calls come in the same
    order without a `randrange` call per symbol.
    """
    if q > 256:
        getrandbits, k = rng.getrandbits, q.bit_length()
        out = []
        for _ in range(n):
            x = getrandbits(k)
            while x >= q:
                x = getrandbits(k)
            out.append(x)
        return out
    table, reject = _byte_tables(q)
    out = rng.randbytes(n).translate(table, reject)
    while len(out) < n:
        out += rng.randbytes(n - len(out)).translate(table, reject)
    return list(out)


@functools.lru_cache(maxsize=16)
def _shuffle_steps(n: int) -> tuple[tuple[int, int], ...]:
    """The (i, k) pairs `random.shuffle` walks for n items: i from n-1
    down to 1, each with k = (i+1).bit_length() bits to draw."""
    return tuple((i, (i + 1).bit_length()) for i in range(n - 1, 0, -1))


def _execute(plan: SchemePlan, rng: random.Random, q: int):
    """Run one plan against honest servers holding random storage.

    Draws the user's permutations (logical -> physical), then storage,
    each of the plan's one length, for each message the plan names,
    ascending: for a built plan the desired one and those it reads, so a
    run costs its plan, not its graph.  Each permutation of 1..L is drawn
    exactly as `random.shuffle` would draw it: for each of
    `_shuffle_steps(L)`, k bits drawn again while they exceed i, so
    seeded runs replay what `shuffle` gave.  The recipe then reads only
    the answers it names, each answered inline: the stored symbols its
    atom names are summed, and each step is reduced mod q once.  A
    templated endpoint's atom is read straight off its subset in the
    template, the ranks renamed to stored messages and the desired
    message's counts shifted, with no atom laid out.  What every server
    saw is left to `_transcribe`.  Returns (permutations, storage,
    decoded in stored symbol order).
    """
    length, raw = plan.length, plan.queries._raw
    getrandbits, steps = rng.getrandbits, _shuffle_steps(length)
    perms = {}
    for m in sorted(plan.lengths):
        perm = perms[m] = list(range(1, length + 1))
        for i, k in steps:
            r = getrandbits(k)
            while r > i:
                r = getrandbits(k)
            perm[i], perm[r] = perm[r], perm[i]
    storage = {m: _draw_symbols(rng, length, q) for m in perms}

    def read(server: int, idx: int) -> int:
        atoms, total = raw.get(server, ()), 0
        if isinstance(atoms, _TemplateRef):
            subsets = atoms.tpl.subsets
            if 0 <= idx < len(subsets):
                stored, rank, shift = atoms.stored, atoms.rank, atoms.shift
                for r, k in subsets[idx]:
                    m = stored[r]
                    total += storage[m][
                        perms[m][k + shift - 1 if r == rank else k - 1] - 1]
                return total
        elif 0 <= idx < len(atoms):
            for m, p in atoms[idx]:
                total += storage[m][perms[m][p - 1] - 1]
            return total
        raise IncompleteAnswers(
            f"recipe needs answer {idx} from server {server}, "
            f"which sent {len(atoms)}")

    if len(plan.recipe) != length:
        raise UndecodablePlan(
            f"recipe has {len(plan.recipe)} steps, not {length}")
    decoded = [0] * length
    # step k recovers logical position k, stored at physical perm[k - 1]
    for x, (source, cancel) in zip(perms[plan.theta], plan.recipe):
        value = read(*source)
        for ref in cancel:
            value -= read(*ref)
        decoded[x - 1] = value % q
    return perms, storage, decoded


def _transcribe(plan: SchemePlan, perms: dict[int, list[int]],
                storage: dict[int, list[int]], q: int
                ) -> dict[int, tuple[tuple[Atom, ...], tuple[int, ...]]]:
    """What each server saw in a run of `_execute`: server -> (physical
    atoms in query order, answers), servers ascending.  Each answer is
    the sum of the stored symbols its physical atom names, mod q."""
    views = {}
    for s in sorted(plan.queries):
        sent, answers = [], []
        for atom in plan.queries[s]:
            physical = tuple([(m, perms[m][p - 1]) for m, p in atom])
            sent.append(physical)
            answers.append(sum([storage[m][x - 1] for m, x in physical]) % q)
        views[s] = (tuple(sent), tuple(answers))
    return views
