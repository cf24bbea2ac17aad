"""Retrieval plans: how a user queries edge-replicated servers.

A plan fixes, for one desired message, the logical query layout per server
(atoms = sums of symbol references), plus a decoding recipe.  Logical
position m of message k means the m-th symbol under the user's private
permutation of message k.  One executor, `_execute`, runs a plan: it draws
the permutations and storage, then runs the recipe, answering only the
atoms the recipe reads, each summed inline from storage.  `_transcribe`
rebuilds what every server saw from those draws: each atom translated to
physical positions (servers only ever see physical indices) and answered
from the server's stored messages through `_serve`, which serves
`_transcribe` alone.  Permutations are drawn from the run's rng exactly
as `random.shuffle` would draw them, so seeded transcripts replay
unchanged.  `sim.execute_plan` and `verify.decode_check(seeds=n)` call
`_execute`; only a `sim.Transcript` whose `per_server` is read calls
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
cancelled by the next of its singletons, which its opposite replica
sends in subset order.  So the builder states the recipe and
scans no atom for it.  Nor does it lay out the endpoints' atoms: each
endpoint's query is a reference (template, stored messages, the desired
message's rank, shift), expanded into tuples only when `queries` or
`atoms_at` is read.  Unshifted, a server's layout does not depend on the
desired message, so the template keeps one per server.  The executor,
the decode certificate and the download counts read single atoms and
sizes off the template, so a retrieval builds and reads only its
recipe's atoms.

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
    template in O(t), subset idx's (rank, count) pairs so renamed, and
    keeps it: the decode certificate and every seeded run read the same
    recipe atoms.  Only `expand` builds every atom."""

    __slots__ = ("tpl", "stored", "rank", "shift", "_read")

    def __init__(self, tpl: _SubsetTemplate, stored: tuple[int, ...],
                 rank: int, shift: int):
        self.tpl, self.stored, self.rank, self.shift = tpl, stored, rank, shift
        self._read = {}

    def __len__(self) -> int:
        return len(self.tpl.subsets)

    def __getitem__(self, idx: int) -> Atom:
        atom = self._read.get(idx)
        if atom is None:
            stored, rank, shift = self.stored, self.rank, self.shift
            atom = self._read[idx] = tuple([
                (stored[r], k + shift) if r == rank else (stored[r], k)
                for r, k in self.tpl.subsets[idx]])
        return atom

    def unshifted(self) -> tuple[Atom, ...]:
        """The server's layout with no shift, laid out once per template:
        the same for every message the server stores."""
        tpl, stored = self.tpl, self.stored
        layout = tpl.layouts.get(stored)
        if layout is None:
            layout = tpl.layouts[stored] = tuple([
                tuple([(stored[r], k) for r, k in sub]) for sub in tpl.subsets])
        return layout

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

    def fits(self, held: set[int], length: int) -> bool:
        """Whether every reference is to a message in `held` within
        1..length: the template's counts run 1..c, so it is enough that
        the shifted block ends within the length and that every stored
        message is held."""
        return (self.shift + self.tpl.c <= length
                and held.issuperset(self.stored))


class _Queries(Mapping):
    """server -> atoms, as `SchemePlan.queries` holds them.

    A t-sum endpoint's value is a `_TemplateRef` until its atoms are
    read as a whole: then they are expanded once and take its place.
    Every other value is the atoms themselves.
    """

    __slots__ = ("_raw",)

    def __init__(self, raw):
        self._raw = dict(raw)

    def __getitem__(self, server: int) -> tuple[Atom, ...]:
        atoms = self._raw[server]
        if isinstance(atoms, _TemplateRef):
            atoms = self._raw[server] = atoms.expand()
        return atoms

    def get(self, server: int, default=None):
        return self[server] if server in self._raw else default

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
    `queries` or `atoms_at` expands them into tuples once, while the
    executor and the counts read single atoms or sizes off the template.

    Checked when built, by `dataclasses.replace` too, that `lengths`
    gives every message the desired one's length and that the plan can
    be sent: a server outside the graph raises IndexOutOfRange, any other
    fault UnresolvableRef.  A templated endpoint is checked whole, in
    O(d); only if that fails are its atoms expanded and checked one by
    one, so the fault is named as for any other server.
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
        for s, atoms in queries._raw.items():
            stored = self.graph.index_set(s)
            held = lengths.keys() & stored
            if isinstance(atoms, _TemplateRef):
                if atoms.fits(held, length):
                    continue
                atoms = atoms.expand()
            for idx, atom in enumerate(atoms):
                for m, p in atom:
                    if m not in held or not 1 <= p <= length:
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
        time: a templated endpoint not yet expanded gives them off its
        template and stays unexpanded."""
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
    position.  `entangled[r]` lists, by ascending rank, each other rank
    sharing a subset with r and its counts in those subsets, in subset
    order: the positions of the singletons that cancel it.  `layouts`
    keeps, by a server's stored messages, its atoms with no shift: the
    same for every message it stores, so each server's is laid out once.
    """

    c: int
    subsets: tuple[tuple[tuple[int, int], ...], ...]
    holding: tuple[tuple[int, ...], ...]
    entangled: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    layouts: dict[tuple[int, ...], tuple[Atom, ...]]


def _subset_template(d: int, t: int) -> _SubsetTemplate:
    """Run the occurrence counts over the t-subsets of d ranks once."""
    seen = [0] * d
    holding = [[] for _ in range(d)]
    shared = [{} for _ in range(d)]
    subsets = []
    for s, subset in enumerate(itertools.combinations(range(d), t)):
        for r in subset:
            seen[r] += 1
            holding[r].append(s)
        subsets.append(tuple([(r, seen[r]) for r in subset]))
        for r in subset:
            for other in subset:
                if other != r:
                    shared[r].setdefault(other, []).append(seen[other])
    entangled = tuple(tuple((other, tuple(row[other])) for other in sorted(row))
                      for row in shared)
    return _SubsetTemplate(comb(d - 1, t - 1), tuple(subsets),
                           tuple(map(tuple, holding)), entangled, {})


def build_et_plan(g: Graph, theta: int, t_i: int,
                  t_j: int | None = None) -> SchemePlan:
    """t-sum plan for message theta.

    Both endpoint servers answer one sum per t-subset of their storage; the
    second endpoint shifts the desired message's positions past the first
    endpoint's block.  Interference singletons go to the opposite replica
    of each entangled message.  The subsets come from one
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
    for endpoint, t, shift in ((i, t_i, 0), (j, t_j, offset)):
        stored = g.index_set(endpoint)
        d = len(stored)
        tpl = g.cached(("subset_template", d, t),
                       lambda _: _subset_template(d, t))
        rank = stored.index(theta)
        # theta's counts start at the shift: its positions here follow the
        # block the first endpoint already covers.
        queries[endpoint] = _TemplateRef(tpl, stored, rank, shift)
        # Message msg is entangled with theta in every subset containing
        # both; the decoder cancels it with a singleton fetched at exactly
        # those running occurrence counts from msg's other replica.  `base`
        # notes where msg's next singleton is in that server's list.
        base = {}
        for other_rank, positions in tpl.entangled[rank]:
            msg = stored[other_rank]
            u, v = g.endpoints(msg)
            server = v if u == endpoint else u
            atoms = singletons.setdefault(server, [])
            base[other_rank] = (server, len(atoms))
            atoms.extend(((msg, pos),) for pos in positions)
        # The k-th subset holding theta yields its position shift + k; each
        # other member takes its next singleton.
        for s in tpl.holding[rank]:
            cancel = []
            for other_rank, _ in tpl.subsets[s]:
                if other_rank != rank:
                    server, at = base[other_rank]
                    cancel.append((server, at))
                    base[other_rank] = (server, at + 1)
            recipe.append(DecodeStep((endpoint, s), tuple(cancel)))
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
    so every residue stays exactly uniform.  Larger fields draw one
    `randrange` per symbol.
    """
    if q > 256:
        return [rng.randrange(q) for _ in range(n)]
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


def _draw_permutation(rng: random.Random, n: int) -> list[int]:
    """A uniform permutation of 1..n, drawn from `rng` exactly as
    `random.shuffle` would draw it.

    The same `getrandbits` calls in the same order: for each of
    `_shuffle_steps(n)` take k bits and draw again while the result
    exceeds i, so seeded runs replay what `shuffle` gave.
    """
    getrandbits = rng.getrandbits
    perm = list(range(1, n + 1))
    for i, k in _shuffle_steps(n):
        r = getrandbits(k)
        while r > i:
            r = getrandbits(k)
        perm[i], perm[r] = perm[r], perm[i]
    return perm


def _serve(atom: Atom, perms: dict[int, list[int]],
           storage: dict[int, list[int]], q: int) -> tuple[Atom, int]:
    """The physical atom a server receives for a logical one, and the
    server's answer: the sum of the stored symbols it names, mod q."""
    sent = []
    total = 0
    for m, p in atom:
        x = perms[m][p - 1]
        sent.append((m, x))
        total += storage[m][x - 1]
    return tuple(sent), total % q


def _execute(plan: SchemePlan, rng: random.Random, q: int):
    """Run one plan against honest servers holding random storage.

    Draws the user's permutations (logical -> physical), then storage,
    each of the plan's one length, for each message the plan names,
    ascending: for a built plan the desired one and those it reads, so a
    run costs its plan, not its graph.  The recipe then reads only the
    answers it names, each atom read on its own (off its template at a
    t-sum endpoint) and answered inline, the stored symbols it names
    summed and each step reduced mod q once; what every server saw is
    left to `_transcribe`.  Returns (permutations, storage, decoded in
    stored symbol order).
    """
    length, raw = plan.length, plan.queries._raw
    perms = {m: _draw_permutation(rng, length) for m in sorted(plan.lengths)}
    storage = {m: _draw_symbols(rng, length, q) for m in perms}

    def read(server: int, idx: int) -> int:
        atoms = raw.get(server, ())
        if not 0 <= idx < len(atoms):
            raise IncompleteAnswers(
                f"recipe needs answer {idx} from server {server}, "
                f"which sent {len(atoms)}")
        return sum([storage[m][perms[m][p - 1] - 1] for m, p in atoms[idx]])

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
    atoms in query order, answers), servers ascending."""
    views = {}
    for s in sorted(plan.queries):
        served = [_serve(atom, perms, storage, q) for atom in plan.queries[s]]
        views[s] = (tuple(a for a, _ in served), tuple(v for _, v in served))
    return views
