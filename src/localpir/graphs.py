"""Storage topologies: simple graphs whose edges are messages.

Vertices are storage servers, numbered 1..n.  Edge k (1-based position in
the edge tuple) is message k, replicated at exactly its two endpoint
servers.  The index set I_v lists the messages server v stores, so
|I_v| = deg(v) and sum(deg) = 2K.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable
from dataclasses import dataclass, field

from .errors import (
    DuplicateEdge,
    EmptyInput,
    IndexOutOfRange,
    InvalidFamilyParams,
    SelfLoop,
    VertexOutOfRange,
)


@dataclass(frozen=True)
class Graph:
    n_vertices: int
    edges: tuple[tuple[int, int], ...]  # each (u, v) with u < v, 1-based
    # incidence[v-1] = I_v, the messages server v stores, ascending.
    incidence: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False)
    # Whole-graph structure (components, two-colouring, t-sum subset
    # templates, ...), filled in by `cached` on first use; every stored
    # value is immutable.
    _memo: dict = field(init=False, repr=False, compare=False,
                        default_factory=dict)

    def __post_init__(self):
        sets: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for k, (u, v) in enumerate(self.edges, start=1):
            sets[u - 1].append(k)
            sets[v - 1].append(k)
        object.__setattr__(self, "incidence", tuple(map(tuple, sets)))

    @property
    def K(self) -> int:
        """Number of messages (= edges)."""
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(1, self.n_vertices + 1)

    @property
    def messages(self) -> range:
        return range(1, self.K + 1)

    def endpoints(self, k: int) -> tuple[int, int]:
        if not 1 <= k <= self.K:
            raise IndexOutOfRange(f"message {k} outside 1..{self.K}")
        return self.edges[k - 1]

    def degree(self, v: int) -> int:
        return len(self.index_set(v))

    def index_set(self, v: int) -> tuple[int, ...]:
        """Messages stored at server v, ascending."""
        if not 1 <= v <= self.n_vertices:
            raise IndexOutOfRange(f"server {v} outside 1..{self.n_vertices}")
        return self.incidence[v - 1]

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.incidence))

    def cached(self, key: Hashable, compute):
        """compute(self), computed on the first request for key only."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute(self)
            return value


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def build_graph(n: int, edges) -> Graph:
    """Validate and normalize an edge list into a Graph.

    n and every endpoint must be ints (bools, floats and strings are
    rejected, not coerced); edges is a list of pairs.  Edges may be given in
    either endpoint order; they are stored as (min, max).  Message
    numbering follows the given edge order.  Isolated vertices are legal, a
    graph without edges is not.
    """
    if not _is_int(n):
        raise InvalidFamilyParams(f"vertex count must be an int, got {n!r}")
    if n < 1:
        raise InvalidFamilyParams(f"need at least one vertex, got {n}")
    if not isinstance(edges, (list, tuple)):
        raise InvalidFamilyParams(
            f"edges must be a list, got {type(edges).__name__}")
    seen = set()
    normalized = []
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2
                and all(map(_is_int, e))):
            raise InvalidFamilyParams(f"edge {e!r} is not a pair of ints")
        u, v = e
        if u == v:
            raise SelfLoop(f"edge ({u},{v}) is a self-loop")
        if not (1 <= u <= n and 1 <= v <= n):
            raise VertexOutOfRange(f"edge ({u},{v}) outside 1..{n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdge(f"edge {key} listed twice")
        seen.add(key)
        normalized.append(key)
    if not normalized:
        raise EmptyInput("graph has no edges")
    return Graph(n, tuple(normalized))


# Each family a server count n names, with its least n; complete_bipartite
# names the balanced K(n/2, n/2), so its n is also even.
FAMILIES = {"cycle": 3, "path": 2, "star": 2, "complete": 2,
            "complete_bipartite": 2}


def check_size(name: str, n: int | None) -> None:
    """Refuse an n that names no member of `name`, a key of `FAMILIES`."""
    even = name == "complete_bipartite"
    if n is None or n < FAMILIES[name] or (even and n % 2):
        raise InvalidFamilyParams(
            f"{name} needs {'even ' if even else ''}n >= {FAMILIES[name]}, "
            f"got {n}")


def family(name: str, n: int | None = None, *, a: int | None = None,
           b: int | None = None, base: Graph | None = None,
           copies: int | None = None) -> Graph:
    """Construct a named family member with its conventional labeling.

    cycle(n>=3)   edges (1,2),...,(n-1,n),(n,1): server v stores messages
                  v-1 and v (mod n).
    path(n>=2)    edges (v, v+1): interior servers store two consecutive
                  messages, the two endpoint servers store one.
    star(n>=2)    server n is the center and stores everything; leaf v
                  stores only message v.
    complete(n>=2)         all pairs in lexicographic order.
    complete_bipartite(a,b) parts {1..a} and {a+1..a+b}, edges lexicographic;
                  an even n >= 2 given alone builds a = b = n/2.
    disjoint_copies(base, copies) vertex- and message-disjoint copies of a
                  base graph, relabeled block by block.
    """
    if name in FAMILIES and (n is not None or name != "complete_bipartite"):
        check_size(name, n)
    if name == "cycle":
        edges = [(v, v + 1) for v in range(1, n)] + [(n, 1)]
        return build_graph(n, edges)
    if name == "path":
        return build_graph(n, [(v, v + 1) for v in range(1, n)])
    if name == "star":
        return build_graph(n, [(v, n) for v in range(1, n)])
    if name == "complete":
        return build_graph(n, list(itertools.combinations(range(1, n + 1), 2)))
    if name == "complete_bipartite":
        if n is not None:
            a = b = n // 2
        if a is None or b is None or min(a, b) < 1:
            raise InvalidFamilyParams(
                f"complete_bipartite needs a,b >= 1, got a={a}, b={b}")
        edges = [(u, a + w) for u in range(1, a + 1) for w in range(1, b + 1)]
        return build_graph(a + b, edges)
    if name == "disjoint_copies":
        if base is None or copies is None or copies < 1:
            raise InvalidFamilyParams(
                "disjoint_copies needs a base graph and copies >= 1")
        edges = []
        for c in range(copies):
            off = c * base.n_vertices
            edges.extend((u + off, v + off) for (u, v) in base.edges)
        return build_graph(base.n_vertices * copies, edges)
    raise InvalidFamilyParams(f"unknown family {name!r}")


# --- decomposition --------------------------------------------------------

@dataclass(frozen=True)
class Component:
    """A connected component with back-maps to the parent graph.

    vertices[i-1] and edge_indices[j-1] give the global ids of local
    vertex i and local message j.  An isolated vertex is a component
    without messages.
    """

    graph: Graph
    vertices: tuple[int, ...]
    edge_indices: tuple[int, ...]


def _neighbours(g: Graph, u: int):
    for k in g.incidence[u - 1]:
        a, b = g.edges[k - 1]
        yield b if a == u else a


def components(g: Graph) -> tuple[Component, ...]:
    """Connected components ordered by their smallest vertex.

    Computed once per graph.  A connected graph's one component is the
    graph itself, and each component's graph is known to be connected.
    """
    return g.cached("components", _components)


def _components(g: Graph) -> tuple[Component, ...]:
    seen: set[int] = set()
    result = []
    for start in g.vertices:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        verts = []
        while stack:
            u = stack.pop()
            verts.append(u)
            for w in _neighbours(g, u):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        vlist = tuple(sorted(verts))
        if len(vlist) == g.n_vertices:
            return (Component(g, vlist, tuple(g.messages)),)
        vpos = {v: i for i, v in enumerate(vlist, start=1)}
        elist = tuple(sorted({k for v in vlist for k in g.incidence[v - 1]}))
        # vpos is increasing, so local edges keep u < v and need no checks.
        local_edges = tuple((vpos[g.edges[k - 1][0]], vpos[g.edges[k - 1][1]])
                            for k in elist)
        cg = Graph(len(vlist), local_edges)
        cg._memo["components"] = (
            Component(cg, tuple(cg.vertices), tuple(cg.messages)),)
        result.append(Component(cg, vlist, elist))
    return tuple(result)


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two-color the graph, or return None if impossible.

    Deterministic: the smallest vertex of each component lands in part 1.
    Computed once per graph.
    """
    return g.cached("bipartition", _bipartition)


def _bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    color: dict[int, int] = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in _neighbours(g, u):
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    part1 = tuple(v for v in g.vertices if color[v] == 0)
    part2 = tuple(v for v in g.vertices if color[v] == 1)
    return part1, part2


# --- serialization --------------------------------------------------------

def graph_to_json(g: Graph) -> dict:
    return {"n": g.n_vertices, "edges": [[u, v] for (u, v) in g.edges]}


def graph_from_json(obj: dict) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise InvalidFamilyParams(
            "malformed graph object: need an object with keys 'n' and 'edges'")
    return build_graph(obj["n"], obj["edges"])


def detect_family(g: Graph) -> tuple[str, dict] | None:
    """Recognize a connected graph as a named family member, if possible.

    Detection is by isomorphism class (degree profile plus structure), so a
    relabeled member is still recognized.  Returns (name, params) or None;
    a graph without edges (a lone server) is no family member.
    """
    if not g.K or len(components(g)) != 1:
        return None
    n = g.n_vertices
    degs = sorted(g.degrees())
    if n >= 3 and degs == [2] * n:
        return "cycle", {"n": n}
    if n >= 2 and degs == [1] * (n - 1) + [n - 1]:
        return "star", {"n": n}
    if n >= 2 and degs == [1, 1] + [2] * (n - 2):
        return "path", {"n": n}
    if n >= 2 and degs == [n - 1] * n:
        return "complete", {"n": n}
    parts = bipartition(g)
    if parts is not None:
        a, b = len(parts[0]), len(parts[1])
        if g.K == a * b:
            return "complete_bipartite", {"a": a, "b": b}
    return None
