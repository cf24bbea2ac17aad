"""Storage graphs: construction, labelings, components, validation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localpir import graphs
from localpir.capacity import best_scheme, et_lower_bound, graph_bounds
from localpir.errors import (
    DuplicateEdge,
    EmptyInput,
    IndexOutOfRange,
    InvalidFamilyParams,
    SelfLoop,
    VertexOutOfRange,
)
from localpir.graphs import (
    bipartition,
    build_graph,
    components,
    detect_family,
    family,
    graph_from_json,
    graph_to_json,
)
from localpir.scheme import bipartite_config, build_plan_family, union_config
from localpir.sim import measure_rate


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 7))
    pool = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pool), min_size=1,
                          max_size=len(pool), unique=True))
    return build_graph(n, edges)


def test_build_normalizes_endpoint_order():
    g = build_graph(3, [(2, 1), (3, 2)])
    assert g.edges == ((1, 2), (2, 3))


def test_build_rejects_bad_edges():
    with pytest.raises(SelfLoop):
        build_graph(3, [(1, 1)])
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(1, 2), (2, 1)])
    with pytest.raises(VertexOutOfRange):
        build_graph(3, [(1, 4)])
    with pytest.raises(VertexOutOfRange):
        build_graph(3, [(0, 2)])
    with pytest.raises(InvalidFamilyParams):
        build_graph(0, [])
    with pytest.raises(EmptyInput):
        build_graph(3, [])


def test_endpoints_range_checked():
    g = family("cycle", 4)
    with pytest.raises(IndexOutOfRange):
        g.endpoints(0)
    with pytest.raises(IndexOutOfRange):
        g.endpoints(5)


def test_cycle_labeling():
    g = family("cycle", 4)
    assert g.edges == ((1, 2), (2, 3), (3, 4), (1, 4))
    # server v stores messages v-1 and v (mod n)
    assert g.index_set(1) == (1, 4)
    assert g.index_set(2) == (1, 2)
    assert g.index_set(3) == (2, 3)
    assert g.index_set(4) == (3, 4)


def test_star_center_is_last_vertex():
    g = family("star", 5)
    assert g.degree(5) == 4
    assert g.index_set(5) == (1, 2, 3, 4)
    for leaf in range(1, 5):
        assert g.index_set(leaf) == (leaf,)


def test_complete_lexicographic_edges():
    g = family("complete", 4)
    assert g.edges == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def test_complete_bipartite_labeling():
    g = family("complete_bipartite", a=2, b=3)
    assert g.n_vertices == 5
    assert g.edges == ((1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))
    assert family("complete_bipartite", 6) == family("complete_bipartite",
                                                      a=3, b=3)


def test_disjoint_copies_relabels_blocks():
    base = family("cycle", 3)
    g = family("disjoint_copies", base=base, copies=2)
    assert g.n_vertices == 6
    assert g.K == 6
    assert g.edges[3:] == ((4, 5), (5, 6), (4, 6))


@pytest.mark.parametrize("kwargs", [
    {"name": "cycle", "n": 2},
    {"name": "path", "n": 1},
    {"name": "star", "n": 1},
    {"name": "complete", "n": 1},
    {"name": "complete_bipartite", "a": 0, "b": 2},
    {"name": "disjoint_copies", "copies": 2},
    {"name": "moebius", "n": 5},
])
def test_family_rejects_bad_params(kwargs):
    name = kwargs.pop("name")
    with pytest.raises(InvalidFamilyParams):
        family(name, **kwargs)


@given(small_graphs())
def test_degree_sum_is_twice_message_count(g):
    assert sum(g.degrees()) == 2 * g.K


@given(small_graphs())
def test_each_message_replicated_at_exactly_its_endpoints(g):
    for k in g.messages:
        holders = [v for v in g.vertices if k in g.index_set(v)]
        assert tuple(holders) == g.endpoints(k)


def union_find_components(n, edges):
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in edges:
        parent[find(u)] = find(v)
    groups = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


@given(small_graphs())
def test_components_match_union_find(g):
    expected = union_find_components(g.n_vertices, g.edges)
    got = [list(c.vertices) for c in components(g)]
    assert got == expected


@given(small_graphs())
def test_component_edges_and_back_maps(g):
    for comp in components(g):
        inside = set(comp.vertices)
        expected = [k for k in g.messages
                    if set(g.endpoints(k)) <= inside]
        assert list(comp.edge_indices) == expected
        assert comp.graph.n_vertices == len(comp.vertices)
        for local_v, global_v in enumerate(comp.vertices, start=1):
            assert comp.graph.degree(local_v) == g.degree(global_v)
        for local_k, global_k in enumerate(comp.edge_indices, start=1):
            u, v = g.endpoints(global_k)
            lu, lv = comp.graph.endpoints(local_k)
            assert {comp.vertices[lu - 1], comp.vertices[lv - 1]} == {u, v}


@given(small_graphs())
def test_bipartition_is_a_proper_two_coloring(g):
    parts = bipartition(g)
    if parts is None:
        return
    p1, p2 = set(parts[0]), set(parts[1])
    assert p1 | p2 == set(g.vertices)
    assert not (p1 & p2)
    for (u, v) in g.edges:
        assert (u in p1) != (v in p1)


def test_bipartition_known_cases():
    assert bipartition(family("cycle", 4)) == ((1, 3), (2, 4))
    assert bipartition(family("cycle", 5)) is None
    assert bipartition(family("path", 5)) == ((1, 3, 5), (2, 4))
    star = bipartition(family("star", 5))
    assert star == ((1, 2, 3, 4), (5,))


# --- whole-graph structure is computed once per graph -------------------------

def whole_graph_walks(monkeypatch, walker: str, g) -> list:
    """Record each run of a graphs walker (`_components`, ...) on g itself."""
    calls = []
    original = getattr(graphs, walker)

    def counted(h):
        if h is g:
            calls.append(h)
        return original(h)

    monkeypatch.setattr(graphs, walker, counted)
    return calls


def test_measure_rate_decomposes_a_union_once(monkeypatch):
    g = family("disjoint_copies", base=family("cycle", 4), copies=20)
    walks = whole_graph_walks(monkeypatch, "_components", g)
    assert measure_rate(g, union_config()).decoded_ok
    assert len(walks) == 1


def test_graph_bounds_decomposes_once(monkeypatch):
    g = family("complete", 12)
    walks = whole_graph_walks(monkeypatch, "_components", g)
    assert graph_bounds(g).family == "complete"
    assert len(walks) == 1


def test_cover_plan_family_two_colours_once(monkeypatch):
    g = family("path", 400)
    walks = whole_graph_walks(monkeypatch, "_bipartition", g)
    assert len(build_plan_family(g, bipartite_config())) == g.K
    assert len(walks) == 1


def brute_edge_transitive(g):
    """Independent oracle: the first edge's automorphism orbit is everything."""
    edges = {frozenset(e) for e in g.edges}
    u0, v0 = g.edges[0]
    orbit = set()
    for perm in itertools.permutations(range(1, g.n_vertices + 1)):
        mapping = dict(zip(range(1, g.n_vertices + 1), perm))
        image = {frozenset((mapping[u], mapping[v])) for (u, v) in g.edges}
        if image == edges:
            orbit.add(frozenset((mapping[u0], mapping[v0])))
    return orbit == edges


@pytest.mark.parametrize("g,expected", [
    (family("cycle", 4), True),
    (family("cycle", 5), True),
    (family("complete", 4), True),
    (family("star", 5), True),
    (family("complete_bipartite", a=2, b=3), True),
    (family("path", 4), False),
    (family("path", 5), False),
    (build_graph(4, [(1, 2), (1, 3), (2, 3), (1, 4)]), False),
])
def test_edge_transitivity(g, expected):
    """Edge-transitive storage gets the tuned t-sum plan or a better one.

    Every edge of such a graph joins the same degree pair, which is the
    condition under which best_scheme tunes the t-sum subset sizes.
    """
    assert brute_edge_transitive(g) == expected
    if expected:
        (pair,) = {tuple(sorted(map(g.degree, e))) for e in g.edges}
        tuned, t_i, t_j = et_lower_bound(*pair)
        rate, ts = best_scheme(g)
        assert ts in ((t_i, t_j), None) and rate >= tuned


@given(small_graphs())
def test_json_round_trip(g):
    assert graph_from_json(graph_to_json(g)) == g


def test_graph_from_json_validates():
    with pytest.raises(InvalidFamilyParams):
        graph_from_json({"edges": [[1, 2]]})
    with pytest.raises(InvalidFamilyParams):
        graph_from_json({"n": "x", "edges": []})


@pytest.mark.parametrize("g,expected", [
    (family("cycle", 4), ("cycle", {"n": 4})),
    (family("cycle", 3), ("cycle", {"n": 3})),
    (family("star", 6), ("star", {"n": 6})),
    (family("star", 2), ("star", {"n": 2})),
    (family("path", 4), ("path", {"n": 4})),
    (family("complete", 5), ("complete", {"n": 5})),
    (family("complete_bipartite", a=3, b=3),
     ("complete_bipartite", {"a": 3, "b": 3})),
    (build_graph(4, [(1, 2), (1, 3), (1, 4)]), ("star", {"n": 4})),
    (build_graph(4, [(1, 2), (1, 3), (2, 3), (1, 4)]), None),
    (family("disjoint_copies", base=family("cycle", 4), copies=2), None),
])
def test_detect_family(g, expected):
    assert detect_family(g) == expected


def test_detect_family_rejects_edgeless_graph():
    lone = components(build_graph(3, [(1, 2)]))[1].graph
    assert lone.K == 0
    assert detect_family(lone) is None
