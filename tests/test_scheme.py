"""Plan construction: t-sum, cover, union, fixtures, decoding."""

import dataclasses
import itertools
import random
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import localpir.capacity
import localpir.scheme
from helpers import (
    corpus_plans,
    reference_et_queries,
    repeated,
    shuffled_permutations,
    templated_endpoints,
)
from localpir.capacity import et_download_cost, graph_bounds, subpacketization

from localpir.errors import (
    IndexOutOfRange,
    InvalidFamilyParams,
    LocalPIRError,
    NotBipartite,
    RoleConflict,
    TOutOfRange,
    UndecodablePlan,
    UnresolvableRef,
)
from localpir.fixtures import C4_TABLE, K4_TABLE
from localpir.graphs import build_graph, components, family
from localpir.scheme import (
    DecodeStep,
    PlanConfig,
    SchemePlan,
    bipartite_config,
    build_bipartite_plan,
    build_et_plan,
    build_plan,
    build_plan_family,
    build_union_plan,
    default_component_config,
    default_role_rule,
    derive_recipe,
    et_config,
    fixture_config,
    union_config,
)
from localpir.sim import execute_plan
from localpir.verify import check_scheme, cost_audit, decode_check


# --- combinatorial helpers ---------------------------------------------------

def test_occurrence_index_example():
    """Each interference singleton fetches the occurrence index of its
    message: how many of the first p subsets contain it, p being a subset
    shared with the desired message.  Singletons go out endpoint by
    endpoint, message by message, subset by subset."""
    for g, t in ((family("complete", 4), 2), (family("cycle", 5), 2),
                 (family("complete", 5), 3)):
        for theta in g.messages:
            plan = build_et_plan(g, theta, t)
            expected = {}
            for e in (plan.meta["role_i"], plan.meta["role_j"]):
                subsets = list(itertools.combinations(g.index_set(e), t))
                for msg in g.index_set(e):
                    if msg == theta:
                        continue
                    other = sum(g.endpoints(msg)) - e
                    for p, subset in enumerate(subsets, start=1):
                        if theta in subset and msg in subset:
                            index = sum(msg in s for s in subsets[:p])
                            expected.setdefault(other, []).append(
                                ((msg, index),))
            assert {s: list(a) for s, a in plan.queries.items()
                    if s not in g.endpoints(theta)} == expected


@pytest.mark.parametrize("args,expected", [
    ((2, 2, 2, 2), 4),
    ((3, 3, 2, 2), 10),
    ((5, 5, 1, 1), 10),
])
def test_et_download_cost_examples(args, expected):
    assert et_download_cost(*args) == expected


@pytest.mark.parametrize("d", range(1, 7))
def test_t1_cost_is_two_d(d):
    assert et_download_cost(d, d, 1, 1) == 2 * d
    assert subpacketization(d, d, 1, 1) == 2


def test_subpacketization_examples():
    assert subpacketization(2, 2, 2, 2) == 2
    assert subpacketization(3, 3, 2, 2) == 4
    with pytest.raises(TOutOfRange):
        subpacketization(2, 2, 3, 2)
    # The t-sum plan refuses a subset size outside 1..degree the same way.
    for t in (0, 3):
        with pytest.raises(TOutOfRange, match=f"t={t} outside 1..2"):
            build_et_plan(family("cycle", 4), 1, t)


# --- role assignment ---------------------------------------------------------

def test_role_rule_prefers_smaller_degree():
    g = family("star", 5)
    i, j = default_role_rule(g, 2, 1, 2)
    assert (g.degree(i), g.degree(j)) == (1, 4)


def test_role_rule_equal_degrees_needs_equal_t():
    g = family("cycle", 4)
    assert default_role_rule(g, 1, 2, 2) == (1, 2)
    with pytest.raises(RoleConflict):
        default_role_rule(g, 1, 1, 2)


def test_et_plan_rejects_bad_theta():
    with pytest.raises(IndexOutOfRange):
        build_et_plan(family("cycle", 4), 5, 2)


@pytest.mark.parametrize("build,g", [
    (lambda g, theta: build_et_plan(g, theta, 2), family("cycle", 4)),
    (build_bipartite_plan, family("path", 5)),
    (build_bipartite_plan, family("complete", 4)),   # not bipartite
    (build_union_plan, family("disjoint_copies", base=family("cycle", 4),
                              copies=3)),
    (lambda g, theta: build_plan(g, fixture_config("k4"), theta),
     family("complete", 4)),
], ids=["et", "bipartite", "bipartite-on-complete-4", "union", "fixture"])
def test_every_builder_refuses_a_message_outside_the_graph(build, g):
    for theta in (0, g.K + 1):
        with pytest.raises(IndexOutOfRange,
                           match=rf"^message {theta} outside 1\.\.{g.K}$"):
            build(g, theta)


# --- fixture equality --------------------------------------------------------

def as_multisets(queries):
    return {s: tuple(sorted(atoms)) for s, atoms in queries.items() if atoms}


def test_c4_plan_reproduces_reference_table():
    g = family("cycle", 4)
    for theta in g.messages:
        plan = build_et_plan(g, theta, 2)
        assert as_multisets(plan.queries) == as_multisets(C4_TABLE[theta])
        assert plan.length == 2
        assert plan.download_count() == 4


def test_k4_plan_reproduces_reference_table():
    g = family("complete", 4)
    for theta in g.messages:
        plan = build_et_plan(g, theta, 2)
        assert as_multisets(plan.queries) == as_multisets(K4_TABLE[theta])
        assert plan.length == 4
        assert plan.download_count() == 10


def test_fixture_plans_wrap_tables_verbatim():
    c4, k4 = family("cycle", 4), family("complete", 4)
    for theta in range(1, 5):
        plan = build_plan(c4, fixture_config("c4"), theta)
        assert plan.queries == C4_TABLE[theta]
    for theta in range(1, 7):
        plan = build_plan(k4, fixture_config("k4"), theta)
        assert plan.queries == K4_TABLE[theta]


def test_fixture_plan_validates_graph():
    with pytest.raises(InvalidFamilyParams):
        build_plan(family("cycle", 5), fixture_config("c4"), 1)
    with pytest.raises(InvalidFamilyParams):
        build_plan(family("cycle", 4), fixture_config("nope"), 1)


# --- structural invariants of generated t-sum plans --------------------------

ET_CASES = [(family("cycle", n), t) for n in (3, 4, 5, 6) for t in (1, 2)]
ET_CASES += [(family("complete", n), t) for n in (3, 4, 5)
             for t in range(1, n)]


@pytest.mark.parametrize("g,t", ET_CASES)
def test_et_atom_count_matches_closed_form(g, t):
    for theta in g.messages:
        plan = build_et_plan(g, theta, t)
        d_i, d_j = (g.degree(plan.meta[role]) for role in ("role_i", "role_j"))
        assert plan.download_count() == et_download_cost(d_i, d_j, t, t)
        assert plan.length == subpacketization(d_i, d_j, t, t)


@pytest.mark.parametrize("g,t", ET_CASES)
def test_et_offset_discipline(g, t):
    """The two endpoints jointly cover positions 1..L, split at the offset."""
    for theta in g.messages:
        plan = build_et_plan(g, theta, t)
        i, j = plan.meta["role_i"], plan.meta["role_j"]
        offset = comb(g.degree(i) - 1, t - 1)
        pos_i = [p for atom in plan.atoms_at(i) for (m, p) in atom
                 if m == theta]
        pos_j = [p for atom in plan.atoms_at(j) for (m, p) in atom
                 if m == theta]
        assert sorted(pos_i) == list(range(1, offset + 1))
        assert sorted(pos_j) == list(range(offset + 1, plan.length + 1))


@pytest.mark.parametrize("g,t", ET_CASES)
def test_et_atoms_are_distinct_and_refs_injective(g, t):
    for theta in g.messages:
        plan = build_et_plan(g, theta, t)
        for server, atoms in plan.queries.items():
            assert len(set(atoms)) == len(atoms)
            for atom in atoms:
                msgs = [m for (m, _) in atom]
                assert len(set(msgs)) == len(msgs)
                assert all(1 <= p <= plan.lengths[m] for (m, p) in atom)


LAYOUT_CASES = [pytest.param(family("complete", n), (t,), id=f"complete{n}-t{t}")
                for n in range(3, 10) for t in range(1, n)]
LAYOUT_CASES += [pytest.param(family("cycle", n), (t,), id=f"cycle{n}-t{t}")
                 for n in (5, 6, 7) for t in (1, 2)]
LAYOUT_CASES += [pytest.param(family("complete_bipartite", a=3, b=5), ts,
                              id=f"K35-t{ts[0]}{ts[1]}")
                 for ts in ((2, 1), (3, 1), (1, 5))]


@pytest.mark.parametrize("g,ts", LAYOUT_CASES)
def test_et_layout_matches_the_running_count_reference(g, ts):
    """Servers and atoms come in the reference's order, for every theta;
    at t = d an endpoint answers one atom, its whole storage."""
    for theta in g.messages:
        plan = build_et_plan(g, theta, *ts)
        assert list(plan.queries.items()) == list(
            reference_et_queries(g, theta, *ts).items())
        for role, t in (("role_i", "t_i"), ("role_j", "t_j")):
            server = plan.meta[role]
            if plan.meta[t] == g.degree(server):
                [atom] = plan.atoms_at(server)
                assert [m for m, _ in atom] == list(g.index_set(server))


def test_one_subset_template_per_degree_and_t(monkeypatch):
    """The counts run once per (degree, t) on a graph: once on a regular
    graph, once per side on K(3,5) at (2, 1).  The graph's memo keeps
    those templates and nothing per endpoint."""
    made = []
    template = localpir.scheme._subset_template

    def counting(d, t):
        made.append((d, t))
        return template(d, t)

    monkeypatch.setattr(localpir.scheme, "_subset_template", counting)
    for g, cfg, want in [
            (family("complete", 30), et_config(2), [(29, 2)]),
            (family("complete_bipartite", a=3, b=5), et_config(2, 1),
             [(3, 2), (5, 1)])]:
        made.clear()
        build_plan_family(g, cfg)
        assert sorted(made) == want
        assert sorted(g._memo) == [("subset_template", d, t)
                                   for d, t in want]


RECIPE_CASES = [pytest.param(family("complete", d + 1), (t,), id=f"d{d}-t{t}")
                for d in range(1, 10) for t in range(1, d + 1)]
RECIPE_CASES += [pytest.param(family("complete_bipartite", a=a, b=b), (2, 1),
                              id=f"K{a}{b}-t21") for a, b in ((3, 5), (2, 7))]


@pytest.mark.parametrize("g,ts", RECIPE_CASES)
def test_template_recipe_equals_the_derived_recipe(g, ts):
    """Every rank at degree d <= 9, for every t, in both endpoint roles:
    the recipe the builder reads off the subset template is the one
    `derive_recipe` reads off the queries, steps from both endpoints.
    At d = 2 the graph is the triangle, where one server takes the
    singletons of both endpoints."""
    for theta in g.messages:
        plan = build_et_plan(g, theta, *ts)
        assert plan.recipe == derive_recipe(plan.queries, theta, plan.length)
        assert {step.source[0] for step in plan.recipe} == {
            plan.meta["role_i"], plan.meta["role_j"]}


def test_a_triangle_cancels_both_endpoints_at_one_server():
    # messages 3 = (1, 3) and 2 = (2, 3) both have their singleton at 3:
    # endpoint 1's lands first, so endpoint 2's cancel reads index 1
    plan = build_et_plan(family("cycle", 3), 1, 2)
    assert plan.queries[3] == (((3, 1),), ((2, 1),))
    assert plan.recipe == (DecodeStep((1, 0), ((3, 0),)),
                           DecodeStep((2, 0), ((3, 1),)))


# --- templated endpoint queries ---------------------------------------------

def defined_layout(stored, theta, t, shift):
    """An endpoint's t-sum layout by its definition: the t-subsets of
    `stored` in lexicographic order, each message at its running
    occurrence count, theta's count starting at `shift`."""
    counts = dict.fromkeys(stored, 0)
    counts[theta] = shift
    atoms = []
    for subset in itertools.combinations(stored, t):
        for m in subset:
            counts[m] += 1
        atoms.append(tuple((m, counts[m]) for m in subset))
    return tuple(atoms)


@pytest.mark.parametrize("d", range(1, 10))
def test_a_templated_layout_is_its_definition(d):
    """Every t <= d, every rank of theta, both roles (shift 0 at the first
    endpoint, shift c at the second): the template's counts run 1..c, and
    its atoms, read one at a time or expanded, are the defined layout,
    atom by atom and in order."""
    stored = tuple(range(3, 3 + 2 * d, 2))
    for t in range(1, d + 1):
        tpl = localpir.scheme._subset_template(d, t)
        c = comb(d - 1, t - 1)
        assert {k for subset in tpl.subsets for _, k in subset} == set(
            range(1, c + 1))
        for rank, shift in itertools.product(range(d), (0, c)):
            ref = localpir.scheme._TemplateRef(tpl, stored, rank, shift)
            want = defined_layout(stored, stored[rank], t, shift)
            assert ref.expand() == want
            assert len(ref) == comb(d, t)
            assert tuple(ref[idx] for idx in range(len(ref))) == want


@pytest.mark.parametrize("d", range(1, 10))
def test_a_templates_tables_are_read_off_its_subsets(d):
    """Every t <= d and rank r: `holding[r]` is every subset naming r, in
    subset order, c = C(d-1, t-1) of them."""
    for t in range(1, d + 1):
        tpl = localpir.scheme._subset_template(d, t)
        assert tpl.c == comb(d - 1, t - 1)
        for r in range(d):
            holding = tuple(s for s, subset in enumerate(tpl.subsets)
                            if r in dict(subset))
            assert tpl.holding[r] == holding and len(holding) == tpl.c


def test_a_template_is_a_fixed_table():
    """Every template for d <= 9 and t <= d hashes: it holds tuples only,
    so nothing can be added to it once built."""
    for d in range(1, 10):
        for t in range(1, d + 1):
            hash(localpir.scheme._subset_template(d, t))


@pytest.mark.parametrize("g,ts", RECIPE_CASES)
def test_a_templated_plan_runs_like_its_tuples(g, ts):
    """The executor reads a templated endpoint's atoms off its template;
    the same plan remade from `dict(plan.queries)` of a second build
    holds tuples.  Both draw the same permutations and storage, decode
    the same symbols and give every server the same view."""
    for theta in sorted({1, g.K // 2 + 1, g.K}):
        plan = build_et_plan(g, theta, *ts)
        ends = sorted({plan.meta["role_i"], plan.meta["role_j"]})
        tuples = dataclasses.replace(
            plan, queries=dict(build_et_plan(g, theta, *ts).queries))
        assert templated_endpoints(tuples) == []
        assert tuples.download_count() == plan.download_count()
        assert tuples.referenced_messages() == plan.referenced_messages()
        for q, seed in itertools.product((2, 3, 5, 257), range(3)):
            runs = [localpir.scheme._execute(p, random.Random(seed), q)
                    for p in (plan, tuples)]
            assert runs[0] == runs[1]
        assert templated_endpoints(plan) == ends
        for q, seed in itertools.product((2, 3, 5, 257), range(3)):
            assert (execute_plan(plan, seed, q).per_server
                    == execute_plan(tuples, seed, q).per_server)


def test_a_changed_templated_plan_is_refused_with_the_texts_of_tuples():
    """complete-5 at t=2, theta=1 = (1, 2): L=6, each endpoint answers six
    sums.  Atoms swapped in by `dataclasses.replace` are checked one by
    one; a templated endpoint kept under other lengths or another graph
    fails its whole check and is refused as its tuples would be."""
    g = family("complete", 5)
    atoms = dict(build_et_plan(g, 1, 2).queries)
    last = atoms[2][-1]
    past_l = atoms[2][:-1] + ((last[0], (last[1][0], 7)),)
    # server 1 stores messages 1-4; message 5 is (2, 3)
    unstored = (atoms[1][0] + ((5, 1),),) + atoms[1][1:]
    cases = [
        ({"queries": {**atoms, 2: past_l}},
         f"server 2 atom 5 reads position 7 outside message {last[1][0]} "
         f"of length 6"),
        ({"queries": {**atoms, 1: unstored}},
         "server 1 atom 0 reads message 5, which it does not store"),
        # theta's block at server 2 is 4..6
        ({"lengths": dict.fromkeys(range(1, 8), 5)},
         "server 2 atom 2 reads position 6 outside message 1 of length 5"),
        # messages 4 and 5 swapped: server 1 stores 1, 2, 3 and 5
        ({"graph": build_graph(5, [g.endpoints(m) for m in (1, 2, 3, 5, 4, 6,
                                                           7, 8, 9, 10)])},
         "server 1 atom 2 reads message 4, which it does not store"),
    ]
    for fields, text in cases:
        plan = build_et_plan(g, 1, 2)
        assert (plan.meta["role_i"], plan.meta["role_j"], plan.length,
                sorted(plan.lengths)) == (1, 2, 6, list(range(1, 8)))
        assert templated_endpoints(plan) == [1, 2]
        for base in (plan, dataclasses.replace(plan, queries=atoms)):
            with pytest.raises(UnresolvableRef) as refused:
                dataclasses.replace(base, **fields)
            assert str(refused.value) == text


def test_t1_plans_are_all_singletons_even_off_family():
    paw = build_graph(4, [(1, 2), (1, 3), (2, 3), (1, 4)])
    for theta in paw.messages:
        plan = build_et_plan(paw, theta, 1)
        for atoms in plan.queries.values():
            assert all(len(atom) == 1 for atom in atoms)


def test_interference_singletons_avoid_desired_endpoints():
    for g in (family("cycle", 4), family("complete", 4)):
        for theta in g.messages:
            plan = build_et_plan(g, theta, 2)
            endpoints = set(g.endpoints(theta))
            for server, atoms in plan.queries.items():
                if server in endpoints:
                    continue
                assert all(len(atom) == 1 and atom[0][0] != theta
                           for atom in atoms)


# --- bipartite cover plans ---------------------------------------------------

def test_bipartite_plan_star_contacts_one_leaf():
    g = family("star", 5)
    for theta in g.messages:
        plan = build_bipartite_plan(g, theta)
        assert list(plan.queries) == [theta]
        assert plan.queries[theta] == (((theta, 1),),)


def test_bipartite_plan_path5_costs():
    g = family("path", 5)
    # parts (1,3,5) and (2,4): squared-degree sums 6 and 8, so the odd
    # part covers and total download over all four messages is 6.
    downloads, covers = {}, {}
    for theta in g.messages:
        plan = build_bipartite_plan(g, theta)
        assert plan.meta.keys() == {"cover_vertex"}
        covers[theta] = plan.meta["cover_vertex"]
        downloads[theta] = plan.download_count()
    assert covers == {1: 1, 2: 3, 3: 3, 4: 5}
    assert downloads == {1: 1, 2: 2, 3: 2, 4: 1}


def test_bipartite_queries_do_not_depend_on_theta():
    g = family("path", 7)
    by_server = {}
    for theta in g.messages:
        plan = build_bipartite_plan(g, theta)
        for server, atoms in plan.queries.items():
            by_server.setdefault(server, set()).add(atoms)
    for server, variants in by_server.items():
        assert len(variants) == 1


def test_bipartite_rejects_odd_cycle():
    with pytest.raises(NotBipartite):
        build_bipartite_plan(family("cycle", 5), 1)


# --- union plans ---------------------------------------------------------

def assert_lengths_name_what_is_read(plan):
    assert set(plan.lengths) == {plan.theta, *plan.referenced_messages()}
    assert set(plan.lengths.values()) == {plan.length}


@pytest.mark.parametrize("label,g,plans", corpus_plans(),
                         ids=[label for label, _, _ in corpus_plans()])
def test_shipped_plans_name_only_the_messages_they_read(label, g, plans):
    for plan in plans.values():
        assert_lengths_name_what_is_read(plan)


def mixed_graph():
    c4 = family("cycle", 4)
    s5 = family("star", 5)
    edges = list(c4.edges) + [(u + 4, v + 4) for (u, v) in s5.edges]
    return build_graph(9, edges)


def test_union_plan_routes_to_the_right_component():
    g = mixed_graph()
    plan_cycle = build_union_plan(g, 2)
    assert set(plan_cycle.queries) <= {1, 2, 3, 4}
    plan_star = build_union_plan(g, 6)
    assert list(plan_star.queries) == [6]
    assert plan_star.queries[6] == (((6, 1),),)


def test_union_plan_lengths_differ_per_component():
    g = mixed_graph()
    plan = build_union_plan(g, 1)
    assert plan.length == 2          # cycle component, singleton sums
    assert plan.lengths == {1: 2, 2: 2, 4: 2}   # theta and the messages read
    assert build_union_plan(g, 5).length == 1   # star, direct downloads


def test_union_plan_lengths_match_component_plans():
    # C4 (L=2), K4 (L=4), 5-star and path-5 (cover, L=1), isolated vertex.
    parts = [family("cycle", 4), family("complete", 4), family("star", 5),
             family("path", 5)]
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for (u, v) in part.edges]
        offset += part.n_vertices
    g = build_graph(offset + 1, edges)
    comps = [c for c in components(g) if c.graph.K]
    assert len(comps) == len(parts)
    lengths = set()
    for comp in comps:
        cfg = default_component_config(comp.graph)
        expected = build_plan(comp.graph, cfg, 1).length
        lengths.add(expected)
        for theta in comp.edge_indices:
            plan = build_union_plan(g, theta)
            assert plan.length == expected
            assert set(plan.lengths) <= set(comp.edge_indices)
            assert_lengths_name_what_is_read(plan)
    assert lengths == {1, 2, 4}


@st.composite
def union_graphs(draw):
    """Graphs on at most six vertices, possibly disconnected, with edges."""
    n = draw(st.integers(2, 6))
    pool = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pool), max_size=len(pool),
                          unique=True))
    assume(edges)
    return build_graph(n, edges)


@settings(max_examples=80, deadline=None)
@given(union_graphs())
def test_union_family_is_per_theta_plans_at_the_lower_bound(g):
    plans = build_plan_family(g, union_config())
    assert plans == {theta: build_union_plan(g, theta)
                     for theta in g.messages}
    assert {p.kind for p in plans.values()} <= {"et", "bipartite"}
    assert decode_check(plans, g, seeds=1).ok
    audit = cost_audit(plans, g)
    assert audit.mismatches == []
    assert audit.rate == graph_bounds(g).lower.as_fraction()
    for plan in plans.values():
        assert_lengths_name_what_is_read(plan)


def disjoint_union(*parts):
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for (u, v) in part.edges]
        offset += part.n_vertices
    return build_graph(offset, edges)


@pytest.mark.parametrize("parts", [
    ("cycle", "star"),                  # lengths 2 and 1
    ("cycle", "complete", "star"),      # lengths 2, 4 and 1
])
def test_padded_union_family_runs_at_the_composed_rate(parts):
    # The padded family repeats each component's plans to the least common
    # multiple of the lengths, on disjoint position blocks: every message
    # then has one length, and the family is an ordinary exact scheme.
    g = disjoint_union(*(family(name, 5 if name == "star" else 4)
                         for name in parts))
    plans = build_plan_family(g, union_config())
    assert len({p.length for p in plans.values()}) == len(parts)
    common = lcm(*(p.length for p in plans.values()))
    padded = {t: repeated(p, common // p.length) for t, p in plans.items()}
    report = check_scheme(padded, g)
    assert report.ok            # exact privacy, decode and cost
    rate = Fraction(sum(p.length for p in padded.values()),
                    sum(p.download_count() for p in padded.values()))
    assert rate == cost_audit(plans, g).rate == report.cost.rate
    assert rate == graph_bounds(g).lower.as_fraction()


@settings(max_examples=60, deadline=None)
@given(union_graphs(), st.integers(2, 4), st.data())
def test_repeating_one_component_keeps_the_rate(g, r, data):
    plans = build_plan_family(g, union_config())
    comp = data.draw(st.sampled_from([c for c in components(g) if c.graph.K]))
    longer = {t: repeated(p, r) if t in comp.edge_indices else p
              for t, p in plans.items()}
    assert cost_audit(longer, g).rate == cost_audit(plans, g).rate


def test_union_family_runs_best_scheme_once_per_component(monkeypatch):
    real = localpir.capacity.best_scheme
    calls = []

    def counting(cg):
        calls.append(cg)
        return real(cg)

    monkeypatch.setattr(localpir.capacity, "best_scheme", counting)
    monkeypatch.setattr(localpir.scheme, "best_scheme", counting)
    g = family("disjoint_copies", base=family("cycle", 4), copies=100)
    plans = build_plan_family(g, union_config())
    assert len(plans) == 400
    assert len(calls) == 100


def test_builders_state_recipes_equal_to_the_derived_ones(monkeypatch):
    """t-sum and cover plans state their recipes, so `derive_recipe` runs
    only for fixture plans; on every union plan the stated recipe equals
    the one derived from the global layout."""
    real = localpir.scheme.derive_recipe
    calls = []

    def counting(queries, theta, length):
        calls.append(theta)
        return real(queries, theta, length)

    monkeypatch.setattr(localpir.scheme, "derive_recipe", counting)
    plans = [plan for g in shipped_unions()
             for plan in build_plan_family(g, union_config()).values()]
    plans += build_plan_family(family("path", 5), bipartite_config()).values()
    assert calls == []
    for plan in plans:
        assert plan.recipe == real(plan.queries, plan.theta, plan.length)
    build_plan(family("cycle", 4), fixture_config("c4"), 2)
    assert calls == [2]


def shipped_unions():
    """The mixed unions and 100 copies of C4."""
    c4, k4 = family("cycle", 4), family("complete", 4)
    s5, p5 = family("star", 5), family("path", 5)
    four = disjoint_union(c4, k4, s5, p5)
    yield mixed_graph()
    yield disjoint_union(c4, k4, s5)
    yield family("disjoint_copies", base=c4, copies=3)
    yield build_graph(four.n_vertices + 1, four.edges)  # isolated server
    yield disjoint_union(family("complete_bipartite", a=2, b=5),
                         family("path", 6), family("cycle", 7))
    yield family("disjoint_copies", base=c4, copies=100)


def in_global_ids(comp, plan):
    """A component's plan renumbered through the component's back-maps."""
    def vertex(v):
        return comp.vertices[v - 1]

    def answer_at(ref):
        return (vertex(ref[0]), ref[1])

    queries = [(vertex(s), tuple(tuple((comp.edge_indices[m - 1], p)
                                       for (m, p) in atom) for atom in atoms))
               for s, atoms in plan.queries.items()]
    recipe = tuple(DecodeStep(answer_at(step.source),
                              tuple(map(answer_at, step.cancel)))
                   for step in plan.recipe)
    meta = {key: vertex(v) if key in ("role_i", "role_j", "cover_vertex")
            else v for key, v in plan.meta.items()}
    lengths = {comp.edge_indices[m - 1]: n for m, n in plan.lengths.items()}
    return plan.kind, lengths, queries, recipe, meta


def test_union_plan_is_its_component_plan_renumbered():
    for g in shipped_unions():
        checked = 0
        for comp in (c for c in components(g) if c.graph.K):
            cfg = default_component_config(comp.graph)
            for local, theta in enumerate(comp.edge_indices, start=1):
                plan = build_union_plan(g, theta)
                got = (plan.kind, plan.lengths, list(plan.queries.items()),
                       plan.recipe, plan.meta)
                assert got == in_global_ids(
                    comp, build_plan(comp.graph, cfg, local))
                checked += 1
        assert checked == g.K


def test_union_plan_is_its_component_plan_in_global_ids():
    g = mixed_graph()
    cycle_plan = build_union_plan(g, 2)
    assert cycle_plan.kind == "et"
    assert {cycle_plan.meta["role_i"], cycle_plan.meta["role_j"]} == {2, 3}
    star_plan = build_union_plan(g, 6)
    assert star_plan.kind == "bipartite"
    assert star_plan.meta == {"cover_vertex": 6}


def test_cost_audit_catches_an_extra_atom_in_a_union_plan():
    g = mixed_graph()
    plans = build_plan_family(g, union_config())
    plan = plans[6]
    queries = dict(plan.queries)
    queries[6] += (((6, 1),),)
    plans[6] = dataclasses.replace(plan, queries=queries)
    assert cost_audit(plans, g).mismatches == [
        "theta 6: downloaded 2, cover form says 1"]


BUILDER_META = {"et": {"t_i", "t_j", "role_i", "role_j"},
                "bipartite": {"cover_vertex"}, "fixture": {"fixture"}}


def test_plans_record_only_their_builders_choices():
    """Degrees and covering parts are the graph's, so no plan records
    them: its meta holds its builder's choices and nothing else."""
    families = [plans for _, _, plans in corpus_plans()]
    families += [build_plan_family(g, union_config())
                 for g in shipped_unions()]
    kinds = set()
    for plans in families:
        for plan in plans.values():
            assert plan.meta.keys() == BUILDER_META[plan.kind]
            kinds.add(plan.kind)
    assert kinds == BUILDER_META.keys()


def test_default_component_config_choices():
    assert default_component_config(family("cycle", 4)) == et_config(1, 1)
    assert default_component_config(family("star", 5)) == bipartite_config()
    assert default_component_config(family("complete", 4)) == et_config(2, 2)
    paw = build_graph(4, [(1, 2), (1, 3), (2, 3), (1, 4)])
    assert default_component_config(paw) == et_config(1, 1)


def test_build_plan_dispatch():
    g = family("cycle", 4)
    assert build_plan(g, et_config(2), 1).kind == "et"
    assert build_plan(g, bipartite_config(), 1).kind == "bipartite"
    assert build_plan(g, union_config(), 1).kind == "et"
    assert build_plan(g, fixture_config("c4"), 1).kind == "fixture"
    with pytest.raises(InvalidFamilyParams):
        build_plan(g, PlanConfig(kind="bogus"), 1)


# --- decoding ----------------------------------------------------------------

def test_derive_recipe_rejects_missing_singleton():
    queries = {1: (((1, 1), (2, 1)),)}
    with pytest.raises(UndecodablePlan):
        derive_recipe(queries, 1, 1)


def test_derive_recipe_rejects_duplicate_position():
    queries = {1: (((1, 1),),), 2: (((1, 1),),)}
    with pytest.raises(UndecodablePlan):
        derive_recipe(queries, 1, 1)


def test_derive_recipe_rejects_uncovered_position():
    queries = {1: (((1, 1),),)}
    with pytest.raises(UndecodablePlan):
        derive_recipe(queries, 1, 2)


def test_derive_recipe_rejects_double_desired_ref():
    queries = {1: (((1, 1), (1, 2)),)}
    with pytest.raises(UndecodablePlan):
        derive_recipe(queries, 1, 2)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("cfg,g", [
    (et_config(2), family("cycle", 4)),
    (et_config(2), family("complete", 4)),
    (bipartite_config(), family("path", 6)),
    (union_config(), mixed_graph()),
])
def test_decode_round_trip(q, cfg, g):
    for theta in g.messages:
        plan = build_plan(g, cfg, theta)
        for seed in range(5):
            tr = execute_plan(plan, seed, q)
            assert tr.decoded == tr.storage[theta] and tr.decoded_ok


class ScriptedBytes:
    """An rng whose `randbytes` hands out the given chunks in order."""

    def __init__(self, *chunks):
        self.chunks = list(chunks)
        self.asked = []

    def randbytes(self, n):
        self.asked.append(n)
        return self.chunks.pop(0)


def test_draw_symbols_skips_rejected_bytes():
    # q=3 keeps bytes below 255 = 3 * 85 only: 255 is skipped, drawn again
    rng = ScriptedBytes(bytes([255, 4, 5]), bytes([7]))
    assert localpir.scheme._draw_symbols(rng, 3, 3) == [1, 2, 1]
    assert rng.asked == [3, 1]


@pytest.mark.parametrize("q", [257, 65537, 2**31 - 1, 2**61 - 1])
def test_draw_symbols_above_a_byte_falls_back_to_randrange(q):
    """Above a byte each symbol is drawn as `randrange(q)` draws it: the
    same symbols, and the rng left where 300 `randrange` calls leave it."""
    class NoBytes(random.Random):
        def randbytes(self, n):
            raise AssertionError(f"drew bytes for q={q}")

    rng = NoBytes(4)
    got = localpir.scheme._draw_symbols(rng, 300, q)
    ref = random.Random(4)
    assert got == [ref.randrange(q) for _ in range(300)]
    assert rng.getstate() == ref.getstate()


def test_execute_draws_permutations_as_shuffle_does():
    """A plan on cycle-4 for message 1, which also names message 4, at
    every length n from 1 to 300: `_execute` draws both permutations as
    `random.shuffle` would, then the storage, and leaves the rng where
    those draws leave it."""
    g = family("cycle", 4)
    for n in range(1, 301):
        plan = SchemePlan(g, "singletons", 1, {1: n, 4: n},
                          {1: tuple(((1, p),) for p in range(1, n + 1))},
                          tuple(DecodeStep((1, p), ()) for p in range(n)))
        for seed in (0, 1, 7, "localpir:100:0"):
            drawn, shuffled = random.Random(seed), random.Random(seed)
            perms, storage, decoded = localpir.scheme._execute(plan, drawn, 2)
            assert perms == shuffled_permutations(shuffled, plan.lengths)
            assert storage == {m: localpir.scheme._draw_symbols(shuffled, n, 2)
                               for m in (1, 4)}
            assert drawn.getstate() == shuffled.getstate()
            assert decoded == storage[1]


@pytest.mark.parametrize("q", [2, 3, 257])
@pytest.mark.parametrize("plan", [
    build_et_plan(family("complete", 30), 100, 2),
    build_union_plan(family("disjoint_copies", base=family("cycle", 4),
                            copies=100), 222),
    build_bipartite_plan(family("path", 9), 5),
], ids=["complete-30-t2", "100xC4-union", "path-9-cover"])
def test_execute_translates_and_answers_like_an_oracle(plan, q):
    perms, storage, decoded = localpir.scheme._execute(
        plan, random.Random(f"oracle:{q}"), q)
    views = localpir.scheme._transcribe(plan, perms, storage, q)
    # the same stream, drawn with random.shuffle: permutations, then storage
    ref = random.Random(f"oracle:{q}")
    shuffled = shuffled_permutations(ref, plan.lengths)
    assert perms == shuffled
    assert storage == {m: localpir.scheme._draw_symbols(ref, n, q)
                       for m, n in sorted(plan.lengths.items())}
    assert list(views) == sorted(plan.queries)
    assert decoded == storage[plan.theta]
    for s, atoms in plan.queries.items():
        physical, answers = views[s]
        assert physical == tuple(
            tuple((m, shuffled[m][p - 1]) for m, p in atom) for atom in atoms)
        assert answers == tuple(sum(storage[m][x - 1] for m, x in atom) % q
                                for atom in physical)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 251, 257, 65537])
def test_draw_symbols_lie_in_the_field(q):
    rng = random.Random(q)
    for n in (0, 1, 2, 56, 1000):
        symbols = localpir.scheme._draw_symbols(rng, n, q)
        assert len(symbols) == n
        assert all(0 <= x < q for x in symbols)
    if q <= 7:
        assert set(symbols) == set(range(q))


@pytest.mark.parametrize("atoms,certified,executed", [
    # step 2 cancels against server 3's one atom
    ((),
     "step 2 reads atom 0 of server 3, which receives 0",
     "IncompleteAnswers: recipe needs answer 0 from server 3, which sent 0"),
], ids=["unsent-answer"])
def test_executor_refusals_keep_their_texts(atoms, certified, executed):
    # theta=1 on cycle-4 t=2 (L=2) with server 3's atoms replaced; a
    # recipe position outside 1..L is test_verify's
    # test_a_recipe_position_outside_the_message_fails_to_decode, and a
    # layout that cannot be sent is refused when built
    g = family("cycle", 4)
    plan = build_et_plan(g, 1, 2)
    mutated = dataclasses.replace(plan, queries={**plan.queries, 3: atoms})
    rep = decode_check({1: mutated}, g, q=2, seeds=2)
    assert [(f["seed"], f["reason"]) for f in rep.failures] == [
        (None, certified), (0, executed), (1, executed)]


@pytest.mark.parametrize("g,queries,lengths,error,text", [
    (family("cycle", 4), {9: (((1, 1),),)}, None,
     IndexOutOfRange, "server 9 outside 1..4"),
    # server 3 stores messages 2 and 3 only
    (family("cycle", 4), {3: (((4, 1),),)}, None, UnresolvableRef,
     "server 3 atom 0 reads message 4, which it does not store"),
    # server 9, the star's centre, stores message 5
    (mixed_graph(), {9: (((5, 1),),)}, None, UnresolvableRef,
     "server 9 atom 0 reads message 5, which has no length in the plan"),
    (family("cycle", 4), {3: (((2, 0),),)}, None, UnresolvableRef,
     "server 3 atom 0 reads position 0 outside message 2 of length 2"),
    (family("cycle", 4), {3: (((2, 3),),)}, None, UnresolvableRef,
     "server 3 atom 0 reads position 3 outside message 2 of length 2"),
    (family("cycle", 4), {}, {2: 2, 4: 2}, UnresolvableRef,
     "desired message 1 has no length in the plan"),
    (family("cycle", 4), {}, {1: 2, 2: 3, 4: 2}, UnresolvableRef,
     "message 2 has length 3, desired message 1 has 2"),
], ids=["server-outside-graph", "unstored-message", "message-without-length",
        "position-0", "position-L+1", "theta-without-length",
        "unequal-lengths"])
def test_a_plan_that_cannot_be_sent_cannot_be_built(g, queries, lengths,
                                                    error, text):
    # theta=1's union plan, the t-sum plan of its 4-cycle at t=1 (L=2),
    # with atoms added or its lengths replaced; direct construction and
    # dataclasses.replace both refuse it
    plan = build_union_plan(g, 1)
    assert plan.lengths == {1: 2, 2: 2, 4: 2}
    fields = {"queries": {**plan.queries, **queries},
              "lengths": plan.lengths if lengths is None else lengths}
    for build in (lambda: dataclasses.replace(plan, **fields),
                  lambda: SchemePlan(**{**vars(plan), **fields})):
        with pytest.raises(LocalPIRError) as refused:
            build()
        assert (type(refused.value), str(refused.value)) == (error, text)


def test_plan_family_covers_every_message():
    g = family("complete", 4)
    plans = build_plan_family(g, et_config(2))
    assert sorted(plans) == list(g.messages)
