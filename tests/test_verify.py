"""Exact privacy, decode, and cost checkers, exercised against known plans."""

import dataclasses
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    corpus_plans,
    corrupt_gamma,
    fingerprint_distribution,
    mutated_family,
    mutations,
    oracle_privacy_check,
    oracle_probe,
    plan_with_queries,
    query_fingerprint,
    seeded_decode_ok,
    shipped_corpus,
    silence_server,
    strip_offset,
    templated_endpoints,
)
from localpir import scheme, sim, verify
from localpir.cli import main
from localpir.errors import (
    EmptyInput,
    EnumerationTooLarge,
    InvalidFamilyParams,
    LocalPIRError,
    UndecodablePlan,
    UnresolvableRef,
)
from localpir.graphs import build_graph, family, graph_to_json
from localpir.scheme import (
    SchemePlan,
    bipartite_config,
    build_plan_family,
    derive_recipe,
    et_config,
    union_config,
)
from localpir.sim import execute_plan, measure_rate
from localpir.verify import (
    DEFAULT_CAP,
    canonical_privacy_probe,
    check_scheme,
    cost_audit,
    decode_check,
    privacy_check,
    view_classes,
)


@pytest.fixture(scope="module")
def c4():
    return family("cycle", 4)


@pytest.fixture(scope="module")
def c4_plans(c4):
    return build_plan_family(c4, et_config(2, 2))


@pytest.fixture(scope="module")
def k4_plans():
    g = family("complete", 4)
    return g, build_plan_family(g, et_config(2, 2))


# --- fingerprints --------------------------------------------------------------

def test_query_fingerprint_ignores_presentation_order():
    perms = {1: (2, 1), 2: (1, 2)}
    a = query_fingerprint((((1, 1), (2, 2)), ((2, 1),)), perms)
    b = query_fingerprint((((2, 1),), ((2, 2), (1, 1))), perms)
    assert a == b
    # positions are physical: logical (1, 1) lands on slot 2
    assert a == (((1, 2), (2, 2)), ((2, 1),))


def test_fingerprint_distribution_c4_hand_oracle(c4_plans):
    # The test oracle: server 2 receives one two-term sum touching messages
    # 1 and 2; over the four equally likely permutation pairs every
    # physical pair shows up once.  That is the orbit of the one view
    # class messages 1 and 2 form there.
    dist = fingerprint_distribution(c4_plans[1], 2)
    expect = {(((1, a), (2, b)),): Fraction(1, 4)
              for a in (1, 2) for b in (1, 2)}
    assert dist == expect
    [cls] = view_classes(c4_plans, 2, (1, 2))
    assert cls.members == (1, 2) and cls.view in expect
    assert cls.aut == 1 and cls.orbit == len(expect)


def test_fingerprint_distribution_sums_to_one(c4_plans, k4_plans):
    g, plans = k4_plans
    for plan in list(c4_plans.values()) + list(plans.values()):
        for server in plan.graph.vertices:
            assert sum(fingerprint_distribution(plan, server).values()) == 1


def test_fingerprint_distribution_respects_cap(k4_plans):
    g, plans = k4_plans
    # the oracle's cap counts permutation points, the primitive's search
    # nodes: one per stored message at this server
    with pytest.raises(EnumerationTooLarge):
        fingerprint_distribution(plans[1], 1, cap=100)
    assert privacy_check(plans, g, 1, cap=100).ok
    with pytest.raises(EnumerationTooLarge):
        privacy_check(plans, g, 1, cap=2)


# --- view classes agree with the enumeration oracle -----------------------------

def outcome(check, plans, g, server, cap=DEFAULT_CAP):
    """A report's JSON, or the type and text of the error it raised."""
    try:
        return check(plans, g, server, cap).to_json()
    except LocalPIRError as exc:
        return type(exc).__name__, str(exc)


def assert_agrees_with_oracle(plans, g, cap=DEFAULT_CAP, servers=None):
    """Wherever the oracle answers or raises, the reports say the same,
    byte for byte.  The oracle's cap counts permutation points, so where it
    refuses there is nothing to compare."""
    for server in g.vertices if servers is None else servers:
        for check, oracle in ((privacy_check, oracle_privacy_check),
                              (canonical_privacy_probe, oracle_probe)):
            want = outcome(oracle, plans, g, server, cap)
            if isinstance(want, dict) or want[0] != "EnumerationTooLarge":
                assert outcome(check, plans, g, server, cap) == want


@pytest.mark.parametrize("label,g,plans", corpus_plans(),
                         ids=[label for label, _, _ in corpus_plans()])
def test_reports_agree_with_oracle_on_corpus_and_mutations(label, g, plans):
    assert_agrees_with_oracle(plans, g)
    for theta, plan in plans.items():
        for queries in mutations(plan):
            # Both reports at a server read only the atoms there, so a
            # server the mutation leaves alone repeats the check above.
            changed = [s for s in g.vertices
                       if tuple(queries.get(s, ())) != plan.atoms_at(s)]
            assert_agrees_with_oracle(mutated_family(plans, theta, queries),
                                      g, servers=changed)


def small_graphs(n):
    """Graphs on n vertices, each possible edge kept or not."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return (st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
            .filter(any)
            .map(lambda keep: build_graph(n, list(itertools.compress(pairs,
                                                                     keep)))))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 6).flatmap(small_graphs))
def test_reports_agree_with_oracle_on_small_unions(g):
    assert_agrees_with_oracle(build_plan_family(g, union_config()), g)


@st.composite
def layouts(draw, lengths=None):
    """One length for 2-3 messages and a layout of atoms, each of 1-3
    refs, with some atoms repeated."""
    if lengths is None:
        count = draw(st.integers(2, 3))
        lengths = dict.fromkeys(range(1, count + 1), draw(st.integers(1, 4)))
    ref = st.sampled_from([(m, p) for m, n in lengths.items()
                           for p in range(1, n + 1)])
    atoms = draw(st.lists(st.lists(ref, min_size=1, max_size=3)
                          .map(lambda a: tuple(sorted(a))), max_size=5))
    if atoms:
        atoms += draw(st.lists(st.sampled_from(atoms), max_size=2))
    return lengths, tuple(atoms)


@st.composite
def permuted(draw, layout):
    """The layout under random position permutations, atoms reordered."""
    lengths, atoms = layout
    perm = {m: draw(st.permutations(range(1, n + 1)))
            for m, n in lengths.items()}
    moved = [tuple(sorted((m, perm[m][p - 1]) for m, p in atom))
             for atom in atoms]
    return lengths, tuple(draw(st.permutations(moved)))


STAR4 = family("star", 4)


def hub_family(*chosen):
    """A star-4 family whose desired messages 1, 2, 3 get the chosen
    (lengths, atoms) layouts at the hub, server 4, which stores all
    three.  A layout gives its messages one length, and its desired
    message that length too."""
    base = build_plan_family(STAR4, bipartite_config())
    plans = {}
    for t, (lengths, atoms) in enumerate(chosen, 1):
        [length] = set(lengths.values())
        plans[t] = dataclasses.replace(base[t], lengths={**lengths, t: length},
                                       queries={4: atoms})
    return plans


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_random_layouts_agree_with_oracle(data):
    # Symmetric layouts leave refinement with cells to individualise, so
    # the search backtracks.
    a = data.draw(layouts())
    copy = data.draw(permuted(a))
    b = data.draw(st.one_of(layouts(), layouts(a[0])))
    assert len(view_classes(hub_family(a, copy), 4, (1, 2))) == 1
    for x, y in itertools.combinations((a, copy, b), 2):
        # a repeated layout adds no class, so the hub decides the pair
        plans = hub_family(x, y, x)
        got = privacy_check(plans, STAR4, 4)
        want = oracle_privacy_check(plans, STAR4, 4)
        assert (got.verdict, got.support_size) == (want.verdict,
                                                   want.support_size)
        same = fingerprint_distribution(plans[1], 4) == \
            fingerprint_distribution(plans[2], 4)
        assert same == (len(view_classes(plans, 4, (1, 2))) == 1)


def test_the_canonical_form_is_the_least_leaf_not_the_first():
    # A triangle and a hexagon of pairs on one message's 9 positions: every
    # position lies in two atoms, so refinement splits nothing, and a leaf
    # below a triangle position differs from one below a hexagon position.
    # Which comes first depends on the numbering; the least does not.
    def ring(cycle):
        return [tuple(sorted(((1, p), (1, q)))) for p, q in
                zip(cycle, cycle[1:] + cycle[:1])]

    lengths = {1: 9}
    first = (lengths, tuple(ring([1, 2, 3]) + ring([4, 5, 6, 7, 8, 9])))
    last = (lengths, tuple(ring([7, 8, 9]) + ring([1, 2, 3, 4, 5, 6])))
    [cls] = view_classes(hub_family(first, last), 4, (1, 2))
    assert cls.members == (1, 2)
    assert cls.aut == 6 * 12 and cls.orbit == 5040


@pytest.mark.parametrize("cap", [1, 10, 100, 1000])
@pytest.mark.parametrize("name,n", [("complete", 4), ("cycle", 5)])
def test_cap_refusals_match_oracle(name, n, cap):
    # The budget counts search nodes, one per layout here, where refinement
    # alone makes every layout discrete; the oracle's cap counts
    # permutation points.  Where both answer they agree byte for byte.
    g = family(name, n)
    plans = build_plan_family(g, et_config(2))
    for server in g.vertices:
        for check in (privacy_check, canonical_privacy_probe):
            got = outcome(check, plans, g, server, cap)
            if cap == 1:
                assert got == ("EnumerationTooLarge",
                               f"server {server} searched 2 nodes, "
                               f"budget is 1")
            else:
                assert isinstance(got, dict)
    if cap > 1:
        assert_agrees_with_oracle(plans, g, cap)


def test_a_negative_cap_is_refused_before_any_work(monkeypatch, c4,
                                                    c4_plans):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the cap was checked")

    monkeypatch.setattr(verify, "decode_check", no_work)
    monkeypatch.setattr(verify, "view_classes", no_work)
    text = "^cap must not be negative, got -1$"
    with pytest.raises(InvalidFamilyParams, match=text):
        check_scheme(c4_plans, c4, cap=-1)
    for check in (privacy_check, canonical_privacy_probe):
        with pytest.raises(InvalidFamilyParams, match=text):
            check(c4_plans, c4, 1, -1)
    # an isolated server stores nothing, yet its probe refuses the cap too
    lone = build_graph(5, list(c4.edges))
    with pytest.raises(InvalidFamilyParams, match=text):
        canonical_privacy_probe(build_plan_family(lone, et_config(2)), lone,
                                5, -1)


def test_equal_layouts_at_unequal_lengths_are_told_apart(c4, c4_plans):
    # theta=2's plan, at length 3 for every message, lays out server 2's
    # queries inside the length-2 orbit of theta=1; its own orbit under
    # Sym(3) is larger, so the two views differ.
    longer = dataclasses.replace(c4_plans[2],
                                 lengths=dict.fromkeys(c4.messages, 3))
    plans = {**c4_plans, 2: longer}
    rep = privacy_check(plans, c4, 2)
    assert rep.verdict == "FAIL"
    assert rep.to_json() == oracle_privacy_check(plans, c4, 2).to_json()
    assert [c.members for c in view_classes(plans, 2, (1, 2))] == [(1,), (2,)]
    # the budget holds for every message's search, not just the first one
    assert outcome(privacy_check, plans, c4, 2, 1) == (
        "EnumerationTooLarge", "server 2 searched 2 nodes, budget is 1")
    assert outcome(privacy_check, plans, c4, 2, 2) == rep.to_json()


def test_equal_orbits_at_unequal_lengths_fail_with_a_moved_witness(c4,
                                                                   c4_plans):
    # Server 2 reads one position of messages 1 and 2.  At lengths (2, 3)
    # and (3, 2) both orbits would hold 6 views, told apart only by a
    # view in one orbit; a plan gives every message it names one length,
    # so neither plan is built, directly or by dataclasses.replace
    for theta, lengths, text in [
            (1, {1: 2, 2: 3}, "message 2 has length 3, desired message 1 "
                              "has 2"),
            (2, {1: 3, 2: 2}, "message 1 has length 3, desired message 2 "
                              "has 2")]:
        plan = c4_plans[theta]
        unequal = {**plan.lengths, **lengths}
        for build in (lambda: dataclasses.replace(plan, lengths=unequal),
                      lambda: SchemePlan(**{**vars(plan),
                                            "lengths": unequal})):
            with pytest.raises(UnresolvableRef) as refused:
                build()
            assert str(refused.value) == text


@pytest.mark.parametrize("atoms,aut", [
    ((((1, 1), (2, 1)),), 1),
    ((((1, 1), (1, 2)), ((2, 1), (2, 2))), 4),
], ids=["one-position-each", "swappable-pairs"])
def test_one_layout_at_nested_lengths_agrees_with_oracle(atoms, aut):
    # The same layout at lengths 2, 3 and 4: its orbits are nested, so the
    # support is the largest of them, and every pair of classes differs
    # in orbit size, so the least canonical view is a witness
    plans = hub_family(*((dict.fromkeys((1, 2), n), atoms)
                         for n in (2, 3, 4)))
    classes = view_classes(plans, 4, (1, 2, 3))
    assert [(c.members, c.aut) for c in classes] == [
        ((1,), aut), ((2,), aut), ((3,), aut)]
    orbits = [c.orbit for c in classes]
    assert orbits == sorted(set(orbits))
    got = privacy_check(plans, STAR4, 4)
    want = oracle_privacy_check(plans, STAR4, 4)
    assert got.verdict == want.verdict == "FAIL"
    assert got.support_size == want.support_size == classes[-1].orbit
    assert got.counterexample == want.counterexample == atoms


def test_layouts_that_read_nothing_form_one_class_at_any_length():
    # union-c4+k4+s5: a C4 server reads nothing for the K4 messages (L=4)
    # and the star messages (L=1), so all of them share one empty view
    c4 = family("cycle", 4)
    edges = list(c4.edges)
    edges += [(u + 4, v + 4) for u, v in family("complete", 4).edges]
    edges += [(u + 8, v + 8) for u, v in family("star", 5).edges]
    g = build_graph(13, edges)
    plans = build_plan_family(g, union_config())
    thetas = tuple(range(5, 15))
    assert {plans[t].length for t in thetas} == {1, 4}
    [cls] = view_classes(plans, 1, thetas)
    assert cls.members == thetas and cls.view == () and cls.orbit == 1


def test_view_classes_place_only_the_referenced_positions(k4_plans):
    # complete-4 t=2 (L=4): server 1 reads two positions of each of
    # messages 1-3, so 12 placements each, 12**3 views over |Aut| = 1,
    # not 24**3 permutation points
    g, plans = k4_plans
    [cls] = view_classes(plans, 1, g.index_set(1))
    assert cls.members == (1, 2, 3) and cls.aut == 1 and cls.orbit == 1728
    assert {p for atom in cls.view for _, p in atom} == {1, 2}
    assert cls.orbit == len(fingerprint_distribution(plans[1], 1))
    # the budget counts search nodes: one per message, since refinement
    # alone makes each layout discrete
    with pytest.raises(EnumerationTooLarge,
                       match="^server 1 searched 3 nodes, budget is 2$"):
        view_classes(plans, 1, g.index_set(1), cap=2)


def test_view_classes_take_the_messages_as_any_iterable():
    # cycle-5 t=2: server 1's two messages share one view, whether they
    # come as a tuple or as an iterator, which is read only once
    g = family("cycle", 5)
    plans = build_plan_family(g, et_config(2))
    [cls] = view_classes(plans, 1, g.index_set(1))
    assert view_classes(plans, 1, iter(g.index_set(1))) == [cls]
    assert view_classes(plans, 1, (m for m in g.index_set(1))) == [cls]


@pytest.mark.parametrize("pos", [5, 0])
def test_placed_positions_outside_the_message_raise_the_executor_text(
        k4_plans, pos):
    # complete-4 t=2 (L=4): a placed position outside 1..4 never reaches
    # view_classes or the executor, since the plan is refused when built
    g, plans = k4_plans
    queries = dict(plans[1].queries)
    assert queries[1][0] == ((1, 1), (2, 1))
    queries[1] = (((1, 1), (2, pos)),) + queries[1][1:]
    with pytest.raises(UnresolvableRef) as refused:
        mutated_family(plans, 1, queries)
    assert str(refused.value) == (
        f"server 1 atom 0 reads position {pos} outside message 2 of length 4")


# --- templated layouts: one search per template ---------------------------------

def searched(atoms, length):
    """A layout's canonical view, |Aut|, orbit at `length`, and the nodes
    its search spends."""
    nodes = []
    view, aut, orbit = verify._search(atoms, length, lambda: nodes.append(1))
    return view, aut, orbit, len(nodes)


def test_a_shifted_template_layout_searches_like_its_unshifted_one():
    """The lemma `view_classes` rests on, for every d <= 9, t <= d and
    rank: the layout an endpoint expands to at shift 0 or c, sent at
    L = c or 2c, has the unshifted layout's view, |Aut|, orbit and search
    nodes.  The stored messages are not numbered 1..d."""
    stored_by = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    layouts = 0
    for d in range(1, 10):
        stored = stored_by[:d]
        for t in range(1, d + 1):
            tpl = scheme._subset_template(d, t)
            for rank, shift in itertools.product(range(d), (0, tpl.c)):
                ref = scheme._TemplateRef(tpl, stored, rank, shift)
                atoms = ref.expand()
                assert (atoms == ref.unshifted()) == (shift == 0)
                for length in (tpl.c, 2 * tpl.c):
                    if shift + tpl.c <= length:
                        layouts += 1
                        assert (searched(atoms, length)
                                == searched(ref.unshifted(), length))
    assert layouts == 855


def generic(plans):
    """The family with every plan rebuilt from tuples, so that no layout
    is read off a template."""
    return {t: plan_with_queries(p, dict(p.queries)) for t, p in plans.items()}


def reports(plans, g):
    """Every report the privacy checks give on a family, or the text of
    its refusal, at caps 0 to 3 and the default."""
    out = [json.dumps(check_scheme(plans, g, q=3, seeds=2).to_json())]
    for server, cap in itertools.product(g.vertices, (0, 1, 2, 3, DEFAULT_CAP)):
        out += [outcome(check, plans, g, server, cap)
                for check in (privacy_check, canonical_privacy_probe)]
    return out


# the benchmark's silenced-server families that the corpus lacks
SILENCED = [("complete4-t1", family("complete", 4), et_config(1)),
            ("complete5-t1", family("complete", 5), et_config(1)),
            ("K33-t1", family("complete_bipartite", a=3, b=3), et_config(1))]


@pytest.mark.parametrize("label,g,cfg", shipped_corpus() + SILENCED,
                         ids=[c[0] for c in shipped_corpus() + SILENCED])
def test_templated_families_report_like_their_tuples(label, g, cfg):
    """The generic path is the oracle: each family, and each mutation of
    one of its plans, gives byte-identical reports and refusal texts
    whether its endpoints are read off their templates or rebuilt as
    tuples.  Reading a plan's tuples expands it, so each family is built
    afresh."""
    families = [build_plan_family(g, cfg)]
    for theta, plan in build_plan_family(g, cfg).items():
        families += [mutated_family(build_plan_family(g, cfg), theta, queries)
                     for queries in mutations(plan)]
    for plans in families:
        refs = sum(map(templated_endpoints, plans.values()), [])
        assert (refs != []) == (cfg.kind == "et")
        want = reports(plans, g)
        assert sum(map(templated_endpoints, plans.values()), []) == refs
        assert reports(generic(plans), g) == want


def test_privacy_searches_each_server_once_on_complete_30(monkeypatch):
    """complete-30 at t=2: every server is an endpoint of the 29 plans of
    its stored messages, all read off one template at one length, so
    privacy at all 30 servers runs 30 searches, not one per stored
    message, 870."""
    calls = []
    search = verify._canonical

    def counted(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(verify, "_canonical", counted)
    g = family("complete", 30)
    plans = build_plan_family(g, et_config(2))
    assert all(privacy_check(plans, g, s).ok for s in g.vertices)
    assert len(calls) == 30


# --- privacy -------------------------------------------------------------------

def test_privacy_passes_on_cycle(c4, c4_plans):
    for server in c4.vertices:
        rep = privacy_check(c4_plans, c4, server)
        assert rep.ok
        assert rep.verdict == "PASS"
        assert rep.support_size == 4
        assert rep.counterexample is None
        assert rep.thetas == c4.index_set(server)


def test_privacy_report_json_keys(c4, c4_plans):
    obj = privacy_check(c4_plans, c4, 2).to_json()
    assert set(obj) == {"server", "thetas", "verdict", "support_size",
                        "counterexample"}
    assert obj == {"server": 2, "thetas": [1, 2], "verdict": "PASS",
                   "support_size": 4, "counterexample": None}
    json.dumps(obj)


def test_privacy_fails_when_a_server_is_silenced(c4, c4_plans):
    # Dropping server 3's download for desired message 2 makes "no query"
    # a giveaway: server 3 stores messages 2 and 3 and now sees an empty
    # transcript only when message 2 is wanted.
    mutated = mutated_family(c4_plans, 2, silence_server(c4_plans[2], 3))
    rep = privacy_check(mutated, c4, 3)
    assert not rep.ok
    assert rep.verdict == "FAIL"
    assert rep.counterexample == ()
    assert rep.to_json()["counterexample"] == []
    # other servers still cannot tell
    assert privacy_check(mutated, c4, 1).ok


def test_privacy_vacuous_cases():
    star = family("star", 5)
    plans = build_plan_family(star, bipartite_config())
    # a leaf stores exactly one message, so there is nothing to hide
    rep = privacy_check(plans, star, 3)
    assert rep.ok and rep.thetas == (3,)

    lonely = build_graph(3, [(1, 2)])
    lone_plans = build_plan_family(lonely, et_config(1, 1))
    rep = privacy_check(lone_plans, lonely, 3)
    assert rep.ok and rep.thetas == () and rep.support_size == 0


def test_privacy_check_rejects_missing_plans(c4, c4_plans):
    with pytest.raises(EmptyInput):
        privacy_check({}, c4, 1)
    partial = {t: p for t, p in c4_plans.items() if t != 2}
    with pytest.raises(EmptyInput):
        privacy_check(partial, c4, 2)


def test_privacy_holds_exactly_where_a_servers_plans_share_one_length():
    """On seeded random graphs the t-sum plans pass privacy at a server
    exactly when all of its stored messages' plans have one length.  At
    one t every layout a server answers is its subset template renamed,
    so only the length, which depends on the other endpoint's degree,
    can tell its messages apart.  Seed 7, n = 4..9, 20 graphs per n with
    each edge present with probability 1/2, t = 1..3; a family whose
    build refuses is skipped."""
    rng = random.Random(7)
    verdicts = Counter()
    families = 0
    for n in range(4, 10):
        for _ in range(20):
            edges = [e for e in itertools.combinations(range(1, n + 1), 2)
                     if rng.random() < 0.5]
            if not edges:
                continue
            g = build_graph(n, edges)
            for t in (1, 2, 3):
                try:
                    plans = build_plan_family(g, et_config(t))
                except LocalPIRError:
                    continue
                families += 1
                for s in g.vertices:
                    one_length = len({plans[m].length
                                      for m in g.index_set(s)}) <= 1
                    ok = privacy_check(plans, g, s).ok
                    assert ok == one_length, (n, edges, t, s)
                    verdicts[ok] += 1
    assert families == 198
    assert verdicts == {True: 845, False: 510}


# --- stricter hide-everything probe ---------------------------------------------

def test_probe_shows_local_but_not_global_privacy(c4, c4_plans):
    rep = canonical_privacy_probe(c4_plans, c4, 1)
    assert rep.reference_theta == 1
    assert rep.distinguishable == (2, 3)
    assert not rep.canonical
    obj = rep.to_json()
    assert obj == {"server": 1, "reference_theta": 1,
                   "distinguishable": [2, 3], "canonical": False}


def test_probe_is_canonical_on_single_edge():
    g = family("path", 2)
    plans = build_plan_family(g, et_config(1, 1))
    rep = canonical_privacy_probe(plans, g, 1)
    assert rep.canonical and rep.distinguishable == ()


def test_probe_is_canonical_at_uncontacted_star_center():
    # the hub is the highest-numbered vertex; it never receives a query,
    # so its (empty) view is identical for every desired message
    star = family("star", 5)
    plans = build_plan_family(star, bipartite_config())
    rep = canonical_privacy_probe(plans, star, 5)
    assert rep.canonical

    leaf = canonical_privacy_probe(plans, star, 1)
    assert leaf.distinguishable == (2, 3, 4)


def test_probe_requires_every_plan(c4, c4_plans):
    partial = {t: p for t, p in c4_plans.items() if t != 3}
    with pytest.raises(EmptyInput):
        canonical_privacy_probe(partial, c4, 1)


def test_probe_gives_an_unsendable_layout_no_view_class(c4, c4_plans):
    # a layout that cannot be sent is refused when built, so the probe
    # never meets one: theta=1's server-1 atom reading position 3 of a
    # length-2 message, or theta=2's at server 2
    for theta, server, atom, text in [
            (1, 1, ((1, 3), (4, 1)), "position 3 outside message 1"),
            (2, 2, ((1, 1), (2, 3)), "position 3 outside message 2")]:
        queries = {**c4_plans[theta].queries, server: (atom,)}
        with pytest.raises(UnresolvableRef) as refused:
            mutated_family(c4_plans, theta, queries)
        assert str(refused.value) == (
            f"server {server} atom 0 reads {text} of length 2")
    # at server 2, theta=2 shares the reference's class
    assert canonical_privacy_probe(c4_plans, c4, 2).distinguishable == (3, 4)


# --- decoding ------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 5])
def test_decode_check_passes(c4, c4_plans, q):
    rep = decode_check(c4_plans, c4, q=q, seeds=8)
    assert rep.ok
    assert rep.verdict == "PASS"
    assert rep.trials == 4 * 8
    assert rep.to_json() == {"trials": 32, "verdict": "PASS", "failures": []}


def test_decode_check_catches_wrong_occurrence_index(c4, c4_plans):
    mutated = mutated_family(c4_plans, 1, corrupt_gamma(c4_plans[1]))
    rep = decode_check(mutated, c4, q=2, seeds=16)
    assert not rep.ok
    assert rep.failures
    assert all(f["theta"] == 1 for f in rep.failures)
    assert all({"theta", "seed", "reason"} == set(f) for f in rep.failures)
    # the certificate names the step and the refs it leaves; rechecked by
    # hand: source ((1, 2), (2, 1)) minus the corrupted cancel ((2, 2),)
    assert rep.failures[0] == {
        "theta": 1, "seed": None,
        "reason": "step 2 (source (2, 0), cancel [(3, 0)]) leaves "
                  "{(1, 2): 1, (2, 1): 1, (2, 2): 1}, not {(1, 2): 1}"}
    assert mutated[1].queries[2][0] == ((1, 2), (2, 1))
    assert mutated[1].queries[3][0] == ((2, 2),)
    # the corrupted singleton still looks private
    for server in c4.vertices:
        assert privacy_check(mutated, c4, server).ok


def test_a_plan_that_never_queries_theta_fails_to_decode(c4):
    # Each atom holding message 1 asks for its server's other message
    # instead, and the recipe still reads those answers as message 1.
    plans = build_plan_family(c4, et_config(1))
    other = {s: next(m for m in c4.index_set(s) if m != 1)
             for s in plans[1].queries}
    queries = {s: tuple(((other[s], atom[0][1]),) if atom[0][0] == 1
                        else atom for atom in atoms)
               for s, atoms in plans[1].queries.items()}
    mutated = mutated_family(plans, 1, queries)
    assert 1 not in mutated[1].referenced_messages()
    rep = decode_check(mutated, c4, q=5, seeds=8)
    assert not rep.ok
    assert all({"theta", "seed", "reason"} == set(f) for f in rep.failures)
    # the certificate's entry has no seed; every run's entry is a wrong decode
    assert all(f["theta"] == 1 and (f["seed"] is None
                                    or f["reason"].startswith("decoded "))
               for f in rep.failures)
    assert [f["reason"] for f in rep.failures if f["seed"] is None] \
        == ["step 1 (source (1, 0), cancel []) leaves {(4, 1): 1}, "
            "not {(1, 1): 1}"]
    assert not all(execute_plan(mutated[1], seed, q=5).decoded_ok
                   for seed in range(8))


def test_one_seed_misses_what_the_certificate_catches():
    # corrupt_gamma on cycle-3 t=2, theta=1: the one run at seed 0 decodes
    # correctly by chance at q=2, so one sampled run alone says PASS
    _, g, plans = next(c for c in corpus_plans() if c[0] == "cycle3-t2")
    mutated = mutated_family(plans, 1, corrupt_gamma(plans[1]))
    rep = decode_check(mutated, g, q=2, seeds=1)
    assert rep.verdict == "FAIL" and rep.trials == 3
    assert [(f["theta"], f["seed"]) for f in rep.failures] == [(1, None)]
    assert not seeded_decode_ok(mutated[1], q=2)


def test_default_verdicts_run_no_executor(monkeypatch, tmp_path, capsys):
    # The certificate, privacy and cost checks decide every verdict on
    # the shipped corpus: check_scheme, measure_rate and `verify` run no
    # plan unless asked to.
    def unreachable(*args, **kwargs):
        raise AssertionError("a default verdict ran the executor")

    for module in (scheme, sim, verify):
        monkeypatch.setattr(module, "_execute", unreachable)
    path = tmp_path / "graph.json"
    for label, g, cfg in shipped_corpus():
        rep = check_scheme(build_plan_family(g, cfg), g)
        assert rep.verdict == "PASS" and rep.decode.trials == 0, label
        assert measure_rate(g, cfg).decoded_ok, label
        if cfg.kind == "fixture":
            continue            # the CLI builds no fixture plans
        path.write_text(json.dumps(graph_to_json(g)))
        ts = (("--t-i", str(cfg.t_i), "--t-j", str(cfg.t_j))
              if cfg.kind == "et" else ("--scheme", cfg.kind))
        assert main(["verify", "--graph", str(path), *ts]) == 0, label
        assert "decode: PASS (exact)\n" in capsys.readouterr().out


@pytest.mark.parametrize("seeds", [0, 1])
def test_certificate_agrees_with_seeded_runs_on_corpus_and_mutations(seeds):
    # The shipped corpus and every strip_offset, corrupt_gamma and
    # silence_server mutation of each plan, at q in {2, 3, 5}: the
    # certificate's verdict equals 32 seeded end-to-end runs', with or
    # without runs of decode_check's own, so zero runs is not vacuous.
    checks = failing = 0
    for label, g, plans in corpus_plans():
        for theta, plan in plans.items():
            for queries in [plan.queries, *mutations(plan)]:
                single = {theta: plan_with_queries(plan, queries)}
                for q in (2, 3, 5):
                    rep = decode_check(single, g, q=q, seeds=seeds)
                    assert rep.trials == seeds
                    certified = all(f["seed"] is not None
                                    for f in rep.failures)
                    assert certified == seeded_decode_ok(single[theta], q), \
                        (label, theta, queries, q)
                    checks += 1
                    failing += not certified
    assert checks > 1000 and 0 < failing < checks


@pytest.mark.parametrize("bad", ["L+1", "0"])
def test_positions_outside_the_message_fail_without_index_error(c4, c4_plans,
                                                                bad):
    # theta=1 on cycle-4 t=2 (L=2): the singleton (2, 1) at server 3, or
    # the atom's (1, 1) at server 1, moves to position 3 or 0, which no
    # permutation of the message has; building the plan raises the
    # package's error, not an IndexError
    pos = 3 if bad == "L+1" else 0
    for server, atom, message in [(3, ((2, 1),), 2),
                                  (1, ((1, 1), (4, 1)), 1)]:
        queries = dict(c4_plans[1].queries)
        assert queries[server] == (atom,)
        queries[server] = (((message, pos),) + atom[1:],)
        with pytest.raises(LocalPIRError) as refused:
            mutated_family(c4_plans, 1, queries)
        assert type(refused.value) is UnresolvableRef
        assert str(refused.value) == (
            f"server {server} atom 0 reads position {pos} outside message "
            f"{message} of length 2")
    assert check_scheme(c4_plans, c4).ok


def test_a_recipe_position_outside_the_message_fails_to_decode(c4, c4_plans):
    # step k recovers position k, so a third step on a length-2 message
    # would recover position 3: the certificate and every run refuse it
    plan = c4_plans[1]
    mutated = dict(c4_plans)
    mutated[1] = dataclasses.replace(plan,
                                     recipe=plan.recipe + plan.recipe[1:])
    rep = decode_check(mutated, c4, q=2, seeds=2)
    assert [(f["seed"], f["reason"]) for f in rep.failures] == [
        (None, "recipe has 3 steps, not 2"),
        (0, "UndecodablePlan: recipe has 3 steps, not 2"),
        (1, "UndecodablePlan: recipe has 3 steps, not 2")]


def test_a_reversed_recipe_fails_the_certificate_and_the_runs(c4, c4_plans):
    # cycle-4 t=2, theta=1: reversed, step 1 reads the atom holding
    # position 2, so the certificate names step 1, and a run decodes
    # wrongly unless the two symbols it swaps happen to be equal
    plan = c4_plans[1]
    mutated = dict(c4_plans)
    mutated[1] = dataclasses.replace(plan, recipe=plan.recipe[::-1])
    rep = decode_check(mutated, c4, q=3, seeds=50)
    certificate, *runs = rep.failures
    assert certificate == {
        "theta": 1, "seed": None,
        "reason": "step 1 (source (2, 0), cancel [(3, 0)]) leaves "
                  "{(1, 2): 1}, not {(1, 1): 1}"}
    assert all(f["reason"].startswith("decoded ") for f in runs)
    assert 0 < len(runs) < 50


def test_a_family_filed_under_the_wrong_messages_is_refused():
    # star-4's cover plans for messages 1 and 2, each filed under the other
    g = family("star", 4)
    plans = build_plan_family(g, bipartite_config())
    swapped = {**plans, 1: plans[2], 2: plans[1]}
    for check in (lambda: check_scheme(swapped, g),
                  lambda: decode_check(swapped, g, seeds=2)):
        with pytest.raises(InvalidFamilyParams, match="^the plan filed under "
                           "message 1 retrieves message 2$"):
            check()


@pytest.mark.parametrize("seeds", [-1])
def test_decode_check_refuses_fewer_than_one_seed(c4, c4_plans, seeds):
    # zero runs are the default, since the certificate decides the verdict
    with pytest.raises(LocalPIRError):
        decode_check(c4_plans, c4, seeds=seeds)
    with pytest.raises(LocalPIRError):
        check_scheme(c4_plans, c4, seeds=seeds)


# --- cost audit ----------------------------------------------------------------

def test_cost_audit_cycle_values(c4, c4_plans):
    rep = cost_audit(c4_plans, c4)
    assert rep.ok
    assert rep.per_theta == {1: 4, 2: 4, 3: 4, 4: 4}
    assert rep.expected_download == Fraction(4)
    assert rep.rate == Fraction(1, 2)
    assert rep.per_server == {s: Fraction(1) for s in c4.vertices}


def test_cost_audit_complete_values(k4_plans):
    g, plans = k4_plans
    rep = cost_audit(plans, g)
    assert rep.ok
    assert rep.expected_download == Fraction(10)
    assert rep.rate == Fraction(2, 5)
    assert sum(rep.per_server.values()) == rep.expected_download
    json.dumps(rep.to_json())


def test_cost_audit_flags_closed_form_mismatch(c4, c4_plans):
    # one atom fetched twice still decodes; the degrees in the graph give
    # the closed form, so no meta the plan carries can hide the extra atom
    queries = dict(c4_plans[1].queries)
    queries[3] += queries[3]
    tampered = {**c4_plans,
                1: dataclasses.replace(c4_plans[1], queries=queries)}
    rep = cost_audit(tampered, c4)
    assert decode_check(tampered, c4).ok
    assert rep.mismatches == ["theta 1: downloaded 5, closed form says 4"]


def test_a_family_that_downloads_nothing_fails_at_rate_zero():
    # path-2's cover plan with its one server silenced
    g = family("path", 2)
    plans = build_plan_family(g, bipartite_config())
    [server] = plans[1].queries
    rep = check_scheme(mutated_family(plans, 1,
                                      silence_server(plans[1], server)), g)
    assert rep.verdict == "FAIL" and not rep.cost.ok
    assert rep.cost.rate == 0
    assert rep.cost.mismatches[-1] == "no plan downloads anything"


def test_cost_audit_rejects_empty(c4):
    with pytest.raises(EmptyInput):
        cost_audit({}, c4)


# --- combined report -----------------------------------------------------------

def test_plans_built_on_another_graph_are_refused(c4, c4_plans):
    # A plan is checked sendable against its own graph only.  An equal
    # graph built again is the same storage; path-5 has as many messages
    # and other servers.
    assert check_scheme(c4_plans, build_graph(4, c4.edges)).ok
    path5 = family("path", 5)
    for check in (lambda: decode_check(c4_plans, path5),
                  lambda: cost_audit(c4_plans, path5),
                  lambda: privacy_check(c4_plans, path5, 1),
                  lambda: canonical_privacy_probe(c4_plans, path5, 1),
                  lambda: check_scheme(c4_plans, path5)):
        with pytest.raises(InvalidFamilyParams, match="^the plan for "
                           "message 1 is built on another graph$"):
            check()


def test_check_scheme_aggregates(c4, c4_plans):
    rep = check_scheme(c4_plans, c4, seeds=4)
    assert rep.ok and rep.verdict == "PASS"
    assert len(rep.privacy) == 4
    obj = rep.to_json()
    assert set(obj) == {"verdict", "privacy", "decode", "cost"}
    json.dumps(obj)


def test_check_scheme_fails_closed(c4, c4_plans):
    mutated = mutated_family(c4_plans, 2, silence_server(c4_plans[2], 3))
    rep = check_scheme(mutated, c4, seeds=2)
    assert rep.verdict == "FAIL"


# --- position-shift mutation ------------------------------------------------

def test_stripped_offset_is_undecodable_not_unprivate(c4, c4_plans):
    stripped = strip_offset(c4_plans[1])
    # no valid decoding recipe exists: one position arrives twice
    with pytest.raises(UndecodablePlan):
        derive_recipe(stripped, c4_plans[1].theta, c4_plans[1].length)
    # replaying with the original recipe decodes the wrong symbols
    mutated = mutated_family(c4_plans, 1, stripped)
    rep = decode_check(mutated, c4, q=2, seeds=16)
    assert not rep.ok
    assert all(f["theta"] == 1 for f in rep.failures)
    # yet every server's view is unchanged as a distribution
    for server in c4.vertices:
        assert privacy_check(mutated, c4, server).ok
