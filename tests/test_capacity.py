"""Capacity bounds: golden values, optimizer search, exact arithmetic."""

import functools
import time
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from localpir.capacity import (
    BoundValue,
    best_scheme,
    cover_part,
    equal_degree_bound,
    et_lower_bound,
    et_rate,
    family_bounds,
    graph_bounds,
    union_capacity,
)
from localpir.errors import (
    EmptyInput,
    InvalidFamilyParams,
    NotBipartite,
    TOutOfRange,
    UnsupportedFamily,
)
from localpir import graphs
from localpir.graphs import FAMILIES, Graph, build_graph, family


# --- BoundValue arithmetic ---------------------------------------------------

def test_bound_value_fraction_access():
    half = BoundValue(Fraction(1, 2))
    assert isinstance(half, Fraction)
    assert half == Fraction(1, 2) and str(half) == "1/2"
    assert type(half.as_fraction()) is Fraction
    assert half.as_fraction() == Fraction(1, 2)
    assert BoundValue(Fraction(2, 5)).to_json() == {
        "num": 2, "den": 5, "radicand": 1, "approx": 0.4}


# --- achievable-rate arithmetic ---------------------------------------------

def test_union_capacity_mixed_example():
    # 4-cycle (4 messages, length 2, download 4 each: D/L sums to 8) plus
    # a 5-star (4 messages, length 1, download 1 each: 4): 8/(8+4) = 2/3.
    assert union_capacity([(4, 8), (4, 4)]) == Fraction(2, 3)


def test_union_capacity_identical_parts_keep_the_rate():
    single = union_capacity([(4, 8)])
    assert union_capacity([(4, 8)] * 3) == single == Fraction(1, 2)


def test_union_capacity_rejects_empty():
    with pytest.raises(EmptyInput):
        union_capacity([])


def test_union_capacity_rejects_parts_that_download_nothing():
    with pytest.raises(InvalidFamilyParams):
        union_capacity([(4, 0)])


def test_et_rate_examples():
    assert et_rate(2, 2, 2, 2) == Fraction(1, 2)
    assert et_rate(3, 3, 2, 2) == Fraction(2, 5)
    assert et_rate(4, 4, 2, 2) == Fraction(1, 3)


@given(st.integers(1, 9), st.integers(1, 9), st.data())
def test_et_rate_is_weighted_mean_of_per_endpoint_costs(d_i, d_j, data):
    t_i = data.draw(st.integers(1, d_i))
    t_j = data.draw(st.integers(1, d_j))
    # Share of the desired message the first endpoint delivers.
    b_i, b_j = comb(d_i - 1, t_i - 1), comb(d_j - 1, t_j - 1)
    lam = Fraction(b_i, b_i + b_j)
    f_i = Fraction(d_i, t_i) + t_i - 1
    f_j = Fraction(d_j, t_j) + t_j - 1
    inverse = lam * f_i + (1 - lam) * f_j
    assert et_rate(d_i, d_j, t_i, t_j) == 1 / inverse
    assert min(f_i, f_j) <= inverse <= max(f_i, f_j)


def comb0(n, k):
    return comb(n, k) if 0 <= k <= n else 0


@functools.cache
def brute_et_optimum(d_i, d_j):
    # every (t_i, t_j) in lexicographic order, so ties keep the least pair
    best = None
    for t_i in range(1, d_i + 1):
        for t_j in range(1, d_j + 1):
            r = Fraction(comb0(d_i - 1, t_i - 1) + comb0(d_j - 1, t_j - 1),
                         (comb0(d_i, t_i) + comb0(d_j, t_j)
                          + (d_i - 1) * comb0(d_i - 2, t_i - 2)
                          + (d_j - 1) * comb0(d_j - 2, t_j - 2)))
            if best is None or r > best[0]:
                best = (r, t_i, t_j)
    return best


@pytest.mark.parametrize("d_i,d_j", [
    (1, 4), (2, 5), (4, 7), (9, 3), *((d, d) for d in range(1, 61)),
])
def test_et_lower_bound_matches_direct_ratio_search(d_i, d_j):
    # Independent oracle: rank by the plain length/download ratio.
    got = et_lower_bound(d_i, d_j)
    assert got == brute_et_optimum(d_i, d_j)
    assert et_rate(d_i, d_j, got[1], got[2]) == got[0]


def test_et_lower_bound_known_values():
    assert et_lower_bound(3, 3) == (Fraction(2, 5), 2, 2)
    assert et_lower_bound(8, 8) == (Fraction(3, 14), 3, 3)
    assert et_lower_bound(2, 2) == (Fraction(1, 2), 1, 1)
    assert et_lower_bound(1, 1) == (Fraction(1), 1, 1)


def test_et_lower_bound_tie_break_is_lexicographic():
    # d=6 ties f at t=2 and t=3; every pair drawn from {2,3} achieves the
    # optimum, and the reported one must be (2, 2).
    value, t_i, t_j = et_lower_bound(6, 6)
    assert (t_i, t_j) == (2, 2)
    assert et_rate(6, 6, 3, 3) == value
    assert et_rate(6, 6, 2, 3) == value


@given(st.integers(1, 9), st.integers(1, 9), st.data())
def test_et_lower_bound_dominates_every_choice(d_i, d_j, data):
    value, _, _ = et_lower_bound(d_i, d_j)
    t_i = data.draw(st.integers(1, d_i))
    t_j = data.draw(st.integers(1, d_j))
    assert et_rate(d_i, d_j, t_i, t_j) <= value


@pytest.mark.parametrize("d", list(range(1, 41)))
def test_equal_degree_bound_matches_brute_force_small(d):
    value, t_i, t_j = brute_et_optimum(d, d)
    assert equal_degree_bound(d) == value
    assert t_i == t_j
    assert t_i in {isqrt(d), isqrt(d) + 1}


def test_equal_degree_bound_rejects_bad_degree():
    with pytest.raises(TOutOfRange):
        equal_degree_bound(0)


@pytest.mark.parametrize("name,ns,degree", [
    ("complete", range(2, 101), lambda n: n - 1),
    ("complete_bipartite", range(2, 201, 2), lambda n: n // 2),
], ids=["complete", "complete_bipartite"])
def test_regular_family_bounds_match_the_brute_force_optimum(name, ns,
                                                            degree):
    # degrees up to 100: the closed form against the direct ratio search
    for n in ns:
        rep = family_bounds(name, n)
        value, t_i, t_j = brute_et_optimum(degree(n), degree(n))
        assert (rep.lower.as_fraction(), rep.optimizer) == (value, (t_i, t_j))


def test_large_complete_bounds_skip_the_quadratic_search():
    # et_lower_bound(2999, 2999) took about 45 s over big integers
    start = time.perf_counter()
    rep = family_bounds("complete", 3000)
    assert time.perf_counter() - start < 1
    assert rep.optimizer == (55, 55)
    assert rep.lower.as_fraction() == Fraction(55, 5969)


# --- cover bound -------------------------------------------------------------

def cover_rate(g):
    """The cover plan's rate: K over the covering part's cost."""
    return Fraction(g.K, cover_part(g)[1])


def test_bipartite_lower_bound_values():
    assert cover_rate(family("path", 5)) == Fraction(2, 3)
    assert cover_rate(family("star", 7)) == Fraction(1)
    assert cover_rate(family("cycle", 4)) == Fraction(1, 2)
    assert cover_rate(
        family("complete_bipartite", a=3, b=3)) == Fraction(1, 3)


def test_bipartite_lower_bound_rejects_odd_cycles():
    with pytest.raises(NotBipartite):
        cover_part(family("cycle", 5))


def test_best_scheme_refuses_a_graph_without_edges():
    with pytest.raises(EmptyInput, match="^graph has no edges$"):
        best_scheme(Graph(3, ()))


# --- family reports ----------------------------------------------------------

def test_cycle_bounds_exact_half():
    for n in range(3, 9):
        rep = family_bounds("cycle", n)
        assert rep.lower.as_fraction() == Fraction(1, 2)
        assert rep.upper.as_fraction() == Fraction(1, 2)
        assert rep.exact


def test_path_bounds_spot_values():
    assert family_bounds("path", 5).lower.as_fraction() == Fraction(2, 3)
    assert family_bounds("path", 5).exact
    assert family_bounds("path", 7).lower.as_fraction() == Fraction(3, 5)
    assert family_bounds("path", 7).exact
    p6 = family_bounds("path", 6)
    assert p6.lower.as_fraction() == Fraction(5, 9)
    assert p6.upper.as_fraction() == Fraction(5, 8)
    assert not p6.exact
    p2 = family_bounds("path", 2)
    assert p2.lower.as_fraction() == Fraction(1) and p2.exact


def test_path_exactness_parity():
    for n in range(2, 12):
        assert family_bounds("path", n).exact == (n % 2 == 1 or n == 2)


def test_star_bounds_are_one():
    for n in range(2, 9):
        rep = family_bounds("star", n)
        assert rep.lower.as_fraction() == Fraction(1)
        assert rep.exact
        assert rep.comparators[0].value is None


def test_complete_bounds_k4():
    rep = family_bounds("complete", 4)
    assert rep.lower.as_fraction() == Fraction(2, 5)
    assert rep.optimizer == (2, 2)
    assert not rep.exact
    assert [c.value for c in rep.comparators] == [0.35, 0.3529]


def test_complete3_report_agrees_with_the_triangle_graph():
    rep = family_bounds("complete", 3)
    tri = graph_bounds(family("complete", 3))
    assert (rep.lower, rep.upper, rep.exact) == (tri.lower, tri.upper,
                                                 tri.exact)
    assert rep.upper.as_fraction() == Fraction(1, 2)
    assert rep.exact


@pytest.mark.parametrize("name", FAMILIES)
def test_family_report_agrees_with_its_graph(name):
    # `family` and `family_bounds` refuse exactly the same sizes, with
    # the same text, and agree on the rest
    checked = 0
    for n in range(-1, 13):
        try:
            rep = family_bounds(name, n)
        except InvalidFamilyParams as exc:
            with pytest.raises(InvalidFamilyParams) as refused:
                family(name, n)
            assert str(refused.value) == str(exc), n
            continue
        got = graph_bounds(family(name, n))
        assert (rep.lower, rep.upper, rep.exact) == (
            got.lower, got.upper, got.exact), n
        checked += 1
    assert checked >= 6


@pytest.mark.parametrize("one,other", [
    (("cycle", 3), ("complete", 3)),
    (("cycle", 4), ("complete_bipartite", 4)),
    (("path", 3), ("star", 3)),
])
def test_overlapping_family_members_agree(one, other):
    a, b = family_bounds(*one), family_bounds(*other)
    assert (a.lower, a.upper, a.exact) == (b.lower, b.upper, b.exact)


@pytest.mark.parametrize("name", ["cycle", "path", "star", "complete",
                                  "complete_bipartite"])
def test_family_lower_never_exceeds_upper(name):
    for n in range(2, 201):
        try:
            rep = family_bounds(name, n)
        except InvalidFamilyParams:
            continue
        assert rep.lower <= rep.upper, n


def test_complete_bipartite_bounds():
    rep = family_bounds("complete_bipartite", 4)
    assert rep.lower.as_fraction() == Fraction(1, 2)
    rep10 = family_bounds("complete_bipartite", 10)
    assert rep10.lower.as_fraction() == Fraction(2, 7)
    assert rep10.optimizer == (2, 2)


def test_comparator_literals():
    assert family_bounds("cycle", 4).comparators[0].value == 0.4
    assert family_bounds("path", 5).comparators[0].value == 0.4
    k6 = family_bounds("complete", 6)
    assert k6.comparators[0].value == pytest.approx(4 / 18)
    cb6 = family_bounds("complete_bipartite", 6)
    assert cb6.comparators[0].value == pytest.approx(4 / 18)


def test_family_bounds_validation():
    with pytest.raises(UnsupportedFamily):
        family_bounds("petersen", 10)
    with pytest.raises(InvalidFamilyParams):
        family_bounds("cycle", 2)
    with pytest.raises(InvalidFamilyParams):
        family_bounds("complete_bipartite", 5)


def test_bound_report_json_schema():
    obj = family_bounds("complete", 4).to_json()
    assert set(obj) >= {"family", "n", "lower", "upper", "exact",
                        "optimizer", "pir_comparators"}
    assert obj["optimizer"] == {"t_i": 2, "t_j": 2}
    assert obj["lower"] == {"num": 2, "den": 5, "radicand": 1, "approx": 0.4}
    assert all(set(c) == {"value", "source", "note"}
               for c in obj["pir_comparators"])


# --- whole-graph reports -----------------------------------------------------

def test_graph_bounds_recognizes_families():
    assert graph_bounds(family("cycle", 5)).family == "cycle"
    assert graph_bounds(family("complete", 4)).family == "complete"
    assert graph_bounds(
        family("complete_bipartite", a=3, b=3)).family == "complete_bipartite"


def test_graph_bounds_custom_graph():
    paw = build_graph(4, [(1, 2), (1, 3), (2, 3), (1, 4)])
    rep = graph_bounds(paw)
    assert rep.family == "custom"
    assert rep.lower.as_fraction() == Fraction(2 * 4, 9 + 4 + 4 + 1)
    assert rep.upper.as_fraction() == Fraction(1)
    assert not rep.exact


def test_graph_bounds_unbalanced_complete_bipartite():
    rep = graph_bounds(family("complete_bipartite", a=2, b=3))
    assert rep.family == "custom"
    # cover bound: 6 / min(4+4, 9+9... parts {1,2} deg 3 and {3,4,5} deg 2)
    assert rep.lower >= Fraction(6, 12)


def test_graph_bounds_union_composition():
    c4 = family("cycle", 4)
    two = family("disjoint_copies", base=c4, copies=2)
    rep = graph_bounds(two)
    assert rep.family == "union"
    assert rep.exact
    assert rep.lower.as_fraction() == Fraction(1, 2)

    s5 = family("star", 5)
    edges = list(c4.edges) + [(u + 4, v + 4) for (u, v) in s5.edges]
    mixed = build_graph(9, edges)
    rep = graph_bounds(mixed)
    assert rep.exact
    assert rep.lower.as_fraction() == Fraction(2, 3)


@pytest.mark.parametrize("label", ["complete40+isolated", "5xC4"])
def test_graph_bounds_finds_the_components_once(monkeypatch, label):
    # a component's graph is known to be connected, so recognising its
    # family must not search it for components again
    if label == "5xC4":
        g = family("disjoint_copies", base=family("cycle", 4), copies=5)
        want = family_bounds("cycle", 4)
    else:
        g = build_graph(41, family("complete", 40).edges)
        want = family_bounds("complete", 40)
    searched, find = [], graphs._components

    def counted(h):
        searched.append(h)
        return find(h)

    monkeypatch.setattr(graphs, "_components", counted)
    rep = graph_bounds(g)
    assert searched == [g]
    assert (rep.family, rep.lower, rep.exact) == ("union", want.lower,
                                                 want.exact)


def test_graph_bounds_union_with_open_component_is_not_exact():
    c4 = family("cycle", 4)
    paw = build_graph(4, [(1, 2), (1, 3), (2, 3), (1, 4)])
    edges = list(c4.edges) + [(u + 4, v + 4) for (u, v) in paw.edges]
    rep = graph_bounds(build_graph(8, edges))
    assert rep.family == "union"
    assert not rep.exact
    assert rep.upper.as_fraction() == Fraction(1)
