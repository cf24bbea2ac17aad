"""Exact capacity bounds for local retrieval on replicated storage.

Every bound is an exact rational, a `fractions.Fraction`: the lower bounds
are rates of schemes this package runs.  Floats appear only in reports as
approximations and in third-party comparison literals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt

from .errors import (
    EmptyInput,
    InvalidFamilyParams,
    NotBipartite,
    TOutOfRange,
    UnsupportedFamily,
)
from .graphs import (
    FAMILIES,
    Graph,
    bipartition,
    check_size,
    components,
    detect_family,
)


class BoundValue(Fraction):
    """An exact rational bound, with the JSON form reports print."""

    __slots__ = ()

    def as_fraction(self) -> Fraction:
        return Fraction(self)

    def to_json(self) -> dict:
        # "radicand" is always 1: kept so readers of the JSON stay unchanged.
        return {"num": self.numerator, "den": self.denominator,
                "radicand": 1, "approx": float(self)}


@dataclass(frozen=True)
class Comparator:
    """A cited capacity value for the non-local (fully private) problem."""

    value: float | None
    source: str
    note: str = ""

    def to_json(self) -> dict:
        return {"value": self.value, "source": self.source, "note": self.note}


@dataclass
class BoundReport:
    family: str
    n: int
    lower: BoundValue
    upper: BoundValue
    optimizer: tuple[int, int] | None = None
    comparators: list[Comparator] = field(default_factory=list)

    @property
    def exact(self) -> bool:
        """Whether the bounds meet, so the capacity is known exactly."""
        return self.lower == self.upper

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "lower": self.lower.to_json(),
            "upper": self.upper.to_json(),
            "exact": self.exact,
            "optimizer": (None if self.optimizer is None else
                          {"t_i": self.optimizer[0], "t_j": self.optimizer[1]}),
            "pir_comparators": [c.to_json() for c in self.comparators],
        }


# --- achievable-rate arithmetic ---------------------------------------------

def union_capacity(parts) -> Fraction:
    """The one rate formula: K / sum over messages of D_theta / L_theta.

    parts: iterable of (message_count, sum of D/L over those messages),
    such as (K_c, K_c / R_c) per component of a union, or (1, D/L) per
    plan of a family.  It is the rate once every message is
    repeated to one common length L (Sun & Jafar, "The capacity of private
    information retrieval", 2017), so K*L / sum D when all lengths are L.
    The parts must download something.
    """
    parts = list(parts)
    if not parts:
        raise EmptyInput("no components given")
    # Integer sums over one denominator: Fraction sums are much slower.
    den = math.lcm(*(d.denominator for (_, d) in parts))
    cost = sum(d.numerator * (den // d.denominator) for (_, d) in parts)
    if cost <= 0:
        raise InvalidFamilyParams("the parts download nothing")
    return Fraction(sum(k for (k, _) in parts) * den, cost)


def subpacketization(deg_i: int, deg_j: int, t_i: int, t_j: int) -> int:
    """Message length L used by the t-sum construction."""
    _check_t(t_i, deg_i)
    _check_t(t_j, deg_j)
    return comb(deg_i - 1, t_i - 1) + comb(deg_j - 1, t_j - 1)


def et_download_cost(deg_i: int, deg_j: int, t_i: int, t_j: int) -> int:
    """Exact symbol count a t-sum plan downloads.

    Sum atoms: C(d_i, t_i) + C(d_j, t_j).  Interference singletons: each of
    the d-1 non-desired messages at an endpoint appears in C(d-2, t-2)
    subsets together with the desired one.
    """
    _check_t(t_i, deg_i)
    _check_t(t_j, deg_j)
    total = comb(deg_i, t_i) + comb(deg_j, t_j)
    if t_i >= 2:
        total += (deg_i - 1) * comb(deg_i - 2, t_i - 2)
    if t_j >= 2:
        total += (deg_j - 1) * comb(deg_j - 2, t_j - 2)
    return total


def _check_t(t: int, deg: int) -> None:
    if not 1 <= t <= deg:
        raise TOutOfRange(f"t={t} outside 1..{deg}")


def et_rate(d_i: int, d_j: int, t_i: int, t_j: int) -> Fraction:
    """Exact rate of the t-sum plan: message length over download."""
    return Fraction(subpacketization(d_i, d_j, t_i, t_j),
                    et_download_cost(d_i, d_j, t_i, t_j))


def et_lower_bound(d_i: int, d_j: int) -> tuple[Fraction, int, int]:
    """Best t-sum rate over every (t_i, t_j), ties to the least pair.

    With equal degrees d the rate at (t_i, t_j) is 1 over a mean of
    x_t = d/t + t - 1 at t_i and t_j, weighted by C(d-1, t-1).  So the
    lexicographically least optimum is (t, t) at the smaller minimiser of
    x_t, which lies next to sqrt(d): only floor and ceiling need checking.
    Otherwise the search is integer-only: the rate for (t_i, t_j) equals
    t_i*t_j*(b_i+b_j) / (g_i*t_j + g_j*t_i) with b = C(d-1, t-1) and
    g = b*(d + t*(t-1)).
    """
    if d_i < 1 or d_j < 1:
        raise TOutOfRange(f"degrees must be >= 1, got ({d_i},{d_j})")
    if d_i == d_j:
        root = isqrt(d_i)
        # max keeps the first of equal rates, so the smaller t wins a tie
        t = max((root,) if root * root == d_i else (root, root + 1),
                key=lambda t: Fraction(t, d_i + t * (t - 1)))
        return Fraction(t, d_i + t * (t - 1)), t, t
    bs_i = [comb(d_i - 1, t - 1) for t in range(1, d_i + 1)]
    bs_j = [comb(d_j - 1, t - 1) for t in range(1, d_j + 1)]
    gs_i = [b * (d_i + t * (t - 1)) for t, b in enumerate(bs_i, start=1)]
    gs_j = [b * (d_j + t * (t - 1)) for t, b in enumerate(bs_j, start=1)]
    best_num, best_den = 0, 1
    best_pair = (1, 1)
    for t_i in range(1, d_i + 1):
        for t_j in range(1, d_j + 1):
            num = t_i * t_j * (bs_i[t_i - 1] + bs_j[t_j - 1])
            den = gs_i[t_i - 1] * t_j + gs_j[t_j - 1] * t_i
            if num * best_den > best_num * den:
                best_num, best_den, best_pair = num, den, (t_i, t_j)
    return Fraction(best_num, best_den), best_pair[0], best_pair[1]


def equal_degree_bound(d: int) -> Fraction:
    """Closed-form best t-sum rate when both endpoints have degree d."""
    return et_lower_bound(d, d)[0]


def cover_part(g: Graph) -> tuple[frozenset[int], int]:
    """The cover plan's covering part: (its servers, its cost).

    The covering part is the part of `bipartition` with the smaller sum of
    squared degrees (ties: part 1), and its cost is that sum: each server
    v there sends d(v) symbols for each of its d(v) messages.  Computed
    once per graph; `verify.cost_audit` reads d(v) off the graph too.
    """
    return g.cached("cover_part", _cover_part)


def _cover_part(g: Graph) -> tuple[frozenset[int], int]:
    partition = bipartition(g)
    if partition is None:
        raise NotBipartite("graph is not two-colorable")
    sums = [sum(g.degree(v) ** 2 for v in part) for part in partition]
    m = 0 if sums[0] <= sums[1] else 1
    return frozenset(partition[m]), sums[m]


def best_scheme(g: Graph) -> tuple[Fraction, tuple[int, int] | None]:
    """The scheme this package runs on one connected graph, with its rate.

    The t-sum plan runs at its tuned subset sizes when every edge joins the
    same degree pair, and with singleton sums (t=1), which work on any
    storage graph, otherwise; the cover plan replaces it when the graph is
    two-colorable and the cover rate is strictly higher.  Returns
    (rate, (t_i, t_j)) for a t-sum plan, t_i belonging to the smaller
    degree, and (rate, None) for the cover plan.
    """
    if not g.K:
        raise EmptyInput("graph has no edges")
    degrees = g.degrees()
    pairs = {tuple(sorted((degrees[u - 1], degrees[v - 1])))
             for (u, v) in g.edges}
    if len(pairs) == 1:
        value, t_i, t_j = et_lower_bound(*pairs.pop())
        best = (value, (t_i, t_j))
    else:
        best = (Fraction(2 * g.K, sum(d * d for d in degrees)), (1, 1))
    if bipartition(g) is not None:
        # the cover plan's rate: K over the smaller sum of squared degrees
        cover = Fraction(g.K, cover_part(g)[1])
        if cover > best[0]:
            best = (cover, None)
    return best


def component_schemes(g: Graph) -> tuple[tuple, ...]:
    """One (component, rate, ts) per component storing messages.

    rate and ts are `best_scheme`'s.  Computed once per graph.
    """
    return g.cached("component_schemes", _component_schemes)


def _component_schemes(g: Graph) -> tuple[tuple, ...]:
    # An isolated server stores nothing, so it gets no row.
    return tuple((comp, *best_scheme(comp.graph))
                 for comp in components(g) if comp.graph.K)


# --- per-family reports ------------------------------------------------------

def family_bounds(name: str, n: int) -> BoundReport:
    """Best known lower/upper capacity bounds for a named family.

    `lower` is the exact rate of a scheme the package runs on the family;
    the comparators are cited values for the fully private problem.
    """
    if name not in FAMILIES:
        raise UnsupportedFamily(f"no bounds on record for family {name!r}")
    check_size(name, n)
    if name == "cycle":
        half = BoundValue(Fraction(1, 2))
        return BoundReport(
            "cycle", n, half, half,
            comparators=[Comparator(float(Fraction(2, n + 1)), "BU19",
                                    f"full privacy: 2/(n+1) = {Fraction(2, n + 1)}")])
    if name == "path":
        lower = Fraction(n - 1, 2 * n - 4) if n % 2 else Fraction(n - 1, 2 * n - 3)
        upper = Fraction(n - 1, 2 * n - 4) if n >= 3 else Fraction(1)
        return BoundReport(
            "path", n, BoundValue(lower), BoundValue(upper),
            comparators=[Comparator(float(Fraction(2, n)), "journal2025",
                                    f"full privacy: 2/n = {Fraction(2, n)}")])
    if name == "star":
        one = BoundValue(1)
        return BoundReport(
            "star", n, one, one,
            comparators=[Comparator(None, "SGT23",
                                    "full privacy: Theta(1/sqrt(n))")])
    if name == "complete":
        return _regular_report("complete", n, n - 1,
                               _complete_comparators(n))
    # complete_bipartite: t = 1 already attains the cover rate 1/d, so the
    # t-sum optimum is never below it and best_scheme keeps the t-sum plan.
    return _regular_report(
        "complete_bipartite", n, n // 2,
        [Comparator(float(Fraction(4, 3 * n)), "krishnan_graph",
                    f"full privacy lower: 4/(3n) = {Fraction(4, 3 * n)}"),
         Comparator(_reciprocal(n, math.exp(0.5) - 1), "gePIR",
                    "full privacy upper (asymptotic): 1/(n(e^0.5 - 1))")])


def _regular_report(name: str, n: int, d: int, comparators) -> BoundReport:
    """Report for a d-regular family member, the tuned t-sum rate below.

    A 2-regular member (complete-3, K(2,2)) is a cycle and takes the cycle
    converse 1/2; every other member has the trivial upper bound 1.
    """
    value, t_i, t_j = et_lower_bound(d, d)
    upper = value if d == 2 else Fraction(1)
    return BoundReport(name, n, BoundValue(value), BoundValue(upper),
                       optimizer=(t_i, t_j), comparators=comparators)


def _complete_comparators(n: int) -> list[Comparator]:
    if n == 4:
        return [Comparator(0.35, "gePIR", "full privacy lower (cited)"),
                Comparator(0.3529, "gePIR", "full privacy upper (cited)")]
    return [
        Comparator(float(Fraction(4, 3 * n)), "gePIR",
                   "full privacy lower: (4/3 - o(1))/n, o(1) dropped"),
        Comparator(_reciprocal(n, math.e - 2), "gePIR",
                   "full privacy upper (asymptotic): 1/(n(e - 2))"),
    ]


def _reciprocal(n: int, c: float) -> float:
    """1 / (n c) in floats, or 0.0 where n is beyond the float range."""
    try:
        return 1.0 / (n * c)
    except OverflowError:
        return 0.0


def graph_bounds(g: Graph) -> BoundReport:
    """Bounds for an arbitrary storage graph.

    Recognized family members get their family report.  Otherwise the
    lower bound is the rate of `best_scheme`, composed over the components
    of a disconnected graph; the upper bound is the trivial 1 unless every
    component's capacity is exact.
    """
    if len(components(g)) > 1:
        return _union_graph_bounds(g)
    report = _family_report(g)
    if report is not None:
        return report
    value, optimizer = best_scheme(g)
    return BoundReport("custom", g.n_vertices, BoundValue(value),
                       BoundValue(1), optimizer=optimizer)


def _family_report(g: Graph) -> BoundReport | None:
    """The report of a connected family member; K(a, b) needs a == b."""
    det = detect_family(g)
    if det is None or det[1].get("a") != det[1].get("b"):
        return None
    name, params = det
    return family_bounds(name, params.get("n", sum(params.values())))


def _union_graph_bounds(g: Graph) -> BoundReport:
    """Compose the component table; isolated servers add nothing."""
    table = component_schemes(g)
    all_exact = True
    for comp, rate, _ in table:
        # Outside the families only rate 1 meets the trivial upper bound.
        report = _family_report(comp.graph)
        all_exact = all_exact and (rate == 1 if report is None
                                   else report.exact)
    lower = BoundValue(union_capacity((comp.graph.K, comp.graph.K / rate)
                                      for comp, rate, _ in table))
    upper = lower if all_exact else BoundValue(1)
    return BoundReport("union", g.n_vertices, lower, upper)
