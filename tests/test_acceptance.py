"""Acceptance gate: the nine shipped guarantees, one verdict line each.

Run with `pytest tests/test_acceptance.py -v` (verdict lines print through
capture) or as part of the full suite.  Every check uses exact arithmetic;
time budgets are wall-clock on a desk machine.
"""

import time
from fractions import Fraction
from math import comb, factorial, isqrt, prod

import pytest

from helpers import corrupt_gamma, mutated_family, silence_server, \
    shipped_corpus, strip_offset
from localpir.capacity import (
    equal_degree_bound,
    et_lower_bound,
    et_rate,
    family_bounds,
    graph_bounds,
    union_capacity,
)
from localpir.errors import UndecodablePlan
from localpir.fixtures import C4_TABLE, K4_TABLE
from localpir.graphs import build_graph, family
from localpir.scheme import (
    build_plan_family,
    derive_recipe,
    et_config,
    union_config,
)
from localpir.sim import measure_rate
from localpir.verify import (
    canonical_privacy_probe,
    cost_audit,
    decode_check,
    privacy_check,
)


@pytest.fixture(scope="module")
def corpus():
    return [(label, g, build_plan_family(g, cfg))
            for (label, g, cfg) in shipped_corpus()]


def report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def as_multisets(queries_by_server):
    return {s: sorted(tuple(sorted(atom)) for atom in atoms)
            for s, atoms in queries_by_server.items() if atoms}


def test_criterion_1_four_cycle_reference_table(capsys):
    start = time.perf_counter()
    g = family("cycle", 4)
    plans = build_plan_family(g, et_config(2, 2))
    ok = all(
        as_multisets({s: plans[t].atoms_at(s) for s in g.vertices})
        == as_multisets(C4_TABLE[t])
        for t in g.messages)
    audit = cost_audit(plans, g)
    ok = ok and audit.per_theta == {t: 4 for t in g.messages}
    ok = ok and audit.rate == Fraction(1, 2)
    ok = ok and all(plans[t].length == 2 for t in g.messages)
    elapsed = time.perf_counter() - start
    report(capsys, 1, ok and elapsed < 1.0,
           f"4-cycle plan equals reference table for all 4 messages, "
           f"D_k=4, rate 1/2, {elapsed:.3f}s")


def test_criterion_2_complete_four_reference_table(capsys):
    start = time.perf_counter()
    g = family("complete", 4)
    plans = build_plan_family(g, et_config(2, 2))
    ok = all(
        as_multisets({s: plans[t].atoms_at(s) for s in g.vertices})
        == as_multisets(K4_TABLE[t])
        for t in g.messages)
    audit = cost_audit(plans, g)
    ok = ok and audit.per_theta == {t: 10 for t in g.messages}
    ok = ok and audit.rate == Fraction(2, 5)
    ok = ok and all(plans[t].length == 4 for t in g.messages)
    elapsed = time.perf_counter() - start
    report(capsys, 2, ok and elapsed < 1.0,
           f"complete-4 plan equals reference table for all 6 messages, "
           f"D_k=10, L=4, rate 2/5, {elapsed:.3f}s")


def test_criterion_3_privacy_battery(capsys, corpus):
    start = time.perf_counter()
    checks = 0
    worst_space = 0
    ok = True
    for label, g, plans in corpus:
        for server in g.vertices:
            for t in g.index_set(server):
                msgs = {m for atom in plans[t].atoms_at(server)
                        for (m, _) in atom}
                space = prod(factorial(plans[t].lengths[m]) for m in msgs)
                worst_space = max(worst_space, space)
            rep = privacy_check(plans, g, server)
            checks += 1
            ok = ok and rep.ok
    ok = ok and worst_space <= factorial(4) ** 3
    elapsed = time.perf_counter() - start
    report(capsys, 3, ok and elapsed < 60.0,
           f"{checks} exact privacy checks PASS across "
           f"{len(corpus)} plan families, max enumeration {worst_space} "
           f"<= 13824, {elapsed:.1f}s")


def test_criterion_4_decode_battery(capsys):
    ok = True
    trials = 0
    for label, g, cfg in shipped_corpus():
        plans = build_plan_family(g, cfg)
        rates = set()
        for q in (2, 3, 5):
            rep = decode_check(plans, g, q=q, seeds=100)
            trials += rep.trials
            ok = ok and rep.ok
            rates.add(measure_rate(g, cfg, q=q, seeds=1).rate)
        ok = ok and len(rates) == 1
    report(capsys, 4, ok,
           f"{trials} decode trials PASS at q in {{2,3,5}}, 100 seeds "
           f"each, rates identical across field sizes")


def test_criterion_5_bound_golden_values(capsys):
    ok = all(family_bounds("cycle", n).lower.as_fraction() == Fraction(1, 2)
             and family_bounds("cycle", n).exact for n in range(3, 9))
    ok = ok and family_bounds("path", 5).lower.as_fraction() == Fraction(2, 3)
    ok = ok and family_bounds("path", 7).lower.as_fraction() == Fraction(3, 5)
    p6 = family_bounds("path", 6)
    ok = ok and (p6.lower.as_fraction(), p6.upper.as_fraction()) \
        == (Fraction(5, 9), Fraction(5, 8))
    ok = ok and all(family_bounds("path", n).exact == (n % 2 == 1)
                    for n in range(3, 13))
    ok = ok and family_bounds("star", 6).lower.as_fraction() == Fraction(1)
    ok = ok and family_bounds("complete", 4).lower.as_fraction() \
        == Fraction(2, 5)

    candidate_ok = True
    for d in range(1, 201):
        value, t_i, t_j = et_lower_bound(d, d)
        candidate_ok = candidate_ok and equal_degree_bound(d) == value
        best = max(et_rate(d, d, t, t) for t in range(1, d + 1))
        argmax = {t for t in range(1, d + 1) if et_rate(d, d, t, t) == best}
        cands = {isqrt(d), isqrt(d) + (0 if isqrt(d) ** 2 == d else 1)}
        candidate_ok = candidate_ok and best == value
        candidate_ok = candidate_ok and argmax & cands
    ok = ok and candidate_ok
    report(capsys, 5, ok,
           "family bounds match golden rationals; square-root candidate "
           "pair contains the exact optimizer for every degree to 200")


def test_criterion_6_union_composition(capsys):
    ok = True
    for copies in (2, 3):
        g = family("disjoint_copies", base=family("cycle", 4), copies=copies)
        ok = ok and measure_rate(g, union_config()).rate == Fraction(1, 2)
    c4 = family("cycle", 4)
    s5 = family("star", 5)
    edges = list(c4.edges) + [(u + 4, v + 4) for (u, v) in s5.edges]
    mixed = build_graph(9, edges)
    rate = measure_rate(mixed, union_config()).rate
    # hand total at one message length: cycle part 4 messages of length 2
    # downloading 4 each, star part 4 messages of length 1 downloading 1
    # each, so K / sum D/L = 8 / (4 * 4/2 + 4 * 1/1)
    hand = union_capacity([(4, 4 * Fraction(4, 2)), (4, 4 * Fraction(1, 1))])
    ok = ok and hand == Fraction(8, 8 + 4) == Fraction(2, 3)
    ok = ok and rate == hand
    report(capsys, 6, ok,
           "2 and 3 identical 4-cycles keep rate 1/2; "
           "4-cycle plus 5-star achieves the composed value 2/3")


def test_criterion_7_converse_consistency(capsys, corpus):
    ok = True
    tight = 0
    for label, g, plans in corpus:
        rate = cost_audit(plans, g).rate
        bounds = graph_bounds(g)
        ok = ok and rate <= bounds.upper
        must_be_tight = label.startswith("cycle") or label == "fixture-c4" \
            or (label.startswith("path") and int(label[4:]) % 2 == 1)
        if must_be_tight:
            tight += 1
            ok = ok and rate == bounds.upper.as_fraction()
    report(capsys, 7, ok,
           f"every shipped rate sits at or below its upper bound; "
           f"{tight} cycle and odd-path families meet it exactly")


def test_criterion_8_relaxation_probe(capsys):
    g = family("cycle", 4)
    plans = build_plan_family(g, et_config(2, 2))
    probes = [canonical_privacy_probe(plans, g, s) for s in g.vertices]
    distinguishing = [p for p in probes if p.distinguishable]
    local_ok = all(privacy_check(plans, g, s).ok for s in g.vertices)
    ok = bool(distinguishing) and local_ok
    example = distinguishing[0] if distinguishing else None
    report(capsys, 8, ok,
           f"server {example.server} distinguishes desired messages "
           f"{list(example.distinguishable)} it does not store, while "
           f"local privacy holds at every server")


def test_criterion_9_mutation_sensitivity(capsys):
    g = family("cycle", 4)
    plans = build_plan_family(g, et_config(2, 2))

    # undo the second endpoint's position shift: no decoding recipe can
    # exist, and replaying the original recipe fails decode_check; the
    # per-server distributions are provably unchanged, so this mutation
    # is caught by the decode checker, not the privacy checker
    stripped = strip_offset(plans[1])
    rejected = False
    try:
        derive_recipe(stripped, plans[1].theta, plans[1].length)
    except UndecodablePlan:
        rejected = True
    offset_fail = not decode_check(
        mutated_family(plans, 1, stripped), g, seeds=16).ok

    gamma_fail = not decode_check(
        mutated_family(plans, 1, corrupt_gamma(plans[1])), g, seeds=16).ok

    # and the privacy checker is not vacuous either: hiding one server's
    # queries for one desired message is detected distributionally
    silenced = mutated_family(plans, 2, silence_server(plans[2], 3))
    privacy_fail = not privacy_check(silenced, g, 3).ok

    ok = rejected and offset_fail and gamma_fail and privacy_fail
    report(capsys, 9, ok,
           "position-shift strip rejected and fails decode_check, "
           "occurrence-index corruption fails decode_check, "
           "silenced server fails privacy_check")
