"""End-to-end execution: transcripts, replay, measured rates."""

import json
import random
from fractions import Fraction

import pytest

import localpir.scheme
import localpir.sim
from helpers import shuffled_permutations
from localpir.errors import LocalPIRError
from localpir.graphs import build_graph, family
from localpir.scheme import (
    bipartite_config,
    build_plan,
    et_config,
    union_config,
)
from localpir.sim import (
    _describe_graph,
    execute_plan,
    measure_rate,
    run_retrieval,
)
from localpir.verify import decode_check


# --- single retrievals -------------------------------------------------------

def test_execute_plan_replays_exactly():
    plan = build_plan(family("cycle", 4), et_config(2, 2), theta=3)
    first = execute_plan(plan, seed=7, q=3)
    again = execute_plan(plan, seed=7, q=3)
    assert first.to_json() == again.to_json()
    assert first.storage == again.storage
    # equality compares the stored plan and permutations, not a view
    assert first == again
    assert first != execute_plan(plan, seed=8, q=3)


def test_execute_plan_draws_only_the_messages_its_plan_references():
    plan = build_plan(family("cycle", 2000), et_config(2, 2), theta=1000)
    tr = execute_plan(plan, seed=0)
    assert tr.decoded_ok
    assert tuple(tr.storage) == plan.referenced_messages() == (999, 1000, 1001)


def test_download_is_seed_independent():
    plan = build_plan(family("complete", 4), et_config(2, 2), theta=2)
    downloads = {execute_plan(plan, seed=s).download for s in range(6)}
    assert downloads == {10}


def test_run_retrieval_cycle():
    tr = run_retrieval(family("cycle", 4), et_config(2, 2), theta=3, seed=0)
    assert tr.decoded_ok
    assert tr.download == 4
    assert [log.server for log in tr.per_server] == [1, 2, 3, 4]
    assert all(len(log.answers) == len(log.atoms) for log in tr.per_server)
    assert tr.decoded == tr.storage[3]


def test_run_retrieval_star_touches_one_leaf():
    tr = run_retrieval(family("star", 5), bipartite_config(), theta=2, seed=1)
    assert tr.decoded_ok
    assert tr.download == 1
    assert [log.server for log in tr.per_server] == [2]
    assert tr.per_server[0].answers == tuple(tr.storage[2])


def test_run_retrieval_complete_answer_shape():
    tr = run_retrieval(family("complete", 4), et_config(2, 2), theta=6,
                       seed=0)
    assert sorted(len(log.atoms) for log in tr.per_server) == [2, 2, 3, 3]
    assert tr.download == 10


@pytest.mark.parametrize("q", [2, 3, 5, 257])
def test_retrieval_decodes_at_every_field_size(q):
    for theta in range(1, 5):
        tr = run_retrieval(family("cycle", 4), et_config(2, 2), theta, 3, q)
        assert tr.decoded_ok
        assert all(0 <= v < q for log in tr.per_server for v in log.answers)


def test_transcript_json_schema():
    tr = run_retrieval(family("cycle", 4), et_config(2, 2), theta=1, seed=2)
    obj = tr.to_json()
    assert set(obj) == {"theta", "seed", "q", "per_server", "decoded_ok",
                        "D_k"}
    assert obj["theta"] == 1 and obj["seed"] == 2 and obj["q"] == 2
    assert obj["D_k"] == 4
    assert all(set(entry) == {"server", "atoms", "answers"}
               for entry in obj["per_server"])
    json.dumps(obj)


@pytest.fixture
def transcribe_calls(monkeypatch):
    """Count the calls of `_transcribe`, patched where sim looks it up."""
    calls = []

    def counted(*args):
        calls.append(args)
        return localpir.scheme._transcribe(*args)

    monkeypatch.setattr(localpir.sim, "_transcribe", counted)
    return calls


def test_a_decode_outcome_builds_no_server_view(transcribe_calls):
    tr = run_retrieval(family("complete", 30), et_config(2), 100, 0)
    assert tr.decoded_ok
    assert transcribe_calls == []


def test_server_views_are_built_once_on_first_read(transcribe_calls):
    tr = run_retrieval(family("complete", 30), et_config(2), 100, 0)
    first, again = tr.per_server, tr.per_server
    assert len(transcribe_calls) == 1 and again is first
    # the same stream, drawn with random.shuffle
    shuffled = shuffled_permutations(random.Random("localpir:100:0"),
                                     tr.plan.lengths)
    assert tr.perms == shuffled
    assert [log.server for log in first] == sorted(tr.plan.queries)
    for log in first:
        assert log.atoms == tuple(
            tuple((m, shuffled[m][p - 1]) for m, p in atom)
            for atom in tr.plan.queries[log.server])
        assert log.answers == tuple(
            sum(tr.storage[m][x - 1] for m, x in atom) % 2
            for atom in log.atoms)


def test_seeded_decode_checks_build_no_server_view(transcribe_calls):
    g = family("complete", 5)
    plans = {t: build_plan(g, et_config(1), t) for t in g.messages}
    assert decode_check(plans, g, q=3, seeds=2).ok
    assert measure_rate(g, et_config(1), q=3, seeds=1).decoded_ok
    assert transcribe_calls == []


# --- measured rates ----------------------------------------------------------

@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("t", [1, 2])
def test_cycles_achieve_half(n, t):
    rep = measure_rate(family("cycle", n), et_config(t, t))
    assert rep.rate == Fraction(1, 2)
    assert rep.decoded_ok
    assert rep.bracketed


def test_star_achieves_one():
    rep = measure_rate(family("star", 6), bipartite_config())
    assert rep.rate == Fraction(1)
    assert rep.bracketed


def test_path_cover_rate():
    rep = measure_rate(family("path", 7), bipartite_config())
    assert rep.rate == Fraction(3, 5)
    assert rep.bounds.exact
    assert rep.bracketed


def test_union_of_two_cycles():
    g = family("disjoint_copies", base=family("cycle", 4), copies=2)
    rep = measure_rate(g, union_config())
    assert rep.rate == Fraction(1, 2)
    assert rep.decoded_ok
    assert rep.bounds.family == "union"
    assert rep.bracketed


def test_rate_is_field_size_independent():
    rates = {q: measure_rate(family("complete", 4), et_config(2, 2),
                             q=q, seeds=2).rate
             for q in (2, 3, 5)}
    assert set(rates.values()) == {Fraction(2, 5)}


def test_rate_report_json():
    rep = measure_rate(family("cycle", 4), et_config(2, 2))
    obj = rep.to_json()
    assert obj["graph"] == "cycle(n=4)"
    assert obj["scheme"] == "et"
    assert obj["rate"] == [1, 2]
    assert obj["rate_approx"] == 0.5
    assert obj["total_download"] == 16
    assert obj["bracketed"] is True
    assert obj["bounds"]["exact"] is True
    json.dumps(obj)


@pytest.mark.parametrize("seeds", [-1])
def test_measure_rate_refuses_fewer_than_one_seed(seeds):
    with pytest.raises(LocalPIRError):
        measure_rate(family("cycle", 4), et_config(2, 2), seeds=seeds)


def test_describe_graph_names():
    assert _describe_graph(family("cycle", 4)) == "cycle(n=4)"
    assert _describe_graph(family("complete_bipartite", a=3, b=3)) \
        == "complete_bipartite(a=3, b=3)"
    paw = build_graph(4, [(1, 2), (1, 3), (2, 3), (1, 4)])
    assert _describe_graph(paw) == "graph(N=4, K=4)"
