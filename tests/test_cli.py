"""Command line interface: output shapes, exit codes, parser reuse and
fuzzed inputs, all through `main` in one process."""

import argparse
import contextlib
import dataclasses
import errno
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localpir.scheme
from helpers import silence_server, mutated_family
from localpir import cli
from localpir.cli import build_parser, main
from localpir.graphs import FAMILIES, family, graph_to_json
from localpir.scheme import build_plan_family, et_config
from localpir.verify import check_scheme


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(graph_to_json(family("cycle", 4))))
    return str(path)


@pytest.fixture()
def union_file(tmp_path):
    c4 = family("cycle", 4)
    s5 = family("star", 5)
    edges = [list(e) for e in c4.edges]
    edges += [[u + 4, v + 4] for (u, v) in s5.edges]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"n": 9, "edges": edges}))
    return str(path)


# --- bounds ------------------------------------------------------------------

def test_bounds_table_output(capsys):
    code, out, err = run(capsys, "bounds", "--family", "cycle", "--n", "6")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "family cycle  n=6"
    assert "lower bound  1/2" in lines
    assert "upper bound  1/2" in lines
    assert "exact        yes" in lines
    assert any("2/(n+1) = 2/7" in line for line in lines)


def test_bounds_json_is_byte_stable(capsys):
    code1, out1, _ = run(capsys, "bounds", "--family", "complete", "--n", "4",
                         "--format", "json")
    code2, out2, _ = run(capsys, "bounds", "--family", "complete", "--n", "4",
                         "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["lower"] == {"num": 2, "den": 5, "radicand": 1, "approx": 0.4}
    assert obj["optimizer"] == {"t_i": 2, "t_j": 2}
    assert [c["value"] for c in obj["pir_comparators"]] == [0.35, 0.3529]


def test_bounds_from_graph_file(capsys, union_file):
    code, out, _ = run(capsys, "bounds", "--graph", union_file,
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "union"
    assert obj["exact"] is True
    assert obj["lower"] == {"num": 2, "den": 3, "radicand": 1,
                            "approx": 2 / 3}


def test_bounds_on_a_huge_complete_graph_return_quickly():
    # beyond the float range the gePIR comparators, 1/(n c), print 0.0
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    runs = [("complete", "99999999999999999999")] + [
        (name, str(10**400)) for name in ("complete", "complete_bipartite")]
    for name, n in runs:
        for fmt in ("table", "json"):
            proc = subprocess.run(
                [sys.executable, "-m", "localpir.cli", "bounds", "--family",
                 name, "--n", n, "--format", fmt],
                env=env, capture_output=True, text=True, timeout=5)
            assert proc.returncode == 0, proc.stderr
            if fmt == "table":
                assert "lower bound  " in proc.stdout
                continue
            gepir = json.loads(proc.stdout)["pir_comparators"][-1]
            assert gepir["source"] == "gePIR"
            assert (gepir["value"] == 0.0) == (len(n) > 400)


def test_bounds_past_the_float_range_print_zero_comparators(capsys):
    code, out, err = run(capsys, "bounds", "--family", "complete",
                         "--n", "1" + "0" * 400)
    assert (code, err) == (0, "")
    gepir = [line for line in out.splitlines() if "[gePIR]" in line]
    assert len(gepir) == 2
    assert all(line.startswith("comparator   0  [gePIR]") for line in gepir)


# --- scheme ------------------------------------------------------------------

def test_scheme_table_matches_reference_rows(capsys):
    code, out, _ = run(capsys, "scheme", "--family", "cycle", "--n", "4",
                       "--t", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("|")[0].strip() == "theta"
    body = [line for line in lines if line[:1].isdigit()]
    assert [line.replace(" ", "") for line in body] == [
        "1|a1+d1|a2+b1|b1|d1",
        "2|a1|a1+b1|b2+c1|c1",
        "3|d1|b1|b1+c1|c2+d1",
        "4|a1+d1|a1|c1|c1+d2",
    ]
    assert "L=2; D_k=4 for every theta; rate 1/2" in lines[-1]


@pytest.mark.parametrize("edges,argv,line", [
    # K4 minus the edge (3, 4), connected: t=2 plans of lengths 4 and 3
    ([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)], ("--t", "2"),
     "L per message: 1:4, 2:3, 3:3, 4:3, 5:3; expected D=38/5; rate 30/71"),
    # C4, K4 and a 5-star: union plans of lengths 2, 4 and 1
    ([(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (5, 7), (5, 8), (6, 7), (6, 8),
      (7, 8), (9, 13), (10, 13), (11, 13), (12, 13)], (),
     "L per message: 1:2, 2:2, 3:2, 4:2, 5:4, 6:4, 7:4, 8:4, 9:4, 10:4, "
     "11:1, 12:1, 13:1, 14:1; expected D=40/7; rate 14/27"),
], ids=["k4-minus-edge-t2", "union-c4+k4+s5"])
def test_scheme_table_gives_each_message_its_length(capsys, tmp_path, edges,
                                                    argv, line):
    path = tmp_path / "graph.json"
    n = max(max(e) for e in edges)
    path.write_text(json.dumps({"n": n, "edges": [list(e) for e in edges]}))
    code, out, _ = run(capsys, "scheme", "--graph", str(path), *argv)
    assert code == 0
    assert out.splitlines()[-1] == line


def test_scheme_table_numbers_messages_past_the_alphabet(capsys):
    # complete-8 stores K = 28 messages, more than there are letters
    code, out, _ = run(capsys, "scheme", "--family", "complete", "--n", "8")
    assert code == 0
    row = out.splitlines()[2].split(" | ")
    assert row[0].strip() == "1"
    assert row[1].startswith("W1(1)+W2(1)+W3(1), W1(2)+W2(2)+W4(1), ")


def test_scheme_theta_restricts_rows(capsys):
    code, out, _ = run(capsys, "scheme", "--family", "cycle", "--n", "4",
                       "--t", "2", "--theta", "2")
    assert code == 0
    body = [line for line in out.splitlines() if line[:1].isdigit()]
    assert len(body) == 1 and body[0].startswith("2 ")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_scheme_theta_expands_only_the_plan_it_prints(capsys, monkeypatch,
                                                      fmt):
    # the whole family is built and audited, but only theta's two t-sum
    # endpoints are laid out atom by atom
    expanded = []
    expand = localpir.scheme._TemplateRef.expand

    def counting(ref):
        expanded.append(ref.stored[ref.rank])
        return expand(ref)

    monkeypatch.setattr(localpir.scheme._TemplateRef, "expand", counting)
    code, _, _ = run(capsys, "scheme", "--family", "complete", "--n", "30",
                     "--t", "2", "--theta", "7", "--format", fmt)
    assert code == 0
    assert expanded == [7, 7]


def test_scheme_json_atoms(capsys):
    code, out, _ = run(capsys, "scheme", "--family", "cycle", "--n", "4",
                       "--t", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["scheme"] == "et"
    assert obj["lengths"] == {t: 2 for t in "1234"}
    assert obj["downloads"] == {t: 4 for t in "1234"}
    assert obj["atoms"]["1"]["2"] == [[[1, 2], [2, 1]]]
    assert obj["graph"]["n"] == 4


# --- verify ------------------------------------------------------------------

def test_verify_passes_on_cycle(capsys):
    code, out, _ = run(capsys, "verify", "--family", "cycle", "--n", "4",
                       "--t", "2", "--seeds", "4")
    assert code == 0
    assert "verdict: PASS" in out
    assert "server 1: privacy PASS" in out


@pytest.mark.parametrize("seeds,line", [
    ((), "decode: PASS (exact)"),
    (("--seeds", "3"), "decode: PASS (exact; 12 end-to-end runs)")])
def test_the_decode_line_counts_runs_only_when_asked(capsys, seeds, line):
    code, out, _ = run(capsys, "verify", "--family", "cycle", "--n", "4",
                       "--t", "2", *seeds)
    assert code == 0
    assert line in out.splitlines()


def test_verify_probe_lines(capsys):
    code, out, _ = run(capsys, "verify", "--family", "cycle", "--n", "4",
                       "--t", "2", "--seeds", "2", "--probe")
    assert code == 0
    assert "server 1: canonical probe distinguishes thetas [2, 3]" in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--family", "star", "--n", "5",
                       "--format", "json", "--seeds", "2", "--probe")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "PASS"
    assert {p["server"] for p in obj["privacy"]} == {1, 2, 3, 4, 5}
    assert obj["decode"]["verdict"] == "PASS"
    assert any(p["canonical"] for p in obj["probes"])


def test_verify_table_lists_decode_faults_and_cost_mismatches():
    g = family("cycle", 4)
    plans = build_plan_family(g, et_config(2))
    silenced = mutated_family(plans, 2, silence_server(plans[2], 3))
    lines = cli.render_verify(check_scheme(silenced, g), None).splitlines()
    assert lines[4:] == [
        "decode: FAIL (exact)",
        "  theta 2 certificate: step 2 reads atom 0 of server 3, which "
        "receives 0",
        "cost: expected download 15/4, rate 8/15 [closed-form MISMATCH]",
        "  theta 2: downloaded 3, closed form says 4",
        "verdict: FAIL"]
    # a plan that fetches one singleton twice: it decodes, and server 3
    # does not store message 1, so only the graph's degrees catch it
    queries = dict(plans[1].queries)
    queries[3] += queries[3]
    wrong = {**plans, 1: dataclasses.replace(plans[1], queries=queries)}
    lines = cli.render_verify(check_scheme(wrong, g), None).splitlines()
    assert lines[4:] == [
        "decode: PASS (exact)",
        "cost: expected download 17/4, rate 8/17 [closed-form MISMATCH]",
        "  theta 1: downloaded 5, closed form says 4",
        "verdict: FAIL"]


def _digit_limit():
    """Python's int-to-string digit limit, None before 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_verify_prints_a_support_past_the_digit_limit(capsys, monkeypatch,
                                                      fmt):
    # complete-13 at t=4 has a 4725-digit support at server 1; a report
    # with a longer one stands in for its seconds-long search
    real = cli.check_scheme

    def huge_support(*args, **kwargs):
        report = real(*args, **kwargs)
        report.privacy[0].support_size = 10**5000
        return report

    monkeypatch.setattr(cli, "check_scheme", huge_support)
    limit = _digit_limit()
    code, out, err = run(capsys, "verify", "--family", "cycle", "--n", "4",
                         "--t", "2", "--format", fmt)
    assert code == 0 and err == ""
    assert "1" + "0" * 5000 in out
    assert _digit_limit() == limit


def test_verify_rejects_infeasible_enumeration(capsys):
    # complete-5 t=2 searches one node per stored message, 4 per server
    code, out, err = run(capsys, "verify", "--family", "complete", "--n", "5",
                         "--t", "2", "--cap", "3")
    assert code == 2
    assert out == ""
    assert err == "error: server 1 searched 4 nodes, budget is 3\n"
    code, out, _ = run(capsys, "verify", "--family", "complete", "--n", "5",
                       "--t", "2", "--cap", "4")
    assert code == 0 and out.endswith("verdict: PASS\n")


def test_only_verify_takes_a_node_budget(capsys):
    # simulate runs no privacy search, so it has no budget to set
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--family", "cycle", "--n", "5", "--t", "2",
              "--cap", "5"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: unrecognized arguments: --cap 5\n")


@pytest.mark.parametrize("name", ["et", "union"])
def test_scheme_takes_only_auto_or_bipartite(capsys, name):
    # auto already picks t-sum from a --t option and the union plans from
    # the components, so neither needs a name of its own
    with pytest.raises(SystemExit) as exit_:
        main(["scheme", "--family", "cycle", "--n", "4", "--scheme", name])
    assert exit_.value.code == 2
    assert f"invalid choice: '{name}'" in capsys.readouterr().err


def test_verdict_exit_code_flags_failures(capsys, tmp_path):
    # the 5-cycle with chord (1,3) fails privacy at server 1 under t=2
    chorded = tmp_path / "chorded.json"
    chorded.write_text(json.dumps(
        {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [1, 3]]}))
    code, out, err = run(capsys, "verify", "--graph", str(chorded),
                         "--t", "2")
    assert (code, err) == (1, "")
    assert "server 1: privacy FAIL (thetas [1, 5, 6], support 1728)" in out
    assert out.endswith("verdict: FAIL\n")
    code, out, err = run(capsys, "verify", "--family", "cycle", "--n", "4",
                         "--t", "2")
    assert (code, err) == (0, "")
    assert out.endswith("verdict: PASS\n")


# --- simulate ----------------------------------------------------------------

def test_simulate_reports_rate(capsys):
    code, out, _ = run(capsys, "simulate", "--family", "path", "--n", "7",
                       "--scheme", "bipartite", "--seeds", "2")
    assert code == 0
    assert "measured rate 3/5" in out
    assert "decode PASS (exact)" in out
    assert "bounds [3/5, 3/5] (exact)" in out


def test_simulate_transcript_table(capsys):
    code, out, _ = run(capsys, "simulate", "--family", "cycle", "--n", "4",
                       "--t", "2", "--theta", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[lines.index("decode PASS (exact)") + 2:] == [
        "transcript theta=1 seed=0 q=2 D_k=4 decoded_ok=True",
        "  server 1: a1+d1=1",
        "  server 2: a2+b2=1",
        "  server 3: b2=1",
        "  server 4: d1=1"]


def test_simulate_transcript_json(capsys):
    code, out, _ = run(capsys, "simulate", "--family", "cycle", "--n", "4",
                       "--t", "2", "--theta", "3", "--seed", "1",
                       "--format", "json", "--seeds", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["rate"] == [1, 2]
    tr = obj["transcript"]
    assert tr["theta"] == 3 and tr["seed"] == 1 and tr["D_k"] == 4
    assert tr["decoded_ok"] is True


def test_simulate_union_from_file(capsys, union_file):
    code, out, _ = run(capsys, "simulate", "--graph", union_file,
                       "--seeds", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["rate"] == [2, 3]


def test_simulate_table_names_the_component_dispatch(capsys, tmp_path):
    # a 4-cycle beside a disjoint 5-cycle: both run at rate 1/2
    edges = [list(e) for e in family("cycle", 4).edges]
    edges += [[u + 4, v + 4] for (u, v) in family("cycle", 5).edges]
    path = tmp_path / "c4+c5.json"
    path.write_text(json.dumps({"n": 9, "edges": edges}))
    code, out, err = run(capsys, "simulate", "--graph", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "scheme component dispatch (per-component defaults)" in lines
    assert "measured rate 1/2 (~0.5)" in lines


# --- input validation and exit contract ----------------------------------------

@pytest.mark.parametrize("argv", [
    ("bounds", "--family", "cycle"),                      # family without --n
    ("bounds", "--family", "cycle", "--n", "2"),          # degenerate cycle
    ("bounds",),                                          # no graph source
    ("scheme", "--family", "cycle", "--n", "4", "--t", "9"),
    ("scheme", "--family", "cycle", "--n", "4", "--theta", "9"),
    ("simulate", "--family", "cycle", "--n", "4", "--t", "2", "--theta", "0"),
    ("bounds", "--family", "complete_bipartite", "--n", "5"),
    ("verify", "--family", "complete_bipartite", "--n", "5"),
    ("bounds", "--family", "path", "--n", "1"),
    ("bounds", "--family", "star", "--n", "1"),
    ("bounds", "--family", "complete", "--n", "1"),
    ("verify", "--family", "cycle", "--n", "4", "--t", "2", "--seeds", "-1"),
    ("simulate", "--family", "cycle", "--n", "4", "--t", "2", "--seeds", "-1"),
    ("verify", "--family", "cycle", "--n", "4", "--scheme", "bipartite",
     "--t", "2"),
    ("verify", "--family", "cycle", "--n", "4", "--scheme", "bipartite",
     "--t-i", "3"),
    ("scheme", "--family", "path", "--n", "4", "--scheme", "bipartite",
     "--t-j", "1"),
    ("scheme", "--family", "cycle", "--n", "4", "--t-j", "2"),
    ("verify", "--family", "cycle", "--n", "4", "--t-i", "2"),
])
def test_invalid_inputs_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.strip()


@pytest.mark.parametrize("flag", ["--t-i", "--t-j"])
def test_a_lone_subset_size_exits_two(capsys, flag):
    # one size alone would leave the other endpoint's size to a guess
    code, out, err = run(capsys, "verify", "--family", "cycle", "--n", "4",
                         flag, "2")
    assert (code, out, err) == (
        2, "", "error: the t-sum scheme needs --t, or both --t-i and --t-j\n")


@pytest.mark.parametrize("command", ["bounds", "scheme", "verify",
                                     "simulate"])
def test_n_with_a_graph_file_exits_two(capsys, c4_file, command):
    # a --graph file gives its own n, which a --n would silently contradict
    code, out, err = run(capsys, command, "--graph", c4_file, "--n", "99")
    assert (code, out, err) == (
        2, "", "error: --n goes with --family; a --graph file gives its "
               "own n\n")


@pytest.mark.parametrize("seed", ["7", "0"])
def test_a_seed_without_theta_exits_two(capsys, seed):
    # without --theta no transcript is drawn, so a --seed would do nothing
    code, out, err = run(capsys, "simulate", "--family", "cycle", "--n", "4",
                         "--seed", seed)
    assert (code, out, err) == (
        2, "", "error: --seed goes with --theta; without it no transcript "
               "is drawn\n")


def test_a_transcript_without_seed_uses_seed_zero(capsys):
    argv = ("simulate", "--family", "cycle", "--n", "4", "--theta", "2",
            "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert (code, out) == run(capsys, *argv, "--seed", "0")[:2]
    assert code == 0 and json.loads(out)["transcript"]["seed"] == 0


@pytest.mark.parametrize("extra", [(), ("--probe",)])
def test_a_negative_cap_exits_two_before_any_check(capsys, extra):
    code, out, err = run(capsys, "verify", "--family", "cycle", "--n", "4",
                         "--cap", "-1", *extra)
    assert (code, out, err) == (
        2, "", "error: cap must not be negative, got -1\n")


@pytest.mark.parametrize("q,code", [(2**61 - 1, 0), (10**25, 2)])
def test_a_large_modulus_is_decided_at_once(capsys, q, code):
    # primality is exact below 3317044064679887385961981; above, refused
    start = time.perf_counter()
    got, out, err = run(capsys, "verify", "--family", "cycle", "--n", "4",
                        "--t", "2", "--q", str(q))
    assert time.perf_counter() - start < 1
    assert got == code
    if code:
        assert "below 3317044064679887385961981" in err
    else:
        assert "decode: PASS (exact)\n" in out


@pytest.mark.parametrize("command", ["scheme", "simulate"])
def test_theta_is_checked_before_any_plan_is_built(capsys, monkeypatch,
                                                   command):
    def unreachable(*args, **kwargs):
        raise AssertionError("ran before --theta was checked")

    monkeypatch.setattr(cli, "build_plan_family", unreachable)
    monkeypatch.setattr(cli, "measure_rate", unreachable)
    code, _, err = run(capsys, command, "--family", "cycle", "--n", "4",
                       "--t", "2", "--theta", "0")
    assert code == 2
    assert err == "error: theta 0 outside 1..4\n"


def test_both_graph_sources_exit_two(capsys, c4_file):
    code, _, err = run(capsys, "bounds", "--family", "cycle", "--n", "4",
                       "--graph", c4_file)
    assert code == 2 and "exactly one" in err


@pytest.mark.parametrize("text", [
    '{"n": 3}',
    "not json",
    '{"edges": [[1]]}',
    '{"n": 3, "edges": [[1]]}',
    '{"n": 2, "edges": [[1, 2, 3]]}',
    '{"n": 2, "edges": 5}',
    '{"n": 2, "edges": [[1, 2.7]]}',
    '{"n": 2, "edges": [["1", "2"]]}',
    '{"n": 2, "edges": [[true, 2]]}',
    '{"n": 2.9, "edges": [[1, 2]]}',
    '{"n": "2", "edges": [[1, 2]]}',
    '[[1, 2]]',
], ids=["no-edges-key", "not-json", "short-edge-no-n", "short-edge",
        "long-edge", "edges-int", "float-endpoint", "str-endpoints",
        "bool-endpoint", "float-n", "str-n", "top-level-list"])
def test_malformed_graph_file_exits_two(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, "bounds", "--graph", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


SUBCOMMANDS = ("bounds", "scheme", "verify", "simulate")


@pytest.mark.parametrize("data", [
    b'{"n": 2, "edges": [[1, 2]], "note": "\xff"}',
    b"[" * 10**5 + b"]" * 10**5,
    b'{"n": ' + b"9" * 5000 + b', "edges": [[1, 2]]}',
], ids=["not-utf8", "deep-nesting", "integer-past-the-digit-limit"])
def test_unparsable_graph_bytes_exit_two(capsys, tmp_path, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    for command in SUBCOMMANDS:
        code, out, err = run(capsys, command, "--graph", str(bad))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad} is not valid JSON: ")


def test_unreadable_graph_path_exits_two(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "bounds", "--graph", str(missing))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {missing}: ")


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_isolated_vertex_is_a_silent_server(capsys, tmp_path, command):
    path = tmp_path / "lonely.json"
    path.write_text('{"n": 3, "edges": [[1, 2]]}')
    code, out, err = run(capsys, command, "--graph", str(path),
                         "--format", "json")
    assert code == 0 and err == ""
    obj = json.loads(out)
    if command == "bounds":
        assert obj["family"] == "union" and obj["exact"] is True
        assert obj["lower"]["num"] == obj["lower"]["den"] == 1
    elif command == "scheme":
        assert all("3" not in atoms for atoms in obj["atoms"].values())
    elif command == "verify":
        assert obj["verdict"] == "PASS"
        assert obj["privacy"][2] == {"server": 3, "thetas": [],
                                     "verdict": "PASS", "support_size": 0,
                                     "counterexample": None}
    else:
        assert obj["rate"] == [1, 1] and obj["bracketed"] is True


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_edgeless_graph_exits_two(capsys, tmp_path, command):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 3, "edges": []}')
    code, out, err = run(capsys, command, "--graph", str(path))
    assert code == 2 and out == ""
    assert err == "error: graph has no edges\n"


# --- internal errors -----------------------------------------------------------

def test_an_unexpected_exception_exits_three_without_traceback(capsys,
                                                               monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "build_plan_family", boom)
    code, out, err = run(capsys, "scheme", "--family", "cycle", "--n", "4",
                         "--t", "2")
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_a_closed_output_pipe_keeps_the_exit_code():
    # the table is about 173 KB, past a pipe's buffer, so the write fails
    # after the reader has gone; stdout is buffered, as it is by default
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "localpir.cli", "scheme", "--family",
         "complete", "--n", "8"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"theta | server 1")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses every write")
def test_a_full_device_is_one_internal_error_line():
    # buffered stdout still holds the text after the failed write; were it
    # kept, the flush at exit would fail again and exit 120
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "localpir.cli", "bounds", "--family",
             "cycle", "--n", "5"],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True,
            timeout=60)
    assert proc.returncode == 3
    assert proc.stderr == ("internal error: OSError: [Errno 28] No space "
                           "left on device\n")


def test_any_other_write_error_is_internal(capsys, monkeypatch):
    class FullDisk(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sys, "stdout", FullDisk())
    code = main(["bounds", "--family", "cycle", "--n", "5"])
    # what is left goes to os.devnull, so the flush at exit fails nothing
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    err = capsys.readouterr().err
    assert code == 3
    assert err == ("internal error: OSError: [Errno 28] No space left on "
                   "device\n")


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_interrupts_and_exits_pass_through(monkeypatch, exc):
    def stop(*args, **kwargs):
        raise exc()

    monkeypatch.setattr(cli, "build_plan_family", stop)
    with pytest.raises(exc):
        main(["scheme", "--family", "cycle", "--n", "4", "--t", "2"])


# --- one parser per process ----------------------------------------------------

def test_main_builds_its_parser_once(capsys, monkeypatch):
    real = cli.build_parser
    builds = []

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    outs = [run(capsys, "bounds", "--family", "cycle", "--n", str(n))
            for n in (4, 5, 6)]
    assert [code for code, _, _ in outs] == [0, 0, 0]
    assert outs[2][1].startswith("family cycle  n=6\n")
    assert len(builds) == 1


def test_importing_the_cli_builds_no_parser():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    probe = ("import argparse\n"
             "made = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "argparse.ArgumentParser.__init__ = (\n"
             "    lambda self, *a, **k: made.append(init(self, *a, **k)))\n"
             "import localpir.cli\n"
             "print(len(made))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "0\n", proc.stderr


def test_family_choices_are_the_graph_families():
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    for name in SUBCOMMANDS:
        family_opt = next(a for a in subcommands.choices[name]._actions
                          if a.dest == "family")
        assert family_opt.choices == tuple(FAMILIES), name


def help_text(capsys, parse, command):
    with pytest.raises(SystemExit) as exit_:
        parse([*command, "--help"])
    assert exit_.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", [(), *((c,) for c in SUBCOMMANDS)],
                         ids=["top", *SUBCOMMANDS])
def test_help_after_earlier_calls_matches_a_fresh_parser(capsys, command):
    run(capsys, "verify", "--family", "cycle", "--n", "4", "--t", "2",
        "--probe", "--format", "json")
    run(capsys, "scheme", "--family", "cycle", "--n", "4", "--t", "2",
        "--theta", "3")
    fresh = build_parser()
    expect = help_text(capsys, fresh.parse_args, command)
    if not command:
        assert expect == fresh.format_help()
    assert help_text(capsys, main, command) == expect


def test_options_do_not_leak_between_calls(capsys):
    argv = ("verify", "--family", "cycle", "--n", "4", "--t", "2")
    code, probed, _ = run(capsys, *argv, "--probe")
    assert code == 0 and "canonical probe" in probed
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and "canonical probe" not in plain
    assert plain.splitlines() == [line for line in probed.splitlines()
                                  if "canonical probe" not in line]
    code, one, _ = run(capsys, "scheme", "--family", "cycle", "--n", "4",
                       "--t", "2", "--theta", "2", "--format", "json")
    assert code == 0 and set(json.loads(one)["atoms"]) == {"2"}
    code, every, _ = run(capsys, "scheme", "--family", "cycle", "--n", "4",
                         "--t", "2")
    assert code == 0
    assert len([line for line in every.splitlines()
                if line[:1].isdigit()]) == 4


def test_an_argparse_error_leaves_the_parser_usable(capsys):
    argv = ("verify", "--family", "cycle", "--n", "4", "--t", "2")
    before = run(capsys, *argv)
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--q", "x"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --q: invalid int value: 'x'\n")
    assert run(capsys, *argv) == before
    assert before[0] == 0 and "verdict: PASS" in before[1]


# --- fuzzed graphs through every subcommand ------------------------------------

MALFORMED = ("no-edges-key", "one-endpoint", "top-level-list", "self-loop",
             "out-of-range")


@st.composite
def graph_texts(draw):
    """Small graph files, possibly disconnected or with isolated vertices,
    with a malformed shape mixed in now and then."""
    n = draw(st.integers(-1, 6))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = (draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9))
             if pairs else [])
    obj = {"n": n, "edges": [list(e) for e in edges]}
    shape = draw(st.sampled_from(("graph",) * 5 + MALFORMED))
    if shape == "no-edges-key":
        del obj["edges"]
    elif shape == "one-endpoint":
        obj["edges"].append([1])
    elif shape == "top-level-list":
        obj = obj["edges"]
    elif shape == "self-loop":
        obj["edges"].append([1, 1])
    elif shape == "out-of-range":
        obj["edges"].append([1, n + 1])
    return json.dumps(obj)


@st.composite
def options(draw, command):
    argv = []
    if command == "bounds":
        return argv
    scheme = draw(st.sampled_from((None, "auto", "bipartite")))
    if scheme is not None:
        argv += ["--scheme", scheme]
    t = draw(st.none() | st.integers(0, 3))
    if t is not None:
        argv += ["--t", str(t)]
    if command in ("scheme", "simulate"):
        theta = draw(st.none() | st.integers(0, 7))
        if theta is not None:
            argv += ["--theta", str(theta)]
    if command in ("verify", "simulate"):
        argv += ["--q", str(draw(st.sampled_from((2, 3, 4))))]
    if command == "verify":
        argv += ["--cap", "1000"]
    return argv


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.json"


@settings(max_examples=40, deadline=None)
@given(text=graph_texts(), data=st.data())
def test_every_subcommand_survives_fuzzed_graphs(fuzz_file, text, data):
    fuzz_file.write_text(text)
    for command in SUBCOMMANDS:
        argv = [command, "--graph", str(fuzz_file),
                *data.draw(options(command), label=command)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, text, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert (out.getvalue() if code < 2 else err.getvalue()).strip()
