"""Command line interface: output shapes, exit codes, environment knobs."""

import json

import pytest

from helpers import silence_server, mutated_family
from localpir import cli
from localpir.cli import main, verdict_exit_code
from localpir.graphs import family, graph_to_json
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
    assert obj["lower"] == {"num": 3, "den": 5, "radicand": 1,
                            "approx": 0.6}


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


def test_scheme_theta_restricts_rows(capsys):
    code, out, _ = run(capsys, "scheme", "--family", "cycle", "--n", "4",
                       "--t", "2", "--theta", "2")
    assert code == 0
    body = [line for line in out.splitlines() if line[:1].isdigit()]
    assert len(body) == 1 and body[0].startswith("2 ")


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


def test_verify_rejects_infeasible_enumeration(capsys):
    code, out, err = run(capsys, "verify", "--family", "complete", "--n", "5",
                         "--t", "2", "--seeds", "1")
    assert code == 2
    assert out == ""
    assert "cap" in err


def test_verdict_exit_code_flags_failures():
    g = family("cycle", 4)
    plans = build_plan_family(g, et_config(2, 2))
    good = check_scheme(plans, g, seeds=2)
    assert verdict_exit_code(good) == 0
    broken = mutated_family(plans, 2, silence_server(plans[2], 3))
    bad = check_scheme(broken, g, seeds=2)
    assert verdict_exit_code(bad) == 1


# --- simulate ----------------------------------------------------------------

def test_simulate_reports_rate(capsys):
    code, out, _ = run(capsys, "simulate", "--family", "path", "--n", "7",
                       "--scheme", "bipartite", "--seeds", "2")
    assert code == 0
    assert "measured rate 3/5" in out
    assert "decode PASS (exact)" in out
    assert "bounds [3/5, 3/5] (exact)" in out


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
    assert json.loads(out)["rate"] == [3, 5]


# --- input validation and exit contract ----------------------------------------

@pytest.mark.parametrize("argv", [
    ("bounds", "--family", "cycle"),                      # family without --n
    ("bounds", "--family", "cycle", "--n", "2"),          # degenerate cycle
    ("bounds",),                                          # no graph source
    ("scheme", "--family", "cycle", "--n", "4", "--t", "9"),
    ("scheme", "--family", "cycle", "--n", "4", "--theta", "9"),
    ("simulate", "--family", "cycle", "--n", "4", "--t", "2", "--theta", "0"),
    ("bounds", "--family", "complete_bipartite", "--n", "5"),
    ("verify", "--family", "cycle", "--n", "4", "--t", "2", "--seeds", "0"),
    ("simulate", "--family", "cycle", "--n", "4", "--t", "2", "--seeds", "-1"),
    ("verify", "--family", "cycle", "--n", "4", "--scheme", "bipartite",
     "--t", "2"),
    ("verify", "--family", "cycle", "--n", "4", "--scheme", "union",
     "--t-i", "3"),
    ("scheme", "--family", "path", "--n", "4", "--scheme", "bipartite",
     "--t-j", "1"),
    ("scheme", "--family", "cycle", "--n", "4", "--t-j", "2"),
])
def test_invalid_inputs_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.strip()


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
], ids=["no-edges-key", "not-json", "short-edge-no-n", "short-edge",
        "long-edge", "edges-int", "float-endpoint", "str-endpoints",
        "bool-endpoint", "float-n", "str-n"])
def test_malformed_graph_file_exits_two(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, "bounds", "--graph", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


SUBCOMMANDS = ("bounds", "scheme", "verify", "simulate")


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
