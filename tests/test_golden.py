"""Golden CLI output: byte-for-byte stdout of fixed commands, and golden
decoding recipes.

Each digest is the sha256 of stdout as recorded before the plan, bound and
executor code was last restructured.  They pin what multiset comparisons
elsewhere cannot: the order in which singletons from both endpoints land
at a shared server, and literal transcript values replayed from a seed.
`scheme --format json` prints no recipe, so the recipes of whole plan
families are pinned separately: each digest is the sha256 of
`repr(plan.recipe)` for every theta in turn, recorded while recipes were
still derived from the query layout, so a reordered cancel shows.
An intended change to any of these outputs is declared and re-recorded.
"""

import hashlib
import json

import pytest

from localpir.cli import main
from localpir.graphs import build_graph, family
from localpir.scheme import (
    bipartite_config,
    build_plan_family,
    et_config,
    union_config,
)

UNION = "@union"        # stands for the C4 + 5-star graph file

GOLDEN = [
    (("scheme", "--family", "complete", "--n", "5", "--t", "2",
      "--format", "json"),
     "08fcc8b7b1ca7bdf5d0ed8dac2b276fa9fa4899fbff6618ded26574d03678c35"),
    (("scheme", "--graph", UNION, "--format", "json"),
     "2c9c6e81cb5174194f9c563c586942b209d3fd34352a05f6a66ca1c3036494e1"),
    (("verify", "--family", "cycle", "--n", "5", "--t", "2", "--probe",
      "--format", "json"),
     "421b7e8fcb69fb47916e1cbce51f9c02be0768a31c0f5f5f32b8d4712906aad9"),
    (("simulate", "--family", "complete", "--n", "4", "--t", "2",
      "--theta", "5", "--seed", "3", "--q", "5", "--format", "json"),
     "355b79243a77dfdcd276b5e7ca8a92c59c5819b879c91d5b04b551629a086008"),
    (("simulate", "--graph", UNION, "--theta", "6", "--seed", "1",
      "--format", "json"),
     "e991c9d94a8bc68f7bfcd92c01ec77b356c0f8e9ba7780adddc633ff255a63c9"),
    (("bounds", "--graph", UNION, "--format", "json"),
     "fb81e6def1ee1e26d46c621935d20ff8a5657697746bc64d002b0d3cdc0ed8c9"),
]


@pytest.fixture()
def union_file(tmp_path):
    """C4 on vertices 1..4 followed by a 5-star on vertices 5..9."""
    edges = [list(e) for e in family("cycle", 4).edges]
    edges += [[u + 4, v + 4] for (u, v) in family("star", 5).edges]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"n": 9, "edges": edges}))
    return str(path)


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=[" ".join(a[:1] + a[1:3]) for a, _ in GOLDEN])
def test_stdout_matches_golden_digest(capsys, union_file, argv, digest):
    argv = [union_file if a == UNION else a for a in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _mixed():
    c4, s5 = family("cycle", 4), family("star", 5)
    return build_graph(9, [*c4.edges, *((u + 4, v + 4) for u, v in s5.edges)])


RECIPE_GOLDEN = [
    (lambda: family("complete", 30), et_config(2), "complete30-t2",
     "30155ad10eda4013a2d78860be4d7d21d4249b9a5f890a24fe79570e00282e32"),
    (lambda: family("complete", 16), et_config(4), "complete16-t4",
     "9d7d44b2fe98c2b14e5f279fc4fa7cee12ef710c7d2fa2bdb8da079efba8fd05"),
    (lambda: family("complete", 12), et_config(3), "complete12-t3",
     "694162fe8ceb50e28a7422345cc7b0c90cb4d9f5353c7aaa879ead1c65b963ed"),
    (lambda: family("complete", 40), et_config(1), "complete40-t1",
     "374761126a408f74c0585595769d716b8d26c49ba087a952842f7986b88ec9c0"),
    (lambda: family("cycle", 9), et_config(2), "cycle9-t2",
     "e6bbc733b1cd6b0d577e3d06cb855d1e3d821aa54ee5726968c1d9fc1d7245c6"),
    (lambda: family("cycle", 2000), et_config(2), "cycle2000-t2",
     "efa70afb1e9916a8006855790682e8426a382ed501587fed4b71f650dabaecee"),
    (lambda: family("complete_bipartite", a=5, b=5), et_config(3), "K55-t3",
     "5f0bb15bfe1bfa9b4e6fdbc94b8753c6169e89c4c2457321f37db019630b4859"),
    (lambda: family("complete_bipartite", a=3, b=5), et_config(2, 1),
     "K35-t21",
     "91573d2bf8bbb2580027e5060a75b457fd24f36038dc06e8df7e465d8bb347fd"),
    (lambda: family("complete_bipartite", a=2, b=7), et_config(2, 1),
     "K27-t21",
     "8297f69a0b016c62d76be0f42c95686022e859f737042bce43c3b9b39eaed3fb"),
    (lambda: family("disjoint_copies", base=family("cycle", 4), copies=100),
     union_config(), "100xC4-union",
     "0d8a988e61d9275a2095f362d7bcafcc403ec1ef598896fc99019d39fc57bb02"),
    (lambda: family("star", 8), bipartite_config(), "star8-cover",
     "51eb6959eeb5ca11b90a78af075489b3430f4d1faa161f7c9668bf513399d0d9"),
    (lambda: family("path", 7), bipartite_config(), "path7-cover",
     "e9d9a67519703bd36ba858a3e4d0b1d49555f06696dd9873d7b8045100ac0c60"),
    (lambda: family("complete_bipartite", a=3, b=5), bipartite_config(),
     "K35-cover",
     "4e3bdfe3f62dc2befc910581e431cacab967a327b8a90fa38d5338f38c48e570"),
    (_mixed, union_config(), "mixed-union",
     "02bdf6c0feca209eff133a5d083c0c70bebe152299002c7933311d65ceb1d908"),
    (lambda: family("cycle", 3), et_config(2), "triangle-t2",
     "ff7c33c8e4bc43a7ff7ce2a02dfbb25373ba907dcf32fe23adcb2cc749e9b82e"),
]


@pytest.mark.parametrize("make,config,digest",
                         [(m, c, d) for m, c, _, d in RECIPE_GOLDEN],
                         ids=[label for _, _, label, _ in RECIPE_GOLDEN])
def test_recipes_match_golden_digest(make, config, digest):
    h = hashlib.sha256()
    for plan in build_plan_family(make(), config).values():
        h.update(repr(plan.recipe).encode())
    assert h.hexdigest() == digest
