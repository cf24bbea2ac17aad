"""Golden CLI output: byte-for-byte stdout of fixed commands.

Each digest is the sha256 of stdout as recorded before the plan, bound and
executor code was last restructured.  They pin what multiset comparisons
elsewhere cannot: the order in which singletons from both endpoints land
at a shared server, and literal transcript values replayed from a seed.
An intended change to any of these outputs is declared and re-recorded.
"""

import hashlib
import json

import pytest

from localpir.cli import main
from localpir.graphs import family

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
