"""Smoke test: every script under scripts/ runs to its closing line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (argv, closing line prefix, leading words of lines it must also print)
SCRIPTS = [
    (("capacity_survey.py", "--max-n", "12"), "complete_bipartite  12  1/4",
     [["family", "n", "lower", "upper", "exact", "t_i,t_j", "witness"],
      ["cycle", "3", "1/2", "1/2", "yes", "-", "PASS"],
      ["path", "12", "11/21", "11/20", "no", "-", "PASS"],
      ["star", "12", "1", "1", "yes", "-", "PASS"],
      ["complete", "12", "3/17", "1", "no", "3,3", "PASS"],
      ["complete_bipartite", "12", "1/4", "1", "no", "2,2", "PASS"]]),
    (("reproduce_tables.py",), "matches frozen reference: yes", []),
    (("verify_battery.py", "--seeds", "1"), "0 failures, ",
     [["union-c4+star5", "PASS", "rate", "2/3"],
      ["complete5-t2", "PASS", "rate", "1/3"],
      ["union-100xc4", "PASS", "rate", "1/2"]]),
]


@pytest.mark.parametrize("argv,closing,also", SCRIPTS,
                         ids=[argv[0] for argv, _, _ in SCRIPTS])
def test_script_runs_to_its_closing_line(argv, closing, also):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    assert lines[-1].startswith(closing)
    for words in also:
        assert any(line.split()[:len(words)] == words for line in lines)
