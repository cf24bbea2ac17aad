"""One-shot re-measurement of the ROADMAP Baseline table.

Not part of the repeated benchmark runs and not gated: the K(2,4) row
alone takes tens of seconds.  Each row is timed once, wall clock, in this
process, and its answer is checked.  Prints a table and, as the last line,
the rows as JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from localpir import errors, graphs, scheme, sim, verify

ROOT = Path(__file__).resolve().parent.parent


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _check(family_graph, config):
    plans = scheme.build_plan_family(family_graph, config)
    return verify.check_scheme(plans, family_graph).verdict


def _refusal(family_graph, config):
    plans = scheme.build_plan_family(family_graph, config)
    try:
        verify.check_scheme(plans, family_graph)
    except errors.EnumerationTooLarge as exc:
        return f"refused: {exc}"
    return "not refused"


def _rate(family_graph, config):
    return sim.measure_rate(family_graph, config).rate


def _startup():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("LOCAL_PIR_CAP", None)
    out = subprocess.run([sys.executable, "-m", "localpir.cli", "bounds",
                          "--family", "cycle", "--n", "6"], env=env,
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=60)
    return f"exit {out.returncode}"


def rows():
    c4 = graphs.family("cycle", 4)
    k24 = graphs.family("complete_bipartite", a=2, b=4)
    k33 = graphs.family("complete_bipartite", a=3, b=3)
    yield ("check_scheme K(2,4) t=(1,2)", "PASS",
           lambda: _check(k24, scheme.et_config(1, 2)))
    yield ("check_scheme K(3,3) t=2", "PASS",
           lambda: _check(k33, scheme.et_config(2)))
    yield ("check_scheme complete-4 t=2", "PASS",
           lambda: _check(graphs.family("complete", 4), scheme.et_config(2)))
    yield ("check_scheme complete-5 t=2", "refused",
           lambda: _refusal(graphs.family("complete", 5),
                            scheme.et_config(2)))
    yield ("measure_rate cycle-2000 t=2", Fraction(1, 2),
           lambda: _rate(graphs.family("cycle", 2000), scheme.et_config(2)))
    yield ("measure_rate complete-30 t=2", Fraction(2, 31),
           lambda: _rate(graphs.family("complete", 30), scheme.et_config(2)))
    for copies in (25, 50, 100):
        g = graphs.family("disjoint_copies", base=c4, copies=copies)
        yield (f"union plan family {copies}xC4", 4 * copies,
               lambda g=g: len(scheme.build_plan_family(
                   g, scheme.union_config())))
    yield ("local-pir bounds startup", "exit 0", _startup)


def main() -> int:
    results = []
    ok = True
    for label, expected, fn in rows():
        seconds, got = _timed(fn)
        good = (got.startswith("refused") if expected == "refused"
                else got == expected)
        ok = ok and good
        results.append({"case": label, "seconds": seconds, "answer": str(got),
                        "expected": str(expected), "ok": good})
        print(f"{label:32s} {seconds:9.3f}s  {got}"
              + ("" if good else f"  (expected {expected})"), flush=True)
    print(json.dumps({"python": sys.version.split()[0], "rows": results}))
    return 0 if ok else 1
