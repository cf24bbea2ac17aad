"""Tests of the benchmark's own helpers: percentiles, request isolation,
workload generation, the span wrapper and self-time accounting.

Run with `python -m pytest perfbench/tests` from the repository root.
"""

import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from localpir import capacity, cli, scheme  # noqa: E402


def test_percentile_known_values():
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile([1, 2, 3, 4], 90) == pytest.approx(3.7)
    assert run.percentile([1, 2, 3, 4], 0) == 1
    assert run.percentile([1, 2, 3, 4], 100) == 4
    assert run.percentile([7], 90) == 7
    data = [0.3, 5.0, 1.2, 9.9, 2.2, 2.2, 7.1]
    deciles = statistics.quantiles(data, n=10, method="inclusive")
    for i, expected in enumerate(deciles, start=1):
        assert run.percentile(data, 10 * i) == pytest.approx(expected)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_runner_isolates_and_classifies_failures():
    runner = run.Runner()

    def crash():
        return 1 // 0

    reqs = [workloads.Request("ok", lambda res: None, call=lambda: 1),
            workloads.Request("crash", lambda res: None, call=crash),
            workloads.Request("wrong", lambda res: "differs", call=lambda: 1),
            workloads.Request("exit", lambda res: None,
                              argv=("bounds", "--family", "cycle", "--n", "2")),
            workloads.Request("bad argv", lambda res: None,
                              argv=("no-such-command",))]
    rows = runner.run_pass(reqs)
    assert [row[2:4] for row in rows] == [
        ["ok", ""], ["raised", "ZeroDivisionError"], ["wrong", "differs"],
        ["exit", "2"], ["exit", "2"]]
    assert all(row[1] >= 0 for row in rows)
    attempted, failed, notes, correct = run.summarize([{"rows": rows}])
    assert (attempted, failed, correct) == (5, 4, False)
    assert "1x raised ZeroDivisionError: crash (not tolerated)" in notes


def test_only_tolerated_failures_keep_the_run_correct():
    runner = run.Runner()

    def crash():
        return 1 // 0

    known = (("raised", "ZeroDivisionError"),)
    tolerated = [workloads.Request("ok", lambda res: None, call=lambda: 1),
                 workloads.Request("crash", lambda res: None, call=crash,
                                   tolerate=known)]
    rows = runner.run_pass(tolerated)
    assert run.summarize([{"rows": rows}])[1:] == (
        1, ["1x raised ZeroDivisionError: crash"], True)
    # A refusal or a wrong answer is never covered by another tolerance.
    others = [workloads.Request("exit", lambda res: None, tolerate=known,
                                argv=("bounds", "--family", "cycle",
                                      "--n", "2")),
              workloads.Request("wrong", lambda res: "differs",
                                call=lambda: 1, tolerate=known)]
    for req in others:
        assert run.summarize([{"rows": runner.run_pass([req])}])[3] is False


def test_pass_statistics_take_the_fastest():
    passes = [{"wall_s": w, "rows": [["a", a, "ok", "", True],
                                     ["b", b, "ok", "", True]]}
              for w, a, b in ((3.0, 1.0, 9.0), (1.5, 2.0, 7.0),
                              (2.0, 5.0, 8.0))]
    assert run.request_latencies(passes) == [1.0, 7.0]
    assert run.pass_wall(passes) == 8.0


def _signature(reqs):
    return [(r.label, r.argv) for r in reqs]


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_workloads_deterministic_per_seed(workload, tmp_path):
    first = workloads.build(workload, 3, tmp_path)
    again = workloads.build(workload, 3, tmp_path)
    other = workloads.build(workload, 4, tmp_path)
    assert _signature(first) == _signature(again)
    assert _signature(first) != _signature(other)
    assert all((r.argv is None) != (r.call is None) for r in first)


def test_golden_rate_matches_exhaustive_search():
    for d in range(1, 60):
        best, t, _ = capacity.et_lower_bound(d, d)
        assert workloads.equal_degree_rate(d) == best
        assert workloads.et_rate(d, t) == best


def test_wrapper_passes_results_and_exceptions_through():
    tracer = tracing.Tracer()
    marker = object()
    err = ValueError("boom")

    def ok(x, *, y):
        return (x, y, marker)

    def bad():
        raise err

    wrapped_ok = tracer.wrap("m.ok", ok)
    wrapped_bad = tracer.wrap("m.bad", bad)
    assert wrapped_ok(1, y=2) == (1, 2, marker)
    assert wrapped_ok(1, y=2)[2] is marker
    with pytest.raises(ValueError) as info:
        wrapped_bad()
    assert info.value is err
    assert [s.error for s in tracer.spans] == [None, None, "ValueError"]
    assert wrapped_ok.__name__ == "ok"


def test_self_times_of_nested_spans():
    span = tracing.Span
    spans = [span("a.outer", 0.0, 10.0, None, 0),
             span("a.first", 1.0, 3.0, 0, 0),
             span("a.second", 4.0, 8.0, 0, 0),
             span("a.inner", 5.0, 6.0, 2, 0),
             span("a.next", 11.0, 12.0, None, 1)]
    own = tracing.self_times(spans)
    assert own == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])
    assert sum(own[:4]) == pytest.approx(spans[0].duration)


def test_self_times_sum_to_outer_span_when_traced():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(1000))

    wrapped_leaf = tracer.wrap("m.leaf", leaf)
    wrapped_outer = tracer.wrap(
        "m.outer", lambda: [wrapped_leaf() for _ in range(3)])
    wrapped_outer()
    own = tracing.self_times(tracer.spans)
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 0]
    assert sum(own) == pytest.approx(tracer.spans[0].duration)
    assert all(t >= 0 for t in own)


def test_install_patches_every_importer_and_restores():
    original = scheme.build_plan_family
    assert cli.build_plan_family is original
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert scheme.build_plan_family is not original
        assert cli.build_plan_family is scheme.build_plan_family
        assert cli.main(["bounds", "--family", "cycle", "--n", "5",
                         "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    assert scheme.build_plan_family is original
    assert cli.build_plan_family is original
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "capacity.family_bounds"} <= names


def test_absent_names_are_reported(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED",
                        (("scheme", "no_such_function", None),
                         ("graphs", "components", None)))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["scheme.no_such_function"]
    metrics = tracing.layer_metrics([], tracer.counts, 1)
    assert set(metrics) == set(tracing.MOVES) - {"trace.overhead_frac"}


def test_per_layer_metrics_match_benchmark_json():
    assert set(run.per_layer_units()) == set(tracing.MOVES)
