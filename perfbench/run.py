"""Benchmark for localpir: time to a verdict, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_exact --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --baseline

A workload is a fixed list of requests built from the seed.  A pass issues
them in order as a closed loop with one client in one process: CLI requests
go through `localpir.cli.main(argv)` with stdout captured, library requests
call the public functions, and every answer is checked against its golden
value after its latency is taken.  Each pass runs in a fresh interpreter,
so a memo or cache filled in one pass cannot serve the next; within a pass
caches work as they would for any long-lived client.  Passes repeat while
the next one is expected to end within `--seconds`.

Timings take each request's fastest latency over the passes.  Every pass
does the same work from the same fresh start, so first-call, cache-fill
and garbage-collection costs are in each of them; what differs between
passes is interference from the shared machine, which only adds time and
shifts the machine's speed by up to 40% over seconds to minutes.  A
request of a tenth of a second meets a fast stretch in some pass far more
often than a whole pass of a few seconds does, so taking the fastest of
each request, rather than of whole passes, leaves out more of that noise.
No request lasts more than about a tenth of a second, for the same
reason (see workloads.py).

With `--trace 0` the last stdout line carries the end-to-end metrics:

    setup_s      median over 60 cold interpreters, started between the
                 passes, of `import localpir.cli` plus building the
                 argument parser
    wall_s       time of one pass in which every request ran at its
                 fastest: the sum of the request latencies below
    req_p50_ms   median request latency, where a request's latency is its
                 fastest over the passes
    req_p90_ms   90th percentile of the same latencies; every workload has
                 at least 100 requests, so at least 10 lie beyond it
    ok_frac      share of requests answered with their golden value
    peak_rss_mb  largest peak resident memory of a pass's process

A request that fails (raises, exits with an unexpected code, is refused or
answers wrongly) makes the run incorrect unless its workload lists that
failure as a known defect; an incorrect run exits with code 1.

With `--trace 1` half the time goes to untraced passes and half to traced
ones.  The per-layer metrics named in BENCHMARK.json, computed in
`tracing.py`, are medians over the traced passes; `trace.overhead_frac`
compares wall_s of the traced and untraced passes.  Spans of the last
traced pass are written to `.bench_work/` in the checkout.

`--baseline` re-measures the ROADMAP Baseline table once; it is not part
of the repeated runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

# Cold interpreters for setup_s in an untraced run, spread over the run
# between its passes.  One more, before the first pass, compiles bytecode
# and is discarded.
SETUP_STARTS = 60

SETUP_PROBE = ("import time\n"
               "t0 = time.perf_counter()\n"
               "import localpir.cli\n"
               "localpir.cli.build_parser()\n"
               "print(time.perf_counter() - t0)\n")

# Longest a single pass may take before the run is abandoned.
PASS_TIMEOUT_S = 150


def percentile(values, p: float) -> float:
    """p-th percentile (0..100) with linear interpolation between ranks."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LOCAL_PIR_CAP", None)
    return env


def measure_setup(starts: int) -> list[float]:
    times = []
    for _ in range(starts):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE],
                             env=child_env(), cwd=ROOT, capture_output=True,
                             text=True, timeout=60, check=True)
        times.append(float(out.stdout))
    return times


class Runner:
    """Issues requests one at a time and classifies each outcome."""

    def __init__(self, tracer=None):
        import localpir.cli
        from workloads import CliResult

        self.tracer = tracer
        self.cli = localpir.cli          # `main` is looked up per call
        self.result_type = CliResult

    def issue(self, req) -> tuple[float, tuple[str, str]]:
        """Latency in seconds and an outcome (status, detail)."""
        if self.tracer is not None:
            self.tracer.request += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            if req.argv is not None:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    try:
                        code = self.cli.main(list(req.argv))
                    except SystemExit as exc:
                        code = exc.code if isinstance(exc.code, int) else 2
                result = self.result_type(code, out.getvalue())
            else:
                result = req.call()
        except Exception as exc:
            latency = time.perf_counter() - start
            return latency, ("raised", type(exc).__name__)
        latency = time.perf_counter() - start
        if req.argv is not None:
            if self.tracer is not None:
                self.tracer.counts["cli.stdout_bytes"] += len(
                    result.out.encode())
            if result.code not in req.codes:
                return latency, ("exit", str(result.code))
        try:
            wrong = req.check(result)
        except Exception as exc:  # a malformed answer is a wrong answer
            wrong = f"unreadable answer: {type(exc).__name__}: {exc}"
        return latency, ("ok", "") if wrong is None else ("wrong", wrong)

    def run_pass(self, requests) -> list[list]:
        """One row per request: label, latency, status, detail, and whether
        the outcome is ok or a tolerated known defect."""
        rows = []
        for req in requests:
            latency, (status, detail) = self.issue(req)
            rows.append([req.label, latency, status, detail,
                         status == "ok" or (status, detail) in req.tolerate])
        return rows


def one_pass(workload: str, seed: int, traced: bool) -> dict:
    """Build the request list and issue it once, in this process."""
    import workloads

    requests = workloads.build(workload, seed, WORK_DIR)
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
    runner = Runner(tracer)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        rows = runner.run_pass(requests)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    result = {"wall_s": wall, "rows": rows,
              "rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        from tracing import layer_metrics

        tracer.write(WORK_DIR / f"trace-{workload}.json")
        result["layers"] = layer_metrics(tracer.spans, tracer.counts, 1)
        result["absent"] = tracer.absent
    return result


def spawn_pass(workload: str, seed: int, traced: bool) -> dict:
    """Run one pass in a fresh interpreter and return its report."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--pass",
         "--workload", workload, "--seed", str(seed),
         "--trace", str(int(traced))],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=PASS_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_for(workload: str, seed: int, seconds: float, traced: bool,
            setup_times: list[float] | None = None) -> list[dict]:
    """Whole passes while the next one is expected to end within `seconds`;
    at least one.

    With `setup_times`, SETUP_STARTS cold starts are measured between the
    passes, in step with the elapsed time, so that they sample the same
    stretch of time as the passes.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(spawn_pass(workload, seed, traced))
        elapsed = time.perf_counter() - start
        if setup_times is not None:
            due = min(SETUP_STARTS, round(SETUP_STARTS * elapsed / seconds))
            setup_times.extend(measure_setup(due - len(setup_times)))
            elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    if setup_times is not None:
        setup_times.extend(measure_setup(SETUP_STARTS - len(setup_times)))
    return passes


def summarize(passes) -> tuple[int, int, list[str], bool]:
    """attempted, failed, failure notes, and whether the run is correct.

    A request fails when it raises, exits with an unexpected code (a cap
    refusal included) or answers wrongly.  Every failure that its request
    does not tolerate as a known defect makes the run incorrect.
    """
    attempted = failed = 0
    notes: dict[str, int] = {}
    correct = True
    for p in passes:
        for label, _, status, detail, known in p["rows"]:
            attempted += 1
            if status == "ok":
                continue
            failed += 1
            correct = correct and known
            key = (f"{status} {detail}: {label}"
                   + ("" if known else " (not tolerated)"))
            notes[key] = notes.get(key, 0) + 1
    return attempted, failed, [f"{n}x {k}" for k, n in sorted(notes.items())], \
        correct


def request_latencies(passes) -> list[float]:
    """Each request's fastest latency over the passes."""
    return [min(column) for column in zip(*([row[1] for row in p["rows"]]
                                            for p in passes))]


def pass_wall(passes) -> float:
    """Time of a pass in which every request ran at its fastest: the sum
    of the requests' fastest latencies over the passes."""
    return sum(request_latencies(passes))


def per_layer_units() -> dict[str, str]:
    """Per-layer metric names and units, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float,
                 traced: bool) -> dict:
    setup_times = None
    if not traced:
        measure_setup(1)                  # compiles bytecode; not counted
        setup_times = []
    untraced = run_for(workload, seed, seconds / 2 if traced else seconds,
                       False, setup_times)
    traced_passes = (run_for(workload, seed, seconds / 2, True)
                     if traced else [])
    passes = untraced + traced_passes
    attempted, failed, notes, correct = summarize(passes)
    for note in notes:
        print(note, file=sys.stderr)
    # Every pass, traced or not, must give each request the same outcome.
    outcomes = [[(row[0], row[2], row[3]) for row in p["rows"]]
                for p in passes]
    if any(o != outcomes[0] for o in outcomes):
        print("outcomes differ between passes", file=sys.stderr)
        correct = False
    if traced:
        layers = {name: statistics.median(p["layers"][name]
                                          for p in traced_passes)
                  for name in traced_passes[0]["layers"]}
        layers["trace.overhead_frac"] = (
            pass_wall(traced_passes) / pass_wall(untraced) - 1.0)
        if traced_passes[0]["absent"]:
            print("absent: " + ", ".join(traced_passes[0]["absent"]),
                  file=sys.stderr)
        metrics = {name: metric(layers[name], unit)
                   for name, unit in per_layer_units().items()}
    else:
        latencies = request_latencies(untraced)
        p90 = percentile(latencies, 90)
        print(f"{len(latencies)} requests, {len(untraced)} passes, "
              f"{len(setup_times)} cold starts; "
              f"{sum(t > p90 for t in latencies)} requests beyond p90; "
              "pass times " + " ".join(f"{p['wall_s']:.3f}" for p in untraced),
              file=sys.stderr)
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "wall_s": metric(pass_wall(untraced), "s"),
            "req_p50_ms": metric(1000.0 * percentile(latencies, 50), "ms"),
            "req_p90_ms": metric(1000.0 * p90, "ms"),
            "ok_frac": metric(1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": metric(max(p["rss_mb"] for p in untraced), "MB"),
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("verify_exact",
                                               "retrieve_large",
                                               "plan_bounds"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="re-measure the ROADMAP Baseline table once")
    parser.add_argument("--pass", dest="one_pass", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "localpir" / "__init__.py").is_file():
        print(f"no localpir sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.baseline:
        import baseline

        return baseline.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.one_pass:
        print(json.dumps(one_pass(args.workload, args.seed,
                                  bool(args.trace))))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
