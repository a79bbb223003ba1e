"""Closed-loop benchmark of the polyvol command line, one caller, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: it imports polyvol from ./src. One run
builds the workload's pass from the seed, times whole passes of
`polyvol.cli.main(argv)` calls (stdout captured) until S seconds of
passes have been measured, checks every output against an independent
computation outside the timed section, and prints one JSON line:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. See bench/README.md.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from pvbench import checks, tracing
from pvbench.workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

SETUP_REPEATS = 5
MIN_CALLS = 100  # the 90th percentile needs ten calls beyond it
# Cheap calls, one per command, that load what the first call of each
# command would otherwise load lazily.
WARM_UP = (
    ["volume", "path:4"],
    ["volume", "edges:3:0-1,1-2", "--method", "rvf", "--json"],
    ["volume", "kbip:2,2", "--method", "perm"],
    ["count", "cycle:3", "2"],
    ["ehrhart", "path:3"],
    ["crosscheck", "path:3", "--methods", "rvf,ehrhart,mc", "--samples", "1000"],
    ["sliced", "kbip:1,2"],
    ["series", "3", "--terms", "10"],
    ["families", "path", "1..3"],
)
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import polyvol.cli; print(time.perf_counter() - t)"
)


def call_cli(cli, argv):
    """(exit code, stdout, stderr) of one in-process CLI call; an exception
    escaping main counts as exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def import_seconds():
    """Time to import polyvol.cli in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def set_up(cli, build, seed, workdir):
    """Build the pass SETUP_REPEATS times; returns (calls, median set-up time).

    One set-up is a fresh interpreter's import of polyvol, building the
    pass (edge-list files included) and the warm-up calls."""
    times = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = perf_counter()
        calls = build(seed, workdir)
        for argv in WARM_UP:
            rc, _, err = call_cli(cli, argv)
            if rc != 0:
                raise RuntimeError(f"warm-up call {argv} failed: {err}")
        times.append(imported + perf_counter() - start)
    return calls, statistics.median(times)


class Verdicts:
    """Checks outputs; an output equal to one already checked for the same
    call shares its verdict."""

    def __init__(self, calls):
        self.calls = calls
        self.seen = [None] * len(calls)
        self.errors = []

    def take(self, index, out):
        if self.seen[index] == out:
            return
        self.seen[index] = out
        call = self.calls[index]
        try:
            checks.check_call(call, out)
        except (checks.CheckError, ValueError, IndexError, KeyError) as exc:
            self.errors.append(f"{' '.join(call.argv)}: {exc!r}")


def measure(cli, calls, seconds, verdicts):
    """Time whole passes until `seconds` of them and MIN_CALLS calls are done."""
    latencies, passes, busy, checking = [], 0, 0.0, 0.0
    attempted = failed = 0
    failures = {}
    while busy < seconds or len(latencies) < MIN_CALLS:
        results = []
        start = perf_counter()
        for call in calls:
            t0 = perf_counter()
            results.append(call_cli(cli, call.argv))
            latencies.append(perf_counter() - t0)
        busy += perf_counter() - start
        passes += 1
        start = perf_counter()
        for index, (rc, out, err) in enumerate(results):
            attempted += 1
            if rc != 0:
                failed += 1
                failures.setdefault(" ".join(calls[index].argv), (rc, out + err))
            else:
                verdicts.take(index, out)
        checking += perf_counter() - start
    return {
        "latencies": latencies,
        "passes": passes,
        "busy": busy,
        "checking": checking,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polyvol" / "cli.py").is_file():
        print(f"no polyvol sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import polyvol.cli as cli

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        start = perf_counter()
        calls, setup_s = set_up(cli, WORKLOADS[args.workload], args.seed, Path(tmp))
        setup_wall = perf_counter() - start
        verdicts = Verdicts(calls)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.start()
        try:
            run = measure(cli, calls, args.seconds, verdicts)
        finally:
            if tracer is not None:
                tracer.stop()

    for text in verdicts.errors:
        print(f"WRONG OUTPUT {text}", file=sys.stderr)
    for command, (rc, text) in run["failures"].items():
        print(f"FAILED (exit {rc}) {command}: {text.strip().splitlines()[-1:]}", file=sys.stderr)
    pass_s = run["busy"] / run["passes"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {run['passes']} passes of "
        f"{len(calls)} calls, {pass_s:.4f} s per pass; set-up {setup_wall:.2f} s, "
        f"checks {run['checking']:.2f} s",
        file=sys.stderr,
    )

    if tracer is not None:
        layers = tracing.per_pass(tracer.spans, run["passes"])
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.METRICS.items()}
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "passes": run["passes"],
            "pass_s": pass_s,
            "spans": [span[:4] for span in tracer.spans],
        }))
    else:
        latencies = run["latencies"]
        completed = run["attempted"] - run["failed"]
        metrics = {
            "calls_per_s": {"value": completed / run["busy"], "unit": "1/s"},
            "latency_p50_ms": {"value": percentile(latencies, 50) * 1e3, "unit": "ms"},
            "latency_p90_ms": {"value": percentile(latencies, 90) * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({
        "correct": not verdicts.errors,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
