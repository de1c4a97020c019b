"""Benchmark of censor-lab's three kinds of traffic.

    python3 perfbench/run.py --workload {point,horizon,verify} --seed N --seconds S --trace {0,1}

One thread runs a closed loop of whole passes over the workload's input
list (workloads.py) until S seconds have passed and MIN_OPS operations have
completed.  Every output is compared exactly with the first pass's output
for the same input, and each first-pass output is checked against
reference.py after the loop.  The last line of standard output is one JSON
object:

  --trace 0  setup_s, ops_per_s, op_p50_ms, op_p90_ms, peak_rss_mb
  --trace 1  the per-layer numbers of tracer.PER_LAYER, from spans recorded
             around the library's public functions; a traced run stops early
             once SPAN_BUDGET spans are held, at the end of a pass.

Details and the spans go to perfbench/out/.  The library is imported from
src/ beside this directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# fresh interpreters timed for setup_s before and again after the loop, so
# that the median spans the run rather than one burst of machine load
SETUP_REPEATS = 4
SPAN_BUDGET = 1_000_000
# enough completed operations for ten samples beyond the 90th percentile
MIN_OPS = 100

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB")]


def time_setup(repeats: int) -> list[float]:
    """Wall times of `import censor_lab, censor_lab.cli` in fresh interpreters."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            "t0 = time.perf_counter(); import censor_lab, censor_lab.cli; "
            "print(time.perf_counter() - t0)")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return times


class Run:
    """Whole passes of one workload's operations until the time is up."""

    def __init__(self, workload, inputs):
        self.wl = workload
        self.inputs = inputs
        self.first = [None] * len(inputs)
        self.latency = array("d")
        self.attempted = 0
        self.failures = Counter()
        self.mismatches = Counter()
        self.passes = 0
        self.elapsed = 0.0

    @property
    def failed(self):
        return sum(self.failures.values())

    def loop(self, seconds, tracer=None):
        clock = time.perf_counter
        op, summary = self.wl.op, self.wl.summary
        begin = clock()
        while True:
            for i, x in enumerate(self.inputs):
                if tracer is not None:
                    tracer.op_id = self.attempted
                self.attempted += 1
                t0 = clock()
                try:
                    raw = op(x)
                except Exception as exc:  # a failed operation is counted, and the run goes on
                    self.failures[(i, type(exc).__name__)] += 1
                    continue
                self.latency.append(clock() - t0)
                out = summary(raw)
                if self.first[i] is None:
                    self.first[i] = out
                elif out != self.first[i]:
                    self.mismatches[i] += 1
            self.passes += 1
            self.elapsed = clock() - begin
            if tracer is not None and len(tracer) >= SPAN_BUDGET:
                return
            if self.elapsed >= seconds and len(self.latency) >= MIN_OPS:
                return

    def check(self):
        errors = [f"input {i}: output differs from its first pass in {n} passes"
                  for i, n in self.mismatches.items()]
        for i, out in enumerate(self.first):
            if out is None:
                continue
            try:
                errs = self.wl.check(self.inputs[i], out)
            except Exception as exc:  # an output so wrong that checking it fails
                errs = [f"check raised {type(exc).__name__}: {exc}"]
            errors += [f"input {i} {tuple(self.inputs[i])}: {e}" for e in errs]
        return errors


def end_to_end(run, setup_s):
    lat = run.latency
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / run.elapsed,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("point", "horizon", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "censor_lab" / "__init__.py").is_file():
        print(f"error: the censor_lab sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)

    setup_times = []
    if not args.trace:
        time_setup(1)  # writes the bytecode caches and warms the file cache
        setup_times = time_setup(SETUP_REPEATS)
    import tracer as tr
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed % 2**64)  # numpy seeds must be non-negative
    run = Run(wl, inputs)
    for x in inputs:  # lazy set-up inside the library and numpy, untimed
        try:
            wl.op(x)
            break
        except Exception:  # a failing input: warm up on the next one
            continue

    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tracer.install()
        try:
            run.loop(args.seconds, tracer)
        finally:
            tracer.uninstall()
    else:
        run.loop(args.seconds)
        setup_times += time_setup(SETUP_REPEATS)

    errors = run.check()
    if tracer is None:
        values, units = end_to_end(run, statistics.median(setup_times)), dict(END_TO_END)
    else:
        values = tracer.metrics(run.attempted)
        values.update(tr.import_times(SRC, ROOT))
        values["trace.op_p50_ms"] = statistics.median(run.latency) * 1e3
        units = dict(tr.PER_LAYER)
        tracer.save(OUT / f"trace-{args.workload}-{args.seed}.npz")
    result = {
        "correct": not errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, passes=run.passes,
                  elapsed_s=run.elapsed, inputs=len(inputs), errors=errors[:100],
                  failures=[[i, kind, n] for (i, kind), n in sorted(run.failures.items())])
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    kinds = Counter(kind for (_, kind) in run.failures.elements())
    if kinds:
        print(f"failed operations: {dict(kinds)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
