"""The permsplit benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed makes the workload's inputs: a random relabelling of the points and
an order for the generators of every action.  One operation takes one input
from parsed generators to a verified, rendered decomposition.  A batch runs
every input of the workload once; batches repeat, each on freshly parsed
generators, until S seconds have passed (at least one batch runs).  Every
result is checked afterwards, outside the timed region.

With --trace 0 the end-to-end metrics are printed; with --trace 1 each
untraced batch is followed by a traced one, and the per-layer metrics are
printed together with the tracing overhead.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 2  # per batch, and once more after the last


@contextmanager
def generator_files(inputs):
    """The workload's generator files, in a scratch directory of the checkout."""
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        paths = []
        for i, inp in enumerate(inputs):
            path = os.path.join(tmp, f"{i}_{inp.name}.gens")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inp.text)
            paths.append(path)
        yield paths


def setup_probes(paths):
    """Seconds for fresh processes to import permsplit and parse every file."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, *paths],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_batch(inputs, recorder=None):
    """Parse fresh generators, then time every operation of the batch."""
    import pipeline

    gens = pipeline.parse_inputs(inputs)
    outcomes = []
    t0 = time.perf_counter()
    for inp, g in zip(inputs, gens):
        if recorder is not None:
            recorder.op = inp.name
        outcomes.append(pipeline.run_operation(g, inp.verify_matrix))
    return time.perf_counter() - t0, outcomes


class Tally:
    """Gates each batch as soon as it is timed, so no batch outlives its check.

    Keeps only the first batch's text reports, which later batches must
    match byte for byte.
    """

    def __init__(self, inputs):
        self.inputs = inputs
        self.reference = None
        self.batches = 0
        self.failed = 0
        self.failures = []
        self.exact = 0
        self.coeffs = 0

    @property
    def attempted(self):
        return self.batches * len(self.inputs)

    def add(self, outcomes):
        import pipeline

        for i, (inp, out) in enumerate(zip(self.inputs, outcomes)):
            problems = pipeline.gate(inp, out, self.reference[i] if self.reference else None)
            self.failed += bool(problems)
            self.failures += [f"batch {self.batches} {inp.name}: {p}" for p in problems]
            exact, coeffs = pipeline.exact_coefficients(out)
            self.exact += exact
            self.coeffs += coeffs
        if self.reference is None:
            self.reference = [out.text for out in outcomes]
        self.batches += 1


def end_to_end(inputs, seconds):
    tally = Tally(inputs)
    setup, times = [], []
    with generator_files(inputs) as paths:
        start = time.perf_counter()
        # probes run between batches, so their median spans the whole run
        while not times or time.perf_counter() - start < seconds:
            setup += setup_probes(paths)
            elapsed, outcomes = run_batch(inputs)
            times.append(elapsed)
            tally.add(outcomes)
            del outcomes
        setup += setup_probes(paths)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "solve_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "exact_coeff_ratio": (tally.exact / tally.coeffs if tally.coeffs else 0.0, "ratio"),
        "success_ratio": (1 - tally.failed / tally.attempted, "ratio"),
    }
    notes = [f"batches {len(times)}: solve_s samples " + " ".join(f"{t:.4f}" for t in times)]
    return tally, metrics, notes


def per_layer(inputs, seconds, spans_path):
    import spans

    tally = Tally(inputs)
    plain, traced_times, layer = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        elapsed, outcomes = run_batch(inputs)
        plain.append(elapsed)
        tally.add(outcomes)
        recorder = spans.SpanRecorder()
        with spans.traced(recorder):
            elapsed, outcomes = run_batch(inputs, recorder)
        traced_times.append(elapsed)
        tally.add(outcomes)
        del outcomes
        layer.append(spans.layer_metrics(recorder.spans))
    recorder.dump(spans_path)
    metrics = {
        name: (statistics.median(m[name][0] for m in layer), unit)
        for name, (_, unit) in layer[0].items()
    }
    metrics["trace.overhead_s"] = (statistics.median(traced_times) - statistics.median(plain), "s")
    metrics["trace.spans"] = (len(recorder.spans), "count")
    notes = [f"spans written to {os.path.relpath(spans_path, ROOT)}"]
    for m in layer[1:]:
        for name, (value, unit) in m.items():
            if unit == "count" and value != layer[0][name][0]:
                notes.append(f"count {name} changed between traced batches")
    return tally, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "permsplit", "__init__.py")):
        print(f"perfbench: no permsplit sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    inputs = WORKLOADS[args.workload](args.seed)
    print(f"workload {args.workload} seed {args.seed} inputs "
          + " ".join(f"{inp.name}(N={inp.text.split()[1]})" for inp in inputs))
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
        tally, metrics, notes = per_layer(inputs, args.seconds, spans_path)
    else:
        tally, metrics, notes = end_to_end(inputs, args.seconds)
    for line in notes + tally.failures:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
