"""One benchmark run in one process: timed passes over a workload's commands.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and the
BLAS thread count fixed in the environment. Every command goes through
`zecap.cli.main` in this process, one at a time (closed loop, one client).
Prints one JSON line with the pass times, the host slowdown, the operation
tally, peak memory and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

import zecap.cli

from hostspeed import HostSampler, calibrate, slowdown
from tracer import PER_LAYER, Tracer
from workloads import (
    WORKLOADS,
    expected_for,
    load_expected,
    mismatches,
    operations,
    outcome_of,
    workload_seed,
)


# at least two untraced passes, so that pass_s averages over more than one
# stretch of host time even on the 10 to 20 s passes of ce-multiparty and
# portfolio; a traced run needs one untraced and one traced pass
MIN_PASSES = 2


def run_pass(ops, tracer: Tracer | None = None, clock=time.perf_counter):
    """Run every command once; returns (seconds, [(op, exit code, stdout, stderr)])."""
    results = []
    start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = zecap.cli.main(list(op.argv))
        except Exception:         # a crash is a failed operation, not a dead run
            traceback.print_exc(file=err)
            code = None
        results.append((op, code, out.getvalue(), err.getvalue()))
    return clock() - start, results


class Tally:
    """Attempted and failed operations, checked against the pinned outcomes."""

    def __init__(self, expected: dict[str, dict]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, results) -> int:
        """Count failures; return how many reports differ from their pinned digest."""
        differing = 0
        for op, code, stdout, stderr in results:
            self.attempted += 1
            want = self.expected[op.label]
            got = outcome_of(op, code, stdout)
            problems = mismatches(want, got)
            if problems:
                self.failed += 1
                print(f"FAILED {op.label}: {'; '.join(problems)}\n{stderr}",
                      file=sys.stderr)
            if op.output is None and got.sha256 != want["sha256"]:
                differing += 1
        return differing


@dataclass
class Phase:
    passes: list[float] = field(default_factory=list)     # seconds, samples left out
    slowdowns: list[float] = field(default_factory=list)  # host slowdown per pass
    layers: list[dict] = field(default_factory=list)      # per traced pass
    rss_mb: float = 0.0       # peak after the first pass, whatever the pass count

    @property
    def pass_s(self) -> float:
        """Median pass in seconds at the reference host speed."""
        return statistics.median(p / f for p, f in zip(self.passes, self.slowdowns))


def measure(ops, budget: float, tally: Tally, sampler: HostSampler,
            tracer: Tracer | None = None, min_passes: int = MIN_PASSES) -> Phase:
    """Passes until the next one would end past `budget` seconds, at least
    `min_passes`. Each pass is divided by the host slowdown `sampler` saw
    during it, and so are the per-layer seconds of a traced pass."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.start_pass()
        first = len(sampler.samples)
        seconds, results = run_pass(ops, tracer, sampler.clock)
        # a pass shorter than the sampling interval takes one sample after it
        factor = slowdown(sampler.samples[first:] or [calibrate()])
        if not phase.passes:
            phase.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        differing = tally.check(results)
        phase.passes.append(seconds)
        phase.slowdowns.append(factor)
        if tracer is not None:
            sample = tracer.pass_metrics()
            sample["specio.reports_differing"] = differing
            phase.layers.append({name: sample[name] / factor if unit == "s" else sample[name]
                                 for name, unit in PER_LAYER})
        if len(phase.passes) >= min_passes and \
                time.perf_counter() - start + statistics.median(phase.passes) > budget:
            return phase


def environment(blas_threads: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "blas_threads_runtime": _openblas_threads(),
    }


def _openblas_threads() -> int | None:
    """Thread count numpy's bundled OpenBLAS reports, when it can be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    wseed = workload_seed(args.seed)
    spec_dir = os.path.join(args.workdir, "specs")
    os.makedirs(spec_dir, exist_ok=True)
    ops = operations(args.workload, wseed, spec_dir)
    tally = Tally(expected_for(load_expected(), args.workload, wseed))
    result = {"workload_seed": wseed,
              "environment": environment(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))}
    with HostSampler() as sampler:
        if args.trace:
            # untraced and traced passes share the run, so their ratio is the overhead
            plain = measure(ops, args.seconds / 2, tally, sampler, min_passes=1)
            with Tracer(sampler.clock) as tracer:
                traced = measure(ops, args.seconds / 2, tally, sampler, tracer, min_passes=1)
        else:
            plain = measure(ops, args.seconds, tally, sampler)
    if args.trace:
        spans = os.path.join(args.workdir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans)
        metrics = {name: statistics.mean(sample[name] for sample in traced.layers)
                   for name, _ in PER_LAYER}             # mean over traced passes
        metrics["trace.overhead"] = traced.pass_s / plain.pass_s
        result.update(traced_passes=traced.passes, layers=metrics, spans=spans)
    result.update(passes=plain.passes, pass_s=plain.pass_s,
                  slowdown=statistics.median(plain.slowdowns),
                  attempted=tally.attempted, failed=tally.failed, peak_rss_mb=plain.rss_mb)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
