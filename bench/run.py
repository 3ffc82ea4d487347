"""zecap certificate-engine benchmark.

    python3 bench/run.py --workload {ce-multiparty,renyi-gap,portfolio}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The package is used from the checkout's
`src` directory; nothing is installed. With --trace 0 the last stdout line
holds the end-to-end metrics (setup_s, pass_s, peak_rss_mb); with --trace 1
it holds the per-layer metrics of a traced run. Either way it carries
`correct`, `attempted` and `failed`, the tally of operations checked against
bench/expected.json. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "zecap-bench")

# one BLAS thread: the engine's matrices are at most 1024 x 1024 and mostly
# 2..32 wide, and the benchmark shares a small machine with other work. Set
# here, before numpy loads, so that the calibration kernel timed in this
# process runs like the one in the worker, which inherits the setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

sys.path.insert(0, HERE)
from hostspeed import calibrate, slowdown  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
SETUP_CAL_BLOCK = 5               # calibration runs around each set-up sample
SETUP_TIMEOUT = 60
WORKER_SLACK = 120                # seconds a worker may overrun --seconds

_IMPORT_TIMER = ("import time; t = time.perf_counter(); import zecap; "
                 "print(time.perf_counter() - t)")


def bench_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "ZECAP_SEED")}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")
    return env


def measure_setup(env: dict[str, str]) -> tuple[list[float], float]:
    """Seconds of a cold `import zecap` in each of SETUP_SAMPLES fresh
    processes (after one more that only warms caches), and the host slowdown
    from calibration blocks timed here between them."""
    calibrate()                   # the first call pays numpy's lazy set-up
    samples, calibration = [], []
    for _ in range(SETUP_SAMPLES + 1):
        calibration += [calibrate() for _ in range(SETUP_CAL_BLOCK)]
        proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT,
                              check=True)
        samples.append(float(proc.stdout))
    calibration += [calibrate() for _ in range(SETUP_CAL_BLOCK)]
    return samples[1:], slowdown(calibration)


def describe(passes: list[float]) -> str:
    return (f"{len(passes)} passes, wall seconds min {min(passes):.4f} "
            f"median {statistics.median(passes):.4f} max {max(passes):.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "zecap", "cli.py")):
        print(f"error: no zecap sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    os.makedirs(WORKDIR, exist_ok=True)
    env = bench_env()
    start = time.perf_counter()
    setup, setup_slowdown = ([], 1.0) if args.trace else measure_setup(env)
    # the passes get what set-up left of --seconds
    budget = max(args.seconds - (time.perf_counter() - start), 0.0)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(budget),
           "--trace", str(args.trace), "--workdir", WORKDIR]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + WORKER_SLACK)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    print("env: " + " ".join(f"{k}={v}" for k, v in res["environment"].items()))
    slowdown = res["slowdown"]
    print(f"{args.workload} seed {args.seed} (workload seed {res['workload_seed']}): "
          f"untraced {describe(res['passes'])}; host slowdown {slowdown:.4f}; "
          f"fail_ratio {res['failed']}/{res['attempted']}")
    if args.trace:
        print(f"traced {describe(res['traced_passes'])}; "
              f"spans in {os.path.relpath(res['spans'], ROOT)}")
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        print(f"setup_s samples {', '.join(f'{s:.4f}' for s in setup)}; "
              f"host slowdown {setup_slowdown:.4f}")
        metrics = {
            "setup_s": {"value": statistics.median(setup) / setup_slowdown, "unit": "s"},
            "pass_s": {"value": res["pass_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["failed"] == 0 and res["attempted"] > 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
