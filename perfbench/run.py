"""deteq benchmark: one workload per process, end-to-end or traced per layer.

    python3 perfbench/run.py --workload sv_density --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports ``deteq`` from the
checkout's ``src``.  The launcher pins the environment (BLAS threads, no
``DETEQ_THREADS``), times set-up in several fresh processes, then runs
``worker.py`` for the timed passes.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` the worker wraps each layer's calls
and the launcher reports per-layer metrics.  Every pass is checked against
the workload's gates and against the first pass's output bytes.  The last
line of output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the full record of the run, spans included, goes to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from tracing import tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# One BLAS thread: the steadiest timing on a shared two-core machine, and the
# plain single-threaded baseline.  Must never exceed the cores available.
BLAS_THREADS = 1
# Set-up is short and the machine's speed drifts, so it is sampled in probe
# processes before and after the timed passes, plus the worker itself.
SETUP_PROBES = 8
RUN_LIMIT_S = 170.0


def _pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("DETEQ_THREADS", None)  # density runs its default warm-started path
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list, env: dict, deadline: float) -> tuple:
    """Run worker.py; return (spawn time, its JSON record) or raise RuntimeError."""
    spawned = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - spawned, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return spawned, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    env = _pinned_env()
    common = ["--workload", name, "--seed", str(seed)]
    setups = []

    def probe():
        spawned, ready = _worker(common + ["--probe"], env, deadline)
        setups.append(ready["ready"] - spawned)

    for _ in range(SETUP_PROBES // 2):
        probe()
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        spawned, record = _worker(common + ["--seconds", str(seconds), "--trace", str(trace),
                                            "--workdir", workdir], env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(record["ready"] - spawned)
    for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
        probe()

    passes = record["passes"]
    attempted = failed = 0
    for p in passes:
        attempted += len(p["items"])
        ok = p["identical"] and all(code == 0 for code in p["codes"])
        failed += sum(1 for _, item_ok in p["items"] if not (ok and item_ok))
    walls = [p["wall_s"] for p in passes]
    if trace:
        traced = [p for p in passes if p["traced"]]
        # median_low keeps counts whole: every value is one pass's reading.
        metrics = {key: {"value": statistics.median_low(p["layers"][key][0] for p in traced),
                         "unit": unit}
                   for key, (_, unit) in traced[0]["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(p["wall_s"] for p in traced) - walls[0], "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update(workload=name, why=WORKLOADS[name].why, seed=seed, seconds=seconds,
                  trace=trace, setup_samples_s=setups, result=result)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def _report(record: dict) -> None:
    result, passes = record["result"], record["passes"]
    print(f"== {record['workload']} (seed {record['seed']}, trace {record['trace']}): "
          f"{record['why']}")
    for argv in record["argv"]:
        print("   deteq " + " ".join(argv))
    print("   environment " + json.dumps(record["environment"], sort_keys=True))
    walls = [p["wall_s"] for p in passes]
    if len(walls) > 10:
        value, pct = tail(walls)
        spread = f"wall_s p{pct:.0f} {value:.4f}"
    else:
        spread = f"wall_s min {min(walls):.4f} max {max(walls):.4f} (too few for a tail percentile)"
    print(f"   passes {len(passes)}, {spread}")
    if record["untraced"]:
        print("   untraced " + ", ".join(record["untraced"]))
    for key, metric in result["metrics"].items():
        print(f"   {key:28s} {metric['value']:.6g} {metric['unit']}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"   error_rate {rate:.6g} ({result['failed']}/{result['attempted']} items failed)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "deteq", "cli.py")):
        print(f"perfbench: no deteq sources in {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if BLAS_THREADS > len(os.sched_getaffinity(0)):
        print("perfbench: more BLAS threads than available cores", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.perf_counter() + RUN_LIMIT_S * len(names)
    try:
        records = [run_workload(n, args.seed, args.seconds, args.trace, deadline)
                   for n in names]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for record in records:
        _report(record)
    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": m for r in records
                        for k, m in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
