"""Runs one workload in this process: set-up, timed passes, gates, tracing.

Started by ``run.py`` with the environment already pinned.  With ``--probe``
it only sets up (imports ``deteq`` and builds the seeded argv) and reports
when it was ready, so the launcher can time set-up several times per run.
Otherwise it changes into ``--workdir`` and repeats passes of the workload's
CLI invocations through ``deteq.cli.main`` until ``--seconds`` have passed,
and prints one JSON record as its last line of output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import deteq
import deteq.cli
import numpy as np
import scipy

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS


def _environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "deteq": os.path.dirname(deteq.__file__),
    }


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_pass(workload, argvs: list, tracer: Tracer | None) -> dict:
    for name in os.listdir("."):
        os.remove(name)
    codes = []
    if tracer is not None:
        tracer.install()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                try:
                    codes.append(deteq.cli.main(list(argv)))
                except Exception:  # a crash fails this command's items, not the run
                    traceback.print_exc()
                    codes.append("exception")
    finally:
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()
    files = {}
    for name in sorted(os.listdir(".")):
        with open(name, "rb") as fh:
            files[name] = fh.read()
    return {"wall_s": wall, "cpu_s": cpu, "codes": codes, "files": files,
            "items": workload.check(argvs, codes, files)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    argvs = workload.make_argvs(args.seed)
    ready = time.perf_counter()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    os.chdir(args.workdir)
    tracer = Tracer() if args.trace else None
    passes, reference = [], None
    start = time.perf_counter()
    while True:
        # In a traced run the first pass stays untraced: it is the reference
        # for the rerun check and the base of the tracing overhead.
        traced = tracer is not None and len(passes) > 0
        if traced:
            tracer.request = len(passes)
            first_span = len(tracer.spans)
        record = _run_pass(workload, argvs, tracer if traced else None)
        files = record.pop("files")
        if reference is None:
            reference = files
        record["identical"] = files == reference
        record["traced"] = traced
        if traced:
            record["layers"] = layer_metrics(tracer.spans[first_span:], workload.support)
        passes.append(record)
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (tracer is None or len(passes) >= 2):
            break

    print(json.dumps({
        "ready": ready,
        "argv": argvs,
        "environment": _environment(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "untraced": sorted(tracer.untraced) if tracer else [],
        "spans": tracer.spans if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
