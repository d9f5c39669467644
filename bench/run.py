"""Benchmark of the filtstab CLI: one workload, one seed, one JSON result line.

Run from the root of a source checkout::

    python3 bench/run.py --workload search-r2 --seed 1 --seconds 20 --trace 0

The set-up time is the median CPU time of several fresh interpreters that
each import ``filtstab``, generate the seeded inputs and write the
documents.  All times are CPU seconds scaled to reference seconds by a
calibration chunk run alongside (``calibrate.py``).  A further fresh interpreter then sends the workload's requests
through ``filtstab.cli.main`` and checks every report exactly (see
``worker.py``).  With ``--trace 0`` the last line of standard output carries
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the
per-layer metrics.  A machine and environment record, the report digest and
the report counters go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
# the keys of workloads.GENERATORS; this process does not import the package
WORKLOADS = ("search-r2", "search-r3", "stability-r4", "reports")
SETUP_SAMPLES = 5
DEADLINE_S = 170
# BLAS threads are pinned so that a run measures one core's worth of work
# on every machine; the package's float solves are tiny.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

UNITS = {
    "run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
    "request_p50_ms": "ms", "request_p95_ms": "ms",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".self_s", ".total_s")):
        return "s"
    if name.endswith(".calls") or ".log." in name or ".verdicts." in name or name == "trace.requests":
        return "count"
    return "1"


def children_cpu_s() -> float:
    """CPU time (user + system) of all finished child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "filtstab" / "__init__.py").is_file():
        print(f"no filtstab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    began = time.monotonic()
    env = {**os.environ, **PINNED_ENV}
    env.pop("FILTSTAB_SEED", None)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]

    def worker(role: str, work: Path, *extra: str) -> None:
        shutil.rmtree(work, ignore_errors=True)
        remaining = max(1.0, DEADLINE_S - (time.monotonic() - began))
        try:
            subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), "--role", role, *common,
                 "--work", str(work.relative_to(ROOT)), *extra],
                cwd=ROOT, env=env, check=True, timeout=remaining,
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)

    try:
        setup_times, chunks = [], [calibrate.chunk() for _ in range(3)]
        for index in range(SETUP_SAMPLES):
            start = children_cpu_s()
            worker("setup", WORK / f"{tag}-setup{index}")
            setup_times.append(children_cpu_s() - start)
            chunks += [calibrate.chunk() for _ in range(3)]
        result_path = results / f"{tag}.json"
        result_path.unlink(missing_ok=True)
        # one fixed directory, so reports name the same input path in every run
        worker("run", WORK / "run", "--trace", str(args.trace),
               "--result", str(result_path.relative_to(ROOT)))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"benchmark process failed: {error}", file=sys.stderr)
        return 1

    record = json.loads(result_path.read_text())
    setup_scale = calibrate.REFERENCE_S / statistics.fmean(chunks)
    record["setup_cpu_s"] = setup_times
    record["setup_scale"] = setup_scale
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    measured = dict(record["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setup_times) * setup_scale
    units = UNITS if not args.trace else {k: per_layer_unit(k) for k in measured}
    print(f"digest {record['digest']} rounds {record['rounds']} "
          f"requests/round {record['requests_per_round']} "
          f"latency samples {record['latency_samples']} record {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": measured[name], "unit": units[name]}
                    for name in sorted(measured)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
