"""One benchmark process: set up a workload, then (role ``run``) measure it.

``run.py`` starts this file in a fresh interpreter for every set-up sample
and for the measured run, because every CLI user pays for the numpy/scipy
import and cold caches on each invocation.  The requests go one after
another through ``filtstab.cli.main(argv)`` in this process: a closed loop
with one client.

A round sends every request of the workload once.  Before each round every
``functools`` cache in the package is emptied, so each round starts as cold
as a fresh CLI process.  Untraced runs send one round and more while
another fits in ``--seconds``, and report means over the rounds, scaled to reference seconds by the calibration chunks of the whole
run (see ``calibrate.py``).  Traced runs send one untraced and one traced
round over the same requests, whose reports must be identical.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import filtstab  # noqa: E402  (import time is part of set-up)
from filtstab import cli  # noqa: E402
from filtstab.serialize import canonical_json  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def set_up(workload: str, seed: int, seconds: int, work: Path) -> workloads.Workload:
    """Generate the seeded inputs and write every document to ``work/docs``."""
    built = workloads.build(workload, seed, seconds)
    docs = work / "docs"
    docs.mkdir(parents=True, exist_ok=True)
    for name, document in built.documents.items():
        (docs / f"{name}.json").write_text(canonical_json(document), encoding="utf-8")
    (work / "out").mkdir(exist_ok=True)
    return built


def argv_of(request: workloads.Request, index: int, work: Path) -> list[str]:
    argv = [request.kind]
    if request.document is not None:
        argv += ["--input", str(work / "docs" / f"{request.document}.json")]
    return argv + list(request.args) + ["--quiet", "--output", str(work / "out" / f"{index}.json")]


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("filtstab") and module is not None:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    gc.collect()


def run_round(built, work: Path, clock, keep_reports: bool = False, tracer=None) -> dict:
    """Send every request once, timing each call of ``cli.main``.

    Times are the process's CPU time (user + system); ``clock`` runs its
    reference chunks between requests.  The CLI is single threaded with BLAS
    pinned to one thread and its file I/O is small, so on an idle core CPU
    time equals wall time.

    Reports are digested after the round; only the first round keeps them
    for the exact checks, so the harness adds little to the peak memory.
    """
    clear_caches()
    raw, codes = [], []
    round_wall = time.perf_counter()
    for index, request in enumerate(built.requests):
        argv = argv_of(request, index, work)
        if tracer is not None:
            tracer.request_id = index
        clock.tick()
        start = time.process_time()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed request, not a failed run
            traceback.print_exc()
            code = None
        raw.append(time.process_time() - start)
        codes.append(code)
    wall_s = time.perf_counter() - round_wall
    reports, digests = [], []
    for index, code in enumerate(codes):
        path = work / "out" / f"{index}.json"
        report = json.loads(path.read_text()) if code == 0 and path.exists() else None
        path.unlink(missing_ok=True)
        digests.append("" if report is None else checks.digest(report))
        reports.append(report if keep_reports else None)
    return {"cpu_s": sum(raw), "wall_s": wall_s, "latencies": raw,
            "codes": codes, "reports": reports, "digests": digests}


def judge(built, first: dict) -> tuple[list[bool], dict[str, float]]:
    """Per-request pass/fail of the exact checks, and the summed counters."""
    ok, totals = [], {}
    for request, code, report in zip(built.requests, first["codes"], first["reports"]):
        if report is None:
            print(f"request failed with exit code {code}: {request}", file=sys.stderr)
            ok.append(False)
            continue
        document = built.documents.get(request.document)
        try:
            problems = checks.check_report(request, document, report)
        except Exception:  # a report the checks cannot read is wrong
            problems = [traceback.format_exc()]
        for problem in problems:
            print(f"check failed for {request}: {problem}", file=sys.stderr)
        ok.append(not problems)
        for key, value in checks.counters(request, report).items():
            totals[key] = totals.get(key, 0) + value
    return ok, totals


def percentile_ms(latencies: list[float], q: int) -> float:
    if len(latencies) < 2:
        return latencies[0] * 1e3
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "filtstab": filtstab.__version__,
        "blas_pins": {name: os.environ.get(name) for name in BLAS_PINS},
        "process_rule": "fresh interpreter per set-up sample and per measured run",
        "scope": "only the benchmark's own processes were tuned or measured",
    }


def stability_observer(stats: dict):
    """Sum the exploration counts of every ``check_stability`` call."""

    def observe(args, verdict) -> None:
        metadata = verdict.metadata
        stats["calls"] += 1
        stats["explored"] += metadata.get("explored", 0)
        if metadata.get("mode") == "heuristic":
            stats["heuristic"] += 1
            stats["closure"] += metadata["closure_size"]
            stats["capped"] += int(metadata["closure_capped"])
            stats["sampled"] += metadata["explored"] - metadata["closure_size"]
            stats["attempts"] += metadata["samples"] * (args[0].rank - 1)

    return observe


def measure(args, built, work: Path) -> dict:
    """Send the rounds, check the first one exactly and build the result record."""
    timed_start = time.perf_counter()
    clock = calibrate.Clock()
    rounds = [run_round(built, work, clock, keep_reports=True)]
    if args.trace:
        stats = dict.fromkeys(
            ("calls", "explored", "heuristic", "closure", "capped", "sampled", "attempts"), 0
        )
        tracer = Tracer()
        tracer.observers["stability.check_stability"] = stability_observer(stats)
        tracer.install()
        tracer.enabled = True
        rounds.append(run_round(built, work, clock, tracer=tracer))
        tracer.enabled = False
        tracer.write_spans(args.result.with_name(f"{args.result.stem}-spans.jsonl"))
    else:
        while (time.perf_counter() - timed_start
               + statistics.median(r["wall_s"] for r in rounds) <= args.seconds):
            rounds.append(run_round(built, work, clock))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ok, totals = judge(built, rounds[0])
    expected = rounds[0]["digests"]
    failed = 0
    for later in rounds:
        for index, value in enumerate(later["digests"]):
            if value != expected[index]:
                print(f"request {index} differs from the first round", file=sys.stderr)
            failed += not (ok[index] and value == expected[index])
    if args.trace:
        metrics = layer_metrics(tracer, stats, totals, rounds[0], rounds[1])
    else:
        scale = clock.scale()
        typical = [statistics.fmean(t) * scale for t in zip(*(r["latencies"] for r in rounds))]
        metrics = {
            "run_s": statistics.fmean(r["cpu_s"] for r in rounds) * scale,
            "peak_rss_mb": peak_rss_mb,
            "request_p50_ms": percentile_ms(typical, 50),
            "request_p95_ms": percentile_ms(typical, 95),
        }
    return {
        "attempted": len(ok) * len(rounds),
        "failed": failed,
        "metrics": metrics,
        "rounds": len(rounds),
        "round_cpu_s": [r["cpu_s"] for r in rounds],
        "calibration_chunks_s": clock.chunks,
        "round_wall_s": [r["wall_s"] for r in rounds],
        "requests_per_round": len(built.requests),
        "latency_samples": len(ok),
        "digest": hashlib.sha256("".join(expected).encode()).hexdigest(),
        "counters": totals,
        "environment": environment(),
    }


# report counters exported by traced runs, 0 where a workload has none
COUNTER_METRICS = tuple(
    [f"upsilon.log.{key}" for key in checks.SEARCH_COUNTERS]
    + ["upsilon.best_ratio"]
    + [f"stability.verdicts.{key}" for key in checks.VERDICT_COUNTERS]
    + [f"stability.verdicts.{s}" for s in ("stable", "semistable", "unstable")]
    + ["stability.three_planes.stable", "stability.three_planes.max_degree"]
)


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, stats: dict, totals: dict, untraced: dict, traced: dict) -> dict:
    """Tracer metrics plus the ratios and report counters of the traced run."""
    metrics = tracer.metrics()
    log = {key: totals.get(f"upsilon.log.{key}", 0) for key in checks.SEARCH_COUNTERS}
    rationalize_calls = metrics["upsilon.rationalize.calls"]
    collapses = tracer.raised_count("upsilon.rationalize", "OrderingCollapseError")
    metrics.update({
        "upsilon.boundary_share": _share(log["boundary_hits"], log["candidates"]),
        "upsilon.stable_share": _share(log["stable"], log["proposals"]),
        "upsilon.rationalize.collapse_share": _share(collapses, rationalize_calls),
        "stability.explored_per_call": _share(stats["explored"], stats["calls"]),
        "stability.sample_yield": _share(stats["sampled"], stats["attempts"]),
        "stability.closure_size_mean": _share(stats["closure"], stats["heuristic"]),
        "stability.closure_capped_share": _share(stats["capped"], stats["heuristic"]),
        "trace.overhead_ratio": traced["cpu_s"] / untraced["cpu_s"],
        "trace.requests": len(traced["latencies"]),
    })
    for name in COUNTER_METRICS:
        metrics[name] = totals.get(name, 0)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args()
    built = set_up(args.workload, args.seed, args.seconds, args.work)
    if args.role == "run":
        result = measure(args, built, args.work)
        args.result.write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
