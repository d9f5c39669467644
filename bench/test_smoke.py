"""Smoke test of the benchmark itself, at its smallest sizes (``--seconds 1``).

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
Each workload runs untraced twice and traced once with the same seed: every
output check passes, the printed metrics are exactly those of
``BENCHMARK.json``, and the report digests of all three runs agree, so the
tracing wrappers change nothing the program reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(workload: str, trace: int) -> tuple[dict, str]:
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    *_, info, last = done.stdout.strip().splitlines()
    return json.loads(last), info.split()[1]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_checks_and_repeats(workload):
    plain, digest = result(workload, 0)
    again, digest_again = result(workload, 0)
    traced, traced_digest = result(workload, 1)
    for line in (plain, again, traced):
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for line, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert digest == digest_again == traced_digest


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
