"""Exact checks of CLI reports, the determinism digest and report counters.

Every check recomputes a reported quantity exactly from the input document
and the reported objects; a report that fails any check counts as a failed
request.  The digest hashes each report with ``manifest.timestamp`` removed,
which is the byte-identity promise the CLI makes.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Optional

from filtstab.chern import c2_number, c2_trivial, derive_tables, norm_sq
from filtstab.fixtures import three_concurrent_lines, three_generic_lines, two_lines
from filtstab.linalg import rational_from_string
from filtstab.serialize import (
    arrangement_from_doc,
    divisor_configuration_from_doc,
    filtered_configuration_from_doc,
    parse_config,
    subspace_from_doc,
)
from filtstab.stability import Status, check_stability, parabolic_degree

# Counters copied from each report; they repeat exactly for a fixed seed.
SEARCH_COUNTERS = (
    "candidates", "proposals", "stable", "semistable", "unstable",
    "boundary_hits", "rounding_failures",
)
VERDICT_COUNTERS = ("explored", "closure_size", "closure_capped")


def digest(report: dict) -> str:
    """SHA-256 of a report with its run timestamp removed."""
    stripped = dict(report)
    manifest = dict(stripped.get("manifest", {}))
    manifest.pop("timestamp", None)
    stripped["manifest"] = manifest
    return hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()


def _q(text: Optional[str]) -> Optional[Fraction]:
    return None if text is None else rational_from_string(text)


def _check_verdict(verdict: dict, fc, config, problems: list[str]) -> None:
    """The witness degree recomputes exactly and its sign matches the status."""
    status = verdict["status"]
    witness_degree = _q(verdict["witness_degree"])
    if status == Status.STABLE.value:
        maximum = _q(verdict["max_observed_degree"])
        if verdict["witness"] is not None or (maximum is not None and maximum >= 0):
            problems.append("stable verdict with a witness or a non-negative degree")
        return
    witness = subspace_from_doc(verdict["witness"], fc.rank, "witness")
    if parabolic_degree(witness, fc, config) != witness_degree:
        problems.append("witness degree does not recompute")
    expected_sign = 1 if status == Status.UNSTABLE.value else 0
    if (witness_degree > 0) - (witness_degree < 0) != expected_sign:
        problems.append(f"witness degree {witness_degree} contradicts status {status}")


def _check_search(result: dict, document: dict, problems: list[str]) -> None:
    config, _, _ = parse_config(document)
    fc = filtered_configuration_from_doc(result["configuration"], "configuration")
    c2, norm, ratio = (rational_from_string(result[k]) for k in ("c2", "norm_sq", "ratio"))
    tables_c2 = c2_number(derive_tables(fc, config), config).c2
    if not c2 == tables_c2 == c2_trivial(fc, config):
        problems.append("c2 differs between the report, the tables and the pairing")
    if norm != norm_sq(fc, config) or ratio != c2 / norm:
        problems.append("norm_sq or ratio does not recompute")
    if c2 < 0:
        problems.append("stable configuration with c2 < 0")
    if result["verdict"]["status"] != Status.STABLE.value:
        problems.append("search returned a configuration that is not stable")
    _check_verdict(result["verdict"], fc, config, problems)
    if fc.rank == 2 and check_stability(fc, config).status is not Status.STABLE:
        problems.append("exact rank-2 recheck is not stable")


def _check_chern(chern: dict, problems: list[str]) -> None:
    if chern.get("balanced") and chern["report"]["c2"] != chern["c2_pairing"]:
        problems.append("c2 differs from the pairing c2 on a balanced document")


def _check_blowup(config_doc: dict, arrangement, epsilon: Fraction, problems: list[str]) -> None:
    """Bezout conservation and the degree rule of the blown-up plane."""
    config = divisor_configuration_from_doc(config_doc, "configuration")
    curves = arrangement.curves
    incidence = [set(incident) for _, incident in arrangement.points]
    touches = [sum(name in pts for pts in incidence) for name, _ in curves]
    for i, (name_i, d_i) in enumerate(curves):
        if config.degrees[i] != d_i - epsilon * touches[i]:
            problems.append(f"degree of {name_i} breaks d - epsilon * #points")
        if config.intersection[i][i] != d_i * d_i - touches[i]:
            problems.append(f"self-intersection of {name_i} is wrong")
        for j, (name_j, d_j) in enumerate(curves[i + 1:], i + 1):
            shared = sum(name_i in pts and name_j in pts for pts in incidence)
            if config.intersection[i][j] + shared != d_i * d_j:
                problems.append(f"Bezout conservation fails for {name_i}, {name_j}")
    n = len(curves)
    for p, pts in enumerate(incidence):
        row = config.intersection[n + p]
        if config.degrees[n + p] != epsilon or row[n + p] != -1:
            problems.append(f"exceptional curve {p} has the wrong degree or square")
        if [int(name in pts) for name, _ in curves] != list(row[:n]):
            problems.append(f"exceptional curve {p} meets the wrong curves")


def _check_demo(result: dict, problems: list[str]) -> None:
    config2, fc2 = two_lines()
    _check_verdict(result["two_lines"]["stability"], fc2, config2, problems)
    if rational_from_string(result["two_lines"]["chern"]["c2"]) != c2_trivial(fc2, config2):
        problems.append("demo two_lines c2 differs from the pairing")
    _check_blowup(result["three_concurrent_lines_blowup"], three_concurrent_lines(),
                  Fraction(1, 10), problems)
    config3, fc3 = three_generic_lines()
    triangle = result["three_generic_lines"]
    _check_verdict(triangle["stability"], fc3, config3, problems)
    c2, norm, ratio = (rational_from_string(triangle[k]) for k in ("c2", "norm_sq", "ratio"))
    if c2 != rational_from_string(triangle["chern"]["c2"]) or ratio != c2 / norm:
        problems.append("demo triangle c2 or ratio does not recompute")


def check_report(request, document: Optional[dict], report: dict) -> list[str]:
    """Problems found in one successful report; empty when it is correct."""
    problems: list[str] = []
    result = report["result"]
    if request.kind == "upsilon":
        _check_search(result, document, problems)
    elif request.kind == "stability":
        config, fc, _ = parse_config(document)
        _check_verdict(result["verdict"], fc, config, problems)
    elif request.kind == "chern":
        _check_chern(result, problems)
    elif request.kind == "blowup":
        arrangement = arrangement_from_doc(document["arrangement"], "arrangement")
        epsilon = rational_from_string(request.args[request.args.index("--epsilon") + 1])
        _check_blowup(result["configuration"], arrangement, epsilon, problems)
    elif request.kind == "demo":
        _check_demo(result, problems)
    else:
        problems.append(f"no check for request kind {request.kind!r}")
    return problems


def counters(request, report: dict) -> dict[str, float]:
    """Deterministic counts a report carries, keyed by per-layer metric name."""
    result = report["result"]
    out: dict[str, float] = {}
    if request.kind == "upsilon":
        log = result["search_log"]
        for key in SEARCH_COUNTERS:
            out[f"upsilon.log.{key}"] = log[key]
        out["upsilon.best_ratio"] = float(rational_from_string(result["ratio"]))
    elif request.kind == "stability":
        verdict = result["verdict"]
        out[f"stability.verdicts.{verdict['status']}"] = 1
        metadata = verdict["metadata"]
        for key in VERDICT_COUNTERS:
            out[f"stability.verdicts.{key}"] = int(metadata.get(key, 0))
        if request.document == "three_planes":
            out["stability.three_planes.stable"] = int(verdict["status"] == Status.STABLE.value)
            out["stability.three_planes.max_degree"] = float(
                rational_from_string(verdict["max_observed_degree"])
            )
    return out
