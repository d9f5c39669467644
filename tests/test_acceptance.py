"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
PASS lines immediately).
"""

import json
import random
import re
import shutil
import subprocess
import time
from fractions import Fraction

import numpy as np
from scipy.linalg import null_space

from filtstab import (
    Certainty,
    Status,
    assemble_quadratics,
    c2_number,
    c2_trivial,
    check_stability,
    derive_tables,
    inner_minimize,
    norm_sq,
    shape_of,
    stability_cone,
)
from filtstab.cli import main
from filtstab.fixtures import three_concurrent_lines, three_generic_lines, two_lines
from filtstab.serialize import canonical_json, input_document
from filtstab.surface import blow_up
from helpers import (
    balance_rows,
    brute_force_rank2,
    console_script_command,
    pairing_forms,
    random_balanced_configuration,
    random_divisor_config,
    random_realizable_config,
)

F = Fraction


def _passed(number: int, message: str) -> None:
    print(f"ACCEPTANCE PASS criterion {number}: {message}")


def test_criterion_1_formula_cross_check():
    start = time.monotonic()
    rng = random.Random(20_001)
    for _ in range(200):
        rank = rng.randint(1, 3)
        n = rng.randint(1, 5)
        config = random_divisor_config(rng, n)
        fc = random_balanced_configuration(rng, rank, n)
        assert c2_trivial(fc, config) == c2_number(derive_tables(fc, config), config).c2
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _passed(1, f"200 exact cross-checks of the two c2 routes in {elapsed:.1f}s")


def test_criterion_2_scaling_laws():
    start = time.monotonic()
    rng = random.Random(20_002)
    for _ in range(200):
        # rank 2 or 3: balance forces rank-1 configurations to be trivial,
        # which makes every scaling law vacuous
        rank = rng.randint(2, 3)
        n = rng.randint(1, 4)
        config = random_divisor_config(rng, n)
        fc = random_balanced_configuration(rng, rank, n, nontrivial=True)
        c2 = c2_trivial(fc, config)
        norm = norm_sq(fc, config)
        seed = rng.randrange(1 << 30)
        status = check_stability(fc, config, samples=40, seed=seed).status
        for lam in (F(2), F(1, 3)):
            scaled = fc.scale(lam)
            assert c2_trivial(scaled, config) == lam * lam * c2
            assert norm_sq(scaled, config) == lam * lam * norm
            if norm > 0:
                assert c2_trivial(scaled, config) / norm_sq(scaled, config) == c2 / norm
            assert check_stability(scaled, config, samples=40, seed=seed).status is status
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _passed(2, f"c2/norm scale by lambda^2, ratio and status invariant, in {elapsed:.1f}s")


def test_criterion_3_bgi_harness():
    # Valid here means geometrically realizable (blown-up plane
    # arrangements): the inequality is a statement about real surfaces and
    # has counterexamples among abstract matrices that no surface carries
    # (e.g. two disjoint components of positive self-intersection).
    start = time.monotonic()
    rng = random.Random(20_003)
    stable_seen = 0
    for _ in range(1000):
        config = random_realizable_config(rng)
        fc = random_balanced_configuration(rng, 2, config.n_components)
        verdict = check_stability(fc, config)
        if verdict.status is Status.STABLE and verdict.certainty is Certainty.EXACT:
            stable_seen += 1
            assert c2_trivial(fc, config) >= 0, (
                f"stable configuration with negative c2: {fc}"
            )
    elapsed = time.monotonic() - start
    assert elapsed < 180
    assert stable_seen >= 20, "harness exercised too few stable instances"
    _passed(3, f"{stable_seen} exact-stable instances all had c2 >= 0 in {elapsed:.1f}s")


def test_criterion_3_bgi_harness_rank3():
    # Criterion 3 at rank 3, where stability is decided exactly as well.
    start = time.monotonic()
    rng = random.Random(20_010)
    stable_seen = 0
    for _ in range(400):
        config = random_realizable_config(rng)
        fc = random_balanced_configuration(rng, 3, config.n_components)
        verdict = check_stability(fc, config)
        assert verdict.certainty is Certainty.EXACT
        if verdict.status is Status.STABLE:
            stable_seen += 1
            assert c2_trivial(fc, config) >= 0, (
                f"stable configuration with negative c2: {fc}"
            )
    elapsed = time.monotonic() - start
    assert elapsed < 120
    assert stable_seen >= 10, "harness exercised too few stable instances"
    _passed(3, f"rank 3: {stable_seen} exact-stable instances all had c2 >= 0 in {elapsed:.1f}s")


def test_criterion_4_worked_instance_a():
    config, fc = two_lines()
    assert c2_trivial(fc, config) == 0
    verdict = check_stability(fc, config)
    assert verdict.status is Status.SEMISTABLE
    assert verdict.certainty is Certainty.EXACT
    assert verdict.witness is not None and verdict.witness.dim == 1
    assert verdict.witness_degree == 0
    _passed(4, "two lines: c2 = 0, semistable with a degree-0 line witness")


def test_criterion_5_worked_instance_b(tmp_path):
    start = time.monotonic()
    config, fc = three_generic_lines()
    assert c2_trivial(fc, config) == F(3, 4)
    assert norm_sq(fc, config) == F(3, 2)
    assert c2_trivial(fc, config) / norm_sq(fc, config) == F(1, 2)
    verdict = check_stability(fc, config)
    assert verdict.status is Status.STABLE
    assert verdict.certainty is Certainty.EXACT
    assert verdict.max_observed_degree == F(-1, 2)

    input_path = tmp_path / "triangle.json"
    input_path.write_text(canonical_json(input_document(config)), encoding="utf-8")
    report_path = tmp_path / "estimate.json"
    code = main(
        [
            "upsilon",
            "--input", str(input_path),
            "--rank", "2",
            "--budget", "500",
            "--seed", "0",
            "--quiet",
            "--output", str(report_path),
        ]
    )
    assert code == 0
    result = json.loads(report_path.read_text(encoding="utf-8"))["result"]
    num, _, den = result["ratio"].partition("/")
    assert F(int(num), int(den or "1")) <= F(1, 2)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _passed(
        5,
        f"triangle: c2=3/4, norm=3/2, ratio=1/2, stable at -1/2; "
        f"budget-500 search ratio {result['ratio']} <= 1/2 in {elapsed:.1f}s",
    )


def test_criterion_6_blow_up_instance():
    config = blow_up(three_concurrent_lines(), F(1, 10))
    assert config.names == ("L1", "L2", "L3", "E_p")
    assert config.degrees == (F(9, 10), F(9, 10), F(9, 10), F(1, 10))
    assert config.intersection == (
        (0, 0, 0, 1),
        (0, 0, 0, 1),
        (0, 0, 0, 1),
        (1, 1, 1, -1),
    )
    # conservation: blown-down pairwise intersections recover Bezout numbers
    arr = three_concurrent_lines()
    names = [n for n, _ in arr.curves]
    degrees = dict(arr.curves)
    for i in range(3):
        for j in range(i + 1, 3):
            shared = sum(
                1
                for _, incident in arr.points
                if names[i] in incident and names[j] in incident
            )
            assert config.intersection[i][j] + shared == degrees[names[i]] * degrees[names[j]]
    _passed(6, "three concurrent lines blow up to the exact matrix and degrees")


def _two_parameter_instance(rng: random.Random):
    """A 2-component rank-2 shape whose balance subspace is 2-dimensional."""
    config = random_divisor_config(rng, 2)
    fc = random_balanced_configuration(rng, 2, 2)
    if any(len(f.steps) != 2 for f in fc.filtrations):
        return None
    return config, fc


def _grid_minimum(fc, config, points: int) -> float:
    """Independent oracle: sweep directions of the 2D balance subspace.

    A and B come from the pairing of the flags (``pairing_forms``), not
    from the package's quadratic pair.
    """
    balance = np.array([[float(x) for x in row] for row in balance_rows(shape_of(fc, config))])
    basis = null_space(balance)
    assert basis.shape[1] == 2
    u1, u2 = basis[:, 0], basis[:, 1]
    dense, diagonal = pairing_forms(fc, config)
    a = np.array([[float(x) for x in row] for row in dense])
    b = np.array([float(x) for x in diagonal])
    a11, a12, a22 = u1 @ a @ u1, u1 @ a @ u2, u2 @ a @ u2
    b11, b12, b22 = (
        float(np.sum(b * u1 * u1)),
        float(np.sum(b * u1 * u2)),
        float(np.sum(b * u2 * u2)),
    )
    theta = np.linspace(0.0, np.pi, points, endpoint=False)
    c, s = np.cos(theta), np.sin(theta)
    numerator = a11 * c * c + 2 * a12 * c * s + a22 * s * s
    denominator = b11 * c * c + 2 * b12 * c * s + b22 * s * s
    return float(np.min(numerator / denominator))


def test_criterion_7_inner_solver_oracle():
    start = time.monotonic()
    rng = random.Random(20_007)
    checked = 0
    while checked < 10:
        instance = _two_parameter_instance(rng)
        if instance is None:
            continue
        config, fc = instance
        qp = assemble_quadratics(fc, config)
        result = inner_minimize(qp, stability_cone(qp.shape, ()))
        if result.boundary or abs(result.ratio) < 1e-3:
            continue  # the oracle compares the unconstrained minimum
        grid = _grid_minimum(fc, config, 2000 * 2000)
        assert abs(result.ratio - grid) <= 1e-9 * max(1.0, abs(grid))
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _passed(7, f"10 instances matched the 2000^2 direction grid to 1e-9 in {elapsed:.1f}s")


def test_criterion_8_rank2_oracle_vs_brute_force():
    start = time.monotonic()
    rng = random.Random(20_008)
    for _ in range(100):
        n = rng.randint(1, 4)
        config = random_divisor_config(rng, n)
        fc = random_balanced_configuration(rng, 2, n, height=3)
        verdict = check_stability(fc, config)
        status, best = brute_force_rank2(fc, config, height=5)
        assert verdict.certainty is Certainty.EXACT
        assert verdict.status is status
        assert verdict.max_observed_degree == best
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _passed(8, f"100 exact rank-2 verdicts matched height-5 brute force in {elapsed:.1f}s")


def test_criterion_9_report_determinism(tmp_path):
    config, _ = three_generic_lines()
    input_path = tmp_path / "triangle.json"
    input_path.write_text(canonical_json(input_document(config)), encoding="utf-8")
    # Two runs of the pyproject entry point; the installed script too where it exists.
    commands = [console_script_command("upsilon")] * 2
    installed = shutil.which("upsilon")
    if installed:
        commands.append([installed])
    texts = []
    for run, command in enumerate(commands):
        out = tmp_path / f"report_{run}.json"
        proc = subprocess.run(
            [
                *command,
                "--input", str(input_path),
                "--rank", "2",
                "--budget", "40",
                "--seed", "13",
                "--quiet",
                "--output", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        texts.append(out.read_text(encoding="utf-8"))
    stripped = [
        re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text) for text in texts
    ]
    for text in stripped[1:]:
        assert text == stripped[0]
    _passed(9, "two identical-manifest runs produced byte-identical content")
