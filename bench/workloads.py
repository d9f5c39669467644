"""Seeded inputs of the four benchmark workloads.

A workload turns ``(seed, seconds)`` into JSON documents and a list of CLI
requests over them.  The same pair always gives byte-identical documents and
the same requests; ``seconds`` only scales how many requests the three heavy
workloads put into one round.  The program under test sees nothing but the
documents and the argv.

Why each workload exists (the layer it stresses, and the one it bypasses):

* ``search-r2`` -- ``upsilon --rank 2``: the float inner solver and rounding;
  stability is exact and cheap, ``linalg`` sees only lines in Q^2.
* ``search-r3`` -- ``upsilon --rank 3``: sampled ``check_stability`` on fresh
  random subspaces, where the ``linalg`` caches mostly miss.
* ``stability-r4`` -- ``stability`` at rank 4 on blown-up arrangements: the
  flag-step closure (Fraction intersections and sums) and the largest cache
  working set.
* ``reports`` -- hundreds of millisecond-scale ``chern``, rank-2
  ``stability``, ``blowup`` and ``demo`` requests: parsing, canonical JSON,
  ``chern`` and ``surface``, with repeated flags hitting the caches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from filtstab.filtration import FilteredConfiguration, Filtration
from filtstab.fixtures import three_concurrent_lines, three_generic_lines
from filtstab.linalg import Subspace, span
from filtstab.serialize import arrangement_to_doc, input_document
from filtstab.surface import DivisorConfiguration, PlaneArrangement, blow_up

# Request sizes.  The per-second constants set how many heavy requests one
# round holds: at --seconds 20 a run fits about eight rounds of search-r2
# and six of stability-r4 on a 2-core x86 VM, but one of search-r3, whose
# work varies between seeds, so it gets as many distinct requests as fit.
# The other sizes keep every request succeeding at every seed (see the notes
# at each generator).
R2_BUDGET = 40
R2_REQUESTS_PER_SECOND = 0.2
R3_BUDGET = 4
R3_SAMPLES = 50
R3_REQUESTS_PER_SECOND = 0.6
R4_SAMPLES = 200
R4_REQUESTS_PER_SECOND = 0.1
REPORT_GROUPS = 150


@dataclass(frozen=True)
class Request:
    """One CLI call: subcommand arguments plus the document it reads."""

    kind: str
    args: tuple[str, ...]
    document: Optional[str] = None


@dataclass
class Workload:
    documents: dict[str, dict]
    requests: list[Request]


def _seed_arg(rng: random.Random) -> tuple[str, str]:
    return ("--seed", str(rng.randrange(1 << 31)))


def _scaled(seconds: int, per_second: float) -> int:
    return max(1, round(seconds * per_second))


def _random_flag_rows(rng: random.Random, rank: int, height: int) -> list[list[int]]:
    while True:
        rows = [[rng.randint(-height, height) for _ in range(rank)] for _ in range(rank)]
        if span(rows, rank).dim == rank:
            return rows


def _balanced_flag(rng: random.Random, rank: int, k: int, height: int = 3) -> Filtration:
    """A random k-step flag with random balanced weights of denominator dividing 12."""
    if k == 1:
        return Filtration.trivial(rank)
    rows = _random_flag_rows(rng, rank, height)
    dims = sorted(rng.sample(range(1, rank), k - 1)) + [rank]
    mults = [b - a for a, b in zip([0] + dims, dims)]
    numerators = sorted(rng.sample(range(-4, 5), k), reverse=True)
    offset = sum(n * m for n, m in zip(numerators, mults))
    weights = [Fraction(n * rank - offset, 12) for n in numerators]
    return Filtration(rank, tuple((w, span(rows[:d], rank)) for w, d in zip(weights, dims)))


def _random_config(rng: random.Random, n: int) -> DivisorConfiguration:
    """Random degrees and crossing counts on n components."""
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = rng.randint(-1, 3)
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = rng.randint(0, 2)
    degrees = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)]
    return DivisorConfiguration(
        tuple(f"C{i}" for i in range(n)), tuple(degrees), tuple(map(tuple, matrix))
    )


def _line_arrangement(rng: random.Random, n_lines: int, n_points: int) -> PlaneArrangement:
    """Lines with marked triple points; two lines share at most one point."""
    names = [f"L{i}" for i in range(n_lines)]
    points: list[tuple[str, tuple[str, ...]]] = []
    used_pairs: set[frozenset[str]] = set()
    while len(points) < n_points:
        incident = tuple(sorted(rng.sample(names, 3)))
        pairs = {frozenset((a, b)) for a in incident for b in incident if a < b}
        if pairs & used_pairs:
            continue
        used_pairs |= pairs
        points.append((f"p{len(points)}", incident))
    return PlaneArrangement(tuple((name, 1) for name in names), tuple(points))


def _curve_arrangement(rng: random.Random) -> PlaneArrangement:
    """Lines and conics with marked double and triple points (for blowup)."""
    curves = [(f"C{i}", rng.choice((1, 1, 2))) for i in range(rng.randint(3, 6))]
    degree = dict(curves)
    shared: dict[frozenset[str], int] = {}
    points = []
    for index in range(rng.randint(1, 4)):
        incident = tuple(rng.sample(sorted(degree), rng.choice((2, 2, 3))))
        pairs = [frozenset((a, b)) for a in incident for b in incident if a < b]
        if any(shared.get(p, 0) >= degree[min(p)] * degree[max(p)] for p in pairs):
            continue
        for p in pairs:
            shared[p] = shared.get(p, 0) + 1
        points.append((f"q{index}", incident))
    return PlaneArrangement(tuple(curves), tuple(points))


def _generic_full_flags(rng: random.Random) -> FilteredConfiguration:
    """Three rank-3 full flags with weights (1, 0, -1) in general position.

    On three lines of degree 1 such a configuration is exactly stable
    (every proper subspace has degree -1) as long as no flag line lies in
    another flag's plane, the three lines are not coplanar and the three
    planes share no line.  A search seeded with it therefore always finds
    a stable candidate, so no request exits with code 4.
    """
    while True:
        flags = []
        for _ in range(3):
            rows = _random_flag_rows(rng, 3, 4)
            line, plane = span(rows[:1], 3), span(rows[:2], 3)
            flags.append((line, plane))
        lines = [line for line, _ in flags]
        planes = [plane for _, plane in flags]
        if any(planes[j].contains(lines[i]) for i in range(3) for j in range(3) if i != j):
            continue
        if (lines[0] + lines[1] + lines[2]).dim < 3:
            continue
        if planes[0].intersect(planes[1]).intersect(planes[2]).dim > 0:
            continue
        full = Subspace.full(3)
        weights = (Fraction(1), Fraction(0), Fraction(-1))
        return FilteredConfiguration(
            3,
            tuple(
                Filtration(3, tuple(zip(weights, (line, plane, full))))
                for line, plane in flags
            ),
        )


def three_planes() -> tuple[DivisorConfiguration, FilteredConfiguration]:
    """Three planes A, B, C in Q^4 with a transversal W = <e1, e3>.

    W meets each plane in a line and has degree exactly 0, so the
    configuration is at best semistable; the sampled rank-4 check misses W.
    """
    config = DivisorConfiguration(
        ("A", "B", "C"), (Fraction(1),) * 3, ((1, 1, 1), (1, 1, 1), (1, 1, 1))
    )
    half = Fraction(1, 2)
    planes = (
        span([[1, 0, 0, 0], [0, 1, 0, 0]], 4),
        span([[0, 0, 1, 0], [0, 0, 0, 1]], 4),
        span([[1, 0, 1, 0], [0, 1, 0, 1]], 4),
    )
    flags = tuple(Filtration(4, ((half, p), (-half, Subspace.full(4)))) for p in planes)
    return config, FilteredConfiguration(4, flags)


def _search_r2(rng: random.Random, seconds: int) -> Workload:
    documents = {
        "triangle": input_document(three_generic_lines()[0]),
        "blown_triple": input_document(blow_up(three_concurrent_lines(), Fraction(1, 10))),
    }
    names = sorted(documents)
    requests = [
        Request(
            "upsilon",
            ("--rank", "2", "--budget", str(R2_BUDGET), *_seed_arg(rng)),
            names[index % 2],
        )
        for index in range(2 * _scaled(seconds, R2_REQUESTS_PER_SECOND / 2))
    ]
    return Workload(documents, requests)


def _search_r3(rng: random.Random, seconds: int) -> Workload:
    config = three_generic_lines()[0]
    documents: dict[str, dict] = {}
    requests = []
    for index in range(_scaled(seconds, R3_REQUESTS_PER_SECOND)):
        name = f"triangle_r3_{index}"
        documents[name] = input_document(config, _generic_full_flags(rng))
        args = ("--rank", "3", "--budget", str(R3_BUDGET), "--samples", str(R3_SAMPLES))
        requests.append(Request("upsilon", args + _seed_arg(rng), name))
    return Workload(documents, requests)


def _stability_args(rng: random.Random, samples: int) -> tuple[str, ...]:
    return ("--stability-mode", "auto", "--samples", str(samples), *_seed_arg(rng))


def _arrangement_r4_document(rng: random.Random) -> dict:
    """Five lines with two triple points, blown up: seven components.

    The lines carry full flags and the exceptional curves two-step flags, so
    the flag-step closure reaches its cap on every document and the work per
    document varies little between seeds.
    """
    config = blow_up(_line_arrangement(rng, 5, 2), Fraction(1, 10))
    flags = tuple(
        _balanced_flag(rng, 4, 2 if name.startswith("E_") else 4) for name in config.names
    )
    return input_document(config, FilteredConfiguration(4, flags))


def _stability_r4(rng: random.Random, seconds: int) -> Workload:
    documents = {"three_planes": input_document(*three_planes())}
    requests = [Request("stability", _stability_args(rng, R4_SAMPLES), "three_planes")]
    for index in range(_scaled(seconds, R4_REQUESTS_PER_SECOND)):
        name = f"arrangement_r4_{index}"
        documents[name] = _arrangement_r4_document(rng)
        requests.append(Request("stability", _stability_args(rng, R4_SAMPLES), name))
    return Workload(documents, requests)


def _reports(rng: random.Random, seconds: int) -> Workload:
    """A fixed-size round; the run repeats it with cold caches each time.

    Component counts and step counts follow the group index, so seeds change
    the subspaces, weights and intersection numbers but hardly the work.
    """
    documents: dict[str, dict] = {}
    requests = []
    for group in range(REPORT_GROUPS):
        n = 2 + group % 3
        flat = f"flat_r2_{group}"
        config = _random_config(rng, n)
        flags = tuple(_balanced_flag(rng, 2, 1 + (i + group) % 2) for i in range(n))
        documents[flat] = input_document(config, FilteredConfiguration(2, flags))
        requests.append(Request("chern", (), flat))
        requests.append(Request("stability", _stability_args(rng, 2000), flat))
        rank = 3 + group % 2
        high = f"flat_r{rank}_{group}"
        config = _random_config(rng, n)
        flags = tuple(_balanced_flag(rng, rank, 1 + (i + group) % rank) for i in range(n))
        documents[high] = input_document(config, FilteredConfiguration(rank, flags))
        requests.append(Request("chern", (), high))
        arrangement = f"arrangement_{group}"
        documents[arrangement] = {"arrangement": arrangement_to_doc(_curve_arrangement(rng))}
        requests.append(Request("blowup", ("--epsilon", "1/100"), arrangement))
        if group % 10 == 0:
            requests.append(Request("demo", ()))
    return Workload(documents, requests)


GENERATORS: dict[str, Callable[[random.Random, int], Workload]] = {
    "search-r2": _search_r2,
    "search-r3": _search_r3,
    "stability-r4": _stability_r4,
    "reports": _reports,
}


def build(workload: str, seed: int, seconds: int) -> Workload:
    """Documents and requests of a workload; pure in ``(workload, seed, seconds)``."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), seconds)
