"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
import re
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

from hypothesis import strategies as st

from filtstab import (
    DivisorConfiguration,
    FilteredConfiguration,
    Filtration,
    PlaneArrangement,
    Status,
    Subspace,
    blow_up,
    c2_number,
    c2_trivial,
    check_stability,
    derive_tables,
    joint_step_multiplicities,
    norm_sq,
    parabolic_degree,
    span,
)
from filtstab.linalg import rational_to_string
from filtstab.stability import _moment_point

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def console_script_target(name: str) -> str:
    """The ``module:callable`` target of ``name`` in pyproject's ``[project.scripts]``."""
    text = PYPROJECT.read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: match the entry's own line
        entry = re.search(rf'^{re.escape(name)}\s*=\s*"([^"]+)"', text, re.M)
        if entry is None:
            raise KeyError(f"no console script {name!r} in {PYPROJECT}")
        return entry.group(1)
    return tomllib.loads(text)["project"]["scripts"][name]


def console_script_command(name: str) -> list[str]:
    """argv that runs console script ``name``'s target in a fresh interpreter.

    This is what the installed script does, without needing it on ``PATH``;
    the child inherits the environment, ``PYTHONPATH`` included.
    """
    module, _, attr = console_script_target(name).partition(":")
    return [sys.executable, "-c", f"import {module} as entry; entry.{attr}()"]


def rational_inputs() -> st.SearchStrategy:
    """Weights as callers pass them: ``int``, ``Fraction`` or a literal string."""
    fractions = st.fractions(-6, 6, max_denominator=15)
    return st.one_of(st.integers(-6, 6), fractions, fractions.map(rational_to_string))


def reference_balanced(weights, mults) -> tuple[Fraction, ...]:
    """The balance rule summed in ``Fraction``: w - sum(m w) / sum(m)."""
    weights = [Fraction(w) for w in weights]
    shift = sum((w * m for w, m in zip(weights, mults)), Fraction(0)) / sum(mults)
    return tuple(w - shift for w in weights)


def reference_norm_value(shape, weights) -> Fraction:
    """The squared norm summed in ``Fraction``: sum mult * deg * w^2 over the slots."""
    diagonal = [m * Fraction(d) for mults, d in zip(shape.mults, shape.degrees) for m in mults]
    return sum((Fraction(x) ** 2 * b for x, b in zip(weights, diagonal)), Fraction(0))


def reference_rref(rows, width: int) -> tuple[tuple[Fraction, ...], ...]:
    """Reduced row echelon form over ``Fraction`` (Gauss-Jordan), zero rows dropped.

    The reference the integer kernel of ``filtstab.linalg`` is checked against.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    pivot_row = 0
    for col in range(width):
        pivot = next((i for i in range(pivot_row, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        lead = work[pivot_row][col]
        work[pivot_row] = [x / lead for x in work[pivot_row]]
        for i in range(len(work)):
            if i != pivot_row and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[pivot_row])]
        pivot_row += 1
    return tuple(tuple(r) for r in work[:pivot_row])


def reference_rank_growth(rows, columns) -> list[int]:
    """The indices j at which the rank of the pairings (psi_j . row) grows.

    The ``Fraction`` rank of every column prefix of the pairing matrix, each
    ranked afresh by :func:`reference_rref`: the reference for
    ``filtstab.linalg._rank_growth``, with no early exit and no shared
    elimination.
    """
    pairings = [[sum(a * b for a, b in zip(psi, row)) for psi in columns] for row in rows]
    grew, rank = [], 0
    for k in range(1, len(columns) + 1):
        here = len(reference_rref([row[:k] for row in pairings], k))
        if here > rank:
            grew.append(k - 1)
            rank = here
    return grew


def assert_canonical(subspace: Subspace) -> None:
    """Assert that ``subspace.basis`` is the canonical integer basis.

    Integer rows of the ambient length in echelon order, each primitive
    with a positive pivot, and every pivot column zero outside its own row.
    """
    basis = subspace.basis
    assert type(basis) is tuple and all(type(row) is tuple for row in basis)
    pivots = []
    for row in basis:
        assert len(row) == subspace.ambient_dim
        assert all(type(x) is int for x in row), "non-integer entry"
        pivot = next((j for j, x in enumerate(row) if x), None)
        assert pivot is not None, "zero row"
        assert not pivots or pivot > pivots[-1], "rows not in echelon order"
        assert row[pivot] > 0, "negative pivot"
        assert gcd(*row) == 1, "row not primitive"
        pivots.append(pivot)
    for row in basis:
        assert sum(1 for p in pivots if row[p]) == 1, "pivot column not cleared"


def sort_key(subspace: Subspace) -> tuple:
    """Reference subspace order: by dimension, then by the RREF rows over Q."""
    return (subspace.dim, subspace.rows)


def candidate_subspaces(candidates) -> tuple[Subspace, ...]:
    """Every candidate of a set, each built by ``candidates.subspace(n)``, in
    the order of ``candidates.incidences``."""
    return tuple(map(candidates.subspace, range(len(candidates.incidences))))


def reference_intersection(rows_a, rows_b, width: int) -> tuple[tuple[Fraction, ...], ...]:
    """RREF basis of span(rows_a) ∩ span(rows_b) by Zassenhaus over ``Fraction``."""
    zero = [Fraction(0)] * width
    stacked = [list(r) + list(r) for r in rows_a] + [list(r) + zero for r in rows_b]
    reduced = reference_rref(stacked, 2 * width)
    return reference_rref(
        [row[width:] for row in reduced if all(x == 0 for x in row[:width])], width
    )


def random_invertible_rows(rng: random.Random, rank: int, height: int = 5) -> list[list[int]]:
    while True:
        rows = [[rng.randint(-height, height) for _ in range(rank)] for _ in range(rank)]
        if span(rows, rank).dim == rank:
            return rows


def random_subspace(rng: random.Random, rank: int, dim: int, height: int = 5) -> Subspace:
    while True:
        rows = [[rng.randint(-height, height) for _ in range(rank)] for _ in range(dim)]
        candidate = span(rows, rank)
        if candidate.dim == dim:
            return candidate


def random_balanced_filtration(
    rng: random.Random,
    rank: int,
    height: int = 5,
    steps: int | None = None,
) -> Filtration:
    """Balanced filtration whose weights have denominator dividing 12.

    Weights are (n_s * rank - K) / 12 for distinct decreasing integers n_s
    and K the mult-weighted sum of the n_s, which is balanced by
    construction.
    """
    k = steps if steps is not None else rng.randint(1, rank)
    if k == 1:
        return Filtration.trivial(rank)
    rows = random_invertible_rows(rng, rank, height)
    dims = sorted(rng.sample(range(1, rank), k - 1)) + [rank]
    spaces = [span(rows[:d], rank) for d in dims]
    numerators = sorted(rng.sample(range(-4, 5), k), reverse=True)
    mults = []
    prev = 0
    for d in dims:
        mults.append(d - prev)
        prev = d
    offset = sum(n * m for n, m in zip(numerators, mults))
    weights = [Fraction(n * rank - offset, 12) for n in numerators]
    return Filtration(rank, tuple(zip(weights, spaces)))


def random_balanced_weights_for(rng: random.Random, filt: Filtration) -> list[Fraction]:
    """Fresh balanced weights (denominator | 12) for an existing flag's shape."""
    k = len(filt.steps)
    mults = [m for _, m in filt.gr_spectrum().entries]
    numerators = sorted(rng.sample(range(-4, 5), k), reverse=True)
    offset = sum(n * m for n, m in zip(numerators, mults))
    rank = filt.ambient_dim
    return [Fraction(n * rank - offset, 12) for n in numerators]


def balance_rows(shape) -> list[tuple[int, ...]]:
    """One row per component of a weight shape, its step multiplicities in
    its slots: row . w = 0 is that component's balance constraint."""
    rows = []
    for offset, mults in zip(shape.offsets, shape.mults):
        row = [0] * shape.size
        row[offset : offset + len(mults)] = mults
        rows.append(tuple(row))
    return rows


def pairing_forms(fc, config) -> tuple[list[list[Fraction]], list[Fraction]]:
    """A with w^T A w = c2 and the diagonal of B with w^T B w = ||F||^2, from the pairing.

    A[(i,s),(j,t)] = -1/2 * m^{ij}_{st} * D_i.D_j over ordered pairs of
    slots, with the joint step multiplicities of every pair of flags (a
    flag with itself included), and B[(i,s)] = m_{i,s} * deg(D_i); both in
    ``Fraction``, read from the flags and ``config`` alone.
    """
    flags = fc.filtrations
    slots = [(i, s) for i, f in enumerate(flags) for s in range(len(f.steps))]
    joint = {
        (i, j): joint_step_multiplicities(f, g)
        for i, f in enumerate(flags) for j, g in enumerate(flags)
    }
    a = [
        [-Fraction(joint[i, j][s][t] * config.intersection[i][j], 2) for j, t in slots]
        for i, s in slots
    ]
    b = [m * d for f, d in zip(flags, config.degrees) for m in f.mults]
    return a, b


def reference_balance_nullspace(shape) -> list[tuple[Fraction, ...]]:
    """Basis of the balance subspace of a weight shape, by elimination.

    The reduced row echelon form of the balance rows, then one basis vector
    per free column, in column order.
    """
    size = shape.size
    reduced = span(balance_rows(shape), size).rows
    pivots = [next(j for j, x in enumerate(row) if x) for row in reduced]
    basis = []
    for free in (c for c in range(size) if c not in pivots):
        vec = [Fraction(0)] * size
        vec[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[free]
        basis.append(tuple(vec))
    return basis


def reference_cone_width(qp, cone) -> float:
    """The widest slack of the open ``cone`` on the balance subspace, by HiGHS.

    The largest t <= 1 with row . w + t |row|_1 <= 0 for every row and
    |w| <= 1/2 in every slot, w balanced: the float test that decided
    emptiness (t <= 1e-9) before the exact one.  numpy and scipy are
    imported here, so that importing this module loads neither.
    """
    import numpy as np
    from scipy.optimize import linprog

    n_mat = np.array([[float(x) for x in v] for v in reference_balance_nullspace(qp.shape)]).T
    size, d = n_mat.shape
    rows = np.unique(np.array([[float(x) for x in row] for row in cone]), axis=0)
    g = rows @ n_mat
    box = np.vstack([n_mat, -n_mat])
    lp = linprog(
        np.r_[np.zeros(d), -1.0],
        A_ub=np.block([[g, np.abs(rows).sum(axis=1)[:, None]], [box, np.zeros((2 * size, 1))]]),
        b_ub=np.r_[np.zeros(len(g)), np.full(2 * size, 0.5)],
        bounds=[(None, None)] * d + [(None, 1.0)],
        method="highs",
    )
    assert lp.status == 0, lp.message
    return -lp.fun


def reference_cone_minimum(qp, cone) -> float:
    """The least w^T A w / w^T B w over balance ∩ the closed ``cone``, by a face walk.

    A minimizer lies inside some face, the rows S held at zero, and there it
    is a generalized eigenvector of (A, B) on null(S).  The walk visits each
    subspace null(S) once, keyed by the rows that vanish on it, and takes
    the least eigenvalue whose eigenvector (of either sign) lies in the
    closed cone.  A row added to S shrinks null(S), which lowers no
    eigenvalue, so a subspace whose least eigenvalue is no lower than the
    best value found is pruned with all its subspaces.  A and B come from
    ``c2_value`` and ``norm_value`` by polarization on the ``Fraction``
    balance basis, and the rows are that basis's distinct reduced rows, so
    nothing here reads the solver's forms.
    """
    import numpy as np

    basis = reference_balance_nullspace(qp.shape)

    def polar(value, u, v):
        both = tuple(x + y for x, y in zip(u, v))
        return (value(both) - value(u) - value(v)) / 2

    a, b = (
        np.array([[float(polar(value, u, v)) for v in basis] for u in basis])
        for value in (qp.c2_value, qp.shape.norm_value)
    )
    reduced = {
        tuple(sum(x * y for x, y in zip(row, vec)) for vec in basis) for row in cone
    }
    walls = np.array(sorted(reduced), dtype=float)
    walls /= np.linalg.norm(walls, axis=1)[:, None]
    best, seen = np.inf, set()

    def walk(chosen: frozenset) -> None:
        nonlocal best
        null = np.eye(len(basis))
        if chosen:
            _, singular, vt = np.linalg.svd(walls[sorted(chosen)])
            null = vt[int(np.sum(singular > 1e-9)):].T
        if null.shape[1] == 0:
            return
        # every row that vanishes on null(S) names the same subspace
        chosen = frozenset(np.flatnonzero(np.all(np.abs(walls @ null) <= 1e-9, axis=1)))
        if chosen in seen:
            return
        seen.add(chosen)
        inverse = np.linalg.inv(np.linalg.cholesky(null.T @ b @ null)).T
        values, vectors = np.linalg.eigh(inverse.T @ null.T @ a @ null @ inverse)
        if values[0] >= best:
            return
        for value, vector in zip(values, vectors.T):
            if value >= best:
                break
            w = null @ inverse @ vector
            w /= np.linalg.norm(w)
            if np.all(walls @ w <= 1e-9) or np.all(walls @ w >= -1e-9):
                best = value
                break
        for k in range(len(walls)):
            if k not in chosen:
                walk(chosen | {k})

    walk(frozenset())
    return float(best)


def reference_phase1_empty(rows) -> bool:
    """Gordan's test for {y : row . y < 0 for every row} by a Fraction simplex.

    The cone is empty exactly when some lam >= 0 with sum lam = 1 has
    sum_k lam_k row_k = 0.  A textbook phase 1 decides that: the full
    tableau over the lam columns and one artificial column per equation, in
    ``Fraction``, with the artificials' sum as the cost row and Bland's rule
    over every column.  Empty exactly when the optimal sum is zero.
    """
    m, width = len(rows), len(rows[0])
    n_eq = width + 1
    lhs = [[Fraction(row[j]) for row in rows] for j in range(width)] + [[Fraction(1)] * m]
    rhs = [Fraction(0)] * width + [Fraction(1)]
    tableau = [
        lhs[i] + [Fraction(int(i == j)) for j in range(n_eq)] + [rhs[i]] for i in range(n_eq)
    ]
    basis = [m + i for i in range(n_eq)]
    while True:
        # reduced costs of minimizing sum(artificials): c_k - c_B B^-1 A_k
        cost = [
            Fraction(int(k >= m)) - sum(
                (row[k] for row, b in zip(tableau, basis) if b >= m), Fraction(0)
            )
            for k in range(m + n_eq)
        ]
        entering = next((k for k in range(m + n_eq) if cost[k] < 0), None)
        if entering is None:
            return sum((row[-1] for row, b in zip(tableau, basis) if b >= m), Fraction(0)) == 0
        ratios = [
            (row[-1] / row[entering], basis[i], i)
            for i, row in enumerate(tableau) if row[entering] > 0
        ]
        _, _, r = min(ratios)
        pivot = tableau[r][entering]
        tableau[r] = [x / pivot for x in tableau[r]]
        for i, row in enumerate(tableau):
            if i != r and row[entering]:
                factor = row[entering]
                tableau[i] = [x - factor * y for x, y in zip(row, tableau[r])]
        basis[r] = entering


def random_divisor_config(
    rng: random.Random, n_components: int, max_crossing: int = 3
) -> DivisorConfiguration:
    names = tuple(f"C{i}" for i in range(n_components))
    degrees = tuple(
        Fraction(rng.randint(1, 6), rng.choice((1, 2))) for _ in range(n_components)
    )
    matrix = [[0] * n_components for _ in range(n_components)]
    for i in range(n_components):
        matrix[i][i] = rng.randint(-2, 4)
        for j in range(i + 1, n_components):
            matrix[i][j] = matrix[j][i] = rng.randint(0, max_crossing)
    return DivisorConfiguration(names, degrees, tuple(tuple(r) for r in matrix))


def random_balanced_configuration(
    rng: random.Random,
    rank: int,
    n_components: int,
    height: int = 5,
    nontrivial: bool = False,
) -> FilteredConfiguration:
    if nontrivial and rank < 2:
        raise ValueError("balance forces rank-1 filtrations to be trivial")
    while True:
        flags = tuple(
            random_balanced_filtration(rng, rank, height) for _ in range(n_components)
        )
        fc = FilteredConfiguration(rank, flags)
        if not nontrivial or not fc.is_trivial:
            return fc


def random_arrangement(rng: random.Random) -> PlaneArrangement:
    """Random plane curves with transversally-compatible marked points."""
    n_curves = rng.randint(2, 4)
    curves = tuple((f"C{i}", rng.randint(1, 3)) for i in range(n_curves))
    degrees = dict(curves)
    points = []
    budget = {
        (a, b): degrees[f"C{a}"] * degrees[f"C{b}"]
        for a in range(n_curves)
        for b in range(a + 1, n_curves)
    }
    for p in range(rng.randint(0, 3)):
        members = sorted(rng.sample(range(n_curves), rng.randint(2, n_curves)))
        pairs = [(a, b) for k, a in enumerate(members) for b in members[k + 1:]]
        if all(budget[pair] > 0 for pair in pairs):
            for pair in pairs:
                budget[pair] -= 1
            points.append((f"p{p}", tuple(f"C{i}" for i in members)))
    return PlaneArrangement(curves, tuple(points))


def a3_arrangement() -> PlaneArrangement:
    """The A_3 arrangement: the six lines through pairs of four general points.

    Line ``Lij`` passes through the points ``pi`` and ``pj``, so each point
    is a marked triple point; the pairs ``Lij``, ``Lkl`` with no index in
    common meet at the three unmarked double points.
    """
    pairs = list(itertools.combinations(range(4), 2))
    return PlaneArrangement(
        tuple((f"L{i}{j}", 1) for i, j in pairs),
        tuple((f"p{k}", tuple(f"L{i}{j}" for i, j in pairs if k in (i, j))) for k in range(4)),
    )


def hesse_arrangement() -> PlaneArrangement:
    """The Hesse arrangement: the 12 lines of the affine plane over F_3.

    The 9 points ``pxy`` are marked, 4 lines through each and 3 points on
    each line; parallel lines meet only at the unmarked points at infinity.
    """
    points = list(itertools.product(range(3), repeat=2))
    lines = sorted({
        tuple(sorted(((x + t * dx) % 3, (y + t * dy) % 3) for t in range(3)))
        for x, y in points
        for dx, dy in ((1, 0), (0, 1), (1, 1), (1, 2))
    })
    return PlaneArrangement(
        tuple((f"L{k}", 1) for k in range(len(lines))),
        tuple(
            (f"p{x}{y}", tuple(f"L{k}" for k, line in enumerate(lines) if (x, y) in line))
            for x, y in points
        ),
    )


def random_realizable_config(rng: random.Random) -> DivisorConfiguration:
    """A geometrically realizable configuration: a blown-up plane arrangement.

    Unlike :func:`random_divisor_config` (arbitrary abstract matrices, which
    can violate surface geometry such as the Hodge index theorem), these come
    from an actual surface, so inequality harnesses are meaningful on them.
    """
    return blow_up(random_arrangement(rng), Fraction(1, 100))


def non_surface_config() -> DivisorConfiguration:
    """Degrees and intersections that no surface has.

    y = (0, 2, -3, 0) has degree d . y = 0 and y^T M y = 22 > 0, which the
    Hodge index theorem forbids.  The rank-2 search at budget 12 and seed 0
    meets an exactly stable configuration with c2 < 0 on it.
    """
    return DivisorConfiguration(
        ("C0", "C1", "C2", "C3"),
        (Fraction(3, 2), Fraction(6), Fraction(4), Fraction(6)),
        ((-1, 0, 2, 3), (0, 4, 1, 3), (2, 1, 2, 0), (3, 3, 0, 2)),
    )


def all_lines(height: int, rank: int = 2) -> list[Subspace]:
    """Every line of Q^rank spanned by a primitive vector of coordinate height <= height."""
    lines = []
    for vector in itertools.product(range(-height, height + 1), repeat=rank):
        first = next((x for x in vector if x), 0)
        if first > 0 and gcd(*vector) == 1:
            lines.append(span([vector], rank))
    return lines


def _status_of(best: Fraction) -> Status:
    if best > 0:
        return Status.UNSTABLE
    if best == 0:
        return Status.SEMISTABLE
    return Status.STABLE


def brute_force_rank2(
    fc: FilteredConfiguration, config: DivisorConfiguration, height: int = 5
) -> tuple[Status, Fraction]:
    """Exhaustive stability verdict over all lines of bounded height."""
    best = max(parabolic_degree(line, fc, config) for line in all_lines(height))
    return _status_of(best), best


def brute_force_rank3(
    fc: FilteredConfiguration, config: DivisorConfiguration, height: int = 2
) -> tuple[Status, Fraction]:
    """Stability verdict over the lines of Q^3 of bounded height and their orthogonal planes.

    Only subspaces of bounded height are tried, so the maximum is a lower
    bound for the true maximal degree, and equal to it when a maximizer of
    bounded height exists.
    """
    lines = all_lines(height, 3)
    subspaces = lines + [line.annihilator() for line in lines]
    best = max(parabolic_degree(s, fc, config) for s in subspaces)
    return _status_of(best), best


def three_planes() -> tuple[DivisorConfiguration, FilteredConfiguration]:
    """Three planes A, B, C in Q^4 on degree-1 components, weights (1/2, -1/2).

    A = <e1, e2>, B = <e3, e4>, C = <e1 + e3, e2 + e4>.  The transversal
    W = <e1, e3> meets each plane in a line and has degree exactly 0.
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


def blown_up_r4(seed: int, full: bool) -> tuple[DivisorConfiguration, FilteredConfiguration]:
    """Five lines with triple points p0 and p1, blown up: seven components.

    The exceptional curves carry two-step flags; the lines carry full flags,
    or flags of two to four steps when ``full`` is false.
    """
    arrangement = PlaneArrangement(
        tuple((f"L{i}", 1) for i in range(5)),
        (("p0", ("L0", "L1", "L2")), ("p1", ("L0", "L3", "L4"))),
    )
    config = blow_up(arrangement, Fraction(1, 10))
    rng = random.Random(seed)
    flags = tuple(
        random_balanced_filtration(
            rng, 4, height=3,
            steps=2 if name.startswith("E_") else 4 if full else rng.choice((2, 3, 4)),
        )
        for name in config.names
    )
    return config, FilteredConfiguration(4, flags)


def reference_intersection_dim(a: Subspace, b: Subspace) -> int:
    """dim(a ∩ b) = dim a + dim b - dim(a + b), the join ranked over ``Fraction``.

    Independent of the integer kernel: no normals and no elimination of
    ``filtstab.linalg`` are involved.
    """
    return len(a.rows) + len(b.rows) - len(reference_rref(a.rows + b.rows, a.ambient_dim))


def reference_contains(big: Subspace, small_rows, width: int) -> bool:
    """Whether the span of ``small_rows`` lies in ``big``, ranked over ``Fraction``."""
    return len(reference_rref(big.rows + tuple(map(tuple, small_rows)), width)) == big.dim


def reference_induced_degree_vector(filt: Filtration, subspace: Subspace):
    """Induced graded dimensions, one :func:`reference_intersection_dim` per flag step."""
    entries = []
    prev_dim = 0
    for weight, space in filt.steps:
        here = reference_intersection_dim(subspace, space)
        if here > prev_dim:
            entries.append((weight, here - prev_dim))
        prev_dim = here
    return tuple(entries)


def reference_parabolic_degree(
    subspace: Subspace, fc: FilteredConfiguration, config: DivisorConfiguration
) -> Fraction:
    """sum_i deg(D_i) sum_a a * mult, summed in Fractions from the reference vectors."""
    total = Fraction(0)
    for filt, degree in zip(fc.filtrations, config.degrees):
        if degree == 0:
            continue
        for weight, mult in reference_induced_degree_vector(filt, subspace):
            total += weight * mult * degree
    return total


def reference_joint_step_multiplicities(f: Filtration, g: Filtration):
    """Joint step multiplicities by inclusion-exclusion over pairwise
    :func:`reference_intersection_dim`."""
    f_spaces = [Subspace.zero(f.ambient_dim)] + list(f.spaces())
    g_spaces = [Subspace.zero(g.ambient_dim)] + list(g.spaces())
    dims = [[reference_intersection_dim(fs, gs) for gs in g_spaces] for fs in f_spaces]
    return tuple(
        tuple(
            dims[s + 1][t + 1] - dims[s][t + 1] - dims[s + 1][t] + dims[s][t]
            for t in range(len(g.steps))
        )
        for s in range(len(f.steps))
    )


def reference_closure(
    fc: FilteredConfiguration, depth: int, cap: int
) -> tuple[list[Subspace], bool]:
    """The flag-step closure computing every pairwise meet and sum, capped."""
    current = {s for f in fc.filtrations for _, s in f.steps if 0 < s.dim < fc.rank}
    capped = False
    for _ in range(depth):
        fresh: set[Subspace] = set()
        ordered = sorted(current, key=sort_key)
        for a_index, a in enumerate(ordered):
            for b in ordered[a_index + 1:]:
                for candidate in (a.intersect(b), a + b):
                    if 0 < candidate.dim < fc.rank and candidate not in current:
                        fresh.add(candidate)
                if len(current) + len(fresh) >= cap:
                    capped = True
                    break
            if capped:
                break
        current |= fresh
        if capped or not fresh:
            break
    ordered = sorted(current, key=sort_key)
    if len(ordered) > cap:
        ordered = ordered[:cap]
        capped = True
    return ordered, capped


def reference_generic_hyperplane(member: Subspace, steps) -> Subspace:
    """A hyperplane through ``member`` containing no flag step outside ``member``.

    Built directly: its normal is the first moment-curve point of the
    annihilator of ``member`` whose hyperplane contains none of those steps.
    Containment is ranked over ``Fraction`` by :func:`reference_contains`.
    """
    n = member.ambient_dim
    if member.dim == n - 1:
        return member
    avoid = [step for step in steps if not reference_contains(member, step.rows, n)]
    normals = member.annihilator()
    for k in range(len(avoid) * (normals.dim - 1) + 1):
        normal = _moment_point(normals.basis, k)
        # a hyperplane contains a step when its normal vanishes on the step
        if not any(
            all(sum(x * y for x, y in zip(normal, row)) == 0 for row in step.rows)
            for step in avoid
        ):
            return span([normal], n).annihilator()
    raise AssertionError("unreachable: more roots than the degree allows")


def reference_generic_line(member: Subspace, steps) -> Subspace:
    """A line of ``member`` in no flag step that does not contain ``member``.

    Each moment-curve point of ``member``'s canonical basis is tried in
    the same k order as the package; containment in a step is ranked over
    ``Fraction`` by :func:`reference_contains`, not read from normals.
    """
    n = member.ambient_dim
    if member.dim == 1:
        return member
    avoid = [step for step in steps if not reference_contains(step, member.rows, n)]
    for k in range(len(avoid) * (member.dim - 1) + 1):
        point = _moment_point(member.basis, k)
        if not any(reference_contains(step, [point], n) for step in avoid):
            return span([point], n)
    raise AssertionError("unreachable: more roots than the degree allows")


def reference_form(config: DivisorConfiguration, u, v) -> Fraction:
    """u^T M v, summed entry by entry in ``Fraction`` from a ``Fraction(0)`` start."""
    total = Fraction(0)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            total += Fraction(x) * config.intersection[i][j] * Fraction(y)
    return total


def reference_c2_number(data, config: DivisorConfiguration) -> Fraction:
    """c1^2 / 2 - sum_i M_ii sum_a a^2 m / 2 - sum over crossing tables of
    sum a b m, each sum taken in ``Fraction`` from the table entries."""
    c1 = [-sum((w * m for w, m in t.entries), Fraction(0)) for t in data.component_tables]
    self_term = sum(
        (
            w * w * m * config.intersection[i][i]
            for i, t in enumerate(data.component_tables)
            for w, m in t.entries
        ),
        Fraction(0),
    )
    crossing_term = -sum(
        (a * b * m for t in data.crossing_tables for a, b, m in t.entries), Fraction(0)
    )
    return reference_form(config, c1, c1) / 2 - self_term / 2 + crossing_term


def reference_stability_cone(shape, incidences) -> tuple[tuple[Fraction, ...], ...]:
    """The stability cone of a weight shape with ``Fraction`` rows.

    A candidate row holds deg(D_i) m_{i,s} over the flat graded incidence,
    so its product with the weights is the parabolic degree; then one row
    w_{i,s+1} - w_{i,s} per pair of adjacent steps.
    """
    degrees = [
        degree for degree, count in zip(shape.degrees, shape.step_counts)
        for _ in range(count)
    ]
    rows = [
        tuple(Fraction(degree) * m for degree, m in zip(degrees, incidence))
        for incidence in incidences
    ]
    for i, count in enumerate(shape.step_counts):
        for s in range(count - 1):
            row = [Fraction(0)] * shape.size
            row[shape.slot(i, s)] = Fraction(-1)
            row[shape.slot(i, s + 1)] = Fraction(1)
            rows.append(tuple(row))
    return tuple(rows)



def reference_balanced_cone(shape, incidences) -> tuple[tuple[int, ...], ...]:
    """The rows of :func:`reference_stability_cone` in balance coordinates.

    A balanced w with x_j = w[slot_j] / m0 is sum_j x_j m0 v_j over the
    basis v_j of :func:`reference_balance_nullspace`, whose free column (its
    one entry 1) is slot_j, so row . w = h . x with h_j = m0 (row . v_j).
    Each h is scaled to a primitive integer row in ``Fraction``; the
    distinct rows come sorted.
    """
    basis = reference_balance_nullspace(shape)
    first_mults = [mults[0] for mults in shape.mults for _ in mults]
    reduced = set()
    for row in reference_stability_cone(shape, incidences):
        h = [
            first_mults[v.index(1)] * sum((r * x for r, x in zip(row, v)), Fraction(0))
            for v in basis
        ]
        scaled = [int(x * lcm(*(y.denominator for y in h))) for x in h]
        content = gcd(*scaled) or 1
        reduced.add(tuple(x // content for x in scaled))
    return tuple(sorted(reduced))


def reference_rationalize(weights, shape, cone, interior):
    """Rationalize over weight rows, summed in ``Fraction``.

    Each weight goes to the nearest rational with denominator at most 64
    and each component is re-balanced (:func:`reference_balanced`), giving
    w.  When some row of ``cone`` (:func:`reference_stability_cone`) has
    row . w >= 0, w steps to w + t y along the balanced weights
    ``interior`` y: t is twice the largest row . w / -row . y over the rows,
    or 1 / (64^2 max |y|) when that largest is 0.
    """
    rounded = [
        w if isinstance(w, Fraction) else Fraction(float(w)).limit_denominator(64)
        for w in weights
    ]
    out = [
        w for offset, mults in zip(shape.offsets, shape.mults)
        for w in reference_balanced(rounded[offset : offset + len(mults)], mults)
    ]
    least = max(
        sum((r * w for r, w in zip(row, out)), Fraction(0))
        / -sum((r * y for r, y in zip(row, interior)), Fraction(0))
        for row in cone
    )
    if least < 0:
        return tuple(out)
    t = 2 * least or Fraction(1, 64**2 * max(map(abs, interior)))
    return tuple(w + t * y for w, y in zip(out, interior))

def every_result(fc, config):
    """c2 by the tables and by the trivial route, the squared norm and the verdict."""
    return (
        c2_number(derive_tables(fc, config), config).c2,
        c2_trivial(fc, config),
        norm_sq(fc, config),
        check_stability(fc, config, samples=20, seed=fc.rank),
    )
