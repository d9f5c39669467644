"""Search for the minimal ratio c2 / ||F||^2 over stable balanced flags.

With the flag subspaces frozen, both the second Chern number and the squared
norm are quadratic forms in the step weights, and every candidate degree is
linear in them: the stable weights of a shape form an open polyhedral cone.
The inner problem is stated once, exactly, in the balance coordinates x of
:meth:`~filtstab.chern.WeightShape.from_balance`: the integer forms of
:meth:`~filtstab.chern.QuadraticPair.balanced_forms` and the cone's
primitive integer rows (:func:`stability_cone`).  Whether the cone is empty
is decided from those rows in integers, and the same test gives an integer
point y inside a non-empty cone.  There an active-set descent over the
cone's faces reads the doubles of those integers (:func:`inner_minimize`,
:func:`_descend`, the only numpy code, imported on the first non-empty cone,
so importing the package does not load it), and :func:`rationalize` rounds
the minimizer, re-balances it and steps exactly along y until it is strictly
inside, so the stability, c2 and norm of every proposal are exact.  The
outer loop walks one stream of flag shapes (a given start first and once,
then seeded random, coincident and generic shapes in turn), keeps the best
configuration that certifies stable, and reports its ratio as an upper
bound, next to the lower bound 0.  Distinct shapes often pose the same inner
problem (at rank 2 it depends only on which flag lines coincide), so a
search builds the cone, solves and rationalizes once per distinct (quadratic
pair, set of candidate incidences).

Weight vectors are flat tuples ordered component by component, step by step,
as a :class:`WeightShape` records them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, ClassVar, Mapping, Optional, Sequence

from .errors import (
    BGIViolationError,
    DegenerateDegreeError,
    DimensionMismatchError,
    EmptyConeError,
    NoStableConfigurationError,
    ShapeMismatchError,
    SingularFormError,
)
from .chern import QuadraticPair, WeightShape, assemble_quadratics
from .filtration import FilteredConfiguration, Filtration, balanced
from .linalg import Subspace, integer_row, open_cone_point, span
from .stability import (
    DEFAULT_SAMPLES,
    Certainty,
    StabilityVerdict,
    Status,
    _moment_point,
    _random_rows,
    candidates_for,
    check_stability,
    slot_degrees,
)
from .surface import DivisorConfiguration

DEFAULT_MAX_DENOMINATOR = 64
# random flags are spanned by integer rows with entries in [-7, 7]
FLAG_HEIGHT = 7
# the kinds of generated shapes, cycled in this order after the start
SHAPE_KINDS = ("random", "coincident", "generic")
# the float solve's slack on unit rows and multipliers, and its step cap
_TOLERANCE = 1e-9
_DESCENT_STEPS = 500


def _half_steps(k: int) -> list[Fraction]:
    """k decreasing weights (k-1)/2, (k-3)/2, ..., -(k-1)/2, spaced by 1."""
    return [Fraction(k - 1 - 2 * s, 2) for s in range(k)]


def _balanced_weights(shape: WeightShape, weights: Sequence) -> tuple[Fraction, ...]:
    """``weights`` with each component shifted onto its balance constraint."""
    chunks = (weights[o : o + len(m)] for o, m in zip(shape.offsets, shape.mults))
    return tuple(w for chunk, m in zip(chunks, shape.mults) for w in balanced(chunk, m))


ConeRows = tuple[tuple[int, ...], ...]


def stability_cone(shape: WeightShape, incidences: Sequence[Sequence[int]]) -> ConeRows:
    """Primitive integer rows h of the open stability cone {x : h . x < 0} of a
    flag shape, in the balance coordinates x of
    :meth:`~filtstab.chern.WeightShape.from_balance`, deduplicated and sorted:
    the cone depends on the set of ``incidences`` only.

    A candidate V of flat graded incidence m_{i,s} = dim gr_s(V) has the
    weight row K m, with K_{i,s} = L deg(D_i) over the lcm L of the degree
    denominators (:func:`~filtstab.stability.slot_degrees`), so its product
    with the weights over L is the parabolic degree of V; each pair of
    adjacent steps has the weight row w_{i,s+1} - w_{i,s}.  A weight row r
    reads h . x over the ``free_slots``, h = r[slot] m0 - r[first] m, and
    making h primitive keeps its open half-space.  With the incidences of
    :func:`~filtstab.stability.candidates_for`, balanced weights at ranks 2
    and 3 are stable exactly when their x lies in the cone; above, where the
    set is the flag-step closure, the cone contains the stable ones.
    """
    degrees, _ = slot_degrees(shape.degrees, shape.step_counts)
    rows = [tuple(map(mul, degrees, incidence)) for incidence in incidences]
    for i, count in enumerate(shape.step_counts):
        for s in range(count - 1):
            row = [0] * shape.size
            row[shape.slot(i, s)], row[shape.slot(i, s + 1)] = -1, 1
            rows.append(row)
    reduced = set()
    for r in rows:
        h = [r[slot] * m0 - r[first] * m for first, slot, m0, m in shape.free_slots]
        content = math.gcd(*h) or 1
        reduced.add(tuple(x // content for x in h))
    return tuple(sorted(reduced))


def _seed_coordinates(shape: WeightShape) -> tuple[Fraction, ...]:
    """The balance coordinates of the balanced seed weights."""
    return shape.to_balance(_balanced_weights(shape, shape.seed_weights))


def _interior(seed: Sequence[Fraction], cone: ConeRows) -> Optional[tuple[int, ...]]:
    """Integer balance coordinates y with h . y < 0 for every row h, or None.

    The ``seed`` coordinates, scaled to integers, when they satisfy all of
    them; otherwise :func:`~filtstab.linalg.open_cone_point` finds one or
    proves, in integers, that there is none.
    """
    point, _ = integer_row(seed)
    if all(sum(map(mul, h, point)) < 0 for h in cone):
        return point
    return open_cone_point(cone)


@dataclass(frozen=True)
class InnerResult:
    """Minimizer data for one fixed flag shape, with ``interior``, the integer
    balance coordinates y strictly inside the cone (:func:`_interior`) that
    :func:`rationalize` steps along."""

    weights: tuple[float, ...]
    ratio: float
    boundary: bool
    interior: tuple[int, ...]


def inner_minimize(qp: QuadraticPair, cone: ConeRows) -> InnerResult:
    """Minimize the Rayleigh quotient w^T A w / w^T B w over balance ∩ closed ``cone``.

    The problem is read in the balance coordinates x of
    :meth:`~filtstab.chern.WeightShape.from_balance`: the quotient
    x^T (C/4) x / x^T (N/s) x of :meth:`~filtstab.chern.QuadraticPair.balanced_forms`
    over the rows h of ``cone`` (:func:`stability_cone`), read as given, the
    float solve reading the doubles of those integers.  Weights come back at
    peak 1/2, their x with every h . x <= 0 up to float error;
    :func:`rationalize` makes them exact and strictly inside.

    Three exact tests come first.  A shape whose flags are all trivial, or
    whose norm is not definite on the balance subspace (a component with two
    or more steps has degree 0), raises :class:`SingularFormError`.  A cone
    with no balanced point, decided in integers (:func:`_interior`), raises
    :class:`EmptyConeError`, so that error is a proof; on any other cone the
    test gives the integer point y strictly inside, returned as ``interior``.

    The solve whitens the norm: with N/s = L L^T (Cholesky) and u = L^T x, the
    quotient is u^T C' u / u^T u.  :func:`_descend` runs over the rows, whitened
    to unit rows, from y and from the balanced seed where the seed lies in the
    closed cone and is not y up to scale.  The result is the least quotient
    among the starts and the descents' stationary points that lie in the
    closed cone; y always does, so the solve has no failure of its own.
    ``boundary`` is False exactly when some descent stopped with no active
    row, at the unconstrained minimum.  numpy is imported after the exact
    tests, so a process loads it on its first non-empty cone.
    """
    shape = qp.shape
    if not shape.free_slots:
        raise SingularFormError(
            "only the zero weight vector satisfies the balance constraints"
        )
    # B = diag(mult * K) / L with mult >= 1, and the balance directions are
    # the free slots, so B is definite there exactly when positive at each
    diagonal, _ = shape.norm_diagonal()
    if any(diagonal[slot] <= 0 for _, slot, _, _ in shape.free_slots):
        raise SingularFormError(
            "norm form is not positive definite on the balance subspace "
            "(a weighted component has degree zero?)"
        )
    seed = _seed_coordinates(shape)
    point = _interior(seed, cone)
    if point is None:
        raise EmptyConeError("the stability cone of this shape is empty")

    import numpy as np

    c_form, n_form, scale = qp.balanced_forms()
    a_red = np.array(c_form, dtype=float) / 4
    b_red = np.array(n_form, dtype=float) / scale
    chol = np.linalg.cholesky(b_red)
    unwhiten = np.linalg.inv(chol).T
    c = unwhiten.T @ a_red @ unwhiten
    c = 0.5 * (c + c.T)
    g = np.array(cone, dtype=float)

    def peak_half(x: np.ndarray) -> np.ndarray:
        return x * (0.5 / max(map(abs, shape.from_balance(x))))

    # the interior point, and the balanced seed (never zero: its steps
    # strictly decrease) where it lies in the closed cone and is not the
    # interior point already, as it is when the seed lies inside
    starts = [peak_half(np.array(point, dtype=float))]
    seed = peak_half(np.array(seed, dtype=float))
    if np.all(g @ seed <= _TOLERANCE) and not np.allclose(seed, starts[0]):
        starts.append(seed)
    walls = g @ unwhiten
    walls /= np.linalg.norm(walls, axis=1)[:, None]
    descents = [_descend(c, walls, chol.T @ start) for start in starts]
    candidates = starts + [peak_half(unwhiten @ u) for u, _ in descents]

    best_x, best_ratio = None, math.inf
    for x in candidates:
        if not np.all(g @ x <= _TOLERANCE):
            continue
        ratio = float(x @ a_red @ x) / float(x @ b_red @ x)
        if ratio < best_ratio:
            best_x, best_ratio = x, ratio
    boundary = all(blocked for _, blocked in descents)
    weights = tuple(map(float, shape.from_balance(best_x)))
    return InnerResult(weights, best_ratio, boundary, point)


def _descend(c, walls, x):
    """An active-set descent of u^T C u / u^T u over {u : walls @ u <= 0} from x.

    ``walls`` are unit rows and ``x`` is a point of the closed cone.  Each
    step takes the smallest eigenvector v of C on the null space of the
    active rows, signed so that v . x >= 0, and moves x along the segment
    to v until an inactive row blocks it, which joins the active set.  In
    span{x, v} the point v is an eigenvector of the least value, so the
    quotient does not increase along the segment.  When x reaches v, the
    face's minimum, the multipliers of the gradient 2 (C x - lambda x) on
    the active rows decide: the row with the most negative one leaves, and
    with none negative x is a stationary point, which is returned with
    whether any row is active there.  With no active row the first step
    goes to the least eigenvector of C and, unblocked, stops at it.
    """
    import numpy as np

    x = x / np.linalg.norm(x)
    active: list[int] = []
    for _ in range(_DESCENT_STEPS):
        basis = np.eye(len(x))
        if active:
            _, singular, vt = np.linalg.svd(walls[active])
            basis = vt[int(np.sum(singular > _TOLERANCE)):].T
        values, vectors = np.linalg.eigh(basis.T @ c @ basis)
        v = basis @ vectors[:, 0]
        if v @ x < 0:
            v = -v
        now, then = walls @ x, walls @ v
        step, block = 1.0, None
        for k in np.flatnonzero(then > _TOLERANCE):
            if k not in active:
                reach = max(0.0, now[k] / (now[k] - then[k]))
                if reach < step:
                    step, block = reach, int(k)
        x = (1 - step) * x + step * v
        x /= np.linalg.norm(x)
        if block is not None:
            active.append(block)
            continue
        if not active:
            break
        gradient = 2 * (c @ x - values[0] * x)
        multipliers = np.linalg.lstsq(walls[active].T, -gradient, rcond=None)[0]
        worst = int(np.argmin(multipliers))
        if multipliers[worst] >= -_TOLERANCE:
            break
        active.pop(worst)
    return x, bool(active)


def rationalize(
    weights: Sequence[float | Fraction],
    shape: WeightShape,
    cone: ConeRows,
    interior: Sequence[int],
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
) -> tuple[Fraction, ...]:
    """Exact balanced weights strictly inside the open ``cone``, near ``weights``.

    Each coordinate moves to the nearest rational with denominator at most
    ``max_denominator``, and every component is shifted back onto its exact
    balance constraint, giving w with balance coordinates
    x = ``shape.to_balance(w)``.  Where some row h of ``cone`` has h . x >= 0,
    x steps to x + t y along ``interior``, the integer balance coordinates y
    with every h . y < 0 (:class:`InnerResult`).  Each row needs
    t > h . x / -h . y; t is twice the largest of these bounds, read in
    integers, so every row, the step-ordering rows included, ends below zero
    in exact arithmetic and no two steps merge.  When the largest bound is 0
    (x on a face, where h . x <= 0 for every row), any t > 0 is exact, and
    t = 1 / (``max_denominator``^2 max |Y|) lies below the rounding grid,
    with Y = ``shape.from_balance(y)`` the weights of y.  The step is taken
    in weights, w + t Y.
    """
    if len(weights) != shape.size:
        raise DimensionMismatchError(
            f"{len(weights)} weights for a shape of size {shape.size}"
        )
    if max_denominator < 1:
        raise ValueError("max_denominator must be positive")
    rounded = [
        (w if isinstance(w, Fraction) else Fraction(float(w))).limit_denominator(
            max_denominator
        )
        for w in weights
    ]
    out = _balanced_weights(shape, rounded)
    # x = numerators / scale; the largest bound is top / (under * scale),
    # kept as the integer pair (top, under > 0) and compared crosswise
    numerators, scale = integer_row(shape.to_balance(out))
    top, under = -1, 1
    for row in cone:
        p, q = sum(map(mul, row, numerators)), -sum(map(mul, row, interior))
        if p * under > top * q:
            top, under = p, q
    if top < 0:
        return out
    step = shape.from_balance(interior)
    if top:
        t = Fraction(2 * top, under * scale)
    else:
        t = Fraction(1, max_denominator**2 * max(map(abs, step)))
    return tuple(w + t * y for w, y in zip(out, step))


@dataclass(frozen=True)
class UpsilonEstimate:
    """Best stable configuration found by the search, with exact certificates.

    ``ratio`` is the exact c2 / norm value of ``configuration``, an upper
    bound for the true minimal ratio.  ``lower_bound`` is 0, since every
    stable configuration has c2 >= 0 (a hard failure on exact paths).
    ``attained``, an exact verdict at a ratio equal to the lower bound,
    marks the ratio as the proven minimum.
    """

    lower_bound: ClassVar[Fraction] = Fraction(0)

    configuration: FilteredConfiguration
    c2: Fraction
    norm_sq: Fraction
    ratio: Fraction
    verdict: StabilityVerdict
    search_log: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.norm_sq <= 0:
            raise ShapeMismatchError("estimate requires positive squared norm")
        if self.ratio != self.c2 / self.norm_sq:
            raise ShapeMismatchError("ratio must equal c2 / norm_sq exactly")
        if self.verdict.status is not Status.STABLE:
            raise ShapeMismatchError("estimates carry stable verdicts only")
        if self.ratio < self.lower_bound:
            raise ShapeMismatchError("ratio lies below the proven lower bound")

    @property
    def attained(self) -> bool:
        return self.verdict.certainty is Certainty.EXACT and self.ratio == self.lower_bound


def _flag_from_rows(
    rows: Sequence[Sequence[int]], dims: Sequence[int], full: Subspace
) -> Filtration:
    """The spans of the first ``dims`` rows, then ``full``, at balanced half steps."""
    rank = full.ambient_dim
    spaces = [span(rows[:dim], rank) for dim in dims] + [full]
    mults = [b - a for a, b in zip((0, *dims), (*dims, rank))]
    return Filtration(rank, tuple(zip(balanced(_half_steps(len(spaces)), mults), spaces)))


def _random_flag(rng: random.Random, rank: int, min_steps: int = 1) -> Filtration:
    k = rng.randint(min_steps, rank)
    if k == 1:
        return Filtration.trivial(rank)
    rows, full = _random_rows(rng, rank, rank, FLAG_HEIGHT)
    dims = sorted(rng.sample(range(1, rank), k - 1))
    return _flag_from_rows(rows, dims, full)


def _generic_flag(rank: int, node: int) -> Filtration:
    """The spans of the first 1, 2, ... of the moment-curve points
    (1, k, ..., k^(rank-1)) at k = node, node + 1, ..., node + rank - 1."""
    full = Subspace.full(rank)
    rows = [_moment_point(full.basis, node + m) for m in range(rank)]
    return _flag_from_rows(rows, range(1, rank), full)


def _make_shape(
    kind: str, rng: random.Random, rank: int, n_components: int
) -> Optional[FilteredConfiguration]:
    if rank == 1:
        return None
    if kind == "coincident":
        flag = _random_flag(rng, rank, min_steps=2)
        return FilteredConfiguration(rank, (flag,) * n_components)
    if kind == "generic":
        nodes = rng.sample(range(-(3 * n_components), 3 * n_components + 1), n_components)
        flags = tuple(_generic_flag(rank, node) for node in nodes)
        return FilteredConfiguration(rank, flags)
    for _ in range(4):
        flags = tuple(_random_flag(rng, rank) for _ in range(n_components))
        if any(len(f.steps) > 1 for f in flags):
            return FilteredConfiguration(rank, flags)
    forced = [_random_flag(rng, rank, min_steps=2)]
    forced += [_random_flag(rng, rank) for _ in range(n_components - 1)]
    return FilteredConfiguration(rank, tuple(forced))


def _with_weights(
    fc: FilteredConfiguration, shape: WeightShape, weights: Sequence[Fraction]
) -> FilteredConfiguration:
    flags = zip(fc.filtrations, shape.offsets, shape.step_counts)
    return FilteredConfiguration(
        fc.rank, tuple(f.with_weights(weights[o : o + k]) for f, o, k in flags)
    )


def outer_search(
    config: DivisorConfiguration,
    rank: int,
    budget: int,
    seed: int = 0,
    start: Optional[FilteredConfiguration] = None,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
    samples: int = DEFAULT_SAMPLES,
    progress: Optional[Callable[[int, int, Optional[Fraction]], None]] = None,
) -> UpsilonEstimate:
    """Estimate the minimal c2 / norm ratio over stable balanced flags.

    Walks ``budget`` flag shapes: ``start``, when given, first and once,
    then random, coincident and generic shapes in turn from one
    ``seed``-driven generator, so a larger budget explores a superset and
    the best ratio is non-increasing in the budget.  Each shape's candidate
    set, exact at ranks 2 and 3 and its flag-step closure above, is built
    once and gives both the shape's cone and the final check; shapes whose
    cone is proven empty count as ``empty_cone``.
    The minimizer over the closed cone is rationalized at denominators up
    to ``max_denominator`` and stepped strictly inside the open cone
    (:func:`rationalize`).  The cone is built, solved and rationalized once
    per distinct (quadratic pair, set of candidate incidences) in this
    call, and a shape posing an already solved problem reuses that outcome,
    failures included.  The rationalized
    minimizer is kept when :func:`check_stability` (sampling with
    ``samples`` above rank 3) calls it stable, which at ranks 2 and 3 it
    always does; c2 and the norm come from the exact :class:`QuadraticPair`.
    An exactly stable candidate with negative c2 raises
    :class:`BGIViolationError` carrying
    :meth:`~filtstab.surface.DivisorConfiguration.hodge_witness` as
    ``witness``: a y proving that no surface has the numbers, or None, when
    the violation can only come from a bug.
    """
    for index, (name, degree) in enumerate(zip(config.names, config.degrees)):
        if degree == 0:
            raise DegenerateDegreeError(
                f"component {name!r} has degree 0; the search requires "
                "positive degrees throughout",
                index,
            )
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if rank < 1:
        raise ValueError("rank must be at least 1")
    expected = (rank, config.n_components)
    if start is not None and (start.rank, len(start.filtrations)) != expected:
        raise ShapeMismatchError("the start does not match the rank or component count")

    # rationalize always lands inside the cone, so rounding_failures stays 0;
    # the report keeps the count as a check of that
    counts = dict.fromkeys((
        "candidates", "proposals", "stable", "semistable", "unstable", "bgi_rejected",
        "skipped_trivial", "skipped_singular", "rounding_failures", "empty_cone",
        "boundary_hits",
    ), 0)

    solved: dict = {}
    best: Optional[dict] = None
    rng = random.Random(seed)
    kinds = itertools.cycle(SHAPE_KINDS)
    generated = (_make_shape(kind, rng, rank, config.n_components) for kind in kinds)
    shapes = itertools.chain([start] if start is not None else [], generated)
    for index, shape_fc in zip(range(budget), shapes):
        if shape_fc is None or shape_fc.is_trivial:
            counts["skipped_trivial"] += 1
        else:
            counts["candidates"] += 1
            candidate_seed = (seed * 1_000_003 + index) & 0x7FFFFFFF
            found = _solve_shape(
                shape_fc, config, counts, max_denominator, samples, candidate_seed,
                solved,
            )
            if found is not None and (best is None or _order(found) < _order(best)):
                best = found
        if progress is not None:
            progress(index + 1, budget, best["ratio"] if best else None)

    log: dict[str, object] = {"budget": budget, "seed": seed, **counts}
    if best is None:
        raise NoStableConfigurationError(
            "no stable configuration found within the budget", log
        )
    log["best_ratio"] = str(best["ratio"])
    return UpsilonEstimate(search_log=log, **best)


def _order(estimate: dict) -> tuple:
    return estimate["ratio"], estimate["configuration"].sort_key()


def _solve_and_round(
    qp: QuadraticPair, cone: ConeRows, max_denominator: int
) -> str | tuple[InnerResult, tuple[Fraction, ...]]:
    """The inner solve and its rounding, with failures returned, not raised.

    Gives the ``search_log`` count of a failed solve, or the
    :class:`InnerResult` with its rationalized weights.
    """
    try:
        inner = inner_minimize(qp, cone)
    except SingularFormError:
        return "skipped_singular"
    except EmptyConeError:
        return "empty_cone"
    return inner, rationalize(inner.weights, qp.shape, cone, inner.interior, max_denominator)


def _solve_shape(
    shape_fc: FilteredConfiguration,
    config: DivisorConfiguration,
    counts: dict[str, int],
    max_denominator: int,
    samples: int,
    seed: int,
    solved: dict,
) -> Optional[dict]:
    """Minimize over one shape's cone, then certify the rationalized minimizer.

    Returns the fields of an :class:`UpsilonEstimate` when the minimizer is
    stable, else None; ``counts`` records what happened either way.  The
    cone, the solve and the rounding read only the quadratic pair and the
    set of candidate incidences, so ``solved`` keeps their outcome under
    that key, and a shape posing a problem solved before in the same search
    reuses it (positive degrees make m -> K m one to one, so the key groups
    shapes as the set of weight rows would).  The candidates, the stability
    check, c2, the norm and every count are still computed for this shape.
    """
    qp = assemble_quadratics(shape_fc, config)
    shape = qp.shape
    # weight-independent, so built once for the cone and the final check
    candidates = candidates_for(shape_fc)
    key = (qp, frozenset(candidates.incidences))
    outcome = solved.get(key)
    if outcome is None:
        cone = stability_cone(shape, candidates.incidences)
        outcome = solved[key] = _solve_and_round(qp, cone, max_denominator)
    if isinstance(outcome, str):
        counts[outcome] += 1
        return None
    inner, rationalized = outcome
    if inner.boundary:
        counts["boundary_hits"] += 1
    counts["proposals"] += 1
    candidate = _with_weights(shape_fc, shape, rationalized)
    verdict = check_stability(
        candidate, config, samples=samples, seed=seed, candidates=candidates
    )
    counts[verdict.status.value] += 1
    if verdict.status is not Status.STABLE:
        return None
    c2 = qp.c2_value(rationalized)
    if c2 < 0:
        if verdict.certainty is Certainty.EXACT:
            witness = config.hodge_witness()
            cause = (
                "indicating an implementation bug" if witness is None else
                f"but no surface has these numbers: y = {list(witness)} has degree 0 "
                f"and y^T M y = {config.pairing(witness)} > 0"
            )
            raise BGIViolationError(
                f"exactly-certified stable configuration with c2 = {c2}: "
                "the inequality c2 >= 0 for stable balanced "
                f"configurations has been violated, {cause}",
                witness,
            )
        # c2 < 0 proves a heuristic stable verdict wrong (a destabilizer
        # exists but was not sampled); drop the candidate
        counts["bgi_rejected"] += 1
        return None
    norm_value = shape.norm_value(rationalized)
    return dict(
        configuration=candidate, c2=c2, norm_sq=norm_value, ratio=c2 / norm_value,
        verdict=verdict,
    )
