"""Search for the minimal ratio c2 / ||F||^2 over stable balanced flags.

With the flag subspaces frozen, both the second Chern number and the squared
norm are quadratic forms in the step weights (the joint graded multiplicities
depend only on the subspaces), so the inner problem is a generalized
Rayleigh-quotient minimization on the balance subspace, solved in floating
point and re-verified exactly after rationalizing the minimizer.  The outer
loop walks a seeded stream of flag shapes, keeps the best configuration that
certifies stable, and reports the result as an upper bound, never as the
true minimum.

Weight vectors are flat tuples ordered component by component, step by step;
a :class:`WeightShape` records the bookkeeping (offsets, multiplicities,
degrees) needed to interpret them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import minimize

from .chern import c2_trivial, norm_sq
from .errors import (
    BGIViolationError,
    ConvergenceError,
    DegenerateDegreeError,
    DimensionMismatchError,
    NoStableConfigurationError,
    OrderingCollapseError,
    ShapeMismatchError,
    SingularFormError,
)
from .filtration import FilteredConfiguration, Filtration, joint_step_multiplicities
from .linalg import span
from .stability import (
    Certainty,
    StabilityVerdict,
    Status,
    check_stability,
    exact_candidates,
)
from .surface import DivisorConfiguration

DEFAULT_FLAG_HEIGHT = 7
DEFAULT_MAX_DENOMINATOR = 64

STRATEGIES = ("random", "coincident", "generic", "user")


@dataclass(frozen=True)
class WeightShape:
    """Index bookkeeping for flat weight vectors over a flag configuration."""

    step_counts: tuple[int, ...]
    mults: tuple[tuple[int, ...], ...]
    degrees: tuple[Fraction, ...]
    seed_weights: tuple[Fraction, ...]
    offsets: tuple[int, ...] = ()
    size: int = 0

    def __post_init__(self):
        offsets = []
        total = 0
        for count in self.step_counts:
            offsets.append(total)
            total += count
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "size", total)

    def slot(self, component: int, step: int) -> int:
        return self.offsets[component] + step

    def ordering_ok(self, weights: Sequence[float], margin: float = 1e-9) -> bool:
        """Strictly decreasing weights within every component, with margin."""
        scale = max(1.0, max((abs(float(w)) for w in weights), default=0.0))
        for i, count in enumerate(self.step_counts):
            base = self.offsets[i]
            for s in range(count - 1):
                if float(weights[base + s]) - float(weights[base + s + 1]) <= margin * scale:
                    return False
        return True


@dataclass(frozen=True)
class QuadraticPair:
    """Exact quadratic forms of c2 (A) and the squared norm (B, diagonal).

    For every weight vector w compatible with the shape, w^T A w equals the
    second Chern number and w^T B w the squared norm of the corresponding
    configuration; the balance rows cut out the subspace of admissible w.
    """

    shape: WeightShape
    a: tuple[tuple[Fraction, ...], ...]
    b_diag: tuple[Fraction, ...]
    balance: tuple[tuple[Fraction, ...], ...]

    def c2_value(self, weights: Sequence[Fraction]) -> Fraction:
        w = [Fraction(x) for x in weights]
        total = Fraction(0)
        for i, wi in enumerate(w):
            if wi == 0:
                continue
            row = self.a[i]
            for j, wj in enumerate(w):
                if wj != 0:
                    total += wi * wj * row[j]
        return total

    def norm_value(self, weights: Sequence[Fraction]) -> Fraction:
        return sum(
            (Fraction(x) ** 2 * b for x, b in zip(weights, self.b_diag)),
            Fraction(0),
        )

    def ratio_float(self, weights: Sequence[float]) -> float:
        w = np.asarray([float(x) for x in weights])
        a = self.a_float()
        num = float(w @ a @ w)
        den = float(np.sum(self.b_float() * w * w))
        return num / den

    def a_float(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.a])

    def b_float(self) -> np.ndarray:
        return np.array([float(x) for x in self.b_diag])


def shape_of(fc: FilteredConfiguration, config: DivisorConfiguration) -> WeightShape:
    if len(fc.filtrations) != config.n_components:
        raise ShapeMismatchError(
            f"{len(fc.filtrations)} filtrations for {config.n_components} components"
        )
    step_counts = tuple(len(f.steps) for f in fc.filtrations)
    mults = tuple(
        tuple(m for _, m in f.gr_spectrum().entries) for f in fc.filtrations
    )
    seeds = tuple(w for f in fc.filtrations for w in f.weights())
    return WeightShape(step_counts, mults, tuple(config.degrees), seeds)


def assemble_quadratics(
    fc_shape: FilteredConfiguration, config: DivisorConfiguration
) -> QuadraticPair:
    """Build the exact (c2, norm) quadratic pair for a fixed flag shape.

    A is indexed by weight slots (i, s): its (i,s),(j,t) entry is
    -1/2 * m^{ij}_{st} * D_i.D_j, where m^{ij}_{st} is the joint graded
    multiplicity of step s of the i-th flag with step t of the j-th flag
    (diagonal blocks reduce to the step multiplicities).  B is diagonal with
    entries mult * degree.  Weights of ``fc_shape`` only fix the shape.
    """
    shape = shape_of(fc_shape, config)
    n = shape.size
    a = [[Fraction(0)] * n for _ in range(n)]
    half = Fraction(1, 2)
    for i, filt_i in enumerate(fc_shape.filtrations):
        for j, filt_j in enumerate(fc_shape.filtrations):
            pairing_count = config.intersection[i][j]
            if pairing_count == 0:
                continue
            if i == j:
                for s, mult in enumerate(shape.mults[i]):
                    slot = shape.slot(i, s)
                    a[slot][slot] += -half * mult * pairing_count
            else:
                joint = joint_step_multiplicities(filt_i, filt_j)
                for s in range(shape.step_counts[i]):
                    for t in range(shape.step_counts[j]):
                        if joint[s][t]:
                            a[shape.slot(i, s)][shape.slot(j, t)] += (
                                -half * joint[s][t] * pairing_count
                            )
    b_diag = tuple(
        Fraction(shape.mults[i][s]) * shape.degrees[i]
        for i in range(len(shape.step_counts))
        for s in range(shape.step_counts[i])
    )
    balance = []
    for i, mults in enumerate(shape.mults):
        row = [Fraction(0)] * n
        for s, m in enumerate(mults):
            row[shape.slot(i, s)] = Fraction(m)
        balance.append(tuple(row))
    return QuadraticPair(
        shape, tuple(tuple(row) for row in a), b_diag, tuple(balance)
    )


def canonical_weights(shape: WeightShape) -> tuple[Fraction, ...]:
    """Evenly spread balanced weights for a shape, half-integer spacing."""
    out: list[Fraction] = []
    for mults in shape.mults:
        k = len(mults)
        raw = [Fraction(k - 1 - 2 * s, 2) for s in range(k)]
        shift = sum((w * m for w, m in zip(raw, mults)), Fraction(0)) / sum(mults)
        out.extend(w - shift for w in raw)
    return tuple(out)


def _balance_nullspace(qp: QuadraticPair) -> list[tuple[Fraction, ...]]:
    """Exact basis of the subspace cut out by the balance constraints."""
    size = qp.shape.size
    reduced = span(qp.balance, size).rows
    pivots = [next(j for j, x in enumerate(row) if x) for row in reduced]
    free = [c for c in range(size) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * size
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return basis


def _normalized(weights: np.ndarray) -> Optional[np.ndarray]:
    peak = np.max(np.abs(weights))
    if peak == 0 or not np.isfinite(peak):
        return None
    return weights * (0.5 / peak)


@dataclass(frozen=True)
class InnerResult:
    """Minimizer data for one fixed flag shape."""

    weights: tuple[float, ...]
    ratio: float
    boundary: bool
    eigen_ratio: float


def inner_minimize(
    qp: QuadraticPair,
    tolerance: float = 1e-10,
    max_iter: int = 200,
    stability_check: Optional[Callable[[Sequence[float]], bool]] = None,
    ordering_margin: float = 1e-9,
) -> InnerResult:
    """Minimize the Rayleigh quotient w^T A w / w^T B w on the balance subspace.

    The unconstrained minimum over the subspace is the smallest generalized
    eigenvalue of (A, B) there.  When the eigen-minimizer respects the strict
    step ordering (and the optional stability screen), it is returned as an
    interior minimum.  Otherwise ``boundary`` is set and a constrained local
    search (sequential quadratic programming with the ordering inequalities,
    run from deterministic feasible starts) supplies the best feasible value,
    which can only be >= the eigenvalue.
    """
    basis = _balance_nullspace(qp)
    if not basis:
        raise SingularFormError(
            "only the zero weight vector satisfies the balance constraints"
        )
    n_mat = np.array([[float(x) for x in vec] for vec in basis]).T  # size x d
    d = n_mat.shape[1]
    a = qp.a_float()
    b = qp.b_float()
    a_red = n_mat.T @ a @ n_mat
    a_red = 0.5 * (a_red + a_red.T)
    b_red = n_mat.T @ (b[:, None] * n_mat)
    b_red = 0.5 * (b_red + b_red.T)
    b_eigs = np.linalg.eigvalsh(b_red)
    if b_eigs[0] <= 1e-12 * max(1.0, b_eigs[-1]):
        raise SingularFormError(
            "norm form is not positive definite on the balance subspace "
            "(a weighted component has degree zero?)"
        )
    eigenvalues, eigenvectors = eigh(a_red, b_red)
    eigen_ratio = float(eigenvalues[0])
    v_min = eigenvectors[:, 0]

    def admissible(w: np.ndarray) -> bool:
        if not qp.shape.ordering_ok(w, ordering_margin):
            return False
        return stability_check is None or stability_check(tuple(w))

    for v_signed in (v_min, -v_min):
        w = _normalized(n_mat @ v_signed)
        if w is not None and admissible(w):
            return InnerResult(tuple(w), eigen_ratio, False, eigen_ratio)

    # Boundary path: the eigen-minimizer is inadmissible, so optimize over
    # the ordering polytope from deterministic feasible starts.
    def reduced_coords(weights: Sequence[Fraction]) -> np.ndarray:
        target = np.array([float(x) for x in weights])
        coords, *_ = np.linalg.lstsq(n_mat, target, rcond=None)
        return coords

    def br_normalized(v: np.ndarray) -> Optional[np.ndarray]:
        quad = float(v @ b_red @ v)
        if quad <= 0 or not math.isfinite(quad):
            return None
        return v / math.sqrt(quad)

    starts: list[np.ndarray] = []
    for exact in (qp.shape.seed_weights, canonical_weights(qp.shape)):
        v = br_normalized(reduced_coords(exact))
        if v is not None:
            starts.append(v)
    v_eig = br_normalized(v_min)
    if v_eig is not None and starts:
        for t in (0.25, 0.5, 0.75):
            blend = br_normalized((1 - t) * v_eig + t * starts[0])
            if blend is not None:
                starts.append(blend)

    delta = 1e-6
    ordering_rows = []
    for i, count in enumerate(qp.shape.step_counts):
        base = qp.shape.offsets[i]
        for s in range(count - 1):
            ordering_rows.append(n_mat[base + s] - n_mat[base + s + 1])
    constraints = [
        {
            "type": "eq",
            "fun": lambda v: float(v @ b_red @ v) - 1.0,
            "jac": lambda v: 2.0 * (b_red @ v),
        }
    ]
    for row in ordering_rows:
        constraints.append(
            {
                "type": "ineq",
                "fun": (lambda r: lambda v: float(r @ v) - delta)(row),
                "jac": (lambda r: lambda v: r)(row),
            }
        )

    candidates: list[np.ndarray] = list(starts)
    for start in starts:
        result = minimize(
            lambda v: float(v @ a_red @ v),
            start,
            jac=lambda v: 2.0 * (a_red @ v),
            method="SLSQP",
            constraints=constraints,
            options={"maxiter": max_iter, "ftol": tolerance},
        )
        if np.all(np.isfinite(result.x)):
            candidates.append(result.x)

    best_w: Optional[np.ndarray] = None
    best_ratio = math.inf
    best_screened = False
    for v in candidates:
        quad = float(v @ b_red @ v)
        if quad <= 0 or not math.isfinite(quad):
            continue
        w = _normalized(n_mat @ v)
        if w is None or not qp.shape.ordering_ok(w, ordering_margin):
            continue
        ratio = float(v @ a_red @ v) / quad
        screened = stability_check is None or stability_check(tuple(w))
        if (screened, -ratio) > (best_screened, -best_ratio):
            best_w, best_ratio, best_screened = w, ratio, screened
    if best_w is None:
        raise ConvergenceError(
            "no ordering-feasible weight vector found within the iteration budget"
        )
    return InnerResult(tuple(best_w), best_ratio, True, eigen_ratio)


def rationalize(
    weights: Sequence[float | Fraction],
    shape: WeightShape,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
) -> tuple[Fraction, ...]:
    """Round weights to bounded denominators and re-balance exactly.

    Each coordinate moves to the nearest rational with denominator at most
    ``max_denominator``; afterwards every component is shifted back onto its
    exact balance constraint.  If rounding merged or reordered adjacent steps
    the flag shape has changed, which is reported as
    :class:`OrderingCollapseError` so the caller can retry with finer
    denominators.
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
    out: list[Fraction] = []
    for i, mults in enumerate(shape.mults):
        base = shape.offsets[i]
        chunk = rounded[base : base + len(mults)]
        total = sum((w * m for w, m in zip(chunk, mults)), Fraction(0))
        shift = total / sum(mults)
        chunk = [w - shift for w in chunk]
        for s in range(len(chunk) - 1):
            if chunk[s] <= chunk[s + 1]:
                raise OrderingCollapseError(
                    f"steps {s} and {s + 1} of component {i} merged at "
                    f"denominator {max_denominator}"
                )
        out.extend(chunk)
    return tuple(out)


@dataclass(frozen=True)
class UpsilonEstimate:
    """Best stable configuration found by the search, with exact certificates.

    ``ratio`` is the exact c2 / norm value of ``configuration``; ``attained``
    distinguishes an interior minimum (the unconstrained eigen-minimizer was
    itself admissible) from a boundary infimum that the search only
    approaches.  The estimate is an upper bound for the true minimal ratio.
    """

    configuration: FilteredConfiguration
    c2: Fraction
    norm_sq: Fraction
    ratio: Fraction
    verdict: StabilityVerdict
    attained: bool
    search_log: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.norm_sq <= 0:
            raise ShapeMismatchError("estimate requires positive squared norm")
        if self.ratio != self.c2 / self.norm_sq:
            raise ShapeMismatchError("ratio must equal c2 / norm_sq exactly")
        if self.verdict.status is not Status.STABLE:
            raise ShapeMismatchError("estimates carry stable verdicts only")


def _random_invertible_rows(
    rng: random.Random, rank: int, height: int
) -> list[list[int]]:
    while True:
        rows = [
            [rng.randint(-height, height) for _ in range(rank)]
            for _ in range(rank)
        ]
        if span(rows, rank).dim == rank:
            return rows


def _flag_from_rows(
    rows: Sequence[Sequence[int]], dims: Sequence[int], rank: int
) -> Filtration:
    steps = []
    k = len(dims)
    for s, dim in enumerate(dims):
        weight = Fraction(k - 1 - 2 * s, 2)
        steps.append((weight, span(rows[:dim], rank)))
    return Filtration(rank, tuple(steps)).balance_shift()


def _random_flag(
    rng: random.Random, rank: int, height: int, min_steps: int = 1
) -> Filtration:
    k = rng.randint(min_steps, rank)
    if k == 1:
        return Filtration.trivial(rank)
    rows = _random_invertible_rows(rng, rank, height)
    dims = sorted(rng.sample(range(1, rank), k - 1)) + [rank]
    return _flag_from_rows(rows, dims, rank)


def _generic_flag(rank: int, node: int) -> Filtration:
    rows = [
        [(node + m) ** j for j in range(rank)] for m in range(rank)
    ]
    return _flag_from_rows(rows, list(range(1, rank + 1)), rank)


def _make_shape(
    strategy: str,
    rng: random.Random,
    rank: int,
    n_components: int,
    height: int,
    supplied: Sequence[FilteredConfiguration],
    user_cursor: list[int],
) -> Optional[FilteredConfiguration]:
    if strategy == "user":
        if not supplied:
            return None
        fc = supplied[user_cursor[0] % len(supplied)]
        user_cursor[0] += 1
        return fc
    if rank == 1:
        return None
    if strategy == "coincident":
        flag = _random_flag(rng, rank, height, min_steps=2)
        return FilteredConfiguration(rank, (flag,) * n_components)
    if strategy == "generic":
        nodes = rng.sample(range(-(3 * n_components), 3 * n_components + 1), n_components)
        flags = tuple(_generic_flag(rank, node) for node in nodes)
        return FilteredConfiguration(rank, flags)
    if strategy == "random":
        for _ in range(4):
            flags = tuple(
                _random_flag(rng, rank, height) for _ in range(n_components)
            )
            if any(len(f.steps) > 1 for f in flags):
                return FilteredConfiguration(rank, flags)
        forced = [_random_flag(rng, rank, height, min_steps=2)]
        forced += [_random_flag(rng, rank, height) for _ in range(n_components - 1)]
        return FilteredConfiguration(rank, tuple(forced))
    raise ValueError(f"unknown strategy {strategy!r}")


def _with_weights(
    fc: FilteredConfiguration, shape: WeightShape, weights: Sequence[Fraction]
) -> FilteredConfiguration:
    new_filtrations = []
    for i, filt in enumerate(fc.filtrations):
        base = shape.offsets[i]
        chunk = weights[base : base + shape.step_counts[i]]
        new_filtrations.append(filt.with_weights(chunk))
    return FilteredConfiguration(fc.rank, tuple(new_filtrations))


def _rationalize_ladder(
    weights: Sequence[float],
    shape: WeightShape,
    max_denominator: int,
) -> Optional[tuple[Fraction, ...]]:
    ladder = [d for d in (8, 16, 32, 64, 128, 256) if d < max_denominator]
    ladder.append(max_denominator)
    for denominator in ladder:
        try:
            return rationalize(weights, shape, denominator)
        except OrderingCollapseError:
            continue
    return None


def outer_search(
    config: DivisorConfiguration,
    rank: int,
    budget: int,
    seed: int = 0,
    strategies: Sequence[str] = ("random", "coincident", "generic"),
    supplied: Sequence[FilteredConfiguration] = (),
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
    flag_height: int = DEFAULT_FLAG_HEIGHT,
    samples: int = 2000,
    screen_samples: int = 64,
    depth: int = 3,
    cap: int = 512,
    progress: Optional[Callable[[int, int, Optional[Fraction]], None]] = None,
) -> UpsilonEstimate:
    """Estimate the minimal c2 / norm ratio over stable balanced flags.

    Iterates a deterministic, seed-driven stream of flag shapes (so a larger
    budget explores a superset and the best ratio is non-increasing in the
    budget), minimizes the weight quadratic for each shape, rationalizes the
    minimizer, and keeps the best configuration whose exact stability check
    passes.  Every stable candidate is re-verified in exact arithmetic; a
    stable candidate with negative c2 raises :class:`BGIViolationError`
    because it can only come from a bug.
    """
    config.check()
    for name, degree in zip(config.names, config.degrees):
        if degree <= 0:
            raise DegenerateDegreeError(
                f"component {name!r} has non-positive degree; the search "
                "requires positive degrees throughout"
            )
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if rank < 1:
        raise ValueError("rank must be at least 1")
    chosen = tuple(strategies)
    for strategy in chosen:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
    if not chosen:
        raise ValueError("at least one strategy is required")
    if "user" in chosen and not supplied:
        raise ValueError("strategy 'user' requires supplied configurations")
    for fc in supplied:
        if fc.rank != rank or len(fc.filtrations) != config.n_components:
            raise ShapeMismatchError(
                "supplied configuration does not match the rank or component count"
            )

    rng = random.Random(seed)
    user_cursor = [0]
    counts = {
        "candidates": 0,
        "proposals": 0,
        "stable": 0,
        "semistable": 0,
        "unstable": 0,
        "bgi_rejected": 0,
        "skipped_trivial": 0,
        "skipped_singular": 0,
        "rounding_failures": 0,
        "boundary_hits": 0,
    }

    best: Optional[tuple[Fraction, tuple]] = None
    best_estimate: Optional[dict] = None

    for index in range(budget):
        strategy = chosen[index % len(chosen)]
        shape_fc = _make_shape(
            strategy, rng, rank, config.n_components, flag_height, supplied, user_cursor
        )
        if shape_fc is None or shape_fc.is_trivial:
            counts["skipped_trivial"] += 1
            continue
        counts["candidates"] += 1
        candidate_seed = (seed * 1_000_003 + index) & 0x7FFFFFFF
        qp = assemble_quadratics(shape_fc, config)
        shape = qp.shape
        # weight-independent, so built once for the screen and the proposals
        exact = exact_candidates(shape_fc)

        def screen(weights: Sequence[float]) -> bool:
            rationalized = _rationalize_ladder(weights, shape, max_denominator)
            if rationalized is None:
                return False
            candidate = _with_weights(shape_fc, shape, rationalized)
            if candidate.is_trivial:
                return False
            verdict = check_stability(
                candidate, config, mode="auto", samples=screen_samples,
                seed=candidate_seed, depth=depth, cap=cap, candidates=exact,
            )
            return verdict.status is Status.STABLE

        try:
            inner = inner_minimize(qp, stability_check=screen)
        except SingularFormError:
            counts["skipped_singular"] += 1
            continue
        except ConvergenceError:
            counts["rounding_failures"] += 1
            continue
        if inner.boundary:
            counts["boundary_hits"] += 1

        proposals: list[tuple[float, ...]] = [inner.weights]
        canonical = tuple(float(x) for x in canonical_weights(shape))
        proposals.append(canonical)
        for t in (0.25, 0.5):
            blend = tuple(
                (1 - t) * a + t * b for a, b in zip(inner.weights, canonical)
            )
            proposals.append(blend)

        seen_rationalized: set[tuple[Fraction, ...]] = set()
        for proposal in proposals:
            rationalized = _rationalize_ladder(proposal, shape, max_denominator)
            if rationalized is None:
                counts["rounding_failures"] += 1
                continue
            if rationalized in seen_rationalized:
                continue
            seen_rationalized.add(rationalized)
            counts["proposals"] += 1
            candidate = _with_weights(shape_fc, shape, rationalized)
            if candidate.is_trivial:
                counts["skipped_trivial"] += 1
                continue
            verdict = check_stability(
                candidate, config, mode="auto", samples=samples,
                seed=candidate_seed, depth=depth, cap=cap, candidates=exact,
            )
            if verdict.status is Status.UNSTABLE:
                counts["unstable"] += 1
                continue
            if verdict.status is Status.SEMISTABLE:
                counts["semistable"] += 1
                continue
            counts["stable"] += 1
            c2 = c2_trivial(candidate, config)
            if c2 < 0:
                if verdict.certainty is Certainty.EXACT:
                    raise BGIViolationError(
                        f"exactly-certified stable configuration with c2 = {c2}: "
                        "the inequality c2 >= 0 for stable balanced "
                        "configurations has been violated, indicating an "
                        "implementation bug"
                    )
                # c2 < 0 proves a heuristic stable verdict wrong (a
                # destabilizer exists but was not sampled); drop the candidate
                counts["bgi_rejected"] += 1
                continue
            norm_value = norm_sq(candidate, config)
            ratio = c2 / norm_value
            key = (ratio, candidate.sort_key())
            if best is None or key < best:
                eigen = inner.eigen_ratio
                attained = (not inner.boundary) and (
                    abs(float(ratio) - eigen) <= 1e-6 * max(1.0, abs(eigen))
                )
                best = key
                best_estimate = {
                    "configuration": candidate,
                    "c2": c2,
                    "norm_sq": norm_value,
                    "ratio": ratio,
                    "verdict": verdict,
                    "attained": attained,
                }
        if progress is not None:
            progress(index + 1, budget, best[0] if best else None)

    log: dict[str, object] = {
        "budget": budget,
        "seed": seed,
        "strategies": ",".join(chosen),
        **counts,
    }
    if best_estimate is None:
        raise NoStableConfigurationError(
            "no stable configuration found within the budget", log
        )
    log["best_ratio"] = str(best_estimate["ratio"])
    return UpsilonEstimate(search_log=log, **best_estimate)
