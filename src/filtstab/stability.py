"""Slope stability of flag configurations.

A configuration is destabilized by a proper subspace V whose parabolic
degree

    sum_i  deg(D_i) * sum_a a * dim(gr_a of the filtration F_i induced on V)

is non-negative; stability demands a strictly negative degree for every
proper V.  The degree of a line depends only on the set of flag steps that
contain it, and grows with that set; dually, the degree of a hyperplane
grows with the set of flag steps it contains.  So lines reach their maximal
degree at a generic line of some member of the meet closure of the flag
steps, which lies in exactly the steps containing that member, and
hyperplanes at a generic hyperplane through some member of the sum
closure, which contains exactly the steps inside it.  At ranks 2 and 3
every proper subspace is a line or a hyperplane, so these members decide
stability exactly, their incidences read from containment alone
(:func:`_exact_candidates`); a generic subspace is built only for a
witness.  Above rank 3 the oracle is one-sided: witnesses of non-stability
are exact, while a clean sweep over the flag-step closure plus seeded
random samples only supports a heuristic verdict.  :func:`candidates_for`
is the one place where the rank picks between the two.

Degrees are integer dot products over one flat slot layout, component i by
component, step s by step, as in :class:`~filtstab.chern.WeightShape`.  A
subspace V enters only through its graded incidence m_{i,s} = dim gr_s(V),
the multiplicities of the flag F_i induced on V (above rank 3 one rank per
flag, see :meth:`~filtstab.filtration.Filtration.step_mults`).
With K_{i,s} = L deg(D_i) over the lcm L of the degree denominators
(:func:`slot_degrees`, which the search's stability cone reads too) and the
weights a = n / c over their own common denominator, the degree is
sum_{i,s} K_{i,s} n_{i,s} m_{i,s} / (L c).  The incidences do not depend on
the weights, so :class:`Candidates` stores them with the candidates, and
reweighting a flag shape costs one dot product per candidate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (
    DimensionMismatchError,
    ImproperSubspaceError,
    ShapeMismatchError,
)
from .filtration import FilteredConfiguration
from .linalg import Subspace, integer_row, sorted_subspaces, span
from .surface import DivisorConfiguration

CLOSURE_CAP = 512
CLOSURE_DEPTH = 3
# random subspaces per intermediate dimension above rank 3
DEFAULT_SAMPLES = 2000
# sampled subspaces are spanned by random integer rows with entries in [-5, 5]
SAMPLE_HEIGHT = 5


class Status(Enum):
    STABLE = "stable"
    SEMISTABLE = "semistable"
    UNSTABLE = "unstable"


class Certainty(Enum):
    EXACT = "exact"
    HEURISTIC = "heuristic"


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a stability check.

    ``witness`` carries a destabilizing subspace: degree zero for a
    semistable verdict, positive degree for an unstable one.  A stable
    verdict has no witness and a strictly negative maximal observed degree.
    ``max_observed_degree`` is None only in the vacuous rank-1 case, where
    there are no proper subspaces at all.
    """

    status: Status
    certainty: Certainty
    witness: Optional[Subspace]
    witness_degree: Optional[Fraction]
    max_observed_degree: Optional[Fraction]
    observed_degrees: tuple[Fraction, ...] = ()
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.status is Status.UNSTABLE:
            if self.witness is None or self.witness_degree is None or self.witness_degree <= 0:
                raise ShapeMismatchError(
                    "an unstable verdict needs a witness of positive degree"
                )
        if self.status is Status.SEMISTABLE:
            if self.witness is None or self.witness_degree != 0:
                raise ShapeMismatchError(
                    "a semistable verdict needs a witness of degree zero"
                )
        if self.status is Status.STABLE:
            if self.max_observed_degree is not None and self.max_observed_degree >= 0:
                raise ShapeMismatchError(
                    "a stable verdict requires a negative maximal degree"
                )


def parabolic_degree(
    subspace: Subspace,
    fc: FilteredConfiguration,
    config: DivisorConfiguration,
) -> Fraction:
    """Weighted degree of a proper subspace against the configuration."""
    if subspace.ambient_dim != fc.rank:
        raise DimensionMismatchError(
            f"subspace in Q^{subspace.ambient_dim}, configuration of rank {fc.rank}"
        )
    if subspace.is_zero() or subspace.is_full():
        raise ImproperSubspaceError(
            "parabolic degree is defined for proper nonzero subspaces only"
        )
    fc.check_components(config)
    coefficients, denominator = _degree_form(fc, config)
    return Fraction(sum(map(mul, coefficients, _incidence(subspace, fc))), denominator)


def slot_degrees(
    degrees: Sequence[Fraction], step_counts: Sequence[int]
) -> tuple[tuple[int, ...], int]:
    """K_{i,s} = L deg(D_i) at every slot (i, s), and L, the lcm of the degree
    denominators, so that K . x / L = sum_{i,s} deg(D_i) x_{i,s}."""
    numerators, scale = integer_row(degrees)
    return tuple(k for k, count in zip(numerators, step_counts) for _ in range(count)), scale


def _degree_form(
    fc: FilteredConfiguration, config: DivisorConfiguration
) -> tuple[tuple[int, ...], int]:
    """K n and L c, with n / c the weights: a graded incidence's degree is
    its dot product with K n, over L c."""
    filtrations = fc.filtrations
    degrees, scale = slot_degrees(config.degrees, [len(f.steps) for f in filtrations])
    weights, common = integer_row([w for f in filtrations for w in f.weights()])
    return tuple(map(mul, degrees, weights)), scale * common


def _incidence(subspace: Subspace, fc: FilteredConfiguration) -> tuple[int, ...]:
    """dim gr_s(V) of each component's induced flag, concatenated in slot order."""
    return tuple(m for f in fc.filtrations for m in f.incidence.step_mults(subspace))


def _proper_steps(flags: Iterable[Sequence[Subspace]]) -> frozenset[Subspace]:
    return frozenset(
        space for spaces in flags for space in spaces if 0 < space.dim < space.ambient_dim
    )


def _closure(
    fc: FilteredConfiguration, depth: int, cap: int
) -> tuple[list[Subspace], bool]:
    current = set(_proper_steps(_flags(fc)))
    capped = False
    for _ in range(depth):
        fresh: set[Subspace] = set()
        ordered = sorted_subspaces(current)
        for a_index, a in enumerate(ordered):
            for b in ordered[a_index + 1:]:
                # one rank of pairings gives dim(a ∩ b), and with it
                # dim(a + b) = dim a + dim b - dim(a ∩ b).  A meet of dim a
                # or dim b means one contains the other, so meet and join
                # are a and b, members already; a zero meet or a full join
                # is not proper.  Only the rest are formed.
                meet_dim = b.intersection_dim(a)
                if meet_dim < min(a.dim, b.dim):
                    if a.dim + b.dim - meet_dim < fc.rank:
                        join = a + b
                        if join not in current:
                            fresh.add(join)
                    if meet_dim:
                        meet = a.intersect(b)
                        if meet not in current:
                            fresh.add(meet)
                if len(current) + len(fresh) >= cap:
                    capped = True
                    break
            if capped:
                break
        if capped or not fresh:
            current |= fresh
            break
        current |= fresh
    ordered = sorted_subspaces(current)
    if len(ordered) > cap:
        ordered = ordered[:cap]
        capped = True
    return ordered, capped


def _moment_point(basis: Sequence[Sequence[int]], k: int) -> list[int]:
    """sum_j k^j b_j over the rows b_j of ``basis`` (with 0^0 = 1)."""
    return [
        sum(k**j * row[c] for j, row in enumerate(basis)) for c in range(len(basis[0]))
    ]


def _generic_line(member: Subspace, steps: Iterable[Subspace]) -> Subspace:
    """A line of ``member`` lying in no flag step that does not contain ``member``.

    The moment-curve points of ``member``'s canonical basis are tried for
    k = 0, 1, ...; a step meeting ``member`` in a proper subspace holds at
    most dim - 1 of them (the roots of a nonzero polynomial of degree
    < dim), so the range below always yields a line.
    :meth:`~filtstab.linalg.Subspace.contains` tests a line against a step
    line for equality and otherwise pairs it with the step's annihilator.
    """
    if member.dim == 1:
        return member
    avoid = [step for step in steps if not step.contains(member)]
    for k in range(len(avoid) * (member.dim - 1) + 1):
        line = span([_moment_point(member.basis, k)], member.ambient_dim)
        if not any(step.contains(line) for step in avoid):
            return line
    raise AssertionError("unreachable: more roots than the degree allows")


@dataclass(frozen=True)
class Candidates:
    """Members whose candidate subspaces are evaluated for any weights on some flags.

    ``flags`` holds the step spaces of each component's flag, the only
    input the candidates depend on, so one set serves every weighting of
    those flags.  ``incidences[n]`` is the graded incidence of the
    candidate V = :meth:`subspace` (n): dim gr_s(V) of the flag F_i induced
    on V, for each component i and step s, flat in slot order.
    An ``exact`` set (:func:`_exact_candidates`) decides stability and
    builds a candidate only when asked; any other is a flag-step closure,
    and ``closure_capped`` records whether :data:`CLOSURE_CAP` truncated it.
    """

    flags: tuple[tuple[Subspace, ...], ...]
    members: tuple[Subspace, ...]
    incidences: tuple[tuple[int, ...], ...]
    exact: bool
    closure_capped: bool
    hyperplanes: int = 0

    def subspace(self, n: int) -> Subspace:
        """The candidate of ``members[n]``: a closure member itself, a generic
        line (:func:`_generic_line`) of a line member, or the annihilator of
        a generic line of a hyperplane member's annihilator, avoiding the
        annihilated steps."""
        member = self.members[n]
        if not self.exact:
            return member
        steps = _proper_steps(self.flags)
        if n < len(self.members) - self.hyperplanes:
            return _generic_line(member, steps)
        annihilated = [step.annihilator() for step in steps]
        return _generic_line(member.annihilator(), annihilated).annihilator()


def _exact_candidates(flags: tuple[tuple[Subspace, ...], ...], rank: int) -> Candidates:
    """The exact set at rank 2 or 3, its incidences read from containment.

    Line members close the flag steps under meets: the steps, the meets of
    pairs of distinct step planes and the full space.  A generic line of M
    meets a step S in itself when S contains M, else in zero, so its
    incidence is the unit vector at the first step containing M.  Hyperplane
    members (rank 3) close them under sums: the steps, the sums of pairs of
    distinct step lines and the zero space.  A generic hyperplane through N
    meets S in dim S - [S not inside N], so its incidence is the step
    multiplicities less 1 at the first step not inside N.  The steps of a
    flag grow, so each test stops at that first step.  At rank 2 the
    hyperplanes are the lines.  Each half is in
    :func:`~filtstab.linalg.sorted_subspaces` order; the last
    ``hyperplanes`` members are the hyperplane half.
    """
    steps = _proper_steps(flags)
    planes = [step for step in steps if step.dim == 2]
    lines = sorted_subspaces(
        steps | {a & b for a, b in combinations(planes, 2)} | {Subspace.full(rank)}
    )
    step_lines = [step for step in steps if step.dim == 1]
    hyperplanes = [] if rank < 3 else sorted_subspaces(
        steps | {a + b for a, b in combinations(step_lines, 2)} | {Subspace.zero(rank)}
    )
    mults = [
        [v.dim - (s and spaces[s - 1].dim) for s, v in enumerate(spaces)] for spaces in flags
    ]
    rows = []
    for m in lines:
        row = []
        for spaces in flags:
            first = next(s for s, v in enumerate(spaces) if v.contains(m))
            row += [int(s == first) for s in range(len(spaces))]
        rows.append(tuple(row))
    for n in hyperplanes:
        row = []
        for spaces, ks in zip(flags, mults):
            first = next(s for s, v in enumerate(spaces) if not n.contains(v))
            row += [k - (s == first) for s, k in enumerate(ks)]
        rows.append(tuple(row))
    members = tuple(lines + hyperplanes)
    return Candidates(flags, members, tuple(rows), True, False, len(hyperplanes))


def candidates_for(fc: FilteredConfiguration) -> Candidates:
    """The candidate set that the rank of ``fc`` calls for.

    The rank alone picks the method.  Rank 1 has no proper nonzero
    subspace: an empty exact set, and stability holds vacuously.  Ranks 2
    and 3: the exact set of :func:`_exact_candidates`.  Above rank 3, where
    no exact method is implemented: the proper flag steps closed under
    pairwise intersection and sum, :data:`CLOSURE_DEPTH` rounds at most,
    truncated at :data:`CLOSURE_CAP` members (``closure_capped``).  Closure
    members are kept in :func:`~filtstab.linalg.sorted_subspaces` order,
    smallest dimension first, so a cap below the number of proper flag
    steps drops flag steps too.  The set depends on the flags only and can
    be passed to :func:`check_stability` for every weighting of them.
    """
    flags = _flags(fc)
    if fc.rank == 1:
        return Candidates(flags, (), (), True, False)
    if fc.rank <= 3:
        return _exact_candidates(flags, fc.rank)
    members, capped = _closure(fc, CLOSURE_DEPTH, CLOSURE_CAP)
    incidences = tuple(_incidence(v, fc) for v in members)
    return Candidates(flags, tuple(members), incidences, False, capped)


def _flags(fc: FilteredConfiguration) -> tuple[tuple[Subspace, ...], ...]:
    return tuple(f.spaces() for f in fc.filtrations)


def _random_rows(
    rng: random.Random, rank: int, dim: int, height: int
) -> tuple[list[list[int]], Subspace]:
    """``dim`` random integer rows in Q^rank with entries in [-height, height],
    drawn row by row until they are independent, and their span."""
    while True:
        rows = [
            [rng.randint(-height, height) for _ in range(rank)] for _ in range(dim)
        ]
        spanned = span(rows, rank)
        if spanned.dim == dim:
            return rows, spanned


def _verdict_from(
    subspace: Callable[[int], Subspace],
    numerators: Sequence[int],
    denominator: int,
    certainty: Certainty,
    metadata: dict,
) -> StabilityVerdict:
    """The verdict from the degrees ``numerators[n] / denominator`` of the candidates.

    A stable verdict builds no candidate.  Otherwise ``subspace(n)`` builds
    each candidate of maximal degree, and the witness is the first of them
    in :func:`~filtstab.linalg.sorted_subspaces` order.
    """
    best_numerator = max(numerators)
    best_degree = Fraction(best_numerator, denominator)
    observed = tuple(sorted(Fraction(n, denominator) for n in set(numerators)))
    if best_degree < 0:
        return StabilityVerdict(
            Status.STABLE, certainty, None, None, best_degree, observed, metadata
        )
    best = sorted_subspaces(
        subspace(n) for n, numerator in enumerate(numerators) if numerator == best_numerator
    )[0]
    # A degree-zero witness exactly certifies the failure of strict
    # stability, so the verdict is exact even when found by sampling.
    status = Status.UNSTABLE if best_degree > 0 else Status.SEMISTABLE
    return StabilityVerdict(
        status, Certainty.EXACT, best, best_degree, best_degree, observed, metadata
    )


def check_stability(
    fc: FilteredConfiguration,
    config: DivisorConfiguration,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    candidates: Optional[Candidates] = None,
) -> StabilityVerdict:
    """Decide stability of a flag configuration.

    The rank alone picks the method, through :func:`candidates_for`.  Rank 1
    is vacuously stable (verdict metadata mode ``"vacuous"``).  Ranks 2 and
    3 are decided exactly and without sampling, from the stored incidences
    of finitely many generic lines and (at rank 3) hyperplanes (mode
    ``"exact2"`` or ``"exact3"``); ``samples`` and ``seed`` are ignored
    there, and a subspace is built only for a witness, among the members of
    maximal degree.  Above rank 3 the check explores the flag-step closure
    (:data:`CLOSURE_DEPTH` rounds) plus ``samples`` seeded random subspaces
    of every intermediate dimension (mode ``"heuristic"``); ``samples=0``
    explores the closure only.  Destabilizing witnesses are exact at every
    rank; a stable verdict above rank 3 is HEURISTIC.

    ``candidates`` passes the set of :func:`candidates_for` prebuilt, for
    instance once per flag shape; with its stored graded incidences each
    candidate costs one dot product.  It must have been built from the same
    flags, component by component, or :class:`ShapeMismatchError` is
    raised.
    """
    fc.check_degrees(config)
    if samples < 0:
        raise ValueError("samples must be non-negative")
    if candidates is None:
        candidates = candidates_for(fc)
    elif candidates.flags != _flags(fc):
        raise ShapeMismatchError("candidates were built for other flags")

    incidences = list(candidates.incidences)
    if candidates.exact:
        if not incidences:
            # rank 1: no proper nonzero subspaces; the condition holds vacuously
            return StabilityVerdict(
                Status.STABLE, Certainty.EXACT, None, None, None, (),
                {"mode": "vacuous"},
            )
        metadata = {"mode": f"exact{fc.rank}", "explored": len(incidences)}
        subspace = candidates.subspace
    else:
        explored = list(candidates.members)
        rng = random.Random(seed)
        seen = set(explored)
        for dim in range(1, fc.rank):
            for _ in range(samples):
                _, sample = _random_rows(rng, fc.rank, dim, SAMPLE_HEIGHT)
                if sample not in seen:
                    seen.add(sample)
                    explored.append(sample)
        if not explored:
            explored.append(_generic_line(Subspace.full(fc.rank), ()))
        incidences += [_incidence(v, fc) for v in explored[len(incidences):]]
        metadata = {
            "mode": "heuristic",
            "explored": len(explored),
            "closure_size": len(candidates.members),
            "closure_capped": candidates.closure_capped,
            "samples": samples,
            "seed": seed,
            "sample_height": SAMPLE_HEIGHT,
        }
        subspace = explored.__getitem__
    coefficients, denominator = _degree_form(fc, config)
    numerators = [sum(map(mul, coefficients, x)) for x in incidences]
    certainty = Certainty.EXACT if candidates.exact else Certainty.HEURISTIC
    return _verdict_from(subspace, numerators, denominator, certainty, metadata)
