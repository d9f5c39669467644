"""Chern numbers of filtered data on a divisor configuration.

Two routes are implemented and cross-checked against each other:

* the table-driven route (:func:`c2_number`) consumes abstract graded
  dimension tables, one per component and one per crossing point, and
  assembles c2 from c1^2, the self-intersection terms and the local
  crossing contributions;
* the pairing route applies only when the tables come from a single
  configuration of flags on the trivial system, where c2 collapses to
  -1/2 * sum_{i,j} <F_i, F_j> D_i.D_j.  With the flags fixed this is one
  quadratic form in the step weights with integer coefficients
  (:func:`assemble_quadratics`); :func:`c2_trivial` evaluates it at a
  configuration's own weights, and the ``upsilon`` search builds it once
  per flag shape.  The squared norm reads only the shape; both forms, in the
  shape's balance coordinates, are :meth:`QuadraticPair.balanced_forms`.

Both routes must agree exactly on balanced configurations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import (
    InvariantError,
    MissingCrossingTableError,
    ShapeMismatchError,
    UnbalancedFiltrationError,
)
from .filtration import (
    FilteredConfiguration,
    GrSpectrum,
    joint_multiplicity_table,
    joint_step_multiplicities,
)
from .linalg import as_fraction, integer_row
from .surface import DivisorConfiguration, crossing_points

IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CrossingTable:
    """Joint graded dimensions at one crossing point of components (i, j).

    Entries are (weight on the i side, weight on the j side, multiplicity),
    with i < j fixing the orientation; multiplicities sum to the rank.
    """

    pair: tuple[int, int]
    entries: tuple[tuple[Fraction, Fraction, int], ...]

    def __post_init__(self):
        i, j = self.pair
        object.__setattr__(self, "pair", (int(i), int(j)))
        object.__setattr__(
            self,
            "entries",
            tuple((as_fraction(a), as_fraction(b), int(m)) for a, b, m in self.entries),
        )
        if not self.pair[0] < self.pair[1]:
            raise InvariantError("crossing pair must be ordered i < j")
        if any(m < 1 for _, _, m in self.entries):
            raise InvariantError("crossing multiplicities must be positive")


@dataclass(frozen=True)
class FilteredSystemData:
    """Abstract graded dimension tables of a filtered system of given rank."""

    rank: int
    component_tables: tuple[GrSpectrum, ...]
    crossing_tables: tuple[CrossingTable, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "component_tables", tuple(self.component_tables)
        )
        object.__setattr__(self, "crossing_tables", tuple(self.crossing_tables))
        if self.rank < 1:
            raise InvariantError("rank must be positive")
        for index, table in enumerate(self.component_tables):
            check_table_rank(table, self.rank, f"component table {index}")
        for table in self.crossing_tables:
            check_table_rank(table, self.rank, f"crossing table for pair {table.pair}")


def check_table_rank(table: GrSpectrum | CrossingTable, rank: int, label: str) -> None:
    """Raise :class:`InvariantError` unless the multiplicities of ``table`` sum to ``rank``."""
    total = sum(entry[-1] for entry in table.entries)
    if total != rank:
        raise InvariantError(f"{label} sums to {total}, expected rank {rank}")


def check_crossing_sides(table: CrossingTable, components: Sequence[GrSpectrum]) -> None:
    """Raise :class:`InvariantError` unless both sides of ``table`` match their components.

    A crossing table at a point of D_i ∩ D_j grades the fiber there jointly,
    so its multiplicities summed weight by weight on the i side give
    component table i, and on the j side component table j.
    """
    for side, index in enumerate(table.pair):
        sums: Counter[Fraction] = Counter()
        for entry in table.entries:
            sums[entry[side]] += entry[2]
        if tuple(sorted(sums.items(), reverse=True)) != components[index].entries:
            raise InvariantError(f"side {index} does not add up to component table {index}")


@dataclass(frozen=True)
class ChernReport:
    """First and second Chern data of a filtered system on a configuration."""

    c1_coefficients: tuple[Fraction, ...]
    c1_squared: Fraction
    c2: Fraction


def _check_component_count(data: FilteredSystemData, config: DivisorConfiguration) -> None:
    if len(data.component_tables) != config.n_components:
        raise ShapeMismatchError(
            f"{len(data.component_tables)} component tables for "
            f"{config.n_components} components"
        )


def c1_cycle(
    data: FilteredSystemData, config: DivisorConfiguration
) -> tuple[Fraction, ...]:
    """Coefficients of the first Chern cycle, one per component.

    The coefficient of D_i is minus the weight moment of its graded table;
    it vanishes for every component exactly when each table is balanced.
    """
    _check_component_count(data, config)
    return tuple(-table.moment() for table in data.component_tables)


def c2_local(entries: Iterable[Sequence]) -> Fraction:
    """Local second-Chern contribution of one crossing point.

    Minus the weighted sum of the joint graded dimensions:
    -sum_{a,b} a*b*dim(gr_a gr_b).  Zero whenever either side puts all of
    its weight at 0.  Summed in integers over each side's common denominator
    (:func:`~filtstab.linalg.integer_row`).
    """
    entries = tuple(entries)
    a, a_scale = integer_row([entry[0] for entry in entries])
    b, b_scale = integer_row([entry[1] for entry in entries])
    total = sum(x * y * int(entry[2]) for x, y, entry in zip(a, b, entries))
    return Fraction(-total, a_scale * b_scale)


def c2_number(data: FilteredSystemData, config: DivisorConfiguration) -> ChernReport:
    """Assemble the Chern report from graded dimension tables.

    c2 combines half the square of c1, self-intersection terms weighted by
    the second moments of the component tables, and the local contributions
    at the crossing points.  The crossing tables must cover exactly the
    crossings of the configuration, point by point.  The local contributions
    enter with the sign that makes this assembly agree with the pairing form
    -1/2 sum <F_i,F_j> D_i.D_j on balanced flag configurations (c2_local
    already carries a minus sign).
    """
    _check_component_count(data, config)
    expected = dict(crossing_points(config))
    seen: dict[tuple[int, int], int] = {}
    for table in data.crossing_tables:
        if table.pair not in expected:
            raise ShapeMismatchError(
                f"crossing table given for non-crossing pair {table.pair}"
            )
        seen[table.pair] = seen.get(table.pair, 0) + 1
    for pair, count in expected.items():
        have = seen.get(pair, 0)
        if have != count:
            raise MissingCrossingTableError(
                f"pair {pair} meets in {count} points but has {have} tables"
            )

    coefficients = c1_cycle(data, config)
    c1_sq = config.pairing(coefficients)
    # each term summed in integers over its common denominator
    moments, moment_scale = integer_row([t.second_moment() for t in data.component_tables])
    self_term = Fraction(
        sum(m * config.intersection[i][i] for i, m in enumerate(moments)), moment_scale
    )
    contributions, local_scale = integer_row(
        [c2_local(t.entries) for t in data.crossing_tables]
    )
    crossing_term = Fraction(sum(contributions), local_scale)
    c2 = Fraction(1, 2) * c1_sq - Fraction(1, 2) * self_term + crossing_term
    return ChernReport(coefficients, c1_sq, c2)


def derive_tables(
    fc: FilteredConfiguration, config: DivisorConfiguration
) -> FilteredSystemData:
    """Graded dimension tables of a flag configuration on the trivial system.

    Component tables are the graded spectra of the flags; the crossing table
    of a pair is its joint multiplicity table, repeated once per intersection
    point (the trivial system has the same fiber everywhere).
    """
    fc.check_components(config)
    component_tables = tuple(f.gr_spectrum() for f in fc.filtrations)
    tables: list[CrossingTable] = []
    for (i, j), count in crossing_points(config):
        entries = joint_multiplicity_table(fc.filtrations[i], fc.filtrations[j])
        for _ in range(count):
            tables.append(CrossingTable((i, j), entries))
    return FilteredSystemData(fc.rank, component_tables, tuple(tables))


@dataclass(frozen=True)
class WeightShape:
    """Index bookkeeping for flat weight vectors over a flag configuration."""

    step_counts: tuple[int, ...]
    mults: tuple[tuple[int, ...], ...]
    degrees: tuple[Fraction, ...]
    seed_weights: tuple[Fraction, ...]

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """The first slot of each component."""
        return tuple(accumulate(self.step_counts[:-1], initial=0))

    @cached_property
    def size(self) -> int:
        return sum(self.step_counts)

    @cached_property
    def free_slots(self) -> tuple[tuple[int, int, int, int], ...]:
        """The balance coordinates: (first, slot, m0, m) per step s >= 1, in slot order.

        first and slot are the slots of steps 0 and s, m0 and m their
        multiplicities; a balanced w is :meth:`from_balance` of :meth:`to_balance` (w).
        """
        return tuple(
            (offset, offset + s, mults[0], m)
            for offset, mults in zip(self.offsets, self.mults)
            for s, m in enumerate(mults[1:], 1)
        )

    def slot(self, component: int, step: int) -> int:
        return self.offsets[component] + step

    def from_balance(self, x: Sequence) -> tuple:
        """The balanced weights sum_j x_j (m0 e_slot - m e_first) over the
        :attr:`free_slots`: the one map from balance coordinates to weights,
        on ints, Fractions and floats alike."""
        weights = [0] * self.size
        for value, (first, slot, m0, m) in zip(x, self.free_slots):
            weights[slot] += m0 * value
            weights[first] -= m * value
        return tuple(weights)

    def to_balance(self, weights: Sequence) -> tuple:
        """The balance coordinates x_j = w[slot] / m0 over the :attr:`free_slots`
        of balanced ``weights``, Fractions or floats: the inverse of
        :meth:`from_balance` on the balance subspace."""
        return tuple(weights[slot] / m0 for _, slot, m0, _ in self.free_slots)

    def norm_value(self, weights: Sequence[Fraction]) -> Fraction:
        """The squared norm sum mult * deg * w^2 over the slots, summed in
        integers over the common denominator of the weights and over L."""
        n, common = integer_row(weights)
        b, scale = self.norm_diagonal()
        return Fraction(sum(y * x * x for x, y in zip(n, b)), scale * common * common)

    def norm_diagonal(self) -> tuple[tuple[int, ...], int]:
        """The integers mult * K_i per slot, with K_i = L deg(D_i), and L, the lcm
        of the degree denominators: the squared norm is diagonal in the weights."""
        degrees, scale = integer_row(self.degrees)
        return tuple(m * k for mults, k in zip(self.mults, degrees) for m in mults), scale


@dataclass(frozen=True)
class QuadraticPair:
    """Exact quadratic forms of c2 and the squared norm on one flag shape.

    For weights w on the shape's slots, c2 = -1/2 * sum k * w_p * w_q over
    the ``terms`` (p, q, k), which are sorted, have p <= q and a nonzero
    integer k, and name each slot pair at most once, so two pairs are equal
    exactly when their forms are.  The admissible w satisfy one balance
    constraint per component, sum_s m_s w_s = 0 over the step
    multiplicities m_s recorded in the shape.
    """

    shape: WeightShape
    terms: tuple[tuple[int, int, int], ...]

    def c2_value(self, weights: Sequence[Fraction]) -> Fraction:
        """c2 at ``weights``, summed in integers over their common denominator."""
        n, common = integer_row(weights)
        total = sum(k * n[p] * n[q] for p, q, k in self.terms)
        return Fraction(-total, 2 * common * common)

    def balanced_forms(self) -> tuple[IntMatrix, IntMatrix, int]:
        """Integer Gram matrices C and N, and s > 0, in the balance coordinates x
        of :meth:`WeightShape.from_balance`: x^T C x = 4 c2 and x^T N x = s ||F||^2.

        Column j is w = from_balance(e_j), so C_ab sums -k (u_p v_q + u_q v_p)
        over the terms (p, q, k) at u, v the columns a, b, and N_ab sums
        mult * K u_p v_p over the slots, with s = L (:meth:`~WeightShape.norm_diagonal`).
        """
        shape = self.shape
        d = len(shape.free_slots)
        columns = [shape.from_balance([int(i == j) for i in range(d)]) for j in range(d)]
        diagonal, scale = shape.norm_diagonal()
        c = tuple(tuple(-sum(k * (u[p] * v[q] + u[q] * v[p]) for p, q, k in self.terms)
                        for v in columns) for u in columns)
        n = tuple(tuple(sum(y * a * b for y, a, b in zip(diagonal, u, v)) for v in columns)
                  for u in columns)
        return c, n, scale


def shape_of(fc: FilteredConfiguration, config: DivisorConfiguration) -> WeightShape:
    fc.check_components(config)
    step_counts = tuple(len(f.steps) for f in fc.filtrations)
    mults = tuple(f.mults for f in fc.filtrations)
    seeds = tuple(w for f in fc.filtrations for w in f.weights())
    return WeightShape(step_counts, mults, tuple(config.degrees), seeds)


def assemble_quadratics(
    fc_shape: FilteredConfiguration, config: DivisorConfiguration
) -> QuadraticPair:
    """Build the exact (c2, norm) pair for a fixed flag shape.

    Slot (i, s) is step s of the i-th flag.  A self-intersection D_i.D_i
    gives the terms k = mult_{i,s} * D_i.D_i on ((i,s), (i,s)), since a flag
    meets itself in its step multiplicities.  A pair i < j with D_i.D_j != 0
    gives k = 2 * m^{ij}_{st} * D_i.D_j on ((i,s), (j,t)), where m^{ij}_{st}
    is the joint graded multiplicity of the two steps, read from one
    :func:`~filtstab.filtration.joint_step_multiplicities` call.  Weights of
    ``fc_shape`` only fix the shape.
    """
    shape = shape_of(fc_shape, config)
    flags = fc_shape.filtrations
    terms = []
    for i, row in enumerate(config.intersection):
        if row[i]:
            terms += [(shape.slot(i, s), shape.slot(i, s), m * row[i])
                      for s, m in enumerate(shape.mults[i])]
        for j in range(i + 1, len(row)):
            if row[j]:
                joint = joint_step_multiplicities(flags[i], flags[j])
                terms += [
                    (shape.slot(i, s), shape.slot(j, t), 2 * m * row[j])
                    for s, mults in enumerate(joint)
                    for t, m in enumerate(mults)
                    if m
                ]
    return QuadraticPair(shape, tuple(sorted(terms)))


def c2_trivial(fc: FilteredConfiguration, config: DivisorConfiguration) -> Fraction:
    """Second Chern number of a balanced flag configuration, via the pairing.

    The form of :func:`assemble_quadratics` at the configuration's own
    weights.  Equals ``c2_number(derive_tables(fc, config), config).c2``
    exactly; the equality of the two routes is the package's central
    cross-check.
    """
    fc.check_components(config)
    for index, f in enumerate(fc.filtrations):
        if not f.is_balanced():
            raise UnbalancedFiltrationError(
                f"component {index} carries an unbalanced filtration"
            )
    qp = assemble_quadratics(fc, config)
    return qp.c2_value(qp.shape.seed_weights)


def norm_sq(fc: FilteredConfiguration, config: DivisorConfiguration) -> Fraction:
    """Squared norm of a flag configuration: sum of alpha^2 * mult * degree.

    Read from the shape alone (:meth:`WeightShape.norm_value`), with no
    elimination.  Non-negative; zero exactly when every component carrying
    any weight has degree zero or no weight at all.  A nontrivial
    filtration on a degree-zero component is rejected, since it would
    contribute data the norm cannot see.
    """
    fc.check_degrees(config)
    shape = shape_of(fc, config)
    return shape.norm_value(shape.seed_weights)
