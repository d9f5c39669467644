"""Weighted flags of rational subspaces and their graded calculus.

A filtration is a decreasing family F_a of subspaces of Q^r indexed by
rational weights, with finitely many jumps.  It is stored as its jump data:
a list of (weight, space) steps with strictly decreasing weights and strictly
increasing spaces, the last space being all of Q^r.  The associated graded
piece gr_a = F_a / F_{>a} is nonzero exactly at the step weights.

Everything a subspace V sees of a flag is its graded incidence, the
multiplicities m_s = dim gr_s(V) of the flag induced on V, one per step s
and zeros kept.  :meth:`Filtration.step_mults` reads them from one rank
(:class:`~filtstab.linalg.ChainIncidence`), from whichever side has fewer
rows.  Up to half the rank, V's basis is paired with integer functionals
adapted to the flag; above it, V's normals are paired with a basis adapted
to the flag.  The rank grows one column at a time and stops once it is
full.  The functionals are assembled once per flag from the normals of its
steps, which each subspace computes once, and the adapted basis from the
steps' canonical rows, on its first use; neither needs an elimination, so a
reweighted copy of a flag assembles them again cheaply.
The induced graded dimensions are the nonzero entries, and the joint step
multiplicities of two flags are the graded incidences of one flag's steps
in the other, differenced along the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul, sub
from typing import Sequence

from .errors import (
    DegenerateDegreeError,
    DimensionMismatchError,
    InvariantError,
    ShapeMismatchError,
)
from .linalg import ChainIncidence, Subspace, as_fraction, integer_row, rational_to_string
from .surface import DivisorConfiguration


@dataclass(frozen=True)
class GrSpectrum:
    """Weights and multiplicities of the graded pieces of a filtration."""

    entries: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        entries = tuple((as_fraction(w), int(m)) for w, m in self.entries)
        object.__setattr__(self, "entries", entries)
        for (w, m), (w_next, _) in zip(entries, entries[1:]):
            if w <= w_next:
                raise InvariantError("spectrum weights must strictly decrease")
        if any(m < 1 for _, m in entries):
            raise InvariantError("multiplicities must be positive")

    def moment(self) -> Fraction:
        """Sum of weight * multiplicity; zero exactly when balanced.

        Summed in integers over the weights' common denominator
        (:func:`~filtstab.linalg.integer_row`), as are the second moments.
        """
        weights, scale = integer_row(self.weights())
        return Fraction(sum(w * m for w, (_, m) in zip(weights, self.entries)), scale)

    def second_moment(self) -> Fraction:
        weights, scale = integer_row(self.weights())
        total = sum(w * w * m for w, (_, m) in zip(weights, self.entries))
        return Fraction(total, scale * scale)

    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for w, _ in self.entries)


@dataclass(frozen=True)
class Filtration:
    """A weighted flag in Q^r: strictly decreasing weights on a strictly
    increasing chain of subspaces ending at the full space."""

    ambient_dim: int
    steps: tuple[tuple[Fraction, Subspace], ...]

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise InvariantError("rank must be positive")
        steps = tuple((as_fraction(w), space) for w, space in self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise InvariantError("a filtration needs at least one step")
        if len(steps) > self.ambient_dim:
            raise InvariantError("more steps than the rank allows")
        previous: Subspace | None = None
        for weight, space in steps:
            if space.ambient_dim != self.ambient_dim:
                raise DimensionMismatchError(
                    f"step space lives in Q^{space.ambient_dim}, "
                    f"filtration in Q^{self.ambient_dim}"
                )
            if previous is not None:
                if not (space.dim > previous.dim and space.contains(previous)):
                    raise InvariantError("step spaces must strictly increase")
            previous = space
        for (w, _), (w_next, _) in zip(steps, steps[1:]):
            if w <= w_next:
                raise InvariantError("step weights must strictly decrease")
        if steps[0][1].is_zero():
            raise InvariantError("first step space must be nonzero")
        if not steps[-1][1].is_full():
            raise InvariantError("last step space must be the full space")

    @classmethod
    def trivial(cls, ambient_dim: int, weight: Fraction | int = 0) -> "Filtration":
        """Single-step filtration putting the whole space at one weight."""
        return cls(ambient_dim, ((weight, Subspace.full(ambient_dim)),))

    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for w, _ in self.steps)

    def spaces(self) -> tuple[Subspace, ...]:
        return tuple(s for _, s in self.steps)

    @cached_property
    def mults(self) -> tuple[int, ...]:
        """dim gr_s of every step s, the first differences of the step dimensions."""
        return _first_differences(tuple(space.dim for space in self.spaces()))

    def gr_spectrum(self) -> GrSpectrum:
        return GrSpectrum(tuple(zip(self.weights(), self.mults)))

    def scale(self, factor: Fraction | int) -> "Filtration":
        """Multiply every weight by a positive factor; spaces unchanged."""
        factor = Fraction(factor)
        if factor <= 0:
            raise InvariantError("scaling factor must be positive")
        return self.with_weights(tuple(factor * w for w in self.weights()))

    def is_balanced(self) -> bool:
        return sum(map(mul, self.weights(), self.mults)) == 0

    def balance_shift(self) -> "Filtration":
        """Shift all weights by a constant so the weight moment vanishes.

        This is the effect of twisting by a rank-one filtered system; the
        flag itself is untouched.
        """
        if self.is_balanced():
            return self
        return self.with_weights(balanced(self.weights(), self.mults))

    def with_weights(self, weights: Sequence[Fraction]) -> "Filtration":
        """Same flag, new weights (must still strictly decrease)."""
        if len(weights) != len(self.steps):
            raise DimensionMismatchError(
                f"{len(weights)} weights for {len(self.steps)} steps"
            )
        return Filtration(self.ambient_dim, tuple(zip(weights, self.spaces())))

    @cached_property
    def incidence(self) -> ChainIncidence:
        """Integer functionals and a basis adapted to this flag; independent of the weights."""
        return ChainIncidence.of(self.spaces())

    def step_mults(self, subspace: Subspace) -> tuple[int, ...]:
        """dim gr_s(V) of the flag induced on V, for every step s (one rank).

        The first differences of dim(V ∩ F_s); zeros are kept, and the
        entries sum to dim V.
        """
        return self.incidence.step_mults(subspace)

    def induced_degree_vector(self, subspace: Subspace) -> tuple[tuple[Fraction, int], ...]:
        """Graded dimensions of the filtration induced on a subspace V.

        The nonzero (weight, multiplicity) pairs of :meth:`step_mults`; the
        multiplicities sum to dim V.
        """
        return tuple(
            (weight, m) for weight, m in zip(self.weights(), self.step_mults(subspace)) if m
        )

    @property
    def is_trivial(self) -> bool:
        """True for the single-step filtration at weight zero."""
        return len(self.steps) == 1 and self.steps[0][0] == 0

    def sort_key(self) -> tuple:
        return tuple((w, s.rows) for w, s in self.steps)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{rational_to_string(w)}: {s.dim}d" for w, s in self.steps
        )
        return f"Filtration(Q^{self.ambient_dim}; {body})"


def _first_differences(dims: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(sub, dims, (0,) + dims[:-1]))


def balanced(weights: Sequence[Fraction], mults: Sequence[int]) -> tuple[Fraction, ...]:
    """The balance rule: ``weights`` shifted by one constant so that sum_s m_s * w_s = 0.

    In integers over :func:`~filtstab.linalg.integer_row`, w_s = n_s / L:
    with M = sum_s m_s, the shifted weight is (n_s M - sum_t n_t m_t) / (L M).
    """
    numerators, scale = integer_row(weights)
    total = sum(mults)
    moment = sum(map(mul, numerators, mults))
    return tuple(Fraction(n * total - moment, scale * total) for n in numerators)


def _check_common_ambient(f: Filtration, g: Filtration) -> None:
    if f.ambient_dim != g.ambient_dim:
        raise DimensionMismatchError(
            f"filtrations in Q^{f.ambient_dim} and Q^{g.ambient_dim}"
        )


def joint_step_multiplicities(f: Filtration, g: Filtration) -> tuple[tuple[int, ...], ...]:
    """Matrix of joint graded dimensions indexed by (step of f, step of g).

    Entry (s, t) is dim gr^F gr^G at the weight pair of those steps.  It
    depends only on the two flags, not on the weights, and the entries of
    the matrix sum to the rank.
    """
    _check_common_ambient(f, g)
    # rows[s][t] = dim gr^G_t(F_s); the last step of f is the whole space
    rows = [g.step_mults(fs) for fs in f.spaces()[:-1]]
    rows.append(_first_differences(tuple(gs.dim for gs in g.spaces())))
    return tuple(
        tuple(map(sub, row, below))
        for row, below in zip(rows, [(0,) * len(g.steps)] + rows[:-1])
    )


def joint_multiplicity_table(
    f: Filtration, g: Filtration
) -> tuple[tuple[Fraction, Fraction, int], ...]:
    """Nonzero (weight of f, weight of g, multiplicity) triples, in step order."""
    matrix = joint_step_multiplicities(f, g)
    fw, gw = f.weights(), g.weights()
    return tuple(
        (fw[s], gw[t], matrix[s][t])
        for s in range(len(fw))
        for t in range(len(gw))
        if matrix[s][t] != 0
    )


@dataclass(frozen=True)
class FilteredConfiguration:
    """One filtration per divisor component, all of a common rank."""

    rank: int
    filtrations: tuple[Filtration, ...]

    def __post_init__(self):
        object.__setattr__(self, "filtrations", tuple(self.filtrations))
        if self.rank < 1:
            raise InvariantError("rank must be positive")
        if not self.filtrations:
            raise InvariantError("a configuration needs at least one component")
        for filt in self.filtrations:
            if filt.ambient_dim != self.rank:
                raise DimensionMismatchError(
                    f"component filtration has rank {filt.ambient_dim}, expected {self.rank}"
                )

    def check_components(self, config: DivisorConfiguration) -> None:
        """Raise :class:`ShapeMismatchError` unless there is one filtration per component."""
        if len(self.filtrations) != config.n_components:
            raise ShapeMismatchError(
                f"{len(self.filtrations)} filtrations for {config.n_components} components"
            )

    def check_degrees(self, config: DivisorConfiguration) -> None:
        """:meth:`check_components`, then reject a nontrivial flag on a degree-0
        component, which neither the parabolic degree nor the norm can see."""
        self.check_components(config)
        for index, (filt, degree) in enumerate(zip(self.filtrations, config.degrees)):
            if degree == 0 and not filt.is_trivial:
                raise DegenerateDegreeError(
                    f"component {config.names[index]!r} has degree 0 but carries "
                    "a nontrivial filtration",
                    index,
                )

    def is_balanced(self) -> bool:
        return all(f.is_balanced() for f in self.filtrations)

    def balance_shift(self) -> "FilteredConfiguration":
        return FilteredConfiguration(
            self.rank, tuple(f.balance_shift() for f in self.filtrations)
        )

    def scale(self, factor: Fraction | int) -> "FilteredConfiguration":
        return FilteredConfiguration(
            self.rank, tuple(f.scale(factor) for f in self.filtrations)
        )

    @property
    def is_trivial(self) -> bool:
        return all(f.is_trivial for f in self.filtrations)

    def sort_key(self) -> tuple:
        return tuple(f.sort_key() for f in self.filtrations)
