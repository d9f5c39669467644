"""Divisor configurations on a surface and plane-arrangement blow-ups.

A :class:`DivisorConfiguration` records the combinatorial data this package
needs about a normal-crossings divisor: component names, degrees against a
fixed polarization, and the symmetric matrix M of intersection numbers,
whose one bilinear form ``form`` serves ``pairing`` and ``hodge_witness``.
Non-transverse plane arrangements are not accepted directly; resolve their
multiple points first with :func:`blow_up`, which, like the arrangement's
own check, reads incidences only from ``PlaneArrangement.points_on``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import mul
from typing import Optional, Sequence

from .errors import CoverageError, InvariantError
from .linalg import as_fraction, integer_row, rational_to_string, span


@dataclass(frozen=True)
class DivisorConfiguration:
    """Named divisor components with degrees and intersection numbers."""

    names: tuple[str, ...]
    degrees: tuple[Fraction, ...]
    intersection: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        object.__setattr__(
            self, "degrees", tuple(as_fraction(d) for d in self.degrees)
        )
        object.__setattr__(
            self,
            "intersection",
            tuple(tuple(int(x) for x in row) for row in self.intersection),
        )
        self.check()

    @property
    def n_components(self) -> int:
        return len(self.names)

    def check(self) -> None:
        """Raise :class:`InvariantError` naming the first violated invariant."""
        n = len(self.names)
        if n == 0:
            raise InvariantError("configuration has no components")
        if len(set(self.names)) != n:
            raise InvariantError("duplicate component names")
        if len(self.degrees) != n:
            raise InvariantError(
                f"{len(self.degrees)} degrees for {n} components"
            )
        if len(self.intersection) != n or any(
            len(row) != n for row in self.intersection
        ):
            raise InvariantError("intersection matrix is not square of size "
                                 f"{n}")
        for i in range(n):
            for j in range(n):
                if self.intersection[i][j] != self.intersection[j][i]:
                    raise InvariantError(
                        f"intersection matrix is asymmetric at ({i},{j})"
                    )
                if i != j and self.intersection[i][j] < 0:
                    raise InvariantError(
                        f"negative off-diagonal intersection at ({i},{j}); "
                        "distinct components of a normal-crossings divisor "
                        "meet in a non-negative number of points"
                    )
        for i, degree in enumerate(self.degrees):
            if degree < 0:
                raise InvariantError(f"component {self.names[i]!r} has negative degree")

    def form(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        """Intersection number u^T M v of the cycles sum_i u_i D_i and sum_j v_j D_j,
        summed in integers over the common denominators of u and v."""
        (us, u_scale), (vs, v_scale) = integer_row(u), integer_row(v)
        total = sum(x * sum(map(mul, row, vs)) for x, row in zip(us, self.intersection) if x)
        return Fraction(total, u_scale * v_scale)

    def pairing(self, coefficients: Sequence[Fraction]) -> Fraction:
        """Self-intersection number of the cycle sum_i c_i * D_i."""
        coeffs = [as_fraction(c) for c in coefficients]
        if len(coeffs) != self.n_components:
            raise InvariantError(
                f"{len(coeffs)} coefficients for {self.n_components} components"
            )
        return self.form(coeffs, coeffs)

    def hodge_witness(self) -> Optional[tuple[int, ...]]:
        """An integer y with d . y = 0 and y^T M y > 0, or None when there is none.

        d holds the degrees and M the intersection matrix.  The degrees are
        intersections with an ample class, so by the Hodge index theorem M is
        negative semi-definite where d . y = 0, and such a y proves that no
        surface carries these numbers.  One symmetric elimination (LDL^T) of
        M over the normals of span([d]), in ``Fraction``: a positive pivot v
        is the witness, a negative one is projected out of the vectors left,
        and a zero pivot v pairing to b != 0 with some u left gives the
        witness v + t u, t = b / (1 + |u^T M u|), where 2 t b + t^2 u^T M u > 0.
        The witness is returned primitive, with a positive leading entry.
        """
        n = self.n_components
        vectors = [v for _, v in span([self.degrees], n).normals()]
        while vectors:
            v = vectors.pop(0)
            pivot = self.form(v, v)
            if pivot > 0:
                return span([v], n).basis[0]
            if pivot < 0:
                vectors = [
                    [x - Fraction(self.form(u, v), pivot) * y for x, y in zip(u, v)]
                    for u in vectors
                ]
                continue
            u = next((u for u in vectors if self.form(u, v)), None)
            if u is not None:
                t = Fraction(self.form(u, v), 1 + abs(self.form(u, u)))
                return span([[x + t * y for x, y in zip(v, u)]], n).basis[0]
        return None

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}(deg {rational_to_string(d)})"
            for name, d in zip(self.names, self.degrees)
        )
        return f"DivisorConfiguration({parts})"


def crossing_points(
    config: DivisorConfiguration,
) -> tuple[tuple[tuple[int, int], int], ...]:
    """Component pairs (i, j), i < j, that meet, with their point counts.

    Each unordered pair with positive intersection number appears once,
    carrying multiplicity D_i . D_j; pairs are listed in lexicographic order,
    which fixes the orientation used by crossing tables.
    """
    found = []
    n = config.n_components
    for i in range(n):
        for j in range(i + 1, n):
            count = config.intersection[i][j]
            if count > 0:
                found.append(((i, j), count))
    return tuple(found)


@dataclass(frozen=True)
class PlaneArrangement:
    """Plane curves of given degrees with marked multiple points.

    Curves meet transversally away from the marked points; each marked point
    lists the (two or more) curves through it.  Pairs may also meet at
    unmarked ordinary double points, so the number of marked points shared by
    a pair can not exceed the product of its degrees.  No curve is named
    ``E_<id>`` for a marked point ``<id>``: :func:`blow_up` gives that name
    to the point's exceptional curve.
    """

    curves: tuple[tuple[str, int], ...]
    points: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        curves = tuple((str(n), int(d)) for n, d in self.curves)
        points = tuple(
            (str(pid), tuple(str(c) for c in incident))
            for pid, incident in self.points
        )
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "points", points)
        self.check()

    @cached_property
    def points_on(self) -> dict[str, frozenset[str]]:
        """Each curve's name mapped to the ids of the marked points on it."""
        return {
            name: frozenset(pid for pid, incident in self.points if name in incident)
            for name, _ in self.curves
        }

    def check(self) -> None:
        names = [n for n, _ in self.curves]
        if len(set(names)) != len(names):
            raise InvariantError("duplicate curve names")
        degrees = dict(self.curves)
        for name, degree in self.curves:
            if degree < 1:
                raise InvariantError(f"curve {name!r} has non-positive degree")
        seen_points = set()
        for pid, incident in self.points:
            if pid in seen_points:
                raise InvariantError(f"duplicate point id {pid!r}")
            seen_points.add(pid)
            if len(set(incident)) < 2:
                raise InvariantError(
                    f"point {pid!r} must list at least two distinct curves"
                )
            for k, c in enumerate(incident):
                if c in incident[:k]:
                    raise InvariantError(f"point {pid!r} lists curve {c!r} twice")
            for c in incident:
                if c not in degrees:
                    raise InvariantError(
                        f"point {pid!r} references unknown curve {c!r}"
                    )
            exceptional = f"E_{pid}"
            if exceptional in degrees:
                raise InvariantError(
                    f"curve {exceptional!r} takes the name that blow_up gives "
                    f"the exceptional curve of point {pid!r}"
                )
        for (name_a, deg_a), (name_b, deg_b) in combinations(self.curves, 2):
            shared = len(self.points_on[name_a] & self.points_on[name_b])
            if shared > deg_a * deg_b:
                raise CoverageError(
                    f"curves {name_a!r} and {name_b!r} share {shared} marked "
                    f"points but can only meet in {deg_a * deg_b}"
                )
        if not names:
            raise InvariantError("arrangement has no curves")


def blow_up(arrangement: PlaneArrangement, epsilon: Fraction | int) -> DivisorConfiguration:
    """Blow up the plane once at each marked point of the arrangement.

    Components of the result are the strict transforms of the curves followed
    by one exceptional curve per point.  Intersection numbers follow the
    standard calculus on the blown-up plane (hyperplane H with H^2 = 1,
    exceptional E_p with E_p^2 = -1, H . E_p = 0).  With P_a the marked points on curve a:

    * C~_a . C~_b = d_a d_b - #(P_a & P_b) for all curves a, b, diagonal included;
    * C~_a . E_p = [p in P_a];  E_p . E_q = -delta_pq.

    Degrees are taken against the polarization H - epsilon * sum_p E_p, which
    gives deg C~_a = d_a - epsilon * #P_a and deg E_p = epsilon.
    Epsilon must be positive and small enough to keep all degrees positive,
    so the output always validates.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InvariantError("epsilon must be positive")
    points_on = arrangement.points_on
    point_ids = [pid for pid, _ in arrangement.points]
    curve_degrees = [d - epsilon * len(points_on[a]) for a, d in arrangement.curves]
    for (name, _), degree in zip(arrangement.curves, curve_degrees):
        if degree <= 0:
            raise InvariantError(
                f"epsilon {rational_to_string(epsilon)} is too large: strict "
                f"transform of {name!r} would have non-positive degree"
            )

    curve_rows = [
        [d_a * d_b - len(points_on[a] & points_on[b]) for b, d_b in arrangement.curves]
        + [int(p in points_on[a]) for p in point_ids]
        for a, d_a in arrangement.curves
    ]
    point_rows = [
        [int(p in points_on[a]) for a, _ in arrangement.curves]
        + [-int(p == q) for q in point_ids]
        for p in point_ids
    ]
    return DivisorConfiguration(
        tuple(a for a, _ in arrangement.curves) + tuple(f"E_{p}" for p in point_ids),
        tuple(curve_degrees) + (epsilon,) * len(point_ids),
        tuple(map(tuple, curve_rows + point_rows)),
    )
