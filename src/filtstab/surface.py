"""Divisor configurations on a surface and plane-arrangement blow-ups.

A :class:`DivisorConfiguration` records the combinatorial data this package
needs about a normal-crossings divisor: component names, degrees against a
fixed polarization, and the symmetric matrix of intersection numbers.
Non-transverse plane arrangements are not accepted directly; resolve their
multiple points first with :func:`blow_up`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import CoverageError, InvariantError
from .linalg import rational_to_string, span


@dataclass(frozen=True)
class DivisorConfiguration:
    """Named divisor components with degrees and intersection numbers."""

    names: tuple[str, ...]
    degrees: tuple[Fraction, ...]
    intersection: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        object.__setattr__(
            self, "degrees", tuple(Fraction(d) for d in self.degrees)
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

    def pairing(self, coefficients: Sequence[Fraction]) -> Fraction:
        """Self-intersection number of the cycle sum_i c_i * D_i."""
        coeffs = [Fraction(c) for c in coefficients]
        if len(coeffs) != self.n_components:
            raise InvariantError(
                f"{len(coeffs)} coefficients for {self.n_components} components"
            )
        total = Fraction(0)
        for i, ci in enumerate(coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(coeffs):
                if cj != 0:
                    total += ci * cj * self.intersection[i][j]
        return total

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

        def form(u, v):
            return sum(x * sum(map(mul, row, v)) for x, row in zip(u, self.intersection))

        vectors = [v for _, v in span([self.degrees], n).normals()]
        while vectors:
            v = vectors.pop(0)
            pivot = form(v, v)
            if pivot > 0:
                return span([v], n).basis[0]
            if pivot < 0:
                vectors = [
                    [x - Fraction(form(u, v), pivot) * y for x, y in zip(u, v)]
                    for u in vectors
                ]
                continue
            u = next((u for u in vectors if form(u, v)), None)
            if u is not None:
                t = Fraction(form(u, v), 1 + abs(form(u, u)))
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
            if len(set(incident)) < 2 or len(set(incident)) != len(incident):
                raise InvariantError(
                    f"point {pid!r} must list at least two distinct curves"
                )
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
        for a in range(len(self.curves)):
            for b in range(a + 1, len(self.curves)):
                name_a, deg_a = self.curves[a]
                name_b, deg_b = self.curves[b]
                shared = sum(
                    1
                    for _, incident in self.points
                    if name_a in incident and name_b in incident
                )
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
    exceptional E_p with E_p^2 = -1, H . E_p = 0):

    * strict transforms:  C~_i . C~_j = d_i d_j - #(shared points), and
      C~_i . C~_i = d_i^2 - #(points on C_i);
    * C~_i . E_p is 1 when p lies on C_i, else 0;  E_p . E_q = -delta_pq.

    Degrees are taken against the polarization H - epsilon * sum_p E_p, which
    gives deg C~_i = d_i - epsilon * #(points on C_i) and deg E_p = epsilon.
    Epsilon must be positive and small enough to keep all degrees positive,
    so the output always validates.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InvariantError("epsilon must be positive")
    curve_names = [n for n, _ in arrangement.curves]
    degrees = dict(arrangement.curves)
    incidence = {
        pid: frozenset(incident) for pid, incident in arrangement.points
    }
    point_ids = [pid for pid, _ in arrangement.points]

    def touches(curve: str) -> int:
        return sum(1 for pid in point_ids if curve in incidence[pid])

    for name in curve_names:
        if degrees[name] - epsilon * touches(name) <= 0:
            raise InvariantError(
                f"epsilon {rational_to_string(epsilon)} is too large: strict "
                f"transform of {name!r} would have non-positive degree"
            )

    names = list(curve_names) + [f"E_{pid}" for pid in point_ids]
    out_degrees: list[Fraction] = [
        Fraction(degrees[n]) - epsilon * touches(n) for n in curve_names
    ] + [epsilon] * len(point_ids)

    n_total = len(names)
    matrix = [[0] * n_total for _ in range(n_total)]
    nc = len(curve_names)
    for i, name_i in enumerate(curve_names):
        for j, name_j in enumerate(curve_names):
            if i == j:
                matrix[i][i] = degrees[name_i] ** 2 - touches(name_i)
            else:
                shared = sum(
                    1
                    for pid in point_ids
                    if name_i in incidence[pid] and name_j in incidence[pid]
                )
                matrix[i][j] = degrees[name_i] * degrees[name_j] - shared
    for p_index, pid in enumerate(point_ids):
        row = nc + p_index
        matrix[row][row] = -1
        for i, name_i in enumerate(curve_names):
            hit = 1 if name_i in incidence[pid] else 0
            matrix[i][row] = hit
            matrix[row][i] = hit
    return DivisorConfiguration(
        tuple(names), tuple(out_degrees), tuple(tuple(r) for r in matrix)
    )
