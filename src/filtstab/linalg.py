"""Exact linear algebra over the rationals.

A subspace of Q^r is stored by its canonical integer basis: the rows of its
reduced row echelon form, each scaled to coprime integers with a positive
pivot.  The constructor takes any spanning rows and reduces them on
construction, so every subspace is canonical.  Two subspaces are equal
exactly when their stored bases are identical, so they can be hashed,
deduplicated and compared deterministically.  The subspace kernels run
through one fraction-free integer elimination.  ``Fraction`` appears here
only where ``Fraction`` input rows are scaled to integers, by
:func:`integer_row`, where the rational echelon rows are derived for
output, and where :func:`rational_from_string` returns a parsed literal.
Callers that can build their rows in integers do so, so no ``Fraction``
reaches the kernels from them: the stability cone of ``upsilon`` is integer
rows over the lcm of the degree denominators, and a document's basis rows
are read as the integer pairs (p, q) of :func:`rational_pair`, each row
scaled by the lcm of its q.
:func:`open_cone_point` finds, in integers too, a point of an open
polyhedral cone, or proves that it has none.

The dual representation is a subspace's integer normals, a basis of its
annihilator read off the canonical basis once per subspace.  The join is
the span of both bases; the meet is the annihilator of the span of both
sets of normals; W lies in V when every normal of V vanishes on W.  Every
intersection dimension is a rank of pairings, read by one helper,
:func:`_rank_growth`, that grows the rank one column at a time and stops
once it is full: dim(V ∩ W) is dim W minus the rank of V's normals paired
with W's basis.  :class:`ChainIncidence` reads the intersection dimensions
of a subspace with every member of a flag at once, from whichever side has
fewer rows: the subspace's basis against the flag's adapted normals, or,
above half the dimension, the subspace's normals against a basis adapted
to the flag.  Neither needs an elimination.
"""
from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, InvariantError

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")


def rational_pair(text: str) -> tuple[int, int]:
    """The integers (p, q) of a rational literal ``"p"`` or ``"p/q"`` (q > 0),
    as written and not reduced; ``"p"`` gives q = 1.  Surrounding whitespace
    is ignored.  This is the package's one literal grammar."""
    stripped = text.strip()
    if not _RATIONAL_RE.match(stripped):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = stripped.partition("/")
    if not den:
        return int(num), 1
    if int(den) == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return int(num), int(den)


def rational_from_string(text: str) -> Fraction:
    """Parse a rational literal ``"p"`` or ``"p/q"`` (q > 0) exactly."""
    return Fraction(*rational_pair(text))


def as_fraction(value) -> Fraction:
    """``value`` itself when it is already a ``Fraction``, else ``Fraction(value)``."""
    return value if isinstance(value, Fraction) else Fraction(value)


def rational_to_string(value: Fraction | int) -> str:
    """Format a rational as ``"p"`` or ``"p/q"``; inverse of parsing."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def integer_row(values: Sequence) -> tuple[tuple[int, ...], int]:
    """``values`` over one common denominator: the integers ``value * L``
    and L, the lcm of their denominators (the package's one scaling of
    rational values to integers)."""
    values = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    scale = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


def _eliminate(rows: Iterable[Sequence], width: int) -> tuple[tuple[int, ...], ...]:
    """Canonical integer basis of the row space of ``rows``.

    A row holding anything but ``int`` entries (a ``Fraction``, say) is
    first replaced by its numerators over :func:`integer_row`; integer rows
    are only copied.  Then Gauss-Jordan elimination without division:
    clearing a column replaces a row by ``lead * row - entry * pivot_row``
    and divides out its content (the gcd of its entries).  Pivot rows are made
    primitive with a positive pivot before use, so the result is in
    canonical form.
    """
    work = []
    for r in rows:
        if len(r) != width:
            raise DimensionMismatchError(f"row has length {len(r)}, expected {width}")
        work.append(list(r) if set(map(type, r)) <= {int} else list(integer_row(r)[0]))
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        top = work[pivot]
        content = gcd(*top) if top[col] > 0 else -gcd(*top)
        if content != 1:
            top = [x // content for x in top]
        work[pivot] = work[rank]
        work[rank] = top
        lead = top[col]
        for i, row in enumerate(work):
            entry = row[col]
            if entry and i != rank:
                row = [lead * x - entry * y for x, y in zip(row, top)]
                content = gcd(*row)
                work[i] = [x // content for x in row] if content > 1 else row
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(r) for r in work[:rank])


def _pivot(work: list[list[int]], r: int, c: int, det: int) -> None:
    """Pivot the integer simplex tableau ``work`` on entry (r, c), in place.

    Every entry is held times ``det``, the determinant of the current basis.
    Row r stays; every other row becomes ``(p * row - row[c] * work[r]) //
    det`` with p = work[r][c], the new determinant.  The division is exact,
    since each entry is a minor of the starting tableau (Edmonds 1967).
    """
    top = work[r]
    p = top[c]
    for i, row in enumerate(work):
        if i != r:
            e = row[c]
            work[i] = [(p * x - e * y) // det for x, y in zip(row, top)]


def open_cone_point(rows: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """An integer y with row . y < 0 for every one of the integer ``rows``,
    or None when there is none; no rows give ().

    By Gordan's alternative (1873) there is none exactly when some lam >= 0
    with sum lam = 1 has sum_k lam_k row_k = 0.  Phase 1 of the simplex
    method decides whether such a lam exists.  One artificial variable per
    equation starts basic; the last tableau row is the sum of the rows whose
    basic variable is still artificial, so its right-hand side is the sum of
    the artificials, and it reaches 0 exactly when such a lam exists.
    Bland's rule (the first lam with a positive reduced cost enters; ratio
    ties leave by the lowest basic index, artificials last) cannot cycle.
    Pivots go through :func:`_pivot`, so the tableau stays in integers, each
    entry times det > 0, as every pivot is positive.  The last row is then
    det pi^T [A | I | b] for some duals pi, so the artificials' identity
    columns, kept though none re-enters, hold det pi.  At a positive optimum
    no lam column has a positive cost, pi . (row_k, 1) <= 0, while pi . b =
    pi_last > 0, so y = det (pi_0, ..., pi_{width-1}) has row . y < 0.
    """
    m = len(rows)
    if not m:
        return ()
    width = len(rows[0])
    # rows: sum_k lam_k row_k[j] = 0 for each column j, then sum_k lam_k = 1;
    # each holds its m coefficients, its artificial's identity column and
    # its right-hand side
    work = [
        [row[j] for row in rows] + [int(i == j) for i in range(width + 1)] + [0]
        for j in range(width)
    ]
    work.append([1] * m + [0] * width + [1, 1])
    basis = list(range(m, m + len(work)))
    work.append([sum(column) for column in zip(*work)])
    det = 1
    while work[-1][-1]:
        cost = work[-1]
        c = next((k for k in range(m) if cost[k] > 0), None)
        if c is None:
            return tuple(cost[m : m + width])
        r = None
        for i in range(len(basis)):
            a = work[i][c]
            if a > 0 and (r is None or (
                work[i][-1] * work[r][c], basis[i]) < (work[r][-1] * a, basis[r])
            ):
                r = i
        _pivot(work, r, c, det)
        det = work[r][c]
        basis[r] = c
    return None


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^r, held by its canonical integer basis.

    ``basis`` may be given as any spanning rows, with ``int`` or ``Fraction``
    entries; they are reduced on construction, so the stored ``basis`` is
    canonical.  ``rows`` gives the same reduced row echelon form over the
    rationals.
    """

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        n = self.ambient_dim
        if n < 1:
            raise InvariantError("ambient dimension must be positive")
        object.__setattr__(self, "basis", _eliminate(self.basis, n))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        """All of Q^r, one shared instance per rank (its identity basis is canonical)."""
        space = _FULL_SPACES.get(ambient_dim)
        if space is None:
            rows = tuple(
                tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim)
            )
            space = _FULL_SPACES[ambient_dim] = cls(ambient_dim, rows)
        return space

    @cached_property
    def rows(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """The reduced row echelon basis over Q: each basis row over its pivot.

        Integral entries are held as ``int``, which compares and formats
        like the equal ``Fraction`` and keeps most comparisons cheap.
        """
        out = []
        for row in self.basis:
            lead = next(x for x in row if x)
            out.append(tuple(x // lead if x % lead == 0 else Fraction(x, lead) for x in row))
        return tuple(out)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return len(self.basis) == self.ambient_dim

    def contains(self, other: "Subspace") -> bool:
        """Whether every normal of this subspace vanishes on ``other``."""
        self._check_ambient(other)
        if other.dim >= self.dim:
            # a subspace contains one of at least its dimension only if equal
            return other == self
        return not any(sum(map(mul, v, row)) for _, v in self.normals() for row in other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The meet: the annihilator of the span of both sets of normals."""
        self._check_ambient(other)
        functionals = tuple(v for _, v in self.normals() + other.normals())
        return Subspace(self.ambient_dim, functionals).annihilator()

    def intersection_dim(self, other: "Subspace") -> int:
        """dim(self ∩ other): dim other minus the rank of the pairings of its
        basis with the normals of self, read by :func:`_rank_growth`."""
        self._check_ambient(other)
        return other.dim - len(_rank_growth(other.basis, [v for _, v in self.normals()]))

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient_dim, self.basis + other.basis)

    def __and__(self, other: "Subspace") -> "Subspace":
        return self.intersect(other)

    def normals(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(free column, functional) pairs, one per free column, in column order.

        The functional of free column f is ``scale`` at f, zero at the other
        free columns and ``-row[f] * scale / row[pivot]`` at each pivot,
        where ``scale`` is the lcm of the pivot entries.  Together they form
        a basis of the annihilator.  They are computed once per subspace,
        from the canonical basis and without elimination.
        """
        return self._normals

    @cached_property
    def _normals(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        n = self.ambient_dim
        pivots = [next(j for j, x in enumerate(row) if x) for row in self.basis]
        scale = lcm(*(row[p] for row, p in zip(self.basis, pivots)))
        normals = []
        for free in range(n):
            if free in pivots:
                continue
            vector = [0] * n
            vector[free] = scale
            for row, pivot in zip(self.basis, pivots):
                vector[pivot] = -row[free] * (scale // row[pivot])
            normals.append((free, tuple(vector)))
        return tuple(normals)

    def annihilator(self) -> "Subspace":
        """The vectors orthogonal to this subspace under the standard pairing."""
        return Subspace(self.ambient_dim, tuple(v for _, v in self.normals()))

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(rational_to_string(x) for x in row) for row in self.rows
        )
        return f"Subspace({self.dim}d in Q^{self.ambient_dim}: [{body}])"


_FULL_SPACES: dict[int, Subspace] = {}


def span(rows: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """The subspace spanned by ``rows``: ``Subspace(ambient_dim, rows)``.

    Any spanning rows are reduced on construction, so the result is
    idempotent and invariant under row shuffles and invertible row
    operations; dependent rows collapse.
    """
    return Subspace(ambient_dim, tuple(rows))


def sorted_subspaces(spaces: Iterable[Subspace]) -> list[Subspace]:
    """``spaces`` by dimension, then by their reduced row echelon rows.

    This is the package's one subspace order.  The rows are compared as
    integers: every basis row is scaled by ``L // pivot``, where L is the
    lcm of the pivot entries over the whole set.  That is each reduced row
    echelon row times the same positive L, so (dim, scaled rows) orders the
    set exactly as (dim, :attr:`Subspace.rows`) does, without a
    ``Fraction`` comparison.
    """
    members = list(spaces)
    leads = [[next(x for x in row if x) for row in space.basis] for space in members]
    scale = lcm(*(lead for row_leads in leads for lead in row_leads))
    keys = [
        (space.dim, tuple(
            tuple(x * (scale // lead) for x in row)
            for row, lead in zip(space.basis, row_leads)
        ))
        for space, row_leads in zip(members, leads)
    ]
    order = sorted(range(len(members)), key=keys.__getitem__)
    return [members[i] for i in order]


def _rank_growth(
    rows: Sequence[Sequence[int]], columns: Iterable[Sequence[int]]
) -> list[int]:
    """The indices j at which the rank of the pairings (psi_j . row) grows.

    Column j holds the pairings of ``columns[j]`` with every one of the
    integer ``rows``.  Forward fraction-free elimination: each new column
    is cleared at the pivot rows of the columns kept so far, ``lead *
    column - entry * kept``, and kept if anything is left.  No content is
    divided out and nothing is back-substituted, since only the rank is
    read.  Columns past the one where the rank reaches ``len(rows)`` are
    never computed, so one row costs one column up to its first nonzero
    pairing.  The rank of the first k columns is the number of returned
    indices below k.

    One and two rows, which every line, plane and hyperplane (through its
    one normal) of Q^4 takes, exit without elimination: one row grows at
    its first nonzero pairing; two rows grow at their first nonzero column
    of pairings (a, b), then at the first later column (c, d) with
    a·d − b·c ≠ 0.
    """
    size = len(rows)
    if size == 1:
        row = rows[0]
        for j, psi in enumerate(columns):
            if sum(map(mul, psi, row)):
                return [j]
        return []
    if size == 2:
        top, bottom = rows
        columns = iter(columns)
        for j, psi in enumerate(columns):
            a, b = sum(map(mul, psi, top)), sum(map(mul, psi, bottom))
            if a or b:
                for k, psi in enumerate(columns, j + 1):
                    # a·d - b·c with (c, d) the pairings of column k
                    if a * sum(map(mul, psi, bottom)) != b * sum(map(mul, psi, top)):
                        return [j, k]
                return [j]
        return []
    grew: list[int] = []
    kept: list[tuple[int, list[int]]] = []  # (pivot row, reduced column)
    for j, psi in enumerate(columns):
        if len(kept) == size:
            break
        column = [sum(map(mul, psi, row)) for row in rows]
        for pivot, vector in kept:
            entry = column[pivot]
            if entry:
                lead = vector[pivot]
                column = [lead * x - entry * y for x, y in zip(column, vector)]
        for pivot, x in enumerate(column):
            if x:
                kept.append((pivot, column))
                grew.append(j)
                break
    return grew


@dataclass(frozen=True)
class ChainIncidence:
    """The meets of a subspace with every member of a chain, rank by rank.

    For an increasing chain S_1 <= ... <= S_k of subspaces of Q^r,
    ``functionals`` are integer rows psi_1, psi_2, ... such that the first
    ``codims[s] = r - dim S_s`` of them span the annihilator of S_s: the
    :meth:`Subspace.normals` of S_k, then those of S_{k-1} at the free
    columns that are pivots of S_k, and so on.  Pivot columns only
    grow along the chain, and each normal of S_s is zero at the other free
    columns of S_s, so the rows are triangular on the free columns and
    independent.  Dually, :attr:`basis` holds integer rows u_1, u_2, ...
    whose first dim S_s span S_s.  Both are read off the members' canonical
    bases and cached normals, without elimination.

    dim(V ∩ S_s) is dim V minus the rank of the first ``codims[s]`` columns
    of the matrix (psi_j . b) over the canonical basis rows b of V, and
    equally dim S_s minus the rank of the first dim S_s columns of the
    matrix (n . u_j) over the normals n of V.  :meth:`step_mults` reads
    whichever has fewer rows, through :func:`_rank_growth`.
    """

    ambient_dim: int
    codims: tuple[int, ...]
    functionals: tuple[tuple[int, ...], ...]
    chain: tuple[Subspace, ...] = field(repr=False, compare=False)

    @classmethod
    def of(cls, chain: Sequence[Subspace]) -> "ChainIncidence":
        n = chain[-1].ambient_dim
        functionals: list[tuple[int, ...]] = []
        free_above: dict[int, tuple[int, ...]] = {}
        for space in reversed(chain):
            normals = space.normals()
            functionals += [v for free, v in normals if free not in free_above]
            free_above = dict(normals)
        codims = tuple(n - space.dim for space in chain)
        return cls(n, codims, tuple(functionals), tuple(chain))

    @cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """u_1, u_2, ...: the canonical rows of S_1, then those of each next
        member at the pivot columns that are new to it.

        Pivot columns only grow along the chain, so the first dim S_s rows
        have distinct pivots in S_s and span it.  Built on the first query
        from the dual side only.
        """
        rows: list[tuple[int, ...]] = []
        pivots: set[int] = set()
        for space in self.chain:
            for row in space.basis:
                pivot = next(j for j, x in enumerate(row) if x)
                if pivot not in pivots:
                    pivots.add(pivot)
                    rows.append(row)
        return tuple(rows)

    def step_mults(self, subspace: Subspace) -> tuple[int, ...]:
        """dim(V ∩ S_s) - dim(V ∩ S_{s-1}) for every member S_s, in order
        (with S_0 = 0).

        The first differences of the intersection dimensions, read from one
        rank: a subspace V of dimension at most r/2 pairs its basis with the
        functionals; a larger one pairs its fewer normals with the adapted
        :attr:`basis`.
        """
        if subspace.ambient_dim != self.ambient_dim:
            raise DimensionMismatchError(
                f"subspace in Q^{subspace.ambient_dim}, chain in Q^{self.ambient_dim}"
            )
        n = self.ambient_dim
        dim = subspace.dim
        mults = []
        below = 0
        if 2 * dim > n:
            grew = _rank_growth([v for _, v in subspace.normals()], self.basis)
            for codim in self.codims:
                here = n - codim - bisect_left(grew, n - codim)
                mults.append(here - below)
                below = here
        else:
            grew = _rank_growth(subspace.basis, self.functionals)
            for codim in self.codims:
                here = dim - bisect_left(grew, codim)
                mults.append(here - below)
                below = here
        return tuple(mults)
