import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filtstab import (
    DimensionMismatchError,
    InvariantError,
    Subspace,
    rational_from_string,
    rational_to_string,
    span,
)
from filtstab.linalg import rational_pair, sorted_subspaces

from helpers import (
    assert_canonical,
    random_subspace,
    reference_intersection,
    reference_rref,
    sort_key,
)


class TestRationalLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/2", Fraction(1, 2)),
            ("-3/4", Fraction(-3, 4)),
            ("7", Fraction(7)),
            ("-7", Fraction(-7)),
            ("0", Fraction(0)),
            ("4/6", Fraction(2, 3)),
        ],
    )
    def test_parse(self, text, value):
        assert rational_from_string(text) == value

    # Arabic-Indic and fullwidth digits are Unicode decimals, which int() reads
    @pytest.mark.parametrize(
        "text", ["1/0", "1.5", "abc", "1/-2", "", "1 / 2", "\u0661/\u0662", "\uff13"]
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            rational_from_string(text)
        with pytest.raises(ValueError):
            rational_pair(text)

    @pytest.mark.parametrize(
        "text,pair", [("4/6", (4, 6)), (" -7 ", (-7, 1)), ("+3/5\n", (3, 5)), ("0/9", (0, 9))]
    )
    def test_pair_is_the_literal_as_written(self, text, pair):
        assert rational_pair(text) == pair
        assert rational_from_string(text) == Fraction(*pair)

    @given(st.fractions())
    def test_round_trip(self, q):
        assert rational_from_string(rational_to_string(q)) == q

    def test_format(self):
        assert rational_to_string(Fraction(1, 2)) == "1/2"
        assert rational_to_string(Fraction(4, 2)) == "2"
        assert rational_to_string(Fraction(-1, 3)) == "-1/3"

    @given(st.integers() | st.fractions())
    def test_signed_ints_and_fractions_format_as_their_fraction(self, value):
        # the former formatting, which converted every value to a Fraction first
        for signed in (value, -value):
            q = Fraction(signed)
            expected = f"{q.numerator}/{q.denominator}" if q.denominator > 1 else str(q.numerator)
            assert rational_to_string(signed) == expected


class TestFullSpace:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_one_shared_instance_per_rank(self, n):
        full = Subspace.full(n)
        assert Subspace.full(n) is full
        assert full == span([[int(i == j) for j in range(n)] for i in range(n)], n)
        assert full.is_full()

    def test_rejects_nonpositive_rank(self):
        with pytest.raises(InvariantError):
            Subspace.full(0)


class TestSpan:
    def test_dependent_rows_collapse(self):
        s = span([(1, 0), (2, 0)], 2)
        assert s.rows == ((Fraction(1), Fraction(0)),)

    def test_empty_span_is_zero(self):
        s = span([], 3)
        assert s.dim == 0
        assert s.is_zero()

    def test_gaussian_elimination(self):
        s = span([(1, 1), (0, 2)], 2)
        assert s == Subspace.full(2)
        assert s.rows == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    def test_idempotent(self):
        s = span([(1, 2, 3), (4, 5, 6)], 3)
        assert span(s.rows, 3) == s

    def test_row_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            span([(1, 0, 0)], 2)
        with pytest.raises(DimensionMismatchError):
            Subspace(2, ((1, 0), (1, 0, 0)))

    def test_any_spanning_rows_construct_the_canonical_subspace(self):
        # rows out of canonical form are reduced on construction
        for rows, basis in (
            (((-1, 2),), ((1, -2),)),  # negative pivot
            (((2, 4),), ((1, 2),)),  # not primitive
            (((1, 1), (0, 1)), ((1, 0), (0, 1))),  # pivot column not cleared
            (((1, Fraction(1, 2)),), ((2, 1),)),  # non-integer entry
            (((1, 0), (0, 0)), ((1, 0),)),  # zero row
            (((Fraction(2), Fraction(0)),), ((1, 0),)),
            (((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))), ((1, 0), (0, 1))),
        ):
            s = Subspace(2, rows)
            assert s.basis == basis
            assert_canonical(s)
            assert s == span(rows, 2) and hash(s) == hash(span(rows, 2))
        s = span([(1, Fraction(1, 2), 3), (Fraction(-2, 3), 0, 1)], 3)
        assert s.basis == ((2, 0, -3), (0, 1, 9))
        for rows in (s.basis, s.rows, [(0, 1, 9), (-4, 0, 6), (2, 1, 6)]):
            same = Subspace(3, rows)
            assert same == s and hash(same) == hash(s)
        assert s.rows == (
            (Fraction(1), Fraction(0), Fraction(-3, 2)),
            (Fraction(0), Fraction(1), Fraction(9)),
        )
        # integral entries are held as int, the others as Fraction
        assert [[type(x) for x in row] for row in s.rows] == [
            [int, int, Fraction], [int, int, int]
        ]

    def test_ambient_dimension_must_be_positive(self):
        for n in (0, -1):
            with pytest.raises(InvariantError):
                Subspace(n)


class TestIntersectAndSum:
    def test_transverse_lines(self):
        e1 = span([(1, 0)], 2)
        e2 = span([(0, 1)], 2)
        assert e1.intersect(e2).is_zero()

    def test_intersection_idempotent(self):
        a = span([(1, 2, 0), (0, 0, 1)], 3)
        assert a.intersect(a) == a

    def test_plane_intersection(self):
        a = span([(1, 0, 0), (0, 1, 0)], 3)
        b = span([(0, 1, 0), (0, 0, 1)], 3)
        assert a.intersect(b) == span([(0, 1, 0)], 3)

    def test_sum_of_lines(self):
        e1 = span([(1, 0)], 2)
        e2 = span([(0, 1)], 2)
        assert (e1 + e2).is_full()

    def test_sum_with_zero(self):
        a = span([(1, 2)], 2)
        assert a + Subspace.zero(2) == a

    def test_sum_spans(self):
        a = span([(1, 1, 0)], 3)
        b = span([(1, -1, 0)], 3)
        assert a + b == span([(1, 0, 0), (0, 1, 0)], 3)

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            span([(1, 0)], 2).intersect(span([(1, 0, 0)], 3))
        with pytest.raises(DimensionMismatchError):
            span([(1, 0)], 2) + span([(1, 0, 0)], 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_zero_and_full_meet_like_any_subspace(n):
    # the meet and the intersection dimension read only normals, with no
    # shortcut for the zero or the full space; check them at every dim
    rng = random.Random(400 + n)
    zero, full = Subspace.zero(n), Subspace.full(n)
    for x in [random_subspace(rng, n, d) for d in range(n + 1) for _ in range(3)]:
        for a, b in ((zero, x), (x, zero), (full, x), (x, full), (x, x)):
            meet = a & b
            assert meet.rows == reference_intersection(a.rows, b.rows, n)
            assert meet == (zero if zero in (a, b) else x)
            assert a.intersection_dim(b) == meet.dim == a.dim + b.dim - (a + b).dim
            assert a.contains(b) == (meet == b)
            assert_canonical(meet)
        assert x.contains(zero) and full.contains(x)
        assert zero.contains(x) == (x == zero) and x.contains(full) == (x == full)


def _subspaces(ambient):
    vectors = st.lists(
        st.integers(min_value=-4, max_value=4), min_size=ambient, max_size=ambient
    )
    return st.lists(vectors, min_size=0, max_size=ambient + 1).map(
        lambda rows: span(rows, ambient)
    )


@settings(max_examples=60)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(_subspaces(n), _subspaces(n))))
def test_dimension_formula(pair):
    a, b = pair
    assert a.intersect(b).dim + (a + b).dim == a.dim + b.dim


@settings(max_examples=60)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                min_size=1,
                max_size=n,
            ),
            st.randoms(use_true_random=False),
        )
    )
)
def test_span_invariant_under_row_operations(data):
    n, rows, rng = data
    base = span(rows, n)

    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert span(shuffled, n) == base

    # add a multiple of one row to another (invertible operation)
    if len(rows) >= 2:
        i, j = rng.sample(range(len(rows)), 2)
        factor = rng.randint(-3, 3)
        modified = [list(r) for r in rows]
        modified[i] = [x + factor * y for x, y in zip(modified[i], modified[j])]
        assert span(modified, n) == base


@settings(max_examples=60)
@given(st.integers(1, 5).flatmap(_subspaces))
def test_annihilator(subspace):
    n = subspace.ambient_dim
    normals = subspace.annihilator()
    assert normals.dim == n - subspace.dim
    for normal in normals.basis:
        for row in subspace.basis:
            assert sum(x * y for x, y in zip(normal, row)) == 0
    assert normals.annihilator() == subspace


def test_membership_and_containment():
    plane = span([(1, 0, 1), (0, 1, 1)], 3)
    assert plane.contains(span([(1, 1, 2)], 3))
    assert not plane.contains(span([(0, 0, 1)], 3))
    assert Subspace.full(3).contains(plane)
    assert plane.contains(Subspace.zero(3))


def _rational_vectors(ambient):
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.lists(entries, min_size=ambient, max_size=ambient)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(_rational_vectors(n), max_size=n + 1),
            st.lists(_rational_vectors(n), max_size=n + 1),
            _rational_vectors(n),
        )
    )
)
def test_kernel_matches_fraction_reference(data):
    n, rows_a, rows_b, vector = data
    a, b = span(rows_a, n), span(rows_b, n)
    ref_a, ref_b = reference_rref(rows_a, n), reference_rref(rows_b, n)
    assert a.rows == ref_a and b.rows == ref_b

    meet, join = a.intersect(b), a + b
    ref_meet = reference_intersection(ref_a, ref_b, n)
    assert meet.rows == ref_meet
    assert join.rows == reference_rref(ref_a + ref_b, n)
    assert a.intersection_dim(b) == b.intersection_dim(a) == len(ref_meet)
    assert meet.dim + join.dim == a.dim + b.dim
    for kernel_output in (a, b, meet, join, a.annihilator(), b.annihilator()):
        assert_canonical(kernel_output)

    assert a.contains(b) == (len(reference_rref(ref_a + ref_b, n)) == len(ref_a))
    assert a.contains(meet) and b.contains(meet) and join.contains(a) and join.contains(b)
    inside = [sum(column) for column in zip(*rows_a)] or [0] * n
    for v in (vector, inside):
        in_a = len(reference_rref(ref_a + (tuple(v),), n)) == len(ref_a)
        assert a.contains(span([v], n)) == in_a

    assert (sort_key(a) < sort_key(b)) == ((len(ref_a), ref_a) < (len(ref_b), ref_b))
    assert (a == b) == (ref_a == ref_b)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 40), st.integers(0, 2**32))
def test_integer_sort_keeps_the_rational_order(n, size, seed):
    # mixed dimensions, fractional RREF entries and pivots of many sizes
    rng = random.Random(seed)
    members = {
        random_subspace(rng, n, rng.randint(0, n), height=rng.choice((1, 3, 50)))
        for _ in range(size)
    }
    members = list(members)
    rng.shuffle(members)
    assert sorted_subspaces(members) == sorted(members, key=sort_key)
    assert sorted_subspaces(iter(members)) == sorted_subspaces(reversed(members))
