import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import filtstab.chern as chern
import filtstab.filtration as filtration
from filtstab import (
    CrossingTable,
    DegenerateDegreeError,
    DivisorConfiguration,
    FilteredConfiguration,
    FilteredSystemData,
    Filtration,
    GrSpectrum,
    MissingCrossingTableError,
    ShapeMismatchError,
    Subspace,
    UnbalancedFiltrationError,
    c1_cycle,
    c2_local,
    c2_number,
    c2_trivial,
    derive_tables,
    norm_sq,
    span,
)
from filtstab.cli import main
from filtstab.fixtures import three_generic_lines, two_lines
from filtstab.serialize import canonical_json, input_document
from helpers import (
    random_balanced_configuration,
    random_divisor_config,
    random_realizable_config,
    rational_inputs,
    reference_c2_number,
    reference_form,
    reference_norm_value,
)

F = Fraction


def spectrum(*entries):
    return GrSpectrum(tuple((F(w), m) for w, m in entries))


class TestC1:
    def test_balanced_tables_vanish(self):
        config, fc = two_lines()
        data = derive_tables(fc, config)
        assert c1_cycle(data, config) == (F(0), F(0))

    def test_rank_one_single_weight(self):
        config = DivisorConfiguration(("C",), (F(1),), ((1,),))
        data = FilteredSystemData(1, (spectrum((3, 1)),), ())
        assert c1_cycle(data, config) == (F(-3),)

    def test_symmetric_weights(self):
        config = DivisorConfiguration(("C",), (F(1),), ((1,),))
        data = FilteredSystemData(2, (spectrum((F(1, 2), 1), (F(-1, 2), 1)),), ())
        assert c1_cycle(data, config) == (F(0),)

    def test_component_count_checked(self):
        config = DivisorConfiguration(("C",), (F(1),), ((1,),))
        data = FilteredSystemData(1, (spectrum((0, 1)), spectrum((0, 1))), ())
        with pytest.raises(ShapeMismatchError):
            c1_cycle(data, config)


class TestC2Local:
    def test_zero_weights(self):
        assert c2_local([(F(0), F(1, 2), 1), (F(0), F(-1, 2), 1)]) == 0

    def test_transverse_table(self):
        table = [(F(1, 2), F(-1, 2), 1), (F(-1, 2), F(1, 2), 1)]
        assert c2_local(table) == F(1, 2)

    def test_coincident_table(self):
        table = [(F(1, 2), F(1, 2), 1), (F(-1, 2), F(-1, 2), 1)]
        assert c2_local(table) == F(-1, 2)

    def test_bilinear_in_weights(self):
        # at fixed multiplicities, scaling either side scales the value
        base = [(F(1, 2), F(-1, 2), 1), (F(-1, 2), F(1, 2), 1)]
        lam, mu = F(3), F(-2)
        scaled = [(a * lam, b * mu, m) for a, b, m in base]
        assert c2_local(scaled) == lam * mu * c2_local(base)

    def test_crossing_table_keeps_a_passed_fraction(self):
        a, b = F(1, 2), F(-1, 2)
        table = CrossingTable((0, 1), ((a, b, 1), ("-1/2", 1, 1)))
        assert table.entries[0][0] is a and table.entries[0][1] is b
        assert table.entries[1][:2] == (F(-1, 2), F(1)) and type(table.entries[1][1]) is Fraction

    @given(st.lists(st.tuples(rational_inputs(), rational_inputs(), st.integers(1, 3)), max_size=6))
    def test_matches_the_fraction_sum(self, entries):
        expected = -sum((F(a) * F(b) * m for a, b, m in entries), F(0))
        assert c2_local(entries) == expected
        assert c2_local(iter(entries)) == expected
        assert type(c2_local(entries)) is Fraction


class TestC2Number:
    def test_all_trivial(self):
        config, fc = two_lines()
        trivial = FilteredConfiguration(2, (Filtration.trivial(2),) * 2)
        report = c2_number(derive_tables(trivial, config), config)
        assert report.c1_coefficients == (F(0), F(0))
        assert report.c2 == 0

    def test_two_lines_matches_pairing(self):
        config, fc = two_lines()
        report = c2_number(derive_tables(fc, config), config)
        assert report.c1_squared == 0
        assert report.c2 == 0
        assert report.c2 == c2_trivial(fc, config)

    def test_single_conic(self):
        config = DivisorConfiguration(("Q",), (F(2),), ((4,),))
        fc = FilteredConfiguration(
            2,
            (
                Filtration(
                    2, ((F(1, 2), span([(1, 0)], 2)), (F(-1, 2), Subspace.full(2)))
                ),
            ),
        )
        report = c2_number(derive_tables(fc, config), config)
        assert report.c2 == F(-1)
        assert report.c2 == c2_trivial(fc, config)

    def test_missing_crossing_table(self):
        config, fc = two_lines()
        data = derive_tables(fc, config)
        stripped = FilteredSystemData(data.rank, data.component_tables, ())
        with pytest.raises(MissingCrossingTableError):
            c2_number(stripped, config)

    def test_unknown_crossing_pair(self):
        config = DivisorConfiguration(("A", "B"), (F(1), F(1)), ((1, 0), (0, 1)))
        tables = (
            spectrum((F(1, 2), 1), (F(-1, 2), 1)),
            spectrum((F(1, 2), 1), (F(-1, 2), 1)),
        )
        bogus = CrossingTable((0, 1), ((F(1, 2), F(-1, 2), 1), (F(-1, 2), F(1, 2), 1)))
        data = FilteredSystemData(2, tables, (bogus,))
        with pytest.raises(ShapeMismatchError):
            c2_number(data, config)


    def test_matches_the_fraction_sums(self):
        # balanced and unbalanced flags, on formal and realizable
        # configurations with crossing points
        rng = random.Random(109)
        for _ in range(40):
            rank = rng.randint(1, 3)
            config = (
                random_realizable_config(rng) if rng.random() < 0.5
                else random_divisor_config(rng, rng.randint(1, 4))
            )
            n = config.n_components
            fc = random_balanced_configuration(rng, rank, n)
            shift = F(rng.randint(-3, 3), rng.randint(1, 4))
            fc = FilteredConfiguration(rank, tuple(
                Filtration(rank, tuple((w + shift * (i % 2), s) for w, s in f.steps))
                for i, f in enumerate(fc.filtrations)
            ))
            data = derive_tables(fc, config)
            report = c2_number(data, config)
            assert report.c2 == reference_c2_number(data, config)
            assert type(report.c2) is Fraction


class TestForm:
    def test_matches_the_fraction_sum(self):
        rng = random.Random(113)
        for _ in range(60):
            config = random_divisor_config(rng, rng.randint(1, 5))
            n = config.n_components

            def vector():
                return [
                    rng.choice([rng.randint(-4, 4), F(rng.randint(-9, 9), rng.randint(1, 6))])
                    for _ in range(n)
                ]

            u, v = vector(), vector()
            assert config.form(u, v) == reference_form(config, u, v)
            assert type(config.form(u, v)) is Fraction
            assert config.pairing(u) == reference_form(config, u, u)


class TestDeriveTables:
    def test_trivial_tables(self):
        config, _ = two_lines()
        trivial = FilteredConfiguration(2, (Filtration.trivial(2),) * 2)
        data = derive_tables(trivial, config)
        assert all(t.entries == ((F(0), 2),) for t in data.component_tables)
        assert data.crossing_tables[0].entries == ((F(0), F(0), 2),)

    def test_two_lines_crossing_table(self):
        config, fc = two_lines()
        data = derive_tables(fc, config)
        assert data.crossing_tables[0].entries == (
            (F(1, 2), F(-1, 2), 1),
            (F(-1, 2), F(1, 2), 1),
        )

    def test_coincident_variant(self):
        config, fc = two_lines()
        line = fc.filtrations[0].steps[0][1]
        coincident = FilteredConfiguration(
            2, (fc.filtrations[0], fc.filtrations[0])
        )
        data = derive_tables(coincident, config)
        assert data.crossing_tables[0].entries == (
            (F(1, 2), F(1, 2), 1),
            (F(-1, 2), F(-1, 2), 1),
        )

    def test_tables_repeat_per_point(self):
        config = DivisorConfiguration(("Q1", "Q2"), (F(2), F(2)), ((4, 4), (4, 4)))
        fc = FilteredConfiguration(
            2,
            (
                Filtration(2, ((F(1, 2), span([(1, 0)], 2)), (F(-1, 2), Subspace.full(2)))),
                Filtration(2, ((F(1, 2), span([(0, 1)], 2)), (F(-1, 2), Subspace.full(2)))),
            ),
        )
        data = derive_tables(fc, config)
        assert len(data.crossing_tables) == 4
        assert len({t.entries for t in data.crossing_tables}) == 1


class TestC2Trivial:
    def test_two_lines_zero(self):
        config, fc = two_lines()
        assert c2_trivial(fc, config) == 0

    def test_three_generic_lines(self):
        config, fc = three_generic_lines()
        assert c2_trivial(fc, config) == F(3, 4)

    def test_zero_intersection_matrix(self):
        config = DivisorConfiguration(("A", "B"), (F(1), F(1)), ((0, 0), (0, 0)))
        _, fc = two_lines()
        assert c2_trivial(fc, config) == 0

    def test_rejects_unbalanced(self):
        config, fc = two_lines()
        skew = FilteredConfiguration(
            2,
            (
                fc.filtrations[0].with_weights((F(1), F(0))),
                fc.filtrations[1],
            ),
        )
        with pytest.raises(UnbalancedFiltrationError):
            c2_trivial(skew, config)


class TestNormSq:
    def test_all_trivial_zero(self):
        config, _ = two_lines()
        trivial = FilteredConfiguration(2, (Filtration.trivial(2),) * 2)
        assert norm_sq(trivial, config) == 0

    def test_three_lines(self):
        config, fc = three_generic_lines()
        assert norm_sq(fc, config) == F(3, 2)

    def test_scaling_law(self):
        config, fc = three_generic_lines()
        assert norm_sq(fc.scale(2), config) == F(6)

    def test_degree_zero_with_weights_rejected(self):
        config = DivisorConfiguration(("C",), (F(0),), ((1,),))
        fc = FilteredConfiguration(
            1, (Filtration.trivial(1, weight=F(1)),)
        )
        with pytest.raises(DegenerateDegreeError):
            norm_sq(fc, config)

    @given(st.data())
    def test_norm_value_matches_the_fraction_sum(self, data):
        mults = data.draw(st.lists(
            st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
            min_size=1, max_size=4,
        ))
        degrees = data.draw(st.lists(
            st.fractions(0, 5, max_denominator=6), min_size=len(mults), max_size=len(mults)
        ))
        shape = chern.WeightShape(
            tuple(map(len, mults)), tuple(mults), tuple(degrees), ()
        )
        weights = data.draw(st.lists(rational_inputs(), min_size=shape.size, max_size=shape.size))
        assert shape.norm_value(weights) == reference_norm_value(shape, weights)


@st.composite
def pairs_in_balance_coordinates(draw):
    """A quadratic pair at rank 1-4 on 1-3 components, with arbitrary integer
    terms, and rational balance coordinates x for it."""
    rank = draw(st.integers(1, 4))
    mults = []
    for _ in range(draw(st.integers(1, 3))):
        ends = [0, *sorted(draw(st.sets(st.integers(1, rank - 1)))), rank] if rank > 1 else [0, 1]
        mults.append(tuple(b - a for a, b in zip(ends, ends[1:])))
    degrees = draw(st.lists(
        st.fractions(-5, 5, max_denominator=6), min_size=len(mults), max_size=len(mults)
    ))
    shape = chern.WeightShape(tuple(map(len, mults)), tuple(mults), tuple(degrees), ())
    slots = st.integers(0, shape.size - 1)
    terms = draw(st.dictionaries(
        st.tuples(slots, slots).map(sorted).map(tuple), st.integers(-6, 6).filter(bool),
        max_size=12,
    ))
    x = draw(st.lists(
        st.fractions(-6, 6, max_denominator=12),
        min_size=len(shape.free_slots), max_size=len(shape.free_slots),
    ))
    return chern.QuadraticPair(shape, tuple(sorted((*pq, k) for pq, k in terms.items()))), x


class TestBalancedForms:
    @given(pairs_in_balance_coordinates())
    @example((
        chern.QuadraticPair(
            chern.WeightShape((2, 2), ((3, 1), (2, 2)), (F(3, 2), F(1, 3)), ()),
            ((0, 1, 2), (0, 2, -4), (1, 3, 6), (2, 2, 1)),
        ),
        [F(1, 2), F(-2, 3)],
    ))
    def test_forms_are_c2_and_the_norm_at_from_balance(self, pair_and_x):
        # x^T C x = 4 c2 and x^T N x = s ||F||^2 at w = from_balance(x), also
        # where the first step's multiplicity m0 is above 1
        qp, x = pair_and_x
        c, n, scale = qp.balanced_forms()
        weights = qp.shape.from_balance(x)

        def value(matrix):
            return sum(a * b * matrix[i][j] for i, a in enumerate(x) for j, b in enumerate(x))

        assert value(c) == 4 * qp.c2_value(weights)
        assert value(n) == scale * qp.shape.norm_value(weights)
        for matrix in (c, n):
            assert all(type(e) is int for row in matrix for e in row)
            assert [list(row) for row in zip(*matrix)] == [list(row) for row in matrix]

    def test_the_triangle_forms(self):
        config, fc = three_generic_lines()
        c, n, scale = chern.assemble_quadratics(fc, config).balanced_forms()
        assert c == ((-4, 4, 4), (4, -4, 4), (4, 4, -4))
        assert (n, scale) == (((2, 0, 0), (0, 2, 0), (0, 0, 2)), 1)


class TestJointMultiplicityCalls:
    """The norm reads only the shape; only c2 eliminates per crossing pair."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        original = filtration.joint_step_multiplicities

        def counting(f, g):
            counted.append((f, g))
            return original(f, g)

        for module in (filtration, chern):
            monkeypatch.setattr(module, "joint_step_multiplicities", counting)
        return counted

    def test_norm_makes_no_joint_multiplicity_call(self, calls):
        config, fc = three_generic_lines()
        assert norm_sq(fc, config) == F(3, 2)
        assert calls == []

    def test_balanced_chern_request_on_the_triangle(self, calls, tmp_path):
        # three crossing pairs, each once for the tables and once for c2
        config, fc = three_generic_lines()
        path = tmp_path / "triangle.json"
        path.write_text(canonical_json(input_document(config, fc)), encoding="utf-8")
        out = str(tmp_path / "chern.json")
        assert main(["chern", "--input", str(path), "--quiet", "--output", out]) == 0
        assert len(calls) == 6


class TestConsistency:
    """The central cross-check: the two c2 routes agree exactly."""

    def test_random_balanced_configurations(self):
        rng = random.Random(101)
        for _ in range(50):
            rank = rng.randint(1, 3)
            n = rng.randint(1, 5)
            config = random_divisor_config(rng, n)
            fc = random_balanced_configuration(rng, rank, n)
            via_tables = c2_number(derive_tables(fc, config), config).c2
            via_pairing = c2_trivial(fc, config)
            assert via_tables == via_pairing

    def test_scaling_squares_c2(self):
        rng = random.Random(103)
        for _ in range(30):
            rank = rng.randint(1, 3)
            n = rng.randint(1, 4)
            config = random_divisor_config(rng, n)
            fc = random_balanced_configuration(rng, rank, n)
            base = c2_trivial(fc, config)
            for lam in (F(2), F(1, 3)):
                assert c2_trivial(fc.scale(lam), config) == lam * lam * base

    def test_c1_vanishes_iff_balanced(self):
        rng = random.Random(107)
        for _ in range(30):
            rank = rng.randint(1, 3)
            n = rng.randint(2, 4)
            config = random_divisor_config(rng, n)
            fc = random_balanced_configuration(rng, rank, n)
            # knock one component off balance by a constant shift
            bumped = list(fc.filtrations)
            victim = rng.randrange(n)
            bumped[victim] = Filtration(
                rank,
                tuple((w + F(1, 3), s) for w, s in bumped[victim].steps),
            )
            fc = FilteredConfiguration(rank, tuple(bumped))
            data = derive_tables(fc, config)
            coefficients = c1_cycle(data, config)
            balanced = [f.is_balanced() for f in fc.filtrations]
            assert all(
                (c == 0) == flag for c, flag in zip(coefficients, balanced)
            )
            assert coefficients[victim] != 0
