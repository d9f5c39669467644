import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from filtstab import (
    DimensionMismatchError,
    DivisorConfiguration,
    FilteredConfiguration,
    Filtration,
    GrSpectrum,
    InvariantError,
    Subspace,
    c2_trivial,
    joint_multiplicity_table,
    joint_step_multiplicities,
    span,
)
from filtstab.filtration import balanced
from helpers import (
    random_balanced_filtration,
    rational_inputs,
    reference_balanced,
    reference_joint_step_multiplicities,
)

F = Fraction
E1 = span([(1, 0)], 2)
E2 = span([(0, 1)], 2)


def two_step(line, top=F(1, 2)):
    return Filtration(2, ((top, line), (-top, Subspace.full(2))))


def full_flag_q3(weights=(F(1), F(0), F(-1))):
    return Filtration(
        3,
        (
            (weights[0], span([(1, 0, 0)], 3)),
            (weights[1], span([(1, 0, 0), (0, 1, 0)], 3)),
            (weights[2], Subspace.full(3)),
        ),
    )


class TestValidation:
    def test_weights_must_decrease(self):
        with pytest.raises(InvariantError):
            Filtration(2, ((F(0), E1), (F(1), Subspace.full(2))))

    def test_spaces_must_increase(self):
        with pytest.raises(InvariantError):
            Filtration(2, ((F(1), Subspace.full(2)), (F(0), E1)))

    def test_last_space_full(self):
        with pytest.raises(InvariantError):
            Filtration(2, ((F(0), E1),))

    def test_first_space_nonzero(self):
        with pytest.raises(InvariantError):
            Filtration(2, ((F(1), Subspace.zero(2)), (F(0), Subspace.full(2))))

    def test_zero_rank_rejected(self):
        with pytest.raises(InvariantError):
            Filtration(0, ())

    def test_configuration_rank_must_match(self):
        with pytest.raises(DimensionMismatchError):
            FilteredConfiguration(3, (two_step(E1),))


class TestGrSpectrum:
    def test_trivial(self):
        assert Filtration.trivial(3).gr_spectrum().entries == ((F(0), 3),)

    def test_two_step(self):
        assert two_step(E1).gr_spectrum().entries == ((F(1, 2), 1), (F(-1, 2), 1))

    def test_full_flag(self):
        assert full_flag_q3().gr_spectrum().entries == (
            (F(1), 1),
            (F(0), 1),
            (F(-1), 1),
        )

    def test_spectrum_invariants_enforced(self):
        with pytest.raises(InvariantError):
            GrSpectrum(((F(0), 1), (F(1), 1)))
        with pytest.raises(InvariantError):
            GrSpectrum(((F(0), 0),))

    @given(st.dictionaries(
        st.fractions(max_denominator=60), st.integers(1, 5), max_size=6
    ))
    def test_moments_equal_the_fraction_sums(self, pieces):
        entries = tuple(sorted(pieces.items(), reverse=True))
        spectrum = GrSpectrum(entries)
        assert spectrum.moment() == sum((w * m for w, m in entries), F(0))
        assert spectrum.second_moment() == sum((w * w * m for w, m in entries), F(0))
        assert type(spectrum.moment()) is type(spectrum.second_moment()) is F


class TestScale:
    def test_identity(self):
        f = two_step(E1)
        assert f.scale(1) == f

    def test_doubling(self):
        assert two_step(E1).scale(2).weights() == (F(1), F(-1))

    def test_halving_flag(self):
        assert full_flag_q3().scale(F(1, 2)).weights() == (F(1, 2), F(0), F(-1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvariantError):
            two_step(E1).scale(0)
        with pytest.raises(InvariantError):
            two_step(E1).scale(-2)

    def test_spectrum_scales(self):
        f = full_flag_q3()
        scaled = f.scale(F(3, 2)).gr_spectrum()
        assert scaled.entries == tuple(
            (w * F(3, 2), m) for w, m in f.gr_spectrum().entries
        )


class TestBalance:
    def test_trivial_is_balanced(self):
        assert Filtration.trivial(3).is_balanced()

    def test_symmetric_weights_balanced(self):
        assert two_step(E1).is_balanced()

    def test_unbalanced(self):
        f = Filtration(2, ((F(1), E1), (F(0), Subspace.full(2))))
        assert not f.is_balanced()

    def test_shift_noop_when_balanced(self):
        f = two_step(E1)
        assert f.balance_shift() == f

    def test_shift_two_step(self):
        f = Filtration(2, ((F(1), E1), (F(0), Subspace.full(2))))
        assert f.balance_shift().weights() == (F(1, 2), F(-1, 2))

    def test_shift_rank_one(self):
        f = Filtration.trivial(1, 3)
        assert f.balance_shift().weights() == (F(0),)

    def test_shift_always_balances(self):
        rng = random.Random(5)
        for _ in range(40):
            rank = rng.randint(1, 4)
            f = random_balanced_filtration(rng, rank)
            bumped = Filtration(
                f.ambient_dim, tuple((w + F(3, 7), s) for w, s in f.steps)
            )
            assert bumped.balance_shift().is_balanced()

    @given(st.lists(
        st.tuples(st.fractions(-5, 5, max_denominator=12), st.integers(1, 4)),
        min_size=1, max_size=5,
    ))
    def test_balanced_is_balanced_and_one_shift_away(self, pairs):
        weights, mults = zip(*pairs)
        out = balanced(weights, mults)
        assert sum(w * m for w, m in zip(out, mults)) == 0
        assert len({w - v for w, v in zip(weights, out)}) == 1

    @given(st.lists(st.tuples(rational_inputs(), st.integers(1, 4)), min_size=1, max_size=6))
    def test_balanced_matches_the_fraction_sum(self, pairs):
        weights, mults = zip(*pairs)
        out = balanced(weights, mults)
        assert out == reference_balanced(weights, mults)
        assert all(type(w) is Fraction for w in out)


class TestWeightConversion:
    def test_keeps_a_passed_fraction(self):
        top, bottom = F(1, 2), F(-1, 2)
        f = Filtration(2, ((top, E1), (bottom, Subspace.full(2))))
        assert f.weights()[0] is top and f.weights()[1] is bottom

    def test_converts_ints_and_strings(self):
        f = Filtration(2, ((1, E1), ("-1/3", Subspace.full(2))))
        assert f.weights() == (F(1), F(-1, 3))
        assert all(type(w) is Fraction for w in f.weights())

    def test_spectrum_keeps_a_passed_fraction(self):
        top = F(1, 2)
        spectrum = GrSpectrum(((top, 1), ("-1/2", 1)))
        assert spectrum.entries[0][0] is top
        assert spectrum.entries[1] == (F(-1, 2), 1) and type(spectrum.entries[1][0]) is Fraction


def joint_dims(f, g):
    """dim gr_a^F gr_b^G by weight pair (a, b), from the nonzero table entries."""
    return {(a, b): m for a, b, m in joint_multiplicity_table(f, g)}


class TestJointGr:
    def test_trivial_pair(self):
        f = Filtration.trivial(2)
        assert joint_dims(f, f) == {(F(0), F(0)): 2}

    def test_distinct_lines(self):
        dims = joint_dims(two_step(E1), two_step(E2))
        assert dims.get((F(1, 2), F(-1, 2)), 0) == 1
        assert dims.get((F(1, 2), F(1, 2)), 0) == 0

    def test_coincident_lines(self):
        dims = joint_dims(two_step(E1), two_step(E1))
        assert dims.get((F(1, 2), F(1, 2)), 0) == 1
        assert dims.get((F(1, 2), F(-1, 2)), 0) == 0

    def test_off_jump_weights_vanish(self):
        f, g = two_step(E1), two_step(E2)
        assert (F(1, 3), F(1, 2)) not in joint_dims(f, g)

    def test_sums_to_rank_and_symmetric(self):
        rng = random.Random(9)
        for _ in range(30):
            rank = rng.randint(1, 4)
            f = random_balanced_filtration(rng, rank)
            g = random_balanced_filtration(rng, rank)
            assert sum(joint_dims(f, g).values()) == rank
            matrix = joint_step_multiplicities(f, g)
            assert sum(map(sum, matrix)) == rank
            assert joint_step_multiplicities(g, f) == tuple(zip(*matrix))

    def test_table_matches_pointwise(self):
        rng = random.Random(21)
        for _ in range(20):
            rank = rng.randint(2, 4)
            f = random_balanced_filtration(rng, rank)
            g = random_balanced_filtration(rng, rank)
            expected = reference_joint_step_multiplicities(f, g)
            table = joint_dims(f, g)
            for s, a in enumerate(f.weights()):
                for t, b in enumerate(g.weights()):
                    assert table.get((a, b), 0) == expected[s][t]


def product(f, g):
    """The pairing <F, G> = sum a*b*dim(gr_a^F gr_b^G), read from c2.

    On two components with D1.D2 = 1 and D1^2 = D2^2 = 0 the pairing
    route gives c2 = -1/2 (<F, G> + <G, F>) = -<F, G>.
    """
    config = DivisorConfiguration(("A", "B"), (F(1), F(1)), ((0, 1), (1, 0)))
    return -c2_trivial(FilteredConfiguration(f.ambient_dim, (f, g)), config)


class TestProduct:
    def test_trivial_annihilates(self):
        f = Filtration.trivial(2)
        assert product(f, two_step(E2)) == 0

    def test_distinct_lines(self):
        assert product(two_step(E1), two_step(E2)) == F(-1, 2)

    def test_coincident_lines(self):
        assert product(two_step(E1), two_step(E1)) == F(1, 2)

    def test_symmetry_and_scaling(self):
        rng = random.Random(13)
        for _ in range(25):
            rank = rng.randint(1, 4)
            f = random_balanced_filtration(rng, rank)
            g = random_balanced_filtration(rng, rank)
            assert product(f, g) == product(g, f)
            lam, mu = F(2), F(1, 3)
            assert product(f.scale(lam), g.scale(mu)) == lam * mu * product(f, g)

    def test_self_product_is_second_moment(self):
        rng = random.Random(17)
        for _ in range(25):
            f = random_balanced_filtration(rng, rng.randint(1, 4))
            assert product(f, f) == f.gr_spectrum().second_moment()
            assert product(f, f) >= 0


class TestInducedDegreeVector:
    def test_full_space_gives_spectrum(self):
        f = two_step(E1)
        assert f.induced_degree_vector(Subspace.full(2)) == f.gr_spectrum().entries

    def test_flag_line(self):
        assert two_step(E1).induced_degree_vector(E1) == ((F(1, 2), 1),)

    def test_other_line(self):
        assert two_step(E1).induced_degree_vector(E2) == ((F(-1, 2), 1),)

    def test_multiplicities_sum_to_dim(self):
        rng = random.Random(29)
        for _ in range(30):
            rank = rng.randint(2, 4)
            f = random_balanced_filtration(rng, rank)
            dim = rng.randint(0, rank)
            rows = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(dim)]
            v = span(rows, rank)
            entries = f.induced_degree_vector(v)
            assert all(m > 0 for _, m in entries)
            assert sum(m for _, m in entries) == v.dim
