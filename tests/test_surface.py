import random
from fractions import Fraction

import pytest

from filtstab import (
    CoverageError,
    DivisorConfiguration,
    InvariantError,
    PlaneArrangement,
    blow_up,
    crossing_points,
)
from filtstab.fixtures import three_concurrent_lines, three_generic_lines
from helpers import non_surface_config, random_arrangement, random_realizable_config

F = Fraction


class TestValidation:
    def test_single_component(self):
        # construction runs every invariant check
        DivisorConfiguration(("C",), (F(1),), ((1,),))

    def test_two_lines(self):
        DivisorConfiguration(("L1", "L2"), (F(1), F(1)), ((1, 1), (1, 1)))

    def test_asymmetric_rejected(self):
        with pytest.raises(InvariantError, match=r"asymmetric.*\(0,1\)"):
            DivisorConfiguration(("A", "B"), (F(1), F(1)), ((1, 2), (1, 1)))

    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(InvariantError):
            DivisorConfiguration(("A", "B"), (F(1), F(1)), ((1, -1), (-1, 1)))

    def test_negative_degree_rejected(self):
        with pytest.raises(InvariantError):
            DivisorConfiguration(("A",), (F(-1),), ((1,),))

    def test_negative_self_intersection_allowed(self):
        DivisorConfiguration(("E",), (F(1, 10),), ((-1,),))

    def test_wrong_matrix_size(self):
        with pytest.raises(InvariantError):
            DivisorConfiguration(("A", "B"), (F(1), F(1)), ((1,),))


class TestCrossingPoints:
    def test_single_component_none(self):
        config = DivisorConfiguration(("C",), (F(1),), ((1,),))
        assert crossing_points(config) == ()

    def test_two_lines(self):
        config = DivisorConfiguration(("L1", "L2"), (F(1), F(1)), ((1, 1), (1, 1)))
        assert crossing_points(config) == (((0, 1), 1),)

    def test_two_conics(self):
        config = DivisorConfiguration(("Q1", "Q2"), (F(2), F(2)), ((4, 4), (4, 4)))
        assert crossing_points(config) == (((0, 1), 4),)

    def test_disjoint_pair_skipped(self):
        config = DivisorConfiguration(("A", "B"), (F(1), F(1)), ((1, 0), (0, 1)))
        assert crossing_points(config) == ()


class TestArrangement:
    def test_point_needs_two_curves(self):
        with pytest.raises(InvariantError):
            PlaneArrangement((("L", 1),), (("p", ("L",)),))

    def test_unknown_curve(self):
        with pytest.raises(InvariantError):
            PlaneArrangement((("L", 1),), (("p", ("L", "M")),))

    def test_coverage_violated(self):
        # two lines can meet only once, so two shared marked points are too many
        with pytest.raises(CoverageError):
            PlaneArrangement(
                (("L1", 1), ("L2", 1)),
                (("p", ("L1", "L2")), ("q", ("L1", "L2"))),
            )

    def test_duplicate_point_id(self):
        with pytest.raises(InvariantError):
            PlaneArrangement(
                (("L1", 1), ("L2", 1), ("L3", 1)),
                (("p", ("L1", "L2")), ("p", ("L1", "L3"))),
            )


class TestBlowUp:
    def test_no_points_keeps_plane_numbers(self):
        arr = PlaneArrangement((("L", 1), ("Q", 2)), ())
        config = blow_up(arr, F(1, 10))
        assert config.names == ("L", "Q")
        assert config.degrees == (F(1), F(2))
        assert config.intersection == ((1, 2), (2, 4))

    def test_single_conic(self):
        arr = PlaneArrangement((("Q", 2),), ())
        config = blow_up(arr, F(1, 100))
        assert config.intersection == ((4,),)
        assert config.degrees == (F(2),)

    def test_three_concurrent_lines(self):
        config = blow_up(three_concurrent_lines(), F(1, 10))
        assert config.names == ("L1", "L2", "L3", "E_p")
        assert config.degrees == (F(9, 10), F(9, 10), F(9, 10), F(1, 10))
        assert config.intersection == (
            (0, 0, 0, 1),
            (0, 0, 0, 1),
            (0, 0, 0, 1),
            (1, 1, 1, -1),
        )

    def test_epsilon_must_be_positive(self):
        with pytest.raises(InvariantError):
            blow_up(three_concurrent_lines(), F(0))
        with pytest.raises(InvariantError):
            blow_up(three_concurrent_lines(), F(-1, 10))

    def test_oversized_epsilon_rejected(self):
        with pytest.raises(InvariantError):
            blow_up(three_concurrent_lines(), F(2))

    def test_output_always_validates(self):
        rng = random.Random(3)
        for _ in range(25):
            # the constructor of the result runs every invariant check
            blow_up(random_arrangement(rng), F(1, 100))

    def test_intersection_conservation(self):
        rng = random.Random(4)
        for _ in range(25):
            arr = random_arrangement(rng)
            config = blow_up(arr, F(1, 100))
            names = [n for n, _ in arr.curves]
            degrees = dict(arr.curves)
            nc = len(names)
            for i in range(nc):
                for j in range(i + 1, nc):
                    shared = sum(
                        1
                        for _, incident in arr.points
                        if names[i] in incident and names[j] in incident
                    )
                    assert config.intersection[i][j] + shared == (
                        degrees[names[i]] * degrees[names[j]]
                    )

    def test_degrees_affine_in_epsilon(self):
        arr = three_concurrent_lines()
        eps1, eps2 = F(1, 10), F(1, 4)
        d1 = blow_up(arr, eps1).degrees
        d2 = blow_up(arr, eps2).degrees
        dm = blow_up(arr, (eps1 + eps2) / 2).degrees
        assert all(a + b == 2 * m for a, b, m in zip(d1, d2, dm))



class TestHodgeWitness:
    def test_surfaces_have_none(self):
        configs = [
            three_generic_lines()[0],
            blow_up(three_concurrent_lines(), F(1, 10)),
            blow_up(three_concurrent_lines(), F(1, 100)),
        ]
        rng = random.Random(90)
        configs += [random_realizable_config(rng) for _ in range(50)]
        assert all(config.hodge_witness() is None for config in configs)

    def test_a_matrix_no_surface_has_gets_a_witness(self):
        config = non_surface_config()
        witness = config.hodge_witness()
        assert all(type(x) is int for x in witness)
        assert sum(d * y for d, y in zip(config.degrees, witness)) == 0
        assert config.pairing(witness) > 0

    def test_a_zero_pivot_is_moved_off_zero(self):
        # the normal (1, -1) of d = (1, 1) is isotropic for this M but pairs
        # with nothing else; the one below pairs with (0, 0, 1)
        config = DivisorConfiguration(("A", "B"), (F(1), F(1)), ((1, 1), (1, 1)))
        assert config.hodge_witness() is None
        config = DivisorConfiguration(
            ("A", "B", "C"), (F(1), F(1), F(0)), ((1, 1, 1), (1, 1, 0), (1, 0, 0))
        )
        witness = config.hodge_witness()
        assert witness is not None and witness[0] + witness[1] == 0
        assert config.pairing(witness) > 0
