import random
from collections import Counter
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
from filtstab.linalg import span
from helpers import (
    a3_arrangement,
    hesse_arrangement,
    non_surface_config,
    random_arrangement,
    random_realizable_config,
)

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

    def test_degrees_are_fractions_and_fractions_are_kept(self):
        degree = F(3, 7)
        config = DivisorConfiguration(("A", "B"), (degree, 2), ((1, 1), (1, 1)))
        assert config.degrees[0] is degree
        assert config.degrees == (F(3, 7), F(2))
        assert all(type(d) is F for d in config.degrees)
        assert config.pairing((1, F(1, 2))) == F(9, 4)


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
        with pytest.raises(InvariantError, match="at least two distinct curves"):
            PlaneArrangement((("L", 1),), (("p", ("L",)),))
        with pytest.raises(InvariantError, match="at least two distinct curves"):
            PlaneArrangement((("L", 1),), (("p", ("L", "L")),))

    def test_a_curve_listed_twice_is_named(self):
        with pytest.raises(InvariantError, match="^point 'p' lists curve 'A' twice$"):
            PlaneArrangement((("A", 1), ("B", 1)), (("p", ("A", "B", "A")),))

    def test_points_on_maps_each_curve_to_its_points(self):
        arr = PlaneArrangement(
            (("A", 1), ("B", 2), ("C", 1), ("D", 1)), (("p", ("A", "B")), ("q", ("C", "B")))
        )
        assert arr.points_on == {
            "A": {"p"}, "B": {"p", "q"}, "C": {"q"}, "D": frozenset()
        }

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
        # every entry and degree against the documented formula, with the
        # marked points on each curve counted here
        rng = random.Random(4)
        eps = F(1, 100)
        for _ in range(25):
            arr = random_arrangement(rng)
            config = blow_up(arr, eps)
            nc, point_ids = len(arr.curves), [pid for pid, _ in arr.points]
            assert config.names == tuple(n for n, _ in arr.curves) + tuple(
                f"E_{pid}" for pid in point_ids
            )
            for i, (name_i, d_i) in enumerate(arr.curves):
                on_i = sum(1 for _, incident in arr.points if name_i in incident)
                assert config.degrees[i] == d_i - eps * on_i
                assert config.intersection[i][i] == d_i * d_i - on_i
                for j, (name_j, d_j) in enumerate(arr.curves):
                    shared = sum(
                        1
                        for _, incident in arr.points
                        if name_i in incident and name_j in incident
                    )
                    assert config.intersection[i][j] == d_i * d_j - shared
                for p, (_, incident) in enumerate(arr.points):
                    hit = 1 if name_i in incident else 0
                    assert config.intersection[i][nc + p] == hit
                    assert config.intersection[nc + p][i] == hit
            for p in range(len(point_ids)):
                assert config.degrees[nc + p] == eps
                for q in range(len(point_ids)):
                    assert config.intersection[nc + p][nc + q] == (-1 if p == q else 0)

    def test_relabelling_permutes_the_blow_up(self):
        # shuffling the curves, the points and each point's curve list only
        # permutes the names, degrees and matrix of the result
        rng = random.Random(5)
        for _ in range(40):
            arr = random_arrangement(rng)
            curves, points = list(arr.curves), list(arr.points)
            rng.shuffle(curves)
            rng.shuffle(points)
            points = [(pid, tuple(rng.sample(incident, len(incident)))) for pid, incident in points]
            shuffled = PlaneArrangement(tuple(curves), tuple(points))
            config, permuted = blow_up(arr, F(1, 100)), blow_up(shuffled, F(1, 100))
            assert permuted.names == tuple(n for n, _ in curves) + tuple(
                f"E_{pid}" for pid, _ in points
            )
            old = [config.names.index(name) for name in permuted.names]
            assert permuted.degrees == tuple(config.degrees[k] for k in old)
            assert permuted.intersection == tuple(
                tuple(config.intersection[k][m] for m in old) for k in old
            )

    @staticmethod
    def kernel_dim(config):
        """dim ker [M; d]: the classes orthogonal to every component and of degree 0."""
        rows = [*config.intersection, config.degrees]
        return config.n_components - span(rows, config.n_components).dim

    @staticmethod
    def curve_pairs(config, n_curves):
        """How often each intersection number occurs among pairs of distinct curves."""
        return Counter(
            config.intersection[a][b] for a in range(n_curves) for b in range(a + 1, n_curves)
        )

    def test_a3_at_its_triple_points(self):
        config = blow_up(a3_arrangement(), F(1, 10))
        assert config.n_components == 10
        assert config.names[6:] == ("E_p0", "E_p1", "E_p2", "E_p3")
        assert config.degrees == (F(4, 5),) * 6 + (F(1, 10),) * 4
        assert [config.intersection[a][a] for a in range(10)] == [-1] * 6 + [-1] * 4
        assert self.curve_pairs(config, 6) == {0: 12, 1: 3}
        assert config.intersection[0][5] == 1  # L01 . L23 at an unmarked double point
        assert self.kernel_dim(config) == 5
        assert blow_up(a3_arrangement(), F(1, 3)).degrees == (F(1, 3),) * 10

    def test_hesse_at_its_quadruple_points(self):
        config = blow_up(hesse_arrangement(), F(1, 10))
        assert config.n_components == 21
        assert config.degrees == (F(7, 10),) * 12 + (F(1, 10),) * 9
        assert [config.intersection[a][a] for a in range(21)] == [-2] * 12 + [-1] * 9
        assert self.curve_pairs(config, 12) == {0: 54, 1: 12}
        assert all(sum(config.intersection[a][12:]) == 3 for a in range(12))
        assert all(sum(row[:12]) == 4 for row in config.intersection[12:])
        assert self.kernel_dim(config) == 11

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
