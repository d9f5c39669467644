import dataclasses
import itertools
import math
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

import filtstab.linalg as linalg
import filtstab.stability as stability
import filtstab.upsilon as upsilon
from filtstab import (
    BGIViolationError,
    Certainty,
    DegenerateDegreeError,
    DivisorConfiguration,
    EmptyConeError,
    FilteredConfiguration,
    Filtration,
    NoStableConfigurationError,
    ShapeMismatchError,
    SingularFormError,
    StabilityVerdict,
    Status,
    Subspace,
    UpsilonEstimate,
    assemble_quadratics,
    blow_up,
    c2_number,
    c2_trivial,
    candidates_for,
    check_stability,
    derive_tables,
    inner_minimize,
    norm_sq,
    outer_search,
    parabolic_degree,
    rationalize,
    shape_of,
    span,
    stability_cone,
)
from filtstab.filtration import balanced
from filtstab.fixtures import three_concurrent_lines, three_generic_lines, two_lines
from filtstab.serialize import estimate_to_doc
from helpers import (
    balance_rows,
    non_surface_config,
    pairing_forms,
    random_balanced_configuration,
    random_balanced_weights_for,
    random_divisor_config,
    candidate_subspaces,
    reference_balance_nullspace,
    reference_balanced_cone,
    reference_cone_minimum,
    reference_cone_width,
    reference_phase1_empty,
    reference_rationalize,
    reference_stability_cone,
)

F = Fraction


def solve_shape(shape, config, counts, solved):
    """One shape through the search's solve and check, at the default settings."""
    return upsilon._solve_shape(shape, config, counts, 2000, 0, solved)


def two_step(line, top=F(1, 2)):
    return Filtration(2, ((top, line), (-top, Subspace.full(2))))


@pytest.fixture
def no_float_solve(monkeypatch):
    """Make the float solve's first calls raise: a test using this proves it never ran."""
    def refuse(*args, **kwargs):
        raise AssertionError("float solver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)


def search_shapes(config, rank, seed, budget=40):
    """The non-trivial shapes of one search's generated stream, in order."""
    rng = random.Random(seed)
    for kind in itertools.islice(itertools.cycle(upsilon.SHAPE_KINDS), budget):
        fc = upsilon._make_shape(kind, rng, rank, config.n_components)
        if fc is not None and not fc.is_trivial:
            yield fc


def search_problems(config, rank, seed, budget=40):
    """Every distinct (quadratic pair, cone) of one search's shape stream.

    Each comes with the candidate incidences its cone was built from.
    """
    problems = {}
    for fc in search_shapes(config, rank, seed, budget):
        qp = assemble_quadratics(fc, config)
        incidences = candidates_for(fc).incidences
        cone = stability_cone(qp.shape, incidences)
        problems.setdefault((qp, frozenset(cone)), (cone, incidences))
    return [(qp, cone, incidences) for (qp, _), (cone, incidences) in problems.items()]


def interior_point(shape, cone):
    """The integer balance coordinates inside ``cone`` that the solve starts
    from, as :func:`inner_minimize` finds them, or None for an empty cone."""
    return upsilon._interior(upsilon._seed_coordinates(shape), cone)


@pytest.fixture
def simplexes(monkeypatch):
    """Record the rows of every exact simplex run; the real one still runs."""
    calls = []
    original = upsilon.open_cone_point

    def counted(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(upsilon, "open_cone_point", counted)
    return calls


def search_configs():
    """The triangle and the blown-up concurrent triple, as the search workloads use them."""
    return [three_generic_lines()[0], blow_up(three_concurrent_lines(), F(1, 10))]


def degree_denominator(shape):
    """L, the lcm of the shape's degree denominators, over which the cone rows are integers."""
    return math.lcm(*(d.denominator for d in shape.degrees))


def free_slot_basis(shape):
    """The vectors e_slot - (m / m0) e_first of ``shape.free_slots``, in ``Fraction``."""
    basis = []
    for first, slot, m0, m in shape.free_slots:
        vec = [F(0)] * shape.size
        vec[slot], vec[first] = F(1), -F(m, m0)
        basis.append(tuple(vec))
    return basis


def conic_shape():
    # its flag line has degree 2 * w_top > 0 for every strictly ordered
    # balanced weighting, so no weights are stable
    config = DivisorConfiguration(("Q",), (F(2),), ((4,),))
    return FilteredConfiguration(2, (two_step(span([(1, 0)], 2)),)), config


def single_conic():
    fc, config = conic_shape()
    qp = assemble_quadratics(fc, config)
    return qp, stability_cone(qp.shape, candidates_for(fc).incidences)


class TestAssembleQuadratics:
    def test_single_trivial_filtration(self):
        config = DivisorConfiguration(("C",), (F(3),), ((0,),))
        fc = FilteredConfiguration(2, (Filtration.trivial(2),))
        qp = assemble_quadratics(fc, config)
        assert qp.terms == ()
        assert qp.shape.norm_value((F(1),)) == 6  # rank * degree

    def test_two_lines_reproduces_zero(self):
        config, fc = two_lines()
        qp = assemble_quadratics(fc, config)
        w = (F(1, 2), F(-1, 2), F(1, 2), F(-1, 2))
        assert qp.c2_value(w) == 0
        assert qp.shape.norm_value(w) == norm_sq(fc, config)

    def test_three_lines_value(self):
        config, fc = three_generic_lines()
        qp = assemble_quadratics(fc, config)
        w = (F(1, 2), F(-1, 2)) * 3
        assert qp.c2_value(w) == F(3, 4)
        assert qp.shape.norm_value(w) == F(3, 2)

    def test_quadratics_agree_with_exact_routes(self):
        rng = random.Random(211)
        for _ in range(25):
            rank = rng.randint(1, 3)
            n = rng.randint(1, 4)
            config = random_divisor_config(rng, n)
            fc = random_balanced_configuration(rng, rank, n)
            qp = assemble_quadratics(fc, config)
            # a second, independent weight assignment on the same flags
            reweighted = []
            for filt in fc.filtrations:
                weights = random_balanced_weights_for(rng, filt)
                reweighted.append(filt.with_weights(weights))
            other = FilteredConfiguration(rank, tuple(reweighted))
            flat = tuple(w for f in other.filtrations for w in f.weights())
            tables = c2_number(derive_tables(other, config), config)
            assert qp.c2_value(flat) == tables.c2
            norm = sum(
                (f.gr_spectrum().second_moment() * d
                 for f, d in zip(other.filtrations, config.degrees)),
                F(0),
            )
            assert qp.shape.norm_value(flat) == norm

    def test_balanced_forms_match_the_pairing(self):
        # A[(i,s),(j,t)] = -1/2 * m^{ij}_{st} * D_i.D_j over ordered pairs; in
        # the integer columns E_j = m0 times free slot j's basis vector,
        # C = 4 E^T A E and N = s E^T diag(B) E
        rng = random.Random(223)
        for _ in range(25):
            rank = rng.randint(1, 3)
            n = rng.randint(1, 4)
            config = random_divisor_config(rng, n)
            fc = random_balanced_configuration(rng, rank, n)
            qp = assemble_quadratics(fc, config)
            dense, diagonal = pairing_forms(fc, config)
            flat = qp.shape.seed_weights
            assert qp.c2_value(flat) == sum(
                (dense[p][q] * flat[p] * flat[q]
                 for p in range(len(flat)) for q in range(len(flat))),
                F(0),
            )
            assert diagonal == [
                m * d for mults, d in zip(qp.shape.mults, config.degrees) for m in mults
            ]
            columns = [
                [m0 * x for x in vec]
                for (_, _, m0, _), vec in zip(qp.shape.free_slots, free_slot_basis(qp.shape))
            ]
            c, n_form, scale = qp.balanced_forms()
            slots = range(qp.shape.size)
            assert c == tuple(
                tuple(4 * sum(u[p] * dense[p][q] * v[q] for p in slots for q in slots)
                      for v in columns)
                for u in columns
            )
            assert n_form == tuple(
                tuple(scale * sum(u[p] * diagonal[p] * v[p] for p in slots) for v in columns)
                for u in columns
            )
            assert scale == degree_denominator(qp.shape)
            assert all(type(x) is int for row in c + n_form for x in row)

    def test_one_elimination_per_crossing_pair(self, monkeypatch):
        # diagonal blocks come from the step multiplicities, and each
        # unordered pair of meeting components is eliminated once
        calls = []
        module = sys.modules[assemble_quadratics.__module__]
        real = module.joint_step_multiplicities

        def counting(f, g):
            calls.append((f, g))
            return real(f, g)

        monkeypatch.setattr(module, "joint_step_multiplicities", counting)
        config, fc = three_generic_lines()
        assemble_quadratics(fc, config)
        assert len(calls) == 3
        calls.clear()
        config = DivisorConfiguration(
            ("A", "B", "C"), (F(1),) * 3, ((1, 1, 0), (1, -1, 0), (0, 0, 2))
        )
        assemble_quadratics(fc, config)
        assert len(calls) == 1

    def test_balance_rows_encode_multiplicities(self):
        config, fc = three_generic_lines()
        qp = assemble_quadratics(fc, config)
        assert qp.shape.mults == tuple(f.mults for f in fc.filtrations) == ((1, 1),) * 3
        assert qp.shape.offsets == (0, 2, 4)
        rows = balance_rows(qp.shape)
        assert rows == [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)]
        assert qp.shape.free_slots == ((0, 1, 1, 1), (2, 3, 1, 1), (4, 5, 1, 1))
        for vec in free_slot_basis(qp.shape):
            assert all(sum(map(mul, row, vec)) == 0 for row in rows)

    def test_balance_nullspace_is_the_eliminated_basis(self):
        rng = random.Random(13)
        for _ in range(30):
            rank, n = rng.randint(1, 4), rng.randint(1, 4)
            fc = random_balanced_configuration(rng, rank, n)
            qp = assemble_quadratics(fc, random_divisor_config(rng, n))
            basis = free_slot_basis(qp.shape)
            assert basis == reference_balance_nullspace(qp.shape)
            assert len(basis) == qp.shape.size - n

    def test_balanced_weights_are_their_free_slots(self):
        # a balanced w is sum w[slot] (e_slot - (m / m0) e_first), so the
        # solve reads a start's balance coordinates w[slot] / m0 at its free
        # slots, with no least-squares projection
        rng = random.Random(17)
        multiplicities = set()
        for _ in range(200):
            rank, n = rng.randint(2, 4), rng.randint(1, 4)
            shape = shape_of(
                random_balanced_configuration(rng, rank, n), random_divisor_config(rng, n)
            )
            basis = free_slot_basis(shape)
            spread = upsilon._balanced_weights(shape, [F(j) for j in range(shape.size)])
            for w in (shape.seed_weights, spread):
                assert all(sum(map(mul, row, w)) == 0 for row in balance_rows(shape))
                rebuilt = [F(0)] * shape.size
                for (_, slot, _, _), vec in zip(shape.free_slots, basis):
                    rebuilt = [x + w[slot] * y for x, y in zip(rebuilt, vec)]
                assert tuple(rebuilt) == w
            multiplicities.update(m0 for _, _, m0, _ in shape.free_slots)
        assert max(multiplicities) > 1


    def test_from_balance_is_the_free_slot_sum(self):
        # from_balance(x) = sum x_j m0 (e_slot - (m / m0) e_first), balanced,
        # in ints for int coordinates and in floats for float ones
        rng = random.Random(19)
        multiplicities = set()
        for _ in range(200):
            rank, n = rng.randint(1, 4), rng.randint(1, 4)
            shape = shape_of(
                random_balanced_configuration(rng, rank, n), random_divisor_config(rng, n)
            )
            x = [rng.randint(-9, 9) for _ in shape.free_slots]
            expected = [F(0)] * shape.size
            for xj, (_, _, m0, _), vec in zip(x, shape.free_slots, free_slot_basis(shape)):
                expected = [e + xj * m0 * y for e, y in zip(expected, vec)]
            w = shape.from_balance(x)
            assert w == tuple(expected) and all(type(v) is int for v in w)
            assert all(sum(map(mul, row, w)) == 0 for row in balance_rows(shape))
            assert shape.from_balance([F(xj, 3) for xj in x]) == tuple(F(e, 3) for e in w)
            assert shape.to_balance(shape.from_balance([F(xj, 3) for xj in x])) == tuple(
                F(xj, 3) for xj in x
            )
            assert shape.from_balance(list(map(float, x))) == tuple(map(float, w))
            multiplicities.update(m0 for _, _, m0, _ in shape.free_slots)
        assert max(multiplicities) > 1


class TestInnerMinimize:
    def test_identical_forms_give_ratio_one(self):
        # self-intersection -2 with degree 1 makes A equal to B exactly
        config = DivisorConfiguration(("C",), (F(1),), ((-2,),))
        fc = FilteredConfiguration(2, (two_step(span([(1, 0)], 2)),))
        qp = assemble_quadratics(fc, config)
        assert qp.terms == ((0, 0, -2), (1, 1, -2))
        # w = (-x, x): 4 c2 = 8 x^2 and ||F||^2 = 2 x^2, so C / 4 = N / s
        assert qp.balanced_forms() == (((8,),), ((2,),), 1)
        result = inner_minimize(qp, stability_cone(qp.shape, ()))
        assert result.ratio == pytest.approx(1.0, abs=1e-9)
        assert not result.boundary

    def test_single_conic_has_an_empty_cone(self, no_float_solve):
        config = DivisorConfiguration(("Q",), (F(2),), ((4,),))
        with pytest.raises(EmptyConeError):
            inner_minimize(*single_conic())
        with pytest.raises(NoStableConfigurationError) as info:
            outer_search(config, rank=2, budget=12, seed=4)
        log = info.value.search_log
        assert log["candidates"] > 0
        assert log["empty_cone"] == log["candidates"]

    def test_the_descent_reaches_the_face_walk_minimum(self):
        # every non-empty rank-2 problem of both search documents at seed 3;
        # each minimum lies on the cone's boundary
        solved = 0
        for config in search_configs():
            for qp, cone, incidences in search_problems(config, 2, 3):
                if interior_point(qp.shape, cone) is not None:
                    result = inner_minimize(qp, cone)
                    assert result.boundary
                    weight_rows = reference_stability_cone(qp.shape, incidences)
                    assert result.ratio == pytest.approx(
                        reference_cone_minimum(qp, weight_rows), abs=1e-9
                    )
                    solved += 1
        assert solved == 5

    def test_the_descent_reaches_the_face_walk_minimum_at_rank_3(self):
        # the walk is slow at rank 3, so it covers two boundary problems
        solved = 0
        for qp, cone, incidences in search_problems(three_generic_lines()[0], 3, 3):
            if solved < 2 and interior_point(qp.shape, cone) is not None:
                result = inner_minimize(qp, cone)
                if result.boundary:
                    weight_rows = reference_stability_cone(qp.shape, incidences)
                    assert result.ratio == pytest.approx(
                        reference_cone_minimum(qp, weight_rows), abs=1e-9
                    )
                    solved += 1
        assert solved == 2

    def test_every_descent_stops_far_below_its_step_cap(self, monkeypatch):
        # each step solves one face eigenproblem, so eigh calls count steps;
        # a descent that dropped the wrong row would cycle up to the cap
        calls, steps = [], []
        real_eigh, real_descend = np.linalg.eigh, upsilon._descend

        def eigh(matrix):
            calls.append(matrix)
            return real_eigh(matrix)

        def descend(c, walls, x):
            before = len(calls)
            out = real_descend(c, walls, x)
            steps.append(len(calls) - before)
            return out

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(upsilon, "_descend", descend)
        for config in search_configs():
            for rank in (2, 3):
                for qp, cone, _ in search_problems(config, rank, 3):
                    if interior_point(qp.shape, cone) is not None:
                        inner_minimize(qp, cone)
        assert steps and max(steps) <= 12 < upsilon._DESCENT_STEPS

    def test_a_rank_3_search_loads_numpy_and_not_scipy(self):
        code = (
            "import sys\n"
            "from filtstab import outer_search\n"
            "from filtstab.fixtures import three_generic_lines\n"
            "outer_search(three_generic_lines()[0], rank=3, budget=12, seed=3)\n"
            "print(sorted({m.partition('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['numpy']\n"

    def test_the_ratio_is_c2_over_the_norm_at_its_weights(self):
        # the quotient of C/4 and N/s, here with s = L = 3, is the exact
        # forms' ratio at the returned weights
        config = DivisorConfiguration(
            ("L1", "L2", "L3"), (F(1, 3), F(2, 3), F(1)), ((1, 1, 1),) * 3
        )
        fc = three_generic_lines()[1]
        qp = assemble_quadratics(fc, config)
        assert qp.balanced_forms()[2] == 3
        result = inner_minimize(qp, stability_cone(qp.shape, candidates_for(fc).incidences))
        w = [F(x) for x in result.weights]
        exact = qp.c2_value(w) / qp.shape.norm_value(w)
        assert exact != 0 and result.ratio == pytest.approx(float(exact), rel=1e-9)

    def test_three_lines_feasible_value(self):
        config, fc = three_generic_lines()
        qp = assemble_quadratics(fc, config)
        result = inner_minimize(qp, stability_cone(qp.shape, ()))
        assert result.ratio <= 0.5 + 1e-9

    def test_all_trivial_shape_is_singular(self, no_float_solve):
        config = DivisorConfiguration(("C",), (F(1),), ((1,),))
        fc = FilteredConfiguration(2, (Filtration.trivial(2),))
        qp = assemble_quadratics(fc, config)
        with pytest.raises(SingularFormError):
            inner_minimize(qp, stability_cone(qp.shape, ()))

    def test_degree_zero_component_makes_norm_singular(self, no_float_solve):
        config = DivisorConfiguration(("A", "B"), (F(1), F(0)), ((1, 1), (1, 1)))
        fc = FilteredConfiguration(
            2, (two_step(span([(1, 0)], 2)), two_step(span([(0, 1)], 2)))
        )
        qp = assemble_quadratics(fc, config)
        with pytest.raises(SingularFormError):
            inner_minimize(qp, stability_cone(qp.shape, ()))

    def test_generated_seed_weights_are_feasible(self):
        # every generated flag carries evenly spread balanced weights, which
        # satisfy its step-ordering rows
        config = three_generic_lines()[0]
        for rank in (2, 3):
            for fc in search_shapes(config, rank, 3):
                qp = assemble_quadratics(fc, config)
                weights = qp.shape.seed_weights
                for f in fc.filtrations:
                    if len(f.steps) > 1:
                        assert f.weights() == balanced(upsilon._half_steps(len(f.steps)), f.mults)
                x = qp.shape.to_balance(weights)
                assert all(sum(map(mul, row, x)) < 0 for row in stability_cone(qp.shape, ()))
                assert all(
                    sum(w * m for w, m in zip(weights[qp.shape.offsets[i]:], mults)) == 0
                    for i, mults in enumerate(qp.shape.mults)
                )


class TestExactCone:
    """A point of the stability cone, or a proof that it has none, in integers
    and before any float work."""

    @pytest.mark.parametrize("rank", [2, 3])
    def test_agrees_with_the_highs_width(self, rank):
        outcomes = Counter()
        for config in search_configs():
            for seed in (3, 7):
                for qp, cone, incidences in search_problems(config, rank, seed):
                    weight_rows = reference_stability_cone(qp.shape, incidences)
                    point = interior_point(qp.shape, cone)
                    empty = point is None
                    assert empty == (reference_cone_width(qp, weight_rows) <= 1e-9)
                    outcomes[empty] += 1
                    if point is not None:
                        # integer coordinates strictly inside every row, whose
                        # weights are balanced and inside every weight row
                        assert all(type(x) is int for x in point)
                        assert all(sum(map(mul, row, point)) < 0 for row in cone)
                        weights = qp.shape.from_balance(point)
                        assert not any(
                            sum(map(mul, row, weights)) for row in balance_rows(qp.shape)
                        )
                        assert all(sum(map(mul, row, weights)) < 0 for row in weight_rows)
        assert outcomes[True] and outcomes[False]

    def test_fraction_reference_agrees_and_divisions_are_exact(self, monkeypatch):
        pivots = []
        original = linalg._pivot

        def checked(work, r, c, det):
            top = work[r]
            for row in work:
                assert all((top[c] * x - row[c] * y) % det == 0 for x, y in zip(row, top))
            pivots.append(det)
            original(work, r, c, det)

        monkeypatch.setattr(linalg, "_pivot", checked)
        rng = random.Random(61)
        outcomes = Counter()
        for _ in range(300):
            width, m = rng.randint(1, 4), rng.randint(1, 7)
            rows = [tuple(rng.randint(-4, 4) for _ in range(width)) for _ in range(m)]
            point = linalg.open_cone_point(rows)
            empty = point is None
            assert empty == reference_phase1_empty(rows)
            outcomes[empty] += 1
            if point is not None:
                # the certificate, checked in integers
                assert len(point) == width and all(type(y) is int for y in point)
                assert all(sum(map(mul, row, point)) < 0 for row in rows)
        assert outcomes[True] > 50 and outcomes[False] > 50
        assert len(pivots) > 300 and any(det > 1 for det in pivots)

    def test_opposite_rows_are_empty(self):
        assert linalg.open_cone_point([(2, -1, 3), (-2, 1, -3)]) is None
        rows = [(2, -1, 3), (-2, 1, -2)]
        point = linalg.open_cone_point(rows)
        assert all(sum(map(mul, row, point)) < 0 for row in rows)
        assert linalg.open_cone_point([]) == ()

    def test_a_zero_reduced_row_makes_the_cone_empty(self):
        # the whole plane's incidence (1, 1) gives the weight row K (w_0 + w_1),
        # the balance form of a two-step flag of multiplicities (1, 1), so its
        # row in x is zero and no balanced w has it < 0
        shape = dataclasses.replace(
            single_conic()[0].shape, seed_weights=(F(1, 2), F(-1, 2))
        )
        ordering = stability_cone(shape, ())
        assert ordering == ((1,),)
        assert interior_point(shape, ordering) == (-1,)
        assert shape.from_balance((-1,)) == (1, -1)
        cone = stability_cone(shape, ((1, 1),))
        assert cone == ((0,), (1,))
        assert interior_point(shape, cone) is None
        assert linalg.open_cone_point([(0, 0), (1, 0)]) is None

    def test_a_seed_outside_a_non_empty_cone_goes_to_the_simplex(self, simplexes):
        config, fc = three_generic_lines()
        qp = assemble_quadratics(fc, config)
        incidences = candidates_for(fc).incidences
        cone = stability_cone(qp.shape, incidences)
        # the seed (1/2, -1/2) per flag lies inside, and comes back in integers
        assert interior_point(qp.shape, cone) == (-1, -1, -1)
        assert qp.shape.from_balance((-1, -1, -1)) == (1, -1) * 3
        assert simplexes == []
        # reversed weights break every step-ordering row
        reversed_seed = tuple(-w for w in qp.shape.seed_weights)
        shape = dataclasses.replace(qp.shape, seed_weights=reversed_seed)
        point = interior_point(shape, cone)
        assert len(simplexes) == 1
        assert all(sum(map(mul, row, point)) < 0 for row in cone)
        weights = shape.from_balance(point)
        assert all(
            sum(map(mul, row, weights)) < 0 for row in reference_stability_cone(shape, incidences)
        )

    def test_a_seed_inside_comes_back_times_a_positive_integer(self, simplexes):
        # its balance coordinates w[slot] / m0, scaled to integers, map back to
        # the seed times a positive integer, also on shapes with m0 = 2
        multiplicities = set()
        for config in search_configs():
            for qp, cone, incidences in search_problems(config, 3, 3):
                seed = upsilon._balanced_weights(qp.shape, qp.shape.seed_weights)
                weight_rows = reference_stability_cone(qp.shape, incidences)
                if all(sum(map(mul, row, seed)) < 0 for row in weight_rows):
                    point = qp.shape.from_balance(interior_point(qp.shape, cone))
                    factor = next(F(p) / w for p, w in zip(point, seed) if w)
                    assert factor > 0 and factor.denominator == 1
                    assert point == tuple(factor * w for w in seed)
                    multiplicities.update(m0 for _, _, m0, _ in qp.shape.free_slots)
        assert simplexes == [] and max(multiplicities) > 1

    def test_the_point_depends_on_the_set_of_rows(self, simplexes):
        # reversed seed weights break every step-ordering row, so each
        # non-empty cone goes to the simplex, whose pivots follow row order;
        # the cone's rows come sorted whatever the order of the incidences
        rng = random.Random(43)
        for config in search_configs():
            for rank in (2, 3):
                for qp, cone, incidences in search_problems(config, rank, 3):
                    reversed_seed = tuple(-w for w in qp.shape.seed_weights)
                    shape = dataclasses.replace(qp.shape, seed_weights=reversed_seed)
                    shuffled = list(incidences)
                    rng.shuffle(shuffled)
                    point = interior_point(shape, cone)
                    for other in (incidences[::-1], tuple(shuffled)):
                        assert interior_point(shape, stability_cone(shape, other)) == point
        assert len(simplexes) > 100

    @pytest.mark.parametrize("rank", [2, 3])
    def test_shuffled_cone_rows_give_the_same_search(self, monkeypatch, simplexes, rank):
        config = three_generic_lines()[0]
        expected = outer_search(config, rank=rank, budget=12, seed=21)
        ran = len(simplexes)
        real = upsilon.stability_cone
        monkeypatch.setattr(
            upsilon, "stability_cone", lambda shape, incidences: real(shape, incidences[::-1])
        )
        estimate = outer_search(config, rank=rank, budget=12, seed=21)
        assert len(simplexes) == 2 * ran > 0
        assert estimate.configuration == expected.configuration
        assert estimate.search_log == expected.search_log

    def test_only_the_seed_row_is_scaled_to_integers(self, monkeypatch):
        scaled = []
        original = upsilon.integer_row

        def counted(row):
            scaled.append(row)
            return original(row)

        monkeypatch.setattr(upsilon, "integer_row", counted)
        for qp, _, incidences in search_problems(three_generic_lines()[0], 3, 3):
            before = len(scaled)
            # the cone's rows are integers already, primitive and sorted
            cone = stability_cone(qp.shape, incidences)
            assert len(scaled) == before
            assert list(cone) == sorted(set(cone))
            assert all(math.gcd(*h) == 1 for h in cone)
            seed = upsilon._seed_coordinates(qp.shape)
            upsilon._interior(seed, cone)
            assert scaled[before:] == [seed]
        assert scaled

    def test_an_empty_cone_is_no_solver_failure(self, no_float_solve):
        # EmptyConeError is a proof, raised before any float work, and the
        # search counts it as such
        with pytest.raises(EmptyConeError):
            inner_minimize(*single_conic())
        counts = Counter()
        assert solve_shape(*conic_shape(), counts, {}) is None
        assert counts == {"empty_cone": 1}


class TestStabilityCone:
    @staticmethod
    def shapes(rank, count, seed):
        rng = random.Random(seed)
        while count:
            n = rng.randint(1, 4)
            config = random_divisor_config(rng, n)
            fc = random_balanced_configuration(rng, rank, n)
            if fc.is_trivial:
                continue
            reweighted = FilteredConfiguration(rank, tuple(
                filt.with_weights(random_balanced_weights_for(rng, filt))
                for filt in fc.filtrations
            ))
            count -= 1
            yield config, reweighted

    @pytest.mark.parametrize("rank", [2, 3])
    def test_candidate_rows_are_parabolic_degrees(self, rank):
        # each candidate's weight row gives its parabolic degree, and the
        # cone is those rows in balance coordinates
        for config, fc in self.shapes(rank, 30, 401 + rank):
            exact = candidates_for(fc)
            shape = shape_of(fc, config)
            weight_rows = reference_stability_cone(shape, exact.incidences)
            flat = tuple(w for f in fc.filtrations for w in f.weights())
            for subspace, row in zip(candidate_subspaces(exact), weight_rows):
                value = sum(g * w for g, w in zip(row, flat))
                assert value == parabolic_degree(subspace, fc, config)
            assert stability_cone(shape, exact.incidences) == reference_balanced_cone(
                shape, exact.incidences
            )

    @pytest.mark.parametrize("rank", [2, 3])
    def test_all_rows_negative_exactly_when_stable(self, rank):
        verdicts = set()
        for config, fc in self.shapes(rank, 200, 503 + rank):
            shape = shape_of(fc, config)
            cone = stability_cone(shape, candidates_for(fc).incidences)
            x = shape.to_balance(tuple(w for f in fc.filtrations for w in f.weights()))
            stable = check_stability(fc, config).status is Status.STABLE
            inside = all(sum(map(mul, row, x)) < 0 for row in cone)
            assert inside == stable
            verdicts.add(stable)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("rank", [2, 3])
    def test_rows_are_the_reference_balanced_cone(self, rank):
        # on every shape of the search streams, in any order of the
        # incidences: primitive integer rows, distinct and sorted, also where
        # the degree denominator L > 1
        rng = random.Random(47 + rank)
        scales = []
        for config in search_configs():
            for seed in (3, 7):
                for fc in search_shapes(config, rank, seed):
                    shape = shape_of(fc, config)
                    incidences = candidates_for(fc).incidences
                    shuffled = list(incidences)
                    rng.shuffle(shuffled)
                    cone = stability_cone(shape, incidences)
                    assert cone == reference_balanced_cone(shape, incidences)
                    assert stability_cone(shape, shuffled) == cone
                    assert all(type(x) is int for row in cone for x in row)
                    scales.append(degree_denominator(shape))
        assert len(scales) > 10 and max(scales) > 1


def ordering_cone(shape):
    """The step-ordering rows of ``shape`` alone, and their exact interior point."""
    cone = stability_cone(shape, ())
    return cone, interior_point(shape, cone)


def rounded_point(weights, shape):
    """``weights`` rounded and re-balanced, as :func:`rationalize` does before its step."""
    rounded = [F(float(w)).limit_denominator(upsilon.MAX_DENOMINATOR) for w in weights]
    return upsilon._balanced_weights(shape, rounded)


class TestRationalize:
    def test_small_rationals_unchanged(self):
        config, fc = three_generic_lines()
        shape = shape_of(fc, config)
        cone = stability_cone(shape, candidates_for(fc).incidences)
        w = (F(1, 2), F(-1, 2)) * 3
        assert rationalize(w, shape, cone, interior_point(shape, cone)) == w

    def test_nearest_rational(self):
        # each weight goes to the nearest rational of denominator at most
        # 64, and these are inside the cone, so no step follows
        config, fc = two_lines()
        shape = shape_of(fc, config)
        out = rationalize((0.3334, -0.3334, 0.2857, -0.2857), shape, *ordering_cone(shape))
        assert out == (F(1, 3), F(-1, 3), F(2, 7), F(-2, 7))

    def test_balance_reprojection_is_exact(self):
        # 0.26 and -0.27 round to 13/50 and -17/63, which sum to -31/3150;
        # the shift of 31/6300 each balances them exactly, at a denominator
        # past the rounding grid
        config, fc = two_lines()
        shape = shape_of(fc, config)
        out = rationalize((0.52, -0.48, 0.26, -0.27), shape, *ordering_cone(shape))
        assert out == (F(1, 2), F(-1, 2), F(1669, 6300), F(-1669, 6300))
        for i, mults in enumerate(shape.mults):
            base = shape.offsets[i]
            chunk = out[base : base + len(mults)]
            assert sum(w * m for w, m in zip(chunk, mults)) == 0

    def test_ordering_collapse(self):
        # rounding merges the first flag's steps at (1/4, 1/4), re-balanced
        # to (0, 0); the step along y = (-1, -1), the weights (1, -1, 1, -1),
        # of 1 / (64^2 max |y|) on this face, separates them again
        config, fc = two_lines()
        shape = shape_of(fc, config)
        cone, interior = ordering_cone(shape)
        assert interior == (-1, -1)
        assert shape.from_balance(interior) == (1, -1, 1, -1)
        weights = (0.2501, 0.2499, 0.5, -0.5)
        assert rounded_point(weights, shape) == (0, 0, F(1, 2), F(-1, 2))
        out = rationalize(weights, shape, cone, interior)
        assert out == (F(1, 4096), F(-1, 4096), F(2049, 4096), F(-2049, 4096))
        assert all(sum(map(mul, row, shape.to_balance(out))) < 0 for row in cone)

    def test_a_point_past_a_face_steps_twice_its_distance(self):
        # (-1/8, 1/8) has x = 1/8, which puts the ordering row (1,) at 1/8,
        # and y = (-1,) at -1, so the least t is 1/8 and the step takes
        # twice that, along the weights (1, -1) of y
        config = DivisorConfiguration(("C",), (F(1),), ((1,),))
        fc = FilteredConfiguration(2, (two_step(span([(1, 0)], 2)),))
        shape = shape_of(fc, config)
        cone, interior = ordering_cone(shape)
        assert cone == ((1,),) and interior == (-1,)
        out = rationalize((-0.125, 0.125), shape, cone, interior)
        assert out == (F(1, 8), F(-1, 8))

    @pytest.mark.parametrize("rank", [2, 3])
    def test_stream_minimizers_step_strictly_inside(self, rank):
        # y at peak 1/2 (inside), the solve's minimizer (mostly on a face
        # once rounded) and that minimizer moved away from y (outside), on
        # every problem of the streams: the step taken in balance coordinates
        # is the one taken over the weight rows in Fraction
        kinds = Counter()
        for config in search_configs():
            seen = set()
            for fc in search_shapes(config, rank, 3):
                qp = assemble_quadratics(fc, config)
                candidates = candidates_for(fc)
                cone = stability_cone(qp.shape, candidates.incidences)
                interior = interior_point(qp.shape, cone)
                if interior is None or (qp, cone) in seen:
                    continue
                seen.add((qp, cone))
                inner = inner_minimize(qp, cone)
                assert inner.interior == interior
                weight_rows = reference_stability_cone(qp.shape, candidates.incidences)
                step = qp.shape.from_balance(interior)
                y = np.array(step) / (2 * max(map(abs, step)))
                w = np.array(inner.weights)
                for weights in (y, w, w - y / 10):
                    rounded = rounded_point(weights, qp.shape)
                    top = max(sum(map(mul, row, rounded)) for row in weight_rows)
                    kinds["inside" if top < 0 else "face" if top == 0 else "outside"] += 1
                    out = rationalize(weights, qp.shape, cone, interior)
                    assert out == reference_rationalize(weights, qp.shape, weight_rows, step)
                    assert all(sum(map(mul, row, out)) < 0 for row in weight_rows)
                    assert not any(sum(map(mul, row, out)) for row in balance_rows(qp.shape))
                    verdict = check_stability(
                        upsilon._with_weights(fc, qp.shape, out), config, candidates=candidates
                    )
                    assert (verdict.status, verdict.certainty) == (Status.STABLE, Certainty.EXACT)
        assert set(kinds) == {"inside", "face", "outside"}


class TestOuterSearch:
    @pytest.mark.parametrize("rank", [2, 3])
    def test_one_cone_per_solve(self, monkeypatch, rank):
        # a shape posing a problem solved before builds no cone
        calls = Counter()
        for name in ("stability_cone", "inner_minimize"):
            def counted(*args, real=getattr(upsilon, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(upsilon, name, counted)
        shapes = sum(
            outer_search(config, rank=rank, budget=12, seed=3).search_log["candidates"]
            for config in search_configs()
        )
        assert 0 < calls["stability_cone"] == calls["inner_minimize"] < shapes

    def test_rank_one_finds_nothing(self):
        config = DivisorConfiguration(("C",), (F(1),), ((1,),))
        with pytest.raises(NoStableConfigurationError) as info:
            outer_search(config, rank=1, budget=5, seed=3)
        assert info.value.search_log["budget"] == 5

    def test_three_lines_beats_one_half(self):
        config, _ = three_generic_lines()
        estimate = outer_search(config, rank=2, budget=40, seed=11)
        assert estimate.ratio <= F(1, 2)
        # a float search that screened each point for stability, instead of
        # constraining to the stability cone, stopped at 471/1378 here
        assert estimate.ratio < F(471, 1378)
        assert estimate.verdict.status is Status.STABLE
        assert estimate.c2 >= 0
        assert estimate.norm_sq > 0
        assert estimate.ratio == estimate.c2 / estimate.norm_sq

    def test_two_lines_has_no_stable_configuration(self):
        config, _ = two_lines()
        with pytest.raises(NoStableConfigurationError):
            outer_search(config, rank=2, budget=25, seed=5)

    def test_coincident_only_is_never_stable_here(self, no_float_solve):
        # A proper step F shared by every flag has degree
        # dim F * sum_i deg(D_i) * a_{i,1}, which is > 0 for every balanced,
        # strictly decreasing weighting since outer_search requires positive
        # degrees: every coincident shape has an empty stability cone.
        config, _ = three_generic_lines()
        for rank in (2, 3, 4):
            rng, counts = random.Random(1), Counter()
            for _ in range(3):
                shape = upsilon._make_shape("coincident", rng, rank, config.n_components)
                assert solve_shape(shape, config, counts, {}) is None
            assert counts == {"empty_cone": 3}

    def test_user_supplied_shape(self):
        # the start alone, at budget 1, is the triangle's best shape at seed 3
        config, fc = three_generic_lines()
        estimate = outer_search(config, rank=2, budget=1, seed=3, start=fc)
        assert estimate.ratio == F(8195, 16793606)
        assert estimate.verdict.certainty is Certainty.EXACT
        assert estimate.search_log["candidates"] == 1
        spaces = {f.steps[0][1] for f in estimate.configuration.filtrations}
        assert spaces == {f.steps[0][1] for f in fc.filtrations}

    @pytest.mark.parametrize("weights", [(F(1), F(0)), (F(3, 2), F(1, 2))])
    def test_an_unbalanced_start_is_solved_from_its_balance_shift(self, weights, simplexes):
        # both weightings shift to the triangle's own +-1/2; read unbalanced,
        # (1, 0) would start the solve at zero and (3/2, 1/2) at reversed steps,
        # and the exact cone test would miss the shift inside the cone
        config, fc = three_generic_lines()
        start = FilteredConfiguration(
            2, tuple(f.with_weights(weights) for f in fc.filtrations)
        )
        estimate = outer_search(config, rank=2, budget=1, seed=3, start=start)
        assert simplexes == []
        expected = outer_search(config, rank=2, budget=1, seed=3, start=fc)
        assert estimate.configuration == expected.configuration
        assert estimate.search_log == expected.search_log
        assert estimate.ratio == F(8195, 16793606)

    def test_the_start_is_tried_first_and_once(self):
        # after the start, the stream is the one a search without a start walks
        config, fc = three_generic_lines()

        def counters(budget, start):
            log = outer_search(config, rank=2, budget=budget, seed=3, start=start).search_log
            return Counter({k: v for k, v in log.items() if k not in ("seed", "best_ratio")})

        assert counters(40, fc) == counters(1, fc) + counters(39, None)

    def test_deterministic_for_fixed_seed(self):
        config, _ = three_generic_lines()
        first = outer_search(config, rank=2, budget=15, seed=23)
        second = outer_search(config, rank=2, budget=15, seed=23)
        assert first.configuration == second.configuration
        assert first.ratio == second.ratio
        assert first.search_log == second.search_log

    def test_budget_monotonicity(self):
        config, fc = three_generic_lines()
        ratios = []
        for budget in (10, 25, 40):
            try:
                estimate = outer_search(config, rank=2, budget=budget, seed=29, start=fc)
                ratios.append(estimate.ratio)
            except NoStableConfigurationError:
                ratios.append(None)
        known = [r for r in ratios if r is not None]
        assert known == sorted(known, reverse=True) or all(
            a >= b for a, b in zip(known, known[1:])
        )

    def test_ratio_scale_invariance(self):
        config, _ = three_generic_lines()
        estimate = outer_search(config, rank=2, budget=20, seed=31)
        for lam in (F(2), F(1, 3)):
            scaled = estimate.configuration.scale(lam)
            assert c2_trivial(scaled, config) / norm_sq(scaled, config) == estimate.ratio

    def test_exactness_bridge(self):
        config, _ = three_generic_lines()
        estimate = outer_search(config, rank=2, budget=20, seed=37)
        qp = assemble_quadratics(estimate.configuration, config)
        flat = tuple(
            w for f in estimate.configuration.filtrations for w in f.weights()
        )
        x = [flat[slot] / m0 for _, slot, m0, _ in qp.shape.free_slots]
        assert qp.shape.from_balance(x) == flat
        c, n, scale = qp.balanced_forms()

        def value(matrix, v):
            return sum(a * b * matrix[i][j] for i, a in enumerate(v) for j, b in enumerate(v))

        # exact in the integer forms, and close in their doubles
        assert value(c, x) / 4 / (value(n, x) / scale) == estimate.ratio
        v = np.array([float(y) for y in x])
        float_ratio = value(np.array(c) / 4, v) / value(np.array(n) / scale, v)
        exact = float(estimate.ratio)
        assert abs(float_ratio - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_positive_degrees_required(self):
        config = DivisorConfiguration(("A", "B"), (F(1), F(0)), ((1, 1), (1, 1)))
        with pytest.raises(DegenerateDegreeError):
            outer_search(config, rank=2, budget=2, seed=0)

    def test_a_start_must_match_the_search(self):
        config, fc = three_generic_lines()
        with pytest.raises(ShapeMismatchError):
            outer_search(config, rank=3, budget=2, seed=0, start=fc)
        with pytest.raises(ShapeMismatchError):
            outer_search(two_lines()[0], rank=2, budget=2, seed=0, start=fc)

    def test_rank3_search_is_exact(self):
        config, _ = three_generic_lines()
        estimate = outer_search(config, rank=3, budget=20, seed=7)
        assert estimate.verdict.status is Status.STABLE
        assert estimate.verdict.certainty is Certainty.EXACT
        assert estimate.verdict.metadata["mode"] == "exact3"
        assert estimate.search_log["bgi_rejected"] == 0
        assert estimate.c2 >= 0

    def test_one_closure_per_shape_at_rank_four(self, monkeypatch):
        # the closure gives both the shape's cone and the final check
        calls = []
        original = stability._closure

        def counted(fc, depth, cap):
            calls.append(fc)
            return original(fc, depth, cap)

        monkeypatch.setattr(stability, "_closure", counted)
        config, _ = three_generic_lines()
        estimate = outer_search(config, rank=4, budget=8, seed=0, samples=20)
        assert estimate.search_log["candidates"] == len(calls) == 8

    def test_the_thin_blown_up_triple_attains_zero(self):
        # at epsilon 1/100 the blown-up triple's cones are thinner than the
        # rounding grid 1/64, and every boundary shape still certifies stable
        config = blow_up(three_concurrent_lines(), F(1, 100))
        estimate = outer_search(config, rank=2, budget=40, seed=3)
        log = estimate.search_log
        assert (log["boundary_hits"], log["stable"]) == (18, 18)
        assert estimate.ratio == 0
        assert estimate.attained

    def test_exact_zero_ratio_is_attained(self):
        config = blow_up(three_concurrent_lines(), F(1, 10))
        estimate = outer_search(config, rank=2, budget=40, seed=3)
        assert estimate.ratio == 0
        assert estimate.verdict.certainty is Certainty.EXACT
        assert estimate.lower_bound == 0
        assert estimate.attained
        assert estimate_to_doc(estimate)["lower_bound"] == "0"
        assert estimate_to_doc(estimate)["attained"] is True

    def test_positive_ratio_is_not_attained(self):
        config, _ = three_generic_lines()
        estimate = outer_search(config, rank=2, budget=40, seed=3)
        assert estimate.ratio == F(8195, 16793606)
        assert not estimate.attained
        assert estimate_to_doc(estimate)["lower_bound"] == "0"

    def test_a_heuristic_zero_ratio_is_not_attained(self):
        config, fc = three_generic_lines()
        verdict = StabilityVerdict(Status.STABLE, Certainty.HEURISTIC, None, None, F(-1, 2))
        estimate = UpsilonEstimate(fc, F(0), F(3, 2), F(0), verdict)
        assert not estimate.attained
        with pytest.raises(ShapeMismatchError):
            UpsilonEstimate(fc, F(-1), F(1), F(-1), verdict)

    def test_rank3_stable_with_negative_c2_is_a_bgi_violation(self, monkeypatch):
        # an exactly stable candidate with c2 < 0 can only come from a bug,
        # so it stops the search instead of being dropped
        monkeypatch.setattr(
            "filtstab.upsilon.QuadraticPair.c2_value", lambda self, weights: F(-1)
        )
        config, _ = three_generic_lines()
        with pytest.raises(BGIViolationError) as caught:
            outer_search(config, rank=3, budget=20, seed=7)
        assert caught.value.witness is None
        assert str(caught.value).endswith("indicating an implementation bug")

    def test_a_violation_on_numbers_no_surface_has_carries_the_hodge_witness(self):
        config = non_surface_config()
        with pytest.raises(BGIViolationError) as caught:
            outer_search(config, rank=2, budget=12, seed=0)
        witness = caught.value.witness
        assert witness is not None and witness == config.hodge_witness()
        assert f"no surface has these numbers: y = {list(witness)} has degree 0" in str(
            caught.value
        )
        assert f"y^T M y = {config.pairing(witness)} > 0" in str(caught.value)
        assert "implementation bug" not in str(caught.value)


def two_pass_flag(rows, dims, rank):
    """A generated flag as first built: half steps, then a balance shift."""
    spaces = (span(rows[:dim], rank) for dim in dims)
    return Filtration(rank, tuple(zip(upsilon._half_steps(len(dims)), spaces))).balance_shift()


def two_pass_random_flag(rng, rank, min_steps=1):
    k = rng.randint(min_steps, rank)
    if k == 1:
        return Filtration.trivial(rank)
    while True:
        height = upsilon.FLAG_HEIGHT
        rows = [[rng.randint(-height, height) for _ in range(rank)] for _ in range(rank)]
        if span(rows, rank).dim == rank:
            break
    dims = sorted(rng.sample(range(1, rank), k - 1)) + [rank]
    return two_pass_flag(rows, dims, rank)


def two_pass_generic_flag(rank, node):
    rows = [[(node + m) ** j for j in range(rank)] for m in range(rank)]
    return two_pass_flag(rows, list(range(1, rank + 1)), rank)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_generic_flags_are_vandermonde_prefix_spans(rank):
    # the moment-curve points at node, node + 1, ... are the Vandermonde rows
    for node in range(-9, 10):
        rows = [[(node + m) ** j for j in range(rank)] for m in range(rank)]
        spans = tuple(span(rows[:dim], rank) for dim in range(1, rank + 1))
        assert upsilon._generic_flag(rank, node).spaces() == spans


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("seed", [3, 21, 31])
def test_generated_shapes_equal_the_two_pass_construction(monkeypatch, rank, seed):
    # each flag is built once, balanced, with its invertibility span as the
    # last step; the stream and its rng draws are those of the two passes
    def stream():
        rng = random.Random(seed)
        kinds = itertools.islice(itertools.cycle(upsilon.SHAPE_KINDS), 40)
        return [upsilon._make_shape(kind, rng, rank, 3) for kind in kinds]

    built_once = stream()
    monkeypatch.setattr(upsilon, "_random_flag", two_pass_random_flag)
    monkeypatch.setattr(upsilon, "_generic_flag", two_pass_generic_flag)
    assert stream() == built_once


class TestSolveReuse:
    """One inner solve per distinct (quadratic pair, cone set) in a search."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        original = upsilon.inner_minimize

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(upsilon, "inner_minimize", counted)
        return calls

    def test_repeated_shapes_are_solved_once(self, solves):
        config, _ = three_generic_lines()
        estimate = outer_search(config, rank=2, budget=40, seed=3)
        assert len(solves) == 7
        assert estimate.ratio == F(8195, 16793606)
        # every count stays per shape, reused solves included
        assert estimate.search_log == {
            "budget": 40, "seed": 3, "candidates": 40, "proposals": 16, "stable": 16,
            "semistable": 0, "unstable": 0, "bgi_rejected": 0, "skipped_trivial": 0,
            "skipped_singular": 0, "rounding_failures": 0, "empty_cone": 24,
            "boundary_hits": 16, "best_ratio": "8195/16793606",
        }

    def test_rank_3_triangle_search(self, solves):
        # the rank-3 pin of the module entry point: the exact step along y
        # sets the ratio's denominators, far past the rounding grid
        config, _ = three_generic_lines()
        estimate = outer_search(config, rank=3, budget=12, seed=3)
        assert len(solves) == 9
        assert estimate.search_log == {
            "budget": 12, "seed": 3, "candidates": 12, "proposals": 5, "stable": 5,
            "semistable": 0, "unstable": 0, "bgi_rejected": 0, "skipped_trivial": 0,
            "skipped_singular": 0, "rounding_failures": 0, "empty_cone": 7,
            "boundary_hits": 5, "best_ratio": "23045/78694413",
        }

    def test_a_reused_failure_is_counted_per_shape(self, solves):
        config, _ = three_generic_lines()
        rng, counts, solved = random.Random(3), Counter(), {}
        shapes = [
            upsilon._make_shape("coincident", rng, 2, config.n_components) for _ in range(40)
        ]
        assert len(set(shapes)) > 1
        for shape in shapes:
            assert solve_shape(shape, config, counts, solved) is None
        assert len(solves) == 1
        assert counts == {"empty_cone": 40}

    def test_seed_weights_are_part_of_the_key(self, solves):
        config, fc = three_generic_lines()
        halved = fc.scale(F(1, 2))
        counts, solved = Counter(), {}
        for shape in (fc, halved, fc, halved):
            assert solve_shape(shape, config, counts, solved) is not None
        assert len(solves) == 2
        assert counts["proposals"] == 4

    def test_no_state_crosses_searches(self, solves):
        config, _ = three_generic_lines()
        counts = []
        for _ in range(2):
            before = len(solves)
            outer_search(config, rank=2, budget=40, seed=3)
            counts.append(len(solves) - before)
        assert counts == [7, 7]
