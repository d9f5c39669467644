"""The integer incidence kernel against the per-step reference formulas."""

import random
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filtstab import (
    Certainty,
    DimensionMismatchError,
    DivisorConfiguration,
    FilteredConfiguration,
    Filtration,
    ShapeMismatchError,
    Subspace,
    candidates_for,
    check_stability,
    joint_step_multiplicities,
    parabolic_degree,
    shape_of,
    span,
)
from filtstab import linalg, upsilon
from filtstab.linalg import ChainIncidence, _rank_growth
from helpers import (
    blown_up_r4,
    candidate_subspaces,
    every_result,
    random_balanced_configuration,
    random_balanced_filtration,
    random_balanced_weights_for,
    random_divisor_config,
    random_invertible_rows,
    random_subspace,
    reference_induced_degree_vector,
    reference_intersection_dim,
    reference_joint_step_multiplicities,
    reference_parabolic_degree,
    sort_key,
    three_planes,
)

F = Fraction


def _flag(rng: random.Random, rank: int, steps: int, height: int = 2) -> Filtration:
    """A random flag with ``steps`` steps and random strictly decreasing weights."""
    flag = random_balanced_filtration(rng, rank, height=height, steps=steps)
    weights = sorted(
        {F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(3 * steps)},
        reverse=True,
    )
    while len(weights) < steps:
        weights.append(weights[-1] - 1)
    return flag.with_weights(sorted(rng.sample(weights, steps), reverse=True))


def _candidates(rng: random.Random, fc: FilteredConfiguration, height: int) -> list[Subspace]:
    """Random subspaces of every dimension (zero and full included), the flag
    steps, and their meets and sums, each once."""
    n = fc.rank
    found = [random_subspace(rng, n, dim, height=height) for dim in range(n + 1)]
    steps = sorted({s for f in fc.filtrations for s in f.spaces()}, key=sort_key)
    found += steps
    for a in steps:
        for b in steps:
            found += [a & b, a + b]
    return list(dict.fromkeys(found))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    st.sampled_from((2, 10**6)),
    st.integers(0, 2**32),
)
def test_kernel_matches_per_step_reference(rank, degree_numerators, height, seed):
    # trivial flags (one step), zero-degree components, steps shared by
    # several flags and entries up to 10^6 all occur
    rng = random.Random(seed)
    flags = tuple(
        _flag(rng, rank, rng.randint(1, rank), height) for _ in degree_numerators
    )
    fc = FilteredConfiguration(rank, flags)
    n = len(flags)
    degrees = tuple(F(d, rng.randint(1, 3)) for d in degree_numerators)
    config = DivisorConfiguration(
        tuple(f"C{i}" for i in range(n)), degrees, tuple((1,) * n for _ in range(n))
    )
    for v in _candidates(rng, fc, height):
        for filt in flags:
            dims = [reference_intersection_dim(v, s) for s in filt.spaces()]
            assert filt.step_mults(v) == tuple(
                here - prev for here, prev in zip(dims, [0] + dims[:-1])
            )
            assert filt.induced_degree_vector(v) == reference_induced_degree_vector(filt, v)
        if 0 < v.dim < rank:
            assert parabolic_degree(v, fc, config) == reference_parabolic_degree(v, fc, config)
    for f in flags:
        for g in flags:
            assert joint_step_multiplicities(f, g) == reference_joint_step_multiplicities(f, g)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.sampled_from((1, 3, 10**6)), st.integers(0, 2**32))
def test_chain_meets_match_intersection_dims(rank, height, seed):
    # a weakly increasing chain: the zero space, repeated members and a top
    # below the full space all occur
    rng = random.Random(seed)
    rows = random_invertible_rows(rng, rank, height)
    dims = sorted(rng.randint(0, rank) for _ in range(rng.randint(1, rank + 1)))
    chain = [span(rows[:d], rank) for d in dims]
    kernel = ChainIncidence.of(chain)
    assert kernel.codims == tuple(rank - d for d in dims)
    probes = [Subspace.zero(rank), Subspace.full(rank), *chain]
    probes += [random_subspace(rng, rank, d, height) for d in range(rank + 1)]
    # subspaces of chain members, which meet the members below them partly
    probes += [span(rows[: d // 2] + [rows[d - 1]], rank) for d in dims if d]
    # the first dim S_s rows of the adapted basis span S_s
    for space in chain:
        assert span(kernel.basis[: space.dim], rank) == space
    for v in probes:
        expected = tuple(reference_intersection_dim(v, s) for s in chain)
        assert tuple(accumulate(kernel.step_mults(v))) == expected
        assert tuple(v.intersection_dim(s) for s in chain) == expected
        # both sides of the rank, whichever one step_mults picks for v
        primal = _rank_growth(v.basis, kernel.functionals)
        assert tuple(v.dim - bisect_left(primal, c) for c in kernel.codims) == expected
        dual = _rank_growth([n for _, n in v.normals()], kernel.basis)
        assert tuple(s.dim - bisect_left(dual, s.dim) for s in chain) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32))
def test_functionals_are_adapted_to_the_flag(rank, seed):
    rng = random.Random(seed)
    flag = _flag(rng, rank, rng.randint(1, rank))
    kernel = ChainIncidence.of(flag.spaces())
    assert kernel.codims == tuple(rank - s.dim for s in flag.spaces())
    assert all(type(x) is int for psi in kernel.functionals for x in psi)
    for space, codim in zip(flag.spaces(), kernel.codims):
        assert span(kernel.functionals[:codim], rank) == space.annihilator()


def test_reweighted_flags_share_the_functionals(monkeypatch):
    rng = random.Random(7)
    flag = random_balanced_filtration(rng, 4, steps=3)
    functionals = flag.incidence.functionals
    weights = random_balanced_weights_for(rng, flag)

    def boom(*args):
        raise AssertionError("a reweighted flag ran an elimination or a normals computation")

    # the steps' normals are cached, so reweighting reassembles the same
    # functionals from them without eliminating or recomputing anything
    monkeypatch.setattr(linalg, "_eliminate", boom)
    monkeypatch.setattr(Subspace._normals, "func", boom)
    reweighted = flag.with_weights(weights), flag.scale(3)
    for copy in reweighted:
        assert copy.incidence.functionals == functionals
        # the adapted basis is built only on a first query from the dual
        # side, and then from the steps' canonical rows alone
        assert "basis" not in copy.incidence.__dict__
        assert copy.incidence.basis == flag.incidence.basis
    monkeypatch.undo()
    assert reweighted[0] == Filtration(4, tuple(zip(weights, flag.spaces())))


def _moved(space: Subspace, g: list[list[int]]) -> Subspace:
    """The image of ``space`` under the invertible map x -> x g."""
    rows = [[sum(map(mul, row, column)) for column in zip(*g)] for row in space.basis]
    return span(rows, space.ambient_dim)


def _moved_configuration(fc: FilteredConfiguration, g) -> FilteredConfiguration:
    return FilteredConfiguration(fc.rank, tuple(
        Filtration(fc.rank, tuple((w, _moved(s, g)) for w, s in f.steps))
        for f in fc.filtrations
    ))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32))
def test_graded_incidence_is_invariant_under_gl(rank, seed):
    # one g in GL_r(Q) applied to every flag step and every probe keeps
    # every intersection dimension, on both sides of the rank
    rng = random.Random(seed)
    flags = tuple(_flag(rng, rank, rng.randint(1, rank), 3) for _ in range(3))
    fc = FilteredConfiguration(rank, flags)
    g = random_invertible_rows(rng, rank, 3)
    moved = _moved_configuration(fc, g)
    for v in _candidates(rng, fc, 3):
        image = _moved(v, g)
        for filt, moved_filt in zip(fc.filtrations, moved.filtrations):
            assert moved_filt.step_mults(image) == filt.step_mults(v)


@pytest.mark.parametrize("rank", [2, 3])
def test_exact_results_are_invariant_under_gl(rank):
    # one g in GL_r(Q) applied to every flag keeps c2 by both routes, the
    # norm and the exact verdict with every degree it observed
    rng = random.Random(70 + rank)
    statuses = set()
    for _ in range(40):
        n = rng.randint(1, 4)
        config = random_divisor_config(rng, n)
        fc = random_balanced_configuration(rng, rank, n)
        *numbers, before = every_result(fc, config)
        moved = _moved_configuration(fc, random_invertible_rows(rng, rank, 3))
        *moved_numbers, after = every_result(moved, config)
        assert moved_numbers == numbers
        assert after.certainty is before.certainty is Certainty.EXACT
        assert after.status == before.status
        assert after.max_observed_degree == before.max_observed_degree
        assert after.observed_degrees == before.observed_degrees
        assert after.metadata["explored"] == before.metadata["explored"]
        statuses.add(before.status)
    assert len(statuses) > 1


def test_rank4_closure_verdict_is_invariant_under_gl():
    # the closure commutes with g while it is not capped, so the closure-only
    # verdict keeps its status, its degrees and its closure size
    rng = random.Random(23)
    documents = [three_planes()] + [
        (random_divisor_config(rng, n), random_balanced_configuration(rng, 4, n, height=2))
        for n in (2, 3, 3, 4)
    ]
    for config, fc in documents:
        before = check_stability(fc, config, samples=0)
        assert not before.metadata["closure_capped"]
        for _ in range(2):
            moved = _moved_configuration(fc, random_invertible_rows(rng, 4, 3))
            after = check_stability(moved, config, samples=0)
            assert after.status == before.status
            assert after.max_observed_degree == before.max_observed_degree
            assert after.observed_degrees == before.observed_degrees
            for key in ("closure_size", "closure_capped"):
                assert after.metadata[key] == before.metadata[key]


def test_ambient_mismatch_rejected():
    flag = Filtration.trivial(3)
    with pytest.raises(DimensionMismatchError):
        flag.step_mults(Subspace.full(2))


def test_three_planes_transversal_has_degree_zero():
    config, fc = three_planes()
    w = span([(1, 0, 0, 0), (0, 0, 1, 0)], 4)
    for filt in fc.filtrations:
        assert filt.step_mults(w) == (1, 1)
    assert parabolic_degree(w, fc, config) == 0
    assert reference_parabolic_degree(w, fc, config) == 0


# (status, witness basis, maximal degree, explored, closure size, distinct
# degrees) at samples=200, seed=5, as computed by the full elimination per
# flag that the column-by-column rank replaced
RANK4_PINNED = {
    "three_planes": ("STABLE", None, F(-1, 2), 600, 3, 5),
    "full-1": ("STABLE", None, F(-211, 120), 1107, 512, 103),
    "mixed-14": ("UNSTABLE", ((3, 0, 8, -3), (0, 1, 2, -2)), F(2, 3), 1109, 512, 64),
    "mixed-31": ("UNSTABLE", ((9, 158, 122, 237),), F(1, 6), 1109, 512, 62),
    "mixed-39": ("SEMISTABLE", ((2, 0, -1, 0),), F(0), 1109, 512, 48),
}


@pytest.mark.parametrize("name", sorted(RANK4_PINNED))
def test_rank4_verdicts_are_pinned(name):
    if name == "three_planes":
        config, fc = three_planes()
    else:
        kind, seed = name.split("-")
        config, fc = blown_up_r4(int(seed), kind == "full")
    verdict = check_stability(fc, config, samples=200, seed=5)
    status, witness, degree, explored, closure_size, distinct = RANK4_PINNED[name]
    assert verdict.status.name == status
    assert (verdict.witness.basis if verdict.witness else None) == witness
    assert verdict.max_observed_degree == degree
    assert verdict.metadata["explored"] == explored
    assert verdict.metadata["closure_size"] == closure_size
    assert verdict.metadata["closure_capped"] == (closure_size == 512)
    assert len(verdict.observed_degrees) == distinct


@pytest.mark.parametrize("rank", [2, 3])
def test_prebuilt_incidences_follow_reweighting(rank):
    rng = random.Random(100 + rank)
    for _ in range(5):
        config = random_divisor_config(rng, 3)
        fc = random_balanced_configuration(rng, rank, 3, nontrivial=True)
        found = candidates_for(fc)
        offsets = shape_of(fc, config).offsets
        # graded incidences: dim gr_s(V) per step, zeros kept, summing to dim V,
        # flat over the slots of the weight shape
        assert found.incidences == tuple(
            tuple(m for f in fc.filtrations for m in f.step_mults(v))
            for v in candidate_subspaces(found)
        )
        for v, incidence in zip(candidate_subspaces(found), found.incidences):
            for f, offset in zip(fc.filtrations, offsets):
                mults = incidence[offset : offset + len(f.steps)]
                assert sum(mults) == v.dim
                assert tuple((w, m) for w, m in zip(f.weights(), mults) if m) == (
                    reference_induced_degree_vector(f, v)
                )
        for _ in range(4):
            reweighted = FilteredConfiguration(
                rank,
                tuple(
                    f.with_weights(random_balanced_weights_for(rng, f))
                    for f in fc.filtrations
                ),
            )
            assert check_stability(reweighted, config, candidates=found) == (
                check_stability(reweighted, config)
            )


def _special_position_shapes() -> list[FilteredConfiguration]:
    """Rank-3 flags whose steps meet in special position, each flag weighted
    len, len - 1, ... along its steps."""
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    full = Subspace.full(3)

    def flag(*rows_per_step):
        spaces = [span(rows, 3) for rows in rows_per_step] + [full]
        return Filtration(3, tuple((F(len(spaces) - s), v) for s, v in enumerate(spaces)))

    shared = [(e1, e2)]
    return [
        # flags that share a plane
        FilteredConfiguration(3, (
            flag([e1], *shared), flag([e2], *shared), flag(*shared), flag([e3]),
        )),
        # a step line inside another flag's plane
        FilteredConfiguration(3, (flag([(1, 1, 0)]), flag([e1, e2]), flag([e3], [e3, e1]))),
        # three step planes through one line
        FilteredConfiguration(3, (
            flag([e1, e2]), flag([e1, e3]), flag([e1], [e1, (0, 1, 1)]), flag([e2]),
        )),
        # repeated flags
        FilteredConfiguration(3, (flag([e1], [e1, e2]),) * 3),
        FilteredConfiguration(3, (flag([e1], [e1, e2]), flag([e1], [e1, e2]), flag([e3]))),
    ]


def _search_shapes(rank: int, seed: int) -> list[FilteredConfiguration]:
    """The search's own coincident, generic and random shapes."""
    rng = random.Random(seed)
    shapes = []
    for kind in upsilon.SHAPE_KINDS * 12:
        fc = upsilon._make_shape(kind, rng, rank, rng.randint(1, 4))
        if not fc.is_trivial:
            shapes.append(fc)
    return shapes


@pytest.mark.parametrize("rank", [2, 3])
def test_containment_incidences_match_the_rank_on_special_shapes(rank):
    # the exact incidences are read from containment of flag steps; on
    # shapes where containment is not generic they must still be the
    # ranked incidences of the generic lines and hyperplanes built for them
    shapes = _search_shapes(rank, 700 + rank)
    if rank == 3:
        shapes += _special_position_shapes()
    for fc in shapes:
        found = candidates_for(fc)
        assert found.exact and len(found.incidences) == len(found.members)
        assert found.incidences == tuple(
            tuple(m for f in fc.filtrations for m in f.step_mults(v))
            for v in candidate_subspaces(found)
        )


def test_prebuilt_set_from_other_flags_rejected():
    config = random_divisor_config(random.Random(3), 2)
    e1, e2 = span([(1, 0)], 2), span([(0, 1)], 2)
    full = Subspace.full(2)

    def flag(line, top):
        return Filtration(2, ((top, line), (-top, full)))

    fc = FilteredConfiguration(2, (flag(e1, F(1, 2)), flag(e2, F(1, 4))))
    found = candidates_for(fc)
    assert check_stability(fc, config, candidates=found) == check_stability(fc, config)
    # the same set of flag steps, but on the other components
    swapped = FilteredConfiguration(2, (flag(e2, F(1, 2)), flag(e1, F(1, 4))))
    other = FilteredConfiguration(2, (flag(e1, F(1, 2)), flag(span([(1, 1)], 2), F(1, 4))))
    for wrong in (swapped, other):
        with pytest.raises(ShapeMismatchError):
            check_stability(wrong, config, candidates=found)
