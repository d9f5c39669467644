import random
from fractions import Fraction

import pytest

from filtstab import (
    Certainty,
    DegenerateDegreeError,
    DivisorConfiguration,
    FilteredConfiguration,
    Filtration,
    ImproperSubspaceError,
    ShapeMismatchError,
    Status,
    Subspace,
    candidates_for,
    check_stability,
    parabolic_degree,
    span,
)
from filtstab.fixtures import three_generic_lines, two_lines
from filtstab.linalg import sorted_subspaces
from filtstab.stability import (
    CLOSURE_CAP,
    CLOSURE_DEPTH,
    _closure,
    _generic_line,
    _random_rows,
)
from helpers import (
    blown_up_r4,
    brute_force_rank2,
    brute_force_rank3,
    candidate_subspaces,
    every_result,
    random_balanced_configuration,
    random_balanced_filtration,
    random_balanced_weights_for,
    random_divisor_config,
    random_realizable_config,
    random_subspace,
    reference_closure,
    reference_contains,
    reference_generic_hyperplane,
    reference_generic_line,
    reference_parabolic_degree,
    sort_key,
    three_planes,
)

F = Fraction
E1 = span([(1, 0)], 2)


def closed_under(combine, spaces):
    """``spaces`` closed under a pairwise operation, by naive fixpoint iteration."""
    members = set(spaces)
    while True:
        fresh = {combine(a, b) for a in members for b in members} - members
        if not fresh:
            return members
        members |= fresh


def proper_steps(fc):
    return {s for f in fc.filtrations for _, s in f.steps if 0 < s.dim < fc.rank}


def closure(fc, depth=CLOSURE_DEPTH, cap=CLOSURE_CAP):
    """The flag-step closure at any rank; check_stability uses it above rank 3."""
    return tuple(_closure(fc, depth, cap)[0])


class TestParabolicDegree:
    def test_all_trivial_is_zero(self):
        config, _ = two_lines()
        trivial = FilteredConfiguration(2, (Filtration.trivial(2),) * 2)
        assert parabolic_degree(E1, trivial, config) == 0

    def test_three_lines_flag_line(self):
        config, fc = three_generic_lines()
        line = fc.filtrations[0].steps[0][1]
        assert parabolic_degree(line, fc, config) == F(-1, 2)

    def test_two_lines_flag_line(self):
        config, fc = two_lines()
        line = fc.filtrations[0].steps[0][1]
        assert parabolic_degree(line, fc, config) == 0

    def test_improper_subspaces_rejected(self):
        config, fc = two_lines()
        with pytest.raises(ImproperSubspaceError):
            parabolic_degree(Subspace.zero(2), fc, config)
        with pytest.raises(ImproperSubspaceError):
            parabolic_degree(Subspace.full(2), fc, config)

    def test_scaling_is_linear(self):
        rng = random.Random(51)
        for _ in range(20):
            n = rng.randint(1, 4)
            config = random_divisor_config(rng, n)
            fc = random_balanced_configuration(rng, 3, n, nontrivial=True)
            line = span([[1, rng.randint(-3, 3), rng.randint(-3, 3)]], 3)
            base = parabolic_degree(line, fc, config)
            assert parabolic_degree(line, fc.scale(F(5, 2)), config) == F(5, 2) * base


    @pytest.mark.parametrize("rank", [2, 3])
    def test_observed_degrees_on_mixed_degree_denominators(self, rank):
        # degrees over 2, 3 and 6 and weights over 12: the integer degree is
        # held over L * c, the lcm of the degree and weight denominators
        config = DivisorConfiguration(
            ("A", "B", "C"), (F(1, 2), F(1, 3), F(5, 6)), ((1, 1, 1),) * 3
        )
        rng = random.Random(70 + rank)
        for _ in range(20):
            fc = random_balanced_configuration(rng, rank, 3, nontrivial=True)
            subspaces = candidate_subspaces(candidates_for(fc))
            degrees = [reference_parabolic_degree(v, fc, config) for v in subspaces]
            assert [parabolic_degree(v, fc, config) for v in subspaces] == degrees
            verdict = check_stability(fc, config)
            assert verdict.observed_degrees == tuple(sorted(set(degrees)))
            assert verdict.max_observed_degree == max(degrees)


class TestCandidateSubspaces:
    def test_single_flag_already_closed(self):
        flag = Filtration(
            3,
            (
                (F(1), span([(1, 0, 0)], 3)),
                (F(0), span([(1, 0, 0), (0, 1, 0)], 3)),
                (F(-1), Subspace.full(3)),
            ),
        )
        fc = FilteredConfiguration(3, (flag,))
        found = closure(fc)
        assert set(found) == {
            span([(1, 0, 0)], 3),
            span([(1, 0, 0), (0, 1, 0)], 3),
        }

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_generic_lines_match_the_elimination_reference(self, rank):
        # the line lies in its member and in no step that does not contain
        # the member, and it is the first moment point that does, as ranked
        # over Fraction; at rank 3 the annihilated steps, as the hyperplane
        # half uses them, too
        rng = random.Random(170 + rank)
        skipped_first_point = 0
        for _ in range(25):
            fc = random_balanced_configuration(
                rng, rank, rng.randint(1, 4), height=rng.randint(1, 3), nontrivial=True
            )
            families = [frozenset(proper_steps(fc))]
            if rank == 3:
                families.append(frozenset(s.annihilator() for s in families[0]))
            found = candidates_for(fc)
            lines = len(found.members) - found.hyperplanes
            for family, steps in enumerate(families):
                members = closed_under(Subspace.intersect, steps | {Subspace.full(rank)})
                members.discard(Subspace.zero(rank))
                expected = [reference_generic_line(m, steps) for m in sorted_subspaces(members)]
                for member, line in zip(sorted_subspaces(members), expected):
                    assert _generic_line(member, steps) == line
                    assert line.dim == 1 and reference_contains(member, line.rows, rank)
                    assert not any(
                        reference_contains(step, line.rows, rank)
                        for step in steps
                        if not reference_contains(step, member.rows, rank)
                    )
                    skipped_first_point += line != span(member.basis[:1], rank)
                if rank > 3:
                    continue
                # there the members are the line members of the exact set,
                # and the annihilated ones those of its hyperplane members
                if family == 0:
                    assert list(found.members[:lines]) == sorted_subspaces(members)
                    assert list(candidate_subspaces(found)[:lines]) == expected
                else:
                    through = found.members[lines:]
                    assert {n.annihilator() for n in through} == members
                    assert candidate_subspaces(found)[lines:] == tuple(
                        reference_generic_line(n.annihilator(), steps).annihilator()
                        for n in through
                    )
        assert skipped_first_point

    def test_two_lines_closure(self):
        _, fc = two_lines()
        found = closure(fc)
        assert set(found) == {span([(1, 0)], 2), span([(0, 1)], 2)}

    def test_three_coordinate_planes(self):
        planes = [
            span([(1, 0, 0), (0, 1, 0)], 3),
            span([(1, 0, 0), (0, 0, 1)], 3),
            span([(0, 1, 0), (0, 0, 1)], 3),
        ]
        flags = tuple(
            Filtration(3, ((F(1, 2), p), (F(-1, 2), Subspace.full(3)))) for p in planes
        )
        fc = FilteredConfiguration(3, flags)
        found = set(closure(fc, depth=2))
        expected = set(planes) | {
            span([(1, 0, 0)], 3),
            span([(0, 1, 0)], 3),
            span([(0, 0, 1)], 3),
        }
        assert found == expected

    def test_cap_is_respected(self):
        _, fc = three_generic_lines()
        assert len(closure(fc, cap=2)) <= 2

    def test_small_cap_drops_flag_steps(self):
        # three proper flag steps; the cap keeps the first in sort order only
        _, fc = three_planes()
        steps = sorted(proper_steps(fc), key=sort_key)
        assert len(steps) == 3
        assert closure(fc, depth=0, cap=1) == (steps[0],)
        assert closure(fc, depth=0, cap=3) == tuple(steps)

    def test_closure_matches_naive_reference(self, monkeypatch):
        # only meets and joins that the dimension formula leaves open are
        # computed: a meet that is neither zero, a nor b, a join that is
        # neither the full space, a nor b
        meet_of, join_of = Subspace.intersect, Subspace.__add__

        def settled_meet_refused(a, b):
            meet = meet_of(a, b)
            assert 0 < meet.dim < min(a.dim, b.dim)
            return meet

        def settled_join_refused(a, b):
            join = join_of(a, b)
            assert join.dim < a.ambient_dim and join != a and join != b
            return join

        rng = random.Random(41)
        configurations = [(three_planes()[1], (1, 4, 12, 512))] + [
            (random_balanced_configuration(rng, 4, rng.randint(2, 5), height=2), (1, 4, 12, 512))
            for _ in range(8)
        ]
        # the seven-component documents of the rank-4 workload, whose
        # closures reach the cap
        configurations += [
            (blown_up_r4(seed, full)[1], (CLOSURE_CAP,)) for seed, full in ((1, True), (14, False))
        ]
        for fc, caps in configurations:
            for depth in (0, 1, 2, 3):
                for cap in caps:
                    expected = reference_closure(fc, depth, cap)
                    with monkeypatch.context() as patch:
                        patch.setattr(Subspace, "intersect", settled_meet_refused)
                        patch.setattr(Subspace, "__add__", settled_join_refused)
                        assert _closure(fc, depth, cap) == expected


    def test_sort_key_keeps_the_rational_order(self):
        # RREF rows hold integral entries as int; the order must stay that
        # of (dim, Fraction RREF rows)
        rng = random.Random(43)
        fractional = 0
        for n in (2, 3, 3, 4):
            flags = tuple(random_balanced_filtration(rng, 4, steps=4) for _ in range(n))
            fc = FilteredConfiguration(4, flags)
            members = list(candidates_for(fc).members)
            reference = sorted(
                members,
                key=lambda s: (s.dim, tuple(tuple(F(x) for x in row) for row in s.rows)),
            )
            assert members == reference
            rng.shuffle(members)
            assert sorted(members, key=sort_key) == reference
            assert sorted_subspaces(members) == reference
            fractional += sum(
                1 for s in members for row in s.rows for x in row if x.denominator != 1
            )
        assert fractional


def four_general_lines():
    """Four flag lines in general position at rank 3: every line degree is
    2/3 - 3*(1/3) = -1/3 or lower, every plane holds at most two flag lines
    and stays negative as well, so the configuration is stable."""
    names = ("A", "B", "C", "D")
    ones = tuple(tuple(1 for _ in names) for _ in names)
    config = DivisorConfiguration(names, (F(1),) * 4, ones)
    lines = [span([v], 3) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
    flags = tuple(
        Filtration(3, ((F(2, 3), line), (F(-1, 3), Subspace.full(3)))) for line in lines
    )
    return config, FilteredConfiguration(3, flags)


class TestCheckStabilityRank2:
    def test_all_trivial_semistable(self):
        config, _ = two_lines()
        trivial = FilteredConfiguration(2, (Filtration.trivial(2),) * 2)
        verdict = check_stability(trivial, config)
        assert verdict.status is Status.SEMISTABLE
        assert verdict.certainty is Certainty.EXACT
        assert verdict.witness_degree == 0

    def test_two_lines_semistable(self):
        config, fc = two_lines()
        verdict = check_stability(fc, config)
        assert verdict.status is Status.SEMISTABLE
        assert verdict.certainty is Certainty.EXACT
        assert verdict.witness in {f.steps[0][1] for f in fc.filtrations}

    def test_three_lines_stable(self):
        config, fc = three_generic_lines()
        verdict = check_stability(fc, config)
        assert verdict.status is Status.STABLE
        assert verdict.certainty is Certainty.EXACT
        assert verdict.max_observed_degree == F(-1, 2)
        assert verdict.witness is None

    def test_unstable_has_checkable_witness(self):
        config, fc = two_lines()
        skew = FilteredConfiguration(
            2,
            (
                fc.filtrations[0].with_weights((F(3, 4), F(-3, 4))),
                fc.filtrations[1].with_weights((F(1, 4), F(-1, 4))),
            ),
        )
        verdict = check_stability(skew, config)
        assert verdict.status is Status.UNSTABLE
        assert parabolic_degree(verdict.witness, skew, config) == verdict.witness_degree
        assert verdict.witness_degree > 0

    def test_status_scale_invariant(self):
        rng = random.Random(61)
        for _ in range(25):
            n = rng.randint(1, 4)
            config = random_divisor_config(rng, n)
            fc = random_balanced_configuration(rng, 2, n)
            base = check_stability(fc, config).status
            for lam in (F(2), F(1, 3)):
                assert check_stability(fc.scale(lam), config).status is base

    def test_agrees_with_brute_force(self):
        rng = random.Random(71)
        for _ in range(25):
            n = rng.randint(1, 4)
            config = random_divisor_config(rng, n)
            fc = random_balanced_configuration(rng, 2, n, height=3)
            verdict = check_stability(fc, config)
            assert verdict.metadata["mode"] == "exact2"
            status, best = brute_force_rank2(fc, config, height=5)
            assert verdict.status is status
            assert verdict.max_observed_degree == best


class TestCheckStabilityGeneral:
    def test_rank_one_is_vacuous(self):
        config = DivisorConfiguration(("C",), (F(1),), ((1,),))
        fc = FilteredConfiguration(1, (Filtration.trivial(1),))
        verdict = check_stability(fc, config)
        assert verdict.status is Status.STABLE
        assert verdict.certainty is Certainty.EXACT
        assert verdict.max_observed_degree is None

    def test_degenerate_degree_rejected(self):
        config = DivisorConfiguration(("C",), (F(0),), ((1,),))
        flag = Filtration(
            2, ((F(1, 2), E1), (F(-1, 2), Subspace.full(2)))
        )
        fc = FilteredConfiguration(2, (flag,))
        with pytest.raises(DegenerateDegreeError):
            check_stability(fc, config)

    def test_rank3_unstable_witness_found(self):
        # one dominant plane shared by all components destabilizes
        config = DivisorConfiguration(
            ("A", "B"), (F(1), F(1)), ((1, 1), (1, 1))
        )
        plane = span([(1, 0, 0), (0, 1, 0)], 3)
        flag = Filtration(3, ((F(1, 3), plane), (F(-2, 3), Subspace.full(3))))
        fc = FilteredConfiguration(3, (flag, flag))
        verdict = check_stability(fc, config, samples=50, seed=1)
        assert verdict.status is Status.UNSTABLE
        assert verdict.certainty is Certainty.EXACT
        assert verdict.witness == plane

    def test_rank3_stable_is_exact(self):
        config, fc = four_general_lines()
        verdict = check_stability(fc, config, samples=100, seed=2)
        assert verdict.status is Status.STABLE
        assert verdict.certainty is Certainty.EXACT
        assert verdict.max_observed_degree == F(-1, 3)

    @pytest.mark.parametrize("option", [{"samples": -1}])
    def test_bad_exploration_counts_rejected(self, option):
        # rejected at every rank, also where the exact method ignores them
        for config, fc in (three_generic_lines(), three_planes()):
            with pytest.raises(ValueError):
                check_stability(fc, config, **option)

    def test_prebuilt_closure_at_rank_four(self):
        config, fc = three_planes()
        found = candidates_for(fc)
        assert not found.exact
        for samples, seed in ((0, 0), (30, 4)):
            prebuilt = check_stability(fc, config, samples=samples, seed=seed, candidates=found)
            assert prebuilt == check_stability(fc, config, samples=samples, seed=seed)

    def test_candidates_of_the_wrong_kind_rejected(self):
        # the rank of the flags fixes the kind of a set, so an exact set
        # where a closure is due, or the reverse, comes from other flags
        rng = random.Random(87)
        config4, fc4 = three_planes()
        fc3 = random_balanced_configuration(rng, 3, 3, nontrivial=True)
        exact, closure = candidates_for(fc3), candidates_for(fc4)
        assert exact.exact and not closure.exact
        with pytest.raises(ShapeMismatchError):
            check_stability(fc4, config4, candidates=exact)
        with pytest.raises(ShapeMismatchError):
            check_stability(fc3, config4, candidates=closure)
        other = FilteredConfiguration(4, fc4.filtrations[::-1])
        with pytest.raises(ShapeMismatchError):
            check_stability(other, config4, candidates=closure)

    def test_heuristic_deterministic_in_seed(self):
        rng = random.Random(81)
        config = random_divisor_config(rng, 2)
        fc = random_balanced_configuration(rng, 4, 2, nontrivial=True)
        first = check_stability(fc, config, samples=60, seed=42)
        assert first.metadata["mode"] == "heuristic"
        assert check_stability(fc, config, samples=60, seed=42) == first


def bounded_draw(rng, rank, dim, height):
    """The sampler's former draw: at most 20 tries, then None."""
    for _ in range(20):
        rows = [[rng.randint(-height, height) for _ in range(rank)] for _ in range(dim)]
        candidate = span(rows, rank)
        if candidate.dim == dim:
            return rows, candidate
    return None


@pytest.mark.parametrize("seed", [0, 3, 21, 31])
def test_random_rows_match_the_bounded_draw(seed):
    # same rows, same span and the same generator state after each draw
    for rank in range(1, 6):
        for dim in range(1, rank + 1):
            for height in (1, 5, 7):
                new, old = random.Random(seed), random.Random(seed)
                for _ in range(10):
                    rows, spanned = _random_rows(new, rank, dim, height)
                    assert (rows, spanned) == bounded_draw(old, rank, dim, height)
                    assert spanned.dim == dim
                assert new.random() == old.random()


class TestCheckStabilityRank3:
    def test_at_least_brute_force_and_heuristic(self):
        # flags spanned by rows of height 1, so every flag step and every
        # meet and join of them has height <= 2 and is among the brute-force
        # subspaces
        rng, sampler = random.Random(91), random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 4)
            config = random_divisor_config(rng, n)
            fc = random_balanced_configuration(rng, 3, n, height=1, nontrivial=True)
            verdict = check_stability(fc, config)
            assert verdict.certainty is Certainty.EXACT
            assert verdict.metadata["mode"] == "exact3"
            status, best = brute_force_rank3(fc, config, height=2)
            assert verdict.max_observed_degree >= best
            # nor do the flag-step closure and random subspaces, which the
            # sampled check explores above rank 3
            sampled = list(closure(fc)) + [
                random_subspace(sampler, 3, dim) for dim in (1, 2) for _ in range(30)
            ]
            assert verdict.max_observed_degree >= max(
                parabolic_degree(v, fc, config) for v in sampled
            )
            if best >= 0:
                assert verdict.status is status

    def test_candidates_are_generic(self):
        rng = random.Random(93)
        for _ in range(40):
            n = rng.randint(1, 4)
            fc = random_balanced_configuration(
                rng, 3, n, height=rng.randint(1, 3), nontrivial=True
            )
            steps = proper_steps(fc)
            found = candidate_subspaces(candidates_for(fc))
            lines = [c for c in found if c.dim == 1]
            planes = [c for c in found if c.dim == 2]
            assert len(lines) + len(planes) == len(found)
            meets = closed_under(Subspace.intersect, steps | {Subspace.full(3)})
            meets.discard(Subspace.zero(3))
            assert len(lines) == len(meets)
            for member in meets:
                # exactly one candidate line lies in ``member`` and in
                # exactly the flag steps that contain ``member``
                through = {s for s in steps if s.contains(member)}
                matches = [
                    line for line in lines
                    if member.contains(line)
                    and {s for s in steps if s.contains(line)} == through
                ]
                assert len(matches) == 1
            joins = closed_under(Subspace.__add__, steps | {Subspace.zero(3)})
            joins.discard(Subspace.full(3))
            assert len(planes) == len(joins)
            for member in joins:
                inside = {s for s in steps if member.contains(s)}
                matches = [
                    plane for plane in planes
                    if plane.contains(member)
                    and {s for s in steps if plane.contains(s)} == inside
                ]
                assert len(matches) == 1

    def test_hyperplanes_match_the_reference_construction(self):
        # the hyperplane half is built as annihilators of generic lines of
        # the annihilated steps; it must pick the same hyperplane through
        # every member of the sum closure as the direct construction
        rng = random.Random(94)
        for _ in range(40):
            n = rng.randint(1, 4)
            fc = random_balanced_configuration(
                rng, 3, n, height=rng.randint(1, 3), nontrivial=True
            )
            steps = proper_steps(fc)
            annihilated = {s.annihilator() for s in steps}
            joins = closed_under(Subspace.__add__, steps | {Subspace.zero(3)})
            joins.discard(Subspace.full(3))
            expected = set()
            for member in joins:
                hyperplane = reference_generic_hyperplane(member, steps)
                line = _generic_line(member.annihilator(), annihilated)
                assert line.annihilator() == hyperplane
                expected.add(hyperplane)
            planes = {c for c in candidate_subspaces(candidates_for(fc)) if c.dim == 2}
            assert planes == expected

    def test_rank2_candidates_are_flag_lines_plus_one_generic_line(self):
        config, fc = three_generic_lines()
        flag_lines = sorted(proper_steps(fc), key=sort_key)
        found = candidate_subspaces(candidates_for(fc))
        assert list(found[:-1]) == flag_lines
        assert found[-1] not in flag_lines
        verdict = check_stability(fc, config)
        assert verdict.metadata == {"mode": "exact2", "explored": len(flag_lines) + 1}

    def test_meet_of_two_flag_planes_is_the_only_witness(self):
        # components A and B put the planes P = <e1,e2> and Q = <e1,e3> at
        # weight 1/3; C, D, E put three lines in general position at 2/3.
        # Their meet e1 has degree 1/3 + 1/3 - 3 * (2/3) * (1/3) = 0; every
        # other line or plane has negative degree
        full = Subspace.full(3)
        planes = [span([(1, 0, 0), (0, 1, 0)], 3), span([(1, 0, 0), (0, 0, 1)], 3)]
        lines = [span([v], 3) for v in ((1, 1, 1), (1, 2, 4), (1, 3, 9))]
        flags = [Filtration(3, ((F(1, 3), p), (F(-2, 3), full))) for p in planes]
        flags += [Filtration(3, ((F(2, 3), l), (F(-1, 3), full))) for l in lines]
        names = ("A", "B", "C", "D", "E")
        unit = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))
        config = DivisorConfiguration(names, (F(1), F(1)) + (F(2, 3),) * 3, unit)
        fc = FilteredConfiguration(3, tuple(flags))
        verdict = check_stability(fc, config)
        assert verdict.status is Status.SEMISTABLE
        assert verdict.certainty is Certainty.EXACT
        assert verdict.witness == span([(1, 0, 0)], 3)
        assert verdict.witness_degree == 0
        found = candidate_subspaces(candidates_for(fc))
        assert [c for c in found if parabolic_degree(c, fc, config) == 0] == [verdict.witness]
        assert brute_force_rank3(fc, config, height=2) == (Status.SEMISTABLE, 0)

    def test_stable_verdict_builds_no_subspace(self, monkeypatch):
        # the incidences come from containment, so a stable exact verdict
        # needs no generic line or hyperplane
        def refuse(*args):
            raise AssertionError("built a generic subspace")

        monkeypatch.setattr("filtstab.stability._generic_line", refuse)
        for config, fc in (three_generic_lines(), four_general_lines()):
            verdict = check_stability(fc, config)
            assert verdict.status is Status.STABLE
            assert verdict.certainty is Certainty.EXACT
        with pytest.raises(AssertionError, match="built a generic subspace"):
            candidate_subspaces(candidates_for(fc))

    @pytest.mark.parametrize("rank", [2, 3])
    def test_witness_is_the_first_tied_reference_candidate(self, rank):
        # a non-stable witness is built from the members of maximal degree
        # only; it must be the first, in sorted_subspaces order, of the
        # reference generic lines and hyperplanes of the tied members
        rng = random.Random(310 + rank)
        seen = set()
        for _ in range(60):
            n = rng.randint(1, 4)
            config = random_divisor_config(rng, n)
            fc = random_balanced_configuration(
                rng, rank, n, height=rng.randint(1, 2), nontrivial=True
            )
            verdict = check_stability(fc, config)
            if verdict.status is Status.STABLE:
                continue
            found = candidates_for(fc)
            steps = proper_steps(fc)
            annihilated = {s.annihilator() for s in steps}
            lines = len(found.members) - found.hyperplanes
            references = [
                reference_generic_line(member, steps) if index < lines
                else reference_generic_line(member.annihilator(), annihilated).annihilator()
                for index, member in enumerate(found.members)
            ]
            tied = [
                v for v in references
                if reference_parabolic_degree(v, fc, config) == verdict.witness_degree
            ]
            assert verdict.witness == sorted_subspaces(tied)[0]
            seen.add((verdict.status, len(tied) > 1))
        assert {tie for _, tie in seen} == {False, True}

    def test_no_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled a random subspace")

        monkeypatch.setattr("filtstab.stability._random_rows", refuse)
        rng = random.Random(95)
        for _ in range(10):
            config = random_divisor_config(rng, 3)
            fc = random_balanced_configuration(rng, 3, 3, nontrivial=True)
            first = check_stability(fc, config, samples=100, seed=1)
            assert first.certainty is Certainty.EXACT
            assert check_stability(fc, config, samples=0, seed=2) == first

    def test_precomputed_candidates(self):
        rng = random.Random(97)
        config = random_divisor_config(rng, 3)
        fc = random_balanced_configuration(rng, 3, 3, nontrivial=True)
        found = candidates_for(fc)
        for _ in range(5):
            reweighted = FilteredConfiguration(
                3,
                tuple(
                    f.with_weights(random_balanced_weights_for(rng, f))
                    for f in fc.filtrations
                ),
            )
            assert check_stability(reweighted, config, candidates=found) == (
                check_stability(reweighted, config)
            )
        other = random_balanced_configuration(rng, 3, 3, nontrivial=True)
        with pytest.raises(ShapeMismatchError):
            check_stability(other, config, candidates=found)

    def test_no_exact_set_above_rank_three(self):
        rng = random.Random(99)
        for rank in (1, 2, 3, 4, 5):
            found = candidates_for(random_balanced_configuration(rng, rank, 2))
            assert found.exact is (rank <= 3)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_component_permutation_leaves_every_result_unchanged(rank):
    # the flat slot layout orders components as the document lists them;
    # listing them in another order must change no c2, norm or verdict
    rng = random.Random(600 + rank)
    for _ in range(20):
        config = random_realizable_config(rng)
        n = config.n_components
        fc = random_balanced_configuration(rng, rank, n, nontrivial=True)
        order = rng.sample(range(n), n)
        moved_config = DivisorConfiguration(
            tuple(config.names[i] for i in order),
            tuple(config.degrees[i] for i in order),
            tuple(tuple(config.intersection[i][j] for j in order) for i in order),
        )
        moved = FilteredConfiguration(rank, tuple(fc.filtrations[i] for i in order))
        assert every_result(moved, moved_config) == every_result(fc, config)
