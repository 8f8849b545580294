import math
import random

import pytest

from feedcover.cover import (
    CoverSpec,
    delay_optimal_cover,
    greedy_min_cover,
    greedy_weighted_cover,
    joint_cover,
    set_average_delay_days,
)
from feedcover.errors import InfeasibleCover, InvalidSpec, UndefinedMeasure

from conftest import DAY, M, brute_force_cover, make_corpus, random_instance


def spec_for(corpus, **kw):
    return CoverSpec(universe=frozenset(corpus.first_mention), **kw)


def harmonic(d):
    return sum(1.0 / i for i in range(1, d + 1))


class TestGreedyMinCover:
    def test_dominating_candidate(self):
        corpus = make_corpus({1: [1, 2], 2: [2, 3], 3: [1, 2, 3]})
        result = greedy_min_cover(corpus, spec_for(corpus))
        assert result.selected == (3,)

    def test_empty_universe(self):
        corpus = make_corpus({1: [1]})
        result = greedy_min_cover(corpus, CoverSpec(universe=frozenset()))
        assert result.selected == ()

    def test_within_harmonic_bound_of_bruteforce(self, rng):
        for _ in range(50):
            corpus, universe = random_instance(rng, max_candidates=8, max_memes=10)
            spec = CoverSpec(universe=universe)
            greedy = greedy_min_cover(corpus, spec)
            exact = brute_force_cover(corpus, spec, "cardinality")
            d = max(len(s) for s in corpus.memes_by_user.values())
            assert len(greedy.selected) <= harmonic(d) * len(exact.selected)

    def test_tie_breaks_to_smallest_user(self):
        corpus = make_corpus({5: [1, 2], 2: [1, 2], 9: [1, 2]})
        result = greedy_min_cover(corpus, spec_for(corpus))
        assert result.selected == (2,)

    def test_infeasible(self):
        corpus = make_corpus({1: [1]})
        spec = CoverSpec(universe=frozenset({M(1), M(2)}))
        with pytest.raises(InfeasibleCover):
            greedy_min_cover(corpus, spec)

    def test_partial_coverage_target(self):
        corpus = make_corpus({v: [v] for v in range(1, 11)})
        spec = spec_for(corpus, coverage=0.5)
        result = greedy_min_cover(corpus, spec)
        assert len(result.covered) == 5
        assert len(result.selected) == 5


class TestGreedyWeightedCover:
    def test_light_candidates_beat_heavy_superset(self):
        corpus = make_corpus(
            {1: [1, 2], 2: [1], 3: [2]}, inflow={1: 10, 2: 1, 3: 1}
        )
        result = greedy_weighted_cover(corpus, spec_for(corpus))
        assert result.selected == (2, 3)
        assert corpus.inflow(result.selected) == 2

    def test_single_candidate(self):
        corpus = make_corpus({1: [1, 2]}, inflow={1: 7})
        result = greedy_weighted_cover(corpus, spec_for(corpus))
        assert result.selected == (1,)
        assert corpus.inflow(result.selected) == 7

    def test_uniform_weights_reduce_to_min_cover(self, rng):
        for _ in range(30):
            corpus, universe = random_instance(rng)
            uniform = make_corpus(
                {v: [int(m[1][1:]) for m in s]
                 for v, s in corpus.memes_by_user.items()},
                inflow={v: 1 for v in corpus.memes_by_user},
            )
            spec = CoverSpec(universe=universe)
            a = greedy_min_cover(uniform, spec)
            b = greedy_weighted_cover(uniform, spec)
            assert a.selected == b.selected

    def test_within_harmonic_bound_of_bruteforce(self, rng):
        for _ in range(50):
            corpus, universe = random_instance(rng, max_candidates=8, max_memes=10)
            spec = CoverSpec(universe=universe)
            greedy = greedy_weighted_cover(corpus, spec)
            exact = brute_force_cover(corpus, spec, "inflow")
            d = max(len(s) for s in corpus.memes_by_user.values())
            assert (corpus.inflow(greedy.selected)
                    <= harmonic(d) * corpus.inflow(exact.selected))


class TestDelayOptimalCover:
    def test_first_mentioner_selected(self):
        corpus = make_corpus(
            {1: [0], 2: [0], 3: [0]},
            times={(1, 0): 5, (2, 0): 50, (3, 0): 60},
        )
        spec = spec_for(corpus)
        result = delay_optimal_cover(corpus, spec)
        assert result.selected == (1,)
        assert set_average_delay_days(corpus, result.selected, spec.universe) == 0.0

    def test_empty_universe(self):
        corpus = make_corpus({1: [0]})
        result = delay_optimal_cover(corpus, CoverSpec(universe=frozenset()))
        assert result.selected == ()

    def test_counts_distinct_first_mentioners(self, rng):
        # 10 memes, first mention forced onto 6 distinct users
        times = {}
        sets = {v: [] for v in range(1, 9)}
        owners = [1, 2, 3, 4, 5, 6, 1, 2, 3, 4]
        for meme, owner in enumerate(owners):
            sets[owner].append(meme)
            times[(owner, meme)] = 10
            for other in (7, 8):
                sets[other].append(meme)
                times[(other, meme)] = 1000 + meme
        corpus = make_corpus(sets, times=times)
        result = delay_optimal_cover(corpus, spec_for(corpus))
        assert len(result.selected) == 6

    def test_partial_coverage_rejected(self):
        corpus = make_corpus({1: [0]})
        with pytest.raises(InfeasibleCover):
            delay_optimal_cover(corpus, spec_for(corpus, coverage=0.5))

    def test_time_tie_breaks_to_smallest_user(self):
        corpus = make_corpus({4: [0], 2: [0]}, times={(4, 0): 7, (2, 0): 7})
        result = delay_optimal_cover(corpus, spec_for(corpus))
        assert result.selected == (2,)

    def test_reads_only_corpus_fields(self):
        # Each call finds the earliest posters again: the memo is never built.
        corpus = make_corpus({3: [0, 1], 2: [1]}, times={(3, 0): 5, (3, 1): 9, (2, 1): 9})
        for _ in range(2):
            assert delay_optimal_cover(corpus, spec_for(corpus)).per_step == ((2, 1), (3, 1))
        assert "_memo" not in vars(corpus)

    def test_unposted_universe_meme_infeasible(self):
        corpus = make_corpus({1: [0], 2: [0, 1]})
        spec = CoverSpec(universe=frozenset({M(0), M(2)}))
        with pytest.raises(InfeasibleCover, match="\\('hashtag', 'm2'\\) has no poster$"):
            delay_optimal_cover(corpus, spec)


class TestJointCover:
    def test_beta_zero_reduces_to_weighted(self, rng):
        for _ in range(30):
            corpus, universe = random_instance(rng)
            spec = CoverSpec(universe=universe, alpha=1.0, beta=0.0)
            assert (
                joint_cover(corpus, spec).selected
                == greedy_weighted_cover(corpus, spec).selected
            )

    def test_alpha_beta_zero_reduces_to_min_cover(self, rng):
        for _ in range(30):
            corpus, universe = random_instance(rng)
            spec = CoverSpec(universe=universe, alpha=0.0, beta=0.0)
            assert (
                joint_cover(corpus, spec).selected
                == greedy_min_cover(corpus, spec).selected
            )

    def test_score_rule_hand_trace(self):
        # P: inflow 4, delay 4 days; Q: inflow 8, delay 1 day; same 2 memes.
        # Scores 4*2/2 = 4 and 8*1/2 = 4 tie; smaller id (Q=1) wins. The
        # origin of both memes posts meme 2, outside the universe, 3 days
        # late: its mean delay of 1 day scores 100*1/2 = 50.
        times = {(2, 0): 4 * DAY, (2, 1): 4 * DAY,   # P
                 (1, 0): 1 * DAY, (1, 1): 1 * DAY,   # Q
                 (9, 0): 0, (9, 1): 0, (9, 2): 3 * DAY,  # origin
                 (8, 2): 0}
        corpus = make_corpus(
            {2: [0, 1], 1: [0, 1], 9: [0, 1, 2], 8: [2]},
            inflow={2: 4, 1: 8, 9: 100},
            times=times,
        )
        spec = CoverSpec(universe=frozenset({M(0), M(1)}), alpha=1.0, beta=0.5)
        result = joint_cover(corpus, spec)
        assert result.selected == (1,)

    def test_zero_delay_candidate_always_preferred(self):
        # First-mentioner (delay 0) wins despite huge inflow.
        corpus = make_corpus(
            {1: [0], 2: [0]},
            inflow={1: 1000, 2: 1},
            times={(1, 0): 0, (2, 0): DAY},
        )
        result = joint_cover(corpus, spec_for(corpus, alpha=1.0, beta=0.5))
        assert result.selected == (1,)

    @pytest.mark.parametrize("alpha, beta", [(400.0, 0.5), (1.0, 1000.0), (30.0, 100.0)])
    def test_weight_past_float_range_is_undefined(self, alpha, beta):
        # User 1: in-flow 10**6 and a 100-day delay. 10**2400 and 100**1000
        # overflow a power; 10**180 * 100**100 overflows only the product.
        corpus = make_corpus({1: [0], 2: [0]}, inflow={1: 10**6},
                             times={(1, 0): 100 * DAY, (2, 0): 0})
        with pytest.raises(UndefinedMeasure, match=f"user 1 .* alpha {alpha}, beta {beta}$"):
            joint_cover(corpus, spec_for(corpus, alpha=alpha, beta=beta))


class TestBruteForceCover:
    def test_two_subset_lexicographic(self):
        corpus = make_corpus({1: [1, 2], 2: [2, 3], 3: [1, 3]})
        result = brute_force_cover(corpus, spec_for(corpus), "cardinality")
        assert result.selected == (1, 2)

    def test_single_candidate(self):
        corpus = make_corpus({1: [1, 2]})
        result = brute_force_cover(corpus, spec_for(corpus), "cardinality")
        assert result.selected == (1,)

    def test_superuser_archetype(self):
        # 5 followees with disjoint memes plus a superuser covering the union
        sets = {v: [v] for v in range(1, 6)}
        sets[6] = [1, 2, 3, 4, 5]
        corpus = make_corpus(sets)
        result = brute_force_cover(corpus, spec_for(corpus), "cardinality")
        assert result.selected == (6,)

    def test_inflow_objective(self):
        corpus = make_corpus(
            {1: [1, 2], 2: [1], 3: [2]}, inflow={1: 10, 2: 1, 3: 1}
        )
        result = brute_force_cover(corpus, spec_for(corpus), "inflow")
        assert result.selected == (2, 3)
        assert corpus.inflow(result.selected) == 2

    def test_too_large(self):
        corpus = make_corpus({v: [0] for v in range(25)})
        with pytest.raises(InvalidSpec, match="25 candidates exceed bound 20"):
            brute_force_cover(corpus, spec_for(corpus), "cardinality")

    def test_infeasible(self):
        corpus = make_corpus({1: [1]})
        with pytest.raises(InfeasibleCover):
            brute_force_cover(
                corpus, CoverSpec(universe=frozenset({M(1), M(2)})), "cardinality"
            )


class TestCoverSpecValidation:
    @pytest.mark.parametrize("field, value", [
        ("coverage", 0.0), ("coverage", -0.5), ("coverage", 1.5),
        ("coverage", math.nan), ("alpha", -1.0), ("alpha", math.inf),
        ("alpha", math.nan), ("beta", -0.5), ("beta", math.inf),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(InvalidSpec):
            CoverSpec(universe=frozenset(), **{field: value})

    def test_boundary_values_accepted(self):
        spec = CoverSpec(universe=frozenset(), coverage=1.0, alpha=0.0, beta=0.0)
        assert spec.coverage == 1.0

    def test_replace_is_checked_like_a_new_spec(self):
        spec = CoverSpec(universe=frozenset({M(1)}), coverage=0.5)
        with pytest.raises(InvalidSpec):
            spec._replace(coverage=0)
        with pytest.raises(InvalidSpec):
            spec._replace(beta=math.inf)
        assert spec._replace(alpha=0.0) == CoverSpec(frozenset({M(1)}), 0.5, 0.0, 0.5)
        assert type(spec._replace()) is CoverSpec


class TestSharedProperties:
    def test_full_coverage_covers_universe(self, rng):
        for _ in range(40):
            corpus, universe = random_instance(rng)
            spec = CoverSpec(universe=universe)
            for fn in (greedy_min_cover, greedy_weighted_cover,
                       delay_optimal_cover, joint_cover):
                assert fn(corpus, spec).covered == universe

    def test_monotone_progress(self, rng):
        for _ in range(40):
            corpus, universe = random_instance(rng)
            spec = CoverSpec(universe=universe)
            for fn in (greedy_min_cover, greedy_weighted_cover, joint_cover):
                result = fn(corpus, spec)
                assert all(gain > 0 for _, gain in result.per_step)
                assert sum(g for _, g in result.per_step) == len(result.covered)

    def test_determinism(self, rng):
        corpus, universe = random_instance(rng)
        spec = CoverSpec(universe=universe)
        for fn in (greedy_min_cover, greedy_weighted_cover,
                   delay_optimal_cover, joint_cover):
            assert fn(corpus, spec) == fn(corpus, spec)

    def test_partial_coverage_targets(self, rng):
        for _ in range(20):
            corpus, universe = random_instance(rng)
            for p in (0.2, 0.5, 0.8, 1.0):
                spec = CoverSpec(universe=universe, coverage=p)
                for fn in (greedy_min_cover, greedy_weighted_cover):
                    result = fn(corpus, spec)
                    assert len(result.covered) >= math.ceil(p * len(universe))
