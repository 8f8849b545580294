import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedcover.cover import (
    CoverSpec,
    _mean_delay_days,
    delay_optimal_cover,
    greedy_min_cover,
    greedy_weighted_cover,
    joint_cover,
    set_average_delay_days,
)
from feedcover.efficiency import (
    cross_efficiencies,
    delay_efficiency,
    efficiency_ratio,
    evaluate_ego,
    inflow_efficiency,
    joint_efficiencies,
    link_efficiency,
)
from feedcover.errors import InfeasibleCover, UndefinedMeasure
from feedcover.ingest import ego_context
from feedcover.model import ARCHETYPES, EgoContext
from feedcover.synth import SynthSpec, generate

from conftest import DAY, M, make_corpus, make_ctx

EGO = 100


def fig2_fixture():
    """Five followees whose meme sets force a greedy cover of size three."""
    corpus = make_corpus({1: [1, 2], 2: [2, 3], 3: [3, 4], 4: [4, 5], 5: [5, 6]})
    ctx = make_ctx(corpus, EGO, [1, 2, 3, 4, 5])
    return corpus, ctx


def fig3_fixture():
    """Followee in-flows summing to 60 with a feasible cover of in-flow 30."""
    corpus = make_corpus(
        {1: [1, 2, 3], 2: [4, 5, 6], 3: [1, 2], 4: [3, 4], 5: [5, 6]},
        inflow={1: 15, 2: 15, 3: 10, 4: 10, 5: 10},
    )
    ctx = make_ctx(corpus, EGO, [1, 2, 3, 4, 5])
    return corpus, ctx


def fig4_fixture():
    """13 memes received with delays summing to 30 days."""
    delays = [2] * 12 + [6]
    times = {(99, i): 0 for i in range(13)}
    times.update({(1, i): d * DAY for i, d in enumerate(delays)})
    corpus = make_corpus(
        {99: list(range(13)), 1: list(range(13))}, times=times
    )
    return corpus, make_ctx(corpus, EGO, [1])


def test_fig2_link_efficiency():
    corpus, ctx = fig2_fixture()
    cov = greedy_min_cover(corpus, CoverSpec(universe=ctx.memes))
    assert len(cov.selected) == 3
    assert link_efficiency(ctx, cov, corpus) == 3 / 5


def test_link_efficiency_already_optimal():
    corpus = make_corpus({1: [1], 2: [2]})
    ctx = make_ctx(corpus, EGO, [1, 2])
    cov = greedy_min_cover(corpus, CoverSpec(universe=ctx.memes))
    assert link_efficiency(ctx, cov, corpus) == 1.0


def test_link_efficiency_redundant_archetype():
    corpus = make_corpus({v: [1, 2, 3] for v in range(1, 11)})
    ctx = make_ctx(corpus, EGO, range(1, 11))
    cov = greedy_min_cover(corpus, CoverSpec(universe=ctx.memes))
    assert link_efficiency(ctx, cov, corpus) == 0.1


def test_fig3_inflow_efficiency():
    corpus, ctx = fig3_fixture()
    cov = greedy_weighted_cover(corpus, CoverSpec(universe=ctx.memes))
    assert corpus.inflow(cov.selected) == 30
    assert inflow_efficiency(ctx, cov, corpus) == 0.5


def test_inflow_efficiency_own_followees():
    corpus = make_corpus({1: [1], 2: [2]}, inflow={1: 3, 2: 4})
    ctx = make_ctx(corpus, EGO, [1, 2])
    cov = greedy_weighted_cover(corpus, CoverSpec(universe=ctx.memes))
    assert inflow_efficiency(ctx, cov, corpus) == 1.0


def test_inflow_efficiency_low_volume_alternative():
    # followees 1..5 heavy (f=50); outsider 6 covers everything with f=5
    corpus = make_corpus(
        {1: [0], 2: [1], 3: [2], 4: [3], 5: [4], 6: [0, 1, 2, 3, 4]},
        inflow={1: 10, 2: 10, 3: 10, 4: 10, 5: 10, 6: 5},
    )
    ctx = make_ctx(corpus, EGO, [1, 2, 3, 4, 5])
    cov = greedy_weighted_cover(corpus, CoverSpec(universe=ctx.memes))
    assert inflow_efficiency(ctx, cov, corpus) == 0.1


def test_fig4_delay_efficiency():
    corpus, ctx = fig4_fixture()
    assert delay_efficiency(ctx, corpus) == pytest.approx(1 / (1 + 30 / 13), abs=1e-12)


def test_delay_efficiency_first_mentioners():
    corpus = make_corpus({1: [0, 1]}, times={(1, 0): 5, (1, 1): 50})
    ctx = make_ctx(corpus, EGO, [1])
    assert delay_efficiency(ctx, corpus) == 1.0


def test_delay_efficiency_one_day():
    corpus = make_corpus(
        {9: [0], 1: [0]}, times={(9, 0): 0, (1, 0): DAY}
    )
    ctx = make_ctx(corpus, EGO, [1])
    assert delay_efficiency(ctx, corpus) == 0.5


def test_delay_efficiency_no_memes():
    corpus = make_corpus({1: [0]})
    ctx = make_ctx(corpus, EGO, [])
    with pytest.raises(UndefinedMeasure, match="received no memes"):
        delay_efficiency(ctx, corpus)


class IterOrder(frozenset):
    """A frozenset that iterates in the order it was built from."""

    def __new__(cls, items):
        self = super().__new__(cls, items)
        self.order = tuple(items)
        return self

    def __iter__(self):
        return iter(self.order)


def test_delay_sums_independent_of_iteration_order():
    # Delays of 0.1, 0.2 and 0.3 days: a plain left-to-right float sum
    # gives 0.6000000000000001 in some orders and 0.6 in others. Rival
    # user 2 posts the same memes 0.3, 0.2 and 0.1 days late, so under
    # alpha=0, beta=1 the joint cover ties them and picks user 1 with the
    # mean delay computed in every order of user 1's first posts. Origin
    # user 9 posts meme 3, which user 8 starts, 4 days late: a mean delay
    # of 1 day keeps it out of the cover.
    times = {(9, i): 0 for i in range(3)}
    times.update({(9, 3): 4 * DAY, (8, 3): 0})
    times.update({(1, i): (i + 1) * DAY // 10 for i in range(3)})
    times.update({(2, i): (3 - i) * DAY // 10 for i in range(3)})
    corpus = make_corpus({9: [0, 1, 2, 3], 8: [3], 1: [0, 1, 2], 2: [0, 1, 2]},
                         times=times)
    first = corpus.first_post_by_user[1]
    results = set()
    for order in permutations(M(i) for i in range(3)):
        memes = IterOrder(order)
        ctx = EgoContext(EGO, frozenset({1}), memes)
        reordered = corpus._replace(mean_delay_days={
            **corpus.mean_delay_days,
            1: _mean_delay_days(corpus, {m: first[m] for m in order}),
        })
        spec = CoverSpec(universe=memes, alpha=0.0, beta=1.0)
        results.add((
            delay_efficiency(ctx, corpus),
            set_average_delay_days(corpus, (1,), memes),
            joint_cover(reordered, spec).selected,
        ))
    assert len(results) == 1
    e_delay, set_delay, selected = results.pop()
    assert (e_delay, set_delay) == pytest.approx((1 / 1.2, 0.2), abs=1e-15)
    assert selected == (1,)


def test_set_delay_requires_covering_selection():
    corpus = make_corpus({1: [0], 2: [1]})
    with pytest.raises(InfeasibleCover):
        set_average_delay_days(corpus, (1,), frozenset({M(0), M(1)}))


def test_zero_inflow_cover_sets_raise_zero_inflow():
    corpus = make_corpus({1: [0, 1]}, inflow={1: 0})
    ctx = make_ctx(corpus, EGO, [1])
    link, inflow, delay, joint = _all_covers(corpus, ctx)
    with pytest.raises(UndefinedMeasure, match="a cover set posted nothing"):
        cross_efficiencies(ctx, link, inflow, delay, corpus)
    with pytest.raises(UndefinedMeasure, match="a cover set posted nothing"):
        joint_efficiencies(ctx, joint, link, inflow, corpus)


def test_link_efficiency_empty_followees():
    corpus = make_corpus({1: [0]})
    ctx = make_ctx(corpus, EGO, [])
    cov = greedy_min_cover(corpus, CoverSpec(universe=frozenset({M(0)})))
    with pytest.raises(UndefinedMeasure, match="no followees posting covered memes"):
        link_efficiency(ctx, cov, corpus)


def test_greedy_overshoot_is_clamped(caplog):
    # Decoy 1 makes greedy pick three users although followees {2, 3} suffice.
    # Labels differ from the ids, as in an ingested corpus: the warning names
    # the ego as every skip line does, by its label.
    corpus = make_corpus({1: [1, 3], 2: [1, 2], 3: [3, 4]})
    corpus = corpus._replace(user_labels={v: f"u{v}" for v in (1, 2, 3, EGO)})
    ctx = make_ctx(corpus, EGO, [2, 3])
    cov = greedy_min_cover(corpus, CoverSpec(universe=ctx.memes))
    assert len(cov.selected) == 3
    with caplog.at_level("WARNING"):
        assert link_efficiency(ctx, cov, corpus) == 1.0
    assert [r.getMessage() for r in caplog.records] == [
        "clamping link efficiency=1.5 > 1 for ego u100"]
    assert [r.name for r in caplog.records] == ["feedcover.efficiency"]


def test_partial_coverage_filters_followees():
    corpus = make_corpus({1: [0, 1], 2: [2], 3: [3]})
    ctx = make_ctx(corpus, EGO, [1, 2, 3])
    cov = greedy_min_cover(corpus, CoverSpec(universe=ctx.memes, coverage=0.5))
    assert cov.covered == frozenset({M(0), M(1)})
    assert link_efficiency(ctx, cov, corpus) == 1.0


def _all_covers(corpus, ctx, **kw):
    spec = CoverSpec(universe=ctx.memes, **kw)
    return (
        greedy_min_cover(corpus, spec),
        greedy_weighted_cover(corpus, spec),
        delay_optimal_cover(corpus, spec),
        joint_cover(corpus, spec),
    )


def test_cross_efficiencies_identical_sets():
    corpus = make_corpus({1: [0, 1]})
    ctx = make_ctx(corpus, EGO, [1])
    link, inflow, delay, _ = _all_covers(corpus, ctx)
    cross = cross_efficiencies(ctx, link, inflow, delay, corpus)
    assert cross == dict.fromkeys(("el_uf", "el_ut", "ef_ul", "ef_ut", "et_ul", "et_uf"), 1.0)


def test_cross_efficiency_inflow_of_delay_set():
    # in-flow-optimal set has f=10, the delay-optimal set f=40
    times = {(2, 0): 0, (3, 1): 0, (1, 0): DAY, (1, 1): DAY}
    corpus = make_corpus(
        {1: [0, 1], 2: [0], 3: [1]},
        inflow={1: 10, 2: 20, 3: 20},
        times=times,
    )
    ctx = make_ctx(corpus, EGO, [1, 2, 3])
    link, inflow, delay, _ = _all_covers(corpus, ctx)
    assert inflow.selected == (1,)
    assert delay.selected == (2, 3)
    cross = cross_efficiencies(ctx, link, inflow, delay, corpus)
    assert cross["ef_ut"] == 0.25


def test_joint_efficiencies_identities():
    corpus = make_corpus({1: [0, 1]}, inflow={1: 4})
    ctx = make_ctx(corpus, EGO, [1])
    link, inflow, _, joint = _all_covers(corpus, ctx)
    je = joint_efficiencies(ctx, joint, link, inflow, corpus)
    assert je == {"el_ua": 1.0, "ef_ua": 1.0, "et_ua": 1.0}


def test_joint_delay_efficiency_one_day():
    # Origin user 9 also posts meme 1, which user 8 starts, 2 days late:
    # its joint weight 100 * 1**0.5 loses to user 1's 1 * 1**0.5.
    times = {(9, 0): 0, (9, 1): 2 * DAY, (8, 1): 0, (1, 0): DAY}
    corpus = make_corpus({9: [0, 1], 8: [1], 1: [0]}, times=times, inflow={9: 100, 1: 1})
    ctx = make_ctx(corpus, EGO, [1])
    spec = CoverSpec(universe=ctx.memes)
    joint = joint_cover(corpus, spec)
    link = greedy_min_cover(corpus, spec)
    inflow = greedy_weighted_cover(corpus, spec)
    je = joint_efficiencies(ctx, joint, link, inflow, corpus)
    assert je["et_ua"] == 0.5


def test_efficiency_ratio():
    assert efficiency_ratio(0.8, 0.4) == 2.0
    assert efficiency_ratio(0.7, 0.7) == 1.0
    assert efficiency_ratio(0.3, 0.6) == 0.5
    with pytest.raises(UndefinedMeasure, match="is not positive"):
        efficiency_ratio(0.5, 0.0)


def test_evaluate_ego_consistent_with_components():
    corpus, ctx = fig3_fixture()
    report = evaluate_ego(corpus, ctx, "hashtag")
    link, inflow, delay, joint = _all_covers(corpus, ctx)
    assert report.e_link == link_efficiency(ctx, link, corpus)
    assert report.e_inflow == 0.5
    assert report.e_delay == delay_efficiency(ctx, corpus)
    optimized = {
        **cross_efficiencies(ctx, link, inflow, delay, corpus),
        **joint_efficiencies(ctx, joint, link, inflow, corpus),
    }
    assert {name: getattr(report, name) for name in optimized} == optimized
    assert report.ratio_inflow_by_joint_opt == pytest.approx(
        report.ef_ua / report.e_inflow
    )


def test_evaluate_ego_partial_then_full_consistency():
    corpus, ctx = fig3_fixture()
    full = evaluate_ego(corpus, ctx, "hashtag", coverage=1.0)
    partial = evaluate_ego(corpus, ctx, "hashtag", coverage=0.5)
    assert full.el_uf is not None
    assert partial.el_uf is None
    # p = 1.0 through the partial-coverage path is bit-identical to full
    assert full.e_link == evaluate_ego(corpus, ctx, "hashtag", coverage=1.0).e_link


@pytest.mark.parametrize("fixture", [fig2_fixture, fig3_fixture, fig4_fixture])
def test_e_delay_equal_at_every_coverage(fixture):
    # e_delay measures the ego's own timeline, not a cover.
    corpus, ctx = fixture()
    expected = delay_efficiency(ctx, corpus)
    for coverage in (0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9, 1.0):
        assert evaluate_ego(corpus, ctx, "hashtag", coverage=coverage).e_delay == expected


def test_evaluate_ego_runs_the_joint_cover_before_the_cross_efficiencies():
    # User 1, who posted nothing, is both the link- and the in-flow-optimal
    # set, so the cross-efficiencies are undefined; user 2's joint weight
    # overflows at alpha 400. The joint cover runs first, so its error wins,
    # as it does for optimize, which computes no cross-efficiencies.
    corpus = make_corpus({1: [0], 2: [0], 3: [0]}, inflow={1: 0, 2: 10, 3: 1})
    ctx = make_ctx(corpus, 0, [1, 3])
    with pytest.raises(UndefinedMeasure, match="^joint weight of user 2 overflows"):
        evaluate_ego(corpus, ctx, "hashtag", alpha=400.0)
    with pytest.raises(UndefinedMeasure, match="^a cover set posted nothing"):
        evaluate_ego(corpus, ctx, "hashtag", alpha=1.0)


def test_evaluate_ego_pure():
    corpus, ctx = fig2_fixture()
    assert evaluate_ego(corpus, ctx, "hashtag") == evaluate_ego(corpus, ctx, "hashtag")


# Each ratio column: (measure, the ego's own efficiency under the same metric).
_ORACLE_RATIOS = {
    "ratio_link_by_inflow_opt": ("el_uf", "e_link"),
    "ratio_link_by_delay_opt": ("el_ut", "e_link"),
    "ratio_inflow_by_link_opt": ("ef_ul", "e_inflow"),
    "ratio_inflow_by_delay_opt": ("ef_ut", "e_inflow"),
    "ratio_delay_by_link_opt": ("et_ul", "e_delay"),
    "ratio_delay_by_inflow_opt": ("et_uf", "e_delay"),
    "ratio_link_by_joint_opt": ("el_ua", "e_link"),
    "ratio_inflow_by_joint_opt": ("ef_ua", "e_inflow"),
    "ratio_delay_by_joint_opt": ("et_ua", "e_delay"),
}


def _oracle_columns(corpus, ctx, link, inflow, delay, joint):
    """Every full-coverage efficiency column, from the paper's definitions
    and the raw indices alone: e_l(U) = |U_l| / |U|, e_f(U) = f(U_f) / f(U)
    and e_t(U) = 1 / (1 + mean delay at which U first posts each meme)."""
    def flow(users):
        return sum(corpus.post_count[v] for v in users)

    def delay_eff(users):
        firsts = [corpus.first_post_by_user[v] for v in users]
        days = [
            (min(first[m] for first in firsts if m in first) - corpus.first_mention[m]) / DAY
            for m in ctx.memes
        ]
        return 1.0 / (1.0 + math.fsum(days) / len(days))

    # At full coverage every followee posts a covered meme, so the
    # effective followees are all of them.
    columns = {
        "e_link": min(1.0, len(link) / len(ctx.followees)),
        "e_inflow": min(1.0, flow(inflow) / flow(ctx.followees)),
        "e_delay": delay_eff(ctx.followees),
        "el_uf": len(link) / len(inflow),
        "el_ut": len(link) / len(delay),
        "ef_ul": flow(inflow) / flow(link),
        "ef_ut": flow(inflow) / flow(delay),
        "et_ul": delay_eff(link),
        "et_uf": delay_eff(inflow),
        "el_ua": len(link) / len(joint),
        "ef_ua": flow(inflow) / flow(joint),
        "et_ua": delay_eff(joint),
    }
    for ratio, (measure, own) in _ORACLE_RATIOS.items():
        columns[ratio] = columns[measure] / columns[own]
    return columns


def _oracle_set_columns(corpus, ctx, link, inflow, delay, joint):
    """The shape and set columns, from the raw indices: the ego's followee
    and meme counts, the followees' in-flow, and each cover set's size and
    in-flow (None for a set that is not computed)."""
    def flow(users):
        return sum(corpus.post_count[v] for v in users)

    sets = {"link": link, "inflow": inflow, "delay": delay, "joint": joint}
    return {
        "n_followees": len(ctx.followees),
        "n_memes": len(ctx.memes),
        "followee_inflow": flow(ctx.followees),
        **{f"{name}_set_size": None if users is None else len(users)
           for name, users in sets.items()},
        **{f"{name}_set_inflow": None if users is None else flow(users)
           for name, users in sets.items()},
    }


def _oracle_prefix(corpus, ctx, order, coverage):
    """The shortest prefix of the full-coverage ``order`` whose users post
    at least ceil(coverage * |memes|) of the ego's memes."""
    target = math.ceil(coverage * len(ctx.memes))
    covered = set()
    for i, v in enumerate(order):
        if len(covered) >= target:
            return order[:i]
        covered |= ctx.memes & set(corpus.first_post_by_user[v])
    return order


@settings(max_examples=60, deadline=None)
@given(
    st.builds(SynthSpec, seed=st.integers(0, 10**6), n_users=st.integers(2, 16),
              n_memes=st.integers(3, 14), window_days=st.just(7),
              archetype=st.sampled_from(ARCHETYPES), pareto_exponent=st.just(1.5),
              ego_followee_count=st.integers(1, 3)),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0.1, 0.5, 0.9]),
)
def test_every_efficiency_column_matches_an_independent_oracle(spec, alpha, beta, coverage):
    # The oracle sums the same integers and, through math.fsum, the same
    # delays exactly rounded, so every column must match bit for bit.
    corpus, _ = generate(spec)
    for ego in corpus.follows:
        try:
            ctx = ego_context(corpus, ego, "hashtag")
        except UndefinedMeasure:
            continue
        cover_spec = CoverSpec(universe=ctx.memes, alpha=alpha, beta=beta)
        covers = [engine(corpus, cover_spec).selected for engine in (
            greedy_min_cover, greedy_weighted_cover, delay_optimal_cover, joint_cover)]
        measures = _oracle_columns(corpus, ctx, *covers)
        full_coverage = [name for name in measures if not name.startswith("e_")]
        expected = {**_oracle_set_columns(corpus, ctx, *covers), **measures}
        report = evaluate_ego(corpus, ctx, "hashtag", alpha=alpha, beta=beta)._asdict()
        assert {name: report[name] for name in expected} == expected
        assert [name for name in report if name.startswith(("ratio_", "el_", "ef_", "et_"))] \
            == full_coverage
        # Below full coverage the link and in-flow sets are prefixes of the
        # full orders, and the delay and joint sets and every column that
        # compares sets are not computed.
        partial = evaluate_ego(corpus, ctx, "hashtag", coverage=coverage,
                               alpha=alpha, beta=beta)._asdict()
        prefixes = [_oracle_prefix(corpus, ctx, order, coverage) for order in covers[:2]]
        expected = _oracle_set_columns(corpus, ctx, *prefixes, None, None)
        assert {name: partial[name] for name in expected} == expected
        assert all(partial[name] is None for name in full_coverage)
