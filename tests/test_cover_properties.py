"""Property tests: the lazy greedy kernel against the eager reference loop.

``eager_greedy`` is the plain greedy: on every pick it rescans the whole
pool and takes the smallest ``(score, user id)``. The package's lazy
kernel must return exactly the same covers, step by step.
``rescan_order`` is the same plain greedy over bitmasks, and the kernel
``_greedy_order`` is also checked against it directly, on inputs drawn
to put stale keys just below their fresh scores. The delay cover is
checked against each meme's earliest poster.
"""
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedcover.cover import (
    CoverSpec,
    _greedy_order,
    candidate_pool,
    delay_optimal_cover,
    greedy_min_cover,
    greedy_weighted_cover,
    joint_cover,
    set_average_delay_days,
)
from feedcover.errors import InfeasibleCover
from feedcover.model import SECONDS_PER_DAY, Corpus, CoverResult

from conftest import DAY, M, make_corpus, random_instance


def eager_greedy(corpus, spec, score) -> CoverResult:
    universe = frozenset(spec.universe)
    target = math.ceil(spec.coverage * len(universe))
    pool = candidate_pool(corpus, spec)
    sets = {v: corpus.memes_by_user[v] & universe for v in pool}
    covered, selected, per_step = set(), [], []
    remaining = set(universe)
    while len(covered) < target:
        best_v = best_score = None
        for v in pool:
            if v in selected:
                continue
            gain = len(sets[v] & remaining)
            if gain == 0:
                continue
            s = score(v, gain)
            if best_score is None or s < best_score or (s == best_score and v < best_v):
                best_v, best_score = v, s
        if best_v is None:
            raise InfeasibleCover(f"covered {len(covered)} of required {target} memes")
        newly = sets[best_v] & remaining
        covered |= newly
        remaining -= newly
        selected.append(best_v)
        per_step.append((best_v, len(newly)))
    return CoverResult(tuple(selected), frozenset(covered), tuple(per_step))


def eager_min(corpus, spec):
    return eager_greedy(corpus, spec, lambda v, gain: 1.0 / gain)


def eager_weighted(corpus, spec):
    return eager_greedy(corpus, spec, lambda v, gain: corpus.post_count[v] / gain)


def eager_joint(corpus, spec):
    def score(v, gain):
        memes = corpus.memes_by_user[v]
        delay = math.fsum(
            (corpus.first_post_by_user[v][m] - corpus.first_mention[m]) / SECONDS_PER_DAY
            for m in memes
        ) / len(memes)
        return (float(corpus.post_count[v]) ** spec.alpha) * (delay ** spec.beta) / gain

    return eager_greedy(corpus, spec, score)


def eager_set_delay(corpus, selected, universe):
    """Per meme, the earliest post by any selected user; mean delay in days."""
    if not universe:
        return None
    return math.fsum(
        (min(corpus.first_post_by_user[v][m] for v in selected
             if m in corpus.memes_by_user.get(v, frozenset()))
         - corpus.first_mention[m]) / SECONDS_PER_DAY
        for m in universe
    ) / len(universe)


ENGINES = [
    (greedy_min_cover, eager_min),
    (greedy_weighted_cover, eager_weighted),
    (joint_cover, eager_joint),
]


@st.composite
def instances(draw, max_users=15, max_memes=12, shared=False):
    """A random corpus and cover spec with many score ties.

    Post counts and posting days come from tiny ranges, so equal weights,
    equal gains and zero-delay posters are common. With ``shared``, each
    user posts one of at most three shared meme subsets, and 0 or 1
    posts, so many candidates have equal bitmasks and equal weights. The
    universe may hold one meme that no user posts, so some full covers
    are infeasible.
    """
    n_memes = draw(st.integers(1, max_memes))
    n_users = draw(st.integers(1, max_users))
    meme_ids = st.integers(0, n_memes - 1)
    subsets = st.lists(meme_ids, min_size=1, max_size=n_memes, unique=True)
    if shared:
        subsets = st.sampled_from(draw(st.lists(subsets, min_size=1, max_size=3)))
    sets = {v: draw(subsets) for v in range(1, n_users + 1)}
    times = {(v, i): draw(st.integers(0, 3)) * DAY for v, memes in sets.items()
             for i in memes}
    inflow = {v: draw(st.integers(0, 1 if shared else 4)) for v in sets}
    corpus = make_corpus(sets, inflow=inflow, times=times)
    everything = sorted(corpus.first_mention)
    universe = frozenset(draw(st.one_of(
        st.just(everything), st.lists(st.sampled_from(everything), unique=True))))
    if draw(st.booleans()):
        universe |= {M(n_memes)}  # posted by nobody
    spec = CoverSpec(
        universe=universe,
        coverage=draw(st.one_of(st.sampled_from([0.25, 1 / 3, 0.5, 0.9, 1.0]),
                                st.floats(0.01, 1.0))),
        alpha=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        beta=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    return corpus, spec


def run(engine, corpus, spec):
    try:
        return engine(corpus, spec)
    except InfeasibleCover:
        return InfeasibleCover


def outcome(engine, corpus, spec):
    """The engine's result, or the message of the InfeasibleCover it raises."""
    try:
        return engine(corpus, spec)
    except InfeasibleCover as exc:
        return f"InfeasibleCover: {exc}"


@settings(max_examples=250, deadline=None)
@given(st.one_of(instances(), instances(shared=True)))
def test_lazy_kernel_matches_eager_reference(instance):
    corpus, spec = instance
    for engine, reference in ENGINES:
        got, want = run(engine, corpus, spec), run(reference, corpus, spec)
        if want is InfeasibleCover:
            assert got is InfeasibleCover
            continue
        assert got.selected == want.selected
        assert got.per_step == want.per_step
        assert got.covered == want.covered


# 7.000000000000001 / 3 rounds to 7 / 3.
HEAVIER_SEVEN = math.nextafter(7.0, 8.0)


@pytest.mark.parametrize("masks, weights, picks", [
    # Equal masks and equal scores: the rescan takes the smaller id,
    # though it weighs more, so it must not be dropped for the lighter one.
    ([0b111, 0b111], [HEAVIER_SEVEN, 7.0], [(1, 3)]),
    ([0b111, 0b111], [7.0, HEAVIER_SEVEN], [(1, 3)]),
    # After user 3's pick, user 1's key 0.5 is stale; its fresh score 1.0
    # loses to user 2's 0.6, so user 1 goes back into the heap.
    ([0b011, 0b100, 0b001], [1.0, 0.6, 0.1], [(3, 1), (2, 1), (1, 1)]),
])
def test_greedy_order_picks_like_a_full_rescan(masks, weights, picks):
    assert HEAVIER_SEVEN / 3 == 7.0 / 3
    assert _greedy_order(list(range(1, len(masks) + 1)), masks, weights, 3) == picks


def rescan_order(pool, masks, weights, n_memes) -> list:
    """The plain greedy over bitmasks: each step rescans every candidate and
    takes the smallest ``(w / gain, user id)`` among those with a nonzero gain."""
    remaining = (1 << n_memes) - 1
    order = []
    while True:
        steps = [(w / gain, v, gain, m) for v, m, w in zip(pool, masks, weights)
                 if (gain := (m & remaining).bit_count())]
        if not steps:
            return order
        _, v, gain, m = min(steps)
        remaining &= ~m
        order.append((v, gain))


@st.composite
def kernel_inputs(draw):
    """A pool of up to 30 users, their masks over at most 12 memes, and
    float weights spread over several orders of magnitude.

    The lazy rule matters when a stale key lies just below its fresh
    score and another candidate's score falls between the two. A
    candidate of 11 or 12 memes that loses one moves up by 9-10%, so
    meme counts of 11 and 12 are drawn often, and the users come in
    three groups: one or two cheap posters of a single meme, picked
    first; up to 25 posters of all memes but at most two (often a cheap
    poster's meme, so that the cheap pick leaves them current while it
    makes others stale), weighed from a palette of one or two weights, so
    equal scores are common; and up to three posters of any memes at any
    weight, zero included.
    """
    n_memes = draw(st.one_of(st.integers(1, 12), st.integers(11, 12)))
    full = (1 << n_memes) - 1
    bit = st.integers(0, n_memes - 1).map(lambda i: 1 << i)
    scale = 10.0 ** draw(st.integers(-3, 3))
    palette = draw(st.lists(st.integers(1, 12).map(lambda k: k * scale),
                            min_size=1, max_size=2))
    cheap = draw(st.lists(st.tuples(bit, st.integers(1, 12).map(lambda k: k * scale / 1000)),
                          min_size=1, max_size=2))
    drop = st.one_of(st.sampled_from([m for m, _ in cheap]), bit)
    dense = st.tuples(st.lists(drop, max_size=2).map(lambda d: full & ~sum(set(d)) or full),
                      st.sampled_from(palette))
    other = st.tuples(st.integers(1, full), st.one_of(st.just(0.0), st.floats(1e-4, 1e4)))
    users = (cheap + draw(st.lists(dense, min_size=1, max_size=25))
             + draw(st.lists(other, max_size=3)))
    ids = draw(st.lists(st.integers(0, 99), min_size=len(users), max_size=len(users),
                        unique=True))  # in drawn order, so any group may hold the lowest ids
    pool, masks, weights = zip(*sorted((v, m, w) for v, (m, w) in zip(ids, users)))
    return list(pool), list(masks), list(weights), n_memes


@settings(max_examples=400, deadline=None)
@given(kernel_inputs())
def test_greedy_order_matches_a_full_rescan(inputs):
    assert _greedy_order(*inputs) == rescan_order(*inputs)


@settings(max_examples=120, deadline=None)
@given(instances(), st.floats(0.01, 1.0))
def test_partial_cover_is_prefix_of_full_order(instance, coverage):
    corpus, spec = instance
    full = spec._replace(coverage=1.0)
    partial = spec._replace(coverage=coverage)
    for engine, _ in ENGINES:
        whole = run(engine, corpus, full)
        part = run(engine, corpus, partial)
        if whole is InfeasibleCover:
            continue
        assert part.selected == whole.selected[:len(part.selected)]
        assert part.per_step == whole.per_step[:len(part.per_step)]
        assert len(part.covered) >= math.ceil(coverage * len(spec.universe))


def as_two_kinds(corpus, universe, moved):
    """The same posts with the memes in ``moved`` made urls: a corpus of
    two kinds when ``moved`` holds some of its memes but not all, so its
    views are merged copies. Returns it and the universe's new memes."""
    kind = {m: ("url", m[1]) if m in moved else m
            for m in universe.union(corpus.first_mention)}
    events = [(v, kind[m], t) for v, first in corpus.first_post_by_user.items()
              for m, t in first.items()]
    corpus = Corpus.from_events(events, corpus.follows, post_counts=corpus.post_count)
    return corpus, frozenset(map(kind.get, universe))


@settings(max_examples=120, deadline=None)
@given(instances(), st.data())
def test_set_average_delay_matches_per_meme_minimum(instance, data):
    corpus, spec = instance
    everything = sorted(corpus.first_mention)
    moved = everything[data.draw(st.integers(0, len(everything))):]  # none, some or all
    corpus, universe = as_two_kinds(corpus, spec.universe, moved)
    users = sorted(corpus.post_count)
    container = data.draw(st.sampled_from([tuple, frozenset]))  # a cover's, a context's
    selected = container(data.draw(st.lists(st.sampled_from(users), unique=True)))
    reachable = frozenset().union(*(corpus.memes_by_user[v] for v in selected))
    if universe <= reachable:
        assert (set_average_delay_days(corpus, selected, universe)
                == eager_set_delay(corpus, selected, universe))
    else:
        with pytest.raises(InfeasibleCover) as exc:
            set_average_delay_days(corpus, selected, universe)
        reached = len(universe & reachable)
        assert str(exc.value) == f"selected users post {reached} of {len(universe)} memes"


@settings(max_examples=250, deadline=None)
@given(instances())
def test_delay_cover_picks_each_memes_earliest_candidate(instance):
    corpus, spec = instance
    spec = CoverSpec(spec.universe)
    earliest = {}
    for m in spec.universe:
        posters = corpus.posters_by_meme.get(m, ())
        if posters:
            earliest[m] = min((corpus.first_post_by_user[v][m], v) for v in posters)
    if len(earliest) < len(spec.universe):
        with pytest.raises(InfeasibleCover):
            delay_optimal_cover(corpus, spec)
        return
    result = delay_optimal_cover(corpus, spec)
    picks = Counter(v for _, v in earliest.values())
    assert result.per_step == tuple(sorted(picks.items()))
    assert result.selected == tuple(sorted(picks))
    assert result.covered == spec.universe
    delays = [(t - corpus.first_mention[m]) / SECONDS_PER_DAY
              for m, (t, _) in earliest.items()]
    mean = math.fsum(delays) / len(delays) if delays else None
    assert set_average_delay_days(corpus, result.selected, spec.universe) == mean


@settings(max_examples=150, deadline=None)
@given(instances())
def test_delay_cover_reaches_each_meme_at_its_first_mention(instance):
    corpus, spec = instance
    universe = spec.universe.intersection(corpus.first_mention)
    cover = delay_optimal_cover(corpus, CoverSpec(universe))
    assert cover.covered == universe
    if universe:
        assert set_average_delay_days(corpus, cover.selected, universe) == 0.0


ALL_ENGINES = (greedy_min_cover, greedy_weighted_cover, joint_cover, delay_optimal_cover)


@settings(max_examples=200, deadline=None)
@given(instances(), st.data())
def test_memoised_calls_match_a_fresh_corpus(instance, data):
    # One corpus serves a drawn sequence of calls, so later calls hit the
    # memo that earlier ones filled (or replaced). Each call runs at a
    # drawn coverage and at full coverage, in a drawn order; every result
    # must equal the same call on a fresh copy of the corpus.
    corpus, spec = instance
    # An equal copy of the universe is a distinct object, so a call with it
    # finds the memo's slot by ``!=``, not by identity.
    universes = st.sampled_from([spec.universe, frozenset(list(spec.universe)),
                                 frozenset(corpus.first_mention)])
    calls = data.draw(st.lists(st.tuples(
        st.sampled_from(ALL_ENGINES),
        universes,
        st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.01, 1.0)),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.booleans(),
    ), min_size=1, max_size=8))
    for engine, universe, coverage, alpha, beta, full_first in calls:
        levels = (1.0, coverage) if full_first else (coverage, 1.0)
        for level in levels:
            if engine is delay_optimal_cover and level < 1.0:
                continue
            call = CoverSpec(universe, level, alpha, beta)
            assert outcome(engine, corpus, call) == outcome(engine, corpus._replace(), call)


@settings(max_examples=200, deadline=None)
@given(st.one_of(instances(), instances(shared=True)))
def test_covered_is_the_union_of_the_picks_universe_memes(instance):
    # ``covered`` is derived from the prefix's users, not from its gains.
    # It must name exactly the universe memes that the selected users
    # post: at full coverage, the whole universe.
    corpus, spec = instance
    for coverage in (spec.coverage, 1.0):
        call = spec._replace(coverage=coverage)
        for engine in ALL_ENGINES:
            if engine is delay_optimal_cover and coverage < 1.0:
                continue
            result = run(engine, corpus, call)
            if result is InfeasibleCover:
                continue
            reached = frozenset().union(*(corpus.memes_by_user[v] for v in result.selected))
            assert result.covered == reached & spec.universe
            if coverage == 1.0:
                assert result.covered == spec.universe


def test_memoised_partial_cover_whose_full_cover_is_infeasible():
    # Nobody posts meme 3 of memes 0-3: the full cover is infeasible, a
    # half cover is the first pick of the full order.
    corpus = make_corpus({1: [0, 1], 2: [2]}, inflow={1: 3, 2: 1})
    universe = frozenset(corpus.first_mention) | {M(3)}
    half = CoverSpec(universe, coverage=0.5)
    full = CoverSpec(universe)
    for engine in (greedy_min_cover, greedy_weighted_cover, joint_cover):
        for first, then in ((full, half), (half, full)):
            fresh = [outcome(engine, corpus._replace(), s) for s in (first, then)]
            assert [outcome(engine, corpus, s) for s in (first, then)] == fresh
        assert outcome(engine, corpus, full) == "InfeasibleCover: covered 3 of required 4 memes"
        assert len(outcome(engine, corpus, half).covered) >= 2


def test_refreshed_root_is_compared_with_both_children():
    # User 5 is picked first; then the stale root (user 1, gain now 1) must
    # lose to user 3 (gain 2), whichever child of the root holds user 3.
    corpus = make_corpus({1: [2, 3], 2: [1], 3: [3, 4], 4: [5], 5: [5, 2, 1], 6: [2]})
    spec = CoverSpec(universe=frozenset(corpus.first_mention))
    assert greedy_min_cover(corpus, spec).selected == (5, 3)
    assert greedy_min_cover(corpus, spec) == eager_min(corpus, spec)


def test_random_full_covers_match_eager_reference(rng):
    for _ in range(300):
        corpus, universe = random_instance(rng)
        spec = CoverSpec(universe=universe)
        for engine, reference in ENGINES:
            assert engine(corpus, spec) == reference(corpus, spec)


def test_large_pool_matches_eager_reference():
    # Pools of hundreds, so refreshed entries sink deep into the heap.
    sets = {v: [(v * 7 + k * k) % 300 for k in range(1 + v % 13)] for v in range(1, 401)}
    sets = {v: sorted(set(memes)) for v, memes in sets.items()}
    times = {(v, i): (v * i) % 5 * DAY for v, memes in sets.items() for i in memes}
    corpus = make_corpus(sets, inflow={v: 1 + v % 6 for v in sets}, times=times)
    spec = CoverSpec(universe=frozenset(M(i) for i in range(0, 300, 2)))
    for engine, reference in ENGINES:
        assert engine(corpus, spec) == reference(corpus, spec)
