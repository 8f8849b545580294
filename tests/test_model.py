import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedcover.cli import _load_cached, _save_corpus
from feedcover.efficiency import evaluate_ego
from feedcover.errors import EmptyCorpus, FeedcoverError
from feedcover.cover import (
    CoverSpec,
    delay_optimal_cover,
    greedy_min_cover,
    greedy_weighted_cover,
    joint_cover,
)
from feedcover.ingest import ego_context
from feedcover.model import KIND_INDICES, MEME_KINDS, SECONDS_PER_DAY, Corpus
from feedcover.synth import generate_triadic_corpus

from conftest import DAY, M, make_corpus


def _events():
    return [
        (1, M(0), 100),
        (1, M(1), 50),
        (2, M(0), 30),
        (2, M(2), 400),
        (3, M(1), 200),
    ]


def test_order_independence():
    events = _events()
    shuffled = events[:]
    random.Random(7).shuffle(shuffled)
    a = Corpus.from_events(events, {})
    b = Corpus.from_events(shuffled, {})
    assert a == b


def test_first_mention_is_minimum_over_rescan():
    events = _events()
    corpus = Corpus.from_events(events, {})
    for meme, t0 in corpus.first_mention.items():
        assert t0 == min(time for _, m, time in events if m == meme)
    assert corpus.first_mention[M(0)] == 30


def test_index_consistency():
    corpus = Corpus.from_events(_events(), {})
    for v, memes in corpus.memes_by_user.items():
        for meme in memes:
            assert v in corpus.posters_by_meme[meme]
    for meme, posters in corpus.posters_by_meme.items():
        for v in posters:
            assert meme in corpus.memes_by_user[v]


def test_post_count_defaults_to_event_count_and_accepts_override():
    corpus = Corpus.from_events(_events(), {})
    assert corpus.post_count == {1: 2, 2: 2, 3: 1}
    corpus = Corpus.from_events(_events(), {}, post_counts={1: 9, 2: 2, 3: 1})
    assert corpus.post_count[1] == 9


def test_empty_event_stream_rejected():
    with pytest.raises(EmptyCorpus):
        Corpus.from_events([], {})


@pytest.mark.parametrize("rival_delay_days, picked", [(1.0, 1), (0.99, 2)])
def test_joint_cover_weighs_mean_delay(rival_delay_days, picked):
    # Memes 0 and 2 are born at t=0 (user 9). User 1 first posts meme 0
    # a day later, meme 1 first (delay 0) and meme 2 two days later: a
    # mean delay of 1 day over all its memes, though meme 2 is outside
    # the universe. Rival user 2 posts memes 0 and 1 rival_delay_days
    # late. With alpha=0 and beta=1 the joint weight is the mean delay,
    # and a tie goes to the smaller id. User 9 posts meme 3, which user 8
    # starts, 9 days late: a mean delay of 3 days keeps it out of the cover.
    rival = round(rival_delay_days * DAY)
    corpus = make_corpus(
        {9: [0, 2, 3], 8: [3], 1: [0, 1, 2], 2: [0, 1]},
        times={(9, 0): 0, (9, 2): 0, (9, 3): 9 * DAY, (8, 3): 0,
               (1, 0): DAY, (1, 1): 5, (1, 2): 2 * DAY,
               (2, 0): rival, (2, 1): 5 + rival},
    )
    spec = CoverSpec(universe=frozenset({M(0), M(1)}), alpha=0.0, beta=1.0)
    assert joint_cover(corpus, spec).selected == (picked,)


# Two memes of each kind, arriving with the kinds interleaved.
_MIXED_EVENTS = [
    (2, ("youtube_video", "v2"), 30), (1, ("hashtag", "b"), 10), (3, ("url", "x.org/b"), 20),
    (1, ("news_domain", "cnn.com"), 40), (2, ("hashtag", "a"), 15),
    (3, ("youtube_video", "v1"), 35), (1, ("url", "x.org/a"), 25),
    (2, ("news_domain", "bbc.co.uk"), 45), (3, ("hashtag", "b"), 5), (1, ("url", "x.org/a"), 8),
]


@settings(max_examples=30, deadline=None)
@given(st.permutations(_MIXED_EVENTS))
def test_from_events_keeps_each_meme_in_its_own_kind_part(events):
    corpus = Corpus.from_events(events, {})
    assert list(corpus.kinds) == sorted(MEME_KINDS)
    for kind, part in corpus.kinds.items():
        assert list(part) == list(KIND_INDICES)
        memes = sorted({meme for _, meme, _ in events if meme[0] == kind})
        assert len(memes) == 2
        assert list(part["posters_by_meme"]) == memes
        assert list(part["first_mention"]) == memes
        by_user = part["first_post_by_user"]
        assert list(by_user) == sorted({u for u, meme, _ in events if meme[0] == kind})
        for first in by_user.values():
            assert list(first) == sorted(first) and {m[0] for m in first} == {kind}


def _index_orders(corpus):
    """Key order of every index, which dict equality does not compare."""
    return [list(d) for d in (corpus.memes_by_user, corpus.posters_by_meme,
                              corpus.post_count, corpus.first_mention,
                              corpus.first_post_by_user)] + [
        list(first) for first in corpus.first_post_by_user.values()
    ]


def _assert_one_meme_id_per_meme(corpus):
    canon = {m: m for m in corpus.first_mention}
    for meme in corpus.posters_by_meme:
        assert meme is canon[meme]
    for memes in corpus.memes_by_user.values():
        assert all(meme is canon[meme] for meme in memes)
    for first in corpus.first_post_by_user.values():
        assert all(meme is canon[meme] for meme in first)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 99)),
             min_size=1, max_size=30),
    st.randoms(use_true_random=False),
)
def test_from_events_order_independent_and_shares_meme_ids(triples, rnd):
    # Every event gets its own (equal) meme tuple, as ingest makes them.
    events = [(u, ("hashtag", f"m{i}"), t) for u, i, t in triples]
    shuffled = events[:]
    rnd.shuffle(shuffled)
    a = Corpus.from_events(events, {})
    b = Corpus.from_events(shuffled, {})
    assert a == b
    assert _index_orders(a) == _index_orders(b)
    with tempfile.TemporaryDirectory() as tmp:
        reloaded = _load_cached(_save_corpus(a, Path(tmp)))
    assert reloaded == a
    assert "memes_by_user" not in vars(reloaded)  # a view, not a stored index
    memes: dict[int, set] = {}
    for user, meme, _ in events:
        memes.setdefault(user, set()).add(meme)
    for corpus in (a, b, reloaded):
        _assert_one_meme_id_per_meme(corpus)
        assert corpus.memes_by_user == {u: frozenset(s) for u, s in memes.items()}


def test_cover_memo_never_leaks(tmp_path):
    corpus, egos = generate_triadic_corpus(seed=4, n_communities=3, community_size=5)
    fresh = corpus._replace()
    fresh_bytes = _save_corpus(fresh, tmp_path / "fresh").read_bytes()
    for ego in egos[::4]:  # egos from every community
        ctx = ego_context(corpus, ego, "hashtag")
        for coverage in (0.5, 1.0):
            spec = CoverSpec(universe=ctx.memes, coverage=coverage)
            greedy_min_cover(corpus, spec)
            greedy_weighted_cover(corpus, spec)
            joint_cover(corpus, spec)
        delay_optimal_cover(corpus, spec)
    assert corpus.memes_by_user is corpus.memes_by_user  # built once, then memoised
    assert corpus._memo and not fresh._memo
    assert corpus == fresh
    assert repr(corpus) == repr(fresh)
    used_bytes = _save_corpus(corpus, tmp_path / "used").read_bytes()
    assert used_bytes == fresh_bytes
    assert _load_cached(tmp_path / "used" / "corpus.pkl")._memo == {}
    assert corpus._replace()._memo == {}
    assert corpus._memo  # saving and copying leave the original's memo alone


def test_corpus_record_contract():
    corpus = Corpus.from_events(_events(), {1: {2}})
    corpus.posters_by_meme
    corpus._memo["key"] = "value"
    assert {"posters_by_meme", "_memo"} <= set(vars(corpus))
    fresh = corpus._replace()
    assert fresh == corpus and fresh is not corpus
    assert fresh._memo == {} and "posters_by_meme" not in vars(fresh)
    with pytest.raises(AttributeError):
        corpus.follows = {}
    with pytest.raises(TypeError):
        hash(corpus)
    assert isinstance(vars(Corpus)["from_events"], classmethod)


# Users 10 and 11 post hashtags g1 and g2 at their birth, and three posts
# each. 10 also posts url gu a day after user 12 does, 11 posts url gv
# first: over all kinds 10's mean delay is 1/3 day and 11's is 0, over
# hashtags alone both are 0. Ego 13 follows both: its hashtag joint cover
# is (11,) under the all-kind weight and (10,), the smaller id, under the
# hashtag-only one.
G1, G2 = ("hashtag", "g1"), ("hashtag", "g2")
GADGET = [
    (10, G1, 0), (10, G2, 0), (11, G1, 0), (11, G2, 0),
    (12, ("url", "gu"), 0), (10, ("url", "gu"), DAY),
    (11, ("url", "gv"), 0),
]
ENGINES = (greedy_min_cover, greedy_weighted_cover, joint_cover, delay_optimal_cover)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FeedcoverError as exc:
        return f"{type(exc).__name__}: {exc}"


def _selected(engine, corpus, spec):
    result = _outcome(engine, corpus, spec)
    return result if isinstance(result, str) else result.selected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5), st.sampled_from(MEME_KINDS), st.integers(0, 3),
                       st.integers(0, 5 * DAY)), max_size=40),
    st.dictionaries(st.integers(0, 5), st.frozensets(st.integers(0, 5), max_size=5),
                    max_size=6),
)
def test_one_kind_cache_matches_all_kind_corpus(triples, follows):
    events = GADGET + [(u, (kind, f"k{i}"), t) for u, kind, i, t in triples]
    corpus = Corpus.from_events(events, {**follows, 13: frozenset({10, 11})})
    for user, first in corpus.first_post_by_user.items():
        fsum = math.fsum((t - corpus.first_mention[m]) / SECONDS_PER_DAY
                         for m, t in first.items()) / len(first)
        assert corpus.mean_delay_days[user].hex() == fsum.hex()
    with tempfile.TemporaryDirectory() as tmp:
        path = _save_corpus(corpus, Path(tmp))
        loaded = {kind: _load_cached(path, kind) for kind in MEME_KINDS}
    for kind, one in loaded.items():
        assert one.kinds == {k: v for k, v in corpus.kinds.items() if k == kind}
        assert one.mean_delay_days == corpus.mean_delay_days
        for ego in one.follows:
            ctx = _outcome(ego_context, corpus, ego, kind)
            assert _outcome(ego_context, one, ego, kind) == ctx
            if isinstance(ctx, str):
                continue
            assert (_outcome(evaluate_ego, one, ctx, kind)
                    == _outcome(evaluate_ego, corpus, ctx, kind))
            for coverage in (0.5, 1.0):
                spec = CoverSpec(universe=ctx.memes, coverage=coverage)
                for engine in ENGINES:
                    assert _selected(engine, one, spec) == _selected(engine, corpus, spec)
    # The stored weight is not the one-kind mean, and it decides the order.
    hashtags = loaded["hashtag"]
    one_kind = {u: math.fsum((t - hashtags.first_mention[m]) / SECONDS_PER_DAY
                             for m, t in first.items()) / len(first)
                for u, first in hashtags.first_post_by_user.items()}
    assert one_kind[10] == 0.0 < hashtags.mean_delay_days[10]
    spec = CoverSpec(universe=frozenset({G1, G2}))
    assert joint_cover(hashtags, spec).selected == (11,)
    assert joint_cover(hashtags._replace(mean_delay_days=one_kind), spec).selected == (10,)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 9), st.sampled_from(MEME_KINDS), st.integers(0, 4),
                       st.integers(0, 3 * DAY)), min_size=1, max_size=40),
    st.dictionaries(st.integers(0, 9), st.lists(st.integers(0, 9), max_size=6),
                    max_size=8),
)
def test_user_id_sets_are_sorted_tuples(triples, follows):
    events = [(u, (kind, f"k{i}"), t) for u, kind, i, t in triples]
    corpus = Corpus.from_events(events, follows)
    with tempfile.TemporaryDirectory() as tmp:
        loaded = _load_cached(_save_corpus(corpus, Path(tmp)))
    # Each meme's posters are in arrival order: by the user's first post of
    # the meme, ties to the smaller id; the first poster's time is the
    # meme's first mention. Follow lists are sorted by id.
    firsts: dict[tuple[str, str], dict[int, int]] = {}
    for user, meme, time in events:
        by_user = firsts.setdefault(meme, {})
        by_user[user] = min(time, by_user.get(user, time))
    for one in (corpus, loaded):
        assert {m: set(ids) for m, ids in one.posters_by_meme.items()} == {
            m: set(by_user) for m, by_user in firsts.items()}
        assert {u: set(ids) for u, ids in one.follows.items()} == {
            u: set(vs) for u, vs in follows.items()}
        for meme, ids in one.posters_by_meme.items():
            assert type(ids) is tuple
            by_user = firsts[meme]
            assert list(ids) == sorted(by_user, key=lambda v: (by_user[v], v))
            assert all(one.first_post_by_user[v][meme] == by_user[v] for v in ids)
            assert one.first_mention[meme] == firsts[meme][ids[0]]
        for ids in one.follows.values():
            assert type(ids) is tuple
            assert all(a < b for a, b in zip(ids, ids[1:]))
    assert loaded == corpus
