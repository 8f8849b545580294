import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedcover.cli import _load_cached, _save_corpus
from feedcover.errors import EmptyCorpus
from feedcover.cover import (
    CoverSpec,
    delay_optimal_cover,
    greedy_min_cover,
    greedy_weighted_cover,
    joint_cover,
)
from feedcover.ingest import ego_context
from feedcover.model import Corpus, MemeId, PostEvent
from feedcover.synth import generate_triadic_corpus

from conftest import DAY, M, make_corpus


def _events():
    return [
        PostEvent(1, M(0), 100),
        PostEvent(1, M(1), 50),
        PostEvent(2, M(0), 30),
        PostEvent(2, M(2), 400),
        PostEvent(3, M(1), 200),
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
        assert t0 == min(ev.time for ev in events if ev.meme == meme)
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
    # and a tie goes to the smaller id.
    rival = round(rival_delay_days * DAY)
    corpus = make_corpus(
        {9: [0, 2], 1: [0, 1, 2], 2: [0, 1]},
        times={(9, 0): 0, (9, 2): 0, (1, 0): DAY, (1, 1): 5, (1, 2): 2 * DAY,
               (2, 0): rival, (2, 1): 5 + rival},
    )
    spec = CoverSpec(universe=frozenset({M(0), M(1)}), candidates=frozenset({1, 2}),
                     alpha=0.0, beta=1.0)
    assert joint_cover(corpus, spec).selected == (picked,)


def test_meme_id_ordering_and_identity():
    assert MemeId("hashtag", "a") < MemeId("hashtag", "b")
    assert MemeId("url", "x") != MemeId("hashtag", "x")


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
    # Every event gets its own (equal) MemeId object, as ingest makes them.
    events = [PostEvent(u, MemeId("hashtag", f"m{i}"), t) for u, i, t in triples]
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
    for ev in events:
        memes.setdefault(ev.user, set()).add(ev.meme)
    for corpus in (a, b, reloaded):
        _assert_one_meme_id_per_meme(corpus)
        assert corpus.memes_by_user == {u: frozenset(s) for u, s in memes.items()}


def test_cover_memo_never_leaks(tmp_path):
    corpus, egos = generate_triadic_corpus(seed=4, n_communities=3, community_size=5)
    fresh = replace(corpus)
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
    assert replace(corpus)._memo == {}
    assert corpus._memo  # saving and copying leave the original's memo alone
