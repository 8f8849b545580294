import random

import pytest

from feedcover.model import Corpus, EgoContext, MemeId, PostEvent

DAY = 86400


def M(i) -> MemeId:
    return MemeId("hashtag", f"m{i}")


def make_corpus(
    sets,
    inflow=None,
    follows=None,
    times=None,
    window_days=10,
):
    """Corpus from {user: [meme indices]} plus optional inflow/time overrides.

    times maps (user, meme index) to a posting time in seconds;
    everything else posts at t=0. inflow overrides per-user post counts.
    """
    times = times or {}
    events = [
        PostEvent(v, M(i), times.get((v, i), 0))
        for v, memes in sets.items()
        for i in memes
    ]
    counts = {v: len(memes) for v, memes in sets.items()}
    if inflow:
        counts.update(inflow)
    return Corpus.from_events(
        events,
        {u: frozenset(vs) for u, vs in (follows or {}).items()},
        window=(0, window_days * DAY),
        post_counts=counts,
    )


def make_ctx(corpus, ego, followees) -> EgoContext:
    """Ego context over an explicit followee set (no kind restriction)."""
    memes = frozenset(
        m for v in followees for m in corpus.memes_by_user.get(v, frozenset())
    )
    return EgoContext(ego=ego, followees=frozenset(followees), memes=memes)


def random_instance(rng: random.Random, max_candidates=12, max_memes=15):
    """Random cover instance; universe = union of candidate sets."""
    n_cand = rng.randint(2, max_candidates)
    n_memes = rng.randint(2, max_memes)
    sets = {}
    for v in range(1, n_cand + 1):
        size = rng.randint(1, n_memes)
        sets[v] = rng.sample(range(n_memes), size)
    inflow = {v: rng.randint(1, 50) for v in sets}
    corpus = make_corpus(sets, inflow=inflow)
    universe = frozenset(corpus.first_mention)
    return corpus, universe


@pytest.fixture
def rng():
    return random.Random(1234)
