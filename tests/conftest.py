import random

import pytest

from feedcover.cover import CoverSpec, _masks, candidate_pool
from feedcover.errors import InfeasibleCover, InvalidSpec
from feedcover.model import Corpus, CoverResult, EgoContext

DAY = 86400
BRUTE_FORCE_MAX_CANDIDATES = 20


def M(i) -> tuple[str, str]:
    return ("hashtag", f"m{i}")


def make_corpus(
    sets,
    inflow=None,
    follows=None,
    times=None,
):
    """Corpus from {user: [meme indices]} plus optional inflow/time overrides.

    times maps (user, meme index) to a posting time in seconds;
    everything else posts at t=0. inflow overrides per-user post counts.
    """
    times = times or {}
    events = [
        (v, M(i), times.get((v, i), 0))
        for v, memes in sets.items()
        for i in memes
    ]
    counts = {v: len(memes) for v, memes in sets.items()}
    if inflow:
        counts.update(inflow)
    return Corpus.from_events(
        events,
        {u: tuple(sorted(set(vs))) for u, vs in (follows or {}).items()},
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


def brute_force_cover(corpus: Corpus, spec: CoverSpec, objective: str) -> CoverResult:
    """Exact optimum by subset enumeration; test oracle for small instances.

    objective is "cardinality" or "inflow". Among optima, returns the
    lexicographically smallest selected set. Full coverage only.
    """
    if objective not in ("cardinality", "inflow"):
        raise ValueError(f"unknown objective {objective!r}")
    if spec.coverage != 1.0:
        raise InfeasibleCover("brute force handles full coverage only")
    pool = candidate_pool(corpus, spec)
    n = len(pool)
    if n > BRUTE_FORCE_MAX_CANDIDATES:
        raise InvalidSpec(f"{n} candidates exceed bound {BRUTE_FORCE_MAX_CANDIDATES}")
    masks = _masks(corpus, spec.universe, pool)
    if not spec.universe:
        return CoverResult((), frozenset(), ())
    full = (1 << len(spec.universe)) - 1
    weights = [1 if objective == "cardinality" else corpus.post_count[v] for v in pool]
    cover_of = [0] * (1 << n)
    best = None
    for s in range(1, 1 << n):
        low = (s & -s).bit_length() - 1
        cover_of[s] = cover_of[s & (s - 1)] | masks[low]
        if cover_of[s] == full:
            members = [i for i in range(n) if s >> i & 1]
            key = (sum(weights[i] for i in members), tuple(pool[i] for i in members))
            if best is None or key < best:
                best = key
    if best is None:
        raise InfeasibleCover("candidates do not cover the universe")
    _, selected = best
    remaining = set(spec.universe)
    per_step = []
    for v in selected:
        newly = corpus.memes_by_user[v] & remaining
        remaining -= newly
        per_step.append((v, len(newly)))
    return CoverResult(
        selected=selected,
        covered=frozenset(spec.universe),
        per_step=tuple(per_step),
    )


@pytest.fixture
def rng():
    return random.Random(1234)
