"""Deterministic generators for synthetic corpora.

Archetypes cover the extreme-inefficiency constructions used in tests:
redundant followees (identical meme sets), a superuser shadowing
disjoint followees, Pareto-distributed posting volume, and a plain
random user/meme bipartite corpus. A separate community generator
produces triadic-closure-biased follow graphs with efficient outsider
posters, for structural (LCC) experiments.
"""
from __future__ import annotations

import random
from pathlib import Path
from typing import NamedTuple

from .errors import InvalidSpec
from .model import ARCHETYPES, Corpus

_DAY = 86400
_MEMES_PER_COMMUNITY = 30


class SynthSpec(NamedTuple):
    seed: int = 0
    n_users: int = 20
    n_memes: int = 30
    window_days: int = 7
    archetype: str = "random_bipartite"
    pareto_exponent: float = 1.5
    ego_followee_count: int = 5


def _meme(i: int) -> tuple[str, str]:
    return ("hashtag", f"m{i:04d}")


def _validate(spec: SynthSpec) -> None:
    if spec.archetype not in ARCHETYPES:
        raise InvalidSpec(f"unknown archetype {spec.archetype!r}")
    if min(spec.n_users, spec.n_memes, spec.window_days, spec.ego_followee_count) < 1:
        raise InvalidSpec("all counts must be >= 1")
    if not 0 < spec.pareto_exponent < float("inf"):
        raise InvalidSpec(f"pareto exponent {spec.pareto_exponent} is not a finite number > 0")


def generate(spec: SynthSpec) -> tuple[Corpus, int]:
    """Generate a corpus plus its ego user; same seed, same corpus."""
    events, follows, ego = generate_events(spec)
    return Corpus.from_events(events, follows), ego


def generate_events(spec: SynthSpec) -> tuple[list[tuple], dict[int, set[int]], int]:
    """The ``(user, meme, time)`` post events, follow graph and ego of ``generate``."""
    _validate(spec)
    rng = random.Random(spec.seed)
    start, end = 0, spec.window_days * _DAY
    ego = 0
    k = spec.ego_followee_count
    followees = list(range(1, k + 1))
    events: list[tuple[int, tuple[str, str], int]] = []
    follows: dict[int, set[int]] = {ego: set(followees)}

    def t() -> int:
        return rng.randrange(start, end)

    if spec.archetype == "redundant_followees":
        events = [(v, _meme(i), t()) for v in followees for i in range(spec.n_memes)]
    elif spec.archetype == "superuser_shadow":
        if spec.n_memes < k:
            raise InvalidSpec("superuser_shadow needs n_memes >= followee count")
        superuser = k + 1
        for i in range(spec.n_memes):
            events.append((followees[i % k], _meme(i), t()))
            events.append((superuser, _meme(i), t()))
    elif spec.archetype == "random_bipartite":
        n = max(spec.n_users, k + 1)
        for v in range(1, n):
            size = rng.randint(1, max(1, spec.n_memes // 3))
            events += [(v, _meme(i), t()) for i in rng.sample(range(spec.n_memes), size)]
        for v in range(1, n):
            for w in range(1, n):
                if v != w and rng.random() < 0.1:
                    follows.setdefault(v, set()).add(w)
    else:  # pareto_inflow
        n = max(spec.n_users, k + 1)
        for v in range(1, n):
            try:
                n_posts = max(min(int(rng.paretovariate(spec.pareto_exponent)), 500), 1)
            except OverflowError:  # a draw past the float range is past the cap too
                n_posts = 500
            events += [(v, _meme(rng.randrange(spec.n_memes)), t()) for _ in range(n_posts)]
    return events, follows, ego


def generate_triadic_corpus(*args, **kwargs) -> tuple[Corpus, list[int]]:
    """The corpus of ``generate_triadic_events`` with the same arguments,
    and one ego per member."""
    events, follows, egos = generate_triadic_events(*args, **kwargs)
    return Corpus.from_events(events, follows), egos


def generate_triadic_events(
    seed: int = 0,
    n_communities: int = 20,
    community_size: int = 12,
    window_days: int = 7,
) -> tuple[list[tuple], dict[int, set[int]], list[int]]:
    """Communities of mutually following, redundant posters.

    Every community member follows every other member (maximal triadic
    closure), posts a large random subset of the community's meme pool
    many times, and two unconnected outsiders split the pool between
    them, posting each meme once, early. Optimizing any efficiency
    therefore pulls the ego away from the dense community and into the
    sparse outsiders. Returns the ``(user, meme, time)`` post events, the
    follow graph and one ego per member. Outsiders post on day 1 and
    members after it, so the window needs at least 2 days.
    """
    if window_days < 2:
        raise InvalidSpec(f"triadic_communities needs window_days >= 2, got {window_days}")
    rng = random.Random(seed)
    start, end = 0, window_days * _DAY
    events: list[tuple[int, tuple[str, str], int]] = []
    follows: dict[int, set[int]] = {}
    egos: list[int] = []
    uid = 0
    for c in range(n_communities):
        members = list(range(uid, uid + community_size))
        uid += community_size
        outsiders = [uid, uid + 1]
        uid += 2
        pool = [
            ("hashtag", f"c{c:03d}_m{i:03d}")
            for i in range(_MEMES_PER_COMMUNITY)
        ]
        half = _MEMES_PER_COMMUNITY // 2
        # Outsiders post the whole pool between them, once each, early on.
        for out, chunk in zip(outsiders, (pool[:half], pool[half:])):
            events += [(out, meme, rng.randrange(start, start + _DAY)) for meme in chunk]
        for m in members:
            follows[m] = set(members) - {m}
            subset = rng.sample(pool, max(2, len(pool) // 4))
            events += [(m, meme, rng.randrange(start + _DAY, end))
                       for meme in subset for _ in range(rng.randint(2, 4))]
        egos.extend(members)
    return events, follows, egos


def write_corpus_files(events, follows, posts_path, follows_path) -> None:
    """Emit generated events and follow graph in the ingestion file formats.

    Posts are pre-extracted, per user in time order. Each user gets a
    marker post a day before the window, which starts at 0 for every
    generator, so the activity filter retains everyone on reload.
    """
    posts: dict[int, list[tuple[int, tuple[str, str]]]] = {}
    for user, meme, time in events:
        posts.setdefault(user, []).append((time, meme))
    lines = []
    for user in sorted(set(posts).union(follows, *follows.values())):
        lines.append(f"{user}\t{-_DAY}\thashtag\twarmup")
        for time, meme in sorted(posts.get(user, ())):
            lines.append(f"{user}\t{time}\t{meme[0]}\t{meme[1]}")
    Path(posts_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    edge_lines = [f"{u}\t{v}" for u in sorted(follows) for v in sorted(follows[u])]
    Path(follows_path).write_text("\n".join(edge_lines) + "\n", encoding="utf-8")
