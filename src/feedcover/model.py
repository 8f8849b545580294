"""Core domain types: posts, corpora, ego contexts, cover results.

All types are frozen dataclasses or tuples, and nothing in the package
mutates their dict or set fields after construction, except the private
cache ``Corpus._memo`` (see ``Corpus``). User ids are integer surrogates
assigned at ingestion in first-seen order, which every tie-break uses.
Timestamps are integer unix seconds; delays are converted to
real-valued days where averaged. Delays are summed with ``math.fsum``,
which rounds once, so a mean does not depend on the iteration order of
a meme set (which changes with ``PYTHONHASHSEED``).
"""
from __future__ import annotations

from collections import Counter
from collections.abc import KeysView
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import EmptyCorpus

SECONDS_PER_DAY = 86400.0

MEME_KINDS = ("hashtag", "url", "news_domain", "youtube_video")
# Archetypes of ``feedcover.synth``, named here so the CLI need not import it.
ARCHETYPES = ("random_bipartite", "redundant_followees", "superuser_shadow", "pareto_inflow")


class MemeId(NamedTuple):
    """One unique piece of information: a kind plus a normalized key.

    A tuple, so equality, ordering and hashing run in C, and the hash
    equals ``hash((kind, key))``.
    """

    kind: str
    key: str


class PostEvent(NamedTuple):
    """One user posting one meme at one timestamp: a tuple, so
    ``Corpus.from_events`` unpacks it like the plain ``(user, meme, time)``
    triples that ingest builds."""

    user: int
    meme: MemeId
    time: int


@dataclass(frozen=True)
class Corpus:
    """Immutable indexed view over the post events kept by ingest and a follow graph.

    post_count counts ALL kept posts (meme-bearing or not);
    the meme indices cover only the meme-bearing ones. ``memes_by_user``
    is not a field but a derived, read-only view of ``first_post_by_user``,
    so each user's memes are stored once.

    ``_memo`` is a private cache of facts derived from the fields, which
    ``memes_by_user``, the cover engines and ``delay_efficiency`` fill lazily
    (see ``feedcover.cover``). It is not pickled (a loaded corpus starts with
    an empty memo), not compared by ``==`` and not shown by ``repr``; a
    ``dataclasses.replace`` copy starts with an empty one, so replacing a
    field never serves facts derived from the old value.
    """

    posters_by_meme: dict[MemeId, frozenset[int]]
    post_count: dict[int, int]
    first_mention: dict[MemeId, int]
    first_post_by_user: dict[int, dict[MemeId, int]]
    follows: dict[int, frozenset[int]]
    user_labels: dict[int, str] = field(default_factory=dict)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_memo"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _memo={})

    @property
    def memes_by_user(self) -> dict[int, KeysView[MemeId]]:
        """Each posting user's memes: the keys of ``first_post_by_user``.
        Built once, on first access, and kept in ``_memo``; do not mutate it."""
        if "memes_by_user" not in self._memo:
            self._memo["memes_by_user"] = {
                u: first.keys() for u, first in self.first_post_by_user.items()
            }
        return self._memo["memes_by_user"]

    def label(self, user: int) -> str:
        return self.user_labels.get(user, str(user))

    def inflow(self, users) -> int:
        """Posts in the window by ``users``: the in-flow they send a follower."""
        return sum(self.post_count.get(v, 0) for v in users)

    @classmethod
    def from_events(
        cls,
        events,
        follows,
        post_counts: dict[int, int] | None = None,
        user_labels: dict[int, str] | None = None,
    ) -> "Corpus":
        """Build every index from a sized collection of ``(user, meme, time)``
        triples, such as PostEvents.

        The result is independent of the order of ``events``. When
        ``post_counts`` is omitted, each event counts as one post (so
        ``events`` is read twice and may not be an iterator). All
        indices share one ``MemeId`` object per meme (its first-seen one),
        so a pickled corpus stores each meme once.
        """
        if len(events) == 0:
            raise EmptyCorpus("no post events")
        # Each meme's posters, in first-seen order, with their first time.
        times_by_meme: dict[MemeId, dict[int, int]] = {}
        for user, meme, time in events:
            times = times_by_meme.get(meme)
            if times is None:
                times_by_meme[meme] = {user: time}
            elif time < times.get(user, time + 1):
                times[user] = time
        posters: dict[MemeId, frozenset[int]] = {}
        first: dict[MemeId, int] = {}
        first_by_user: dict[int, dict[MemeId, int]] = {}
        for meme in sorted(times_by_meme):
            times = times_by_meme.pop(meme)  # freed once its indices are built
            # Adding the posters one by one, as a set grown per event
            # would, keeps each frozenset's layout, hence its pickle.
            posters[meme] = frozenset(set(iter(times)))
            first[meme] = min(times.values())
            for user, time in times.items():
                per_user = first_by_user.get(user)
                if per_user is None:
                    first_by_user[user] = {meme: time}
                else:
                    per_user[meme] = time  # memes arrive in sorted order
        if post_counts is None:
            post_counts = Counter(user for user, _, _ in events)
        return cls(
            posters_by_meme=posters,
            post_count=dict(sorted(post_counts.items())),
            first_mention=first,
            first_post_by_user=dict(sorted(first_by_user.items())),
            follows={u: frozenset(v) for u, v in sorted(follows.items())},
            user_labels=dict(user_labels or {}),
        )


@dataclass(frozen=True)
class EgoContext:
    """An ego user's timeline for one meme kind: the followees posting
    that kind, and the memes of that kind they post (the universe every
    cover of this ego must cover)."""

    ego: int
    followees: frozenset[int]
    memes: frozenset[MemeId]


@dataclass(frozen=True)
class CoverResult:
    """An ordered selection of posters with per-step coverage bookkeeping."""

    selected: tuple[int, ...]
    covered: frozenset[MemeId]
    per_step: tuple[tuple[int, int], ...]
