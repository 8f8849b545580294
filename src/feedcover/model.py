"""Core domain types: corpora, ego contexts, cover results.

A meme, one unique piece of information, is a plain ``(kind, key)``
tuple of two strings: its kind (one of ``MEME_KINDS``) and its
normalized key, so equality, ordering, hashing and pickling all run in
C. A post event is a plain ``(user, meme, time)`` triple, and the two
indices of one meme kind are a plain dict keyed by ``KIND_INDICES``.
Every other record is a ``typing.NamedTuple``. Nothing in the package
mutates a record's dict or set fields, or a kind's indices, after
construction, except the private cache ``Corpus._memo`` and the views a
``Corpus`` builds on first access (see ``Corpus``). User ids are integer
surrogates assigned at ingestion in first-seen order, which every
tie-break uses.
Timestamps are integer unix seconds; delays are converted to
real-valued days where averaged. Delays are summed with ``math.fsum``,
which rounds once, so a mean does not depend on the iteration order of
a meme set (which changes with ``PYTHONHASHSEED``).
"""
from __future__ import annotations

import math
from collections import Counter
from collections.abc import KeysView
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

from .errors import EmptyCorpus

SECONDS_PER_DAY = 86400.0

MEME_KINDS = ("hashtag", "url", "news_domain", "youtube_video")
# Archetypes of ``feedcover.synth``, named here so the CLI need not import it.
ARCHETYPES = ("random_bipartite", "redundant_followees", "superuser_shadow", "pareto_inflow")


# The keys of one kind's part of ``Corpus.kinds``, each naming the Corpus view
# it feeds: ``posters_by_meme`` maps each meme to the ids of the users posting
# it, as a tuple without repeats in arrival order (by each user's first post of
# the meme, ties to the smaller id; the first poster's post is the first mention,
# the delay cover takes it, ``cover.set_average_delay_days`` the first in a set),
# and ``first_post_by_user`` maps each user posting the kind to ``{meme: time of
# the user's first post}``. Every dict is sorted by key.
KIND_INDICES = ("posters_by_meme", "first_post_by_user")


class _CorpusFields(NamedTuple):
    kinds: dict[str, dict[str, dict]]
    post_count: dict[int, int]
    follows: dict[int, tuple[int, ...]]
    mean_delay_days: dict[int, float]
    user_labels: dict[int, str]


class Corpus(_CorpusFields):
    """Immutable indexed view over the post events kept by ingest and a follow graph.

    ``kinds`` maps each meme kind present, in sorted order, to a plain
    dict of its two indices, keyed by ``KIND_INDICES``, so that the
    corpus cache can load one kind alone; the analysis commands run on
    such a one-kind corpus. The other fields cover every kind:
    ``post_count`` counts ALL kept posts (meme-bearing or not),
    ``follows`` maps each follower to its followees' ids as a tuple without
    repeats sorted by id, and ``mean_delay_days`` is each posting user's mean
    delay in days over all of its memes, the joint cover's weight, computed
    once by ``from_events``. Like ``posters_by_meme``, whose tuples are in
    arrival order instead (see ``KIND_INDICES``), the follow lists are
    tuples to keep the corpus and its cache small (20 ids take 200 bytes as
    a tuple, 2,264 as a frozenset): iterate them, or use
    ``frozenset.intersection``, which takes any iterable, for set algebra.

    ``posters_by_meme``, ``first_post_by_user``, ``memes_by_user`` and
    ``first_mention`` are read-only views over the kinds in ``kinds``, built on
    first access. With one kind the first two are that kind's own dicts; with
    several, merged copies. ``memes_by_user`` maps each posting user to the keys
    of its ``first_post_by_user`` entry, so each user's memes are stored once;
    ``first_mention`` each meme to its first poster's time. Do not mutate them.

    ``_memo`` is a private cache that the greedy cover engines fill,
    lazily, with their latest instance; its dict of greedy orders is the
    order store's entry too (see ``feedcover.cover``). It is
    not compared by ``==`` and not shown by ``repr``; a ``_replace`` copy
    starts with an empty one, so replacing a field never serves facts
    derived from the old value. The fields are read-only; the class has
    no ``__slots__``, so the views and the memo live in the instance
    ``__dict__``. A corpus is not hashable.
    """

    @cached_property
    def _memo(self) -> dict:
        return {}

    @cached_property
    def posters_by_meme(self) -> dict[tuple[str, str], tuple[int, ...]]:
        parts = [part["posters_by_meme"] for part in self.kinds.values()]
        if len(parts) == 1:
            return parts[0]
        return {meme: ids for part in parts for meme, ids in part.items()}

    @cached_property
    def first_mention(self) -> dict[tuple[str, str], int]:
        return {meme: part["first_post_by_user"][order[0]][meme]
                for part in self.kinds.values()
                for meme, order in part["posters_by_meme"].items()}

    @cached_property
    def first_post_by_user(self) -> dict[int, dict[tuple[str, str], int]]:
        if len(self.kinds) == 1:
            return next(iter(self.kinds.values()))["first_post_by_user"]
        merged: dict[int, dict[tuple[str, str], int]] = {}
        for part in self.kinds.values():  # kinds in sorted order, so memes too
            for user, first in part["first_post_by_user"].items():
                merged.setdefault(user, {}).update(first)
        return dict(sorted(merged.items()))

    @cached_property
    def memes_by_user(self) -> dict[int, KeysView[tuple[str, str]]]:
        return {u: first.keys() for u, first in self.first_post_by_user.items()}

    def label(self, user: int) -> str:
        return self.user_labels.get(user, str(user))

    def inflow(self, users) -> int:
        """Posts in the window by ``users``: the in-flow they send a follower."""
        return sum(map(self.post_count.get, users, repeat(0)))

    @classmethod
    def from_events(
        cls,
        events,
        follows,
        post_counts: dict[int, int] | None = None,
        user_labels: dict[int, str] | None = None,
    ) -> "Corpus":
        """Build every index from ``events``, any sized iterable of
        ``(user, meme, time)`` triples (a list of tuples, or ingest's column
        view), and ``follows``, which maps each follower to any iterable of
        followee ids, repeats allowed: each value is stored once, as
        ``tuple(sorted(set(ids)))``.

        The result is independent of the order of ``events``. When
        ``post_counts`` is omitted, each event counts as one post, so
        ``events`` is read twice and must be re-iterable, not an iterator. All
        indices share one meme tuple per meme (its first-seen one),
        so a pickled corpus stores each meme once. Each user's mean delay sums
        its terms with ``math.fsum``: ``cover.set_average_delay_days`` over
        that user alone and all of its memes gives the same float.
        """
        from array import array  # here: the analysis commands build no corpus

        if len(events) == 0:
            raise EmptyCorpus("no post events")
        # Each meme's posters, in first-seen order, with their first time.
        times_by_meme: dict[tuple[str, str], dict[int, int]] = {}
        for user, meme, time in events:
            times = times_by_meme.get(meme)
            if times is None:
                times_by_meme[meme] = {user: time}
            elif time < times.get(user, time + 1):
                times[user] = time
        kinds: dict[str, tuple[dict, dict]] = {}
        # Each user's delay in days to each meme it posts, of any kind, as
        # C doubles: the terms of its mean delay.
        delays: dict[int, array] = {}
        kind = None
        for meme in sorted(times_by_meme):  # each kind is one contiguous run
            if meme[0] != kind:
                kind = meme[0]
                posters, first_by_user = kinds[kind] = ({}, {})
            times = times_by_meme.pop(meme)  # freed once its indices are built
            # Arrival order: a stable sort by time of the posters sorted by id.
            order = posters[meme] = tuple(sorted(sorted(times), key=times.__getitem__))
            born = times[order[0]]
            for user, time in times.items():
                per_user = first_by_user.get(user)
                if per_user is None:
                    first_by_user[user] = {meme: time}
                else:
                    per_user[meme] = time  # memes arrive in sorted order
                delay = (time - born) / SECONDS_PER_DAY
                user_delays = delays.get(user)
                if user_delays is None:
                    delays[user] = array("d", (delay,))
                else:
                    user_delays.append(delay)
        kinds = {
            kind: dict(zip(KIND_INDICES, (posters, dict(sorted(by_user.items())))))
            for kind, (posters, by_user) in kinds.items()
        }
        mean_delays = {u: math.fsum(d) / len(d) for u, d in sorted(delays.items())}
        del delays  # freed before the follow sets are copied
        if post_counts is None:
            post_counts = Counter(user for user, _, _ in events)
        return cls(
            kinds=kinds,
            post_count=dict(sorted(post_counts.items())),
            follows={u: tuple(sorted(set(v))) for u, v in sorted(follows.items())},
            mean_delay_days=mean_delays,
            user_labels=dict(user_labels or {}),
        )


class EgoContext(NamedTuple):
    """An ego user's timeline for one meme kind: the followees posting
    that kind, and the memes of that kind they post (the universe every
    cover of this ego must cover)."""

    ego: int
    followees: frozenset[int]
    memes: frozenset[tuple[str, str]]


class CoverResult(NamedTuple):
    """An ordered selection of posters with per-step coverage bookkeeping."""

    selected: tuple[int, ...]
    covered: frozenset[tuple[str, str]]
    per_step: tuple[tuple[int, int], ...]
