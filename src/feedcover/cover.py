"""Set-cover engines behind the three efficiency notions.

``ENGINES``, the one table of the four optimal sets, maps their names in
report order to the engines that find them; ``cover --method``, ``egonet``
and the efficiency report's ``<set>_set_*`` columns all read it.

The three greedy engines share one lazy kernel (Minoux's accelerated
greedy, as in CELF). Each pick minimizes ``w / gain``: a fixed,
non-negative weight per candidate (1, the in-flow, or ``inflow**alpha *
avg_delay**beta``) over the number of still uncovered universe memes the
candidate posts. Ties go to the smallest user id; a zero-gain candidate
is never picked. Each candidate's universe memes are a bitmask over the
sorted universe. A heap holds ``(score, user id)`` keys as of each
entry's last refresh. Gains only shrink and rounded division is
monotone, so a stale key is a lower bound on the current score. A top
entry with a stale key goes back into the heap under its fresh one; a
top entry whose key is current is no larger than any other entry's
current key, so it is taken: exactly the pick of a full rescan,
tie-break included. Of candidates with the same bitmask, only those
that can ever rank first enter the heap (see ``_greedy_order``).

The kernel runs each order to exhaustion, until no candidate adds a
meme. A cover at coverage ``p`` is the shortest prefix of that order
covering ``ceil(p * |universe|)`` memes; a prefix that falls short
raises InfeasibleCover. The corpus's private ``_memo``, filled on first
use, keeps each meme's earliest ``(time, user id)`` poster for the
corpus's lifetime, and each engine's full order (keyed by engine, plus
``alpha``/``beta`` for the joint one) only for the latest universe, so
memory does not grow with the number of egos. That universe's pool and
bitmasks are built only when one of its orders is missing: the analysis
commands hand the slot the orders that an earlier analysis of the same
corpus cache stored (see ``feedcover.cli``).
"""
from __future__ import annotations

import heapq
import math
from itertools import repeat
from operator import sub, truediv
from typing import NamedTuple

from .errors import InfeasibleCover, InvalidSpec, UndefinedMeasure
from .model import SECONDS_PER_DAY, Corpus, CoverResult, MemeId


class _CoverSpecFields(NamedTuple):
    universe: frozenset[MemeId]
    coverage: float = 1.0
    alpha: float = 1.0
    beta: float = 0.5


class CoverSpec(_CoverSpecFields):
    """What to cover, how much of it, and how to weigh candidates.
    A ``_replace`` copy is checked like a new spec."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        if not 0.0 < spec.coverage <= 1.0:
            raise InvalidSpec(f"coverage {spec.coverage} is outside (0, 1]")
        for name in ("alpha", "beta"):
            value = getattr(spec, name)
            if not 0.0 <= value < math.inf:
                raise InvalidSpec(f"{name} {value} is not a finite number >= 0")
        return spec

    def _replace(self, /, **changes):
        return type(self)(*super()._replace(**changes))


def candidate_pool(corpus: Corpus, spec: CoverSpec) -> list[int]:
    """Users posting at least one universe meme, sorted by id."""
    pool = set()
    for meme in spec.universe:
        pool.update(corpus.posters_by_meme.get(meme, ()))
    return sorted(pool)


def _masks(corpus: Corpus, universe, pool: list[int]) -> tuple[list[MemeId], list[int]]:
    """Universe memes in sorted order, and each pool candidate's memes as
    a bitmask over them (bit i set when the candidate posts ``memes[i]``).
    ``pool`` holds every poster of a universe meme."""
    memes = sorted(universe)
    by_user = dict.fromkeys(pool, 0)
    for i, meme in enumerate(memes):
        bit = 1 << i
        for v in corpus.posters_by_meme.get(meme, ()):
            by_user[v] |= bit
    return memes, [by_user[v] for v in pool]


def _mean_delay_days(corpus: Corpus, first: dict[MemeId, int]) -> float:
    """Mean days from each meme's first mention to its time in ``first``."""
    born = map(corpus.first_mention.__getitem__, first)
    return math.fsum(
        map(truediv, map(sub, first.values(), born), repeat(SECONDS_PER_DAY))
    ) / len(first)


def _greedy_order(pool: list[int], masks: list[int], weights, n_memes: int) -> list:
    """The lazy greedy's picks as ``(user, gain, mask)``, run until no
    candidate adds a meme.

    Candidates with equal masks have equal gains at every step, and once
    one is picked the others gain nothing. A candidate whose weight is no
    lower than that of a smaller id with its mask never ranks above that
    id (its score is no lower, and it loses ties), so only the others
    enter the heap. Every weight is still evaluated, so each can raise.
    """
    lightest: dict[int, float] = {}
    heap = []
    for v, m, w in zip(pool, masks, weights):  # pool is sorted by id
        if m not in lightest or w < lightest[m]:
            lightest[m] = w
            heap.append((w / m.bit_count(), v, m, w))
    heapq.heapify(heap)
    remaining = (1 << n_memes) - 1
    order = []
    while heap and remaining:
        score, v, mask, w = heap[0]
        gain = (mask & remaining).bit_count()
        if gain == 0:
            heapq.heappop(heap)
        elif w / gain != score:  # a stale key: re-key it and look again
            heapq.heapreplace(heap, (w / gain, v, mask, w))
        else:
            heapq.heappop(heap)
            remaining &= ~mask
            order.append((v, gain, mask))
    return order


def _slot(corpus: Corpus, universe) -> list:
    """The memo slot of ``universe``, which replaces the slot of any other
    universe: ``[universe, pool, memes, masks, orders]``. ``orders`` maps
    each engine key to its full order; pool, memes and masks (as from
    ``candidate_pool`` and ``_masks``) stay None until an order is missing."""
    slot = corpus._memo.get("universe")
    # ``is`` first: ``!=`` on two frozensets scans their elements.
    if slot is None or (slot[0] is not universe and slot[0] != universe):
        slot = corpus._memo["universe"] = [universe, None, None, None, {}]
    return slot


def _greedy(corpus: Corpus, spec: CoverSpec, engine, weight) -> CoverResult:
    """The shortest prefix of ``engine``'s memoised full order that covers
    ``ceil(coverage * |universe|)`` memes."""
    universe = spec.universe
    n_memes = len(universe)
    slot = _slot(corpus, universe)
    orders = slot[4]
    if engine not in orders:
        if slot[1] is None:
            pool = candidate_pool(corpus, spec)
            slot[1:4] = pool, *_masks(corpus, universe, pool)
        _, pool, _, masks, _ = slot
        orders[engine] = _greedy_order(pool, masks, map(weight, pool), n_memes)
    target = math.ceil(spec.coverage * n_memes)
    per_step: list[tuple[int, int]] = []
    covered = n_covered = 0
    for v, gain, mask in orders[engine]:
        if n_covered >= target:
            break
        per_step.append((v, gain))
        covered |= mask
        n_covered += gain
    if n_covered < target:
        raise InfeasibleCover(f"covered {n_covered} of required {target} memes")
    if n_covered == n_memes:
        covered = frozenset(universe)  # ``universe`` itself when it is a frozenset
    else:
        if slot[2] is None:
            slot[2] = sorted(universe)
        bits = reversed(f"{covered:0{n_memes}b}")
        covered = frozenset(m for m, bit in zip(slot[2], bits) if bit == "1")
    return CoverResult(
        selected=tuple(v for v, _ in per_step),
        covered=covered,
        per_step=tuple(per_step),
    )


def greedy_min_cover(corpus: Corpus, spec: CoverSpec) -> CoverResult:
    """Unweighted greedy set cover: maximize newly covered memes per pick."""
    return _greedy(corpus, spec, "link", lambda v: 1.0)


def greedy_weighted_cover(corpus: Corpus, spec: CoverSpec) -> CoverResult:
    """In-flow-weighted greedy set cover: minimize posts per newly covered meme."""
    return _greedy(corpus, spec, "inflow", lambda v: corpus.post_count[v])


def joint_cover(corpus: Corpus, spec: CoverSpec) -> CoverResult:
    """Joint in-flow/delay greedy heuristic.

    Score is inflow**alpha * avg_delay**beta / gain, where avg_delay is
    the candidate's ``corpus.mean_delay_days``, its mean delay in days
    over all the memes it posts, of every kind; a zero-delay candidate
    scores 0 under beta > 0 and so is always preferred while it still
    covers something. A weight past the float range raises UndefinedMeasure.
    """
    delays = corpus.mean_delay_days

    def weight(v):
        try:
            w = (float(corpus.post_count[v]) ** spec.alpha) * (delays[v] ** spec.beta)
        except OverflowError:
            w = math.inf
        if w == math.inf:
            raise UndefinedMeasure(f"joint weight of user {corpus.label(v)} overflows "
                                   f"a float at alpha {spec.alpha}, beta {spec.beta}")
        return w

    return _greedy(corpus, spec, ("joint", spec.alpha, spec.beta), weight)


def delay_optimal_cover(corpus: Corpus, spec: CoverSpec) -> CoverResult:
    """For each universe meme, pick its earliest poster.

    Full coverage only. Every meme arrives at its window-wide first
    mention, so the mean delay is 0. Ties on time go to the smallest
    user id.
    """
    if spec.coverage != 1.0:
        raise InfeasibleCover("delay-optimal cover is defined for full coverage only")
    earliest = corpus._memo.setdefault("earliest_poster", {})
    chosen: dict[int, int] = {}
    for meme in sorted(spec.universe):
        if meme not in earliest:
            posters = corpus.posters_by_meme.get(meme, ())
            if not posters:
                raise InfeasibleCover(f"meme {meme} has no poster")
            earliest[meme] = min((corpus.first_post_by_user[v][meme], v) for v in posters)
        best = earliest[meme][1]
        chosen[best] = chosen.get(best, 0) + 1
    selected = tuple(sorted(chosen))
    return CoverResult(
        selected=selected,
        covered=frozenset(spec.universe),
        per_step=tuple((v, chosen[v]) for v in selected),
    )


# Bare functions: perfbench's tracer traces an engine by rebinding dict values.
ENGINES = {"link": greedy_min_cover, "inflow": greedy_weighted_cover,
           "delay": delay_optimal_cover, "joint": joint_cover}


def set_average_delay_days(corpus, selected, universe) -> float | None:
    """Mean delay (days) at which the selected set first posts each meme."""
    if not universe:
        return None
    reached: dict[MemeId, int] = {}
    for v in selected:
        first = corpus.first_post_by_user.get(v, {})
        for meme in universe.intersection(first):
            t = first[meme]
            if reached.setdefault(meme, t) > t:
                reached[meme] = t
    if len(reached) < len(universe):
        raise InfeasibleCover(
            f"selected users post {len(reached)} of {len(universe)} memes"
        )
    return _mean_delay_days(corpus, reached)
