"""Ego-network construction and the structural measures: LCC and overlap.

Follow edges among an ego's members (never the ego) are symmetrized for the
clustering coefficient, so a pure star scores 0 and a complete member set 1.
"""
from __future__ import annotations

from math import fsum, sqrt
from typing import NamedTuple

from .errors import UndefinedMeasure
from .model import Corpus


class EgoNetwork(NamedTuple):
    """An ego's members (the ego left out) and ``edges``: each member pair
    ``(a, b)``, ``a < b``, joined by a follow edge in either direction."""

    members: frozenset[int]
    edges: frozenset[tuple[int, int]]


def build_ego_network(corpus: Corpus, ego: int, members) -> EgoNetwork:
    """The members other than ``ego`` and the follow edges among them."""
    members = frozenset(members) - {ego}
    if not members:
        raise UndefinedMeasure("empty member set")
    edges = frozenset(
        (a, b) if a < b else (b, a)
        for a in members
        for b in members.intersection(corpus.follows.get(a, ()))
        if a != b
    )
    return EgoNetwork(members=members, edges=edges)


def local_clustering_coefficient(net: EgoNetwork) -> float:
    """Fraction of member pairs connected by a follow edge."""
    n = len(net.members)
    if n < 2:
        raise UndefinedMeasure(f"LCC undefined for {n} members")
    return len(net.edges) / (n * (n - 1) / 2)


def overlap(optimal, followees) -> float:
    """Fraction of the optimal set's users the ego already follows."""
    optimal = frozenset(optimal)
    if not optimal:
        raise UndefinedMeasure("optimal set is empty")
    return len(optimal & frozenset(followees)) / len(optimal)


def lcc_overlap_correlation(points) -> float:
    """Pearson correlation of (lcc, overlap) pairs, bit for bit as Python
    3.11's ``statistics.correlation``, which is not imported; no p-value."""
    points = list(points)
    if len(points) < 2:
        raise UndefinedMeasure("need at least two points")
    xs, ys = zip(*points)
    xbar, ybar = fsum(xs) / len(xs), fsum(ys) / len(ys)
    sxy = fsum((x - xbar) * (y - ybar) for x, y in points)
    sxx = fsum((x - xbar) * (x - xbar) for x in xs)
    syy = fsum((y - ybar) * (y - ybar) for y in ys)
    if sxx * syy == 0:
        raise UndefinedMeasure("at least one of the inputs is constant")
    return sxy / sqrt(sxx * syy)
