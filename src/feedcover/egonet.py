"""Ego-network construction and the structural measures: LCC and overlap.

Directed follow edges are symmetrized for the clustering coefficient;
the ego's own edges to members do not count toward it, so a pure star
scores 0 and a fully connected member set scores 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import fsum, sqrt

from .errors import UndefinedMeasure
from .model import Corpus


@dataclass(frozen=True)
class EgoNetwork:
    ego: int
    members: frozenset[int]
    edges: frozenset[tuple[int, int]]


def build_ego_network(corpus: Corpus, ego: int, members) -> EgoNetwork:
    """Induced subgraph of the follow graph on {ego} | members."""
    members = frozenset(members) - {ego}
    if not members:
        raise UndefinedMeasure("empty member set")
    nodes = members | {ego}
    edges = frozenset(
        (a, b)
        for a in nodes
        for b in corpus.follows.get(a, frozenset()) & nodes
        if a != b
    )
    return EgoNetwork(ego=ego, members=members, edges=edges)


def local_clustering_coefficient(net: EgoNetwork) -> float:
    """Fraction of member pairs connected by a (symmetrized) follow edge."""
    n = len(net.members)
    if n < 2:
        raise UndefinedMeasure(f"LCC undefined for {n} members")
    undirected = {frozenset(e) for e in net.edges if net.ego not in e}
    return len(undirected) / (n * (n - 1) / 2)


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
