import random
import statistics
import sys
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feedcover.egonet import (
    EgoNetwork,
    build_ego_network,
    lcc_overlap_correlation,
    local_clustering_coefficient,
    overlap,
)
from feedcover.errors import UndefinedMeasure

from conftest import make_corpus

EGO = 0


def corpus_with_follows(follows):
    # one trivial posting user so the corpus is non-empty
    return make_corpus({99: [0]}, follows=follows)


def test_star_network():
    corpus = corpus_with_follows({EGO: [1, 2, 3]})
    net = build_ego_network(corpus, EGO, [1, 2, 3])
    assert net.edges == set()
    assert local_clustering_coefficient(net) == 0.0


def test_member_edge_included():
    corpus = corpus_with_follows({EGO: [1, 2], 1: [2]})
    net = build_ego_network(corpus, EGO, [1, 2])
    assert (1, 2) in net.edges


def test_outside_members_have_no_ego_edges():
    corpus = corpus_with_follows({EGO: [1], 5: [6]})
    net = build_ego_network(corpus, EGO, [5, 6])
    assert net.edges == {(5, 6)}


def test_complete_members():
    follows = {EGO: [1, 2, 3], 1: [2, 3], 2: [1, 3], 3: [1, 2]}
    net = build_ego_network(corpus_with_follows(follows), EGO, [1, 2, 3])
    assert local_clustering_coefficient(net) == 1.0


def test_two_of_six_pairs():
    follows = {EGO: [1, 2, 3, 4], 1: [2], 3: [4]}
    net = build_ego_network(corpus_with_follows(follows), EGO, [1, 2, 3, 4])
    assert local_clustering_coefficient(net) == pytest.approx(1 / 3)


def test_directed_edges_symmetrized_once():
    # reciprocal follows still count the pair once
    follows = {EGO: [1, 2], 1: [2], 2: [1]}
    net = build_ego_network(corpus_with_follows(follows), EGO, [1, 2])
    assert local_clustering_coefficient(net) == 1.0


def test_ego_edges_excluded_from_lcc():
    follows = {EGO: [1, 2], 1: [EGO], 2: [EGO]}
    net = build_ego_network(corpus_with_follows(follows), EGO, [1, 2])
    assert local_clustering_coefficient(net) == 0.0


def test_empty_members_rejected():
    with pytest.raises(UndefinedMeasure, match="empty member set"):
        build_ego_network(corpus_with_follows({}), EGO, [])


def test_lcc_undefined_below_two_members():
    net = EgoNetwork(members=frozenset({1}), edges=frozenset())
    with pytest.raises(UndefinedMeasure, match="LCC undefined for 1 members"):
        local_clustering_coefficient(net)


def test_lcc_monotone_under_edge_addition():
    rng = random.Random(3)
    members = frozenset(range(1, 7))
    edges = set()
    pairs = [(a, b) for a, b in combinations(sorted(members), 2)]
    rng.shuffle(pairs)
    last = 0.0
    for a, b in pairs:
        edges.add((a, b))
        net = EgoNetwork(members=members, edges=frozenset(edges))
        lcc = local_clustering_coefficient(net)
        assert lcc >= last
        last = lcc
    assert last == 1.0


def _brute_force_lcc(members, follows):
    pairs = list(combinations(sorted(members), 2))
    hits = sum(1 for a, b in pairs if b in follows[a] or a in follows[b])
    return hits / len(pairs)


def test_lcc_matches_bruteforce_on_random_graphs():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 10)
        members = frozenset(range(1, n + 1))
        follows = {}
        for a in members | {EGO}:
            follows[a] = [
                b for b in members | {EGO} if b != a and rng.random() < 0.4
            ]
        net = build_ego_network(corpus_with_follows(follows), EGO, members)
        assert local_clustering_coefficient(net) == pytest.approx(
            _brute_force_lcc(members, follows), abs=1e-12
        )


def test_overlap_values():
    assert overlap({1, 2}, {1, 2, 3}) == 1.0
    assert overlap({4, 5}, {1, 2}) == 0.0
    assert overlap({1, 2, 3, 4, 5}, {1, 2}) == 0.4
    assert overlap({7}, {7}) == 1.0


def test_overlap_empty_optimal():
    with pytest.raises(UndefinedMeasure, match="optimal set is empty"):
        overlap(set(), {1})


def test_correlation_exact_lines_and_cross():
    inc = [(x, 2 * x + 1) for x in range(5)]
    dec = [(x, -x) for x in range(5)]
    cross = [(0, 0), (1, 1), (0, 1), (1, 0)]
    assert lcc_overlap_correlation(inc) == pytest.approx(1.0)
    assert lcc_overlap_correlation(dec) == pytest.approx(-1.0)
    assert lcc_overlap_correlation(cross) == pytest.approx(0.0)


def test_correlation_degenerate():
    with pytest.raises(UndefinedMeasure, match="need at least two points"):
        lcc_overlap_correlation([(1, 1)])
    with pytest.raises(UndefinedMeasure, match="constant"):
        lcc_overlap_correlation([(1, 1), (1, 2), (1, 3)])


# An LCC or overlap: any float in [0, 1], or a value on a coarse grid so
# that ties and constant inputs come up often.
_UNIT = st.one_of(st.floats(0.0, 1.0, allow_subnormal=False),
                  st.integers(0, 8).map(lambda k: k / 8))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_UNIT, _UNIT), max_size=40))
@example([])
@example([(0.25, 0.5)])
@example([(0.5, 0.0), (0.5, 1.0), (0.5, 0.25)])
@example([(0.0, 0.375), (1.0, 0.375)])
# Squaring deviations with ``** 2.0`` instead of ``d * d`` moves this
# result by one ulp (glibc's pow), so it pins the 3.11 formula.
@example([(0.907, 0.805), (0.665, 0.064), (0.668, 0.421)])
def test_correlation_matches_statistics(points):
    # lcc_overlap_correlation uses statistics.correlation's formula of
    # Python 3.11, so there the two agree to the bit. Python 3.10 squares
    # each deviation with ``** 2.0`` (libm pow, which differs from ``d * d``
    # in the last bit for about 1 value in 1,200) and 3.12 switched to
    # ``math.sumprod``, so on other versions they agree within rounding.
    xs, ys = [x for x, _ in points], [y for _, y in points]
    try:
        expected = statistics.correlation(xs, ys)
    except statistics.StatisticsError:  # fewer than two points, or a constant input
        with pytest.raises(UndefinedMeasure):
            lcc_overlap_correlation(points)
        return
    if sys.version_info[:2] == (3, 11):
        assert lcc_overlap_correlation(points) == expected
    else:
        assert lcc_overlap_correlation(points) == pytest.approx(expected, rel=1e-9, abs=1e-12)
