"""Acceptance suite: one test per criterion, printing a PASS line each."""
import math
import random
import time

import pytest

from feedcover.cli import main as cli_main
from feedcover.cover import (
    CoverSpec,
    delay_optimal_cover,
    greedy_min_cover,
    greedy_weighted_cover,
    joint_cover,
    set_average_delay_days,
)
from feedcover.efficiency import (
    delay_efficiency,
    evaluate_ego,
    inflow_efficiency,
    link_efficiency,
)
from feedcover.egonet import (
    build_ego_network,
    local_clustering_coefficient,
    overlap,
)
from feedcover.errors import UndefinedMeasure
from feedcover.synth import SynthSpec, generate, generate_triadic_corpus

from conftest import brute_force_cover, make_corpus, make_ctx, random_instance
from test_efficiency import fig2_fixture, fig3_fixture, fig4_fixture

EXACT = 1e-9


def _passed(n, label):
    print(f"ACCEPTANCE {n:02d} {label}: PASS")


def test_01_figure_example_goldens():
    t0 = time.monotonic()
    corpus, ctx = fig2_fixture()
    cov = greedy_min_cover(corpus, CoverSpec(universe=ctx.memes))
    assert abs(link_efficiency(ctx, cov, corpus) - 3 / 5) <= EXACT

    corpus, ctx = fig3_fixture()
    cov = greedy_weighted_cover(corpus, CoverSpec(universe=ctx.memes))
    assert abs(inflow_efficiency(ctx, cov, corpus) - 0.5) <= EXACT

    corpus, ctx = fig4_fixture()
    assert abs(delay_efficiency(ctx, corpus) - 1 / (1 + 30 / 13)) <= EXACT
    assert time.monotonic() - t0 < 1.0
    _passed(1, "figure-example goldens")


def test_02_archetype_goldens():
    t0 = time.monotonic()
    for k in (2, 5, 10, 100):
        corpus, ego = generate(
            SynthSpec(seed=k, archetype="redundant_followees",
                      ego_followee_count=k)
        )
        ctx = make_ctx(corpus, ego, corpus.follows[ego])
        cov = greedy_min_cover(corpus, CoverSpec(universe=ctx.memes))
        assert link_efficiency(ctx, cov, corpus) == 1 / k
    for k in (2, 5, 10, 100):
        corpus, ego = generate(
            SynthSpec(seed=k, archetype="superuser_shadow",
                      ego_followee_count=k, n_memes=2 * k)
        )
        ctx = make_ctx(corpus, ego, corpus.follows[ego])
        cov = greedy_min_cover(corpus, CoverSpec(universe=ctx.memes))
        assert len(cov.selected) == 1
        assert link_efficiency(ctx, cov, corpus) == 1 / k
    assert time.monotonic() - t0 < 1.0
    _passed(2, "archetype goldens")


def test_03_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(20160222)
    harmonic = lambda d: sum(1.0 / i for i in range(1, d + 1))
    n_instances = 1000
    exact_hits = 0
    for _ in range(n_instances):
        corpus, universe = random_instance(rng, max_candidates=12, max_memes=15)
        spec = CoverSpec(universe=universe)
        d = max(len(s) for s in corpus.memes_by_user.values())
        bound = harmonic(d)
        greedy_card = len(greedy_min_cover(corpus, spec).selected)
        exact_card = len(brute_force_cover(corpus, spec, "cardinality").selected)
        assert greedy_card <= bound * exact_card
        greedy_flow = corpus.inflow(greedy_weighted_cover(corpus, spec).selected)
        exact_flow = corpus.inflow(brute_force_cover(corpus, spec, "inflow").selected)
        assert greedy_flow <= bound * exact_flow
        if greedy_card == exact_card and greedy_flow == exact_flow:
            exact_hits += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"  greedy exactly optimal on {exact_hits}/{n_instances} instances")
    _passed(3, "oracle equivalence (H(d) bound)")


def test_04_coverage_completeness():
    rng = random.Random(4)
    for _ in range(100):
        corpus, universe = random_instance(rng)
        for p in (0.2, 0.5, 0.8, 1.0):
            spec = CoverSpec(universe=universe, coverage=p)
            target = math.ceil(p * len(universe))
            for fn in (greedy_min_cover, greedy_weighted_cover):
                result = fn(corpus, spec)
                assert len(result.covered) >= target
                if p == 1.0:
                    assert result.covered == universe
        full = CoverSpec(universe=universe)
        for fn in (delay_optimal_cover, joint_cover):
            assert fn(corpus, full).covered == universe
    _passed(4, "coverage completeness")


def test_05_reduction_identities():
    rng = random.Random(5)
    for _ in range(100):
        corpus, universe = random_instance(rng)
        weighted = CoverSpec(universe=universe, alpha=1.0, beta=0.0)
        assert (
            joint_cover(corpus, weighted).selected
            == greedy_weighted_cover(corpus, weighted).selected
        )
        unweighted = CoverSpec(universe=universe, alpha=0.0, beta=0.0)
        assert (
            joint_cover(corpus, unweighted).selected
            == greedy_min_cover(corpus, unweighted).selected
        )
    _passed(5, "reduction identities")


def test_06_delay_optimal_property():
    rng = random.Random(6)
    for _ in range(100):
        corpus, universe = random_instance(rng)
        result = delay_optimal_cover(corpus, CoverSpec(universe=universe))
        for meme in universe:
            earliest = min(
                corpus.first_post_by_user[v][meme]
                for v in result.selected
                if meme in corpus.memes_by_user[v]
            )
            assert earliest == corpus.first_mention[meme]
        assert set_average_delay_days(corpus, result.selected, universe) == 0.0
        # an ego following every first-mentioner has delay efficiency exactly 1
        ctx = make_ctx(corpus, 10 ** 6, result.selected)
        assert ctx.memes >= universe
        assert delay_efficiency(ctx, corpus) == pytest.approx(1.0, abs=0)
    _passed(6, "delay-optimal property")


def test_07_ego_network_properties():
    # stars and complete member sets
    star = make_corpus({9: [0]}, follows={0: list(range(1, 6))})
    net = build_ego_network(star, 0, range(1, 6))
    assert local_clustering_coefficient(net) == 0.0
    clique_follows = {0: [1, 2, 3]}
    clique_follows.update({a: [b for b in (1, 2, 3) if b != a] for a in (1, 2, 3)})
    clique = make_corpus({9: [0]}, follows=clique_follows)
    assert local_clustering_coefficient(
        build_ego_network(clique, 0, [1, 2, 3])
    ) == 1.0
    # brute-force pair enumeration on 200 random graphs
    rng = random.Random(7)
    from itertools import combinations
    for _ in range(200):
        n = rng.randint(2, 10)
        members = set(range(1, n + 1))
        follows = {
            a: [b for b in members | {0} if b != a and rng.random() < 0.35]
            for a in members | {0}
        }
        corpus = make_corpus({99: [0]}, follows=follows)
        net = build_ego_network(corpus, 0, members)
        undirected = {frozenset(e) for e in net.edges if 0 not in e}
        expected = sum(
            1 for a, b in combinations(sorted(members), 2)
            if frozenset((a, b)) in undirected
        ) / (n * (n - 1) / 2)
        assert abs(local_clustering_coefficient(net) - expected) <= 1e-12
        assert 0.0 <= local_clustering_coefficient(net) <= 1.0
    # overlap bounds and identities
    assert overlap({1, 2, 3}, {1, 2, 3}) == 1.0
    assert overlap({1, 2}, set()) == 0.0
    for sample in ({1}, {1, 5}, {2, 4, 6}):
        assert 0.0 <= overlap(sample, {1, 2, 3}) <= 1.0
    _passed(7, "ego-network properties")


def test_08_partial_coverage_consistency():
    corpora = [fig2_fixture(), fig3_fixture(), fig4_fixture()]
    for seed in range(5):
        corpus, ego = generate(
            SynthSpec(seed=seed, archetype="random_bipartite",
                      n_users=20, n_memes=15, ego_followee_count=8)
        )
        corpora.append((corpus, make_ctx(corpus, ego, corpus.follows[ego])))
    for corpus, ctx in corpora:
        # A fresh copy evaluates p = 1.0 only; the original first runs
        # p = 0.5, so its p = 1.0 call reads the memo that run filled.
        full = evaluate_ego(corpus._replace(), ctx, "hashtag", coverage=1.0)
        half = evaluate_ego(corpus, ctx, "hashtag", coverage=0.5)
        via_partial_path = evaluate_ego(corpus, ctx, "hashtag", coverage=1.0)
        assert full["e_link"] == via_partial_path["e_link"]
        assert full["e_inflow"] == via_partial_path["e_inflow"]
        assert full["e_delay"] == via_partial_path["e_delay"] == half["e_delay"]
        # filtered followee set at p = 1.0 is every meme-posting followee
        cov = greedy_min_cover(corpus, CoverSpec(universe=ctx.memes))
        assert cov.covered == ctx.memes
    _passed(8, "partial-coverage consistency at p = 1.0")


def test_09_optimized_egonets_less_clustered():
    t0 = time.monotonic()
    corpus, egos = generate_triadic_corpus(seed=9, n_communities=20,
                                           community_size=12)
    assert len(egos) >= 200
    lcc_orig, lcc_opt = [], {"link": [], "inflow": [], "delay": []}
    methods = {
        "link": greedy_min_cover,
        "inflow": greedy_weighted_cover,
        "delay": delay_optimal_cover,
    }
    for ego in egos:
        ctx = make_ctx(corpus, ego, corpus.follows[ego])
        spec = CoverSpec(universe=ctx.memes)
        original = build_ego_network(corpus, ego, ctx.followees)
        lcc_orig.append(local_clustering_coefficient(original))
        for name, fn in methods.items():
            result = fn(corpus, spec)
            net = build_ego_network(corpus, ego, result.selected)
            try:
                lcc_opt[name].append(local_clustering_coefficient(net))
            except UndefinedMeasure:
                pass
    mean_orig = sum(lcc_orig) / len(lcc_orig)
    for name, values in lcc_opt.items():
        assert values, f"no defined LCC rows for {name}"
        mean = sum(values) / len(values)
        assert mean < mean_orig, (name, mean, mean_orig)
    assert time.monotonic() - t0 < 120.0
    _passed(9, "optimized ego-networks less clustered")


def test_10_cli_determinism(tmp_path):
    data = tmp_path / "data"
    code = cli_main([
        "synth", "--archetype", "random_bipartite", "--seed", "17",
        "--n-users", "25", "--n-memes", "20", "--ego-followees", "8",
        "--out", str(data),
    ])
    assert code == 0
    cache = tmp_path / "cache"
    assert cli_main([
        "ingest", "--posts", str(data / "posts.tsv"),
        "--follows", str(data / "follows.tsv"),
        "--window-start", "0", "--window-end", "604800",
        "--pre-extracted", "--out", str(cache),
    ]) == 0
    # optimize and egonet take no --coverage, and cover takes one.
    coverages = {"efficiency": ["--coverage", "0.5", "--coverage", "1.0"],
                 "cover": ["--coverage", "0.5"], "optimize": [], "egonet": []}
    outputs = {}
    for tag in ("first", "second"):
        out = tmp_path / tag
        for cmd, coverage in coverages.items():
            assert cli_main([
                cmd, "--corpus", str(cache / "corpus.pkl"), "--egos", "0",
                "--min-followees", "1", *coverage, "--out", str(out),
                "--no-header-timestamp",
            ]) == 0
        outputs[tag] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs["first"] == outputs["second"]
    _passed(10, "CLI determinism (byte-identical reruns)")
