import pytest

from feedcover.cover import CoverSpec, greedy_min_cover
from feedcover.efficiency import link_efficiency
from feedcover.errors import InvalidSpec
from feedcover.ingest import IngestConfig, load_corpus
from feedcover.synth import (
    SynthSpec,
    generate,
    generate_events,
    generate_triadic_corpus,
    write_corpus_files,
)

from conftest import DAY, make_ctx


def _link_eff(corpus, ego):
    ctx = make_ctx(corpus, ego, corpus.follows[ego])
    cov = greedy_min_cover(corpus, CoverSpec(universe=ctx.memes))
    return ctx, cov, link_efficiency(ctx, cov, corpus)


@pytest.mark.parametrize("k", [2, 5, 10, 100])
def test_redundant_followees_link_efficiency(k):
    corpus, ego = generate(
        SynthSpec(seed=k, archetype="redundant_followees", ego_followee_count=k)
    )
    _, cov, eff = _link_eff(corpus, ego)
    assert len(cov.selected) == 1
    assert eff == 1 / k


@pytest.mark.parametrize("k", [2, 5, 10])
def test_superuser_shadow(k):
    corpus, ego = generate(
        SynthSpec(seed=k, archetype="superuser_shadow",
                  ego_followee_count=k, n_memes=3 * k)
    )
    ctx, cov, eff = _link_eff(corpus, ego)
    assert cov.selected == (k + 1,)
    assert cov.selected[0] not in ctx.followees
    assert eff == 1 / k


def test_same_seed_identical_corpus():
    spec = SynthSpec(seed=42, archetype="pareto_inflow", n_users=30)
    assert generate(spec) == generate(spec)
    other = SynthSpec(seed=43, archetype="pareto_inflow", n_users=30)
    assert generate(spec) != generate(other)


@pytest.mark.parametrize("archetype", [
    "random_bipartite", "redundant_followees", "superuser_shadow", "pareto_inflow",
])
def test_generated_corpora_satisfy_model_invariants(archetype):
    spec = SynthSpec(seed=7, archetype=archetype, n_memes=10)
    corpus, _ = generate(spec)
    events, _, _ = generate_events(spec)
    for v, memes in corpus.memes_by_user.items():
        for meme in memes:
            assert v in corpus.posters_by_meme[meme]
    for meme, t0 in corpus.first_mention.items():
        rescan = min(time for _, m, time in events if m == meme)
        assert t0 == rescan
        assert 0 <= t0 < spec.window_days * DAY


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        generate(SynthSpec(archetype="nope"))
    with pytest.raises(InvalidSpec):
        generate(SynthSpec(n_memes=0))
    for exponent in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidSpec, match="pareto exponent"):
            generate(SynthSpec(archetype="pareto_inflow", pareto_exponent=exponent))
    with pytest.raises(InvalidSpec):
        generate(SynthSpec(archetype="superuser_shadow",
                           ego_followee_count=9, n_memes=4))


def test_overflowing_pareto_draw_counts_as_the_cap():
    # A draw past the float range is past the 500-post cap too.
    events, _, _ = generate_events(SynthSpec(archetype="pareto_inflow", pareto_exponent=1e-9))
    users = [user for user, _, _ in events]
    assert {users.count(v) for v in set(users)} == {500}


def test_pareto_inflow_counts_positive():
    corpus, _ = generate(
        SynthSpec(seed=5, archetype="pareto_inflow", n_users=50,
                  pareto_exponent=0.8)
    )
    assert all(c >= 1 for c in corpus.post_count.values())


def test_triadic_corpus_shape():
    corpus, egos = generate_triadic_corpus(seed=1, n_communities=3,
                                           community_size=6)
    assert len(egos) == 18
    for ego in egos:
        assert len(corpus.follows[ego]) == 5


@pytest.mark.parametrize("archetype", [
    "random_bipartite", "redundant_followees", "superuser_shadow", "pareto_inflow",
])
def test_write_then_reload_roundtrip(tmp_path, archetype):
    spec = SynthSpec(seed=11, archetype=archetype, n_users=15, n_memes=12)
    corpus, _ = generate(spec)
    events, follow_graph, _ = generate_events(spec)
    posts = tmp_path / "posts.tsv"
    follows = tmp_path / "follows.tsv"
    write_corpus_files(events, follow_graph, posts, follows)
    config = IngestConfig(
        window_start=0,
        window_end=spec.window_days * DAY,
        pre_extracted=True,
    )
    reloaded = load_corpus(posts, follows, config)
    assert reloaded.memes_by_user == corpus.memes_by_user
    assert reloaded.post_count == corpus.post_count
    assert reloaded.first_mention == corpus.first_mention
    assert reloaded.first_post_by_user == corpus.first_post_by_user
    assert reloaded.posters_by_meme == corpus.posters_by_meme
    assert reloaded.follows == corpus.follows
