"""Seeded workload generator for the feedcover benchmark.

Every workload is built in time linear in follow edges and post events.
Distributions are heavy-tailed but drawn as fixed quantile sequences
(the same multiset of volumes and out-degrees for every seed); the seed
decides who gets which value, which followees they pick and which
memes they post. That keeps the amount of work nearly the same from
seed to seed, so run-to-run spread measures the program, not the draw.

Usage: python3 perfbench/gen.py --workload deep_cover --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import itertools
import json
import random
from pathlib import Path

DAY = 86400
WINDOW_START = 7 * DAY
WINDOW_END = 14 * DAY

def pareto_quantiles(n: int, alpha: float, xmin: float, cap: int) -> list[int]:
    """The n mid-quantiles of Pareto(alpha, xmin), truncated to ints and capped."""
    return [
        min(cap, int(xmin * (1.0 - (i + 0.5) / n) ** (-1.0 / alpha)))
        for i in range(n)
    ]


def zipf_cum_weights(n: int, exponent: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (r + 1) ** exponent for r in range(n)))


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, round(value * scale))


def _window_time(rng: random.Random) -> int:
    return rng.randrange(WINDOW_START, WINDOW_END)


def _pick_egos(eligible: dict[int, int], n: int) -> list[int]:
    """n egos at evenly spaced ranks of the eligible users' followee counts.

    Ranks are taken over (count, user) so the egos' followee counts are
    the same for every seed whenever the degree multiset is.
    """
    ranked = sorted(eligible, key=lambda u: (eligible[u], u))
    if len(ranked) < n:
        raise ValueError(f"only {len(ranked)} eligible egos, need {n}")
    return sorted(ranked[(2 * i + 1) * len(ranked) // (2 * n)] for i in range(n))


def _stratify_followees(rng, follows, egos, volumes, candidates) -> None:
    """Redraw each ego's followees, one per stratum of posting volume.

    With heavy-tailed volumes, a uniform draw of a few dozen followees
    makes an ego's received-meme universe swing by a factor of three
    between seeds. Each followee here posts the median volume of its
    stratum (picked at random among the users who do), so the egos'
    total followee volume, and with it the cover work, is the same for
    every seed.
    """
    for ego in egos:
        ranked = sorted((v for v in candidates if v != ego), key=lambda v: (volumes[v], v))
        d = len(follows[ego])
        picks = []
        for i in range(d):
            stratum = ranked[i * len(ranked) // d:(i + 1) * len(ranked) // d]
            middle = volumes[stratum[len(stratum) // 2]]
            picks.append(rng.choice([v for v in stratum if volumes[v] == middle]))
        follows[ego] = picks


def _uniform_follows(rng, n_users: int, degrees: list[int]) -> dict[int, list[int]]:
    follows = {}
    for u, d in enumerate(degrees):
        picks = rng.sample(range(n_users - 1), d)
        follows[u] = [v if v < u else v + 1 for v in picks]  # never follow self
    return follows


def _write_tsv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write("\t".join(row) + "\n")


def _effective_followees(follows, posters: set[int]) -> dict[int, int]:
    return {u: sum(1 for v in vs if v in posters) for u, vs in follows.items()}


def _deep_cover(rng, scale):
    """Pareto volume, Zipf memes, heavy-tailed uniform follows: huge pools."""
    n_users = _scaled(1200, scale, 60)
    n_memes = _scaled(3000, scale, 100)
    n_egos = 6
    volumes = pareto_quantiles(n_users, 1.3, 2, 60)
    rng.shuffle(volumes)
    degrees = pareto_quantiles(n_users, 1.5, 8, min(300, n_users // 3))
    rng.shuffle(degrees)
    cum = zipf_cum_weights(n_memes, 1.0)
    posts = []
    for u, vol in enumerate(volumes):
        posts.append((u, rng.randrange(0, WINDOW_START), "hashtag", "pre"))
        for rank in rng.choices(range(n_memes), cum_weights=cum, k=vol):
            posts.append((u, _window_time(rng), "hashtag", f"t{rank}"))
    follows = _uniform_follows(rng, n_users, degrees)
    return posts, follows, n_egos, set(range(n_users)), volumes


def _many_small_egos(rng, scale):
    """Small communities with local memes and triadic-closure follows: tiny pools."""
    n_comm = _scaled(80, scale, 4)
    size, vocab = 40, 60
    n_egos = _scaled(150, scale, 8)
    n_users = n_comm * size
    volumes = pareto_quantiles(n_users, 1.6, 2, 25)
    rng.shuffle(volumes)
    degrees = pareto_quantiles(n_users, 2.0, 4, 20)
    rng.shuffle(degrees)
    cum = zipf_cum_weights(vocab, 0.8)
    posts = []
    for u, vol in enumerate(volumes):
        c = u // size
        posts.append((u, rng.randrange(0, WINDOW_START), "hashtag", "pre"))
        for j in rng.choices(range(vocab), cum_weights=cum, k=vol):
            posts.append((u, _window_time(rng), "hashtag", f"c{c}m{j}"))
    follows: dict[int, list[int]] = {}
    order = list(range(n_users))
    rng.shuffle(order)
    for u in order:
        base = (u // size) * size
        chosen: list[int] = []
        seen = {u}
        while len(chosen) < degrees[u]:
            v = None
            if chosen and rng.random() < 0.5:
                # triadic closure: a followee of one of my followees
                via = follows.get(rng.choice(chosen))
                if via:
                    v = rng.choice(via)
            if v is None or v in seen:
                v = base + rng.randrange(size)
            if v not in seen:
                seen.add(v)
                chosen.append(v)
        follows[u] = chosen
    return posts, follows, n_egos, set(range(n_users)), None


_WORDS = (
    "the a of news today watch this read more new great look breaking "
    "update story live video thread via here why how what now"
).split()


def _raw_ingest(rng, scale, out: Path):
    """Raw-text posts with hashtags, aliased short URLs, YouTube and news links."""
    n_users = _scaled(2500, scale, 80)
    n_tags = _scaled(3000, scale, 60)
    n_egos = 3
    n_domains, n_aliases, n_videos, n_articles = 40, 400, 600, 1500
    volumes = pareto_quantiles(n_users, 1.5, 3, 150)
    rng.shuffle(volumes)
    degrees = pareto_quantiles(n_users, 1.5, 8, min(200, n_users // 3))
    rng.shuffle(degrees)
    domains = [f"news{d}.example" for d in range(n_domains)]
    articles = [
        f"www.{domains[a % n_domains]}/2016/story{a}" for a in range(n_articles)
    ]
    aliases = {f"http://sho.rt/{k:x}": articles[(k * 7) % n_articles]
               for k in range(n_aliases)}
    alias_keys = list(aliases)
    tag_cum = zipf_cum_weights(n_tags, 1.0)
    art_cum = zipf_cum_weights(n_articles, 0.9)
    vid_cum = zipf_cum_weights(n_videos, 0.9)

    news_posters = set()

    def text(u: int) -> str:
        words = rng.choices(_WORDS, k=rng.randrange(4, 12))
        for rank in rng.choices(range(n_tags), cum_weights=tag_cum, k=rng.randrange(1, 4)):
            words.insert(rng.randrange(len(words) + 1), f"#Tag{rank}")
        kind = rng.random()
        if kind < 0.15:
            words.append(rng.choice(alias_keys) + ".")
            news_posters.add(u)
        elif kind < 0.3:
            vid = rng.choices(range(n_videos), cum_weights=vid_cum)[0]
            words.append(f"https://www.youtube.com/watch?v=vid{vid}&t=1")
        elif kind < 0.45:
            art = rng.choices(range(n_articles), cum_weights=art_cum)[0]
            words.append(f"https://{articles[art]}?ref=feed")
            news_posters.add(u)
        return " ".join(words)

    posts = []
    for u, vol in enumerate(volumes):
        posts.append((u, rng.randrange(0, WINDOW_START), "hello world"))
        posts.extend((u, _window_time(rng), text(u)) for _ in range(vol))
    follows = _uniform_follows(rng, n_users, degrees)
    (out / "news_domains.txt").write_text("\n".join(domains) + "\n", encoding="utf-8")
    _write_tsv(out / "url_aliases.tsv", aliases.items())
    return posts, follows, n_egos, news_posters, volumes


# Builders return (posts, follows, number of egos, users posting the
# analysed meme kind inside the window, per-user volumes when the egos'
# followees are to be stratified by volume).
# workload -> (builder, meme kind, min_followees, coverage levels, raw text)
_SPECS = {
    "raw_ingest": (_raw_ingest, "news_domain", 20, (1.0,), True),
    "deep_cover": (_deep_cover, "hashtag", 20, (0.5, 1.0), False),
    "many_small_egos": (_many_small_egos, "hashtag", 5, (1.0,), False),
}
WORKLOADS = tuple(_SPECS)


def generate(workload: str, seed: int, out_dir, scale: float = 1.0) -> dict:
    """Write one workload's input files to out_dir and return its description.

    The description names the files and the CLI arguments of every stage;
    the same (workload, seed, scale) gives byte-identical files.
    """
    build, meme_kind, min_followees, coverages, raw = _SPECS[workload]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if raw:
        posts, follows, n_egos, posters, volumes = build(rng, scale, out)
    else:
        posts, follows, n_egos, posters, volumes = build(rng, scale)
    # Egos follow between one and one and a half times --min-followees
    # accounts: the rare ego with hundreds would dominate the run on its own.
    eligible = {
        u: n for u, n in _effective_followees(follows, posters).items()
        if min_followees <= n <= 1.5 * min_followees
    }
    egos = _pick_egos(eligible, n_egos)
    if volumes is not None:
        _stratify_followees(rng, follows, egos, volumes, sorted(posters))
    _write_tsv(out / "posts.tsv", ((f"u{p[0]}", str(p[1]), *p[2:]) for p in posts))
    _write_tsv(
        out / "follows.tsv",
        ((f"u{u}", f"u{v}") for u in sorted(follows) for v in follows[u]),
    )
    ingest = [
        "--posts", str(out / "posts.tsv"), "--follows", str(out / "follows.tsv"),
        "--window-start", str(WINDOW_START), "--window-end", str(WINDOW_END),
    ]
    if raw:
        ingest += ["--news-domains", str(out / "news_domains.txt"),
                   "--url-aliases", str(out / "url_aliases.tsv")]
    else:
        ingest.append("--pre-extracted")
    analysis = ["--meme-kind", meme_kind, "--min-followees", str(min_followees),
                "--egos", ",".join(f"u{e}" for e in egos), "--no-header-timestamp"]
    description = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "posts_lines": len(posts),
        "follow_edges": sum(len(vs) for vs in follows.values()),
        "egos": [f"u{e}" for e in egos],
        "min_followees": min_followees,
        "coverages": list(coverages),
        "ingest_args": ingest,
        "analysis_args": analysis,
    }
    (out / "workload.json").write_text(json.dumps(description, indent=1) + "\n")
    return description


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    desc = generate(args.workload, args.seed, args.out, args.scale)
    print(json.dumps({k: desc[k] for k in ("posts_lines", "follow_edges", "egos")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
