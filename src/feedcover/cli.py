"""Batch command-line interface.

Subcommands: ingest, efficiency, cover, optimize, egonet, synth.
Reports are tab-separated (or JSON-lines) with a comment header; the
timestamp line can be suppressed for byte-identical reruns. Rows are
sorted by user id. Exit codes: 0 success, 2 bad input (a malformed
input line, an invalid parameter, or a missing, corrupt or stale
corpus cache), 3 empty or infeasible data, 4 internal error.
"""
from __future__ import annotations

import argparse
import json
import pickle
import random
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import cover as cover_mod
from . import efficiency as eff_mod
from . import egonet as egonet_mod
from . import synth as synth_mod
from .errors import (
    CacheError,
    EmptyCorpus,
    FeedcoverError,
    InfeasibleCover,
    InvalidSpec,
    MalformedRecord,
)
from .ingest import IngestConfig, ego_context, load_corpus
from .model import MEME_KINDS, Corpus, MemeId

HIST_BIN_WIDTH = 0.02
# Bump when the pickled layout of Corpus or MemeId changes.
CACHE_FORMAT = 2
_CACHE_HINT = "re-run `feedcover ingest`"
# Decoding errors pickle raises on truncated, corrupt or incompatible data.
_UNPICKLE_ERRORS = (
    pickle.UnpicklingError, EOFError, AttributeError, IndexError, KeyError,
    OverflowError, TypeError, ValueError,
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


class ReportWriter:
    """Writes one report file with a deterministic comment header."""

    def __init__(self, out_dir: Path, fmt: str, timestamp: bool, seed=None):
        self.out_dir = out_dir
        self.fmt = fmt
        self.timestamp = timestamp
        self.seed = seed
        out_dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, columns: list[str], rows: list[dict]) -> Path:
        ext = "jsonl" if self.fmt == "jsonl" else "tsv"
        path = self.out_dir / f"{name}.{ext}"
        lines = [f"# feedcover {name}"]
        if self.seed is not None:
            lines.append(f"# seed {self.seed}")
        if self.timestamp:
            lines.append(f"# generated {datetime.now(timezone.utc).isoformat()}")
        if self.fmt == "jsonl":
            lines.extend(
                json.dumps({c: row.get(c) for c in columns}, sort_keys=False)
                for row in rows
            )
        else:
            lines.append("\t".join(columns))
            lines.extend(
                "\t".join(_fmt(row.get(c)) for c in columns) for row in rows
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path


def histogram(values, width: float = HIST_BIN_WIDTH) -> list[tuple[float, int]]:
    """Fixed-width bins over [0, 1]; the top edge folds into the last bin."""
    n_bins = round(1.0 / width)
    counts = [0] * n_bins
    for v in values:
        counts[min(int(v / width), n_bins - 1)] += 1
    return [(i * width, c) for i, c in enumerate(counts)]


class _CacheUnpickler(pickle.Unpickler):
    """Resolves only the corpus classes, so a foreign pickle cannot run code."""

    _classes = {("feedcover.model", "Corpus"): Corpus,
                ("feedcover.model", "MemeId"): MemeId}

    def find_class(self, module, name):
        try:
            return self._classes[module, name]
        except KeyError:
            raise pickle.UnpicklingError(f"refusing global {module}.{name}") from None


def _save_corpus(corpus: Corpus, out_dir: Path) -> Path:
    """Pickle the corpus inside an envelope naming the cache format and version."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "corpus.pkl"
    envelope = {"format": CACHE_FORMAT, "version": __version__, "corpus": corpus}
    with open(path, "wb") as fh:
        pickle.dump(envelope, fh)
    return path


def _load_cached(path) -> Corpus:
    """Load a cache written by ``_save_corpus`` of this format and version.

    A missing, unreadable, corrupt, foreign or stale file raises CacheError.
    """
    try:
        with open(path, "rb") as fh:
            envelope = _CacheUnpickler(fh).load()
    except OSError as exc:
        raise CacheError(f"cannot read corpus cache {path}: {exc.strerror}; {_CACHE_HINT}")
    except _UNPICKLE_ERRORS as exc:
        raise CacheError(f"{path} is not a readable corpus cache ({exc}); {_CACHE_HINT}")
    if not isinstance(envelope, dict) or not isinstance(envelope.get("corpus"), Corpus):
        raise CacheError(f"{path} is not a feedcover corpus cache; {_CACHE_HINT}")
    found = (envelope.get("format"), envelope.get("version"))
    if found != (CACHE_FORMAT, __version__):
        raise CacheError(
            f"{path} has cache format {found[0]} from feedcover {found[1]}; this "
            f"feedcover {__version__} reads format {CACHE_FORMAT}; {_CACHE_HINT}"
        )
    return envelope["corpus"]


def _iso_seconds(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        pass
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _select_egos(corpus: Corpus, args) -> list[int]:
    if args.egos:
        by_label = {lbl: uid for uid, lbl in corpus.user_labels.items()}
        egos = []
        for token in args.egos.split(","):
            token = token.strip()
            if token in by_label:
                egos.append(by_label[token])
            elif token.isdigit() and int(token) in corpus.follows:
                egos.append(int(token))
            else:
                raise EmptyCorpus(f"unknown ego {token!r}")
        return sorted(set(egos))
    pool = sorted(corpus.follows)
    if args.sample_n is not None and args.sample_n < len(pool):
        pool = sorted(random.Random(args.seed).sample(pool, args.sample_n))
    return pool


def cmd_ingest(args) -> int:
    config = IngestConfig(
        window_start=_iso_seconds(args.window_start),
        window_end=_iso_seconds(args.window_end),
        min_followees=args.min_followees,
        require_pre_window_activity=not args.no_activity_filter,
        news_domain_list=args.news_domains,
        url_alias_map=args.url_aliases,
        pre_extracted=args.pre_extracted,
    )
    corpus = load_corpus(args.posts, args.follows, config)
    path = _save_corpus(corpus, Path(args.out))
    per_kind = {kind: 0 for kind in MEME_KINDS}
    for meme in corpus.first_mention:
        per_kind[meme.kind] += 1
    n_events = sum(len(p) for p in corpus.posts_by_user.values())
    print(f"corpus: {path}")
    print(f"users: {len(corpus.post_count)}")
    print(f"posts: {sum(corpus.post_count.values())}")
    print(f"meme events: {n_events}")
    for kind in MEME_KINDS:
        print(f"unique {kind}: {per_kind[kind]}")
    return 0


def _per_ego_rows(corpus, args, compute_row):
    """Shared skip-and-count loop over sampled egos."""
    rows, skipped = [], 0
    for ego in _select_egos(corpus, args):
        try:
            ctx = ego_context(corpus, ego, args.meme_kind, args.min_followees)
            rows.extend(compute_row(ego, ctx))
        except FeedcoverError as exc:
            print(f"skip ego {corpus.label(ego)}: {exc}", file=sys.stderr)
            skipped += 1
    return rows, skipped


_CROSS_COLS = {
    "el_uf": "link_of_inflow_set",
    "el_ut": "link_of_delay_set",
    "ef_ul": "inflow_of_link_set",
    "ef_ut": "inflow_of_delay_set",
    "et_ul": "delay_of_link_set",
    "et_uf": "delay_of_inflow_set",
}


def _report_row(corpus: Corpus, report: eff_mod.EfficiencyReport) -> dict:
    row = {
        "ego": report.ego,
        "ego_label": corpus.label(report.ego),
        "meme_kind": report.meme_kind,
        "coverage": report.coverage,
        "n_followees": report.n_followees,
        "n_memes": report.n_memes,
        "e_link": report.e_link,
        "e_inflow": report.e_inflow,
        "e_delay": report.e_delay,
        "link_set_size": report.link_set_size,
        "inflow_set_size": report.inflow_set_size,
        "delay_set_size": report.delay_set_size,
        "joint_set_size": report.joint_set_size,
        "followee_inflow": report.followee_inflow,
        "link_set_inflow": report.link_set_inflow,
        "inflow_set_inflow": report.inflow_set_inflow,
        "delay_set_inflow": report.delay_set_inflow,
        "joint_set_inflow": report.joint_set_inflow,
    }
    for col, attr in _CROSS_COLS.items():
        row[col] = getattr(report.cross, attr) if report.cross else None
    for col, attr in (("el_ua", "link"), ("ef_ua", "inflow"), ("et_ua", "delay")):
        row[col] = getattr(report.joint, attr) if report.joint else None
    for key in (
        "link_by_inflow_opt", "link_by_delay_opt",
        "inflow_by_link_opt", "inflow_by_delay_opt",
        "delay_by_link_opt", "delay_by_inflow_opt",
        "link_by_joint_opt", "inflow_by_joint_opt", "delay_by_joint_opt",
    ):
        row[f"ratio_{key}"] = report.ratios.get(key)
    return row


def cmd_efficiency(args) -> int:
    corpus = _load_cached(args.corpus)
    coverages = args.coverage or [1.0]

    def compute(ego, ctx):
        return [
            _report_row(
                corpus,
                eff_mod.evaluate_ego(
                    corpus, ctx, args.meme_kind,
                    coverage=p, alpha=args.alpha, beta=args.beta,
                ),
            )
            for p in coverages
        ]

    rows, skipped = _per_ego_rows(corpus, args, compute)
    if not rows:
        raise EmptyCorpus("no ego produced an efficiency row")
    writer = ReportWriter(
        Path(args.out), args.format, not args.no_header_timestamp, args.seed
    )
    writer.write("efficiency", list(rows[0]), rows)
    agg_rows = []
    for p in coverages:
        subset = [r for r in rows if r["coverage"] == p]
        for metric in ("e_link", "e_inflow", "e_delay"):
            values = [r[metric] for r in subset]
            agg_rows.append({
                "coverage": p, "metric": metric, "stat": "mean",
                "x": "", "value": sum(values) / len(values),
            })
            for lo, count in histogram(values):
                agg_rows.append({
                    "coverage": p, "metric": metric, "stat": "hist",
                    "x": lo, "value": count,
                })
    writer.write("efficiency_aggregate", ["coverage", "metric", "stat", "x", "value"], agg_rows)
    print(f"rows: {len(rows)}  egos skipped: {skipped}")
    return 0


_METHODS = {
    "link": cover_mod.greedy_min_cover,
    "inflow": cover_mod.greedy_weighted_cover,
    "delay": cover_mod.delay_optimal_cover,
    "joint": cover_mod.joint_cover,
}


def cmd_cover(args) -> int:
    corpus = _load_cached(args.corpus)

    def compute(ego, ctx):
        spec = cover_mod.CoverSpec(
            universe=ctx.memes, coverage=args.coverage[0] if args.coverage else 1.0,
            alpha=args.alpha, beta=args.beta,
        )
        result = _METHODS[args.method](corpus, spec)
        return [
            {
                "ego": ego,
                "ego_label": corpus.label(ego),
                "method": args.method,
                "step": step,
                "user": v,
                "user_label": corpus.label(v),
                "newly_covered": gain,
                "followed": int(v in ctx.followees),
            }
            for step, (v, gain) in enumerate(result.per_step, start=1)
        ]

    rows, skipped = _per_ego_rows(corpus, args, compute)
    if not rows:
        raise EmptyCorpus("no cover rows produced")
    writer = ReportWriter(
        Path(args.out), args.format, not args.no_header_timestamp, args.seed
    )
    writer.write(
        "cover",
        ["ego", "ego_label", "method", "step", "user", "user_label",
         "newly_covered", "followed"],
        rows,
    )
    print(f"rows: {len(rows)}  egos skipped: {skipped}")
    return 0


def cmd_optimize(args) -> int:
    corpus = _load_cached(args.corpus)

    def compute(ego, ctx):
        report = eff_mod.evaluate_ego(
            corpus, ctx, args.meme_kind, alpha=args.alpha, beta=args.beta
        )
        return [{
            "ego": ego,
            "ego_label": corpus.label(ego),
            "meme_kind": args.meme_kind,
            "n_followees": report.n_followees,
            "selected": ",".join(corpus.label(v) for v in report.joint_selected),
            "el_ua": report.joint.link,
            "ef_ua": report.joint.inflow,
            "et_ua": report.joint.delay,
            "ratio_link": report.ratios["link_by_joint_opt"],
            "ratio_inflow": report.ratios["inflow_by_joint_opt"],
            "ratio_delay": report.ratios["delay_by_joint_opt"],
        }]

    rows, skipped = _per_ego_rows(corpus, args, compute)
    if not rows:
        raise EmptyCorpus("no optimize rows produced")
    writer = ReportWriter(
        Path(args.out), args.format, not args.no_header_timestamp, args.seed
    )
    writer.write(
        "optimize",
        ["ego", "ego_label", "meme_kind", "n_followees", "selected",
         "el_ua", "ef_ua", "et_ua", "ratio_link", "ratio_inflow", "ratio_delay"],
        rows,
    )
    # Followee-count-binned ratio averages (powers-of-two bins).
    bins: dict[int, list[dict]] = {}
    for row in rows:
        bins.setdefault(row["n_followees"].bit_length(), []).append(row)
    bin_rows = []
    for b in sorted(bins):
        members = bins[b]
        entry = {"followees_min": 2 ** (b - 1), "followees_max": 2 ** b - 1,
                 "count": len(members)}
        for key in ("ratio_link", "ratio_inflow", "ratio_delay"):
            entry[key] = sum(r[key] for r in members) / len(members)
        bin_rows.append(entry)
    writer.write(
        "optimize_bins",
        ["followees_min", "followees_max", "count",
         "ratio_link", "ratio_inflow", "ratio_delay"],
        bin_rows,
    )
    print(f"rows: {len(rows)}  egos skipped: {skipped}")
    return 0


def cmd_egonet(args) -> int:
    corpus = _load_cached(args.corpus)

    def compute(ego, ctx):
        spec = cover_mod.CoverSpec(
            universe=ctx.memes, alpha=args.alpha, beta=args.beta
        )
        original = egonet_mod.build_ego_network(corpus, ego, ctx.followees)
        try:
            lcc_orig = egonet_mod.local_clustering_coefficient(original)
        except FeedcoverError:
            lcc_orig = None
        out = []
        for method, fn in _METHODS.items():
            result = fn(corpus, spec)
            net = egonet_mod.build_ego_network(corpus, ego, result.selected)
            try:
                lcc_opt = egonet_mod.local_clustering_coefficient(net)
            except FeedcoverError:
                lcc_opt = None
            out.append({
                "ego": ego,
                "ego_label": corpus.label(ego),
                "optimization": method,
                "lcc_original": lcc_orig,
                "lcc_optimized": lcc_opt,
                "overlap": egonet_mod.overlap(result.selected, ctx.followees),
            })
        return out

    rows, skipped = _per_ego_rows(corpus, args, compute)
    if not rows:
        raise EmptyCorpus("no egonet rows produced")
    writer = ReportWriter(
        Path(args.out), args.format, not args.no_header_timestamp, args.seed
    )
    writer.write(
        "egonet",
        ["ego", "ego_label", "optimization", "lcc_original", "lcc_optimized",
         "overlap"],
        rows,
    )
    summary = []
    for method in list(_METHODS) + ["original"]:
        if method == "original":
            values = sorted(
                {r["ego"]: r["lcc_original"] for r in rows}.items()
            )
            values = [v for _, v in values if v is not None]
        else:
            values = [
                r["lcc_optimized"] for r in rows
                if r["optimization"] == method and r["lcc_optimized"] is not None
            ]
        if values:
            summary.append({"optimization": method, "stat": "mean_lcc",
                            "x": "", "value": sum(values) / len(values)})
            for lo, count in histogram(values):
                summary.append({"optimization": method, "stat": "hist",
                                "x": lo, "value": count})
        if method != "original":
            points = [
                (r["lcc_optimized"], r["overlap"]) for r in rows
                if r["optimization"] == method and r["lcc_optimized"] is not None
            ]
            try:
                r_value = egonet_mod.lcc_overlap_correlation(points)
            except FeedcoverError:
                r_value = None
            summary.append({"optimization": method, "stat": "pearson_lcc_overlap",
                            "x": "", "value": r_value})
    writer.write(
        "egonet_summary", ["optimization", "stat", "x", "value"], summary
    )
    print(f"rows: {len(rows)}  egos skipped: {skipped}")
    return 0


def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.archetype == "triadic_communities":
        corpus, egos = synth_mod.generate_triadic_corpus(seed=args.seed)
        ego_note = f"{len(egos)} egos"
    else:
        spec = synth_mod.SynthSpec(
            seed=args.seed,
            n_users=args.n_users,
            n_memes=args.n_memes,
            window_days=args.window_days,
            archetype=args.archetype,
            pareto_exponent=args.pareto_exponent,
            ego_followee_count=args.ego_followees,
        )
        corpus, ego = synth_mod.generate(spec)
        ego_note = f"ego {ego}"
    synth_mod.write_corpus_files(corpus, out / "posts.tsv", out / "follows.tsv")
    print(f"wrote {out / 'posts.tsv'} and {out / 'follows.tsv'} ({ego_note})")
    print(f"users: {len(corpus.post_count)}  memes: {len(corpus.first_mention)}")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="corpus.pkl from `ingest`")
    p.add_argument("--meme-kind", default="hashtag", choices=MEME_KINDS)
    p.add_argument("--coverage", type=float, action="append",
                   help="coverage fraction in (0,1]; repeatable")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--min-followees", type=int, default=20)
    p.add_argument("--sample-n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--egos", default=None, help="explicit comma-separated egos")
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="tsv", choices=("tsv", "jsonl"))
    p.add_argument("--no-header-timestamp", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="feedcover")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse input files into a cached corpus")
    p.add_argument("--posts", required=True)
    p.add_argument("--follows", required=True)
    p.add_argument("--window-start", required=True,
                   help="ISO-8601 datetime or unix seconds")
    p.add_argument("--window-end", required=True)
    p.add_argument("--min-followees", type=int, default=20)
    p.add_argument("--pre-extracted", action="store_true",
                   help="posts file already carries meme kind/key columns")
    p.add_argument("--no-activity-filter", action="store_true")
    p.add_argument("--news-domains", default=None)
    p.add_argument("--url-aliases", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("efficiency", help="per-ego efficiency report")
    _add_common(p)
    p.set_defaults(fn=cmd_efficiency)

    p = sub.add_parser("cover", help="per-ego cover membership")
    _add_common(p)
    p.add_argument("--method", default="link", choices=sorted(_METHODS))
    p.set_defaults(fn=cmd_cover)

    p = sub.add_parser("optimize", help="joint in-flow/delay rewiring report")
    _add_common(p)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("egonet", help="LCC and overlap of original vs optimized")
    _add_common(p)
    p.set_defaults(fn=cmd_egonet)

    p = sub.add_parser("synth", help="generate synthetic corpus files")
    p.add_argument("--archetype", default="random_bipartite",
                   choices=synth_mod.ARCHETYPES + ("triadic_communities",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-users", type=int, default=20)
    p.add_argument("--n-memes", type=int, default=30)
    p.add_argument("--window-days", type=int, default=7)
    p.add_argument("--pareto-exponent", type=float, default=1.5)
    p.add_argument("--ego-followees", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "alpha" in vars(args):
        try:
            for p in args.coverage or [1.0]:
                cover_mod.CoverSpec(frozenset(), coverage=p, alpha=args.alpha, beta=args.beta)
        except InvalidSpec as exc:
            parser.error(str(exc))
    try:
        return args.fn(args)
    except (MalformedRecord, CacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EmptyCorpus, InfeasibleCover) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FeedcoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
