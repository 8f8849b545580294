"""Batch command-line interface.

Subcommands: ingest, efficiency, cover, optimize, egonet, synth. The
four per-ego analyses run through one runner, ``cmd_analysis``, and the
``_ANALYSES`` table gives each its row function, optional summary
function and extra options. The runner loads the corpus cache (its
shared part and the part of ``--meme-kind`` only), builds each selected
ego's context and rows, skips and counts an ego that raises a
FeedcoverError, prefixes rows with ``ego``/``ego_label``, writes the main
report (columns from its first row) and the summaries, and returns
``rows: N  egos skipped: K``: each command returns its stdout lines for
``main`` to print. ``cover --method`` and ``egonet`` read ``cover.ENGINES``.

Beside the cache, one order store per meme kind (``corpus.<kind>.orders``
for ``corpus.pkl``) keeps each ego's full greedy orders, keyed by ego id.
The runner hands an ego's stored orders to the cover memo before its rows
are built, and after the reports rewrites the store if it computed an
order the store lacked. A store serves only the cache file it was written
for and the code that wrote it (``_store_identity``); one that is missing,
corrupt, foreign or unwritable is skipped silently, and ``ingest``
deletes the stores of the cache it replaces.

Reports are tab-separated (or JSON-lines) with a comment header; the
timestamp line can be suppressed for byte-identical reruns. Rows are
sorted by user id. Exit codes: 0 success, 2 bad input (an unreadable
or malformed input file, an invalid parameter, an unwritable ``--out``,
a missing, corrupt or stale corpus cache, or a standard output that
cannot be written), 3 empty or infeasible data, 4 internal error; a
FeedcoverError exits with its ``exit_code``.
"""
from __future__ import annotations

import argparse
import gc
import io
import os
import pickle
import sys
import zlib
from pathlib import Path

from . import __version__
from . import cover as cover_mod
from . import efficiency as eff_mod
from . import egonet as egonet_mod
from .errors import (EmptyCorpus, FeedcoverError, InvalidSpec, MalformedRecord,
                     UndefinedMeasure, warn)
from .ingest import IngestConfig, ego_context, load_corpus
from .model import ARCHETYPES, MEME_KINDS, Corpus, KindIndex, MemeId

HIST_BIN_WIDTH = 0.02
# Bump when the cache layout or the pickled layout of KindIndex or MemeId changes.
CACHE_FORMAT = 7
# The Corpus fields that the cache's first part holds, shared by every meme kind.
_SHARED = tuple(name for name in Corpus._fields if name != "kinds")
# Bytes of the little-endian size that precedes each kind's part.
_PART_SIZE_BYTES = 8
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

    def __init__(self, out_dir: Path, fmt: str, timestamp: bool, seed: int):
        self.out_dir = out_dir
        self.fmt = fmt
        self.timestamp = timestamp
        self.seed = seed
        out_dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, columns: list[str], rows: list[dict]) -> Path:
        ext = "jsonl" if self.fmt == "jsonl" else "tsv"
        path = self.out_dir / f"{name}.{ext}"
        lines = [f"# feedcover {name}", f"# seed {self.seed}"]
        if self.timestamp:
            from datetime import datetime, timezone
            lines.append(f"# generated {datetime.now(timezone.utc).isoformat()}")
        if self.fmt == "jsonl":
            import json
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


class _CacheUnpickler(pickle.Unpickler):
    """Resolves only the classes a cache holds, so a foreign pickle cannot run code."""

    _classes = {("feedcover.model", "KindIndex"): KindIndex,
                ("feedcover.model", "MemeId"): MemeId}

    def find_class(self, module, name):
        try:
            return self._classes[module, name]
        except KeyError:
            raise pickle.UnpicklingError(f"refusing global {module}.{name}") from None


class _StoreUnpickler(_CacheUnpickler):
    """Resolves no class: an order store holds only ints, floats, strs,
    tuples and dicts."""

    _classes = {}


def _write_replacing(path: Path, write) -> None:
    """Call ``write`` on a new file beside ``path``, then move that file over
    ``path``, so a reader finds the old file or the whole new one. On error
    the new file is removed and the error raised, naming ``path``."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            exc.filename = str(path)
        raise


def _save_corpus(corpus: Corpus, out_dir: Path) -> Path:
    """Write ``corpus.pkl``: one pickle holding an envelope (the cache format,
    the feedcover version and the kinds present, in order) and the shared
    fields, then each kind's ``KindIndex`` as its own pickle, preceded by
    its size in bytes so that a reader can seek past it. The file replaces
    the old one whole, and the old one's order stores are deleted."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "corpus.pkl"
    envelope = {"format": CACHE_FORMAT, "version": __version__, "kinds": tuple(corpus.kinds),
                **{name: getattr(corpus, name) for name in _SHARED}}

    def write(fh):
        pickle.dump(envelope, fh)
        for part in corpus.kinds.values():
            start = fh.tell()
            fh.write(bytes(_PART_SIZE_BYTES))
            pickle.dump(part, fh)
            end = fh.tell()
            fh.seek(start)
            fh.write((end - start - _PART_SIZE_BYTES).to_bytes(_PART_SIZE_BYTES, "little"))
            fh.seek(end)

    _write_replacing(path, write)
    for kind in MEME_KINDS:
        try:
            os.unlink(_store_path(path, kind))
        except OSError:
            pass
    return path


def _store_path(corpus_path, meme_kind: str) -> Path:
    """The order store of ``meme_kind`` beside a corpus cache:
    ``cache/corpus.hashtag.orders`` for ``cache/corpus.pkl``."""
    path = Path(corpus_path)
    return path.with_name(f"{path.stem}.{meme_kind}.orders")


def _store_identity(corpus_path) -> tuple | None:
    """What a store must have recorded to serve the cache at ``corpus_path``:
    the cache's inode, size and modification time in ns, and a crc32 of the
    code that derives and stores the orders; None if either is unreadable.
    Taken before the cache is read: a cache replaced in between is a new
    inode, so the identity taken names a file that no cache will match."""
    try:
        stat = os.stat(corpus_path)
        code = zlib.crc32(Path(__file__).read_bytes(),
                          zlib.crc32(Path(cover_mod.__file__).read_bytes()))
    except OSError:
        return None
    return stat.st_ino, stat.st_size, stat.st_mtime_ns, code


def _load_store(path: Path, identity: tuple) -> dict:
    """The orders ``{ego: {engine key: full order}}`` that ``_save_store``
    wrote for ``identity``; {} for a missing, unreadable, corrupt or
    foreign store."""
    try:
        with open(path, "rb") as fh:
            header = _StoreUnpickler(fh).load()
            payload = fh.read()
        if header == (identity, zlib.crc32(payload)):
            orders = _StoreUnpickler(io.BytesIO(payload)).load()
            if type(orders) is dict:
                return orders
    except (OSError, *_UNPICKLE_ERRORS):
        pass
    return {}


def _save_store(path: Path, identity: tuple, orders: dict) -> None:
    """Write ``orders`` as the store of ``identity``: a header pickle of the
    identity and the payload's crc32, then the payload, the orders pickled.
    A store that cannot be written is skipped."""
    payload = pickle.dumps(orders, pickle.HIGHEST_PROTOCOL)

    def write(fh):
        pickle.dump((identity, zlib.crc32(payload)), fh, pickle.HIGHEST_PROTOCOL)
        fh.write(payload)

    try:
        _write_replacing(path, write)
    except OSError:
        pass


def _load_cached(path, meme_kind: str | None = None) -> Corpus:
    """Load a cache written by ``_save_corpus`` of this format and version:
    every kind, or with ``meme_kind`` only the shared part and that kind's
    part (a kind without memes loads as a corpus without meme indices).
    A missing, unreadable, corrupt, foreign or stale file raises a
    MalformedRecord: ``<path>: <reason>; re-run `feedcover ingest```."""
    def unusable(reason):
        return MalformedRecord(path, None, f"{reason}; re-run `feedcover ingest`")
    try:
        with open(path, "rb") as fh:
            envelope = _CacheUnpickler(fh).load()
            if not isinstance(envelope, dict) or "format" not in envelope:
                raise unusable("not a feedcover corpus cache")
            found = (envelope["format"], envelope.get("version"))
            if found != (CACHE_FORMAT, __version__):
                raise unusable(f"cache format {found[0]} from feedcover {found[1]}; this "
                               f"feedcover {__version__} reads format {CACHE_FORMAT}")
            kinds = {}
            for kind in envelope["kinds"]:
                size = int.from_bytes(fh.read(_PART_SIZE_BYTES), "little")
                if meme_kind not in (None, kind):
                    fh.seek(size, os.SEEK_CUR)
                    continue
                kinds[kind] = _CacheUnpickler(fh).load()
                if not isinstance(kinds[kind], KindIndex):
                    raise unusable("not a feedcover corpus cache")
            return Corpus(kinds=kinds, **{name: envelope[name] for name in _SHARED})
    except OSError as exc:
        raise unusable(f"cannot read corpus cache: {exc.strerror}") from None
    except _UNPICKLE_ERRORS as exc:
        raise unusable(f"not a readable corpus cache ({exc})") from None


def _iso_seconds(text: str) -> int:
    """argparse type: unix seconds, or an ISO-8601 datetime (UTC if naive).

    Posts have integer times and the window is ``start <= t < end``, so a
    fractional second rounds up at either end.
    """
    try:
        return int(text)
    except ValueError:
        pass
    from datetime import datetime, timedelta, timezone
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is neither unix seconds nor an ISO-8601 datetime"
        ) from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return -((datetime(1970, 1, 1, tzinfo=timezone.utc) - dt) // timedelta(seconds=1))


def _count(minimum: int):
    """argparse type: a decimal integer >= ``minimum``."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {minimum}")
        return int(text)
    return parse


def _select_egos(corpus: Corpus, args) -> list[int]:
    if args.egos is not None:
        by_label = {lbl: uid for uid, lbl in corpus.user_labels.items()}
        egos = []
        for token in args.egos.split(","):
            token = token.strip()
            if token in by_label:
                egos.append(by_label[token])
            elif token.isdecimal() and int(token) in corpus.user_labels:
                egos.append(int(token))
            else:
                raise EmptyCorpus(f"unknown ego {token!r}")
        return sorted(set(egos))
    pool = sorted(corpus.follows)
    if args.sample_n is not None and args.sample_n < len(pool):
        import random
        pool = sorted(random.Random(args.seed).sample(pool, args.sample_n))
    return pool


def cmd_ingest(args) -> list[str]:
    config = IngestConfig(
        window_start=args.window_start,
        window_end=args.window_end,
        require_pre_window_activity=not args.no_activity_filter,
        news_domain_list=args.news_domains,
        url_alias_map=args.url_aliases,
        pre_extracted=args.pre_extracted,
    )
    corpus = load_corpus(args.posts, args.follows, config)
    path = _save_corpus(corpus, Path(args.out))
    parts = corpus.kinds
    return [
        f"corpus: {path}",
        f"users: {len(corpus.post_count)}",
        f"posts: {corpus.inflow(corpus.post_count)}",
        "user-meme pairs: "
        f"{sum(len(f) for part in parts.values() for f in part.first_post_by_user.values())}",
        *(f"unique {kind}: {len(parts[kind].first_mention) if kind in parts else 0}"
          for kind in MEME_KINDS),
    ]


def _distribution(keys: dict, mean_stat: str, values) -> list[dict]:
    """A mean row, then one row per fixed-width bin over [0, 1] (the top
    edge folds into the last bin); each row starts with ``keys``."""
    n_bins = round(1.0 / HIST_BIN_WIDTH)
    counts = [0] * n_bins
    for v in values:
        # round(v * n_bins, 9) puts 0.58 in bin 29, where 0.58 / 0.02 = 28.999999999999996
        counts[min(int(round(v * n_bins, 9)), n_bins - 1)] += 1
    return [{**keys, "stat": mean_stat, "x": "", "value": sum(values) / len(values)}] + [
        {**keys, "stat": "hist", "x": i * HIST_BIN_WIDTH, "value": c}
        for i, c in enumerate(counts)
    ]


def _efficiency_rows(corpus, ctx, args) -> list[dict]:
    return [
        eff_mod.evaluate_ego(
            corpus, ctx, args.meme_kind, coverage=p, alpha=args.alpha, beta=args.beta,
        )._asdict()
        for p in args.coverage
    ]


def _efficiency_summaries(rows, args) -> dict[str, list[dict]]:
    aggregate = []
    for p in args.coverage:
        subset = [r for r in rows if r["coverage"] == p]
        for metric in ("e_link", "e_inflow", "e_delay"):
            aggregate += _distribution({"coverage": p, "metric": metric}, "mean",
                                       [r[metric] for r in subset])
    return {"efficiency_aggregate": aggregate}


def _cover_rows(corpus, ctx, args) -> list[dict]:
    spec = cover_mod.CoverSpec(
        universe=ctx.memes, coverage=args.coverage[0],
        alpha=args.alpha, beta=args.beta,
    )
    result = cover_mod.ENGINES[args.method](corpus, spec)
    return [
        {"method": args.method, "step": step, "user": v, "user_label": corpus.label(v),
         "newly_covered": gain, "followed": int(v in ctx.followees)}
        for step, (v, gain) in enumerate(result.per_step, start=1)
    ]


def _optimize_rows(corpus, ctx, args) -> list[dict]:
    spec = cover_mod.CoverSpec(universe=ctx.memes, alpha=args.alpha, beta=args.beta)
    link_cov, inflow_cov, originals = eff_mod.original_efficiencies(corpus, ctx, spec)
    joint_cov = cover_mod.joint_cover(corpus, spec)
    measured = eff_mod.joint_efficiencies(ctx, joint_cov, link_cov, inflow_cov, corpus)
    ratios = eff_mod.efficiency_ratios(measured, originals)
    return [{
        "meme_kind": args.meme_kind,
        "n_followees": len(ctx.followees),
        "selected": ",".join(corpus.label(v) for v in joint_cov.selected),
        **measured,
        **{name.removesuffix("_by_joint_opt"): value for name, value in ratios.items()},
    }]


def _optimize_summaries(rows, args) -> dict[str, list[dict]]:
    """Ratio means per followee-count bin (powers-of-two bins)."""
    bins: dict[int, list[dict]] = {}
    for row in rows:
        bins.setdefault(row["n_followees"].bit_length(), []).append(row)
    ratios = [key for key in rows[0] if key.startswith("ratio_")]
    return {"optimize_bins": [
        {"followees_min": 2 ** (b - 1), "followees_max": 2 ** b - 1, "count": len(members),
         **{key: sum(r[key] for r in members) / len(members) for key in ratios}}
        for b, members in sorted(bins.items())
    ]}


def _lcc(corpus, ego, members) -> float | None:
    """The LCC of ``members``' ego network; None under two members besides the ego."""
    try:
        return egonet_mod.local_clustering_coefficient(
            egonet_mod.build_ego_network(corpus, ego, members))
    except UndefinedMeasure:
        return None


def _egonet_rows(corpus, ctx, args) -> list[dict]:
    spec = cover_mod.CoverSpec(universe=ctx.memes, alpha=args.alpha, beta=args.beta)
    lcc_original = _lcc(corpus, ctx.ego, ctx.followees)
    rows = []
    for method, engine in cover_mod.ENGINES.items():
        selected = engine(corpus, spec).selected
        rows.append({
            "optimization": method,
            "lcc_original": lcc_original,
            "lcc_optimized": _lcc(corpus, ctx.ego, selected),
            "overlap": egonet_mod.overlap(selected, ctx.followees),
        })
    return rows


def _egonet_summaries(rows, args) -> dict[str, list[dict]]:
    """LCC mean and histogram per optimization, with its LCC/overlap
    correlation, then LCC mean and histogram of the original networks."""
    summary = []
    for method in cover_mod.ENGINES:
        points = [
            (r["lcc_optimized"], r["overlap"]) for r in rows
            if r["optimization"] == method and r["lcc_optimized"] is not None
        ]
        if points:
            summary += _distribution({"optimization": method}, "mean_lcc",
                                     [lcc for lcc, _ in points])
        try:
            r_value = egonet_mod.lcc_overlap_correlation(points)
        except UndefinedMeasure:
            r_value = None
        summary.append({"optimization": method, "stat": "pearson_lcc_overlap",
                        "x": "", "value": r_value})
    originals = sorted({r["ego"]: r["lcc_original"] for r in rows}.items())
    values = [lcc for _, lcc in originals if lcc is not None]
    if values:
        summary += _distribution({"optimization": "original"}, "mean_lcc", values)
    return {"egonet_summary": summary}


# The per-ego analysis subcommands: help text, row function, summary
# function (or None) and options beyond the common ones. Only efficiency
# and cover take --coverage (cover one value, checked in main); optimize
# and egonet work at full coverage.
_ANALYSES = {
    "efficiency": ("per-ego efficiency report", _efficiency_rows,
                   _efficiency_summaries,
                   {"--coverage": {"type": float, "action": "append",
                                   "help": "coverage fraction in (0,1]; repeatable"}}),
    "cover": ("per-ego cover membership", _cover_rows, None,
              {"--method": {"default": "link", "choices": sorted(cover_mod.ENGINES)},
               "--coverage": {"type": float, "action": "append",
                              "help": "coverage fraction in (0,1]"}}),
    "optimize": ("joint in-flow/delay rewiring report", _optimize_rows,
                 _optimize_summaries, {}),
    "egonet": ("LCC and overlap of original vs optimized", _egonet_rows,
               _egonet_summaries, {}),
}


def cmd_analysis(args) -> list[str]:
    """Run one analysis subcommand over the selected egos; write its reports."""
    _, row_fn, summarize, _ = _ANALYSES[args.command]
    identity = _store_identity(args.corpus)
    corpus = _load_cached(args.corpus, args.meme_kind)
    store = _store_path(args.corpus, args.meme_kind)
    stored = _load_store(store, identity) if identity else {}
    computed = False
    rows, skipped = [], 0
    for ego in _select_egos(corpus, args):
        orders = None
        try:
            ctx = ego_context(corpus, ego, args.meme_kind, args.min_followees)
            orders = cover_mod._slot(corpus, ctx.memes)[4]
            orders.update(stored.get(ego, {}))
            ego_rows = row_fn(corpus, ctx, args)
        except FeedcoverError as exc:
            warn(f"skip ego {corpus.label(ego)}: {exc}")
            skipped += 1
            continue
        finally:
            # An order that raised is not in the memo, so it raises again next time.
            if orders is not None and len(orders) > len(stored.get(ego, {})):
                stored[ego] = {key: tuple(order) for key, order in orders.items()}
                computed = True
        rows += [{"ego": ego, "ego_label": corpus.label(ego), **r} for r in ego_rows]
    if not rows:
        raise EmptyCorpus(f"no {args.command} rows produced")
    writer = ReportWriter(
        Path(args.out), args.format, not args.no_header_timestamp, args.seed
    )
    reports = {args.command: rows, **(summarize(rows, args) if summarize else {})}
    for name, report in reports.items():
        writer.write(name, list(report[0]), report)
    if computed and identity:
        _save_store(store, identity, stored)
    return [f"rows: {len(rows)}  egos skipped: {skipped}"]


def cmd_synth(args) -> list[str]:
    from . import synth as synth_mod
    out = Path(args.out)
    if args.archetype == "triadic_communities":
        events, follows, egos = synth_mod.generate_triadic_events(
            seed=args.seed, window_days=args.window_days
        )
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
        events, follows, ego = synth_mod.generate_events(spec)
        ego_note = f"ego {ego}"
    out.mkdir(parents=True, exist_ok=True)
    synth_mod.write_corpus_files(events, follows, out / "posts.tsv", out / "follows.tsv")
    n_users, n_memes = len({ev.user for ev in events}), len({ev.meme for ev in events})
    return [f"wrote {out / 'posts.tsv'} and {out / 'follows.tsv'} ({ego_note})",
            f"users: {n_users}  memes: {n_memes}"]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="corpus.pkl from `ingest`")
    p.add_argument("--meme-kind", default="hashtag", choices=MEME_KINDS)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--min-followees", type=_count(0), default=20)
    p.add_argument("--sample-n", type=_count(1), default=None)
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
    p.add_argument("--window-start", required=True, type=_iso_seconds,
                   help="ISO-8601 datetime or unix seconds")
    p.add_argument("--window-end", required=True, type=_iso_seconds)
    p.add_argument("--pre-extracted", action="store_true",
                   help="posts file already carries meme kind/key columns")
    p.add_argument("--no-activity-filter", action="store_true")
    p.add_argument("--news-domains", default=None)
    p.add_argument("--url-aliases", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ingest)

    for name, (help_text, _, _, options) in _ANALYSES.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=cmd_analysis)

    p = sub.add_parser("synth", help="generate synthetic corpus files")
    p.add_argument("--archetype", default="random_bipartite",
                   choices=ARCHETYPES + ("triadic_communities",),
                   help="triadic_communities reads only --seed and --window-days")
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
    """Run one command; return its exit code. Leaves the garbage collector
    as it found it, so a library or test process may call it repeatedly."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if "alpha" in vars(args):
        args.coverage = getattr(args, "coverage", None) or [1.0]
        try:
            for p in args.coverage:
                cover_mod.CoverSpec(frozenset(), coverage=p, alpha=args.alpha, beta=args.beta)
        except InvalidSpec as exc:
            parser.error(str(exc))
        if getattr(args, "method", None) == "delay" and args.coverage[0] < 1.0:
            parser.error("--method delay needs --coverage 1")
        if args.command == "cover" and len(args.coverage) > 1:
            parser.error("cover takes one --coverage")
        if len(set(args.coverage)) < len(args.coverage):
            parser.error("--coverage repeats a value")
    try:
        lines = args.fn(args)
    except OSError as exc:
        warn(f"error: cannot write {exc.filename or args.out}: {exc.strerror}")
        return 2
    except FeedcoverError as exc:
        warn(f"error: {exc}")
        return exc.exit_code
    try:
        print(*lines, sep="\n", flush=True)  # a failed write raises here under any buffering
    except OSError as exc:
        warn(f"error: cannot write standard output: {exc.strerror}")
        return 2
    return 0


def console_main(argv=None) -> int:
    """The ``feedcover`` console script and ``python -m feedcover.cli``:
    ``main`` in a process that exits when it returns."""
    # The cyclic GC stays off while a command runs: a collection finds 0
    # unreachable objects after an analysis stage and a few hundred after
    # ingest, yet a running collector rescans the corpus as it is built or
    # loaded. Freezing at the end keeps the imported modules out of the
    # collection at exit: after ingest it takes under 1 ms instead of 3-15 ms.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()
        if enabled:
            gc.enable()
        # Unwritable stdout bytes stay buffered, and the exit's flush would fail
        # again (exit 120): send them to os.devnull ("Note on SIGPIPE", signal docs).
        try:
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(console_main())
