"""Batch command-line interface.

Subcommands: ingest, efficiency, cover, optimize, egonet, synth. The
four per-ego analyses run through one runner, ``cmd_analysis``, and the
``_ANALYSES`` table gives each its row function, optional summary
function and extra options. The runner loads the corpus cache (its
shared part and the part of ``--meme-kind`` only), builds each selected
ego's context and rows, skips and counts an ego that raises a
FeedcoverError, prefixes rows with ``ego``/``ego_label``, writes the main
report (columns from its first row) and the summaries, each to a new file
that replaces its report once all are written, and returns
``rows: N  egos skipped: K``: each command returns its stdout lines for
``main`` to print. ``cover --method`` and ``egonet`` read ``cover.ENGINES``.

Beside the cache, one order store per meme kind (``corpus.<kind>.orders``
for ``corpus.pkl``) keeps each ego's full greedy orders, keyed by ego id.
An ego's entry is the cover memo's dict of its orders, with the stored
ones added, and the store is rewritten after the reports if it grew. A
store serves only the cache file it was written for and the code that
wrote it (``_store_identity``); one that is missing, corrupt, foreign or
unwritable is skipped silently, and ``ingest`` deletes the stores of the
cache it replaces.

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
import errno
import gc
import io
import math
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
from .model import ARCHETYPES, KIND_INDICES, MEME_KINDS, Corpus

HIST_BIN_WIDTH = 0.02
# Bump when the cache layout changes (11: no stored first mentions; 10: posters
# in arrival order, where format 9 sorted them by id, giving wrong delay covers).
CACHE_FORMAT = 11
# The Corpus fields that the cache's first part holds, shared by every meme kind.
_SHARED = tuple(name for name in Corpus._fields if name != "kinds")
# Bytes of the little-endian size that precedes each kind's part.
_PART_SIZE_BYTES = 8
# Decoding errors pickle raises on truncated, corrupt or incompatible data.
_UNPICKLE_ERRORS = (
    pickle.UnpicklingError, EOFError, AttributeError, IndexError, KeyError,
    OverflowError, TypeError, ValueError,
)
_COVER_DEFAULTS = cover_mod.CoverSpec._field_defaults  # of --alpha, --beta and --coverage


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


class ReportWriter:
    """Writes report files, each with a deterministic comment header; a
    report's columns are the keys of its first row, in order."""

    def __init__(self, out_dir: Path, fmt: str, timestamp: bool, seed: int):
        self.out_dir = out_dir
        self.fmt = fmt
        self.timestamp = timestamp
        self.seed = seed
        out_dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, rows: list[dict]) -> tuple[Path, Path]:
        """Write report ``name`` to a new file beside it, for ``_replace``."""
        columns = list(rows[0])
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
        return _write_new(path, lambda fh: fh.write(("\n".join(lines) + "\n").encode("utf-8")))


class _Unpickler(pickle.Unpickler):
    """Resolves no class, so a foreign pickle cannot run code: a corpus cache
    and an order store hold only ints, floats, strs, tuples, lists and dicts."""

    def find_class(self, module, name):
        raise pickle.UnpicklingError(f"refusing global {module}.{name}")


def _discard(made, exc: BaseException) -> None:
    """Remove each new file of the ``(new file, path)`` pairs ``made`` that is
    left; an OSError ``exc`` that names a new file then names its path."""
    for new, path in made:
        try:
            os.unlink(new)
        except OSError:
            pass
        if isinstance(exc, OSError) and exc.filename == str(new):
            exc.filename = str(path)


def _write_new(path: Path, write) -> tuple[Path, Path]:
    """Call ``write`` on a new file beside ``path``; return ``(new file, path)``.
    On error the new file is removed and the error raised, naming ``path``."""
    new = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(new, "wb") as fh:
            write(fh)
    except BaseException as exc:
        _discard([(new, path)], exc)
        raise
    return new, path


def _replace(moves) -> None:
    """Take every ``(new file, path)`` pair of ``moves`` (a generator of
    ``_write_new`` calls thus writes every file first), refuse the set if a
    path is a directory (a symlink to one is replaced, not followed), then
    move each new file over its path. On error the new files are removed
    and the error raised, naming the path. A move that fails for another
    reason after an earlier one succeeded still leaves that path new."""
    made = []
    try:
        for move in moves:
            made.append(move)
        for _, path in made:
            if os.path.isdir(path) and not os.path.islink(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for new, path in made:
            os.replace(new, path)
    except BaseException as exc:
        _discard(made, exc)
        raise


def _save_corpus(corpus: Corpus, out_dir: Path) -> Path:
    """Write ``corpus.pkl``: one pickle holding an envelope (the cache format,
    the feedcover version and the kinds present, in order) and the shared
    fields, then each kind's part, the plain dict of its indices, as its own
    pickle, preceded by its size in bytes so that a reader can seek past it.
    No pickle names a class. The file replaces the old one whole, and the
    old one's order stores are deleted."""
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

    _replace([_write_new(path, write)])
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
    the cache's inode, size and modification time in ns, and a crc32 of
    every feedcover module, by name; None if either is unreadable.
    Taken before the cache is read: a cache replaced in between is a new
    inode, so the identity taken names a file that no cache will match."""
    try:
        stat = os.stat(corpus_path)
        code = 0
        for module in sorted(Path(__file__).parent.glob("*.py")):
            code = zlib.crc32(module.read_bytes(), code)
    except OSError:
        return None
    return stat.st_ino, stat.st_size, stat.st_mtime_ns, code


def _load_store(path: Path, identity: tuple) -> dict:
    """The orders ``{ego: {engine key: full order}}`` that ``_save_store``
    wrote for ``identity``; {} for a missing, unreadable, corrupt or
    foreign store."""
    try:
        with open(path, "rb") as fh:
            header = _Unpickler(fh).load()
            payload = fh.read()
        if header == (identity, zlib.crc32(payload)):
            orders = _Unpickler(io.BytesIO(payload)).load()
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
        _replace([_write_new(path, write)])
    except OSError:
        pass


def _load_cached(path, meme_kind: str | None = None) -> Corpus:
    """Load a cache written by ``_save_corpus`` of this format and version:
    every kind, or with ``meme_kind`` only the shared part and that kind's
    part (a kind without memes loads as a corpus without meme indices).
    A missing, unreadable, corrupt, foreign or stale file raises a
    MalformedRecord: ``<path>: <reason>; re-run `feedcover ingest```.
    So does a shared field or a loaded part's index that is not a dict;
    the keys and values inside those dicts are not checked."""
    def unusable(reason):
        return MalformedRecord(path, None, f"{reason}; re-run `feedcover ingest`")
    try:
        with open(path, "rb") as fh:
            envelope = _Unpickler(fh).load()
            if not isinstance(envelope, dict) or "format" not in envelope:
                raise unusable("not a feedcover corpus cache")
            found = (envelope["format"], envelope.get("version"))
            if found != (CACHE_FORMAT, __version__):
                raise unusable(f"cache format {found[0]} from feedcover {found[1]}; this "
                               f"feedcover {__version__} reads format {CACHE_FORMAT}")
            if any(type(envelope.get(name)) is not dict for name in _SHARED):
                raise unusable("not a feedcover corpus cache")
            kinds = {}
            for kind in envelope["kinds"]:
                size = int.from_bytes(fh.read(_PART_SIZE_BYTES), "little")
                if meme_kind not in (None, kind):
                    fh.seek(size, os.SEEK_CUR)
                    continue
                part = kinds[kind] = _Unpickler(fh).load()
                if (type(part) is not dict or tuple(part) != KIND_INDICES
                        or any(type(index) is not dict for index in part.values())):
                    raise unusable("not a feedcover corpus cache")
            return Corpus(kinds=kinds, **{name: envelope[name] for name in _SHARED})
    except OSError as exc:
        raise unusable(f"cannot read corpus cache: {exc.strerror}") from None
    except _UNPICKLE_ERRORS as exc:
        raise unusable(f"not a readable corpus cache ({exc})") from None


def _iso_seconds(text: str) -> int:
    """argparse type: unix seconds, or an ISO-8601 datetime (UTC if naive).

    A trailing ``Z`` reads as ``+00:00``, which ``fromisoformat`` accepts
    only from Python 3.11 on. Posts have integer times and the window is
    ``start <= t < end``, so a fractional second rounds up at either end.
    """
    try:
        return int(text)
    except ValueError:
        pass
    from datetime import datetime, timedelta, timezone
    try:
        dt = datetime.fromisoformat(text[:-1] + "+00:00" if text.endswith("Z") else text)
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


def _record(cls, args):
    """The NamedTuple ``cls`` of the options in ``args`` whose dests are its fields. With
    ``argument_default=argparse.SUPPRESS`` an option not given keeps its field's default."""
    return cls(**{name: value for name, value in vars(args).items() if name in cls._fields})


def cmd_ingest(args) -> list[str]:
    """Write the corpus cache of the ``IngestConfig`` of the options given."""
    corpus = load_corpus(args.posts, args.follows, _record(IngestConfig, args))
    path = _save_corpus(corpus, Path(args.out))
    parts = corpus.kinds
    return [
        f"corpus: {path}",
        f"users: {len(corpus.post_count)}",
        f"posts: {corpus.inflow(corpus.post_count)}",
        "user-meme pairs: "
        f"{sum(len(f) for part in parts.values() for f in part['first_post_by_user'].values())}",
        *(f"unique {kind}: {len(parts[kind]['posters_by_meme']) if kind in parts else 0}"
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
    return [{**keys, "stat": mean_stat, "x": "", "value": math.fsum(values) / len(values)}] + [
        {**keys, "stat": "hist", "x": i * HIST_BIN_WIDTH, "value": c}
        for i, c in enumerate(counts)
    ]


def _efficiency_rows(corpus, ctx, args) -> list[dict]:
    return [
        eff_mod.evaluate_ego(corpus, ctx, args.meme_kind, coverage=p,
                             alpha=args.alpha, beta=args.beta)
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
         **{key: math.fsum(r[key] for r in members) / len(members) for key in ratios}}
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
    n_stored = sum(map(len, stored.values()))
    rows, skipped = [], 0
    for ego in _select_egos(corpus, args):
        try:
            ctx = ego_context(corpus, ego, args.meme_kind, args.min_followees)
            orders = cover_mod._orders(corpus, ctx.memes)
            orders.update(stored.get(ego, {}))
            stored[ego] = orders
            ego_rows = row_fn(corpus, ctx, args)
        except FeedcoverError as exc:
            warn(f"skip ego {corpus.label(ego)}: {exc}")
            skipped += 1
            continue
        rows += [{"ego": ego, "ego_label": corpus.label(ego), **r} for r in ego_rows]
    if not rows:
        raise EmptyCorpus(f"no {args.command} rows produced")
    writer = ReportWriter(
        Path(args.out), args.format, not args.no_header_timestamp, args.seed
    )
    reports = {args.command: rows, **(summarize(rows, args) if summarize else {})}
    _replace(writer.write(name, report) for name, report in reports.items())
    # An order that raised is in neither, so it raises again next time.
    if identity and sum(map(len, stored.values())) > n_stored:
        _save_store(store, identity, stored)
    return [f"rows: {len(rows)}  egos skipped: {skipped}"]


def cmd_synth(args) -> list[str]:
    """Write the corpus files of the ``SynthSpec`` of the options given."""
    from . import synth as synth_mod
    spec = _record(synth_mod.SynthSpec, args)
    out = Path(args.out)
    if spec.archetype == "triadic_communities":
        events, follows, egos = synth_mod.generate_triadic_events(
            seed=spec.seed, window_days=spec.window_days
        )
        ego_note = f"{len(egos)} egos"
    else:
        events, follows, ego = synth_mod.generate_events(spec)
        ego_note = f"ego {ego}"
    out.mkdir(parents=True, exist_ok=True)
    synth_mod.write_corpus_files(events, follows, out / "posts.tsv", out / "follows.tsv")
    users, memes, _ = zip(*events)
    return [f"wrote {out / 'posts.tsv'} and {out / 'follows.tsv'} ({ego_note})",
            f"users: {len(set(users))}  memes: {len(set(memes))}"]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="corpus.pkl from `ingest`")
    p.add_argument("--meme-kind", default="hashtag", choices=MEME_KINDS)
    p.add_argument("--alpha", type=float, default=_COVER_DEFAULTS["alpha"])
    p.add_argument("--beta", type=float, default=_COVER_DEFAULTS["beta"])
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

    p = sub.add_parser("ingest", help="parse input files into a cached corpus",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--posts", required=True)
    p.add_argument("--follows", required=True)
    p.add_argument("--window-start", required=True, type=_iso_seconds,
                   help="ISO-8601 datetime or unix seconds")
    p.add_argument("--window-end", required=True, type=_iso_seconds)
    p.add_argument("--pre-extracted", action="store_true",
                   help="posts file already carries meme kind/key columns")
    p.add_argument("--no-activity-filter", action="store_false",
                   dest="require_pre_window_activity")
    p.add_argument("--news-domains", dest="news_domain_list")
    p.add_argument("--url-aliases", dest="url_alias_map")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ingest)

    for name, (help_text, _, _, options) in _ANALYSES.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=cmd_analysis)

    p = sub.add_parser("synth", help="generate synthetic corpus files",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--archetype", choices=ARCHETYPES + ("triadic_communities",),
                   help="triadic_communities reads only --seed and --window-days")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-users", type=int)
    p.add_argument("--n-memes", type=int)
    p.add_argument("--window-days", type=int)
    p.add_argument("--pareto-exponent", type=float)
    p.add_argument("--ego-followees", type=int, dest="ego_followee_count")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)
    return parser


def main(argv=None) -> int:
    """Run one command; return its exit code. The cyclic garbage collector
    is paused while the command runs: a collection finds 0 unreachable
    objects after an analysis stage and a few hundred after ingest, yet a
    running collector rescans the corpus as it is built or loaded. Its
    previous state comes back on return, so a library or test process
    that calls ``main`` repeatedly still collects what each call leaves."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if "alpha" in vars(args):
        args.coverage = getattr(args, "coverage", None) or [_COVER_DEFAULTS["coverage"]]
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
        if args.egos is not None and args.sample_n is not None:
            parser.error("--egos and --sample-n exclude each other")
    enabled = gc.isenabled()
    gc.disable()
    try:
        lines = args.fn(args)
    except OSError as exc:
        warn(f"error: cannot write {exc.filename or args.out}: {exc.strerror}")
        return 2
    except FeedcoverError as exc:
        warn(f"error: {exc}")
        return exc.exit_code
    finally:
        if enabled:
            gc.enable()
    try:
        print(*lines, sep="\n", flush=True)  # a failed write raises here under any buffering
    except OSError as exc:
        warn(f"error: cannot write standard output: {exc.strerror}")
        return 2
    return 0


def console_main(argv=None) -> int:
    """The ``feedcover`` console script and ``python -m feedcover.cli``:
    ``main`` in a process that exits when it returns. Freezing what is
    alive when ``main`` returns keeps the imported modules out of the
    collection at exit: after ingest it takes under 1 ms instead of 3-15 ms.
    Without a stdout (``pythonw``, or fd 1 closed), nothing is printed or
    flushed, and the command's own exit code stands."""
    # The collector stays paused until the freeze: once enabled after a
    # command, the first allocation would start a collection.
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
        if sys.stdout is not None:
            try:
                sys.stdout.flush()
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(console_main())
