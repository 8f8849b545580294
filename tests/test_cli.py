import argparse
import collections
import gc
import io
import os
import pickle
import pickletools
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feedcover
from feedcover import cli, errors
from feedcover.cli import main
from feedcover.cover import CoverSpec, joint_cover
from feedcover.efficiency import evaluate_ego
from feedcover.ingest import IngestConfig, ego_context
from feedcover.model import ARCHETYPES, KIND_INDICES
from feedcover.synth import SynthSpec, generate

from conftest import make_corpus, make_ctx

WINDOW = ["--window-start", "0", "--window-end", "604800"]


def run(argv, capsys=None):
    return main([str(a) for a in argv])


def read_tsv(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split("\t")
            continue
        rows.append(dict(zip(header, line.split("\t"))))
    return rows


@pytest.fixture
def redundant_dir(tmp_path):
    data = tmp_path / "data"
    assert run(["synth", "--archetype", "redundant_followees",
                "--ego-followees", "10", "--seed", "3", "--out", data]) == 0
    cache = tmp_path / "cache"
    assert run(["ingest", "--posts", data / "posts.tsv",
                "--follows", data / "follows.tsv", *WINDOW,
                "--pre-extracted", "--out", cache]) == 0
    return cache / "corpus.pkl"


def test_ingest_summary(tmp_path, capsys):
    posts = tmp_path / "posts.tsv"
    follows = tmp_path / "follows.tsv"
    posts.write_text(
        "a\t-5\twarm up\nb\t-5\twarm up\nc\t-5\twarm up\n"
        "a\t10\t#one\na\t20\t#two\nb\t30\t#one\nb\t40\tplain\nc\t50\t#three\n"
    )
    follows.write_text("a\tb\nb\tc\n")
    assert run(["ingest", "--posts", posts, "--follows", follows, *WINDOW,
                "--out", tmp_path / "cache"]) == 0
    out = capsys.readouterr().out
    assert "users: 3" in out
    assert "posts: 5" in out
    assert "unique hashtag: 3" in out


def test_ingest_malformed_line_exit_2(tmp_path, capsys):
    posts = tmp_path / "posts.tsv"
    posts.write_text("a\t-5\tw\n" + "a\t10\t#x\n" * 5 + "broken line\n")
    follows = tmp_path / "follows.tsv"
    follows.write_text("a\tb\n")
    code = run(["ingest", "--posts", posts, "--follows", follows, *WINDOW,
                "--out", tmp_path / "cache"])
    assert code == 2
    assert ":7:" in capsys.readouterr().err


def test_ingest_empty_window_exit_3(tmp_path, capsys):
    posts = tmp_path / "posts.tsv"
    posts.write_text("a\t-5\t#pre\n")
    follows = tmp_path / "follows.tsv"
    follows.write_text("a\tb\n")
    code = run(["ingest", "--posts", posts, "--follows", follows, *WINDOW,
                "--out", tmp_path / "cache"])
    assert code == 3
    assert "no post events" in capsys.readouterr().err


def test_ingest_iso_window_equals_unix_seconds(tmp_path):
    # The window is 1600000000 <= t < 1600086400 (2020-09-13T12:26:40Z
    # plus a day); the posts sit on and around both ends.
    posts = tmp_path / "posts.tsv"
    posts.write_text("a\t1599999999\t#pre\nb\t1599999999\t#pre\n"
                     "a\t1600000000\t#first\nb\t1600086399\t#last\n"
                     "a\t1600086400\t#after\nb\t1600090000\t#later\n")
    follows = tmp_path / "follows.tsv"
    follows.write_text("a\tb\n")
    windows = {
        "unix": ("1600000000", "1600086400"),
        "naive": ("2020-09-13T12:26:40", "2020-09-14T12:26:40"),
        "offset": ("2020-09-13T14:26:40+02:00", "2020-09-14T07:26:40-05:00"),
        "zulu": ("2020-09-13T12:26:40Z", "2020-09-14T12:26:40Z"),
    }
    caches = {}
    for name, (start, end) in windows.items():
        assert run(["ingest", "--posts", posts, "--follows", follows,
                    "--window-start", start, "--window-end", end,
                    "--out", tmp_path / name]) == 0
        caches[name] = (tmp_path / name / "corpus.pkl").read_bytes()
    assert caches["naive"] == caches["unix"] == caches["offset"] == caches["zulu"]
    kept = cli._load_cached(tmp_path / "unix" / "corpus.pkl").first_mention
    assert sorted(m[1] for m in kept) == ["first", "last"]


@pytest.mark.parametrize("start, end, kept", [
    ("2020-09-13T12:26:40.5", "1600001000", ["after"]),
    ("1599999500", "2020-09-13T12:26:40.5", ["on"]),
])
def test_iso_window_rounds_fractional_seconds_up(tmp_path, start, end, kept):
    # 2020-09-13T12:26:40.5Z lies half a second after the post at 1600000000.
    posts = tmp_path / "posts.tsv"
    posts.write_text("a\t1599999000\twarm up\na\t1600000000\t#on\na\t1600000001\t#after\n")
    follows = tmp_path / "follows.tsv"
    follows.write_text("b\ta\n")
    assert run(["ingest", "--posts", posts, "--follows", follows, "--window-start", start,
                "--window-end", end, "--out", tmp_path / "cache"]) == 0
    corpus = cli._load_cached(tmp_path / "cache" / "corpus.pkl")
    assert sorted(m[1] for m in corpus.first_mention) == kept


def test_e_delay_same_at_every_coverage(bipartite_corpus, tmp_path):
    assert run(["efficiency", "--corpus", bipartite_corpus, "--min-followees", "1",
                "--coverage", "0.5", "--coverage", "1.0", "--out", tmp_path / "rep"]) == 0
    e_delay = {}
    for row in read_tsv(tmp_path / "rep" / "efficiency.tsv"):
        e_delay.setdefault(row["ego"], []).append((row["coverage"], row["e_delay"]))
    assert len(e_delay) > 10
    for (low, low_delay), (full, full_delay) in e_delay.values():
        assert (low, full) == ("0.5", "1") and low_delay == full_delay != ""


def test_efficiency_redundant_archetype(redundant_dir, tmp_path):
    out = tmp_path / "rep"
    assert run(["efficiency", "--corpus", redundant_dir, "--egos", "0",
                "--min-followees", "1", "--out", out,
                "--no-header-timestamp"]) == 0
    rows = read_tsv(out / "efficiency.tsv")
    assert len(rows) == 1
    assert float(rows[0]["e_link"]) == 0.1
    assert float(rows[0]["coverage"]) == 1.0
    agg = read_tsv(out / "efficiency_aggregate.tsv")
    means = [r for r in agg if r["stat"] == "mean" and r["metric"] == "e_link"]
    assert float(means[0]["value"]) == 0.1


def test_efficiency_partial_coverage_rows(redundant_dir, tmp_path):
    out = tmp_path / "rep"
    assert run(["efficiency", "--corpus", redundant_dir, "--egos", "0",
                "--min-followees", "1", "--coverage", "0.5", "--coverage", "1.0",
                "--out", out, "--no-header-timestamp"]) == 0
    rows = read_tsv(out / "efficiency.tsv")
    assert [float(r["coverage"]) for r in rows] == [0.5, 1.0]
    # full-coverage row carries the cross-efficiency columns, partial does not
    assert rows[1]["el_uf"] != ""
    assert rows[0]["el_uf"] == ""


def test_optimize_beta_zero_matches_inflow_cover(redundant_dir, tmp_path):
    joint_out = tmp_path / "joint"
    inflow_out = tmp_path / "inflow"
    common = ["--corpus", redundant_dir, "--egos", "0", "--min-followees", "1",
              "--no-header-timestamp"]
    assert run(["cover", "--method", "joint", "--beta", "0", *common,
                "--out", joint_out]) == 0
    assert run(["cover", "--method", "inflow", *common,
                "--out", inflow_out]) == 0
    joint_rows = read_tsv(joint_out / "cover.tsv")
    inflow_rows = read_tsv(inflow_out / "cover.tsv")
    assert [r["user"] for r in joint_rows] == [r["user"] for r in inflow_rows]


def test_optimize_report(redundant_dir, tmp_path):
    out = tmp_path / "opt"
    assert run(["optimize", "--corpus", redundant_dir, "--egos", "0",
                "--min-followees", "1", "--out", out,
                "--no-header-timestamp"]) == 0
    rows = read_tsv(out / "optimize.tsv")
    assert len(rows) == 1
    for col in ("ratio_link", "ratio_inflow", "ratio_delay"):
        assert float(rows[0][col]) > 0
    bins = read_tsv(out / "optimize_bins.tsv")
    assert len(bins) == 1
    assert int(bins[0]["count"]) == 1


def _rows_or_error(row_fn, *args):
    """The rows as (column, value) lists in column order, or the error raised."""
    try:
        return [list(row.items()) for row in row_fn(*args)]
    except errors.FeedcoverError as exc:
        return f"{type(exc).__name__}: {exc}"


def _projected_report(corpus, ctx, args):
    """``optimize``'s row as a projection of the full-coverage report."""
    report = evaluate_ego(corpus, ctx, args.meme_kind, coverage=1.0,
                          alpha=args.alpha, beta=args.beta)
    spec = CoverSpec(universe=ctx.memes, alpha=args.alpha, beta=args.beta)
    selected = joint_cover(corpus, spec).selected
    assert len(selected) == report["joint_set_size"]
    return [{
        "meme_kind": report["meme_kind"],
        "n_followees": report["n_followees"],
        "selected": ",".join(corpus.label(v) for v in selected),
        "el_ua": report["el_ua"],
        "ef_ua": report["ef_ua"],
        "et_ua": report["et_ua"],
        "ratio_link": report["ratio_link_by_joint_opt"],
        "ratio_inflow": report["ratio_inflow_by_joint_opt"],
        "ratio_delay": report["ratio_delay_by_joint_opt"],
    }]


@settings(max_examples=60, deadline=None)
@given(
    st.builds(SynthSpec, seed=st.integers(0, 10**6), n_users=st.integers(2, 16),
              n_memes=st.integers(3, 14), window_days=st.just(7),
              archetype=st.sampled_from(ARCHETYPES), pareto_exponent=st.just(1.5),
              ego_followee_count=st.integers(1, 3)),
    # alpha 400 overflows the joint weight of any user with 6 or more posts.
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 400.0]),
    st.sampled_from([0.0, 0.5, 1.0]),
)
def test_optimize_rows_project_the_full_coverage_report(spec, alpha, beta):
    corpus, _ = generate(spec)
    # Labels that differ from the ids, as an ingested corpus may have.
    corpus = corpus._replace(user_labels={v: f"u{v}" for v in corpus.post_count})
    args = argparse.Namespace(meme_kind="hashtag", alpha=alpha, beta=beta)
    for ego in corpus.follows:
        try:
            ctx = ego_context(corpus, ego, "hashtag")
        except errors.FeedcoverError:
            continue
        # Each side gets a fresh copy, so neither reads covers the other memoised.
        assert (_rows_or_error(cli._optimize_rows, corpus._replace(), ctx, args)
                == _rows_or_error(_projected_report, corpus._replace(), ctx, args))


def test_optimize_rows_fail_where_the_full_report_fails_first():
    # The ego's one followee has no posts in the window, and user 2, whom
    # it does not follow, has too many for a joint weight at alpha 400.
    # The full report stops at the in-flow efficiency, before the joint
    # cover, and so must the optimize row.
    corpus = make_corpus({1: [0], 2: [0]}, inflow={1: 0, 2: 10})
    ctx = make_ctx(corpus, 0, [1])
    args = argparse.Namespace(meme_kind="hashtag", alpha=400.0, beta=0.5)
    expected = "UndefinedMeasure: followees posted nothing in the window"
    assert _rows_or_error(_projected_report, corpus._replace(), ctx, args) == expected
    assert _rows_or_error(cli._optimize_rows, corpus._replace(), ctx, args) == expected


def test_egonet_star_fixture(redundant_dir, tmp_path):
    # redundant archetype has no member-member follow edges: a pure star
    out = tmp_path / "ego"
    assert run(["egonet", "--corpus", redundant_dir, "--egos", "0",
                "--min-followees", "1", "--out", out,
                "--no-header-timestamp"]) == 0
    rows = read_tsv(out / "egonet.tsv")
    assert len(rows) == 4
    for row in rows:
        assert float(row["lcc_original"]) == 0.0
        assert 0.0 <= float(row["overlap"]) <= 1.0


def test_egonet_keeps_an_ego_whose_cover_is_the_ego_alone(tmp_path, capsys):
    # Ego e posts memes a and b first, so every cover of its universe is e
    # alone: no member besides the ego, so no LCC, but the ego keeps its rows.
    posts, follows = tmp_path / "posts.tsv", tmp_path / "follows.tsv"
    posts.write_text("".join(
        f"{user}\t{t}\thashtag\t{key}\n"
        for user, t, key in [("e", -10, "w"), ("e", 1, "a"), ("e", 1, "b"),
                             ("A", -10, "w"), ("A", 2, "a"),
                             ("B", -10, "w"), ("B", 2, "b")]
    ))
    follows.write_text("e\tA\ne\tB\nA\tB\n")
    assert run(["ingest", "--posts", posts, "--follows", follows, "--window-start", "0",
                "--window-end", "100", "--pre-extracted", "--out", tmp_path / "cache"]) == 0
    out = tmp_path / "ego"
    capsys.readouterr()
    assert run(["egonet", "--corpus", tmp_path / "cache" / "corpus.pkl", "--egos", "e",
                "--min-followees", "1", "--out", out, "--no-header-timestamp"]) == 0
    assert capsys.readouterr().out == "rows: 4  egos skipped: 0\n"
    rows = read_tsv(out / "egonet.tsv")
    assert [(r["optimization"], r["lcc_original"], r["lcc_optimized"], r["overlap"])
            for r in rows] == [(method, "1", "", "0")
                               for method in ("link", "inflow", "delay", "joint")]


def test_reports_byte_identical_across_reruns(redundant_dir, tmp_path):
    outputs = {}
    for tag in ("one", "two"):
        out = tmp_path / tag
        for cmd in ("efficiency", "optimize", "egonet"):
            assert run([cmd, "--corpus", redundant_dir, "--egos", "0",
                        "--min-followees", "1", "--out", out,
                        "--no-header-timestamp"]) == 0
        outputs[tag] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        }
    assert outputs["one"] == outputs["two"]


def test_jsonl_format(redundant_dir, tmp_path):
    out = tmp_path / "rep"
    assert run(["efficiency", "--corpus", redundant_dir, "--egos", "0",
                "--min-followees", "1", "--format", "jsonl", "--out", out,
                "--no-header-timestamp"]) == 0
    assert (out / "efficiency.jsonl").exists()


def test_console_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "feedcover.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ingest" in proc.stdout


# "\u00b2" is a superscript two: a digit to str.isdigit, but not to int.
# An empty --egos names no user; it does not mean every ego.
@pytest.mark.parametrize("egos, code", [("a,b", 0), ("0,1", 0), ("0,7", 3), ("0,\u00b2", 3),
                                        ("", 3), (",", 3)])
def test_ego_without_followees_is_skipped_by_label_or_id(tmp_path, capsys, egos, code):
    # b (id 1) follows only itself, and self-follow edges are dropped at
    # ingest, so b is a user of the corpus but not a key of its follows.
    posts = tmp_path / "posts.tsv"
    posts.write_text("a\t-5\twarm up\nb\t-5\twarm up\nc\t-5\twarm up\n"
                     "a\t10\t#x\nb\t20\t#y\nc\t30\t#x\n")
    follows = tmp_path / "follows.tsv"
    follows.write_text("a\tc\nb\tb\n")
    assert run(["ingest", "--posts", posts, "--follows", follows, *WINDOW,
                "--out", tmp_path / "cache"]) == 0
    assert run(["efficiency", "--corpus", tmp_path / "cache" / "corpus.pkl",
                "--egos", egos, "--min-followees", "1", "--out", tmp_path / "rep"]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err.count("skip ego b: 0 followees posting hashtag (need 1)\n") == 1
        assert [r["ego_label"] for r in read_tsv(tmp_path / "rep" / "efficiency.tsv")] == ["a"]
    else:
        assert f"unknown ego '{egos.split(',')[-1]}'" in err
        assert "Traceback" not in err


def test_synth_triadic_honours_window_days(tmp_path):
    days = {}
    for window_days in ("7", "14"):
        out = tmp_path / window_days
        assert run(["synth", "--archetype", "triadic_communities", "--seed", "2",
                    "--window-days", window_days, "--out", out]) == 0
        days[window_days] = max(
            int(line.split("\t")[1]) // 86400
            for line in (out / "posts.tsv").read_text().splitlines()
        )
    assert days["7"] < 7 and 7 <= days["14"] < 14


def _subparser(name):
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


@pytest.mark.parametrize("command, record", [("ingest", IngestConfig), ("synth", SynthSpec)])
def test_each_record_field_is_the_dest_of_one_option(command, record):
    dests = collections.Counter(a.dest for a in _subparser(command)._actions)
    assert {field: dests[field] for field in record._fields} == dict.fromkeys(record._fields, 1)


def test_records_of_no_options_are_the_record_defaults():
    args = cli.build_parser().parse_args(["synth", "--out", "x"])
    assert cli._record(SynthSpec, args) == SynthSpec()
    args = cli.build_parser().parse_args(["ingest", "--posts", "p", "--follows", "f",
                                          "--window-start", "5", "--window-end", "9",
                                          "--out", "x"])
    assert cli._record(IngestConfig, args) == IngestConfig(5, 9)


# The option defaults and the field-by-field constructors that the ingest and
# synth commands used before they built their records by dest: the reference.
_SYNTH_OPTION_DEFAULTS = {"archetype": "random_bipartite", "seed": 0, "n_users": 20,
                          "n_memes": 30, "window_days": 7, "pareto_exponent": 1.5,
                          "ego_followees": 5}
_INGEST_OPTION_DEFAULTS = {"pre_extracted": False, "no_activity_filter": False,
                           "news_domains": None, "url_aliases": None}


def _reference_synth_spec(args):
    return SynthSpec(
        seed=args.seed,
        n_users=args.n_users,
        n_memes=args.n_memes,
        window_days=args.window_days,
        archetype=args.archetype,
        pareto_exponent=args.pareto_exponent,
        ego_followee_count=args.ego_followees,
    )


def _reference_ingest_config(args):
    return IngestConfig(
        window_start=args.window_start,
        window_end=args.window_end,
        require_pre_window_activity=not args.no_activity_filter,
        news_domain_list=args.news_domains,
        url_alias_map=args.url_aliases,
        pre_extracted=args.pre_extracted,
    )


def _given(options):
    """``{flag: value}`` (True for a bare flag) as argv, and as the dests the
    options had before: ``--ego-followees`` was ``ego_followees``."""
    argv = [flag if value is True else f"{flag}={value}" for flag, value in options.items()]
    return argv, {flag[2:].replace("-", "_"): value for flag, value in options.items()}


_ints = st.integers(-10**6, 10**6)


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({}, optional={
    "--archetype": st.sampled_from(ARCHETYPES + ("triadic_communities",)),
    "--seed": _ints, "--n-users": _ints, "--n-memes": _ints, "--window-days": _ints,
    "--pareto-exponent": st.floats(allow_nan=False), "--ego-followees": _ints,
}))
def test_synth_record_matches_the_field_by_field_spec(options):
    argv, given = _given(options)
    args = cli.build_parser().parse_args(["synth", *argv, "--out", "x"])
    expected = _reference_synth_spec(argparse.Namespace(**{**_SYNTH_OPTION_DEFAULTS, **given}))
    assert cli._record(SynthSpec, args) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**9, 10**9), st.integers(1, 10**9), st.fixed_dictionaries({}, optional={
    "--pre-extracted": st.just(True), "--no-activity-filter": st.just(True),
    "--news-domains": st.text(max_size=8), "--url-aliases": st.text(max_size=8),
}))
def test_ingest_record_matches_the_field_by_field_config(start, length, options):
    argv, given = _given(options)
    window = {"window_start": start, "window_end": start + length}
    args = cli.build_parser().parse_args(
        ["ingest", "--posts", "p", "--follows", "f", *argv, f"--window-start={start}",
         f"--window-end={start + length}", "--out", "x"])
    expected = _reference_ingest_config(
        argparse.Namespace(**{**_INGEST_OPTION_DEFAULTS, **window, **given}))
    assert cli._record(IngestConfig, args) == expected


@pytest.fixture
def bipartite_corpus(tmp_path):
    data = tmp_path / "data"
    assert run(["synth", "--archetype", "random_bipartite", "--seed", "4",
                "--n-users", "30", "--n-memes", "20", "--out", data]) == 0
    assert run(["ingest", "--posts", data / "posts.tsv", "--follows", data / "follows.tsv",
                *WINDOW, "--pre-extracted", "--out", tmp_path / "cache"]) == 0
    return tmp_path / "cache" / "corpus.pkl"


def _egos_of_run(corpus_path, out, *args):
    assert run(["cover", "--corpus", corpus_path, "--min-followees", "1",
                "--out", out, *args]) == 0
    return sorted({int(r["ego"]) for r in read_tsv(out / "cover.tsv")})


def test_default_egos_are_every_follower(bipartite_corpus, tmp_path, capsys):
    follows = cli._load_cached(bipartite_corpus).follows
    assert len(follows) > 10
    assert _egos_of_run(bipartite_corpus, tmp_path / "all") == sorted(follows)
    assert "skip ego" not in capsys.readouterr().err
    kept = _egos_of_run(bipartite_corpus, tmp_path / "big", "--sample-n", "1000")
    assert kept == sorted(follows)


def test_sample_n_is_seeded(bipartite_corpus, tmp_path):
    runs = [
        _egos_of_run(bipartite_corpus, tmp_path / tag, "--sample-n", "5", "--seed", "3")
        for tag in ("one", "two")
    ]
    follows = cli._load_cached(bipartite_corpus).follows
    assert runs[0] == runs[1]
    assert len(runs[0]) == 5 and set(runs[0]) <= set(follows)


def test_every_ego_skipped_exit_3(bipartite_corpus, tmp_path, capsys):
    code = run(["efficiency", "--corpus", bipartite_corpus, "--min-followees", "1000",
                "--out", tmp_path / "rep"])
    err = capsys.readouterr().err
    assert code == 3
    assert "no efficiency rows produced" in err
    assert err.count("skip ego ") == len(cli._load_cached(bipartite_corpus).follows)
    assert not (tmp_path / "rep").exists()


def _efficiency_on(corpus_path, tmp_path):
    return run(["efficiency", "--corpus", corpus_path, "--egos", "0",
                "--min-followees", "1", "--out", tmp_path / "rep"])


class Payload:
    def __reduce__(self):
        return (print, ("unpickled code ran",))


@pytest.mark.parametrize("content", [
    None,                                        # missing file
    b"\x00garbage, not a pickle",               # corrupt bytes
    pickle.dumps({"just": "a dict"}),            # pickle, not an envelope
    pickle.dumps(Payload()),                     # pickle naming a foreign global
])
def test_unusable_cache_exit_2(tmp_path, capsys, content):
    path = tmp_path / "corpus.pkl"
    if content is not None:
        path.write_bytes(content)
    assert _efficiency_on(path, tmp_path) == 2
    captured = capsys.readouterr()
    assert "re-run `feedcover ingest`" in captured.err
    assert "unpickled code ran" not in captured.out


def test_stale_cache_exit_2(redundant_dir, tmp_path, capsys):
    with open(redundant_dir, "rb") as fh:
        envelope = pickle.load(fh)
    envelope["format"] = cli.CACHE_FORMAT - 1
    stale = tmp_path / "stale.pkl"
    stale.write_bytes(pickle.dumps(envelope))
    assert _efficiency_on(stale, tmp_path) == 2
    assert "re-run `feedcover ingest`" in capsys.readouterr().err


# What a cache that pickles a whole Corpus reports: no current cache holds one.
_REFUSED_CORPUS = ("not a readable corpus cache (refusing global feedcover.model.Corpus); "
                   "re-run `feedcover ingest`")


def test_bare_corpus_pickle_exit_2(redundant_dir, tmp_path, capsys):
    bare = tmp_path / "bare.pkl"
    bare.write_bytes(pickle.dumps(cli._load_cached(redundant_dir)))
    assert _efficiency_on(bare, tmp_path) == 2
    assert _REFUSED_CORPUS in capsys.readouterr().err


def test_format_5_cache_exit_2_as_stale(redundant_dir, tmp_path, capsys):
    # Format 5 pickled the whole Corpus inside the envelope.
    old = tmp_path / "old.pkl"
    old.write_bytes(pickle.dumps({"format": 5, "version": feedcover.__version__,
                                  "corpus": cli._load_cached(redundant_dir)}))
    assert _efficiency_on(old, tmp_path) == 2
    assert _REFUSED_CORPUS in capsys.readouterr().err


def test_format_5_cache_of_the_old_corpus_shape_exit_2_as_stale(tmp_path, capsys,
                                                                 monkeypatch):
    # Format 5 pickled a Corpus whose fields were instance attributes: the
    # pickle names the class, passes no constructor arguments and sets the
    # fields as its state. A stand-in module of the same name length writes
    # those bytes without the old class.
    old_model = type(sys)("feedcover_model")
    old_model.Corpus = type("Corpus", (), {"__module__": old_model.__name__})
    monkeypatch.setitem(sys.modules, old_model.__name__, old_model)
    corpus = old_model.Corpus()
    corpus.__dict__.update(post_count={0: 1}, follows={}, user_labels={0: "a"})
    data = pickle.dumps({"format": 5, "version": feedcover.__version__, "corpus": corpus})
    old = tmp_path / "old.pkl"
    old.write_bytes(data.replace(b"feedcover_model", b"feedcover.model"))
    assert _efficiency_on(old, tmp_path) == 2
    assert _REFUSED_CORPUS in capsys.readouterr().err


def test_format_6_cache_exit_2_as_stale(redundant_dir, tmp_path, capsys, monkeypatch):
    # Format 6 had today's layout with frozensets of posters and followees.
    corpus = cli._load_cached(redundant_dir)

    def as_sets(ids_by_key):
        return {key: frozenset(ids) for key, ids in ids_by_key.items()}

    old = corpus._replace(
        follows=as_sets(corpus.follows),
        kinds={kind: {**part, "posters_by_meme": as_sets(part["posters_by_meme"])}
               for kind, part in corpus.kinds.items()},
    )
    monkeypatch.setattr(cli, "CACHE_FORMAT", 6)
    path = cli._save_corpus(old, tmp_path / "old")
    monkeypatch.undo()
    assert _efficiency_on(path, tmp_path) == 2
    err = capsys.readouterr().err
    assert f"cache format 6 from feedcover {feedcover.__version__}" in err
    assert f"reads format {cli.CACHE_FORMAT}; re-run `feedcover ingest`" in err


def test_format_9_cache_of_id_ordered_posters_exit_2(redundant_dir, tmp_path, capsys,
                                                      monkeypatch):
    # Format 9 held each meme's posters sorted by id. The delay cover reads
    # the first poster as the earliest, so such a cache would give wrong
    # picks with no error: it is refused as stale.
    corpus = cli._load_cached(redundant_dir)
    old = corpus._replace(kinds={
        kind: {**part, "posters_by_meme": {meme: tuple(sorted(ids)) for meme, ids
                                           in part["posters_by_meme"].items()}}
        for kind, part in corpus.kinds.items()})
    monkeypatch.setattr(cli, "CACHE_FORMAT", 9)
    path = cli._save_corpus(old, tmp_path / "old")
    monkeypatch.undo()
    assert _efficiency_on(path, tmp_path) == 2
    version = feedcover.__version__
    assert capsys.readouterr().err == (
        f"error: {path}: cache format 9 from feedcover {version}; this feedcover {version} "
        f"reads format {cli.CACHE_FORMAT}; re-run `feedcover ingest`\n")


@pytest.mark.parametrize("cache_format", [7, None], ids=["format_7", "current_format"])
def test_cache_of_meme_records_exit_2(redundant_dir, tmp_path, capsys, monkeypatch,
                                      cache_format):
    # Format 7 pickled each meme as a feedcover.model.MemeId record. A
    # stand-in module of the same name length writes those bytes without
    # the old class, in format 7 and, as a foreign cache would, in today's.
    old_model = type(sys)("feedcover_model")
    old_model.MemeId = collections.namedtuple("MemeId", "kind key",
                                              module=old_model.__name__)
    monkeypatch.setitem(sys.modules, old_model.__name__, old_model)

    def as_records(by_meme):
        return {old_model.MemeId(*meme): value for meme, value in by_meme.items()}

    corpus = cli._load_cached(redundant_dir)
    old = corpus._replace(kinds={
        kind: {
            "posters_by_meme": as_records(part["posters_by_meme"]),
            "first_mention": as_records(part["first_mention"]),
            "first_post_by_user": {u: as_records(first)
                                   for u, first in part["first_post_by_user"].items()}}
        for kind, part in corpus.kinds.items()})
    if cache_format is not None:
        monkeypatch.setattr(cli, "CACHE_FORMAT", cache_format)
    path = cli._save_corpus(old, tmp_path / "old")
    monkeypatch.undo()
    path.write_bytes(path.read_bytes().replace(b"feedcover_model", b"feedcover.model"))
    assert _efficiency_on(path, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.endswith("; re-run `feedcover ingest`\n")
    assert "Traceback" not in err
    if cache_format is None:
        assert "(refusing global feedcover.model.MemeId)" in err
    else:
        assert f"cache format 7 from feedcover {feedcover.__version__}" in err


@pytest.mark.parametrize("cache_format", [8, None], ids=["format_8", "current_format"])
def test_cache_of_kind_index_records_exit_2(redundant_dir, tmp_path, capsys, monkeypatch,
                                            cache_format):
    # Format 8 pickled each kind's part as a feedcover.model.KindIndex
    # record. A stand-in module of the same name length writes those bytes
    # without the old class, in format 8 and, as a foreign cache would, in
    # today's.
    old_model = type(sys)("feedcover_model")
    old_model.KindIndex = collections.namedtuple("KindIndex", KIND_INDICES,
                                                 module=old_model.__name__)
    monkeypatch.setitem(sys.modules, old_model.__name__, old_model)
    corpus = cli._load_cached(redundant_dir)
    old = corpus._replace(kinds={kind: old_model.KindIndex(**part)
                                 for kind, part in corpus.kinds.items()})
    if cache_format is not None:
        monkeypatch.setattr(cli, "CACHE_FORMAT", cache_format)
    path = cli._save_corpus(old, tmp_path / "old")
    monkeypatch.undo()
    path.write_bytes(path.read_bytes().replace(b"feedcover_model", b"feedcover.model"))
    assert _efficiency_on(path, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.endswith("; re-run `feedcover ingest`\n")
    assert "Traceback" not in err
    if cache_format is None:
        assert "(refusing global feedcover.model.KindIndex)" in err
    else:
        assert f"cache format 8 from feedcover {feedcover.__version__}" in err


@pytest.mark.parametrize("reshape", [
    lambda part: tuple(part.values()),
    lambda part: {name: part[name] for name in KIND_INDICES if name != "first_mention"},
], ids=["tuple", "missing_key"])
def test_part_not_a_dict_of_the_kind_indices_exit_2(redundant_dir, tmp_path, capsys, reshape):
    corpus = cli._load_cached(redundant_dir)
    old = corpus._replace(kinds={kind: reshape(part) for kind, part in corpus.kinds.items()})
    path = cli._save_corpus(old, tmp_path / "old")
    assert _efficiency_on(path, tmp_path) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: not a feedcover corpus cache; re-run `feedcover ingest`\n"


@pytest.mark.parametrize("fail_at", [1, 2], ids=["envelope", "kind_part"])
def test_failed_cache_write_keeps_the_previous_cache(redundant_dir, tmp_path, capsys,
                                                      monkeypatch, fail_at):
    # The cache is written beside corpus.pkl and moved over it once whole,
    # so a write that fails leaves the previous cache and no other file.
    cache = redundant_dir.parent
    previous = redundant_dir.read_bytes()
    calls = []
    dump = pickle.dump

    def fail(obj, fh, *args, **kwargs):
        calls.append(obj)
        dump(obj, fh, *args, **kwargs)
        if len(calls) == fail_at:
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(pickle, "dump", fail)
    data = tmp_path / "data"
    code = run(["ingest", "--posts", data / "posts.tsv", "--follows", data / "follows.tsv",
                *WINDOW, "--pre-extracted", "--out", cache])
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write {cache}: No space left on device\n"
    assert redundant_dir.read_bytes() == previous
    assert [p.name for p in cache.iterdir()] == ["corpus.pkl"]


def test_failed_report_write_keeps_the_previous_report(redundant_dir, tmp_path, capsys,
                                                       monkeypatch):
    # A report is written beside its file and moved over it once whole, so a
    # rerun whose write fails (here after half the bytes, as on a full disk)
    # leaves the previous reports and no temporary file.
    rep = tmp_path / "rep"
    argv = ["efficiency", "--corpus", redundant_dir, "--egos", "0", "--min-followees", "1",
            "--no-header-timestamp", "--out", rep]
    assert run(argv) == 0
    previous = {p.name: p.read_bytes() for p in rep.iterdir()}
    capsys.readouterr()

    class FullDisk(io.BufferedWriter):
        def write(self, data):
            super().write(data[:len(data) // 2])
            self.flush()
            raise OSError(28, "No space left on device")

    def full_disk_open(file, mode="r", *args, **kwargs):
        if Path(file).parent == rep:
            return FullDisk(io.FileIO(file, "w"))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
    code = run([*argv, "--coverage", "0.5"])
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write {rep}: No space left on device\n"
    assert {p.name: p.read_bytes() for p in rep.iterdir()} == previous


def test_failed_second_report_write_keeps_every_previous_report(redundant_dir, tmp_path,
                                                                capsys, monkeypatch):
    # The reports of a run replace the previous ones as a set: each is written
    # beside its file first, and none is moved over its file until all are
    # written. Here only the second report's write fails, so the new first
    # report must not replace the previous one either.
    rep = tmp_path / "rep"
    argv = ["efficiency", "--corpus", redundant_dir, "--egos", "0", "--min-followees", "1",
            "--no-header-timestamp", "--out", rep]
    assert run(argv) == 0
    previous = {p.name: p.read_bytes() for p in rep.iterdir()}
    assert sorted(previous) == ["efficiency.tsv", "efficiency_aggregate.tsv"]
    capsys.readouterr()

    def second_report_fails(file, mode="r", *args, **kwargs):
        if Path(file).name.startswith("efficiency_aggregate.tsv"):
            raise OSError(28, "No space left on device")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", second_report_fails, raising=False)
    code = run([*argv, "--coverage", "0.5"])
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write {rep}: No space left on device\n"
    assert {p.name: p.read_bytes() for p in rep.iterdir()} == previous
    assert run([*argv, "--coverage", "0.5"]) == 0
    assert (rep / "efficiency.tsv").read_bytes() != previous["efficiency.tsv"]


def test_failed_report_move_names_the_report_and_leaves_no_new_file(redundant_dir, tmp_path,
                                                                     capsys):
    # A directory where the second report belongs: both reports are written,
    # the move over it fails, and the error names the report, not its new file.
    rep = tmp_path / "rep"
    (rep / "efficiency_aggregate.tsv").mkdir(parents=True)
    code = run(["efficiency", "--corpus", redundant_dir, "--egos", "0", "--min-followees", "1",
                "--out", rep])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {rep / 'efficiency_aggregate.tsv'}: Is a directory\n")
    assert sorted(p.name for p in rep.iterdir()) == ["efficiency.tsv", "efficiency_aggregate.tsv"]


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exit_2_naming_standard_output(redundant_dir, tmp_path, unbuffered):
    # Standard output is a pipe whose read end is closed. Buffered, the
    # write fails only at a flush; unbuffered, in print. Either way the
    # error names standard output, not --out, and the interpreter's own
    # last flush adds no "Exception ignored" line and no exit code 120.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "feedcover.cli", "efficiency", "--corpus", str(redundant_dir),
             "--egos", "0", "--min-followees", "1", "--out", str(tmp_path / "rep")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write standard output: Broken pipe\n"
    assert (tmp_path / "rep" / "efficiency.tsv").exists()


@pytest.fixture
def mixed_cache(tmp_path):
    """A cache of three meme kinds, in which ego e follows posters of each."""
    posts, follows = tmp_path / "posts.tsv", tmp_path / "follows.tsv"
    posts.write_text("".join(
        f"{user}\t{t}\t{kind}\t{key}\n"
        for user, t, kind, key in [
            ("a", 10, "hashtag", "x"), ("b", 20, "hashtag", "x"), ("b", 30, "hashtag", "y"),
            ("a", 40, "news_domain", "cnn.com"), ("b", 50, "url", "cnn.com/1"),
            ("a", 60, "url", "cnn.com/2"), ("e", 70, "hashtag", "z"),
        ]
    ))
    follows.write_text("e\ta\ne\tb\n")
    assert run(["ingest", "--posts", posts, "--follows", follows, *WINDOW, "--pre-extracted",
                "--no-activity-filter", "--out", tmp_path / "cache"]) == 0
    return tmp_path / "cache" / "corpus.pkl"


def _part_spans(path):
    """Byte range of each kind's part, from the envelope and the size prefixes."""
    spans = {}
    with open(path, "rb") as fh:
        kinds = pickle.load(fh)["kinds"]
        for kind in kinds:
            size = int.from_bytes(fh.read(8), "little")
            spans[kind] = (fh.tell(), fh.tell() + size)
            fh.seek(size, 1)
    return spans


def _globals_named(data: bytes) -> set[tuple[str, str]]:
    """The ``(module, name)`` of every GLOBAL and STACK_GLOBAL opcode of one
    pickle, read without unpickling it. ``pushed`` holds what each opcode
    pushed: a string's value, a memo fetch's memoized value, else None."""
    found, memo, pushed = set(), {}, []
    for op, arg, _ in pickletools.genops(data):
        if op.name == "GLOBAL":
            found.add(tuple(arg.split(" ")))
        elif op.name == "STACK_GLOBAL":
            found.add((pushed[-2], pushed[-1]))
        elif op.name == "MEMOIZE":
            memo[len(memo)] = pushed[-1]
        elif op.name in ("PUT", "BINPUT", "LONG_BINPUT"):
            memo[arg] = pushed[-1]
        elif op.name in ("GET", "BINGET", "LONG_BINGET"):
            pushed.append(memo[arg])
        elif op.name not in ("PROTO", "FRAME"):
            pushed.append(arg if isinstance(arg, str) else None)
    return found


def test_cache_names_no_class(mixed_cache):
    # A meme is a plain (kind, key) tuple and a part a plain dict:
    # unpickling the cache calls no Python-level constructor.
    data = mixed_cache.read_bytes()
    spans = _part_spans(mixed_cache)
    assert _globals_named(data[:spans["hashtag"][0] - 8]) == set()  # the envelope
    for start, end in spans.values():
        assert _globals_named(data[start:end]) == set()


def _kind_efficiency(path, tmp_path, kind):
    return run(["efficiency", "--corpus", path, "--egos", "e", "--meme-kind", kind,
                "--min-followees", "1", "--no-header-timestamp", "--out", tmp_path / kind])


@pytest.mark.parametrize("damage", ["truncated", "corrupt", "size"])
def test_damaged_kind_part_exit_2(mixed_cache, tmp_path, capsys, damage):
    data = mixed_cache.read_bytes()
    spans = _part_spans(mixed_cache)
    assert list(spans) == ["hashtag", "news_domain", "url"]
    start, end = spans["url"]
    middle = (start + end) // 2
    if damage == "truncated":
        data = data[:middle]
    elif damage == "corrupt":
        data = data[:middle] + bytes(8) + data[middle + 8:]
    else:  # news_domain's size prefix points past the end of the file
        prefix = spans["news_domain"][0] - 8
        data = data[:prefix] + (2 ** 40).to_bytes(8, "little") + data[prefix + 8:]
    damaged = tmp_path / "damaged.pkl"
    damaged.write_bytes(data)
    assert _kind_efficiency(damaged, tmp_path, "url") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {damaged}: not a readable corpus cache (")
    assert err.endswith("; re-run `feedcover ingest`\n")
    # The parts before url are intact and are all that a hashtag run reads.
    assert _kind_efficiency(damaged, tmp_path, "hashtag") == 0


@pytest.mark.parametrize("changes", [
    {"kinds": {"hashtag": {"posters_by_meme": 1, "first_mention": 2, "first_post_by_user": 3}}},
    {"follows": 5},
], ids=["part_indices", "shared_field"])
def test_cache_field_not_a_dict_exit_2(mixed_cache, tmp_path, capsys, changes):
    # The right keys with values of the wrong type are refused at load,
    # not met by an analysis as a TypeError.
    path = cli._save_corpus(cli._load_cached(mixed_cache)._replace(**changes), tmp_path / "bad")
    assert _kind_efficiency(path, tmp_path, "hashtag") == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: not a feedcover corpus cache; re-run `feedcover ingest`\n"


def test_kind_without_memes_in_cache(redundant_dir, tmp_path, capsys):
    # redundant_followees holds hashtags only: every ego is skipped.
    assert list(_part_spans(redundant_dir)) == ["hashtag"]
    code = run(["efficiency", "--corpus", redundant_dir, "--meme-kind", "youtube_video",
                "--min-followees", "1", "--out", tmp_path / "rep"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("skip ego 0: 0 followees posting youtube_video (need 1)\n"
                            "error: no efficiency rows produced\n")


@pytest.mark.parametrize("args", [
    ["--beta", "-0.5"], ["--alpha", "nan"], ["--alpha", "inf"],
    ["--coverage", "0"], ["--coverage", "1.5"], ["--coverage", "1.0", "--coverage", "-1"],
])
def test_invalid_parameters_rejected_at_parse_time(redundant_dir, tmp_path, capsys, args):
    # --coverage goes to efficiency: optimize does not take it at all.
    command = "efficiency" if "--coverage" in args else "optimize"
    with pytest.raises(SystemExit) as exc:
        run([command, "--corpus", redundant_dir, "--egos", "0",
             "--min-followees", "1", "--out", tmp_path / "rep", *args])
    assert exc.value.code == 2
    assert not (tmp_path / "rep").exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case, expect", [
    ("missing_posts", "missing.tsv"),
    ("missing_news_domains", "missing.txt"),
    ("non_utf8_posts", "posts.tsv:2"),
    ("bad_window_start", "--window-start"),
    ("negative_sample_n", "--sample-n"),
    ("superscript_sample_n", "'\u00b2' is not an integer >= 1"),
    ("negative_min_followees", "--min-followees: '-1' is not an integer >= 0"),
    ("egos_with_sample_n", "--egos and --sample-n exclude each other"),
    ("synth_zero_users", "all counts must be >= 1"),
    ("synth_shadow_few_memes", "superuser_shadow needs n_memes"),
    ("ingest_out_is_file", "follows.tsv: File exists"),
    ("efficiency_out_is_file", "posts.tsv: File exists"),
    ("synth_out_is_file", "posts.tsv: File exists"),
    ("delay_partial_coverage", "--method delay"),
    ("optimize_coverage", "unrecognized arguments: --coverage"),
    ("egonet_coverage", "unrecognized arguments: --coverage"),
    ("cover_repeated_coverage", "cover takes one --coverage"),
    ("empty_window", "window [0, 0) is empty"),
    ("empty_user_id", "posts.tsv:2: empty user id"),
    ("inverted_window", "window [604800, 0) is empty"),
    ("synth_triadic_one_day", "triadic_communities needs window_days >= 2"),
    ("synth_unknown_archetype", "invalid choice: 'bogus' (choose from 'random_bipartite', "
     "'redundant_followees', 'superuser_shadow', 'pareto_inflow', 'triadic_communities')"),
])
def test_bad_input_exit_2_without_traceback(request, tmp_path, case, expect):
    posts = tmp_path / "posts.tsv"
    posts.write_bytes(b"a\t-5\twarm up\na\t10\t#one \xff\n")
    follows = tmp_path / "follows.tsv"
    follows.write_text("a\tb\n")
    argv = ["ingest", "--posts", posts, "--follows", follows, *WINDOW,
            "--out", tmp_path / "cache"]
    if case == "missing_posts":
        argv[2] = tmp_path / "missing.tsv"
    elif case == "missing_news_domains":
        argv += ["--news-domains", tmp_path / "missing.txt"]
    elif case == "bad_window_start":
        argv[6] = "garbage"
    elif case in ("empty_window", "inverted_window"):
        # The posts file is not UTF-8, so this message shows it was not read.
        argv[6], argv[8] = ("0", "0") if case == "empty_window" else ("604800", "0")
    elif case in ("negative_sample_n", "superscript_sample_n"):
        sample_n = "-1" if case == "negative_sample_n" else "\u00b2"
        argv = ["efficiency", "--corpus", tmp_path / "corpus.pkl", "--sample-n", sample_n,
                "--out", tmp_path / "rep"]
    elif case == "egos_with_sample_n":
        argv = ["efficiency", "--corpus", tmp_path / "corpus.pkl", "--egos", "a",
                "--sample-n", "1", "--seed", "5", "--out", tmp_path / "rep"]
    elif case == "negative_min_followees":
        argv = ["efficiency", "--corpus", tmp_path / "corpus.pkl", "--min-followees", "-1",
                "--out", tmp_path / "rep"]
    elif case == "synth_zero_users":
        argv = ["synth", "--n-users", "0", "--out", tmp_path / "synth"]
    elif case == "synth_triadic_one_day":
        argv = ["synth", "--archetype", "triadic_communities", "--window-days", "1",
                "--out", tmp_path / "synth"]
    elif case == "synth_unknown_archetype":
        argv = ["synth", "--archetype", "bogus", "--out", tmp_path / "synth"]
    elif case == "synth_shadow_few_memes":
        argv = ["synth", "--archetype", "superuser_shadow", "--n-memes", "2",
                "--out", tmp_path / "synth"]
    elif case == "empty_user_id":
        posts.write_text("a\t-5\twarm up\n\t10\t#one\n")
    elif case == "ingest_out_is_file":
        posts.write_text("a\t-5\twarm up\na\t10\t#one\n")
        argv[-1] = follows
    elif case == "efficiency_out_is_file":
        argv = ["efficiency", "--corpus", request.getfixturevalue("redundant_dir"),
                "--min-followees", "1", "--out", posts]
    elif case == "synth_out_is_file":
        argv = ["synth", "--out", posts]
    elif case == "delay_partial_coverage":
        argv = ["cover", "--corpus", tmp_path / "corpus.pkl", "--method", "delay",
                "--coverage", "0.5", "--coverage", "1.0", "--out", tmp_path / "rep"]
    elif case in ("optimize_coverage", "egonet_coverage"):
        argv = [case.split("_")[0], "--corpus", tmp_path / "corpus.pkl",
                "--coverage", "0.5", "--out", tmp_path / "rep"]
    elif case == "cover_repeated_coverage":
        argv = ["cover", "--corpus", tmp_path / "corpus.pkl",
                "--coverage", "0.5", "--coverage", "1.0", "--out", tmp_path / "rep"]
    proc = subprocess.run(
        [sys.executable, "-m", "feedcover.cli", *map(str, argv)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert expect in proc.stderr
    assert not (tmp_path / "synth").exists()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case, code", [
    ("ingest", 0), ("analysis", 0), ("corrupt_cache", 2), ("malformed_posts", 2),
])
def test_main_restores_gc_state(redundant_dir, tmp_path, enabled, case, code):
    posts, follows = tmp_path / "posts.tsv", tmp_path / "follows.tsv"
    posts.write_text("a\t-5\tw\na\t10\t#x\n" + ("broken\n" if case == "malformed_posts" else ""))
    follows.write_text("b\ta\n")
    cache = tmp_path / "corrupt.pkl"
    cache.write_bytes(b"\x00garbage")
    if case in ("ingest", "malformed_posts"):
        argv = ["ingest", "--posts", posts, "--follows", follows, *WINDOW,
                "--out", tmp_path / "cache"]
    else:
        corpus = redundant_dir if case == "analysis" else cache
        argv = ["efficiency", "--corpus", corpus, "--egos", "0", "--min-followees", "1",
                "--out", tmp_path / "rep"]
    was_enabled = gc.isenabled()
    try:
        if not enabled:
            gc.disable()
        assert cli.console_main([str(a) for a in argv]) == code
        assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case, code", [("ingest", 0), ("analysis", 0), ("corrupt_cache", 2)])
def test_main_freezes_and_starts_no_collection(redundant_dir, tmp_path, enabled, case, code):
    # In a fresh interpreter: gc.freeze is process-wide, so pytest's own
    # process cannot tell this run's freeze from an earlier test's.
    cache = tmp_path / "corrupt.pkl"
    cache.write_bytes(b"\x00garbage")
    if case == "ingest":
        data = tmp_path / "data"
        argv = ["ingest", "--posts", data / "posts.tsv", "--follows", data / "follows.tsv",
                *WINDOW, "--pre-extracted", "--out", tmp_path / "again"]
    else:
        corpus = redundant_dir if case == "analysis" else cache
        argv = ["efficiency", "--corpus", corpus, "--egos", "0", "--min-followees", "1",
                "--out", tmp_path / "rep"]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import gc, sys\nfrom feedcover.cli import console_main\n"
         "enabled = sys.argv[1] == 'True'\n"
         "if not enabled:\n    gc.disable()\n"
         "starts = []\n"
         "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(info))\n"
         "code = console_main(sys.argv[2:])\n"
         "print(code, gc.isenabled() is enabled, gc.get_freeze_count() > 0, len(starts))",
         str(enabled), *map(str, argv)],
        capture_output=True, text=True,
    )
    assert proc.stdout.split()[-4:] == [str(code), "True", "True", "0"]
    assert "Traceback" not in proc.stderr


def test_main_pauses_the_collector_while_a_command_runs(redundant_dir, tmp_path,
                                                       monkeypatch):
    # In-process callers, such as the tests and perfbench's tracer, run each
    # command as the console script does; the collector is back on after.
    help_text, row_fn, summarize, options = cli._ANALYSES["efficiency"]
    seen = []

    def rows(*args):
        seen.append(gc.isenabled())
        return row_fn(*args)

    monkeypatch.setitem(cli._ANALYSES, "efficiency", (help_text, rows, summarize, options))
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        assert _efficiency_on(redundant_dir, tmp_path) == 0
        assert seen == [False] and gc.isenabled()
    finally:
        if not was_enabled:
            gc.disable()


def test_main_leaves_its_garbage_collectable(redundant_dir, tmp_path):
    # The subparsers main builds hold reference cycles, so only a collection
    # frees them; main pauses the collector but restores it, and freezes
    # nothing.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        frozen = gc.get_freeze_count()
        for out in ("first", "second"):
            assert _efficiency_on(redundant_dir, tmp_path / out) == 0
        assert not gc.isenabled() and gc.get_freeze_count() == frozen
        assert gc.collect() > 0
    finally:
        if was_enabled:
            gc.enable()


def test_min_followees_zero_reads_as_one(bipartite_corpus, tmp_path):
    reports = []
    for minimum in ("0", "1"):
        out = tmp_path / minimum
        assert run(["efficiency", "--corpus", bipartite_corpus, "--min-followees", minimum,
                    "--no-header-timestamp", "--out", out]) == 0
        reports.append([(out / name).read_text()
                        for name in ("efficiency.tsv", "efficiency_aggregate.tsv")])
    assert reports[0] == reports[1]


def _exit_code(argv):
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


_ALPHA_BETA_COMMANDS = (["efficiency"], ["cover", "--method", "joint"], ["optimize"], ["egonet"])


@pytest.mark.parametrize("command, option, value", [
    pytest.param(command, option, value, id=" ".join([*command, option, value]))
    for command, option, values in [
        *[(command, option, ("400", "1e308", "nan", "inf"))
          for option in ("--alpha", "--beta") for command in _ALPHA_BETA_COMMANDS],
        *[(command, "--coverage", ("nan", "inf", "-0.0", "1e-300"))
          for command in (["efficiency"], ["cover"])],
        (["synth", "--archetype", "pareto_inflow"], "--pareto-exponent",
         ("nan", "inf", "-1", "0", "1e-9")),
    ]
    for value in values
])
def test_extreme_float_options_exit_without_traceback(request, tmp_path, capsys,
                                                      command, option, value):
    if command[0] == "synth":
        argv = [*command, "--out", tmp_path / "synth"]
    else:
        argv = [*command, "--corpus", request.getfixturevalue("redundant_dir"),
                "--min-followees", "1", "--out", tmp_path / "rep"]
    assert _exit_code([*argv, f"{option}={value}"]) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", _ALPHA_BETA_COMMANDS, ids=" ".join)
def test_overflowing_joint_weight_skips_the_ego(redundant_dir, tmp_path, capsys, command):
    code = run([*command, "--corpus", redundant_dir, "--egos", "0", "--min-followees", "1",
                "--alpha", "400", "--out", tmp_path / "rep"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("skip ego 0: joint weight of user 1 overflows a float at "
                          "alpha 400.0, beta 0.5\n")


@pytest.mark.parametrize("values", [["0.5", "0.5"], ["1", "1.0"], ["0.5", "1", "0.50"]],
                         ids=" ".join)
def test_repeated_coverage_exit_2(redundant_dir, tmp_path, capsys, values):
    argv = ["efficiency", "--corpus", redundant_dir, "--egos", "0", "--min-followees", "1",
            "--out", tmp_path / "rep"]
    for value in values:
        argv += ["--coverage", value]
    assert _exit_code(argv) == 2
    assert "--coverage repeats a value" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


# The exit code of each class in feedcover.errors that reaches cli.main.
EXIT_CODES = {
    "MalformedRecord": 2, "InvalidSpec": 2,
    "EmptyCorpus": 3, "InfeasibleCover": 3,
    "FeedcoverError": 4, "UndefinedMeasure": 4,
}


@pytest.mark.parametrize("cls", [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)
], ids=lambda c: c.__name__)
def test_exit_code_per_error_class(monkeypatch, tmp_path, capsys, cls):
    exc = cls("posts.tsv", 1, "bad") if cls is errors.MalformedRecord else cls("bad")

    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "load_corpus", fail)
    code = run(["ingest", "--posts", tmp_path / "posts.tsv", "--follows",
                tmp_path / "follows.tsv", *WINDOW, "--out", tmp_path / "cache"])
    assert code == EXIT_CODES[cls.__name__] == cls.exit_code
    assert "error:" in capsys.readouterr().err


class _BrokenStream:
    def write(self, text):
        raise OSError("stream closed")


@pytest.mark.parametrize("stream", [None, _BrokenStream()], ids=["none", "broken"])
def test_warn_drops_the_line_without_a_working_stderr(monkeypatch, capsys, stream):
    monkeypatch.setattr(sys, "stderr", stream)
    errors.warn("skip ego 0: lost")
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "")


def test_distribution_bins_each_fraction_like_exact_arithmetic():
    # Float division misplaces bin edges: 0.58 / 0.02 == 28.999999999999996,
    # so 29/50 would land in the bin printed x = 0.56. The mean row comes
    # first, then 50 bins, with 1.0 folded into the last.
    rows = cli._distribution({"metric": "m"}, "mean", [0.0, 29 / 50, 47 / 50, 1.0])
    assert rows[0] == {"metric": "m", "stat": "mean", "x": "", "value": 2.52 / 4}
    assert [i for i, r in enumerate(rows[1:]) for _ in range(r["value"])] == [0, 29, 47, 49]
    assert rows[30] == {"metric": "m", "stat": "hist", "x": 29 * cli.HIST_BIN_WIDTH, "value": 1}
    fractions = [(d, n) for n in range(1, 101) for d in range(n + 1)]
    counts = [0] * 50
    for d, n in fractions:
        counts[min(d * 50 // n, 49)] += 1
    rows = cli._distribution({}, "mean", [d / n for d, n in fractions])
    assert [r["value"] for r in rows[1:]] == counts


def test_distribution_mean_is_the_same_on_every_python():
    # Python 3.12 made sum() of floats compensated: a left-to-right sum of
    # ten 0.1s is 0.9999999999999999 before 3.12 and 1.0 from it on. The
    # mean rounds the exact sum once, so every version reports 0.1.
    assert cli._distribution({}, "mean", [0.1] * 10)[0]["value"] == 0.1
