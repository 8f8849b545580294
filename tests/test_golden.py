"""Golden reports: the CLI chain on fixed synth corpora, compared byte for byte.

``produce`` runs every command through ``cli.main`` into a directory
laid out like ``tests/golden``: the synth files of two archetypes and
the reports of the four analysis commands on one ingested corpus, plus
each command's stdout. A small raw-text corpus (``raw_text/``) runs
meme extraction end to end: its ``ingest`` stdout and one efficiency
report per meme kind are recorded too. The test regenerates the set and
compares bytes.

To record the set again after an intended output change, run from the
repository root:

    PYTHONPATH=src:tests python -c "import pathlib, test_golden; test_golden.produce(pathlib.Path('tests/golden'))"
"""
from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path

from feedcover.cli import main
from feedcover.model import MEME_KINDS

GOLDEN = Path(__file__).parent / "golden"
WINDOW = ["--window-start", "0", "--window-end", "604800"]
# Ego 3 has one followee posting hashtags, below --min-followees 3: skipped.
EGOS = ["--egos", "0,1,2,3,4,7", "--min-followees", "3", "--no-header-timestamp"]
# Raw-text posts for the window 100 <= t < 1000. They hold every meme
# kind, a repeated hashtag within and across posts, short URLs resolved
# through the alias file (one to a YouTube video, one to a news site), a
# news subdomain, pre-window posts (d has none, so the activity filter
# drops d and its edges) and a post after the window. c's self-follow
# is dropped too.
RAW_TEXT = {
    "posts.tsv": (
        "a\t10\twarm up #early\n"
        "b\t10\twarm up\n"
        "c\t10\twarm up https://www.bbc.co.uk/old\n"
        "e\t10\twarm up\n"
        "a\t200\tCheck #News and #news via http://bit.ly/x1!\n"
        "d\t250\t#news from an inactive user\n"
        "b\t300\t#news again: www.youtube.com/watch?v=abc123&t=5. and "
        "https://edition.cnn.com/2020/story\n"
        "c\t400\tread https://www.bbc.co.uk/news/1, #Data\n"
        "a\t500\t(https://cnn.com/other) #data #DATA\n"
        "c\t600\tplain text, no memes\n"
        "b\t700\thttp://bit.ly/x1 http://bit.ly/x2 #misc\n"
        "e\t800\t#news seen by e itself\n"
        "a\t1500\t#late https://late.example.com after the window\n"
    ),
    "follows.tsv": "e\ta\ne\tb\ne\tc\ne\td\na\tb\nb\ta\nb\tc\nd\ta\nc\tc\n",
    "news_domains.txt": "cnn.com\nbbc.co.uk\nnytimes.com\n",
    "url_aliases.tsv": (
        "bit.ly/x1\thttps://www.youtube.com/watch?v=abc123&t=5\n"
        "bit.ly/x2\thttp://www.nytimes.com/a.html\n"
    ),
}


def _run(argv, out_dir: Path, stdout_name: str | None = None, scratch=None) -> None:
    """Run one command; record its stdout, with ``scratch`` written as ``<scratch>``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in argv])
    assert code == 0, (argv, code)
    if stdout_name is not None:
        text = buf.getvalue()
        if scratch is not None:
            text = text.replace(str(scratch), "<scratch>")
        (out_dir / stdout_name).write_text(text, encoding="utf-8")


def produce(out: Path, scratch: Path | None = None) -> None:
    """Write the whole golden set under ``out`` (replacing what is there)."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    scratch = scratch or out / "_cache"
    _run(["synth", "--archetype", "pareto_inflow", "--seed", "2", "--n-users", "20",
          "--n-memes", "12", "--out", out / "synth_pareto_inflow"], out)
    data = out / "synth_random_bipartite"
    _run(["synth", "--archetype", "random_bipartite", "--seed", "4", "--n-users", "30",
          "--n-memes", "20", "--ego-followees", "6", "--out", data], out)
    _run(["ingest", "--posts", data / "posts.tsv", "--follows", data / "follows.tsv",
          *WINDOW, "--pre-extracted", "--out", scratch], out)
    common = ["--corpus", scratch / "corpus.pkl", *EGOS]
    for fmt in ("tsv", "jsonl"):
        rep = out / f"efficiency_{fmt}"
        _run(["efficiency", *common, "--coverage", "0.5", "--coverage", "1.0",
              "--format", fmt, "--out", rep], out, f"efficiency_{fmt}.out")
    for method in ("link", "inflow", "delay", "joint"):
        _run(["cover", *common, "--method", method, "--out", out / f"cover_{method}"],
             out, f"cover_{method}.out")
    for cmd in ("optimize", "egonet"):
        _run([cmd, *common, "--out", out / cmd], out, f"{cmd}.out")
    raw = out / "raw_text"
    raw.mkdir()
    for name, text in RAW_TEXT.items():
        (raw / name).write_text(text, encoding="utf-8")
    _run(["ingest", "--posts", raw / "posts.tsv", "--follows", raw / "follows.tsv",
          "--window-start", "100", "--window-end", "1000",
          "--news-domains", raw / "news_domains.txt",
          "--url-aliases", raw / "url_aliases.tsv", "--out", scratch / "raw"],
         out, "raw_text_ingest.out", scratch)
    for kind in MEME_KINDS:
        _run(["efficiency", "--corpus", scratch / "raw" / "corpus.pkl", "--meme-kind", kind,
              "--min-followees", "1", "--no-header-timestamp",
              "--out", out / f"raw_text_{kind}"], out, f"raw_text_{kind}.out")
    shutil.rmtree(scratch)


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_reports_match_golden_set(tmp_path, capsys):
    produce(tmp_path / "out", tmp_path / "cache")
    capsys.readouterr()
    expected, actual = _tree(GOLDEN), _tree(tmp_path / "out")
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name
