"""Golden reports: the CLI chain on fixed synth corpora, compared byte for byte.

``produce`` runs every command through ``cli.main`` into a directory
laid out like ``tests/golden``: the synth files of two archetypes and
the reports of the four analysis commands on one ingested corpus, plus
each command's stdout. The test regenerates the set and compares bytes.

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

GOLDEN = Path(__file__).parent / "golden"
WINDOW = ["--window-start", "0", "--window-end", "604800"]
# Ego 3 has one followee posting hashtags, below --min-followees 3: skipped.
EGOS = ["--egos", "0,1,2,3,4,7", "--min-followees", "3", "--no-header-timestamp"]


def _run(argv, out_dir: Path, stdout_name: str | None = None) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in argv])
    assert code == 0, (argv, code)
    if stdout_name is not None:
        (out_dir / stdout_name).write_text(buf.getvalue(), encoding="utf-8")


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
