"""Self-tests of the benchmark (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/tests/selftest_perfbench.py

The file name keeps the default `pytest` collection from picking these
up, since they start the whole CLI chain several times.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402

TINY = ["--seed", "3", "--seconds", "0", "--scale", "0.05"]


def _bench(tmp: Path, workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--trace", str(trace), "--work", str(tmp), *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Every workload at tiny scale, untraced and traced, in one work dir."""
    tmp = tmp_path_factory.mktemp("work")
    results = {
        (w, t): _bench(tmp, w, t) for w in gen.WORKLOADS for t in (0, 1)
    }
    return tmp, results


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_declared_metric(tiny_runs, declared, workload, trace, section):
    _, results = tiny_runs
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in declared[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_declared_workloads_match_generator(declared):
    assert [w["name"] for w in declared["workloads"]] == list(gen.WORKLOADS)


def test_generator_is_deterministic(tmp_path):
    for workload in gen.WORKLOADS:
        a = gen.generate(workload, 11, tmp_path / workload / "a", 0.05)
        b = gen.generate(workload, 11, tmp_path / workload / "b", 0.05)
        c = gen.generate(workload, 12, tmp_path / workload / "c", 0.05)
        assert a["egos"] == b["egos"]
        names = sorted(p.name for p in (tmp_path / workload / "a").iterdir())
        for name in names:
            if name == "workload.json":  # holds the output paths
                continue
            assert (tmp_path / workload / "a" / name).read_bytes() == (
                tmp_path / workload / "b" / name).read_bytes(), name
        assert (tmp_path / workload / "a" / "posts.tsv").read_bytes() != (
            tmp_path / workload / "c" / "posts.tsv").read_bytes()
        assert a["posts_lines"] > 0 and c["follow_edges"] > 0


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def test_checks_flag_corrupted_reports(tiny_runs, tmp_path):
    work, _ = tiny_runs
    desc = json.loads((work / "deep_cover" / "input" / "workload.json").read_text())
    checker = run.Checker(desc)
    good = tmp_path / "good"
    shutil.copytree(work / "deep_cover" / "reports", good)
    assert checker.check(good) == (0, [])

    def data_rows(lines):
        return [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]

    def set_field(name, column, value):
        def edit(lines):
            header = [ln for ln in lines if not ln.startswith("#")][0].split("\t")
            row = data_rows(lines)[0]
            cells = lines[row].split("\t")
            cells[header.index(column)] = value
            lines[row] = "\t".join(cells)
            return lines
        return name, edit

    corruptions = [
        set_field("efficiency.tsv", "e_link", "1.5"),
        set_field("efficiency.tsv", "e_delay", "0"),
        set_field("optimize.tsv", "selected", desc["egos"][0]),
        ("egonet.tsv", lambda lines: [ln for i, ln in enumerate(lines)
                                      if i != data_rows(lines)[-1]]),
    ]
    for n, (name, edit) in enumerate(corruptions):
        bad = tmp_path / f"bad{n}"
        shutil.copytree(good, bad)
        _rewrite(bad / name, edit)
        bad_rows, problems = checker.check(bad)
        assert problems, f"corruption {n} of {name} not flagged"


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep_cover",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
