"""The benchmark tracer's contract with the package: ``perfbench/tracer.py``
wraps the public functions it needs as spans, rebinding them in every
feedcover namespace and module-level dict (``cover.ENGINES`` among them),
and reads their arguments and results. A rename or a changed result shows
here as a missing span, an observe error or a cover call that escaped
its span, rather than only in a traced benchmark run."""
import sys
from pathlib import Path

import pytest

from test_golden import WINDOW
from test_store import run

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
EGOS = "0,1,2,46,92,140"
# Spans of each cover engine per ego: efficiency at coverage 1 runs all
# four, optimize the link, in-flow and joint covers, egonet all four.
EXPECTED = {
    "efficiency": {"greedy_min_cover": 1, "greedy_weighted_cover": 1,
                   "delay_optimal_cover": 1, "joint_cover": 1},
    "optimize": {"greedy_min_cover": 1, "greedy_weighted_cover": 1, "joint_cover": 1},
    "egonet": {"greedy_min_cover": 1, "greedy_weighted_cover": 1,
               "delay_optimal_cover": 1, "joint_cover": 1},
}


@pytest.fixture
def tracer(monkeypatch):
    """``perfbench/tracer.py``, imported without writing bytecode beside it."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracer
    return tracer


def test_tracer_wraps_every_required_span_and_each_engine_call(tracer, tmp_path):
    data, cache = tmp_path / "data", tmp_path / "cache"
    assert run(["synth", "--archetype", "triadic_communities", "--seed", "1",
                "--out", data])[0] == 0
    rec = tracer.Recorder()
    wrapper = tracer.Tracer(rec)
    wrapper.install({name: module for name, module in sys.modules.items()
                     if name == "feedcover" or name.startswith("feedcover.")})
    stages = {}
    try:
        assert run(["ingest", "--posts", data / "posts.tsv", "--follows",
                    data / "follows.tsv", *WINDOW, "--pre-extracted", "--out", cache])[0] == 0
        for stage in EXPECTED:
            first = len(rec.spans)
            code, out, _ = run([stage, "--corpus", cache / "corpus.pkl", "--egos", EGOS,
                                "--min-followees", "1", "--out", tmp_path / stage])
            assert code == 0 and out.endswith("  egos skipped: 0\n")
            stages[stage] = rec.spans[first:]
    finally:
        wrapper.uninstall()
    assert set(tracer.REQUIRED) <= wrapper.wrapped
    assert not rec.observe_errors
    egos = sorted(map(int, EGOS.split(",")))
    for stage, spans in stages.items():
        counts = {}
        for name, _, _, _, ego in spans:
            if name.startswith("cover.") and name[len("cover."):] in tracer.ENGINES:
                per_ego = counts.setdefault(name[len("cover."):], {})
                per_ego[ego] = per_ego.get(ego, 0) + 1
        assert counts == {engine: dict.fromkeys(egos, n)
                          for engine, n in EXPECTED[stage].items()}, stage
