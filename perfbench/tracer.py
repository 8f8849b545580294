"""Traced in-process run of the feedcover CLI chain: per-layer numbers.

Wraps the public functions of feedcover's ingest, model, cover,
efficiency, egonet and cli modules (plus the CLI's cache and report
I/O) in span recorders, rebinding them in every feedcover namespace
that refers to them, and calls `feedcover.cli.main` for each stage.
No feedcover source changes. Each pass runs the chain once untraced
and once traced; the difference is the tracing overhead.

Spans (name, start, end, parent, trace id = ego) stay in memory and are
written out at the end. Started by perfbench/run.py with --trace 1;
reads workload.json and writes trace.json and spans.jsonl into --work.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import inspect
import io
import json
import logging
import math
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import Calibrator  # noqa: E402
from run import ANALYSIS, STAGES, parse_skips, stage_argv, time_for_another  # noqa: E402

MODULES = ("ingest", "model", "cover", "efficiency", "egonet", "cli")
ENGINES = ("greedy_min_cover", "greedy_weighted_cover", "joint_cover",
           "delay_optimal_cover")
# Private or class-level callables worth a span, under the names used
# in the metrics: (module, attribute path, span name).
EXTRA = (
    ("model", "Corpus.from_events", "model.from_events"),
    ("cli", "_save_corpus", "cli.cache_write"),
    ("cli", "_load_cached", "cli.cache_read"),
    ("cli", "ReportWriter.write", "cli.report_write"),
)
# Spans the per-layer metrics are built from; absent ones are reported missing.
REQUIRED = (
    "ingest.load_corpus", "ingest.extract_memes", "ingest.load_lines",
    "ingest.ego_context", "model.from_events", "cli.cache_write",
    "cli.cache_read", "cli.report_write", "egonet.build_ego_network",
    "egonet.local_clustering_coefficient", "cover.candidate_pool",
    "efficiency.evaluate_ego", "efficiency.cross_efficiencies",
    "efficiency.joint_efficiencies", "efficiency.link_efficiency",
    "efficiency.inflow_efficiency",
) + tuple(f"cover.{e}" for e in ENGINES)
SELF_TIME_METRICS = (
    "ingest.load_corpus", "ingest.extract_memes", "model.from_events",
    "cli.cache_write", "cli.cache_read", "ingest.ego_context",
    "cli.report_write", "egonet.build_ego_network",
    "egonet.local_clustering_coefficient", "cover.candidate_pool",
) + tuple(f"cover.{e}" for e in ENGINES) + (
    "efficiency.evaluate_ego", "efficiency.cross_efficiencies",
    "efficiency.joint_efficiencies",
)


class Recorder:
    """Spans and counters for one traced chain."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, trace id]
        self.stack: list[int] = []
        self.trace = None
        self.counts: dict[str, float] = {}
        self.pools: list[int] = []
        self.members: list[int] = []
        self.covers: list[tuple] = []  # (engine, corpus, spec, selected, ego)
        self.cache_bytes = 0
        self.observe_errors: set[str] = set()

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0,
                self.stack[-1] if self.stack else -1, self.trace]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index] if len(args) > index else None


def _observe(rec: Recorder, name: str, args, kwargs, result) -> None:
    """Counters taken at the layer boundary; cheap, heavier work runs later."""
    if name == "ingest.load_lines":
        rec.add("ingest.lines", len(result))
    elif name == "model.from_events":
        rec.add("ingest.meme_events", len(_arg(args, kwargs, 1, "events")))
        rec.counts["model.users"] = len(result.post_count)
        rec.counts["model.follow_edges"] = sum(len(v) for v in result.follows.values())
        rec.counts["ingest.unique_memes"] = len(result.first_mention)
    elif name == "cover.candidate_pool":
        rec.pools.append(len(result))
    elif name.startswith("cover.") and name[6:] in ENGINES:
        rec.covers.append((name[6:], _arg(args, kwargs, 0, "corpus"),
                           _arg(args, kwargs, 1, "spec"), result.selected, rec.trace))
    elif name == "egonet.build_ego_network":
        rec.members.append(len(result.members))
    elif name == "cli.cache_write":
        rec.cache_bytes = Path(result).stat().st_size


class Tracer:
    """Installs span-recording wrappers and can remove them again."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.undo: list = []
        self.wrapped: set[str] = set()

    def _wrap(self, name: str, fn):
        rec = self.rec
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "ingest.ego_context":
                rec.trace = _arg(args, kwargs, 1, "ego")
            span = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(span)
            try:
                _observe(rec, name, args, kwargs, result)
            except (AttributeError, TypeError, KeyError, IndexError, OSError) as exc:
                # a later tree changed this function's signature or result
                rec.observe_errors.add(f"{name}: {exc!r}")
            return result

        return traced

    def _rebind(self, namespaces, original, wrapped) -> None:
        """Point every module global or module-level dict entry at the wrapper."""
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    ns[key] = wrapped
                    self.undo.append((ns, key, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped
                            self.undo.append((value, k, original))

    def install(self, feedcover_modules: dict) -> None:
        namespaces = [vars(m) for m in feedcover_modules.values()]
        for short in MODULES:
            mod = feedcover_modules.get(f"feedcover.{short}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or (short, attr) == ("cli", "main")):
                    continue
                self._rebind(namespaces, fn, self._wrap(f"{short}.{attr}", fn))
        for short, path, name in EXTRA:
            owner = feedcover_modules.get(f"feedcover.{short}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                self.undo.append((owner, attr, raw))
            elif inspect.isclass(owner):
                setattr(owner, attr, self._wrap(name, raw))
                self.undo.append((owner, attr, raw))
            else:
                self._rebind(namespaces, raw, self._wrap(name, raw))

    def uninstall(self) -> None:
        for target, key, original in reversed(self.undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self.undo.clear()


class _CountWarnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def run_stages(cli, desc: dict, work: Path, out_name: str, rec: Recorder | None,
               cal: Calibrator):
    """Call cli.main for each stage.

    Returns per stage (seconds, exit code, egos skipped, speed factor); the
    factor scales times to the calibration reference speed, as in run.py.
    """
    result = {}
    before = cal.seconds()
    for stage in STAGES:
        argv = stage_argv(desc, stage, work / "cache", work / out_name)
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()  # each stage starts clean, as in its own process
        if rec is not None:
            rec.trace = None
            span = rec.open(f"stage.{stage}")
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - t0
        if rec is not None:
            rec.close(span)
        after = cal.seconds()
        factor = cal.scale(1.0, before, after)
        before = after
        result[stage] = (elapsed * factor, code,
                         parse_skips(stdout.getvalue(), stderr.getvalue()), factor)
    return result


def _useful_picks(corpus, spec, selected) -> int:
    """Picks whose removal leaves the cover short of its coverage target."""
    universe = spec.universe
    target = math.ceil(spec.coverage * len(universe))
    sets = [corpus.memes_by_user.get(v, frozenset()) & universe for v in selected]
    times_covered: dict = {}
    for s in sets:
        for m in s:
            times_covered[m] = times_covered.get(m, 0) + 1
    covered = len(times_covered)
    return sum(
        1 for s in sets
        if covered - sum(1 for m in s if times_covered[m] == 1) < target
    )


def summarize(rec: Recorder, warnings: int, factors: dict[str, float]) -> dict:
    """Per-layer metrics of one traced chain; times scaled by each stage's factor."""
    spans = rec.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    stage_total, stage_root = {}, {}
    analysis_cover = 0.0
    stage_of = [None] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        stage_of[i] = name[len("stage."):] if parent < 0 else stage_of[parent]
        scale = factors[stage_of[i]]
        own = (end - start - child[i]) * scale
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            stage_total[stage_of[i]] = (end - start) * scale
            stage_root[stage_of[i]] = own
        elif name.startswith("cover.") and stage_of[i] in ANALYSIS:
            analysis_cover += own
    m = {f"{name}_s": self_s.get(name, 0.0) for name in SELF_TIME_METRICS}
    m.update({k: rec.counts.get(k, 0) for k in (
        "ingest.lines", "ingest.meme_events", "ingest.unique_memes",
        "model.users", "model.follow_edges")})
    m["cli.cache_mib"] = rec.cache_bytes / 2**20
    m["egonet.members_mean"] = statistics.fmean(rec.members) if rec.members else 0.0
    m["cover.pool_size_mean"] = statistics.fmean(rec.pools) if rec.pools else 0.0
    picks = {e: 0 for e in ENGINES}
    useful = {e: 0 for e in ENGINES}
    self_selected = 0
    for engine, corpus, spec, selected, ego in rec.covers:
        picks[engine] += len(selected)
        useful[engine] += _useful_picks(corpus, spec, selected)
        self_selected += ego in selected
    for e in ENGINES:
        m[f"cover.{e}.calls"] = calls.get(f"cover.{e}", 0)
        m[f"cover.{e}.picks"] = picks[e]
        m[f"cover.{e}.useful_pick_share"] = useful[e] / picks[e] if picks[e] else 0.0
    m["cover.self_selected"] = self_selected
    analysis_total = sum(stage_total.get(s, 0.0) for s in ANALYSIS)
    m["cover.analysis_share"] = analysis_cover / analysis_total if analysis_total else 0.0
    ratios = calls.get("efficiency.link_efficiency", 0) + calls.get(
        "efficiency.inflow_efficiency", 0)
    m["efficiency.clamp_share"] = warnings / ratios if ratios else 0.0
    m["trace.unaccounted_share"] = sum(stage_root.values()) / sum(stage_total.values())
    return {
        "metrics": m,
        "stage_s": stage_total,
        "stage_unaccounted": {s: stage_root[s] / stage_total[s] for s in stage_total},
    }


UNITS = {"_s": "s", "_share": "ratio", "_mib": "MiB"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_passes(cli, modules, desc, work, seconds, cal, counter):
    """Untraced then traced chains, repeated while another pass fits in seconds."""
    start = time.perf_counter()
    passes, lost, exits_ok = [], 0, True
    while not passes or time_for_another(start, len(passes), seconds):
        plain = run_stages(cli, desc, work, "reports_plain", None, cal)
        rec = Recorder()
        tracer = Tracer(rec)
        tracer.install(modules)
        counter.count = 0
        try:
            traced = run_stages(cli, desc, work, "reports_traced", rec, cal)
        finally:
            tracer.uninstall()
        summary = summarize(rec, counter.count, {s: traced[s][3] for s in STAGES})
        summary["metrics"]["trace.overhead_s"] = sum(
            traced[s][0] - plain[s][0] for s in STAGES)
        passes.append(summary)
        for run in (plain, traced):
            exits_ok &= all(r[1] == 0 for r in run.values())
            lost += sum(len(desc["egos"]) if run[s][1] != 0 else run[s][2]
                        for s in ANALYSIS)
        if not exits_ok:
            break
    return passes, rec, tracer, lost, exits_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload-json", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    desc = json.loads(Path(args.workload_json).read_text())
    work = Path(args.work)

    import feedcover.cli as cli

    modules = {k: v for k, v in sys.modules.items()
               if k == "feedcover" or k.startswith("feedcover.")}
    counter = _CountWarnings()
    logging.getLogger("feedcover.efficiency").addHandler(counter)
    with Calibrator() as cal:
        passes, rec, tracer, lost, exits_ok = run_passes(
            cli, modules, desc, work, args.seconds, cal, counter)

    missing = [name for name in REQUIRED if name not in tracer.wrapped]
    names = passes[0]["metrics"]
    # Counts repeat exactly from pass to pass; times and shares take the median.
    metrics = {
        name: (passes[-1]["metrics"][name] if unit_of(name) == "count"
               else statistics.median(p["metrics"][name] for p in passes), unit_of(name))
        for name in names
    }
    with open(work / "spans.jsonl", "w") as fh:
        for name, t0, t1, parent, trace in rec.spans:
            fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                 "parent": parent, "trace": trace}) + "\n")
    (work / "trace.json").write_text(json.dumps({
        "chains": len(passes) * 2,
        "lost_egos": lost,
        "exits_ok": exits_ok,
        "missing": missing,
        "observe_errors": sorted(rec.observe_errors),
        "stage_unaccounted": passes[-1]["stage_unaccounted"],
        "metrics": metrics,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
