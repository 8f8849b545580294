"""End-to-end benchmark of the feedcover CLI chain.

Runs `ingest -> efficiency -> optimize -> egonet` on a generated workload,
each stage as its own child process (one closed-loop client: one stage
at a time), repeating the chain for --seconds and reporting medians.
With --trace 1 a separate in-process traced run (perfbench/tracer.py)
gives the per-layer numbers instead. Outputs are checked on every run.

    python3 perfbench/run.py --workload deep_cover --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Human-readable lines and the
full record (samples, report sha256 digests, environment) come first;
the record is also written to perfbench/_work/<workload>/result.json.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from calibrate import Calibrator  # noqa: E402

DEADLINE_S = 170.0  # every child process ends within this long of the start
MIN_CHAINS = 3  # medians need three samples; determinism needs two
ANALYSIS = ("efficiency", "optimize", "egonet")
STAGES = ("ingest",) + ANALYSIS
EGONET_METHODS = ("link", "inflow", "delay", "joint")

END_TO_END = {
    "setup_s": "s",
    "efficiency_s": "s",
    "optimize_s": "s",
    "egonet_s": "s",
    "pipeline_s": "s",
    "ego_evals_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def stage_argv(desc: dict, stage: str, cache_dir: Path, out_dir: Path) -> list[str]:
    """CLI arguments (after `feedcover`) for one stage of a workload."""
    if stage == "ingest":
        return ["ingest", *desc["ingest_args"], "--out", str(cache_dir)]
    argv = [stage, "--corpus", str(cache_dir / "corpus.pkl"), *desc["analysis_args"]]
    if stage == "efficiency":
        for p in desc["coverages"]:
            argv += ["--coverage", str(p)]
    return argv + ["--out", str(out_dir)]


def parse_skips(stdout: str, stderr: str) -> int:
    """Egos a stage skipped, from its `rows: N  egos skipped: K` summary."""
    for line in stdout.splitlines():
        if "egos skipped:" in line:
            return int(line.rsplit(":", 1)[1])
    return sum(1 for line in stderr.splitlines() if line.startswith("skip ego"))


def run_child(argv: list[str], log_prefix: Path, deadline: float, hash_seed: int) -> dict:
    """Run one child to completion; wall time and max RSS from wait4."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("deadline reached before starting " + " ".join(argv[:4]))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    with open(f"{log_prefix}.out", "wb") as out, open(f"{log_prefix}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if wall >= timeout:
        raise BenchError(f"{' '.join(argv[:4])} killed after {timeout:.0f} s")
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "maxrss_mib": usage.ru_maxrss / 1024.0,
        "stdout": Path(f"{log_prefix}.out").read_text(errors="replace"),
        "stderr": Path(f"{log_prefix}.err").read_text(errors="replace"),
    }


def digest_reports(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.glob("*.tsv"))
    }


def report_lines(out_dir: Path) -> dict[str, list[str]]:
    """The per-ego reports' lines; rows are sorted by ego, one ego row per line."""
    return {
        stage: (out_dir / f"{stage}.tsv").read_text(encoding="utf-8").splitlines()
        if (out_dir / f"{stage}.tsv").exists() else []
        for stage in ANALYSIS
    }


def differing_evaluations(first: dict, again: dict) -> set[tuple[str, str]]:
    """(stage, ego label) pairs whose report rows differ between two reruns."""
    diff = set()
    for stage in ANALYSIS:
        a, b = first[stage], again[stage]
        for x, y in itertools.zip_longest(a, b, fillvalue=""):
            if x != y:
                for line in (x, y):
                    cells = line.split("\t")
                    if len(cells) > 1 and not line.startswith("#"):
                        diff.add((stage, cells[1]))
    return diff


# ---------------------------------------------------------------- checks


def read_report(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines, delimiter="\t"))


def _in_unit_interval(text: str) -> bool:
    try:
        return 0.0 < float(text) <= 1.0
    except ValueError:
        return False


class Checker:
    """Output checks for one workload; the corpus is rebuilt through the public API."""

    def __init__(self, desc: dict):
        sys.path.insert(0, str(ROOT / "src"))
        from feedcover import IngestConfig, ego_context, load_corpus

        args = desc["ingest_args"]
        opt = dict(zip(args[::2], args[1::2]))
        config = IngestConfig(
            window_start=int(opt["--window-start"]),
            window_end=int(opt["--window-end"]),
            news_domain_list=opt.get("--news-domains"),
            url_alias_map=opt.get("--url-aliases"),
            pre_extracted="--pre-extracted" in args,
        )
        self.desc = desc
        self.corpus = load_corpus(ROOT / opt["--posts"], ROOT / opt["--follows"], config)
        self.by_label = {lbl: uid for uid, lbl in self.corpus.user_labels.items()}
        self.ego_context = ego_context
        analysis = desc["analysis_args"]
        self.meme_kind = analysis[analysis.index("--meme-kind") + 1]
        self._universe: dict[str, frozenset] = {}

    def universe(self, ego_label: str):
        if ego_label not in self._universe:
            ctx = self.ego_context(
                self.corpus, self.by_label[ego_label], self.meme_kind,
                self.desc["min_followees"],
            )
            self._universe[ego_label] = ctx.memes
        return self._universe[ego_label]

    def covers(self, ego_label: str, selected: str) -> bool:
        try:
            universe = self.universe(ego_label)
        except Exception as exc:  # any failure to rebuild the universe fails the row
            print(f"cannot rebuild universe of {ego_label}: {exc!r}", file=sys.stderr)
            return False
        covered = set()
        for label in filter(None, selected.split(",")):
            if label not in self.by_label:
                return False
            covered |= self.corpus.memes_by_user.get(self.by_label[label], frozenset())
        return universe <= covered

    def check(self, out_dir: Path) -> tuple[int, list[str]]:
        """(rows failing a check, messages) for the reports in out_dir."""
        egos = self.desc["egos"]
        coverages = sorted(self.desc["coverages"])
        bad_rows, problems = 0, []

        def rows_of(name):
            path = out_dir / f"{name}.tsv"
            if not path.exists():
                problems.append(f"{name}.tsv missing")
                return []
            return read_report(path)

        def expect_rows(name, rows, per_ego):
            found = {}
            for row in rows:
                found.setdefault(row.get("ego_label"), []).append(row)
            missing = [e for e in egos if len(found.get(e, ())) != per_ego]
            extra = sorted(set(found) - set(egos))
            if missing or extra:
                problems.append(
                    f"{name}: {len(rows)} rows; egos without {per_ego} rows: "
                    f"{missing[:5]}; unexpected egos: {extra[:5]}"
                )

        rows = rows_of("efficiency")
        expect_rows("efficiency", rows, len(coverages))
        for row in rows:
            ok = all(_in_unit_interval(row.get(k, "")) for k in ("e_link", "e_inflow", "e_delay"))
            if not ok:
                bad_rows += 1
                problems.append(f"efficiency ego {row.get('ego_label')}: efficiency outside (0, 1]")
        by_ego: dict[str, list[float]] = {}
        for row in rows:
            try:
                level = float(row.get("coverage", ""))
            except ValueError:
                level = math.nan
            by_ego.setdefault(row.get("ego_label"), []).append(level)
        if any(sorted(v) != coverages for v in by_ego.values()):
            problems.append(f"efficiency: coverage levels differ from {coverages}")

        rows = rows_of("optimize")
        expect_rows("optimize", rows, 1)
        for row in rows:
            if row.get("ego_label") in egos and not self.covers(row["ego_label"], row.get("selected", "")):
                bad_rows += 1
                problems.append(f"optimize ego {row['ego_label']}: selected set misses memes")

        rows = rows_of("egonet")
        expect_rows("egonet", rows, len(EGONET_METHODS))
        for row in rows:
            try:
                ok = 0.0 <= float(row.get("overlap", "")) <= 1.0
            except ValueError:
                ok = False
            if row.get("optimization") not in EGONET_METHODS or not ok:
                bad_rows += 1
                problems.append(f"egonet ego {row.get('ego_label')}: bad row")
        return bad_rows, problems


# ---------------------------------------------------------------- measurement


def run_chain(desc: dict, work: Path, deadline: float, hash_seed: int,
              cal: Calibrator) -> dict:
    """One closed-loop pass over the four stages, each a child process."""
    cache, out, logs = work / "cache", work / "reports", work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    stages = {}
    before = cal.seconds()
    for stage in STAGES:
        argv = [sys.executable, "-m", "feedcover.cli",
                *stage_argv(desc, stage, cache, out)]
        child = run_child(argv, logs / stage, deadline, hash_seed)
        after = cal.seconds()
        child["calibration_s"] = (before + after) / 2
        child["time_s"] = cal.scale(child["wall_s"], before, after)
        stages[stage] = child
        before = after
    return stages


def time_for_another(start: float, done: int, seconds: float) -> bool:
    """Whether one more repetition of average length still ends within seconds."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def high_percentile(values) -> tuple[str, float]:
    """The highest percentile above the median with ten samples beyond it, else the max."""
    n = len(values)
    if n <= 20:
        return "max", max(values)
    pct = math.floor(100 * (1 - 10 / n))
    return f"p{pct}", statistics.quantiles(values, n=100)[pct - 1]


def chain_failures(chain: dict, n_egos: int) -> int:
    """Egos lost in one chain: skipped, or in an analysis stage that failed."""
    lost = 0
    for stage in ANALYSIS:
        s = chain[stage]
        lost += n_egos if s["exit"] != 0 else parse_skips(s["stdout"], s["stderr"])
    return lost


def measure(desc: dict, work: Path, seconds: float, deadline: float) -> dict:
    """Repeat the chain while another fits in seconds; samples per metric."""
    # Reruns alternate between two string-hash seeds, so the determinism
    # check sees set iteration orders change as they do between user runs,
    # and the same benchmark seed always makes the same comparison.
    start = time.perf_counter()
    chains, digests, differing = [], [], []
    first = None
    with Calibrator() as cal:
        while True:
            chain = run_chain(desc, work, deadline, len(chains) % 2, cal)
            chains.append(chain)
            digests.append(digest_reports(work / "reports"))
            lines = report_lines(work / "reports")
            first = first or lines
            differing.append(sorted(differing_evaluations(first, lines)))
            if any(s["exit"] != 0 for s in chain.values()):
                break
            if len(chains) >= MIN_CHAINS and not time_for_another(start, len(chains), seconds):
                break
    n_egos = len(desc["egos"])
    walls = {s: [c[s]["time_s"] for c in chains] for s in STAGES}
    analysis = [sum(c[s]["time_s"] for s in ANALYSIS) for c in chains]
    evals = [len(ANALYSIS) * n_egos - chain_failures(c, n_egos) for c in chains]
    samples = {
        "setup_s": walls["ingest"],
        "efficiency_s": walls["efficiency"],
        "optimize_s": walls["optimize"],
        "egonet_s": walls["egonet"],
        "pipeline_s": [sum(c[s]["time_s"] for s in STAGES) for c in chains],
        "ego_evals_per_s": [e / a for e, a in zip(evals, analysis)],
        "peak_rss_mib": [max(c[s]["maxrss_mib"] for s in STAGES) for c in chains],
    }
    return {
        "chains": len(chains),
        "samples": samples,
        "raw_wall_s": {s: [c[s]["wall_s"] for c in chains] for s in STAGES},
        "calibration_s": {s: [c[s]["calibration_s"] for c in chains] for s in STAGES},
        "exits": [{s: c[s]["exit"] for s in STAGES} for c in chains],
        "lost_egos": [chain_failures(c, n_egos) for c in chains],
        "differing": differing,
        "digests": digests,
    }


def run_traced(desc: dict, work: Path, seconds: float, deadline: float) -> dict:
    """The per-layer run: perfbench/tracer.py in a child process."""
    (work / "logs").mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "tracer.py"), "--workload-json",
            str(work / "input" / "workload.json"), "--work", str(work),
            "--seconds", str(seconds)]
    child = run_child(argv, work / "logs" / "tracer", deadline, hash_seed=0)
    if child["exit"] != 0:
        raise BenchError("tracer failed:\n" + child["stderr"][-4000:])
    return json.loads((work / "trace.json").read_text())


# ---------------------------------------------------------------- main


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size factor; below 1 only for self-tests")
    parser.add_argument("--work", default=str(HERE / "_work"),
                        help="directory for generated inputs, caches and reports")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "feedcover" / "cli.py").is_file():
        print(f"error: no feedcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = Path(args.work) / args.workload
    desc = gen.generate(args.workload, args.seed, work / "input", args.scale)
    try:
        if args.trace:
            traced = run_traced(desc, work, args.seconds, deadline)
            out_dirs = [work / "reports_plain", work / "reports_traced"]
            digests = [digest_reports(d) for d in out_dirs]
            runs, lost, exits_ok = traced["chains"], traced["lost_egos"], traced["exits_ok"]
            differing = [sorted(differing_evaluations(*map(report_lines, out_dirs)))]
        else:
            measured = measure(desc, work, args.seconds, deadline)
            out_dirs = [work / "reports"]
            digests = measured["digests"]
            runs, lost = measured["chains"], sum(measured["lost_egos"])
            exits_ok = all(v == 0 for e in measured["exits"] for v in e.values())
            differing = measured["differing"]
        checker = Checker(desc)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # `correct` fails on wrong or missing output. A rerun whose rows differ
    # from the first run's is a failed evaluation: counted, not fatal.
    problems = [] if exits_ok else ["a stage exited non-zero"]
    bad_rows = 0
    for d in out_dirs:
        rows, msgs = checker.check(d)
        bad_rows = max(bad_rows, rows)
        problems += msgs
    unstable = sorted({pair for pairs in differing for pair in pairs})
    attempted = runs * len(ANALYSIS) * len(desc["egos"])
    failed = lost + bad_rows * runs + sum(len(pairs) for pairs in differing)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "input": {k: desc[k] for k in ("posts_lines", "follow_edges", "egos", "coverages")},
        "report_sha256": digests[-1],
        "problems": problems,
        "rerun_differs": unstable,
        "failed_share": failed / attempted,
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["metrics"].items()}
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
        record.update(traced_chains=traced["chains"], missing_spans=traced["missing"],
                      observe_errors=traced["observe_errors"],
                      stage_unaccounted=traced["stage_unaccounted"])
        if traced["missing"]:
            print("missing spans (reported as 0): " + ", ".join(traced["missing"]))
        for err in traced["observe_errors"]:
            print(f"counter not taken: {err}")
    else:
        metrics = {}
        for name, unit in END_TO_END.items():
            values = measured["samples"][name]
            tag, high = high_percentile(values)
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"{name}: {statistics.median(values):.6g} {unit} (median of {len(values)}, "
                  f"{tag} {high:.6g})")
        record.update(chains=measured["chains"], samples=measured["samples"],
                      raw_wall_s=measured["raw_wall_s"],
                      calibration_s=measured["calibration_s"],
                      exits=measured["exits"], lost_egos=measured["lost_egos"])
    print(f"failed_share: {failed / attempted:.6g} ratio ({failed} of {attempted} "
          "ego evaluations)")
    for p in problems[:20]:
        print(f"check failed: {p}")
    if unstable:
        print(f"check failed: rows differ between reruns for {len(unstable)} "
              f"(stage, ego) pairs, e.g. {unstable[:3]}")
    for name, sha in digests[-1].items():
        print(f"sha256 {name} {sha}")
    record["metrics"] = metrics
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
