"""What importing and running the package loads. Each check runs in a fresh
interpreter, because pytest's own process has already imported every module
named here, ``logging`` included."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import feedcover

from test_golden import EGOS, GOLDEN, WINDOW, _run, _tree


def run_python(code: str, returncode: int = 0, flags=()) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True)
    assert proc.returncode == returncode, proc.stderr
    return proc


def python(code: str) -> str:
    return run_python(code).stdout


def test_cli_import_leaves_out_what_no_analysis_runs():
    # Compared with what the interpreter had loaded before, so a module that
    # the host's site setup imports does not count against the package.
    loaded = python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import feedcover.cli\n"
        "print(*sorted(set(sys.modules) - before), sep='\\n')\n"
    ).split()
    assert "feedcover.cli" in loaded
    assert not {
        "feedcover.synth", "statistics", "json", "logging", "dataclasses", "inspect",
    } & set(loaded)


# What one ``efficiency`` or ``optimize`` run of ``test_golden.produce``
# prints to stderr: two in-flow ratios above 1 are clamped, then ego 3 is
# skipped.
CLAMPS = [
    "clamping in-flow efficiency=1.16667 > 1 for ego 1",
    "clamping in-flow efficiency=1.27273 > 1 for ego 2",
]
SKIP = "skip ego 3: 1 followees posting hashtag (need 3)\n"


@pytest.fixture
def golden_runs(tmp_path):
    """The golden random-bipartite corpus ingested under ``tmp_path``, and
    ``(argv, out dir, golden dir)`` for the ``efficiency`` (TSV) and
    ``optimize`` runs of ``test_golden.produce`` on it."""
    data = GOLDEN / "synth_random_bipartite"
    _run(["ingest", "--posts", data / "posts.tsv", "--follows", data / "follows.tsv",
          *WINDOW, "--pre-extracted", "--out", tmp_path / "cache"], tmp_path)
    common = ["--corpus", str(tmp_path / "cache" / "corpus.pkl"), *EGOS]
    return [
        (["efficiency", *common, "--coverage", "0.5", "--coverage", "1.0",
          "--format", "tsv", "--out", str(tmp_path / "efficiency")],
         tmp_path / "efficiency", GOLDEN / "efficiency_tsv"),
        (["optimize", *common, "--out", str(tmp_path / "optimize")],
         tmp_path / "optimize", GOLDEN / "optimize"),
    ]


def console(argv, before: str = "", after: str = "",
            returncode: int = 0) -> subprocess.CompletedProcess:
    """``console_main(argv)`` in a fresh interpreter, with ``before`` run
    first and ``after`` run once it returns; the process must exit
    ``returncode``."""
    return run_python(
        f"import sys\n{before}"
        f"from feedcover.cli import console_main\n"
        f"code = console_main({argv!r})\n{after}"
        f"sys.exit(code)\n",
        returncode,
    )


def test_clamps_reach_stderr_without_importing_logging(golden_runs):
    for argv, out, golden in golden_runs:
        proc = console(argv, after="print('logging' in sys.modules)\n")
        assert proc.stderr == "".join(line + "\n" for line in CLAMPS) + SKIP
        assert proc.stdout.splitlines()[-1] == "False"
        assert _tree(out) == _tree(golden)


def test_clamps_go_to_the_efficiency_logger_once_logging_is_loaded(golden_runs):
    # The logger has a handler, so logging's last-resort handler prints nothing.
    keep = (
        "import json, logging\n"
        "records = []\n"
        "class Keep(logging.Handler):\n"
        "    def emit(self, record):\n"
        "        records.append([record.levelname, record.getMessage()])\n"
        "logging.getLogger('feedcover.efficiency').addHandler(Keep())\n"
    )
    for argv, out, golden in golden_runs:
        proc = console(argv, before=keep, after="print(json.dumps(records))\n")
        assert proc.stderr == SKIP
        assert json.loads(proc.stdout.splitlines()[-1]) == [["WARNING", m] for m in CLAMPS]
        assert _tree(out) == _tree(golden)


def test_clamping_run_without_stderr(golden_runs):
    # As under pythonw: the clamp and skip lines are lost, and stdout holds
    # the rows line alone, as in the golden run.
    for argv, out, golden in golden_runs:
        proc = console(argv, before="sys.stderr = None\n")
        assert proc.stderr == ""
        assert proc.stdout == golden.with_suffix(".out").read_text()
        assert _tree(out) == _tree(golden)


def test_run_without_stdout(golden_runs):
    # As under pythonw, or with fd 1 closed: print writes nothing and the
    # exit flush is skipped, so the run exits 0 with its reports written.
    argv, out, golden = golden_runs[0]
    proc = console(argv, before="sys.stdout = None\n")
    assert proc.stderr == "".join(line + "\n" for line in CLAMPS) + SKIP
    assert _tree(out) == _tree(golden)


def test_failing_run_without_stderr_prints_nothing(golden_runs):
    # Every ego is skipped, so the command exits 3; its skip lines and its
    # error line are lost, not sent to stdout.
    for argv, out, golden in golden_runs:
        proc = console([*argv, "--min-followees", "1000"], before="sys.stderr = None\n",
                       returncode=3)
        assert proc.stdout == proc.stderr == ""
        assert not out.exists()


def test_reading_and_writing_the_order_store_imports_nothing(golden_runs):
    # efficiency writes the order store and optimize reads it; the store
    # must not buy its saving back in import time. Without ``site`` (-S),
    # which on some hosts imports tempfile, the interpreter starts with
    # none of the four modules, so none can hide in the "before" set.
    (efficiency, _, _), (optimize, _, _) = golden_runs
    loaded = run_python(
        "import sys\n"
        f"sys.path.insert(0, {str(Path(feedcover.__file__).parent.parent)!r})\n"
        "before = set(sys.modules)\n"
        "import contextlib, io\n"
        "from feedcover.cli import main\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [main({efficiency!r}), main({optimize!r})]\n"
        "assert codes == [0, 0], codes\n"
        "print(*sorted(set(sys.modules) - before), sep='\\n')\n",
        flags=("-S",),
    ).stdout.split()
    assert "feedcover.cli" in loaded
    assert not {"hashlib", "json", "logging", "tempfile"} & set(loaded)
    cache = Path(efficiency[efficiency.index("--corpus") + 1]).parent
    assert sorted(p.name for p in cache.iterdir()) == ["corpus.hashtag.orders", "corpus.pkl"]


def test_package_root_exports_resolve():
    out = json.loads(python(
        "import json, sys\n"
        "import feedcover\n"
        "lazy = 'feedcover.synth' in sys.modules\n"
        "resolved = all(getattr(feedcover, name) is not None for name in feedcover.__all__)\n"
        "from feedcover import *\n"
        "try:\n"
        "    feedcover.no_such_name\n"
        "    missing = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps({'lazy': lazy, 'resolved': resolved, 'missing': missing,\n"
        "    'star': sorted(n for n in feedcover.__all__ if n in globals()),\n"
        "    'dir': sorted(set(feedcover.__all__) - set(dir(feedcover)))}))\n"
    ))
    assert out["lazy"] is False
    assert out["resolved"] is True
    assert out["missing"] == "module 'feedcover' has no attribute 'no_such_name'"
    assert out["dir"] == []
    assert out["star"] == sorted(feedcover.__all__)
