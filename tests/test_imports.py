"""What importing the package loads. Each check runs in a fresh interpreter,
because pytest's own process has already imported every module named here."""
import json
import subprocess
import sys

import feedcover


def python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
