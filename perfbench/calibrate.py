"""CPU speed calibration for the benchmark's timings.

The host's CPU speed drifts by a third over seconds to minutes (other
tenants; frequency and cache contention), which moves every stage's
wall time alike. A fixed pure-Python loop, timed just before and after
each stage, measures that speed. It does the kind of work feedcover
does: it intersects sets of frozen-dataclass keys, whose hashing and
comparison run as Python calls, and sorts them. The loop is the
benchmark's own code, so a change to feedcover does not change it.
Stage times are reported in seconds at the reference speed, at which one
pass of the loop takes REF_S.

The loop's data live in a separate server process, started by
`Calibrator`, so that they add nothing to the benchmark process's
memory, which children spawned from it inherit in their max RSS.
"""
from __future__ import annotations

import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass

REF_S = 0.020


@dataclass(frozen=True, order=True)
class _Key:
    kind: str
    key: str


def _serve() -> None:
    """Answer each input line with the best-of-3 seconds of one loop pass."""
    rng = random.Random(0)
    keys = [_Key("hashtag", f"t{i}") for i in range(5000)]
    sets = [frozenset(rng.sample(keys, 30)) for _ in range(4000)]
    universe = frozenset(rng.sample(keys, 600))
    for _ in sys.stdin:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            remaining = set(universe)
            acc = 0
            for s in sets:
                acc += len(s & remaining)
            for s in sets[:600]:
                acc += len(sorted(s))
            best = min(best, time.perf_counter() - t0)
        print(best, flush=True)


class Calibrator:
    """Client of the calibration server; use as a context manager."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def seconds(self) -> float:
        """Seconds one pass of the loop takes now."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration server exited")
        return float(line)

    @staticmethod
    def scale(wall_s: float, before_s: float, after_s: float) -> float:
        """wall_s at the reference speed, given the loop times around it."""
        return wall_s * REF_S * 2 / (before_s + after_s)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    _serve()
