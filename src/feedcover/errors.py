"""Exception types shared across the package, and ``warn``, the writer of
its stderr lines. Each class's ``exit_code`` is what ``feedcover`` exits
with when that error stops a command."""
import sys


class FeedcoverError(Exception):
    """Base class for all package errors."""

    exit_code = 4


class MalformedRecord(FeedcoverError):
    """An unusable input file or corpus cache; ``line_no`` is None for a whole file."""

    exit_code = 2

    def __init__(self, path, line_no, reason):
        where = path if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {reason}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason


class EmptyCorpus(FeedcoverError):
    exit_code = 3


class InfeasibleCover(FeedcoverError):
    exit_code = 3


class InvalidSpec(FeedcoverError):
    exit_code = 2


class UndefinedMeasure(FeedcoverError):
    """A measure that is undefined for this ego or set: too few followees
    posting the meme kind, zero in-flow, no memes, too few members, or a
    joint cover weight past the float range."""


def warn(line: str) -> None:
    """Write ``line`` and a newline to stderr and flush. Without a stderr
    (``sys.stderr`` None) the line is dropped, not sent to stdout as by
    ``print``, and a failed write is lost rather than raised."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(line + "\n")
            sys.stderr.flush()
        except Exception:
            pass
