"""Exception types shared across the package."""


class FeedcoverError(Exception):
    """Base class for all package errors."""


class MalformedRecord(FeedcoverError):
    def __init__(self, path, line_no, reason):
        where = path if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {reason}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason


class CacheError(FeedcoverError):
    """A corpus cache that is missing, unreadable, foreign or stale."""


class EmptyCorpus(FeedcoverError):
    pass


class InfeasibleCover(FeedcoverError):
    pass


class InvalidSpec(FeedcoverError):
    pass


class UndefinedMeasure(FeedcoverError):
    """A measure that is undefined for this ego or set: too few followees
    posting the meme kind, zero in-flow, no memes, or too few members."""
