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


class TooFewFollowees(FeedcoverError):
    pass


class InfeasibleCover(FeedcoverError):
    pass


class TooLarge(FeedcoverError):
    pass


class EmptyFollowees(FeedcoverError):
    pass


class ZeroInflow(FeedcoverError):
    pass


class NoMemes(FeedcoverError):
    pass


class InvalidOriginal(FeedcoverError):
    pass


class EmptyMembers(FeedcoverError):
    pass


class TooFewMembers(FeedcoverError):
    pass


class EmptyOptimal(FeedcoverError):
    pass


class DegenerateVariance(FeedcoverError):
    pass


class InvalidSpec(FeedcoverError):
    pass
