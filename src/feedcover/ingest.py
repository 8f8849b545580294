"""Parse raw input files into a Corpus: posts, follow edges, meme extraction.

File formats (UTF-8, tab-separated, one record per line):
  posts (raw):           user_id<TAB>unix_seconds<TAB>text
  posts (pre-extracted): user_id<TAB>unix_seconds<TAB>meme_kind<TAB>meme_key
  follows:               follower_id<TAB>followee_id
  news domains:          one registered domain per line
  url aliases:           short_url<TAB>resolved_url

Malformed lines abort ingestion with the offending line number; silent
data loss would corrupt the efficiency denominators downstream.
"""
from __future__ import annotations

import re
from functools import lru_cache
from itertools import compress
from pathlib import Path
from typing import NamedTuple
from urllib.parse import parse_qs

from .errors import EmptyCorpus, InvalidSpec, MalformedRecord, UndefinedMeasure
from .model import MEME_KINDS, Corpus, EgoContext

# The literal ``#`` first keeps the regex engine's fast scan (rule: extract_memes).
_HASHTAG_RE = re.compile(r"#(?<![\w&]#)(?=\d*[^\W\d])(\w+)")
_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
# A normalised URL's authority, path and query (rule: extract_memes).
_URL_PARTS_RE = re.compile(r"([^/?#]*)([^?#]*)\??([^#]*)")
_TRAILING_PUNCT = ".,;:!?)\"'>]"

# Each meme kind's one shared string, so that pre-extracted memes do not
# each hold the kind split from their own line.
_KINDS = {kind: kind for kind in MEME_KINDS}


class _IngestConfigFields(NamedTuple):
    window_start: int
    window_end: int
    require_pre_window_activity: bool = True
    news_domain_list: str | None = None
    url_alias_map: str | None = None
    pre_extracted: bool = False


class IngestConfig(_IngestConfigFields):
    """What ``load_corpus`` keeps: posts at ``window_start <= t < window_end``.
    A ``_replace`` copy is checked like a new config."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        config = super().__new__(cls, *args, **kwargs)
        if config.window_end <= config.window_start:
            raise InvalidSpec(f"window [{config.window_start}, {config.window_end}) is empty")
        return config

    def _replace(self, /, **changes):
        return type(self)(*super()._replace(**changes))


def normalize_url(token: str) -> str:
    """Strip scheme and trailing punctuation; keep any leading ``www.``."""
    token = token.strip()
    for scheme in ("https://", "http://"):
        if token.lower().startswith(scheme):
            token = token[len(scheme):]
            break
    return token.rstrip(_TRAILING_PUNCT)


@lru_cache(maxsize=1 << 16)
def _hashtag_meme(tag: str) -> tuple[str, str]:
    return ("hashtag", tag.lower())


@lru_cache(maxsize=1 << 16)
def _url_memes(url: str, news_domains: frozenset[str]) -> tuple[tuple[str, str], ...]:
    """The memes of one non-empty normalised URL: the url itself, then its
    YouTube video and its news domain, if any, by the rules of
    ``extract_memes``. URLs repeat across posts, so each distinct one is
    split and classified once."""
    authority, path, query = _URL_PARTS_RE.match(url).groups()
    memes = [("url", url)]
    site, segment = authority.lower(), path[1:].partition("/")[0]
    video = None
    if site in ("www.youtube.com", "youtube.com", "m.youtube.com") and segment.lower() == "watch":
        video = parse_qs(query).get("v", [None])[0]
    elif site == "youtu.be":
        video = segment
    if video:
        memes.append(("youtube_video", video))
    labels = authority.rpartition("@")[2].partition(":")[0].lower().removesuffix(".").split(".")
    for i in range(len(labels) - 1):
        domain = ".".join(labels[i:])
        if domain in news_domains:
            memes.append(("news_domain", domain))
            break
    return tuple(memes)  # shared by every caller, so immutable


def extract_memes(
    raw_text: str,
    news_domains: frozenset[str] = frozenset(),
    url_aliases: dict[str, str] | None = None,
) -> list[tuple[str, str]]:
    """Extract the memes of every kind from one post's text, each once, in
    first-seen order: the hashtags, then each URL's memes.

    A hashtag is ``#`` and the word characters after it, lower-cased, if
    they hold a non-digit: ``#2016abc`` and ``#_1`` are hashtags, but
    ``#2016`` is none, nor is ``#`` and an Arabic-Indic digit. A ``#``
    right after a word character or ``&`` (``page#section``, ``abc#tag``,
    ``&#39;``) starts none, nor does a ``#`` inside a URL
    (``https://x.org/#frag``).

    URLs are first rewritten through the alias map (offline stand-in for
    unshortening), then split once: the authority runs up to the first
    ``/``, ``?`` or ``#``, the path up to ``?`` or ``#``, and the query
    from ``?`` up to ``#``. A URL yields the url meme, then up to two more:

    - youtube_video: on a watch page, whose lower-cased authority is
      ``www.youtube.com``, ``youtube.com`` or ``m.youtube.com`` and whose
      lower-cased path is ``/watch`` or below it (not ``/watchlater``),
      the first ``v`` query value; on a ``youtu.be`` short link, the
      first path segment.
    - news_domain: the longest suffix of two or more labels of the host
      that is a listed domain. The host is the authority after its last
      ``@`` and before a ``:``, lower-cased, without a trailing ``.``.
    """
    tags = _HASHTAG_RE.findall(raw_text)
    # Every URL match holds "://" or "www."; many posts have neither.
    has_url = "://" in raw_text or "www." in raw_text
    tokens = _URL_RE.findall(raw_text) if has_url else ()
    if tags and "#" in "".join(tokens):  # drop the tags that start inside a URL
        spans = [url.span() for url in _URL_RE.finditer(raw_text)]
        tags = [tag[1] for tag in _HASHTAG_RE.finditer(raw_text)
                if not any(start <= tag.start() < end for start, end in spans)]
    memes = list(map(_hashtag_meme, tags))
    for token in tokens:
        url = normalize_url(token)
        if url_aliases:
            url = url_aliases.get(url, url)
        if url:
            memes += _url_memes(url, frozenset(news_domains))  # hashable
    return list(dict.fromkeys(memes))


def load_lines(path) -> list[str]:
    """The lines of a UTF-8 file (a BOM dropped); an unreadable one is a MalformedRecord.

    Lines end at ``\n``, ``\r\n`` or ``\r`` only: other Unicode line
    separators (U+2028, U+0085, form feed, ...) may occur inside a post.
    The bytes are decoded in one piece: a decoder fed chunk by chunk, as
    ``Path.read_text`` does, reads a file holding only the first byte or
    two of a BOM as empty instead of failing.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise MalformedRecord(path, None, f"cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise MalformedRecord(path, line_no, f"not UTF-8 ({exc.reason})") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:  # the text after the last newline
        lines.pop()
    return lines


def load_news_domains(path) -> frozenset[str]:
    """The listed domains, each normalised as ``_url_memes`` normalises a
    host: lower-cased, without a trailing ``.``."""
    return frozenset(
        line.strip().lower().removesuffix(".") for line in load_lines(path) if line.strip()
    )


def load_url_aliases(path) -> dict[str, str]:
    aliases = {}
    for no, line in enumerate(load_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedRecord(path, no, "expected short_url<TAB>resolved_url")
        aliases[normalize_url(parts[0])] = normalize_url(parts[1])
    return aliases


class _EventColumns:
    """Post events held as parallel columns of users, memes and times,
    read as ``(user, meme, time)`` triples: three lists of shared objects
    take far less memory than a tuple per event."""

    __slots__ = ("users", "memes", "times")

    def __init__(self, users: list[int], memes: list[tuple[str, str]], times: list[int]):
        self.users, self.memes, self.times = users, memes, times

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self):
        return zip(self.users, self.memes, self.times)


def load_corpus(posts_path, follows_path, config: IngestConfig) -> Corpus:
    """Build a windowed Corpus with the activity filter applied.

    Users with no post strictly before the window start fail the
    activity filter (when enabled) and are removed from the poster
    universe; follow edges touching removed users are dropped, as are
    self-follow edges (``u<TAB>u``).
    """
    news_domains = (
        load_news_domains(config.news_domain_list)
        if config.news_domain_list
        else frozenset()
    )
    url_aliases = (
        load_url_aliases(config.url_alias_map) if config.url_alias_map else {}
    )
    ids: dict[str, int] = {}  # label -> integer id, in first-seen order
    # The kept post events as three parallel columns, one entry per meme.
    users: list[int] = []
    memes: list[tuple[str, str]] = []
    times: list[int] = []
    post_counts: dict[int, int] = {}
    active: set[int] = set()
    start, end = config.window_start, config.window_end
    for no, line in enumerate(load_lines(posts_path), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if config.pre_extracted:
            if len(parts) != 4:
                raise MalformedRecord(
                    posts_path, no, "expected user<TAB>time<TAB>kind<TAB>key"
                )
            label, time_s, kind_s, key = parts
            kind = _KINDS.get(kind_s)
            if kind is None:
                raise MalformedRecord(posts_path, no, f"unknown meme kind {kind_s!r}")
            if not key:
                raise MalformedRecord(posts_path, no, "empty meme key")
        elif len(parts) != 3:
            raise MalformedRecord(posts_path, no, "expected user<TAB>time<TAB>text")
        else:
            label, time_s, text = parts
        try:
            time = int(time_s)
        except ValueError:
            raise MalformedRecord(posts_path, no, f"bad timestamp {time_s!r}")
        user = ids.get(label)
        if user is None:
            if not label:
                raise MalformedRecord(posts_path, no, "empty user id")
            user = ids[label] = len(ids)
        if time < start:
            active.add(user)
        elif time < end:
            post_counts[user] = post_counts.get(user, 0) + 1
            if config.pre_extracted:
                users.append(user)
                memes.append((kind, key))
                times.append(time)
            else:
                found = extract_memes(text, news_domains, url_aliases)
                users += [user] * len(found)
                memes += found
                times += [time] * len(found)

    # Each follower's followees in file order, repeats kept: from_events
    # drops them when it sorts each list into the corpus's tuple.
    follows: dict[int, list[int]] = {}
    for no, line in enumerate(load_lines(follows_path), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedRecord(follows_path, no, "expected follower<TAB>followee")
        follower = ids.get(parts[0])
        if follower is None:
            if not parts[0]:
                raise MalformedRecord(follows_path, no, "empty user id")
            follower = ids[parts[0]] = len(ids)
        followee = ids.get(parts[1])
        if followee is None:
            if not parts[1]:
                raise MalformedRecord(follows_path, no, "empty user id")
            followee = ids[parts[1]] = len(ids)
        if follower != followee:  # a user is not its own source
            followees = follows.get(follower)
            if followees is None:
                follows[follower] = [followee]
            else:
                followees.append(followee)

    if config.require_pre_window_activity:
        keep = [u in active for u in users]
        users, memes, times = (list(compress(c, keep)) for c in (users, memes, times))
        del keep
        post_counts = {u: c for u, c in post_counts.items() if u in active}
        follows = {
            u: [v for v in vs if v in active]
            for u, vs in follows.items()
            if u in active
        }
    if not users:
        raise EmptyCorpus("no post events survive window and activity filtering")
    return Corpus.from_events(
        _EventColumns(users, memes, times),
        follows,
        post_counts=post_counts,
        user_labels={uid: label for label, uid in ids.items()},
    )


def ego_context(
    corpus: Corpus, ego: int, meme_kind: str, min_followees: int = 1
) -> EgoContext:
    """Timeline view for one ego, restricted to followees posting the kind."""
    part = corpus.kinds.get(meme_kind)
    first_by_user = part["first_post_by_user"] if part else {}
    followees = frozenset(v for v in corpus.follows.get(ego, ()) if v in first_by_user)
    if len(followees) < max(min_followees, 1):
        raise UndefinedMeasure(
            f"{len(followees)} followees posting {meme_kind} (need {max(min_followees, 1)})"
        )
    memes = frozenset(m for v in followees for m in first_by_user[v])
    return EgoContext(ego=ego, followees=followees, memes=memes)
