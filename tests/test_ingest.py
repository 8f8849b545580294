import re
import tempfile
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedcover.cli import _load_cached, _save_corpus, main
from feedcover.efficiency import delay_efficiency
from feedcover.errors import EmptyCorpus, InvalidSpec, MalformedRecord, UndefinedMeasure
from feedcover.ingest import (
    _HASHTAG_RE,
    _URL_RE,
    IngestConfig,
    _url_memes,
    ego_context,
    extract_memes,
    load_corpus,
    load_lines,
    load_news_domains,
    normalize_url,
)
from feedcover.model import MEME_KINDS, Corpus

CFG = IngestConfig(window_start=1000, window_end=2000)


def test_single_hashtag():
    assert extract_memes("check #OpenData now") == [("hashtag", "opendata")]


def test_youtube_url_emits_both_kinds():
    memes = extract_memes("watch https://www.youtube.com/watch?v=abc123")
    assert memes == [
        ("url", "www.youtube.com/watch?v=abc123"),
        ("youtube_video", "abc123"),
    ]


def test_alias_rewrite_then_news_domain():
    memes = extract_memes(
        "http://bit.ly/x1",
        news_domains=frozenset({"cnn.com"}),
        url_aliases={"bit.ly/x1": "cnn.com/story"},
    )
    assert memes == [
        ("url", "cnn.com/story"),
        ("news_domain", "cnn.com"),
    ]


def test_news_domain_matches_registered_suffix():
    memes = extract_memes(
        "see http://edition.cnn.com/world/x",
        news_domains=frozenset({"cnn.com"}),
    )
    assert ("news_domain", "cnn.com") in memes


def test_news_domain_never_outside_supplied_list():
    domains = frozenset({"cnn.com"})
    for text in (
        "http://nytimes.com/a",
        "http://cnn.com.evil.org/a",
        "www.bbc.co.uk",
    ):
        for meme in extract_memes(text, news_domains=domains):
            assert meme[0] != "news_domain"


def test_duplicates_within_post_deduplicated():
    memes = extract_memes("#x and #X and #x again")
    assert memes == [("hashtag", "x")]


def test_url_normalization_idempotent_and_keeps_www():
    url = normalize_url("https://www.example.com/path,")
    assert url == "www.example.com/path"
    assert normalize_url(url) == url


def reference_url_memes(url, news_domains):
    """The memes of one normalised URL by the rules of ``extract_memes``,
    written with ``urlsplit`` and string methods."""
    parts = urlsplit("//" + url)
    site, path = parts.netloc.lower(), parts.path.lower()
    memes = [("url", url)]
    if site in {"www.youtube.com", "youtube.com", "m.youtube.com"} and (
            path == "/watch" or path.startswith("/watch/")):
        videos = parse_qs(parts.query).get("v")
        if videos:
            memes.append(("youtube_video", videos[0]))
    elif site == "youtu.be":
        video = parts.path.removeprefix("/").split("/")[0]
        if video:
            memes.append(("youtube_video", video))
    host = parts.netloc.rpartition("@")[2].partition(":")[0].lower().removesuffix(".")
    listed = [d for d in news_domains if "." in d and (host == d or host.endswith("." + d))]
    if listed:
        memes.append(("news_domain", max(listed, key=len)))
    return memes


def reference_extract_memes(raw_text, news_domains=frozenset(), url_aliases=None):
    """``extract_memes`` as a plain loop: each URL occurrence classified
    again, each meme appended unless an equal one is already listed. A
    ``#`` inside a URL is blanked before hashtags are found."""
    url_aliases = url_aliases or {}
    seen = []

    def emit(kind, key):
        if not key:
            return
        meme = (kind, key)
        if meme not in seen:
            seen.append(meme)

    for tag in _HASHTAG_RE.findall(_URL_RE.sub(lambda url: url[0].replace("#", " "), raw_text)):
        emit("hashtag", tag.lower())
    for token in _URL_RE.findall(raw_text):
        url = normalize_url(token)
        url = url_aliases.get(url, url)
        if not url:
            continue
        for kind, key in reference_url_memes(url, news_domains):
            emit(kind, key)
    return seen


TOKENS = (
    "#News", "#news", "#a_b", "#x1", "#", "word", "http://bit.ly/x1", "https://bit.ly/x1!",
    "http://bit.ly/x2,", "bit.ly/x1", "https://www.youtube.com/watch?v=abc123&t=5",
    "www.youtube.com/watch?v=abc123.", "https://WWW.YouTube.com/watch?v=Q", "www.youtube.com/watch",
    "http://edition.cnn.com/world/x", "(https://cnn.com/a)", "http://cnn.com.evil.org/a",
    "www.bbc.co.uk", "https://news.bbc.co.uk/x#frag", "http://", "https://.", "www.",
)
ALIASES = {
    "bit.ly/x1": "www.youtube.com/watch?v=abc123&t=5",
    "bit.ly/x2": "edition.cnn.com/story",
    "www.bbc.co.uk": "",
}
texts = st.lists(
    st.one_of(st.sampled_from(TOKENS), st.text(alphabet="#w./:?=&hpstv_xA1 ", max_size=12)),
    max_size=12,
).flatmap(lambda parts: st.sampled_from([" ", "", "\t", "\u2028"]).map(
    lambda sep: sep.join(parts)))


@settings(max_examples=300, deadline=None)
@given(
    texts,
    st.frozensets(st.sampled_from(["cnn.com", "bbc.co.uk", "co.uk", "youtube.com", "org"])),
    st.dictionaries(st.sampled_from(sorted(ALIASES)), st.just(None)),
)
def test_extract_memes_matches_reference(text, news_domains, alias_keys):
    aliases = {short: ALIASES[short] for short in alias_keys}
    expected = reference_extract_memes(text, news_domains, aliases)
    # Twice: the second call is served from the per-URL cache.
    assert extract_memes(text, news_domains, aliases) == expected
    assert extract_memes(text, news_domains, aliases) == expected


@settings(max_examples=200, deadline=None)
@given(texts)
def test_hash_after_a_word_character_starts_no_hashtag(text):
    memes = extract_memes(text.replace("#", "a#"))
    assert [m for m in memes if m[0] == "hashtag"] == []


@settings(max_examples=200, deadline=None)
@given(texts)
def test_hash_after_a_space_starts_every_plain_hashtag(text):
    memes = extract_memes(text.replace("#", " #"))
    plain = dict.fromkeys(tag.lower() for tag in re.findall(r"#(\w+)", text)
                          if not tag.isdecimal())
    assert [m[1] for m in memes if m[0] == "hashtag"] == list(plain)


@pytest.mark.parametrize("text, hashtags", [
    ("it&#39;s", []),
    ("https://x.org/page#section", []),
    ("abc#tag", []),
    ("me@host#tag", []),
    ("https://x.org/#frag", []),  # "/" is no word character, but the "#" is in a URL
    ("#ok,#Ok;(#b) &#c #d#e", ["ok", "b", "d"]),
    ("it&#39;s https://x.org/page#section abc#tag me@host#tag #ok", ["ok"]),
    ("https://x.org/?q=#top #b", ["b"]),
    ("#2016", []),  # a hashtag holds a non-digit
    ("#\u0663", []),  # an Arabic-Indic digit
    ("#2016abc #a1 #_1", ["2016abc", "a1", "_1"]),
])
def test_hashtag_rule(text, hashtags):
    assert [m[1] for m in extract_memes(text) if m[0] == "hashtag"] == hashtags


@pytest.mark.parametrize("url, video", [
    ("https://www.youtube.com/watch?v=abc123&t=5", "abc123"),
    ("https://WWW.YouTube.com/watch?v=Q", "Q"),
    ("https://youtube.com/watch?v=abc123", "abc123"),
    ("https://m.youtube.com/watch?v=abc123", "abc123"),
    ("https://youtu.be/abc123", "abc123"),
    ("https://youtu.be/abc123?t=5", "abc123"),
    ("https://www.youtube.com/watch", None),
    ("https://youtu.be/", None),
    ("https://notyoutube.com/watch?v=abc123", None),
    ("https://youtube.com/results?v=abc123", None),
    ("https://www.youtube.com/watchlater?v=abc", None),  # the path is /watch or below it
    ("https://www.youtube.com/watch_videos?v=abc", None),
    ("https://www.youtube.com/watch/?v=abc", "abc"),
    ("https://WWW.YouTube.com/WATCH?v=Q", "Q"),
    ("https://youtube.com:443/watch?v=p", None),  # the authority is the whole site
    ("https://me@youtu.be/x", None),
])
def test_youtube_url_forms(url, video):
    memes = extract_memes(url)
    assert memes[0] == ("url", normalize_url(url))
    assert [m[1] for m in memes if m[0] == "youtube_video"] == ([video] if video else [])


# URL strings built around the YouTube and news-domain rules: a site name,
# a port, a path and a query, and noise with user info, ports, fragments and
# percent escapes before and after them.
_noise = st.text(alphabet="@:./?#=&vVaB1_%+", min_size=1, max_size=3)
urls = st.tuples(
    st.sampled_from(["", "www.", "m.", "WWW.", "me@"]) | _noise,
    st.sampled_from(["youtube.com", "YouTube.COM", "youtu.be", "YOUTU.BE", "cnn.com", "a.co.uk."]),
    st.sampled_from(["", ":443"]),
    st.sampled_from(["", "/watch", "/WATCH", "/watch/x", "/watchlater", "/x/y"]),
    st.sampled_from(["?v=Q", "?a=1&v=b&v=c", "", "#v=c"]),
    st.just("") | _noise,
).map("".join)


@settings(max_examples=1000, deadline=None)
@given(urls, st.frozensets(st.sampled_from(
    ["youtube.com", "youtu.be", "be", "cnn.com", "co.uk", "a.co.uk", ".com"])))
def test_url_memes_match_reference(url, news_domains):
    assert _url_memes(url, news_domains) == tuple(reference_url_memes(url, news_domains))


@pytest.mark.parametrize("url, domain", [
    ("https://bbc.co.uk:443/news", "bbc.co.uk"),
    ("https://bbc.co.uk#live", "bbc.co.uk"),
    ("https://me@bbc.co.uk/x", "bbc.co.uk"),
    ("https://user:pw@News.BBC.co.uk:8080?q=1", "bbc.co.uk"),
    ("https://bbc.co.uk./x", "bbc.co.uk"),
    ("https://bbc.co.uk/x", "bbc.co.uk"),
    ("https://edition.cnn.com/x", "cnn.com"),
    ("http://cnn.com.evil.org/a", None),
    ("https://evil.org/?u=bbc.co.uk", None),
])
def test_news_domain_host_rule(tmp_path, url, domain):
    # A list entry gets the host's normalisation: lower-cased, one trailing "." dropped.
    listed = tmp_path / "news_domains.txt"
    listed.write_text("bbc.co.uk.\nCNN.com\n", encoding="utf-8")
    news_domains = load_news_domains(listed)
    assert news_domains == {"bbc.co.uk", "cnn.com"}
    memes = extract_memes(url, news_domains=news_domains)
    assert memes[0] == ("url", normalize_url(url))  # the url key is unchanged
    assert [m[1] for m in memes if m[0] == "news_domain"] == ([domain] if domain else [])


@pytest.mark.parametrize("text", [
    "", "\n", "a", "a\n", "a\n\n", "a\n\nb", "a\r\nb\r\n", "a\rb\r", "\ta\t\n",
])
def test_load_lines_equals_splitlines_without_unicode_separators(tmp_path, text):
    path = tmp_path / "lines.txt"
    path.write_bytes(text.encode("utf-8"))
    assert load_lines(path) == text.splitlines()


def test_load_lines_keeps_unicode_separators_inside_a_line(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("a\u2028b\u0085c\fd\ve\x1cf\x1dg\x1eh\u2029i\nnext\n", encoding="utf-8")
    assert load_lines(path) == ["a\u2028b\u0085c\fd\ve\x1cf\x1dg\x1eh\u2029i", "next"]


def test_posts_with_unicode_line_separators(tmp_path):
    posts = (
        "a\t1\twarm up\n"
        "a\t1100\tline\u2028break #one\n"
        "a\t1200\tnext\u0085line\f#two www.x.org/\u2028y\n"
    )
    p, f = _write(tmp_path, posts, "b\ta\n")
    corpus = load_corpus(p, f, CFG)
    assert corpus.post_count == {0: 2}
    assert sorted(corpus.first_mention) == [
        ("hashtag", "one"), ("hashtag", "two"), ("url", "www.x.org/"),
    ]
    p.write_text(posts + "a\t1300\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        load_corpus(p, f, CFG)
    assert err.value.line_no == 4


def _write(tmp_path, posts, follows):
    p = tmp_path / "posts.tsv"
    f = tmp_path / "follows.tsv"
    p.write_text(posts, encoding="utf-8")
    f.write_text(follows, encoding="utf-8")
    return p, f


def test_load_corpus_window_and_activity_filter(tmp_path):
    posts = (
        "alice\t500\twarming up\n"      # pre-window: marks alice active
        "alice\t1100\t#one\n"
        "alice\t1200\t#two\n"
        "bob\t1300\t#one\n"             # bob never tweeted pre-window
        "alice\t2500\t#late\n"          # after window end
    )
    follows = "carol\talice\ncarol\tbob\n"
    p, f = _write(tmp_path, posts, follows)
    corpus = load_corpus(p, f, CFG)
    alice = [u for u, lbl in corpus.user_labels.items() if lbl == "alice"][0]
    assert set(corpus.memes_by_user) == {alice}
    assert corpus.post_count[alice] == 2
    assert ("hashtag", "late") not in corpus.first_mention
    # carol was inactive, so her follow edges are gone entirely
    assert corpus.follows == {}


def test_load_corpus_first_mention_minimum(tmp_path):
    posts = "a\t1\tx\na\t1500\t#m\nb\t2\tx\nb\t1100\t#m\n"
    p, f = _write(tmp_path, posts, "a\tb\n")
    corpus = load_corpus(p, f, CFG)
    assert corpus.first_mention[("hashtag", "m")] == 1100


# (posts, follows, url aliases or None, pre-extracted, bad file, line number)
MALFORMED = [
    ("a\t1\tx\nbadline\n", "a\tb\n", None, False, "posts.tsv", 2),
    ("a\t1\tx\n\nbadline\n", "a\tb\n", None, False, "posts.tsv", 3),
    ("a\t1\tx\na\tnoon\t#x\n", "a\tb\n", None, False, "posts.tsv", 2),
    ("a\t1\thashtag\tx\na\t2\thashtag\n", "a\tb\n", None, True, "posts.tsv", 2),
    ("a\t1\thashtag\tx\na\t2\thashtag\t\n", "a\tb\n", None, True, "posts.tsv", 2),
    ("a\t1\tx\n", "\na\tb\n\nab\n", None, False, "follows.tsv", 4),
    ("a\t1\tx\n", "a\tb\n", "bit.ly/a\tx.com\nno-tab-here\n", False, "aliases.tsv", 2),
]


def test_load_corpus_malformed_line_aborts_with_line_number(tmp_path):
    for posts, follows, aliases, pre_extracted, bad, line_no in MALFORMED:
        p, f = _write(tmp_path, posts, follows)
        alias_path = tmp_path / "aliases.tsv"
        alias_path.write_text(aliases or "", encoding="utf-8")
        cfg = CFG._replace(pre_extracted=pre_extracted,
                           url_alias_map=str(alias_path) if aliases else None)
        with pytest.raises(MalformedRecord) as err:
            load_corpus(p, f, cfg)
        assert (Path(err.value.path).name, err.value.line_no) == (bad, line_no), posts


@pytest.mark.parametrize("posts, follows, bad", [
    ("a\t1\tx\n\t5\t#x\n", "a\tb\n", "posts.tsv"),
    ("a\t1\tx\n", "a\tb\n\tb\n", "follows.tsv"),
    ("a\t1\tx\n", "a\tb\na\t\n", "follows.tsv"),
])
def test_load_corpus_rejects_an_empty_user_id(tmp_path, posts, follows, bad):
    p, f = _write(tmp_path, posts, follows)
    with pytest.raises(MalformedRecord) as err:
        load_corpus(p, f, CFG)
    assert (Path(err.value.path).name, err.value.line_no, err.value.reason) == (
        bad, 2, "empty user id")


def test_load_corpus_reads_side_files(tmp_path):
    posts = (
        "a\t1\twarm up\n"
        "a\t1100\tread http://bit.ly/x1 now\n"
        "a\t1200\tand https://www.BBC.co.uk/news\n"
    )
    p, f = _write(tmp_path, posts, "b\ta\n")
    domains = tmp_path / "domains.txt"
    domains.write_text("CNN.com\n\n  bbc.co.uk \n", encoding="utf-8")
    aliases = tmp_path / "aliases.tsv"
    aliases.write_text("\nhttp://bit.ly/x1\thttps://edition.cnn.com/story,\n\n",
                       encoding="utf-8")
    cfg = CFG._replace(news_domain_list=str(domains), url_alias_map=str(aliases))
    corpus = load_corpus(p, f, cfg)
    assert sorted(corpus.first_mention) == [
        ("news_domain", "bbc.co.uk"),
        ("news_domain", "cnn.com"),
        ("url", "edition.cnn.com/story"),
        ("url", "www.BBC.co.uk/news"),
    ]


def test_byte_order_mark_is_not_part_of_the_first_record(tmp_path):
    # The first record of each file names what a BOM would rename: user a
    # (active only through its warm-up post), follower b, news domain
    # cnn.com and the short link bit.ly/x1.
    files = {
        "posts.tsv": "a\t1\twarm up\nb\t2\twarm up\n"
                     "a\t1100\tread http://bit.ly/x1 now\nb\t1200\t#x\n",
        "follows.tsv": "b\ta\n",
        "domains.txt": "cnn.com\n",
        "aliases.tsv": "http://bit.ly/x1\thttps://edition.cnn.com/story\n",
    }

    def ingest(prefix):
        for name, text in files.items():
            (tmp_path / name).write_bytes(prefix + text.encode("utf-8"))
        cfg = CFG._replace(news_domain_list=str(tmp_path / "domains.txt"),
                           url_alias_map=str(tmp_path / "aliases.tsv"))
        return load_corpus(tmp_path / "posts.tsv", tmp_path / "follows.tsv", cfg)

    plain = ingest(b"")
    assert sorted(plain.user_labels.values()) == ["a", "b"]
    assert plain.follows == {_uid(plain, "b"): (_uid(plain, "a"),)}
    assert sorted(plain.first_mention) == [
        ("hashtag", "x"), ("news_domain", "cnn.com"),
        ("url", "edition.cnn.com/story"),
    ]
    assert ingest(b"\xef\xbb\xbf") == plain
    (tmp_path / "posts.tsv").write_bytes(b"\xef\xbb\xbfa\t1\tx\na\t1100\t#one \xff\n")
    with pytest.raises(MalformedRecord) as err:
        load_lines(tmp_path / "posts.tsv")
    assert err.value.line_no == 2


@pytest.mark.parametrize("prefix", [b"\xef", b"\xef\xbb"])
def test_incomplete_byte_order_mark_is_malformed(tmp_path, capsys, prefix):
    # The first one or two bytes of a BOM, and nothing else, are not UTF-8.
    posts = tmp_path / "posts.tsv"
    posts.write_bytes(prefix)
    with pytest.raises(MalformedRecord) as err:
        load_lines(posts)
    assert (err.value.path, err.value.line_no) == (str(posts), 1)
    (tmp_path / "follows.tsv").write_text("a\tb\n")
    code = main(["ingest", "--posts", str(posts), "--follows", str(tmp_path / "follows.tsv"),
                 "--window-start", "0", "--window-end", "10", "--out", str(tmp_path / "cache")])
    assert code == 2
    assert f"error: {posts}:1: not UTF-8" in capsys.readouterr().err


def test_load_corpus_empty_window(tmp_path):
    p, f = _write(tmp_path, "a\t1\t#x\n", "a\tb\n")
    with pytest.raises(EmptyCorpus):
        load_corpus(p, f, CFG)


def test_ingest_config_replace_is_checked_like_a_new_config():
    with pytest.raises(InvalidSpec, match=r"window \[1000, 1000\) is empty"):
        CFG._replace(window_end=1000)
    with pytest.raises(InvalidSpec):
        CFG._replace(window_start=3000)
    assert CFG._replace(pre_extracted=True).pre_extracted is True
    assert type(CFG._replace()) is IngestConfig


def test_load_corpus_pre_extracted(tmp_path):
    cfg = IngestConfig(
        window_start=1000,
        window_end=2000,
        require_pre_window_activity=False,
        pre_extracted=True,
    )
    posts = "a\t1100\thashtag\tfoo\na\t1200\turl\tx.com/1\n"
    p, f = _write(tmp_path, posts, "b\ta\n")
    corpus = load_corpus(p, f, cfg)
    a = [u for u, lbl in corpus.user_labels.items() if lbl == "a"][0]
    assert corpus.memes_by_user[a] == frozenset(
        {("hashtag", "foo"), ("url", "x.com/1")}
    )


def test_load_corpus_pre_extracted_bad_kind(tmp_path):
    cfg = IngestConfig(window_start=0, window_end=10, pre_extracted=True,
                       require_pre_window_activity=False)
    p, f = _write(tmp_path, "a\t5\tgif\tfoo\n", "a\tb\n")
    with pytest.raises(MalformedRecord):
        load_corpus(p, f, cfg)


def test_pre_extracted_memes_share_one_kind_string(tmp_path):
    cfg = IngestConfig(window_start=0, window_end=100, pre_extracted=True,
                       require_pre_window_activity=False)
    posts = "".join(f"u{i}\t{i}\t{kind}\tk{i}\n" for i, kind in enumerate(MEME_KINDS * 3))
    p, f = _write(tmp_path, posts, "u0\tu1\n")
    corpus = load_corpus(p, f, cfg)
    loaded = _load_cached(_save_corpus(corpus, tmp_path / "cache"))
    assert loaded == corpus
    for one in (corpus, loaded):
        assert len(one.first_mention) == 12
        assert len({id(meme[0]) for meme in one.first_mention}) == len(MEME_KINDS)
    p.write_text(posts + "u0\t5\tgif\tk\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match="posts.tsv:13: unknown meme kind 'gif'"):
        load_corpus(p, f, cfg)


def _reference_corpus(posts_path, follows_path, config):
    """What ``load_corpus`` builds, the plain way: a set of followees per
    follower and a tuple per event, handed to ``Corpus.from_events``.
    Pre-extracted memes get the shared kind string, as in ``load_corpus``."""
    ids: dict[str, int] = {}
    def uid(label):
        return ids.setdefault(label, len(ids))
    events, counts, active = [], {}, set()
    for line in load_lines(posts_path):
        label, time_s, *rest = line.split("\t")
        user, time = uid(label), int(time_s)
        if time < config.window_start:
            active.add(user)
        elif time < config.window_end:
            counts[user] = counts.get(user, 0) + 1
            if config.pre_extracted:
                memes = [(MEME_KINDS[MEME_KINDS.index(rest[0])], rest[1])]
            else:
                memes = extract_memes(rest[0])
            events += [(user, meme, time) for meme in memes]
    follows: dict[int, set[int]] = {}
    for line in load_lines(follows_path):
        follower, followee = map(uid, line.split("\t"))
        if follower != followee:
            follows.setdefault(follower, set()).add(followee)
    if config.require_pre_window_activity:
        events = [ev for ev in events if ev[0] in active]
        counts = {u: c for u, c in counts.items() if u in active}
        follows = {u: {v for v in vs if v in active} for u, vs in follows.items()
                   if u in active}
    return Corpus.from_events(events, follows, post_counts=counts,
                              user_labels={uid: label for label, uid in ids.items()})


_LABELS = st.sampled_from(["a", "b", "c", "d", "e"])


@settings(max_examples=150, deadline=None)
@given(
    st.booleans(),
    st.booleans(),
    # Window [10, 20): times before it mark users active, times after it are dropped.
    st.lists(st.tuples(_LABELS, st.integers(0, 30),
                       st.sampled_from(["", "no memes", "#x", "#X #y #x",
                                        "see http://ex.com/p #y", "www.ex.com/q #z"]),
                       st.sampled_from(MEME_KINDS), st.sampled_from(["k1", "k2", "k3"])),
             max_size=25),
    st.lists(st.tuples(_LABELS, _LABELS), max_size=25),  # repeats and self-follows
)
def test_load_corpus_matches_set_and_tuple_reference(pre_extracted, active_only, posts,
                                                     follows):
    config = IngestConfig(window_start=10, window_end=20, pre_extracted=pre_extracted,
                          require_pre_window_activity=active_only)
    lines = [(label, str(t), kind, key) if pre_extracted else (label, str(t), text)
             for label, t, text, kind, key in posts]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        p, f = _write(tmp, "".join("\t".join(x) + "\n" for x in lines),
                      "".join(f"{a}\t{b}\n" for a, b in follows))
        try:
            want = _reference_corpus(p, f, config)
        except EmptyCorpus:
            with pytest.raises(EmptyCorpus):
                load_corpus(p, f, config)
            return
        got = load_corpus(p, f, config)
        assert got == want
        assert (_save_corpus(got, tmp / "got").read_bytes()
                == _save_corpus(want, tmp / "want").read_bytes())


_KIND_POSTS = (
    "ego\t100\twarmup\n"
    "A\t100\twarmup\n"
    "B\t100\twarmup\n"
    "A\t1100\t#m1 posted at some point\n"
    "A\t1300\t#m2\n"
    "B\t1200\tno memes here\n"
    "B\t1150\t#m1\n"
)
_KIND_FOLLOWS = "ego\tA\nego\tB\n"


@pytest.fixture
def kind_corpus(tmp_path):
    return load_corpus(*_write(tmp_path, _KIND_POSTS, _KIND_FOLLOWS), CFG)


def _uid(corpus, label):
    return [u for u, lbl in corpus.user_labels.items() if lbl == label][0]


def test_ego_context_restricts_to_kind_posters(kind_corpus):
    ego = _uid(kind_corpus, "ego")
    ctx = ego_context(kind_corpus, ego, "hashtag")
    assert ctx.followees == {_uid(kind_corpus, "A"), _uid(kind_corpus, "B")}
    with pytest.raises(UndefinedMeasure, match="0 followees posting url"):
        ego_context(kind_corpus, ego, "url")


def test_ego_context_receipt_is_earliest_followee_post(tmp_path):
    # A posts m1 at 1100 and m2 at 1300, B posts m1 at 1150. C, active but
    # unfollowed, posts both memes at 1000, their first mention. Receipts
    # at 1100 and 1300 give a mean delay of 200 s; a receipt of m1 at B's
    # 1150 would give 225 s.
    posts = _KIND_POSTS + "C\t100\twarmup\nC\t1000\t#m1 #m2\n"
    corpus = load_corpus(*_write(tmp_path, posts, _KIND_FOLLOWS), CFG)
    ego = _uid(corpus, "ego")
    ctx = ego_context(corpus, ego, "hashtag")
    m1, m2 = ("hashtag", "m1"), ("hashtag", "m2")
    assert ctx.memes == {m1, m2}
    assert corpus.first_mention == {m1: 1000, m2: 1000}
    assert delay_efficiency(ctx, corpus) == pytest.approx(1 / (1 + 200 / 86400), rel=1e-12)


def test_ego_context_min_followees(kind_corpus):
    ego = _uid(kind_corpus, "ego")
    with pytest.raises(UndefinedMeasure, match=r"posting hashtag \(need 3\)"):
        ego_context(kind_corpus, ego, "hashtag", min_followees=3)


def test_ego_context_nobody_followed(kind_corpus):
    with pytest.raises(UndefinedMeasure, match="0 followees posting hashtag"):
        ego_context(kind_corpus, _uid(kind_corpus, "A"), "hashtag")


def test_ego_context_deterministic(kind_corpus):
    ego = _uid(kind_corpus, "ego")
    a = ego_context(kind_corpus, ego, "hashtag")
    b = ego_context(kind_corpus, ego, "hashtag")
    assert a == b


def test_load_corpus_drops_self_follow(tmp_path):
    cfg = IngestConfig(window_start=1000, window_end=2000,
                       require_pre_window_activity=False)
    posts = "a\t1100\t#x\nb\t1200\t#y\n"
    p, f = _write(tmp_path, posts, "a\ta\na\tb\n")
    corpus = load_corpus(p, f, cfg)
    a, b = _uid(corpus, "a"), _uid(corpus, "b")
    assert corpus.follows == {a: (b,)}
    ctx = ego_context(corpus, a, "hashtag")
    assert ctx.followees == {b}
    assert ctx.memes == {("hashtag", "y")}
