"""The order store beside a corpus cache: each analysis command reuses the
greedy orders an earlier analysis of the same cache computed, and a
store that cannot serve is skipped without changing a byte of output."""
import contextlib
import io
import os
import pickle
import shutil
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedcover import cli
from feedcover import cover as cover_mod
from feedcover.cli import main
from feedcover.model import MEME_KINDS, Corpus
from feedcover.synth import generate_triadic_events

from test_golden import EGOS, GOLDEN, RAW_TEXT, WINDOW, _tree


def run(argv) -> tuple[int, str, str]:
    """``main(argv)``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def outcome(argv, out: Path) -> tuple:
    """What one analysis run shows: exit code, stdout, stderr and the
    bytes of every report it writes under ``out``."""
    return (*run([*argv, "--out", out]), _tree(out) if out.exists() else None)


def stores(cache: Path) -> list[str]:
    return sorted(p.name for p in cache.glob("*.orders"))


def fresh_copy(corpus_pkl: Path, where: Path) -> Path:
    """A copy of the cache alone, without its stores."""
    where.mkdir(parents=True)
    return Path(shutil.copyfile(corpus_pkl, where / "corpus.pkl"))


@pytest.fixture
def golden_cache(tmp_path) -> Path:
    """The golden random-bipartite corpus, ingested as ``test_golden.produce`` does."""
    data = GOLDEN / "synth_random_bipartite"
    code, _, _ = run(["ingest", "--posts", data / "posts.tsv", "--follows", data / "follows.tsv",
                      *WINDOW, "--pre-extracted", "--out", tmp_path / "cache"])
    assert code == 0
    return tmp_path / "cache" / "corpus.pkl"


# ---------------------------------------------------------------- reuse


def triadic_cache(seed: int, n_communities: int, community_size: int,
                  where: Path) -> tuple[Path, list[str]]:
    """A triadic corpus cache with labels ``u<id>``, and its egos' labels.
    Egos of one community share their universe, and members post often
    enough for a joint weight to overflow at ``--alpha 400``."""
    events, follows, egos = generate_triadic_events(seed, n_communities, community_size)
    users = {user for user, _, _ in events} | set(follows)
    corpus = Corpus.from_events(events, follows, user_labels={u: f"u{u}" for u in users})
    return cli._save_corpus(corpus, where), [f"u{u}" for u in egos]


_COVERAGES = st.sampled_from([0.25, 0.5, 1.0])
_COMMANDS = st.one_of(
    st.tuples(st.just("efficiency"), st.sets(_COVERAGES, min_size=1)),
    st.tuples(st.just("cover"), st.sampled_from(sorted(cover_mod.ENGINES)), _COVERAGES),
    st.tuples(st.just("optimize")),
    st.tuples(st.just("egonet")),
)


def analysis_argv(command: tuple, corpus_pkl: Path, egos: str, alpha: float,
                  beta: float) -> list:
    name, *options = command
    argv = [name, "--corpus", corpus_pkl, "--egos", egos, "--min-followees", "1",
            "--alpha", alpha, "--beta", beta, "--no-header-timestamp"]
    if name == "efficiency":
        for p in sorted(options[0]):
            argv += ["--coverage", p]
    elif name == "cover":
        method, coverage = options
        argv += ["--method", method, "--coverage", 1.0 if method == "delay" else coverage]
    return argv


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 50),
    n_communities=st.integers(1, 3),
    community_size=st.integers(3, 5),
    runs=st.lists(st.tuples(
        _COMMANDS,
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 400.0]),
        st.sampled_from([0.0, 0.5, 1.0]),
    ), min_size=2, max_size=5),
    data=st.data(),
)
def test_every_analysis_on_a_used_cache_matches_a_fresh_copy(
        seed, n_communities, community_size, runs, data):
    # Commands run one after another on one cache, so each may read the
    # orders that the ones before it stored; each must show exactly what
    # it shows on a fresh copy of the cache, which has no store.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus_pkl, labels = triadic_cache(seed, n_communities, community_size, tmp / "cache")
        for i, (command, alpha, beta) in enumerate(runs):
            egos = ",".join(data.draw(
                st.lists(st.sampled_from(labels), min_size=1, max_size=6, unique=True)))
            shared = outcome(analysis_argv(command, corpus_pkl, egos, alpha, beta),
                             tmp / f"shared{i}")
            fresh = fresh_copy(corpus_pkl, tmp / f"fresh{i}")
            assert shared == outcome(analysis_argv(command, fresh, egos, alpha, beta),
                                     tmp / f"fresh_out{i}")


def test_optimize_and_egonet_after_efficiency_leave_the_store_alone(golden_cache, tmp_path,
                                                                   monkeypatch):
    # After efficiency, the store serves every order that optimize and
    # egonet need: neither builds a pool, runs the kernel or rewrites it.
    common = ["--corpus", golden_cache, *EGOS]
    assert run(["efficiency", *common, "--out", tmp_path / "efficiency"])[0] == 0
    store = cli._store_path(golden_cache, "hashtag")
    assert stores(golden_cache.parent) == [store.name]
    before = store.read_bytes(), os.stat(store)

    def rebuilt(*args):
        raise AssertionError("an order was rebuilt")

    monkeypatch.setattr(cover_mod, "candidate_pool", rebuilt)
    monkeypatch.setattr(cover_mod, "_greedy_order", rebuilt)
    for name in ("optimize", "egonet"):
        assert run([name, *common, "--out", tmp_path / name])[0] == 0
        assert _tree(tmp_path / name) == _tree(GOLDEN / name)
        after = store.read_bytes(), os.stat(store)
        assert after[0] == before[0]
        assert (after[1].st_ino, after[1].st_mtime_ns) == (before[1].st_ino, before[1].st_mtime_ns)


def test_a_store_that_misses_an_order_is_rewritten_with_it(golden_cache, tmp_path):
    # Partial-coverage efficiency runs no joint cover; optimize then adds
    # the joint order of every ego it evaluates to the store.
    common = ["--corpus", golden_cache, *EGOS]
    assert run(["efficiency", *common, "--coverage", "0.5", "--out", tmp_path / "e"])[0] == 0
    identity = cli._store_identity(golden_cache)
    store = cli._store_path(golden_cache, "hashtag")
    first = cli._load_store(store, identity)
    assert {tuple(entry) for entry in first.values()} == {("link", "inflow")}
    assert run(["optimize", *common, "--out", tmp_path / "o"])[0] == 0
    second = cli._load_store(store, identity)
    assert sorted(second) == sorted(first)
    for ego, entry in second.items():
        assert entry == {**first[ego], ("joint", 1.0, 0.5): entry[("joint", 1.0, 0.5)]}


# ---------------------------------------------------------------- skipped stores


class _Mkdir:
    """Pickles as a call of ``os.mkdir(path)``: a global that a store must refuse."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return os.mkdir, (self.path,)


def _doctor(corpus_pkl: Path) -> None:
    """Run ``cover --method link`` to store its orders, then store them
    reversed, so that a run which reads the store shows it."""
    assert run(["cover", "--corpus", corpus_pkl, *EGOS, "--method", "link",
                "--out", corpus_pkl.parent / "_first"])[0] == 0
    shutil.rmtree(corpus_pkl.parent / "_first")
    store = cli._store_path(corpus_pkl, "hashtag")
    orders = cli._load_store(store, cli._store_identity(corpus_pkl))
    assert len(orders) == 5
    cli._save_store(store, cli._store_identity(corpus_pkl),
                    {ego: {"link": entry["link"][::-1]} for ego, entry in orders.items()})


def _truncated(corpus_pkl, tmp_path, monkeypatch):
    store = cli._store_path(corpus_pkl, "hashtag")
    store.write_bytes(store.read_bytes()[:-20])


def _corrupt(corpus_pkl, tmp_path, monkeypatch):
    store = cli._store_path(corpus_pkl, "hashtag")
    data = bytearray(store.read_bytes())
    data[-20] ^= 1
    store.write_bytes(bytes(data))


def _global_in_header(corpus_pkl, tmp_path, monkeypatch):
    store = cli._store_path(corpus_pkl, "hashtag")
    store.write_bytes(pickle.dumps(_Mkdir(tmp_path / "ran")) + store.read_bytes())


def _global_in_payload(corpus_pkl, tmp_path, monkeypatch):
    # The header matches the cache and the payload's crc32.
    payload = pickle.dumps({0: {"link": _Mkdir(tmp_path / "ran")}})
    header = pickle.dumps((cli._store_identity(corpus_pkl), zlib.crc32(payload)))
    cli._store_path(corpus_pkl, "hashtag").write_bytes(header + payload)


def _other_corpus(corpus_pkl, tmp_path, monkeypatch):
    # The store was made for another cache with the same modification time.
    other, _ = triadic_cache(1, 1, 4, tmp_path / "other")
    stat = os.stat(corpus_pkl)
    os.utime(other, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    store = cli._store_path(corpus_pkl, "hashtag")
    orders = cli._load_store(store, cli._store_identity(corpus_pkl))
    cli._save_store(store, cli._store_identity(other), orders)


def _copied_cache(corpus_pkl, tmp_path, monkeypatch):
    # The cache directory is a copy, with the same bytes and modification
    # times: the store belongs to the cache file it was written beside.
    original = tmp_path / "original"
    corpus_pkl.parent.rename(original)
    shutil.copytree(original, corpus_pkl.parent)
    assert os.stat(corpus_pkl).st_mtime_ns == os.stat(original / "corpus.pkl").st_mtime_ns


def _other_code(corpus_pkl, tmp_path, monkeypatch, module="cover.py"):
    # The store was written by a feedcover whose ``module`` had other bytes:
    # the running cli.py sits in a copy of the package with that change.
    package = tmp_path / "feedcover"
    package.mkdir()
    for source in Path(cli.__file__).parent.glob("*.py"):
        shutil.copyfile(source, package / source.name)
    with open(package / module, "ab") as fh:
        fh.write(b"# changed\n")
    monkeypatch.setattr(cli, "__file__", str(package / "cli.py"))


def _other_ingest(corpus_pkl, tmp_path, monkeypatch):
    # ``ingest.ego_context`` derives the universe that the orders cover.
    _other_code(corpus_pkl, tmp_path, monkeypatch, "ingest.py")


def _other_model(corpus_pkl, tmp_path, monkeypatch):
    # ``Corpus``'s views give the candidate pool and each candidate's memes.
    _other_code(corpus_pkl, tmp_path, monkeypatch, "model.py")


def _store_is_a_directory(corpus_pkl, tmp_path, monkeypatch):
    # Unreadable and unwritable whoever runs the test.
    store = cli._store_path(corpus_pkl, "hashtag")
    store.unlink()
    store.mkdir()


@pytest.mark.parametrize("spoil", [
    None, _truncated, _corrupt, _global_in_header, _global_in_payload, _other_corpus,
    _copied_cache, _other_code, _other_ingest, _other_model, _store_is_a_directory,
], ids=lambda spoil: spoil.__name__.strip("_") if spoil else "intact")
def test_a_store_that_cannot_serve_is_skipped(golden_cache, tmp_path, monkeypatch, spoil):
    # A doctored store reverses each ego's link picks. Intact, the run
    # shows it; spoiled, the run matches a fresh copy of the cache, runs
    # no code from the store and exits as that copy does.
    argv = ["cover", *EGOS, "--method", "link"]
    fresh = outcome([*argv, "--corpus", fresh_copy(golden_cache, tmp_path / "fresh")],
                    tmp_path / "fresh_out")
    assert fresh[:3] == (0, "rows: 18  egos skipped: 1\n", "skip ego 3: 1 followees "
                         "posting hashtag (need 3)\n")
    _doctor(golden_cache)
    if spoil is not None:
        spoil(golden_cache, tmp_path, monkeypatch)
    shown = outcome([*argv, "--corpus", golden_cache], tmp_path / "out")
    assert not (tmp_path / "ran").exists()
    assert not list(golden_cache.parent.glob("*.tmp"))
    if spoil is None:
        assert shown[:3] == fresh[:3] and shown[3] != fresh[3]
    else:
        assert shown == fresh


def test_read_only_cache_directory(golden_cache, tmp_path):
    # Under a user who cannot write the directory no store is written;
    # either way every report, stdout and stderr matches the writable run.
    cache = golden_cache.parent
    common = [*EGOS, "--corpus"]
    writable = fresh_copy(golden_cache, tmp_path / "writable")
    expected = [outcome([name, *common, writable], tmp_path / f"w_{name}")
                for name in ("efficiency", "optimize", "egonet")]
    cache.chmod(0o555)
    try:
        locked = not os.access(cache, os.W_OK)
        shown = [outcome([name, *common, golden_cache], tmp_path / f"r_{name}")
                 for name in ("efficiency", "optimize", "egonet")]
        listing = stores(cache)
    finally:
        cache.chmod(0o755)
    assert shown == expected
    if locked:
        assert listing == []
    assert stores(writable.parent) == ["corpus.hashtag.orders"]


# ---------------------------------------------------------------- ingest


def test_ingest_removes_the_stores_and_replaces_the_cache(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    for name, text in RAW_TEXT.items():
        (raw / name).write_text(text, encoding="utf-8")
    ingest = ["ingest", "--posts", raw / "posts.tsv", "--follows", raw / "follows.tsv",
              "--window-start", "100", "--window-end", "1000",
              "--news-domains", raw / "news_domains.txt",
              "--url-aliases", raw / "url_aliases.tsv", "--out", tmp_path / "cache"]
    corpus_pkl = tmp_path / "cache" / "corpus.pkl"
    assert run(ingest)[0] == 0
    for kind in MEME_KINDS:
        run(["efficiency", "--corpus", corpus_pkl, "--meme-kind", kind, "--min-followees", "1",
             "--out", tmp_path / kind])
    assert stores(corpus_pkl.parent) == [f"corpus.{kind}.orders" for kind in sorted(MEME_KINDS)]
    before = os.stat(corpus_pkl)
    assert run(ingest)[0] == 0
    assert sorted(p.name for p in corpus_pkl.parent.iterdir()) == ["corpus.pkl"]
    assert os.stat(corpus_pkl).st_ino != before.st_ino
