"""The flat shard-file codec (stages/postings_file.py): what a shard file
stores reads back exactly — lean and positional records, the posting rows
the index-wide reader decodes and the per-term statistics of its term
table — and a damaged file raises, naming the file and the term, instead
of serving a short postings list."""

import os
import re
from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
import ray
from hypothesis import given, settings
from hypothesis import strategies as st

from search_engine_ray.functions.vb import encode_ascending, vb_decode_array, vb_encode_array
from search_engine_ray.query.locator import PostingsLocator
from search_engine_ray.query.postings_codec import DamagedShardError, decode_term_chunks
from search_engine_ray.stages import postings_file
from search_engine_ray.stages.postings_file import (
    _FOOTER,
    ShardFile,
    ShardWriter,
    join_shard_parts,
    read_posting_rows,
    shard_file,
    shard_posting_rows,
    shard_term_stats,
    write_shard_file,
)
from search_engine_ray.state import manifests

DEFAULT = (128, 1 << 20)
TINY = (3, 50_000)


@st.composite
def shards(draw):
    """{term: (doc_ids, [positions per posting])}: df 1–2,000, doc gaps
    ≥ 16,384 (their VB bytes hold interior zeros), tf 1–20."""
    n_terms = draw(st.integers(1, 4))
    terms = sorted(draw(st.sets(st.text("abcxyzé", min_size=1, max_size=6),
                                min_size=n_terms, max_size=n_terms)))
    out = {}
    for t in terms:
        df = draw(st.integers(1, 2000))
        seed = draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        doc_ids = np.cumsum(rng.integers(16_384, 70_000, df)) + draw(st.integers(0, 5))
        tfs = rng.integers(1, 21, df)
        positions = [np.cumsum(rng.integers(1, 40_000, tf)) - 1 for tf in tfs]
        out[t] = (doc_ids.astype(np.int64), [np.asarray(p, np.int64) for p in positions])
    return out


def _rows(shard):
    """(term_id per posting, posting rows) of a shard, in term order."""
    terms = list(shard)
    tids = np.concatenate([np.full(len(shard[t][0]), i, np.int64)
                           for i, t in enumerate(terms)])
    docs = np.concatenate([shard[t][0] for t in terms])
    pos_enc = [encode_ascending(p) for t in terms for p in shard[t][1]]
    return tids, pa.table({"doc_id": pa.array(docs, pa.int64()),
                           "pos_enc": pa.array(pos_enc, pa.binary())})


def _write(path, shard, chunk_size, salt_span) -> int:
    terms = list(shard)
    tids, rows = _rows(shard)
    docs = rows["doc_id"].to_numpy()
    # rows in reverse so the writer's (term_id, doc_id) order does the work
    order = np.lexsort((docs, tids))
    rev = np.arange(len(docs))[::-1]
    rows = rows.take(pa.array(rev))
    inv = np.argsort(rev)
    terms_pa = pa.array(terms, pa.string())
    return write_shard_file(path, rows, tids[rev], inv[order],
                            lambda codes: terms_pa.take(pa.array(codes)),
                            chunk_size, salt_span)


def _expected_rows(shard, positions=True) -> list[dict]:
    """The posting rows of a shard, in (term, doc_id) order."""
    return [dict(term=t, df=len(doc_ids), doc_id=int(d), tf=len(p),
                 **({"pos_enc": encode_ascending(p)} if positions else {}))
            for t, (doc_ids, pos) in shard.items() for d, p in zip(doc_ids, pos)]


def _posting_rows(path, positions=True) -> pa.Table:
    return pa.concat_tables(shard_posting_rows(path, positions))


def _expected_stats(shard, chunk_size, salt_span) -> dict:
    """term → (n_postings, max_tf, n_chunks): the reference's chunks cap
    at chunk_size postings per (term, salt = doc_id // salt_span) group."""
    return {t: (len(doc_ids), max(len(p) for p in pos),
                sum(-(-int(n) // chunk_size)
                    for n in np.unique(doc_ids // salt_span, return_counts=True)[1]))
            for t, (doc_ids, pos) in shard.items()}


def _assert_reads_back(path, shard, chunk_size, salt_span):
    """Every record, the posting rows and the term stats of the shard file
    at ``path`` hold exactly ``shard``."""
    sf = ShardFile(path)
    assert sf.terms == list(shard)
    for t, (doc_ids, positions) in shard.items():
        lean = decode_term_chunks(sf.read(t, positions=False))
        np.testing.assert_array_equal(lean.doc_ids, doc_ids)
        np.testing.assert_array_equal(lean.tfs, [len(p) for p in positions])
        assert lean.pos_offsets is None
        full = decode_term_chunks(sf.read(t, positions=True))
        np.testing.assert_array_equal(full.doc_ids, doc_ids)
        for i, p in enumerate(positions):
            np.testing.assert_array_equal(full.positions_of(i), p)
    all_docs = np.concatenate([d for d, _ in shard.values()])
    assert sf.n_postings == len(all_docs)
    assert (sf.min_doc_id, sf.max_doc_id) == (all_docs.min(), all_docs.max())
    for positions in (True, False):
        rows = _posting_rows(path, positions)
        assert rows.schema == postings_file._posting_rows_schema(positions)
        assert rows.to_pylist() == _expected_rows(shard, positions)
    stats = shard_term_stats(path).to_pylist()
    assert {r["term"]: (r["n_postings"], r["max_tf"], r["n_chunks"]) for r in stats} == (
        _expected_stats(shard, chunk_size, salt_span))


@pytest.mark.parametrize("chunk_size,salt_span", [DEFAULT, TINY])
@settings(max_examples=20, deadline=None)
@given(shard=shards())
def test_shard_codec_roundtrip(tmp_path_factory, shard, chunk_size, salt_span):
    path = str(tmp_path_factory.mktemp("flat") / "shard=0" / "postings.bin")
    n_postings = _write(path, shard, chunk_size, salt_span)
    assert n_postings == sum(len(d) for d, _ in shard.values())
    _assert_reads_back(path, shard, chunk_size, salt_span)


#: record-level edge cases, one term each: a leading position 0 (the delta
#: sentinel edge, helper.rs:6-44), doc id 0, doc and position gaps
#: ≥ 16,384 whose VB bytes hold interior zeros (the reference's delimiter
#: landmine, vb_encode.rs:91-103), and a single posting
EXAMPLES = {
    "position_zero": ([1, 2], [[0], [0, 1, 2]]),
    "doc_id_zero": ([0, 1, 5], [[1], [2], [3]]),
    "large_gaps": ([1, 20_000, 3_000_000, 3_000_001],
                   [[16_384], [0, 20_000], [7], [2**31 - 2]]),
    "single_posting": ([1], [[0, 5, 9]]),
}


@pytest.mark.parametrize("name", list(EXAMPLES))
@pytest.mark.parametrize("chunk_size,salt_span", [DEFAULT, (1, 2)])
def test_record_examples(tmp_path, name, chunk_size, salt_span):
    doc_ids, positions = EXAMPLES[name]
    shard = {"t": (np.array(doc_ids, np.int64), [np.array(p, np.int64) for p in positions])}
    path = str(tmp_path / "shard=0" / "postings.bin")
    _write(path, shard, chunk_size, salt_span)
    _assert_reads_back(path, shard, chunk_size, salt_span)


SHARD = {
    "alpha": (np.array([3, 20_000, 90_000, 90_001], np.int64),
              [np.array([0, 5]), np.array([7]), np.array([1, 2, 30_000]), np.array([4])]),
    "beta": (np.array([1, 2], np.int64), [np.array([9]), np.array([0, 1])]),
    "gamma": (np.array([77], np.int64), [np.array([3, 4, 5])]),
}


@pytest.mark.parametrize("chunk_size,salt_span", [DEFAULT, TINY])
@settings(max_examples=20, deadline=None)
@given(shard=shards(), data=st.data())
def test_joined_parts_equal_one_write(tmp_path_factory, shard, data, chunk_size,
                                      salt_span):
    """Part files of consecutive posting ranges — cut anywhere, inside a
    term and inside a (term, salt) group too — join into the very bytes
    one write of the whole shard gives."""
    d = tmp_path_factory.mktemp("join")
    whole = str(d / "whole.bin")
    _write(whole, shard, chunk_size, salt_span)
    tids, rows = _rows(shard)
    n = len(tids)
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=6)) if n > 1 else [])
    terms_pa = pa.array(list(shard), pa.string())
    parts = []
    for i, (a, b) in enumerate(zip([0] + cuts, cuts + [n])):
        parts.append(str(d / f"part-{i:03d}.bin"))
        write_shard_file(parts[-1], rows, tids, np.arange(a, b),
                         lambda codes: terms_pa.take(pa.array(codes)),
                         chunk_size, salt_span)
    joined = str(d / "shard=0" / "postings.bin")
    assert join_shard_parts(joined, parts) == ShardFile(whole).n_postings
    with open(whole, "rb") as f1, open(joined, "rb") as f2:
        assert f1.read() == f2.read()
    assert not any(os.path.exists(p) for p in parts)


@settings(max_examples=10, deadline=None)
@given(shard=shards())
def test_posting_rows_batched_equal_one_batch(tmp_path_factory, shard):
    """Posting rows decoded a few records at a time equal one batch."""
    path = str(tmp_path_factory.mktemp("batch") / "shard=0" / "postings.bin")
    _write(path, shard, *TINY)
    want = _posting_rows(path).to_pylist()
    with mock.patch.object(postings_file, "_BATCH_BYTES", 1):
        got = list(shard_posting_rows(path, True))
        stats = shard_term_stats(path)
    assert len(got) == len(shard)
    assert pa.concat_tables(got).to_pylist() == want
    assert stats.equals(shard_term_stats(path))


@settings(max_examples=15, deadline=None)
@given(shard=shards())
def test_lean_rows_read_only_lean_parts(tmp_path_factory, shard):
    """Lean posting rows and term stats read back exactly whether a lean
    read skips every gap of position bytes, only the long ones or none, a
    record or the whole shard per batch; skipping every gap preads the
    lean parts and nothing else, skipping none one span per batch."""
    path = str(tmp_path_factory.mktemp("lean") / "shard=0" / "postings.bin")
    _write(path, shard, *TINY)
    sf = ShardFile(path)
    lean_nbytes, payload_nbytes = int(sf.lean.sum()), int(sf.nbytes.sum())
    sf.close()
    want_stats = shard_term_stats(path)
    pread = ShardFile.pread
    for gap in (1, 4 << 10, 1 << 40):
        for batch in (1, 8 << 20):
            read = []

            def counted(self, off, n, term):
                read.append(n)
                return pread(self, off, n, term)

            with mock.patch.object(postings_file, "_LEAN_GAP_BYTES", gap), \
                    mock.patch.object(postings_file, "_BATCH_BYTES", batch):
                with mock.patch.object(ShardFile, "pread", counted):
                    rows = _posting_rows(path, False)
                assert shard_term_stats(path).equals(want_stats)
            assert rows.to_pylist() == _expected_rows(shard, False)
            assert lean_nbytes <= sum(read) < payload_nbytes  # never the last positions
            if gap == 1:
                assert sum(read) == lean_nbytes and len(read) == len(shard)
            elif gap == 1 << 40:
                assert len(read) == (len(shard) if batch == 1 else 1)


@pytest.fixture()
def shard_dir(tmp_path):
    d = str(tmp_path / "postings")
    _write(shard_file(d, 0), SHARD, *TINY)
    return d


@pytest.mark.parametrize("positions", [False, True])
def test_read_posting_rows_over_ray(ray_session, shard_dir, positions):
    ds = read_posting_rows(shard_dir, positions)
    got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert got.to_pylist() == _expected_rows(SHARD, positions)
    empty = read_posting_rows(shard_dir + "-none", positions)
    assert empty.count() == 0
    assert empty.schema().names == got.column_names


def test_manifest_counts_shard_files(shard_dir):
    path = shard_file(shard_dir, 0)
    doc = manifests.write_manifest(shard_dir, "postings", "fp")
    assert doc["partitions"] == [{"path": os.path.join("shard=0", "postings.bin"),
                                  "bytes": os.path.getsize(path),
                                  "rows": len(_expected_rows(SHARD))}]
    assert doc["num_rows"] == ShardFile(path).n_postings == 7


def test_empty_shard_file(tmp_path):
    """A shard no postings hash to still gets a file, which reads as empty."""
    path = shard_file(str(tmp_path), 3)
    ShardWriter(path, *DEFAULT).close()
    sf = ShardFile(path)
    assert sf.terms == [] and sf.n_postings == 0
    assert sf.read("alpha", positions=True).num_rows == 0
    for positions in (True, False):
        rows = _posting_rows(path, positions)
        assert rows.num_rows == 0
        assert rows.schema == postings_file._posting_rows_schema(positions)
    assert shard_term_stats(path).num_rows == 0
    assert manifests.write_manifest(str(tmp_path), "postings", "fp")["num_rows"] == 0


def _locator_read(d, term, positions=True):
    return decode_term_chunks(PostingsLocator(d, 1).read(term, None if positions else ["tfs"]))


@pytest.mark.parametrize("cut", [1, _FOOTER.size, 40])
def test_truncated_shard_raises(shard_dir, cut):
    path = shard_file(shard_dir, 0)
    os.truncate(path, os.path.getsize(path) - cut)
    with pytest.raises(DamagedShardError, match=re.escape(path)):
        ShardFile(path)
    with pytest.raises(DamagedShardError, match=f"{re.escape(path)}.*'beta'"):
        _locator_read(shard_dir, "beta")


def _patch_entry(path, term_index, footer_postings=True, **deltas):
    """Add ``deltas`` (``lean``, ``pos`` bytes, ``df``) to one term's
    term-table entry and rewrite the table and footer; the footer's posting
    count follows the df change unless ``footer_postings`` is False."""
    with open(path, "rb") as f:
        data = f.read()
    magic, n, table_at, table_vb, n_postings, *rest = _FOOTER.unpack(data[-_FOOTER.size:])
    cols = vb_decode_array(np.frombuffer(data, np.uint8, table_vb, table_at)
                           ).astype(np.int64).reshape(5, n)
    for row, name in enumerate(("lean", "pos", "df")):
        cols[row, term_index] += deltas.get(name, 0)
    if footer_postings:
        n_postings += deltas.get("df", 0)
    table, _ = vb_encode_array(cols.ravel())
    with open(path, "wb") as f:
        f.write(data[:table_at] + table.tobytes() + data[table_at + table_vb:-_FOOTER.size]
                + _FOOTER.pack(magic, n, table_at, len(table), n_postings, *rest))


@pytest.mark.parametrize("deltas", [{"pos": 10**6}, {"lean": 10**6}, {"pos": -1}])
def test_entry_not_fitting_payload_raises(shard_dir, deltas):
    path = shard_file(shard_dir, 0)
    _patch_entry(path, 2, **deltas)
    with pytest.raises(DamagedShardError, match=f"{re.escape(path)}.*'gamma'"):
        ShardFile(path)
    # the read that opens the shard names the term it was serving too
    with pytest.raises(DamagedShardError, match="reading term 'alpha'"):
        _locator_read(shard_dir, "alpha")


@pytest.mark.parametrize("deltas", [{"lean": -1, "pos": 1}, {"lean": 1, "pos": -1},
                                    {"df": -1}, {"df": 1}])
@pytest.mark.parametrize("positions", [False, True])
def test_damaged_entry_never_serves_short_postings(shard_dir, deltas, positions):
    path = shard_file(shard_dir, 0)
    _patch_entry(path, 0, **deltas)
    with pytest.raises(DamagedShardError, match=f"{re.escape(path)}.*'alpha'"):
        _locator_read(shard_dir, "alpha", positions)
    # the other records are untouched
    np.testing.assert_array_equal(_locator_read(shard_dir, "beta", positions).doc_ids, [1, 2])


@pytest.mark.parametrize("deltas", [{"lean": -1, "pos": 1}, {"lean": 1, "pos": -1},
                                    {"df": -1}, {"df": 1}])
@pytest.mark.parametrize("positions", [False, True])
def test_damaged_entry_never_yields_posting_rows(ray_session, shard_dir, deltas, positions):
    """The index-wide reader decodes many records at once; a record that
    does not hold its table entry still raises, naming file and term, in
    the read task and through the Ray Dataset."""
    path = shard_file(shard_dir, 0)
    _patch_entry(path, 0, **deltas)
    with pytest.raises(DamagedShardError, match=f"{re.escape(path)}.*'alpha'"):
        list(shard_posting_rows(path, positions))
    with pytest.raises(Exception, match=f"DamagedShardError.*{re.escape(path)}.*'alpha'"):
        read_posting_rows(shard_dir, positions).materialize()


@pytest.mark.parametrize("delta", [-1, 1])
def test_footer_posting_count_checked(shard_dir, delta):
    """A term table whose df total disagrees with the footer's posting
    count does not open."""
    path = shard_file(shard_dir, 0)
    _patch_entry(path, 1, footer_postings=False, df=delta)
    with pytest.raises(DamagedShardError, match=f"{re.escape(path)}: term table holds "
                                                f"{7 + delta} postings, the footer 7"):
        ShardFile(path)
