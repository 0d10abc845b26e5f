"""The flat shard-file codec (stages/postings_file.py): what a shard file
stores reads back exactly — lean and positional records, and the chunk
rows regenerated from it — and a damaged file raises, naming the file and
the term, instead of serving a short postings list."""

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
from search_engine_ray.stages.merge import chunk_rows_from_postings
from search_engine_ray.stages import postings_file
from search_engine_ray.stages.postings_file import (
    _FOOTER,
    ShardFile,
    ShardWriter,
    chunk_rows_of_shard,
    join_shard_parts,
    read_chunk_rows,
    shard_file,
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


def _expected_chunks(shard, chunk_size, salt_span) -> pa.Table:
    parts = []
    for t, (doc_ids, positions) in shard.items():
        salts = doc_ids // salt_span
        for s in np.unique(salts):
            m = np.flatnonzero(salts == s)
            pos = [positions[i] for i in m]
            off = np.zeros(len(m) + 1, np.int64)
            np.cumsum([len(p) for p in pos], out=off[1:])
            parts.append(chunk_rows_from_postings(
                t, int(s), doc_ids[m], np.diff(off), off, np.concatenate(pos),
                chunk_size))
    return pa.concat_tables(parts)


@pytest.mark.parametrize("chunk_size,salt_span", [DEFAULT, TINY])
@settings(max_examples=20, deadline=None)
@given(shard=shards())
def test_shard_codec_roundtrip(tmp_path_factory, shard, chunk_size, salt_span):
    path = str(tmp_path_factory.mktemp("flat") / "shard=0" / "postings.bin")
    n_chunks = _write(path, shard, chunk_size, salt_span)
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
    want = _expected_chunks(shard, chunk_size, salt_span)
    got = pa.concat_tables(chunk_rows_of_shard(path))
    assert got.equals(want)
    assert n_chunks == sf.chunk_rows == want.num_rows
    lean_cols = ["term", "salt", "n_postings", "max_tf", "doc_gaps", "tfs"]
    assert pa.concat_tables(chunk_rows_of_shard(path, lean_cols)).equals(want.select(lean_cols))


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
    assert join_shard_parts(joined, parts) == ShardFile(whole).chunk_rows
    with open(whole, "rb") as f1, open(joined, "rb") as f2:
        assert f1.read() == f2.read()
    assert not any(os.path.exists(p) for p in parts)


@settings(max_examples=10, deadline=None)
@given(shard=shards())
def test_chunk_rows_batched_equal_one_batch(tmp_path_factory, shard):
    """Chunk rows regenerated a few records at a time equal one batch."""
    path = str(tmp_path_factory.mktemp("batch") / "shard=0" / "postings.bin")
    _write(path, shard, *TINY)
    want = pa.concat_tables(chunk_rows_of_shard(path))
    with mock.patch.object(postings_file, "_BATCH_BYTES", 1):
        got = list(chunk_rows_of_shard(path))
    assert len(got) == len(shard)
    assert pa.concat_tables(got).equals(want)


@pytest.fixture()
def shard_dir(tmp_path):
    d = str(tmp_path / "postings")
    _write(shard_file(d, 0), SHARD, *TINY)
    return d


def test_read_chunk_rows_over_ray(ray_session, shard_dir):
    got = pa.concat_tables(ray.get(read_chunk_rows(shard_dir).to_arrow_refs()))
    assert got.combine_chunks().equals(_expected_chunks(SHARD, *TINY))


def test_manifest_counts_shard_files(shard_dir):
    path = shard_file(shard_dir, 0)
    doc = manifests.write_manifest(shard_dir, "postings", "fp")
    assert doc["partitions"] == [{"path": os.path.join("shard=0", "postings.bin"),
                                  "bytes": os.path.getsize(path),
                                  "rows": _expected_chunks(SHARD, *TINY).num_rows}]
    assert doc["num_rows"] == ShardFile(path).chunk_rows > 0


def test_empty_shard_file(tmp_path):
    """A shard no postings hash to still gets a file, which reads as empty."""
    path = shard_file(str(tmp_path), 3)
    ShardWriter(path, *DEFAULT).close()
    sf = ShardFile(path)
    assert sf.terms == [] and sf.chunk_rows == 0
    assert sf.read("alpha", positions=True).num_rows == 0
    assert pa.concat_tables(chunk_rows_of_shard(path)).num_rows == 0
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


def _patch_entry(path, term_index, **deltas):
    """Add ``deltas`` (``lean``, ``pos`` bytes, ``df``) to one term's
    term-table entry and rewrite the table and footer."""
    with open(path, "rb") as f:
        data = f.read()
    magic, n, table_at, table_vb, *rest = _FOOTER.unpack(data[-_FOOTER.size:])
    cols = vb_decode_array(np.frombuffer(data, np.uint8, table_vb, table_at)
                           ).astype(np.int64).reshape(4, n)
    for row, name in enumerate(("lean", "pos", "df")):
        cols[row, term_index] += deltas.get(name, 0)
    table, _ = vb_encode_array(cols.ravel())
    with open(path, "wb") as f:
        f.write(data[:table_at] + table.tobytes() + data[table_at + table_vb:-_FOOTER.size]
                + _FOOTER.pack(magic, n, table_at, len(table), *rest))


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
@pytest.mark.parametrize("columns", [None, ["term", "n_postings", "max_tf"]])
def test_damaged_entry_never_regenerates_chunk_rows(shard_dir, deltas, columns):
    """Chunk-row regeneration decodes many records at once; a record that
    does not hold its table entry still raises, naming file and term."""
    path = shard_file(shard_dir, 0)
    _patch_entry(path, 0, **deltas)
    with pytest.raises(DamagedShardError, match=f"{re.escape(path)}.*'alpha'"):
        list(chunk_rows_of_shard(path, columns))
