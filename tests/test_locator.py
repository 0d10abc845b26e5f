"""Term-addressed postings reads (query/locator.py): a cache-cold query
reads one record from the term's hash-shard file — exactly its lean bytes
for BM25, its whole record with positions — the Ray-native equivalent of
the reference's term → block_ids addressing (index_merge_writer.rs:65-68,
index_metadata.rs:3-48)."""

import glob
import importlib.util
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from search_engine_ray.config import EngineConfig
from search_engine_ray.functions.hashing import hash_strings_arrow, poly_hash_str
from search_engine_ray.pipelines.build import build_index
from search_engine_ray.query.engine import SearchEngine
from search_engine_ray.query.postings_codec import LEAN_COLUMNS, decode_term_chunks
from search_engine_ray.sources.webpages import generate_webpages
from search_engine_ray.functions.vb import encode_ascending
from search_engine_ray.stages.postings_file import ShardFile, read_posting_rows, shard_file


@pytest.fixture(scope="module")
def sharded_index(ray_session, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("loc") / "idx")
    corpus = generate_webpages(2000, vocab_size=3000, tokens_per_doc=60, seed=11)
    cfg = EngineConfig(index_shards=8, min_rows_per_file=None)
    build_index(corpus, out, cfg)
    return out, cfg


def _mid_df_term(eng) -> str:
    dic = pq.read_table(eng.paths.dictionary, columns=["term", "df"]).to_pandas()
    return dic.sort_values("df").iloc[len(dic) // 2]["term"]


class TestHashKernel:
    def test_vectorized_matches_scalar(self):
        strs = ["", "a", "zz", "hello", "ünïcode", "x" * 500, "term42"]
        arr = pa.array(strs, pa.string())
        h = hash_strings_arrow(arr)
        for i, s in enumerate(strs):
            assert int(h[i]) == poly_hash_str(s), s
        # sliced arrays honour the offset
        h2 = hash_strings_arrow(arr.slice(2, 3))
        for i, s in enumerate(strs[2:5]):
            assert int(h2[i]) == poly_hash_str(s), s


class TestLocator:
    def test_layout_is_sharded(self, sharded_index):
        out, cfg = sharded_index
        dirs = glob.glob(os.path.join(out, "postings", "shard=*"))
        assert len(dirs) == cfg.index_shards
        for d in dirs:
            assert os.path.exists(os.path.join(d, "_MANIFEST.json"))
            # exactly one data file per shard: its flat postings file
            assert sorted(f for f in os.listdir(d) if not f.startswith("_")) == [
                "postings.bin"]

    def test_cold_read_reads_one_record(self, sharded_index):
        out, cfg = sharded_index
        eng = SearchEngine(out, cfg, build_bktree=False)
        term = _mid_df_term(eng)
        shard = eng.locator.shard_of(term)
        _off, lean, nbytes, df = ShardFile(shard_file(eng.paths.postings, shard)).entry(term)
        assert 0 < lean < nbytes

        # BM25 miss: one pread of the record's lean part
        assert eng.get_postings(term, positions=False).df == df
        assert (eng.locator.reads, eng.locator.bytes_read) == (1, lean)
        # positional upgrade: one pread of the whole record
        assert len(eng.get_postings(term).pos_values) > 0
        assert (eng.locator.reads, eng.locator.bytes_read) == (2, lean + nbytes)
        # only the term's own shard file was opened
        assert list(eng.locator._shards) == [shard]

    def test_locator_read_equals_full_scan(self, sharded_index):
        out, cfg = sharded_index
        eng = SearchEngine(out, cfg, build_bktree=False)
        dic = pq.read_table(eng.paths.dictionary, columns=["term"]).to_pandas()
        full = pa.concat_tables(ray.get(
            read_posting_rows(eng.paths.postings, positions=True).to_arrow_refs()))
        full = full.set_column(0, "term", full["term"].cast(pa.string()))
        for term in dic["term"].sample(25, random_state=7):
            got = decode_term_chunks(eng.locator.read(term))
            want = full.filter(pc.equal(full["term"], term))
            np.testing.assert_array_equal(got.doc_ids, want["doc_id"], err_msg=term)
            np.testing.assert_array_equal(got.tfs, want["tf"], err_msg=term)
            assert [encode_ascending(got.positions_of(i)) for i in range(got.df)] == (
                want["pos_enc"].to_pylist()), term

    def test_missing_term_empty(self, sharded_index):
        out, cfg = sharded_index
        eng = SearchEngine(out, cfg, build_bktree=False)
        assert eng.get_postings("nosuchtermxyz") is None
        assert eng.locator.read("nosuchtermxyz").num_rows == 0

    def test_lean_read_excludes_positions(self, sharded_index):
        out, cfg = sharded_index
        eng = SearchEngine(out, cfg, build_bktree=False)
        dic = pq.read_table(eng.paths.dictionary, columns=["term"]).to_pandas()
        term = dic["term"].iloc[0]
        rec = eng.locator.read(term, columns=LEAN_COLUMNS)
        assert not rec.positional and len(rec.data) == rec.lean_nbytes
        assert decode_term_chunks(rec).pos_offsets is None
        rows = read_posting_rows(eng.paths.postings).take_all()
        assert rows and set(rows[0]) == {"term", "df", "doc_id", "tf"}

    def test_wand_matches_exhaustive_on_sharded_layout(self, sharded_index):
        out, cfg = sharded_index
        eng = SearchEngine(out, cfg, build_bktree=False)
        dic = pq.read_table(eng.paths.dictionary, columns=["term", "df"]).to_pandas()
        hot = dic.sort_values("df", ascending=False)["term"].head(3).tolist()
        q = " ".join(hot)
        assert eng.bm25_topk_wand(q, 10) == eng.bm25_topk(q, 10)
        ids = eng.boolean_and(q)
        assert isinstance(ids, np.ndarray)


def test_query_trace_reports_locator_reads(sharded_index):
    """perfbench's per-layer tracer runs over a built index: cache-miss
    queries go through the traced ``locator.read``."""
    out, cfg = sharded_index
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    eng = SearchEngine(out, cfg, build_bktree=False)
    dic = pq.read_table(eng.paths.dictionary, columns=["term", "df"]).to_pandas()
    terms = dic.sort_values("df", ascending=False)["term"].tolist()
    qt = tracing.QueryTrace(eng)
    try:
        for i in range(0, 40, 2):
            assert qt.run(f"{terms[i]} {terms[i + 1]}")
        m = qt.layer_metrics()
    finally:
        qt.remove()
    assert m["query.locator.read.calls_per_q"] > 0
    assert m["query.codec.postings_per_q"] > 0
    assert m["query.locator.bytes_per_read"] > 0
