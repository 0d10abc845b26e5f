"""The dictionary is hive-partitioned by merge unit (VERDICT r2 #2): each
merge unit job reads ONLY dictionary/ugroup=U — nothing vocabulary-sized is
materialized on the driver during the postings merge."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from search_engine_ray.config import EngineConfig
from search_engine_ray.functions.hashing import poly_hash_str
from search_engine_ray.pipelines.build import IndexPaths, build_index
from search_engine_ray.sources.webpages import generate_webpages
from search_engine_ray.stages.merge import load_dict_slice
from search_engine_ray.stages.postings_file import ShardFile, read_chunk_rows, shard_files


def _chunk_rows(out: str) -> pa.Table:
    """The index's chunk rows (read_chunk_rows) in (term, salt, chunk_seq)
    order."""
    t = pa.concat_tables(ray.get(read_chunk_rows(IndexPaths(out).postings).to_arrow_refs()))
    return t.combine_chunks().sort_by(
        [("term", "ascending"), ("salt", "ascending"), ("chunk_seq", "ascending")])


def test_dictionary_hive_partitioned_by_merge_unit(ray_session, tmp_path):
    cfg = EngineConfig()
    pages = generate_webpages(200, vocab_size=500, tokens_per_doc=40, seed=5)
    out = str(tmp_path / "idx")
    paths = build_index(pages, out, cfg)

    unit_dirs = sorted(
        d for d in os.listdir(paths.dictionary) if d.startswith("ugroup=")
    )
    assert unit_dirs, "dictionary must be hive-partitioned by merge unit"

    # whole-dir readers still see the full dictionary
    full = pq.read_table(paths.dictionary, columns=["term", "term_id", "shard"])
    assert full.num_rows > 0
    terms = full["term"].to_pylist()
    shards = full["shard"].to_numpy(zero_copy_only=False)
    assert all(
        poly_hash_str(t) % cfg.index_shards == s for t, s in zip(terms, shards)
    )

    # each unit slice holds exactly the terms whose shard is congruent to U,
    # sorted by term_id (== term string order)
    seen = 0
    for d in unit_dirs:
        u = int(d.split("=", 1)[1])
        t_np, tid_np, sh_np = load_dict_slice(os.path.join(paths.dictionary, d))
        assert (sh_np % cfg.merge_units == u).all()
        assert (np.diff(tid_np) > 0).all()
        assert list(t_np) == sorted(t_np)
        seen += len(t_np)
    assert seen == full.num_rows


def test_distributed_dictionary_path_matches_pandas(ray_session, tmp_path, monkeypatch):
    """Force the distributed dictionary branch (sorted_group_map over coalesced
    combiner partials) on a small corpus and check it produces byte-identical
    (term, df, term_id, shard) rows to the small-side pandas branch."""
    pages = generate_webpages(300, vocab_size=800, tokens_per_doc=50, seed=11)

    paths_small = build_index(pages, str(tmp_path / "idx_small"), EngineConfig())
    monkeypatch.setenv("SE_RAY_DICT_SMALL_ROWS", "0")
    paths_dist = build_index(pages, str(tmp_path / "idx_dist"), EngineConfig())

    cols = ["term", "df", "term_id", "shard"]
    a = pq.read_table(paths_small.dictionary, columns=cols).to_pandas()
    b = pq.read_table(paths_dist.dictionary, columns=cols).to_pandas()
    a = a.sort_values("term_id").reset_index(drop=True)
    b = b.sort_values("term_id").reset_index(drop=True)
    assert a.equals(b)


def test_stale_slice_cache_invalidated_by_tag(ray_session, tmp_path):
    """A rebuild into the same out_dir must not serve a stale cached slice
    (the cache key includes the build fingerprint tag)."""
    out = str(tmp_path / "idx")
    for n_docs in (50, 80):
        pages = generate_webpages(n_docs, vocab_size=300, tokens_per_doc=30, seed=7)
        paths = build_index(pages, out, EngineConfig())
    # postings readable and term count consistent after in-place rebuild
    p = IndexPaths(out)
    dic = pq.read_table(p.dictionary, columns=["term"])
    post_terms = set()
    for path in shard_files(p.postings):
        post_terms |= set(ShardFile(path).terms)
    assert post_terms == set(dic["term"].to_pylist())


def test_global_merge_path_matches_per_unit(ray_session, tmp_path, monkeypatch):
    """The fresh-build single-execution merge (merge_units_postings) must
    produce the same index as the per-unit resume path: identical chunk rows
    per (term, salt, first_doc_id) and identical query results."""
    import pandas as pd

    from search_engine_ray.query.engine import SearchEngine

    pages = generate_webpages(400, vocab_size=900, tokens_per_doc=60, seed=13)
    out_g = str(tmp_path / "idx_global")
    build_index(pages, out_g, EngineConfig())
    monkeypatch.setenv("SE_RAY_MERGE_PER_UNIT", "1")
    out_u = str(tmp_path / "idx_perunit")
    build_index(pages, out_u, EngineConfig())

    def decoded(out):
        from search_engine_ray.query.postings_codec import decode_term_chunks

        t = _chunk_rows(out)
        per_term = {}
        for term in set(t["term"].to_pylist()):
            import pyarrow.compute as pc

            tp = decode_term_chunks(t.filter(pc.equal(t["term"], term)))
            per_term[term] = (tp.doc_ids.tolist(), tp.tfs.tolist(),
                              tp.pos_offsets.tolist(), tp.pos_values.tolist())
        return per_term

    a, b = decoded(out_g), decoded(out_u)
    assert a.keys() == b.keys()
    assert a == b
    # chunk rows are regenerated per (term, salt), so both paths give the
    # same rows, not only the same decoded postings
    assert _chunk_rows(out_g).equals(_chunk_rows(out_u))

    eg, eu = SearchEngine(out_g), SearchEngine(out_u)
    for q in ("alpha beta", "the quick", "zzz nothing"):
        assert eg.bm25_topk(q, 10) == eu.bm25_topk(q, 10)


def test_unit_task_merge_matches_global_sort_path(ray_session, tmp_path, monkeypatch):
    """The single-task-per-unit merge (merge.py::_merge_unit_to_shards — the
    fresh-build fast path when every unit fits one worker) must produce the
    same decoded postings and query results as the global sort-shuffle path,
    and exactly one file per shard dir."""
    from search_engine_ray.query.engine import SearchEngine
    from search_engine_ray.query.postings_codec import decode_term_chunks
    import pyarrow.compute as pc

    pages = generate_webpages(400, vocab_size=900, tokens_per_doc=60, seed=29)
    out_t = str(tmp_path / "idx_task")
    build_index(pages, out_t, EngineConfig())  # small units -> task path
    monkeypatch.setenv("SE_RAY_MERGE_UNIT_TASK", "0")
    out_g = str(tmp_path / "idx_global")
    build_index(pages, out_g, EngineConfig())

    pt = IndexPaths(out_t)
    # task path: each shard dir holds exactly one file, from its one unit
    for d in os.listdir(pt.postings):
        if d.startswith("shard="):
            files = [f for f in os.listdir(os.path.join(pt.postings, d))
                     if not f.startswith("_")]
            assert files == ["postings.bin"], (d, files)

    def decoded(out):
        t = _chunk_rows(out)
        return {
            term: (lambda tp: (tp.doc_ids.tolist(), tp.tfs.tolist(),
                               tp.pos_offsets.tolist(), tp.pos_values.tolist()))(
                decode_term_chunks(t.filter(pc.equal(t["term"], term))))
            for term in set(t["term"].to_pylist())
        }

    assert decoded(out_t) == decoded(out_g)
    et, eg = SearchEngine(out_t), SearchEngine(out_g)
    for q in ("alpha beta", "the quick", "zzz nothing"):
        assert et.bm25_topk(q, 10) == eg.bm25_topk(q, 10)


def test_sorted_part_merges_write_unit_task_bytes(ray_session, tmp_path, monkeypatch):
    """The sort-and-join merges — the fresh-build merge_units_postings and
    the per-unit resume path — over sort blocks small enough that shards
    arrive in several part files, write the very shard files the
    single-task-per-unit merge writes."""
    from search_engine_ray.stages import merge
    from search_engine_ray.stages.postings_file import shard_file

    pages = generate_webpages(400, vocab_size=900, tokens_per_doc=60, seed=31)
    outs = {"task": str(tmp_path / "idx_task")}
    build_index(pages, outs["task"], EngineConfig())

    n_parts = []
    join = merge._join_shard_parts

    class CountingJoin:
        @staticmethod
        def remote(path, parts):
            n_parts.append(len(parts))
            return join.remote(path, parts)

    monkeypatch.setattr(merge, "_join_shard_parts", CountingJoin)
    monkeypatch.setenv("SE_RAY_SORT_BLOCK_PARQUET_BYTES", str(16 << 10))
    monkeypatch.setenv("SE_RAY_MERGE_UNIT_TASK", "0")
    outs["global"] = str(tmp_path / "idx_global")
    build_index(pages, outs["global"], EngineConfig())
    monkeypatch.setenv("SE_RAY_MERGE_PER_UNIT", "1")
    outs["unit"] = str(tmp_path / "idx_unit")
    build_index(pages, outs["unit"], EngineConfig())
    assert max(n_parts) > 1, n_parts

    def shard_bytes(out):
        p = IndexPaths(out).postings
        files = shard_files(p)
        assert files == [shard_file(p, k) for k in range(len(files))]
        for f in files:  # no part file left behind
            assert [n for n in os.listdir(os.path.dirname(f))
                    if not n.startswith("_")] == ["postings.bin"]
        return [open(f, "rb").read() for f in files]

    want = shard_bytes(outs["task"])
    assert len(want) == EngineConfig().index_shards
    assert shard_bytes(outs["global"]) == want
    assert shard_bytes(outs["unit"]) == want
