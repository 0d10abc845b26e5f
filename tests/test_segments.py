"""Incremental segment indexing (pipelines/segments.py): append-only builds
serve rank-identical to a monolithic rebuild, tombstones filter results, and
compaction reproduces a fresh build (dictionary values, postings files byte
for byte), all through the standard build/engine layers."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from search_engine_ray.config import EngineConfig
from search_engine_ray.functions.textproc import synthesize_html
from search_engine_ray.pipelines.build import IndexPaths, build_index, load_stats
from search_engine_ray.pipelines.segments import (
    add_segment,
    compact,
    delete_docs,
    load_tombstones,
    read_segments,
    segment_dir,
)
from search_engine_ray.query.engine import SearchEngine
from search_engine_ray.query.segmented import SegmentedSearchEngine
from search_engine_ray.sources.webpages import _url_for
from search_engine_ray.stages.postings_file import read_posting_rows, shard_files

TEXTS = [
    "zero first word at position zero",
    "word1 ,,, !!! word2 between punct",
    "Apple apple APPLE mixed case",
    "was has children went bought",
    "the quick brown fox jumps over the lazy dog",
    "quick brown cows jump quickly",
    "slow brown fox naps",
    "phrase target phrase target end",
    "hello world exact spelling",
    "alpha beta gamma delta epsilon",
    "alpha gamma beta window test",
    "common common common term",
] + [f"filler doc {i} common word" for i in range(12, 30)]

QUERIES = ["quick brown", "common", "alpha beta", "fox", "hello world",
           "common word", "the lazy dog", "phrase target", "apple"]

CFG = EngineConfig(chunk_size=4, salt_span=8, tokenize_batch_size=7)
SPLIT = 13  # urls are zero-padded by index → halves preserve global order


def _posting_rows(postings_dir) -> pa.Table:
    """An index's posting rows, decoded from its shard files, with the
    term as a plain string column."""
    t = pa.concat_tables(ray.get(read_posting_rows(postings_dir).to_arrow_refs()))
    return t.set_column(0, "term", t["term"].cast(pa.string()))


def _pages(texts, start):
    import ray.data

    rows = [{"url": _url_for(start + i), "html": synthesize_html(t).encode()}
            for i, t in enumerate(texts)]
    return ray.data.from_items(rows, override_num_blocks=3)


@pytest.fixture(scope="module")
def built(tmp_path_factory, ray_session):
    full_dir = str(tmp_path_factory.mktemp("full"))
    root = str(tmp_path_factory.mktemp("segroot"))
    build_index(_pages(TEXTS, 0), full_dir, CFG)
    add_segment(_pages(TEXTS[:SPLIT], 0), root, CFG)
    add_segment(_pages(TEXTS[SPLIT:], SPLIT), root, CFG)
    return SearchEngine(full_dir, CFG), SegmentedSearchEngine(root, CFG), root, full_dir


class TestAppend:
    def test_manifest_bases(self, built):
        _full, _seg, root, _fd = built
        segs = read_segments(root)
        assert [s["doc_id_base"] for s in segs] == [0, SPLIT]
        assert sum(s["num_docs"] for s in segs) == len(TEXTS)

    def test_global_stats_match_monolithic(self, built):
        full, seg, _root, _fd = built
        assert seg.num_docs == full.num_docs
        assert seg.avgdl == full.avgdl

    @pytest.mark.parametrize("q", QUERIES)
    def test_bm25_rank_identical(self, built, q):
        full, seg, _root, _fd = built
        assert seg.bm25_topk(q, 10) == full.bm25_topk(q, 10)

    @pytest.mark.parametrize("q", QUERIES)
    def test_tfidf_rank_identical(self, built, q):
        full, seg, _root, _fd = built
        assert seg.tfidf_topk(q, 10) == full.tfidf_topk(q, 10)

    @pytest.mark.parametrize("q", QUERIES)
    def test_wand_matches_monolithic(self, built, q):
        full, seg, _root, _fd = built
        got = seg.bm25_topk_wand(q, 10)
        want = full.bm25_topk(q, 10)
        assert [d for d, _ in got] == [d for d, _ in want]
        np.testing.assert_allclose([s for _, s in got], [s for _, s in want],
                                   rtol=1e-12)

    @pytest.mark.parametrize("q", QUERIES)
    def test_bm25_prox_matches_monolithic(self, built, q):
        full, seg, _root, _fd = built
        assert seg.bm25_prox_topk(q, 10) == full.bm25_prox_topk(q, 10)

    @pytest.mark.parametrize("q", QUERIES)
    def test_range_and_sorted_match_monolithic(self, built, q):
        full, seg, _root, _fd = built
        n = full.num_docs
        ids = np.arange(1, n + 1)
        vals = (ids * 13) % 47
        full.set_doc_sort_attr("sz", ids, vals)
        seg.set_doc_sort_attr("sz", ids, vals)
        assert (seg.bm25_topk_range(q, 10, attr="sz", lo=5, hi=30)
                == full.bm25_topk_range(q, 10, attr="sz", lo=5, hi=30))
        assert (seg.bm25_topk_sorted(q, 10, attr="sz")
                == full.bm25_topk_sorted(q, 10, attr="sz"))
        assert (seg.bm25_topk_sorted(q, 10, attr="sz", descending=False)
                == full.bm25_topk_sorted(q, 10, attr="sz", descending=False))

    @pytest.mark.parametrize("q", QUERIES)
    def test_maxscore_matches_monolithic(self, built, q):
        full, seg, _root, _fd = built
        got = seg.bm25_topk_maxscore(q, 10)
        want = full.bm25_topk(q, 10)
        assert [d for d, _ in got] == [d for d, _ in want]
        np.testing.assert_allclose([s for _, s in got], [s for _, s in want],
                                   rtol=1e-12)
        assert got == seg.bm25_topk(q, 10)

    @pytest.mark.parametrize("q", QUERIES)
    def test_boolean_and_identical(self, built, q):
        full, seg, _root, _fd = built
        np.testing.assert_array_equal(seg.boolean_and(q), full.boolean_and(q))

    def test_phrase_and_proximity_identical(self, built):
        full, seg, _root, _fd = built
        np.testing.assert_array_equal(np.sort(seg.phrase("quick brown")),
                                      np.sort(full.phrase("quick brown")))
        assert sorted(seg.proximity("alpha", "beta", 3)) == \
            sorted(full.proximity("alpha", "beta", 3))

    def test_window_modes_identical(self, built):
        full, seg, _root, _fd = built
        for slop in (0, 2):
            np.testing.assert_array_equal(
                np.sort(seg.ordered_window("quick brown", slop)),
                np.sort(full.ordered_window("quick brown", slop)))
        for w in (2, 5):
            np.testing.assert_array_equal(
                np.sort(seg.within_window("quick brown", w)),
                np.sort(full.within_window("quick brown", w)))

    @pytest.mark.parametrize("q", QUERIES)
    def test_boolean_or_identical(self, built, q):
        full, seg, _root, _fd = built
        np.testing.assert_array_equal(seg.boolean_or(q), full.boolean_or(q))

    def test_more_like_this_identical(self, built):
        full, seg, _root, _fd = built
        text = TEXTS[11]  # "common common common term"
        for exclude in (None, 12):
            assert seg.more_like_this(text, 10, exclude=exclude) == \
                full.more_like_this(text, 10, exclude=exclude)

    @pytest.mark.parametrize("q", QUERIES)
    def test_snippets_identical(self, built, q):
        full, seg, _root, _fd = built
        assert seg.snippets(q, 10) == full.snippets(q, 10)

    def test_df_sums_across_segments(self, built):
        full, seg, _root, _fd = built
        for t in ("common", "brown", "filler"):
            assert seg.df(t) == (full.lookup(t) or (0, 0))[1]



class TestSegmentedLeanPostings:
    """Segment engines read lean postings (doc ids + tfs) for BM25 and
    positional ones only where positions are used."""

    @pytest.fixture()
    def recorded(self, built):
        _full, _seg, root, _fd = built
        seg = SegmentedSearchEngine(root, CFG)
        reads = []
        for i, eng in enumerate(seg.engines):
            def recording_read(term, columns=None, _read=eng.locator.read, _i=i):
                reads.append((_i, term, columns))
                return _read(term, columns=columns)

            eng.locator.read = recording_read
        return seg, reads

    def test_bm25_miss_reads_lean_columns(self, built, recorded):
        from search_engine_ray.query.postings_codec import LEAN_COLUMNS

        full, _seg, _root, _fd = built
        seg, reads = recorded
        assert seg.bm25_topk("alpha beta", 10) == full.bm25_topk("alpha beta", 10)
        assert reads and all(cols == LEAN_COLUMNS for _i, _t, cols in reads)
        assert {t for _i, t, _c in reads} == {"alpha", "beta"}
        del reads[:]
        assert seg.bm25_topk("alpha beta", 10) == full.bm25_topk("alpha beta", 10)
        assert reads == []  # cached

    @pytest.mark.parametrize("q", ["alpha beta", "quick brown", "common word"])
    def test_positional_modes_upgrade_after_lean_reads(self, built, recorded, q):
        full, _seg, _root, _fd = built
        seg, reads = recorded
        assert seg.bm25_topk(q, 10) == full.bm25_topk(q, 10)
        del reads[:]
        assert seg.snippets(q, 10) == full.snippets(q, 10)
        assert seg.bm25_prox_topk(q, 10) == full.bm25_prox_topk(q, 10)
        assert reads and all(cols is None for _i, _t, cols in reads)

    def test_fuzzy_matches_monolithic(self, built):
        full, _seg, root, _fd = built
        seg = SegmentedSearchEngine(root, CFG, build_bktree=True)
        found = 0
        for probe, d in (("helo", 1), ("wrold", 2), ("comon", 1), ("zzzzq", 2)):
            assert seg.fuzzy(probe, d) == full.fuzzy(probe, d)
            found += bool(full.fuzzy(probe, d))
        assert found == 3

class TestTombstones:
    def test_deleted_docs_filtered_everywhere(self, built, tmp_path_factory):
        _full, _seg, root, _fd = built
        # doc_id 5 = "the quick brown fox..." (1-based), doc 12 = "common..."
        delete_docs(root, [5, 12])
        seg = SegmentedSearchEngine(root, CFG)
        assert set(load_tombstones(root)) == {5, 12}
        for q in QUERIES:
            for d, _s in seg.bm25_topk(q, 30):
                assert d not in (5, 12)
            assert not np.isin([5, 12], seg.boolean_and(q)).any()
        # WAND/MAXSCORE fall back to exhaustive under tombstones — still exact
        assert seg.bm25_topk_wand("quick brown", 10) == seg.bm25_topk("quick brown", 10)
        assert seg.bm25_topk_maxscore("quick brown", 10) == seg.bm25_topk("quick brown", 10)
        # cleanup for the compaction tests below (fixture is module-scoped)
        import json
        import os

        os.remove(os.path.join(root, "tombstones.json"))


class TestCompaction:
    @pytest.fixture(scope="class")
    def compacted(self, tmp_path_factory, ray_session):
        root = str(tmp_path_factory.mktemp("segroot2"))
        add_segment(_pages(TEXTS[:SPLIT], 0), root, CFG)
        add_segment(_pages(TEXTS[SPLIT:], SPLIT), root, CFG)
        seg_dir = compact(root, CFG)
        return root, seg_dir

    def test_compacted_equals_fresh_build(self, compacted, built):
        _root, seg_dir = compacted
        _full, _seg, _r, full_dir = built
        a, b = IndexPaths(seg_dir), IndexPaths(full_dir)
        da = pq.read_table(a.dictionary, columns=["term", "term_id", "df"]).sort_by("term")
        db = pq.read_table(b.dictionary, columns=["term", "term_id", "df"]).sort_by("term")
        assert da.equals(db)
        fa, fb = shard_files(a.postings), shard_files(b.postings)
        assert [os.path.relpath(f, a.postings) for f in fa] == [
            os.path.relpath(f, b.postings) for f in fb]
        for x, y in zip(fa, fb):
            with open(x, "rb") as f1, open(y, "rb") as f2:
                assert f1.read() == f2.read(), x
        assert load_stats(seg_dir)["num_docs"] == load_stats(full_dir)["num_docs"]
        assert load_stats(seg_dir)["avgdl"] == load_stats(full_dir)["avgdl"]

    def test_posting_rows_equal_engine_postings(self, compacted,
                                                assert_posting_rows_match_engine):
        assert_posting_rows_match_engine(compacted[1], CFG)

    def test_compacted_serves_identically(self, compacted, built):
        root, _seg_dir = compacted
        full, _seg, _r, _fd = built
        seg = SegmentedSearchEngine(root, CFG)
        assert len(seg.engines) == 1
        for q in QUERIES:
            assert seg.bm25_topk(q, 10) == full.bm25_topk(q, 10)

    def test_append_after_compact_continues_ids(self, compacted):
        root, _seg_dir = compacted
        add_segment(_pages(["brand new appended document"], len(TEXTS)), root, CFG)
        segs = read_segments(root)
        assert segs[-1]["doc_id_base"] == len(TEXTS)
        seg = SegmentedSearchEngine(root, CFG)
        docs = seg.boolean_and("appended")
        np.testing.assert_array_equal(docs, [len(TEXTS) + 1])


def test_index_stats_counts_chunks_per_salt(built, monkeypatch):
    """The ``index_stats`` contract query on an index whose doc ids span
    several salts (salt_span 8, chunk_size 4) decodes doc ids and equals
    per-term counts from the engine's postings."""
    from search_engine_ray.pipelines import driver_queries

    full, _seg, _root, full_dir = built
    monkeypatch.setattr(driver_queries, "engine_for", lambda _sf_dir: full)
    got = driver_queries.q_index_stats(full_dir)
    want = []
    for t in full.vocabulary()[0]:
        tp = full.get_postings(t, positions=False)
        _salts, n = np.unique(tp.doc_ids // CFG.salt_span, return_counts=True)
        want.append([t, tp.df, int(tp.tfs.max()), int((-(-n // CFG.chunk_size)).sum())])
    assert got[["term", "n_postings", "max_tf", "n_chunks"]].values.tolist() == want
    # a term needs more chunks than one salt would give it
    assert (got["n_chunks"] > -(-got["n_postings"] // CFG.chunk_size)).any()


class TestCompactWithDeletes:
    def test_delete_then_compact_removes_postings_and_fixes_stats(
            self, tmp_path_factory, ray_session):
        root = str(tmp_path_factory.mktemp("segroot3"))
        add_segment(_pages(TEXTS[:SPLIT], 0), root, CFG)
        add_segment(_pages(TEXTS[SPLIT:], SPLIT), root, CFG)
        # delete the only doc containing "hello"/"world" (doc 9) + one filler
        delete_docs(root, [9, 20])
        seg_dir = compact(root, CFG)
        assert len(load_tombstones(root)) == 0
        seg = SegmentedSearchEngine(root, CFG)
        eng = seg.engines[0]
        st = load_stats(seg_dir)
        assert st["num_docs"] == len(TEXTS) - 2
        assert eng.lookup("hello") is None  # df hit zero → term gone
        assert len(eng.boolean_and("common")) > 0
        assert 9 not in eng.get_postings("common").doc_ids if eng.lookup("common") else True
        # surviving doc_ids keep their original values (no renumbering)
        docs = pq.read_table(IndexPaths(seg_dir).docs, columns=["doc_id"])
        ids = set(docs["doc_id"].to_pylist())
        assert 9 not in ids and 20 not in ids and 10 in ids


class TestFilteredSegmented:
    @pytest.mark.parametrize("q", QUERIES)
    def test_bm25_filtered_rank_identical(self, built, q):
        full, seg, _root, _fd = built
        n = full.num_docs
        ids = np.arange(1, n + 1)
        vals = ["x" if i % 2 else "y" for i in ids]
        full.set_doc_attr("par", ids, vals)
        seg.set_doc_attr("par", ids, vals)
        for allowed in [("x",), ("x", "y"), ("none",)]:
            got = seg.bm25_topk_filtered(q, 10, attr="par", allowed=allowed)
            want = full.bm25_topk_filtered(q, 10, attr="par", allowed=allowed)
            assert [d for d, _ in got] == [d for d, _ in want], (q, allowed)
            np.testing.assert_allclose([s for _, s in got],
                                       [s for _, s in want], rtol=1e-12)


class TestCappedSegmented:
    @pytest.mark.parametrize("q", QUERIES)
    def test_bm25_capped_rank_identical(self, built, q):
        full, seg, _root, _fd = built
        n = full.num_docs
        ids = np.arange(1, n + 1)
        vals = [f"s{i % 3}" for i in ids]
        full.set_doc_attr("s3", ids, vals)
        seg.set_doc_attr("s3", ids, vals)
        got = seg.bm25_topk_capped(q, 6, attr="s3", cap=2)
        want = full.bm25_topk_capped(q, 6, attr="s3", cap=2)
        assert [d for d, _ in got] == [d for d, _ in want], q
        np.testing.assert_allclose([s for _, s in got],
                                   [s for _, s in want], rtol=1e-12)


class TestSegmentedServingR3d:
    """Round-3d additions: QL, AND-NOT and wildcard across segments."""

    @pytest.mark.parametrize("q", QUERIES)
    def test_ql_rank_identical(self, built, q):
        full, seg, _root, _fd = built
        assert seg.ql_topk(q, 10) == full.ql_topk(q, 10)

    def test_and_not_identical(self, built):
        full, seg, _root, _fd = built
        pos, neg = QUERIES[0], QUERIES[-1].split()[0]
        np.testing.assert_array_equal(
            seg.boolean_and_not(pos, neg), full.boolean_and_not(pos, neg))

    def test_wildcard_identical(self, built):
        full, seg, _root, _fd = built
        seeds = full.kgram.terms[:3] + full.kgram.terms[-2:]
        pats = [t[:2] + "*" for t in seeds] + ["*" + seeds[0][-2:], "zzz*"]
        nonempty = 0
        for p in pats:
            want = full.wildcard_terms(p)
            assert seg.wildcard_terms(p) == want
            np.testing.assert_array_equal(
                seg.wildcard_boolean(p), full.wildcard_boolean(p))
            nonempty += bool(want)
        assert nonempty >= 3


class TestMergePolicy:
    def _seg(self, name, base, n, wm=None):
        s = {"name": name, "doc_id_base": base, "num_docs": n,
             "total_tokens": n * 10}
        if wm is not None:
            s["id_watermark"] = wm
        return s

    def test_levels_and_oldest_first(self):
        from search_engine_ray.pipelines.segments import plan_merges

        # four level-0 segments (num_docs < 4) → one merge of the 4 oldest;
        # the big segment sits alone in its level and is untouched
        segs = [self._seg(f"seg-{i:05d}", i * 3, 3) for i in range(5)]
        segs.append(self._seg("seg-00099", 500, 1000))
        plans = plan_merges(segs, merge_factor=4)
        assert plans == [["seg-00000", "seg-00001", "seg-00002", "seg-00003"]]

    def test_multiple_merges_per_level_and_empty(self):
        from search_engine_ray.pipelines.segments import plan_merges

        segs = [self._seg(f"seg-{i:05d}", i * 2, 2) for i in range(9)]
        plans = plan_merges(segs, merge_factor=4)
        assert len(plans) == 2 and all(len(p) == 4 for p in plans)
        assert plan_merges(segs[:3], merge_factor=4) == []
        with pytest.raises(ValueError):
            plan_merges(segs, merge_factor=1)

    def test_levels_are_log_num_docs(self):
        from search_engine_ray.pipelines.segments import plan_merges

        # 3 docs (level 0) and 5 docs (level 1) never co-merge at factor 4
        segs = ([self._seg(f"seg-{i:05d}", i * 3, 3) for i in range(3)]
                + [self._seg(f"seg-{i:05d}", 100 + i * 5, 5) for i in range(3, 6)])
        assert plan_merges(segs, merge_factor=4) == []


class TestSubsetCompaction:
    @pytest.fixture()
    def root5(self, tmp_path_factory, ray_session):
        """Five 6-doc segments over 30 docs."""
        root = str(tmp_path_factory.mktemp("tiered"))
        for i in range(5):
            add_segment(_pages(TEXTS[6 * i:6 * (i + 1)], 6 * i), root, CFG)
        return root

    def test_subset_merge_preserves_serving(self, root5, tmp_path_factory):
        full_dir = str(tmp_path_factory.mktemp("full5"))
        build_index(_pages(TEXTS, 0), full_dir, CFG)
        full = SearchEngine(full_dir, CFG)

        compact(root5, CFG, names=["seg-00001", "seg-00002"])
        segs = read_segments(root5)
        assert [s["name"] for s in segs] == [
            "seg-00000", "seg-00005", "seg-00003", "seg-00004"]
        merged = segs[1]
        assert merged["doc_id_base"] == 6 and merged["id_watermark"] == 18
        seg = SegmentedSearchEngine(root5, CFG)
        for q in QUERIES:
            assert seg.bm25_topk(q, 10) == full.bm25_topk(q, 10)

    def test_append_after_subset_merge_continues_ids(self, root5):
        compact(root5, CFG, names=["seg-00003", "seg-00004"])
        out = add_segment(_pages(["brand new appended doc"], 30), root5, CFG)
        st = load_stats(out)
        assert st["num_docs"] == 1
        segs = read_segments(root5)
        assert segs[-1]["doc_id_base"] == 30  # watermark preserved
        seg = SegmentedSearchEngine(root5, CFG)
        docs = seg.boolean_and("appended")
        assert docs.tolist() == [31]

    def test_subset_merge_partitions_tombstones(self, root5):
        # doc 8 lives in seg-00001 (merged), doc 25 in seg-00004 (kept)
        delete_docs(root5, [8, 25])
        compact(root5, CFG, names=["seg-00000", "seg-00001"])
        remaining = load_tombstones(root5).tolist()
        assert remaining == [25]  # merged-range tombstone physically gone
        seg = SegmentedSearchEngine(root5, CFG)
        hits = {d for d, _ in seg.bm25_topk("common word", 100)}
        assert 8 not in hits and 25 not in hits

    def test_noncontiguous_merge_keeps_foreign_tombstones(self, root5):
        # doc 20 lives in seg-00003 (kept). Merge the OTHER four segments:
        # the merged entry's collapsed (0,30] span covers seg-00003's ids,
        # and compacting that entry alone used to strip doc 20's tombstone
        # without dropping the doc — resurrecting it. id_intervals must
        # record the real membership (0,18] ∪ (24,30] instead.
        delete_docs(root5, [20])
        compact(root5, CFG, names=["seg-00000", "seg-00001", "seg-00002",
                                   "seg-00004"])
        merged = [s for s in read_segments(root5) if s["name"] == "seg-00005"]
        assert merged and merged[0]["id_intervals"] == [[0, 18], [24, 30]]
        assert load_tombstones(root5).tolist() == [20]
        compact(root5, CFG, names=["seg-00005"])
        assert load_tombstones(root5).tolist() == [20]  # not swallowed
        seg = SegmentedSearchEngine(root5, CFG)
        hits = {d for d, _ in seg.bm25_topk("common word", 100)}
        assert 20 not in hits  # still deleted, not resurrected

    def test_unknown_name_raises(self, root5):
        with pytest.raises(ValueError, match="unknown segment"):
            compact(root5, CFG, names=["seg-00042"])

    def test_auto_compact_converges_and_serves(self, root5, tmp_path_factory):
        from search_engine_ray.pipelines.segments import auto_compact, plan_merges

        full_dir = str(tmp_path_factory.mktemp("fullauto"))
        build_index(_pages(TEXTS, 0), full_dir, CFG)
        full = SearchEngine(full_dir, CFG)

        n = auto_compact(root5, CFG, merge_factor=4)
        assert n >= 1
        segs = read_segments(root5)
        assert plan_merges(segs, merge_factor=4) == []  # fixpoint reached
        assert len(segs) < 5
        seg = SegmentedSearchEngine(root5, CFG)
        for q in QUERIES:
            assert seg.bm25_topk(q, 10) == full.bm25_topk(q, 10)


class TestSegmentedDSL:
    def test_search_dsl_identical(self, built):
        full, seg, _root, _fd = built
        seed = full.kgram.terms[0][:2]
        dsls = ['common +word', '+common -fox', '"quick brown"',
                f'{seed}* fox', 'alpha +beta -gamma "alpha beta"']
        for q in dsls:
            assert seg.search(q, 10) == full.search(q, 10), q


DELETED = [5, 12, 20]  # "the quick brown fox…", "common common…", a filler


def _drop(rows, k, deleted=DELETED):
    """Rows of a monolithic run (doc id first), deleted docs removed, cut
    to k."""
    return [r for r in rows if r[0] not in deleted][:k]


class TestTombstoneOracle:
    """With docs deleted, every segmented mode equals the monolithic result
    with those docs removed: a ranked mode equals the monolithic k=1000
    list filtered and cut to k, a doc-set mode the set difference. Stats
    (N, avgdl, df, ctf) keep counting the deleted docs, as the monolithic
    index does."""

    K = 5

    @pytest.fixture()
    def deleted(self, built):
        import os

        full, _seg, root, _fd = built
        delete_docs(root, DELETED)
        try:
            yield full, SegmentedSearchEngine(root, CFG, build_bktree=True), root
        finally:
            os.remove(os.path.join(root, "tombstones.json"))

    @pytest.mark.parametrize("q", QUERIES)
    def test_ranked_modes(self, deleted, q):
        full, seg, _root = deleted
        k = self.K
        # WAND/MAXSCORE equal exhaustive BM25 by contract
        for mode, ref in (("bm25_topk", "bm25_topk"), ("tfidf_topk", "tfidf_topk"),
                          ("bm25_topk_wand", "bm25_topk"),
                          ("bm25_topk_maxscore", "bm25_topk"), ("ql_topk", "ql_topk"),
                          ("bm25_prox_topk", "bm25_prox_topk"), ("snippets", "snippets")):
            want = getattr(full, ref)(q, 1000)
            assert getattr(seg, mode)(q, k) == _drop(want, k), (mode, q)
        assert (seg.tfidf_topk(q, k, dtype=np.float64)
                == _drop(full.tfidf_topk(q, 1000, dtype=np.float64), k))

    @pytest.mark.parametrize("q", QUERIES)
    def test_attribute_modes(self, deleted, q):
        full, seg, _root = deleted
        k = self.K
        ids = np.arange(1, full.num_docs + 1)
        par = ["x" if i % 2 else "y" for i in ids]
        grp = [f"s{i % 3}" for i in ids]
        sz = (ids * 13) % 47
        for eng in (full, seg):
            eng.set_doc_attr("tomb_par", ids, par)
            eng.set_doc_attr("tomb_grp", ids, grp)
            eng.set_doc_sort_attr("tomb_sz", ids, sz)
        for allowed in [("x",), ("x", "y")]:
            assert (seg.bm25_topk_filtered(q, k, attr="tomb_par", allowed=allowed)
                    == _drop(full.bm25_topk_filtered(
                        q, 1000, attr="tomb_par", allowed=allowed), k))
        assert (seg.bm25_topk_range(q, k, attr="tomb_sz", lo=5, hi=30)
                == _drop(full.bm25_topk_range(q, 1000, attr="tomb_sz",
                                              lo=5, hi=30), k))
        for desc in (True, False):
            assert (seg.bm25_topk_sorted(q, k, attr="tomb_sz", descending=desc)
                    == _drop(full.bm25_topk_sorted(
                        q, 1000, attr="tomb_sz", descending=desc), k))
        # capped: the greedy over the surviving ranked list, by hand
        kept, per = [], {}
        for d, s in _drop(full.bm25_topk(q, 1000), 1000):
            g = grp[d - 1]
            if per.get(g, 0) < 2:
                per[g] = per.get(g, 0) + 1
                kept.append((d, s))
        assert seg.bm25_topk_capped(q, k, attr="tomb_grp", cap=2) == kept[:k]

    def test_dsl_and_more_like_this(self, deleted):
        full, seg, _root = deleted
        k = self.K
        seed = full.kgram.terms[0][:2]
        for q in ['common +word', '+common -fox', '"quick brown"',
                  f'{seed}* fox', 'alpha +beta -gamma "alpha beta"', "comon~"]:
            assert seg.search(q, k) == _drop(full.search(q, 1000), k), q
        for exclude in (None, 13):
            assert (seg.more_like_this(TEXTS[11], k, exclude=exclude)
                    == _drop(full.more_like_this(TEXTS[11], 1000,
                                                 exclude=exclude), k))

    @pytest.mark.parametrize("q", QUERIES)
    def test_doc_set_modes(self, deleted, q):
        full, seg, _root = deleted

        def minus(docs):
            return np.setdiff1d(docs, DELETED)

        np.testing.assert_array_equal(seg.boolean_and(q), minus(full.boolean_and(q)))
        np.testing.assert_array_equal(seg.boolean_or(q), minus(full.boolean_or(q)))
        np.testing.assert_array_equal(seg.phrase(q), minus(full.phrase(q)))
        for slop in (0, 2):
            np.testing.assert_array_equal(seg.ordered_window(q, slop),
                                          minus(full.ordered_window(q, slop)))
        for w in (2, 5):
            np.testing.assert_array_equal(seg.within_window(q, w),
                                          minus(full.within_window(q, w)))
        np.testing.assert_array_equal(seg.boolean_and_not(q, "fox"),
                                      minus(full.boolean_and_not(q, "fox")))
        words = q.split()
        if len(words) >= 2:
            assert (seg.proximity(words[0], words[1], 3)
                    == _drop(full.proximity(words[0], words[1], 3), 1000))

    def test_wildcard_and_fuzzy_terms(self, deleted):
        full, seg, _root = deleted
        for p in ("co*", "*er", "fi*", "zzz*"):
            assert seg.wildcard_terms(p) == full.wildcard_terms(p)
            np.testing.assert_array_equal(
                seg.wildcard_boolean(p), np.setdiff1d(full.wildcard_boolean(p), DELETED))
        for probe, d in (("comon", 1), ("quik", 1), ("wrold", 2)):
            assert seg.fuzzy(probe, d) == full.fuzzy(probe, d)

    def test_refresh_tombstones_after_cached_query(self, deleted):
        full, seg, root = deleted
        q = "common word"
        assert seg.bm25_topk(q, 100) == _drop(full.bm25_topk(q, 1000), 100)
        assert 13 in seg.boolean_or(q)
        delete_docs(root, [13])
        seg.refresh_tombstones()
        gone = DELETED + [13]
        assert seg.bm25_topk(q, 100) == _drop(full.bm25_topk(q, 1000), 100, gone)
        assert 13 not in seg.boolean_or(q)
        assert 13 not in seg.phrase(q)


class TestInterleavedSegments:
    """A subset merge whose id intervals interleave with a kept segment's:
    doc-set modes still return doc ids ascending, exactly as the
    monolithic index does."""

    @pytest.fixture(scope="class")
    def interleaved(self, tmp_path_factory, ray_session):
        root = str(tmp_path_factory.mktemp("interleaved"))
        for i in range(5):
            add_segment(_pages(TEXTS[6 * i:6 * (i + 1)], 6 * i), root, CFG)
        compact(root, CFG, names=["seg-00000", "seg-00001", "seg-00002",
                                  "seg-00004"])
        return SegmentedSearchEngine(root, CFG)

    @pytest.mark.parametrize("q", ["filler doc"] + QUERIES)
    def test_doc_sets_equal_monolithic_unsorted(self, built, interleaved, q):
        full = built[0]
        seg = interleaved
        assert seg.phrase(q).tolist() == full.phrase(q).tolist()
        for slop in (0, 2):
            assert (seg.ordered_window(q, slop).tolist()
                    == full.ordered_window(q, slop).tolist())
        for w in (2, 5):
            assert (seg.within_window(q, w).tolist()
                    == full.within_window(q, w).tolist())
        assert seg.boolean_and(q).tolist() == full.boolean_and(q).tolist()
        assert seg.boolean_or(q).tolist() == full.boolean_or(q).tolist()
        words = q.split()
        if len(words) >= 2:
            assert (seg.proximity(words[0], words[1], 3)
                    == full.proximity(words[0], words[1], 3))
        assert seg.bm25_topk(q, 10) == full.bm25_topk(q, 10)
        assert seg.bm25_topk_wand(q, 10) == seg.bm25_topk(q, 10)


class TestModesGainedBySegments:
    """Modes the segment set serves through the shared query layer, each
    equal to the monolithic engine over the same docs."""

    @pytest.fixture(scope="class")
    def engines(self, built):
        full, _seg, root, _fd = built
        return full, SegmentedSearchEngine(root, CFG, build_bktree=True)

    @pytest.mark.parametrize("q", QUERIES)
    def test_ranked_modes(self, engines, q):
        full, seg = engines
        for m in (1, 2, 3):
            assert seg.bm25_topk_msm(q, 10, min_match=m) == \
                full.bm25_topk_msm(q, 10, min_match=m)
        assert seg.bm25_topk_blended(q, 10) == full.bm25_topk_blended(q, 10)

        def fetch(ids):
            return [TEXTS[i - 1] for i in ids]

        assert seg.bm25_prf(q, fetch, 10) == full.bm25_prf(q, fetch, 10)
        ids = np.arange(1, full.num_docs + 1)
        grp = [f"g{i % 4}" for i in ids]
        for eng in (full, seg):
            eng.set_doc_attr("gain_grp", ids, grp)
        assert (seg.bm25_topk_grouped(q, 2, attr="gain_grp")
                == full.bm25_topk_grouped(q, 2, attr="gain_grp"))

    def test_spelling_modes(self, engines):
        full, seg = engines
        for q in ("quik brwn", "helo wrold", "common", "zzzzq", "aple"):
            assert seg.bm25_topk_corrected(q, 10) == full.bm25_topk_corrected(q, 10)
        for t in ("helo", "wrold", "comon", "zzzzq", "quick"):
            for d in (1, 2):
                assert seg.suggest(t, d) == full.suggest(t, d)
                np.testing.assert_array_equal(seg.fuzzy_boolean(t, d),
                                              full.fuzzy_boolean(t, d))
        for p in ("co", "a", "qu", "f", "zz", ""):
            assert seg.prefix_search(p, 5) == full.prefix_search(p, 5)

    def test_index_access(self, engines):
        full, seg = engines
        assert seg.num_terms == full.num_terms
        assert seg.vocabulary()[0] == full.vocabulary()[0]
        np.testing.assert_array_equal(seg.vocabulary()[1], full.vocabulary()[1])
        seg_rows = pa.concat_tables([_posting_rows(e.paths.postings) for e in seg.engines])
        full_rows = _posting_rows(full.paths.postings)
        for t in ("common", "alpha", "filler", "nonexistentterm"):
            assert seg.lookup(t) == full.lookup(t)
            rows = seg_rows.filter(pc.equal(seg_rows["term"], t))
            if rows.num_rows == 0:
                assert full.lookup(t) is None
                assert not pc.any(pc.equal(full_rows["term"], t)).as_py()
                continue
            np.testing.assert_array_equal(np.sort(rows["doc_id"].to_numpy()),
                                          full.get_postings(t).doc_ids)
        ids = [1, 13, 14, 30]
        assert seg.doc_urls(ids) == full.doc_urls(ids)

    def test_bm25f_over_segments(self, engines):
        from search_engine_ray.query.fields import bm25f_topk

        full, seg = engines
        for q in QUERIES:
            assert (bm25f_topk({"body": seg}, {"body": 1.5}, q, 10)
                    == bm25f_topk({"body": full}, {"body": 1.5}, q, 10))


def test_cli_query_serves_a_segment_root(built):
    """``query --index ROOT`` opens the segment set when ROOT holds
    segments.json — the same modes, results and urls as the monolithic
    index."""
    import json
    import os
    import subprocess
    import sys

    full, _seg, root, _fd = built
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    run = subprocess.run(
        [sys.executable, "-m", "search_engine_ray", "--num-cpus", "1", "query",
         "--index", root, "--mode", "bm25", "--k", "5", "common", "word"],
        cwd=repo, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    doc = json.loads(run.stdout.strip().splitlines()[-1])
    want = full.bm25_topk("common word", 5)
    assert [tuple(r) for r in doc["results"]] == want
    assert doc["urls"] == full.doc_urls([d for d, _s in want])


class TestSharedDocLengths:
    """Each segment engine serves its doc-length lookups from the
    composite's merged arrays, with the values its own segment's arrays
    give."""

    @pytest.fixture(scope="class", params=["appended", "interleaved"])
    def root(self, request, built, tmp_path_factory, ray_session):
        if request.param == "appended":
            return built[2]
        root = str(tmp_path_factory.mktemp("shared_dl"))
        for i in range(5):
            add_segment(_pages(TEXTS[6 * i:6 * (i + 1)], 6 * i), root, CFG)
        compact(root, CFG, names=["seg-00000", "seg-00001", "seg-00002",
                                  "seg-00004"])
        return root

    @staticmethod
    def _own_engines(root):
        return [SearchEngine(segment_dir(root, s["name"]), CFG, build_bktree=False)
                for s in read_segments(root)]

    def test_segment_doc_lengths_unchanged(self, root):
        seg = SegmentedSearchEngine(root, CFG)
        own = self._own_engines(root)
        assert len(own) == len(seg.engines) >= 2
        for eng, mine in zip(seg.engines, own):
            assert eng._dl_ids is seg._dl_ids and eng._dl is seg._dl
            np.testing.assert_array_equal(eng.doc_length(mine._dl_ids), mine._dl)

    @pytest.mark.parametrize("q", ["filler doc"] + QUERIES)
    def test_pruned_modes_unchanged(self, root, q):
        seg = SegmentedSearchEngine(root, CFG)
        # the same segment set with each segment engine on its own arrays
        unshared = SegmentedSearchEngine(root, CFG)
        for eng, mine in zip(unshared.engines, self._own_engines(root)):
            eng._dl_ids, eng._dl = mine._dl_ids, mine._dl
        assert seg.bm25_topk_wand(q, 10) == unshared.bm25_topk_wand(q, 10)
        assert seg.bm25_topk_maxscore(q, 10) == unshared.bm25_topk_maxscore(q, 10)
        assert seg.bm25_topk_wand(q, 10) == seg.bm25_topk(q, 10)
