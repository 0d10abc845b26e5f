"""End-to-end: build index on a tiny deterministic corpus → query engine
results rank-identical to the brute-force oracle (FIXTURES.md §1.2 edge
cases, §2 query set)."""

import numpy as np
import pyarrow as pa
import pytest

from search_engine_ray.config import EngineConfig
from search_engine_ray.pipelines.build import build_index, load_stats
from search_engine_ray.query.engine import SearchEngine
from search_engine_ray.query.oracle import OracleIndex
from search_engine_ray.sources.webpages import _url_for
from search_engine_ray.functions.textproc import synthesize_html

# FIXTURES.md §1.2: tiny corpus with the mandated edge cases
TEXTS = [
    "zero first word at position zero",                      # position 0
    "word1 ,,, !!! word2 between punct",                     # empty-cleaned positions
    "Apple apple APPLE mixed case",                          # case folding
    "was has children went bought",                          # lemma hits
    "café naïve «unicode» trimming…",                        # unicode
    "(hello) world! (hello) again",                          # strip + repeats
    "repeat repeat repeat thrice here",                      # tf ≥ 3
    "",                                                      # empty doc
    "   \t ",                                                # whitespace-only doc
    "the quick brown fox jumps over the lazy dog",
    "quick brown cows jump quickly",
    "slow brown fox naps",
    "phrase target phrase target end",                       # recurring bigram
    "helo wrld typos here",                                  # fuzzy near-miss
    "hello world exact spelling",
    "alpha beta gamma delta epsilon",
    "alpha gamma beta window test",                          # proximity windows
    "common common common term",                             # hot-ish term
] + [f"filler doc {i} common word" for i in range(18, 40)]   # 'common' hot term


@pytest.fixture(scope="module")
def built(tmp_path_factory, ray_session):
    import ray.data

    out = str(tmp_path_factory.mktemp("index"))
    # urls chosen so doc_id (url rank) == row order + 1
    rows = [
        {"url": _url_for(i), "html": synthesize_html(t).encode()}
        for i, t in enumerate(TEXTS)
    ]
    ds = ray.data.from_items(rows, override_num_blocks=5)
    # small chunks + tiny salt span to exercise multi-chunk and multi-salt
    cfg = EngineConfig(chunk_size=4, salt_span=8, tokenize_batch_size=7)
    paths = build_index(ds, out, cfg)
    engine = SearchEngine(out, cfg)
    oracle = OracleIndex({i + 1: t for i, t in enumerate(TEXTS)})
    return engine, oracle, paths


QUERIES = [
    "zero", "word1 word2", "apple", "be", "have", "café", "hello world",
    "common", "quick brown", "fox", "the lazy dog", "brown", "alpha beta",
    "repeat", "phrase target", "nonexistentterm", "common word", "was bought",
    "THE Quick", "naïve trimming",
]


class TestDictionary:
    def test_df_and_term_ids_match_oracle(self, built):
        engine, oracle, _ = built
        assert engine.num_docs == oracle.num_docs == len(TEXTS)
        ids = oracle.term_ids()
        assert engine.num_terms == len(ids)
        for term, tid in ids.items():
            etid, edf = engine.lookup(term)
            assert etid == tid, term
            assert edf == oracle.df(term), term

    def test_doc_lengths(self, built):
        engine, oracle, _ = built
        for doc_id, dl in oracle.doc_lengths.items():
            assert engine.doc_length(np.array([doc_id]))[0] == dl

    def test_stats(self, built):
        engine, oracle, paths = built
        assert engine.avgdl == pytest.approx(oracle.avgdl)


class TestPostingsParity:
    def test_all_terms_roundtrip(self, built):
        engine, oracle, _ = built
        for term, plist in oracle.postings.items():
            tp = engine.get_postings(term)
            assert tp is not None, term
            assert tp.doc_ids.tolist() == sorted(plist), term
            for i, d in enumerate(tp.doc_ids.tolist()):
                assert tp.positions_of(i).tolist() == plist[d], (term, d)


class TestQueriesMatchOracle:
    @pytest.mark.parametrize("q", QUERIES)
    def test_boolean_and(self, built, q):
        engine, oracle, _ = built
        assert engine.boolean_and(q).tolist() == oracle.boolean_and(q)

    @pytest.mark.parametrize("q", QUERIES)
    @pytest.mark.parametrize("k", [2, 10])  # k=2 = the reference's hard-coded k
    def test_tfidf_rank_identity(self, built, q, k):
        engine, oracle, _ = built
        got = engine.tfidf_topk(q, k)
        want = oracle.tfidf_topk(q, k)
        assert [d for d, _ in got] == [d for d, _ in want], q
        np.testing.assert_allclose(
            [s for _, s in got], [s for _, s in want], rtol=0, atol=0
        )  # f32-exact

    @pytest.mark.parametrize("q", QUERIES)
    def test_bm25_rank_identity(self, built, q):
        engine, oracle, _ = built
        got = engine.bm25_topk(q, 10)
        want = oracle.bm25_topk(q, 10)
        assert [d for d, _ in got] == [d for d, _ in want], q
        np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=1e-12)

    @pytest.mark.parametrize("q", QUERIES)
    def test_bm25_msm_bounds(self, built, q):
        """min_match=1 ≡ bm25_topk; min_match=#terms keeps exactly the AND
        set, scored identically to the union scorer on those docs."""
        engine, _oracle, _ = built
        assert engine.bm25_topk_msm(q, 10, min_match=1) == engine.bm25_topk(q, 10)
        terms = engine.query_terms(q)
        strict = engine.bm25_topk_msm(q, 10_000, min_match=len(terms))
        and_set = set(engine.boolean_and(q).tolist())
        assert {d for d, _ in strict} == and_set, q
        full = dict(engine.bm25_topk(q, 10_000_000))
        for d, s in strict:
            assert s == pytest.approx(full[d], rel=0, abs=0), (q, d)

    def test_bm25_prf_expands_and_reduces(self, built):
        """fb_terms=0 ≡ plain bm25; with expansion the result equals bm25
        over (query ∪ expansion) terms computed by a transparent spec."""
        import math

        engine, _oracle, _ = built
        fetch = lambda ids: [TEXTS[i - 1] for i in ids]  # noqa: E731
        q = "quick brown"
        assert engine.bm25_prf(q, fetch, 10, fb_docs=3, fb_terms=0) \
            == engine.bm25_topk(q, 10)
        got = engine.bm25_prf(q, fetch, 10, fb_docs=3, fb_terms=2)
        # spec: top-3 docs by rounded score, pooled tf, top-2 tf·idf terms
        first = engine.bm25_topk(q, 10_000)
        first.sort(key=lambda t: (-round(t[1], 4), t[0]))
        fb = [d for d, _ in first[:3]]
        tf = {}
        for d in fb:
            for tok in engine.tokenizer.tokenize(TEXTS[d - 1]):
                if tok.word:
                    tf[tok.word] = tf.get(tok.word, 0) + 1
        orig = engine.query_terms(q)
        scored = sorted(
            (-round(f * math.log10(engine.num_docs / engine.lookup(t)[1]), 6), t)
            for t, f in tf.items() if t not in set(orig) and engine.lookup(t)
        )
        expansion = [t for _s, t in scored[:2]]
        assert expansion, "fixture should produce expansion terms"
        assert got == engine.bm25_topk_terms(orig + expansion, 10)
        assert got != engine.bm25_topk(q, 10)  # expansion changed ranking

    @pytest.mark.parametrize(
        "q", ["quick brown", "phrase target", "the quick brown fox", "brown fox",
              "hello world", "alpha beta", "beta alpha", "word1 word2", "common word"]
    )
    def test_phrase(self, built, q):
        engine, oracle, _ = built
        assert engine.phrase(q).tolist() == oracle.phrase(q)

    @pytest.mark.parametrize("t1,t2,k", [
        ("alpha", "beta", 1), ("alpha", "beta", 2), ("alpha", "gamma", 2),
        ("quick", "fox", 3), ("the", "dog", 8), ("word1", "word2", 3),
    ])
    def test_proximity(self, built, t1, t2, k):
        engine, oracle, _ = built
        assert engine.proximity(t1, t2, k) == oracle.proximity(t1, t2, k)

    @pytest.mark.parametrize("t,d", [("helo", 1), ("helo", 2), ("wrld", 1), ("commn", 1)])
    def test_fuzzy(self, built, t, d):
        engine, oracle, _ = built
        assert engine.fuzzy(t, d) == oracle.fuzzy(t, d)

    @pytest.mark.parametrize("q", QUERIES)
    def test_boolean_or(self, built, q):
        engine, oracle, _ = built
        want = sorted({d for t in engine.query_terms(q)
                       for d in oracle.boolean_and(t)})
        assert engine.boolean_or(q).tolist() == want

    def test_snippets_minimal_window(self, built):
        engine, _oracle, _ = built
        # doc 17 "alpha gamma beta window test": alpha@0, beta@2 → window 0..2
        # doc 16 "alpha beta gamma delta epsilon": alpha@0, beta@1 → window 0..1
        got = {d: (s_, e, n) for d, _sc, s_, e, n in engine.snippets("alpha beta", 10)}
        assert got[17] == (0, 2, 2)
        assert got[16] == (0, 1, 2)
        # single-term query: zero-width window at the first occurrence
        got1 = {d: (s_, e, n) for d, _sc, s_, e, n in engine.snippets("gamma", 10)}
        assert got1[16] == (2, 2, 1)
        # snippet docs == bm25 top-k docs, in rank order
        hits = engine.bm25_topk("alpha beta", 10)
        assert [d for d, *_ in engine.snippets("alpha beta", 10)] == [d for d, _ in hits]

    def test_min_cover_window_ties_and_partial_cover(self):
        from search_engine_ray.query.engine import _min_cover_window

        w = _min_cover_window  # (start, end, n_covered)
        a = np.array
        # picks the max-cover window even when a smaller partial one exists
        assert w([a([0, 50]), a([52])]) == (50, 52, 2)
        # tie on cover+width → smaller start
        assert w([a([0, 10]), a([1, 11])]) == (0, 1, 2)
        # one list absent entirely → covers what it can
        assert w([a([5, 9])]) == (5, 5, 1)
        assert w([]) == (0, 0, 0)

    def test_more_like_this(self, built):
        engine, _oracle, _ = built
        src = 12  # "slow brown fox naps" — keywords (naps, slow, fox)
        hits = engine.more_like_this(TEXTS[src - 1], k=5, exclude=src)
        assert hits and all(d != src for d, _s in hits)
        # the only other doc sharing a keyword ("fox") must lead
        assert hits[0][0] == 10
        # without exclusion, the source doc itself ranks first
        hits_incl = engine.more_like_this(TEXTS[src - 1], k=5)
        assert hits_incl[0][0] == src


class TestResume:
    def test_rerun_skips_completed_stages(self, built, tmp_path):
        import time

        engine, oracle, paths = built
        # manifests exist and are complete
        from search_engine_ray.state import manifests

        for d in [paths.docs, paths.runs, paths.postings, paths.dictionary, paths.doc_lengths]:
            m = manifests.read_manifest(d)
            assert m and m["complete"] and m["num_rows"] > 0

        # resume run: no stage re-executes (mtimes unchanged)
        import os

        mtimes = {d: os.path.getmtime(manifests.manifest_path(d)) for d in [paths.docs, paths.runs]}
        cfg = engine.config
        import ray.data

        same_fp_input = ray.data.from_items([{"url": "x", "html": b"y"}])
        build_index(same_fp_input, paths.out_dir, cfg, resume=True)
        for d, t0 in mtimes.items():
            assert os.path.getmtime(manifests.manifest_path(d)) == t0

    def test_changed_input_invalidates(self, built):
        # a different input-path fingerprint must NOT be treated as complete
        engine, oracle, paths = built
        from search_engine_ray.state import manifests

        other_fp = manifests.fingerprint("other-input", "cfg")
        assert not manifests.stage_complete(paths.docs, other_fp)

    def test_incomplete_stage_recomputed(self, built):
        engine, oracle, paths = built
        # a fresh out_dir missing manifests must rebuild (fingerprint mismatch)
        from search_engine_ray.state.manifests import stage_complete

        assert not stage_complete("/tmp/definitely-missing-xyz", "abc")


class TestStaleRebuild:
    def test_changed_config_clears_stale_files(self, ray_session, tmp_path):
        """A rebuild under a different fingerprint must not leave the old
        attempt's parquet files mixed into the stage dirs."""
        import glob
        import os

        import ray.data

        rows = [{"url": _url_for(i), "html": synthesize_html(f"alpha beta doc{i}").encode()}
                for i in range(30)]
        out = str(tmp_path / "idx")
        ds = ray.data.from_items(rows)
        build_index(ds, out, EngineConfig(chunk_size=4))
        def shard_files():
            # (path, chunk_size its footer records): the file names are
            # fixed, so a stale file shows as the old build's chunk_size
            from search_engine_ray.stages.postings_file import ShardFile

            return {(p, ShardFile(p).chunk_size) for p in glob.glob(
                os.path.join(out, "postings", "**", "postings.bin"), recursive=True)}

        files_v1 = shard_files()
        assert files_v1 and {cs for _p, cs in files_v1} == {4}
        # different config → different fingerprint → full rebuild
        ds2 = ray.data.from_items(rows)
        build_index(ds2, out, EngineConfig(chunk_size=8), resume=True)
        files_v2 = shard_files()
        assert not (files_v1 & files_v2), "stale files survived the rebuild"
        assert {p for p, _cs in files_v1} == {p for p, _cs in files_v2}
        eng = SearchEngine(out, EngineConfig(chunk_size=8), build_bktree=False)
        assert eng.boolean_and("alpha beta").tolist() == list(range(1, 31))


class TestCosineNorms:
    def test_norms_match_oracle(self, built):
        """A8: sqrt(sum (tf*idf)^2) per doc vs the brute-force oracle."""
        import numpy as np

        from search_engine_ray.pipelines.norms import cosine_norms

        engine, oracle, paths = built
        got = {r["doc_id"]: r["norm"] for r in cosine_norms(paths.out_dir).take_all()}
        for doc_id, text in enumerate(TEXTS, start=1):
            postings, _ = oracle.tokenizer.doc_postings(doc_id, text)
            expect = 0.0
            for term, positions in postings.items():
                idf = np.log10(oracle.num_docs / oracle.df(term))
                expect += (len(positions) * idf) ** 2
            expect = float(np.sqrt(expect))
            if expect == 0.0:
                assert doc_id not in got or got[doc_id] == 0.0
            else:
                assert got[doc_id] == pytest.approx(expect, rel=1e-9), doc_id


class TestDocUrls:
    def test_doc_urls_roundtrip(self, built):
        engine, oracle, _ = built
        tp = None
        for term in ["the", "quick", "fox"]:
            tp = engine.get_postings(term)
            if tp is not None:
                break
        assert tp is not None
        urls = engine.doc_urls(tp.doc_ids[:5])
        assert all(u and u.startswith("http") for u in urls)
        # unknown doc_id → None
        assert engine.doc_urls([99999999])[0] is None


class TestConfigFlipInvalidatesResume:
    def test_bigram_flag_rebuilds_and_extends_dictionary(self, ray_session, tmp_path):
        import pyarrow.parquet as pq
        import ray.data

        from search_engine_ray.sources.webpages import _url_for

        rows = [{"url": _url_for(i), "html": synthesize_html(t).encode()}
                for i, t in enumerate(["alpha beta gamma", "beta gamma delta",
                                       "gamma delta alpha"])]
        ds = ray.data.from_items(rows).materialize()
        out = str(tmp_path / "idx")
        build_index(ds, out, EngineConfig(min_rows_per_file=None), resume=True)
        base_terms = set(pq.read_table(f"{out}/dictionary", columns=["term"])["term"].to_pylist())
        assert "alpha beta" not in base_terms

        # same input, flipped config → fingerprint differs → full rebuild
        # even with resume=True, and bigram terms appear
        build_index(ds, out, EngineConfig(min_rows_per_file=None, index_bigrams=True),
                    resume=True)
        bi_terms = set(pq.read_table(f"{out}/dictionary", columns=["term"])["term"].to_pylist())
        assert base_terms < bi_terms
        assert "alpha beta" in bi_terms and "beta gamma" in bi_terms

        eng = SearchEngine(out, EngineConfig(index_bigrams=True), build_bktree=False)
        blended = eng.bm25_topk_blended("alpha beta", 3)
        plain = eng.bm25_topk("alpha beta", 3)
        assert blended and plain
        # doc 1 ("alpha beta gamma") contains the bigram → boosted to rank 1
        assert blended[0][0] == 1


class TestEmptyCorpus:
    def test_build_and_query_empty_input(self, ray_session, tmp_path):
        import pyarrow as pa
        import ray.data

        empty = ray.data.from_arrow(pa.table({"url": pa.array([], pa.string()),
                                              "html": pa.array([], pa.binary())}))
        out = str(tmp_path / "idx")
        build_index(empty, out, EngineConfig(min_rows_per_file=None))
        st = load_stats(out)
        assert st["num_docs"] == 0 and st["avgdl"] == 0.0
        eng = SearchEngine(out, build_bktree=False)
        assert eng.num_terms == 0
        assert eng.bm25_topk("anything at all", 5) == []
        assert eng.boolean_and("anything").tolist() == []


def test_manifests_carry_stage_metrics(built):
    """North-rule 'lineage + metrics': every stage manifest records its
    wall time; row-bearing stages also derive rows/s."""
    import json
    import os

    out_dir = built[2].out_dir
    found = 0
    for sub in ["docs", "runs", "dict_partials", "dictionary", "postings"]:
        mp = os.path.join(out_dir, sub, "_MANIFEST.json")
        if not os.path.exists(mp):
            continue
        doc = json.load(open(mp))
        assert "elapsed_s" in doc, sub
        if doc.get("num_rows") and doc["elapsed_s"] > 0:
            assert doc.get("rows_per_s", 0) > 0, sub
        found += 1
    assert found >= 4


def test_suggest_did_you_mean(built):
    """suggest(): in-vocabulary probes suggest themselves at distance 0;
    near-misses correct to the vocabulary term; far garbage returns None."""
    engine, _oracle, _paths = built
    s = engine.suggest("hello")
    assert s is not None and s[0] == "hello" and s[1] == 0
    s = engine.suggest("helo")  # corpus plants 'helo' AND 'hello' — min df? no:
    assert s is not None and s[1] == 0  # 'helo' itself is in the corpus
    s = engine.suggest("wrold")
    assert s is not None and s[0] in {"wrld", "world"} and s[1] >= 1
    assert engine.suggest("zzzzzzzzzq") is None


def test_ordered_window_slop(built):
    """Greedy searchsorted chains equal a brute-force spec: doc matches
    iff ordered positions exist with span - (n-1) <= slop."""
    import itertools

    engine, oracle, _paths = built

    def brute(words, slop):
        out = []
        pls_by_doc = {}
        for t in words:
            if t not in oracle.postings:
                return []
        docs = set.intersection(*(set(oracle.postings[t]) for t in words))
        for doc_id in sorted(docs):
            pls = [oracle.postings[t][doc_id] for t in words]
            for combo in itertools.product(*pls):
                if all(a < b for a, b in zip(combo, combo[1:])) and \
                        combo[-1] - combo[0] - (len(words) - 1) <= slop:
                    out.append(doc_id)
                    break
        return out

    for q, slop in [("hello world", 0), ("hello world", 2),
                    ("alpha gamma", 1), ("alpha beta gamma", 4),
                    ("common common", 0)]:
        words = [t.word for t in engine.tokenizer.tokenize(q)]
        got = engine.ordered_window(q, slop=slop).tolist()
        assert got == brute(words, slop), (q, slop)


def test_within_window_brute(built):
    """Unordered window equals the brute-force min-span spec (and repeated
    query words collapse to one term)."""
    import itertools

    engine, oracle, _paths = built

    def brute(words, w):
        terms = list(dict.fromkeys(words))
        if any(t not in oracle.postings for t in terms):
            return []
        docs = set.intersection(*(set(oracle.postings[t]) for t in terms))
        out = []
        for doc_id in sorted(docs):
            pls = [oracle.postings[t][doc_id] for t in terms]
            if any(max(c) - min(c) + 1 <= w for c in itertools.product(*pls)):
                out.append(doc_id)
        return out

    for q, w in [("hello world", 2), ("alpha gamma", 3),
                 ("alpha beta gamma", 5), ("common common", 1),
                 ("quick lazy", 8)]:
        words = [t.word for t in engine.tokenizer.tokenize(q)]
        got = engine.within_window(q, window=w).tolist()
        assert got == brute(words, w), (q, w)


class TestBM25Filtered:
    def test_filter_before_topk_matches_postfiltered_full_list(self, built):
        """Filtered top-k == the allowed entries of the FULL (k=∞) ranked
        list, scores bit-identical (same weights code path, corpus idf)."""
        engine, _oracle, _ = built
        n = engine.num_docs
        ids = np.arange(1, n + 1)
        engine.set_doc_attr("parity", ids, ["even" if i % 2 == 0 else "odd" for i in ids])
        for q in ["common", "quick brown", "fox", "common word"]:
            full = engine.bm25_topk(q, 10_000_000)
            want = [(d, s) for d, s in full if d % 2 == 0][:3]
            got = engine.bm25_topk_filtered(q, 3, attr="parity", allowed=("even",))
            assert got == want, q

    def test_docs_absent_from_attr_never_match(self, built):
        engine, _oracle, _ = built
        # attribute registered for doc 1 only → every other doc filtered out
        engine.set_doc_attr("only1", np.array([1]), ["yes"])
        got = engine.bm25_topk_filtered("common word", 100, attr="only1",
                                        allowed=("yes",))
        assert {d for d, _ in got} <= {1}

    def test_unknown_value_returns_empty(self, built):
        engine, _oracle, _ = built
        n = engine.num_docs
        engine.set_doc_attr("lang", np.arange(1, n + 1), ["en"] * n)
        assert engine.bm25_topk_filtered("common", 10, attr="lang",
                                         allowed=("zz",)) == []


class TestBM25Capped:
    def test_greedy_cap_matches_scalar_spec(self, built):
        """cap-greedy == 'keep iff fewer than cap better-ranked docs share
        the value', checked against a transparent Python spec."""
        engine, _oracle, _ = built
        n = engine.num_docs
        ids = np.arange(1, n + 1)
        vals = [f"g{i % 4}" for i in ids]
        engine.set_doc_attr("grp4", ids, vals)
        for q in ["common", "common word", "quick brown", "fox"]:
            full = engine.bm25_topk(q, 10_000_000)
            for cap in (1, 2, 3):
                seen: dict = {}
                want = []
                for d, s in full:
                    g = vals[d - 1]
                    if seen.get(g, 0) < cap:
                        seen[g] = seen.get(g, 0) + 1
                        want.append((d, s))
                    if len(want) == 5:
                        break
                got = engine.bm25_topk_capped(q, 5, attr="grp4", cap=cap)
                assert got == want, (q, cap)

    def test_large_cap_equals_plain_topk(self, built):
        engine, _oracle, _ = built
        n = engine.num_docs
        engine.set_doc_attr("one", np.arange(1, n + 1), ["v"] * n)
        q = "common word"
        assert engine.bm25_topk_capped(q, 10, attr="one", cap=10 ** 9) \
            == engine.bm25_topk(q, 10)
        # cap=1 on a single shared value → only the best doc
        got = engine.bm25_topk_capped(q, 10, attr="one", cap=1)
        assert got == engine.bm25_topk(q, 1)

    def test_unregistered_docs_share_unknown_group(self, built):
        engine, _oracle, _ = built
        engine.set_doc_attr("partial", np.array([1]), ["x"])
        got = engine.bm25_topk_capped("common word", 10, attr="partial", cap=1)
        # at most 1 hit from the registered group and 1 from 'unknown'
        assert len(got) <= 2


def test_doc_attr_null_values_never_match(built):
    engine, _oracle, _ = built
    n = engine.num_docs
    ids = np.arange(1, n + 1)
    vals = ["en" if i % 2 else None for i in ids]
    engine.set_doc_attr("nullable", ids, vals)
    got = engine.bm25_topk_filtered("common word", 1000, attr="nullable",
                                    allowed=("en",))
    assert got and all(d % 2 == 1 for d, _s in got)


class TestPostingsCacheCoherence:
    """BM25 weights live on their decoded-postings cache entry: under a
    2-term cache every query cycle evicts, and results must not move."""

    CYCLE = QUERIES + ["the quick brown fox jumps over the lazy dog",
                       "common word alpha beta gamma", "repeat phrase target"]

    @pytest.fixture()
    def tiny(self, built):
        engine, oracle, paths = built
        eng = SearchEngine(paths.out_dir, engine.config, build_bktree=False)
        eng._cache_cap = 2
        return eng, oracle

    def test_rank_identity_to_oracle_under_eviction(self, tiny):
        eng, oracle = tiny
        for _round in range(2):
            for q in self.CYCLE:
                for k in (3, 10):  # k = 3 cuts inside the 'common' tie group
                    assert eng.bm25_topk(q, k) == oracle.bm25_topk(q, k), (q, k)
                assert len(eng._cache) <= 2

    def test_weights_never_outlive_their_entry(self, tiny):
        from search_engine_ray.query.scoring import bm25_weights

        eng, _oracle = tiny
        first = eng.bm25_postings("common")[1]
        for q in self.CYCLE:
            eng.bm25_topk(q, 10)
            for term, (tp, w) in eng._cache.items():
                if w is None:
                    continue
                assert not w.flags.writeable
                want = bm25_weights(tp.tfs, eng.doc_length(tp.doc_ids), tp.df,
                                    eng.num_docs, eng.avgdl)
                assert w.tobytes() == want.tobytes(), term
        assert "common" not in eng._cache
        again = eng.bm25_postings("common")[1]
        assert again is not first and again.tobytes() == first.tobytes()

    def test_modes_match_default_cache(self, built, tiny):
        engine, _oracle, _ = built
        eng, _ = tiny
        ids = np.arange(1, engine.num_docs + 1)
        for e in (engine, eng):
            e.set_doc_attr("par", ids, ["even" if i % 2 == 0 else "odd" for i in ids])
            e.set_doc_sort_attr("rank", ids, (ids * 7) % 11)
        for q in self.CYCLE:
            assert eng.bm25_topk_msm(q, 10, 2) == engine.bm25_topk_msm(q, 10, 2), q
            assert eng.bm25_topk_filtered(q, 5, attr="par", allowed=("odd",)) \
                == engine.bm25_topk_filtered(q, 5, attr="par", allowed=("odd",)), q
            assert eng.bm25_topk_range(q, 5, attr="rank", lo=2, hi=8) \
                == engine.bm25_topk_range(q, 5, attr="rank", lo=2, hi=8), q
            assert eng.bm25_topk_sorted(q, 5, attr="rank") \
                == engine.bm25_topk_sorted(q, 5, attr="rank"), q
            assert eng.bm25_prox_topk(q, 5) == engine.bm25_prox_topk(q, 5), q
            assert eng.bm25_topk_blended(q, 5) == engine.bm25_topk_blended(q, 5), q
            assert eng.search(q, 5) == engine.search(q, 5), q


class TestDenseTopkRouting:
    """Every ranked mode returns the same result when its engine's top-k
    scratch takes the dense path at any input size as with the one-sort
    kernel, and the scratch is left clean."""

    def test_modes_identical_on_either_kernel(self, built):
        from unittest import mock

        from search_engine_ray.query import scoring
        from search_engine_ray.query.fields import bm25f_topk

        engine, oracle, paths = built
        eng = SearchEngine(paths.out_dir, engine.config, build_bktree=False)
        ids = np.arange(1, eng.num_docs + 1)
        eng.set_doc_attr("par", ids, ["even" if i % 2 == 0 else "odd" for i in ids])
        eng.set_doc_sort_attr("rank", ids, (ids * 7) % 11)
        modes = [
            lambda q: eng.bm25_topk(q, 3),
            lambda q: eng.tfidf_topk(q, 10),
            lambda q: eng.tfidf_topk(q, 10, dtype=np.float64),
            lambda q: eng.bm25_topk_msm(q, 10, 2),
            lambda q: eng.bm25_topk_filtered(q, 5, attr="par", allowed=("odd",)),
            lambda q: eng.bm25_topk_range(q, 5, attr="rank", lo=2, hi=8),
            lambda q: eng.bm25_topk_sorted(q, 5, attr="rank"),
            lambda q: eng.bm25_prox_topk(q, 5),
            lambda q: eng.bm25_topk_blended(q, 5),
            lambda q: eng.ql_topk(q, 5),
            lambda q: eng.search(q, 5),
            lambda q: bm25f_topk({"a": eng, "b": engine}, {"a": 1.0, "b": 0.5}, q, 5),
        ]
        queries = TestPostingsCacheCoherence.CYCLE
        want = [[m(q) for m in modes] for q in queries]
        with mock.patch.object(scoring, "_DENSE_MIN_PAIRS", 0):
            got = [[m(q) for m in modes] for q in queries]
            for q in queries:
                assert eng.bm25_topk(q, 3) == oracle.bm25_topk(q, 3), q
        assert got == want
        assert len(eng._scratch.seen) > eng.num_docs and not eng._scratch.seen.any()


def _prox_spec(oracle, eng, query, w=1.0):
    """bm25_prox_topk from the oracle's postings: BM25 plus, per pair of
    distinct query terms present in a doc, w·(idf_a + idf_b)/md²."""
    from search_engine_ray.query.scoring import bm25_idf

    scores = dict(oracle.bm25_topk(query, 10**6))
    terms = [t for t in eng.query_terms(query) if oracle.postings.get(t)]
    for a in range(len(terms)):
        for b in range(a + 1, len(terms)):
            pa_, pb_ = oracle.postings[terms[a]], oracle.postings[terms[b]]
            idf = (bm25_idf(len(pa_), oracle.num_docs)
                   + bm25_idf(len(pb_), oracle.num_docs))
            for d in set(pa_) & set(pb_):
                md = max(min(abs(i - j) for i in pa_[d] for j in pb_[d]), 1)
                scores[d] += w * idf / md**2
    return scores


class TestLeanPostingsCache:
    """BM25 misses cache lean postings (doc ids + tfs); positional modes
    upgrade the same entry in place. Under a 2-term cache, interleaved
    modes over overlapping terms evict, hit and upgrade constantly."""

    MODES_QUERIES = ["alpha beta", "beta gamma", "alpha gamma beta",
                     "phrase target", "common word", "quick brown fox"]

    @pytest.fixture()
    def tiny(self, built):
        engine, oracle, paths = built
        eng = SearchEngine(paths.out_dir, engine.config, build_bktree=False)
        eng._cache_cap = 2
        reads = []
        read = eng.locator.read

        def recording_read(term, columns=None):
            reads.append((term, columns))
            return read(term, columns=columns)

        eng.locator.read = recording_read
        return eng, engine, oracle, reads

    def test_mixed_modes_match_oracle(self, tiny):
        eng, engine, oracle, _reads = tiny
        for _round in range(2):
            for q in self.MODES_QUERIES:
                assert eng.bm25_topk(q, 10) == oracle.bm25_topk(q, 10), q
                assert eng.phrase(q).tolist() == oracle.phrase(q), q
                got = eng.bm25_prox_topk(q, 1000)
                want = _prox_spec(oracle, eng, q)
                assert {d for d, _ in got} == set(want), q
                for d, s in got:
                    assert s == pytest.approx(want[d], rel=1e-12), (q, d)
                assert got[:5] == engine.bm25_prox_topk(q, 5), q
                for t in eng.query_terms(q):
                    tp = eng.get_postings(t)
                    for d, positions in oracle.postings.get(t, {}).items():
                        assert tp.positions_for_doc(d).tolist() == positions, (t, d)
                assert len(eng._cache) <= 2

    def test_bm25_miss_reads_once_without_positions(self, tiny):
        from search_engine_ray.query.postings_codec import LEAN_COLUMNS

        eng, _engine, _oracle, reads = tiny
        eng.bm25_topk("alpha beta", 10)
        assert reads == [("alpha", LEAN_COLUMNS), ("beta", LEAN_COLUMNS)]
        assert not any(c.startswith("pos_") for c in LEAN_COLUMNS)
        del reads[:]
        eng.bm25_topk("alpha beta", 10)  # both cached: no read
        assert reads == []

    def test_upgrade_keeps_slot_and_weights(self, tiny):
        eng, _engine, _oracle, reads = tiny
        eng.bm25_topk("alpha beta", 10)
        before = {t: (ent[0], ent[1]) for t, ent in eng._cache.items()}
        assert all(tp.pos_offsets is None for tp, _w in before.values())
        del reads[:]
        eng.phrase("alpha beta")
        # one full-column re-read per lean term, same FIFO order
        assert reads == [("alpha", None), ("beta", None)]
        assert list(eng._cache) == list(before)
        for t, (tp, w) in before.items():
            new_tp, new_w = eng._cache[t]
            assert new_w is w  # the same read-only weights array object
            assert new_tp is not tp and new_tp.pos_offsets is not None
            np.testing.assert_array_equal(new_tp.doc_ids, tp.doc_ids)
            np.testing.assert_array_equal(new_tp.tfs, tp.tfs)
        del reads[:]
        eng.bm25_prox_topk("alpha beta", 5)  # positional and weighted: hits
        assert reads == []

    def test_lean_postings_refuse_positions(self, tiny):
        from search_engine_ray.query.postings_codec import ragged_slices

        eng, _engine, _oracle, _reads = tiny
        tp, _w = eng.bm25_postings("common")
        assert tp.pos_offsets is None and len(tp.pos_values) == 0
        with pytest.raises(ValueError):
            tp.positions_of(0)
        with pytest.raises(ValueError):
            tp.positions_for_doc(int(tp.doc_ids[0]))
        with pytest.raises(TypeError):
            ragged_slices(tp.pos_offsets, tp.pos_values, np.array([0]))


def test_bm25_miss_goes_through_traced_hooks(built, monkeypatch):
    """The serving benchmark's per-layer trace wraps the ``query.engine``
    globals ``decode_term_chunks``, ``bm25_weights`` and ``topk_docs`` and
    the engine's ``locator.read``; a cache-miss ``bm25_topk`` must read
    each term once, then decode and weigh its misses as ONE batch, and the
    decode counter's ``a[0].num_rows``, ``len(out.doc_ids)`` and
    ``len(out.pos_values)`` must work on a lean batch."""
    import search_engine_ray.query.engine as engine_mod

    engine, oracle, paths = built
    eng = SearchEngine(paths.out_dir, engine.config, build_bktree=False)
    calls = {"read": 0, "decode": 0, "weights": 0, "topk": 0}
    batches = []

    def counting(name, fn, after=None):
        def wrapped(*a, **kw):
            calls[name] += 1
            out = fn(*a, **kw)
            if after:
                after(a, out)
            return out
        return wrapped

    monkeypatch.setattr(engine_mod, "decode_term_chunks", counting(
        "decode", engine_mod.decode_term_chunks,
        lambda a, out: batches.append((a[0].num_rows, len(out.doc_ids),
                                       len(out.pos_values)))))
    monkeypatch.setattr(engine_mod, "bm25_weights",
                        counting("weights", engine_mod.bm25_weights))
    monkeypatch.setattr(engine_mod, "topk_docs",
                        counting("topk", engine_mod.topk_docs))
    eng.locator.read = counting("read", eng.locator.read)
    assert eng.bm25_topk("alpha beta", 10) == oracle.bm25_topk("alpha beta", 10)
    assert calls == {"read": 2, "decode": 1, "weights": 1, "topk": 1}
    dfs = eng.lookup("alpha")[1] + eng.lookup("beta")[1]
    assert batches == [(2, dfs, 0)]


class TestLeanReadsPerMode:
    """On a cold cache, the modes that use only doc ids and tfs read only
    ``LEAN_COLUMNS``; the positional ones read every column."""

    LEAN = [
        ("boolean_and", ("alpha beta",)),
        ("boolean_or", ("alpha beta",)),
        ("tfidf_topk", ("alpha beta",)),
        ("ql_topk", ("alpha beta",)),
        ("fuzzy_boolean", ("alpah", 2)),
        ("wildcard_boolean", ("al*",)),
        ("phrase", ("alpha",)),
        ("search", ("alpha +beta -gamma",)),
        ("search", ("common word -fox",)),
    ]
    POSITIONAL = [
        ("phrase", ("alpha beta",)),
        ("snippets", ("alpha beta",)),
        ("bm25_prox_topk", ("alpha beta",)),
    ]

    @staticmethod
    def _cold(built):
        engine, _oracle, paths = built
        eng = SearchEngine(paths.out_dir, engine.config)
        reads = []
        read = eng.locator.read

        def recording_read(term, columns=None):
            reads.append((term, columns))
            return read(term, columns=columns)

        eng.locator.read = recording_read
        return eng, engine, reads

    @pytest.mark.parametrize("mode,args", LEAN)
    def test_lean_modes_read_lean_columns(self, built, mode, args):
        from search_engine_ray.query.postings_codec import LEAN_COLUMNS

        eng, engine, reads = self._cold(built)
        np.testing.assert_equal(getattr(eng, mode)(*args),
                                getattr(engine, mode)(*args))
        assert reads and all(cols == LEAN_COLUMNS for _t, cols in reads), reads
        if mode == "search" and "-" in args[0]:
            assert args[0].rsplit("-", 1)[1] in {t for t, _c in reads}

    @pytest.mark.parametrize("mode,args", POSITIONAL)
    def test_positional_modes_read_all_columns(self, built, mode, args):
        eng, engine, reads = self._cold(built)
        np.testing.assert_equal(getattr(eng, mode)(*args),
                                getattr(engine, mode)(*args))
        assert reads and all(cols is None for _t, cols in reads), reads
