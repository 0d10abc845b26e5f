"""Distributed serving (query/service.py): per-shard actors + term fan-out
must return results IDENTICAL to the single-process SearchEngine."""

import numpy as np
import pytest

from search_engine_ray.config import EngineConfig
from search_engine_ray.pipelines.build import build_index
from search_engine_ray.query.engine import SearchEngine
from search_engine_ray.query.service import DistributedSearchEngine
from search_engine_ray.sources.webpages import generate_webpages

QUERIES = [
    "bababa cababa dababa",
    "bababa",
    "fababa gababa",
    "nosuchterm bababa",
    "nosuchterm othermissing",
    "",
]


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("svc") / "idx")
    corpus = generate_webpages(2500, vocab_size=2000, tokens_per_doc=70, seed=13)
    cfg = EngineConfig(index_shards=8, min_rows_per_file=None)
    build_index(corpus, out, cfg)
    local = SearchEngine(out, cfg)
    dist = DistributedSearchEngine(out, n_actors=3, config=cfg)
    yield local, dist
    dist.shutdown()


class TestDistributedServing:
    def test_actors_partition_the_dictionary(self, built):
        import ray

        local, dist = built
        counts = ray.get([a.n_terms.remote() for a in dist.actors])
        assert sum(counts) == local.num_terms
        assert all(c > 0 for c in counts)  # every actor owns real terms

    @pytest.mark.parametrize("q", QUERIES)
    def test_bm25_identical_to_local(self, built, q):
        local, dist = built
        assert dist.bm25_topk(q, 10) == local.bm25_topk(q, 10)

    @pytest.mark.parametrize("q", QUERIES)
    def test_bm25_range_identical_to_local(self, built, q):
        local, dist = built
        n = local.num_docs
        ids = np.arange(1, n + 1)
        vals = (ids * 37) % 101   # deterministic numeric attr
        local.set_doc_sort_attr("sz", ids, vals)
        dist.set_doc_sort_attr("sz", ids, vals)
        for lo, hi in [(10, 60), (0, 200), (95, 100)]:
            a = local.bm25_topk_range(q, 10, attr="sz", lo=lo, hi=hi)
            b = dist.bm25_topk_range(q, 10, attr="sz", lo=lo, hi=hi)
            assert a == b, (q, lo, hi)

    @pytest.mark.parametrize("q", QUERIES)
    def test_bm25_sorted_identical_to_local(self, built, q):
        local, dist = built
        n = local.num_docs
        ids = np.arange(1, n + 1)
        vals = (ids * 41) % 89
        # leave some docs out of the registry: missing-last contract
        keep = ids % 13 != 0
        local.set_doc_sort_attr("sz2", ids[keep], vals[keep])
        dist.set_doc_sort_attr("sz2", ids[keep], vals[keep])
        for desc in (True, False):
            a = local.bm25_topk_sorted(q, 10, attr="sz2", descending=desc)
            b = dist.bm25_topk_sorted(q, 10, attr="sz2", descending=desc,
                                      chunk=97)
            # NaN != NaN — compare fields with nan-aware value check
            assert len(a) == len(b)
            for (d1, v1, s1), (d2, v2, s2) in zip(a, b):
                assert d1 == d2 and s1 == s2
                assert (v1 == v2) or (np.isnan(v1) and np.isnan(v2))

    @pytest.mark.parametrize("q", QUERIES)
    def test_bm25_prox_identical_to_local(self, built, q):
        local, dist = built
        for k in (3, 10):
            assert dist.bm25_prox_topk(q, k) == local.bm25_prox_topk(q, k)

    @pytest.mark.parametrize("q", QUERIES)
    def test_boolean_identical_to_local(self, built, q):
        local, dist = built
        np.testing.assert_array_equal(dist.boolean_and(q), local.boolean_and(q))

    def test_hot_term_fetch_is_bounded(self, ray_session, tmp_path):
        """A term present in EVERY doc must not ship its posting list to
        the coordinator: rows fetched per query stay O(pages + candidates)
        (round-2 VERDICT #5 done-criterion)."""
        import ray.data

        n_docs = 3000
        rows = [{"url": f"https://h-{i:06d}.test/", "html":
                 (f"<html><p>hotword filler{i % 97} mid{i % 11} "
                  f"tail{i % 7}</p></html>").encode()} for i in range(n_docs)]
        corpus = ray.data.from_items(rows, override_num_blocks=4)
        out = str(tmp_path / "hot")
        cfg = EngineConfig(index_shards=8, min_rows_per_file=None)
        build_index(corpus, out, cfg)
        local = SearchEngine(out, cfg, build_bktree=False)
        dist = DistributedSearchEngine(out, n_actors=2, config=cfg)
        try:
            got = dist.bm25_topk("hotword mid3", 10)
            assert got == local.bm25_topk("hotword mid3", 10)
            # hotword df == n_docs; the bounded path must fetch FAR less
            assert dist.last_fetch_rows < n_docs // 2, dist.last_fetch_rows
        finally:
            dist.shutdown()

    def test_paging_loop_stays_exact_with_tiny_page(self, built):
        """Force many threshold-loop iterations (page=2, no whole-list
        shortcut): results must stay identical to the local engine,
        including ties."""
        local, dist = built
        for q in ["bababa cababa dababa", "bababa", "fababa gababa"]:
            assert dist.bm25_topk(q, 10, page=2, small_df_cap=0) == local.bm25_topk(q, 10)


class TestDistributedOrAndMlt:
    @pytest.mark.parametrize("q", QUERIES)
    def test_boolean_or_identical_to_local(self, built, q):
        local, dist = built
        np.testing.assert_array_equal(dist.boolean_or(q), local.boolean_or(q))

    def test_more_like_this_identical_to_local(self, built):
        local, dist = built
        text = "bababa cababa dababa fababa bababa rare words here"
        for exclude in (None, 3):
            assert dist.more_like_this(text, k=10, exclude=exclude) == \
                local.more_like_this(text, k=10, exclude=exclude)

    @pytest.mark.parametrize("q", QUERIES)
    def test_snippets_identical_to_local(self, built, q):
        local, dist = built
        assert dist.snippets(q, 10) == local.snippets(q, 10)


class TestDistributedPhraseProximity:
    @pytest.mark.parametrize("q", ["bababa cababa", "dababa fababa", "bababa"])
    def test_phrase_identical_to_local(self, built, q):
        local, dist = built
        np.testing.assert_array_equal(dist.phrase(q), local.phrase(q))

    def test_proximity_identical_to_local(self, built):
        local, dist = built
        assert dist.proximity("bababa", "cababa", 3) == local.proximity("bababa", "cababa", 3)
        assert dist.proximity("bababa", "nosuch", 3) == local.proximity("bababa", "nosuch", 3)

    @pytest.mark.parametrize("q,slop", [("bababa cababa", 0), ("bababa cababa", 3),
                                        ("dababa fababa", 2), ("bababa", 0)])
    def test_ordered_window_identical_to_local(self, built, q, slop):
        local, dist = built
        np.testing.assert_array_equal(dist.ordered_window(q, slop),
                                      local.ordered_window(q, slop))

    @pytest.mark.parametrize("q,w", [("bababa cababa", 2), ("bababa cababa", 6),
                                     ("dababa fababa", 4)])
    def test_within_window_identical_to_local(self, built, q, w):
        local, dist = built
        np.testing.assert_array_equal(dist.within_window(q, w),
                                      local.within_window(q, w))


class TestDistributedModeParity:
    """tfidf / blended / fuzzy distributed modes == the local engine."""

    @pytest.mark.parametrize("q", QUERIES)
    def test_tfidf_identical_to_local(self, built, q):
        local, dist = built
        assert dist.tfidf_topk(q, 10) == local.tfidf_topk(q, 10)

    @pytest.mark.parametrize("q", QUERIES[:3])
    def test_tfidf_f64_mode(self, built, q):
        local, dist = built
        assert dist.tfidf_topk(q, 5, dtype=np.float64) == \
            local.tfidf_topk(q, 5, dtype=np.float64)

    def test_tfidf_tiny_page_stays_exact(self, built):
        local, dist = built
        q = QUERIES[0]
        assert dist.tfidf_topk(q, 10, page=2, small_df_cap=0) == \
            local.tfidf_topk(q, 10)

    def test_fuzzy_identical_to_local(self, built):
        local, dist = built
        for probe, d in [("bababa", 1), ("cabab", 2), ("zzzzzzz", 1)]:
            assert dist.fuzzy(probe, d) == local.fuzzy(probe, d)
            got = dist.fuzzy_boolean(probe, d)
            want = local.fuzzy_boolean(probe, d)
            assert np.array_equal(got, want)

    def test_blended_identical_to_local(self, ray_session, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("svcbg") / "idx")
        corpus = generate_webpages(800, vocab_size=500, tokens_per_doc=40, seed=7)
        cfg = EngineConfig(index_shards=4, index_bigrams=True, min_rows_per_file=None)
        build_index(corpus, out, cfg)
        local = SearchEngine(out, cfg, build_bktree=False)
        dist = DistributedSearchEngine(out, n_actors=2, config=cfg)
        try:
            for q in QUERIES[:4]:
                for bw in (1.0, 0.5):
                    assert dist.bm25_topk_blended(q, 10, bigram_weight=bw) == \
                        local.bm25_topk_blended(q, 10, bigram_weight=bw)
        finally:
            dist.shutdown()


class TestBoundedPositions:
    def test_positions_fetch_restricted_to_candidates(self, built):
        """term_positions_for_docs ships only the requested docs' positions,
        not the term's full position stream."""
        import ray

        local, dist = built
        tp = local.get_postings("bababa")
        assert tp is not None and tp.df > 3
        want = tp.doc_ids[:2]  # two candidate docs out of a larger df
        for actor in dist.actors:
            got = ray.get(actor.term_positions_for_docs.remote(["bababa"], want))
            if "bababa" in got:
                d, o, v = got["bababa"]
                assert np.array_equal(d, want)
                assert len(o) == len(want) + 1
                assert len(v) < len(tp.pos_values)  # strictly less than full
                for j, doc in enumerate(want):
                    np.testing.assert_array_equal(
                        v[o[j]:o[j + 1]], tp.positions_for_doc(int(doc)))
                break
        else:
            pytest.fail("no actor owns the probe term")


class TestFilteredServing:
    @pytest.mark.parametrize("q", QUERIES)
    def test_bm25_filtered_identical_to_local(self, built, q):
        local, dist = built
        n = local.num_docs
        ids = np.arange(1, n + 1)
        vals = ["a" if i % 3 == 0 else ("b" if i % 3 == 1 else "c") for i in ids]
        local.set_doc_attr("grp", ids, vals)
        dist.set_doc_attr("grp", ids, vals)
        for allowed in [("a",), ("a", "c"), ("zz",), ()]:
            got = dist.bm25_topk_filtered(q, 10, attr="grp", allowed=allowed)
            want = local.bm25_topk_filtered(q, 10, attr="grp", allowed=allowed)
            assert got == want, (q, allowed)

    def test_filtered_pages_never_ship_disallowed_docs(self, built):
        """Impact pages under a filter contain only allowed docs — the
        bounded-bytes contract extends to filtered retrieval."""
        local, dist = built
        n = local.num_docs
        ids = np.arange(1, n + 1)
        vals = ["keep" if i % 50 == 0 else "drop" for i in ids]
        dist.set_doc_attr("sparse", ids, vals)
        local.set_doc_attr("sparse", ids, vals)
        q = "bababa"
        got = dist.bm25_topk_filtered(q, 5, attr="sparse", allowed=("keep",))
        assert got == local.bm25_topk_filtered(q, 5, attr="sparse", allowed=("keep",))
        # 2% of docs allowed → fetched rows bounded by the allowed df, far
        # below the unfiltered posting length
        assert dist.last_fetch_rows <= 4 * (n // 50 + 1)
        assert all(d % 50 == 0 for d, _s in got)


def test_reregistering_attr_invalidates_filtered_cache(built):
    local, dist = built
    n = local.num_docs
    ids = np.arange(1, n + 1)
    q = "bababa"
    dist.set_doc_attr("flip", ids, ["x" if i % 2 else "y" for i in ids])
    first = dist.bm25_topk_filtered(q, 5, attr="flip", allowed=("x",))
    # flip the assignment: same attr name, same value set → same codes
    dist.set_doc_attr("flip", ids, ["y" if i % 2 else "x" for i in ids])
    local.set_doc_attr("flip", ids, ["y" if i % 2 else "x" for i in ids])
    second = dist.bm25_topk_filtered(q, 5, attr="flip", allowed=("x",))
    assert second == local.bm25_topk_filtered(q, 5, attr="flip", allowed=("x",))
    assert second != first  # stale cache would have returned `first`


class TestCappedServing:
    @pytest.mark.parametrize("q", QUERIES)
    @pytest.mark.parametrize("cap", [1, 2])
    def test_bm25_capped_identical_to_local(self, built, q, cap):
        local, dist = built
        n = local.num_docs
        ids = np.arange(1, n + 1)
        vals = [f"g{i % 5}" for i in ids]
        local.set_doc_attr("g5", ids, vals)
        dist.set_doc_attr("g5", ids, vals)
        got = dist.bm25_topk_capped(q, 7, attr="g5", cap=cap)
        want = local.bm25_topk_capped(q, 7, attr="g5", cap=cap)
        assert got == want, (q, cap)

    def test_capped_digits_mode_identical(self, built):
        local, dist = built
        n = local.num_docs
        ids = np.arange(1, n + 1)
        vals = ["a" if i % 2 else "b" for i in ids]
        local.set_doc_attr("ab", ids, vals)
        dist.set_doc_attr("ab", ids, vals)
        q = "bababa cababa"
        got = dist.bm25_topk_capped(q, 6, attr="ab", cap=3, digits=4)
        want = local.bm25_topk_capped(q, 6, attr="ab", cap=3, digits=4)
        assert [d for d, _ in got] == [d for d, _ in want]


class TestServingMatrixR3d:
    """Round-3d additions: QL, AND-NOT and wildcard in distributed serving."""

    @pytest.mark.parametrize("q", QUERIES)
    def test_ql_identical_to_local(self, built, q):
        local, dist = built
        assert dist.ql_topk(q, 10) == local.ql_topk(q, 10)

    @pytest.mark.parametrize("q", QUERIES[:3])
    def test_ql_mu_sweep(self, built, q):
        local, dist = built
        for mu in (50.0, 5000.0):
            assert dist.ql_topk(q, 7, mu=mu) == local.ql_topk(q, 7, mu=mu)

    def test_and_not_identical_to_local(self, built):
        local, dist = built
        pos, neg = QUERIES[0], QUERIES[1].split()[0]
        np.testing.assert_array_equal(
            dist.boolean_and_not(pos, neg), local.boolean_and_not(pos, neg))

    def test_wildcard_identical_to_local(self, built):
        local, dist = built
        # patterns from real vocabulary prefixes/suffixes + a no-match
        seeds = local.kgram.terms[:3] + local.kgram.terms[-2:]
        pats = [t[:2] + "*" for t in seeds] + ["*" + seeds[0][-2:], "zzz*"]
        nonempty = 0
        for p in pats:
            want = local.wildcard_terms(p)
            assert dist.wildcard_terms(p) == want
            np.testing.assert_array_equal(
                dist.wildcard_boolean(p), local.wildcard_boolean(p))
            nonempty += bool(want)
        assert nonempty >= 3  # the fixture really exercises matches

    DSLS = ['%s +%s' % (QUERIES[0].split()[0], QUERIES[1].split()[0]),
            '+%s -%s' % (QUERIES[0].split()[0], QUERIES[2].split()[0]),
            '"%s"' % QUERIES[0], "~zzz"]

    def test_search_dsl_identical_to_local(self, built):
        local, dist = built
        seed = local.kgram.terms[0][:2]
        for q in self.DSLS + [f"{seed}* {QUERIES[0]}"]:
            assert dist.search(q, 10) == local.search(q, 10), q


class TestModesGainedByDistributed:
    """Modes the shard-actor deployment serves through SearchEngine's own
    bodies: each equals the local engine's result."""

    TERM_LISTS = [["bababa", "cababa", "dababa"], ["fababa"], ["nosuchterm", "bababa"], []]

    def test_bm25_topk_terms(self, built):
        local, dist = built
        for terms in self.TERM_LISTS:
            assert dist.bm25_topk_terms(terms, 10) == local.bm25_topk_terms(terms, 10)

    @pytest.mark.parametrize("q", QUERIES)
    def test_bm25_topk_msm(self, built, q):
        local, dist = built
        for m in (1, 2, 3):
            assert dist.bm25_topk_msm(q, 10, m) == local.bm25_topk_msm(q, 10, m), m

    @pytest.mark.parametrize("q", QUERIES)
    def test_bm25_topk_grouped(self, built, q):
        local, dist = built
        ids = np.arange(1, local.num_docs + 1)
        vals = [None if i % 11 == 0 else f"h{i % 4}" for i in ids]
        local.set_doc_attr("h4", ids, vals)
        dist.set_doc_attr("h4", ids, vals)
        for digits in (None, 4):
            assert dist.bm25_topk_grouped(q, 2, attr="h4", digits=digits) == \
                local.bm25_topk_grouped(q, 2, attr="h4", digits=digits)

    @pytest.mark.parametrize("q", QUERIES)
    def test_bm25_prf(self, built, q):
        local, dist = built
        vocab = local.vocabulary()[0]

        def fetch_texts(doc_ids):
            return [" ".join(vocab[(int(d) * 7 + j * 13) % len(vocab)] for j in range(6))
                    for d in doc_ids]

        assert dist.bm25_prf(q, fetch_texts, 10) == local.bm25_prf(q, fetch_texts, 10)

    @pytest.mark.parametrize("q", QUERIES)
    def test_wand_and_maxscore(self, built, q):
        local, dist = built
        assert dist.bm25_topk_wand(q, 7) == local.bm25_topk_wand(q, 7)
        assert dist.bm25_topk_maxscore(q, 7) == local.bm25_topk_maxscore(q, 7)

    @pytest.mark.parametrize("q", QUERIES + ["bababx cababq", "zzzzqq"])
    def test_bm25_topk_corrected(self, built, q):
        local, dist = built
        assert dist.bm25_topk_corrected(q, 10) == local.bm25_topk_corrected(q, 10)

    def test_suggest_and_prefix_search(self, built):
        local, dist = built
        for probe in ("bababa", "bababx", "cabq", "zzzzzzz"):
            assert dist.suggest(probe) == local.suggest(probe), probe
        for prefix in ("ba", "cab", "", "zzz"):
            assert dist.prefix_search(prefix, 5) == local.prefix_search(prefix, 5)

    def test_dictionary_and_doc_lookups(self, built):
        local, dist = built
        for t in ("bababa", "fababa", "nosuchterm", ""):
            assert dist.lookup(t) == local.lookup(t), t
        terms, dfs = dist.vocabulary()
        want_terms, want_dfs = local.vocabulary()
        assert list(terms) == list(want_terms)
        np.testing.assert_array_equal(dfs, want_dfs)
        ids = [1, 2, local.num_docs, local.num_docs + 50]
        assert dist.doc_urls(ids) == local.doc_urls(ids)

    def test_whole_postings_lists_stay_on_the_actors(self, built):
        _local, dist = built
        for read in (dist.get_postings, dist.bm25_postings):
            with pytest.raises(NotImplementedError):
                read("bababa")


def test_positional_modes_ship_candidate_positions_only(ray_session, tmp_path):
    """Phrase, ordered-window and snippet queries over a term present in
    every doc ship the positions of their candidate docs only — strictly
    fewer than the hot term's full position stream."""
    import ray.data

    n_docs = 3000
    rows = [{"url": f"https://p-{i:06d}.test/", "html":
             (f"<html><p>hotword filler{i % 97} mid{i % 11} "
              f"tail{i % 7}</p></html>").encode()} for i in range(n_docs)]
    corpus = ray.data.from_items(rows, override_num_blocks=4)
    out = str(tmp_path / "hotpos")
    cfg = EngineConfig(index_shards=8, min_rows_per_file=None)
    build_index(corpus, out, cfg)
    local = SearchEngine(out, cfg, build_bktree=False)
    dist = DistributedSearchEngine(out, n_actors=2, config=cfg)
    shipped = [0]
    fan_out = dist._fan_out_args

    def counting(terms, method, *args):
        got = fan_out(terms, method, *args)
        if method == "term_positions_for_docs":
            shipped[0] += sum(len(v[2]) for v in got.values())
        return got

    dist._fan_out_args = counting

    def positions_in(terms, docs) -> int:
        n = 0
        for t in terms:
            tp = local.get_postings(t)
            for d in docs:
                p = tp.positions_for_doc(int(d))
                n += 0 if p is None else len(p)
        return n

    full = len(local.get_postings("hotword").pos_values)
    assert full == n_docs
    try:
        cases = [
            ("phrase", lambda e: e.phrase("hotword filler3"),
             lambda: local.boolean_and("hotword filler3")),
            ("ordered_window", lambda e: e.ordered_window("hotword mid3", 1),
             lambda: local.boolean_and("hotword mid3")),
            ("snippets", lambda e: e.snippets("hotword mid3", 5),
             lambda: [d for d, *_rest in local.snippets("hotword mid3", 5)]),
        ]
        for name, run, candidates in cases:
            shipped[0] = 0
            np.testing.assert_equal(run(dist), run(local))
            query_terms = local.query_terms(
                "hotword filler3" if name == "phrase" else "hotword mid3")
            want = positions_in(query_terms, candidates())
            assert 0 < shipped[0] == want < full, (name, shipped[0], want, full)
    finally:
        dist.shutdown()
