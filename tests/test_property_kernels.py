"""Hypothesis property tests: vectorized kernels vs scalar specs over
adversarial inputs (the hand-written cases in test_vb/test_tokenize cover
known edges; these search for unknown ones)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# deterministic example generation: the suite is a gate (driver runs it
# per round) — a fresh random seed per run would make failures
# unactionable; widen coverage by bumping max_examples instead
settings.register_profile("repo", derandomize=True)
settings.load_profile("repo")

from search_engine_ray.functions.hashing import (
    batch_shingle_hashes,
    batch_token_hashes,
    hash_strings_arrow,
    poly_hash_str,
    shingle_hashes,
)
from search_engine_ray.functions.vb import (
    delta_decode,
    delta_encode,
    encode_ascending,
    decode_ascending,
    vb_decode_array,
    vb_encode,
    vb_encode_array,
)

texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60
)


class TestVBProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_vectorized_encode_matches_scalar(self, vals):
        enc, lens = vb_encode_array(np.array(vals, np.uint64))
        want = b"".join(vb_encode(v) for v in vals)
        assert enc.tobytes() == want
        assert [int(x) for x in lens] == [len(vb_encode(v)) for v in vals]

    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, vals):
        enc, _ = vb_encode_array(np.array(vals, np.uint64))
        got = vb_decode_array(enc)
        assert [int(x) for x in got] == vals

    @given(st.lists(st.integers(min_value=0, max_value=2**31), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_ascending_roundtrip(self, gaps):
        vals = np.cumsum(np.array(gaps, np.int64))
        assert list(decode_ascending(encode_ascending(vals))) == [int(v) for v in vals]

    @given(st.lists(st.integers(min_value=0, max_value=2**31), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_delta_spec_roundtrip(self, gaps):
        vals = list(np.cumsum(np.array(gaps, np.int64)))
        assert delta_decode(delta_encode(vals)) == [int(v) for v in vals]


class TestHashProperties:
    @given(st.lists(texts, min_size=1, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_arrow_hash_matches_scalar(self, strs):
        import pyarrow as pa

        h = hash_strings_arrow(pa.array(strs, pa.string()))
        for i, s in enumerate(strs):
            assert int(h[i]) == poly_hash_str(s), repr(s)

    @given(st.lists(texts, min_size=1, max_size=10), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_batch_shingles_match_per_doc(self, docs, k):
        import pyarrow as pa

        from search_engine_ray.pipelines.training_data import _tok_hashes

        offs, th = batch_token_hashes(pa.array(docs, pa.string()))
        sh_off, sh = batch_shingle_hashes(offs, th, k)
        for i, t in enumerate(docs):
            want = shingle_hashes(_tok_hashes(t), k)
            np.testing.assert_array_equal(sh[sh_off[i]:sh_off[i + 1]], want, err_msg=repr(t))


class TestTokenizeProperty:
    @given(st.lists(texts, min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_spec(self, docs):
        import pyarrow as pa

        from search_engine_ray.functions.tokenizer import Tokenizer
        from search_engine_ray.stages.tokenize import tokenize_batch

        tok = Tokenizer()
        batch = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                          "text": pa.array(docs, pa.string())})
        out = tokenize_batch(batch, tok)
        # spec: per-doc postings dict + doc_length
        got = {}
        for row in out.to_pylist():
            if row["term"]:
                got.setdefault(row["doc_id"], {})[row["term"]] = row["tf"]
        for i, t in enumerate(docs):
            postings, _dl = tok.doc_postings(i, t)
            want = {w: len(ps) for w, ps in postings.items()}
            assert got.get(i, {}) == want, repr(t)


class TestQualityBatchTwins:
    @given(st.lists(texts, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_batch_doc_stats_matches_spec(self, docs):
        import pyarrow as pa

        from search_engine_ray.functions.quality import batch_doc_stats, doc_stats

        s = batch_doc_stats(pa.array(docs, pa.string()))
        for i, t in enumerate(docs):
            want = doc_stats(t)
            for k in want:
                got = s[k][i]
                assert got == pytest.approx(want[k]), (k, repr(t))

    # gopher-shaped text: mixes bullets, ellipses, '#', stopwords, newlines
    gopher_texts = st.lists(
        st.one_of(
            texts,
            st.sampled_from(["- item", "• punkt", "* star", "tail...", "x…",
                             "## h", "the", "be", "to", "of", "and", "that",
                             "have", "with", "  - sp", "...", "\t* t"]),
        ),
        max_size=8,
    ).map(lambda parts: "\n".join(parts))

    @given(st.lists(st.one_of(texts, gopher_texts), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_batch_gopher_stats_matches_spec(self, docs):
        import pyarrow as pa

        from search_engine_ray.functions.quality import (
            batch_gopher_pass,
            batch_gopher_stats,
            gopher_pass,
            gopher_stats,
        )

        s = batch_gopher_stats(pa.array(docs, pa.string()))
        flags = batch_gopher_pass(s)
        for i, t in enumerate(docs):
            want = gopher_stats(t)
            for k in want:
                assert s[k][i] == pytest.approx(want[k]), (k, repr(t))
            assert bool(flags[i]) == gopher_pass(want), repr(t)

    def test_gopher_pass_accepts_clean_prose(self):
        from search_engine_ray.functions.quality import gopher_pass, gopher_stats

        doc = ("the quick brown fox jumps over that lazy dog with vigor and "
               "grace to be seen of all observers every single day ") * 5
        s = gopher_stats(doc)
        assert s["n_words"] >= 50 and gopher_pass(s)

    @given(st.lists(texts, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_batch_lang_id_matches_spec(self, docs):
        import pyarrow as pa

        from search_engine_ray.functions.quality import batch_lang_id, lang_id

        langs, confs = batch_lang_id(pa.array(docs, pa.string()))
        for i, t in enumerate(docs):
            wl, wc = lang_id(t)
            assert langs[i] == wl, repr(t)
            assert confs[i] == pytest.approx(wc), repr(t)


class TestPiiRepetitionBatchTwins:
    @given(st.lists(texts, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_batch_pii_scrub_matches_spec(self, docs):
        import pyarrow as pa

        from search_engine_ray.functions.quality import batch_pii_scrub, pii_scrub

        clean, counts = batch_pii_scrub(pa.array(docs, pa.string()))
        for i, t in enumerate(docs):
            wc, wn = pii_scrub(t)
            assert clean[i].as_py() == wc, repr(t)
            for name in wn:
                assert counts[name][i].as_py() == wn[name], (name, repr(t))

    @given(st.lists(texts, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_batch_repetition_matches_spec(self, docs):
        import pyarrow as pa

        from search_engine_ray.functions.quality import (
            batch_repetition_stats,
            repetition_stats,
        )

        s = batch_repetition_stats(pa.array(docs, pa.string()))
        for i, t in enumerate(docs):
            want = repetition_stats(t)
            for k in want:
                assert s[k][i] == pytest.approx(want[k]), (k, repr(t))

    # the sf corpora contain no PII / repeated lines, so the driver oracle
    # check is degenerate there; pin DuckDB == scalar spec on crafted docs
    def test_duckdb_oracle_semantics_on_planted_docs(self):
        import duckdb
        import pandas as pd

        from search_engine_ray.functions.quality import pii_scrub, repetition_stats
        from search_engine_ray.pipelines.driver_queries import oracle_queries

        rows = [
            (1, "reach a.b+spam@ex-ample.org or (555) 123 4567 now"),
            (2, "server at 10.0.0.1 and 999.999.999.999 but not 1.2.3.4.5"),
            (3, "dup line\ndup line\nunique\n\ndup line tail"),
            (4, "w x y z q w x y z q w x y z q"),
            (5, ""),
            (6, "+44 800-555-0199 mails c@d.io c@d.io"),
        ]
        docs = pd.DataFrame(rows, columns=["doc_id", "text"])
        con = duckdb.connect()
        con.register("documents", docs)
        oq = oracle_queries()
        pii = con.execute(oq["pii_scrub"]).df().set_index("doc_id")
        rep = con.execute(oq["repetition"]).df().set_index("doc_id")
        for doc_id, text in rows:
            wc, wn = pii_scrub(text)
            assert pii.loc[doc_id, "text_clean"] == wc, (doc_id, text)
            for name, v in wn.items():
                assert pii.loc[doc_id, f"n_{name}"] == v, (doc_id, name)
            for k, v in repetition_stats(text).items():
                assert rep.loc[doc_id, k] == v, (doc_id, k)
        assert int(pii["n_email"].sum()) == 3 and int(pii["n_phone"].sum()) == 2
        assert rep.loc[3, "dup_line_frac"] == 0.5
        assert rep.loc[4, "dup_5gram_frac"] > 0


def _topk_docs_spec(doc_ids, scores, k):
    """The unique + add.at + full-lexsort top-k that topk_docs must equal:
    per-doc sums in scores.dtype and input order, (score desc, doc_id asc)."""
    if len(doc_ids) == 0:
        return doc_ids[:0], scores[:0]
    uniq, inv = np.unique(doc_ids, return_inverse=True)
    agg = np.zeros(len(uniq), dtype=scores.dtype)
    np.add.at(agg, inv, scores)
    order = np.lexsort((uniq, -agg))[:k]
    return uniq[order], agg[order]


def _assert_topk_matches_spec(doc_ids, scores, k):
    from search_engine_ray.query.scoring import topk_docs

    got_ids, got_sc = topk_docs(doc_ids, scores, k)
    want_ids, want_sc = _topk_docs_spec(doc_ids, scores, k)
    assert got_ids.dtype == want_ids.dtype and got_sc.dtype == want_sc.dtype
    np.testing.assert_array_equal(got_ids, want_ids)
    assert got_sc.tobytes() == want_sc.tobytes(), (got_sc, want_sc)  # bit-identical


# few distinct values make ties at the k-th score common; wide ones make
# the summation order visible in the last ulp
_tie_scores = st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0])
_wide_scores = st.floats(-1e16, 1e16, allow_nan=False)


class TestTopkDocsProperty:
    @given(st.lists(st.lists(st.integers(0, 40), unique=True, max_size=25), max_size=8),
           st.data(), st.sampled_from([np.float32, np.float64]),
           st.integers(0, 50))
    @settings(max_examples=300, deadline=None)
    def test_sorted_runs_match_spec(self, runs, data, dtype, k):
        """Per-term ascending runs with duplicate docs across runs — the
        shape every BM25/tf-idf mode feeds the kernel."""
        ids = np.array([d for run in runs for d in sorted(run)], np.int64)
        sc = data.draw(st.lists(st.one_of(_tie_scores, _wide_scores),
                                min_size=len(ids), max_size=len(ids)))
        _assert_topk_matches_spec(ids, np.array(sc, dtype), k)

    @given(st.lists(st.tuples(st.integers(-5, 30), st.one_of(_tie_scores, _wide_scores)),
                    max_size=60),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 70))
    @settings(max_examples=300, deadline=None)
    def test_unsorted_input_matches_spec(self, pairs, dtype, k):
        ids = np.array([d for d, _ in pairs], np.int64)
        _assert_topk_matches_spec(ids, np.array([s for _, s in pairs], dtype), k)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edges(self, dtype):
        ids = np.array([3, 1, 2, 1, 3], np.int64)
        sc = np.array([1.0, 0.5, 1.5, 1.0, 0.5], dtype)
        for k in (0, 1, 2, 3, 4, 100):  # k = 0 … k ≥ distinct docs
            _assert_topk_matches_spec(ids, sc, k)
        _assert_topk_matches_spec(ids[:0], sc[:0], 5)  # empty input

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ties_at_kth_score_break_by_doc_id(self, dtype):
        from search_engine_ray.query.scoring import topk_docs

        ids = np.array([9, 4, 7, 2, 5], np.int64)
        sc = np.array([2.0, 1.0, 1.0, 1.0, 0.5], dtype)
        got_ids, got_sc = topk_docs(ids, sc, 3)
        assert got_ids.tolist() == [9, 2, 4] and got_sc.tolist() == [2.0, 1.0, 1.0]
        _assert_topk_matches_spec(ids, sc, 3)

    def test_sum_is_in_input_order(self):
        """(1e16 + 1) - 1e16 = 0 in input order; a pairwise or reordered
        sum would give 1."""
        from search_engine_ray.query.scoring import topk_docs

        ids = np.array([5, 5, 5], np.int64)
        sc = np.array([1e16, 1.0, -1e16])
        got_ids, got_sc = topk_docs(ids, sc, 1)
        assert got_ids.tolist() == [5] and got_sc.tolist() == [0.0]
        _assert_topk_matches_spec(ids, sc, 1)
        # the same sum spread over three per-term runs with other docs
        ids = np.array([5, 8, 2, 5, 5, 9], np.int64)
        sc = np.array([1e16, 3.0, 0.5, 1.0, -1e16, 0.25])
        for k in range(5):
            _assert_topk_matches_spec(ids, sc, k)

    def test_nan_scores_rank_last(self):
        ids = np.array([1, 2, 3, 4], np.int64)
        sc = np.array([np.nan, 1.0, 2.0, np.nan])
        for k in range(6):
            _assert_topk_matches_spec(ids, sc, k)


def _dense_always():
    """topk_docs takes a scratch's dense path at any input size."""
    from unittest import mock

    from search_engine_ray.query import scoring

    return mock.patch.object(scoring, "_DENSE_MIN_PAIRS", 0)


def _touched_by(path):
    """Forces how TopkScratch.accumulate finds its touched docs: "mask" scans
    the whole ``seen`` mask, "runs" collects them per ascending run, None
    keeps the shipped density cut."""
    import contextlib
    from unittest import mock

    from search_engine_ray.query import scoring

    if path is None:
        return contextlib.nullcontext()
    return mock.patch.object(scoring, "_DENSE_MASK_RATIO", 1 << 62 if path == "mask" else 0)


def _assert_scratch_clean(scratch):
    assert not scratch.seen.any()
    for acc in scratch._acc.values():
        assert len(acc) == len(scratch.seen)
        assert acc.tobytes() == bytes(acc.nbytes)  # +0.0 everywhere


def _assert_scratch_matches_stateless(scratch, doc_ids, scores, k, path=None):
    """The scratch path of topk_docs equals the stateless one bit for bit,
    and leaves every buffer of the scratch clean."""
    from search_engine_ray.query.scoring import topk_docs

    with _dense_always(), _touched_by(path):
        got_ids, got_sc = topk_docs(doc_ids, scores, k, scratch=scratch)
    want_ids, want_sc = topk_docs(doc_ids, scores, k)
    assert got_ids.dtype == want_ids.dtype and got_sc.dtype == want_sc.dtype
    np.testing.assert_array_equal(got_ids, want_ids)
    assert got_sc.tobytes() == want_sc.tobytes(), (got_sc, want_sc)
    _assert_scratch_clean(scratch)


_any_scores = st.one_of(_tie_scores, _wide_scores, st.sampled_from([0.0, -0.0]),
                        st.just(float("nan")))
# one topk_docs call: per-term ascending runs (duplicates across runs) or
# unsorted pairs (many runs, adjacent repeats), ids from 0 up past the
# scratch's first size; a spread of 80 scales the ids up to 4,800, so the
# same few pairs make a sparse input
_runs_call = st.tuples(
    st.just("runs"),
    st.lists(st.lists(st.integers(0, 60), unique=True, max_size=25), max_size=8))
_pairs_call = st.tuples(st.just("pairs"), st.lists(st.integers(0, 60), max_size=60))


class TestTopkScratchProperty:
    """topk_docs with an engine-owned TopkScratch vs the stateless kernel
    (the spec, itself checked against the add.at spec above)."""

    @given(st.one_of(st.integers(0, 70), st.integers(500, 3000)),
           st.lists(st.tuples(st.one_of(_runs_call, _pairs_call),
                              st.sampled_from([1, 80]),
                              st.sampled_from([np.float32, np.float64]),
                              st.integers(0, 70),
                              st.sampled_from([None, "mask", "runs"])),
                    min_size=1, max_size=5),
           st.data())
    @settings(max_examples=600, deadline=None)
    def test_reused_scratch_matches_stateless(self, size, calls, data):
        """One scratch, sized ``size`` and grown on demand, across several
        calls of either dtype, on both sides of accumulate's density cut:
        at the shipped cut (a small scratch and small ids make dense
        inputs, a large one or spread ids sparse ones) or with a side
        forced."""
        from search_engine_ray.query.scoring import TopkScratch

        scratch = TopkScratch(size)
        for (kind, raw), spread, dtype, k, path in calls:
            if kind == "runs":
                ids = np.array([d for run in raw for d in sorted(run)], np.int64)
            else:
                ids = np.array(raw, np.int64)
            ids *= spread
            sc = data.draw(st.lists(_any_scores, min_size=len(ids), max_size=len(ids)))
            _assert_scratch_matches_stateless(scratch, ids, np.array(sc, dtype), k, path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edges(self, dtype):
        from search_engine_ray.query.scoring import TopkScratch

        scratch = TopkScratch(2)
        ids = np.array([3, 1, 2, 1, 3, 0], np.int64)
        sc = np.array([1.0, 0.5, 1.5, 1.0, 0.5, 2.5], dtype)
        for k in (0, 1, 2, 3, 4, 100):  # k = 0 … k ≥ distinct docs
            _assert_scratch_matches_stateless(scratch, ids, sc, k)
        _assert_scratch_matches_stateless(scratch, ids[:0], sc[:0], 5)  # empty
        _assert_scratch_matches_stateless(  # a tie at the k-th score
            scratch, np.array([9, 4, 7, 2, 5]), np.array([2, 1, 1, 1, 0.5], dtype), 3)
        _assert_scratch_matches_stateless(  # NaN sums rank last
            scratch, np.array([1, 2, 3, 4, 2]),
            np.array([np.nan, 1.0, 2.0, np.nan, np.nan], dtype), 3)

    def test_sum_is_in_input_order(self):
        from search_engine_ray.query.scoring import TopkScratch, topk_docs

        scratch = TopkScratch()
        with _dense_always():
            ids, sc = topk_docs(np.array([5, 5, 5]), np.array([1e16, 1.0, -1e16]), 1,
                                scratch=scratch)
        assert ids.tolist() == [5] and sc.tolist() == [0.0]
        ids = np.array([5, 8, 2, 5, 5, 9], np.int64)
        for big in (1e16, 1e8):  # 1e8 + 1 rounds back to 1e8 in float32
            for dtype in (np.float32, np.float64):
                sc = np.array([big, 3.0, 0.5, 1.0, -big, 0.25], dtype)
                for k in range(5):
                    _assert_scratch_matches_stateless(scratch, ids, sc, k)

    def test_grows_past_its_size_and_doc_id_zero(self):
        from search_engine_ray.query.scoring import TopkScratch

        scratch = TopkScratch(4)
        assert len(scratch.seen) == 0  # nothing allocated before first use
        _assert_scratch_matches_stateless(
            scratch, np.array([0, 3]), np.array([1.0, 2.0]), 5)
        assert len(scratch.seen) == 4
        _assert_scratch_matches_stateless(
            scratch, np.array([0, 2, 1000, 0, 7]), np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 5)
        assert len(scratch.seen) == 1001

    def test_accumulate_sums_each_doc_once(self):
        from search_engine_ray.query.scoring import TopkScratch

        ids = np.array([4, 9, 2, 4, 9, 9], np.int64)
        sc = np.array([1.0, 2.0, 3.0, 0.5, 0.25, 0.125])
        uniq, sums = TopkScratch(3).accumulate(ids, sc)
        assert uniq.tolist() == [2, 4, 9]  # dense input: ascending doc ids
        assert sums.tolist() == [3.0, 1.5, 2.375]
        # the same pairs on a large scratch are sparse: first-seen order
        scratch = TopkScratch(1000)
        uniq, sums = scratch.accumulate(ids, sc)
        assert uniq.tolist() == [4, 9, 2]
        assert sums.tolist() == [1.5, 2.375, 3.0]
        _assert_scratch_clean(scratch)

    def test_negative_doc_ids_are_refused(self):
        from search_engine_ray.query.scoring import TopkScratch, topk_docs

        for size in (0, 1000):  # dense input, sparse input
            scratch = TopkScratch(size)
            scratch.accumulate(np.array([1, 2]), np.array([1.0, 2.0]))  # allocate
            for ids in (np.array([3, -1]), np.array([-1, 0, 5])):
                with pytest.raises(ValueError):
                    scratch.accumulate(ids, np.ones(len(ids)))
                with _dense_always(), pytest.raises(ValueError):
                    topk_docs(ids, np.ones(len(ids)), 2, scratch=scratch)
            _assert_scratch_clean(scratch)  # nothing was added before the refusal

    def test_dense_path_from_its_input_size_on(self):
        """Small inputs take the one-sort kernel and leave the scratch
        unallocated; from ``_DENSE_MIN_PAIRS`` pairs on, the dense path
        runs. Both give the stateless result."""
        from search_engine_ray.query.scoring import _DENSE_MIN_PAIRS, TopkScratch, topk_docs

        rng = np.random.default_rng(7)
        scratch = TopkScratch(100)
        for n, allocated in ((_DENSE_MIN_PAIRS - 1, 0), (_DENSE_MIN_PAIRS, 100)):
            ids = np.concatenate([np.sort(rng.choice(100, 50, replace=False))
                                  for _ in range(n // 50)] + [np.arange(n % 50)])
            sc = rng.random(n)
            got = topk_docs(ids, sc, 10, scratch=scratch)
            want = topk_docs(ids, sc, 10)
            assert len(scratch.seen) == allocated
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tobytes() == want[1].tobytes()


# a small alphabet makes near and equal strings common; NUL and non-BMP
# characters check the 0-padded utf-32 code matrices
_lev_texts = st.text(
    alphabet=st.one_of(st.sampled_from(["a", "b", "\x00", "é", "\U0001d11e"]),
                       st.characters(blacklist_categories=("Cs",))),
    max_size=64)
_lev_pairs = st.lists(st.tuples(_lev_texts, _lev_texts), max_size=40)


def _assert_batch_matches_scalar(pairs):
    """The chunked driver every BK-tree level runs through."""
    from search_engine_ray.query.bktree import _distances, _encode, levenshtein

    rows = np.arange(len(pairs))
    got = _distances(_encode([a for a, _ in pairs]), rows,
                     _encode([b for _, b in pairs]), rows)
    assert got.dtype == np.int64
    assert got.tolist() == [levenshtein(a, b) for a, b in pairs]


class TestLevenshteinBatchProperty:
    @given(_lev_pairs)
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_spec(self, pairs):
        _assert_batch_matches_scalar(pairs)

    @given(_lev_pairs, st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_kernel_ignores_extra_padding(self, pairs, extra_a, extra_b):
        """The raw kernel over matrices padded wider than any row."""
        from search_engine_ray.query.bktree import _encode, _pad, levenshtein, levenshtein_rows

        sa, sb = _encode([a for a, _ in pairs]), _encode([b for _, b in pairs])
        rows = np.arange(len(pairs))
        wa = int(sa[2].max(initial=0)) + extra_a
        wb = int(sb[2].max(initial=0)) + extra_b
        got = levenshtein_rows(_pad(sa, rows, wa), sa[2], _pad(sb, rows, wb), sb[2])
        assert got.tolist() == [levenshtein(a, b) for a, b in pairs]

    @given(_lev_pairs, st.data(), st.sampled_from([1, 8, 64, 4096]))
    @settings(max_examples=25, deadline=None)
    def test_long_outlier_and_small_cell_budgets(self, pairs, data, budget):
        """One 2,000-char term in the batch, on either side, under cell
        budgets small enough to cut the rows into many width groups."""
        from unittest import mock

        from search_engine_ray.query import bktree

        at = data.draw(st.integers(0, len(pairs)))
        long = "ab\x00" * 666 + data.draw(_lev_texts)[:2]
        short = data.draw(_lev_texts)
        pairs = pairs[:at] + [data.draw(st.sampled_from([(long, short), (short, long)]))] + pairs[at:]
        with mock.patch.object(bktree, "_CELL_BUDGET", budget):
            _assert_batch_matches_scalar(pairs)

    def test_edges(self):
        _assert_batch_matches_scalar([])
        _assert_batch_matches_scalar([
            ("", ""), ("", "abc"), ("abc", ""), ("\x00", ""), ("", "\x00"),
            ("\x00a", "a\x00"), ("abcdef", "ab"), ("ab", "abcdef"),
            ("kitten", "sitting"), ("\U0001f600", "\U0001f601"),
            ("a" * 64, "b" * 63), ("x" * 2000, "x")])
