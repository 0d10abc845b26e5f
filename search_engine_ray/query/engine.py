"""Query engine over a built index (pipelines/build.py layout).

The per-process equivalent of the reference's query stack — in-memory
dictionary + open index handle + tokenizer
(/root/reference/src/search_engine/mod.rs:24-70,
query_processor.rs:5-84, index_metadata.rs:3-48) — designed to run inside a
Ray actor pool for batch/offline retrieval (see ``batch.py``) or standalone
for interactive queries. All loading happens once in ``__init__`` (the
actor-pool contract).

Scale note: on a real cluster each serving actor would load only a term-hash
shard of the dictionary/postings and queries would fan out by term; here one
process holds the whole (small) index and we document the sharding seam.
"""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq

from search_engine_ray.config import EngineConfig
from search_engine_ray.functions.tokenizer import Tokenizer
from search_engine_ray.pipelines.build import IndexPaths, load_stats
from search_engine_ray.query.bktree import BKTree
from search_engine_ray.query.locator import PostingsLocator
from search_engine_ray.query.postings_codec import (
    LEAN_COLUMNS,
    TermPostings,
    decode_term_chunks,
)
from search_engine_ray.query.scoring import (
    TopkScratch,
    bm25_weights,
    tfidf_weights,
    topk_docs,
)


def _min_cover_window(pos_lists: list[np.ndarray]) -> tuple[int, int, int]:
    """Smallest position window covering the most distinct term position
    lists: → (start, end, n_covered); ties → smaller width, then smaller
    start. Classic two-pointer sweep over the merged (position, term_id)
    stream — O(total positions) per doc."""
    if not pos_lists:
        return (0, 0, 0)
    pos = np.concatenate(pos_lists)
    tid = np.repeat(np.arange(len(pos_lists)), [len(p) for p in pos_lists])
    order = np.argsort(pos, kind="stable")
    pos, tid = pos[order], tid[order]
    n_terms = len(pos_lists)
    counts = np.zeros(n_terms, np.int64)
    covered = 0
    best = (-1, np.iinfo(np.int64).max, np.iinfo(np.int64).max)  # (-cover, width, start) minimized
    lo = 0
    for hi in range(len(pos)):
        if counts[tid[hi]] == 0:
            covered += 1
        counts[tid[hi]] += 1
        # shrink while the left item is redundant
        while counts[tid[lo]] > 1:
            counts[tid[lo]] -= 1
            lo += 1
        cand = (-covered, int(pos[hi] - pos[lo]), int(pos[lo]))
        if cand < best:
            best = cand
    cover = -best[0]
    return (best[2], best[2] + best[1], cover) if cover else (0, 0, 0)


def _ordered_window_docs(tps, candidates, slop: int) -> np.ndarray:
    """Shared kernel: docs in ``candidates`` with an in-order chain across
    ``tps`` whose span has ≤ ``slop`` extra tokens (greedy minimal chains —
    the one positional kernel local (and so segmented) and distributed
    serving both call, so parity is by construction)."""
    _FAR = np.int64(1) << 62
    out = []
    for doc in candidates:
        doc = int(doc)
        starts = np.asarray(tps[0].positions_for_doc(doc), np.int64)
        cur = starts
        for i in range(1, len(tps)):
            pos = np.asarray(tps[i].positions_for_doc(doc), np.int64)
            idx = np.searchsorted(pos, cur, side="right")
            valid = idx < len(pos)
            cur = np.where(valid, pos[np.minimum(idx, len(pos) - 1)], _FAR)
            if not valid.any():
                break
        if np.any(cur - starts - (len(tps) - 1) <= slop):
            out.append(doc)
    return np.asarray(out, np.int64)


def _within_window_docs(words, tps, candidates, window: int) -> np.ndarray:
    """Shared kernel: docs in ``candidates`` whose minimal cover window over
    the DISTINCT query terms is ≤ ``window`` positions wide."""
    n = len(set(words))
    out = []
    for doc in candidates:
        doc = int(doc)
        pos_lists = [np.asarray(tps[i].positions_for_doc(doc), np.int64)
                     for i, w in enumerate(words) if w not in words[:i]]
        s, e, cover = _min_cover_window(pos_lists)
        if cover == n and e - s + 1 <= window:
            out.append(doc)
    return np.asarray(out, np.int64)


def read_postings(locator: PostingsLocator, term: str,
                  positions: bool) -> TermPostings:
    """One term's postings from one index: a single ``locator.read``, with
    every column when ``positions`` is asked for, else with
    ``LEAN_COLUMNS`` only (lean postings). ``decode_term_chunks`` and
    ``locator.read`` are looked up at call time, so a wrapper installed on
    either from outside (a tracer, a read counter) sees every read."""
    return decode_term_chunks(locator.read(
        term, columns=None if positions else LEAN_COLUMNS))


def postings_entry(cache: dict, cap: int, read, term: str,
                   positions: bool) -> list:
    """The ``[postings, derived or None]`` entry of ``term`` in a
    decoded-postings ``cache`` (FIFO-evicted at ``cap``), read on a miss
    through ``read(term, positions) -> TermPostings`` — the one cache rule
    every serving engine shares.

    A miss makes one ``read``, lean unless ``positions`` is asked for.
    When ``positions`` is asked for and the cached postings are lean, the
    term is re-read with positions and its postings are replaced IN
    PLACE: the entry keeps its FIFO slot and whatever is derived from its
    doc ids and tfs (identical in both reads)."""
    ent = cache.get(term)
    if ent is None:
        ent = [read(term, positions), None]
        if len(cache) >= cap:
            cache.pop(next(iter(cache)))
        cache[term] = ent
    elif positions and ent[0].pos_offsets is None:
        ent[0] = read(term, True)
    return ent


class SearchEngine:
    def __init__(
        self,
        index_dir: str,
        config: EngineConfig | None = None,
        build_bktree: bool = True,
    ):
        self.config = config or EngineConfig()
        self.paths = IndexPaths(index_dir)
        self.stats = load_stats(index_dir)
        self.tokenizer = Tokenizer(lemma_path=self.config.lemma_path)
        # term-addressed postings access (the reference's term → block_ids
        # map, index_metadata.rs:3-48, as shard hash + footer ranges)
        n_shards = (self.stats.get("config") or {}).get("index_shards")
        self.locator = PostingsLocator(self.paths.postings, n_shards)
        dic = pq.read_table(
            self.paths.dictionary, columns=["term", "term_id", "df"]
        ).combine_chunks().sort_by("term")
        # doc lengths + urls indexed by doc_id (sorted arrays + searchsorted;
        # doc_ids are dense 1..N from zip_with_index but we stay robust)
        dl = pq.read_table(
            self.paths.doc_lengths, columns=["doc_id", "doc_length"]
        ).combine_chunks().sort_by("doc_id")
        self._init_state(dic, dl["doc_id"].to_numpy(), dl["doc_length"].to_numpy(),
                         self.stats["num_docs"], self.stats["avgdl"], build_bktree)

    def _init_state(self, dic, dl_ids: np.ndarray, dl: np.ndarray,
                    num_docs: int, avgdl: float, build_bktree: bool) -> None:
        """The in-memory serving state over a term-sorted (term, term_id,
        df) table and doc-id-sorted doc lengths, wherever they were loaded
        from (one index dir here, a segment set in query/segmented.py)."""
        self.num_docs: int = num_docs
        self.avgdl: float = avgdl
        # dictionary: term → (term_id, df). Representation per
        # config.dict_repr: "front_coded" = the reference's blocked
        # string-dict (string_in_memory_dict.rs, J2 — several times smaller
        # per serving actor, the at-scale default); "hash" = MapInMemoryDict
        # equivalent (map_in_memory_dict.rs:4-22)
        terms = dic["term"].to_pylist()
        tids = dic["term_id"].to_pylist()
        dfs = dic["df"].to_pylist()
        if self.config.dict_repr == "front_coded":
            from search_engine_ray.query.string_dict import BlockedStringDict

            self._sdict = BlockedStringDict(terms, tids, dfs)
            self._dict = None
        else:
            self._sdict = None
            self._dict = {t: (tid, df) for t, tid, df in zip(terms, tids, dfs)}
            # sorted view for range scans (prefix_search); the hash repr
            # already holds every string, so this adds only the list spine
            self._sorted_terms = terms
            self._sorted_dfs = dfs
        # bounded memo over front-coded lookups: the blocked dict is ~8x
        # smaller but each probe pays a block binary-search + decode
        # (measured 12x slower on the cache-hot query path); Zipfian query
        # terms make a small plain-dict cache recover hash-dict speed
        self._lookup_memo: dict[str, tuple | None] = {}
        self._lookup_memo_cap = 65536
        self._n_terms = len(terms)

        self._dl_ids = np.asarray(dl_ids).astype(np.int64)
        self._dl = np.asarray(dl).astype(np.int64)
        # per-doc top-k buffers, allocated on the first ranked query
        self._scratch = TopkScratch(int(self._dl_ids[-1]) + 1 if len(self._dl_ids) else 0)

        # fuzzy lookup (my_bk_tree/mod.rs:3-26; built from all dictionary
        # terms like index_metadata.rs:33-35, one tree level per batched
        # Levenshtein call)
        self.bktree = BKTree(terms) if build_bktree else None

        # small decoded-postings cache: term → [postings, BM25 weights or
        # None], FIFO-evicted at _cache_cap (see postings_entry); postings
        # hold positions only once a positional mode has asked for them
        self._cache: dict[str, list] = {}
        self._cache_cap = 1024

    # ------------------------------------------------------------------ lookups
    @property
    def num_terms(self) -> int:
        return self._n_terms

    def lookup(self, term: str):
        """term → (term_id, df) or None (no unwrap-panic — the reference's
        get_term_metadata panics on missing terms, SURVEY.md J1; we return
        None)."""
        if self._dict is not None:
            return self._dict.get(term)
        try:
            return self._lookup_memo[term]
        except KeyError:
            pass
        i = self._sdict.lookup(term)
        out = None if i < 0 else (int(self._sdict.term_ids[i]), int(self._sdict.dfs[i]))
        if len(self._lookup_memo) < self._lookup_memo_cap:
            self._lookup_memo[term] = out
        return out

    def vocabulary(self) -> tuple[list[str], np.ndarray]:
        """(every dictionary term ascending, its df) — the vocabulary the
        engine already holds, whatever its representation."""
        if self._sdict is not None:
            return list(self._sdict), self._sdict.dfs
        return self._sorted_terms, np.asarray(self._sorted_dfs, np.int64)

    def doc_length(self, doc_ids: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._dl_ids, doc_ids)
        return self._dl[np.clip(idx, 0, len(self._dl) - 1)]

    def doc_urls(self, doc_ids) -> list[str]:
        """doc_id → url (the reference's DocumentMetadata.doc_url,
        indexer.rs:46-50). The url column loads lazily on first use —
        ranked retrieval never needs it, so the serving hot path stays
        url-free."""
        if not hasattr(self, "_url_ids"):
            t = self._url_table().combine_chunks().sort_by("doc_id")
            self._url_ids = t["doc_id"].to_numpy().astype(np.int64)
            self._urls = t["url"].to_pylist()
        ids = np.asarray(doc_ids, np.int64)
        idx = np.searchsorted(self._url_ids, ids)
        out = []
        for i, want in zip(idx, ids):
            i = int(min(i, len(self._urls) - 1))
            out.append(self._urls[i] if self._url_ids[i] == want else None)
        return out

    def _url_table(self):
        """(doc_id, url) rows of every doc, in any order."""
        return pq.read_table(self.paths.docs, columns=["doc_id", "url"])

    #: a term's chunk metadata and doc/tf columns; pos_gaps/pos_lens are
    #: often the majority of index bytes, so they are pruned at the read
    CHUNK_COLUMNS = ["term", "salt", "chunk_seq", "n_postings", "max_tf",
                     "first_doc_id", "max_doc_id", "doc_gaps", "tfs"]

    def get_chunks(self, term: str):
        """Raw chunk rows of a term (no posting decode, no position
        columns), or None when the term is not in the dictionary."""
        if self.lookup(term) is None:
            return None
        return self.locator.read(term, columns=self.CHUNK_COLUMNS)

    def get_postings(self, term: str, positions: bool = True
                     ) -> TermPostings | None:
        """Postings of an indexed term (None when the term is not in the
        dictionary): positional by default, lean cached postings upgraded
        in place; with ``positions=False`` whatever is cached, a miss
        reading lean postings (see :func:`postings_entry`)."""
        if self.lookup(term) is None:
            return None
        return postings_entry(self._cache, self._cache_cap, self._read_postings,
                              term, positions)[0]

    def _read_postings(self, term: str, positions: bool) -> TermPostings:
        """A cache miss's read: the postings of ``term`` in this index."""
        return read_postings(self.locator, term, positions)

    def bm25_postings(self, term: str) -> tuple[TermPostings, np.ndarray] | None:
        """(postings, BM25 weight per posting) of an indexed term with
        df > 0, else None. The weights are computed on the term's first
        BM25 use and cached read-only on its postings entry, so a cache hit
        skips the doc-length lookup and the weight arithmetic; they are
        elementwise, so a masked slice equals the weights of the masked
        postings bit for bit. A miss reads and caches lean postings (no
        positions); positional modes take theirs from :meth:`get_postings`.
        df is the dictionary's (see :meth:`lookup`), which on a segment set
        still counts deleted docs."""
        meta = self.lookup(term)
        if meta is None:
            return None
        ent = postings_entry(self._cache, self._cache_cap, self._read_postings,
                             term, positions=False)
        if ent[0].df == 0:
            return None
        tp, w = ent
        if w is None:
            w = bm25_weights(
                tp.tfs, self.doc_length(tp.doc_ids), meta[1], self.num_docs,
                self.avgdl, self.config.bm25_k1, self.config.bm25_b,
            )
            w.flags.writeable = False
            ent[1] = w
        return tp, w

    def prefix_search(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Autocomplete: dictionary terms starting with ``prefix``
        (lowercased — index terms are post-normalization lowercase),
        ranked (df desc, term asc), top ``k``. A RANGE SCAN on the sorted
        dictionary — O(log V) seek + O(matches) walk, no full-vocabulary
        pass (the reference's sorted on-disk dictionary supports the same
        access; its engine never exposed it)."""
        import bisect

        p = prefix.lower()
        if not p:
            return []
        out: list[tuple[str, int]] = []
        if self._sdict is not None:
            i = self._sdict.lower_bound(p)
            while i < self._sdict.n:
                t = self._sdict.term_at(i)
                if not t.startswith(p):
                    break
                out.append((t, int(self._sdict.dfs[i])))
                i += 1
        else:
            i = bisect.bisect_left(self._sorted_terms, p)
            while i < len(self._sorted_terms):
                t = self._sorted_terms[i]
                if not t.startswith(p):
                    break
                out.append((t, int(self._sorted_dfs[i])))
                i += 1
        out.sort(key=lambda e: (-e[1], e[0]))
        return out[:k]

    def query_terms(self, query: str) -> list[str]:
        """Distinct query terms in first-occurrence order."""
        seen: dict[str, None] = {}
        for tok in self.tokenizer.tokenize(query):
            seen.setdefault(tok.word, None)
        return list(seen)

    # ------------------------------------------------------------------ boolean
    def boolean_and(self, query: str) -> np.ndarray:
        """AND retrieval, min-df term first (query_processor.rs:57-84);
        any term missing from the dictionary → empty result."""
        terms = self.query_terms(query)
        if not terms:
            return np.zeros(0, np.int64)
        metas = [self.lookup(t) for t in terms]
        if any(m is None for m in metas):
            return np.zeros(0, np.int64)
        order = sorted(range(len(terms)), key=lambda i: metas[i][1])
        docs = self.get_postings(terms[order[0]], positions=False).doc_ids
        for i in order[1:]:
            if len(docs) == 0:
                break
            docs = np.intersect1d(docs, self.get_postings(terms[i], positions=False).doc_ids,
                                  assume_unique=True)
        return docs

    def boolean_or(self, query: str) -> np.ndarray:
        """OR retrieval: docs containing ANY query term, ascending doc_id.
        The reference only implements AND (process_query intersects,
        query_processor.rs:57-84); OR is the natural complement over the
        same postings machinery (and what fuzzy_boolean already does for
        edit-distance term sets)."""
        docs = []
        for t in self.query_terms(query):
            tp = self.get_postings(t, positions=False)
            if tp is not None:
                docs.append(tp.doc_ids)
        if not docs:
            return np.zeros(0, np.int64)
        return np.unique(np.concatenate(docs))

    # ------------------------------------------------------------------ ranked
    def tfidf_topk(self, query: str, k: int = 10, dtype=np.float32) -> list[tuple[int, float]]:
        """Union-accumulated tf·idf top-k, reference formulas
        (scoring/mod.rs:34-48); ties → ascending doc_id. dtype=float32 is
        the reference-parity default (its scoring is f32); float64 is the
        oracle-SQL parity mode (DuckDB computes in doubles)."""
        doc_parts, score_parts = [], []
        for t in self.query_terms(query):
            tp = self.get_postings(t, positions=False)
            if tp is None:
                continue
            df = self.lookup(t)[1]
            doc_parts.append(tp.doc_ids)
            if dtype == np.float32:
                w = tfidf_weights(tp.tfs, df, self.num_docs)
            else:
                w = tp.tfs.astype(np.float64) * np.log10(float(self.num_docs) / float(df))
            score_parts.append(w)
        if not doc_parts:
            return []
        ids, scores = topk_docs(
            np.concatenate(doc_parts), np.concatenate(score_parts).astype(dtype), k,
            scratch=self._scratch,
        )
        return [(int(d), float(s)) for d, s in zip(ids, scores)]

    def bm25_topk(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        return self.bm25_topk_terms(self.query_terms(query), k)

    def bm25_topk_terms(self, terms: list[str], k: int = 10) -> list[tuple[int, float]]:
        """BM25 top-k over ALREADY-NORMALIZED distinct terms (bm25_topk's
        body; callers holding index terms — e.g. more_like_this — use this
        to avoid re-lemmatizing lemmas)."""
        doc_parts, score_parts = self._bm25_parts(terms)
        if not doc_parts:
            return []
        ids, scores = topk_docs(np.concatenate(doc_parts), np.concatenate(score_parts), k,
                                scratch=self._scratch)
        return [(int(d), float(s)) for d, s in zip(ids, scores)]

    def _bm25_parts(self, terms) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-term (doc_ids, BM25 weights) lists over the indexed terms
        with df > 0, in term order — the input the BM25 modes feed
        topk_docs."""
        doc_parts, score_parts = [], []
        for t in terms:
            got = self.bm25_postings(t)
            if got is not None:
                doc_parts.append(got[0].doc_ids)
                score_parts.append(got[1])
        return doc_parts, score_parts

    def bm25_topk_msm(self, query: str, k: int = 10,
                      min_match: int = 2) -> list[tuple[int, float]]:
        """Minimum-should-match BM25 (Lucene ``minimum_should_match``
        semantics): only docs containing ≥ ``min_match`` DISTINCT query
        terms are candidates, scored by the usual BM25 sum over their
        matched terms. ``min_match=1`` ≡ :meth:`bm25_topk`;
        ``min_match=len(terms)`` scores exactly the AND set. Per-query work
        is the same postings union as bm25_topk plus one np.unique — no
        extra index reads."""
        doc_parts, score_parts = self._bm25_parts(self.query_terms(query))
        if not doc_parts:
            return []
        docs = np.concatenate(doc_parts)
        sc = np.concatenate(score_parts)
        # each term's doc_ids are distinct, so multiplicity in the concat
        # IS the distinct-matched-term count
        uniq, cnt = np.unique(docs, return_counts=True)
        keep = uniq[cnt >= int(min_match)]
        if len(keep) == 0:
            return []
        pos = np.searchsorted(keep, docs)
        pos[pos >= len(keep)] = 0
        mask = keep[pos] == docs
        ids, scores = topk_docs(docs[mask], sc[mask], k, scratch=self._scratch)
        return [(int(d), float(s)) for d, s in zip(ids, scores)]

    # ---------------------------------------------------------------- filtered
    def set_doc_attr(self, name: str, doc_ids, values) -> None:
        """Register a per-doc attribute column (e.g. lang, host, split) for
        filtered retrieval. Stored once per engine as (sorted ids, dense
        value codes) — the same O(num_docs) footprint discipline as the
        doc_length array, loaded at init, never per query. Values
        dictionary-encode to int codes so the per-query mask is a pure
        integer ``np.isin``."""
        from search_engine_ray.query.docattrs import build_doc_attr

        if not hasattr(self, "_doc_attrs"):
            self._doc_attrs: dict[str, tuple] = {}
        self._doc_attrs[name] = build_doc_attr(doc_ids, values)

    def set_doc_sort_attr(self, name: str, doc_ids, values) -> None:
        """Register a NUMERIC per-doc attribute for sort-by-field
        retrieval (:meth:`bm25_topk_sorted`) — timestamps, sizes, quality
        scores. Stored as (sorted ids, float64 values), O(num_docs)."""
        from search_engine_ray.query.docattrs import build_numeric_attr

        if not hasattr(self, "_doc_sort_attrs"):
            self._doc_sort_attrs: dict[str, tuple] = {}
        self._doc_sort_attrs[name] = build_numeric_attr(doc_ids, values)

    def bm25_topk_range(self, query: str, k: int = 10, *, attr: str,
                        lo: float = -np.inf, hi: float = np.inf
                        ) -> list[tuple[int, float]]:
        """BM25 top-k restricted to docs whose registered NUMERIC
        attribute (:meth:`set_doc_sort_attr`) lies in [lo, hi] — the
        range-filter companion of the categorical
        :meth:`bm25_topk_filtered` (timestamp windows, size bounds,
        quality thresholds). The filter applies per posting list BEFORE
        top-k, so the result is the true top-k of the filtered corpus;
        docs absent from the attribute registry never match."""
        from search_engine_ray.query.docattrs import numeric_attr_probe

        entry = self._doc_sort_attrs[attr]
        doc_parts, score_parts = [], []
        for t in self.query_terms(query):
            got = self.bm25_postings(t)
            if got is None:
                continue
            tp, w = got
            present, vals = numeric_attr_probe(entry, tp.doc_ids)
            keep = present & (vals >= lo) & (vals <= hi)
            if not keep.any():
                continue
            doc_parts.append(tp.doc_ids[keep])
            score_parts.append(w[keep])
        if not doc_parts:
            return []
        ids, scores = topk_docs(np.concatenate(doc_parts),
                                np.concatenate(score_parts), k, scratch=self._scratch)
        return [(int(d), float(s)) for d, s in zip(ids, scores)]

    def bm25_topk_sorted(self, query: str, k: int = 10, *, attr: str,
                         descending: bool = True
                         ) -> list[tuple[int, float, float]]:
        """Sort-by-field retrieval (Lucene ``Sort``): docs matching ≥1
        query term, top-k by the registered numeric attribute
        (:meth:`set_doc_sort_attr`) instead of relevance — newest-first /
        largest-first listings with the BM25 score still attached.
        Order: (attr desc|asc, doc_id asc); docs missing from the sort
        registry rank after all present ones (Lucene's missing-last).
        Returns [(doc_id, attr_value, bm25_score)] (missing attr →
        nan)."""
        doc_parts, score_parts = self._bm25_parts(self.query_terms(query))
        if not doc_parts:
            return []
        uniq, bm25 = self._scratch.accumulate(np.concatenate(doc_parts),
                                              np.concatenate(score_parts))
        from search_engine_ray.query.docattrs import numeric_attr_probe

        present, vals = numeric_attr_probe(self._doc_sort_attrs[attr], uniq)
        key = np.where(present, vals if not descending else -vals, np.inf)
        order = np.lexsort((uniq, key))[:k]
        return [(int(uniq[j]), float(vals[j]), float(bm25[j])) for j in order]

    def _attr_mask(self, attr: str, allowed, doc_ids: np.ndarray) -> np.ndarray:
        """Boolean keep-mask over candidate doc_ids: attr(doc) ∈ allowed.
        Docs absent from the attribute table never match (no unwrap-panic,
        same contract as :meth:`lookup`)."""
        from search_engine_ray.query.docattrs import allowed_codes, doc_attr_mask

        ent = self._doc_attrs[attr]
        return doc_attr_mask(ent, allowed_codes(ent, allowed), doc_ids)

    def bm25_topk_filtered(self, query: str, k: int = 10, *, attr: str,
                           allowed) -> list[tuple[int, float]]:
        """BM25 top-k restricted to docs whose registered attribute
        (:meth:`set_doc_attr`) is in ``allowed`` — filtered search (lang /
        host / split predicates), with the filter applied BEFORE top-k so
        the result is the true top-k of the filtered corpus, not a
        post-filtered unfiltered top-k. Per-query cost is the bm25_topk
        postings union plus one O(candidates) integer mask — the allowed
        SET never materializes (no keep-list; the attribute array is
        engine-resident like doc lengths)."""
        doc_parts, score_parts = [], []
        for t in self.query_terms(query):
            got = self.bm25_postings(t)
            if got is None:
                continue
            tp, w = got
            keep = self._attr_mask(attr, allowed, tp.doc_ids)
            if not keep.any():
                continue
            doc_parts.append(tp.doc_ids[keep])
            score_parts.append(w[keep])
        if not doc_parts:
            return []
        ids, scores = topk_docs(np.concatenate(doc_parts), np.concatenate(score_parts), k,
                                scratch=self._scratch)
        return [(int(d), float(s)) for d, s in zip(ids, scores)]

    def bm25_topk_capped(self, query: str, k: int = 10, *, attr: str,
                         cap: int, digits: int | None = None
                         ) -> list[tuple[int, float]]:
        """Diversified BM25 top-k: at most ``cap`` results per value of the
        registered attribute (host-capped / per-source-capped serving —
        the result-side twin of host_cap_filter's corpus-side dominance
        cap). Greedy down the ranked list — the standard diversification
        contract: a doc is kept iff fewer than ``cap`` better-ranked docs
        share its value. Docs absent from the registry form one shared
        'unknown' group. ``digits`` rounds scores before ranking (ties →
        doc_id asc) so an external contract (e.g. the SQL oracle's
        round-4 window) can be matched exactly; None keeps raw f64 order.

        The greedy is vectorized (docattrs.capped_prefix, shared with the
        distributed twin): one lexsort for the order, one
        stable group-split for within-group occurrence indexes — no
        Python loop over candidates."""
        from search_engine_ray.query.docattrs import capped_prefix, codes_for

        full = self.bm25_topk(query, 1 << 62)
        if not full:
            return []
        d = np.fromiter((x for x, _ in full), np.int64, len(full))
        s = np.fromiter((y for _, y in full), np.float64, len(full))
        kept = capped_prefix(d, s, codes_for(self._doc_attrs[attr], d),
                             cap, k, digits)
        return [(int(d[i]), float(s[i])) for i in kept]

    def bm25_topk_grouped(self, query: str, k_per_group: int = 3, *,
                          attr: str, digits: int | None = None
                          ) -> list[tuple[object, int, int, float]]:
        """Field-collapsed BM25 (Lucene grouping): the top ``k_per_group``
        docs per value of the registered attribute → (value, rank, doc_id,
        score) rows, rank 1-based within the group, groups ordered by
        value. The per-group cut reuses the capped greedy
        (docattrs.capped_prefix with k=∞ keeps exactly the first
        ``k_per_group`` of each group in rank order); docs without a
        registered value collapse under ``None``."""
        from search_engine_ray.query.docattrs import capped_prefix, codes_for

        full = self.bm25_topk(query, 1 << 62)
        if not full:
            return []
        d = np.fromiter((x for x, _ in full), np.int64, len(full))
        s = np.fromiter((y for _, y in full), np.float64, len(full))
        ent = self._doc_attrs[attr]
        codes = codes_for(ent, d)
        kept = capped_prefix(d, s, codes, k_per_group, 1 << 62, digits)
        rev = {i: v for v, i in ent[2].items()}
        out: list[tuple[object, int, int, float]] = []
        ranks: dict[int, int] = {}
        for i in kept:
            c = int(codes[i])
            ranks[c] = ranks.get(c, 0) + 1
            out.append((rev.get(c), ranks[c], int(d[i]), float(s[i])))
        out.sort(key=lambda r: (str(r[0]), r[1]))
        return out

    def more_like_this(self, text: str, k: int = 10, n_terms: int = 3,
                       exclude: int | None = None) -> list[tuple[int, float]]:
        """Similar-document retrieval: extract the text's top ``n_terms``
        TF-IDF keywords (tf from the text, df/N from the index; float64,
        rounded to 6 before ranking, tie → term asc — the same contract as
        the doc_keywords pipeline) and run BM25 over them, optionally
        excluding the source doc. Per-query work is O(|text| + postings of
        n_terms terms) — nothing corpus-wide."""
        tf: dict[str, int] = {}
        for tok in self.tokenizer.tokenize(text):
            if tok.word:
                tf[tok.word] = tf.get(tok.word, 0) + 1
        scored = []
        for term, f in tf.items():
            m = self.lookup(term)
            if m is None or m[1] == 0:
                continue
            s = round(float(f) * float(np.log10(float(self.num_docs) / float(m[1]))), 6)
            scored.append((-s, term))
        scored.sort()
        terms = [t for _s, t in scored[:n_terms]]
        hits = self.bm25_topk_terms(terms, k + (1 if exclude is not None else 0))
        if exclude is not None:
            hits = [h for h in hits if h[0] != exclude]
        return hits[:k]

    def bm25_prf(self, query: str, fetch_texts, k: int = 10,
                 fb_docs: int = 3, fb_terms: int = 2,
                 select_digits: int = 4) -> list[tuple[int, float]]:
        """Pseudo-relevance-feedback BM25 (Rocchio'71 / RM-style expansion):
        run the query, pool the term frequencies of the top ``fb_docs``
        hits, add the ``fb_terms`` highest-TF·IDF pooled terms not already
        in the query, and re-score. ``fetch_texts(doc_ids) -> list[str]``
        supplies the feedback docs' raw text (the index is posting-
        addressed; it has no forward index, and PRF only ever needs
        ``fb_docs`` texts — an O(1) point lookup, not a corpus pass).

        Determinism contract (shared with the SQL oracle): feedback docs
        are the top ``fb_docs`` by (score rounded to ``select_digits``
        desc, doc_id asc); expansion terms rank by (pooled tf·idf rounded
        to 6 desc, term asc)."""
        first = self.bm25_topk(query, 10_000_000)
        first.sort(key=lambda t: (-round(t[1], select_digits), t[0]))
        fb_ids = [d for d, _ in first[:fb_docs]]
        if not fb_ids:
            return []
        tf: dict[str, int] = {}
        for text in fetch_texts(fb_ids):
            for tok in self.tokenizer.tokenize(text):
                if tok.word:
                    tf[tok.word] = tf.get(tok.word, 0) + 1
        orig = self.query_terms(query)
        orig_set = set(orig)
        scored = []
        for term, f in tf.items():
            if term in orig_set:
                continue
            m = self.lookup(term)
            if m is None or m[1] == 0:
                continue
            s = round(float(f) * float(np.log10(float(self.num_docs) / float(m[1]))), 6)
            scored.append((-s, term))
        scored.sort()
        expansion = [t for _s, t in scored[:fb_terms]]
        return self.bm25_topk_terms(orig + expansion, k)

    def bm25_prox_topk(self, query: str, k: int = 10, w: float = 1.0
                       ) -> list[tuple[int, float]]:
        """Proximity-boosted BM25 (the term-proximity scoring family of
        Rasolofo & Savoy ECIR'03 / Büttcher et al. SIGIR'06, on the min
        pair distance): docs where query terms appear CLOSE TOGETHER
        outrank bags of the same terms scattered apart —

            score(d) = bm25(d) + w · Σ_{pairs i<j present in d}
                                       (idf_i + idf_j) / md_{ij}(d)²

        with md the minimum |p_i − p_j| over the doc's positions of the
        two terms (≥ 1). Pairs run over distinct normalized query terms;
        per pair the common docs intersect via searchsorted and every
        min-distance computes in ONE vectorized fused-key pass
        (postings_codec.segmented_min_distance) — no per-doc Python.
        Top-k by (score desc, doc_id asc)."""
        from search_engine_ray.query.postings_codec import segmented_min_distance
        from search_engine_ray.query.scoring import bm25_idf

        got = []
        for t in self.query_terms(query):
            tp = self.get_postings(t)  # positional: the pairs need positions
            if tp is not None and tp.df:
                got.append((tp, self.bm25_postings(t)[1],
                            bm25_idf(self.lookup(t)[1], self.num_docs)))
        if not got:
            return []
        doc_parts = [tp.doc_ids for tp, _w, _idf in got]
        score_parts = [w for _tp, w, _idf in got]
        tps = [(tp, idf) for tp, _w, idf in got]

        from search_engine_ray.query.postings_codec import ragged_slices

        def ragged_take(tp, idx):
            """(flat positions, offsets) for the postings rows ``idx``."""
            return ragged_slices(tp.pos_offsets, tp.pos_values, idx)

        for a in range(len(tps)):
            for b in range(a + 1, len(tps)):
                tpa, idf_a = tps[a]
                tpb, idf_b = tps[b]
                ia = np.searchsorted(tpa.doc_ids, tpb.doc_ids)
                ia = np.minimum(ia, len(tpa.doc_ids) - 1)
                common = tpa.doc_ids[ia] == tpb.doc_ids
                if not common.any():
                    continue
                ib = np.flatnonzero(common)
                ia = ia[ib]
                p1, o1 = ragged_take(tpa, ia)
                p2, o2 = ragged_take(tpb, ib)
                md = segmented_min_distance(p1, o1, p2, o2)
                md = np.maximum(md, 1).astype(np.float64)
                doc_parts.append(tpb.doc_ids[ib])
                score_parts.append(w * (idf_a + idf_b) / (md * md))
        ids, scores = topk_docs(np.concatenate(doc_parts),
                                np.concatenate(score_parts), k, scratch=self._scratch)
        return [(int(d), float(s)) for d, s in zip(ids, scores)]

    def bm25_topk_wand(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        """The WAND mode, served by :meth:`bm25_topk` (its results contract
        is identical, ties included)."""
        return self.bm25_topk(query, k)

    def bm25_topk_maxscore(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        """The MAXSCORE mode, served by :meth:`bm25_topk` (its results
        contract is identical, ties included)."""
        return self.bm25_topk(query, k)

    def bm25_topk_blended(self, query: str, k: int = 10,
                          bigram_weight: float = 1.0) -> list[tuple[int, float]]:
        """Unigram + bigram blended BM25 top-k — the serving path the
        reference's dead handle_query intended (it retrieved and scored a
        unigram list AND a bigram list and concatenated the top-k lists,
        /root/reference/src/search_engine/mod.rs:118-211). Concatenation
        gives no total order, so the completed design blends additively:
        score(d) = bm25_uni(d) + bigram_weight · bm25_bi(d). Requires an
        index built with ``index_bigrams=True`` (bigram terms missing from
        the dictionary contribute nothing, so the call degrades gracefully
        to plain BM25 on a unigram-only index)."""
        unigrams, bigrams = self.tokenizer.tokenize_query(query)
        seen: dict[str, float] = {}
        for t in unigrams:
            seen.setdefault(t.word, 1.0)
        for t in bigrams:
            seen.setdefault(t.word, bigram_weight)
        doc_parts, score_parts = [], []
        for term, w in seen.items():
            got = self.bm25_postings(term)
            if got is None:
                continue
            doc_parts.append(got[0].doc_ids)
            score_parts.append(got[1] * w)
        if not doc_parts:
            return []
        ids, scores = topk_docs(np.concatenate(doc_parts), np.concatenate(score_parts), k,
                                scratch=self._scratch)
        return [(int(d), float(s)) for d, s in zip(ids, scores)]

    # ------------------------------------------------------------------ phrase
    def phrase(self, query: str) -> np.ndarray:
        """Docs containing the query terms at consecutive positions
        (has_consecutive_positions, positional_intersect/mod.rs:11-35):
        for each start position of term 0, term i must appear at start+i.
        Duplicate words keep their order (positions are raw whitespace-token
        indices, so punctuation-only words break adjacency — by design)."""
        words = [t.word for t in self.tokenizer.tokenize(query)]
        if not words:
            return np.zeros(0, np.int64)
        if len(words) == 1:
            tp = self.get_postings(words[0], positions=False)
            return tp.doc_ids if tp else np.zeros(0, np.int64)
        tps = []
        for w in words:
            tp = self.get_postings(w)
            if tp is None:
                return np.zeros(0, np.int64)
            tps.append(tp)
        candidates = tps[0].doc_ids
        for tp in tps[1:]:
            candidates = np.intersect1d(candidates, tp.doc_ids, assume_unique=True)
        out = []
        for doc in candidates:
            doc = int(doc)
            starts = tps[0].positions_for_doc(doc)
            others = [tps[i].positions_for_doc(doc) for i in range(1, len(tps))]
            # for each start: term i present at start+i (binary search, like
            # the reference's positions.binary_search(&expected_pos))
            hit = np.ones(len(starts), bool)
            for i, pos in enumerate(others, start=1):
                idx = np.searchsorted(pos, starts + i)
                found = (idx < len(pos)) & (pos[np.minimum(idx, len(pos) - 1)] == starts + i)
                hit &= found
                if not hit.any():
                    break
            if hit.any():
                out.append(doc)
        return np.asarray(out, np.int64)

    # ------------------------------------------------------------------ snippets
    def snippets(self, query: str, k: int = 10
                 ) -> list[tuple[int, float, int, int, int]]:
        """Best-window snippet positions for the BM25 top-k docs:
        (doc_id, score, start_pos, end_pos, n_terms) — the MINIMAL position
        window covering the most distinct query terms in each doc
        (cover desc, width asc, start asc — a pinned deterministic
        contract). Positions are whitespace-token indices (the index's
        native coordinate; the caller slices the source text — the index
        deliberately stores no text). Per-doc work is O(positions of the
        query terms in that doc)."""
        terms = self.query_terms(query)
        # positional first, so the ranking below hits these cache entries
        # instead of reading lean postings it would then re-read
        tps = [self.get_postings(t) for t in terms]
        hits = self.bm25_topk(query, k)
        if not hits or not terms:
            return []
        out = []
        for doc_id, score in hits:
            pos_lists = []
            for tp in tps:
                if tp is None:
                    continue
                p = tp.positions_for_doc(doc_id)
                if p is not None and len(p):
                    pos_lists.append(np.asarray(p, np.int64))
            s, e, n = _min_cover_window(pos_lists)
            out.append((doc_id, score, s, e, n))
        return out

    def within_window(self, query: str, window: int) -> np.ndarray:
        """Unordered window match: docs where ALL query terms co-occur
        inside some span of at most ``window`` token positions (any
        order). Reuses the snippet minimal-cover sweep: the smallest
        window covering every term list decides membership — one
        O(total positions) two-pointer pass per doc."""
        words = [t.word for t in self.tokenizer.tokenize(query)]
        got = self._positional_tps(words)
        if got is None:
            return np.zeros(0, np.int64)
        tps, candidates = got
        return _within_window_docs(words, tps, candidates, window)

    def ordered_window(self, query: str, slop: int = 0) -> np.ndarray:
        """Ordered sloppy phrase (Lucene-style): docs where the query terms
        appear IN ORDER with at most ``slop`` extra tokens inside the span —
        ∃ positions p_1 < p_2 < … < p_n (one per term, strictly increasing)
        with p_n − p_1 − (n−1) ≤ slop. slop=0 forces consecutive positions
        (ordered-distinct phrase). Per doc, a greedy searchsorted chain from
        every start p_1 (always take the SMALLEST next position > previous)
        minimizes p_n per start, so existence is decided exactly with one
        vectorized pass per term — no per-position Python."""
        words = [t.word for t in self.tokenizer.tokenize(query)]
        got = self._positional_tps(words)
        if got is None:
            return np.zeros(0, np.int64)
        tps, candidates = got
        if len(words) == 1:
            return tps[0].doc_ids
        return _ordered_window_docs(tps, candidates, slop)

    def _positional_tps(self, words: list[str]):
        """(postings per word, candidate doc intersection) or None when a
        word is out of vocabulary — the shared setup of every positional
        operator."""
        if not words:
            return None
        tps = []
        for w in words:
            tp = self.get_postings(w)
            if tp is None:
                return None
            tps.append(tp)
        candidates = tps[0].doc_ids
        for tp in tps[1:]:
            candidates = np.intersect1d(candidates, tp.doc_ids, assume_unique=True)
        return tps, candidates

    # ------------------------------------------------------------------ proximity
    def proximity(self, term1: str, term2: str, k: int) -> list[tuple[int, int, int]]:
        """positional_intersect (positional_intersect/mod.rs:322-343,579-604):
        matches (doc_id, pp1, pp2) with pp2 > pp1 and pp2 - pp1 <= k
        (one-directional window), over docs containing both terms."""
        t1 = self.tokenizer.normalize(term1)
        t2 = self.tokenizer.normalize(term2)
        tp1, tp2 = self.get_postings(t1), self.get_postings(t2)
        if tp1 is None or tp2 is None:
            return []
        common = np.intersect1d(tp1.doc_ids, tp2.doc_ids, assume_unique=True)
        from search_engine_ray.query.postings_codec import proximity_window_pairs

        out = []
        for doc in common:
            pp1 = tp1.positions_for_doc(int(doc))
            pp2 = tp2.positions_for_doc(int(doc))
            w1, w2 = proximity_window_pairs(pp1, pp2, k)
            out.extend((int(doc), int(p1), int(p2)) for p1, p2 in zip(w1, w2))
        return out

    # ------------------------------------------------------------------ fuzzy
    def fuzzy(self, term: str, edit_distance: int) -> list[str]:
        """BK-tree Levenshtein lookup (my_bk_tree/mod.rs:14-21); the probe is
        normalized like any query token."""
        if self.bktree is None:
            raise RuntimeError("engine built with build_bktree=False")
        key = self.tokenizer.normalize(term)
        return sorted(self.bktree.find(key, edit_distance))

    def bm25_topk_corrected(self, query: str, k: int = 10,
                            min_results: int = 1, max_distance: int = 2
                            ) -> tuple[list[tuple[int, float]], list[str], bool]:
        """Auto-correcting retrieval (the search-box 'did you mean'
        flow): run BM25; when fewer than ``min_results`` docs match,
        spell-correct every query term through :meth:`suggest` and rerun
        over the corrected terms. → (results, terms_used, corrected) —
        ``terms_used`` are the normalized terms actually scored, so the
        caller can render the 'showing results for …' banner. Terms with
        no in-vocabulary correction within ``max_distance`` drop from the
        rerun (Lucene's fuzzy-relax behavior)."""
        first = self.bm25_topk(query, k)
        if len(first) >= min_results:
            return first, self.query_terms(query), False
        corrected: list[str] = []
        for t in self.query_terms(query):
            s = self.suggest(t, max_distance=max_distance)
            if s is not None:
                corrected.append(s[0])
        seen: dict[str, None] = {}
        for t in corrected:
            seen.setdefault(t, None)
        terms = list(seen)
        if not terms:
            return first, [], False
        return self.bm25_topk_terms(terms, k), terms, True

    def suggest(self, term: str, max_distance: int = 2):
        """'Did you mean': normalized probe → the best in-vocabulary
        correction — smallest edit distance first (an in-vocabulary probe
        suggests itself at distance 0), ties broken by largest df, then
        lexicographic. → (term, distance, df) or None when nothing lies
        within ``max_distance``."""
        if self.bktree is None:
            raise RuntimeError("engine built with build_bktree=False")
        key = self.tokenizer.normalize(term)
        best = None
        for cand, dist in self.bktree.find(key, max_distance, with_distance=True):
            meta = self.lookup(cand)
            if meta is None:  # pragma: no cover - bktree is built from vocab
                continue
            rank = (dist, -meta[1], cand)
            if best is None or rank < best[0]:
                best = (rank, cand, meta[1])
        if best is None:
            return None
        return best[1], best[0][0], best[2]

    def fuzzy_boolean(self, term: str, edit_distance: int) -> np.ndarray:
        """Docs containing ANY term within edit_distance (fuzzy OR)."""
        docs = [self.get_postings(t, positions=False).doc_ids
                for t in self.fuzzy(term, edit_distance)]
        if not docs:
            return np.zeros(0, np.int64)
        return np.unique(np.concatenate(docs))

    # ------------------------------------------------------------------ wildcard
    @property
    def kgram(self):
        """Lazy k-gram index over the dictionary (query/kgram.py) — same
        vocabulary and lifecycle as the BK-tree, built on first wildcard."""
        if getattr(self, "_kgram", None) is None:
            from search_engine_ray.query.kgram import KGramIndex

            self._kgram = KGramIndex(self.vocabulary()[0])
        return self._kgram

    def wildcard_terms(self, pattern: str) -> list[str]:
        """Dictionary terms matching a ``*``-wildcard pattern, ascending
        (IIR §3.2 k-gram intersection + mandatory post-filter). The probe
        is lowercased but NOT clean/lemma-normalized — the pattern addresses
        index terms directly, like prefix_search."""
        return self.kgram.lookup(pattern.lower())

    def wildcard_boolean(self, pattern: str) -> np.ndarray:
        """Docs containing ANY term matching the wildcard pattern
        (wildcard OR — the retrieval shape of fuzzy_boolean)."""
        docs = [self.get_postings(t, positions=False).doc_ids
                for t in self.wildcard_terms(pattern)]
        if not docs:
            return np.zeros(0, np.int64)
        return np.unique(np.concatenate(docs))

    # ------------------------------------------------------------------ and-not
    def boolean_and_not(self, query: str, neg_query: str) -> np.ndarray:
        """AND-NOT retrieval: docs matching EVERY positive term minus docs
        containing ANY negated term (web-search ``-term`` syntax; the
        complement boolean_and/boolean_or never compose in the reference —
        query_processor.rs only intersects). Negated terms missing from the
        dictionary exclude nothing."""
        pos = self.boolean_and(query)
        if len(pos) == 0:
            return pos
        neg = self.boolean_or(neg_query)
        if len(neg) == 0:
            return pos
        return np.setdiff1d(pos, neg, assume_unique=True)

    # ------------------------------------------------------------------ QL
    def ql_topk(self, query: str, k: int = 10, mu: float = 2000.0) -> list[tuple[int, float]]:
        """Dirichlet-smoothed query-likelihood ranking (Zhai & Lafferty,
        SIGIR 2001) — the LM alternative to BM25 over the same postings:

            score(q, d) = sum_w  ln( (tf_{w,d} + mu * ctf_w / T)
                                     / (dl_d + mu) )

        summed over the query terms present in the dictionary (ctf_w = the
        term's collection frequency, T = total collection tokens).
        Candidates are the union of the terms' postings (docs matching no
        term are never competitive at practical mu). float64 end to end so
        the DuckDB oracle reproduces scores exactly; ties break by
        ascending doc_id per the engine-wide top-k contract."""
        tps = [tp for tp in (self.get_postings(t, positions=False)
                             for t in self.query_terms(query)) if tp is not None]
        if not tps:
            return []
        T = float(self._dl.sum())
        cand = np.unique(np.concatenate([tp.doc_ids for tp in tps]))
        dl = self.doc_length(cand).astype(np.float64)
        scores = np.zeros(len(cand), np.float64)
        for tp in tps:
            p_bg = mu * float(tp.ctf) / T
            tf = np.zeros(len(cand), np.float64)
            tf[np.searchsorted(cand, tp.doc_ids)] = tp.tfs
            scores += np.log((tf + p_bg) / (dl + mu))
        ids, sc = topk_docs(cand, scores, k, scratch=self._scratch)
        return [(int(d), float(s)) for d, s in zip(ids, sc)]

    # ------------------------------------------------------------------ DSL
    def search(self, query: str, k: int = 10,
               fuzzy_distance: int = 1) -> list[tuple[int, float]]:
        """One-string query DSL (query/parser.py — Lucene classic core):
        ``word +must -not "a phrase" wild* ~fuzzy``. Candidates come from
        the MUST/phrase filters (or the SHOULD union when there are none),
        MUST_NOT subtracts, and BM25 over the distinct MUST ∪ SHOULD terms
        (wildcard/fuzzy expansions included) ranks; a candidate matching
        only filters scores 0.0. Top-k by (score desc, doc_id asc)."""
        from search_engine_ray.query.parser import parse_query

        pq_ = parse_query(query, self.tokenizer.normalize)
        should = list(pq_.should)
        for w in pq_.wildcards:
            should.extend(self.wildcard_terms(w))
        for f in pq_.fuzzy:
            should.extend(self.fuzzy(f, fuzzy_distance))
        score_terms = list(dict.fromkeys(pq_.must + should))

        cand: np.ndarray | None = None

        def narrow(docs: np.ndarray) -> np.ndarray | None:
            nonlocal cand
            cand = docs if cand is None else np.intersect1d(
                cand, docs, assume_unique=True)
            return cand

        for t in pq_.must:
            tp = self.get_postings(t, positions=False)
            if tp is None:
                return []
            if len(narrow(tp.doc_ids)) == 0:
                return []
        for ph in pq_.phrases:
            if len(narrow(self.phrase(ph))) == 0:
                return []
        if cand is None:
            parts = [tp.doc_ids for tp in (self.get_postings(t, positions=False)
                                           for t in score_terms) if tp is not None]
            if not parts:
                return []
            cand = np.unique(np.concatenate(parts))
        if pq_.must_not:
            neg = [tp.doc_ids for tp in (self.get_postings(t, positions=False)
                                         for t in pq_.must_not) if tp is not None]
            if neg:
                cand = np.setdiff1d(cand, np.unique(np.concatenate(neg)),
                                    assume_unique=True)
        if len(cand) == 0:
            return []

        scores = np.zeros(len(cand), np.float64)
        for t in score_terms:
            got = self.bm25_postings(t)
            if got is None:
                continue
            tp, w = got
            idx = np.searchsorted(cand, tp.doc_ids)
            hit = (idx < len(cand)) & (
                cand[np.minimum(idx, len(cand) - 1)] == tp.doc_ids)
            scores[idx[hit]] += w[hit]
        ids, sc = topk_docs(cand, scores, k, scratch=self._scratch)
        return [(int(d), float(s)) for d, s in zip(ids, sc)]
