"""Query engine over a built index (pipelines/build.py layout).

The per-process equivalent of the reference's query stack — in-memory
dictionary + open index handle + tokenizer
(/root/reference/src/search_engine/mod.rs:24-70,
query_processor.rs:5-84, index_metadata.rs:3-48) — designed to run inside a
Ray actor pool for batch/offline retrieval (see ``batch.py``) or standalone
for interactive queries. All loading happens once in ``__init__`` (the
actor-pool contract).

Every mode reads postings through five term-batched seams
(:meth:`SearchEngine.term_doc_ids`, ``term_ctfs``, ``term_weights_for_docs``,
``term_tfs_for_docs``, ``term_positions_for_docs``) and one ranked seam,
``_topk``. Here they are the decoded-postings cache, a ``searchsorted``
gather and the top-k accumulator. The shard-actor deployment
(query/service.py) is this class with those seams fanned out to actors that
each hold a term-hash slice of the index, so both deployments run the same
mode code.
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
    ragged_slices,
)
from search_engine_ray.query.scoring import (
    WEIGHT_DTYPES,
    TopkScratch,
    bm25_idf,
    bm25_weights,
    tfidf_weights,
    topk_docs,
)

_NO_DOCS = np.zeros(0, np.int64)


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


def _phrase_docs(tps, candidates) -> np.ndarray:
    """Shared kernel: docs in ``candidates`` where, for some start position
    of ``tps[0]``, term i sits at start + i (has_consecutive_positions,
    positional_intersect/mod.rs:11-35, binary search per term like the
    reference's positions.binary_search(&expected_pos))."""
    out = []
    for doc in candidates:
        doc = int(doc)
        starts = tps[0].positions_for_doc(doc)
        hit = np.ones(len(starts), bool)
        for i in range(1, len(tps)):
            pos = tps[i].positions_for_doc(doc)
            idx = np.searchsorted(pos, starts + i)
            hit &= (idx < len(pos)) & (pos[np.minimum(idx, len(pos) - 1)] == starts + i)
            if not hit.any():
                break
        if hit.any():
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


def _matches(ids: np.ndarray, doc_ids: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """(indices into ``ids``, indices into ``doc_ids``) of the docs both
    ascending, distinct arrays hold, ascending. The shorter array is
    searched into the longer."""
    if len(ids) <= len(doc_ids):
        slot = np.searchsorted(doc_ids, ids)
        ok = slot < len(doc_ids)
        ok[ok] = doc_ids[slot[ok]] == ids[ok]
        return np.flatnonzero(ok), slot[ok]
    sel = np.searchsorted(ids, doc_ids)
    ok = sel < len(ids)
    ok[ok] = ids[sel[ok]] == doc_ids[ok]
    return sel[ok], np.flatnonzero(ok)


def _union(parts) -> np.ndarray:
    """Ascending distinct doc ids over doc-id arrays."""
    parts = list(parts)
    return np.unique(np.concatenate(parts)) if parts else _NO_DOCS


def _positional(got: tuple) -> TermPostings:
    """A ``term_positions_for_docs`` entry as postings (tfs unused)."""
    d, o, v = got
    return TermPostings(np.asarray(d, np.int64), np.zeros(len(d), np.int64),
                        np.asarray(o, np.int64), np.asarray(v, np.int64))


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
        # map, index_metadata.rs:3-48, as shard hash + per-shard term table)
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
        self._dl_total = float(self._dl.sum())  # collection tokens (ql_topk's T)
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

    def _weights(self, term: str, kind: str = "bm25"
                 ) -> tuple[TermPostings, np.ndarray] | None:
        """(postings, weight per posting) of an indexed term under a scoring
        ``kind`` of ``scoring.WEIGHT_DTYPES``, else None: BM25 is
        :meth:`bm25_postings` (cached weights, None when df = 0); tf-idf is
        ``scoring.tfidf_weights`` in the kind's dtype."""
        if kind == "bm25":
            return self.bm25_postings(term)
        tp = self.get_postings(term, positions=False)
        if tp is None:
            return None
        return tp, tfidf_weights(tp.tfs, self.lookup(term)[1], self.num_docs,
                                 WEIGHT_DTYPES[kind])

    # ----------------------------------------------------------- postings seams
    # Every mode reads postings through the five term-batched methods below
    # and the ranked seam _topk. Each answers for the indexed terms among
    # ``terms`` (others are left out of the dict); per-doc values align to
    # ``doc_ids`` (ascending). query/service.py overrides exactly these to
    # fan out to shard actors, which answer them with this code.
    def term_doc_ids(self, terms) -> dict:
        """{term: its doc ids}."""
        out = {}
        for t in terms:
            tp = self.get_postings(t, positions=False)
            if tp is not None:
                out[t] = tp.doc_ids
        return out

    def term_ctfs(self, terms) -> dict:
        """{term: its collection frequency} (``TermPostings.ctf``)."""
        out = {}
        for t in terms:
            tp = self.get_postings(t, positions=False)
            if tp is not None:
                out[t] = tp.ctf
        return out

    def term_weights_for_docs(self, terms, doc_ids, kind: str = "bm25") -> dict:
        """{term: its ``kind`` weight at each of ``doc_ids``, 0 where a doc
        lacks it} — the exact scores of given candidates."""
        doc_ids = np.asarray(doc_ids, np.int64)
        out = {}
        for t in terms:
            got = self._weights(t, kind)
            if got is not None:
                sel, slot = _matches(got[0].doc_ids, doc_ids)
                w = np.zeros(len(doc_ids), got[1].dtype)
                w[slot] = got[1][sel]
                out[t] = w
        return out

    def term_tfs_for_docs(self, terms, doc_ids) -> dict:
        """{term: its tf at each of ``doc_ids`` as float64, 0 where
        absent}."""
        doc_ids = np.asarray(doc_ids, np.int64)
        out = {}
        for t in terms:
            tp = self.get_postings(t, positions=False)
            if tp is not None:
                sel, slot = _matches(tp.doc_ids, doc_ids)
                tf = np.zeros(len(doc_ids), np.float64)
                tf[slot] = tp.tfs[sel]
                out[t] = tf
        return out

    def term_positions_for_docs(self, terms, doc_ids) -> dict:
        """{term: (those of ``doc_ids`` that have it, position offsets,
        positions)} — the given docs' positions only, never the term's whole
        position stream; {} when ``doc_ids`` is empty. Even then this engine
        reads each term's positional postings: a mode that needs positions
        asks with no docs first, so its later doc-id and weight reads hit
        those entries instead of reading lean postings that would then be
        re-read."""
        doc_ids = np.asarray(doc_ids, np.int64)
        out = {}
        for t in terms:
            tp = self.get_postings(t)
            if tp is None or not len(doc_ids):
                continue
            sel, _slot = _matches(tp.doc_ids, doc_ids)
            if len(sel) == tp.df:  # every posting: no copy
                out[t] = (tp.doc_ids, tp.pos_offsets, tp.pos_values)
            else:
                vals, offs = ragged_slices(tp.pos_offsets, tp.pos_values, sel)
                out[t] = (tp.doc_ids[sel], offs, vals)
        return out

    def _topk(self, terms, k: int, kind: str = "bm25", *, scales=None,
              flt=None, mask=None, capsel=None, boost=None, page=None,
              small_df_cap=None) -> list[tuple[int, float]]:
        """The ranked seam: top-k by (score desc, doc_id asc) of each doc's
        ``kind`` weights summed over ``terms``, in term order (topk_docs'
        contract).

        * ``scales`` {term: factor} multiplies that term's weights;
        * ``flt`` (attr, allowed codes) of the :meth:`set_doc_attr` registry
          and ``mask(doc_ids) -> keep`` drop the postings of docs that fail
          a filter, so the result is the filtered corpus' true top-k;
        * ``capsel`` (attr, cap, digits) keeps at most ``cap`` docs per
          attribute value down the ranking (``docattrs.capped_prefix``);
        * ``boost`` (fn, bound): ``fn(ascending candidate ids)`` returns
          (doc ids, addends) pairs, added to those candidates' totals after
          the term weights, pair by pair; no doc gains more than
          ``bound``.

        ``page`` and ``small_df_cap`` tune the bounded paging of the
        shard-actor deployment; here every posting is scored."""
        if flt is not None:
            from search_engine_ray.query.docattrs import doc_attr_mask

            entry, codes = self._doc_attrs[flt[0]], np.asarray(flt[1], np.int64)

            def mask(ids):
                return doc_attr_mask(entry, codes, ids)

        doc_parts, score_parts = self._parts(terms, kind, mask, scales)
        if not doc_parts:
            return []
        if boost is not None:
            for ids, add in boost[0](_union(doc_parts)):
                doc_parts.append(ids)
                score_parts.append(add)
        docs, scores = np.concatenate(doc_parts), np.concatenate(score_parts)
        if capsel is None:
            ids, sc = topk_docs(docs, scores, k, scratch=self._scratch)
            return [(int(d), float(s)) for d, s in zip(ids, sc)]
        from search_engine_ray.query.docattrs import capped_prefix, codes_for

        attr, cap, digits = capsel
        ids, sc = topk_docs(docs, scores, 1 << 62, scratch=self._scratch)
        kept = capped_prefix(ids, sc, codes_for(self._doc_attrs[attr], ids),
                             cap, k, digits)
        return [(int(ids[i]), float(sc[i])) for i in kept]

    def _parts(self, terms, kind: str = "bm25", mask=None, scales=None
               ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-term (doc ids, ``kind`` weights) over the terms
        :meth:`_weights` scores, in term order: what the ranked modes feed
        topk_docs."""
        doc_parts, score_parts = [], []
        for t in terms:
            # bm25 calls bm25_postings itself: one frame less per term on
            # the serving hot path
            got = self.bm25_postings(t) if kind == "bm25" else self._weights(t, kind)
            if got is None:
                continue
            ids, w = got[0].doc_ids, got[1]
            if mask is not None:
                keep = mask(ids)
                ids, w = ids[keep], w[keep]
            if scales is not None:
                w = w * scales[t]
            doc_parts.append(ids)
            score_parts.append(w)
        return doc_parts, score_parts

    def _topk_of(self, terms, cand: np.ndarray, k: int) -> list[tuple[int, float]]:
        """BM25 top-k of the candidate docs ``cand`` (ascending), each
        scored over ``terms`` in term order; a doc matching none scores
        0.0."""
        w = self.term_weights_for_docs(terms, cand)
        scores = np.zeros(len(cand), np.float64)
        for t in terms:
            if t in w:
                scores += w[t]
        ids, sc = topk_docs(cand, scores, k, scratch=self._scratch)
        return [(int(d), float(s)) for d, s in zip(ids, sc)]

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

    def _keywords(self, texts, n: int, skip=()) -> list[str]:
        """The ``n`` index terms of ``texts`` with the highest tf·idf: tf
        counted over the texts' tokens, idf log10(N/df) from the
        dictionary, float64 rounded to 6 places, ties → term asc (the
        doc_keywords pipeline's contract). Terms in ``skip`` or outside the
        dictionary are passed over."""
        tf: dict[str, int] = {}
        for text in texts:
            for tok in self.tokenizer.tokenize(text):
                if tok.word:
                    tf[tok.word] = tf.get(tok.word, 0) + 1
        scored = []
        for term, f in tf.items():
            m = None if term in skip else self.lookup(term)
            if m is None or m[1] == 0:
                continue
            s = round(float(f) * float(np.log10(float(self.num_docs) / float(m[1]))), 6)
            scored.append((-s, term))
        scored.sort()
        return [t for _s, t in scored[:n]]

    # ------------------------------------------------------------------ boolean
    def boolean_and(self, query: str) -> np.ndarray:
        """AND retrieval, shortest postings first (query_processor.rs:57-84);
        any term missing from the dictionary → empty result."""
        terms = self.query_terms(query)
        if not terms or any(self.lookup(t) is None for t in terms):
            return _NO_DOCS
        lists = sorted(self.term_doc_ids(terms).values(), key=len)
        docs = lists[0]
        for nxt in lists[1:]:
            if len(docs) == 0:
                break
            docs = np.intersect1d(docs, nxt, assume_unique=True)
        return docs

    def boolean_or(self, query: str) -> np.ndarray:
        """OR retrieval: docs containing ANY query term, ascending doc_id.
        The reference only implements AND (process_query intersects,
        query_processor.rs:57-84); OR is the natural complement over the
        same postings machinery (and what fuzzy_boolean already does for
        edit-distance term sets)."""
        return _union(self.term_doc_ids(self.query_terms(query)).values())

    # ------------------------------------------------------------------ ranked
    def tfidf_topk(self, query: str, k: int = 10, dtype=np.float32,
                   page: int | None = None, small_df_cap: int | None = None
                   ) -> list[tuple[int, float]]:
        """Union-accumulated tf·idf top-k, reference formulas
        (scoring/mod.rs:34-48); ties → ascending doc_id. dtype=float32 is
        the reference-parity default (its scoring is f32); float64 is the
        oracle-SQL parity mode (DuckDB computes in doubles). ``page`` and
        ``small_df_cap``: see :meth:`_topk`."""
        kind = "tfidf32" if dtype == np.float32 else "tfidf64"
        return self._topk(self.query_terms(query), k, kind, page=page,
                          small_df_cap=small_df_cap)

    def bm25_topk(self, query: str, k: int = 10, page: int | None = None,
                  small_df_cap: int | None = None) -> list[tuple[int, float]]:
        """BM25 top-k over the distinct query terms (``page`` and
        ``small_df_cap``: see :meth:`_topk`)."""
        return self._topk(self.query_terms(query), k, page=page,
                          small_df_cap=small_df_cap)

    def bm25_topk_terms(self, terms: list[str], k: int = 10) -> list[tuple[int, float]]:
        """BM25 top-k over ALREADY-NORMALIZED distinct terms (bm25_topk's
        body; callers holding index terms — e.g. more_like_this — use this
        to avoid re-lemmatizing lemmas)."""
        return self._topk(terms, k)

    def bm25_topk_msm(self, query: str, k: int = 10,
                      min_match: int = 2) -> list[tuple[int, float]]:
        """Minimum-should-match BM25 (Lucene ``minimum_should_match``
        semantics): only docs containing ≥ ``min_match`` DISTINCT query
        terms are candidates, scored by the usual BM25 sum over their
        matched terms. ``min_match=1`` ≡ :meth:`bm25_topk`;
        ``min_match=len(terms)`` scores exactly the AND set."""
        terms = self.query_terms(query)
        ids = self.term_doc_ids(terms)
        if not ids:
            return []
        # each term's doc ids are distinct, so multiplicity in the concat
        # IS the distinct-matched-term count
        uniq, cnt = np.unique(np.concatenate(list(ids.values())), return_counts=True)
        keep = uniq[cnt >= int(min_match)]
        if len(keep) == 0:
            return []
        return self._topk_of(terms, keep, k)

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
        quality thresholds). The filter applies BEFORE top-k, so the
        result is the true top-k of the filtered corpus; docs absent from
        the attribute registry never match."""
        from search_engine_ray.query.docattrs import numeric_attr_probe

        entry = self._doc_sort_attrs[attr]

        def mask(ids: np.ndarray) -> np.ndarray:
            present, vals = numeric_attr_probe(entry, ids)
            return present & (vals >= lo) & (vals <= hi)

        return self._topk(self.query_terms(query), k, mask=mask)

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
        doc_parts, score_parts = self._parts(self.query_terms(query))
        if not doc_parts:
            return []
        uniq, bm25 = self._scratch.accumulate(np.concatenate(doc_parts),
                                              np.concatenate(score_parts))
        from search_engine_ray.query.docattrs import numeric_attr_probe

        present, vals = numeric_attr_probe(self._doc_sort_attrs[attr], uniq)
        key = np.where(present, vals if not descending else -vals, np.inf)
        order = np.lexsort((uniq, key))[:k]
        return [(int(uniq[j]), float(vals[j]), float(bm25[j])) for j in order]

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
        from search_engine_ray.query.docattrs import allowed_codes

        want = allowed_codes(self._doc_attrs[attr], allowed)
        if not len(want):
            return []
        return self._topk(self.query_terms(query), k,
                          flt=(attr, tuple(want.tolist())))

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
        The greedy is vectorized (docattrs.capped_prefix)."""
        return self._topk(self.query_terms(query), k,
                          capsel=(attr, int(cap), digits))

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
        """Similar-document retrieval: BM25 over the text's top ``n_terms``
        keywords (:meth:`_keywords`), optionally excluding the source doc.
        Per-query work is O(|text| + postings of n_terms terms) — nothing
        corpus-wide."""
        terms = self._keywords([text], n_terms)
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
        desc, doc_id asc); expansion terms rank by :meth:`_keywords`."""
        first = self.bm25_topk(query, 10_000_000)
        first.sort(key=lambda t: (-round(t[1], select_digits), t[0]))
        fb_ids = [d for d, _ in first[:fb_docs]]
        if not fb_ids:
            return []
        orig = self.query_terms(query)
        expansion = self._keywords(fetch_texts(fb_ids), fb_terms, skip=set(orig))
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
        (postings_codec.segmented_min_distance) — no per-doc Python. The
        pair boosts follow a doc's BM25 sum, pair by pair, and no doc gains
        more than w·Σ pairs (idf_i + idf_j) from them (the bound a paging
        ``_topk`` needs). Top-k by (score desc, doc_id asc)."""
        from search_engine_ray.query.postings_codec import segmented_min_distance

        present = []
        for t in self.query_terms(query):
            m = self.lookup(t)
            if m is not None and m[1]:
                present.append(t)
        idf = {t: bm25_idf(self.lookup(t)[1], self.num_docs) for t in present}
        pairs = [(a, b) for i, a in enumerate(present) for b in present[i + 1:]]
        if pairs:  # positions first (see term_positions_for_docs)
            self.term_positions_for_docs(present, _NO_DOCS)

        def boost(cand: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
            per = self.term_positions_for_docs(present, cand) if pairs else {}
            out = []
            for a, b in pairs:
                ids_a, off_a, pos_a = per[a]
                ids_b, off_b, pos_b = per[b]
                if not len(ids_a) or not len(ids_b):
                    continue
                ia = np.minimum(np.searchsorted(ids_a, ids_b), len(ids_a) - 1)
                jb = np.flatnonzero(ids_a[ia] == ids_b)
                if not len(jb):
                    continue
                p1, o1 = ragged_slices(off_a, pos_a, ia[jb])
                p2, o2 = ragged_slices(off_b, pos_b, jb)
                md = np.maximum(segmented_min_distance(p1, o1, p2, o2),
                                1).astype(np.float64)
                out.append((ids_b[jb], w * (idf[a] + idf[b]) / (md * md)))
            return out

        bound = w * sum(idf[a] + idf[b] for a, b in pairs)
        return self._topk(present, k, boost=(boost, bound))

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
        scales: dict[str, float] = {}
        for t in unigrams:
            scales.setdefault(t.word, 1.0)
        for t in bigrams:
            scales.setdefault(t.word, bigram_weight)
        return self._topk(list(scales), k, scales=scales)

    # ------------------------------------------------------------------ phrase
    def phrase(self, query: str) -> np.ndarray:
        """Docs containing the query terms at consecutive positions
        (:func:`_phrase_docs`). Duplicate words keep their order (positions
        are raw whitespace-token indices, so punctuation-only words break
        adjacency — by design). One word reads no positions."""
        words = [t.word for t in self.tokenizer.tokenize(query)]
        if len(words) < 2:
            return next(iter(self.term_doc_ids(words).values()), _NO_DOCS)
        got = self._positional_tps(words)
        if got is None:
            return _NO_DOCS
        return _phrase_docs(*got)

    # ------------------------------------------------------------------ snippets
    def snippets(self, query: str, k: int = 10
                 ) -> list[tuple[int, float, int, int, int]]:
        """Best-window snippet positions for the BM25 top-k docs:
        (doc_id, score, start_pos, end_pos, n_terms) — the MINIMAL position
        window covering the most distinct query terms in each doc
        (cover desc, width asc, start asc — a pinned deterministic
        contract). Positions are whitespace-token indices (the index's
        native coordinate; the caller slices the source text — the index
        deliberately stores no text). Only the k hits' positions are
        fetched."""
        terms = self.query_terms(query)
        self.term_positions_for_docs(terms, _NO_DOCS)  # positions first
        hits = self.bm25_topk(query, k)
        if not hits:
            return []
        per = self.term_positions_for_docs(
            terms, np.sort(np.array([d for d, _s in hits], np.int64)))
        tps = [_positional(per[t]) for t in terms if t in per]
        out = []
        for doc_id, score in hits:
            pos_lists = []
            for tp in tps:
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
            return _NO_DOCS
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
            return _NO_DOCS
        tps, candidates = got
        if len(words) == 1:
            return candidates
        return _ordered_window_docs(tps, candidates, slop)

    def _positional_tps(self, words: list[str]):
        """(postings per word restricted to the candidate docs, candidate
        doc intersection) or None when a word is out of vocabulary — the
        shared setup of every positional operator. Doc ids are intersected
        first, then only the candidates' positions are fetched."""
        uniq = list(dict.fromkeys(words))
        if not uniq or any(self.lookup(w) is None for w in uniq):
            return None
        self.term_positions_for_docs(uniq, _NO_DOCS)  # positions first
        ids = self.term_doc_ids(uniq)
        candidates = ids[uniq[0]]
        for w in uniq[1:]:
            candidates = np.intersect1d(candidates, ids[w], assume_unique=True)
        if len(candidates) == 0:
            return [], candidates
        per = self.term_positions_for_docs(uniq, candidates)
        return [_positional(per[w]) for w in words], candidates

    # ------------------------------------------------------------------ proximity
    def proximity(self, term1: str, term2: str, k: int) -> list[tuple[int, int, int]]:
        """positional_intersect (positional_intersect/mod.rs:322-343,579-604):
        matches (doc_id, pp1, pp2) with pp2 > pp1 and pp2 - pp1 <= k
        (one-directional window), over docs containing both terms."""
        from search_engine_ray.query.postings_codec import proximity_window_pairs

        got = self._positional_tps([self.tokenizer.normalize(term1),
                                    self.tokenizer.normalize(term2)])
        if got is None or not len(got[1]):
            return []
        (tp1, tp2), common = got
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
        return _union(self.term_doc_ids(self.fuzzy(term, edit_distance)).values())

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
        return _union(self.term_doc_ids(self.wildcard_terms(pattern)).values())

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
        ascending doc_id per the engine-wide top-k contract.

        Per-query work is O(Σ df + |candidates| × terms): unlike BM25, a
        doc absent from a term still gains ln(mu·p_t/(dl+mu)), so impact
        paging would need per-term absent-doc bounds as well."""
        terms = self.query_terms(query)
        ctfs = self.term_ctfs(terms)
        present = [t for t in terms if ctfs.get(t)]
        if not present:
            return []
        cand = _union(self.term_doc_ids(present).values())
        T = self._dl_total
        dl = self.doc_length(cand).astype(np.float64)
        tfs = self.term_tfs_for_docs(present, cand)
        scores = np.zeros(len(cand), np.float64)
        for t in present:
            p_bg = mu * float(ctfs[t]) / T
            scores += np.log((tfs[t] + p_bg) / (dl + mu))
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
        if pq_.must:
            must = self.term_doc_ids(pq_.must)
            for t in pq_.must:
                if t not in must:
                    return []
                cand = must[t] if cand is None else np.intersect1d(
                    cand, must[t], assume_unique=True)
                if len(cand) == 0:
                    return []
        for ph in pq_.phrases:
            docs = self.phrase(ph)
            cand = docs if cand is None else np.intersect1d(
                cand, docs, assume_unique=True)
            if len(cand) == 0:
                return []
        if cand is None:
            cand = _union(self.term_doc_ids(score_terms).values())
        if pq_.must_not:
            cand = np.setdiff1d(
                cand, _union(self.term_doc_ids(pq_.must_not).values()),
                assume_unique=True)
        if len(cand) == 0:
            return []
        return self._topk_of(score_terms, cand, k)
