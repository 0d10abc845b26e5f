"""Serving across index segments (pipelines/segments.py) with tombstones.

One SearchEngine per segment, scored with GLOBAL statistics so results are
rank-identical to a single monolithic index over the same docs:

* N (num_docs) and avgdl are additive over segment stats — exact integers
  (num_docs, total_tokens sums), so BM25/tf·idf math is bit-identical to
  the monolithic engine's.
* df(term) sums per-segment dfs — exact, because a doc lives in exactly one
  segment.
* doc_ids are globally unique (per-segment doc_id_base offsets) and segment
  ranges are disjoint ascending, so concatenating per-segment posting
  arrays in segment order preserves the monolithic doc_id-ascending order
  that scoring's tie-break relies on.

Tombstones (deleted docs) filter candidate postings BEFORE top-k selection;
like Lucene, deleted docs still count in N/df/avgdl until compaction — an
explicitly documented drift, removed by pipelines/segments.compact().

WAND serving works unmodified on the segment model: one TermCursor per
(term, segment) fed with the GLOBAL idf/avgdl — segment doc ranges are
disjoint, so the accumulated score at any doc sums exactly its own
segment's contributions and chunk upper bounds stay admissible. (With
tombstones, bm25_topk_wand falls back to the exhaustive path: a skipped
chunk's bound can't know which docs are deleted.)
"""

from __future__ import annotations

import numpy as np

from search_engine_ray.config import EngineConfig
from search_engine_ray.pipelines.segments import (
    load_tombstones,
    read_segments,
    segment_dir,
)
from search_engine_ray.query.engine import SearchEngine
from search_engine_ray.query.scoring import (
    bm25_idf,
    bm25_weights,
    tfidf_weights,
    topk_docs,
)


class SegmentedSearchEngine:
    def __init__(self, root: str, config: EngineConfig | None = None,
                 build_bktree: bool = False):
        self.config = config or EngineConfig()
        self.root = root
        segs = read_segments(root)
        if not segs:
            raise ValueError(f"no segments under {root}")
        self.engines = [
            SearchEngine(segment_dir(root, s["name"]), self.config,
                         build_bktree=build_bktree)
            for s in segs
        ]
        self.num_docs = sum(s["num_docs"] for s in segs)
        total_tokens = sum(s["total_tokens"] for s in segs)
        self.avgdl = (total_tokens / self.num_docs) if self.num_docs else 0.0
        self.tokenizer = self.engines[0].tokenizer
        self.tombstones = load_tombstones(root)

    # ------------------------------------------------------------------ util
    def refresh_tombstones(self) -> None:
        self.tombstones = load_tombstones(self.root)

    def query_terms(self, query: str) -> list[str]:
        return self.engines[0].query_terms(query)

    def df(self, term: str) -> int:
        total = 0
        for eng in self.engines:
            m = eng.lookup(term)
            if m is not None:
                total += m[1]
        return total

    def _live(self, doc_ids: np.ndarray) -> np.ndarray:
        """bool mask of non-tombstoned ids."""
        if not len(self.tombstones):
            return np.ones(len(doc_ids), bool)
        return ~np.isin(doc_ids, self.tombstones)

    def _term_postings(self, term: str, positions: bool = False):
        """[(engine, TermPostings)] over segments that have the term; lean
        (no positions) unless ``positions`` is asked for."""
        out = []
        for eng in self.engines:
            tp = eng.get_postings(term, positions)
            if tp is not None and tp.df:
                out.append((eng, tp))
        return out

    # ------------------------------------------------------------------ ranked
    def bm25_topk(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        return self._bm25_terms(self.query_terms(query), k)

    def tfidf_topk(self, query: str, k: int = 10, dtype=np.float32
                   ) -> list[tuple[int, float]]:
        doc_parts, score_parts = [], []
        for t in self.query_terms(query):
            tps = self._term_postings(t)
            df_g = sum(tp.df for _e, tp in tps)
            if df_g == 0:
                continue
            for _eng, tp in tps:
                if dtype == np.float32:
                    w = tfidf_weights(tp.tfs, df_g, self.num_docs)
                else:
                    w = tp.tfs.astype(np.float64) * np.log10(
                        float(self.num_docs) / float(df_g))
                live = self._live(tp.doc_ids)
                doc_parts.append(tp.doc_ids[live])
                score_parts.append(w[live])
        if not doc_parts:
            return []
        ids, scores = topk_docs(np.concatenate(doc_parts),
                                np.concatenate(score_parts).astype(dtype), k)
        return [(int(d), float(s)) for d, s in zip(ids, scores)]

    def bm25_topk_wand(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        if len(self.tombstones):
            # chunk upper bounds can't see deletions; stay exact
            return self.bm25_topk(query, k)
        from search_engine_ray.query.wand import wand_topk

        cursors = self._term_cursors(query)
        if not cursors:
            return []
        return wand_topk(cursors, k)

    def bm25_topk_maxscore(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        """MAXSCORE over the per-(term, segment) cursor set — exact:
        each doc lives in exactly one segment, so its score is the sum
        over the cursors containing it and the essential/non-essential
        bound argument holds per cursor unchanged. Tombstones fall back
        to the exhaustive path like WAND."""
        if len(self.tombstones):
            return self.bm25_topk(query, k)
        from search_engine_ray.query.wand import maxscore_topk

        cursors = self._term_cursors(query)
        if not cursors:
            return []
        return maxscore_topk(cursors, k)

    def _term_cursors(self, query: str) -> list:
        """Block-max cursors per (term, segment), term-major creation
        order (the float summation order both pruning paths re-impose,
        matching the exhaustive scorer); idf uses the GLOBAL df."""
        from search_engine_ray.query.wand import TermCursor

        cursors = []
        for t in self.query_terms(query):
            dfs = [(eng, eng.lookup(t)) for eng in self.engines]
            df_g = sum(m[1] for _e, m in dfs if m is not None)
            if df_g == 0:
                continue
            idf = bm25_idf(df_g, self.num_docs)
            for eng, m in dfs:
                if m is None:
                    continue
                chunks = eng.get_chunks(t)
                if chunks is None or chunks.num_rows == 0:
                    continue

                def dl_of(doc_id: int, _eng=eng) -> int:
                    i = int(np.searchsorted(_eng._dl_ids, doc_id))
                    return int(_eng._dl[min(i, len(_eng._dl) - 1)])

                cursors.append(TermCursor(chunks, idf, self.config.bm25_k1,
                                          self.config.bm25_b, self.avgdl, dl_of))
        return cursors

    # ------------------------------------------------------------------ boolean
    def boolean_and(self, query: str) -> np.ndarray:
        terms = self.query_terms(query)
        if not terms:
            return np.zeros(0, np.int64)
        per_term = []
        for t in terms:
            tps = self._term_postings(t)
            if not tps:
                return np.zeros(0, np.int64)
            ids = np.concatenate([tp.doc_ids for _e, tp in tps])
            per_term.append(ids)
        per_term.sort(key=len)
        docs = per_term[0]
        for ids in per_term[1:]:
            if len(docs) == 0:
                break
            docs = np.intersect1d(docs, ids, assume_unique=True)
        return docs[self._live(docs)]

    def boolean_or(self, query: str) -> np.ndarray:
        docs = []
        for t in self.query_terms(query):
            for _eng, tp in self._term_postings(t):
                docs.append(tp.doc_ids)
        if not docs:
            return np.zeros(0, np.int64)
        out = np.unique(np.concatenate(docs))
        return out[self._live(out)]

    def boolean_and_not(self, query: str, neg_query: str) -> np.ndarray:
        """AND-NOT over segments (matches SearchEngine.boolean_and_not);
        both sides are already tombstone-filtered."""
        pos = self.boolean_and(query)
        if len(pos) == 0:
            return pos
        neg = self.boolean_or(neg_query)
        if len(neg) == 0:
            return pos
        return np.setdiff1d(pos, neg, assume_unique=True)

    def wildcard_terms(self, pattern: str) -> list[str]:
        """Union of per-segment wildcard matches (each segment engine owns
        its own k-gram index) — equals the compacted index's lookup."""
        out: set[str] = set()
        for eng in self.engines:
            out.update(eng.wildcard_terms(pattern))
        return sorted(out)

    def wildcard_boolean(self, pattern: str) -> np.ndarray:
        docs = []
        for t in self.wildcard_terms(pattern):
            for _eng, tp in self._term_postings(t):
                docs.append(tp.doc_ids)
        if not docs:
            return np.zeros(0, np.int64)
        out = np.unique(np.concatenate(docs))
        return out[self._live(out)]

    def ql_topk(self, query: str, k: int = 10, mu: float = 2000.0
                ) -> list[tuple[int, float]]:
        """Dirichlet query-likelihood with GLOBAL statistics (ctf and the
        collection token count are exact integer sums over segments, doc
        lengths come from each candidate's own segment) — rank-identical
        to the monolithic engine on a tombstone-free corpus, same float
        expressions in the same per-term order."""
        per_term = []
        for t in self.query_terms(query):
            tps = self._term_postings(t)
            if tps:
                per_term.append(tps)
        if not per_term:
            return []
        T = float(sum(int(eng._dl.sum()) for eng in self.engines))
        cand = np.unique(np.concatenate(
            [tp.doc_ids for tps in per_term for _e, tp in tps]))
        cand = cand[self._live(cand)]
        if not len(cand):
            return []
        dl = np.zeros(len(cand), np.float64)
        for eng in self.engines:
            idx = np.searchsorted(eng._dl_ids, cand)
            hit = (idx < len(eng._dl_ids)) & (
                eng._dl_ids[np.minimum(idx, len(eng._dl_ids) - 1)] == cand)
            dl[hit] = eng._dl[idx[hit]]
        scores = np.zeros(len(cand), np.float64)
        for tps in per_term:
            ctf = sum(int(tp.tfs.sum()) for _e, tp in tps)
            p_bg = mu * float(ctf) / T
            tf = np.zeros(len(cand), np.float64)
            for _eng, tp in tps:
                idx = np.searchsorted(cand, tp.doc_ids)
                hit = (idx < len(cand)) & (
                    cand[np.minimum(idx, len(cand) - 1)] == tp.doc_ids)
                tf[idx[hit]] = tp.tfs[hit]
            scores += np.log((tf + p_bg) / (dl + mu))
        ids, sc = topk_docs(cand, scores, k)
        return [(int(d), float(s)) for d, s in zip(ids, sc)]

    def fuzzy(self, term: str, edit_distance: int) -> list[str]:
        """Sorted union of per-segment BK-tree lookups (requires engines
        built with build_bktree=True)."""
        key = self.tokenizer.normalize(term)
        out: set[str] = set()
        for eng in self.engines:
            if eng.bktree is None:
                raise RuntimeError("segment engines built with build_bktree=False")
            out.update(eng.bktree.find(key, edit_distance))
        return sorted(out)

    def search(self, query: str, k: int = 10,
               fuzzy_distance: int = 1) -> list[tuple[int, float]]:
        """Query-string DSL across segments — rank-identical to the
        monolithic engine's ``search`` on a tombstone-free corpus (same
        Lucene semantics; BM25 uses GLOBAL df/avgdl/N, each candidate's
        doc_length comes from its own segment)."""
        from search_engine_ray.query.parser import parse_query

        pq_ = parse_query(query, self.tokenizer.normalize)
        should = list(pq_.should)
        for w in pq_.wildcards:
            should.extend(self.wildcard_terms(w))
        for f in pq_.fuzzy:
            should.extend(self.fuzzy(f, fuzzy_distance))
        score_terms = list(dict.fromkeys(pq_.must + should))

        cand: np.ndarray | None = None

        def narrow(docs: np.ndarray):
            nonlocal cand
            cand = docs if cand is None else np.intersect1d(
                cand, docs, assume_unique=True)
            return cand

        for t in pq_.must:
            tps = self._term_postings(t)
            if not tps:
                return []
            ids = np.concatenate([tp.doc_ids for _e, tp in tps])
            if len(narrow(np.unique(ids))) == 0:
                return []
        for ph in pq_.phrases:
            if len(narrow(self.phrase(ph))) == 0:
                return []
        if cand is None:
            parts = [tp.doc_ids for t in score_terms
                     for _e, tp in self._term_postings(t)]
            if not parts:
                return []
            cand = np.unique(np.concatenate(parts))
        if pq_.must_not:
            neg = [tp.doc_ids for t in pq_.must_not
                   for _e, tp in self._term_postings(t)]
            if neg:
                cand = np.setdiff1d(cand, np.unique(np.concatenate(neg)),
                                    assume_unique=True)
        cand = cand[self._live(cand)]
        if len(cand) == 0:
            return []

        scores = np.zeros(len(cand), np.float64)
        for t in score_terms:
            tps = self._term_postings(t)
            df_g = sum(tp.df for _e, tp in tps)
            if df_g == 0:
                continue
            for eng, tp in tps:
                idx = np.searchsorted(cand, tp.doc_ids)
                hit = (idx < len(cand)) & (
                    cand[np.minimum(idx, len(cand) - 1)] == tp.doc_ids)
                dl = eng.doc_length(tp.doc_ids[hit])
                scores[idx[hit]] += bm25_weights(
                    tp.tfs[hit], dl, df_g, self.num_docs, self.avgdl,
                    self.config.bm25_k1, self.config.bm25_b)
        ids, sc = topk_docs(cand, scores, k)
        return [(int(d), float(s)) for d, s in zip(ids, sc)]

    def more_like_this(self, text: str, k: int = 10, n_terms: int = 3,
                       exclude: int | None = None) -> list[tuple[int, float]]:
        """Keyword extraction with GLOBAL df/N (exact integers over
        segments), then segmented BM25 — matches the monolithic engine's
        more_like_this on the same corpus."""
        tf: dict[str, int] = {}
        for tok in self.tokenizer.tokenize(text):
            if tok.word:
                tf[tok.word] = tf.get(tok.word, 0) + 1
        scored = []
        for term, f in tf.items():
            df_g = self.df(term)
            if df_g == 0:
                continue
            s = round(float(f) * float(np.log10(float(self.num_docs) / float(df_g))), 6)
            scored.append((-s, term))
        scored.sort()
        terms = [t for _s, t in scored[:n_terms]]
        hits = self._bm25_terms(terms, k + (1 if exclude is not None else 0))
        if exclude is not None:
            hits = [h for h in hits if h[0] != exclude]
        return hits[:k]

    def set_doc_attr(self, name: str, doc_ids, values) -> None:
        """Per-doc attribute registry for filtered retrieval (global
        doc_id space — segment bases already applied), same contract as
        ``SearchEngine.set_doc_attr``."""
        from search_engine_ray.query.docattrs import build_doc_attr

        if not hasattr(self, "_doc_attrs"):
            self._doc_attrs: dict[str, tuple] = {}
        self._doc_attrs[name] = build_doc_attr(doc_ids, values)

    def bm25_topk_filtered(self, query: str, k: int = 10, *, attr: str,
                           allowed) -> list[tuple[int, float]]:
        """Filtered BM25 over all live segments: the attribute mask ANDs
        with the tombstone mask per segment-postings slice; df/avgdl stay
        global corpus-level (same Lucene filter semantics as the local
        engine — rank-identical on an equivalent monolithic index)."""
        from search_engine_ray.query.docattrs import allowed_codes, doc_attr_mask

        ent = getattr(self, "_doc_attrs", {})[attr]
        want = allowed_codes(ent, allowed)
        if len(want) == 0:
            return []
        doc_parts, score_parts = [], []
        for t in self.query_terms(query):
            tps = self._term_postings(t)
            df_g = sum(tp.df for _e, tp in tps)
            if df_g == 0:
                continue
            for eng, tp in tps:
                keep = doc_attr_mask(ent, want, tp.doc_ids) & self._live(tp.doc_ids)
                if not keep.any():
                    continue
                docs, tfs = tp.doc_ids[keep], tp.tfs[keep]
                dl = eng.doc_length(docs)
                w = bm25_weights(tfs, dl, df_g, self.num_docs, self.avgdl,
                                 self.config.bm25_k1, self.config.bm25_b)
                doc_parts.append(docs)
                score_parts.append(w)
        if not doc_parts:
            return []
        ids, scores = topk_docs(np.concatenate(doc_parts),
                                np.concatenate(score_parts), k)
        return [(int(d), float(s)) for d, s in zip(ids, scores)]

    def bm25_topk_capped(self, query: str, k: int = 10, *, attr: str,
                         cap: int, digits: int | None = None
                         ) -> list[tuple[int, float]]:
        """Diversified BM25 over all live segments — the same greedy
        contract as ``SearchEngine.bm25_topk_capped`` (shared
        docattrs.capped_prefix kernel), rank-identical on an equivalent
        monolithic index."""
        from search_engine_ray.query.docattrs import capped_prefix, codes_for

        full = self._bm25_terms(self.query_terms(query), 1 << 62)
        if not full:
            return []
        d = np.fromiter((x for x, _ in full), np.int64, len(full))
        s = np.fromiter((y for _, y in full), np.float64, len(full))
        kept = capped_prefix(d, s, codes_for(getattr(self, "_doc_attrs", {})[attr], d),
                             cap, k, digits)
        return [(int(d[i]), float(s[i])) for i in kept]

    def _bm25_parts(self, terms: list[str], positions: bool = False):
        """(doc_parts, score_parts, term_data) — per-(term, segment) BM25
        contribution arrays in term-major, segment-minor order (each doc
        lives in one segment, so per doc this is query-term order — the
        monolithic engine's float summation order). ``term_data`` is
        [(term, global idf, [(engine, postings)])] for reuse by boosted
        scorers; its postings carry positions only when asked for."""
        doc_parts, score_parts, term_data = [], [], []
        for t in terms:
            tps = self._term_postings(t, positions)
            df_g = sum(tp.df for _e, tp in tps)
            if df_g == 0:
                continue
            term_data.append((t, bm25_idf(df_g, self.num_docs), tps))
            for eng, tp in tps:
                dl = eng.doc_length(tp.doc_ids)
                w = bm25_weights(tp.tfs, dl, df_g, self.num_docs, self.avgdl,
                                 self.config.bm25_k1, self.config.bm25_b)
                live = self._live(tp.doc_ids)
                doc_parts.append(tp.doc_ids[live])
                score_parts.append(w[live])
        return doc_parts, score_parts, term_data

    def _bm25_terms(self, terms: list[str], k: int) -> list[tuple[int, float]]:
        doc_parts, score_parts, _td = self._bm25_parts(terms)
        if not doc_parts:
            return []
        ids, scores = topk_docs(np.concatenate(doc_parts),
                                np.concatenate(score_parts), k)
        return [(int(d), float(s)) for d, s in zip(ids, scores)]

    def set_doc_sort_attr(self, name: str, doc_ids, values) -> None:
        """Register a NUMERIC per-doc attribute (range filter + sort-by-
        field serving) — same contract as the monolithic engine's."""
        from search_engine_ray.query.docattrs import build_numeric_attr

        if not hasattr(self, "_doc_sort_attrs"):
            self._doc_sort_attrs: dict[str, tuple] = {}
        self._doc_sort_attrs[name] = build_numeric_attr(doc_ids, values)

    def _sort_attr_of(self, attr: str, ids: np.ndarray):
        """(present mask, values) of a numeric attribute for ids."""
        from search_engine_ray.query.docattrs import numeric_attr_probe

        return numeric_attr_probe(self._doc_sort_attrs[attr], ids)

    def bm25_topk_range(self, query: str, k: int = 10, *, attr: str,
                        lo: float = -np.inf, hi: float = np.inf
                        ) -> list[tuple[int, float]]:
        """Range-filtered BM25 over segments — pytest-identical to the
        monolithic engine: the numeric filter applies per (term, segment)
        part before top-k, so the result is the true top-k of the
        filtered corpus."""
        doc_parts, score_parts, _td = self._bm25_parts(
            self.query_terms(query))
        kept_d, kept_s = [], []
        for d, s in zip(doc_parts, score_parts):
            present, vals = self._sort_attr_of(attr, d)
            keep = present & (vals >= lo) & (vals <= hi)
            if keep.any():
                kept_d.append(d[keep])
                kept_s.append(s[keep])
        if not kept_d:
            return []
        ids, scores = topk_docs(np.concatenate(kept_d),
                                np.concatenate(kept_s), k)
        return [(int(d), float(s)) for d, s in zip(ids, scores)]

    def bm25_topk_sorted(self, query: str, k: int = 10, *, attr: str,
                         descending: bool = True
                         ) -> list[tuple[int, float, float]]:
        """Sort-by-field retrieval over segments — pytest-identical to the
        monolithic engine (attr desc|asc, doc asc; missing-last)."""
        doc_parts, score_parts, _td = self._bm25_parts(
            self.query_terms(query))
        if not doc_parts:
            return []
        # per-term left-to-right accumulation — the same float association
        # as the monolithic engine and distributed coordinator (reduceat
        # associates differently in the last ulp)
        uniq = np.unique(np.concatenate(doc_parts))
        bm25 = np.zeros(len(uniq), np.float64)
        for d_t, w_t in zip(doc_parts, score_parts):
            bm25[np.searchsorted(uniq, d_t)] += w_t
        present, vals = self._sort_attr_of(attr, uniq)
        key = np.where(present, vals if not descending else -vals, np.inf)
        order = np.lexsort((uniq, key))[:k]
        return [(int(uniq[j]), float(vals[j]), float(bm25[j]))
                for j in order]

    def bm25_prox_topk(self, query: str, k: int = 10, w: float = 1.0
                       ) -> list[tuple[int, float]]:
        """Segmented proximity-boosted BM25 — pytest-identical to the
        monolithic ``SearchEngine.bm25_prox_topk``: pair min-distances are
        segment-local (a doc's positions live in its own segment), idf is
        global, and pair-boost parts append in pair-major segment-minor
        order so the per-doc float accumulation matches the monolithic
        concat order exactly. Tombstoned docs drop from both the term and
        the boost parts."""
        from search_engine_ray.query.ltr import _ragged_positions
        from search_engine_ray.query.postings_codec import segmented_min_distance

        doc_parts, score_parts, term_data = self._bm25_parts(
            self.query_terms(query), positions=True)
        if not doc_parts:
            return []
        for x in range(len(term_data)):
            for y in range(x + 1, len(term_data)):
                _ta, idf_a, tps_a = term_data[x]
                _tb, idf_b, tps_b = term_data[y]
                by_eng_b = {id(eng): tp for eng, tp in tps_b}
                for eng, tpa in tps_a:
                    tpb = by_eng_b.get(id(eng))
                    if tpb is None:
                        continue
                    ia = np.minimum(np.searchsorted(tpa.doc_ids, tpb.doc_ids),
                                    len(tpa.doc_ids) - 1)
                    common = tpa.doc_ids[ia] == tpb.doc_ids
                    if not common.any():
                        continue
                    jb = np.flatnonzero(common)
                    p1, o1 = _ragged_positions(tpa, ia[jb])
                    p2, o2 = _ragged_positions(tpb, jb)
                    md = np.maximum(
                        segmented_min_distance(p1, o1, p2, o2), 1
                    ).astype(np.float64)
                    ids_c = tpb.doc_ids[jb]
                    live = self._live(ids_c)
                    doc_parts.append(ids_c[live])
                    score_parts.append(
                        (w * (idf_a + idf_b) / (md * md))[live])
        ids, scores = topk_docs(np.concatenate(doc_parts),
                                np.concatenate(score_parts), k)
        return [(int(d), float(s)) for d, s in zip(ids, scores)]

    def snippets(self, query: str, k: int = 10
                 ) -> list[tuple[int, float, int, int, int]]:
        """Best-window snippets over the segmented BM25 top-k; positions
        come from each hit's own segment."""
        from search_engine_ray.query.engine import _min_cover_window

        terms = self.query_terms(query)
        hits = self.bm25_topk(query, k)
        if not hits or not terms:
            return []
        per_term = {t: self._term_postings(t, positions=True) for t in terms}
        out = []
        for doc_id, score in hits:
            pos_lists = []
            for t in terms:
                for _eng, tp in per_term[t]:
                    p = tp.positions_for_doc(doc_id)
                    if p is not None and len(p):
                        pos_lists.append(np.asarray(p, np.int64))
            s, e, n = _min_cover_window(pos_lists)
            out.append((doc_id, score, s, e, n))
        return out

    def phrase(self, query: str) -> np.ndarray:
        parts = [eng.phrase(query) for eng in self.engines]
        docs = np.concatenate(parts) if parts else np.zeros(0, np.int64)
        return docs[self._live(docs)]

    def ordered_window(self, query: str, slop: int = 0) -> np.ndarray:
        parts = [eng.ordered_window(query, slop) for eng in self.engines]
        docs = np.concatenate(parts) if parts else np.zeros(0, np.int64)
        return docs[self._live(docs)]

    def within_window(self, query: str, window: int) -> np.ndarray:
        parts = [eng.within_window(query, window) for eng in self.engines]
        docs = np.concatenate(parts) if parts else np.zeros(0, np.int64)
        return docs[self._live(docs)]

    def proximity(self, term1: str, term2: str, k: int):
        out = []
        for eng in self.engines:
            out.extend(eng.proximity(term1, term2, k))
        if len(self.tombstones):
            out = [t for t in out
                   if t[0] not in set(int(x) for x in self.tombstones)]
        return out
