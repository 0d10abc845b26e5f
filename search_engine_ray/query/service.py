"""Distributed query serving: per-shard actors + term fan-out.

``SearchEngine`` (engine.py) is the single-process serving path; this module
is its cluster shape: N ``ShardServingActor``s each own a disjoint subset of
the postings hash shards — the SAME ``poly_hash(term) % index_shards`` key
the build partitioned by — and load ONLY their shards' dictionary slice and
postings. A query fans out per involved actor (terms grouped by owner);
ranked retrieval is BOUNDED: actors serve impact-ordered pages + tail
bounds and exact per-candidate weights, so per-query bytes are
O(pages × terms + candidates) — a hot term never ships its whole posting
list (see bm25_topk). The coordinator merges with the identical top-k
contract as the local engine (pytest-enforced equality).

Per-actor memory = vocab/n_actors dictionary entries + its shard files'
footers + the doc_length array (num_docs × 16 B — at 10^12 docs this one
table would also shard by doc range; documented seam, not needed below
~10^10 docs per node).
"""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import ray

from search_engine_ray.config import EngineConfig
from search_engine_ray.functions.tokenizer import Tokenizer
from search_engine_ray.pipelines.build import IndexPaths, load_stats
from search_engine_ray.query.engine import postings_entry, read_postings
from search_engine_ray.query.locator import PostingsLocator
from search_engine_ray.query.scoring import bm25_weights, topk_docs


class ShardServingActor:
    """Owns a subset of hash shards: dictionary slice + postings access +
    scoring state, all loaded once in ``__init__`` (actor-pool contract)."""

    def __init__(self, index_dir: str, shard_ids: list[int],
                 config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self.paths = IndexPaths(index_dir)
        stats = load_stats(index_dir)
        self.num_docs = stats["num_docs"]
        self.avgdl = stats["avgdl"]
        self.shard_ids = set(shard_ids)
        n_shards = (stats.get("config") or {}).get("index_shards")
        self.locator = PostingsLocator(self.paths.postings, n_shards)

        # dictionary slice: only this actor's shards' terms
        dic = pq.read_table(self.paths.dictionary,
                            columns=["term", "term_id", "df", "shard"])
        mask = np.isin(dic["shard"].to_numpy(zero_copy_only=False), list(self.shard_ids))
        idx = np.flatnonzero(mask)
        terms = dic["term"].take(idx).to_pylist()
        dfs = dic["df"].take(idx).to_numpy(zero_copy_only=False)
        self._dict = {t: int(d) for t, d in zip(terms, dfs)}
        # per-slice BK-tree, built lazily on the first fuzzy call (bm25-only
        # serving never pays for it); union-of-slices find == full-set find
        self._bktree = None

        dl = pq.read_table(self.paths.doc_lengths,
                           columns=["doc_id", "doc_length"]).combine_chunks().sort_by("doc_id")
        self._dl_ids = dl["doc_id"].to_numpy().astype(np.int64)
        self._dl = dl["doc_length"].to_numpy().astype(np.int64)
        # decoded-postings cache: term → [postings, None], evicted FIFO at
        # _cache_cap (insertion order; a hit does not refresh) — the same
        # rule as SearchEngine._cache (engine.postings_entry): lean until a
        # positional call asks for positions
        self._cache: dict = {}
        self._cache_cap = 1024
        # per-term (doc_ids, weights, impact order) cache for bounded serving
        self._impact_cache: dict = {}
        # per-doc attribute registry for filtered retrieval (docattrs.py);
        # arrays arrive as ObjectRef args → object-store shared, zero-copy
        self._doc_attrs: dict = {}

    def n_terms(self) -> int:
        return len(self._dict)

    def set_doc_attr(self, name: str, ids_sorted, codes) -> None:
        """Install one attribute (pre-sorted ids + dense codes; the
        value→code vocab stays coordinator-side — actors only ever see
        code sets). Re-registering an attribute invalidates every cached
        FILTERED impact view that referenced it — otherwise an identical
        follow-up query would serve results filtered by the old values."""
        self._doc_attrs[name] = (np.asarray(ids_sorted, np.int64),
                                 np.asarray(codes, np.int64), None)
        stale = [k for k in self._impact_cache
                 if len(k) == 3 and k[2] is not None and k[2][0] == name]
        for k in stale:
            del self._impact_cache[k]

    def _impact(self, term: str, kind: str = "bm25", flt=None):
        """(doc_ids, weights, impact_order) of one owned term — weights for
        ALL postings plus their descending-weight permutation, computed once
        and cached per (term, kind). ``kind`` selects the scoring family:
        bm25 (f64), tfidf32 (the engine's f32 reference-parity weights) or
        tfidf64 (the oracle-parity f64 formula). ``flt`` = (attr_name,
        sorted code tuple) restricts the VIEW to allowed docs — weights are
        computed on the full postings first (df/tf/dl are corpus-level,
        Lucene filter semantics), then masked, so an allowed doc's weight
        is bit-identical to the unfiltered one. Everything here is
        actor-LOCAL compute; what leaves the actor is bounded by the
        page/candidate sizes below."""
        key = (term, kind) if flt is None else (term, kind, flt)
        ent = self._impact_cache.get(key)
        if ent is None and flt is not None:
            from search_engine_ray.query.docattrs import doc_attr_mask

            ids, w, _order = self._impact(term, kind)
            keep = doc_attr_mask(self._doc_attrs[flt[0]],
                                 np.asarray(flt[1], np.int64), ids)
            ids, w = ids[keep], w[keep]
            ent = (ids, w, np.argsort(-w, kind="stable"))
            if len(self._impact_cache) >= self._cache_cap:
                self._impact_cache.pop(next(iter(self._impact_cache)))
            self._impact_cache[key] = ent
        if ent is None:
            df = self._dict[term]
            tp = self._postings(term)
            if kind == "bm25":
                dl_idx = np.searchsorted(self._dl_ids, tp.doc_ids)
                dl = self._dl[np.clip(dl_idx, 0, len(self._dl) - 1)]
                w = bm25_weights(tp.tfs, dl, df, self.num_docs, self.avgdl,
                                 self.config.bm25_k1, self.config.bm25_b)
            elif kind == "tfidf32":
                from search_engine_ray.query.scoring import tfidf_weights

                w = tfidf_weights(tp.tfs, df, self.num_docs)
            elif kind == "tfidf64":
                w = tp.tfs.astype(np.float64) * np.log10(float(self.num_docs) / float(df))
            else:
                raise ValueError(f"unknown scoring kind {kind!r}")
            order = np.argsort(-w, kind="stable")
            ent = (tp.doc_ids, w, order)
            if len(self._impact_cache) >= self._cache_cap:
                self._impact_cache.pop(next(iter(self._impact_cache)))
            self._impact_cache[(term, kind)] = ent
        return ent

    def term_impact_page(self, terms: list[str], start: int, stop: int,
                         small_df_cap: int = 0, kind: str = "bm25",
                         flt=None) -> dict:
        """For each OWNED term: its postings at impact ranks [start, stop)
        — (doc_ids, weights, tail_bound, exhausted). ``tail_bound`` is the
        weight of the first UNFETCHED posting (0.0 when exhausted): any doc
        outside the fetched prefix scores ≤ tail_bound in this term. This
        is the bounded replacement for shipping whole posting lists: a
        hot term moves ``stop - start`` rows per page, not its df.

        Terms with df ≤ ``small_df_cap`` ship whole (and exhaust) — rare
        terms are cheap to send and exhausting them collapses the
        coordinator's outside-bound to the hot terms' tails only."""
        out = {}
        for t in terms:
            if t not in self._dict:
                continue
            ids, w, order = self._impact(t, kind, flt)
            stop_eff = len(order) if len(order) <= small_df_cap else stop
            page = order[start:stop_eff]
            exhausted = stop_eff >= len(order)
            tail = 0.0 if exhausted else float(w[order[stop_eff]])
            out[t] = (ids[page], w[page], tail, exhausted)
        return out

    def term_weights_for_docs(self, terms: list[str], doc_ids: np.ndarray,
                              kind: str = "bm25") -> dict:
        """Exact per-doc weights for the given candidate doc_ids (0.0 where
        a doc lacks the term) — random access by doc_id, O(|candidates|)
        bytes per term."""
        doc_ids = np.asarray(doc_ids, np.int64)
        out = {}
        for t in terms:
            if t not in self._dict:
                continue
            ids, w, _order = self._impact(t, kind)
            idx = np.searchsorted(ids, doc_ids)
            hit = (idx < len(ids)) & (ids[np.minimum(idx, len(ids) - 1)] == doc_ids)
            wv = np.zeros(len(doc_ids), w.dtype)
            wv[hit] = w[idx[hit]]
            out[t] = wv
        return out

    def fuzzy_terms(self, key: str, edit_distance: int) -> list[str]:
        """Dictionary-slice terms within ``edit_distance`` of the
        (already-normalized) key; BK-tree built once on first use."""
        if self._bktree is None:
            from search_engine_ray.query.bktree import BKTree

            self._bktree = BKTree(list(self._dict))
        return self._bktree.find(key, edit_distance)

    def _postings(self, term: str, positions: bool = False):
        return postings_entry(self._cache, self._cache_cap, self._read_postings,
                              term, positions)[0]

    def _read_postings(self, term: str, positions: bool):
        return read_postings(self.locator, term, positions)

    def attr_codes(self, name: str, doc_ids) -> np.ndarray:
        """Attribute codes for the given docs (-1 = unregistered), used by
        the coordinator's capped retrieval — O(|doc_ids|) per call."""
        from search_engine_ray.query.docattrs import codes_for

        return codes_for(self._doc_attrs[name], np.asarray(doc_ids, np.int64))

    def term_doc_ids(self, terms: list[str]) -> dict:
        return {t: self._postings(t).doc_ids for t in terms if t in self._dict}

    def term_dfs(self, terms: list[str]) -> dict:
        """Dictionary-only df lookup (no postings read) for the owned
        subset of ``terms``."""
        return {t: self._dict[t] for t in terms if t in self._dict}

    def term_ctfs(self, terms: list[str]) -> dict:
        """Collection term frequency (Σ tf over the term's postings) for
        the owned subset — one int per term leaves the actor."""
        return {t: int(self._postings(t).tfs.sum()) for t in terms
                if t in self._dict}

    def term_tfs_for_docs(self, terms: list[str], doc_ids) -> dict:
        """Exact per-candidate raw tf (0.0 where absent) for the owned
        subset — the QL analog of term_weights_for_docs, O(|candidates|)
        bytes per term."""
        doc_ids = np.asarray(doc_ids, np.int64)
        out = {}
        for t in terms:
            if t not in self._dict:
                continue
            tp = self._postings(t)
            idx = np.searchsorted(tp.doc_ids, doc_ids)
            hit = (idx < len(tp.doc_ids)) & (
                tp.doc_ids[np.minimum(idx, len(tp.doc_ids) - 1)] == doc_ids)
            tf = np.zeros(len(doc_ids), np.float64)
            tf[hit] = tp.tfs[idx[hit]]
            out[t] = tf
        return out

    def doc_lengths_for(self, doc_ids) -> np.ndarray:
        """doc_length per id — every actor holds the full array, any one
        can serve; O(|doc_ids|) rows leave."""
        idx = np.searchsorted(self._dl_ids, np.asarray(doc_ids, np.int64))
        return self._dl[np.clip(idx, 0, len(self._dl) - 1)]

    def all_doc_ids(self) -> np.ndarray:
        """The sorted corpus doc-id array (rides the doc-length table every
        actor already holds) — fetched once by the coordinator for
        walks that must cover registry-missing docs."""
        return self._dl_ids

    def collection_token_count(self) -> int:
        return int(self._dl.sum())

    def wildcard_terms(self, pattern: str) -> list[str]:
        """Slice terms matching the ``*``-pattern (k-gram index per slice,
        built lazily like the BK-tree). The union over actors equals the
        full-dictionary lookup because shard routing PARTITIONS the
        vocabulary — every dictionary term lives in exactly one slice."""
        if getattr(self, "_kgram", None) is None:
            from search_engine_ray.query.kgram import KGramIndex

            self._kgram = KGramIndex(sorted(self._dict))
        return self._kgram.lookup(pattern)

    def term_positions_for_docs(self, terms: list[str], doc_ids: np.ndarray) -> dict:
        """Positions restricted to the given candidate docs: {term:
        (present_doc_ids, pos_offsets, pos_values)} — what leaves the actor
        is O(positions in candidate docs), not the term's whole position
        stream (the phrase/proximity analog of the bounded ranked path)."""
        doc_ids = np.asarray(doc_ids, np.int64)
        out = {}
        for t in terms:
            if t not in self._dict:
                continue
            tp = self._postings(t, positions=True)
            idx = np.searchsorted(tp.doc_ids, doc_ids)
            hit = (idx < len(tp.doc_ids)) & (
                tp.doc_ids[np.minimum(idx, len(tp.doc_ids) - 1)] == doc_ids)
            sel = idx[hit]
            lens = tp.pos_offsets[sel + 1] - tp.pos_offsets[sel]
            offs = np.zeros(len(sel) + 1, np.int64)
            np.cumsum(lens, out=offs[1:])
            if len(sel):
                flat_starts = np.repeat(tp.pos_offsets[sel], lens)
                within = np.arange(offs[-1]) - np.repeat(offs[:-1], lens)
                vals = tp.pos_values[flat_starts + within]
            else:
                vals = np.zeros(0, np.int64)
            out[t] = (tp.doc_ids[sel], offs, vals)
        return out



class DistributedSearchEngine:
    """Coordinator: routes each query term to the actor owning its shard
    (one message per involved actor per query), merges per-term results
    with the exact same (score desc, doc_id asc) top-k contract as
    ``SearchEngine`` — results are pytest-identical."""

    def __init__(self, index_dir: str, n_actors: int = 4,
                 config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        stats = load_stats(index_dir)
        n_shards = (stats.get("config") or {}).get("index_shards") or self.config.index_shards
        self.n_shards = n_shards
        self._num_docs = stats["num_docs"]
        self.tokenizer = Tokenizer(lemma_path=self.config.lemma_path)
        remote_cls = ray.remote(ShardServingActor)
        self.actors = []
        for a in range(n_actors):
            owned = [k for k in range(n_shards) if k % n_actors == a]
            self.actors.append(remote_cls.remote(index_dir, owned, self.config))
        self.n_actors = n_actors
        #: rows shipped coordinator-ward by the most recent ranked query
        self.last_fetch_rows = 0
        # same shard hash as build + locator
        from search_engine_ray.functions.hashing import poly_hash_str

        self._hash = poly_hash_str

    def _actor_of(self, term: str):
        return self.actors[(self._hash(term) % self.n_shards) % self.n_actors]

    def _fan_out_args(self, terms: list[str], method: str, *args) -> dict:
        by_actor: dict[int, list[str]] = {}
        for t in terms:
            i = (self._hash(t) % self.n_shards) % self.n_actors
            by_actor.setdefault(i, []).append(t)
        futures = [getattr(self.actors[i], method).remote(ts, *args)
                   for i, ts in by_actor.items()]
        merged: dict = {}
        for part in ray.get(futures):
            merged.update(part)
        return merged

    def _fan_out(self, terms: list[str], method: str) -> dict:
        return self._fan_out_args(terms, method)

    def query_terms(self, query: str) -> list[str]:
        seen: dict[str, None] = {}
        for tok in self.tokenizer.tokenize(query):
            seen.setdefault(tok.word, None)
        return list(seen)

    def bm25_topk(self, query: str, k: int = 10, page: int | None = None,
                  small_df_cap: int | None = None) -> list[tuple[int, float]]:
        """Bounded exact top-k BM25 (round-2 VERDICT #5): per-query bytes
        are O(pages × terms + candidates), never O(posting list).

        Threshold-style loop over impact-ordered pages:

        1. each involved actor returns its terms' next ``page`` postings in
           DESCENDING-weight order plus a tail bound (the first unfetched
           weight — an upper bound on any unseen doc's weight in that term);
        2. the union of paged docs is the candidate set; a second bounded
           fan-out fetches each candidate's EXACT weight in every query term
           (random access by doc_id), so candidate totals are exact;
        3. any doc outside ALL fetched prefixes scores ≤ Σ tail bounds of
           the non-exhausted terms — once that sum is strictly below the
           k-th candidate total, the top-k is provably exact (ties safe:
           an outsider can at best reach a score < k-th, so the
           (score desc, doc_id asc) contract is untouched). Otherwise the
           page quadruples and the loop continues; exhaustion of every term
           guarantees termination and degrades to the full computation.

        Float parity with SearchEngine.bm25_topk is bit-exact: candidate
        totals add per-term weights in query-term order, the same order
        topk_docs accumulates, and adding 0.0 for absent terms is a float
        no-op. ``self.last_fetch_rows`` records the rows shipped
        coordinator-ward by the last query (asserted small for hot terms in
        tests)."""
        terms = self.query_terms(query)
        if not terms:
            return []
        return self._bounded_topk([(t, 1.0) for t in terms], k, page,
                                  small_df_cap, "bm25", np.float64)

    def bm25_prox_topk(self, query: str, k: int = 10, w: float = 1.0
                       ) -> list[tuple[int, float]]:
        """Distributed proximity-boosted BM25 — pytest-identical to
        ``SearchEngine.bm25_prox_topk``. The bounded threshold loop runs
        with an UNSEEN-doc bound inflated by B_max = w·Σ pairs
        (idf_i + idf_j) (any doc outside the paged prefixes could still
        collect every pair boost at md = 1); each fresh candidate's exact
        boost computes coordinator-side from ONE candidate-bounded
        positions fan-out per pair member (term_positions_for_docs — only
        candidate docs' positions ship). Pair addends apply one at a time
        in pair order after the term loop, preserving left-to-right float
        parity with the local scorer's reduceat accumulation."""
        from search_engine_ray.query.postings_codec import segmented_min_distance
        from search_engine_ray.query.scoring import bm25_idf

        terms = self.query_terms(query)
        if not terms:
            return []
        dfs = self._fan_out_args(terms, "term_dfs")
        present = [t for t in terms if dfs.get(t)]
        if not present:
            return []
        idf = {t: bm25_idf(int(dfs[t]), self._num_docs) for t in present}
        pairs = [(a, b) for i, a in enumerate(present)
                 for b in present[i + 1:]]
        b_max = w * sum(idf[a] + idf[b] for a, b in pairs)

        from search_engine_ray.query.postings_codec import ragged_slices as subrag

        def boost_fn(fresh: np.ndarray):
            if not pairs:
                return []
            per_pos = self._fan_out_args(present, "term_positions_for_docs",
                                         fresh)
            for t in present:
                if t in per_pos:
                    self.last_fetch_rows += len(per_pos[t][2])
            addends = []
            for a, b in pairs:
                arr = np.zeros(len(fresh), np.float64)
                pa_ = per_pos.get(a)
                pb_ = per_pos.get(b)
                if pa_ is not None and pb_ is not None and len(pa_[0]) and len(pb_[0]):
                    ids_a, off_a, pos_a = pa_
                    ids_b, off_b, pos_b = pb_
                    ia = np.minimum(np.searchsorted(ids_a, ids_b),
                                    len(ids_a) - 1)
                    common = ids_a[ia] == ids_b
                    if common.any():
                        jb = np.flatnonzero(common)
                        p1, o1 = subrag(off_a, pos_a, ia[jb])
                        p2, o2 = subrag(off_b, pos_b, jb)
                        md = np.maximum(
                            segmented_min_distance(p1, o1, p2, o2), 1
                        ).astype(np.float64)
                        pos = np.searchsorted(fresh, ids_b[jb])
                        arr[pos] = w * (idf[a] + idf[b]) / (md * md)
                addends.append(arr)
            return addends

        return self._bounded_topk([(t, 1.0) for t in present], k, None,
                                  None, "bm25", np.float64,
                                  boost_fn=boost_fn, boost_ub=b_max)

    def set_doc_attr(self, name: str, doc_ids, values) -> None:
        """Register a per-doc attribute on every shard actor for filtered
        retrieval: the sorted-id/code arrays are ``ray.put`` ONCE and shared
        through the object store (zero-copy reads actor-side); the
        value→code vocab stays coordinator-side so queries ship only small
        code tuples."""
        from search_engine_ray.query.docattrs import build_doc_attr

        ids_sorted, codes, vocab = build_doc_attr(doc_ids, values)
        if not hasattr(self, "_attr_vocabs"):
            self._attr_vocabs: dict[str, dict] = {}
        self._attr_vocabs[name] = vocab
        ids_ref, codes_ref = ray.put(ids_sorted), ray.put(codes)
        ray.get([a.set_doc_attr.remote(name, ids_ref, codes_ref)
                 for a in self.actors])

    def set_doc_sort_attr(self, name: str, doc_ids, values) -> None:
        """Register a NUMERIC per-doc attribute for range-filtered
        retrieval, coordinator-side: one sorted (ids, float64) pair,
        O(num_docs) — the same footprint class as each actor's doc-length
        array."""
        from search_engine_ray.query.docattrs import build_numeric_attr

        if not hasattr(self, "_doc_sort_attrs"):
            self._doc_sort_attrs: dict[str, tuple] = {}
        self._doc_sort_attrs[name] = build_numeric_attr(doc_ids, values)

    def bm25_topk_range(self, query: str, k: int = 10, *, attr: str,
                        lo: float = -np.inf, hi: float = np.inf
                        ) -> list[tuple[int, float]]:
        """Distributed range-filtered BM25 — pytest-identical to
        ``SearchEngine.bm25_topk_range``. The numeric mask applies
        coordinator-side at candidate SELECTION (see ``_bounded_topk``'s
        mask_fn note): tail bounds stay valid for unseen allowed docs, so
        the result is the true top-k of the filtered corpus."""
        terms = self.query_terms(query)
        if not terms:
            return []
        from search_engine_ray.query.docattrs import numeric_attr_probe

        entry = self._doc_sort_attrs[attr]

        def mask_fn(cand: np.ndarray) -> np.ndarray:
            present, vals = numeric_attr_probe(entry, cand)
            return present & (vals >= lo) & (vals <= hi)

        return self._bounded_topk([(t, 1.0) for t in terms], k, None, None,
                                  "bm25", np.float64, mask_fn=mask_fn)

    def bm25_topk_sorted(self, query: str, k: int = 10, *, attr: str,
                         descending: bool = True, chunk: int = 1024
                         ) -> list[tuple[int, float, float]]:
        """Distributed sort-by-field retrieval — pytest-identical to
        ``SearchEngine.bm25_topk_sorted``. Candidates walk in ATTRIBUTE
        order (attr desc|asc, doc asc; registry-missing docs last), in
        chunks of ``chunk`` ids: each chunk is one bounded
        term_weights_for_docs fan-out; docs with a positive BM25 total
        matched ≥1 term (every per-posting weight is > 0), and the walk
        stops at the k-th match — per-query bytes are
        O(chunks-until-k × terms), never a posting list."""
        terms = self.query_terms(query)
        if not terms:
            return []
        dfs = self._fan_out_args(terms, "term_dfs")
        present = [t for t in terms if dfs.get(t)]
        if not present:
            return []
        aids, avals = self._doc_sort_attrs[attr]
        key = -avals if descending else avals
        ordered = aids[np.lexsort((aids, key))]
        # the REAL corpus id set (doc ids need not be 1..N — segment
        # builds offset them): fetched once from an actor's doc-length
        # table and cached, O(num_docs) like the registry itself
        if not hasattr(self, "_all_doc_ids"):
            self._all_doc_ids = np.asarray(
                ray.get(self.actors[0].all_doc_ids.remote()), np.int64)
        missing = np.setdiff1d(self._all_doc_ids, aids, assume_unique=False)
        walk = np.concatenate([ordered, missing])
        out: list[tuple[int, float, float]] = []
        for s in range(0, len(walk), chunk):
            ids = walk[s:s + chunk]
            w_by_term = self._fan_out_args(present, "term_weights_for_docs",
                                           np.sort(ids), "bm25")
            sids = np.sort(ids)
            totals = np.zeros(len(sids), np.float64)
            for t in present:
                totals += w_by_term.get(t, np.zeros(len(sids)))
            back = np.searchsorted(sids, ids)
            tot_walk = totals[back]
            for j in np.flatnonzero(tot_walk > 0.0):
                d = int(ids[j])
                i = np.searchsorted(aids, d)
                has = i < len(aids) and aids[i] == d
                val = float(avals[i]) if has else float("nan")
                out.append((d, val, float(tot_walk[j])))
                if len(out) >= k:
                    return out
        return out

    def bm25_topk_filtered(self, query: str, k: int = 10, *, attr: str,
                           allowed) -> list[tuple[int, float]]:
        """Distributed filtered BM25 — pytest-identical to
        ``SearchEngine.bm25_topk_filtered``: actors page the FILTERED
        impact order (disallowed docs never ship), weights stay
        corpus-level (computed pre-mask), and the threshold loop's tail
        bounds remain exact upper bounds for unseen ALLOWED docs."""
        vocab = getattr(self, "_attr_vocabs", {})[attr]
        want = tuple(sorted(vocab[v] for v in allowed if v in vocab))
        if not want:
            return []
        terms = self.query_terms(query)
        if not terms:
            return []
        return self._bounded_topk([(t, 1.0) for t in terms], k, None, None,
                                  "bm25", np.float64, flt=(attr, want))

    def tfidf_topk(self, query: str, k: int = 10, dtype=np.float32,
                   page: int | None = None,
                   small_df_cap: int | None = None) -> list[tuple[int, float]]:
        """Bounded exact tf-idf top-k: the same threshold loop as
        :meth:`bm25_topk` with the engine's tf-idf weights (f32
        reference-parity by default, f64 for the oracle mode); results are
        pytest-identical to ``SearchEngine.tfidf_topk``."""
        terms = self.query_terms(query)
        if not terms:
            return []
        kind = "tfidf32" if dtype == np.float32 else "tfidf64"
        return self._bounded_topk([(t, 1.0) for t in terms], k, page,
                                  small_df_cap, kind, dtype)

    def bm25_topk_blended(self, query: str, k: int = 10,
                          bigram_weight: float = 1.0) -> list[tuple[int, float]]:
        """Bounded unigram+bigram blended BM25: the per-term blend factor
        scales pages, tails and candidate weights coordinator-side (scaling
        by a non-negative constant preserves impact order and the tail
        bound), so the threshold loop stays exact; pytest-identical to
        ``SearchEngine.bm25_topk_blended``."""
        unigrams, bigrams = self.tokenizer.tokenize_query(query)
        seen: dict[str, float] = {}
        for t in unigrams:
            seen.setdefault(t.word, 1.0)
        for t in bigrams:
            seen.setdefault(t.word, bigram_weight)
        if not seen:
            return []
        return self._bounded_topk(list(seen.items()), k, None, None,
                                  "bm25", np.float64)

    def bm25_topk_capped(self, query: str, k: int = 10, *, attr: str,
                         cap: int, digits: int | None = None
                         ) -> list[tuple[int, float]]:
        """Distributed diversified BM25 (at most ``cap`` results per
        attribute value) — pytest-identical to
        ``SearchEngine.bm25_topk_capped``. Runs the bounded threshold
        loop with a cap-greedy selector: the loop is exact because any
        unseen doc scores ≤ the outside bound, and once that is strictly
        below the k-th KEPT score (minus one rounding grid step in
        ``digits`` mode) it would insert after the k-th kept entry in
        (score desc, doc asc) order, leaving the greedy's kept prefix
        unchanged. Candidate attribute codes are fetched once per fresh
        candidate from one actor (O(candidates) rows)."""
        terms = self.query_terms(query)
        if not terms:
            return []
        return self._bounded_topk([(t, 1.0) for t in terms], k, None, None,
                                  "bm25", np.float64,
                                  capsel=(attr, int(cap), digits))

    def _bounded_topk(self, weighted: list[tuple[str, float]], k: int,
                      page: int | None, small_df_cap: int | None,
                      kind: str, dtype, flt=None,
                      capsel=None, boost_fn=None,
                      boost_ub: float = 0.0,
                      mask_fn=None) -> list[tuple[int, float]]:
        """Shared threshold loop (see :meth:`bm25_topk` for the algorithm).
        ``weighted`` is (term, scale) in accumulation order; scales are
        applied coordinator-side. The outside bound gets a relative
        ``eps(dtype)`` margin: an outsider's dtype-accumulated score can
        round ABOVE the f64 sum of its per-term bounds (material for f32
        tf-idf), so the stop test must over- not under-estimate it.
        ``capsel`` = (attr, cap, digits) switches the selector to the
        diversification greedy (see :meth:`bm25_topk_capped`).
        ``boost_fn(fresh_ids)`` returns a SEQUENCE of per-candidate
        addend arrays applied to fresh candidates' totals in order (one
        per score component, preserving left-to-right float parity with
        the local scorer); ``boost_ub`` bounds any UNSEEN doc's possible
        boost and inflates the outside bound accordingly. ``mask_fn``
        applies a coordinator-side candidate filter (e.g. a numeric
        range) at SELECTION: tail bounds remain valid for unseen ALLOWED
        docs (they bound ANY doc), so exactness is preserved; disallowed
        docs merely consume page slots (the categorical ``flt`` path
        filters actor-side instead and never ships them)."""
        scale = dict(weighted)
        terms = [t for t, _ in weighted]
        page = page or max(64, 4 * k)
        if small_df_cap is None:
            small_df_cap = max(page, 1024)
        self.last_fetch_rows = 0
        start = 0
        cand = np.zeros(0, np.int64)
        totals = np.zeros(0, dtype)
        ccodes = np.zeros(0, np.int64)  # candidate attr codes (capsel mode)
        tails: dict[str, float] = {}
        exhausted: dict[str, bool] = {}
        present: list[str] | None = None
        eps = float(np.finfo(dtype).eps)
        while True:
            live = ([t for t in present if not exhausted[t]]
                    if present is not None else terms)
            got = self._fan_out_args(live, "term_impact_page",
                                     start, start + page, small_df_cap, kind,
                                     flt)
            if present is None:
                present = [t for t in terms if t in got]
                if not present:
                    return []
            new_ids = []
            for t in live:
                if t not in got:
                    continue
                ids_t, w_t, tail_t, ex_t = got[t]
                self.last_fetch_rows += len(ids_t)
                tails[t] = tail_t * scale[t]
                exhausted[t] = ex_t
                new_ids.append(np.asarray(ids_t, np.int64))
            fresh = np.setdiff1d(
                np.unique(np.concatenate(new_ids)) if new_ids else np.zeros(0, np.int64),
                cand, assume_unique=True,
            )
            if len(fresh):
                # exact weights fetched ONCE per candidate, summed in
                # query-term order (== topk_docs accumulation order; adding
                # 0.0 for absent terms is a float no-op -> bit-exact parity)
                w_by_term = self._fan_out_args(present, "term_weights_for_docs",
                                               fresh, kind)
                fresh_tot = np.zeros(len(fresh), dtype)
                for t in present:
                    fresh_tot += w_by_term[t] * scale[t]
                    self.last_fetch_rows += len(fresh)
                if boost_fn is not None:
                    for addend in boost_fn(fresh):
                        fresh_tot += addend
                ins = np.searchsorted(cand, fresh)
                cand = np.insert(cand, ins, fresh)
                totals = np.insert(totals, ins, fresh_tot)
                if capsel is not None:
                    fc = ray.get(self.actors[0].attr_codes.remote(capsel[0], fresh))
                    ccodes = np.insert(ccodes, ins, np.asarray(fc, np.int64))
                    self.last_fetch_rows += len(fresh)
            if capsel is not None:  # capsel and mask_fn are exclusive
                from search_engine_ray.query.docattrs import capped_prefix

                attr_name, cap_n, digits = capsel
                order = capped_prefix(cand, totals, ccodes, cap_n, k, digits)
                # digits mode: an unseen doc within one rounding grid step
                # of the k-th kept raw score could round EQUAL and, with a
                # smaller doc_id, rank above it — widen the margin by one
                # grid step so the stop test stays conservative
                margin = (10.0 ** -digits) if digits is not None else 0.0
                cand_sel, tot_sel = cand, totals
            else:
                if mask_fn is not None:
                    keep = mask_fn(cand)
                    cand_sel, tot_sel = cand[keep], totals[keep]
                else:
                    cand_sel, tot_sel = cand, totals
                order = np.lexsort((cand_sel, -tot_sel))[:k]
                margin = 0.0
            all_done = all(exhausted.values())
            if len(order) >= k or all_done:
                kth = tot_sel[order[-1]] - margin if len(order) else np.inf
                outside = sum(tails[t] for t in present if not exhausted[t])
                outside += abs(outside) * eps * 8 * len(present)
                if not all_done:
                    outside += boost_ub
                if all_done or (len(order) >= k and outside < kth):
                    return [(int(cand_sel[i]), float(tot_sel[i])) for i in order]
            start += page
            page *= 4

    def fuzzy(self, term: str, edit_distance: int) -> list[str]:
        """Distributed BK-tree lookup: every actor probes its dictionary
        slice (the vocabulary is hash-sharded, so matches can live
        anywhere); the sorted union equals ``SearchEngine.fuzzy``."""
        key = self.tokenizer.normalize(term)
        parts = ray.get([a.fuzzy_terms.remote(key, edit_distance)
                         for a in self.actors])
        return sorted({t for p in parts for t in p})

    def fuzzy_boolean(self, term: str, edit_distance: int) -> np.ndarray:
        """Docs containing ANY term within edit_distance (fuzzy OR),
        matching ``SearchEngine.fuzzy_boolean``."""
        matches = self.fuzzy(term, edit_distance)
        if not matches:
            return np.zeros(0, np.int64)
        per_term = self._fan_out(matches, "term_doc_ids")
        docs = [np.asarray(v, np.int64) for v in per_term.values()]
        if not docs:
            return np.zeros(0, np.int64)
        return np.unique(np.concatenate(docs))

    def boolean_and(self, query: str) -> np.ndarray:
        terms = self.query_terms(query)
        if not terms:
            return np.zeros(0, np.int64)
        per_term = self._fan_out(terms, "term_doc_ids")
        if len(per_term) < len(terms):  # a term missing anywhere → empty
            return np.zeros(0, np.int64)
        lists = sorted(per_term.values(), key=len)
        docs = np.asarray(lists[0], np.int64)
        for nxt in lists[1:]:
            if len(docs) == 0:
                break
            docs = np.intersect1d(docs, np.asarray(nxt, np.int64), assume_unique=True)
        return docs

    def boolean_or(self, query: str) -> np.ndarray:
        """Docs containing ANY query term (matches SearchEngine.boolean_or)."""
        terms = self.query_terms(query)
        if not terms:
            return np.zeros(0, np.int64)
        per_term = self._fan_out(terms, "term_doc_ids")
        docs = [np.asarray(v, np.int64) for v in per_term.values()]
        if not docs:
            return np.zeros(0, np.int64)
        return np.unique(np.concatenate(docs))

    def boolean_and_not(self, query: str, neg_query: str) -> np.ndarray:
        """AND-NOT retrieval (matches SearchEngine.boolean_and_not):
        positives intersect, any negated term excludes."""
        pos = self.boolean_and(query)
        if len(pos) == 0:
            return pos
        neg = self.boolean_or(neg_query)
        if len(neg) == 0:
            return pos
        return np.setdiff1d(pos, neg, assume_unique=True)

    def wildcard_terms(self, pattern: str) -> list[str]:
        """Dictionary terms matching a ``*``-pattern: the pattern fans out
        to EVERY actor (hash sharding scatters lexicographic neighborhoods
        across slices), each scans its own k-gram index; sorted union ==
        SearchEngine.wildcard_terms."""
        got = ray.get([a.wildcard_terms.remote(pattern.lower())
                       for a in self.actors])
        return sorted(set().union(*map(set, got)))

    def wildcard_boolean(self, pattern: str) -> np.ndarray:
        """Wildcard OR retrieval (matches SearchEngine.wildcard_boolean):
        matched terms route to their owners like any term fan-out."""
        terms = self.wildcard_terms(pattern)
        if not terms:
            return np.zeros(0, np.int64)
        per_term = self._fan_out(terms, "term_doc_ids")
        docs = [np.asarray(v, np.int64) for v in per_term.values()]
        if not docs:
            return np.zeros(0, np.int64)
        return np.unique(np.concatenate(docs))

    def ql_topk(self, query: str, k: int = 10, mu: float = 2000.0
                ) -> list[tuple[int, float]]:
        """Distributed Dirichlet query-likelihood — bit-exact parity with
        ``SearchEngine.ql_topk`` (same float expressions in the same
        per-term accumulation order).

        Exact candidate-set path, the boolean ops' cost discipline:
        per-query bytes are O(Σ df + |candidates| × terms). The bounded
        impact-page loop (bm25_topk's) does NOT carry over unchanged: a doc
        ABSENT from a term still contributes ln(mu·p_t/(dl+mu)), so unseen
        docs need absent-doc upper bounds per term (ln(mu·p_t/(min_dl+mu)))
        on top of the paged tails — that extension is the documented seam
        if QL ever serves hot production traffic."""
        terms = self.query_terms(query)
        if not terms:
            return []
        ctfs = self._fan_out(terms, "term_ctfs")
        present = [t for t in terms if ctfs.get(t)]
        if not present:
            return []
        ids_by_term = self._fan_out(present, "term_doc_ids")
        cand = np.unique(np.concatenate(
            [np.asarray(ids_by_term[t], np.int64) for t in present]))
        T = float(ray.get(self.actors[0].collection_token_count.remote()))
        dl = np.asarray(
            ray.get(self.actors[0].doc_lengths_for.remote(cand)), np.float64)
        tf_by_term = self._fan_out_args(present, "term_tfs_for_docs", cand)
        scores = np.zeros(len(cand), np.float64)
        for t in present:
            p_bg = mu * float(ctfs[t]) / T
            scores += np.log((tf_by_term[t] + p_bg) / (dl + mu))
        ids, sc = topk_docs(cand, scores, k)
        return [(int(d), float(s)) for d, s in zip(ids, sc)]

    def search(self, query: str, k: int = 10,
               fuzzy_distance: int = 1) -> list[tuple[int, float]]:
        """Distributed query-string DSL — pytest-identical to
        ``SearchEngine.search``. Filters compose from the existing
        fan-outs (MUST/NOT via term_doc_ids, phrase via the positional
        path, wildcard/fuzzy expansion across slices); scoring fetches
        exact per-candidate BM25 weights once per term
        (term_weights_for_docs), so the scoring fan-out is
        O(|candidates| × terms)."""
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
            got = self._fan_out(pq_.must, "term_doc_ids")
            for t in pq_.must:
                if t not in got:
                    return []
                docs = np.asarray(got[t], np.int64)
                cand = docs if cand is None else np.intersect1d(
                    cand, docs, assume_unique=True)
                if len(cand) == 0:
                    return []
        for ph in pq_.phrases:
            pd_ = self.phrase(ph)
            cand = pd_ if cand is None else np.intersect1d(
                cand, pd_, assume_unique=True)
            if len(cand) == 0:
                return []
        if cand is None:
            per = self._fan_out(score_terms, "term_doc_ids")
            parts = [np.asarray(v, np.int64) for v in per.values()]
            if not parts:
                return []
            cand = np.unique(np.concatenate(parts))
        if pq_.must_not:
            per = self._fan_out(pq_.must_not, "term_doc_ids")
            neg = [np.asarray(v, np.int64) for v in per.values()]
            if neg:
                cand = np.setdiff1d(cand, np.unique(np.concatenate(neg)),
                                    assume_unique=True)
        if len(cand) == 0:
            return []

        w_by_term = self._fan_out_args(score_terms, "term_weights_for_docs",
                                       cand, "bm25")
        scores = np.zeros(len(cand), np.float64)
        for t in score_terms:
            if t in w_by_term:
                scores += w_by_term[t]
        ids, sc = topk_docs(cand, scores, k)
        return [(int(d), float(s)) for d, s in zip(ids, sc)]

    def more_like_this(self, text: str, k: int = 10, n_terms: int = 3,
                       exclude: int | None = None) -> list[tuple[int, float]]:
        """Distributed more-like-this: tf from the text (coordinator-side,
        O(|text|)), df via a dictionary-only fan-out (no postings read),
        keyword selection with the engine's exact contract, then the bounded
        BM25 threshold loop over the keywords — pytest-identical to
        ``SearchEngine.more_like_this``."""
        tf: dict[str, int] = {}
        for tok in self.tokenizer.tokenize(text):
            if tok.word:
                tf[tok.word] = tf.get(tok.word, 0) + 1
        if not tf:
            return []
        stats = self._fan_out(list(tf), "term_dfs")
        scored = []
        for term, f in tf.items():
            df = stats.get(term)
            if not df:
                continue
            s = round(float(f) * float(np.log10(float(self._num_docs) / float(df))), 6)
            scored.append((-s, term))
        scored.sort()
        terms = [t for _s, t in scored[:n_terms]]
        if not terms:
            return []
        hits = self._bounded_topk([(t, 1.0) for t in terms],
                                  k + (1 if exclude is not None else 0),
                                  None, None, "bm25", np.float64)
        if exclude is not None:
            hits = [h for h in hits if h[0] != exclude]
        return hits[:k]

    def phrase(self, query: str) -> np.ndarray:
        """Distributed phrase match, candidate-bounded: doc_id lists fan out
        first (8 B/posting), the coordinator intersects, and ONLY the
        intersection docs' positions are fetched — a hot term never ships
        its position stream. The consecutive-position intersection then
        runs with the local engine's exact semantics."""
        from search_engine_ray.query.postings_codec import TermPostings

        words = [t.word for t in self.tokenizer.tokenize(query)]
        if not words:
            return np.zeros(0, np.int64)
        uniq = list(dict.fromkeys(words))
        per_ids = self._fan_out(uniq, "term_doc_ids")
        if len(per_ids) < len(uniq):  # a word missing anywhere → no match
            return np.zeros(0, np.int64)
        candidates = np.asarray(per_ids[words[0]], np.int64)
        for w in uniq[1:]:
            if len(candidates) == 0:
                break
            candidates = np.intersect1d(
                candidates, np.asarray(per_ids[w], np.int64), assume_unique=True)
        if len(words) == 1:
            return candidates
        if len(candidates) == 0:
            return np.zeros(0, np.int64)
        per_pos = self._fan_out_args(uniq, "term_positions_for_docs", candidates)
        tps = []
        for w in words:
            d, o, v = per_pos[w]
            tps.append(TermPostings(np.asarray(d, np.int64),
                                    np.zeros(len(d), np.int64),
                                    np.asarray(o, np.int64),
                                    np.asarray(v, np.int64)))
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

    def _positional_fanout(self, words: list[str]):
        """(postings per word, candidate doc intersection) or None — the
        distributed twin of SearchEngine._positional_tps: doc_id lists fan
        out first, positions are fetched ONLY for the intersection docs."""
        from search_engine_ray.query.postings_codec import TermPostings

        if not words:
            return None
        uniq = list(dict.fromkeys(words))
        per_ids = self._fan_out(uniq, "term_doc_ids")
        if len(per_ids) < len(uniq):
            return None
        candidates = np.asarray(per_ids[words[0]], np.int64)
        for w in uniq[1:]:
            if len(candidates) == 0:
                break
            candidates = np.intersect1d(
                candidates, np.asarray(per_ids[w], np.int64), assume_unique=True)
        if len(candidates) == 0:
            return [], np.zeros(0, np.int64)
        per_pos = self._fan_out_args(uniq, "term_positions_for_docs", candidates)
        tps = []
        for w in words:
            d, o, v = per_pos[w]
            tps.append(TermPostings(np.asarray(d, np.int64),
                                    np.zeros(len(d), np.int64),
                                    np.asarray(o, np.int64),
                                    np.asarray(v, np.int64)))
        return tps, candidates

    def ordered_window(self, query: str, slop: int = 0) -> np.ndarray:
        """Distributed ordered sloppy phrase — candidate-bounded fan-out
        feeding the SAME kernel as SearchEngine.ordered_window."""
        from search_engine_ray.query.engine import _ordered_window_docs

        words = [t.word for t in self.tokenizer.tokenize(query)]
        got = self._positional_fanout(words)
        if got is None:
            return np.zeros(0, np.int64)
        tps, candidates = got
        if len(words) == 1:
            return candidates
        return _ordered_window_docs(tps, candidates, slop)

    def within_window(self, query: str, window: int) -> np.ndarray:
        """Distributed unordered window — candidate-bounded fan-out feeding
        the SAME kernel as SearchEngine.within_window."""
        from search_engine_ray.query.engine import _within_window_docs

        words = [t.word for t in self.tokenizer.tokenize(query)]
        got = self._positional_fanout(words)
        if got is None:
            return np.zeros(0, np.int64)
        tps, candidates = got
        return _within_window_docs(words, tps, candidates, window)

    def snippets(self, query: str, k: int = 10
                 ) -> list[tuple[int, float, int, int, int]]:
        """Distributed best-window snippets: bounded BM25 top-k first, then
        ONE candidate-bounded positions fan-out (positions move only for the
        k result docs) — identical output to ``SearchEngine.snippets``."""
        from search_engine_ray.query.engine import _min_cover_window
        from search_engine_ray.query.postings_codec import TermPostings

        terms = self.query_terms(query)
        hits = self.bm25_topk(query, k)
        if not hits or not terms:
            return []
        cand = np.asarray(sorted(d for d, _s in hits), np.int64)
        per_pos = self._fan_out_args(terms, "term_positions_for_docs", cand)
        tps = []
        for t in terms:
            if t not in per_pos:
                continue
            d, o, v = per_pos[t]
            tps.append(TermPostings(np.asarray(d, np.int64),
                                    np.zeros(len(d), np.int64),
                                    np.asarray(o, np.int64),
                                    np.asarray(v, np.int64)))
        out = []
        for doc_id, score in hits:
            pos_lists = []
            for tp in tps:
                p = tp.positions_for_doc(int(doc_id))
                if p is not None and len(p):
                    pos_lists.append(np.asarray(p, np.int64))
            s, e, n = _min_cover_window(pos_lists)
            out.append((doc_id, score, s, e, n))
        return out

    def proximity(self, term1: str, term2: str, k: int) -> list[tuple[int, int, int]]:
        """Distributed proximity (one-directional window), identical
        semantics to SearchEngine.proximity; candidate-bounded like
        :meth:`phrase` (positions fetched only for the doc intersection)."""
        from search_engine_ray.query.postings_codec import TermPostings

        t1 = self.tokenizer.normalize(term1)
        t2 = self.tokenizer.normalize(term2)
        uniq = list(dict.fromkeys([t1, t2]))
        per_ids = self._fan_out(uniq, "term_doc_ids")
        if t1 not in per_ids or t2 not in per_ids:
            return []
        common = np.asarray(per_ids[t1], np.int64)
        for t in uniq[1:]:
            common = np.intersect1d(common, np.asarray(per_ids[t], np.int64),
                                    assume_unique=True)
        if len(common) == 0:
            return []
        per_pos = self._fan_out_args(uniq, "term_positions_for_docs", common)

        def mk(t):
            d, o, v = per_pos[t]
            return TermPostings(np.asarray(d, np.int64), np.zeros(len(d), np.int64),
                                np.asarray(o, np.int64), np.asarray(v, np.int64))

        tp1, tp2 = mk(t1), mk(t2)
        from search_engine_ray.query.postings_codec import proximity_window_pairs

        out = []
        for doc in common:
            pp1 = tp1.positions_for_doc(int(doc))
            pp2 = tp2.positions_for_doc(int(doc))
            w1, w2 = proximity_window_pairs(pp1, pp2, k)
            out.extend((int(doc), int(p1), int(p2)) for p1, p2 in zip(w1, w2))
        return out

    def shutdown(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []
