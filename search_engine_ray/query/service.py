"""Distributed query serving: per-shard actors + term fan-out.

``SearchEngine`` (engine.py) is the single-process serving path; this module
is its cluster shape. N ``ShardServingActor``s each own a disjoint subset of
the postings hash shards — the SAME ``poly_hash(term) % index_shards`` key
the build partitioned by — and load ONLY their shards' dictionary slice and
postings. ``DistributedSearchEngine`` is a ``SearchEngine`` whose postings
seams (``term_doc_ids`` … ``term_positions_for_docs``) send each term to the
actor owning it, one message per involved actor, so every query mode is the
local engine's own code and returns its results.

Ranked retrieval is BOUNDED (:meth:`DistributedSearchEngine._topk`): actors
serve impact-ordered pages + tail bounds and exact per-candidate weights, so
per-query bytes are O(pages × terms + candidates) — a hot term never ships
its whole posting list. Positional modes ship only their candidate docs'
positions.

Memory: the coordinator holds what a local engine holds apart from
postings: the whole dictionary (front-coded by default), the doc-length
array (num_docs × 16 B), the BK-tree and any registered attributes, so
df, fuzzy, wildcard, prefix, suggest and doc-length lookups need no round
trip. Each actor holds vocab/n_actors dictionary entries, the doc-length
array, its decoded-postings cache and its impact-order cache. At 10^12
docs the doc-length table would also shard by doc range; below ~10^10 docs
per node it need not.
"""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import ray

from search_engine_ray.config import EngineConfig
from search_engine_ray.functions.hashing import poly_hash_str
from search_engine_ray.pipelines.build import IndexPaths, load_stats
from search_engine_ray.query.docattrs import capped_prefix, codes_for, doc_attr_mask
from search_engine_ray.query.engine import SearchEngine
from search_engine_ray.query.locator import PostingsLocator
from search_engine_ray.query.scoring import WEIGHT_DTYPES


class ShardServingActor(SearchEngine):
    """A ``SearchEngine`` over the dictionary slice of a subset of hash
    shards (and the whole doc-length array), loaded once in ``__init__``
    (actor-pool contract). It answers the coordinator's postings seams with
    the local engine's code, plus the impact-ordered pages of the bounded
    top-k."""

    def __init__(self, index_dir: str, shard_ids: list[int],
                 config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self.paths = IndexPaths(index_dir)
        self.stats = load_stats(index_dir)
        n_shards = (self.stats.get("config") or {}).get("index_shards")
        self.locator = PostingsLocator(self.paths.postings, n_shards)
        dic = pq.read_table(self.paths.dictionary,
                            columns=["term", "term_id", "df", "shard"])
        owned = np.isin(dic["shard"].to_numpy(zero_copy_only=False), list(shard_ids))
        dic = dic.take(np.flatnonzero(owned)).select(
            ["term", "term_id", "df"]).combine_chunks().sort_by("term")
        dl = pq.read_table(self.paths.doc_lengths, columns=["doc_id", "doc_length"]
                           ).combine_chunks().sort_by("doc_id")
        self._init_state(dic, dl["doc_id"].to_numpy(), dl["doc_length"].to_numpy(),
                         self.stats["num_docs"], self.stats["avgdl"],
                         build_bktree=False)
        # (term, kind, filter) → (doc_ids, weights, impact order), FIFO at
        # the postings cache's cap
        self._impact_cache: dict = {}
        # attributes arrive as ObjectRef args → object-store shared, zero-copy
        self._doc_attrs: dict = {}

    def n_terms(self) -> int:
        return self.num_terms

    def set_doc_attr(self, name: str, ids_sorted, codes) -> None:
        """Install one attribute as the coordinator encoded it (sorted ids +
        dense codes; the value→code vocab stays coordinator-side — actors
        only ever see code sets). Re-registering an attribute invalidates
        every cached FILTERED impact view that referenced it — otherwise an
        identical follow-up query would serve results filtered by the old
        values."""
        self._doc_attrs[name] = (np.asarray(ids_sorted, np.int64),
                                 np.asarray(codes, np.int64), None)
        for key in [k for k in self._impact_cache
                    if k[2] is not None and k[2][0] == name]:
            del self._impact_cache[key]

    def _impact(self, term: str, kind: str = "bm25", flt=None):
        """(doc_ids, weights, impact order) of one owned term, or None —
        its :meth:`_weights` plus their descending-weight permutation,
        cached per (term, kind, flt). ``flt`` = (attr_name, sorted code
        tuple) restricts the VIEW to allowed docs: weights come from the
        full postings (df/tf/dl are corpus-level, Lucene filter semantics)
        and are then masked, so an allowed doc's weight is bit-identical
        to the unfiltered one."""
        key = (term, kind, flt)
        ent = self._impact_cache.get(key)
        if ent is None:
            if flt is None:
                got = self._weights(term, kind)
                if got is not None:
                    got = got[0].doc_ids, got[1]
            else:
                got = self._impact(term, kind)
                if got is not None:
                    ids, w, _order = got
                    keep = doc_attr_mask(self._doc_attrs[flt[0]],
                                         np.asarray(flt[1], np.int64), ids)
                    got = ids[keep], w[keep]
            if got is None:
                return None
            ent = (*got, np.argsort(-got[1], kind="stable"))
            if len(self._impact_cache) >= self._cache_cap:
                self._impact_cache.pop(next(iter(self._impact_cache)))
            self._impact_cache[key] = ent
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
            ent = self._impact(t, kind, flt)
            if ent is None:
                continue
            ids, w, order = ent
            stop_eff = len(order) if len(order) <= small_df_cap else stop
            page = order[start:stop_eff]
            exhausted = stop_eff >= len(order)
            tail = 0.0 if exhausted else float(w[order[stop_eff]])
            out[t] = (ids[page], w[page], tail, exhausted)
        return out


class DistributedSearchEngine(SearchEngine):
    """Coordinator: a ``SearchEngine`` whose postings seams route each query
    term to the actor owning its shard and whose ``_topk`` is the bounded
    threshold loop. Every mode body is ``SearchEngine``'s, so results equal
    the local engine's (pytest-enforced). The coordinator itself never
    reads postings."""

    def __init__(self, index_dir: str, n_actors: int = 4,
                 config: EngineConfig | None = None):
        super().__init__(index_dir, config)
        self.n_shards = self.locator.n_shards
        remote_cls = ray.remote(ShardServingActor)
        self.actors = [
            remote_cls.remote(index_dir, [k for k in range(self.n_shards)
                                          if k % n_actors == a], self.config)
            for a in range(n_actors)]
        self.n_actors = n_actors
        #: rows shipped coordinator-ward by the most recent ranked query
        self.last_fetch_rows = 0

    def _read_postings(self, term: str, positions: bool):
        raise NotImplementedError(
            "postings live on the shard actors; read them through the term_* seams")

    def _fan_out_args(self, terms: list[str], method: str, *args) -> dict:
        by_actor: dict[int, list[str]] = {}
        for t in terms:
            i = (poly_hash_str(t) % self.n_shards) % self.n_actors
            by_actor.setdefault(i, []).append(t)
        futures = [getattr(self.actors[i], method).remote(ts, *args)
                   for i, ts in by_actor.items()]
        merged: dict = {}
        for part in ray.get(futures):
            merged.update(part)
        return merged

    # the postings seams, answered by the terms' owners
    def term_doc_ids(self, terms) -> dict:
        return self._fan_out_args(terms, "term_doc_ids")

    def term_ctfs(self, terms) -> dict:
        return self._fan_out_args(terms, "term_ctfs")

    def term_weights_for_docs(self, terms, doc_ids, kind: str = "bm25") -> dict:
        return self._fan_out_args(terms, "term_weights_for_docs", doc_ids, kind)

    def term_tfs_for_docs(self, terms, doc_ids) -> dict:
        return self._fan_out_args(terms, "term_tfs_for_docs", doc_ids)

    def term_positions_for_docs(self, terms, doc_ids) -> dict:
        if not len(doc_ids):  # no docs, nothing to ship
            return {}
        out = self._fan_out_args(terms, "term_positions_for_docs", doc_ids)
        self.last_fetch_rows += sum(len(v[2]) for v in out.values())
        return out

    def set_doc_attr(self, name: str, doc_ids, values) -> None:
        """Register the attribute coordinator-side (capped and grouped
        retrieval read its codes here) and on every actor (filtered pages
        drop disallowed docs there): the sorted-id/code arrays are
        ``ray.put`` ONCE and shared through the object store."""
        super().set_doc_attr(name, doc_ids, values)
        ids_sorted, codes, _vocab = self._doc_attrs[name]
        ids_ref, codes_ref = ray.put(ids_sorted), ray.put(codes)
        ray.get([a.set_doc_attr.remote(name, ids_ref, codes_ref)
                 for a in self.actors])

    def _topk(self, terms, k: int, kind: str = "bm25", *, scales=None,
              flt=None, mask=None, capsel=None, boost=None, page=None,
              small_df_cap=None) -> list[tuple[int, float]]:
        """Bounded exact top-k (round-2 VERDICT #5): the contract of
        ``SearchEngine._topk`` with per-query bytes O(pages × terms +
        candidates), never O(posting list).

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

        Float parity with the local engine is bit-exact: candidate totals
        add per-term weights in term order, the order topk_docs
        accumulates, and adding 0.0 for absent terms is a float no-op.
        ``self.last_fetch_rows`` records the rows shipped coordinator-ward
        by the last query (asserted small for hot terms in tests).

        The outside bound gets a relative ``eps(dtype)`` margin: an
        outsider's dtype-accumulated score can round ABOVE the f64 sum of
        its per-term bounds (material for f32 tf-idf), so the stop test
        must over- not under-estimate it. ``scales`` apply
        coordinator-side to pages, tails and weights (a non-negative factor
        keeps impact order and bounds). ``flt`` filters actor-side, so
        disallowed docs never ship; ``mask`` applies at SELECTION (tail
        bounds bound ANY doc, so they stay valid for unseen allowed docs)
        and disallowed docs merely consume page slots. ``capsel`` switches
        the selector to the diversification greedy: an unseen doc scores ≤
        the outside bound, and once that is strictly below the k-th KEPT
        score (minus one rounding grid step in ``digits`` mode) it would
        insert after the k-th kept entry, leaving the kept prefix
        unchanged. ``boost`` addends apply to fresh candidates' totals in
        order, and its bound inflates the outside bound."""
        dtype = WEIGHT_DTYPES[kind]
        scales = scales or dict.fromkeys(terms, 1.0)
        boost_fn, boost_ub = boost or (None, 0.0)
        # no posting list is longer than the corpus, so a larger page only
        # overflows the wire format
        page = page or max(64, 4 * min(k, self.num_docs))
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
                tails[t] = tail_t * scales[t]
                exhausted[t] = ex_t
                new_ids.append(np.asarray(ids_t, np.int64))
            fresh = np.setdiff1d(
                np.unique(np.concatenate(new_ids)) if new_ids else np.zeros(0, np.int64),
                cand, assume_unique=True,
            )
            if len(fresh):
                # exact weights fetched ONCE per candidate, summed in term
                # order (== topk_docs accumulation order; adding 0.0 for
                # absent terms is a float no-op -> bit-exact parity)
                w_by_term = self.term_weights_for_docs(present, fresh, kind)
                fresh_tot = np.zeros(len(fresh), dtype)
                for t in present:
                    fresh_tot += w_by_term[t] * scales[t]
                    self.last_fetch_rows += len(fresh)
                if boost_fn is not None:
                    for ids, add in boost_fn(fresh):
                        fresh_tot[np.searchsorted(fresh, ids)] += add
                ins = np.searchsorted(cand, fresh)
                cand = np.insert(cand, ins, fresh)
                totals = np.insert(totals, ins, fresh_tot)
                if capsel is not None:
                    ccodes = np.insert(ccodes, ins,
                                       codes_for(self._doc_attrs[capsel[0]], fresh))
            if capsel is not None:  # capsel and mask are exclusive
                _attr, cap_n, digits = capsel
                order = capped_prefix(cand, totals, ccodes, cap_n, k, digits)
                # digits mode: an unseen doc within one rounding grid step
                # of the k-th kept raw score could round EQUAL and, with a
                # smaller doc_id, rank above it — widen the margin by one
                # grid step so the stop test stays conservative
                margin = (10.0 ** -digits) if digits is not None else 0.0
                cand_sel, tot_sel = cand, totals
            else:
                if mask is not None:
                    keep = mask(cand)
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

    def bm25_topk_sorted(self, query: str, k: int = 10, *, attr: str,
                         descending: bool = True, chunk: int = 1024
                         ) -> list[tuple[int, float, float]]:
        """``SearchEngine.bm25_topk_sorted`` without a postings union:
        candidates walk in ATTRIBUTE order (attr desc|asc, doc asc;
        registry-missing docs last), in chunks of ``chunk`` ids, each one
        bounded term_weights_for_docs fan-out. Docs with a positive BM25
        total matched ≥1 term (every per-posting weight is > 0), and the
        walk stops at the k-th match — per-query bytes are
        O(chunks-until-k × terms), never a posting list."""
        present = [t for t in self.query_terms(query)
                   if (self.lookup(t) or (0, 0))[1]]
        if not present:
            return []
        aids, avals = self._doc_sort_attrs[attr]
        key = -avals if descending else avals
        # the REAL corpus id set (doc ids need not be 1..N — segment builds
        # offset them) rides the doc-length table
        walk = np.concatenate([aids[np.lexsort((aids, key))],
                               np.setdiff1d(self._dl_ids, aids)])
        out: list[tuple[int, float, float]] = []
        for s in range(0, len(walk), chunk):
            ids = walk[s:s + chunk]
            sids = np.sort(ids)
            w_by_term = self.term_weights_for_docs(present, sids)
            totals = np.zeros(len(sids), np.float64)
            for t in present:
                totals += w_by_term.get(t, np.zeros(len(sids)))
            tot_walk = totals[np.searchsorted(sids, ids)]
            for j in np.flatnonzero(tot_walk > 0.0):
                d = int(ids[j])
                i = np.searchsorted(aids, d)
                has = i < len(aids) and aids[i] == d
                out.append((d, float(avals[i]) if has else float("nan"),
                            float(tot_walk[j])))
                if len(out) >= k:
                    return out
        return out

    def shutdown(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []
