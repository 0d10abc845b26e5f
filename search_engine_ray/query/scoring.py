"""Ranking functions.

tf·idf reproduces the reference's live formulas bit-for-bit in float32
(/root/reference/src/scoring/mod.rs:34-48):
    df  = len(postings)                 (f32)
    tf  = len(positions)                (f32)
    idf = log10(N / df)                 (f32 math)
    w   = tf * idf                      (f32)
scores accumulate per doc over the query's distinct terms; ties break by
ascending doc_id (the reference's heap treats equal scores as equal,
scoring/mod.rs:12-31 — pop order unspecified; our contract pins it,
SURVEY.md §7.4).

BM25 is the serving default the reference never finished (BASELINE.md):
parameters frozen at k1=1.2, b=0.75; idf = ln((N - df + 0.5)/(df + 0.5) + 1)
(the non-negative Robertson/Lucene variant), computed in float64 so the
DuckDB oracle can reproduce it exactly.

Top-k (:func:`topk_docs`) has one contract and two kernels. The stateless
one sorts the query's (doc, score) pairs by doc id and is the spec. The
term-at-a-time one (the reference's per-doc accumulators) adds every pair
into a dense per-doc buffer an engine owns (:class:`TopkScratch`) with one
``np.add.at``, once a query brings enough pairs to amortize the buffer; on
dense input it then finds the touched docs with one scan of a per-doc mask.
It needs doc ids ≥ 0 and returns bit-identical results.
"""

from __future__ import annotations

import numpy as np


def tfidf_weights(tfs: np.ndarray, df: int, num_docs: int,
                  dtype=np.float32) -> np.ndarray:
    """scoring/mod.rs:42-48: per-posting w = tf * log10(N / df), every
    step in ``dtype`` — float32 is the reference bit for bit, float64 the
    oracle-SQL mode (DuckDB computes in doubles)."""
    dt = np.dtype(dtype).type
    return tfs.astype(dt) * dt(np.log10(dt(num_docs) / dt(df)))


#: the per-posting weight kinds (``SearchEngine._weights``; the names also
#: travel to the shard actors) and the dtype their scores accumulate in
WEIGHT_DTYPES = {"bm25": np.float64, "tfidf32": np.float32,
                 "tfidf64": np.float64}


def bm25_idf(df: int, num_docs: int) -> float:
    return float(np.log((num_docs - df + 0.5) / (df + 0.5) + 1.0))


def bm25_weights(
    tfs: np.ndarray,
    doc_lengths: np.ndarray,
    df: int,
    num_docs: int,
    avgdl: float,
    k1: float = 1.2,
    b: float = 0.75,
) -> np.ndarray:
    tf = tfs.astype(np.float64)
    dl = doc_lengths.astype(np.float64)
    denom = tf + k1 * (1.0 - b + b * dl / avgdl)
    return bm25_idf(df, num_docs) * tf * (k1 + 1.0) / denom


#: fewest (doc, score) pairs for which topk_docs takes a scratch's dense
#: path. Below it the one-sort kernel is faster: on 2–8 ascending runs the
#: crossover is ~1k pairs on a 6k-doc scratch (mask scan), ~3k at 100k docs
#: and above 5k at 1M (per-run collection, where ``np.add.at`` misses cache)
_DENSE_MIN_PAIRS = 2048
#: TopkScratch.accumulate finds its touched docs by one scan of the whole
#: ``seen`` mask once pairs × this ≥ the buffer's length, and per run
#: below. The mask scan wins on every input at 6k docs; its crossover is
#: at pairs ≈ 0.4 × docs at 100k and ≈ 0.2 × docs at 1M
_DENSE_MASK_RATIO = 4


class TopkScratch:
    """Reusable dense buffers for :func:`topk_docs`' scratch path and for
    :meth:`accumulate`: one score accumulator per dtype and a ``seen`` mask,
    both indexed by doc id. Between calls every accumulator is all zero and
    ``seen`` all False, so a call touches only the entries of its own docs.

    Nothing is allocated until the first call; the buffers then take
    ``size`` entries, or more when a call brings a larger doc id (they grow
    to fit). One query at a time: a scratch is not shared across threads."""

    def __init__(self, size: int = 0):
        self._size = size
        self.seen = np.zeros(0, bool)
        self._acc: dict[np.dtype, np.ndarray] = {}

    def accumulate(self, doc_ids: np.ndarray, scores: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """(each distinct doc id once; its summed score) over unaggregated
        (doc, score) pairs. Each doc is summed 0 + w₁ + w₂ … in
        ``scores.dtype`` and in input order.

        Doc ids must be ≥ 0, in any order, duplicates allowed. One
        ``np.add.at`` adds every pair into the dense accumulator (it applies
        the pairs one at a time in input order, so duplicates are not lost).
        The touched docs come out in one of two orders:

        * dense input (pairs ≥ 1/``_DENSE_MASK_RATIO`` of the buffer's
          length): ascending doc id, from ``seen[doc_ids] = True`` and one
          scan of the mask; both buffers are then reset with a whole-buffer
          fill;
        * sparse input: first-seen order, collected per strictly ascending
          run (a few numpy calls per run; per-term ascending lists, as every
          engine passes, make few runs) and reset entry by entry, so the
          cost stays O(pairs) on a large buffer."""
        n = len(doc_ids)
        if n == 0:
            return doc_ids[:0], scores[:0]
        if doc_ids.min() < 0:  # np.add.at would wrap a negative id
            raise ValueError("TopkScratch needs doc ids >= 0")
        need = int(doc_ids.max()) + 1
        if need > len(self.seen):
            self.seen = np.zeros(max(need, self._size), bool)
            self._acc.clear()
        seen = self.seen
        acc = self._acc.get(scores.dtype)
        if acc is None:
            acc = self._acc[scores.dtype] = np.zeros(len(seen), scores.dtype)
        np.add.at(acc, doc_ids, scores)
        if n * _DENSE_MASK_RATIO >= len(seen):
            seen[doc_ids] = True
            uniq = np.flatnonzero(seen).astype(doc_ids.dtype, copy=False)
            sums = acc[uniq]
            acc.fill(0)
            seen.fill(False)
            return uniq, sums
        cuts = np.flatnonzero(doc_ids[1:] <= doc_ids[:-1]) + 1
        bounds = [0, *cuts.tolist(), n]
        fresh = []
        for a, b in zip(bounds, bounds[1:]):
            ids = doc_ids[a:b]
            new = ids[~seen[ids]]
            seen[new] = True
            fresh.append(new)
        uniq = fresh[0] if len(fresh) == 1 else np.concatenate(fresh)
        sums = acc[uniq]
        acc[uniq] = 0
        seen[uniq] = False
        return uniq, sums


def topk_docs(doc_ids: np.ndarray, scores: np.ndarray, k: int,
              scratch: TopkScratch | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Top-k by (score desc, doc_id asc) over unaggregated (doc, score)
    pairs (accumulation pattern of search_engine/mod.rs:57-69).

    Contract:
      * each doc's score is summed in ``scores.dtype`` and in INPUT order —
        per-term concatenation order, the order the oracle and every
        engine's coordinator add in (bincount would sum in float64 and
        reduceat pairwise, both off in the last ulp);
      * every doc tied with the k-th score survives the cut, so the final
        (score desc, doc_id asc) order breaks ties exactly like a full sort;
      * returns (doc_ids in ``doc_ids.dtype``, scores in ``scores.dtype``);
        empty input or k <= 0 → two empty arrays.

    Without ``scratch`` (the spec): a stable argsort groups each doc's
    entries in input order (doc ids arriving as a few ascending runs make
    it a run merge) and ``np.add.at`` sums them. With an engine-owned
    :class:`TopkScratch` (doc ids ≥ 0) and at least ``_DENSE_MIN_PAIRS``
    pairs: the term-at-a-time path — one ``np.add.at`` adds every pair
    straight into a dense per-doc array (:meth:`TopkScratch.accumulate`),
    with no sort. Both sum every doc 0 + w₁ + w₂ … in input order, so they
    return bit-identical results, ties and NaN included. Either way the
    k-th score is found by ``np.partition`` and only docs scoring at least
    that are fully sorted."""
    if len(doc_ids) == 0 or k <= 0:
        return doc_ids[:0], scores[:0]
    if scratch is not None and len(doc_ids) >= _DENSE_MIN_PAIRS:
        uniq, agg = scratch.accumulate(doc_ids, scores)
    else:
        order = np.argsort(doc_ids, kind="stable")
        sorted_ids = doc_ids[order]
        first = np.empty(len(sorted_ids), bool)
        first[0] = True
        np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=first[1:])
        uniq = sorted_ids[first]
        agg = np.zeros(len(uniq), scores.dtype)
        # stable order keeps each doc's entries in input order for add.at
        np.add.at(agg, np.cumsum(first) - 1, scores[order])
    neg = -agg  # ascending key; NaN sorts last here as in the lexsort
    if k < len(agg):
        kth = np.partition(neg, k - 1)[k - 1]
        if not np.isnan(kth):  # a NaN k-th key means fewer than k numbers
            keep = np.flatnonzero(neg <= kth)
            uniq, agg, neg = uniq[keep], agg[keep], neg[keep]
    top = np.lexsort((uniq, neg))[:k]
    return uniq[top], agg[top]
