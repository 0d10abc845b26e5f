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
"""

from __future__ import annotations

import numpy as np


def tfidf_idf(df: int, num_docs: int) -> np.float32:
    """scoring/mod.rs:42-44 in f32."""
    return np.float32(np.log10(np.float32(num_docs) / np.float32(df)))


def tfidf_weights(tfs: np.ndarray, df: int, num_docs: int) -> np.ndarray:
    """scoring/mod.rs:46-48: per-posting w = tf * idf, f32."""
    return tfs.astype(np.float32) * tfidf_idf(df, num_docs)


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


def topk_docs(doc_ids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
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

    Doc ids arriving as a few ascending runs (one per query term) make the
    stable argsort a run merge; the k-th score is found by ``np.partition``
    and only docs scoring at least that are fully sorted."""
    if len(doc_ids) == 0 or k <= 0:
        return doc_ids[:0], scores[:0]
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
