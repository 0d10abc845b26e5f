"""Retrieval-quality evaluation: P@k, Recall@k, MRR@k, NDCG@k.

The missing half of any search engine repo: given a ranking and a set of
relevant ids (binary qrels), compute the standard effectiveness metrics
(TREC definitions; NDCG with binary gains and log2(rank+1) discount,
Järvelin & Kekäläinen 2002). Metrics are per-query; `eval_queries`
macro-averages over a query set the way trec_eval reports `all`.

Everything is float64 and closed-form so a SQL oracle can reproduce the
numbers exactly; ranks are 1-based.
"""

from __future__ import annotations

import math
from collections.abc import Iterable


def eval_ranking(
    ranked_ids: Iterable[int], relevant: Iterable[int], k: int = 10
) -> dict[str, float]:
    """Metrics of one ranking (best first) against binary qrels.

    Conventions: empty qrels → recall/NDCG 0.0 (not NaN); MRR uses the
    first relevant hit within the top-k only (MRR@k, the trec_eval
    ``recip_rank`` cut)."""
    rel = set(int(r) for r in relevant)
    top = [int(d) for d in list(ranked_ids)[:k]]
    hit_ranks = [i for i, d in enumerate(top, start=1) if d in rel]
    n_hits = len(hit_ranks)
    dcg = sum(1.0 / math.log2(r + 1) for r in hit_ranks)
    ideal = min(len(rel), k)
    idcg = sum(1.0 / math.log2(i + 1) for i in range(1, ideal + 1))
    return {
        "p_at_k": n_hits / k,
        "recall_at_k": n_hits / len(rel) if rel else 0.0,
        "mrr_at_k": 1.0 / hit_ranks[0] if hit_ranks else 0.0,
        "ndcg_at_k": dcg / idcg if idcg > 0 else 0.0,
    }


def eval_queries(
    runs: Iterable[tuple[Iterable[int], Iterable[int]]], k: int = 10
) -> dict[str, float]:
    """Macro-average of eval_ranking over (ranking, relevant) pairs."""
    acc: dict[str, float] = {}
    n = 0
    for ranked, rel in runs:
        m = eval_ranking(ranked, rel, k)
        for key, v in m.items():
            acc[key] = acc.get(key, 0.0) + v
        n += 1
    if n == 0:
        return {"p_at_k": 0.0, "recall_at_k": 0.0, "mrr_at_k": 0.0, "ndcg_at_k": 0.0}
    return {key: v / n for key, v in acc.items()}


def query_predictors(eng, query: str) -> dict[str, float]:
    """Pre-retrieval query-performance predictors (QPP): statistics of
    the query's terms against collection frequencies that correlate with
    retrieval difficulty BEFORE any retrieval runs (He & Ounis, ECIR'04
    avgICTF; Zhao, Scholer & Tsegay, ECIR'08 SCQ family) — the signal a
    serving stack uses to route hard queries to heavier rerankers.

    Per indexed query term t (df from the dictionary, ctf = Σ tf from
    its posting list, N docs, T total tokens):
        idf_t  = ln((N − df + 0.5)/(df + 0.5) + 1)      (BM25 idf)
        ictf_t = log2(T / ctf)
        scq_t  = (1 + ln(ctf)) · ln(1 + N/df)
    Returns n_terms (distinct, normalized), n_indexed, and the
    sum/avg/max of each statistic over indexed terms (0.0 when no term
    is indexed). Cost: O(query terms) dictionary + posting fetches."""
    import math as _m

    from search_engine_ray.query.scoring import bm25_idf

    terms = eng.query_terms(query)
    idfs, ictfs, scqs = [], [], []
    big_t = float(eng.stats.get("total_tokens") or 0.0)
    if not big_t:
        # total tokens = Σ doc_length (the stats file carries num_docs +
        # avgdl, whose product is exactly that sum)
        big_t = float(eng.num_docs) * float(eng.avgdl)
    for tp in eng._postings(terms).values():
        if tp.df == 0:
            continue
        ctf = float(tp.tfs.sum())
        idfs.append(bm25_idf(tp.df, eng.num_docs))
        ictfs.append(_m.log2(big_t / ctf))
        scqs.append((1.0 + _m.log(ctf)) * _m.log(1.0 + eng.num_docs / tp.df))
    out = {"n_terms": float(len(terms)), "n_indexed": float(len(idfs))}
    for name, vals in (("idf", idfs), ("ictf", ictfs), ("scq", scqs)):
        out[f"sum_{name}"] = float(sum(vals)) if vals else 0.0
        out[f"avg_{name}"] = float(sum(vals) / len(vals)) if vals else 0.0
        out[f"max_{name}"] = float(max(vals)) if vals else 0.0
    return out
