"""BM25F-style field-weighted retrieval over per-field indexes.

Each field (body text, title, anchor text, url tokens, …) is its own
self-contained index over the SAME url→doc_id space (build_index assigns
doc_id = dense rank of url, so indexes built from the same page set align
by construction — asserted here). The combined score is the weighted sum
of per-field BM25 scores, each field using its OWN df / N / avgdl
statistics (the "simple linear combination" BM25F variant of Robertson,
Zaragoza & Taylor, CIKM'04 — fields are saturated independently).

Exactness without scoring every doc: the candidate set is the union over
fields of docs matching ≥1 query term in that field; any doc outside it
scores 0 in every field, so the union top-k IS the global top-k. Per-query
cost is O(Σ_f postings of q's terms in f) — the same order as each
field's own exhaustive scorer, never corpus-wide.
"""

from __future__ import annotations

import numpy as np

from search_engine_ray.query.scoring import topk_docs


def bm25f_topk(engines: dict, weights: dict[str, float], query: str,
               k: int = 10) -> list[tuple[int, float]]:
    """Top-k by Σ_f weights[f] · BM25_f(query, doc); ties → doc_id asc
    (the same contract as SearchEngine.bm25_topk)."""
    doc_parts: list[np.ndarray] = []
    score_parts: list[np.ndarray] = []
    n_docs = {f: e.num_docs for f, e in engines.items()}
    if len(set(n_docs.values())) > 1:
        raise ValueError(f"field indexes cover different doc spaces: {n_docs}")
    for field, eng in engines.items():
        w = float(weights.get(field, 0.0))
        if w == 0.0:
            continue
        for tp, tw in eng._weights(eng.query_terms(query)).values():
            doc_parts.append(tp.doc_ids)
            score_parts.append(w * tw)
    if not doc_parts:
        return []
    # one doc space, so the first field engine's top-k buffers serve all
    ids, scores = topk_docs(np.concatenate(doc_parts),
                            np.concatenate(score_parts), k,
                            scratch=next(iter(engines.values()))._scratch)
    return list(zip(ids.tolist(), scores.tolist()))
