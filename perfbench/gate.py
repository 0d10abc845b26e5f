"""Correctness gate: the built index and the served results against
``query/oracle.py:OracleIndex`` over the same corpus, plus the checks that
keep a workload from silently measuring an empty path."""

from __future__ import annotations

import os

import pyarrow.parquet as pq

#: query_wide must miss the decoded-postings cache in steady state ...
WIDE_MAX_HIT_RATIO = 0.5
#: ... and query_head must be served from it after warm-up
HEAD_MIN_HIT_RATIO = 0.99


def build_oracle(index_dir: str, urls: list[str], texts: list[str]):
    """OracleIndex keyed by the doc_ids the build assigned (docs/ maps
    doc_id → url; the oracle gets each url's extracted plaintext)."""
    from search_engine_ray.query.oracle import OracleIndex

    t = pq.read_table(os.path.join(index_dir, "docs"), columns=["doc_id", "url"])
    by_url = dict(zip(urls, texts))
    return OracleIndex({int(d): by_url[u] for d, u in
                        zip(t["doc_id"].to_pylist(), t["url"].to_pylist())})


def check_build(index_dir: str, oracle, n_docs: int) -> list[str]:
    """stats.json ``num_docs`` equals the corpus rows; the dictionary's
    (term, df) pairs equal the oracle's."""
    from search_engine_ray.pipelines.build import load_stats

    errors = []
    got_docs = load_stats(index_dir)["num_docs"]
    if got_docs != n_docs:
        errors.append(f"stats.json num_docs {got_docs} != corpus rows {n_docs}")
    t = pq.read_table(os.path.join(index_dir, "dictionary"), columns=["term", "df"])
    got = dict(zip(t["term"].to_pylist(), t["df"].to_pylist()))
    want = {term: len(p) for term, p in oracle.postings.items()}
    if got != want:
        bad = sorted(set(got.items()) ^ set(want.items()))
        errors.append(f"dictionary differs from oracle on {len(bad)} (term, df) "
                      f"pairs, e.g. {bad[:3]}")
    return errors


def check_results(oracle, answered: list[tuple[str, list]], k: int = 10) -> list[dict]:
    """Each (query, engine top-k as [doc_id, score] pairs) must hit and be
    rank-identical to the oracle: same doc ids in the same order, same
    scores exactly, ties included."""
    failures = []
    for q, got in answered:
        got = [(int(d), float(s)) for d, s in got]
        want = oracle.bm25_topk(q, k)
        if not got:
            failures.append({"query": q, "error": "zero hits"})
        elif got != want:
            failures.append({"query": q, "error": f"oracle mismatch: got {got[:3]}, "
                                                  f"want {want[:3]}"})
    return failures


def check_workload(kind: str, cache_hit_ratio: float) -> list[str]:
    if kind == "wide" and not cache_hit_ratio <= WIDE_MAX_HIT_RATIO:
        return [f"query_wide postings-cache hit ratio {cache_hit_ratio:.3f} is not "
                f"<= {WIDE_MAX_HIT_RATIO}: the workload does not reach the read path"]
    if kind == "head" and not cache_hit_ratio >= HEAD_MIN_HIT_RATIO:
        return [f"query_head postings-cache hit ratio {cache_hit_ratio:.3f} is not "
                f">= {HEAD_MIN_HIT_RATIO}: the working set does not fit the cache"]
    return []
