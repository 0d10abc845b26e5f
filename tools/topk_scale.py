"""Top-k kernel and BM25 serving timings by corpus size.

    python tools/topk_scale.py [--sizes 6000,100000,1000000]
                               [--index-docs N] [--seed S] [--out FILE.json]

Part 1 (always): synthetic Zipf postings. For each size N, a term of Zipf
rank r (s = 1.1 over a vocabulary of max(4000, N/30) words, 150 tokens per
doc) gets df = N·(1 − (1 − p_r)^150) docs drawn uniformly; queries take
2–8 distinct terms Zipf-weighted from the 500 highest-df terms, like
perfbench's ``query_head``. Each query's per-term (ascending doc ids,
float64 weights) runs are concatenated and ranked top-10 by
``scoring.topk_docs`` without a scratch (the stateless spec) and with one
``TopkScratch`` reused across queries, alternating per query; both results
must be bit-identical.

Part 2 (``--index-docs N``): builds an N-doc index from perfbench's seeded
Zipf corpus under ``ray.init(num_cpus=1)`` and times ``bm25_topk`` (dense
accumulator) over its head queries on a warm postings cache, checking that
every query hits. This is the off-bench serving number at 1M docs; the WAND
and MAXSCORE modes serve ``bm25_topk`` itself, so they are not timed apart.
It also times a cold lean ``read_postings`` (locator read + decode) once per
term over up to 2,000 evenly spaced dictionary terms on a fresh engine, and
reports the bytes of every file under ``dictionary/``, ``docs/`` and
``postings/``.

Prints one JSON object (also written to ``--out``). Times are medians of
per-query wall times in ms; compare runs only on the same host.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from search_engine_ray.query.scoring import TopkScratch, topk_docs  # noqa: E402

perf = time.perf_counter
ZIPF_S = 1.1
TOKENS_PER_DOC = 150
HEAD_POOL = 500
QUERY_TERMS = (2, 8)
K = 10


def synthetic_queries(n_docs: int, n_queries: int, seed: int):
    """[(doc_ids, scores)] per query: per-term ascending runs concatenated."""
    rng = np.random.default_rng(seed)
    vocab = max(4000, n_docs // 30)
    p = np.arange(1, vocab + 1, dtype=np.float64) ** -ZIPF_S
    p /= p.sum()
    df = np.maximum(1, np.rint(n_docs * -np.expm1(TOKENS_PER_DOC * np.log1p(-p[:HEAD_POOL]))))
    pick_p = p[:HEAD_POOL] / p[:HEAD_POOL].sum()
    postings: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def term(r: int):
        if r not in postings:
            ids = np.sort(rng.choice(n_docs, int(df[r]), replace=False)).astype(np.int64) + 1
            postings[r] = (ids, rng.random(len(ids)) * 8.0)
        return postings[r]

    out = []
    for _ in range(n_queries):
        n_terms = int(rng.integers(QUERY_TERMS[0], QUERY_TERMS[1] + 1))
        runs = [term(int(r)) for r in rng.choice(HEAD_POOL, n_terms, replace=False, p=pick_p)]
        out.append((np.concatenate([d for d, _ in runs]), np.concatenate([w for _, w in runs])))
    return out


def time_kernels(n_docs: int, seed: int) -> dict:
    n_queries = max(30, min(400, 2_000_000 // n_docs))
    queries = synthetic_queries(n_docs, n_queries, seed)
    scratch = TopkScratch(n_docs + 1)
    stateless, dense = [], []
    for ids, sc in queries:
        t0 = perf()
        want = topk_docs(ids, sc, K)
        t1 = perf()
        got = topk_docs(ids, sc, K, scratch=scratch)
        t2 = perf()
        assert got[0].tolist() == want[0].tolist() and got[1].tobytes() == want[1].tobytes()
        stateless.append(1e3 * (t1 - t0))
        dense.append(1e3 * (t2 - t1))
    a, b = statistics.median(stateless), statistics.median(dense)
    return {"docs": n_docs, "queries": n_queries,
            "candidates_per_q": round(statistics.mean(len(q[0]) for q in queries)),
            "stateless_ms": round(a, 4), "scratch_ms": round(b, 4),
            "speedup": round(a / b, 2)}


def time_index(n_docs: int, seed: int) -> dict:
    import ray

    from perfbench.corpus import draw_queries, write_corpus
    from search_engine_ray.pipelines.build import build_index
    from search_engine_ray.query.engine import SearchEngine, read_postings

    work = tempfile.mkdtemp(prefix="topk_scale_")
    try:
        t0 = perf()
        write_corpus(os.path.join(work, "corpus"), seed, docs=n_docs,
                     vocab=max(4000, n_docs // 30))
        t1 = perf()
        # Ray workers import the package from this checkout
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        try:
            from ray.data import DataContext

            DataContext.get_current().enable_progress_bars = False
            index_dir = os.path.join(work, "index")
            build_index(os.path.join(work, "corpus"), index_dir)
        finally:
            ray.shutdown()
        t2 = perf()
        eng = SearchEngine(index_dir, build_bktree=False)
        qs = draw_queries(index_dir, "head", seed, n=200)
        for q in qs.warmup:
            eng.bm25_topk(q, K)
        lat = []
        for q in qs.timed:
            t = perf()
            res = eng.bm25_topk(q, K)
            lat.append(1e3 * (perf() - t))
            assert res, q
        cold = SearchEngine(index_dir, build_bktree=False)
        terms = cold.vocabulary()[0]
        read_us = []
        for term in terms[::max(1, len(terms) // 2000)]:
            t = perf()
            read_postings(cold.locator, term, False)
            read_us.append(1e6 * (perf() - t))
        index_bytes = sum(os.path.getsize(os.path.join(dp, f))
                          for d in ("dictionary", "docs", "postings")
                          for dp, _dirs, files in os.walk(os.path.join(index_dir, d))
                          for f in files)
        return {"docs": n_docs, "corpus_s": round(t1 - t0, 1), "build_s": round(t2 - t1, 1),
                "queries": len(qs.timed),
                "bm25_topk_ms": round(statistics.median(lat), 3),
                "cold_terms": len(read_us),
                "cold_read_postings_us": round(statistics.median(read_us), 1),
                "index_bytes": index_bytes}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="6000,100000,1000000")
    ap.add_argument("--index-docs", type=int, default=0)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    res = {"kernels": [time_kernels(int(n), args.seed) for n in args.sizes.split(",")]}
    if args.index_docs:
        res["index"] = time_index(args.index_docs, args.seed)
    line = json.dumps(res)
    print(line)
    if args.out:
        with open(args.out, "w") as f:
            f.write(line + "\n")


if __name__ == "__main__":
    main()
