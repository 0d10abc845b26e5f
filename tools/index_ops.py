"""Timings of the index-wide operations that read every shard file.

    python tools/index_ops.py --docs N [--seed S] [--repeats R] [--out FILE.json]

Builds an N-doc index from perfbench's seeded Zipf corpus (vocabulary
max(4000, N/30), as ``tools/topk_scale.py --index-docs`` does) under
``ray.init(num_cpus=1)``, then times, each the minimum of ``--repeats``
runs:

- ``index_stats_s``: the ``index_stats`` contract query
  (``driver_queries.q_index_stats``) over the built index, registered in
  the driver-query engine cache under its own directory;
- ``cosine_norms_s``: ``norms.cosine_norms`` collected to pandas;
- ``compact_s``: ``segments.compact`` of a two-segment root (the corpus'
  first and second halves, each built with ``add_segment``), each repeat on
  a fresh copy of the root.

It also makes one lean pass (``shard_posting_rows(path, positions=False)``,
what ``cosine_norms``' read tasks run) over every shard file in this
process and reports ``lean_pass_s``, the payload bytes its preads return
(``lean_read_mb``), the lean parts it decodes (``lean_mb``) and every
record's bytes (``payload_mb``).

Each result is checked against the index: one stats row per dictionary
term with the postings summing to the dictionary's df total, one norm per
doc, a lean pass yielding every posting, and a compacted segment holding
every doc. Prints one JSON object (also written to ``--out``); compare
runs only on the same host.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

perf = time.perf_counter


def _timed(fn, repeats: int):
    """(min seconds, every run's seconds, the last result)."""
    runs, out = [], None
    for _ in range(repeats):
        t = perf()
        out = fn()
        runs.append(round(perf() - t, 3))
    return min(runs), runs, out


def lean_pass(postings_dir: str) -> dict:
    """One in-process lean read of every shard file, its preads counted."""
    from unittest import mock

    from search_engine_ray.stages import postings_file as pf

    paths = pf.shard_files(postings_dir)
    pread = pf.ShardFile.pread
    read = [0]

    def counted(sf, off, n, term):
        read[0] += n
        return pread(sf, off, n, term)

    t = perf()
    with mock.patch.object(pf.ShardFile, "pread", counted):
        postings = sum(b.num_rows for p in paths for b in pf.shard_posting_rows(p, False))
    took = perf() - t
    lean = payload = 0
    for p in paths:
        sf = pf.ShardFile(p)
        lean, payload = lean + int(sf.lean.sum()), payload + int(sf.nbytes.sum())
        sf.close()
    return {"lean_pass_s": round(took, 3), "postings": postings,
            "lean_read_mb": round(read[0] / 1e6, 2), "lean_mb": round(lean / 1e6, 2),
            "payload_mb": round(payload / 1e6, 2)}


def run(n_docs: int, seed: int, repeats: int, work: str) -> dict:
    import pyarrow.parquet as pq
    import ray

    from perfbench.corpus import write_corpus
    from search_engine_ray.config import EngineConfig
    from search_engine_ray.pipelines import driver_queries
    from search_engine_ray.pipelines.build import IndexPaths, build_index, load_stats
    from search_engine_ray.pipelines.norms import cosine_norms
    from search_engine_ray.pipelines.segments import add_segment, compact
    from search_engine_ray.query.engine import SearchEngine

    corpus = os.path.join(work, "corpus")
    write_corpus(corpus, seed, docs=n_docs, vocab=max(4000, n_docs // 30))
    pages = pq.read_table(corpus)
    halves = []
    for i, (lo, hi) in enumerate(((0, n_docs // 2), (n_docs // 2, n_docs))):
        d = os.path.join(work, f"half{i}")
        os.makedirs(d)
        pq.write_table(pages.slice(lo, hi - lo), os.path.join(d, "corpus.parquet"))
        halves.append(d)
    del pages

    # Ray workers import the package from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
    try:
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        index_dir = os.path.join(work, "index")
        t0 = perf()
        build_index(corpus, index_dir)
        build_s = perf() - t0
        dic = pq.read_table(IndexPaths(index_dir).dictionary, columns=["df"])
        n_terms, n_postings = dic.num_rows, int(dic["df"].to_numpy().sum())

        lean = lean_pass(IndexPaths(index_dir).postings)
        assert lean.pop("postings") == n_postings

        config = EngineConfig()
        driver_queries._ENGINES[(index_dir, config)] = SearchEngine(index_dir, config)
        stats_s, stats_runs, stats = _timed(
            lambda: driver_queries.q_index_stats(index_dir), repeats)
        assert len(stats) == n_terms and int(stats["n_postings"].sum()) == n_postings

        norms_s, norms_runs, norms = _timed(
            lambda: cosine_norms(index_dir).to_pandas(), repeats)
        assert len(norms) == n_docs

        seg_root = os.path.join(work, "segments")
        for d in halves:
            add_segment(d, seg_root, config)
        runs = []
        for i in range(repeats):
            root = os.path.join(work, f"compact{i}")
            shutil.copytree(seg_root, root)
            t = perf()
            out = compact(root, config)
            runs.append(round(perf() - t, 3))
            assert load_stats(out)["num_docs"] == n_docs
            shutil.rmtree(root)
    finally:
        ray.shutdown()
    return {"docs": n_docs, "terms": n_terms, "postings": n_postings,
            "build_s": round(build_s, 1), "repeats": repeats, **lean,
            "index_stats_s": stats_s, "index_stats_runs": stats_runs,
            "cosine_norms_s": norms_s, "cosine_norms_runs": norms_runs,
            "compact_s": min(runs), "compact_runs": runs}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--docs", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    work = tempfile.mkdtemp(prefix="index_ops_")
    try:
        res = run(args.docs, args.seed, args.repeats, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = json.dumps(res)
    print(line)
    if args.out:
        with open(args.out, "w") as f:
            f.write(line + "\n")


if __name__ == "__main__":
    main()
