"""CLI: build an index / query it / run the training-data ops.

The reference's public surface is SearchEngine::{new, build_index,
handle_query} (/root/reference/src/search_engine/mod.rs:24-70) with an empty
main(); this CLI is the runnable equivalent.

    python -m search_engine_ray build  --input DIR_OR_PARQUET --out IDX [--resume]
    python -m search_engine_ray query  --index IDX_OR_SEGMENT_ROOT --mode bm25 "fast table merge"
    python -m search_engine_ray dedup  --sf-dir /root/testdata/sf0.01 [--threshold 0.7]
    python -m search_engine_ray bench-queries --index IDX --n 40
    python -m search_engine_ray segment-add --root ROOT --input DIR_OR_PARQUET
    python -m search_engine_ray segment-delete --root ROOT 5 12 40
    python -m search_engine_ray segment-compact --root ROOT

Owns its Ray session (init+shutdown); the library itself never does.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_session(num_cpus: int | None):
    import ray

    kwargs = dict(address="local", include_dashboard=False,
                  ignore_reinit_error=True, logging_level="ERROR")
    if num_cpus:
        kwargs["num_cpus"] = num_cpus
    ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="search_engine_ray")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build an inverted index from webpages parquet")
    b.add_argument("--input", required=True, help="parquet path/dir with (url, html) columns")
    b.add_argument("--out", required=True)
    b.add_argument("--resume", action="store_true")
    b.add_argument("--chunk-size", type=int, default=128)

    q = sub.add_parser("query", help="query a built index or a segment root")
    q.add_argument("--index", required=True)
    q.add_argument("--mode", default="bm25",
                   choices=["bm25", "bm25_wand", "bm25_blend", "tfidf", "boolean",
                            "boolean_or", "phrase", "phrase_slop", "window",
                            "proximity", "fuzzy", "suggest", "snippets", "mlt"])
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--prox-k", type=int, default=3)
    q.add_argument("--slop", type=int, default=2)
    q.add_argument("--window", type=int, default=8)
    q.add_argument("--edit-dist", type=int, default=1)
    q.add_argument("text", nargs="+")

    d = sub.add_parser("dedup", help="MinHash-LSH near-dup pairs over documents.parquet")
    d.add_argument("--sf-dir", required=True)
    d.add_argument("--threshold", type=float, default=0.7)
    d.add_argument("--shingle-k", type=int, default=3)
    d.add_argument("--clusters", action="store_true",
                   help="emit connected components (distributed label propagation)")

    bq = sub.add_parser("bench-queries", help="run the deterministic query set via the actor pool")
    bq.add_argument("--index", required=True)
    bq.add_argument("--n", type=int, default=40)

    sa = sub.add_parser("segment-add", help="append a segment to an incremental index root")
    sa.add_argument("--root", required=True)
    sa.add_argument("--input", required=True, help="parquet path/dir with (url, html) columns")
    sd = sub.add_parser("segment-delete", help="tombstone doc_ids in an incremental index")
    sd.add_argument("--root", required=True)
    sd.add_argument("doc_ids", nargs="+", type=int)
    sc = sub.add_parser("segment-compact", help="merge all segments (minus tombstones) into one")
    sc.add_argument("--root", required=True)

    args = ap.parse_args(argv)
    ray = _ray_session(args.num_cpus)
    try:
        if args.cmd == "build":
            import os

            from search_engine_ray.config import EngineConfig
            from search_engine_ray.pipelines.build import build_index, load_stats

            src = args.input
            # convenience: a testdata-style dir holding documents.parquet
            # builds through the webpages synthesizer instead of failing
            # on the missing (url, html) columns
            if os.path.isdir(src) and not os.path.exists(
                    os.path.join(src, "_MANIFEST.json")) and os.path.exists(
                    os.path.join(src, "documents.parquet")):
                from search_engine_ray.sources.webpages import webpages_from_documents

                src = webpages_from_documents(src)
            elif (isinstance(src, str) and os.path.isfile(src)
                  and src.endswith(".parquet")):
                # a single parquet FILE: webpages-shaped reads directly;
                # a documents-style (doc_id, text) table converts through
                # the same synthesizer the dir form uses
                import pyarrow.parquet as _pq

                names = set(_pq.read_schema(src).names)
                if "url" not in names and {"doc_id", "text"} <= names:
                    from search_engine_ray.sources.webpages import (
                        webpages_from_documents,
                    )

                    src = webpages_from_documents(os.path.dirname(src),
                                                  file_path=src)
            elif (isinstance(src, str) and os.path.isdir(src)
                  and any(f.endswith(".parquet") for f in os.listdir(src))
                  and any(not f.endswith(".parquet") for f in os.listdir(src))):
                # parquet corpus with metadata sidecars (stats.json, ...):
                # read only the parquet — a sidecar must neither hijack
                # the dir as an article-shard input nor break the read
                import ray.data

                src = ray.data.read_parquet(src, file_extensions=["parquet"])
            elif (isinstance(src, str) and os.path.isdir(src)
                  and not any(f.endswith(".parquet") for f in os.listdir(src))
                  and any(f.endswith((".jsonl", ".json", ".bz2"))
                          for f in os.listdir(src))):
                # article-shard dirs: .bz2 (reference ingest) or plain
                # .jsonl/.json (common public-corpus shape). Parquet wins
                # when present — a metadata sidecar like stats.json must
                # not hijack a parquet corpus dir.
                from search_engine_ray.sources.readers import read_wiki_bz2, read_wiki_jsonl

                if any(f.endswith(".bz2") for f in os.listdir(src)):
                    src = read_wiki_bz2(src)
                else:
                    src = read_wiki_jsonl(src)
            build_index(src, args.out,
                        EngineConfig(chunk_size=args.chunk_size), resume=args.resume)
            print(json.dumps(load_stats(args.out)))
        elif args.cmd == "query":
            import os

            from search_engine_ray.pipelines.segments import SEGMENTS_FILE
            from search_engine_ray.query.engine import SearchEngine
            from search_engine_ray.query.segmented import SegmentedSearchEngine

            # a segment root (segments.json) serves through the same modes
            if os.path.exists(os.path.join(args.index, SEGMENTS_FILE)):
                eng = SegmentedSearchEngine(args.index, build_bktree=True)
            else:
                eng = SearchEngine(args.index)
            text = " ".join(args.text)
            if args.mode == "bm25":
                out = eng.bm25_topk(text, args.k)
            elif args.mode == "bm25_wand":
                out = eng.bm25_topk_wand(text, args.k)
            elif args.mode == "bm25_blend":
                out = eng.bm25_topk_blended(text, args.k)
            elif args.mode == "tfidf":
                out = eng.tfidf_topk(text, args.k)
            elif args.mode == "boolean":
                out = eng.boolean_and(text).tolist()[: args.k]
            elif args.mode == "boolean_or":
                out = eng.boolean_or(text).tolist()[: args.k]
            elif args.mode == "snippets":
                out = eng.snippets(text, args.k)
            elif args.mode == "mlt":
                out = eng.more_like_this(text, args.k)
            elif args.mode == "phrase":
                out = eng.phrase(text).tolist()[: args.k]
            elif args.mode == "phrase_slop":
                out = eng.ordered_window(text, slop=args.slop).tolist()[: args.k]
            elif args.mode == "window":
                out = eng.within_window(text, window=args.window).tolist()[: args.k]
            elif args.mode == "suggest":
                out = [eng.suggest(w, max_distance=args.edit_dist)
                       for w in text.split()]
            elif args.mode == "proximity":
                words = text.split()
                out = eng.proximity(words[0], words[1], args.prox_k)[: args.k]
            else:
                out = eng.fuzzy(text.split()[0], args.edit_dist)
            doc = {"mode": args.mode, "query": text, "results": out}
            if (out and isinstance(out[0], (tuple, list))
                    and args.mode not in ("proximity", "snippets", "suggest")):
                doc["urls"] = eng.doc_urls([d for d, _s in out])
            print(json.dumps(doc))
        elif args.cmd == "dedup":
            import ray.data

            from search_engine_ray.pipelines.training_data import minhash_lsh_dedup

            docs = ray.data.read_parquet(f"{args.sf_dir}/documents.parquet",
                                         columns=["doc_id", "text"])
            pairs_ds = minhash_lsh_dedup(docs, shingle_k=args.shingle_k,
                                         threshold=args.threshold)
            if args.clusters:
                from search_engine_ray.pipelines.training_data import clusters_distributed

                out = clusters_distributed(pairs_ds).to_pandas().sort_values("doc_id")
                print(out.to_json(orient="records"))
            else:
                pairs = pairs_ds.to_pandas()
                print(pairs.sort_values(["a", "b"]).to_json(orient="records"))
        elif args.cmd == "bench-queries":
            import ray.data

            from search_engine_ray.query.batch import batch_query, make_query_set

            qs = ray.data.from_items(make_query_set(args.n))
            out = batch_query(qs, args.index).to_pandas()
            print(json.dumps({"queries": args.n, "result_rows": len(out)}))
        elif args.cmd == "segment-add":
            from search_engine_ray.pipelines.segments import add_segment, read_segments

            seg_dir = add_segment(args.input, args.root)
            print(json.dumps({"segment": seg_dir,
                              "segments": read_segments(args.root)}))
        elif args.cmd == "segment-delete":
            from search_engine_ray.pipelines.segments import delete_docs

            tombs = delete_docs(args.root, args.doc_ids)
            print(json.dumps({"tombstones": [int(t) for t in tombs]}))
        elif args.cmd == "segment-compact":
            from search_engine_ray.pipelines.build import load_stats
            from search_engine_ray.pipelines.segments import compact

            seg_dir = compact(args.root)
            print(json.dumps({"segment": seg_dir, "stats": load_stats(seg_dir)}))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
