"""Outside-in benchmark of the SPIMI build and BM25 serving.

    python3 perfbench/run.py --workload {query_head,query_wide} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. Each run generates a seeded Zipf webpages
corpus, builds the index with ``pipelines.build.build_index`` under
``ray.init(num_cpus=1)`` (one warm-up build, then timed builds), shuts Ray
down and serves ``SearchEngine.bm25_topk`` from a separate process in a
closed loop with one client for S seconds. The workload picks the queries
(README.md). Outputs are checked against ``query/oracle.py:OracleIndex``;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit code 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, ROOT)

perf = time.perf_counter

#: workload → the query kind it serves (corpus.draw_queries)
WORKLOADS = {"query_head": "head", "query_wide": "wide"}
#: timed builds per run, after one warm-up build; build_docs_per_s is their
#: median
TIMED_BUILDS = 3
#: served queries checked against the oracle, drawn by seed from the first
#: MIN_QUERIES of the timed list (a run always answers at least those)
ORACLE_SAMPLE = 12
MIN_QUERIES = 200
SERVE_TIMEOUT_S = 150
#: AF_UNIX socket paths are at most 107 bytes; a Ray session directory adds
#: "/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store" (≤ 64 bytes)
_RAY_SOCKET_SUFFIX = 64


class Phases:
    """Wall time per phase of a run, for the log on stderr."""

    def __init__(self):
        self.t = perf()
        self.walls: dict[str, float] = {}

    def done(self, name: str) -> None:
        now = perf()
        self.walls[name] = now - self.t
        self.t = now

    def __str__(self) -> str:
        return " ".join(f"{k}={v:.1f}s" for k, v in self.walls.items())


def ray_start(temp_dir: str | None) -> float:
    import ray

    kw = {"_temp_dir": temp_dir} if temp_dir else {}
    t0 = perf()
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=300 << 20, **kw)
    took = perf() - t0
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return took


def timed_build(corpus_dir: str, index_dir: str) -> float:
    from search_engine_ray.pipelines.build import build_index

    shutil.rmtree(index_dir, ignore_errors=True)
    t0 = perf()
    build_index(corpus_dir, index_dir)
    return perf() - t0


def parquet_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f))
                     for f in files if f.endswith(".parquet"))
    return total


def build_layers(index_dir: str, corpus, build_wall: float) -> dict:
    """Per-stage walls, rows and bytes from the build's ``_MANIFEST.json``
    files, plus extract and tokenize replayed in this process on the
    workload's own batches (the build runs them inside Ray tasks)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.functions.tokenizer import Tokenizer
    from search_engine_ray.state.manifests import read_manifest
    from search_engine_ray.stages.extract import extract_batch
    from search_engine_ray.stages.tokenize import tokenize_batch

    man = {s: read_manifest(os.path.join(index_dir, s)) or {}
           for s in ("docs", "runs", "dict_partials", "dictionary", "postings")}
    stage_bytes = {s: sum(p.get("bytes") or 0 for p in m.get("partitions", []))
                   for s, m in man.items()}
    docs_runs = man["docs"].get("elapsed_s", 0.0)
    dictionary = man["dictionary"].get("elapsed_s", 0.0)
    postings = man["postings"].get("elapsed_s", 0.0)

    table = pq.read_table(os.path.join(corpus.path, "corpus.parquet"))
    tok = Tokenizer()
    ext_s = tok_s = 0.0
    html_bytes = rows = 0
    step = 2048
    for s in range(0, table.num_rows, step):
        batch = table.slice(s, step)
        html_bytes += batch["html"].nbytes
        t0 = perf()
        text = extract_batch(batch).select(["text"])
        t1 = perf()
        text = text.append_column("doc_id", pa.array(range(s + 1, s + 1 + batch.num_rows),
                                                     pa.int64()))
        t2 = perf()
        rows += tokenize_batch(text, tok).num_rows
        t3 = perf()
        ext_s += t1 - t0
        tok_s += t3 - t2
    return {
        "build.extract.self_s": ext_s,
        "build.extract.html_mb": html_bytes / 2**20,
        "build.tokenize.self_s": tok_s,
        "build.tokenize.postings_rows": rows,
        "build.stage.docs_runs_s": docs_runs,
        "build.stage.dictionary_s": dictionary,
        "build.stage.postings_s": postings,
        "build.stage.rest_s": build_wall - docs_runs - dictionary - postings,
        "build.dictionary_rows": man["dictionary"].get("num_rows", 0),
        "build.postings_chunk_rows": man["postings"].get("num_rows", 0),
        "build.runs_bytes": stage_bytes["runs"],
        "build.postings_bytes": stage_bytes["postings"],
        "build.bytes_written_per_text_byte": sum(stage_bytes.values()) / corpus.text_bytes,
    }


def serve(work: str, spec: dict) -> dict:
    spec_path = os.path.join(work, "serve_spec.json")
    out_path = os.path.join(work, "serve_out.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, env.get("PYTHONPATH")) if p)
    # one compute thread whatever the host reports: pyarrow sizes its CPU
    # pool from this, and more threads than the cores the benchmark gets
    # would time the scheduler
    env["OMP_NUM_THREADS"] = "1"
    subprocess.run([sys.executable, os.path.join(BENCH_DIR, "serve.py"),
                    spec_path, out_path], check=True, env=env,
                   timeout=SERVE_TIMEOUT_S, stdout=subprocess.DEVNULL)
    with open(out_path) as f:
        return json.load(f)


def run(workload: str, seed: int, seconds: float, trace: bool, work: str,
        ray_tmp: str | None, docs: int, vocab: int) -> dict:
    import numpy as np
    import ray

    import corpus as corpus_mod
    import gate

    kind = WORKLOADS[workload]
    phases = Phases()
    corpus = corpus_mod.write_corpus(os.path.join(work, "corpus"), seed, docs=docs,
                                     vocab=vocab)
    index = os.path.join(work, "index")
    phases.done("corpus")

    # ---- build (Ray session) ------------------------------------------------
    try:
        ray_start_s = ray_start(ray_tmp)
        # the first build starts the workers; time the ones after it
        cold_build_s = timed_build(corpus.path, index)
        builds = [timed_build(corpus.path, index) for _ in range(TIMED_BUILDS)]
    finally:
        ray.shutdown()
    attempted = 1 + len(builds)
    os.sync()  # no write-back of the build's files during the timed serving
    phases.done("ray+build")

    oracle = gate.build_oracle(index, corpus.urls, corpus.texts)
    errors = gate.check_build(index, oracle, len(corpus.urls))
    failed = len(errors)
    phases.done("oracle")

    # ---- serve (separate process, no Ray) -----------------------------------
    queries = corpus_mod.draw_queries(index, kind, seed)
    served = serve(work, {
        "index_dir": index, "timed": queries.timed, "warmup": queries.warmup,
        "seconds": seconds, "min_queries": MIN_QUERIES, "trace": trace,
        "spans_path": os.path.join(os.path.dirname(work), f"spans-{workload}.jsonl")
        if trace else None,
    })
    phases.done("serve")
    attempted += served["attempted"]
    failures = list(served["failures"])
    rng = np.random.default_rng([seed, 3])
    sample = rng.choice(min(MIN_QUERIES, len(queries.timed)), ORACLE_SAMPLE, replace=False)
    answered = [(queries.timed[i], served["first_results"][str(i)])
                for i in sorted(sample) if str(i) in served["first_results"]]
    failures += gate.check_results(oracle, answered)
    phases.done("check")
    failed += len(failures)
    errors += gate.check_workload(kind, served["cache_hit_ratio"])
    for f in failures[:5]:
        errors.append(f"query {f['query']!r}: {f['error']}")
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    print(f"perfbench: phases {phases}", file=sys.stderr)

    if trace:
        metrics = dict(served["setup_layers"])
        metrics.update(served["query_layers"])
        metrics["trace.overhead_ms_per_q"] = (served["traced"]["p50_ms"]
                                              - served["serve"]["p50_ms"])
        metrics["setup.ray_start_s"] = ray_start_s
        metrics["build.cold_s"] = cold_build_s
        metrics.update(build_layers(index, corpus, builds[-1]))
        units = {}
    else:
        s = served["serve"]
        index_bytes = sum(parquet_bytes(os.path.join(index, d))
                          for d in ("dictionary", "docs", "postings"))
        metrics = {
            "setup_s": served["setup_s"],
            "build_docs_per_s": len(corpus.urls) / statistics.median(builds),
            "index_bytes_per_text_byte": index_bytes / corpus.text_bytes,
            "query_p50_ms": s["p50_ms"],
            "query_p99_ms": s["p99_ms"],
            "qps": s["qps"],
            "serve_rss_mb": served["rss_growth_mb"],
        }
        units = {"setup_s": "s", "build_docs_per_s": "1/s",
                 "index_bytes_per_text_byte": "ratio", "query_p50_ms": "ms",
                 "query_p99_ms": "ms", "qps": "1/s", "serve_rss_mb": "MB"}
    return {
        "correct": not errors and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units.get(k, layer_unit(k))}
                    for k, v in metrics.items()},
    }


def layer_unit(name: str) -> str:
    if name.endswith("_ms_per_q"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes") or name.endswith("bytes_per_read"):
        return "B"
    if name.endswith(("_ratio", "_share", "_per_text_byte")):
        return "ratio"
    return "count"


def ray_temp_dir() -> str | None:
    """Ray's session files go under the checkout when the socket paths fit,
    else Ray's default temp dir."""
    d = os.path.join(os.getcwd(), ".pb")
    return d if len(d.encode()) + _RAY_SOCKET_SUFFIX <= 107 else None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=int, default=None, help="corpus size override")
    ap.add_argument("--vocab", type=int, default=None, help="vocabulary override")
    args = ap.parse_args(argv)

    import corpus as corpus_mod
    import search_engine_ray  # noqa: F401  (fail before any work without the program)

    # Ray workers and the serving process import the program from ROOT
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray_tmp = ray_temp_dir()
    work = os.path.join(os.getcwd(), ".pb", f"work-{os.getpid()}")
    os.makedirs(work)
    before = set(os.listdir(ray_tmp)) if ray_tmp else set()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work,
                     ray_tmp, args.docs or corpus_mod.DOCS, args.vocab or corpus_mod.VOCAB)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if ray_tmp:
            for name in set(os.listdir(ray_tmp)) - before:
                p = os.path.join(ray_tmp, name)
                if os.path.islink(p):
                    os.unlink(p)
                elif os.path.isdir(p):
                    shutil.rmtree(p, ignore_errors=True)
        if not os.listdir(os.path.dirname(work)):
            os.rmdir(os.path.dirname(work))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
