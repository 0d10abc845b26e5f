"""Benchmark harness (driver contract: prints ONE JSON line).

Headline: end-to-end inverted-index build (extract → doc ids → tokenize →
merge shuffle → chunked VB postings + dictionary) in docs/sec, over

  * the $GRAFT_SF_DIR documents table (real testdata), and
  * a deterministic Zipfian webtext corpus (FIXTURES.md §5: hot-term skew is
    real), cached to parquet under /tmp so every run and both scaling levels
    read identical input with a warm page cache.

Also times: BM25 query batch (queries/sec), MinHash-LSH dedup, brute-force
ANN.

  python bench.py              # one JSON line, ray.init(num_cpus=$RAY_GRAFT_CPUS or 32)
  python bench.py --scaling    # fresh hardware-pinned subprocess at 2 and at 8
                               # CPUs on the same input → throughputs + scaling
                               # efficiency (the sandbox substitute for N vs 4N
                               # nodes; see run_scaling for why 2→8 is the
                               # cluster-analog pair and 8→32 a socket artifact)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

# worker malloc tuning must be in the env BEFORE ray.init spawns the raylet
# (see search_engine_ray.__init__._tune_worker_malloc — bench imports the
# package only after ray.init, so set it here too)
os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(512 << 20))
os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", str(512 << 20))
# numpy's THP madvise + defrag=madvise = direct compaction per hugepage
# fault; see search_engine_ray.__init__._tune_worker_malloc
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
ZIPF_DOCS = int(os.environ.get("BENCH_ZIPF_DOCS", "40000"))
ZIPF_VOCAB = 30_000
CORPUS_DIR = f"/tmp/se_ray_bench/corpus_{ZIPF_DOCS}"


def bench_queries() -> list[str]:
    """8 queries of 3 distinct corpus words, each word drawn by its Zipf
    rank in the bench corpus (``make_vocab`` order, the corpus's default
    s = 1.1), so serving rows time postings work, not dictionary misses."""
    import numpy as np

    from search_engine_ray.sources.webpages import make_vocab

    vocab = make_vocab(ZIPF_VOCAB)
    p = np.arange(1, ZIPF_VOCAB + 1, dtype=np.float64) ** -1.1
    rng = np.random.default_rng(7)
    return [" ".join(vocab[i] for i in rng.choice(ZIPF_VOCAB, 3, replace=False,
                                                   p=p / p.sum()))
            for _ in range(8)]


def assert_hits(path: str, queries: list[str], results: list) -> None:
    """A served query without hits measured a miss, not the query path."""
    empty = [q for q, r in zip(queries, results) if not r]
    if empty:
        raise AssertionError(f"{path}: no hits for {empty}")


def ensure_zipf_corpus() -> str:
    """Generate once (untimed), reuse across runs/levels."""
    import ray.data

    marker = os.path.join(CORPUS_DIR, "_DONE")
    if os.path.exists(marker):
        return CORPUS_DIR
    shutil.rmtree(CORPUS_DIR, ignore_errors=True)
    from search_engine_ray.sources.webpages import generate_webpages

    ds = generate_webpages(ZIPF_DOCS, vocab_size=ZIPF_VOCAB, tokens_per_doc=150, seed=42)
    # ~2k-doc files: enough read fragments for 32 CPUs, no tiny-file storm
    ds.write_parquet(CORPUS_DIR, min_rows_per_file=2_000)
    with open(marker, "w") as f:
        f.write("ok")
    return CORPUS_DIR


def timed_build(input_path, out_dir: str, config) -> float:
    from search_engine_ray.pipelines.build import build_index

    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    build_index(input_path, out_dir, config)
    return time.perf_counter() - t0


def run_bench() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import numpy as np
    import ray.data

    from search_engine_ray.config import EngineConfig
    from search_engine_ray.pipelines.training_data import ann_brute_force, minhash_lsh_dedup
    from search_engine_ray.query.engine import SearchEngine
    from search_engine_ray.sources.webpages import webpages_from_documents

    results: dict[str, float] = {}
    cfg = EngineConfig()  # tokenize pool autoscales to the session CPU budget

    # --- headline: zipf corpus build --------------------------------------
    corpus = ensure_zipf_corpus()
    # warm page cache (untimed read)
    ray.data.read_parquet(corpus, columns=["url"]).count()
    # BENCH_INDEX_DIR: where the timed build writes. Pointing it at a tmpfs
    # (/dev/shm/...) isolates compute scaling from the box's single shared
    # disk — the per-node-local-storage analog of a real cluster, where
    # disks scale with node count.
    zipf_out = os.environ.get("BENCH_INDEX_DIR", "/tmp/se_ray_bench/index_zipf")
    build_only = os.environ.get("BENCH_BUILD_ONLY") == "1"
    # headline builds take min-of-N (default 2, 1 in scaling mode where the
    # harness interleaves its own samples): the box's noisy neighbours swing
    # identical builds up to 3x, and the first build additionally absorbs
    # worker-spawn + page-cache warmup (BASELINE.md measurement discipline)
    reps = int(os.environ.get("BENCH_BUILD_REPEATS", "1" if build_only else "2"))
    zipf_samples = [timed_build(corpus, zipf_out, cfg) for _ in range(reps)]
    results["build_zipf"] = min(zipf_samples)
    if build_only:
        num_docs = json.load(open(os.path.join(zipf_out, "stats.json")))["num_docs"]
        out = {
            "metric": "index build seconds (zipf corpus, end-to-end)",
            "value": round(results["build_zipf"], 3),
            "unit": "sec",
            "queries": {k: round(v, 3) for k, v in results.items()},
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "zipf_docs": num_docs,
            "docs_per_sec": round(num_docs / results["build_zipf"], 1),
        }
        ray.shutdown()
        return out

    # --- sf documents build ------------------------------------------------
    sf_out = "/tmp/se_ray_bench/index_sf"
    pages = webpages_from_documents(SF_DIR)
    results["build_sf"] = min(timed_build(pages, sf_out, cfg) for _ in range(reps))

    # --- query serving -----------------------------------------------------
    # cache-COLD first queries on a fresh engine: exercises the locator's
    # term→shard→row-group addressing (round 2; previously a predicate
    # scan over the whole postings dataset)
    queries = bench_queries()
    cold_eng = SearchEngine(zipf_out, build_bktree=False)
    t0 = time.perf_counter()
    cold_hits = [cold_eng.bm25_topk(q, 10) for q in queries]
    cold_s = time.perf_counter() - t0
    assert_hits("bm25 cold", queries, cold_hits)
    results["bm25_cold_batch"] = cold_s

    eng = SearchEngine(zipf_out)
    # hot-qps campaign: min over 4 rounds, so a noisy-neighbor burst that
    # lands in one round is discarded (the WAND and MAXSCORE modes serve
    # bm25_topk itself, so it is the one path timed). The postings cache is
    # warmed first (first-read I/O, untimed); every query must hit.
    assert_hits("bm25", queries, [eng.bm25_topk(q, 10) for q in queries])
    hot_rounds, hot_reps = 4, 100
    hot_times = []
    for _ in range(hot_rounds):
        t0 = time.perf_counter()
        for _ in range(hot_reps):
            for q in queries:
                eng.bm25_topk(q, 10)
        hot_times.append(time.perf_counter() - t0)
    results["bm25_queries"] = min(hot_times)
    qps = hot_reps * len(queries) / results["bm25_queries"]

    # --- training-data ops over the sf dir ---------------------------------
    docs = ray.data.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    t0 = time.perf_counter()
    minhash_lsh_dedup(docs, shingle_k=3, threshold=0.5).count()
    results["minhash_dedup"] = time.perf_counter() - t0

    emb_path = f"{SF_DIR}/embeddings.parquet"
    import pyarrow.parquet as pq

    qm = np.stack(
        [np.asarray(v, np.float64) for v in pq.read_table(emb_path)["embedding"].to_pylist()[:8]]
    )
    t0 = time.perf_counter()
    ann_brute_force(ray.data.read_parquet(emb_path), qm, k=10).count()
    results["ann_topk"] = time.perf_counter() - t0

    from search_engine_ray.pipelines.training_data import decontaminate, pii_scrub_table

    t0 = time.perf_counter()
    pii_scrub_table(docs).count()
    results["pii_scrub"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    decontaminate(docs).count()
    results["decontaminate"] = time.perf_counter() - t0

    from search_engine_ray.pipelines.training_data import doc_keywords

    t0 = time.perf_counter()
    doc_keywords(docs, k=3).count()
    results["doc_keywords"] = time.perf_counter() - t0

    from search_engine_ray.pipelines.training_data import (
        remove_global_ngrams,
        semdedup_pairs,
    )

    t0 = time.perf_counter()
    remove_global_ngrams(docs, n=3).count()
    results["global_ngram_dedup"] = time.perf_counter() - t0

    from search_engine_ray.pipelines.corpus_clean import dedup_lines_global

    t0 = time.perf_counter()
    dedup_lines_global(docs).count()
    results["line_dedup"] = time.perf_counter() - t0

    # insertion-robust CDC-chunk dedup (session-3e)
    from search_engine_ray.pipelines.corpus_clean import dedup_chunks_global

    t0 = time.perf_counter()
    dedup_chunks_global(docs).count()
    results["cdc_dedup"] = time.perf_counter() - t0

    # per-host boilerplate stripping over synthesized hosts (session-3e)
    from search_engine_ray.pipelines.corpus_clean import host_boilerplate_strip

    def _with_urls(batch):
        import pyarrow as _pa
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        urls = _pa.array([f"https://h{int(i) % 97}.example.test/p/{int(i)}"
                          for i in ids], _pa.string())
        return batch.append_column("url", urls)

    t0 = time.perf_counter()
    host_boilerplate_strip(
        docs.map_batches(_with_urls, batch_format="pyarrow")).count()
    results["host_boilerplate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    semdedup_pairs(ray.data.read_parquet(emb_path), threshold=0.3,
                   k=8, iters=6).count()
    results["semdedup"] = time.perf_counter() - t0

    # --- round-3-late ops ---------------------------------------------------
    import pyarrow.compute as pc

    from search_engine_ray.pipelines.training_data import (
        classifier_scores,
        cooccurrence,
        gopher_rules_table,
        sparse_knn,
    )

    t0 = time.perf_counter()
    gopher_rules_table(docs).count()
    results["gopher_rules"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    classifier_scores(docs, n_buckets=1 << 16, mode="poly").count()
    results["classifier_scores"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cooccurrence(docs, window=3, k=20, min_count=5).count()
    results["cooccurrence"] = time.perf_counter() - t0

    # sparse_knn on the ZIPF corpus (realistic 30k vocab; the sf tables'
    # 31-word vocab makes every df huge and the pair space degenerate).
    # df_cap=256 prunes the Zipf head — the op's intended operating point.
    import pyarrow as pa

    def _zipf_docs(batch: pa.Table) -> pa.Table:
        ids = pc.utf8_slice_codeunits(batch["url"], 16, 25)  # example-%09d
        return pa.table({"doc_id": pc.cast(ids, pa.int64()),
                         "text": batch["text"]})

    zdocs = ray.data.read_parquet(corpus, columns=["url", "text"]).map_batches(
        _zipf_docs, batch_format="pyarrow")
    t0 = time.perf_counter()
    sparse_knn(zdocs, k=3, df_cap=256).count()
    results["sparse_knn_zipf"] = time.perf_counter() - t0

    from search_engine_ray.pipelines.corpus_clean import new_vs_snapshot_bloom

    t0 = time.perf_counter()
    new_vs_snapshot_bloom(
        docs.map_batches(lambda b: b.filter(pc.equal(pc.bit_wise_and(b["doc_id"], 1), 1)),
                         batch_format="pyarrow"),
        docs.map_batches(lambda b: b.filter(pc.equal(pc.bit_wise_and(b["doc_id"], 1), 0)),
                         batch_format="pyarrow"),
        n_bits=1 << 22, k=4).count()
    results["bloom_new_docs"] = time.perf_counter() - t0

    # --- incremental indexing: append a ~10% delta, then compact ----------
    import pyarrow.compute as pc

    from search_engine_ray.pipelines.segments import add_segment, compact
    from search_engine_ray.sources.webpages import _url_for

    n_sf = pq.read_metadata(f"{SF_DIR}/documents.parquet").num_rows
    cut = _url_for((n_sf * 9) // 10)
    seg_root = "/tmp/se_ray_bench/segroot"
    shutil.rmtree(seg_root, ignore_errors=True)
    base_pages = pages.map_batches(
        lambda b, _c=cut: b.filter(pc.less(b["url"], _c)), batch_format="pyarrow")
    delta_pages = pages.map_batches(
        lambda b, _c=cut: b.filter(pc.greater_equal(b["url"], _c)), batch_format="pyarrow")
    add_segment(base_pages, seg_root, cfg)  # ≈ build_sf cost, untimed
    t0 = time.perf_counter()
    add_segment(delta_pages, seg_root, cfg)
    results["segment_append_10pct"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    compact(seg_root, cfg)
    results["segment_compact"] = time.perf_counter() - t0

    # --- round-4 ops --------------------------------------------------------
    from search_engine_ray.pipelines.training_data import (
        bitext_mine,
        new_vs_snapshot_near,
        train_quality_classifier,
        write_snapshot_band_index,
    )

    t0 = time.perf_counter()
    train_quality_classifier(docs, iters=3)
    results["quality_logreg"] = time.perf_counter() - t0

    langs_ds = ray.data.read_parquet(f"{SF_DIR}/documents.parquet",
                                     columns=["doc_id", "lang"])
    t0 = time.perf_counter()
    bitext_mine(ray.data.read_parquet(emb_path), langs_ds, "de", "en",
                margin_k=4, threshold=1.0).count()
    results["bitext_mine"] = time.perf_counter() - t0

    # round-5 past-cap path: same mining, tgt hash-sharded into ~3
    # broadcasts (identical pairs — the exactness tests pin that; this
    # times the blocked-matmul S-pass tradeoff)
    import pyarrow.compute as _pc

    n_en = int(_pc.sum(_pc.equal(
        pq.read_table(f"{SF_DIR}/documents.parquet", columns=["lang"])["lang"],
        "en").cast("int64")).as_py() or 0)
    t0 = time.perf_counter()
    bitext_mine(ray.data.read_parquet(emb_path), langs_ds, "de", "en",
                margin_k=4, threshold=1.0,
                broadcast_cap=max(1, n_en // 3)).count()
    results["bitext_mine_sharded"] = time.perf_counter() - t0

    snap_idx = "/tmp/se_ray_bench/snapidx"
    shutil.rmtree(snap_idx, ignore_errors=True)
    snap_half = docs.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b["doc_id"], 1), 0)),
        batch_format="pyarrow")
    new_half = docs.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b["doc_id"], 1), 1)),
        batch_format="pyarrow")
    # index build is untimed: it happens once per snapshot PUBLISH; the
    # per-crawl cost is the probe
    write_snapshot_band_index(snap_half, snap_idx, shingle_k=2)
    t0 = time.perf_counter()
    new_vs_snapshot_near(new_half, snap_idx, threshold=0.5).count()
    results["snapshot_near_probe"] = time.perf_counter() - t0

    num_docs = json.load(open(os.path.join(zipf_out, "stats.json")))["num_docs"]
    out = {
        "metric": "index build seconds (zipf corpus, end-to-end)",
        "value": round(results["build_zipf"], 3),
        "unit": "sec",
        "queries": {k: round(v, 3) for k, v in results.items()},
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "zipf_docs": num_docs,
        "docs_per_sec": round(num_docs / results["build_zipf"], 1),
        "bm25_qps": round(qps, 1),
        "bm25_cold_ms_per_q": round(results["bm25_cold_batch"] * 1000 / len(queries), 3),
    }
    ray.shutdown()
    return out


def run_scaling() -> dict:
    """Fresh-process builds at two parallelism levels (the sandbox
    substitute for N vs 4N nodes). Each level runs ``BENCH_SCALING_REPEATS``
    times and the MINIMUM is kept: the box shares hardware with noisy
    neighbours (load avg > 3 while idle was observed) and min-of-repeats
    measures the engine, not the neighbour.

    Each level is HARDWARE-PINNED (``taskset -c 0..n-1``) — Ray's logical
    ``num_cpus`` only caps concurrent task SLOTS; the driver, raylet,
    object store, and Arrow I/O threads otherwise borrow idle cores, which
    was measured to nearly double an unpinned "8-CPU" run's effective
    compute (54.8s unpinned vs 102s pinned before round-3 tuning). Pinning
    makes an n-CPU level mean n CPUs total — the honest analog of an
    n-core cluster slice, where a node's daemons share the node's own
    cores.

    Default pair is 2→8: with pinned cores the per-core share of DRAM
    bandwidth, object store and disk stays roughly constant across the
    pair — the same invariant a real N → 4N NODE scale-out preserves
    (every node brings its own DRAM/disk/NIC). 8→32 on this box instead
    measures one socket's memory wall (all 32 cores queue on one DRAM
    controller — a hardware artifact no multi-node cluster reproduces);
    it is reported separately in BASELINE.md with bandwidth probes."""
    lo, hi = (int(x) for x in os.environ.get("BENCH_SCALING_LEVELS", "2,8").split(","))
    repeats = int(os.environ.get("BENCH_SCALING_REPEATS", "2"))
    ensure_cached = dict(os.environ)
    # scaling needs a compute-bound build: amortize fixed per-stage costs
    # with a larger identical corpus at both levels, headline build only.
    # 960k docs ≈ 2 GB extracted text: the 8-CPU build runs ~25 s, long
    # enough that the ~4-5 s of fixed per-build cost (Ray Data execution
    # startup, driver-side stage plumbing) stops dominating the ratio —
    # strong-scaling efficiency is only meaningful at a problem size that
    # keeps workers busy, which is also the regime a real cluster runs in
    ensure_cached.setdefault("BENCH_ZIPF_DOCS", "960000")
    ensure_cached["BENCH_BUILD_ONLY"] = "1"
    n_host = os.cpu_count() or 32

    def bw_probe() -> float:
        """Single-process copy bandwidth (GB/s) between two PRE-FAULTED
        buffers — the host-noise canary, ~16-20 on a quiet box.

        Pre-faulting matters: the previous probe (`buf.copy()`, fresh
        destination each call) measured page-FAULT throughput, which this
        package's own THP tuning (NUMPY_MADVISE_HUGEPAGE=0, imported by
        bench.py) pins at ~2.5 GB/s regardless of host state — a whole
        evening of scaling samples was mis-read as "loud neighbour" off
        that artifact. copyto between touched buffers is allocator- and
        THP-independent (verified: 14.0 vs 16.4 GB/s with the tuning
        on/off, same window)."""
        import numpy as np

        a = np.ones(1 << 27, np.uint8)
        b = np.zeros(1 << 27, np.uint8)
        b[:] = 1  # fault both before timing
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            np.copyto(b, a)
            best = min(best, time.perf_counter() - t0)
        return round(0.25 / best, 2)  # 128 MB read + write

    def settle() -> None:
        """Wait out the previous sample's tail before timing the next.

        Back-to-back samples measured 30-70% slow: a finished build leaves
        dirty page-cache writeback (the index just written to /tmp) plus Ray
        shutdown work, and the NEXT pinned sample pays for it (observed:
        8-CPU level 32 s after a quiet gap vs 44-54 s straight after a 2-CPU
        build). Force the writeback now (sync) and wait for load1 to drain,
        bounded so a noisy neighbour can't stall the bench forever.

        Guest load1 cannot see HOST overcommit (a KVM neighbour eating the
        physical cores shows up only as every guest op running slow —
        observed: single-process memcpy at 3.0 GB/s vs 7.4 quiet, and the
        same build 25x slower), so also gate on a 1-second single-process
        bandwidth probe when BENCH_SETTLE_MIN_GBPS is set (same deadline).
        """
        os.sync()
        deadline = time.time() + int(os.environ.get("BENCH_SETTLE_MAX_S", "240"))
        while os.getloadavg()[0] >= 1.0 and time.time() < deadline:
            time.sleep(10)
        # default-ON for scaling runs: a loud neighbour starves the higher
        # CPU level disproportionately and the ratio measures the
        # neighbour. Pre-faulted copyto probe (see bw_probe): quiet ≈
        # 16-20 GB/s on this box; wait (bounded) for ≥11 before sampling.
        min_gbps = float(os.environ.get("BENCH_SETTLE_MIN_GBPS", "11.0"))
        if min_gbps <= 0:
            return
        import numpy as np
        a = np.ones(1 << 27, np.uint8)
        b = np.zeros(1 << 27, np.uint8)
        b[:] = 1
        while time.time() < deadline:
            t0 = time.perf_counter()
            np.copyto(b, a)
            gbps = 0.25 / (time.perf_counter() - t0)  # 128 MB read + write
            if gbps >= min_gbps:
                return
            time.sleep(15)

    log_dir = os.environ.get("BENCH_SCALING_LOG_DIR", "/tmp/se_ray_bench/scaling_logs")
    os.makedirs(log_dir, exist_ok=True)
    seq = [0]

    def one(ncpu: int) -> dict:
        env = dict(ensure_cached, RAY_GRAFT_CPUS=str(ncpu))
        cmd = [sys.executable, os.path.abspath(__file__)]
        if ncpu < n_host and shutil.which("taskset"):
            cmd = ["taskset", "-c", f"0-{ncpu - 1}", *cmd]
        settle()
        p = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        seq[0] += 1
        with open(os.path.join(log_dir, f"sample{seq[0]:02d}_cpu{ncpu}.log"), "w") as f:
            f.write(p.stdout)  # per-stage timings when SE_RAY_TIMING is set
        return json.loads(p.stdout.strip().splitlines()[-1])

    # interleave levels so neighbour noise hits both about equally
    bw_before = bw_probe()
    runs_lo, runs_hi = [], []
    for _ in range(repeats):
        runs_lo.append(one(lo))
        runs_hi.append(one(hi))
    bw_after = bw_probe()
    r_lo = min(runs_lo, key=lambda r: r["value"])
    r_hi = min(runs_hi, key=lambda r: r["value"])
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": f"scaling efficiency (index build, {lo} vs {hi} cpus, best of {repeats})",
        "value": round(eff, 3),
        "unit": "efficiency",
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"docs_per_sec_{lo}": r_lo["docs_per_sec"],
        f"docs_per_sec_{hi}": r_hi["docs_per_sec"],
        "all_secs": {str(lo): [r["value"] for r in runs_lo],
                     str(hi): [r["value"] for r in runs_hi]},
        "host_bw_gbps": {"before": bw_before, "after": bw_after, "quiet_ref": 18.0},
        "sf": SF_DIR,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
