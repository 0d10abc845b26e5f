"""End-to-end index build pipeline (the reference's SearchEngine::build_index,
/root/reference/src/search_engine/mod.rs:41-44 → indexer.rs:193-210, re-shaped
for Ray Data streaming execution; SURVEY.md §7.1):

  webpages parquet (url, warc_ts, html, text, lang)
    → extract (stateless map_batches) → sort(url) → ONE fused task wave that
      stamps deterministic doc_ids AND tokenizes (two outputs per task)
      → runs/shard=K/ hash-sharded postings rows (term, doc_id, pos_enc);
        shard = poly_hash(term) % index_shards                 [checkpoint]
      → docs/  (doc_id, url, doc_length)                       [checkpoint]
    → dictionary/ugroup=U/ (term, term_id = dense rank, df, shard),
      hive-partitioned by merge unit so each merge job's workers read only
      their own vocab slice (nothing vocab-sized on the driver) [checkpoint]
    → postings/shard=K/postings.bin: PER-UNIT int-keyed merge — sort
      (shard, term_id, doc_id) → one flat file per shard, one contiguous
      VB record per term (stages/postings_file.py). Each shard has its own
      lineage manifest: a killed build resumes by re-running ONLY the
      incomplete merge units (per-partition lineage, the reference has
      nothing comparable). The term STRING never rides the merge shuffle
      (stages/merge.py).
    → stats.json (N, total tokens, avgdl); doc lengths are served from the
      docs/ columns directly (no separate copy)

Determinism precondition: ``url`` values must be unique — doc_id is the
dense rank of the url sort and duplicate keys would make their relative
order partition-dependent (the reference's single-threaded read order has
the same ambiguity for duplicate files). Crawl pipelines should dedupe by
url upstream (exact_dedup on url works).

Each stage writes parquet + a lineage manifest; ``build_index(resume=True)``
skips stages (and individual postings shards) whose manifest is complete
with a matching fingerprint (state/manifests.py). The hash-shard key is the
ONE partitioning key reused across build and serving: the query engine maps
term → shard with the same hash and reads only the term's record in that
shard's file (query/locator.py).
"""

from __future__ import annotations

import json
import os
import time

import ray
import ray.data

from search_engine_ray.config import EngineConfig
from search_engine_ray.stages.extract import extract_stage
from search_engine_ray.state import manifests


def _push_based_shuffle():
    """Scope Ray Data's push-based sort shuffle over a build stage.

    The build's two big all-to-alls (url sort, postings merge sort) move
    multi-GB payloads; the default pull-based exchange left the 2M-doc merge
    sort at ~4.6x effective parallelism on 32 CPUs (160 s of sort CPU in
    35 s wall) while push-based pipelines the partition pushes and measured
    22% faster end-to-end on that stage. Context is captured at DATASET
    CREATION, so the whole producer (read → sort → consume) runs inside."""
    from contextlib import contextmanager

    @contextmanager
    def scope():
        ctx = ray.data.DataContext.get_current()
        prev = ctx.shuffle_strategy
        try:
            from ray.data.context import ShuffleStrategy

            ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
        except ImportError:  # pragma: no cover - older/newer ray
            pass
        try:
            yield
        finally:
            ctx.shuffle_strategy = prev

    return scope()


#: docs per tokenize sub-batch inside one task. Whole ~30k-doc blocks were
#: measured ~3x SLOWER per task at EVERY concurrency level (re-measured on
#: pinned 2- and 8-core runs, round 3): the large numpy temporaries of a
#: big batch go through mmap and tasks contend on kernel page zeroing;
#: 2k-doc slices keep temporaries on the allocator free lists. Always
#: slice — the former "whole block below 16 CPUs" special case cost a
#: pinned 8-core 480k-doc build 102s vs 37s.
_TOKENIZE_SLICE = 2048

#: target docs per tokenize TASK. Task granularity is decoupled from sort
#: block granularity (a task takes a row range of one sorted block): the
#: sort can produce few large blocks while the wave still load-balances
#: across slots with no straggler tail. 4096 ≈ two internal slices per
#: task; ~120 tasks per 480k docs keeps per-task overhead ≪ 1%.
_TOKENIZE_TASK_ROWS = 4096


@ray.remote(num_returns=3)
def _stamp_and_tokenize(block, offset: int, lemma_path, n_units: int,
                        slice_rows: int = _TOKENIZE_SLICE, bigrams: bool = False,
                        start: int = 0, length: int | None = None):
    """One fused task per sorted-block ROW RANGE: stamp doc_id = offset +
    row rank (zip_with_index semantics, stages/doc_ids.py), tokenize the
    range, and return (runs_table, doc_meta_table, dict_partial_table).
    ``start``/``length`` select the range (plasma reads are zero-copy, so
    several tasks slicing one block share its buffer).

    runs rows are (term, doc_id, pos_enc, sgroup) — sentinel rows are
    dropped here (doc_length now rides on doc_meta, so they carry no
    information) and the merge-unit group ``sgroup = poly_hash(term) %
    merge_units`` is stamped so the write lands hive-partitioned per unit.
    dict_partial is the per-block (term, df_part) combiner — emitting it
    here means the dictionary stage never re-reads the runs (partial
    aggregation fused into the wave that already holds the data)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from search_engine_ray.functions.hashing import hash_strings_arrow
    from search_engine_ray.stages.tokenize import get_worker_tokenizer, tokenize_batch

    if not isinstance(block, pa.Table):
        block = pa.Table.from_pandas(block, preserve_index=False)
    if length is not None:
        block = block.slice(start, length)
    if block.num_rows == 0:
        # empty split blocks can arrive schema-less (e.g. after repartition
        # of a small read) — emit properly-typed empties
        from search_engine_ray.stages.tokenize import POSTINGS_SCHEMA

        runs = POSTINGS_SCHEMA.empty_table().select(["term", "doc_id", "pos_enc"])
        runs = runs.append_column("sgroup", pa.array([], pa.int64()))
        doc_meta = pa.table({"doc_id": pa.array([], pa.int64()),
                             "url": pa.array([], pa.string()),
                             "doc_length": pa.array([], pa.int64())})
        dict_partial = pa.table({"term": pa.array([], pa.string()),
                                 "df_part": pa.array([], pa.int64())})
        return runs, doc_meta, dict_partial
    ids = pa.array(np.arange(offset, offset + block.num_rows, dtype=np.int64), type=pa.int64())
    if "doc_id" in block.column_names:
        block = block.drop_columns(["doc_id"])
    block = block.append_column("doc_id", ids)
    tok = get_worker_tokenizer(lemma_path)
    step = slice_rows if slice_rows > 0 else max(1, block.num_rows)
    parts = [
        tokenize_batch(block.slice(s, step), tok, bigrams=bigrams)
        for s in range(0, block.num_rows, step)
    ]
    postings = pa.concat_tables(parts).combine_chunks() if parts else None
    if postings is None:  # pragma: no cover - empty block
        from search_engine_ray.stages.tokenize import POSTINGS_SCHEMA

        postings = POSTINGS_SCHEMA.empty_table()

    # doc metadata: every doc appears in postings (zero-token docs as
    # sentinel rows), so first-occurrence per doc_id recovers doc_length
    pids = postings["doc_id"].to_numpy(zero_copy_only=False)
    uniq, first_idx = np.unique(pids, return_index=True)
    assert len(uniq) == block.num_rows
    dl = postings["doc_length"].to_numpy(zero_copy_only=False)[first_idx].astype(np.int64)
    doc_meta = block.select(["doc_id", "url"]).append_column(
        "doc_length", pa.array(dl, pa.int64())
    )

    runs = postings.filter(pc.not_equal(postings["term"], "")).select(
        ["term", "doc_id", "pos_enc"]
    )
    # hash UNIQUE terms only: one dictionary_encode gives (a) the per-row
    # codes to scatter sgroup, (b) the per-block df combiner as a bincount.
    # Hashing every posting row was 80% of the task's CPU at 32-way
    # concurrency (the ~row_bytes×8 uint64 temporaries of the vectorized
    # poly-hash contend on page zeroing); unique terms are ~12x fewer rows.
    enc = runs["term"].combine_chunks().dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False)
    uniq_terms = enc.dictionary.cast(pa.string())
    sg_u = (hash_strings_arrow(uniq_terms) % np.uint64(n_units)).astype(np.int64)
    runs = runs.append_column("sgroup", pa.array(sg_u[codes], pa.int64()))

    # per-block combiner: df_part = posting rows per term in this block
    cnt = np.bincount(codes, minlength=len(uniq_terms)) if len(codes) else np.zeros(len(uniq_terms), np.int64)
    dict_partial = pa.table(
        {"term": uniq_terms, "df_part": pa.array(cnt.astype(np.int64), pa.int64())}
    )
    return runs, doc_meta, dict_partial


@ray.remote(num_returns=3)
def _dict_finish_block(block):
    """Wave A of the fused dictionary finish (see produce_dictionary): one
    sorted block of (term, df_part) combiner rows → (interior_final,
    edge_rows, meta).

    interior_final: (term, df) for terms whose rows are ENTIRELY inside this
    block (every term except the block's first and last) — stays in the
    object store, never driver-side. edge_rows: the raw partial rows of the
    block's first/last terms (≤ 2 terms × ≤ n_read_blocks rows — tiny; a
    term spanning blocks is an edge term of every block it touches, so
    summing edge rows across blocks yields its complete df). meta: first/
    last interior term + interior term count, for driver-side dense-rank
    offsets (O(n_blocks) strings on the driver, never O(vocab))."""
    import numpy as np
    import pyarrow as pa

    empty_int = pa.table({"term": pa.array([], pa.string()),
                          "df": pa.array([], pa.int64())})
    empty_edge = pa.table({"term": pa.array([], pa.string()),
                           "df_part": pa.array([], pa.int64())})
    if not isinstance(block, pa.Table):
        block = pa.Table.from_pandas(block, preserve_index=False)
    block = block.combine_chunks()
    if block.num_rows == 0:
        return empty_int, empty_edge, {"first": None, "last": None, "count": 0}
    enc = block["term"].dictionary_encode().combine_chunks()
    # block is term-sorted, so first-appearance dictionary order == term order
    codes = enc.indices.to_numpy(zero_copy_only=False)
    change = np.empty(len(codes), bool)
    change[0] = True
    np.not_equal(codes[1:], codes[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    dfs = np.add.reduceat(
        block["df_part"].to_numpy(zero_copy_only=False), starts).astype(np.int64)
    terms = enc.dictionary.take(pa.array(codes[starts])).cast(pa.string())
    keep = np.ones(len(starts), bool)
    keep[0] = False
    keep[-1] = False
    gid = np.cumsum(change) - 1
    edge_rows = block.filter(pa.array(~keep[gid]))
    edge_rows = pa.table({"term": edge_rows["term"].cast(pa.string()),
                          "df_part": edge_rows["df_part"]})
    if not keep.any():
        return empty_int, edge_rows, {"first": None, "last": None, "count": 0}
    kidx = np.flatnonzero(keep)
    int_terms = terms.take(pa.array(kidx))
    interior = pa.table({"term": int_terms,
                         "df": pa.array(dfs[kidx], pa.int64())})
    meta = {"first": int_terms[0].as_py(), "last": int_terms[-1].as_py(),
            "count": len(kidx)}
    return interior, edge_rows, meta


@ray.remote
def _dict_emit_block(interior, tid_offset: int, n_shards: int, n_units: int,
                     out_dir: str, block_id: int) -> int:
    """Wave B: stamp dense term_ids (= tid_offset + local rank), derive
    shard/ugroup, and write this block's dictionary rows DIRECTLY as one
    parquet file per ugroup present — no Ray Data sink execution."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.functions.hashing import hash_strings_arrow

    n = interior.num_rows
    if n == 0:
        return 0
    tids = np.arange(tid_offset, tid_offset + n, dtype=np.int64)
    shards = (hash_strings_arrow(interior["term"].combine_chunks())
              % np.uint64(n_shards)).astype(np.int64)
    ug = shards % n_units
    t = pa.table({"term": interior["term"], "df": interior["df"],
                  "term_id": pa.array(tids, pa.int64()),
                  "shard": pa.array(shards, pa.int64())})
    for u in np.unique(ug):
        d = os.path.join(out_dir, f"ugroup={u}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(t.filter(pa.array(ug == u)),
                       os.path.join(d, f"part-{block_id:05d}.parquet"))
    return n


class IndexPaths:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.docs = os.path.join(out_dir, "docs")
        self.runs = os.path.join(out_dir, "runs")
        self.dict_partials = os.path.join(out_dir, "dict_partials")
        self.postings = os.path.join(out_dir, "postings")
        self.dictionary = os.path.join(out_dir, "dictionary")
        #: doc lengths live as a column of docs/ (read with columns=
        #: ["doc_id", "doc_length"]) — not a separate stage artifact
        self.doc_lengths = self.docs
        self.stats = os.path.join(out_dir, "stats.json")

    def postings_shard(self, k: int) -> str:
        return os.path.join(self.postings, f"shard={k}")


def _stage(paths_dir: str, name: str, fp: str, resume: bool, producer) -> None:
    """Run ``producer(out_dir)`` unless a matching complete manifest exists.

    A (re)build always starts from an EMPTY stage dir: a stale or
    partial previous attempt (different fingerprint, crash mid-write, older
    format) would otherwise leave its parquet files mixed in with the new
    ones."""
    if resume and manifests.stage_complete(paths_dir, fp):
        return
    import shutil

    shutil.rmtree(paths_dir, ignore_errors=True)
    os.makedirs(paths_dir, exist_ok=True)
    t0 = time.perf_counter()
    producer(paths_dir)
    elapsed = time.perf_counter() - t0
    if os.environ.get("SE_RAY_TIMING"):
        print(f"[stage {name}] {elapsed:.1f}s", flush=True)
    # per-stage wall time + derived rows/s ride the lineage manifest
    # (north-rule: per-partition lineage + METRICS)
    manifests.write_manifest(paths_dir, name, fp,
                             extra={"elapsed_s": round(elapsed, 6)})


def build_index(
    input_path: str | "ray.data.Dataset",
    out_dir: str,
    config: EngineConfig | None = None,
    resume: bool = False,
    doc_id_base: int = 0,
) -> IndexPaths:
    """Build the full inverted index under ``out_dir``; returns its layout.

    ``doc_id_base`` offsets every assigned doc_id (ids become base+1..base+N)
    — the seam incremental segment builds use (pipelines/segments.py) so
    doc_ids stay globally unique across segments. It participates in the
    stage fingerprint: resuming with a different base rebuilds."""
    config = config or EngineConfig()
    n_shards = config.index_shards
    # a unit can't own less than one shard: small-shard configs (tests,
    # tiny corpora) clamp the default 32 units down to one unit per shard
    n_units = min(config.merge_units, n_shards)
    if n_shards % n_units:
        raise ValueError("index_shards must be a multiple of merge_units")
    paths = IndexPaths(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    cfg_fp = manifests.fingerprint(config, doc_id_base)
    in_fp = manifests.fingerprint(input_path if isinstance(input_path, str) else "<dataset>", cfg_fp)
    write_kwargs = {}
    if config.min_rows_per_file:
        write_kwargs["min_rows_per_file"] = config.min_rows_per_file

    try:
        ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    except Exception:  # pragma: no cover
        ncpu = 8

    # ---- stage 1+2 (fused): extract → sort(url) → ONE task wave that both
    # stamps deterministic doc_ids and tokenizes (two outputs per task:
    # hash-sharded postings runs + doc metadata incl. doc_length). Fusing
    # removes a checkpoint write+re-read and a separate stamping wave. ------
    def produce_docs_and_runs() -> None:
        import threading

        import numpy as np

        t_s0 = time.perf_counter()
        # Block/task counts below are DATA-SIZE-driven with a fixed floor,
        # never CPU-count-driven: the execution plan must be identical at
        # every cluster size or a scaling comparison measures two different
        # jobs (fewer, bigger blocks at low parallelism amortize per-block
        # overhead and bias the ratio). 32 covers the node sizes we test;
        # at real scale the size term dominates anyway.
        from search_engine_ray.stages.merge import dir_parquet_bytes, size_aware_blocks

        floor = int(os.environ.get("SE_RAY_BLOCK_FLOOR", "32"))
        in_bytes = dir_parquet_bytes(input_path) if isinstance(input_path, str) else 0
        n_blocks = size_aware_blocks(in_bytes, floor) if in_bytes else floor
        if isinstance(input_path, str):
            # coarse read tasks: the default plan makes one task per file
            # (200 × ~20 ms tasks at 480k docs — half scheduling overhead);
            # bundling files to the sort block count cuts the dispatch cost
            # at every level equally
            pages = ray.data.read_parquet(
                input_path, columns=["url", "html"], override_num_blocks=n_blocks)
        else:
            pages = input_path.select_columns(["url", "html"])
        extracted = extract_stage(pages, html_col="html").drop_columns(["html"])
        if not isinstance(input_path, str):
            # unknown upstream block structure: coalesce before the sort
            # (n_blocks² exchange objects otherwise) and bound block size
            # (oversized sort blocks blow the streaming executor's per-op
            # memory budget — stages/merge.py). Path inputs already read in
            # n_blocks size-aware blocks, so no repartition is needed.
            extracted = extracted.repartition(n_blocks)
        # materialize BEFORE the sort: the fused read→extract→sort DAG runs
        # 1.4–2 s slower at every CPU level than the two executions — the
        # streaming executor splits its memory budget across the co-running
        # operators and throttles both (same mechanism as the 2M-doc merge
        # backpressure collapse, stages/merge.py).
        sorted_ds = extracted.materialize().sort("url").materialize()
        if os.environ.get("SE_RAY_TIMING"):
            print(f"[ docs+runs/extract+sort] {time.perf_counter() - t_s0:.1f}s", flush=True)
        t_s1 = time.perf_counter()
        block_refs, counts = [], []
        for bundle in sorted_ds.iter_internal_ref_bundles():
            for block_ref, meta in bundle.blocks:
                block_refs.append(block_ref)
                counts.append(meta.num_rows)
        offsets = 1 + doc_id_base + np.concatenate([[0], np.cumsum(counts)[:-1]]) if counts else []
        slice_rows = int(os.environ.get("SE_RAY_TOKENIZE_SLICE", _TOKENIZE_SLICE))
        task_rows = int(os.environ.get("SE_RAY_TOKENIZE_TASK_ROWS", _TOKENIZE_TASK_ROWS))
        outs = []
        for ref, off, n in zip(block_refs, offsets, counts):
            for s in range(0, max(int(n), 1), task_rows):
                ln = min(task_rows, int(n) - s)
                if int(n) == 0:
                    ln = 0  # keep one empty task so empty inputs stay schema-stable
                outs.append(_stamp_and_tokenize.remote(
                    ref, int(off) + s, config.lemma_path, n_units,
                    slice_rows, config.index_bigrams, s, ln))
        runs_ds = ray.data.from_arrow_refs([o[0] for o in outs]) if outs else None
        docs_ds = ray.data.from_arrow_refs([o[1] for o in outs]) if outs else None
        partials_ds = ray.data.from_arrow_refs([o[2] for o in outs]) if outs else None
        import shutil

        # always start from empty dirs (stale/partial prior attempts)
        for d in (paths.runs, paths.docs, paths.dict_partials):
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d, exist_ok=True)

        def _ensure_nonempty(d: str, schema_table) -> None:
            """Ray's parquet sink writes NO file for 0 rows; typed empty
            artifacts keep every downstream reader schema-stable."""
            import glob as _glob

            import pyarrow.parquet as _pq

            if not _glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True):
                _pq.write_table(schema_table, os.path.join(d, "empty.parquet"))

        import pyarrow as pa

        def wdocs():
            if docs_ds is not None:
                docs_ds.write_parquet(paths.docs, **write_kwargs)
            _ensure_nonempty(paths.docs, pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "url": pa.array([], pa.string()),
                 "doc_length": pa.array([], pa.int64())}))

        def wpartials():
            if partials_ds is not None:
                partials_ds.write_parquet(paths.dict_partials, **write_kwargs)
            _ensure_nonempty(paths.dict_partials, pa.table(
                {"term": pa.array([], pa.string()),
                 "df_part": pa.array([], pa.int64())}))

        threads = [threading.Thread(target=wdocs), threading.Thread(target=wpartials)]
        for t in threads:
            t.start()
        if runs_ds is not None:
            runs_ds.write_parquet(paths.runs, partition_cols=["sgroup"])
        for t in threads:
            t.join()
        wave_s = round(time.perf_counter() - t_s1, 6)
        if os.environ.get("SE_RAY_TIMING"):
            print(f"[ docs+runs/wave+write] {wave_s:.1f}s", flush=True)
        # the fused wave produces all three stages in one execution; each
        # manifest records the shared wave wall time as its metric
        manifests.write_manifest(paths.docs, "docs", in_fp,
                                 extra={"elapsed_s": wave_s, "fused_wave": True})
        manifests.write_manifest(paths.dict_partials, "dict_partials", in_fp,
                                 extra={"elapsed_s": wave_s, "fused_wave": True})
        manifests.write_manifest(paths.runs, "runs", in_fp,
                                 extra={"elapsed_s": wave_s, "fused_wave": True})

    if not (resume and manifests.stage_complete(paths.runs, in_fp)
            and manifests.stage_complete(paths.docs, in_fp)
            and manifests.stage_complete(paths.dict_partials, in_fp)):
        t0 = time.perf_counter()
        with _push_based_shuffle():
            produce_docs_and_runs()
        if os.environ.get("SE_RAY_TIMING"):
            print(f"[stage docs+runs] {time.perf_counter() - t0:.1f}s", flush=True)

    # ---- stage 3: dictionary (df + dense 1-based term_id by sorted term +
    # hash shard). Built BEFORE the merge from the per-block combiners the
    # tokenize wave already emitted (dict_partials — no re-read of runs):
    # the merge then ships int64 term_ids instead of strings. The layout is
    # HIVE-PARTITIONED by merge unit (ugroup = shard % merge_units): each
    # merge unit job reads ONLY dictionary/ugroup=U — vocab/merge_units
    # entries per worker, nothing vocabulary-sized on the driver, however
    # large the vocabulary. Whole-dir readers (engine, oracles) see the
    # same table via ordinary dataset discovery. ---------------------------
    def produce_dictionary(d: str) -> None:
        import numpy as np
        import pandas as pd
        import pyarrow as pa

        from search_engine_ray.functions.hashing import hash_strings_arrow

        def _shard_col(term_arr: pa.Array) -> pa.Array:
            s = (hash_strings_arrow(term_arr) % np.uint64(n_shards)).astype(np.int64)
            return pa.array(s, pa.int64())

        # gate on the MEASURED partial row count from the manifest
        # (≈ n_blocks × vocab), not doc count: a 10M-term vocab × hundreds
        # of blocks would be GBs on the driver even for a "small" corpus.
        m = manifests.read_manifest(paths.dict_partials) or {}
        n_partial_rows = m.get("num_rows") or 0
        small_cap = int(os.environ.get("SE_RAY_DICT_SMALL_ROWS", 8_000_000))
        if n_partial_rows <= small_cap:
            # small side: plain parquet read + an Arrow group_by finish — a
            # Ray execution here is pure fixed overhead, and the C++
            # hash-aggregate is multithreaded in the driver process (the
            # pandas version of this finish was a flat ~0.6 s at ANY cpu
            # count — a pure scaling residue at small corpora)
            import pyarrow.parquet as pq

            raw = pq.read_table(paths.dict_partials)
            if "term" not in raw.column_names:  # empty corpus: schema-less dir
                raw = pa.table({"term": pa.array([], pa.string()),
                                "df_part": pa.array([], pa.int64())})
            g = raw.group_by("term").aggregate([("df_part", "sum")])
            # UTF-8 byte order == code-point order: same rank the reference's
            # BTreeMap iteration produces (spimi.rs:60,76,95)
            g = g.take(pa.compute.sort_indices(g["term"]))
            t = pa.table({
                "term": g["term"],
                "df": g["df_part_sum"].cast(pa.int64()),
                "term_id": pa.array(
                    np.arange(1, g.num_rows + 1, dtype=np.int64), pa.int64()),
            })
            shard_arr = _shard_col(t["term"].combine_chunks())
            t = t.append_column("shard", shard_arr)
            if t.num_rows == 0:
                # empty vocab writes one typed empty file at the top level:
                # whole-dir readers (engine, oracles) stay schema-stable
                pq.write_table(t, os.path.join(d, "dictionary.parquet"))
                return
            ug = shard_arr.to_numpy(zero_copy_only=False) % n_units
            for u in np.unique(ug):
                os.makedirs(os.path.join(d, f"ugroup={u}"), exist_ok=True)
                pq.write_table(
                    t.filter(pa.array(ug == u)),
                    os.path.join(d, f"ugroup={u}", "dictionary.parquet"),
                )
            return

        # distributed path: ONE sort execution + two raw-task waves. The
        # previous shape (sorted_group_map + zip_with_index + sink) ran ~5
        # sequential Dataset executions whose fixed startup made the stage
        # a flat ~7–8 s at ANY cpu count — a pure scaling residue.
        #
        # Coalesce at the read: the partials are SMALL per row (term,
        # df_part ≈ 16–40 B) but arrive as hundreds of ~vocab-row combiner
        # outputs; a global sort over hundreds of sub-MB blocks is pure
        # all-to-all overhead (measured: 8.4 s to sort 46 MB at 32 CPUs in
        # 200 blocks). Target ~500k rows per read block — few enough blocks
        # that the global sort moves ≤ n_blocks × vocab combiner rows, and
        # enough that local_combine parallelism tracks the CPU budget.
        # data-driven block count (not ncpu-driven): identical plan at
        # every cluster size — see the docs+runs stage note
        n_read_blocks = int(min(int(os.environ.get("SE_RAY_BLOCK_FLOOR", "32")),
                                max(2, n_partial_rows // 500_000)))
        partials = ray.data.read_parquet(
            paths.dict_partials, override_num_blocks=n_read_blocks
        )

        def local_combine(batch: pa.Table) -> pa.Table:
            # per-coalesced-block combine: sort within the block, sum runs.
            # Output is ≤ vocab rows per block whatever the input size.
            batch = batch.combine_chunks()
            if batch.num_rows == 0:
                return pa.table(
                    {"term": pa.array([], pa.string()), "df_part": pa.array([], pa.int64())}
                )
            idx = pa.compute.sort_indices(batch["term"])
            batch = batch.take(idx)
            enc = batch["term"].dictionary_encode().combine_chunks()
            codes = enc.indices.to_numpy(zero_copy_only=False)
            change = np.empty(len(codes), bool)
            change[0] = True
            np.not_equal(codes[1:], codes[:-1], out=change[1:])
            starts = np.flatnonzero(change)
            df = np.add.reduceat(batch["df_part"].to_numpy(zero_copy_only=False), starts)
            return pa.table(
                {
                    "term": enc.dictionary.take(pa.array(codes[starts])).cast(pa.string()),
                    "df_part": pa.array(df.astype(np.int64), pa.int64()),
                }
            )

        combined = partials.map_batches(
            local_combine, batch_format="pyarrow", batch_size=None
        )
        # the ONLY Dataset execution of the stage: global sort by term.
        # Block ranges come out ordered (same invariant the doc_id stamp
        # relies on), so dense term_ids are block offset + local rank.
        srt = combined.sort("term").materialize()
        block_refs = []
        for bundle in srt.iter_internal_ref_bundles():
            for block_ref, _meta in bundle.blocks:
                block_refs.append(block_ref)
        waves = [_dict_finish_block.remote(ref) for ref in block_refs]
        metas = ray.get([w[2] for w in waves])
        edge_tbls = [t for t in ray.get([w[1] for w in waves]) if t.num_rows]
        # resolve edge terms driver-side: ≤ 2 terms per block — O(n_blocks),
        # never O(vocab)
        edge_terms: list[str] = []
        edge_dfs: list[int] = []
        if edge_tbls:
            et = pa.concat_tables(edge_tbls)
            pdf = et.to_pandas().groupby("term", sort=True)["df_part"].sum()
            edge_terms = list(pdf.index)
            edge_dfs = [int(v) for v in pdf.values]
        # dense-rank offsets over the merged order of interior ranges
        # (atomic: no edge term can fall strictly inside one) + edge terms
        items: list[tuple[str, str, int]] = []
        for b, m in enumerate(metas):
            if m["count"]:
                items.append((m["first"], "b", b))
        for i, e in enumerate(edge_terms):
            items.append((e, "e", i))
        items.sort(key=lambda x: x[0])
        cursor = 1
        block_off = {}
        edge_off = {}
        for _term, kind, i in items:
            if kind == "b":
                block_off[i] = cursor
                cursor += metas[i]["count"]
            else:
                edge_off[i] = cursor
                cursor += 1
        emits = [
            _dict_emit_block.remote(waves[b][0], block_off[b], n_shards,
                                    n_units, d, b)
            for b in range(len(waves)) if metas[b]["count"]
        ]
        if edge_terms:
            et_tbl = pa.table({"term": pa.array(edge_terms, pa.string()),
                               "df": pa.array(edge_dfs, pa.int64())})
            tid = pa.array([edge_off[i] for i in range(len(edge_terms))], pa.int64())
            shard_arr = _shard_col(et_tbl["term"].combine_chunks())
            et_tbl = (et_tbl.append_column("term_id", tid)
                      .append_column("shard", shard_arr))
            ug = shard_arr.to_numpy(zero_copy_only=False) % n_units
            import pyarrow.parquet as pq

            for u in np.unique(ug):
                ud = os.path.join(d, f"ugroup={u}")
                os.makedirs(ud, exist_ok=True)
                pq.write_table(et_tbl.filter(pa.array(ug == u)),
                               os.path.join(ud, "edges.parquet"))
        ray.get(emits)

    # NOT push-based: the dictionary sort moves ≤ n_blocks x vocab combiner
    # rows (tens of MB) — push-based scheduling overhead measured slower
    # (10.1 s vs 6.1 s pull-based at 2M docs)
    _stage(paths.dictionary, "dictionary", in_fp, resume, produce_dictionary)

    # ---- stage 4: postings — merge-unit jobs (int-keyed sorts) with
    # per-shard lineage manifests; resume re-runs ONLY incomplete units ----
    def produce_postings_sharded() -> None:
        import shutil
        from concurrent.futures import ThreadPoolExecutor

        from search_engine_ray.stages.merge import merge_shard_postings
        from search_engine_ray.stages.postings_file import ShardWriter, shard_file

        os.makedirs(paths.postings, exist_ok=True)

        def unit_shards(u: int) -> list[int]:
            # sgroup = hash % merge_units groups exactly the output shards
            # congruent to u (index_shards is a multiple of merge_units)
            return [k for k in range(n_shards) if k % n_units == u]

        def finish_shard(k: int) -> None:
            # a shard no postings hashed to still gets its (empty) file, so
            # every shard of a built index has exactly one
            path = shard_file(paths.postings, k)
            if not os.path.exists(path):
                ShardWriter(path, config.chunk_size, config.salt_span).close()

        def unit_complete(u: int) -> bool:
            return all(
                manifests.stage_complete(paths.postings_shard(k), in_fp)
                for k in unit_shards(u)
            )

        todo = [u for u in range(n_units) if not (resume and unit_complete(u))]
        # clean anything that is not a kept (resume, fingerprint-matching)
        # shard: stale flat files from an older layout or superseded shards
        # would otherwise be double-read by whole-dir consumers
        keep = {f"shard={k}" for u in range(n_units) if u not in set(todo)
                for k in unit_shards(u)}
        for entry in os.listdir(paths.postings):
            if entry in keep:
                continue
            p = os.path.join(paths.postings, entry)
            shutil.rmtree(p, ignore_errors=True)
            if os.path.isfile(p):  # rmtree skips plain files
                os.remove(p)
        if not todo:
            if not manifests.stage_complete(paths.postings, in_fp):
                # resume no-op: every unit already complete, only the
                # stage-level manifest was missing — zero merge work done
                manifests.write_manifest(paths.postings, "postings", in_fp,
                                         extra={"elapsed_s": 0.0,
                                                "resume_noop": True})
            return

        # The dictionary is hive-partitioned by merge unit (ugroup =
        # shard % merge_units): each unit job points its workers at
        # dictionary/ugroup=U and they load the slice once per process
        # (stages/merge.py:load_dict_slice_pa). NOTHING vocabulary-sized is
        # materialized on the driver.
        #
        # The slice-cache tag must change whenever the dictionary FILES
        # change, not just when in_fp does: for in-memory Dataset inputs
        # in_fp is content-blind ("<dataset>"), so an in-place rebuild
        # would reuse it and long-lived workers would serve build-1 slices
        # to build-2 runs. The dictionary manifest's partition listing
        # (paths carry Ray's per-execution write UUID) is fresh per
        # production and stable across resume skips — fingerprint that.
        dict_manifest = manifests.read_manifest(paths.dictionary) or {}
        slice_tag = manifests.fingerprint(
            in_fp, json.dumps(dict_manifest.get("partitions", []), sort_keys=True)
        )

        # FRESH build (every unit to do): ONE Ray Data execution merges all
        # units at once — concurrent per-unit executions serialize on the
        # driver's streaming-executor coordination (measured: 8 concurrent
        # unit jobs ~2.2s of work each took 17-19s wall at 32 CPUs; halving
        # the concurrency made the stage faster). See merge_units_postings.
        # The per-unit path below remains for partial RESUME, where only
        # incomplete units re-run.
        if len(todo) == n_units and os.environ.get("SE_RAY_MERGE_PER_UNIT") != "1":
            from search_engine_ray.stages.merge import merge_units_postings

            t0 = time.perf_counter()
            for u in todo:
                for k in unit_shards(u):
                    shutil.rmtree(paths.postings_shard(k), ignore_errors=True)
            have_units = [u for u in todo
                          if os.path.isdir(os.path.join(paths.runs, f"sgroup={u}"))
                          and os.path.isdir(os.path.join(paths.dictionary, f"ugroup={u}"))]
            if have_units:
                from search_engine_ray.stages.merge import (
                    dir_parquet_bytes, merge_units_task_path,
                    unit_task_threshold_bytes)

                unit_bytes = [dir_parquet_bytes(
                    os.path.join(paths.runs, f"sgroup={u}")) for u in have_units]
                if (max(unit_bytes) <= unit_task_threshold_bytes()
                        and os.environ.get("SE_RAY_MERGE_UNIT_TASK") != "0"):
                    # every unit fits one worker: one raw task per unit
                    # (in-memory sort, no shuffle) — see merge.py
                    merge_units_task_path(
                        paths.runs, paths.dictionary, have_units,
                        paths.postings, config=config, dict_slice_tag=slice_tag,
                    )
                else:
                    # fixed floor (not 4*ncpu): identical read-block plan at
                    # every cluster size — see the docs+runs stage note
                    merge_units_postings(
                        paths.runs, paths.dictionary, n_units, paths.postings,
                        config=config,
                        n_sort_blocks=int(os.environ.get("SE_RAY_BLOCK_FLOOR", "32")),
                        dict_slice_tag=slice_tag,
                    )
            el = round(time.perf_counter() - t0, 6)
            for k in range(n_shards):
                finish_shard(k)
                manifests.write_manifest(
                    paths.postings_shard(k), f"postings/shard={k}", in_fp)
            manifests.write_manifest(paths.postings, "postings", in_fp,
                                     extra={"elapsed_s": el})
            if os.environ.get("SE_RAY_TIMING"):
                print(f"[stage postings] {el:.1f}s "
                      f"(global, {n_units} units)", flush=True)
            return

        # concurrent unit jobs: more than the CPU budget just thrashes the
        # scheduler at low parallelism
        env_mw = os.environ.get("SE_RAY_MERGE_WORKERS")
        n_workers = (int(env_mw) if env_mw else
                     min(8, max(1, ncpu), max(1, len(todo))))
        n_sort_blocks = max(4, (2 * ncpu) // n_workers)

        def one_unit(u: int) -> None:
            from search_engine_ray.stages.merge import dir_parquet_bytes, size_aware_blocks

            t_u = time.perf_counter()
            shards = unit_shards(u)
            for k in shards:
                shutil.rmtree(paths.postings_shard(k), ignore_errors=True)
            group_dir = os.path.join(paths.runs, f"sgroup={u}")
            unit_dict_dir = os.path.join(paths.dictionary, f"ugroup={u}")
            if os.path.isdir(group_dir) and os.path.isdir(unit_dict_dir):
                # coalesce AT the read (each read task takes several files)
                # instead of a separate repartition pass after prep; block
                # count grows with the unit's data so no block exceeds the
                # streaming executor's comfortable size (stages/merge.py)
                runs_u = ray.data.read_parquet(
                    group_dir, columns=["term", "doc_id", "pos_enc"],
                    override_num_blocks=size_aware_blocks(
                        dir_parquet_bytes(group_dir), floor=n_sort_blocks),
                )
                merge_shard_postings(
                    runs_u, unit_dict_dir, paths.postings, config=config,
                    dict_slice_tag=slice_tag,
                )
            el_u = round(time.perf_counter() - t_u, 6)
            for k in shards:
                finish_shard(k)
                manifests.write_manifest(
                    paths.postings_shard(k), f"postings/shard={k}", in_fp,
                    extra={"elapsed_s": el_u, "merge_unit": u},
                )

        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=n_workers) as ex:
            futures = [ex.submit(one_unit, u) for u in todo]
            for f in futures:
                f.result()
        # stage-level manifest on top of the per-shard ones (written last:
        # its presence implies every shard completed for this fingerprint)
        manifests.write_manifest(paths.postings, "postings", in_fp,
                                 extra={"elapsed_s": round(time.perf_counter() - t0, 6)})
        if os.environ.get("SE_RAY_TIMING"):
            print(f"[stage postings] {time.perf_counter() - t0:.1f}s "
                  f"({len(todo)}/{n_units} units)", flush=True)

    with _push_based_shuffle():
        produce_postings_sharded()

    # ---- stage 5: corpus stats (one aggregation pass over the doc
    # metadata; doc_lengths are a column of docs/, not a separate copy —
    # engine and oracles read them with column pruning). Resume must check
    # the stored fingerprint, not just existence: a rebuild with different
    # input/config regenerates every stage and would otherwise keep stale
    # stats.json (wrong N/avgdl silently skews BM25). ----------------------
    def _stats_current() -> bool:
        try:
            return load_stats(out_dir).get("fingerprint") == in_fp
        except (FileNotFoundError, json.JSONDecodeError):
            return False

    if not (resume and _stats_current()):
        docs_rows = (manifests.read_manifest(paths.docs) or {}).get("num_rows") or 0
        if docs_rows <= 50_000_000:
            # small side: one column read, no Ray execution (8 B/doc)
            import pyarrow as pa
            import pyarrow.parquet as pq

            try:
                dl_col = pq.read_table(paths.docs, columns=["doc_length"])["doc_length"]
            except (pa.ArrowInvalid, KeyError):  # schema-less empty dir
                dl_col = pa.chunked_array([pa.array([], pa.int64())])
            import pyarrow.compute as pc

            num_docs = len(dl_col)
            total_tokens = int(pc.sum(dl_col).as_py() or 0)
        else:
            from ray.data.aggregate import Count, Sum

            lengths = ray.data.read_parquet(paths.docs, columns=["doc_length"])
            agg_row = lengths.aggregate(Count(alias_name="n"), Sum("doc_length", alias_name="s"))
            num_docs = int(agg_row["n"] or 0)
            total_tokens = int(agg_row["s"] or 0)
        stats = {
            "num_docs": num_docs,
            "total_tokens": total_tokens,
            "avgdl": (total_tokens / num_docs) if num_docs else 0.0,
            "config": {"chunk_size": config.chunk_size, "salt_span": config.salt_span,
                       "index_shards": n_shards,
                       "bm25_k1": config.bm25_k1, "bm25_b": config.bm25_b},
            "fingerprint": in_fp,
        }
        tmp = paths.stats + ".tmp"
        with open(tmp, "w") as f:
            json.dump(stats, f, indent=1)
        os.replace(tmp, paths.stats)

    return paths


def load_stats(out_dir: str) -> dict:
    with open(IndexPaths(out_dir).stats) as f:
        return json.load(f)
