"""Postings merge: sorted runs → one flat postings file per hash shard.

The reference merges sorted SPIMI runs with a k-way smallest-term loop
(/root/reference/src/indexer/spimi.rs:50-121) and writes 64 KB blocks of
≤128-posting VB-compressed chunks, each chunk recording max_doc_id as a skip
pointer (/root/reference/src/indexer/index_merge_writer.rs:126-200,
chunk.rs:5-15). Here an in-memory sort (one task per merge unit) or a
range-partitioned sort whose blocks write part files, joined per shard,
IS the merge:

    runs rows (term, doc_id, pos_enc) ──term → term_id, shard──►
    sort(shard, term_id, doc_id) ──► postings/shard=K/postings.bin

Every path writes through one encoder (stages/postings_file.py): a term is
one contiguous record — VB doc gaps and tfs, then its runs' ``pos_enc``
bytes — addressed by the shard's term table, so serving reads one byte
range per term (query/locator.py).

The reference's chunk rows (≤chunk_size postings of a ``(term, salt)``
group, ``salt = doc_id // salt_span``) are not stored: a term is one
record. The build's ``chunk_size`` and ``salt_span`` ride in each shard
file's footer, so index statistics can still count them
(postings_file.shard_term_stats), and index-wide consumers read decoded
posting rows (postings_file.read_posting_rows).

Unlike the reference we never use a 0x00 delimiter (its parsing breaks on
gaps ≥ 16384 — vb_encode.rs:91-103, SURVEY.md §2.7 C5); counts are
explicit. Dense 1-based term_ids live in dictionary.parquet for rank/oracle
parity (spimi.rs:60,76,95); the term string never rides a shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from search_engine_ray.config import EngineConfig

#: process-global (term, term_id, shard) slice cache, keyed by the unit's
#: hive dir — each WORKER process reads its merge unit's dictionary slice
#: once from shared storage (vocab/merge_units entries), instead of the
#: driver materializing the whole vocabulary and ray.put-ing per-unit
#: copies. This is the extreme-vocab seam as code: nothing driver-side
#: scales with vocabulary size.
_DICT_SLICE_CACHE: dict[tuple[str, str], tuple] = {}


def _dict_slice_entry(unit_dir: str, tag: str) -> tuple:
    """Cached (terms object[], term_ids int64[], shards int64[], terms_pa
    StringArray) of one merge unit's dictionary slice, sorted by term_id
    (== term string order)."""
    key = (unit_dir, tag)
    ent = _DICT_SLICE_CACHE.get(key)
    if ent is None:
        import pyarrow.parquet as pq

        t = pq.read_table(unit_dir, columns=["term", "term_id", "shard"],
                          use_threads=False)
        tids = t["term_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        shards = t["shard"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(tids)
        terms_pa = (t["term"].combine_chunks().cast(pa.string())
                    .take(pa.array(order)))
        # the object-array view (np path) is built LAZILY on first use: the
        # Arrow-path consumers (unit-task merge, prep) never pay the
        # to_pylist of the whole slice
        ent = [None, tids[order], shards[order], terms_pa]
        if len(_DICT_SLICE_CACHE) >= 4:  # a worker serves few units at a time
            _DICT_SLICE_CACHE.clear()
        _DICT_SLICE_CACHE[key] = ent
    return ent


def load_dict_slice(unit_dir: str, tag: str = "") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(terms object[], term_ids int64[], shards int64[]) of one merge
    unit's dictionary slice, sorted by term_id (== term string order).

    ``tag`` must change whenever the dictionary is regenerated in place
    (the build passes its input fingerprint) — a rebuild into the same
    out_dir would otherwise serve a stale slice from this cache and the
    prep lookup guard below would fire on phantom "missing" terms."""
    ent = _dict_slice_entry(unit_dir, tag)
    if ent[0] is None:
        ent[0] = np.asarray(ent[3].to_pylist(), dtype=object)
    return ent[0], ent[1], ent[2]


def load_dict_slice_pa(unit_dir: str, tag: str = "") -> tuple[pa.StringArray, np.ndarray, np.ndarray]:
    """(terms StringArray, term_ids int64[], shards int64[]) — the Arrow
    view of the same cached slice, for hash-based ``pc.index_in`` lookups
    (several times faster than np.searchsorted over object arrays)."""
    ent = _dict_slice_entry(unit_dir, tag)
    return ent[3], ent[1], ent[2]


#: target PARQUET bytes per sort-input block (Arrow in memory is ~3x). The
#: sort-block count must scale with DATA, not only with CPUs: two ~250 MB
#: prep blocks per merge unit put ~3.4 GB per operator into the streaming
#: executor's per-op memory budget and it throttled the whole DAG to ONE
#: running task (measured on a 2M-doc corpus at 8 CPUs: >20 min, load ~1,
#: `task_output_backpressure_time` 950 s — vs ~35 s for the same stage at
#: 480k docs where the blocks were 4x smaller).
_SORT_BLOCK_PARQUET_BYTES = 32 << 20


def dir_parquet_bytes(d: str) -> int:
    """Total bytes of .parquet files under ``d`` (recursive); ``d`` may
    also be a single file."""
    import os

    if os.path.isfile(d):
        return os.path.getsize(d)
    total = 0
    for dp, _dirs, files in os.walk(d):
        for f in files:
            if f.endswith(".parquet"):
                try:
                    total += os.path.getsize(os.path.join(dp, f))
                except OSError:  # pragma: no cover - racing writer
                    pass
    return total


def size_aware_blocks(parquet_bytes: int, floor: int) -> int:
    """Sort-input block count bounded by DATA on both sides: no block over
    ``target`` bytes (oversized blocks blow the streaming executor's per-op
    budget), and the CPU-driven ``floor`` is capped so tiny inputs don't
    shatter into a small-block storm (each block ≥ ~target/8)."""
    import math
    import os

    target = int(os.environ.get(
        "SE_RAY_SORT_BLOCK_PARQUET_BYTES", _SORT_BLOCK_PARQUET_BYTES))
    parquet_bytes = max(0, parquet_bytes)
    by_size = math.ceil(parquet_bytes / max(1, target))
    cpu_floor = min(floor, max(2, math.ceil(parquet_bytes / max(1, target // 8))))
    return max(cpu_floor, by_size, 2)


#: per-unit parquet-bytes ceiling for the single-task merge path: a unit at
#: this size is ~3x in Arrow plus one sort copy — comfortably inside one
#: worker's heap. Units larger than this take the shuffle path
#: (merge_units_postings).
_UNIT_TASK_PARQUET_BYTES = 160 << 20


def _term_id_rows(batch: pa.Table, unit_dir: str, tag: str, unit) -> pa.Table:
    """Runs rows (term, doc_id, pos_enc) of one merge unit → (shard,
    term_id, doc_id, pos_enc) through the unit's dictionary slice. Every
    run term must be in the slice (built from these runs): a stale resume
    artifact or slice mixup fails loudly here instead of merging postings
    into a neighbouring term's list."""
    terms_pa, tids_np, shards_np = load_dict_slice_pa(unit_dir, tag)
    tcol = batch["term"].combine_chunks()
    pos = pc.index_in(tcol, value_set=terms_pa)
    if pos.null_count:
        missing = pc.unique(tcol.filter(pc.is_null(pos)))
        raise ValueError(
            f"run term(s) missing from unit {unit} dictionary slice: "
            f"{missing.to_pylist()[:5]} (stale runs or wrong slice?)")
    idx = pos.to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        "shard": pa.array(shards_np[idx], pa.int64()),
        "term_id": pa.array(tids_np[idx], pa.int64()),
        "doc_id": batch["doc_id"],
        "pos_enc": batch["pos_enc"],
    })


def _terms_of(unit_dir: str, tag: str):
    """term_ids → their term strings, through the unit's dictionary slice."""
    terms_pa, tids_np, _ = load_dict_slice_pa(unit_dir, tag)
    return lambda codes: terms_pa.take(pa.array(np.searchsorted(tids_np, codes)))


@ray.remote
def _merge_unit_to_shards(
    runs_unit_dir: str,
    dict_unit_dir: str,
    tag: str,
    chunk_size: int,
    salt_span: int,
    postings_dir: str,
) -> dict:
    """ONE merge unit in ONE task: read the unit's runs, map terms to
    term_ids, sort (shard, term_id, doc_id) in memory and write each of the
    unit's shards as one flat file (stages/postings_file.py). A shard's rows
    come from exactly one unit (shard % merge_units == unit).

    This is the fresh-build fast path when every unit fits one worker's
    heap (``_UNIT_TASK_PARQUET_BYTES``): no shuffle, no sort exchange, no
    barrier — n_units embarrassingly parallel tasks, which is also the
    shape that scales cleanly with cluster size. Larger units fall back to
    the global shuffle (merge_units_postings). At real scale the
    per-node analog is the same: a unit that fits a node merges locally;
    only oversized units pay the exchange.

    Rows are taken and encoded in slices of whole terms
    (postings_file.write_shard_file), not the whole unit at once: whole-
    unit processing faulted ~2 GB of first-touch temporaries per task, and
    32 fresh workers doing that simultaneously contended the kernel page
    allocator hard enough that identical tasks ran 6-20x slower (measured:
    per-phase minor-fault counts). Slices reuse the same glibc arenas
    task-over-task, so fault volume tracks the slice, not the unit."""
    import os
    import time

    import pyarrow.parquet as pq

    from search_engine_ray.stages.postings_file import shard_file, write_shard_file

    ph = {"t_start": time.time(), "cpu0": time.process_time()}
    t0 = time.perf_counter()
    # single-threaded read: n_units of these tasks run concurrently, one
    # core each — Arrow's default pool (os.cpu_count() threads PER task)
    # oversubscribes the node ~measured 3x slower wall for the wave
    t = pq.read_table(
        runs_unit_dir, columns=["term", "doc_id", "pos_enc"], use_threads=False)
    ph["read"] = time.perf_counter() - t0
    try:
        unit = int(os.path.basename(runs_unit_dir.rstrip("/")).split("=", 1)[1])
    except (IndexError, ValueError):  # pragma: no cover - layout is ours
        unit = 0
    if t.num_rows == 0:
        ph.update(rows=0, unit=unit)
        return ph
    rows = _term_id_rows(t, dict_unit_dir, tag, unit)
    shards = rows["shard"].to_numpy()
    tids = rows["term_id"].to_numpy()
    t1 = time.perf_counter()
    order = np.lexsort((rows["doc_id"].to_numpy(zero_copy_only=False), tids, shards))
    ph["sort"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    sorted_shards = shards[order]
    cuts = np.flatnonzero(np.diff(sorted_shards)) + 1
    terms_of = _terms_of(dict_unit_dir, tag)
    written = 0
    for a, b in zip(np.append(0, cuts), np.append(cuts, len(order))):
        written += write_shard_file(
            shard_file(postings_dir, int(sorted_shards[a])), rows, tids, order[a:b],
            terms_of, chunk_size, salt_span)
    ph["write"] = time.perf_counter() - t2
    ph.update(rows=written, unit=unit, total=time.perf_counter() - t0,
              cpu=time.process_time() - ph.pop("cpu0"), t_end=time.time())
    return ph


def merge_units_task_path(
    runs_dir: str,
    dictionary_dir: str,
    units: list[int],
    postings_dir: str,
    config: EngineConfig | None = None,
    dict_slice_tag: str = "",
) -> list[int]:
    """Launch one ``_merge_unit_to_shards`` task per unit; returns per-unit
    posting counts. Caller is responsible for choosing this path only when
    every unit is under ``unit_task_threshold_bytes()``."""
    import os

    config = config or EngineConfig()
    refs = [
        _merge_unit_to_shards.remote(
            os.path.join(runs_dir, f"sgroup={u}"),
            os.path.join(dictionary_dir, f"ugroup={u}"),
            dict_slice_tag, config.chunk_size, config.salt_span, postings_dir,
        )
        for u in units
    ]
    phases = ray.get(refs)
    if os.environ.get("SE_RAY_TIMING"):
        base = min(p["t_start"] for p in phases)
        for p in phases:
            print(
                f"[ unit {p.get('unit')}] start+{p['t_start'] - base:.1f}s "
                f"read={p.get('read', 0):.1f} sort={p.get('sort', 0):.1f} "
                f"write={p.get('write', 0):.1f} total={p.get('total', 0):.1f} "
                f"cpu={p.get('cpu', 0):.1f}",
                flush=True,
            )
    return [p.get("rows", 0) for p in phases]


def unit_task_threshold_bytes() -> int:
    import os

    return int(os.environ.get(
        "SE_RAY_UNIT_TASK_PARQUET_BYTES", _UNIT_TASK_PARQUET_BYTES))


@ray.remote
def _join_shard_parts(path: str, parts: list[str]) -> int:
    from search_engine_ray.stages.postings_file import join_shard_parts

    return join_shard_parts(path, parts)


#: bits of the packed sort key reserved for term_id (key = shard <<
#: _KEY_TID_BITS | term_id): one int64 key column instead of two keeps
#: the sort payload at (key, doc_id, pos_enc) — up to 2^44 terms and
#: 2^19 shards
_KEY_TID_BITS = 44


def _write_sorted_shards(rows_ds, postings_dir: str, dict_dir_of, tag: str,
                         config: EngineConfig) -> list[int]:
    """Range-partitioned sort of (shard, term_id, doc_id, pos_enc) rows on
    (shard, term_id, doc_id); each sorted block writes one part file per
    shard it touches through the shard encoder (write_shard_file), named by
    its first (term_id, doc_id) key, then each shard's parts are joined in
    key order into its file (postings_file.join_shard_parts: records are
    copied as bytes; a term split across blocks is spliced). No task holds
    more than one sorted block (writers) or one term fragment (joiners), so
    a unit larger than one worker's heap merges in bounded memory, over as
    many tasks as it has blocks. ``dict_dir_of(shard)`` names the
    dictionary slice holding the shard's terms. → per-shard posting
    counts."""
    import os

    from search_engine_ray.stages.postings_file import shard_file, write_shard_file

    chunk_size, salt_span = config.chunk_size, config.salt_span
    tid_mask = np.int64((1 << _KEY_TID_BITS) - 1)

    def pack_key(batch: pa.Table) -> pa.Table:
        shards = batch["shard"].to_numpy(zero_copy_only=False)
        tids = batch["term_id"].to_numpy(zero_copy_only=False)
        if len(tids) and (tids.max() > tid_mask or shards.max() >= 1 << (63 - _KEY_TID_BITS)):
            raise ValueError("term_id or shard overflows the packed sort key")
        return pa.table({"key": pa.array((shards << _KEY_TID_BITS) | tids, pa.int64()),
                         "doc_id": batch["doc_id"], "pos_enc": batch["pos_enc"]})

    def write_parts(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        if batch.num_rows == 0:
            return pa.table({"shard": pa.array([], pa.int64()),
                             "part": pa.array([], pa.string())})
        keys = batch["key"].to_numpy(zero_copy_only=False)
        shards, tids = keys >> _KEY_TID_BITS, keys & tid_mask
        docs = batch["doc_id"].to_numpy(zero_copy_only=False)
        cuts = np.flatnonzero(np.diff(shards)) + 1
        out_shards, out_parts = [], []
        for a, b in zip(np.append(0, cuts), np.append(cuts, len(shards))):
            k = int(shards[a])
            part = os.path.join(postings_dir, f"shard={k}",
                                f"part-{tids[a]:020d}-{docs[a]:020d}.bin")
            write_shard_file(part, batch.slice(a, b - a), tids[a:b], None,
                             _terms_of(dict_dir_of(k), tag), chunk_size, salt_span)
            out_shards.append(k)
            out_parts.append(part)
        return pa.table({"shard": pa.array(out_shards, pa.int64()),
                         "part": pa.array(out_parts, pa.string())})

    written = rows_ds.map_batches(pack_key, batch_format="pyarrow").sort(
        ["key", "doc_id"]).map_batches(
        write_parts, batch_format="pyarrow", batch_size=None).take_all()
    parts: dict[int, list[str]] = {}
    for r in written:
        parts.setdefault(r["shard"], []).append(r["part"])
    return ray.get([_join_shard_parts.remote(shard_file(postings_dir, k), sorted(ps))
                    for k, ps in sorted(parts.items())])


def merge_units_postings(
    runs_dir: str,
    dictionary_dir: str,
    n_units: int,
    postings_dir: str,
    config: EngineConfig | None = None,
    n_sort_blocks: int = 0,
    dict_slice_tag: str = "",
) -> list[int]:
    """Single-execution merge of ALL merge units at once (the fresh-build
    path for units too large for one task) → the shard files under
    ``postings_dir``; returns per-shard posting counts.

    ``merge_units`` concurrent per-unit executions (one Ray Data job per
    unit in driver threads) serialize on the driver's streaming-executor
    coordination: at 32 CPUs, 8 concurrent unit jobs ran ~2.2s of work each
    in 17s wall, and halving the concurrency made the stage FASTER. One
    sort over (shard, term_id, doc_id) does the same merge at full
    parallelism in bounded memory (_write_sorted_shards): a prep worker
    loads only the dictionary slices of the units its blocks come from
    (load_dict_slice_pa), and a block's writer only the slices of the
    shards it touches — nothing vocabulary-sized per worker, exactly like
    the per-unit path (which remains for partial resume, where only
    incomplete units re-run). The term string never rides the shuffle:
    int64 term ids do.

    ONE hive read over ``runs_dir`` (sgroup is the partition column) feeds
    ONE prep operator — the DAG is read → prep → sort → write parts, then
    one join task per shard with several parts.
    The earlier shape (one read+prep branch per unit union-ed together) was
    2·n_units+3 operators; the streaming executor reserves memory per
    operator, and at 2M docs the per-op slivers backpressured the whole
    pipeline to ~1 concurrent task. Block count is size-aware
    (size_aware_blocks) for the same reason.
    """
    import os

    config = config or EngineConfig()
    if not any(os.path.isdir(os.path.join(runs_dir, f"sgroup={u}"))
               for u in range(n_units)):
        return []

    def prep(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        sg_col = batch["sgroup"]
        if pa.types.is_dictionary(sg_col.type):
            sg_col = sg_col.cast(sg_col.type.value_type)
        if not pa.types.is_integer(sg_col.type):
            sg_col = pc.cast(sg_col, pa.int64())  # hive values parse as strings
        sg = sg_col.to_numpy(zero_copy_only=False).astype(np.int64)
        units = np.unique(sg)
        # read tasks pack whole files, so most batches are unit-pure — the
        # filter only copies when a block straddles hive dirs
        return pa.concat_tables([
            _term_id_rows(batch if len(units) == 1 else batch.filter(pa.array(sg == u)),
                          os.path.join(dictionary_dir, f"ugroup={u}"), dict_slice_tag, u)
            for u in units])

    n_blocks = size_aware_blocks(
        dir_parquet_bytes(runs_dir), floor=max(2, n_sort_blocks))
    # read the hive ROOT so sgroup materializes as a partition column
    # (reading the sgroup= subdirs directly would lose it); _MANIFEST.json
    # is skipped by dataset discovery (underscore prefix)
    runs_ds = ray.data.read_parquet(
        runs_dir,
        columns=["term", "doc_id", "pos_enc", "sgroup"],
        override_num_blocks=n_blocks,
    )
    return _write_sorted_shards(
        runs_ds.map_batches(prep, batch_format="pyarrow"), postings_dir,
        lambda shard: os.path.join(dictionary_dir, f"ugroup={shard % n_units}"),
        dict_slice_tag, config)


def merge_shard_postings(
    runs_unit_ds,
    dict_slice_dir: str,
    postings_dir: str,
    config: EngineConfig | None = None,
    dict_slice_tag: str = "",
) -> list[int]:
    """Merge ONE merge unit's runs (the per-unit resume path) → the shard
    files of the unit's shards under ``postings_dir``; returns per-shard
    posting counts.

    Same sort-and-join as the fresh-build path (_write_sorted_shards),
    over one unit. The shuffle payload is (shard, term_id, doc_id,
    pos_enc) — the term
    STRING never moves through it (the measured merge bottleneck is
    object-store bandwidth, and repeated UTF-8 terms were ~40% of the
    payload). Each WORKER loads the unit's (term → term_id, shard) slice
    once per process from ``dict_slice_dir`` (the unit's hive dir under
    ``dictionary/``, load_dict_slice_pa); the driver never touches the
    vocabulary. Term strings are re-attached per shard at write time
    (term_id is the dense rank of the globally sorted term, so (term_id,
    doc_id) order == (term, doc_id) order)."""
    config = config or EngineConfig()
    prepped = runs_unit_ds.map_batches(
        lambda b: _term_id_rows(b, dict_slice_dir, dict_slice_tag, dict_slice_dir),
        batch_format="pyarrow")
    return _write_sorted_shards(prepped, postings_dir, lambda _shard: dict_slice_dir,
                                dict_slice_tag, config)
