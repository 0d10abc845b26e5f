"""Incremental (segment) indexing over the pipelines/build.py layout.

The reference rebuilds its index from scratch every run (its SPIMI build has
no notion of adding documents to an existing index). At 10^12 documents a
full rebuild per delta is not an option, so this module adds the standard
Lucene-style segment model on top of the existing build:

* ``add_segment(pages, root)`` builds a COMPLETE, self-contained index
  (the ordinary build_index stages — runs → dictionary → sharded postings →
  stats) under ``root/segments/seg-NNNNN``, with ``doc_id_base`` offset so
  doc_ids stay globally unique across segments. Appending never touches
  existing segments: each delta pays only its own build.
* ``delete_docs(root, ids)`` records tombstones (a DELETE-list — O(deletes),
  never corpus-sized; the same lesson as corpus_clean's drop-list).
  Serving drops them at the merged postings read
  (query/segmented.py:SegmentedSearchEngine._read_postings_many); stats keep
  counting deleted docs until compaction, exactly like Lucene's deleted docs.
* ``compact(root)`` merges every segment (minus tombstoned postings) into
  ONE new segment and resets the tombstone list. Each segment's postings
  are read back as decoded rows (read_posting_rows, one read task per
  shard file; ``pos_enc`` is sliced from the records, never decoded) into
  the exact runs schema (term, doc_id, pos_enc, sgroup) the merge stages
  consume. Compaction then just resumes build_index with the stage-1
  artifacts pre-written: the dictionary/postings/stats stages run unchanged,
  so a compacted index is BYTE-COMPATIBLE with a fresh build (pytest asserts
  identical dictionary and postings files for the no-delete case).

Scale notes: segments are independent (build cost ∝ delta size); compaction
streams posting rows per segment through map_batches — nothing corpus-sized
on the driver; the tombstone broadcast is O(deletes). The segments.json root
manifest is tiny (one entry per segment) and written atomically.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import ray
import ray.data

from search_engine_ray.config import EngineConfig
from search_engine_ray.functions.hashing import hash_strings_arrow
from search_engine_ray.pipelines.build import IndexPaths, build_index, load_stats
from search_engine_ray.stages.postings_file import read_posting_rows
from search_engine_ray.state import manifests

SEGMENTS_FILE = "segments.json"
TOMBSTONES_FILE = "tombstones.json"

#: runs schema (build.py _stamp_and_tokenize output) the compactor must emit
_RUNS_EMPTY = pa.table({
    "term": pa.array([], pa.string()),
    "doc_id": pa.array([], pa.int64()),
    "pos_enc": pa.array([], pa.binary()),
    "sgroup": pa.array([], pa.int64()),
})


# ---------------------------------------------------------------------------
# root manifest + tombstones
# ---------------------------------------------------------------------------


def read_segments(root: str) -> list[dict]:
    try:
        with open(os.path.join(root, SEGMENTS_FILE)) as f:
            return json.load(f)["segments"]
    except (FileNotFoundError, json.JSONDecodeError):
        return []


def _write_segments(root: str, segments: list[dict]) -> None:
    p = os.path.join(root, SEGMENTS_FILE)
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"segments": segments}, f, indent=1)
    os.replace(tmp, p)


def segment_dir(root: str, name: str) -> str:
    return os.path.join(root, "segments", name)


def load_tombstones(root: str) -> np.ndarray:
    try:
        with open(os.path.join(root, TOMBSTONES_FILE)) as f:
            return np.asarray(sorted(json.load(f)["doc_ids"]), np.int64)
    except (FileNotFoundError, json.JSONDecodeError):
        return np.zeros(0, np.int64)


def _write_tombstones(root: str, doc_ids: np.ndarray) -> None:
    p = os.path.join(root, TOMBSTONES_FILE)
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"doc_ids": [int(i) for i in doc_ids]}, f)
    os.replace(tmp, p)


def delete_docs(root: str, doc_ids) -> np.ndarray:
    """Record tombstones (idempotent union); returns the full sorted list."""
    new = np.union1d(load_tombstones(root),
                     np.asarray(list(doc_ids), np.int64))
    _write_tombstones(root, new)
    return new


# ---------------------------------------------------------------------------
# append
# ---------------------------------------------------------------------------


def _next_name(segs: list[dict]) -> str:
    """Monotone segment naming: one past the largest existing suffix —
    never recycles a name, even after subset compactions shrink the list."""
    mx = -1
    for s in segs:
        try:
            mx = max(mx, int(s["name"].rsplit("-", 1)[1]))
        except (IndexError, ValueError):  # pragma: no cover - foreign names
            pass
    return f"seg-{mx + 1:05d}"


def _id_watermark(s: dict) -> int:
    """One past the highest doc_id ever allocated to this segment's id
    space. Plain segments derive it from base + num_docs; compacted
    segments CARRY it ("id_watermark") because deletions shrink num_docs
    below the allocated span and a derived watermark would recycle ids
    that tombstones or external references may still mention."""
    return int(s.get("id_watermark", s["doc_id_base"] + s["num_docs"]))


def _id_intervals(s: dict) -> list[list[int]]:
    """The exact id spans ever allocated to this entry, as half-open
    ``(lo, hi]`` pairs (doc_ids are 1-based). Plain segments own one
    contiguous span; compacted entries CARRY the union of their
    constituents' spans ("id_intervals") because a non-contiguous subset
    merge (e.g. plan_merges grouping small segments that interleave with a
    big one in id space) must NOT claim the gap ids — a collapsed
    (doc_id_base, id_watermark] span would swallow kept segments'
    tombstones at the next compaction and resurrect their deleted docs."""
    ivs = s.get("id_intervals")
    if ivs is not None:
        return [[int(lo), int(hi)] for lo, hi in ivs]
    return [[int(s["doc_id_base"]), _id_watermark(s)]]


def _coalesce_intervals(intervals: list[list[int]]) -> list[list[int]]:
    """Sort + merge touching/overlapping ``(lo, hi]`` pairs so interval
    lists stay O(original segments) across repeated merges (adjacent spans
    collapse; only genuine id-space gaps survive)."""
    out: list[list[int]] = []
    for lo, hi in sorted((int(lo), int(hi)) for lo, hi in intervals):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def add_segment(pages, root: str, config: EngineConfig | None = None,
                resume: bool = True) -> str:
    """Build the next segment from ``pages`` (path or Dataset of the
    input_hint webpages schema); returns the segment directory.

    doc_ids continue after the last segment's range, so urls must be unique
    ACROSS segments for determinism, and (unlike a full rebuild) doc_id
    order reflects segment arrival order, then url order within a segment —
    the standard incremental-index contract."""
    config = config or EngineConfig()
    segs = read_segments(root)
    base = max((_id_watermark(s) for s in segs), default=0)
    name = _next_name(segs)
    out = segment_dir(root, name)
    os.makedirs(out, exist_ok=True)
    build_index(pages, out, config, resume=resume, doc_id_base=base)
    st = load_stats(out)
    segs.append({
        "name": name,
        "doc_id_base": base,
        "num_docs": st["num_docs"],
        "total_tokens": st["total_tokens"],
    })
    _write_segments(root, segs)
    return out


# ---------------------------------------------------------------------------
# compaction: posting rows → runs rows
# ---------------------------------------------------------------------------


def _runs_rows(batch: pa.Table, n_units: int, drop_ref=None) -> pa.Table:
    """Runs rows of positional posting rows (read_posting_rows): the term
    strings, doc ids and ``pos_enc`` bytes as they are, ``sgroup`` hashed
    once per term (like the tokenizer), tombstoned docs dropped."""
    if batch.num_rows == 0:
        return _RUNS_EMPTY
    tcol = batch["term"].combine_chunks()
    sg_u = (hash_strings_arrow(tcol.dictionary) % np.uint64(n_units)).astype(np.int64)
    codes = tcol.indices.to_numpy(zero_copy_only=False)
    out = pa.table({
        "term": tcol.dictionary.take(tcol.indices),
        "doc_id": batch["doc_id"],
        "pos_enc": batch["pos_enc"],
        "sgroup": pa.array(sg_u[codes], pa.int64()),
    })
    if drop_ref is not None:
        drop = ray.get(drop_ref)
        keep = ~np.isin(batch["doc_id"].to_numpy(), drop)
        if not keep.all():
            out = out.filter(pa.array(keep))
    return out


def compact(root: str, config: EngineConfig | None = None,
            names: list[str] | None = None) -> str:
    """Merge segments (minus tombstoned docs) into one new segment —
    all of them by default, or the subset ``names`` (the primitive a merge
    POLICY drives; see :func:`plan_merges` / :func:`auto_compact`).

    Writes the stage-1 artifacts (runs/, docs/, dict_partials/) from the
    selected segments' postings + doc tables, stamps their manifests, then
    resumes build_index — the dictionary, postings-merge and stats stages
    run exactly as in a fresh build, so the compacted segment is
    value-identical to a from-scratch index over the surviving docs (with
    the original doc_ids kept, which a fresh build reproduces whenever no
    doc was deleted). Subset merges keep the other segments untouched:
    tombstones inside the merged id ranges are physically dropped and
    removed from the root tombstone list, the rest stay; the new entry
    carries the merged segments' id watermark so future appends never
    recycle a deleted doc's id."""
    config = config or EngineConfig()
    segs = read_segments(root)
    if not segs:
        raise ValueError(f"no segments under {root}")
    if names is None:
        selected, kept = segs, []
    else:
        want = set(names)
        selected = [s for s in segs if s["name"] in want]
        if len(selected) != len(want):
            missing = want - {s["name"] for s in selected}
            raise ValueError(f"unknown segment names: {sorted(missing)}")
        kept = [s for s in segs if s["name"] not in want]
    tombs_all = load_tombstones(root)
    sel_ivals = _coalesce_intervals(
        [iv for s in selected for iv in _id_intervals(s)])
    in_sel = np.zeros(len(tombs_all), bool)
    for lo, hi in sel_ivals:
        in_sel |= (tombs_all > lo) & (tombs_all <= hi)  # doc_ids are 1-based
    tombs = tombs_all[in_sel]
    n_units = min(config.merge_units, config.index_shards)
    name = _next_name(segs)
    out = segment_dir(root, name)
    paths = IndexPaths(out)
    sentinel = "<compact:%s:%s>" % (
        ",".join(s["name"] for s in selected),
        manifests.fingerprint(*(int(t) for t in tombs)) if len(tombs) else "none",
    )
    # must mirror build_index's fingerprint derivation exactly (doc_id_base=0)
    cfg_fp = manifests.fingerprint(config, 0)
    in_fp = manifests.fingerprint(sentinel, cfg_fp)

    for d in (paths.runs, paths.docs, paths.dict_partials):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d, exist_ok=True)
    shutil.rmtree(paths.postings, ignore_errors=True)
    shutil.rmtree(paths.dictionary, ignore_errors=True)

    drop_ref = ray.put(np.sort(tombs)) if len(tombs) else None
    seg_dirs = [segment_dir(root, s["name"]) for s in selected]

    # runs: every segment's posting rows, as runs rows
    runs_parts = [read_posting_rows(IndexPaths(d).postings, positions=True).map_batches(
        lambda b: _runs_rows(b, n_units, drop_ref), batch_format="pyarrow")
        for d in seg_dirs]
    runs = runs_parts[0]
    for p in runs_parts[1:]:
        runs = runs.union(p)
    runs.write_parquet(paths.runs, partition_cols=["sgroup"])

    # docs: union of segment doc tables, tombstones dropped
    def doc_filter(b: pa.Table) -> pa.Table:
        b = b.combine_chunks()
        if drop_ref is None or b.num_rows == 0:
            return b
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        keep = ~np.isin(ids, ray.get(drop_ref))
        return b if keep.all() else b.filter(pa.array(keep))

    docs_parts = [ray.data.read_parquet(IndexPaths(d).docs,
                                        columns=["doc_id", "url", "doc_length"])
                  for d in seg_dirs]
    docs = docs_parts[0]
    for p in docs_parts[1:]:
        docs = docs.union(p)
    docs.map_batches(doc_filter, batch_format="pyarrow").write_parquet(paths.docs)

    # dict_partials: per-block (term, df_part) combiners from the new runs
    def partials(b: pa.Table) -> pa.Table:
        b = b.combine_chunks()
        if b.num_rows == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "df_part": pa.array([], pa.int64())})
        enc = b["term"].dictionary_encode().combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        cnt = np.bincount(codes, minlength=len(enc.dictionary))
        return pa.table({"term": enc.dictionary.cast(pa.string()),
                         "df_part": pa.array(cnt.astype(np.int64), pa.int64())})

    import glob as _glob

    if _glob.glob(os.path.join(paths.runs, "**", "*.parquet"), recursive=True):
        ray.data.read_parquet(paths.runs, columns=["term"]).map_batches(
            partials, batch_format="pyarrow").write_parquet(paths.dict_partials)

    # schema-stable empties (mirrors build_index._ensure_nonempty)

    import pyarrow.parquet as _pq

    if not _glob.glob(os.path.join(paths.docs, "**", "*.parquet"), recursive=True):
        _pq.write_table(pa.table({"doc_id": pa.array([], pa.int64()),
                                  "url": pa.array([], pa.string()),
                                  "doc_length": pa.array([], pa.int64())}),
                        os.path.join(paths.docs, "empty.parquet"))
    if not _glob.glob(os.path.join(paths.dict_partials, "**", "*.parquet"),
                      recursive=True):
        _pq.write_table(pa.table({"term": pa.array([], pa.string()),
                                  "df_part": pa.array([], pa.int64())}),
                        os.path.join(paths.dict_partials, "empty.parquet"))

    manifests.write_manifest(paths.docs, "docs", in_fp)
    manifests.write_manifest(paths.dict_partials, "dict_partials", in_fp)
    manifests.write_manifest(paths.runs, "runs", in_fp)

    # stages 3–5 (dictionary, postings merge, stats) run as a normal resume
    build_index(sentinel, out, config, resume=True)

    st = load_stats(out)
    entry = {
        "name": name,
        "doc_id_base": min(s["doc_id_base"] for s in selected),
        "num_docs": st["num_docs"],
        "total_tokens": st["total_tokens"],
        "id_watermark": max(_id_watermark(s) for s in selected),
        # exact membership spans — see _id_intervals for why a collapsed
        # (base, watermark] span is wrong after non-contiguous merges
        "id_intervals": sel_ivals,
    }
    _write_segments(root, sorted(kept + [entry], key=lambda s: s["doc_id_base"]))
    p = os.path.join(root, TOMBSTONES_FILE)
    if os.path.exists(p):
        remaining = tombs_all[~in_sel]
        if len(remaining):
            _write_tombstones(root, remaining)
        else:
            os.remove(p)
    # old segments stay on disk until explicitly removed (crash-safe: the
    # manifest flip above is the commit point)
    for d in seg_dirs:
        shutil.rmtree(d, ignore_errors=True)
    return out


def plan_merges(segments: list[dict], merge_factor: int = 4) -> list[list[str]]:
    """Log-structured merge planner (the LogDocMergePolicy shape Lucene
    shipped for years): segments bucket into LEVELS by
    floor(log_{merge_factor}(num_docs)); whenever a level holds ≥
    merge_factor segments, its merge_factor oldest (lowest doc_id_base)
    members merge into one — the merged result lands roughly one level up,
    so write amplification stays O(log N / log merge_factor) per doc while
    the segment count stays bounded at O(merge_factor · levels).

    Pure and deterministic over the manifest; returns name-lists for
    :func:`compact` (empty = nothing to do)."""
    import math

    if merge_factor < 2:
        raise ValueError("merge_factor must be >= 2")
    levels: dict[int, list[dict]] = {}
    for s in segments:
        n = max(1, int(s["num_docs"]))
        levels.setdefault(int(math.log(n) // math.log(merge_factor)), []).append(s)
    plans = []
    for lvl in sorted(levels):
        group = sorted(levels[lvl], key=lambda s: (s["doc_id_base"], s["name"]))
        while len(group) >= merge_factor:
            plans.append([s["name"] for s in group[:merge_factor]])
            group = group[merge_factor:]
    return plans


def auto_compact(root: str, config: EngineConfig | None = None,
                 merge_factor: int = 4, max_rounds: int = 32) -> int:
    """Run :func:`plan_merges` → :func:`compact` to a fixpoint (merged
    output can itself fill a higher level, so the loop re-plans after each
    round); returns the number of merges executed. ``max_rounds`` is a
    runaway backstop — levels are logarithmic, real manifests converge in
    a handful."""
    done = 0
    for _ in range(max_rounds):
        plans = plan_merges(read_segments(root), merge_factor)
        if not plans:
            break
        for names in plans:
            compact(root, config, names=names)
            done += 1
    return done
