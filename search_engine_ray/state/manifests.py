"""Per-stage / per-partition lineage manifests for checkpoint & resume.

The reference has no checkpointing — a crash mid-merge restarts everything;
its spill runs on disk are the only restart aid (SURVEY.md §4). The
north_rule requires resumability with per-partition lineage, which for a
batch pipeline means (ray_guide.md): lay outputs out per stage, write a
manifest naming the produced files + row counts + an input fingerprint, and
on resume skip stages whose manifest is complete and whose fingerprint still
matches. Writes are atomic (tmp file + rename).

Manifest JSON:
    {"stage": ..., "fingerprint": ..., "complete": true,
     "num_rows": N, "partitions": [{"path": ..., "rows": n, "bytes": b}, ...]}
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

MANIFEST_NAME = "_MANIFEST.json"


def fingerprint(*parts: Any) -> str:
    """Deterministic fingerprint of inputs/config driving a stage."""
    blob = json.dumps([str(p) for p in parts], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def manifest_path(stage_dir: str) -> str:
    return os.path.join(stage_dir, MANIFEST_NAME)


def scan_partitions(stage_dir: str) -> list[dict]:
    """Enumerate produced files (per-partition lineage entries): parquet
    files with their row counts, and postings shard files
    (stages/postings_file.py) with the file size as bytes and, as rows,
    the chunk rows ``read_chunk_rows`` regenerates from the file — the row
    unit the postings stage has always reported."""
    from search_engine_ray.stages.postings_file import SHARD_FILE, shard_file_rows

    out = []
    for root, _dirs, files in os.walk(stage_dir):
        for f in sorted(files):
            if f.endswith(".parquet") or f == SHARD_FILE:
                p = os.path.join(root, f)
                entry = {"path": os.path.relpath(p, stage_dir), "bytes": os.path.getsize(p)}
                try:
                    if f == SHARD_FILE:
                        entry["rows"] = shard_file_rows(p)
                    else:
                        import pyarrow.parquet as pq

                        entry["rows"] = pq.read_metadata(p).num_rows
                except Exception:
                    entry["rows"] = None
                out.append(entry)
    return out


def write_manifest(stage_dir: str, stage: str, fp: str, extra: dict | None = None) -> dict:
    parts = scan_partitions(stage_dir)
    doc = {
        "stage": stage,
        "fingerprint": fp,
        "complete": True,
        "num_rows": sum(p["rows"] or 0 for p in parts),
        "partitions": parts,
    }
    if extra:
        doc.update(extra)
        el = extra.get("elapsed_s")
        if el and doc["num_rows"]:  # derived stage-throughput metric
            doc["rows_per_s"] = round(doc["num_rows"] / el, 1)
    tmp = manifest_path(stage_dir) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1)
    os.replace(tmp, manifest_path(stage_dir))
    return doc


def read_manifest(stage_dir: str) -> dict | None:
    try:
        with open(manifest_path(stage_dir)) as f:
            return json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def stage_complete(stage_dir: str, fp: str) -> bool:
    m = read_manifest(stage_dir)
    return bool(m and m.get("complete") and m.get("fingerprint") == fp)
