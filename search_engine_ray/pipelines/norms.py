"""Cosine doc-length norms — the reference's commented-out normalization
(/root/reference/src/helpers/mod.rs:191-218, SURVEY.md §2.4 A8):

    norm[d] = sqrt( Σ_terms_in_d (tf · idf)² ),   idf = log10(N / df)

re-expressed distributed: read the index's chunk rows (read_chunk_rows,
column-pruned), decode doc_id streams vectorized across ALL chunk rows of a
batch, broadcast the (term → df) dictionary once via ``ray.put``,
partial-sum squares per doc per batch, then one keep-summing pass over the
doc-sorted stream.

Scale note: the dictionary broadcast is vocab-sized; at extreme vocabularies
the df could instead ride inside the chunk rows (one int per chunk) — noted,
not needed at tested scales.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from search_engine_ray.functions.vb import binary_column_parts, vb_decode_array
from search_engine_ray.pipelines.build import IndexPaths, load_stats
from search_engine_ray.stages.grouped import sorted_group_map
from search_engine_ray.stages.postings_file import read_chunk_rows


def decode_doc_ids_batch(doc_gaps_col: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """All chunk rows' doc_id streams decoded in one vectorized pass →
    (row_offsets, doc_ids). Gaps are absolute at each chunk start
    (stages/merge.py), so a groupwise cumsum with per-row reset applies."""
    bounds, data = binary_column_parts(doc_gaps_col)
    vals = vb_decode_array(data).astype(np.int64) if len(data) else np.zeros(0, np.int64)
    # count of values per row = terminator bytes per byte-span
    csum = np.zeros(len(data) + 1, np.int64)
    np.cumsum((data >= 128).astype(np.int64), out=csum[1:])
    counts = csum[bounds[1:]] - csum[bounds[:-1]]
    offsets = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    running = np.cumsum(vals)
    starts = offsets[:-1]
    base = np.where(starts > 0, running[np.maximum(starts - 1, 0)], 0)
    doc_ids = running - np.repeat(base, counts)
    return offsets, doc_ids


def cosine_norms(index_dir: str) -> "ray.data.Dataset":
    """→ Dataset (doc_id:int64, norm:float64). float64 accumulation (the
    reference's f32 loop is order-dependent; distributed summation order is
    not deterministic, so we use f64 and tests compare with tolerance)."""
    paths = IndexPaths(index_dir)
    stats = load_stats(index_dir)
    n_docs = stats["num_docs"]

    import pyarrow.parquet as pq

    dic = pq.read_table(paths.dictionary, columns=["term", "df"])
    df_map = dict(zip(dic["term"].to_pylist(), dic["df"].to_pylist()))
    df_ref = ray.put(df_map)

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        if batch.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "w2": pa.array([], pa.float64())})
        dfs_all = ray.get(df_ref)
        tenc = batch["term"].dictionary_encode().combine_chunks()
        uniq_df = np.array([dfs_all[t] for t in tenc.dictionary.to_pylist()], np.float64)
        row_df = uniq_df[tenc.indices.to_numpy(zero_copy_only=False)]
        idf_row = np.log10(float(n_docs) / row_df)

        offsets, doc_ids = decode_doc_ids_batch(
            batch["doc_gaps"].combine_chunks() if isinstance(batch["doc_gaps"], pa.ChunkedArray) else batch["doc_gaps"]
        )
        tfs_arr = batch["tfs"].combine_chunks() if isinstance(batch["tfs"], pa.ChunkedArray) else batch["tfs"]
        tfs = tfs_arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        counts = np.diff(offsets)
        w = tfs * np.repeat(idf_row, counts)
        w2 = w * w
        # partial per-doc sums within the batch
        uniq, inv = np.unique(doc_ids, return_inverse=True)
        agg = np.zeros(len(uniq), np.float64)
        np.add.at(agg, inv, w2)
        return pa.table({"doc_id": pa.array(uniq, pa.int64()),
                         "w2": pa.array(agg, pa.float64())})

    partials = read_chunk_rows(
        paths.postings, columns=["term", "doc_gaps", "tfs"]
    ).map_batches(partial, batch_format="pyarrow", batch_size=None)

    def finish(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        if batch.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "norm": pa.array([], pa.float64())})
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        w2 = batch["w2"].to_numpy(zero_copy_only=False)
        change = np.empty(len(ids), bool)
        change[0] = True
        np.not_equal(ids[1:], ids[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        sums = np.add.reduceat(w2, starts)
        return pa.table({"doc_id": pa.array(ids[starts], pa.int64()),
                         "norm": pa.array(np.sqrt(sums), pa.float64())})

    return sorted_group_map(partials, ["doc_id"], finish)
