"""Cosine doc-length norms — the reference's commented-out normalization
(/root/reference/src/helpers/mod.rs:191-218, SURVEY.md §2.4 A8):

    norm[d] = sqrt( Σ_terms_in_d (tf · idf)² ),   idf = log10(N / df)

re-expressed distributed: read the index's lean posting rows
(read_posting_rows: doc_id, tf and the term's df ride on every row, so no
dictionary is broadcast), partial-sum squares per doc per batch, then one
keep-summing pass over the doc-sorted stream.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from search_engine_ray.pipelines.build import IndexPaths, load_stats
from search_engine_ray.stages.grouped import sorted_group_map
from search_engine_ray.stages.postings_file import read_posting_rows


def cosine_norms(index_dir: str) -> "ray.data.Dataset":
    """→ Dataset (doc_id:int64, norm:float64). float64 accumulation (the
    reference's f32 loop is order-dependent; distributed summation order is
    not deterministic, so we use f64 and tests compare with tolerance)."""
    n_docs = float(load_stats(index_dir)["num_docs"])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "w2": pa.array([], pa.float64())})
        tf, df, ids = (batch[c].to_numpy() for c in ("tf", "df", "doc_id"))
        w = tf.astype(np.float64) * np.log10(n_docs / df.astype(np.float64))
        # partial per-doc sums within the batch
        uniq, inv = np.unique(ids, return_inverse=True)
        return pa.table({"doc_id": pa.array(uniq, pa.int64()),
                         "w2": pa.array(np.bincount(inv, weights=w * w), pa.float64())})

    partials = read_posting_rows(IndexPaths(index_dir).postings).map_batches(
        partial, batch_format="pyarrow", batch_size=None)

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
