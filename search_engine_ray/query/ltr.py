"""Learning-to-rank feature extraction over the inverted index.

Emits one row per (query, matching doc) with the classic lexical LTR
feature set (the LETOR / RankLib family — public literature): BM25 and
tf-idf scores, matched-term count and query coverage, idf aggregates,
document length and tf aggregates. These are the features a reranker
(GBDT / neural) trains on; producing them index-side — one posting-list
pass per term, no document fetch — is the standard first stage of an
LTR pipeline.

All arithmetic is float64 and every per-doc aggregate is computed
vectorized via one stable argsort + ``reduceat`` over the concatenated
per-term posting arrays — no Python loop over documents. The oracle
(driver_queries) reproduces every column in SQL from the postings /
term_df / doclen views, so the whole feature table is value-checked.

Batch path: :class:`~search_engine_ray.query.batch.QueryActor` serves
per-query feature extraction over a query Dataset through the same
engine pool used for retrieval.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from search_engine_ray.query.scoring import bm25_idf, bm25_weights


def ltr_features(eng, query: str) -> pa.Table:
    """Feature table over ALL docs matching ≥1 query term.

    Columns: doc_id, bm25, tfidf, n_matched, coverage, sum_idf, min_idf,
    max_idf, doc_len, sum_tf, max_tf. ``coverage`` is n_matched over the
    number of DISTINCT normalized query terms (absent-from-index terms
    count in the denominator — a real coverage signal)."""
    terms = eng.query_terms(query)
    n_q = len(terms)
    id_parts, col_parts = [], {"bm25": [], "tfidf": [], "tf": [], "idf": []}
    tps = [tp for tp in eng._postings(terms, positions=True).values() if tp.df]
    for tp in tps:
        dl = eng.doc_length(tp.doc_ids)
        id_parts.append(tp.doc_ids)
        col_parts["bm25"].append(bm25_weights(
            tp.tfs, dl, tp.df, eng.num_docs, eng.avgdl,
            eng.config.bm25_k1, eng.config.bm25_b))
        col_parts["tfidf"].append(
            tp.tfs.astype(np.float64) * np.log10(float(eng.num_docs) / tp.df))
        col_parts["tf"].append(tp.tfs.astype(np.float64))
        col_parts["idf"].append(
            np.full(len(tp.doc_ids), bm25_idf(tp.df, eng.num_docs)))

    empty_schema = pa.schema([
        ("doc_id", pa.int64()), ("bm25", pa.float64()),
        ("tfidf", pa.float64()), ("n_matched", pa.int64()),
        ("coverage", pa.float64()), ("sum_idf", pa.float64()),
        ("min_idf", pa.float64()), ("max_idf", pa.float64()),
        ("doc_len", pa.int64()), ("sum_tf", pa.float64()),
        ("max_tf", pa.float64()), ("min_pair_md", pa.int64()),
    ])
    if not id_parts:
        return empty_schema.empty_table()

    ids = np.concatenate(id_parts)
    # stable sort keeps per-doc contributions in query-term order, so the
    # float sums match a per-term accumulation exactly
    perm = np.argsort(ids, kind="stable")
    ids = ids[perm]
    uniq, starts = np.unique(ids, return_index=True)
    cols = {k: np.concatenate(v)[perm] for k, v in col_parts.items()}
    out = {
        "doc_id": uniq.astype(np.int64),
        "bm25": np.add.reduceat(cols["bm25"], starts),
        "tfidf": np.add.reduceat(cols["tfidf"], starts),
        "n_matched": np.diff(np.append(starts, len(ids))).astype(np.int64),
        "sum_idf": np.add.reduceat(cols["idf"], starts),
        "min_idf": np.minimum.reduceat(cols["idf"], starts),
        "max_idf": np.maximum.reduceat(cols["idf"], starts),
        "doc_len": eng.doc_length(uniq).astype(np.int64),
        "sum_tf": np.add.reduceat(cols["tf"], starts),
        "max_tf": np.maximum.reduceat(cols["tf"], starts),
    }
    out["coverage"] = out["n_matched"] / float(n_q)

    # positional feature: min over term pairs of the min |p_i − p_j| in
    # the doc (0 = fewer than two matched terms) — the proximity signal
    # rerankers weight heavily. One fused-key pass per pair
    # (postings_codec.segmented_min_distance), no per-doc Python.
    from search_engine_ray.query.postings_codec import segmented_min_distance

    min_md = np.zeros(len(uniq), np.int64)
    for a in range(len(tps)):
        for b in range(a + 1, len(tps)):
            tpa, tpb = tps[a], tps[b]
            ia = np.minimum(np.searchsorted(tpa.doc_ids, tpb.doc_ids),
                            len(tpa.doc_ids) - 1)
            common = tpa.doc_ids[ia] == tpb.doc_ids
            if not common.any():
                continue
            ib = np.flatnonzero(common)
            p1, o1 = _ragged_positions(tpa, ia[ib])
            p2, o2 = _ragged_positions(tpb, ib)
            md = np.maximum(segmented_min_distance(p1, o1, p2, o2), 1)
            pos = np.searchsorted(uniq, tpb.doc_ids[ib])
            cur = min_md[pos]
            min_md[pos] = np.where(cur == 0, md, np.minimum(cur, md))
    out["min_pair_md"] = min_md
    return pa.table({f.name: pa.array(out[f.name], f.type)
                     for f in empty_schema})


def _ragged_positions(tp, idx: np.ndarray):
    """(flat positions, offsets) for the postings rows ``idx``."""
    from search_engine_ray.query.postings_codec import ragged_slices

    return ragged_slices(tp.pos_offsets, tp.pos_values, idx)


class LtrFeatureActor:
    """Actor-pool stage: per-query feature extraction over a query Dataset
    (query_id:int64, query_text:string) → one row per (query, matching
    doc). The engine (dictionary slice readers, postings LRU, doc
    lengths) loads ONCE per actor; each batch of queries reuses it —
    the scalable reranker-training feature dump."""

    def __init__(self, index_dir: str, config=None):
        from search_engine_ray.query.engine import SearchEngine

        self.engine = SearchEngine(index_dir, config, build_bktree=False)

    def __call__(self, batch: pa.Table) -> pa.Table:
        parts = []
        qids = batch["query_id"].to_numpy(zero_copy_only=False)
        texts = batch["query_text"].to_pylist()
        for qid, text in zip(qids, texts):
            t = ltr_features(self.engine, text)
            parts.append(t.add_column(
                0, "query_id",
                pa.array(np.full(t.num_rows, qid, np.int64))))
        if parts:
            return pa.concat_tables(parts)
        # full 13-column schema even for empty blocks — a single-column
        # empty table would break downstream schema unification
        empty = ltr_features(self.engine, "")
        return empty.add_column(0, "query_id", pa.array([], pa.int64()))


def batch_ltr_features(queries_ds, index_dir: str, config=None,
                       concurrency=(1, 4), batch_size: int = 256):
    """Distributed LTR feature extraction: queries stream through an
    engine actor pool; output is a feature Dataset ready to
    ``write_parquet`` as reranker training input."""
    return queries_ds.map_batches(
        LtrFeatureActor,
        fn_constructor_args=(index_dir, config),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def ltr_training_rows(eng, query: str, relevant_ids) -> pa.Table:
    """LTR TRAINING-SET assembly: the :func:`ltr_features` table with a
    binary ``label`` column (doc ∈ ``relevant_ids``) — the (features,
    relevance) rows a pointwise/pairwise reranker trains on. The
    relevance set is whatever judgment source the caller has (qrels,
    click models, a stricter matcher like phrase adjacency); membership
    is one sorted probe, O(|features| log |relevant|)."""
    t = ltr_features(eng, query)
    rel = np.sort(np.asarray(list(relevant_ids), np.int64))
    ids = t["doc_id"].to_numpy()
    if len(rel):
        idx = np.minimum(np.searchsorted(rel, ids), len(rel) - 1)
        label = rel[idx] == ids
    else:
        label = np.zeros(len(ids), bool)
    return t.append_column("label",
                           pa.array(label.astype(np.int64), pa.int64()))
