"""Per-doc attribute registry shared by the serving paths (local and
segmented engine, distributed shard actors) — the state behind
filtered retrieval (``bm25_topk_filtered``): one sorted doc_id array plus
dense value codes per attribute, O(num_docs) like the doc_length array,
built once and probed per query with a pure integer mask."""

from __future__ import annotations

import numpy as np

#: registry entry: (sorted doc_ids, value codes aligned to them, value→code)
AttrEntry = tuple


def build_doc_attr(doc_ids, values) -> AttrEntry:
    """(doc_ids, values) → (sorted ids, dense codes, vocab). Values
    dictionary-encode so per-query masks are integer ``np.isin``.
    Null-valued rows are DROPPED at registration — a doc with no
    attribute value never matches any filter, the same contract as docs
    absent from the registry (and np.unique cannot sort None anyway)."""
    ids = np.asarray(doc_ids, np.int64)
    vals = np.asarray(values, object)
    ok = np.array([v is not None for v in vals], bool)
    ids, vals = ids[ok], vals[ok]
    order = np.argsort(ids, kind="stable")
    vals = vals[order]
    uniq, codes = np.unique(vals, return_inverse=True)
    return ids[order], codes.astype(np.int64), {v: i for i, v in enumerate(uniq.tolist())}


def allowed_codes(entry: AttrEntry, allowed) -> np.ndarray:
    """The sorted code set for the allowed values (unknown values drop —
    they can never match, same no-panic contract as dictionary lookups)."""
    vocab = entry[2]
    return np.array(sorted(vocab[v] for v in allowed if v in vocab), np.int64)


def doc_attr_mask(entry: AttrEntry, want: np.ndarray,
                  doc_ids: np.ndarray) -> np.ndarray:
    """Boolean keep-mask over candidate doc_ids: attr(doc) ∈ want (codes).
    Docs absent from the registry never match."""
    ids, codes, _vocab = entry
    if len(want) == 0 or len(doc_ids) == 0:
        return np.zeros(len(doc_ids), bool)
    i = np.clip(np.searchsorted(ids, doc_ids), 0, len(ids) - 1)
    return (ids[i] == doc_ids) & np.isin(codes[i], want)


def capped_prefix(doc_ids: np.ndarray, scores: np.ndarray,
                  codes: np.ndarray, cap: int, k: int,
                  digits: int | None = None) -> np.ndarray:
    """Vectorized diversification greedy shared by all serving paths:
    positions (into the given arrays) of the top-k docs when at most
    ``cap`` docs per attribute code are kept, walking (score desc,
    doc_id asc) order — a doc is kept iff fewer than ``cap``
    better-ranked docs share its code. ``digits`` rounds scores before
    ranking (ties → doc asc) to match external contracts. Returns the
    kept positions in rank order."""
    if len(doc_ids) == 0:
        return np.zeros(0, np.int64)
    order = np.lexsort((doc_ids, -(np.round(scores, digits)
                                   if digits is not None else scores)))
    grp = codes[order]
    o = np.argsort(grp, kind="stable")
    g = grp[o]
    starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    sizes = np.diff(np.r_[starts, len(o)])
    occ = np.empty(len(o), np.int64)
    occ[o] = np.arange(len(o)) - np.repeat(starts, sizes)
    return order[np.flatnonzero(occ < int(cap))[:k]]


def codes_for(entry: AttrEntry, doc_ids: np.ndarray) -> np.ndarray:
    """Attribute code per doc_id; docs absent from the registry get -1
    (they share one 'unknown' group in capped retrieval and never match
    in filtered retrieval)."""
    ids, codes, _vocab = entry
    doc_ids = np.asarray(doc_ids, np.int64)
    if len(ids) == 0:
        return np.full(len(doc_ids), -1, np.int64)
    i = np.clip(np.searchsorted(ids, doc_ids), 0, len(ids) - 1)
    return np.where(ids[i] == doc_ids, codes[i], np.int64(-1))


def build_numeric_attr(doc_ids, values) -> tuple[np.ndarray, np.ndarray]:
    """NUMERIC per-doc attribute registry entry: (sorted ids, float64
    values aligned to them) — the state behind sort-by-field and
    range-filtered retrieval, shared by all serving paths."""
    ids = np.asarray(doc_ids, np.int64)
    vals = np.asarray(values, np.float64)
    order = np.argsort(ids, kind="stable")
    return ids[order], vals[order]


def numeric_attr_probe(entry: tuple[np.ndarray, np.ndarray],
                       doc_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(present mask, values with NaN where absent) of a numeric
    attribute for ``doc_ids`` — one sorted probe, the single membership
    idiom every consumer (sort, range, distributed mask) shares."""
    aids, avals = entry
    i = np.clip(np.searchsorted(aids, doc_ids), 0, max(len(aids) - 1, 0))
    present = (aids[i] == doc_ids) if len(aids) else np.zeros(len(doc_ids), bool)
    vals = np.where(present, avals[i] if len(aids) else 0.0, np.nan)
    return present, vals
