"""Serving across index segments (pipelines/segments.py) with tombstones.

A segment set is served as ONE index: :class:`SegmentedSearchEngine` is a
:class:`~search_engine_ray.query.engine.SearchEngine` over a merged view of
its segments, so every query mode is the monolithic engine's own code and
results equal a monolithic index over the same docs.

* Each doc lives in exactly one segment and doc_ids are globally unique
  (per-segment doc_id_base offsets), so term by term a segment set is just a
  bigger index. The merged dictionary is the union of the segments' terms
  with summed df; N (num_docs) and avgdl are exact integer sums over the
  segment stats; doc lengths are the segments' arrays merged in doc-id
  order.
* A postings read (the cache-miss ``read`` of ``engine.postings_entry``)
  decodes the term in each segment whose dictionary has it, concatenates
  the postings in segment order, sorts them by doc id only when the
  segments' doc ids interleave (a subset compaction can merge segments
  around a kept one), and drops tombstoned docs. The postings cache then
  holds the merged, live postings, and :meth:`refresh_tombstones` clears it.

Tombstones (deleted docs) therefore never reach a mode. Like Lucene, deleted
docs still count in the collection statistics until compaction
(pipelines/segments.compact): N, avgdl and doc lengths come from the segment
stats, df from the dictionary, and the tf total of the dropped postings
rides on each term's postings (``TermPostings.dropped_tf``) so query
likelihood's ctf counts it too.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from search_engine_ray.config import EngineConfig
from search_engine_ray.pipelines.segments import (
    load_tombstones,
    read_segments,
    segment_dir,
)
from search_engine_ray.query.engine import SearchEngine, read_postings
from search_engine_ray.query.postings_codec import TermPostings, ragged_slices


def _concat(parts: list[TermPostings]) -> TermPostings:
    """Postings of one term from several segments, in segment order (all
    lean or all positional)."""
    if len(parts) == 1:
        return parts[0]
    offsets = None
    if parts[0].pos_offsets is not None:
        ends = np.cumsum([len(p.pos_values) for p in parts])
        offsets = np.concatenate([parts[0].pos_offsets[:1]] + [
            p.pos_offsets[1:] + base
            for p, base in zip(parts, np.concatenate([[0], ends[:-1]]))])
    return TermPostings(np.concatenate([p.doc_ids for p in parts]),
                        np.concatenate([p.tfs for p in parts]),
                        offsets,
                        np.concatenate([p.pos_values for p in parts]))


def _take(tp: TermPostings, idx: np.ndarray, dropped_tf: int) -> TermPostings:
    """The postings rows ``idx`` of ``tp``, positions included."""
    if tp.pos_offsets is None:
        offsets, values = None, tp.pos_values
    else:
        values, offsets = ragged_slices(tp.pos_offsets, tp.pos_values, idx)
    return TermPostings(tp.doc_ids[idx], tp.tfs[idx], offsets, values,
                        dropped_tf)


class SegmentedSearchEngine(SearchEngine):
    def __init__(self, root: str, config: EngineConfig | None = None,
                 build_bktree: bool = False):
        self.config = config or EngineConfig()
        self.root = root
        segs = read_segments(root)
        if not segs:
            raise ValueError(f"no segments under {root}")
        self.engines = [
            SearchEngine(segment_dir(root, s["name"]), self.config,
                         build_bktree=False)
            for s in segs
        ]
        self.tokenizer = self.engines[0].tokenizer
        self.tombstones = load_tombstones(root)

        vocab = [e.vocabulary() for e in self.engines]
        dic = pa.table({
            "term": pa.chunked_array([pa.array(t, pa.string()) for t, _ in vocab]),
            "df": np.concatenate([df for _, df in vocab]),
        }).group_by("term").aggregate([("df", "sum")]).sort_by("term")
        dic = pa.table({"term": dic["term"],
                        "term_id": np.arange(1, dic.num_rows + 1, dtype=np.int64),
                        "df": dic["df_sum"]})
        dl_ids = np.concatenate([e._dl_ids for e in self.engines])
        dl = np.concatenate([e._dl for e in self.engines])
        # segment order is doc-id order unless a subset merge interleaved them
        self._interleaved = bool((np.diff(dl_ids) < 0).any())
        if self._interleaved:
            order = np.argsort(dl_ids, kind="stable")
            dl_ids, dl = dl_ids[order], dl[order]
        num_docs = sum(s["num_docs"] for s in segs)
        total_tokens = sum(s["total_tokens"] for s in segs)
        self._init_state(dic, dl_ids, dl, num_docs,
                         (total_tokens / num_docs) if num_docs else 0.0,
                         build_bktree)
        # doc ids are globally unique, so the merged arrays answer each
        # segment's own doc-length lookups as well; its own copy is freed
        for eng in self.engines:
            eng._dl_ids, eng._dl, eng._dl_total = self._dl_ids, self._dl, self._dl_total

    def refresh_tombstones(self) -> None:
        """Reload the tombstone list; cached postings were filtered by the
        old one, so the cache is dropped."""
        self.tombstones = load_tombstones(self.root)
        self._cache.clear()

    def df(self, term: str) -> int:
        m = self.lookup(term)
        return 0 if m is None else m[1]

    def _read_postings(self, term: str, positions: bool) -> TermPostings:
        """The merged, live postings of ``term`` over every segment whose
        dictionary has it."""
        tp = _concat([read_postings(eng.locator, term, positions)
                      for eng in self.engines if eng.lookup(term) is not None])
        idx = None
        if self._interleaved:
            idx = np.argsort(tp.doc_ids, kind="stable")
        if len(self.tombstones):
            live = ~np.isin(tp.doc_ids, self.tombstones)
            if not live.all():
                dropped = int(tp.tfs[~live].sum())
                idx = np.flatnonzero(live) if idx is None else idx[live[idx]]
                return _take(tp, idx, dropped)
        return tp if idx is None else _take(tp, idx, 0)

    def _url_table(self):
        return pa.concat_tables([e._url_table() for e in self.engines])
