"""Spans and counters around the calls into each serving layer.

The tracer wraps public entry points from outside the program: the
``query.engine`` module globals (``decode_term_chunks``, ``bm25_weights``,
``topk_docs``, ``BKTree``), ``string_dict.BlockedStringDict``, and an open
engine's ``locator.read``, ``tokenizer.tokenize``, ``lookup`` and
``doc_length``. Spans stay in memory; ``layer_metrics`` folds them into
per-layer self times and work counts, and ``dump`` writes them out.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import pyarrow.parquet as pq

perf = time.perf_counter
PROBE = "trace.probe"


class ProcIO:
    """Bytes this process read through read(2)/pread(2) (``rchar`` in
    /proc/self/io): page-cache hits included, so it counts what a reader
    asked for, not what the disk served."""

    def __init__(self):
        self.fd = os.open("/proc/self/io", os.O_RDONLY)
        a = self._rchar()
        self.self_cost = self._rchar() - a  # the probe's own read

    def _rchar(self) -> int:
        for line in os.pread(self.fd, 4096, 0).split(b"\n"):
            if line.startswith(b"rchar:"):
                return int(line.split()[1])
        return 0

    def delta(self, before: int) -> int:
        return max(0, self._rchar() - before - self.self_cost)

    def close(self) -> None:
        os.close(self.fd)


class Tracer:
    """Spans are (name, start, end, parent_index, query_id) tuples."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.qid = -1

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.qid)

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(counts, args, result)`` runs after
        the span closes, so counting is not charged to the layer."""
        def wrapped(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, args, out)
            return out
        return wrapped

    def self_times(self) -> dict[str, float]:
        """name → summed self seconds (duration minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _q in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _p, _q) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for name, t0, t1, parent, qid in self.spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1,
                                    "parent": parent, "query": qid}) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def trace_open(index_dir: str):
    """Open a ``SearchEngine`` with the set-up layers timed →
    (engine, {setup.bktree_s, setup.dictionary_s, setup.other_s})."""
    from search_engine_ray.query import engine as engine_mod
    from search_engine_ray.query import string_dict

    walls = defaultdict(float)

    def timed(key, cls):
        def make(*a, **kw):
            t0 = perf()
            try:
                return cls(*a, **kw)
            finally:
                walls[key] += perf() - t0
        return make

    orig_bk, orig_sd = engine_mod.BKTree, string_dict.BlockedStringDict
    engine_mod.BKTree = timed("bktree", orig_bk)
    string_dict.BlockedStringDict = timed("dictionary", orig_sd)
    try:
        t0 = perf()
        eng = engine_mod.SearchEngine(index_dir)
        total = perf() - t0
    finally:
        engine_mod.BKTree, string_dict.BlockedStringDict = orig_bk, orig_sd
    return eng, {"setup.bktree_s": walls["bktree"],
                 "setup.dictionary_s": walls["dictionary"],
                 "setup.other_s": total - walls["bktree"] - walls["dictionary"]}


class QueryTrace:
    """Install the serving-layer wrappers on one engine; ``run(q)`` answers
    one traced query under a root span."""

    def __init__(self, eng):
        from search_engine_ray.query import engine as engine_mod

        self.eng, self.mod = eng, engine_mod
        self.tr = tr = Tracer()
        self.io = ProcIO()
        self.n_queries = 0
        io = self.io

        def c_lookup(c, a, out):
            c["lookup.calls"] += 1
            c["lookup.hits"] += out is not None

        def c_decode(c, a, out):
            c["decode.chunks"] += a[0].num_rows
            c["decode.postings"] += len(out.doc_ids)
            c["decode.positions"] += len(out.pos_values)

        def c_weights(c, a, out):
            c["weights.postings"] += len(a[0])

        def c_topk(c, a, out):
            c["topk.candidates"] += len(a[0])

        read = eng.locator.read

        def traced_read(term, *a, **kw):
            # the rchar probes get their own span, charged to no layer
            before = tr.call(PROBE, io._rchar)
            rg0 = tr.counts["rg.calls"]
            rows0 = tr.counts["rg.rows"]
            out = tr.call("locator.read", read, term, *a, **kw)
            tr.counts["read.bytes"] += tr.call(PROBE, io.delta, before)
            tr.counts["read.calls"] += 1
            tr.counts["read.rows"] += out.num_rows
            tr.counts["read.rg"] += tr.counts["rg.calls"] - rg0
            tr.counts["read.rg_rows"] += tr.counts["rg.rows"] - rows0
            return out

        orig_rg = pq.ParquetFile.read_row_group

        def counted_rg(pf, *a, **kw):
            out = orig_rg(pf, *a, **kw)
            tr.counts["rg.calls"] += 1
            tr.counts["rg.rows"] += out.num_rows
            return out

        self._saved = {
            "decode_term_chunks": engine_mod.decode_term_chunks,
            "bm25_weights": engine_mod.bm25_weights,
            "topk_docs": engine_mod.topk_docs,
        }
        self._orig_rg = orig_rg
        pq.ParquetFile.read_row_group = counted_rg
        engine_mod.decode_term_chunks = tr.wrap(
            "codec.decode", engine_mod.decode_term_chunks, c_decode)
        engine_mod.bm25_weights = tr.wrap(
            "scoring.bm25_weights", engine_mod.bm25_weights, c_weights)
        engine_mod.topk_docs = tr.wrap(
            "scoring.topk_docs", engine_mod.topk_docs, c_topk)
        eng.locator.read = traced_read
        eng.tokenizer.tokenize = tr.wrap("tokenizer", eng.tokenizer.tokenize)
        eng.lookup = tr.wrap("dict.lookup", eng.lookup, c_lookup)
        eng.doc_length = tr.wrap("engine.doc_length", eng.doc_length)

    def run(self, query: str, k: int = 10):
        self.tr.qid = self.n_queries
        self.n_queries += 1
        try:
            return self.tr.call("query", self.eng.bm25_topk, query, k)
        finally:
            self.tr.qid = -1

    def remove(self) -> None:
        for name, fn in self._saved.items():
            setattr(self.mod, name, fn)
        pq.ParquetFile.read_row_group = self._orig_rg
        for attr in ("lookup", "doc_length"):
            self.eng.__dict__.pop(attr, None)
        self.eng.locator.__dict__.pop("read", None)
        self.eng.tokenizer.__dict__.pop("tokenize", None)
        self.io.close()

    def layer_metrics(self) -> dict[str, float]:
        st, c = self.tr.self_times(), self.tr.counts
        n = max(self.n_queries, 1)
        per_q = lambda key: 1e3 * st.get(key, 0.0) / n  # noqa: E731
        total = sum(v for k, v in st.items() if k != PROBE)
        m = {
            "query.tokenizer.self_ms_per_q": per_q("tokenizer"),
            "query.dict.lookup.self_ms_per_q": per_q("dict.lookup"),
            "query.dict.lookup.hit_ratio": _ratio(c["lookup.hits"], c["lookup.calls"]),
            "query.locator.read.self_ms_per_q": per_q("locator.read"),
            "query.locator.read.calls_per_q": c["read.calls"] / n,
            "query.locator.row_groups_per_read": _ratio(c["read.rg"], c["read.calls"]),
            "query.locator.bytes_per_read": _ratio(c["read.bytes"], c["read.calls"]),
            "query.locator.rows_kept_ratio": _ratio(c["read.rows"], c["read.rg_rows"]),
            "query.codec.decode.self_ms_per_q": per_q("codec.decode"),
            "query.codec.chunks_per_q": c["decode.chunks"] / n,
            "query.codec.postings_per_q": c["decode.postings"] / n,
            "query.codec.positions_per_q": c["decode.positions"] / n,
            "query.engine.doc_length.self_ms_per_q": per_q("engine.doc_length"),
            "query.engine.other.self_ms_per_q": per_q("query"),
            # every in-dictionary term is one postings request; a miss reads
            "query.engine.postings_cache.hit_ratio":
                1.0 - _ratio(c["read.calls"], c["lookup.hits"]),
            "query.scoring.bm25_weights.self_ms_per_q": per_q("scoring.bm25_weights"),
            "query.scoring.postings_scored_per_q": c["weights.postings"] / n,
            "query.scoring.topk_docs.self_ms_per_q": per_q("scoring.topk_docs"),
            "query.scoring.topk_candidates_per_q": c["topk.candidates"] / n,
            "query.split.score_topk_doclen_share": _ratio(
                st.get("scoring.bm25_weights", 0.0) + st.get("scoring.topk_docs", 0.0)
                + st.get("engine.doc_length", 0.0), total),
            "query.split.read_decode_share": _ratio(
                st.get("locator.read", 0.0) + st.get("codec.decode", 0.0), total),
        }
        return m
