"""Serving process: open one ``SearchEngine`` and answer BM25 top-10
queries in a closed loop (one client, no think time, no Ray).

    python3 perfbench/serve.py SPEC.json OUT.json

SPEC holds ``index_dir``, ``timed`` and ``warmup`` query lists, ``seconds``,
``min_queries`` and ``trace``. The engine opens with its default arguments,
as ``query/batch.py:QueryActor`` opens it (BK-tree included). Without
tracing the loop is timed bare, and ``setup_s`` is the median of
``SETUP_OPENS`` opens: the one that serves, and the rest after the loop.
With tracing, half the window runs bare and half under
``tracing.QueryTrace`` so the difference is the tracing overhead.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time

perf = time.perf_counter

#: engine opens per untraced run; setup_s is their median
SETUP_OPENS = 3


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


class Loop:
    """Closed loop over ``queries`` (cycled) until ``seconds`` have passed
    and at least ``min_queries`` ran. Keeps each query's first result."""

    def __init__(self, queries: list[str]):
        self.queries = queries
        self.first: dict[int, list] = {}
        self.failures: list[dict] = []
        self.attempted = 0

    def run(self, answer, seconds: float, min_queries: int, start: int = 0):
        """→ (per-query latencies, loop wall seconds)."""
        lat = []
        qs, n_q = self.queries, len(self.queries)
        i = start
        t_start = perf()
        t_end = t_start + seconds
        while True:
            q = qs[i % n_q]
            t0 = perf()
            try:
                res = answer(q, 10)
                err = None
            except Exception as e:  # a failed query is counted, not fatal
                res, err = None, f"{type(e).__name__}: {e}"
            t1 = perf()
            lat.append(t1 - t0)
            self.attempted += 1
            if err is not None or not res:
                self.failures.append({"query": q, "error": err or "zero hits"})
            elif i < n_q and i not in self.first:
                self.first[i] = [[int(d), float(s)] for d, s in res]
            i += 1
            if t1 >= t_end and len(lat) >= min_queries:
                return lat, t1 - t_start


def summarize(lat: list[float], wall: float) -> dict:
    s = sorted(lat)
    return {"n": len(s), "wall_s": wall, "p50_ms": 1e3 * percentile(s, 0.50),
            "p99_ms": 1e3 * percentile(s, 0.99), "qps": len(s) / wall}


def serve(spec: dict) -> dict:
    from search_engine_ray.query.engine import SearchEngine
    from tracing import QueryTrace, trace_open

    out: dict = {}
    rss0 = rss_bytes()
    if spec["trace"]:
        eng, out["setup_layers"] = trace_open(spec["index_dir"])
    else:
        t0 = perf()
        eng = SearchEngine(spec["index_dir"])
        opens = [perf() - t0]

    # misses = locator reads; requests = one per distinct query term
    reads = [0]
    read = eng.locator.read

    def counted_read(*a, **k):
        reads[0] += 1
        return read(*a, **k)

    eng.locator.read = counted_read
    for q in spec["warmup"]:
        eng.bm25_topk(q, 10)
    loop = Loop(spec["timed"])
    seconds = spec["seconds"] / (2 if spec["trace"] else 1)
    reads0 = reads[0]
    lat, wall = loop.run(eng.bm25_topk, seconds, spec["min_queries"])
    n_terms = sum(len(set(loop.queries[i % len(loop.queries)].split()))
                  for i in range(len(lat)))
    out["cache_hit_ratio"] = 1.0 - (reads[0] - reads0) / max(n_terms, 1)
    out["serve"] = summarize(lat, wall)
    out["rss_growth_mb"] = (rss_bytes() - rss0) / 2**20
    eng.locator.__dict__.pop("read", None)

    if not spec["trace"]:
        # after the RSS reading: these opens do not count in its growth
        for _ in range(SETUP_OPENS - 1):
            t0 = perf()
            SearchEngine(spec["index_dir"])
            opens.append(perf() - t0)
        out["setup_s"] = statistics.median(opens)
    else:
        qt = QueryTrace(eng)
        traced, t_wall = loop.run(qt.run, seconds, spec["min_queries"], start=len(lat))
        qt.remove()
        out["traced"] = summarize(traced, t_wall)
        out["query_layers"] = qt.layer_metrics()
        if spec.get("spans_path"):
            qt.tr.dump(spec["spans_path"])
    out["attempted"] = loop.attempted
    out["failures"] = loop.failures
    out["first_results"] = {str(i): r for i, r in loop.first.items()}
    return out


def pin_to_one_cpu() -> None:
    """Run this process, and the threads it starts later (pyarrow's pools),
    on one CPU: the benchmark's regime is one core, and a handoff between
    threads on two CPUs would time the host's scheduler."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str]) -> int:
    pin_to_one_cpu()
    with open(argv[1]) as f:
        spec = json.load(f)
    res = serve(spec)
    with open(argv[2], "w") as f:
        json.dump(res, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
