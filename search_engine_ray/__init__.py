"""search_engine_ray — a Ray-Data-native full-text index build + query engine.

A brand-new implementation (not a port) with the query/data-processing
capabilities of the reference Rust engine ``kev1N916/search_engine``
(SPIMI inverted-index builder + positional query engine; see SURVEY.md for
the structural analysis with file:line citations into /root/reference).

Layout:
  functions/  pure kernels: text extraction/cleaning, VB + delta codecs,
              vectorized string/minhash/simhash/shingle hashing (scalar
              specs included), text quality metrics
  sources/    corpus synthesis, parquet readers (column-pruned), literal
              bz2+JSON article ingest
  stages/     Dataset stage builders: extract, tokenize (optionally with
              bigrams), deterministic id assignment, hash-sharded
              int-keyed postings merge into one flat postings file per
              shard, sorted whole-group mapping
  pipelines/  end-to-end build (per-unit resumable merges) + training-data
              pipelines (dedup exact/MinHash/SimHash/cosine, clustering,
              ANN, text analysis, events windows/sessions, multimodal,
              composite corpus cleaning)
  query/      query engine (boolean/phrase/proximity/fuzzy/tf-idf/BM25/
              blended), term-addressed locator (one pread per term),
              distributed per-shard
              serving actors, batch retrieval, brute-force oracle
  state/      per-partition lineage manifests for checkpoint/resume
"""

def _tune_worker_malloc() -> None:
    """Keep glibc from mmap/munmap-ing large numpy temporaries.

    The merge/tokenize kernels allocate and free hundreds-of-MB numpy
    arrays per task; glibc serves those via mmap and returns them to the
    OS on free, so every task re-faults zeroed pages and the munmaps
    trigger TLB shootdowns across every concurrently running task.
    Measured on the 480k-doc bench corpus: the 8-task unit-merge wave fell
    from 9.6 s to 4.1 s wall with arena reuse enabled. Environment
    variables only affect processes started AFTER they are set — i.e. Ray
    workers spawned by a later ``ray.init`` — which is exactly where the
    kernels run. (The already-running driver process is unaffected; glibc
    reads these at startup.) Opt out by exporting SE_RAY_NO_MALLOC_TUNE=1."""
    import os

    if os.environ.get("SE_RAY_NO_MALLOC_TUNE") == "1":
        return
    os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(512 << 20))
    os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", str(512 << 20))
    # numpy madvise(MADV_HUGEPAGE)s every allocation ≥4 MB; with THP
    # defrag=madvise (this box's setting) each hugepage FAULT then does
    # direct compaction, so a worker's first big-kernel task pays a
    # multi-second cold-heap tax that also contends across workers.
    # Measured (5.6M-row grp-phase microbenchmark): 1.08 s solo / 1.74 s
    # at 8 concurrent with madvise, flat 0.43 s either way without —
    # and per-task time becomes independent of how many tasks a worker
    # has already run, which is what makes N vs 4N scaling comparable.
    # Steady-state THP wins (~1.5x on warm heaps) don't offset that here
    # because Ray workers are many and short-lived relative to the waves.
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")


def _guard_fsspec_http() -> None:
    """Ray's read_parquet probes ``fsspec.implementations.http`` and only
    tolerates ModuleNotFoundError; in this environment aiohttp is absent and
    a concurrently half-initialized module surfaces as a plain ImportError
    that crashes reads (observed flakily). Installing a stub aiohttp makes
    the probe import deterministic; the http filesystem is never used."""
    import sys
    import types

    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401
        return
    except ImportError:
        sys.modules.pop("fsspec.implementations.http", None)
    # aiohttp/yarl are absent here; empty module stubs satisfy fsspec's
    # import-time references (their attributes are only touched at use time,
    # and the http filesystem is never actually used)
    for name in ("aiohttp", "yarl"):
        sys.modules.setdefault(name, types.ModuleType(name))
    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401
    except Exception:  # pragma: no cover - keep reads working regardless
        sys.modules.pop("fsspec.implementations.http", None)


def _patch_ray_http_probe() -> None:
    """Belt and braces for the same issue: Ray's ``_is_http_filesystem``
    only tolerates ModuleNotFoundError from the fsspec probe, but a
    concurrently half-initialized module raises plain ImportError. Wrap it
    so any ImportError means "not an http filesystem"."""
    try:
        from ray.data.datasource import path_util
    except Exception:  # pragma: no cover
        return
    orig = path_util._is_http_filesystem
    if getattr(orig, "_se_ray_safe", False):
        return

    def safe(fs):
        try:
            return orig(fs)
        except ImportError:
            return False

    safe._se_ray_safe = True
    path_util._is_http_filesystem = safe


def _tune_arrow_pool() -> None:
    """Optional override of Arrow-jemalloc's dirty-page decay (Arrow
    default 1 s) via SE_RAY_JEMALLOC_DECAY_MS — measured BOTH ways, so
    the default stays Arrow's:

    * An ISOLATED 32-task merge wave ran ~25% faster with decay 60 s
      (per-slice Arrow buffers freed mid-task stop being purged and
      re-faulted every slice).
    * But IN the full build, stretching decay to 15 s made the 2M-doc
      32-CPU postings stage 2.5x SLOWER (88 s vs 35 s): the previous
      stage's 32 workers then purge their retained arenas exactly while
      the next wave's 32 fresh workers fault theirs in, and the combined
      page free+zero storm contends the kernel allocator. With the 1 s
      default the purges complete during the (cheap) dictionary stage
      instead. Delaying memory reclaim shifts WHERE the churn lands, so
      it must drain inside the stage that caused it, not the next one."""
    import os

    ms = os.environ.get("SE_RAY_JEMALLOC_DECAY_MS")
    if not ms or ms == "off":
        return
    try:
        import pyarrow as pa

        pa.jemalloc_set_decay_ms(int(ms))
    except Exception:  # pragma: no cover - non-jemalloc builds
        pass


_tune_worker_malloc()
_guard_fsspec_http()
_patch_ray_http_probe()
_tune_arrow_pool()

from search_engine_ray.config import EngineConfig  # noqa: E402

__all__ = ["EngineConfig"]
__version__ = "0.1.0"
