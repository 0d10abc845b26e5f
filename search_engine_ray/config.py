"""Engine configuration.

The reference hard-codes every knob (SURVEY.md §2.9): SPIMI spill threshold
10_000_000 bytes (/root/reference/src/dictionary/mod.rs:31-33), 64 KB index
blocks (/root/reference/src/indexer/block.rs:9), 128 postings per chunk
(/root/reference/src/indexer/index_merge_writer.rs:148). We keep the
semantically meaningful constants (chunk size = the skip/scoring granularity)
and expose everything as config.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    # --- chunking / index layout -------------------------------------------
    #: postings per compressed chunk; the chunk is the skip unit, each chunk
    #: stores max_doc_id (reference: index_merge_writer.rs:148, chunk.rs:9).
    chunk_size: int = 128
    #: hot-term salting: postings of one term are grouped by
    #: ``doc_id // salt_span`` so no single groupby-group exceeds
    #: ~salt_span postings (reference has no salting — single node).
    #: Salt buckets of one term are disjoint ascending doc_id ranges, so
    #: concatenating them in salt order restores global doc_id order.
    salt_span: int = 1 << 20
    #: number of hash shards of the postings index: shard = poly_hash(term)
    #: % index_shards. The ONE partitioning key reused across build (sharded
    #: merges with per-shard resume manifests) and serving (the engine maps
    #: term → shard and reads only the term's record in that shard's file).
    index_shards: int = 32
    #: number of independent merge jobs (resume units); runs are hive-
    #: partitioned by poly_hash(term) % merge_units and each unit merges the
    #: index_shards/merge_units output shards congruent to it. Must divide
    #: index_shards. More units = finer resume + smaller in-memory sorts +
    #: better wave load-balance (a worker's FIRST task pays the cold-heap
    #: fault cost once however many tasks follow, so several tasks per
    #: worker amortize it at every CPU count — measured: 32 units cut the
    #: 8-CPU postings wave 4.5 s → 3.3 s on the 480k bench corpus at equal
    #: 2-CPU cost); fewer = fewer run files per tokenize task. 32 = one
    #: unit per output shard.
    merge_units: int = 32
    #: on-disk index format version; part of every stage fingerprint so
    #: format changes invalidate cached/resumable indexes. v3 = hash-sharded
    #: runs/postings layout + dictionary (term, df, term_id, shard); v4 =
    #: one flat postings file per shard (stages/postings_file.py); v5 = its
    #: term table holds max_tf and its footer the posting count and doc-id
    #: range.
    format_version: int = 5

    # --- scoring ------------------------------------------------------------
    #: BM25 parameters. The reference defines none (its live scoring is
    #: tf·idf, scoring/mod.rs:34-48); frozen at the textbook defaults.
    bm25_k1: float = 1.2
    bm25_b: float = 0.75

    # --- execution ----------------------------------------------------------
    #: rows per batch for the tokenize actor pool.
    tokenize_batch_size: int = 1024
    #: actor pool size for the tokenize stage; None = let Ray use tasks.
    tokenize_concurrency: int | None = None
    #: target rows per output file for parquet sinks; keeps run/index files
    #: from fragmenting into hundreds of tiny files when upstream blocks are
    #: small (tiny files make every downstream sort latency-bound).
    min_rows_per_file: int | None = 250_000

    #: also index bigram terms ("{prev} {cur}" of consecutive emitted
    #: tokens, position = cur.position - 1 — the index-side mirror of the
    #: reference's query-side bigrams, tokenizer.rs:150-160). Serves the
    #: blended unigram+bigram top-k its dead handle_query intended
    #: (search_engine/mod.rs:118-211). Off by default: it grows the index
    #: and changes dictionary/df outputs.
    index_bigrams: bool = False

    # --- tokenizer ----------------------------------------------------------
    #: extra lemma file (reference format, tokenizer.rs:52-87); merged over
    #: the built-in lemma table when set.
    lemma_path: str | None = None
    #: query-actor dictionary representation: "front_coded" (blocked
    #: length-prefixed string blob — several times smaller per actor, the
    #: at-scale default; the reference's string_in_memory_dict.rs
    #: alternative) or "hash" (plain dict, fastest lookups).
    dict_repr: str = "front_coded"

    def with_(self, **kw) -> "EngineConfig":
        from dataclasses import replace

        return replace(self, **kw)
