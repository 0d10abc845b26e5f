"""Seeded inputs: the Zipf webpages corpus and each workload's queries.

The corpus is generated in this process with numpy (never under Ray:
``sources.webpages.generate_webpages`` stalls at ``num_cpus=1``, see
README.md). Queries are drawn after the build from the index's own
dictionary by df rank, so every query term is in the dictionary.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

#: corpus shape (see README.md for why these sizes)
DOCS = 6_000
VOCAB = 4_000
ZIPF_S = 1.1
TOKENS_PER_DOC = 150

#: query shape
HEAD_POOL = 500
QUERY_TERMS = (2, 8)
N_QUERIES = 4_000
N_WARMUP = 50


@dataclass
class Corpus:
    path: str  # directory holding the corpus parquet
    urls: list[str]
    texts: list[str]  # the plaintext each html page extracts to
    text_bytes: int


def url_of(seed: int, i: int) -> str:
    # zero-padded: url sort order == generation order
    return f"https://bench-{seed}-{i:09d}.test/page"


def write_corpus(out_dir: str, seed: int, docs: int = DOCS, vocab: int = VOCAB,
                 zipf_s: float = ZIPF_S, tokens_per_doc: int = TOKENS_PER_DOC) -> Corpus:
    """Write ``docs`` webpages (url, html) drawn from ``seed`` to
    ``out_dir/corpus.parquet``: ``make_vocab(vocab)`` words, Zipf ``zipf_s``,
    doc lengths uniform in [tokens_per_doc/2, tokens_per_doc*3/2]; every
    7th doc has two paragraphs."""
    from search_engine_ray.functions.textproc import synthesize_html
    from search_engine_ray.sources.webpages import make_vocab

    rng = np.random.default_rng(seed)
    # each word keeps its Zipf rank across seeds: the seed draws the docs,
    # not which terms are frequent, so the postings layout (which shard
    # holds the long lists) and with it the read cost do not vary by seed
    words = np.asarray(make_vocab(vocab), dtype=object)
    w = np.arange(1, vocab + 1, dtype=np.float64) ** -zipf_s
    cdf = np.cumsum(w / w.sum())
    lens = rng.integers(tokens_per_doc // 2, tokens_per_doc * 3 // 2 + 1, docs)
    draws = np.minimum(np.searchsorted(cdf, rng.random(int(lens.sum()))), vocab - 1)
    tokens = words[draws]
    bounds = np.concatenate([[0], np.cumsum(lens)])
    texts = []
    for i in range(docs):
        doc = tokens[bounds[i]:bounds[i + 1]]
        if i % 7 == 0:
            half = len(doc) // 2
            texts.append(" ".join(doc[:half]) + "\n\n" + " ".join(doc[half:]))
        else:
            texts.append(" ".join(doc))
    urls = [url_of(seed, i) for i in range(docs)]
    html = [synthesize_html(t).encode("utf-8") for t in texts]
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(pa.table({"url": pa.array(urls, pa.string()),
                             "html": pa.array(html, pa.binary())}),
                   os.path.join(out_dir, "corpus.parquet"))
    return Corpus(out_dir, urls, texts, sum(len(t.encode("utf-8")) for t in texts))


@dataclass
class Queries:
    timed: list[str]
    warmup: list[str]


def terms_by_df(index_dir: str) -> list[str]:
    """Dictionary terms of a built index, by df descending then term."""
    t = pq.read_table(os.path.join(index_dir, "dictionary"), columns=["term", "df"])
    terms = np.asarray(t["term"].to_pylist(), dtype=object)
    order = np.lexsort((terms, -t["df"].to_numpy()))
    return terms[order].tolist()


def _cycled_permutations(rng, n: int):
    """Endless stream of 0..n-1 as back-to-back random permutations."""
    while True:
        yield from rng.permutation(n).tolist()


def draw_queries(index_dir: str, kind: str, seed: int, n: int = N_QUERIES,
                 n_warmup: int = N_WARMUP, head_pool: int = HEAD_POOL) -> Queries:
    """``kind`` = "head": 2–8 distinct terms per query, drawn Zipf-weighted
    (s = ZIPF_S) over the ``head_pool`` highest-df terms; "wide": drawn
    uniformly over the whole dictionary. Only terms the tokenizer maps to
    themselves are eligible, so each query term is one dictionary hit.

    Query lengths, and wide terms, come as passes over random permutations
    rather than independent draws: every run's prefix of queries then holds
    the same mix of lengths and of df ranks (each wide term once per pass),
    so the tail latency does not hinge on how many long queries or head
    terms one seed happened to draw."""
    from search_engine_ray.functions.tokenizer import Tokenizer

    tok = Tokenizer()
    terms = [t for t in terms_by_df(index_dir) if tok.normalize(t) == t]
    rng = np.random.default_rng([seed, 1 if kind == "head" else 2])
    lo, hi = QUERY_TERMS
    lengths = _cycled_permutations(rng, hi - lo + 1)
    if kind == "head":
        pool = terms[:head_pool]
        p = np.arange(1, len(pool) + 1, dtype=np.float64) ** -ZIPF_S
        p /= p.sum()

        def pick(k: int) -> list[int]:
            return rng.choice(len(pool), size=k, replace=False, p=p).tolist()
    elif kind == "wide":
        pool = terms
        stream = _cycled_permutations(rng, len(pool))

        def pick(k: int) -> list[int]:
            out: dict[int, None] = {}
            while len(out) < k:  # a repeat only at a pass boundary
                out.setdefault(next(stream), None)
            return list(out)
    else:
        raise ValueError(f"unknown query kind {kind!r}")

    def one() -> str:
        k = min(lo + next(lengths), len(pool))
        return " ".join(pool[i] for i in pick(k))

    timed = [one() for _ in range(n)]
    warmup = [one() for _ in range(n_warmup)]
    if kind == "head":
        # touch every pool term once so the cache is full before timing
        warmup += [" ".join(pool[i:i + 8]) for i in range(0, len(pool), 8)]
    return Queries(timed, warmup)
