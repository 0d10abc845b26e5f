"""Stable hashing utilities for dedup / fingerprinting.

Everything is deterministic across processes and platforms (no PYTHONHASHSEED
dependence): md5/blake2 based, or splitmix64-style integer mixing in numpy.
"""

from __future__ import annotations

import hashlib

import numpy as np

_U64 = np.uint64
_MASK64 = _U64(0xFFFFFFFFFFFFFFFF)


def md5_hex(text: str) -> str:
    """Matches DuckDB's md5(text) for UTF-8 strings (oracle-SQL parity)."""
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def md5_hex_batch(texts) -> list[str]:
    md5 = hashlib.md5
    return [md5((t or "").encode("utf-8")).hexdigest() for t in texts]


def stable_word_hash(word: str) -> int:
    """64-bit stable hash of a token (first 8 bytes of blake2b)."""
    return int.from_bytes(hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest(), "little")


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — cheap vectorized re-hash of uint64 arrays."""
    x = x.astype(_U64)
    x = (x + _U64(0x9E3779B97F4A7C15)) & _MASK64
    x = ((x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)) & _MASK64
    x = ((x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)) & _MASK64
    return x ^ (x >> _U64(31))


_POLY_P = _U64(1099511628211)  # FNV-ish odd multiplier (mod 2^64)
_POLY_P_INT = int(_POLY_P)  # the same, as the scalar spec's Python int


def poly_hash_str(s: str) -> int:
    """Scalar spec of :func:`hash_strings_arrow`: polynomial hash of the
    UTF-8 bytes with splitmix finalization. Deterministic across processes,
    platforms and library versions (on-disk shard routing depends on it)."""
    M = 0xFFFFFFFFFFFFFFFF
    b = s.encode("utf-8")
    acc = 0
    for byte in b:
        acc = (acc * _POLY_P_INT + byte) & M
    acc ^= (len(b) * 0x9E3779B97F4A7C15) & M
    # pure-int splitmix64 (mirrors mix64)
    acc = (acc + 0x9E3779B97F4A7C15) & M
    acc = ((acc ^ (acc >> 30)) * 0xBF58476D1CE4E5B9) & M
    acc = ((acc ^ (acc >> 27)) * 0x94D049BB133111EB) & M
    return acc ^ (acc >> 31)


def hash_strings_arrow(arr) -> np.ndarray:
    """Vectorized 64-bit hash of an Arrow string/binary array → uint64[n].

    One pass over the shared byte buffer: per-byte contribution
    ``byte * P^(len-1-pos)`` (uint64 wraparound) segment-summed via cumsum
    differencing (robust to empty strings, unlike reduceat), then length-
    mixed and splitmix-finalized. Bit-identical to :func:`poly_hash_str`
    (property-tested). Nulls hash like empty strings."""
    import pyarrow as pa

    from search_engine_ray.functions.vb import binary_column_parts

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.zeros(0, _U64)
    offsets, data = binary_column_parts(arr)
    base = offsets[0]
    offsets = offsets - base
    data = data[base : base + offsets[-1]] if len(data) else data
    lens = np.diff(offsets)
    total = int(offsets[-1])
    if total == 0:
        acc = np.zeros(n, _U64)
    else:
        max_len = int(lens.max())
        # P^k mod 2^64 via array accumulate (silent wraparound by design)
        pows = np.full(max_len, _POLY_P, _U64)
        pows[0] = _U64(1)
        pows = np.multiply.accumulate(pows)
        pos = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], lens)
        exp = np.repeat(lens, lens) - 1 - pos
        contrib = data.astype(_U64) * pows[exp]
        csum = np.zeros(total + 1, _U64)
        np.cumsum(contrib, out=csum[1:])
        acc = csum[offsets[1:]] - csum[offsets[:-1]]
    acc = acc ^ (lens.astype(_U64) * _U64(0x9E3779B97F4A7C15))
    return mix64(acc)


def batch_token_hashes(texts) -> tuple[np.ndarray, np.ndarray]:
    """Whole-batch token hashing: Arrow string array of texts →
    (offsets int64[n+1], hashes uint64[total]) where doc i's token hashes
    are ``hashes[offsets[i]:offsets[i+1]]``.

    Lowercase + whitespace-split + poly-hash entirely in Arrow/numpy — the
    per-doc Python loop this replaces (blake2b per token) was the measured
    CPU floor of the whole dedup pipeline. Per-doc output equals
    ``[poly_hash_str(t) for t in text.lower().split()]`` (property-tested).
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    toks = pc.utf8_split_whitespace(pc.utf8_lower(texts))
    counts = pc.fill_null(pc.list_value_length(toks), 0).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    # trim: workaround for the nondeterministic split_whitespace kernel bug
    # (see stages/tokenize.py — trailing whitespace glued onto last token)
    flat = pc.utf8_trim_whitespace(flat)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    if len(flat) == 0:
        return np.zeros(n + 1, np.int64), np.zeros(0, _U64)
    # Arrow's split emits empty tokens at string edges; Python's drops them
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False).astype(bool)
    h = hash_strings_arrow(flat)[keep]
    doc_idx = np.repeat(np.arange(n), counts)[keep]
    kept_counts = np.bincount(doc_idx, minlength=n)
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(kept_counts, out=offsets[1:])
    return offsets, h


def batch_shingle_hashes(offsets: np.ndarray, token_hashes: np.ndarray,
                         k: int) -> tuple[np.ndarray, np.ndarray]:
    """Whole-batch k-shingling over the flat token-hash layout of
    :func:`batch_token_hashes` → (sh_offsets int64[n+1], shingle hashes).

    One global rolling pass; windows that would cross a document boundary
    are masked out. Per-doc output equals :func:`shingle_hashes` on that
    doc's slice (property-tested)."""
    n_docs = len(offsets) - 1
    total = len(token_hashes)
    counts = np.diff(offsets)
    sh_counts = np.maximum(counts - k + 1, 0)
    sh_offsets = np.zeros(n_docs + 1, np.int64)
    np.cumsum(sh_counts, out=sh_offsets[1:])
    m = total - k + 1
    if m <= 0 or sh_offsets[-1] == 0:
        return sh_offsets, np.zeros(0, _U64)
    t = token_hashes.astype(_U64)
    acc = np.zeros(m, _U64)
    for j in range(k):
        acc = (acc * _U64(1099511628211) + mix64(t[j : m + j])) & _MASK64
    sh_all = mix64(acc)
    # window starting at i is valid iff tokens i..i+k-1 are in one doc:
    # i.e. i >= doc_start and i + k <= doc_end for i's doc
    doc_idx = np.repeat(np.arange(n_docs), counts)[:m]
    doc_end = offsets[1:][doc_idx]
    valid = (np.arange(m) + k) <= doc_end
    return sh_offsets, sh_all[valid]


def shingle_hashes(token_hashes: np.ndarray, k: int) -> np.ndarray:
    """Hashes of k-token shingles from per-token 64-bit hashes (vectorized:
    combine a sliding window with distinct per-offset mixes)."""
    n = len(token_hashes)
    if n < k:
        return np.zeros(0, _U64)
    acc = np.zeros(n - k + 1, _U64)
    t = token_hashes.astype(_U64)
    for j in range(k):
        acc = (acc * _U64(1099511628211) + mix64(t[j : n - k + 1 + j])) & _MASK64
    return mix64(acc)


def winnow_fingerprint(token_hashes: np.ndarray, k: int = 5, window: int = 4) -> np.ndarray:
    """Winnowing document fingerprint (Schleimer et al., SIGMOD'03 — public
    algorithm): k-gram hashes, keep the minimum of each sliding window,
    deduplicated. Deterministic; robust to local edits."""
    h = shingle_hashes(token_hashes, k)
    if len(h) == 0:
        return np.zeros(0, _U64)
    if len(h) <= window:
        return np.unique(h.min(keepdims=True))
    sw = np.lib.stride_tricks.sliding_window_view(h, window)
    return np.unique(sw.min(axis=1))
