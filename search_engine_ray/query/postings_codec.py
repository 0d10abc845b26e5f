"""Decode chunk rows (stages/merge.py CHUNK_SCHEMA) back into postings.

Mirrors the reference's read path: Block::decode_chunks_for_term →
Chunk::get_doc_ids / positions (/root/reference/src/indexer/block.rs:114-141,
chunk.rs:58-94) — but with explicit lengths instead of the buggy 0x00
delimiter scan (SURVEY.md §2.7 C5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from search_engine_ray.functions.vb import binary_column_parts, vb_decode_array


#: the chunk columns BM25 scoring reads: enough to order a term's chunk rows
#: and decode its doc ids and tfs. The position columns (pos_lens, pos_gaps)
#: are often most of a row's bytes, so a read that names only these prunes
#: them, and decode_term_chunks returns lean postings.
LEAN_COLUMNS = ["term", "salt", "chunk_seq", "first_doc_id", "doc_gaps", "tfs"]


@dataclass
class TermPostings:
    """Merged, doc_id-ascending postings of one term.

    Lean postings (decoded from a read without the position columns, see
    ``LEAN_COLUMNS``) carry doc ids and tfs only: ``pos_offsets`` is None
    and ``pos_values`` is an empty array, so counting positions still works
    while every positional access raises."""

    doc_ids: np.ndarray  # int64, ascending
    tfs: np.ndarray  # int64
    # positions as a flat array + offsets (positions[offsets[i]:offsets[i+1]]);
    # offsets None on lean postings
    pos_offsets: np.ndarray | None
    pos_values: np.ndarray
    # tf total of postings dropped from this list whose docs collection
    # statistics still count (a segment set's deleted docs)
    dropped_tf: int = 0

    @property
    def df(self) -> int:
        return len(self.doc_ids)

    @property
    def ctf(self) -> int:
        """Collection frequency: the term's tf total, dropped postings
        included."""
        return int(self.tfs.sum()) + self.dropped_tf

    def positions_of(self, i: int) -> np.ndarray:
        if self.pos_offsets is None:
            raise ValueError("lean postings hold no positions")
        return self.pos_values[self.pos_offsets[i] : self.pos_offsets[i + 1]]

    def positions_for_doc(self, doc_id: int) -> np.ndarray | None:
        i = int(np.searchsorted(self.doc_ids, doc_id))
        if i < len(self.doc_ids) and self.doc_ids[i] == doc_id:
            return self.positions_of(i)
        return None


def proximity_window_pairs(pp1: np.ndarray, pp2: np.ndarray, k: int
                           ) -> tuple[np.ndarray, np.ndarray]:
    """All (p1, p2) with p2 > p1 and p2 - p1 <= k over two ASCENDING
    position arrays — the reference's one-directional window
    (positional_intersect/mod.rs:322-343) as two ``searchsorted`` passes +
    one gather instead of the O(n·m) nested Python loop (round-2 VERDICT
    #8). Output order equals the nested loop's: p1-major, p2 ascending."""
    pp1 = np.asarray(pp1, np.int64)
    pp2 = np.asarray(pp2, np.int64)
    if not len(pp1) or not len(pp2):
        z = np.zeros(0, np.int64)
        return z, z
    lo = np.searchsorted(pp2, pp1, side="right")          # first p2 > p1
    hi = np.searchsorted(pp2, pp1 + k, side="right")      # last p2 <= p1+k
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        z = np.zeros(0, np.int64)
        return z, z
    bounds = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=bounds[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(bounds[:-1], counts)
    return np.repeat(pp1, counts), pp2[np.repeat(lo, counts) + within]


def _restart_cumsum(gaps: np.ndarray, counts: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Un-delta ``gaps`` split into consecutive segments of ``counts``
    values, each segment's first value absolute → (values, segment
    offsets). One global cumsum minus the total carried into each segment
    start."""
    bounds = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=bounds[1:])
    if bounds[-1] != len(gaps):
        raise ValueError(f"segment counts cover {bounds[-1]} of {len(gaps)} values")
    run = np.zeros(len(gaps) + 1, np.int64)
    np.cumsum(gaps.view(np.int64), out=run[1:])
    return run[1:] - np.repeat(run[bounds[:-1]], counts), bounds


def _column(table: pa.Table, name: str) -> pa.Array:
    col = table.column(name)
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


def _binary_stream(arr: pa.Array) -> np.ndarray:
    """The values of a binary column concatenated, zero-copy."""
    offsets, data = binary_column_parts(arr)
    return data[offsets[0] : offsets[-1]]


def decode_term_chunks(chunks: pa.Table) -> TermPostings:
    """All chunk rows of ONE term (any order, any number of record
    batches) → merged TermPostings, in one vectorized pass: one VB decode
    of the concatenated doc-gap streams restarted at every chunk (each
    chunk's first doc id is absolute), one flatten of the tfs, and one VB
    decode of the concatenated position streams split by the flattened
    per-posting byte lengths (``pos_lens``).

    Positions are decoded only when the table has the ``pos_gaps`` and
    ``pos_lens`` columns; a table read with ``LEAN_COLUMNS`` gives lean
    postings (``pos_offsets`` None, ``pos_values`` empty, see
    :class:`TermPostings`).

    Rows are ordered by (salt, first_doc_id): salt buckets are disjoint
    ascending doc_id ranges, and within a (term, salt) group every chunk —
    including fragments of block-straddling groups — holds a disjoint
    ascending doc_id range, so this ordering restores global doc_id order
    exactly (stages/merge.py).
    """
    positional = "pos_gaps" in chunks.column_names
    if chunks.num_rows == 0:
        z = np.zeros(0, np.int64)
        return TermPostings(z, z, np.zeros(1, np.int64) if positional else None, z)
    if chunks.num_rows > 1:
        order = np.lexsort((_column(chunks, "chunk_seq").to_numpy(),
                            _column(chunks, "first_doc_id").to_numpy(),
                            _column(chunks, "salt").to_numpy()))
        if (np.diff(order) != 1).any():
            chunks = chunks.take(order)
    tf_col = _column(chunks, "tfs")
    tfs = tf_col.flatten().to_numpy().astype(np.int64)
    doc_ids, _ = _restart_cumsum(
        vb_decode_array(_binary_stream(_column(chunks, "doc_gaps"))),
        np.diff(tf_col.offsets.to_numpy()))
    if not positional:
        return TermPostings(doc_ids, tfs, None, np.zeros(0, np.int64))
    pos_lens = _column(chunks, "pos_lens").flatten().to_numpy().astype(np.int64)
    buf = _binary_stream(_column(chunks, "pos_gaps"))
    # values per posting = VB terminator bytes in its byte span
    byte_bounds = np.zeros(len(pos_lens) + 1, np.int64)
    np.cumsum(pos_lens, out=byte_bounds[1:])
    if byte_bounds[-1] != len(buf):
        raise ValueError(f"pos_lens cover {byte_bounds[-1]} of {len(buf)} position bytes")
    terminators = np.zeros(len(buf) + 1, np.int64)
    np.cumsum(buf >= 128, out=terminators[1:])
    counts = terminators[byte_bounds[1:]] - terminators[byte_bounds[:-1]]
    pos_values, pos_offsets = _restart_cumsum(vb_decode_array(buf), counts)
    return TermPostings(doc_ids, tfs, pos_offsets, pos_values)


def segmented_min_distance(pos1: np.ndarray, off1: np.ndarray,
                           pos2: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """Per-segment min |a − b| between two ragged ASCENDING position sets
    (segment i of ``posX`` is ``posX[offX[i]:offX[i+1]]``; same segment
    count on both sides, every segment non-empty). One fused-key
    searchsorted finds each left position's nearest right neighbor in its
    own segment (insertion point clamped to the segment's block bounds —
    cross-segment neighbors are masked, never compared), then a
    ``minimum.reduceat`` folds per segment. No per-segment Python."""
    n_seg = len(off1) - 1
    if n_seg <= 0:
        return np.zeros(0, np.int64)
    n1 = np.diff(off1)
    n2 = np.diff(off2)
    big = np.int64(1) << 40
    f1 = np.repeat(np.arange(n_seg, dtype=np.int64), n1) * big + pos1
    f2 = np.repeat(np.arange(n_seg, dtype=np.int64), n2) * big + pos2
    idx = np.searchsorted(f2, f1)
    lo_bound = np.repeat(off2[:-1], n1)
    hi_bound = np.repeat(off2[1:], n1)
    inf = np.int64(1) << 60
    right = np.where(idx < hi_bound,
                     f2[np.minimum(idx, len(f2) - 1)] - f1, inf)
    left = np.where(idx - 1 >= lo_bound,
                    f1 - f2[np.maximum(idx - 1, 0)], inf)
    return np.minimum.reduceat(np.minimum(right, left), off1[:-1])


def ragged_slices(src_offsets: np.ndarray, values: np.ndarray,
                  idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather the ragged segments ``values[src_offsets[i]:src_offsets[i+1]]``
    for each i in ``idx`` into one flat array + new offsets — the shared
    kernel behind per-candidate position slicing (proximity scoring, LTR
    positional features, distributed prox fan-outs)."""
    lens = src_offsets[idx + 1] - src_offsets[idx]
    off = np.zeros(len(idx) + 1, np.int64)
    np.cumsum(lens, out=off[1:])
    gather = (np.arange(int(off[-1]), dtype=np.int64)
              + np.repeat(src_offsets[idx] - off[:-1], lens))
    return values[gather], off
