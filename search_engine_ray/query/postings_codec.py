"""Decode postings back from the index: a term's record in its flat
shard file (stages/postings_file.py).

Mirrors the reference's read path: Block::decode_chunks_for_term →
Chunk::get_doc_ids / positions (/root/reference/src/indexer/block.rs:114-141,
chunk.rs:58-94) — but with explicit counts instead of the buggy 0x00
delimiter scan (SURVEY.md §2.7 C5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from search_engine_ray.functions.vb import vb_decode_array


#: the columns BM25 scoring reads: enough to decode a term's doc ids and
#: tfs. A ``locator.read`` naming only these reads a record's lean part (no
#: positions) and decode_term_chunks returns lean postings.
LEAN_COLUMNS = ["term", "salt", "chunk_seq", "first_doc_id", "doc_gaps", "tfs"]


@dataclass
class TermRecord:
    """One term's bytes as read from its shard file: the lean part (doc
    gaps and tfs, ``lean_nbytes`` bytes) and, when ``positional``, the
    concatenated per-posting position bytes after it. An absent term is an
    empty record (df 0, no bytes)."""

    term: str
    path: str
    df: int
    lean_nbytes: int
    data: bytes | memoryview
    positional: bool

    @property
    def num_rows(self) -> int:
        """Records read: 1, or 0 for an absent term."""
        return 1 if self.df else 0


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


class DamagedShardError(ValueError):
    """A postings shard file whose footer, term table or records
    disagree (stages/postings_file.py)."""


def _damaged(rec: TermRecord, what: str) -> DamagedShardError:
    return DamagedShardError(f"{rec.path}: term {rec.term!r}: {what}")


def decode_term_record(rec: TermRecord) -> TermPostings:
    """One term record → TermPostings: one VB decode of the lean part —
    df values (doc gap << 1 | tf > 1) and a cumsum, then tf - 2 for each
    flagged posting — and, when positional, one VB decode of the position
    bytes split per posting by tf. Raises, naming the file and the term,
    when the bytes do not hold the record's df postings."""
    df = rec.df
    z = np.zeros(0, np.int64)
    if df == 0:
        return TermPostings(z, z, np.zeros(1, np.int64) if rec.positional else None, z)
    buf = np.frombuffer(rec.data, np.uint8)
    try:
        vals = vb_decode_array(buf[:rec.lean_nbytes]).view(np.int64)
        pos = vb_decode_array(buf[rec.lean_nbytes:]) if rec.positional else None
    except ValueError as e:
        raise _damaged(rec, str(e)) from None
    many = (vals[:df] & 1).astype(bool)
    if len(vals) != df + int(many.sum()):
        raise _damaged(rec, f"lean part holds {len(vals)} values, expected "
                            f"{df} + one per posting with tf > 1")
    gaps = vals[:df] >> 1
    if not gaps[1:].all():
        raise _damaged(rec, "doc ids not strictly ascending")
    doc_ids = np.cumsum(gaps)
    tfs = many.astype(np.int64) + 1
    tfs[many] = vals[df:] + 2
    if pos is None:
        return TermPostings(doc_ids, tfs, None, z)
    if len(pos) != int(tfs.sum()):
        raise _damaged(rec, f"{len(pos)} positions, expected {int(tfs.sum())}")
    pos_values, pos_offsets = _restart_cumsum(pos, tfs)
    return TermPostings(doc_ids, tfs, pos_offsets, pos_values)


def decode_term_chunks(rec: TermRecord) -> TermPostings:
    """A term's postings from the record the locator read (the serving
    decode seam; see :func:`decode_term_record`)."""
    return decode_term_record(rec)


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
