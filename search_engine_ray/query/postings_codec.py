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
    within = np.arange(total, dtype=np.int64) - np.repeat(bounds_of(counts)[:-1], counts)
    return np.repeat(pp1, counts), pp2[np.repeat(lo, counts) + within]


def bounds_of(counts) -> np.ndarray:
    """[0, c0, c0 + c1, …]: bounds of consecutive segments of ``counts``."""
    out = np.zeros(len(counts) + 1, np.int64)
    np.add.accumulate(counts, dtype=np.int64, out=out[1:])
    return out


def segment_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sums of ``values`` over the consecutive segments ``bounds`` delimits."""
    run = bounds_of(values)
    return run[bounds[1:]] - run[bounds[:-1]]


class DamagedShardError(ValueError):
    """A postings shard file whose footer, term table or records
    disagree (stages/postings_file.py)."""


def decode_records(lean_bytes: np.ndarray, lean: np.ndarray, df: np.ndarray, where,
                   pos_bytes: np.ndarray | None = None, pos_nbytes: np.ndarray | None = None):
    """Records decoded together, with one VB decode of their lean parts
    (``lean_bytes``: record i's ``lean[i]`` bytes hold its ``df[i]``
    postings) → (doc_ids, tfs, pos_bounds), the records' postings back to
    back. With ``pos_bytes`` (their position bytes back to back,
    ``pos_nbytes[i]`` of record i), posting j's position bytes are
    ``pos_bytes[pos_bounds[j]:pos_bounds[j+1]]``; else pos_bounds is None.
    Raises DamagedShardError naming ``where(i)`` (file and term) for the
    first record i whose bytes do not hold its postings."""

    def damaged(bad: np.ndarray, what: str) -> DamagedShardError:
        return DamagedShardError(f"{where(int(np.flatnonzero(bad)[0]))}: {what}")

    lb = bounds_of(lean)
    # a batch's bytes fit int32 (a read batch, or one record of < 2 GiB)
    term_at = np.zeros(len(lean_bytes) + 1, np.int32 if len(lean_bytes) < 2**31 else np.int64)
    np.add.accumulate(lean_bytes >= 128, dtype=term_at.dtype, out=term_at[1:])
    n_vals = term_at[lb[1:]] - term_at[lb[:-1]]
    short = n_vals < df
    if len(lean_bytes):  # or a lean part cut inside a value
        short |= (lean > 0) & (lean_bytes[np.maximum(lb[1:] - 1, 0)] < 128)
    if short.any():
        raise damaged(short, "lean part does not hold its df postings")
    vals = vb_decode_array(lean_bytes).view(np.int64)
    pb = bounds_of(df)
    at = np.arange(pb[-1], dtype=np.int64) + (term_at[lb[:-1]] - pb[:-1]).repeat(df)
    doc_vals = vals[at]
    many = (doc_vals & 1).astype(bool)
    bad = n_vals != df + segment_sums(many, pb)
    if bad.any():
        raise damaged(bad, "lean part holds other than df + one value per "
                           "posting with tf > 1")
    gaps = doc_vals >> 1
    heads = pb[:-1][df > 0]
    low = gaps <= 0
    low[heads] = False  # a record's first gap is its first doc id
    if low.any():
        raise damaged(segment_sums(low, pb) > 0, "doc ids not strictly ascending")
    run = gaps.cumsum()
    doc_ids = run - (run[heads] - gaps[heads]).repeat(df[df > 0])
    is_doc = np.zeros(len(vals), bool)
    is_doc[at] = True
    tfs = many.astype(np.int64) + 1
    tfs[many] = vals[~is_doc] + 2
    if pos_bytes is None:
        return doc_ids, tfs, None
    ppb = bounds_of(pos_nbytes)
    ends = np.flatnonzero(pos_bytes >= 128)
    bad = (np.searchsorted(ends, ppb[1:]) - np.searchsorted(ends, ppb[:-1])
           != segment_sums(tfs, pb))
    if len(pos_bytes):  # or position bytes cut inside a value
        bad |= (pos_nbytes > 0) & (pos_bytes[np.maximum(ppb[1:] - 1, 0)] < 128)
    if bad.any():
        raise damaged(bad, "positions do not hold tf values per posting")
    pos_bounds = np.zeros(len(tfs) + 1, np.int64)
    pos_bounds[1:] = ends[np.cumsum(tfs) - 1] + 1
    return doc_ids, tfs, pos_bounds


class TermRecords(list):
    """Term records decoded together (a query's cache misses), all lean or
    all positional; ``num_rows`` counts those of terms the index holds."""

    @property
    def num_rows(self) -> int:
        return sum(r.num_rows for r in self)


@dataclass
class PostingsBatch(TermPostings):
    """Several records' postings back to back: record i's are rows
    ``bounds[i]:bounds[i+1]``, position offsets run over the whole batch. A
    batch of one record is that term's postings."""

    bounds: np.ndarray | None = None

    def split(self) -> list[TermPostings]:
        """Each record's postings; from a batch of several, in arrays of
        their own, so a cached term does not keep the whole batch alive."""
        if len(self.bounds) == 2:
            return [TermPostings(self.doc_ids, self.tfs, self.pos_offsets, self.pos_values)]
        out, b = [], self.bounds.tolist()
        for lo, hi in zip(b, b[1:]):
            offsets, values = None, self.pos_values
            if self.pos_offsets is not None:
                p0, p1 = int(self.pos_offsets[lo]), int(self.pos_offsets[hi])
                offsets, values = self.pos_offsets[lo:hi + 1] - p0, self.pos_values[p0:p1].copy()
            out.append(TermPostings(self.doc_ids[lo:hi].copy(), self.tfs[lo:hi].copy(),
                                    offsets, values))
        return out


def decode_term_chunks(recs: TermRecord | TermRecords) -> PostingsBatch:
    """The serving decode seam: the postings of the record(s) the locator
    read, decoded together (:func:`decode_records`); positional records'
    positions are also VB-decoded and un-delta'd per posting."""
    recs = [recs] if isinstance(recs, TermRecord) else recs
    df = np.fromiter((r.df for r in recs), np.int64, len(recs))
    lean = np.fromiter((r.lean_nbytes for r in recs), np.int64, len(recs))

    def where(i: int) -> str:
        return f"{recs[i].path}: term {recs[i].term!r}"

    if not recs[0].positional:  # a lean record is its lean part
        doc_ids, tfs, _ = decode_records(
            np.frombuffer(b"".join(r.data for r in recs), np.uint8), lean, df, where)
        return PostingsBatch(doc_ids, tfs, None, np.zeros(0, np.int64), bounds=bounds_of(df))
    data = [(memoryview(r.data), n) for r, n in zip(recs, lean.tolist())]
    pos_bytes = np.frombuffer(b"".join(v[n:] for v, n in data), np.uint8)
    doc_ids, tfs, _ = decode_records(
        np.frombuffer(b"".join(v[:n] for v, n in data), np.uint8), lean, df, where,
        pos_bytes, np.array([len(v) - n for v, n in data], np.int64))
    pos_offsets = bounds_of(tfs)
    run = bounds_of(vb_decode_array(pos_bytes).view(np.int64))
    # each posting's first position is absolute: drop what its start carried
    pos_values = run[1:] - run[pos_offsets[:-1]].repeat(tfs)
    return PostingsBatch(doc_ids, tfs, pos_offsets, pos_values, bounds=bounds_of(df))


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
    off = bounds_of(lens)
    gather = (np.arange(int(off[-1]), dtype=np.int64)
              + np.repeat(src_offsets[idx] - off[:-1], lens))
    return values[gather], off
