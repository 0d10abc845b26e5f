"""Flat postings files: one byte file per hash shard, one record per term.

The reference serves a term by reading only its own blocks of one index
file: the dictionary maps term → block ids
(the reference's src/indexer/index_merge_writer.rs:126-200,
index_metadata.rs:3-48). Here every hash shard of the index is one file,
``postings/shard=K/postings.bin``, and a term is one contiguous record in
it, so a cache miss reads one byte range:

    [record of term 0][record of term 1] ... [term table][footer]

record   lean part: per posting VB(doc-id gap << 1 | tf > 1) — the first
         gap absolute — then VB(tf - 2) for each posting whose bit is
         set (tf = 1 takes no byte); then positions: each posting's
         ``pos_enc`` bytes from the runs (delta-gap VB, first absolute),
         concatenated in doc order. Posting i holds tfs[i] position
         values.
table    one VB stream of 5·n values — ``lean_nbytes[n]``,
         ``pos_nbytes[n]``, ``df[n]``, ``max_tf[n]``, term byte lengths
         ``[n]`` — then the UTF-8 term bytes; terms ascending (term_id
         order). Records are back to back, so a term's offset is the sum
         of the ``nbytes = lean_nbytes + pos_nbytes`` before it (~7 B per
         term plus the term).
footer   ``_FOOTER``: magic, n_terms, payload bytes (= the table's
         offset), table VB bytes, n_postings (Σ df, checked against the
         table on open), the smallest and largest doc id, chunk_size,
         salt_span.

A BM25 read takes ``lean_nbytes`` bytes at the term's offset, a
positional read ``nbytes``.
``df`` lets the decode check that a record holds exactly what the table
says, so a damaged file raises (naming file and term) instead of serving
a short postings list. ``max_tf`` and ``df`` answer index statistics
without a decode. The footer keeps the build's ``chunk_size`` and
``salt_span``, which define the reference's chunk count of a term
(:func:`shard_term_stats`); its doc-id range tells whether a shard spans
more than one salt.

Index-wide Ray Data consumers (cosine norms, segment compaction) read
decoded posting rows through :func:`read_posting_rows`.

Files are written under a temporary name and renamed into place, so a
killed build never leaves a partial shard behind. A merge that sorts in
blocks (stages/merge.py:_write_sorted_shards) writes each block's share of
a shard as a part file in this same format, and :func:`join_shard_parts`
joins a shard's parts into its file.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pyarrow as pa

from search_engine_ray.functions.vb import (
    binary_column_parts,
    binary_from_spans,
    vb_decode_array,
    vb_encode_array,
)
from search_engine_ray.query.postings_codec import (
    DamagedShardError,
    TermRecord,
    decode_term_record,
)

SHARD_FILE = "postings.bin"
_MAGIC = b"SEPFLAT2"
_FOOTER = struct.Struct("<8s8q")

#: postings rows per encode slice: bounds the fresh temporaries a writer
#: faults in per slice (see stages/merge.py:_merge_unit_to_shards)
_SLICE_ROWS = 1_500_000


def shard_file(postings_dir: str, shard: int) -> str:
    return os.path.join(postings_dir, f"shard={shard}", SHARD_FILE)


def _segment_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sums of ``values`` over the consecutive segments ``bounds``
    delimits (len(bounds) - 1 segments, empty segments allowed)."""
    run = np.zeros(len(values) + 1, np.int64)
    np.cumsum(values, out=run[1:])
    return run[bounds[1:]] - run[bounds[:-1]]


class ShardWriter:
    """Appends term records to one shard file, then writes its term table
    and footer and renames it into place. Terms must arrive ascending,
    each term in one :meth:`add` call."""

    def __init__(self, path: str, chunk_size: int, salt_span: int):
        self.path = path
        self.chunk_size = chunk_size
        self.salt_span = salt_span
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._tmp = f"{path}.tmp-{os.getpid()}"
        self._f = open(self._tmp, "wb")
        self._pos = 0
        self._terms: list[pa.Array] = []
        self._cols: list[tuple[np.ndarray, ...]] = []
        self.n_postings = self.min_doc_id = self.max_doc_id = 0

    def add(self, terms: pa.Array, starts: np.ndarray, doc_ids: np.ndarray,
            pos_enc: pa.Array) -> None:
        """Records of ``terms``: term i owns postings rows
        ``starts[i]:starts[i+1]`` of ``doc_ids`` (ascending within a term)
        and ``pos_enc`` (one binary value per posting)."""
        n = len(doc_ids)
        if n == 0:
            return
        starts = np.asarray(starts, np.int64)
        heads = starts[:-1]
        df = np.diff(starts)
        gaps = np.empty(n, np.int64)
        gaps[0] = doc_ids[0]
        np.subtract(doc_ids[1:], doc_ids[:-1], out=gaps[1:])
        gaps[heads] = doc_ids[heads]
        inner = np.ones(n, bool)
        inner[heads] = False
        if (gaps[inner] <= 0).any():
            raise ValueError(f"{self.path}: doc ids not ascending within a term")
        pos_bounds, pos_data = binary_column_parts(pos_enc)
        # a sliced array's bounds index into its parent's bytes
        pos_data = pos_data[pos_bounds[0]:pos_bounds[-1]]
        pos_bounds = pos_bounds - pos_bounds[0]
        # tf = VB terminator bytes in a posting's pos_enc span; int32 while
        # it fits keeps the per-byte temporary at 4 B (see
        # stages/merge.py:_merge_unit_to_shards on fresh-page faults)
        term_csum = np.zeros(len(pos_data) + 1,
                             np.int32 if len(pos_data) < 2**31 else np.int64)
        np.cumsum(pos_data >= 128, dtype=term_csum.dtype, out=term_csum[1:])
        tfs = term_csum[pos_bounds[1:]] - term_csum[pos_bounds[:-1]]
        many = tfs > 1
        doc_enc, doc_lens = vb_encode_array((gaps << 1) | many)
        tf_enc, tf_lens = vb_encode_array(tfs[many] - 2)
        doc_b = _segment_sums(doc_lens, starts)
        many_at = np.zeros(len(df) + 1, np.int64)
        np.cumsum(_segment_sums(many, starts), out=many_at[1:])
        tf_b = _segment_sums(tf_lens, many_at)
        pos_at = pos_bounds[starts]
        lean = doc_b + tf_b
        nbytes = lean + np.diff(pos_at)

        doc_at = np.zeros(len(df) + 1, np.int64)
        np.cumsum(doc_b, out=doc_at[1:])
        tf_at = np.zeros(len(df) + 1, np.int64)
        np.cumsum(tf_b, out=tf_at[1:])
        doc_mv, tf_mv, pos_mv = memoryview(doc_enc), memoryview(tf_enc), memoryview(pos_data)
        write = self._f.write
        for d0, d1, t0, t1, p0, p1 in zip(doc_at[:-1].tolist(), doc_at[1:].tolist(),
                                          tf_at[:-1].tolist(), tf_at[1:].tolist(),
                                          pos_at[:-1].tolist(), pos_at[1:].tolist()):
            write(doc_mv[d0:d1])
            write(tf_mv[t0:t1])
            write(pos_mv[p0:p1])
        self._index(terms, lean, nbytes - lean, df, np.maximum.reduceat(tfs, heads),
                    int(doc_ids.min()), int(doc_ids.max()))

    def _index(self, terms: pa.Array, lean: np.ndarray, pos_nbytes: np.ndarray,
               df: np.ndarray, max_tf: np.ndarray, lo_doc: int, hi_doc: int) -> None:
        """Term-table entries of records just written to the file, whose
        doc ids lie in ``[lo_doc, hi_doc]``."""
        self._cols.append((lean, pos_nbytes, df, max_tf))
        self._terms.append(terms)
        self._pos += int(lean.sum() + pos_nbytes.sum())
        self.min_doc_id = min(self.min_doc_id, lo_doc) if self.n_postings else lo_doc
        self.max_doc_id = max(self.max_doc_id, hi_doc)
        self.n_postings += int(df.sum())

    def copy_records(self, sf: "ShardFile", lo: int, hi: int) -> None:
        """Append records ``lo:hi`` of another shard file as they are (the
        footer's doc-id range widens by that file's)."""
        if hi <= lo:
            return
        start = int(sf.offsets[lo])
        sf.copy_bytes(start, int(sf.offsets[hi - 1] + sf.nbytes[hi - 1]) - start, self._f)
        self._index(pa.array(sf.terms[lo:hi], pa.string()), sf.lean[lo:hi],
                    sf.nbytes[lo:hi] - sf.lean[lo:hi], sf.df[lo:hi], sf.max_tf[lo:hi],
                    sf.min_doc_id, sf.max_doc_id)

    def splice(self, frags: list[tuple["ShardFile", int]]) -> None:
        """Append ONE term whose postings arrive as records in several
        shard files (``frags``: (file, record index), in doc order) as one
        record: the fragments' doc values back to back, each later
        fragment's first gap re-based on the previous fragment's last doc
        id, then their tf bytes, then their position bytes. Holds one
        fragment's lean part at a time."""
        sf0, i0 = frags[0]
        term = sf0.terms[i0]
        write = self._f.write
        kept, lean_total, first, prev_last = [], 0, None, None
        df_total = pos_total = max_tf = 0
        for sf, i in frags:
            off, lean, nb, df = (int(a[i]) for a in (sf.offsets, sf.lean, sf.nbytes, sf.df))
            data = sf.pread(off, lean, term)
            tp = decode_term_record(TermRecord(term, sf.path, df, lean, data, False))
            ends = np.flatnonzero(np.frombuffer(data, np.uint8) >= 128)
            doc_nb = int(ends[df - 1]) + 1  # the df doc values; tf values follow
            if prev_last is None:
                write(data[:doc_nb])
                lean_total += doc_nb
                first = int(tp.doc_ids[0])
            else:
                gap = int(tp.doc_ids[0]) - prev_last
                if gap <= 0:
                    raise ValueError(f"{self.path}: term {term!r}: fragments overlap "
                                     f"(doc {tp.doc_ids[0]} after {prev_last})")
                head, _ = vb_encode_array(np.array([(gap << 1) | int(tp.tfs[0] > 1)]))
                rest = data[int(ends[0]) + 1:doc_nb]
                write(head.tobytes())
                write(rest)
                lean_total += len(head) + len(rest)
            prev_last = int(tp.doc_ids[-1])
            kept.append((sf, off, lean, nb, doc_nb))
            df_total += df
            pos_total += nb - lean
            max_tf = max(max_tf, int(sf.max_tf[i]))
        for sf, off, lean, _nb, doc_nb in kept:
            sf.copy_bytes(off + doc_nb, lean - doc_nb, self._f)
            lean_total += lean - doc_nb
        for sf, off, lean, nb, _doc_nb in kept:
            sf.copy_bytes(off + lean, nb - lean, self._f)
        self._index(pa.array([term], pa.string()), np.array([lean_total]),
                    np.array([pos_total]), np.array([df_total]), np.array([max_tf]),
                    first, prev_last)

    def close(self) -> None:
        terms = (pa.concat_arrays([t.cast(pa.string()) for t in self._terms])
                 if self._terms else pa.array([], pa.string()))
        toffs, tdata = binary_column_parts(terms)
        cols = [np.concatenate(c) for c in zip(*self._cols)]
        table, _ = vb_encode_array(np.concatenate(cols + [np.diff(toffs)]))
        f = self._f
        f.write(table)
        f.write(tdata[toffs[0]:toffs[-1]])
        f.write(_FOOTER.pack(_MAGIC, len(terms), self._pos, len(table), self.n_postings,
                             self.min_doc_id, self.max_doc_id, self.chunk_size,
                             self.salt_span))
        f.close()
        os.replace(self._tmp, self.path)

    def abort(self) -> None:
        self._f.close()
        try:
            os.remove(self._tmp)
        except FileNotFoundError:  # pragma: no cover
            pass


def write_shard_file(path: str, rows: pa.Table, tids: np.ndarray,
                     order: np.ndarray | None, terms_of, chunk_size: int,
                     salt_span: int) -> int:
    """Write one shard file from postings ``rows`` (``doc_id``,
    ``pos_enc``): ``order`` lists the shard's row indexes in (term_id,
    doc_id) order, or is None when ``rows`` already are in that order;
    ``tids`` is the term_id of every row and ``terms_of(term_ids)`` gives
    their term strings. Rows are taken and encoded in slices cut at term
    starts. → the file's posting count."""
    w = ShardWriter(path, chunk_size, salt_span)
    try:
        tids_sorted = tids if order is None else tids[order]
        n = len(tids_sorted)
        change = np.empty(n, bool)
        if n:
            change[0] = True
            np.not_equal(tids_sorted[1:], tids_sorted[:-1], out=change[1:])
        heads = np.flatnonzero(change)
        cut = 0
        while cut < n:
            i = int(np.searchsorted(heads, cut + _SLICE_ROWS))
            nxt = int(heads[i]) if i < len(heads) else n
            batch = (rows.slice(cut, nxt - cut) if order is None
                     else rows.take(pa.array(order[cut:nxt]))).combine_chunks()
            lo, hi = np.searchsorted(heads, [cut, nxt])
            sl_heads = heads[lo:hi]
            w.add(terms_of(tids_sorted[sl_heads]), np.append(sl_heads - cut, nxt - cut),
                  batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
                  batch["pos_enc"].chunk(0))
            cut = nxt
        w.close()
    except BaseException:
        w.abort()
        raise
    return w.n_postings


class ShardFile:
    """An open shard file: its footer and term table, loaded and checked
    once; :meth:`read` returns one term's record with one ``pread``."""

    def __init__(self, path: str):
        self.path = path
        self._f = open(path, "rb", buffering=0)
        fd = self._f.fileno()
        size = os.fstat(fd).st_size
        if size < _FOOTER.size:
            raise DamagedShardError(f"{path}: {size} bytes, shorter than the footer")
        (magic, n, table_at, table_vb, self.n_postings, self.min_doc_id, self.max_doc_id,
         self.chunk_size, self.salt_span) = _FOOTER.unpack(
            os.pread(fd, _FOOTER.size, size - _FOOTER.size))
        table_nbytes = size - _FOOTER.size - table_at
        if (magic != _MAGIC or n < 0 or table_at < 0 or table_vb < 0
                or table_vb > table_nbytes):
            raise DamagedShardError(
                f"{path}: footer does not describe a {size}-byte shard file "
                "(truncated or not a postings shard)")
        self.payload_nbytes = table_at
        table = os.pread(fd, table_nbytes, table_at)
        if len(table) != table_nbytes:  # pragma: no cover - file shrank
            raise DamagedShardError(f"{path}: term table cut short")
        try:
            cols = vb_decode_array(np.frombuffer(table, np.uint8, table_vb)).view(np.int64)
        except ValueError as e:
            raise DamagedShardError(f"{path}: term table: {e}") from None
        if len(cols) != 5 * n:
            raise DamagedShardError(f"{path}: term table holds {len(cols)} values, "
                                    f"expected {5 * n}")
        lean, pos_nb, df, max_tf, term_len = cols.reshape(5, n)
        term_at = np.zeros(n + 1, np.int64)
        np.cumsum(term_len, out=term_at[1:])
        if term_at[-1] != table_nbytes - table_vb:
            raise DamagedShardError(f"{path}: term lengths cover {term_at[-1]} of "
                                    f"{table_nbytes - table_vb} term bytes")
        if df.sum() != self.n_postings:
            raise DamagedShardError(f"{path}: term table holds {df.sum()} postings, "
                                    f"the footer {self.n_postings}")
        terms = pa.Array.from_buffers(pa.large_string(), n, [
            None, pa.py_buffer(term_at), pa.py_buffer(table[table_vb:])])
        try:
            terms.validate(full=True)
        except pa.ArrowInvalid as e:
            raise DamagedShardError(f"{path}: term table: {e}") from None
        self.terms = terms.to_pylist()
        nb = lean + pos_nb
        off = np.zeros(n, np.int64)
        np.cumsum(nb[:-1], out=off[1:])
        bad = np.flatnonzero((lean < 0) | (pos_nb < 0) | (df < 0) | (off + nb > table_at))
        if len(bad) or (n and off[-1] + nb[-1] != table_at):
            i = int(bad[0]) if len(bad) else n - 1
            raise DamagedShardError(
                f"{path}: term {self.terms[i]!r}: record [{off[i]}, {off[i] + nb[i]}) "
                f"(lean {lean[i]} B) does not fit the {table_at}-byte payload")
        self._index = {t: i for i, t in enumerate(self.terms)}
        self.offsets, self.lean, self.nbytes, self.df, self.max_tf = off, lean, nb, df, max_tf
        self._entries = list(zip(off.tolist(), lean.tolist(), nb.tolist(), df.tolist()))

    def entry(self, term: str) -> tuple[int, int, int, int] | None:
        """``term``'s (offset, lean_nbytes, nbytes, df), or None."""
        i = self._index.get(term)
        return None if i is None else self._entries[i]

    def pread(self, off: int, n: int, term: str) -> bytes:
        """``n`` payload bytes at ``off``, read for ``term``."""
        data = os.pread(self._f.fileno(), n, off)
        if len(data) != n:
            raise DamagedShardError(
                f"{self.path}: term {term!r}: read {len(data)} of {n} bytes at {off}")
        return data

    def read(self, term: str, positions: bool) -> TermRecord:
        """``term``'s record — its lean part, or the whole record when
        ``positions`` — or an empty record when the shard lacks it."""
        ent = self.entry(term)
        if ent is None:
            return TermRecord(term, self.path, 0, 0, b"", positions)
        off, lean, nb, df = ent
        return TermRecord(term, self.path, df, lean,
                          self.pread(off, nb if positions else lean, term), positions)

    def copy_bytes(self, off: int, n: int, dst, step: int = 8 << 20) -> None:
        """Copy ``n`` payload bytes at ``off`` to the file object ``dst``,
        ``step`` bytes at a time."""
        while n > 0:
            data = os.pread(self._f.fileno(), min(n, step), off)
            if not data:
                raise DamagedShardError(f"{self.path}: payload cut short at {off}")
            dst.write(data)
            off += len(data)
            n -= len(data)

    def close(self) -> None:
        self._f.close()


def shard_file_rows(path: str) -> int:
    """The posting count a shard file's footer records."""
    with open(path, "rb") as f:
        f.seek(-_FOOTER.size, os.SEEK_END)
        magic, _n, _at, _vb, n_postings, *_rest = _FOOTER.unpack(f.read(_FOOTER.size))
    if magic != _MAGIC:
        raise DamagedShardError(f"{path}: not a postings shard file")
    return n_postings


def shard_files(postings_dir: str) -> list[str]:
    """The shard files under ``postings_dir``, in shard order."""
    found = []
    for name in os.listdir(postings_dir) if os.path.isdir(postings_dir) else ():
        p = os.path.join(postings_dir, name, SHARD_FILE)
        if name.startswith("shard=") and os.path.isfile(p):
            found.append((int(name.split("=", 1)[1]), p))
    return [p for _k, p in sorted(found)]


#: payload bytes decoded together by the index-wide readers: bounds a read
#: task's temporaries (a few bytes each per payload byte)
_BATCH_BYTES = 8 << 20
#: a lean read skips the position bytes between two records' lean parts
#: from this many on, and reads through shorter gaps (one pread instead of
#: two)
_LEAN_GAP_BYTES = 4 << 10


def _record_batches(sf: ShardFile, positions: bool):
    """Consecutive record ranges ``(lo, hi)`` of ``sf``, each ~``_BATCH_BYTES``
    of the bytes a read decodes — whole records when ``positions``, their
    lean parts otherwise — and at least one record."""
    ends = np.cumsum(sf.nbytes if positions else sf.lean)
    lo = 0
    while lo < len(sf.terms):
        start = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + _BATCH_BYTES, "right")))
        yield lo, hi
        lo = hi


def _read_lean(sf: ShardFile, lo: int, hi: int) -> np.ndarray:
    """The lean parts of records ``lo:hi`` of ``sf``, back to back: one
    pread per group of records whose lean parts lie less than
    ``_LEAN_GAP_BYTES`` of position bytes apart."""
    off, lean, nb = sf.offsets[lo:hi], sf.lean[lo:hi], sf.nbytes[lo:hi]
    is_first = np.ones(len(off), bool)
    is_first[1:] = (nb - lean)[:-1] >= _LEAN_GAP_BYTES
    first = np.flatnonzero(is_first)
    last = np.append(first[1:], len(off)) - 1
    g_off, g_end = off[first], off[last] + lean[last]
    span = np.frombuffer(b"".join(
        sf.pread(a, b - a, sf.terms[lo + i])
        for i, a, b in zip(first.tolist(), g_off.tolist(), g_end.tolist())), np.uint8)
    g_at = np.zeros(len(first), np.int64)  # each group's start in ``span``
    np.cumsum((g_end - g_off)[:-1], out=g_at[1:])
    grp = np.cumsum(is_first) - 1
    at = g_at[grp] + off - g_off[grp]  # each lean part's start in ``span``
    lb = np.zeros(len(lean) + 1, np.int64)
    np.cumsum(lean, out=lb[1:])
    return span[np.arange(lb[-1]) + np.repeat(at - lb[:-1], lean)]


def _decode_records(sf: ShardFile, lo: int, hi: int, positions: bool):
    """Records ``lo:hi`` of ``sf`` decoded together → (doc_ids, tfs,
    pos_bytes, pos_bounds): with ``positions`` from one read of their byte
    range, otherwise from their lean parts alone (:func:`_read_lean`). One
    VB decode covers every lean part; position bytes are only sliced per
    posting (posting i's ``pos_enc`` is
    ``pos_bytes[pos_bounds[i]:pos_bounds[i+1]]``; both None unless
    ``positions``). Raises, naming the file and the first term at fault,
    when a record does not hold its table entry."""
    off, lean, nb, df = sf.offsets[lo:hi], sf.lean[lo:hi], sf.nbytes[lo:hi], sf.df[lo:hi]

    def damaged(bad: np.ndarray, what: str) -> DamagedShardError:
        i = int(np.flatnonzero(bad)[0])
        return DamagedShardError(f"{sf.path}: term {sf.terms[lo + i]!r}: {what}")

    lb = np.zeros(len(lean) + 1, np.int64)
    np.cumsum(lean, out=lb[1:])
    if positions:
        base = int(off[0])
        span = np.frombuffer(sf.pread(base, int(off[-1] + nb[-1]) - base, sf.terms[lo]),
                             np.uint8)
        # lean bytes = [off, off + lean) of each record: +1/-1 marks, cumsum
        mark = np.zeros(len(span) + 1, np.int8)
        np.add.at(mark, off - base, 1)
        np.add.at(mark, off - base + lean, -1)
        in_lean = np.cumsum(mark[:-1], dtype=np.int8).view(bool)
        lean_bytes = span[in_lean]
    else:
        lean_bytes = _read_lean(sf, lo, hi)
    # a batch's bytes fit int32 (_BATCH_BYTES, or one record of < 2 GiB)
    term_at = np.zeros(len(lean_bytes) + 1, np.int32 if len(lean_bytes) < 2**31 else np.int64)
    np.cumsum(lean_bytes >= 128, dtype=term_at.dtype, out=term_at[1:])
    n_vals = term_at[lb[1:]] - term_at[lb[:-1]]
    cut = (lean > 0) & (lean_bytes[np.maximum(lb[1:] - 1, 0)] < 128)
    if cut.any() or (n_vals < df).any():
        raise damaged(cut | (n_vals < df), "lean part does not hold its df postings")
    vals = vb_decode_array(lean_bytes).view(np.int64)
    pb = np.zeros(len(df) + 1, np.int64)
    np.cumsum(df, out=pb[1:])
    at = np.arange(pb[-1], dtype=np.int64) + np.repeat(term_at[lb[:-1]] - pb[:-1], df)
    doc_vals = vals[at]
    many = (doc_vals & 1).astype(bool)
    bad = n_vals != df + _segment_sums(many, pb)
    if bad.any():
        raise damaged(bad, "lean part holds other than df + one value per "
                           "posting with tf > 1")
    gaps = doc_vals >> 1
    heads = pb[:-1]
    inner = np.ones(len(gaps), bool)
    inner[heads] = False
    if (gaps[inner] <= 0).any():
        i = int(np.flatnonzero(inner & (gaps <= 0))[0])
        raise damaged(np.arange(len(df)) == np.searchsorted(pb, i, "right") - 1,
                      "doc ids not strictly ascending")
    run = np.cumsum(gaps)
    doc_ids = run - np.repeat(run[heads] - gaps[heads], df)
    is_doc = np.zeros(len(vals), bool)
    is_doc[at] = True
    tfs = many.astype(np.int64) + 1
    tfs[many] = vals[~is_doc] + 2
    if not positions:
        return doc_ids, tfs, None, None
    pos_bytes = span[~in_lean]
    pos_nb = nb - lean
    ppb = np.zeros(len(pos_nb) + 1, np.int64)
    np.cumsum(pos_nb, out=ppb[1:])
    ends = np.flatnonzero(pos_bytes >= 128)
    n_pos = np.searchsorted(ends, ppb[1:]) - np.searchsorted(ends, ppb[:-1])
    bad = (n_pos != _segment_sums(tfs, pb)) | (pos_bytes[np.maximum(ppb[1:] - 1, 0)] < 128)
    if bad.any():
        raise damaged(bad, "positions do not hold tf values per posting")
    pos_bounds = np.zeros(len(tfs) + 1, np.int64)
    pos_bounds[1:] = ends[np.cumsum(tfs) - 1] + 1
    return doc_ids, tfs, pos_bytes, pos_bounds


def _posting_rows_schema(positions: bool) -> pa.Schema:
    """The schema of :func:`read_posting_rows`' rows."""
    return pa.schema([("term", pa.dictionary(pa.int32(), pa.string())), ("df", pa.int64()),
                      ("doc_id", pa.int64()), ("tf", pa.int64())]
                     + ([("pos_enc", pa.binary())] if positions else []))


def shard_posting_rows(path: str, positions: bool):
    """Yield one shard file's postings, one table per ~``_BATCH_BYTES`` of
    records decoded together: a row per posting, in (term, doc_id) order,
    with its term (dictionary-encoded: one string per record), the term's
    df, doc_id, tf and — when ``positions`` — its ``pos_enc`` bytes, sliced
    from the record as they are. An empty shard yields one empty table."""
    sf = ShardFile(path)
    try:
        if not sf.terms:
            yield _posting_rows_schema(positions).empty_table()
        for lo, hi in _record_batches(sf, positions):
            doc_ids, tfs, pos_bytes, pos_bounds = _decode_records(sf, lo, hi, positions)
            df = sf.df[lo:hi]
            cols = [pa.DictionaryArray.from_arrays(
                        np.repeat(np.arange(hi - lo, dtype=np.int32), df),
                        pa.array(sf.terms[lo:hi], pa.string())),
                    pa.array(np.repeat(df, df)), pa.array(doc_ids), pa.array(tfs)]
            if positions:
                cols.append(binary_from_spans(pos_bytes, pos_bounds))
                if cols[-1].type != pa.binary():
                    # a silent large_binary flip would mix schemas within
                    # one read_posting_rows dataset
                    raise ValueError(f"{path}: over 2 GiB of position bytes in one "
                                     f"batch of terms from {sf.terms[lo]!r}")
            yield pa.Table.from_arrays(cols, schema=_posting_rows_schema(positions))
    finally:
        sf.close()


def read_posting_rows(postings_dir: str, positions: bool = False):
    """A Ray Dataset of the index's postings (:func:`shard_posting_rows`),
    decoded from the shard files one read task per shard — the reader for
    index-wide Ray Data consumers (cosine norms, segment compaction)."""
    import ray.data

    paths = shard_files(postings_dir)
    if not paths:
        return ray.data.from_arrow(_posting_rows_schema(positions).empty_table())

    def decode(batch: pa.Table):
        for p in batch["path"].to_pylist():
            yield from shard_posting_rows(p, positions)

    return ray.data.from_items([{"path": p} for p in paths],
                               override_num_blocks=len(paths)).map_batches(
        decode, batch_format="pyarrow", batch_size=1)


def _chunks_per_term(salts: np.ndarray, df: np.ndarray, chunk_size: int) -> np.ndarray:
    """Chunks per term of consecutive terms' postings (``df`` each, with
    the given ``salts``): ≤chunk_size postings of each (term, salt) group."""
    n = len(salts)
    rec = np.repeat(np.arange(len(df)), df)
    change = np.ones(n, bool)
    np.logical_or(rec[1:] != rec[:-1], salts[1:] != salts[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    chunks = (np.diff(np.append(starts, n)) + chunk_size - 1) // chunk_size
    return np.bincount(rec[starts], weights=chunks, minlength=len(df)).astype(np.int64)


def shard_term_stats(path: str) -> pa.Table:
    """(term, n_postings, max_tf, n_chunks) of every term of one shard
    file, from its term table: n_postings is the term's df, and n_chunks
    counts the reference's ≤chunk_size-posting chunks of each (term, salt
    = doc_id // salt_span) group. Doc ids are decoded only when the
    footer's doc-id range spans more than one salt; otherwise a term's
    chunks are ceil(df / chunk_size)."""
    sf = ShardFile(path)
    try:
        span, size = sf.salt_span, sf.chunk_size
        if sf.min_doc_id // span == sf.max_doc_id // span:
            n_chunks = (sf.df + size - 1) // size
        else:
            n_chunks = np.concatenate([
                _chunks_per_term(_decode_records(sf, lo, hi, False)[0] // span,
                                 sf.df[lo:hi], size)
                for lo, hi in _record_batches(sf, False)])
        return pa.table({"term": pa.array(sf.terms, pa.string()),
                         "n_postings": pa.array(sf.df, pa.int64()),
                         "max_tf": pa.array(sf.max_tf, pa.int64()),
                         "n_chunks": pa.array(n_chunks, pa.int64())})
    finally:
        sf.close()


def join_shard_parts(path: str, parts: list[str]) -> int:
    """Join part files holding consecutive (term_id, doc_id) ranges of one
    shard, in order, into the shard file ``path``; the parts are removed.
    Runs of whole records are copied as bytes; a term whose postings
    straddle parts is spliced into one record (ShardWriter.splice). Holds
    the parts' term tables (together, the shard's) and one fragment's lean
    part at a time; bytes move in bounded steps. → the file's posting
    count."""
    if len(parts) == 1:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        os.replace(parts[0], path)
        return shard_file_rows(path)
    files = [ShardFile(p) for p in parts]
    w = ShardWriter(path, files[0].chunk_size, files[0].salt_span)
    try:
        pending: list[tuple[ShardFile, int]] = []  # fragments of one term

        def flush() -> None:
            if len(pending) > 1:
                w.splice(pending)
            elif pending:
                w.copy_records(pending[0][0], pending[0][1], pending[0][1] + 1)
            pending.clear()

        for j, f in enumerate(files):
            n = len(f.terms)
            if not n:
                continue
            lo = 0
            if pending and f.terms[0] == pending[0][0].terms[pending[0][1]]:
                pending.append((f, 0))
                lo = 1
                if n == 1:  # the whole part is one fragment, which may go on
                    continue
            flush()
            nxt = next((g for g in files[j + 1:] if g.terms), None)
            hi = n - 1 if nxt is not None and nxt.terms[0] == f.terms[-1] else n
            w.copy_records(f, lo, hi)
            if hi < n:
                pending.append((f, hi))
        flush()
        w.close()
    except BaseException:
        w.abort()
        raise
    finally:
        for f in files:
            f.close()
    for p in parts:
        os.remove(p)
    return w.n_postings
