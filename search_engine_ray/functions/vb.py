"""Variable-byte + delta-gap codecs.

Byte format is the reference's terminator-bit VB
(/root/reference/src/compressors/vb_encode.rs:1-31): base-128 digits in
big-endian order, +128 marker on the LAST byte. Exact vectors (from the
reference's tests, vb_encode.rs:33-111): 0→[128], 1→[129], 127→[255],
1097→[8,201], 16384→[1,0,128].

Delta coding follows /root/reference/src/indexer/helper.rs:6-113: first value
absolute, then gaps, with the ``last == 0`` sentinel ("still absolute") —
numerically identical to plain diff/cumsum for ascending sequences starting
at ≥0, which is the only case that occurs (positions and doc_ids ascend).

We deliberately do NOT replicate the reference's 0x00 chunk delimiter
(chunk.rs:5,30-35): VB bytes of values ≥ 16384 contain interior zero bytes
(vb_encode.rs:91-103), so a delimiter scan mis-parses large gaps. Our chunk
layout stores explicit counts/byte-lengths instead (SURVEY.md §2.7 C5).

Scalar versions are the executable spec; *_array versions are the
numpy-vectorized hot path (bit-identical output, property-tested).
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# scalar (spec) codecs
# ---------------------------------------------------------------------------


def vb_encode(num: int) -> bytes:
    """vb_encode.rs:1-16."""
    out = []
    n = num
    while True:
        out.insert(0, n % 128)
        if n < 128:
            break
        n //= 128
    out[-1] += 128
    return bytes(out)


def vb_decode(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """vb_encode.rs:18-31 → (value, bytes_read)."""
    n = 0
    read = 0
    for i in range(offset, len(buf)):
        b = buf[i]
        read += 1
        if b < 128:
            n = n * 128 + b
        else:
            n = n * 128 + (b - 128)
            break
    return n, read


def vb_encode_list(values) -> bytes:
    return b"".join(vb_encode(int(v)) for v in values)


def vb_decode_list(buf: bytes) -> list[int]:
    out = []
    off = 0
    while off < len(buf):
        v, r = vb_decode(buf, off)
        if r == 0:
            break
        out.append(v)
        off += r
    return out


def delta_encode(values) -> list[int]:
    """helper.rs:28-44 semantics (ascending input): first absolute, then gaps;
    ``last == 0`` keeps the next value absolute (numerically = plain diff)."""
    out = []
    last = 0
    for v in values:
        v = int(v)
        out.append(v if last == 0 else v - last)
        last = v
    return out


def delta_decode(gaps) -> list[int]:
    """helper.rs:6-26 semantics."""
    out = []
    last = 0
    for g in gaps:
        g = int(g)
        v = g if last == 0 else last + g
        out.append(v)
        last = v
    return out


# ---------------------------------------------------------------------------
# vectorized codecs (bit-identical to the scalar spec)
# ---------------------------------------------------------------------------

_U64 = np.uint64


def vb_encode_array(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode a uint array → (bytes: uint8[], byte_lengths: int64[] per value).

    Concatenation of the per-value encodings == b"".join(vb_encode(v))."""
    vals = np.ascontiguousarray(values, dtype=_U64)
    n = len(vals)
    if n == 0:
        return np.zeros(0, np.uint8), np.zeros(0, np.int64)
    nb = np.ones(n, np.int64)
    t = _U64(128)
    while True:
        mask = vals >= t
        if not mask.any():
            break
        nb[mask] += 1
        if int(t) > (1 << 56):
            break
        t = _U64(int(t) * 128)
    ends = np.cumsum(nb)
    out = np.zeros(int(ends[-1]), np.uint8)
    for k in range(int(nb.max())):
        m = nb > k
        idx = ends[m] - 1 - k
        out[idx] = ((vals[m] >> _U64(7 * k)) & _U64(0x7F)).astype(np.uint8)
    out[ends - 1] += 128
    return out, nb


def vb_decode_array(buf: np.ndarray | bytes) -> np.ndarray:
    """Decode a full VB byte stream → uint64 values (vectorized)."""
    b = np.frombuffer(buf, dtype=np.uint8) if isinstance(buf, (bytes, bytearray, memoryview)) else np.asarray(buf, np.uint8)
    n = len(b)
    if n == 0:
        return np.zeros(0, _U64)
    ends = (b >= 128).nonzero()[0]
    if len(ends) == 0 or ends[-1] != n - 1:
        # trailing partial value: reference decode loop would stop; we require
        # well-formed streams (our writer always terminates values).
        raise ValueError("truncated VB stream")
    starts = np.empty(len(ends), np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    counts = ends - starts + 1
    byte_end = ends.repeat(counts)
    exp = (byte_end - np.arange(n)).astype(_U64)
    contrib = (b.astype(_U64) & _U64(0x7F)) << (_U64(7) * exp)
    return np.add.reduceat(contrib, starts)


def delta_encode_array(values: np.ndarray) -> np.ndarray:
    """Vectorized delta_encode for ascending uint sequences."""
    v = np.ascontiguousarray(values, dtype=np.int64)
    if len(v) == 0:
        return v.astype(_U64)
    g = np.empty_like(v)
    g[0] = v[0]
    np.subtract(v[1:], v[:-1], out=g[1:])
    # `last == 0` sentinel: gap vs 0 equals the absolute value — no-op.
    if (g[1:] < 0).any():
        raise ValueError("delta_encode_array requires ascending input")
    return g.astype(_U64)


def delta_decode_array(gaps: np.ndarray) -> np.ndarray:
    """Vectorized delta_decode (ascending reconstruction = cumsum)."""
    g = np.ascontiguousarray(gaps, dtype=_U64)
    return np.cumsum(g, dtype=_U64)


def binary_from_spans(data: np.ndarray, span_offsets: np.ndarray):
    """Zero-copy build of an Arrow binary column whose i-th value is
    data[span_offsets[i]:span_offsets[i+1]]. Falls back to large_binary
    (int64 offsets) when the byte stream exceeds the int32 offset range —
    a silent int32 wrap would corrupt the index."""
    import pyarrow as pa

    n = len(span_offsets) - 1
    if n >= 0 and len(span_offsets) and int(span_offsets[-1]) >= 2**31:
        return pa.Array.from_buffers(
            pa.large_binary(),
            n,
            [None, pa.py_buffer(np.ascontiguousarray(span_offsets, np.int64)), pa.py_buffer(data)],
        )
    return pa.Array.from_buffers(
        pa.binary(),
        n,
        [None, pa.py_buffer(np.ascontiguousarray(span_offsets, np.int32)), pa.py_buffer(data)],
    )


def binary_column_parts(arr) -> tuple[np.ndarray, np.ndarray]:
    """(offsets int64[n+1], data uint8[]) of an Arrow (Large)BinaryArray,
    handling array offsets (layout: int32/int64 offsets buffer + data)."""
    import pyarrow as pa

    assert isinstance(arr, pa.Array)
    off_dtype = np.int64 if pa.types.is_large_binary(arr.type) or pa.types.is_large_string(arr.type) else np.int32
    offsets = np.frombuffer(arr.buffers()[1], off_dtype)[arr.offset : arr.offset + len(arr) + 1]
    data = np.frombuffer(arr.buffers()[2], np.uint8) if arr.buffers()[2] is not None else np.zeros(0, np.uint8)
    return offsets.astype(np.int64), data


def encode_ascending(values: np.ndarray) -> bytes:
    """delta-gap + VB encode an ascending int array → bytes."""
    out, _ = vb_encode_array(delta_encode_array(values))
    return out.tobytes()


def decode_ascending(buf: bytes) -> np.ndarray:
    """Inverse of :func:`encode_ascending` → int64 array."""
    return delta_decode_array(vb_decode_array(buf)).astype(np.int64)
