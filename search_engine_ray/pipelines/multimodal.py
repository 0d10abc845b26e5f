"""Multimodal column plumbing: opaque binary payloads + typed metadata,
processed by actor-pool ``map_batches`` stages.

``decode_real`` is implemented against PIL, probed ONCE at actor init; in
this container the codec libraries are absent, so the probe fails and the
pipeline runs a clearly-marked deterministic fake decode instead (the
NotImplementedError is reachable only with PIL genuinely missing AND
decode_real called directly). Everything Ray-side — schema, small-batch
sizing for large binary rows, actor signature, output layout — is real and
tested with both paths.

Media table schema:
    doc_id: int64, media_type: string, payload: binary
"""

from __future__ import annotations

import hashlib
import logging

import pyarrow as pa
import ray.data

logger = logging.getLogger(__name__)


def media_from_documents(sf_dir: str):
    """Deterministic media table: each document's synthesized html bytes act
    as the opaque payload (stands in for image/audio bytes)."""
    from search_engine_ray.functions.textproc import synthesize_html

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        payloads = [synthesize_html(t or "").encode("utf-8") for t in batch["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "media_type": pa.array(["text/html"] * len(payloads), pa.string()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow")


class MediaFeatureStage:
    """Actor-pool decode/feature stage. ``__init__`` is where a real decoder
    would load its model/codecs once per actor; here it just probes for the
    (absent) libraries and falls back to the deterministic fake."""

    def __init__(self, use_real_decoder: bool = False):
        self.use_real = use_real_decoder
        try:  # pragma: no cover - libs absent in this container by design
            import PIL.Image  # noqa: F401

            self.pil_available = True
        except ImportError:
            self.pil_available = False

    def decode_real(self, payload: bytes) -> dict:
        """Real decode via PIL (probed once at actor init): open the image
        from bytes and report its TRUE dimensions, same output schema as
        the fake path. With PIL importable this is fully implemented —
        the NotImplementedError is reachable only when the codec library
        is genuinely absent (this container), and ``__call__`` falls back
        to the deterministic fake before ever hitting it."""
        if not self.pil_available:
            raise NotImplementedError(
                "media codecs unavailable in this environment; deterministic "
                "fake decode is used instead (see decode_fake)"
            )
        import io

        import PIL.Image

        digest = hashlib.md5(payload).hexdigest()
        with PIL.Image.open(io.BytesIO(payload)) as img:
            w, h = img.size
        return {
            "n_bytes": len(payload),
            "payload_md5": digest,
            "pseudo_width": int(w),
            "pseudo_height": int(h),
        }

    @staticmethod
    def decode_fake(payload: bytes) -> dict:
        """Deterministic stand-in: byte length, content md5, and pseudo
        dimensions derived from the digest (stable across processes)."""
        digest = hashlib.md5(payload).hexdigest()
        h = int(digest[:8], 16)
        return {
            "n_bytes": len(payload),
            "payload_md5": digest,
            "pseudo_width": 16 + h % 1024,
            "pseudo_height": 16 + (h // 1024) % 1024,
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = {"n_bytes": [], "payload_md5": [], "pseudo_width": [], "pseudo_height": []}
        n_fallback = 0
        for payload in batch["payload"].to_pylist():
            if self.use_real and self.pil_available:
                try:
                    f = self.decode_real(payload or b"")
                except Exception:
                    # undecodable payload (wrong format, truncated, not an
                    # image at all): deterministic fake instead of killing
                    # the actor task — the decode seam stays best-effort
                    f = self.decode_fake(payload or b"")
                    n_fallback += 1
            else:
                f = self.decode_fake(payload or b"")
            for k in feats:
                feats[k].append(f[k])
        if n_fallback:
            # hash-derived pseudo dims are indistinguishable from real ones
            # downstream — say so per batch instead of substituting silently
            logger.warning(
                "MediaFeatureStage: %d/%d payloads failed real decode; "
                "deterministic fake features substituted",
                n_fallback, batch.num_rows)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bytes": pa.array(feats["n_bytes"], pa.int64()),
                "payload_md5": pa.array(feats["payload_md5"], pa.string()),
                "pseudo_width": pa.array(feats["pseudo_width"], pa.int64()),
                "pseudo_height": pa.array(feats["pseudo_height"], pa.int64()),
            }
        )


def media_features(media_ds, concurrency=(1, 8), batch_size: int = 64):
    """Small batch_size on purpose: binary payload rows are wide — a batch ×
    pool concurrency must fit worker heaps (ray_guide.md memory note)."""
    return media_ds.map_batches(
        MediaFeatureStage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


class MediaResizeStage:
    """Aspect-preserving resize planning. The geometry (source dims →
    fit-in-box output dims) is REAL and oracle-checked; only the pixel
    work sits behind the stubbed decoder seam (``MediaFeatureStage
    .decode_real``). Source dims are fake-derived deterministically from
    the payload byte length so the whole stage is reproducible without
    codecs."""

    def __init__(self, target_w: int = 224, target_h: int = 224):
        self.tw, self.th = target_w, target_h

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        lens = pa.compute.binary_length(batch["payload"]).to_numpy(zero_copy_only=False)
        w0 = 16 + lens % 1023
        h0 = 16 + (lens // 7) % 1023
        scale = np.minimum(self.tw / w0, self.th / h0)
        out_w = np.maximum(1, np.floor(w0 * scale)).astype(np.int64)
        out_h = np.maximum(1, np.floor(h0 * scale)).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "src_w": pa.array(w0.astype("int64"), pa.int64()),
                "src_h": pa.array(h0.astype("int64"), pa.int64()),
                "out_w": pa.array(out_w, pa.int64()),
                "out_h": pa.array(out_h, pa.int64()),
            }
        )


def media_resize(media_ds, target_w: int = 224, target_h: int = 224,
                 concurrency=(1, 8), batch_size: int = 64):
    return media_ds.map_batches(
        MediaResizeStage,
        fn_constructor_args=(target_w, target_h),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


class FrameSampleStage:
    """Video-style frame sampling → one output row per sampled frame
    (doc_id, frame_idx, frame_md5), at most ``max_frames`` evenly-strided
    frames per payload.

    With ``use_real_decoder=True`` real decode is probed ONCE at actor
    init, PIL-style: PyAV first (in-memory container open), then OpenCV
    (tempfile — cv2.VideoCapture has no bytes API); otherwise neither is
    imported. With a codec library present and
    ``use_real_decoder=True``, frames come from the actual video stream
    (md5 of the decoded RGB frame bytes); otherwise the deterministic
    fallback treats the payload as consecutive ``frame_chars``-sized
    character frames of the utf-8-decoded text. The fallback's stride /
    explosion arithmetic is numpy-vectorized across the whole batch —
    only the per-frame md5 (no vectorized form exists) and the utf-8
    decode with replacement (codec semantics) touch rows individually."""

    def __init__(self, frame_chars: int = 1024, max_frames: int = 8,
                 use_real_decoder: bool = False):
        self.fc, self.mf = frame_chars, max_frames
        self.use_real = use_real_decoder
        self.backend = None
        if not use_real_decoder:
            return
        try:  # pragma: no cover - codec libs absent in this container
            import av  # noqa: F401

            self.backend = "av"
        except ImportError:
            try:  # pragma: no cover
                import cv2  # noqa: F401

                self.backend = "cv2"
            except ImportError:
                self.backend = None

    def decode_frames_real(self, payload: bytes) -> list[tuple[int, str]]:
        """Decode the payload as a video container and return
        [(frame_idx, md5-of-RGB-bytes)] for ≤ max_frames evenly-strided
        frames. Fully implemented against PyAV/OpenCV — reachable only
        when one of them imports (probed in __init__); this container
        ships neither, so the char-slice fallback runs instead."""
        if self.backend is None:  # pragma: no cover - loud seam, PIL-style
            raise NotImplementedError(
                "video codecs (av/cv2) unavailable in this environment; "
                "the deterministic char-slice fallback is used instead")
        if self.backend == "av":  # pragma: no cover - av absent here
            import io

            import av

            with av.open(io.BytesIO(payload)) as container:
                frames = [f.to_ndarray(format="rgb24")
                          for f in container.decode(video=0)]
        else:  # pragma: no cover - cv2 absent here
            import os
            import tempfile

            import cv2

            with tempfile.NamedTemporaryFile(suffix=".bin", delete=False) as tf:
                tf.write(payload)
                path = tf.name
            try:
                cap = cv2.VideoCapture(path)
                frames = []
                while True:
                    ok, frame = cap.read()
                    if not ok:
                        break
                    frames.append(cv2.cvtColor(frame, cv2.COLOR_BGR2RGB))
                cap.release()
            finally:
                os.unlink(path)
        n = max(1, len(frames))
        k = min(self.mf, n)
        out = []
        for j in range(k):
            fi = (j * n) // k
            frame_bytes = frames[fi].tobytes() if frames else b""
            out.append((fi, hashlib.md5(frame_bytes).hexdigest()))
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        if self.use_real and self.backend is not None:  # pragma: no cover
            ids_out, idx_out, md5_out = [], [], []
            n_fallback = 0
            for doc_id, payload in zip(batch["doc_id"].to_pylist(),
                                       batch["payload"].to_pylist()):
                try:
                    sampled = self.decode_frames_real(payload or b"")
                except Exception:
                    sampled = self._fallback_frames(payload or b"")
                    n_fallback += 1
                for fi, digest in sampled:
                    ids_out.append(doc_id)
                    idx_out.append(fi)
                    md5_out.append(digest)
            if n_fallback:
                logger.warning(
                    "FrameSampleStage: %d/%d payloads failed real video "
                    "decode; char-slice fallback frames substituted",
                    n_fallback, batch.num_rows)
            return pa.table({
                "doc_id": pa.array(ids_out, pa.int64()),
                "frame_idx": pa.array(idx_out, pa.int64()),
                "frame_md5": pa.array(md5_out, pa.string()),
            })

        # deterministic fallback, batch-vectorized: decode once per row
        # (codec semantics), then ALL stride arithmetic in numpy
        texts = [(p or b"").decode("utf-8", errors="replace")
                 for p in batch["payload"].to_pylist()]
        lens = np.fromiter((len(t) for t in texts), np.int64, count=len(texts))
        ns = np.maximum(1, -(-lens // self.fc))           # frames available
        ks = np.minimum(self.mf, ns)                       # frames sampled
        if len(texts) == 0 or int(ks.sum()) == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "frame_idx": pa.array([], pa.int64()),
                "frame_md5": pa.array([], pa.string()),
            })
        row = np.repeat(np.arange(len(texts), dtype=np.int64), ks)
        starts = np.cumsum(np.append(0, ks))[:-1]
        j = np.arange(len(row), dtype=np.int64) - np.repeat(starts, ks)
        fi = (j * ns[row]) // ks[row]                      # evenly-strided
        lo = fi * self.fc
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[row]
        md5_out = [
            hashlib.md5(texts[r][a:a + self.fc].encode("utf-8")).hexdigest()
            for r, a in zip(row.tolist(), lo.tolist())
        ]
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "frame_idx": pa.array(fi, pa.int64()),
            "frame_md5": pa.array(md5_out, pa.string()),
        })

    def _fallback_frames(self, payload: bytes) -> list[tuple[int, str]]:
        """Scalar spec of the char-slice fallback (one payload) — the
        property test pins the vectorized __call__ to this."""
        text = payload.decode("utf-8", errors="replace")
        n = max(1, -(-len(text) // self.fc))
        k = min(self.mf, n)
        out = []
        for j in range(k):
            fi = (j * n) // k
            frame = text[fi * self.fc:(fi + 1) * self.fc]
            out.append((fi, hashlib.md5(frame.encode("utf-8")).hexdigest()))
        return out


def media_frame_sample(media_ds, frame_chars: int = 1024, max_frames: int = 8,
                       concurrency=(1, 8), batch_size: int = 64):
    return media_ds.map_batches(
        FrameSampleStage,
        fn_constructor_args=(frame_chars, max_frames),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
