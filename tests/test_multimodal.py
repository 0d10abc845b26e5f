"""Multimodal plumbing: binary payload schema, actor-pool stages, resize
geometry, frame-sample explosion. The codec seam stays stubbed (libs absent
in this container by design) — these tests pin the REAL parts."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from search_engine_ray.pipelines.multimodal import (
    FrameSampleStage,
    MediaFeatureStage,
    MediaResizeStage,
    media_frame_sample,
    media_from_documents,
    media_resize,
)


def _batch(payloads):
    return pa.table(
        {
            "doc_id": pa.array(range(len(payloads)), pa.int64()),
            "media_type": pa.array(["application/octet-stream"] * len(payloads)),
            "payload": pa.array(payloads, pa.binary()),
        }
    )


class TestResizeGeometry:
    def test_aspect_fit(self):
        out = MediaResizeStage(224, 224)(_batch([b"x" * 5000, b"y" * 123, b""]))
        df = out.to_pandas()
        for _, r in df.iterrows():
            # fits in the box, aspect preserved to floor rounding, nonzero
            assert 1 <= r["out_w"] <= 224 and 1 <= r["out_h"] <= 224
            scale = min(224 / r["src_w"], 224 / r["src_h"])
            assert r["out_w"] == max(1, int(np.floor(r["src_w"] * scale)))
            assert r["out_h"] == max(1, int(np.floor(r["src_h"] * scale)))
        # at least one dimension touches the box for large sources
        big = df.iloc[0]
        assert big["out_w"] == 224 or big["out_h"] == 224

    def test_source_dims_deterministic(self):
        a = MediaResizeStage()(_batch([b"z" * 777])).to_pandas()
        b = MediaResizeStage()(_batch([b"q" * 777])).to_pandas()  # same length
        assert a["src_w"][0] == b["src_w"][0] and a["src_h"][0] == b["src_h"][0]


class TestFrameSample:
    def test_explodes_and_strides(self):
        text = "abcd" * 1000  # 4000 chars → 4 frames of 1024 (last short)
        out = FrameSampleStage(1024, 8)(_batch([text.encode()])).to_pandas()
        assert list(out["frame_idx"]) == [0, 1, 2, 3]
        want0 = hashlib.md5(text[:1024].encode()).hexdigest()
        assert out["frame_md5"][0] == want0

    def test_max_frames_cap(self):
        text = "x" * (1024 * 100)
        out = FrameSampleStage(1024, 8)(_batch([text.encode()])).to_pandas()
        assert len(out) == 8
        idx = out["frame_idx"].to_numpy()
        assert (np.diff(idx) > 0).all() and idx[0] == 0  # strictly strided

    def test_empty_payload_one_frame(self):
        out = FrameSampleStage()(_batch([b""])).to_pandas()
        assert len(out) == 1 and out["frame_idx"][0] == 0

    def test_vectorized_batch_equals_scalar_spec(self):
        """The numpy-vectorized __call__ reproduces the per-payload scalar
        spec (_fallback_frames) row for row — boundary sizes, invalid
        utf-8 (replacement chars shift char counts vs bytes), multi-byte
        chars, and the empty payload all included."""
        payloads = [
            b"",
            b"a",
            b"x" * 1023, b"x" * 1024, b"x" * 1025,
            b"y" * (1024 * 7 + 3),
            b"z" * (1024 * 100),              # mf-capped
            "é" * 2000,                        # 2-byte chars: bytes≠chars
            b"\xff\xfe invalid utf8 \x80" * 300,  # replacement chars
            ("mixéé世" * 500),
        ]
        payloads = [p.encode() if isinstance(p, str) else p for p in payloads]
        for fc, mf in [(1024, 8), (100, 3), (1, 2), (7, 1)]:
            stage = FrameSampleStage(fc, mf)
            got = stage(_batch(payloads)).to_pandas()
            want = []
            for i, p in enumerate(payloads):
                for fi, digest in stage._fallback_frames(p):
                    want.append((i, fi, digest))
            assert list(zip(got["doc_id"], got["frame_idx"],
                            got["frame_md5"])) == want, (fc, mf)

    def test_video_decode_probe_without_codecs(self):
        """Neither av nor cv2 ships in this container: the probe leaves
        backend=None, decode_frames_real raises the loud seam, and
        use_real_decoder=True still serves batches via the fallback."""
        stage = FrameSampleStage()
        assert stage.backend is None
        with pytest.raises(NotImplementedError):
            stage.decode_frames_real(b"abc")
        out = FrameSampleStage(use_real_decoder=True)(
            _batch([b"hello" * 300])).to_pandas()
        assert len(out) >= 1  # fallback path served the batch

    def test_default_stage_probes_no_codecs(self, monkeypatch):
        """Without use_real_decoder the stage never imports av or cv2, and
        serves the same fallback frames."""
        import builtins

        imported = []
        real_import = builtins.__import__

        def recording(name, *args, **kwargs):
            imported.append(name)
            return real_import(name, *args, **kwargs)

        text = "abcd" * 1000
        monkeypatch.setattr(builtins, "__import__", recording)
        stage = FrameSampleStage()
        monkeypatch.setattr(builtins, "__import__", real_import)
        assert stage.backend is None
        assert not {"av", "cv2"} & set(imported), imported
        out = stage(_batch([text.encode()])).to_pandas()
        assert list(out["frame_idx"]) == [0, 1, 2, 3]
        assert list(out["frame_md5"]) == [
            hashlib.md5(text[i * 1024:(i + 1) * 1024].encode()).hexdigest()
            for i in range(4)]

    def test_video_decode_implemented_with_av(self, monkeypatch):
        """With PyAV importable the NotImplementedError is unreachable:
        decode_frames_real opens the container, strides the decoded
        frames, and hashes the RGB bytes. av is absent here, so a minimal
        stand-in module exercises the path (the PIL-test pattern)."""
        import sys
        import types

        class _Frame:
            def __init__(self, fill):
                self.fill = fill

            def to_ndarray(self, format):
                assert format == "rgb24"
                return np.full((2, 2, 3), self.fill, np.uint8)

        class _Container:
            def __enter__(self):
                return self

            def __exit__(self, *a):
                return False

            def decode(self, video):
                assert video == 0
                return [_Frame(i) for i in range(10)]

        av = types.ModuleType("av")
        av.open = lambda fp: _Container()
        monkeypatch.setitem(sys.modules, "av", av)
        stage = FrameSampleStage(max_frames=4, use_real_decoder=True)
        assert stage.backend == "av"
        sampled = stage.decode_frames_real(b"fake-video-bytes")
        assert [fi for fi, _ in sampled] == [0, 2, 5, 7]  # (j*10)//4 stride
        want0 = hashlib.md5(np.full((2, 2, 3), 0, np.uint8).tobytes()).hexdigest()
        assert sampled[0][1] == want0
        out = stage(_batch([b"fake-video-bytes"])).to_pandas()
        assert list(out["frame_idx"]) == [0, 2, 5, 7]  # real path in __call__


class TestStubSeam:
    def test_real_decode_raises_only_without_pil(self):
        stage = MediaFeatureStage()
        assert not stage.pil_available  # this container has no codecs
        with pytest.raises(NotImplementedError):
            stage.decode_real(b"abc")
        # use_real=True still serves batches (graceful fallback to fake)
        out = stage.__class__(use_real_decoder=True)(_batch([b"xy"])).to_pandas()
        assert len(out) == 1 and out["n_bytes"][0] == 2

    def test_real_decode_implemented_with_pil(self, monkeypatch):
        """With PIL importable the NotImplementedError is unreachable:
        decode_real opens the bytes and reports true dimensions. PIL is
        absent here, so a minimal stand-in module exercises the path."""
        import sys
        import types

        class _Img:
            size = (640, 480)

            def __enter__(self):
                return self

            def __exit__(self, *a):
                return False

        pil = types.ModuleType("PIL")
        pil_image = types.ModuleType("PIL.Image")
        pil_image.open = lambda fp: _Img()
        pil.Image = pil_image
        monkeypatch.setitem(sys.modules, "PIL", pil)
        monkeypatch.setitem(sys.modules, "PIL.Image", pil_image)
        stage = MediaFeatureStage(use_real_decoder=True)
        assert stage.pil_available
        f = stage.decode_real(b"fake-image-bytes")
        assert (f["pseudo_width"], f["pseudo_height"]) == (640, 480)
        assert f["n_bytes"] == 16
        out = stage(_batch([b"fake-image-bytes"])).to_pandas()
        assert out["pseudo_width"][0] == 640  # real path used in __call__


class TestPipelines:
    def test_end_to_end_over_testdata(self, ray_session):
        media = media_from_documents("/root/testdata/sf0.001")
        rs = media_resize(media).to_pandas()
        fs = media_frame_sample(media).to_pandas()
        assert len(rs) == 500
        assert fs["doc_id"].nunique() == 500
        assert (fs.groupby("doc_id").size() <= 8).all()
