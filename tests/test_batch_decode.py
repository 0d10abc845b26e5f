"""Serving a query's cache misses as one batch: the batched record decoder
(``postings_codec.decode_term_chunks`` over ``TermRecords``) equals the
scalar codec spec record by record, a damaged record anywhere in a batch
raises naming its own file and term, and a cold multi-term BM25 query over
interleaved segments with tombstones equals the oracle."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from search_engine_ray.functions.vb import (
    delta_decode,
    delta_encode,
    vb_decode_list,
    vb_encode_list,
)
from search_engine_ray.query.postings_codec import (
    DamagedShardError,
    TermRecord,
    TermRecords,
    decode_term_chunks,
)

#: doc-id gaps whose (gap << 1 | flag) VB value takes 1, 2 and 3 bytes
_GAPS = [(1, 63), (64, 8191), (8192, 1 << 20)]


def _record(term, path, doc_ids, positions, positional) -> TermRecord:
    """``term``'s record as the shard writer lays it out, encoded with
    the scalar codecs: VB(gap << 1 | tf > 1) per posting, VB(tf - 2) per
    posting with tf > 1, then (when ``positional``) each posting's
    delta-gap VB positions."""
    if not len(doc_ids):
        return TermRecord(term, path, 0, 0, b"", positional)
    tfs = [len(p) for p in positions]
    gaps = delta_encode(doc_ids)
    lean = (vb_encode_list([(g << 1) | (tf > 1) for g, tf in zip(gaps, tfs)])
            + vb_encode_list([tf - 2 for tf in tfs if tf > 1]))
    pos = b"".join(vb_encode_list(delta_encode(p)) for p in positions)
    return TermRecord(term, path, len(doc_ids), len(lean),
                      lean + pos if positional else lean, positional)


def _spec(rec: TermRecord):
    """(doc ids, tfs, positions per posting or None) of one record by the
    scalar spec: ``vb_decode_list`` + ``delta_decode``."""
    if not rec.df:
        return [], [], [] if rec.positional else None
    vals = vb_decode_list(bytes(rec.data[:rec.lean_nbytes]))
    heads = vals[:rec.df]
    extra = iter(vals[rec.df:])
    doc_ids = delta_decode([v >> 1 for v in heads])
    tfs = [next(extra) + 2 if v & 1 else 1 for v in heads]
    if not rec.positional:
        return doc_ids, tfs, None
    flat = iter(vb_decode_list(bytes(rec.data[rec.lean_nbytes:])))
    return doc_ids, tfs, [delta_decode([next(flat) for _ in range(tf)]) for tf in tfs]


@st.composite
def _postings(draw):
    """One term's (doc ids, positions per posting): df 0 (an absent term)
    to 40, gaps of one VB width class, tf 1 or 2–6 per posting."""
    df = draw(st.integers(0, 40))
    lo, hi = draw(st.sampled_from(_GAPS))
    gaps = draw(st.lists(st.integers(lo, hi), min_size=df, max_size=df))
    doc_ids = np.cumsum(gaps).tolist()
    positions = []
    for _ in range(df):
        tf = draw(st.sampled_from([1, 1, 2, 3, 6]))
        steps = draw(st.lists(st.integers(1, 300), min_size=tf, max_size=tf))
        positions.append((np.cumsum(steps) - 1).tolist())
    return doc_ids, positions


@settings(max_examples=150, deadline=None)
@given(terms=st.lists(_postings(), min_size=1, max_size=8), positional=st.booleans())
def test_batch_decode_equals_scalar_spec(terms, positional):
    recs = TermRecords(_record(f"t{i}", f"shard={i % 3}", d, p, positional)
                       for i, (d, p) in enumerate(terms))
    batch = decode_term_chunks(recs)
    assert recs.num_rows == sum(1 for d, _p in terms if d)
    assert len(batch.doc_ids) == sum(len(d) for d, _p in terms)
    parts = batch.split()
    assert len(parts) == len(recs)
    for rec, tp in zip(recs, parts):
        doc_ids, tfs, positions = _spec(rec)
        for got in (tp, decode_term_chunks(rec)):  # in the batch, and alone
            assert got.doc_ids.tolist() == doc_ids
            assert got.tfs.tolist() == tfs
            if positions is None:
                assert got.pos_offsets is None and len(got.pos_values) == 0
            else:
                assert [got.positions_of(i).tolist() for i in range(got.df)] == positions


def _mid_batch(damage: str, positional: bool) -> TermRecords:
    """Three good records around one damaged record of term 'mid'."""
    def good(term, base):
        return _record(term, f"/idx/{term}.bin", [base, base + 3, base + 900],
                       [[0], [1, 5], [2, 3, 9]], positional)

    mid = _record("mid", "/idx/mid.bin", [10, 20, 30, 40], [[1], [2, 4], [0], [7, 8]],
                  positional)
    if damage == "truncated":  # the lean part's last byte is gone
        data = bytes(mid.data[:mid.lean_nbytes - 1]) + bytes(mid.data[mid.lean_nbytes:])
        mid = TermRecord("mid", mid.path, mid.df, mid.lean_nbytes - 1, data, positional)
    elif damage == "not ascending":  # the second doc gap is 0
        mid = _record("mid", mid.path, [10, 10, 30, 40], [[1], [2, 4], [0], [7, 8]],
                      positional)
    elif damage == "value count":  # the table's df disagrees with the bytes
        mid = TermRecord("mid", mid.path, mid.df + 1, mid.lean_nbytes, mid.data, positional)
    elif damage == "positions":  # the last posting's last position is gone
        mid = TermRecord("mid", mid.path, mid.df, mid.lean_nbytes, mid.data[:-1], positional)
    return TermRecords([good("a", 5), TermRecord("absent", "/idx/x.bin", 0, 0, b"",
                                                 positional),
                        mid, good("z", 70)])


@pytest.mark.parametrize("damage, positional", [
    (damage, positional) for damage in ("truncated", "not ascending", "value count")
    for positional in (False, True)] + [("positions", True)])
def test_damaged_record_mid_batch_names_its_term(damage, positional):
    recs = _mid_batch(damage, positional)
    with pytest.raises(DamagedShardError, match=re.escape("/idx/mid.bin: term 'mid'")):
        decode_term_chunks(recs)
    # the same batch without the damage decodes
    ok = decode_term_chunks(_mid_batch("none", positional)).split()
    assert [tp.df for tp in ok] == [3, 0, 4, 3]


TEXTS = [f"filler doc {i} common word" if i % 3 else f"quick brown fox {i} alpha beta"
         for i in range(30)]
TEXTS[7] = "phrase target hello world common common"
TEXTS[16] = "alpha gamma beta hello brown"


def _pages(texts, start):
    import ray.data

    from search_engine_ray.functions.textproc import synthesize_html
    from search_engine_ray.sources.webpages import _url_for

    return ray.data.from_items([{"url": _url_for(start + i), "html": synthesize_html(t).encode()}
                                for i, t in enumerate(texts)], override_num_blocks=3)


class TestColdBatchOnSegments:
    """A cold multi-term BM25 query on a segment set whose segments
    interleave in doc-id order and which has tombstones: every term misses,
    each segment is read in one batch, and the result equals the oracle
    over the live docs (statistics still counting the deleted ones)."""

    DELETED = [3, 9, 14, 22]

    @pytest.fixture(scope="class")
    def segs(self, tmp_path_factory, ray_session):
        from search_engine_ray.config import EngineConfig
        from search_engine_ray.pipelines.segments import add_segment, compact, delete_docs
        from search_engine_ray.query.oracle import OracleIndex

        cfg = EngineConfig(chunk_size=4, salt_span=8, tokenize_batch_size=7)
        root = str(tmp_path_factory.mktemp("cold_interleaved"))
        for i in range(5):
            add_segment(_pages(TEXTS[6 * i:6 * (i + 1)], 6 * i), root, cfg)
        # a subset merge around a kept segment: doc ids interleave
        compact(root, cfg, names=["seg-00000", "seg-00001", "seg-00002", "seg-00004"])
        delete_docs(root, self.DELETED)
        return root, cfg, OracleIndex({i + 1: t for i, t in enumerate(TEXTS)})

    @pytest.mark.parametrize("q", ["quick brown fox common", "alpha beta gamma filler",
                                   "common word doc brown", "phrase target hello world"])
    def test_cold_query_equals_oracle(self, segs, q, monkeypatch):
        import search_engine_ray.query.engine as engine_mod
        from search_engine_ray.query.segmented import SegmentedSearchEngine

        root, cfg, oracle = segs
        eng = SegmentedSearchEngine(root, cfg)
        assert eng._interleaved and len(eng.tombstones)
        reads, batches = [], []
        for sub in eng.engines:
            read = sub.locator.read
            sub.locator.read = lambda t, *a, _r=read, **kw: reads.append(t) or _r(t, *a, **kw)
        decode = engine_mod.decode_term_chunks
        monkeypatch.setattr(engine_mod, "decode_term_chunks",
                            lambda recs: batches.append(len(recs)) or decode(recs))
        terms = eng.query_terms(q)
        held = [sum(sub.lookup(t) is not None for t in terms) for sub in eng.engines]
        want = [(d, s) for d, s in oracle.bm25_topk(q, 1000) if d not in self.DELETED]
        for k in (3, 10):
            eng._cache.clear()
            del reads[:], batches[:]
            assert eng.bm25_topk(q, k) == want[:k], (q, k)
            # one read per (segment, term) it holds; one decode per segment
            assert len(reads) == sum(held)
            assert batches == [n for n in held if n]
