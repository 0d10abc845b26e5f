"""The WAND mode ≡ exhaustive BM25 (exact, ties included)."""

import numpy as np
import pytest

from search_engine_ray.config import EngineConfig
from search_engine_ray.functions.textproc import synthesize_html
from search_engine_ray.pipelines.build import build_index
from search_engine_ray.query.engine import SearchEngine
from search_engine_ray.sources.webpages import _url_for


@pytest.fixture(scope="module")
def engine(tmp_path_factory, ray_session):
    import ray.data

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(60)]
    texts = []
    for i in range(400):
        n = int(rng.integers(5, 60))
        # Zipf-flavored draws + planted ties (identical docs)
        words = [vocab[min(int(rng.zipf(1.3)) - 1, 59)] for _ in range(n)]
        texts.append(" ".join(words))
    texts[7] = texts[5]      # identical docs → exact score ties
    texts[101] = texts[100]
    rows = [{"url": _url_for(i), "html": synthesize_html(t).encode()} for i, t in enumerate(texts)]
    out = str(tmp_path_factory.mktemp("wand_idx"))
    # chunk_size small so queries really cross many chunks; salt_span small
    # so multi-salt ordering is exercised
    build_index(ray.data.from_items(rows, override_num_blocks=4), out,
                EngineConfig(chunk_size=16, salt_span=64))
    return SearchEngine(out)


QUERIES = [
    "w0", "w1", "w0 w1", "w0 w1 w2", "w3 w7 w12", "w20 w40",
    "w0 w5 w10 w15 w20", "w50", "w59 w58 w57", "w2 w4 w8 w16 w32",
    "w1 w1 w1", "nonexistent", "w0 nonexistent w1",
]


@pytest.mark.parametrize("q", QUERIES)
@pytest.mark.parametrize("k", [1, 3, 10, 50])
def test_wand_equals_exhaustive(engine, q, k):
    exhaustive = engine.bm25_topk(q, k)
    wand = engine.bm25_topk_wand(q, k)
    assert [d for d, _ in wand] == [d for d, _ in exhaustive], q
    np.testing.assert_allclose(
        [s for _, s in wand], [s for _, s in exhaustive], rtol=1e-12
    )
