import os

import pytest

# must be in the env before ray.init spawns the raylet so worker processes
# inherit it (see search_engine_ray.__init__._tune_worker_malloc)
os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(512 << 20))
os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", str(512 << 20))
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (do not init per test)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def assert_posting_rows_match_engine(ray_session):
    """``check(out_dir, config)``: the index's posting rows
    (stages/postings_file.read_posting_rows, with positions) equal
    ``SearchEngine.get_postings`` for every dictionary term."""
    import numpy as np
    import pyarrow as pa
    import ray

    from search_engine_ray.functions.vb import encode_ascending
    from search_engine_ray.query.engine import SearchEngine
    from search_engine_ray.stages.postings_file import read_posting_rows

    def check(out_dir, config):
        eng = SearchEngine(out_dir, config, build_bktree=False)
        rows = pa.concat_tables(ray.get(
            read_posting_rows(eng.paths.postings, positions=True).to_arrow_refs()))
        terms = np.asarray(rows["term"].cast(pa.string()).to_pylist(), dtype=object)
        order = np.argsort(terms, kind="stable")
        rows, terms = rows.take(pa.array(order)), terms[order]
        vocab = eng.vocabulary()[0]
        assert sorted(set(terms)) == vocab
        starts = np.searchsorted(terms, vocab, "left")
        ends = np.searchsorted(terms, vocab, "right")
        for term, a, b in zip(vocab, starts, ends):
            want = eng.get_postings(term)
            got = rows.slice(a, b - a)
            np.testing.assert_array_equal(got["doc_id"], want.doc_ids, err_msg=term)
            np.testing.assert_array_equal(got["tf"], want.tfs, err_msg=term)
            assert set(got["df"].to_pylist()) == {want.df}, term
            assert got["pos_enc"].to_pylist() == [
                encode_ascending(want.positions_of(i)) for i in range(want.df)], term

    return check
