"""Loud-failure guard paths exercised against deliberately-corrupted
fixtures (the guards existed; only happy paths were covered before):

* merge stage's missing-term guard — a rogue runs file whose term is
  absent from the shard dictionary slice must fail LOUDLY on resume, not
  silently merge postings into a neighboring term's list.
* snapshot band index — a probe against an index whose stored
  signatures disagree with its meta.json must raise, not match nothing.

Damaged postings shard files are covered in test_postings_file.py.
"""

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_engine_ray.config import EngineConfig
from search_engine_ray.functions.hashing import hash_strings_arrow
from search_engine_ray.pipelines.build import IndexPaths, build_index
from search_engine_ray.sources.webpages import generate_webpages


class TestMergeMissingTermGuard:
    def test_rogue_run_term_fails_loudly_on_resume(self, ray_session, tmp_path):
        out = str(tmp_path / "idx")
        cfg = EngineConfig(chunk_size=4, salt_span=8)
        corpus = generate_webpages(80, vocab_size=200, tokens_per_doc=30, seed=3)
        build_index(corpus, out, cfg)
        paths = IndexPaths(out)

        # rogue runs row: a term the (already-built, manifest-valid)
        # dictionary has never seen, placed in its correct sgroup partition
        rogue = "zzzrogueterm"
        n_units = min(cfg.merge_units, cfg.index_shards)
        sg = int(hash_strings_arrow(pa.array([rogue])) % np.uint64(n_units))
        some_run = glob.glob(os.path.join(paths.runs, "**", "*.parquet"),
                             recursive=True)[0]
        donor = pq.read_table(some_run)
        rogue_tbl = pa.table({
            "term": pa.array([rogue], pa.string()),
            "doc_id": pa.array([1], pa.int64()),
            "pos_enc": pa.array([donor["pos_enc"][0].as_py()], donor["pos_enc"].type),
        })
        pq.write_table(rogue_tbl,
                       os.path.join(paths.runs, f"sgroup={sg}", "rogue.parquet"))

        # force ONLY the postings stage to re-run (dictionary stays valid)
        shutil.rmtree(paths.postings)
        if os.path.exists(paths.stats):
            os.remove(paths.stats)
        with pytest.raises(Exception, match="missing from .* dictionary slice"):
            build_index(corpus, out, cfg, resume=True)


class TestStaleSnapshotIndexGuard:
    def test_probe_against_stale_parameter_index_raises(self, ray_session, tmp_path):
        """An index whose stored signatures disagree with meta.json (a
        meta edit or partial rebuild under new settings) must RAISE at
        probe time — band keys from mismatched parameters simply never
        match, so without the guard the probe would return empty rows,
        indistinguishable from 'no duplicates'."""
        import json

        import ray.data

        from search_engine_ray.pipelines.training_data import (
            new_vs_snapshot_near, write_snapshot_band_index)

        docs = ray.data.from_items(
            [{"doc_id": i, "text": f"alpha beta gamma delta {i}"}
             for i in range(20)])
        idx = str(tmp_path / "snapidx")
        write_snapshot_band_index(docs, idx, num_perm=64, bands=16)
        # sanity: a well-formed probe runs (any result count is fine)
        crawl = ray.data.from_items(
            [{"doc_id": 1000, "text": "alpha beta gamma delta 3"}])
        new_vs_snapshot_near(crawl, idx, threshold=0.3).to_pandas()
        # tamper meta: claim a different num_perm than the stored sigs
        mpath = os.path.join(idx, "meta.json")
        with open(mpath) as f:
            meta = json.load(f)
        meta["num_perm"] = 128
        with open(mpath, "w") as f:
            json.dump(meta, f)
        with pytest.raises(ValueError, match="stale snapshot index"):
            new_vs_snapshot_near(crawl, idx, threshold=0.3).to_pandas()
        # a bands edit (num_perm restored) trips the stored-ratio check:
        # band rows per signature row must equal meta.json's bands
        meta["num_perm"] = 64
        meta["bands"] = 32
        with open(mpath, "w") as f:
            json.dump(meta, f)
        with pytest.raises(ValueError, match="different `bands`"):
            new_vs_snapshot_near(crawl, idx, threshold=0.3).to_pandas()
        # missing meta.json stays loud too (the round-4 guard)
        os.remove(mpath)
        with pytest.raises(FileNotFoundError):
            new_vs_snapshot_near(crawl, idx, threshold=0.3)
