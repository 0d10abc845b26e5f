"""Kill-and-rerun resume: a build killed mid-pipeline must resume from its
last complete checkpoint, not restart (north_rule: resumable with
per-partition lineage)."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import sys
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from search_engine_ray.config import EngineConfig
from search_engine_ray.pipelines.build import build_index
from search_engine_ray.sources.webpages import generate_webpages

out = sys.argv[1]
corpus = generate_webpages(3000, vocab_size=2000, tokens_per_doc=80, seed=5)
build_index(corpus, out, EngineConfig(), resume=True)
print("BUILD-COMPLETE", flush=True)
ray.shutdown()
"""


@pytest.mark.slow
def test_kill_mid_build_then_resume(tmp_path):
    out = str(tmp_path / "idx")
    env = dict(os.environ, PYTHONPATH=REPO_ROOT)

    # run 1: kill as soon as the runs checkpoint manifest exists (mid-build)
    p = subprocess.Popen([sys.executable, "-c", SCRIPT, out], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    runs_manifest = os.path.join(out, "runs", "_MANIFEST.json")
    deadline = time.time() + 180
    killed = False
    while time.time() < deadline:
        if os.path.exists(runs_manifest) and not os.path.exists(
            os.path.join(out, "stats.json")
        ):
            p.send_signal(signal.SIGKILL)
            killed = True
            break
        if p.poll() is not None:
            break  # finished before we could kill — still fine, assert below
        time.sleep(0.05)
    p.wait(timeout=60)
    assert killed or os.path.exists(os.path.join(out, "stats.json"))

    mtime_runs = os.path.getmtime(runs_manifest)

    # run 2: resume must complete without redoing the runs checkpoint
    done = subprocess.run([sys.executable, "-c", SCRIPT, out], env=env,
                          capture_output=True, text=True, timeout=300)
    assert "BUILD-COMPLETE" in done.stdout, done.stdout[-2000:]
    assert os.path.getmtime(runs_manifest) == mtime_runs, "runs checkpoint was rebuilt"
    stats = json.load(open(os.path.join(out, "stats.json")))
    assert stats["num_docs"] == 3000
    # lineage manifests: every stage complete, per-partition entries recorded
    for stage in ["docs", "runs", "postings", "dictionary"]:
        m = json.load(open(os.path.join(out, stage, "_MANIFEST.json")))
        assert m["complete"] and m["num_rows"] > 0
        assert all("path" in e and "rows" in e for e in m["partitions"])


# Holds the build still right after the FIRST postings shard manifest is
# written, so the kill lands with some shards complete and the rest not —
# deterministically. Racing the build's own timing instead only hit the
# few milliseconds between the last shard manifest and stats.json.
PAUSE_AFTER_FIRST_SHARD = r"""
import sys
import time
from search_engine_ray.state import manifests

_write = manifests.write_manifest

def write_then_pause(stage_dir, stage, fp, extra=None):
    doc = _write(stage_dir, stage, fp, extra)
    if stage.startswith("postings/shard="):
        print("SHARD-MANIFEST-WRITTEN", flush=True)
        time.sleep(600)  # killed by the test
    return doc

manifests.write_manifest = write_then_pause
exec(compile(sys.argv.pop(1), "<build>", "exec"))  # argv[1] is then out
"""


@pytest.mark.slow
def test_kill_mid_postings_shards_then_resume(tmp_path):
    """Per-PARTITION resume: kill while some postings shards are complete
    and others are not; the rerun must leave completed shards untouched
    (their manifests keep their mtimes) and only rebuild the rest."""
    import glob

    out = str(tmp_path / "idx")
    env = dict(os.environ, PYTHONPATH=REPO_ROOT)

    # run 1 pauses inside the postings stage once one shard manifest is
    # on disk; kill it there
    p = subprocess.Popen([sys.executable, "-c", PAUSE_AFTER_FIRST_SHARD, SCRIPT, out],
                         env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    pattern = os.path.join(out, "postings", "shard=*", "_MANIFEST.json")
    deadline = time.time() + 180
    killed = False
    while time.time() < deadline:
        if glob.glob(pattern):
            p.send_signal(signal.SIGKILL)
            killed = True
            break
        if p.poll() is not None:
            break
        time.sleep(0.02)
    p.wait(timeout=60)
    assert killed, "build never reached the postings stage"
    assert not os.path.exists(os.path.join(out, "stats.json"))

    # resume granularity is the merge UNIT (shards congruent mod merge_units):
    # only units whose EVERY shard manifest existed at kill time must be kept
    # (default config: one unit per shard, so any present manifest is a
    # complete unit)
    n_shards, n_units = 32, 32
    complete = sorted(glob.glob(pattern))
    assert 0 < len(complete) < n_shards, complete

    def unit_of(path):
        return int(path.split("shard=")[1].split("/")[0]) % n_units

    present_units = {}
    for m in complete:
        present_units.setdefault(unit_of(m), []).append(m)
    full_units = {u: ms for u, ms in present_units.items()
                  if len(ms) == n_shards // n_units}
    mtimes = {m: os.path.getmtime(m) for ms in full_units.values() for m in ms}
    assert mtimes, "no merge unit was complete at kill time"

    done = subprocess.run([sys.executable, "-c", SCRIPT, out], env=env,
                          capture_output=True, text=True, timeout=300)
    assert "BUILD-COMPLETE" in done.stdout, done.stdout[-2000:]
    for m, t0 in mtimes.items():
        assert os.path.getmtime(m) == t0, f"completed unit rebuilt: {m}"
    # and the index is whole: every shard manifest present + top-level one
    assert len(glob.glob(pattern)) == n_shards
    assert json.load(open(os.path.join(out, "postings", "_MANIFEST.json")))["complete"]
    stats = json.load(open(os.path.join(out, "stats.json")))
    assert stats["num_docs"] == 3000
