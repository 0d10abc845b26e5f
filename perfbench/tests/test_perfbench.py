"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, ROOT]

import corpus  # noqa: E402
import gate  # noqa: E402
from serve import Loop  # noqa: E402

TEXTS = ["alpha beta gamma", "beta beta delta", "gamma delta delta epsilon",
         "alpha alpha alpha zeta", "eta theta alpha"]


def _fake_index(tmp_path, terms, dfs):
    d = tmp_path / "index" / "dictionary"
    d.mkdir(parents=True)
    pq.write_table(pa.table({"term": terms, "df": pa.array(dfs, pa.int64())}),
                   d / "part.parquet")
    return str(tmp_path / "index")


def test_corpus_is_deterministic_per_seed(tmp_path):
    a = corpus.write_corpus(str(tmp_path / "a"), seed=7, docs=50, vocab=300)
    b = corpus.write_corpus(str(tmp_path / "b"), seed=7, docs=50, vocab=300)
    c = corpus.write_corpus(str(tmp_path / "c"), seed=8, docs=50, vocab=300)
    ta = pq.read_table(os.path.join(a.path, "corpus.parquet"))
    tb = pq.read_table(os.path.join(b.path, "corpus.parquet"))
    assert ta.equals(tb)
    assert a.texts == b.texts and a.text_bytes == b.text_bytes
    assert a.texts != c.texts


def test_queries_are_deterministic_and_in_dictionary(tmp_path):
    from search_engine_ray.sources.webpages import make_vocab

    terms = make_vocab(2000)
    dfs = list(range(2000, 0, -1))
    index = _fake_index(tmp_path, terms, dfs)
    for kind in ("head", "wide"):
        q1 = corpus.draw_queries(index, kind, seed=3, n=100, n_warmup=5)
        q2 = corpus.draw_queries(index, kind, seed=3, n=100, n_warmup=5)
        assert q1 == q2
        assert q1 != corpus.draw_queries(index, kind, seed=4, n=100, n_warmup=5)
        for q in q1.timed:
            words = q.split()
            assert len(set(words)) == len(words)
            assert corpus.QUERY_TERMS[0] <= len(words) <= corpus.QUERY_TERMS[1]
    # wide draws each dictionary term once per pass over the dictionary
    wide = [w for q in corpus.draw_queries(index, "wide", seed=3, n=200).timed
            for w in q.split()]
    assert len(wide) < len(terms) and len(set(wide)) == len(wide)
    head = corpus.draw_queries(index, "head", seed=3, n=300, head_pool=50)
    top = set(terms[:50])
    assert all(w in top for q in head.timed for w in q.split())
    # the warm-up touches every head-pool term
    assert top <= {w for q in head.warmup for w in q.split()}


@pytest.fixture(scope="module")
def oracle():
    from search_engine_ray.query.oracle import OracleIndex

    return OracleIndex({i + 1: t for i, t in enumerate(TEXTS)})


def test_gate_accepts_oracle_results(oracle):
    answered = [(q, [list(p) for p in oracle.bm25_topk(q, 10)])
                for q in ("alpha", "beta delta", "zeta eta")]
    assert gate.check_results(oracle, answered) == []


def test_gate_rejects_out_of_vocabulary_query(oracle):
    loop = Loop(["nosuchterm"])
    loop.run(lambda q, k: oracle.bm25_topk(q, k), seconds=0.0, min_queries=1)
    assert [f["error"] for f in loop.failures] == ["zero hits"]
    failures = gate.check_results(oracle, [("nosuchterm", [])])
    assert [f["error"] for f in failures] == ["zero hits"]


def test_gate_rejects_perturbed_score(oracle):
    got = [list(p) for p in oracle.bm25_topk("alpha delta", 10)]
    got[1][1] = float(np.nextafter(got[1][1], np.inf))
    failures = gate.check_results(oracle, [("alpha delta", got)])
    assert len(failures) == 1 and "oracle mismatch" in failures[0]["error"]


def test_gate_rejects_swapped_tie_order(oracle):
    got = [list(p) for p in oracle.bm25_topk("beta", 10)]
    got[0][0], got[1][0] = got[1][0], got[0][0]
    assert gate.check_results(oracle, [("beta", got)])


def test_workload_validation():
    assert gate.check_workload("wide", 0.1) == []
    assert gate.check_workload("wide", 0.97)
    assert gate.check_workload("head", 1.0) == []
    assert gate.check_workload("head", 0.9)


def _bench(tmp_path, *args):
    """Run the benchmark from a copy of the repository's files, as from a
    fresh checkout."""
    root = tmp_path / "ck"
    if not root.exists():
        shutil.copytree(os.path.join(ROOT, "search_engine_ray"), root / "search_engine_ray",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(BENCH, root / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "tests", ".*"))
    p = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                       capture_output=True, text=True, timeout=170)
    return p, root


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("workload,trace", [("query_head", 0), ("query_wide", 0),
                                            ("query_wide", 1)])
def test_workload_runs_end_to_end(tmp_path, workload, trace):
    p, root = _bench(tmp_path, "--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--docs", "500", "--vocab", "5000")
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] > 0
    want = _spec()["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())
    # nothing but the traced run's spans is left behind in the checkout
    left = sorted(os.listdir(root))
    if trace:
        assert os.listdir(root / ".pb") == [f"spans-{workload}.jsonl"]
        left.remove(".pb")
    assert left == ["perfbench", "search_engine_ray"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "query_head",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
