"""Training-data operators: dedup (exact / MinHash-LSH / SimHash), ANN,
text analysis — correctness on planted fixtures."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from search_engine_ray.pipelines.training_data import (
    ann_brute_force,
    ann_ivf,
    clusters_from_pairs,
    exact_dedup,
    fingerprints,
    ivf_index,
    lang_id_table,
    minhash_lsh_dedup,
    ngram_jaccard_verify,
    simhash_dedup,
    text_stats,
)

BASE = (
    "the quick brown fox jumps over the lazy dog while the cat watches from "
    "the warm windowsill and the birds sing in the garden under a bright sky "
).split()


def _doc(mutations: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    words = list(BASE) * 3
    for _ in range(mutations):
        i = int(rng.integers(0, len(words)))
        words[i] = f"mut{int(rng.integers(0, 1000))}"
    return " ".join(words)


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    rows = [
        {"doc_id": 1, "text": _doc(0, 1)},
        {"doc_id": 2, "text": _doc(0, 2)},      # exact dup of 1
        {"doc_id": 3, "text": _doc(3, 3)},      # near dup of 1
        {"doc_id": 4, "text": _doc(4, 4)},      # near dup of 1
        {"doc_id": 5, "text": " ".join(f"unique{i}word{i * 7 % 13}" for i in range(90))},
        {"doc_id": 6, "text": "der hund und die katze sind im garten mit der maus und das ist gut"},
        {"doc_id": 7, "text": "le chat et le chien sont dans le jardin avec la souris et est pour"},
        {"doc_id": 8, "text": "totally different content about databases indexes queries and scans"},
        {"doc_id": 9, "text": ""},
    ]
    return ray.data.from_items(rows, override_num_blocks=3)


class TestExactDedup:
    def test_planted_exact_dup(self, docs_ds):
        out = exact_dedup(docs_ds).to_pandas()
        assert len(out) == 8  # 9 docs, one exact-dup pair
        dup = out[out["n_dupes"] == 2]
        assert len(dup) == 1
        assert dup.iloc[0]["keep_doc_id"] == 1


class TestMinHashLSH:
    def test_near_dups_found(self, docs_ds):
        pairs = minhash_lsh_dedup(docs_ds, threshold=0.5).to_pandas()
        got = {tuple(sorted((a, b))) for a, b in zip(pairs["a"], pairs["b"])}
        assert {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)} <= got
        # unrelated docs never pair
        assert not any(5 in p or 8 in p or 9 in p for p in got)
        # exact dup pair estimates jaccard 1.0
        row = pairs[(pairs["a"] == 1) & (pairs["b"] == 2)]
        assert float(row["jaccard"].iloc[0]) == 1.0

    def test_clusters(self, docs_ds):
        pairs = minhash_lsh_dedup(docs_ds, threshold=0.5)
        clusters = clusters_from_pairs(pairs)
        by_doc = dict(zip(clusters["doc_id"], clusters["cluster_id"]))
        assert by_doc[1] == by_doc[2] == by_doc[3] == by_doc[4] == 1

    def test_exact_jaccard_verify(self, docs_ds):
        pairs = minhash_lsh_dedup(docs_ds, threshold=0.5)
        exact = ngram_jaccard_verify(pairs, docs_ds, threshold=0.5).to_pandas()
        row = exact[(exact["a"] == 1) & (exact["b"] == 2)]
        assert float(row["jaccard_exact"].iloc[0]) == 1.0


class TestDistributedClusters:
    """clusters_distributed must equal union-find exactly — including dup
    CHAINS whose edges cross partition boundaries (a-b, b-c, c-d ... where
    no single partition sees the whole component)."""

    def _check(self, edges, n_blocks=5):
        import ray.data

        from search_engine_ray.pipelines.training_data import clusters_distributed

        pairs_pd = pd.DataFrame(edges, columns=["a", "b"]).astype(np.int64)
        pairs = ray.data.from_pandas(pairs_pd).repartition(n_blocks)
        got = clusters_distributed(pairs).to_pandas().sort_values("doc_id").reset_index(drop=True)
        want = clusters_from_pairs(pairs_pd).sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got.astype(np.int64), want.astype(np.int64), check_names=False
        )

    def test_chain_across_partitions(self, ray_session):
        # one long chain 0-1-2-...-9 plus separate triangles and singleton pairs
        edges = [(i, i + 1) for i in range(9)]
        edges += [(100, 101), (101, 102), (100, 102)]
        edges += [(200, 250), (300, 301)]
        self._check(edges)

    def test_random_components(self, ray_session):
        rng = np.random.default_rng(9)
        edges = []
        for comp in range(12):
            nodes = rng.choice(np.arange(comp * 50, comp * 50 + 30), 12, replace=False)
            for i in range(len(nodes) - 1):
                edges.append((int(nodes[i]), int(nodes[i + 1])))
        rng.shuffle(edges)
        self._check(edges, n_blocks=7)


class TestSimHash:
    def test_near_dups_found(self, docs_ds):
        pairs = simhash_dedup(docs_ds, max_hamming=3).to_pandas()
        got = {tuple(sorted((a, b))) for a, b in zip(pairs["a"], pairs["b"])}
        assert (1, 2) in got  # exact dup: hamming 0
        ham = dict(zip(zip(pairs["a"], pairs["b"]), pairs["hamming"]))
        assert ham[(1, 2)] == 0
        assert not any(8 in p or 5 in p for p in got)


class TestTextStats:
    def test_stats_and_quality(self, docs_ds):
        out = text_stats(docs_ds).to_pandas().set_index("doc_id")
        assert out.loc[9, "n_tokens"] == 0
        assert out.loc[1, "n_tokens"] == len(BASE) * 3
        assert 0 <= out["quality"].min() and out["quality"].max() <= 1
        assert out.loc[1, "stopword_ratio"] > 0.2

    def test_lang_id(self, docs_ds):
        out = lang_id_table(docs_ds).to_pandas().set_index("doc_id")
        assert out.loc[1, "lang_pred"] == "en"
        assert out.loc[6, "lang_pred"] == "de"
        assert out.loc[7, "lang_pred"] == "fr"
        assert out.loc[9, "lang_pred"] == "und"

    def test_fingerprints_detect_overlap(self, docs_ds):
        fp = fingerprints(docs_ds).to_pandas()
        s1 = set(fp[fp["doc_id"] == 1]["fingerprint"])
        s2 = set(fp[fp["doc_id"] == 2]["fingerprint"])
        s8 = set(fp[fp["doc_id"] == 8]["fingerprint"])
        assert s1 == s2
        assert not (s1 & s8)


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data

    rng = np.random.default_rng(0)
    base = rng.normal(size=(40, 16))
    rows = [{"vec_id": i, "embedding": base[i].astype(np.float32).tolist()} for i in range(40)]
    return ray.data.from_items(rows, override_num_blocks=4), base


class TestANN:
    def test_brute_force_matches_numpy(self, emb_ds):
        ds, base = emb_ds
        q = base[[0, 7]]
        out = ann_brute_force(ds, q, k=5).to_pandas()
        norm = base / np.linalg.norm(base, axis=1, keepdims=True)
        qn = q / np.linalg.norm(q, axis=1, keepdims=True)
        sims = norm @ qn.T
        for qi in range(2):
            # float32 storage: compare against float32-rounded reference
            stored = np.stack(ds.to_pandas()["embedding"].to_numpy()).astype(np.float64)
            sn = stored / np.linalg.norm(stored, axis=1, keepdims=True)
            ref_scores = sn @ qn.T
            order = np.lexsort((np.arange(40), -ref_scores[:, qi].round(6)))[:5]
            got = out[out["query_id"] == qi].sort_values("rank")["vec_id"].tolist()
            assert got == order.tolist()
            assert got[0] == [0, 7][qi]  # query vector's own row ranks first

    def test_ivf_high_recall_on_self_queries(self, emb_ds):
        ds, base = emb_ds
        assigned, cents = ivf_index(ds, n_centroids=4, sample_size=40)
        assigned = assigned.materialize()
        out = ann_ivf(assigned, cents, base[[3, 11]], k=3, nprobe=2).to_pandas()
        for qi, vid in enumerate([3, 11]):
            top = out[(out["query_id"] == qi) & (out["rank"] == 1)]["vec_id"].iloc[0]
            assert top == vid

    def test_ivf_exhaustive_equals_brute_force(self, emb_ds):
        """nprobe == n_centroids probes every cluster: IVF must return
        EXACTLY the brute-force top-k (same rounded scores, same id-asc
        tie-break) — the oracle-checkable mode driver query ann_ivf_full
        relies on."""
        ds, base = emb_ds
        q = base[[3, 11, 20]]
        assigned, cents = ivf_index(ds, n_centroids=4, sample_size=40)
        assigned = assigned.materialize()
        ivf = ann_ivf(assigned, cents, q, k=5, nprobe=len(cents)).to_pandas()
        bf = ann_brute_force(ds, q, k=5, round_digits=6).to_pandas()
        cols = ["query_id", "rank", "vec_id", "score_r"]
        ivf = ivf[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
        bf = bf[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
        assert ivf["vec_id"].tolist() == bf["vec_id"].tolist()
        np.testing.assert_array_equal(ivf["score_r"].to_numpy(), bf["score_r"].to_numpy())

    def test_lsh_exhaustive_equals_brute_force(self, emb_ds):
        """probe_radius == n_planes probes every bucket: LSH ANN must return
        EXACTLY the brute-force top-k (same rounded scores, same id-asc
        tie-break) — the oracle-checkable mode driver query ann_lsh_full
        relies on."""
        from search_engine_ray.pipelines.training_data import ann_lsh, lsh_index

        ds, base = emb_ds
        q = base[[3, 11, 20]]
        bucketed, planes = lsh_index(ds, n_planes=10)
        bucketed = bucketed.materialize()
        lsh = ann_lsh(bucketed, planes, q, k=5, probe_radius=10).to_pandas()
        bf = ann_brute_force(ds, q, k=5, round_digits=6).to_pandas()
        cols = ["query_id", "rank", "vec_id", "score_r"]
        lsh = lsh[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
        bf = bf[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
        assert lsh["vec_id"].tolist() == bf["vec_id"].tolist()
        np.testing.assert_array_equal(lsh["score_r"].to_numpy(), bf["score_r"].to_numpy())

    def test_lsh_self_query_recall(self, emb_ds):
        """multiprobe LSH finds the query's own vector: its sketch equals
        the query's sketch, so it sits in the radius-0 probe bucket."""
        from search_engine_ray.pipelines.training_data import ann_lsh, lsh_index

        ds, base = emb_ds
        bucketed, planes = lsh_index(ds, n_planes=10)
        bucketed = bucketed.materialize()
        out = ann_lsh(bucketed, planes, base[[3, 11]], k=3, probe_radius=1).to_pandas()
        for qi, vid in enumerate([3, 11]):
            sub = out[(out["query_id"] == qi) & (out["rank"] == 1)]
            assert sub["vec_id"].iloc[0] == vid

    def test_cosine_verify_matches_numpy(self, emb_ds):
        """cosine_verify over an explicit pair table == naive float64 cosine
        per pair; pairs referencing absent ids drop."""
        import ray.data

        from search_engine_ray.pipelines.training_data import cosine_verify

        ds, base = emb_ds
        pairs = [{"a": a, "b": b} for a in range(0, 40, 3) for b in range(a + 1, min(a + 6, 43))]
        out = cosine_verify(ray.data.from_items(pairs), ds, threshold=0.1).to_pandas()
        stored = np.stack(ds.to_pandas().sort_values("vec_id")["embedding"].to_numpy()).astype(np.float64)
        sn = stored / np.linalg.norm(stored, axis=1, keepdims=True)
        expect = {(p["a"], p["b"]): float(sn[p["a"]] @ sn[p["b"]])
                  for p in pairs if p["b"] < 40}
        expect = {k: v for k, v in expect.items() if v >= 0.1}
        got = {(int(r.a), int(r.b)): float(r.cos) for r in out.itertuples()}
        assert set(got) == set(expect)
        for k in expect:
            assert abs(got[k] - expect[k]) < 1e-12


class TestCosineNearDup:
    def test_planted_neardups(self, ray_session):
        import ray.data

        from search_engine_ray.pipelines.training_data import cosine_neardup_pairs

        rng = np.random.default_rng(5)
        base = rng.standard_normal((40, 32))
        rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(40)]
        # planted near-dups: tiny perturbations of vectors 0..4
        for j in range(5):
            v = base[j] + 0.01 * rng.standard_normal(32)
            rows.append({"vec_id": 100 + j, "embedding": v.tolist()})
        emb = ray.data.from_items(rows, override_num_blocks=3)
        out = cosine_neardup_pairs(emb, threshold=0.95, bands=8).to_pandas()
        got = set(zip(out["a"].astype(int), out["b"].astype(int)))
        for j in range(5):
            assert (j, 100 + j) in got, f"missed planted near-dup {j}"
        # random 32-dim gaussians are nowhere near cos >= 0.95
        assert all(a >= 100 or b >= 100 for a, b in got)
        assert (out["cos"] >= 0.95).all()

    def test_join_path_equals_broadcast_path(self, ray_session):
        """Past broadcast_cap the hash-join verify (VERDICT r2 #4) must
        produce EXACTLY the broadcast path's pairs."""
        import ray.data

        from search_engine_ray.pipelines.training_data import cosine_neardup_pairs

        rng = np.random.default_rng(9)
        base = rng.standard_normal((30, 16))
        rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(30)]
        for j in range(8):
            v = base[j] + 0.02 * rng.standard_normal(16)
            rows.append({"vec_id": 200 + j, "embedding": v.tolist()})
        emb = ray.data.from_items(rows, override_num_blocks=3)

        kw = dict(threshold=0.9, bands=8)
        bc = cosine_neardup_pairs(emb, broadcast_cap=500_000, **kw).to_pandas()
        jn = cosine_neardup_pairs(emb, broadcast_cap=1, **kw).to_pandas()
        key = ["a", "b"]
        bc = bc.sort_values(key).reset_index(drop=True)
        jn = jn.sort_values(key).reset_index(drop=True)
        assert bc[key].values.tolist() == jn[key].values.tolist()
        assert np.allclose(bc["cos"], jn["cos"])
        assert len(bc) >= 8


class TestBatchPairJaccard:
    def test_matches_per_pair_spec(self, ray_session):
        import pyarrow as pa

        from search_engine_ray.pipelines.training_data import batch_pair_jaccard

        rng = np.random.default_rng(3)
        sh_a, sh_b, expect = [], [], []
        for i in range(500):
            sx = np.unique(rng.integers(0, 200, rng.integers(0, 30), dtype=np.uint64))
            sy = np.unique(rng.integers(0, 200, rng.integers(0, 30), dtype=np.uint64))
            sh_a.append(sx.tobytes())
            sh_b.append(sy.tobytes())
            if not len(sx) and not len(sy):
                expect.append(1.0)
            else:
                inter = len(np.intersect1d(sx, sy, assume_unique=True))
                expect.append(inter / (len(sx) + len(sy) - inter))
        got = batch_pair_jaccard(pa.array(sh_a, pa.binary()), pa.array(sh_b, pa.binary()))
        assert np.allclose(got, np.asarray(expect))

    def test_empty_batch(self, ray_session):
        import pyarrow as pa

        from search_engine_ray.pipelines.training_data import batch_pair_jaccard

        got = batch_pair_jaccard(pa.array([], pa.binary()), pa.array([], pa.binary()))
        assert len(got) == 0

    def test_containment_matches_per_pair_spec(self, ray_session):
        import pyarrow as pa

        from search_engine_ray.pipelines.training_data import batch_pair_containment

        rng = np.random.default_rng(7)
        sh_a, sh_b, expect = [], [], []
        for _ in range(500):
            sx = np.unique(rng.integers(0, 200, rng.integers(0, 30), dtype=np.uint64))
            sy = np.unique(rng.integers(0, 200, rng.integers(0, 30), dtype=np.uint64))
            sh_a.append(sx.tobytes())
            sh_b.append(sy.tobytes())
            mn = min(len(sx), len(sy))
            if mn == 0:
                expect.append(1.0)
            else:
                expect.append(len(np.intersect1d(sx, sy, assume_unique=True)) / mn)
        got = batch_pair_containment(pa.array(sh_a, pa.binary()), pa.array(sh_b, pa.binary()))
        assert np.allclose(got, np.asarray(expect))

    def test_containment_detects_subset(self, ray_session):
        """A doc fully quoted inside a longer doc: containment 1.0 even
        though Jaccard is far below any dedup threshold."""
        import pyarrow as pa

        from search_engine_ray.pipelines.training_data import (
            batch_pair_containment,
            batch_pair_jaccard,
        )

        small = np.arange(10, dtype=np.uint64)
        big = np.arange(100, dtype=np.uint64)
        a = pa.array([small.tobytes()], pa.binary())
        b = pa.array([big.tobytes()], pa.binary())
        assert batch_pair_containment(a, b)[0] == 1.0
        assert batch_pair_jaccard(a, b)[0] == pytest.approx(0.1)


class TestClusterBest:
    def test_keeps_best_quality_not_min_id(self, ray_session):
        """A near-dup cluster whose HIGHER-id member has better quality:
        cluster_best must pick it (exact_dedup's min-id rule would not)."""
        import pyarrow as pa
        import ray.data

        from search_engine_ray.functions.quality import batch_doc_stats, batch_quality_score
        from search_engine_ray.pipelines.training_data import cluster_best

        base = "the quick brown fox jumps over the lazy dog near the river bank today"
        texts = [
            base + " 111 222 333 444",   # doc 0: digit-heavy variant (lower quality)
            base + " with calm grace",   # doc 1: clean variant (higher quality)
            "unrelated standalone page about gardens",  # doc 2: not in any pair
        ]
        q = batch_quality_score(batch_doc_stats(pa.array(texts, pa.string())))
        assert q[1] > q[0], "fixture must make doc 1 the better copy"
        docs = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(texts, pa.string()),
        }))
        pairs = ray.data.from_arrow(pa.table({"a": pa.array([0], pa.int64()),
                                              "b": pa.array([1], pa.int64())}))
        out = cluster_best(docs, pairs).to_pandas()
        assert len(out) == 1
        row = out.iloc[0]
        assert (int(row.cluster_id), int(row.keep_doc_id), int(row.n_members)) == (0, 1, 2)
        assert row.quality_r == pytest.approx(round(float(q[1]), 6))

    def test_tie_breaks_to_min_id(self, ray_session):
        import pyarrow as pa
        import ray.data

        from search_engine_ray.pipelines.training_data import cluster_best

        t = "identical words here make identical quality scores for both docs"
        docs = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([5, 9], pa.int64()),
            "text": pa.array([t, t], pa.string()),
        }))
        pairs = ray.data.from_arrow(pa.table({"a": pa.array([5], pa.int64()),
                                              "b": pa.array([9], pa.int64())}))
        out = cluster_best(docs, pairs).to_pandas()
        assert out.keep_doc_id.tolist() == [5]


class TestLinearTextScorer:
    TEXTS = ["Red Apple pie", "green tea", "", "one", "a b a b"]

    def _spec(self, scorer, texts):
        """Per-doc mean hashed-feature weight, scalar reference."""
        import pyarrow as pa

        out = {}
        for i, t in enumerate(texts):
            toks = t.lower().split()
            feats = toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])]
            if not feats:
                continue
            bk = scorer._buckets(pa.array(feats, pa.string()))
            s = float(np.mean(scorer.w[bk]))
            out[i] = (len(feats), round(s, 6), int(s > 0))
        return out

    @pytest.mark.parametrize("mode", ["poly", "md5"])
    @pytest.mark.parametrize("parts", [1, 3])
    def test_matches_spec(self, ray_session, mode, parts):
        import pyarrow as pa
        import ray.data

        from search_engine_ray.pipelines.training_data import (
            LinearTextScorer,
            classifier_scores,
        )

        tbl = pa.table({"doc_id": pa.array(np.arange(len(self.TEXTS)), pa.int64()),
                        "text": pa.array(self.TEXTS, pa.string())})
        ds = ray.data.from_arrow(tbl).repartition(parts)
        out = classifier_scores(ds, n_buckets=512, mode=mode).to_pandas()
        scorer = LinearTextScorer(n_buckets=512, mode=mode)
        want = self._spec(scorer, self.TEXTS)
        got = {int(r.doc_id): (int(r.n_features), r.score_r, int(r.label))
               for r in out.itertuples()}
        assert got.keys() == want.keys()   # empty doc absent
        for i in want:
            assert got[i][0] == want[i][0], i
            assert got[i][1] == pytest.approx(want[i][1], abs=1e-9), i
            assert got[i][2] == want[i][2], i

    def test_custom_weights_injection(self, ray_session):
        """The model-load seam: injected weights drive the scores."""
        import pyarrow as pa
        import ray.data

        from search_engine_ray.pipelines.training_data import classifier_scores

        tbl = pa.table({"doc_id": pa.array([0], pa.int64()),
                        "text": pa.array(["x y"], pa.string())})
        ds = ray.data.from_arrow(tbl)
        ones = np.ones(512, np.float64)
        out = classifier_scores(ds, n_buckets=512, weights=ones).to_pandas()
        assert out.score_r.tolist() == [1.0] and out.label.tolist() == [1]


class TestSparseKnn:
    TEXTS = ["red apple pie", "red apple tart", "green pear pie",
             "pear tart snack", "red red apple", "unique zebra",
             "apple pie pie", "green apple snack"]

    def _brute(self, texts, k, cap):
        import math
        from collections import Counter

        N = len(texts)
        tfs = [Counter(t.split()) for t in texts]
        df = Counter()
        for c in tfs:
            df.update(c.keys())
        vocab = [w for w in df if 2 <= df[w] <= cap]
        V = {w: i for i, w in enumerate(vocab)}
        M = np.zeros((N, len(vocab)))
        for i, c in enumerate(tfs):
            for w, f in c.items():
                if w in V:
                    M[i, V[w]] = f * math.log10(N / df[w])
        nrm = np.linalg.norm(M, axis=1)
        want = {}
        for i in range(N):
            sims = []
            for j in range(N):
                if j == i or nrm[i] == 0 or nrm[j] == 0:
                    continue
                if not any(M[i, V[w]] and M[j, V[w]] for w in vocab):
                    continue  # never meet in any posting list
                sims.append((round(float(M[i] @ M[j]) / (nrm[i] * nrm[j]), 6), j))
            sims.sort(key=lambda t: (-t[0], t[1]))
            want[i] = [(j, s) for s, j in sims[:k]]
        return want

    @pytest.mark.parametrize("parts", [1, 4])
    def test_matches_brute_force(self, ray_session, parts):
        import pyarrow as pa
        import ray.data

        from search_engine_ray.pipelines.training_data import sparse_knn

        tbl = pa.table({"doc_id": pa.array(np.arange(len(self.TEXTS)), pa.int64()),
                        "text": pa.array(self.TEXTS, pa.string())})
        out = (sparse_knn(ray.data.from_arrow(tbl).repartition(parts), k=2, df_cap=100)
               .to_pandas().sort_values(["doc_id", "rank"]))
        want = self._brute(self.TEXTS, 2, 100)
        for i, exp in want.items():
            got = [(int(r.nbr_id), r.sim_r) for r in out[out.doc_id == i].itertuples()]
            assert [g[0] for g in got] == [w[0] for w in exp], i
            assert np.allclose([g[1] for g in got], [w[1] for w in exp]), i
        # df=1-only doc has no neighbours
        assert (out.doc_id != 5).all()

    def test_df_cap_prunes_hot_terms(self, ray_session):
        """With cap=2 the df-3 'red'/'pie' lists are pruned: doc 4
        ('red red apple') only meets others through 'apple' (df... >cap too)
        — shrink to a corpus where the cap bites measurably."""
        import pyarrow as pa
        import ray.data

        from search_engine_ray.pipelines.training_data import sparse_knn

        # 'hot' df=3 < N=4 so its full-space weight is positive; cap=2
        # prunes it and the sims genuinely change
        texts = ["a b hot", "a c hot", "b c hot", "solo only"]
        tbl = pa.table({"doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                        "text": pa.array(texts, pa.string())})
        ds = ray.data.from_arrow(tbl)
        full = sparse_knn(ds, k=2, df_cap=3).to_pandas()
        pruned = sparse_knn(ds, k=2, df_cap=2).to_pandas()
        # pruned space excludes 'hot': sims now come only from a/b/c overlap
        want = self._brute(texts, 2, 2)
        for i, exp in want.items():
            got = [(int(r.nbr_id), r.sim_r) for r in
                   pruned[pruned.doc_id == i].sort_values("rank").itertuples()]
            assert got == [(j, pytest.approx(s)) for j, s in exp], i
        assert not full.equals(pruned)


class TestIVFSampleUniform:
    def test_centroids_cover_sorted_table(self, ray_session):
        """On a SORTED table whose first sample_size rows are one cluster,
        centroids must still be drawn from the full range (round-2 VERDICT
        #7: limit() sampled only the head)."""
        import ray.data

        from search_engine_ray.pipelines.training_data import ivf_index

        rng = np.random.default_rng(2)
        rows = []
        for i in range(3000):
            base = np.zeros(8)
            base[0 if i < 1500 else 1] = 1.0  # head cluster A, tail cluster B
            v = base + 0.01 * rng.standard_normal(8)
            rows.append({"vec_id": i, "embedding": v.tolist()})
        emb = ray.data.from_items(rows, override_num_blocks=4)
        assigned, cents = ivf_index(emb, n_centroids=4, sample_size=256)
        # at least one centroid points at each cluster direction
        assert (cents[:, 0] > 0.9).any(), "no centroid near head cluster"
        assert (cents[:, 1] > 0.9).any(), "no centroid near tail cluster (head-biased sample)"
        df = assigned.to_pandas()
        head = set(df.loc[df["vec_id"] < 1500, "centroid"])
        tail = set(df.loc[df["vec_id"] >= 1500, "centroid"])
        assert head.isdisjoint(tail)


class TestPiiAndRepetitionTables:
    @pytest.fixture(scope="class")
    def pii_ds(self, ray_session):
        import ray.data

        return ray.data.from_items([
            {"doc_id": 1, "text": "email a@b.co and ip 10.0.0.1 and +1 555-123-4567"},
            {"doc_id": 2, "text": "clean text\nclean text\nclean text\ntail"},
            {"doc_id": 3, "text": ""},
        ], override_num_blocks=2)

    def test_pii_scrub_table(self, pii_ds):
        from search_engine_ray.pipelines.training_data import pii_scrub_table

        out = pii_scrub_table(pii_ds).to_pandas().set_index("doc_id").sort_index()
        assert out.loc[1, "text_clean"] == "email <EMAIL> and ip <IP> and <PHONE>"
        assert (out.loc[1, ["n_email", "n_phone", "n_ipv4"]] == 1).all()
        assert out.loc[2, "text_clean"] == "clean text\nclean text\nclean text\ntail"
        assert (out.loc[[2, 3], ["n_email", "n_phone", "n_ipv4"]] == 0).all().all()

    def test_repetition_table(self, pii_ds):
        from search_engine_ray.pipelines.training_data import repetition_table

        out = repetition_table(pii_ds).to_pandas().set_index("doc_id").sort_index()
        assert out.loc[2, "n_lines"] == 4
        assert out.loc[2, "dup_line_frac"] == 0.75
        assert out.loc[1, "dup_line_frac"] == 0.0
        assert out.loc[3, "n_lines"] == 0 and out.loc[3, "dup_5gram_frac"] == 0.0


class TestDecontaminate:
    def test_planted_overlap(self, ray_session):
        import ray.data

        from search_engine_ray.pipelines.training_data import decontaminate

        rows = [
            {"doc_id": 23, "text": "alpha beta gamma delta epsilon zeta eta theta iota"},
            # shares the 8-gram "alpha..theta" with eval doc 23
            {"doc_id": 7, "text": "pre alpha beta gamma delta epsilon zeta eta theta post"},
            {"doc_id": 8, "text": "entirely different words with no overlap at all here ok"},
            {"doc_id": 9, "text": "short text"},                 # < 8 tokens → 0 grams
            {"doc_id": 46, "text": "second eval doc something"},  # 46 % 23 == 0
        ]
        out = decontaminate(ray.data.from_items(rows, override_num_blocks=2)) \
            .to_pandas().set_index("doc_id").sort_index()
        assert sorted(out.index) == [7, 8, 9]      # eval docs excluded
        assert out.loc[7, "n_8grams"] == 3 and out.loc[7, "n_contaminated"] == 1
        assert out.loc[7, "contam_frac"] == 1 / 3
        assert out.loc[8, "n_contaminated"] == 0
        assert out.loc[9, "n_8grams"] == 0 and out.loc[9, "contam_frac"] == 0.0

    def test_empty_eval_split(self, ray_session):
        import ray.data

        from search_engine_ray.pipelines.training_data import decontaminate

        rows = [{"doc_id": i, "text": "one two three four five six seven eight nine"}
                for i in (1, 2)]
        out = decontaminate(ray.data.from_items(rows)).to_pandas()
        assert len(out) == 2 and (out["n_contaminated"] == 0).all()
        assert (out["n_8grams"] == 2).all()


class TestDsirWeights:
    def test_target_docs_score_higher(self, ray_session):
        """Docs sharing the target-language vocabulary get higher log
        importance ratios than off-target-vocabulary docs; smoothing keeps
        every doc finite even when its tokens never occur in the target."""
        import ray.data

        from search_engine_ray.pipelines.training_data import dsir_weights

        rows = (
            [{"doc_id": i, "lang": "en",
              "text": "alpha beta gamma delta " * 5} for i in range(10)]
            + [{"doc_id": 100 + i, "lang": "de",
                "text": "zug bahn strasse wolke " * 5} for i in range(10)]
            # an undeclared-lang doc with target-like text: scores high
            + [{"doc_id": 200, "lang": "xx", "text": "alpha beta gamma delta"},
               {"doc_id": 201, "lang": "xx", "text": "zug bahn strasse wolke"}]
        )
        docs = ray.data.from_items(rows, override_num_blocks=3)
        out = dsir_weights(docs).to_pandas().set_index("doc_id")
        lr = out["logratio_r"]
        assert lr.loc[0] > lr.loc[100]
        assert lr.loc[200] > lr.loc[201]
        assert np.isfinite(lr).all()
        assert (out["n_tokens"].loc[[0, 100]] == 20).all()


class TestCcnetBuckets:
    def test_tertile_labels(self, ray_session):
        import ray.data

        from search_engine_ray.pipelines.training_data import ccnet_buckets

        # common-vocabulary docs score high (head); rare-token soup low
        rows = ([{"doc_id": i, "text": "the quick brown fox " * 4}
                 for i in range(6)]
                + [{"doc_id": 10 + i, "text": f"the quick zq{i}x vb{i}k " * 4}
                   for i in range(6)]
                + [{"doc_id": 20 + i, "text": f"xq{i}a wj{i}b kz{i}c pv{i}d"}
                   for i in range(6)])
        docs = ray.data.from_items(rows, override_num_blocks=3)
        out = ccnet_buckets(docs).to_pandas().set_index("doc_id")
        assert set(out["bucket"]) == {"head", "middle", "tail"}
        assert (out.loc[range(6), "bucket"] == "head").all()
        assert (out.loc[range(20, 26), "bucket"] == "tail").all()


class TestProjectEmbeddings:
    def test_jl_distance_preservation(self, ray_session):
        """The projection is linear with the seeded matrix (exact per-row
        matmul check) and deterministic across partitionings."""
        import ray.data

        from search_engine_ray.pipelines.training_data import (
            project_embeddings,
            projection_matrix,
        )

        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 64)).astype(np.float32)
        rows = [{"vec_id": i, "embedding": X[i].tolist()} for i in range(40)]
        for blocks in (1, 5):
            ds = ray.data.from_items(rows, override_num_blocks=blocks)
            out = (project_embeddings(ds, out_dim=8).to_pandas()
                   .sort_values("vec_id").reset_index(drop=True))
            R = projection_matrix(64, 8)
            want = np.round(X.astype(np.float64) @ R.T, 6)
            got = out[[f"p{j}" for j in range(8)]].to_numpy()
            np.testing.assert_array_equal(got, want)


class TestDocNovelty:
    @pytest.mark.parametrize("cap", [50_000_000, 0])
    def test_novelty_fractions(self, ray_session, cap):
        """Fully-shared docs score 0, fully-unique docs score 1, and a
        half-boilerplate doc lands in between — identical on the broadcast
        and sort-co-group paths."""
        import ray.data

        from search_engine_ray.pipelines.training_data import doc_novelty

        boiler = "the quick brown fox jumps over the lazy dog"
        rows = [
            {"doc_id": 1, "text": boiler},
            {"doc_id": 2, "text": boiler},                       # exact twin → 0
            {"doc_id": 3, "text": "completely novel words appear "
                                  "here nowhere else at all"},    # → 1
            {"doc_id": 4, "text": boiler + " with some extra novel tail "
                                           "tokens here"},        # mixed
            {"doc_id": 5, "text": "tiny"},                        # <5 tokens: absent
        ]
        ds = ray.data.from_items(rows, override_num_blocks=3)
        out = doc_novelty(ds, n=5, broadcast_cap=cap).to_pandas().set_index("doc_id")
        assert 5 not in out.index
        assert out.loc[1, "novelty_r"] == 0.0
        assert out.loc[2, "novelty_r"] == 0.0
        assert out.loc[3, "novelty_r"] == 1.0
        assert 0.0 < out.loc[4, "novelty_r"] < 1.0


class TestDedupPairEval:
    def _pairs(self, rows):
        import pyarrow as pa
        import ray.data

        a = [x for x, _ in rows]
        b = [y for _, y in rows]
        return ray.data.from_arrow(pa.table({"a": pa.array(a, pa.int64()),
                                             "b": pa.array(b, pa.int64())}))

    def test_confusion_counts(self, ray_session):
        from search_engine_ray.pipelines.training_data import dedup_pair_eval

        truth = self._pairs([(1, 2), (3, 4), (5, 6), (7, 8)])
        pred = self._pairs([(1, 2), (5, 6), (9, 10)])
        out = dedup_pair_eval(truth, pred)
        row = out.iloc[0]
        assert (row.n_truth, row.n_pred, row.n_hit) == (4, 3, 2)
        assert row.recall_r == 0.5
        assert row.precision_r == round(2 / 3, 6)

    def test_empty_sides_score_one(self, ray_session):
        from search_engine_ray.pipelines.training_data import dedup_pair_eval

        none = self._pairs([])
        some = self._pairs([(1, 2)])
        both_empty = dedup_pair_eval(none, none).iloc[0]
        assert (both_empty.recall_r, both_empty.precision_r) == (1.0, 1.0)
        miss = dedup_pair_eval(some, none).iloc[0]
        assert (miss.recall_r, miss.precision_r) == (0.0, 1.0)
        spurious = dedup_pair_eval(none, some).iloc[0]
        assert (spurious.recall_r, spurious.precision_r) == (1.0, 0.0)


class TestDecontaminateFuzzy:
    def _ds(self, rows):
        import pyarrow as pa
        import ray.data

        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }))

    BENCH = "what is the capital city of france and where is it located today"

    def test_finds_exact_and_near_copies(self, ray_session):
        from search_engine_ray.pipelines.training_data import decontaminate_fuzzy

        near = "what is the capital city of france and where is it situated today"
        corpus = self._ds([
            (1, self.BENCH),                          # exact leak
            (2, near),                                # paraphrased leak
            (3, "completely unrelated text about gardening and soil quality"),
            (4, "another unrelated document mentioning france once only here"),
        ])
        ev = self._ds([(100, self.BENCH)])
        for mode in ("poly", "md5"):
            out = decontaminate_fuzzy(corpus, ev, shingle_k=2, threshold=0.5,
                                      hash_mode=mode).to_pandas()
            got = set(zip(out.doc_id, out.eval_id))
            assert (1, 100) in got, mode
            assert (2, 100) in got, mode
            assert all(d in (1, 2) for d in out.doc_id), mode
            exact = out[out.doc_id == 1].jaccard.iloc[0]
            assert exact == 1.0, mode

    def test_empty_eval_set_matches_nothing(self, ray_session):
        from search_engine_ray.pipelines.training_data import decontaminate_fuzzy

        corpus = self._ds([(1, self.BENCH)])
        ev = self._ds([])
        assert decontaminate_fuzzy(corpus, ev).count() == 0

    def test_eval_cap_guard(self, ray_session):
        import pytest as _pt

        from search_engine_ray.pipelines.training_data import decontaminate_fuzzy

        corpus = self._ds([(1, self.BENCH)])
        ev = self._ds([(i, f"doc number {i} words here") for i in range(5)])
        with _pt.raises(ValueError, match="eval_cap"):
            decontaminate_fuzzy(corpus, ev, eval_cap=2)


class TestQuantizeEmbeddings:
    def _emb(self, mat):
        import pyarrow as pa
        import ray.data

        n, d = mat.shape
        offs = pa.array(np.arange(n + 1, dtype=np.int32) * d)
        col = pa.ListArray.from_arrays(offs, pa.array(mat.reshape(-1).astype(np.float32), pa.float32()))
        return ray.data.from_arrow(pa.table({
            "vec_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "embedding": col,
        }))

    def test_roundtrip_error_bound_and_zero_vector(self, ray_session):
        from search_engine_ray.pipelines.training_data import (
            dequantize_embeddings,
            quantize_embeddings,
        )

        rng = np.random.default_rng(11)
        mat = rng.normal(size=(40, 16))
        mat[7] = 0.0  # zero vector: scale 0, codes 0, reconstruction 0
        ds = self._emb(mat)
        out = dequantize_embeddings(quantize_embeddings(ds)).to_pandas() \
            .sort_values("vec_id")
        rec = np.stack([np.asarray(v, np.float64) for v in out.embedding])
        x = mat.astype(np.float32).astype(np.float64)
        scale = np.abs(x).max(axis=1, keepdims=True)
        # max-abs int8: per-component error <= scale/(2*127)
        assert np.abs(rec - x).max() <= (scale / 254.0 + 1e-12).max()
        assert (rec[7] == 0).all()

    def test_quantized_ann_recall(self, ray_session):
        from search_engine_ray.pipelines.training_data import (
            ann_brute_force,
            dequantize_embeddings,
            quantize_embeddings,
        )

        rng = np.random.default_rng(5)
        mat = rng.normal(size=(300, 32))
        ds = self._emb(mat)
        qm = mat[:2].astype(np.float32).astype(np.float64)
        exact = ann_brute_force(ds, qm, k=10).to_pandas()
        deq = dequantize_embeddings(quantize_embeddings(ds))
        quant = ann_brute_force(deq, qm, k=10).to_pandas()
        for qid in (0, 1):
            e = set(exact[exact.query_id == qid].vec_id)
            g = set(quant[quant.query_id == qid].vec_id)
            assert len(e & g) >= 8, f"recall@10 too low for query {qid}"


def test_readability_scalar_spec(ray_session):
    import re

    import pyarrow as pa
    import ray.data

    from search_engine_ray.pipelines.training_data import readability_table

    texts = ["Hello world. This is a test! Is it good?",
             "one", "", "No punctuation here at all"]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string())}))
    out = readability_table(ds).to_pandas().sort_values("doc_id")
    for row, t in zip(out.itertuples(), texts):
        w = len([x for x in re.split(r"\s+", t) if x])
        s = max(len(re.findall(r"[.!?]+", t)), 1)
        y = len(re.findall(r"[aeiouy]+", t.lower()))
        assert (row.n_words, row.n_sents, row.n_syll) == (w, s, y), t
        assert row.flesch_r == round(206.835 - 1.015 * w / s - 84.6 * y / max(w, 1), 4)


class TestChunkDocuments:
    def _run(self, ray_session, texts, **kw):
        import pyarrow as pa
        import ray.data

        from search_engine_ray.pipelines.training_data import chunk_documents

        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())}))
        return chunk_documents(ds, **kw).to_pandas() \
            .sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)

    def test_coverage_overlap_and_tail(self, ray_session):
        toks = [f"w{i}" for i in range(100)]
        out = self._run(None, [" ".join(toks)], window=64, overlap=16)
        assert out.start_tok.tolist() == [0, 48]
        assert out.n_tokens.tolist() == [64, 52]
        # every token covered; consecutive chunks overlap by exactly 16
        assert out.text[0].split() == toks[:64]
        assert out.text[1].split() == toks[48:]

    def test_short_empty_and_exact_window_docs(self, ray_session):
        out = self._run(None, ["a b c", "", " ".join(["x"] * 64)],
                        window=64, overlap=16)
        assert out[out.doc_id == 0].n_tokens.tolist() == [3]
        assert (out.doc_id != 1).all()  # empty doc emits nothing
        assert out[out.doc_id == 2].n_tokens.tolist() == [64]

    def test_overlap_must_be_smaller(self, ray_session):
        import pytest as _pt

        with _pt.raises(ValueError):
            self._run(None, ["a"], window=8, overlap=8)


def test_contrastive_triplets_rules(ray_session):
    import hashlib

    import pyarrow as pa
    import ray.data

    from search_engine_ray.pipelines.training_data import contrastive_triplets

    # include pairs engineered so the raw hash lands ON the pair ids to
    # exercise the collision steps
    aa = [0, 1, 5]
    bb = [1, 2, 6]
    pairs = ray.data.from_arrow(pa.table({"a": pa.array(aa, pa.int64()),
                                          "b": pa.array(bb, pa.int64())}))
    n = 7
    out = contrastive_triplets(pairs, n).to_pandas().sort_values("anchor")
    for (a, b, neg) in out[["anchor", "positive", "negative"]].itertuples(index=False):
        raw = int(hashlib.md5(f"{a}_{b}".encode()).hexdigest()[:12], 16) % n
        want = raw
        for _ in range(2):
            if want in (a, b):
                want = (want + 1) % n
        assert neg == want and neg not in (a, b)
    # determinism across partition counts
    out2 = contrastive_triplets(pairs.repartition(3), n).to_pandas() \
        .sort_values("anchor").reset_index(drop=True)
    assert out.reset_index(drop=True).equals(out2)


class TestDocBigramLogprob:
    def test_matches_scalar_spec(self, ray_session):
        """Pipeline == brute-force interpolated bigram LM computed from the
        same tokenization (simple lowercase words, lemma-stable)."""
        import math

        import ray.data

        from search_engine_ray.functions.tokenizer import Tokenizer
        from search_engine_ray.pipelines.training_data import doc_bigram_logprob

        rows = [
            {"doc_id": 1, "text": "fast table merge fast table"},
            {"doc_id": 2, "text": "fast fast fast"},
            {"doc_id": 3, "text": "merge table"},
            {"doc_id": 4, "text": "solo"},          # 1 token → no bigrams, no row
            {"doc_id": 5, "text": ""},              # empty → no row
        ]
        lam = 0.7
        ds = ray.data.from_items(rows, override_num_blocks=3)
        out = doc_bigram_logprob(ds, lam=lam).to_pandas().set_index("doc_id")

        tok = Tokenizer()
        seqs = {r["doc_id"]: [t.word for t in tok.tokenize(r["text"]) if t.word]
                for r in rows}
        ctf: dict[str, int] = {}
        big: dict[tuple[str, str], int] = {}
        for ws in seqs.values():
            for w in ws:
                ctf[w] = ctf.get(w, 0) + 1
            for a, b in zip(ws, ws[1:]):
                big[(a, b)] = big.get((a, b), 0) + 1
        T = sum(ctf.values())
        ctx = {}
        for (a, _), c in big.items():
            ctx[a] = ctx.get(a, 0) + c

        assert 4 not in out.index and 5 not in out.index
        for d, ws in seqs.items():
            pairs = list(zip(ws, ws[1:]))
            if not pairs:
                continue
            lp = sum(
                math.log10(lam * big[p] / ctx[p[0]] + (1 - lam) * ctf[p[1]] / T)
                for p in pairs
            ) / len(pairs)
            assert out.loc[d, "n_bigrams"] == len(pairs)
            assert out.loc[d, "logprob_r"] == round(lp, 6)

    def test_interpolation_bounds(self, ray_session):
        """lam→1 concentrates on observed continuations: a doc made of the
        corpus' only repeated bigram must outscore a doc of one-off
        adjacencies."""
        import ray.data

        from search_engine_ray.pipelines.training_data import doc_bigram_logprob

        rows = [
            {"doc_id": 1, "text": "alpha beta alpha beta alpha beta"},
            {"doc_id": 2, "text": "gamma delta epsilon zeta eta theta"},
        ]
        out = (doc_bigram_logprob(ray.data.from_items(rows), lam=0.99)
               .to_pandas().set_index("doc_id"))
        assert out.loc[1, "logprob_r"] > out.loc[2, "logprob_r"]


class TestDocEmbeddings:
    ROWS = [
        {"doc_id": 1, "text": "fast table merge"},
        {"doc_id": 2, "text": "fast table merge"},     # twin of 1
        {"doc_id": 3, "text": "window scan filter group"},
        {"doc_id": 4, "text": ""},                      # no tokens → no rows
    ]

    def test_md5_mode_matches_scalar_spec(self, ray_session):
        import hashlib

        import ray.data

        from search_engine_ray.functions.tokenizer import Tokenizer
        from search_engine_ray.pipelines.training_data import doc_embeddings

        dim, a = 4, 1e-3
        ds = ray.data.from_items(self.ROWS, override_num_blocks=2)
        out = (doc_embeddings(ds, dim=dim, a=a, method="md5").to_pandas()
               .set_index(["doc_id", "j"])["e_r"])

        tok = Tokenizer()
        seqs = {r["doc_id"]: [t.word for t in tok.tokenize(r["text"]) if t.word]
                for r in self.ROWS}
        ctf: dict[str, int] = {}
        for ws in seqs.values():
            for w in ws:
                ctf[w] = ctf.get(w, 0) + 1
        T = sum(ctf.values())

        def comp(w, j):
            u = int(hashlib.md5(f"{w}|{j}".encode()).hexdigest()[:8], 16)
            return u / 2**32 * 2.0 - 1.0

        assert 4 not in out.index.get_level_values(0)
        for d, ws in seqs.items():
            if not ws:
                continue
            for j in range(dim):
                e = sum(a / (a + ctf[w] / T) * comp(w, j) for w in ws) / len(ws)
                assert out.loc[(d, j)] == round(e, 6)

    @pytest.mark.parametrize("parts", [1, 3])
    def test_mix64_deterministic_and_partition_invariant(self, ray_session, parts):
        import ray.data

        from search_engine_ray.pipelines.training_data import doc_embeddings

        ds = ray.data.from_items(self.ROWS, override_num_blocks=parts)
        out = (doc_embeddings(ds, dim=8).to_pandas()
               .sort_values(["doc_id", "j"]).reset_index(drop=True))
        if parts == 1:
            type(self)._ref = out
        else:
            pd.testing.assert_frame_equal(out, type(self)._ref)
        # identical texts → identical embeddings; distinct text differs
        e1 = out[out.doc_id == 1]["e_r"].to_numpy()
        e2 = out[out.doc_id == 2]["e_r"].to_numpy()
        e3 = out[out.doc_id == 3]["e_r"].to_numpy()
        np.testing.assert_array_equal(e1, e2)
        assert not np.array_equal(e1, e3)
        assert np.all(np.abs(out["e_r"]) <= 1.0)


def test_corpus_drift(ray_session):
    import math

    import pyarrow as pa
    import ray.data

    from search_engine_ray.pipelines.training_data import corpus_drift

    a = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["old old word", "word base"])}))
    b = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([3, 4], pa.int64()),
        "text": pa.array(["new new new word", "base word"])}))
    out = (corpus_drift(a, b).to_pandas().set_index("term"))
    # counts: old a=2 b=0; new a=0 b=3; word a=2 b=2; base a=1 b=1
    assert out.loc["old", ["c_a", "c_b"]].tolist() == [2, 0]
    assert out.loc["new", ["c_a", "c_b"]].tolist() == [0, 3]
    assert out.loc["word", ["c_a", "c_b"]].tolist() == [2, 2]
    # signs: 'old' shrinks, 'new' grows
    assert out.loc["old", "sign"] == -1
    assert out.loc["new", "sign"] == 1
    # G2 scalar check for 'new': k_a=0, k_b=3, na=5, nb=6
    na, nb, kb = 5.0, 6.0, 3.0
    e_b = nb * kb / (na + nb)
    want = round(2 * (kb * math.log(kb / e_b)), 6)
    assert out.loc["new", "g2_r"] == want
    # one-sided terms score higher drift than balanced ones
    assert out.loc["new", "g2_r"] > out.loc["word", "g2_r"]
    assert out.loc["word", "g2_r"] < 0.2


def test_clusters_pointer_jumping_chain(ray_session):
    """A length-100 chain converges in O(log n) rounds with the shortcut
    (label propagation alone would need ~100 rounds — the documented
    pathological diameter regime) and matches union-find exactly."""
    import pyarrow as pa
    import ray.data

    from search_engine_ray.pipelines.training_data import (
        clusters_distributed,
        clusters_from_pairs,
    )

    n = 100
    tbl = pa.table({"a": pa.array(np.arange(n - 1), pa.int64()),
                    "b": pa.array(np.arange(1, n), pa.int64())})
    # max_iters=12 >> log2(100): only the shortcut path can converge
    out = (clusters_distributed(ray.data.from_arrow(tbl), max_iters=12)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert (out["cluster_id"] == 0).all() and len(out) == n

    # shortcut on == shortcut off == union-find on a shallow random graph
    rng = np.random.default_rng(9)
    a, b = rng.integers(0, 60, 150), rng.integers(0, 60, 150)
    p = pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})
    ds = ray.data.from_arrow(p)
    s1 = (clusters_distributed(ds).to_pandas()
          .sort_values("doc_id").reset_index(drop=True))
    s0 = (clusters_distributed(ds, shortcut=False).to_pandas()
          .sort_values("doc_id").reset_index(drop=True))
    uf = (clusters_from_pairs(p.to_pandas())
          .sort_values("doc_id").reset_index(drop=True))
    assert s1.equals(s0) and s1.equals(uf)


def test_textrank_keywords(ray_session):
    import pyarrow as pa
    import ray.data

    from search_engine_ray.pipelines.training_data import textrank_keywords

    texts = [
        # 'hub' co-occurs with everything → top TextRank word
        "hub alpha hub beta hub gamma hub delta",
        "solo",
        "",
    ]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(3), pa.int64()),
        "text": pa.array(texts)}))
    out = (textrank_keywords(ds, k=2).to_pandas()
           .sort_values(["doc_id", "rank"]).reset_index(drop=True))
    d0 = out[out["doc_id"] == 0]
    assert d0.iloc[0]["term"] == "hub"
    # single-word doc: the word ranks itself; empty doc emits nothing
    d1 = out[out["doc_id"] == 1]
    assert d1["term"].tolist() == ["solo"]
    assert 2 not in set(out["doc_id"])

    # scalar spec twin for doc 0 (window-2 graph, 20 iterations)
    words = texts[0].split()
    vocab = sorted(set(words))
    ix = {w: i for i, w in enumerate(vocab)}
    n = len(vocab)
    A = np.zeros((n, n))
    for off in (1, 2):
        for u, v in zip(words[:-off], words[off:]):
            if u != v:
                A[ix[u], ix[v]] = A[ix[v], ix[u]] = 1.0
    deg = A.sum(axis=1)
    deg[deg == 0] = 1
    P = A / deg[:, None]
    r = np.full(n, 1 / n)
    for _ in range(20):
        r = 0.15 / n + 0.85 * (P.T @ r)
    want = sorted(zip(np.round(r, 6), vocab), key=lambda t: (-t[0], t[1]))[:2]
    got = list(zip(d0["score_r"], d0["term"]))
    assert got == [(w[0], w[1]) for w in want]


def test_new_vs_snapshot_near(ray_session, tmp_path):
    """Persisted snapshot band index + cross-side LSH probe: lightly
    edited and exact recrawls match their snapshot originals, novel docs
    don't; a second crawl reuses the index without rebuilding."""
    import ray.data

    from search_engine_ray.pipelines.training_data import (
        new_vs_snapshot_near, write_snapshot_band_index)

    base = ("the quick brown fox jumps over the lazy dog and then runs far "
            "away into the deep green forest before sunset tonight").split()
    snap_texts = {
        100: " ".join(base),
        102: " ".join(base[::-1]),
        104: "completely different snapshot content about databases and "
             "query engines with many unrelated words here",
    }
    new_texts = {
        201: " ".join(base[:-1] + ["tomorrow"]),  # light edit of 100
        203: " ".join(base),                      # exact recrawl of 100
        205: "a totally novel page about gardening tulips soil compost "
             "watering schedules and sunlight exposure",
    }

    def ds(d):
        return ray.data.from_items(
            [{"doc_id": k, "text": v} for k, v in d.items()])

    idx = str(tmp_path / "snapidx")
    write_snapshot_band_index(ds(snap_texts), idx, shingle_k=2)
    out = new_vs_snapshot_near(ds(new_texts), idx, threshold=0.5).to_pandas()
    pairs = set(zip(out["doc_id"].tolist(), out["snap_id"].tolist()))
    assert (203, 100) in pairs          # exact recrawl
    assert (201, 100) in pairs          # light edit
    assert not any(d == 205 for d, _ in pairs)  # novel doc clean
    exact = out[(out.doc_id == 203) & (out.snap_id == 100)]
    assert float(exact["jaccard"].iloc[0]) == 1.0
    # second crawl probes the SAME index (no rebuild)
    out2 = new_vs_snapshot_near(
        ds({301: " ".join(base)}), idx, threshold=0.5).to_pandas()
    assert set(zip(out2["doc_id"], out2["snap_id"])) == {(301, 100)}
    # broadcast_cap=0 forces the hash-join verify path — identical result
    outj = (new_vs_snapshot_near(ds(new_texts), idx, threshold=0.5,
                                 broadcast_cap=0).to_pandas()
            .sort_values(["doc_id", "snap_id"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(outj, out.sort_values(
        ["doc_id", "snap_id"]).reset_index(drop=True))
    # snap_prefilter_cap=0 disables the snapshot-side band-key prefilter
    # (full co-group, the past-cap path) — identical result, so the
    # prefilter is provably lossless on this fixture
    outf = (new_vs_snapshot_near(ds(new_texts), idx, threshold=0.5,
                                 snap_prefilter_cap=0).to_pandas()
            .sort_values(["doc_id", "snap_id"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(outf, out.sort_values(
        ["doc_id", "snap_id"]).reset_index(drop=True))

    # accepted crawl folds INTO the index (append-only files); a later
    # crawl that recrawls an appended doc now matches it too
    from search_engine_ray.pipelines.training_data import (
        append_to_snapshot_band_index)

    append_to_snapshot_band_index(ds(new_texts), idx)
    out3 = new_vs_snapshot_near(
        ds({401: new_texts[205]}), idx, threshold=0.5).to_pandas()
    pairs3 = set(zip(out3["doc_id"].tolist(), out3["snap_id"].tolist()))
    assert (401, 205) in pairs3  # appended doc is now a snapshot witness
    assert all(d == 401 for d, _ in pairs3)


def test_train_quality_classifier(ray_session):
    """Distributed logistic-GD: partition-invariant (gradient is a sum),
    and the learned weights actually separate the gopher_pass label
    better than the zero model (training loss decreases)."""
    import ray.data

    from search_engine_ray.functions.quality import (
        batch_gopher_pass, batch_gopher_stats)
    from search_engine_ray.pipelines.training_data import (
        train_quality_classifier)

    good = ("the quick brown fox jumps over the lazy dog and that have "
            "with be to of many plain words " * 5)
    bad = "### ### ### ... ... #!# " * 10
    rows = [{"doc_id": i, "text": good if i % 2 else bad} for i in range(60)]
    w1 = train_quality_classifier(
        ray.data.from_items(rows, override_num_blocks=1), iters=3)
    w7 = train_quality_classifier(
        ray.data.from_items(rows, override_num_blocks=7), iters=3)
    pd.testing.assert_frame_equal(w1, w7)  # partition-invariant to round(6)

    # loss(w_trained) < loss(0) on the training set
    import pyarrow as pa

    texts = pa.array([r["text"] for r in rows])
    s = batch_gopher_stats(texts)
    y = np.asarray(batch_gopher_pass(s), np.float64)
    X = np.column_stack([
        np.ones(len(y)), np.asarray(s["n_words"], np.float64) / 100,
        np.asarray(s["mean_word_len"], np.float64) / 10,
        s["symbol_ratio"], s["bullet_line_frac"], s["ellipsis_line_frac"],
        s["alpha_word_frac"], np.asarray(s["n_stop_hits"], np.float64) / 10])
    w = w1.set_index("feature").loc[
        ["bias", "n_words_s", "mean_word_len_s", "symbol_ratio",
         "bullet_line_frac", "ellipsis_line_frac", "alpha_word_frac",
         "n_stop_hits_s"], "weight_r"].to_numpy()
    p = 1 / (1 + np.exp(-(X @ w)))
    loss = -(y * np.log(p + 1e-12) + (1 - y) * np.log(1 - p + 1e-12)).mean()
    assert loss < np.log(2)  # zero-weight model has loss ln(2)
    # stopword hits separate good from bad here -> positive weight
    assert w1.set_index("feature").loc["n_stop_hits_s", "weight_r"] > 0


def test_bitext_mine_planted_pairs(ray_session):
    """Planted translations (same direction + small noise across langs)
    mine as (src, tgt) pairs with high margin; unrelated src docs don't
    clear the threshold at top margin gap. Partition-invariant."""
    import ray.data

    from search_engine_ray.pipelines.training_data import bitext_mine

    rng = np.random.default_rng(11)
    dim = 12
    n_en = 30
    en = rng.standard_normal((n_en, dim))
    # de docs 100..104 translate en docs 0..4; de 105 is unrelated
    de = np.vstack([en[:5] + rng.standard_normal((5, dim)) * 0.05,
                    rng.standard_normal((1, dim))])
    emb_rows = ([{"vec_id": i, "embedding": list(map(float, en[i]))}
                 for i in range(n_en)]
                + [{"vec_id": 100 + j, "embedding": list(map(float, de[j]))}
                   for j in range(6)])
    lang_rows = ([{"doc_id": i, "lang": "en"} for i in range(n_en)]
                 + [{"doc_id": 100 + j, "lang": "de"} for j in range(6)])
    emb = ray.data.from_items(emb_rows, override_num_blocks=4)
    langs = ray.data.from_items(lang_rows, override_num_blocks=3)
    out = (bitext_mine(emb, langs, "de", "en", margin_k=4, threshold=1.0)
           .to_pandas().sort_values("src_id").reset_index(drop=True))
    got = dict(zip(out["src_id"], out["tgt_id"]))
    for j in range(5):
        assert got[100 + j] == j  # planted translation wins the argmax
    assert (out["margin_r"] >= 1.0).all()
    out2 = (bitext_mine(emb.repartition(9), langs.repartition(2), "de", "en",
                        margin_k=4, threshold=1.0)
            .to_pandas().sort_values("src_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(out, out2)
    # cap between n_tgt (30) and n_langs (36): lang attach takes the
    # hash-JOIN path while the tgt broadcast guard still passes — identical
    out3 = (bitext_mine(emb, langs, "de", "en", margin_k=4, threshold=1.0,
                        broadcast_cap=32)
            .to_pandas().sort_values("src_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(out, out3)
    # cap BELOW n_tgt (30): the hash-SHARDED past-cap path (S=ceil(30/10)=3
    # tgt broadcasts) mines the same pairs as the broadcast path — the
    # VERDICT-r4 ValueError seam is now a running path
    out4 = (bitext_mine(emb, langs, "de", "en", margin_k=4, threshold=1.0,
                        broadcast_cap=10)
            .to_pandas().sort_values("src_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(out, out4)
    # sharded path is partition-invariant too
    out5 = (bitext_mine(emb.repartition(9), langs.repartition(2), "de", "en",
                        margin_k=4, threshold=1.0, broadcast_cap=7)
            .to_pandas().sort_values("src_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(out, out5)
    # broadcast_cap=1 → S=30 hash shards over 30 tgt docs: most shards
    # hold one doc, several are EMPTY (skipped) — still identical
    out6 = (bitext_mine(emb, langs, "de", "en", margin_k=4, threshold=1.0,
                        broadcast_cap=1)
            .to_pandas().sort_values("src_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(out, out6)


def test_bitext_mine_denominator_guard(ray_session):
    """An embedding set whose top-k neighborhood averages are all negative
    (opposed normalized vectors) makes (avgx+avgy)/2 <= 0 — the miner
    raises loudly instead of emitting inf/sign-flipped margins (ADVICE r4)."""
    import ray.data

    from search_engine_ray.pipelines.training_data import bitext_mine

    # one src vector exactly opposed to every tgt vector: all cosines −1,
    # so avgx = avgy = −1 and every pair denominator is −1 < 0
    v = [1.0, 0.0, 0.0]
    emb_rows = ([{"vec_id": i, "embedding": v} for i in range(3)]
                + [{"vec_id": 100, "embedding": [-1.0, 0.0, 0.0]}])
    lang_rows = ([{"doc_id": i, "lang": "en"} for i in range(3)]
                 + [{"doc_id": 100, "lang": "de"}])
    emb = ray.data.from_items(emb_rows)
    langs = ray.data.from_items(lang_rows)
    with pytest.raises((ValueError, Exception)) as ei:
        bitext_mine(emb, langs, "de", "en", margin_k=2, threshold=-10.0).to_pandas()
    assert "degenerate margin denominator" in str(ei.value)


def test_bitext_mine_sharded_staging_removed_on_failure(ray_session, tmp_path,
                                                        monkeypatch):
    """broadcast_cap=1 → 30 hash shards, staged as a partitioned parquet
    copy of the tgt side under the temp dir; a shard read that raises must
    not leave that staging dir behind."""
    import tempfile
    from unittest import mock

    import ray.data

    from search_engine_ray.pipelines.training_data import bitext_mine

    rng = np.random.default_rng(3)
    emb_rows = ([{"vec_id": i, "embedding": list(map(float, rng.standard_normal(4)))}
                 for i in range(30)]
                + [{"vec_id": 100 + j, "embedding": list(map(float, rng.standard_normal(4)))}
                   for j in range(3)])
    lang_rows = ([{"doc_id": i, "lang": "en"} for i in range(30)]
                 + [{"doc_id": 100 + j, "lang": "de"} for j in range(3)])
    emb = ray.data.from_items(emb_rows)
    langs = ray.data.from_items(lang_rows)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    read = mock.Mock(side_effect=OSError("shard read failed"))
    with mock.patch.object(ray.data, "read_parquet", read), \
            pytest.raises(OSError, match="shard read failed"):
        bitext_mine(emb, langs, "de", "en", margin_k=4, threshold=1.0,
                    broadcast_cap=1).to_pandas()
    assert "tshard=" in str(read.call_args[0][0])  # the staged copy was read
    assert not list(tmp_path.glob("bitext_tgt_shards_*"))


def test_docid_gap_report_matches_scalar_spec(ray_session):
    """Both orderings' totals equal a pandas/numpy twin; a corpus whose
    term locality follows the cluster column compresses strictly better
    under the clustered ranks."""
    import ray.data

    from search_engine_ray.pipelines.training_data import (
        _vb_gap_bytes, docid_gap_report)

    rng = np.random.default_rng(5)
    rows = []
    # interleave two sources with disjoint sparse vocabularies: natural
    # ids scatter a term's postings across the whole range (gaps past the
    # 128 VB boundary), clustered ranks pack each source contiguously
    for i in range(600):
        src = "a" if i % 2 else "b"
        words = [f"{src}w{int(w)}" for w in rng.integers(0, 300, 6)]
        rows.append({"doc_id": i, "text": " ".join(words), "source": src})
    out = (docid_gap_report(ray.data.from_items(rows, override_num_blocks=4))
           .to_pandas().set_index("ordering"))

    # scalar twin
    import collections
    post = collections.defaultdict(set)
    for r in rows:
        for w in set(r["text"].lower().split()):
            post[w].add(r["doc_id"])
    rank = {r["doc_id"]: j for j, r in enumerate(
        sorted(rows, key=lambda r: (r["source"], r["doc_id"])))}
    want_doc = sum(_vb_gap_bytes(np.sort(np.array(list(ids))))
                   for ids in post.values())
    want_cl = sum(_vb_gap_bytes(np.sort(np.array([rank[i] for i in ids])))
                  for ids in post.values())
    assert int(out.loc["doc_id", "total_gap_bytes"]) == want_doc
    assert int(out.loc["clustered", "total_gap_bytes"]) == want_cl
    assert want_cl < want_doc  # clustering genuinely compresses here


def test_vb_gap_bytes_matches_real_codec():
    """docid_gap_report's byte model must equal the engine's actual VB
    encoder length for every gap magnitude class."""
    from search_engine_ray.functions.vb import vb_encode
    from search_engine_ray.pipelines.training_data import _vb_gap_bytes

    rng = np.random.default_rng(2)
    edges = [1, 127, 128, 16383, 16384, 2097151, 2097152,
             268435455, 268435456, 5_000_000_000]
    gaps = np.array(edges + list(rng.integers(1, 1 << 34, 200)), np.int64)
    ids = np.cumsum(gaps) - 1  # first gap = id+1 convention
    want = sum(len(vb_encode(int(g))) for g in gaps)
    assert _vb_gap_bytes(ids) == want


def test_bitext_matmul_chunking_invariant(ray_session, monkeypatch):
    """Force the margin kernels through many tiny row-chunks (the 256 MB
    budget never splits toy batches otherwise): the running top-k
    accumulator and chunk-wise scoring must reproduce the single-chunk
    output exactly, on BOTH the broadcast and sharded paths."""
    import ray.data

    import search_engine_ray.pipelines.training_data as td

    rng = np.random.default_rng(23)
    dim = 8
    emb_rows = ([{"vec_id": i, "embedding": list(map(float, rng.standard_normal(dim)))}
                 for i in range(25)]
                + [{"vec_id": 100 + j, "embedding": list(map(float, rng.standard_normal(dim)))}
                   for j in range(7)])
    lang_rows = ([{"doc_id": i, "lang": "en"} for i in range(25)]
                 + [{"doc_id": 100 + j, "lang": "de"} for j in range(7)])
    emb = ray.data.from_items(emb_rows)
    langs = ray.data.from_items(lang_rows)

    def run(cap):
        return (td.bitext_mine(emb, langs, "de", "en", margin_k=3,
                               threshold=-100.0, broadcast_cap=cap)
                .to_pandas().sort_values("src_id").reset_index(drop=True))

    base_b, base_s = run(1000), run(10)
    monkeypatch.setattr(td, "_matmul_batch_rows", lambda n, budget_bytes=0: 2)
    chunked_b, chunked_s = run(1000), run(10)
    pd.testing.assert_frame_equal(base_b, chunked_b)
    pd.testing.assert_frame_equal(base_s, chunked_s)
    pd.testing.assert_frame_equal(base_b, base_s)


def test_sorted_lookup_matches_isin_spec():
    """_sorted_lookup (the shared broadcast-join kernel) ≡ np.isin +
    positional gather, including empty/miss/duplicate-key edges."""
    from search_engine_ray.pipelines.training_data import _sorted_lookup

    rng = np.random.default_rng(5)
    for trial in range(20):
        keys = rng.integers(-50, 50, rng.integers(0, 30))
        table_keys = np.unique(rng.integers(-50, 50, rng.integers(0, 40)))
        vals = table_keys.astype(np.float64) * 2.5
        hit, got = _sorted_lookup(keys.astype(np.int64), table_keys.astype(np.int64), vals)
        want_hit = np.isin(keys, table_keys)
        assert (hit == want_hit).all(), trial
        if len(keys) and len(table_keys):
            idx = np.searchsorted(table_keys, keys[want_hit])
            assert np.array_equal(got[want_hit], vals[idx]), trial
    # empty table: all miss, values array well-formed
    hit, got = _sorted_lookup(np.array([1, 2], np.int64),
                              np.array([], np.int64), np.array([], np.float64))
    assert not hit.any() and len(got) == 2
