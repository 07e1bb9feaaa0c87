"""Skew salting + resumable partitioned pipeline tests."""

from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

REPO = Path(__file__).resolve().parents[1]


def skewed_ds():
    # key "hot" has 1000 rows, 10 cold keys have 10 each
    keys = ["hot"] * 1000 + [f"k{i}" for i in range(10) for _ in range(10)]
    vals = np.arange(len(keys), dtype=np.float64)
    return rd.from_arrow(pa.table({"key": keys, "v": vals})), keys, vals


class TestSalting:
    def test_detect_hot(self):
        from raster_functions_ray.stages.salt import detect_hot_keys
        ds, _, _ = skewed_ds()
        assert detect_hot_keys(ds, "key") == {"hot"}

    def test_salted_sum_equals_plain(self):
        from raster_functions_ray.stages.salt import salted_aggregate
        ds, keys, vals = skewed_ds()
        out = salted_aggregate(ds, "key", "v", "sum").set_index("key")["sum_v"]
        exp = pd.DataFrame({"key": keys, "v": vals}).groupby("key")["v"].sum()
        pd.testing.assert_series_equal(out.sort_index(), exp.sort_index(),
                                       check_names=False)

    def test_salted_count_min_max(self):
        from raster_functions_ray.stages.salt import salted_aggregate
        ds, keys, vals = skewed_ds()
        df = pd.DataFrame({"key": keys, "v": vals})
        n = salted_aggregate(ds, "key", "v", "count").set_index("key")["n"]
        assert n["hot"] == 1000 and n["k3"] == 10
        mn = salted_aggregate(ds, "key", "v", "min").set_index("key")["min_v"]
        assert mn["hot"] == df[df.key == "hot"]["v"].min()

    def test_holistic_rejected(self):
        from raster_functions_ray.stages.salt import salted_aggregate
        ds, _, _ = skewed_ds()
        with pytest.raises(ValueError):
            salted_aggregate(ds, "key", "v", "median")

    def test_salt_splits_hot_group(self):
        from raster_functions_ray.stages.salt import add_salt, detect_hot_keys
        ds, _, _ = skewed_ds()
        hot = detect_hot_keys(ds, "key")
        salted = add_salt(ds, "key", hot, k=8).to_pandas()
        assert salted.loc[salted.key == "hot", "_salt"].nunique() > 1
        assert (salted.loc[salted.key != "hot", "_salt"] == 0).all()


class TestPartitionedResume:
    def test_resume_skips_finished(self, tmp_path, synth_sf001):
        from raster_functions_ray.pipelines import partitioned
        from raster_functions_ray.state.checkpoint import (CheckpointStore,
                                                           run_partitioned)
        store = CheckpointStore(str(tmp_path / "ck"))

        def scene(key):
            return partitioned.hillshade_scene(synth_sf001, int(key.split("=")[1]))

        keys1, keys2 = ["scene=0"], ["scene=0", "scene=9"]
        w1 = run_partitioned(scene, keys1, "hillshade", store)
        assert w1 == ["scene=0"] and [k for k in keys1 if k not in w1] == []
        w2 = run_partitioned(scene, keys2, "hillshade", store)
        assert [k for k in keys2 if k not in w2] == ["scene=0"] and w2 == ["scene=9"]
        # outputs readable and row counts recorded
        t = store.read_partition("hillshade", "scene=0")
        assert t.num_rows == 16  # 4×4 tiles per scene at sf0.001
        ln = store.lineage()
        assert set(ln["partition_key"]) == {"scene=0", "scene=9"}
        assert (ln["rows"] == 16).all()


class TestCrashResume:
    def test_resume_after_mid_run_failure_equals_single_run(self, tmp_path):
        """SURVEY §5.5: resume-after-kill equals single-run output. A factory
        that dies mid-job leaves completed partitions in the store; the rerun
        completes only the missing ones and the combined output matches an
        uninterrupted run exactly."""
        import pyarrow as pa
        from raster_functions_ray.state.checkpoint import CheckpointStore, run_partitioned

        def factory(key):
            return pa.table({"k": [key] * 3, "v": list(range(3))})

        keys = [f"p{i}" for i in range(6)]

        # uninterrupted reference run
        ref_store = CheckpointStore(str(tmp_path / "ref"))
        run_partitioned(factory, keys, "job", ref_store)

        # crashing run: dies after 3 partitions
        crash_store = CheckpointStore(str(tmp_path / "crash"))
        calls = {"n": 0}

        def crashing(key):
            if calls["n"] == 3:
                raise RuntimeError("simulated worker death")
            calls["n"] += 1
            return factory(key)

        with pytest.raises(RuntimeError):
            run_partitioned(crashing, keys, "job", crash_store)
        assert len(crash_store.finished_keys("job")) == 3

        # resume with the healthy factory
        resumed = run_partitioned(factory, keys, "job", crash_store)
        assert len(resumed) == 3  # only the missing partitions

        for key in keys:
            a = ref_store.read_partition("job", key)
            b = crash_store.read_partition("job", key)
            assert a.equals(b)


class TestEmbeddingNNDedup:
    def test_argmax_tie_break_is_min_vec_id(self):
        """The batch argmax must pick the SMALLEST vec_id among cosine ties
        (matching the oracle's ROW_NUMBER order): np.argmax returns the
        first maximal column and cids are ascending — pin that contract."""
        import numpy as np
        sims = np.array([[0.5, 0.9, 0.9, 0.1]])
        cids = np.array([10, 20, 30, 40])
        assert cids[sims.argmax(axis=1)[0]] == 20  # first of the tied pair

    def test_query_excludes_self(self, synth_sf001):
        from raster_functions_ray.dedup import q_embedding_nn_dedup
        out = q_embedding_nn_dedup("/root/testdata/sf0.001")
        assert (out["vec_id"] != out["nn_vec_id"]).all()
        assert len(out) > 0


class TestChainGroupKeyValidation:
    def test_unsupported_group_key_raises(self):
        import pytest as _pt
        from raster_functions_ray.pipelines.chain import Op, build_chain
        with _pt.raises(ValueError, match="unsupported group_key"):
            build_chain(None, [Op("bad", lambda *a: a, group_key=("scene_id",))])


class TestOraclePairsAtSf0001:
    """Re-run two headline exact-oracle pairs at a DIFFERENT scale factor
    (sf0.001) than the driver's gate (sf0.01) — guards against constants
    accidentally tuned to one sf."""

    def test_training_pipeline_matches_oracle(self, synth_sf001):
        import duckdb
        from raster_functions_ray import textops
        sf = "/root/testdata/sf0.001"
        mine = textops.q_training_data_pipeline(sf)
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{sf}/documents.parquet')")
        oracle = con.execute(textops.Q_TRAINING_DATA_PIPELINE_SQL).df()
        a = mine.sort_values(["pred_lang", "kept"]).reset_index(drop=True)
        b = oracle.sort_values(["pred_lang", "kept"]).reset_index(drop=True)
        assert a["pred_lang"].tolist() == b["pred_lang"].tolist()
        assert a["n_docs"].tolist() == b["n_docs"].tolist()
        assert a["avg_stop_ratio"].tolist() == b["avg_stop_ratio"].tolist()

    def test_resumable_training_equals_one_shot(self, synth_sf001):
        # checkpointed per-source scoring, simulated mid-job failure,
        # resumed — must be bit-identical to the one-shot pipeline (the
        # skip-exactly-the-finished-half assertion lives inside the query)
        import pandas as pd
        from raster_functions_ray import textops
        sf = "/root/testdata/sf0.001"
        one = textops.q_training_data_pipeline(sf)
        res = textops.q_resumable_training_exact(sf)
        pd.testing.assert_frame_equal(one, res, check_dtype=False)

    def test_doc_zone_join_matches_oracle(self, synth_sf001):
        import duckdb
        from raster_functions_ray import rasterqueries as rq, spatial
        sf = "/root/testdata/sf0.001"
        mine = rq.q_doc_zone_join(sf)
        oracle = duckdb.connect().execute(
            spatial.doc_zone_join_oracle_sql(0.001)).df()
        a = mine.sort_values(["doc_id", "zone_id"]).reset_index(drop=True)
        b = oracle.sort_values(["doc_id", "zone_id"]).reset_index(drop=True)
        assert len(a) == len(b) > 0
        assert a["doc_id"].tolist() == b["doc_id"].tolist()
        assert a["zone_id"].tolist() == b["zone_id"].tolist()

    def test_doc_zone_join_rect_matches_oracle(self, synth_sf001):
        import duckdb
        from raster_functions_ray import spatial
        mine = spatial.q_doc_zone_join_rect("/root/testdata/sf0.001")
        oracle = duckdb.connect().execute(
            spatial.doc_zone_join_rect_oracle_sql(0.001)).df()
        assert len(mine) == len(oracle) > 0
        assert mine["doc_id"].tolist() == oracle["doc_id"].tolist()
        assert mine["zone_id"].tolist() == oracle["zone_id"].tolist()

    def test_doc_zone_join_empty_sides(self, synth_sf001):
        # a batch with no POINT span, and a zone table with no zones, give
        # an empty (doc_id: string, zone_id: int32) table rather than raise
        import pyarrow as pa
        from raster_functions_ray import spatial
        from raster_functions_ray.sources import read_documents, read_zones
        zones = read_zones(synth_sf001).to_pandas()
        schema = pa.schema([("doc_id", pa.string()), ("zone_id", pa.int32())])
        polys = pa.table({"doc_id": ["d1", "d2"],
                          "text": ["POLYGON ((0 0, 1 0, 1 1, 0 0))", "lorem"]})
        pts = pa.table({"doc_id": ["d1"], "text": ["POINT (10 10)"]})
        for batch, zs in ((polys, zones), (pts, zones.iloc[:0])):
            out = spatial.points_in_zones_batch(batch, spatial.zone_index(zs))
            assert out.num_rows == 0 and out.schema == schema
        ds = spatial.doc_points_in_zones(read_documents(synth_sf001),
                                         zones.iloc[:0])
        assert ds.count() == 0


class TestNgramJaccard:
    def test_shingle_rows_respect_doc_boundaries(self):
        import pyarrow as pa

        from raster_functions_ray import dedup

        b = pa.table({"doc_id": [1, 2], "text": ["a b c d", "x y z"]})
        out = dedup._word_shingle_rows(b).to_pandas()
        # doc 1: "a b c","b c d"; doc 2: "x y z" — no window spans docs
        assert list(out.groupby("doc_id")["s"].count()) == [2, 1]
        assert list(out.groupby("doc_id")["n"].first()) == [2, 1]

    def test_matches_bruteforce_at_sf0001(self):
        from raster_functions_ray import dedup

        out = dedup.q_ngram_jaccard("/root/testdata/sf0.001")
        import pyarrow.parquet as pq

        t = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                          columns=["doc_id", "text"])
        sets = {d: dedup.word_shingles(s) for d, s in
                zip(t["doc_id"].to_pylist(), t["text"].to_pylist())}
        ids = sorted(sets)
        expect = []
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                inter = len(sets[a] & sets[b])
                union = len(sets[a]) + len(sets[b]) - inter
                if union and inter / union >= dedup.JACCARD_TAU:
                    expect.append((a, b, round(inter / union, 6)))
        got = list(out.itertuples(index=False, name=None))
        assert got == expect


class TestHotDuplicateBucket:
    """A viral duplicate (1,000 copies of one page) must stream through the
    near-dup pipelines without a driver-side O(n²) pair blow-up: the LSH
    bucket star-caps to n−1 pairs (dedup.PAIR_CAP) and the verify runs as
    distributed joins, so the hot cluster resolves linearly."""

    def test_minhash_star_caps_hot_bucket(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from raster_functions_ray import dedup

        hot = "the viral page everyone mirrors " * 6
        uniq = [f"unique document number {i} with its own words {i * 7}" for i in range(20)]
        texts = [hot] * 1000 + uniq
        ids = list(range(1, len(texts) + 1))
        t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "text": pa.array(texts, pa.string()),
                      "lang": pa.array(["en"] * len(ids)),
                      "source": pa.array(["t"] * len(ids)),
                      "n_chars": pa.array([len(x) for x in texts], pa.int64())})
        pq.write_table(t, tmp_path / "documents.parquet")

        out = dedup.q_minhash_dedup(str(tmp_path))
        # star pairing: every copy links to the min doc_id, all verified 1.0
        hot_rows = out[out["doc_a"] == 1]
        assert len(hot_rows) == 999
        assert (hot_rows["doc_b"].to_numpy() == np.arange(2, 1001)).all()
        assert (hot_rows["jaccard"] == 1.0).all()
        # pair count stays LINEAR in the hot-cluster size, not quadratic
        assert len(out) < 1100

    def test_bucket_pairs_all_pairs_under_cap(self):
        from raster_functions_ray import dedup

        g = pa.table({"k": [7, 7, 7, 7], "doc_id": [3, 1, 2, 2]})
        out = dedup._bucket_pairs(g, "k", dedup.PAIR_CAP).to_pandas()
        assert sorted(map(tuple, out.to_numpy())) == [(1, 2), (1, 3), (2, 3)]

    def test_verify_lowerings_interchangeable(self, monkeypatch):
        """The broadcast and hash-join text-attach lowerings of the
        distributed pair verify must be result-identical."""
        from raster_functions_ray import dedup
        from raster_functions_ray.stages import join

        sf = "/root/testdata/sf0.001"
        cand = dedup.minhash_candidates(sf)
        a = dedup._verify_pairs_distributed(cand, sf, kind="char3", threshold=0.7)
        monkeypatch.setattr(join, "DRIVER_MAX_BYTES", 0)
        b = dedup._verify_pairs_distributed(cand, sf, kind="char3", threshold=0.7)
        assert a.equals(b)

    def test_pair_formation_lowerings_interchangeable(self, monkeypatch):
        """The size-dispatched driver-vectorized pair formation and the
        distributed hash-groupby pair formation must be pair-set
        identical — for both the star-capped production path and the
        uncapped SQL-exact path (n_bands counts included)."""
        import pandas as pd

        from raster_functions_ray import dedup
        from raster_functions_ray.stages import join

        sf = "/root/testdata/sf0.001"
        drv = dedup.minhash_candidates(sf).to_pandas() \
            .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
        drv_lsh = dedup.q_minhash_lsh_exact(sf)
        monkeypatch.setattr(join, "DRIVER_MAX_BYTES", 0)
        dist = dedup.minhash_candidates(sf).to_pandas() \
            .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
        dist_lsh = dedup.q_minhash_lsh_exact(sf)
        assert len(drv) > 0
        pd.testing.assert_frame_equal(drv, dist[drv.columns.tolist()],
                                      check_dtype=False)
        pd.testing.assert_frame_equal(drv_lsh, dist_lsh, check_dtype=False)


class TestSqlExactLshIvf:
    """Round-3 gates: the full MinHash-LSH mechanism and the quantized
    IVF mechanism pinned bit-for-bit against their DuckDB oracles."""

    def test_minhash_lsh_exact_matches_oracle(self):
        import duckdb
        from raster_functions_ray import dedup
        sf = "/root/testdata/sf0.001"
        mine = dedup.q_minhash_lsh_exact(sf)
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{sf}/documents.parquet')")
        oracle = con.execute(dedup.Q_MINHASH_LSH_SQL).df()
        a = mine.reset_index(drop=True).astype("int64")
        b = oracle.reset_index(drop=True).astype("int64")
        assert a.equals(b)
        # bands agree per pair, and exact duplicates collide on all bands
        dups = con.execute(
            "SELECT MIN(doc_id) a, MAX(doc_id) b FROM documents "
            "GROUP BY text HAVING COUNT(*) > 1 AND len(string_split(text,' ')) >= 3"
        ).df()
        if len(dups):
            pair = a.set_index(["doc_a", "doc_b"])["n_bands"]
            for _, r in dups.iterrows():
                assert pair.get((r["a"], r["b"]), 0) == dedup.MHX_PERM // dedup.MHX_R

    def test_ivfpq_matches_oracle_and_subsets_pq(self):
        import duckdb
        from raster_functions_ray import ann
        sf = "/root/testdata/sf0.001"
        mine = ann.q_ivfpq_search(sf)
        con = duckdb.connect()
        con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                    f"read_parquet('{sf}/embeddings.parquet')")
        oracle = con.execute(ann.Q_IVFPQ_SQL).df()
        pd.testing.assert_frame_equal(mine, oracle, check_dtype=False)
        assert len(mine) > 0
        # every IVF-PQ hit carries the SAME ADC distance the full PQ scan
        # assigns that (q, vec) pair — probing changes the candidate set,
        # never the scoring
        full = ann.q_pq_adc_topk(sf)
        merged = mine.merge(full, on=["q_id", "vec_id"],
                            suffixes=("_ivf", "_full"))
        assert (merged["adc_d2_ivf"] == merged["adc_d2_full"]).all()

    def test_ivf_sq_matches_oracle(self):
        import duckdb
        from raster_functions_ray import ann
        sf = "/root/testdata/sf0.001"
        mine = ann.q_ivf_sq_search(sf)
        con = duckdb.connect()
        con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                    f"read_parquet('{sf}/embeddings.parquet')")
        oracle = con.execute(ann.ivf_sq_oracle_sql()).df()
        a = mine.reset_index(drop=True).astype("int64")
        b = oracle.reset_index(drop=True).astype("int64")
        assert a.equals(b)
        assert len(a) > 0

    def test_ivf_sq_probes_prune_reads(self, tmp_path):
        # non-probed inverted lists must never be opened: the probe path
        # list is built from partition directories only
        from raster_functions_ray import ann
        cent = ann._sq_centroids()
        assert cent.shape == (ann.SQ_K, 64)
        assert ann.SQ_PROBE < ann.SQ_K


class TestCounterRandomSource:
    """The counter-based Random source must be partitioning-independent:
    identical pixels no matter how Ray splits the range into blocks —
    the property that lets a 100 TB synthetic source re-run any subset
    of its partitions (resume, retry) without changing output."""

    def test_partition_independent_and_sql_exact(self):
        import duckdb
        import numpy as np
        import ray.data as rdm

        from raster_functions_ray import rasterqueries as rq

        base = rq.q_random_source_exact("/root/testdata/sf0.001")
        # re-run with a very different block split
        ids = np.arange(rq._RND_TILES, dtype=np.int64)
        v = rq._rnd_counter_values(ids)
        assert np.array_equal(base["sum_val"].to_numpy(), v.sum(axis=1))

        alt = (
            rdm.range(rq._RND_TILES, override_num_blocks=32)
            .map_batches(
                lambda b: {
                    "tile_idx": np.asarray(b["id"], dtype=np.int64),
                    "sum_val": rq._rnd_counter_values(
                        np.asarray(b["id"], dtype=np.int64)).sum(axis=1),
                },
                batch_format="pyarrow", batch_size=2)
            .to_pandas().sort_values("tile_idx").reset_index(drop=True)
        )
        assert np.array_equal(alt["sum_val"].to_numpy(),
                              base["sum_val"].to_numpy())

        ora = duckdb.sql(rq.RANDOM_SOURCE_EXACT_SQL).df()
        for c in ("tile_idx", "sum_val", "min_val", "max_val", "mean_val"):
            assert np.array_equal(base[c].to_numpy(), ora[c].to_numpy()), c


class TestKmeansEmbed:
    """Distributed Lloyd's k-means: the Dataset-pass implementation must
    match a single-process NumPy reference run exactly (integer-quantized
    space), and be independent of batch partitioning."""

    def _reference(self, sf_dir):
        import pyarrow.parquet as pq

        from raster_functions_ray import ann

        t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
        ids = np.asarray(t["vec_id"], dtype=np.int64)
        mat = np.asarray(t["embedding"].combine_chunks().flatten(),
                         dtype=np.float64).reshape(len(ids), -1)
        order = np.argsort(ids)
        ids, qv = ids[order], ann._sq_quantize(mat[order])
        cent = qv[:ann.KM_K].copy()
        for _ in range(ann.KM_ITERS):
            a, _ = ann._km_assign(qv, cent)
            new = cent.copy()
            for k in range(ann.KM_K):
                sel = qv[a == k]
                if len(sel):
                    new[k] = np.floor(
                        sel.sum(axis=0).astype(np.float64) / float(len(sel))
                    ).astype(np.int64)
            cent = new
        a, d2 = ann._km_assign(qv, cent)
        rows = []
        for k in range(ann.KM_K):
            sel = a == k
            if sel.any():
                rows.append((k, int(sel.sum()), int(d2[sel].sum()),
                             int(ids[sel].min())))
        return pd.DataFrame(rows, columns=["cluster_id", "size",
                                           "sse", "rep_id"])

    def test_matches_single_process_reference(self):
        from raster_functions_ray import ann

        sf_dir = "/root/testdata/sf0.01"
        eng = ann.q_kmeans_embed(sf_dir)
        ref = self._reference(sf_dir)
        pd.testing.assert_frame_equal(eng.astype("int64"),
                                      ref.astype("int64"))

    def test_semantic_dedup_matches_numpy_invariant(self):
        import pyarrow.parquet as pq

        from raster_functions_ray import ann

        sf_dir = "/root/testdata/sf0.01"
        out = ann.q_semantic_dedup_kmeans(sf_dir)
        assert len(out) == 500
        assert (out[out["kept"] == 0]).shape[0] > 0

        # independent numpy recomputation of the full invariant:
        # dropped(v) ⇔ ∃ u in same cluster, u.vec_id < v.vec_id,
        #              ||qv(u) − qv(v)||² ≤ KM_DEDUP_T
        t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
        ids = np.asarray(t["vec_id"], dtype=np.int64)
        mat = np.asarray(t["embedding"].combine_chunks().flatten(),
                         dtype=np.float64).reshape(len(ids), -1)
        order = np.argsort(ids)
        ids, qv = ids[order], ann._sq_quantize(mat[order])
        cl = (out.sort_values("vec_id")["cluster_id"]
              .to_numpy(np.int64))
        d2 = ((qv ** 2).sum(1)[:, None] - 2 * qv @ qv.T
              + (qv ** 2).sum(1)[None, :])
        same = cl[:, None] == cl[None, :]
        smaller = ids[None, :] < ids[:, None]
        expect_dropped = ((d2 <= ann.KM_DEDUP_T) & same & smaller).any(axis=1)
        got = out.sort_values("vec_id")["kept"].to_numpy(np.int64)
        assert np.array_equal(got, (~expect_dropped).astype(np.int64))
        # the lowest id per cluster is never dropped
        first = out.sort_values("vec_id").groupby("cluster_id").head(1)
        assert (first["kept"] == 1).all()

    def test_semantic_dedup_hot_cluster(self, tmp_path):
        """A viral near-duplicate (1,000 copies of one embedding) lands in
        one cluster; the row-blocked pairwise check must finish with
        bounded memory and keep EXACTLY the smallest-id copy."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from raster_functions_ray import ann

        rng = np.random.default_rng(17)
        base = rng.standard_normal(64).astype(np.float32)
        hot = np.tile(base, (1000, 1))
        hot += rng.uniform(-1e-4, 1e-4, hot.shape).astype(np.float32)
        cold = rng.standard_normal((200, 64)).astype(np.float32) * 5.0
        mat = np.vstack([hot, cold])
        ids = np.arange(len(mat), dtype=np.int64)
        tbl = pa.table({
            "vec_id": pa.array(ids),
            "embedding": pa.array([list(map(float, r)) for r in mat],
                                  pa.list_(pa.float32())),
            "label": pa.array(np.zeros(len(ids), np.int32)),
        })
        d = tmp_path / "hot"
        d.mkdir()
        pq.write_table(tbl, str(d / "embeddings.parquet"))

        out = ann.q_semantic_dedup_kmeans(str(d))
        assert len(out) == 1200
        hot_rows = out[out["vec_id"] < 1000]
        # all 1000 copies share a cluster; only vec_id 0 survives
        assert hot_rows["cluster_id"].nunique() == 1
        assert int(hot_rows["kept"].sum()) == 1
        assert int(hot_rows.loc[hot_rows["kept"] == 1, "vec_id"].iloc[0]) == 0


class TestWorkerCrashRetry:
    def test_task_level_retry_yields_exact_result(self, tmp_path):
        """Streaming fault tolerance BELOW the checkpoint layer: one map
        task hard-kills its worker process mid-pipeline (os._exit — no
        Python cleanup, the real preemption shape); Ray's task retry must
        re-run the lost block elsewhere and the result must be
        bit-identical to an undisturbed run.  The sentinel file is
        created with O_EXCL so exactly ONE task dies regardless of
        scheduling order or retries."""
        import ray.data as rd
        from ray.data.aggregate import Sum

        marker = str(tmp_path / "killed_once")

        def run(kill: bool) -> pd.DataFrame:
            ds = rd.range(20000, override_num_blocks=16)

            def fn(b):
                import os
                v = b["id"]
                if kill:
                    try:
                        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                        os.close(fd)
                        os._exit(1)  # hard worker death, one task only
                    except FileExistsError:
                        pass
                return {"k": v % 7, "v": v * 3 + 1}

            return (ds.map_batches(fn, batch_format="numpy")
                    .groupby("k").aggregate(Sum("v", alias_name="s"))
                    .to_pandas().sort_values("k").reset_index(drop=True))

        clean = run(kill=False)
        survived = run(kill=True)
        import os as _os
        assert _os.path.exists(marker)  # the kill really happened
        pd.testing.assert_frame_equal(clean, survived)


class TestRunJobSurface:
    def test_run_job_streams_parquet_and_reports_metrics(self, tmp_path,
                                                         synth_sf001):
        """The `ray job submit` entry point end to end in a subprocess:
        exit 0, one-line JSON metrics on stdout, partitioned parquet
        output readable and matching the in-process query result."""
        import json
        import os
        import subprocess
        import sys

        import pyarrow.parquet as pq

        out_dir = str(tmp_path / "job_out")
        env = dict(os.environ)
        env.pop("RAY_ADDRESS", None)  # force a fresh local session
        r = subprocess.run(
            [sys.executable, "scripts/run_job.py", "--query", "token_stats",
             "--sf-dir", "/root/testdata/sf0.001", "--output", out_dir],
            capture_output=True, text=True, cwd=REPO, env=env,
            timeout=240)
        assert r.returncode == 0, r.stderr[-2000:]
        metrics = json.loads(r.stdout.strip().splitlines()[-1])
        assert metrics["query"] == "token_stats" and metrics["wall_s"] > 0
        files = [f for f in os.listdir(out_dir) if f.endswith(".parquet")]
        assert files
        written = pq.read_table(out_dir).to_pandas()
        from raster_functions_ray import textops
        expect = textops.q_token_stats("/root/testdata/sf0.001")
        pd.testing.assert_frame_equal(
            written.sort_values(written.columns.tolist()).reset_index(drop=True),
            expect.sort_values(expect.columns.tolist()).reset_index(drop=True),
            check_dtype=False)


class TestSpacetimeTrend:
    def test_mk_bounds_and_hand_check(self, ray_session):
        from raster_functions_ray import spatial

        out = spatial.q_spacetime_trend("/root/testdata/sf0.001")
        B = spatial.ST_BINS
        assert (out["s_stat"].abs() <= B * (B - 1) // 2).all()
        assert (out["n_events"] > 0).all()
        # hand-check one cell against a direct recomputation from parquet
        import numpy as np
        import pyarrow.parquet as pq

        t = pq.read_table("/root/testdata/sf0.001/events.parquet",
                          columns=["event_id", "ts"])
        eid = t["event_id"].to_numpy()
        us = t["ts"].cast("int64").to_numpy()
        cx = ((eid * 7919) % 36000) // (36000 // spatial.ST_CELLS_X)
        cy = ((eid * 104729) % 18000) // (18000 // spatial.ST_CELLS_X)
        cell = cy * spatial.ST_CELLS_X + cx
        d = (us - spatial.ST_T0_US) // spatial.ST_BIN_US
        pick = int(out["cell_id"].iloc[0])
        sel = (cell == pick) & (d >= 0) & (d < B)
        c = np.bincount(d[sel], minlength=B)[:B]
        s = int(np.sign(c[None, :] - c[:, None])[np.triu_indices(B, 1)].sum())
        row = out[out["cell_id"] == pick].iloc[0]
        assert int(row["s_stat"]) == s
        assert int(row["n_events"]) == int(c.sum())


class TestTheilsenSlope:
    def test_hand_check_and_quantization(self, ray_session):
        import numpy as np
        import pyarrow.parquet as pq
        from fractions import Fraction
        from raster_functions_ray import spatial

        out = spatial.q_theilsen_slope("/root/testdata/sf0.001")
        B = spatial.ST_BINS
        t = pq.read_table("/root/testdata/sf0.001/events.parquet",
                          columns=["event_id", "ts"])
        eid = t["event_id"].to_numpy()
        us = t["ts"].cast("int64").to_numpy()
        cx = ((eid * 7919) % 36000) // (36000 // spatial.ST_CELLS_X)
        cy = ((eid * 104729) % 18000) // (18000 // spatial.ST_CELLS_X)
        cell = cy * spatial.ST_CELLS_X + cx
        d = (us - spatial.ST_T0_US) // spatial.ST_BIN_US
        for pick in out["cell_id"].head(3):
            sel = (cell == pick) & (d >= 0) & (d < B)
            c = np.bincount(d[sel], minlength=B)[:B].astype(int)
            # exact-fraction reference: median of true rational slopes,
            # then quantize — must equal quantize-then-median because
            # x → ⌊x·QD⌋ is monotone (ties collapse consistently)
            slopes = sorted(Fraction(int(c[j]) - int(c[i]), j - i)
                            for i in range(B) for j in range(i + 1, B))
            med = slopes[(len(slopes) - 1) // 2]
            qmed = (med.numerator * spatial.TS_QD) // med.denominator
            row = out[out["cell_id"] == pick].iloc[0]
            assert int(row["ts_slope_q"]) == qmed


def test_caches_live_under_the_cache_root(ray_session, monkeypatch, tmp_path):
    """The source-format mirrors and the IVF index are written under
    synth.CACHE_ROOT (set by RFR_SYNTH_CACHE), like the synthetic tables."""
    from raster_functions_ray import ann, synth
    from raster_functions_ray.sources import text_format_cache

    monkeypatch.setattr(synth, "CACHE_ROOT", str(tmp_path))
    sf = "/root/testdata/sf0.001"
    for path in (text_format_cache(sf, "csv"), ann.ivf_build(sf)[1]):
        assert Path(path).exists()
        assert Path(path).resolve().is_relative_to(tmp_path.resolve())
