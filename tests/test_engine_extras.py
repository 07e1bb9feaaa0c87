"""Tests for expression evaluator, chain fusion, classifiers, checkpoint
resume, media stubs, dedup determinism."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from raster_functions_ray.functions.expr import Expression, vector_field


class TestExpression:
    def test_arithmetic_precedence(self):
        e = Expression("1 + 2 * 3 - 4 / 2")
        assert e.evaluate({}) == 5.0

    def test_power_and_unary(self):
        assert Expression("-2 ** 2").evaluate({}) == -4.0
        assert Expression("(3 + 1) ** 0.5").evaluate({}) == 2.0

    def test_functions(self):
        a = np.array([[4.0, 9.0], [16.0, 25.0]])
        out = Expression("SquareRoot(A)").evaluate({"A": a})
        np.testing.assert_allclose(out, np.sqrt(a))
        out = Expression("Square(Abs(0 - A))").evaluate({"A": a})
        np.testing.assert_allclose(out, a * a)

    def test_trig(self):
        out = Expression("Cos(A) * Cos(A) + Sin(A) * Sin(A)").evaluate({"A": np.array([0.3, 1.2])})
        np.testing.assert_allclose(out, 1.0)

    def test_focal_padding_and_shrink(self):
        e = Expression("Focal_Max(A, 3) - Focal_Min(A, 3)")
        assert e.padding_required == 1
        a = np.pad(np.arange(16, dtype=np.float64).reshape(4, 4), 1, mode="edge")
        out = e.evaluate({"A": a})
        assert out.shape == (4, 4)
        assert out[1, 1] == 10.0  # max 10? (3×3 around center) — range of window

    def test_focal_mixed_with_pointwise(self):
        e = Expression("Focal_Max(A, 3) + A")
        a = np.pad(np.ones((4, 4)), 1, mode="edge")
        out = e.evaluate({"A": a})
        assert out.shape == (4, 4)
        np.testing.assert_allclose(out, 2.0)

    def test_tri_expression(self):
        from raster_functions_ray.functions.expr import terrain_ruggedness_expression
        e = terrain_ruggedness_expression()
        assert e.variables == ["DEM"]
        a = np.pad(np.arange(16, dtype=np.float64).reshape(4, 4), 1, mode="edge")
        out = e.evaluate({"DEM": a})
        # sqrt(|max² − min²|) per window
        win_max = 10.0  # at core (1,1): values 0..10
        win_min = 0.0
        assert out[1, 1] == pytest.approx(np.sqrt(abs(win_max**2 - win_min**2)))

    def test_vector_field(self):
        mag, d = vector_field(np.array([3.0]), np.array([4.0]))
        assert mag[0] == 5.0
        assert d[0] == pytest.approx(np.degrees(np.arctan2(3, 4)))

    def test_variables_and_errors(self):
        with pytest.raises(Exception):
            Expression("Foo(A)").evaluate({"A": np.ones(2)})
        with pytest.raises(Exception):
            Expression("A +")


class TestClassifierKernels:
    def test_knn_exact(self):
        from raster_functions_ray.stages.classify import knn_predict
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        pred = knn_predict(X, y, np.array([[0.5], [10.5]]), k=2)
        assert pred.tolist() == [0, 1]

    def test_knn_neighbors_ordered(self):
        from raster_functions_ray.stages.classify import knn_neighbors
        X = np.array([[0.0], [5.0], [2.0]])
        nb = knn_neighbors(X, np.array([[1.9]]), k=3)
        assert nb[0].tolist() == [2, 0, 1]  # by distance: 2.0, 0.0, 5.0

    def test_cart_forest_deterministic(self):
        from raster_functions_ray.stages.classify import _CartForest
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (200, 3))
        y = (X[:, 0] > 0).astype(int)
        m1 = _CartForest(20, random_state=43).fit(X, y)
        m2 = _CartForest(20, random_state=43).fit(X, y)
        t = rng.normal(0, 1, (50, 3))
        np.testing.assert_array_equal(m1.predict_proba(t), m2.predict_proba(t))
        acc = ((m1.predict_proba(t)[:, 1] > 0.5) == (t[:, 0] > 0)).mean()
        assert acc > 0.8


class TestCheckpoint:
    def test_write_resume(self, tmp_path):
        from raster_functions_ray.state.checkpoint import CheckpointStore, run_partitioned
        store = CheckpointStore(str(tmp_path / "ckpt"))
        calls = []

        def factory(key):
            calls.append(key)
            return pa.table({"k": [key], "v": [len(key)]})

        keys = ["a", "b", "c"]
        done = run_partitioned(factory, keys, "s1", store)
        assert done == keys and calls == keys
        # resume: nothing recomputed
        calls.clear()
        done = run_partitioned(factory, keys, "s1", store)
        assert done == [] and calls == []
        # partial failure sim: add a new key → only it runs
        done = run_partitioned(factory, keys + ["d"], "s1", store)
        assert done == ["d"] and calls == ["d"]
        # lineage has rows/bytes metrics
        ln = store.lineage()
        assert set(ln["partition_key"]) == {"a", "b", "c", "d"}
        assert (ln["rows"] == 1).all()
        # read back
        t = store.read_partition("s1", "a")
        assert t.to_pydict() == {"k": ["a"], "v": [1]}

    def test_hot_partitions(self, tmp_path):
        from raster_functions_ray.state.checkpoint import CheckpointStore
        store = CheckpointStore(str(tmp_path / "c2"))
        for i in range(10):
            store.record("s", f"k{i}", "", rows=100, nbytes=1000, wall_sec=0.1)
        store.record("s", "hot", "", rows=10000, nbytes=100000, wall_sec=1.0)
        hot = store.hot_partitions("s")
        assert set(hot["partition_key"]) == {"hot"}


class TestMedia:
    def test_decode_featurize_pipeline(self):
        import ray.data as rd
        from raster_functions_ray.stages import media
        t = media.synth_media(32)
        imgs = rd.from_arrow(t).filter(expr="kind == 'image'")
        # concurrency=1 per stage: the test cluster has 4 CPUs and two actor
        # pools + read tasks must all fit (pool-starves-read pitfall)
        out = media.decode_and_featurize(imgs, target=(16, 16), concurrency=1,
                                         batch_size=8).to_pandas()
        assert len(out) == len([k for k in t["kind"].to_pylist() if k == "image"])
        assert {"media_id", "mean_r", "luma_std", "edge_energy"} <= set(out.columns)
        # deterministic: same payload → same features
        out2 = media.decode_and_featurize(rd.from_arrow(t).filter(expr="kind == 'image'"),
                                          target=(16, 16), concurrency=1,
                                          batch_size=8).to_pandas()
        pd.testing.assert_frame_equal(out.sort_values("media_id").reset_index(drop=True),
                                      out2.sort_values("media_id").reset_index(drop=True))

    def test_resize_and_frames(self):
        from raster_functions_ray.stages.media import resize_nearest, sample_frames
        arr = np.arange(64, dtype=np.uint8).reshape(8, 8, 1).repeat(3, axis=2)
        out = resize_nearest(arr, (4, 4))
        assert out.shape == (4, 4, 3)
        assert sample_frames(10, 3).tolist() == [0, 3, 6, 9]


class TestDedupDeterminism:
    def test_minhash_signature_stable(self):
        from raster_functions_ray.dedup import _perm_params, minhash_signature, shingles
        a, b = _perm_params()
        s1 = minhash_signature(shingles("the quick brown fox jumps"), a, b)
        s2 = minhash_signature(shingles("the quick brown fox jumps"), a, b)
        np.testing.assert_array_equal(s1, s2)
        # similar docs share many minhashes
        s3 = minhash_signature(shingles("the quick brown fox leaps"), a, b)
        assert (s1 == s3).mean() > 0.2

    def test_simhash_near_dup(self):
        from raster_functions_ray.dedup import hamming64, simhash64
        a = simhash64("alpha beta gamma delta epsilon zeta eta theta")
        b = simhash64("alpha beta gamma delta epsilon zeta eta iota")
        c = simhash64("completely different words entirely here now")
        assert hamming64(a, b) < hamming64(a, c)

    def test_jaccard(self):
        from raster_functions_ray.dedup import jaccard
        assert jaccard("a b c d", "a b c d") == 1.0
        assert jaccard("a b c d", "x y z w") == 0.0


class TestIvf:
    def test_recall_vs_exact(self, synth_sf001):
        from raster_functions_ray import ann
        sf = "/root/testdata/sf0.01"
        exact = ann.q_ann_topk(sf)
        approx = ann.q_ivf_search(sf, n_probe=6)
        # recall@5 of IVF with 6/16 probes should be substantial
        hits = 0
        for q in exact["q_id"].unique():
            e = set(exact.loc[exact.q_id == q, "vec_id"])
            a = set(approx.loc[approx.q_id == q, "vec_id"])
            hits += len(e & a)
        recall = hits / len(exact)
        assert recall >= 0.4, recall

    def test_deterministic(self):
        from raster_functions_ray import ann
        import numpy as np
        rng = np.random.default_rng(1)
        sample = rng.random((500, 8))
        c1 = ann._kmeans_centroids(sample, k=4)
        c2 = ann._kmeans_centroids(sample, k=4)
        np.testing.assert_array_equal(c1, c2)


class TestChainProtocol:
    """Op-protocol lowering (SURVEY.md §2.7): one chain mixing pointwise →
    focal(padded) → stateful(actor) → grouped(stack reduce) stages must
    equal the same stages composed by hand."""

    def test_mixed_chain_equals_manual(self, synth_sf001):
        import numpy as np
        from raster_functions_ray.functions import focal as fc
        from raster_functions_ray.pipelines.chain import Op, build_chain
        from raster_functions_ray.sources import read_tiles
        from raster_functions_ray.stages import composite, halo, tile_map

        def extract_scale(p, m, meta):
            return (p[0].astype(np.float64) * 2.0), m

        def focal_mean(p, m, meta):
            d = p if p.ndim == 2 else p[0]
            return fc.rank_filter(d, 3, "mean"), fc.erode_mask_3x3(m)

        def make_state():
            return {"thresh": 1.0, "gain": 0.5}

        def stateful_remap(p, m, meta, state):
            return np.where(p > state["thresh"], p * state["gain"], p), m

        def stack_mean(stack, masks, g):
            return np.asarray(stack, np.float64).mean(axis=0), \
                np.all(masks, axis=0).astype(np.uint8)

        ops = [
            Op("scale", extract_scale, out_pixel_type="f8"),
            Op("focal", focal_mean, padding=1, out_pixel_type="f8"),
            Op("remap", stateful_remap, out_pixel_type="f8",
               state_factory=make_state),
            Op("mean", stack_mean, out_pixel_type="f8", group_key=("tx", "ty")),
        ]
        chained = build_chain(read_tiles(synth_sf001, bands=2), ops)
        got = {r["tile_id"]: r for r in chained.take_all()}

        # manual composition of the identical stages
        ds = read_tiles(synth_sf001, bands=2)
        ds = tile_map.apply_kernel(ds, extract_scale, "f8")
        ds = halo.with_halo(ds, padding=1)
        ds = tile_map.apply_kernel(ds, focal_mean, "f8")
        st = make_state()
        ds = tile_map.apply_kernel(
            ds, lambda p, m, meta: stateful_remap(p, m, meta, st), "f8")
        ds = composite.stack_reduce(ds, stack_mean, "f8")
        exp = {r["tile_id"]: r for r in ds.take_all()}

        assert set(got) == set(exp) and len(got) > 0
        for tid in got:
            assert got[tid]["pixels"] == exp[tid]["pixels"], tid
            assert got[tid]["mask"] == exp[tid]["mask"]
            assert got[tid]["n_scenes"] == exp[tid]["n_scenes"] == 2


class TestSourceFormatDispatch:
    def test_lance_dir_wins_when_reader_available(self, tmp_path, monkeypatch):
        """_read_any prefers <base>.lance via rd.read_lance when the lance
        package is present; parquet otherwise (this container has no lance,
        so the dispatch is driven by monkeypatch)."""
        import ray.data as rd

        from raster_functions_ray import sources

        calls = {}
        (tmp_path / "documents.lance").mkdir()
        monkeypatch.setattr(sources, "_HAVE_LANCE", True)
        monkeypatch.setattr(rd, "read_lance",
                            lambda path, columns=None, **kw: calls.setdefault("path", path),
                            raising=False)
        sources._read_any(str(tmp_path / "documents"), columns=["doc_id"])
        assert calls["path"].endswith("documents.lance")

    def test_parquet_fallback_without_lance(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from raster_functions_ray import sources

        pq.write_table(pa.table({"x": [1, 2]}), tmp_path / "t.parquet")
        ds = sources._read_any(str(tmp_path / "t"))
        assert ds.count() == 2


class TestNestedFocalPadding:
    def test_padding_compounds_and_core_is_exact(self):
        import numpy as np

        from raster_functions_ray.functions.expr import Expression

        e = Expression("Focal_Max(Focal_Max(A,3),3)")
        assert e.padding_required == 2  # 1px per nesting level, summed
        rng = np.random.default_rng(7)
        core = rng.normal(size=(10, 10))
        padded = np.pad(core, 2, mode="edge")
        out = e.evaluate({"A": padded})
        assert out.shape == core.shape
        # oracle: two successive 3x3 max filters on the padded array
        def max3(a):
            return np.max(np.stack([a[i:a.shape[0]-2+i, j:a.shape[1]-2+j]
                                    for i in range(3) for j in range(3)]), axis=0)
        expect = max3(np.pad(max3(padded), 0))[:]  # second pass consumes 2nd px
        np.testing.assert_allclose(out, expect[:], rtol=0, atol=0)


class TestReviewRegressionFixes:
    def test_zonal_remap_one_sided_null_arm(self):
        """NaN-null arms must behave one-sided (NaN `is not None` trap)."""
        import numpy as np

        from raster_functions_ray.functions.remap import zonal_remap

        v = np.array([[100.0, 2000.0], [3000.0, 9000.0]])
        z = np.ones((2, 2), dtype=np.int32)
        out = zonal_remap(v, z, {1: [[1500.0, float("nan"), 7.0]]})
        # zmax is null -> one-sided v > 1500
        assert out.tolist() == [[0, 7], [7, 7]]
        out2 = zonal_remap(v, z, {1: [[float("nan"), 1500.0, 7.0]]})
        assert out2.tolist() == [[7, 0], [0, 0]]

    def test_checkpoint_safe_long_keys_do_not_collide(self):
        from raster_functions_ray.state.checkpoint import _safe

        a = "cells=" + "x" * 100 + "A"
        b = "cells=" + "x" * 100 + "B"
        assert _safe(a) != _safe(b)
        assert len(_safe(a)) <= 80

    def test_classifier_band_alignment(self, synth_sf001):
        """A 1-band DEM tile against the 6-feature stump model must not
        index out of range (features are padded to the model width)."""
        import pandas as pd
        import ray

        from raster_functions_ray import synth
        from raster_functions_ray.sources import read_table_arrow, read_tiles
        from raster_functions_ray.stages.classify import classify_tiles

        d = synth.synth_dir(0.001)
        training = read_table_arrow(d, "training").to_pandas()
        tiles = read_tiles(d, bands=1).limit(4)
        out = classify_tiles(tiles, training, model="rf", batch_size=4,
                             concurrency=1).to_pandas()
        assert len(out) == 4 and set(out["band_count"]) == {3}

    def test_sf_from_dir_strictness(self):
        import pytest

        from raster_functions_ray import synth

        assert synth.sf_from_dir("/root/testdata/sf0.01") == 0.01
        with pytest.raises(ValueError):
            synth.sf_from_dir("/data/no-scale-here")

    def test_salted_aggregates_single_pass_matches_plain(self, synth_sf001):
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from raster_functions_ray.stages.salt import salted_aggregates

        rng = np.random.default_rng(3)
        keys = np.repeat([1, 2, 3], [1000, 50, 50])
        vals = rng.normal(size=keys.size)
        ds = rd.from_arrow(pa.table({"k": keys, "value": vals})).repartition(4)
        out = salted_aggregates(ds, "k", "value", ["sum", "count"], k=4)
        expect = pd.DataFrame({"k": [1, 2, 3]})
        expect["sum_value"] = [vals[keys == i].sum() for i in (1, 2, 3)]
        expect["n"] = [1000, 50, 50]
        out = out.sort_values("k").reset_index(drop=True)
        assert list(out["n"]) == list(expect["n"])
        np.testing.assert_allclose(out["sum_value"], expect["sum_value"], rtol=1e-9)


class TestMovingMax:
    def test_partial_and_full_frames(self):
        import numpy as np
        import pandas as pd
        from raster_functions_ray.relational import MOVWIN, _movmax
        # naive per-row frame max == the PRODUCTION kernel
        rng = np.random.default_rng(7)
        for n in (0, 1, MOVWIN - 1, MOVWIN, 50):
            v = rng.random(n)
            naive = np.array([v[max(0, i - MOVWIN + 1):i + 1].max()
                              for i in range(n)])
            np.testing.assert_array_equal(_movmax(v), naive)


SF001 = "/root/testdata/sf0.001"


class TestInvertedIndex:
    def test_matches_oracle_and_head_semantics(self):
        import duckdb
        import pyarrow.parquet as pq
        from raster_functions_ray import textops

        got = textops.q_inverted_index(SF001)
        con = duckdb.connect()
        con.register("documents", pq.read_table(f"{SF001}/documents.parquet"))
        exp = con.execute(textops.Q_INVERTED_INDEX_SQL).df()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        # head postings are genuinely the K smallest doc_ids per term
        for _, r in got.head(5).iterrows():
            head = [int(x) for x in r["head_postings"].split(",")]
            assert head == sorted(head) and len(head) == min(r["df"], 8)

    def test_head_merge_associative(self):
        # K smallest of per-block K-smallest == global K smallest — the
        # invariant that lets each block pre-reduce before the groupby
        rng = np.random.default_rng(7)
        ids = rng.choice(100000, 500, replace=False)
        blocks = np.array_split(ids, 7)
        merged = np.sort(np.concatenate([np.sort(b)[:8] for b in blocks]))[:8]
        np.testing.assert_array_equal(merged, np.sort(ids)[:8])


class TestEmbeddingDecontam:
    def test_flags_match_hits_and_oracle_margin(self):
        import pyarrow.parquet as pq
        from raster_functions_ray import ann

        got = ann.q_embedding_decontam(SF001)
        assert (got["contaminated"] == (got["n_hits"] > 0).astype(int)).all()
        assert got["contaminated"].sum() > 0  # the gate actually fires
        # fp-margin discipline: no eval×train cosine sits within 2e-5 of
        # the threshold, so numpy-vs-DuckDB summation order cannot flip a row
        t = pq.read_table(f"{SF001}/embeddings.parquet")
        ids = t["vec_id"].to_numpy()
        mat = np.stack(t["embedding"].to_pylist()).astype(np.float64)
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = mat[ids >= ann.N_EVAL] @ mat[ids < ann.N_EVAL].T
        assert np.abs(sims - ann.DECONTAM_TAU).min() > 2e-5


class TestExactNnClustered:
    def test_matches_broadcast_pin_and_dispatch(self, monkeypatch):
        # the k-means ball-pruned lowering must equal the exact broadcast
        # pin row-for-row (same argmax, same min-id tie-break), and the
        # production query must dispatch to it above the corpus limit
        import pandas as pd
        from raster_functions_ray import ann, dedup
        from raster_functions_ray.stages import join

        pin = dedup.q_embedding_nn_dedup(SF001)
        clustered = ann.exact_nn_clustered(SF001)
        pd.testing.assert_frame_equal(pin, clustered[pin.columns.tolist()],
                                      check_dtype=False)
        monkeypatch.setattr(join, "DRIVER_MAX_BYTES", 0)
        via_dispatch = dedup.q_embedding_nn_dedup(SF001)
        pd.testing.assert_frame_equal(pin, via_dispatch, check_dtype=False)

    def test_distributed_merge_path_identical(self, monkeypatch):
        # force the hash-groupby final merge (the >budget scale path)
        from raster_functions_ray import ann
        from raster_functions_ray.stages import join

        a = ann.exact_nn_clustered(SF001)
        monkeypatch.setattr(join, "DRIVER_MAX_BYTES", 0)
        b = ann.exact_nn_clustered(SF001)
        import pandas as pd
        pd.testing.assert_frame_equal(a, b, check_dtype=False)

    def test_pruning_effective_on_clustered_data(self):
        # On CLUSTERED embeddings (what real text/image encoders emit)
        # the ball bound must do real work: most foreign clusters prune.
        # On the near-uniform synthetic corpus it legitimately degrades
        # to all-probe (random high-dim vectors give ~90 deg radii — the
        # curse of dimensionality), which stays EXACT, just not cheaper;
        # that behavior is documented on exact_nn_clustered itself.
        from raster_functions_ray.ann import NN_ANGLE_SLACK

        rng = np.random.default_rng(17)
        K, per, dim = 6, 50, 32
        centers = rng.normal(size=(K, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        pts, lab = [], []
        for k in range(K):
            v = centers[k] + 0.08 * rng.normal(size=(per, dim))
            pts.append(v / np.linalg.norm(v, axis=1, keepdims=True))
            lab.append(np.full(per, k))
        bn, a = np.vstack(pts), np.concatenate(lab)
        ang = np.arccos(np.clip(bn @ centers.T, -1.0, 1.0))
        radii = np.array([ang[a == k, k].max() for k in range(K)])
        sims = bn @ bn.T
        np.fill_diagonal(sims, -np.inf)
        best = np.array([sims[i, a == a[i]].max() for i in range(len(a))])
        bound = np.cos(np.maximum(ang - (radii + NN_ANGLE_SLACK)[None, :], 0.0))
        bound[np.arange(len(a)), a] = -np.inf
        probes = (bound >= (best - 1e-9)[:, None]).sum()
        foreign = len(a) * (K - 1)
        assert probes < 0.2 * foreign, (probes, foreign)

    def test_pruning_bound_is_conservative(self):
        # adversarial micro-world: three tight clusters of unit vectors;
        # for every vector the ball bound must upper-bound the true max
        # similarity achievable in each cluster
        rng = np.random.default_rng(5)
        centers = rng.normal(size=(3, 8))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        pts, lab = [], []
        for k in range(3):
            v = centers[k] + 0.05 * rng.normal(size=(40, 8))
            pts.append(v / np.linalg.norm(v, axis=1, keepdims=True))
            lab.append(np.full(40, k))
        mat, lab = np.vstack(pts), np.concatenate(lab)
        ang_pc = np.arccos(np.clip(mat @ centers.T, -1, 1))
        radii = np.array([ang_pc[lab == k, k].max() for k in range(3)])
        from raster_functions_ray.ann import NN_ANGLE_SLACK
        for k in range(3):
            bound = np.cos(np.maximum(
                ang_pc[:, k] - (radii[k] + NN_ANGLE_SLACK), 0.0))
            true_max = (mat @ mat[lab == k].T).max(axis=1)
            assert (bound >= true_max - 1e-12).all()


class TestRectOverlapJoin:
    def test_matches_oracle_and_report_once(self):
        import duckdb
        import pyarrow.parquet as pq
        from raster_functions_ray import spatial

        got = spatial.q_rect_overlap_join(SF001)
        # report-once rule held: no pair appears twice
        assert not got.duplicated(["a_id", "b_id"]).any()
        con = duckdb.connect()
        con.register("events", pq.read_table(f"{SF001}/events.parquet"))
        exp = con.execute(spatial.Q_RECT_OVERLAP_JOIN_SQL).df()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        assert len(got) > 0 and (got["area"] > 0).all()

    def test_pitch_independent(self, monkeypatch):
        # the report-once rule must make the output invariant to the
        # co-partition pitch (any pitch > the max box extent is legal)
        from raster_functions_ray import spatial

        base = spatial.q_rect_overlap_join(SF001)
        monkeypatch.setattr(spatial, "OVERLAP_CELL", 20.0)
        wide = spatial.q_rect_overlap_join(SF001)
        pd.testing.assert_frame_equal(base, wide)

    def test_hot_cell_split_equals_unsplit(self):
        # every regime: full split (hot_limit=1), mixed, no split — the
        # level-aware report-once owner keeps the row set identical
        from raster_functions_ray import spatial

        base = spatial.q_rect_overlap_join(SF001)
        for hl in (1, 10, 10**9):
            pd.testing.assert_frame_equal(
                base, spatial.q_rect_overlap_join_split(SF001, hot_limit=hl))


class TestIncrementalIndex:
    def test_partials_from_disjoint_slices_merge_to_full(self):
        # the incremental-ingest story: index(old ∪ new) ==
        # merge(partials(old), partials(new)) — no recompute of old slices
        import pyarrow.parquet as pq
        from raster_functions_ray import textops

        t = pq.read_table(f"{SF001}/documents.parquet",
                          columns=["doc_id", "text"])
        half = t.num_rows // 2
        p = pd.concat([textops.index_partial(t.slice(0, half)),
                       textops.index_partial(t.slice(half))])
        merged = (p.groupby("shard", group_keys=False)
                  .apply(textops.index_merge_shard)
                  .sort_values("term").reset_index(drop=True))
        full = textops.q_inverted_index(SF001)
        pd.testing.assert_frame_equal(
            merged[full.columns.tolist()], full, check_dtype=False)


class TestRadiusJoin:
    def test_matches_oracle_and_symmetric_coverage(self):
        import duckdb
        import pyarrow.parquet as pq
        from raster_functions_ray import spatial

        got = spatial.q_radius_join(SF001)
        assert not got.duplicated(["a_id", "b_id"]).any()
        assert len(got) > 0 and (got["d2"] < spatial.RADIUS ** 2).all()
        con = duckdb.connect()
        con.register("events", pq.read_table(f"{SF001}/events.parquet"))
        exp = con.execute(spatial.Q_RADIUS_JOIN_SQL).df()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


class TestKnnJoin:
    def test_matches_oracle_and_brute_force(self):
        import duckdb
        import pyarrow.parquet as pq
        from raster_functions_ray import spatial

        got = spatial.q_knn_join(SF001)
        con = duckdb.connect()
        con.register("events", pq.read_table(f"{SF001}/events.parquet"))
        exp = con.execute(spatial.Q_KNN_JOIN_SQL).df()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        assert len(got) > 0
        assert (got["d2"] < spatial.RADIUS ** 2).all()
        # ranks are 1..k' per point, k' <= K
        per = got.groupby("a_id")["rank"]
        assert (per.max() <= spatial.KNN_JOIN_K).all()
        assert (per.apply(lambda s: list(s) == list(range(1, len(s) + 1)))).all()

    def test_merge_lowerings_identical(self, monkeypatch):
        from raster_functions_ray import spatial
        from raster_functions_ray.stages import join

        base = spatial.q_knn_join(SF001)
        monkeypatch.setattr(join, "DRIVER_MAX_BYTES", 0)
        pd.testing.assert_frame_equal(base, spatial.q_knn_join(SF001))


class TestMedianSelect:
    def test_constraint_chain_exercised_and_exact(self, monkeypatch):
        # force a tiny pull limit so the sf0.001 gate walks >=2 histogram
        # passes (constraint chain depth >= 2), and verify exactness
        import numpy as np
        import pyarrow.parquet as pq
        from raster_functions_ray import relational as rel

        monkeypatch.setattr(rel, "MEDIAN_PULL_LIMIT", 16)
        got = rel.q_median_select(SF001)
        v = np.sort(pq.read_table(f"{SF001}/lineitem.parquet",
                                  columns=["l_extendedprice"])
                    ["l_extendedprice"].to_numpy())
        n = v.size
        assert got["median_price"].iloc[0] == v[(n - 1) // 2]


class TestHardNegatives:
    def test_negatives_only_and_rank_contiguous(self):
        import pyarrow.parquet as pq
        from raster_functions_ray import ann

        out = ann.q_hard_negatives(SF001)
        t = pq.read_table(f"{SF001}/embeddings.parquet",
                          columns=["vec_id", "label"]).to_pandas()
        lbl = dict(zip(t["vec_id"], t["label"]))
        # every mined row really is a different-label candidate
        assert all(lbl[r.vec_id] != lbl[r.q_id] for r in out.itertuples())
        # ranks are 1..k per anchor
        assert (out.groupby("q_id")["rank"].apply(
            lambda s: list(s) == list(range(1, len(s) + 1)))).all()

    def test_topk_boundary_margin_exceeds_fp_noise(self):
        # same discipline as TestEmbeddingDecontam's oracle margin: the
        # hash-exact gate vs DuckDB only holds if no two adjacent-rank
        # candidate similarities around the top-K window sit within the
        # numpy-matmul vs list_cosine_similarity summation-order noise
        # (~1e-15 relative on 64-dim doubles; 2e-5 is the conservative
        # bound used across the registry). Exact ties are fine — both
        # sides break them by vec_id deterministically.
        import pyarrow.parquet as pq
        from raster_functions_ray import ann

        t = pq.read_table(f"{SF001}/embeddings.parquet")
        ids = t["vec_id"].to_numpy()
        labels = t["label"].to_numpy()
        mat = np.stack(t["embedding"].to_pylist()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        mat = mat / np.where(norms == 0, 1.0, norms)
        qsel = ids < ann.N_QUERIES
        csel = ~qsel
        sims = mat[csel] @ mat[qsel].T  # (n_cand, n_q)
        qlab, clab = labels[qsel], labels[csel]
        for qi in range(sims.shape[1]):
            s = np.sort(sims[clab != qlab[qi], qi])[::-1]
            window = s[:ann.TOP_K + 1]
            gaps = np.abs(np.diff(window))
            gaps = gaps[gaps > 0]  # exact ties break by vec_id on both sides
            assert gaps.size == 0 or gaps.min() > 2e-5


# ------------------------------------------------------------ Pareto skyline

from hypothesis import given as _hy_given, settings as _hy_settings
from hypothesis import strategies as _hy_st


@_hy_settings(max_examples=100, deadline=None)
@_hy_given(
    prices=_hy_st.lists(_hy_st.integers(0, 20), min_size=1, max_size=60),
    sizes=_hy_st.lists(_hy_st.integers(0, 20), min_size=60, max_size=60),
    nsplit=_hy_st.integers(1, 5),
)
def test_skyline_partial_merge_equals_bruteforce(prices, sizes, nsplit):
    """Local-skyline-then-merge == O(n^2) dominance filter, including ties
    and duplicate (price, size) rows."""
    import numpy as np
    import pandas as pd

    from raster_functions_ray.relational import _skyline_2d

    n = len(prices)
    df = pd.DataFrame({
        "p_partkey": np.arange(n, dtype=np.int64),
        "p_retailprice": np.asarray(prices, dtype=np.float64),
        "p_size": np.asarray(sizes[:n], dtype=np.int64),
    })
    # brute force
    p = df["p_retailprice"].to_numpy()[:, None]
    s = df["p_size"].to_numpy()[:, None]
    dom = ((p.T <= p) & (s.T >= s) & ((p.T < p) | (s.T > s))).any(axis=1)
    want = set(df.loc[~dom, "p_partkey"])
    # partial + merge over arbitrary splits
    parts = np.array_split(df.sample(frac=1, random_state=1), nsplit)
    cand = pd.concat([_skyline_2d(x) for x in parts if len(x)])
    got = set(_skyline_2d(cand)["p_partkey"])
    assert got == want


# ------------------------------------------------- round-4 kernel properties

@_hy_settings(max_examples=200, deadline=None)
@_hy_given(x=_hy_st.integers(0, 65535), y=_hy_st.integers(0, 65535))
def test_morton_interleave_matches_naive(x, y):
    import numpy as np

    from raster_functions_ray.spatial import morton_interleave16

    got = int(morton_interleave16(np.array([x]), np.array([y]))[0])
    want = sum((((x >> b) & 1) << (2 * b)) | (((y >> b) & 1) << (2 * b + 1))
               for b in range(16))
    assert got == want


@_hy_settings(max_examples=300, deadline=None)
@_hy_given(a=_hy_st.text(alphabet="abcde", min_size=1, max_size=8),
           b=_hy_st.text(alphabet="abcde", min_size=1, max_size=8))
def test_ed1_confirm_matches_dp_levenshtein(a, b):
    """The typo-pair exact confirm equals full DP Levenshtein == 1."""
    import numpy as np

    # mirror the closure in q_typo_pairs (kept in sync by this test)
    def ed1(a, b):
        la, lb = len(a), len(b)
        if abs(la - lb) > 1 or a == b:
            return False
        if la == lb:
            return sum(x != y for x, y in zip(a, b)) == 1
        if la > lb:
            a, b, la, lb = b, a, lb, la
        i = 0
        while i < la and a[i] == b[i]:
            i += 1
        return a[i:] == b[i + 1:]

    def lev(a, b):
        d = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            prev, d[0] = d[0], i
            for j, cb in enumerate(b, 1):
                prev, d[j] = d[j], min(d[j] + 1, d[j - 1] + 1,
                                       prev + (ca != cb))
        return d[-1]

    assert ed1(a, b) == (lev(a, b) == 1)


class TestDbscan:
    def _brute(self):
        import pyarrow.parquet as pq
        from raster_functions_ray import spatial

        eid = pq.read_table(f"{SF001}/events.parquet",
                            columns=["event_id"])["event_id"].to_numpy()
        e2, _ = spatial._dbscan_geometry(eid.size)
        px, py = spatial._seg_points(eid.astype(np.int64))
        d2 = ((px[:, None] - px[None, :]) ** 2
              + (py[:, None] - py[None, :]) ** 2)
        adj = (d2 <= e2)
        np.fill_diagonal(adj, False)
        return eid, adj

    def test_roles_match_brute_force(self):
        from raster_functions_ray import spatial

        out = spatial.q_dbscan(SF001).set_index("event_id")
        eid, adj = self._brute()
        deg = adj.sum(1)
        core = deg >= spatial.DBSCAN_MINPTS - 1
        for i, e in enumerate(eid):
            role = out.loc[e, "role"]
            if core[i]:
                assert role == "core"
            elif (adj[i] & core).any():
                assert role == "border"
                # border cluster = min over neighboring cores' labels;
                # every neighboring core's cluster must contain it
                nb_clusters = set(out.loc[eid[adj[i] & core], "cluster"])
                assert out.loc[e, "cluster"] in nb_clusters
            else:
                assert role == "noise" and out.loc[e, "cluster"] == -1

    def test_core_labels_are_component_minima(self):
        from raster_functions_ray import spatial

        out = spatial.q_dbscan(SF001)
        core = out[out["role"] == "core"]
        # every cluster label is a member core id (the component minimum)
        labels = set(core["cluster"])
        assert labels <= set(core["event_id"])
        assert (core.groupby("cluster")["event_id"].min()
                == core.groupby("cluster")["cluster"].first()).all()

    def test_forced_distributed_components_match(self, monkeypatch):
        from raster_functions_ray import spatial
        from raster_functions_ray.stages import join

        base = spatial.q_dbscan(SF001)
        monkeypatch.setattr(join, "DRIVER_MAX_BYTES", 0)
        forced = spatial.q_dbscan(SF001)
        pd.testing.assert_frame_equal(base, forced)


class TestSimplifyDp:
    def _naive(self, px, py, tol2):
        """Textbook recursive DP, independently written."""
        keep = set()

        def rec(lo, hi):
            keep.add(lo)
            keep.add(hi)
            if hi <= lo + 1:
                return
            vx, vy = int(px[hi] - px[lo]), int(py[hi] - py[lo])
            vv = vx * vx + vy * vy
            best_k, best_key = None, -1
            for i in range(lo + 1, hi):
                dx, dy = int(px[i] - px[lo]), int(py[i] - py[lo])
                if vv > 0:
                    key, thr = (dx * vy - dy * vx) ** 2, tol2 * vv
                else:
                    key, thr = dx * dx + dy * dy, tol2
                if key > thr and key > best_key:
                    best_key, best_k = key, i
            if best_k is not None:
                rec(lo, best_k)
                rec(best_k, hi)

        rec(0, len(px) - 1)
        return np.array([i in keep for i in range(len(px))])

    @_hy_given(steps=_hy_st.lists(
        _hy_st.tuples(_hy_st.integers(-50, 50), _hy_st.integers(-50, 50)),
        min_size=1, max_size=40))
    @_hy_settings(max_examples=60, deadline=None)
    def test_dp_stack_matches_textbook_recursion(self, steps):
        from raster_functions_ray import spatial

        px = np.cumsum(np.array([s[0] for s in steps], np.int64))
        py = np.cumsum(np.array([s[1] for s in steps], np.int64))
        got = spatial._dp_keep(px, py, spatial.DP_TOL2)
        assert (got == self._naive(px, py, spatial.DP_TOL2)).all()

    def test_walk_span_overflow_margin(self):
        # packed-argmax (oracle) and cross² (both sides) stay far inside
        # int64: key·PACK ≤ 64·S⁴·PACK needs the per-user walk span S
        # < ~3400; pin the measured span with a wide margin
        import pyarrow.parquet as pq
        from raster_functions_ray import spatial

        for sf_dir in [SF001, "/root/testdata/sf0.01"]:
            t = pq.read_table(f"{sf_dir}/events.parquet",
                              columns=["event_id", "user_id"]).to_pandas()
            eid = t["event_id"].to_numpy(np.int64)
            sx = spatial._seg_mix(3_000_000_000 + 2 * eid,
                                  spatial.DP_STEP_MOD) - 50
            span = 0
            for _, g in t.assign(sx=sx).groupby("user_id"):
                w = np.cumsum(g["sx"].to_numpy(np.int64))
                span = max(span, int(np.abs(w).max()))
            assert span < 1500, span

    def test_engine_kept_endpoints_and_fraction(self):
        from raster_functions_ray import spatial

        out = spatial.q_simplify_dp(SF001)
        # trajectory endpoints always survive simplification
        first = out.groupby("user_id").head(1)
        last = out.sort_values(["user_id", "seq"]).groupby("user_id").tail(1)
        assert (first["kept"] == 1).all() and (last["kept"] == 1).all()
        assert 0.05 < out["kept"].mean() < 0.95  # meaningful simplification


class TestNaiveBayes:
    def test_quantization_boundary_margin(self):
        # the unigram-LM discipline: every quantized ln over the REAL
        # corpus must sit far from its rounding boundary relative to
        # libm noise (~3e-3 µnat at these magnitudes)
        import duckdb
        from raster_functions_ray import textops

        for sf_dir in [SF001, "/root/testdata/sf0.01"]:
            con = duckdb.connect()
            con.sql(f"CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/documents.parquet')")
            df = con.sql("""
                WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(
                                lower(text), '[a-z]+')) AS token
                              FROM documents),
                joint AS (SELECT d.source, t.token, COUNT(*) c FROM toks t
                          JOIN documents d USING (doc_id) GROUP BY 1, 2),
                ctot AS (SELECT source, SUM(c) tot FROM joint GROUP BY 1)
                SELECT ct.tot + (SELECT COUNT(DISTINCT token) FROM toks)
                         AS num,
                       COALESCE(j.c, 0) + 1 AS den
                FROM ctot ct
                CROSS JOIN (SELECT DISTINCT token FROM toks) vt
                LEFT JOIN joint j ON j.source = ct.source
                                 AND j.token = vt.token""").df()
            x = np.log(df["num"].to_numpy(np.float64)
                       / df["den"].to_numpy(np.float64)) * textops.NB_QUANT
            frac = (x + 0.5) % 1.0
            margin = np.minimum(frac, 1.0 - frac).min()
            # libm noise here is ~2 ulp of ln ≈ 10 scaled by Q = ~4e-9
            # µnat; the measured corpus minimum (~4.5e-3) clears it by
            # six orders of magnitude
            assert margin > 1e-4, margin

    def test_model_shape_and_determinism(self):
        from raster_functions_ray import textops

        a = textops.q_naive_bayes(SF001)
        b = textops.q_naive_bayes(SF001)
        pd.testing.assert_frame_equal(a, b)
        assert a["pred"].str.startswith("src").all()
        assert (a["best_q"] > 0).all()


class TestSegmentIntersect:
    def test_matches_gridless_brute_force(self):
        import pyarrow.parquet as pq
        from raster_functions_ray import spatial

        got = spatial.q_segment_intersect(SF001)
        k = pq.read_table(f"{SF001}/orders.parquet",
                          columns=["o_orderkey"])["o_orderkey"] \
            .to_numpy().astype(np.int64)
        x1, y1, x2, y2 = spatial._seg_endpoints(k)
        n = k.size
        pairs = set()
        # gridless O(n²) reference: no cells, no ownership — any
        # exactly-once bug or emission gap shows up as a set diff
        for s in range(0, n, 256):
            e = min(s + 256, n)
            d1 = ((x2[None, :] - x1[None, :]) * (y1[s:e, None] - y1[None, :])
                  - (y2[None, :] - y1[None, :]) * (x1[s:e, None] - x1[None, :]))
            d2 = ((x2[None, :] - x1[None, :]) * (y2[s:e, None] - y1[None, :])
                  - (y2[None, :] - y1[None, :]) * (x2[s:e, None] - x1[None, :]))
            d3 = ((x2[s:e, None] - x1[s:e, None]) * (y1[None, :] - y1[s:e, None])
                  - (y2[s:e, None] - y1[s:e, None]) * (x1[None, :] - x1[s:e, None]))
            d4 = ((x2[s:e, None] - x1[s:e, None]) * (y2[None, :] - y1[s:e, None])
                  - (y2[s:e, None] - y1[s:e, None]) * (x2[None, :] - x1[s:e, None]))
            hit = (d1 * d2 < 0) & (d3 * d4 < 0) \
                & (k[s:e, None] < k[None, :])
            i, j = np.nonzero(hit)
            pairs.update(zip(k[s:e][i].tolist(), k[j].tolist()))
        assert set(zip(got["a_id"], got["b_id"])) == pairs


class TestHausdorff:
    def test_matches_direct_recompute(self):
        import pyarrow.parquet as pq
        from raster_functions_ray import spatial

        out = spatial.q_hausdorff(SF001).set_index(["user_id", "q_id"])
        t = pq.read_table(f"{SF001}/events.parquet",
                          columns=["event_id", "ts", "user_id"]).to_pandas()
        u, _, px, py, starts, counts, _ = spatial._walk_arrays(t)
        trajs = {int(u[s]): (px[s:s + c], py[s:s + c])
                 for s, c in zip(starts, counts)}
        # direct definition, no sharding: symmetric max-min over the
        # full distance matrix
        for uid in list(trajs)[:10]:
            ax, ay = trajs[uid]
            for q in spatial.HAUS_QUERY_USERS:
                bx, by = trajs[q]
                d2 = ((ax[:, None] - bx[None, :]) ** 2
                      + (ay[:, None] - by[None, :]) ** 2)
                h = max(int(d2.min(axis=1).max()), int(d2.min(axis=0).max()))
                assert out.loc[(uid, q), "hausdorff_d2"] == h
        # identity: a query trajectory against itself is distance 0
        for q in spatial.HAUS_QUERY_USERS:
            assert out.loc[(q, q), "hausdorff_d2"] == 0


class TestSpatialStats:
    def test_gi_star_window_sum_conservation(self):
        import numpy as np
        from raster_functions_ray import regions

        out = regions.q_gi_star(SF001)
        # Chebyshev-box membership is symmetric, so Σ_i ls_i == Σ_j x_j·win_j
        R, W = regions.GI_R, regions.GRID_W
        ids = (np.arange(W, dtype=np.uint64)[:, None] * np.uint64(W)
               + np.arange(W, dtype=np.uint64)[None, :])
        x = regions.mask_values(ids).astype(np.int64)
        r = np.arange(W)
        span = np.minimum(r + R + 1, W) - np.maximum(r - R, 0)
        win = span[:, None] * span[None, :]
        assert out["sum_ls"].sum() == int((x * win).sum())
        assert ((out["n_hot"] + out["n_cold"])
                <= regions.TILE_PX ** 2).all()

    def test_local_moran_partitions_and_cross(self):
        from raster_functions_ray import regions

        out = regions.q_local_moran(SF001)
        assert ((out["n_hh"] + out["n_ll"] + out["n_hl"] + out["n_lh"])
                == regions.TILE_PX ** 2).all()
        # rook cross moment: LISA counts each undirected pair twice
        m = regions.q_morans_i(SF001).iloc[0]
        assert out["cross_sum"].sum() == 2 * int(m["cross"])


class TestPointPatternStats:
    @staticmethod
    def _pts():
        import pyarrow.parquet as pq
        from raster_functions_ray import spatial

        eid = pq.read_table(f"{SF001}/events.parquet",
                            columns=["event_id"])["event_id"].to_numpy()
        return spatial._seg_points(np.asarray(eid, np.int64))

    def test_ripley_k_brute_force(self):
        from raster_functions_ray import spatial

        out = spatial.q_ripley_k(SF001).set_index("r")["n_pairs"]
        px, py = self._pts()
        d2 = ((px[:, None] - px[None, :]) ** 2
              + (py[:, None] - py[None, :]) ** 2)
        iu = np.triu_indices(px.size, k=1)
        d2u = d2[iu]
        for r in spatial.RIPLEY_R:
            assert out[r] == int((d2u <= r * r).sum())
        # K is cumulative: counts must be monotone in r
        assert out.is_monotonic_increasing

    def test_nn_index_brute_force(self):
        from raster_functions_ray import spatial

        out = spatial.q_nn_index(SF001).iloc[0]
        px, py = self._pts()
        d2 = ((px[:, None] - px[None, :]) ** 2
              + (py[:, None] - py[None, :]) ** 2)
        np.fill_diagonal(d2, np.iinfo(np.int64).max)
        mn = d2.min(axis=1)
        hit = mn <= spatial.NN_R ** 2
        import math
        assert out["n_points"] == px.size
        assert out["n_isolated"] == int((~hit).sum())
        assert out["sum_nn_d2"] == int(mn[hit].sum())
        assert out["sum_nn_len"] == sum(math.isqrt(int(v))
                                        for v in mn[hit])

    def test_kde_density_mass_conservation(self):
        from raster_functions_ray import spatial

        out = spatial.q_kde_density(SF001)
        px, py = self._pts()
        # every point deposits the same total mass pattern as the scatter
        span = spatial.KDE_R // spatial.KDE_C
        total = 0
        for dx in range(-span, span + 1):
            for dy in range(-span, span + 1):
                gx = px // spatial.KDE_C + dx
                gy = py // spatial.KDE_C + dy
                ddx = 2 * px - (2 * gx * spatial.KDE_C + spatial.KDE_C)
                ddy = 2 * py - (2 * gy * spatial.KDE_C + spatial.KDE_C)
                w = (2 * spatial.KDE_R) ** 2 - (ddx * ddx + ddy * ddy)
                total += int(w[w > 0].sum())
        assert int(out["density"].sum()) == total
        assert (out["density"] > 0).all()

    def test_std_ellipse_direct(self):
        import pyarrow.parquet as pq
        from raster_functions_ray import spatial

        out = spatial.q_std_ellipse(SF001)
        t = pq.read_table(f"{SF001}/events.parquet",
                          columns=["event_id", "event_type"]).to_pandas()
        px, py = spatial._seg_points(t["event_id"].to_numpy(np.int64))
        ref = pd.DataFrame({"event_type": t["event_type"], "n": 1,
                            "sum_x": px, "sum_y": py, "sum_xx": px * px,
                            "sum_yy": py * py, "sum_xy": px * py}
                           ).groupby("event_type", as_index=False).sum()
        pd.testing.assert_frame_equal(
            out, ref.astype({c: "int64" for c in ref.columns[1:]}))


class TestSegmentJoinLowerings:
    def test_broadcast_and_join_lowerings_identical(self, ray_session,
                                                    monkeypatch):
        from raster_functions_ray import spatial
        from raster_functions_ray.stages import join

        base = spatial.q_segment_join(SF001)       # broadcast path
        monkeypatch.setattr(join, "DRIVER_MAX_BYTES", 0)
        joined = spatial.q_segment_join(SF001)     # hash-join path
        pd.testing.assert_frame_equal(base, joined)
