"""Round-4 window/LM operators: oracle equality + quantization margins."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

SF001 = "/root/testdata/sf0.001"


def _con(tables=("events",)):
    con = duckdb.connect()
    for t in tables:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF001}/{t}.parquet')")
    return con


class TestHoppingWindow:
    def test_matches_oracle_and_fanout(self):
        from raster_functions_ray import windows as w

        got = w.q_hopping_window(SF001)
        exp = _con().execute(w.Q_HOPPING_WINDOW_SQL).df()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        # every event contributes to exactly W/H windows
        n_events = pq.read_metadata(f"{SF001}/events.parquet").num_rows
        assert got["n_events"].sum() == n_events * (w.WINDOW_US // w.HOP_US)


class TestUnigramLogprob:
    def test_matches_oracle(self):
        from raster_functions_ray import windows as w

        got = w.q_unigram_logprob(SF001)
        exp = _con(("documents",)).execute(w.Q_UNIGRAM_LOGPROB_SQL).df()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        assert (got["surprisal_unat"] > 0).any()
        assert (got["n_oov"] <= got["n_tokens"]).all()

    def test_quantization_boundary_margin(self):
        # numpy ln vs DuckDB ln agree to <1 ulp; the hash-exact gate only
        # holds if no ln(total/c)*1e6 + 0.5 sits within libm noise of an
        # integer rounding boundary — pin the margin over the REAL corpus
        from raster_functions_ray import windows as w

        counts = w._lm_counts(SF001)
        total = counts["c"].sum()
        d = np.log(total / counts["c"].to_numpy(np.float64)) * w.LM_QUANT + 0.5
        margin = np.abs(d - np.round(d)).min()
        doov = np.log(2.0 * total) * w.LM_QUANT + 0.5
        assert margin > 1e-6 and abs(doov - round(doov)) > 1e-6

    def test_lm_is_top_v_by_count_then_token(self):
        from raster_functions_ray import windows as w

        counts = w._lm_counts(SF001)
        top = counts.sort_values(["c", "token"], ascending=[False, True],
                                 kind="mergesort").head(w.LM_VOCAB)
        if len(counts) > w.LM_VOCAB:
            cut = top["c"].iloc[-1]
            rest = counts[~counts["token"].isin(top["token"])]
            assert (rest["c"] <= cut).all()


class TestEventDebounce:
    def test_matches_oracle_and_semantics(self):
        from raster_functions_ray import windows as w

        got = w.q_event_debounce(SF001)
        exp = _con().execute(w.Q_EVENT_DEBOUNCE_SQL).df()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        # both kept and suppressed events exist at this sf, else the gate
        # is vacuous
        assert 0 < got["kept"].sum() < len(got)

    def test_shard_count_invariant(self, monkeypatch):
        from raster_functions_ray import windows as w

        base = w.q_event_debounce(SF001)
        monkeypatch.setattr(w, "DEBOUNCE_SHARDS", 3)
        pd.testing.assert_frame_equal(base, w.q_event_debounce(SF001))


class TestBm25:
    def test_matches_oracle_at_sf0001(self):
        from raster_functions_ray import textops as t

        got = t.q_bm25_topk(SF001)
        exp = _con(("documents",)).execute(t.Q_BM25_SQL).df()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        assert len(got) > 0
        per = got.groupby("q_id")["rank"]
        assert (per.apply(lambda s: list(s) == list(range(1, len(s) + 1)))).all()
        # scores strictly positive and non-increasing within each query
        assert (got["score"] > 0).all()
        assert (got.groupby("q_id")["score"].apply(
            lambda s: (s.diff().dropna() <= 0).all())).all()

    def test_idf_quantization_boundary_margin(self):
        # numpy ln vs DuckDB ln agree to <1 ulp; the only fp freedom in
        # the gate is the idf FLOOR — pin the rounding-boundary margin
        # over every candidate query term's df at this corpus
        import duckdb
        from raster_functions_ray import textops as t

        con = _con(("documents",))
        df = con.execute("""
            WITH toks AS (SELECT doc_id,
                 unnest(regexp_extract_all(lower(text),'[a-z]+')) AS token
                 FROM documents)
            SELECT token, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
            FROM toks GROUP BY token""").df()
        n_docs = con.execute("SELECT COUNT(*) n FROM documents").df().n[0]
        x = np.log((float(n_docs) - df["df"].to_numpy(np.float64) + 0.5)
                   / (df["df"].to_numpy(np.float64) + 0.5) + 1.0) \
            * t.BM25_QUANT + 0.5
        margin = np.abs(x - np.round(x)).min()
        assert margin > 1e-6


class TestTrailingRate:
    def test_matches_oracle_and_shard_invariant(self, monkeypatch):
        from raster_functions_ray import windows as w

        got = w.q_trailing_rate(SF001)
        exp = _con().execute(w.Q_TRAILING_RATE_SQL).df()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        assert (got["n_window"] >= 1).all()
        assert (got["n_window"] > 1).any()  # windows actually overlap
        monkeypatch.setattr(w, "DEBOUNCE_SHARDS", 5)
        pd.testing.assert_frame_equal(got, w.q_trailing_rate(SF001))

    def test_peers_counted_like_range_frame(self, tmp_path):
        # hand corpus with duplicate timestamps + multiple users: RANGE
        # CURRENT ROW frames include same-ts peers sorted after the
        # current row — run the ENGINE on it (written as an events table)
        # and compare to the oracle
        import duckdb
        import pyarrow as pa
        import pyarrow.parquet as pq
        from raster_functions_ray import windows as w

        eid = np.array([1, 2, 3, 4, 5, 6], np.int64)
        ts = np.array([100, 100, 100 + w.TRAIL_US, 2 * w.TRAIL_US + 200,
                       100, 150], np.int64)
        u = np.array([0, 0, 0, 0, 7, 7], np.int64)
        t = pa.table({"event_id": pa.array(eid),
                      "ts": pa.array(ts).cast(pa.timestamp("us")),
                      "user_id": pa.array(u)})
        pq.write_table(t, str(tmp_path / "events.parquet"))
        got = w.q_trailing_rate(str(tmp_path))
        con = duckdb.connect()
        con.register("events", t)
        exp = con.execute(w.Q_TRAILING_RATE_SQL).df()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        # peers: events 1 and 2 share ts → both count 2
        assert got.loc[got.event_id.isin([1, 2]), "n_window"].tolist() == [2, 2]


class TestRound4Additions:
    def test_band_join_manual_user(self, ray_session):
        import numpy as np
        import pyarrow.parquet as pq

        from raster_functions_ray import windows as w

        out = w.q_band_join("/root/testdata/sf0.001")
        ev = pq.read_table("/root/testdata/sf0.001/events.parquet",
                           columns=["event_id", "ts", "user_id",
                                    "event_type"]).to_pandas()
        ev["us"] = ev["ts"].astype("int64")
        p = ev[ev.event_type == "purchase"].iloc[0]
        views = ev[(ev.event_type == "view") & (ev.user_id == p.user_id)]
        expect = int(((views.us >= p.us - w.BAND_US)
                      & (views.us < p.us)).sum())
        got = int(out[out.event_id == p.event_id]["n_views"].iloc[0])
        assert got == expect

    def test_group_regression_slope_sane(self, ray_session):
        from raster_functions_ray import relational as rel

        import numpy as np
        import pyarrow.parquet as pq

        out = rel.q_group_regression("/root/testdata/sf0.001")
        assert len(out) == 6  # 3 returnflags × 2 linestatuses (TPC-H)
        # the moments must reproduce a direct lstsq fit on the raw rows
        li = pq.read_table(
            "/root/testdata/sf0.001/lineitem.parquet",
            columns=["l_returnflag", "l_linestatus", "l_quantity",
                     "l_extendedprice"]).to_pandas()
        row = out.iloc[0]
        sel = li[(li.l_returnflag == row.l_returnflag)
                 & (li.l_linestatus == row.l_linestatus)]
        x = np.floor(sel.l_quantity.to_numpy() + 0.5)
        y = np.floor(sel.l_extendedprice.to_numpy() * 100.0 + 0.5)
        ref_slope, ref_icept = np.polyfit(x, y, 1)
        slope, icept = rel.ols_from_moments(row)
        assert abs(slope - ref_slope) < 1e-6 * max(1.0, abs(ref_slope))
        assert abs(icept - ref_icept) < 1e-6 * max(1.0, abs(ref_icept))

    def test_ntile_slice_class_sizes(self, ray_session):
        from raster_functions_ray import relational as rel

        out = rel.q_ntile_slice("/root/testdata/sf0.001")
        n = out["n"].to_numpy()
        assert n.max() - n.min() <= 1          # NTILE size guarantee
        assert (out["min_cents"].to_numpy()[1:]
                >= out["max_cents"].to_numpy()[:-1]).all()  # ordered slices

    def test_late_events_hand_check(self, ray_session):
        import pyarrow.parquet as pq

        from raster_functions_ray import relational as rel

        out = rel.q_late_events("/root/testdata/sf0.001")
        ev = pq.read_table("/root/testdata/sf0.001/events.parquet",
                           columns=["event_id", "ts", "user_id"]).to_pandas()
        ev["us"] = ev["ts"].astype("int64")
        uid = int(out["user_id"].iloc[0])
        sub = ev[ev.user_id == uid].sort_values("event_id")
        wm = sub["us"].cummax().shift(1)
        expect = int((sub["us"] < wm - rel.LATE_US).sum())
        row = out[out.user_id == uid].iloc[0]
        assert int(row["n_late"]) == expect
        assert int(row["n_events"]) == len(sub)

    def test_haversine_quantization_margin(self, ray_session):
        # the trig gate holds only if no a·QUANT+0.5 sits within libm
        # noise of an integer boundary — pin the margin over the LARGEST
        # test corpus (the unigram-ln discipline extended to sin/cos)
        import numpy as np
        import pyarrow.parquet as pq

        from raster_functions_ray import spatial as sp

        eid = pq.read_table("/root/testdata/sf0.1/events.parquet",
                            columns=["event_id"])["event_id"].to_numpy()
        rad = np.pi / 180.0
        x = ((eid * 7919) % 36000).astype(np.float64) / 100.0
        y = ((eid * 104729) % 18000).astype(np.float64) / 100.0 - 90.0
        a = (np.sin((y - sp.HAV_LAT0) * rad / 2.0) ** 2
             + np.cos(y * rad) * np.cos(sp.HAV_LAT0 * rad)
             * np.sin((x - sp.HAV_LON0) * rad / 2.0) ** 2)
        d = a * sp.HAV_QUANT + 0.5
        margin = np.abs(d - np.round(d)).min()
        # a ≤ 1, so a 1-ulp sin/cos discrepancy perturbs d by ≲1e-16·1e9
        # = 1e-7 quanta; demand 20× headroom (measured margin at sf0.1:
        # 9.9e-6 — 99× the perturbation bound)
        assert margin > 2e-6, margin

    def test_bpe_encode_sequential_semantics(self, ray_session):
        # later merges must see earlier merges' symbols (rank order)
        from raster_functions_ray import textops as t

        s = pd.Series(["therein"])
        for pair, sym in t.BPE_MERGES:
            s = s.str.replace(pair, sym, regex=False)
        # th->1, he is consumed by th ("t,h,e" -> \x01e), in->3, er->4
        assert s.iloc[0] == "\x01\x04e\x03"
        out = t.q_bpe_encode("/root/testdata/sf0.001")
        assert (out["n_merged"] >= 0).all()
        assert (out["len_after"] + out["n_merged"]
                == out["len_before"]).all()

    def test_band_and_late_no_overflow_at_large_user_ids(
            self, ray_session, tmp_path):
        # user_id ≥ 4096 wrapped the old u·2⁵¹ composite key negative;
        # run both operators on a hand corpus of huge user ids and
        # compare against their own oracles
        import duckdb
        import pyarrow as pa
        import pyarrow.parquet as pq

        from raster_functions_ray import relational as rel
        from raster_functions_ray import windows as w

        T0 = 1_704_067_200_000_000
        eid = np.arange(1, 13, dtype=np.int64)
        u = np.array([5000, 5000, 5000, 2_000_000, 2_000_000, 9_999_999,
                      5000, 2_000_000, 9_999_999, 5000, 5000, 9_999_999],
                     np.int64)
        ts = T0 + np.array([10, 20, 30, 15, 400, 50, 25, 500, 40,
                            5, 35, 60], np.int64) * 60_000_000
        et = np.array(["view", "purchase", "view", "view", "purchase",
                       "view", "purchase", "view", "purchase", "view",
                       "purchase", "view"], object)
        t = pa.table({"event_id": pa.array(eid),
                      "ts": pa.array(ts).cast(pa.timestamp("us")),
                      "user_id": pa.array(u),
                      "event_type": pa.array(et, pa.string())})
        pq.write_table(t, str(tmp_path / "events.parquet"))
        con = duckdb.connect()
        con.register("events", t)
        got = w.q_band_join(str(tmp_path))
        exp = con.execute(w.Q_BAND_JOIN_SQL).df()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        got2 = rel.q_late_events(str(tmp_path))
        exp2 = con.execute(rel.Q_LATE_EVENTS_SQL).df()
        pd.testing.assert_frame_equal(got2, exp2, check_dtype=False)


class TestAcfDaily:
    def test_hand_check_and_acf_range(self, ray_session):
        import numpy as np
        import pyarrow.parquet as pq
        from raster_functions_ray import spatial, windows

        out = windows.q_acf_daily("/root/testdata/sf0.001")
        t = pq.read_table("/root/testdata/sf0.001/events.parquet",
                          columns=["event_type", "ts"]).to_pandas()
        d = (t["ts"].astype("int64") - spatial.ST_T0_US) // spatial.ST_BIN_US
        for et in out["event_type"].unique():
            sel = (t["event_type"] == et) & (d >= 0) & (d < spatial.ST_BINS)
            x = np.bincount(d[sel], minlength=spatial.ST_BINS)
            x = x[:spatial.ST_BINS].astype(np.int64)
            sub = out[out["event_type"] == et].set_index("lag")
            assert sub.loc[0, "sxy"] == int((x * x).sum())
            for k in range(1, windows.ACF_LAGS + 1):
                assert sub.loc[k, "sxy"] == int((x[:-k] * x[k:]).sum())
                assert sub.loc[k, "sa"] == int(x[:-k].sum())
            # the driver-formula ACF from the sufficient stats is a
            # well-formed correlation
            n, sx, sxx = spatial.ST_BINS, x.sum(), (x * x).sum()
            var = n * sxx - sx * sx
            if var > 0:
                k = 1
                r = ((sub.loc[k, "n_pairs"] * sub.loc[k, "sxy"]
                      - sub.loc[k, "sa"] * sub.loc[k, "sb"])
                     / max(1, (sub.loc[k, "n_pairs"] * sxx - sx * sx / 1)))
                assert -2.0 < r < 2.0


class TestBpeTrain:
    """K-round BPE vocabulary training (q_bpe_train)."""

    def _ref(self, texts, k):
        # independently-written textbook Sennrich loop (dict/Counter)
        import re
        from collections import Counter

        vocab = Counter()
        for t in texts:
            for w in re.findall(r"[^ \t\n\r\f]+", t):
                vocab[w] += 1
        rows = []
        for r in range(1, k + 1):
            pc = Counter()
            for w, n in vocab.items():
                for i in range(len(w) - 1):
                    pc[w[i:i + 2]] += n
            if not pc:
                break
            best = min(pc, key=lambda p: (-pc[p], p))
            newv = Counter()
            for w, n in vocab.items():
                newv[w.replace(best, chr(r))] += n
            vocab = newv
            rows.append((r, best, pc[best],
                         sum(len(w) * n for w, n in vocab.items())))
        return rows

    def test_hand_corpus_matches_textbook_loop(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from raster_functions_ray import textops as t

        texts = ["the cat then sat there", "then the cattle sat",
                 "a a a b", "thethethe overlap overlap", ""]
        pq.write_table(
            pa.table({"doc_id": [f"d{i}" for i in range(len(texts))],
                      "text": texts}),
            str(tmp_path / "documents.parquet"))
        out = t.q_bpe_train(str(tmp_path))
        ref = self._ref(texts, t.BPE_TRAIN_ROUNDS)
        assert list(map(tuple, out.to_numpy())) == ref

    def test_forced_distributed_matches_driver(self, ray_session,
                                               monkeypatch):
        from raster_functions_ray import textops as t
        from raster_functions_ray.stages import join

        base = t.q_bpe_train(SF001)
        monkeypatch.setattr(join, "DRIVER_MAX_BYTES", 0)
        forced = t.q_bpe_train(SF001)
        pd.testing.assert_frame_equal(base, forced)

    def test_matches_unrolled_cte_oracle(self, ray_session):
        import duckdb

        from raster_functions_ray import textops as t

        got = t.q_bpe_train(SF001)
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{SF001}/documents.parquet')")
        exp = (con.execute(t.bpe_train_oracle_sql()).df()
               .sort_values("merge_round").reset_index(drop=True))
        assert list(got["pair"]) == list(exp["pair"])
        assert list(got["pair_count"]) == list(exp["pair_count"])
        assert list(got["vocab_len_after"]) == list(exp["vocab_len_after"])


class TestLogregTrain:
    """K-round hashed-feature logistic regression (q_logreg_train)."""

    def _ref(self, texts, k):
        # independently-written single-process fixed-point fit
        import re

        from raster_functions_ray import textops as t

        D = t.LOGREG_BUCKETS + 1
        n = len(texts)
        X = np.zeros((n, D), np.int64)
        y = np.zeros(n, np.int64)
        for i, txt in enumerate(texts):
            ws = re.findall(r"[^ \t\n\r\f]+", txt)
            for w in ws:
                h = 0
                for ch in w:
                    h = (h * 31 + ord(ch)) % 4294967296
                X[i, h % t.LOGREG_BUCKETS] += 1
            X[i, t.LOGREG_BUCKETS] = 1
            y[i] = 1 if "the" in ws else 0
        w = np.zeros(D, np.int64)
        rows = []
        for r in range(1, k + 1):
            z = X @ w
            p = np.minimum(np.maximum(
                2 * t.LOGREG_PS + (z * t.LOGREG_PS) // t.LOGREG_WS, 0),
                4 * t.LOGREG_PS)
            g = (p - 4 * t.LOGREG_PS * y) @ X
            w = w - (g * t.LOGREG_LR_NUM) // n
            rows += [(r, j, int(w[j])) for j in range(D)]
        return rows

    def test_hand_corpus_matches_reference_fit(self, ray_session,
                                               tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from raster_functions_ray import textops as t

        texts = ["the cat sat on the mat", "dogs bark loudly",
                 "the the the", "no stop words here at all",
                 "", "worthy of the crown", "x y z w v u"] * 3
        pq.write_table(
            pa.table({"doc_id": list(range(1, len(texts) + 1)),
                      "text": texts}),
            str(tmp_path / "documents.parquet"))
        out = t.q_logreg_train(str(tmp_path))
        assert list(map(tuple, out.to_numpy())) == self._ref(
            texts, t.LOGREG_ROUNDS)

    def test_forced_distributed_matches_driver(self, ray_session,
                                               monkeypatch):
        from raster_functions_ray import textops as t
        from raster_functions_ray.stages import join

        base = t.q_logreg_train(SF001)
        monkeypatch.setattr(join, "DRIVER_MAX_BYTES", 0)
        forced = t.q_logreg_train(SF001)
        pd.testing.assert_frame_equal(base, forced)

    def test_matches_unrolled_cte_oracle(self, ray_session):
        import duckdb

        from raster_functions_ray import textops as t

        got = t.q_logreg_train(SF001)
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{SF001}/documents.parquet')")
        exp = (con.execute(t.logreg_train_oracle_sql()).df()
               .sort_values(["round_no", "feature_id"])
               .reset_index(drop=True))
        assert list(map(tuple, got.to_numpy())) == list(
            map(tuple, exp.astype("int64").to_numpy()))

    def test_weights_move_toward_the_label(self, ray_session):
        # the bucket holding the literal token 'the' must get the most
        # positive weight mass (the fit learns the label's feature)
        from raster_functions_ray import textops as t

        out = t.q_logreg_train(SF001)
        last = out[out["round_no"] == t.LOGREG_ROUNDS].set_index(
            "feature_id")["weight"]
        the_bucket = 0
        h = 0
        for ch in "the":
            h = (h * 31 + ord(ch)) % 4294967296
        the_bucket = h % t.LOGREG_BUCKETS
        nonbias = last.drop(t.LOGREG_BUCKETS)
        assert nonbias.idxmax() == the_bucket

    def test_train_encode_composition(self, ray_session, tmp_path):
        # encode must apply the TRAINED pairs in rank order
        import pyarrow as pa
        import pyarrow.parquet as pq

        from raster_functions_ray import textops as t

        texts = ["the then there that", "this the them those",
                 "banana bandana", "aaaa bbbb aaaa"]
        pq.write_table(
            pa.table({"doc_id": list(range(4)), "text": texts,
                      "lang": ["en", "en", "fr", "fr"]}),
            str(tmp_path / "documents.parquet"))
        trained = t.q_bpe_train(str(tmp_path))
        out = t.q_bpe_train_encode(str(tmp_path))
        s = pd.Series(texts)
        for r, p in zip(trained["merge_round"], trained["pair"]):
            s = s.str.replace(p, chr(int(r)), regex=False)
        exp = pd.DataFrame({"lang": ["en", "fr"],
                            "len_before": [len(texts[0]) + len(texts[1]),
                                           len(texts[2]) + len(texts[3])],
                            "len_after": [len(s[0]) + len(s[1]),
                                          len(s[2]) + len(s[3])]})
        got = out.set_index("lang")
        for lang in ("en", "fr"):
            row = exp[exp["lang"] == lang].iloc[0]
            assert got.loc[lang, "len_before"] == row["len_before"]
            assert got.loc[lang, "len_after"] == row["len_after"]
            assert got.loc[lang, "n_docs"] == 2

    def test_train_encode_oracle_agrees_when_pairs_exhaust(
            self, ray_session, tmp_path):
        # vocabulary collapses to single chars before K=6 rounds: the
        # engine breaks out early; the oracle's COALESCE sentinel makes
        # the exhausted rounds no-ops — both sides must agree
        import duckdb
        import pyarrow as pa
        import pyarrow.parquet as pq

        from raster_functions_ray import textops as t

        texts = ["ab ab ab", "ab cd", "cd cd"]
        pq.write_table(
            pa.table({"doc_id": [1, 2, 3], "text": texts,
                      "lang": ["en", "en", "fr"]}),
            str(tmp_path / "documents.parquet"))
        got = t.q_bpe_train_encode(str(tmp_path))
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/documents.parquet')")
        exp = (con.execute(t.bpe_train_encode_oracle_sql()).df()
               .sort_values("lang").reset_index(drop=True))
        assert not exp["len_after"].isna().any()
        assert list(got["len_after"]) == list(
            exp["len_after"].astype("int64"))
        assert list(got["len_before"]) == list(
            exp["len_before"].astype("int64"))


class TestQualityScorerIndexHardening:
    def test_duplicate_index_frame_scores_per_row(self):
        from raster_functions_ray import textops as t

        df = pd.DataFrame({"doc_id": [1, 2],
                           "text": ["the cat", "dog the"]})
        df.index = [0, 0]  # duplicate labels, e.g. after pd.concat
        out = t.QualityScorer()(df)
        assert list(out["stop_ratio"]) == [0.5, 0.5]
        assert list(out["mean_word_len"]) == [3.0, 3.0]
        assert list(out.index) == [0, 0]

    def test_unique_index_round_trips(self):
        from raster_functions_ray import textops as t

        df = pd.DataFrame({"doc_id": [1, 2, 3],
                           "text": ["the cat", "dog", "a b c"]},
                          index=pd.Index([30, 10, 20], name="row"))
        out = t.QualityScorer()(df)
        assert out.index.equals(df.index) and out.index.name == "row"
        assert list(out["doc_id"]) == [1, 2, 3]
        assert list(out["stop_ratio"]) == [0.5, 0.0, 1 / 3]


class TestGapFill:
    def test_hand_world_locf_semantics(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from raster_functions_ray import windows as w
        from raster_functions_ray.spatial import ST_BIN_US, ST_T0_US

        # user 1: observed days 2 (x2 events) and 5; user 7: day 0 only
        rows = [(1, 2), (1, 2), (1, 5), (7, 0)]
        ts = [ST_T0_US + d * ST_BIN_US + 1000 for _, d in rows]
        pq.write_table(pa.table({
            "event_id": pa.array(range(1, 5), pa.int64()),
            "user_id": pa.array([u for u, _ in rows], pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us"))}),
            str(tmp_path / "events.parquet"))
        out = w.q_gap_fill(str(tmp_path)).set_index(["user_id", "day"])
        # leading days before the first observation: v=0, src=2
        assert (out.loc[(1, 0)]["v"], out.loc[(1, 0)]["src"]) == (0, 2)
        assert (out.loc[(1, 1)]["src"]) == 2
        # observed day: v = count, src=0
        assert (out.loc[(1, 2)]["v"], out.loc[(1, 2)]["src"]) == (2, 0)
        # gap days carry the last observation forward: v=2, src=1
        assert (out.loc[(1, 3)]["v"], out.loc[(1, 3)]["src"]) == (2, 1)
        assert (out.loc[(1, 4)]["v"], out.loc[(1, 4)]["src"]) == (2, 1)
        # new observation resets the carried value
        assert (out.loc[(1, 5)]["v"], out.loc[(1, 5)]["src"]) == (1, 0)
        assert (out.loc[(1, 29)]["v"], out.loc[(1, 29)]["src"]) == (1, 1)
        # second user: observed day 0, then 29 filled days
        assert (out.loc[(7, 0)]["v"], out.loc[(7, 0)]["src"]) == (1, 0)
        assert (out.loc[(7, 29)]["v"], out.loc[(7, 29)]["src"]) == (1, 1)
        # dense grid: exactly 2 users x 30 days
        assert len(out) == 60

    def test_linear_interpolation_semantics(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from raster_functions_ray import windows as w
        from raster_functions_ray.spatial import ST_BIN_US, ST_T0_US

        # user 1: day 2 count 4 (4 events), day 8 count 1 → days 3-7
        # interpolate floor(4 + (1-4)*(d-2)/6)
        rows = [(1, 2)] * 4 + [(1, 8)]
        ts = [ST_T0_US + d * ST_BIN_US + i for i, (_, d) in enumerate(rows)]
        pq.write_table(pa.table({
            "event_id": pa.array(range(1, len(rows) + 1), pa.int64()),
            "user_id": pa.array([u for u, _ in rows], pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us"))}),
            str(tmp_path / "events.parquet"))
        out = (w.q_gap_fill_linear(str(tmp_path))
               .set_index(["user_id", "day"]))
        for d in range(3, 8):
            expect = (4 * (8 - d) + 1 * (d - 2)) // 6
            assert (out.loc[(1, d)]["v"], out.loc[(1, d)]["src"]) \
                == (expect, 1), d
        assert (out.loc[(1, 2)]["v"], out.loc[(1, 2)]["src"]) == (4, 0)
        assert (out.loc[(1, 8)]["v"], out.loc[(1, 8)]["src"]) == (1, 0)
        assert (out.loc[(1, 0)]["src"], out.loc[(1, 29)]["src"]) == (3, 2)
        assert out.loc[(1, 29)]["v"] == 1


class TestCmsSketch:
    def test_overestimate_bound_and_exactness(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from raster_functions_ray import textops as t

        texts = ["alpha alpha beta", "gamma alpha", "beta delta"] * 5
        pq.write_table(
            pa.table({"doc_id": list(range(len(texts))), "text": texts}),
            str(tmp_path / "documents.parquet"))
        reg = t.q_cms_sketch(str(tmp_path))
        true = {"alpha": 15, "beta": 10, "gamma": 5, "delta": 5}
        for tok, n in true.items():
            est = t.cms_estimate(reg, tok)
            assert est >= n          # the CMS upper-bound guarantee
        # total mass per row equals the token-stream length
        slots = reg["slot"].to_numpy()
        for j in range(t.CMS_D):
            row = reg[(slots >= j * t.CMS_W)
                      & (slots < (j + 1) * t.CMS_W)]
            assert row["n"].sum() == 35
        # a token absent from the corpus estimates only collision mass
        assert t.cms_estimate(reg, "zzz-not-present") <= 35
