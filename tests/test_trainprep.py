"""Training-data prep operators (trainprep.py): packing, clustering,
Bloom anti-dedup, deterministic sampling kernels."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from raster_functions_ray import trainprep as tp


def naive_pack(tokens, budget):
    out, acc, p = [], 0, 0
    for t in tokens:
        if acc and acc + t > budget:
            p += 1
            acc = 0
        acc += t
        out.append(p)
    return np.asarray(out, dtype=np.int64)


class TestPackGreedy:
    def test_matches_naive_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            toks = rng.integers(1, 120, n)
            budget = int(rng.integers(50, 400))
            np.testing.assert_array_equal(tp.pack_greedy(toks, budget),
                                          naive_pack(toks, budget))

    def test_oversized_doc_gets_own_pack(self):
        got = tp.pack_greedy(np.array([10, 999, 10, 10]), budget=100)
        np.testing.assert_array_equal(got, [0, 1, 2, 2])

    def test_exact_fit_stays_in_pack(self):
        got = tp.pack_greedy(np.array([60, 40, 1]), budget=100)
        np.testing.assert_array_equal(got, [0, 0, 1])

    def test_budget_invariant(self):
        # every pack's total <= budget unless it is a single oversized doc,
        # packs are contiguous and consecutive, nothing is dropped
        rng = np.random.default_rng(9)
        toks = rng.integers(1, 500, 1000)
        budget = 300
        pid = tp.pack_greedy(toks, budget)
        assert (np.diff(pid) >= 0).all() and (np.diff(pid) <= 1).all()
        for p in range(pid.max() + 1):
            m = pid == p
            assert toks[m].sum() <= budget or m.sum() == 1


class TestReviewRegressions:
    def test_nanmedian_empty_stack(self):
        from raster_functions_ray.functions import stack as st
        out = st.nanmedian_axis0(np.empty((0, 2, 3), np.float32))
        assert out.shape == (2, 3) and np.isnan(out).all()

    def test_nanmedian_inf_pair_silent(self):
        from raster_functions_ray.functions import stack as st
        d = np.array([[[np.inf]], [[-np.inf]]], dtype=np.float64)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = st.nanmedian_axis0(d)
        assert np.isnan(out[0, 0])

    def test_cc_raises_on_non_convergence(self):
        import ray.data as rd
        # 10-node path needs ~9 propagation rounds; cap at 2 must raise
        u = np.arange(1, 10, dtype=np.int64)
        edges = rd.from_arrow(pa.table({"u": pa.array(u), "v": pa.array(u - 1)}))
        with pytest.raises(RuntimeError, match="did not converge"):
            tp.connected_components(edges, max_iters=2)

    def test_tokenizer_matches_re2_on_odd_whitespace(self):
        # NBSP and \v are NOT RE2 \s: engine token counts must agree with
        # the DuckDB oracle tokenizer on both
        import duckdb
        texts = ["a b c", "a\x0bb c", "a\x0cb  c"]
        eng = pd.Series(texts).str.findall(r"[^ \t\n\r\f]+").str.len().tolist()
        sql = [duckdb.execute(
            "SELECT len(list_filter(string_split_regex(?, '\\s+'), x -> x <> ''))",
            [t]).fetchone()[0] for t in texts]
        assert eng == sql


class TestConnectedComponents:
    def test_hand_graph(self):
        import ray.data as rd
        # path 1-2-3-4, triangle 10-11-12 (+chord), isolated edge 20-21
        edges = rd.from_arrow(pa.table({
            "u": pa.array([2, 3, 4, 10, 11, 10, 20], pa.int64()),
            "v": pa.array([1, 2, 3, 11, 12, 12, 21], pa.int64())}))
        labels = tp.connected_components(edges)
        got = dict(zip(labels["node"], labels["label"]))
        assert got == {1: 1, 2: 1, 3: 1, 4: 1,
                       10: 10, 11: 10, 12: 10, 20: 20, 21: 20}


class TestBloom:
    @staticmethod
    def _bloom_of(texts):
        h = tp._text_hash64(pd.Series(texts)).view(np.int64)
        tab = pa.table({"h": pa.array(h, pa.int64())})
        return np.frombuffer(tp._bloom_partial(tab)["bits"][0].as_py(),
                             dtype=np.uint64)

    def test_no_false_negatives_and_low_fp(self):
        rng = np.random.default_rng(5)
        ref = pd.Series([f"ref doc {i} {rng.integers(1e9)}" for i in range(2000)])
        bits = self._bloom_of(ref.tolist())

        def is_pos(texts):
            h = tp._text_hash64(pd.Series(texts))
            pos = tp._bloom_positions(h)
            return ((bits[pos // 64] >> (pos % 64).astype(np.uint64))
                    & np.uint64(1)).all(axis=1)

        assert is_pos(ref.tolist()).all()  # membership never missed
        other = [f"novel doc {i} {rng.integers(1e9)}" for i in range(5000)]
        assert is_pos(other).mean() < 0.02  # FP rate at design load

    def test_partials_or_associative(self):
        bits_a = self._bloom_of(["alpha beta", "gamma"])
        bits_b = self._bloom_of(["delta epsilon"])
        bits_ab = self._bloom_of(["alpha beta", "gamma", "delta epsilon"])
        np.testing.assert_array_equal(bits_a | bits_b, bits_ab)


class TestSplitHash:
    def test_range_and_determinism(self):
        ids = np.arange(10_000, dtype=np.int64)
        b1, b2 = tp._split_hash(ids, 100), tp._split_hash(ids, 100)
        np.testing.assert_array_equal(b1, b2)
        assert b1.min() >= 0 and b1.max() < 100
        # roughly uniform: every bucket hit, no bucket > 3× the mean
        counts = np.bincount(b1, minlength=100)
        assert (counts > 0).all() and counts.max() < 300

    def test_matches_bigint_sql_semantics(self):
        # engine uint64 wrap == SQL BIGINT math while ids stay < 2^31
        import duckdb
        ids = np.array([0, 1, 499, 123456, 2**31 - 1], dtype=np.int64)
        got = tp._split_hash(ids, 10)
        want = duckdb.sql(
            "SELECT ((i * 2654435761) % 4294967296) % 10 FROM "
            f"(SELECT unnest({ids.tolist()}) AS i)").fetchnumpy()
        np.testing.assert_array_equal(got, list(want.values())[0])


class TestExactPercentiles:
    def test_selection_rule_matches_quantile_disc(self):
        # ceil(q*n) 1-based index over the cumulative histogram must equal
        # DuckDB quantile_disc for assorted n and distributions
        import duckdb
        rng = np.random.default_rng(21)
        for n in (1, 2, 5, 97, 400):
            vals = rng.integers(0, 120, n)
            total = np.bincount(vals, minlength=1)
            cum = np.cumsum(total)
            for num, den in ((1, 2), (9, 10), (99, 100)):
                idx = -((-num * n) // den)
                got = int(np.searchsorted(cum, idx, side="left"))
                want = duckdb.execute(
                    f"SELECT quantile_disc(v, {num/den}) FROM (SELECT unnest(?) AS v)",
                    [vals.tolist()]).fetchone()[0]
                assert got == want, (n, num, den)


SF_DIR = "/root/testdata/sf0.001"


class TestDomainCapRepetitionShuffle:
    def test_domain_cap_matches_pandas_window(self, sf_dir=SF_DIR):
        got = tp.q_domain_cap(sf_dir)
        docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source", "n_chars"])
        ranked = docs.sort_values(["n_chars", "doc_id"],
                                  ascending=[False, True])
        want = (ranked.groupby("source", sort=False).head(tp.DOMAIN_CAP_N)
                .sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got, want[["doc_id", "source", "n_chars"]])

    def test_domain_cap_never_exceeds_n(self, sf_dir=SF_DIR):
        got = tp.q_domain_cap(sf_dir)
        assert got.groupby("source").size().max() <= tp.DOMAIN_CAP_N

    def test_doc_repetition_hand_doc(self):
        # "a b a b a" bigrams: (a b) x2, (b a) x2 -> 4 grams, 2 dups
        d, grams = __import__(
            "raster_functions_ray.textops", fromlist=["x"]
        )._word_ngrams_flat(pd.Series(["a b a b a", "x y"]), 2)
        pairs = pd.DataFrame({"d": d, "g": grams})
        per = pairs.groupby(["d", "g"]).size()
        assert per.groupby(level=0).sum().tolist() == [4, 1]
        assert (per.groupby(level=0).sum()
                - per.groupby(level=0).size()).tolist() == [2, 0]

    def test_doc_repetition_counts_bounded(self, sf_dir=SF_DIR):
        got = tp.q_doc_repetition(sf_dir)
        assert (got["n_dup"] <= got["n_grams"]).all()
        assert (got["n_grams"] >= 1).all()

    def test_shuffle_order_deterministic_and_sorted(self, sf_dir=SF_DIR):
        a = tp.q_shuffle_order(sf_dir)
        b = tp.q_shuffle_order(sf_dir)
        pd.testing.assert_frame_equal(a, b)
        assert (np.diff(a["skey"].to_numpy()) >= 0).all()
        # bijective key: no collisions on distinct ids
        assert a["skey"].is_unique


class TestHllBoilerplate:
    def test_poly31_matches_python(self):
        strs = np.asarray(["abc", "a", "zz zz", "table value part"], dtype=object)
        got = tp._poly31_u32(strs)
        for s, g in zip(strs, got):
            acc = 0
            for ch in s:
                acc = (acc * 31 + ord(ch)) % (1 << 32)
            assert int(g) == acc

    def test_hll_partials_max_associative(self):
        rng = np.random.default_rng(11)
        items = np.asarray([f"item {i} {rng.integers(1e9)}" for i in range(3000)],
                           dtype=object)
        whole = tp.hll_partial(items)
        merged = np.maximum(tp.hll_partial(items[:1000]),
                            np.maximum(tp.hll_partial(items[1000:2500]),
                                       tp.hll_partial(items[2500:])))
        np.testing.assert_array_equal(whole, merged)

    def test_hll_estimate_error_bounded(self):
        # standard error for m=256 is ~6.5%; allow 4 sigma
        rng = np.random.default_rng(12)
        n = 20_000
        items = np.asarray([f"uniq {i} {rng.integers(1e12)}" for i in range(n)],
                           dtype=object)
        est = tp.hll_estimate(tp.hll_partial(items))
        assert abs(est - n) / n < 0.26

    def test_hll_query_registers_match_brute(self):
        got = tp.q_hll_distinct("/root/testdata/sf0.001")
        docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                               columns=["text"])
        from raster_functions_ray.textops import _word_ngrams_flat
        _, grams = _word_ngrams_flat(docs["text"], tp.HLL_GRAM_W)
        reg = tp.hll_partial(grams)
        nz = np.flatnonzero(reg)
        np.testing.assert_array_equal(got["bucket"].to_numpy(), nz)
        np.testing.assert_array_equal(got["reg"].to_numpy(), reg[nz])

    def test_boilerplate_hand_corpus(self, tmp_path):
        import pyarrow.parquet as pq
        texts = ["the quick brown fox", "the quick brown dog",
                 "the quick brown cat", "unrelated words entirely here"]
        tab = pa.table({"doc_id": pa.array(range(4), pa.int64()),
                        "text": pa.array(texts)})
        pq.write_table(tab, tmp_path / "documents.parquet")
        from raster_functions_ray.textops import q_boilerplate
        got = q_boilerplate(str(tmp_path))
        # "the quick brown" appears in 3 docs -> boilerplate; docs 0-2 have 1 hit
        assert got["doc_id"].tolist() == [0, 1, 2]
        assert got["n_boiler"].tolist() == [1, 1, 1]

    def test_poly31_matches_duckdb_reduce(self):
        # the oracle recomputes this hash in SQL; lock the parity on the
        # printable-ASCII domain the corpus uses (codepoint semantics)
        import duckdb
        rng = np.random.default_rng(21)
        alpha = np.array(list(
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,;!?"))
        strs = ["".join(rng.choice(alpha, rng.integers(1, 40)))
                for _ in range(200)]
        got = tp._poly31_u32(np.asarray(strs, dtype=object))
        con = duckdb.connect()
        want = [con.execute(
            "SELECT list_reduce(list_transform(string_split(?, ''), "
            "c -> CAST(unicode(c) AS BIGINT)), (a,b) -> (a*31+b) % 4294967296)",
            [s]).fetchone()[0] for s in strs]
        np.testing.assert_array_equal(got.astype(np.int64), np.asarray(want))


class TestTinyGraphCC:
    def test_single_edge_graph(self):
        # regression: Ray 2.49 hash-join crashes when a partition receives
        # zero rows on one side; stages.join.hash_join guards every join
        import pyarrow as pa
        import ray.data as rd
        edges = rd.from_arrow(pa.table({"u": pa.array([5], pa.int64()),
                                        "v": pa.array([9], pa.int64())}))
        out = tp.connected_components(edges)
        assert out.to_dict("records") == [
            {"node": 5, "label": 5}, {"node": 9, "label": 5}]


class TestBudgetSelect:
    def test_matches_pandas_window(self):
        got = tp.q_budget_select(SF_DIR)
        docs = pd.read_parquet(f"{SF_DIR}/documents.parquet",
                               columns=["doc_id", "text", "n_chars"])
        docs["n_tokens"] = docs["text"].str.findall(
            r"[^ \t\n\r\f]+").str.len().astype("int64")
        docs = docs.sort_values(["n_chars", "doc_id"],
                                ascending=[False, True])
        docs["cum_tokens"] = docs["n_tokens"].cumsum()
        want = (docs[docs["cum_tokens"] <= tp.SELECT_BUDGET]
                [["doc_id", "n_tokens", "cum_tokens"]]
                .sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want)

    def test_budget_respected_and_greedy(self):
        got = tp.q_budget_select(SF_DIR)
        assert got["cum_tokens"].max() <= tp.SELECT_BUDGET
        assert len(got) > 0


class TestSubstringDedup:
    """q_substring_dedup: exact duplicated-substring spans (window SUB_L)."""

    def _write(self, tmp_path, texts):
        import pyarrow.parquet as pq
        tab = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                        "text": pa.array(texts)})
        pq.write_table(tab, tmp_path / "documents.parquet")
        return str(tmp_path)

    def _brute(self, texts, L):
        """Literal-definition oracle: mark every offset whose L-window
        occurs >= 2 times corpus-wide, merge overlapping/adjacent."""
        from collections import Counter
        cnt = Counter(t[o:o + L] for t in texts
                      for o in range(len(t) - L + 1))
        spans = []
        for d, t in enumerate(texts):
            offs = [o for o in range(len(t) - L + 1)
                    if cnt[t[o:o + L]] >= 2]
            cur = None
            for o in offs:
                if cur and o - cur[1] <= L:
                    cur[1] = o
                else:
                    if cur:
                        spans.append((d, cur[0], cur[1] + L))
                    cur = [o, o]
            if cur:
                spans.append((d, cur[0], cur[1] + L))
        return sorted(spans)

    def test_hand_corpus_matches_brute(self, tmp_path):
        from raster_functions_ray.dedup import SUB_L, q_substring_dedup
        lic = "x" * 0 + "Copyright (c) 2026 Example Corp. All rights reserved!!"
        assert len(lic) > SUB_L
        texts = [
            "A" * 30 + lic + "unique tail one " * 5,
            "totally different head material here " * 3 + lic,
            "no duplicated content in this document at all " * 4,
            ("intra-doc repeat " * 6) + "ZQW" + ("intra-doc repeat " * 6),
        ]
        got = q_substring_dedup(self._write(tmp_path, texts))
        exp = self._brute(texts, SUB_L)
        assert list(map(tuple, got[["doc_id", "span_start", "span_end"]]
                        .itertuples(index=False))) == exp
        assert (got["span_len"] == got["span_end"] - got["span_start"]).all()

    def test_viral_duplicate_no_blowup(self, tmp_path):
        # 400 copies of one page: occurrence count is 400x but the span
        # output stays one row per copy and the run completes quickly
        from raster_functions_ray.dedup import SUB_L, q_substring_dedup
        page = "viral boilerplate page body " * 4
        assert len(page) >= SUB_L
        # the tail doc must not be internally periodic below the window
        # length, or its own windows legitimately duplicate
        texts = [page] * 400 + [
            "singular document alpha beta gamma delta epsilon zeta eta "
            "theta iota kappa lambda mu nu xi omicron pi rho sigma tau"]
        got = q_substring_dedup(self._write(tmp_path, texts))
        assert len(got) == 400
        assert set(got["doc_id"]) == set(range(400))
        assert (got["span_start"] == 0).all()
        assert (got["span_end"] == len(page)).all()

    def test_short_docs_skipped(self, tmp_path):
        from raster_functions_ray.dedup import q_substring_dedup
        got = q_substring_dedup(self._write(tmp_path, ["tiny", "tiny"]))
        assert len(got) == 0


class TestImportanceMass:
    def test_hand_corpus_masses(self, tmp_path):
        import pyarrow.parquet as pq
        from raster_functions_ray.trainprep import q_importance_mass
        texts = ["alpha beta gamma delta", "alpha beta gamma delta",
                 "omega psi chi phi", "alpha beta omega psi"]
        srcs = ["src0", "src5", "src1", "src2"]  # suffix%5==0 -> target
        tab = pa.table({"doc_id": pa.array(range(4), pa.int64()),
                        "text": pa.array(texts),
                        "source": pa.array(srcs)})
        pq.write_table(tab, tmp_path / "documents.parquet")
        got = q_importance_mass(str(tmp_path)).set_index("doc_id")
        # doc 0: bigrams {alpha beta, beta gamma, gamma delta}; each occurs
        # twice in target (docs 0+1); 'alpha beta' also once in src doc 3
        assert got.loc[0, "n_bigrams"] == 3
        assert got.loc[0, "tgt_mass"] == 6 and got.loc[0, "src_mass"] == 1
        # doc 2 (source): 'omega psi' twice in src (docs 2+3), others once
        assert got.loc[2, "tgt_mass"] == 0 and got.loc[2, "src_mass"] == 4
        # doc 3 (source): 'alpha beta' 2×tgt+1×src(self), 'beta omega'
        # 1×src(self), 'omega psi' 2×src (docs 2+3)
        assert got.loc[3, "tgt_mass"] == 2
        assert got.loc[3, "src_mass"] == 4


class TestHeavyHitters:
    def test_mg_summary_superset_and_error_bound(self):
        rng = np.random.default_rng(13)
        # zipf-ish stream: heavy tokens + long tail
        toks = np.asarray(
            ["hh%d" % i for i in range(8) for _ in range(500 - 50 * i)]
            + ["tail%d" % i for i in rng.integers(0, 20000, 12000)],
            dtype=object)
        rng.shuffle(toks)
        u, c = tp._mg_block_summary(toks, k=256)
        assert u.size <= 256
        exact = pd.Series(toks).value_counts()
        # decrement bound: summary counter underestimates by <= n/(k+1)
        err = toks.size / 257
        for t, n_hat in zip(u, c):
            assert 0 < n_hat <= exact[t]
            assert exact[t] - n_hat <= err
        # superset: every token with count >= n/(k+1) survives
        for t, n in exact.items():
            if n >= err:
                assert t in set(u)

    def test_query_matches_brute(self, tmp_path):
        import pyarrow.parquet as pq
        rng = np.random.default_rng(7)
        texts = [" ".join(
            ["common"] * int(rng.integers(1, 4))
            + ["w%d" % x for x in rng.integers(0, 3000, 40)])
            for _ in range(300)]
        tab = pa.table({"doc_id": pa.array(range(300), pa.int64()),
                        "text": pa.array(texts)})
        pq.write_table(tab, tmp_path / "documents.parquet")
        got = tp.q_heavy_hitters(str(tmp_path))
        toks = pd.Series(" ".join(texts).split(" "))
        cnt = toks.value_counts()
        want = cnt[cnt >= max(len(toks) // tp.HH_FRAC, 1)]
        assert dict(zip(got["token"], got["n"])) == want.to_dict()

    def test_all_distinct_block_total_still_counted(self, tmp_path):
        # regression: a block whose tokens are ALL distinct produces an
        # EMPTY MG summary (every count ties at 1); its token total must
        # still reach n_total or the threshold drops below the oracle's
        import pyarrow.parquet as pq
        texts = ["u%d" % i for i in range(1100)]          # 1100 singleton tokens
        texts += ["hot " * 40] * 2                         # 160 'hot' occurrences
        tab = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                        "text": pa.array(texts)})
        pq.write_table(tab, tmp_path / "documents.parquet")
        got = tp.q_heavy_hitters(str(tmp_path))
        toks = pd.Series(" ".join(texts).split(" "))
        cnt = toks.value_counts()
        want = cnt[cnt >= max(len(toks) // tp.HH_FRAC, 1)]
        assert dict(zip(got["token"], got["n"])) == want.to_dict()


class TestEventFunnel:
    def test_strict_order_semantics(self, tmp_path):
        import pyarrow.parquet as pq
        from raster_functions_ray.relational import q_event_funnel
        ts = pd.to_datetime([
            "2024-01-01 10:00", "2024-01-01 11:00", "2024-01-01 12:00",  # u1 full
            "2024-01-02 09:00", "2024-01-02 08:00",  # u2: click BEFORE view
            "2024-01-03 09:00",                       # u3: view only
            "2024-01-04 09:00",                       # u4: purchase only -> absent
        ])
        tab = pa.table({
            "event_id": pa.array(range(7), pa.int64()),
            "user_id": pa.array([1, 1, 1, 2, 2, 3, 4], pa.int64()),
            "event_type": pa.array(["view", "click", "purchase",
                                    "view", "click", "view", "purchase"]),
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array([0.0] * 7, pa.float64()),
        })
        pq.write_table(tab, tmp_path / "events.parquet")
        got = q_event_funnel(str(tmp_path)).set_index("user_id")
        assert got.loc[1, "reached"] == 3
        assert got.loc[2, "reached"] == 1   # click preceded first view
        assert got.loc[3, "reached"] == 1
        assert 4 not in got.index           # never entered the funnel


class TestPqAdc:
    def test_centroid_vectors_encode_to_themselves(self):
        from raster_functions_ray import ann
        rng = np.random.default_rng(3)
        cb = rng.integers(-500, 500, (ann.PQ_M, ann.PQ_K, ann.PQ_SUB))
        v = np.concatenate([cb[m, 7] for m in range(ann.PQ_M)])[None, :]
        d = (((v.reshape(1, ann.PQ_M, 1, ann.PQ_SUB)
               - cb[None, :, :, :]) ** 2).sum(-1))
        codes = d.argmin(axis=2)
        assert (codes == 7).all()
        assert d[0, np.arange(ann.PQ_M), codes[0]].sum() == 0

    def test_pq_retrieves_planted_neighbours(self, tmp_path):
        # on CLUSTERED data (PQ's design regime — uniform random vectors
        # are its degenerate worst case: quantization error swamps the
        # concentrated distances, recall ~0 by construction) a near-copy
        # of each query must rank first
        import pyarrow.parquet as pq_
        from raster_functions_ray import ann
        rng = np.random.default_rng(17)
        nq, k = ann.N_QUERIES, ann.PQ_K
        # codebook rows (ids nq..nq+k-1): spread-out anchor points
        anchors = rng.normal(0, 1, (k, 64)).astype(np.float32) * 8
        # each query lives in anchor qi's cluster; a planted near-copy of
        # each query; far-away noise
        queries = anchors[:nq] + rng.normal(0, 0.05, (nq, 64)).astype(np.float32)
        planted = queries + rng.normal(0, 0.01, (nq, 64)).astype(np.float32)
        noise = rng.normal(0, 1, (40, 64)).astype(np.float32) + 40
        mat = np.concatenate([queries, anchors, planted, noise])
        tab = pa.table({
            "vec_id": pa.array(range(len(mat)), pa.int64()),
            "embedding": pa.array([v for v in mat.astype(np.float32)],
                                  pa.list_(pa.float32()))})
        pq_.write_table(tab, tmp_path / "embeddings.parquet")
        got = ann.q_pq_adc_topk(str(tmp_path))
        for qi in range(nq):
            # anchor qi and planted qi share the minimal ADC codes (ADC
            # cannot see within-cell displacement); tie -> lower vec_id,
            # so they occupy ranks 1-2 in id order
            top2 = got[(got["q_id"] == qi) & (got["rank"] <= 2)]
            assert set(top2["vec_id"]) == {nq + qi, nq + k + qi}


class TestDocChunking:
    def test_overlap_and_coverage_invariants(self):
        from raster_functions_ray import trainprep as tp

        out = tp.q_doc_chunking("/root/testdata/sf0.001")
        g = out.groupby("doc_id")
        # consecutive chunks overlap by SIZE-STRIDE chars; reassembling
        # chunk[i][:STRIDE] + last chunk reconstructs the document
        for doc_id, sub in list(g)[:5]:
            chunks = sub.sort_values("chunk_idx")["chunk_text"].tolist()
            rebuilt = "".join(c[:tp.CHUNK_STRIDE] for c in chunks[:-1]) + chunks[-1]
            for a, b in zip(chunks, chunks[1:]):
                assert a[tp.CHUNK_STRIDE:] == b[:tp.CHUNK_SIZE - tp.CHUNK_STRIDE]
            assert len(rebuilt) >= len(chunks[-1])
        # every non-final chunk is exactly CHUNK_SIZE chars
        last = g["chunk_idx"].transform("max")
        assert (out.loc[out["chunk_idx"] < last, "chunk_chars"]
                == tp.CHUNK_SIZE).all()


class TestCdcChunks:
    def _naive(self, text: str):
        from raster_functions_ray import textops as t

        cuts = []
        for i in range(len(text) - t.CDC_W + 1):
            h = 0
            for ch in text[i:i + t.CDC_W]:
                h = h * t.CDC_B + ord(ch)
            j = i + t.CDC_W - 1
            if h % t.CDC_M % t.CDC_DIV == 0 and j < len(text) - 1:
                cuts.append(j)
        segs, prev = [], -1
        for j in cuts:
            segs.append(j - prev)
            prev = j
        segs.append(len(text) - 1 - prev)
        return len(cuts) + 1, sum(s * s for s in segs), segs

    def test_against_naive_and_conservation(self, ray_session):
        import pyarrow.parquet as pq

        from raster_functions_ray import textops as t

        out = t.q_cdc_chunks("/root/testdata/sf0.001")
        docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                             columns=["doc_id", "text"]).to_pandas()
        docs = docs.set_index("doc_id")["text"]
        for _, row in out.head(25).iterrows():
            n, ssq, segs = self._naive(docs.loc[int(row["doc_id"])])
            assert int(row["n_chunks"]) == n
            assert int(row["sumsq_len"]) == ssq
            # chunk lengths partition the doc exactly
            assert sum(segs) == len(docs.loc[int(row["doc_id"])])

    def test_insertion_locality(self):
        """CDC's point: an insertion re-chunks only its neighborhood —
        chunk boundaries AFTER the edit shift by exactly the insert size."""
        from raster_functions_ray import textops as t

        base = ("the quick brown fox jumps over the lazy dog " * 40)
        _, _, segs0 = self._naive(base)
        edited = base[:100] + "INSERTED TEXT HERE " + base[100:]
        _, _, segs1 = self._naive(edited)
        # the tail of the chunk-length sequence is unchanged (only the
        # chunks overlapping the edit — at most 3 — may differ)
        k = min(len(segs0), len(segs1)) - 3
        assert k > 3
        assert segs0[-k:] == segs1[-k:]
