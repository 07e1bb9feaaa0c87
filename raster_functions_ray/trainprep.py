"""Training-data preparation operators beyond dedup/ANN: the stages a
100 TB LLM-corpus pipeline runs AFTER near-dup detection.

- duplicate-cluster resolution: connected components over the exact
  similarity pair graph (iterative min-label propagation, every step a
  Dataset shuffle), plus a group-aware train/holdout split so near-dups
  never straddle the split boundary
- deterministic stratified sampling: multiplicative-hash buckets with a
  per-language keep rate — reproducible across runs/workers/cluster sizes
- sequence packing: greedy fill of fixed token budgets per shard (the
  batch-assembly step of LLM pretraining), O(packs) per group via
  searchsorted on the token cumsum, not O(rows) Python
- corpus anti-dedup: drop documents whose text already exists in a
  reference ("already trained") corpus — per-block Bloom partials OR-ed
  into one broadcast prefilter, exact verify only on Bloom positives
- TF-IDF vocabulary profile: corpus top-k terms by tf·ln(N/df)

The reference repo has no analog (it processes rasters, not corpora);
these follow the same engine idioms as dedup.py/textops.py and are gated
by exact DuckDB oracles (recursive CTEs for the two inherently iterative
ones).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.aggregate import Count, Min, Sum

from .sources import read_table
from .stages.join import hash_join
from .textops import tokenize

# ---------------------------------------------------- connected components

def connected_components(edges: rd.Dataset, max_iters: int = 100) -> pd.DataFrame:
    """Min-label propagation over an undirected edge Dataset (cols u, v):
    every node ends with label = the smallest node id in its component.

    Each iteration is fully distributed — one hash join (labels onto edge
    sources) + one groupby-Min — over EDGE-sized data, which after near-dup
    candidate generation is O(duplicates), vastly smaller than the corpus.
    Labels decrease monotonically, so the label sum is a convergence
    witness; iteration count is bounded by the component diameter (near-dup
    clusters are shallow — single digits in practice).
    """
    sym = edges.map_batches(
        lambda b: pa.table({
            "src": pa.concat_arrays([b["u"].combine_chunks(), b["v"].combine_chunks()]),
            "dst": pa.concat_arrays([b["v"].combine_chunks(), b["u"].combine_chunks()]),
        }), batch_format="pyarrow").materialize()
    labels = (sym.select_columns(["src"])
              .groupby("src").aggregate(Min("src", alias_name="label"))
              .map_batches(lambda b: b.rename_columns(["node", "label"]),
                           batch_format="pyarrow")).materialize()
    prev_sum = None
    for _ in range(max_iters):
        as_src = labels.map_batches(lambda b: b.rename_columns(["src", "label"]),
                                    batch_format="pyarrow")
        msgs = (hash_join(sym, as_src, "src", "inner")
                .map_batches(lambda b: pa.table({"node": b["dst"], "label": b["label"]}),
                             batch_format="pyarrow"))
        labels = (labels.union(msgs)
                  .groupby("node").aggregate(Min("label", alias_name="label"))
                  .materialize())
        cur = labels.sum("label")
        if cur == prev_sum:
            break
        prev_sum = cur
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} iterations "
            "(component diameter exceeds the bound); raise max_iters")
    return labels.to_pandas().sort_values("node").reset_index(drop=True)


_HASH_MULT = 2654435761  # Knuth multiplicative hash (SQL sides use HUGEINT, exact for any id)


def _split_hash(ids: np.ndarray, mod: int) -> np.ndarray:
    """(id * 2654435761) mod 2^32 mod ``mod`` — uint64 wrap-around math so
    the engine matches BIGINT SQL exactly while never overflowing at
    corpus-scale ids."""
    h = (ids.astype(np.uint64) * np.uint64(_HASH_MULT)) % np.uint64(1 << 32)
    return (h % np.uint64(mod)).astype(np.int64)


def q_dup_clusters(sf_dir: str) -> pd.DataFrame:
    """Near-dup cluster resolution + group-aware split: connected
    components over the EXACT word-3-shingle Jaccard≥0.8 pair graph
    (dedup.q_ngram_jaccard — SQL-provable, unlike the MinHash graph), with
    cluster_id = min doc_id per component and a deterministic 80/20
    train/holdout split keyed on cluster_id, so every member of a near-dup
    cluster lands on the same side (no train→holdout leakage).

    Oracle: recursive CTE reachability over the identical pair SQL.
    """
    from . import dedup

    pairs = dedup.q_ngram_jaccard(sf_dir)[["doc_a", "doc_b"]]
    if pairs.empty:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "cluster_id": pd.Series([], dtype="int64"),
                             "split": pd.Series([], dtype="object")})
    edges = rd.from_arrow(pa.table({
        "u": pa.array(pairs["doc_a"].to_numpy(np.int64)),
        "v": pa.array(pairs["doc_b"].to_numpy(np.int64))}))
    labels = connected_components(edges)
    out = labels.rename(columns={"node": "doc_id", "label": "cluster_id"})
    bucket = _split_hash(out["cluster_id"].to_numpy(np.int64), 10)
    out["split"] = np.where(bucket < 8, "train", "holdout")
    return out.sort_values("doc_id").reset_index(drop=True)


def dup_clusters_oracle_sql() -> str:
    from . import dedup

    pair_sql = dedup.Q_NGRAM_JACCARD_SQL
    return f"""
WITH RECURSIVE pairs AS (
  SELECT doc_a, doc_b FROM ({pair_sql})
), edges AS (
  SELECT doc_a AS u, doc_b AS v FROM pairs
  UNION
  SELECT doc_b, doc_a FROM pairs
), walk(u, label) AS (
  SELECT u, u FROM (SELECT DISTINCT u FROM edges)
  UNION
  SELECT e.u, w.label FROM edges e JOIN walk w ON w.u = e.v
)
SELECT u AS doc_id, MIN(label) AS cluster_id,
       CASE WHEN ((CAST(MIN(label) AS HUGEINT) * {_HASH_MULT}) % 4294967296) % 10 < 8
            THEN 'train' ELSE 'holdout' END AS split
FROM walk GROUP BY u ORDER BY doc_id
"""


# ------------------------------------------------------ stratified sample

SAMPLE_RATES = {"en": 80}  # percent kept; every other language 50
SAMPLE_DEFAULT_RATE = 50


def q_stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic stratified sampling: multiplicative-hash bucket of
    doc_id in [0, 100), keep if bucket < rate(lang).  Hash-based (not RNG)
    so the sample is identical across runs, workers, and cluster sizes —
    the property that makes corpus sampling resumable/auditable at scale.
    Pure vectorized map_batches; no shuffle, no driver state."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang"])

    def keep(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"], dtype=np.int64)
        langs = np.asarray(b["lang"].to_pylist(), dtype=object)
        bucket = _split_hash(ids, 100)
        rates = np.full(ids.size, SAMPLE_DEFAULT_RATE, dtype=np.int64)
        for lg, r in SAMPLE_RATES.items():
            rates[langs == lg] = r
        m = bucket < rates
        return pa.table({"doc_id": pa.array(ids[m]),
                         "lang": pa.array(langs[m].astype(str)),
                         "bucket": pa.array(bucket[m])})

    out = ds.map_batches(keep, batch_format="pyarrow", batch_size=8192).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


Q_STRATIFIED_SAMPLE_SQL = f"""
SELECT doc_id, lang,
       CAST(((CAST(doc_id AS HUGEINT) * {_HASH_MULT}) % 4294967296) % 100 AS BIGINT) AS bucket
FROM documents
WHERE ((CAST(doc_id AS HUGEINT) * {_HASH_MULT}) % 4294967296) % 100
      < CASE lang WHEN 'en' THEN {SAMPLE_RATES['en']} ELSE {SAMPLE_DEFAULT_RATE} END
ORDER BY doc_id
"""


# -------------------------------------------------------- sequence packing

PACK_BUDGET = 256
# shards pack independently — the unit that scales out; sized well above
# any single-node core count so the groupby never caps parallelism
N_SHARDS = 64


def pack_greedy(tokens: np.ndarray, budget: int = PACK_BUDGET) -> np.ndarray:
    """Greedy first-fit-in-order packing: walk docs in order, open a new
    pack when adding the next doc would exceed ``budget`` (a doc larger
    than the budget gets a pack to itself).  O(packs·log n) via
    searchsorted on the token cumsum — no per-row Python loop."""
    n = tokens.size
    pack_id = np.empty(n, dtype=np.int64)
    cs = np.cumsum(tokens.astype(np.int64))
    i, p = 0, 0
    while i < n:
        base = cs[i - 1] if i else 0
        j = int(np.searchsorted(cs, base + budget, side="right"))
        j = max(j, i + 1)  # oversized doc: take it alone
        pack_id[i:j] = p
        i, p = j, p + 1
    return pack_id


def q_seq_packing(sf_dir: str) -> pd.DataFrame:
    """Sequence packing for LLM pretraining batches: shard docs by
    doc_id % {N_SHARDS} (shards pack independently in parallel — the unit
    that scales out), order by doc_id within shard, greedy-fill packs of
    {PACK_BUDGET} whitespace tokens.  Oracle: recursive CTE running the
    same greedy recurrence per shard."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def tok(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        nt = tokenize(df["text"]).str.len()
        ids = df["doc_id"].to_numpy(np.int64)
        return pa.table({"doc_id": pa.array(ids),
                         "shard": pa.array(ids % N_SHARDS),
                         "n_tokens": pa.array(nt.to_numpy(np.int64))})

    def pack_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        g["pack_id"] = pack_greedy(g["n_tokens"].to_numpy(np.int64))
        return g[["doc_id", "shard", "n_tokens", "pack_id"]]

    out = (ds.map_batches(tok, batch_format="pyarrow", batch_size=8192)
           .groupby("shard").map_groups(pack_group, batch_format="pandas")
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


Q_SEQ_PACKING_SQL = rf"""
WITH RECURSIVE d AS (
  SELECT doc_id, doc_id % {N_SHARDS} AS shard,
         len(list_filter(string_split_regex(text, '\s+'), x -> x <> '')) AS n_tokens,
         ROW_NUMBER() OVER (PARTITION BY doc_id % {N_SHARDS} ORDER BY doc_id) AS rn
  FROM documents
), pack(shard, rn, doc_id, n_tokens, acc, pack_id) AS (
  SELECT shard, rn, doc_id, n_tokens, n_tokens, 0 FROM d WHERE rn = 1
  UNION ALL
  SELECT d.shard, d.rn, d.doc_id, d.n_tokens,
         CASE WHEN p.acc + d.n_tokens > {PACK_BUDGET}
              THEN d.n_tokens ELSE p.acc + d.n_tokens END,
         CASE WHEN p.acc + d.n_tokens > {PACK_BUDGET}
              THEN p.pack_id + 1 ELSE p.pack_id END
  FROM d JOIN pack p ON d.shard = p.shard AND d.rn = p.rn + 1
)
SELECT doc_id, shard, n_tokens, pack_id FROM pack ORDER BY doc_id
"""


# ----------------------------------------------------- Bloom anti-dedup

BLOOM_BITS = 1 << 17  # 16 KiB per partial; sized for ~10k ref docs at <1% FP
BLOOM_K = 4
REF_MOD = 7  # reference ("already trained") corpus = docs with doc_id % 7 == 0


def _text_hash64(texts: pd.Series) -> np.ndarray:
    """Deterministic 64-bit content hash (murmur via pd.util.hash_array —
    one vectorized call per batch, same family as dedup's shingle hashes)."""
    return pd.util.hash_array(texts.to_numpy(dtype=object))


def _bloom_positions(h: np.ndarray) -> np.ndarray:
    """(n, BLOOM_K) bit positions from k mixes of the 64-bit hash
    (Kirsch–Mitzenmacher double hashing: h1 + i*h2)."""
    h1 = h
    h2 = (h >> np.uint64(17)) | np.uint64(1)
    i = np.arange(BLOOM_K, dtype=np.uint64)[None, :]
    with np.errstate(over="ignore"):
        pos = h1[:, None] + i * h2[:, None]
    return (pos % np.uint64(BLOOM_BITS)).astype(np.int64)


def _bloom_partial(b: pa.Table) -> pa.Table:
    """Per-block Bloom bitmap over the block's content hashes (int64 column
    ``h``) — the partials are tiny (BLOOM_BITS/8 bytes) and OR-associative,
    so the driver merges one small array per block instead of collecting
    per-doc hashes (which would be O(reference corpus) driver memory)."""
    bits = np.zeros(BLOOM_BITS // 64, dtype=np.uint64)
    h = np.asarray(b["h"], dtype=np.int64).view(np.uint64)
    pos = _bloom_positions(h).ravel()
    np.bitwise_or.at(bits, pos // 64, np.uint64(1) << (pos % 64).astype(np.uint64))
    return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})


def q_bloom_anti_dedup(sf_dir: str) -> pd.DataFrame:
    """Corpus anti-dedup: drop every document whose text already exists in
    the reference corpus (docs with doc_id % {REF_MOD} == 0), keep the rest.

    Scale shape: the reference side is streamed once into per-block Bloom
    partials OR-ed to one {BLOOM_BITS}-bit broadcast filter; the corpus
    side drops Bloom-negatives vectorized in map_batches (no shuffle for
    ~99% of rows).  Bloom POSITIVES (true dups + ~fpr·n false positives —
    result-sized by filter construction) are then verified on the ACTUAL
    TEXT, not the 64-bit content hash: at billions of docs, 64-bit
    cross-text collisions become expected (~n²/2/2⁶⁴) and a hash-equality
    verify would silently drop unique documents.  The verify is two
    broadcast semi-joins over O(positives) texts: positive texts → filter
    the reference stream → confirmed-duplicate texts → final drop set."""
    import pyarrow.compute as pc
    import ray

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def _is_ref(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"], dtype=np.int64)
        return b.filter(pa.array(ids % REF_MOD == 0))

    def ref_partial(b: pa.Table) -> pa.Table:
        r = _is_ref(b)
        h = _text_hash64(r["text"].to_pandas())
        return _bloom_partial(pa.table({"h": pa.array(h.view(np.int64))}))

    partials = docs.map_batches(ref_partial, batch_format="pyarrow",
                                batch_size=8192).to_pandas()
    bloom = np.zeros(BLOOM_BITS // 64, dtype=np.uint64)
    for raw in partials["bits"]:
        bloom |= np.frombuffer(raw, dtype=np.uint64)
    bloom_ref = ray.put(bloom)

    def bloom_positive(b: pa.Table) -> pa.Table:
        bits = ray.get(bloom_ref)
        h = _text_hash64(b["text"].to_pandas()).view(np.uint64)
        pos = _bloom_positions(h)
        hit = (bits[pos // 64] >> (pos % 64).astype(np.uint64)) & np.uint64(1)
        return b.filter(pa.array(hit.all(axis=1)))

    # Bloom positives carry (doc_id, text) — result-sized, so collecting
    # them is O(result), the same bound as the drop-id broadcast below
    pos = docs.map_batches(bloom_positive, batch_format="pyarrow",
                           batch_size=8192).to_pandas()
    pos_texts_ref = ray.put(pa.array(pos["text"].unique(), pa.string()))

    def confirm_ref(b: pa.Table) -> pa.Table:
        r = _is_ref(b)
        return r.select(["text"]).filter(
            pc.is_in(r["text"], value_set=ray.get(pos_texts_ref)))

    confirmed = set(docs.map_batches(confirm_ref, batch_format="pyarrow",
                                     batch_size=8192).to_pandas()["text"])
    drop_ids = pos.loc[pos["text"].isin(confirmed), "doc_id"]
    drop_ref = ray.put(pa.array(drop_ids.to_numpy(np.int64)))

    def keep(b: pa.Table) -> pa.Table:
        return b.select(["doc_id"]).filter(
            pc.invert(pc.is_in(b["doc_id"], value_set=ray.get(drop_ref))))

    out = docs.map_batches(keep, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


Q_BLOOM_ANTI_DEDUP_SQL = f"""
SELECT doc_id FROM documents
WHERE text NOT IN (SELECT text FROM documents WHERE doc_id % {REF_MOD} = 0)
ORDER BY doc_id
"""


# -------------------------------------------------------------- TF-IDF

TFIDF_TOP_K = 20


def q_tfidf_top_terms(sf_dir: str) -> pd.DataFrame:
    """Corpus vocabulary profile: top-{TFIDF_TOP_K} terms by
    tf·ln(N/df) (corpus term frequency × inverse document frequency).

    Per-batch partial (term, tf, df) triples — df partials are additive
    because each doc lives in exactly one batch — then one groupby-Sum
    over the VOCABULARY (≪ corpus), score + top-k on the aggregate."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = ds.count()

    def partial(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        toks = tokenize(df["text"]).explode()
        toks = toks[toks.notna()]
        tf = toks.groupby(toks).size()
        uniq = toks.reset_index().drop_duplicates()  # (doc row, term)
        dfreq = uniq.groupby(uniq.columns[1]).size()
        return pa.table({"term": pa.array(tf.index.astype(str)),
                         "tf": pa.array(tf.to_numpy(np.int64)),
                         "df": pa.array(dfreq.reindex(tf.index).to_numpy(np.int64))})

    agg = (ds.map_batches(partial, batch_format="pyarrow", batch_size=8192)
           .groupby("term")
           .aggregate(Sum("tf", alias_name="tf"), Sum("df", alias_name="df"))
           .to_pandas())
    score = agg["tf"].to_numpy(np.float64) * np.log(float(n_docs) / agg["df"].to_numpy(np.float64))
    agg = agg.assign(_s=score, tfidf=np.round(score, 6))
    agg = agg.sort_values(["_s", "term"], ascending=[False, True]).head(TFIDF_TOP_K)
    return agg[["term", "tf", "df", "tfidf"]].reset_index(drop=True)


Q_TFIDF_TOP_TERMS_SQL = rf"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(text, '\s+'), x -> x <> '')) AS term
  FROM documents
), stats AS (
  SELECT term, COUNT(*) AS tf, COUNT(DISTINCT doc_id) AS df FROM toks GROUP BY term
), n AS (SELECT COUNT(*) AS n FROM documents)
SELECT term, tf, df, ROUND(tf * LN(CAST(n.n AS DOUBLE) / df), 6) AS tfidf
FROM stats, n
ORDER BY tf * LN(CAST(n.n AS DOUBLE) / df) DESC, term
LIMIT {TFIDF_TOP_K}
"""


# ------------------------------------------------------- per-domain caps

DOMAIN_CAP_N = 15  # max docs kept per source/domain


def q_domain_cap(sf_dir: str) -> pd.DataFrame:
    """Per-domain document caps: keep at most {DOMAIN_CAP_N} documents per
    ``source``, preferring longer documents (n_chars DESC, doc_id ASC
    tie-break) — the standard web-corpus guard against a single domain
    dominating the training mix.

    Scale shape: top-N-per-key is associative, so every block first
    reduces to ≤ N rows per source it contains (vectorized pandas
    sort+head, no Python loop), and the groupby shuffle ships only those
    partials — O(sources × blocks × N), independent of corpus size. The
    final per-source merge re-applies the same selection. No full-corpus
    sort anywhere."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def topn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["n_chars", "doc_id"], ascending=[False, True])
        return df.groupby("source", sort=False).head(DOMAIN_CAP_N)

    out = (ds.map_batches(topn, batch_format="pandas", batch_size=8192)
           .groupby("source").map_groups(topn, batch_format="pandas")
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)[
        ["doc_id", "source", "n_chars"]]


Q_DOMAIN_CAP_SQL = f"""
SELECT doc_id, source, n_chars FROM (
  SELECT doc_id, source, n_chars,
         ROW_NUMBER() OVER (PARTITION BY source
                            ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents
) WHERE rn <= {DOMAIN_CAP_N}
ORDER BY doc_id
"""


# ------------------------------------------- within-document repetition

REP_W = 2  # word-bigram window (Gopher-style duplicate-n-gram fraction)


def q_doc_repetition(sf_dir: str) -> pd.DataFrame:
    """Within-document repetition score: per document, the total number of
    word bigrams and how many of them are repeats (occurrences beyond the
    first of each distinct bigram) — the Gopher/FineWeb "fraction of
    characters in duplicated n-grams" quality signal, in count form so the
    gate is integer-exact.

    Purely local per document, so the whole operator is ONE vectorized
    map_batches with zero shuffle: bigrams for every doc in a batch come
    from a single flat shifted-concatenation pass (textops._word_ngrams_flat),
    and the per-doc distinct/total counts from one pandas groupby."""
    from .textops import _word_ngrams_flat

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def rep(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        d, grams = _word_ngrams_flat(df["text"], REP_W)
        if d.size == 0:
            return pd.DataFrame({"doc_id": np.empty(0, np.int64),
                                 "n_grams": np.empty(0, np.int64),
                                 "n_dup": np.empty(0, np.int64)})
        pairs = pd.DataFrame({"d": d, "g": grams})
        per = pairs.groupby(["d", "g"], sort=False).size()
        total = per.groupby(level=0).sum()
        distinct = per.groupby(level=0).size()
        ids = df["doc_id"].to_numpy()[total.index.to_numpy()]
        return pd.DataFrame({
            "doc_id": ids,
            "n_grams": total.to_numpy(np.int64),
            "n_dup": (total - distinct).to_numpy(np.int64)})

    out = ds.map_batches(rep, batch_format="pyarrow", batch_size=8192).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _rep_gram_sql() -> str:
    from .textops import gram_sql
    return gram_sql(REP_W)


Q_DOC_REPETITION_SQL = f"""
WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS l FROM documents
), sh AS (
  SELECT doc_id, {_rep_gram_sql()} AS s
  FROM (SELECT doc_id, l, unnest(generate_series(1, len(l) - {REP_W - 1})) AS u FROM w)
), per AS (
  SELECT doc_id, s, COUNT(*) AS c FROM sh GROUP BY doc_id, s
)
SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_grams,
       CAST(SUM(c - 1) AS BIGINT) AS n_dup
FROM per GROUP BY doc_id ORDER BY doc_id
"""


# ------------------------------------------------ deterministic shuffle

SHUFFLE_LIMIT = 200


def q_shuffle_order(sf_dir: str) -> pd.DataFrame:
    """Deterministic global training-order shuffle: every document gets a
    pseudo-random sort key from the same multiplicative hash as
    stratified sampling (bijective mod 2^32 for distinct ids, so the
    order is total and reproducible across runs and cluster sizes), then
    a DISTRIBUTED sort materializes the order; the first
    {SHUFFLE_LIMIT} documents of the epoch are returned.

    This is the one training-prep stage that is INHERENTLY an all-to-all
    (a global permutation must move every row), so it uses ds.sort — Ray
    Data's range-partitioned shuffle — rather than fighting it; the hash
    key (not an RNG) is what makes retries/resumes idempotent."""
    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def key(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"], dtype=np.int64)
        h = (ids.astype(np.uint64) * np.uint64(_HASH_MULT)) % np.uint64(1 << 32)
        return pa.table({"skey": pa.array(h.astype(np.int64)),
                         "doc_id": pa.array(ids)})

    out = (ds.map_batches(key, batch_format="pyarrow", batch_size=8192)
           .sort(["skey", "doc_id"]).limit(SHUFFLE_LIMIT).to_pandas())
    return out.reset_index(drop=True)


Q_SHUFFLE_ORDER_SQL = f"""
SELECT CAST((CAST(doc_id AS HUGEINT) * {_HASH_MULT}) % 4294967296 AS BIGINT) AS skey, doc_id
FROM documents
ORDER BY skey, doc_id
LIMIT {SHUFFLE_LIMIT}
"""


# --------------------------------------- HyperLogLog cardinality sketch

HLL_P = 8                 # 2^8 = 256 registers
HLL_M = 1 << HLL_P
HLL_W_BITS = 32 - HLL_P   # value bits per item after bucket extraction
HLL_GRAM_W = 3            # shingle width whose cardinality is sketched


def _poly31_u32(strings: np.ndarray) -> np.ndarray:
    """Vectorized Horner polynomial hash ``acc = (acc*31 + codepoint) mod
    2^32`` over every string at once (fixed-width UTF-32 view, one masked
    Horner step per character column — no per-row Python).  Chosen because
    the IDENTICAL recurrence is expressible in DuckDB
    (``list_reduce(list_transform(string_split(s,''), c -> unicode(c)),
    (a,b) -> (a*31+b) % 4294967296)``), giving register-level oracle
    parity that library hashes (murmur etc.) cannot."""
    arr = np.asarray(strings, dtype=str)
    if arr.size == 0:
        return np.empty(0, dtype=np.uint64)
    width = arr.dtype.itemsize // 4
    cp = arr.view(np.uint32).reshape(arr.size, width).astype(np.uint64)
    acc = np.zeros(arr.size, dtype=np.uint64)
    mod = np.uint64(1 << 32)
    for j in range(width):
        c = cp[:, j]
        live = c != 0
        acc[live] = (acc[live] * np.uint64(31) + c[live]) % mod
    return acc


def hll_partial(grams: np.ndarray) -> np.ndarray:
    """One block's HLL registers (length {HLL_M} uint8) over item strings."""
    reg = np.zeros(HLL_M, dtype=np.uint8)
    if grams.size == 0:
        return reg
    h = _poly31_u32(grams)
    bucket = (h % np.uint64(HLL_M)).astype(np.int64)
    w = (h >> np.uint64(HLL_P)).astype(np.int64)
    # rho = leading zeros in the W_BITS-wide value + 1 = W_BITS+1 - bitlen(w);
    # frexp exponent IS bitlen for w>0 and 0 for w==0, so one formula covers both
    bitlen = np.frexp(w.astype(np.float64))[1]
    rho = (HLL_W_BITS + 1 - bitlen).astype(np.uint8)
    np.maximum.at(reg, bucket, rho)
    return reg


def hll_estimate(reg: np.ndarray) -> float:
    """Raw HLL estimate alpha_m * m^2 / sum(2^-reg).  The sum of 256 exact
    powers of two needs < 2^53 mantissa bits, so it is EXACT in float64
    regardless of summation order — deterministic across cluster sizes."""
    m = float(HLL_M)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    return alpha * m * m / float(np.sum(np.ldexp(1.0, -reg.astype(np.int64))))


def q_hll_distinct(sf_dir: str) -> pd.DataFrame:
    """Distributed cardinality sketch: HyperLogLog registers over the
    corpus's word-{HLL_GRAM_W}-gram shingle space — the planning statistic
    a 100 TB dedup run needs ("how big is the shingle universe?") without
    a COUNT DISTINCT shuffle.

    Scale shape: each block reduces to a {HLL_M}-register partial
    (max-associative, {HLL_M} bytes); a groupby-Max over register INDEX
    (≤ {HLL_M} keys total) merges them.  Nothing corpus-sized ever moves:
    the shuffle payload is O(blocks × {HLL_M}) bytes.  The register table
    itself is the query output — integer-exact against a DuckDB oracle
    that recomputes the identical hash/bucket/rho arithmetic in SQL —
    making the gate stronger than comparing the (derived) scalar
    estimate.  hll_estimate() turns the merged registers into the
    cardinality figure; tests bound its error vs the true distinct count."""
    from .textops import _word_ngrams_flat

    ds = read_table(sf_dir, "documents", columns=["text"])

    def partial(b: pa.Table) -> pa.Table:
        _, grams = _word_ngrams_flat(b.to_pandas()["text"], HLL_GRAM_W)
        reg = hll_partial(grams)
        nz = np.flatnonzero(reg)
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "reg": pa.array(reg[nz].astype(np.int64))})

    from ray.data.aggregate import Max
    # batch_size=None: one task per storage block — the partial is 256 rows
    # whatever the batch size, so smaller batches cost nothing downstream
    # and keep every core busy (8192 would coalesce all blocks into ONE task)
    out = (ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
           .groupby("bucket").aggregate(Max("reg", alias_name="reg"))
           .to_pandas())
    return out.sort_values("bucket").reset_index(drop=True)


def _hll_gram_sql() -> str:
    from .textops import gram_sql
    return gram_sql(HLL_GRAM_W)


Q_HLL_DISTINCT_SQL = f"""
WITH w AS (
  SELECT string_split(text, ' ') AS l FROM documents
), g AS (
  SELECT {_hll_gram_sql()} AS s
  FROM (SELECT l, unnest(generate_series(1, len(l) - {HLL_GRAM_W - 1})) AS u FROM w)
), h AS (
  SELECT list_reduce(list_transform(string_split(s, ''), c -> CAST(unicode(c) AS BIGINT)),
                     (a, b) -> (a * 31 + b) % 4294967296) AS h32
  FROM g
)
SELECT h32 % {HLL_M} AS bucket,
       MAX(CASE WHEN h32 // {HLL_M} = 0 THEN {HLL_W_BITS + 1}
                ELSE {HLL_W_BITS + 1} - length(bin(h32 // {HLL_M})) END) AS reg
FROM h GROUP BY bucket ORDER BY bucket
"""


# ------------------------------------------- budgeted corpus selection

SELECT_BUDGET = 12_000  # global token budget


def q_budget_select(sf_dir: str) -> pd.DataFrame:
    """Token-budget corpus selection: walk documents in priority order
    (n_chars DESC, doc_id ASC) and keep while the GLOBAL running token
    total stays within {SELECT_BUDGET} — the "best docs until the budget
    is full" curation step.

    The global ordered cumsum is computed WITHOUT a global sort: the
    priority key's first component (n_chars) range-partitions the corpus,
    so phase 1 is a tiny groupby (one row per distinct n_chars: bucket
    token totals), phase 2 prefix-sums those ~hundreds of bucket totals on
    the driver (O(distinct key values), not O(corpus)) and broadcasts each
    bucket's starting offset, and phase 3 finishes the cumsum INSIDE each
    bucket via groupby().map_groups — a classic distributed prefix sum
    where buckets are the parallel unit.  All counts integer → the SQL
    window oracle (SUM OVER ORDER BY ... QUALIFY) matches exactly."""
    import ray

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])

    def tokens(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        n = tokenize(df["text"]).str.len().astype("int64")
        return pa.table({"doc_id": pa.array(df["doc_id"].to_numpy(np.int64)),
                         "n_chars": pa.array(df["n_chars"].to_numpy(np.int64)),
                         "n_tokens": pa.array(n.to_numpy(np.int64))})

    toks = ds.map_batches(tokens, batch_format="pyarrow",
                          batch_size=None).materialize()

    # phase 1: per-bucket totals (bucket = n_chars value; DESC priority)
    bucket_tot = (toks.groupby("n_chars")
                  .aggregate(Sum("n_tokens", alias_name="tot")).to_pandas())
    bucket_tot = bucket_tot.sort_values("n_chars", ascending=False)
    # phase 2: offsets — cumsum over the TINY bucket table, shifted by one
    offs = bucket_tot["tot"].cumsum().shift(fill_value=0).to_numpy(np.int64)
    off_map = dict(zip(bucket_tot["n_chars"].to_numpy(np.int64), offs))
    # buckets whose offset already exceeds the budget can be dropped before
    # the shuffle — at scale this prunes most of the corpus at the metadata
    # <=, not <: a zero-token doc at the head of a bucket whose offset
    # equals the budget exactly still qualifies (cum == budget)
    live = {k for k, o in off_map.items() if o <= SELECT_BUDGET}
    off_ref = ray.put(off_map)

    import pyarrow.compute as pc
    live_arr = pa.array(sorted(live), pa.int64())
    cand = toks.map_batches(
        lambda b: b.filter(pc.is_in(b["n_chars"], value_set=live_arr)),
        batch_format="pyarrow")

    # phase 3: finish the cumsum inside each bucket (ordered by doc_id)
    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id").reset_index(drop=True)
        base = ray.get(off_ref)[int(g["n_chars"].iloc[0])]
        g["cum_tokens"] = base + g["n_tokens"].cumsum().to_numpy(np.int64)
        return g[g["cum_tokens"] <= SELECT_BUDGET][
            ["doc_id", "n_tokens", "cum_tokens"]]

    out = (cand.groupby("n_chars").map_groups(finish, batch_format="pandas")
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


Q_BUDGET_SELECT_SQL = rf"""
SELECT doc_id, n_tokens, cum_tokens FROM (
  SELECT doc_id,
         len(list_filter(string_split_regex(text, '\s+'), x -> x <> ''))
             AS n_tokens,
         CAST(SUM(len(list_filter(string_split_regex(text, '\s+'), x -> x <> '')))
              OVER (ORDER BY n_chars DESC, doc_id
                    ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_tokens
  FROM documents
) WHERE cum_tokens <= {SELECT_BUDGET}
ORDER BY doc_id
"""


# ---------------------------------------------------- paragraph dedup

PARA_W = 10        # words per paragraph chunk
_PIDX_STRIDE = 1 << 20


def q_paragraph_dedup(sf_dir: str) -> pd.DataFrame:
    """Paragraph-level exact dedup: documents explode into non-overlapping
    {PARA_W}-word chunks; chunks shared by ≥2 positions report their first
    occurrence (min (doc_id, pidx)) and copy count.  The sub-document
    complement of exact_dedup — boilerplate paragraphs repeat across
    otherwise-unique pages, and a whole-doc hash never sees them.

    Scale shape: chunk rows are corpus-sized but the groupby key is the
    chunk text (hash-partitioned shuffle, same as exact dedup); output is
    duplicate-sized."""
    from ray.data.aggregate import Count, Min

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def chunks(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"], dtype=np.int64)
        keys, paras = [], []
        for i, t in enumerate(b["text"].to_pylist()):
            toks = t.split(" ")
            for u in range(len(toks) // PARA_W):
                keys.append(ids[i] * _PIDX_STRIDE + u)
                paras.append(" ".join(toks[u * PARA_W:(u + 1) * PARA_W]))
        return pa.table({"key": pa.array(keys, pa.int64()),
                         "para": pa.array(paras, pa.string())})

    out = (ds.map_batches(chunks, batch_format="pyarrow", batch_size=4096)
           .groupby("para")
           .aggregate(Min("key", alias_name="keep_key"),
                      Count(alias_name="n_copies"))
           .to_pandas())
    out = out[out["n_copies"] >= 2]
    res = pd.DataFrame({
        "keep_doc_id": (out["keep_key"] // _PIDX_STRIDE).astype("int64"),
        "keep_pidx": (out["keep_key"] % _PIDX_STRIDE).astype("int64"),
        "n_copies": out["n_copies"].astype("int64"),
    })
    return (res.sort_values(["keep_doc_id", "keep_pidx"])
            .reset_index(drop=True))


Q_PARAGRAPH_DEDUP_SQL = f"""
WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS l FROM documents
), p AS (
  SELECT doc_id, u AS pidx,
         array_to_string(l[(u * {PARA_W} + 1):(u * {PARA_W} + {PARA_W})], ' ') AS para
  FROM (SELECT doc_id, l, unnest(generate_series(0, len(l) // {PARA_W} - 1)) AS u
        FROM w)
), g AS (
  SELECT MIN(doc_id * {_PIDX_STRIDE} + pidx) AS keep_key, COUNT(*) AS n_copies
  FROM p GROUP BY para HAVING COUNT(*) >= 2
)
SELECT CAST(keep_key // {_PIDX_STRIDE} AS BIGINT) AS keep_doc_id,
       CAST(keep_key % {_PIDX_STRIDE} AS BIGINT) AS keep_pidx,
       CAST(n_copies AS BIGINT) AS n_copies
FROM g ORDER BY keep_doc_id, keep_pidx
"""


# ------------------------------------------------- mixture rebalancing

MIX_BUDGET = 300                    # total docs the mixture may keep
MIX_WEIGHTS = {"src0": 30, "src1": 20}  # percent; others share the rest evenly


def _mix_budgets(counts: dict[str, int]) -> dict[str, int]:
    """Per-source doc budgets from the target mixture weights — pure
    integer arithmetic so engine and oracle agree exactly."""
    named = {s: w for s, w in MIX_WEIGHTS.items() if s in counts}
    rest = [s for s in sorted(counts) if s not in named]
    rem_pct = 100 - sum(named.values())
    out = {s: (MIX_BUDGET * w) // 100 for s, w in named.items()}
    for i, s in enumerate(rest):
        # even split of the remaining budget, remainder to the first sources
        share = (MIX_BUDGET * rem_pct) // 100
        out[s] = share // len(rest) + (1 if i < share % len(rest) else 0)
    return out


def q_mixture_rebalance(sf_dir: str) -> pd.DataFrame:
    """Deterministic source-mixture rebalancing: given target proportions
    per source and a total budget, each source keeps
    ⌊budget_s · 2³² / count_s⌋-fraction of its docs by multiplicative-hash
    bucket — the curriculum-mixing stage of a training-data pipeline,
    reproducible across runs/workers/cluster sizes.

    Two-phase plan: per-source counts (tiny groupby) → integer thresholds
    on the driver → broadcast threshold map filtered vectorized in
    map_batches.  All arithmetic integral (HUGEINT on the SQL side), so
    engine and oracle select identical rows."""
    import ray
    from ray.data.aggregate import Count

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    counts = {r["source"]: int(r["count()"])
              for r in ds.groupby("source").aggregate(Count()).take_all()}
    budgets = _mix_budgets(counts)
    thresholds = {s: min(1 << 32, (budgets.get(s, 0) << 32) // counts[s])
                  for s in counts}
    tref = ray.put(thresholds)

    def keep(b: pa.Table) -> pa.Table:
        th = ray.get(tref)
        ids = np.asarray(b["doc_id"], dtype=np.int64)
        src = np.asarray(b["source"].to_pylist(), dtype=object)
        h = (ids.astype(np.uint64) * np.uint64(_HASH_MULT)) % np.uint64(1 << 32)
        lim = np.array([th[s] for s in src], dtype=np.uint64)
        m = h < lim
        return pa.table({"doc_id": pa.array(ids[m]),
                         "source": pa.array(src[m].astype(str))})

    out = ds.map_batches(keep, batch_format="pyarrow", batch_size=8192).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def mixture_rebalance_oracle_sql() -> str:
    # the threshold arithmetic re-derived IN SQL from the same counts
    named = sorted(MIX_WEIGHTS)
    named_cases = " ".join(
        f"WHEN c.source = '{s}' THEN {MIX_WEIGHTS[s]}" for s in named)
    named_list = ", ".join(f"'{s}'" for s in named)
    rem_pct = 100 - sum(MIX_WEIGHTS.values())
    return f"""
WITH cnt AS (
  SELECT source, COUNT(*) AS n FROM documents GROUP BY source
), rest AS (
  SELECT source, ROW_NUMBER() OVER (ORDER BY source) - 1 AS ri,
         COUNT(*) OVER () AS nrest
  FROM cnt WHERE source NOT IN ({named_list})
), budget AS (
  SELECT c.source AS source, c.n AS n,
         CASE WHEN c.source IN ({named_list})
              THEN (CASE {named_cases} END) * {MIX_BUDGET} // 100
              ELSE ({MIX_BUDGET} * {rem_pct} // 100) // r.nrest
                   + CASE WHEN r.ri < ({MIX_BUDGET} * {rem_pct} // 100) % r.nrest
                          THEN 1 ELSE 0 END
         END AS b
  FROM cnt c LEFT JOIN rest r ON c.source = r.source
), thr AS (
  SELECT budget.source AS source,
         LEAST(4294967296, (CAST(b AS HUGEINT) * 4294967296) // n) AS t
  FROM budget
)
SELECT d.doc_id, d.source
FROM documents d JOIN thr ON d.source = thr.source
WHERE (CAST(d.doc_id AS HUGEINT) * {_HASH_MULT}) % 4294967296 < thr.t
ORDER BY d.doc_id
"""


Q_MIXTURE_REBALANCE_SQL = mixture_rebalance_oracle_sql()


# ------------------------------------- DSIR-style importance weighting

DSIR_B = 65536  # hashed-bigram feature buckets (Xie et al. 2023 use 10^4-10^5)
_DSIR_SHARDS = 32


def _dsir_buckets(texts: pd.Series) -> tuple[np.ndarray, np.ndarray]:
    """(doc_idx, bucket) for every word-bigram occurrence, via the
    oracle-mirrored poly31 hash (see _poly31_u32) mod DSIR_B."""
    from .textops import _word_ngrams_flat

    doc_idx, grams = _word_ngrams_flat(texts, 2)
    if grams.size == 0:
        return doc_idx.astype(np.int64), np.empty(0, np.int64)
    return doc_idx.astype(np.int64), (_poly31_u32(grams.astype(str))
                                      % DSIR_B).astype(np.int64)


def _dsir_is_target(source: pd.Series) -> np.ndarray:
    """Target-domain predicate: numeric source suffix divisible by 5
    (srcN tables; scale-factor-independent, unlike a literal name list)."""
    return (source.str.slice(3).astype(np.int64) % 5 == 0).to_numpy()


def q_importance_mass(sf_dir: str) -> pd.DataFrame:
    """Data Selection via Importance Resampling (DSIR, Xie et al. 2023)
    re-expressed integer-exact: documents are scored by how much
    target-domain vs source-domain probability mass their hashed-bigram
    features carry.  DSIR's log-ratio weight log p_tgt(doc) − log p_src(doc)
    is a monotone function of these masses at fixed n_bigrams; the gate
    compares the integer numerators (occurrence counts per feature bucket)
    rather than transcendental logs, so the oracle is hash-exact.

    Plan: (1) feature pass — word bigrams → poly31 % {DSIR_B} buckets,
    per-block np.bincount partials per domain; (2) sharded vectorized
    groupby-sum → global (bucket, tgt_n, src_n) model, ≤ {DSIR_B} rows by
    construction (THE DSIR trick: the hash projection bounds model size
    at any corpus scale, so it broadcasts); (3) scoring pass — per-doc
    mass via one np.bincount over the broadcast model arrays.
    Two corpus reads, zero corpus-sized shuffles."""
    import ray

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def partials(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        d, bkt = _dsir_buckets(df["text"])
        if bkt.size == 0:
            z = np.empty(0, np.int64)
            return pa.table({"bkt": pa.array(z), "tgt_n": pa.array(z),
                             "src_n": pa.array(z), "shard": pa.array(z)})
        tgt = _dsir_is_target(df["source"])[d]
        t = np.bincount(bkt[tgt], minlength=DSIR_B).astype(np.int64)
        s = np.bincount(bkt[~tgt], minlength=DSIR_B).astype(np.int64)
        nz = np.flatnonzero(t | s)
        return pa.table({"bkt": pa.array(nz), "tgt_n": pa.array(t[nz]),
                         "src_n": pa.array(s[nz]),
                         "shard": pa.array(nz % _DSIR_SHARDS)})

    def shard_sum(g: pd.DataFrame) -> pd.DataFrame:
        u, inv = np.unique(g["bkt"].to_numpy(np.int64), return_inverse=True)
        return pd.DataFrame({
            "bkt": u,
            "tgt_n": np.bincount(inv, weights=g["tgt_n"].to_numpy(np.float64))
                       .astype(np.int64),
            "src_n": np.bincount(inv, weights=g["src_n"].to_numpy(np.float64))
                       .astype(np.int64)})

    model = (docs.map_batches(partials, batch_format="pyarrow", batch_size=2048)
             .groupby("shard").map_groups(shard_sum, batch_format="pandas")
             .to_pandas())
    tgt_arr = np.zeros(DSIR_B, np.int64)
    src_arr = np.zeros(DSIR_B, np.int64)
    tgt_arr[model["bkt"].to_numpy()] = model["tgt_n"].to_numpy()
    src_arr[model["bkt"].to_numpy()] = model["src_n"].to_numpy()
    model_ref = ray.put((tgt_arr, src_arr))

    def score(b: pa.Table) -> pd.DataFrame:
        ta, sa = ray.get(model_ref)
        df = b.to_pandas()
        d, bkt = _dsir_buckets(df["text"])
        if bkt.size == 0:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "n_bigrams": pd.Series([], dtype="int64"),
                                 "tgt_mass": pd.Series([], dtype="int64"),
                                 "src_mass": pd.Series([], dtype="int64")})
        nd = len(df)
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "n_bigrams": np.bincount(d, minlength=nd).astype(np.int64),
            "tgt_mass": np.bincount(d, weights=ta[bkt].astype(np.float64),
                                    minlength=nd).astype(np.int64),
            "src_mass": np.bincount(d, weights=sa[bkt].astype(np.float64),
                                    minlength=nd).astype(np.int64),
        }).loc[lambda x: x["n_bigrams"] > 0]

    out = docs.map_batches(score, batch_format="pyarrow", batch_size=2048).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


_DSIR_POLY31_SQL = ("list_reduce(list_transform(string_split(s, ''), "
                    "c -> CAST(unicode(c) AS BIGINT)), "
                    "(a, b) -> (a * 31 + b) % 4294967296)")


def importance_mass_oracle_sql() -> str:
    from .textops import gram_sql
    return f"""
WITH w AS (
  SELECT doc_id, source, string_split(text, ' ') AS l FROM documents
), g AS (
  SELECT doc_id, source, {gram_sql(2)} AS s
  FROM (SELECT doc_id, source, l,
               unnest(generate_series(1, len(l) - 1)) AS u FROM w)
), b AS (
  SELECT doc_id, source, {_DSIR_POLY31_SQL} % {DSIR_B} AS bkt FROM g
), m AS (
  SELECT bkt,
         SUM(CASE WHEN CAST(substring(source, 4) AS BIGINT) % 5 = 0
                  THEN 1 ELSE 0 END) AS tgt_n,
         SUM(CASE WHEN CAST(substring(source, 4) AS BIGINT) % 5 = 0
                  THEN 0 ELSE 1 END) AS src_n
  FROM b GROUP BY bkt
)
SELECT b.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_bigrams,
       CAST(SUM(m.tgt_n) AS BIGINT) AS tgt_mass,
       CAST(SUM(m.src_n) AS BIGINT) AS src_mass
FROM b JOIN m USING (bkt)
GROUP BY b.doc_id ORDER BY doc_id
"""


Q_IMPORTANCE_MASS_SQL = importance_mass_oracle_sql()


# ---------------------------------- heavy hitters (Misra-Gries + confirm)

HH_K = 256      # per-block summary capacity (global error <= n / (K+1))
HH_FRAC = 100   # heavy = count >= total_tokens // HH_FRAC


def _mg_prune(u: np.ndarray, c: np.ndarray, k: int):
    """Misra-Gries capacity prune: the minimal uniform decrement ``d``
    leaving <= k positive counters (d = (k+1)-th largest count)."""
    if u.size <= k:
        return u, c.astype(np.int64)
    d = np.partition(c, u.size - k - 1)[u.size - k - 1]
    keep = c > d
    return u[keep], (c[keep] - d).astype(np.int64)


def _mg_block_summary(tokens: np.ndarray, k: int = HH_K):
    """Misra-Gries summary of one block from its exact counts (Agarwal
    et al., "Mergeable Summaries": per-block decrement <= block_n/(k+1);
    summing counters across summaries then re-pruning to capacity k keeps
    the TOTAL underestimate <= n/(k+1) regardless of merge tree, so any
    token with true count >= n/(k+1) keeps a positive counter)."""
    u, c = np.unique(tokens, return_counts=True)
    return _mg_prune(u, c, k)


def q_heavy_hitters(sf_dir: str) -> pd.DataFrame:
    """EXACT corpus heavy hitters (tokens with count >= total // {HH_FRAC})
    via the sketch-prefilter + exact-confirm shape: per-block Misra-Gries
    summaries (capacity {HH_K}) merge into a candidate set that PROVABLY
    contains every true heavy hitter (summed decrements < n/(K+1) <
    threshold n/{HH_FRAC}), then one broadcast-filtered counting pass
    computes exact counts for candidates only.  Unlike the sharded-count
    ops, NO corpus-cardinality key ever shuffles: blocks emit <= {HH_K}
    summary rows each, and the confirm pass moves candidate-sized data.

    Merging is a driver reduce over tiny summaries (<= K rows x blocks);
    at cluster scale the same merge is associative, so it tree-reduces.
    The SQL oracle is definitionally simple (GROUP BY HAVING) — the gate
    therefore tests the sketch's superset guarantee end-to-end: a sketch
    bug that dropped a true heavy hitter would hash-mismatch."""
    import ray

    from .textops import _word_ngrams_flat

    docs = read_table(sf_dir, "documents", columns=["text"])

    def summaries(b: pa.Table) -> pa.Table:
        _, toks = _word_ngrams_flat(pd.Series(b["text"].to_pandas()), 1)
        u, c = _mg_block_summary(toks)
        # the block token total rides on a dedicated NULL-token row — never
        # on a summary row: the prune can return an EMPTY summary (>= K+1
        # tokens tied at the block max), and a lost block total would lower
        # the threshold below the oracle's
        return pa.table({
            "token": pa.array(np.concatenate([u, [None]]), pa.string()),
            "n_hat": pa.array(np.concatenate([c, [0]]), pa.int64()),
            "block_total": pa.array(
                np.concatenate([np.zeros(u.size, np.int64), [toks.size]]),
                pa.int64())})

    sm = docs.map_batches(summaries, batch_format="pyarrow",
                          batch_size=1024).to_pandas()
    if sm.empty:
        return pd.DataFrame({"token": pd.Series([], dtype="object"),
                             "n": pd.Series([], dtype="int64")})
    n_total = int(sm["block_total"].sum())
    thresh = max(n_total // HH_FRAC, 1)
    sm = sm[sm["token"].notna()]
    if sm.empty:
        return pd.DataFrame({"token": pd.Series([], dtype="object"),
                             "n": pd.Series([], dtype="int64")})
    # merge = sum counters per token, then re-prune to capacity K: the
    # candidate broadcast stays <= K rows at ANY block count (without the
    # prune it grows as K x blocks), and the mergeable-summaries bound
    # still guarantees every true heavy hitter survives
    merged = sm.groupby("token", sort=False)["n_hat"].sum()
    cand, _ = _mg_prune(merged.index.to_numpy(dtype=object),
                        merged.to_numpy(np.int64), HH_K)
    cand_ref = ray.put(pa.array(cand, pa.string()))

    def count_candidates(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        _, toks = _word_ngrams_flat(pd.Series(b["text"].to_pandas()), 1)
        arr = pa.array(toks, pa.string())
        hit = arr.filter(pc.is_in(arr, value_set=ray.get(cand_ref)))
        u, c = np.unique(np.asarray(hit, dtype=object), return_counts=True)
        return pa.table({"token": pa.array(u, pa.string()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    parts = (docs.map_batches(count_candidates, batch_format="pyarrow",
                              batch_size=1024).to_pandas())
    totals = parts.groupby("token", sort=False)["n"].sum().reset_index()
    out = totals[totals["n"] >= thresh]
    return (out.sort_values("token").reset_index(drop=True)
            .astype({"n": "int64"}))


Q_HEAVY_HITTERS_SQL = f"""
WITH tok AS (
  SELECT unnest(string_split(text, ' ')) AS token FROM documents
), tot AS (SELECT COUNT(*) AS n_total FROM tok)
SELECT token, CAST(COUNT(*) AS BIGINT) AS n
FROM tok GROUP BY token
HAVING COUNT(*) >= GREATEST((SELECT n_total FROM tot) // {HH_FRAC}, 1)
ORDER BY token
"""


# ----------------------------------------------------- document chunking

CHUNK_SIZE = 120   # characters per training chunk
CHUNK_STRIDE = 100  # overlap = CHUNK_SIZE - CHUNK_STRIDE


def q_doc_chunking(sf_dir: str) -> pd.DataFrame:
    """Overlapping fixed-window document chunking — the context-window
    prep step between cleaning and sequence packing: every document
    becomes ⌈(len−{CHUNK_SIZE})/{CHUNK_STRIDE}⌉+1 chunks of ≤{CHUNK_SIZE}
    chars starting every {CHUNK_STRIDE} (so consecutive chunks share
    {CHUNK_SIZE}-{CHUNK_STRIDE} chars of context; short docs yield one).

    Scale shape: pure map — no shuffle, no state; the per-batch loop is
    over CHUNK POSITIONS (bounded by the longest doc in the batch, each
    iteration a vectorized .str.slice over every doc still long enough),
    never over rows."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def chunks(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        L = df["text"].str.len().to_numpy(np.int64)
        n_chunks = np.where(
            L <= CHUNK_SIZE, 1,
            (L - CHUNK_SIZE + CHUNK_STRIDE - 1) // CHUNK_STRIDE + 1)
        frames = []
        for i in range(int(n_chunks.max()) if len(df) else 0):
            m = n_chunks > i
            txt = df.loc[m, "text"].str.slice(
                i * CHUNK_STRIDE, i * CHUNK_STRIDE + CHUNK_SIZE)
            frames.append(pd.DataFrame({
                "doc_id": df.loc[m, "doc_id"].to_numpy(np.int64),
                "chunk_idx": np.int64(i),
                "chunk_text": txt.to_numpy(),
                "chunk_chars": txt.str.len().to_numpy(np.int64),
            }))
        return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"),
             "chunk_idx": pd.Series([], dtype="int64"),
             "chunk_text": pd.Series([], dtype="object"),
             "chunk_chars": pd.Series([], dtype="int64")})

    out = ds.map_batches(chunks, batch_format="pyarrow", batch_size=8192).to_pandas()
    return out.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)


Q_DOC_CHUNKING_SQL = f"""
WITH n AS (
  SELECT doc_id, text,
         CASE WHEN LENGTH(text) <= {CHUNK_SIZE} THEN 1
              ELSE (LENGTH(text) - {CHUNK_SIZE} + {CHUNK_STRIDE} - 1)
                   // {CHUNK_STRIDE} + 1 END AS n_chunks
  FROM documents
)
SELECT doc_id, CAST(u.i AS BIGINT) AS chunk_idx,
       substring(text, CAST(u.i * {CHUNK_STRIDE} + 1 AS INT), {CHUNK_SIZE})
         AS chunk_text,
       LENGTH(substring(text, CAST(u.i * {CHUNK_STRIDE} + 1 AS INT),
                        {CHUNK_SIZE})) AS chunk_chars
FROM n, unnest(range(n.n_chunks)) AS u(i)
ORDER BY doc_id, chunk_idx
"""


# ------------------------------------------------------------ PageRank

PR_ROUNDS = 3
PR_BASE0 = 1_000_000   # initial integer mass per node
PR_TELEPORT = 150_000  # (1-d)·BASE0 with d = 0.85
PR_OUT_DEG = 3


def _pr_edges(b: pa.Table, n: int) -> pa.Table:
    d = np.asarray(b["doc_id"], dtype=np.int64)
    u = np.repeat(d, PR_OUT_DEG)
    v = np.stack([(d * 7 + 1) % n, (d * 13 + 5) % n, (d * 31 + 11) % n],
                 axis=1).ravel()
    return pa.table({"u": pa.array(u), "v": pa.array(v)})


def q_pagerank(sf_dir: str) -> pd.DataFrame:
    """PageRank over a deterministic doc-link multigraph (3 out-links per
    document, damping 0.85) in INTEGER MASS arithmetic: each round every
    node keeps the teleport share and receives floor(m·85/300) per in-edge.
    Integer sums are exactly associative, so the distributed reduce is
    order-free and hash-exact against SQL — the float-summation-order trap
    that makes naive distributed PageRank unverifiable simply never opens.

    Each round is one hash join (mass onto edge sources) + one groupby-Sum
    over EDGE-sized data + one left join back to the node list — the same
    exchange pattern as connected_components, O(edges) per round, no
    materialized corpus on the driver.

    Oracle: {PR_ROUNDS} unrolled CTE rounds with the identical floor ops.
    """
    docs = read_table(sf_dir, "documents", columns=["doc_id"]).materialize()
    n = docs.count()

    edges = docs.map_batches(lambda b: _pr_edges(b, n),
                             batch_format="pyarrow").materialize()
    mass = docs.map_batches(
        lambda b: pa.table({"node": b["doc_id"],
                            "m": pa.array(np.full(b.num_rows, PR_BASE0,
                                                  np.int64))}),
        batch_format="pyarrow").materialize()
    teleport = docs.map_batches(
        lambda b: pa.table({"node": b["doc_id"],
                            "c": pa.array(np.full(b.num_rows, PR_TELEPORT,
                                                  np.int64))}),
        batch_format="pyarrow").materialize()
    for _ in range(PR_ROUNDS):
        as_src = mass.map_batches(lambda b: b.rename_columns(["u", "m"]),
                                  batch_format="pyarrow")
        msgs = (hash_join(edges, as_src, "u", "inner")
                .map_batches(lambda b: pa.table({
                    "node": b["v"],
                    "c": pa.array((np.asarray(b["m"], np.int64) * 85) // 300)}),
                    batch_format="pyarrow"))
        # teleport rows ride the SAME groupby as the edge contributions —
        # one exchange per round instead of groupby + left-join-backfill
        mass = (msgs.union(teleport)
                .groupby("node").aggregate(Sum("c", alias_name="m"))
                .materialize())
    out = mass.to_pandas().rename(columns={"node": "doc_id", "m": "rank_mass"})
    return out.sort_values("doc_id").reset_index(drop=True)


def pagerank_oracle_sql() -> str:
    rounds = []
    prev = "m0"
    for i in range(1, PR_ROUNDS + 1):
        rounds.append(f"""
r{i} AS (
  SELECT d.doc_id,
         {PR_TELEPORT} + CAST(COALESCE(SUM((p.m * 85) // 300), 0) AS BIGINT) AS m
  FROM documents d
  LEFT JOIN e ON e.v = d.doc_id
  LEFT JOIN {prev} p ON p.doc_id = e.u
  GROUP BY d.doc_id
)""")
        prev = f"r{i}"
    return f"""
WITH e AS (
  SELECT doc_id AS u, (doc_id * 7 + 1) % (SELECT COUNT(*) FROM documents) AS v FROM documents
  UNION ALL
  SELECT doc_id, (doc_id * 13 + 5) % (SELECT COUNT(*) FROM documents) FROM documents
  UNION ALL
  SELECT doc_id, (doc_id * 31 + 11) % (SELECT COUNT(*) FROM documents) FROM documents
), m0 AS (SELECT doc_id, {PR_BASE0} AS m FROM documents),
{','.join(rounds)}
SELECT doc_id, m AS rank_mass FROM {prev}
"""


# --------------------------------------------------- PMI bigram association

PMI_MIN_COUNT = 5  # bigram support floor before scoring
PMI_TOP_K = 100


def q_pmi_bigrams(sf_dir: str) -> pd.DataFrame:
    """Top-{PMI_TOP_K} bigram collocations by pointwise mutual information
    over the whitespace-token stream — the association-mining sibling of
    tf-idf (phrase detection for tokenizer/vocab construction).

    Exactness: PMI's log is monotone, so ranking by the RATIO
    p(xy)/(p(x)p(y)) = c_xy·T² / (B·c_x·c_y) is rank-identical and
    float-safe — numerator and denominator are exact int64 products
    (≲2.5e18 at sf0.1, within int64) and the score is ONE IEEE division of
    the two casts, bit-identical in numpy and DuckDB.

    Shape: one pass emits unified unigram/bigram count partials (bigram
    pairs built by a vectorized shifted-index compare on the exploded
    token stream, no per-doc loop); one vocabulary-sized groupby-Sum; a
    support filter shrinks bigrams to candidates BEFORE the two hash joins
    that attach c_x and c_y; per-block partial top-k, driver merge.
    """
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "documents", columns=["text"])

    def partials(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        toks = tokenize(df["text"])
        e = toks.explode().dropna()
        vals = e.to_numpy(dtype=object)
        idx = e.index.to_numpy()
        uni = pd.Series(vals).groupby(vals).size()
        same = idx[1:] == idx[:-1]
        bx, by = vals[:-1][same], vals[1:][same]
        big = (pd.DataFrame({"x": bx, "y": by}).groupby(["x", "y"])
               .size().reset_index(name="cnt"))
        return pa.table({
            "x": pa.array(np.concatenate([uni.index.to_numpy(dtype=object),
                                          big["x"].to_numpy(dtype=object)]).astype(str)),
            "y": pa.array(np.concatenate([np.full(len(uni), "", object),
                                          big["y"].to_numpy(dtype=object)]).astype(str)),
            "cnt": pa.array(np.concatenate([uni.to_numpy(np.int64),
                                            big["cnt"].to_numpy(np.int64)])),
        })

    counts = (ds.map_batches(partials, batch_format="pyarrow", batch_size=8192)
              .groupby(["x", "y"]).aggregate(Sum("cnt", alias_name="c"))
              .materialize())
    uni = counts.filter(expr="y == ''").map_batches(
        lambda b: pa.table({"term": b["x"], "c_term": b["c"]}),
        batch_format="pyarrow").materialize()
    big = counts.filter(expr="y != ''")
    t_total = uni.sum("c_term")
    b_total = big.sum("c")
    cand = big.filter(expr=f"c >= {PMI_MIN_COUNT}")
    jx = (hash_join(cand.map_batches(lambda b: b.rename_columns(["term", "y", "c_xy"]),
                                     batch_format="pyarrow"), uni, "term", "inner")
          .map_batches(lambda b: pa.table({
              "x": b["term"], "term": b["y"], "c_xy": b["c_xy"],
              "c_x": b["c_term"]}), batch_format="pyarrow"))
    jy = (hash_join(jx, uni, "term", "inner")
          .map_batches(lambda b: pa.table({
              "x": b["x"], "y": b["term"], "c_xy": b["c_xy"],
              "c_x": b["c_x"], "c_y": b["c_term"]}), batch_format="pyarrow"))

    def score_topk(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        num = df["c_xy"].to_numpy(np.int64) * t_total * t_total
        den = b_total * df["c_x"].to_numpy(np.int64) * df["c_y"].to_numpy(np.int64)
        df["pmi_ratio"] = num.astype(np.float64) / den.astype(np.float64)
        return df.sort_values(["pmi_ratio", "x", "y"],
                              ascending=[False, True, True]).head(PMI_TOP_K)

    candtop = jy.map_batches(score_topk, batch_format="pyarrow",
                             batch_size=65536).to_pandas()
    out = candtop.sort_values(["pmi_ratio", "x", "y"],
                              ascending=[False, True, True]).head(PMI_TOP_K)
    return (out[["x", "y", "c_xy", "c_x", "c_y", "pmi_ratio"]]
            .reset_index(drop=True))


Q_PMI_BIGRAMS_SQL = rf"""
WITH d AS (
  SELECT list_filter(string_split_regex(text, '\s+'), t -> t <> '') AS l
  FROM documents
), uni AS (SELECT unnest(l) AS term FROM d),
ucnt AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS c FROM uni GROUP BY term),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS t FROM uni),
big AS (
  SELECT l[CAST(i.i AS BIGINT)] AS x, l[CAST(i.i AS BIGINT) + 1] AS y
  FROM d, LATERAL (SELECT unnest(generate_series(1, length(l) - 1)) AS i) i
  WHERE length(l) >= 2
), bcnt AS (SELECT x, y, CAST(COUNT(*) AS BIGINT) AS c_xy FROM big GROUP BY x, y),
btot AS (SELECT CAST(COUNT(*) AS BIGINT) AS b FROM big),
scored AS (
  SELECT bcnt.x, bcnt.y, bcnt.c_xy, ux.c AS c_x, uy.c AS c_y,
         CAST(bcnt.c_xy * tot.t * tot.t AS DOUBLE)
         / CAST(btot.b * ux.c * uy.c AS DOUBLE) AS pmi_ratio
  FROM bcnt
  JOIN ucnt ux ON ux.term = bcnt.x
  JOIN ucnt uy ON uy.term = bcnt.y, tot, btot
  WHERE bcnt.c_xy >= {PMI_MIN_COUNT}
)
SELECT x, y, c_xy, c_x, c_y, pmi_ratio
FROM scored ORDER BY pmi_ratio DESC, x, y LIMIT {PMI_TOP_K}
"""


# ------------------------------------------------------- triangle counting

def q_triangle_count(sf_dir: str) -> pd.DataFrame:
    """Exact triangle counting over the undirected doc-link graph (the
    PageRank multigraph, deduplicated and undirected) — the clustering
    primitive behind community/spam detection.  The canonical two-join
    lowering: orient every edge low→high, join e(a,b)⋈e(b,c) into wedges,
    then close each wedge against e(a,c); ordering a<b<c counts every
    triangle exactly once.  Both joins are edge-keyed hash joins — no
    broadcast, no driver state; skew is bounded by the max out-degree of
    the oriented graph (≤ total degree).

    Output: per-apex triangle counts (node = the smallest vertex a).
    """
    docs = read_table(sf_dir, "documents", columns=["doc_id"]).materialize()
    n = docs.count()

    def undirected(b: pa.Table) -> pa.Table:
        d = np.asarray(b["doc_id"], dtype=np.int64)
        # PageRank's multiplicative links are triangle-free by themselves;
        # the two chain families (i, i+1), (i, i+2) guarantee a triangle
        # per node and interlock with the multiplicative edges
        u = np.repeat(d, PR_OUT_DEG + 2)
        v = np.stack([(d * 7 + 1) % n, (d * 13 + 5) % n, (d * 31 + 11) % n,
                      (d + 1) % n, (d + 2) % n], axis=1).ravel()
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keep = lo != hi  # drop self-loops
        t = pa.table({"a": pa.array(lo[keep]), "b": pa.array(hi[keep])})
        return t

    edges = (docs.map_batches(undirected, batch_format="pyarrow")
             .groupby(["a", "b"]).aggregate(Count(alias_name="_m"))
             .select_columns(["a", "b"]).materialize())

    # wedges: e(a,b) ⋈ e(b,c) on the middle vertex, keeping a < b < c
    as_bc = edges.map_batches(lambda t: t.rename_columns(["b", "c"]),
                              batch_format="pyarrow")
    wedges = (hash_join(edges, as_bc, "b", "inner")
              .map_batches(lambda t: pa.table({
                  "a": t["a"], "c": t["c"], "b": t["b"]}),
                  batch_format="pyarrow"))
    # close: wedge (a,b,c) is a triangle iff (a,c) is an edge
    as_ac = edges.map_batches(lambda t: pa.table({"a": t["a"], "c": t["b"],
                                                  "_e": pa.array(
                                                      np.ones(t.num_rows, np.int8))}),
                              batch_format="pyarrow")
    closed = hash_join(wedges, as_ac, ("a", "c"), "inner")
    out = (closed.groupby("a").aggregate(Count(alias_name="n_triangles"))
           .to_pandas().rename(columns={"a": "node"}))
    return (out.sort_values("node").reset_index(drop=True)
            .astype({"node": "int64", "n_triangles": "int64"}))


TRIANGLE_COUNT_SQL = """
WITH raw AS (
  SELECT doc_id AS u, (doc_id * 7 + 1) % (SELECT COUNT(*) FROM documents) AS v FROM documents
  UNION ALL
  SELECT doc_id, (doc_id * 13 + 5) % (SELECT COUNT(*) FROM documents) FROM documents
  UNION ALL
  SELECT doc_id, (doc_id * 31 + 11) % (SELECT COUNT(*) FROM documents) FROM documents
  UNION ALL
  SELECT doc_id, (doc_id + 1) % (SELECT COUNT(*) FROM documents) FROM documents
  UNION ALL
  SELECT doc_id, (doc_id + 2) % (SELECT COUNT(*) FROM documents) FROM documents
), e AS (
  SELECT DISTINCT LEAST(u, v) AS a, GREATEST(u, v) AS b
  FROM raw WHERE u <> v
)
SELECT e1.a AS node, CAST(COUNT(*) AS BIGINT) AS n_triangles
FROM e e1 JOIN e e2 ON e2.a = e1.b
          JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
GROUP BY e1.a
"""
