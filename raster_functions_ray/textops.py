"""Text-analysis operators over the documents table (training-data pipeline
additions: token counting, quality scoring, language-ID, fingerprinting).

All stages are vectorized map_batches over pandas string ops or stateful
actor pools (compiled regexes in __init__).  SQL-checkable ones pair with
DuckDB list/string functions; the heuristics (langid) are rows-only checks.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.aggregate import Sum

from .sources import read_table
from .stages import join


def tokenize(text: pd.Series) -> pd.Series:
    """Whitespace tokens of each string, as the DuckDB oracles split them:
    list_filter(string_split_regex(text, '\\s+'), x -> x <> '').

    The class is exactly RE2's \\s, [ \\t\\n\\r\\f]: NO \\v (RE2's \\s
    excludes it, verified against DuckDB) and no unicode spaces (U+00A0
    etc.), both of which Python's str.split() and \\s would split on."""
    return text.str.findall(r"[^ \t\n\r\f]+")


def q_token_stats(sf_dir: str) -> pd.DataFrame:
    """Per-document token count (whitespace split) + char length.

    Matches DuckDB: len(list_filter(string_split_regex(text,'\\s+'), ...)).
    """
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "n_tokens": tokenize(df["text"]).str.len().astype("int64"),
            "n_chars": df["text"].str.len().astype("int64"),
        })

    return ds.map_batches(stats, batch_format="pyarrow", batch_size=8192).to_pandas()


Q_TOKEN_STATS_SQL = r"""
SELECT doc_id,
       len(list_filter(string_split_regex(text, '\s+'), x -> x <> '')) AS n_tokens,
       length(text) AS n_chars
FROM documents
"""


def q_lang_profile(sf_dir: str) -> pd.DataFrame:
    """Per-language corpus profile: doc count, avg tokens, avg chars."""
    ds = read_table(sf_dir, "documents", columns=["lang", "text"])

    def partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        df["n_tokens"] = tokenize(df["text"]).str.len()
        df["n_chars"] = df["text"].str.len()
        return df.groupby("lang", sort=False).agg(
            n_docs=("text", "size"), sum_tokens=("n_tokens", "sum"),
            sum_chars=("n_chars", "sum")).reset_index()

    out = (ds.map_batches(partial, batch_format="pyarrow", batch_size=8192)
           .groupby("lang")
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("sum_tokens", alias_name="sum_tokens"),
                      Sum("sum_chars", alias_name="sum_chars"))
           .to_pandas())
    out["avg_tokens"] = (out["sum_tokens"] / out["n_docs"]).round(6)
    out["avg_chars"] = (out["sum_chars"] / out["n_docs"]).round(6)
    return out


Q_LANG_PROFILE_SQL = r"""
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(len(list_filter(string_split_regex(text, '\s+'), x -> x <> ''))) AS BIGINT) AS sum_tokens,
       CAST(SUM(length(text)) AS BIGINT) AS sum_chars,
       ROUND(SUM(len(list_filter(string_split_regex(text, '\s+'), x -> x <> ''))) / COUNT(*), 6) AS avg_tokens,
       ROUND(SUM(length(text)) / COUNT(*), 6) AS avg_chars
FROM documents GROUP BY lang
"""


def q_doc_prefix_groups(sf_dir: str) -> pd.DataFrame:
    """Document fingerprint by 3-token prefix → group sizes (the shape of
    fingerprint-based clustering; SQL-checkable)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        # literal single-space split (keeps empty pieces), exactly like the
        # oracle's string_split(text, ' ')[1:3]
        df["prefix"] = df["text"].str.split(" ").str[:3].str.join(" ")
        g = df.groupby("prefix", sort=False).agg(
            n_docs=("doc_id", "size"), min_doc_id=("doc_id", "min")).reset_index()
        return g

    from ray.data.aggregate import Min
    return (ds.map_batches(partial, batch_format="pyarrow", batch_size=8192)
            .groupby("prefix")
            .aggregate(Sum("n_docs", alias_name="n_docs"),
                       Min("min_doc_id", alias_name="min_doc_id"))
            .to_pandas())


Q_DOC_PREFIX_GROUPS_SQL = """
SELECT array_to_string(string_split(text, ' ')[1:3], ' ') AS prefix,
       COUNT(*) AS n_docs, MIN(doc_id) AS min_doc_id
FROM documents GROUP BY prefix
"""


STOPWORDS = frozenset("the a an and or of to in is are was were be been for on at by with".split())


class QualityScorer:
    """Actor-pool stage: quality heuristics with regexes compiled once per
    actor (stop-word ratio, punctuation ratio, mean word length,
    alpha ratio)."""

    def __init__(self):
        self.word_re = re.compile(r"[A-Za-z]+")
        self.punct_re = re.compile(r"[^\w\s]")

    def __call__(self, b) -> pd.DataFrame:
        # accepts a pyarrow Table or an already-decoded DataFrame (DocScorer
        # decodes once and shares it)
        df = b if isinstance(b, pd.DataFrame) else b.to_pandas()
        # the level-0 groupby below requires unique row labels; a caller
        # passing a concat'd frame with duplicate index would otherwise
        # get silently merged token sums.  The caller's index is restored
        # on the output.
        index = df.index
        df = df.reset_index(drop=True)
        toks = df["text"].str.lower().str.findall(self.word_re)
        n_raw = toks.str.len()
        n_tok = n_raw.clip(lower=1)
        # one vectorized pass over the exploded token list: stop-hits via
        # isin + level-0 sum, word-length sum via str.len() + level-0 sum.
        # Token lengths are small ints so the float64 sums are exact and the
        # ratios are bit-identical to the per-row formulation.
        ex = toks.explode().dropna()
        if len(ex):
            stop_hits = (ex.isin(STOPWORDS).groupby(level=0).sum()
                         .reindex(df.index, fill_value=0))
            wl_sum = (ex.str.len().groupby(level=0).sum()
                      .reindex(df.index, fill_value=0))
        else:
            stop_hits = pd.Series(0, index=df.index)
            wl_sum = pd.Series(0, index=df.index)
        mean_wl = (wl_sum / n_tok).where(n_raw > 0, 0.0)
        df_out = pd.DataFrame({
            "doc_id": df["doc_id"],
            "stop_ratio": stop_hits / n_tok,
            "punct_ratio": df["text"].str.count(self.punct_re) / df["text"].str.len().clip(lower=1),
            "mean_word_len": mean_wl,
            "alpha_ratio": df["text"].str.count(r"[A-Za-z]") / df["text"].str.len().clip(lower=1),
        })
        df_out.index = index
        return df_out


# n-gram language profiles for the heuristic lang-ID (trained on nothing —
# just characteristic letter patterns; deterministic)
_LANG_HINTS = {
    "en": ("the", "ing", "and", "ion"),
    "de": ("der", "sch", "ein", "und"),
    "fr": ("les", "ent", "que", "ion"),
    "es": ("los", "que", "ión", "ado"),
    "zh": (),
}


class LangId:
    """Heuristic n-gram language ID (rows-only check): CJK-codepoint test
    for zh, otherwise argmax of per-language trigram hit rates."""

    def __init__(self):
        self.cjk = re.compile(r"[一-鿿]")

    def __call__(self, b) -> pd.DataFrame:
        df = b if isinstance(b, pd.DataFrame) else b.to_pandas()
        langs = []
        for t in df["text"]:
            if self.cjk.search(t):
                langs.append("zh")
                continue
            low = t.lower()
            best, best_score = "en", -1.0
            for lang, grams in _LANG_HINTS.items():
                if not grams:
                    continue
                score = sum(low.count(g) for g in grams)
                if score > best_score:
                    best, best_score = lang, score
            langs.append(best)
        return pd.DataFrame({"doc_id": df["doc_id"], "pred_lang": langs})


class DocScorer:
    """Actor-pool stage fusing one read-side pass over documents: quality
    heuristics + language ID + content hash — one text decode per doc, all
    regex state built once per actor.  Emits narrow scalar rows
    (doc_id, h, pred_lang, stop_ratio, alpha_ratio)."""

    def __init__(self):
        self.quality = QualityScorer()
        self.langid = LangId()

    def __call__(self, b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()  # ONE decode per batch, shared by all scorers
        qdf = self.quality(df)
        qdf["pred_lang"] = self.langid(df)["pred_lang"].values
        from .dedup import _text_hash

        qdf["h"] = _text_hash(df["text"]).values
        # Arrow out: this feeds a groupby + hash join; pandas blocks would
        # drop the sort-aggregate to ~1k rows/s
        return pa.Table.from_pandas(
            qdf[["doc_id", "h", "pred_lang", "stop_ratio", "alpha_ratio"]],
            preserve_index=False)


def q_training_data_pipeline(sf_dir: str) -> pd.DataFrame:
    """Composed training-data pipeline (the 100 TB shape in miniature):
    one fused scoring pass (quality + lang-ID + content hash, actor pool) →
    exact-dup survivor marking via a HASH-KEYED JOIN (min doc_id per h
    aggregated distributed, joined back — no driver-side survivor set or
    lang map; everything O(corpus) stays in the object store) →
    per-(pred_lang, kept) corpus stats via partial+final aggregate."""
    from ray.data.aggregate import Min, Sum

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    scored = ds.map_batches(DocScorer, batch_format="pyarrow", batch_size=4096,
                            concurrency=2)
    # consumed twice (survivor aggregate + join probe); rows are 5 narrow
    # scalars/doc, so pinning beats re-reading + re-scoring the corpus
    scored = scored.repartition(16).materialize()
    return _training_tail(scored)


def _training_tail(scored) -> pd.DataFrame:
    """Survivor-join + final aggregate of the training pipeline — ONE
    implementation shared by the one-shot query and the resumable gate so
    the two can never drift semantically.  ``scored`` must be a
    (doc_id, h, pred_lang, stop_ratio, alpha_ratio) Dataset, already
    materialized if re-reading it would be expensive."""
    from ray.data.aggregate import Min, Sum

    survivors = scored.groupby("h").aggregate(Min("doc_id", alias_name="keep_doc_id"))
    marked = join.hash_join(scored, survivors, "h", "inner")

    def partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        df["kept"] = ((df["doc_id"] == df["keep_doc_id"])
                      & (df["stop_ratio"] < 0.9) & (df["alpha_ratio"] > 0.5))
        part = (df.groupby(["pred_lang", "kept"], sort=False)
                .agg(n_docs=("doc_id", "size"), sum_stop=("stop_ratio", "sum"))
                .reset_index())
        return pa.Table.from_pandas(part, preserve_index=False)

    out = (marked.map_batches(partial, batch_format="pyarrow", batch_size=8192)
           .groupby(["pred_lang", "kept"])
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("sum_stop", alias_name="sum_stop"))
           .to_pandas())
    out["avg_stop_ratio"] = (out["sum_stop"] / out["n_docs"]).round(6)
    out = out.drop(columns=["sum_stop"])
    out["n_docs"] = out["n_docs"].astype("int64")
    return out.sort_values(["pred_lang", "kept"]).reset_index(drop=True)


def q_resumable_training_exact(sf_dir: str) -> pd.DataFrame:
    """Resume correctness for the TRAINING-DATA path, pinned SQL-exact
    (the text sibling of q_resumable_hillshade_exact): the fused scoring
    stage runs partitioned BY SOURCE through the checkpoint store in two
    passes — pass 1 scores only half the sources (a simulated mid-job
    failure), pass 2 resumes the full source list and must skip exactly
    the finished half — then the assembled partitioned scores feed the
    SAME survivor-join + aggregate tail (_training_tail) and the SAME
    oracle as q_training_data_pipeline.  Resume therefore has to be
    bit-identical to a one-shot run to pass.

    The survivor join is deliberately OUTSIDE the partition boundary:
    dup-marking is global (min doc_id per content hash across sources),
    so the checkpointable unit is the expensive per-shard scoring pass,
    exactly where a 100 TB job would restart."""
    import os
    import shutil
    import tempfile

    import pyarrow.compute as pc

    from .sources import read_table_filtered
    from .state.checkpoint import (CheckpointStore, input_fingerprint,
                                   run_partitioned)

    doc_path = os.path.join(sf_dir, "documents.parquet")
    src_tbl = read_table_filtered(sf_dir, "documents", ["source"], None)
    sources = sorted(np.unique(np.asarray(src_tbl["source"])).tolist())
    half = sources[: max(1, len(sources) // 2)]

    def score_source(src: str) -> pa.Table:
        t = read_table_filtered(sf_dir, "documents", ["doc_id", "text"],
                                pc.field("source") == src)
        out = rd.from_arrow(t).map_batches(
            DocScorer, batch_format="pyarrow", batch_size=4096, concurrency=1)
        batches = list(out.iter_batches(batch_format="pyarrow", batch_size=8192))
        return pa.concat_tables(batches) if batches else pa.table({})

    root = tempfile.mkdtemp(prefix="rfr_ckpt_")
    try:
        store = CheckpointStore(root)
        fp = input_fingerprint([doc_path])
        factory = lambda key: score_source(key.split("=", 1)[1])  # noqa: E731
        # pass 1: "job dies" after the first half of the sources
        run_partitioned(factory, [f"source={s}" for s in half], "trainscore",
                        store, input_hash=fp)
        # pass 2: resume over the full source list
        written = run_partitioned(factory, [f"source={s}" for s in sources],
                                  "trainscore", store, input_hash=fp)
        expect = {f"source={s}" for s in sources} - {f"source={s}"
                                                     for s in half}
        if set(written) != expect:
            raise RuntimeError(
                f"resume filter failed: expected to compute {sorted(expect)},"
                f" computed {sorted(written)}")
        parts = [os.path.join(store.partition_dir("trainscore", f"source={s}"),
                              "part.parquet") for s in sources]
        scored = rd.read_parquet(parts).materialize()
        return _training_tail(scored)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def q_quality_counts(sf_dir: str) -> pd.DataFrame:
    """SQL-exact slice of the quality scorer: per-doc ASCII punctuation /
    alpha / char counts (integer counts, not ratios, so the oracle is
    bit-exact; explicit ASCII classes because Python's \\w is unicode-aware
    and RE2's is not)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def counts(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        # whitespace spelled out (not \s): Python's \s is unicode-aware and
        # RE2's is ASCII-only, so e.g. U+00A0 would count as punctuation on
        # one side only
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "n_chars": df["text"].str.len().astype("int64"),
            "n_punct": df["text"].str.count(r"[^A-Za-z0-9_ \t\n\r\f\v]").astype("int64"),
            "n_alpha": df["text"].str.count(r"[A-Za-z]").astype("int64"),
        })

    return ds.map_batches(counts, batch_format="pyarrow", batch_size=8192).to_pandas()


Q_QUALITY_COUNTS_SQL = r"""
SELECT doc_id, length(text) AS n_chars,
       len(regexp_extract_all(text, '[^A-Za-z0-9_ \t\n\r\f\v]')) AS n_punct,
       len(regexp_extract_all(text, '[A-Za-z]')) AS n_alpha
FROM documents
"""


def q_dedup_mark(sf_dir: str) -> pd.DataFrame:
    """Per-doc exact-dup survivor flag — the distributed dup-marking stage
    of the training pipeline in isolation, SQL-exact: kept iff the doc is
    the min doc_id of its content-hash group (hash-keyed aggregate + join,
    no driver-side set)."""
    from ray.data.aggregate import Min

    from .dedup import content_hash_rows as add_hash

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    hashed = (ds.map_batches(add_hash, batch_format="pyarrow", batch_size=8192)
              .repartition(8).materialize())
    survivors = hashed.groupby("h").aggregate(Min("doc_id", alias_name="keep_doc_id"))
    marked = join.hash_join(hashed, survivors, "h", "inner")

    def finish(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "kept": (df["doc_id"] == df["keep_doc_id"])})

    out = marked.map_batches(finish, batch_format="pyarrow", batch_size=65536).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


Q_DEDUP_MARK_SQL = """
SELECT doc_id,
       doc_id = MIN(doc_id) OVER (PARTITION BY text) AS kept
FROM documents ORDER BY doc_id
"""


def _gram_count_sql(grams: tuple[str, ...]) -> str:
    return " + ".join(
        f"(length(low) - length(replace(low, '{g}', ''))) // 3" for g in grams)


def _training_pipeline_sql() -> str:
    """DuckDB oracle for the COMPOSED training pipeline: same stopword
    ratio (lower + [a-z]+ tokens), same non-overlapping trigram counts
    (replace trick == str.count), same strictly-greater lang argmax order
    (en,de,fr,es), same window dup-marking — bit-exact vs DocScorer."""
    sw = "[" + ", ".join(f"'{w}'" for w in sorted(STOPWORDS)) + "]"
    return f"""
WITH base AS (
  SELECT doc_id, text, lower(text) AS low,
         regexp_extract_all(lower(text), '[a-z]+') AS toks
  FROM documents
), scored AS (
  SELECT doc_id, text, low,
         len(list_filter(toks, t -> list_contains({sw}, t)))
           / GREATEST(len(toks), 1) AS stop_ratio,
         len(regexp_extract_all(text, '[A-Za-z]')) * 1.0
           / GREATEST(length(text), 1) AS alpha_ratio,
         {_gram_count_sql(_LANG_HINTS['en'])} AS s_en,
         {_gram_count_sql(_LANG_HINTS['de'])} AS s_de,
         {_gram_count_sql(_LANG_HINTS['fr'])} AS s_fr,
         {_gram_count_sql(_LANG_HINTS['es'])} AS s_es,
         regexp_matches(text, '[一-鿿]') AS is_zh
  FROM base
), lang AS (
  SELECT *,
    CASE WHEN is_zh THEN 'zh'
         WHEN s_es > GREATEST(s_en, s_de, s_fr) THEN 'es'
         WHEN s_fr > GREATEST(s_en, s_de) THEN 'fr'
         WHEN s_de > s_en THEN 'de'
         ELSE 'en' END AS pred_lang,
    doc_id = MIN(doc_id) OVER (PARTITION BY text) AS survivor
  FROM scored
)
SELECT pred_lang,
       (survivor AND stop_ratio < 0.9 AND alpha_ratio > 0.5) AS kept,
       COUNT(*) AS n_docs,
       ROUND(SUM(stop_ratio) / COUNT(*), 6) AS avg_stop_ratio
FROM lang GROUP BY pred_lang, kept ORDER BY pred_lang, kept
"""


Q_TRAINING_DATA_PIPELINE_SQL = _training_pipeline_sql()


# -------------------------------------------------- scrub + decontaminate

SCRUB_PATTERN = r"[a-z]+er\b"  # stand-in for a PII pattern (emails/phones)


def q_pattern_scrub(sf_dir: str) -> pd.DataFrame:
    """Regex scrub/redaction stage (the shape of PII removal): count and
    redact every SCRUB_PATTERN match, report per-doc redaction count and
    scrubbed length.  Vectorized pandas str ops (compiled regex reused
    across the batch); the pattern is ASCII-only so Python re and DuckDB's
    RE2 agree.  On real corpora the pattern set is emails/phones/SSNs —
    same stage, different constants."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def scrub(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "n_redacted": df["text"].str.count(SCRUB_PATTERN).astype("int64"),
            "scrub_len": df["text"].str.replace(
                SCRUB_PATTERN, "[X]", regex=True).str.len().astype("int64"),
        })

    return ds.map_batches(scrub, batch_format="pyarrow", batch_size=8192).to_pandas()


Q_PATTERN_SCRUB_SQL = rf"""
SELECT doc_id,
       len(regexp_extract_all(text, '{SCRUB_PATTERN}')) AS n_redacted,
       length(regexp_replace(text, '{SCRUB_PATTERN}', '[X]', 'g')) AS scrub_len
FROM documents
"""


DECON_W = 4        # word n-gram width; the ~40-word synthetic vocabulary
                   # makes a 4-gram as selective as a 13-gram on real text
DECON_MOD = 97     # eval/benchmark set = docs with doc_id % 97 == 0


def _word_ngrams_flat(texts: pd.Series, w: int) -> tuple[np.ndarray, np.ndarray]:
    """All docs' word w-grams as STRINGS in one vectorized pass (flat token
    array + shifted concatenation, windows that straddle doc boundaries
    masked out).  Returns (doc_index, gram) flat arrays."""
    tok_lists = texts.str.split(" ").tolist()
    lens = np.asarray([len(t) for t in tok_lists], dtype=np.int64)
    flat = np.concatenate([np.asarray(t, dtype=object) for t in tok_lists if t]) \
        if lens.sum() else np.empty(0, dtype=object)
    if flat.size < w:
        return np.empty(0, np.int64), np.empty(0, dtype=object)
    gram = flat[: flat.size - w + 1]
    for j in range(1, w):
        gram = gram + " " + flat[j: flat.size - w + 1 + j]
    doc_of = np.repeat(np.arange(lens.size), lens)
    same = doc_of[: gram.size] == doc_of[w - 1:]
    return doc_of[: gram.size][same], gram[same]


def q_decontaminate(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination: flag every document sharing at least one
    word-4-gram with the eval set (docs with doc_id % 97 == 0), reporting
    the count of distinct shared grams.

    Scale shape: eval/benchmark sets are small BY NATURE, so the eval
    gram set is the canonical broadcast side (ray.put once, O(eval) not
    O(corpus)); the corpus streams through one vectorized map_batches with
    a hash-set membership probe per batch — no shuffle at all.  Exact
    string grams (not hashes), so the SQL shingle-join oracle is
    collision-free."""
    import ray

    import pyarrow.compute as pc

    from .sources import read_table_filtered

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    # eval-id discovery scans ONLY the doc_id column (no text decode for the
    # 99% of rows the eval pass discards), then one pushdown read fetches
    # the ~1% eval texts; both steps are O(eval) on the text bytes
    id_ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def _eval_ids(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"], dtype=np.int64)
        return pa.table({"doc_id": pa.array(ids[ids % DECON_MOD == 0])})

    eval_ids = sorted(id_ds.map_batches(_eval_ids, batch_format="pyarrow",
                                        batch_size=65536).to_pandas()["doc_id"])
    ev_tab = read_table_filtered(sf_dir, "documents", ["doc_id", "text"],
                                 pc.field("doc_id").isin(eval_ids))
    _, grams = _word_ngrams_flat(pd.Series(ev_tab["text"].to_pylist()), DECON_W)
    eval_set = pd.unique(grams) if grams.size else np.empty(0, dtype=object)
    ev_ref = ray.put(pd.Index(eval_set))

    def mark(b: pa.Table) -> pd.DataFrame:
        idx = ray.get(ev_ref)
        df = b.to_pandas()
        d, grams = _word_ngrams_flat(df["text"], DECON_W)
        pairs = pd.DataFrame({"d": d, "g": grams}).drop_duplicates()
        hit = pairs[pairs["g"].isin(idx)]
        n = hit.groupby("d").size()
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy()[n.index.to_numpy()],
            "n_hits": n.to_numpy(np.int64)})

    out = docs.map_batches(mark, batch_format="pyarrow", batch_size=8192).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def gram_sql(w: int) -> str:
    """SQL word-w-gram expression over a token list ``l`` at offset ``u`` —
    the one mirror of _word_ngrams_flat's gram format (space-joined
    consecutive tokens); every oracle that shingles uses this."""
    return " || ' ' || ".join(
        f"list_extract(l, CAST(u AS INT) + {j})" for j in range(w))


def _decon_gram_sql() -> str:
    return gram_sql(DECON_W)


Q_DECONTAMINATE_SQL = f"""
WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS l FROM documents
), sh AS (
  SELECT DISTINCT doc_id, {_decon_gram_sql()} AS s
  FROM (SELECT doc_id, l, unnest(generate_series(1, len(l) - {DECON_W - 1})) AS u FROM w)
), eval_sh AS (
  SELECT DISTINCT s FROM sh WHERE doc_id % {DECON_MOD} = 0
)
SELECT sh.doc_id, COUNT(*) AS n_hits
FROM sh JOIN eval_sh ON sh.s = eval_sh.s
GROUP BY sh.doc_id ORDER BY doc_id
"""


# ------------------------------------------------- boilerplate detection

BOILER_W = 3        # word-n-gram width
BOILER_MIN_DOCS = 3  # a gram in >= this many distinct docs is boilerplate


def q_boilerplate(sf_dir: str) -> pd.DataFrame:
    """Corpus-level boilerplate detection: count, per document, the word
    {BOILER_W}-grams shared by at least {BOILER_MIN_DOCS} distinct
    documents — the nav-bar/footer/template signal web-corpus cleaning
    keys on (C4/RefinedWeb drop or truncate on it).

    Scale shape: the boilerplate gram set is corpus-sized (NOT
    broadcastable, unlike decontaminate's eval set), so this is the
    gram-keyed co-partition pipeline: distinct (doc, gram) pairs are
    emitted per block (a doc's text lives in one row, so in-block dedup is
    globally exact), document frequencies come from one groupby-Count over
    the GRAM space, and membership flows back via a hash join on the same
    key — no driver state, no full-corpus broadcast.  A boiler set within
    the driver budget is broadcast instead (one ray.put, a map-side
    ``pc.is_in``), saving the join's exchange."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def pairs(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        d, grams = _word_ngrams_flat(df["text"], BOILER_W)
        p = pd.DataFrame({"d": d, "s": grams}).drop_duplicates()
        # Arrow block out: pandas blocks feeding a shuffle cost ~10x in
        # serialization (see ngram-jaccard lesson, commit bfbe665)
        # explicit types: an EMPTY batch otherwise yields float64 doc_id
        # (pandas empty-frame default) and schema-less blocks that crash the
        # downstream hash join's Arrow kernel
        return pa.table({
            "doc_id": pa.array(
                df["doc_id"].to_numpy(dtype=np.int64, na_value=0)[p["d"].to_numpy()]
                if len(df) else np.empty(0, np.int64), pa.int64()),
            "s": pa.array(p["s"].to_numpy(dtype=object), pa.string())})

    # one task per storage block (batch_size=None): the gram explode is
    # CPU-bound and embarrassingly parallel; a large batch_size would
    # coalesce the read's blocks into a single task
    pair_ds = docs.map_batches(pairs, batch_format="pyarrow",
                               batch_size=None).materialize()
    dfreq = pair_ds.groupby("s").aggregate(Count(alias_name="n"))
    # materialize the (gram-space-sized) boiler side: joining a LAZY
    # aggregate while the join's other input pulls the same upstream makes
    # the streaming executor interleave the two shuffles pathologically
    # (118s vs 10s at sf0.1, measured)
    def typed(b: pa.Table) -> pa.Table:
        # zero-row blocks out of filter/aggregate can be SCHEMA-LESS;
        # rebuild every block with the declared schema, so an empty boiler
        # set still has its columns
        if "s" not in b.column_names:
            return pa.table({"s": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        return pa.table({"s": b["s"].cast(pa.string()),
                         "n": b["n"].cast(pa.int64())})

    boiler = (dfreq.filter(expr=f"n >= {BOILER_MIN_DOCS}")
              .map_batches(typed, batch_format="pyarrow").materialize())

    if boiler.size_bytes() <= join.DRIVER_MAX_BYTES:
        # broadcast lowering for a boiler set within the driver budget:
        # one ray.put, map-side pc.is_in
        import ray as _ray
        bref = _ray.put(pa.array(boiler.to_pandas()["s"], pa.string()))

        def mark(b: pa.Table) -> pa.Table:
            return b.filter(pc.is_in(b["s"], value_set=_ray.get(bref)))

        hits = pair_ds.map_batches(mark, batch_format="pyarrow")
    else:
        hits = join.hash_join(pair_ds, boiler, "s", "inner")
    out = (hits.groupby("doc_id").aggregate(Count(alias_name="n_boiler"))
           .to_pandas())
    out["n_boiler"] = out["n_boiler"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


def _boiler_gram_sql() -> str:
    return gram_sql(BOILER_W)


Q_BOILERPLATE_SQL = f"""
WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS l FROM documents
), sh AS (
  SELECT DISTINCT doc_id, {_boiler_gram_sql()} AS s
  FROM (SELECT doc_id, l, unnest(generate_series(1, len(l) - {BOILER_W - 1})) AS u FROM w)
), boiler AS (
  SELECT s FROM sh GROUP BY s HAVING COUNT(*) >= {BOILER_MIN_DOCS}
)
SELECT sh.doc_id, COUNT(*) AS n_boiler
FROM sh JOIN boiler USING (s)
GROUP BY sh.doc_id ORDER BY doc_id
"""


# --------------------------------------------- non-parquet source gates

def _source_format_profile(ds) -> pd.DataFrame:
    """Shared aggregate for the source-format gates: per-source doc count,
    char sum, token sum and a text-integrity fingerprint (sum of poly31
    over the raw text — any quoting/escaping corruption in the format
    roundtrip shifts it)."""
    from .trainprep import _poly31_u32

    def partial(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        toks = tokenize(df["text"]).str.len()
        fp = _poly31_u32(df["text"].to_numpy(dtype=object).astype(str))
        g = pd.DataFrame({
            "source": df["source"], "n": 1,
            "chars": df["n_chars"].astype("int64"),
            "toks": toks.astype("int64"),
            "fp": fp.astype(np.int64)}).groupby("source", sort=False).sum()
        g = g.reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    out = (ds.map_batches(partial, batch_format="pyarrow", batch_size=4096)
           .groupby("source")
           .aggregate(Sum("n", alias_name="n_docs"),
                      Sum("chars", alias_name="sum_chars"),
                      Sum("toks", alias_name="sum_tokens"),
                      Sum("fp", alias_name="text_fp"))
           .to_pandas())
    out = out.astype({"n_docs": "int64", "sum_chars": "int64",
                      "sum_tokens": "int64", "text_fp": "int64"})
    return out.sort_values("source").reset_index(drop=True)


def q_csv_source(sf_dir: str) -> pd.DataFrame:
    """The documents table through ``ray.data.read_csv`` (deterministic
    CSV mirror, quoting included) — the oracle reads the PARQUET view, so
    equality proves the CSV source path delivers identical rows and
    byte-identical text."""
    from .sources import read_documents_as

    return _source_format_profile(read_documents_as(sf_dir, "csv"))


def q_json_source(sf_dir: str) -> pd.DataFrame:
    """The documents table through ``ray.data.read_json`` (JSONL mirror)
    — same parquet-view oracle as q_csv_source."""
    from .sources import read_documents_as

    return _source_format_profile(read_documents_as(sf_dir, "jsonl"))


def q_feather_source(sf_dir: str) -> pd.DataFrame:
    """The documents table through Arrow-IPC shard files — ray.data has
    no native IPC reader, so this exercises the bring-any-format path:
    read_binary_files (streamed, one row per shard) + a vectorized decode
    map_batches — the same plumbing a 100 TB custom container format
    would use.  Same parquet-view oracle as q_csv_source."""
    from .sources import read_documents_as

    return _source_format_profile(read_documents_as(sf_dir, "feather"))


Q_SOURCE_PROFILE_SQL = """
SELECT source,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
       CAST(SUM(len(list_filter(string_split_regex(text, '\\s+'), x -> x <> ''))) AS BIGINT) AS sum_tokens,
       CAST(SUM(list_reduce(list_transform(string_split(text, ''),
                c -> CAST(unicode(c) AS BIGINT)),
            (a, b) -> (a * 31 + b) % 4294967296)) AS BIGINT) AS text_fp
FROM documents GROUP BY source ORDER BY source
"""


# --------------------------------------------------- inverted-index build

INDEX_HEAD_K = 8  # posting-list head kept exactly per term


def q_inverted_index(sf_dir: str) -> pd.DataFrame:
    """Distributed inverted-index build: term → (document frequency,
    postings checksum, first {INDEX_HEAD_K} postings) over whitespace
    tokens — the retrieval-index shape of the corpus (cf. the reference's
    attribute→zone lookup tables, functions/ZonalRemap semantics inverted).

    Scale shape: each block reduces its (doc, term) pairs to ONE partial
    row per term it contains — df / postings_sum are additive because a
    doc lives in exactly one block, and the head-K merge is associative
    (K smallest of per-block K-smallest == global K smallest).  The
    exchange therefore ships O(vocab × blocks) narrow rows, never the
    postings themselves: a stopword appearing in every document of a
    100 TB corpus still contributes one row per block.  The merge groups
    by HASH SHARD, not by term — one vectorized pandas call per shard
    instead of one Python call per vocabulary entry (the substring-dedup
    lesson: per-gram map_groups measured 30× slower than sharded
    vectorized merges at sf0.1).
    """
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = (ds.map_batches(index_partial, batch_format="pyarrow", batch_size=8192)
           .groupby("shard").map_groups(index_merge_shard, batch_format="pandas")
           .to_pandas())
    return out.sort_values("term").reset_index(drop=True)


_INDEX_SHARDS = 64
_HCOLS = [f"h{i}" for i in range(INDEX_HEAD_K)]


def index_partial(b: pa.Table) -> pd.DataFrame:
    """Per-block index partial: one row per term present in the block —
    (shard, term, df, postings_sum, h0..h{K-1} head columns, -1 padded)."""
    df = b.to_pandas()
    toks = tokenize(df["text"])
    pairs = pd.DataFrame({
        "doc_id": df["doc_id"].repeat(toks.str.len().to_numpy()),
        "term": np.concatenate([np.asarray(t, dtype=object) for t in toks])
        if len(df) else np.empty(0, dtype=object),
    }).drop_duplicates().sort_values(["term", "doc_id"], kind="mergesort")
    t_arr = pairs["term"].to_numpy()
    d_arr = pairs["doc_id"].to_numpy(np.int64)
    is_new = np.concatenate([[True], t_arr[1:] != t_arr[:-1]]) \
        if t_arr.size else np.empty(0, bool)
    starts = np.flatnonzero(is_new)
    gidx = np.cumsum(is_new) - 1  # group index per (term, doc) row
    # per-block head as K fixed int64 columns (sentinel -1), filled by
    # in-group rank — no per-term Python call, no object-list column
    rank = np.arange(t_arr.size) - starts[gidx] if t_arr.size else gidx
    mat = np.full((starts.size, INDEX_HEAD_K), -1, np.int64)
    sel = rank < INDEX_HEAD_K
    mat[gidx[sel], rank[sel]] = d_arr[sel]
    terms = t_arr[is_new].astype(str)
    return pd.DataFrame({
        "shard": (pd.util.hash_array(terms.astype(object)) % _INDEX_SHARDS)
                 .astype(np.int64),
        "term": terms,
        "df": np.diff(np.append(starts, t_arr.size)).astype(np.int64),
        "postings_sum": np.add.reduceat(d_arr, starts).astype(np.int64)
        if t_arr.size else np.empty(0, np.int64),
        **{c: mat[:, i] for i, c in enumerate(_HCOLS)},
    })

def index_merge_shard(g: pd.DataFrame) -> pd.DataFrame:
    """Associative shard merge: df/postings_sum sum; head-K = K smallest of
    the concatenated per-partial heads — so indexes over disjoint corpus
    slices merge into the whole-corpus index (incremental maintenance)."""
    sums = g.groupby("term", sort=True).agg(
        df=("df", "sum"), postings_sum=("postings_sum", "sum"))
    docs = g[_HCOLS].to_numpy().ravel()
    keep = docs >= 0
    ex = pd.DataFrame({
        "term": g["term"].to_numpy().repeat(INDEX_HEAD_K)[keep],
        "doc": docs[keep],
    }).sort_values(["term", "doc"], kind="mergesort")
    ex = ex[ex.groupby("term", sort=False).cumcount() < INDEX_HEAD_K]
    heads = ex["doc"].astype(str).groupby(ex["term"]).agg(",".join)
    return (sums.join(heads.rename("head_postings"))
            .reset_index()[["term", "df", "postings_sum", "head_postings"]])


Q_INVERTED_INDEX_SQL = rf"""
WITH raw AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(text, '\s+'), x -> x <> '')) AS term
  FROM documents
), toks AS (SELECT DISTINCT doc_id, term FROM raw)
SELECT term, COUNT(*) AS df, CAST(SUM(doc_id) AS BIGINT) AS postings_sum,
       array_to_string(list_slice(list_sort(list(doc_id)), 1, {INDEX_HEAD_K}),
                       ',') AS head_postings
FROM toks GROUP BY term ORDER BY term
"""


def q_sink_roundtrip(sf_dir: str) -> pd.DataFrame:
    """Partitioned-parquet SINK fidelity: documents stream through
    ``write_parquet(partition_cols=['source'])`` — the engine's resumable
    output layout (one directory per partition key, what a failed run
    skips on retry) — then read back through the hive-partitioned reader
    and profiled under the SAME oracle as the source-format gates.  Any
    row, text byte or partition-routing corruption in the write→read
    round-trip shifts the poly31 fingerprint."""
    import shutil
    import tempfile

    import ray.data as rd

    from .sources import read_table

    # process-unique dir: concurrent runs (pytest alongside verify) must
    # not rmtree each other mid write/read; removed once the profile is
    # materialized so repeated bench/verify runs don't accumulate a full
    # partitioned copy of the documents table in /tmp per invocation
    out = tempfile.mkdtemp(prefix="rfr_sink_")
    try:
        read_table(sf_dir, "documents").write_parquet(out, partition_cols=["source"])
        return _source_format_profile(rd.read_parquet(out))
    finally:
        shutil.rmtree(out, ignore_errors=True)


# ------------------------------------------------- BM25 top-k retrieval

BM25_K1 = 1.2
BM25_B = 0.75
BM25_TOPK = 10
BM25_QUANT = 1_000_000  # idf quantized to integer micro-nats (margin-tested)
# query set: three 2-term queries built from the corpus's df ranking
# (ranks 10..15 by df DESC, token ASC) — deterministic on both sides, and
# EXACTLY two terms per query so the per-doc score is a single IEEE
# addition (a+b == b+a): no summation-order freedom anywhere
BM25_RANK_LO, BM25_RANK_HI = 10, 15


def q_bm25_topk(sf_dir: str) -> pd.DataFrame:
    """BM25 top-{BM25_TOPK} retrieval over the documents table — the
    classic sparse-retrieval scorer (Robertson et al.), SQL-exact:

    - idf = ln((N - df + 0.5)/(df + 0.5) + 1) quantized to integer
      micro-nats (floor(·1e6 + .5); numpy ln vs DuckDB ln boundary margin
      is pytest-pinned, the unigram-LM discipline);
    - the tf normalization ``tf·(k1+1) / (tf + k1·(1 − b + b·dl/avgdl))``
      is written with IDENTICAL parenthesization on both sides, so every
      (term, doc) contribution is the same IEEE double bit for bit;
    - scores rank (DESC, doc_id) — deterministic because the doubles are
      bit-identical, never because gaps are large.

    Engine shape: ONE distributed pass builds the df table (unique
    (doc, term) partials → vocab-sized groupby — bounded by the language,
    not the corpus) and the global (N, Σdl); the driver derives the
    2-term query set + quantized idfs (O(queries) state) and broadcasts;
    ONE streaming scoring pass computes tf vectorized per batch and emits
    per-block partial top-k — document text crosses the wire exactly
    twice, postings never shuffle."""
    import ray
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def df_partial(b: pa.Table) -> pa.Table:
        t = pd.Series(b["text"].to_pandas()).str.lower().str.findall(r"[a-z]+")
        dl = t.str.len().astype("int64").sum()
        flat = t.explode().dropna()
        if flat.empty:
            return pa.table({"token": pa.array(["\x00dl"], pa.string()),
                             "df": pa.array([0], pa.int64()),
                             "dl": pa.array([int(dl)], pa.int64())})
        pairs = pd.DataFrame({"d": flat.index.to_numpy(), "t": flat.to_numpy()})
        per = pairs.drop_duplicates().groupby("t", sort=False).size()
        out = pa.table({
            "token": pa.array(list(per.index) + ["\x00dl"], pa.string()),
            "df": pa.array(list(per.to_numpy(np.int64)) + [0], pa.int64()),
            "dl": pa.array([0] * len(per) + [int(dl)], pa.int64())})
        return out

    agg = (ds.map_batches(df_partial, batch_format="pyarrow", batch_size=4096)
           .groupby("token")
           .aggregate(Sum("df", alias_name="df"), Sum("dl", alias_name="dl"))
           .to_pandas())
    sum_dl = int(agg.loc[agg["token"] == "\x00dl", "dl"].sum())
    dfs = agg[agg["token"] != "\x00dl"][["token", "df"]].copy()
    import os

    import pyarrow.parquet as pqm
    n_docs = pqm.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    avgdl = float(sum_dl) / float(n_docs)

    dfs = dfs.sort_values(["df", "token"], ascending=[False, True],
                          kind="mergesort").reset_index(drop=True)
    sel = dfs.iloc[BM25_RANK_LO - 1:BM25_RANK_HI]  # ranks 10..15
    qterms = sel["token"].to_numpy(dtype=object).astype(str)
    qdf = sel["df"].to_numpy(np.float64)
    qidf = np.floor(np.log((float(n_docs) - qdf + 0.5) / (qdf + 0.5) + 1.0)
                    * BM25_QUANT + 0.5).astype(np.int64)
    q_of_term = (np.arange(qterms.size) // 2).astype(np.int64)
    bref = ray.put((qterms, qidf, q_of_term, avgdl))

    def score(b: pa.Table) -> pd.DataFrame:
        qt, qi, qq, ad = ray.get(bref)
        df_ = b.to_pandas()
        toks = df_["text"].str.lower().str.findall(r"[a-z]+")
        dl = toks.str.len().to_numpy(np.int64)
        flat = toks.explode().dropna()
        n = len(df_)
        tf = np.zeros((n, qt.size), np.int64)
        if not flat.empty:
            arr = flat.to_numpy(dtype=object).astype(str)
            didx = flat.index.to_numpy(np.int64)
            for ti, term in enumerate(qt):
                hit = arr == term
                if hit.any():
                    np.add.at(tf[:, ti], didx[hit], 1)
        # contribution per (doc, term): EXACT expression mirrored in SQL
        denom = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl[:, None] / ad)
        contrib = qi[None, :] * (tf * (BM25_K1 + 1.0)) / denom
        contrib[tf == 0] = 0.0
        frames = []
        for q in range(int(qq.max()) + 1 if qq.size else 0):
            cols = np.flatnonzero(qq == q)
            s = contrib[:, cols[0]] + contrib[:, cols[1]]  # exactly 2 terms
            keep = s > 0
            if not keep.any():
                continue
            ids = df_["doc_id"].to_numpy(np.int64)[keep]
            sv = s[keep]
            k = min(BM25_TOPK, ids.size)
            idx = np.lexsort((ids, -sv))[:k]
            frames.append(pd.DataFrame({"q_id": q, "doc_id": ids[idx],
                                        "score": sv[idx]}))
        if not frames:
            return pd.DataFrame({"q_id": pd.Series([], dtype="int64"),
                                 "doc_id": pd.Series([], dtype="int64"),
                                 "score": pd.Series([], dtype="float64")})
        return pd.concat(frames, ignore_index=True)

    cand = ds.map_batches(score, batch_format="pyarrow",
                          batch_size=4096).to_pandas()
    cand = cand.sort_values(["q_id", "score", "doc_id"],
                            ascending=[True, False, True])
    cand = cand.groupby("q_id").head(BM25_TOPK)
    cand["rank"] = (cand.groupby("q_id").cumcount() + 1).astype("int64")
    return (cand[["q_id", "doc_id", "rank", "score"]]
            .reset_index(drop=True)
            .astype({"q_id": "int64", "doc_id": "int64"}))


Q_BM25_SQL = f"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS token
  FROM documents
), dl AS (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS dl FROM toks GROUP BY doc_id
), dft AS (
  SELECT token, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
  FROM toks GROUP BY token
), stats AS (
  SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM documents) AS n_docs,
         (SELECT CAST(COUNT(*) AS BIGINT) FROM toks) AS sum_dl
), qterms AS (
  SELECT CAST((r - {BM25_RANK_LO}) // 2 AS BIGINT) AS q_id, token,
         CAST(floor(ln((CAST(n_docs AS DOUBLE) - df + 0.5) / (df + 0.5)
                       + 1.0) * {BM25_QUANT} + 0.5) AS BIGINT) AS qidf
  FROM (SELECT token, df,
               ROW_NUMBER() OVER (ORDER BY df DESC, token) AS r
        FROM dft), stats
  WHERE r BETWEEN {BM25_RANK_LO} AND {BM25_RANK_HI}
), tf AS (
  SELECT t.doc_id, q.q_id, q.token, q.qidf, CAST(COUNT(*) AS BIGINT) AS tf
  FROM toks t JOIN qterms q USING (token)
  GROUP BY 1, 2, 3, 4
), contrib AS (
  -- every float literal CAST to DOUBLE: DuckDB parses bare 1.2 as
  -- DECIMAL, whose exact arithmetic diverges from the engine's IEEE
  -- doubles by an ulp (found via tf*(1.2+1.0): decimal 6.6 vs binary
  -- 6.6000000000000005)
  SELECT tf.q_id, tf.doc_id,
         tf.qidf * (tf.tf * (CAST({BM25_K1} AS DOUBLE) + 1.0))
           / (tf.tf + CAST({BM25_K1} AS DOUBLE)
                      * (1.0 - CAST({BM25_B} AS DOUBLE)
                         + CAST({BM25_B} AS DOUBLE) * dl.dl
                           / (CAST(s.sum_dl AS DOUBLE) / s.n_docs)))
           AS c
  FROM tf JOIN dl USING (doc_id), stats s
), scored AS (
  SELECT q_id, doc_id, SUM(c) AS score
  FROM contrib GROUP BY q_id, doc_id
)
SELECT q_id, doc_id, CAST(rank AS BIGINT) AS rank, score FROM (
  SELECT q_id, doc_id, score,
         ROW_NUMBER() OVER (PARTITION BY q_id ORDER BY score DESC, doc_id) AS rank
  FROM scored)
WHERE rank <= {BM25_TOPK}
ORDER BY q_id, rank
"""


# --------------------------------------------- hashed linear classification

HC_TOPICS = 8
HC_KOFF = 1000003
HC_WRANGE = 2001  # weights in [-1000, 1000]


def _hc_token_hash(tok: str) -> int:
    h = 0
    for ch in tok:
        h = (h * 31 + ord(ch)) % 4294967296
    return h


def q_hash_classifier(sf_dir: str) -> pd.DataFrame:
    """Hashed-feature linear classifier scoring (the fastText/VW shape —
    feature hashing → per-class integer weights → argmax), the
    model-scoring stage of a training-data pipeline run fully
    distributed: ONE streaming pass, no model shipped (weights are a pure
    function of the token hash, the hashing-trick's defining property).

    Integer end to end: token poly-31 hash → per-class weight
    mix(h + k·{HC_KOFF}) % {HC_WRANGE} − 1000; per-doc class scores are
    order-free int sums; argmax ties to the smallest class via the packed
    key (score + 1e9)·16 + (15 − k).

    Per batch the hash runs once per UNIQUE token (vocabulary-bounded),
    then scores accumulate via one np.add.at over the exploded stream.
    """
    from .sources import read_table

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def score(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        toks = tokenize(df["text"])
        e = toks.explode().dropna()
        doc_idx = e.index.to_numpy()
        vals = e.to_numpy(dtype=object)
        uniq, inv = np.unique(vals, return_inverse=True)
        h = np.array([_hc_token_hash(t) for t in uniq], dtype=np.uint64)
        k = np.arange(HC_TOPICS, dtype=np.uint64)[None, :]
        m = ((h[:, None] + k * np.uint64(HC_KOFF)) % np.uint64(1 << 32)
             * np.uint64(2654435761)) % np.uint64(1 << 32)
        m = ((m ^ (m >> np.uint64(16))) * np.uint64(2246822519)) % np.uint64(1 << 32)
        w = (m % np.uint64(HC_WRANGE)).astype(np.int64) - 1000
        scores = np.zeros((len(df), HC_TOPICS), np.int64)
        np.add.at(scores, doc_idx, w[inv])
        key = (scores + 1_000_000_000) * 16 + (15 - np.arange(HC_TOPICS))[None, :]
        best = key.max(axis=1)
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "pred_topic": (15 - best % 16).astype(np.int64),
            "pred_score": (best // 16 - 1_000_000_000).astype(np.int64)})

    out = ds.map_batches(score, batch_format="pyarrow",
                         batch_size=8192).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


_HC_MIXED = ("CAST(xor((CAST((h32 + k.k * {koff}) % 4294967296 AS UBIGINT) * 2654435761) % 4294967296, "
             "((CAST((h32 + k.k * {koff}) % 4294967296 AS UBIGINT) * 2654435761) % 4294967296) >> 16) "
             "* 2246822519 % 4294967296 % {wr} AS BIGINT) - 1000")

Q_HASH_CLASSIFIER_SQL = rf"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(text, '\s+'), x -> x <> '')) AS t
  FROM documents
), h AS (
  SELECT doc_id,
         list_reduce(list_transform(string_split(t, ''),
                     c -> CAST(unicode(c) AS BIGINT)),
                     (a, b) -> (a * 31 + b) % 4294967296) AS h32
  FROM toks
), w AS (
  SELECT doc_id, k.k,
         {_HC_MIXED.format(koff=HC_KOFF, wr=HC_WRANGE)} AS wt
  FROM h, LATERAL (SELECT unnest(generate_series(0, {HC_TOPICS - 1})) AS k) k
), sc AS (
  SELECT doc_id, k, CAST(SUM(wt) AS BIGINT) AS score
  FROM w GROUP BY doc_id, k
), b AS (
  SELECT doc_id, MAX((score + 1000000000) * 16 + (15 - k)) AS key
  FROM sc GROUP BY doc_id
)
SELECT doc_id, CAST(15 - key % 16 AS BIGINT) AS pred_topic,
       CAST(key // 16 - 1000000000 AS BIGINT) AS pred_score
FROM b
"""


# ------------------- trained hashed-feature logistic regression (K rounds)

LOGREG_ROUNDS = 4
LOGREG_BUCKETS = 8            # hashed token-count features + 1 bias
LOGREG_PS = 1024              # probability fixed point: p̂ = p/(4·PS)
LOGREG_WS = 1 << 20           # micro-weight scale: real w = w/WS
LOGREG_LR_NUM = 64            # update: w -= floor(g·LR_NUM / n)


def _logreg_featurize(df: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """(X, y): X = int64 (n, BUCKETS+1) hashed token-count matrix with a
    trailing bias column; y = 1 iff the doc contains the literal token
    'the'.  Token hash = the q_hash_classifier poly-31 (mod 2³²), bucket
    = h % {LOGREG_BUCKETS} — hashed once per UNIQUE token."""
    df = df.reset_index(drop=True)
    toks = tokenize(df["text"])
    e = toks.explode().dropna()
    X = np.zeros((len(df), LOGREG_BUCKETS + 1), np.int64)
    y = np.zeros(len(df), np.int64)
    if len(e):
        doc_idx = e.index.to_numpy()
        vals = e.to_numpy(dtype=object)
        uniq, inv = np.unique(vals, return_inverse=True)
        hb = np.array([_hc_token_hash(t) % LOGREG_BUCKETS for t in uniq],
                      np.int64)
        np.add.at(X, (doc_idx, hb[inv]), 1)
        y[np.unique(doc_idx[vals == "the"])] = 1
    X[:, LOGREG_BUCKETS] = 1
    return X, y


def _logreg_grad(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact int64 full-batch gradient under the hard sigmoid
    σ̂(z) = clip(1/2 + z/4, 0, 1) in fixed point: p = clip(2·PS +
    floor(z·PS / WS), 0, 4·PS), residual r = p − 4·PS·y, g = Xᵀr.
    Every step is integer (numpy // floors; the oracle emulates floor
    division exactly), so engine and SQL agree bit for bit."""
    z = X @ w
    p = np.clip(2 * LOGREG_PS + (z * LOGREG_PS) // LOGREG_WS,
                0, 4 * LOGREG_PS)
    return (p - 4 * LOGREG_PS * y) @ X


def q_logreg_train(sf_dir: str) -> pd.DataFrame:
    """TRAINED quality classifier — hashed-feature logistic regression,
    K = {LOGREG_ROUNDS} full-batch rounds (the trained complement of
    naive_bayes / hash_classifier): feature-hash token counts into
    {LOGREG_BUCKETS} buckets (+bias), label = contains-token-'the', and
    descend w ← w − ⌊g·{LOGREG_LR_NUM}/n⌋ under the hard-sigmoid
    integer-quantized gradient — the group_regression sufficient-stats
    discipline applied to an iterative fit.  Output: the weight vector
    after every round (round_no, feature_id, weight), all int64.

    Scale shape: featurization is ONE streaming pass (narrow int rows);
    each round is a map_batches partial gradient (9 ints per batch) →
    driver sum → the 9-int weight vector broadcast back in the next
    round's closure.  ZERO shuffles at any scale; the driver holds
    O(K·BUCKETS) state.  Size dispatch on the driver budget: while the
    feature rows (10 int64 per doc) fit it, the feature matrix collects
    once and the K rounds run local (saving K streaming passes); above,
    rounds stream — both lowerings produce identical integers
    (forced-dispatch pytest)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    D = LOGREG_BUCKETS + 1
    xcols = [f"x{j}" for j in range(D)]

    def featurize(b: pa.Table) -> pa.Table:
        X, y = _logreg_featurize(b.to_pandas())
        cols = {c: pa.array(X[:, j]) for j, c in enumerate(xcols)}
        cols["y"] = pa.array(y)
        return pa.table(cols)

    feats = (ds.map_batches(featurize, batch_format="pyarrow",
                            batch_size=8192).materialize())
    n = feats.count()
    # the two dispatch arms differ ONLY in how the full-batch gradient
    # is produced; the update rule and output shape are shared below
    if feats.size_bytes() <= join.DRIVER_MAX_BYTES:
        fdf = feats.to_pandas()
        X = fdf[xcols].to_numpy(np.int64)
        y = fdf["y"].to_numpy(np.int64)

        def grad(w: np.ndarray) -> np.ndarray:
            return _logreg_grad(X, y, w)
    else:
        def grad(w: np.ndarray) -> np.ndarray:
            def gpart(b: pa.Table, w=w) -> pa.Table:
                df = b.to_pandas()
                g = _logreg_grad(df[xcols].to_numpy(np.int64),
                                 df["y"].to_numpy(np.int64), w)
                return pa.table({f"g{j}": pa.array(g[j:j + 1])
                                 for j in range(D)})

            parts = (feats.map_batches(gpart, batch_format="pyarrow")
                     .to_pandas())          # one 9-int row per batch
            return parts.to_numpy(np.int64).sum(axis=0)

    w = np.zeros(D, np.int64)
    rows = []
    for r in range(1, LOGREG_ROUNDS + 1):
        w = w - (grad(w) * LOGREG_LR_NUM) // n
        rows += [(r, j, int(w[j])) for j in range(D)]
    return pd.DataFrame(rows, columns=["round_no", "feature_id", "weight"]
                        ).astype("int64")


def logreg_train_oracle_sql(k: int = LOGREG_ROUNDS) -> str:
    """Unrolled K-round CTE oracle.  Floor division (numpy ``//``) is
    emulated exactly: fdiv(a, b>0) = (a − ((a%b)+b)%b) // b — the
    subtraction makes the division exact, so DuckDB's truncation equals
    the floor.  HUGEINT intermediates, BIGINT casts at the edges."""
    D = LOGREG_BUCKETS + 1
    WS, PS, LRN = LOGREG_WS, LOGREG_PS, LOGREG_LR_NUM
    piv = ",\n         ".join(
        f"CAST(SUM(CASE WHEN h32 % {LOGREG_BUCKETS} = {j} THEN 1 ELSE 0 "
        f"END) AS BIGINT) AS x{j}" for j in range(LOGREG_BUCKETS))
    featx = ",\n       ".join(
        f"CAST(COALESCE(p.x{j}, 0) AS BIGINT) AS x{j}"
        for j in range(LOGREG_BUCKETS))
    zexpr = " + ".join(f"w.w{j} * f.x{j}" for j in range(D))
    w0 = ", ".join(f"CAST(0 AS BIGINT) AS w{j}" for j in range(D))
    sql = rf"""WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS t
  FROM documents
), h AS (
  SELECT doc_id,
         list_reduce(list_transform(string_split(t, ''),
                     c -> CAST(unicode(c) AS BIGINT)),
                     (a, b) -> (a * 31 + b) % 4294967296) AS h32
  FROM toks
), piv AS (
  SELECT doc_id, {piv}
  FROM h GROUP BY doc_id
), feat AS (
  SELECT {featx},
       CAST(1 AS BIGINT) AS x{LOGREG_BUCKETS},
       CASE WHEN list_contains(list_filter(string_split_regex(d.text,
            '\s+'), x -> x <> ''), 'the') THEN 1 ELSE 0 END AS y
  FROM documents d LEFT JOIN piv p USING (doc_id)
), cnt AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n FROM feat
), w0 AS (
  SELECT {w0}
)"""
    for r in range(1, k + 1):
        gsum = ",\n         ".join(
            f"SUM((p - {4 * PS} * y) * x{j}) AS g{j}" for j in range(D))
        upd = ",\n         ".join(
            f"CAST(w.w{j} - (u.a{j} - ((u.a{j} % c.n) + c.n) % c.n) // c.n"
            f" AS BIGINT) AS w{j}" for j in range(D))
        aa = ", ".join(f"g{j} * {LRN} AS a{j}" for j in range(D))
        sql += f""", z{r} AS (
  SELECT f.*, ({zexpr}) * {PS} AS zz
  FROM feat f CROSS JOIN w{r - 1} w
), p{r} AS (
  SELECT *, LEAST(GREATEST({2 * PS}
    + (zz - ((zz % {WS}) + {WS}) % {WS}) // {WS}, 0), {4 * PS}) AS p
  FROM z{r}
), g{r} AS (
  SELECT {gsum} FROM p{r}
), u{r} AS (
  SELECT {aa} FROM g{r}
), w{r} AS (
  SELECT {upd}
  FROM w{r - 1} w CROSS JOIN u{r} u CROSS JOIN cnt c
)"""
    arms = [f"SELECT {r} AS round_no, {j} AS feature_id, "
            f"CAST(w{j} AS BIGINT) AS weight FROM w{r}"
            for r in range(1, k + 1) for j in range(D)]
    return sql + "\n" + "\nUNION ALL\n".join(arms)


# ------------------------------------------------------- BPE merge step

def q_bpe_merge_step(sf_dir: str) -> pd.DataFrame:
    """One byte-pair-encoding merge round (Sennrich et al. 2016 — the
    tokenizer-training inner loop) over the corpus character stream: count
    every adjacent character pair inside words weighted by corpus word
    frequency, pick the most frequent (ties to the lexically smallest),
    and report the corpus compression the merge buys (greedy
    non-overlapping replacement, the str.replace == SQL replace()
    semantics).

    Shape: ONE vocabulary groupby (corpus → O(V)); pair counting and the
    merge run over the VOCABULARY with positional string slices — the
    corpus text is never touched again.  At 100 TB the vocabulary is
    language-bounded, so the whole merge round after the first groupby is
    driver-trivial."""
    from .sources import read_table

    ds = read_table(sf_dir, "documents", columns=["text"])

    def toks(b: pa.Table) -> pa.Table:
        t = tokenize(b.to_pandas()["text"]).explode().dropna()
        vc = t.groupby(t).size()
        return pa.table({"w": pa.array(vc.index.astype(str)),
                         "n": pa.array(vc.to_numpy(np.int64))})

    from ray.data.aggregate import Sum as ASum
    vocab = (ds.map_batches(toks, batch_format="pyarrow", batch_size=8192)
             .groupby("w").aggregate(ASum("n", alias_name="n"))
             .to_pandas())
    words = vocab["w"].astype(str)
    counts = vocab["n"].to_numpy(np.int64)
    # adjacent pair counts via positional slices (vocabulary-sized work)
    pair_counts: dict[str, int] = {}
    maxlen = int(words.str.len().max()) if len(words) else 0
    for i in range(maxlen - 1):
        sel = words.str.len() > i + 1
        pairs = words[sel].str.slice(i, i + 2)
        for pr, c in zip(pairs, counts[sel.to_numpy()]):
            pair_counts[pr] = pair_counts.get(pr, 0) + int(c)
    if not pair_counts:
        return pd.DataFrame({"pair": [""], "pair_count": [np.int64(0)],
                             "len_before": [np.int64(0)],
                             "len_after": [np.int64(0)]})
    best = min(pair_counts, key=lambda p: (-pair_counts[p], p))
    len_before = int((words.str.len().to_numpy(np.int64) * counts).sum())
    merged = words.str.replace(best, "\x01", regex=False)
    len_after = int((merged.str.len().to_numpy(np.int64) * counts).sum())
    return pd.DataFrame({"pair": [best],
                         "pair_count": [np.int64(pair_counts[best])],
                         "len_before": [np.int64(len_before)],
                         "len_after": [np.int64(len_after)]})


Q_BPE_MERGE_STEP_SQL = r"""
WITH toks AS (
  SELECT unnest(list_filter(string_split_regex(text, '\s+'), x -> x <> '')) AS w
  FROM documents
), vocab AS (
  SELECT w, CAST(COUNT(*) AS BIGINT) AS n FROM toks GROUP BY w
), pairs AS (
  SELECT substr(w, CAST(i.i AS INTEGER), 2) AS pair, SUM(n) AS cnt
  FROM vocab, LATERAL (SELECT unnest(generate_series(1, len(w) - 1)) AS i) i
  GROUP BY pair
), best AS (
  SELECT pair, CAST(cnt AS BIGINT) AS pair_count
  FROM pairs ORDER BY cnt DESC, pair LIMIT 1
)
SELECT best.pair, best.pair_count,
       (SELECT CAST(SUM(len(w) * n) AS BIGINT) FROM vocab) AS len_before,
       (SELECT CAST(SUM(len(replace(w, best.pair, chr(1))) * n) AS BIGINT)
        FROM vocab) AS len_after
FROM best
"""


# ------------------------------------------ BPE vocabulary TRAINING

BPE_TRAIN_ROUNDS = 6


def _bpe_pair_counts(words: pd.Series, counts: np.ndarray) -> pd.Series:
    """Adjacent-pair counts over a (word, freq) vocabulary, positionally
    (every offset i contributes substr(w, i, 2) weighted by freq — the
    oracle's LATERAL generate_series formulation).  Vectorized: one
    str.slice per offset, one groupby-sum over the concatenated slices."""
    parts = []
    maxlen = int(words.str.len().max()) if len(words) else 0
    for i in range(maxlen - 1):
        sel = (words.str.len() > i + 1).to_numpy()
        if not sel.any():
            continue
        parts.append(pd.DataFrame({
            "pair": words[sel].str.slice(i, i + 2).to_numpy(),
            "c": counts[sel]}))
    if not parts:
        return pd.Series(dtype=np.int64)
    return pd.concat(parts, ignore_index=True).groupby("pair")["c"].sum()


def _bpe_best(pair_counts: pd.Series) -> tuple[str, int]:
    """Most frequent pair, ties to the lexically smallest (code-point
    order == DuckDB's UTF-8 byte order, so ORDER BY cnt DESC, pair)."""
    best = min(pair_counts.index, key=lambda p: (-int(pair_counts[p]), p))
    return best, int(pair_counts[best])


def q_bpe_train(sf_dir: str) -> pd.DataFrame:
    """FULL BPE vocabulary training (Sennrich et al. 2016), K =
    {BPE_TRAIN_ROUNDS} merge rounds: the q_bpe_merge_step inner loop run
    to a vocabulary — each round counts adjacent symbol pairs over the
    current vocab (corpus-frequency weighted, positional), merges the
    winner into a fresh 1-char symbol chr(round) (greedy non-overlapping
    replace, the str.replace == SQL replace() semantics), and reports
    (merge_round, pair, pair_count, vocab_len_after).

    Scale shape: ONE corpus-sized groupby builds the (word, freq)
    vocabulary; every later round is vocabulary-sized.  Size dispatch on
    the driver budget: while the vocab fits it, the K-round loop runs
    driver-side (a language-bounded vocab is MB-scale even at 100 TB);
    above, each round is distributed — map_batches pair-count partials →
    one pair-sized groupby-Sum (pairs are alphabet²-bounded, tiny) →
    driver picks the winner → the merge ships back as a broadcast
    1-string closure in the next map_batches replace.  The corpus text
    is touched exactly once, in round zero's groupby."""
    from ray.data.aggregate import Sum as ASum

    ds = read_table(sf_dir, "documents", columns=["text"])

    def toks(b: pa.Table) -> pa.Table:
        t = tokenize(b.to_pandas()["text"]).explode().dropna()
        vc = t.groupby(t).size()
        return pa.table({"w": pa.array(vc.index.astype(str)),
                         "n": pa.array(vc.to_numpy(np.int64))})

    vocab_ds = (ds.map_batches(toks, batch_format="pyarrow",
                               batch_size=8192)
                .groupby("w").aggregate(ASum("n", alias_name="n"))
                .materialize())
    rows = []
    if vocab_ds.size_bytes() <= join.DRIVER_MAX_BYTES:
        vocab = vocab_ds.to_pandas()
        words = vocab["w"].astype(str)
        counts = vocab["n"].to_numpy(np.int64)
        for r in range(1, BPE_TRAIN_ROUNDS + 1):
            pc = _bpe_pair_counts(words, counts)
            if not len(pc):  # degenerate single-char vocab
                break
            best, n_best = _bpe_best(pc)
            words = words.str.replace(best, chr(r), regex=False)
            rows.append((np.int64(r), best, np.int64(n_best),
                         np.int64((words.str.len().to_numpy(np.int64)
                                   * counts).sum())))
    else:  # pragma: no cover — exercised by the forced-dispatch pytest
        for r in range(1, BPE_TRAIN_ROUNDS + 1):
            def pair_partial(b: pa.Table) -> pa.Table:
                df = b.to_pandas()
                pc = _bpe_pair_counts(df["w"].astype(str),
                                      df["n"].to_numpy(np.int64))
                return pa.table({"pair": pa.array(pc.index.astype(str)),
                                 "c": pa.array(pc.to_numpy(np.int64))})

            pc = (vocab_ds.map_batches(pair_partial,
                                       batch_format="pyarrow")
                  .groupby("pair").aggregate(ASum("c", alias_name="c"))
                  .to_pandas())          # alphabet²-bounded — tiny
            if not len(pc):
                break
            best, n_best = _bpe_best(pc.set_index("pair")["c"])
            sym = chr(r)

            def merge(b: pa.Table, best=best, sym=sym) -> pa.Table:
                df = b.to_pandas()
                w = df["w"].astype(str).str.replace(best, sym, regex=False)
                return pa.table({
                    "w": pa.array(w.to_numpy()),
                    "n": pa.array(df["n"].to_numpy(np.int64)),
                    "l": pa.array((w.str.len().to_numpy(np.int64)
                                   * df["n"].to_numpy(np.int64)))})

            vocab_ds = (vocab_ds.map_batches(merge,
                                             batch_format="pyarrow")
                        .materialize())
            rows.append((np.int64(r), best, np.int64(n_best),
                         np.int64(vocab_ds.sum("l"))))
            vocab_ds = vocab_ds.drop_columns(["l"])
    return pd.DataFrame(rows, columns=["merge_round", "pair",
                                       "pair_count", "vocab_len_after"])


def q_bpe_train_encode(sf_dir: str) -> pd.DataFrame:
    """The composed tokenizer-build pipeline: TRAIN the K-round BPE
    merge table on the corpus (q_bpe_train), then ENCODE the corpus
    with the learned table (rank-ordered greedy replace — the
    q_bpe_encode application semantics) and report per-language corpus
    compression: (lang, n_docs, len_before, len_after).

    Scale shape: train = one corpus groupby + vocab-sized rounds;
    encode = ONE more streaming pass applying the K-row merge table
    (closure-broadcast — it is a few bytes), with per-batch partial
    (lang, count, Σlen) rows through one language-sized groupby.
    Merged symbols never span whitespace (pairs come from the word
    vocabulary), so the replace chain is safe on raw text."""
    from ray.data.aggregate import Sum as ASum

    trained = q_bpe_train(sf_dir)
    merges = [(p, chr(int(r))) for r, p in
              zip(trained["merge_round"], trained["pair"])]

    ds = read_table(sf_dir, "documents", columns=["lang", "text"])

    def enc(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        s = df["text"]
        lb = s.str.len().to_numpy(np.int64)
        for pair, sym in merges:
            s = s.str.replace(pair, sym, regex=False)
        la = s.str.len().to_numpy(np.int64)
        g = (pd.DataFrame({"lang": df["lang"], "n_docs": 1,
                           "len_before": lb, "len_after": la})
             .groupby("lang", sort=False).sum().reset_index())
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (ds.map_batches(enc, batch_format="pyarrow", batch_size=8192)
           .groupby("lang")
           .aggregate(ASum("n_docs", alias_name="n_docs"),
                      ASum("len_before", alias_name="len_before"),
                      ASum("len_after", alias_name="len_after"))
           .to_pandas())
    out = out.astype({c: "int64" for c in
                      ("n_docs", "len_before", "len_after")})
    return out.sort_values("lang").reset_index(drop=True)


def bpe_train_encode_oracle_sql(k: int = BPE_TRAIN_ROUNDS) -> str:
    """The bpe_train unrolled-CTE trainer feeding a rank-ordered nested
    replace() chain whose pair arguments are the b_r scalar subqueries."""
    train = bpe_train_oracle_sql(k)
    head = train[:train.index("\nSELECT 1 AS merge_round")]
    chain = "text"
    for r in range(1, k + 1):
        # COALESCE guards the pair-supply-exhausted case (b_r empty →
        # NULL pair → NULL text): the 3-BEL sentinel can match nothing —
        # pairs are 2 chars and the corpus carries no control chars — so
        # the exhausted rounds become no-ops, matching the engine's
        # early loop break
        chain = (f"replace({chain}, COALESCE((SELECT pair FROM b{r}), "
                 f"repeat(chr(7), 3)), chr({r}))")
    return f"""{head}
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(len(text)) AS BIGINT) AS len_before,
       CAST(SUM(len({chain})) AS BIGINT) AS len_after
FROM documents GROUP BY lang ORDER BY lang
"""


def bpe_train_oracle_sql(k: int = BPE_TRAIN_ROUNDS) -> str:
    """Unrolled K-round CTE oracle (the kmeans_embed unrolled-round
    discipline): v0 = the word-frequency vocabulary, then per round r a
    positional pair count p_r, winner b_r (ORDER BY cnt DESC, pair), and
    the merged vocabulary v_r = replace(w, b_r.pair, chr(r))."""
    parts = [r"""WITH toks AS (
  SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS w
  FROM documents
), v0 AS (
  SELECT w, CAST(COUNT(*) AS BIGINT) AS n FROM toks GROUP BY w
)"""]
    for r in range(1, k + 1):
        parts.append(f""", p{r} AS (
  SELECT substr(w, CAST(i.i AS INTEGER), 2) AS pair, SUM(n) AS cnt
  FROM v{r - 1}, LATERAL (SELECT unnest(generate_series(1, len(w) - 1))
                          AS i) i
  GROUP BY pair
), b{r} AS (
  SELECT pair, CAST(cnt AS BIGINT) AS pair_count FROM p{r}
  ORDER BY cnt DESC, pair LIMIT 1
), v{r} AS (
  SELECT replace(w, (SELECT pair FROM b{r}), chr({r})) AS w, n
  FROM v{r - 1}
)""")
    selects = [
        f"SELECT {r} AS merge_round, pair, pair_count,\n"
        f"       (SELECT CAST(SUM(len(w) * n) AS BIGINT) FROM v{r})"
        f" AS vocab_len_after FROM b{r}"
        for r in range(1, k + 1)]
    return "".join(parts) + "\n" + "\nUNION ALL\n".join(selects)


# ------------------------- content-defined chunking (rolling-hash CDC)

CDC_B = 257           # rolling-hash base
CDC_M = 1_000_003     # hash modulus (prime)
CDC_DIV = 64          # boundary rule: h % DIV == 0 → expected ~64-char chunks
CDC_W = 4             # hash window (bytes)


def q_cdc_chunks(sf_dir: str) -> pd.DataFrame:
    """Content-defined chunking (the rolling-hash boundary rule behind
    dedup-friendly storage à la LBFS/rsync): a chunk boundary falls after
    character j = i+{CDC_W}-1 wherever the {CDC_W}-byte window hash at i
    satisfies h % {CDC_DIV} == 0 — boundaries move WITH content, so an
    insertion only re-chunks its neighborhood.  Output per doc: chunk
    count and the sum of squared chunk lengths (the size-distribution
    fingerprint).  Integer arithmetic end to end.

    Engine shape: one streaming pass; the whole batch's text concatenates
    into ONE byte array, the polynomial hash is four shifted vector ops,
    and windows crossing doc joints are masked out — no per-doc Python
    in the hot loop."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def chunks(b: pa.Table) -> pd.DataFrame:
        ids = np.asarray(b["doc_id"], dtype=np.int64)
        texts = b["text"].to_pylist()
        lens = np.fromiter((len(t) for t in texts), np.int64, len(texts))
        big = np.frombuffer("".join(texts).encode("ascii"), np.uint8)
        ends = np.cumsum(lens)            # exclusive doc ends in big[]
        starts = ends - lens
        n = big.size
        if n >= CDC_W:
            h = (big[: n - 3].astype(np.int64) * CDC_B**3
                 + big[1: n - 2] * CDC_B**2
                 + big[2: n - 1] * CDC_B
                 + big[3: n]) % CDC_M
            i = np.flatnonzero(h % CDC_DIV == 0)
            # window must sit inside one doc, and a cut at the last char
            # would open an empty final chunk — exclude both
            d = np.searchsorted(ends, i, side="right")
            j = i + CDC_W - 1
            keep = j < ends[d] - 1
            cut_doc, cut_j = d[keep], j[keep] - starts[d[keep]]
        else:
            cut_doc = np.empty(0, np.int64)
            cut_j = np.empty(0, np.int64)
        # per-doc segment lengths: [start-1, cuts..., len-1] diffs
        n_cuts = np.bincount(cut_doc, minlength=len(texts))
        # groupwise: reset prev at each doc's first cut
        first_of_doc = np.ones(cut_j.size, bool)
        first_of_doc[1:] = cut_doc[1:] != cut_doc[:-1]
        seg = cut_j - np.where(first_of_doc, -1, np.concatenate(
            ([np.int64(0)], cut_j[:-1])))
        sumsq = np.zeros(len(texts), np.int64)
        np.add.at(sumsq, cut_doc, seg * seg)
        # final chunk per doc: len-1 - last_cut (or the whole doc)
        last = np.full(len(texts), -1, np.int64)
        np.maximum.at(last, cut_doc, cut_j)
        fin = lens - 1 - last
        sumsq += fin * fin
        return pd.DataFrame({"doc_id": ids,
                             "n_chunks": n_cuts + 1,
                             "sumsq_len": sumsq}).astype("int64")

    out = (ds.map_batches(chunks, batch_format="pyarrow", batch_size=4096)
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


Q_CDC_CHUNKS_SQL = f"""
WITH pos AS (
  SELECT d.doc_id, t.range AS i, length(d.text) AS len,
         (ascii(substr(d.text, CAST(t.range + 1 AS INT), 1)) * {CDC_B ** 3}
        + ascii(substr(d.text, CAST(t.range + 2 AS INT), 1)) * {CDC_B ** 2}
        + ascii(substr(d.text, CAST(t.range + 3 AS INT), 1)) * {CDC_B}
        + ascii(substr(d.text, CAST(t.range + 4 AS INT), 1))) % {CDC_M} AS h
  FROM documents d
  JOIN (SELECT UNNEST(generate_series(0,
          (SELECT MAX(length(text)) FROM documents))) AS range) t
    ON t.range + {CDC_W} <= length(d.text)
), cuts AS (
  SELECT doc_id, i + {CDC_W - 1} AS j, len
  FROM pos WHERE h % {CDC_DIV} = 0 AND i + {CDC_W - 1} < len - 1
), segs AS (
  SELECT doc_id, len, j,
         j - COALESCE(LAG(j) OVER (PARTITION BY doc_id ORDER BY j), -1)
           AS seg
  FROM cuts
), per_cut AS (
  SELECT doc_id,
         CAST(COUNT(*) AS BIGINT) AS n_cuts,
         CAST(SUM(seg * seg) AS BIGINT) AS sumsq_cut,
         CAST(MAX(len) - 1 - MAX(j) AS BIGINT) AS fin
  FROM segs GROUP BY doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(p.n_cuts, 0) + 1 AS BIGINT) AS n_chunks,
       CAST(COALESCE(p.sumsq_cut + p.fin * p.fin,
                     length(d.text) * length(d.text)) AS BIGINT) AS sumsq_len
FROM documents d LEFT JOIN per_cut p ON p.doc_id = d.doc_id
ORDER BY d.doc_id
"""


# --------------------------------- per-source corpus data card

def q_data_card(sf_dir: str) -> pd.DataFrame:
    """The corpus data card (per-source profile a 100 TB training-data
    pipeline publishes with every snapshot): for each (source, lang) —
    doc count, total chars, total whitespace tokens, short-doc count and
    a length histogram moment (Σ n_chars²) for the size distribution.
    One streaming pass of groupby partials; the exchange is
    O(sources·langs·blocks)."""
    from ray.data.aggregate import Max, Min, Sum

    ds = read_table(sf_dir, "documents",
                    columns=["source", "lang", "text", "n_chars"])

    def partial(b: pa.Table) -> pd.DataFrame:
        txt = pd.Series(b["text"].to_pandas())
        toks = tokenize(txt).str.len().fillna(0).astype(np.int64)
        nch = np.asarray(b["n_chars"], dtype=np.int64)
        df = pd.DataFrame({
            "source": b["source"].to_numpy(zero_copy_only=False),
            "lang": b["lang"].to_numpy(zero_copy_only=False),
            "n_docs": np.ones(len(txt), np.int64),
            "sum_chars": nch,
            "sum_tokens": toks.to_numpy(),
            "n_short": (nch < 100).astype(np.int64),
            "sumsq_chars": nch * nch,
            "min_chars": nch, "max_chars": nch})
        return df.groupby(["source", "lang"], as_index=False).agg(
            n_docs=("n_docs", "sum"), sum_chars=("sum_chars", "sum"),
            sum_tokens=("sum_tokens", "sum"), n_short=("n_short", "sum"),
            sumsq_chars=("sumsq_chars", "sum"),
            min_chars=("min_chars", "min"), max_chars=("max_chars", "max"))

    out = (ds.map_batches(partial, batch_format="pyarrow", batch_size=4096)
           .groupby(["source", "lang"])
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("sum_chars", alias_name="sum_chars"),
                      Sum("sum_tokens", alias_name="sum_tokens"),
                      Sum("n_short", alias_name="n_short"),
                      Sum("sumsq_chars", alias_name="sumsq_chars"),
                      Min("min_chars", alias_name="min_chars"),
                      Max("max_chars", alias_name="max_chars"))
           .to_pandas())
    ints = ["n_docs", "sum_chars", "sum_tokens", "n_short",
            "sumsq_chars", "min_chars", "max_chars"]
    out = out.astype({c: "int64" for c in ints})
    return (out.sort_values(["source", "lang"]).reset_index(drop=True))


Q_DATA_CARD_SQL = """
SELECT source, lang,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
       CAST(SUM(length(list_filter(string_split_regex(text, '\\s+'), x -> x <> ''))) AS BIGINT) AS sum_tokens,
       CAST(SUM(CASE WHEN n_chars < 100 THEN 1 ELSE 0 END) AS BIGINT) AS n_short,
       CAST(SUM(n_chars * n_chars) AS BIGINT) AS sumsq_chars,
       CAST(MIN(n_chars) AS BIGINT) AS min_chars,
       CAST(MAX(n_chars) AS BIGINT) AS max_chars
FROM documents GROUP BY source, lang ORDER BY source, lang
"""


# ----------------------- tokenizer application (BPE merge-table encode)

# the merges table a tokenizer ships (rank-ordered; applied sequentially,
# greedy non-overlapping left-to-right — str.replace == SQL replace)
BPE_MERGES = (("th", "\x01"), ("he", "\x02"), ("in", "\x03"), ("er", "\x04"))


def q_bpe_encode(sf_dir: str) -> pd.DataFrame:
    """Tokenizer APPLICATION at corpus scale (the encode half of BPE —
    q_bpe_merge_step trains; this applies a rank-ordered merges table to
    every document): each merge rewrites its pair to a 1-char symbol,
    sequentially by rank, so later merges see earlier merges' symbols —
    exactly how a shipped tokenizer's merges file is applied.  Output per
    doc: symbol count before/after and the merge savings.

    Shape: pure streaming map — the merges table is query-constant
    (broadcast-free; a learned table would ship via ray.put), the
    replace chain is vectorized pandas str ops."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def encode(b: pa.Table) -> pd.DataFrame:
        txt = pd.Series(b["text"].to_pandas())
        before = txt.str.len().to_numpy(np.int64)
        for pair, sym in BPE_MERGES:
            txt = txt.str.replace(pair, sym, regex=False)
        after = txt.str.len().to_numpy(np.int64)
        return pd.DataFrame({"doc_id": np.asarray(b["doc_id"],
                                                  dtype=np.int64),
                             "len_before": before, "len_after": after,
                             "n_merged": before - after})

    out = (ds.map_batches(encode, batch_format="pyarrow", batch_size=8192)
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def _bpe_replace_chain_sql(col: str) -> str:
    expr = col
    for pair, sym in BPE_MERGES:
        expr = f"replace({expr}, '{pair}', chr({ord(sym)}))"
    return expr


Q_BPE_ENCODE_SQL = f"""
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS len_before,
       CAST(length({_bpe_replace_chain_sql('text')}) AS BIGINT) AS len_after,
       CAST(length(text) - length({_bpe_replace_chain_sql('text')})
            AS BIGINT) AS n_merged
FROM documents ORDER BY doc_id
"""


# ------------------------------------ naive Bayes trained text classifier

NB_QUANT = 1_000_000   # surprisal quantum (integer micro-nats)


def q_naive_bayes(sf_dir: str) -> pd.DataFrame:
    """Multinomial naive Bayes, TRAINED on the corpus then scored over it
    — the count-based train→broadcast→score classifier shape
    (complementing q_hash_classifier, whose weights are a pure hash
    function with no training pass).  Add-1 smoothing; scores are
    SURPRISALS (negative log-probs, positive) in integer micro-nats so
    the per-doc sum is order-free and argMIN with (score, class) lex
    tie-break is deterministic: per class c,
    S(doc) = q(ln(N/n_c)) + Σ_tok tf·q(ln((tot_c + V)/(cnt_{c,tok} + 1)))
    with q(x) = ⌊x·{NB_QUANT} + 0.5⌋ (the unigram-LM quantized-ln
    discipline; boundary margins pytest-pinned over the real corpus).

    Engine shape: ONE distributed pass builds the (class, token) count
    table (bounded by classes × language vocabulary, not the corpus) +
    per-class doc/token totals; the driver assembles the C×V integer
    surprisal matrix and broadcasts it once; ONE streaming scoring pass
    per batch does searchsorted token lookup + np.add.at per class —
    document text crosses the wire exactly once per pass."""
    import ray

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def count_partial(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        toks = df["text"].str.lower().str.findall(r"[a-z]+")
        src = df["source"].to_numpy()
        flat = toks.explode().dropna()
        n_docs = pa.table({
            "source": pa.array(np.unique(src)), "token": pa.array(
                ["\x00docs"] * np.unique(src).size),
            "c": pa.array(np.unique(src, return_counts=True)[1]
                          .astype(np.int64))})
        if flat.empty:
            return n_docs
        t = pa.table({
            "source": pa.array(src[flat.index.to_numpy(np.int64)]),
            "token": pa.array(flat.to_numpy(dtype=object).astype(str)),
            "c": pa.array(np.ones(len(flat), np.int64))})
        g = (t.group_by(["source", "token"]).aggregate([("c", "sum")])
             .rename_columns(["source", "token", "c"]))
        return pa.concat_tables([g, n_docs])

    counts = (ds.map_batches(count_partial, batch_format="pyarrow",
                             batch_size=4096)
              .groupby(["source", "token"])
              .aggregate(Sum("c", alias_name="c"))
              .to_pandas())
    is_doc_row = counts["token"] == "\x00docs"
    n_c = (counts[is_doc_row].set_index("source")["c"]).to_dict()
    tok = counts[~is_doc_row]
    classes = np.array(sorted(n_c))                      # lex order = SQL
    vocab = np.sort(tok["token"].unique().astype(str))
    V, C = vocab.size, classes.size
    cnt = np.zeros((C, V), np.int64)
    ci = np.searchsorted(classes, tok["source"].to_numpy(dtype=object)
                         .astype(str))
    vi = np.searchsorted(vocab, tok["token"].to_numpy(dtype=object)
                         .astype(str))
    np.add.at(cnt, (ci, vi), tok["c"].to_numpy(np.int64))
    tot = cnt.sum(axis=1)
    N = int(sum(n_c.values()))
    qs = np.floor(np.log((tot[:, None] + V) / (cnt + 1.0))
                  * NB_QUANT + 0.5).astype(np.int64)
    qprior = np.floor(np.log(N / np.array([n_c[c] for c in classes],
                                          np.float64))
                      * NB_QUANT + 0.5).astype(np.int64)
    model = ray.put((vocab, qs, qprior, classes))

    def score(b: pa.Table) -> pd.DataFrame:
        v, q, qp, cls = ray.get(model)
        df = b.to_pandas()
        toks = df["text"].str.lower().str.findall(r"[a-z]+")
        flat = toks.explode().dropna()
        scores = np.tile(qp, (len(df), 1))               # (docs, C)
        if not flat.empty:
            arr = flat.to_numpy(dtype=object).astype(str)
            pos = np.searchsorted(v, arr)
            doc_idx = flat.index.to_numpy(np.int64)
            for c in range(cls.size):
                np.add.at(scores[:, c], doc_idx, q[c][pos])
        best = scores.argmin(axis=1)                     # first min = lex
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "pred": cls[best],
            "best_q": scores[np.arange(len(df)), best]})

    out = ds.map_batches(score, batch_format="pyarrow",
                         batch_size=4096).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


Q_NAIVE_BAYES_SQL = f"""
WITH toks AS MATERIALIZED (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS token
  FROM documents),
joint AS MATERIALIZED (
  SELECT d.source, t.token, CAST(COUNT(*) AS BIGINT) AS c
  FROM toks t JOIN documents d USING (doc_id)
  GROUP BY d.source, t.token),
ctot AS MATERIALIZED (
  SELECT source, SUM(c) AS tot FROM joint GROUP BY source),
vsz AS (SELECT COUNT(DISTINCT token) AS v FROM toks),
nn AS (SELECT COUNT(*) AS n FROM documents),
prior AS MATERIALIZED (
  SELECT source,
         CAST(floor(ln(CAST((SELECT n FROM nn) AS DOUBLE) / COUNT(*))
              * {NB_QUANT} + 0.5) AS BIGINT) AS qp
  FROM documents GROUP BY source),
ql AS MATERIALIZED (
  SELECT ct.source, vt.token,
         CAST(floor(ln(CAST(ct.tot + (SELECT v FROM vsz) AS DOUBLE)
                       / (COALESCE(j.c, 0) + 1))
              * {NB_QUANT} + 0.5) AS BIGINT) AS q
  FROM ctot ct
  CROSS JOIN (SELECT DISTINCT token FROM toks) vt
  LEFT JOIN joint j ON j.source = ct.source AND j.token = vt.token),
scored AS MATERIALIZED (
  SELECT t.doc_id, l.source,
         CAST(ANY_VALUE(p.qp) + SUM(l.q) AS BIGINT) AS s
  FROM toks t
  JOIN ql l ON l.token = t.token
  JOIN prior p ON p.source = l.source
  GROUP BY t.doc_id, l.source),
full_s AS MATERIALIZED (
  -- docs with zero tokens score prior-only against every class
  SELECT d.doc_id, p.source, COALESCE(s.s, p.qp) AS s
  FROM documents d
  CROSS JOIN prior p
  LEFT JOIN scored s ON s.doc_id = d.doc_id AND s.source = p.source)
SELECT doc_id, source AS pred, s AS best_q
FROM full_s
QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY s, source) = 1
ORDER BY doc_id
"""


# ----------------------- Count-Min sketch (mergeable frequency summary)

CMS_D = 4           # hash rows
CMS_W = 512         # buckets per row
CMS_KOFF = 1000003  # per-row hash offset (the q_hash_classifier mix)


def q_cms_sketch(sf_dir: str) -> pd.DataFrame:
    """Count-Min sketch of the corpus token stream (Cormode &
    Muthukrishnan 2005) — the frequency-summary sibling of
    q_hll_distinct's register-level-parity discipline: {CMS_D}×{CMS_W}
    counters, row j hashing each token with the q_hash_classifier
    double-mix at offset j·{CMS_KOFF}.  The gate is the REGISTER TABLE
    itself — (slot = j·{CMS_W} + bucket, n) for every nonzero counter —
    so the oracle recomputes every counter, not a lossy summary of it.

    Scale shape: per-batch partials hash once per UNIQUE token
    (vocabulary-bounded), scatter occurrence counts into a local dense
    D×W array, and emit nonzero slots; ONE sketch-sized groupby-Sum
    merges them (counters are trivially mergeable by addition — the
    property that makes CMS a distributed sketch)."""
    from ray.data.aggregate import Sum as ASum

    ds = read_table(sf_dir, "documents", columns=["text"])

    def partial(b: pa.Table) -> pa.Table:
        toks = tokenize(b.to_pandas()["text"]).explode().dropna()
        local = np.zeros(CMS_D * CMS_W, np.int64)
        if len(toks):
            uniq, cnt = np.unique(toks.to_numpy(dtype=object),
                                  return_counts=True)
            h = np.array([_hc_token_hash(t) for t in uniq], np.uint64)
            for j in range(CMS_D):
                m = ((h + np.uint64(j * CMS_KOFF)) % np.uint64(1 << 32)
                     * np.uint64(2654435761)) % np.uint64(1 << 32)
                m = ((m ^ (m >> np.uint64(16))) * np.uint64(2246822519)) \
                    % np.uint64(1 << 32)
                np.add.at(local, j * CMS_W + (m % np.uint64(CMS_W))
                          .astype(np.int64), cnt)
        nz = np.flatnonzero(local)
        return pa.table({"slot": pa.array(nz.astype(np.int64)),
                         "n": pa.array(local[nz])})

    out = (ds.map_batches(partial, batch_format="pyarrow",
                          batch_size=8192)
           .groupby("slot").aggregate(ASum("n", alias_name="n"))
           .to_pandas())
    out = out.astype({"slot": "int64", "n": "int64"})
    return out.sort_values("slot").reset_index(drop=True)


def cms_estimate(registers: pd.DataFrame, token: str) -> int:
    """Point-frequency estimate from a q_cms_sketch register table:
    min over rows of the token's counter (the CMS upper bound)."""
    reg = np.zeros(CMS_D * CMS_W, np.int64)
    reg[registers["slot"].to_numpy(np.int64)] = \
        registers["n"].to_numpy(np.int64)
    h = np.uint64(_hc_token_hash(token))
    est = None
    for j in range(CMS_D):
        m = ((h + np.uint64(j * CMS_KOFF)) % np.uint64(1 << 32)
             * np.uint64(2654435761)) % np.uint64(1 << 32)
        m = ((m ^ (m >> np.uint64(16))) * np.uint64(2246822519)) \
            % np.uint64(1 << 32)
        v = int(reg[j * CMS_W + int(m % np.uint64(CMS_W))])
        est = v if est is None else min(est, v)
    return int(est)


_CMS_MIXED = (
    "CAST(xor((CAST((h32 + k.k * {koff}) % 4294967296 AS UBIGINT) "
    "* 2654435761) % 4294967296, "
    "((CAST((h32 + k.k * {koff}) % 4294967296 AS UBIGINT) "
    "* 2654435761) % 4294967296) >> 16) "
    "* 2246822519 % 4294967296 % {w} AS BIGINT)")

Q_CMS_SKETCH_SQL = rf"""
WITH toks AS (
  SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS t
  FROM documents
), h AS (
  SELECT list_reduce(list_transform(string_split(t, ''),
                     c -> CAST(unicode(c) AS BIGINT)),
                     (a, b) -> (a * 31 + b) % 4294967296) AS h32
  FROM toks
)
SELECT k.k * {CMS_W} + {_CMS_MIXED.format(koff=CMS_KOFF, w=CMS_W)} AS slot,
       CAST(COUNT(*) AS BIGINT) AS n
FROM h, LATERAL (SELECT unnest(generate_series(0, {CMS_D - 1})) AS k) k
GROUP BY slot ORDER BY slot
"""
