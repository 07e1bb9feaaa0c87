"""Deduplication operators for large-scale training-data pipelines.

- exact:   content hash in map_batches → groupby(hash) → first per group
- minhash: shingle → minhash sigs per batch → explode to (band, band_hash)
           rows → groupby band bucket → candidate pairs → Jaccard verify
- simhash: 64-bit simhash per doc; near-dup candidates share a rotated
           prefix bucket (hamming ≤ k heuristic)
- ngram Jaccard: exact pairwise verify used on MinHash candidates

All hashing is deterministic (blake2b / fixed linear hashes) so results are
stable across runs and workers — required for the correctness gates.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data.aggregate import Count, Min, Sum

from .sources import read_table
from .stages import join
from .textops import tokenize

# ------------------------------------------------------------------ exact

def _text_hash(s: pd.Series) -> pd.Series:
    return s.map(lambda t: hashlib.blake2b(t.encode("utf-8"), digest_size=8).hexdigest())


def content_hash_rows(b: pa.Table) -> pa.Table:
    """(doc_id, h) projection shared by exact dedup and dup-marking.
    Arrow out: pandas blocks put Ray's sort-aggregate on a ~1k rows/s
    per-row path (see _word_shingle_rows)."""
    df = b.to_pandas()
    return pa.table({"doc_id": pa.array(df["doc_id"], pa.int64()),
                     "h": pa.array(_text_hash(df["text"]), pa.string())})


def q_exact_dedup(sf_dir: str) -> pd.DataFrame:
    """Exact dedup: hash-partition on content hash, keep min doc_id per
    group.  Output: one row per distinct text (survivor + dup count)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    add_hash = content_hash_rows

    # the repartition(16) is MEASURED block coalescing, not a redundant
    # exchange: the read auto-splits into ~2×CPUs small blocks, and the
    # sort-aggregate over 16 coalesced blocks runs 0.42s vs 0.78s over 64
    # (also vs 0.78s for hash-groupby num_partitions=16 — the win is the
    # coalesce, not the shuffle strategy; A/B'd at sf0.1, round 4)
    hashed = ds.map_batches(add_hash, batch_format="pyarrow", batch_size=8192).repartition(16)
    out = (hashed.groupby("h")
           .aggregate(Min("doc_id", alias_name="keep_doc_id"),
                      Count(alias_name="n_copies"))
           .to_pandas())
    return out[["keep_doc_id", "n_copies"]]


# (oracle uses GROUP BY text — identical partition since the hash is injective
# on this corpus; validated by the row-count + value-hash match)
Q_EXACT_DEDUP_SQL = """
SELECT MIN(doc_id) AS keep_doc_id, COUNT(*) AS n_copies
FROM documents GROUP BY text
"""

# ---------------------------------------------------------------- minhash

N_PERM = 64
N_BANDS = 16  # 4 rows per band
_MERSENNE = (1 << 61) - 1


def _perm_params(n_perm: int = N_PERM) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(1234567)
    a = rng.integers(1, _MERSENNE, n_perm, dtype=np.int64)
    b = rng.integers(0, _MERSENNE, n_perm, dtype=np.int64)
    return a, b


def _token_hash(tok: str) -> int:
    """Deterministic 32-bit token hash — MUST stay in sync with MinHasher's
    batch-vectorized pd.util.hash_array path (same murmur, fixed key), so
    the exact-Jaccard verify shares the LSH's shingle space."""
    return int(pd.util.hash_array(np.asarray([tok], dtype=object))[0] & 0xFFFFFFFF)


def shingles(text: str, k: int = 3) -> set[int]:
    """Word k-gram shingles as order-sensitive polynomial hashes of the
    vectorized token hashes — the SAME shingle space MinHasher signs, so
    LSH candidate recall and the exact Jaccard verify agree."""
    toks = text.split()
    if not toks:
        return set()
    th = (pd.util.hash_array(np.asarray(toks, dtype=object))
          & 0xFFFFFFFF).astype(np.int64)
    if th.size < k:
        grams = th[None, :]
    else:
        grams = np.lib.stride_tricks.sliding_window_view(th, k)
    c = np.zeros(grams.shape[0], dtype=np.int64)
    for j in range(grams.shape[1]):
        c = (c * 1_000_003 + grams[:, j]) % _MERSENNE
    return set(int(v) for v in c)


def minhash_signature(sh: set[int], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if not sh:
        return np.full(a.size, np.iinfo(np.int64).max, dtype=np.int64)
    vals = np.fromiter(sh, dtype=np.int64)
    # (a*x + b) mod p for each permutation — vectorized outer product
    h = (a[:, None] * vals[None, :] + b[:, None]) % _MERSENNE
    return h.min(axis=1)


class MinHasher:
    """Actor-pool stage: permutation parameters + token-hash cache built once
    per actor; signatures computed batch-vectorized.

    Vectorization: all docs' shingle hashes are concatenated into one array,
    the 64 permutations are applied as one (64, total) modmul, and per-doc
    minima come from ``np.minimum.reduceat`` at the doc boundaries — no
    per-doc Python loop in the hash math.  Token→hash goes through a dict
    cache (corpus vocabularies are small; blake2b runs once per distinct
    token)."""

    def __init__(self, k: int = 3):
        self.a, self.b = _perm_params()
        self.k = k

    def _batch_shingles(self, texts: pd.Series) -> tuple[np.ndarray, np.ndarray]:
        """All docs' shingle hashes in one vectorized pass: ONE
        pd.util.hash_array over every token of the batch (deterministic
        murmur, fixed key — matches _token_hash), ONE sliding-window
        polynomial combine over the flat token array, windows that straddle
        doc boundaries masked out.  Duplicate shingles are NOT deduped —
        the signature is a min, which duplicates cannot change.  Returns
        (flat_shingles, per_doc_lens)."""
        k = self.k
        tok_lists = texts.str.split().tolist()
        lens = np.asarray([len(t) for t in tok_lists], dtype=np.int64)
        n = lens.size
        flat_toks = np.concatenate(
            [np.asarray(t, dtype=object) for t in tok_lists if t]) \
            if lens.sum() else np.empty(0, dtype=object)
        th = (pd.util.hash_array(flat_toks) & 0xFFFFFFFF).astype(np.int64)
        if th.size >= k:
            w = np.lib.stride_tricks.sliding_window_view(th, k)
            comb = np.zeros(w.shape[0], dtype=np.int64)
            for j in range(k):
                comb = (comb * 1_000_003 + w[:, j]) % _MERSENNE
            doc_of = np.repeat(np.arange(n), lens)
            same_doc = doc_of[:comb.size] == doc_of[k - 1:]
            vdoc = doc_of[:comb.size][same_doc]
            vcomb = comb[same_doc]
            counts = np.bincount(vdoc, minlength=n)
        else:
            vcomb = np.empty(0, np.int64)
            counts = np.zeros(n, np.int64)
        segs = np.split(vcomb, np.cumsum(counts)[:-1]) if n else []
        # short docs (< k tokens): one gram over all tokens; empty: [0]
        offsets = np.concatenate([[0], np.cumsum(lens)])
        for d in np.flatnonzero(lens < k):
            tvals = th[offsets[d]:offsets[d + 1]]
            if tvals.size == 0:
                segs[d] = np.asarray([0], np.int64)
            else:
                c = 0
                for v in tvals:
                    c = (c * 1_000_003 + int(v)) % _MERSENNE
                segs[d] = np.asarray([c], np.int64)
        out_lens = np.asarray([s.size for s in segs], dtype=np.int64)
        flat = np.concatenate(segs) if segs else np.empty(0, np.int64)
        return flat, out_lens

    def _doc_shingles(self, text: str) -> np.ndarray:
        """Single-doc path (kept for oracle parity checks in tests)."""
        flat, _ = self._batch_shingles(pd.Series([text]))
        return np.unique(flat)

    def __call__(self, batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        flat, lens = self._batch_shingles(df["text"])
        # (64, chunk) permuted hashes → per-doc minima at boundaries.
        # Chunked along DOC boundaries so the (64, total) intermediate
        # stays cache-resident — one giant matrix goes memory-bound and
        # is ~25× slower per element on oversized batches.
        ends = np.cumsum(lens)
        starts = ends - lens
        sig_parts = []
        d0 = 0
        while d0 < lens.size:
            d1 = d0
            while d1 < lens.size and ends[d1] - starts[d0] <= 16384:
                d1 += 1
            d1 = max(d1, d0 + 1)
            seg = flat[starts[d0]:ends[d1 - 1]]
            h = (self.a[:, None] * seg[None, :] + self.b[:, None]) % _MERSENNE
            bounds = starts[d0:d1] - starts[d0]
            sig_parts.append(np.minimum.reduceat(h, bounds, axis=1))
            d0 = d1
        sigs = np.concatenate(sig_parts, axis=1) if sig_parts else \
            np.empty((N_PERM, 0), np.int64)  # (64, n_docs)
        rpb = N_PERM // N_BANDS
        n = len(df)
        rows_doc = np.repeat(df["doc_id"].to_numpy(), N_BANDS)
        rows_band = np.tile(np.arange(N_BANDS, dtype=np.int32), n)
        # vectorized FNV-1a-style mix of each band's rpb signature rows into
        # one int64 bucket key (band index folded in, so keys from different
        # bands never alias a bucket) — replaces a per-doc × per-band
        # Python blake2b loop; two docs share a band key iff their rpb
        # signature values match (mod a ~2^-64 mixing collision)
        u = sigs.reshape(N_BANDS, rpb, n).astype(np.uint64)
        acc = np.broadcast_to(
            (np.arange(N_BANDS, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
             ^ np.uint64(0xCBF29CE484222325))[:, None], (N_BANDS, n)).copy()
        with np.errstate(over="ignore"):
            for j in range(rpb):
                acc = (acc ^ u[:, j, :]) * np.uint64(0x100000001B3)
            acc ^= acc >> np.uint64(33)
        band_hash = acc.view(np.int64).T.ravel()  # doc-major
        return pa.table({"doc_id": pa.array(rows_doc),
                         "band": pa.array(rows_band, pa.int32()),
                         "band_hash": pa.array(band_hash, pa.int64())})


_MINHASHER: MinHasher | None = None

def minhash_batch(b: pa.Table) -> pa.Table:
    """Stateless-task lowering of MinHasher with a per-WORKER state cache:
    Ray reuses worker processes, so the permutation params are built once
    per worker (actor-__init__ semantics) while scheduling stays
    task-pool — no fixed pool to ramp up on small inputs."""
    global _MINHASHER
    if _MINHASHER is None:
        _MINHASHER = MinHasher()
    return _MINHASHER(b)


PAIR_CAP = 256  # max bucket size that emits all-pairs candidates

def _bucket_pairs(t: pa.Table, key: str, cap: int | None) -> pa.Table:
    """Candidate pairs (doc_a < doc_b) within every ``key`` bucket of the
    (``key``, doc_id) rows ``t``: one lexsort, then a loop over the
    colliding buckets — the loop count is the HOT-BUCKET count, never the
    corpus.  Unique doc ids per bucket, all-pairs up to ``cap``; a bucket
    larger than ``cap`` is star-paired to its min doc_id instead, because
    one viral duplicate (say 10⁶ copies of a page) would otherwise emit
    O(n²) pairs from a single bucket.  The star keeps every member one
    verified edge away from the bucket minimum — connected components
    downstream (trainprep.connected_components) recovers the identical
    full cluster — while the emitted pair count stays linear.
    ``cap=None`` disables the star (the SQL-exact uncapped form)."""
    keys = np.asarray(t[key], np.int64)
    docs = np.asarray(t["doc_id"], np.int64)
    order = np.lexsort((docs, keys))
    k, d = keys[order], docs[order]
    first = np.ones(k.size, bool)
    first[1:] = (k[1:] != k[:-1]) | (d[1:] != d[:-1])
    k, d = k[first], d[first]
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]]) if k.size else \
        np.empty(0, np.int64)
    ends = np.r_[starts[1:], k.size] if k.size else np.empty(0, np.int64)
    a_parts, b_parts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for s, e in zip(starts, ends):
        n = int(e - s)
        if n < 2:
            continue
        ids = d[s:e]
        if cap is not None and n > cap:
            a_parts.append(np.full(n - 1, ids[0], np.int64))
            b_parts.append(ids[1:])
        else:
            ii, jj = np.triu_indices(n, k=1)
            a_parts.append(ids[ii])
            b_parts.append(ids[jj])
    return pa.table({"doc_a": np.concatenate(a_parts),
                     "doc_b": np.concatenate(b_parts)})


def _lsh_pairs(banded, key: str, cap: int | None, count: str | None):
    """Distinct candidate pairs (doc_a < doc_b) of the LSH buckets of the
    (doc_id, ``key``) rows ``banded``, as a Dataset: native Count
    aggregate → tiny colliding-key set → broadcast semi-join filter →
    ``_bucket_pairs`` over the (small) surviving rows only.  Almost every
    bucket is a singleton, so a Python map_groups over every bucket would
    be O(corpus) Python-call overhead.

    The survivors are 16-byte rows whose exact count the Count aggregate
    gives before anything is pulled: within the driver budget they pair
    on the driver, saving the two collision-sized exchanges (bucket
    groupby + pair-distinct groupby); above it each bucket pairs in a
    map_groups, so a viral duplicate's million-row bucket streams through
    a worker.  ``count`` names a column holding the number of buckets
    that emit each pair (``None``: no such column)."""
    import ray
    import ray.data as rd

    cols = ["doc_a", "doc_b"] + ([count] if count else [])
    hot = (banded.groupby(key).aggregate(Count(alias_name="n"))
           .filter(expr="n >= 2").to_pandas())  # collisions are rare → small
    if hot.empty:
        return rd.from_arrow(pa.table({c: pa.array([], pa.int64()) for c in cols}))
    keys_ref = ray.put(pa.array(hot[key].to_numpy(), pa.int64()))

    def keep_colliding(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return b.filter(pc.is_in(b[key], value_set=ray.get(keys_ref)))

    survivors = banded.map_batches(keep_colliding, batch_format="pyarrow")
    if int(hot["n"].sum()) * 16 <= join.DRIVER_MAX_BYTES:
        p = _bucket_pairs(pa.concat_tables(survivors.iter_batches(
            batch_format="pyarrow", batch_size=None)), key, cap)
        pr = np.empty(p.num_rows, dtype=[("a", np.int64), ("b", np.int64)])
        pr["a"], pr["b"] = np.asarray(p["doc_a"]), np.asarray(p["doc_b"])
        uq, nb = np.unique(pr, return_counts=True)
        return rd.from_arrow(pa.table(dict(zip(cols, (uq["a"], uq["b"], nb)))))
    nparts = max(2, min(8, len(hot) // 1024 + 2))
    return (survivors.groupby(key, num_partitions=nparts)
            .map_groups(lambda g: _bucket_pairs(g, key, cap), batch_format="pyarrow")
            .groupby(["doc_a", "doc_b"], num_partitions=nparts)
            .aggregate(Count(alias_name=count or "n"))
            .select_columns(cols))


def minhash_candidates(sf_dir: str, concurrency: int = 4):
    """LSH bucket join: (band, band_hash) buckets with ≥2 docs → candidate
    pair Dataset (doc_a < doc_b), deduplicated across bands, star-capped
    at PAIR_CAP (``_lsh_pairs``)."""
    # the read auto-splits its single-row-group output into ~2×CPUs blocks
    # (ReadParquet→SplitBlocks, a LOCAL split — measured 64 blocks at 32
    # CPUs), so the signature tasks parallelize with no repartition pass;
    # the former explicit repartition was a redundant all-to-all.
    # 512-doc batches: measured 2.2s vs 5.5s at 256 on the sf0.1 corpus
    # (per-batch pandas+hash setup amortizes over more docs while the
    # (64, 16384) permuted chunks stay cache-resident)
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    banded = ds.map_batches(minhash_batch, batch_format="pyarrow", batch_size=512)
    # consumed twice (count + filter); signatures are compact (~16 short
    # rows/doc) so pinning beats re-hashing the corpus.  Coalescing the
    # NARROW signature rows (not the text — the former repartition moved
    # the corpus payload) before the Count groupby is a measured win:
    # 1.6s vs 1.9s at sf0.1 (64 near-empty sort-aggregate blocks vs 16)
    banded = banded.repartition(16).materialize()

    return _lsh_pairs(banded, "band_hash", PAIR_CAP, None).materialize()


def jaccard(a: str, b: str, k: int = 3) -> float:
    sa, sb = shingles(a, k), shingles(b, k)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


_EMPTY_PAIRS = pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             "jaccard": pd.Series([], dtype="float64")})


def _verify_pairs_distributed(pairs, sf_dir: str, *, kind: str,
                              threshold: float) -> pd.DataFrame:
    """Exact Jaccard verify of a candidate-pair Dataset, fully distributed:

    - the distinct candidate DOC-ID set (8 bytes/row, result-sized) is the
      only thing the driver holds; texts are pushdown-read for those ids
      only (no corpus shuffle — predicate pushdown at the parquet read);
    - candidate texts join onto the pairs twice (doc_a then doc_b, two
      ``key_join`` calls sized by the candidate count), so pair rows —
      including a viral duplicate's million-pair stream — flow through
      workers, never a driver dict/loop;
    - Jaccard is computed inside map_batches with a per-batch shingle-set
      cache (a hot doc's set is built once per batch, not once per pair).

    ``kind``: 'char3' (shingles(), round-then-threshold — q_minhash_dedup
    semantics) or 'word' (word_shingles(), threshold the unrounded ratio
    exactly like the SQL WHERE — q_ngram_jaccard semantics)."""
    from .sources import read_table_filtered
    from .stages.join import key_join

    import pyarrow.compute as pc

    pairs = pairs.materialize()  # consumed twice: id projection + join
    n_pairs = pairs.count()
    if n_pairs == 0:
        return _EMPTY_PAIRS.copy()

    # distinct candidate ids: per-block unique inside map_batches, then a
    # driver merge of the (already-unique, 8-byte) block results — the
    # driver holds O(candidates) ids, never texts or pair lists
    def block_ids(b: pa.Table) -> pa.Table:
        both = pa.chunked_array([b["doc_a"], b["doc_b"]]).combine_chunks()
        return pa.table({"doc_id": pc.unique(both)})

    id_blocks = pairs.map_batches(block_ids, batch_format="pyarrow")
    need = np.unique(np.concatenate(
        [np.asarray(b["doc_id"], dtype=np.int64)
         for b in id_blocks.iter_batches(batch_format="pyarrow")] or
        [np.empty(0, np.int64)]))
    if need.size == 0:
        return _EMPTY_PAIRS.copy()

    texts_tbl = read_table_filtered(
        sf_dir, "documents", ["doc_id", "text"],
        pc.field("doc_id").isin(need.tolist()))
    j = key_join(pairs, texts_tbl.rename_columns(["doc_a", "text_a"]),
                 "doc_a", "inner", need.size)
    j = key_join(j, texts_tbl.rename_columns(["doc_b", "text_b"]),
                 "doc_b", "inner", need.size)

    def score(bt: pa.Table) -> pa.Table:
        df = bt.to_pandas()
        cache: dict[int, set] = {}

        def sset(doc_id: int, text: str) -> set:
            st = cache.get(doc_id)
            if st is None:
                st = shingles(text) if kind == "char3" else word_shingles(text)
                cache[doc_id] = st
            return st

        jac = np.empty(len(df), np.float64)
        rows = zip(df["doc_a"].to_numpy(np.int64), df["doc_b"].to_numpy(np.int64),
                   df["text_a"], df["text_b"])
        for i, (a, b, t_a, t_b) in enumerate(rows):
            sa, sb = sset(int(a), t_a), sset(int(b), t_b)
            if kind == "char3":
                jac[i] = 1.0 if not sa and not sb else                     len(sa & sb) / len(sa | sb)
            else:
                inter = len(sa & sb)
                union = len(sa) + len(sb) - inter
                jac[i] = inter / max(union, 1)
        jr = np.round(jac, 6)
        keep = (jr >= threshold) if kind == "char3" else (jac >= threshold)
        return pa.table({
            "doc_a": pa.array(df["doc_a"].to_numpy(np.int64)[keep]),
            "doc_b": pa.array(df["doc_b"].to_numpy(np.int64)[keep]),
            "jaccard": pa.array(jr[keep])})

    out = j.map_batches(score, batch_format="pyarrow", batch_size=8192).to_pandas()
    if out.empty:
        return _EMPTY_PAIRS.copy()
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def q_minhash_dedup(sf_dir: str, threshold: float = 0.7) -> pd.DataFrame:
    """Near-dup pipeline: LSH candidates → exact char-3-shingle Jaccard
    verify, every stage a Dataset op (distributed pair formation with the
    PAIR_CAP star bound, distributed join-and-score verify — no driver
    text dict or pair loop anywhere).

    Rows-only check (LSH not SQL-expressible); deterministic output sorted
    by (doc_a, doc_b)."""
    cand = minhash_candidates(sf_dir)
    return _verify_pairs_distributed(cand, sf_dir, kind="char3",
                                     threshold=threshold)


# ---------------------------------------------------------------- simhash

def simhash_batch_u64(texts: pd.Series) -> np.ndarray:
    """Vectorized 64-bit SimHash over word unigram hashes: ONE
    pd.util.hash_array call for every token of the batch, bits unpacked as
    a (total_tokens, 64) sign matrix, per-doc bit-vote sums via
    np.add.reduceat — no per-token Python loop."""
    tok_lists = texts.str.split().tolist()
    lens = np.asarray([len(t) for t in tok_lists], dtype=np.int64)
    n = lens.size
    flat = np.concatenate([np.asarray(t, dtype=object) for t in tok_lists if t]) \
        if lens.sum() else np.empty(0, dtype=object)
    h = pd.util.hash_array(flat)  # uint64, deterministic murmur
    # docs with zero tokens get one all-zero vote (hash 0 below contributes
    # −1 votes; we instead splice true zero rows in, vectorized via insert)
    empty = np.flatnonzero(lens == 0)
    ends = np.cumsum(lens)
    starts = ends - lens
    acc = np.empty((n, 64), dtype=np.int64)
    shifts = np.arange(64, dtype=np.uint64)[None, :]
    # chunk along DOC boundaries (≤16k tokens per chunk) so the
    # (tokens, 64) int16 sign matrix stays cache-resident
    d0 = 0
    while d0 < n:
        d1 = d0
        while d1 < n and ends[d1] - starts[d0] <= 16384:
            d1 += 1
        d1 = max(d1, d0 + 1)
        seg = h[starts[d0]:ends[d1 - 1]]
        votes = (((seg[:, None] >> shifts) & np.uint64(1)).astype(np.int16) * 2 - 1)
        seg_lens = lens[d0:d1].copy()
        if (seg_lens == 0).any():
            ins = starts[d0:d1][seg_lens == 0] - starts[d0]
            votes = np.insert(votes, ins, 0, axis=0)
            seg_lens = np.maximum(seg_lens, 1)
        bounds = np.concatenate([[0], np.cumsum(seg_lens)[:-1]])
        acc[d0:d1] = np.add.reduceat(votes.astype(np.int64), bounds, axis=0)
        d0 = d1
    weights = (np.uint64(1) << np.arange(64, dtype=np.uint64))
    return ((acc > 0).astype(np.uint64) * weights[None, :]).sum(axis=1, dtype=np.uint64)


def simhash32_poly_batch(texts: pd.Series) -> np.ndarray:
    """32-bit SimHash over poly31 word hashes — the SQL-EXACT variant:
    the token hash is trainprep._poly31_u32's Horner recurrence, which
    DuckDB recomputes verbatim via list_reduce (the same discipline as the
    HLL gate), so the per-bit vote sums and the sign rule (> 0) mirror
    bit for bit.  Same reduceat vectorization as simhash_batch_u64."""
    from .trainprep import _poly31_u32

    tok_lists = texts.str.split(" ").tolist()
    lens = np.asarray([len(t) for t in tok_lists], dtype=np.int64)
    n = lens.size
    flat = np.concatenate([np.asarray(t, dtype=object) for t in tok_lists if t])         if lens.sum() else np.empty(0, dtype=object)
    h = _poly31_u32(flat.astype(str)) if flat.size else np.empty(0, np.uint64)
    ends = np.cumsum(lens)
    starts = ends - lens
    shifts = np.arange(32, dtype=np.uint64)[None, :]
    votes = (((h[:, None] >> shifts) & np.uint64(1)).astype(np.int64) * 2 - 1)
    seg_lens = lens.copy()
    if (seg_lens == 0).any():
        votes = np.insert(votes, starts[seg_lens == 0], 0, axis=0)
        seg_lens = np.maximum(seg_lens, 1)
    bounds = np.concatenate([[0], np.cumsum(seg_lens)[:-1]])
    acc = np.add.reduceat(votes, bounds, axis=0)
    if acc.shape[0] != n:  # all-empty batch edge
        acc = np.zeros((n, 32), np.int64)
    weights = (np.int64(1) << np.arange(32, dtype=np.int64))
    return ((acc > 0).astype(np.int64) * weights[None, :]).sum(axis=1)


def q_simhash(sf_dir: str, concurrency: int = 4) -> pd.DataFrame:
    """Per-doc SimHash: the 32-bit poly31 fingerprint (SQL-exact — DuckDB
    recomputes every token hash, per-bit vote sum and sign) alongside the
    64-bit murmur halves (deterministic, pytest-gated)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def kern(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        hs = simhash_batch_u64(df["text"])
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "simhash32": simhash32_poly_batch(df["text"]),
            "simhash_hi": (hs >> np.uint64(32)).astype(np.int64),
            "simhash_lo": (hs & np.uint64(0xFFFFFFFF)).astype(np.int64)})

    out = ds.map_batches(kern, batch_format="pyarrow", batch_size=2048).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_simhash_poly(sf_dir: str) -> pd.DataFrame:
    """The SQL-gated projection of q_simhash (poly31 32-bit fingerprint)."""
    return q_simhash(sf_dir)[["doc_id", "simhash32"]]


Q_SIMHASH_POLY_SQL = """
WITH w AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), h AS (
  SELECT doc_id,
         list_reduce(list_transform(string_split(tok, ''),
                                    c -> CAST(unicode(c) AS BIGINT)),
                     (a, b) -> (a * 31 + b) % 4294967296) AS h32
  FROM w
), v AS (
  SELECT doc_id, j.j AS j,
         SUM(CASE WHEN (h32 // CAST(POWER(2, j.j) AS BIGINT)) % 2 = 1
                  THEN 1 ELSE -1 END) AS s
  FROM h, (SELECT unnest(generate_series(0, 31)) AS j) j
  GROUP BY doc_id, j.j
)
SELECT doc_id,
       CAST(SUM(CASE WHEN s > 0 THEN CAST(POWER(2, j) AS BIGINT) ELSE 0 END)
            AS BIGINT) AS simhash32
FROM v GROUP BY doc_id ORDER BY doc_id
"""


def simhash64(text: str) -> int:
    """64-bit SimHash of one document (single-doc view of the batch path)."""
    return int(simhash_batch_u64(pd.Series([text]))[0])


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


# ------------------------------------------- embedding-cosine near-dup

def q_embedding_nn_dedup(sf_dir: str) -> pd.DataFrame:
    """Embedding-cosine near-dup: every vector's nearest neighbor by cosine
    (its dedup candidate) — SQL-exact via DuckDB list_cosine_similarity +
    ROW_NUMBER.

    Engine shape: the corpus embedding matrix is normalized once and
    broadcast (ray.put); each batch runs one matmul against it and takes
    the per-row argmax with a vec_id tie-break.  At test scale the corpus
    IS the small side; at 100 TB the broadcast is replaced by the
    list-partitioned IVF self-join (ann.ivf_build: co-probe same-list
    vectors only) — this query pins the exact semantics that approximation
    is measured against (ann tests assert IVF recall).

    Once the corpus matrix (footer rows × (8 + 8·KM_DIM) bytes) exceeds
    the driver budget the SAME query dispatches to
    ann.exact_nn_clustered — k-means ball pruning, identical output,
    shared SQL oracle (the interchangeable-lowerings discipline) — so no
    unconditional corpus broadcast remains at any scale."""
    import ray

    from raster_functions_ray import ann

    from .sources import read_table, read_table_arrow, table_rows
    if table_rows(sf_dir, "embeddings") * (8 + 8 * ann.KM_DIM) > join.DRIVER_MAX_BYTES:
        return ann.exact_nn_clustered(sf_dir)

    # same dispatch as the probe-side scan: corpus and probes must come
    # from the same dataset
    corpus = read_table_arrow(sf_dir, "embeddings", ["vec_id", "embedding"])
    ids, mat = ann._embedding_matrix(corpus)
    order = np.argsort(ids)
    ids, mat = ids[order], mat[order]
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    mn = mat / np.where(norms == 0, 1.0, norms)
    cref = ray.put((ids, mn))

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def partial(b: pa.Table) -> pd.DataFrame:
        cids, cmat = ray.get(cref)
        bids, bmat = ann._embedding_matrix(b)
        bnorm = np.linalg.norm(bmat, axis=1, keepdims=True)
        bn = bmat / np.where(bnorm == 0, 1.0, bnorm)
        sims = bn @ cmat.T                      # (batch, corpus)
        # exclude self-similarity, then argmax with (sim DESC, vec_id) order
        self_col = np.searchsorted(cids, bids)
        sims[np.arange(bids.size), self_col] = -np.inf
        # lexsort-free argmax with tie-break: argmax scans left-to-right and
        # cids is ascending, so the FIRST maximal column is the min vec_id
        nn = sims.argmax(axis=1)
        return pd.DataFrame({"vec_id": bids, "nn_vec_id": cids[nn]})

    out = ds.map_batches(partial, batch_format="pyarrow", batch_size=4096).to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


Q_EMBEDDING_NN_DEDUP_SQL = """
WITH base AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings)
SELECT vec_id, nn_vec_id FROM (
  SELECT a.vec_id, b.vec_id AS nn_vec_id,
         ROW_NUMBER() OVER (PARTITION BY a.vec_id
                            ORDER BY list_cosine_similarity(a.e, b.e) DESC,
                                     b.vec_id) AS rn
  FROM base a JOIN base b ON a.vec_id <> b.vec_id)
WHERE rn = 1 ORDER BY vec_id
"""


# ----------------------------------------- exact set-similarity self-join

# Word w-shingling (Broder 1997) + prefix filtering with the position and
# length filters of PPJoin (Xiao et al., WWW'08): an EXACT similarity
# self-join — unlike MinHash-LSH there is no probabilistic recall loss, so
# the output is SQL-provable (Q_NGRAM_JACCARD below is a plain all-pairs
# oracle over the same shingle definition).
W_SHINGLE = 3
TAU_NUM, TAU_DEN = 4, 5  # τ as a rational so every filter bound is integer-exact
JACCARD_TAU = TAU_NUM / TAU_DEN


def _word_shingle_rows(b: pa.Table) -> pa.Table:
    """(doc_id, s, n) rows: one row per DISTINCT word-3-shingle hash per
    doc, with the doc's distinct-shingle count ``n`` carried for the
    length/position filters.  Gram construction shared with the
    decontamination stage (textops._word_ngrams_flat: flat object arrays,
    boundary-masked shifted concatenation — one implementation of the
    subtle windowing to maintain), then ONE pd.util.hash_array per batch.
    Output MUST be Arrow: pandas blocks send Ray's sort-aggregate into a
    ~1k rows/s per-row path (measured 46s vs <2s on this stage)."""
    from .textops import _word_ngrams_flat

    doc_ids = np.asarray(b["doc_id"], dtype=np.int64)
    texts = pd.Series(b["text"].to_pandas())
    doc_idx, tri = _word_ngrams_flat(texts, W_SHINGLE)
    if tri.size == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "s": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})
    # int64 view: uint64 hashes above 2^63 break Arrow int promotion in
    # the hash-shuffle aggregator
    h = pd.util.hash_array(tri).view(np.int64)
    key = np.unique(np.stack([doc_idx.astype(np.int64), h], axis=1), axis=0)
    d, s = key[:, 0], key[:, 1]
    n_per = np.bincount(d, minlength=len(texts))  # distinct shingles per doc
    return pa.table({"doc_id": pa.array(doc_ids[d]), "s": pa.array(s),
                     "n": pa.array(n_per[d].astype(np.int64))})


def _prefix_select(g: pd.DataFrame) -> pa.Table:
    """Per-doc prefix under the global (df, s) order: the first
    n − ⌈τ·n⌉ + 1 shingles.  Any pair with Jaccard ≥ τ shares a prefix
    shingle under ANY fixed global order (prefix-filter lemma), so rarer-
    first is a pure selectivity choice, not a correctness one."""
    g = g.sort_values(["df", "s"], kind="mergesort")
    n = int(g["n"].iloc[0])
    p = n - (-((-TAU_NUM * n) // TAU_DEN)) + 1  # n − ⌈τ·n⌉ + 1, integer-exact
    # (minus OUTSIDE the floor-div: -(-x)//y parses as (+x)//y = floor)
    out = g.head(p).copy()
    out["pos"] = np.arange(len(out), dtype=np.int64)
    return pa.Table.from_pandas(out[["s", "doc_id", "pos", "n"]],
                                preserve_index=False)


def _pair_filter(b: pa.Table) -> pa.Table:
    """Vectorized candidate filter over prefix⨝prefix join rows: keep
    doc_a < doc_b, then the exact length filter (|A| ≥ τ|B|) and position
    filter (1 + min(remaining_a, remaining_b) ≥ ⌈τ/(1+τ)·(n_a+n_b)⌉)."""
    da = np.asarray(b["doc_a"], dtype=np.int64)
    db = np.asarray(b["doc_b"], dtype=np.int64)
    pos_a = np.asarray(b["pos_a"], dtype=np.int64)
    pos_b = np.asarray(b["pos_b"], dtype=np.int64)
    na = np.asarray(b["n_a"], dtype=np.int64)
    nb = np.asarray(b["n_b"], dtype=np.int64)
    # integer arithmetic (τ = NUM/DEN): np.ceil(0.8/1.8*(na+nb)) overshoots
    # the exact bound by 1 for ~800 sizes under 20000 (fp compound rounding)
    # and would drop pairs whose Jaccard is exactly τ
    need = -((-TAU_NUM * (na + nb)) // (TAU_NUM + TAU_DEN))  # true ⌈·⌉
    ok = (da < db) & \
         (TAU_DEN * np.minimum(na, nb) >= TAU_NUM * np.maximum(na, nb)) & \
         (1 + np.minimum(na - pos_a - 1, nb - pos_b - 1) >= need)
    return pa.table({"doc_a": pa.array(da[ok]), "doc_b": pa.array(db[ok])})


def word_shingles(text: str, w: int = W_SHINGLE) -> set[str]:
    toks = text.split(" ")
    return {" ".join(toks[i:i + w]) for i in range(len(toks) - w + 1)}


def q_ngram_jaccard(sf_dir: str, threshold: float = JACCARD_TAU) -> pd.DataFrame:
    """EXACT n-gram (word-3-shingle) Jaccard similarity self-join at
    threshold τ=0.8 — the non-probabilistic complement of q_minhash_dedup.

    Distributed plan (PPJoin shape, every stage a Dataset op):
      docs → distinct (doc_id, shingle-hash, n) rows            [map_batches]
      → shingle df                                              [groupby(s)]
      → df joined back                                          [hash join]
      → per-doc prefix under the (df, s) global order           [groupby(doc)]
      → candidate pairs + length/position filters               [groupby(s)]
      → distinct pairs                                          [groupby(pair)]
      → exact string-shingle Jaccard on candidates only (pushdown read).
    Hash collisions could in principle perturb candidate generation
    (~|shingles|²/2⁶⁴ — ignored); the verify step is collision-free
    (string sets), so emitted pairs are always exact."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    sh = (ds.map_batches(_word_shingle_rows, batch_format="pyarrow", batch_size=4096)
          .repartition(8).materialize())
    df = sh.groupby("s").aggregate(Count(alias_name="df"))
    joined = join.hash_join(sh, df, "s", "inner")
    prefix = (joined.groupby("doc_id").map_groups(_prefix_select, batch_format="pandas")
              .materialize())
    # pair generation as a hash SELF-JOIN on the prefix shingle (vectorized
    # filter after), not a per-shingle map_groups — posting lists are tiny
    # but numerous, so per-group Python dispatch dominates otherwise
    left = prefix.map_batches(
        lambda b: b.rename_columns(["s", "doc_a", "pos_a", "n_a"]),
        batch_format="pyarrow", zero_copy_batch=True)
    right = prefix.map_batches(
        lambda b: b.rename_columns(["s", "doc_b", "pos_b", "n_b"]),
        batch_format="pyarrow", zero_copy_batch=True)
    pairs = (join.hash_join(left, right, "s", "inner")
             .map_batches(_pair_filter, batch_format="pyarrow", batch_size=65536))
    cand = (pairs.groupby(["doc_a", "doc_b"]).aggregate(Count(alias_name="cnt"))
            .select_columns(["doc_a", "doc_b"]))
    # exact string-shingle Jaccard on candidates only, distributed (texts
    # pushdown-read and hash-joined onto the pairs; the unrounded ratio is
    # thresholded exactly like the SQL WHERE clause — integer ratios make
    # fp division deterministic and identical on both sides)
    return _verify_pairs_distributed(cand, sf_dir, kind="word",
                                     threshold=threshold)


Q_NGRAM_JACCARD_SQL = f"""
WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS l FROM documents
), sh AS (
  SELECT DISTINCT doc_id,
         list_extract(l, CAST(u AS INT)) || ' ' ||
         list_extract(l, CAST(u AS INT) + 1) || ' ' ||
         list_extract(l, CAST(u AS INT) + 2) AS s
  FROM (SELECT doc_id, l, unnest(generate_series(1, len(l) - 2)) AS u FROM w)
), counts AS (
  SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id
), inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS shared
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT i.doc_a, i.doc_b,
       ROUND(CAST(i.shared AS DOUBLE) / (ca.n + cb.n - i.shared), 6) AS jaccard
FROM inter i
JOIN counts ca ON ca.doc_id = i.doc_a
JOIN counts cb ON cb.doc_id = i.doc_b
WHERE CAST(i.shared AS DOUBLE) / (ca.n + cb.n - i.shared) >= {JACCARD_TAU}
ORDER BY doc_a, doc_b
"""


# ------------------------------------------- SQL-exact MinHash-LSH gate

# The production near-dup pipeline (q_minhash_dedup) signs murmur-hashed
# shingles — fast but not SQL-expressible, so its driver gate is
# rows-only.  This variant pins the ENTIRE MinHash-LSH mechanism —
# shingle hash, K linear permutations, per-doc minima, banded bucket
# keys, within-bucket pair formation — against a DuckDB oracle that
# recomputes every step in SQL, the same discipline as the HLL /
# SimHash-poly31 gates.  All arithmetic is chosen BIGINT-safe so the
# oracle needs no HUGEINT casts:
#   gram hash   h32  = poly31(gram) mod 2^32                (< 2^32)
#   perm hash   h'   = (a·h32 + b) mod 2^32, a odd < 2^20   (a·h32 < 2^52)
#   band key    acc  = fold(acc·1000003 + m) mod 2^32       (< 2^53)
# Reference semantics: same banding scheme as
# /root/reference-adjacent MinHash-LSH literature (Broder; LSH banding as
# in Mining of Massive Datasets §3.4) — b bands of r rows over a K-perm
# signature; candidates = pairs agreeing on ANY band.

MHX_W = 3            # word-gram shingle width (docs with < 3 words drop out)
MHX_PERM = 16        # signature length
MHX_R = 4            # rows per band → 4 bands
MHX_MOD = 1 << 32


def _mhx_params() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(20260818)
    a = rng.integers(1, 1 << 19, MHX_PERM, dtype=np.int64) * 2 + 1  # odd < 2^20
    b = rng.integers(0, MHX_MOD, MHX_PERM, dtype=np.int64)
    return a.astype(np.uint64), b.astype(np.uint64)


MHX_A, MHX_B = _mhx_params()

_MHX_EMPTY = pa.table({"doc_id": pa.array([], pa.int64()),
                       "bk64": pa.array([], pa.int64())})


def _mhx_band_rows(b: pa.Table) -> pa.Table:
    """(doc_id, bk64) rows — one per (doc, band); bk64 = band·2^32 + band
    key folds the band index into a single int64 so the bucket groupby
    keys on one column (keys from different bands can never alias)."""
    from .textops import _word_ngrams_flat
    from .trainprep import _poly31_u32

    df = b.to_pandas()
    d, grams = _word_ngrams_flat(df["text"], MHX_W)
    if grams.size == 0:
        return _MHX_EMPTY
    h = _poly31_u32(grams.astype(str))                    # uint64 < 2^32
    n = len(df)
    counts = np.bincount(d, minlength=n)
    docs_with = np.flatnonzero(counts)
    bounds = np.concatenate([[0], np.cumsum(counts[docs_with])[:-1]])
    # (K, grams) permuted hashes → per-doc minima at doc boundaries; the
    # intermediate is ≤ K × grams-per-batch × 8 B (a few MB at batch 512)
    hp = (MHX_A[:, None] * h[None, :] + MHX_B[:, None]) % np.uint64(MHX_MOD)
    sigs = np.minimum.reduceat(hp, bounds, axis=1)        # (K, n_docs)
    nb = MHX_PERM // MHX_R
    s = sigs.reshape(nb, MHX_R, -1)
    acc = s[:, 0, :].copy()
    for j in range(1, MHX_R):                             # fold in perm order
        acc = (acc * np.uint64(1_000_003) + s[:, j, :]) % np.uint64(MHX_MOD)
    doc_ids = df["doc_id"].to_numpy(np.int64)[docs_with]
    bk64 = (np.arange(nb, dtype=np.uint64)[:, None] * np.uint64(MHX_MOD)
            + acc).T.ravel().astype(np.int64)
    return pa.table({"doc_id": pa.array(np.repeat(doc_ids, nb)),
                     "bk64": pa.array(bk64, pa.int64())})


def q_minhash_lsh_exact(sf_dir: str) -> pd.DataFrame:
    """SQL-exact MinHash-LSH candidate generation: distinct candidate
    pairs with the number of agreeing bands.  Same distributed shape as
    minhash_candidates (Count aggregate → broadcast colliding-key filter
    → per-bucket pair formation → pair-distinct groupby); the Count per
    pair IS n_bands because each doc emits exactly one key per band."""
    # read auto-splits to ~2×CPUs blocks; signature rows coalesced before
    # the Count groupby (see minhash_candidates — measured 64→16 win)
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    banded = (ds.map_batches(_mhx_band_rows, batch_format="pyarrow",
                             batch_size=512)
              .repartition(16).materialize())
    out = _lsh_pairs(banded, "bk64", None, "n_bands").to_pandas()
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def _mhx_perm_values_sql() -> str:
    return ", ".join(f"({i}, {int(MHX_A[i])}, {int(MHX_B[i])})"
                     for i in range(MHX_PERM))


Q_MINHASH_LSH_SQL = f"""
WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS l FROM documents
), g AS (
  SELECT doc_id,
         list_extract(l, CAST(u AS INT)) || ' ' ||
         list_extract(l, CAST(u AS INT) + 1) || ' ' ||
         list_extract(l, CAST(u AS INT) + 2) AS s
  FROM (SELECT doc_id, l, unnest(generate_series(1, len(l) - 2)) AS u FROM w)
), h AS (
  SELECT doc_id,
         list_reduce(list_transform(string_split(s, ''),
                                    c -> CAST(unicode(c) AS BIGINT)),
                     (a, b) -> (a * 31 + b) % 4294967296) AS h32
  FROM g
), p AS (
  SELECT * FROM (VALUES {_mhx_perm_values_sql()}) AS t(perm, pa, pb)
), m AS (
  SELECT doc_id, perm, MIN((pa * h32 + pb) % 4294967296) AS mh
  FROM h CROSS JOIN p GROUP BY doc_id, perm
), bk AS (
  SELECT doc_id, perm // {MHX_R} AS band,
         list_reduce(list(mh ORDER BY perm),
                     (x, y) -> (x * 1000003 + y) % 4294967296) AS bkey
  FROM m GROUP BY doc_id, perm // {MHX_R}
)
SELECT x.doc_id AS doc_a, y.doc_id AS doc_b, COUNT(*) AS n_bands
FROM bk x JOIN bk y ON x.band = y.band AND x.bkey = y.bkey
                   AND x.doc_id < y.doc_id
GROUP BY 1, 2
ORDER BY doc_a, doc_b
"""


# ------------------------------------------ exact substring (span) dedup

SUB_L = 40  # duplicated-substring window, in characters


def _gram_frame(df: pd.DataFrame, *, with_text: bool) -> pd.DataFrame:
    """All stride-1 length-SUB_L character windows of a document batch,
    vectorized per offset (one pandas ``str.slice`` over the whole column
    per offset — never a per-row Python loop).  Emits the 64-bit gram
    hash always; the gram text only when requested (the counting pass
    ships hashes, the confirm pass ships text for the collision-sized
    survivor set)."""
    t = df["text"]
    ids = df["doc_id"].to_numpy(np.int64)
    n = t.str.len().to_numpy(np.int64)
    mx = int(n.max()) if len(n) else 0
    out_id, out_off, out_h, out_g = [], [], [], []
    for off in range(0, max(0, mx - SUB_L + 1)):
        m = n >= off + SUB_L
        if not m.any():
            break
        g = t[m].str.slice(off, off + SUB_L).to_numpy()
        out_id.append(ids[m])
        out_off.append(np.full(int(m.sum()), off, np.int64))
        out_h.append(pd.util.hash_array(g).view(np.int64))
        if with_text:
            out_g.append(g)
    if not out_id:
        cols = {"doc_id": pd.Series([], dtype="int64"),
                "off": pd.Series([], dtype="int64"),
                "gh": pd.Series([], dtype="int64")}
        if with_text:
            cols["gram"] = pd.Series([], dtype="object")
        return pd.DataFrame(cols)
    cols = {"doc_id": np.concatenate(out_id),
            "off": np.concatenate(out_off),
            "gh": np.concatenate(out_h)}
    if with_text:
        cols["gram"] = np.concatenate(out_g)
    return pd.DataFrame(cols)


N_SUB_SHARDS = 32  # hash shards for the vectorized count/merge groupbys


def _merge_spans_shard(g: pd.DataFrame) -> pd.DataFrame:
    """Merge duplicated-window offsets into maximal spans for EVERY doc in
    one hash shard at once (vectorized gaps-and-islands over the
    (doc_id, off)-sorted shard: a new span starts at each doc boundary or
    where the offset gap exceeds the window length) — one Python call per
    shard, not per document."""
    g = g.sort_values(["doc_id", "off"], kind="mergesort")
    ids = g["doc_id"].to_numpy(np.int64)
    off = g["off"].to_numpy(np.int64)
    if ids.size == 0:
        return pd.DataFrame({"doc_id": [], "span_start": [], "span_end": [],
                             "span_len": []}).astype("int64")
    new = np.ones(ids.size, dtype=bool)
    new[1:] = (ids[1:] != ids[:-1]) | (off[1:] - off[:-1] > SUB_L)
    idx = np.flatnonzero(new)
    starts = off[idx]
    ends = np.maximum.reduceat(off, idx) + SUB_L
    return pd.DataFrame({"doc_id": ids[idx], "span_start": starts,
                         "span_end": ends, "span_len": ends - starts})


def q_substring_dedup(sf_dir: str) -> pd.DataFrame:
    """Exact duplicated-substring spans (the Lee et al. 2022 "Deduplicating
    Training Data Makes Language Models Better" exact-substring op, at
    window granularity): every maximal span of a document covered by
    length-{SUB_L} character windows that occur >= 2 times anywhere in the
    corpus.  Sub-paragraph complement of exact/paragraph dedup — catches
    licence blocks, templated headers and quoted reuse that whole-doc and
    whole-paragraph hashes both miss.

    Plan (all distributed):
      1. count pass    — stride-1 windows as per-block partial
                         (gh, n) counts, hash-sharded groupby with ONE
                         vectorized np.unique/bincount call per shard
                         (never a per-group Python call: windows are
                         mostly unique, so per-gram map_groups would pay
                         O(corpus) Python overhead — measured 236 s vs
                         ~2 s at sf0.01) -> hot hash set (result-sized)
      2. confirm pass  — re-derive windows, broadcast is_in filter by hot
                         hash, then regroup the collision-sized survivors
                         by the ACTUAL gram text (sharded, vectorized
                         pandas duplicated()) and re-apply count >= 2: a
                         hash collision can therefore never create a
                         false duplicate (no 64-bit injectivity assumption)
      3. span merge    — doc-sharded gaps-and-islands (vectorized)

    Scale shape: the count pass shuffles O(total_chars) pre-aggregated
    16-byte rows — the same cost envelope as a distributed suffix sort,
    unavoidable for exact substring dedup; text only ever ships for
    windows whose hash collides (duplicate-sized).  Shard count is the
    salt: a viral window inflates one shard by its partial-count rows
    (<= block count), never by its occurrence count."""
    import ray

    # read auto-splits to ~2×CPUs blocks (see minhash_candidates)
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"]).materialize()

    def gram_partials(df: pd.DataFrame) -> pa.Table:
        # per-block pre-aggregation; Arrow out (pandas blocks put Ray's
        # shuffle on a slow per-row path, same pitfall as content_hash_rows)
        g = _gram_frame(df, with_text=False)["gh"].to_numpy(np.int64)
        u, c = np.unique(g, return_counts=True)
        return pa.table({"gh": pa.array(u, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64()),
                         "shard": pa.array(u % N_SUB_SHARDS, pa.int64())})

    def shard_hot(g: pd.DataFrame) -> pd.DataFrame:
        u, inv = np.unique(g["gh"].to_numpy(np.int64), return_inverse=True)
        tot = np.bincount(inv, weights=g["n"].to_numpy(np.float64))
        return pd.DataFrame({"gh": u[tot >= 2]})

    hot = (ds.map_batches(gram_partials, batch_format="pandas", batch_size=1024)
           .groupby("shard").map_groups(shard_hot, batch_format="pandas")
           .to_pandas())
    if hot.empty:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "span_start": pd.Series([], dtype="int64"),
                             "span_end": pd.Series([], dtype="int64"),
                             "span_len": pd.Series([], dtype="int64")})
    keys_ref = ray.put(pa.array(hot["gh"].to_numpy(), pa.int64()))

    def survivors(df: pd.DataFrame) -> pa.Table:
        import pyarrow.compute as pc
        g = _gram_frame(df, with_text=True)
        m = pc.is_in(pa.array(g["gh"].to_numpy(), pa.int64()),
                     value_set=ray.get(keys_ref)).to_numpy(zero_copy_only=False)
        k = g[m]
        return pa.table({"doc_id": pa.array(k["doc_id"].to_numpy(), pa.int64()),
                         "off": pa.array(k["off"].to_numpy(), pa.int64()),
                         "gram": pa.array(k["gram"], pa.string()),
                         "shard": pa.array(k["gh"].to_numpy(np.int64)
                                           % N_SUB_SHARDS, pa.int64())})

    surv = (ds.map_batches(survivors, batch_format="pandas", batch_size=1024)
            .repartition(max(2, min(8, len(hot) // 4096 + 2))))

    def confirm_shard(g: pd.DataFrame) -> pd.DataFrame:
        # same gram => same gh => same shard, so a within-shard text
        # duplicated() is a global count >= 2 test
        dup = g["gram"].duplicated(keep=False)
        out = g.loc[dup, ["doc_id", "off"]].copy()
        out["dshard"] = out["doc_id"] % N_SUB_SHARDS
        return out

    spans = (surv.groupby("shard").map_groups(confirm_shard, batch_format="pandas")
             .groupby("dshard").map_groups(_merge_spans_shard, batch_format="pandas")
             .to_pandas())
    if spans.empty:  # every hot hash was a pure 64-bit collision
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "span_start": pd.Series([], dtype="int64"),
                             "span_end": pd.Series([], dtype="int64"),
                             "span_len": pd.Series([], dtype="int64")})
    return (spans.astype("int64").sort_values(["doc_id", "span_start"])
            .reset_index(drop=True))


Q_SUBSTRING_DEDUP_SQL = f"""
WITH occ AS (
  SELECT doc_id, off, substring(text, off + 1, {SUB_L}) AS gram
  FROM (SELECT doc_id, text, unnest(generate_series(0, length(text) - {SUB_L})) AS off
        FROM documents WHERE length(text) >= {SUB_L})
), dup AS (
  SELECT doc_id, off FROM occ
  WHERE gram IN (SELECT gram FROM occ GROUP BY gram HAVING COUNT(*) >= 2)
), lagged AS (
  SELECT doc_id, off, LAG(off) OVER (PARTITION BY doc_id ORDER BY off) AS poff
  FROM dup
), isl AS (
  SELECT doc_id, off,
         SUM(CASE WHEN poff IS NULL OR off - poff > {SUB_L} THEN 1 ELSE 0 END)
           OVER (PARTITION BY doc_id ORDER BY off) AS island
  FROM lagged
)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(MIN(off) AS BIGINT) AS span_start,
       CAST(MAX(off) + {SUB_L} AS BIGINT) AS span_end,
       CAST(MAX(off) + {SUB_L} - MIN(off) AS BIGINT) AS span_len
FROM isl GROUP BY doc_id, island
ORDER BY doc_id, span_start
"""


# --------------------------------------------- edit-distance-1 typo pairs

TYPO_MIN_COUNT = 3   # vocabulary support floor
TYPO_MAX_LEN = 24    # deletion-key fan-out bound


def q_typo_pairs(sf_dir: str) -> pd.DataFrame:
    """Word-level edit-distance-1 pair mining over the corpus vocabulary —
    the FastSS / SymSpell deletion-neighborhood construction that powers
    spelling normalization before dedup: two words are candidates iff they
    share a 1-deletion key (or one IS the other's deletion), then an exact
    ED=1 confirm prunes the false positives the key join admits
    (e.g. abc/bca share 'bc' at distance 2).

    Scale shape: vocabulary groupby (corpus → O(V)), flat_map of ≤len+1
    deletion keys per word, bucket groupby on the key — bucket sizes are
    alphabet-bounded, pair formation is per-bucket and result-sized; the
    exact confirm is vectorized per candidate batch.  No corpus text
    travels past the first groupby.

    Oracle: identical construction in SQL + levenshtein()=1 confirm.
    """
    from .sources import read_table

    ds = read_table(sf_dir, "documents", columns=["text"])

    def toks(b: pa.Table) -> pa.Table:
        t = tokenize(b.to_pandas()["text"]).explode().dropna()
        vc = t.groupby(t).size()
        return pa.table({"w": pa.array(vc.index.astype(str)),
                         "n": pa.array(vc.to_numpy(np.int64))})

    vocab = (ds.map_batches(toks, batch_format="pyarrow", batch_size=8192)
             .groupby("w").aggregate(Sum("n", alias_name="n"))
             .filter(expr=f"n >= {TYPO_MIN_COUNT}"))

    def corrupt(b: pa.Table) -> pa.Table:
        """Deterministic 1-substitution variants (the corpus vocabulary is
        a closed synthetic word set with no organic ED-1 pairs, so the
        pair surface is derived in-query on BOTH sides — the POINT_SQL
        discipline): position/letter from a 31-polynomial rolling hash."""
        words = b.to_pandas()["w"].tolist()
        out = []
        for w in words:  # vocabulary-sized, not corpus-sized
            h = 0
            for ch in w:
                h = (h * 31 + ord(ch)) % 4294967296
            i = h % len(w)
            c = chr(97 + (h // 256) % 26)
            out.append(w[:i] + c + w[i + 1:])
        return pa.table({"w": pa.array(words + out)})

    aug = vocab.map_batches(corrupt, batch_format="pyarrow").groupby("w") \
        .aggregate(Count(alias_name="_n")).select_columns(["w"])

    def del_keys(b: pa.Table) -> pa.Table:
        words = b.to_pandas()["w"]
        words = words[words.str.len() <= TYPO_MAX_LEN]
        out_k, out_w = [], []
        # the word itself IS a key (catches pure insert/delete neighbors)
        out_k.append(words.to_numpy(dtype=object))
        out_w.append(words.to_numpy(dtype=object))
        maxlen = int(words.str.len().max()) if len(words) else 0
        for i in range(maxlen):
            sel = words[words.str.len() > i]
            out_k.append((sel.str.slice(0, i) + sel.str.slice(i + 1)).to_numpy(dtype=object))
            out_w.append(sel.to_numpy(dtype=object))
        return pa.table({"k": pa.array(np.concatenate(out_k).astype(str)),
                         "w": pa.array(np.concatenate(out_w).astype(str))})

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ws = np.unique(g["w"].to_numpy(dtype=object))
        if len(ws) < 2:
            return pd.DataFrame({"w1": pd.Series([], dtype="object"),
                                 "w2": pd.Series([], dtype="object")})
        i, j = np.triu_indices(len(ws), k=1)
        return pd.DataFrame({"w1": ws[i], "w2": ws[j]})

    cand = (aug.map_batches(del_keys, batch_format="pyarrow")
            .groupby("k").map_groups(bucket_pairs, batch_format="pandas")
            .to_pandas().drop_duplicates())

    def ed1(a: str, b: str) -> bool:
        la, lb = len(a), len(b)
        if abs(la - lb) > 1 or a == b:
            return False
        if la == lb:
            return sum(x != y for x, y in zip(a, b)) == 1
        if la > lb:
            a, b, la, lb = b, a, lb, la
        # b is a+1 char: one aligned skip
        i = 0
        while i < la and a[i] == b[i]:
            i += 1
        return a[i:] == b[i + 1:]

    if len(cand):
        keep = [ed1(a, b) for a, b in zip(cand["w1"], cand["w2"])]
        cand = cand[np.asarray(keep, bool)]
    else:
        cand = pd.DataFrame({"w1": pd.Series([], dtype="object"),
                             "w2": pd.Series([], dtype="object")})
    return (cand.sort_values(["w1", "w2"]).reset_index(drop=True))


Q_TYPO_PAIRS_SQL = rf"""
WITH toks AS (
  SELECT unnest(list_filter(string_split_regex(text, '\s+'), x -> x <> '')) AS w
  FROM documents
), vocab AS (
  SELECT w FROM toks GROUP BY w
  HAVING COUNT(*) >= {TYPO_MIN_COUNT} AND len(w) <= {TYPO_MAX_LEN}
), hashed AS (
  SELECT w, list_reduce(list_prepend(CAST(0 AS BIGINT),
             list_transform(string_split(w, ''), c -> CAST(unicode(c) AS BIGINT))),
             (a, b) -> (a * 31 + b) % 4294967296) AS h
  FROM vocab
), aug AS (
  SELECT w FROM vocab
  UNION
  SELECT substr(w, 1, CAST(h % len(w) AS INTEGER))
         || chr(97 + CAST((h // 256) % 26 AS INTEGER))
         || substr(w, CAST(h % len(w) AS INTEGER) + 2) AS w
  FROM hashed
), keys AS (
  SELECT w, w AS k FROM aug
  UNION ALL
  SELECT w, substr(w, 1, i.i - 1) || substr(w, i.i + 1) AS k
  FROM aug, LATERAL (SELECT unnest(generate_series(1, len(w))) AS i) i
), cand AS (
  SELECT DISTINCT a.w AS w1, b.w AS w2
  FROM keys a JOIN keys b ON a.k = b.k AND a.w < b.w
)
SELECT w1, w2 FROM cand WHERE levenshtein(w1, w2) = 1
"""
