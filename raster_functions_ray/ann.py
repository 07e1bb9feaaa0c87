"""Similarity search over the embeddings table (list<float> column).

- brute-force cosine top-k: per-batch numpy matmul against a broadcast
  query matrix, partial top-k per batch, tiny final reduce (the exact
  baseline; SQL-checkable via list_cosine_similarity);
- LSH-bucketed variant (random hyperplane signs) as the scale path:
  candidates restricted to matching buckets, then exact re-rank.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from . import synth
from .sources import read_table
from .stages.join import merge_by_key

N_QUERIES = 3  # queries are embeddings of vec_id 0..N_QUERIES-1
TOP_K = 5


def _embedding_matrix(b: pa.Table, dim: int = 64) -> tuple[np.ndarray, np.ndarray]:
    emb = b["embedding"]
    if isinstance(emb, pa.ChunkedArray):
        emb = emb.combine_chunks()
    if len(emb) == 0:  # empty block from an upstream filter: emb[0] would raise
        return np.empty(0, np.int64), np.empty((0, dim), np.float64)
    flat = np.asarray(emb.flatten(), dtype=np.float64)
    dim = len(emb[0])
    return np.asarray(b["vec_id"], dtype=np.int64), flat.reshape(-1, dim)


def load_queries(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    import pyarrow.compute as pc

    from .sources import read_table_filtered

    # same lance-or-parquet dispatch as the corpus scan (queries and corpus
    # must come from the same dataset)
    t = read_table_filtered(sf_dir, "embeddings", ["vec_id", "embedding"],
                            pc.field("vec_id") < N_QUERIES)
    ids, mat = _embedding_matrix(t)
    order = np.argsort(ids)
    return ids[order], mat[order]


_EMPTY_PARTIAL = {"q_id": pd.Series([], dtype="int64"),
                  "vec_id": pd.Series([], dtype="int64"),
                  "sim": pd.Series([], dtype="float64")}


def _brute_force_topk(sf_dir: str, normalize: bool) -> pd.DataFrame:
    """Shared exact top-k pipeline: broadcast query matrix, per-batch matmul
    (cosine when ``normalize``, inner product otherwise), lexsort partial
    top-k so the k-boundary honors the oracle's (sim DESC, vec_id)
    tie-break, tiny driver-side final merge."""
    qids, qmat = load_queries(sf_dir)
    q = qmat / np.linalg.norm(qmat, axis=1, keepdims=True) if normalize else qmat
    qref = ray.put(q)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def partial(b: pa.Table) -> pd.DataFrame:
        qm = ray.get(qref)
        ids, mat = _embedding_matrix(b)
        keep = ids >= N_QUERIES
        ids, mat = ids[keep], mat[keep]
        if ids.size == 0:
            return pd.DataFrame(_EMPTY_PARTIAL)
        if normalize:
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            mat = mat / np.where(norms == 0, 1.0, norms)
        sims = mat @ qm.T  # (n, nq)
        frames = []
        k = min(TOP_K, ids.size)
        for qi in range(qm.shape[0]):
            idx = np.lexsort((ids, -sims[:, qi]))[:k]
            frames.append(pd.DataFrame({"q_id": qi, "vec_id": ids[idx],
                                        "sim": sims[idx, qi]}))
        return pd.concat(frames, ignore_index=True)

    cand = ds.map_batches(partial, batch_format="pyarrow", batch_size=8192).to_pandas()
    cand = cand.sort_values(["q_id", "sim", "vec_id"], ascending=[True, False, True])
    cand = cand.groupby("q_id").head(TOP_K)
    cand["rank"] = cand.groupby("q_id").cumcount() + 1
    return cand[["q_id", "vec_id", "rank"]].reset_index(drop=True)


def q_ann_topk(sf_dir: str) -> pd.DataFrame:
    """Exact cosine top-k per query (excluding the query rows themselves).

    Output: (q_id, vec_id, rank) — similarity values intentionally omitted
    so fp summation-order noise can't flip the value hash; ties break by
    vec_id (and are vanishingly unlikely on random floats).
    """
    return _brute_force_topk(sf_dir, normalize=True)


Q_ANN_TOPK_SQL = f"""
WITH base AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
), queries AS (
  SELECT vec_id AS q_id, e AS qe FROM base WHERE vec_id < {N_QUERIES}
), cands AS (
  SELECT vec_id, e FROM base WHERE vec_id >= {N_QUERIES}
)
SELECT q_id, vec_id, rank FROM (
  SELECT q.q_id, c.vec_id,
         ROW_NUMBER() OVER (PARTITION BY q.q_id
                            ORDER BY list_cosine_similarity(c.e, q.qe) DESC, c.vec_id) AS rank
  FROM cands c CROSS JOIN queries q)
WHERE rank <= {TOP_K}
"""

# --------------------------------------------------------- LSH scale path

N_PLANES = 12


class LshBucketer:
    """Actor-pool stage: random hyperplanes drawn once per actor
    (seeded — identical across actors); emits (vec_id, bucket)."""

    def __init__(self, dim: int = 64):
        rng = np.random.default_rng(271828)
        self.planes = rng.standard_normal((dim, N_PLANES))

    def __call__(self, b: pa.Table) -> pa.Table:
        ids, mat = _embedding_matrix(b)
        signs = (mat @ self.planes) > 0
        buckets = (signs * (1 << np.arange(N_PLANES))).sum(axis=1).astype(np.int64)
        return pa.table({"vec_id": pa.array(ids), "bucket": pa.array(buckets)})


def lsh_buckets(sf_dir: str, concurrency: int = 4) -> rd.Dataset:
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ds.map_batches(LshBucketer, batch_format="pyarrow", batch_size=8192,
                          concurrency=concurrency)


def q_lsh_bucket_sizes(sf_dir: str) -> pd.DataFrame:
    """Bucket histogram of the hyperplane LSH (SQL-exact: the seeded planes
    are embedded as literals in ``lsh_bucket_sizes_oracle_sql`` and the sign
    test has ≥2e-5 margin vs fp summation noise at sf≤0.1)."""
    from ray.data.aggregate import Count

    out = lsh_buckets(sf_dir).groupby("bucket").aggregate(Count(alias_name="n")).to_pandas()
    return out.sort_values("bucket").reset_index(drop=True)


def lsh_bucket_sizes_oracle_sql(dim: int = 64) -> str:
    """DuckDB oracle for ``q_lsh_bucket_sizes``: regenerate the SAME seeded
    hyperplanes (no data dependence) and embed them as DOUBLE[] literals, so
    bucket = Σ_p (list_dot_product(e, plane_p) > 0) << p matches the numpy
    ``mat @ planes`` sign pattern bit-for-bit (repr() round-trips doubles;
    sign flips would need |dot| ~ 1e-12 — measured minimum is 2.2e-5)."""
    rng = np.random.default_rng(271828)
    planes = rng.standard_normal((dim, N_PLANES))
    terms = []
    for p in range(N_PLANES):
        lit = "[" + ",".join(repr(float(v)) for v in planes[:, p]) + "]"
        terms.append(
            f"(CASE WHEN list_dot_product(e, {lit}) > 0 THEN {1 << p} ELSE 0 END)")
    expr = "\n    + ".join(terms)
    return f"""
WITH base AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
), bucketed AS (
  SELECT {expr} AS bucket FROM base
)
SELECT bucket, COUNT(*) AS n FROM bucketed GROUP BY bucket ORDER BY bucket
"""


# ------------------------------------------------------------- IVF path

N_CLUSTERS = 16
KMEANS_ITERS = 8


def _kmeans_centroids(sample: np.ndarray, k: int = N_CLUSTERS,
                      iters: int = KMEANS_ITERS, seed: int = 314159) -> np.ndarray:
    """Seeded mini k-means on a driver-side sample (centroids are tiny and
    broadcast; the expensive assignment runs distributed)."""
    rng = np.random.default_rng(seed)
    cent = sample[rng.choice(len(sample), k, replace=False)].copy()
    for _ in range(iters):
        d2 = ((sample[:, None, :] - cent[None, :, :]) ** 2).sum(-1)
        assign = d2.argmin(1)
        for c in range(k):
            pts = sample[assign == c]
            if len(pts):
                cent[c] = pts.mean(0)
    return cent


def _sample_embeddings(path: str, cap: int = 2048) -> np.ndarray:
    """K-means sample via STRIDED row-group reads — O(sample) driver
    memory, never the whole parquet, and the stride avoids the bias of a
    pure-prefix sample when the corpus is ordered in storage."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    n_rg = pf.num_row_groups
    per_rg = max(1, cap // max(1, min(n_rg, 8)))
    stride = max(1, n_rg // 8)
    got, need = [], cap
    for rg in range(0, n_rg, stride):
        t_rg = pf.read_row_group(rg, columns=["vec_id", "embedding"])
        got.append(t_rg.slice(0, per_rg))
        need -= min(per_rg, t_rg.num_rows)
        if need <= 0:
            break
    t = pa.concat_tables(got).slice(0, cap)
    _, mat = _embedding_matrix(t)
    return mat


class IvfAssigner:
    """Actor-pool stage: assign each embedding to its nearest centroid
    (the IVF 'coarse quantizer'); centroids broadcast once per actor.
    Emits (vec_id, embedding, list_id) — list_id travels as a COLUMN, so
    the index can be written list-partitioned and probed by pruned reads
    (no driver-side assignment table)."""

    def __init__(self, centroids_ref):
        self.cent = ray.get(centroids_ref)

    def __call__(self, b: pa.Table) -> pa.Table:
        ids, mat = _embedding_matrix(b)
        d2 = (mat**2).sum(1)[:, None] - 2 * mat @ self.cent.T + (self.cent**2).sum(1)[None, :]
        lid = d2.argmin(1).astype(np.int64)
        # list_id drives the hive partition layout (and is consumed by it);
        # lid stays as a data column inside the files for per-query probing
        return (b.append_column("list_id", pa.array(lid))
                .append_column("lid", pa.array(lid)))


def ivf_build(sf_dir: str, concurrency: int = 4) -> tuple[np.ndarray, str]:
    """IVF index build, 100-TB shape: centroids from a bounded sample;
    assignment runs distributed and is written as a LIST-PARTITIONED parquet
    index (one directory per inverted list).  Search then touches only the
    probed lists' files.  Returns (centroids, index_dir).

    The index is deterministic (seeded kmeans, nearest-centroid assignment)
    and cached per source dir; a concurrent build writes to a unique tmp dir
    and publishes atomically."""
    import os
    import uuid

    src = f"{sf_dir}/embeddings.parquet"
    from .sources import _HAVE_LANCE

    if _HAVE_LANCE and os.path.isdir(f"{sf_dir}/embeddings.lance") \
            and not os.path.exists(src):
        # the row-group sampler below is parquet-specific; refusing beats
        # sampling a file the corpus scan (read_table dispatch) won't use
        raise NotImplementedError(
            "IVF build sampling is parquet-only; lance-only corpora need a "
            "fragment-strided sampler")
    # cache key includes a source fingerprint (size+mtime): a regenerated
    # embeddings.parquet must NOT silently reuse the previous corpus' index
    st = os.stat(src)
    fp = f"{st.st_size}_{st.st_mtime_ns}"  # ns: same-second rewrites must miss
    index_dir = os.path.join(
        synth.CACHE_ROOT, "ivf",
        f"v3_{os.path.basename(os.path.normpath(sf_dir))}_k{N_CLUSTERS}_{fp}")
    cent_path = os.path.join(index_dir, "centroids.npy")
    if os.path.exists(os.path.join(index_dir, "_DONE")):
        return np.load(cent_path), index_dir

    cent = _kmeans_centroids(_sample_embeddings(src))
    cref = ray.put(cent)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    assign = ds.map_batches(IvfAssigner, fn_constructor_args=(cref,),
                            batch_format="pyarrow", batch_size=8192,
                            concurrency=concurrency)
    tmp = f"{index_dir}.tmp-{uuid.uuid4().hex[:8]}"
    # parquet lives under lists/ so Dataset reads never see the .npy/_DONE
    assign.write_parquet(os.path.join(tmp, "lists"), partition_cols=["list_id"])
    np.save(os.path.join(tmp, "centroids.npy"), cent)
    try:
        os.replace(tmp, index_dir)
    except OSError:
        # lost the publish race — another process finished first; use theirs
        import shutil
        shutil.rmtree(tmp, ignore_errors=True)
    with open(os.path.join(index_dir, "_DONE"), "w") as f:
        f.write("ok")
    return np.load(cent_path), index_dir


def q_ivf_search(sf_dir: str, n_probe: int = 4, concurrency: int = 4) -> pd.DataFrame:
    """IVF-ANN: search only the ``n_probe`` nearest inverted lists per query
    (the scale path — brute force is the exact baseline it approximates).

    Scale shape: the probed lists are PRUNED AT THE READ (the index is
    list-partitioned parquet; non-probed lists' vectors never leave
    storage), and list membership rides the ``list_id`` partition column —
    no whole-corpus assignment dict on the driver.

    Rows-only check; recall vs the exact q_ann_topk is asserted in tests
    (deterministic: seeded centroids)."""
    import os

    cent, index_dir = ivf_build(sf_dir, concurrency=concurrency)

    qids, qmat = load_queries(sf_dir)
    qn = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
    # probe lists per query by centroid distance
    d2 = (qmat**2).sum(1)[:, None] - 2 * qmat @ cent.T + (cent**2).sum(1)[None, :]
    probes = np.argsort(d2, axis=1)[:, :n_probe]
    probe_sets = [set(map(int, probes[i])) for i in range(len(qids))]
    union_lists = sorted(set().union(*probe_sets))
    pref = ray.put((qn, probe_sets))

    # probe pruning AT THE PATH LEVEL: only the probed lists' partition
    # directories are ever opened — non-probed vectors never leave storage
    probe_paths = []
    for l in union_lists:
        pdir = os.path.join(index_dir, "lists", f"list_id={l}")
        if not os.path.isdir(pdir):
            continue  # empty inverted list: no vector was assigned to it
        probe_paths += [os.path.join(pdir, f) for f in sorted(os.listdir(pdir))
                        if f.endswith(".parquet")]
    if not probe_paths:
        return pd.DataFrame({"q_id": pd.Series([], dtype="int64"),
                             "vec_id": pd.Series([], dtype="int64"),
                             "rank": pd.Series([], dtype="int64")})
    ds = rd.read_parquet(probe_paths, columns=["vec_id", "embedding", "lid"])

    def partial(b: pa.Table) -> pd.DataFrame:
        q, psets = ray.get(pref)
        lists_all = np.asarray(b["lid"], dtype=np.int64)
        ids, mat = _embedding_matrix(b)
        keep = ids >= N_QUERIES
        ids, mat, lists = ids[keep], mat[keep], lists_all[keep]
        if ids.size == 0:
            return pd.DataFrame({"q_id": pd.Series([], dtype="int64"),
                                 "vec_id": pd.Series([], dtype="int64"),
                                 "sim": pd.Series([], dtype="float64")})
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        mn = mat / np.where(norms == 0, 1.0, norms)
        sims = mn @ q.T
        frames = []
        for qi in range(q.shape[0]):
            in_probe = np.isin(lists, list(psets[qi]))
            if not in_probe.any():
                continue
            cand_ids, cand_sims = ids[in_probe], sims[in_probe, qi]
            k = min(TOP_K, cand_ids.size)
            idx = np.lexsort((cand_ids, -cand_sims))[:k]
            frames.append(pd.DataFrame({"q_id": qi, "vec_id": cand_ids[idx],
                                        "sim": cand_sims[idx]}))
        if not frames:
            return pd.DataFrame({"q_id": pd.Series([], dtype="int64"),
                                 "vec_id": pd.Series([], dtype="int64"),
                                 "sim": pd.Series([], dtype="float64")})
        return pd.concat(frames, ignore_index=True)

    cand = ds.map_batches(partial, batch_format="pyarrow", batch_size=8192).to_pandas()
    cand = cand.sort_values(["q_id", "sim", "vec_id"], ascending=[True, False, True])
    cand = cand.groupby("q_id").head(TOP_K)
    cand["rank"] = cand.groupby("q_id").cumcount() + 1
    return cand[["q_id", "vec_id", "rank"]].reset_index(drop=True)


def q_ann_dot_topk(sf_dir: str) -> pd.DataFrame:
    """Exact inner-product top-k (the unnormalized twin of q_ann_topk;
    DuckDB oracle uses list_inner_product)."""
    return _brute_force_topk(sf_dir, normalize=False)


Q_ANN_DOT_TOPK_SQL = f"""
WITH base AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
), queries AS (
  SELECT vec_id AS q_id, e AS qe FROM base WHERE vec_id < {N_QUERIES}
), cands AS (
  SELECT vec_id, e FROM base WHERE vec_id >= {N_QUERIES}
)
SELECT q_id, vec_id, rank FROM (
  SELECT q.q_id, c.vec_id,
         ROW_NUMBER() OVER (PARTITION BY q.q_id
                            ORDER BY list_inner_product(c.e, q.qe) DESC, c.vec_id) AS rank
  FROM cands c CROSS JOIN queries q)
WHERE rank <= {TOP_K}
"""


# --------------------------------- scalar-quantized IVF (SQL-exact gate)

# q_ivf_search pins the IVF plumbing (list-partitioned index, path-pruned
# probes) but its float kmeans centroids are not SQL-expressible, so its
# driver gate is rows-only.  This variant pins the ENTIRE IVF mechanism —
# coarse assignment, probe selection, candidate re-rank — with integer
# arithmetic a DuckDB oracle recomputes verbatim:
#   quantize   qv[i] = floor(e[i]·1024 + 0.5)   (1024 = 2^10: the float64
#              scaling of a float32 value is EXACT, so both sides floor
#              the identical number — the repo's half-away discipline)
#   centroids  data-INdependent seeded integers (the same discipline as
#              the LSH hyperplane gate) — scalar-quantized coarse
#              assignment + exact re-rank is the production IVF-SQ shape
#   distances  Σ(qv−c)² in int64 → argmin/rank ties broken by id.
# All-integer ordering ⇒ hash-exact against the oracle by construction.

SQ_SCALE = 1024
SQ_K = 8          # inverted lists
SQ_PROBE = 3      # lists probed per query
SQ_CENT_LO, SQ_CENT_HI = -300, 301  # quantized-domain centroid range


def _sq_centroids() -> np.ndarray:
    rng = np.random.default_rng(20260819)
    return rng.integers(SQ_CENT_LO, SQ_CENT_HI, (SQ_K, 64), dtype=np.int64)


def _sq_quantize(mat: np.ndarray) -> np.ndarray:
    return np.floor(mat * SQ_SCALE + 0.5).astype(np.int64)


def _sq_assign(qv: np.ndarray, cent: np.ndarray) -> np.ndarray:
    """Nearest centroid by integer squared L2; ties → lowest list_id
    (np.argmin's first-minimum rule)."""
    d2 = ((qv**2).sum(1)[:, None] - 2 * qv @ cent.T
          + (cent**2).sum(1)[None, :])
    return np.argmin(d2, axis=1).astype(np.int64)


def _build_list_index(sf_dir: str, tag: str, encode_fn) -> str:
    """Build-once-per-corpus list-partitioned parquet index shared by the
    IVF family.  ``encode_fn`` maps an Arrow batch of (vec_id, embedding)
    to a table carrying a ``list_id`` partition column.  The index dir is
    keyed on (tag, corpus basename, size, mtime) so a corpus change
    invalidates it; the write is crash-safe (tmp dir → os.replace →
    ``_DONE`` marker), and a concurrent builder losing the os.replace race
    just discards its tmp copy."""
    import os
    import uuid

    src = f"{sf_dir}/embeddings.parquet"
    st = os.stat(src)
    index_dir = os.path.join(
        synth.CACHE_ROOT, "ivf",
        f"{tag}_{os.path.basename(os.path.normpath(sf_dir))}"
        f"_{st.st_size}_{st.st_mtime_ns}")
    if not os.path.exists(os.path.join(index_dir, "_DONE")):
        ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        tmp = f"{index_dir}.tmp-{uuid.uuid4().hex[:8]}"
        (ds.map_batches(encode_fn, batch_format="pyarrow", batch_size=8192)
         .write_parquet(os.path.join(tmp, "lists"), partition_cols=["list_id"]))
        try:
            os.replace(tmp, index_dir)
        except OSError:
            import shutil
            shutil.rmtree(tmp, ignore_errors=True)
        with open(os.path.join(index_dir, "_DONE"), "w") as f:
            f.write("ok")
    return index_dir


def _probe_parquet_paths(index_dir: str, union_lists) -> list[str]:
    """Parquet files of ONLY the probed lists' partition dirs — the path
    pruning that keeps untouched lists in storage."""
    import os

    paths: list[str] = []
    for l in union_lists:
        pdir = os.path.join(index_dir, "lists", f"list_id={l}")
        if not os.path.isdir(pdir):
            continue
        paths += [os.path.join(pdir, f) for f in sorted(os.listdir(pdir))
                  if f.endswith(".parquet")]
    return paths


def q_ivf_sq_search(sf_dir: str, concurrency: int = 4) -> pd.DataFrame:
    """IVF-SQ ANN search, same scale shape as q_ivf_search: the quantized
    index is written as list-partitioned parquet ONCE per corpus (cached),
    search opens only the probed lists' partition directories, and the
    re-rank streams those lists through map_batches with a broadcast
    query matrix.  SQL-exact: integer distances end to end."""
    cent = _sq_centroids()
    cref = ray.put(cent)

    def assign_rows(b: pa.Table) -> pa.Table:
        ids, mat = _embedding_matrix(b)
        qv = _sq_quantize(mat)
        lid = _sq_assign(qv, ray.get(cref))
        return pa.table({"vec_id": pa.array(ids),
                         "lid": pa.array(lid),
                         "qv": pa.array(list(qv), pa.list_(pa.int64())),
                         "list_id": pa.array(lid)})

    index_dir = _build_list_index(sf_dir, f"sq1k{SQ_K}", assign_rows)

    # probe lists per query: quantized query vs centroids, ties → list_id
    qids, qmat = load_queries(sf_dir)
    qv = _sq_quantize(qmat)
    d2 = ((qv**2).sum(1)[:, None] - 2 * qv @ cent.T + (cent**2).sum(1)[None, :])
    order = np.argsort(d2, axis=1, kind="stable")[:, :SQ_PROBE]
    probe_sets = [set(map(int, order[i])) for i in range(len(qids))]
    union_lists = sorted(set().union(*probe_sets))
    pref = ray.put((qv, probe_sets))

    probe_paths = _probe_parquet_paths(index_dir, union_lists)
    empty = pd.DataFrame({"q_id": pd.Series([], dtype="int64"),
                          "vec_id": pd.Series([], dtype="int64"),
                          "rank": pd.Series([], dtype="int64")})
    if not probe_paths:
        return empty
    ds = rd.read_parquet(probe_paths, columns=["vec_id", "qv", "lid"])

    def partial(b: pa.Table) -> pd.DataFrame:
        qm, psets = ray.get(pref)
        ids = np.asarray(b["vec_id"], dtype=np.int64)
        lists = np.asarray(b["lid"], dtype=np.int64)
        vq = np.asarray(b["qv"].combine_chunks().flatten(),
                        dtype=np.int64).reshape(len(ids), -1) \
            if len(ids) else np.empty((0, qm.shape[1]), np.int64)
        keep = ids >= N_QUERIES
        ids, vq, lists = ids[keep], vq[keep], lists[keep]
        if ids.size == 0:
            return pd.DataFrame({"q_id": pd.Series([], dtype="int64"),
                                 "vec_id": pd.Series([], dtype="int64"),
                                 "d2": pd.Series([], dtype="int64")})
        dd = ((vq**2).sum(1)[:, None] - 2 * vq @ qm.T
              + (qm**2).sum(1)[None, :])  # (n, nq) int64
        frames = []
        for qi in range(qm.shape[0]):
            in_probe = np.isin(lists, list(psets[qi]))
            if not in_probe.any():
                continue
            cid, cd = ids[in_probe], dd[in_probe, qi]
            k = min(TOP_K, cid.size)
            idx = np.lexsort((cid, cd))[:k]
            frames.append(pd.DataFrame({"q_id": qi, "vec_id": cid[idx],
                                        "d2": cd[idx]}))
        if not frames:
            return pd.DataFrame({"q_id": pd.Series([], dtype="int64"),
                                 "vec_id": pd.Series([], dtype="int64"),
                                 "d2": pd.Series([], dtype="int64")})
        return pd.concat(frames, ignore_index=True)

    cand = ds.map_batches(partial, batch_format="pyarrow",
                          batch_size=8192).to_pandas()
    if cand.empty:
        return empty
    cand = cand.sort_values(["q_id", "d2", "vec_id"])
    cand = cand.groupby("q_id").head(TOP_K)
    cand["rank"] = cand.groupby("q_id").cumcount() + 1
    return cand[["q_id", "vec_id", "rank"]].reset_index(drop=True)


def _sq_centroid_values_sql() -> str:
    cent = _sq_centroids()
    return ", ".join(
        f"({i}, [{', '.join(str(int(v)) for v in cent[i])}])"
        for i in range(SQ_K))


def ivf_sq_oracle_sql() -> str:
    return f"""
WITH base AS (
  SELECT vec_id,
         list_transform(embedding,
             x -> CAST(floor(CAST(x AS DOUBLE) * {SQ_SCALE} + 0.5) AS BIGINT)) AS qe
  FROM embeddings
), c AS (
  SELECT * FROM (VALUES {_sq_centroid_values_sql()}) AS t(list_id, ce)
), d AS (
  SELECT vec_id, list_id,
         list_sum(list_transform(generate_series(1, 64),
                  i -> (qe[i] - ce[i]) * (qe[i] - ce[i]))) AS d2
  FROM base CROSS JOIN c
), assign AS (
  SELECT vec_id, list_id FROM (
    SELECT vec_id, list_id,
           ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d2, list_id) AS rn
    FROM d) WHERE rn = 1
), probes AS (
  SELECT vec_id AS q_id, list_id FROM (
    SELECT vec_id, list_id,
           ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d2, list_id) AS rn
    FROM d WHERE vec_id < {N_QUERIES}) WHERE rn <= {SQ_PROBE}
), cand AS (
  SELECT p.q_id, a.vec_id FROM probes p JOIN assign a USING (list_id)
  WHERE a.vec_id >= {N_QUERIES}
), scored AS (
  SELECT cand.q_id, cand.vec_id,
         list_sum(list_transform(generate_series(1, 64),
                  i -> (bq.qe[i] - bv.qe[i]) * (bq.qe[i] - bv.qe[i]))) AS d2
  FROM cand
  JOIN base bq ON bq.vec_id = cand.q_id
  JOIN base bv ON bv.vec_id = cand.vec_id
)
SELECT q_id, vec_id, rank FROM (
  SELECT q_id, vec_id,
         ROW_NUMBER() OVER (PARTITION BY q_id ORDER BY d2, vec_id) AS rank
  FROM scored)
WHERE rank <= {TOP_K}
ORDER BY q_id, rank
"""


# ------------------------------------------------------------ k-means ----

# Distributed Lloyd's k-means over the embedding corpus — the semantic-
# clustering primitive behind embedding-based dedup, mixture balancing
# and IVF coarse training.  Iterative-algorithm-as-Dataset-passes shape:
# each round is ONE streaming pass (quantize → broadcast-centroid argmin
# assignment → per-batch partial (count, per-dim sum) rows → an 8-key
# groupby Sum), with the 8×64 centroid update on the driver and re-
# broadcast via ray.put — the only driver-side state is O(K·dim),
# independent of corpus size.  SQL-exact end to end by the IVF-SQ
# discipline: vectors quantized floor(e·1024 + .5) so assignment distances
# are int64 (ties → lowest cluster id), and the centroid update
# floor(sum/count) is a single identical IEEE division + floor per
# dimension on both sides.  Init = the K quantized vectors of the K
# smallest vec_ids (gathered by per-batch partial top-k, no sort).

KM_K = 8
KM_ITERS = 2
KM_DIM = 64


def _km_assign(qv: np.ndarray, cent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cluster, squared distance) per row — integer-exact, ties → lowest
    cluster id (np.argmin first-minimum rule)."""
    d2 = ((qv ** 2).sum(1)[:, None] - 2 * qv @ cent.T
          + (cent ** 2).sum(1)[None, :])
    a = np.argmin(d2, axis=1)
    return a.astype(np.int64), d2[np.arange(len(a)), a]


def _km_assign_batch_fn(cref, emit: str):
    """Broadcast-centroid assignment closure shared by the k-means gate
    and the semantic dedup — one implementation so tie-breaks and
    quantization can never drift apart.  ``emit``: 'd2' adds the squared
    distance to the assigned centroid; 'qv' carries the quantized vector
    through the shuffle (for in-cluster pairwise work)."""

    def assign(b: pa.Table) -> pd.DataFrame:
        c = ray.get(cref)
        ids, mat = _embedding_matrix(b)
        if ids.size == 0:
            extra = ("d2", pd.Series([], dtype="int64")) if emit == "d2" \
                else ("qv", pd.Series([], dtype="object"))
            return pd.DataFrame({"cluster_id": pd.Series([], dtype="int64"),
                                 "vec_id": pd.Series([], dtype="int64"),
                                 extra[0]: extra[1]})
        qv = _sq_quantize(mat)
        a, d2 = _km_assign(qv, c)
        out = {"cluster_id": a, "vec_id": ids}
        if emit == "d2":
            out["d2"] = d2.astype(np.int64)
        else:
            out["qv"] = list(qv)
        return pd.DataFrame(out)

    return assign


def _km_fit(ds) -> np.ndarray:
    """Init + KM_ITERS Lloyd rounds over a (vec_id, embedding) Dataset;
    returns the final KM_K×KM_DIM int64 centroids.  Shared by the k-means
    gate and the cluster-bucketed semantic dedup."""
    from ray.data.aggregate import Sum

    # ---- init: quantized vectors of the KM_K smallest vec_ids ----------
    def smallest(b: pa.Table) -> pd.DataFrame:
        ids, mat = _embedding_matrix(b)
        if ids.size == 0:
            return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                 **{f"d{i}": pd.Series([], dtype="int64")
                                    for i in range(KM_DIM)}})
        take = np.argsort(ids)[:KM_K]
        qv = _sq_quantize(mat[take])
        out = {"vec_id": ids[take]}
        out.update({f"d{i}": qv[:, i] for i in range(KM_DIM)})
        return pd.DataFrame(out)

    seed = (ds.map_batches(smallest, batch_format="pyarrow", batch_size=8192)
            .to_pandas().sort_values("vec_id").head(KM_K))
    cent = seed[[f"d{i}" for i in range(KM_DIM)]].to_numpy(np.int64)

    # ---- Lloyd rounds ---------------------------------------------------
    sum_cols = [f"s{i}" for i in range(KM_DIM)]
    for _ in range(KM_ITERS):
        cref = ray.put(cent)

        def partials(b: pa.Table) -> pd.DataFrame:
            c = ray.get(cref)
            ids, mat = _embedding_matrix(b)
            if ids.size == 0:
                return pd.DataFrame({"k": pd.Series([], dtype="int64"),
                                     "cnt": pd.Series([], dtype="int64"),
                                     **{sc: pd.Series([], dtype="int64")
                                        for sc in sum_cols}})
            qv = _sq_quantize(mat)
            a, _ = _km_assign(qv, c)
            rows = []
            for k in np.unique(a):
                sel = qv[a == k]
                rows.append((int(k), len(sel), *sel.sum(axis=0).tolist()))
            return pd.DataFrame(rows, columns=["k", "cnt"] + sum_cols)

        agg = (ds.map_batches(partials, batch_format="pyarrow", batch_size=8192)
               .groupby("k")
               .aggregate(Sum("cnt", alias_name="cnt"),
                          *[Sum(sc, alias_name=sc) for sc in sum_cols])
               .to_pandas())
        new = cent.copy()  # empty clusters keep their previous centroid
        for _, r in agg.iterrows():
            k = int(r["k"])
            cnt = float(r["cnt"])
            new[k] = np.floor(
                r[sum_cols].to_numpy(np.int64).astype(np.float64) / cnt
            ).astype(np.int64)
        cent = new
    return cent


def q_kmeans_embed(sf_dir: str) -> pd.DataFrame:
    """KM_ITERS Lloyd rounds, then per-cluster size / SSE / representative."""
    from ray.data.aggregate import Count, Min, Sum

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cent = _km_fit(ds)

    # ---- final assignment + per-cluster reduce --------------------------
    cref = ray.put(cent)
    assign = _km_assign_batch_fn(cref, emit="d2")

    out = (ds.map_batches(assign, batch_format="pyarrow", batch_size=8192)
           .groupby("cluster_id")
           .aggregate(Count(alias_name="size"), Sum("d2", alias_name="sse"),
                      Min("vec_id", alias_name="rep_id"))
           .to_pandas())
    out = out.astype({"cluster_id": "int64", "size": "int64",
                      "sse": "int64", "rep_id": "int64"})
    return out.sort_values("cluster_id").reset_index(drop=True)


def kmeans_oracle_sql() -> str:
    return f"""
WITH {_kmeans_cte_prefix()}
SELECT k AS cluster_id, CAST(COUNT(*) AS BIGINT) AS size,
       CAST(SUM(d2) AS BIGINT) AS sse, MIN(vec_id) AS rep_id
FROM afin GROUP BY k ORDER BY cluster_id
"""


def _kmeans_cte_prefix() -> str:
    """The shared k-means CTE chain (quantize → init → 2 Lloyd rounds →
    final assignment ``afin(vec_id, k, d2)``), reused by the k-means gate
    and the cluster-bucketed semantic dedup oracle."""
    d2 = (f"list_sum(list_transform(generate_series(1, {KM_DIM}),"
          " i -> (qe[i] - ce[i]) * (qe[i] - ce[i])))")
    return f"""base AS (
  SELECT vec_id,
         list_transform(embedding,
             x -> CAST(floor(CAST(x AS DOUBLE) * {SQ_SCALE} + 0.5) AS BIGINT)) AS qe
  FROM embeddings
), c0 AS (
  SELECT CAST(ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS k, qe AS ce
  FROM (SELECT vec_id, qe FROM base ORDER BY vec_id LIMIT {KM_K})
), a0 AS (
  SELECT vec_id, k FROM (
    SELECT b.vec_id, c0.k,
           ROW_NUMBER() OVER (PARTITION BY b.vec_id ORDER BY {d2.replace('qe', 'b.qe').replace('ce', 'c0.ce')}, c0.k) AS rn
    FROM base b CROSS JOIN c0) WHERE rn = 1
), m1 AS (
  SELECT a0.k, t.i,
         CAST(floor(CAST(SUM(b.qe[t.i]) AS DOUBLE) / COUNT(*)) AS BIGINT) AS v
  FROM a0 JOIN base b USING (vec_id),
       UNNEST(generate_series(1, {KM_DIM})) AS t(i)
  GROUP BY a0.k, t.i
), c1 AS (
  SELECT c0.k, COALESCE(u.ce, c0.ce) AS ce
  FROM c0 LEFT JOIN (
    SELECT k, array_agg(v ORDER BY i) AS ce FROM m1 GROUP BY k) u USING (k)
), a1 AS (
  SELECT vec_id, k FROM (
    SELECT b.vec_id, c1.k,
           ROW_NUMBER() OVER (PARTITION BY b.vec_id ORDER BY {d2.replace('qe', 'b.qe').replace('ce', 'c1.ce')}, c1.k) AS rn
    FROM base b CROSS JOIN c1) WHERE rn = 1
), m2 AS (
  SELECT a1.k, t.i,
         CAST(floor(CAST(SUM(b.qe[t.i]) AS DOUBLE) / COUNT(*)) AS BIGINT) AS v
  FROM a1 JOIN base b USING (vec_id),
       UNNEST(generate_series(1, {KM_DIM})) AS t(i)
  GROUP BY a1.k, t.i
), c2 AS (
  SELECT c1.k, COALESCE(u.ce, c1.ce) AS ce
  FROM c1 LEFT JOIN (
    SELECT k, array_agg(v ORDER BY i) AS ce FROM m2 GROUP BY k) u USING (k)
), afin AS (
  SELECT vec_id, k, dd AS d2 FROM (
    SELECT b.vec_id, c2.k,
           {d2.replace('qe', 'b.qe').replace('ce', 'c2.ce')} AS dd,
           ROW_NUMBER() OVER (PARTITION BY b.vec_id ORDER BY {d2.replace('qe', 'b.qe').replace('ce', 'c2.ce')}, c2.k) AS rn
    FROM base b CROSS JOIN c2) WHERE rn = 1
)"""


# ---------------------------------- cluster-bucketed semantic dedup ----

# SemDeDup-style embedding near-dup removal WITHOUT broadcasting the
# corpus matrix (the scale fix for q_embedding_nn_dedup's documented
# exact-semantics pin): k-means buckets the corpus, the pairwise check
# runs only WITHIN each cluster (groupby(cluster).map_groups — per-group
# O(m²) bounded by cluster size; hot clusters would be salted/split by
# the stages/salt machinery).  A vector is dropped when a SMALLER-id
# vector in the same cluster lies within KM_DEDUP_T squared quantized
# distance — deterministic, order-free, and SQL-exact end to end through
# the same k-means CTE chain.

KM_DEDUP_T = 1_200_000  # quantized d² threshold (corpus min pair ≈ 1.02e6)


def q_semantic_dedup_kmeans(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cent = _km_fit(ds)
    cref = ray.put(cent)
    assigned = ds.map_batches(_km_assign_batch_fn(cref, emit="qv"),
                              batch_format="pyarrow", batch_size=8192)

    def dedup_group(g: pd.DataFrame, block: int = 1024) -> pd.DataFrame:
        # row-blocked pairwise check: the O(m²) comparison count is
        # inherent to the semantics, but memory stays O(block·m) — a hot
        # cluster streams through in 1024-row stripes instead of
        # materializing the full m×m distance matrix
        g = g.sort_values("vec_id")
        ids = g["vec_id"].to_numpy(np.int64)
        qv = np.stack([np.asarray(v, dtype=np.int64) for v in g["qv"]])
        n2 = (qv ** 2).sum(1)
        m = len(ids)
        dropped = np.zeros(m, dtype=bool)
        for lo in range(0, m, block):
            hi = min(lo + block, m)
            d2 = (n2[lo:hi, None] - 2 * qv[lo:hi] @ qv.T + n2[None, :])
            # j < i in id order: columns strictly left of the row index
            tri = np.arange(m)[None, :] < np.arange(lo, hi)[:, None]
            dropped[lo:hi] = ((d2 <= KM_DEDUP_T) & tri).any(axis=1)
        return pd.DataFrame({"vec_id": ids,
                             "cluster_id": g["cluster_id"].to_numpy(np.int64),
                             "kept": (~dropped).astype(np.int64)})

    out = assigned.groupby("cluster_id").map_groups(dedup_group).to_pandas()
    return (out[["vec_id", "cluster_id", "kept"]]
            .sort_values("vec_id").reset_index(drop=True))


def semantic_dedup_oracle_sql() -> str:
    pair_d2 = (f"list_sum(list_transform(generate_series(1, {KM_DIM}),"
               " i -> (ba.qe[i] - bb.qe[i]) * (ba.qe[i] - bb.qe[i])))")
    return f"""
WITH {_kmeans_cte_prefix()},
dropped AS (
  SELECT DISTINCT a.vec_id
  FROM afin a JOIN afin b ON a.k = b.k AND b.vec_id < a.vec_id
  JOIN base ba ON ba.vec_id = a.vec_id
  JOIN base bb ON bb.vec_id = b.vec_id
  WHERE {pair_d2} <= {KM_DEDUP_T}
)
SELECT f.vec_id, f.k AS cluster_id,
       CAST(CASE WHEN d.vec_id IS NULL THEN 1 ELSE 0 END AS BIGINT) AS kept
FROM afin f LEFT JOIN dropped d ON d.vec_id = f.vec_id
ORDER BY f.vec_id
"""


# ------------------------- exact NN via k-means ball pruning -----------

# fp slack added to angular radii/bounds: arccos near 1 is ill-conditioned
# (~1e-8 absolute error), so the bound gets 1e-6 of slack — slack only
# ADDS probes; it can never prune a cluster holding the true neighbor
NN_ANGLE_SLACK = 1e-6


def exact_nn_clustered(sf_dir: str) -> pd.DataFrame:
    """EXACT global cosine nearest neighbor with NO corpus broadcast — the
    scale lowering of dedup.q_embedding_nn_dedup (same output, same SQL
    oracle).  K-means ball pruning:

    1. `_km_fit` centroids (deterministic, quantized — ANY deterministic
       partition works; exactness comes from the bound, not the buckets);
    2. one pass computes each vector's cluster + its angle to the
       centroid; per-cluster max angle (the ball radius) reduces to
       K driver floats via per-block partials;
    3. in-cluster NN per `groupby(cluster).map_groups` (striped matmul,
       memory O(block·m) like the semantic-dedup kernel);
    4. triangle inequality on the sphere: angle(q,u) >= angle(q,c_j) - r_j
       for u in cluster j, so cos(max(0, ang_qc - r_j)) upper-bounds any
       member's similarity — q probes ONLY clusters whose bound can beat
       its in-cluster best (ties probe too: an equal-sim smaller id must
       win the tie-break);
    5. probes shuffle to their target clusters (bounded fan-out), each
       returns lex-max(carried best, best member); a final per-vec lex
       merge (`stages.join.merge_by_key`: driver-vectorized within the
       driver budget, hash-groupby beyond) yields the unique global argmax
       with min-id tie-break.

    Every exchange is cluster- or probe-sized; the only driver state is
    K centroids + K radii.

    Pruning effectiveness depends on the data being genuinely clustered
    (what real text/image encoders emit — pytest pins <20% probes on a
    clustered micro-world): on near-uniform random high-dim vectors the
    radii approach 90 deg and the bound legitimately degrades to
    probe-everything, which stays EXACT (equivalent work to a striped
    self-join) — correctness never depends on the clustering quality."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cent = _km_fit(ds)
    cf = cent.astype(np.float64)
    cn = np.linalg.norm(cf, axis=1, keepdims=True)
    cf = cf / np.where(cn == 0, 1.0, cn)
    cref = ray.put((cent, cf))

    def assign_emb(b: pa.Table) -> pd.DataFrame:
        cq, cfl = ray.get(cref)
        ids, mat = _embedding_matrix(b)
        if ids.size == 0:
            return pd.DataFrame({"cluster_id": pd.Series([], dtype="int64"),
                                 "vec_id": pd.Series([], dtype="int64"),
                                 "e": pd.Series([], dtype="object"),
                                 "ang": pd.Series([], dtype="float64")})
        a, _ = _km_assign(_sq_quantize(mat), cq)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        bn = mat / np.where(norms == 0, 1.0, norms)
        ang = np.arccos(np.clip((bn * cfl[a]).sum(1), -1.0, 1.0))
        return pd.DataFrame({"cluster_id": a, "vec_id": ids,
                             "e": list(bn), "ang": ang})

    assigned = ds.map_batches(assign_emb, batch_format="pyarrow",
                              batch_size=8192).materialize()

    # ---- ball radii: per-block partial maxima → K driver floats ---------
    def rad_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("cluster_id")["ang"].max().reset_index()
        return g.rename(columns={"ang": "r"})

    radii = np.full(KM_K, -1.0)  # -1 marks an empty cluster (never probed)
    for blk in (assigned.select_columns(["cluster_id", "ang"])
                .map_batches(rad_partial, batch_format="pandas")
                .iter_batches(batch_format="pandas")):
        for k, r in zip(blk["cluster_id"].to_numpy(np.int64),
                        blk["r"].to_numpy()):
            radii[k] = max(radii[k], r)

    # ---- phase 3: in-cluster NN (carry the normalized embedding) --------
    def nn_group(g: pd.DataFrame, block: int = 2048) -> pd.DataFrame:
        g = g.sort_values("vec_id")
        ids = g["vec_id"].to_numpy(np.int64)
        m = ids.size
        if m == 1:
            return pd.DataFrame({"vec_id": ids,
                                 "cluster_id": g["cluster_id"].to_numpy(np.int64),
                                 "e": g["e"].to_numpy(),
                                 "best_sim": np.full(1, -2.0),
                                 "best_id": np.full(1, -1, np.int64)})
        bn = np.stack(g["e"].to_numpy())
        best_sim = np.empty(m)
        best_id = np.empty(m, np.int64)
        for lo in range(0, m, block):
            hi = min(lo + block, m)
            sims = bn[lo:hi] @ bn.T
            sims[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf
            # ids ascend, argmax returns the FIRST max → min-id tie-break
            nnx = sims.argmax(axis=1)
            best_sim[lo:hi] = sims[np.arange(hi - lo), nnx]
            best_id[lo:hi] = ids[nnx]
        return pd.DataFrame({"vec_id": ids,
                             "cluster_id": g["cluster_id"].to_numpy(np.int64),
                             "e": g["e"].to_numpy(),
                             "best_sim": best_sim, "best_id": best_id})

    phase3 = (assigned.groupby("cluster_id")
              .map_groups(nn_group, batch_format="pandas")
              .materialize())

    rref = ray.put(radii)

    # ---- phase 4: emit member rows + pruned probe rows + final rows -----
    def emit(b: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rref)
        cfl = ray.get(cref)[1]
        n = len(b)
        bn = np.stack(b["e"].to_numpy())
        own = b["cluster_id"].to_numpy(np.int64)
        vid = b["vec_id"].to_numpy(np.int64)
        bs = b["best_sim"].to_numpy()
        bi = b["best_id"].to_numpy(np.int64)
        ang = np.arccos(np.clip(bn @ cfl.T, -1.0, 1.0))       # (n, K)
        bound = np.cos(np.maximum(ang - (r + NN_ANGLE_SLACK)[None, :], 0.0))
        bound[:, r < 0] = -np.inf                              # empty
        bound[np.arange(n), own] = -np.inf                     # done in ph.3
        probe = bound >= (bs - 1e-9)[:, None]
        pi, pj = np.nonzero(probe)
        has_probe = probe.any(axis=1)
        fsel = ~has_probe
        frames = [
            # member rows (role 0): the probe targets' comparison set
            pd.DataFrame({"key": own, "role": 0, "vec_id": vid,
                          "e": b["e"].to_numpy(),
                          "sim": np.zeros(n), "nn_id": np.zeros(n, np.int64)}),
            # probe rows (role 1) carry the current best as the floor
            pd.DataFrame({"key": pj.astype(np.int64), "role": 1,
                          "vec_id": vid[pi], "e": b["e"].to_numpy()[pi],
                          "sim": bs[pi], "nn_id": bi[pi]}),
            # no-probe vecs are FINAL (role 2, key -1): straight to merge
            pd.DataFrame({"key": np.full(int(fsel.sum()), -1, np.int64),
                          "role": 2, "vec_id": vid[fsel],
                          "e": [None] * int(fsel.sum()),
                          "sim": bs[fsel], "nn_id": bi[fsel]}),
        ]
        return pd.concat(frames, ignore_index=True)

    emitted = (phase3.map_batches(emit, batch_format="pandas",
                                  batch_size=8192).materialize())
    finals = emitted.filter(expr="role == 2").select_columns(
        ["vec_id", "sim", "nn_id"])

    # ---- phase 5: probes vs members inside their target cluster ---------
    def probe_group(g: pd.DataFrame, block: int = 2048) -> pd.DataFrame:
        pr = g[g["role"] == 1]
        if pr.empty:
            return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                 "sim": pd.Series([], dtype="float64"),
                                 "nn_id": pd.Series([], dtype="int64")})
        mem = g[g["role"] == 0]
        mids = mem["vec_id"].to_numpy(np.int64)
        order = np.argsort(mids)
        mids = mids[order]
        mmat = np.stack(mem["e"].to_numpy())[order]
        pids = pr["vec_id"].to_numpy(np.int64)
        pmat = np.stack(pr["e"].to_numpy())
        out_sim = pr["sim"].to_numpy().copy()
        out_id = pr["nn_id"].to_numpy(np.int64).copy()
        for lo in range(0, pids.size, block):
            hi = min(lo + block, pids.size)
            sims = pmat[lo:hi] @ mmat.T   # probes are never members here
            nnx = sims.argmax(axis=1)
            s = sims[np.arange(hi - lo), nnx]
            i = mids[nnx]
            cs, ci = out_sim[lo:hi], out_id[lo:hi]
            upd = (s > cs) | ((s == cs) & (i < ci))
            cs[upd] = s[upd]
            ci[upd] = i[upd]
            out_sim[lo:hi], out_id[lo:hi] = cs, ci
        return pd.DataFrame({"vec_id": pids, "sim": out_sim, "nn_id": out_id})

    probed = (emitted.filter(expr="role <= 1")
              .groupby("key")
              .map_groups(probe_group, batch_format="pandas"))

    cand = probed.union(finals).materialize()

    # ---- final per-vec lex-max merge (size-dispatched) -------------------
    def lex_first(t: pa.Table) -> pa.Table:
        vid = np.asarray(t["vec_id"], np.int64)
        sim = np.asarray(t["sim"], np.float64)
        nid = np.asarray(t["nn_id"], np.int64)
        order = np.lexsort((nid, -sim, vid))
        v, i = vid[order], nid[order]
        first = np.ones(v.size, bool)
        first[1:] = v[1:] != v[:-1]
        return pa.table({"vec_id": v[first], "nn_vec_id": i[first]})

    # candidate rows per vec are few (1 + probes), so the scale arm's
    # groups stay tiny
    out = merge_by_key(cand, "vec_id", lex_first, cand.size_bytes())
    return out.sort_values("vec_id").reset_index(drop=True)


# ------------------------------------------ product quantization (ADC)

PQ_M = 4                  # subspaces
PQ_K = 16                 # centroids per subspace codebook
PQ_SUB = KM_DIM // PQ_M   # dims per subspace
PQ_TOPK = 10


def _pq_codebook(sf_dir: str) -> np.ndarray:
    """Deterministic PQ codebook (M, K, SUB) int64: the quantized
    subvectors of the PQ_K smallest DATABASE vec_ids.  Init-only by
    design — the Lloyd codebook optimizer is proven separately by
    q_kmeans_embed's 2-round CTE gate; this gate pins the PQ ENCODE and
    ADC mechanics (Jégou et al. 2011, "Product Quantization for Nearest
    Neighbor Search") with integer-exact arithmetic."""
    import pyarrow.compute as pc

    tab = (rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"],
                           filter=(pc.field("vec_id") >= N_QUERIES)
                                  & (pc.field("vec_id") < N_QUERIES + PQ_K))
           .to_pandas().sort_values("vec_id"))
    mat = np.stack(tab["embedding"].to_numpy())
    return _sq_quantize(mat).reshape(PQ_K, PQ_M, PQ_SUB).transpose(1, 0, 2)


def q_pq_adc_topk(sf_dir: str) -> pd.DataFrame:
    """PQ asymmetric-distance top-{PQ_TOPK} per query: database vectors
    compress to {PQ_M} sub-codes (argmin over each subspace codebook,
    first-min tie-break), queries keep full precision and score candidates
    through a per-query (M x K) lookup table — the classic memory/compute
    trade of billion-scale ANN ({PQ_M} bytes/vector here vs 256 raw).

    Scale shape: codebook broadcasts (ray.put once), encode+score fuse
    into ONE streaming map_batches pass emitting per-block partial top-k —
    no shuffle, no index materialization; the driver merge is
    (blocks x K x queries) rows.  SQL-exact: quantized int64 arithmetic
    end to end, ADC distances compared exactly."""
    cb = _pq_codebook(sf_dir)
    qids, qmat = load_queries(sf_dir)
    qs = _sq_quantize(qmat).reshape(len(qids), PQ_M, PQ_SUB)
    # lut[qi, m, c] = integer squared L2 of query subvector vs centroid
    lut = ((qs[:, :, None, :] - cb[None, :, :, :]) ** 2).sum(-1)
    bref = ray.put((cb, lut))

    def partial(b: pa.Table) -> pd.DataFrame:
        cbk, qlut = ray.get(bref)
        ids, mat = _embedding_matrix(b)
        keep = ids >= N_QUERIES
        ids, mat = ids[keep], mat[keep]
        if ids.size == 0:
            return pd.DataFrame({"q_id": pd.Series([], dtype="int64"),
                                 "vec_id": pd.Series([], dtype="int64"),
                                 "adc_d2": pd.Series([], dtype="int64")})
        v = _sq_quantize(mat).reshape(ids.size, PQ_M, PQ_SUB)
        # encode: (n, M, K) subspace distances -> first-min code per (n, m)
        d = ((v[:, :, None, :] - cbk[None, :, :, :]) ** 2).sum(-1)
        codes = d.argmin(axis=2)
        k = min(PQ_TOPK, ids.size)
        frames = []
        for qi in range(qlut.shape[0]):
            adc = qlut[qi][np.arange(PQ_M)[:, None], codes.T].sum(axis=0)
            idx = np.lexsort((ids, adc))[:k]
            frames.append(pd.DataFrame({"q_id": qi, "vec_id": ids[idx],
                                        "adc_d2": adc[idx]}))
        return pd.concat(frames, ignore_index=True)

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cand = ds.map_batches(partial, batch_format="pyarrow", batch_size=8192).to_pandas()
    cand = cand.sort_values(["q_id", "adc_d2", "vec_id"])
    cand = cand.groupby("q_id").head(PQ_TOPK)
    cand["rank"] = (cand.groupby("q_id").cumcount() + 1).astype("int64")
    out = cand[["q_id", "vec_id", "rank", "adc_d2"]].reset_index(drop=True)
    return out.astype({"q_id": "int64", "vec_id": "int64", "adc_d2": "int64"})


def pq_adc_oracle_sql() -> str:
    subd_parts = []
    for m in range(PQ_M):
        lo, hi = m * PQ_SUB + 1, (m + 1) * PQ_SUB
        subd_parts.append(f"""
  SELECT b.vec_id, {m} AS m, cb.c,
         list_sum(list_transform(generate_series({lo}, {hi}),
             i -> (b.qe[i] - cb.ce[i]) * (b.qe[i] - cb.ce[i]))) AS d
  FROM base b CROSS JOIN cb""")
    subd = " UNION ALL ".join(subd_parts)
    return f"""
WITH base AS (
  SELECT vec_id,
         list_transform(embedding,
             x -> CAST(floor(CAST(x AS DOUBLE) * {SQ_SCALE} + 0.5) AS BIGINT)) AS qe
  FROM embeddings
), cb AS (
  SELECT CAST(ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS c, qe AS ce
  FROM (SELECT vec_id, qe FROM base
        WHERE vec_id >= {N_QUERIES} ORDER BY vec_id LIMIT {PQ_K})
), subd AS ({subd}
), codes AS (
  SELECT vec_id, m, c FROM (
    SELECT vec_id, m, c,
           ROW_NUMBER() OVER (PARTITION BY vec_id, m ORDER BY d, c) AS rn
    FROM subd WHERE vec_id >= {N_QUERIES}) WHERE rn = 1
), adc AS (
  SELECT q.vec_id AS q_id, co.vec_id AS vec_id, SUM(q.d) AS adc_d2
  FROM codes co JOIN subd q ON q.m = co.m AND q.c = co.c
  WHERE q.vec_id < {N_QUERIES}
  GROUP BY 1, 2
)
SELECT q_id, vec_id, CAST(rank AS BIGINT) AS rank,
       CAST(adc_d2 AS BIGINT) AS adc_d2
FROM (SELECT q_id, vec_id, adc_d2,
             ROW_NUMBER() OVER (PARTITION BY q_id
                                ORDER BY adc_d2, vec_id) AS rank
      FROM adc)
WHERE rank <= {PQ_TOPK}
ORDER BY q_id, rank
"""


Q_PQ_ADC_SQL = pq_adc_oracle_sql()


# ----------------------------------------------- IVF-PQ fused search

def q_ivfpq_search(sf_dir: str) -> pd.DataFrame:
    """The billion-scale ANN combo (Jégou et al. 2011 §V: IVFADC): the
    inverted-file index stores {PQ_M}-byte PQ CODES instead of vectors —
    coarse quantizer routes each database vector to a list, search probes
    {SQ_PROBE} lists per query and scores ONLY those lists' codes through
    the per-query ADC lookup table.

    Scale shape: the index is list-partitioned parquet holding codes
    (built once per corpus, cached); search opens only the probed lists'
    partition directories (path pruning — untouched lists never leave
    storage), the codebook+LUT broadcast once, scoring is one streaming
    map_batches pass with per-block partial top-k.  At 10⁹ vectors the
    probed fraction is {SQ_PROBE}/{SQ_K} of 4-byte codes, not 256-byte
    vectors.  SQL-exact: integer coarse distances, integer ADC, both
    tie-broken (d², id)."""
    cent = _sq_centroids()
    cb = _pq_codebook(sf_dir)
    bref = ray.put((cent, cb))

    def encode_rows(b: pa.Table) -> pa.Table:
        cnt, cbk = ray.get(bref)
        ids, mat = _embedding_matrix(b)
        qv = _sq_quantize(mat)
        lid = _sq_assign(qv, cnt)
        v = qv.reshape(ids.size, PQ_M, PQ_SUB)
        d = ((v[:, :, None, :] - cbk[None, :, :, :]) ** 2).sum(-1)
        codes = d.argmin(axis=2).astype(np.int64)  # first-min tie-break
        return pa.table({"vec_id": pa.array(ids),
                         "lid": pa.array(lid),
                         "codes": pa.array(list(codes),
                                           pa.list_(pa.int64())),
                         "list_id": pa.array(lid)})

    index_dir = _build_list_index(sf_dir, f"ivfpq1k{SQ_K}m{PQ_M}",
                                  encode_rows)

    # probe lists per query (identical rule to q_ivf_sq_search)
    qids, qmat = load_queries(sf_dir)
    qv = _sq_quantize(qmat)
    d2 = ((qv**2).sum(1)[:, None] - 2 * qv @ cent.T + (cent**2).sum(1)[None, :])
    order = np.argsort(d2, axis=1, kind="stable")[:, :SQ_PROBE]
    probe_sets = [set(map(int, order[i])) for i in range(len(qids))]
    union_lists = sorted(set().union(*probe_sets))
    qs = qv.reshape(len(qids), PQ_M, PQ_SUB)
    lut = ((qs[:, :, None, :] - cb[None, :, :, :]) ** 2).sum(-1)
    pref = ray.put((lut, probe_sets))

    probe_paths = _probe_parquet_paths(index_dir, union_lists)
    empty = pd.DataFrame({"q_id": pd.Series([], dtype="int64"),
                          "vec_id": pd.Series([], dtype="int64"),
                          "rank": pd.Series([], dtype="int64"),
                          "adc_d2": pd.Series([], dtype="int64")})
    if not probe_paths:
        return empty
    ds = rd.read_parquet(probe_paths, columns=["vec_id", "codes", "lid"])

    def partial(b: pa.Table) -> pd.DataFrame:
        qlut, psets = ray.get(pref)
        ids = np.asarray(b["vec_id"], dtype=np.int64)
        lists = np.asarray(b["lid"], dtype=np.int64)
        codes = np.asarray(b["codes"].combine_chunks().flatten(),
                           dtype=np.int64).reshape(len(ids), -1) \
            if len(ids) else np.empty((0, PQ_M), np.int64)
        keep = ids >= N_QUERIES
        ids, codes, lists = ids[keep], codes[keep], lists[keep]
        if ids.size == 0:
            return pd.DataFrame({"q_id": pd.Series([], dtype="int64"),
                                 "vec_id": pd.Series([], dtype="int64"),
                                 "adc_d2": pd.Series([], dtype="int64")})
        frames = []
        for qi in range(qlut.shape[0]):
            in_probe = np.isin(lists, list(psets[qi]))
            if not in_probe.any():
                continue
            cid = ids[in_probe]
            adc = qlut[qi][np.arange(PQ_M)[:, None],
                           codes[in_probe].T].sum(axis=0)
            k = min(PQ_TOPK, cid.size)
            idx = np.lexsort((cid, adc))[:k]
            frames.append(pd.DataFrame({"q_id": qi, "vec_id": cid[idx],
                                        "adc_d2": adc[idx]}))
        if not frames:
            return pd.DataFrame({"q_id": pd.Series([], dtype="int64"),
                                 "vec_id": pd.Series([], dtype="int64"),
                                 "adc_d2": pd.Series([], dtype="int64")})
        return pd.concat(frames, ignore_index=True)

    cand = ds.map_batches(partial, batch_format="pyarrow",
                          batch_size=8192).to_pandas()
    if cand.empty:
        return empty
    cand = cand.sort_values(["q_id", "adc_d2", "vec_id"])
    cand = cand.groupby("q_id").head(PQ_TOPK)
    cand["rank"] = (cand.groupby("q_id").cumcount() + 1).astype("int64")
    out = cand[["q_id", "vec_id", "rank", "adc_d2"]].reset_index(drop=True)
    return out.astype({"q_id": "int64", "vec_id": "int64", "adc_d2": "int64"})


def ivfpq_oracle_sql() -> str:
    """IVF coarse routing (VALUES-literal centroids) composed with the PQ
    encode/ADC CTEs — candidates are probe-list members only."""
    subd_parts = []
    for m in range(PQ_M):
        lo, hi = m * PQ_SUB + 1, (m + 1) * PQ_SUB
        subd_parts.append(f"""
  SELECT b.vec_id, {m} AS m, cbk.c,
         list_sum(list_transform(generate_series({lo}, {hi}),
             i -> (b.qe[i] - cbk.ce[i]) * (b.qe[i] - cbk.ce[i]))) AS d
  FROM base b CROSS JOIN cbk""")
    subd = " UNION ALL ".join(subd_parts)
    return f"""
WITH base AS (
  SELECT vec_id,
         list_transform(embedding,
             x -> CAST(floor(CAST(x AS DOUBLE) * {SQ_SCALE} + 0.5) AS BIGINT)) AS qe
  FROM embeddings
), c AS (
  SELECT * FROM (VALUES {_sq_centroid_values_sql()}) AS t(list_id, ce)
), dcoarse AS (
  SELECT vec_id, list_id,
         list_sum(list_transform(generate_series(1, 64),
                  i -> (qe[i] - ce[i]) * (qe[i] - ce[i]))) AS d2
  FROM base CROSS JOIN c
), assign AS (
  SELECT vec_id, list_id FROM (
    SELECT vec_id, list_id,
           ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d2, list_id) AS rn
    FROM dcoarse) WHERE rn = 1
), probes AS (
  SELECT vec_id AS q_id, list_id FROM (
    SELECT vec_id, list_id,
           ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d2, list_id) AS rn
    FROM dcoarse WHERE vec_id < {N_QUERIES}) WHERE rn <= {SQ_PROBE}
), cbk AS (
  SELECT CAST(ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS c, qe AS ce
  FROM (SELECT vec_id, qe FROM base
        WHERE vec_id >= {N_QUERIES} ORDER BY vec_id LIMIT {PQ_K})
), subd AS ({subd}
), codes AS (
  SELECT vec_id, m, c FROM (
    SELECT vec_id, m, c,
           ROW_NUMBER() OVER (PARTITION BY vec_id, m ORDER BY d, c) AS rn
    FROM subd WHERE vec_id >= {N_QUERIES}) WHERE rn = 1
), cand AS (
  SELECT p.q_id, a.vec_id FROM probes p JOIN assign a USING (list_id)
  WHERE a.vec_id >= {N_QUERIES}
), adc AS (
  SELECT cd.q_id, cd.vec_id, SUM(q.d) AS adc_d2
  FROM cand cd
  JOIN codes co ON co.vec_id = cd.vec_id
  JOIN subd q ON q.vec_id = cd.q_id AND q.m = co.m AND q.c = co.c
  GROUP BY 1, 2
)
SELECT q_id, vec_id, CAST(rank AS BIGINT) AS rank,
       CAST(adc_d2 AS BIGINT) AS adc_d2
FROM (SELECT q_id, vec_id, adc_d2,
             ROW_NUMBER() OVER (PARTITION BY q_id
                                ORDER BY adc_d2, vec_id) AS rank
      FROM adc)
WHERE rank <= {PQ_TOPK}
ORDER BY q_id, rank
"""


Q_IVFPQ_SQL = ivfpq_oracle_sql()


# ------------------------------------- embedding-based decontamination

N_EVAL = 16       # eval set = embeddings with vec_id < N_EVAL
DECONTAM_TAU = 0.35
# measured min |cos - TAU| across eval×train pairs: 1.5e-4 (sf0.001),
# 5.4e-4 (sf0.01), 4.1e-5 (sf0.1) — ≥4e-5, ~11 orders above the fp
# summation-order noise between numpy matmul and DuckDB
# list_cosine_similarity on 64-dim doubles (same discipline as the LSH
# sign margin, lsh_bucket_sizes_oracle_sql).


def q_embedding_decontam(sf_dir: str) -> pd.DataFrame:
    """Embedding-space eval-set decontamination: flag every train vector
    whose cosine similarity to ANY eval vector exceeds {DECONTAM_TAU} —
    the semantic complement of textops.q_decontaminate's exact n-gram
    overlap (near-paraphrases of benchmark items that share no 4-gram).

    Scale shape: the eval side is small BY NATURE → broadcast the
    normalized eval matrix once (ray.put), stream the corpus through one
    vectorized map_batches matmul, no shuffle at all; output is one narrow
    row per train vector.  Same shape as _brute_force_topk but cheaper
    (hit counting, no top-k state)."""
    import pyarrow.compute as pc

    from .sources import read_table_filtered

    t = read_table_filtered(sf_dir, "embeddings", ["vec_id", "embedding"],
                            pc.field("vec_id") < N_EVAL)
    _, emat = _embedding_matrix(t)
    # same zero-norm guard as the streaming side: a zero eval vector must
    # yield 0-similarity (no hits), not a NaN column that swallows them
    enorm = np.linalg.norm(emat, axis=1, keepdims=True)
    emat = emat / np.where(enorm == 0, 1.0, enorm)
    eref = ray.put(emat)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def hits(b: pa.Table) -> pd.DataFrame:
        em = ray.get(eref)
        ids, mat = _embedding_matrix(b)
        keep = ids >= N_EVAL
        ids, mat = ids[keep], mat[keep]
        if ids.size == 0:
            return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                 "n_hits": pd.Series([], dtype="int64"),
                                 "contaminated": pd.Series([], dtype="int32")})
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        sims = (mat / np.where(norms == 0, 1.0, norms)) @ em.T
        over = sims > DECONTAM_TAU
        return pd.DataFrame({"vec_id": ids,
                             "n_hits": over.sum(axis=1).astype(np.int64),
                             "contaminated": over.any(axis=1).astype(np.int32)})

    out = ds.map_batches(hits, batch_format="pyarrow", batch_size=8192).to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


Q_EMBEDDING_DECONTAM_SQL = f"""
WITH base AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
), ev AS (
  SELECT e AS ee FROM base WHERE vec_id < {N_EVAL}
), tr AS (
  SELECT vec_id, e FROM base WHERE vec_id >= {N_EVAL}
)
SELECT t.vec_id,
       CAST(SUM(CASE WHEN list_cosine_similarity(t.e, v.ee) > {DECONTAM_TAU}
                THEN 1 ELSE 0 END) AS BIGINT) AS n_hits,
       CAST(MAX(CASE WHEN list_cosine_similarity(t.e, v.ee) > {DECONTAM_TAU}
                THEN 1 ELSE 0 END) AS INT) AS contaminated
FROM tr t CROSS JOIN ev v
GROUP BY t.vec_id ORDER BY t.vec_id
"""


# ------------------------------------------------- hard-negative mining

def q_hard_negatives(sf_dir: str) -> pd.DataFrame:
    """Hard-negative mining for retrieval training: per anchor (the query
    vectors), the top-{TOP_K} most cosine-similar candidates whose LABEL
    DIFFERS from the anchor's — the near-misses a contrastive loss learns
    most from.

    Scale shape: identical to _brute_force_topk (broadcast anchor matrix
    + labels, per-batch matmul, per-block partial top-k, driver merges
    O(anchors × k × blocks) rows) with a vectorized label-mask before the
    partial top-k — no extra shuffle over the similarity path."""
    import pyarrow.compute as pc

    from .sources import read_table_filtered

    qt = read_table_filtered(sf_dir, "embeddings",
                             ["vec_id", "embedding", "label"],
                             pc.field("vec_id") < N_QUERIES)
    order = np.argsort(np.asarray(qt["vec_id"], dtype=np.int64))
    _, qmat = _embedding_matrix(qt)
    qnorm = np.linalg.norm(qmat[order], axis=1, keepdims=True)
    qmat = qmat[order] / np.where(qnorm == 0, 1.0, qnorm)
    qlabels = np.asarray(qt["label"], dtype=np.int64)[order]
    qref = ray.put((qmat, qlabels))
    ds = read_table(sf_dir, "embeddings",
                    columns=["vec_id", "embedding", "label"])

    def partial(b: pa.Table) -> pd.DataFrame:
        qm, ql = ray.get(qref)
        ids, mat = _embedding_matrix(b)
        labels = np.asarray(b["label"], dtype=np.int64)
        keep = ids >= N_QUERIES
        ids, mat, labels = ids[keep], mat[keep], labels[keep]
        if ids.size == 0:
            return pd.DataFrame(_EMPTY_PARTIAL)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        mat = mat / np.where(norms == 0, 1.0, norms)
        sims = mat @ qm.T  # (n, nq)
        frames = []
        for qi in range(qm.shape[0]):
            neg = labels != ql[qi]          # hard-NEGATIVE: different label
            if not neg.any():
                continue
            cand_ids, cand_sims = ids[neg], sims[neg, qi]
            k = min(TOP_K, cand_ids.size)
            idx = np.lexsort((cand_ids, -cand_sims))[:k]
            frames.append(pd.DataFrame({"q_id": qi, "vec_id": cand_ids[idx],
                                        "sim": cand_sims[idx]}))
        return pd.concat(frames, ignore_index=True) if frames \
            else pd.DataFrame(_EMPTY_PARTIAL)

    cand = ds.map_batches(partial, batch_format="pyarrow", batch_size=8192).to_pandas()
    cand = cand.sort_values(["q_id", "sim", "vec_id"], ascending=[True, False, True])
    cand = cand.groupby("q_id").head(TOP_K)
    cand["rank"] = cand.groupby("q_id").cumcount() + 1
    return cand[["q_id", "vec_id", "rank"]].reset_index(drop=True)


Q_HARD_NEGATIVES_SQL = f"""
WITH base AS (
  SELECT vec_id, label, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
), queries AS (
  SELECT vec_id AS q_id, label AS ql, e AS qe FROM base WHERE vec_id < {N_QUERIES}
), cands AS (
  SELECT vec_id, label, e FROM base WHERE vec_id >= {N_QUERIES}
)
SELECT q_id, vec_id, rank FROM (
  SELECT q.q_id, c.vec_id,
         ROW_NUMBER() OVER (PARTITION BY q.q_id
                            ORDER BY list_cosine_similarity(c.e, q.qe) DESC,
                                     c.vec_id) AS rank
  FROM cands c JOIN queries q ON c.label <> q.ql)
WHERE rank <= {TOP_K}
"""
