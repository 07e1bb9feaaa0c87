"""Spatial operators: cell assignment, point-in-polygon joins, kNN, zonal.

Two input families:

- **SQL-checkable path** (driver correctness gate): points derived
  deterministically from the ``events`` table with integer arithmetic
  (exact in IEEE doubles, reproducible in DuckDB — see ``POINT_SQL``), zone
  rectangles from closed-form integer formulas inlined as a VALUES CTE.
- **engine path**: WKT text-span geometries and the synthetic ``zones``
  table (convex polygons), joined to tiles/points via cell ids.

The reference's vector surface is the ZonalAttributesTable envelope-intersects
lookup (functions/utils.py:206-244); here the join is explicit: encode both
sides to cells, shuffle on cell_id (or broadcast the small side).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Sum

from . import grid
from .sources import read_table, table_rows
from .stages import join
from .stages.join import hash_join, merge_by_key

CELL_LEVEL = 6

# ------------------------------------------------------------ derived points

# x = (event_id * 7919 mod 36000)/100 ∈ [0,360); y = (event_id*104729 mod 18000)/100 − 90
POINT_SQL = """
  SELECT event_id, value,
         CAST((event_id * 7919) % 36000 AS DOUBLE) / 100.0 AS x,
         CAST((event_id * 104729) % 18000 AS DOUBLE) / 100.0 - 90.0 AS y
  FROM events
"""


def derive_points(batch: pa.Table) -> pa.Table:
    eid = np.asarray(batch["event_id"], dtype=np.int64)
    x = ((eid * 7919) % 36000).astype(np.float64) / 100.0
    y = ((eid * 104729) % 18000).astype(np.float64) / 100.0 - 90.0
    out = {"event_id": pa.array(eid, pa.int64()), "x": pa.array(x), "y": pa.array(y)}
    if "value" in batch.column_names:
        out["value"] = batch["value"]
    return pa.table(out)


def event_points(sf_dir: str, with_value: bool = True) -> rd.Dataset:
    cols = ["event_id", "value"] if with_value else ["event_id"]
    return read_table(sf_dir, "events", columns=cols).map_batches(
        derive_points, batch_format="pyarrow", zero_copy_batch=True)


# ----------------------------------------------------------- cell assignment

def q_cell_assign(sf_dir: str) -> pd.DataFrame:
    """Every event-point → hierarchical cell id (level 6). Exact-match gate."""
    pts = event_points(sf_dir, with_value=False)

    def enc(b: pa.Table) -> pa.Table:
        cells = grid.cell_encode(np.asarray(b["x"]), np.asarray(b["y"]), CELL_LEVEL)
        return b.append_column("cell_id", pa.array(cells, pa.int64()))

    return pts.map_batches(enc, batch_format="pyarrow").to_pandas()


Q_CELL_ASSIGN_SQL = f"""
WITH pts AS ({POINT_SQL})
SELECT event_id, x, y,
       CAST({CELL_LEVEL} AS BIGINT) * 4503599627370496
       + CAST(floor(x / 360.0 * 64.0) AS BIGINT) * 67108864
       + LEAST(CAST(floor((y + 90.0) / 180.0 * 64.0) AS BIGINT), 63) AS cell_id
FROM pts
"""

# ------------------------------------------------------ rectangle zone join

N_RECT_ZONES = 8


def rect_zones() -> pd.DataFrame:
    """Deterministic rectangle zones (closed-form; duplicated in SQL) as a
    zone_index frame: zone_id, is_rect, bbox and CCW vertices."""
    z = np.arange(N_RECT_ZONES, dtype=np.int64)
    x0 = (z * 41 % 300).astype(np.float64)
    y0 = (z * 23 % 120).astype(np.float64) - 85.0
    x1, y1 = x0 + 60.0, y0 + 45.0
    return pd.DataFrame({"zone_id": z, "is_rect": True,
                         "bbox": list(np.c_[x0, y0, x1, y1]),
                         "vertices": list(np.c_[x0, y0, x1, y0, x1, y1, x0, y1])})


RECT_ZONES_SQL = f"""
  SELECT z AS zone_id,
         CAST((z * 41) % 300 AS DOUBLE) AS xmin,
         CAST((z * 41) % 300 AS DOUBLE) + 60.0 AS xmax,
         CAST((z * 23) % 120 AS DOUBLE) - 85.0 AS ymin,
         CAST((z * 23) % 120 AS DOUBLE) - 85.0 + 45.0 AS ymax
  FROM (SELECT UNNEST(range({N_RECT_ZONES})) AS z)
"""


def events_in_zones(pts: rd.Dataset, zones: pd.DataFrame) -> rd.Dataset:
    """Event points -> (event_id, zone_id[, value]) for every zone that
    contains them: the zone index is built on the driver and broadcast
    once; each batch attaches it with zone_hits."""
    iref = ray.put(zone_index(zones))

    def attach(b: pa.Table) -> pa.Table:
        pt, zid = zone_hits(ray.get(iref), np.asarray(b["x"]), np.asarray(b["y"]))
        take = pa.array(pt)
        out = {"event_id": b["event_id"].take(take),
               "zone_id": pa.array(zid.astype(np.int64))}
        if "value" in b.column_names:
            out["value"] = b["value"].take(take)
        return pa.table(out)

    return pts.map_batches(attach, batch_format="pyarrow")


def q_pip_rect(sf_dir: str) -> pd.DataFrame:
    """Point-in-rectangle join row set (broadcast zone index, map-side
    containment).  Exact join-output gate: every (event, zone) pair."""
    return events_in_zones(event_points(sf_dir, with_value=False),
                           rect_zones()).to_pandas()


Q_PIP_RECT_SQL = f"""
WITH pts AS ({POINT_SQL}), zones AS ({RECT_ZONES_SQL})
SELECT p.event_id, z.zone_id
FROM pts p JOIN zones z
  ON p.x >= z.xmin AND p.x < z.xmax AND p.y >= z.ymin AND p.y < z.ymax
"""


def q_zonal_value(sf_dir: str) -> pd.DataFrame:
    """Zonal aggregate: per-zone count and value sum of contained points —
    the raster-to-vector zonal-extraction shape over the point cloud."""
    joined = events_in_zones(event_points(sf_dir, with_value=True),
                             rect_zones())

    def partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        return df.groupby("zone_id", sort=False).agg(
            n_points=("value", "size"), sum_value=("value", "sum")).reset_index()

    out = (joined.map_batches(partial, batch_format="pyarrow", batch_size=65536)
           .groupby("zone_id")
           .aggregate(Sum("n_points", alias_name="n_points"),
                      Sum("sum_value", alias_name="sum_value"))
           .to_pandas())
    out["sum_value"] = out["sum_value"].astype(float).round(4)
    return out


Q_ZONAL_VALUE_SQL = f"""
WITH pts AS ({POINT_SQL}), zones AS ({RECT_ZONES_SQL})
SELECT z.zone_id, COUNT(*) AS n_points, ROUND(SUM(p.value), 4) AS sum_value
FROM pts p JOIN zones z
  ON p.x >= z.xmin AND p.x < z.xmax AND p.y >= z.ymin AND p.y < z.ymax
GROUP BY z.zone_id
"""

# ----------------------------------------------------------------- kNN ----

KNN_QUERIES = [(0, 45.0, 10.0), (1, 180.0, -45.0), (2, 300.0, 60.0), (3, 90.0, -10.0)]
KNN_K = 5


def q_knn(sf_dir: str) -> pd.DataFrame:
    """k nearest event-points to each query point (planar squared distance,
    tie-break event_id).  Per-batch partial top-k inside map_batches →
    tiny final reduce: no global sort, no full shuffle."""
    qarr = np.asarray([[q[1], q[2]] for q in KNN_QUERIES])
    qref = ray.put(qarr)
    pts = event_points(sf_dir, with_value=False)

    def partial_topk(b: pa.Table) -> pd.DataFrame:
        qs = ray.get(qref)
        x = np.asarray(b["x"]); y = np.asarray(b["y"])
        eid = np.asarray(b["event_id"], dtype=np.int64)
        frames = []
        for qi in range(qs.shape[0]):
            d2 = (x - qs[qi, 0]) ** 2 + (y - qs[qi, 1]) ** 2
            k = min(KNN_K, d2.size)
            # lexsort, not argpartition: distance ties at the k-boundary must
            # honor the oracle's (d2, event_id) ROW_NUMBER ordering (points
            # sit on a 0.01° lattice, so exact d2 ties are realistic)
            idx = np.lexsort((eid, d2))[:k]
            frames.append(pd.DataFrame({"q_id": qi, "event_id": eid[idx], "d2": d2[idx]}))
        return pd.concat(frames, ignore_index=True)

    partials = pts.map_batches(partial_topk, batch_format="pyarrow", batch_size=65536)
    cand = partials.to_pandas()  # ≤ k × n_queries × n_batches rows — tiny
    cand = cand.sort_values(["q_id", "d2", "event_id"]).groupby("q_id").head(KNN_K)
    cand["rank"] = cand.groupby("q_id").cumcount() + 1
    return cand[["q_id", "event_id", "rank"]].reset_index(drop=True)


def _knn_sql() -> str:
    qvals = ", ".join(f"({q}, {x}, {y})" for q, x, y in KNN_QUERIES)
    return f"""
WITH pts AS ({POINT_SQL}),
     queries(q_id, qx, qy) AS (VALUES {qvals})
SELECT q_id, event_id, rank FROM (
  SELECT q.q_id, p.event_id,
         ROW_NUMBER() OVER (PARTITION BY q.q_id
                            ORDER BY (p.x - q.qx)*(p.x - q.qx) + (p.y - q.qy)*(p.y - q.qy), p.event_id) AS rank
  FROM pts p CROSS JOIN queries q)
WHERE rank <= {KNN_K}
"""


Q_KNN_SQL = _knn_sql()

# ---------------------------------------- nearest-neighbor classification

NN_CLASSIFY_K = 3


def q_nn_classify(sf_dir: str) -> pd.DataFrame:
    """NearestNeighborsClassifier re-expressed over driver tables
    (reference: functions/KNearestNeighborsClassifier.py neighbor mode —
    each sample maps to its k nearest training rows' ids/labels): landmarks
    derived from ``supplier`` on the same integer lattice as POINT_SQL,
    label = s_nationkey; every event point gets its 3 nearest landmarks.

    Scale shape: the landmark side is the classic small broadcast side
    (suppliers are ~1e-5 of events at any sf) — ``ray.put`` once, read per
    task; events stream through map_batches, no shuffle.  Stable argsort
    breaks exact d2 ties (both sides sit on a 0.01° lattice) toward the
    smaller s_suppkey, matching the oracle's ROW_NUMBER ordering."""
    lm = (read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
          .to_pandas().sort_values("s_suppkey"))
    sk = lm["s_suppkey"].to_numpy(np.int64)
    lx = ((sk * 104729) % 36000).astype(np.float64) / 100.0
    ly = ((sk * 7919) % 18000).astype(np.float64) / 100.0 - 90.0
    lab = lm["s_nationkey"].to_numpy(np.int64)
    lref = ray.put((sk, lx, ly, lab))
    pts = event_points(sf_dir, with_value=False)

    def nn3(b: pa.Table) -> pa.Table:
        sk, lx, ly, lab = ray.get(lref)
        x = np.asarray(b["x"])[:, None]; y = np.asarray(b["y"])[:, None]
        eid = np.asarray(b["event_id"], dtype=np.int64)
        d2 = (x - lx[None, :]) ** 2 + (y - ly[None, :]) ** 2
        k = min(NN_CLASSIFY_K, d2.shape[1])
        # stable sort + suppkey-ascending landmark order == (d2, s_suppkey)
        idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
        n = eid.size
        return pa.table({
            "event_id": pa.array(np.repeat(eid, k)),
            "rank": pa.array(np.tile(np.arange(1, k + 1, dtype=np.int64), n)),
            "nn_suppkey": pa.array(sk[idx].ravel()),
            "nn_label": pa.array(lab[idx].ravel()),
        })

    out = pts.map_batches(nn3, batch_format="pyarrow", batch_size=8192)
    return (out.to_pandas().sort_values(["event_id", "rank"])
            .reset_index(drop=True))


def q_knn_classify_vote(sf_dir: str) -> pd.DataFrame:
    """kNN CLASSIFICATION (majority vote over the k neighbor labels —
    functions/KNearestNeighborsClassifier.py:81-128's predict mode), over
    the same broadcast landmark side as q_nn_classify: per event point the
    3 nearest suppliers vote; ties go to the SMALLEST label, exactly
    stages/classify.knn_predict's argmax-over-sorted-classes rule and the
    oracle's ORDER BY cnt DESC, label ASC."""
    lm = (read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
          .to_pandas().sort_values("s_suppkey"))
    sk = lm["s_suppkey"].to_numpy(np.int64)
    lx = ((sk * 104729) % 36000).astype(np.float64) / 100.0
    ly = ((sk * 7919) % 18000).astype(np.float64) / 100.0 - 90.0
    lab = lm["s_nationkey"].to_numpy(np.int64)
    lref = ray.put((lx, ly, lab))
    pts = event_points(sf_dir, with_value=False)

    def vote(b: pa.Table) -> pa.Table:
        lx, ly, lab = ray.get(lref)
        x = np.asarray(b["x"])[:, None]; y = np.asarray(b["y"])[:, None]
        eid = np.asarray(b["event_id"], dtype=np.int64)
        d2 = (x - lx[None, :]) ** 2 + (y - ly[None, :]) ** 2
        k = min(NN_CLASSIFY_K, d2.shape[1])
        idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
        labels = lab[idx]                       # (n, k)
        classes = np.unique(lab)
        votes = np.stack([(labels == c).sum(1) for c in classes], axis=1)
        pred = classes[np.argmax(votes, axis=1)]  # first max → smallest label
        return pa.table({"event_id": pa.array(eid),
                         "pred_label": pa.array(pred)})

    out = pts.map_batches(vote, batch_format="pyarrow", batch_size=8192)
    return out.to_pandas().sort_values("event_id").reset_index(drop=True)


Q_KNN_CLASSIFY_VOTE_SQL = f"""
WITH pts AS ({POINT_SQL}),
     lm AS (
       SELECT s_suppkey,
              CAST((s_suppkey * 104729) % 36000 AS DOUBLE) / 100.0 AS lx,
              CAST((s_suppkey * 7919) % 18000 AS DOUBLE) / 100.0 - 90.0 AS ly,
              CAST(s_nationkey AS BIGINT) AS label
       FROM supplier),
     nn AS (
       SELECT event_id, label FROM (
         SELECT p.event_id, l.label,
                ROW_NUMBER() OVER (PARTITION BY p.event_id
                   ORDER BY (p.x - l.lx)*(p.x - l.lx) + (p.y - l.ly)*(p.y - l.ly),
                            l.s_suppkey) AS rank
         FROM pts p CROSS JOIN lm l)
       WHERE rank <= {NN_CLASSIFY_K}),
     cnt AS (
       SELECT event_id, label, COUNT(*) AS c FROM nn GROUP BY event_id, label)
SELECT event_id, CAST(label AS BIGINT) AS pred_label FROM (
  SELECT event_id, label,
         ROW_NUMBER() OVER (PARTITION BY event_id
                            ORDER BY c DESC, label ASC) AS rk
  FROM cnt)
WHERE rk = 1
ORDER BY event_id
"""


Q_NN_CLASSIFY_SQL = f"""
WITH pts AS ({POINT_SQL}),
     lm AS (
       SELECT s_suppkey,
              CAST((s_suppkey * 104729) % 36000 AS DOUBLE) / 100.0 AS lx,
              CAST((s_suppkey * 7919) % 18000 AS DOUBLE) / 100.0 - 90.0 AS ly,
              CAST(s_nationkey AS BIGINT) AS label
       FROM supplier)
SELECT event_id, rank, nn_suppkey, nn_label FROM (
  SELECT p.event_id, CAST(l.s_suppkey AS BIGINT) AS nn_suppkey, l.label AS nn_label,
         ROW_NUMBER() OVER (PARTITION BY p.event_id
            ORDER BY (p.x - l.lx)*(p.x - l.lx) + (p.y - l.ly)*(p.y - l.ly),
                     l.s_suppkey) AS rank
  FROM pts p CROSS JOIN lm l)
WHERE rank <= {NN_CLASSIFY_K}
ORDER BY event_id, rank
"""

# ------------------------------------------- convex polygon PIP (engine path)

def point_in_convex_batch(x: np.ndarray, y: np.ndarray, verts: np.ndarray,
                          eps: float = 0.0) -> np.ndarray:
    """Vectorized point-in-convex-polygon: all cross products same sign
    (CCW ring, boundary counts as inside).

    ``eps > 0`` demands a margin — used by the adaptive coverings to mark
    a cell FULL only when its corners clear every edge by more than the
    float rounding error of the cross product (|cross| terms are bounded
    by ~1.3e5 here, so ~4 ulps ≈ 1.2e-10 ≪ CONVEX_FULL_EPS); a full cell's
    interior points then provably pass the rounded >= 0 test the exact
    path and the oracle evaluate (the cross product is affine in (x, y),
    so its min over a cell is attained at a corner)."""
    n = len(verts) // 2
    vx, vy = verts[0::2], verts[1::2]
    inside = np.ones(x.shape, dtype=bool)
    for i in range(n):
        x1, y1 = vx[i], vy[i]
        x2, y2 = vx[(i + 1) % n], vy[(i + 1) % n]
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        inside &= cross >= eps
    return inside


# margin for marking a convex covering cell FULL; well above cross-product
# rounding error, well below any geometry feature scale
CONVEX_FULL_EPS = 1e-6


def convex_inside(verts_list):
    """grid.adaptive_covering's ``inside`` predicate for CCW convex rings:
    all four corners of the cell clear every edge of its zone's ring by
    CONVEX_FULL_EPS (convexity makes corner containment cell containment),
    in point_in_convex_batch's IEEE operation order.  The rings are padded
    into one (zones, max vertices) array and the padded edges masked out
    (a repeated vertex would make a zero-length edge whose cross product,
    0, never clears the margin)."""
    nv = np.asarray([len(v) // 2 for v in verts_list], dtype=np.int64)
    real = np.arange(nv.max(initial=0)) < nv[:, None]
    flat = np.concatenate([np.asarray(v, np.float64) for v in verts_list]
                          + [np.empty(0)])
    vx, vy = np.zeros(real.shape), np.zeros(real.shape)
    vx[real], vy[real] = flat[0::2], flat[1::2]
    nxt = (np.arange(real.shape[1]) + 1) % np.maximum(nv, 1)[:, None]
    rows = np.arange(len(nv))[:, None]
    ex, ey = vx[rows, nxt] - vx, vy[rows, nxt] - vy

    def inside(z, x0, y0, x1, y1):
        ok = np.ones(z.shape, dtype=bool)
        for i in range(real.shape[1]):
            ax, ay, dx, dy = vx[z, i], vy[z, i], ex[z, i], ey[z, i]
            pad = ~real[z, i]
            for cx, cy in ((x0, y0), (x1, y0), (x0, y1), (x1, y1)):
                ok &= pad | (dx * (cy - ay) - dy * (cx - ax) >= CONVEX_FULL_EPS)
        return ok

    return inside


def wkt_parse_points(texts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse 'POINT (x y)' rows; returns (idx, x, y) of the point rows.

    Fully vectorized in Arrow compute (RE2 extract + cast) — this runs on
    every text span of the corpus inside points_in_zones_batch, so a
    per-row Python loop here would dominate the hot join path at scale.
    Accepts a pyarrow (Chunked)Array or a plain list of strings."""
    if isinstance(texts, list):
        texts = pa.array(texts, pa.string())
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    is_pt = pc.starts_with(texts, "POINT")
    idx = np.flatnonzero(np.asarray(is_pt.fill_null(False)))
    if idx.size == 0:
        return (idx.astype(np.int64), np.empty(0, np.float64),
                np.empty(0, np.float64))
    body = pc.extract_regex(
        texts.take(pa.array(idx, pa.int64())),
        r"\(\s*(?P<x>[-+0-9.eE]+)\s+(?P<y>[-+0-9.eE]+)\s*\)")
    x = np.asarray(pc.struct_field(body, "x").cast(pa.float64()))
    y = np.asarray(pc.struct_field(body, "y").cast(pa.float64()))
    return idx.astype(np.int64), x, y


def zone_index(zones: pd.DataFrame) -> tuple:
    """Every zone's CELL_LEVEL covering as one cell-sorted array — the
    Raster Intervals layout (each zone a run of cells marked full or
    partial).  Rect zones go in through their stored CCW vertices, so one
    coverer (grid.adaptive_covering under convex_inside) marks both kinds:
    a cell is full only when all four corners clear every edge by
    CONVEX_FULL_EPS, and a rounding mismatch between grid.cell_encode and
    the cell bounds can only make a cell partial.

    Returns (cell, zone, full, zone_id, geo): the sorted covering cell
    ids, each cell's zone position and full flag, the zone ids (int32),
    and per zone (is_rect, bbox, vertices) for the exact test, in the
    frame's row order."""
    z, _, ix, iy, full = grid.adaptive_covering(
        list(zones["bbox"]), CELL_LEVEL, CELL_LEVEL,
        convex_inside(list(zones["vertices"])))
    cell = CELL_LEVEL * grid.LEVEL_STRIDE + ix * grid.IX_STRIDE + iy
    order = np.argsort(cell, kind="stable")
    geo = [(bool(r), np.asarray(bb, np.float64), np.asarray(v, np.float64))
           for r, bb, v in zip(zones["is_rect"], zones["bbox"], zones["vertices"])]
    return (cell[order], z[order], full[order],
            zones["zone_id"].to_numpy(np.int32), geo)


def zone_contains(geo: tuple, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The exact test of one zone: half-open bbox for rects, the
    boundary-inclusive convex test otherwise (both as the SQL oracle)."""
    is_rect, bb, verts = geo
    if is_rect:
        return (bb[0] <= x) & (x < bb[2]) & (bb[1] <= y) & (y < bb[3])
    return point_in_convex_batch(x, y, verts)


def zone_hits(index: tuple, x: np.ndarray, y: np.ndarray):
    """(point, zone_id) of every zone containing each point: one
    searchsorted of the point cells against ``index`` (zone_index),
    np.repeat into candidate pairs, full pairs kept untested and partial
    pairs refined per zone with zone_contains."""
    cell, zone, full, zone_id, geo = index
    pcell = grid.cell_encode(x, y, CELL_LEVEL)
    lo = np.searchsorted(cell, pcell, "left")
    n = np.searchsorted(cell, pcell, "right") - lo
    pt = np.repeat(np.arange(x.size), n)
    at = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(pt.size)
    zi = zone[at]
    keep = full[at]
    part = np.flatnonzero(~keep)
    part = part[np.argsort(zi[part], kind="stable")]
    for grp in np.split(part, np.flatnonzero(np.diff(zi[part])) + 1):
        if grp.size:
            keep[grp] = zone_contains(geo[zi[grp[0]]], x[pt[grp]], y[pt[grp]])
    return pt[keep], zone_id[zi[keep]]


def points_in_zones_batch(b: pa.Table, index: tuple) -> pa.Table:
    """Text spans of one batch -> (doc_id, zone_id) for every POINT in a
    zone (wkt_parse_points, then zone_hits)."""
    pidx, x, y = wkt_parse_points(b["text"])
    pt, zid = zone_hits(index, x, y)
    return pa.table({
        "doc_id": b["doc_id"].take(pa.array(pidx[pt])).cast(pa.string()),
        "zone_id": pa.array(zid, pa.int32())})


def doc_points_in_zones(docs: rd.Dataset, zones: pd.DataFrame) -> rd.Dataset:
    """Text-span POINT geometries joined to the zone polygons: the zone
    index is built on the driver and broadcast once; each 8,192-span batch
    attaches it with points_in_zones_batch."""
    from .stages import spans

    iref = ray.put(zone_index(zones))
    pts = spans.text_spans(spans.explode_spans(docs))
    return pts.map_batches(lambda b: points_in_zones_batch(b, ray.get(iref)),
                           batch_format="pyarrow", batch_size=8192)


def q_zonal_value_salted(sf_dir: str) -> pd.DataFrame:
    """Same result as q_zonal_value, computed through the SKEW-SAFE path:
    hot zones detected from counts, their rows salted into k sub-groups,
    two-phase merge (stages/salt.py).  Shares q_zonal_value's SQL oracle —
    proving salting preserves exact aggregates."""
    from .stages.salt import salted_aggregates

    joined = events_in_zones(event_points(sf_dir, with_value=True),
                             rect_zones()).materialize()
    # materialized + single multi-aggregate call: one hot-key detect pass
    # and one (key,salt) partial pass compute sum AND count together
    out = salted_aggregates(joined, "zone_id", "value", ["sum", "count"],
                            hot_factor=1.5, k=8)
    out = out.rename(columns={"n": "n_points"})
    out["sum_value"] = out["sum_value"].astype(float).round(4)
    out["zone_id"] = out["zone_id"].astype("int64")
    out["n_points"] = out["n_points"].astype("int64")
    return out[["zone_id", "n_points", "sum_value"]]


def q_doc_zone_join_rect(sf_dir: str) -> pd.DataFrame:
    """Doc text-span POINT geometries joined to the RECTANGULAR synthetic
    zones only — the SQL-exact slice of q_doc_zone_join (DuckDB parses the
    same WKT strings and applies the same half-open bbox containment; the
    convex polygons need the list-lambda test of doc_zone_join_oracle_sql).
    Same lowering as q_doc_zone_join, zone table filtered before the
    index is built."""
    from . import synth
    from .sources import read_documents, read_table_arrow

    d = synth.synth_dir_for(sf_dir)
    zones = read_table_arrow(d, "zones").to_pandas()
    zones = zones[zones["is_rect"]].reset_index(drop=True)
    out = doc_points_in_zones(read_documents(d), zones).to_pandas()
    out["zone_id"] = out["zone_id"].astype("int64")
    return out.sort_values(["doc_id", "zone_id"]).reset_index(drop=True)


def doc_zone_join_rect_oracle_sql(sf: float = 0.01) -> str:
    from . import synth

    d = synth.synth_dir(sf)
    return f"""
WITH s AS (SELECT doc_id, UNNEST(spans) AS sp
           FROM read_parquet('{d}/documents.parquet')),
p AS (SELECT doc_id,
             CAST(string_split(replace(replace(sp.text, 'POINT (', ''), ')', ''), ' ')[1] AS DOUBLE) AS x,
             CAST(string_split(replace(replace(sp.text, 'POINT (', ''), ')', ''), ' ')[2] AS DOUBLE) AS y
      FROM s WHERE sp.kind = 'text' AND sp.text LIKE 'POINT%'),
z AS (SELECT zone_id, bbox FROM read_parquet('{d}/zones.parquet') WHERE is_rect)
SELECT p.doc_id, CAST(z.zone_id AS BIGINT) AS zone_id
FROM p JOIN z ON p.x >= z.bbox[1] AND p.x < z.bbox[3]
             AND p.y >= z.bbox[2] AND p.y < z.bbox[4]
ORDER BY doc_id, zone_id
"""


def doc_zone_join_oracle_sql(sf: float = 0.01) -> str:
    """FULL doc↔zone join oracle — rect zones by half-open bbox, CONVEX
    zones by the same all-cross-products-non-negative test the engine's
    point_in_convex_batch runs (identical IEEE operation order, so the
    match is bit-exact); upgraded the headline spatial join from a
    rows-only check to SQL-exact."""
    from . import synth

    d = synth.synth_dir(sf)
    return f"""
WITH s AS (SELECT doc_id, UNNEST(spans) AS sp
           FROM read_parquet('{d}/documents.parquet')),
p AS (SELECT doc_id,
             CAST(string_split(replace(replace(sp.text, 'POINT (', ''), ')', ''), ' ')[1] AS DOUBLE) AS x,
             CAST(string_split(replace(replace(sp.text, 'POINT (', ''), ')', ''), ' ')[2] AS DOUBLE) AS y
      FROM s WHERE sp.kind = 'text' AND sp.text LIKE 'POINT%'),
z AS (SELECT zone_id, bbox, is_rect, vertices, len(vertices)//2 AS nv
      FROM read_parquet('{d}/zones.parquet'))
SELECT p.doc_id, CAST(z.zone_id AS BIGINT) AS zone_id
FROM p JOIN z ON
  CASE WHEN z.is_rect THEN
    p.x >= z.bbox[1] AND p.x < z.bbox[3] AND p.y >= z.bbox[2] AND p.y < z.bbox[4]
  ELSE
    list_aggregate(list_transform(range(1, z.nv + 1), i ->
      CASE WHEN (z.vertices[2*(i % z.nv)+1] - z.vertices[2*i-1]) * (p.y - z.vertices[2*i])
              - (z.vertices[2*(i % z.nv)+2] - z.vertices[2*i]) * (p.x - z.vertices[2*i-1]) >= 0
           THEN 1 ELSE 0 END), 'min') = 1
  END
ORDER BY doc_id, zone_id
"""


def q_knn_cell_ring(sf_dir: str) -> pd.DataFrame:
    """kNN via CELL-RING search (north-star: 'kNN neighbor queries …
    keyed on cell id'): candidates are restricted to grid cells within an
    expanding Chebyshev ring of each query's cell, with a distance bound
    proving exactness — any cell at ring ρ is ≥ (ρ−1)·min_cell_dim away,
    so once the k-th candidate distance is under that bound the ring needs
    no further expansion.  Returns the IDENTICAL rows as brute-force q_knn
    and shares its SQL oracle.

    At 100 TB the point table would be cell-partitioned parquet and each
    ring prunes AT THE READ (like the IVF list probe); here the points are
    derived in-flight, so the ring prunes the candidate set per batch
    (vectorized is_in on cell ids) — same plan shape, in-memory index."""
    qarr = np.asarray([[q[1], q[2]] for q in KNN_QUERIES])
    qcells = grid.cell_encode(qarr[:, 0], qarr[:, 1], CELL_LEVEL)
    n = 2 ** CELL_LEVEL
    min_dim = min(360.0 / n, 180.0 / n)

    def ring_cells(qi: int, rho: int) -> np.ndarray:
        return grid.neighbors(int(qcells[qi]), ring=rho)

    pts = event_points(sf_dir, with_value=False)
    rho = 1
    results: dict[int, pd.DataFrame] = {}
    pending = set(range(len(KNN_QUERIES)))
    while pending:
        rings = {qi: ring_cells(qi, rho) for qi in pending}
        rref = ray.put((qarr, rings))

        def partial(b: pa.Table) -> pd.DataFrame:
            qs, rgs = ray.get(rref)
            x = np.asarray(b["x"]); y = np.asarray(b["y"])
            eid = np.asarray(b["event_id"], dtype=np.int64)
            cells = grid.cell_encode(x, y, CELL_LEVEL)
            frames = []
            for qi, cand_cells in rgs.items():
                m = np.isin(cells, cand_cells)
                if not m.any():
                    continue
                d2 = (x[m] - qs[qi, 0]) ** 2 + (y[m] - qs[qi, 1]) ** 2
                k = min(KNN_K, d2.size)
                idx = np.lexsort((eid[m], d2))[:k]
                frames.append(pd.DataFrame({"q_id": qi, "event_id": eid[m][idx],
                                            "d2": d2[idx]}))
            if not frames:
                return pd.DataFrame({"q_id": pd.Series([], dtype="int64"),
                                     "event_id": pd.Series([], dtype="int64"),
                                     "d2": pd.Series([], dtype="float64")})
            return pd.concat(frames, ignore_index=True)

        cand = pts.map_batches(partial, batch_format="pyarrow",
                               batch_size=65536).to_pandas()
        done = set()
        for qi in pending:
            c = cand[cand["q_id"] == qi].sort_values(["d2", "event_id"]).head(KNN_K)
            # unsearched cells are at Chebyshev >= rho+1, i.e. every point
            # there is >= rho*min_dim away; (rho-1) was one ring too
            # conservative and made the rho=1 pass always a throwaway
            if len(c) == KNN_K and np.sqrt(c["d2"].iloc[-1]) < rho * min_dim:
                results[qi] = c
                done.add(qi)
        pending -= done
        if pending:
            if rho >= 2 * n:  # whole grid covered — everything found is final
                for qi in pending:
                    results[qi] = (cand[cand["q_id"] == qi]
                                   .sort_values(["d2", "event_id"]).head(KNN_K))
                pending = set()
            else:
                rho *= 2

    out = pd.concat([results[qi] for qi in sorted(results)], ignore_index=True)
    out["rank"] = out.groupby("q_id").cumcount() + 1
    return out[["q_id", "event_id", "rank"]].reset_index(drop=True)


# ------------------------------------------------ adaptive cell covering

ADAPT_LMIN, ADAPT_LMAX = 3, 6


def _adaptive_cover(sf_dir: str, convex: bool) -> pd.DataFrame:
    """Adaptive covering of the rect (``convex`` False) or convex zones:
    zones stream through one map_batches; the per-level BFS inside the
    kernel is vectorized ACROSS all zones in the batch
    (grid.adaptive_covering), so cost is O(output cells), not
    O(zones × levels) Python."""
    from . import synth
    from .sources import read_zones

    d = synth.synth_dir_for(sf_dir)

    def cover(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df = df[df["is_rect"] != convex]
        inside = convex_inside(list(df["vertices"])) if convex else None
        z, lv, ix, iy, full = grid.adaptive_covering(
            list(df["bbox"]), ADAPT_LMIN, ADAPT_LMAX, inside)
        return pa.table({
            "zone_id": pa.array(df["zone_id"].to_numpy(np.int64)[z]),
            "level": pa.array(lv),
            "cell_id": pa.array(lv * grid.LEVEL_STRIDE + ix * grid.IX_STRIDE + iy),
            "is_full": pa.array(full)})

    out = (read_zones(d).map_batches(cover, batch_format="pyarrow",
                                     batch_size=4096).to_pandas())
    return out.sort_values(["zone_id", "cell_id"]).reset_index(drop=True)


def q_adaptive_cover(sf_dir: str) -> pd.DataFrame:
    """S2-RegionCoverer-style adaptive covering of every rectangular zone:
    interior cells emitted at the coarsest level where they are fully
    inside the closed bbox (grid.adaptive_covering's default predicate),
    boundary cells refined down to level {ADAPT_LMAX} — the mixed-level
    cell set a hierarchical spatial index hands to a cell-keyed shuffle
    join (coarse cells prune whole subtrees, fine cells bound the
    exact-test work to the boundary).  Oracle: DuckDB recursive CTE
    subdividing with the identical IEEE predicates."""
    return _adaptive_cover(sf_dir, convex=False)


def adaptive_cover_oracle_sql(sf: float = 0.01) -> str:
    from . import synth
    from .grid import IX_STRIDE, LEVEL_STRIDE

    d = synth.synth_dir(sf)
    n0 = float(2**ADAPT_LMIN)
    return f"""
WITH RECURSIVE z AS (
  SELECT CAST(zone_id AS BIGINT) AS zone_id,
         bbox[1] AS xmin, bbox[2] AS ymin, bbox[3] AS xmax, bbox[4] AS ymax
  FROM read_parquet('{d}/zones.parquet') WHERE is_rect
), seed AS (
  SELECT zone_id, {ADAPT_LMIN} AS level, gx.ix, gy.iy, xmin, ymin, xmax, ymax
  FROM z,
       LATERAL (SELECT unnest(generate_series(
           GREATEST(0, LEAST({int(n0) - 1}, CAST(FLOOR(xmin / 360.0 * {n0}) AS BIGINT))),
           GREATEST(0, LEAST({int(n0) - 1}, CAST(FLOOR(xmax / 360.0 * {n0}) AS BIGINT))))) AS ix) gx,
       LATERAL (SELECT unnest(generate_series(
           GREATEST(0, LEAST({int(n0) - 1}, CAST(FLOOR((ymin + 90.0) / 180.0 * {n0}) AS BIGINT))),
           GREATEST(0, LEAST({int(n0) - 1}, CAST(FLOOR((ymax + 90.0) / 180.0 * {n0}) AS BIGINT))))) AS iy) gy
), walk AS (
  SELECT * FROM seed
  UNION ALL
  SELECT zone_id, level + 1, 2 * ix + d.dx, 2 * iy + d.dy,
         xmin, ymin, xmax, ymax
  FROM walk, (VALUES (0, 0), (0, 1), (1, 0), (1, 1)) AS d(dx, dy)
  WHERE level < {ADAPT_LMAX}
    AND ix * (360.0 / POWER(2, level)) <= xmax
    AND (ix + 1) * (360.0 / POWER(2, level)) >= xmin
    AND iy * (180.0 / POWER(2, level)) - 90.0 <= ymax
    AND (iy + 1) * (180.0 / POWER(2, level)) - 90.0 >= ymin
    AND NOT (ix * (360.0 / POWER(2, level)) >= xmin
         AND (ix + 1) * (360.0 / POWER(2, level)) <= xmax
         AND iy * (180.0 / POWER(2, level)) - 90.0 >= ymin
         AND (iy + 1) * (180.0 / POWER(2, level)) - 90.0 <= ymax)
), cls AS (
  SELECT zone_id, level, ix, iy,
         (ix * (360.0 / POWER(2, level)) >= xmin
          AND (ix + 1) * (360.0 / POWER(2, level)) <= xmax
          AND iy * (180.0 / POWER(2, level)) - 90.0 >= ymin
          AND (iy + 1) * (180.0 / POWER(2, level)) - 90.0 <= ymax) AS is_full,
         (ix * (360.0 / POWER(2, level)) <= xmax
          AND (ix + 1) * (360.0 / POWER(2, level)) >= xmin
          AND iy * (180.0 / POWER(2, level)) - 90.0 <= ymax
          AND (iy + 1) * (180.0 / POWER(2, level)) - 90.0 >= ymin) AS inter
  FROM walk
)
SELECT zone_id, level,
       level * {LEVEL_STRIDE} + ix * {IX_STRIDE} + iy AS cell_id, is_full
FROM cls
WHERE is_full OR (level = {ADAPT_LMAX} AND inter)
ORDER BY zone_id, cell_id
"""


def q_adaptive_cover_convex(sf_dir: str) -> pd.DataFrame:
    """Adaptive covering of the CONVEX zones (the non-rectangular
    complement of q_adaptive_cover), through the same coverer under the
    convex_inside predicate: interior cells full at the coarsest level
    where all four corners clear every edge by CONVEX_FULL_EPS, boundary
    refined to level {ADAPT_LMAX} under the conservative closed-bbox
    intersection.  Oracle: recursive CTE whose corner tests are the SAME
    list-lambda cross-product expression as the doc↔zone join oracle —
    bit-identical IEEE ops."""
    return _adaptive_cover(sf_dir, convex=True)


def _sql_corner_inside(cx: str, cy: str, eps: str = "0") -> str:
    """The doc_zone_join oracle's convex containment lambda with pluggable
    corner-coordinate expressions; ``eps`` mirrors point_in_convex_batch's
    full-cell margin (same double literal on both sides)."""
    return f"""list_aggregate(list_transform(range(1, nv + 1), i ->
      CASE WHEN (vertices[2*(i % nv)+1] - vertices[2*i-1]) * (({cy}) - vertices[2*i])
              - (vertices[2*(i % nv)+2] - vertices[2*i]) * (({cx}) - vertices[2*i-1]) >= {eps}
           THEN 1 ELSE 0 END), 'min') = 1"""


def adaptive_cover_convex_oracle_sql(sf: float = 0.01) -> str:
    from . import synth
    from .grid import IX_STRIDE, LEVEL_STRIDE

    d = synth.synth_dir(sf)
    n0 = float(2**ADAPT_LMIN)
    hi0 = int(n0) - 1
    cx0 = "ix * (360.0 / POWER(2, level))"
    cx1 = "(ix + 1) * (360.0 / POWER(2, level))"
    cy0 = "iy * (180.0 / POWER(2, level)) - 90.0"
    cy1 = "(iy + 1) * (180.0 / POWER(2, level)) - 90.0"
    eps = repr(CONVEX_FULL_EPS)
    inside = " AND ".join([_sql_corner_inside(cx0, cy0, eps),
                           _sql_corner_inside(cx1, cy0, eps),
                           _sql_corner_inside(cx0, cy1, eps),
                           _sql_corner_inside(cx1, cy1, eps)])
    inter = (f"{cx0} <= xmax AND {cx1} >= xmin AND "
             f"{cy0} <= ymax AND {cy1} >= ymin")
    return f"""
WITH RECURSIVE z AS (
  SELECT CAST(zone_id AS BIGINT) AS zone_id, vertices,
         len(vertices) // 2 AS nv,
         bbox[1] AS xmin, bbox[2] AS ymin, bbox[3] AS xmax, bbox[4] AS ymax
  FROM read_parquet('{d}/zones.parquet') WHERE NOT is_rect
), seed AS (
  SELECT zone_id, vertices, nv, {ADAPT_LMIN} AS level, gx.ix, gy.iy,
         xmin, ymin, xmax, ymax
  FROM z,
       LATERAL (SELECT unnest(generate_series(
           GREATEST(0, LEAST({hi0}, CAST(FLOOR(xmin / 360.0 * {n0}) AS BIGINT))),
           GREATEST(0, LEAST({hi0}, CAST(FLOOR(xmax / 360.0 * {n0}) AS BIGINT))))) AS ix) gx,
       LATERAL (SELECT unnest(generate_series(
           GREATEST(0, LEAST({hi0}, CAST(FLOOR((ymin + 90.0) / 180.0 * {n0}) AS BIGINT))),
           GREATEST(0, LEAST({hi0}, CAST(FLOOR((ymax + 90.0) / 180.0 * {n0}) AS BIGINT))))) AS iy) gy
), walk AS (
  SELECT * FROM seed
  UNION ALL
  SELECT zone_id, vertices, nv, level + 1, 2 * ix + d.dx, 2 * iy + d.dy,
         xmin, ymin, xmax, ymax
  FROM walk, (VALUES (0, 0), (0, 1), (1, 0), (1, 1)) AS d(dx, dy)
  WHERE level < {ADAPT_LMAX} AND ({inter}) AND NOT ({inside})
)
SELECT zone_id, level,
       level * {LEVEL_STRIDE} + ix * {IX_STRIDE} + iy AS cell_id,
       ({inside}) AS is_full
FROM walk
WHERE ({inside}) OR (level = {ADAPT_LMAX} AND ({inter}))
ORDER BY zone_id, cell_id
"""


# --------------------------------------- large x large rect-overlap join

OVERLAP_CELL = 10.0  # co-partition grid pitch; > max rect extent (6 x 4.5)


def _event_rects(b: pa.Table) -> pa.Table:
    """Derive a deterministic box per event from its point (closed-form,
    duplicated verbatim in the SQL oracle): width 2+(id%5), height
    1.5+0.5*(id%7) — every arithmetic step is the identical IEEE double
    op on both sides, so the boxes (and overlap areas) are bit-exact."""
    p = derive_points(b)
    eid = np.asarray(p["event_id"], dtype=np.int64)
    x1 = np.asarray(p["x"])
    y1 = np.asarray(p["y"])
    return pa.table({
        "id": pa.array(eid),
        "x1": pa.array(x1), "x2": pa.array(x1 + (2 + eid % 5)),
        "y1": pa.array(y1), "y2": pa.array(y1 + (1.5 + (eid % 7) * 0.5)),
    })


def _coarse_span(t: dict, pitch: float):
    """Inclusive cell-index span each box touches at ``pitch``."""
    return (np.floor(t["x1"] / pitch).astype(np.int64),
            np.floor(t["x2"] / pitch).astype(np.int64),
            np.floor((t["y1"] + 90.0) / pitch).astype(np.int64),
            np.floor((t["y2"] + 90.0) / pitch).astype(np.int64))


_PAIR_STRIPE = 512  # row-block height: pair matrices stay O(stripe × n)


def _striped_pair_frames(n_rows: int, build, empty_cols: dict) -> pd.DataFrame:
    """Shared scaffold for row-blocked pair formation: iterate
    {_PAIR_STRIPE}-high stripes, collect the per-stripe frames ``build(s,
    e)`` returns, concat (or a typed empty frame).  Keeps the stripe loop
    and empty-schema handling in ONE place for every pair kernel."""
    out = [build(s, min(s + _PAIR_STRIPE, n_rows))
           for s in range(0, n_rows, _PAIR_STRIPE)]
    return pd.concat(out, ignore_index=True) if out else pd.DataFrame(
        {c: pd.Series([], dtype=t) for c, t in empty_cols.items()})


def _overlap_pairs_kernel(g: pd.DataFrame, owner_key) -> pd.DataFrame:
    """Shared per-cell pair kernel: vectorized overlap test with the
    report-once rule — emit (a, b, area) only when ``owner_key(ox1, oy1,
    key)`` of the intersection's min corner equals this group's key (the
    corner lies in both boxes, hence in a cell both cover, so exactly one
    group worldwide passes the test for each overlapping pair).  Rows are
    processed in {_PAIR_STRIPE}-high stripes so the intermediate matrices
    are O(stripe × n), not O(n²) — the semantic-dedup row-blocking
    pattern; a group at the production hot_limit (4096) peaks at ~17 MB
    instead of ~800 MB."""
    key = int(g["key"].iloc[0])
    ids = g["id"].to_numpy(np.int64)
    x1, x2 = g["x1"].to_numpy(), g["x2"].to_numpy()
    y1, y2 = g["y1"].to_numpy(), g["y2"].to_numpy()

    def build(s: int, e: int) -> pd.DataFrame:
        lt = ids[s:e, None] < ids[None, :]
        ox1 = np.maximum(x1[s:e, None], x1[None, :])
        ox2 = np.minimum(x2[s:e, None], x2[None, :])
        oy1 = np.maximum(y1[s:e, None], y1[None, :])
        oy2 = np.minimum(y2[s:e, None], y2[None, :])
        hit = lt & (ox1 < ox2) & (oy1 < oy2)
        i, j = np.nonzero(hit & (owner_key(ox1, oy1, key) == key))
        return pd.DataFrame({
            "a_id": ids[s:e][i], "b_id": ids[j],
            "area": (ox2[i, j] - ox1[i, j]) * (oy2[i, j] - oy1[i, j])})

    return _striped_pair_frames(ids.size, build,
                                {"a_id": "int64", "b_id": "int64",
                                 "area": "float64"})


def q_rect_overlap_join(sf_dir: str) -> pd.DataFrame:
    """Large×large 2-D interval-overlap self-join: every pair of event
    boxes with positive-area intersection, plus the exact overlap area —
    the join class PIP/range-join don't cover (BOTH sides corpus-sized,
    so neither can broadcast).

    Scale shape: each box is flat-mapped to the ≤4 grid cells it touches
    (pitch {OVERLAP_CELL} > the max box extent), pairs form INSIDE a
    groupby(cell) — O(per-cell density²), never O(corpus²) — and each
    pair is emitted exactly once globally by the report-once rule
    (_overlap_pairs_kernel).  Group size is bounded by geometric density,
    not corpus size; a skewed hot cell splits explicitly via
    q_rect_overlap_join_split (same oracle).
    """
    ds = read_table(sf_dir, "events", columns=["event_id"])
    rects = ds.map_batches(_event_rects, batch_format="pyarrow",
                           zero_copy_batch=True)

    def to_cells(b: pa.Table) -> pa.Table:
        t = {k: np.asarray(b[k]) for k in b.column_names}
        cx_lo, cx_hi, cy_lo, cy_hi = _coarse_span(t, OVERLAP_CELL)
        parts = []
        for dx in (0, 1):
            for dy in (0, 1):
                keep = (cx_lo + dx <= cx_hi) & (cy_lo + dy <= cy_hi)
                if not keep.any():
                    continue
                parts.append(pa.table({
                    "key": pa.array((cx_lo[keep] + dx) * 64 + cy_lo[keep] + dy),
                    **{k: pa.array(v[keep]) for k, v in t.items()},
                }))
        return pa.concat_tables(parts) if parts else pa.table(
            {"key": pa.array([], pa.int64()),
             **{k: pa.array([], pa.int64() if k == "id" else pa.float64())
                for k in t}})

    def owner(ox1, oy1, key):
        return (np.floor(ox1 / OVERLAP_CELL).astype(np.int64) * 64
                + np.floor((oy1 + 90.0) / OVERLAP_CELL).astype(np.int64))

    out = (rects.map_batches(to_cells, batch_format="pyarrow")
           .groupby("key")
           .map_groups(lambda g: _overlap_pairs_kernel(g, owner),
                       batch_format="pandas")
           .to_pandas())
    return out.sort_values(["a_id", "b_id"]).reset_index(drop=True)


Q_RECT_OVERLAP_JOIN_SQL = """
WITH pts AS (
  SELECT event_id,
         CAST((event_id * 7919) % 36000 AS DOUBLE) / 100.0 AS x,
         CAST((event_id * 104729) % 18000 AS DOUBLE) / 100.0 - 90.0 AS y
  FROM events
), rects AS (
  SELECT event_id AS id, x AS x1, x + (2 + event_id % 5) AS x2,
         y AS y1, y + (1.5 + (event_id % 7) * 0.5) AS y2
  FROM pts
)
SELECT a.id AS a_id, b.id AS b_id,
       (LEAST(a.x2, b.x2) - GREATEST(a.x1, b.x1))
     * (LEAST(a.y2, b.y2) - GREATEST(a.y1, b.y1)) AS area
FROM rects a JOIN rects b
  ON a.id < b.id AND a.x1 < b.x2 AND b.x1 < a.x2
 AND a.y1 < b.y2 AND b.y1 < a.y2
ORDER BY a_id, b_id
"""


def q_rect_overlap_join_split(sf_dir: str, hot_limit: int = 64,
                              max_level: int = 3) -> pd.DataFrame:
    """The overlap join with EXPLICIT hot-cell splitting (north-rule
    'skewed cells are salted and split explicitly', here for a JOIN where
    salting doesn't apply — pair formation is not algebraic, so a dense
    cell must be geometrically subdivided instead).

    Phase 1 counts boxes per coarse cell (a cell-cardinality aggregate,
    O(cells) driver state) and assigns each cell a SPLIT LEVEL
    ``ceil(log4(n / hot_limit))`` (clamped to ``max_level``): under the
    uniform-density-within-a-cell assumption each 4-way split quarters
    the per-group pair work, so the chosen level lands every group near
    the ``hot_limit`` budget — cold cells stay at level 0 and pay
    nothing.  Phase 2 re-emits each box's incidences at its cell's level
    (subcell enumeration clipped to the coarse cell, one vectorized pass
    per (dx, dy) offset).  The report-once owner rule moves with the
    key's level (the intersection min corner's subcell at that level), so
    output is identical to the unsplit lowering — gated by the SAME SQL
    oracle.  Intra-cell skew beyond the uniform assumption would need the
    count pass re-run per level; at that point the adaptive covering
    (grid.adaptive_covering) is the right tool.

    The default hot_limit=64 makes the driver's sf0.01 gate run genuinely
    MIXED — multiple levels live at once; production would set it to the
    worker's O(n²) comfort bound (e.g. 4096).
    """
    import ray
    from ray.data.aggregate import Count

    ds = read_table(sf_dir, "events", columns=["event_id"])
    rects = ds.map_batches(_event_rects, batch_format="pyarrow",
                           zero_copy_batch=True)

    def coarse_cells(b: pa.Table) -> pa.Table:
        t = {k: np.asarray(b[k]) for k in b.column_names}
        cx_lo, cx_hi, cy_lo, cy_hi = _coarse_span(t, OVERLAP_CELL)
        parts = []
        for dx in (0, 1):
            for dy in (0, 1):
                keep = (cx_lo + dx <= cx_hi) & (cy_lo + dy <= cy_hi)
                if keep.any():
                    parts.append(pa.table({
                        "ccx": pa.array(cx_lo[keep] + dx),
                        "ccy": pa.array(cy_lo[keep] + dy),
                        **{k: pa.array(v[keep]) for k, v in t.items()}}))
        return pa.concat_tables(parts) if parts else pa.table(
            {"ccx": pa.array([], pa.int64()), "ccy": pa.array([], pa.int64()),
             **{k: pa.array([], pa.int64() if k == "id" else pa.float64())
                for k in t}})

    # materialized because it is consumed twice: the cell-cardinality
    # count and the keyed re-emission below
    incid = rects.map_batches(coarse_cells, batch_format="pyarrow").materialize()
    counts = (incid.map_batches(
        lambda b: pa.table({"cell": pa.compute.add(
            pa.compute.multiply(b["ccx"], 64), b["ccy"])}),
        batch_format="pyarrow")
        .groupby("cell").aggregate(Count(alias_name="n")).to_pandas())
    n = counts["n"].to_numpy(np.float64)
    lvl = np.zeros(len(counts), np.int64)
    over = n > hot_limit
    lvl[over] = np.minimum(
        np.ceil(np.log(n[over] / hot_limit) / np.log(4.0)).astype(np.int64),
        max_level)
    split_cells = counts["cell"].to_numpy(np.int64)[lvl > 0]
    order = np.argsort(split_cells)
    lvl_ref = ray.put((split_cells[order], lvl[lvl > 0][order]))

    def keyed(b: pa.Table) -> pa.Table:
        cells_sorted, levels_sorted = ray.get(lvl_ref)
        t = {k: np.asarray(b[k]) for k in b.column_names}
        coarse = t["ccx"] * 64 + t["ccy"]
        pos = np.searchsorted(cells_sorted, coarse)
        pos = np.minimum(pos, max(len(cells_sorted) - 1, 0))
        level = np.zeros(coarse.size, np.int64)
        if len(cells_sorted):
            found = cells_sorted[pos] == coarse
            level[found] = levels_sorted[pos[found]]
        cols = ["id", "x1", "x2", "y1", "y2"]
        parts = []
        for lv in np.unique(level):
            m = level == lv
            h = {k: t[k][m] for k in t}
            if lv == 0:
                parts.append(pa.table({
                    "key": pa.array((0 << 50) | (h["ccx"] << 20) | h["ccy"]),
                    **{k: pa.array(h[k]) for k in cols}}))
                continue
            pitch = OVERLAP_CELL / (2.0 ** lv)
            f = 1 << lv  # subcells per coarse cell per axis
            fx_lo, fx_hi, fy_lo, fy_hi = _coarse_span(h, pitch)
            fx_lo = np.maximum(fx_lo, h["ccx"] * f)
            fx_hi = np.minimum(fx_hi, h["ccx"] * f + f - 1)
            fy_lo = np.maximum(fy_lo, h["ccy"] * f)
            fy_hi = np.minimum(fy_hi, h["ccy"] * f + f - 1)
            max_dx = int((fx_hi - fx_lo).max()) if fx_lo.size else -1
            max_dy = int((fy_hi - fy_lo).max()) if fy_lo.size else -1
            for dx in range(max_dx + 1):
                for dy in range(max_dy + 1):
                    keep = (fx_lo + dx <= fx_hi) & (fy_lo + dy <= fy_hi)
                    if keep.any():
                        parts.append(pa.table({
                            "key": pa.array((int(lv) << 50)
                                            | ((fx_lo[keep] + dx) << 20)
                                            | (fy_lo[keep] + dy)),
                            **{k: pa.array(h[k][keep]) for k in cols}}))
        return pa.concat_tables(parts) if parts else pa.table(
            {"key": pa.array([], pa.int64()),
             **{k: pa.array([], pa.int64() if k == "id" else pa.float64())
                for k in cols}})

    def owner(ox1, oy1, key):
        # a level-L group only exists under a coarse cell assigned level L,
        # and a pair found in a subcell of H has its corner in H itself
        # (corner ∈ subcell ⊆ H), so the corner's level IS the group's —
        # level-aware key equality alone is sufficient
        level = key >> 50
        pitch = OVERLAP_CELL / (2.0 ** level)
        return ((level << 50)
                | (np.floor(ox1 / pitch).astype(np.int64) << 20)
                | np.floor((oy1 + 90.0) / pitch).astype(np.int64))

    out = (incid.map_batches(keyed, batch_format="pyarrow")
           .groupby("key")
           .map_groups(lambda g: _overlap_pairs_kernel(g, owner),
                       batch_format="pandas")
           .to_pandas())
    return out.sort_values(["a_id", "b_id"]).reset_index(drop=True)


# ------------------------------------------------ radius (distance) join

RADIUS = 3.0  # join radius; OVERLAP_CELL (10) >= RADIUS so one ring suffices


def q_radius_join(sf_dir: str) -> pd.DataFrame:
    """Large×large radius self-join: every pair of event points within
    euclidean distance {RADIUS}, plus the exact squared distance — the
    METRIC sibling of the interval-overlap join (DBSCAN neighborhoods,
    proximity analytics), both sides corpus-sized.

    Scale shape (grid method): each point emits its cell and the 8
    neighbors (pitch ≥ radius, so any within-radius partner shares at
    least the point's own cell among its 9), pairs form inside
    groupby(cell), and the report-once owner is the LOWER-ID point's own
    cell — that cell is in both points' emission sets, so each pair is
    emitted exactly once globally.  Density bounds group size; this
    lowering does NOT yet split hot cells — a skewed pile-up would need
    the density-adapted level scheme q_rect_overlap_join_split
    demonstrates (same owner-moves-with-level rule applies to points)."""
    ds = read_table(sf_dir, "events", columns=["event_id"])
    pts = ds.map_batches(derive_points, batch_format="pyarrow",
                         zero_copy_batch=True)

    def to_cells(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], dtype=np.int64)
        x = np.asarray(b["x"])
        y = np.asarray(b["y"])
        cx = np.floor(x / OVERLAP_CELL).astype(np.int64)
        cy = np.floor((y + 90.0) / OVERLAP_CELL).astype(np.int64)
        r2 = RADIUS * RADIUS
        parts = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    keep = np.ones(eid.size, bool)
                else:
                    # emit to a neighbor cell only when its box lies within
                    # RADIUS of the point: a partner pair's owner cell (the
                    # lower-id point's own cell) contains that point, so the
                    # box distance is <= the pair distance < RADIUS — the
                    # emission needed for report-once always survives, while
                    # with pitch >> RADIUS most of the 8 neighbor rows are
                    # pure shuffle inflation (clamp/square/sum are fp-
                    # monotone, so the <= holds for the computed doubles too)
                    xlo = (cx + dx) * OVERLAP_CELL
                    ylo = (cy + dy) * OVERLAP_CELL - 90.0
                    ddx = np.maximum(np.maximum(xlo - x, x - (xlo + OVERLAP_CELL)), 0.0)
                    ddy = np.maximum(np.maximum(ylo - y, y - (ylo + OVERLAP_CELL)), 0.0)
                    keep = ddx * ddx + ddy * ddy < r2
                if not keep.any():
                    continue
                parts.append(pa.table({
                    "key": pa.array((cx[keep] + dx) * 1024 + cy[keep] + dy),
                    "own": pa.array(np.full(int(keep.sum()), dx == 0 and dy == 0)),
                    "id": pa.array(eid[keep]), "x": pa.array(x[keep]),
                    "y": pa.array(y[keep])}))
        return pa.concat_tables(parts)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["id"].to_numpy(np.int64)
        x = g["x"].to_numpy()
        y = g["y"].to_numpy()
        own = g["own"].to_numpy(bool)

        def build(s: int, e: int) -> pd.DataFrame:
            dx = x[s:e, None] - x[None, :]
            dy = y[s:e, None] - y[None, :]
            d2 = dx * dx + dy * dy
            # report-once: the lower-id point must be in its OWN cell here
            hit = ((ids[s:e, None] < ids[None, :]) & (d2 < RADIUS * RADIUS)
                   & own[s:e, None])
            i, j = np.nonzero(hit)
            return pd.DataFrame({"a_id": ids[s:e][i], "b_id": ids[j],
                                 "d2": d2[i, j]})

        return _striped_pair_frames(ids.size, build,
                                    {"a_id": "int64", "b_id": "int64",
                                     "d2": "float64"})

    out = (pts.map_batches(to_cells, batch_format="pyarrow")
           .groupby("key").map_groups(pairs, batch_format="pandas")
           .to_pandas())
    return out.sort_values(["a_id", "b_id"]).reset_index(drop=True)


Q_RADIUS_JOIN_SQL = f"""
WITH pts AS (
  SELECT event_id AS id,
         CAST((event_id * 7919) % 36000 AS DOUBLE) / 100.0 AS x,
         CAST((event_id * 104729) % 18000 AS DOUBLE) / 100.0 - 90.0 AS y
  FROM events
)
SELECT a.id AS a_id, b.id AS b_id,
       (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y) AS d2
FROM pts a JOIN pts b
  ON a.id < b.id
 AND (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y)
     < {RADIUS * RADIUS}
ORDER BY a_id, b_id
"""


# ------------------------------------------- bounded kNN self-join

KNN_JOIN_K = 4                 # neighbors per point


def q_knn_join(sf_dir: str) -> pd.DataFrame:
    """Bounded kNN SELF-join: for EVERY event point, its {KNN_JOIN_K}
    nearest neighbors within euclidean distance {RADIUS} (ties broken by
    neighbor id) — the batch kNN-join of the north star with BOTH sides
    corpus-sized (q_knn answers 3 broadcast queries; this answers one per
    corpus point).  The radius bound is what keeps a 10¹²-point join
    tractable AND SQL-provable: the oracle is a range-predicate self-join
    + window rank, never a cross join.

    Scale shape (grid method, pitch ≥ radius): every point is a MEMBER of
    its own cell and a PROBE in its own cell plus each neighbor cell whose
    box lies within {RADIUS} (the same provably-lossless emission filter
    as q_radius_join); per cell, probes score members in row-blocked
    stripes and keep a per-(probe, cell) partial top-k; a final per-point
    lex merge (``stages.join.merge_by_key``: driver-vectorized while the
    candidates — ≤ 9·k narrow rows per point — fit the driver budget,
    hash-groupby beyond) yields the global top-k.  Pair arithmetic is
    identical in every path, so ranks are deterministic (d², id)."""
    ds = read_table(sf_dir, "events", columns=["event_id"])
    pts = ds.map_batches(derive_points, batch_format="pyarrow",
                         zero_copy_batch=True)
    r2 = RADIUS * RADIUS

    def to_cells(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], dtype=np.int64)
        x = np.asarray(b["x"])
        y = np.asarray(b["y"])
        cx = np.floor(x / OVERLAP_CELL).astype(np.int64)
        cy = np.floor((y + 90.0) / OVERLAP_CELL).astype(np.int64)
        parts = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    keep = np.ones(eid.size, bool)
                else:
                    xlo = (cx + dx) * OVERLAP_CELL
                    ylo = (cy + dy) * OVERLAP_CELL - 90.0
                    ddx = np.maximum(np.maximum(xlo - x, x - (xlo + OVERLAP_CELL)), 0.0)
                    ddy = np.maximum(np.maximum(ylo - y, y - (ylo + OVERLAP_CELL)), 0.0)
                    keep = ddx * ddx + ddy * ddy < r2
                if not keep.any():
                    continue
                parts.append(pa.table({
                    "key": pa.array((cx[keep] + dx) * 1024 + cy[keep] + dy),
                    "own": pa.array(np.full(int(keep.sum()), dx == 0 and dy == 0)),
                    "id": pa.array(eid[keep]), "x": pa.array(x[keep]),
                    "y": pa.array(y[keep])}))
        return pa.concat_tables(parts)

    def cell_topk(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["id"].to_numpy(np.int64)
        x = g["x"].to_numpy()
        y = g["y"].to_numpy()
        own = g["own"].to_numpy(bool)
        mid, mx, my = ids[own], x[own], y[own]
        if mid.size == 0:
            return pd.DataFrame({"a_id": pd.Series([], dtype="int64"),
                                 "b_id": pd.Series([], dtype="int64"),
                                 "d2": pd.Series([], dtype="float64")})
        morder = np.argsort(mid)  # ascending member ids → stable ties
        mid, mx, my = mid[morder], mx[morder], my[morder]

        def build(s: int, e: int) -> pd.DataFrame:
            dx = x[s:e, None] - mx[None, :]
            dy = y[s:e, None] - my[None, :]
            d2 = dx * dx + dy * dy
            d2[ids[s:e, None] == mid[None, :]] = np.inf   # exclude self
            d2[d2 >= r2] = np.inf
            k = min(KNN_JOIN_K, mid.size)
            # per-probe k smallest; argsort(axis=1) is stable → within
            # equal d2, lower member INDEX = lower member id wins
            idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
            rows = np.repeat(np.arange(e - s), k)
            cand_d2 = d2[rows, idx.ravel()]
            fin = np.isfinite(cand_d2)
            return pd.DataFrame({"a_id": ids[s:e][rows[fin]],
                                 "b_id": mid[idx.ravel()[fin]],
                                 "d2": cand_d2[fin]})

        return _striped_pair_frames(ids.size, build,
                                    {"a_id": "int64", "b_id": "int64",
                                     "d2": "float64"})

    cand = (pts.map_batches(to_cells, batch_format="pyarrow")
            .groupby("key").map_groups(cell_topk, batch_format="pandas")
            .materialize())

    def lex_topk(t: pa.Table) -> pa.Table:
        aid = np.asarray(t["a_id"], np.int64)
        bid = np.asarray(t["b_id"], np.int64)
        d2 = np.asarray(t["d2"], np.float64)
        order = np.lexsort((bid, d2, aid))
        aid, bid, d2 = aid[order], bid[order], d2[order]
        first = np.ones(aid.size, bool)
        first[1:] = aid[1:] != aid[:-1]
        grp = np.cumsum(first) - 1
        pos = np.arange(aid.size) - np.searchsorted(grp, grp, side="left")
        keep = pos < KNN_JOIN_K
        return pa.table({"a_id": aid[keep], "b_id": bid[keep],
                         "rank": (pos[keep] + 1).astype(np.int64),
                         "d2": d2[keep]})

    # ≤ 9·k candidate rows per point → tiny groups on the scale arm
    out = merge_by_key(cand, "a_id", lex_topk, cand.size_bytes())
    return out.sort_values(["a_id", "rank"]).reset_index(drop=True)


Q_KNN_JOIN_SQL = f"""
WITH pts AS (
  SELECT event_id AS id,
         CAST((event_id * 7919) % 36000 AS DOUBLE) / 100.0 AS x,
         CAST((event_id * 104729) % 18000 AS DOUBLE) / 100.0 - 90.0 AS y
  FROM events
), pairs AS (
  SELECT a.id AS a_id, b.id AS b_id,
         (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y) AS d2
  FROM pts a JOIN pts b
    ON a.id <> b.id
   AND b.x > a.x - {RADIUS} AND b.x < a.x + {RADIUS}
   AND b.y > a.y - {RADIUS} AND b.y < a.y + {RADIUS}
   AND (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y)
       < {RADIUS * RADIUS}
)
SELECT a_id, b_id, CAST(rank AS BIGINT) AS rank, d2 FROM (
  SELECT a_id, b_id, d2,
         ROW_NUMBER() OVER (PARTITION BY a_id ORDER BY d2, b_id) AS rank
  FROM pairs)
WHERE rank <= {KNN_JOIN_K}
ORDER BY a_id, rank
"""


# ------------------------------------- point-to-segment proximity join

SEG_R = 15          # distance bound (integer world [0,10000)²)
SEG_CELL = 50       # grid pitch ≥ max(bbox span + 2R straddle) / 2
SEG_MAXD = 40       # max endpoint offset per axis


def _seg_mix(ids: np.ndarray, mod: int) -> np.ndarray:
    """Counter mix (the regions.mask_values discipline: two multiply/
    xor-shift rounds, SQL-exact in UBIGINT) → [0, mod).  Linear congruences
    are NOT usable here: points and segments derived from the same
    multipliers land on coincident 1-D lattices and the join explodes
    (measured 30 M pairs at sf0.1 vs ~245 k decorrelated)."""
    h = (ids.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(1 << 32)
    h = ((h ^ (h >> np.uint64(16))) * np.uint64(2246822519)) % np.uint64(1 << 32)
    return (h % np.uint64(mod)).astype(np.int64)


def _seg_endpoints(keys: np.ndarray):
    """Deterministic bounded segments from order keys — integer endpoints
    in [0,10000)², axis span ≤ {SEG_MAXD} (keeps per-segment cell fan-out
    ≤ 3×3 at pitch {SEG_CELL})."""
    k = keys.astype(np.int64)
    x1 = _seg_mix(4 * k + 0, 10000)
    y1 = _seg_mix(4 * k + 1, 10000)
    dx = _seg_mix(4 * k + 2, 81) - 40
    dy = _seg_mix(4 * k + 3, 81) - 40
    x2 = np.clip(x1 + dx, 0, 9999)
    y2 = np.clip(y1 + dy, 0, 9999)
    return x1, y1, x2, y2


def _seg_points(eids: np.ndarray):
    """Point coordinates decorrelated from the segment stream by a counter
    offset (2e9 ≫ any 4·o_orderkey+3 at every sf)."""
    return (_seg_mix(2_000_000_000 + 2 * eids, 10000),
            _seg_mix(2_000_000_001 + 2 * eids, 10000))


def _seg_dist_parts(px, py, x1, y1, x2, y2):
    """Exact squared point-to-segment distance as an integer fraction
    (num, den): endpoint cases den=1; interior case (cross², |v|²).
    Every product ≤ ~6.5e9 — exact in int64 and DuckDB BIGINT."""
    vx, vy = x2 - x1, y2 - y1
    wx, wy = px - x1, py - y1
    dot = wx * vx + wy * vy
    vv = vx * vx + vy * vy
    ux, uy = px - x2, py - y2
    cross = wx * vy - wy * vx
    num = np.where(dot <= 0, wx * wx + wy * wy,
                   np.where(dot >= vv, ux * ux + uy * uy, cross * cross))
    den = np.where((dot <= 0) | (dot >= vv), np.int64(1), vv)
    return num, den


def q_segment_join(sf_dir: str) -> pd.DataFrame:
    """Point-to-SEGMENT proximity join: every (event point, order segment)
    pair within euclidean distance {SEG_R} — the polyline sibling of
    q_radius_join (points near roads/pipelines), both sides corpus-sized.

    Geometry is integer-exact end to end: the clamped-projection distance
    is the fraction (num, den) from _seg_dist_parts and the predicate
    num ≤ R²·den is an int64 comparison — no float enters the join.

    Scale shape (grid method): each segment emits the ≤3×3 cells its
    R-expanded bbox overlaps; each point emits ONLY its own cell, so every
    qualifying pair forms exactly once (the point's cell always overlaps
    the expanded bbox — no report-once bookkeeping needed).  Pairs form
    per cell in row-blocked stripes."""
    pts = read_table(sf_dir, "events", columns=["event_id"])
    segs = read_table(sf_dir, "orders", columns=["o_orderkey"])

    def pt_cells(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], dtype=np.int64)
        px, py = _seg_points(eid)
        return pa.table({
            "key": pa.array((px // SEG_CELL) * 1024 + py // SEG_CELL),
            "event_id": pa.array(eid), "px": pa.array(px), "py": pa.array(py)})

    def seg_cells(b: pa.Table) -> pa.Table:
        k = np.asarray(b["o_orderkey"], dtype=np.int64)
        x1, y1, x2, y2 = _seg_endpoints(k)
        ckey, seg = _seg_bbox_cells(x1, y1, x2, y2)
        return pa.table({
            "key": pa.array(ckey),
            "seg_id": pa.array(k[seg]),
            "x1": pa.array(x1[seg]), "y1": pa.array(y1[seg]),
            "x2": pa.array(x2[seg]), "y2": pa.array(y2[seg])})

    def score(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        px, py = np.asarray(b["px"], np.int64), np.asarray(b["py"], np.int64)
        sid = np.asarray(b["seg_id"], np.int64)
        x1, y1 = np.asarray(b["x1"], np.int64), np.asarray(b["y1"], np.int64)
        x2, y2 = np.asarray(b["x2"], np.int64), np.asarray(b["y2"], np.int64)
        num, den = _seg_dist_parts(px, py, x1, y1, x2, y2)
        hit = num <= SEG_R * SEG_R * den
        return pa.table({"event_id": pa.array(eid[hit]),
                         "seg_id": pa.array(sid[hit]),
                         "d2_num": pa.array(num[hit]),
                         "d2_den": pa.array(den[hit])})

    # size dispatch: while the POINT side (the footer's row count × four
    # int64 columns of the broadcast index) fits the driver budget,
    # broadcast its sorted cell index once via ray.put and probe from the
    # segment side — ZERO exchanges;
    # above, pair formation is the cell-keyed HASH JOIN + vectorized
    # filter (a map_groups over the mostly point-free cell grid paid one
    # Python call per cell — 40k cells, 10k points → 6.5 s; the join
    # only materializes candidate rows where both sides share a cell)
    if table_rows(sf_dir, "events") * 32 <= join.DRIVER_MAX_BYTES:
        out = _segment_join_broadcast(pts, segs).to_pandas()
    else:  # pragma: no cover — exercised by the forced-dispatch pytest
        cand = hash_join(pts.map_batches(pt_cells, batch_format="pyarrow"),
                         segs.map_batches(seg_cells, batch_format="pyarrow"),
                         "key", "inner")
        out = cand.map_batches(score, batch_format="pyarrow").to_pandas()
    return out.sort_values(["event_id", "seg_id"]).reset_index(drop=True)


def _seg_bbox_cells(x1, y1, x2, y2) -> tuple[np.ndarray, np.ndarray]:
    """(cell key, segment index) for every grid cell a segment's
    R-expanded bbox overlaps — ONE (9, n) offset mask + one gather (the
    old per-offset loop concatenated up to 9 subtables per batch).
    Shared by BOTH q_segment_join lowerings so the dispatch arms can
    never emit different key surfaces."""
    cx0 = (np.minimum(x1, x2) - SEG_R) // SEG_CELL
    cx1 = (np.maximum(x1, x2) + SEG_R) // SEG_CELL
    cy0 = (np.minimum(y1, y2) - SEG_R) // SEG_CELL
    cy1 = (np.maximum(y1, y2) + SEG_R) // SEG_CELL
    di = np.repeat(np.arange(3, dtype=np.int64), 3)
    dj = np.tile(np.arange(3, dtype=np.int64), 3)
    keep = ((cx0[None, :] + di[:, None] <= cx1[None, :])
            & (cy0[None, :] + dj[:, None] <= cy1[None, :]))
    off, seg = np.nonzero(keep)
    return (cx0[seg] + di[off]) * 1024 + cy0[seg] + dj[off], seg


def _segment_join_broadcast(pts: rd.Dataset, segs: rd.Dataset) -> rd.Dataset:
    """Broadcast lowering of q_segment_join: the point side collapses to
    four sorted int64 arrays keyed by own cell (ray.put ONCE, read in
    every task); each segment batch probes its R-expanded bbox cells via
    searchsorted, expands the matching cell runs with the segmented
    arange trick, and evaluates the exact integer distance predicate
    vectorized.  Pair candidates still form exactly once (a point's own
    cell meets a segment's bbox cell set in at most one cell)."""
    eid = np.sort(pts.to_pandas()["event_id"].to_numpy(np.int64))
    px, py = _seg_points(eid)
    key = (px // SEG_CELL) * 1024 + py // SEG_CELL
    order = np.argsort(key, kind="stable")
    key, eid, px, py = key[order], eid[order], px[order], py[order]
    uk, starts = np.unique(key, return_index=True)
    counts = np.diff(np.r_[starts, key.size])
    ref = ray.put((uk, starts, counts, eid, px, py))

    def probe(b: pa.Table) -> pa.Table:
        uk, starts, counts, eid, px, py = ray.get(ref)
        k = np.asarray(b["o_orderkey"], np.int64)
        x1, y1, x2, y2 = _seg_endpoints(k)
        ckey, seg = _seg_bbox_cells(x1, y1, x2, y2)
        empty = pa.table({"event_id": pa.array([], pa.int64()),
                          "seg_id": pa.array([], pa.int64()),
                          "d2_num": pa.array([], pa.int64()),
                          "d2_den": pa.array([], pa.int64())})
        if ckey.size == 0 or uk.size == 0:
            return empty
        pos = np.searchsorted(uk, ckey)
        pos_cl = np.minimum(pos, uk.size - 1)
        sel = np.flatnonzero(uk[pos_cl] == ckey)
        if sel.size == 0:
            return empty
        s = starts[pos_cl[sel]]
        c = counts[pos_cl[sel]]
        total = int(c.sum())
        base = (np.repeat(s - np.r_[0, np.cumsum(c)[:-1]], c)
                + np.arange(total))
        segidx = seg[np.repeat(sel, c)]
        num, den = _seg_dist_parts(px[base], py[base], x1[segidx],
                                   y1[segidx], x2[segidx], y2[segidx])
        hit = num <= SEG_R * SEG_R * den
        return pa.table({"event_id": pa.array(eid[base][hit]),
                         "seg_id": pa.array(k[segidx][hit]),
                         "d2_num": pa.array(num[hit]),
                         "d2_den": pa.array(den[hit])})

    return segs.map_batches(probe, batch_format="pyarrow",
                            zero_copy_batch=True)


Q_SEGMENT_JOIN_SQL = f"""
WITH pts AS (
  SELECT event_id,
         CAST(xor((CAST(2000000000 + 2 * event_id AS UBIGINT) * 2654435761) % 4294967296, ((CAST(2000000000 + 2 * event_id AS UBIGINT) * 2654435761) % 4294967296) >> 16) * 2246822519 % 4294967296 % 10000 AS BIGINT) AS px,
         CAST(xor((CAST(2000000001 + 2 * event_id AS UBIGINT) * 2654435761) % 4294967296, ((CAST(2000000001 + 2 * event_id AS UBIGINT) * 2654435761) % 4294967296) >> 16) * 2246822519 % 4294967296 % 10000 AS BIGINT) AS py
  FROM events
), segsa AS (
  SELECT o_orderkey AS seg_id,
         CAST(xor((CAST(4 * o_orderkey + 0 AS UBIGINT) * 2654435761) % 4294967296, ((CAST(4 * o_orderkey + 0 AS UBIGINT) * 2654435761) % 4294967296) >> 16) * 2246822519 % 4294967296 % 10000 AS BIGINT) AS x1,
         CAST(xor((CAST(4 * o_orderkey + 1 AS UBIGINT) * 2654435761) % 4294967296, ((CAST(4 * o_orderkey + 1 AS UBIGINT) * 2654435761) % 4294967296) >> 16) * 2246822519 % 4294967296 % 10000 AS BIGINT) AS y1,
         CAST(xor((CAST(4 * o_orderkey + 2 AS UBIGINT) * 2654435761) % 4294967296, ((CAST(4 * o_orderkey + 2 AS UBIGINT) * 2654435761) % 4294967296) >> 16) * 2246822519 % 4294967296 % 81 AS BIGINT) - 40 AS dx,
         CAST(xor((CAST(4 * o_orderkey + 3 AS UBIGINT) * 2654435761) % 4294967296, ((CAST(4 * o_orderkey + 3 AS UBIGINT) * 2654435761) % 4294967296) >> 16) * 2246822519 % 4294967296 % 81 AS BIGINT) - 40 AS dy
  FROM orders
), segs0 AS (
  SELECT seg_id, x1, y1,
         LEAST(GREATEST(x1 + dx, 0), 9999) AS x2,
         LEAST(GREATEST(y1 + dy, 0), 9999) AS y2
  FROM segsa
), segs AS (
  -- materialized bbox columns: plain column-to-column range predicates
  -- let DuckDB pick IEJoin instead of a nested-loop cross product
  SELECT seg_id, x1, y1, x2, y2,
         LEAST(x1, x2) - {SEG_R} AS xlo, GREATEST(x1, x2) + {SEG_R} AS xhi,
         LEAST(y1, y2) - {SEG_R} AS ylo, GREATEST(y1, y2) + {SEG_R} AS yhi
  FROM segs0
), d AS (
  SELECT p.event_id, s.seg_id,
         (p.px - s.x1) * (s.x2 - s.x1) + (p.py - s.y1) * (s.y2 - s.y1) AS dot,
         (s.x2 - s.x1) * (s.x2 - s.x1) + (s.y2 - s.y1) * (s.y2 - s.y1) AS vv,
         (p.px - s.x1) * (p.px - s.x1) + (p.py - s.y1) * (p.py - s.y1) AS w2,
         (p.px - s.x2) * (p.px - s.x2) + (p.py - s.y2) * (p.py - s.y2) AS u2,
         (p.px - s.x1) * (s.y2 - s.y1) - (p.py - s.y1) * (s.x2 - s.x1) AS cr
  FROM pts p, segs s
  WHERE p.px >= s.xlo AND p.px <= s.xhi
    AND p.py >= s.ylo AND p.py <= s.yhi
), scored AS (
  SELECT event_id, seg_id,
         CASE WHEN dot <= 0 THEN w2 WHEN dot >= vv THEN u2 ELSE cr * cr END AS d2_num,
         CASE WHEN dot <= 0 OR dot >= vv THEN 1 ELSE vv END AS d2_den
  FROM d
)
SELECT event_id, seg_id, d2_num, d2_den
FROM scored WHERE d2_num <= {SEG_R * SEG_R} * d2_den
ORDER BY event_id, seg_id
"""


# ------------------------------------------- polygon geometry (shoelace)

def parse_wkt_polygon(wkt: str) -> tuple[np.ndarray, np.ndarray]:
    """'POLYGON ((x y, x y, ...))' → vertex arrays (unclosed ring)."""
    body = wkt[wkt.index("((") + 2:wkt.rindex("))")]
    flat = np.array([float(t) for pair in body.split(", ")
                     for t in pair.split(" ")], dtype=np.float64)
    return flat[0::2], flat[1::2]


def q_polygon_geometry(sf_dir: str) -> pd.DataFrame:
    """Vector geometry over the zone polygons: WKT POLYGON encode →
    decode round-trip, then the shoelace area — the raster↔vector
    engine's pure-vector measurement kernel (the zonal joins consume
    these polygons; this query measures them).

    Exactness: vertices are 6-dp decimals, so scaling by 1e6 and rounding
    yields exact int64 coordinates; the shoelace cross-products (≲1.3e17)
    and their ≤8-term sum stay int64/BIGINT-exact and ORDER-FREE, giving
    hash parity without any float-summation discipline.  The reported
    area is one IEEE division of the exact scaled integer.
    """
    import os

    from . import synth

    d = synth.synth_dir_for(sf_dir)
    ds = rd.read_parquet(os.path.join(d, "zones.parquet"),
                         columns=["zone_id", "vertices"])

    def geom(b: pa.Table) -> pd.DataFrame:
        rows = []
        for i in range(b.num_rows):  # zones are the result-sized small side
            zid = int(b["zone_id"][i].as_py())
            verts = b["vertices"][i].as_py()
            pts = ", ".join(f"{verts[j]:.6f} {verts[j + 1]:.6f}"
                            for j in range(0, len(verts), 2))
            xs, ys = parse_wkt_polygon(f"POLYGON (({pts}))")
            xi = np.round(xs * 1e6).astype(np.int64)
            yi = np.round(ys * 1e6).astype(np.int64)
            cross = xi * np.roll(yi, -1) - np.roll(xi, -1) * yi
            area2 = abs(int(cross.sum()))
            rows.append((zid, len(xi), area2))
        out = pd.DataFrame(rows, columns=["zone_id", "n_verts", "area2_scaled"])
        out["area"] = out["area2_scaled"].astype(np.float64) / 2e12
        return out.astype({"zone_id": "int64", "n_verts": "int64",
                           "area2_scaled": "int64"})

    out = ds.map_batches(geom, batch_format="pyarrow", batch_size=256).to_pandas()
    return out.sort_values("zone_id").reset_index(drop=True)


def polygon_geometry_oracle_sql(sf: float = 0.01) -> str:
    from . import synth

    d = synth.synth_dir(sf)
    return f"""
WITH z AS (
  SELECT zone_id, vertices, len(vertices) // 2 AS nv,
         list_transform(vertices, v -> CAST(round(v * 1000000) AS BIGINT)) AS s
  FROM read_parquet('{d}/zones.parquet')
), m AS (
  SELECT zone_id, nv,
         abs(list_aggregate(list_transform(range(1, nv + 1), i ->
             s[2*i-1] * s[2*(i % nv)+2] - s[2*(i % nv)+1] * s[2*i]
         ), 'sum')) AS area2_scaled
  FROM z
)
SELECT CAST(zone_id AS BIGINT) AS zone_id, CAST(nv AS BIGINT) AS n_verts,
       CAST(area2_scaled AS BIGINT) AS area2_scaled,
       CAST(CAST(area2_scaled AS BIGINT) AS DOUBLE) / 2000000000000.0 AS area
FROM m
"""


# ------------------------------------------------- Z-order (Morton) keys

def morton_interleave16(xi: np.ndarray, yi: np.ndarray) -> np.ndarray:
    """Interleave two 16-bit integer arrays into 32-bit Morton codes —
    the Z-order clustering key lakehouse tables sort/partition spatial
    data by (locality-preserving: nearby points share key prefixes).
    Magic-number bit spread, fully vectorized."""
    def spread(v: np.ndarray) -> np.ndarray:
        v = v.astype(np.uint64)
        v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF)
        v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F)
        v = (v | (v << np.uint64(2))) & np.uint64(0x33333333)
        v = (v | (v << np.uint64(1))) & np.uint64(0x55555555)
        return v
    return (spread(xi) | (spread(yi) << np.uint64(1))).astype(np.int64)


def q_zorder_keys(sf_dir: str) -> pd.DataFrame:
    """Morton clustering key per event point plus its level-8 Z-cell —
    the key a 100 TB table would be range-partitioned on so spatially
    close rows land in the same files (the engine's cell_encode is the
    hierarchical sibling; Z-order is the linearized one).

    Exactness: grid coordinates by pure integer scaling ((k·65536)//36000
    from the same integer congruences as POINT_SQL), the interleave is
    bit arithmetic, and the SQL oracle rebuilds the code as a 16-term
    bit-shift sum — no floats anywhere."""
    ds = read_table(sf_dir, "events", columns=["event_id"])

    def enc(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], dtype=np.int64)
        k = (eid * 7919) % 36000
        m = (eid * 104729) % 18000
        xi = (k * 65536) // 36000
        yi = (m * 65536) // 18000
        z = morton_interleave16(xi, yi)
        return pa.table({"event_id": pa.array(eid), "morton": pa.array(z),
                         "zcell": pa.array(z >> 16)})

    out = ds.map_batches(enc, batch_format="pyarrow").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


Q_ZORDER_KEYS_SQL = """
WITH pts AS (
  SELECT event_id,
         ((event_id * 7919) % 36000) * 65536 // 36000 AS xi,
         ((event_id * 104729) % 18000) * 65536 // 18000 AS yi
  FROM events
), z AS (
  SELECT event_id,
         CAST(SUM(((xi >> b.b) & 1) * power(2, 2 * b.b)::BIGINT
                  + ((yi >> b.b) & 1) * power(2, 2 * b.b + 1)::BIGINT)
              AS BIGINT) AS morton
  FROM pts, LATERAL (SELECT unnest(generate_series(0, 15)) AS b) b
  GROUP BY event_id
)
SELECT event_id, morton, morton >> 16 AS zcell FROM z
"""


# ---------------------------------------------------- Z-order range scan

ZR_X0, ZR_X1 = 9000, 15000   # query bbox in the 16-bit integer grid
ZR_Y0, ZR_Y1 = 20000, 26000


def q_zorder_range_scan(sf_dir: str) -> pd.DataFrame:
    """Bbox query answered through the Z-order index: the query rectangle
    decomposes into its covering level-8 Z-cells (the high-byte lattice),
    candidate points are pruned by zcell membership BEFORE the exact bbox
    test touches coordinates — the scan-pruning pattern a Z-ordered
    100 TB table turns into file skipping.  The pruning is provably
    lossless (a point inside the bbox lies in a covering cell), so the
    result matches the full-scan oracle exactly."""
    ds = read_table(sf_dir, "events", columns=["event_id"])

    # covering cells: the rectangle of high bytes, morton-interleaved
    cx0, cx1 = ZR_X0 >> 8, ZR_X1 >> 8
    cy0, cy1 = ZR_Y0 >> 8, ZR_Y1 >> 8
    gx, gy = np.meshgrid(np.arange(cx0, cx1 + 1), np.arange(cy0, cy1 + 1))
    # sorted array (not a set) so np.isin takes its sorted fast path and
    # the conversion happens ONCE on the driver, not per scan batch
    cover = np.unique(morton_interleave16(gx.ravel().astype(np.uint64),
                                          gy.ravel().astype(np.uint64)))

    def scan(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], dtype=np.int64)
        k = (eid * 7919) % 36000
        m = (eid * 104729) % 18000
        xi = (k * 65536) // 36000
        yi = (m * 65536) // 18000
        zc = morton_interleave16(xi >> 8, yi >> 8)
        cand = np.isin(zc, cover)
        hit = (cand & (xi >= ZR_X0) & (xi <= ZR_X1)
               & (yi >= ZR_Y0) & (yi <= ZR_Y1))
        return pa.table({"event_id": pa.array(eid[hit]),
                         "xi": pa.array(xi[hit]), "yi": pa.array(yi[hit])})

    out = ds.map_batches(scan, batch_format="pyarrow").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


Q_ZORDER_RANGE_SCAN_SQL = f"""
SELECT event_id,
       ((event_id * 7919) % 36000) * 65536 // 36000 AS xi,
       ((event_id * 104729) % 18000) * 65536 // 18000 AS yi
FROM events
WHERE ((event_id * 7919) % 36000) * 65536 // 36000 BETWEEN {ZR_X0} AND {ZR_X1}
  AND ((event_id * 104729) % 18000) * 65536 // 18000 BETWEEN {ZR_Y0} AND {ZR_Y1}
"""


# ----------------------------- space-time cube trend (emerging hot spots)

ST_BINS = 30                       # daily bins over the events month
ST_T0_US = 1_704_067_200_000_000   # epoch µs of 2024-01-01T00:00:00Z
ST_BIN_US = 86_400_000_000         # one day
ST_CELLS_X = 8                     # 8×8 coarse cells over the point grid


def _st_cube_partial(b: pa.Table) -> pa.Table:
    """Shared (cell, day-bin) count partial of the space-time cube —
    ONE definition so the Mann-Kendall and Theil-Sen gates cannot
    drift apart on the cube construction."""
    eid = np.asarray(b["event_id"], dtype=np.int64)
    us = b["ts"].cast(pa.int64()).to_numpy()
    cx = ((eid * 7919) % 36000) // (36000 // ST_CELLS_X)
    cy = ((eid * 104729) % 18000) // (18000 // ST_CELLS_X)
    cell = cy * ST_CELLS_X + cx
    d = (us - ST_T0_US) // ST_BIN_US
    ok = (d >= 0) & (d < ST_BINS)
    t = pa.table({"cell_id": pa.array(cell[ok]),
                  "bin": pa.array(d[ok]),
                  "n": pa.array(np.ones(int(ok.sum()), np.int64))})
    g = t.group_by(["cell_id", "bin"]).aggregate([("n", "sum")])
    return g.rename_columns(["cell_id", "bin", "n"])


def q_spacetime_trend(sf_dir: str) -> pd.DataFrame:
    """Emerging-hot-spot trend (the ArcGIS Space Time Cube shape,
    reference family: the zonal/temporal analytics of SURVEY §2.4): events
    aggregate into a (cell, day) cube, then each cell's {ST_BINS}-day
    count series gets the Mann-Kendall S statistic
    S = Σ_{{i<j}} sign(c_j − c_i) — the standard nonparametric trend test
    behind emerging-hot-spot classification.  Integer and order-free, so
    the DuckDB pairwise-join oracle is bit-exact.

    Engine shape: per-batch Arrow count partials → ONE cell-keyed exchange
    of cube-sized rows (O(cells·bins·blocks), never events) → per-cell
    vectorized pairwise sign matrix (30×30 upper triangle = 435 pairs).
    Empty days count as zero: each group densifies its own series, so the
    cube never materializes rows for quiet days."""
    ds = read_table(sf_dir, "events", columns=["event_id", "ts"])
    iu, ju = np.triu_indices(ST_BINS, 1)

    def mk_cell(g: pd.DataFrame) -> pd.DataFrame:
        c = np.zeros(ST_BINS, np.int64)
        # several partial rows may hit the same bin — accumulate, not assign
        np.add.at(c, g["bin"].to_numpy(np.int64), g["n"].to_numpy(np.int64))
        s = int(np.sign(c[ju] - c[iu]).sum())
        return pd.DataFrame({"cell_id": [int(g["cell_id"].iloc[0])],
                             "s_stat": [s], "n_events": [int(c.sum())]})

    out = (ds.map_batches(_st_cube_partial, batch_format="pyarrow",
                          batch_size=65536)
           .groupby("cell_id")
           .map_groups(mk_cell, batch_format="pandas")
           .to_pandas())
    return (out.astype({"cell_id": "int64", "s_stat": "int64",
                        "n_events": "int64"})
            .sort_values("cell_id").reset_index(drop=True))


Q_SPACETIME_TREND_SQL = f"""
WITH pts AS (
  SELECT ((event_id * 104729) % 18000) // {18000 // ST_CELLS_X} * {ST_CELLS_X}
         + ((event_id * 7919) % 36000) // {36000 // ST_CELLS_X} AS cell_id,
         (epoch_us(ts) - {ST_T0_US}) // {ST_BIN_US} AS bin
  FROM events
  WHERE (epoch_us(ts) - {ST_T0_US}) // {ST_BIN_US}
        BETWEEN 0 AND {ST_BINS - 1}
), counts AS (
  SELECT cell_id, bin, CAST(COUNT(*) AS BIGINT) AS n
  FROM pts GROUP BY cell_id, bin
), dense AS (
  SELECT c.cell_id, t.b AS bin, COALESCE(k.n, 0) AS n
  FROM (SELECT DISTINCT cell_id FROM counts) c
  CROSS JOIN (SELECT CAST(range AS BIGINT) AS b FROM range(0, {ST_BINS})) t
  LEFT JOIN counts k ON k.cell_id = c.cell_id AND k.bin = t.b
)
, trend AS (
  SELECT d1.cell_id AS cell_id,
         CAST(SUM(SIGN(d2.n - d1.n)) AS BIGINT) AS s_stat
  FROM dense d1 JOIN dense d2 ON d2.cell_id = d1.cell_id AND d2.bin > d1.bin
  GROUP BY d1.cell_id
), totals AS (
  SELECT cell_id, CAST(SUM(n) AS BIGINT) AS n_events
  FROM dense GROUP BY cell_id
)
SELECT p.cell_id AS cell_id, p.s_stat AS s_stat, t.n_events AS n_events
FROM trend p JOIN totals t ON t.cell_id = p.cell_id
ORDER BY cell_id
"""


# -------------------------------------- per-user trajectory path length

def q_trajectory_length(sf_dir: str) -> pd.DataFrame:
    """Track analysis (the trajectory/GPS-path shape): each user's events,
    ordered by (ts, event_id), form a polyline over the integer point
    grid; output per user = leg count and total path length in EXACT
    integer-floored euclidean units.  ⌊√d²⌋ is computed as float sqrt
    plus a ±1 integer correction, so fp rounding can never flip a length
    and the LAG-window oracle is bit-exact.

    Engine shape: user-hash shards (windows._user_shard), one lexsort per
    shard, vectorized diffs — no global sort, no per-user Python."""
    from .windows import _user_shard

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def traj_shard(g: pd.DataFrame) -> pd.DataFrame:
        eid = g["event_id"].to_numpy(np.int64)
        ts = g["ts"].astype("int64").to_numpy()
        u = g["user_id"].to_numpy(np.int64)
        order = np.lexsort((eid, ts, u))
        eid, u = eid[order], u[order]
        k = (eid * 7919) % 36000
        m = (eid * 104729) % 18000
        same = np.zeros(eid.size, bool)
        same[1:] = u[1:] == u[:-1]
        dk = np.zeros(eid.size, np.int64)
        dm = np.zeros(eid.size, np.int64)
        dk[1:], dm[1:] = k[1:] - k[:-1], m[1:] - m[:-1]
        d2 = np.where(same, dk * dk + dm * dm, 0)
        s = np.floor(np.sqrt(d2.astype(np.float64))).astype(np.int64)
        # exact isqrt: correctly-rounded sqrt errs by at most 1 here
        s += ((s + 1) * (s + 1) <= d2).astype(np.int64)
        s -= (s * s > d2).astype(np.int64)
        df = pd.DataFrame({"user_id": u,
                           "n_legs": same.astype(np.int64),
                           "path_len": np.where(same, s, 0)})
        out = df.groupby("user_id", as_index=False).sum()
        return out[out["n_legs"] > 0]  # single-event users have no legs

    out = (ds.map_batches(_user_shard, batch_format="pyarrow")
           .groupby("shard")
           .map_groups(traj_shard, batch_format="pandas")
           .to_pandas())
    return (out.astype({"user_id": "int64", "n_legs": "int64",
                        "path_len": "int64"})
            .sort_values("user_id").reset_index(drop=True))


Q_TRAJECTORY_LENGTH_SQL = """
WITH p AS (
  SELECT user_id, ts, event_id,
         (event_id * 7919) % 36000 AS k,
         (event_id * 104729) % 18000 AS m
  FROM events
), lagged AS (
  SELECT user_id,
         k - LAG(k) OVER w AS dk,
         m - LAG(m) OVER w AS dm
  FROM p WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), legs AS (
  SELECT user_id, dk * dk + dm * dm AS d2 FROM lagged WHERE dk IS NOT NULL
), isq AS (
  SELECT user_id, d2,
         CAST(FLOOR(SQRT(CAST(d2 AS DOUBLE))) AS BIGINT) AS s0
  FROM legs
)
SELECT user_id,
       CAST(COUNT(*) AS BIGINT) AS n_legs,
       CAST(SUM(s0 + CASE WHEN (s0 + 1) * (s0 + 1) <= d2 THEN 1 ELSE 0 END
                   - CASE WHEN s0 * s0 > d2 THEN 1 ELSE 0 END)
            AS BIGINT) AS path_len
FROM isq GROUP BY user_id ORDER BY user_id
"""


# ------------------------------ origin-destination flow matrix

OD_CELLS = 4    # 4×4 coarse OD zones


def q_od_matrix(sf_dir: str) -> pd.DataFrame:
    """Origin-destination flow matrix (the classic movement-analytics
    rollup): each user's consecutive event pair (ordered by ts, event_id)
    is a trip from the cell of the first point to the cell of the second;
    output = trip counts per (origin, destination) cell pair.

    Engine shape: the trajectory machinery — user-hash shards, one
    lexsort, vectorized consecutive pairs — then in-shard OD partials so
    the final exchange is O(cells²·shards)."""
    from .windows import _user_shard

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def od_shard(g: pd.DataFrame) -> pd.DataFrame:
        eid = g["event_id"].to_numpy(np.int64)
        ts = g["ts"].astype("int64").to_numpy()
        u = g["user_id"].to_numpy(np.int64)
        order = np.lexsort((eid, ts, u))
        eid, u = eid[order], u[order]
        cx = ((eid * 7919) % 36000) // (36000 // OD_CELLS)
        cy = ((eid * 104729) % 18000) // (18000 // OD_CELLS)
        cell = cy * OD_CELLS + cx
        same = u[1:] == u[:-1]
        o_cell, d_cell = cell[:-1][same], cell[1:][same]
        key = o_cell * (OD_CELLS * OD_CELLS) + d_cell
        cnt = np.bincount(key, minlength=(OD_CELLS * OD_CELLS) ** 2)
        nz = np.flatnonzero(cnt)
        return pd.DataFrame({
            "o_cell": (nz // (OD_CELLS * OD_CELLS)).astype(np.int64),
            "d_cell": (nz % (OD_CELLS * OD_CELLS)).astype(np.int64),
            "n_trips": cnt[nz].astype(np.int64)})

    out = (ds.map_batches(_user_shard, batch_format="pyarrow")
           .groupby("shard")
           .map_groups(od_shard, batch_format="pandas")
           .to_pandas()
           .groupby(["o_cell", "d_cell"], as_index=False)["n_trips"].sum())
    return (out.astype("int64").sort_values(["o_cell", "d_cell"])
            .reset_index(drop=True))


Q_OD_MATRIX_SQL = f"""
WITH p AS (
  SELECT user_id, ts, event_id,
         ((event_id * 104729) % 18000) // {18000 // OD_CELLS} * {OD_CELLS}
         + ((event_id * 7919) % 36000) // {36000 // OD_CELLS} AS cell
  FROM events
), trips AS (
  SELECT LAG(cell) OVER w AS o_cell, cell AS d_cell,
         LAG(user_id) OVER w AS pu, user_id
  FROM p WINDOW w AS (ORDER BY user_id, ts, event_id)
)
SELECT CAST(o_cell AS BIGINT) AS o_cell, CAST(d_cell AS BIGINT) AS d_cell,
       CAST(COUNT(*) AS BIGINT) AS n_trips
FROM trips WHERE pu = user_id
GROUP BY o_cell, d_cell ORDER BY o_cell, d_cell
"""


# ------------------- quantized-trig haversine distance (geodesic gate)

HAV_QUANT = 1_000_000_000   # nano-units of the haversine term a ∈ [0,1]
HAV_LON0, HAV_LAT0 = 180.0, 0.0   # reference point


def q_haversine_dist(sf_dir: str) -> pd.DataFrame:
    """Geodesic (haversine) distance gate with QUANTIZED trig: per event,
    the haversine term a = sin²(Δφ/2) + cosφ₁cosφ₂sin²(Δλ/2) to a fixed
    reference point, floored to {HAV_QUANT} quanta.  numpy's sin/cos and
    DuckDB's libm agree to ≲1 ulp on identical double inputs, so the gate
    is exact as long as no value sits within fp noise of a rounding
    boundary — pinned by a margin pytest over the real corpus (the
    windows.q_unigram_logprob ln discipline, extended to trig).

    Every coordinate expression is written in the SAME operation order on
    both sides so the pre-trig doubles are bit-identical."""
    ds = read_table(sf_dir, "events", columns=["event_id"])
    rad = np.pi / 180.0

    def dist(b: pa.Table) -> pd.DataFrame:
        eid = np.asarray(b["event_id"], dtype=np.int64)
        x = ((eid * 7919) % 36000).astype(np.float64) / 100.0
        y = ((eid * 104729) % 18000).astype(np.float64) / 100.0 - 90.0
        dphi = (y - HAV_LAT0) * rad / 2.0
        dlam = (x - HAV_LON0) * rad / 2.0
        a = (np.sin(dphi) ** 2
             + np.cos(y * rad) * np.cos(HAV_LAT0 * rad) * np.sin(dlam) ** 2)
        qa = np.floor(a * HAV_QUANT + 0.5).astype(np.int64)
        return pd.DataFrame({"event_id": eid, "qa": qa})

    out = ds.map_batches(dist, batch_format="pyarrow",
                         batch_size=65536).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


Q_HAVERSINE_DIST_SQL = f"""
WITH p AS (
  SELECT event_id,
         CAST((event_id * 7919) % 36000 AS DOUBLE) / 100.0 AS x,
         CAST((event_id * 104729) % 18000 AS DOUBLE) / 100.0 - 90.0 AS y
  FROM events
), t AS (
  -- s*s, not pow(s,2): squaring by multiplication is the exact numpy
  -- semantics on both sides
  SELECT event_id,
         sin((y - {HAV_LAT0}) * (pi() / 180.0) / 2.0) AS sp,
         cos(y * (pi() / 180.0)) AS cy,
         cos({HAV_LAT0} * (pi() / 180.0)) AS c0,
         sin((x - {HAV_LON0}) * (pi() / 180.0) / 2.0) AS sl
  FROM p
)
SELECT event_id,
       CAST(floor((sp * sp + cy * c0 * (sl * sl))
          * {HAV_QUANT} + 0.5) AS BIGINT) AS qa
FROM t ORDER BY event_id
"""


# ---------------------------------------------- DBSCAN density clustering

# eps² = DBSCAN_K // n keeps the expected neighbor count (mean degree ≈ 2
# in the decorrelated [0,10000)² integer world) CONSTANT across scale
# factors, so the gate exercises real cluster structure at every sf
# instead of degenerating to all-noise (large n) or one giant component
# (small n).  Integer eps² means the radius predicate d² ≤ eps² never
# touches a float on either side.
DBSCAN_K = 60_000_000
DBSCAN_MINPTS = 4          # sklearn convention: |N_eps(p)| counts p itself


def _dbscan_geometry(n: int) -> tuple[int, int]:
    """(eps², cell pitch = ⌈eps⌉) for an n-point corpus."""
    import math

    e2 = DBSCAN_K // n
    eps = math.isqrt(e2)
    if eps * eps < e2:
        eps += 1
    return e2, max(eps, 1)


def _in_sorted(sorted_ids: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Membership mask of ``vals`` in an ascending id array."""
    if sorted_ids.size == 0:
        return np.zeros(vals.size, bool)
    pos = np.minimum(np.searchsorted(sorted_ids, vals), sorted_ids.size - 1)
    return sorted_ids[pos] == vals


def q_dbscan(sf_dir: str) -> pd.DataFrame:
    """Driver-frame projection of :func:`dbscan_dataset` (sorted by
    event_id) — the registry/oracle surface.  The pipeline itself,
    including the role/cluster attach, streams; only this final result
    collect is driver-side."""
    return (dbscan_dataset(sf_dir).to_pandas()
            .sort_values("event_id").reset_index(drop=True))


def dbscan_dataset(sf_dir: str) -> rd.Dataset:
    """DBSCAN density clustering (Ester et al. 1996) over the
    decorrelated integer point world (``_seg_points``): core points have
    ≥ {DBSCAN_MINPTS} neighbors within eps (self included), clusters are
    connected components of the core-core eps-graph labeled by their
    minimum core id, border points attach to the smallest neighboring
    core's cluster, the rest is noise — per point: (event_id, role,
    cluster).  The density-clustering sibling of q_radius_join (whose
    docstring promises exactly this neighborhood shape).

    Scale shape: grid pair formation at pitch ⌈eps⌉ (own cell + box-
    filtered ring, report-once owner = the lower-id point's own cell —
    the q_radius_join lowering, integer-exact here); neighbor DEGREES
    from per-batch unique-count partials through one groupby-Sum (the
    deg table is ≤ n rows, the same result-size class as the output);
    the core id set and cluster-label table broadcast once via ray.put
    (both ≤ output-sized — the repo's broadcast discipline); components
    resolve through the size dispatch shared with the region/dup-cluster
    family: driver union-find while the core-core edges fit the driver
    budget (``stages.join.DRIVER_MAX_BYTES``),
    ``trainprep.connected_components`` min-label propagation above.
    Border labels form as one more edge-sized groupby-Min.
    Skewed cells are bounded by density (eps-sized pitch ⇒ O(mean
    degree) points per cell in expectation); a pile-up would use the
    density-adapted split levels of q_rect_overlap_join_split."""
    ds = read_table(sf_dir, "events", columns=["event_id"])
    n = ds.count()
    e2, cell = _dbscan_geometry(n)

    # pair formation as a cell-keyed HASH JOIN (the q_segment_join
    # lowering): the OWN side emits one row per point, the RING side the
    # ≤9 box-filtered neighbor cells — a pair a<b matches on exactly ONE
    # ring offset (the one placing b's shifted cell on a's own cell), so
    # the join is exactly-once with no report-once bookkeeping, and the
    # distance predicate runs batch-vectorized (a map_groups over the
    # ~n/deg mostly-tiny cells paid one Python call per cell instead)
    def own_cells(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        px, py = _seg_points(eid)
        return pa.table({
            "key": pa.array((px // cell) * 100003 + py // cell),
            "a": pa.array(eid), "ax": pa.array(px), "ay": pa.array(py)})

    def ring_cells(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        px, py = _seg_points(eid)
        cx, cy = px // cell, py // cell
        parts = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    keep = np.ones(eid.size, bool)
                else:
                    # neighbor-cell box distance ≤ eps keeps the emission
                    # lossless (box dist ≤ pair dist; all integer, so the
                    # monotonicity argument is exact) while cutting the
                    # join's build side 2-4×
                    xlo = (cx + dx) * cell
                    ylo = (cy + dy) * cell
                    ddx = np.maximum(
                        np.maximum(xlo - px, px - (xlo + cell - 1)), 0)
                    ddy = np.maximum(
                        np.maximum(ylo - py, py - (ylo + cell - 1)), 0)
                    keep = ddx * ddx + ddy * ddy <= e2
                if not keep.any():
                    continue
                parts.append(pa.table({
                    "key": pa.array((cx[keep] + dx) * 100003 + cy[keep] + dy),
                    "b": pa.array(eid[keep]),
                    "bx": pa.array(px[keep]), "by": pa.array(py[keep])}))
        return pa.concat_tables(parts)

    def form(t: pa.Table) -> pa.Table:
        a = np.asarray(t["a"], np.int64)
        bb = np.asarray(t["b"], np.int64)
        dx = np.asarray(t["ax"], np.int64) - np.asarray(t["bx"], np.int64)
        dy = np.asarray(t["ay"], np.int64) - np.asarray(t["by"], np.int64)
        keep = (a < bb) & (dx * dx + dy * dy <= e2)
        return pa.table({"a": pa.array(a[keep]), "b": pa.array(bb[keep])})

    own = ds.map_batches(own_cells, batch_format="pyarrow",
                         zero_copy_batch=True)
    ring = ds.map_batches(ring_cells, batch_format="pyarrow",
                          zero_copy_batch=True)
    pairs = (hash_join(own, ring, "key", "inner")
             .map_batches(form, batch_format="pyarrow")
             .materialize())

    return _dbscan_label(ds, pairs, DBSCAN_MINPTS)


def _dbscan_label(ds: rd.Dataset, pairs: rd.Dataset, minpts: int) -> rd.Dataset:
    """The labelling tail shared by DBSCAN and ST-DBSCAN, from the
    materialized (a < b) neighbor ``pairs``: degrees from unique-count
    partials through one groupby-Sum, cores (≥ ``minpts`` with self),
    core-core components sized against the driver budget (driver
    union-find / distributed min-label), isolated cores labelling
    themselves, border labels through one edge-sized groupby-Min, then the
    per-event role/cluster attach over ``ds`` inside map_batches."""
    from ray.data.aggregate import Min

    from . import regions, trainprep

    def deg_partial(b: pa.Table) -> pa.Table:
        ids = np.concatenate([np.asarray(b["a"], np.int64),
                              np.asarray(b["b"], np.int64)])
        u, c = np.unique(ids, return_counts=True)
        return pa.table({"id": pa.array(u),
                         "c": pa.array(c.astype(np.int64))})

    deg = (pairs.map_batches(deg_partial, batch_format="pyarrow")
           .groupby("id").aggregate(Sum("c", alias_name="deg"))
           .to_pandas())
    core_ids = np.sort(deg.loc[deg["deg"] >= minpts - 1, "id"]
                       .to_numpy(np.int64))
    core_ref = ray.put(core_ids)

    def core_edges(b: pa.Table) -> pa.Table:
        cs = ray.get(core_ref)
        a = np.asarray(b["a"], np.int64)
        bb = np.asarray(b["b"], np.int64)
        keep = _in_sorted(cs, a) & _in_sorted(cs, bb)
        return pa.table({"u": pa.array(a[keep]), "v": pa.array(bb[keep])})

    ce = pairs.map_batches(core_edges, batch_format="pyarrow").materialize()
    if ce.size_bytes() <= join.DRIVER_MAX_BYTES:
        edf = ce.to_pandas()
        labels = regions.union_find_labels(edf["u"].to_numpy(np.int64),
                                           edf["v"].to_numpy(np.int64))
    else:  # pragma: no cover — exercised by the forced-dispatch pytest
        labels = trainprep.connected_components(ce)
    lbl_ids = labels["node"].to_numpy(np.int64)
    lbl_vals = labels["label"].to_numpy(np.int64)
    # isolated cores (every neighbor non-core) label themselves
    missing = np.setdiff1d(core_ids, lbl_ids)
    lbl_ids = np.concatenate([lbl_ids, missing])
    lbl_vals = np.concatenate([lbl_vals, missing])
    order = np.argsort(lbl_ids)
    lbl_ids, lbl_vals = lbl_ids[order], lbl_vals[order]
    lab_ref = ray.put((lbl_ids, lbl_vals))

    # border candidates: mixed pairs → (noncore id, core's cluster label)
    def mixed(b: pa.Table) -> pa.Table:
        cs = ray.get(core_ref)
        li, lv = ray.get(lab_ref)
        a = np.asarray(b["a"], np.int64)
        bb = np.asarray(b["b"], np.int64)
        ac, bc = _in_sorted(cs, a), _in_sorted(cs, bb)
        m1 = ac & ~bc      # a core, b border candidate
        m2 = bc & ~ac
        nid = np.concatenate([bb[m1], a[m2]])
        cid = np.concatenate([a[m1], bb[m2]])
        lbl = lv[np.searchsorted(li, cid)] if cid.size else cid
        return pa.table({"id": pa.array(nid), "lbl": pa.array(lbl)})

    bord = (pairs.map_batches(mixed, batch_format="pyarrow")
            .groupby("id").aggregate(Min("lbl", alias_name="lbl"))
            .to_pandas())

    # streamed role/cluster attach: the output-sized core-id, label and
    # border tables broadcast once; only the labeled result reaches the driver
    b_ids = np.sort(bord["id"].to_numpy(np.int64))
    b_lbl = bord.set_index("id").loc[b_ids, "lbl"].to_numpy(np.int64) \
        if len(bord) else np.empty(0, np.int64)
    bord_ref = ray.put((b_ids, b_lbl))

    def attach(b: pa.Table) -> pa.Table:
        cs = ray.get(core_ref)
        li, lv = ray.get(lab_ref)
        bi, bl = ray.get(bord_ref)
        eids = np.asarray(b["event_id"], np.int64)
        is_core = _in_sorted(cs, eids)
        is_bord = _in_sorted(bi, eids)
        cluster = np.full(eids.size, -1, np.int64)
        if cs.size:
            cluster[is_core] = lv[np.searchsorted(li, eids[is_core])]
        if bi.size:
            cluster[is_bord] = bl[np.searchsorted(bi, eids[is_bord])]
        role = np.where(is_core, "core",
                        np.where(is_bord, "border", "noise"))
        return pa.table({"event_id": pa.array(eids),
                         "role": pa.array(role),
                         "cluster": pa.array(cluster)})

    return ds.map_batches(attach, batch_format="pyarrow",
                          zero_copy_batch=True)


def _mix_sql(expr: str, mod: int = 10000) -> str:
    """The ``_seg_mix`` counter hash in DuckDB UBIGINT (mod ``mod``).

    The operand is reduced mod 2³² BEFORE the multiply — numerically
    identical ((a mod 2³²)·m mod 2³² == a·m mod 2³², and numpy's uint64
    wrap is mod 2⁶⁴ ⊇ mod 2³²) but keeps the UBIGINT product under 2⁶⁴
    for ANY counter base at ANY scale factor (bases near 6.9e9 were one
    order of magnitude from overflowing at large sf)."""
    h = (f"((CAST({expr} AS UBIGINT) % 4294967296) * 2654435761)"
         f" % 4294967296")
    return (f"CAST(xor({h}, ({h}) >> 16) * 2246822519 "
            f"% 4294967296 % {mod} AS BIGINT)")


def dbscan_oracle_sql(sf: float = 0.01) -> str:
    """Scale-parametric DBSCAN oracle: eps²/pitch literals baked per sf
    (n = sf·10⁶ events).  Pair surface via the exactly-once 9-cell
    blocking equi-join (each pair matches on precisely one ring offset),
    components via recursive min-label reachability over core-core
    edges, border labels via groupby-Min over mixed pairs — independent
    formulations of every engine stage."""
    n = round(sf * 1_000_000)
    e2, cell = _dbscan_geometry(n)
    return f"""
WITH pts AS MATERIALIZED (
  SELECT event_id AS id,
         {_mix_sql('2000000000 + 2 * event_id')} AS px,
         {_mix_sql('2000000001 + 2 * event_id')} AS py
  FROM events),
own AS MATERIALIZED (
  SELECT id, px, py, (px // {cell}) * 100003 + (py // {cell}) AS ck
  FROM pts),
ring AS MATERIALIZED (
  SELECT id, px, py,
         (px // {cell} + dx.d) * 100003 + (py // {cell} + dy.d) AS ck
  FROM pts, (VALUES (-1), (0), (1)) dx(d), (VALUES (-1), (0), (1)) dy(d)),
pairs AS MATERIALIZED (
  SELECT o.id a, c.id b FROM own o JOIN ring c ON c.ck = o.ck
  WHERE o.id < c.id
    AND (o.px-c.px)*(o.px-c.px)+(o.py-c.py)*(o.py-c.py) <= {e2}),
deg AS MATERIALIZED (
  SELECT id, COUNT(*) AS deg
  FROM (SELECT a AS id FROM pairs UNION ALL SELECT b AS id FROM pairs)
  GROUP BY id),
core AS MATERIALIZED (
  SELECT id FROM deg WHERE deg >= {DBSCAN_MINPTS - 1}),
ce AS MATERIALIZED (
  SELECT a AS u, b AS v FROM pairs
  WHERE a IN (SELECT id FROM core) AND b IN (SELECT id FROM core)),
edges AS MATERIALIZED (
  SELECT u, v FROM ce UNION ALL SELECT v AS u, u AS v FROM ce),
reach AS MATERIALIZED (
  WITH RECURSIVE rr(id, lbl) AS (
    SELECT id, id FROM core
    UNION
    SELECT e.v, rr.lbl FROM rr JOIN edges e ON e.u = rr.id
  ) SELECT id, MIN(lbl) AS lbl FROM rr GROUP BY id),
mixed AS MATERIALIZED (
  SELECT a AS cid, b AS nid FROM pairs
   WHERE a IN (SELECT id FROM core) AND b NOT IN (SELECT id FROM core)
  UNION ALL
  SELECT b AS cid, a AS nid FROM pairs
   WHERE b IN (SELECT id FROM core) AND a NOT IN (SELECT id FROM core)),
bord AS MATERIALIZED (
  SELECT m.nid AS id, MIN(c.lbl) AS lbl
  FROM mixed m JOIN reach c ON c.id = m.cid GROUP BY m.nid)
SELECT p.id AS event_id,
       CASE WHEN r2.lbl IS NOT NULL THEN 'core'
            WHEN b2.lbl IS NOT NULL THEN 'border'
            ELSE 'noise' END AS role,
       CAST(COALESCE(r2.lbl, b2.lbl, -1) AS BIGINT) AS cluster
FROM pts p
LEFT JOIN reach r2 ON r2.id = p.id
LEFT JOIN bord b2 ON b2.id = p.id
ORDER BY event_id
"""


# ------------------- Douglas-Peucker trajectory simplification

DP_STEP_MOD = 101    # walk steps ∈ [−50, 50] per axis
DP_TOL2 = 900        # tolerance² (tol = 30 walk units)
DP_PACK = 1024       # argmax pack base: > max points per trajectory


def _dp_keep(px: np.ndarray, py: np.ndarray, tol2: int) -> np.ndarray:
    """Douglas-Peucker keep mask for ONE polyline (integer coords).

    Iterative stack over intervals; the inner argmax is vectorized.  The
    deviation key is the exact integer cross² (shared denominator |v|²
    per chord, so the argmax needs no fraction comparison); a degenerate
    chord (coincident endpoints) falls back to point distance, again with
    a common denominator.  np.argmax's first-max = the smallest interior
    index, matching the oracle's ORDER BY key DESC, seq."""
    m = px.size
    keep = np.zeros(m, bool)
    keep[0] = keep[m - 1] = True
    stack = [(0, m - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi <= lo + 1:
            continue
        vx, vy = px[hi] - px[lo], py[hi] - py[lo]
        dxs = px[lo + 1:hi] - px[lo]
        dys = py[lo + 1:hi] - py[lo]
        vv = vx * vx + vy * vy
        if vv > 0:
            key = (dxs * vy - dys * vx) ** 2
            thr = tol2 * vv
        else:
            key = dxs * dxs + dys * dys
            thr = tol2
        kmax = int(np.argmax(key))
        if key[kmax] > thr:
            k = lo + 1 + kmax
            keep[k] = True
            stack.append((lo, k))
            stack.append((k, hi))
    return keep


def _walk_arrays(g: pd.DataFrame):
    """Shared trajectory-world construction for the vector-analysis
    family (Douglas-Peucker, Hausdorff): sort one shard by (user, ts,
    event_id), derive ±50 counter-mix steps per axis, and build every
    user's walk with ONE segmented cumsum.  Returns (u, eid, px, py,
    run starts, run counts, within-run seq) — all sorted, all int64."""
    eid = g["event_id"].to_numpy(np.int64)
    ts = g["ts"].astype("int64").to_numpy()
    u = g["user_id"].to_numpy(np.int64)
    order = np.lexsort((eid, ts, u))
    eid, u = eid[order], u[order]
    sx = _seg_mix(3_000_000_000 + 2 * eid, DP_STEP_MOD) - 50
    sy = _seg_mix(3_000_000_001 + 2 * eid, DP_STEP_MOD) - 50
    rs = np.r_[True, u[1:] != u[:-1]]
    starts = np.flatnonzero(rs)
    counts = np.diff(np.r_[starts, u.size])
    csx, csy = np.cumsum(sx), np.cumsum(sy)
    px = csx - np.repeat(csx[starts] - sx[starts], counts)
    py = csy - np.repeat(csy[starts] - sy[starts], counts)
    seq = np.arange(u.size) - np.repeat(starts, counts)
    return u, eid, px, py, starts, counts, seq


def q_simplify_dp(sf_dir: str) -> pd.DataFrame:
    """Douglas-Peucker polyline simplification (Ramer 1972 / Douglas &
    Peucker 1973 — the ArcGIS Simplify Line / Generalize operator) over
    per-user trajectories: each user's events ordered by (ts, event_id)
    walk an integer random path (±{DP_STEP_MOD//2} counter-mix steps per
    axis, cumulative per user), and a vertex is KEPT iff the recursive
    max-deviation split at tolerance² {DP_TOL2} retains it.  Output one
    row per event: (user_id, event_id, seq, kept).

    All geometry is exact int64 — deviation compares cross² against
    tol²·|chord|² (walk span ≤ 50·events-per-user keeps every product
    ⋘ 2⁶³; the margin is pytest-pinned).

    Engine shape: user-hash shards (windows._user_shard), ONE lexsort
    per shard, segmented cumsum builds every trajectory vectorized; the
    DP stack then runs per trajectory with a vectorized argmax inner
    loop — the recursion is inherent to the operator, the parallelism
    axis is the (corpus-sized) set of trajectories, each O(m·depth) on
    a BOUNDED m ≈ events-per-user.  The oracle replays the recursion as
    a recursive CTE whose split point is a correlated argmax subquery."""
    from .windows import _user_shard

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def dp_shard(g: pd.DataFrame) -> pd.DataFrame:
        u, eid, px, py, starts, counts, seq = _walk_arrays(g)
        if counts.size and int(counts.max()) >= DP_PACK:
            raise OverflowError(
                "trajectory longer than DP_PACK; raise DP_PACK (oracle "
                "packed-argmax base) alongside")
        kept = np.zeros(u.size, bool)
        for s, c in zip(starts, counts):
            kept[s:s + c] = _dp_keep(px[s:s + c], py[s:s + c], DP_TOL2)
        return pd.DataFrame({"user_id": u, "event_id": eid,
                             "seq": seq.astype(np.int64),
                             "kept": kept.astype(np.int64)})

    out = (ds.map_batches(_user_shard, batch_format="pyarrow")
           .groupby("shard")
           .map_groups(dp_shard, batch_format="pandas")
           .to_pandas())
    return out.sort_values(["user_id", "seq"]).reset_index(drop=True)


def _walk_pts_sql() -> str:
    """The trajectory-world `steps`/`pts` CTE pair shared by the
    Douglas-Peucker and Hausdorff oracles (mirrors `_walk_arrays`)."""
    sx = _mix_sql("3000000000 + 2 * event_id", DP_STEP_MOD) + " - 50"
    sy = _mix_sql("3000000001 + 2 * event_id", DP_STEP_MOD) + " - 50"
    return f"""steps AS MATERIALIZED (
  SELECT user_id, ts, event_id, {sx} AS sx, {sy} AS sy FROM events),
pts AS MATERIALIZED (
  SELECT user_id AS u, event_id,
         ROW_NUMBER() OVER w - 1 AS seq,
         SUM(sx) OVER w AS px, SUM(sy) OVER w AS py
  FROM steps
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
               ROWS UNBOUNDED PRECEDING))"""


def simplify_dp_oracle_sql() -> str:
    """DP oracle: window cumsum builds the trajectories, a recursive CTE
    replays the split tree — the split point is a hash-join GROUP BY per
    live interval whose MAX over the packed key·{DP_PACK} + ({DP_PACK}−1
    − seq) decodes to (max deviation, then SMALLEST seq), the engine's
    np.argmax first-max tie-break — and kept = membership in the
    interval-endpoint set."""
    key = """CASE WHEN (b.px-a.px)*(b.px-a.px)+(b.py-a.py)*(b.py-a.py) > 0
      THEN ((p.px-a.px)*(b.py-a.py)-(p.py-a.py)*(b.px-a.px))
           * ((p.px-a.px)*(b.py-a.py)-(p.py-a.py)*(b.px-a.px))
      ELSE (p.px-a.px)*(p.px-a.px)+(p.py-a.py)*(p.py-a.py) END"""
    P = DP_PACK
    return f"""
WITH RECURSIVE {_walk_pts_sql()},
iv(u, lo, hi) AS (
  SELECT u, 0, MAX(seq) FROM pts GROUP BY u
  UNION ALL
  SELECT s.u,
         CASE w.i WHEN 0 THEN s.lo ELSE s.k END,
         CASE w.i WHEN 0 THEN s.k ELSE s.hi END
  FROM (
    SELECT i.u, i.lo, i.hi,
           {P - 1} - MAX(({key}) * {P} + ({P - 1} - p.seq)) % {P} AS k,
           MAX(({key}) * {P} + ({P - 1} - p.seq)) // {P} AS mkey,
           CASE WHEN (b.px-a.px)*(b.px-a.px)+(b.py-a.py)*(b.py-a.py) > 0
             THEN {DP_TOL2} *
                  ((b.px-a.px)*(b.px-a.px)+(b.py-a.py)*(b.py-a.py))
             ELSE {DP_TOL2} END AS thr
    FROM iv i
    JOIN pts a ON a.u = i.u AND a.seq = i.lo
    JOIN pts b ON b.u = i.u AND b.seq = i.hi
    JOIN pts p ON p.u = i.u AND p.seq > i.lo AND p.seq < i.hi
    WHERE i.hi > i.lo + 1
    GROUP BY i.u, i.lo, i.hi, a.px, a.py, b.px, b.py) s,
    (VALUES (0), (1)) w(i)
  WHERE s.mkey > s.thr),
kept AS MATERIALIZED (
  -- explicit DISTINCT: inside a WITH RECURSIVE clause DuckDB gives this
  -- UNION concatenation semantics, so dedup must be spelled out
  SELECT DISTINCT u, seq FROM (
    SELECT u, lo AS seq FROM iv UNION ALL SELECT u, hi AS seq FROM iv))
SELECT p.u AS user_id, p.event_id, CAST(p.seq AS BIGINT) AS seq,
       CAST(CASE WHEN k.seq IS NOT NULL THEN 1 ELSE 0 END AS BIGINT) AS kept
FROM pts p LEFT JOIN kept k ON k.u = p.u AND k.seq = p.seq
ORDER BY user_id, seq
"""


# --------------------------------- Theil-Sen slope over the space-time cube

TS_QD = 1_000_000   # slope quantum (micro-counts per day)
TS_OFF = 10_000     # per-(cell, day) count ceiling (runtime-asserted), so
#                     the floor division runs on a NONNEGATIVE numerator —
#                     truncation == floor on both sides by construction


def q_theilsen_slope(sf_dir: str) -> pd.DataFrame:
    """Theil-Sen (Sen 1968) robust trend slope per space-time-cube cell —
    the SLOPE half of ArcGIS Emerging Hot Spot analysis (Mann-Kendall S,
    q_spacetime_trend, is the significance half; both run over the SAME
    shared cube partial, `_st_cube_partial`).  Per cell: the median of
    all {ST_BINS}·({ST_BINS}−1)/2 pairwise day-count slopes
    (c_j − c_i)/(j − i), quantized to integer micro-counts/day via
    ⌊(dy + OFF·dx)·QD / dx⌋ − OFF·QD so the numerator is nonnegative
    (floor == truncation on both engines) and the median is an ELEMENT
    of an exact integer multiset — order-free, hash-exact.  The pair
    count (435) is odd, so the lower median is the unambiguous middle.

    Engine shape identical to the Mann-Kendall gate: per-batch Arrow
    count partials → ONE cell-keyed exchange of cube-sized rows →
    per-cell vectorized pair slopes + one sort of 435 ints."""
    ds = read_table(sf_dir, "events", columns=["event_id", "ts"])
    iu, ju = np.triu_indices(ST_BINS, 1)

    def ts_cell(g: pd.DataFrame) -> pd.DataFrame:
        c = np.zeros(ST_BINS, np.int64)
        np.add.at(c, g["bin"].to_numpy(np.int64), g["n"].to_numpy(np.int64))
        if int(c.max()) >= TS_OFF:
            raise OverflowError(
                "per-(cell, day) count exceeds TS_OFF; raise TS_OFF (and "
                "the oracle literal) together")
        dy = c[ju] - c[iu]
        dx = ju - iu
        q = ((dy + TS_OFF * dx) * TS_QD) // dx - TS_OFF * TS_QD
        q.sort()
        return pd.DataFrame({"cell_id": [int(g["cell_id"].iloc[0])],
                             "ts_slope_q": [int(q[(q.size - 1) // 2])]})

    out = (ds.map_batches(_st_cube_partial, batch_format="pyarrow",
                          batch_size=65536)
           .groupby("cell_id")
           .map_groups(ts_cell, batch_format="pandas")
           .to_pandas())
    return (out.astype({"cell_id": "int64", "ts_slope_q": "int64"})
            .sort_values("cell_id").reset_index(drop=True))


Q_THEILSEN_SLOPE_SQL = f"""
WITH pts AS (
  SELECT ((event_id * 104729) % 18000) // {18000 // ST_CELLS_X} * {ST_CELLS_X}
         + ((event_id * 7919) % 36000) // {36000 // ST_CELLS_X} AS cell_id,
         (epoch_us(ts) - {ST_T0_US}) // {ST_BIN_US} AS bin
  FROM events
  WHERE (epoch_us(ts) - {ST_T0_US}) // {ST_BIN_US}
        BETWEEN 0 AND {ST_BINS - 1}
), counts AS (
  SELECT cell_id, bin, CAST(COUNT(*) AS BIGINT) AS n
  FROM pts GROUP BY cell_id, bin
), dense AS (
  SELECT c.cell_id, t.b AS bin, COALESCE(k.n, 0) AS n
  FROM (SELECT DISTINCT cell_id FROM counts) c
  CROSS JOIN (SELECT CAST(range AS BIGINT) AS b FROM range(0, {ST_BINS})) t
  LEFT JOIN counts k ON k.cell_id = c.cell_id AND k.bin = t.b
), slopes AS (
  SELECT d1.cell_id,
         ((d2.n - d1.n + {TS_OFF} * (d2.bin - d1.bin)) * {TS_QD})
           // (d2.bin - d1.bin) - {TS_OFF * TS_QD} AS q
  FROM dense d1 JOIN dense d2
    ON d2.cell_id = d1.cell_id AND d2.bin > d1.bin
)
SELECT cell_id, CAST(quantile_disc(q, 0.5) AS BIGINT) AS ts_slope_q
FROM slopes GROUP BY cell_id ORDER BY cell_id
"""


# ------------------------- segment-intersection self-join (vector overlay)

def q_segment_intersect(sf_dir: str) -> pd.DataFrame:
    """Proper segment-crossing self-join over the order-segment world —
    the vector-OVERLAY primitive (ArcGIS Intersect / topology validation):
    every unordered pair of segments that strictly cross (shared
    endpoints, touches and collinear overlaps are excluded by the strict
    sign test, keeping the predicate purely integer).  Crossing iff
    d1·d2 < 0 AND d3·d4 < 0 with the four orientation cross products —
    differences stay ≤ ~130, so every product is ⋘ 2⁶³.

    Scale shape: each segment emits its ≤2×2 bbox cells (span ≤
    {SEG_MAXD} < pitch {SEG_CELL}); candidate pairs form as ONE
    cell-keyed hash self-join; the report-once owner is the cell
    containing the component-wise MAX of the two bbox-min corners — that
    corner lies in both bboxes, so exactly one shared cell owns each
    pair (the rect-overlap-join ownership rule)."""
    segs = read_table(sf_dir, "orders", columns=["o_orderkey"])

    def seg_cells(b: pa.Table, side: str) -> pa.Table:
        k = np.asarray(b["o_orderkey"], dtype=np.int64)
        x1, y1, x2, y2 = _seg_endpoints(k)
        cx0 = np.minimum(x1, x2) // SEG_CELL
        cx1 = np.maximum(x1, x2) // SEG_CELL
        cy0 = np.minimum(y1, y2) // SEG_CELL
        cy1 = np.maximum(y1, y2) // SEG_CELL
        parts = []
        for i in (0, 1):
            for j in (0, 1):
                keep = (cx0 + i <= cx1) & (cy0 + j <= cy1)
                if not keep.any():
                    continue
                parts.append(pa.table({
                    "key": pa.array((cx0[keep] + i) * 1024 + cy0[keep] + j),
                    f"{side}id": pa.array(k[keep]),
                    f"{side}x1": pa.array(x1[keep]),
                    f"{side}y1": pa.array(y1[keep]),
                    f"{side}x2": pa.array(x2[keep]),
                    f"{side}y2": pa.array(y2[keep]),
                    f"{side}cx": pa.array(cx0[keep]),
                    f"{side}cy": pa.array(cy0[keep])}))
        return pa.concat_tables(parts)

    def cross_pairs(t: pa.Table) -> pa.Table:
        key = np.asarray(t["key"], np.int64)
        a = {c: np.asarray(t["a" + c], np.int64)
             for c in ("id", "x1", "y1", "x2", "y2", "cx", "cy")}
        b = {c: np.asarray(t["b" + c], np.int64)
             for c in ("id", "x1", "y1", "x2", "y2", "cx", "cy")}
        own = ((np.maximum(a["cx"], b["cx"]) * 1024
                + np.maximum(a["cy"], b["cy"])) == key)
        keep = (a["id"] < b["id"]) & own
        for c in a:
            a[c] = a[c][keep]
            b[c] = b[c][keep]
        d1 = ((b["x2"] - b["x1"]) * (a["y1"] - b["y1"])
              - (b["y2"] - b["y1"]) * (a["x1"] - b["x1"]))
        d2 = ((b["x2"] - b["x1"]) * (a["y2"] - b["y1"])
              - (b["y2"] - b["y1"]) * (a["x2"] - b["x1"]))
        d3 = ((a["x2"] - a["x1"]) * (b["y1"] - a["y1"])
              - (a["y2"] - a["y1"]) * (b["x1"] - a["x1"]))
        d4 = ((a["x2"] - a["x1"]) * (b["y2"] - a["y1"])
              - (a["y2"] - a["y1"]) * (b["x2"] - a["x1"]))
        hit = (d1 * d2 < 0) & (d3 * d4 < 0)
        return pa.table({"a_id": pa.array(a["id"][hit]),
                         "b_id": pa.array(b["id"][hit])})

    left = segs.map_batches(lambda t: seg_cells(t, "a"),
                            batch_format="pyarrow", zero_copy_batch=True)
    right = segs.map_batches(lambda t: seg_cells(t, "b"),
                             batch_format="pyarrow", zero_copy_batch=True)
    out = (hash_join(left, right, "key", "inner")
           .map_batches(cross_pairs, batch_format="pyarrow")
           .to_pandas())
    return out.sort_values(["a_id", "b_id"]).reset_index(drop=True)


def segment_intersect_oracle_sql() -> str:
    """Same endpoint mixes, 2×2 bbox-cell emission, equi-join blocking,
    owner-corner dedup and strict sign predicate — in plain SQL."""
    ends = f"""
  SELECT o_orderkey AS id,
         {_mix_sql('4 * o_orderkey + 0')} AS rx1,
         {_mix_sql('4 * o_orderkey + 1')} AS ry1,
         {_mix_sql('4 * o_orderkey + 2', 81)} - 40 AS dx,
         {_mix_sql('4 * o_orderkey + 3', 81)} - 40 AS dy
  FROM orders"""
    return f"""
WITH raw AS MATERIALIZED ({ends}),
segs AS MATERIALIZED (
  SELECT id, rx1 AS x1, ry1 AS y1,
         LEAST(GREATEST(rx1 + dx, 0), 9999) AS x2,
         LEAST(GREATEST(ry1 + dy, 0), 9999) AS y2
  FROM raw),
boxed AS MATERIALIZED (
  SELECT *, LEAST(x1, x2) // {SEG_CELL} AS cx0,
         GREATEST(x1, x2) // {SEG_CELL} AS cx1,
         LEAST(y1, y2) // {SEG_CELL} AS cy0,
         GREATEST(y1, y2) // {SEG_CELL} AS cy1
  FROM segs),
cells AS MATERIALIZED (
  SELECT b.*, (b.cx0 + dx.d) * 1024 + (b.cy0 + dy.d) AS ck
  FROM boxed b, (VALUES (0), (1)) dx(d), (VALUES (0), (1)) dy(d)
  WHERE b.cx0 + dx.d <= b.cx1 AND b.cy0 + dy.d <= b.cy1)
SELECT a.id AS a_id, b.id AS b_id
FROM cells a JOIN cells b ON b.ck = a.ck
WHERE a.id < b.id
  AND (GREATEST(a.cx0, b.cx0) * 1024 + GREATEST(a.cy0, b.cy0)) = a.ck
  AND ((b.x2-b.x1)*(a.y1-b.y1) - (b.y2-b.y1)*(a.x1-b.x1))
    * ((b.x2-b.x1)*(a.y2-b.y1) - (b.y2-b.y1)*(a.x2-b.x1)) < 0
  AND ((a.x2-a.x1)*(b.y1-a.y1) - (a.y2-a.y1)*(b.x1-a.x1))
    * ((a.x2-a.x1)*(b.y2-a.y1) - (a.y2-a.y1)*(b.x2-a.x1)) < 0
ORDER BY a_id, b_id
"""


# ------------------- Hausdorff trajectory distance (broadcast queries)

HAUS_QUERY_USERS = (0, 1, 2)   # the query-side trajectories


def q_hausdorff(sf_dir: str) -> pd.DataFrame:
    """Symmetric Hausdorff distance² between EVERY user trajectory and
    each of {len(HAUS_QUERY_USERS)} query trajectories (users
    {HAUS_QUERY_USERS}) over the shared walk world (`_walk_arrays` — the
    same polylines Douglas-Peucker simplifies): H² = max(max_a min_b d²,
    max_b min_a d²) — the trajectory-similarity primitive behind
    map-matching and track clustering, exact in int64 throughout (d² of
    bounded integer walks; max/min never leave the integers).

    Engine shape: the query side is a pushdown-filtered read of
    {len(HAUS_QUERY_USERS)} users, built once on the driver and
    broadcast via ray.put (O(queries·m) — result-sized); the corpus side
    streams through user-hash shards, ONE lexsort + segmented cumsum per
    shard, then a vectorized m×m distance matrix per (trajectory, query)
    — no shuffle beyond the shard exchange, text... coordinates never
    cross the wire twice."""
    import pyarrow.compute as pc

    from .sources import read_table_filtered
    from .windows import _user_shard

    qt = read_table_filtered(
        sf_dir, "events", ["event_id", "ts", "user_id"],
        pc.field("user_id").isin(list(HAUS_QUERY_USERS))).to_pandas()
    qu, _, qpx, qpy, qstarts, qcounts, _ = _walk_arrays(qt)
    queries = {int(qu[s]): (qpx[s:s + c], qpy[s:s + c])
               for s, c in zip(qstarts, qcounts)}
    qref = ray.put(queries)

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def haus_shard(g: pd.DataFrame) -> pd.DataFrame:
        qs = ray.get(qref)
        u, _, px, py, starts, counts, _ = _walk_arrays(g)
        rows = []
        for s, c in zip(starts, counts):
            ax, ay = px[s:s + c], py[s:s + c]
            for qid in sorted(qs):
                bx, by = qs[qid]
                d2 = ((ax[:, None] - bx[None, :]) ** 2
                      + (ay[:, None] - by[None, :]) ** 2)
                h = max(int(d2.min(axis=1).max()),
                        int(d2.min(axis=0).max()))
                rows.append((int(u[s]), qid, h))
        return pd.DataFrame(rows,
                            columns=["user_id", "q_id", "hausdorff_d2"])

    out = (ds.map_batches(_user_shard, batch_format="pyarrow")
           .groupby("shard")
           .map_groups(haus_shard, batch_format="pandas")
           .to_pandas())
    out = out.astype({"user_id": "int64", "q_id": "int64",
                      "hausdorff_d2": "int64"})
    return out.sort_values(["user_id", "q_id"]).reset_index(drop=True)


def hausdorff_oracle_sql() -> str:
    """Max-min on each side of the full (corpus point × query point)
    distance join — the textbook definition, streamed through two
    GROUP BY passes (the join is deliberately NOT materialized)."""
    qin = ", ".join(str(q) for q in HAUS_QUERY_USERS)
    return f"""
WITH {_walk_pts_sql()},
qts AS MATERIALIZED (SELECT * FROM pts WHERE u IN ({qin})),
d AS (
  SELECT p.u AS user_id, q.u AS q_id, p.seq AS pseq, q.seq AS qseq,
         (p.px-q.px)*(p.px-q.px)+(p.py-q.py)*(p.py-q.py) AS d2
  FROM pts p JOIN qts q ON TRUE),
fwd AS (
  SELECT user_id, q_id, MAX(md) AS h1 FROM (
    SELECT user_id, q_id, pseq, MIN(d2) AS md
    FROM d GROUP BY user_id, q_id, pseq)
  GROUP BY user_id, q_id),
bwd AS (
  SELECT user_id, q_id, MAX(md) AS h2 FROM (
    SELECT user_id, q_id, qseq, MIN(d2) AS md
    FROM d GROUP BY user_id, q_id, qseq)
  GROUP BY user_id, q_id)
SELECT f.user_id, f.q_id,
       CAST(GREATEST(f.h1, b.h2) AS BIGINT) AS hausdorff_d2
FROM fwd f JOIN bwd b USING (user_id, q_id)
ORDER BY user_id, q_id
"""


# ----------------- point-pattern statistics (Ripley's K pair counts)

RIPLEY_R = (40, 80, 120)   # analysis radii over the [0,10000)² point world


def q_ripley_k(sf_dir: str) -> pd.DataFrame:
    """Ripley's K-function pair counts (the ArcGIS Multi-Distance Spatial
    Cluster Analysis tool): the number of unordered point pairs within
    euclidean distance r for each analysis radius r ∈ {RIPLEY_R}, over
    the decorrelated integer point world (`_seg_points`, exact d²) —
    K̂(r) = area·2·n_pairs(r)/n² is a driver formula of the exact counts.

    Scale shape: ONE grid pass at pitch = max r (the q_radius_join
    box-filtered emission; report-once owner = the lower-id point's own
    cell); per cell the pair distances classify into all radii at once
    via vectorized compares, so the exchange is O(radii·cells) partial
    rows, never the pairs."""
    rmax = max(RIPLEY_R)
    cell = rmax
    ds = read_table(sf_dir, "events", columns=["event_id"])

    def emit(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        px, py = _seg_points(eid)
        cx, cy = px // cell, py // cell
        parts = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    keep = np.ones(eid.size, bool)
                else:
                    xlo = (cx + dx) * cell
                    ylo = (cy + dy) * cell
                    ddx = np.maximum(
                        np.maximum(xlo - px, px - (xlo + cell - 1)), 0)
                    ddy = np.maximum(
                        np.maximum(ylo - py, py - (ylo + cell - 1)), 0)
                    keep = ddx * ddx + ddy * ddy <= rmax * rmax
                if not keep.any():
                    continue
                parts.append(pa.table({
                    "key": pa.array((cx[keep] + dx) * 100003 + cy[keep] + dy),
                    "own": pa.array(np.full(int(keep.sum()),
                                            dx == 0 and dy == 0)),
                    "id": pa.array(eid[keep]),
                    "x": pa.array(px[keep]), "y": pa.array(py[keep])}))
        return pa.concat_tables(parts)

    def count_cell(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["id"].to_numpy(np.int64)
        x = g["x"].to_numpy(np.int64)
        y = g["y"].to_numpy(np.int64)
        own = g["own"].to_numpy(bool)
        ox, oy, oid = x[own], y[own], ids[own]
        if oid.size == 0:
            return pd.DataFrame({"r": [], "n_pairs": []}).astype("int64")
        d2 = ((ox[:, None] - x[None, :]) ** 2
              + (oy[:, None] - y[None, :]) ** 2)
        lt = oid[:, None] < ids[None, :]
        return pd.DataFrame({
            "r": np.asarray(RIPLEY_R, np.int64),
            "n_pairs": [int((lt & (d2 <= r * r)).sum())
                        for r in RIPLEY_R]})

    out = (ds.map_batches(emit, batch_format="pyarrow")
           .groupby("key").map_groups(count_cell, batch_format="pandas")
           .groupby("r").aggregate(Sum("n_pairs", alias_name="n_pairs"))
           .to_pandas())
    return (out.astype({"r": "int64", "n_pairs": "int64"})
            .sort_values("r").reset_index(drop=True))


def ripley_k_oracle_sql() -> str:
    """Blocked self-join (the dbscan oracle's exactly-once 9-cell
    equi-join) classified into every radius at once."""
    rmax = max(RIPLEY_R)
    radii = ", ".join(f"({r})" for r in RIPLEY_R)
    return f"""
WITH pts AS MATERIALIZED (
  SELECT event_id AS id,
         {_mix_sql('2000000000 + 2 * event_id')} AS px,
         {_mix_sql('2000000001 + 2 * event_id')} AS py
  FROM events),
own AS MATERIALIZED (
  SELECT id, px, py, (px // {rmax}) * 100003 + (py // {rmax}) AS ck
  FROM pts),
ring AS MATERIALIZED (
  SELECT id, px, py,
         (px // {rmax} + dx.d) * 100003 + (py // {rmax} + dy.d) AS ck
  FROM pts, (VALUES (-1), (0), (1)) dx(d), (VALUES (-1), (0), (1)) dy(d)),
pd2 AS MATERIALIZED (
  SELECT (o.px-c.px)*(o.px-c.px)+(o.py-c.py)*(o.py-c.py) AS d2
  FROM own o JOIN ring c ON c.ck = o.ck
  WHERE o.id < c.id
    AND (o.px-c.px)*(o.px-c.px)+(o.py-c.py)*(o.py-c.py)
        <= {rmax * rmax})
SELECT CAST(r AS BIGINT) AS r,
       CAST(COUNT(*) FILTER (WHERE d2 <= r * r) AS BIGINT) AS n_pairs
FROM pd2 CROSS JOIN (VALUES {radii}) rr(r)
GROUP BY r ORDER BY r
"""


# --------- Clark-Evans nearest-neighbour index (exact NN distances)

NN_R = 200   # NN search radius; beyond it a point reports isolated


def q_nn_index(sf_dir: str) -> pd.DataFrame:
    """Clark-Evans nearest-neighbour statistics (the ArcGIS Average
    Nearest Neighbor tool): per point, the exact squared distance to its
    nearest other point within {NN_R} (grid units), reduced to the
    sufficient integer statistics — point count, isolated count (no
    neighbour within {NN_R}), Σ⌊√d²ₙₙ⌋ (the exact-isqrt discipline of
    q_trajectory_length) and Σd²ₙₙ.  R̂ = mean NN dist / (0.5/√λ) is a
    driver formula.

    Scale shape: each point probes its own cell's group, which holds
    every point within {NN_R} via the box-filtered ring emission
    (q_radius_join's lossless-emission argument), so the per-point min
    is complete after ONE groupby(cell) — partials are 4 integers per
    cell."""
    cell = NN_R
    ds = read_table(sf_dir, "events", columns=["event_id"])

    def emit(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        px, py = _seg_points(eid)
        cx, cy = px // cell, py // cell
        parts = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    keep = np.ones(eid.size, bool)
                else:
                    xlo = (cx + dx) * cell
                    ylo = (cy + dy) * cell
                    ddx = np.maximum(
                        np.maximum(xlo - px, px - (xlo + cell - 1)), 0)
                    ddy = np.maximum(
                        np.maximum(ylo - py, py - (ylo + cell - 1)), 0)
                    keep = ddx * ddx + ddy * ddy <= NN_R * NN_R
                if not keep.any():
                    continue
                parts.append(pa.table({
                    "key": pa.array((cx[keep] + dx) * 100003 + cy[keep] + dy),
                    "own": pa.array(np.full(int(keep.sum()),
                                            dx == 0 and dy == 0)),
                    "id": pa.array(eid[keep]),
                    "x": pa.array(px[keep]), "y": pa.array(py[keep])}))
        return pa.concat_tables(parts)

    def nn_cell(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["id"].to_numpy(np.int64)
        x = g["x"].to_numpy(np.int64)
        y = g["y"].to_numpy(np.int64)
        own = g["own"].to_numpy(bool)
        ox, oy, oid = x[own], y[own], ids[own]
        if oid.size == 0:
            return pd.DataFrame()
        d2 = ((ox[:, None] - x[None, :]) ** 2
              + (oy[:, None] - y[None, :]) ** 2)
        d2[oid[:, None] == ids[None, :]] = np.iinfo(np.int64).max
        mn = d2.min(axis=1)
        hit = mn <= NN_R * NN_R
        md = mn[hit]
        s = np.floor(np.sqrt(md.astype(np.float64))).astype(np.int64)
        s += ((s + 1) * (s + 1) <= md).astype(np.int64)
        s -= (s * s > md).astype(np.int64)
        return pd.DataFrame({
            "n_points": [int(oid.size)],
            "n_isolated": [int((~hit).sum())],
            "sum_nn_len": [int(s.sum())],
            "sum_nn_d2": [int(md.sum())]}).astype("int64")

    p = (ds.map_batches(emit, batch_format="pyarrow")
         .groupby("key").map_groups(nn_cell, batch_format="pandas")
         .to_pandas())
    return pd.DataFrame([{c: int(p[c].sum()) for c in
                          ["n_points", "n_isolated",
                           "sum_nn_len", "sum_nn_d2"]}]).astype("int64")


def nn_index_oracle_sql() -> str:
    """Per-point MIN over the blocked (both-directions) neighbour join,
    the same ±1-corrected ⌊√·⌋, then one global rollup."""
    return f"""
WITH pts AS MATERIALIZED (
  SELECT event_id AS id,
         {_mix_sql('2000000000 + 2 * event_id')} AS px,
         {_mix_sql('2000000001 + 2 * event_id')} AS py
  FROM events),
own AS MATERIALIZED (
  SELECT id, px, py, (px // {NN_R}) * 100003 + (py // {NN_R}) AS ck
  FROM pts),
ring AS MATERIALIZED (
  SELECT id, px, py,
         (px // {NN_R} + dx.d) * 100003 + (py // {NN_R} + dy.d) AS ck
  FROM pts, (VALUES (-1), (0), (1)) dx(d), (VALUES (-1), (0), (1)) dy(d)),
mn AS MATERIALIZED (
  SELECT o.id,
         MIN((o.px-c.px)*(o.px-c.px)+(o.py-c.py)*(o.py-c.py)) AS d2
  FROM own o JOIN ring c ON c.ck = o.ck AND c.id <> o.id
  WHERE (o.px-c.px)*(o.px-c.px)+(o.py-c.py)*(o.py-c.py)
        <= {NN_R * NN_R}
  GROUP BY o.id),
isq AS (
  SELECT d2, CAST(FLOOR(SQRT(CAST(d2 AS DOUBLE))) AS BIGINT) AS s0
  FROM mn)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM pts) AS n_points,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM pts)
         - CAST(COUNT(*) AS BIGINT) AS n_isolated,
       CAST(SUM(s0 + CASE WHEN (s0+1)*(s0+1) <= d2 THEN 1 ELSE 0 END
                   - CASE WHEN s0*s0 > d2 THEN 1 ELSE 0 END)
            AS BIGINT) AS sum_nn_len,
       CAST(SUM(d2) AS BIGINT) AS sum_nn_d2
FROM isq
"""


# ---------------- kernel density surface (integer Epanechnikov KDE)

KDE_C = 250    # coarse raster cell size
KDE_R = 500    # kernel radius (2 cells)


def q_kde_density(sf_dir: str) -> pd.DataFrame:
    """Kernel density estimation (the ArcGIS Kernel Density tool) on a
    coarse {KDE_C}-unit raster with an unnormalized Epanechnikov kernel,
    exact in integers: density(cell) = Σ over points within {KDE_R} of
    its center of ((2·{KDE_R})² − D2), where D2 is the doubled-coordinate
    squared distance (doubling keeps half-unit cell centers integer).
    Output: every cell that any kernel reaches, with its exact density
    mass.

    Scale shape: a pure scatter — each point emits ≤ (2·{KDE_R}/{KDE_C}
    + 1)² = 25 weighted cell rows (vectorized outer grid per batch), one
    groupby(cell)-Sum; no joins, no point ever compared to another
    point."""
    span = KDE_R // KDE_C   # kernel reach in cells
    ds = read_table(sf_dir, "events", columns=["event_id"])

    def scatter(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        px, py = _seg_points(eid)
        cx, cy = px // KDE_C, py // KDE_C
        offs = np.arange(-span, span + 1, dtype=np.int64)
        gx = cx[:, None] + offs[None, :]          # n × 5 candidate cols
        gy = cy[:, None] + offs[None, :]
        # doubled-coordinate distances point → cell center
        dx = 2 * px[:, None] - (2 * gx * KDE_C + KDE_C)
        dy = 2 * py[:, None] - (2 * gy * KDE_C + KDE_C)
        d2 = (dx * dx)[:, :, None] + (dy * dy)[:, None, :]
        w = (2 * KDE_R) ** 2 - d2
        keep = w > 0
        gxx = np.broadcast_to(gx[:, :, None], d2.shape)[keep]
        gyy = np.broadcast_to(gy[:, None, :], d2.shape)[keep]
        return pa.table({"cx": pa.array(gxx), "cy": pa.array(gyy),
                         "density": pa.array(w[keep])})

    out = (ds.map_batches(scatter, batch_format="pyarrow")
           .groupby(["cx", "cy"])
           .aggregate(Sum("density", alias_name="density"))
           .to_pandas())
    return (out.astype({"cx": "int64", "cy": "int64", "density": "int64"})
            .sort_values(["cx", "cy"]).reset_index(drop=True))


def kde_density_oracle_sql() -> str:
    """The same scatter as a points × offset-grid cross join."""
    span = KDE_R // KDE_C
    return f"""
WITH pts AS MATERIALIZED (
  SELECT {_mix_sql('2000000000 + 2 * event_id')} AS px,
         {_mix_sql('2000000001 + 2 * event_id')} AS py
  FROM events),
sc AS (
  SELECT px // {KDE_C} + ox.d AS cx, py // {KDE_C} + oy.d AS cy,
         (2*px - (2*(px // {KDE_C} + ox.d) * {KDE_C} + {KDE_C}))
           * (2*px - (2*(px // {KDE_C} + ox.d) * {KDE_C} + {KDE_C}))
         + (2*py - (2*(py // {KDE_C} + oy.d) * {KDE_C} + {KDE_C}))
           * (2*py - (2*(py // {KDE_C} + oy.d) * {KDE_C} + {KDE_C})) AS d2
  FROM pts,
       range(-{span}, {span + 1}) ox(d), range(-{span}, {span + 1}) oy(d))
SELECT CAST(cx AS BIGINT) AS cx, CAST(cy AS BIGINT) AS cy,
       CAST(SUM({(2 * KDE_R) ** 2} - d2) AS BIGINT) AS density
FROM sc WHERE d2 < {(2 * KDE_R) ** 2}
GROUP BY cx, cy ORDER BY cx, cy
"""


# -------- standard deviational ellipse moments (directional distribution)


def q_std_ellipse(sf_dir: str) -> pd.DataFrame:
    """Standard deviational ellipse (the ArcGIS Directional Distribution
    tool) per event type over the integer point world, reduced to its
    exact sufficient moments — n, Σx, Σy, Σx², Σy², Σxy — from which
    center, rotation angle and both axis lengths are driver formulas
    (the group-OLS sufficient-statistics discipline).

    Scale shape: mergeable integer partials per batch, one tiny
    groupby(type)-Sum exchange — never a second pass for the means."""
    ds = read_table(sf_dir, "events", columns=["event_id", "event_type"])

    def moments(b: pa.Table) -> pd.DataFrame:
        eid = np.asarray(b["event_id"], np.int64)
        px, py = _seg_points(eid)
        df = pd.DataFrame({"event_type": b["event_type"].to_pandas(),
                           "n": 1, "sum_x": px, "sum_y": py,
                           "sum_xx": px * px, "sum_yy": py * py,
                           "sum_xy": px * py})
        return df.groupby("event_type", as_index=False).sum()

    out = (ds.map_batches(moments, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(*[Sum(c, alias_name=c) for c in
                        ["n", "sum_x", "sum_y", "sum_xx", "sum_yy",
                         "sum_xy"]])
           .to_pandas())
    for c in ["n", "sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy"]:
        out[c] = out[c].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


def std_ellipse_oracle_sql() -> str:
    return f"""
WITH pts AS (
  SELECT event_type,
         {_mix_sql('2000000000 + 2 * event_id')} AS px,
         {_mix_sql('2000000001 + 2 * event_id')} AS py
  FROM events)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(px) AS BIGINT) AS sum_x, CAST(SUM(py) AS BIGINT) AS sum_y,
       CAST(SUM(px * px) AS BIGINT) AS sum_xx,
       CAST(SUM(py * py) AS BIGINT) AS sum_yy,
       CAST(SUM(px * py) AS BIGINT) AS sum_xy
FROM pts GROUP BY event_type ORDER BY event_type
"""
