"""Wave-9 geospatial operators: space-time co-location, vector-overlay
union coverage, and network shortest paths.

Same two-family discipline as `spatial.py`: every input world is derived
deterministically from the driver tables with integer arithmetic (the
`_seg_mix` counter hash, exact in DuckDB UBIGINT), so each engine
lowering has a bit-exact SQL oracle.

Reference parity notes: the reference (Esri/raster-functions) is a raster
operator library; these are the VECTOR analysis siblings its users run in
the same product family (Trace Proximity Events, overlay union area,
Network Analyst shortest path) re-expressed Ray-Data-first — cited per
operator below.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .sources import read_table
from .spatial import _mix_sql, _seg_mix, _seg_points

def _concat_or_empty(parts: list, schema: dict) -> pa.Table:
    """concat_tables with an explicit empty-schema fallback —
    pa.concat_tables([]) raises, and empty input batches are legal."""
    if parts:
        return pa.concat_tables(parts)
    return pa.table({k: pa.array([], t) for k, t in schema.items()})


def _tb_checked(tb: np.ndarray) -> np.ndarray:
    """Assert the 3-D blocking key's time-bucket invariant.

    The key ``((cx+dx)*100003 + cy+dy)*64 + tb+dt+1`` is collision-free
    only while every packed slot tb+dt+1 stays inside [0, 64) — i.e.
    0 <= tb <= 61 with dt in {-1,0,1}.  At >= 63 buckets, (cx, cy, tb)
    would collide with (cx, cy-1, tb+64) and a pair could surface twice.
    The events world spans 30 days (30 daily buckets), well inside the
    bound; this assert makes the invariant loud if the time span or
    bucket pitch ever changes."""
    if tb.size:
        lo, hi = int(tb.min()), int(tb.max())
        if lo < 0 or hi > 61:  # not assert: must survive python -O
            raise ValueError(
                f"3-D blocking key needs time buckets in [0, 61]; got "
                f"[{lo}, {hi}] — widen the *64 packing factor")
    return tb


def _dedup_min_id(z, eid, px, py):
    """Coordinate dedup keeping the MIN event id per (zone, px, py) —
    the shared contract of the hull/MBC oracles' MIN(event_id) GROUP BY."""
    o = np.lexsort((eid, py, px, z))
    z, eid, px, py = z[o], eid[o], px[o], py[o]
    first = np.r_[True, (z[1:] != z[:-1]) | (px[1:] != px[:-1])
                  | (py[1:] != py[:-1])]
    return z[first], eid[first], px[first], py[first]


# --------------------------------------------- space-time co-location join

STJ_R = 40                                 # co-location radius (grid units)
STJ_TAU_US = 6 * 3600 * 1_000_000          # 6-hour temporal window
STJ_TB_US = 86_400_000_000                 # time-bucket pitch (1 day >= tau)
STJ_T0_US = 1_704_067_200_000_000          # 2024-01-01T00:00:00Z (events epoch)
STJ_CELL = 500                             # spatial pitch (>= STJ_R)


def q_spacetime_join(sf_dir: str) -> pd.DataFrame:
    """Space-time co-location join (the ArcGIS *Trace Proximity Events*
    tool shape): every pair of events from DIFFERENT users within
    euclidean distance {STJ_R} (integer point world, exact d²) AND
    within {STJ_TAU_US} µs of each other — contact tracing / co-travel
    detection, both sides corpus-sized.

    Scale shape: the q_radius_join grid method lifted to 3-D — each
    point emits its own (cell_x, cell_y, time_bucket) plus the box-
    filtered 3×3×3 ring (a neighbor 3-D cell is emitted only when the
    point lies within {STJ_R} of its spatial box AND {STJ_TAU_US} of
    its time slab, so with pitch ≫ radius most points emit ~2-4 rows,
    not 27); pairs form inside groupby(3-D cell), and the report-once
    owner is the LOWER-ID event's own cell — in both emission sets, so
    each pair surfaces exactly once globally.  Spatial pitch {STJ_CELL}
    ≥ radius and bucket {STJ_TB_US} ≥ τ make the 1-ring lossless."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    R2 = STJ_R * STJ_R

    def emit(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        uid = np.asarray(b["user_id"], np.int64)
        t = b["ts"].cast(pa.int64()).to_numpy() - STJ_T0_US
        px, py = _seg_points(eid)
        cx, cy = px // STJ_CELL, py // STJ_CELL
        tb = _tb_checked(t // STJ_TB_US)
        parts = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    sp_ok = np.ones(eid.size, bool)
                else:
                    xlo = (cx + dx) * STJ_CELL
                    ylo = (cy + dy) * STJ_CELL
                    ddx = np.maximum(
                        np.maximum(xlo - px, px - (xlo + STJ_CELL - 1)), 0)
                    ddy = np.maximum(
                        np.maximum(ylo - py, py - (ylo + STJ_CELL - 1)), 0)
                    sp_ok = ddx * ddx + ddy * ddy <= R2
                if not sp_ok.any():
                    continue
                for dt in (-1, 0, 1):
                    if dt == 0:
                        keep = sp_ok
                    else:
                        # distance from t to the neighbor slab's range
                        gap = (t - (tb + 1) * STJ_TB_US + 1 if dt == 1
                               else tb * STJ_TB_US - t)
                        keep = sp_ok & (np.abs(gap) <= STJ_TAU_US)
                    if not keep.any():
                        continue
                    parts.append(pa.table({
                        "key": pa.array(((cx[keep] + dx) * 100003
                                         + cy[keep] + dy) * 64
                                        + tb[keep] + dt + 1),
                        "own": pa.array(np.full(int(keep.sum()),
                                                dx == 0 and dy == 0
                                                and dt == 0)),
                        "id": pa.array(eid[keep]), "u": pa.array(uid[keep]),
                        "x": pa.array(px[keep]), "y": pa.array(py[keep]),
                        "t": pa.array(t[keep])}))
        return _concat_or_empty(parts, {
            "key": pa.int64(), "own": pa.bool_(), "id": pa.int64(),
            "u": pa.int64(), "x": pa.int64(), "y": pa.int64(),
            "t": pa.int64()})

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["id"].to_numpy(np.int64)
        u = g["u"].to_numpy(np.int64)
        x = g["x"].to_numpy(np.int64)
        y = g["y"].to_numpy(np.int64)
        t = g["t"].to_numpy(np.int64)
        own = g["own"].to_numpy(bool)
        oi = np.nonzero(own)[0]
        if oi.size == 0:
            return pd.DataFrame({"a_id": pd.Series(dtype="int64"),
                                 "b_id": pd.Series(dtype="int64"),
                                 "d2": pd.Series(dtype="int64"),
                                 "dt_us": pd.Series(dtype="int64")})
        dx = x[oi, None] - x[None, :]
        dy = y[oi, None] - y[None, :]
        d2 = dx * dx + dy * dy
        dt = t[None, :] - t[oi, None]
        hit = ((ids[oi, None] < ids[None, :]) & (u[oi, None] != u[None, :])
               & (d2 <= R2) & (np.abs(dt) <= STJ_TAU_US))
        i, j = np.nonzero(hit)
        return pd.DataFrame({"a_id": ids[oi][i], "b_id": ids[j],
                             "d2": d2[i, j], "dt_us": dt[i, j]})

    out = (ds.map_batches(emit, batch_format="pyarrow")
           .groupby("key").map_groups(pairs, batch_format="pandas")
           .to_pandas())
    cols = ("a_id", "b_id", "d2", "dt_us")
    if out.empty:   # zero qualifying pairs is legal at tiny sf
        out = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    return (out.astype({c: "int64" for c in cols})
            .sort_values(["a_id", "b_id"]).reset_index(drop=True))


def spacetime_join_oracle_sql() -> str:
    """Exactly-once 3-D blocked self-join: each qualifying pair matches
    the (dx,dy,dt) offset mapping b's cell onto a's own cell, and only
    that one — the radius-join oracle lifted to space-time."""
    return f"""
WITH pts AS MATERIALIZED (
  SELECT event_id AS id, user_id AS u,
         {_mix_sql('2000000000 + 2 * event_id')} AS px,
         {_mix_sql('2000000001 + 2 * event_id')} AS py,
         epoch_us(ts) - {STJ_T0_US} AS t
  FROM events),
own AS MATERIALIZED (
  SELECT id, u, px, py, t,
         ((px // {STJ_CELL}) * 100003 + (py // {STJ_CELL})) * 64
         + t // {STJ_TB_US} + 1 AS ck
  FROM pts),
ring AS MATERIALIZED (
  SELECT id, u, px, py, t,
         ((px // {STJ_CELL} + dx.d) * 100003
          + (py // {STJ_CELL} + dy.d)) * 64
         + t // {STJ_TB_US} + dt.d + 1 AS ck
  FROM pts, (VALUES (-1), (0), (1)) dx(d),
            (VALUES (-1), (0), (1)) dy(d),
            (VALUES (-1), (0), (1)) dt(d))
SELECT o.id AS a_id, c.id AS b_id,
       CAST((o.px-c.px)*(o.px-c.px) + (o.py-c.py)*(o.py-c.py) AS BIGINT)
         AS d2,
       CAST(c.t - o.t AS BIGINT) AS dt_us
FROM own o JOIN ring c ON c.ck = o.ck
WHERE o.id < c.id AND o.u <> c.u
  AND (o.px-c.px)*(o.px-c.px) + (o.py-c.py)*(o.py-c.py) <= {STJ_R * STJ_R}
  AND abs(c.t - o.t) <= {STJ_TAU_US}
ORDER BY a_id, b_id
"""


# ------------------------------------------- union coverage (overlay area)

UA_BASE = 6_000_000_000    # counter offset for the rect world (decorrelated)
UA_MAXW = 60               # max rect extent per axis
UA_STRIP = 500             # x-strip pitch for the engine's sharding


def _ua_rects(keys: np.ndarray):
    """Deterministic integer rectangles from order keys: corner in
    [0,10000)², width/height in [1,{UA_MAXW}]."""
    k = keys.astype(np.int64)
    x1 = _seg_mix(UA_BASE + 4 * k, 10000)
    y1 = _seg_mix(UA_BASE + 4 * k + 1, 10000)
    w = _seg_mix(UA_BASE + 4 * k + 2, UA_MAXW) + 1
    h = _seg_mix(UA_BASE + 4 * k + 3, UA_MAXW) + 1
    return x1, y1, w, h


def q_union_area(sf_dir: str) -> pd.DataFrame:
    """Union coverage of overlapping rectangles (the vector-overlay
    *union/dissolve area* primitive — building-footprint coverage,
    burned-area mosaics): per integer x-column, the total length of the
    union of the y-intervals of every rectangle covering that column.
    Σ covered_len over columns IS the exact union area — the overlap
    double-count problem the naive Σw·h gets wrong.

    Scale shape: rectangles shuffle ONCE keyed by x-strip (pitch
    {UA_STRIP} ≫ max extent {UA_MAXW} ⇒ ≤2 strips per rect), clipped at
    the strip edge; disjoint strips make the union additive, and inside
    a strip the sweep is fully vectorized — open/close events, lexsort,
    one cumsum (coverage returns to zero inside every column, so the
    GLOBAL running sum is the per-column coverage), covered length
    accumulated with np.add.at.  No step is O(area); work is
    O(Σ widths) per strip and strips are embarrassingly parallel."""
    ds = read_table(sf_dir, "orders", columns=["o_orderkey"])

    def to_strips(b: pa.Table) -> pa.Table:
        x1, y1, w, h = _ua_rects(np.asarray(b["o_orderkey"], np.int64))
        x2 = x1 + w            # exclusive
        s_lo, s_hi = x1 // UA_STRIP, (x2 - 1) // UA_STRIP
        parts = []
        for d in (0, 1):       # a rect spans at most 2 strips
            s = s_lo + d
            keep = s <= s_hi
            if not keep.any():
                continue
            parts.append(pa.table({
                "strip": pa.array(s[keep]),
                "cx1": pa.array(np.maximum(x1[keep], s[keep] * UA_STRIP)),
                "cx2": pa.array(np.minimum(x2[keep],
                                           (s[keep] + 1) * UA_STRIP)),
                "y1": pa.array(y1[keep]),
                "y2": pa.array(y1[keep] + h[keep])}))
        return _concat_or_empty(parts, {k: pa.int64() for k in
                                        ("strip", "cx1", "cx2", "y1", "y2")})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        cx1 = g["cx1"].to_numpy(np.int64)
        cx2 = g["cx2"].to_numpy(np.int64)
        y1 = g["y1"].to_numpy(np.int64)
        y2 = g["y2"].to_numpy(np.int64)
        # explode each clipped rect to its integer columns
        w = cx2 - cx1
        off = np.repeat(np.cumsum(w) - w, w)
        col = cx1.repeat(w) + (np.arange(int(w.sum())) - off)
        oy1, oy2 = y1.repeat(w), y2.repeat(w)
        # open/close events; coverage zeroes out inside every column, so
        # one global cumsum doubles as the per-column running coverage
        ev_col = np.concatenate([col, col])
        ev_y = np.concatenate([oy1, oy2])
        ev_d = np.concatenate([np.ones(col.size, np.int64),
                               -np.ones(col.size, np.int64)])
        o = np.lexsort((ev_y, ev_col))
        ev_col, ev_y, ev_d = ev_col[o], ev_y[o], ev_d[o]
        cov = np.cumsum(ev_d)
        same = ev_col[1:] == ev_col[:-1]
        seg = np.where(same & (cov[:-1] > 0), ev_y[1:] - ev_y[:-1], 0)
        lo = int(ev_col.min()) if ev_col.size else 0
        acc = np.zeros((int(ev_col.max()) - lo + 1) if ev_col.size else 0,
                       np.int64)
        np.add.at(acc, ev_col[:-1] - lo, seg)
        nz = np.nonzero(acc)[0]
        return pd.DataFrame({"col": nz + lo, "covered_len": acc[nz]})

    out = (ds.map_batches(to_strips, batch_format="pyarrow")
           .groupby("strip").map_groups(sweep, batch_format="pandas")
           .to_pandas())
    return (out.astype({"col": "int64", "covered_len": "int64"})
            .sort_values("col").reset_index(drop=True))


def union_area_oracle_sql() -> str:
    """Gaps-and-islands union length per exploded column: sorted by
    (y1,y2), Σ max(0, y2 − max(y1, running-max prev y2)) is the union
    length — an independent formulation of the engine's event sweep."""
    x1 = _mix_sql("6000000000 + 4 * o_orderkey")
    y1 = _mix_sql("6000000001 + 4 * o_orderkey")
    w = _mix_sql("6000000002 + 4 * o_orderkey", UA_MAXW) + " + 1"
    h = _mix_sql("6000000003 + 4 * o_orderkey", UA_MAXW) + " + 1"
    return f"""
WITH rects AS MATERIALIZED (
  SELECT {x1} AS x1, {y1} AS y1, {w} AS w, {h} AS h FROM orders),
cols AS MATERIALIZED (
  SELECT x1 + t.i AS col, y1, y1 + h AS y2
  FROM rects JOIN range(0, {UA_MAXW}) t(i) ON t.i < w),
marked AS (
  SELECT col, y1, y2,
         MAX(y2) OVER (PARTITION BY col ORDER BY y1, y2
                       ROWS BETWEEN UNBOUNDED PRECEDING
                       AND 1 PRECEDING) AS pmax
  FROM cols)
SELECT CAST(col AS BIGINT) AS col,
       CAST(SUM(GREATEST(y2 - GREATEST(y1, COALESCE(pmax, y1)), 0))
            AS BIGINT) AS covered_len
FROM marked GROUP BY col HAVING covered_len > 0 ORDER BY col
"""


# --------------------------------- K-hop weighted shortest path (SSSP)

SSSP_N = 1024             # graph nodes
SSSP_K = 6                # relaxation rounds (paths of <= K edges)
SSSP_BASE = 6_500_000_000  # counter offset for the edge world
_SSSP_INF = 1 << 60


def _sssp_edges(keys: np.ndarray):
    """One weighted directed edge per order key over {SSSP_N} nodes,
    integer weights in [1,100]."""
    k = keys.astype(np.int64)
    return (_seg_mix(SSSP_BASE + 3 * k, SSSP_N),
            _seg_mix(SSSP_BASE + 3 * k + 1, SSSP_N),
            _seg_mix(SSSP_BASE + 3 * k + 2, 100) + 1)


def q_sssp_khop(sf_dir: str) -> pd.DataFrame:
    """Single-source shortest paths restricted to ≤{SSSP_K} edges
    (Bellman-Ford rounds — the Network Analyst / OD-cost-matrix
    primitive) from node 0 over the deterministic weighted edge world:
    dist_k(v) = min over paths of ≤k edges, the classic relax
    recurrence, exact integer costs.

    Scale shape: the frontier is O(N) driver state broadcast per round
    (`ray.put` once, zero-copy numpy read per task); each round is ONE
    streaming pass over the edge table emitting per-batch partial
    minima (≤N rows per batch, np.minimum.at), merged driver-side —
    result-sized, never edge-sized.  K rounds = K passes; edges are
    never materialized, re-derived from pruned key columns each pass
    (cheaper than caching at 100 TB edge scale)."""
    import ray

    ds = read_table(sf_dir, "orders", columns=["o_orderkey"])
    dist = np.full(SSSP_N, _SSSP_INF, np.int64)
    dist[0] = 0
    for _ in range(SSSP_K):
        dref = ray.put(dist)

        def relax(b: pa.Table, dref=dref) -> pa.Table:
            d = ray.get(dref)
            s, t, w = _sssp_edges(np.asarray(b["o_orderkey"], np.int64))
            m = d[s] < _SSSP_INF
            loc = np.full(SSSP_N, _SSSP_INF, np.int64)
            np.minimum.at(loc, t[m], d[s[m]] + w[m])
            nz = np.nonzero(loc < _SSSP_INF)[0]
            return pa.table({"node": pa.array(nz),
                             "dist": pa.array(loc[nz])})

        part = ds.map_batches(relax, batch_format="pyarrow").to_pandas()
        nd = dist.copy()
        if len(part):
            np.minimum.at(nd, part["node"].to_numpy(np.int64),
                          part["dist"].to_numpy(np.int64))
        if np.array_equal(nd, dist):
            break                      # converged early — rounds are idempotent
        dist = nd
    reach = np.nonzero(dist < _SSSP_INF)[0]
    return pd.DataFrame({"node": reach.astype(np.int64),
                         "dist": dist[reach]})


def sssp_khop_oracle_sql() -> str:
    """K-times unrolled relax: d_{{k+1}} = per-node MIN over (carry d_k,
    d_k + edge) — the k-means-oracle unrolling discipline."""
    s = _mix_sql("6500000000 + 3 * o_orderkey", SSSP_N)
    t = _mix_sql("6500000001 + 3 * o_orderkey", SSSP_N)
    w = _mix_sql("6500000002 + 3 * o_orderkey", 100) + " + 1"
    rounds = []
    for k in range(SSSP_K):
        rounds.append(f"""d{k + 1} AS (
  SELECT node, MIN(dist) AS dist FROM (
    SELECT node, dist FROM d{k}
    UNION ALL
    SELECT e.t AS node, d{k}.dist + e.w AS dist
    FROM d{k} JOIN edges e ON e.s = d{k}.node)
  GROUP BY node)""")
    return f"""
WITH edges AS MATERIALIZED (
  SELECT {s} AS s, {t} AS t, {w} AS w FROM orders),
d0(node, dist) AS (SELECT 0, 0),
{', '.join(rounds)}
SELECT CAST(node AS BIGINT) AS node, CAST(dist AS BIGINT) AS dist
FROM d{SSSP_K} ORDER BY node
"""


# ------------------------------------------------ per-zone convex hulls

HULL_ZONES = 16            # independent point sets (one hull each)
HULL_TARGET = 2048         # total sampled points across zones
HULL_BASE = 6_800_000_000  # zone-hash counter offset (< 2^64/2654435761)


def _hull_samp(n_events: int) -> int:
    """Scale-parametric sample modulus: ~{HULL_TARGET} points at any sf
    (the dbscan-oracle discipline — the oracle bakes the same value)."""
    return max(1, n_events // HULL_TARGET)


def _hull_chain(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain with STRICT turns (collinear boundary
    points dropped): returns indices of hull corners in CCW order.
    Input must be coordinate-deduplicated."""
    order = np.lexsort((py, px))
    x, y = px[order], py[order]

    def half(rng):
        st = []
        for i in rng:
            while len(st) >= 2:
                o, a = st[-2], st[-1]
                if ((x[a] - x[o]) * (y[i] - y[o])
                        - (y[a] - y[o]) * (x[i] - x[o])) <= 0:
                    st.pop()
                else:
                    break
            st.append(i)
        return st

    lower = half(range(len(x)))
    upper = half(range(len(x) - 1, -1, -1))
    hull = lower[:-1] + upper[:-1] if len(x) > 1 else lower
    return order[np.asarray(hull, np.int64)]


def q_convex_hull(sf_dir: str) -> pd.DataFrame:
    """Per-zone convex hulls (the ArcGIS *Minimum Bounding Geometry*
    tool, hull mode) over {HULL_ZONES} sampled point sets: output is the
    CCW-directed hull EDGE list (a_id→b_id with both endpoints'
    coordinates), coordinate-duplicates resolved to the MIN event id.

    Scale shape: the hull is an associative reduction — hull(S) ⊆
    hull(∪ hull(blocks)) — so each block emits only its LOCAL hull
    corners per zone (a per-batch combiner shrinking ~everything), and
    the zone-keyed exchange carries corner candidates, never the point
    set.  The final per-zone chain runs on O(hull) points.  Group sizes
    are bounded by the sample design (~{HULL_TARGET}/{HULL_ZONES});
    zones are the unit of parallelism."""
    ds = read_table(sf_dir, "events", columns=["event_id"])
    samp = _hull_samp(ds.count())

    def partial(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        eid = eid[eid % samp == 0]
        px, py = _seg_points(eid)
        z = _seg_mix(HULL_BASE + eid, HULL_ZONES)
        z, eid, px, py = _dedup_min_id(z, eid, px, py)
        keep_z, keep_e, keep_x, keep_y = [], [], [], []
        for zv in np.unique(z):
            m = z == zv
            h = _hull_chain(px[m], py[m])
            keep_z.append(np.full(h.size, zv))
            keep_e.append(eid[m][h])
            keep_x.append(px[m][h])
            keep_y.append(py[m][h])
        return pa.table({"zone": pa.array(np.concatenate(keep_z))
                         if keep_z else pa.array([], pa.int64()),
                         "id": pa.array(np.concatenate(keep_e))
                         if keep_z else pa.array([], pa.int64()),
                         "px": pa.array(np.concatenate(keep_x))
                         if keep_z else pa.array([], pa.int64()),
                         "py": pa.array(np.concatenate(keep_y))
                         if keep_z else pa.array([], pa.int64())})

    def final(g: pd.DataFrame) -> pd.DataFrame:
        z = g["zone"].to_numpy(np.int64)
        eid = g["id"].to_numpy(np.int64)
        px = g["px"].to_numpy(np.int64)
        py = g["py"].to_numpy(np.int64)
        z, eid, px, py = _dedup_min_id(z, eid, px, py)
        h = _hull_chain(px, py)
        if h.size < 2:        # degenerate zone: no edges (oracle agrees)
            return pd.DataFrame({c: pd.Series(dtype="int64") for c in
                                 ("zone", "a_id", "b_id", "a_x", "a_y",
                                  "b_x", "b_y")})
        nxt = np.roll(h, -1)
        return pd.DataFrame({
            "zone": np.full(h.size, int(z[0])), "a_id": eid[h],
            "b_id": eid[nxt], "a_x": px[h], "a_y": py[h],
            "b_x": px[nxt], "b_y": py[nxt]})

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("zone").map_groups(final, batch_format="pandas")
           .to_pandas())
    return (out.astype({c: "int64" for c in out.columns})
            .sort_values(["zone", "a_id", "b_id"]).reset_index(drop=True))


def convex_hull_oracle_sql(sf: float = 0.01) -> str:
    """Independent O(n³)-per-zone formulation: a directed pair (a,b) is
    a CCW hull edge iff every other zone point is strictly left of a→b
    or collinear ON the closed segment (integer cross products, exact).
    Accepts exactly the corner-to-corner edges the strict-turn chain
    emits."""
    samp = _hull_samp(round(sf * 1_000_000))
    return f"""
WITH pts AS MATERIALIZED (
  SELECT {_mix_sql('6800000000 + event_id', HULL_ZONES)} AS z,
         MIN(event_id) AS id, px, py
  FROM (SELECT event_id,
               {_mix_sql('2000000000 + 2 * event_id')} AS px,
               {_mix_sql('2000000001 + 2 * event_id')} AS py
        FROM events WHERE event_id % {samp} = 0)
  GROUP BY z, px, py),
cand AS MATERIALIZED (
  SELECT a.z, a.id AS a_id, b.id AS b_id,
         a.px AS a_x, a.py AS a_y, b.px AS b_x, b.py AS b_y
  FROM pts a JOIN pts b ON b.z = a.z AND b.id <> a.id),
bad AS (
  SELECT DISTINCT c.z, c.a_id, c.b_id
  FROM cand c JOIN pts p ON p.z = c.z
  WHERE p.id <> c.a_id AND p.id <> c.b_id
    AND NOT (
      (c.b_x-c.a_x)*(p.py-c.a_y) - (c.b_y-c.a_y)*(p.px-c.a_x) > 0
      OR ((c.b_x-c.a_x)*(p.py-c.a_y) - (c.b_y-c.a_y)*(p.px-c.a_x) = 0
          AND p.px BETWEEN LEAST(c.a_x, c.b_x) AND GREATEST(c.a_x, c.b_x)
          AND p.py BETWEEN LEAST(c.a_y, c.b_y) AND GREATEST(c.a_y, c.b_y))))
SELECT c.z AS zone, c.a_id, c.b_id, c.a_x, c.a_y, c.b_x, c.b_y
FROM cand c ANTI JOIN bad d
  ON d.z = c.z AND d.a_id = c.a_id AND d.b_id = c.b_id
ORDER BY zone, a_id, b_id
"""


# --------------------------- emerging hot spot analysis (space-time cube)

EH_FACTOR = 2     # hot iff local mean > 2x the bin's global mean
EH_PERSIST = 27   # >= 90% of the 30 bins
EH_TREND = 87     # |Mann-Kendall S| beyond this = trending (~0.2 * C(30,2))
EH_RECENT = 3     # "new" = hot only within the last 3 bins


def _eh_weights(cx, cy, day):
    """Deterministic integer event weights painting four 2x2 corner
    blocks onto the 8x8 cube grid: a rising block (6→13 over the month),
    a late-switching block (12 in the last 3 days), a falling block
    (15→8) and a constant block (10) — one per emerging-hot-spot
    category, over a background of 1."""
    lvl = day // 4
    return (1
            + (5 + lvl) * ((cx <= 1) & (cy <= 1))
            + 11 * ((cx >= 6) & (cy >= 6) & (day >= 27))
            + (14 - lvl) * ((cx <= 1) & (cy >= 6))
            + 9 * ((cx >= 6) & (cy <= 1)))


def q_emerging_hotspot(sf_dir: str) -> pd.DataFrame:
    """Emerging Hot Spot Analysis (the ArcGIS space-time-cube flagship,
    composing the q_gi_star hot test with the q_spacetime_trend
    Mann-Kendall statistic): per 8x8-grid cell, the weighted event
    counts form a 30-day series; each day's 3x3 local sum ls is HOT iff
    ls·64 > {EH_FACTOR}·G_day·win (integer cross-multiplied local-vs-
    global mean, the Gi* numerator sign — win = the edge-clipped window
    size), and the hot-day counts + the Mann-Kendall S of the ls series
    classify each cell: none / new / intensifying / diminishing /
    persistent / sporadic — all integer-decidable, hence SQL-exact.

    Scale shape: ONE streaming pass emits per-batch (cell, day, Σw)
    partials (cube-sized: 64·30 per block), merged driver-side into the
    dense cube — the r3-verdict discipline that a driver-side merge of
    result-sized partials beats a shuffle; the 3x3 neighborhood sum,
    hot test, MK pairs and CASE run vectorized on the 64x30 array.  For
    cube grids too big for one machine the same math runs as the
    q_spacetime_trend groupby(cell) lowering."""
    from .spatial import ST_BIN_US, ST_BINS, ST_T0_US

    ds = read_table(sf_dir, "events", columns=["event_id", "ts"])

    def wpartial(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        us = b["ts"].cast(pa.int64()).to_numpy()
        cx = ((eid * 7919) % 36000) // 4500
        cy = ((eid * 104729) % 18000) // 2250
        day = (us - ST_T0_US) // ST_BIN_US
        ok = (day >= 0) & (day < ST_BINS)
        cx, cy, day = cx[ok], cy[ok], day[ok]
        t = pa.table({"cell": pa.array(cy * 8 + cx), "day": pa.array(day),
                      "n": pa.array(_eh_weights(cx, cy, day))})
        g = t.group_by(["cell", "day"]).aggregate([("n", "sum")])
        # select/rename BY NAME — pyarrow's key/aggregate output column
        # order has changed across versions; positional renames could
        # silently mislabel the cube axes
        return g.select(["cell", "day", "n_sum"]).rename_columns(
            ["cell", "day", "n"])

    parts = ds.map_batches(wpartial, batch_format="pyarrow").to_pandas()
    cube = np.zeros((64, ST_BINS), np.int64)
    np.add.at(cube, (parts["cell"].to_numpy(np.int64),
                     parts["day"].to_numpy(np.int64)),
              parts["n"].to_numpy(np.int64))
    G = cube.sum(axis=0)                       # global per-day totals
    grid = cube.reshape(8, 8, ST_BINS)         # (cy, cx, day)
    pad = np.zeros((10, 10, ST_BINS), np.int64)
    pad[1:9, 1:9] = grid
    ls = sum(pad[1 + dy:9 + dy, 1 + dx:9 + dx]
             for dy in (-1, 0, 1) for dx in (-1, 0, 1))
    ax = np.where(np.isin(np.arange(8), (0, 7)), 2, 3)
    win = np.outer(ax, ax)                     # (cy, cx) clipped window size
    hot = (ls * 64 > EH_FACTOR * G[None, None, :]
           * win[:, :, None]).astype(np.int64)
    iu, ju = np.triu_indices(ST_BINS, 1)
    s = np.sign(ls[:, :, ju] - ls[:, :, iu]).sum(axis=2).astype(np.int64)
    n_hot = hot.sum(axis=2)
    n_recent = hot[:, :, ST_BINS - EH_RECENT:].sum(axis=2)
    h_last = hot[:, :, -1]
    cat = np.select(
        [n_hot == 0,
         (h_last == 1) & (n_hot == n_recent),
         (n_hot >= EH_PERSIST) & (s > EH_TREND),
         (n_hot >= EH_PERSIST) & (s < -EH_TREND),
         n_hot >= EH_PERSIST],
        ["none", "new", "intensifying", "diminishing", "persistent"],
        default="sporadic")
    cy, cx = np.divmod(np.arange(64), 8)
    return pd.DataFrame({"cell_id": np.arange(64, dtype=np.int64),
                         "n_hot": n_hot[cy, cx],
                         "s_stat": s[cy, cx],
                         "category": cat[cy, cx]})


def emerging_hotspot_oracle_sql() -> str:
    """Dense cube via range()xrange(), neighbor join on |Δcx|,|Δcy| ≤ 1,
    pairwise MK join, identical CASE arm order."""
    from .spatial import ST_BIN_US, ST_BINS, ST_T0_US

    return f"""
WITH ev AS MATERIALIZED (
  SELECT ((event_id * 7919) % 36000) // 4500 AS cx,
         ((event_id * 104729) % 18000) // 2250 AS cy,
         (epoch_us(ts) - {ST_T0_US}) // {ST_BIN_US} AS day
  FROM events
  WHERE (epoch_us(ts) - {ST_T0_US}) // {ST_BIN_US}
        BETWEEN 0 AND {ST_BINS - 1}),
wev AS (
  SELECT cy * 8 + cx AS cell, day,
         1 + CASE WHEN cx <= 1 AND cy <= 1 THEN 5 + day // 4 ELSE 0 END
           + CASE WHEN cx >= 6 AND cy >= 6 AND day >= 27 THEN 11 ELSE 0 END
           + CASE WHEN cx <= 1 AND cy >= 6 THEN 14 - day // 4 ELSE 0 END
           + CASE WHEN cx >= 6 AND cy <= 1 THEN 9 ELSE 0 END AS w
  FROM ev),
counts AS (SELECT cell, day, SUM(w) AS n FROM wev GROUP BY cell, day),
dense AS (
  SELECT c.range AS cell, b.range AS day, COALESCE(k.n, 0) AS n
  FROM range(0, 64) c CROSS JOIN range(0, {ST_BINS}) b
  LEFT JOIN counts k ON k.cell = c.range AND k.day = b.range),
g AS (SELECT day, SUM(n) AS gb FROM dense GROUP BY day),
ls AS (
  SELECT c.range AS cell, d.day, SUM(d.n) AS ls
  FROM range(0, 64) c JOIN dense d
    ON abs(d.cell % 8 - c.range % 8) <= 1
   AND abs(d.cell // 8 - c.range // 8) <= 1
  GROUP BY c.range, d.day),
win AS (
  SELECT range AS cell,
         (CASE WHEN range % 8 IN (0, 7) THEN 2 ELSE 3 END)
       * (CASE WHEN range // 8 IN (0, 7) THEN 2 ELSE 3 END) AS win
  FROM range(0, 64)),
hot AS (
  SELECT l.cell, l.day, l.ls,
         CASE WHEN l.ls * 64 > {EH_FACTOR} * g.gb * w.win
              THEN 1 ELSE 0 END AS h
  FROM ls l JOIN g USING (day) JOIN win w ON w.cell = l.cell),
mk AS (
  SELECT a.cell, SUM(SIGN(b.ls - a.ls)) AS s
  FROM hot a JOIN hot b ON b.cell = a.cell AND b.day > a.day
  GROUP BY a.cell),
agg AS (
  SELECT cell, SUM(h) AS n_hot,
         SUM(CASE WHEN day >= {ST_BINS - EH_RECENT} THEN h ELSE 0 END)
           AS n_recent,
         MAX(CASE WHEN day = {ST_BINS - 1} THEN h ELSE 0 END) AS h_last
  FROM hot GROUP BY cell)
SELECT CAST(cell AS BIGINT) AS cell_id,
       CAST(n_hot AS BIGINT) AS n_hot,
       CAST(s AS BIGINT) AS s_stat,
       CASE WHEN n_hot = 0 THEN 'none'
            WHEN h_last = 1 AND n_hot = n_recent THEN 'new'
            WHEN n_hot >= {EH_PERSIST} AND s > {EH_TREND}
              THEN 'intensifying'
            WHEN n_hot >= {EH_PERSIST} AND s < -{EH_TREND}
              THEN 'diminishing'
            WHEN n_hot >= {EH_PERSIST} THEN 'persistent'
            ELSE 'sporadic' END AS category
FROM agg JOIN mk USING (cell)
ORDER BY cell_id
"""


# ------------------------------------ trajectory resampling (time lerp)

RS_DT_US = 2 * 86_400_000_000   # resample every 2 days
RS_J = 15                       # grid instants covering the events month
RS_T0_US = 1_704_067_200_000_000


def q_trajectory_resample(sf_dir: str) -> pd.DataFrame:
    """Trajectory resampling (track interpolation — the GPS/AIS
    regularization step before any space-time analysis): each user's
    integer random walk (the Douglas-Peucker/Hausdorff world) is
    linearly interpolated at {RS_J} fixed instants T_j = T0 + j·Δ;
    positions are emitted as EXACT integer lerp numerators over the
    bracketing-ping denominator (x_num/den, y_num/den), so no division
    ever happens and the window-LEAD oracle is bit-exact.

    Scale shape: user-hash shards (windows._user_shard), one lexsort
    and one segmented cumsum per shard, then ONE vectorized
    searchsorted per user run against the {RS_J}-instant grid — no
    global sort, no per-ping Python."""
    from .spatial import DP_STEP_MOD
    from .windows import _user_shard

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    tj = RS_T0_US + RS_DT_US * np.arange(RS_J, dtype=np.int64)

    def shard(g: pd.DataFrame) -> pd.DataFrame:
        eid = g["event_id"].to_numpy(np.int64)
        ts = g["ts"].astype("int64").to_numpy()
        u = g["user_id"].to_numpy(np.int64)
        order = np.lexsort((eid, ts, u))
        eid, ts, u = eid[order], ts[order], u[order]
        sx = _seg_mix(3_000_000_000 + 2 * eid, DP_STEP_MOD) - 50
        sy = _seg_mix(3_000_000_001 + 2 * eid, DP_STEP_MOD) - 50
        rs = np.r_[True, u[1:] != u[:-1]]
        starts = np.flatnonzero(rs)
        counts = np.diff(np.r_[starts, u.size])
        csx, csy = np.cumsum(sx), np.cumsum(sy)
        px = csx - np.repeat(csx[starts] - sx[starts], counts)
        py = csy - np.repeat(csy[starts] - sy[starts], counts)
        rows = []
        for s, c in zip(starts, counts):
            t = ts[s:s + c]
            nxt = np.searchsorted(t, tj, side="right")
            ok = (nxt > 0) & (nxt < c)
            if not ok.any():
                continue
            p, n = s + nxt[ok] - 1, s + nxt[ok]
            tjv = tj[ok]
            rows.append(pd.DataFrame({
                "user_id": np.full(int(ok.sum()), u[s]),
                "j": np.nonzero(ok)[0].astype(np.int64),
                "x_num": px[p] * (ts[n] - tjv) + px[n] * (tjv - ts[p]),
                "y_num": py[p] * (ts[n] - tjv) + py[n] * (tjv - ts[p]),
                "den": ts[n] - ts[p]}))
        if not rows:
            return pd.DataFrame({c: pd.Series(dtype="int64") for c in
                                 ("user_id", "j", "x_num", "y_num", "den")})
        return pd.concat(rows, ignore_index=True)

    out = (ds.map_batches(_user_shard, batch_format="pyarrow")
           .groupby("shard").map_groups(shard, batch_format="pandas")
           .to_pandas())
    return (out.astype({c: "int64" for c in out.columns})
            .sort_values(["user_id", "j"]).reset_index(drop=True))


def trajectory_resample_oracle_sql() -> str:
    """Window cumsum walk + LEAD bracket + range-predicate join against
    the instant grid; the only matching ping is the LAST with t ≤ T_j
    (its LEAD is the first beyond), exactly the engine's
    searchsorted(side='right')."""
    from .spatial import DP_STEP_MOD

    sx = _mix_sql("3000000000 + 2 * event_id", DP_STEP_MOD) + " - 50"
    sy = _mix_sql("3000000001 + 2 * event_id", DP_STEP_MOD) + " - 50"
    return f"""
WITH steps AS MATERIALIZED (
  SELECT user_id, epoch_us(ts) AS t, event_id,
         {sx} AS sx, {sy} AS sy
  FROM events),
pts AS MATERIALIZED (
  SELECT user_id AS u, t, event_id,
         SUM(sx) OVER w AS px, SUM(sy) OVER w AS py
  FROM steps
  WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id
               ROWS UNBOUNDED PRECEDING)),
seg AS MATERIALIZED (
  SELECT u, t, px, py,
         LEAD(t) OVER w2 AS nt,
         LEAD(px) OVER w2 AS npx, LEAD(py) OVER w2 AS npy
  FROM pts WINDOW w2 AS (PARTITION BY u ORDER BY t, event_id)),
grid AS (
  SELECT range AS j, {RS_T0_US} + range * {RS_DT_US} AS tj
  FROM range(0, {RS_J}))
SELECT s.u AS user_id, CAST(g.j AS BIGINT) AS j,
       CAST(s.px * (s.nt - g.tj) + s.npx * (g.tj - s.t) AS BIGINT) AS x_num,
       CAST(s.py * (s.nt - g.tj) + s.npy * (g.tj - s.t) AS BIGINT) AS y_num,
       CAST(s.nt - s.t AS BIGINT) AS den
FROM seg s JOIN grid g ON s.t <= g.tj AND g.tj < s.nt
ORDER BY user_id, j
"""


# -------------------------------------- map matching (nearest-segment snap)

def q_map_match(sf_dir: str) -> pd.DataFrame:
    """Map matching (snap-to-road): each event point snaps to its
    NEAREST order segment within {spatial.SEG_R} — the argmin
    refinement of q_segment_join's pair surface (GPS pings → road
    links).  Distances stay the exact integer fraction (num, den) from
    `_seg_dist_parts`; the argmin ranks by the IEEE double num/den,
    which is ORDER-EXACT here: distinct candidate rationals with
    den ≤ 2·{spatial.SEG_MAXD}² differ by ≥ den⁻² ≈ 1e-7, seven orders
    above double rounding, and equal rationals round identically —
    ties then break on seg_id in both lowerings.

    Scale shape: segments emit to every cell their R-expanded bbox
    overlaps, points ONLY to their own cell — so a point's full
    candidate set co-locates in its one group and the per-cell argmin
    IS the global argmin: one exchange, no report-once bookkeeping,
    no second pass."""
    from .spatial import SEG_CELL, SEG_R, _seg_dist_parts, _seg_endpoints

    pts = read_table(sf_dir, "events", columns=["event_id"])
    segs = read_table(sf_dir, "orders", columns=["o_orderkey"])

    def pt_cells(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        px, py = _seg_points(eid)
        return pa.table({
            "key": pa.array((px // SEG_CELL) * 1024 + py // SEG_CELL),
            "pid": pa.array(eid), "px": pa.array(px), "py": pa.array(py),
            "sid": pa.array(np.full(eid.size, -1)),
            "x1": pa.array(np.zeros(eid.size, np.int64)),
            "y1": pa.array(np.zeros(eid.size, np.int64)),
            "x2": pa.array(np.zeros(eid.size, np.int64)),
            "y2": pa.array(np.zeros(eid.size, np.int64))})

    def seg_cells(b: pa.Table) -> pa.Table:
        k = np.asarray(b["o_orderkey"], np.int64)
        x1, y1, x2, y2 = _seg_endpoints(k)
        cx0 = (np.minimum(x1, x2) - SEG_R) // SEG_CELL
        cx1 = (np.maximum(x1, x2) + SEG_R) // SEG_CELL
        cy0 = (np.minimum(y1, y2) - SEG_R) // SEG_CELL
        cy1 = (np.maximum(y1, y2) + SEG_R) // SEG_CELL
        parts = []
        for i in range(3):
            for j in range(3):
                keep = (cx0 + i <= cx1) & (cy0 + j <= cy1)
                if not keep.any():
                    continue
                m = int(keep.sum())
                parts.append(pa.table({
                    "key": pa.array((cx0[keep] + i) * 1024 + cy0[keep] + j),
                    "pid": pa.array(np.full(m, -1)),
                    "px": pa.array(np.zeros(m, np.int64)),
                    "py": pa.array(np.zeros(m, np.int64)),
                    "sid": pa.array(k[keep]),
                    "x1": pa.array(x1[keep]), "y1": pa.array(y1[keep]),
                    "x2": pa.array(x2[keep]), "y2": pa.array(y2[keep])}))
        return (pa.concat_tables(parts) if parts
                else pt_cells(pa.table({"event_id": pa.array([], pa.int64())})))

    def snap(g: pd.DataFrame) -> pd.DataFrame:
        is_pt = g["pid"].to_numpy(np.int64) >= 0
        p, s = g[is_pt], g[~is_pt]
        if not len(p) or not len(s):
            return pd.DataFrame({c: pd.Series(dtype="int64") for c in
                                 ("event_id", "seg_id", "d2_num", "d2_den")})
        px = p["px"].to_numpy(np.int64)[:, None]
        py = p["py"].to_numpy(np.int64)[:, None]
        num, den = _seg_dist_parts(
            px, py, s["x1"].to_numpy(np.int64)[None, :],
            s["y1"].to_numpy(np.int64)[None, :],
            s["x2"].to_numpy(np.int64)[None, :],
            s["y2"].to_numpy(np.int64)[None, :])
        sid = s["sid"].to_numpy(np.int64)
        within = num <= SEG_R * SEG_R * den
        ratio = np.where(within, num / den, np.inf)
        # argmin by (double ratio, seg_id): encode rank via lexsort per row
        order = np.lexsort((np.broadcast_to(sid, ratio.shape), ratio), axis=1)
        best = order[:, 0]
        rows = np.nonzero(within[np.arange(len(p)), best])[0]
        return pd.DataFrame({
            "event_id": p["pid"].to_numpy(np.int64)[rows],
            "seg_id": sid[best[rows]],
            "d2_num": num[rows, best[rows]],
            "d2_den": den[rows, best[rows]]})

    out = (pts.map_batches(pt_cells, batch_format="pyarrow")
           .union(segs.map_batches(seg_cells, batch_format="pyarrow"))
           .groupby("key").map_groups(snap, batch_format="pandas")
           .to_pandas())
    return (out.astype({c: "int64" for c in out.columns})
            .sort_values("event_id").reset_index(drop=True))


def map_match_oracle_sql() -> str:
    """The segment-join pair surface (bbox IEJoin) topped with a
    ROW_NUMBER argmin over (num/den double, seg_id)."""
    from .spatial import Q_SEGMENT_JOIN_SQL

    base = Q_SEGMENT_JOIN_SQL.replace("ORDER BY event_id, seg_id", "")
    return f"""
SELECT event_id, seg_id, d2_num, d2_den FROM (
  SELECT event_id, seg_id, d2_num, d2_den,
         ROW_NUMBER() OVER (PARTITION BY event_id
             ORDER BY CAST(d2_num AS DOUBLE) / d2_den, seg_id) AS rn
  FROM ({base}))
WHERE rn = 1 ORDER BY event_id
"""


# ------------------------------------- simple kriging (exact rationals)

KR_NS = 16                      # broadcast station count
KR_S0 = 20_000_000              # pseudo-covariance sill: C(d²)=max(S0−d², 0)
KR_BASE = 6_900_000_000         # station counter offset (< 2^64/2654435761)


def _kr_stations():
    """Deterministic integer stations (coords in [0,10000)², values in
    [0,1000)) — the broadcast small side."""
    s = np.arange(KR_NS, dtype=np.int64)
    return (_seg_mix(KR_BASE + 2 * s, 10000),
            _seg_mix(KR_BASE + 2 * s + 1, 10000),
            _seg_mix(KR_BASE + 40 + s, 1000))


def q_kriging_simple(sf_dir: str) -> pd.DataFrame:
    """Simple kriging interpolation (the geostatistical sibling of
    q_idw_interp): each event point is predicted from its TWO nearest
    stations under the integer pseudo-covariance C(d²) = max({KR_S0} −
    d², 0); the 2×2 kriging system solves in closed form by Cramer, and
    the prediction is emitted as the EXACT integer fraction
    (pred_num, den = det = S0² − c12²) — no float enters the result, so
    the windowed-rank + closed-form SQL oracle is bit-exact.

    Scale shape: stations are an O(1) broadcast table rebuilt per batch
    from the counter hash (cheaper than shipping at this size; a real
    station table would be `ray.put` once); the whole query is one
    streaming map — zero shuffle, the broadcast-join discipline."""
    sx, sy, sz = _kr_stations()
    ds = read_table(sf_dir, "events", columns=["event_id"])

    def krige(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        px, py = _seg_points(eid)
        d2 = ((px[:, None] - sx[None, :]) ** 2
              + (py[:, None] - sy[None, :]) ** 2)
        # exact (d², station-id) ranking packed into one int64 key
        key = d2 * KR_NS + np.arange(KR_NS, dtype=np.int64)[None, :]
        two = np.sort(np.partition(key, 1, axis=1)[:, :2], axis=1)
        s1, s2 = two[:, 0] % KR_NS, two[:, 1] % KR_NS
        k1 = np.maximum(KR_S0 - two[:, 0] // KR_NS, 0)
        k2 = np.maximum(KR_S0 - two[:, 1] // KR_NS, 0)
        d12 = (sx[s1] - sx[s2]) ** 2 + (sy[s1] - sy[s2]) ** 2
        c12 = np.maximum(KR_S0 - d12, 0)
        det = KR_S0 * KR_S0 - c12 * c12
        w1n = k1 * KR_S0 - k2 * c12
        w2n = k2 * KR_S0 - k1 * c12
        return pa.table({"event_id": pa.array(eid),
                         "s1": pa.array(s1), "s2": pa.array(s2),
                         "pred_num": pa.array(w1n * sz[s1] + w2n * sz[s2]),
                         "den": pa.array(det)})

    out = ds.map_batches(krige, batch_format="pyarrow").to_pandas()
    return (out.astype({c: "int64" for c in out.columns})
            .sort_values("event_id").reset_index(drop=True))


def kriging_simple_oracle_sql() -> str:
    """Stations inlined as VALUES; two nearest via ROW_NUMBER over
    (d², sid); Cramer closed form in BIGINT."""
    sx, sy, sz = _kr_stations()
    vals = ", ".join(f"({i}, {int(sx[i])}, {int(sy[i])}, {int(sz[i])})"
                     for i in range(KR_NS))
    return f"""
WITH stations(sid, sx, sy, z) AS (VALUES {vals}),
pts AS MATERIALIZED (
  SELECT event_id,
         {_mix_sql('2000000000 + 2 * event_id')} AS px,
         {_mix_sql('2000000001 + 2 * event_id')} AS py
  FROM events),
ranked AS (
  SELECT p.event_id, s.sid, s.z,
         (p.px-s.sx)*(p.px-s.sx) + (p.py-s.sy)*(p.py-s.sy) AS d2,
         ROW_NUMBER() OVER (PARTITION BY p.event_id
             ORDER BY (p.px-s.sx)*(p.px-s.sx) + (p.py-s.sy)*(p.py-s.sy),
                      s.sid) AS rn
  FROM pts p CROSS JOIN stations s),
pair AS (
  SELECT event_id,
         MAX(CASE WHEN rn = 1 THEN sid END) AS s1,
         MAX(CASE WHEN rn = 2 THEN sid END) AS s2,
         MAX(CASE WHEN rn = 1 THEN GREATEST({KR_S0} - d2, 0) END) AS k1,
         MAX(CASE WHEN rn = 2 THEN GREATEST({KR_S0} - d2, 0) END) AS k2,
         MAX(CASE WHEN rn = 1 THEN z END) AS z1,
         MAX(CASE WHEN rn = 2 THEN z END) AS z2
  FROM ranked WHERE rn <= 2 GROUP BY event_id),
solved AS (
  SELECT p.event_id, p.s1, p.s2, p.k1, p.k2, p.z1, p.z2,
         GREATEST({KR_S0} - ((a.sx-b.sx)*(a.sx-b.sx)
                             + (a.sy-b.sy)*(a.sy-b.sy)), 0) AS c12
  FROM pair p JOIN stations a ON a.sid = p.s1
              JOIN stations b ON b.sid = p.s2)
SELECT CAST(event_id AS BIGINT) AS event_id,
       CAST(s1 AS BIGINT) AS s1, CAST(s2 AS BIGINT) AS s2,
       CAST((k1 * {KR_S0} - k2 * c12) * z1
            + (k2 * {KR_S0} - k1 * c12) * z2 AS BIGINT) AS pred_num,
       CAST(CAST({KR_S0} AS BIGINT) * {KR_S0} - c12 * c12 AS BIGINT) AS den
FROM solved ORDER BY event_id
"""


# ------------------------------- OD cost matrix (multi-source SSSP)

OD_SOURCES = (0, 17, 256, 777)   # origin nodes (Network Analyst facilities)


def q_od_cost_matrix(sf_dir: str) -> pd.DataFrame:
    """OD cost matrix (the ArcGIS Network Analyst *OD Cost Matrix*
    solver): ≤{SSSP_K}-edge shortest-path costs from every origin in
    {OD_SOURCES} to every reachable node, over the q_sssp_khop edge
    world — the multi-source generalization where all origins relax in
    the SAME streaming pass.

    Scale shape: the frontier is an (N × S) integer matrix broadcast
    per round (still O(N·S) driver state); each pass emits per-batch
    partial minima per (source, node) — the per-batch work is one fancy
    -indexed add and one np.minimum.at per source column, so S origins
    cost S column operations, NOT S passes."""
    import ray

    ds = read_table(sf_dir, "orders", columns=["o_orderkey"])
    S = len(OD_SOURCES)
    dist = np.full((SSSP_N, S), _SSSP_INF, np.int64)
    dist[list(OD_SOURCES), range(S)] = 0
    for _ in range(SSSP_K):
        dref = ray.put(dist)

        def relax(b: pa.Table, dref=dref) -> pa.Table:
            d = ray.get(dref)
            s, t, w = _sssp_edges(np.asarray(b["o_orderkey"], np.int64))
            loc = np.full((SSSP_N, d.shape[1]), _SSSP_INF, np.int64)
            for c in range(d.shape[1]):
                m = d[s, c] < _SSSP_INF
                np.minimum.at(loc[:, c], t[m], d[s[m], c] + w[m])
            nz, cz = np.nonzero(loc < _SSSP_INF)
            return pa.table({"src": pa.array(np.asarray(OD_SOURCES,
                                                        np.int64)[cz]),
                             "node": pa.array(nz),
                             "dist": pa.array(loc[nz, cz])})

        part = ds.map_batches(relax, batch_format="pyarrow").to_pandas()
        nd = dist.copy()
        if len(part):
            srcidx = np.searchsorted(np.sort(np.asarray(OD_SOURCES)),
                                     part["src"].to_numpy(np.int64))
            # OD_SOURCES is not sorted-order-stable in general; map back
            order = np.argsort(np.asarray(OD_SOURCES))
            col = order[srcidx]
            np.minimum.at(nd, (part["node"].to_numpy(np.int64), col),
                          part["dist"].to_numpy(np.int64))
        if np.array_equal(nd, dist):
            break
        dist = nd
    ns, cs = np.nonzero(dist < _SSSP_INF)
    return (pd.DataFrame({"src": np.asarray(OD_SOURCES, np.int64)[cs],
                          "node": ns.astype(np.int64),
                          "dist": dist[ns, cs]})
            .sort_values(["src", "node"]).reset_index(drop=True))


def od_cost_matrix_oracle_sql() -> str:
    """The sssp_khop unrolled relax carrying the source label through
    every round."""
    s = _mix_sql("6500000000 + 3 * o_orderkey", SSSP_N)
    t = _mix_sql("6500000001 + 3 * o_orderkey", SSSP_N)
    w = _mix_sql("6500000002 + 3 * o_orderkey", 100) + " + 1"
    srcs = ", ".join(f"({v})" for v in OD_SOURCES)
    rounds = []
    for k in range(SSSP_K):
        rounds.append(f"""d{k + 1} AS (
  SELECT src, node, MIN(dist) AS dist FROM (
    SELECT src, node, dist FROM d{k}
    UNION ALL
    SELECT d{k}.src, e.t AS node, d{k}.dist + e.w AS dist
    FROM d{k} JOIN edges e ON e.s = d{k}.node)
  GROUP BY src, node)""")
    return f"""
WITH edges AS MATERIALIZED (
  SELECT {s} AS s, {t} AS t, {w} AS w FROM orders),
d0(src, node, dist) AS (SELECT v, v, 0 FROM (VALUES {srcs}) o(v)),
{', '.join(rounds)}
SELECT CAST(src AS BIGINT) AS src, CAST(node AS BIGINT) AS node,
       CAST(dist AS BIGINT) AS dist
FROM d{SSSP_K} ORDER BY src, node
"""


# ---------------- geographically weighted regression (exact moments)

GWR_R = 200    # kernel bandwidth (grid units)
GWR_C = 100    # target-cell pitch (regression locations = cell centers)
GWR_ZBASE = 6_400_000_000   # attribute counter offset


def q_gwr_moments(sf_dir: str) -> pd.DataFrame:
    """Geographically Weighted Regression (the ArcGIS GWR tool), reduced
    to its exact sufficient statistics: for every raster cell center,
    the Epanechnikov-weighted local moments of z ~ β₀ + β₁·dx + β₂·dy
    over the points within bandwidth {GWR_R} — n and the nine weighted
    sums (Σw, Σw·dx, Σw·dy, Σw·z, Σw·dx², Σw·dx·dy, Σw·dy², Σw·dx·z,
    Σw·dy·z), all integers (doubled relative coordinates keep half-unit
    cell centers integer; w = (2·{GWR_R})² − D2).  The per-location 3×3
    weighted-least-squares solve is a driver formula of these moments —
    the group-OLS sufficient-statistics discipline, made spatial.

    Scale shape: identical to the q_kde_density scatter — each point
    emits ≤ (2·{GWR_R}/{GWR_C}+1)² weighted moment rows, ONE
    groupby(cell) Sum; no point-to-point comparison anywhere."""
    from ray.data.aggregate import Sum

    span = GWR_R // GWR_C
    W2 = (2 * GWR_R) ** 2
    ds = read_table(sf_dir, "events", columns=["event_id"])

    def scatter(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        px, py = _seg_points(eid)
        z = _seg_mix(GWR_ZBASE + eid, 1000)
        cx, cy = px // GWR_C, py // GWR_C
        offs = np.arange(-span, span + 1, dtype=np.int64)
        gx = cx[:, None, None] + offs[None, :, None]
        gy = cy[:, None, None] + offs[None, None, :]
        dx = 2 * px[:, None, None] - (2 * gx * GWR_C + GWR_C)
        dy = 2 * py[:, None, None] - (2 * gy * GWR_C + GWR_C)
        d2 = dx * dx + dy * dy
        w = W2 - d2
        keep = w > 0
        gx = np.broadcast_to(gx, d2.shape)[keep]
        gy = np.broadcast_to(gy, d2.shape)[keep]
        dx = np.broadcast_to(dx, d2.shape)[keep]
        dy = np.broadcast_to(dy, d2.shape)[keep]
        w = w[keep]
        zz = np.broadcast_to(z[:, None, None], d2.shape)[keep]
        return pa.table({
            "cx": pa.array(gx), "cy": pa.array(gy),
            "n": pa.array(np.ones(w.size, np.int64)),
            "sw": pa.array(w), "swx": pa.array(w * dx),
            "swy": pa.array(w * dy), "swz": pa.array(w * zz),
            "swxx": pa.array(w * dx * dx), "swxy": pa.array(w * dx * dy),
            "swyy": pa.array(w * dy * dy), "swxz": pa.array(w * dx * zz),
            "swyz": pa.array(w * dy * zz)})

    cols = ["n", "sw", "swx", "swy", "swz", "swxx", "swxy", "swyy",
            "swxz", "swyz"]
    out = (ds.map_batches(scatter, batch_format="pyarrow")
           .groupby(["cx", "cy"])
           .aggregate(*[Sum(c, alias_name=c) for c in cols])
           .to_pandas())
    return (out.astype({c: "int64" for c in out.columns})
            .sort_values(["cx", "cy"]).reset_index(drop=True))


def gwr_moments_oracle_sql() -> str:
    """The kde scatter cross join carrying the weighted moment terms."""
    span = GWR_R // GWR_C
    W2 = (2 * GWR_R) ** 2
    z = _mix_sql("6400000000 + event_id", 1000)
    return f"""
WITH pts AS MATERIALIZED (
  SELECT {_mix_sql('2000000000 + 2 * event_id')} AS px,
         {_mix_sql('2000000001 + 2 * event_id')} AS py,
         {z} AS z
  FROM events),
sc AS (
  SELECT px // {GWR_C} + ox.d AS cx, py // {GWR_C} + oy.d AS cy, z,
         2*px - (2*(px // {GWR_C} + ox.d) * {GWR_C} + {GWR_C}) AS dx,
         2*py - (2*(py // {GWR_C} + oy.d) * {GWR_C} + {GWR_C}) AS dy
  FROM pts,
       range(-{span}, {span + 1}) ox(d), range(-{span}, {span + 1}) oy(d)),
wsc AS (
  SELECT cx, cy, z, dx, dy, {W2} - (dx*dx + dy*dy) AS w
  FROM sc WHERE dx*dx + dy*dy < {W2})
SELECT CAST(cx AS BIGINT) AS cx, CAST(cy AS BIGINT) AS cy,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(w) AS BIGINT) AS sw,
       CAST(SUM(w * dx) AS BIGINT) AS swx,
       CAST(SUM(w * dy) AS BIGINT) AS swy,
       CAST(SUM(w * z) AS BIGINT) AS swz,
       CAST(SUM(w * dx * dx) AS BIGINT) AS swxx,
       CAST(SUM(w * dx * dy) AS BIGINT) AS swxy,
       CAST(SUM(w * dy * dy) AS BIGINT) AS swyy,
       CAST(SUM(w * dx * z) AS BIGINT) AS swxz,
       CAST(SUM(w * dy * z) AS BIGINT) AS swyz
FROM wsc GROUP BY cx, cy ORDER BY cx, cy
"""


# -------------------------- minimum bounding circles (exact rationals)

MBC_ZONES = 8
MBC_TARGET = 512            # total sampled points
MBC_W = 512                 # coordinate world [0,512)² — keeps every
                            # circumcircle numerator |u|² < 2^63 exactly
MBC_CBASE = 6_600_000_000   # coord counter offset
MBC_ZBASE = 6_700_000_000   # zone counter offset


def _mbc_samp(n_events: int) -> int:
    return max(1, n_events // MBC_TARGET)


def _mbc_world(eids: np.ndarray):
    return (_seg_mix(MBC_CBASE + 2 * eids, MBC_W),
            _seg_mix(MBC_CBASE + 2 * eids + 1, MBC_W),
            _seg_mix(MBC_ZBASE + eids, MBC_ZONES))


def _mbc_best(ids, xs, ys):
    """Exact minimum enclosing circle over hull corners: candidates are
    every corner pair (diameter circle, r² = |a−b|²/4) and every
    non-collinear corner triple (circumcircle, r² = |u|²/D² with u the
    doubled center offset from a and D = 2·cross); covering is tested
    against the corners only (a circle is convex, so covering the hull
    vertices covers everything); the winner is the smallest covering
    circle under the total order (exact Fraction r², support size,
    sorted id tuple) — deterministic under cocircular ties."""
    from fractions import Fraction
    from itertools import combinations

    pts = sorted(zip(ids, xs, ys))
    best = None
    for (ai, ax, ay), (bi, bx, by) in combinations(pts, 2):
        num = (ax - bx) ** 2 + (ay - by) ** 2
        if all((2 * px - ax - bx) ** 2 + (2 * py - ay - by) ** 2 <= num
               for _, px, py in pts):
            cand = (Fraction(num, 4), 2, ai, bi, -1, num, 4)
            if best is None or cand < best:
                best = cand
    for (ai, ax, ay), (bi, bx, by), (ci, cx, cy) in combinations(pts, 3):
        Axx, Ayy = bx - ax, by - ay
        Bxx, Byy = cx - ax, cy - ay
        D = 2 * (Axx * Byy - Ayy * Bxx)
        if D == 0:
            continue
        a2, b2 = Axx * Axx + Ayy * Ayy, Bxx * Bxx + Byy * Byy
        ux, uy = Byy * a2 - Ayy * b2, Axx * b2 - Bxx * a2
        num = ux * ux + uy * uy
        if all((D * (px - ax) - ux) ** 2 + (D * (py - ay) - uy) ** 2 <= num
               for _, px, py in pts):
            cand = (Fraction(num, D * D), 3, ai, bi, ci, num, D * D)
            if best is None or cand < best:
                best = cand
    return best


def q_min_bounding_circle(sf_dir: str) -> pd.DataFrame:
    """Minimum bounding circle per zone (the ArcGIS Minimum Bounding
    Geometry tool, CIRCLE mode) over {MBC_ZONES} sampled point sets in a
    {MBC_W}-unit world: output is the support-point id tuple (p3 = −1
    for diameter circles) and the EXACT rational squared radius
    (r2_num, r2_den) — the world size is chosen so every circumcircle
    numerator stays int64-exact on both engines.

    Scale shape: the q_convex_hull per-block partial-hull combiner (the
    MBC's support points are hull corners, and hull(S) ⊆ ∪ hull(blocks)),
    then an O(h³) exact search over the ~dozen surviving corners per
    zone — candidate work is bounded by the hull size, never the point
    count."""
    ds = read_table(sf_dir, "events", columns=["event_id"])
    samp = _mbc_samp(ds.count())

    def partial(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        eid = eid[eid % samp == 0]
        px, py, z = _mbc_world(eid)
        z, eid, px, py = _dedup_min_id(z, eid, px, py)
        kz, ke, kx, ky = [], [], [], []
        for zv in np.unique(z):
            m = z == zv
            h = _hull_chain(px[m], py[m])
            kz.append(np.full(h.size, zv))
            ke.append(eid[m][h])
            kx.append(px[m][h])
            ky.append(py[m][h])
        empty = pa.array([], pa.int64())
        return pa.table({"zone": pa.array(np.concatenate(kz)) if kz else empty,
                         "id": pa.array(np.concatenate(ke)) if kz else empty,
                         "px": pa.array(np.concatenate(kx)) if kz else empty,
                         "py": pa.array(np.concatenate(ky)) if kz else empty})

    def final(g: pd.DataFrame) -> pd.DataFrame:
        z = g["zone"].to_numpy(np.int64)
        eid = g["id"].to_numpy(np.int64)
        px = g["px"].to_numpy(np.int64)
        py = g["py"].to_numpy(np.int64)
        z, eid, px, py = _dedup_min_id(z, eid, px, py)
        h = _hull_chain(px, py)
        best = _mbc_best([int(eid[i]) for i in h],
                         [int(px[i]) for i in h],
                         [int(py[i]) for i in h])
        if best is None:
            return pd.DataFrame({c: pd.Series(dtype="int64") for c in
                                 ("zone", "p1", "p2", "p3",
                                  "r2_num", "r2_den")})
        _, _, p1, p2, p3, num, den = best
        return pd.DataFrame({"zone": [int(z[0])], "p1": [p1], "p2": [p2],
                             "p3": [p3], "r2_num": [num], "r2_den": [den]})

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("zone").map_groups(final, batch_format="pandas")
           .to_pandas())
    return (out.astype({c: "int64" for c in out.columns})
            .sort_values("zone").reset_index(drop=True))


def min_bounding_circle_oracle_sql(sf: float = 0.01) -> str:
    """Hull corners via the convex-hull edge test, pair + triple
    candidates, covering via int64-safe squared forms, winner via a
    NOT-EXISTS total order with HUGEINT cross-multiplied r² compares."""
    samp = _mbc_samp(round(sf * 1_000_000))
    return f"""
WITH pts AS MATERIALIZED (
  SELECT {_mix_sql('6700000000 + event_id', MBC_ZONES)} AS z,
         MIN(event_id) AS id, px, py
  FROM (SELECT event_id,
               {_mix_sql('6600000000 + 2 * event_id', MBC_W)} AS px,
               {_mix_sql('6600000001 + 2 * event_id', MBC_W)} AS py
        FROM events WHERE event_id % {samp} = 0)
  GROUP BY z, px, py),
cand0 AS MATERIALIZED (
  SELECT a.z, a.id AS a_id, b.id AS b_id,
         a.px AS ax, a.py AS ay, b.px AS bx, b.py AS by_
  FROM pts a JOIN pts b ON b.z = a.z AND b.id <> a.id),
bad AS (
  SELECT DISTINCT c.z, c.a_id, c.b_id
  FROM cand0 c JOIN pts p ON p.z = c.z
  WHERE p.id <> c.a_id AND p.id <> c.b_id
    AND NOT (
      (c.bx-c.ax)*(p.py-c.ay) - (c.by_-c.ay)*(p.px-c.ax) > 0
      OR ((c.bx-c.ax)*(p.py-c.ay) - (c.by_-c.ay)*(p.px-c.ax) = 0
          AND p.px BETWEEN LEAST(c.ax, c.bx) AND GREATEST(c.ax, c.bx)
          AND p.py BETWEEN LEAST(c.ay, c.by_) AND GREATEST(c.ay, c.by_)))),
hullv AS MATERIALIZED (
  SELECT DISTINCT p.z, p.id, p.px, p.py
  FROM pts p JOIN (
    SELECT c.z, c.a_id AS id FROM cand0 c ANTI JOIN bad d
      ON d.z = c.z AND d.a_id = c.a_id AND d.b_id = c.b_id
    UNION
    SELECT c.z, c.b_id FROM cand0 c ANTI JOIN bad d
      ON d.z = c.z AND d.a_id = c.a_id AND d.b_id = c.b_id) e
    ON e.z = p.z AND e.id = p.id),
cpair AS (
  SELECT a.z, a.id AS p1, b.id AS p2, CAST(-1 AS BIGINT) AS p3,
         (a.px-b.px)*(a.px-b.px) + (a.py-b.py)*(a.py-b.py) AS num,
         CAST(4 AS BIGINT) AS den, 2 AS nsup,
         a.px AS ax, a.py AS ay,
         a.px + b.px AS sx, a.py + b.py AS sy,
         CAST(0 AS BIGINT) AS ux, CAST(0 AS BIGINT) AS uy,
         CAST(0 AS BIGINT) AS dd
  FROM hullv a JOIN hullv b ON b.z = a.z AND b.id > a.id),
ctri AS (
  SELECT a.z, a.id AS p1, b.id AS p2, c.id AS p3,
         2*((b.px-a.px)*(c.py-a.py) - (b.py-a.py)*(c.px-a.px)) AS dd,
         (c.py-a.py)*((b.px-a.px)*(b.px-a.px) + (b.py-a.py)*(b.py-a.py))
           - (b.py-a.py)*((c.px-a.px)*(c.px-a.px) + (c.py-a.py)*(c.py-a.py))
           AS ux,
         (b.px-a.px)*((c.px-a.px)*(c.px-a.px) + (c.py-a.py)*(c.py-a.py))
           - (c.px-a.px)*((b.px-a.px)*(b.px-a.px) + (b.py-a.py)*(b.py-a.py))
           AS uy,
         a.px AS ax, a.py AS ay
  FROM hullv a JOIN hullv b ON b.z = a.z AND b.id > a.id
               JOIN hullv c ON c.z = a.z AND c.id > b.id
  WHERE (b.px-a.px)*(c.py-a.py) - (b.py-a.py)*(c.px-a.px) <> 0),
cands AS (
  SELECT z, p1, p2, p3, num, den, nsup, ax, ay, sx, sy, ux, uy, dd
  FROM cpair
  UNION ALL
  SELECT z, p1, p2, p3, ux*ux + uy*uy AS num, dd*dd AS den, 3 AS nsup,
         ax, ay, 0, 0, ux, uy, dd
  FROM ctri),
covering AS (
  SELECT c.* FROM cands c
  WHERE NOT EXISTS (
    SELECT 1 FROM hullv p WHERE p.z = c.z AND (
      (c.nsup = 2 AND
       (2*p.px - c.sx)*(2*p.px - c.sx)
       + (2*p.py - c.sy)*(2*p.py - c.sy) > c.num)
      OR
      (c.nsup = 3 AND
       (c.dd*(p.px - c.ax) - c.ux)*(c.dd*(p.px - c.ax) - c.ux)
       + (c.dd*(p.py - c.ay) - c.uy)*(c.dd*(p.py - c.ay) - c.uy)
       > c.num))))
SELECT CAST(z AS BIGINT) AS zone,
       CAST(p1 AS BIGINT) AS p1, CAST(p2 AS BIGINT) AS p2,
       CAST(p3 AS BIGINT) AS p3,
       CAST(num AS BIGINT) AS r2_num, CAST(den AS BIGINT) AS r2_den
FROM covering c
WHERE NOT EXISTS (
  SELECT 1 FROM covering j WHERE j.z = c.z AND (
    CAST(j.num AS HUGEINT) * c.den < CAST(c.num AS HUGEINT) * j.den
    OR (CAST(j.num AS HUGEINT) * c.den = CAST(c.num AS HUGEINT) * j.den
        AND (j.nsup, j.p1, j.p2, j.p3) < (c.nsup, c.p1, c.p2, c.p3))))
ORDER BY zone
"""


# ----------------------- Geary's C moments (spatial autocorrelation)

def q_geary_c(sf_dir: str) -> pd.DataFrame:
    """Global Geary's C (the local-difference complement of Moran's I —
    ArcGIS reports both from the same weights) over the counter value
    surface with rook weights, reduced to exact integer moments: n, the
    undirected pair count W, Σx, Σx² and Σ(xᵢ−xⱼ)² over adjacent pairs;
    C = (n−1)·Σw(xᵢ−xⱼ)² / (4W·Σ(xᵢ−x̄)²) is a driver formula.

    Engine shape: the q_morans_i tile-halo partial (each tile owns its
    right/down pairs, neighbors recomputed from the counter field — zero
    shuffle, one partial row per tile, driver merge of 64 tiny rows)."""
    import ray.data as rd

    from .regions import GRID_TILES, GRID_W, TILE_PX, mask_values

    tiles = rd.range(GRID_TILES * GRID_TILES, override_num_blocks=8)

    def per_tile(b: pa.Table) -> pd.DataFrame:
        rows = []
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), GRID_TILES)
            r0, c0 = ty * TILE_PX, tx * TILE_PX
            h = TILE_PX + (1 if r0 + TILE_PX < GRID_W else 0)
            w = TILE_PX + (1 if c0 + TILE_PX < GRID_W else 0)
            rr = (np.arange(r0, r0 + h, dtype=np.uint64)[:, None]
                  * np.uint64(GRID_W))
            cc = np.arange(c0, c0 + w, dtype=np.uint64)[None, :]
            x = mask_values(rr + cc).astype(np.int64)
            core = x[:TILE_PX, :TILE_PX]
            dr = x[:TILE_PX, : w - 1] - x[:TILE_PX, 1:w]
            dd = (x[: min(TILE_PX, h - 1), :TILE_PX]
                  - x[1: min(TILE_PX, h - 1) + 1, :TILE_PX])
            rows.append((TILE_PX * TILE_PX, int(dr.size + dd.size),
                         int(core.sum()), int((core * core).sum()),
                         int((dr * dr).sum() + (dd * dd).sum())))
        return pd.DataFrame(rows, columns=["n_pix", "w_und", "sum_x",
                                           "sum_x2", "diffsq"]
                            ).astype("int64")

    p = (tiles.map_batches(per_tile, batch_format="pyarrow", batch_size=8)
         .to_pandas())
    return pd.DataFrame([{c: int(p[c].sum()) for c in
                          ("n_pix", "w_und", "sum_x", "sum_x2", "diffsq")}]
                        ).astype("int64")


def geary_c_oracle_sql() -> str:
    """The Moran pair CTE with the squared-difference moment."""
    from .regions import _MORAN_X, _MORAN_XN, GRID_W

    return f"""
WITH px AS (
  SELECT CAST(range AS BIGINT) // {GRID_W} AS r,
         CAST(range AS BIGINT) % {GRID_W} AS c
  FROM range(0, {GRID_W * GRID_W})
), pairs AS (
  SELECT r, c, r AS r2, c + 1 AS c2 FROM px WHERE c + 1 < {GRID_W}
  UNION ALL
  SELECT r, c, r + 1 AS r2, c AS c2 FROM px WHERE r + 1 < {GRID_W}
)
SELECT CAST({GRID_W * GRID_W} AS BIGINT) AS n_pix,
       CAST(COUNT(*) AS BIGINT) AS w_und,
       (SELECT CAST(SUM({_MORAN_X}) AS BIGINT) FROM px) AS sum_x,
       (SELECT CAST(SUM({_MORAN_X} * {_MORAN_X}) AS BIGINT) FROM px)
         AS sum_x2,
       CAST(SUM(({_MORAN_X} - {_MORAN_XN})
                * ({_MORAN_X} - {_MORAN_XN})) AS BIGINT) AS diffsq
FROM pairs
"""


# -------------------- Knox space-time interaction statistic

KNOX_RS = (20, 40, 80)
KNOX_TAUS_US = (2 * 3600 * 1_000_000, 6 * 3600 * 1_000_000,
                24 * 3600 * 1_000_000)


def q_knox_stat(sf_dir: str) -> pd.DataFrame:
    """Knox space-time interaction counts (the near-repeat / disease-
    cluster test; Knox 1964): the number of unordered event pairs within
    spatial distance r AND temporal distance τ for every (r, τ) in
    {KNOX_RS} × {KNOX_TAUS_US} — the contingency surface the Knox test
    chi-squares.  Exact integers.

    Scale shape: the q_spacetime_join 3-D grid at the LARGEST (r, τ)
    classifies every threshold pair at once (the Ripley multi-radius
    discipline) — the exchange carries O(|thresholds|·cells) partial
    counts, never pairs."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["event_id", "ts"])
    rmax, tmax = max(KNOX_RS), max(KNOX_TAUS_US)
    cell, tb = 500, tmax

    def emit(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        t = b["ts"].cast(pa.int64()).to_numpy() - STJ_T0_US
        px, py = _seg_points(eid)
        cx, cy = px // cell, py // cell
        tk = _tb_checked(t // tb)
        parts = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    sp_ok = np.ones(eid.size, bool)
                else:
                    xlo = (cx + dx) * cell
                    ylo = (cy + dy) * cell
                    ddx = np.maximum(
                        np.maximum(xlo - px, px - (xlo + cell - 1)), 0)
                    ddy = np.maximum(
                        np.maximum(ylo - py, py - (ylo + cell - 1)), 0)
                    sp_ok = ddx * ddx + ddy * ddy <= rmax * rmax
                if not sp_ok.any():
                    continue
                for dt in (-1, 0, 1):
                    if dt == 0:
                        keep = sp_ok
                    else:
                        # temporal gap prune (the q_spacetime_join rule):
                        # a neighbor slab is needed only when t is within
                        # tau of its range — lossless, cuts the ring ~2x
                        gap = (t - (tk + 1) * tb + 1 if dt == 1
                               else tk * tb - t)
                        keep = sp_ok & (np.abs(gap) <= tmax)
                    if not keep.any():
                        continue
                    parts.append(pa.table({
                        "key": pa.array(((cx[keep] + dx) * 100003
                                         + cy[keep] + dy) * 64
                                        + tk[keep] + dt + 1),
                        "own": pa.array(np.full(int(keep.sum()),
                                                dx == 0 and dy == 0
                                                and dt == 0)),
                        "id": pa.array(eid[keep]),
                        "x": pa.array(px[keep]), "y": pa.array(py[keep]),
                        "t": pa.array(t[keep])}))
        return _concat_or_empty(parts, {
            "key": pa.int64(), "own": pa.bool_(), "id": pa.int64(),
            "x": pa.int64(), "y": pa.int64(), "t": pa.int64()})

    def count_cell(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["id"].to_numpy(np.int64)
        x = g["x"].to_numpy(np.int64)
        y = g["y"].to_numpy(np.int64)
        t = g["t"].to_numpy(np.int64)
        own = g["own"].to_numpy(bool)
        oi = np.nonzero(own)[0]
        if oi.size == 0:
            return pd.DataFrame({"r": pd.Series(dtype="int64"),
                                 "tau_us": pd.Series(dtype="int64"),
                                 "n_pairs": pd.Series(dtype="int64")})
        d2 = ((x[oi, None] - x[None, :]) ** 2
              + (y[oi, None] - y[None, :]) ** 2)
        dt = np.abs(t[None, :] - t[oi, None])
        lt = ids[oi, None] < ids[None, :]
        rows = [(r, tau, int((lt & (d2 <= r * r) & (dt <= tau)).sum()))
                for r in KNOX_RS for tau in KNOX_TAUS_US]
        return pd.DataFrame(rows, columns=["r", "tau_us", "n_pairs"]
                            ).astype("int64")

    out = (ds.map_batches(emit, batch_format="pyarrow")
           .groupby("key").map_groups(count_cell, batch_format="pandas")
           .groupby(["r", "tau_us"])
           .aggregate(Sum("n_pairs", alias_name="n_pairs"))
           .to_pandas())
    # the contingency surface is the full threshold GRID regardless of
    # how many pairs survived (zero-pair cells report 0, and an empty
    # pair surface still yields all |R|x|T| rows) — mirrors the oracle's
    # pd2-independent VALUES grid
    grid = pd.MultiIndex.from_product([KNOX_RS, KNOX_TAUS_US],
                                      names=["r", "tau_us"])
    out = (out.set_index(["r", "tau_us"]).reindex(grid, fill_value=0)
           .reset_index())
    return (out.astype({c: "int64" for c in out.columns})
            .sort_values(["r", "tau_us"]).reset_index(drop=True))


def knox_stat_oracle_sql() -> str:
    """The spacetime-join exactly-once blocked pair surface at the
    largest thresholds, classified into every (r, τ) at once."""
    rmax, tmax = max(KNOX_RS), max(KNOX_TAUS_US)
    rr = ", ".join(f"({r})" for r in KNOX_RS)
    tt = ", ".join(f"({t})" for t in KNOX_TAUS_US)
    return f"""
WITH pts AS MATERIALIZED (
  SELECT event_id AS id,
         {_mix_sql('2000000000 + 2 * event_id')} AS px,
         {_mix_sql('2000000001 + 2 * event_id')} AS py,
         epoch_us(ts) - {STJ_T0_US} AS t
  FROM events),
own AS MATERIALIZED (
  SELECT id, px, py, t,
         ((px // 500) * 100003 + (py // 500)) * 64
         + t // {tmax} + 1 AS ck
  FROM pts),
ring AS MATERIALIZED (
  SELECT id, px, py, t,
         ((px // 500 + dx.d) * 100003 + (py // 500 + dy.d)) * 64
         + t // {tmax} + dt.d + 1 AS ck
  FROM pts, (VALUES (-1), (0), (1)) dx(d),
            (VALUES (-1), (0), (1)) dy(d),
            (VALUES (-1), (0), (1)) dt(d)),
pd2 AS MATERIALIZED (
  SELECT (o.px-c.px)*(o.px-c.px) + (o.py-c.py)*(o.py-c.py) AS d2,
         abs(c.t - o.t) AS dt
  FROM own o JOIN ring c ON c.ck = o.ck
  WHERE o.id < c.id
    AND (o.px-c.px)*(o.px-c.px) + (o.py-c.py)*(o.py-c.py)
        <= {rmax * rmax}
    AND abs(c.t - o.t) <= {tmax})
SELECT CAST(r AS BIGINT) AS r, CAST(tau AS BIGINT) AS tau_us,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM pd2
        WHERE d2 <= r * r AND dt <= tau) AS n_pairs
FROM (VALUES {rr}) vr(r) CROSS JOIN (VALUES {tt}) vt(tau)
ORDER BY r, tau
"""


# ----------------------------- Hilbert curve keys (lakehouse clustering)

HILBERT_ORDER = 14          # 2^14 = 16384 > the 10000-unit point world
HILBERT_CELL_LEVEL = 8      # coarse Hilbert cell for range partitioning


def hilbert_xy2d(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized Hilbert distance (the classic public xy2d loop —
    rotate/flip each quadrant level): bijective on [0, 2^{HILBERT_ORDER})²,
    better range-scan locality than the Morton key in q_zorder_keys
    (every Hilbert step is a grid-adjacent move; Morton jumps)."""
    x = x.astype(np.int64).copy()
    y = y.astype(np.int64).copy()
    d = np.zeros_like(x)
    s = 1 << (HILBERT_ORDER - 1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        flip = ry == 0
        fx = np.where(rx == 1, s - 1 - x, x)
        fy = np.where(rx == 1, s - 1 - y, y)
        nx = np.where(flip, fy, x)
        ny = np.where(flip, fx, y)
        x, y = nx, ny
        s >>= 1
    return d


def q_hilbert_keys(sf_dir: str) -> pd.DataFrame:
    """Hilbert clustering key per event point plus its level-
    {HILBERT_CELL_LEVEL} Hilbert cell — the locality-preserving sort/
    partition key a 100 TB lakehouse table would range-cluster on
    (q_zorder_keys' Morton sibling; Hilbert has no quadrant jumps, so
    bbox range scans touch fewer key ranges).  Pure map, zero shuffle,
    integer-exact."""
    ds = read_table(sf_dir, "events", columns=["event_id"])

    def keys(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        px, py = _seg_points(eid)
        d = hilbert_xy2d(px, py)
        shift = 2 * (HILBERT_ORDER - HILBERT_CELL_LEVEL)
        return pa.table({"event_id": pa.array(eid), "hkey": pa.array(d),
                         "hcell": pa.array(d >> shift)})

    out = ds.map_batches(keys, batch_format="pyarrow").to_pandas()
    return (out.astype({c: "int64" for c in out.columns})
            .sort_values("event_id").reset_index(drop=True))


def hilbert_keys_oracle_sql() -> str:
    """The xy2d loop unrolled into {HILBERT_ORDER} chained CTE rounds of
    pure integer CASE arithmetic."""
    rounds = []
    prev = "h0"
    for k in range(HILBERT_ORDER):
        s = 1 << (HILBERT_ORDER - 1 - k)
        rounds.append(f"""p{k} AS (
  SELECT event_id, x, y, d,
         CASE WHEN (x & {s}) > 0 THEN 1 ELSE 0 END AS rx,
         CASE WHEN (y & {s}) > 0 THEN 1 ELSE 0 END AS ry
  FROM {prev}),
h{k + 1} AS (
  SELECT event_id,
         CASE WHEN ry = 0
              THEN CASE WHEN rx = 1 THEN {s - 1} - y ELSE y END
              ELSE x END AS x,
         CASE WHEN ry = 0
              THEN CASE WHEN rx = 1 THEN {s - 1} - x ELSE x END
              ELSE y END AS y,
         d + {s * s} * xor(3 * rx, ry) AS d
  FROM p{k})""")
        prev = f"h{k + 1}"
    shift = 1 << (2 * (HILBERT_ORDER - HILBERT_CELL_LEVEL))
    return f"""
WITH h0 AS MATERIALIZED (
  SELECT event_id,
         {_mix_sql('2000000000 + 2 * event_id')} AS x,
         {_mix_sql('2000000001 + 2 * event_id')} AS y,
         CAST(0 AS BIGINT) AS d
  FROM events),
{', '.join(rounds)}
SELECT event_id, CAST(d AS BIGINT) AS hkey,
       CAST(d // {shift} AS BIGINT) AS hcell
FROM {prev} ORDER BY event_id
"""


# --------------------- ST-DBSCAN (space-time density clustering)

STDB_K = 960_000_000            # eps² = K//n keeps the mean space-time
                                # degree constant across scale factors
STDB_TAU_US = 86_400_000_000    # temporal neighborhood half-width (1 day)
STDB_MINPTS = 4


def _stdb_geometry(n: int) -> tuple[int, int]:
    import math

    e2 = STDB_K // n
    eps = math.isqrt(e2)
    if eps * eps < e2:
        eps += 1
    return e2, max(eps, 1)


def q_st_dbscan(sf_dir: str) -> pd.DataFrame:
    """Driver-frame projection of :func:`st_dbscan_dataset` (sorted by
    event_id) — the registry/oracle surface."""
    return (st_dbscan_dataset(sf_dir).to_pandas()
            .sort_values("event_id").reset_index(drop=True))


def st_dbscan_dataset(sf_dir: str):
    """ST-DBSCAN (Birant & Kut 2007 — DBSCAN with a space-time
    neighborhood): N(p) = points within eps spatially AND {STDB_TAU_US}
    µs temporally; cores, min-core-id cluster components and border
    attachment exactly as q_dbscan.  The density-clustering consumer of
    the q_spacetime_join pair surface.

    Scale shape: the q_dbscan lowering with the 3-D blocking of
    q_spacetime_join (pitch ⌈eps⌉ ≥ eps, time bucket = τ ⇒ the 3×3×3
    ring is lossless; a pair matches exactly ONE ring offset so the
    cell-keyed hash join is exactly-once); degrees via unique-count
    partials → groupby-Sum; components size-dispatched (driver
    union-find / distributed min-label); border labels via one
    edge-sized groupby-Min (spatial._dbscan_label, the tail shared with
    q_dbscan).  Broadcast sets are output-sized."""
    from .spatial import _dbscan_label
    from .stages.join import hash_join

    ds = read_table(sf_dir, "events", columns=["event_id", "ts"])
    n = ds.count()
    e2, cell = _stdb_geometry(n)
    TB = STDB_TAU_US

    def own_cells(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        t = b["ts"].cast(pa.int64()).to_numpy() - STJ_T0_US
        px, py = _seg_points(eid)
        return pa.table({
            "key": pa.array(((px // cell) * 100003 + py // cell) * 64
                            + _tb_checked(t // TB) + 1),
            "a": pa.array(eid), "ax": pa.array(px), "ay": pa.array(py),
            "at": pa.array(t)})

    def ring_cells(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        t = b["ts"].cast(pa.int64()).to_numpy() - STJ_T0_US
        px, py = _seg_points(eid)
        cx, cy = px // cell, py // cell
        tk = _tb_checked(t // TB)
        parts = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    sp = np.ones(eid.size, bool)
                else:
                    xlo = (cx + dx) * cell
                    ylo = (cy + dy) * cell
                    ddx = np.maximum(
                        np.maximum(xlo - px, px - (xlo + cell - 1)), 0)
                    ddy = np.maximum(
                        np.maximum(ylo - py, py - (ylo + cell - 1)), 0)
                    sp = ddx * ddx + ddy * ddy <= e2
                if not sp.any():
                    continue
                for dt in (-1, 0, 1):
                    parts.append(pa.table({
                        "key": pa.array(((cx[sp] + dx) * 100003
                                         + cy[sp] + dy) * 64
                                        + tk[sp] + dt + 1),
                        "b": pa.array(eid[sp]), "bx": pa.array(px[sp]),
                        "by": pa.array(py[sp]), "bt": pa.array(t[sp])}))
        return _concat_or_empty(parts, {k: pa.int64() for k in
                                        ("key", "b", "bx", "by", "bt")})

    def form(t: pa.Table) -> pa.Table:
        a = np.asarray(t["a"], np.int64)
        bb = np.asarray(t["b"], np.int64)
        dx = np.asarray(t["ax"], np.int64) - np.asarray(t["bx"], np.int64)
        dy = np.asarray(t["ay"], np.int64) - np.asarray(t["by"], np.int64)
        dt = np.asarray(t["at"], np.int64) - np.asarray(t["bt"], np.int64)
        keep = ((a < bb) & (dx * dx + dy * dy <= e2)
                & (np.abs(dt) <= STDB_TAU_US))
        return pa.table({"a": pa.array(a[keep]), "b": pa.array(bb[keep])})

    own = ds.map_batches(own_cells, batch_format="pyarrow",
                         zero_copy_batch=True)
    ring = ds.map_batches(ring_cells, batch_format="pyarrow",
                          zero_copy_batch=True)
    pairs = (hash_join(own, ring, "key", "inner")
             .map_batches(form, batch_format="pyarrow")
             .materialize())

    return _dbscan_label(ds, pairs, STDB_MINPTS)


def st_dbscan_oracle_sql(sf: float = 0.01) -> str:
    """The dbscan oracle's recursive min-label formulation over the 3-D
    blocked pair surface with the temporal predicate."""
    n = round(sf * 1_000_000)
    e2, cell = _stdb_geometry(n)
    TB = STDB_TAU_US
    return f"""
WITH pts AS MATERIALIZED (
  SELECT event_id AS id,
         {_mix_sql('2000000000 + 2 * event_id')} AS px,
         {_mix_sql('2000000001 + 2 * event_id')} AS py,
         epoch_us(ts) - {STJ_T0_US} AS t
  FROM events),
own AS MATERIALIZED (
  SELECT id, px, py, t,
         ((px // {cell}) * 100003 + (py // {cell})) * 64
         + t // {TB} + 1 AS ck
  FROM pts),
ring AS MATERIALIZED (
  SELECT id, px, py, t,
         ((px // {cell} + dx.d) * 100003 + (py // {cell} + dy.d)) * 64
         + t // {TB} + dt.d + 1 AS ck
  FROM pts, (VALUES (-1), (0), (1)) dx(d),
            (VALUES (-1), (0), (1)) dy(d),
            (VALUES (-1), (0), (1)) dt(d)),
pairs AS MATERIALIZED (
  SELECT o.id a, c.id b FROM own o JOIN ring c ON c.ck = o.ck
  WHERE o.id < c.id
    AND (o.px-c.px)*(o.px-c.px)+(o.py-c.py)*(o.py-c.py) <= {e2}
    AND abs(c.t - o.t) <= {STDB_TAU_US}),
deg AS MATERIALIZED (
  SELECT id, COUNT(*) AS deg
  FROM (SELECT a AS id FROM pairs UNION ALL SELECT b AS id FROM pairs)
  GROUP BY id),
core AS MATERIALIZED (
  SELECT id FROM deg WHERE deg >= {STDB_MINPTS - 1}),
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


# ------------------- space-time kernel density (crime/epi hotspots)

STK_R = 200      # spatial bandwidth (grid units)
STK_C = 100      # spatial cell pitch
STK_TW = 4       # temporal bandwidth (days, exclusive)
STK_DAYS = 30


def q_stkde(sf_dir: str) -> pd.DataFrame:
    """Space-time kernel density estimation (the STKDE of crime-series /
    epidemiology hotspot mapping — the 3-D sibling of q_kde_density):
    density(cell, day) = Σ over events of the separable integer product
    kernel ((2·{STK_R})² − D2) · ({STK_TW}² − Δday²), nonzero only
    within bandwidth on BOTH axes.  Exact integers throughout.

    Scale shape: a pure scatter — each event emits ≤ 5×5×(2·{STK_TW}−1)
    weighted rows, one groupby(cell, day) Sum; nothing is ever compared
    to another event."""
    from ray.data.aggregate import Sum

    from .spatial import ST_BIN_US, ST_T0_US

    span = STK_R // STK_C
    W2 = (2 * STK_R) ** 2
    ds = read_table(sf_dir, "events", columns=["event_id", "ts"])

    def scatter(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        us = b["ts"].cast(pa.int64()).to_numpy()
        day = (us - ST_T0_US) // ST_BIN_US
        ok = (day >= 0) & (day < STK_DAYS)
        eid, day = eid[ok], day[ok]
        px, py = _seg_points(eid)
        cx, cy = px // STK_C, py // STK_C
        offs = np.arange(-span, span + 1, dtype=np.int64)
        gx = cx[:, None, None] + offs[None, :, None]
        gy = cy[:, None, None] + offs[None, None, :]
        dx = 2 * px[:, None, None] - (2 * gx * STK_C + STK_C)
        dy = 2 * py[:, None, None] - (2 * gy * STK_C + STK_C)
        d2 = dx * dx + dy * dy
        wsp = W2 - d2
        keep = wsp > 0
        gx = np.broadcast_to(gx, d2.shape)[keep]
        gy = np.broadcast_to(gy, d2.shape)[keep]
        wsp = wsp[keep]
        dayk = np.broadcast_to(day[:, None, None], d2.shape)[keep]
        parts = []
        for dd in range(-(STK_TW - 1), STK_TW):
            td = dayk + dd
            m = (td >= 0) & (td < STK_DAYS)
            if not m.any():
                continue
            parts.append(pa.table({
                "cx": pa.array(gx[m]), "cy": pa.array(gy[m]),
                "day": pa.array(td[m]),
                "density": pa.array(wsp[m] * (STK_TW * STK_TW - dd * dd))}))
        return _concat_or_empty(parts, {k: pa.int64() for k in
                                        ("cx", "cy", "day", "density")})

    out = (ds.map_batches(scatter, batch_format="pyarrow")
           .groupby(["cx", "cy", "day"])
           .aggregate(Sum("density", alias_name="density"))
           .to_pandas())
    return (out.astype({c: "int64" for c in out.columns})
            .sort_values(["cx", "cy", "day"]).reset_index(drop=True))


def stkde_oracle_sql() -> str:
    """The kde scatter cross join with the temporal offset dimension."""
    from .spatial import ST_BIN_US, ST_T0_US

    span = STK_R // STK_C
    W2 = (2 * STK_R) ** 2
    return f"""
WITH pts AS MATERIALIZED (
  SELECT {_mix_sql('2000000000 + 2 * event_id')} AS px,
         {_mix_sql('2000000001 + 2 * event_id')} AS py,
         (epoch_us(ts) - {ST_T0_US}) // {ST_BIN_US} AS day
  FROM events
  WHERE (epoch_us(ts) - {ST_T0_US}) // {ST_BIN_US}
        BETWEEN 0 AND {STK_DAYS - 1}),
sc AS (
  SELECT px // {STK_C} + ox.d AS cx, py // {STK_C} + oy.d AS cy,
         day + od.d AS day,
         2*px - (2*(px // {STK_C} + ox.d) * {STK_C} + {STK_C}) AS dx,
         2*py - (2*(py // {STK_C} + oy.d) * {STK_C} + {STK_C}) AS dy,
         od.d AS dd
  FROM pts,
       range(-{span}, {span + 1}) ox(d), range(-{span}, {span + 1}) oy(d),
       range(-{STK_TW - 1}, {STK_TW}) od(d))
SELECT CAST(cx AS BIGINT) AS cx, CAST(cy AS BIGINT) AS cy,
       CAST(day AS BIGINT) AS day,
       CAST(SUM(({W2} - (dx*dx + dy*dy))
                * ({STK_TW * STK_TW} - dd*dd)) AS BIGINT) AS density
FROM sc
WHERE dx*dx + dy*dy < {W2} AND day BETWEEN 0 AND {STK_DAYS - 1}
GROUP BY cx, cy, day ORDER BY cx, cy, day
"""


# -------------------- geodesic polygon area (spherical excess)

GEO_QUANT = 1_000_000_000_000   # excess quantization (picosteradian-ish)


def q_geodesic_area(sf_dir: str) -> pd.DataFrame:
    """Geodesic polygon area (the ellipsoidal-measurement sibling of the
    planar q_polygon_geometry shoelace): each zone polygon's area on the
    unit sphere as the sum of triangle-fan spherical excesses (l'Huilier
    — E = 4·atan(√(tan(s/2)·tan((s−a)/2)·tan((s−b)/2)·tan((s−c)/2)) with
    haversine great-circle sides), each triangle's excess QUANTIZED to
    {GEO_QUANT} before the integer sum — the q_haversine_dist quantized-
    trig discipline: numpy and DuckDB libm agree to ≲1 ulp on identical
    double inputs, every expression is written in the same operation
    order on both sides, and a margin pytest pins that no term sits near
    a rounding boundary.

    Scale shape: zones are the result-sized small side (one batch); at
    raster scale the same fan runs per polygon inside map_batches."""
    import os

    import ray.data as rd

    from . import synth

    d = synth.synth_dir_for(sf_dir)
    ds = rd.read_parquet(os.path.join(d, "zones.parquet"),
                         columns=["zone_id", "vertices"])
    rad = np.pi / 180.0

    def hav_angle(x1, y1, x2, y2):
        h = (np.sin((y2 - y1) * rad / 2.0) ** 2
             + np.cos(y1 * rad) * np.cos(y2 * rad)
             * np.sin((x2 - x1) * rad / 2.0) ** 2)
        return 2.0 * np.arcsin(np.sqrt(h))

    def area(b: pa.Table) -> pd.DataFrame:
        rows = []
        for i in range(b.num_rows):
            zid = int(b["zone_id"][i].as_py())
            v = np.asarray(b["vertices"][i].as_py(), np.float64)
            xs, ys = v[0::2], v[1::2]
            nv = xs.size
            ax, ay = xs[0], ys[0]
            bx, by = xs[1:nv - 1], ys[1:nv - 1]
            cx, cy = xs[2:nv], ys[2:nv]
            a = hav_angle(bx, by, cx, cy)
            bb = hav_angle(ax, ay, cx, cy)
            cc = hav_angle(ax, ay, bx, by)
            s = (a + bb + cc) / 2.0
            t = (np.tan(s / 2.0) * np.tan((s - a) / 2.0)
                 * np.tan((s - bb) / 2.0) * np.tan((s - cc) / 2.0))
            e = 4.0 * np.arctan(np.sqrt(np.maximum(t, 0.0)))
            qe = np.floor(e * GEO_QUANT + 0.5).astype(np.int64)
            rows.append((zid, int(nv - 2), int(qe.sum())))
        return pd.DataFrame(rows, columns=["zone_id", "n_tri", "area_q"]
                            ).astype("int64")

    out = ds.map_batches(area, batch_format="pyarrow",
                         batch_size=256).to_pandas()
    return out.sort_values("zone_id").reset_index(drop=True)


def geodesic_area_oracle_sql(sf: float = 0.01) -> str:
    """The triangle fan exploded via a range join over 1-indexed list
    slots, with operation-order-identical trig."""
    from . import synth

    d = synth.synth_dir(sf)

    def hav(x1, y1, x2, y2):
        return (f"2.0 * asin(sqrt("
                f"sin(({y2} - {y1}) * (pi()/180.0) / 2.0)"
                f" * sin(({y2} - {y1}) * (pi()/180.0) / 2.0)"
                f" + cos({y1} * (pi()/180.0)) * cos({y2} * (pi()/180.0))"
                f" * (sin(({x2} - {x1}) * (pi()/180.0) / 2.0)"
                f" * sin(({x2} - {x1}) * (pi()/180.0) / 2.0))))")

    a = hav("tri.bx", "tri.by_", "tri.cx", "tri.cy")
    b = hav("tri.ax", "tri.ay", "tri.cx", "tri.cy")
    c = hav("tri.ax", "tri.ay", "tri.bx", "tri.by_")
    return f"""
WITH z AS (
  SELECT zone_id, vertices, len(vertices) // 2 AS nv
  FROM read_parquet('{d}/zones.parquet')),
tri AS (
  SELECT zone_id, nv,
         vertices[1] AS ax, vertices[2] AS ay,
         vertices[2*t.i + 1] AS bx, vertices[2*t.i + 2] AS by_,
         vertices[2*t.i + 3] AS cx, vertices[2*t.i + 4] AS cy
  FROM z JOIN range(1, 64) t(i) ON t.i <= nv - 2),
sides AS (
  SELECT zone_id, nv, {a} AS a, {b} AS b, {c} AS c FROM tri),
ex AS (
  SELECT zone_id, nv,
         4.0 * atan(sqrt(GREATEST(
             tan(((a + b + c) / 2.0) / 2.0)
             * tan((((a + b + c) / 2.0) - a) / 2.0)
             * tan((((a + b + c) / 2.0) - b) / 2.0)
             * tan((((a + b + c) / 2.0) - c) / 2.0), 0.0))) AS e
  FROM sides)
SELECT CAST(zone_id AS BIGINT) AS zone_id,
       CAST(nv - 2 AS BIGINT) AS n_tri,
       CAST(SUM(CAST(floor(e * {GEO_QUANT} + 0.5) AS BIGINT)) AS BIGINT)
         AS area_q
FROM ex GROUP BY zone_id, nv ORDER BY zone_id
"""


# ------------------------- Strahler stream order (D8 hydrology)

STRAHLER_MAX = 8   # unroll bound: order k needs 2^(k-1) leaves; 16x16 caps ~5


def q_strahler_order(sf_dir: str) -> pd.DataFrame:
    """Strahler stream order (the ArcGIS Stream Order tool) over the D8
    flow forest of q_d8_flow_exact's counter DEM world: leaves are order
    1; a cell's order is the max of its inflow orders, +1 when two or
    more inflows attain that max.  Output per tile: the order histogram
    (tile_idx, strahler, n_cells) — exact integers.

    Scale shape: pure map over the tile range (tiles never communicate
    — the reference's in-block hydrology semantics); per tile a Kahn
    topological pass over ≤{16 * 16} cells, bounded by design.  The
    oracle uses the level characterization order(v) ≥ k+1 ⟺ v is in
    the downstream closure of {{u : ≥2 inflows of order ≥ k}} — order is
    monotone downstream, so each level is one seed GROUP BY plus one
    recursive reachability CTE, unrolled {STRAHLER_MAX} times."""
    import ray.data as rdm

    from .rasterqueries import _D8_N, _D8_TILES, _d8_dem, d8_directions
    from .rasterqueries import D8_OFFS

    n = _D8_N
    ds = rdm.range(_D8_TILES, override_num_blocks=8)

    def gen(b: pa.Table) -> pd.DataFrame:
        ids = np.asarray(b["id"], dtype=np.int64)
        dems = _d8_dem(ids)
        rows = []
        for i, s in enumerate(ids):
            best, has_down = d8_directions(dems[i])
            dy = np.array([o[0] for o in D8_OFFS])[best]
            dx = np.array([o[1] for o in D8_OFFS])[best]
            idx = np.arange(n * n, dtype=np.int64).reshape(n, n)
            rr, cc = idx // n, idx % n
            nxt = np.where(has_down, (rr + dy.reshape(n, n)) * n
                           + (cc + dx.reshape(n, n)), -1).ravel()
            children = [[] for _ in range(n * n)]
            for u in range(n * n):
                if nxt[u] >= 0:
                    children[int(nxt[u])].append(u)
            order = np.zeros(n * n, np.int64)
            pending = [len(children[v]) for v in range(n * n)]
            queue = [v for v in range(n * n) if pending[v] == 0]
            while queue:
                v = queue.pop()
                ch = children[v]
                if not ch:
                    order[v] = 1
                else:
                    mx = max(order[u] for u in ch)
                    ties = sum(1 for u in ch if order[u] == mx)
                    order[v] = mx + (1 if ties >= 2 else 0)
                w = int(nxt[v])
                if w >= 0:
                    pending[w] -= 1
                    if pending[w] == 0:
                        queue.append(w)
            u, c = np.unique(order, return_counts=True)
            for ov, cv in zip(u, c):
                rows.append((int(s), int(ov), int(cv)))
        return pd.DataFrame(rows, columns=["tile_idx", "strahler",
                                           "n_cells"]).astype("int64")

    out = ds.map_batches(gen, batch_format="pyarrow", batch_size=8)
    return (out.to_pandas().sort_values(["tile_idx", "strahler"])
            .reset_index(drop=True))


def strahler_order_oracle_sql() -> str:
    """Unrolled order levels over the d8_flow_exact edge surface: s1 =
    all cells; seeds_{k+1} = targets of ≥2 inflows with order ≥ k;
    s_{k+1} = downstream closure of the seeds (order is monotone along
    flow); the final order = the deepest level containing the cell."""
    from .rasterqueries import _D8_N, _D8_TILES

    n = _D8_N
    levels = []
    for k in range(1, STRAHLER_MAX):
        levels.append(f"""seed{k + 1} AS (
  SELECT e.s, e.nr AS r, e.nc AS c
  FROM edges e JOIN s{k} m ON m.s = e.s AND m.r = e.r AND m.c = e.c
  GROUP BY e.s, e.nr, e.nc HAVING COUNT(*) >= 2),
s{k + 1} AS (
  WITH RECURSIVE cl(s, r, c) AS (
    SELECT s, r, c FROM seed{k + 1}
    UNION
    SELECT e.s, e.nr, e.nc
    FROM cl JOIN edges e ON e.s = cl.s AND e.r = cl.r AND e.c = cl.c)
  SELECT * FROM cl)""")
    lvl_union = "\nUNION ALL\n".join(
        f"SELECT s, r, c, {k} AS k FROM s{k}"
        for k in range(1, STRAHLER_MAX + 1))
    return f"""
WITH RECURSIVE
grid AS (SELECT unnest(generate_series(0, {n - 1})) AS i),
cells AS (
  SELECT s.range AS s, r.i AS r, c.i AS c,
         ((s.range * 131071 + r.i * 37 + c.i * 17) * 2654435761) % 4096 AS z
  FROM range(0, {_D8_TILES}) s, grid r, grid c
),
nb(k, dy, dx) AS (
  SELECT * FROM (VALUES (0,-1,-1),(1,-1,0),(2,-1,1),(3,0,-1),
                        (4,0,1),(5,1,-1),(6,1,0),(7,1,1)) t
),
drops AS (
  SELECT a.s, a.r, a.c, n.k, n.dy, n.dx,
         CAST(a.z - b.z AS DOUBLE) /
           (CASE WHEN n.dy <> 0 AND n.dx <> 0 THEN sqrt(2.0) ELSE 1.0 END)
           AS dr
  FROM cells a
  JOIN nb n ON TRUE
  JOIN cells b
    ON b.s = a.s
   AND b.r = LEAST(GREATEST(a.r + n.dy, 0), {n - 1})
   AND b.c = LEAST(GREATEST(a.c + n.dx, 0), {n - 1})
),
best AS (
  SELECT s, r, c, dy, dx, dr,
         ROW_NUMBER() OVER (PARTITION BY s, r, c ORDER BY dr DESC, k) AS rn
  FROM drops
),
edges AS (
  SELECT s, r, c, r + dy AS nr, c + dx AS nc
  FROM best WHERE rn = 1 AND dr > 0
    AND r + dy BETWEEN 0 AND {n - 1} AND c + dx BETWEEN 0 AND {n - 1}),
s1 AS (SELECT s, r, c FROM cells),
{', '.join(levels)},
ord AS (
  SELECT s, r, c, MAX(k) AS strahler FROM ({lvl_union}) GROUP BY s, r, c)
SELECT CAST(s AS BIGINT) AS tile_idx,
       CAST(strahler AS BIGINT) AS strahler,
       CAST(COUNT(*) AS BIGINT) AS n_cells
FROM ord GROUP BY s, strahler ORDER BY tile_idx, strahler
"""


# --------------------------- line density (segments near cell centers)

LD_R = 150     # search radius around each cell center
LD_C = 100     # cell pitch


def q_line_density(sf_dir: str) -> pd.DataFrame:
    """Line density (the ArcGIS Line Density tool in its exact count
    form): for every raster cell, the number of order segments whose
    point-to-segment distance from the cell CENTER is ≤ {LD_R} — the
    polyline sibling of q_kde_density.  Doubled coordinates keep the
    half-unit centers integer; the distance stays the exact (num, den)
    fraction of `_seg_dist_parts`, so the predicate num ≤ (2·{LD_R})²·den
    never touches a float.

    Scale shape: a pure scatter — each segment emits to the ≤5×5 cells
    its R-expanded bbox overlaps, the exact test runs vectorized per
    emission, and ONE groupby(cell) Count reduces; segments are never
    compared to each other."""
    from ray.data.aggregate import Sum

    from .spatial import _seg_dist_parts, _seg_endpoints

    ds = read_table(sf_dir, "orders", columns=["o_orderkey"])
    R2D = (2 * LD_R) ** 2   # doubled-coordinate radius squared

    def scatter(b: pa.Table) -> pa.Table:
        k = np.asarray(b["o_orderkey"], np.int64)
        x1, y1, x2, y2 = _seg_endpoints(k)
        # +100000 shift keeps the division operand positive, so floor
        # (numpy) and truncating (DuckDB //) integer division agree
        cx0 = (np.minimum(x1, x2) - LD_R + 100000) // LD_C - 1000
        cx1 = (np.maximum(x1, x2) + LD_R) // LD_C
        cy0 = (np.minimum(y1, y2) - LD_R + 100000) // LD_C - 1000
        cy1 = (np.maximum(y1, y2) + LD_R) // LD_C
        parts = []
        span = int(max((cx1 - cx0).max(initial=0),
                       (cy1 - cy0).max(initial=0))) + 1
        for i in range(span):
            for j in range(span):
                keep = (cx0 + i <= cx1) & (cy0 + j <= cy1)
                if not keep.any():
                    continue
                gx, gy = cx0[keep] + i, cy0[keep] + j
                ctx = 2 * gx * LD_C + LD_C      # doubled cell center
                cty = 2 * gy * LD_C + LD_C
                num, den = _seg_dist_parts(
                    ctx, cty, 2 * x1[keep], 2 * y1[keep],
                    2 * x2[keep], 2 * y2[keep])
                hit = num <= R2D * den
                if not hit.any():
                    continue
                parts.append(pa.table({
                    "cx": pa.array(gx[hit]), "cy": pa.array(gy[hit]),
                    "n_segs": pa.array(np.ones(int(hit.sum()), np.int64))}))
        return (pa.concat_tables(parts) if parts
                else pa.table({"cx": pa.array([], pa.int64()),
                               "cy": pa.array([], pa.int64()),
                               "n_segs": pa.array([], pa.int64())}))

    out = (ds.map_batches(scatter, batch_format="pyarrow")
           .groupby(["cx", "cy"])
           .aggregate(Sum("n_segs", alias_name="n_segs"))
           .to_pandas())
    return (out.astype({c: "int64" for c in out.columns})
            .sort_values(["cx", "cy"]).reset_index(drop=True))


def line_density_oracle_sql() -> str:
    """The segment-join distance fraction against doubled cell centers,
    candidates from the R-expanded bbox offset grid."""
    x1 = _mix_sql("4 * o_orderkey + 0")
    y1 = _mix_sql("4 * o_orderkey + 1")
    dx = _mix_sql("4 * o_orderkey + 2", 81) + " - 40"
    dy = _mix_sql("4 * o_orderkey + 3", 81) + " - 40"
    R2D = (2 * LD_R) ** 2
    return f"""
WITH segs0 AS MATERIALIZED (
  SELECT {x1} AS x1, {y1} AS y1, {dx} AS dx, {dy} AS dy FROM orders),
segs AS MATERIALIZED (
  SELECT x1, y1,
         LEAST(GREATEST(x1 + dx, 0), 9999) AS x2,
         LEAST(GREATEST(y1 + dy, 0), 9999) AS y2
  FROM segs0),
cand AS (
  SELECT (LEAST(x1, x2) - {LD_R} + 100000) // {LD_C} - 1000 + ox.d AS cx,
         (LEAST(y1, y2) - {LD_R} + 100000) // {LD_C} - 1000 + oy.d AS cy,
         2*x1 AS ax, 2*y1 AS ay, 2*x2 AS bx, 2*y2 AS by_
  FROM segs, range(0, 6) ox(d), range(0, 6) oy(d)
  WHERE (LEAST(x1, x2) - {LD_R} + 100000) // {LD_C} - 1000 + ox.d
          <= (GREATEST(x1, x2) + {LD_R}) // {LD_C}
    AND (LEAST(y1, y2) - {LD_R} + 100000) // {LD_C} - 1000 + oy.d
          <= (GREATEST(y1, y2) + {LD_R}) // {LD_C}),
scored AS (
  SELECT cx, cy,
         (2*cx*{LD_C} + {LD_C} - ax) * (bx - ax)
         + (2*cy*{LD_C} + {LD_C} - ay) * (by_ - ay) AS dot,
         (bx - ax) * (bx - ax) + (by_ - ay) * (by_ - ay) AS vv,
         (2*cx*{LD_C} + {LD_C} - ax) * (2*cx*{LD_C} + {LD_C} - ax)
         + (2*cy*{LD_C} + {LD_C} - ay) * (2*cy*{LD_C} + {LD_C} - ay) AS w2,
         (2*cx*{LD_C} + {LD_C} - bx) * (2*cx*{LD_C} + {LD_C} - bx)
         + (2*cy*{LD_C} + {LD_C} - by_) * (2*cy*{LD_C} + {LD_C} - by_) AS u2,
         (2*cx*{LD_C} + {LD_C} - ax) * (by_ - ay)
         - (2*cy*{LD_C} + {LD_C} - ay) * (bx - ax) AS cr
  FROM cand)
SELECT CAST(cx AS BIGINT) AS cx, CAST(cy AS BIGINT) AS cy,
       CAST(COUNT(*) AS BIGINT) AS n_segs
FROM scored
WHERE (CASE WHEN dot <= 0 THEN w2 WHEN dot >= vv THEN u2
            ELSE cr * cr END)
      <= {R2D} * (CASE WHEN dot <= 0 OR dot >= vv THEN 1 ELSE vv END)
GROUP BY cx, cy ORDER BY cx, cy
"""


# ----------------------- stay-point detection (trajectory mining)

STAY_R2 = 3600                    # anchor radius² (walk units)
STAY_TAU_US = 20 * 3600 * 1_000_000   # minimum dwell duration


def q_stay_points(sf_dir: str) -> pd.DataFrame:
    """Stay-point detection (Li et al. 2008 — the GPS-trajectory dwell
    extractor behind visit/POI mining): scanning each user's walk in
    time order, an anchor ping i extends to the last ping j before the
    first one farther than √{STAY_R2} from p_i; if the dwell t_j − t_i ≥
    {STAY_TAU_US} µs the window is a stay point (emit, resume at j+1),
    else the anchor advances one ping.  All comparisons are integer d²
    and µs — the scan is deterministic and SQL-replayable.

    Scale shape: user-hash shards, one lexsort + segmented cumsum per
    shard (the walk-world discipline); the per-user scan is sequential
    BY DEFINITION (each decision consumes the previous window) but
    bounded by pings-per-user, the same unit every per-user window
    operator partitions on."""
    from .spatial import DP_STEP_MOD
    from .windows import _user_shard

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def shard(g: pd.DataFrame) -> pd.DataFrame:
        eid = g["event_id"].to_numpy(np.int64)
        ts = g["ts"].astype("int64").to_numpy()
        u = g["user_id"].to_numpy(np.int64)
        order = np.lexsort((eid, ts, u))
        eid, ts, u = eid[order], ts[order], u[order]
        sx = _seg_mix(3_000_000_000 + 2 * eid, DP_STEP_MOD) - 50
        sy = _seg_mix(3_000_000_001 + 2 * eid, DP_STEP_MOD) - 50
        rs = np.r_[True, u[1:] != u[:-1]]
        starts = np.flatnonzero(rs)
        counts = np.diff(np.r_[starts, u.size])
        csx, csy = np.cumsum(sx), np.cumsum(sy)
        px = csx - np.repeat(csx[starts] - sx[starts], counts)
        py = csy - np.repeat(csy[starts] - sy[starts], counts)
        rows = []
        for s, c in zip(starts, counts):
            X, Y, T = px[s:s + c], py[s:s + c], ts[s:s + c]
            i = 0
            while i < c:
                d2 = (X[i:] - X[i]) ** 2 + (Y[i:] - Y[i]) ** 2
                viol = np.nonzero(d2 > STAY_R2)[0]
                j = (int(viol[0]) - 1 if viol.size else c - 1 - i) + i
                if T[j] - T[i] >= STAY_TAU_US:
                    rows.append((int(u[s]), i, j, j - i + 1,
                                 int(T[j] - T[i])))
                    i = j + 1
                else:
                    i += 1
        return pd.DataFrame(rows, columns=["user_id", "start_seq",
                                           "end_seq", "n_pings", "dur_us"]
                            ).astype("int64")

    out = (ds.map_batches(_user_shard, batch_format="pyarrow")
           .groupby("shard").map_groups(shard, batch_format="pandas")
           .to_pandas())
    return (out.astype({c: "int64" for c in out.columns})
            .sort_values(["user_id", "start_seq"]).reset_index(drop=True))


def stay_points_oracle_sql() -> str:
    """The scan replayed as a recursive CTE over anchor positions: the
    per-anchor window end j(i) is precomputed as (first violation − 1)
    via one pairwise join, and the recursion steps i → j+1 or i+1
    exactly like the engine loop."""
    from .spatial import DP_STEP_MOD

    sx = _mix_sql("3000000000 + 2 * event_id", DP_STEP_MOD) + " - 50"
    sy = _mix_sql("3000000001 + 2 * event_id", DP_STEP_MOD) + " - 50"
    return f"""
WITH RECURSIVE steps AS MATERIALIZED (
  SELECT user_id, epoch_us(ts) AS t, event_id,
         {sx} AS sx, {sy} AS sy
  FROM events),
pts AS MATERIALIZED (
  SELECT user_id AS u, t,
         ROW_NUMBER() OVER w - 1 AS seq,
         SUM(sx) OVER w AS px, SUM(sy) OVER w AS py
  FROM steps
  WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id
               ROWS UNBOUNDED PRECEDING)),
nmax AS (SELECT u, MAX(seq) AS mx FROM pts GROUP BY u),
jend AS MATERIALIZED (
  -- window end per anchor: one before the first radius violation
  SELECT a.u, a.seq AS i,
         COALESCE(MIN(b.seq) FILTER (WHERE
             (b.px-a.px)*(b.px-a.px) + (b.py-a.py)*(b.py-a.py)
             > {STAY_R2}) - 1, m.mx) AS j
  FROM pts a JOIN nmax m ON m.u = a.u
  LEFT JOIN pts b ON b.u = a.u AND b.seq > a.seq
  GROUP BY a.u, a.seq, m.mx),
scan(u, i, sstart, send, dur) AS (
  SELECT u, CAST(0 AS BIGINT), CAST(NULL AS BIGINT),
         CAST(NULL AS BIGINT), CAST(NULL AS BIGINT)
  FROM (SELECT DISTINCT u FROM pts)
  UNION ALL
  SELECT s.u,
         CAST(CASE WHEN tj.t - ti.t >= {STAY_TAU_US}
              THEN e.j + 1 ELSE s.i + 1 END AS BIGINT),
         CASE WHEN tj.t - ti.t >= {STAY_TAU_US} THEN s.i END,
         CASE WHEN tj.t - ti.t >= {STAY_TAU_US} THEN e.j END,
         CASE WHEN tj.t - ti.t >= {STAY_TAU_US} THEN tj.t - ti.t END
  FROM scan s
  JOIN jend e ON e.u = s.u AND e.i = s.i
  JOIN pts ti ON ti.u = s.u AND ti.seq = s.i
  JOIN pts tj ON tj.u = s.u AND tj.seq = e.j)
SELECT u AS user_id, sstart AS start_seq, send AS end_seq,
       CAST(send - sstart + 1 AS BIGINT) AS n_pings,
       CAST(dur AS BIGINT) AS dur_us
FROM scan WHERE sstart IS NOT NULL
ORDER BY user_id, start_seq
"""

# ------------------ HMM map matching (Viterbi forward costs)

VIT_K = 12          # chain length: first K candidate-bearing pings per user
VIT_SWITCH = 100_000   # transition penalty for changing segment
VIT_EMIT_SCALE = 1024  # emission = floor(1024·num/den), exact in BIGINT


def q_viterbi_match(sf_dir: str) -> pd.DataFrame:
    """HMM map matching (the Newson-Krumm shape behind every road-snap
    service), reduced to its exact Viterbi FORWARD table: per user, the
    first {VIT_K} pings having any segment within SEG_R form the chain;
    states are the candidate segments, emission = ⌊{VIT_EMIT_SCALE}·
    num/den⌋ (the exact snap distance fraction), transition = 0 for
    staying on a segment / {VIT_SWITCH} for switching; output every
    (user, step, segment, min path cost ending there) — the argmin
    decode is a driver backtrack over this table.  All integer.

    Scale shape: candidates form on the map-match cell surface (a
    ping's full candidate set co-locates in its own cell), then ONE
    user-keyed exchange; the per-user DP is O(K·states²) with both
    factors bounded by design."""
    from .spatial import SEG_CELL, SEG_R, _seg_dist_parts, _seg_endpoints

    pts = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    segs = read_table(sf_dir, "orders", columns=["o_orderkey"])

    def pt_cells(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        uid = np.asarray(b["user_id"], np.int64)
        t = b["ts"].cast(pa.int64()).to_numpy()
        px, py = _seg_points(eid)
        z = np.zeros(eid.size, np.int64)
        return pa.table({
            "key": pa.array((px // SEG_CELL) * 1024 + py // SEG_CELL),
            "pid": pa.array(eid), "u": pa.array(uid), "t": pa.array(t),
            "px": pa.array(px), "py": pa.array(py),
            "sid": pa.array(z - 1), "x1": pa.array(z), "y1": pa.array(z),
            "x2": pa.array(z), "y2": pa.array(z)})

    def seg_cells(b: pa.Table) -> pa.Table:
        k = np.asarray(b["o_orderkey"], np.int64)
        x1, y1, x2, y2 = _seg_endpoints(k)
        cx0 = (np.minimum(x1, x2) - SEG_R) // SEG_CELL
        cx1 = (np.maximum(x1, x2) + SEG_R) // SEG_CELL
        cy0 = (np.minimum(y1, y2) - SEG_R) // SEG_CELL
        cy1 = (np.maximum(y1, y2) + SEG_R) // SEG_CELL
        parts = []
        for i in range(3):
            for j in range(3):
                keep = (cx0 + i <= cx1) & (cy0 + j <= cy1)
                if not keep.any():
                    continue
                m = int(keep.sum())
                z = np.zeros(m, np.int64)
                parts.append(pa.table({
                    "key": pa.array((cx0[keep] + i) * 1024 + cy0[keep] + j),
                    "pid": pa.array(z - 1), "u": pa.array(z - 1),
                    "t": pa.array(z), "px": pa.array(z), "py": pa.array(z),
                    "sid": pa.array(k[keep]),
                    "x1": pa.array(x1[keep]), "y1": pa.array(y1[keep]),
                    "x2": pa.array(x2[keep]), "y2": pa.array(y2[keep])}))
        return _concat_or_empty(parts, {k: pa.int64() for k in
                                        ("key", "pid", "u", "t", "px", "py",
                                         "sid", "x1", "y1", "x2", "y2")})

    def cands(g: pd.DataFrame) -> pd.DataFrame:
        is_pt = g["pid"].to_numpy(np.int64) >= 0
        p, s = g[is_pt], g[~is_pt]
        if not len(p) or not len(s):
            return pd.DataFrame({c: pd.Series(dtype="int64") for c in
                                 ("u", "pid", "t", "sid", "emit")})
        px = p["px"].to_numpy(np.int64)[:, None]
        py = p["py"].to_numpy(np.int64)[:, None]
        num, den = _seg_dist_parts(
            px, py, s["x1"].to_numpy(np.int64)[None, :],
            s["y1"].to_numpy(np.int64)[None, :],
            s["x2"].to_numpy(np.int64)[None, :],
            s["y2"].to_numpy(np.int64)[None, :])
        within = num <= SEG_R * SEG_R * den
        i, j = np.nonzero(within)
        return pd.DataFrame({
            "u": p["u"].to_numpy(np.int64)[i],
            "pid": p["pid"].to_numpy(np.int64)[i],
            "t": p["t"].to_numpy(np.int64)[i],
            "sid": s["sid"].to_numpy(np.int64)[j],
            "emit": VIT_EMIT_SCALE * num[i, j] // den[i, j]})

    def viterbi(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for u, gu in g.groupby("u"):
            pings = (gu[["pid", "t"]].drop_duplicates()
                     .sort_values(["t", "pid"]).head(VIT_K))
            prev = {}      # sid -> cost
            for k, pid in enumerate(pings["pid"]):
                cs = gu[gu["pid"] == pid]
                cur = {}
                for sid, emit in zip(cs["sid"], cs["emit"]):
                    if k == 0:
                        cur[int(sid)] = int(emit)
                    else:
                        best = min(pc + (0 if ps == sid else VIT_SWITCH)
                                   for ps, pc in prev.items())
                        cur[int(sid)] = int(emit) + best
                for sid, cost in sorted(cur.items()):
                    rows.append((int(u), k, sid, cost))
                prev = cur
        return pd.DataFrame(rows, columns=["user_id", "k", "seg_id",
                                           "cost"]).astype("int64")

    surface = (pts.map_batches(pt_cells, batch_format="pyarrow")
               .union(segs.map_batches(seg_cells, batch_format="pyarrow"))
               .groupby("key").map_groups(cands, batch_format="pandas"))
    out = (surface.groupby("u").map_groups(viterbi, batch_format="pandas")
           .to_pandas())
    return (out.astype({c: "int64" for c in out.columns})
            .sort_values(["user_id", "k", "seg_id"]).reset_index(drop=True))


def viterbi_match_oracle_sql() -> str:
    """The segment-join candidate surface + a DENSE_RANK chain + the
    Viterbi recurrence unrolled {VIT_K} steps (each step one join +
    GROUP BY MIN over cost + switch-penalty CASE)."""
    from .spatial import Q_SEGMENT_JOIN_SQL

    base = Q_SEGMENT_JOIN_SQL.replace("ORDER BY event_id, seg_id", "")
    steps, unions = [], ["SELECT u, 0 AS k, seg_id, cost FROM dp0"]
    for j in range(1, VIT_K):
        steps.append(f"""dp{j} AS (
  SELECT c.u, c.seg_id, c.emit + MIN(p.cost
         + CASE WHEN p.seg_id = c.seg_id THEN 0
                ELSE {VIT_SWITCH} END) AS cost
  FROM cst c JOIN dp{j - 1} p ON p.u = c.u
  WHERE c.k = {j} GROUP BY c.u, c.seg_id, c.emit)""")
        unions.append(f"SELECT u, {j} AS k, seg_id, cost FROM dp{j}")
    return f"""
WITH pairs AS MATERIALIZED ({base}),
cand AS MATERIALIZED (
  SELECT e.user_id AS u, p.event_id, epoch_us(e.ts) AS t, p.seg_id,
         {VIT_EMIT_SCALE} * p.d2_num // p.d2_den AS emit
  FROM pairs p JOIN events e ON e.event_id = p.event_id),
chain AS MATERIALIZED (
  SELECT u, event_id,
         DENSE_RANK() OVER (PARTITION BY u ORDER BY t, event_id) - 1 AS k
  FROM (SELECT DISTINCT u, event_id, t FROM cand)),
cst AS MATERIALIZED (
  SELECT c.u, ch.k, c.seg_id, c.emit
  FROM cand c JOIN chain ch ON ch.u = c.u AND ch.event_id = c.event_id
  WHERE ch.k < {VIT_K}),
dp0 AS (SELECT u, seg_id, emit AS cost FROM cst WHERE k = 0),
{', '.join(steps)}
SELECT CAST(u AS BIGINT) AS user_id, CAST(k AS BIGINT) AS k,
       CAST(seg_id AS BIGINT) AS seg_id, CAST(cost AS BIGINT) AS cost
FROM ({' UNION ALL '.join(unions)})
ORDER BY user_id, k, seg_id
"""


# -------------------------- least-cost path (CostPath backtrace)

def q_cost_path(sf_dir: str) -> pd.DataFrame:
    """Least-cost path (the ArcGIS Cost Path tool — the backtrace
    consumer of q_cost_distance): per tile, from the most expensive
    within-budget core pixel (ties → smallest (r, c)), walk the cost
    surface downhill to a seed, at each step moving to the 4-neighbor q
    with acc(q) = acc(p) − cost(p) and the smallest linear index —
    output every path pixel (tile_idx, step, r, c, acc).  All integer;
    the backtrace is deterministic on both engines.

    Scale shape: each tile re-derives its {regions.COST_MAX}-halo window
    and relaxes locally (any within-budget path fits the halo, and every
    prefix of an optimal path is optimal and in-window, so local acc ==
    global acc along the whole path) — zero shuffle, the q_cost_distance
    tileability argument extended to the path itself."""
    import ray.data as rd

    from .regions import (COST_MAX, GRID_TILES, GRID_W, TILE_PX, cost_field,
                          euc_seeds)

    tiles = rd.range(GRID_TILES * GRID_TILES, override_num_blocks=8)
    BIG = np.int64(1 << 30)

    def per_tile(b: pa.Table) -> pd.DataFrame:
        rows = []
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), GRID_TILES)
            r0, c0 = ty * TILE_PX, tx * TILE_PX
            hr0 = max(0, r0 - COST_MAX); hc0 = max(0, c0 - COST_MAX)
            hr1 = min(GRID_W, r0 + TILE_PX + COST_MAX)
            hc1 = min(GRID_W, c0 + TILE_PX + COST_MAX)
            cost = cost_field(hr0, hc0, hr1 - hr0, hc1 - hc0)
            sr, sc = euc_seeds(hr0, hc0, hr1 - hr0, hc1 - hc0)
            acc = np.full(cost.shape, BIG)
            acc[sr - hr0, sc - hc0] = 0
            for _ in range(COST_MAX):
                best = acc.copy()
                best[1:, :] = np.minimum(best[1:, :], acc[:-1, :])
                best[:-1, :] = np.minimum(best[:-1, :], acc[1:, :])
                best[:, 1:] = np.minimum(best[:, 1:], acc[:, :-1])
                best[:, :-1] = np.minimum(best[:, :-1], acc[:, 1:])
                nxt = np.minimum(acc, best + cost)
                nxt[sr - hr0, sc - hc0] = 0
                if np.array_equal(nxt, acc):
                    break
                acc = nxt
            core = acc[r0 - hr0:r0 - hr0 + TILE_PX,
                       c0 - hc0:c0 - hc0 + TILE_PX]
            reach = core <= COST_MAX
            if not reach.any():
                continue
            # destination: max within-budget acc, ties to smallest (r, c)
            cand = np.nonzero(reach)
            vals = core[reach]
            key = (-vals) * (GRID_W * GRID_W) \
                + (cand[0] + r0) * GRID_W + (cand[1] + c0)
            kbest = int(np.argmin(key))
            pr = int(cand[0][kbest] + r0 - hr0)
            pc_ = int(cand[1][kbest] + c0 - hc0)
            step = 0
            while True:
                rows.append((int(tid), step, pr + hr0, pc_ + hc0,
                             int(acc[pr, pc_])))
                if acc[pr, pc_] == 0:
                    break
                want = acc[pr, pc_] - cost[pr, pc_]
                nxt_pix = None
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    qr, qc = pr + dr, pc_ + dc
                    if (0 <= qr < acc.shape[0] and 0 <= qc < acc.shape[1]
                            and acc[qr, qc] == want):
                        lin = (qr + hr0) * GRID_W + (qc + hc0)
                        if nxt_pix is None or lin < nxt_pix[0]:
                            nxt_pix = (lin, qr, qc)
                pr, pc_ = nxt_pix[1], nxt_pix[2]
                step += 1
        return pd.DataFrame(rows, columns=["tile_idx", "step", "r", "c",
                                           "acc"]).astype("int64")

    out = tiles.map_batches(per_tile, batch_format="pyarrow", batch_size=8)
    return (out.to_pandas().sort_values(["tile_idx", "step"])
            .reset_index(drop=True))


def cost_path_oracle_sql() -> str:
    """The cost-distance walk CTE's best table + a windowed destination
    pick + a recursive backtrace whose single next row is enforced by a
    smaller-linear-index NOT EXISTS."""
    from .regions import (_PX_SEEDS_SQL, _xval_sql, COST_MAX, GRID_TILES,
                          GRID_W, TILE_PX)

    cost_p = f"1 + {_xval_sql(f'p.r * {GRID_W} + p.c')} % 4"
    cost_w = f"1 + {_xval_sql(f'w.r * {GRID_W} + w.c')} % 4"
    return f"""
WITH RECURSIVE {_PX_SEEDS_SQL}, walk AS (
  SELECT r, c, CAST(0 AS BIGINT) AS acc FROM seeds
  UNION
  SELECT p.r, p.c, w.acc + {cost_p} AS acc
  FROM walk w
  JOIN px p ON (p.r = w.r + 1 AND p.c = w.c) OR (p.r = w.r - 1 AND p.c = w.c)
            OR (p.r = w.r AND p.c = w.c + 1) OR (p.r = w.r AND p.c = w.c - 1)
  WHERE w.acc + {cost_p} <= {COST_MAX}
), best AS MATERIALIZED (SELECT r, c, MIN(acc) AS acc FROM walk GROUP BY r, c),
dest AS MATERIALIZED (
  SELECT tile_idx, r, c, acc FROM (
    SELECT (r // {TILE_PX}) * {GRID_TILES} + c // {TILE_PX} AS tile_idx,
           r, c, acc,
           ROW_NUMBER() OVER (PARTITION BY (r // {TILE_PX}) * {GRID_TILES}
                              + c // {TILE_PX}
                              ORDER BY acc DESC, r, c) AS rn
    FROM best) WHERE rn = 1),
path(tile_idx, step, r, c, acc) AS (
  SELECT tile_idx, CAST(0 AS BIGINT), r, c, acc FROM dest
  UNION ALL
  SELECT w.tile_idx, w.step + 1, q.r, q.c, q.acc
  FROM path w JOIN best q
    ON ((q.r = w.r + 1 AND q.c = w.c) OR (q.r = w.r - 1 AND q.c = w.c)
        OR (q.r = w.r AND q.c = w.c + 1) OR (q.r = w.r AND q.c = w.c - 1))
   AND q.acc = w.acc - ({cost_w})
  WHERE w.acc > 0
    AND NOT EXISTS (
      SELECT 1 FROM best q2
      WHERE ((q2.r = w.r + 1 AND q2.c = w.c) OR (q2.r = w.r - 1 AND q2.c = w.c)
             OR (q2.r = w.r AND q2.c = w.c + 1)
             OR (q2.r = w.r AND q2.c = w.c - 1))
        AND q2.acc = w.acc - ({cost_w})
        AND q2.r * {GRID_W} + q2.c < q.r * {GRID_W} + q.c))
SELECT CAST(tile_idx AS BIGINT) AS tile_idx, CAST(step AS BIGINT) AS step,
       CAST(r AS BIGINT) AS r, CAST(c AS BIGINT) AS c,
       CAST(acc AS BIGINT) AS acc
FROM path ORDER BY tile_idx, step
"""


# ---------------------- overlay intersect (pairwise rect areas)

IX_CELL = 500   # blocking pitch (>= 2x max rect extent)


def q_rect_intersect_area(sf_dir: str) -> pd.DataFrame:
    """Vector overlay INTERSECT (the pairwise product q_union_area
    dissolves away): every ordered pair of overlapping rectangles from
    the integer rect world with its EXACT intersection area
    max(0, min(x2)−max(x1)) · max(0, min(y2)−max(y1)) — the attribute-
    carrying overlay primitive (parcel × zoning, burn area × land
    cover).

    Scale shape: the q_rect_overlap_join grid method on integer cells —
    each rect emits the ≤2×2 cells its bbox overlaps at pitch {IX_CELL}
    ≥ 2× max extent, pairs form inside groupby(cell), and the
    report-once owner is the LOWER-KEY rect's min-corner cell (in both
    emission sets whenever the pair overlaps, since overlap ⇒ corners
    within one extent of each other)."""
    ds = read_table(sf_dir, "orders", columns=["o_orderkey"])

    def emit(b: pa.Table) -> pa.Table:
        k = np.asarray(b["o_orderkey"], np.int64)
        x1, y1, w, h = _ua_rects(k)
        x2, y2 = x1 + w, y1 + h            # exclusive
        parts = []
        for i in (0, 1):
            for j in (0, 1):
                cx = x1 // IX_CELL + i
                cy = y1 // IX_CELL + j
                keep = (cx <= (x2 - 1) // IX_CELL) & (cy <= (y2 - 1)
                                                      // IX_CELL)
                if not keep.any():
                    continue
                parts.append(pa.table({
                    "key": pa.array(cx[keep] * 1024 + cy[keep]),
                    "id": pa.array(k[keep]),
                    "x1": pa.array(x1[keep]), "y1": pa.array(y1[keep]),
                    "x2": pa.array(x2[keep]), "y2": pa.array(y2[keep])}))
        return _concat_or_empty(parts, {k: pa.int64() for k in
                                        ("key", "id", "x1", "y1",
                                         "x2", "y2")})

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["id"].to_numpy(np.int64)
        key = int(g["key"].iloc[0])
        x1 = g["x1"].to_numpy(np.int64)
        y1 = g["y1"].to_numpy(np.int64)
        x2 = g["x2"].to_numpy(np.int64)
        y2 = g["y2"].to_numpy(np.int64)
        iw = (np.minimum(x2[:, None], x2[None, :])
              - np.maximum(x1[:, None], x1[None, :]))
        ih = (np.minimum(y2[:, None], y2[None, :])
              - np.maximum(y1[:, None], y1[None, :]))
        # report-once owner: the cell holding the intersection's min
        # corner — inside BOTH bboxes, so both rects emitted here
        ox = np.maximum(x1[:, None], x1[None, :]) // IX_CELL
        oy = np.maximum(y1[:, None], y1[None, :]) // IX_CELL
        hit = ((ids[:, None] < ids[None, :]) & (iw > 0) & (ih > 0)
               & (ox * 1024 + oy == key))
        i, j = np.nonzero(hit)
        return pd.DataFrame({"a_id": ids[i], "b_id": ids[j],
                             "ix_area": iw[i, j] * ih[i, j]})

    out = (ds.map_batches(emit, batch_format="pyarrow")
           .groupby("key").map_groups(pairs, batch_format="pandas")
           .to_pandas())
    return (out.astype({c: "int64" for c in out.columns})
            .sort_values(["a_id", "b_id"]).reset_index(drop=True))


def rect_intersect_area_oracle_sql() -> str:
    """Exactly-once blocked self-join: owner = the lower-key rect's
    min-corner cell; the partner emits there whenever the pair
    overlaps (corner distance < extent ≤ pitch)."""
    x1 = _mix_sql("6000000000 + 4 * o_orderkey")
    y1 = _mix_sql("6000000001 + 4 * o_orderkey")
    w = _mix_sql("6000000002 + 4 * o_orderkey", UA_MAXW) + " + 1"
    h = _mix_sql("6000000003 + 4 * o_orderkey", UA_MAXW) + " + 1"
    return f"""
WITH rects AS MATERIALIZED (
  SELECT o_orderkey AS id, {x1} AS x1, {y1} AS y1,
         {x1} + ({w}) AS x2, {y1} + ({h}) AS y2
  FROM orders),
ring AS MATERIALIZED (
  SELECT id, x1, y1, x2, y2,
         (x1 // {IX_CELL} + dx.d) * 1024 + (y1 // {IX_CELL} + dy.d) AS ck
  FROM rects, (VALUES (0), (1)) dx(d), (VALUES (0), (1)) dy(d)
  WHERE x1 // {IX_CELL} + dx.d <= (x2 - 1) // {IX_CELL}
    AND y1 // {IX_CELL} + dy.d <= (y2 - 1) // {IX_CELL})
SELECT o.id AS a_id, c.id AS b_id,
       CAST((LEAST(o.x2, c.x2) - GREATEST(o.x1, c.x1))
            * (LEAST(o.y2, c.y2) - GREATEST(o.y1, c.y1)) AS BIGINT)
         AS ix_area
FROM ring o JOIN ring c ON c.ck = o.ck
WHERE o.id < c.id
  AND LEAST(o.x2, c.x2) > GREATEST(o.x1, c.x1)
  AND LEAST(o.y2, c.y2) > GREATEST(o.y1, c.y1)
  AND (GREATEST(o.x1, c.x1) // {IX_CELL}) * 1024
      + (GREATEST(o.y1, c.y1) // {IX_CELL}) = o.ck
ORDER BY a_id, b_id
"""


# -------------------- repeated contacts (co-travel rollup)

CT_MIN_CONTACTS = 2
CT_R = 80                               # wider contact radius than STJ
CT_TAU_US = 24 * 3600 * 1_000_000       # wider window (= the bucket pitch)


def q_co_travel(sf_dir: str) -> pd.DataFrame:
    """Repeated-contact detection (the rollup stage of Trace Proximity
    Events: distinct co-location events between the same two users):
    user pairs with ≥ {CT_MIN_CONTACTS} contacts (radius {CT_R}, window {CT_TAU_US} µs — wider than q_spacetime_join so repeats exist at the gate scale),
    with the contact count and the minimum squared distance — the
    co-travel / recurring-encounter signal.

    Scale shape: the spacetime-join pair surface (exactly-once 3-D
    grid) re-keyed once on the unordered user pair; partial (count,
    min) per batch then one tiny groupby — contacts, not events,
    shuffle."""
    from ray.data.aggregate import Min, Sum

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    R2 = CT_R * CT_R

    def emit(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        uid = np.asarray(b["user_id"], np.int64)
        t = b["ts"].cast(pa.int64()).to_numpy() - STJ_T0_US
        px, py = _seg_points(eid)
        cx, cy = px // STJ_CELL, py // STJ_CELL
        tb = _tb_checked(t // STJ_TB_US)
        parts = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    sp_ok = np.ones(eid.size, bool)
                else:
                    xlo = (cx + dx) * STJ_CELL
                    ylo = (cy + dy) * STJ_CELL
                    ddx = np.maximum(
                        np.maximum(xlo - px, px - (xlo + STJ_CELL - 1)), 0)
                    ddy = np.maximum(
                        np.maximum(ylo - py, py - (ylo + STJ_CELL - 1)), 0)
                    sp_ok = ddx * ddx + ddy * ddy <= R2
                if not sp_ok.any():
                    continue
                for dt in (-1, 0, 1):
                    if dt == 0:
                        keep = sp_ok
                    else:
                        gap = (t - (tb + 1) * STJ_TB_US + 1 if dt == 1
                               else tb * STJ_TB_US - t)
                        keep = sp_ok & (np.abs(gap) <= CT_TAU_US)
                    if not keep.any():
                        continue
                    parts.append(pa.table({
                        "key": pa.array(((cx[keep] + dx) * 100003
                                         + cy[keep] + dy) * 64
                                        + tb[keep] + dt + 1),
                        "own": pa.array(np.full(int(keep.sum()),
                                                dx == 0 and dy == 0
                                                and dt == 0)),
                        "id": pa.array(eid[keep]), "u": pa.array(uid[keep]),
                        "x": pa.array(px[keep]), "y": pa.array(py[keep]),
                        "t": pa.array(t[keep])}))
        return _concat_or_empty(parts, {
            "key": pa.int64(), "own": pa.bool_(), "id": pa.int64(),
            "u": pa.int64(), "x": pa.int64(), "y": pa.int64(),
            "t": pa.int64()})

    def contacts(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["id"].to_numpy(np.int64)
        u = g["u"].to_numpy(np.int64)
        x = g["x"].to_numpy(np.int64)
        y = g["y"].to_numpy(np.int64)
        t = g["t"].to_numpy(np.int64)
        own = g["own"].to_numpy(bool)
        oi = np.nonzero(own)[0]
        if oi.size == 0:
            return pd.DataFrame({c: pd.Series(dtype="int64") for c in
                                 ("ua", "ub", "n", "min_d2")})
        dxm = x[oi, None] - x[None, :]
        dym = y[oi, None] - y[None, :]
        d2 = dxm * dxm + dym * dym
        dt = np.abs(t[None, :] - t[oi, None])
        hit = ((ids[oi, None] < ids[None, :]) & (u[oi, None] != u[None, :])
               & (d2 <= R2) & (dt <= CT_TAU_US))
        i, j = np.nonzero(hit)
        ua = np.minimum(u[oi][i], u[j])
        ub = np.maximum(u[oi][i], u[j])
        df = pd.DataFrame({"ua": ua, "ub": ub, "d2": d2[i, j]})
        p = df.groupby(["ua", "ub"], as_index=False).agg(
            n=("d2", "size"), min_d2=("d2", "min"))
        return p.astype("int64")

    out = (ds.map_batches(emit, batch_format="pyarrow")
           .groupby("key").map_groups(contacts, batch_format="pandas")
           .groupby(["ua", "ub"])
           .aggregate(Sum("n", alias_name="n_contacts"),
                      Min("min_d2", alias_name="min_d2"))
           .to_pandas())
    cols = ("ua", "ub", "n_contacts", "min_d2")
    if out.empty:
        out = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    out = out[out["n_contacts"] >= CT_MIN_CONTACTS]
    return (out.astype({c: "int64" for c in cols})
            .sort_values(["ua", "ub"]).reset_index(drop=True))


def co_travel_oracle_sql() -> str:
    """The spacetime-join exactly-once 3-D blocked oracle at the CT
    thresholds, rolled up on the unordered user pair."""
    return f"""
WITH pts AS MATERIALIZED (
  SELECT event_id AS id, user_id AS u,
         {_mix_sql('2000000000 + 2 * event_id')} AS px,
         {_mix_sql('2000000001 + 2 * event_id')} AS py,
         epoch_us(ts) - {STJ_T0_US} AS t
  FROM events),
own AS MATERIALIZED (
  SELECT id, u, px, py, t,
         ((px // {STJ_CELL}) * 100003 + (py // {STJ_CELL})) * 64
         + t // {STJ_TB_US} + 1 AS ck
  FROM pts),
ring AS MATERIALIZED (
  SELECT id, u, px, py, t,
         ((px // {STJ_CELL} + dx.d) * 100003
          + (py // {STJ_CELL} + dy.d)) * 64
         + t // {STJ_TB_US} + dt.d + 1 AS ck
  FROM pts, (VALUES (-1), (0), (1)) dx(d),
            (VALUES (-1), (0), (1)) dy(d),
            (VALUES (-1), (0), (1)) dt(d)),
contacts AS MATERIALIZED (
  SELECT LEAST(o.u, c.u) AS ua, GREATEST(o.u, c.u) AS ub,
         (o.px-c.px)*(o.px-c.px) + (o.py-c.py)*(o.py-c.py) AS d2
  FROM own o JOIN ring c ON c.ck = o.ck
  WHERE o.id < c.id AND o.u <> c.u
    AND (o.px-c.px)*(o.px-c.px) + (o.py-c.py)*(o.py-c.py)
        <= {CT_R * CT_R}
    AND abs(c.t - o.t) <= {CT_TAU_US})
SELECT CAST(ua AS BIGINT) AS ua, CAST(ub AS BIGINT) AS ub,
       CAST(COUNT(*) AS BIGINT) AS n_contacts,
       CAST(MIN(d2) AS BIGINT) AS min_d2
FROM contacts GROUP BY ua, ub
HAVING COUNT(*) >= {CT_MIN_CONTACTS}
ORDER BY ua, ub
"""
