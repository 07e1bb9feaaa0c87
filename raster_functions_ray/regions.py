"""Raster region analysis: connected-component labeling and zonal geometry.

Re-expresses the reference's region-oriented raster semantics (the zone
machinery behind ZonalRemap / RasterizeAttributes, functions/ZonalRemap.py,
and the "region group" family every raster calculator exposes) as Ray Data
stages over a tiled grid:

- **q_region_label** — distributed connected-component labeling (ArcGIS
  "Region Group" shape): each tile labels its own pixels locally (vectorized
  min-propagation in numpy), emits one row per LOCAL region plus boundary
  handshake rows keyed on the shared tile edge; a groupby on the edge key
  pairs the two sides into a region-graph edge list (edge-sized, tiny vs the
  raster: the fixed 512² field has at most 7,168 cross-tile adjacencies), and
  a driver union-find resolves global components.  No pixel
  ever crosses the wire twice: the shuffle carries only per-region partials
  and boundary handshakes — at 100 TB the exchange is O(regions + tile
  perimeter), not O(pixels).

The masked world is a counter-based percolation field (the
rasterqueries._rnd_mix discipline — multiply/xor-shift rounds, SQL-exact in
DuckDB UBIGINT) at density 0.45, subcritical for 4-connected site
percolation (p_c ≈ 0.5927), so components stay small (max ~200 px at 512²)
and the recursive-CTE oracle floods O(Σ s²) ≈ 2.7 M rows.

Oracle: DuckDB recursive CTE — min-label flood over the 4-adjacency edge
list of the identical mask, then per-component COUNT/MIN/MAX (all
order-independent, integer-exact).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Min

# shared with rasterqueries._rnd_mix: two multiply/xor-shift rounds over a
# global pixel counter — tiling-independent, block-independent, SQL-exact
_M1 = 2654435761  # Knuth multiplicative constant
_M2 = 2246822519  # xxhash PRIME32_2 (published public constant)
_MOD = 1 << 32

# fixed-size gate world (like the D8 / random-source gates): 8×8 tiles of
# 64×64 px → 512×512 grid, ~118 k masked px, ~23 k components
GRID_TILES = 8
TILE_PX = 64
GRID_W = GRID_TILES * TILE_PX
MASK_DENSITY = 450  # of 1000 — subcritical


def mask_values(ids: np.ndarray) -> np.ndarray:
    """Counter mix → [0, 1000) — the mask field (uint64 in/out, exact)."""
    h = (ids.astype(np.uint64) * np.uint64(_M1)) % np.uint64(_MOD)
    return ((h ^ (h >> np.uint64(16))) * np.uint64(_M2)) % np.uint64(_MOD) % np.uint64(1000)


def percolation_mask(r0: int, c0: int, h: int, w: int, grid_w: int = GRID_W) -> np.ndarray:
    """Boolean mask for the (h, w) window at global offset (r0, c0)."""
    rr = (np.arange(r0, r0 + h, dtype=np.uint64)[:, None] * np.uint64(grid_w))
    cc = np.arange(c0, c0 + w, dtype=np.uint64)[None, :]
    return mask_values(rr + cc) < MASK_DENSITY


def label_min_propagation(mask: np.ndarray, base_ids: np.ndarray) -> np.ndarray:
    """Connected-component labels (4-connectivity) for a boolean mask;
    label = min of ``base_ids`` over the component, -1 where unmasked.

    Vectorized min-propagation: each sweep takes the elementwise min with
    all four shifted neighbours until fixpoint.  Iteration count is the max
    component diameter — bounded and small for the subcritical field (43 at
    512²); work per sweep is O(pixels) in pure numpy.
    """
    lab = np.where(mask, base_ids, np.int64(-1))
    while True:
        new = lab.copy()
        m = (new[1:, :] >= 0) & (lab[:-1, :] >= 0)
        new[1:, :][m] = np.minimum(new[1:, :], lab[:-1, :])[m]
        m = (new[:-1, :] >= 0) & (new[1:, :] >= 0)
        new[:-1, :][m] = np.minimum(new[:-1, :], new[1:, :])[m]
        m = (new[:, 1:] >= 0) & (new[:, :-1] >= 0)
        new[:, 1:][m] = np.minimum(new[:, 1:], new[:, :-1])[m]
        m = (new[:, :-1] >= 0) & (new[:, 1:] >= 0)
        new[:, :-1][m] = np.minimum(new[:, :-1], new[:, 1:])[m]
        if np.array_equal(new, lab):
            return lab
        lab = new


def _tile_partials(b: pa.Table) -> pa.Table:
    """Per-tile local labeling → region partial rows + boundary handshakes.

    Region rows: kind=0, key=local region id (min global px id in tile),
    px_count/min_r/min_c/max_r/max_c/n_adj partials (n_adj = within-tile
    4-adjacent masked pairs of the region, for perimeter).
    Handshake rows: kind=1, key=edge id (2·px_id [+1 for vertical]), val=
    the emitting side's local region id; the groupby pairs the two sides.
    """
    out_kind, out_key, out_val = [], [], []
    out_cnt, out_minr, out_minc, out_maxr, out_maxc, out_adj = [], [], [], [], [], []
    for tid in np.asarray(b["id"], dtype=np.int64):
        ty, tx = divmod(int(tid), GRID_TILES)
        r0, c0 = ty * TILE_PX, tx * TILE_PX
        mask = percolation_mask(r0, c0, TILE_PX, TILE_PX)
        gids = ((np.arange(r0, r0 + TILE_PX, dtype=np.int64)[:, None] * GRID_W)
                + np.arange(c0, c0 + TILE_PX, dtype=np.int64)[None, :])
        lab = label_min_propagation(mask, gids)
        flat_lab, flat_ids = lab.ravel(), gids.ravel()
        sel = flat_lab >= 0
        keys, inv = np.unique(flat_lab[sel], return_inverse=True)
        n = len(keys)
        if n:
            rs, cs = flat_ids[sel] // GRID_W, flat_ids[sel] % GRID_W
            cnt = np.bincount(inv, minlength=n)
            minr = np.full(n, np.iinfo(np.int64).max); np.minimum.at(minr, inv, rs)
            maxr = np.full(n, -1, np.int64); np.maximum.at(maxr, inv, rs)
            minc = np.full(n, np.iinfo(np.int64).max); np.minimum.at(minc, inv, cs)
            maxc = np.full(n, -1, np.int64); np.maximum.at(maxc, inv, cs)
            # within-tile adjacent masked pairs per region (both endpoints
            # share the region label by construction)
            adj = np.zeros(n, np.int64)
            right = mask[:, :-1] & mask[:, 1:]
            down = mask[:-1, :] & mask[1:, :]
            for pair_lab in (lab[:, :-1][right], lab[:-1, :][down]):
                if len(pair_lab):
                    pidx = np.searchsorted(keys, pair_lab)
                    np.add.at(adj, pidx, 1)
            out_kind.append(np.zeros(n, np.int64)); out_key.append(keys)
            out_val.append(keys)
            out_cnt.append(cnt.astype(np.int64))
            out_minr.append(minr); out_minc.append(minc)
            out_maxr.append(maxr); out_maxc.append(maxc)
            out_adj.append(adj)
        # boundary handshakes: east edge (horizontal adjacency) and south
        # edge (vertical); the neighbour's mask bit is recomputable from the
        # counter field, so only genuinely-connected edges are emitted
        for vert, (edge_lab, edge_ids, nbr_off) in {
            False: (lab[:, -1], gids[:, -1], 1),
            True: (lab[-1, :], gids[-1, :], GRID_W),
        }.items():
            if (not vert and tx == GRID_TILES - 1) or (vert and ty == GRID_TILES - 1):
                continue
            live = edge_lab >= 0
            nbr_masked = mask_values(edge_ids[live].astype(np.uint64)
                                     + np.uint64(nbr_off)) < MASK_DENSITY
            pick = np.flatnonzero(live)[nbr_masked]
            if len(pick):
                ek = 2 * edge_ids[pick] + (1 if vert else 0)
                m = len(ek)
                out_kind.append(np.ones(m, np.int64)); out_key.append(ek)
                out_val.append(edge_lab[pick])
                z = np.zeros(m, np.int64)
                out_cnt.append(z); out_minr.append(z); out_minc.append(z)
                out_maxr.append(z); out_maxc.append(z); out_adj.append(z)
        # the west/north sides of interior edges are emitted by the
        # NEIGHBOUR tile's east/south pass — every interior edge key gets
        # exactly two rows, one per side
        for vert, (edge_lab, edge_ids, own_off) in {
            False: (lab[:, 0], gids[:, 0], 1),
            True: (lab[0, :], gids[0, :], GRID_W),
        }.items():
            if (not vert and tx == 0) or (vert and ty == 0):
                continue
            live = edge_lab >= 0
            pick = np.flatnonzero(live)
            if len(pick):
                ek = 2 * (edge_ids[pick] - own_off) + (1 if vert else 0)
                m = len(ek)
                out_kind.append(np.ones(m, np.int64)); out_key.append(ek)
                out_val.append(edge_lab[pick])
                z = np.zeros(m, np.int64)
                out_cnt.append(z); out_minr.append(z); out_minc.append(z)
                out_maxr.append(z); out_maxc.append(z); out_adj.append(z)
    if not out_kind:
        e = pa.array([], pa.int64())
        return pa.table({c: e for c in ("kind", "key", "val", "px_count",
                                        "min_r", "min_c", "max_r", "max_c",
                                        "n_adj")})
    return pa.table({
        "kind": pa.array(np.concatenate(out_kind)),
        "key": pa.array(np.concatenate(out_key)),
        "val": pa.array(np.concatenate(out_val)),
        "px_count": pa.array(np.concatenate(out_cnt)),
        "min_r": pa.array(np.concatenate(out_minr)),
        "min_c": pa.array(np.concatenate(out_minc)),
        "max_r": pa.array(np.concatenate(out_maxr)),
        "max_c": pa.array(np.concatenate(out_maxc)),
        "n_adj": pa.array(np.concatenate(out_adj)),
    })


def union_find_labels(u: np.ndarray, v: np.ndarray) -> pd.DataFrame:
    """Driver-side union-find over a RESULT-SIZED edge array → node/label
    frame (label = min node id per component).  Used while the edges fit
    the driver budget, where the distributed propagation's fixed
    per-exchange cost (~1 s/round) dwarfs the actual work;
    trainprep.connected_components is the unbounded-scale path."""
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    parent = np.arange(len(nodes))

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:  # path compression
            parent[i], i = root, parent[i]
        return root

    half = len(u)
    for a, b in zip(inv[:half], inv[half:]):
        ra, rb = find(a), find(b)
        if ra != rb:
            # union by min node id keeps the canonical-label invariant
            if nodes[ra] < nodes[rb]:
                parent[rb] = ra
            else:
                parent[ra] = rb
    roots = np.array([find(i) for i in range(len(nodes))])
    return pd.DataFrame({"node": nodes, "label": nodes[roots]})


def _labeled_regions() -> tuple[pd.DataFrame, pd.DataFrame]:
    """Shared machinery: tile partials → (region partials with their global
    component label as ``region_id``, cross-tile handshake pairs).

    Both returned frames are result-sized (O(regions), O(boundary
    adjacencies)) — never O(pixels)."""
    parts = rd.range(GRID_TILES * GRID_TILES, override_num_blocks=8).map_batches(
        _tile_partials, batch_format="pyarrow", batch_size=16).materialize()

    regions = parts.filter(expr="kind == 0")
    # boundary handshakes → region-graph edges: each interior edge key has
    # one row per side; Min/Max over the two vals forms the (u, v) pair
    hands = (parts.filter(expr="kind == 1")
             .groupby("key")
             .aggregate(Count(alias_name="n"),
                        Min("val", alias_name="u"), Max("val", alias_name="v")))
    pair_df = hands.filter(expr="n == 2").select_columns(["u", "v"]).to_pandas()
    edge_df = pair_df[pair_df.u != pair_df.v].drop_duplicates()

    reg = regions.select_columns(
        ["key", "px_count", "min_r", "min_c", "max_r", "max_c", "n_adj"]).to_pandas()
    if edge_df.empty:
        lab = reg[["key"]].copy(); lab["label"] = lab["key"]
    else:
        # the field is the fixed GRID_TILES² grid of TILE_PX² tiles, so
        # cross-tile edges number at most 2·(GRID_TILES−1)·GRID_TILES·TILE_PX
        # (7,168): the region graph always resolves on the driver
        cc = union_find_labels(edge_df["u"].to_numpy(np.int64),
                               edge_df["v"].to_numpy(np.int64))
        lab = reg[["key"]].merge(cc.rename(columns={"node": "key"}),
                                 on="key", how="left")
        lab["label"] = lab["label"].fillna(lab["key"]).astype(np.int64)
    return reg.assign(region_id=lab["label"].to_numpy()), pair_df


def q_region_label(sf_dir: str) -> pd.DataFrame:
    """Distributed raster connected-component labeling over the percolation
    field: per-component region_id (min global pixel id), pixel count and
    bounding box.  See module docstring for the exchange plan.
    """
    reg, _ = _labeled_regions()
    # final component rollup — region partials are result-sized (≪ pixels),
    # so a driver-side merge is the cheap, shuffle-free finish
    out = (reg.groupby("region_id", as_index=False)
           .agg(px_count=("px_count", "sum"), min_r=("min_r", "min"),
                min_c=("min_c", "min"), max_r=("max_r", "max"),
                max_c=("max_c", "max")))
    return out.sort_values("region_id").reset_index(drop=True)


def q_region_geometry(sf_dir: str) -> pd.DataFrame:
    """Zonal geometry over the labeled regions (the reference's
    ZonalAttributes/zonal stack measured on REGIONS instead of zone
    polygons; ArcGIS ZonalGeometry AREA/PERIMETER semantics on a
    4-connected raster): per component — area (pixel count), perimeter
    (exposed 4-neighbour edges = 4·area − 2·adjacencies), and the P²/A
    compactness ratio (one IEEE division of two exact integers).

    Adjacencies come from two result-sized partials: within-tile pair
    counts (per-region n_adj) and cross-tile handshake pairs, each counted
    once by construction (east/south emission owns the pair).
    """
    reg, pair_df = _labeled_regions()
    rollup = (reg.groupby("region_id", as_index=False)
              .agg(px_count=("px_count", "sum"), inner=("n_adj", "sum")))
    # each handshake pair is one cross-tile adjacency of the component
    # containing u (u, v are merged by construction)
    if pair_df.empty:
        rollup["cross"] = 0
    else:
        key2label = dict(zip(reg["key"], reg["region_id"]))
        lbl = pair_df["u"].map(key2label)
        cross = lbl.value_counts()
        rollup["cross"] = rollup["region_id"].map(cross).fillna(0).astype(np.int64)
    adj = rollup["inner"] + rollup["cross"]
    perim = 4 * rollup["px_count"] - 2 * adj
    out = pd.DataFrame({
        "region_id": rollup["region_id"],
        "px_count": rollup["px_count"].astype(np.int64),
        "perimeter": perim.astype(np.int64),
        "compactness": (perim * perim).astype(np.float64)
        / rollup["px_count"].astype(np.float64),
    })
    return out.sort_values("region_id").reset_index(drop=True)


Q_REGION_GEOMETRY_SQL = f"""
WITH RECURSIVE px AS (
  SELECT CAST(range AS BIGINT) AS id,
         CAST(range AS BIGINT) // {GRID_W} AS r, CAST(range AS BIGINT) % {GRID_W} AS c
  FROM range(0, {GRID_W * GRID_W})
  WHERE CAST((xor((CAST(range AS UBIGINT) * {_M1}) % {_MOD},
                  ((CAST(range AS UBIGINT) * {_M1}) % {_MOD}) >> 16)
              * {_M2}) % {_MOD} % 1000 AS BIGINT) < {MASK_DENSITY}
), e AS (
  SELECT a.id AS u, b.id AS v FROM px a JOIN px b ON b.id = a.id + 1
  WHERE a.c < {GRID_W - 1}
  UNION ALL
  SELECT a.id, b.id FROM px a JOIN px b ON b.id = a.id + {GRID_W}
), sym AS (SELECT u, v FROM e UNION ALL SELECT v AS u, u AS v FROM e),
lbl AS (
  SELECT id, id AS l FROM px
  UNION
  SELECT s.v AS id, lbl.l FROM lbl JOIN sym s ON s.u = lbl.id WHERE lbl.l < s.v
), comp AS (SELECT id, MIN(l) AS label FROM lbl GROUP BY id),
area AS (
  SELECT label AS region_id, COUNT(*) AS px_count FROM comp GROUP BY label
), adj AS (
  SELECT comp.label AS region_id, COUNT(*) AS n_adj
  FROM e JOIN comp ON e.u = comp.id GROUP BY comp.label
)
SELECT area.region_id, area.px_count,
       4 * area.px_count - 2 * COALESCE(adj.n_adj, 0) AS perimeter,
       CAST((4 * area.px_count - 2 * COALESCE(adj.n_adj, 0))
            * (4 * area.px_count - 2 * COALESCE(adj.n_adj, 0)) AS DOUBLE)
       / CAST(area.px_count AS DOUBLE) AS compactness
FROM area LEFT JOIN adj USING (region_id)
"""


# --------------------------------------------------------- LOS viewshed

# integer pseudo-DEM (the D8-gate discipline): z = ((r·37 + c·17 + 11)·M1)
# % 4096 — exact in int64 and DuckDB BIGINT (max product ~7.3e13 < 2^63)
_DEM_MOD = 4096


def los_dem(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    return ((r.astype(np.int64) * 37 + c.astype(np.int64) * 17 + 11)
            * np.int64(_M1)) % np.int64(_DEM_MOD)


OBS_H = 10  # observer height above the terrain at c=0


def _los_segments(b: pa.Table) -> pa.Table:
    """Phase 1: per (row, tile-column) running-max tangent of the LOCAL
    segment — one partial row per (r, tx), O(rows·tiles) ≪ pixels."""
    out_r, out_tx, out_mx = [], [], []
    for tid in np.asarray(b["id"], dtype=np.int64):
        ty, tx = divmod(int(tid), GRID_TILES)
        r = np.arange(ty * TILE_PX, (ty + 1) * TILE_PX, dtype=np.int64)[:, None]
        c = np.arange(tx * TILE_PX, (tx + 1) * TILE_PX, dtype=np.int64)[None, :]
        z = los_dem(np.broadcast_to(r, (TILE_PX, TILE_PX)),
                    np.broadcast_to(c, (TILE_PX, TILE_PX)))
        z0 = los_dem(r[:, 0], np.zeros(TILE_PX, np.int64)) + OBS_H
        tan = (z - z0[:, None]).astype(np.float64) / np.maximum(c, 1).astype(np.float64)
        if tx == 0:
            tan[:, 0] = -np.inf  # observer cell — never a blocker
        out_r.append(r[:, 0].repeat(1))
        out_tx.append(np.full(TILE_PX, tx, np.int64))
        out_mx.append(tan.max(axis=1))
    return pa.table({"r": pa.array(np.concatenate(out_r)),
                     "tx": pa.array(np.concatenate(out_tx)),
                     "seg_max": pa.array(np.concatenate(out_mx))})


def q_los_viewshed(sf_dir: str) -> pd.DataFrame:
    """Scanline line-of-sight viewshed (the reference's visibility family;
    ArcGIS Viewshed semantics along west→east scanlines): a pixel is
    visible from the row's western observer iff its elevation angle
    strictly exceeds every angle before it.

    Distributed as a two-phase prefix-max scan — the canonical way a
    sequential-looking dependency ships at 100 TB: (1) each tile emits its
    per-row SEGMENT max tangent (O(rows·G) partials, no pixels shuffled);
    (2) the driver prefix-combines segments per row (result-sized,
    associative) into per-(row, tile) exclusive offsets; (3) a second
    tile pass injects the offset and finalizes visibility locally.
    Output: per-row visible count + furthest visible column.
    """
    import ray

    tiles = rd.range(GRID_TILES * GRID_TILES, override_num_blocks=8)
    seg = tiles.map_batches(_los_segments, batch_format="pyarrow",
                            batch_size=16).to_pandas()
    # exclusive prefix max per row across tile columns (rows×G partials)
    seg = seg.sort_values(["r", "tx"])
    piv = seg.pivot(index="r", columns="tx", values="seg_max").to_numpy()
    prefix = np.full_like(piv, -np.inf)
    np.maximum.accumulate(piv[:, :-1], axis=1, out=prefix[:, 1:])
    offsets_ref = ray.put(prefix)  # rows×G doubles, broadcast once

    def finalize(b: pa.Table) -> pa.Table:
        pref = ray.get(offsets_ref)
        out_r, out_cnt, out_far = [], [], []
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), GRID_TILES)
            rows = np.arange(ty * TILE_PX, (ty + 1) * TILE_PX, dtype=np.int64)
            r2 = rows[:, None]
            c = np.arange(tx * TILE_PX, (tx + 1) * TILE_PX, dtype=np.int64)[None, :]
            z = los_dem(np.broadcast_to(r2, (TILE_PX, TILE_PX)),
                        np.broadcast_to(c, (TILE_PX, TILE_PX)))
            z0 = los_dem(rows, np.zeros(TILE_PX, np.int64)) + OBS_H
            tan = (z - z0[:, None]).astype(np.float64) / np.maximum(c, 1).astype(np.float64)
            if tx == 0:
                tan[:, 0] = -np.inf  # observer cell — never a blocker
            # running max BEFORE each column, seeded with the cross-tile prefix
            seed = pref[rows, tx][:, None]
            run = np.maximum.accumulate(np.concatenate([seed, tan[:, :-1]], axis=1), axis=1)
            vis = tan > run
            if tx == 0:
                vis[:, 0] = False  # observer cell not counted
            cnt = vis.sum(axis=1).astype(np.int64)
            far = np.where(vis.any(axis=1), c.ravel()[np.where(
                vis, np.arange(TILE_PX)[None, :], -1).max(axis=1)], np.int64(-1))
            out_r.append(rows); out_cnt.append(cnt); out_far.append(far)
        return pa.table({"r": pa.array(np.concatenate(out_r)),
                         "visible_count": pa.array(np.concatenate(out_cnt)),
                         "far_c": pa.array(np.concatenate(out_far))})

    per_tile = tiles.map_batches(finalize, batch_format="pyarrow", batch_size=16)
    from ray.data.aggregate import Max as AMax, Sum as ASum
    out = (per_tile.groupby("r")
           .aggregate(ASum("visible_count", alias_name="visible_count"),
                      AMax("far_c", alias_name="far_c"))).to_pandas()
    return out.sort_values("r").reset_index(drop=True)


Q_LOS_VIEWSHED_SQL = f"""
WITH px AS (
  SELECT CAST(range AS BIGINT) // {GRID_W} AS r, CAST(range AS BIGINT) % {GRID_W} AS c,
         ((CAST(range AS BIGINT) // {GRID_W} * 37 + CAST(range AS BIGINT) % {GRID_W} * 17 + 11)
          * {_M1}) % {_DEM_MOD} AS z
  FROM range(0, {GRID_W * GRID_W})
), t AS (
  SELECT r, c,
         CAST(z - (((r * 37 + 11) * {_M1}) % {_DEM_MOD} + {OBS_H}) AS DOUBLE)
         / CAST(c AS DOUBLE) AS tan
  FROM px WHERE c >= 1
), v AS (
  SELECT r, c, tan,
         tan > COALESCE(MAX(tan) OVER (PARTITION BY r ORDER BY c
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
               CAST('-infinity' AS DOUBLE)) AS vis
  FROM t
)
SELECT r, CAST(COUNT(*) FILTER (WHERE vis) AS BIGINT) AS visible_count,
       COALESCE(MAX(c) FILTER (WHERE vis), -1) AS far_c
FROM v GROUP BY r
"""


Q_REGION_LABEL_SQL = f"""
WITH RECURSIVE px AS (
  SELECT CAST(range AS BIGINT) AS id,
         CAST(range AS BIGINT) // {GRID_W} AS r, CAST(range AS BIGINT) % {GRID_W} AS c
  FROM range(0, {GRID_W * GRID_W})
  WHERE CAST((xor((CAST(range AS UBIGINT) * {_M1}) % {_MOD},
                  ((CAST(range AS UBIGINT) * {_M1}) % {_MOD}) >> 16)
              * {_M2}) % {_MOD} % 1000 AS BIGINT) < {MASK_DENSITY}
), e AS (
  SELECT a.id AS u, b.id AS v FROM px a JOIN px b ON b.id = a.id + 1
  WHERE a.c < {GRID_W - 1}
  UNION ALL
  SELECT a.id, b.id FROM px a JOIN px b ON b.id = a.id + {GRID_W}
), sym AS (SELECT u, v FROM e UNION ALL SELECT v AS u, u AS v FROM e),
lbl AS (
  SELECT id, id AS l FROM px
  UNION
  SELECT s.v AS id, lbl.l FROM lbl JOIN sym s ON s.u = lbl.id WHERE lbl.l < s.v
), comp AS (SELECT id, MIN(l) AS label FROM lbl GROUP BY id)
SELECT comp.label AS region_id, COUNT(*) AS px_count,
       MIN(px.r) AS min_r, MIN(px.c) AS min_c,
       MAX(px.r) AS max_r, MAX(px.c) AS max_c
FROM comp JOIN px ON px.id = comp.id
GROUP BY comp.label
"""


# ------------------------------------------- euclidean distance transform

EUC_R = 24            # search radius (bounded → per-tile halo is R wide)
EUC_SEED_OFF = 3_000_000_000_000  # counter offset decorrelating seeds
EUC_SEED_DENS = 3     # of 1000 → ~0.3 % of pixels are seeds


def euc_seeds(r0: int, c0: int, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Seed coordinates inside the (h, w) window at offset (r0, c0) —
    derived from the counter field, so any tile can evaluate its OWN halo
    without communication (with data-driven seeds this window would come
    from stages/halo.with_halo_from_parquet instead)."""
    rr = np.arange(r0, r0 + h, dtype=np.int64)
    cc = np.arange(c0, c0 + w, dtype=np.int64)
    ids = rr[:, None] * GRID_W + cc[None, :]
    # reduce mod 2^32 BEFORE the mix: numpy would silently wrap the uint64
    # product but DuckDB UBIGINT raises on overflow — the reduced form is
    # identical on both sides and never exceeds 2^64
    ctr = ((EUC_SEED_OFF + ids) % _MOD).astype(np.uint64)
    hit = mask_values(ctr) < EUC_SEED_DENS
    sr, sc = np.nonzero(hit)
    return rr[sr], cc[sc]


def q_euc_distance(sf_dir: str) -> pd.DataFrame:
    """Bounded euclidean distance transform (ArcGIS EucDistance with a
    maxdist): per pixel, the exact squared distance to the nearest seed
    within radius {EUC_R}; per-tile rollup (reached count, sum and max of
    min-d²).  All distances are int64 — exact and order-free.

    Scale shape: each tile evaluates its R-halo seed window locally and
    scores pixels × candidate seeds vectorized — zero shuffle; output is
    one row per tile.  The radius bound is what makes the transform
    tileable (unbounded EDT needs the two-pass global sweep)."""
    tiles = rd.range(GRID_TILES * GRID_TILES, override_num_blocks=8)

    def per_tile(b: pa.Table) -> pd.DataFrame:
        rows = []
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), GRID_TILES)
            r0, c0 = ty * TILE_PX, tx * TILE_PX
            hr0 = max(0, r0 - EUC_R); hc0 = max(0, c0 - EUC_R)
            hr1 = min(GRID_W, r0 + TILE_PX + EUC_R)
            hc1 = min(GRID_W, c0 + TILE_PX + EUC_R)
            sr, sc = euc_seeds(hr0, hc0, hr1 - hr0, hc1 - hc0)
            pr = np.arange(r0, r0 + TILE_PX, dtype=np.int64)
            pc_ = np.arange(c0, c0 + TILE_PX, dtype=np.int64)
            if len(sr) == 0:
                # the oracle's GROUP BY only sees reached pixels, so a
                # tile whose halo has no seed yields NO row (not a zero row)
                continue
            dr = pr[:, None] - sr[None, :]
            dc = pc_[:, None] - sc[None, :]
            # (tile_px, tile_px, n_seeds) via broadcasting in two stages
            d2 = (dr * dr)[:, None, :] + (dc * dc)[None, :, :]
            mind2 = d2.min(axis=-1)
            reach = mind2 <= EUC_R * EUC_R
            if not reach.any():
                continue
            rows.append((int(tid), int(reach.sum()),
                         int(mind2[reach].sum()), int(mind2[reach].max())))
        return pd.DataFrame(rows, columns=["tile_idx", "n_reached",
                                           "sum_d2", "max_d2"]).astype("int64")

    out = tiles.map_batches(per_tile, batch_format="pyarrow", batch_size=8)
    return (out.to_pandas().sort_values("tile_idx").reset_index(drop=True))


# shared px/seeds CTE prefix for the seed-field oracles (q_euc_distance,
# q_idw_interp) — ONE definition of the counter-derived seed rule in SQL
_PX_SEEDS_SQL = f"""px AS (
  SELECT CAST(range AS BIGINT) // {GRID_W} AS r, CAST(range AS BIGINT) % {GRID_W} AS c
  FROM range(0, {GRID_W * GRID_W})
), seeds AS (
  SELECT r, c FROM px
  WHERE CAST((xor((CAST(({EUC_SEED_OFF} + r * {GRID_W} + c) % {_MOD} AS UBIGINT) * {_M1}) % {_MOD},
                  ((CAST(({EUC_SEED_OFF} + r * {GRID_W} + c) % {_MOD} AS UBIGINT) * {_M1}) % {_MOD}) >> 16)
              * {_M2}) % {_MOD} % 1000 AS BIGINT) < {EUC_SEED_DENS}
)"""

Q_EUC_DISTANCE_SQL = f"""
WITH {_PX_SEEDS_SQL}, nearest AS (
  SELECT p.r, p.c,
         MIN((p.r - s.r) * (p.r - s.r) + (p.c - s.c) * (p.c - s.c)) AS d2
  FROM px p JOIN seeds s
    ON s.r >= p.r - {EUC_R} AND s.r <= p.r + {EUC_R}
   AND s.c >= p.c - {EUC_R} AND s.c <= p.c + {EUC_R}
  WHERE (p.r - s.r) * (p.r - s.r) + (p.c - s.c) * (p.c - s.c) <= {EUC_R * EUC_R}
  GROUP BY p.r, p.c
)
SELECT CAST((r // {TILE_PX}) * {GRID_TILES} + c // {TILE_PX} AS BIGINT) AS tile_idx,
       CAST(COUNT(*) AS BIGINT) AS n_reached,
       CAST(SUM(d2) AS BIGINT) AS sum_d2,
       CAST(MAX(d2) AS BIGINT) AS max_d2
FROM nearest GROUP BY tile_idx
"""


# ------------------------------------------------------ euclidean allocation

EUC_KEY_STRIDE = 1 << 19  # > max seed linear id (GRID_W² = 2^18)


def q_euc_allocation(sf_dir: str) -> pd.DataFrame:
    """Euclidean allocation (ArcGIS EucAllocation): every pixel within
    {EUC_R} of a seed is assigned to its NEAREST seed — ties broken to the
    smallest seed linear id via the packed key d²·2^19 + seed_id, whose
    MIN is simultaneously (min d², then min id) and stays < 2^31.  Output:
    per-seed allocated pixel count (the 'service area' rollup).

    Same zero-shuffle tile kernel as q_euc_distance plus ONE small
    groupby — seeds near tile borders collect pixels from several tiles,
    so per-tile partial counts meet in a seed-keyed exchange that is
    O(seeds), not O(pixels)."""
    from ray.data.aggregate import Sum as ASum

    tiles = rd.range(GRID_TILES * GRID_TILES, override_num_blocks=8)

    def per_tile(b: pa.Table) -> pa.Table:
        sid_out, cnt_out = [], []
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), GRID_TILES)
            r0, c0 = ty * TILE_PX, tx * TILE_PX
            hr0 = max(0, r0 - EUC_R); hc0 = max(0, c0 - EUC_R)
            hr1 = min(GRID_W, r0 + TILE_PX + EUC_R)
            hc1 = min(GRID_W, c0 + TILE_PX + EUC_R)
            sr, sc = euc_seeds(hr0, hc0, hr1 - hr0, hc1 - hc0)
            if len(sr) == 0:
                continue
            sid = sr * GRID_W + sc
            pr = np.arange(r0, r0 + TILE_PX, dtype=np.int64)
            pc_ = np.arange(c0, c0 + TILE_PX, dtype=np.int64)
            dr = pr[:, None] - sr[None, :]
            dc = pc_[:, None] - sc[None, :]
            d2 = (dr * dr)[:, None, :] + (dc * dc)[None, :, :]
            key = d2 * EUC_KEY_STRIDE + sid[None, None, :]
            best = key.min(axis=-1)
            reach = (best // EUC_KEY_STRIDE) <= EUC_R * EUC_R
            alloc = (best % EUC_KEY_STRIDE)[reach]
            ids, cnts = np.unique(alloc, return_counts=True)
            sid_out.append(ids); cnt_out.append(cnts.astype(np.int64))
        if not sid_out:
            e = pa.array([], pa.int64())
            return pa.table({"seed_id": e, "n": e})
        return pa.table({"seed_id": pa.array(np.concatenate(sid_out)),
                         "n": pa.array(np.concatenate(cnt_out))})

    out = (tiles.map_batches(per_tile, batch_format="pyarrow", batch_size=8)
           .groupby("seed_id").aggregate(ASum("n", alias_name="n_px"))
           .to_pandas())
    return out.sort_values("seed_id").reset_index(drop=True).astype("int64")


Q_EUC_ALLOCATION_SQL = f"""
WITH px AS (
  SELECT CAST(range AS BIGINT) // {GRID_W} AS r, CAST(range AS BIGINT) % {GRID_W} AS c
  FROM range(0, {GRID_W * GRID_W})
), seeds AS (
  SELECT r, c, r * {GRID_W} + c AS sid FROM px
  WHERE CAST((xor((CAST(({EUC_SEED_OFF} + r * {GRID_W} + c) % {_MOD} AS UBIGINT) * {_M1}) % {_MOD},
                  ((CAST(({EUC_SEED_OFF} + r * {GRID_W} + c) % {_MOD} AS UBIGINT) * {_M1}) % {_MOD}) >> 16)
              * {_M2}) % {_MOD} % 1000 AS BIGINT) < {EUC_SEED_DENS}
), nearest AS (
  SELECT p.r, p.c,
         MIN(((p.r - s.r) * (p.r - s.r) + (p.c - s.c) * (p.c - s.c))
             * {EUC_KEY_STRIDE} + s.sid) AS best
  FROM px p JOIN seeds s
    ON s.r >= p.r - {EUC_R} AND s.r <= p.r + {EUC_R}
   AND s.c >= p.c - {EUC_R} AND s.c <= p.c + {EUC_R}
  WHERE (p.r - s.r) * (p.r - s.r) + (p.c - s.c) * (p.c - s.c) <= {EUC_R * EUC_R}
  GROUP BY p.r, p.c
)
SELECT CAST(best % {EUC_KEY_STRIDE} AS BIGINT) AS seed_id,
       CAST(COUNT(*) AS BIGINT) AS n_px
FROM nearest GROUP BY seed_id
"""


# ---------------------------------------------------- bounded BFS wavefront

BFS_MAX_D = 12  # step bound → halo width; tiles never communicate


def q_grid_bfs(sf_dir: str) -> pd.DataFrame:
    """Bounded breadth-first wavefront over the percolation field: the
    4-connected step distance (≤ {BFS_MAX_D}) from the sparse seed set to
    every masked pixel — the isochrone/service-area propagation pattern
    (cost distance with unit costs).  Per tile the {BFS_MAX_D}-halo window
    is evaluated locally (counter-derived mask and seeds, the q_euc_distance
    trick) and the wavefront advances as vectorized dilation passes — the
    step bound is what makes the sweep tileable.

    Output per tile: reached count and the sum of step distances.
    Oracle: recursive-CTE BFS with UNION-distinct frontier, MIN(d) per
    pixel — both integer-exact.
    """
    tiles = rd.range(GRID_TILES * GRID_TILES, override_num_blocks=8)

    def per_tile(b: pa.Table) -> pd.DataFrame:
        rows = []
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), GRID_TILES)
            r0, c0 = ty * TILE_PX, tx * TILE_PX
            hr0 = max(0, r0 - BFS_MAX_D); hc0 = max(0, c0 - BFS_MAX_D)
            hr1 = min(GRID_W, r0 + TILE_PX + BFS_MAX_D)
            hc1 = min(GRID_W, c0 + TILE_PX + BFS_MAX_D)
            mask = percolation_mask(hr0, hc0, hr1 - hr0, hc1 - hc0)
            sr, sc = euc_seeds(hr0, hc0, hr1 - hr0, hc1 - hc0)
            dist = np.full(mask.shape, np.int32(127))
            seed_on_mask = mask[sr - hr0, sc - hc0]
            dist[(sr - hr0)[seed_on_mask], (sc - hc0)[seed_on_mask]] = 0
            for step in range(1, BFS_MAX_D + 1):
                frontier = dist == step - 1
                grow = np.zeros_like(frontier)
                grow[1:, :] |= frontier[:-1, :]
                grow[:-1, :] |= frontier[1:, :]
                grow[:, 1:] |= frontier[:, :-1]
                grow[:, :-1] |= frontier[:, 1:]
                newly = grow & mask & (dist > step)
                dist[newly] = step
            core = dist[r0 - hr0:r0 - hr0 + TILE_PX,
                        c0 - hc0:c0 - hc0 + TILE_PX]
            reached = core <= BFS_MAX_D
            if not reached.any():
                # the oracle aggregates reached pixels only — a tile whose
                # halo reaches nothing yields NO row (not a zero row)
                continue
            rows.append((int(tid), int(reached.sum()),
                         int(core[reached].astype(np.int64).sum())))
        return pd.DataFrame(rows, columns=["tile_idx", "n_reached",
                                           "sum_steps"]).astype("int64")

    out = tiles.map_batches(per_tile, batch_format="pyarrow", batch_size=8)
    return out.to_pandas().sort_values("tile_idx").reset_index(drop=True)


Q_GRID_BFS_SQL = f"""
WITH RECURSIVE px AS (
  SELECT CAST(range AS BIGINT) AS id,
         CAST(range AS BIGINT) // {GRID_W} AS r, CAST(range AS BIGINT) % {GRID_W} AS c
  FROM range(0, {GRID_W * GRID_W})
  WHERE CAST((xor((CAST(range AS UBIGINT) * {_M1}) % {_MOD},
                  ((CAST(range AS UBIGINT) * {_M1}) % {_MOD}) >> 16)
              * {_M2}) % {_MOD} % 1000 AS BIGINT) < {MASK_DENSITY}
), seeds AS (
  SELECT id, r, c FROM px
  WHERE CAST((xor((CAST(({EUC_SEED_OFF} + id) % {_MOD} AS UBIGINT) * {_M1}) % {_MOD},
                  ((CAST(({EUC_SEED_OFF} + id) % {_MOD} AS UBIGINT) * {_M1}) % {_MOD}) >> 16)
              * {_M2}) % {_MOD} % 1000 AS BIGINT) < {EUC_SEED_DENS}
), bfs AS (
  SELECT id, r, c, 0 AS d FROM seeds
  UNION
  SELECT p.id, p.r, p.c, b.d + 1
  FROM bfs b
  JOIN px p ON (p.r = b.r + 1 AND p.c = b.c) OR (p.r = b.r - 1 AND p.c = b.c)
            OR (p.r = b.r AND p.c = b.c + 1) OR (p.r = b.r AND p.c = b.c - 1)
  WHERE b.d < {BFS_MAX_D}
), best AS (SELECT id, r, c, MIN(d) AS d FROM bfs GROUP BY id, r, c)
SELECT CAST((r // {TILE_PX}) * {GRID_TILES} + c // {TILE_PX} AS BIGINT) AS tile_idx,
       CAST(COUNT(*) AS BIGINT) AS n_reached,
       CAST(SUM(d) AS BIGINT) AS sum_steps
FROM best GROUP BY tile_idx
"""


# ------------------------------------------- IDW surface interpolation

IDW_QW = 1 << 20   # integer weight scale: w = QW // (1 + d²)
IDW_VMOD = 1000    # seed value v = (seed linear id · 7919) mod VMOD


def q_idw_interp(sf_dir: str) -> pd.DataFrame:
    """Inverse-distance-weighted interpolation (the ArcGIS IDW/geostat
    shape) with INTEGER quantized weights: each pixel within {EUC_R} of a
    seed gets idw = ⌊Σ w_i·v_i / Σ w_i⌋ with w = ⌊QW/(1+d²)⌋ — the +1
    regularizes the sample-point singularity and every term is int64, so
    the weighted mean is order-free and the oracle bit-exact (true-float
    IDW would hang on summation order).

    Engine shape: q_euc_distance's zero-shuffle tile-halo kernel — each
    tile evaluates its own counter-derived seed window, pixels × seeds
    vectorized, one row per tile out."""
    tiles = rd.range(GRID_TILES * GRID_TILES, override_num_blocks=8)

    def per_tile(b: pa.Table) -> pd.DataFrame:
        rows = []
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), GRID_TILES)
            r0, c0 = ty * TILE_PX, tx * TILE_PX
            hr0 = max(0, r0 - EUC_R); hc0 = max(0, c0 - EUC_R)
            hr1 = min(GRID_W, r0 + TILE_PX + EUC_R)
            hc1 = min(GRID_W, c0 + TILE_PX + EUC_R)
            sr, sc = euc_seeds(hr0, hc0, hr1 - hr0, hc1 - hc0)
            if len(sr) == 0:
                continue
            v = ((sr * GRID_W + sc) * 7919) % IDW_VMOD
            pr = np.arange(r0, r0 + TILE_PX, dtype=np.int64)
            pc_ = np.arange(c0, c0 + TILE_PX, dtype=np.int64)
            dr = pr[:, None] - sr[None, :]
            dc = pc_[:, None] - sc[None, :]
            d2 = (dr * dr)[:, None, :] + (dc * dc)[None, :, :]
            within = d2 <= EUC_R * EUC_R
            w = (IDW_QW // (1 + d2)) * within
            den = w.sum(-1)
            num = (w * v[None, None, :]).sum(-1)
            reach = den > 0
            if not reach.any():
                continue
            idw = num[reach] // den[reach]
            rows.append((int(tid), int(reach.sum()),
                         int(idw.sum()), int(idw.max())))
        return pd.DataFrame(rows, columns=["tile_idx", "n_interp",
                                           "sum_idw", "max_idw"]
                            ).astype("int64")

    out = tiles.map_batches(per_tile, batch_format="pyarrow", batch_size=8)
    return out.to_pandas().sort_values("tile_idx").reset_index(drop=True)


Q_IDW_INTERP_SQL = f"""
WITH {_PX_SEEDS_SQL}, sv AS (
  SELECT r, c, ((r * {GRID_W} + c) * 7919) % {IDW_VMOD} AS v FROM seeds
), wm AS (
  SELECT p.r, p.c,
         SUM(({IDW_QW} // (1 + (p.r - s.r) * (p.r - s.r)
                             + (p.c - s.c) * (p.c - s.c))) * s.v) AS num,
         SUM({IDW_QW} // (1 + (p.r - s.r) * (p.r - s.r)
                            + (p.c - s.c) * (p.c - s.c))) AS den
  FROM px p JOIN sv s
    ON s.r >= p.r - {EUC_R} AND s.r <= p.r + {EUC_R}
   AND s.c >= p.c - {EUC_R} AND s.c <= p.c + {EUC_R}
  WHERE (p.r - s.r) * (p.r - s.r) + (p.c - s.c) * (p.c - s.c)
        <= {EUC_R * EUC_R}
  GROUP BY p.r, p.c
)
SELECT CAST((r // {TILE_PX}) * {GRID_TILES} + c // {TILE_PX} AS BIGINT) AS tile_idx,
       CAST(COUNT(*) AS BIGINT) AS n_interp,
       CAST(SUM(num // den) AS BIGINT) AS sum_idw,
       CAST(MAX(num // den) AS BIGINT) AS max_idw
FROM wm GROUP BY tile_idx
"""


# ---------------------------- global spatial autocorrelation (Moran's I)

# SQL text of mask_values(id) for a pluggable id expression — the value
# field x ∈ [0, 1000) every pixel-statistic oracle recomputes verbatim
def _xval_sql(idexpr: str) -> str:
    return (f"CAST((xor((CAST(({idexpr}) % {_MOD} AS UBIGINT) * {_M1}) % {_MOD},"
            f" ((CAST(({idexpr}) % {_MOD} AS UBIGINT) * {_M1}) % {_MOD}) >> 16)"
            f" * {_M2}) % {_MOD} % 1000 AS BIGINT)")


def q_morans_i(sf_dir: str) -> pd.DataFrame:
    """Global Moran's I (the ArcGIS Spatial Autocorrelation tool) over the
    counter-derived value surface with rook (4-neighbour) weights —
    returned as its EXACT integer moments (n_pix, undirected pair count,
    Σx, Σx², Σ xᵢxⱼ and Σ(xᵢ+xⱼ) over adjacent pairs), from which
    I = (N/W)·Σw(xᵢ−x̄)(xⱼ−x̄)/Σ(xᵢ−x̄)² is a pure driver-side formula.
    Keeping moments integer makes the statistic order-free and the oracle
    bit-exact; combining them first would overflow int64 at N·999 scale.

    Engine shape: each tile owns the pairs whose FIRST pixel it contains
    (right/down undirected), recomputing cross-tile neighbours from the
    counter field — zero shuffle, one partial row per tile, driver-side
    final sum of 64 tiny rows."""
    tiles = rd.range(GRID_TILES * GRID_TILES, override_num_blocks=8)

    def per_tile(b: pa.Table) -> pd.DataFrame:
        rows = []
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), GRID_TILES)
            r0, c0 = ty * TILE_PX, tx * TILE_PX
            # one extra row/col of neighbours (clipped at the grid edge)
            h = TILE_PX + (1 if r0 + TILE_PX < GRID_W else 0)
            w = TILE_PX + (1 if c0 + TILE_PX < GRID_W else 0)
            rr = (np.arange(r0, r0 + h, dtype=np.uint64)[:, None]
                  * np.uint64(GRID_W))
            cc = np.arange(c0, c0 + w, dtype=np.uint64)[None, :]
            x = mask_values(rr + cc).astype(np.int64)
            core = x[:TILE_PX, :TILE_PX]
            # right pairs: first pixel in the core, second at c+1 (in-window
            # thanks to the halo column, clipped at the grid's east edge)
            xr_first = x[:TILE_PX, : w - 1]
            xr_second = x[:TILE_PX, 1:w]
            # down pairs, same ownership rule on rows
            xd_first = x[: min(TILE_PX, h - 1), :TILE_PX]
            xd_second = x[1: min(TILE_PX, h - 1) + 1, :TILE_PX]
            rows.append((
                int(tid),
                TILE_PX * TILE_PX,
                int(xr_first.size + xd_first.size),
                int(core.sum()), int((core * core).sum()),
                int((xr_first * xr_second).sum()
                    + (xd_first * xd_second).sum()),
                int((xr_first + xr_second).sum()
                    + (xd_first + xd_second).sum())))
        return pd.DataFrame(rows, columns=["tile_idx", "n_pix", "w_und",
                                           "sum_x", "sum_x2", "cross",
                                           "pairsum"]).astype("int64")

    p = (tiles.map_batches(per_tile, batch_format="pyarrow", batch_size=8)
         .to_pandas())
    out = pd.DataFrame([{
        "n_pix": int(p["n_pix"].sum()), "w_und": int(p["w_und"].sum()),
        "sum_x": int(p["sum_x"].sum()), "sum_x2": int(p["sum_x2"].sum()),
        "cross": int(p["cross"].sum()), "pairsum": int(p["pairsum"].sum()),
    }]).astype("int64")
    return out


_MORAN_X = _xval_sql(f"r * {GRID_W} + c")
_MORAN_XN = _xval_sql(f"r2 * {GRID_W} + c2")

Q_MORANS_I_SQL = f"""
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
       (SELECT CAST(SUM({_MORAN_X} * {_MORAN_X}) AS BIGINT) FROM px) AS sum_x2,
       CAST(SUM({_MORAN_X} * {_MORAN_XN}) AS BIGINT) AS cross,
       CAST(SUM({_MORAN_X} + {_MORAN_XN}) AS BIGINT) AS pairsum
FROM pairs
"""


def morans_i_value(m: pd.Series) -> float:
    """Moran's I from the exact integer moments (driver-side formula)."""
    n, w2 = float(m["n_pix"]), 2.0 * float(m["w_und"])
    xbar = float(m["sum_x"]) / n
    num = (2.0 * float(m["cross"]) - xbar * 2.0 * float(m["pairsum"])
           + xbar * xbar * w2)
    den = float(m["sum_x2"]) - n * xbar * xbar
    return (n / w2) * (num / den)


# --------------------------- contour extraction (marching squares cases)

CONTOUR_LEVELS = (300, 700)   # iso levels over the x ∈ [0,1000) field


def q_contour_cases(sf_dir: str) -> pd.DataFrame:
    """Contour extraction (ArcGIS Contour) reduced to its marching-squares
    core: each 2×2 pixel cell classifies into one of 16 cases from the
    corner above-threshold bits (case = 8·tl + 4·tr + 2·bl + br), per iso
    level — the case histogram IS the topology of the contour set (cases
    0/15 empty, 5/10 saddles, the rest carry one segment).  Integer and
    order-free at every step.

    Engine shape: tile-halo kernel — each tile owns cells whose top-left
    corner it contains, recomputes the +1 halo row/col from the counter
    field, and emits ONE 2×16 partial histogram; the exchange is
    O(levels·cases·tiles)."""
    tiles = rd.range(GRID_TILES * GRID_TILES, override_num_blocks=8)

    def per_tile(b: pa.Table) -> pa.Table:
        lvl_out, case_out, n_out = [], [], []
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), GRID_TILES)
            r0, c0 = ty * TILE_PX, tx * TILE_PX
            h = TILE_PX + (1 if r0 + TILE_PX < GRID_W else 0)
            w = TILE_PX + (1 if c0 + TILE_PX < GRID_W else 0)
            rr = (np.arange(r0, r0 + h, dtype=np.uint64)[:, None]
                  * np.uint64(GRID_W))
            cc = np.arange(c0, c0 + w, dtype=np.uint64)[None, :]
            x = mask_values(rr + cc).astype(np.int64)
            for lv in CONTOUR_LEVELS:
                bit = (x >= lv).astype(np.int64)
                case = (8 * bit[: h - 1, : w - 1] + 4 * bit[: h - 1, 1:w]
                        + 2 * bit[1:h, : w - 1] + bit[1:h, 1:w])
                hist = np.bincount(case.ravel(), minlength=16)
                nz = np.flatnonzero(hist)
                lvl_out.append(np.full(nz.size, lv, np.int64))
                case_out.append(nz.astype(np.int64))
                n_out.append(hist[nz].astype(np.int64))
        return pa.table({"level": pa.array(np.concatenate(lvl_out)),
                         "case_id": pa.array(np.concatenate(case_out)),
                         "n_cells": pa.array(np.concatenate(n_out))})

    from ray.data.aggregate import Sum as ASum

    out = (tiles.map_batches(per_tile, batch_format="pyarrow", batch_size=8)
           .groupby(["level", "case_id"])
           .aggregate(ASum("n_cells", alias_name="n_cells"))
           .to_pandas())
    return (out.astype({"level": "int64", "case_id": "int64",
                        "n_cells": "int64"})
            .sort_values(["level", "case_id"]).reset_index(drop=True))


_CONTOUR_TL = _xval_sql(f"r * {GRID_W} + c")
_CONTOUR_TR = _xval_sql(f"r * {GRID_W} + c + 1")
_CONTOUR_BL = _xval_sql(f"(r + 1) * {GRID_W} + c")
_CONTOUR_BR = _xval_sql(f"(r + 1) * {GRID_W} + c + 1")

Q_CONTOUR_CASES_SQL = f"""
WITH cells AS (
  SELECT CAST(range AS BIGINT) // {GRID_W - 1} AS r,
         CAST(range AS BIGINT) % {GRID_W - 1} AS c
  FROM range(0, {(GRID_W - 1) * (GRID_W - 1)})
), lv AS (SELECT UNNEST(ARRAY{list(CONTOUR_LEVELS)}) AS level)
SELECT CAST(level AS BIGINT) AS level,
       CAST(8 * CASE WHEN {_CONTOUR_TL} >= level THEN 1 ELSE 0 END
          + 4 * CASE WHEN {_CONTOUR_TR} >= level THEN 1 ELSE 0 END
          + 2 * CASE WHEN {_CONTOUR_BL} >= level THEN 1 ELSE 0 END
          + CASE WHEN {_CONTOUR_BR} >= level THEN 1 ELSE 0 END AS BIGINT)
         AS case_id,
       CAST(COUNT(*) AS BIGINT) AS n_cells
FROM cells CROSS JOIN lv
GROUP BY 1, 2
ORDER BY level, case_id
"""


# ------------------------------------------ weighted cost distance

COST_MAX = 12   # accumulation budget (maxdist) — bounds halo & recursion


def cost_field(r0: int, c0: int, h: int, w: int) -> np.ndarray:
    """Per-pixel traversal cost 1..4 from the counter field (entering a
    pixel costs cost(pixel) — the unit-simplified ArcGIS CostDistance
    accumulation)."""
    rr = (np.arange(r0, r0 + h, dtype=np.uint64)[:, None]
          * np.uint64(GRID_W))
    cc = np.arange(c0, c0 + w, dtype=np.uint64)[None, :]
    return (mask_values(rr + cc) % np.uint64(4)).astype(np.int64) + 1


def q_cost_distance(sf_dir: str) -> pd.DataFrame:
    """Weighted cost distance (ArcGIS CostDistance with a maxdist): the
    min accumulated cost from the seed set where entering pixel p costs
    cost(p) ∈ {1..4}, capped at {COST_MAX}.  Min step cost 1 bounds any
    within-budget path to {COST_MAX} hops, so the transform is tileable:
    each tile evaluates its {COST_MAX}-halo window with vectorized
    Bellman-Ford relaxation sweeps — zero shuffle, integer-exact.

    Oracle: recursive-CTE path relaxation (bounded by the same budget)
    with MIN(acc) per pixel.  Output: per-tile reached count / sum / max
    of min-cost; unreached tiles emit no row."""
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
            acc[sr - hr0, sc - hc0] = 0  # cost counted on ENTERED pixels
            for _ in range(COST_MAX):
                best = acc.copy()
                best[1:, :] = np.minimum(best[1:, :], acc[:-1, :])
                best[:-1, :] = np.minimum(best[:-1, :], acc[1:, :])
                best[:, 1:] = np.minimum(best[:, 1:], acc[:, :-1])
                best[:, :-1] = np.minimum(best[:, :-1], acc[:, 1:])
                stepped = best + cost
                # a seed keeps acc 0; others take the cheapest entry
                nxt = np.minimum(acc, stepped)
                nxt[sr - hr0, sc - hc0] = 0
                if np.array_equal(nxt, acc):
                    break
                acc = nxt
            core = acc[r0 - hr0:r0 - hr0 + TILE_PX,
                       c0 - hc0:c0 - hc0 + TILE_PX]
            reach = core <= COST_MAX
            if not reach.any():
                continue
            rows.append((int(tid), int(reach.sum()),
                         int(core[reach].sum()), int(core[reach].max())))
        return pd.DataFrame(rows, columns=["tile_idx", "n_reached",
                                           "sum_cost", "max_cost"]
                            ).astype("int64")

    out = tiles.map_batches(per_tile, batch_format="pyarrow", batch_size=8)
    return out.to_pandas().sort_values("tile_idx").reset_index(drop=True)


_COST_NBR = (f"1 + {_xval_sql(f'p.r * {GRID_W} + p.c')} % 4")

Q_COST_DISTANCE_SQL = f"""
WITH RECURSIVE {_PX_SEEDS_SQL}, walk AS (
  SELECT r, c, CAST(0 AS BIGINT) AS acc FROM seeds
  UNION
  SELECT p.r, p.c, w.acc + {_COST_NBR} AS acc
  FROM walk w
  JOIN px p ON (p.r = w.r + 1 AND p.c = w.c) OR (p.r = w.r - 1 AND p.c = w.c)
            OR (p.r = w.r AND p.c = w.c + 1) OR (p.r = w.r AND p.c = w.c - 1)
  WHERE w.acc + {_COST_NBR} <= {COST_MAX}
), best AS (SELECT r, c, MIN(acc) AS acc FROM walk GROUP BY r, c)
SELECT CAST((r // {TILE_PX}) * {GRID_TILES} + c // {TILE_PX} AS BIGINT) AS tile_idx,
       CAST(COUNT(*) AS BIGINT) AS n_reached,
       CAST(SUM(acc) AS BIGINT) AS sum_cost,
       CAST(MAX(acc) AS BIGINT) AS max_cost
FROM best GROUP BY tile_idx
"""


# ----------------------- zonal exact percentiles (bounded-value histogram)

ZP_PCTS = (25, 50, 75)


def q_zonal_percentiles(sf_dir: str) -> pd.DataFrame:
    """ZonalStatistics PERCENTILE over the counter value field, tile
    zones: exact p25/p50/p75 per tile read off a per-zone VALUE HISTOGRAM
    (the domain is bounded at 1000 values, so the histogram is the whole
    distribution — no sort, no sample).  Percentile rule, both sides:
    the smallest v with 100·cum(v) ≥ p·n.

    Scale shape: per-batch (zone, value) count partials → one zone-keyed
    exchange of histogram rows (O(zones·values)), percentiles read per
    zone group."""
    tiles = rd.range(GRID_TILES * GRID_TILES, override_num_blocks=8)

    def per_tile(b: pa.Table) -> pa.Table:
        zs, vs, ns = [], [], []
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), GRID_TILES)
            rr = (np.arange(ty * TILE_PX, (ty + 1) * TILE_PX,
                            dtype=np.uint64)[:, None] * np.uint64(GRID_W))
            cc = np.arange(tx * TILE_PX, (tx + 1) * TILE_PX,
                           dtype=np.uint64)[None, :]
            x = mask_values(rr + cc).astype(np.int64)
            hist = np.bincount(x.ravel(), minlength=1000)
            nz = np.flatnonzero(hist)
            zs.append(np.full(nz.size, tid, np.int64))
            vs.append(nz.astype(np.int64))
            ns.append(hist[nz].astype(np.int64))
        return pa.table({"tile_idx": pa.array(np.concatenate(zs)),
                         "v": pa.array(np.concatenate(vs)),
                         "n": pa.array(np.concatenate(ns))})

    def pcts(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("v")
        cum = g["n"].cumsum().to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        n = int(cum[-1])
        row = {"tile_idx": int(g["tile_idx"].iloc[0])}
        for p in ZP_PCTS:
            row[f"p{p}"] = int(v[np.searchsorted(100 * cum, p * n)])
        return pd.DataFrame([row])

    out = (tiles.map_batches(per_tile, batch_format="pyarrow", batch_size=8)
           .groupby("tile_idx")
           .map_groups(pcts, batch_format="pandas")
           .to_pandas())
    return (out.astype("int64").sort_values("tile_idx")
            .reset_index(drop=True))


Q_ZONAL_PERCENTILES_SQL = f"""
WITH px AS (
  SELECT CAST(range AS BIGINT) // {GRID_W} AS r,
         CAST(range AS BIGINT) % {GRID_W} AS c,
         {_xval_sql(f"(CAST(range AS BIGINT) // {GRID_W}) * {GRID_W} + CAST(range AS BIGINT) % {GRID_W}")} AS x
  FROM range(0, {GRID_W * GRID_W})
), hist AS (
  SELECT (r // {TILE_PX}) * {GRID_TILES} + c // {TILE_PX} AS tile_idx,
         x AS v, COUNT(*) AS n
  FROM px GROUP BY 1, 2
), cum AS (
  SELECT tile_idx, v, SUM(n) OVER (PARTITION BY tile_idx ORDER BY v) AS cumn,
         SUM(n) OVER (PARTITION BY tile_idx) AS total
  FROM hist
)
SELECT CAST(tile_idx AS BIGINT) AS tile_idx,
       {", ".join(f'''CAST(MIN(CASE WHEN 100 * cumn >= {p} * total
              THEN v END) AS BIGINT) AS p{p}''' for p in ZP_PCTS)}
FROM cum GROUP BY tile_idx ORDER BY tile_idx
"""


# ------------------------- histogram-equalize stretch (global CDF remap)

HEQ_L = 256   # output levels


def q_hist_equalize(sf_dir: str) -> pd.DataFrame:
    """Histogram-equalization stretch (the ArcGIS/remote-sensing
    'Equalize' contrast stretch): v → ⌊(cdf(v) − cdf_min)·(L−1) /
    (N − cdf_min)⌋ over the global value histogram — all integers, so
    the remap is exact.  Output: per-tile sum/min/max of the equalized
    surface.

    Scale shape: pass 1 builds the O(values) global histogram from
    per-batch bincount partials; the CDF LUT broadcasts once; pass 2
    remaps tiles and emits one stats row each — two streaming passes,
    zero data shuffles."""
    tiles = rd.range(GRID_TILES * GRID_TILES, override_num_blocks=8)

    def tile_hist(b: pa.Table) -> pa.Table:
        h = np.zeros(1000, np.int64)
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), GRID_TILES)
            rr = (np.arange(ty * TILE_PX, (ty + 1) * TILE_PX,
                            dtype=np.uint64)[:, None] * np.uint64(GRID_W))
            cc = np.arange(tx * TILE_PX, (tx + 1) * TILE_PX,
                           dtype=np.uint64)[None, :]
            h += np.bincount(mask_values(rr + cc).astype(np.int64).ravel(),
                             minlength=1000)
        nz = np.flatnonzero(h)
        return pa.table({"v": pa.array(nz.astype(np.int64)),
                         "n": pa.array(h[nz])})

    hp = (tiles.map_batches(tile_hist, batch_format="pyarrow", batch_size=8)
          .to_pandas().groupby("v", as_index=False)["n"].sum())
    hist = np.zeros(1000, np.int64)
    hist[hp["v"].to_numpy(np.int64)] = hp["n"].to_numpy(np.int64)
    cdf = np.cumsum(hist)
    cdf_min = int(cdf[np.flatnonzero(hist)[0]])
    N = int(cdf[-1])
    lut = ((cdf - cdf_min) * (HEQ_L - 1) // max(1, N - cdf_min)).astype(np.int64)
    lut_ref = ray.put(lut)

    def per_tile(b: pa.Table) -> pd.DataFrame:
        lt = ray.get(lut_ref)
        rows = []
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), GRID_TILES)
            rr = (np.arange(ty * TILE_PX, (ty + 1) * TILE_PX,
                            dtype=np.uint64)[:, None] * np.uint64(GRID_W))
            cc = np.arange(tx * TILE_PX, (tx + 1) * TILE_PX,
                           dtype=np.uint64)[None, :]
            eq = lt[mask_values(rr + cc).astype(np.int64)]
            rows.append((int(tid), int(eq.sum()), int(eq.min()),
                         int(eq.max())))
        return pd.DataFrame(rows, columns=["tile_idx", "sum_eq", "min_eq",
                                           "max_eq"]).astype("int64")

    out = tiles.map_batches(per_tile, batch_format="pyarrow", batch_size=8)
    return out.to_pandas().sort_values("tile_idx").reset_index(drop=True)


Q_HIST_EQUALIZE_SQL = f"""
WITH px AS (
  SELECT CAST(range AS BIGINT) // {GRID_W} AS r,
         CAST(range AS BIGINT) % {GRID_W} AS c,
         {_xval_sql(f"(CAST(range AS BIGINT) // {GRID_W}) * {GRID_W} + CAST(range AS BIGINT) % {GRID_W}")} AS x
  FROM range(0, {GRID_W * GRID_W})
), hist AS (SELECT x AS v, COUNT(*) AS n FROM px GROUP BY x),
cdf AS (
  SELECT v, SUM(n) OVER (ORDER BY v) AS cumn FROM hist
), bounds AS (
  SELECT MIN(CASE WHEN cumn > 0 THEN cumn END) AS cdf_min,
         MAX(cumn) AS total
  FROM cdf
), lut AS (
  SELECT v, (cumn - b.cdf_min) * {HEQ_L - 1} // (b.total - b.cdf_min) AS eq
  FROM cdf, bounds b
)
SELECT CAST((p.r // {TILE_PX}) * {GRID_TILES} + p.c // {TILE_PX} AS BIGINT)
         AS tile_idx,
       CAST(SUM(l.eq) AS BIGINT) AS sum_eq,
       CAST(MIN(l.eq) AS BIGINT) AS min_eq,
       CAST(MAX(l.eq) AS BIGINT) AS max_eq
FROM px p JOIN lut l ON l.v = p.x
GROUP BY tile_idx ORDER BY tile_idx
"""


# ----------------------- multi-scale box counting (fractal occupancy)

BOX_SCALES = (1, 2, 4, 8)   # all divide TILE_PX → boxes never cross tiles


def q_box_counting(sf_dir: str) -> pd.DataFrame:
    """Multi-scale box counting over the percolation mask (the
    box-counting-dimension estimator used for terrain/coastline
    roughness): at each scale s, how many s×s boxes contain ≥1 masked
    pixel.  Every scale divides the tile size, so no box crosses a tile
    and each tile's partial counts are independent — one streaming pass,
    O(scales·tiles) exchange."""
    tiles = rd.range(GRID_TILES * GRID_TILES, override_num_blocks=8)

    def per_tile(b: pa.Table) -> pa.Table:
        sc_out, n_out = [], []
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), GRID_TILES)
            mask = percolation_mask(ty * TILE_PX, tx * TILE_PX,
                                    TILE_PX, TILE_PX)
            for s in BOX_SCALES:
                m = mask.reshape(TILE_PX // s, s, TILE_PX // s, s)
                occ = m.any(axis=(1, 3))
                sc_out.append(s)
                n_out.append(int(occ.sum()))
        return pa.table({"scale": pa.array(np.asarray(sc_out, np.int64)),
                         "n_occupied": pa.array(np.asarray(n_out, np.int64))})

    from ray.data.aggregate import Sum as ASum

    out = (tiles.map_batches(per_tile, batch_format="pyarrow", batch_size=8)
           .groupby("scale")
           .aggregate(ASum("n_occupied", alias_name="n_occupied"))
           .to_pandas())
    return (out.astype({"scale": "int64", "n_occupied": "int64"})
            .sort_values("scale").reset_index(drop=True))


Q_BOX_COUNTING_SQL = f"""
WITH px AS (
  SELECT CAST(range AS BIGINT) // {GRID_W} AS r,
         CAST(range AS BIGINT) % {GRID_W} AS c
  FROM range(0, {GRID_W * GRID_W})
  WHERE {_xval_sql(f"(CAST(range AS BIGINT) // {GRID_W}) * {GRID_W} + CAST(range AS BIGINT) % {GRID_W}")} < {MASK_DENSITY}
), sc AS (SELECT UNNEST(ARRAY{list(BOX_SCALES)}) AS scale)
SELECT CAST(scale AS BIGINT) AS scale,
       CAST(COUNT(DISTINCT (r // scale) * {GRID_W} + (c // scale))
            AS BIGINT) AS n_occupied
FROM px CROSS JOIN sc
GROUP BY scale ORDER BY scale
"""


# --------------------- Getis-Ord Gi* hot-spot analysis (local sums)

GI_R = 3          # Chebyshev window radius → 7×7 local sums
GI_HOT = 550      # hot iff local mean > 550 (field mean ≈ 499.5)
GI_COLD = 450     # cold iff local mean < 450


def q_gi_star(sf_dir: str) -> pd.DataFrame:
    """Getis-Ord Gi* hot-spot analysis (the ArcGIS Hot Spot Analysis
    tool) over the counter value surface with a (2·{GI_R}+1)² uniform
    kernel, self included, clipped at the grid edge: per pixel the local
    sum ls = Σ x over the window and the clipped window size win; a
    pixel is HOT iff ls > {GI_HOT}·win and COLD iff ls < {GI_COLD}·win
    (integer cross-multiplied local-mean thresholds — the z-score's
    numerator sign, exact with no division).  Output per tile: hot/cold
    counts, Σ ls and max ls over the core — the Gi* surface's sufficient
    integer statistics.

    Engine shape: one summed-area table per (tile + {GI_R}-halo) window
    recomputed from the counter field — zero shuffle, 64 partial rows,
    O(tile) memory; the clipped window sizes come from the same SAT
    trick over a ones field (exactly the prefix-sum lowering a 100 TB
    raster would use per block)."""
    tiles = rd.range(GRID_TILES * GRID_TILES, override_num_blocks=8)
    R = GI_R

    def per_tile(b: pa.Table) -> pd.DataFrame:
        rows = []
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), GRID_TILES)
            r0, c0 = ty * TILE_PX, tx * TILE_PX
            hr0, hc0 = max(0, r0 - R), max(0, c0 - R)
            hr1 = min(GRID_W, r0 + TILE_PX + R)
            hc1 = min(GRID_W, c0 + TILE_PX + R)
            rr = (np.arange(hr0, hr1, dtype=np.uint64)[:, None]
                  * np.uint64(GRID_W))
            cc = np.arange(hc0, hc1, dtype=np.uint64)[None, :]
            x = mask_values(rr + cc).astype(np.int64)
            # summed-area table with a zero pad row/col
            S = np.zeros((x.shape[0] + 1, x.shape[1] + 1), np.int64)
            np.cumsum(np.cumsum(x, axis=0), axis=1, out=S[1:, 1:])
            r = np.arange(r0, r0 + TILE_PX)
            c = np.arange(c0, c0 + TILE_PX)
            lo_r = np.maximum(r - R, 0) - hr0
            hi_r = np.minimum(r + R + 1, GRID_W) - hr0
            lo_c = np.maximum(c - R, 0) - hc0
            hi_c = np.minimum(c + R + 1, GRID_W) - hc0
            ls = (S[hi_r[:, None], hi_c[None, :]]
                  - S[lo_r[:, None], hi_c[None, :]]
                  - S[hi_r[:, None], lo_c[None, :]]
                  + S[lo_r[:, None], lo_c[None, :]])
            win = (hi_r - lo_r)[:, None] * (hi_c - lo_c)[None, :]
            rows.append((int(tid),
                         int((ls > GI_HOT * win).sum()),
                         int((ls < GI_COLD * win).sum()),
                         int(ls.sum()), int(ls.max())))
        return pd.DataFrame(rows, columns=["tile_idx", "n_hot", "n_cold",
                                           "sum_ls", "max_ls"]
                            ).astype("int64")

    out = tiles.map_batches(per_tile, batch_format="pyarrow", batch_size=8)
    return out.to_pandas().sort_values("tile_idx").reset_index(drop=True)


_GI_XN = _xval_sql(f"(r + dr) * {GRID_W} + c + dc")

Q_GI_STAR_SQL = f"""
WITH px AS (
  SELECT CAST(range AS BIGINT) // {GRID_W} AS r,
         CAST(range AS BIGINT) % {GRID_W} AS c
  FROM range(0, {GRID_W * GRID_W})
), offs AS (
  SELECT a.range - {GI_R} AS dr, b.range - {GI_R} AS dc
  FROM range(0, {2 * GI_R + 1}) a CROSS JOIN range(0, {2 * GI_R + 1}) b
), loc AS (
  SELECT r, c, SUM({_GI_XN}) AS ls, COUNT(*) AS win
  FROM px CROSS JOIN offs
  WHERE r + dr >= 0 AND r + dr < {GRID_W}
    AND c + dc >= 0 AND c + dc < {GRID_W}
  GROUP BY r, c
)
SELECT CAST((r // {TILE_PX}) * {GRID_TILES} + c // {TILE_PX} AS BIGINT)
         AS tile_idx,
       CAST(SUM(CASE WHEN ls > {GI_HOT} * win THEN 1 ELSE 0 END) AS BIGINT)
         AS n_hot,
       CAST(SUM(CASE WHEN ls < {GI_COLD} * win THEN 1 ELSE 0 END) AS BIGINT)
         AS n_cold,
       CAST(SUM(ls) AS BIGINT) AS sum_ls,
       CAST(MAX(ls) AS BIGINT) AS max_ls
FROM loc GROUP BY tile_idx ORDER BY tile_idx
"""


# --------------- Local Moran's I (Anselin LISA cluster/outlier map)


def q_local_moran(sf_dir: str) -> pd.DataFrame:
    """Anselin Local Moran's I (the ArcGIS Cluster and Outlier Analysis
    tool) with rook weights: per pixel, the deviation sign zᵢ = xᵢ·N − ΣX
    (×N keeps the mean subtraction integer) and the neighbour-lag sign
    lagzᵢ = N·Σⱼxⱼ − kᵢ·ΣX classify the pixel HH / LL / HL / LH — the
    LISA cluster (HH hot, LL cold) and outlier (HL, LH) map.  Output per
    tile: the four class counts plus Σ xᵢ·(Σⱼxⱼ) — the exact integer
    cross moment of the local statistic.

    Engine shape: pass 1 is a 64-row reduce for ΣX (the global moment a
    real pipeline computes once and broadcasts); pass 2 recomputes each
    tile + 1-px halo from the counter field and takes neighbour sums as
    four shifted adds — zero shuffle, tile-partial rows only."""
    tiles = rd.range(GRID_TILES * GRID_TILES, override_num_blocks=8)

    def tile_sum(b: pa.Table) -> pd.DataFrame:
        s = []
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), GRID_TILES)
            rr = (np.arange(ty * TILE_PX, (ty + 1) * TILE_PX,
                            dtype=np.uint64)[:, None] * np.uint64(GRID_W))
            cc = np.arange(tx * TILE_PX, (tx + 1) * TILE_PX,
                           dtype=np.uint64)[None, :]
            s.append(int(mask_values(rr + cc).astype(np.int64).sum()))
        return pd.DataFrame({"s": np.asarray(s, np.int64)})

    sum_x = int(tiles.map_batches(tile_sum, batch_format="pyarrow",
                                  batch_size=8).to_pandas()["s"].sum())
    n_pix = GRID_W * GRID_W

    def per_tile(b: pa.Table) -> pd.DataFrame:
        rows = []
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), GRID_TILES)
            r0, c0 = ty * TILE_PX, tx * TILE_PX
            hr0, hc0 = max(0, r0 - 1), max(0, c0 - 1)
            hr1 = min(GRID_W, r0 + TILE_PX + 1)
            hc1 = min(GRID_W, c0 + TILE_PX + 1)
            rr = (np.arange(hr0, hr1, dtype=np.uint64)[:, None]
                  * np.uint64(GRID_W))
            cc = np.arange(hc0, hc1, dtype=np.uint64)[None, :]
            x = mask_values(rr + cc).astype(np.int64)
            # neighbour sum + neighbour count via four clipped shifts
            nsum = np.zeros_like(x)
            k = np.zeros_like(x)
            nsum[1:, :] += x[:-1, :]; k[1:, :] += 1
            nsum[:-1, :] += x[1:, :]; k[:-1, :] += 1
            nsum[:, 1:] += x[:, :-1]; k[:, 1:] += 1
            nsum[:, :-1] += x[:, 1:]; k[:, :-1] += 1
            cr = slice(r0 - hr0, r0 - hr0 + TILE_PX)
            cc_ = slice(c0 - hc0, c0 - hc0 + TILE_PX)
            xc, nc, kc = x[cr, cc_], nsum[cr, cc_], k[cr, cc_]
            # interior halo rows saw true neighbours; the grid boundary
            # (no halo beyond the edge) keeps its clipped k
            z = xc * n_pix - sum_x
            lagz = nc * n_pix - kc * sum_x
            hi, lag_hi = z > 0, lagz > 0
            rows.append((int(tid),
                         int((hi & lag_hi).sum()),
                         int((~hi & ~lag_hi).sum()),
                         int((hi & ~lag_hi).sum()),
                         int((~hi & lag_hi).sum()),
                         int((xc * nc).sum())))
        return pd.DataFrame(rows, columns=["tile_idx", "n_hh", "n_ll",
                                           "n_hl", "n_lh", "cross_sum"]
                            ).astype("int64")

    out = tiles.map_batches(per_tile, batch_format="pyarrow", batch_size=8)
    return out.to_pandas().sort_values("tile_idx").reset_index(drop=True)


_LISA_X = _xval_sql(f"r * {GRID_W} + c")
_LISA_XN = _xval_sql(f"(r + dr) * {GRID_W} + c + dc")

Q_LOCAL_MORAN_SQL = f"""
WITH px AS (
  SELECT CAST(range AS BIGINT) // {GRID_W} AS r,
         CAST(range AS BIGINT) % {GRID_W} AS c
  FROM range(0, {GRID_W * GRID_W})
), sx AS (SELECT SUM({_LISA_X}) AS sum_x FROM px),
offs(dr, dc) AS (VALUES (-1, 0), (1, 0), (0, -1), (0, 1)),
loc AS (
  SELECT r, c, SUM({_LISA_XN}) AS nsum, COUNT(*) AS k
  FROM px CROSS JOIN offs
  WHERE r + dr >= 0 AND r + dr < {GRID_W}
    AND c + dc >= 0 AND c + dc < {GRID_W}
  GROUP BY r, c
)
SELECT CAST((r // {TILE_PX}) * {GRID_TILES} + c // {TILE_PX} AS BIGINT)
         AS tile_idx,
       CAST(SUM(CASE WHEN {_LISA_X} * {GRID_W * GRID_W} - sum_x > 0
                      AND nsum * {GRID_W * GRID_W} - k * sum_x > 0
                THEN 1 ELSE 0 END) AS BIGINT) AS n_hh,
       CAST(SUM(CASE WHEN {_LISA_X} * {GRID_W * GRID_W} - sum_x <= 0
                      AND nsum * {GRID_W * GRID_W} - k * sum_x <= 0
                THEN 1 ELSE 0 END) AS BIGINT) AS n_ll,
       CAST(SUM(CASE WHEN {_LISA_X} * {GRID_W * GRID_W} - sum_x > 0
                      AND nsum * {GRID_W * GRID_W} - k * sum_x <= 0
                THEN 1 ELSE 0 END) AS BIGINT) AS n_hl,
       CAST(SUM(CASE WHEN {_LISA_X} * {GRID_W * GRID_W} - sum_x <= 0
                      AND nsum * {GRID_W * GRID_W} - k * sum_x > 0
                THEN 1 ELSE 0 END) AS BIGINT) AS n_lh,
       CAST(SUM({_LISA_X} * nsum) AS BIGINT) AS cross_sum
FROM loc CROSS JOIN sx GROUP BY tile_idx ORDER BY tile_idx
"""
