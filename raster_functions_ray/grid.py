"""Hierarchical cell index (quadtree over lon/lat, S2/H3-style role).

Every tile and geometry is assigned to cells of a fixed hierarchical grid;
spatial joins / zonal ops shuffle on ``cell_id``.  Design goals:

- **vectorized**: pure NumPy over coordinate arrays inside ``map_batches``;
- **SQL-reproducible**: the encoding uses only IEEE-double ops + floor +
  integer packing, so a DuckDB oracle computes bit-identical ids
  (the driver's correctness gate hashes values);
- **hierarchical**: ``parent(cell)`` halves ix/iy, like S2 level demotion.

World domain is lon ∈ [0, 360), lat ∈ [-90, 90] (FIXTURES.md §1).  Cells at
level L form a 2^L × 2^L grid (lat axis clipped at the pole).

Packing: cell_id = L * 2^52 + ix * 2^26 + iy  (L ≤ 25).
"""

from __future__ import annotations

import numpy as np

LEVEL_STRIDE = 2**52
IX_STRIDE = 2**26


def cell_encode(lon: np.ndarray, lat: np.ndarray, level: int) -> np.ndarray:
    """Vectorized lon/lat -> cell id at ``level``.

    DuckDB equivalent (must stay in sync — used by oracle_sql):
      CAST(:L AS BIGINT)*4503599627370496
      + CAST(floor(lon/360.0*n) AS BIGINT)*67108864
      + LEAST(CAST(floor((lat+90.0)/180.0*n) AS BIGINT), n-1)
    """
    n = float(2**level)
    ix = np.floor(np.asarray(lon, dtype=np.float64) / 360.0 * n).astype(np.int64)
    iy = np.floor((np.asarray(lat, dtype=np.float64) + 90.0) / 180.0 * n).astype(np.int64)
    iy = np.minimum(iy, int(n) - 1)
    return level * LEVEL_STRIDE + ix * IX_STRIDE + iy


def cell_decode(cell_id: np.ndarray):
    cell_id = np.asarray(cell_id, dtype=np.int64)
    level = cell_id // LEVEL_STRIDE
    rem = cell_id % LEVEL_STRIDE
    return level, rem // IX_STRIDE, rem % IX_STRIDE


def parent(cell_id: np.ndarray) -> np.ndarray:
    level, ix, iy = cell_decode(cell_id)
    return (level - 1) * LEVEL_STRIDE + (ix // 2) * IX_STRIDE + (iy // 2)


def seed_range(xmin, ymin, xmax, ymax, level: int):
    """Grid-index ranges [ix0, ix1] x [iy0, iy1] of the cells whose
    rectangles intersect each (closed) bbox at ``level``, elementwise over
    arrays of bbox edges — BOTH ends clamped into the 2^L grid (a bbox
    touching lat 90 / lon 360 must neither go out of grid nor produce an
    empty range).  The ONE home of this arithmetic: adaptive_covering
    seeds from it, and the SQL oracles mirror it with GREATEST/LEAST."""
    n = float(2**level)

    def cl(v):
        return np.clip(np.floor(v), 0, int(n) - 1).astype(np.int64)

    xmin, ymin, xmax, ymax = (np.asarray(v, np.float64)
                              for v in (xmin, ymin, xmax, ymax))
    ix0 = cl(xmin / 360.0 * n)
    ix1 = np.where(xmax > xmin, cl(xmax / 360.0 * n), ix0)
    iy0 = cl((ymin + 90.0) / 180.0 * n)
    iy1 = np.where(ymax > ymin, cl((ymax + 90.0) / 180.0 * n), iy0)
    return ix0, np.maximum(ix0, ix1), iy0, np.maximum(iy0, iy1)


def neighbors(cell_id: int, ring: int = 1) -> np.ndarray:
    """Cells within ``ring`` king-moves (kNN ring search); lon wraps, lat clips."""
    level, ix, iy = cell_decode(np.asarray([cell_id]))
    level, ix, iy = int(level[0]), int(ix[0]), int(iy[0])
    n = 2**level
    out = []
    for dx in range(-ring, ring + 1):
        for dy in range(-ring, ring + 1):
            jy = iy + dy
            if 0 <= jy < n:
                out.append(level * LEVEL_STRIDE + ((ix + dx) % n) * IX_STRIDE + jy)
    return np.asarray(sorted(set(out)), dtype=np.int64)


def adaptive_covering(bboxes: np.ndarray, level_min: int = 3,
                      level_max: int = 6, inside=None):
    """S2-RegionCoverer-style adaptive multi-level covering of zones: cells
    for which ``inside(z, x0, y0, x1, y1)`` holds (and that meet the zone's
    closed bbox) are emitted full at the coarsest level where that holds;
    boundary cells subdivide until ``level_max``, where every cell still
    intersecting the bbox is emitted, full or partial.  ``inside``
    defaults to the closed bbox; spatial.convex_inside tests the four
    corners against convex rings.

    Fully vectorized ACROSS zones: one (zone, ix, iy) frontier array per
    level, classified with the same IEEE-double predicates the DuckDB
    recursive-CTE oracles evaluate (cell edges ``ix*(360/2^L)`` are exact
    binary fractions, so equality cases agree bit-for-bit).

    Returns (zone_idx, level, ix, iy, full) int64/bool arrays.
    """
    bboxes = np.asarray(bboxes, dtype=np.float64).reshape(-1, 4)
    ix0, ix1, iy0, iy1 = seed_range(*bboxes.T, level_min)
    ny = iy1 - iy0 + 1
    cnt = (ix1 - ix0 + 1) * ny
    z = np.repeat(np.arange(len(bboxes)), cnt)
    j = np.arange(z.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    ix = ix0[z] + j // ny[z]
    iy = iy0[z] + j % ny[z]
    out = {k: [] for k in ("z", "lv", "ix", "iy", "full")}
    for level in range(level_min, level_max + 1):
        w = 360.0 / (2.0**level)
        h = 180.0 / (2.0**level)
        x0, x1 = ix * w, (ix + 1) * w
        y0, y1 = iy * h - 90.0, (iy + 1) * h - 90.0
        b = bboxes[z]
        inter = (x0 <= b[:, 2]) & (x1 >= b[:, 0]) & (y0 <= b[:, 3]) & (y1 >= b[:, 1])
        full = inter & (inside(z, x0, y0, x1, y1) if inside else
                        (x0 >= b[:, 0]) & (x1 <= b[:, 2]) & (y0 >= b[:, 1]) & (y1 <= b[:, 3]))
        emit = inter if level == level_max else full
        out["z"].append(z[emit])
        out["lv"].append(np.full(int(emit.sum()), level, dtype=np.int64))
        out["ix"].append(ix[emit])
        out["iy"].append(iy[emit])
        out["full"].append(full[emit])
        if level == level_max:
            break
        sub = inter & ~full
        z = np.repeat(z[sub], 4)
        dx = np.tile(np.array([0, 0, 1, 1], dtype=np.int64), int(sub.sum()))
        dy = np.tile(np.array([0, 1, 0, 1], dtype=np.int64), int(sub.sum()))
        ix = np.repeat(ix[sub] * 2, 4) + dx
        iy = np.repeat(iy[sub] * 2, 4) + dy
    return tuple(np.concatenate(out[k]) for k in ("z", "lv", "ix", "iy", "full"))
