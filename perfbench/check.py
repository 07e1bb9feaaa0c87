"""Expected outputs computed apart from the engine.

The doc-zone join and the analytic-world outputs are compared with the
repository's DuckDB oracles (``__ray_entry__.oracle_sql``), which read the
same parquet files.  Noise-world raster outputs have no SQL oracle; they are recomputed
here with NumPy from the raw tile bytes (layout per FIXTURES.md: C-order
``(band_count, height, width)`` buffers of ``pixel_type``, a u1 mask), without
calling the library's ``functions``, ``tilecodec`` or stage code.
"""

from __future__ import annotations

import hashlib
import math

import duckdb
import numpy as np
import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq

# Landsat C2 clear QA codes (FIXTURES.md section 2; functions/LandsatPixelPercentile.py:15-17)
QA_CLEAR = np.array([672, 676, 680, 684, 20480, 20484, 20512, 23552])
CELL_LEVEL = 6          # the flagship's output cell level (stages/cellindex.py)
DEG_TO_M = 1.11e5
CELL_SIZE_M = 30.0     # ground size of one pixel in the synthetic world


# ------------------------------------------------------------- comparing

def value_hash(df: pd.DataFrame) -> str:
    """Order-insensitive digest of a frame's values, columns sorted by name."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[ns]").astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    rows = sorted(hashlib.blake2b("|".join(map(repr, t)).encode(), digest_size=8).hexdigest()
                  for t in df.itertuples(index=False, name=None))
    return hashlib.blake2b("".join(rows).encode(), digest_size=16).hexdigest()


def compare_exact(name: str, got: pd.DataFrame, exp: pd.DataFrame) -> list[str]:
    if len(got) != len(exp):
        return [f"{name}: {len(got)} rows, expected {len(exp)}"]
    if sorted(got.columns) != sorted(exp.columns):
        return [f"{name}: columns {sorted(got.columns)}, expected {sorted(exp.columns)}"]
    if value_hash(got) != value_hash(exp):
        return [f"{name}: values differ from the oracle"]
    return []


def compare_close(name: str, got: pd.DataFrame, exp: pd.DataFrame, key: list[str],
                  tol: dict[str, float]) -> list[str]:
    """Row-aligned comparison on ``key``; columns in ``tol`` may differ by
    at most that absolute amount (NaN equals NaN), the rest must be equal."""
    if len(got) != len(exp):
        return [f"{name}: {len(got)} rows, expected {len(exp)}"]
    if sorted(got.columns) != sorted(exp.columns):
        return [f"{name}: columns {sorted(got.columns)}, expected {sorted(exp.columns)}"]
    g = got.sort_values(key).reset_index(drop=True)
    e = exp.sort_values(key).reset_index(drop=True)
    bad = []
    for c in sorted(got.columns):
        a, b = g[c].to_numpy(), e[c].to_numpy()
        if c in tol:
            a, b = a.astype(np.float64), b.astype(np.float64)
            ok = np.isclose(a, b, rtol=0.0, atol=tol[c], equal_nan=True)
        else:
            ok = a == b
        if not ok.all():
            bad.append(f"{name}: column {c} differs in {int((~ok).sum())} of {len(ok)} rows")
    return bad


def oracle_frames(sqls: dict[str, str]) -> dict[str, pd.DataFrame]:
    with duckdb.connect() as con:
        return {name: con.sql(sql).df() for name, sql in sqls.items()}


# ------------------------------------------------------------ raw tiles

def read_raw_tiles(tiles_path: str, band_count: int) -> pd.DataFrame:
    t = pq.read_table(tiles_path, filters=pc.field("band_count") == band_count)
    return t.to_pandas()


def raw_pixels(row) -> np.ndarray:
    """(band_count, height, width) array straight from the stored bytes."""
    a = np.frombuffer(row.pixels, dtype=np.dtype(row.pixel_type))
    return a.reshape(int(row.band_count), int(row.height), int(row.width))


def raw_mask(row) -> np.ndarray:
    return np.frombuffer(row.mask, dtype=np.uint8).reshape(int(row.height), int(row.width))


def _stats(vals: np.ndarray) -> tuple[float, float, float, int]:
    if vals.size == 0:
        return math.nan, math.nan, math.nan, 0
    return float(vals.mean()), float(vals.min()), float(vals.max()), int(vals.size)


# --------------------------------------------------------------- NDVI

def flagship_expected(synth_d: str, params: dict) -> pd.DataFrame:
    """Per-cell tile count and document references (DuckDB) and the mean
    of per-tile masked NDVI means (NumPy) over the 2-band tiles."""
    n = float(2 ** CELL_LEVEL)
    ww = wh = params["pos_grid"] * params["tiles_per_side"] * params["tile_px"] * CELL_SIZE_M
    with duckdb.connect() as con:
        counts = con.sql(f"""
WITH refs AS (
  SELECT sp.media_ref AS tile_id, COUNT(*) AS n
  FROM (SELECT UNNEST(spans) AS sp FROM read_parquet('{synth_d}/documents.parquet'))
  WHERE sp.kind = 'media' GROUP BY 1),
t AS (
  SELECT tile_id,
         CAST({CELL_LEVEL} AS BIGINT) * 4503599627370496
         + CAST(floor(((extent[1] + extent[3]) / 2.0) / {ww} * 360.0 / 360.0 * {n}) AS BIGINT) * 67108864
         + LEAST(CAST(floor((((extent[2] + extent[4]) / 2.0) / {wh} * 180.0 - 90.0 + 90.0) / 180.0 * {n}) AS BIGINT),
                 {int(n) - 1}) AS cell_id
  FROM read_parquet('{synth_d}/tiles.parquet') WHERE band_count = 2)
SELECT t.tile_id, t.cell_id, COALESCE(refs.n, 0) AS ref_count
FROM t LEFT JOIN refs USING (tile_id)
""").df()
    tiles = read_raw_tiles(f"{synth_d}/tiles.parquet", 2)
    means = {}
    for row in tiles.itertuples(index=False):
        pix = raw_pixels(row).astype(np.float32)
        with np.errstate(divide="ignore", invalid="ignore"):
            ndvi = (pix[1] - pix[0]) / (pix[1] + pix[0])
        valid = raw_mask(row).astype(bool)
        means[row.tile_id] = float(ndvi[valid].astype(np.float64).mean()) if valid.any() else math.nan
    counts["mean"] = counts["tile_id"].map(means)
    out = (counts.groupby("cell_id")
           .agg(n_tiles=("tile_id", "size"), mean_ndvi=("mean", "mean"),
                doc_refs=("ref_count", "sum"))
           .reset_index())
    return out.astype({"cell_id": "int64", "n_tiles": "int64", "doc_refs": "int64"})


# ------------------------------------------------------------ hillshade

def hillshade(dem_padded: np.ndarray, cell_size, is_geographic: bool) -> np.ndarray:
    """Hillshade of the interior of a 1-px-padded DEM, before the u1 cast
    (functions/deprecated/Hillshade.py:82-133 semantics: Sobel/8 gradients,
    sun at azimuth 315 and elevation 45, z-factor 1, clipped to [0, 255])."""
    z = np.asarray(dem_padded, dtype=np.float64)
    zen = (90.0 - 45.0) * math.pi / 180.0
    azi = (90.0 - 315.0) * math.pi / 180.0
    sin_zen_sin_azi = math.sin(zen) * math.sin(azi)
    sin_zen_cos_azi = math.sin(zen) * math.cos(azi)
    size = np.multiply(cell_size, DEG_TO_M if is_geographic else 1.0)
    xs, ys = (1.0 + np.power(size, 0.664) * 0.024) / (8 * size)
    nw, n_, ne = z[:-2, :-2], z[:-2, 1:-1], z[:-2, 2:]
    w_, e_ = z[1:-1, :-2], z[1:-1, 2:]
    sw, s_, se = z[2:, :-2], z[2:, 1:-1], z[2:, 2:]
    dx = (se - sw + 2 * e_ - 2 * w_ + ne - nw) * xs
    dy = (se + 2 * s_ + sw - ne - 2 * n_ - nw) * ys
    shade = 255 * (math.cos(zen) + dy * sin_zen_sin_azi - dx * sin_zen_cos_azi) \
        / np.sqrt(1.0 + (dx * dx + dy * dy))
    return np.clip(shade, 0.0, 255.0)


def _erode(m: np.ndarray) -> np.ndarray:
    out = np.ones((m.shape[0] - 2, m.shape[1] - 2), dtype=bool)
    for dy in range(3):
        for dx in range(3):
            out &= m[dy:dy + out.shape[0], dx:dx + out.shape[1]].astype(bool)
    return out


def scene_hillshade_tiles(tiles: pd.DataFrame):
    """Yield (tile_id, shade f8 (h, w), eroded mask bool (h, w)) for every
    tile of the given scenes: each scene is mosaicked, edge-padded by one
    pixel with a zero mask ring, and shaded as a whole."""
    for _, g in tiles.groupby("scene_id"):
        h, w = int(g["height"].iloc[0]), int(g["width"].iloc[0])
        tx0, ty0 = int(g["tx"].min()), int(g["ty"].min())
        nx, ny = int(g["tx"].max()) - tx0 + 1, int(g["ty"].max()) - ty0 + 1
        scene = np.zeros((ny * h, nx * w), np.float64)
        smask = np.zeros((ny * h, nx * w), np.uint8)
        for row in g.itertuples(index=False):
            y0, x0 = (int(row.ty) - ty0) * h, (int(row.tx) - tx0) * w
            scene[y0:y0 + h, x0:x0 + w] = raw_pixels(row)[0]
            smask[y0:y0 + h, x0:x0 + w] = raw_mask(row)
        first = g.iloc[0]
        shade = hillshade(np.pad(scene, 1, mode="edge"), list(first["cell_size"]),
                          int(first["srid"]) == 4326)
        mask = _erode(np.pad(smask, 1, mode="constant"))
        for row in g.itertuples(index=False):
            y0, x0 = (int(row.ty) - ty0) * h, (int(row.tx) - tx0) * w
            yield row.tile_id, shade[y0:y0 + h, x0:x0 + w], mask[y0:y0 + h, x0:x0 + w]


def hillshade_u1_expected(tiles_path: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """tile_id -> (u1 hillshade, eroded mask) for every DEM tile."""
    dem = read_raw_tiles(tiles_path, 1)
    return {tid: (shade.astype(np.uint8), mask)
            for tid, shade, mask in scene_hillshade_tiles(dem)}


def hillshade_stats_expected(tiles_path: str) -> pd.DataFrame:
    recs = []
    for tid, (u1, mask) in hillshade_u1_expected(tiles_path).items():
        mean, lo, hi, n = _stats(u1[mask].astype(np.float64))
        recs.append((tid, round(mean, 6), round(lo, 6), round(hi, 6), n))
    return pd.DataFrame(recs, columns=["tile_id", "mean", "min", "max", "valid_px"])


# u1 hillshade may differ by one grey level where the float shade lands on
# an integer boundary and a kernel sums in another order; per-tile stats
# then move by at most (pixels that differ) / valid_px
HILLSHADE_TOL = {"mean": 0.01, "min": 1.0, "max": 1.0}


def hillshade_pixels_problems(name: str, got: dict[str, tuple[np.ndarray, np.ndarray]],
                              exp: dict[str, tuple[np.ndarray, np.ndarray]]) -> list[str]:
    """Written u1 hillshade tiles against the NumPy recomputation: the same
    tiles, equal masks, values in [0, 255], at most one grey level apart on
    at most 0.1 % of the pixels."""
    if sorted(got) != sorted(exp):
        return [f"{name}: {len(got)} tiles written, expected {len(exp)}"]
    n_px = n_diff = 0
    for tid, (pix, mask) in got.items():
        epix, emask = exp[tid]
        if pix.shape != epix.shape or not np.array_equal(mask.astype(bool), emask):
            return [f"{name}: tile {tid} has the wrong shape or mask"]
        if pix.dtype != np.uint8:
            return [f"{name}: tile {tid} is {pix.dtype}, expected u1 values in [0, 255]"]
        d = np.abs(pix.astype(np.int16) - epix.astype(np.int16))
        if d.max() > 1:
            return [f"{name}: tile {tid} is {int(d.max())} grey levels off"]
        n_px += d.size
        n_diff += int((d > 0).sum())
    if n_diff > n_px // 1000:
        return [f"{name}: {n_diff} of {n_px} pixels differ by one grey level"]
    return []


# ------------------------------------------------------ median composite

def median_composite_stats_expected(tiles_path: str, qa_band: int = 6) -> pd.DataFrame:
    """Per-footprint clear-pixel median of band 0 across the Landsat epochs,
    summarised like the engine's tile stats (mask all ones)."""
    ls = read_raw_tiles(tiles_path, 7)
    recs = []
    for (tx, ty), g in ls.groupby(["tx", "ty"]):
        stack = np.stack([raw_pixels(r) for r in g.itertuples(index=False)])
        qa = stack[:, qa_band]
        b0 = np.where(np.isin(qa, QA_CLEAR), stack[:, 0].astype(np.float32), np.float32(np.nan))
        s = np.sort(b0, axis=0)
        cnt = np.sum(~np.isnan(b0), axis=0)
        lo = np.take_along_axis(s, (np.maximum(cnt - 1, 0) // 2)[None], 0)[0]
        hi = np.take_along_axis(s, (cnt // 2)[None], 0)[0]
        med = np.where(cnt > 0, (lo + hi) / np.float32(2), np.float32(np.nan)).astype(np.float32)
        mean, vmin, vmax, n = _stats(med.ravel().astype(np.float64))
        recs.append((f"c_{int(tx):04d}_{int(ty):04d}", round(mean, 4), round(vmin, 4),
                     round(vmax, 4), n))
    return pd.DataFrame(recs, columns=["tile_id", "mean", "min", "max", "valid_px"])
