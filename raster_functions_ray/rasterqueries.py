"""Raster pipelines exposed as driver queries over the synthetic tile world.

Pixel payloads cannot be decoded by a SQL oracle, so most entries return
per-tile summary rows (rows-only checks) — their pixel-exact correctness is
gated by the golden-kernel pytest suite instead (tests/test_kernels_*,
tests/test_raster_pipelines.py).  The tile→cell assignment IS SQL-checkable
(pure float arithmetic on the extent column) and is an exact-match gate.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from . import grid, synth
from .functions import pointwise as pw
from .functions import remap as rm
from .sources import read_table_arrow, read_tiles
from .stages import cellindex, composite, halo, tile_map

LEVEL = cellindex.DEFAULT_LEVEL


def q_tile_cells(sf_dir: str) -> pd.DataFrame:
    """Exact tile→cell assignment table (metadata-only read: no pixels)."""
    d = synth.synth_dir_for(sf_dir)
    p = synth.params_for(synth.sf_from_dir(sf_dir))
    tiles = read_tiles(d, columns=["tile_id", "scene_id", "tx", "ty", "extent"])
    out = cellindex.assign_tile_cells(tiles, p, LEVEL)
    return out.to_pandas().drop(columns=["extent"])


def tile_cells_oracle_sql(sf: float = 0.01) -> str:
    p = synth.params_for(sf)
    d = synth.synth_dir(sf)
    n = float(2**LEVEL)
    return f"""
SELECT tile_id, scene_id, tx, ty,
       CAST({LEVEL} AS BIGINT) * 4503599627370496
       + CAST(floor(((extent[1] + extent[3]) / 2.0) / {p.world_w} * 360.0 / 360.0 * {n}) AS BIGINT) * 67108864
       + LEAST(CAST(floor((((extent[2] + extent[4]) / 2.0) / {p.world_h} * 180.0 - 90.0 + 90.0) / 180.0 * {n}) AS BIGINT), {int(n) - 1}) AS cell_id
FROM read_parquet('{d}/tiles.parquet')
"""


def _stats_df(ds: rd.Dataset) -> pd.DataFrame:
    out = tile_map.tile_stats(ds).to_pandas()
    for c in ("mean", "min", "max"):
        out[c] = out[c].astype(float).round(6)
    return out.sort_values("tile_id").reset_index(drop=True)


def q_ndvi_stats(sf_dir: str) -> pd.DataFrame:
    """NDVI (Grayscale mode) per-tile masked stats over the 2-band scenes."""
    d = synth.synth_dir_for(sf_dir)
    tiles = read_tiles(d, bands=2)
    out = tile_map.apply_kernel(
        tiles, lambda p, m, meta: (pw.ndvi(p[0], p[1], "Grayscale"), m), out_pixel_type="f4")
    return _stats_df(out)


def q_hillshade_stats(sf_dir: str) -> pd.DataFrame:
    """DEM → halo exchange → Hillshade (u1) per-tile stats.

    Full path: shuffle-free scene-pruned halo (stages/halo.py), padded
    kernel, mask-erosion semantics.  (q_hillshade_shuffle_halo_stats gates
    the groupby-based halo lowering on the same kernel.)"""
    from .functions import focal as fc

    d = synth.synth_dir_for(sf_dir)
    padded = halo.with_halo_from_parquet(os.path.join(d, "tiles.parquet"),
                                         padding=1, bands=1)
    return _stats_df(tile_map.apply_kernel(padded, fc.hillshade_kernel, out_pixel_type="u1"))


def q_hillshade_shuffle_halo_stats(sf_dir: str) -> pd.DataFrame:
    """Same hillshade, via the groupby(scene) halo EXCHANGE lowering
    (halo.with_halo strategy='scene') — the non-storage-aligned fallback for
    inputs without co-located scenes.  Output is identical to
    q_hillshade_stats (pytest proves the lowerings equal); this query gates
    the shuffle lowering in the driver run."""
    from .functions import focal as fc

    d = synth.synth_dir_for(sf_dir)
    padded = halo.with_halo(read_tiles(d, bands=1), padding=1, strategy="scene")
    return _stats_df(tile_map.apply_kernel(padded, fc.hillshade_kernel, out_pixel_type="u1"))


def q_median_composite_stats(sf_dir: str) -> pd.DataFrame:
    """Clear-pixel median composite over the Landsat epoch stacks (QA band 7),
    via the zero-shuffle storage-aligned stack reduce."""
    d = synth.synth_dir_for(sf_dir)
    out = composite.stack_reduce_from_parquet(
        os.path.join(d, "tiles.parquet"),
        composite.median_composite_reduce(qa_band=6), out_pixel_type="f4", bands=7)
    df = tile_map.tile_stats(out).to_pandas()
    for c in ("mean", "min", "max"):
        df[c] = df[c].astype(float).round(4)
    return df.sort_values("tile_id").reset_index(drop=True)


def burn_zone_raster(pix_shape, ext, p: synth.SynthParams, zone_id: np.ndarray,
                     geo: list) -> np.ndarray:
    """Vector→raster burn-in: per-pixel zone id from the zone polygons
    (candidates bbox-filtered per tile, then spatial.zone_contains; higher
    zone_id wins on overlap).  ``zone_id`` and ``geo`` are spatial.zone_index's,
    over the zones in zone_id order, built once on the driver.

    The engine side of functions/deprecated/RasterizeAttributes.py:135-169.
    """
    from .spatial import zone_contains

    h, w = pix_shape
    xs = np.linspace(ext[0], ext[2], w, endpoint=False) + (ext[2] - ext[0]) / (2 * w)
    ys = np.linspace(ext[1], ext[3], h, endpoint=False) + (ext[3] - ext[1]) / (2 * h)
    lon, lat = synth.world_to_lonlat(*np.meshgrid(xs, ys, indexing="xy"), p)
    tlon = (ext[0] / p.world_w * 360.0, ext[2] / p.world_w * 360.0)
    tlat = (ext[1] / p.world_h * 180.0 - 90.0, ext[3] / p.world_h * 180.0 - 90.0)
    z = np.zeros((h, w), dtype=np.int32)
    for zid, g in zip(zone_id, geo):
        bb = g[1]
        if bb[2] < tlon[0] or bb[0] > tlon[1] or bb[3] < tlat[0] or bb[1] > tlat[1]:
            continue
        z[zone_contains(g, lon, lat)] = zid
    return z


def q_zonal_remap_counts(sf_dir: str) -> pd.DataFrame:
    """ZonalRemap over DEM tiles: burn zone raster from the vector side,
    remap per-zone [zmin, zmax] → zval, count output classes per tile."""
    d = synth.synth_dir_for(sf_dir)
    p = synth.params_for(synth.sf_from_dir(sf_dir))
    zones = read_table_arrow(d, "zones").to_pandas()
    # zone attribute map through the feature-service-style loader (the
    # reference's ZonalAttributesTable connection, functions/utils.py:
    # 149-258 — WHERE/idList/envelope pushdown over a local parquet
    # "service"); SQL NULL arms arrive as None, exactly the nullable-arm
    # dispatch the kernel expects
    from .state.feature_service import ZonalAttributesService

    svc = ZonalAttributesService(os.path.join(d, "zones.parquet"),
                                 id_field="zone_id",
                                 attrib_list=["zmin", "zmax", "zval"])
    zt_map = {(int(k) if k is not None else k): [list(t) for t in v]
              for k, v in svc.query(id_list=zones["zone_id"].tolist()).items()}
    from .spatial import zone_index

    _, _, _, zone_id, geo = zone_index(zones.sort_values("zone_id"))
    zones_ref = ray.put((zone_id, geo, zt_map))
    tiles = read_tiles(d, bands=1)

    def kernel_batch(b: pa.Table) -> pd.DataFrame:
        zid, zgeo, ztm = ray.get(zones_ref)
        from . import tilecodec
        recs = []
        tid = b["tile_id"].to_pylist()
        exts = b["extent"].to_pylist()
        for i, pix, msk in tilecodec.iter_tiles(b):
            dem = pix if pix.ndim == 2 else pix[0]
            zr = burn_zone_raster(dem.shape, exts[i], p, zid, zgeo)
            out = rm.zonal_remap(dem, zr, ztm, background=0, default_target=255)
            vals, cnts = np.unique(out, return_counts=True)
            for v, n in zip(vals, cnts):
                recs.append((tid[i], int(v), int(n)))
        return pd.DataFrame(recs, columns=["tile_id", "zval", "n_px"])

    out = tiles.map_batches(kernel_batch, batch_format="pyarrow", batch_size=16)
    return out.to_pandas().sort_values(["tile_id", "zval"]).reset_index(drop=True)


def q_doc_zone_join(sf_dir: str) -> pd.DataFrame:
    """Interleaved-doc text spans (WKT points) joined to the synthetic zone
    polygons through one broadcast full/partial cell index
    (spatial.doc_points_in_zones)."""
    from . import spatial
    from .sources import read_documents

    d = synth.synth_dir_for(sf_dir)
    zones = read_table_arrow(d, "zones").to_pandas()
    out = spatial.doc_points_in_zones(read_documents(d), zones).to_pandas()
    out["zone_id"] = out["zone_id"].astype("int64")
    return out.sort_values(["doc_id", "zone_id"]).reset_index(drop=True)


# ------------------------------------------------------- chains & ML ----

def q_rf_classify_stats(sf_dir: str) -> pd.DataFrame:
    """RandomForest-shaped classifier stage ([pred, p0, p1] 3-band output,
    functions/RandomForestClassifier.py:71-120; deterministic stump-ensemble
    fallback — sklearn absent in this environment)."""
    from .stages.classify import classify_tiles

    d = synth.synth_dir_for(sf_dir)
    training = read_table_arrow(d, "training").to_pandas()
    tiles = read_tiles(d, bands=7)

    def drop_qa(p, m, meta):
        return p[:6], m

    sr = tile_map.apply_kernel(tiles, drop_qa, out_pixel_type="u2")
    out = classify_tiles(sr, training, model="rf")

    def summarize(b: pa.Table) -> pd.DataFrame:
        from . import tilecodec
        recs = []
        tid = b["tile_id"].to_pylist()
        for i, pix, msk in tilecodec.iter_tiles(b):
            recs.append((tid[i], int(pix[0].sum()), round(float(pix[2].mean()), 6)))
        return pd.DataFrame(recs, columns=["tile_id", "n_pred1", "mean_p1"])

    return (out.map_batches(summarize, batch_format="pyarrow", batch_size=16)
            .to_pandas().sort_values("tile_id").reset_index(drop=True))


def q_topographic_c(sf_dir: str) -> pd.DataFrame:
    """TopographicCCorrection two-phase plan
    (functions/TopographicCCorrection.py:88-154): per-(scene, band) OLS of
    image vs cos(i) → C = b/m, emitted per scene/band (phase 1; phase 2
    applies the correction map-side)."""
    from .functions import focal as fc
    from .functions import stack as st

    d = synth.synth_dir_for(sf_dir)
    padded = halo.with_halo_from_parquet(os.path.join(d, "tiles.parquet"),
                                         padding=1, bands=1)

    def slope_aspect_cos(b: pa.Table) -> pd.DataFrame:
        from . import tilecodec
        recs = []
        meta_cols = {c: b[c].to_pylist() for c in ("tile_id", "scene_id", "sun_azimuth", "sun_elevation", "width", "pixel_type", "band_count", "height", "cell_size")}
        pads = b["padding"].to_pylist()
        for i in range(b.num_rows):
            p2 = 2 * int(pads[i])
            h = int(meta_cols["height"][i]) + p2
            w = int(meta_cols["width"][i]) + p2
            pix = tilecodec.decode(b["pixels"][i].as_buffer(), meta_cols["pixel_type"][i],
                                   int(meta_cols["band_count"][i]), h, w)
            dem = pix if pix.ndim == 2 else pix[0]
            dxc = fc.convolve3x3(dem, fc.ASPECT_X) / 8.0
            dyc = fc.convolve3x3(dem, fc.ASPECT_Y) / 8.0
            csx, csy = (float(v) for v in meta_cols["cell_size"][i])
            cell = 0.5 * (csx + csy) or 30.0  # from the row, not a constant
            # that merely matches synth.CELL_SIZE_M
            slope_deg = np.degrees(np.arctan(np.sqrt(dxc**2 + dyc**2) / cell))[1:-1, 1:-1]
            aspect_deg = (57.29578 * np.arctan2(dxc, -dyc))[1:-1, 1:-1] % 360.0
            cos_i = st.cos_incidence(slope_deg, aspect_deg,
                                     meta_cols["sun_azimuth"][i], meta_cols["sun_elevation"][i])
            band = dem[1:-1, 1:-1]
            # per-tile partial regression moments (combine exactly at scene level)
            n = band.size
            recs.append((int(meta_cols["scene_id"][i]), n, float(cos_i.sum()),
                         float(band.sum()), float((cos_i * cos_i).sum()),
                         float((cos_i * band).sum())))
        return pd.DataFrame(recs, columns=["scene_id", "n", "sx", "sy", "sxx", "sxy"])

    partials = padded.map_batches(slope_aspect_cos, batch_format="pyarrow")
    from ray.data.aggregate import Sum
    agg = (partials.groupby("scene_id")
           .aggregate(Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
                      Sum("sy", alias_name="sy"), Sum("sxx", alias_name="sxx"),
                      Sum("sxy", alias_name="sxy"))
           .to_pandas())
    denom = agg["sxx"] - agg["sx"] ** 2 / agg["n"]
    with np.errstate(divide="ignore", invalid="ignore"):
        # degenerate scenes (constant cos_i or zero regression slope) get
        # NaN rather than a misleading inf C factor
        slope = (agg["sxy"] - agg["sx"] * agg["sy"] / agg["n"]) / denom.replace(0.0, np.nan)
        intercept = agg["sy"] / agg["n"] - slope * agg["sx"] / agg["n"]
        agg["c_factor"] = np.round(intercept / slope.replace(0.0, np.nan), 6)
    return agg[["scene_id", "c_factor"]].sort_values("scene_id").reset_index(drop=True)


# --------------------------------------------- remaining §2 operators ----

def q_latitude_corner(sf_dir: str) -> pd.DataFrame:
    """Latitude op (functions/Latitude.py:45-83): per-tile latitude of the
    bottom output row — closed-form in the extent, hence SQL-exact."""
    d = synth.synth_dir_for(sf_dir)
    tiles = read_tiles(d, bands=1)

    def kernel_batch(b: pa.Table) -> pd.DataFrame:
        from . import tilecodec
        recs = []
        tid = b["tile_id"].to_pylist()
        exts = b["extent"].to_pylist()
        cs = b["cell_size"].to_pylist()
        hs = b["height"].to_pylist()
        ws = b["width"].to_pylist()
        for i in range(b.num_rows):
            block = pw.latitude_block(exts[i], cs[i], (int(hs[i]), int(ws[i])))
            recs.append((tid[i], float(block[-1, 0])))
        return pd.DataFrame(recs, columns=["tile_id", "last_row_lat"])

    return (tiles.map_batches(kernel_batch, batch_format="pyarrow", batch_size=64)
            .to_pandas())


def latitude_oracle_sql(sf: float = 0.01) -> str:
    d = synth.synth_dir(sf)
    return f"""
SELECT tile_id, extent[4] - cell_size[2] * (height - 1) AS last_row_lat
FROM read_parquet('{d}/tiles.parquet') WHERE band_count = 1
"""


D8_OFFS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def d8_directions(dem: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steepest-descent D8 direction per pixel: (best direction index into
    D8_OFFS, has_down mask).  Drops evaluate against edge-CLAMPED
    neighbours (pad mode="edge"); ties resolve to the lowest direction
    index (np.argmax first-max)."""
    h, w = dem.shape
    pad = np.pad(dem, 1, mode="edge")
    drops = np.full((8, h, w), -np.inf)
    for k, (dy, dx) in enumerate(D8_OFFS):
        nb = pad[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
        dist = np.sqrt(dy * dy + dx * dx)
        drops[k] = (dem - nb) / dist
    return np.argmax(drops, axis=0), np.max(drops, axis=0) > 0


def d8_flow_accumulation(dem: np.ndarray, max_iters: int | None = None) -> np.ndarray:
    """Per-tile D8 flow accumulation (pure numpy, no scipy): steepest-descent
    direction per pixel, then iterative upstream-count propagation to a fixed
    point.  Per-tile semantics like the reference's in-block hydrology
    (functions/CompoundTopographicIndex_64bitScipy.py:80-149 — which solves
    the same linear system with spsolve)."""
    h, w = dem.shape
    offs = D8_OFFS
    best, has_down = d8_directions(dem)
    # hoist loop-invariant padded views out of the fixed-point iteration
    # (the per-iteration pads dominated both runtime and allocator churn)
    bestp = np.pad(best, 1, mode="constant", constant_values=-1)
    downp = np.pad(has_down, 1, mode="constant")
    flows_in = []  # per direction: boolean mask of "neighbor flows into me"
    for k, (dy, dx) in enumerate(offs):
        src_best = bestp[1 - dy:1 - dy + h, 1 - dx:1 - dx + w]
        src_down = downp[1 - dy:1 - dy + h, 1 - dx:1 - dx + w]
        flows_in.append((src_best == k) & src_down)
    acc = np.ones((h, w))
    accp = np.zeros((h + 2, w + 2))
    new = np.empty((h, w))
    tmp = np.empty((h, w))
    it = 0
    limit = max_iters or (h + w)
    while it < limit:
        accp[1:-1, 1:-1] = acc
        new.fill(1.0)
        for k, (dy, dx) in enumerate(offs):
            src_acc = accp[1 - dy:1 - dy + h, 1 - dx:1 - dx + w]
            np.multiply(src_acc, flows_in[k], out=tmp)
            np.add(new, tmp, out=new)
        if np.array_equal(new, acc):
            break
        acc, new = new.copy(), new
        it += 1
    return acc


def q_cti_stats(sf_dir: str) -> pd.DataFrame:
    """Compound Topographic Index from in-tile D8 flow accumulation + slope
    (functions/CompoundTopographicIndex.py:52-86 + the 64bitScipy hydrology),
    a heavy kernel fused into the halo read tasks."""
    from .functions import focal as fc

    d = synth.synth_dir_for(sf_dir)
    padded = halo.with_halo_from_parquet(os.path.join(d, "tiles.parquet"),
                                         padding=1, bands=1)

    def kernel(p, m, meta):
        dem = (p if p.ndim == 2 else p[0]).astype(np.float64)
        cs = float(meta["cell_size"][0])
        dxc = fc.convolve3x3(dem, fc.ASPECT_X) / 8.0
        dyc = fc.convolve3x3(dem, fc.ASPECT_Y) / 8.0
        slope_deg = np.degrees(np.arctan(np.sqrt(dxc**2 + dyc**2) / cs))[1:-1, 1:-1]
        core = dem[1:-1, 1:-1]
        acc = d8_flow_accumulation(core, max_iters=64)
        cti = pw.compound_topographic_index(slope_deg, acc, cs)
        return cti, fc.erode_mask_3x3(m)

    out = tile_map.apply_kernel(padded, kernel, out_pixel_type="f4")
    return _stats_df(out)


def q_inpaint_stats(sf_dir: str) -> pd.DataFrame:
    """Whole-image op (ProcessFullImage, functions/
    StepwiseLocalRadiometricAdjustment.py:50-149): per-SCENE groupby
    assembles the full image, then the FAITHFUL stepwise radiometric
    adjustment (functions/inpaint.py — iterative 5×5 mask dilation +
    per-boundary-pixel nonzero-window radiometric transfer, pinned by a
    literal-transcription pytest oracle; cv2/numba absent, same math)."""
    d = synth.synth_dir_for(sf_dir)
    tiles = read_tiles(d, bands=1)

    def inpaint_scene(g: pa.Table) -> pd.DataFrame:
        from . import tilecodec
        g2 = g.sort_by([("ty", "ascending"), ("tx", "ascending")])
        txs = np.asarray(g2["tx"]); tys = np.asarray(g2["ty"])
        tp = int(g2["width"][0].as_py())
        gx0, gy0 = txs.min(), tys.min()
        nx = txs.max() - gx0 + 1; ny = tys.max() - gy0 + 1
        scene = np.zeros((ny * tp, nx * tp))
        valid = np.zeros((ny * tp, nx * tp), dtype=bool)
        for i in range(g2.num_rows):
            pix = tilecodec.decode(g2["pixels"][i].as_buffer(), g2["pixel_type"][i].as_py(),
                                   1, tp, tp)
            msk = tilecodec.decode_mask(g2["mask"][i].as_buffer(), tp, tp)
            y0, x0 = (tys[i] - gy0) * tp, (txs[i] - gx0) * tp
            scene[y0:y0 + tp, x0:x0 + tp] = pix
            valid[y0:y0 + tp, x0:x0 + tp] = msk.astype(bool)
        # faithful stepwise radiometric adjustment (functions/inpaint.py —
        # literal-transcription-gated vs StepwiseLocalRadiometricAdjustment
        # .py:67-234); the replacement acquisition is the vertically
        # flipped scene (deterministic co-registered stand-in — the
        # reference takes a second raster the 1-band world doesn't carry)
        from .functions.inpaint import stepwise_radiometric_adjustment

        cloud_mask = (~valid).astype(np.uint8)
        filled = stepwise_radiometric_adjustment(
            np.where(valid, scene, 0.0), np.flipud(scene), cloud_mask,
            win_size=8, mask_dilate_iters=1)
        sid = int(g["scene_id"][0].as_py())
        return pd.DataFrame({"scene_id": [sid],
                             "filled_px": [int((~valid).sum())],
                             "mean_after": [round(float(filled.mean()), 4)]})

    out = tiles.groupby("scene_id").map_groups(inpaint_scene, batch_format="pyarrow")
    return out.to_pandas().sort_values("scene_id").reset_index(drop=True)


def q_sarima_forecast(sf_dir: str) -> pd.DataFrame:
    """SeasonalARIMA with the CSS-fit NumPy SARIMA (1,0,0)×(0,1,1,s) —
    the reference's exact model equations (functions/SeasonalARIMA.py:
    199-207: order=(1,0,0), seasonal_order=(0,1,1,s), trend='c') fitted by
    conditional sum of squares instead of statsmodels MLE (absent here);
    see functions/stack.css_sarima_fit.  Delta = ŷ(h=2) − ŷ(h=1) per
    pixel, like the reference's predict-year − current-year delta.
    Rows-only (iterative nonlinear fit is not SQL-expressible); the fit
    math is gated by pytest (grid-optimality + parameter recovery)."""
    from .functions import stack as st

    d = synth.synth_dir_for(sf_dir)

    def reduce_fn(stack, masks, g):
        series = stack[:, 0, ::16, ::16].astype(np.float64)  # (epochs, h/16, w/16)
        e, hh, ww = series.shape
        flat = series.reshape(e, hh * ww)
        fc, _ = st.css_sarima_forecast(flat, s=3, horizon=2)
        delta = (fc[1] - fc[0]).reshape(hh, ww)
        full = np.repeat(np.repeat(delta, 16, axis=0), 16, axis=1)
        return full, np.ones(full.shape, np.uint8)

    out = composite.stack_reduce_from_parquet(
        os.path.join(d, "tiles.parquet"), reduce_fn, out_pixel_type="f4", bands=7)
    df = tile_map.tile_stats(out).to_pandas()
    for c in ("mean", "min", "max"):
        df[c] = df[c].astype(float).round(4)
    return df.sort_values("tile_id").reset_index(drop=True)


def q_doc_media_join(sf_dir: str) -> pd.DataFrame:
    """Hash-partitioned LARGE-side join (Dataset.join): exploded media spans
    ⨝ tile metadata on tile_id → per-scene reference counts.  SQL oracle
    unnests the same spans in DuckDB — exact join-row gate."""
    from ray.data.aggregate import Count
    from .sources import read_documents
    from .stages import spans as sp

    d = synth.synth_dir_for(sf_dir)
    media = sp.media_refs(sp.explode_spans(read_documents(d)))
    tiles = read_tiles(d, columns=["tile_id", "scene_id"])
    from .stages.join import hash_join
    joined = hash_join(media, tiles, "media_ref", "inner", right_on="tile_id")
    out = (joined.groupby("scene_id").aggregate(Count(alias_name="n_refs"))
           .to_pandas())
    out["scene_id"] = out["scene_id"].astype("int64")
    out["n_refs"] = out["n_refs"].astype("int64")
    return out.sort_values("scene_id").reset_index(drop=True)


def doc_media_join_oracle_sql(sf: float = 0.01) -> str:
    d = synth.synth_dir(sf)
    return f"""
WITH s AS (SELECT UNNEST(spans) AS sp FROM read_parquet('{d}/documents.parquet')),
m AS (SELECT sp.media_ref AS media_ref FROM s WHERE sp.kind = 'media')
SELECT CAST(t.scene_id AS BIGINT) AS scene_id, COUNT(*) AS n_refs
FROM m JOIN read_parquet('{d}/tiles.parquet') t ON m.media_ref = t.tile_id
GROUP BY t.scene_id
"""


def q_span_kinds(sf_dir: str) -> pd.DataFrame:
    """Span explode invariant in aggregate form: span counts by kind +
    offset-ordering checksum (SQL oracle unnests the same list column)."""
    from ray.data.aggregate import Count, Sum
    from .sources import read_documents
    from .stages import spans as sp

    d = synth.synth_dir_for(sf_dir)
    exploded = sp.explode_spans(read_documents(d))

    def partial(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        return df.groupby("kind", sort=False).agg(
            n=("offset", "size"), sum_offset=("offset", "sum")).reset_index()

    out = (exploded.map_batches(partial, batch_format="pyarrow", batch_size=65536)
           .groupby("kind")
           .aggregate(Sum("n", alias_name="n"), Sum("sum_offset", alias_name="sum_offset"))
           .to_pandas())
    out["n"] = out["n"].astype("int64")
    out["sum_offset"] = out["sum_offset"].astype("int64")
    return out.sort_values("kind").reset_index(drop=True)


def span_kinds_oracle_sql(sf: float = 0.01) -> str:
    d = synth.synth_dir(sf)
    return f"""
WITH s AS (SELECT UNNEST(spans) AS sp FROM read_parquet('{d}/documents.parquet'))
SELECT sp.kind AS kind, COUNT(*) AS n,
       CAST(SUM(sp.offset) AS BIGINT) AS sum_offset
FROM s GROUP BY sp.kind
"""


def q_random_source(sf_dir: str) -> pd.DataFrame:
    """Random synthetic raster source (functions/deprecated/Random.py:23-51):
    ray.data.range → seeded per-tile RNG tiles, deterministic."""
    import ray.data as rdm

    n = 64
    ds = rdm.range(n)

    def gen(b: pa.Table) -> pd.DataFrame:
        ids = np.asarray(b["id"], dtype=np.int64)
        recs = []
        for i in ids:
            rng = np.random.default_rng(42 + int(i))
            tile = rng.integers(0, 200, (3, 16, 16)).astype(np.uint8)
            recs.append((int(i), round(float(tile.mean()), 6)))
        return pd.DataFrame(recs, columns=["tile_idx", "mean_val"])

    return ds.map_batches(gen, batch_format="pyarrow", batch_size=16).to_pandas()


# counter-based Random source: tile/pixel geometry and the two 32-bit mix
# constants shared by the engine kernel, the SQL oracle and the pytest
_RND_TILES = 64
_RND_PX = 3 * 16 * 16  # bands × rows × cols per tile
_RND_M1 = 2654435761   # Knuth multiplicative constant (same as trainprep)
_RND_M2 = 2246822519   # xxhash PRIME32_2 — published public constant
_RND_MOD = 1 << 32


def _rnd_counter_values(ids: np.ndarray) -> np.ndarray:
    """Counter-based pixel generator: value = mix(global pixel counter).

    Two 32-bit multiply/xor-shift rounds over ``ctr = tile*px + i`` —
    every pixel's value is a pure function of its global counter, so the
    output is independent of block boundaries, batch size and task
    placement (the property a 100 TB synthetic source needs; a stateful
    per-tile RNG re-seeds per tile and couples output to the tiling).
    All arithmetic stays < 2^63.1, exact in uint64 and in DuckDB UBIGINT.
    """
    ctr = (ids.astype(np.uint64)[:, None] * np.uint64(_RND_PX)
           + np.arange(_RND_PX, dtype=np.uint64)[None, :])
    return _rnd_mix(ctr).astype(np.int64)


def _rnd_mix(ctr: np.ndarray) -> np.ndarray:
    """The two multiply/xor-shift rounds of the counter mix (uint64 in,
    u1-domain values 0..199 out) — shared by q_random_source_exact and the
    rft loader's Random adapter so the two can never desynchronize."""
    h = (ctr * np.uint64(_RND_M1)) % np.uint64(_RND_MOD)
    h = ((h ^ (h >> np.uint64(16))) * np.uint64(_RND_M2)) % np.uint64(_RND_MOD)
    return h % np.uint64(200)


def q_random_source_exact(sf_dir: str) -> pd.DataFrame:
    """Random raster source re-expressed as a COUNTER-BASED generator
    (functions/deprecated/Random.py:23-51 semantics: parameterless
    synthetic 3-band u1 raster) — Philox-style stateless counter→value
    map instead of a seeded sequential RNG, because at 100 TB the source
    must produce identical pixels regardless of how Ray splits the range
    into blocks.  SQL-exact: the mix is two multiply/xor-shift rounds in
    32-bit integer arithmetic that DuckDB reproduces bit-for-bit.
    """
    import ray.data as rdm

    ds = rdm.range(_RND_TILES, override_num_blocks=8)

    def gen(b: pa.Table) -> pd.DataFrame:
        ids = np.asarray(b["id"], dtype=np.int64)
        v = _rnd_counter_values(ids)
        s = v.sum(axis=1)
        return pd.DataFrame({
            "tile_idx": ids,
            "sum_val": s,
            "min_val": v.min(axis=1),
            "max_val": v.max(axis=1),
            "mean_val": s / float(_RND_PX),
        })

    out = ds.map_batches(gen, batch_format="pyarrow", batch_size=16)
    return out.to_pandas().sort_values("tile_idx").reset_index(drop=True)


RANDOM_SOURCE_EXACT_SQL = f"""
WITH h AS (
    SELECT range AS ctr,
           (CAST(range AS UBIGINT) * {_RND_M1}) % {_RND_MOD} AS h1
    FROM range(0, {_RND_TILES * _RND_PX})
), v AS (
    SELECT CAST(ctr // {_RND_PX} AS BIGINT) AS tile_idx,
           CAST((xor(h1, h1 >> 16) * {_RND_M2}) % {_RND_MOD} % 200
                AS BIGINT) AS val
    FROM h
)
SELECT tile_idx,
       CAST(SUM(val) AS BIGINT) AS sum_val,
       MIN(val) AS min_val,
       MAX(val) AS max_val,
       SUM(val) / {float(_RND_PX)} AS mean_val
FROM v GROUP BY tile_idx ORDER BY tile_idx
"""


# ---------------------------------------------- D8 hydrology exact gate

_D8_TILES = 32
_D8_N = 16  # grid side


def _d8_dem(tile_ids: np.ndarray) -> np.ndarray:
    """Counter-based integer pseudo-DEM (tiles, N, N): value =
    ((s*131071 + r*37 + c*17) * 2654435761) % 4096 — int64-exact in both
    numpy and DuckDB BIGINT (max product ~1.1e16 < 2^63)."""
    s = tile_ids[:, None, None].astype(np.int64)
    r = np.arange(_D8_N, dtype=np.int64)[None, :, None]
    c = np.arange(_D8_N, dtype=np.int64)[None, None, :]
    return (((s * 131071 + r * 37 + c * 17) * 2654435761) % 4096).astype(np.float64)


def q_d8_flow_exact(sf_dir: str) -> pd.DataFrame:
    """D8 flow accumulation run to TRUE fixed point over a counter-based
    integer DEM — the SQL-exact gate for the engine's iterative hydrology
    core (d8_flow_accumulation, the piece of CompoundTopographicIndex_
    64bitScipy.py:80-149 that was previously rows-only: cti_stats runs the
    same kernel over noise tiles).  The oracle replays the ENTIRE
    definition in SQL: steepest-drop direction with edge-clamped
    neighbours and first-max tie-break (ROW_NUMBER ORDER BY drop DESC, k),
    then accumulation as path-walk reachability counts via a recursive
    CTE — valid because a positive drop strictly decreases elevation, so
    flow paths are cycle-free.  All compared quantities are integer counts;
    the only float op is the shared /sqrt(2), a correctly-rounded IEEE
    division identical in numpy and DuckDB.

    Scale shape: pure map_batches over a counter range — no shuffle; the
    fixed-point iteration is per-tile in-worker state, tiles never
    communicate (the reference's in-block semantics)."""
    import ray.data as rdm

    ds = rdm.range(_D8_TILES, override_num_blocks=8)

    def gen(b: pa.Table) -> pd.DataFrame:
        ids = np.asarray(b["id"], dtype=np.int64)
        dems = _d8_dem(ids)
        rows = []
        for i, s in enumerate(ids):
            acc = d8_flow_accumulation(dems[i], max_iters=_D8_N * _D8_N)
            _, has_down = d8_directions(dems[i])
            rows.append((int(s), int(acc.sum()), int(acc.max()),
                         int((~has_down).sum())))
        out = pd.DataFrame(rows, columns=["tile_idx", "sum_acc", "max_acc",
                                          "n_sinks"])
        return out.astype("int64")

    out = ds.map_batches(gen, batch_format="pyarrow", batch_size=8)
    return out.to_pandas().sort_values("tile_idx").reset_index(drop=True)


D8_FLOW_EXACT_SQL = f"""
WITH RECURSIVE
grid AS (SELECT unnest(generate_series(0, {_D8_N - 1})) AS i),
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
           (CASE WHEN n.dy <> 0 AND n.dx <> 0 THEN sqrt(2.0) ELSE 1.0 END) AS dr
  FROM cells a
  JOIN nb n ON TRUE
  JOIN cells b
    ON b.s = a.s
   AND b.r = LEAST(GREATEST(a.r + n.dy, 0), {_D8_N - 1})
   AND b.c = LEAST(GREATEST(a.c + n.dx, 0), {_D8_N - 1})
),
best AS (
  SELECT s, r, c, dy, dx, dr,
         ROW_NUMBER() OVER (PARTITION BY s, r, c ORDER BY dr DESC, k) AS rn
  FROM drops
),
down AS (SELECT s, r, c, r + dy AS nr, c + dx AS nc, dr FROM best WHERE rn = 1),
walk AS (
  SELECT s, r AS sr, c AS sc, r, c FROM cells
  UNION ALL
  SELECT w.s, w.sr, w.sc, d.nr, d.nc
  FROM walk w JOIN down d ON d.s = w.s AND d.r = w.r AND d.c = w.c
  WHERE d.dr > 0
    AND d.nr BETWEEN 0 AND {_D8_N - 1} AND d.nc BETWEEN 0 AND {_D8_N - 1}
),
acc AS (SELECT s, r, c, COUNT(*) AS a FROM walk GROUP BY s, r, c)
SELECT CAST(acc.s AS BIGINT) AS tile_idx,
       CAST(SUM(a) AS BIGINT) AS sum_acc,
       CAST(MAX(a) AS BIGINT) AS max_acc,
       CAST((SELECT COUNT(*) FROM down dn
             WHERE dn.s = acc.s AND dn.dr <= 0) AS BIGINT) AS n_sinks
FROM acc GROUP BY acc.s ORDER BY tile_idx
"""


def q_watershed_basins(sf_dir: str) -> pd.DataFrame:
    """Watershed basin delineation over the D8 world (the reference's
    hydrology family, CompoundTopographicIndex_64bitScipy.py:80-149, taken
    to its basin-labeling conclusion; ArcGIS Watershed semantics): every
    cell is assigned to the SINK its steepest-descent path terminates at;
    output is one row per basin with its pixel count.

    The per-tile kernel resolves the sink assignment by POINTER DOUBLING
    (next = next[next]) — O(log path-length) vectorized numpy passes
    instead of a sequential walk, the same trick the distributed
    list-ranking literature uses, so a 10⁶-px tile needs ~20 passes, not
    10⁶ steps.  Tiles never communicate (in-block hydrology semantics).

    Oracle: the d8_flow_exact walk CTE joined to its terminal sinks —
    strictly-descending paths visit exactly one sink (the endpoint), so
    basin membership is the walk row whose cell is a sink.
    """
    import ray.data as rdm

    ds = rdm.range(_D8_TILES, override_num_blocks=8)
    n = _D8_N

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
            # when has_down, best always targets an in-grid cell (positive
            # clamped-diagonal drops are dominated by their straight
            # in-grid sibling — see d8_directions' clamping rule)
            nxt = np.where(has_down, (rr + dy.reshape(n, n)) * n
                           + (cc + dx.reshape(n, n)), idx).ravel()
            while True:
                jump = nxt[nxt]
                if np.array_equal(jump, nxt):
                    break
                nxt = jump
            sink_ids, counts = np.unique(nxt, return_counts=True)
            for b_id, cnt in zip(sink_ids, counts):
                rows.append((int(s), int(b_id), int(cnt)))
        return pd.DataFrame(rows, columns=["tile_idx", "basin_id",
                                           "basin_px"]).astype("int64")

    out = ds.map_batches(gen, batch_format="pyarrow", batch_size=8)
    return (out.to_pandas().sort_values(["tile_idx", "basin_id"])
            .reset_index(drop=True))


WATERSHED_BASINS_SQL = f"""
WITH RECURSIVE
grid AS (SELECT unnest(generate_series(0, {_D8_N - 1})) AS i),
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
           (CASE WHEN n.dy <> 0 AND n.dx <> 0 THEN sqrt(2.0) ELSE 1.0 END) AS dr
  FROM cells a
  JOIN nb n ON TRUE
  JOIN cells b
    ON b.s = a.s
   AND b.r = LEAST(GREATEST(a.r + n.dy, 0), {_D8_N - 1})
   AND b.c = LEAST(GREATEST(a.c + n.dx, 0), {_D8_N - 1})
),
best AS (
  SELECT s, r, c, dy, dx, dr,
         ROW_NUMBER() OVER (PARTITION BY s, r, c ORDER BY dr DESC, k) AS rn
  FROM drops
),
down AS (SELECT s, r, c, r + dy AS nr, c + dx AS nc, dr FROM best WHERE rn = 1),
walk AS (
  SELECT s, r AS sr, c AS sc, r, c FROM cells
  UNION ALL
  SELECT w.s, w.sr, w.sc, d.nr, d.nc
  FROM walk w JOIN down d ON d.s = w.s AND d.r = w.r AND d.c = w.c
  WHERE d.dr > 0
    AND d.nr BETWEEN 0 AND {_D8_N - 1} AND d.nc BETWEEN 0 AND {_D8_N - 1}
),
sinks AS (SELECT s, r, c FROM down WHERE dr <= 0)
SELECT CAST(w.s AS BIGINT) AS tile_idx,
       CAST(w.r * {_D8_N} + w.c AS BIGINT) AS basin_id,
       CAST(COUNT(*) AS BIGINT) AS basin_px
FROM walk w JOIN sinks k ON k.s = w.s AND k.r = w.r AND k.c = w.c
GROUP BY w.s, w.r, w.c
"""


# --------------------------------------- template-gap ops (round 2) ----

# deterministic endmember signatures in the synthetic Landsat DN domain
# (band base levels are 7000 + 900*b — synth._scene_pixels)
LSU_SIGNATURES = {
    "Shadow": [6800.0, 7600.0, 8500.0, 9300.0, 10200.0, 11000.0],
    "Veg": [7200.0, 8300.0, 9100.0, 10600.0, 11000.0, 11600.0],
    "NPV": [7000.0, 7900.0, 8900.0, 9800.0, 10800.0, 11800.0],
    "Soil": [7400.0, 8100.0, 9400.0, 10000.0, 11400.0, 12400.0],
}


def q_lsu_stats(sf_dir: str) -> pd.DataFrame:
    """LinearSpectralUnmixing (functions/deprecated/LinearSpectralUnmixing.py:
    60-130): per-pixel lstsq endmember abundances + R² band over the 6
    Landsat SR bands, Scaled mode.  Per-tile stats of the first abundance
    band (rows-only; pixel math gated by the golden pytest oracle)."""
    d = synth.synth_dir_for(sf_dir)
    tiles = read_tiles(d, bands=7)

    def kernel(p, m, meta):
        out = pw.linear_spectral_unmixing(p[:6], LSU_SIGNATURES, method="Scaled")
        return out, m

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f4")
    return _stats_df(out)


def q_multidirectional_hillshade_stats(sf_dir: str) -> pd.DataFrame:
    """MultidirectionalHillshade (functions/deprecated/
    MultidirectionalHillshade.rft.xml): USGS-style multi-azimuth blend over
    halo-padded DEM tiles (shuffle-free halo)."""
    from .functions import focal as fc

    d = synth.synth_dir_for(sf_dir)
    padded = halo.with_halo_from_parquet(os.path.join(d, "tiles.parquet"),
                                         padding=1, bands=1)

    def kernel(p, m, meta):
        dem = p if p.ndim == 2 else p[0]
        return fc.multidirectional_hillshade(dem, m, meta["cell_size"],
                                             is_geographic=(meta["srid"] == 4326))

    out = tile_map.apply_kernel(padded, kernel, out_pixel_type="u1")
    return _stats_df(out)


def q_tile_catalog(sf_dir: str) -> pd.DataFrame:
    """Tile-catalog manifest (scripts/ExtractRasterInfo.py:1-10 analog):
    metadata-only projection of the tile table — SQL-exact."""
    d = synth.synth_dir_for(sf_dir)
    tiles = read_tiles(d, columns=["tile_id", "scene_id", "width", "height",
                                   "band_count", "pixel_type", "srid"])
    out = tiles.to_pandas()
    for c in ("scene_id", "width", "height", "band_count", "srid"):
        out[c] = out[c].astype("int64")
    return out


def tile_catalog_oracle_sql(sf: float = 0.01) -> str:
    d = synth.synth_dir(sf)
    return f"""
SELECT tile_id, CAST(scene_id AS BIGINT) AS scene_id,
       CAST(width AS BIGINT) AS width, CAST(height AS BIGINT) AS height,
       CAST(band_count AS BIGINT) AS band_count, pixel_type,
       CAST(srid AS BIGINT) AS srid
FROM read_parquet('{d}/tiles.parquet')
"""


def q_key_metadata(sf_dir: str) -> pd.DataFrame:
    """KeyMetadata op (functions/deprecated/KeyMetadata.py:63-108):
    metadata-only transform — injects/overrides dataset- and band-level
    properties WITHOUT touching pixels (the read never loads the pixel
    column).  Emits the resulting property bag per tile."""
    d = synth.synth_dir_for(sf_dir)
    tiles = read_tiles(d, columns=["tile_id", "band_count", "pixel_type", "acq_ts"])

    def inject(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        # dataset-level: datatype=Processed; band 0: bandname per band count
        df["datatype"] = "Processed"
        df["bandname"] = np.where(df["band_count"] == 1, "DEM",
                                  np.where(df["band_count"] == 2, "RedIR", "Landsat"))
        df["acq_year"] = df["acq_ts"].dt.year.astype("int64")
        return df[["tile_id", "datatype", "bandname", "acq_year"]]

    return tiles.map_batches(inject, batch_format="pyarrow", batch_size=1024).to_pandas()


def key_metadata_oracle_sql(sf: float = 0.01) -> str:
    d = synth.synth_dir(sf)
    return f"""
SELECT tile_id, 'Processed' AS datatype,
       CASE WHEN band_count = 1 THEN 'DEM'
            WHEN band_count = 2 THEN 'RedIR' ELSE 'Landsat' END AS bandname,
       CAST(date_part('year', acq_ts) AS BIGINT) AS acq_year
FROM read_parquet('{d}/tiles.parquet')
"""


def q_tile_parent_cells(sf_dir: str) -> pd.DataFrame:
    """Hierarchical cell demotion (grid.parent — the S2-style level walk):
    tile cells at LEVEL and their parents at LEVEL−1, SQL-exact (pure
    integer/float arithmetic on the extent column)."""
    d = synth.synth_dir_for(sf_dir)
    p = synth.params_for(synth.sf_from_dir(sf_dir))
    tiles = read_tiles(d, columns=["tile_id", "extent"])
    out = cellindex.assign_tile_cells(tiles, p, LEVEL)

    def add_parent(b: pa.Table) -> pa.Table:
        par = grid.parent(np.asarray(b["cell_id"], dtype=np.int64))
        return b.append_column("parent_cell_id", pa.array(par, pa.int64()))

    return (out.map_batches(add_parent, batch_format="pyarrow")
            .to_pandas().drop(columns=["extent"]))


def tile_parent_cells_oracle_sql(sf: float = 0.01) -> str:
    p = synth.params_for(sf)
    d = synth.synth_dir(sf)
    n = float(2**LEVEL)
    # replicate the engine's EXACT operation order (world_to_lonlat →
    # cell_encode: *360/360 and −90+90 round-trips), like
    # tile_cells_oracle_sql — a simplified floor(v/world*n) can flip on a
    # value within 1 ulp of a cell boundary (grid.py sync contract)
    ix = (f"CAST(floor(((extent[1] + extent[3]) / 2.0) / {p.world_w} * 360.0"
          f" / 360.0 * {n}) AS BIGINT)")
    iy = (f"LEAST(CAST(floor(((((extent[2] + extent[4]) / 2.0) / {p.world_h}"
          f" * 180.0 - 90.0) + 90.0) / 180.0 * {n}) AS BIGINT), {int(n) - 1})")
    return f"""
SELECT tile_id,
       CAST({LEVEL} AS BIGINT) * 4503599627370496 + {ix} * 67108864 + {iy} AS cell_id,
       CAST({LEVEL - 1} AS BIGINT) * 4503599627370496
       + ({ix} // 2) * 67108864 + ({iy} // 2) AS parent_cell_id
FROM read_parquet('{d}/tiles.parquet')
"""


def q_media_features(sf_dir: str) -> pd.DataFrame:
    """Multimodal pipeline (stages/media.py): media TABLE (binary payload
    + typed metadata, synth media.parquet) → image rows → actor-pool
    decode — REAL pure-numpy BMP parsing (bottom-up BGR scanlines, row
    padding); PIL dispatch for compressed formats when present — → resize
    → feature extraction.  Deterministic, rows-only check (binary
    container parsing is not SQL-expressible)."""
    import pyarrow.compute as pc

    from .stages import media

    d = synth.synth_dir_for(sf_dir)
    ds = rd.read_parquet(os.path.join(d, "media.parquet"),
                         filter=pc.field("kind") == "image")
    out = media.decode_and_featurize(ds, target=(32, 32), concurrency=2)
    return out.to_pandas().sort_values("media_id").reset_index(drop=True)


def q_video_frame_plan(sf_dir: str) -> pd.DataFrame:
    """Video frame-sampling plan (stages/media.sample_frames): per video
    row the number of frames a stride-10 sampler extracts — metadata-only
    read (the binary payload never leaves storage), SQL-exact."""
    import pyarrow.compute as pc

    from .stages.media import sample_frames

    d = synth.synth_dir_for(sf_dir)
    ds = rd.read_parquet(os.path.join(d, "media.parquet"),
                         columns=["media_id", "kind", "n_frames"],
                         filter=pc.field("kind") == "video")

    def plan(b: pa.Table) -> pd.DataFrame:
        df = b.to_pandas()
        df["n_sampled"] = [int(sample_frames(int(n), 10).size)
                           for n in df["n_frames"]]
        df["n_frames"] = df["n_frames"].astype("int64")
        return df[["media_id", "n_frames", "n_sampled"]]

    out = ds.map_batches(plan, batch_format="pyarrow", batch_size=4096).to_pandas()
    return out.sort_values("media_id").reset_index(drop=True)


def q_video_features(sf_dir: str) -> pd.DataFrame:
    """Video rows → actor-pool decode — REAL pure-numpy YUV4MPEG2 (y4m)
    stream parsing — → frame-sampling plan → per-sampled-frame luma stats
    + a motion score (stages/media.VideoFrameFeatures).  Deterministic,
    rows-only check (binary container parsing is not SQL-expressible; the
    frame-sampling PLAN half is SQL-gated by q_video_frame_plan)."""
    import pyarrow.compute as pc

    from .stages.media import VideoFrameFeatures

    d = synth.synth_dir_for(sf_dir)
    ds = rd.read_parquet(os.path.join(d, "media.parquet"),
                         columns=["media_id", "kind", "payload"],
                         filter=pc.field("kind") == "video")
    out = ds.map_batches(VideoFrameFeatures, batch_format="pyarrow",
                         batch_size=32, concurrency=2)
    return out.to_pandas().sort_values("media_id").reset_index(drop=True)


def video_frame_plan_oracle_sql(sf: float = 0.01) -> str:
    d = synth.synth_dir(sf)
    return f"""
SELECT media_id, CAST(n_frames AS BIGINT) AS n_frames,
       ((CAST(n_frames AS BIGINT) - 1) // 10) + 1 AS n_sampled
FROM read_parquet('{d}/media.parquet') WHERE kind = 'video'
ORDER BY media_id
"""


def q_resumable_hillshade(sf_dir: str) -> pd.DataFrame:
    """Checkpoint/lineage/resume as a first-class pipeline (north-rule
    'resumable from checkpoint with per-partition lineage + metrics'):
    the partitioned per-scene hillshade runs TWICE into a fresh store —
    run 1 computes every partition (atomic writes + lineage records),
    run 2 must skip them all via the checkpoint filter.  Output: one row
    per partition with its lineage row count and both runs' dispositions
    (deterministic; rows-only)."""
    import shutil
    import tempfile

    from .pipelines import partitioned
    from .stages import aligned
    from .state.checkpoint import (CheckpointStore, input_fingerprint,
                                   run_partitioned)

    d = synth.synth_dir_for(sf_dir)
    tiles = os.path.join(d, "tiles.parquet")
    keys = [f"scene={s}" for s in aligned.scenes(tiles, bands=1)["scene_id"]]
    fp = input_fingerprint([tiles])
    root = tempfile.mkdtemp(prefix="rfr_ckpt_")
    try:
        store = CheckpointStore(root)
        factory = lambda key: partitioned.hillshade_scene(  # noqa: E731
            d, int(key.split("=")[1]))
        w1 = run_partitioned(factory, keys, "hillshade", store, fp)
        w2 = run_partitioned(factory, keys, "hillshade", store, fp)
        lin = store.lineage()
        rows = (lin.groupby("partition_key")
                .agg(n_rows=("rows", "sum"), n_records=("rows", "size"))
                .reset_index())
        rows["computed_run1"] = rows["partition_key"].isin(w1)
        rows["skipped_run2"] = ~rows["partition_key"].isin(w2)
        rows["n_rows"] = rows["n_rows"].astype("int64")
        rows["n_records"] = rows["n_records"].astype("int64")
        return rows.sort_values("partition_key").reset_index(drop=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def q_nn_neighbors_stats(sf_dir: str) -> pd.DataFrame:
    """NearestNeighborsClassifier (functions/NearestNeighborsClassifier.py:
    90-166): k neighbor LABELS emitted as k output bands per pixel —
    actor-pool stage, training table broadcast, fit once per actor.
    Per-tile per-band agreement stats (rows-only)."""
    from .stages.classify import knn_neighbors

    d = synth.synth_dir_for(sf_dir)
    training = read_table_arrow(d, "training").to_pandas()
    feats = [f"pred_{i}" for i in range(1, 7)]
    tX = training[feats].to_numpy(dtype=np.float64)
    ty_ = training["VarToPredict"].to_numpy(dtype=np.int64)
    tref = ray.put((tX, ty_))
    tiles = read_tiles(d, bands=7)

    class NeighborLabels:
        def __init__(self):
            self.X, self.y = ray.get(tref)

        def __call__(self, b: pa.Table) -> pd.DataFrame:
            from . import tilecodec
            recs = []
            tid = b["tile_id"].to_pylist()
            for i, pix, msk in tilecodec.iter_tiles(b):
                # 2× pixel subsample: the per-pixel neighbor search is the
                # reference's stated cost bound too; stats stay per-tile
                f = pix[:6, ::2, ::2].reshape(6, -1).T.astype(np.float64)
                idx = knn_neighbors(self.X, f, k=3)       # (npix, 3)
                labels = self.y[idx]                      # k label bands
                agree = (labels == labels[:, :1]).all(axis=1).mean()
                recs.append((tid[i], int(labels[:, 0].sum()),
                             round(float(agree), 6)))
            return pd.DataFrame(recs, columns=["tile_id", "sum_l1", "unanimity"])

    # ≤ half the session CPUs: a full-width actor pool can starve the read
    # tasks feeding it (observed deadlock at concurrency == num_cpus)
    out = tiles.map_batches(NeighborLabels, batch_format="pyarrow",
                            batch_size=8, concurrency=4)
    return out.to_pandas().sort_values("tile_id").reset_index(drop=True)


def q_audio_features(sf_dir: str) -> pd.DataFrame:
    """Audio rows of the media table → actor-pool decode — REAL pure-numpy
    PCM16 RIFF/WAVE chunk-walk parsing — → waveform features
    (stages/media.AudioFeatures).  Deterministic, rows-only check (binary
    container parsing is not SQL-expressible)."""
    import pyarrow.compute as pc

    from .stages.media import AudioFeatures

    d = synth.synth_dir_for(sf_dir)
    ds = rd.read_parquet(os.path.join(d, "media.parquet"),
                         columns=["media_id", "kind", "payload", "sample_rate"],
                         filter=pc.field("kind") == "audio")
    out = ds.map_batches(AudioFeatures, batch_format="pyarrow",
                         batch_size=64, concurrency=2)
    return out.to_pandas().sort_values("media_id").reset_index(drop=True)


# --------------------------- span-sequence equality invariant (north rule)

# BASELINE.json input_hint pins a per-row invariant: span-sequence
# equality (kind, text, media_ref, order).  span_signature/reassemble
# round-trips gate it in pytest; this query puts it in the DRIVER's
# graded window as a SQL-exact fingerprint.  The fingerprint is
# order-SENSITIVE but addition-ASSOCIATIVE:
#     fp(doc) = Σ_j  poly31(kind_j ␞ text_j ␞ media_ref_j) · W^j   (mod 2^32)
# so it computes as per-batch partial sums + one groupby(doc_id) Sum —
# no sort, no per-group Python dispatch, the 100 TB aggregate shape —
# while any swap/drop/mutation of a span changes the value.

SPAN_FP_W = 2654435761        # Knuth multiplicative constant, odd
SPAN_FP_MOD = 1 << 32
SPAN_FP_MAXIDX = 16           # synth docs carry ≤ 8 spans; hard guard


def _span_fp_weights() -> np.ndarray:
    w = np.empty(SPAN_FP_MAXIDX, np.uint64)
    acc = 1
    for i in range(SPAN_FP_MAXIDX):
        w[i] = acc
        acc = (acc * SPAN_FP_W) % SPAN_FP_MOD
    return w


_SPAN_FP_WEIGHTS = _span_fp_weights()


def q_span_sequence_fp(sf_dir: str) -> pd.DataFrame:
    """Per-document span-sequence fingerprint through the production
    explode stage (stages/spans.py) — the driver-graded form of the
    input_hint's span-sequence-equality invariant."""
    from ray.data.aggregate import Sum

    from .sources import read_documents
    from .stages import spans as sp
    from .trainprep import _poly31_u32

    d = synth.synth_dir_for(sf_dir)
    exploded = sp.explode_spans(read_documents(d))

    def partial(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        s = (df["kind"] + "\x1e" + df["text"] + "\x1e"
             + df["media_ref"]).to_numpy()
        h = _poly31_u32(s.astype(str))
        idx = df["span_idx"].to_numpy(np.int64)
        if idx.size and idx.max() >= SPAN_FP_MAXIDX:
            raise ValueError("span_idx exceeds fingerprint weight table")
        contrib = (h * _SPAN_FP_WEIGHTS[idx]) % np.uint64(SPAN_FP_MOD)
        part = (pd.DataFrame({"doc_id": df["doc_id"],
                              "fp_part": contrib.astype(np.int64),
                              "n_part": np.ones(len(df), np.int64)})
                .groupby("doc_id", sort=False).sum().reset_index())
        return pa.Table.from_pandas(part, preserve_index=False)

    out = (exploded.map_batches(partial, batch_format="pyarrow",
                                batch_size=8192)
           .groupby("doc_id")
           .aggregate(Sum("fp_part", alias_name="fp_sum"),
                      Sum("n_part", alias_name="n_spans"))
           .to_pandas())
    out["span_fp"] = (out["fp_sum"].to_numpy(np.int64)
                      % SPAN_FP_MOD).astype(np.int64)
    out["n_spans"] = out["n_spans"].astype(np.int64)
    return (out[["doc_id", "n_spans", "span_fp"]]
            .sort_values("doc_id").reset_index(drop=True))


def span_sequence_fp_oracle_sql(sf: float = 0.01) -> str:
    d = synth.synth_dir(sf)
    weights = ", ".join(f"({i}, {int(_SPAN_FP_WEIGHTS[i])})"
                        for i in range(SPAN_FP_MAXIDX))
    return f"""
WITH e AS (
  SELECT doc_id, u - 1 AS idx,
         spans[u].kind || chr(30) || spans[u]."text" || chr(30)
           || spans[u].media_ref AS s
  FROM (SELECT doc_id, spans, unnest(generate_series(1, len(spans))) AS u
        FROM read_parquet('{d}/documents.parquet'))
), h AS (
  SELECT doc_id, idx,
         list_reduce(list_transform(string_split(s, ''),
                                    c -> CAST(unicode(c) AS BIGINT)),
                     (a, b) -> (a * 31 + b) % 4294967296) AS h32
  FROM e
), wt AS (
  SELECT * FROM (VALUES {weights}) AS t(idx, w)
)
SELECT doc_id, COUNT(*) AS n_spans,
       CAST(SUM((CAST(h32 AS HUGEINT) * w) % 4294967296) % 4294967296
            AS BIGINT) AS span_fp
FROM h JOIN wt USING (idx)
GROUP BY doc_id ORDER BY doc_id
"""


def q_rft_radiation_stats(sf_dir: str) -> pd.DataFrame:
    """'Annual Direct Incident Radiation.rft.xml' — the reference corpus's
    most complex template (three nested RasterCalculators over Aspect and
    Slope built-ins plus a host-supplied latitude plane, with per-pixel
    Cos/Sin) — loaded by pipelines/rft.py and run over the real noise-world
    DEM tiles through the parquet halo.  Rows-only (trig per pixel); the
    loader itself is pinned exact by rft_vineyard_exact and the pytest
    hand-composition suite (tests/test_rft_loader.py)."""
    from .pipelines import rft

    path = "/root/reference/functions/Annual Direct Incident Radiation.rft.xml"
    kernel = rft.template_kernel(rft.parse_rft(path))
    d = synth.synth_dir_for(sf_dir)
    padded = halo.with_halo_from_parquet(os.path.join(d, "tiles.parquet"),
                                         padding=1, bands=1)
    out = tile_map.apply_kernel(padded, kernel, out_pixel_type="f8")
    return _stats_df(out)


def q_flow_length(sf_dir: str) -> pd.DataFrame:
    """Downstream flow length (ArcGIS FlowLength): for every cell, the
    number of straight and diagonal D8 steps along its descent path to the
    terminal sink — kept as the integer pair (n_straight, n_diag) so the
    gate never sums square roots (length = s + d·√2 is derived, not
    compared).

    The kernel extends watershed's pointer doubling with WEIGHT
    ACCUMULATION — the parallel list-ranking recurrence: jumping from
    next to next[next] adds the jumped-over segment's accumulated steps
    (dist2k[p] = distk[p] + distk[ptrk[p]]), so a path of length L
    resolves in O(log L) vectorized passes.  Output per tile: total and
    max steps of each kind.
    """
    import ray.data as rdm

    ds = rdm.range(_D8_TILES, override_num_blocks=8)
    n = _D8_N

    def gen(b: pa.Table) -> pd.DataFrame:
        ids = np.asarray(b["id"], dtype=np.int64)
        dems = _d8_dem(ids)
        rows = []
        for i, s in enumerate(ids):
            best, has_down = d8_directions(dems[i])
            dy = np.array([o[0] for o in D8_OFFS])[best]
            dx = np.array([o[1] for o in D8_OFFS])[best]
            diag = ((dy != 0) & (dx != 0)).ravel()
            idx = np.arange(n * n, dtype=np.int64).reshape(n, n)
            rr, cc = idx // n, idx % n
            nxt = np.where(has_down, (rr + dy) * n + (cc + dx), idx).ravel()
            hd = has_down.ravel()
            n_str = (hd & ~diag).astype(np.int64)
            n_dia = (hd & diag).astype(np.int64)
            while True:
                jump = nxt[nxt]
                if np.array_equal(jump, nxt):
                    break
                n_str = n_str + n_str[nxt]
                n_dia = n_dia + n_dia[nxt]
                nxt = jump
            rows.append((int(s), int(n_str.sum()), int(n_dia.sum()),
                         int(n_str.max()), int(n_dia.max())))
        return pd.DataFrame(rows, columns=["tile_idx", "sum_straight",
                                           "sum_diag", "max_straight",
                                           "max_diag"]).astype("int64")

    out = ds.map_batches(gen, batch_format="pyarrow", batch_size=8)
    return out.to_pandas().sort_values("tile_idx").reset_index(drop=True)


FLOW_LENGTH_SQL = f"""
WITH RECURSIVE
grid AS (SELECT unnest(generate_series(0, {_D8_N - 1})) AS i),
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
           (CASE WHEN n.dy <> 0 AND n.dx <> 0 THEN sqrt(2.0) ELSE 1.0 END) AS dr
  FROM cells a
  JOIN nb n ON TRUE
  JOIN cells b
    ON b.s = a.s
   AND b.r = LEAST(GREATEST(a.r + n.dy, 0), {_D8_N - 1})
   AND b.c = LEAST(GREATEST(a.c + n.dx, 0), {_D8_N - 1})
),
best AS (
  SELECT s, r, c, dy, dx, dr,
         ROW_NUMBER() OVER (PARTITION BY s, r, c ORDER BY dr DESC, k) AS rn
  FROM drops
),
down AS (SELECT s, r, c, r + dy AS nr, c + dx AS nc, dr,
                CASE WHEN dy <> 0 AND dx <> 0 THEN 1 ELSE 0 END AS is_diag
         FROM best WHERE rn = 1),
walk AS (
  SELECT s, r AS sr, c AS sc, r, c,
         CAST(0 AS BIGINT) AS ns, CAST(0 AS BIGINT) AS nd
  FROM cells
  UNION ALL
  SELECT w.s, w.sr, w.sc, d.nr, d.nc,
         w.ns + 1 - d.is_diag, w.nd + d.is_diag
  FROM walk w JOIN down d ON d.s = w.s AND d.r = w.r AND d.c = w.c
  WHERE d.dr > 0
    AND d.nr BETWEEN 0 AND {_D8_N - 1} AND d.nc BETWEEN 0 AND {_D8_N - 1}
),
fin AS (
  SELECT s, sr, sc, MAX(ns) AS ns, MAX(nd) AS nd
  FROM walk GROUP BY s, sr, sc
)
SELECT CAST(s AS BIGINT) AS tile_idx,
       CAST(SUM(ns) AS BIGINT) AS sum_straight,
       CAST(SUM(nd) AS BIGINT) AS sum_diag,
       CAST(MAX(ns) AS BIGINT) AS max_straight,
       CAST(MAX(nd) AS BIGINT) AS max_diag
FROM fin GROUP BY s ORDER BY tile_idx
"""
