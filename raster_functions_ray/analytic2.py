"""Round-3 SQL-exact raster gates over the analytic tile world.

Extends analytic.py's closed-form method to the operators whose driver
gates were previously rows-only: the engine runs its REAL kernels/stacks
(stack reduces, halo rank filters, aspect-slope, zonal remap, chains) over
``analytic.parquet``, and a DuckDB oracle recomputes every pixel verbatim.

Exactness disciplines used here (see analytic.py's header for the base
rules):

- integer-valued f8 pixels → MIN/MAX/COUNT and sums < 2^53 order-free;
- float32 kernels (NDVI family) are mirrored with DuckDB FLOAT arithmetic,
  which is true binary32 — verified bit-identical to NumPy f4 on this
  platform (ratio, *100+100 chains);
- divisions only where both sides perform the IDENTICAL single IEEE op
  (ratios, /8, /cell_size, percentile interpolation);
- np.arctan2 vs DuckDB atan2 differ by ≤2 ulp (measured) — used ONLY under
  octant CLASSIFICATION, where a flip needs the true angle within 2 ulp of
  a 22.5°-multiple boundary; the analytic surfaces are affine, so the
  distinct (dx, dy) pairs are few and verified far from every boundary.

QA-filtered composites (median/percentile/synthesis) use an analytic clear
rule — band1 % 3 != 1 — passed to the real clear-pixel prologue
``functions.stack._clear_sr`` as an explicit clear-values list: every pixel
has EXACTLY ONE non-clear epoch, so the nan-reduces exercise partial stacks
while the oracle enumerates the three cases by ``band1(e=0) mod 3``.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from . import synth, tilecodec
from .analytic import (_analytic_path, _b0_sql, _b1_sql, _exact_stats,
                       _px_cte, _read_analytic)

def _dlit(v: float) -> str:
    """Shortest-repr double literal WITH an exponent so DuckDB types it
    DOUBLE (a bare 17-digit literal parses as DECIMAL and loses the
    value).  Shared by every oracle that inlines scalar constants."""
    r = repr(float(v))
    return r if "e" in r or "E" in r else r + "e0"


_B0 = _b0_sql()
_B1 = _b1_sql()
_B0_E0 = _b0_sql(e="0")          # b0 at epoch 0 (the "B" of the closed forms)
_B1_E0 = _b1_sql(e="0")
_B0_E2 = _b0_sql(e="2")
_B1_E2 = _b1_sql(e="2")
_C = "(3.0 + 2.0*s)"             # b0's epoch step
_A3 = f"(CAST({_B1_E0} AS BIGINT) % 3)"  # selects which epoch is non-clear


def _epoch0_cte(sf: float) -> str:
    return _px_cte(sf, "scene_id % 10 = 0")


# ------------------------------------------------ stack reduces (epochs)

def q_aggregate_mean_exact(sf_dir: str) -> pd.DataFrame:
    """Aggregate 'mean' across the 3 epochs through the storage-aligned
    stack reduce; mean = (3B + 3C)/3 = B + C exactly (integer sums)."""
    from .stages import composite

    out = composite.stack_reduce_from_parquet(
        _analytic_path(sf_dir), composite.aggregate_reduce("mean"),
        out_pixel_type="f8", bands=2)

    def stats(a):
        band = a[0] if a.ndim == 3 else a
        return (float(band.min()), float(band.max()), float(band.sum()))

    return _exact_stats(out, stats, [("m_min", pa.float64()),
                                     ("m_max", pa.float64()),
                                     ("m_sum", pa.float64())])


def aggregate_mean_exact_oracle_sql(sf: float = 0.01) -> str:
    return f"""
WITH {_epoch0_cte(sf)},
v AS (SELECT comp_id AS tile_id, {_B0_E0} + {_C} AS sv FROM px)
SELECT tile_id, MIN(sv) AS m_min, MAX(sv) AS m_max, SUM(sv) AS m_sum
FROM v GROUP BY tile_id ORDER BY tile_id
"""


def _qa_mod3_reduce(stat: str):
    """Clear-pixel reduce with the analytic clear rule band1 % 3 != 1,
    running the REAL kernels: the composites' clear-pixel prologue (explicit
    clear list) → the median / percentile order statistics / the clear mean —
    the exact machinery of functions/LandsatMedianPixelComposite.py:130-196,
    LandsatPixelPercentile.py:134-196, Landsat_Image_Synthesis.py:95-160."""
    from .functions import stack as sf

    vals = np.arange(0, 20000, dtype=np.int64)
    clear_vals = vals[vals % 3 != 1]

    def fn(stack, masks, g):
        sr, valid = sf._clear_sr(stack, 1, clear_vals)
        if stat == "median":
            out = sf._valid_median(sr, valid)
        elif stat == "p75":
            out = sf._valid_percentile(sr, valid, 75.0)
        else:
            out = sf._valid_mean(sr, valid)
        return out[0], np.ones(stack.shape[-2:], np.uint8)

    return fn


# closed forms by a3 = b1(e0) mod 3 (one non-clear epoch per pixel):
#   a3=0 → clear {B, B+2C};  a3=1 → clear {B+C, B+2C};  a3=2 → clear {B, B+C}
_MEDIAN_CASE = (f"CASE {_A3} WHEN 0 THEN {_B0_E0} + {_C}"
                f" WHEN 1 THEN {_B0_E0} + 1.5*{_C}"
                f" ELSE {_B0_E0} + 0.5*{_C} END")
_P75_CASE = (f"CASE {_A3} WHEN 0 THEN {_B0_E0} + 1.5*{_C}"
             f" WHEN 1 THEN {_B0_E0} + 1.75*{_C}"
             f" ELSE {_B0_E0} + 0.75*{_C} END")


def _stack_qa_query(sf_dir: str, stat: str) -> pd.DataFrame:
    from .stages import composite

    out = composite.stack_reduce_from_parquet(
        _analytic_path(sf_dir), _qa_mod3_reduce(stat),
        out_pixel_type="f8", bands=2)

    def stats(a):
        return (float(a.min()), float(a.max()), float(a.sum()))

    return _exact_stats(out, stats, [("v_min", pa.float64()),
                                     ("v_max", pa.float64()),
                                     ("v_sum", pa.float64())])


def q_median_composite_exact(sf_dir: str) -> pd.DataFrame:
    """LandsatMedianPixelComposite over the analytic clear rule: per pixel
    exactly two clear epochs, so nanmedian's two-middle mean is always the
    live path ((a+b)/2 in f4 — exact: integer sums < 2^24)."""
    return _stack_qa_query(sf_dir, "median")


def median_composite_exact_oracle_sql(sf: float = 0.01) -> str:
    return f"""
WITH {_epoch0_cte(sf)},
v AS (SELECT comp_id AS tile_id, {_MEDIAN_CASE} AS sv FROM px)
SELECT tile_id, MIN(sv) AS v_min, MAX(sv) AS v_max, SUM(sv) AS v_sum
FROM v GROUP BY tile_id ORDER BY tile_id
"""


def q_pixel_percentile_exact(sf_dir: str) -> pd.DataFrame:
    """LandsatPixelPercentile p75 over the analytic clear rule: two clear
    obs per pixel → v_lo + 0.75·(v_hi − v_lo), linear interpolation exactly
    as np.nanpercentile — every term dyadic-exact on both sides."""
    return _stack_qa_query(sf_dir, "p75")


def pixel_percentile_exact_oracle_sql(sf: float = 0.01) -> str:
    return f"""
WITH {_epoch0_cte(sf)},
v AS (SELECT comp_id AS tile_id, {_P75_CASE} AS sv FROM px)
SELECT tile_id, MIN(sv) AS v_min, MAX(sv) AS v_max, SUM(sv) AS v_sum
FROM v GROUP BY tile_id ORDER BY tile_id
"""


def q_image_synthesis_exact(sf_dir: str) -> pd.DataFrame:
    """Landsat_Image_Synthesis clear-pixel mean over the analytic clear
    rule (mean of the two clear epochs — integer sums halved, exact)."""
    return _stack_qa_query(sf_dir, "mean")


def image_synthesis_exact_oracle_sql(sf: float = 0.01) -> str:
    # mean of two clear obs == their median here (same closed form)
    return f"""
WITH {_epoch0_cte(sf)},
v AS (SELECT comp_id AS tile_id, {_MEDIAN_CASE} AS sv FROM px)
SELECT tile_id, MIN(sv) AS v_min, MAX(sv) AS v_max, SUM(sv) AS v_sum
FROM v GROUP BY tile_id ORDER BY tile_id
"""


FIND3_INVALID_ABOVE = 500.0


def q_find_third_max_exact(sf_dir: str) -> pd.DataFrame:
    """FindThirdMax with the sentinel semantics actually exercised: values
    above {FIND3_INVALID_ABOVE} → −1, so the third-largest is B where the
    whole pixel column is valid and −1 anywhere any epoch overflows
    (−1 sorts below every valid value)."""
    from .stages import composite

    out = composite.stack_reduce_from_parquet(
        _analytic_path(sf_dir),
        composite.find_kth_max_reduce(3, invalid_above=FIND3_INVALID_ABOVE),
        out_pixel_type="f8", bands=2)

    def stats(a):
        band = a[0] if a.ndim == 3 else a
        return (float(band.min()), float(band.max()), float(band.sum()),
                int((band == -1).sum()))

    return _exact_stats(out, stats, [("t_min", pa.float64()),
                                     ("t_max", pa.float64()),
                                     ("t_sum", pa.float64()),
                                     ("n_invalid", pa.int64())])


def find_third_max_exact_oracle_sql(sf: float = 0.01) -> str:
    case = (f"CASE WHEN {_B0_E0} + 2.0*{_C} > {FIND3_INVALID_ABOVE}"
            f" THEN -1.0 ELSE {_B0_E0} END")
    return f"""
WITH {_epoch0_cte(sf)},
v AS (SELECT comp_id AS tile_id, {case} AS sv FROM px)
SELECT tile_id, MIN(sv) AS t_min, MAX(sv) AS t_max, SUM(sv) AS t_sum,
       CAST(COUNT(*) FILTER (sv = -1.0) AS BIGINT) AS n_invalid
FROM v GROUP BY tile_id ORDER BY tile_id
"""


PCT_THRESH = 800.0


def q_percent_above_exact(sf_dir: str) -> pd.DataFrame:
    """PercentAboveThreshold (the reference reduces ``<= threshold``,
    functions/PercentAboveThreshold.py:140-143) per epoch-0 tile: one
    integer-count ratio and one ×100 — identical IEEE ops both sides."""
    from .functions import stack as sf

    tiles = _read_analytic(sf_dir, epoch=0)

    def finish(b: pa.Table) -> pa.Table:
        ids, pcts = [], []
        tid = b["tile_id"].to_pylist()
        for i, pix, msk in tilecodec.iter_tiles(b):
            band = pix if pix.ndim == 2 else pix[0]
            pct, _ = sf.percent_above_threshold(band[None], PCT_THRESH)
            ids.append(tid[i])
            pcts.append(pct)
        return pa.table({"tile_id": pa.array(ids, pa.string()),
                         "pct": pa.array(pcts, pa.float64())})

    out = tiles.map_batches(finish, batch_format="pyarrow", batch_size=32).to_pandas()
    return out.sort_values("tile_id").reset_index(drop=True)


def percent_above_exact_oracle_sql(sf: float = 0.01) -> str:
    return f"""
WITH {_epoch0_cte(sf)}
SELECT tile_id,
       (CAST(COUNT(*) FILTER ({_B0} <= {PCT_THRESH}) AS DOUBLE)
        / CAST(COUNT(*) AS DOUBLE)) * 100.0 AS pct
FROM px GROUP BY tile_id ORDER BY tile_id
"""


def q_composite_bands_exact(sf_dir: str) -> pd.DataFrame:
    """CompositeBands: zip the 3 epochs of each footprint into a 6-band
    tile, band order = acq_ts order; stats of band 0 prove the ordering
    (band 0 must be the EARLIEST epoch's band 0 = B, not B+C or B+2C)."""
    from .stages import composite

    def zip_bands(stack, masks, g):
        bands = np.concatenate(list(stack), axis=0)
        return bands, np.all(masks, axis=0).astype(np.uint8)

    out = composite.stack_reduce_from_parquet(
        _analytic_path(sf_dir), zip_bands, out_pixel_type="f8", bands=2)

    def stats(a):
        return (int(a.shape[0]), float(a[0].min()), float(a[0].max()),
                float(a[0].sum()))

    return _exact_stats(out, stats, [("n_bands", pa.int64()),
                                     ("b_min", pa.float64()),
                                     ("b_max", pa.float64()),
                                     ("b_sum", pa.float64())])


def composite_bands_exact_oracle_sql(sf: float = 0.01) -> str:
    return f"""
WITH {_epoch0_cte(sf)},
v AS (SELECT comp_id AS tile_id, {_B0_E0} AS sv FROM px)
SELECT tile_id, CAST(6 AS BIGINT) AS n_bands,
       MIN(sv) AS b_min, MAX(sv) AS b_max, SUM(sv) AS b_sum
FROM v GROUP BY tile_id ORDER BY tile_id
"""


def q_deviation_exact(sf_dir: str) -> pd.DataFrame:
    """DeviationFromMean: earliest epoch − stack mean = B − (B+C) = −C —
    constant per scene, which is precisely the template's semantics on an
    affine world; proves the two-phase compose picks the earliest epoch."""
    from .stages import composite

    def reduce_fn(stack, masks, g):
        mean = np.asarray(stack, dtype=np.float64).mean(axis=0)
        dev = np.asarray(stack[0], dtype=np.float64) - mean
        return dev[0], np.all(masks, axis=0).astype(np.uint8)

    out = composite.stack_reduce_from_parquet(
        _analytic_path(sf_dir), reduce_fn, out_pixel_type="f8", bands=2)

    def stats(a):
        return (float(a.min()), float(a.max()), float(a.sum()))

    return _exact_stats(out, stats, [("d_min", pa.float64()),
                                     ("d_max", pa.float64()),
                                     ("d_sum", pa.float64())])


def deviation_exact_oracle_sql(sf: float = 0.01) -> str:
    return f"""
WITH {_epoch0_cte(sf)},
v AS (SELECT comp_id AS tile_id, -{_C} AS sv FROM px)
SELECT tile_id, MIN(sv) AS d_min, MAX(sv) AS d_max, SUM(sv) AS d_sum
FROM v GROUP BY tile_id ORDER BY tile_id
"""


def q_dnbr_exact(sf_dir: str) -> pd.DataFrame:
    """DNBR before(e0) − after(e2) through the stack zip, running the real
    f4 kernel (functions/pointwise.nbr_difference); DuckDB FLOAT arithmetic
    is bit-identical binary32, so the ratios mirror exactly.  Sums of
    arbitrary f4 ratios are order-dependent → min/max/count stats only."""
    from .functions import pointwise as pw
    from .stages import composite

    def reduce_fn(stack, masks, g):
        # g is acq_ts-sorted → stack[0] = epoch 0, stack[2] = epoch 2
        out = pw.nbr_difference(stack[0, 1], stack[0, 0],
                                stack[2, 1], stack[2, 0])
        return out, np.all(masks, axis=0).astype(np.uint8)

    out = composite.stack_reduce_from_parquet(
        _analytic_path(sf_dir), reduce_fn, out_pixel_type="f8", bands=2)

    def stats(a):
        return (float(a.min()), float(a.max()), int((a > 0.0).sum()))

    return _exact_stats(out, stats, [("d_min", pa.float64()),
                                     ("d_max", pa.float64()),
                                     ("n_burn", pa.int64())])


def _f4(expr: str) -> str:
    return f"CAST({expr} AS FLOAT)"


def _f4_ratio(nir: str, swir: str) -> str:
    """(nir − swir) / (swir + nir) with every op in binary32, mirroring
    pointwise.nbr_difference / ndvi."""
    return (f"(({_f4(nir)} - {_f4(swir)}) / ({_f4(swir)} + {_f4(nir)}))")


def dnbr_exact_oracle_sql(sf: float = 0.01) -> str:
    n1 = _f4_ratio(_B1_E0, _B0_E0)
    n2 = _f4_ratio(_B1_E2, _B0_E2)
    dn = f"({n1} - {n2})"
    return f"""
WITH {_epoch0_cte(sf)},
v AS (SELECT comp_id AS tile_id, {dn} AS sv FROM px)
SELECT tile_id, CAST(MIN(sv) AS DOUBLE) AS d_min, CAST(MAX(sv) AS DOUBLE) AS d_max,
       CAST(COUNT(*) FILTER (sv > 0.0) AS BIGINT) AS n_burn
FROM v GROUP BY tile_id ORDER BY tile_id
"""


# --------------------------------------------- pointwise / chain gates

def q_ndsi_ndwi_exact(sf_dir: str) -> pd.DataFrame:
    """NDSI/NDWI band-binding twins of NDVI in the real f4 kernel; NDWI is
    the negated ratio, proving the binding order matters."""
    from .functions import pointwise as pw
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)

    def kernel(p, m, meta):
        ndsi = pw.ndvi(p[1], p[0])   # (b0 − b1)/(b1 + b0)
        ndwi = pw.ndvi(p[0], p[1])   # (b1 − b0)/(b0 + b1)
        return np.stack([ndsi, ndwi]), m

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f8")

    def stats(a):
        return (float(a[0].min()), float(a[0].max()),
                float(a[1].min()), float(a[1].max()))

    return _exact_stats(out, stats, [("ndsi_min", pa.float64()),
                                     ("ndsi_max", pa.float64()),
                                     ("ndwi_min", pa.float64()),
                                     ("ndwi_max", pa.float64())])


def ndsi_ndwi_exact_oracle_sql(sf: float = 0.01) -> str:
    ndsi = _f4_ratio(_B0, _B1)
    ndwi = _f4_ratio(_B1, _B0)
    return f"""
WITH {_epoch0_cte(sf)}
SELECT tile_id,
       CAST(MIN({ndsi}) AS DOUBLE) AS ndsi_min, CAST(MAX({ndsi}) AS DOUBLE) AS ndsi_max,
       CAST(MIN({ndwi}) AS DOUBLE) AS ndwi_min, CAST(MAX({ndwi}) AS DOUBLE) AS ndwi_max
FROM px GROUP BY tile_id ORDER BY tile_id
"""


def q_ndvi_colormap_exact(sf_dir: str) -> pd.DataFrame:
    """NDVI(Colormap mode, real f4 kernel) → u1 cast → Colormap LUT chain
    (two fused Ops, ONE map_batches stage); per-tile RGB SUMS (integers —
    exact in any order)."""
    from .functions import pointwise as pw
    from .functions.remap import colormap_lookup
    from .pipelines.chain import Op, build_chain

    vals = np.arange(0, 201, dtype=np.int64)
    rgb = (np.clip(vals, 0, 255).astype(np.uint8),
           np.clip(255 - vals, 0, 255).astype(np.uint8),
           np.full(vals.size, 40, np.uint8))

    def ndvi_op(p, m, meta):
        return pw.ndvi(p[0], p[1], "Colormap"), m

    def cmap_op(p, m, meta):
        return colormap_lookup(np.clip(p, 0, 200).astype(np.uint8), vals, rgb), m

    tiles = _read_analytic(sf_dir, epoch=0)
    out = build_chain(tiles, [Op("ndvi", ndvi_op, out_pixel_type="u1"),
                              Op("colormap", cmap_op, out_pixel_type="u1")])

    def stats(a):
        return (int(a[0].sum()), int(a[1].sum()), int(a[2].sum()))

    return _exact_stats(out, stats, [("sum_r", pa.int64()),
                                     ("sum_g", pa.int64()),
                                     ("sum_b", pa.int64())])


def ndvi_colormap_exact_oracle_sql(sf: float = 0.01) -> str:
    # grayscale = (ratio f4 * 100f4) + 100f4; u1 cast truncates (positive)
    g4 = (f"(({_f4_ratio(_B1, _B0)} * {_f4('100.0')}) + {_f4('100.0')})")
    cls = f"CAST(TRUNC({g4}) AS BIGINT)"
    return f"""
WITH {_epoch0_cte(sf)},
v AS (SELECT tile_id, {cls} AS cls FROM px)
SELECT tile_id, CAST(SUM(cls) AS BIGINT) AS sum_r,
       CAST(SUM(255 - cls) AS BIGINT) AS sum_g,
       CAST(40 * COUNT(*) AS BIGINT) AS sum_b
FROM v GROUP BY tile_id ORDER BY tile_id
"""


MASKCHAIN_CUT = 1000.0
MASKCHAIN_FILL = 7.0


def q_mask_replace_exact(sf_dir: str) -> pd.DataFrame:
    """Arithmetic(subtract) → MaskRaster → RemoveNoData chain: mask = where
    (b0 − {MASKCHAIN_CUT}) > 0, masked-out pixels filled with
    {MASKCHAIN_FILL} (b0 ≥ 100, so the fill never collides)."""
    from .functions import pointwise as pw
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)

    def kernel(p, m, meta):
        diff = pw.arithmetic(p[0], np.float32(MASKCHAIN_CUT), "Subtract")
        _, m2 = pw.mask_raster(p[0], diff, m)
        out, mfull = pw.remove_nodata(p[0], m2, MASKCHAIN_FILL)
        return out, mfull

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f8")

    def stats(a):
        return (float(a.min()), float(a.max()), float(a.sum()),
                int((a == MASKCHAIN_FILL).sum()))

    return _exact_stats(out, stats, [("v_min", pa.float64()),
                                     ("v_max", pa.float64()),
                                     ("v_sum", pa.float64()),
                                     ("n_filled", pa.int64())])


def mask_replace_exact_oracle_sql(sf: float = 0.01) -> str:
    v = (f"CASE WHEN ({_f4(_B0)} - {_f4(MASKCHAIN_CUT)}) > 0.0"
         f" THEN {_B0} ELSE {MASKCHAIN_FILL} END")
    return f"""
WITH {_epoch0_cte(sf)},
v AS (SELECT tile_id, {v} AS sv FROM px)
SELECT tile_id, MIN(sv) AS v_min, MAX(sv) AS v_max, SUM(sv) AS v_sum,
       CAST(COUNT(*) FILTER (sv = {MASKCHAIN_FILL}) AS BIGINT) AS n_filled
FROM v GROUP BY tile_id ORDER BY tile_id
"""


QA2_FLAGS = {"water": True, "cirrus": True}  # bits 7 and 2 → mask 0b10000100


def q_landsat_qa_exact(sf_dir: str) -> pd.DataFrame:
    """LandsatC2QA with a different flag set than analytic.q_qa_exact
    (water+cirrus), plus the per-tile flagged ratio."""
    from .functions import pointwise as pw
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)

    def kernel(p, m, meta):
        qa = p[0].astype(np.int64)
        return pw.landsat_c2_qa(qa, **QA2_FLAGS).astype(np.float64), m

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f8")

    def stats(a):
        return (int(a.sum()), int(a.size))

    return _exact_stats(out, stats, [("n_flagged", pa.int64()),
                                     ("n_px", pa.int64())])


def landsat_qa_exact_oracle_sql(sf: float = 0.01) -> str:
    from .functions.pointwise import QA_BIT_INDEX

    mask = 0
    for name, on in QA2_FLAGS.items():
        if on:
            mask |= 1 << QA_BIT_INDEX[name]
    return f"""
WITH {_epoch0_cte(sf)}
SELECT tile_id,
       CAST(COUNT(*) FILTER ((CAST({_B0} AS BIGINT) & {mask}) <> 0)
            AS BIGINT) AS n_flagged,
       CAST(COUNT(*) AS BIGINT) AS n_px
FROM px GROUP BY tile_id ORDER BY tile_id
"""


def q_select_by_pixel_size_exact(sf_dir: str) -> pd.DataFrame:
    """SelectByPixelSize plan-time routing over the analytic world: 30 m
    cells under the 60 m threshold pick the native input; the downsampled
    branch is never read.  Gate = the native tile statistics."""
    from .functions import focal as fc
    from .functions import pointwise as pw
    from .stages import tile_map

    native = _read_analytic(sf_dir, epoch=0)
    choice = pw.select_by_pixel_size(30.0, 60.0)
    if choice == 0:
        out = native
    else:  # not taken here; kept for semantic completeness
        def down(p, m, meta):
            return fc.block_statistics(p[0], m, 2, "mean"), m[::2, ::2]
        out = tile_map.apply_kernel(native, down, out_pixel_type="f8")

    def stats(a):
        band = a[0] if a.ndim == 3 else a
        return (float(band.min()), float(band.max()), float(band.sum()))

    return _exact_stats(out, stats, [("v_min", pa.float64()),
                                     ("v_max", pa.float64()),
                                     ("v_sum", pa.float64())])


def select_by_pixel_size_exact_oracle_sql(sf: float = 0.01) -> str:
    return f"""
WITH {_epoch0_cte(sf)}
SELECT tile_id, MIN({_B0}) AS v_min, MAX({_B0}) AS v_max, SUM({_B0}) AS v_sum
FROM px GROUP BY tile_id ORDER BY tile_id
"""


def q_merge_extract_exact(sf_dir: str) -> pd.DataFrame:
    """MergeRasters (union of the scene-0 epoch-0 tiles with the band-0
    extraction of ALL epoch-0 tiles — scene-0 tiles appear in both legs) +
    ExtractBand; per-tile band-0 stats, duplicates preserved."""
    import pyarrow.compute as pc

    from .stages import tile_map

    a = _read_analytic(sf_dir, epoch=0).filter(
        expr="scene_id == 0")
    b = _read_analytic(sf_dir, epoch=0)

    def extract_band(p, m, meta):
        return (p if p.ndim == 2 else p[0]), m

    merged = a.union(tile_map.apply_kernel(b, extract_band, out_pixel_type="f8"))

    def stats(arr):
        band = arr[0] if arr.ndim == 3 else arr
        return (float(band.min()), float(band.max()), float(band.sum()))

    return _exact_stats(merged, stats, [("v_min", pa.float64()),
                                        ("v_max", pa.float64()),
                                        ("v_sum", pa.float64())])


def merge_extract_exact_oracle_sql(sf: float = 0.01) -> str:
    stats = f"MIN({_B0}) AS v_min, MAX({_B0}) AS v_max, SUM({_B0}) AS v_sum"
    return f"""
WITH {_epoch0_cte(sf)}
SELECT tile_id, {stats} FROM px WHERE s = 0 GROUP BY tile_id
UNION ALL
SELECT tile_id, {stats} FROM px GROUP BY tile_id
ORDER BY tile_id, v_min
"""


def q_vector_field_exact(sf_dir: str) -> pd.DataFrame:
    """VectorField magnitude over (u=b0, v=b1): sqrt(u²+v²) is all
    correctly-rounded IEEE.  Direction (atan2, ±2 ulp cross-library) stays
    under the pytest golden gate; its SQL-exactable projection here is the
    meteorological QUADRANT count (u,v > 0 sign tests — exact)."""
    from .functions.expr import vector_field
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)

    def kernel(p, m, meta):
        mag, direction = vector_field(p[0], p[1])
        return np.stack([mag, direction]), m

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f8")

    def stats(a):
        # u,v > 0 everywhere on the analytic world → direction in (0°,90°)
        return (float(a[0].min()), float(a[0].max()),
                int(((a[1] > 0.0) & (a[1] < 90.0)).sum()))

    return _exact_stats(out, stats, [("mag_min", pa.float64()),
                                     ("mag_max", pa.float64()),
                                     ("n_q1", pa.int64())])


def vector_field_exact_oracle_sql(sf: float = 0.01) -> str:
    mag = f"SQRT({_B0}*{_B0} + {_B1}*{_B1})"
    return f"""
WITH {_epoch0_cte(sf)}
SELECT tile_id, MIN({mag}) AS mag_min, MAX({mag}) AS mag_max,
       CAST(COUNT(*) AS BIGINT) AS n_q1
FROM px GROUP BY tile_id ORDER BY tile_id
"""


# ----------------------------------------------- halo (focal) gates

def q_rank_filter_exact(sf_dir: str) -> pd.DataFrame:
    """RankFilter 3×3 MEDIAN through the real parquet halo: 9 integers per
    window → the exact middle element on both sides (DuckDB list median of
    the 9 scene-clamped neighbour expressions)."""
    from .functions import focal as fc
    from .stages import halo, tile_map

    padded = halo.with_halo_from_parquet(
        _analytic_path(sf_dir), padding=1, bands=2,
        scene_ids=[s * 10 for s in range(synth.A_SCENES)])

    def kernel(p, m, meta):
        band = p[0] if p.ndim == 3 else p
        return fc.rank_filter(band, 3, "median"), fc.erode_mask_3x3(m)

    out = tile_map.apply_kernel(padded, kernel, out_pixel_type="f8")

    def stats(a):
        return (float(a.min()), float(a.max()), float(a.sum()))

    return _exact_stats(out, stats, [("r_min", pa.float64()),
                                     ("r_max", pa.float64()),
                                     ("r_sum", pa.float64())])


MAJ_MOD = 9  # quantizer for the majority surface (affine → repeats)


def q_focal_majority_exact(sf_dir: str) -> pd.DataFrame:
    """Focal MAJORITY (mode, smallest-value tie-break) through the real
    parquet halo: band0 quantized mod {MAJ_MOD} (the affine surface alone
    has 9 DISTINCT window values — the quantizer creates genuine
    multiplicities so the count>1 paths are exercised), then the
    vectorized run-length mode kernel.  DuckDB recomputes the identical
    key count·1e9 − value per 9-element window list."""
    from .functions import focal as fc
    from .stages import halo, tile_map

    padded = halo.with_halo_from_parquet(
        _analytic_path(sf_dir), padding=1, bands=2,
        scene_ids=[s * 10 for s in range(synth.A_SCENES)])

    def kernel(p, m, meta):
        band = p[0] if p.ndim == 3 else p
        return fc.focal_majority(np.mod(band, float(MAJ_MOD))), fc.erode_mask_3x3(m)

    out = tile_map.apply_kernel(padded, kernel, out_pixel_type="f8")

    def stats(a):
        return (float(a.min()), float(a.max()), float(a.sum()))

    return _exact_stats(out, stats, [("m_min", pa.float64()),
                                     ("m_max", pa.float64()),
                                     ("m_sum", pa.float64())])


def focal_majority_exact_oracle_sql(sf: float = 0.01) -> str:
    p = synth.params_for(sf)
    n = p.tiles_per_side * p.tile_px
    clamp = lambda ex: f"GREATEST(0, LEAST({n - 1}, {ex}))"  # noqa: E731
    nine = ", ".join(
        f"CAST({_b0_sql(gr=clamp(f'gr + {dr}'), gc=clamp(f'gc + {dc}'))} AS BIGINT) % {MAJ_MOD}"
        for dr in (-1, 0, 1) for dc in (-1, 0, 1))
    return f"""
WITH {_epoch0_cte(sf)},
w AS (SELECT tile_id, [{nine}] AS l FROM px),
k AS (SELECT tile_id,
             list_max(list_transform(l, x ->
               1000000000 * len(list_filter(l, e -> e = x)) - x)) AS mkey,
             list_max(list_transform(l, x ->
               len(list_filter(l, e -> e = x)))) AS mc
      FROM w),
f AS (SELECT tile_id, CAST(1000000000 * mc - mkey AS DOUBLE) AS sv FROM k)
SELECT tile_id, MIN(sv) AS m_min, MAX(sv) AS m_max, SUM(sv) AS m_sum
FROM f GROUP BY tile_id ORDER BY tile_id
"""


def rank_filter_exact_oracle_sql(sf: float = 0.01) -> str:
    p = synth.params_for(sf)
    n = p.tiles_per_side * p.tile_px
    clamp = lambda ex: f"GREATEST(0, LEAST({n - 1}, {ex}))"  # noqa: E731
    nine = ", ".join(
        _b0_sql(gr=clamp(f"gr + {dr}"), gc=clamp(f"gc + {dc}"))
        for dr in (-1, 0, 1) for dc in (-1, 0, 1))
    med = f"list_aggregate([{nine}], 'median')"
    return f"""
WITH {_epoch0_cte(sf)},
f AS (SELECT tile_id, {med} AS sv FROM px)
SELECT tile_id, MIN(sv) AS r_min, MAX(sv) AS r_max, SUM(sv) AS r_sum
FROM f GROUP BY tile_id ORDER BY tile_id
"""


def q_aspect_slope_exact(sf_dir: str) -> pd.DataFrame:
    """AspectSlope class codes (19–48) through the real halo, gated as a
    per-tile class histogram.

    Exactness: the slope leg is all correctly-rounded IEEE (integer
    convolutions /8 /cellsize, x²+y², sqrt, ×100 — identical doubles both
    sides).  The aspect leg uses atan2, where DuckDB and NumPy differ by
    ≤2 ulp — harmless under CLASSIFICATION unless a true aspect sits
    within 2 ulp of a 22.5°-multiple boundary; the analytic surfaces are
    affine, so the distinct (Δx, Δy) pairs are few (scene interiors are
    constant-gradient) and land far from every boundary."""
    from .functions import focal as fc
    from .stages import halo, tile_map

    padded = halo.with_halo_from_parquet(
        _analytic_path(sf_dir), padding=1, bands=2,
        scene_ids=[s * 10 for s in range(synth.A_SCENES)])

    def kernel(p, m, meta):
        band = p[0] if p.ndim == 3 else p
        out, m2 = fc.aspect_slope(band, m, meta["cell_size"], 1.0)
        return out, m2

    out = tile_map.apply_kernel(padded, kernel, out_pixel_type="f8")

    def finish(b: pa.Table) -> pa.Table:
        ids, cls, cnt = [], [], []
        for i in range(b.num_rows):
            arr = tilecodec.decode(b["pixels"][i].as_buffer(), "f8", 1,
                                   b["height"][i].as_py(), b["width"][i].as_py())
            v, c = np.unique(arr, return_counts=True)
            ids += [b["tile_id"][i].as_py()] * v.size
            cls += [int(x) for x in v]
            cnt += [int(x) for x in c]
        return pa.table({"tile_id": pa.array(ids, pa.string()),
                         "class": pa.array(cls, pa.int64()),
                         "n": pa.array(cnt, pa.int64())})

    df = out.map_batches(finish, batch_format="pyarrow", batch_size=32).to_pandas()
    return df.sort_values(["tile_id", "class"]).reset_index(drop=True)


def aspect_slope_exact_oracle_sql(sf: float = 0.01) -> str:
    p = synth.params_for(sf)
    n = p.tiles_per_side * p.tile_px
    clamp = lambda ex: f"GREATEST(0, LEAST({n - 1}, {ex}))"  # noqa: E731
    E = lambda dr, dc: _b0_sql(gr=clamp(f"gr + {dr}"), gc=clamp(f"gc + {dc}"))  # noqa: E731
    # coefficient of neighbour (dr,dc) is K[1-dr, 1-dc] (convolution flip);
    # ASPECT_X = -SOBEL_X, ASPECT_Y = -SOBEL_Y (functions/focal.py:20-24)
    dx8 = (f"(({E(-1,-1)} - {E(-1,1)}) + 2.0*({E(0,-1)} - {E(0,1)})"
           f" + ({E(1,-1)} - {E(1,1)}))")
    dy8 = (f"(({E(-1,-1)} + 2.0*{E(-1,0)} + {E(-1,1)})"
           f" - ({E(1,-1)} + 2.0*{E(1,0)} + {E(1,1)}))")
    return f"""
WITH {_epoch0_cte(sf)},
g AS (
  SELECT tile_id, {dx8} / 8.0 AS dxm, {dy8} / 8.0 AS dym FROM px
), d AS (
  SELECT tile_id, dxm, dym,
         SQRT((dxm/30.0)*(dxm/30.0) + (dym/30.0)*(dym/30.0)) * 100.0 AS slope_pct
  FROM g
), a AS (
  SELECT tile_id, slope_pct,
         CASE WHEN slope_pct = 0.0 THEN -1.0
              WHEN 57.29578 * atan2(dxm, -dym) < 0.0
              THEN (360.0 - (90.0 - 57.29578 * atan2(dxm, -dym))) + 90.0
              ELSE 57.29578 * atan2(dxm, -dym) END AS aspect
  FROM d
), c AS (
  SELECT tile_id,
         (CASE WHEN slope_pct < 5.0 THEN 10.0 WHEN slope_pct < 20.0 THEN 20.0
               WHEN slope_pct < 40.0 THEN 30.0 ELSE 40.0 END)
         + (CASE WHEN aspect <= 22.5 THEN 1.0 WHEN aspect <= 67.5 THEN 2.0
                 WHEN aspect <= 112.5 THEN 3.0 WHEN aspect <= 157.5 THEN 4.0
                 WHEN aspect <= 202.5 THEN 5.0 WHEN aspect <= 247.5 THEN 6.0
                 WHEN aspect <= 292.5 THEN 7.0 WHEN aspect <= 337.5 THEN 8.0
                 ELSE 1.0 END) AS f
  FROM a
)
SELECT tile_id,
       CAST(CASE WHEN f >= 11.0 AND f <= 18.0 THEN 19.0 ELSE f END AS BIGINT)
         AS class,
       CAST(COUNT(*) AS BIGINT) AS n
FROM c GROUP BY tile_id, class ORDER BY tile_id, class
"""


def q_block_stats_minmax_exact(sf_dir: str) -> pd.DataFrame:
    """BlockStatistics 'minimum' and 'maximum' measures (size 4) — min-of-
    row-mins is the true block min, so both are pure integer selections."""
    from .functions import focal as fc
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)

    def kernel(p, m, meta):
        mins = fc.block_statistics(p[0], m, 4, "minimum")
        maxs = fc.block_statistics(p[0], m, 4, "maximum")
        return np.stack([mins, maxs]), m[::4, ::4]

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f8")

    def stats(a):
        return (float(a[0].min()), float(a[0].sum()),
                float(a[1].max()), float(a[1].sum()))

    return _exact_stats(out, stats, [("bmin_min", pa.float64()),
                                     ("bmin_sum", pa.float64()),
                                     ("bmax_max", pa.float64()),
                                     ("bmax_sum", pa.float64())])


def block_stats_minmax_exact_oracle_sql(sf: float = 0.01) -> str:
    return f"""
WITH {_epoch0_cte(sf)},
blk AS (
  SELECT tile_id, gr // 4 AS br, gc // 4 AS bc,
         MIN({_B0}) AS vmin, MAX({_B0}) AS vmax
  FROM px GROUP BY tile_id, gr // 4, gc // 4
)
SELECT tile_id, MIN(vmin) AS bmin_min, SUM(vmin) AS bmin_sum,
       MAX(vmax) AS bmax_max, SUM(vmax) AS bmax_sum
FROM blk GROUP BY tile_id ORDER BY tile_id
"""


# ------------------------------------------- zone-keyed raster gates

ZONE_DIV = 16          # zone id changes every 16 px
ZT_MAP = {1: [[200.0, 900.0, 11.0]],      # two-sided interval
          2: [[None, 1200.0, 22.0]],      # one-sided (below)
          3: [[700.0, None, None]]}       # one-sided (above), null target
ATTR_MAP = {1: (5.0, 50.0), 2: (7.0, 70.0)}  # zone 3 → background


def _zone_kernel_factory(sf_dir: str):
    """Per-tile analytic zone raster z = 1 + ((gr//{ZONE_DIV} +
    gc//{ZONE_DIV}) % 3), derived from the tile's grid position — the
    trivially-SQL-shared zone ASSIGNMENT that lets the oracle focus on the
    remap/burn kernels themselves."""
    p = synth.params_for(synth.sf_from_dir(sf_dir))
    G, T = p.tiles_per_side, p.tile_px

    def zgrid(meta) -> np.ndarray:
        s = int(meta["scene_id"]) // 10
        lx = int(meta["tx"]) - s * G
        gr = int(meta["ty"]) * T + np.arange(T, dtype=np.int64)[:, None]
        gc = lx * T + np.arange(T, dtype=np.int64)[None, :]
        return (1 + ((gr // ZONE_DIV + gc // ZONE_DIV) % 3)).astype(np.int32)

    return zgrid


_ZONE_SQL = f"(1 + ((gr // {ZONE_DIV} + gc // {ZONE_DIV}) % 3))"


def q_zonal_remap_exact(sf_dir: str) -> pd.DataFrame:
    """ZonalRemap through the real kernel (functions/remap.zonal_remap):
    all three nullable-arm shapes + default-target + background, per-tile
    class histogram."""
    from .functions import remap as rm
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)
    zgrid = _zone_kernel_factory(sf_dir)

    def kernel(p, m, meta):
        z = zgrid(meta)
        return rm.zonal_remap(p[0], z, ZT_MAP, background=0,
                              default_target=255).astype(np.float64), m

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f8")

    def finish(b: pa.Table) -> pa.Table:
        ids, zv, cnt = [], [], []
        for i in range(b.num_rows):
            arr = tilecodec.decode(b["pixels"][i].as_buffer(), "f8", 1,
                                   b["height"][i].as_py(), b["width"][i].as_py())
            v, c = np.unique(arr, return_counts=True)
            ids += [b["tile_id"][i].as_py()] * v.size
            zv += [int(x) for x in v]
            cnt += [int(x) for x in c]
        return pa.table({"tile_id": pa.array(ids, pa.string()),
                         "zval": pa.array(zv, pa.int64()),
                         "n_px": pa.array(cnt, pa.int64())})

    df = out.map_batches(finish, batch_format="pyarrow", batch_size=32).to_pandas()
    return df.sort_values(["tile_id", "zval"]).reset_index(drop=True)


def zonal_remap_exact_oracle_sql(sf: float = 0.01) -> str:
    # strict > / < arms exactly as remap.zonal_remap:70-77
    case = (f"CASE WHEN {_ZONE_SQL} = 1 AND {_B0} > 200.0 AND {_B0} < 900.0 THEN 11"
            f" WHEN {_ZONE_SQL} = 2 AND {_B0} < 1200.0 THEN 22"
            f" WHEN {_ZONE_SQL} = 3 AND {_B0} > 700.0 THEN 255"
            f" ELSE 0 END")
    return f"""
WITH {_epoch0_cte(sf)}
SELECT tile_id, CAST({case} AS BIGINT) AS zval, CAST(COUNT(*) AS BIGINT) AS n_px
FROM px GROUP BY tile_id, zval ORDER BY tile_id, zval
"""


def q_rasterize_attributes_exact(sf_dir: str) -> pd.DataFrame:
    """RasterizeAttributes through the real kernel: 2 attribute bands
    burned per zone (zone 3 absent from the table → background), gated by
    per-tile attribute-band sums."""
    from .functions import remap as rm
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)
    zgrid = _zone_kernel_factory(sf_dir)

    def kernel(p, m, meta):
        z = zgrid(meta)
        return rm.rasterize_attributes(p[0], z, ATTR_MAP, n_attrs=2), m

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f8")

    def stats(a):
        return (float(a[0].sum()), float(a[1].sum()), float(a[2].sum()))

    return _exact_stats(out, stats, [("sum_v", pa.float64()),
                                     ("sum_a1", pa.float64()),
                                     ("sum_a2", pa.float64())])


def rasterize_attributes_exact_oracle_sql(sf: float = 0.01) -> str:
    a1 = f"CASE {_ZONE_SQL} WHEN 1 THEN 5.0 WHEN 2 THEN 7.0 ELSE 0.0 END"
    a2 = f"CASE {_ZONE_SQL} WHEN 1 THEN 50.0 WHEN 2 THEN 70.0 ELSE 0.0 END"
    return f"""
WITH {_epoch0_cte(sf)}
SELECT tile_id, SUM({_B0}) AS sum_v, SUM({a1}) AS sum_a1, SUM({a2}) AS sum_a2
FROM px GROUP BY tile_id ORDER BY tile_id
"""


# ------------------------------------------------- aesthetic renders

def q_hexagon_exact(sf_dir: str) -> pd.DataFrame:
    """HexagonPixels offset-block mean render: block pixel counts are 32 or
    64 (powers of two), so every block mean is exact and so are the tile
    sums of the rendered raster."""
    from .functions import focal as fc
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)

    def kernel(p, m, meta):
        return fc.hexagon_pixels(p[0], 8), m

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f8")

    def stats(a):
        return (float(a.min()), float(a.max()), float(a.sum()))

    return _exact_stats(out, stats, [("h_min", pa.float64()),
                                     ("h_max", pa.float64()),
                                     ("h_sum", pa.float64())])


def hexagon_exact_oracle_sql(sf: float = 0.01) -> str:
    p = synth.params_for(sf)
    T = p.tile_px
    # the second (offset) pass overwrites the first: block key is
    # row-band (tile-local r // 8) × offset column band ((c + 4) // 8)
    return f"""
WITH {_epoch0_cte(sf)},
blk AS (
  SELECT tile_id, (gr % {T}) // 8 AS br, ((gc % {T}) + 4) // 8 AS bc,
         AVG({_B0}) AS v, COUNT(*) AS cnt
  FROM px GROUP BY tile_id, br, bc
)
SELECT tile_id, MIN(v) AS h_min, MAX(v) AS h_max, SUM(v * cnt) AS h_sum
FROM blk GROUP BY tile_id ORDER BY tile_id
"""


def q_chuck_close_exact(sf_dir: str) -> pd.DataFrame:
    """BasicChuckClose block-mean → 8-tone quantize → expand render; the
    quantize chain ((v−lo)/span·7.999, floor) is mirrored op-for-op."""
    from .functions import focal as fc
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)

    def kernel(p, m, meta):
        dem = p[0].astype(np.float64)
        blocks = fc.block_statistics(dem, m, 8, "mean")
        lo, hi = float(np.nanmin(blocks)), float(np.nanmax(blocks))
        span = (hi - lo) or 1.0
        classed = np.floor((blocks - lo) / span * 7.999)
        full = np.repeat(np.repeat(classed, 8, axis=0), 8, axis=1)
        return full, m

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="u1")

    def stats(a):
        return (int(a.min()), int(a.max()), int(a.astype(np.int64).sum()))

    return _exact_stats(out, stats, [("c_min", pa.int64()),
                                     ("c_max", pa.int64()),
                                     ("c_sum", pa.int64())])


def chuck_close_exact_oracle_sql(sf: float = 0.01) -> str:
    return f"""
WITH {_epoch0_cte(sf)},
blk AS (
  SELECT tile_id, gr // 8 AS br, gc // 8 AS bc, AVG({_B0}) AS v
  FROM px GROUP BY tile_id, br, bc
), rng AS (
  SELECT tile_id, br, bc, v,
         MIN(v) OVER (PARTITION BY tile_id) AS lo,
         MAX(v) OVER (PARTITION BY tile_id) AS hi
  FROM blk
), cl AS (
  SELECT tile_id,
         CAST(FLOOR((v - lo) / (CASE WHEN hi - lo = 0.0 THEN 1.0
                                     ELSE hi - lo END) * 7.999) AS BIGINT) AS c
  FROM rng
)
SELECT tile_id, MIN(c) AS c_min, MAX(c) AS c_max,
       CAST(SUM(c) * 64 AS BIGINT) AS c_sum
FROM cl GROUP BY tile_id ORDER BY tile_id
"""


TF_RANGES = (0.0, 600.0, 600.0, 800.0, 800.0, 1000.0, 1000.0, 1e9)
TF_VALUES = (10.0, 20.0, 30.0, 40.0)
TF_LABELS = {10: "lowland", 20: "upland", 30: "montane", 40: "alpine"}


def q_table_function_exact(sf_dir: str) -> pd.DataFrame:
    """TableFunction: Remap elevation classes joined to a broadcast
    category-label table; per-(tile, label) pixel counts."""
    import ray

    from .functions import remap as rm

    tiles = _read_analytic(sf_dir, epoch=0)
    cref = ray.put((TF_LABELS, list(TF_RANGES), list(TF_VALUES)))

    def kernel_batch(b: pa.Table) -> pd.DataFrame:
        catmap, rngs, vals = ray.get(cref)
        recs = []
        tid = b["tile_id"].to_pylist()
        for i, pix, msk in tilecodec.iter_tiles(b):
            dem = pix if pix.ndim == 2 else pix[0]
            classes = rm.remap(dem, rngs, vals, default=0)
            uv, cnt = np.unique(classes[~np.isnan(classes)].astype(np.int64),
                                return_counts=True)
            for v, c in zip(uv, cnt):
                recs.append((tid[i], catmap.get(int(v), "other"), int(c)))
        return pd.DataFrame(recs, columns=["tile_id", "label", "n_px"])

    out = tiles.map_batches(kernel_batch, batch_format="pyarrow", batch_size=32)
    return (out.to_pandas().sort_values(["tile_id", "label"])
            .reset_index(drop=True))


def table_function_exact_oracle_sql(sf: float = 0.01) -> str:
    pairs = list(zip(TF_RANGES[0::2], TF_RANGES[1::2], TF_VALUES))
    case = "CASE " + " ".join(
        f"WHEN {_B0} >= {lo} AND {_B0} < {hi} THEN '{TF_LABELS[int(v)]}'"
        for lo, hi, v in pairs) + " ELSE 'other' END"
    return f"""
WITH {_epoch0_cte(sf)}
SELECT tile_id, {case} AS label, CAST(COUNT(*) AS BIGINT) AS n_px
FROM px GROUP BY tile_id, label ORDER BY tile_id, label
"""


# ------------------------------------------ chain / forecast / expr gates

def q_vineyard_exact(sf_dir: str) -> pd.DataFrame:
    """VineyardAnalysis diamond DAG (one DEM → slope% + aspect + elevation
    → 0–3 suitability) through the real halo, gated as a per-tile class
    histogram.  Slope leg is pure IEEE; the aspect>0 arm is exact
    (atan2(0, +x) = 0 in every implementation) and the <200° arm shares
    the aspect-classification ulp argument of q_aspect_slope_exact."""
    from .functions import focal as fc
    from .functions import pointwise as pw
    from .stages import halo, tile_map

    padded = halo.with_halo_from_parquet(
        _analytic_path(sf_dir), padding=1, bands=2,
        scene_ids=[s * 10 for s in range(synth.A_SCENES)])

    def kernel(p, m, meta):
        dem = p[0] if p.ndim == 3 else p
        cs = meta["cell_size"]
        dxc = fc.convolve3x3(dem, fc.ASPECT_X) / 8.0
        dyc = fc.convolve3x3(dem, fc.ASPECT_Y) / 8.0
        slope_pct = np.sqrt((dxc / cs[0]) ** 2 + (dyc / cs[1]) ** 2) * 100.0
        aspect = (57.29578 * np.arctan2(dxc, -dyc)) % 360.0
        out = pw.vineyard_analysis(dem[1:-1, 1:-1], slope_pct[1:-1, 1:-1],
                                   aspect[1:-1, 1:-1])
        return out, fc.erode_mask_3x3(m)

    out = tile_map.apply_kernel(padded, kernel, out_pixel_type="u1")

    def finish(b: pa.Table) -> pa.Table:
        ids, cls, cnt = [], [], []
        for i in range(b.num_rows):
            arr = tilecodec.decode(b["pixels"][i].as_buffer(), "u1", 1,
                                   b["height"][i].as_py(), b["width"][i].as_py())
            v, c = np.unique(arr, return_counts=True)
            ids += [b["tile_id"][i].as_py()] * v.size
            cls += [int(x) for x in v]
            cnt += [int(x) for x in c]
        return pa.table({"tile_id": pa.array(ids, pa.string()),
                         "suitability": pa.array(cls, pa.int64()),
                         "n": pa.array(cnt, pa.int64())})

    df = out.map_batches(finish, batch_format="pyarrow", batch_size=32).to_pandas()
    return df.sort_values(["tile_id", "suitability"]).reset_index(drop=True)


def vineyard_exact_oracle_sql(sf: float = 0.01) -> str:
    p = synth.params_for(sf)
    n = p.tiles_per_side * p.tile_px
    clamp = lambda ex: f"GREATEST(0, LEAST({n - 1}, {ex}))"  # noqa: E731
    E = lambda dr, dc: _b0_sql(gr=clamp(f"gr + {dr}"), gc=clamp(f"gc + {dc}"))  # noqa: E731
    dx8 = (f"(({E(-1,-1)} - {E(-1,1)}) + 2.0*({E(0,-1)} - {E(0,1)})"
           f" + ({E(1,-1)} - {E(1,1)}))")
    dy8 = (f"(({E(-1,-1)} + 2.0*{E(-1,0)} + {E(-1,1)})"
           f" - ({E(1,-1)} + 2.0*{E(1,0)} + {E(1,1)}))")
    # np.mod keeps [0, 360): ((x % 360) + 360) % 360
    return f"""
WITH {_epoch0_cte(sf)},
g AS (
  SELECT tile_id, {_B0} AS elev, {dx8} / 8.0 AS dxm, {dy8} / 8.0 AS dym FROM px
), d AS (
  SELECT tile_id, elev,
         SQRT((dxm/30.0)*(dxm/30.0) + (dym/30.0)*(dym/30.0)) * 100.0 AS slope_pct,
         (((57.29578 * atan2(dxm, -dym)) % 360.0) + 360.0) % 360.0 AS aspect
  FROM g
), s AS (
  SELECT tile_id,
         (CASE WHEN CAST(elev AS FLOAT) > 30 AND CAST(elev AS FLOAT) < 400
               THEN 1 ELSE 0 END)
         + (CASE WHEN CAST(slope_pct AS FLOAT) > 5 AND CAST(slope_pct AS FLOAT) < 60
                 THEN 1 ELSE 0 END)
         + (CASE WHEN CAST(aspect AS FLOAT) > 0 AND CAST(aspect AS FLOAT) < 200
                 THEN 1 ELSE 0 END) AS suit
  FROM d
)
SELECT tile_id, CAST(suit AS BIGINT) AS suitability, CAST(COUNT(*) AS BIGINT) AS n
FROM s GROUP BY tile_id, suitability ORDER BY tile_id, suitability
"""


def q_seasonal_forecast_exact(sf_dir: str) -> pd.DataFrame:
    """Seasonal-naive forecast (the SARIMAX stand-in's plumbing gate):
    season=3 over 3 acq_ts-ordered epochs → horizon-1 forecast = the
    same-phase (earliest) observation, computed on an 8× pixel subsample
    and expanded — proving the ordered-group + subsample wiring exactly."""
    from .functions import stack as st
    from .stages import composite

    def reduce_fn(stack, masks, g):
        series = stack[:, 0, ::8, ::8].astype(np.float64)
        out = st.seasonal_naive_forecast_grid(series, season=3, horizon=1)[0]
        full = np.repeat(np.repeat(out, 8, axis=0), 8, axis=1)
        return full, np.ones(full.shape, np.uint8)

    out = composite.stack_reduce_from_parquet(
        _analytic_path(sf_dir), reduce_fn, out_pixel_type="f8", bands=2)

    def stats(a):
        return (float(a.min()), float(a.max()), float(a.sum()))

    return _exact_stats(out, stats, [("f_min", pa.float64()),
                                     ("f_max", pa.float64()),
                                     ("f_sum", pa.float64())])


def seasonal_forecast_exact_oracle_sql(sf: float = 0.01) -> str:
    p = synth.params_for(sf)
    T = p.tile_px
    # forecast = epoch-0 value at the 8×-subsampled coordinate
    b0_sub = _b0_sql(e="0",
                     gr=f"(gr // {T}) * {T} + (((gr % {T}) // 8) * 8)",
                     gc=f"(gc // {T}) * {T} + (((gc % {T}) // 8) * 8)")
    return f"""
WITH {_epoch0_cte(sf)},
v AS (SELECT comp_id AS tile_id, {b0_sub} AS sv FROM px)
SELECT tile_id, MIN(sv) AS f_min, MAX(sv) AS f_max, SUM(sv) AS f_sum
FROM v GROUP BY tile_id ORDER BY tile_id
"""


TRI_EXPR_THRESH = 8.0


def q_tri_expr_exact(sf_dir: str) -> pd.DataFrame:
    """The TRI template through the EXPRESSION LAYER (RasterCalculator
    parser + padding inference + Focal_* built-ins — functions/expr.py),
    not the direct focal calls of analytic.q_focal_tri_exact; f4 output
    cast mirrored with a final CAST AS FLOAT."""
    from .functions.expr import terrain_ruggedness_expression
    from .functions.focal import erode_mask_3x3
    from .pipelines.chain import Op, build_chain

    expr = terrain_ruggedness_expression()

    def kernel(p, m, meta):
        dem = p[0] if p.ndim == 3 else p
        out = expr.evaluate({"DEM": dem})
        return out, erode_mask_3x3(m) if expr.padding_required == 1 else m

    tiles = _read_analytic(sf_dir, epoch=0)
    out = build_chain(tiles, [Op("tri", kernel, padding=expr.padding_required,
                                 out_pixel_type="f4")],
                      tiles_path=_analytic_path(sf_dir), bands=2,
                      scene_ids=[s * 10 for s in range(synth.A_SCENES)])

    def stats(a):
        arr = (a[0] if a.ndim == 3 else a).astype(np.float64)
        return (float(arr.min()), float(arr.max()),
                int((arr > TRI_EXPR_THRESH).sum()))

    return _exact_stats(out, stats, [("tri_min", pa.float64()),
                                     ("tri_max", pa.float64()),
                                     ("n_above", pa.int64())])


def tri_expr_exact_oracle_sql(sf: float = 0.01) -> str:
    p = synth.params_for(sf)
    n = p.tiles_per_side * p.tile_px
    clamp = lambda ex: f"GREATEST(0, LEAST({n - 1}, {ex}))"  # noqa: E731
    nine = [
        _b0_sql(gr=clamp(f"gr + {dr}"), gc=clamp(f"gc + {dc}"))
        for dr in (-1, 0, 1) for dc in (-1, 0, 1)
    ]
    fmin = "LEAST(" + ", ".join(nine) + ")"
    fmax = "GREATEST(" + ", ".join(nine) + ")"
    tri = f"CAST(SQRT(ABS({fmax}*{fmax} - {fmin}*{fmin})) AS FLOAT)"
    return f"""
WITH {_epoch0_cte(sf)},
f AS (SELECT tile_id, {tri} AS tri FROM px)
SELECT tile_id, CAST(MIN(tri) AS DOUBLE) AS tri_min,
       CAST(MAX(tri) AS DOUBLE) AS tri_max,
       CAST(COUNT(*) FILTER (tri > {TRI_EXPR_THRESH}) AS BIGINT) AS n_above
FROM f GROUP BY tile_id ORDER BY tile_id
"""


STRETCH2_IN = (200.0, 2500.0)
STRETCH2_OUT = (10.0, 250.0)


def q_stretch_range_exact(sf_dir: str) -> pd.DataFrame:
    """StretchFunction with a non-default output range (out_min=10,
    out_max=250) — exercises the out_min/out_max arms analytic.q_stretch_exact
    leaves at their defaults; every op correctly-rounded IEEE."""
    from .functions import remap as rm
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)
    (lo, hi), (olo, ohi) = STRETCH2_IN, STRETCH2_OUT

    def kernel(p, m, meta):
        return rm.stretch_minmax(p[0], lo, hi, olo, ohi), m

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f8")

    def stats(a):
        return (float(a.min()), float(a.max()), int((a > 128.0).sum()))

    return _exact_stats(out, stats, [("s_min", pa.float64()),
                                     ("s_max", pa.float64()),
                                     ("n_above", pa.int64())])


def stretch_range_exact_oracle_sql(sf: float = 0.01) -> str:
    (lo, hi), (olo, ohi) = STRETCH2_IN, STRETCH2_OUT
    sv = (f"LEAST(GREATEST(({_B0} - {lo}) / ({hi} - {lo}), 0.0), 1.0)"
          f" * ({ohi} - {olo}) + {olo}")
    return f"""
WITH {_epoch0_cte(sf)}
SELECT tile_id, MIN({sv}) AS s_min, MAX({sv}) AS s_max,
       CAST(COUNT(*) FILTER ({sv} > 128.0) AS BIGINT) AS n_above
FROM px GROUP BY tile_id ORDER BY tile_id
"""


RMND_FILL = -5.0


def q_remove_nodata_exact(sf_dir: str) -> pd.DataFrame:
    """RemoveNoData (Con∘IsNull) with an analytically-derived NoData mask
    (invalid ⟺ band1 ≡ 0 mod 7 — the analytic stand-in for the noise
    world's NoData holes): masked pixels become {RMND_FILL}, the output
    mask goes all-valid, per-tile stats + fill count."""
    from .functions import pointwise as pw
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)

    def kernel(p, m, meta):
        mask = (p[1].astype(np.int64) % 7 != 0).astype(np.uint8)
        return pw.remove_nodata(p[0], mask, RMND_FILL)

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f8")

    def stats(a):
        return (float(a.min()), float(a.max()), float(a.sum()),
                int((a == RMND_FILL).sum()))

    return _exact_stats(out, stats, [("v_min", pa.float64()),
                                     ("v_max", pa.float64()),
                                     ("v_sum", pa.float64()),
                                     ("n_filled", pa.int64())])


def remove_nodata_exact_oracle_sql(sf: float = 0.01) -> str:
    v = (f"CASE WHEN CAST({_B1} AS BIGINT) % 7 = 0 THEN {RMND_FILL}"
         f" ELSE {_B0} END")
    return f"""
WITH {_epoch0_cte(sf)},
v AS (SELECT tile_id, {v} AS sv FROM px)
SELECT tile_id, MIN(sv) AS v_min, MAX(sv) AS v_max, SUM(sv) AS v_sum,
       CAST(COUNT(*) FILTER (sv = {RMND_FILL}) AS BIGINT) AS n_filled
FROM v GROUP BY tile_id ORDER BY tile_id
"""


def q_hillshade_exact(sf_dir: str) -> pd.DataFrame:
    """Hillshade through the real parquet halo — SQL-exact: the kernel's
    only transcendentals are SCALAR illumination constants (sin/cos of the
    fixed zenith/azimuth, computed once in Python and inlined as the same
    double literals into the oracle); the per-pixel math is integer Sobel
    sums × a shared scalar, multiply/add/sqrt/divide/clip — all
    correctly-rounded IEEE, identical in DuckDB.  (The noise-world
    hillshade queries stay as the halo-lowering gates; this pins the
    kernel itself to value-hash parity.)"""
    from .functions import focal as fc
    from .stages import halo, tile_map

    padded = halo.with_halo_from_parquet(
        _analytic_path(sf_dir), padding=1, bands=2,
        scene_ids=[s * 10 for s in range(synth.A_SCENES)])

    def kernel(p, m, meta):
        band = p[0] if p.ndim == 3 else p
        return fc.hillshade(band, m, meta["cell_size"])

    out = tile_map.apply_kernel(padded, kernel, out_pixel_type="f8")

    def stats(a):
        return (float(a.min()), float(a.max()), int((a > 128.0).sum()))

    return _exact_stats(out, stats, [("h_min", pa.float64()),
                                     ("h_max", pa.float64()),
                                     ("n_bright", pa.int64())])


def hillshade_exact_oracle_sql(sf: float = 0.01) -> str:
    import math

    # the kernel's scalar constants, computed with the IDENTICAL Python ops
    # (functions/focal.py:76-82) and inlined as double literals
    z_factor, ce, cf, azimuth, elevation = 1.0, 0.664, 0.024, 315.0, 45.0
    Z = (90.0 - elevation) * math.pi / 180.0
    A = (90.0 - azimuth) * math.pi / 180.0
    sinZ, cosZ = math.sin(Z), math.cos(Z)
    sinZsinA, sinZcosA = sinZ * math.sin(A), sinZ * math.cos(A)
    pcell = np.multiply([30.0, 30.0], 1.0)
    xs, ys = (z_factor + (np.power(pcell, ce) * cf)) / (8 * pcell)

    p = synth.params_for(sf)
    n = p.tiles_per_side * p.tile_px
    clamp = lambda ex: f"GREATEST(0, LEAST({n - 1}, {ex}))"  # noqa: E731
    E = lambda dr, dc: _b0_sql(gr=clamp(f"gr + {dr}"), gc=clamp(f"gc + {dc}"))  # noqa: E731
    # convolution coefficient of neighbour (dr,dc) is K[1-dr, 1-dc]
    sx = (f"((({E(-1,1)} - {E(-1,-1)}) + 2.0*({E(0,1)} - {E(0,-1)})"
          f" + ({E(1,1)} - {E(1,-1)})))")
    sy = (f"((({E(1,-1)} + 2.0*{E(1,0)} + {E(1,1)})"
          f" - ({E(-1,-1)} + 2.0*{E(-1,0)} + {E(-1,1)})))")
    shade = (f"LEAST(GREATEST(255.0 * (({_dlit(cosZ)} + (dy * {_dlit(sinZsinA)}))"
             f" - (dx * {_dlit(sinZcosA)}))"
             f" / SQRT(1.0 + ((dx * dx) + (dy * dy))), 0.0), 255.0)")
    return f"""
WITH {_epoch0_cte(sf)},
g AS (
  SELECT tile_id, {sx} * {_dlit(xs)} AS dx, {sy} * {_dlit(ys)} AS dy
  FROM px
), h AS (SELECT tile_id, {shade} AS shade FROM g)
SELECT tile_id, MIN(shade) AS h_min, MAX(shade) AS h_max,
       CAST(COUNT(*) FILTER (shade > 128.0) AS BIGINT) AS n_bright
FROM h GROUP BY tile_id ORDER BY tile_id
"""


def q_multidirectional_hillshade_exact(sf_dir: str) -> pd.DataFrame:
    """MultidirectionalHillshade through the real parquet halo — SQL-exact:
    the kernel's per-pixel weight is the ALGEBRAIC identity
    sin²(aspect−θ) = (dyr·cosθ + dxr·sinθ)²/(dxr²+dyr²) (focal.py), so the
    only transcendentals are the scalar trig of the four fixed azimuths,
    inlined as double literals; the per-pixel blend is mul/add/div/sqrt/
    clip — all correctly-rounded IEEE, identical in DuckDB."""
    from .functions import focal as fc
    from .stages import halo, tile_map

    padded = halo.with_halo_from_parquet(
        _analytic_path(sf_dir), padding=1, bands=2,
        scene_ids=[s * 10 for s in range(synth.A_SCENES)])

    def kernel(p, m, meta):
        band = p[0] if p.ndim == 3 else p
        return fc.multidirectional_hillshade(band, m, meta["cell_size"])

    out = tile_map.apply_kernel(padded, kernel, out_pixel_type="f8")

    def stats(a):
        return (float(a.min()), float(a.max()), int((a > 128.0).sum()))

    return _exact_stats(out, stats, [("h_min", pa.float64()),
                                     ("h_max", pa.float64()),
                                     ("n_bright", pa.int64())])


def multidirectional_hillshade_exact_oracle_sql(sf: float = 0.01) -> str:
    import math

    # the kernel's scalar constants, computed with the IDENTICAL Python
    # ops (functions/focal.py multidirectional_hillshade) and inlined
    z_factor, elevation = 1.0, 60.0
    Z = (90.0 - elevation) * math.pi / 180.0
    sinZ, cosZ = math.sin(Z), math.cos(Z)
    pcell = np.multiply([30.0, 30.0], 1.0)
    xs, ys = (z_factor + (np.power(pcell, 0.664) * 0.024)) / (8 * pcell)

    p = synth.params_for(sf)
    n = p.tiles_per_side * p.tile_px
    clamp = lambda ex: f"GREATEST(0, LEAST({n - 1}, {ex}))"  # noqa: E731
    E = lambda dr, dc: _b0_sql(gr=clamp(f"gr + {dr}"), gc=clamp(f"gc + {dc}"))  # noqa: E731
    sx = (f"((({E(-1,1)} - {E(-1,-1)}) + 2.0*({E(0,1)} - {E(0,-1)})"
          f" + ({E(1,1)} - {E(1,-1)})))")
    sy = (f"((({E(1,-1)} + 2.0*{E(1,0)} + {E(1,1)})"
          f" - ({E(-1,-1)} + 2.0*{E(-1,0)} + {E(-1,1)})))")

    num_terms, den_terms = [], []
    for az in (225.0, 270.0, 315.0, 360.0):
        A = (90.0 - az) * math.pi / 180.0
        sinZsinA, sinZcosA = sinZ * math.sin(A), sinZ * math.cos(A)
        cosT = math.cos(math.radians(az))
        sinT = math.sin(math.radians(az))
        wn = f"((syr * {_dlit(cosT)}) + (sxr * {_dlit(sinT)}))"
        w = (f"(CASE WHEN r2 = 0.0 THEN {_dlit(sinT * sinT)}"
             f" ELSE ({wn} * {wn}) / r2 END)")
        shade = (f"LEAST(GREATEST(255.0 * (({_dlit(cosZ)}"
                 f" + (dyv * {_dlit(sinZsinA)}))"
                 f" - (dxv * {_dlit(sinZcosA)})) / rad, 0.0), 255.0)")
        num_terms.append(f"{w} * {shade}")
        den_terms.append(w)
    num = " + ".join(num_terms)
    den = " + ".join(den_terms)
    blend = (f"LEAST(GREATEST(({num}) / (CASE WHEN ({den}) = 0.0 THEN 1.0"
             f" ELSE ({den}) END), 0.0), 255.0)")
    return f"""
WITH {_epoch0_cte(sf)},
g AS (
  SELECT tile_id, {sx} AS sxr, {sy} AS syr FROM px
), g2 AS (
  SELECT tile_id, sxr, syr,
         sxr * {_dlit(xs)} AS dxv, syr * {_dlit(ys)} AS dyv,
         (sxr * sxr) + (syr * syr) AS r2
  FROM g
), g3 AS (
  SELECT tile_id, sxr, syr, dxv, dyv, r2,
         SQRT(1.0 + ((dxv * dxv) + (dyv * dyv))) AS rad
  FROM g2
), h AS (SELECT tile_id, {blend} AS shade FROM g3)
SELECT tile_id, MIN(shade) AS h_min, MAX(shade) AS h_max,
       CAST(COUNT(*) FILTER (shade > 128.0) AS BIGINT) AS n_bright
FROM h GROUP BY tile_id ORDER BY tile_id
"""


# ------------------------------------ TopographicCCorrection (two-phase)

# The noise-world q_topographic_c stays the production gate for the trig
# kernel (rows-only: per-pixel arctan/cos are not SQL-pinnable).  This
# exact gate pins the DISTRIBUTED PLAN — per-tile partial regression
# moments through the real parquet halo, Sum-combined per scene, C = b/m
# on the driver (functions/TopographicCCorrection.py:88-154 two-phase
# shape) — with an identity-form cos(i) kernel:
#     cos(i) = (cosZ·cell + sinZ·sinA·dx − sinZ·cosA·dy) / √(cell²+dx²+dy²)
# (slope/aspect trig eliminated algebraically: cos(atan(r/cell)) = cell/h,
# the √(dx²+dy²) factors cancel).  Scalar transcendentals fold into three
# double literals (the hillshade discipline); dx, dy are exact dyadic
# rationals on the integer-affine surface; cos(i) is quantized
# floor(·2^20 + .5) so the regression moments are INTEGERS and every sum
# is order-free.  tests/test_raster_pipelines.py asserts the identity
# form tracks the production trig kernel.

TCX_Q = float(1 << 20)
_TCX_AZ, _TCX_EL = 315.0, 45.0


def _tcx_consts() -> tuple[float, float, float, float]:
    sz = np.deg2rad(90.0 - _TCX_EL)
    sa = np.deg2rad(_TCX_AZ)
    cell = 30.0
    # k0c folds cosZ·cell; k1/k2 multiply dx/dy; cell2 the radicand const
    return (float(np.cos(sz) * cell), float(np.sin(sz) * np.sin(sa)),
            float(-np.sin(sz) * np.cos(sa)), float(cell * cell))


def tcx_cos_incidence_quantized(dem_padded: np.ndarray) -> np.ndarray:
    """Identity-form cos(i) over a 1-padded DEM, quantized to int64.
    Shared by the engine kernel and the parity test."""
    from .functions import focal as fc

    k0c, k1, k2, cell2 = _tcx_consts()
    dx = fc.convolve3x3(dem_padded, fc.ASPECT_X) / 8.0
    dy = fc.convolve3x3(dem_padded, fc.ASPECT_Y) / 8.0
    dx, dy = dx[1:-1, 1:-1], dy[1:-1, 1:-1]
    num = (k0c + k1 * dx) + k2 * dy
    den = np.sqrt(cell2 + ((dx * dx) + (dy * dy)))
    ci = num / den
    return np.floor(ci * TCX_Q + 0.5).astype(np.int64), dx, dy


def q_topographic_c_exact(sf_dir: str) -> pd.DataFrame:
    """Per-scene C factor over the epoch-0 analytic scenes; same plan as
    q_topographic_c (per-tile integer moments → groupby(scene) Sum →
    driver C formula), SQL-exact end to end."""
    from ray.data.aggregate import Sum

    from .stages import halo

    padded = halo.with_halo_from_parquet(
        _analytic_path(sf_dir), padding=1, bands=2,
        scene_ids=[s * 10 for s in range(synth.A_SCENES)])

    def moments(b: pa.Table) -> pd.DataFrame:
        recs = []
        sids = b["scene_id"].to_pylist()
        pads = b["padding"].to_pylist()
        hh = b["height"].to_pylist()
        ww = b["width"].to_pylist()
        pts = b["pixel_type"].to_pylist()
        bcs = b["band_count"].to_pylist()
        for i in range(b.num_rows):
            p2 = 2 * int(pads[i])
            pix = tilecodec.decode(b["pixels"][i].as_buffer(), pts[i],
                                   int(bcs[i]), int(hh[i]) + p2,
                                   int(ww[i]) + p2)
            dem = pix[0] if pix.ndim == 3 else pix
            ciq, _, _ = tcx_cos_incidence_quantized(dem)
            # y = dem² — the affine surface is point-symmetric per scene,
            # which makes cov(ciq, dem) EXACTLY zero (ciq is symmetric,
            # dem deviations are antisymmetric); squaring injects the even
            # component the regression needs while staying integer-exact
            y0 = dem[1:-1, 1:-1].astype(np.int64)
            y = y0 * y0
            recs.append((int(sids[i]), ciq.size, int(ciq.sum()),
                         int(y.sum()), int((ciq * ciq).sum()),
                         int((ciq * y).sum())))
        return pd.DataFrame(recs, columns=["scene_id", "n", "sx", "sy",
                                           "sxx", "sxy"])

    agg = (padded.map_batches(moments, batch_format="pyarrow", batch_size=16)
           .groupby("scene_id")
           .aggregate(Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
                      Sum("sy", alias_name="sy"), Sum("sxx", alias_name="sxx"),
                      Sum("sxy", alias_name="sxy"))
           .to_pandas())
    # the SQL expression tree, verbatim: every operand converts int→double
    # identically on both sides, every op is one IEEE instruction
    n = agg["n"].to_numpy(np.float64)
    sx = agg["sx"].to_numpy(np.int64).astype(np.float64)
    sy = agg["sy"].to_numpy(np.int64).astype(np.float64)
    sxx = agg["sxx"].to_numpy(np.int64).astype(np.float64)
    sxy = agg["sxy"].to_numpy(np.int64).astype(np.float64)
    denom = sxx - (sx * sx) / n
    slope = (sxy - (sx * sy) / n) / denom
    intercept = sy / n - slope * (sx / n)
    c = intercept / slope
    out = pd.DataFrame({"scene_id": agg["scene_id"].to_numpy(np.int64),
                        "c_factor": np.floor(c * 1e6 + 0.5) / 1e6})
    return out.sort_values("scene_id").reset_index(drop=True)


def topographic_c_exact_oracle_sql(sf: float = 0.01) -> str:
    k0c, k1, k2, cell2 = _tcx_consts()

    p = synth.params_for(sf)
    n = p.tiles_per_side * p.tile_px
    clamp = lambda ex: f"GREATEST(0, LEAST({n - 1}, {ex}))"  # noqa: E731
    E = lambda dr, dc: _b0_sql(gr=clamp(f"gr + {dr}"), gc=clamp(f"gc + {dc}"))  # noqa: E731
    # convolution coefficient of neighbour (dr,dc) is K[1-dr,1-dc];
    # K = ASPECT_X = -SOBEL_X → east-minus-west NEGATED, ditto ASPECT_Y
    cx = (f"((({E(-1,-1)} - {E(-1,1)}) + 2.0*({E(0,-1)} - {E(0,1)})"
          f" + ({E(1,-1)} - {E(1,1)})))")
    cy = (f"((({E(-1,-1)} + 2.0*{E(-1,0)} + {E(-1,1)})"
          f" - ({E(1,-1)} + 2.0*{E(1,0)} + {E(1,1)})))")
    ci = (f"((({_dlit(k0c)} + {_dlit(k1)} * dx) + {_dlit(k2)} * dy)"
          f" / SQRT({_dlit(cell2)} + ((dx * dx) + (dy * dy))))")
    return f"""
WITH {_epoch0_cte(sf)},
g AS (
  SELECT s, {_B0} AS y0, {cx} / 8.0 AS dx, {cy} / 8.0 AS dy FROM px
), q AS (
  SELECT s, CAST(y0 AS BIGINT) * CAST(y0 AS BIGINT) AS y,
         CAST(floor({ci} * {TCX_Q} + 0.5) AS BIGINT) AS ciq
  FROM g
), m AS (
  SELECT s * 10 AS scene_id, COUNT(*) AS n,
         SUM(ciq) AS sx, SUM(y) AS sy,
         SUM(ciq * ciq) AS sxx, SUM(ciq * y) AS sxy
  FROM q GROUP BY s
)
SELECT scene_id,
       floor(((CAST(sy AS DOUBLE) / n
               - ((CAST(sxy AS DOUBLE) - (CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE)) / n)
                  / (CAST(sxx AS DOUBLE) - (CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) / n))
                 * (CAST(sx AS DOUBLE) / n))
              / ((CAST(sxy AS DOUBLE) - (CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE)) / n)
                 / (CAST(sxx AS DOUBLE) - (CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) / n)))
             * 1e6 + 0.5) / 1e6 AS c_factor
FROM m ORDER BY scene_id
"""


# ------------------------------------ LinearSpectralUnmixing (normal form)

# The noise-world q_lsu_stats stays the production gate for the lstsq
# kernel (rows-only: LAPACK's SVD path is not SQL-pinnable).  This exact
# gate pins the unmixing APPLICATION — per-pixel abundance = G·y where
# G = (AᵀA)⁻¹Aᵀ is the normal-equations pseudoinverse of the endmember
# matrix, computed ONCE in Python and inlined as double literals on both
# sides (the LSH-hyperplane/CART-literal discipline).  The 3-band feature
# vector [b0, b1, b0·b1] is full-rank on the analytic surface (the
# product term escapes the affine span), abundances are quantized
# floor(·2^20 + .5) so per-tile sums are order-free integers.
# tests/test_raster_pipelines.py asserts G·y tracks np.linalg.lstsq.

LSUX_Q = float(1 << 20)
# two endmember signatures over the [b0, b1, b0·b1] feature bands
LSUX_A = np.array([[1.0, 0.2],
                   [0.3, 1.0],
                   [0.5, 0.4]], dtype=np.float64)


def _lsux_g() -> np.ndarray:
    """G = (AᵀA)⁻¹Aᵀ — 2×3 double constants shared by engine and oracle."""
    a = LSUX_A
    return np.linalg.inv(a.T @ a) @ a.T


def lsux_abundance_quantized(b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """Normal-form abundances over [b0, b1, b0·b1], quantized to int64.
    Arithmetic order matches the oracle SQL expression exactly."""
    g = _lsux_g()
    y2 = b0 * b1
    out = []
    for j in range(2):
        aj = ((b0 * g[j, 0]) + (b1 * g[j, 1])) + (y2 * g[j, 2])
        out.append(np.floor(aj * LSUX_Q + 0.5).astype(np.int64))
    return np.stack(out)


def q_lsu_exact(sf_dir: str) -> pd.DataFrame:
    """Per-tile abundance sums/extrema through the real tile pipeline."""
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)

    def kernel(p, m, meta):
        q = lsux_abundance_quantized(p[0].astype(np.float64),
                                     p[1].astype(np.float64))
        return q.astype(np.float64), m

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f8")

    def stats(a):
        q0, q1 = a[0].astype(np.int64), a[1].astype(np.int64)
        return (int(q0.sum()), int(q1.sum()), int(q0.min()), int(q0.max()))

    return _exact_stats(out, stats, [("a0_sum", pa.int64()),
                                     ("a1_sum", pa.int64()),
                                     ("a0_min", pa.int64()),
                                     ("a0_max", pa.int64())])


def lsu_exact_oracle_sql(sf: float = 0.01) -> str:
    g = _lsux_g()

    ab = [(f"(((y0 * {_dlit(g[j, 0])}) + (y1 * {_dlit(g[j, 1])}))"
           f" + (y2 * {_dlit(g[j, 2])}))") for j in range(2)]
    q = [f"CAST(floor({a} * {LSUX_Q} + 0.5) AS BIGINT)" for a in ab]
    return f"""
WITH {_epoch0_cte(sf)},
g AS (
  SELECT tile_id, {_B0_E0} AS y0, {_B1_E0} AS y1,
         ({_B0_E0}) * ({_B1_E0}) AS y2
  FROM px
), q AS (
  SELECT tile_id, {q[0]} AS q0, {q[1]} AS q1 FROM g
)
SELECT tile_id,
       CAST(SUM(q0) AS BIGINT) AS a0_sum, CAST(SUM(q1) AS BIGINT) AS a1_sum,
       MIN(q0) AS a0_min, MAX(q0) AS a0_max
FROM q GROUP BY tile_id ORDER BY tile_id
"""


# ------------------------------------ RandomForest (tree-literal form)

# The noise-world q_rf_classify_stats stays the production gate for the
# 6-feature DN-domain classifier.  This exact gate pins the CLASSIFIER
# APPLICATION — the real TileClassifier actor pool (fit once per actor in
# __init__, functions/RandomForestClassifier.py:71-120 semantics) over a
# 3-feature analytic tile — by exporting the deterministically-fitted
# CART forest (seed 43, bootstrap + sqrt-feature subsampling) as nested
# CASE literals, the same discipline as the LSH-hyperplane and
# pseudoinverse literals: Python owns the fit, SQL re-verifies every
# per-pixel tree traversal, vote mean, threshold and float32 cast.

RFX_Q = 1048576.0  # 2^20 — p1 is in [0,1], f4 exact under this scale


def rfx_training() -> pd.DataFrame:
    """64-row deterministic analytic-domain training table (features
    pred_1..3 = [b0, b1, b0·b1] at lattice points picked by the Knuth
    multiplicative hash; labels from a fixed parity rule).  Shared by the
    engine gate and the oracle generator — the fit is Python-side on both,
    only the APPLICATION is re-verified in SQL."""
    idx = np.arange(64, dtype=np.int64)
    h = (idx.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(1 << 32)
    gr = (h % np.uint64(512)).astype(np.float64)
    gc = ((h >> np.uint64(9)) % np.uint64(512)).astype(np.float64)
    s = (idx % 2).astype(np.float64)
    b0 = (100.0 + 10.0 * s) + (2.0 + s) * gc + (1.0 + s) * gr
    b1 = (300.0 + 20.0 * s) + (5.0 + s) * gr + 2.0 * gc
    y = ((idx * 3 + (idx // 7) * 5) % 2).astype(np.int64)
    return pd.DataFrame({"pred_1": b0, "pred_2": b1, "pred_3": b0 * b1,
                         "VarToPredict": y})


def q_rf_exact(sf_dir: str) -> pd.DataFrame:
    """CART-forest classification through the real actor-pool stage."""
    from .stages import tile_map
    from .stages.classify import classify_tiles

    tiles = _read_analytic(sf_dir, epoch=0)

    def feat_kernel(p, m, meta):
        b0, b1 = p[0], p[1]
        return np.stack([b0, b1, b0 * b1]), m

    feats = tile_map.apply_kernel(tiles, feat_kernel, out_pixel_type="f8")
    # force_cart: the oracle exports _CartForest's tree literals, so the
    # engine must use that model regardless of whether sklearn is present
    out = classify_tiles(feats, rfx_training(), model="rf", n_features=3,
                         force_cart=True)

    def stats(a):
        pred, p1 = a[0], a[2]
        q = np.floor(p1.astype(np.float64) * RFX_Q + 0.5).astype(np.int64)
        return (int(pred.sum()), int(q.sum()), int(q.min()), int(q.max()))

    return _exact_stats(out, stats, [("n_pred1", pa.int64()),
                                     ("q1_sum", pa.int64()),
                                     ("q1_min", pa.int64()),
                                     ("q1_max", pa.int64())])


def _rfx_tree_sql(node: dict) -> str:
    if "leaf" in node:
        return _dlit(node["leaf"])
    return (f"CASE WHEN f{node['f']} <= {_dlit(node['thr'])}"
            f" THEN {_rfx_tree_sql(node['l'])}"
            f" ELSE {_rfx_tree_sql(node['r'])} END")


def rf_exact_oracle_sql(sf: float = 0.01) -> str:
    from .stages.classify import _CartForest

    df = rfx_training()
    forest = _CartForest(random_state=43).fit(
        df[["pred_1", "pred_2", "pred_3"]].to_numpy(np.float64),
        df["VarToPredict"].to_numpy(np.float64))
    texprs = [_rfx_tree_sql(t.root) for t in forest.trees]
    tsel = ",\n         ".join(f"{t} AS t{i}" for i, t in enumerate(texprs))
    psum = " + ".join(f"t{i}" for i in range(len(texprs)))
    return f"""
WITH {_epoch0_cte(sf)},
rffeat AS (
  SELECT tile_id, {_B0_E0} AS f0, {_B1_E0} AS f1,
         ({_B0_E0}) * ({_B1_E0}) AS f2
  FROM px
), rft AS (
  SELECT tile_id, {tsel} FROM rffeat
), rfp AS (
  SELECT tile_id, ({psum}) / {float(len(texprs))} AS p1 FROM rft
), rfq AS (
  SELECT tile_id,
         CASE WHEN p1 >= 0.5 THEN 1 ELSE 0 END AS pred,
         CAST(floor(CAST(CAST(p1 AS FLOAT) AS DOUBLE) * {RFX_Q} + 0.5)
              AS BIGINT) AS q1
  FROM rfp
)
SELECT tile_id, CAST(SUM(pred) AS BIGINT) AS n_pred1,
       CAST(SUM(q1) AS BIGINT) AS q1_sum,
       MIN(q1) AS q1_min, MAX(q1) AS q1_max
FROM rfq GROUP BY tile_id ORDER BY tile_id
"""


# ----------------------------------- resumable hillshade (exact resume)

def q_resumable_hillshade_exact(sf_dir: str) -> pd.DataFrame:
    """Resume correctness pinned SQL-exact: the per-scene partitioned
    hillshade runs over the analytic world in TWO passes — pass 1 computes
    only half the scenes (a simulated mid-job failure), pass 2 resumes and
    must skip the finished half via the checkpoint store — and the
    assembled partitioned output is read back and reduced to the SAME
    per-tile stats as ``q_hillshade_exact``, against the SAME oracle.
    Resume therefore has to be bit-identical to a one-shot run to pass."""
    import shutil
    import uuid

    from .functions import focal as fc
    from .stages import halo, tile_map
    from .state.checkpoint import CheckpointStore, input_fingerprint

    path = _analytic_path(sf_dir)
    scene_ids = [s * 10 for s in range(synth.A_SCENES)]
    half = scene_ids[: max(1, len(scene_ids) // 2)]

    def scene_table(sid: int) -> pa.Table:
        padded = halo.with_halo_from_parquet(path, padding=1, bands=2,
                                             scene_ids=[sid])

        def kernel(p, m, meta):
            band = p[0] if p.ndim == 3 else p
            return fc.hillshade(band, m, meta["cell_size"])

        out = tile_map.apply_kernel(padded, kernel, out_pixel_type="f8")
        batches = list(out.iter_batches(batch_size=64, batch_format="pyarrow"))
        return pa.concat_tables(batches)

    root = f"/tmp/rfr_ckpt_exact/{uuid.uuid4().hex[:8]}"
    try:
        from .state.checkpoint import run_partitioned

        store = CheckpointStore(root)
        fp = input_fingerprint([path])
        factory = lambda key: scene_table(int(key.split("=")[1]))  # noqa: E731
        # pass 1: "job dies" after the first half of the scenes
        run_partitioned(factory, [f"scene={s}" for s in half], "hsx",
                        store, input_hash=fp)
        # pass 2: resume over the full scene list — the shared resume
        # runner must skip exactly the finished half
        written = run_partitioned(factory, [f"scene={s}" for s in scene_ids],
                                  "hsx", store, input_hash=fp)
        expect = {f"scene={s}" for s in scene_ids} - {f"scene={s}"
                                                      for s in half}
        if set(written) != expect:
            raise RuntimeError(
                f"resume filter failed: expected to compute {sorted(expect)},"
                f" computed {sorted(written)}")
        # read the assembled partitioned output back and reduce
        parts = [os.path.join(store.partition_dir("hsx", f"scene={s}"),
                              "part.parquet") for s in scene_ids]
        out_ds = rd.read_parquet(parts)

        def stats(a):
            return (float(a.min()), float(a.max()), int((a > 128.0).sum()))

        return _exact_stats(out_ds, stats, [("h_min", pa.float64()),
                                            ("h_max", pa.float64()),
                                            ("n_bright", pa.int64())])
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ------------------------------ NearestNeighbors k-label bands (exact)

# The noise-world q_nn_neighbors_stats stays the production gate for the
# f4-matmul kernel (BLAS summation order is not SQL-pinnable).  This gate
# pins the OPERATOR SHAPE of functions/NearestNeighborsClassifier.py:
# 90-166 — k neighbor LABELS per pixel from a training table held in
# actor state — with integer-exact distances: features are the integer-
# valued analytic triple [b0, b1, b0·b1], d² is int64, and the neighbor
# order (d², train_idx) is deterministic on both sides.

NNX_K = 3
NNX_STRIDE = 8  # pixel subsample, matching the production stage's cost bound


class _NnxLabels:
    """Actor-pool stage: training matrix built once per actor."""

    def __init__(self, train_X: np.ndarray, train_y: np.ndarray):
        self.X = train_X  # (m, 3) int64
        self.y = train_y  # (m,) int64

    def __call__(self, b: pa.Table) -> pd.DataFrame:
        s = NNX_STRIDE
        recs = []
        tid = b["tile_id"].to_pylist()
        for i in range(b.num_rows):
            pix = tilecodec.decode(
                b["pixels"][i].as_buffer(), b["pixel_type"][i].as_py(),
                b["band_count"][i].as_py(), b["height"][i].as_py(),
                b["width"][i].as_py())
            b0 = pix[0][::s, ::s].astype(np.int64)
            b1 = pix[1][::s, ::s].astype(np.int64)
            f = np.stack([b0, b1, b0 * b1], axis=-1).reshape(-1, 3)
            rr, cc = np.meshgrid(np.arange(0, pix.shape[1], s),
                                 np.arange(0, pix.shape[2], s), indexing="ij")
            d2 = ((f[:, None, :] - self.X[None, :, :]) ** 2).sum(-1)
            # neighbor order: (d², train_idx) — np.lexsort is stable
            tidx = np.arange(len(self.X))
            for j in range(f.shape[0]):
                order = np.lexsort((tidx, d2[j]))[:NNX_K]
                recs.append((tid[i], int(rr.ravel()[j]), int(cc.ravel()[j]),
                             *self.y[order].tolist()))
        cols = ["tile_id", "pr", "pc"] + [f"n{k + 1}" for k in range(NNX_K)]
        return pd.DataFrame(recs, columns=cols)


def q_nn_neighbors_exact(sf_dir: str) -> pd.DataFrame:
    df = rfx_training()
    tx = df[["pred_1", "pred_2", "pred_3"]].to_numpy(np.float64)
    train_X = np.floor(tx + 0.5).astype(np.int64)  # integer-valued by construction
    train_y = df["VarToPredict"].to_numpy(np.int64)

    tiles = _read_analytic(sf_dir, epoch=0)
    out = tiles.map_batches(
        _NnxLabels, fn_constructor_kwargs={"train_X": train_X,
                                           "train_y": train_y},
        batch_format="pyarrow", batch_size=16, concurrency=4).to_pandas()
    return (out.sort_values(["tile_id", "pr", "pc"])
            .reset_index(drop=True))


def nn_neighbors_exact_oracle_sql(sf: float = 0.01) -> str:
    p = synth.params_for(sf)
    T = p.tile_px
    df = rfx_training()
    tx = np.floor(df[["pred_1", "pred_2", "pred_3"]].to_numpy(np.float64)
                  + 0.5).astype(np.int64)
    ty_ = df["VarToPredict"].to_numpy(np.int64)
    vals = ", ".join(f"({i}, {tx[i,0]}, {tx[i,1]}, {tx[i,2]}, {ty_[i]})"
                     for i in range(len(tx)))
    arms = ",\n       ".join(
        f"CAST(MAX(CASE WHEN rn = {k + 1} THEN ty END) AS BIGINT) AS n{k + 1}"
        for k in range(NNX_K))
    return f"""
WITH {_epoch0_cte(sf)},
train AS (SELECT * FROM (VALUES {vals}) AS t(tidx, t0, t1, t2, ty)),
feat AS (
  SELECT tile_id, (gr % {T}) AS pr, (gc % {T}) AS pc,
         CAST({_B0_E0} AS BIGINT) AS f0, CAST({_B1_E0} AS BIGINT) AS f1,
         CAST({_B0_E0} AS BIGINT) * CAST({_B1_E0} AS BIGINT) AS f2
  FROM px
  WHERE (gr % {T}) % {NNX_STRIDE} = 0 AND (gc % {T}) % {NNX_STRIDE} = 0
), ranked AS (
  SELECT tile_id, pr, pc, ty,
         ROW_NUMBER() OVER (
             PARTITION BY tile_id, pr, pc
             ORDER BY (f0 - t0) * (f0 - t0) + (f1 - t1) * (f1 - t1)
                    + (f2 - t2) * (f2 - t2), tidx) AS rn
  FROM feat CROSS JOIN train
)
SELECT tile_id, CAST(pr AS BIGINT) AS pr, CAST(pc AS BIGINT) AS pc,
       {arms}
FROM ranked WHERE rn <= {NNX_K}
GROUP BY tile_id, pr, pc ORDER BY tile_id, pr, pc
"""


# ------------------------------------------- .rft.xml template loading

RFT_VINEYARD = "/root/reference/functions/VineyardAnalysis.rft.xml"


def q_rft_vineyard_exact(sf_dir: str) -> pd.DataFrame:
    """The reference user's ACTUAL template file, loaded and run: parse
    functions/VineyardAnalysis.rft.xml (diamond DAG — one Raster variable
    feeds Slope + Aspect built-ins and the elevation input of the Python
    adapter), lower it onto the engine's fused tile kernel
    (pipelines/rft.py), and gate the result against the SAME oracle as
    the hand-built q_vineyard_exact — template loading must be
    bit-identical to native composition to pass."""
    import os as _os

    from .pipelines import rft
    from .stages import halo, tile_map

    if not _os.path.exists(RFT_VINEYARD):
        raise FileNotFoundError(
            f"reference template not available: {RFT_VINEYARD}")
    kernel = rft.template_kernel(rft.parse_rft(RFT_VINEYARD))

    padded = halo.with_halo_from_parquet(
        _analytic_path(sf_dir), padding=1, bands=2,
        scene_ids=[s * 10 for s in range(synth.A_SCENES)])
    out = tile_map.apply_kernel(padded, kernel, out_pixel_type="u1")

    def finish(b: pa.Table) -> pa.Table:
        ids, cls, cnt = [], [], []
        for i in range(b.num_rows):
            arr = tilecodec.decode(b["pixels"][i].as_buffer(), "u1", 1,
                                   b["height"][i].as_py(),
                                   b["width"][i].as_py())
            v, c = np.unique(arr, return_counts=True)
            ids += [b["tile_id"][i].as_py()] * v.size
            cls += [int(x) for x in v]
            cnt += [int(x) for x in c]
        return pa.table({"tile_id": pa.array(ids, pa.string()),
                         "suitability": pa.array(cls, pa.int64()),
                         "n": pa.array(cnt, pa.int64())})

    df = (out.map_batches(finish, batch_format="pyarrow", batch_size=32)
          .to_pandas())
    return df.sort_values(["tile_id", "suitability"]).reset_index(drop=True)


# ------------------------------------------------------ pyramid / overviews

def q_pyramid_build(sf_dir: str) -> pd.DataFrame:
    """Overview-pyramid build (the tiling engine's zoom cascade; the
    reference serves these as the mosaic's overview levels): level-0
    per-tile sum/max/count from the decoded pixels, then every coarser
    level from the PREVIOUS level's tile rows — one tiny groupby per level
    on the parent tile key, never touching pixels again.  The gate proves
    the cascade: the oracle computes every level DIRECTLY from the base
    pixels, so iterative == direct or the hash breaks.

    Exactness: b0 is integer-valued → sums/max/count are order-free.
    Levels run 0..log2(G): scene 0, epoch 0, G×G tiles halving each step.
    """
    from ray.data.aggregate import Count as ACount, Max as AMax, Sum as ASum

    p = synth.params_for(synth.sf_from_dir(sf_dir))
    G = p.tiles_per_side
    ds = _read_analytic(sf_dir, epoch=0)

    def level0(b: pa.Table) -> pa.Table:
        tx_o, ty_o, s_o, m_o, n_o = [], [], [], [], []
        for i in range(b.num_rows):
            sid = b["scene_id"][i].as_py()
            if sid // 10 != 0:
                continue
            meta = {c: b[c][i].as_py() for c in
                    ("pixel_type", "band_count", "height", "width", "tx", "ty")}
            arr = tilecodec.decode(b["pixels"][i].as_buffer(), meta["pixel_type"],
                                   meta["band_count"], meta["height"], meta["width"])
            band = arr[0].astype(np.int64)
            tx_o.append(meta["tx"]); ty_o.append(meta["ty"])
            s_o.append(int(band.sum())); m_o.append(int(band.max()))
            n_o.append(band.size)
        return pa.table({"tx": pa.array(tx_o, pa.int64()),
                         "ty": pa.array(ty_o, pa.int64()),
                         "px_sum": pa.array(s_o, pa.int64()),
                         "px_max": pa.array(m_o, pa.int64()),
                         "n_px": pa.array(n_o, pa.int64())})

    cur = ds.map_batches(level0, batch_format="pyarrow", batch_size=16).materialize()
    frames = []

    def tag(df: pd.DataFrame, lvl: int) -> pd.DataFrame:
        df = df.copy(); df.insert(0, "level", np.int64(lvl)); return df

    frames.append(tag(cur.to_pandas(), 0))
    lvl = 0
    while (G >> lvl) > 1:
        lvl += 1

        def to_parent(b: pa.Table) -> pa.Table:
            return pa.table({
                "tx": pa.array(np.asarray(b["tx"], np.int64) // 2),
                "ty": pa.array(np.asarray(b["ty"], np.int64) // 2),
                "px_sum": b["px_sum"], "px_max": b["px_max"], "n_px": b["n_px"]})

        cur = (cur.map_batches(to_parent, batch_format="pyarrow")
               .groupby(["tx", "ty"])
               .aggregate(ASum("px_sum", alias_name="px_sum"),
                          AMax("px_max", alias_name="px_max"),
                          ASum("n_px", alias_name="n_px"))).materialize()
        frames.append(tag(cur.to_pandas(), lvl))
    out = pd.concat(frames, ignore_index=True)
    return (out.sort_values(["level", "ty", "tx"]).reset_index(drop=True)
            .astype("int64"))


def pyramid_build_oracle_sql(sf: float = 0.01) -> str:
    p = synth.params_for(sf)
    G, T = p.tiles_per_side, p.tile_px
    n_levels = G.bit_length()  # G=8 → levels 0..3
    return f"""
WITH {_epoch0_cte(sf)},
lv AS (SELECT unnest(generate_series(0, {n_levels - 1})) AS level),
v AS (
  SELECT lv.level,
         (gc // {T}) // power(2, lv.level)::BIGINT AS tx,
         (gr // {T}) // power(2, lv.level)::BIGINT AS ty,
         CAST({_b0_sql()} AS BIGINT) AS b0
  FROM px, lv WHERE s = 0
)
SELECT CAST(level AS BIGINT) AS level, CAST(tx AS BIGINT) AS tx,
       CAST(ty AS BIGINT) AS ty,
       CAST(SUM(b0) AS BIGINT) AS px_sum,
       CAST(MAX(b0) AS BIGINT) AS px_max,
       CAST(COUNT(*) AS BIGINT) AS n_px
FROM v GROUP BY level, tx, ty
"""


# ------------------------------------------------------- bilinear resample

def q_resample_bilinear(sf_dir: str) -> pd.DataFrame:
    """Bilinear 2× upsample through the real parquet halo (the raster
    resample every renderer applies on zoom; functions/Reference.py's
    cell-size negotiation implies it): each source pixel spawns the 2×2
    sub-pixel block [v, (v+R)/2, (v+D)/2, (v+R+D+X)/4] with edge-clamped
    neighbours.  Values are scaled ×4 so every sub-pixel is an exact
    integer — SQL recomputes all four per pixel with the identical
    clamping."""
    from .stages import halo, tile_map

    padded = halo.with_halo_from_parquet(
        _analytic_path(sf_dir), padding=1, bands=2,
        scene_ids=[s * 10 for s in range(synth.A_SCENES)])

    def kernel(p, m, meta):
        band = (p[0] if p.ndim == 3 else p).astype(np.float64)
        v = band[1:-1, 1:-1]
        r = band[1:-1, 2:]
        d = band[2:, 1:-1]
        x = band[2:, 2:]
        h, w = v.shape
        out = np.empty((2 * h, 2 * w), np.float64)
        out[0::2, 0::2] = 4.0 * v
        out[0::2, 1::2] = 2.0 * (v + r)
        out[1::2, 0::2] = 2.0 * (v + d)
        out[1::2, 1::2] = v + r + d + x
        mm = np.repeat(np.repeat(m[1:-1, 1:-1] if m.ndim == 2 else m, 2, 0),
                       2, 1)
        return out, mm

    out = tile_map.apply_kernel(padded, kernel, out_pixel_type="f8")

    def stats(a):
        return (float(a.min()), float(a.max()), float(a.sum()))

    return _exact_stats(out, stats, [("u_min", pa.float64()),
                                     ("u_max", pa.float64()),
                                     ("u_sum", pa.float64())])


def resample_bilinear_oracle_sql(sf: float = 0.01) -> str:
    p = synth.params_for(sf)
    n = p.tiles_per_side * p.tile_px
    clamp = lambda ex: f"GREATEST(0, LEAST({n - 1}, {ex}))"  # noqa: E731
    v = _b0_sql()
    r = _b0_sql(gc=clamp("gc + 1"))
    d = _b0_sql(gr=clamp("gr + 1"))
    x = _b0_sql(gr=clamp("gr + 1"), gc=clamp("gc + 1"))
    return f"""
WITH {_epoch0_cte(sf)},
e AS (SELECT tile_id,
             4.0 * ({v}) AS e00,
             2.0 * (({v}) + ({r})) AS e01,
             2.0 * (({v}) + ({d})) AS e10,
             ({v}) + ({r}) + ({d}) + ({x}) AS e11
      FROM px)
SELECT tile_id,
       MIN(LEAST(e00, e01, e10, e11)) AS u_min,
       MAX(GREATEST(e00, e01, e10, e11)) AS u_max,
       SUM(e00 + e01 + e10 + e11) AS u_sum
FROM e GROUP BY tile_id ORDER BY tile_id
"""


# ------------------------------------------------- affine warp (reproject)

# rational shear-scale: src_r = (3·tr + tc)//4, src_c = (tr + 3·tc)//4 —
# monotone in both axes (pre-image of a rectangle is a rectangle) and
# in-bounds for every target pixel, so no nodata arm is needed
def _warp_src(tr, tc):
    return (3 * tr + tc) // 4, (tr + 3 * tc) // 4


def q_affine_warp(sf_dir: str) -> pd.DataFrame:
    """Nearest-neighbour affine warp (the ProjectRaster/reproject shape):
    every target pixel samples the source at a rational affine coordinate.
    Unlike focal ops the displacement is UNBOUNDED (grows with the grid),
    so a halo cannot feed it — instead each target-tile task computes its
    pre-image rectangle (the affine is monotone, so corners suffice) and
    GATHERS exactly those source tiles with a pushdown parquet read: the
    scale story is per-task selective reads, not an all-to-all pixel
    shuffle.  Oracle recomputes b0 at the identical integer coordinates."""
    import pyarrow.parquet as pq

    p = synth.params_for(synth.sf_from_dir(sf_dir))
    G, T = p.tiles_per_side, p.tile_px
    path = _analytic_path(sf_dir)

    def warp_tile(b: pa.Table) -> pd.DataFrame:
        rows = []
        for tid in np.asarray(b["id"], dtype=np.int64):
            ty, tx = divmod(int(tid), G)
            r0, c0 = ty * T, tx * T
            # pre-image rectangle from the 4 corners (monotone affine)
            srs, scs = zip(*[_warp_src(r, c)
                             for r in (r0, r0 + T - 1)
                             for c in (c0, c0 + T - 1)])
            tx0, tx1 = min(scs) // T, max(scs) // T
            ty0, ty1 = min(srs) // T, max(srs) // T
            src = pq.read_table(
                path, columns=["tx", "ty", "pixels", "pixel_type",
                               "band_count", "height", "width"],
                filters=[("scene_id", "=", 0),
                         ("tx", ">=", tx0), ("tx", "<=", tx1),
                         ("ty", ">=", ty0), ("ty", "<=", ty1)])
            canvas = np.empty(((ty1 - ty0 + 1) * T, (tx1 - tx0 + 1) * T),
                              np.float64)
            for i in range(src.num_rows):
                arr = tilecodec.decode(
                    src["pixels"][i].as_buffer(), src["pixel_type"][i].as_py(),
                    src["band_count"][i].as_py(), src["height"][i].as_py(),
                    src["width"][i].as_py())
                sy = (src["ty"][i].as_py() - ty0) * T
                sx = (src["tx"][i].as_py() - tx0) * T
                canvas[sy:sy + T, sx:sx + T] = arr[0]
            tr = np.arange(r0, r0 + T, dtype=np.int64)[:, None]
            tc = np.arange(c0, c0 + T, dtype=np.int64)[None, :]
            sr, sc = _warp_src(tr, tc)
            out = canvas[sr - ty0 * T, sc - tx0 * T]
            rows.append((f"w_{tx:04d}_{ty:04d}", float(out.min()),
                         float(out.max()), float(out.sum())))
        return pd.DataFrame(rows, columns=["tile_id", "w_min", "w_max",
                                           "w_sum"])

    out = (rd.range(G * G, override_num_blocks=8)
           .map_batches(warp_tile, batch_format="pyarrow", batch_size=8)
           .to_pandas())
    return out.sort_values("tile_id").reset_index(drop=True)


def affine_warp_oracle_sql(sf: float = 0.01) -> str:
    p = synth.params_for(sf)
    G, T = p.tiles_per_side, p.tile_px
    v = _b0_sql(gr="(3 * gr + gc) // 4", gc="(gr + 3 * gc) // 4")
    return f"""
WITH {_epoch0_cte(sf)},
w AS (SELECT 'w_' || lpad(CAST(gc // {T} AS VARCHAR), 4, '0') || '_'
             || lpad(CAST(gr // {T} AS VARCHAR), 4, '0') AS tile_id,
             {v} AS sv
      FROM px WHERE s = 0)
SELECT tile_id, MIN(sv) AS w_min, MAX(sv) AS w_max, SUM(sv) AS w_sum
FROM w GROUP BY tile_id ORDER BY tile_id
"""


# ----------------------------------------------------------- RLE run stats

RLE_Q = 64  # class quantizer — b0's gc-slope of 2 gives ~32-px runs


def q_rle_stats(sf_dir: str) -> pd.DataFrame:
    """Row-major RLE statistics of the quantized surface (class = b0//{RLE_Q})
    — the compression-planning pass a tile codec runs before choosing an
    encoding: per tile the horizontal run count and the encoded size under
    a 12-byte-per-run layout.  Vectorized: run starts are a shifted
    not-equal per tile row; all integers."""
    from .stages import tile_map

    ds = _read_analytic(sf_dir, epoch=0)

    def kernel(p, m, meta):
        band = (p[0] if p.ndim == 3 else p)
        cls = (band.astype(np.int64) // RLE_Q).astype(np.float64)
        return cls, m

    cls_tiles = tile_map.apply_kernel(ds, kernel, out_pixel_type="f8")

    def stats(a):
        ai = a.astype(np.int64)
        runs = ai.shape[0] + int((ai[:, 1:] != ai[:, :-1]).sum())
        return (float(runs), float(12 * runs))

    out = _exact_stats(cls_tiles, stats, [("n_runs", pa.float64()),
                                          ("rle_bytes", pa.float64())])
    return out.astype({"n_runs": "int64", "rle_bytes": "int64"})


def rle_stats_oracle_sql(sf: float = 0.01) -> str:
    p = synth.params_for(sf)
    T = p.tile_px
    cls = f"(CAST({_b0_sql()} AS BIGINT) // {RLE_Q})"
    cls_prev = f"(CAST({_b0_sql(gc='gc - 1')} AS BIGINT) // {RLE_Q})"
    return f"""
WITH {_epoch0_cte(sf)},
f AS (SELECT tile_id,
             CASE WHEN gc % {T} = 0 OR {cls} <> {cls_prev}
                  THEN 1 ELSE 0 END AS run_start
      FROM px)
SELECT tile_id, CAST(SUM(run_start) AS BIGINT) AS n_runs,
       CAST(12 * SUM(run_start) AS BIGINT) AS rle_bytes
FROM f GROUP BY tile_id ORDER BY tile_id
"""


# --------------------------------------------------------- zonal majority

ZM_BLOCK = 32  # zone = aligned 32x32 block (divides every tile_px)
ZM_MOD = 9


def q_zonal_majority(sf_dir: str) -> pd.DataFrame:
    """ZonalStatistics MAJORITY: the modal class per zone (aligned
    {ZM_BLOCK}² blocks over the quantized surface b0 % {ZM_MOD}), ties to
    the smallest class via the packed key cnt·16 + (15 − class) — the
    categorical zonal rollup (dominant land-cover per parcel)."""
    ds = _read_analytic(sf_dir, epoch=0)

    def per_tile(b: pa.Table) -> pd.DataFrame:
        rows = []
        for i in range(b.num_rows):
            sid = b["scene_id"][i].as_py()
            if sid // 10 != 0:
                continue
            meta = {c: b[c][i].as_py() for c in
                    ("pixel_type", "band_count", "height", "width", "tx", "ty")}
            arr = tilecodec.decode(b["pixels"][i].as_buffer(), meta["pixel_type"],
                                   meta["band_count"], meta["height"], meta["width"])
            cls = arr[0].astype(np.int64) % ZM_MOD
            T = meta["height"]
            for by in range(T // ZM_BLOCK):
                for bx in range(T // ZM_BLOCK):
                    blk = cls[by * ZM_BLOCK:(by + 1) * ZM_BLOCK,
                              bx * ZM_BLOCK:(bx + 1) * ZM_BLOCK]
                    cnt = np.bincount(blk.ravel(), minlength=ZM_MOD)
                    key = cnt * 16 + (15 - np.arange(ZM_MOD))
                    k = int(key.max())
                    rows.append((meta["tx"] * (T // ZM_BLOCK) + bx,
                                 meta["ty"] * (T // ZM_BLOCK) + by,
                                 15 - k % 16, k // 16))
        return pd.DataFrame(rows, columns=["bx", "by", "maj_class",
                                           "maj_count"]).astype("int64")

    out = (ds.map_batches(per_tile, batch_format="pyarrow", batch_size=16)
           .to_pandas())
    return out.sort_values(["by", "bx"]).reset_index(drop=True)


def zonal_majority_oracle_sql(sf: float = 0.01) -> str:
    return f"""
WITH {_epoch0_cte(sf)},
c AS (SELECT gc // {ZM_BLOCK} AS bx, gr // {ZM_BLOCK} AS by,
             CAST({_b0_sql()} AS BIGINT) % {ZM_MOD} AS cls
      FROM px WHERE s = 0),
g AS (SELECT bx, by, cls, COUNT(*) AS cnt FROM c GROUP BY bx, by, cls),
k AS (SELECT bx, by, MAX(cnt * 16 + (15 - cls)) AS key FROM g GROUP BY bx, by)
SELECT bx, by, CAST(15 - key % 16 AS BIGINT) AS maj_class,
       CAST(key // 16 AS BIGINT) AS maj_count
FROM k
"""


# --------------- quantized-trig terrain VALUES (slope°/aspect° exact)

TRIG_QUANT = 1_000_000   # micro-degrees


def q_terrain_trig_exact(sf_dir: str) -> pd.DataFrame:
    """Slope and aspect VALUES in exact micro-degrees — the quantized-trig
    discipline (spatial.q_haversine_dist) applied to the terrain family,
    upgrading it beyond the class-histogram gate (q_aspect_slope_exact):
    per tile, SUM/MIN/MAX of ⌊slope°·1e6+0.5⌋ and SUM of ⌊aspect°·1e6+0.5⌋
    through the real parquet halo.  The analytic surfaces are affine, so
    the distinct gradient pairs are few and land far from every rounding
    boundary (margin pytest); every pre-trig double is built in the
    identical operation order on both sides."""
    from .functions import focal as fc
    from .stages import halo, tile_map

    padded = halo.with_halo_from_parquet(
        _analytic_path(sf_dir), padding=1, bands=2,
        scene_ids=[s * 10 for s in range(synth.A_SCENES)])

    def _grads(p, meta):
        dem = np.asarray(p[0] if p.ndim == 3 else p, dtype=np.float64)
        delta_x = fc.convolve3x3(dem, fc.ASPECT_X) / 8.0
        delta_y = fc.convolve3x3(dem, fc.ASPECT_Y) / 8.0
        dx = delta_x / meta["cell_size"][0]
        dy = delta_y / meta["cell_size"][1]
        return delta_x, delta_y, dx, dy

    def k_slope(p, m, meta):
        _, _, dx, dy = _grads(p, meta)
        slope_deg = 57.29578 * np.arctan(np.sqrt(dx * dx + dy * dy))
        q = np.floor(slope_deg * TRIG_QUANT + 0.5)
        return q[1:-1, 1:-1], fc.erode_mask_3x3(np.asarray(m))

    def k_aspect(p, m, meta):
        delta_x, delta_y, dx, dy = _grads(p, meta)
        slope_pct = np.sqrt(dx * dx + dy * dy) * 100.0
        aspect = 57.29578 * np.arctan2(delta_x, -delta_y)
        aspect = np.where(aspect < 0.0, (360.0 - (90.0 - aspect)) + 90.0,
                          aspect)
        aspect = np.where(slope_pct == 0.0, -1.0, aspect)
        q = np.floor(aspect * TRIG_QUANT + 0.5)
        return q[1:-1, 1:-1], fc.erode_mask_3x3(np.asarray(m))

    def finish(out, cols):
        def f(b: pa.Table) -> pd.DataFrame:
            rows = []
            for i in range(b.num_rows):
                arr = tilecodec.decode(b["pixels"][i].as_buffer(), "f8", 1,
                                       b["height"][i].as_py(),
                                       b["width"][i].as_py()
                                       ).astype(np.int64)
                rows.append((b["tile_id"][i].as_py(),)
                            + tuple(int(g(arr)) for g in
                                    (np.sum, np.min, np.max))[:len(cols)])
            return pd.DataFrame(rows, columns=["tile_id"] + cols)

        return (out.map_batches(f, batch_format="pyarrow", batch_size=32)
                .to_pandas())

    slope_df = finish(tile_map.apply_kernel(padded, k_slope,
                                            out_pixel_type="f8"),
                      ["sum_qslope", "min_qslope", "max_qslope"])
    aspect_df = finish(tile_map.apply_kernel(padded, k_aspect,
                                             out_pixel_type="f8"),
                       ["sum_qaspect"])
    df = slope_df.merge(aspect_df, on="tile_id")
    for c in df.columns[1:]:
        df[c] = df[c].astype("int64")
    return (df[["tile_id", "sum_qslope", "min_qslope", "max_qslope",
                "sum_qaspect"]]
            .sort_values("tile_id").reset_index(drop=True))


def terrain_trig_exact_oracle_sql(sf: float = 0.01) -> str:
    p = synth.params_for(sf)
    n = p.tiles_per_side * p.tile_px
    clamp = lambda ex: f"GREATEST(0, LEAST({n - 1}, {ex}))"  # noqa: E731
    E = lambda dr, dc: _b0_sql(gr=clamp(f"gr + {dr}"), gc=clamp(f"gc + {dc}"))  # noqa: E731
    dx8 = (f"(({E(-1,-1)} - {E(-1,1)}) + 2.0*({E(0,-1)} - {E(0,1)})"
           f" + ({E(1,-1)} - {E(1,1)}))")
    dy8 = (f"(({E(-1,-1)} + 2.0*{E(-1,0)} + {E(-1,1)})"
           f" - ({E(1,-1)} + 2.0*{E(1,0)} + {E(1,1)}))")
    return f"""
WITH {_epoch0_cte(sf)},
g AS (
  SELECT tile_id, {dx8} / 8.0 AS dxm, {dy8} / 8.0 AS dym FROM px
), d AS (
  SELECT tile_id, dxm, dym,
         57.29578 * atan(sqrt((dxm/{synth.CELL_SIZE_M})*(dxm/{synth.CELL_SIZE_M})
                            + (dym/{synth.CELL_SIZE_M})*(dym/{synth.CELL_SIZE_M})))
           AS slope_deg,
         sqrt((dxm/{synth.CELL_SIZE_M})*(dxm/{synth.CELL_SIZE_M})
            + (dym/{synth.CELL_SIZE_M})*(dym/{synth.CELL_SIZE_M})) * 100.0 AS slope_pct
  FROM g
), a AS (
  SELECT tile_id, slope_deg,
         CASE WHEN slope_pct = 0.0 THEN -1.0
              WHEN 57.29578 * atan2(dxm, -dym) < 0.0
              THEN (360.0 - (90.0 - 57.29578 * atan2(dxm, -dym))) + 90.0
              ELSE 57.29578 * atan2(dxm, -dym) END AS aspect
  FROM d
)
SELECT tile_id,
       CAST(SUM(floor(slope_deg * {TRIG_QUANT} + 0.5)) AS BIGINT)
         AS sum_qslope,
       CAST(MIN(floor(slope_deg * {TRIG_QUANT} + 0.5)) AS BIGINT)
         AS min_qslope,
       CAST(MAX(floor(slope_deg * {TRIG_QUANT} + 0.5)) AS BIGINT)
         AS max_qslope,
       CAST(SUM(floor(aspect * {TRIG_QUANT} + 0.5)) AS BIGINT)
         AS sum_qaspect
FROM a GROUP BY tile_id ORDER BY tile_id
"""
