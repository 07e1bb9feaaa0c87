"""SQL-exact raster gates over the closed-form analytic tile world.

The noise-bearing tiles.parquet pixels (np.random) cannot be reproduced in
SQL, so the pixel-kernel queries over them are rows-only driver checks.
This module runs the SAME engine stacks — pointwise kernels, the
shuffle-free parquet halo (stages/halo.py), BlockStatistics, and the
storage-aligned stack reduce (stages/composite.py) — over
``analytic.parquet`` (synth.build_analytic), whose pixels are integer-valued
affine functions of (scene, epoch, row, col).  A DuckDB oracle recomputes
every pixel verbatim with generate_series and aggregates with MIN/MAX/COUNT
(order-independent) and integer-exact SUMs (< 2^53), giving value-hash
parity for:

- NDVI                 (functions/deprecated/NDVI.py:90-101 ratio math, f8)
- BlockStatistics mean (functions/BlockStatistics.py:93-110)
- focal min/max + TRI  (RankFilter.py:101-111; the TRI template expression
                        SquareRoot(Abs(Square(Focal_Max)-Square(Focal_Min)))
                        — sqrt/abs/±/× are correctly-rounded IEEE ops,
                        identical in numpy and DuckDB; pow/trig are NOT,
                        which is why Hillshade stays rows-only)
- Aggregate sum        (functions/deprecated/Aggregate.py:56-63)
- FindSecondMax        (functions/FindSecondMax.py:60-87; the epoch term is
                        the permutation (2e) mod 3, so the selection is not
                        epoch order)

Halo parity detail: scene borders edge-replicate (stages/halo.py), which in
closed form is coordinate CLAMPING — the oracle evaluates neighbours at
LEAST/GREATEST-clamped coordinates, so the halo machinery itself is inside
the gate.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from . import synth, tilecodec

NDVI_THRESH = 0.2
TRI_THRESH = 8.0


def _analytic_path(sf_dir: str) -> str:
    return os.path.join(synth.synth_dir_for(sf_dir), "analytic.parquet")


def _read_analytic(sf_dir: str, epoch: int | None = None) -> rd.Dataset:
    import pyarrow.compute as pc

    # scene_id = s*10 + epoch; pushdown as an id list (Expression lacks %)
    from .sources import cluster_cpus

    flt = None if epoch is None else pc.field("scene_id").isin(
        [s * 10 + epoch for s in range(synth.A_SCENES)])
    # parallel row-group-ranged read (see sources.read_tiles)
    return rd.read_parquet(_analytic_path(sf_dir), filter=flt,
                           override_num_blocks=cluster_cpus())


def _exact_stats(ds: rd.Dataset, stat_fn, out_cols) -> pd.DataFrame:
    """Per-tile exact stats over an output-tile Dataset: ``stat_fn(arr) ->
    tuple`` of scalars, one row per tile."""

    def finish(b: pa.Table) -> pa.Table:
        ids, stats = [], []
        for i in range(b.num_rows):
            meta = {c: b[c][i].as_py() for c in
                    ("tile_id", "pixel_type", "band_count", "height", "width")}
            arr = tilecodec.decode(b["pixels"][i].as_buffer(), meta["pixel_type"],
                                   meta["band_count"], meta["height"], meta["width"])
            ids.append(meta["tile_id"])
            stats.append(stat_fn(arr))
        cols = {"tile_id": pa.array(ids, pa.string())}
        for j, (name, typ) in enumerate(out_cols):
            cols[name] = pa.array([s[j] for s in stats], typ)
        return pa.table(cols)

    # whole blocks: the map then fuses into a storage-aligned read
    out = ds.map_batches(finish, batch_format="pyarrow").to_pandas()
    return out.sort_values("tile_id").reset_index(drop=True)


# one shared per-pixel CTE: tile rows × generate_series over the tile grid,
# with scene-LOCAL coordinates (gr, gc) and the band formulas inline
def _px_cte(sf: float, epoch_filter: str) -> str:
    p = synth.params_for(sf)
    d = synth.synth_dir(sf)
    G, T = p.tiles_per_side, p.tile_px
    return f"""
t AS (
  SELECT tile_id, tx, ty, scene_id // 10 AS s, scene_id % 10 AS e,
         tx - (scene_id // 10) * {G} AS lx,
         'c_' || lpad(CAST(tx AS VARCHAR), 4, '0') || '_'
              || lpad(CAST(ty AS VARCHAR), 4, '0') AS comp_id
  FROM read_parquet('{d}/analytic.parquet')
  WHERE {epoch_filter}
), px AS (
  SELECT tile_id, comp_id, s, e,
         ty * {T} + rr.r AS gr, lx * {T} + cc.c AS gc
  FROM t,
       LATERAL (SELECT unnest(generate_series(0, {T - 1})) AS r) rr,
       LATERAL (SELECT unnest(generate_series(0, {T - 1})) AS c) cc
)"""


def _b0_sql(s="s", e="e", gr="gr", gc="gc") -> str:
    """SQL text of synth.analytic_band0 with pluggable coordinate
    expressions (an f-string builder, NOT textual substitution — arbitrary
    sub-expressions cannot corrupt the formula)."""
    return (f"((100.0 + 10.0*({s})) + (2.0 + ({s}))*({gc})"
            f" + (1.0 + ({s}))*({gr}) + (3.0 + 2.0*({s}))*((2*({e})) % 3))")


def _b1_sql(s="s", e="e", gr="gr", gc="gc") -> str:
    """SQL text of synth.analytic_band1."""
    return (f"((300.0 + 20.0*({s})) + (5.0 + ({s}))*({gr})"
            f" + 2.0*({gc}) + 7.0*((2*({e})) % 3))")


_B0 = _b0_sql()
_B1 = _b1_sql()


# ------------------------------------------------------------------ NDVI

def q_ndvi_exact(sf_dir: str) -> pd.DataFrame:
    """NDVI in f8 over the epoch-0 analytic scenes; per-tile exact min/max
    and count above {NDVI_THRESH} (SQL recomputes the identical ratio per
    pixel — same integer operands, one IEEE division each)."""
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)

    def kernel(p, m, meta):
        red, ir = p[0], p[1]
        return (ir - red) / (ir + red), m

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f8")

    def stats(a):
        return (float(a.min()), float(a.max()), int((a > NDVI_THRESH).sum()))

    return _exact_stats(out, stats, [("ndvi_min", pa.float64()),
                                     ("ndvi_max", pa.float64()),
                                     ("n_above", pa.int64())])


def ndvi_exact_oracle_sql(sf: float = 0.01) -> str:
    return f"""
WITH {_px_cte(sf, "scene_id % 10 = 0")}
SELECT tile_id,
       MIN(({_B1} - {_B0}) / ({_B1} + {_B0})) AS ndvi_min,
       MAX(({_B1} - {_B0}) / ({_B1} + {_B0})) AS ndvi_max,
       CAST(COUNT(*) FILTER (({_B1} - {_B0}) / ({_B1} + {_B0}) > {NDVI_THRESH})
            AS BIGINT) AS n_above
FROM px GROUP BY tile_id ORDER BY tile_id
"""


# ------------------------------------------------------- BlockStatistics

def q_block_stats_exact(sf_dir: str) -> pd.DataFrame:
    """BlockStatistics mean (size=4) over analytic band 0; per-tile exact
    min/max/sum of the block means.  Means are integer sums / 16 — exact
    multiples of 1/16 — so even the SUM is order-independent."""
    from .functions import focal as fc
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)

    def kernel(p, m, meta):
        out = fc.block_statistics(p[0], m, 4, "mean")
        return out, m[::4, ::4]

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f8")

    def stats(a):
        return (float(a.min()), float(a.max()), float(a.sum()))

    return _exact_stats(out, stats, [("b_min", pa.float64()),
                                     ("b_max", pa.float64()),
                                     ("b_sum", pa.float64())])


def block_stats_exact_oracle_sql(sf: float = 0.01) -> str:
    return f"""
WITH {_px_cte(sf, "scene_id % 10 = 0")},
blk AS (
  SELECT tile_id, gr // 4 AS br, gc // 4 AS bc, AVG({_B0}) AS v
  FROM px GROUP BY tile_id, gr // 4, gc // 4
)
SELECT tile_id, MIN(v) AS b_min, MAX(v) AS b_max, SUM(v) AS b_sum
FROM blk GROUP BY tile_id ORDER BY tile_id
"""


# --------------------------------------------------- focal min/max + TRI

def q_focal_tri_exact(sf_dir: str) -> pd.DataFrame:
    """Focal 3×3 min/max through the REAL shuffle-free parquet halo, then
    the TRI template expression sqrt(|fmax² − fmin²|) — all
    correctly-rounded IEEE ops, so DuckDB reproduces every double exactly,
    including the scene-border clamp semantics of the halo."""
    from .functions import focal as fc
    from .stages import halo, tile_map

    # pad ONLY the epoch-0 scenes — a post-hoc filter would decode, pad
    # and ship all 3 epochs through the object store first
    padded = halo.with_halo_from_parquet(
        _analytic_path(sf_dir), padding=1, bands=2,
        scene_ids=[s * 10 for s in range(synth.A_SCENES)])

    def kernel(p, m, meta):
        band = p[0] if p.ndim == 3 else p
        fmin = fc.focal_min(band, 3)
        fmax = fc.focal_max(band, 3)
        tri = np.sqrt(np.abs(fmax * fmax - fmin * fmin))
        return tri, fc.erode_mask_3x3(m)

    out = tile_map.apply_kernel(padded, kernel, out_pixel_type="f8")

    def stats(a):
        return (float(a.min()), float(a.max()), int((a > TRI_THRESH).sum()))

    return _exact_stats(out, stats, [("tri_min", pa.float64()),
                                     ("tri_max", pa.float64()),
                                     ("n_above", pa.int64())])


def focal_tri_exact_oracle_sql(sf: float = 0.01) -> str:
    p = synth.params_for(sf)
    n = p.tiles_per_side * p.tile_px
    clamp = lambda ex: f"GREATEST(0, LEAST({n - 1}, {ex}))"  # noqa: E731
    nine = [
        _b0_sql(gr=clamp(f"gr + {dr}"), gc=clamp(f"gc + {dc}"))
        for dr in (-1, 0, 1) for dc in (-1, 0, 1)
    ]
    fmin = "LEAST(" + ", ".join(nine) + ")"
    fmax = "GREATEST(" + ", ".join(nine) + ")"
    tri = f"SQRT(ABS({fmax}*{fmax} - {fmin}*{fmin}))"
    return f"""
WITH {_px_cte(sf, "scene_id % 10 = 0")},
f AS (SELECT tile_id, {tri} AS tri FROM px)
SELECT tile_id, MIN(tri) AS tri_min, MAX(tri) AS tri_max,
       CAST(COUNT(*) FILTER (tri > {TRI_THRESH}) AS BIGINT) AS n_above
FROM f GROUP BY tile_id ORDER BY tile_id
"""


# ------------------------------------------------- stack reduces (epochs)

def q_stack_sum_exact(sf_dir: str) -> pd.DataFrame:
    """Aggregate 'sum' across the 3 epochs (storage-aligned zero-shuffle
    stack reduce); per-tile exact min/max/sum of band 0 of the composite.
    All values integer → exact in any summation order."""
    from .stages import composite

    out = composite.stack_reduce_from_parquet(
        _analytic_path(sf_dir), composite.aggregate_reduce("sum"),
        out_pixel_type="f8", bands=2)

    def stats(a):
        band = a[0] if a.ndim == 3 else a
        return (float(band.min()), float(band.max()), float(band.sum()))

    return _exact_stats(out, stats, [("a_min", pa.float64()),
                                     ("a_max", pa.float64()),
                                     ("a_sum", pa.float64())])


def stack_sum_exact_oracle_sql(sf: float = 0.01) -> str:
    # sum over e in {0,1,2} of band0: the epoch permutation terms add to
    # (0+2+1) = 3, everything else triples
    return f"""
WITH {_px_cte(sf, "scene_id % 10 = 0")},
v AS (
  SELECT comp_id AS tile_id,
         3*((100.0 + 10.0*s) + (2.0 + s)*gc + (1.0 + s)*gr)
           + (3.0 + 2.0*s)*3.0 AS sv
  FROM px
)
SELECT tile_id, MIN(sv) AS a_min, MAX(sv) AS a_max, SUM(sv) AS a_sum
FROM v GROUP BY tile_id ORDER BY tile_id
"""


def q_stack_second_max_exact(sf_dir: str) -> pd.DataFrame:
    """FindSecondMax across epochs (the k-th-order-statistic reduce); the
    epoch value permutation (2e mod 3 → 0,2,1) makes the winner epoch 2,
    NOT the last epoch, so the selection logic is actually exercised."""
    from .stages import composite

    out = composite.stack_reduce_from_parquet(
        _analytic_path(sf_dir),
        composite.find_kth_max_reduce(2, invalid_above=1e15),
        out_pixel_type="f8", bands=2)

    def stats(a):
        band = a[0] if a.ndim == 3 else a
        return (float(band.min()), float(band.max()))

    return _exact_stats(out, stats, [("s_min", pa.float64()),
                                     ("s_max", pa.float64())])


def stack_second_max_exact_oracle_sql(sf: float = 0.01) -> str:
    # band0 epoch terms: e=0 → +0, e=1 → +2c, e=2 → +1c (c = 3+2s);
    # second-largest of {base, base+2c, base+c} = base + c (epoch 2)
    return f"""
WITH {_px_cte(sf, "scene_id % 10 = 0")},
v AS (
  SELECT comp_id AS tile_id,
         ((100.0 + 10.0*s) + (2.0 + s)*gc + (1.0 + s)*gr)
           + (3.0 + 2.0*s) AS sv
  FROM px
)
SELECT tile_id, MIN(sv) AS s_min, MAX(sv) AS s_max
FROM v GROUP BY tile_id ORDER BY tile_id
"""


# ------------------------------------------------------------------ Remap

REMAP_RANGES = (0.0, 500.0, 500.0, 1500.0, 1500.0, 3000.0, 3000.0, 1e9)
REMAP_OUT = (1.0, 2.0, 3.0, 4.0)


def q_remap_exact(sf_dir: str) -> pd.DataFrame:
    """RemapFunction interval LUT (§2.5) over analytic band 0: per-tile
    class histogram — pure integer comparisons and counts, so the CASE
    chain in SQL reproduces every cell."""
    from .functions import remap as rm
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)

    def kernel(p, m, meta):
        return rm.remap(p[0], REMAP_RANGES, REMAP_OUT), m

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f8")

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


def remap_exact_oracle_sql(sf: float = 0.01) -> str:
    pairs = list(zip(REMAP_RANGES[0::2], REMAP_RANGES[1::2], REMAP_OUT))
    case = "CASE " + " ".join(
        f"WHEN {_B0} >= {lo} AND {_B0} < {hi} THEN {int(out)}"
        for lo, hi, out in pairs) + " END"
    return f"""
WITH {_px_cte(sf, "scene_id % 10 = 0")}
SELECT tile_id, {case} AS class, CAST(COUNT(*) AS BIGINT) AS n
FROM px GROUP BY tile_id, class ORDER BY tile_id, class
"""


# ---------------------------------------------------------------- Stretch

STRETCH_IN = (100.0, 3000.0)


def q_stretch_exact(sf_dir: str) -> pd.DataFrame:
    """StretchFunction min-max (§2.5) over analytic band 0 — every op in
    the kernel ((v-lo)/(hi-lo), clip, ×255) is correctly-rounded IEEE, so
    DuckDB reproduces each double exactly."""
    from .functions import remap as rm
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)
    lo, hi = STRETCH_IN

    def kernel(p, m, meta):
        return rm.stretch_minmax(p[0], lo, hi), m

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f8")

    def stats(a):
        return (float(a.min()), float(a.max()), int((a > 128.0).sum()))

    return _exact_stats(out, stats, [("s_min", pa.float64()),
                                     ("s_max", pa.float64()),
                                     ("n_above", pa.int64())])


def stretch_exact_oracle_sql(sf: float = 0.01) -> str:
    lo, hi = STRETCH_IN
    sv = (f"LEAST(GREATEST(({_B0} - {lo}) / ({hi} - {lo}), 0.0), 1.0)"
          f" * (255.0 - 0.0) + 0.0")
    return f"""
WITH {_px_cte(sf, "scene_id % 10 = 0")}
SELECT tile_id, MIN({sv}) AS s_min, MAX({sv}) AS s_max,
       CAST(COUNT(*) FILTER ({sv} > 128.0) AS BIGINT) AS n_above
FROM px GROUP BY tile_id ORDER BY tile_id
"""


# ------------------------------------------------------------ LandsatC2QA

QA_FLAGS = {"cloud": True, "shadow": True}  # bits 3 and 4 → mask 0b11000


def q_qa_exact(sf_dir: str) -> pd.DataFrame:
    """LandsatC2QA bitwise decode (functions/LandsatC2QA.py:109-127) over
    analytic band 0 truncated to integer DNs — pure integer & — per-tile
    flagged-pixel count."""
    from .functions import pointwise as pw
    from .stages import tile_map

    tiles = _read_analytic(sf_dir, epoch=0)

    def kernel(p, m, meta):
        # band0 values are EXACT integers, so numpy's truncating astype and
        # the oracle's round-half-even CAST(double AS BIGINT) agree; a
        # fractional-valued formula would break this parity.  int64, not
        # uint16: a larger analytic world would silently wrap DNs >= 2^16
        qa = p[0].astype(np.int64)
        return pw.landsat_c2_qa(qa, **QA_FLAGS).astype(np.float64), m

    out = tile_map.apply_kernel(tiles, kernel, out_pixel_type="f8")

    def stats(a):
        return (int(a.sum()),)

    return _exact_stats(out, stats, [("n_flagged", pa.int64())])


def qa_exact_oracle_sql(sf: float = 0.01) -> str:
    from .functions.pointwise import QA_BIT_INDEX

    mask = 0
    for name, on in QA_FLAGS.items():
        if on:
            mask |= 1 << QA_BIT_INDEX[name]
    return f"""
WITH {_px_cte(sf, "scene_id % 10 = 0")}
SELECT tile_id,
       CAST(COUNT(*) FILTER ((CAST({_B0} AS BIGINT) & {mask}) <> 0)
            AS BIGINT) AS n_flagged
FROM px GROUP BY tile_id ORDER BY tile_id
"""
