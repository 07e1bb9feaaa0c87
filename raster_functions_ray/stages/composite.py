"""Temporal composites: grouped stack reduces over co-registered scenes.

The reference receives a ``rasters_pixels`` tuple of overlapping scenes from
its host (functions/Reference.py:214-217); the engine computes the overlap
relation explicitly — scenes of one footprint share global ``(tx, ty)`` —
and reduces each ``(tx, ty)`` group to one row (SURVEY.md §3.3).  One
``_group_reduce`` call handles a whole table of groups: a storage-aligned
read task's band of footprints (stages/aligned.py), or a single
``groupby((tx, ty))`` group.

Groups are ordered by ``acq_ts`` before stacking (deterministic reduce
order; required by time-sensitive ops like SeasonalARIMA —
functions/SeasonalARIMA.py:162-163).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from .. import tilecodec
from ..functions import stack as stack_fns

StackReduce = Callable[[np.ndarray, np.ndarray, pd.DataFrame], tuple[np.ndarray, np.ndarray]]
# Called once per (tx, ty) group, also when one _group_reduce call covers a
# read task's many groups:
# (stack (scene,band,h,w), masks (scene,h,w), group meta df sorted by acq_ts)
#   -> (out (band,h,w) or (h,w), out_mask (h,w))

# columns copied from each group's first (earliest) row to its output row
_PASS_THROUGH = ("scene_id", "extent", "cell_size", "srid", "nodata", "acq_ts",
                 "sun_azimuth", "sun_elevation")


def _group_reduce(t: pa.Table, reduce_fn: StackReduce, out_pixel_type: str | None) -> pa.Table:
    """Reduce every ``(tx, ty)`` group of ``t`` to one row, in ``(ty, tx)``
    order.  A 0-row ``t`` gives the 0-row table of the same schema, so an
    empty ty-band block unions cleanly with reduced blocks."""
    tys, txs = t["ty"].to_numpy(), t["tx"].to_numpy()
    # row indices, not Table.sort_by: sorting the table copies every pixel blob
    order = np.lexsort((t["acq_ts"].to_numpy(), txs, tys))
    tys, txs = tys[order], txs[order]
    first = np.ones(order.size, bool)
    first[1:] = (tys[1:] != tys[:-1]) | (txs[1:] != txs[:-1])
    bounds = np.append(np.flatnonzero(first), order.size)
    bc, pt = t["band_count"].to_pylist(), t["pixel_type"].to_pylist()
    hs, ws = t["height"].to_pylist(), t["width"].to_pylist()
    pix_col, mask_col = t["pixels"], t["mask"]
    # per-scene meta must come from each ROW (replicating row 0 would hand
    # reduce_fn the first scene's sun geometry for every scene)
    meta = pd.DataFrame({c: t[c].to_pandas().values
                         for c in ("scene_id", "acq_ts", "sun_azimuth", "sun_elevation")
                         if c in t.column_names}).iloc[order].reset_index(drop=True)
    out_pt, out_bc, pixels, masks = [], [], [], []
    for s, e in zip(bounds[:-1], bounds[1:]):
        rows, i0 = order[s:e], order[s]
        h, w = hs[i0], ws[i0]
        stack = np.stack([tilecodec.decode(pix_col[i].as_buffer(), pt[i0], bc[i0], h, w)
                          .reshape(-1, h, w) for i in rows])   # (scene, band, h, w)
        mstack = np.stack([tilecodec.decode_mask(mask_col[i].as_buffer(), h, w) for i in rows])
        out, out_mask = reduce_fn(stack, mstack, meta.iloc[s:e].reset_index(drop=True))
        opt = out_pixel_type or pt[i0]
        out = np.asarray(out).astype(np.dtype(opt), copy=False)
        out_pt.append(opt)
        out_bc.append(1 if out.ndim == 2 else out.shape[0])
        pixels.append(tilecodec.encode(out))
        masks.append(tilecodec.encode(np.asarray(out_mask, dtype=np.uint8)))
    firsts = order[bounds[:-1]]
    rec = {c: t[c].take(firsts) for c in _PASS_THROUGH if c in t.column_names}
    gtx, gty = txs[bounds[:-1]].tolist(), tys[bounds[:-1]].tolist()
    rec.update({
        "tile_id": pa.array([f"c_{x:04d}_{y:04d}" for x, y in zip(gtx, gty)], pa.string()),
        "tx": pa.array(gtx, pa.int32()),
        "ty": pa.array(gty, pa.int32()),
        "width": pa.array([ws[i] for i in firsts], pa.int32()),
        "height": pa.array([hs[i] for i in firsts], pa.int32()),
        "band_count": pa.array(out_bc, pa.int32()),
        "pixel_type": pa.array(out_pt, pa.string()),
        "pixels": pa.array(pixels, pa.binary()),
        "mask": pa.array(masks, pa.binary()),
        "n_scenes": pa.array(np.diff(bounds), pa.int64()),
    })
    return pa.table(rec)


def stack_reduce(tiles: rd.Dataset, reduce_fn: StackReduce,
                 out_pixel_type: str | None = None) -> rd.Dataset:
    """The grouped-reduce lowering (one shuffle keyed on the tile grid).

    Groups arrive as Arrow tables (zero-copy binary pixel columns — the
    pandas path would copy every payload into Python objects)."""
    from .halo import _shuffle_partitions

    tiles = tiles.repartition(_shuffle_partitions())
    return tiles.groupby(["tx", "ty"]).map_groups(
        lambda g: _group_reduce(g, reduce_fn, out_pixel_type),
        batch_format="pyarrow")


# ------------------------------------------------------------------------
# Shuffle-free stack reduce from storage (the scale path): the epochs of a
# footprint are ALREADY co-located in storage, so a read task of
# stages/aligned.py reads one (position, ty-band) and hands it to the SAME
# _group_reduce — bit-identical output, zero shuffle.  Partitioning
# assumption (documented): all epochs of a footprint live in the one tiles
# file and share the global (tx, ty) grid.  Violation degrades to a wrong
# group (missing epochs -> n_scenes mismatch, visible in that column).
# ------------------------------------------------------------------------

def _reduce_tiles_from_parquet(path: str, scene_ids: list[int], ty_lo: int, ty_hi: int,
                               reduce_fn: StackReduce, out_pixel_type: str | None):
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    flt = (pc.field("scene_id").isin(scene_ids)
           & (pc.field("ty") >= ty_lo) & (pc.field("ty") < ty_hi))
    return _group_reduce(pq.read_table(path, filters=flt), reduce_fn, out_pixel_type)


_RG_TY = 4   # tile rows per parquet row group (synth.synth_dir)


def _ty_bands(y0: int, y1: int, n: int) -> list[tuple[int, int]]:
    """Tile rows ``[y0, y1)`` as at most ``n`` bands with edges on row group
    boundaries, so a band's ty predicate prunes whole row groups (measured
    10× read amplification without the alignment)."""
    y0, y1 = int(y0), int(y1)
    step = max(1, -(-(y1 - y0) // _RG_TY) // n) * _RG_TY
    return [(lo, min(lo + step, y1)) for lo in range(y0, y1, step)]


def stack_reduce_from_parquet(tiles_path: str, reduce_fn: StackReduce,
                              out_pixel_type: str | None = None,
                              bands: int | None = None,
                              acq_window: tuple | None = None) -> rd.Dataset:
    """Zero-shuffle stack_reduce: one read task per (position, ty-band),
    pruned parquet read + reduce, one block per task; output identical to
    stack_reduce() (gate: tests/test_raster_pipelines.py equality test).

    ``acq_window=(lo, hi)`` prunes whole SCENES at the metadata read —
    filtered epochs' pixels never leave storage (vs the Dataset-side
    filter, which reads then drops them)."""
    from ..sources import cluster_cpus
    from . import aligned

    sc = aligned.scenes(tiles_path, bands, acq_ts=("acq_ts", "first"))
    if acq_window is not None:
        lo, hi = acq_window
        sc = sc[(sc["acq_ts"] >= lo) & (sc["acq_ts"] < hi)]
    positions = [pos for _, pos in sc.groupby(["tx0", "ty0"])]
    # about two read tasks per CPU, at least one per position
    n = max(1, (2 * cluster_cpus()) // max(1, len(positions)))
    units = [(tiles_path, [int(s) for s in pos["scene_id"]], lo, hi, reduce_fn, out_pixel_type)
             for pos in positions
             for lo, hi in _ty_bands(pos["ty0"].iloc[0], pos["ty1"].max() + 1, n)]
    return aligned.read_units("StackReduce", _reduce_tiles_from_parquet, units)


# ---- canned reduces wrapping functions/stack.py kernels -------------------

def aggregate_reduce(method: str) -> StackReduce:
    def fn(stack, masks, g):
        return stack_fns.aggregate(stack, masks, method)
    return fn


def median_composite_reduce(qa_band: int) -> StackReduce:
    def fn(stack, masks, g):
        out = stack_fns.median_composite(stack, qa_band)
        return out, np.ones(stack.shape[-2:], np.uint8)
    return fn


def percentile_reduce(qa_band: int, pct: float) -> StackReduce:
    def fn(stack, masks, g):
        out = stack_fns.pixel_percentile(stack, qa_band, pct)
        return out, np.ones(stack.shape[-2:], np.uint8)
    return fn


def synthesis_reduce(qa_band: int) -> StackReduce:
    def fn(stack, masks, g):
        out = stack_fns.image_synthesis_mean(stack, qa_band)
        return out, np.ones(stack.shape[-2:], np.uint8)
    return fn


def find_kth_max_reduce(k: int, invalid_above: float = 100.0) -> StackReduce:
    def fn(stack, masks, g):
        out = stack_fns.find_kth_max(stack[:, 0, :, :], k, invalid_above)
        return out, np.ones(stack.shape[-2:], np.uint8)
    return fn
