"""Lower per-tile pixel kernels onto ``map_batches`` (SURVEY.md §2.1 → MB).

The unit of work is a tile ROW; batches are Arrow tables read zero-copy from
the object store, one whole block each by default.  A kernel is a function
``(pixels, mask, meta) -> (out_pixels, out_mask)`` over NumPy views of one
tile; ``apply_kernel`` vectorizes per PIXEL inside the kernel while iterating
the (coarse) tile rows of a batch — per-row overhead is amortized over
4k–65k pixels/tile.

This replaces the reference's host-driven ``updatePixels(tlc, shape, props,
**pixelBlocks)`` protocol (functions/Reference.py:188-241): ``meta`` plays the
role of ``props`` (extent, cellSize, srid, acq_ts, sun geometry ...), and the
output pixel-type cast happens here, at the stage boundary, exactly where the
reference does ``astype(props['pixelType'])``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import ray.data as rd

from .. import tilecodec

META_COLS = ("tile_id", "scene_id", "tx", "ty", "width", "height", "band_count",
             "pixel_type", "extent", "cell_size", "srid", "nodata", "acq_ts",
             "sun_azimuth", "sun_elevation")

Kernel = Callable[[np.ndarray, np.ndarray, dict], tuple[np.ndarray, np.ndarray | None]]


def run_kernel_on_batch(batch: pa.Table, kernel: Kernel, out_pixel_type: str | None,
                        out_band_count: int | None = None) -> pa.Table:
    """Apply ``kernel`` to every tile row of an Arrow batch; returns a new
    batch with pixels/mask/band_count/pixel_type rewritten and georeference
    columns passed through.  Pure function — shared by the Ray stage and the
    single-process oracle path in tests."""
    metas = {c: batch[c].to_pylist() for c in META_COLS if c in batch.column_names}
    # halo-stage outputs carry a `padding` column: width/height are CORE dims,
    # the binary payload includes the halo (stages/halo.py)
    pads = batch["padding"].to_pylist() if "padding" in batch.column_names else None
    pt_l = batch["pixel_type"].to_pylist()
    bc_l = batch["band_count"].to_pylist()
    h_l = batch["height"].to_pylist()
    w_l = batch["width"].to_pylist()
    pix_col, msk_col = batch["pixels"], batch["mask"]
    out_pixels, out_masks, out_bc, out_pt = [], [], [], []
    out_h, out_w = [], []
    for i in range(batch.num_rows):
        p2 = 2 * int(pads[i]) if pads else 0
        h, w = int(h_l[i]) + p2, int(w_l[i]) + p2
        pix = tilecodec.decode(pix_col[i].as_buffer(), pt_l[i], int(bc_l[i]), h, w)
        msk = tilecodec.decode_mask(
            msk_col[i].as_buffer() if msk_col[i].is_valid else None, h, w)
        meta = {c: metas[c][i] for c in metas}
        if pads:
            meta["padding"] = int(pads[i])
        res_pix, res_mask = kernel(pix, msk, meta)
        pt = out_pixel_type or meta["pixel_type"]
        res_pix = np.asarray(res_pix).astype(np.dtype(pt), copy=False)
        bc = 1 if res_pix.ndim == 2 else res_pix.shape[0]
        out_pixels.append(tilecodec.encode(res_pix))
        out_masks.append(tilecodec.encode(np.asarray(
            res_mask if res_mask is not None else np.ones(res_pix.shape[-2:], np.uint8),
            dtype=np.uint8)))
        out_bc.append(bc)
        out_pt.append(pt)
        out_h.append(res_pix.shape[-2])
        out_w.append(res_pix.shape[-1])
    cols = {}
    for c in batch.column_names:
        if c in ("pixels", "mask", "padding"):
            continue  # padding is consumed: outputs are core-sized
        cols[c] = batch[c]
    # kernels may change the grid (BlockStatistics downsample) — record
    # the actual output dims, and RESCALE cell_size to match (extent is
    # unchanged, so cell_size must grow when dims shrink or downstream
    # gradient kernels compute slopes at the wrong scale)
    if "cell_size" in cols and any(
            oh != int(h_l[i]) or ow != int(w_l[i])
            for i, (oh, ow) in enumerate(zip(out_h, out_w))):
        cs = batch["cell_size"].to_pylist()
        new_cs = [[csx * int(w_l[i]) / max(ow, 1),
                   csy * int(h_l[i]) / max(oh, 1)]
                  for i, ((csx, csy), oh, ow) in enumerate(zip(cs, out_h, out_w))]
        cols["cell_size"] = pa.array(new_cs, batch["cell_size"].type)
    cols["height"] = pa.array(out_h, pa.int32())
    cols["width"] = pa.array(out_w, pa.int32())
    cols["band_count"] = pa.array(out_bc, pa.int32())
    cols["pixel_type"] = pa.array(out_pt, pa.string())
    cols["pixels"] = pa.array(out_pixels, pa.binary())
    cols["mask"] = pa.array(out_masks, pa.binary())
    return pa.table(cols)


def apply_kernel(ds: rd.Dataset, kernel: Kernel,
                 out_pixel_type: str | None = None) -> rd.Dataset:
    """The MB lowering: stateless tasks, Arrow batches.  A batch is a whole
    block: Ray fuses a map into the read before it only without a
    ``batch_size``, and a storage-aligned read's block is one scene or
    ty-band already (stages/aligned.py)."""
    return ds.map_batches(
        lambda b: run_kernel_on_batch(b, kernel, out_pixel_type),
        batch_format="pyarrow", zero_copy_batch=True)


def tile_stats(ds: rd.Dataset) -> rd.Dataset:
    """Per-tile masked summary statistics (first band): a cheap reduction
    used to gate raster outputs in row-form (mean/min/max/valid count).

    Models the reference's per-raster ``statistics`` info
    (functions/Reference.py:158-163) computed engine-side.
    """
    def _stats(batch: pa.Table) -> pa.Table:
        ids, means, mins, maxs, valids = [], [], [], [], []
        tid = batch["tile_id"].to_pylist()
        for i, pix, msk in tilecodec.iter_tiles(batch):
            b0 = pix if pix.ndim == 2 else pix[0]
            valid = msk.astype(bool)
            vals = b0[valid].astype(np.float64)
            ids.append(tid[i])
            if vals.size:
                means.append(float(vals.mean())); mins.append(float(vals.min()))
                maxs.append(float(vals.max())); valids.append(int(vals.size))
            else:
                means.append(float("nan")); mins.append(float("nan"))
                maxs.append(float("nan")); valids.append(0)
        return pa.table({"tile_id": pa.array(ids), "mean": pa.array(means, pa.float64()),
                         "min": pa.array(mins, pa.float64()), "max": pa.array(maxs, pa.float64()),
                         "valid_px": pa.array(valids, pa.int64())})
    return ds.map_batches(_stats, batch_format="pyarrow", zero_copy_batch=True)
