"""Halo exchange for focal ops: neighbor strips shuffled on the tile key.

The reference's host hands each focal function a block padded by ``padding``
pixels (functions/Reference.py:100, functions/deprecated/Hillshade.py:60).
The engine reconstructs that halo explicitly:

1. ``emit_strips``: every tile row emits ≤9 contributions — its full body to
   itself, thin edge strips (p rows/cols) to each neighbor key.  Only the
   strips travel to other partitions; the all-to-all volume beyond the
   identity contribution is O(perimeter), not O(area).
2. ``groupby(scene_id, tx, ty).map_groups(assemble)``: pads the body,
   overlays neighbor strips; scene-border pads replicate the edge
   (mask stays 0 there, so the 3×3 mask erosion marks the border invalid —
   SURVEY.md §7.2).

``with_halo_from_parquet`` needs no exchange: scenes are co-located in
storage, so each read task pads one whole scene as it reads.

Output rows carry ``pixels``/``mask`` WITH the halo plus a ``padding``
column; focal kernels trim it like the reference trims ``[1:-1, 1:-1]``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from .. import tilecodec

_PASS_META = ("tile_id", "width", "height", "band_count", "pixel_type", "extent",
              "cell_size", "srid", "nodata", "acq_ts", "sun_azimuth", "sun_elevation")


def _sel(n: int, d: int, p: int) -> slice:
    # contributor-side selection for offset d = target − contributor
    if d == 1:
        return slice(n - p, n)
    if d == -1:
        return slice(0, p)
    return slice(0, n)


def emit_strips_batch(batch: pa.Table, padding: int) -> pa.Table:
    p = padding
    metas = {c: batch[c].to_pylist() for c in batch.column_names
             if c not in ("pixels", "mask")}
    out: dict[str, list] = {
        "scene_id": [], "tx": [], "ty": [], "dx": [], "dy": [],
        "strip": [], "strip_mask": [], "sh": [], "sw": [],
    }
    for c in _PASS_META:
        out[c] = []
    for i, pix, msk in tilecodec.iter_tiles(batch):
        if pix.ndim == 2:
            pix = pix[None]
        h, w = pix.shape[-2:]
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ys, xs = _sel(h, dy, p), _sel(w, dx, p)
                strip = pix[:, ys, xs]
                smask = msk[ys, xs]
                out["scene_id"].append(metas["scene_id"][i])
                out["tx"].append(metas["tx"][i] + dx)
                out["ty"].append(metas["ty"][i] + dy)
                out["dx"].append(dx)
                out["dy"].append(dy)
                out["strip"].append(tilecodec.encode(strip))
                out["strip_mask"].append(tilecodec.encode(smask))
                out["sh"].append(strip.shape[-2])
                out["sw"].append(strip.shape[-1])
                for c in _PASS_META:
                    # meta of the CONTRIBUTOR; only the identity row's meta is
                    # used at assembly (dx=dy=0)
                    out[c].append(metas[c][i] if (dx, dy) == (0, 0) else None)
    t = {k: pa.array(v) for k, v in out.items()}
    t["dx"] = pa.array(out["dx"], pa.int8())
    t["dy"] = pa.array(out["dy"], pa.int8())
    return pa.table(t)


def assemble_group(g: pd.DataFrame, padding: int) -> pd.DataFrame:
    p = padding
    center = g[(g["dx"] == 0) & (g["dy"] == 0)]
    if center.empty:
        # strips addressed to a tile outside the scene grid — drop
        return pd.DataFrame()
    c = center.iloc[0]
    bc, pt = int(c["band_count"]), c["pixel_type"]
    h, w = int(c["height"]), int(c["width"])
    body = tilecodec.decode(c["strip"], pt, bc, h, w)
    if body.ndim == 2:
        body = body[None]
    # pad with body-edge replication, then overlay real neighbor strips
    padded = np.pad(body, ((0, 0), (p, p), (p, p)), mode="edge")
    pmask = np.zeros((h + 2 * p, w + 2 * p), dtype=np.uint8)
    pmask[p:p + h, p:p + w] = tilecodec.decode_mask(c["strip_mask"], h, w)
    present: set[tuple[int, int]] = set()
    for _, row in g.iterrows():
        dx, dy = int(row["dx"]), int(row["dy"])
        present.add((dx, dy))
        if (dx, dy) == (0, 0):
            continue
        sh, sw = int(row["sh"]), int(row["sw"])
        strip = tilecodec.decode(row["strip"], pt, bc, sh, sw)
        if strip.ndim == 2:
            strip = strip[None]
        smask = tilecodec.decode_mask(row["strip_mask"], sh, sw)
        ys = slice(0, p) if dy == 1 else (slice(h + p, h + 2 * p) if dy == -1 else slice(p, h + p))
        xs = slice(0, p) if dx == 1 else (slice(w + p, w + 2 * p) if dx == -1 else slice(p, w + p))
        padded[:, ys, xs] = strip
        pmask[ys, xs] = smask
    # scene-border sides: replicate inward-adjacent (now strip-filled) values
    # so the result equals np.pad(whole_scene, mode='edge') — x-fill then
    # y-fill covers the corners because the scene grid is rectangular
    # (mask stays 0 outside the scene)
    if (1, 0) not in present:   # no left neighbor
        padded[:, :, 0:p] = padded[:, :, p:p + 1]
    if (-1, 0) not in present:  # no right neighbor
        padded[:, :, w + p:] = padded[:, :, w + p - 1:w + p]
    if (0, 1) not in present:   # no top neighbor
        padded[:, 0:p, :] = padded[:, p:p + 1, :]
    if (0, -1) not in present:  # no bottom neighbor
        padded[:, h + p:, :] = padded[:, h + p - 1:h + p, :]
    rec = {k: [c[k]] for k in _PASS_META}
    rec.update({"scene_id": [c["scene_id"]], "tx": [int(c["tx"])], "ty": [int(c["ty"])],
                "padding": [p],
                "pixels": [tilecodec.encode(padded if bc > 1 else padded[0])],
                "mask": [tilecodec.encode(pmask)]})
    return pd.DataFrame(rec)


def _shuffle_partitions() -> int:
    """Post-shuffle parallelism: groupby emits as many partitions as the
    input has blocks, so a small-block input caps every downstream stage.
    Spread to ~4 tasks per CPU (a no-op at real scale where reads already
    produce hundreds of blocks)."""
    from ..sources import cluster_cpus

    return max(4 * cluster_cpus(), 32)


def with_halo(tiles: rd.Dataset, padding: int = 1, strategy: str = "scene") -> rd.Dataset:
    """tiles → padded tiles (pixels/mask include a ``padding``-px halo).

    Two interchangeable lowerings (identical output, proven by
    tests/test_raster_pipelines.py):

    - ``"scene"`` (default): one groupby(scene_id) shuffle, then vectorized
      per-scene mosaic/pad/re-slice.  Assumes a scene fits a worker's heap
      (a 256-tile 7-band u2 scene ≈ 14 MB — it does by construction).
    - ``"strips"``: every tile emits ≤9 edge strips shuffled on
      (scene_id, tx, ty); all-to-all volume beyond the identity row is
      O(perimeter).  Works for arbitrarily large scenes.

    An in-memory Dataset needs the exchange: Ray splits blocks at arbitrary
    row boundaries, so "one block = whole scenes" holds only where the read
    task itself builds the block (with_halo_from_parquet).
    """
    if strategy == "strips":
        strips = tiles.map_batches(lambda b: emit_strips_batch(b, padding),
                                   batch_format="pyarrow", batch_size=32,
                                   zero_copy_batch=True)
        strips = strips.repartition(_shuffle_partitions())
        return strips.groupby(["scene_id", "tx", "ty"]).map_groups(
            lambda g: assemble_group(g, padding), batch_format="pandas")
    # pre-shuffle spread sets BOTH the sort reduce-partition count and the
    # downstream kernel stage's block count (map_batches runs one task per
    # block) — one repartition, reused by every later stage
    tiles = tiles.repartition(_shuffle_partitions())
    return tiles.groupby("scene_id").map_groups(
        lambda g: pad_scene_group(g, padding), batch_format="pyarrow")


def pad_scene_group(g: "pa.Table", padding: int) -> "pa.Table":
    """Scene-level halo: mosaic → edge-pad → slice per-tile padded blocks.

    Matches assemble_group output exactly (scene borders edge-replicated,
    pad mask 0) — gate: test_halo_matches_whole_scene_hillshade runs on
    every lowering."""
    p = padding
    n = g.num_rows
    txs = np.asarray(g["tx"]).astype(np.int64)
    tys = np.asarray(g["ty"]).astype(np.int64)
    bc = int(g["band_count"][0].as_py())
    pt = g["pixel_type"][0].as_py()
    h = int(g["height"][0].as_py())
    w = int(g["width"][0].as_py())
    tx0, ty0 = txs.min(), tys.min()
    nx, ny = int(txs.max() - tx0 + 1), int(tys.max() - ty0 + 1)
    if n != nx * ny:
        # a hole in the mosaic would be zero-filled here while the strips
        # lowering edge-replicates at coverage borders — the two strategies
        # would silently diverge, so refuse instead (sparse scenes take the
        # strips lowering)
        raise ValueError(
            f"scene halo needs a dense tile rectangle: got {n} tiles for a "
            f"{nx}x{ny} grid; use strategy='strips'")
    scene = np.zeros((bc, ny * h, nx * w), dtype=np.dtype(pt))
    smask = np.zeros((ny * h, nx * w), dtype=np.uint8)
    pix_col, mask_col = g["pixels"], g["mask"]
    for i in range(n):
        a = tilecodec.decode(pix_col[i].as_buffer(), pt, bc, h, w)
        if a.ndim == 2:
            a = a[None]
        y0, x0 = int(tys[i] - ty0) * h, int(txs[i] - tx0) * w
        scene[:, y0:y0 + h, x0:x0 + w] = a
        smask[y0:y0 + h, x0:x0 + w] = tilecodec.decode_mask(mask_col[i].as_buffer(), h, w)
    pscene = np.pad(scene, ((0, 0), (p, p), (p, p)), mode="edge")
    pmask = np.zeros((ny * h + 2 * p, nx * w + 2 * p), dtype=np.uint8)
    pmask[p:p + ny * h, p:p + nx * w] = smask
    out_pix, out_mask = [], []
    for i in range(n):
        y0, x0 = int(tys[i] - ty0) * h, int(txs[i] - tx0) * w
        block = pscene[:, y0:y0 + h + 2 * p, x0:x0 + w + 2 * p]
        out_pix.append(tilecodec.encode(block if bc > 1 else block[0]))
        out_mask.append(tilecodec.encode(pmask[y0:y0 + h + 2 * p, x0:x0 + w + 2 * p]))
    cols = {c: g[c] for c in g.column_names if c not in ("pixels", "mask")}
    cols["padding"] = pa.array([p] * n, pa.int64())
    cols["pixels"] = pa.array(out_pix, pa.binary())
    cols["mask"] = pa.array(out_mask, pa.binary())
    return pa.table(cols)


# ------------------------------------------------------------------------
# Shuffle-free halo from storage (SURVEY.md §2.7(c)): scenes are ALREADY
# co-located in storage, so a read task of stages/aligned.py pads one whole
# scene as it reads.  A violated partitioning assumption degrades to an
# error (incomplete scene -> dense-rectangle check), never to wrong pixels.
# ------------------------------------------------------------------------

def _pad_scene_from_parquet(path: str, scene_id: int, padding: int) -> pa.Table:
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    return pad_scene_group(pq.read_table(path, filters=pc.field("scene_id") == scene_id),
                           padding)


def with_halo_from_parquet(tiles_path: str, padding: int = 1, bands: int | None = None,
                           scene_ids: list[int] | None = None) -> rd.Dataset:
    """Zero-shuffle halo: one read task per scene, pruned parquet read +
    pad, one block of padded tiles per task.  Output identical to
    with_halo() (gate: tests/test_raster_pipelines.py).

    ``scene_ids`` restricts padding to those scenes — dropped scenes'
    pixels are never read, decoded or padded (a post-hoc Dataset filter
    would pay the full halo cost first)."""
    from . import aligned

    sc = aligned.scenes(tiles_path, bands)
    if scene_ids is not None:
        sc = sc[sc["scene_id"].isin(scene_ids)]
    units = [(tiles_path, int(s), padding) for s in sc["scene_id"]]
    return aligned.read_units("HaloScenes", _pad_scene_from_parquet, units)
