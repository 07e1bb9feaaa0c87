"""Function-chain builder: the engine analog of ``.rft.xml`` templates.

A chain is a list of ``Op``s lowered onto Ray Data stages by a tiny planner
(SURVEY.md §2.7, §3.2):

- consecutive pointwise ops (padding == 0) FUSE into one ``map_batches``
  stage — the per-tile kernels compose in-process exactly like the
  reference's demand-driven pull evaluation fuses a template per block
  (README.md:4-5, functions/VineyardAnalysis.rft.xml:27-115);
- an op with ``padding > 0`` forces a halo-exchange stage before it;
- an op with ``group == True`` lowers to a grouped stack reduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import ray.data as rd

from ..stages import composite, halo, tile_map


@dataclass
class Op:
    """One node of a function chain — the engine's analog of the reference
    raster-function protocol (getConfiguration/updateRasterInfo/
    updatePixels, functions/Reference.py:23-313; SURVEY.md §2.7).

    kernel: (pixels, mask, meta) -> (pixels, mask) over one tile; for
    ``padding > 0`` the kernel receives the padded arrays and must return
    the trimmed core (reference updatePixels contract).

    ``state_factory``: built ONCE PER ACTOR (the engine's fix for the
    reference's refit-per-block anti-pattern, e.g.
    functions/KNearestNeighborsClassifier.py:81-128); the kernel then
    receives it as a 4th argument — lowered onto an actor-pool
    map_batches.

    ``group_key``: lowers the op onto a grouped stack reduce over
    co-registered scenes (the ``dataType='rasters'`` shape,
    functions/Reference.py:214-217); the kernel must then be a
    StackReduce ``(stack, masks, gdf) -> (out, out_mask)``.  Currently the
    one supported key is ("tx", "ty") — the footprint grid.
    """

    name: str
    kernel: Callable
    padding: int = 0
    out_pixel_type: str | None = None
    state_factory: Callable | None = None
    group_key: tuple | None = None


class _StatefulStage:
    """Actor-pool lowering for an Op with state_factory: state built once
    in __init__ (per actor), batches flow through run_kernel_on_batch."""

    def __init__(self, factory, kernel, out_pixel_type):
        self.state = factory()
        self.kernel = kernel
        self.out_pixel_type = out_pixel_type

    def __call__(self, batch):
        k = lambda p, m, meta: self.kernel(p, m, meta, self.state)
        return tile_map.run_kernel_on_batch(batch, k, self.out_pixel_type)


def _fuse(ops: list[Op]) -> Callable:
    def fused(pix: np.ndarray, msk: np.ndarray, meta: dict):
        for op in ops:
            pix, msk = op.kernel(pix, msk, meta)
            if msk is None:
                msk = np.ones(np.asarray(pix).shape[-2:], np.uint8)
            if op is not ops[-1] and op.out_pixel_type is not None:
                # intermediate casts are SEMANTICS, not formatting: unfused,
                # each stage boundary astypes (tile_map), and a downstream
                # threshold/colormap must see the truncated values
                pix = np.asarray(pix).astype(np.dtype(op.out_pixel_type), copy=False)
        return pix, msk
    return fused


def build_chain(ds: rd.Dataset, ops: list[Op], tiles_path: str | None = None,
                bands: int | None = None,
                scene_ids: list[int] | None = None) -> rd.Dataset:
    """Lower a chain onto Dataset stages, fusing pointwise runs.

    When the chain STARTS with a padded op and ``tiles_path`` is given, the
    halo comes from the shuffle-free storage-aligned read
    (halo.with_halo_from_parquet) instead of the groupby exchange — ``ds``
    is then never executed (lazy).  Mid-chain padded ops always use the
    exchange (their input exists only as a Dataset)."""
    i = 0
    while i < len(ops):
        op = ops[i]
        if op.group_key is not None:
            if tuple(op.group_key) != ("tx", "ty"):
                raise ValueError(f"unsupported group_key {op.group_key!r}")
            ds = composite.stack_reduce(ds, op.kernel, op.out_pixel_type)
            i += 1
            continue
        if op.state_factory is not None:
            if op.padding > 0:
                ds = halo.with_halo(ds, padding=op.padding)
            ds = ds.map_batches(
                _StatefulStage,
                fn_constructor_args=(op.state_factory, op.kernel, op.out_pixel_type),
                batch_format="pyarrow", batch_size=32,
                zero_copy_batch=True, concurrency=2)
            i += 1
            continue
        if op.padding > 0:
            if i == 0 and tiles_path is not None:
                ds = halo.with_halo_from_parquet(tiles_path, padding=op.padding,
                                                 bands=bands, scene_ids=scene_ids)
            else:
                ds = halo.with_halo(ds, padding=op.padding)
            ds = tile_map.apply_kernel(ds, op.kernel, op.out_pixel_type)
            i += 1
            continue
        run = [op]
        j = i + 1
        while j < len(ops) and ops[j].padding == 0 and ops[j].state_factory is None \
                and ops[j].group_key is None:
            run.append(ops[j])
            j += 1
        ds = tile_map.apply_kernel(ds, _fuse(run), run[-1].out_pixel_type)
        i = j
    return ds
