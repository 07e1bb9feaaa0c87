"""Per-scene hillshade partitions for the resumable pipeline.

``hillshade_scene`` is one partition's compute; ``state.checkpoint.
run_partitioned`` writes each scene atomically with its lineage record and
skips finished scenes on a rerun (``rasterqueries.q_resumable_hillshade``).
"""

from __future__ import annotations

import os

import pyarrow as pa

from ..functions import focal as fc
from ..stages import halo, tile_map


def hillshade_scene(synth_d: str, scene_id: int) -> pa.Table:
    """One partition's compute: DEM scene → halo → hillshade tile rows."""
    padded = halo.with_halo_from_parquet(os.path.join(synth_d, "tiles.parquet"), padding=1,
                                         scene_ids=[scene_id])
    out = tile_map.apply_kernel(padded, fc.hillshade_kernel, out_pixel_type="u1")
    batches = list(out.iter_batches(batch_size=64, batch_format="pyarrow"))
    return pa.concat_tables(batches) if batches else pa.table({})

