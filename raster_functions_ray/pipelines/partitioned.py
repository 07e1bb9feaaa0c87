"""Resumable partitioned pipeline: per-scene hillshade with lineage.

The "ray job submit on a fixed cluster, resume mid-job" shape of the
north-rule: output is partitioned by scene (one parquet dir per scene,
written atomically), every partition emits a lineage record with row/byte
metrics, and a rerun skips finished scenes via the checkpoint store —
see state/checkpoint.py.
"""

from __future__ import annotations

import os

import pyarrow as pa

from .. import synth
from ..functions import focal as fc
from ..stages import aligned, halo, tile_map
from ..state.checkpoint import CheckpointStore, input_fingerprint


def hillshade_scene(synth_d: str, scene_id: int) -> pa.Table:
    """One partition's compute: DEM scene → halo → hillshade tile rows."""
    padded = halo.with_halo_from_parquet(os.path.join(synth_d, "tiles.parquet"), padding=1,
                                         scene_ids=[scene_id])
    out = tile_map.apply_kernel(padded, fc.hillshade_kernel, out_pixel_type="u1")
    batches = list(out.iter_batches(batch_size=64, batch_format="pyarrow"))
    return pa.concat_tables(batches) if batches else pa.table({})


def run(sf_dir: str, ckpt_root: str, scene_ids: list[int] | None = None) -> dict:
    """Resume-aware run; returns {'computed': [...], 'skipped': [...]}."""
    d = synth.synth_dir_for(sf_dir)
    sids = (aligned.scenes(os.path.join(d, "tiles.parquet"), bands=1)["scene_id"].tolist()
            if scene_ids is None else scene_ids)
    store = CheckpointStore(ckpt_root)
    fp = input_fingerprint([os.path.join(d, "tiles.parquet")])
    done = store.finished_keys("hillshade", input_hash=fp)
    computed, skipped = [], []
    for sid in sids:
        key = f"scene={sid}"
        if key in done:
            skipped.append(sid)
            continue
        tbl = hillshade_scene(d, sid)
        store.write_partition("hillshade", key, tbl, input_hash=fp)
        computed.append(sid)
    return {"computed": computed, "skipped": skipped,
            "lineage_rows": len(store.lineage())}
