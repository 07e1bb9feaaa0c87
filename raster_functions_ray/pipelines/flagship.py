"""Flagship pipeline: interleaved docs → media-ref resolve → NDVI → cell
aggregate.

The shape of the north-star in one run:

1. ``read_parquet(documents)`` → vectorized span explode;
2. media spans aggregated to per-tile reference counts
   (map_batches partial count → small groupby — pre-aggregated shuffle);
3. tile table filtered to 2-band scenes, NDVI kernel per tile (MB stage),
   masked per-tile mean NDVI;
4. ref-counts broadcast via ``ray.put`` and joined map-side (no shuffle:
   the count table is tiny relative to the pixel table);
5. tiles cell-encoded, ``groupby(cell_id)`` aggregate → compact result.

Scales: the only all-to-all moves are (2) over pre-aggregated counts and (5)
over per-tile scalar rows — pixel payloads never shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd
from ray.data.aggregate import Count, Mean, Sum

from .. import synth
from ..functions import pointwise
from ..sources import read_documents, read_tiles, table_rows
from ..stages import cellindex, join, spans


def media_ref_counts(docs: rd.Dataset, n_refs: int, doc_rgs: int | None = None,
                     doc_rows: int | None = None) -> pd.DataFrame:
    """Per-tile media reference counts (media_ref, ref_count), counted
    per batch inside map_batches and merged by ``join.merge_by_key``: on
    the driver while the partials fit the driver budget, else through a
    groupby.  ``n_refs`` bounds the distinct media_ref count (the tile
    count, from a parquet footer); the partials are sized as that many
    16-byte rows.

    Repartition ONLY when the storage layout actually starves parallelism
    (one fat row group of many rows): the v4 synth writer emits many row
    groups, so the read already yields enough blocks and an unconditional
    repartition is a full-payload all-to-all into the same width — free of
    benefit at any scale, and at 100 TB a whole extra pass of the nested
    span payloads through the object store."""
    from ..sources import join_partitions

    if doc_rgs is not None and doc_rgs < 4 and (doc_rows or 0) > 100_000:
        docs = docs.repartition(join_partitions())
    exploded = spans.explode_spans(docs)
    media = spans.media_refs(exploded)

    def partial(b: pa.Table) -> pa.Table:
        # native Arrow hash-count — no pandas round-trip per batch
        g = b.group_by("media_ref").aggregate([([], "count_all")])
        return g.rename_columns(["media_ref", "n"])

    def total(t: pa.Table) -> pa.Table:
        g = t.group_by("media_ref").aggregate([("n", "sum")])
        return g.rename_columns(["media_ref", "ref_count"])

    partials = media.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    return join.merge_by_key(partials, "media_ref", total, n_refs * 16)


def run(sf_dir: str = "/root/testdata/sf0.001") -> rd.Dataset:
    d = synth.synth_dir_for(sf_dir)
    p = synth.params_for(synth.sf_from_dir(sf_dir))

    import os

    import pyarrow.parquet as pq
    doc_path = os.path.join(d, "documents.parquet")
    md = pq.read_metadata(doc_path) if os.path.exists(doc_path) else None
    # the media_ref domain IS the tile id set — its size is free from
    # parquet metadata and drives the merge dispatch
    counts = media_ref_counts(
        read_documents(d),
        table_rows(d, "tiles"),
        doc_rgs=md.num_row_groups if md else None,
        doc_rows=md.num_rows if md else None)
    # sorted (keys, values) arrays: the per-batch lookup below is a
    # vectorized searchsorted, not a per-row dict.get
    _order = np.argsort(counts["media_ref"].to_numpy())
    count_map_ref = ray.put((counts["media_ref"].to_numpy()[_order],
                             counts["ref_count"].to_numpy(np.int64)[_order]))

    tiles = read_tiles(d, bands=2)

    def ndvi_cell_stats(batch: pa.Table) -> pa.Table:
        """ONE fused stage per tile batch: NDVI kernel → masked stats →
        ref-count broadcast join → cell encode.  Pixels are decoded once
        and never re-encoded (the unfused chain round-tripped every tile
        through a binary column between kernel and stats), and the extent
        already on the row feeds cell encoding — no second metadata read."""
        from .. import tilecodec

        ckeys, cvals = ray.get(count_map_ref)
        tid = batch["tile_id"].to_numpy(zero_copy_only=False)
        ext = np.asarray(batch["extent"].to_pylist(), dtype=np.float64)
        means = np.empty(batch.num_rows)
        for i, pix, msk in tilecodec.iter_tiles(batch):
            out = pointwise.ndvi(pix[0], pix[1], "Raw")
            valid = msk.astype(bool)
            means[i] = float(out[valid].astype(np.float64).mean()) if valid.any() else np.nan
        lon, lat = synth.world_to_lonlat((ext[:, 0] + ext[:, 2]) / 2,
                                         (ext[:, 1] + ext[:, 3]) / 2, p)
        pos = np.clip(np.searchsorted(ckeys, tid), 0, max(len(ckeys) - 1, 0))
        _rc = np.where(len(ckeys) and (ckeys[pos] == tid), cvals[pos], 0) \
            if len(ckeys) else np.zeros(tid.size, np.int64)
        return pa.table({
            "tile_id": batch["tile_id"],
            "mean": pa.array(means, pa.float64()),
            "ref_count": pa.array(_rc, pa.int64()),
            "cell_id": pa.array(cellindex.point_cells_batch(lon, lat), pa.int64()),
        })

    stats = tiles.map_batches(ndvi_cell_stats, batch_format="pyarrow",
                              batch_size=32, zero_copy_batch=True)
    # hash groupby with an explicit partition count replaces the former
    # repartition→sort-groupby pair (the repartition coalesced near-empty
    # reduce partitions; hash shuffle sizes them directly) — one exchange
    # instead of two over the per-tile scalar rows
    from ..sources import join_partitions

    return (stats.groupby("cell_id", num_partitions=join_partitions())
            .aggregate(Count(alias_name="n_tiles"),
                       Mean("mean", alias_name="mean_ndvi"),
                       Sum("ref_count", alias_name="doc_refs")))
