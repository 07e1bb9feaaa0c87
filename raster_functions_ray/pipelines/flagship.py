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
from ..sources import read_documents, read_tiles
from ..stages import cellindex, spans


# distinct-media_ref count below which the final merge of per-block count
# partials runs on the driver (partial rows ≤ blocks × distinct refs of
# ~20 B each) instead of paying a groupby exchange whose ~1.2 s fixed
# machinery dwarfs the data (measured: map-only 0.33 s vs 1.6 s with the
# Sum groupby on 23k partial rows at sf0.1)
REF_MERGE_DRIVER_LIMIT = 5_000_000


def media_ref_counts(docs: rd.Dataset, doc_rgs: int | None = None,
                     doc_rows: int | None = None,
                     n_refs_hint: int | None = None):
    """Per-tile media reference counts, pre-aggregated inside map_batches.
    Returns a pandas DataFrame (driver merge) when the ref domain is known
    small, else a Dataset behind the groupby shuffle.

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

    partials = media.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    if n_refs_hint is not None and n_refs_hint <= REF_MERGE_DRIVER_LIMIT:
        frames = [blk.to_pandas()
                  for blk in partials.iter_batches(batch_format="pyarrow")]
        allp = pd.concat(frames, ignore_index=True) if frames else \
            pd.DataFrame({"media_ref": [], "n": []})
        out = (allp.groupby("media_ref", sort=False)["n"].sum()
               .rename("ref_count").reset_index())
        return out
    return partials.groupby("media_ref").aggregate(Sum("n", alias_name="ref_count"))


def run(sf_dir: str = "/root/testdata/sf0.001") -> rd.Dataset:
    d = synth.synth_dir_for(sf_dir)
    p = synth.params_for(synth.sf_from_dir(sf_dir))

    import os

    import pyarrow.parquet as pq
    doc_path = os.path.join(d, "documents.parquet")
    md = pq.read_metadata(doc_path) if os.path.exists(doc_path) else None
    tiles_path = os.path.join(d, "tiles.parquet")
    # the media_ref domain IS the tile id set — its size is free from
    # parquet metadata and drives the merge dispatch
    n_tiles = pq.read_metadata(tiles_path).num_rows \
        if os.path.exists(tiles_path) else None
    counts = media_ref_counts(
        read_documents(d),
        doc_rgs=md.num_row_groups if md else None,
        doc_rows=md.num_rows if md else None,
        n_refs_hint=n_tiles)
    if not isinstance(counts, pd.DataFrame):
        counts = counts.to_pandas()
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
