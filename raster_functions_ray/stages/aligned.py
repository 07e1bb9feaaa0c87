"""Storage-aligned reads: one Ray Data read task per unit of co-located tiles.

This module is the one place that plans and reads storage-aligned units.

- **The plan** comes from the key columns alone: ``scenes`` reads
  ``scene_id``/``tx``/``ty`` (and whatever it aggregates) of the whole tiles
  file in one pixel-free read and aggregates them with Arrow, returning with
  each scene the ids of the parquet row groups that hold its rows.
- **The reads** are by row group: a read task reads exactly its unit's row
  groups (``read_rows``) and applies the row predicate only when those row
  groups also hold other rows.  The tile writer keeps each scene in row
  groups of its own, so halos and stack reduces need no exchange and, on
  such files, no filter.
- Both run single-threaded (``use_threads=False``): a Ray task holds one
  CPU, and Arrow's thread pool would only oversubscribe it.

Each read task finishes its unit in place (edge padding, or the stack
reduce) into one block.  Ray Data fuses whole-block maps (``tile_map``) into
this Read operator, so a unit goes from storage to stats in one task.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask


def scenes(tiles_path: str, bands: int | None, **agg) -> pd.DataFrame:
    """One row per scene, in ``scene_id`` order, from a pixel-free read:
    tile origin ``tx0``/``ty0``, last tile row ``ty1``, the named Arrow hash
    aggregates ``agg`` (``name=(column, "first")``) and the scene's row
    groups: ``row_groups`` (ascending ids) with the first and last tile row
    the scene has in each (``rg_ty0``, ``rg_ty1``)."""
    pf = pq.ParquetFile(tiles_path)
    md = pf.metadata
    cols = {"scene_id", "band_count", "tx", "ty"} | {c for c, _ in agg.values()}
    t = pf.read(sorted(cols), use_threads=False)
    rg = np.repeat(np.arange(md.num_row_groups, dtype=np.int32),
                   [md.row_group(i).num_rows for i in range(md.num_row_groups)])
    t = t.append_column("rg", pa.array(rg))
    if bands is not None:
        t = t.filter(pc.equal(t["band_count"], bands))
    sc = (t.group_by("scene_id", use_threads=False)
          .aggregate([("tx", "min"), ("ty", "min"), ("ty", "max")]
                     + [(c, fn) for c, fn in agg.values()])
          .sort_by("scene_id"))
    sc = sc.select(["scene_id", "tx_min", "ty_min", "ty_max",
                    *(f"{c}_{fn}" for c, fn in agg.values())])
    sc = sc.rename_columns(["scene_id", "tx0", "ty0", "ty1", *agg])
    parts = (t.group_by(["scene_id", "rg"], use_threads=False)
             .aggregate([("ty", "min"), ("ty", "max")])
             .sort_by([("scene_id", "ascending"), ("rg", "ascending")]))
    cuts = np.flatnonzero(np.diff(parts["scene_id"].to_numpy())) + 1
    out = sc.to_pandas()
    for name, col in (("row_groups", "rg"), ("rg_ty0", "ty_min"), ("rg_ty1", "ty_max")):
        out[name] = pd.Series([a.tolist() for a in np.split(parts[col].to_numpy(), cuts)]
                              if len(parts) else [], dtype=object)
    return out


def read_rows(path: str, row_groups: list[int], scene_ids: list[int],
              ty_range: tuple[int, int] | None = None) -> pa.Table:
    """The rows of ``scene_ids`` (within tile rows ``[lo, hi)`` if
    ``ty_range`` is given) from ``row_groups`` of ``path``, in file order:
    the same table as ``pq.read_table(path, filters=...)`` with that
    predicate, when ``row_groups`` are all the row groups holding such rows."""
    pf = pq.ParquetFile(path)
    # one chunk per row group: read_row_groups decodes them all into one
    # growing buffer per column, measured 1.5× slower on the pixel blobs
    t = pa.concat_tables([pf.read_row_group(i, use_threads=False) for i in row_groups])
    keep = pc.is_in(t["scene_id"], value_set=pa.array(scene_ids, t["scene_id"].type))
    if ty_range is not None:
        keep = pc.and_(keep, pc.and_(pc.greater_equal(t["ty"], ty_range[0]),
                                     pc.less(t["ty"], ty_range[1])))
    # the filter copies every pixel blob, so only pay it where a row group
    # also holds rows outside the unit
    return t if pc.all(keep).as_py() else t.filter(keep)


class UnitDatasource(Datasource):
    """One read task per unit, an argument tuple: ``read_unit(*unit)`` is
    the unit's one block."""

    def __init__(self, name: str, read_unit: Callable[..., pa.Table], units: list[tuple]):
        self._name, self._read_unit, self._units = name, read_unit, units

    def get_name(self) -> str:
        return self._name

    def estimate_inmemory_data_size(self) -> None:
        return None

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        fn = self._read_unit
        meta = BlockMetadata(num_rows=None, size_bytes=None, input_files=None, exec_stats=None)
        return [ReadTask(lambda u=u: [fn(*u)], meta) for u in self._units]


def read_units(name: str, read_unit: Callable[..., pa.Table], units: list[tuple]) -> rd.Dataset:
    # one block per unit: without the override Ray splits the read blocks up
    # to its default parallelism (3 tiny units: 0.78 s instead of 0.10 s per
    # Dataset, Ray on one pinned Xeon core)
    return rd.read_datasource(UnitDatasource(name, read_unit, units),
                              override_num_blocks=max(1, len(units)))
