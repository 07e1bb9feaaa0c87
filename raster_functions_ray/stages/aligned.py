"""Storage-aligned reads: one Ray Data read task per unit of co-located tiles.

The tile writer keeps each scene, and so all epochs of a footprint, in row
groups that never straddle scenes; halos and stack reduces then need no
exchange.  Each read task does one pruned parquet read of its unit and
finishes it in place (edge padding, or the stack reduce) into one block.  Ray Data fuses whole-block maps (``tile_map``) into this Read
operator, so a unit goes from storage to stats in one task.
"""

from __future__ import annotations

from typing import Callable

import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask


def scenes(tiles_path: str, bands: int | None, **agg) -> pd.DataFrame:
    """One row per scene from a pixel-free read: ``scene_id``, tile origin
    ``tx0``/``ty0``, last tile row ``ty1`` and the named aggregates ``agg``."""
    import pyarrow.parquet as pq

    cols = {"scene_id", "band_count", "tx", "ty"} | {c for c, _ in agg.values()}
    mdf = pq.read_table(tiles_path, columns=sorted(cols)).to_pandas()
    if bands is not None:
        mdf = mdf[mdf["band_count"] == bands]
    return mdf.groupby("scene_id").agg(tx0=("tx", "min"), ty0=("ty", "min"),
                                       ty1=("ty", "max"), **agg).reset_index()


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
