"""One keyed equi-join: broadcast or shuffle, picked from a size known
before anything executes.

``key_join(fact, dim, on, how, dim_rows)`` joins a fact Dataset to a
dimension side on one integer key column of the same name on both sides.
``dim_rows`` is the dim side's row count (or an upper bound on it) taken
from metadata — a parquet footer (``sources.table_rows``) or a size the
driver already holds — so no rows move before the arm is chosen:

- **broadcast** (``dim_rows <= BROADCAST_MAX_ROWS``): the dim side is
  collected once, sorted by key and ``ray.put`` as (sorted int64 keys,
  columns); each fact batch does one left and one right ``searchsorted``,
  one ``np.repeat`` and one Arrow ``take``, so repeated dim keys fan out
  exactly as in a hash join.  No exchange.
- **shuffle**: ``Dataset.join`` over ``join_partitions()`` partitions.

``how`` is ``inner``, ``left_outer``, ``semi`` or ``anti``.  Both arms cast
the key to int64 on both sides and return the fact's columns followed by
the dim's non-key columns (``inner``, ``left_outer``; misses are null) or
the fact's columns alone (``semi``, ``anti``): the same names, order and
dtypes either way.  Keys must be non-null.  Row order is not defined.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

# dim-side rows at/below which the join broadcasts (narrow rows: 32 B/row
# → 64 MB at 2M, the repo's ray.put budget)
BROADCAST_MAX_ROWS = 2_000_000

_SHUFFLE_TYPE = {"inner": "inner", "left_outer": "left_outer",
                 "semi": "left_semi", "anti": "left_anti"}

_BROADCAST_CACHE: dict = {}


def _worker_broadcast(ref):
    """Resolve a ``ray.put`` broadcast once per WORKER process (keyed on
    the object ref), so per-batch map functions don't pay a ray.get +
    deserialize per batch — actor-__init__ semantics for task-pool
    stages."""
    key = ref.hex()
    val = _BROADCAST_CACHE.get(key)
    if val is None:
        if len(_BROADCAST_CACHE) > 8:  # stale refs from finished queries
            _BROADCAST_CACHE.clear()
        val = ray.get(ref)
        _BROADCAST_CACHE[key] = val
    return val


def _collect(dim: rd.Dataset | pa.Table) -> pa.Table:
    if isinstance(dim, pa.Table):
        return dim
    dim = dim.materialize()  # to_arrow_refs alone re-executes for the schema
    tabs = [t for t in ray.get(dim.to_arrow_refs()) if t.num_columns]
    return (pa.concat_tables(tabs, promote_options="default") if tabs
            else dim.schema().base_schema.empty_table())


def key_join(fact: rd.Dataset, dim: rd.Dataset | pa.Table, on: str,
             how: str, dim_rows: int) -> rd.Dataset:
    """``fact`` ⋈ ``dim`` on ``on``; see the module docstring."""
    if how not in _SHUFFLE_TYPE:
        raise ValueError(f"how must be one of {sorted(_SHUFFLE_TYPE)}: {how!r}")

    def int64_key(b: pa.Table) -> pa.Table:
        return b.set_column(b.schema.get_field_index(on), on, b[on].cast(pa.int64()))

    if dim_rows > BROADCAST_MAX_ROWS:
        from ..sources import join_partitions

        def side(ds: rd.Dataset | pa.Table) -> rd.Dataset:
            # Ray 2.49's hash join gives its partitions a side's schema only
            # from the first block it receives, and fails when that block is
            # empty: drop empty blocks and add one null-key row, which
            # matches nothing and is dropped below
            ds = (rd.from_arrow(ds) if isinstance(ds, pa.Table) else ds).materialize()
            s = ds.schema().base_schema
            null_row = pa.table([pa.nulls(1, t) for t in s.types], schema=s)
            rows = [m.num_rows for b in ds.iter_internal_ref_bundles() for m in b.metadata]
            refs = [r for r, n in zip(ds.to_arrow_refs(), rows) if n]
            return rd.from_arrow_refs([ray.put(null_row), *refs]).map_batches(
                int64_key, batch_format="pyarrow")

        return side(fact).join(
            side(dim), join_type=_SHUFFLE_TYPE[how],
            num_partitions=join_partitions(), on=(on,)).map_batches(
                lambda b: b.filter(b[on].is_valid()), batch_format="pyarrow")

    tbl = int64_key(_collect(dim)).sort_by(on)
    ref = ray.put((np.asarray(tbl[on], dtype=np.int64),
                   tbl.drop([on]).combine_chunks()))

    def probe(b: pa.Table) -> pa.Table:
        keys, cols = _worker_broadcast(ref)
        b = int64_key(b)
        k = np.asarray(b[on], dtype=np.int64)
        lo = np.searchsorted(keys, k, "left")
        n = np.searchsorted(keys, k, "right") - lo
        if how in ("semi", "anti"):
            return b.filter(pa.array(n > 0 if how == "semi" else n == 0))
        miss = n == 0
        if how == "left_outer":
            n = np.where(miss, 1, n)
        rows = np.repeat(np.arange(len(k)), n)
        first = np.cumsum(n) - n
        pos = np.repeat(lo - first, n) + np.arange(rows.size)
        idx = pa.array(pos, mask=miss[rows] if how == "left_outer" else None)
        out = b.take(pa.array(rows))
        for name, col in zip(cols.column_names, cols.columns):
            out = out.append_column(cols.schema.field(name), col.take(idx))
        return out

    return fact.map_batches(probe, batch_format="pyarrow")
