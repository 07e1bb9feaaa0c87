"""One driver budget, and the joins and merges that read it.

``DRIVER_MAX_BYTES`` is the only size that picks a lowering anywhere in
the library.  Every collect-or-shuffle choice compares with it a byte size
known before anything is pulled: ``Dataset.size_bytes()`` of a
materialized Dataset (block metadata only), or a count known from a
parquet footer or the driver times the row's fixed width.  At or below
the budget the data is gathered on the driver (or broadcast with
``ray.put``); above it, rows meet in an exchange.

``key_join(fact, dim, on, how, dim_rows)`` joins a fact Dataset to a
dimension side on one integer key column of the same name on both sides;
the dim side is sized as ``dim_rows`` × 32 B:

- **broadcast** (within the budget): the dim side is collected once,
  sorted by key and ``ray.put`` as (sorted int64 keys, columns); each fact
  batch does one left and one right ``searchsorted``, one ``np.repeat``
  and one Arrow ``take``, so repeated dim keys fan out exactly as in a
  hash join.  No exchange.
- **shuffle**: ``hash_join`` on the int64-cast key.

``how`` is ``inner``, ``left_outer``, ``semi`` or ``anti``.  Both arms cast
the key to int64 on both sides and return the fact's columns followed by
the dim's non-key columns (``inner``, ``left_outer``; misses are null) or
the fact's columns alone (``semi``, ``anti``): the same names, order and
dtypes either way.  Keys must be non-null.  Row order is not defined.

``hash_join(left, right, on, how, right_on=None)`` is the library's one
``Dataset.join``, over ``join_partitions()`` partitions, guarded against
Ray 2.49's empty-first-block fault (see its docstring).

``merge_by_key(ds, key, fn, nbytes)`` applies ``fn`` to whole key groups of
``ds`` and returns the result as a pandas frame: once over every row on
the driver within the budget, per group after a ``groupby(key)`` above it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

# bytes at/below which a side is gathered on the driver or broadcast with
# ray.put (64 MB: a narrow 2M-row dim side at 32 B/row)
DRIVER_MAX_BYTES = 64_000_000

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

    if dim_rows * 32 > DRIVER_MAX_BYTES:
        # cast after the guard: a map over an empty side loses its schema
        fact, dim = (_guarded(rd.from_arrow(ds) if isinstance(ds, pa.Table) else ds)
                     .map_batches(int64_key, batch_format="pyarrow")
                     for ds in (fact, dim))
        return hash_join(fact, dim, on, _SHUFFLE_TYPE[how])

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


@ray.remote
def _null_row(t: pa.Table) -> pa.Table:
    return pa.table([pa.nulls(1, c.type) for c in t.columns], names=t.column_names)


def _guarded(ds: rd.Dataset) -> rd.Dataset:
    """``ds`` materialized, without its empty blocks and led by one all-null
    row (see ``hash_join``)."""
    ds = ds.materialize()
    rows = [m.num_rows for b in ds.iter_internal_ref_bundles() for m in b.metadata]
    full = [r for r, n in zip(ds.to_arrow_refs(), rows) if n]
    if full:
        head = _null_row.remote(full[0])
    else:
        s = ds.schema().base_schema
        head = ray.put(pa.table([pa.nulls(1, t) for t in s.types], schema=s))
    return rd.from_arrow_refs([head, *full])


def hash_join(left: rd.Dataset, right: rd.Dataset, on: str | tuple[str, ...],
              how: str, right_on: str | None = None) -> rd.Dataset:
    """``Dataset.join(join_type=how)`` of ``left`` on the key column(s)
    ``on`` with ``right`` on ``right_on`` (default ``on``), over
    ``join_partitions()`` partitions.

    Ray 2.49's hash join gives its partitions a side's schema only from the
    first block it receives, and fails ("No match ... for key field
    reference") in any partition that then gets no rows of that side when
    that block is empty.  So each side is materialized, its empty blocks
    are dropped and it is led by one all-null row, which matches nothing;
    rows whose (first) ``on`` key is null are dropped from the result, so
    keys must be non-null for ``left_outer`` and ``left_anti``.  An empty
    side must keep its Arrow schema (a map over an empty block drops it)."""
    from ..sources import join_partitions

    on = (on,) if isinstance(on, str) else tuple(on)
    return _guarded(left).join(
        _guarded(right), join_type=how, num_partitions=join_partitions(), on=on,
        right_on=(right_on,) if right_on else on).map_batches(
            lambda b: b.filter(b[on[0]].is_valid()), batch_format="pyarrow")


def merge_by_key(ds: rd.Dataset, key: str,
                 fn: Callable[[pa.Table], pa.Table], nbytes: int) -> pd.DataFrame:
    """``fn`` over whole ``key`` groups of ``ds``, as one pandas frame.
    ``fn`` maps an Arrow table holding whole groups to a table, so it may
    see one group or all of them.  Within the budget (``nbytes`` is the
    size of ``ds``, known before anything is pulled) the blocks are
    concatenated once and ``fn`` runs once on the driver; above it,
    ``groupby(key).map_groups(fn)`` over ``join_partitions()``
    partitions."""
    if nbytes <= DRIVER_MAX_BYTES:
        return fn(_collect(ds)).to_pandas()
    from ..sources import join_partitions

    return (ds.groupby(key, num_partitions=join_partitions())
            .map_groups(fn, batch_format="pyarrow").to_pandas())
