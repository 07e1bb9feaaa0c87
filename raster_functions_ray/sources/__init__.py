"""Dataset sources/sinks for the engine's logical tables.

The reference has no readers/writers — the ArcGIS host supplies pixel blocks
(SURVEY.md §2.6); here every table is parquet read via
``ray.data.read_parquet`` with column pruning at the read.

Lance (the north-rule's table format) is supported when the ``lance``
package is importable: a ``<name>.lance`` dataset next to the parquet file
wins and is read via ``ray.data.read_lance`` with the same column pruning.
This container ships no lance wheel, so the parquet path is what the tests
exercise; the dispatch itself is covered by ``tests/test_engine_extras.py``.
"""

from __future__ import annotations

import os

import ray.data as rd

try:  # pragma: no cover - lance is absent in this container
    import lance  # noqa: F401

    _HAVE_LANCE = True
except ImportError:
    _HAVE_LANCE = False


def _read_any(base: str, columns: list[str] | None = None, **kw) -> rd.Dataset:
    """``<base>.lance`` (if the lance reader is available) else
    ``<base>.parquet`` — one dispatch point so the document / driver-table
    sources are format-agnostic (``read_tiles`` stays parquet-only: its
    row-group pushdown contract is parquet-specific)."""
    lance_dir = base + ".lance"
    if _HAVE_LANCE and os.path.isdir(lance_dir):
        if kw.get("filter") is not None:
            # read_lance takes SQL-string filters, not pyarrow expressions;
            # silently dropping the predicate would return wrong (unfiltered)
            # rows, so refuse until a translation is implemented
            raise NotImplementedError(
                "pyarrow filter= is not translated for the lance path yet")
        kw.pop("filter", None)
        return rd.read_lance(lance_dir, columns=columns, **kw)
    return rd.read_parquet(base + ".parquet", columns=columns, **kw)


def read_table_arrow(sf_dir: str, name: str, columns: list[str] | None = None):
    """Whole-table driver-side read as a pyarrow Table (small tables /
    broadcast sides), honoring the lance-or-parquet dispatch.  No Ray Data
    execution (about 0.09 s on one CPU) and no ``pyarrow.dataset`` layer:
    one single-threaded read of the file."""
    import pyarrow.parquet as pq

    base = os.path.join(sf_dir, name)
    if _HAVE_LANCE and os.path.isdir(base + ".lance"):
        import lance

        return lance.dataset(base + ".lance").to_table(columns=columns)
    return pq.ParquetFile(base + ".parquet").read(columns, use_threads=False)


def table_rows(sf_dir: str, name: str) -> int:
    """Row count of a driver table from metadata alone (the parquet footer
    or the lance manifest), honoring the lance-or-parquet dispatch — sizes
    a join side before anything executes."""
    import pyarrow.parquet as pq

    base = os.path.join(sf_dir, name)
    if _HAVE_LANCE and os.path.isdir(base + ".lance"):
        import lance

        return lance.dataset(base + ".lance").count_rows()
    return pq.read_metadata(base + ".parquet").num_rows


def read_table_filtered(sf_dir: str, name: str, columns: list[str], flt):
    """Driver-side pushdown read of a SMALL filtered slice (candidate-verify
    reads) as a pyarrow Table, honoring the lance-or-parquet dispatch —
    query code must not hardcode ``<name>.parquet`` next to a read_table
    that would resolve to ``<name>.lance``."""
    import pyarrow.parquet as pq

    base = os.path.join(sf_dir, name)
    if _HAVE_LANCE and os.path.isdir(base + ".lance"):
        import lance

        return lance.dataset(base + ".lance").to_table(columns=columns, filter=flt)
    return pq.read_table(base + ".parquet", columns=columns, filters=flt)


def read_tiles(synth_d: str, columns: list[str] | None = None,
               bands: int | None = None, scene_id: int | None = None, **kw) -> rd.Dataset:
    """Tile catalog + payload. Pass ``columns`` to prune (metadata-only
    stages must not pull the pixel binary off storage) and ``bands`` /
    ``scene_id`` for ROW-GROUP pushdown at the read — the synth writer uses
    small homogeneous row groups, so e.g. the 2-band scenes' pixels never
    leave storage when reading the 1-band DEMs."""
    import pyarrow.compute as pc

    flt = kw.pop("filter", None)
    if bands is not None:
        f = pc.field("band_count") == bands
        flt = f if flt is None else flt & f
    if scene_id is not None:
        f = pc.field("scene_id") == scene_id
        flt = f if flt is None else flt & f
    # a single parquet file otherwise becomes ONE read task (Ray splits
    # blocks only after the serial read — measured 6x slower on the
    # binary-heavy tile payloads); override makes the read row-group-ranged
    # and parallel across the cluster
    kw.setdefault("override_num_blocks", cluster_cpus())
    return rd.read_parquet(os.path.join(synth_d, "tiles.parquet"),
                           columns=columns, filter=flt, **kw)


def read_documents(synth_d: str, **kw) -> rd.Dataset:
    return _read_any(os.path.join(synth_d, "documents"), **kw)


def read_zones(synth_d: str, columns: list[str] | None = None, **kw) -> rd.Dataset:
    return _read_any(os.path.join(synth_d, "zones"), columns=columns, **kw)


def read_table(sf_dir: str, name: str, columns: list[str] | None = None, **kw) -> rd.Dataset:
    """Driver-provided TPC-H-ish tables (TESTDATA.md); lance-or-parquet."""
    return _read_any(os.path.join(sf_dir, name), columns=columns, **kw)


def cluster_cpus(default: int = 8) -> int:
    """CPU count of the (possibly not-yet-started) Ray cluster — the one
    place work-sizing helpers read it from."""
    import ray

    try:
        return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        return default


def join_partitions(factor: int = 2, cap: int = 64) -> int:
    """Partition count for Dataset.join hash shuffles, sized to the cluster
    (each partition spins an aggregator actor in Ray 2.49 — a hardcoded 16
    oversubscribes small sessions and undersubscribes big ones)."""
    return max(2, min(cap, cluster_cpus() // factor))


# -------------------------------------------- CSV / JSONL source formats

def text_format_cache(sf_dir: str, fmt: str) -> str:
    """Deterministic CSV / JSONL mirror of the documents table (cached
    under ``synth.CACHE_ROOT`` keyed by source file identity) — the fixture for the
    non-parquet source-path gates: ray.data.read_csv / read_json must
    deliver the SAME rows the parquet reader does, including text columns
    that need quoting/escaping to survive the format."""
    import pyarrow.parquet as pq

    from .. import synth

    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    d = os.path.join(synth.CACHE_ROOT, "srcfmt",
                     f"{fmt}_{os.path.basename(os.path.normpath(sf_dir))}"
                     f"_{st.st_size}_{st.st_mtime_ns}")
    ext = {"csv": "csv", "feather": "feather_dir"}.get(fmt, "jsonl")
    out = os.path.join(d, f"documents.{ext}")
    if os.path.exists(os.path.join(d, "_DONE")):
        return out
    os.makedirs(d, exist_ok=True)
    tab = pq.read_table(src)
    if fmt == "csv":
        import pyarrow.csv as pacsv
        pacsv.write_csv(tab, out)
    elif fmt == "feather":
        # SHARDED Arrow-IPC mirror: one .feather file per shard so the
        # binary-file read parallelizes like any other multi-file source
        os.makedirs(out, exist_ok=True)
        shards = 8
        per = (tab.num_rows + shards - 1) // shards
        for s in range(shards):
            sl = tab.slice(s * per, per)
            if sl.num_rows:
                import pyarrow.feather as pafe
                pafe.write_feather(sl, os.path.join(out, f"part-{s}.feather"),
                                   compression="uncompressed")
    else:
        tab.to_pandas().to_json(out, orient="records", lines=True)
    with open(os.path.join(d, "_DONE"), "w") as f:
        f.write("ok")
    return out


def read_documents_as(sf_dir: str, fmt: str) -> rd.Dataset:
    """documents table through the CSV or JSONL reader (vs the default
    parquet path) — formats without column projection read everything; the
    gates prove row/text fidelity, not pruning."""
    path = text_format_cache(sf_dir, fmt)
    if fmt == "csv":
        return rd.read_csv(path)
    if fmt == "feather":
        # no native Arrow-IPC reader in ray.data — the bring-any-format
        # path: read_binary_files (one row per shard file, streamed) + a
        # vectorized decode stage; shards decode in parallel like blocks
        import pyarrow as pa

        def decode(b: pa.Table) -> pa.Table:
            import pyarrow.feather as pafe
            tabs = [pafe.read_table(pa.BufferReader(buf.as_py()))
                    for buf in b["bytes"]]
            return pa.concat_tables(tabs)

        return (rd.read_binary_files(path)
                .map_batches(decode, batch_format="pyarrow"))
    return rd.read_json(path)
