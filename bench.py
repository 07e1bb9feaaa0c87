"""Benchmark harness: headline pipelines over $GRAFT_SF_DIR (default sf0.1).

Prints ONE JSON line:
  {"metric": ..., "value": total_sec, "unit": "sec", "queries": {...},
   "sf": ..., "num_cpus": N, "docs_per_sec": ..., "dem_tiles_per_sec": ...}

``docs_per_sec`` is span documents over the flagship wall;
``dem_tiles_per_sec`` is the single-band (DEM) tiles, the only ones the
hillshade reads, over the hillshade wall.

Ray starts with $RAY_GRAFT_CPUS CPUs (default 32).  Per-layer timings and
steady end-to-end comparisons come from ``perfbench/run.py``; executed
exchange counts are pinned in ``tests/test_exchanges.py``.
"""

from __future__ import annotations

import json
import os
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def run_bench() -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from raster_functions_ray import ann, dedup, rasterqueries as rq
    from raster_functions_ray import regions, relational as rel, spatial, synth, textops
    from raster_functions_ray.pipelines import flagship

    # ensure synthetic tiles exist + warm the page cache (untimed)
    d = synth.synth_dir_for(SF_DIR)
    for f in os.listdir(d):
        if f.endswith(".parquet"):
            with open(os.path.join(d, f), "rb") as fh:
                while fh.read(1 << 24):
                    pass
    for t in ("lineitem", "events", "documents", "embeddings"):
        with open(os.path.join(SF_DIR, f"{t}.parquet"), "rb") as fh:
            while fh.read(1 << 24):
                pass

    import pyarrow.parquet as pq
    # DEM tiles from row-group statistics: every row group holds one scene
    md = pq.read_metadata(os.path.join(d, "tiles.parquet"))
    bc = md.schema.to_arrow_schema().get_field_index("band_count")
    n_dem_tiles = 0
    for i in range(md.num_row_groups):
        st = md.row_group(i).column(bc).statistics
        if st.min != st.max:
            raise ValueError(f"tiles.parquet row group {i} mixes band counts")
        n_dem_tiles += md.row_group(i).num_rows if st.min == 1 else 0
    n_span_docs = pq.read_metadata(os.path.join(d, "documents.parquet")).num_rows

    benches = {
        "flagship": lambda: flagship.run(SF_DIR).to_pandas(),
        "q1_pricing": lambda: rel.q1_pricing(SF_DIR),
        "pip_rect": lambda: spatial.q_pip_rect(SF_DIR),
        "knn": lambda: spatial.q_knn(SF_DIR),
        "cell_assign_tiles": lambda: rq.q_tile_cells(SF_DIR),
        "ndvi": lambda: rq.q_ndvi_stats(SF_DIR),
        "hillshade": lambda: rq.q_hillshade_stats(SF_DIR),
        "median_composite": lambda: rq.q_median_composite_stats(SF_DIR),
        "zonal_remap": lambda: rq.q_zonal_remap_counts(SF_DIR),
        "doc_zone_join": lambda: rq.q_doc_zone_join(SF_DIR),
        "exact_dedup": lambda: dedup.q_exact_dedup(SF_DIR),
        "minhash_dedup": lambda: dedup.q_minhash_dedup(SF_DIR),
        "token_stats": lambda: textops.q_token_stats(SF_DIR),
        "ann_topk": lambda: ann.q_ann_topk(SF_DIR),
        "region_label": lambda: regions.q_region_label(SF_DIR),
        "segment_join": lambda: spatial.q_segment_join(SF_DIR),
        "bpe_train": lambda: textops.q_bpe_train(SF_DIR),
        "logreg_train": lambda: textops.q_logreg_train(SF_DIR),
    }

    # per-query best-of-2: the shared host has multi-second ambient noise
    # bursts that inflate whole stretches of a single pass 2-3x uniformly
    # (BASELINE.md "noisy window" notes); the second pass also removes
    # first-touch costs (worker spin-up on the first query, cold actor
    # pools) so the number approximates sustained throughput
    times: dict[str, float] = {}
    for _ in range(2):
        for name, fn in benches.items():
            t0 = time.time()
            fn()
            dt = round(time.time() - t0, 3)
            times[name] = min(times.get(name, float("inf")), dt)

    total = round(sum(times.values()), 3)
    result = {
        "metric": "spatial-join+tiling pipeline suite wall time",
        "value": total,
        "unit": "sec",
        "queries": times,
        "sf": synth.sf_from_dir(SF_DIR),
        "num_cpus": NUM_CPUS,
        "docs_per_sec": round(n_span_docs / max(times["flagship"], 1e-9), 1),
        "dem_tiles_per_sec": round(n_dem_tiles / max(times["hillshade"], 1e-9), 1),
    }
    ray.shutdown()
    return result


if __name__ == "__main__":
    print(json.dumps(run_bench()))
