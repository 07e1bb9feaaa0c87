"""Benchmark harness: headline pipelines over $GRAFT_SF_DIR (default sf0.1).

Prints ONE JSON line:
  {"metric": ..., "value": total_sec, "unit": "sec", "queries": {...},
   "sf": ..., "num_cpus": N, "docs_per_sec": ..., "tiles_per_sec": ...}

``--scaling``: run the same bench in fresh processes at num_cpus=8 and 32
and report both throughputs + scaling efficiency (the sandbox stand-in for
the N vs 4N cluster-size criterion — BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# All-to-all exchange count per benched pipeline (groupby / repartition /
# hash-join / sort over Dataset blocks — the ops whose ~1s fixed machinery
# cost dominates the suite envelope; audited from the pipeline code after
# the round-4 exchange collapse).  Broadcast side-inputs (ray.put) and
# storage-aligned halo/stack reads move no blocks and count 0.
EXCHANGES = {
    "flagship": 1,          # cell_id groupby (counts phase driver-merged)
    "q1_pricing": 1,        # groupby over pre-aggregated partials
    "pip_rect": 1,          # zone_id groupby over partials (join broadcast)
    "knn": 0,               # broadcast queries + per-block partial top-k
    "cell_assign_tiles": 0,
    "ndvi": 0,
    "hillshade": 0,         # storage-aligned parquet halo
    "median_composite": 0,  # storage-aligned stack reduce
    "zonal_remap": 0,       # feature-service actor state + map
    "doc_zone_join": 0,     # broadcast zone index, task-pool map
    "exact_dedup": 2,       # measured block coalesce + groupby(h)
    "minhash_dedup": 2,     # signature-row coalesce (narrow rows, not
                            # text) + LSH Count groupby; pair formation
                            # + verify are driver/broadcast lowerings
    "token_stats": 1,       # lang groupby over partials
    "ann_topk": 0,          # broadcast query matrix + partial top-k
    "region_label": 2,      # handshake-key groupby + (tiny) CC resolve;
                            # pixels never shuffle — partials only
    "segment_join": 0,      # size-dispatched: points-side sorted cell
                            # index broadcast (ray.put once), segments
                            # probe map-side; the cell-keyed hash-join
                            # lowering (1 exchange) engages above 2M
                            # points and stays pytest-pinned
    "bpe_train": 1,         # ONE corpus->vocab groupby; the K merge
                            # rounds run on the vocab (driver-side below
                            # 200k vocab rows, distributed above)
    "logreg_train": 0,      # featurize pass + K partial-gradient map
                            # passes; 9-int partials tree-sum, weights
                            # broadcast per round — no shuffle
}


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
    n_tiles = pq.read_metadata(os.path.join(d, "tiles.parquet")).num_rows
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
        "tiles_per_sec": round(n_tiles / max(times["hillshade"], 1e-9), 1),
        "exchanges": EXCHANGES,
        "exchanges_total": sum(EXCHANGES.values()),
    }
    ray.shutdown()
    return result


def run_scaling_workload() -> dict:
    """Sustained compute-dominated pipeline for the N-vs-4N criterion:
    every DEM tile goes through halo exchange then a deep focal stack
    (hillshade + aspect/slope + TRI + rank filters + D8 flow-accumulation
    CTI) — hundreds of ms of vectorized NumPy per tile, so task/shuffle
    fixed costs amortize and the measurement reflects scaling, not
    scheduler overhead.  Same input at every parallelism level."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from raster_functions_ray import synth, tilecodec
    from raster_functions_ray.functions import focal as fc
    from raster_functions_ray.functions import pointwise as pw
    from raster_functions_ray.rasterqueries import d8_flow_accumulation
    from raster_functions_ray.sources import read_tiles
    from raster_functions_ray.stages import halo, tile_map

    d = synth.synth_dir_for(SF_DIR)

    from raster_functions_ray.benchkit import deep_kernel

    # warm page cache
    with open(os.path.join(d, "tiles.parquet"), "rb") as fh:
        while fh.read(1 << 24):
            pass
    t0 = time.time()
    # shuffle-free halo: per-scene pruned reads (storage is scene-partitioned)
    padded = halo.with_halo_from_parquet(os.path.join(d, "tiles.parquet"), padding=1)
    out = tile_map.apply_kernel(padded, deep_kernel, out_pixel_type="f4", batch_size=4)
    stats = tile_map.tile_stats(out)
    n_tiles = stats.count()
    wall = time.time() - t0
    ray.shutdown()
    return {"wall_sec": round(wall, 3), "n_tiles": n_tiles,
            "tiles_per_sec": round(n_tiles / wall, 2), "num_cpus": NUM_CPUS}


def run_scaling_text_workload() -> dict:
    """Second scaling workload (text/dedup shape — see benchkit.py): a
    TEXT_REPEAT-deep MinHash signature chain + quality regex counts per
    document, then a keyed Count aggregate over band hashes, streamed over
    TEXT_PASSES passes of the corpus.  String/hash bound with small rows
    and one shuffle — a different bottleneck profile from the focal
    chain."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import ray.data as rd
    from ray.data.aggregate import Count

    from raster_functions_ray.benchkit import (TEXT_CHUNK, TEXT_PASSES,
                                               text_kernel_batch)

    path = os.path.join(SF_DIR, "documents.parquet")
    with open(path, "rb") as fh:  # warm page cache (untimed)
        while fh.read(1 << 24):
            pass
    import pyarrow.parquet as pq
    n_docs = pq.read_metadata(path).num_rows

    def pipeline(passes: int):
        # driver docs arrive as ONE row group → repartition so the task
        # pool has parallel batches; state is cached per worker process
        # (benchkit.text_kernel_batch), so scheduling stays task-pool and
        # never starves the shuffle; TEXT_PASSES streams of the corpus are
        # unioned (the control runs the identical passes)
        parts = [rd.read_parquet(path, columns=["doc_id", "text"])
                 for _ in range(passes)]
        ds = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
        ds = ds.repartition(max(1, passes * n_docs // TEXT_CHUNK))
        banded = ds.map_batches(text_kernel_batch, batch_format="pyarrow",
                                batch_size=TEXT_CHUNK)
        return banded.groupby("band_hash").aggregate(Count(alias_name="n")).count()

    # untimed warmup: starts every worker process, imports the library and
    # builds the per-worker kernel state, and exercises one shuffle —
    # the timed pass then measures sustained throughput, not cold start
    # (a real 100 TB job runs for hours; cold start is noise there)
    pipeline(1)
    t0 = time.time()
    n_buckets = pipeline(TEXT_PASSES)
    wall = time.time() - t0
    ray.shutdown()
    total_docs = TEXT_PASSES * n_docs
    return {"wall_sec": round(wall, 3), "n_docs": total_docs, "n_buckets": n_buckets,
            "docs_per_sec": round(total_docs / wall, 2), "num_cpus": NUM_CPUS}


def _spin(_):
    t0 = time.perf_counter()
    n, x = 0, 1.0
    while time.perf_counter() - t0 < 1.5:
        for _ in range(10000):
            x = x * 1.0000001 + 0.1
        n += 10000
    return n


def spin_ceiling() -> float:
    """Hardware scaling ceiling of this box, measured with a pure
    register-bound spin at 8 vs 32 processes: the host is a shared VM
    (all-core frequency scaling + neighbor steal), so even a perfectly
    parallel engine cannot exceed this ratio.  Reported alongside the
    pipeline efficiency for context."""
    import multiprocessing as mp

    rates = {}
    for nproc in (8, 32):
        with mp.Pool(nproc) as pool:
            rates[nproc] = sum(pool.map(_spin, range(nproc)))
    return round(rates[32] / (4.0 * rates[8]), 3)


def run_scaling() -> dict:
    def run_once(ncpu: int, mode: str = "focal") -> dict:
        # pin BLAS/OMP to one thread per worker (the reference pins too —
        # functions/LandsatMedianPixelComposite.py:4-9): otherwise an
        # "8-CPU" Ray session silently borrows extra cores via numpy
        # threading and the scaling measurement is meaningless
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
        # ray.init(num_cpus=N) only bounds task SLOTS (some Ray Data tasks
        # are fractional); pin the whole process tree to N physical cores so
        # the measurement is a true N-core run
        flag = "--scaling-worker" if mode == "focal" else "--scaling-worker-text"
        cmd = [sys.executable, os.path.abspath(__file__), flag]
        import shutil
        if shutil.which("taskset"):
            cmd = ["taskset", "-c", f"0-{ncpu - 1}"] + cmd
        out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    # hardware controls: the IDENTICAL computations via raw multiprocessing
    # (no Ray / object store / scheduler) at the same two core counts —
    # measures this shared VM's memory-subsystem scaling cap per kernel.
    # Engine-relative efficiency = ray ratio / control ratio: the number
    # that transfers to a real N-vs-4N-node cluster where each node brings
    # its own memory subsystem.
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from raster_functions_ray import synth
    from raster_functions_ray.benchkit import mp_baseline, mp_text_baseline

    tiles_path = os.path.join(synth.synth_dir_for(SF_DIR), "tiles.parquet")
    docs_path = os.path.join(SF_DIR, "documents.parquet")
    os.environ["OMP_NUM_THREADS"] = "1"

    def control_once(mode: str, ncpu: int) -> float:
        # pin the control to the SAME physical cores as the taskset'd Ray
        # runs — an unpinned control can dodge ambient contention by
        # wandering across the whole host, which the pinned run cannot
        fn, path = ((mp_baseline, tiles_path) if mode == "focal"
                    else (mp_text_baseline, docs_path))
        if hasattr(os, "sched_setaffinity"):
            prev = os.sched_getaffinity(0)
            try:
                os.sched_setaffinity(0, set(range(ncpu)))
                return fn(path, ncpu)
            finally:
                os.sched_setaffinity(0, prev)
        return fn(path, ncpu)

    # interleave levels, workloads AND the controls in every round, so slow
    # ambient drift on the shared host biases ray and control equally (an
    # earlier layout ran all controls after all ray runs; a decaying load
    # average then systematically flattered the controls).  Best-of-3 per
    # (workload, level) on both sides.
    rate_key = {"focal": "tiles_per_sec", "text": "docs_per_sec"}
    runs: dict[tuple, list] = {(m, n): [] for m in rate_key for n in (8, 32)}
    ctrl: dict[tuple, list] = {(m, n): [] for m in rate_key for n in (8, 32)}
    for _ in range(3):
        for mode in rate_key:
            runs[(mode, 8)].append(run_once(8, mode))
            ctrl[(mode, 8)].append(control_once(mode, 8))
            runs[(mode, 32)].append(run_once(32, mode))
            ctrl[(mode, 32)].append(control_once(mode, 32))

    controls = {m: (max(ctrl[(m, 8)]), max(ctrl[(m, 32)])) for m in rate_key}
    ceiling = spin_ceiling()
    desc = {
        "focal": "deep focal chain x6 (hillshade+aspect+TRI+rank+CTI) over all tiles",
        "text": "MinHash-chain x128 + quality counts per doc + band-hash Count aggregate, 4 corpus passes",
    }
    out: dict = {"sf": synth.sf_from_dir(SF_DIR),  # from the data dir, like run_bench
                 "spin_ceiling_efficiency": ceiling, "workloads": {}}
    for mode, key in rate_key.items():
        lo = max(runs[(mode, 8)], key=lambda r: r[key])
        hi = max(runs[(mode, 32)], key=lambda r: r[key])
        eff = hi[key] / (lo[key] * (32 / 8))
        mp8, mp32 = controls[mode]
        hw_eff = mp32 / (mp8 * 4.0)
        out["workloads"][mode] = {
            "workload": desc[mode],
            "sec_8": lo["wall_sec"], "sec_32": hi["wall_sec"],
            f"{key}_8": lo[key], f"{key}_32": hi[key],
            "scaling_efficiency": round(eff, 3),
            "hardware_control_rate": {"cpus8": round(mp8, 1), "cpus32": round(mp32, 1)},
            "hardware_control_efficiency": round(hw_eff, 3),
            "engine_relative_efficiency": round(eff / hw_eff, 3),
            "all_runs": {"cpus8": [r[key] for r in runs[(mode, 8)]],
                         "cpus32": [r[key] for r in runs[(mode, 32)]]},
            "control_all_runs": {
                "cpus8": [round(v, 2) for v in ctrl[(mode, 8)]],
                "cpus32": [round(v, 2) for v in ctrl[(mode, 32)]]},
        }
    # backward-compatible headline fields = focal chain (the round-1 metric)
    f = out["workloads"]["focal"]
    out.update({"workload": f["workload"],
                "scaling_efficiency": f["scaling_efficiency"],
                "hardware_control_efficiency": f["hardware_control_efficiency"],
                "engine_relative_efficiency": f["engine_relative_efficiency"]})
    return out


if __name__ == "__main__":
    if "--scaling-worker-text" in sys.argv:
        print(json.dumps(run_scaling_text_workload()))
    elif "--scaling-worker" in sys.argv:
        print(json.dumps(run_scaling_workload()))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
