"""The two workloads: what one pass runs, how much input it reads, how its
outputs are checked, and the isolated layer calls of the traced run.

A pass calls each of the workload's operations once, in order; each call is
issued when the previous one has returned (one client, closed loop).  An
operation returns a small result the benchmark checks after the timed loop.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from contextlib import nullcontext

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import check


class Ctx:
    """Paths of one seed's inputs and of the run's scratch space."""

    def __init__(self, synth_dir: str, scratch: str, tracer=None):
        self.sf_dir = self.synth_d = synth_dir
        self.tiles_path = os.path.join(synth_dir, "tiles.parquet")
        self.analytic_path = os.path.join(synth_dir, "analytic.parquet")
        self.scratch = scratch
        self.tracer = tracer
        with open(os.path.join(synth_dir, "params.json")) as f:
            self.params = json.load(f)

    def layer(self, name: str):
        """Span around a call into a library layer (traced run only)."""
        return self.tracer.span(name, "layer") if self.tracer else nullcontext()


def _tile_rows(path: str, flt) -> int:
    t = pq.read_table(path, columns=["scene_id", "band_count"])
    return int(pc.sum(flt(t)).as_py())


def _analytic_hillshade_scenes():
    from raster_functions_ray import synth

    return [s * 10 for s in range(synth.A_SCENES)]


def _hillshade_kernel(p, m, meta):
    from raster_functions_ray.functions import focal

    dem = p if p.ndim == 2 else p[0]
    return focal.hillshade(dem, m, meta["cell_size"], is_geographic=(meta["srid"] == 4326))


def _layer_read(ctx: Ctx, reads) -> dict:
    """``sources`` alone: materialize each read; returns seconds, rows, MB."""
    s = rows = nbytes = 0.0
    mats = []
    for make in reads:
        t0 = time.perf_counter()
        with ctx.layer("sources.read"):
            m = make().materialize()
        s += time.perf_counter() - t0
        rows += m.count()
        nbytes += m.size_bytes()
        mats.append(m)
    return {"sources.read_s": s, "sources.read_rows": rows,
            "sources.read_mb": nbytes / 1e6, "_mats": mats}


def _layer_decode(ctx: Ctx, mats) -> tuple[dict, list]:
    """``tilecodec.iter_tiles`` over the read batches, in this process."""
    from raster_functions_ray import tilecodec

    batches = [b for m in mats for b in m.iter_batches(batch_format="pyarrow", batch_size=None)]
    metas = [b.select([c for c in ("tx", "ty", "band_count", "cell_size", "srid", "acq_ts")
                       if c in b.column_names]).to_pylist() for b in batches]
    t0 = time.perf_counter()
    with ctx.layer("tilecodec.decode"):
        decoded = [list(tilecodec.iter_tiles(b)) for b in batches]
    took = time.perf_counter() - t0
    tiles = [(meta[i], pix, msk) for meta, dec in zip(metas, decoded) for i, pix, msk in dec]
    return {"tilecodec.decode_s": took, "tilecodec.tiles_decoded": len(tiles)}, tiles


def _timed(ctx: Ctx, name: str, fn):
    t0 = time.perf_counter()
    with ctx.layer(name):
        out = fn()
    return time.perf_counter() - t0, out


class Workload:
    name = ""
    item = ""

    def __init__(self, ctx: Ctx):
        self.ctx = ctx

    def ops(self) -> list[tuple[str, object]]:
        """(metric stem ``<module>.<function>``, zero-argument callable)."""
        raise NotImplementedError

    def items_per_pass(self) -> int:
        raise NotImplementedError

    def digest(self, name: str, out) -> pd.DataFrame:
        """The frame an operation's result is checked and compared by."""
        return out

    def oracle_names(self) -> dict[str, str]:
        """op stem -> key of ``__ray_entry__.oracle_sql``."""
        return {}

    def expected(self) -> dict[str, tuple]:
        """op stem -> (expected frame, sort key, tolerances) for the ops that
        are recomputed with NumPy; tolerances None means exact."""
        return {}

    def extra_problems(self, outputs: dict) -> list[str]:
        return []

    def layers(self) -> dict:
        raise NotImplementedError


# ------------------------------------------------------------ docs_join

class DocsJoin(Workload):
    name = "docs_join"
    item = "documents"

    def ops(self):
        from raster_functions_ray import rasterqueries as rq
        from raster_functions_ray.pipelines import flagship

        d = self.ctx.sf_dir
        return [("pipelines.flagship.run", lambda: flagship.run(d).to_pandas()),
                ("rasterqueries.q_doc_zone_join", lambda: rq.q_doc_zone_join(d))]

    def items_per_pass(self):
        # both operations read every document
        return 2 * pq.read_metadata(os.path.join(self.ctx.synth_d, "documents.parquet")).num_rows

    def oracle_names(self):
        return {"rasterqueries.q_doc_zone_join": "doc_zone_join"}

    def expected(self):
        return {"pipelines.flagship.run": (
            check.flagship_expected(self.ctx.synth_d, self.ctx.params), ["cell_id"],
            {"mean_ndvi": 1e-9})}

    def layers(self):
        from raster_functions_ray.functions import pointwise
        from raster_functions_ray.sources import read_documents, read_tiles
        from raster_functions_ray.stages import spans

        ctx = self.ctx
        out = _layer_read(ctx, [lambda: read_documents(ctx.synth_d),
                                lambda: read_tiles(ctx.synth_d, bands=2)])
        docs, tiles_ds = out.pop("_mats")
        dec, tiles = _layer_decode(ctx, [tiles_ds])
        out.update(dec)
        t0 = time.perf_counter()
        with ctx.layer("functions.kernel"):
            for _, pix, _m in tiles:
                pointwise.ndvi(pix[0], pix[1], "Raw")
        out["functions.kernel_s"] = time.perf_counter() - t0
        out["stages.spans.explode_s"], _ = _timed(
            ctx, "stages.spans.explode", lambda: spans.explode_spans(docs).materialize())
        return out


# -------------------------------------------------------------- terrain

class Terrain(Workload):
    """Hillshade and median composite over the noise and analytic worlds,
    reduced to tile statistics; then hillshade per DEM scene written through
    the checkpoint store and read back, and the analytic-world resume: half
    the scenes, then all of them, where the second call must compute exactly
    the missing half."""

    name = "terrain"
    item = "tiles"

    def __init__(self, ctx: Ctx):
        super().__init__(ctx)
        self.state = {"partitions": 0, "bytes": 0, "run_partitioned_s": 0.0}
        self._n = 0

    def _store(self):
        from raster_functions_ray.state.checkpoint import CheckpointStore

        self._n += 1
        root = os.path.join(self.ctx.scratch, f"store{self._n}")
        shutil.rmtree(root, ignore_errors=True)
        return CheckpointStore(root)

    def _scene_table(self, path: str, bands: int, out_pixel_type: str, sid: int) -> pa.Table:
        from raster_functions_ray.stages import halo, tile_map

        padded = halo.with_halo_from_parquet(path, padding=1, bands=bands, scene_ids=[sid])
        out = tile_map.apply_kernel(padded, _hillshade_kernel, out_pixel_type=out_pixel_type)
        return pa.concat_tables(list(out.iter_batches(batch_size=64, batch_format="pyarrow")))

    def _run_partitioned(self, store, stage, keys, factory, input_hash: str) -> list[str]:
        from raster_functions_ray.state.checkpoint import run_partitioned

        t0 = time.perf_counter()
        with self.ctx.layer("state.run_partitioned"):
            written = run_partitioned(factory, keys, stage, store, input_hash=input_hash)
        self.state["run_partitioned_s"] += time.perf_counter() - t0
        for k in written:
            self.state["partitions"] += 1
            self.state["bytes"] += os.path.getsize(
                os.path.join(store.partition_dir(stage, k), "part.parquet"))
        return written

    def dem_scene_ids(self) -> list[int]:
        t = pq.read_table(self.ctx.tiles_path, columns=["scene_id", "band_count"])
        return sorted(set(t.filter(pc.equal(t["band_count"], 1))["scene_id"].to_pylist()))

    def write_dem_scenes(self) -> dict:
        from raster_functions_ray.state.checkpoint import input_fingerprint

        store = self._store()
        computed: dict[str, pa.Table] = {}

        def factory(key):
            computed[key] = self._scene_table(self.ctx.tiles_path, 1, "u1", int(key.split("=")[1]))
            return computed[key]

        keys = [f"scene={s}" for s in self.dem_scene_ids()]
        self._run_partitioned(store, "hillshade", keys, factory,
                              input_fingerprint([self.ctx.tiles_path]))
        back = {k: store.read_partition("hillshade", k) for k in keys}
        shutil.rmtree(store.root, ignore_errors=True)
        return {"computed": computed, "read_back": back}

    def resume_analytic_scenes(self) -> dict:
        """The work of ``analytic2.q_resumable_hillshade_exact`` in a store
        the run owns: fingerprint the input, compute half the scenes, resume
        over all of them, read the partitions back with Ray Data and reduce
        each tile to its stats."""
        import ray.data as rd
        from raster_functions_ray import tilecodec
        from raster_functions_ray.state.checkpoint import input_fingerprint

        store = self._store()
        keys = [f"scene={s}" for s in _analytic_hillshade_scenes()]
        half = keys[: max(1, len(keys) // 2)]

        def factory(key):
            return self._scene_table(self.ctx.analytic_path, 2, "f8", int(key.split("=")[1]))

        def stats(b: pa.Table) -> pa.Table:
            recs = []
            for r in b.select(["tile_id", "pixels", "pixel_type", "band_count", "height",
                               "width"]).to_pylist():
                a = tilecodec.decode(r["pixels"], r["pixel_type"], r["band_count"],
                                     r["height"], r["width"])
                recs.append((r["tile_id"], float(a.min()), float(a.max()), int((a > 128.0).sum())))
            return pa.table({"tile_id": pa.array([x[0] for x in recs], pa.string()),
                             "h_min": pa.array([x[1] for x in recs], pa.float64()),
                             "h_max": pa.array([x[2] for x in recs], pa.float64()),
                             "n_bright": pa.array([x[3] for x in recs], pa.int64())})

        try:
            fp = input_fingerprint([self.ctx.analytic_path])
            first = self._run_partitioned(store, "hsx", half, factory, fp)
            second = self._run_partitioned(store, "hsx", keys, factory, fp)
            parts = [os.path.join(store.partition_dir("hsx", k), "part.parquet") for k in keys]
            out = rd.read_parquet(parts).map_batches(stats, batch_format="pyarrow",
                                                     batch_size=32).to_pandas()
        finally:
            shutil.rmtree(store.root, ignore_errors=True)
        return {"written": (first, second), "expect": (half, [k for k in keys if k not in half]),
                "stats": out.sort_values("tile_id").reset_index(drop=True)}

    def ops(self):
        from raster_functions_ray import analytic2
        from raster_functions_ray import rasterqueries as rq

        d = self.ctx.sf_dir
        return [("rasterqueries.q_hillshade_stats", lambda: rq.q_hillshade_stats(d)),
                ("rasterqueries.q_median_composite_stats", lambda: rq.q_median_composite_stats(d)),
                ("analytic2.q_hillshade_exact", lambda: analytic2.q_hillshade_exact(d)),
                ("analytic2.q_median_composite_exact",
                 lambda: analytic2.q_median_composite_exact(d)),
                ("bench.write_dem_scenes", self.write_dem_scenes),
                ("bench.resume_analytic_scenes", self.resume_analytic_scenes)]

    def items_per_pass(self):
        # the hillshades read the DEM and the two analytic hillshade scenes
        # twice (stats, then write), the composites the 7- and 2-band stacks
        ctx = self.ctx
        hs = pa.array(_analytic_hillshade_scenes(), pa.int32())
        return (2 * _tile_rows(ctx.tiles_path, lambda t: pc.equal(t["band_count"], 1))
                + _tile_rows(ctx.tiles_path, lambda t: pc.equal(t["band_count"], 7))
                + 2 * _tile_rows(ctx.analytic_path, lambda t: pc.is_in(t["scene_id"], value_set=hs))
                + _tile_rows(ctx.analytic_path, lambda t: pc.equal(t["band_count"], 2)))

    @staticmethod
    def _pixels(t: pa.Table) -> dict:
        out = {}
        for r in t.select(["tile_id", "pixels", "mask", "pixel_type", "height", "width"]).to_pylist():
            h, w = r["height"], r["width"]
            out[r["tile_id"]] = (np.frombuffer(r["pixels"], np.dtype(r["pixel_type"])).reshape(h, w),
                                 np.frombuffer(r["mask"], np.uint8).reshape(h, w))
        return out

    def digest(self, name: str, out) -> pd.DataFrame:
        if not name.startswith("bench."):
            return out
        if name == "bench.write_dem_scenes":
            t = pa.concat_tables(out["read_back"].values())
            return t.select(["tile_id", "pixels", "mask"]).to_pandas()
        return out["stats"]

    def oracle_names(self):
        return {"analytic2.q_hillshade_exact": "hillshade_exact",
                "analytic2.q_median_composite_exact": "median_composite_exact",
                "bench.resume_analytic_scenes": "resumable_hillshade_exact"}

    def expected(self):
        p = self.ctx.tiles_path
        return {
            "rasterqueries.q_hillshade_stats": (
                check.hillshade_stats_expected(p), ["tile_id"], check.HILLSHADE_TOL),
            "rasterqueries.q_median_composite_stats": (
                check.median_composite_stats_expected(p), ["tile_id"],
                {"mean": 2e-4, "min": 2e-4, "max": 2e-4}),
        }

    def extra_problems(self, outputs):
        """Property checks, each made whenever its operation gave an output."""
        probs = []
        hs = outputs.get("rasterqueries.q_hillshade_stats")
        if hs is not None and ((hs["min"] < 0) | (hs["max"] > 255)).any():
            probs.append("rasterqueries.q_hillshade_stats: values outside [0, 255]")
        dem = outputs.get("bench.write_dem_scenes")
        if dem is not None:
            for k, t in dem["computed"].items():
                if k not in dem["read_back"] or not dem["read_back"][k].equals(t):
                    probs.append(f"bench.write_dem_scenes: partition {k} read back differs "
                                 "from the table written")
            got = {}
            for t in dem["read_back"].values():
                got.update(self._pixels(t))
            probs += check.hillshade_pixels_problems(
                "bench.write_dem_scenes", got, check.hillshade_u1_expected(self.ctx.tiles_path))
        res = outputs.get("bench.resume_analytic_scenes")
        if res is not None and ([sorted(x) for x in res["written"]]
                                != [sorted(x) for x in res["expect"]]):
            probs.append(f"bench.resume_analytic_scenes: wrote {res['written']}, "
                         f"expected {res['expect']}")
        return probs

    def layers(self):
        from raster_functions_ray.sources import read_tiles
        from raster_functions_ray.stages import composite, halo, tile_map

        ctx = self.ctx
        out = _layer_read(ctx, [lambda: read_tiles(ctx.synth_d, bands=1),
                                lambda: read_tiles(ctx.synth_d, bands=7)])
        dec, tiles = _layer_decode(ctx, out.pop("_mats"))
        out.update(dec)
        out["functions.kernel_s"] = _kernels(ctx, tiles)
        out["stages.halo.read_s"], padded = _timed(
            ctx, "stages.halo.read",
            lambda: halo.with_halo_from_parquet(ctx.tiles_path, padding=1, bands=1).materialize())
        out["stages.tile_map.apply_s"], _ = _timed(
            ctx, "stages.tile_map.apply",
            lambda: tile_map.apply_kernel(padded, _hillshade_kernel, out_pixel_type="u1")
            .materialize())
        out["stages.composite.reduce_s"], _ = _timed(
            ctx, "stages.composite.reduce",
            lambda: composite.stack_reduce_from_parquet(
                ctx.tiles_path, composite.median_composite_reduce(qa_band=6),
                out_pixel_type="f4", bands=7).materialize())
        return out


def _kernels(ctx: Ctx, tiles) -> float:
    """``functions`` alone on decoded tiles: hillshade on each DEM tile
    (edge-padded alone) and the median composite on each Landsat stack."""
    from raster_functions_ray.functions import focal
    from raster_functions_ray.stages import composite

    dems, stacks = [], {}
    for meta, pix, msk in tiles:
        if meta["band_count"] == 1:
            dems.append((np.pad(pix, 1, mode="edge"), np.pad(msk, 1), meta))
        elif meta["band_count"] == 7:
            stacks.setdefault((meta["tx"], meta["ty"]), []).append((meta["acq_ts"], pix))
    reduce = composite.median_composite_reduce(qa_band=6)
    stack_arrays = [np.stack([p for _, p in sorted(v, key=lambda x: x[0])])
                    for v in stacks.values()]
    t0 = time.perf_counter()
    with ctx.layer("functions.kernel"):
        for dem, m, meta in dems:
            focal.hillshade(dem, m, meta["cell_size"], is_geographic=(meta["srid"] == 4326))
        for st in stack_arrays:
            reduce(st, None, None)
    return time.perf_counter() - t0


WORKLOADS = {w.name: w for w in (DocsJoin, Terrain)}
