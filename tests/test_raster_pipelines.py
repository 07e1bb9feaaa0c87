"""End-to-end raster pipeline gates:

- halo exchange == whole-scene oracle (tile boundaries exact);
- temporal composite == single-process stack reduce;
- zonal remap / burn-in plumbing.
"""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from raster_functions_ray import synth, tilecodec
from raster_functions_ray.functions import focal as fc
from raster_functions_ray.functions import stack as st
from raster_functions_ray.sources import read_tiles
from raster_functions_ray.stages import composite, halo, tile_map


def load_scene(synth_d: str, scene_id: int):
    """Reassemble a full scene array + mask from its tile rows (oracle side)."""
    t = pq.read_table(f"{synth_d}/tiles.parquet")
    t = t.filter(np.asarray(t["scene_id"]) == scene_id)
    rows = t.to_pylist()
    g = max(r["tx"] for r in rows) - min(r["tx"] for r in rows) + 1
    tp = rows[0]["width"]
    bc, pt = rows[0]["band_count"], rows[0]["pixel_type"]
    tx0 = min(r["tx"] for r in rows)
    ty0 = min(r["ty"] for r in rows)
    scene = np.zeros((bc, g * tp, g * tp), dtype=np.dtype(pt))
    mask = np.zeros((g * tp, g * tp), dtype=np.uint8)
    for r in rows:
        pix = tilecodec.decode(r["pixels"], pt, bc, tp, tp)
        if pix.ndim == 2:
            pix = pix[None]
        x0, y0 = (r["tx"] - tx0) * tp, (r["ty"] - ty0) * tp
        scene[:, y0:y0 + tp, x0:x0 + tp] = pix
        mask[y0:y0 + tp, x0:x0 + tp] = tilecodec.decode_mask(r["mask"], tp, tp)
    return scene, mask, rows[0]


@pytest.mark.parametrize("strategy", ["scene", "strips", "parquet"])
def test_halo_matches_whole_scene_hillshade(synth_sf001, strategy):
    """Every halo lowering must reproduce the exact pixels a single-process
    whole-scene computation yields — including across tile boundaries —
    and at padding 0 give back each tile as stored."""
    scene, mask, meta = load_scene(synth_sf001, 0)  # scene 0 = DEM
    dem = scene[0].astype(np.float64)
    # oracle: pad whole scene the same way the engine pads scene borders
    pdem = np.pad(dem, 1, mode="edge")
    pmask = np.zeros((dem.shape[0] + 2, dem.shape[1] + 2), np.uint8)
    pmask[1:-1, 1:-1] = mask
    exp_pix, exp_mask = fc.hillshade(pdem, pmask, meta["cell_size"],
                                     is_geographic=(meta["srid"] == 4326))
    exp_pix = exp_pix.astype(np.uint8)

    def with_halo(padding):
        if strategy == "parquet":
            return halo.with_halo_from_parquet(f"{synth_sf001}/tiles.parquet",
                                               padding=padding, scene_ids=[0])
        tiles = read_tiles(synth_sf001, scene_id=0)
        return halo.with_halo(tiles, padding=padding, strategy=strategy)

    padded = with_halo(1)

    def kernel(p, m, mt):
        d = p if p.ndim == 2 else p[0]
        return fc.hillshade(d, m, mt["cell_size"], is_geographic=(mt["srid"] == 4326))

    out = tile_map.apply_kernel(padded, kernel, out_pixel_type="u1").take_all()
    tp = meta["width"]
    assert len(out) == 16  # 4×4 tiles at sf0.001
    for r in out:
        pix = tilecodec.decode(r["pixels"], "u1", 1, tp, tp)
        m = tilecodec.decode_mask(r["mask"], tp, tp)
        x0, y0 = int(r["tx"]) * tp, int(r["ty"]) * tp
        np.testing.assert_array_equal(pix, exp_pix[y0:y0 + tp, x0:x0 + tp],
                                      err_msg=f"tile {r['tile_id']}")
        np.testing.assert_array_equal(m, exp_mask[y0:y0 + tp, x0:x0 + tp])

    unpadded = with_halo(0).take_all()
    assert len(unpadded) == 16
    for r in unpadded:
        assert r["padding"] == 0
        x0, y0 = int(r["tx"]) * tp, int(r["ty"]) * tp
        pix = tilecodec.decode(r["pixels"], r["pixel_type"], r["band_count"], tp, tp)
        np.testing.assert_array_equal(pix.reshape(scene.shape[0], tp, tp),
                                      scene[:, y0:y0 + tp, x0:x0 + tp])
        np.testing.assert_array_equal(tilecodec.decode_mask(r["mask"], tp, tp),
                                      mask[y0:y0 + tp, x0:x0 + tp])


def test_stack_reduce_ty_bands_match_one_unit_per_position(monkeypatch):
    """With more read units wanted than footprint positions, a position
    splits into row-group-aligned ty-bands; the reduced tiles are the same
    bytes as with one read unit per position."""
    from raster_functions_ray import sources

    d = synth.synth_dir(0.01)   # 3 positions of 8 tile rows = two row groups

    def run(cpus):
        monkeypatch.setattr(sources, "cluster_cpus", lambda default=8: cpus)
        ds = composite.stack_reduce_from_parquet(
            f"{d}/tiles.parquet", composite.median_composite_reduce(qa_band=6),
            out_pixel_type="f4", bands=7).materialize()
        return ds.num_blocks(), ds.to_pandas().sort_values("tile_id").reset_index(drop=True)

    n_one, one = run(1)
    n_many, many = run(64)
    assert (n_one, n_many) == (3, 6)
    pd.testing.assert_frame_equal(one, many)


def test_storage_aligned_reads_empty(synth_sf001):
    """Selections that match nothing give a 0-row Dataset, not an error."""
    path = f"{synth_sf001}/tiles.parquet"
    nothing = (pd.Timestamp("1900-01-01"), pd.Timestamp("1900-01-02"))
    for ds in (halo.with_halo_from_parquet(path, padding=1, scene_ids=[-1]),
               composite.stack_reduce_from_parquet(
                   path, composite.median_composite_reduce(qa_band=6), out_pixel_type="f4",
                   bands=7, acq_window=nothing)):
        assert ds.count() == 0
        assert len(tile_map.tile_stats(ds).to_pandas()) == 0


def test_storage_aligned_queries_run_as_one_fused_operator(synth_sf001, executed_plans):
    """Read, pad or reduce, kernel and stats execute as ONE Ray Data
    operator: the plan is the input buffer and one Read…->MapBatches… map.
    A map followed by an exchange fuses into the read the same way."""
    import re

    from raster_functions_ray import analytic2
    from raster_functions_ray import rasterqueries as rq

    def plan_ops(q):
        with executed_plans() as plans:
            assert len(q(synth_sf001)) > 0
        assert len(plans) == 1, plans
        return plans[0].split(" -> ")

    for q in (rq.q_hillshade_stats, rq.q_median_composite_stats,
              analytic2.q_tri_expr_exact):
        ops = plan_ops(q)
        assert len(ops) == 2 and re.match(r"TaskPoolMapOperator\[Read\w+->MapBatches\(", ops[1]), ops
    ops = plan_ops(rq.q_topographic_c)
    assert re.match(r"TaskPoolMapOperator\[Read\w+->MapBatches\(slope_aspect_cos\)\]", ops[1]), ops
    assert len(ops) == 3 and "Aggregate" in ops[2], ops


def test_composite_matches_stack_oracle(synth_sf001):
    """groupby((tx,ty)) aggregate == single-process reduce over the epoch
    stack, ordered by acq_ts."""
    t = pq.read_table(f"{synth_sf001}/tiles.parquet")
    t = t.filter(np.asarray(t["band_count"]) == 2)
    df = t.to_pandas()
    # build the oracle for one (tx, ty)
    tx, ty = int(df["tx"].iloc[0]), int(df["ty"].iloc[0])
    g = df[(df["tx"] == tx) & (df["ty"] == ty)].sort_values("acq_ts")
    assert len(g) == 2  # redir scenes have 2 epochs
    tp = int(g["width"].iloc[0])
    stack = np.stack([
        tilecodec.decode(r["pixels"], r["pixel_type"], 2, tp, tp) for _, r in g.iterrows()])
    masks = np.stack([tilecodec.decode_mask(r["mask"], tp, tp) for _, r in g.iterrows()])
    exp, exp_m = st.aggregate(stack, masks, "Average")
    exp = exp.astype(np.float32)

    tiles = read_tiles(synth_sf001, bands=2)
    out = composite.stack_reduce(tiles, composite.aggregate_reduce("Average"),
                                 out_pixel_type="f4")
    rows = {(r["tx"], r["ty"]): r for r in out.take_all()}
    r = rows[(tx, ty)]
    assert r["n_scenes"] == 2
    got = tilecodec.decode(r["pixels"], "f4", 2, tp, tp)
    np.testing.assert_array_equal(got, exp)
    np.testing.assert_array_equal(tilecodec.decode_mask(r["mask"], tp, tp), exp_m)


def test_median_composite_pipeline(synth_sf001):
    tiles = read_tiles(synth_sf001, bands=7)
    out = composite.stack_reduce(tiles, composite.median_composite_reduce(qa_band=6),
                                 out_pixel_type="f4").take_all()
    assert len(out) > 0
    r = out[0]
    assert r["band_count"] == 6  # QA band consumed
    assert r["n_scenes"] == 6


def test_stack_reduce_from_parquet_equals_shuffle(synth_sf001):
    """The shuffle-free storage-aligned stack reduce must be bit-identical
    to the groupby((tx,ty)) exchange — both lower onto _group_reduce."""
    from raster_functions_ray import analytic2

    path = f"{synth_sf001}/tiles.parquet"
    for bands, reduce_fn, opt in [
        (2, composite.aggregate_reduce("Average"), "f4"),
        (7, composite.median_composite_reduce(qa_band=6), "f4"),
        (7, composite.percentile_reduce(qa_band=6, pct=30.0), "f4"),
        (7, composite.synthesis_reduce(qa_band=6), "f4"),
        (2, analytic2._qa_mod3_reduce("median"), "f8"),
    ]:
        via_shuffle = composite.stack_reduce(
            read_tiles(synth_sf001, bands=bands), reduce_fn, out_pixel_type=opt)
        via_parquet = composite.stack_reduce_from_parquet(
            path, reduce_fn, out_pixel_type=opt, bands=bands)
        a = {r["tile_id"]: r for r in via_shuffle.take_all()}
        b = {r["tile_id"]: r for r in via_parquet.take_all()}
        assert set(a) == set(b) and len(a) > 0
        for tid in a:
            assert a[tid]["pixels"] == b[tid]["pixels"], tid
            assert a[tid]["mask"] == b[tid]["mask"]
            assert a[tid]["n_scenes"] == b[tid]["n_scenes"]
            assert a[tid]["acq_ts"] == b[tid]["acq_ts"]


def _hand_tiles(rows):
    """Tile table (schema.TILE_SCHEMA) of 2-band 2×2 u2 tiles from
    (scene_id, tx, ty, day) tuples; pixel values derive from the tuple."""
    import pyarrow as pa

    from raster_functions_ray.schema import TILE_SCHEMA

    recs = []
    for sid, tx, ty, day in rows:
        px = (np.arange(8, dtype=np.uint16) * (sid + 1) + 3 * tx + ty).reshape(2, 2, 2)
        recs.append({
            "tile_id": f"t{sid:03d}_{tx:03d}_{ty:03d}", "scene_id": sid, "tx": tx, "ty": ty,
            "width": 2, "height": 2, "band_count": 2, "pixel_type": "u2",
            "pixels": tilecodec.encode(px), "mask": tilecodec.encode(np.ones((2, 2), np.uint8)),
            "extent": [tx * 2.0, ty * 2.0, tx * 2.0 + 2, ty * 2.0 + 2], "cell_size": [1.0, 1.0],
            "srid": 3857, "nodata": 0.0, "acq_ts": pd.Timestamp("2020-01-01") + pd.Timedelta(days=day),
            "sun_azimuth": 100.0 + sid, "sun_elevation": 40.0 + sid})
    return pa.Table.from_pylist(recs, schema=TILE_SCHEMA)


def _newest_first_tiles(tmp_path):
    """Three epochs of one footprint (scenes 0-2) covering ty 0-1 and 8-9;
    scene 2 is missing (tx 1, ty 0), so that group is only 2 deep.  The
    rows are stored newest epoch first, so a reduce must reorder them, in
    row groups of 8 rows, which straddle scenes."""
    rows = [(sid, tx, ty, sid) for sid in (2, 1, 0) for tx in (0, 1)
            for ty in (0, 1, 8, 9) if (sid, tx, ty) != (2, 1, 0)]
    table = _hand_tiles(rows)
    path = str(tmp_path / "tiles.parquet")
    pq.write_table(table, path, row_group_size=8)
    return path, table


def test_stack_reduce_multi_group_task(tmp_path):
    """One read task reduces many (tx, ty) groups at once: groups of unequal
    depth keep their own n_scenes, and an empty ty-band yields a 0-row block
    with the reduced blocks' schema."""
    import ray.data as rd

    path, table = _newest_first_tiles(tmp_path)
    for reduce_fn in (composite.aggregate_reduce("Sum"),
                      composite.percentile_reduce(qa_band=1, pct=50.0)):
        via_parquet = composite.stack_reduce_from_parquet(path, reduce_fn, out_pixel_type="f8")
        via_shuffle = composite.stack_reduce(rd.from_arrow(table), reduce_fn, out_pixel_type="f8")
        a = {r["tile_id"]: r for r in via_shuffle.take_all()}
        b = {r["tile_id"]: r for r in via_parquet.take_all()}
        assert a == b and len(a) == 8
        assert {t: r["n_scenes"] for t, r in b.items() if r["n_scenes"] != 3} == {"c_0001_0000": 2}
        # the earliest epoch (scene 0) supplies the pass-through columns
        assert all(r["scene_id"] == 0 for r in b.values())

    fn = composite.aggregate_reduce("Sum")
    every_rg = list(range(pq.ParquetFile(path).num_row_groups))
    full = composite._reduce_tiles_from_parquet(path, [0, 1, 2], 0, 4, every_rg, fn, "f8")
    empty = composite._reduce_tiles_from_parquet(path, [0, 1, 2], 4, 8, every_rg, fn, "f8")
    assert full.num_rows == 4 and empty.num_rows == 0
    assert empty.schema == full.schema
    assert full["ty"].to_pylist() == [0, 0, 1, 1] and full["tx"].to_pylist() == [0, 1, 0, 1]
    expect = sum(tilecodec.decode(p, "u2", 2, 2, 2).astype(np.float64)
                 for p in table.filter(np.asarray(table["tx"]) + np.asarray(table["ty"]) == 0)["pixels"]
                 .to_pylist())
    assert full["pixels"][0].as_py() == tilecodec.encode(expect)


def _aligned_files(tmp_path):
    """(path, bands, aggregates) of every storage-aligned input the planner
    and reader tests check: the sf0.01 tiles and analytic files, and the
    hand-written file whose row groups straddle scenes."""
    d = synth.synth_dir(0.01)
    first_acq = {"acq_ts": ("acq_ts", "first")}
    return [(f"{d}/tiles.parquet", 1, {}), (f"{d}/tiles.parquet", 7, first_acq),
            (f"{d}/tiles.parquet", None, first_acq), (f"{d}/analytic.parquet", 2, first_acq),
            (_newest_first_tiles(tmp_path)[0], None, first_acq)]


def _row_groups_of_rows(path):
    """Every row's key columns with the id of the row group that holds it."""
    md = pq.read_metadata(path)
    t = pq.read_table(path, columns=["scene_id", "band_count", "tx", "ty", "acq_ts"]).to_pandas()
    t["rg"] = np.repeat(np.arange(md.num_row_groups),
                        [md.row_group(i).num_rows for i in range(md.num_row_groups)])
    return t


def test_aligned_scenes_equals_pandas_groupby(tmp_path):
    """The planner's Arrow aggregate over one key-column read gives the
    frame of the pandas groupby it replaced, plus each scene's row groups
    with the first and last tile row it has in each."""
    from raster_functions_ray.stages import aligned

    for path, bands, agg in _aligned_files(tmp_path):
        mdf = _row_groups_of_rows(path)
        if bands is not None:
            mdf = mdf[mdf["band_count"] == bands]
        # the reference: the planner's former pandas groupby
        ref = mdf.groupby("scene_id").agg(tx0=("tx", "min"), ty0=("ty", "min"),
                                          ty1=("ty", "max"), **agg).reset_index()
        parts = mdf.groupby(["scene_id", "rg"])["ty"].agg(["min", "max"]).reset_index()
        got = aligned.scenes(path, bands, **agg)
        assert list(got.columns) == [*ref.columns, "row_groups", "rg_ty0", "rg_ty1"]
        pd.testing.assert_frame_equal(got[ref.columns], ref)
        for name, col in (("row_groups", "rg"), ("rg_ty0", "min"), ("rg_ty1", "max")):
            assert got[name].tolist() == [parts.loc[parts["scene_id"] == s, col].tolist()
                                          for s in ref["scene_id"]], (path, name)


def test_aligned_units_read_exactly_their_row_groups(tmp_path, monkeypatch):
    """Every halo and stack unit's row-group read equals the filtered
    parquet read of its rows, and reads only the row groups that hold them
    (2 of the 54 row groups of the sf0.01 tiles file for a DEM scene)."""
    import pyarrow.compute as pc

    from raster_functions_ray.stages import aligned

    planned = []
    monkeypatch.setattr(aligned, "read_units", lambda name, fn, units: planned.extend(units))
    for path, bands, _ in _aligned_files(tmp_path):
        halo.with_halo_from_parquet(path, padding=1, bands=bands)
        composite.stack_reduce_from_parquet(path, composite.aggregate_reduce("Sum"), bands=bands)
    assert len(planned) > 50
    tiles = f"{synth.synth_dir(0.01)}/tiles.parquet"
    dem = {u[1]: u[2] for u in planned if len(u) == 4 and u[0] == tiles}
    assert len(dem[0]) == 2 and pq.read_metadata(tiles).num_row_groups == 54
    for u in planned:
        if len(u) == 4:   # halo: (path, scene, row groups, padding)
            path, sids, rgs, ty_range = u[0], [u[1]], u[2], None
            flt = pc.field("scene_id") == u[1]
        else:             # stack: (path, scenes, ty_lo, ty_hi, row groups, ...)
            path, sids, ty_range, rgs = u[0], u[1], (u[2], u[3]), u[4]
            flt = (pc.field("scene_id").isin(sids) & (pc.field("ty") >= u[2])
                   & (pc.field("ty") < u[3]))
        assert aligned.read_rows(path, rgs, sids, ty_range).equals(
            pq.read_table(path, filters=flt)), u[:4]
        rows = _row_groups_of_rows(path)
        hit = rows["scene_id"].isin(sids)
        if ty_range is not None:
            hit &= (rows["ty"] >= ty_range[0]) & (rows["ty"] < ty_range[1])
        assert rgs == sorted(set(rows.loc[hit, "rg"])), u[:4]


def test_stack_reduce_from_parquet_acq_window(synth_sf001):
    """acq_window prunes whole epochs at the metadata read — equal to the
    Dataset-side acq_ts filter feeding the shuffle path."""
    import pyarrow as pa
    import pyarrow.compute as pc

    lo, hi = pd.Timestamp("1985-01-01"), pd.Timestamp("1985-04-01")
    path = f"{synth_sf001}/tiles.parquet"
    via_parquet = composite.stack_reduce_from_parquet(
        path, composite.synthesis_reduce(qa_band=6), out_pixel_type="f4",
        bands=7, acq_window=(lo, hi))
    tiles = read_tiles(synth_sf001, bands=7)
    slo = pa.scalar(lo, pa.timestamp("us"))
    shi = pa.scalar(hi, pa.timestamp("us"))
    filtered = tiles.map_batches(
        lambda b: b.filter(pc.and_(pc.greater_equal(b["acq_ts"], slo),
                                   pc.less(b["acq_ts"], shi))),
        batch_format="pyarrow", batch_size=64)
    via_shuffle = composite.stack_reduce(
        filtered, composite.synthesis_reduce(qa_band=6), out_pixel_type="f4")
    a = {r["tile_id"]: r["pixels"] for r in via_shuffle.take_all()}
    b = {r["tile_id"]: r["pixels"] for r in via_parquet.take_all()}
    assert a == b and len(a) > 0


def test_tile_cell_assignment_deterministic(synth_sf001):
    from raster_functions_ray import rasterqueries as rq
    a = rq.q_tile_cells("/root/testdata/sf0.001")
    b = rq.q_tile_cells("/root/testdata/sf0.001")
    pd.testing.assert_frame_equal(
        a.sort_values("tile_id").reset_index(drop=True),
        b.sort_values("tile_id").reset_index(drop=True))
    # every tile got a valid level-6 cell id
    from raster_functions_ray import grid
    lvl, ix, iy = grid.cell_decode(a["cell_id"].to_numpy())
    assert (lvl == 6).all()
    assert ((ix >= 0) & (ix < 64)).all() and ((iy >= 0) & (iy < 64)).all()


def test_zonal_remap_counts_runs(synth_sf001):
    from raster_functions_ray import rasterqueries as rq
    out = rq.q_zonal_remap_counts("/root/testdata/sf0.001")
    assert len(out) > 0
    px_per_tile = out.groupby("tile_id")["n_px"].sum()
    assert (px_per_tile == 32 * 32).all()  # partition of every DEM tile
    # the query has no SQL oracle: pin its frame hash
    # (scripts/verify_queries.value_hash)
    import importlib.util
    import pathlib

    spec = importlib.util.spec_from_file_location(
        "verify_queries",
        pathlib.Path(__file__).resolve().parents[1] / "scripts" / "verify_queries.py")
    vq = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(vq)
    assert vq.value_hash(out) == "40feb7708b1ad4dc4cf687baa545cd7f"


class TestAnalyticExactGates:
    """The closed-form analytic world (synth.build_analytic) and its
    SQL-exact queries (analytic.py)."""

    def test_bands_integer_valued(self):
        from raster_functions_ray.synth import analytic_band0, analytic_band1
        gr, gc = np.meshgrid(np.arange(128.0), np.arange(128.0), indexing="ij")
        for s in range(2):
            for e in range(3):
                for f in (analytic_band0, analytic_band1):
                    v = f(s, e, gr, gc)
                    assert (v == np.round(v)).all() and v.max() < 2**40

    def test_ndvi_exact_matches_brute(self):
        from raster_functions_ray import analytic as an
        from raster_functions_ray.synth import (analytic_band0, analytic_band1,
                                                params_for)
        got = an.q_ndvi_exact("/root/testdata/sf0.001")
        p = params_for(0.001)
        n = p.tiles_per_side * p.tile_px
        gr, gc = np.meshgrid(np.arange(float(n)), np.arange(float(n)),
                             indexing="ij")
        for s in range(2):
            red = analytic_band0(s, 0, gr, gc)
            ir = analytic_band1(s, 0, gr, gc)
            nd = (ir - red) / (ir + red)
            for ty in range(p.tiles_per_side):
                for tx in range(p.tiles_per_side):
                    t = nd[ty * p.tile_px:(ty + 1) * p.tile_px,
                           tx * p.tile_px:(tx + 1) * p.tile_px]
                    row = got[got.tile_id == f"a{s*10:03d}_{tx:03d}_{ty:03d}"]
                    assert len(row) == 1
                    assert row.ndvi_min.iloc[0] == t.min()
                    assert row.ndvi_max.iloc[0] == t.max()
                    assert row.n_above.iloc[0] == int((t > an.NDVI_THRESH).sum())

    def test_focal_tri_halo_equals_whole_scene(self):
        # the engine's tile-wise halo path must equal one whole-scene pad
        from raster_functions_ray import analytic as an
        from raster_functions_ray.functions import focal as fc
        from raster_functions_ray.synth import analytic_band0, params_for
        got = an.q_focal_tri_exact("/root/testdata/sf0.001")
        p = params_for(0.001)
        n = p.tiles_per_side * p.tile_px
        gr, gc = np.meshgrid(np.arange(float(n)), np.arange(float(n)),
                             indexing="ij")
        for s in range(2):
            band = analytic_band0(s, 0, gr, gc)
            padded = np.pad(band, 1, mode="edge")
            fmin = fc.focal_min(padded, 3)
            fmax = fc.focal_max(padded, 3)
            tri = np.sqrt(np.abs(fmax * fmax - fmin * fmin))
            for ty in range(p.tiles_per_side):
                for tx in range(p.tiles_per_side):
                    t = tri[ty * p.tile_px:(ty + 1) * p.tile_px,
                            tx * p.tile_px:(tx + 1) * p.tile_px]
                    row = got[got.tile_id == f"a{s*10:03d}_{tx:03d}_{ty:03d}"]
                    assert row.tri_min.iloc[0] == t.min()
                    assert row.tri_max.iloc[0] == t.max()

    def test_second_max_is_permutation_not_last_epoch(self):
        # epoch values are base + c*{0,2,1}: second max = epoch 2's value
        from raster_functions_ray.functions import stack as st
        base = np.full((2, 2), 10.0)
        stack = np.stack([base + 0.0, base + 2.0, base + 1.0])
        out = st.find_kth_max(stack, k=2, invalid_above=1e15)
        np.testing.assert_array_equal(out, base + 1.0)

    def test_remap_exact_classes_partition_tile(self):
        from raster_functions_ray import analytic as an
        got = an.q_remap_exact("/root/testdata/sf0.001")
        per_tile = got.groupby("tile_id")["n"].sum()
        assert (per_tile == 32 * 32).all()  # every pixel classified exactly once
        assert set(got["class"]).issubset({1, 2, 3, 4})

    def test_sql_formula_matches_python(self):
        # _b0_sql/_b1_sql must stay in sync with synth.analytic_band0/1 —
        # evaluate both on a grid of (s, e, gr, gc) and compare exactly
        import duckdb
        from raster_functions_ray import analytic as an
        from raster_functions_ray.synth import analytic_band0, analytic_band1
        con = duckdb.connect()
        q = f"""
        SELECT s, e, gr, gc, {an._b0_sql()} AS b0, {an._b1_sql()} AS b1
        FROM (SELECT unnest(generate_series(0, 1)) AS s),
             (SELECT unnest(generate_series(0, 2)) AS e),
             (SELECT unnest(generate_series(0, 40, 7)) AS gr),
             (SELECT unnest(generate_series(0, 40, 7)) AS gc)
        """
        df = con.execute(q).df()
        want0 = analytic_band0(df.s.to_numpy(), df.e.to_numpy(),
                               df.gr.to_numpy(float), df.gc.to_numpy(float))
        want1 = analytic_band1(df.s.to_numpy(), df.e.to_numpy(),
                               df.gr.to_numpy(float), df.gc.to_numpy(float))
        np.testing.assert_array_equal(df.b0.to_numpy(), want0)
        np.testing.assert_array_equal(df.b1.to_numpy(), want1)

    def test_adaptive_covering_clamps_world_edges(self):
        from raster_functions_ray.grid import adaptive_covering
        z, lv, ix, iy, full = adaptive_covering(
            np.asarray([[0.0, -90.0, 360.0, 90.0]]), 3, 4)
        n3, n4 = 2**3, 2**4
        m3, m4 = lv == 3, lv == 4
        assert ix[m3].max() < n3 and iy[m3].max() < n3
        assert (ix >= 0).all() and (iy >= 0).all()
        if m4.any():
            assert ix[m4].max() < n4 and iy[m4].max() < n4
        # whole world at level 3: all 64 cells full
        assert full[m3].all() and m3.sum() == 64

    def test_stretch_and_qa_exact_sane(self):
        from raster_functions_ray import analytic as an
        st = an.q_stretch_exact("/root/testdata/sf0.001")
        assert (st.s_min >= 0).all() and (st.s_max <= 255).all()
        qa = an.q_qa_exact("/root/testdata/sf0.001")
        assert (qa.n_flagged >= 0).all() and (qa.n_flagged <= 32 * 32).all()


class TestTopographicCExact:
    def test_identity_form_tracks_production_trig(self):
        """The exact gate's algebraic cos(i) must agree with the production
        slope/aspect→cos_incidence chain (which uses the reference's
        rounded 57.29578 deg constant) to ~1e-6."""
        import numpy as np
        from raster_functions_ray import analytic2 as a2
        from raster_functions_ray.functions import focal as fc
        from raster_functions_ray.functions import stack as st

        rng = np.random.default_rng(7)
        dem = rng.integers(0, 2000, (34, 34)).astype(np.float64)
        ciq, dx, dy = a2.tcx_cos_incidence_quantized(dem)
        cell = 30.0
        slope_deg = np.degrees(np.arctan(np.sqrt(dx**2 + dy**2) / cell))
        aspect_deg = (57.29578 * np.arctan2(dx, -dy)) % 360.0
        ci_prod = st.cos_incidence(slope_deg, aspect_deg,
                                   a2._TCX_AZ, a2._TCX_EL)
        assert np.abs(ciq / a2.TCX_Q - ci_prod).max() < 1e-5

    def test_matches_oracle(self, synth_sf001):
        import duckdb
        from raster_functions_ray import analytic2 as a2
        eng = a2.q_topographic_c_exact("/root/testdata/sf0.001")
        ora = duckdb.connect().execute(
            a2.topographic_c_exact_oracle_sql(0.001)).df()
        ora["scene_id"] = ora["scene_id"].astype("int64")
        assert eng.reset_index(drop=True).equals(ora.reset_index(drop=True))


class TestLsuNormalForm:
    """The analytic LSU gate's normal-equations application G·y must
    track np.linalg.lstsq (the production kernel's solver) on the same
    full-rank system."""

    def test_normal_form_matches_lstsq(self):
        from raster_functions_ray import analytic2 as a2

        rng = np.random.default_rng(5)
        b0 = rng.uniform(100, 5000, (16, 16))
        b1 = rng.uniform(300, 3000, (16, 16))
        q = a2.lsux_abundance_quantized(b0, b1)
        y = np.stack([b0, b1, b0 * b1]).reshape(3, -1)
        ref = np.linalg.lstsq(a2.LSUX_A, y, rcond=None)[0]
        np.testing.assert_allclose(q / a2.LSUX_Q,
                                   ref.reshape(2, 16, 16), rtol=1e-9)

    def test_quantized_values_fit_exactly(self):
        from raster_functions_ray import analytic2 as a2

        # analytic-domain magnitudes: aj*2^20 must stay < 2^53 and the
        # per-tile sum < 2^63 so both sides are order-free integers
        b0 = np.full((64, 64), 6000.0)
        b1 = np.full((64, 64), 4000.0)
        q = a2.lsux_abundance_quantized(b0, b1)
        assert np.abs(q).max() < 2**53
        assert np.abs(q.sum(axis=(1, 2))).max() < 2**62


class TestRfTreeLiteralGate:
    """The RF exact gate's CASE-literal export must reproduce the fitted
    forest's predict_proba exactly (tree traversal, vote mean, f4 cast)."""

    def test_tree_sql_roundtrip(self):
        import duckdb

        from raster_functions_ray import analytic2 as a2
        from raster_functions_ray.stages.classify import _CartForest

        df = a2.rfx_training()
        X = df[["pred_1", "pred_2", "pred_3"]].to_numpy(np.float64)
        y = df["VarToPredict"].to_numpy(np.float64)
        forest = _CartForest(random_state=43).fit(X, y)

        rng = np.random.default_rng(2)
        b0 = np.floor(rng.uniform(100, 2700, 500))
        b1 = np.floor(rng.uniform(300, 4400, 500))
        feats = np.stack([b0, b1, b0 * b1], axis=1)
        p1 = forest.predict_proba(feats)[:, 1]
        q_eng = np.floor(p1.astype(np.float32).astype(np.float64)
                         * a2.RFX_Q + 0.5).astype(np.int64)

        texprs = [a2._rfx_tree_sql(t.root) for t in forest.trees]
        con = duckdb.connect()
        con.register("pxf", pd.DataFrame(
            {"rid": np.arange(500), "f0": b0, "f1": b1, "f2": b0 * b1}))
        tsel = ", ".join(f"{t} AS t{i}" for i, t in enumerate(texprs))
        psum = " + ".join(f"t{i}" for i in range(len(texprs)))
        out = con.sql(
            f"""WITH rft AS (SELECT rid, {tsel} FROM pxf),
rfp AS (SELECT rid, ({psum}) / {float(len(texprs))} AS p1 FROM rft)
SELECT CAST(floor(CAST(CAST(p1 AS FLOAT) AS DOUBLE) * {a2.RFX_Q} + 0.5)
            AS BIGINT) AS q
FROM rfp ORDER BY rid""").df()
        assert np.array_equal(q_eng, out["q"].to_numpy())


class TestDeregisteredNoiseWorldQueries:
    """Round-4 registry prune: these noise-world stat queries left the
    driver registry (their analytic-world _exact complements carry the
    SQL gates) but remain production code paths — this smoke gate keeps
    every one of them running end to end over the noise world."""

    def test_all_run_and_produce_rows(self, synth_sf001):
        from raster_functions_ray import rasterqueries as rq

        sf = "/root/testdata/sf0.001"
        for fn in (rq.q_ndvi_stats, rq.q_hillshade_shuffle_halo_stats,
                   rq.q_rf_classify_stats, rq.q_topographic_c,
                   rq.q_cti_stats, rq.q_random_source, rq.q_lsu_stats,
                   rq.q_multidirectional_hillshade_stats,
                   rq.q_resumable_hillshade, rq.q_nn_neighbors_stats):
            out = fn(sf)
            df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
            assert len(df) > 0, fn.__name__
            num = df.select_dtypes("number")
            assert num.shape[1] > 0 and np.isfinite(
                num.to_numpy(np.float64)).all(), fn.__name__
