"""Deterministic synthetic data (seed=42) for the tile/document/zone tables.

The driver's parquet tables (TESTDATA.md) carry the relational side; the
raster/spatial side — tiles with pixel payloads, interleaved span documents
(driver ``input_hint``), vector zones — is synthesized here, deterministically,
at a scale factor matching the driver's sf dirs.  FIXTURES.md is the schema
contract.  Results are cached as parquet under ``/tmp/rfr_synth`` so repeated
``queries()`` calls and benches don't regenerate.

World model
-----------
Scenes sit on a square grid of *positions*; each position holds ``epochs``
co-registered scenes (same footprint, different acquisition time) — the
engine-side equivalent of the host's mosaic overlap resolution
(functions/Reference.py:214-217; SURVEY.md §3.3).  Global tile coordinates
``(gx, gy)`` identify a footprint across epochs; temporal composites group on
them.  The world is [0, W)×[0, H) meters, mapped linearly to lon∈[0,360),
lat∈[-90,90) for cell indexing (grid.py).

Position types cycle: ``dem`` (1×f4 band, 1 epoch), ``redir`` (2×f4 bands,
2 epochs — before/after for DNBR), ``landsat`` (7×u2 bands: 6 SR + QA,
6 epochs, monthly acq dates; QA codes per
functions/LandsatPixelPercentile.py:15-17).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .schema import DOC_SCHEMA, TILE_SCHEMA, TRAINING_SCHEMA, ZONE_SCHEMA

SEED = 42
CACHE_ROOT = os.environ.get("RFR_SYNTH_CACHE", "/tmp/rfr_synth")
CELL_SIZE_M = 30.0
# Landsat C2 QA codes: clear/water vs cloudy (semantics per
# functions/LandsatPixelPercentile.py:15-17 / LandsatMedianPixelComposite.py:25-27)
QA_CLEAR = (672, 676, 680, 684, 20480, 20484, 20512, 23552)
QA_CLOUDY = (752, 756, 760, 764, 1696, 1700, 1704, 1708)


@dataclass(frozen=True)
class SynthParams:
    sf: float
    pos_grid: int      # positions per side (P = pos_grid²)
    tiles_per_side: int  # G: tiles per scene side
    tile_px: int       # T: pixels per tile side
    n_docs: int
    n_zones: int

    @property
    def scene_span(self) -> float:
        return self.tiles_per_side * self.tile_px * CELL_SIZE_M

    @property
    def world_w(self) -> float:
        return self.pos_grid * self.scene_span

    @property
    def world_h(self) -> float:
        return self.pos_grid * self.scene_span


_PARAMS = {
    0.001: SynthParams(0.001, pos_grid=2, tiles_per_side=4, tile_px=32, n_docs=500, n_zones=24),
    0.01: SynthParams(0.01, pos_grid=3, tiles_per_side=8, tile_px=64, n_docs=5000, n_zones=50),
    0.1: SynthParams(0.1, pos_grid=4, tiles_per_side=16, tile_px=64, n_docs=50000, n_zones=80),
}


def params_for(sf: float) -> SynthParams:
    key = min(_PARAMS, key=lambda k: abs(k - sf))
    if abs(key - sf) > 1e-9:
        # nearest-key mapping is for the TEST worlds only — a job pointed at
        # /data/sf100 must not silently run the sf0.1 tile world while its
        # metrics claim the requested scale
        import warnings

        warnings.warn(f"sf={sf} has no synthetic world; using sf={key}",
                      stacklevel=2)
    return _PARAMS[key]


def sf_from_dir(sf_dir: str) -> float:
    # \d+(\.\d+)? — the loose [0-9.]+ matched 'sf0.01.bak' as '0.01.'
    # (ValueError) and a dirname without any sf token silently fell back
    m = re.search(r"sf(\d+(?:\.\d+)?)", sf_dir)
    if not m:
        raise ValueError(f"no sf<scale> token in {sf_dir!r}")
    return float(m.group(1))


def pos_type(pos: int) -> str:
    return ("dem", "redir", "landsat")[pos % 3]


def pos_epochs(pos: int) -> int:
    return {"dem": 1, "redir": 2, "landsat": 6}[pos_type(pos)]


def world_to_lonlat(x, y, p: SynthParams):
    """Linear world→lon/lat used for cell indexing (kept SQL-trivial)."""
    lon = np.asarray(x, dtype=np.float64) / p.world_w * 360.0
    lat = np.asarray(y, dtype=np.float64) / p.world_h * 180.0 - 90.0
    return lon, lat


# ---------------------------------------------------------------- tiles ----

def _scene_pixels(pos: int, epoch: int, p: SynthParams) -> tuple[np.ndarray, str]:
    """Full-scene pixel array (bands, N, N) for one (position, epoch)."""
    n = p.tiles_per_side * p.tile_px
    rng = np.random.default_rng(SEED * 1_000_003 + pos * 1009 + epoch)
    yy, xx = np.meshgrid(np.arange(n, dtype=np.float64), np.arange(n, dtype=np.float64), indexing="ij")
    t = pos_type(pos)
    if t == "dem":
        # smooth inclined surface + gaussian hills: good hillshade/slope input
        a, b = rng.uniform(0.05, 0.3, 2)
        z = 500.0 + a * xx + b * yy
        for _ in range(6):
            cx, cy = rng.uniform(0, n, 2)
            amp, sig = rng.uniform(50, 300), rng.uniform(n / 16, n / 4)
            z += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sig**2))
        return z[None].astype(np.float32), "f4"
    if t == "redir":
        red = 0.1 + 0.3 * (xx / n) + 0.05 * np.sin(xx / 7.0 + epoch) + rng.normal(0, 0.01, (n, n))
        ir = 0.2 + 0.5 * (yy / n) + 0.05 * np.cos(yy / 11.0 - epoch) + rng.normal(0, 0.01, (n, n))
        return np.stack([red, ir]).astype(np.float32), "f4"
    # landsat: 6 SR bands as u2 DNs + QA band
    bands = []
    for b in range(6):
        base = 7000 + 900 * b
        bands.append(base + 120.0 * b * (xx + yy) / n + rng.normal(0, 180, (n, n)))
    qa = np.where(
        rng.random((n, n)) < 0.75,
        rng.choice(np.asarray(QA_CLEAR, dtype=np.float64), (n, n)),
        rng.choice(np.asarray(QA_CLOUDY, dtype=np.float64), (n, n)),
    )
    arr = np.clip(np.stack(bands + [qa]), 0, 65535).astype(np.uint16)
    return arr, "u2"


def build_tiles(p: SynthParams) -> pa.Table:
    rows: dict[str, list] = {name: [] for name in TILE_SCHEMA.names}
    scene_id = 0
    for pos in range(p.pos_grid * p.pos_grid):
        sx, sy = pos % p.pos_grid, pos // p.pos_grid
        for epoch in range(pos_epochs(pos)):
            arr, ptype = _scene_pixels(pos, epoch, p)
            bc = arr.shape[0]
            nseed = np.random.default_rng(SEED * 999 + scene_id)
            # ~monthly epoch spacing, position-staggered start
            acq = np.datetime64("1985-01-15T00:00:00", "us") + np.timedelta64(epoch * 31 + pos * 3, "D")
            sun_az = float(90.0 + 180.0 * nseed.random())
            sun_el = float(20.0 + 50.0 * nseed.random())
            srid = 4326 if pos == 1 else 3857
            for ty in range(p.tiles_per_side):
                for tx in range(p.tiles_per_side):
                    t0x, t0y = tx * p.tile_px, ty * p.tile_px
                    tile = arr[:, t0y : t0y + p.tile_px, t0x : t0x + p.tile_px]
                    m = (nseed.random((p.tile_px, p.tile_px)) > 0.03).astype(np.uint8)
                    xmin = sx * p.scene_span + tx * p.tile_px * CELL_SIZE_M
                    ymin = sy * p.scene_span + ty * p.tile_px * CELL_SIZE_M
                    rows["tile_id"].append(f"t{scene_id:03d}_{tx:03d}_{ty:03d}")
                    rows["scene_id"].append(scene_id)
                    rows["tx"].append(sx * p.tiles_per_side + tx)
                    rows["ty"].append(sy * p.tiles_per_side + ty)
                    rows["width"].append(p.tile_px)
                    rows["height"].append(p.tile_px)
                    rows["band_count"].append(bc)
                    rows["pixel_type"].append(ptype)
                    rows["pixels"].append(np.ascontiguousarray(tile).tobytes())
                    rows["mask"].append(m.tobytes())
                    rows["extent"].append(
                        [xmin, ymin, xmin + p.tile_px * CELL_SIZE_M, ymin + p.tile_px * CELL_SIZE_M]
                    )
                    rows["cell_size"].append([CELL_SIZE_M, CELL_SIZE_M])
                    rows["srid"].append(srid)
                    rows["nodata"].append(-3.4e38 if ptype == "f4" else 0.0)
                    rows["acq_ts"].append(acq.astype("datetime64[us]").item())
                    rows["sun_azimuth"].append(sun_az)
                    rows["sun_elevation"].append(sun_el)
            scene_id += 1
    return pa.Table.from_pydict(rows, schema=TILE_SCHEMA)


# ------------------------------------------------------------- documents ----

# ----------------------------------------------------- analytic tiles ----
#
# A second, CLOSED-FORM tile world for SQL-exact raster gates: every pixel
# is an integer-valued affine function of (scene, epoch, row, col) that a
# DuckDB oracle recomputes verbatim via generate_series.  Integer values in
# f8 make every min/max/count — and sums below 2^53 — bit-exact regardless
# of summation order, which is what upgrades pixel-stat queries from
# rows-only to value-hash parity (noise-bearing tiles.parquet cannot be
# reproduced in SQL).  scene_id = s*10 + epoch, s ∈ [0, A_SCENES),
# epoch ∈ [0, A_EPOCHS); the epoch term uses the permutation (2e) mod 3 so
# epoch ORDER is not value order (FindSecondMax is a real selection).

A_SCENES = 2
A_EPOCHS = 3


def analytic_band0(s, e, gr, gc):
    """Band 0 ("dem"/red): integer affine surface; np-broadcastable."""
    return (100.0 + 10.0 * s) + (2.0 + s) * gc + (1.0 + s) * gr \
        + (3.0 + 2.0 * s) * ((2 * e) % 3)


def analytic_band1(s, e, gr, gc):
    """Band 1 ("ir")."""
    return (300.0 + 20.0 * s) + (5.0 + s) * gr + 2.0 * gc + 7.0 * ((2 * e) % 3)


def build_analytic(p: SynthParams) -> pa.Table:
    rows: dict[str, list] = {name: [] for name in TILE_SCHEMA.names}
    n = p.tiles_per_side * p.tile_px
    gr, gc = np.meshgrid(np.arange(n, dtype=np.float64),
                         np.arange(n, dtype=np.float64), indexing="ij")
    ones = np.ones((p.tile_px, p.tile_px), np.uint8).tobytes()
    for s in range(A_SCENES):
        for e in range(A_EPOCHS):
            sid = s * 10 + e
            arr = np.stack([analytic_band0(s, e, gr, gc),
                            analytic_band1(s, e, gr, gc)])
            acq = (np.datetime64("1990-01-01T00:00:00", "us")
                   + np.timedelta64(e, "D"))
            for ty in range(p.tiles_per_side):
                for tx in range(p.tiles_per_side):
                    t0x, t0y = tx * p.tile_px, ty * p.tile_px
                    tile = arr[:, t0y:t0y + p.tile_px, t0x:t0x + p.tile_px]
                    xmin = s * p.scene_span + tx * p.tile_px * CELL_SIZE_M
                    ymin = ty * p.tile_px * CELL_SIZE_M
                    rows["tile_id"].append(f"a{sid:03d}_{tx:03d}_{ty:03d}")
                    rows["scene_id"].append(sid)
                    rows["tx"].append(s * p.tiles_per_side + tx)
                    rows["ty"].append(ty)
                    rows["width"].append(p.tile_px)
                    rows["height"].append(p.tile_px)
                    rows["band_count"].append(2)
                    rows["pixel_type"].append("f8")
                    rows["pixels"].append(np.ascontiguousarray(tile).tobytes())
                    rows["mask"].append(ones)
                    rows["extent"].append(
                        [xmin, ymin, xmin + p.tile_px * CELL_SIZE_M,
                         ymin + p.tile_px * CELL_SIZE_M])
                    rows["cell_size"].append([CELL_SIZE_M, CELL_SIZE_M])
                    rows["srid"].append(3857)
                    rows["nodata"].append(0.0)
                    rows["acq_ts"].append(acq.astype("datetime64[us]").item())
                    rows["sun_azimuth"].append(180.0)
                    rows["sun_elevation"].append(45.0)
    return pa.Table.from_pydict(rows, schema=TILE_SCHEMA)


def build_documents(p: SynthParams, tile_ids: list[str]) -> pa.Table:
    rng = np.random.default_rng(SEED)
    n_tiles = len(tile_ids)
    doc_ids, spans_col = [], []
    for i in range(p.n_docs):
        nspan = int(rng.integers(1, 9))
        offs = np.sort(rng.choice(np.arange(0, 4096, dtype=np.int32), nspan, replace=False))
        spans = []
        for j in range(nspan):
            if rng.random() < 0.5:
                if rng.random() < 0.7:
                    lon = float(np.round(rng.random() * 360.0, 6))
                    lat = float(np.round(rng.random() * 180.0 - 90.0, 6))
                    wkt = f"POINT ({lon} {lat})"
                else:
                    cx = rng.random() * 350.0 + 5.0
                    cy = rng.random() * 170.0 - 85.0
                    r = rng.random() * 4.0 + 0.5
                    pts = [
                        (round(cx + r * np.cos(a), 6), round(cy + r * np.sin(a), 6))
                        for a in np.linspace(0, 2 * np.pi, 5)[:-1]
                    ]
                    ring = ", ".join(f"{x} {y}" for x, y in pts + [pts[0]])
                    wkt = f"POLYGON (({ring}))"
                spans.append({"kind": "text", "text": wkt, "media_ref": "", "offset": int(offs[j])})
            else:
                ref = tile_ids[int(rng.integers(0, n_tiles))]
                spans.append({"kind": "media", "text": "", "media_ref": ref, "offset": int(offs[j])})
        doc_ids.append(f"d{i:08d}")
        spans_col.append(spans)
    return pa.Table.from_pydict({"doc_id": doc_ids, "spans": spans_col}, schema=DOC_SCHEMA)


# ----------------------------------------------------------------- zones ----

def build_zones(p: SynthParams) -> pa.Table:
    rng = np.random.default_rng(SEED + 7)
    rows = {name: [] for name in ZONE_SCHEMA.names}
    for z in range(1, p.n_zones + 1):
        hot = rng.random() < 0.1
        w = rng.uniform(40.0, 120.0) if hot else rng.uniform(3.0, 20.0)
        h = rng.uniform(30.0, 80.0) if hot else rng.uniform(3.0, 20.0)
        x0 = rng.uniform(0.0, 360.0 - w)
        y0 = rng.uniform(-90.0, 90.0 - h)
        is_rect = rng.random() < 0.7
        if is_rect:
            verts = [x0, y0, x0 + w, y0, x0 + w, y0 + h, x0, y0 + h]
        else:
            cx, cy, rx, ry = x0 + w / 2, y0 + h / 2, w / 2, h / 2
            k = int(rng.integers(5, 9))
            angs = np.sort(rng.uniform(0, 2 * np.pi, k))
            verts = []
            for a in angs:
                verts += [cx + rx * np.cos(a), cy + ry * np.sin(a)]
        verts = [round(v, 6) for v in verts]
        # bbox from the ROUNDED vertices — the stored polygon IS the rounded
        # one, and the covering-box contract (schema.py) must cover it
        vx, vy = verts[0::2], verts[1::2]
        rows["zone_id"].append(z)
        rows["bbox"].append([min(vx), min(vy), max(vx), max(vy)])
        rows["vertices"].append(verts)
        rows["is_rect"].append(bool(is_rect))
        rows["zmin"].append(None if rng.random() < 0.15 else float(rng.uniform(0, 4000)))
        rows["zmax"].append(None if rng.random() < 0.15 else float(rng.uniform(4000, 9000)))
        rows["zval"].append(float(z * 10))
        for a in range(1, 5):
            rows[f"attr_{a}"].append(float(np.round(rng.normal(100 * a, 10), 4)))
    return pa.Table.from_pydict(rows, schema=ZONE_SCHEMA)


def build_training(n: int = 500) -> pa.Table:
    rng = np.random.default_rng(SEED + 13)
    feats = {f"pred_{i}": rng.normal(7000 + 900 * (i - 1), 400, n) for i in range(1, 7)}
    score = sum((i - 3.5) * feats[f"pred_{i}"] for i in range(1, 7)) / 1000.0
    label = (score + rng.normal(0, 1.0, n) > np.median(score)).astype(np.int32)
    cols = {
        "OBJECTID": np.arange(1, n + 1, dtype=np.int32),
        "LOCATION_X": rng.uniform(0, 360, n),
        "LOCATION_Y": rng.uniform(-90, 90, n),
        **feats,
        "VarToPredict": label,
    }
    return pa.Table.from_pydict(cols, schema=TRAINING_SCHEMA)


# ----------------------------------------------------------------- cache ----

def synth_dir(sf: float) -> str:
    """Generate (once) and return the parquet dir for scale factor ``sf``.

    Concurrency-safe: each generator writes to a uniquely-suffixed tmp dir
    (complete with the _DONE marker) and publishes with ONE atomic
    os.replace; a lost race leaves the winner's cache untouched.

    Tile row groups are 4 tile-rows tall (and never straddle scenes, which
    divide evenly): the storage-aligned readers (stages/aligned.py) then
    read whole row groups of one unit and filter nothing; they take the
    boundaries from the file, so other layouts stay correct, only slower."""
    import shutil
    import uuid

    p = params_for(sf)
    d = os.path.join(CACHE_ROOT, f"v8_sf{p.sf}")  # v8: real BMP/WAV/y4m media payloads
    marker = os.path.join(d, "_DONE")
    if os.path.exists(marker):
        return d
    tmp = f"{d}.tmp-{uuid.uuid4().hex[:8]}"
    os.makedirs(tmp)
    tiles = build_tiles(p)
    pq.write_table(tiles, os.path.join(tmp, "tiles.parquet"),
                   row_group_size=4 * p.tiles_per_side)
    docs = build_documents(p, tiles["tile_id"].to_pylist())
    pq.write_table(docs, os.path.join(tmp, "documents.parquet"), row_group_size=4096)
    pq.write_table(build_zones(p), os.path.join(tmp, "zones.parquet"))
    pq.write_table(build_analytic(p), os.path.join(tmp, "analytic.parquet"),
                   row_group_size=4 * p.tiles_per_side)
    pq.write_table(build_training(), os.path.join(tmp, "training.parquet"))
    from .stages.media import synth_media
    pq.write_table(synth_media(n=max(64, int(2560 * p.sf))),
                   os.path.join(tmp, "media.parquet"), row_group_size=256)
    with open(os.path.join(tmp, "params.json"), "w") as f:
        json.dump(p.__dict__, f)
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        f.write("ok")
    try:
        os.replace(tmp, d)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
        # only a LOST RACE is benign — verify someone actually published
        if not os.path.exists(marker):
            raise
    return d


def synth_dir_for(sf_dir: str) -> str:
    return synth_dir(sf_from_dir(sf_dir))
