"""Hypothesis property tests for the hierarchical grid, the one adaptive
coverer, the zone index and the zone burn (pure numpy, no Ray)."""

import numpy as np
import pandas as pd
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from raster_functions_ray import synth
from raster_functions_ray.grid import (IX_STRIDE, LEVEL_STRIDE,
                                       adaptive_covering, cell_decode,
                                       cell_encode, parent)
from raster_functions_ray.rasterqueries import burn_zone_raster
from raster_functions_ray.spatial import (CELL_LEVEL, convex_inside,
                                          zone_contains, zone_index)

lon = st.floats(min_value=0.0, max_value=360.0, allow_nan=False,
                allow_infinity=False)
lat = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False,
                allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(x0=lon, y0=lat, dx=st.floats(0.001, 90.0), dy=st.floats(0.001, 45.0),
       lmin=st.integers(2, 4), span=st.integers(1, 3))
def test_adaptive_covering_invariants(x0, y0, dx, dy, lmin, span):
    xmin, ymin = x0, y0
    xmax, ymax = min(360.0, x0 + dx), min(90.0, y0 + dy)
    lmax = lmin + span
    z, lv, ix, iy, full = adaptive_covering(
        np.asarray([[xmin, ymin, xmax, ymax]]), lmin, lmax)
    # 1. all cells in-grid at their level
    n = 2 ** lv
    assert (ix >= 0).all() and (iy >= 0).all()
    assert (ix < n).all() and (iy < n).all()
    # 2. partial cells only at lmax
    assert (lv[~full] == lmax).all()
    # 3. pairwise disjoint (normalize to lmax index ranges)
    s = 2 ** (lmax - lv)
    xs0, xs1 = ix * s, (ix + 1) * s
    ys0, ys1 = iy * s, (iy + 1) * s
    order = np.lexsort((ys0, xs0))
    for a in range(len(order)):
        ia = order[a]
        ov = ((xs0 < xs1[ia]) & (xs1 > xs0[ia])
              & (ys0 < ys1[ia]) & (ys1 > ys0[ia]))
        assert ov.sum() == 1
    # 4. interior sample points land in exactly one cell
    if xmax - xmin > 1e-6 and ymax - ymin > 1e-6:
        rng = np.random.default_rng(0)
        px = rng.uniform(xmin + 1e-7, xmax - 1e-7, 50)
        py = rng.uniform(ymin + 1e-7, ymax - 1e-7, 50)
        w, h = 360.0 / 2 ** lmax, 180.0 / 2 ** lmax
        cx = np.minimum(np.floor(px / w), 2 ** lmax - 1)
        cy = np.minimum(np.floor((py + 90.0) / h), 2 ** lmax - 1)
        hits = ((cx[:, None] >= xs0[None]) & (cx[:, None] < xs1[None])
                & (cy[:, None] >= ys0[None]) & (cy[:, None] < ys1[None]))
        assert (hits.sum(axis=1) == 1).all()


@settings(max_examples=200, deadline=None)
@given(x=lon, y=lat, level=st.integers(1, 12))
def test_cell_encode_decode_parent_roundtrip(x, y, level):
    c = cell_encode(np.asarray([x]), np.asarray([y]), level)
    lv, ix, iy = cell_decode(c)
    assert lv[0] == level
    assert c[0] == level * LEVEL_STRIDE + ix[0] * IX_STRIDE + iy[0]
    if level > 1:
        p = parent(c)
        plv, pix, piy = cell_decode(p)
        assert plv[0] == level - 1
        assert pix[0] == ix[0] // 2 and piy[0] == iy[0] // 2
        # the parent's rectangle contains the child's
        assert pix[0] * 2 <= ix[0] < (pix[0] + 1) * 2


# zone edges either on the CELL_LEVEL lattice (cell corners, the poles and
# the antimeridian included) or rounded to 6 decimals like the synthetic
# zones; cell-size steps in lon and lat
CELL_W, CELL_H = 360.0 / 2**CELL_LEVEL, 180.0 / 2**CELL_LEVEL
zone_lon = st.one_of(st.integers(0, 2**CELL_LEVEL).map(lambda i: i * CELL_W),
                     lon.map(lambda v: round(v, 6)))
zone_lat = st.one_of(
    st.integers(0, 2**CELL_LEVEL).map(lambda i: i * CELL_H - 90.0),
    lat.map(lambda v: round(v, 6)))


@st.composite
def rect_zone(draw):
    xa, xb = sorted((draw(zone_lon), draw(zone_lon)))
    ya, yb = sorted((draw(zone_lat), draw(zone_lat)))
    assume(xb > xa and yb > ya)
    return True, [xa, ya, xb, yb], [xa, ya, xb, ya, xb, yb, xa, yb]


@st.composite
def convex_zone(draw):
    """A CCW convex ring: an ellipse sampled at 3–16 sorted angles (the
    synth shape), or an octagon cut from a lattice rectangle, whose edges run
    along cell edges and diagonally through cell corners."""
    if draw(st.booleans()):
        cx = draw(st.floats(25.0, 335.0))
        cy = draw(st.floats(-65.0, 65.0))
        rx, ry = draw(st.floats(0.5, 25.0)), draw(st.floats(0.5, 25.0))
        ang = np.sort(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=3,
                                    max_size=16, unique=True)))
        assume(np.diff(np.r_[ang, ang[0] + 2 * np.pi]).max() < np.pi)
        verts = np.round(np.c_[cx + rx * np.cos(ang),
                               cy + ry * np.sin(ang)].ravel(), 6)
    else:
        i0, j0 = draw(st.integers(0, 2**CELL_LEVEL - 4)), draw(
            st.integers(0, 2**CELL_LEVEL - 4))
        w = draw(st.integers(3, min(12, 2**CELL_LEVEL - i0)))
        h = draw(st.integers(3, min(12, 2**CELL_LEVEL - j0)))
        c = draw(st.integers(1, (min(w, h) - 1) // 2))
        ring = [(i0 + c, j0), (i0 + w - c, j0), (i0 + w, j0 + c),
                (i0 + w, j0 + h - c), (i0 + w - c, j0 + h), (i0 + c, j0 + h),
                (i0, j0 + h - c), (i0, j0 + c)]
        verts = np.asarray([(i * CELL_W, j * CELL_H - 90.0) for i, j in ring]).ravel()
    vx, vy = verts[0::2], verts[1::2]
    return False, [vx.min(), vy.min(), vx.max(), vy.max()], list(verts)


def _zone_frame(zones, zone_id=None):
    return pd.DataFrame({
        "zone_id": np.arange(len(zones)) if zone_id is None else zone_id,
        "is_rect": [z[0] for z in zones], "bbox": [z[1] for z in zones],
        "vertices": [z[2] for z in zones]})


def _near_cell(ix, iy, rng):
    """Points in and next to the closed cell: corners and edge midpoints,
    each also one ulp out in both axes, plus uniform interior points."""
    u = np.r_[0.0, 0.5, 1.0, rng.uniform(0, 1, 8)]
    x = (ix + u) * CELL_W
    y = (iy + u) * CELL_H - 90.0
    x = np.r_[x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
    y = np.r_[y, np.nextafter(y, -np.inf), np.nextafter(y, np.inf)]
    gx, gy = np.meshgrid(x, y)
    return gx.ravel(), gy.ravel()


@settings(max_examples=150, deadline=None)
@given(zones=st.lists(st.one_of(rect_zone(), convex_zone()), min_size=1,
                      max_size=6))
@example(zones=[(True, [0.0, 87.1875, 11.25, 90.0],
                 [0.0, 87.1875, 11.25, 87.1875, 11.25, 90.0, 0.0, 90.0])])
def test_zone_index_full_cells_are_conservative(zones):
    """Every point that grid.cell_encode puts in a cell the zone index
    marks full passes that zone's exact test (so the join may skip the
    test there), and every exact hit lies in a covering cell of its zone."""
    cell, zone, full, _, geo = zone_index(_zone_frame(zones))
    assert (np.diff(cell) >= 0).all()
    rng = np.random.default_rng(0)
    for m in np.flatnonzero(full):
        _, ix, iy = cell_decode(cell[m:m + 1])
        x, y = _near_cell(ix[0], iy[0], rng)
        inc = cell_encode(x, y, CELL_LEVEL) == cell[m]
        assert zone_contains(geo[zone[m]], x[inc], y[inc]).all()
    for k, (_, (xa, ya, xb, yb), verts) in enumerate(zones):
        x = np.r_[rng.uniform(xa, xb, 200), verts[0::2], xa, xb]
        y = np.r_[rng.uniform(ya, yb, 200), verts[1::2], ya, yb]
        hit = zone_contains(geo[k], x, y) & (x < 360.0)  # lon is [0, 360)
        assert np.isin(cell_encode(x[hit], y[hit], CELL_LEVEL),
                       cell[zone == k]).all()


def _ellipse(n, cx, cy, rx, ry):
    ang = 2 * np.pi * np.arange(n) / n
    verts = np.round(np.c_[cx + rx * np.cos(ang), cy + ry * np.sin(ang)].ravel(), 6)
    vx, vy = verts[0::2], verts[1::2]
    return False, [vx.min(), vy.min(), vx.max(), vy.max()], list(verts)


def _rows(cov):
    a = np.column_stack(cov).astype(np.int64)
    return a[np.lexsort(a.T[::-1])]


@settings(max_examples=150, deadline=None)
@given(zones=st.lists(st.one_of(rect_zone(), convex_zone()), min_size=1,
                      max_size=6),
       lmin=st.integers(2, 4), span=st.integers(0, 2))
@example(zones=[_ellipse(3, 100.0, 0.0, 30.0, 30.0),
                _ellipse(16, 200.0, 20.0, 25.0, 20.0),
                (True, [10.0, -40.0, 60.0, 10.0],
                 [10.0, -40.0, 60.0, -40.0, 60.0, 10.0, 10.0, 10.0])],
         lmin=3, span=2)
def test_one_covering_call_equals_single_zone_calls(zones, lmin, span):
    """Covering rect and convex zones of 3–16 vertices in one call (one
    padded vertex array) gives each zone exactly the cells, levels and
    full flags of covering it alone, under its own position."""
    bbox, verts = [z[1] for z in zones], [z[2] for z in zones]
    lmax = lmin + span
    got = _rows(adaptive_covering(bbox, lmin, lmax, convex_inside(verts)))
    alone = []
    for k in range(len(zones)):
        z, *rest = adaptive_covering(bbox[k:k + 1], lmin, lmax,
                                     convex_inside(verts[k:k + 1]))
        assert (z == 0).all()
        alone.append(_rows([z + k, *rest]))
    np.testing.assert_array_equal(got, _rows(np.concatenate(alone).T))


BURN_P = synth.params_for(0.001)


@settings(max_examples=100, deadline=None)
@given(zones=st.lists(st.one_of(rect_zone(), convex_zone()), min_size=1,
                      max_size=6),
       data=st.data())
def test_burn_zone_raster_is_per_pixel_max_zone(zones, data):
    """burn_zone_raster (per-tile bbox prefilter, zones in zone_id order)
    equals a per-pixel brute force: the largest zone_id whose zone_contains
    holds at the pixel centre, 0 where none does — over tiles anchored on
    zone vertices, on the lon 0/360 and lat ±90 borders, or anywhere."""
    ids = data.draw(st.lists(st.integers(1, 10**6), min_size=len(zones),
                             max_size=len(zones), unique=True))
    df = _zone_frame(zones, ids)
    _, _, _, zid, geo = zone_index(df.sort_values("zone_id"))
    vlon = [v for z in zones for v in z[2][0::2]]
    vlat = [v for z in zones for v in z[2][1::2]]
    k = data.draw(st.integers(0, len(vlon) - 1))
    alon = data.draw(st.one_of(st.just(vlon[k]), st.sampled_from([0.0, 360.0]),
                               st.floats(-10.0, 370.0)))
    alat = data.draw(st.one_of(st.just(vlat[k]), st.sampled_from([-90.0, 90.0]),
                               st.floats(-95.0, 95.0)))
    slon, slat = data.draw(st.floats(0.01, 60.0)), data.draw(st.floats(0.01, 40.0))
    fx, fy = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0))
    ww, wh = BURN_P.world_w / 360.0, BURN_P.world_h / 180.0
    ext = [(alon - fx * slon) * ww, (alat + 90.0 - fy * slat) * wh,
           (alon + (1 - fx) * slon) * ww, (alat + 90.0 + (1 - fy) * slat) * wh]
    h, w = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    got = burn_zone_raster((h, w), ext, BURN_P, zid, geo)
    xs = np.linspace(ext[0], ext[2], w, endpoint=False) + (ext[2] - ext[0]) / (2 * w)
    ys = np.linspace(ext[1], ext[3], h, endpoint=False) + (ext[3] - ext[1]) / (2 * h)
    lon, lat = synth.world_to_lonlat(*np.meshgrid(xs, ys, indexing="xy"), BURN_P)
    want = np.zeros((h, w), np.int32)
    for i in range(h):
        for j in range(w):
            want[i, j] = max((z for z, g in zip(zid, geo)
                              if zone_contains(g, lon[i, j:j + 1], lat[i, j:j + 1])[0]),
                             default=0)
    np.testing.assert_array_equal(got, want)
