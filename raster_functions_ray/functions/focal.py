"""Focal / neighborhood kernels (SURVEY.md §2.2) — pure NumPy, no scipy.

The reference gets an extra ``padding`` halo from its host
(functions/Reference.py:100); here the halo is materialized by the engine
(stages/halo.py) and these kernels consume pre-padded arrays, trimming the
halo on output exactly like the reference trims ``[1:-1, 1:-1]``.

``convolve3x3`` reproduces ``scipy.ndimage.convolve`` (mode='reflect') with
nine shifted views — vectorized, allocation-light.
"""

from __future__ import annotations

import math

import numpy as np

F4 = np.float32

SOBEL_X = np.array([[1, 0, -1], [2, 0, -2], [1, 0, -1]], dtype=np.float64)
SOBEL_Y = np.array([[1, 2, 1], [0, 0, 0], [-1, -2, -1]], dtype=np.float64)
# AspectSlope uses the sign-flipped kernels (functions/deprecated/AspectSlope.py:81-82)
ASPECT_X = -SOBEL_X
ASPECT_Y = -SOBEL_Y

# degrees → meters factor used by the reference (functions/deprecated/Hillshade.py:127)
DEG_TO_M = 1.11e5


def convolve3x3(a: np.ndarray, kernel: np.ndarray, mode: str = "reflect") -> np.ndarray:
    """scipy.ndimage.convolve-equivalent 3×3 convolution (correlation with
    the flipped kernel), boundary ``mode`` per np.pad.

    Allocation-light: one pad + one scratch buffer, in-place accumulate
    (malloc churn is the main parallel-scaling limiter for small tiles).
    """
    a = np.asarray(a, dtype=np.float64)
    p = np.pad(a, 1, mode=mode)
    out = np.zeros_like(a, dtype=np.float64)
    tmp = np.empty_like(out)
    h, w = a.shape
    # convolution flips the kernel: out[i,j] = sum k[u,v] * a[i-u+1, j-v+1]
    for u in range(3):
        for v in range(3):
            k = kernel[u, v]
            if k == 0.0:
                continue
            np.multiply(p[2 - u : 2 - u + h, 2 - v : 2 - v + w], k, out=tmp)
            np.add(out, tmp, out=out)
    return out


def erode_mask_3x3(m: np.ndarray) -> np.ndarray:
    """Output mask = AND of the 3×3 neighborhood, trimming the 1-px halo.

    Semantics: functions/deprecated/Hillshade.py:90-93 — input is the padded
    mask, output is (h-2, w-2).
    """
    m = np.asarray(m)
    return (m[:-2, :-2] & m[1:-1, :-2] & m[2:, :-2]
            & m[:-2, 1:-1] & m[1:-1, 1:-1] & m[2:, 1:-1]
            & m[:-2, 2:] & m[1:-1, 2:] & m[2:, 2:])


def _cell_xy(cell_size) -> np.ndarray:
    """``cell_size`` as an (x, y) pair; a scalar means square cells."""
    return np.broadcast_to(np.asarray(cell_size), (2,))


def hillshade(dem_padded: np.ndarray, mask_padded: np.ndarray, cell_size,
              z_factor: float = 1.0, ce: float = 0.664, cf: float = 0.024,
              azimuth: float = 315.0, elevation: float = 45.0,
              is_geographic: bool = False):
    """Hillshade on a 1-px-padded DEM tile; returns (u1-range f8 block, mask).

    Semantics: functions/deprecated/Hillshade.py:82-133 — Sobel gradients
    scaled by ``(zf + cellsize^ce * cf) / (8*cellsize)``, illumination
    ``255*(cosZ + dy*sinZsinA − dx*sinZcosA)/sqrt(1+dx²+dy²)`` clipped 0-255,
    1-px trim, 3×3 mask erosion; degrees→meters via 1.11e5 for geographic SR.
    """
    v = np.asarray(dem_padded, dtype=np.float64)
    Z = (90.0 - elevation) * math.pi / 180.0
    A = (90.0 - azimuth) * math.pi / 180.0
    sinZ, cosZ = math.sin(Z), math.cos(Z)
    sinZsinA, sinZcosA = sinZ * math.sin(A), sinZ * math.cos(A)
    p = np.multiply(_cell_xy(cell_size), DEG_TO_M if is_geographic else 1.0)
    xs, ys = (z_factor + (np.power(p, ce) * cf)) / (8 * p)
    dx = convolve3x3(v, SOBEL_X) * xs
    dy = convolve3x3(v, SOBEL_Y) * ys
    shade = np.clip(255 * (cosZ + dy * sinZsinA - dx * sinZcosA)
                    / np.sqrt(1.0 + (dx * dx + dy * dy)), 0.0, 255.0)
    return shade[1:-1, 1:-1], erode_mask_3x3(np.asarray(mask_padded))


def hillshade_kernel(pix: np.ndarray, mask: np.ndarray, meta: dict):
    """``stages.tile_map`` kernel: hillshade of band 0 of a padded DEM tile."""
    return hillshade(pix if pix.ndim == 2 else pix[0], mask, meta["cell_size"],
                     is_geographic=(meta["srid"] == 4326))


def multidirectional_hillshade(dem_padded: np.ndarray, mask_padded: np.ndarray,
                               cell_size, z_factor: float = 1.0,
                               is_geographic: bool = False):
    """Multidirectional hillshade (functions/deprecated/
    MultidirectionalHillshade.rft.xml wraps the built-in Hillshade in
    multidirectional mode): the published USGS method (Mark 1992) blends
    illumination from six azimuths — 225/270/315/360 at 60° altitude
    weighted by sin²(aspect − azimuth), plus overhead fill — re-expressed
    here as a weighted combination of the single-direction kernel above,
    with aspect from the same Sobel gradients.  Returns (f8 block 0-255,
    eroded mask).

    The weight is computed in ALGEBRAIC form: with aspect = atan2(dyr,
    −dxr), sin²(aspect − θ) ≡ (dyr·cosθ + dxr·sinθ)² / (dxr² + dyr²)
    (and sin²θ on flat pixels, where atan2(0, −0) = π).  This removes the
    per-pixel arctan2/sin transcendentals — only scalar trig of the four
    fixed azimuths remains — and makes every per-pixel op a single
    correctly-rounded IEEE mul/add/div/sqrt, so the analytic-world gate
    can reproduce the kernel bit-for-bit in SQL."""
    v = np.asarray(dem_padded, dtype=np.float64)
    dxr = convolve3x3(v, SOBEL_X)
    dyr = convolve3x3(v, SOBEL_Y)
    p = np.multiply(_cell_xy(cell_size), DEG_TO_M if is_geographic else 1.0)
    xs, ys = (z_factor + (np.power(p, 0.664) * 0.024)) / (8 * p)
    dx = dxr * xs
    dy = dyr * ys
    r2 = (dxr * dxr) + (dyr * dyr)
    safe_r2 = np.where(r2 == 0.0, 1.0, r2)
    rad = np.sqrt(1.0 + ((dx * dx) + (dy * dy)))
    Z = (90.0 - 60.0) * math.pi / 180.0
    sinZ, cosZ = math.sin(Z), math.cos(Z)
    num = np.zeros_like(v)
    den = np.zeros_like(v)
    for az in (225.0, 270.0, 315.0, 360.0):
        A = (90.0 - az) * math.pi / 180.0
        sinZsinA, sinZcosA = sinZ * math.sin(A), sinZ * math.cos(A)
        cosT, sinT = math.cos(math.radians(az)), math.sin(math.radians(az))
        wn = (dyr * cosT) + (dxr * sinT)
        w = np.where(r2 == 0.0, sinT * sinT, (wn * wn) / safe_r2)
        shade = np.clip(255 * ((cosZ + (dy * sinZsinA)) - (dx * sinZcosA))
                        / rad, 0.0, 255.0)
        num += w * shade
        den += w
    out = num[1:-1, 1:-1] / np.where(den[1:-1, 1:-1] == 0, 1.0,
                                     den[1:-1, 1:-1])
    return np.clip(out, 0.0, 255.0), erode_mask_3x3(np.asarray(mask_padded))


def aspect_slope(dem_padded: np.ndarray, mask_padded: np.ndarray, cell_size,
                 z_factor: float = 1.0):
    """Combined slope-class + aspect-octant code (19–48) on a padded tile.

    Semantics: functions/deprecated/AspectSlope.py:76-121 (kernels, class
    breaks, the flat→19 collapse, and the mask erosion) — vectorized with
    np.select instead of the reference's chained in-place masking.
    """
    dem = np.asarray(dem_padded, dtype=np.float64)
    delta_x = convolve3x3(dem, ASPECT_X) / 8.0
    delta_y = convolve3x3(dem, ASPECT_Y) / 8.0
    cx, cy = _cell_xy(cell_size)
    dx = delta_x / cx * z_factor
    dy = delta_y / cy * z_factor
    slope_pct = np.sqrt(dx * dx + dy * dy) * 100.0
    aspect = 57.29578 * np.arctan2(delta_x, -delta_y)
    aspect = np.where(aspect < 0.0, (360.0 - (90.0 - aspect)) + 90.0, aspect)
    aspect = np.where(slope_pct == 0, -1.0, aspect)
    slope_cls = np.select(
        [slope_pct < 5, slope_pct < 20, slope_pct < 40], [10.0, 20.0, 30.0], 40.0)
    asp_cls = np.select(
        [aspect <= 22.5, aspect <= 67.5, aspect <= 112.5, aspect <= 157.5,
         aspect <= 202.5, aspect <= 247.5, aspect <= 292.5, aspect <= 337.5],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 1.0)
    final = slope_cls + asp_cls
    final = np.where((final >= 11) & (final <= 18), 19.0, final)
    return final[1:-1, 1:-1], erode_mask_3x3(np.asarray(mask_padded))


_BLOCK_FUNCS = {"minimum": np.min, "maximum": np.max, "mean": np.mean,
                "median": np.median, "sum": np.sum}


def block_statistics(p: np.ndarray, m: np.ndarray, size: int = 3, measure: str = "mean") -> np.ndarray:
    """Non-overlapping ``size×size`` block reduce honoring the NoData mask.

    Semantics: functions/BlockStatistics.py:93-110 (masked view_as_blocks +
    per-axis reduce); 'nearest' = order-0 resize (subsampling).  Input shape
    must be a multiple of ``size``; the engine's tiler guarantees that.
    """
    p = np.asarray(p, dtype=np.float64)
    h, w = p.shape
    bh, bw = h // size, w // size
    if measure.lower() == "nearest":
        return p[:: size, :: size][:bh, :bw]
    blocks = p.reshape(bh, size, bw, size).transpose(0, 2, 1, 3)
    mblocks = np.asarray(m, dtype=bool).reshape(bh, size, bw, size).transpose(0, 2, 1, 3)
    ma = np.ma.masked_array(blocks, ~mblocks)
    f = _BLOCK_FUNCS[measure.lower()]
    out = f(f(ma, axis=-1), axis=-1)
    return np.ma.filled(out, 0.0) if isinstance(out, np.ma.MaskedArray) else np.asarray(out)


def rank_filter(p_padded: np.ndarray, size: int = 3, measure: str = "median") -> np.ndarray:
    """Sliding-window rank filter over a padded single-band tile.

    Semantics: functions/RankFilter.py:80-111 (skimage.filters.rank family;
    here min/max/mean/median/sum via sliding_window_view).  Input carries a
    halo of size//2; output is trimmed to the core.
    """
    win = np.lib.stride_tricks.sliding_window_view(np.asarray(p_padded, dtype=np.float64), (size, size))
    f = _BLOCK_FUNCS[measure.lower()]
    return f(win, axis=(-2, -1))


def focal_majority(p_padded: np.ndarray, size: int = 3) -> np.ndarray:
    """Focal MAJORITY (mode) with deterministic smallest-value tie-break —
    the FocalStatistics MAJORITY member of the rank family
    (functions/RankFilter.py:80-111 names the skimage rank set; majority is
    its categorical sibling, used on classified rasters).

    Vectorized: sort the size² window values per pixel, compute run
    lengths positionally (fixed size² passes over the whole tile), then
    argmax of the key count·1e9 − value — the max-count element, ties to
    the SMALLEST value.  Values must be integer-valued and < 1e9 (true for
    every classified/analytic surface here)."""
    win = np.lib.stride_tricks.sliding_window_view(
        np.asarray(p_padded, dtype=np.float64), (size, size))
    h, w = win.shape[:2]
    k = size * size
    vals = np.sort(win.reshape(h, w, k), axis=-1)
    # counts[i] = multiplicity of vals[i] within its window
    counts = np.ones((h, w, k), np.int64)
    for off in range(1, k):
        eq = vals[:, :, off:] == vals[:, :, :-off]
        counts[:, :, off:] += eq          # equals among the off-left runs
        counts[:, :, :-off] += eq         # and symmetrically to the right
    key = counts.astype(np.int64) * 1_000_000_000 - vals.astype(np.int64)
    pick = np.argmax(key, axis=-1)
    return np.take_along_axis(vals, pick[..., None], axis=-1)[..., 0]


def focal_max(p_padded: np.ndarray, size: int = 3) -> np.ndarray:
    """Focal_Max inside RasterCalculator expressions (SURVEY.md §2.5)."""
    return rank_filter(p_padded, size, "maximum")


def focal_min(p_padded: np.ndarray, size: int = 3) -> np.ndarray:
    return rank_filter(p_padded, size, "minimum")


def hexagon_pixels(dem: np.ndarray, size: int = 8) -> np.ndarray:
    """Hex-binned mean rendering (aesthetic). Semantics: functions/HexagonPixels.py:39-83
    re-expressed as a two-pass offset block mean (exact layout differs; the
    contract is 'block-local hex aesthetic', not bit parity)."""
    h, w = dem.shape
    out = np.empty_like(dem, dtype=np.float64)
    for off, rows in ((0, slice(0, None, 2)), (size // 2, slice(1, None, 2))):
        for by in range(0, h, size):
            for bx in range(-off, w, size):
                x0, x1 = max(bx, 0), min(bx + size, w)
                y0, y1 = by, min(by + size, h)
                if x1 > x0:
                    out[y0:y1, x0:x1] = dem[y0:y1, x0:x1].mean()
    return out
