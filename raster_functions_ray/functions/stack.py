"""Stack-reduce kernels over co-registered scene collections (SURVEY.md §2.4).

Input convention: ``stack`` is a 4-D array (scene, band, h, w) (or 3-D
(scene, h, w) for single-band), matching the reference's
``rasters_pixels`` tuple (functions/Reference.py:214-217).  In the engine the
stack is assembled by ``groupby((tx, ty)).map_groups`` over tile rows.
"""

from __future__ import annotations

import numpy as np

# Landsat C2 clear-pixel QA codes (functions/LandsatPixelPercentile.py:15-17,
# functions/LandsatMedianPixelComposite.py:25-27); −3001 cloud sentinel.
LANDSAT_CLEAR_PIX_VALS = np.array([672, 676, 680, 684, 20480, 20484, 20512, 23552])
FILTER_VAL = -3001.0

_AGG_OPS = {"sum": np.sum, "average": np.mean, "mean": np.mean, "median": np.median,
            "minimum": np.min, "maximum": np.max, "standard deviation": np.std, "std": np.std}


def aggregate(stack: np.ndarray, masks: np.ndarray, method: str = "Sum"):
    """Reduce along the scene axis; mask = AND of masks.

    Semantics: functions/deprecated/Aggregate.py:56-63 (op table :33-39).
    """
    op = _AGG_OPS[method.lower()]
    out = op(np.asarray(stack), axis=0)
    m = np.all(np.asarray(masks), axis=0).astype(np.uint8)
    return out, m


def _clear_sr(stack: np.ndarray, qa_band: int,
              clear_vals: np.ndarray = LANDSAT_CLEAR_PIX_VALS):
    """SR bands ``stack[:, :qa_band]`` as f4 and their ``valid`` mask: QA
    code in ``clear_vals``, not the −3001 sentinel, not NaN.

    Semantics: the reference's ``apply_mask`` helper used by
    functions/LandsatMedianPixelComposite.py:174-180 (np.isin against the
    clear-code list, QA broadcast across SR bands)."""
    stack = np.asarray(stack)
    sr = stack[:, :qa_band].astype(np.float32)
    clear = np.isin(stack[:, qa_band], clear_vals)[:, None]
    valid = clear & (sr != np.float32(FILTER_VAL)) & ~np.isnan(sr)
    return sr, valid


def _sort_valid(values: np.ndarray, valid: np.ndarray):
    """(sorted stack, valid count) along axis 0, invalid entries as +inf.

    Positions ``< cnt`` hold the valid values in order, as when NaNs sort
    last, so order statistics read below ``cnt`` are unchanged; which of
    ±0.0 comes first is unspecified.  An in-place odd-even transposition
    network, n² in cost: 0.4× ``np.sort``'s time at the composites' 6 scenes,
    even at ~9, 2× at 16-32 (one Xeon core, (n, 6, 256, 256) f4)."""
    s = np.where(valid, values, np.inf)
    n = s.shape[0]
    tmp = np.empty_like(s[: n // 2])
    for r in range(n):
        a, b = s[r % 2:n - 1:2], s[r % 2 + 1:n:2]
        lo = tmp[: a.shape[0]]
        np.minimum(a, b, out=lo)
        np.maximum(a, b, out=b)
        a[...] = lo
    return s, valid.sum(axis=0)


def _valid_median(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Median of the valid entries along axis 0; NaN where none is valid."""
    if values.shape[0] == 0:  # np.nanmedian returns all-NaN on an empty stack; match it
        return np.full(values.shape[1:], np.nan, dtype=values.dtype)
    s, cnt = _sort_valid(values, valid)
    lo = np.maximum(cnt - 1, 0) // 2
    hi = np.maximum(cnt, 1) // 2
    v_lo, v_hi = np.take_along_axis(s, np.stack([lo, hi]), axis=0)
    with np.errstate(invalid="ignore"):  # inf + -inf middle pair -> NaN, silently
        out = (v_lo + v_hi) / 2
    return np.where(cnt == 0, np.nan, out)


def _valid_percentile(values: np.ndarray, valid: np.ndarray, percentile: float) -> np.ndarray:
    """Linearly interpolated percentile of the valid entries along axis 0;
    NaN where none is valid."""
    s, cnt = _sort_valid(values, valid)
    idx_f = (np.maximum(cnt, 1) - 1) * (percentile / 100.0)
    lo = np.floor(idx_f).astype(np.int64)
    hi = np.ceil(idx_f).astype(np.int64)
    frac = idx_f - lo
    v_lo, v_hi = np.take_along_axis(s, np.stack([lo, hi]), axis=0)
    with np.errstate(invalid="ignore"):  # +inf placeholders where cnt == 0
        out = v_lo + frac * (v_hi - v_lo)
    return np.where(cnt == 0, np.nan, out)


def _valid_mean(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """``np.nanmean`` of the valid entries along axis 0; NaN where none is valid."""
    with np.errstate(invalid="ignore"):
        return np.nanmean(np.where(valid, values, np.nan), axis=0)


def median_composite(stack: np.ndarray, qa_band: int):
    """Clear-pixel nanmedian across scenes of a (scene, band, h, w) stack.

    Semantics: functions/LandsatMedianPixelComposite.py:130-196 — QA band is
    broadcast across SR bands, non-clear → sentinel → NaN → nanmedian.
    """
    return _valid_median(*_clear_sr(stack, qa_band))


def nanmedian_axis0(data: np.ndarray) -> np.ndarray:
    """Vectorized nanmedian along axis 0, bit-exact vs ``np.nanmedian`` but
    for the sign of a zero median where +0.0 and −0.0 are both valid (gather
    the two middle valid elements, ``(a + b) / 2`` in the data dtype — NumPy's
    two-middle mean; odd counts hit one element twice, ``(a + a) / 2 == a``).

    ``np.nanmedian`` itself degrades to a per-pixel Python loop
    (``apply_along_axis``) whenever NaNs are present — 28× slower on a
    (6, 7, 256, 256) epoch stack (measured); this is the hot reduce of the
    temporal-composite pipelines, so the loop is disqualifying."""
    return _valid_median(data, ~np.isnan(data))


def pixel_percentile(stack: np.ndarray, qa_band: int, percentile: float):
    """Per-pixel percentile of clear observations.

    Semantics: functions/LandsatPixelPercentile.py:134-196, vectorized
    (the reference loops pixels); NaN where no clear obs.
    """
    return _valid_percentile(*_clear_sr(stack, qa_band), percentile)


def nanpercentile_axis0(data: np.ndarray, percentile: float) -> np.ndarray:
    """Vectorized nanpercentile along axis 0 (linear interpolation, matches
    np.nanpercentile) — np.nanpercentile itself degrades to a per-pixel
    apply_along_axis when NaNs are present."""
    return _valid_percentile(data, ~np.isnan(data), percentile)


def image_synthesis_mean(stack: np.ndarray, qa_band: int):
    """Clear-pixel mean per band ('synthetic cloud-free month').

    Semantics: functions/Landsat_Image_Synthesis.py:95-160 (month filtering
    happens upstream as a Dataset filter on acq_ts).
    """
    return _valid_mean(*_clear_sr(stack, qa_band))


def find_kth_max(stack: np.ndarray, k: int = 1, invalid_above: float = 100.0):
    """Per-pixel k-th largest across the stack with the reference's sentinel
    semantics: values > ``invalid_above`` → −1; all-invalid pixels → −1.

    Semantics: functions/FindMax.py:60-86 (k=1), functions/FindSecondMax.py:60-87
    (k=2, via full sort), functions/FindThirdMax.py (k=3).
    """
    a = np.asarray(stack)
    if a.ndim == 4:  # (scene, band, h, w) → first band, like the reference's squeeze
        a = a[:, 0, :, :]
    a = np.array(a, dtype=np.float64)
    a[a > invalid_above] = -1
    if k == 1:
        out = np.max(a, axis=0)
    else:
        out = np.sort(a, axis=0)[-k]
    any_valid = np.max(a != -1, axis=0)
    out[~any_valid.astype(bool)] = -1
    return out


def percent_above_threshold(stack: np.ndarray, threshold: float, below: bool = True):
    """Scalar % of (date-filtered) stack pixels ≤ threshold, broadcast as a
    constant block.

    Semantics: functions/PercentAboveThreshold.py:90-150 (the reference's
    reduce is ``<= threshold`` despite the name; date filtering happens
    upstream as a Dataset filter).  Returns (scalar_pct, block).
    """
    a = np.asarray(stack).reshape(-1)
    total = a.size
    cnt = int(np.size(np.where(a <= threshold))) if below else int(np.size(np.where(a >= threshold)))
    pct = (cnt / total) * 100.0
    shp = np.asarray(stack).shape[-2:]
    return pct, np.ones(shp, dtype=np.float64) * pct


def linregress_slope_intercept(x: np.ndarray, y: np.ndarray):
    """OLS slope/intercept (scipy.stats.linregress equivalent, pure numpy)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    denom = np.dot(dx, dx)
    slope = np.dot(dx, y - ym) / denom if denom != 0 else 0.0
    return slope, ym - slope * xm


def topographic_c_correction(band: np.ndarray, cos_i: np.ndarray):
    """Teillet C-correction for one (scene, band): fit band = m*cos_i + b,
    C = b/m, corrected = band * (cos_zenith + C)/(cos_i + C) — here returned
    as (C, slope, intercept); the per-pixel correction is applied by the
    caller with its sun geometry.

    Semantics: functions/TopographicCCorrection.py:88-154 (regression
    :143-147).
    """
    m, b = linregress_slope_intercept(cos_i, band)
    c = b / m if m != 0 else 0.0
    return c, m, b


def cos_incidence(slope_deg: np.ndarray, aspect_deg: np.ndarray,
                  sun_azimuth: float, sun_elevation: float) -> np.ndarray:
    """cos(i) from terrain slope/aspect + sun position.

    Semantics: functions/TopographicCCorrection.py:135-136.
    """
    sz = np.deg2rad(90.0 - sun_elevation)  # solar zenith
    sa = np.deg2rad(sun_azimuth)
    sl = np.deg2rad(np.asarray(slope_deg, dtype=np.float64))
    asp = np.deg2rad(np.asarray(aspect_deg, dtype=np.float64))
    return (np.cos(sz) * np.cos(sl)
            + np.sin(sz) * np.sin(sl) * np.cos(sa - asp))


def seasonal_naive_forecast(series: np.ndarray, season: int, horizon: int) -> np.ndarray:
    """Deterministic stand-in for the SARIMAX per-pixel forecast
    (functions/SeasonalARIMA.py:148-223): statsmodels is unavailable in this
    environment, so the engine ships a seasonal-naive forecaster (value =
    mean of same-phase historical observations).  The Ray-side plumbing
    (ordered groups, per-pixel series) is identical to what a SARIMAX actor
    pool would use."""
    s = np.asarray(series, dtype=np.float64)
    n = s.shape[0]
    out = np.empty(horizon, dtype=np.float64)
    for h in range(horizon):
        phase = (n + h) % season
        vals = s[phase::season]
        out[h] = np.nan if vals.size == 0 else np.nanmean(vals)
    return out


def seasonal_naive_forecast_grid(series: np.ndarray, season: int, horizon: int) -> np.ndarray:
    """Grid-vectorized seasonal-naive forecast: ``series`` is (epochs, h, w);
    returns (horizon, h, w).  Per-pixel-identical to mapping
    ``seasonal_naive_forecast`` over every (y, x) — the forecast is pure
    same-phase indexing, so it needs no per-pixel loop (the reference loops
    only because SARIMAX must fit per pixel; this stand-in need not)."""
    s = np.asarray(series, dtype=np.float64)
    n = s.shape[0]
    out = np.empty((horizon,) + s.shape[1:], dtype=np.float64)
    for h in range(horizon):
        phase = (n + h) % season
        vals = s[phase::season]
        with np.errstate(invalid="ignore"):
            out[h] = np.nanmean(vals, axis=0) if vals.shape[0] else np.nan
    return out


# ---------------------------------------------------------------- SARIMA

def css_sarima_fit(series: np.ndarray, s: int = 12):
    """Conditional-sum-of-squares fit of SARIMA (1,0,0)×(0,1,1,s) with
    constant trend — the model functions/SeasonalARIMA.py:199-207 fits via
    statsmodels MLE (`order=(1,0,0), seasonal_order=(0,1,1,s), trend='c'`).
    statsmodels is absent from this environment, so the engine fits the
    SAME equations by CSS: after seasonal differencing w_t = y_t − y_{t−s},

        w_t = c + φ·w_{t−1} + ε_t + Θ·ε_{t−s},   minimize Σ ε_t²

    with zero presample conditioning.  For fixed Θ the residual is LINEAR
    in (c, φ) through three recursions (ε_t = A_t − c·B_t − φ·C_t with
    A_t = w_t − Θ·A_{t−s}, B_t = 1 − Θ·B_{t−s}, C_t = w_{t−1} − Θ·C_{t−s}),
    so (c, φ) solve a closed-form 2×2 least squares and Θ is a 1-D
    golden-section search — fully vectorized across pixels.

    ``series``: (n, P) float64 (P pixel columns).  Returns (c, φ, Θ, w),
    each (P,) except w (m, P) with m = n − s.
    """
    y = np.asarray(series, dtype=np.float64)
    n, P = y.shape
    if n <= s + 1:
        raise ValueError(f"need > s+1={s + 1} observations, got {n}")
    w = y[s:] - y[:-s]                       # (m, P)
    m = w.shape[0]
    w_lag = np.vstack([np.zeros((1, P)), w[:-1]])

    def sse_and_params(theta: np.ndarray):
        A = np.zeros((m, P)); B = np.zeros((m, P)); C = np.zeros((m, P))
        for t in range(m):
            Ap = A[t - s] if t >= s else 0.0
            Bp = B[t - s] if t >= s else 0.0
            Cp = C[t - s] if t >= s else 0.0
            A[t] = w[t] - theta * Ap
            B[t] = 1.0 - theta * Bp
            C[t] = w_lag[t] - theta * Cp
        # least squares for eps = A - c*B - phi*C over t
        bb = (B * B).sum(0); bc = (B * C).sum(0); cc = (C * C).sum(0)
        ab = (A * B).sum(0); ac = (A * C).sum(0)
        det = bb * cc - bc * bc
        safe = np.abs(det) > 1e-12
        c = np.where(safe, (ab * cc - ac * bc) / np.where(safe, det, 1.0), 0.0)
        phi = np.where(safe, (bb * ac - bc * ab) / np.where(safe, det, 1.0), 0.0)
        eps = A - c * B - phi * C
        return (eps * eps).sum(0), c, phi

    # vectorized golden-section over Θ ∈ [-0.99, 0.99] per pixel
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    a = np.full(P, -0.99); b = np.full(P, 0.99)
    for _ in range(48):
        x1 = b - gr * (b - a); x2 = a + gr * (b - a)
        f1 = sse_and_params(x1)[0]; f2 = sse_and_params(x2)[0]
        go_left = f1 < f2
        b = np.where(go_left, x2, b)
        a = np.where(go_left, a, x1)
    theta = (a + b) / 2.0
    _, c, phi = sse_and_params(theta)
    return c, phi, theta, w


def css_sarima_forecast(series: np.ndarray, s: int = 12, horizon: int = 1):
    """Forecast ``horizon`` steps past the end of ``series`` from the CSS
    fit: future ε = 0, in-sample ε from the fitted recursion, seasonal
    difference inverted against the observed tail."""
    y = np.asarray(series, dtype=np.float64)
    n, P = y.shape
    c, phi, theta, w = css_sarima_fit(y, s)
    m = w.shape[0]
    # in-sample residuals
    eps = np.zeros((m, P))
    w_lag = np.vstack([np.zeros((1, P)), w[:-1]])
    for t in range(m):
        ep = eps[t - s] if t >= s else 0.0
        eps[t] = w[t] - c - phi * w_lag[t] - theta * ep
    w_ext = list(w)
    eps_ext = list(eps)
    out = np.empty((horizon, P))
    for h in range(horizon):
        t = m + h
        e_feed = eps_ext[t - s] if t - s < m else np.zeros(P)
        w_prev = w_ext[t - 1]
        w_new = c + phi * w_prev + theta * e_feed
        w_ext.append(w_new)
        eps_ext.append(np.zeros(P))
        # y_{n+h} = w_new + y_{n+h-s}
        y_base = y[n + h - s] if n + h - s < n else out[h - s]
        out[h] = w_new + y_base
    return out, (c, phi, theta)
