"""Property tests (SURVEY.md §5.5): mask monotonicity, percentile==median,
partial-aggregation associativity, cell covering consistency, expression
equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raster_functions_ray import grid
from raster_functions_ray.functions import focal as fc
from raster_functions_ray.functions import stack as sk
from raster_functions_ray.functions.expr import Expression


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_focal_mask_monotone(seed):
    """Output mask of a focal op ⊆ 3×3 erosion of the input mask
    (functions/deprecated/Hillshade.py:90-93 semantics)."""
    rng = np.random.default_rng(seed)
    dem = rng.random((9, 9)) * 100
    m = (rng.random((9, 9)) > 0.2).astype(np.uint8)
    _, om = fc.hillshade(dem, m, (1.0, 1.0))
    eroded = fc.erode_mask_3x3(m)
    assert np.all(om <= eroded)
    _, om2 = fc.aspect_slope(dem, m, (1.0, 1.0))
    assert np.all(om2 <= eroded)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_percentile50_is_median(seed):
    rng = np.random.default_rng(seed)
    sr = rng.random((5, 2, 4, 4)).astype(np.float32) * 100
    qa = np.full((5, 1, 4, 4), 672.0, np.float32)
    stack = np.concatenate([sr, np.repeat(qa, 1, axis=1)], axis=1)
    med = sk.median_composite(stack, qa_band=2)
    p50 = sk.pixel_percentile(stack, qa_band=2, percentile=50.0)
    np.testing.assert_allclose(p50, med, rtol=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
def test_sum_partial_associativity(seed, splits):
    """aggregate(sum over full stack) == merge of per-split partial sums —
    the invariant that makes salting/pre-aggregation legal."""
    rng = np.random.default_rng(seed)
    stack = rng.random((8, 1, 3, 3))
    masks = np.ones((8, 3, 3), np.uint8)
    full, _ = sk.aggregate(stack, masks, "Sum")
    bounds = sorted(rng.choice(np.arange(1, 8), splits - 1, replace=False))
    parts = np.split(stack, bounds, axis=0)
    merged = sum(p.sum(axis=0) for p in parts)
    np.testing.assert_allclose(full, merged, rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 359.999), st.floats(-89.999, 89.999), st.integers(2, 12))
def test_cell_parent_consistent(lon, lat, level):
    """parent(encode(p, L)) == encode(p, L-1)."""
    c = grid.cell_encode(np.asarray([lon]), np.asarray([lat]), level)
    p = grid.parent(c)[0]
    expected = grid.cell_encode(np.asarray([lon]), np.asarray([lat]), level - 1)[0]
    assert p == expected


@settings(max_examples=30, deadline=None)
@given(st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False))
def test_expression_matches_python(a, b):
    e = Expression("A * 2 + B / 4 - (A - B) ** 2")
    got = e.evaluate({"A": np.asarray([a]), "B": np.asarray([b])})
    exp = a * 2 + b / 4 - (a - b) ** 2
    np.testing.assert_allclose(got, [exp], rtol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_minhash_estimates_jaccard(seed):
    """MinHash signature agreement ≈ Jaccard similarity (coarse bound)."""
    from raster_functions_ray.dedup import _perm_params, jaccard, minhash_signature, shingles
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]
    t1 = " ".join(rng.choice(words, 40))
    # mutate ~25% of tokens
    toks = t1.split()
    for i in rng.choice(len(toks), len(toks) // 4, replace=False):
        toks[i] = f"x{int(rng.integers(0, 30))}"
    t2 = " ".join(toks)
    a, b = _perm_params()
    s1 = minhash_signature(shingles(t1), a, b)
    s2 = minhash_signature(shingles(t2), a, b)
    est = float((s1 == s2).mean())
    true = jaccard(t1, t2)
    assert abs(est - true) < 0.35  # 64 permutations → loose bound


def test_windchill_mask_and_formula_property():
    """wc(t, ws) is monotone decreasing in ws for fixed cold t (NWS domain)."""
    from raster_functions_ray.functions.pointwise import windchill
    t = np.full((1, 20), 10.0, np.float32)
    ws = np.linspace(5, 60, 20, dtype=np.float32)[None]
    wc, m = windchill(t, ws)
    assert m.all()
    assert (np.diff(wc[0]) < 0).all()


# ------------------------- container-codec properties (stages/media.py)
# The media path's correctness rests on these pure-numpy codecs being
# lossless (BMP/y4m) or boundedly lossy (PCM16 WAV); the unit tests pin
# single examples, these pin the full input space.

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 13), st.integers(1, 13))
def test_bmp_roundtrip_any_shape(seed, h, w):
    """decode(encode(img)) == img for every (h, w) incl. odd widths whose
    scanlines need 4-byte padding, and the size field matches the bytes."""
    from raster_functions_ray.stages.media import decode_bmp, encode_bmp
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    b = encode_bmp(img)
    assert int.from_bytes(b[2:6], "little") == len(b)
    np.testing.assert_array_equal(decode_bmp(b), img)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 9), st.integers(2, 9))
def test_bmp_topdown_variant_decodes(seed, h, w):
    """A top-down BMP (negative biHeight, rows not flipped) decodes to the
    same image — the decoder honors the sign convention, not our encoder."""
    import struct
    from raster_functions_ray.stages.media import decode_bmp, encode_bmp
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    b = bytearray(encode_bmp(img))
    struct.pack_into("<i", b, 22, -h)           # biHeight < 0 → top-down
    row_len = (w * 3 + 3) & ~3
    rows = np.zeros((h, row_len), dtype=np.uint8)
    rows[:, :w * 3] = img[:, :, ::-1].reshape(h, w * 3)   # natural order, BGR
    np.testing.assert_array_equal(decode_bmp(bytes(b[:54]) + rows.tobytes()), img)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 5000),
       st.sampled_from([8000, 11025, 22050, 44100, 48000]))
def test_wav_roundtrip_bounded_error(seed, n, sr):
    """PCM16 roundtrip: sample_rate exact, waveform within 1.5 quantization
    steps (encode scales by 32767, decode by 1/32768: error ≤ |x|/32768 +
    0.5/32768) for any length, and the RIFF size field is consistent."""
    from raster_functions_ray.stages.media import decode_wav, encode_wav
    rng = np.random.default_rng(seed)
    wav = np.clip(rng.normal(0, 0.4, n), -1, 1).astype(np.float32)
    b = encode_wav(wav, sr)
    assert int.from_bytes(b[4:8], "little") == len(b) - 8
    out, sr2 = decode_wav(b)
    assert sr2 == sr and out.shape == wav.shape
    np.testing.assert_allclose(out, wav, atol=1.5 / 32768 + 1e-7)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 99))
def test_wav_chunk_walk_skips_junk(seed, junk_len):
    """The decoder walks RIFF chunks: a LIST chunk of any (incl. odd) size
    injected before fmt/data is skipped via word-aligned advance."""
    import struct
    from raster_functions_ray.stages.media import decode_wav, encode_wav
    rng = np.random.default_rng(seed)
    wav = np.clip(rng.normal(0, 0.4, 100), -1, 1).astype(np.float32)
    b = encode_wav(wav, 16000)
    junk = b"LIST" + struct.pack("<I", junk_len) + bytes(junk_len + (junk_len & 1))
    patched = b[:12] + junk + b[12:]
    patched = patched[:4] + struct.pack("<I", len(patched) - 8) + patched[8:]
    out, sr = decode_wav(patched)
    assert sr == 16000
    np.testing.assert_allclose(out, wav, atol=1.5 / 32768 + 1e-7)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 5), st.integers(1, 9),
       st.integers(1, 9), st.integers(1, 60))
def test_y4m_roundtrip_any_shape(seed, n, h, w, fps):
    """decode(encode(frames)) is exact for any frame count (incl. 0),
    any geometry, and preserves fps."""
    from raster_functions_ray.stages.media import decode_y4m, encode_y4m
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, (n, h, w, 3), dtype=np.uint8)
    out, fps2 = decode_y4m(encode_y4m(frames, fps=fps))
    assert fps2 == fps
    np.testing.assert_array_equal(out, frames)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1),
       st.sampled_from(["uniform", "ties", "boundary", "tight", "mixed"]),
       st.integers(1, 400), st.floats(0.0, 1.0))
def test_quickselect_rank_adversarial(seed, shape, n, q):
    """quickselect_rank == numpy sort on adversarial distributions:
    heavy ties, values ON bucket boundaries, near-collapsed ranges —
    pull limit forced tiny so the constraint chain actually walks."""
    from raster_functions_ray.relational import (MEDIAN_BUCKETS,
                                                 quickselect_bidx,
                                                 quickselect_member,
                                                 quickselect_rank)
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        v = rng.uniform(-1e6, 1e6, n)
    elif shape == "ties":
        v = rng.choice([1.0, 2.0, 2.0000001, 3.0], n)
    elif shape == "boundary":
        # values exactly on bucket edges
        v = rng.integers(0, MEDIAN_BUCKETS + 1, n) / MEDIAN_BUCKETS
    elif shape == "tight":
        v = 1e9 + rng.uniform(0, 1e-6, n)  # near-collapsed float range
    else:
        v = np.concatenate([rng.uniform(-1, 1, n),
                            np.full(n, 0.5), np.full(n, -0.5)])
    k = int(np.floor(q * (v.size - 1))) + 1

    def hist_of(chain, lo_, hi_):
        vm = v[quickselect_member(v, chain)]
        return np.bincount(quickselect_bidx(vm, lo_, hi_),
                           minlength=MEDIAN_BUCKETS)

    def pull_of(chain):
        return v[quickselect_member(v, chain)]

    got = quickselect_rank(k, float(v.min()), float(v.max()),
                           hist_of, pull_of, pull_limit=3)
    assert got == np.sort(v)[k - 1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 3000),
       st.sampled_from([0.5, 0.9, 0.95, 0.99, 0.25]))
def test_quantile_rank_matches_duckdb_disc(seed, n, q):
    """The engine's rank formula ceil(q·n) == DuckDB quantile_disc at
    ARBITRARY row counts — the fixture counts (0.99·n integral) masked a
    floor(q·(n−1))+1 off-by-one at ~98% of other n."""
    import math

    import duckdb
    rng = np.random.default_rng(seed)
    v = np.sort(rng.normal(0, 1, n))
    con = duckdb.connect()
    con.execute("CREATE TABLE t AS SELECT unnest($1::DOUBLE[]) AS x", [list(v)])
    want = con.execute(f"SELECT quantile_disc(x, {q}) FROM t").fetchone()[0]
    k = max(1, int(math.ceil(q * n)))
    assert v[k - 1] == want
