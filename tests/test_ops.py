"""Tests for text analysis, knn, media and events operators."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from pmocr_ray.ops.events import events_window, sessionize, top_users_by_value
from pmocr_ray.ops.knn import knn_cosine, knn_cosine_ivf
from pmocr_ray.ops.media import MediaDecodeStage, decode_header, encode_fake_image
from pmocr_ray.ops.text import (
    LangIdStage,
    fingerprint,
    quality_score,
    text_stats,
)


# ------------------------------------------------------------------- text

def test_text_stats_vectorized():
    t = pa.table({"text": ["a bb  ccc", " x ", ""]})
    out = text_stats(t)
    assert out["n_tokens"].to_pylist() == [3, 1, 0]
    assert out["n_chars_total"].to_pylist() == [9, 3, 0]
    assert out["n_chars_nospace"].to_pylist() == [6, 1, 0]


def test_fingerprint_matches_md5():
    import hashlib

    t = pa.table({"text": ["hello world"]})
    assert fingerprint(t)["fp"].to_pylist() == [
        hashlib.md5(b"hello world").hexdigest()
    ]


def test_quality_score_ordering():
    t = pa.table({"text": [
        "the quick brown fox jumps over the lazy dog and runs through the "
        "field to the river where it drinks cool water in the morning sun "
        "while birds are singing in the trees and a gentle wind is blowing",
        "!!! ??? *** $$$ @@@ ###",
    ]})
    out = quality_score(t)
    q = out["quality"].to_pylist()
    assert q[0] > q[1]


def test_lang_id_deterministic(ray_session):
    stage = LangIdStage()
    t = pa.table({"text": ["the cat is on the mat and the dog is here too"]})
    a = stage(t)["lang_pred"].to_pylist()
    b = stage(t)["lang_pred"].to_pylist()
    assert a == b and a[0] in set(LangIdStage.PROFILES) | {"und"}


def test_host_stats_rollup(ray_session):
    from pmocr_ray.ops.text import host_stats

    ds = rd.from_arrow(pa.table({"url": [
        "https://a.example/x", "https://a.example/y",
        "http://b.example/", "svc+proto://c.example/z",
    ]}))
    out = host_stats(ds).to_pandas().set_index("host")["n_pages"]
    assert out.to_dict() == {"a.example": 2, "b.example": 1, "c.example": 1}


def test_length_histogram_buckets(ray_session):
    from pmocr_ray.ops.text import length_histogram

    ds = rd.from_arrow(pa.table({"n_chars": [0, 99, 100, 250, 999, 100]}))
    out = length_histogram(ds, width=100).to_pandas().set_index("bucket")["n"]
    assert out.to_dict() == {0: 2, 1: 2, 2: 1, 9: 1}


def test_knn_multi_query_matrix(ray_session, vec_ds):
    ds, mat = vec_ds
    out = knn_cosine(ds, mat[:3], k=5).to_pandas()
    # each query's rank-1 neighbor is itself (cosine 1.0)
    top = out[out["rank"] == 1].sort_values("query_idx")
    assert top["vec_id"].tolist() == [0, 1, 2]
    assert len(out) == 15


def test_doc_frequency_counts_docs_not_tokens(ray_session):
    from pmocr_ray.ops.text import doc_frequency

    ds = rd.from_arrow(pa.table({"text": [
        "a a a b", "a c", "c c d", ""
    ]}))
    out = doc_frequency(ds).to_pandas().set_index("term")["df"]
    # 'a' appears 4x as a token but in only 2 docs
    assert out.to_dict() == {"a": 2, "b": 1, "c": 2, "d": 1}


def test_quota_by_key_cap_and_partition_invariance(ray_session):
    from pmocr_ray.ops.text import quota_by_key

    t = pa.table({
        "host": [f"h{i % 3}" for i in range(60)],
        "url": [f"u{i:03d}" for i in range(60)],
    })
    expect = {f"h{h}": [f"u{i:03d}" for i in range(60)
                        if i % 3 == h][:4] for h in range(3)}
    for nblocks in (1, 8):
        out = quota_by_key(rd.from_arrow(t).repartition(nblocks),
                           "host", 4, "url").to_pandas()
        got = {h: sorted(g["url"]) for h, g in out.groupby("host")}
        assert got == expect


# -------------------------------------------------------------------- knn

@pytest.fixture(scope="module")
def vec_ds(ray_session):
    rng = np.random.RandomState(3)
    mat = rng.randn(200, 32)
    return rd.from_arrow(pa.table({
        "vec_id": pa.array(range(200), pa.int64()),
        "embedding": pa.array([v.tolist() for v in mat], pa.list_(pa.float32())),
    })), mat


def test_knn_self_is_rank_one(vec_ds):
    ds, mat = vec_ds
    out = knn_cosine(ds, mat[5:6], k=5).to_pandas()
    assert out.iloc[0]["vec_id"] == 5 and out.iloc[0]["rank"] == 1
    assert out["cosine"].iloc[0] == pytest.approx(1.0)
    assert list(out["rank"]) == [1, 2, 3, 4, 5]


def test_knn_matches_numpy_bruteforce(vec_ds):
    ds, mat = vec_ds
    q = mat[7:8]
    out = knn_cosine(ds, q, k=10).to_pandas()
    m = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    qq = q / np.linalg.norm(q)
    sims = (qq @ m.T)[0]
    expected = set(np.argsort(-sims)[:10].tolist())
    assert set(out["vec_id"]) == expected


def test_knn_ivf_recall(vec_ds):
    ds, mat = vec_ds
    q = mat[11:12]
    exact = set(knn_cosine(ds, q, k=10).to_pandas()["vec_id"])
    approx = set(knn_cosine_ivf(ds, q, k=10, n_cells=8, n_probe=4)
                 .to_pandas()["vec_id"])
    assert len(exact & approx) >= 6  # recall >= 0.6 with 4/8 cells probed


def test_knn_ivf_indexed_matches_inline(vec_ds, tmp_path):
    """The cell-partitioned on-disk IVF index (partition-pruned read of
    only the probed cells) returns exactly what the inline IVF path
    returns for the same centroids/probes."""
    from pmocr_ray.ops.knn import ivf_build_index, knn_cosine_ivf_indexed

    ds, mat = vec_ds
    q = mat[7:9]
    idx = str(tmp_path / "ivf_index")
    cent = ivf_build_index(ds, idx, n_cells=8)
    assert cent.shape == (8, 32)
    import glob
    import os

    cell_dirs = glob.glob(os.path.join(idx, "cells", "cell=*"))
    assert len(cell_dirs) > 1  # really partitioned by cell

    got = knn_cosine_ivf_indexed(idx, q, k=10, n_probe=4).to_pandas()
    want = knn_cosine_ivf(ds, q, k=10, n_cells=8, n_probe=4).to_pandas()
    for col in ("query_idx", "vec_id", "rank"):
        assert got[col].tolist() == want[col].tolist(), col


# ------------------------------------------------------------------ media

def test_media_header_roundtrip():
    p = encode_fake_image(640, 480, 3, seed=1)
    assert decode_header(p) == (640, 480, 3)


def test_media_decode_stage_and_quarantine(ray_session):
    good = encode_fake_image(32, 16, 1, seed=2)
    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "media": pa.array([good, b"not an image"], pa.binary())})
    out = MediaDecodeStage(column="media")(t)
    assert out["width"].to_pylist() == [32, None]
    assert out["media_error"].to_pylist()[0] is None
    assert out["media_error"].to_pylist()[1].startswith("ValueError: media:")
    feats = out["features"].to_pylist()
    assert len(feats[0]) == 8 and feats[1] is None
    assert "media" not in out.column_names  # payload consumed


def test_media_resize_stage():
    from pmocr_ray.ops.media import MediaResizeStage, decode_header

    good = encode_fake_image(320, 240, 3, seed=5)
    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "media": pa.array([good, b"junk"], pa.binary())})
    out = MediaResizeStage(column="media", out_width=64, out_height=48)(t)
    resized = out["media"].to_pylist()
    w, h, c = decode_header(resized[0])
    assert (w, h, c) == (64, 48, 3)  # channels preserved
    assert out["out_bytes"].to_pylist() == [18 + 4096, None]
    assert resized[1] is None
    assert out["media_error"].to_pylist()[1].startswith("ValueError")
    # deterministic: same input -> same bytes
    again = MediaResizeStage(column="media", out_width=64, out_height=48)(t)
    assert again["media"].to_pylist()[0] == resized[0]


def test_media_real_raster_codecs():
    """PPM/BMP are decoded for REAL (pure numpy): round-trips, BMP
    padding/bottom-up handling, and true nearest-neighbor resize
    through the actor stage."""
    import struct as _struct

    import numpy as np

    from pmocr_ray.ops.media import (MediaResizeStage, decode_bmp,
                                     decode_ppm, decode_raster, encode_ppm,
                                     resize_nearest)

    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)

    # PPM round-trip (incl. a header comment)
    ppm = encode_ppm(img)
    assert (decode_ppm(ppm) == img).all()
    commented = b"P6\n# a comment\n7 5\n255\n" + img.tobytes()
    assert (decode_ppm(commented) == img).all()

    # hand-built 24-bit BMP: bottom-up rows, stride padded to 4 bytes
    h, w = img.shape[:2]
    stride = (w * 3 + 3) & ~3
    rows = b""
    for y in range(h - 1, -1, -1):
        bgr = img[y][:, ::-1].tobytes()
        rows += bgr + b"\0" * (stride - len(bgr))
    bmp = (b"BM" + _struct.pack("<IHHI", 54 + len(rows), 0, 0, 54)
           + _struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(rows),
                          0, 0, 0, 0) + rows)
    assert (decode_bmp(bmp) == img).all()
    assert (decode_raster(bmp) == decode_raster(ppm)).all()

    # real resize through the stage: PPM out, exact nearest-neighbor
    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "media": pa.array([ppm, bmp], pa.binary())})
    out = MediaResizeStage(column="media", out_width=3, out_height=2)(t)
    exp = resize_nearest(img, 3, 2)
    for p in out["media"].to_pylist():
        assert (decode_ppm(p) == exp).all()
    assert out["media_error"].to_pylist() == [None, None]

    # unsupported depth fails loudly (-> quarantine path)
    bad = bmp[:28] + _struct.pack("<H", 8) + bmp[30:]
    import pytest as _pytest
    with _pytest.raises(ValueError, match="24-bit"):
        decode_bmp(bad)

    # decode stage: real pixel statistics for rasters
    from pmocr_ray.ops.media import MediaDecodeStage

    d = MediaDecodeStage(column="media", feature_dims=6)(t)
    assert d["width"].to_pylist() == [7, 7]
    assert d["height"].to_pylist() == [5, 5]
    assert d["channels"].to_pylist() == [3, 3]
    px = img.reshape(-1, 3).astype(np.float32) / 255.0
    exp_feat = np.concatenate([px.mean(axis=0), px.std(axis=0)])
    for f in d["features"].to_pylist():
        assert np.allclose(f, exp_feat, atol=1e-6)


def test_media_real_wav_codec_and_stages():
    """WAV (RIFF/PCM s16le) is decoded for REAL: round-trips (mono +
    stereo), unknown-chunk skipping, integer-exact signal stats
    through AudioDecodeStage, nearest-index resample through
    AudioResampleStage, junk -> per-row quarantine."""
    import struct as _struct

    import numpy as np

    from pmocr_ray.ops.media import (AudioDecodeStage, AudioResampleStage,
                                     decode_wav, encode_wav,
                                     resample_nearest_audio)

    x = ((np.arange(100) * 37) % 4001 - 2000).astype(np.int16)
    arr, rate = decode_wav(encode_wav(x, 16000))
    assert rate == 16000 and arr.shape == (100, 1) and (arr[:, 0] == x).all()
    st = np.arange(100, dtype=np.int16).reshape(50, 2)
    arr2, r2 = decode_wav(encode_wav(st, 44100))
    assert r2 == 44100 and arr2.shape == (50, 2) and (arr2 == st).all()

    # unknown chunk (LIST) between fmt and data is skipped
    w = encode_wav(x, 8000)
    fmt_end = 12 + 8 + 16
    extra = b"LIST" + _struct.pack("<I", 4) + b"INFO"
    w2 = w[:fmt_end] + extra + w[fmt_end:]
    arr3, r3 = decode_wav(w2)
    assert r3 == 8000 and (arr3[:, 0] == x).all()

    # stages: integer-exact stats + resample, junk quarantined
    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "media": pa.array([encode_wav(x, 16000), b"notwav"],
                                    pa.binary())})
    d = AudioDecodeStage(column="media")(t)
    xi = x.astype(np.int64)
    assert d["sum_abs"].to_pylist()[0] == int(np.abs(xi).sum())
    assert d["sum_sq"].to_pylist()[0] == int((xi * xi).sum())
    nn = x >= 0
    assert d["zero_crossings"].to_pylist()[0] == int((nn[1:] != nn[:-1]).sum())
    assert d["sample_rate"].to_pylist() == [16000, None]
    assert d["media_error"].to_pylist()[1].startswith("ValueError")

    r = AudioResampleStage(column="media", target_rate=4000)(t)
    exp = resample_nearest_audio(x[:, None], 16000, 4000)
    assert r["out_samples"].to_pylist() == [25, None]
    got, _ = decode_wav(r["media"].to_pylist()[0])
    assert (got == exp).all()
    assert r["sample_sum"].to_pylist()[0] == int(exp.astype(np.int64).sum())

    import pytest as _pytest
    with _pytest.raises(ValueError, match="PCM s16"):
        # 8-bit WAV refused loudly
        bad = bytearray(encode_wav(x, 8000))
        _struct.pack_into("<H", bad, 12 + 8 + 14, 8)
        decode_wav(bytes(bad))


def test_media_real_png_codec_roundtrip_and_filters():
    """PNG is decoded for REAL (stdlib zlib + unfilter): round-trip in
    every supported channel count, all five scanline filters decode
    correctly, corrupt/unsupported payloads raise ValueError."""
    import struct as _struct
    import zlib as _zlib

    import numpy as np
    import pytest as _pytest

    from pmocr_ray.ops.media import (_PNG_SIG, _png_chunk, decode_png,
                                     decode_raster, encode_png, is_raster)

    rng = np.random.default_rng(11)
    for c in (1, 2, 3, 4):
        img = rng.integers(0, 256, (13, 9, c), dtype=np.uint8)
        out = decode_png(encode_png(img))
        assert out.shape == (13, 9, c) and (out == img).all()
    # 2-D gray input is accepted and comes back (h, w, 1)
    g = rng.integers(0, 256, (5, 7), dtype=np.uint8)
    assert (decode_png(encode_png(g))[:, :, 0] == g).all()
    assert is_raster(encode_png(g))
    assert (decode_raster(encode_png(g))[:, :, 0] == g).all()

    # all five filter types: forward-filter a known image by hand,
    # build the IDAT, and the decoder must reconstruct it exactly
    img = rng.integers(0, 256, (5, 6, 3), dtype=np.uint8)
    h, w, c = img.shape
    bpp, stride = c, w * c
    flat = img.reshape(h, stride).astype(np.int64)
    raw = bytearray()
    for y, ft in enumerate([0, 1, 2, 3, 4]):
        cur = flat[y]
        prev = flat[y - 1] if y else np.zeros(stride, np.int64)
        left = np.concatenate([np.zeros(bpp, np.int64), cur[:-bpp]])
        upleft = np.concatenate([np.zeros(bpp, np.int64), prev[:-bpp]])
        if ft == 0:
            filt = cur
        elif ft == 1:
            filt = cur - left
        elif ft == 2:
            filt = cur - prev
        elif ft == 3:
            filt = cur - ((left + prev) >> 1)
        else:
            p = left + prev - upleft
            pa_, pb, pcc = (np.abs(p - left), np.abs(p - prev),
                            np.abs(p - upleft))
            pred = np.where((pa_ <= pb) & (pa_ <= pcc), left,
                            np.where(pb <= pcc, prev, upleft))
            filt = cur - pred
        raw += bytes([ft]) + (filt & 0xFF).astype(np.uint8).tobytes()
    ihdr = _struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    payload = (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
               + _png_chunk(b"IDAT", _zlib.compress(bytes(raw)))
               + _png_chunk(b"IEND", b""))
    assert (decode_png(payload) == img).all()

    # corrupt CRC, 16-bit depth, interlace: ValueError (quarantine)
    good = bytearray(encode_png(img))
    good[-5] ^= 0xFF  # flip a bit in IEND's CRC
    with _pytest.raises(ValueError, match="CRC"):
        decode_png(bytes(good))
    for byte_off, val in ((8, 16),   # bit depth 16
                          (12, 1)):  # interlace (Adam7)
        msg = "unsupported"
        hdr = _struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
        hdr = hdr[:byte_off] + bytes([val]) + hdr[byte_off + 1:]
        bad = (_PNG_SIG + _png_chunk(b"IHDR", hdr)
               + _png_chunk(b"IDAT", _zlib.compress(b"\x00" * (stride + 1)))
               + _png_chunk(b"IEND", b""))
        with _pytest.raises(ValueError, match=msg):
            decode_png(bad)


def test_media_png_palette_decode():
    """Palette (color type 3) PNG decodes via PLTE lookup; tRNS adds
    an alpha channel; missing PLTE / out-of-range indices refused."""
    import struct as _struct
    import zlib as _zlib

    import numpy as np
    import pytest as _pytest

    from pmocr_ray.ops.media import _PNG_SIG, _png_chunk, decode_png

    rng = np.random.default_rng(13)
    pal = rng.integers(0, 256, (16, 3), dtype=np.uint8)
    idx = rng.integers(0, 16, (7, 9), dtype=np.uint8)

    def build(with_plte=True, with_trns=False):
        ihdr = _struct.pack(">IIBBBBB", 9, 7, 8, 3, 0, 0, 0)
        raw = b"".join(b"\x00" + idx[y].tobytes() for y in range(7))
        chunks = _PNG_SIG + _png_chunk(b"IHDR", ihdr)
        if with_plte:
            chunks += _png_chunk(b"PLTE", pal.tobytes())
        if with_trns:
            chunks += _png_chunk(b"tRNS", bytes(range(16)))
        return chunks + _png_chunk(b"IDAT", _zlib.compress(raw)) \
            + _png_chunk(b"IEND", b"")

    out = decode_png(build())
    assert out.shape == (7, 9, 3) and (out == pal[idx]).all()
    out_a = decode_png(build(with_trns=True))
    assert out_a.shape == (7, 9, 4)
    assert (out_a[:, :, :3] == pal[idx]).all()
    assert (out_a[:, :, 3] == idx).all()  # tRNS[i] = i by construction
    with _pytest.raises(ValueError, match="PLTE"):
        decode_png(build(with_plte=False))


def test_media_png_through_stages():
    """PNG payloads flow through the REAL decode/resize stages: pixel
    statistics from actual pixels, resize re-encodes RGB as PPM and
    RGBA as PNG (alpha survives)."""
    import numpy as np

    from pmocr_ray.ops.media import (MediaDecodeStage, MediaResizeStage,
                                     decode_png, decode_ppm, encode_png,
                                     resize_nearest)

    rng = np.random.default_rng(7)
    rgb = rng.integers(0, 256, (10, 8, 3), dtype=np.uint8)
    rgba = rng.integers(0, 256, (6, 6, 4), dtype=np.uint8)
    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "media": pa.array([encode_png(rgb), encode_png(rgba)],
                                    pa.binary())})
    d = MediaDecodeStage(column="media")(t)
    assert d["width"].to_pylist() == [8, 6]
    assert d["height"].to_pylist() == [10, 6]
    assert d["channels"].to_pylist() == [3, 4]
    px = rgb.reshape(-1, 3).astype(np.float32) / 255.0
    exp = np.concatenate([px.mean(axis=0), px.std(axis=0)])
    feat = d["features"].to_pylist()[0]
    assert np.allclose(feat[:6], exp, atol=1e-6) and feat[6:] == [0.0, 0.0]

    r = MediaResizeStage(column="media", out_width=4, out_height=3)(t)
    assert r["media_error"].to_pylist() == [None, None]
    outs = r["media"].to_pylist()
    assert (decode_ppm(outs[0]) == resize_nearest(rgb, 4, 3)).all()
    assert (decode_png(outs[1]) == resize_nearest(rgba, 4, 3)).all()


def test_media_real_jpeg_codec():
    """Baseline JPEG is decoded for REAL (pure-numpy Huffman + IDCT):
    tile-uniform grayscale round-trips BIT-EXACTLY with all-ones quant
    tables (DC-only blocks), smooth RGB round-trips within JPEG
    tolerance at 4:4:4 AND 4:2:0, restart markers work, and
    progressive/junk payloads are refused loudly."""
    import numpy as np
    import pytest as _pytest

    from pmocr_ray.ops.jpeg import decode_jpeg, encode_jpeg

    rng = np.random.default_rng(5)
    # exact path: uniform 8x8 tiles, quant_scale=0 (all-ones tables)
    tiles = rng.integers(0, 256, (4, 5), dtype=np.uint8)
    img = np.repeat(np.repeat(tiles, 8, 0), 8, 1)
    out = decode_jpeg(encode_jpeg(img, quant_scale=0))
    assert out.shape == (32, 40, 1) and (out[:, :, 0] == img).all()

    # ... and stays exact across restart markers
    o_rst = decode_jpeg(encode_jpeg(img, quant_scale=0,
                                    restart_interval=2))
    assert (o_rst[:, :, 0] == img).all()

    # smooth RGB, 4:4:4 and 4:2:0, odd (non-multiple-of-8) dims
    yy, xx = np.meshgrid(np.arange(37), np.arange(45), indexing="ij")
    smooth = np.stack([(yy * 4) % 256, (xx * 5) % 256,
                       (yy + xx) % 256], -1).astype(np.uint8)
    o444 = decode_jpeg(encode_jpeg(smooth, 95))
    assert o444.shape == (37, 45, 3)
    assert np.abs(o444.astype(int) - smooth.astype(int)).max() <= 6
    o420 = decode_jpeg(encode_jpeg(smooth, 95, subsample=True,
                                   restart_interval=3))
    assert o420.shape == (37, 45, 3)
    assert np.abs(o420.astype(int) - smooth.astype(int)).max() <= 24

    # refusals: junk, progressive (SOF2), truncated entropy data
    with _pytest.raises(ValueError, match="not a JPEG"):
        decode_jpeg(b"nope")
    j = bytearray(encode_jpeg(img, quant_scale=0))
    sof = j.find(b"\xFF\xC0")
    j[sof + 1] = 0xC2  # flip SOF0 -> SOF2 (progressive)
    with _pytest.raises(ValueError, match="baseline"):
        decode_jpeg(bytes(j))
    with _pytest.raises(ValueError):
        decode_jpeg(encode_jpeg(img, quant_scale=0)[:-40])


def test_media_jpeg_through_stages():
    """JPEG payloads flow through the raster dispatch: real pixel
    statistics from MediaDecodeStage, real resize through
    MediaResizeStage (gray JPEG in -> PNG out, RGB JPEG in -> PPM
    out), junk still quarantined per row."""
    import numpy as np

    from pmocr_ray.ops.jpeg import decode_jpeg, encode_jpeg
    from pmocr_ray.ops.media import (MediaDecodeStage, MediaResizeStage,
                                     decode_png, decode_ppm, decode_raster,
                                     is_raster, resize_nearest)

    rng = np.random.default_rng(9)
    tiles = rng.integers(0, 256, (3, 4), dtype=np.uint8)
    gray = np.repeat(np.repeat(tiles, 8, 0), 8, 1)
    jg = encode_jpeg(gray, quant_scale=0)
    yy, xx = np.meshgrid(np.arange(16), np.arange(24), indexing="ij")
    rgb = np.stack([(yy * 9) % 256, (xx * 3) % 256,
                    (yy * 2 + xx) % 256], -1).astype(np.uint8)
    jc = encode_jpeg(rgb, 95)
    assert is_raster(jg) and is_raster(jc)
    assert (decode_raster(jg)[:, :, 0] == gray).all()

    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "media": pa.array([jg, jc], pa.binary())})
    d = MediaDecodeStage(column="media")(t)
    assert d["width"].to_pylist() == [32, 24]
    assert d["height"].to_pylist() == [24, 16]
    assert d["channels"].to_pylist() == [1, 3]
    gpx = gray.reshape(-1, 1).astype(np.float32) / 255.0
    feat = d["features"].to_pylist()[0]
    assert abs(feat[0] - gpx.mean()) < 1e-6

    r = MediaResizeStage(column="media", out_width=6, out_height=4)(t)
    assert r["media_error"].to_pylist() == [None, None]
    outs = r["media"].to_pylist()
    # gray (1ch) re-encodes as PNG — EXACT vs resizing the decoded pixels
    exp_g = resize_nearest(decode_jpeg(jg), 6, 4)
    assert (decode_png(outs[0]) == exp_g).all()
    # rgb (3ch) re-encodes as PPM
    exp_c = resize_nearest(decode_jpeg(jc), 6, 4)
    assert (decode_ppm(outs[1]) == exp_c).all()


def test_media_real_gif_codec():
    """GIF is decoded for REAL (pure-Python LZW): lossless round-trip
    (single + multi-frame + 256-color), interlace, transparency
    composition over the canvas, disposal-to-background, junk and
    restore-previous refused."""
    import numpy as np
    import pytest as _pytest

    from pmocr_ray.ops.gif import decode_gif, encode_gif

    rng = np.random.default_rng(21)
    pal = rng.integers(0, 256, (16, 3), dtype=np.uint8)
    f0 = rng.integers(0, 16, (13, 21), dtype=np.uint8)
    f1 = rng.integers(0, 16, (13, 21), dtype=np.uint8)

    frames, delays = decode_gif(encode_gif(f0, pal))
    assert len(frames) == 1 and delays == [0]
    assert (frames[0][:, :, :3] == pal[f0]).all()
    assert (frames[0][:, :, 3] == 255).all()

    frames2, delays2 = decode_gif(encode_gif([f0, f1], pal,
                                             delays_cs=[10, 20]))
    assert len(frames2) == 2 and delays2 == [10, 20]
    assert (frames2[1][:, :, :3] == pal[f1]).all()

    pal8 = rng.integers(0, 256, (256, 3), dtype=np.uint8)
    big = rng.integers(0, 256, (24, 31), dtype=np.uint8)
    fr, _ = decode_gif(encode_gif(big, pal8))
    assert (fr[0][:, :, :3] == pal8[big]).all()

    # interlace: store rows in 4-pass order, set the interlace flag —
    # the decoder must un-permute back to the original image
    img = rng.integers(0, 16, (16, 9), dtype=np.uint8)
    order = [y for start, step in ((0, 8), (4, 8), (2, 4), (1, 2))
             for y in range(start, 16, step)]
    stored = img[order]
    payload = bytearray(encode_gif(stored, pal))
    desc = payload.index(0x2C, 13)          # image descriptor
    payload[desc + 9] |= 0x40               # interlace flag
    fi, _ = decode_gif(bytes(payload))
    assert (fi[0][:, :, :3] == pal[img]).all()

    # transparency: frame 2's transparent pixels keep frame 1's colors
    # (index 16 is reserved for transparency — absent from frame 1, so
    # frame 1 composes fully opaque)
    pal17 = np.concatenate([pal, np.zeros((1, 3), np.uint8)])
    mask = rng.random((13, 21)) < 0.5
    f1t = f1.copy()
    f1t[mask] = 16
    ft, _ = decode_gif(encode_gif([f0, f1t], pal17, transparent=16))
    exp = pal17[f1t]
    exp[mask] = pal17[f0][mask]             # composed over frame 1
    assert (ft[1][:, :, :3] == exp).all()

    # disposal 2 clears the canvas between frames: a fully-transparent
    # second frame shows the background (alpha 0), not frame 1
    blank = np.full((13, 21), 16, np.uint8)
    fd, _ = decode_gif(encode_gif([f0, blank], pal17, transparent=16,
                                  disposal=2))
    assert (fd[1][:, :, 3] == 0).all()

    with _pytest.raises(ValueError, match="not a GIF"):
        decode_gif(b"GIF00a junk")
    with _pytest.raises(ValueError, match="restore previous"):
        decode_gif(encode_gif(f0, pal, disposal=3))


def test_media_gif_through_stages():
    """GIF flows through the raster dispatch (opaque -> RGB, real
    pixels in decode/resize) and FrameSampleStage explodes animated
    GIFs into composed RGB frame rows."""
    import numpy as np

    from pmocr_ray.ops.gif import decode_gif, encode_gif
    from pmocr_ray.ops.media import (FrameSampleStage, MediaDecodeStage,
                                     MediaResizeStage, decode_ppm,
                                     decode_raster, is_raster,
                                     resize_nearest)

    rng = np.random.default_rng(22)
    pal = rng.integers(0, 256, (32, 3), dtype=np.uint8)
    idx = rng.integers(0, 32, (10, 14), dtype=np.uint8)
    g = encode_gif(idx, pal)
    assert is_raster(g)
    rgb = decode_raster(g)
    assert rgb.shape == (10, 14, 3) and (rgb == pal[idx]).all()

    t = pa.table({"doc_id": pa.array([0], pa.int64()),
                  "media": pa.array([g], pa.binary())})
    d = MediaDecodeStage(column="media")(t)
    assert d["width"].to_pylist() == [14]
    assert d["channels"].to_pylist() == [3]
    r = MediaResizeStage(column="media", out_width=5, out_height=4)(t)
    assert r["media_error"].to_pylist() == [None]
    assert (decode_ppm(r["media"].to_pylist()[0])
            == resize_nearest(pal[idx], 5, 4)).all()

    # animated: 4 frames, step 2 -> frames 0 and 2 as RGB bytes
    anim = [rng.integers(0, 32, (6, 8), dtype=np.uint8) for _ in range(4)]
    ga = encode_gif(anim, pal, delays_cs=[5] * 4)
    ta = pa.table({"doc_id": pa.array([9], pa.int64()),
                   "media": pa.array([ga], pa.binary())})
    ex = FrameSampleStage(column="media", step=2)(ta)
    assert ex["frame_idx"].to_pylist() == [0, 2]
    frames, _ = decode_gif(ga)
    for row, f in zip(ex["frame"].to_pylist(), (0, 2)):
        assert row == np.ascontiguousarray(
            frames[f][:, :, :3]).tobytes()


def test_media_real_tiff_codec():
    """TIFF — the reference's own input format — decodes for REAL:
    lossless round-trips (1/3/4 channels × none/PackBits/LZW,
    multi-strip), big-endian (MM), white-is-zero inversion,
    horizontal predictor with LZW, unsupported shapes refused."""
    import struct as _struct

    import numpy as np
    import pytest as _pytest

    from pmocr_ray.ops.tiff import (_tiff_lzw_encode_literal, decode_tiff,
                                    encode_tiff)

    rng = np.random.default_rng(31)
    for c in (1, 3, 4):
        img = rng.integers(0, 256, (13, 9, c), dtype=np.uint8)
        for comp in ("none", "packbits", "lzw"):
            out = decode_tiff(encode_tiff(img, compression=comp))
            assert out.shape == (13, 9, c) and (out == img).all()
    multi = rng.integers(0, 256, (20, 7, 3), dtype=np.uint8)
    for comp in ("none", "packbits", "lzw"):
        assert (decode_tiff(encode_tiff(multi, compression=comp,
                                        rows_per_strip=6)) == multi).all()

    # hand-built minimal TIFFs for shapes the encoder doesn't emit
    def build(endian, entries, strip):
        e = "<" if endian == "II" else ">"
        hdr = (b"II*\x00" if endian == "II" else b"MM\x00*") \
            + _struct.pack(e + "I", 8)
        n = len(entries)
        ifd = _struct.pack(e + "H", n)
        data_off = 8 + 2 + 12 * n + 4
        for tag, typ, count, val in entries:
            fmt = {3: "H", 4: "I"}[typ]
            packed = _struct.pack(e + fmt * count, *val)
            packed += b"\x00" * (4 - len(packed))
            ifd += _struct.pack(e + "HHI", tag, typ, count) + packed
        return hdr + ifd + _struct.pack(e + "I", 0) + strip, data_off

    # big-endian gray, uncompressed
    g = rng.integers(0, 256, (4, 5), dtype=np.uint8)
    ents = [(256, 3, 1, [5]), (257, 3, 1, [4]), (258, 3, 1, [8]),
            (259, 3, 1, [1]), (262, 3, 1, [1]),
            (273, 4, 1, [0]), (277, 3, 1, [1]), (278, 3, 1, [4]),
            (279, 4, 1, [20])]
    payload, off = build("MM", ents, g.tobytes())
    payload = payload.replace(
        _struct.pack(">HHI", 273, 4, 1) + _struct.pack(">I", 0),
        _struct.pack(">HHI", 273, 4, 1) + _struct.pack(">I", off))
    assert (decode_tiff(payload)[:, :, 0] == g).all()

    # white-is-zero (photometric 0): decoded inverted
    ents0 = [e if e[0] != 262 else (262, 3, 1, [0]) for e in ents]
    p0, off0 = build("MM", ents0, g.tobytes())
    p0 = p0.replace(
        _struct.pack(">HHI", 273, 4, 1) + _struct.pack(">I", 0),
        _struct.pack(">HHI", 273, 4, 1) + _struct.pack(">I", off0))
    assert (decode_tiff(p0)[:, :, 0] == 255 - g).all()

    # LZW + horizontal predictor (tag 317=2): store row diffs
    rgb = rng.integers(0, 256, (6, 8, 3), dtype=np.uint8)
    diff = rgb.astype(np.int16).copy()
    diff[:, 1:] -= rgb.astype(np.int16)[:, :-1]
    lzw = _tiff_lzw_encode_literal((diff % 256).astype(np.uint8).tobytes())
    ents2 = [(256, 3, 1, [8]), (257, 3, 1, [6]), (258, 3, 3, [8, 8, 8]),
             (259, 3, 1, [5]), (262, 3, 1, [2]), (273, 4, 1, [0]),
             (277, 3, 1, [3]), (278, 3, 1, [6]), (279, 4, 1, [len(lzw)]),
             (284, 3, 1, [1]), (317, 3, 1, [2])]
    # BitsPerSample count 3 -> 6 bytes > 4 would need external storage;
    # use count 1 (spec allows a single value applying to all samples)
    ents2[2] = (258, 3, 1, [8])
    p2, off2 = build("II", ents2, lzw)
    p2 = p2.replace(
        _struct.pack("<HHI", 273, 4, 1) + _struct.pack("<I", 0),
        _struct.pack("<HHI", 273, 4, 1) + _struct.pack("<I", off2))
    assert (decode_tiff(p2) == rgb).all()

    with _pytest.raises(ValueError, match="not a TIFF"):
        decode_tiff(b"junk")
    with _pytest.raises(ValueError, match="compression"):
        bad = [e if e[0] != 259 else (259, 3, 1, [7]) for e in ents]  # JPEG-in-TIFF
        p3, off3 = build("MM", bad, g.tobytes())
        p3 = p3.replace(
            _struct.pack(">HHI", 273, 4, 1) + _struct.pack(">I", 0),
            _struct.pack(">HHI", 273, 4, 1) + _struct.pack(">I", off3))
        decode_tiff(p3)


def test_media_tiff_through_stages():
    """TIFF flows through the raster dispatch: real pixels in the
    decode/resize stages, RGB re-encodes as PPM."""
    import numpy as np

    from pmocr_ray.ops.media import (MediaDecodeStage, MediaResizeStage,
                                     decode_ppm, decode_raster, is_raster,
                                     resize_nearest)
    from pmocr_ray.ops.tiff import encode_tiff

    rng = np.random.default_rng(32)
    rgb = rng.integers(0, 256, (11, 7, 3), dtype=np.uint8)
    t_pb = encode_tiff(rgb, compression="packbits")
    assert is_raster(t_pb)
    assert (decode_raster(t_pb) == rgb).all()

    t = pa.table({"doc_id": pa.array([0], pa.int64()),
                  "media": pa.array([t_pb], pa.binary())})
    d = MediaDecodeStage(column="media")(t)
    assert d["width"].to_pylist() == [7]
    assert d["channels"].to_pylist() == [3]
    r = MediaResizeStage(column="media", out_width=4, out_height=5)(t)
    assert r["media_error"].to_pylist() == [None]
    assert (decode_ppm(r["media"].to_pylist()[0])
            == resize_nearest(rgb, 4, 5)).all()


def test_media_truncated_codec_payloads_quarantine_not_crash():
    """Truncated/malformed payloads of EVERY real codec must
    quarantine the row (ValueError via the quarantine_malformed
    wrapper), never escape as struct.error/IndexError and fail the
    whole Ray task (code-review r5 finding)."""
    import numpy as np
    import pytest as _pytest

    from pmocr_ray.ops.gif import encode_gif
    from pmocr_ray.ops.jpeg import encode_jpeg
    from pmocr_ray.ops.media import (FrameSampleStage, MediaDecodeStage,
                                     MediaResizeStage, decode_raster)
    from pmocr_ray.ops.tiff import encode_tiff

    rng = np.random.default_rng(41)
    img = rng.integers(0, 256, (9, 9, 3), dtype=np.uint8)
    bads = [
        b"GIF89a\x01",                      # truncated GIF header
        b"II*\x00\x08\x00",                 # truncated TIFF IFD offset
        b"II*\x00" + b"\x08\x00\x00\x00" + b"\xff\xff",  # huge IFD count
        b"\xFF\xD8\xFF\xC0\x00\x03\x08",    # truncated JPEG SOF
        b"\x89PNG\r\n\x1a\n\x00\x00\x00",   # truncated PNG chunk
        b"P6\n9 9\n255\n\x00",              # short PPM body
        b"BM" + b"\x00" * 60,               # zero-dim BMP header
        encode_gif(img[:, :, 0] % 16,
                   rng.integers(0, 256, (16, 3), dtype=np.uint8))[:-10],
        encode_jpeg(img, 90)[:30],
        encode_tiff(img)[:40],
    ]
    for p in bads:
        with _pytest.raises(ValueError):
            decode_raster(p)
    t = pa.table({"doc_id": pa.array(range(len(bads)), pa.int64()),
                  "media": pa.array(bads, pa.binary())})
    for stage in (MediaResizeStage(column="media"),
                  MediaDecodeStage(column="media")):
        out = stage(t)                      # must not raise
        assert all(e is not None for e in out["media_error"].to_pylist())
    # frame sampling: malformed video payloads contribute zero rows
    ex = FrameSampleStage(column="media")(t)
    assert ex.num_rows == 0


def test_jpeg_fill_bytes_before_markers():
    """0xFF fill bytes before a marker are spec-legal (B.1.1.2) and
    must not desync the segment parser."""
    import numpy as np

    from pmocr_ray.ops.jpeg import decode_jpeg, encode_jpeg

    rng = np.random.default_rng(42)
    tiles = rng.integers(0, 256, (3, 4), dtype=np.uint8)
    img = np.repeat(np.repeat(tiles, 8, 0), 8, 1)
    j = encode_jpeg(img, quant_scale=0)
    # pad fill bytes before the SOF and SOS markers
    sof = j.index(b"\xFF\xC0")
    j2 = j[:sof] + b"\xFF\xFF\xFF" + j[sof:]
    sos = j2.index(b"\xFF\xDA")
    j3 = j2[:sos] + b"\xFF" + j2[sos:]
    out = decode_jpeg(j3)
    assert (out[:, :, 0] == img).all()


def test_media_g711_wav_expansion():
    """G.711 μ-law / A-law WAV (format 7/6) decodes through the exact
    CCITT expansion tables: known anchor values, full-table round
    trip through decode_wav, stage stats integer-exact; unsupported
    formats still refused."""
    import numpy as np
    import pytest as _pytest

    from pmocr_ray.ops.media import (_ALAW_TABLE, _MULAW_TABLE,
                                     AudioDecodeStage, decode_wav,
                                     encode_wav_g711)

    # spec anchors: the two μ-law zeros and both laws' full-scale
    assert _MULAW_TABLE[0xFF] == 0 and _MULAW_TABLE[0x7F] == 0
    assert _MULAW_TABLE[0x80] == 32124 and _MULAW_TABLE[0x00] == -32124
    assert _ALAW_TABLE[0xAA] == 32256 and _ALAW_TABLE[0x2A] == -32256
    assert _ALAW_TABLE[0xD5] == 8 and _ALAW_TABLE[0x55] == -8

    x = np.arange(256, dtype=np.uint8)
    arr, rate = decode_wav(encode_wav_g711(x, 8000))
    assert rate == 8000 and (arr[:, 0] == _MULAW_TABLE[x]).all()
    arr2, _ = decode_wav(encode_wav_g711(x, 8000, law="alaw"))
    assert (arr2[:, 0] == _ALAW_TABLE[x]).all()

    t = pa.table({"doc_id": pa.array([0], pa.int64()),
                  "media": pa.array([encode_wav_g711(x, 8000)],
                                    pa.binary())})
    d = AudioDecodeStage(column="media")(t)
    xi = _MULAW_TABLE[x].astype(np.int64)
    assert d["sum_abs"].to_pylist()[0] == int(np.abs(xi).sum())
    assert d["sum_sq"].to_pylist()[0] == int((xi * xi).sum())

    with _pytest.raises(ValueError, match="supported"):
        # format 3 (IEEE float) still refused loudly
        import struct as _struct
        fmt = _struct.pack("<HHIIHH", 3, 1, 8000, 32000, 4, 32)
        decode_wav(b"RIFF" + _struct.pack("<I", 4 + 8 + len(fmt))
                   + b"WAVE" + b"fmt " + _struct.pack("<I", len(fmt))
                   + fmt + b"data" + _struct.pack("<I", 0))


def test_media_wav_truncated_fmt_chunk_quarantines():
    """A 'fmt ' chunk shorter than 16 bytes must raise ValueError (not
    struct.error) so the audio stages quarantine the ROW instead of
    crashing the task (ADVICE r4, media.py decode_wav)."""
    import struct as _struct

    import numpy as np
    import pytest as _pytest

    from pmocr_ray.ops.media import (AudioDecodeStage, AudioResampleStage,
                                     decode_wav, encode_wav)

    # hand-build a WAV whose fmt chunk claims (and has) only 8 bytes
    short_fmt = _struct.pack("<HHI", 1, 1, 16000)
    bad = (b"RIFF" + _struct.pack("<I", 4 + 8 + len(short_fmt) + 8)
           + b"WAVE" + b"fmt " + _struct.pack("<I", len(short_fmt))
           + short_fmt + b"data" + _struct.pack("<I", 0))
    with _pytest.raises(ValueError, match="truncated fmt"):
        decode_wav(bad)

    x = ((np.arange(50) * 13) % 997 - 500).astype(np.int16)
    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "media": pa.array([encode_wav(x, 16000), bad],
                                    pa.binary())})
    d = AudioDecodeStage(column="media")(t)  # must not raise
    assert d["sample_rate"].to_pylist() == [16000, None]
    assert d["media_error"].to_pylist()[1].startswith("ValueError")
    r = AudioResampleStage(column="media", target_rate=8000)(t)
    assert r["out_samples"].to_pylist() == [25, None]


def test_media_real_y4m_codec_and_frame_sampling():
    """Y4M (YUV4MPEG2 Cmono) is decoded for REAL: round-trip, header
    parsing, frame sampling through FrameSampleStage with actual
    frame bytes; non-mono colorspaces refused loudly."""
    import numpy as np
    import pytest as _pytest

    from pmocr_ray.ops.media import (FrameSampleStage, decode_y4m,
                                     encode_y4m)

    rng = np.random.default_rng(5)
    frames = rng.integers(0, 256, (7, 4, 5), dtype=np.uint8)
    payload = encode_y4m(frames, fps=(30, 1))
    dec, fps = decode_y4m(payload)
    assert fps == (30, 1) and (dec == frames).all()

    t = pa.table({"doc_id": pa.array([9], pa.int64()),
                  "media": pa.array([payload], pa.binary())})
    out = FrameSampleStage(column="media", step=3)(t)
    assert out["frame_idx"].to_pylist() == [0, 3, 6]
    for i, f in zip((0, 3, 6), out["frame"].to_pylist()):
        assert f == frames[i].tobytes()

    with _pytest.raises(ValueError, match="Cmono"):
        decode_y4m(b"YUV4MPEG2 W4 H4 F25:1 C420\nFRAME\n" + b"\0" * 24)


def test_frame_sample_stage_explodes_rows():
    from pmocr_ray.ops.media import FrameSampleStage, encode_fake_video

    v7 = encode_fake_video(7, frame_size=4, seed=1)   # frames 0,3,6
    v1 = encode_fake_video(1, frame_size=4, seed=2)   # frame 0
    t = pa.table({"doc_id": pa.array([10, 11, 12], pa.int64()),
                  "media": pa.array([v7, b"junk", v1], pa.binary())})
    out = FrameSampleStage(column="media", step=3)(t)
    assert out["doc_id"].to_pylist() == [10, 10, 10, 12]
    assert out["frame_idx"].to_pylist() == [0, 3, 6, 0]
    frames = out["frame"].to_pylist()
    assert all(len(f) == 4 for f in frames)
    # frame bytes are the right slices (frame f of v7 starts at 14+f*4)
    assert frames[1] == v7[14 + 3 * 4: 14 + 4 * 4]


# ----------------------------------------------------------------- events

@pytest.fixture(scope="module")
def events_ds(ray_session):
    ts = pd.to_datetime([
        "2024-01-01 00:05:00", "2024-01-01 00:10:00",  # u1 session 1
        "2024-01-01 02:00:00",                           # u1 session 2 (gap)
        "2024-01-01 00:07:00",                           # u2
    ])
    df = pd.DataFrame({
        "event_id": [1, 2, 3, 4],
        "ts": ts,
        "user_id": [1, 1, 1, 2],
        "event_type": ["click", "click", "buy", "click"],
        "value": [1.10, 2.20, 3.30, 4.40],
    })
    return rd.from_pandas(df)


def test_events_window(events_ds):
    rows = {(str(r["hour"]), r["event_type"]): r
            for r in events_window(events_ds).take_all()}
    r = rows[("2024-01-01 00:00:00", "click")]
    assert r["n_events"] == 3
    assert r["min_value"] == 1.10 and r["max_value"] == 4.40


def test_top_users_exact_cents(events_ds):
    out = top_users_by_value(events_ds, k=2).to_pandas()
    assert list(out["user_id"]) == [1, 2]
    assert list(out["total_cents"]) == [660, 440]  # exact integers


def test_sessionize(events_ds):
    rows = sessionize(events_ds).take_all()
    u1 = sorted([r for r in rows if r["user_id"] == 1],
                key=lambda r: r["session_start"])
    assert len(u1) == 2
    assert u1[0]["n_events"] == 2 and u1[1]["n_events"] == 1
    assert len([r for r in rows if r["user_id"] == 2]) == 1


def test_hash_anti_join_unmatched_only(ray_session):
    from pmocr_ray.ops.joins import hash_anti_join
    left = rd.from_pandas(pd.DataFrame(
        {"k": [1, 2, 3, 4], "name": ["a", "b", "c", "d"]}))
    right = rd.from_pandas(pd.DataFrame({"rk": [2, 2, 4]}))
    out = hash_anti_join(left, right, on="k", right_on="rk",
                         num_partitions=2).to_pandas()
    assert sorted(out["k"]) == [1, 3]
    assert sorted(out.columns) == ["k", "name"]


def test_compact_latest_keeps_newest_per_key(ray_session):
    from pmocr_ray.ops.compact import compact_latest
    df = pd.DataFrame({
        "k": [1, 1, 1, 2],
        "version": [3, 9, 5, 1],
        "uid": [100, 101, 102, 103],
        "payload": ["old", "newest", "mid", "only"],
    })
    out = (compact_latest(rd.from_pandas(df).repartition(4), key="k",
                          order_cols=["version", "uid"])
           .to_pandas().sort_values("k"))
    assert list(out["payload"]) == ["newest", "only"]
    assert len(out) == 2


def test_lev1_kernel_cases():
    from pmocr_ray.ops.joins import _lev1

    assert _lev1("abc", "abc")          # distance 0
    assert _lev1("abc", "abd")          # substitution
    assert _lev1("abc", "abcd")         # insertion at end
    assert _lev1("abc", "xabc")         # insertion at front
    assert _lev1("abc", "ac")           # deletion
    assert not _lev1("ab", "ba")        # transposition = 2
    assert not _lev1("abc", "abcde")    # length gap 2
    assert not _lev1("abc", "xyc")      # two substitutions


# ------------------------------------------------------- streaming state


def _batch_sessions_df(events):
    return (sessionize(events).to_pandas()
            .sort_values(["user_id", "session_start"])
            .reset_index(drop=True))


def test_streaming_sessionize_matches_batch_any_chunking(ray_session, sf_small):
    import os

    import ray.data as rd

    from pmocr_ray.ops.streaming import streaming_sessionize

    ev = rd.read_parquet(os.path.join(sf_small, "events.parquet"),
                         columns=["user_id", "ts", "event_id"])
    expected = _batch_sessions_df(ev)
    for n_chunks, n_buckets in ((1, 1), (3, 2), (7, 4)):
        got = (streaming_sessionize(ev, n_chunks=n_chunks,
                                    n_buckets=n_buckets)
               .to_pandas()
               .sort_values(["user_id", "session_start"])
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[["user_id", "session_start", "session_end", "n_events"]],
            expected[["user_id", "session_start", "session_end",
                      "n_events"]].astype({"n_events": got["n_events"].dtype}),
        )


def test_streaming_sessionize_session_spans_chunks(ray_session):
    import ray.data as rd

    from pmocr_ray.ops.streaming import streaming_sessionize

    # one user, events every 10 min over 2 h: ONE session, while every
    # chunk boundary falls inside it — state must carry across feeds
    ts = pd.date_range("2024-01-01", periods=13, freq="10min")
    ev = rd.from_pandas(pd.DataFrame({
        "user_id": [7] * 13, "ts": ts, "event_id": range(13)}))
    out = streaming_sessionize(ev, n_chunks=6, n_buckets=2).to_pandas()
    assert len(out) == 1
    assert out["n_events"].iloc[0] == 13
    assert out["session_start"].iloc[0] == ts[0]
    assert out["session_end"].iloc[0] == ts[-1]


def test_streaming_ops_empty_input_and_private_spool(ray_session):
    """Empty events: the streaming op returns its typed empty table
    (parity with the batch operator) instead of crashing; the default
    spool is a private tempdir, created and removed per run, so
    concurrent default-arg runs can never clobber each other."""
    import glob

    import pandas as pd
    import ray.data as rd

    from pmocr_ray.ops.streaming import streaming_sessionize

    empty = rd.from_pandas(pd.DataFrame({
        "event_id": pd.Series([], dtype="int64"),
        "user_id": pd.Series([], dtype="int64"),
        "ts": pd.Series([], dtype="datetime64[us]"),
    }))
    s = streaming_sessionize(empty)
    assert s.num_rows == 0 and "session_start" in s.column_names

    # non-empty run on the default (private) spool: works and cleans up
    ev = rd.from_pandas(pd.DataFrame({
        "event_id": range(20), "user_id": [1] * 20,
        "ts": pd.to_datetime("2026-01-01")
        + pd.to_timedelta(range(20), unit="m"),
    }))
    out = streaming_sessionize(ev, n_chunks=2, n_buckets=2)
    assert out.num_rows == 1 and out["n_events"][0].as_py() == 20
    assert glob.glob("/tmp/pmocr_spool_*") == []  # owned spool removed


def test_review_fix_edge_cases(ray_session):
    """Round-3 review fixes: empty events, n=1 decontamination, empty
    bucketed join."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from pmocr_ray.ops.events import top_users_by_value

    empty_ev = rd.from_pandas(pd.DataFrame({
        "event_id": pd.Series([], dtype="int64"),
        "user_id": pd.Series([], dtype="int64"),
        "event_type": pd.Series([], dtype="object"),
        "value": pd.Series([], dtype="float64"),
        "ts": pd.Series([], dtype="datetime64[us]"),
    }))
    t = top_users_by_value(empty_ev)
    assert t.num_rows == 0 and t.column_names == ["user_id", "total_cents"]

    from pmocr_ray.ops.dedup import decontaminate

    docs = rd.from_pandas(pd.DataFrame(
        {"doc_id": [1, 2], "text": ["alpha beta", "gamma delta"]}))
    out = decontaminate(docs, {"beta"}, n=1).to_pandas()
    assert dict(zip(out["doc_id"], out["contaminated"])) == {1: True,
                                                             2: False}

    import tempfile

    from pmocr_ray.ops.pack import bucketed_join

    with tempfile.TemporaryDirectory() as td:
        with pytest.raises(ValueError, match="no bucket parquet files"):
            bucketed_join(td + "/a", td + "/b", key_a="k", key_b="k")


def test_knn_edge_cases(ray_session, vec_ds):
    """Round-3 knn hardening: 1-D query promotion, empty batches,
    empty corpora, missing IVF index files."""
    import pytest
    import ray.data as rd

    from pmocr_ray.ops.knn import (_BatchTopK, knn_cosine_ivf_indexed,
                                   train_centroids)

    ds, mat = vec_ds
    # a single query passed as a bare vector == its one-row-matrix form
    flat = knn_cosine(ds, mat[5], k=5).to_pandas()
    twod = knn_cosine(ds, mat[5:6], k=5).to_pandas()
    assert flat.equals(twod)

    # empty batch through the per-batch kernel: typed empty, no matmul
    empty = pa.table({"vec_id": pa.array([], pa.int64()),
                      "embedding": pa.array([], pa.list_(pa.float32()))})
    out = _BatchTopK(mat[:2], k=3, key="vec_id", column="embedding")(empty)
    assert out.num_rows == 0
    assert out.column_names == ["query_idx", "vec_id", "cosine"]

    # empty corpus: loud, not an opaque numpy shape error
    empty_ds = rd.from_arrow(empty)
    with pytest.raises(ValueError, match="no rows"):
        train_centroids(empty_ds, 4)

    # missing index data dir: loud with the probed cells in the message
    import os
    import tempfile

    import pyarrow.parquet as pq

    with tempfile.TemporaryDirectory() as td:
        pq.write_table(pa.table({
            "cell": pa.array([0, 1], pa.int32()),
            "centroid": pa.array([[1.0, 0.0], [0.0, 1.0]],
                                 pa.list_(pa.float64())),
        }), os.path.join(td, "centroids.parquet"))
        with pytest.raises(ValueError, match="no parquet files"):
            knn_cosine_ivf_indexed(td, np.array([[1.0, 0.0]]), k=2)


def test_media_and_c4_edge_cases(ray_session):
    """Media stage constructor validation."""
    import pytest

    from pmocr_ray.ops.media import FrameSampleStage, MediaResizeStage

    with pytest.raises(ValueError, match="step >= 1"):
        FrameSampleStage(step=0)
    with pytest.raises(ValueError, match="positive target dims"):
        MediaResizeStage(out_width=0)


def test_compact_and_export_param_guards(ray_session):
    """compact_latest rejects orderless / mismatched specs (the kept
    row would be partition-order-dependent); shard assignment rejects
    n_shards < 1."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from pmocr_ray.ops.compact import compact_latest
    from pmocr_ray.ops.export import assign_shard

    ds = rd.from_pandas(pd.DataFrame({"k": [1, 1], "v": [1, 2]}))
    with pytest.raises(ValueError, match="order column"):
        compact_latest(ds, "k", [])
    with pytest.raises(ValueError, match="flags for"):
        compact_latest(ds, "k", ["v"], descending=[True, False])
    # valid call still compacts to the max-v row
    out = compact_latest(ds, "k", ["v"]).to_pandas()
    assert out.to_dict("records") == [{"k": 1, "v": 2}]

    with pytest.raises(ValueError, match="n_shards >= 1"):
        assign_shard(pa.table({"url": pa.array(["a"], pa.string())}),
                     n_shards=0)
