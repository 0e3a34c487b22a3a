"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Image/audio/video travel as ``binary`` columns with small typed
metadata columns beside them — exactly how the extraction pipeline
treats ``html``.  EVERY raster format the stages claim is decoded for
REAL with pure-numpy codecs: binary PPM ``P6`` and 24-bit BMP
(:func:`decode_ppm` / :func:`decode_bmp`); non-interlaced 8-bit PNG
in gray/gray+alpha/RGB/RGBA (:func:`decode_png` / :func:`encode_png`,
stdlib ``zlib``, all five scanline filters); and baseline sequential
JPEG — Huffman entropy decode, dequantize, 8×8 IDCT, 4:2:0 chroma
upsampling, restart markers (:mod:`pmocr_ray.ops.jpeg`, encode side
included).  The actor-pool stages are end-to-end functional on all of
them with zero extra dependencies.  The deterministic ``FAKEIMG`` /
``FAKEVID`` synthetic containers remain ONLY as test fixtures with
closed-form size arithmetic (their oracles recompute byte counts in
SQL) and as the documented extension seam for codecs outside scope
(progressive JPEG, ffmpeg-class compressed video) — no real format
the stages accept is stubbed.  A production deployment registers
further decoders behind the same stage interface (the pmOCR
pluggable-engine pattern, /root/reference/default.conf:24-87).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

_MAGIC = b"FAKEIMG1"
_HEADER = struct.Struct(">8sIIH")  # magic, width, height, channels


def quarantine_malformed(fn):
    """Codec-entry decorator: the stage contract is that decode
    failures raise ``ValueError`` (→ per-row quarantine, never a task
    failure), but malformed payloads can drive ``struct.unpack`` /
    index arithmetic off the end of the buffer first — normalize
    those low-level errors to the contract's ValueError."""
    import functools

    @functools.wraps(fn)
    def wrapper(payload, *args, **kwargs):
        try:
            return fn(payload, *args, **kwargs)
        except (struct.error, IndexError, KeyError, OverflowError) as exc:
            raise ValueError(
                f"media: malformed payload "
                f"({type(exc).__name__}: {exc})") from exc

    return wrapper


def encode_fake_image(width: int, height: int, channels: int = 3,
                      seed: int = 0) -> bytes:
    """Deterministic synthetic image payload (seeded byte pattern)."""
    n = min(width * height * channels, 4096)  # cap payload; header is the contract
    body = bytes(((seed + i * 31) & 0xFF) for i in range(n))
    return _HEADER.pack(_MAGIC, width, height, channels) + body


def decode_header(payload: bytes) -> tuple[int, int, int]:
    """Parse (width, height, channels); raises ValueError on junk —
    routed to quarantine by callers, like every other data failure."""
    if len(payload) < _HEADER.size:
        raise ValueError("media: payload shorter than header")
    magic, w, h, c = _HEADER.unpack_from(payload)
    if magic != _MAGIC:
        raise ValueError("media: bad magic; real codecs are not available "
                         "in this environment (stub decoder)")
    return w, h, c


# ---- real raster formats (pure numpy, no image libraries) -----------
#
# Uncompressed rasters first (PPM P6, 24-bit BMP); the compressed
# formats (PNG below, JPEG/GIF/TIFF in their own modules) dispatch
# through decode_raster by magic.

@quarantine_malformed
def decode_ppm(payload: bytes) -> np.ndarray:
    """Binary PPM (P6, maxval 255) -> (h, w, 3) uint8 array."""
    if payload[:2] != b"P6":
        raise ValueError("media: not a P6 PPM")
    pos, vals = 2, []
    while len(vals) < 3:
        while pos < len(payload) and payload[pos:pos + 1].isspace():
            pos += 1
        if payload[pos:pos + 1] == b"#":  # comment to end of line
            while pos < len(payload) and payload[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(payload) and payload[pos:pos + 1].isdigit():
            pos += 1
        if start == pos:
            raise ValueError("media: malformed PPM header")
        vals.append(int(payload[start:pos]))
    w, h, maxval = vals
    if maxval != 255:
        raise ValueError(f"media: PPM maxval {maxval} unsupported (255 only)")
    pos += 1  # the single whitespace byte after maxval
    need = w * h * 3
    body = np.frombuffer(payload, dtype=np.uint8, count=need, offset=pos)
    return body.reshape(h, w, 3)


def encode_ppm(arr: np.ndarray) -> bytes:
    """(h, w, 3) uint8 array -> binary PPM (P6)."""
    h, w, c = arr.shape
    if c != 3:
        raise ValueError(f"media: PPM needs 3 channels, got {c}")
    return b"P6\n%d %d\n255\n" % (w, h) + \
        np.ascontiguousarray(arr, dtype=np.uint8).tobytes()


@quarantine_malformed
def decode_bmp(payload: bytes) -> np.ndarray:
    """Uncompressed 24-bit BMP (BI_RGB) -> (h, w, 3) uint8 RGB array.
    Handles bottom-up (positive height) and top-down rows and the
    4-byte row padding; other depths/compressions raise loudly."""
    if payload[:2] != b"BM" or len(payload) < 54:
        raise ValueError("media: not a BMP")
    data_off, = struct.unpack_from("<I", payload, 10)
    w, h_signed = struct.unpack_from("<ii", payload, 18)
    bpp, = struct.unpack_from("<H", payload, 28)
    comp, = struct.unpack_from("<I", payload, 30)
    if bpp != 24 or comp != 0:
        raise ValueError(
            f"media: only uncompressed 24-bit BMP supported "
            f"(got {bpp} bpp, compression {comp})")
    h, bottom_up = abs(h_signed), h_signed > 0
    stride = (w * 3 + 3) & ~3
    body = np.frombuffer(payload, dtype=np.uint8, count=h * stride,
                         offset=data_off)
    rows = body.reshape(h, stride)[:, :w * 3].reshape(h, w, 3)
    if bottom_up:
        rows = rows[::-1]
    return rows[..., ::-1].copy()  # BGR -> RGB


# ---- PNG: real compressed-format codec, stdlib zlib only -----------
#
# Non-interlaced 8-bit PNG (gray / gray+alpha / RGB / RGBA) is fully
# decodable with zlib + the five scanline unfilters — no image library
# needed.  With this, the FAKEIMG stub stands in for JPEG only.

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
# color type -> channel count (8-bit, non-palette)
_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def _png_chunk(typ: bytes, data: bytes) -> bytes:
    crc = zlib.crc32(typ + data) & 0xFFFFFFFF
    return struct.pack(">I", len(data)) + typ + data + struct.pack(">I", crc)


def encode_png(arr: np.ndarray) -> bytes:
    """(h, w) or (h, w, c∈{1,2,3,4}) uint8 -> PNG bytes (filter 0,
    one IDAT, non-interlaced)."""
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, c = arr.shape
    ct = {1: 0, 2: 4, 3: 2, 4: 6}.get(c)
    if ct is None:
        raise ValueError(f"media: PNG needs 1-4 channels, got {c}")
    arr = np.ascontiguousarray(arr)
    raw = b"".join(b"\x00" + arr[y].tobytes() for y in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, 8, ct, 0, 0, 0)
    return (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(raw))
            + _png_chunk(b"IEND", b""))


def _png_unfilter(raw: np.ndarray, h: int, stride: int,
                  bpp: int) -> np.ndarray:
    """Reverse the per-scanline PNG filters (types 0-4).  Sub/Up are
    vectorized (uint8 accumulate wraps mod 256 — the PNG arithmetic);
    Average/Paeth walk pixels left-to-right (their recurrence) but
    vectorize over the pixel's byte lanes."""
    out = np.zeros((h, stride), np.uint8)
    prev = np.zeros(stride, np.uint8)
    pos = 0
    for y in range(h):
        ft = int(raw[pos])
        line = raw[pos + 1: pos + 1 + stride].copy()
        pos += 1 + stride
        if ft == 0:
            rec = line
        elif ft == 1:  # Sub: recon[x] = filt[x] + recon[x - bpp]
            rec = np.add.accumulate(
                line.reshape(-1, bpp), axis=0, dtype=np.uint8).reshape(-1)
        elif ft == 2:  # Up
            rec = line + prev
        elif ft in (3, 4):  # Average / Paeth: left-dependent
            rec = np.zeros(stride, np.uint8)
            zeros = np.zeros(bpp, np.int64)
            pl = prev.astype(np.int64)
            ln = line.astype(np.int64)
            for i in range(stride // bpp):
                s = i * bpp
                a = rec[s - bpp:s].astype(np.int64) if i else zeros
                b = pl[s:s + bpp]
                if ft == 3:
                    pred = (a + b) >> 1
                else:
                    cc = pl[s - bpp:s] if i else zeros
                    p = a + b - cc
                    pa, pb, pcc = np.abs(p - a), np.abs(p - b), np.abs(p - cc)
                    pred = np.where((pa <= pb) & (pa <= pcc), a,
                                    np.where(pb <= pcc, b, cc))
                rec[s:s + bpp] = ((ln[s:s + bpp] + pred) & 0xFF
                                  ).astype(np.uint8)
        else:
            raise ValueError(f"media: bad PNG filter type {ft}")
        out[y] = rec
        prev = rec
    return out


@quarantine_malformed
def decode_png(payload: bytes) -> np.ndarray:
    """Non-interlaced 8-bit PNG -> (h, w, c) uint8.  Gray (0),
    RGB (2), palette (3 — PLTE lookup, tRNS → RGBA), gray+alpha (4)
    and RGBA (6) color types; 16-bit and interlaced images raise
    loudly (-> quarantine).  Chunk CRCs are verified so corrupt
    payloads fail deterministically."""
    if payload[:8] != _PNG_SIG:
        raise ValueError("media: not a PNG payload")
    pos, ihdr, idat, plte, trns = 8, None, [], None, None
    while pos + 12 <= len(payload):
        ln, = struct.unpack_from(">I", payload, pos)
        typ = payload[pos + 4:pos + 8]
        data = payload[pos + 8:pos + 8 + ln]
        if len(data) < ln:
            raise ValueError("media: truncated PNG chunk")
        crc, = struct.unpack_from(">I", payload, pos + 8 + ln)
        if zlib.crc32(typ + data) & 0xFFFFFFFF != crc:
            raise ValueError("media: PNG chunk CRC mismatch")
        if typ == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", data)
        elif typ == b"PLTE":
            if ln % 3:
                raise ValueError("media: PNG PLTE length not divisible by 3")
            plte = np.frombuffer(data, np.uint8).reshape(-1, 3)
        elif typ == b"tRNS":
            trns = np.frombuffer(data, np.uint8)
        elif typ == b"IDAT":
            idat.append(data)
        elif typ == b"IEND":
            break
        pos += 12 + ln
    if ihdr is None or not idat:
        raise ValueError("media: PNG missing IHDR/IDAT")
    w, h, depth, ct, comp, filt, interlace = ihdr
    if (depth != 8 or comp != 0 or filt != 0 or interlace != 0
            or (ct not in _PNG_CHANNELS and ct != 3)):
        raise ValueError(
            f"media: unsupported PNG (depth {depth}, color type {ct}, "
            f"interlace {interlace}) — 8-bit non-interlaced "
            f"gray/RGB/palette/alpha only")
    c = 1 if ct == 3 else _PNG_CHANNELS[ct]
    try:
        raw = zlib.decompress(b"".join(idat))
    except zlib.error as exc:
        raise ValueError(f"media: PNG inflate failed ({exc})") from exc
    stride = w * c
    if len(raw) != h * (stride + 1):
        raise ValueError("media: PNG pixel data size mismatch")
    out = _png_unfilter(np.frombuffer(raw, np.uint8), h, stride,
                        c).reshape(h, w, c)
    if ct != 3:
        return out
    # palette lookup: indices -> RGB (+ alpha when tRNS present)
    if plte is None:
        raise ValueError("media: palette PNG missing PLTE chunk")
    idx = out[:, :, 0]
    if int(idx.max(initial=0)) >= len(plte):
        raise ValueError("media: PNG palette index out of range")
    rgb = plte[idx]
    if trns is None:
        return rgb
    alpha = np.full(len(plte), 255, np.uint8)
    alpha[: len(trns)] = trns
    return np.concatenate([rgb, alpha[idx][:, :, None]], axis=2)


def decode_raster(payload: bytes) -> np.ndarray:
    """Dispatch a REAL raster payload (PPM/BMP/PNG/JPEG) by magic."""
    if payload[:2] == b"P6":
        return decode_ppm(payload)
    if payload[:2] == b"BM":
        return decode_bmp(payload)
    if payload[:8] == _PNG_SIG:
        return decode_png(payload)
    if payload[:2] == b"\xFF\xD8":
        from pmocr_ray.ops.jpeg import decode_jpeg

        return decode_jpeg(payload)
    if payload[:6] in (b"GIF87a", b"GIF89a"):
        from pmocr_ray.ops.gif import decode_gif

        frames, _ = decode_gif(payload)
        first = frames[0]
        # fully-opaque single image -> RGB; transparency -> RGBA
        if (first[:, :, 3] == 255).all():
            return np.ascontiguousarray(first[:, :, :3])
        return first
    if payload[:4] in (b"II*\x00", b"MM\x00*"):
        from pmocr_ray.ops.tiff import decode_tiff

        return decode_tiff(payload)
    raise ValueError("media: unknown raster format")


def is_raster(payload: bytes) -> bool:
    return (payload[:2] in (b"P6", b"BM", b"\xFF\xD8")
            or payload[:8] == _PNG_SIG
            or payload[:6] in (b"GIF87a", b"GIF89a")
            or payload[:4] in (b"II*\x00", b"MM\x00*"))


def resize_nearest(arr: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Vectorized nearest-neighbor resize of an (h, w, c) array."""
    h, w = arr.shape[:2]
    ys = (np.arange(out_h) * h) // out_h
    xs = (np.arange(out_w) * w) // out_w
    return arr[ys][:, xs]


class MediaResizeStage:
    """Actor-pool resize over a binary media column: emits a NEW binary
    payload at the target dimensions plus typed out-dims metadata.

    The stub codec "resizes" by re-encoding the header and
    nearest-index-sampling the synthetic body (deterministic); a real
    deployment swaps in PIL/libvips behind the same signature.  Junk
    payloads produce null output + ``media_error`` per row — the stage
    never fails a task.
    """

    def __init__(self, column: str = "media", out_width: int = 64,
                 out_height: int = 48) -> None:
        if out_width < 1 or out_height < 1:
            # struct ">I" would fail per-batch with an opaque error
            raise ValueError(
                f"MediaResizeStage needs positive target dims "
                f"(got {out_width}x{out_height})")
        self.column = column
        self.out_width = out_width
        self.out_height = out_height

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.column].to_pylist()
        outs, widths, heights, sizes, errors = [], [], [], [], []
        for p in payloads:
            try:
                if is_raster(p or b""):
                    # REAL path: decode, vectorized nearest-neighbor
                    # resize, re-encode — PPM for 3-channel (the
                    # lossless raster interchange of this module),
                    # PNG for gray/alpha channel counts PPM can't hold
                    arr = resize_nearest(decode_raster(p), self.out_width,
                                         self.out_height)
                    out = (encode_ppm(arr) if arr.shape[2] == 3
                           else encode_png(arr))
                    outs.append(out)
                    widths.append(self.out_width)
                    heights.append(self.out_height)
                    sizes.append(len(out)); errors.append(None)
                    continue
                _, _, c = decode_header(p or b"")
                body = np.frombuffer((p or b"")[_HEADER.size:], dtype=np.uint8)
                n_out = min(self.out_width * self.out_height * c, 4096)
                if len(body):
                    idx = (np.arange(n_out) * len(body) // max(n_out, 1)
                           ) % len(body)
                    new_body = body[idx].tobytes()
                else:
                    new_body = b""
                out = _HEADER.pack(_MAGIC, self.out_width, self.out_height,
                                   c) + new_body
                outs.append(out)
                widths.append(self.out_width); heights.append(self.out_height)
                sizes.append(len(out)); errors.append(None)
            except ValueError as exc:
                outs.append(None); widths.append(None); heights.append(None)
                sizes.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
        drop = batch.drop_columns([self.column])
        return (
            drop.append_column("media", pa.array(outs, pa.binary()))
            .append_column("out_width", pa.array(widths, pa.int32()))
            .append_column("out_height", pa.array(heights, pa.int32()))
            .append_column("out_bytes", pa.array(sizes, pa.int64()))
            .append_column("media_error", pa.array(errors, pa.string()))
        )


_VMAGIC = b"FAKEVID1"
_VHEADER = struct.Struct(">8sIH")  # magic, n_frames, frame_size


def encode_fake_video(n_frames: int, frame_size: int = 64,
                      seed: int = 0) -> bytes:
    """Deterministic synthetic video payload: header + n fixed-size
    frames (seeded byte pattern per frame)."""
    frames = b"".join(
        bytes(((seed + f * 17 + i * 31) & 0xFF) for i in range(frame_size))
        for f in range(n_frames)
    )
    return _VHEADER.pack(_VMAGIC, n_frames, frame_size) + frames


def decode_video_header(payload: bytes) -> tuple[int, int]:
    if len(payload) < _VHEADER.size:
        raise ValueError("media: payload shorter than video header")
    magic, n, fs = _VHEADER.unpack_from(payload)
    if magic != _VMAGIC:
        raise ValueError("media: bad video magic (stub codec)")
    return n, fs


class FrameSampleStage:
    """Frame sampling over a binary video column — the flat-map-shaped
    media op: each input row emits one OUTPUT ROW PER SAMPLED FRAME
    (every ``step``-th frame), carrying the key columns alongside
    ``frame_idx`` + the frame's bytes.

    Implemented as a batch fn that builds the exploded table directly
    (cheaper than the per-row ``flat_map`` API — one Arrow allocation
    per batch).  Undecodable payloads contribute zero frames and one
    error row is NOT emitted here: frame sampling is a projection;
    feed quarantine from a decode stage upstream if errors must be
    kept.
    """

    def __init__(self, column: str = "media", key_column: str = "doc_id",
                 step: int = 3) -> None:
        if step < 1:  # range(0, n, 0) would fail per-batch
            raise ValueError(f"FrameSampleStage needs step >= 1 (got {step})")
        self.column = column
        self.key_column = key_column
        self.step = step

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.column].to_pylist()
        keys = batch[self.key_column].to_pylist()
        out_keys, out_idx, out_frames = [], [], []
        for key, p in zip(keys, payloads):
            if (p or b"")[:6] in (b"GIF87a", b"GIF89a"):
                # REAL path: animated GIF — composed RGB canvases
                from pmocr_ray.ops.gif import decode_gif

                try:
                    frames, _ = decode_gif(p)
                except ValueError:
                    continue
                for f in range(0, len(frames), self.step):
                    out_keys.append(key)
                    out_idx.append(f)
                    out_frames.append(
                        np.ascontiguousarray(
                            frames[f][:, :, :3]).tobytes())
                continue
            if (p or b"")[:9] == b"YUV4MPEG2":
                # REAL path: decoded Y4M luma frames
                try:
                    frames, _ = decode_y4m(p)
                except ValueError:
                    continue
                for f in range(0, frames.shape[0], self.step):
                    out_keys.append(key)
                    out_idx.append(f)
                    out_frames.append(frames[f].tobytes())
                continue
            try:
                n, fs = decode_video_header(p or b"")
            except ValueError:
                continue
            base = _VHEADER.size
            for f in range(0, n, self.step):
                out_keys.append(key)
                out_idx.append(f)
                out_frames.append(p[base + f * fs: base + (f + 1) * fs])
        return pa.table({
            self.key_column: pa.array(out_keys,
                                      batch[self.key_column].type),
            "frame_idx": pa.array(out_idx, pa.int32()),
            "frame": pa.array(out_frames, pa.binary()),
        })


class MediaDecodeStage:
    """Actor-pool decode/feature stage over a binary media column.

    ``__init__`` is where a real deployment loads the codec/model once
    per actor.  Emits typed metadata (width/height/channels/bytes) and a
    small feature vector (byte histogram head) per row; decode errors
    become per-row nulls + an ``error`` column, never task failures.

    Batch-size note: wide binary rows ⇒ small ``batch_size`` so
    batch × concurrency stays within worker heap (SURVEY §4 memory
    budgeting).
    """

    def __init__(self, column: str = "media", feature_dims: int = 8) -> None:
        self.column = column
        self.feature_dims = feature_dims

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.column].to_pylist()
        widths, heights, channels, sizes, feats, errors = [], [], [], [], [], []
        for p in payloads:
            sizes.append(len(p) if p is not None else 0)
            try:
                if is_raster(p or b""):
                    # REAL path: decoded pixel statistics as features
                    arr = decode_raster(p)
                    h, w, c = arr.shape
                    widths.append(w); heights.append(h); channels.append(c)
                    px = arr.reshape(-1, c).astype(np.float32) / 255.0
                    stat = np.concatenate([px.mean(axis=0), px.std(axis=0)])
                    feats.append(
                        stat[:self.feature_dims].tolist()
                        + [0.0] * max(0, self.feature_dims - len(stat)))
                    errors.append(None)
                    continue
                w, h, c = decode_header(p or b"")
                widths.append(w); heights.append(h); channels.append(c)
                body = np.frombuffer((p or b"")[_HEADER.size:], dtype=np.uint8)
                hist = np.bincount(body % self.feature_dims,
                                   minlength=self.feature_dims).astype(np.float32)
                total = hist.sum()
                feats.append((hist / total if total else hist).tolist())
                errors.append(None)
            except ValueError as exc:
                widths.append(None); heights.append(None); channels.append(None)
                feats.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
        drop = batch.drop_columns([self.column])  # payload consumed, not carried
        return (
            drop.append_column("width", pa.array(widths, pa.int32()))
            .append_column("height", pa.array(heights, pa.int32()))
            .append_column("channels", pa.array(channels, pa.int32()))
            .append_column("media_bytes", pa.array(sizes, pa.int64()))
            .append_column("features", pa.array(feats, pa.list_(pa.float32())))
            .append_column("media_error", pa.array(errors, pa.string()))
        )


# ---- audio: real WAV (RIFF/PCM s16le) codec + stages ----------------
#
# WAV with 16-bit PCM needs no external library: RIFF chunk walk +
# numpy frombuffer.  Like the raster path, the audio stages are REAL
# end-to-end for this format; compressed audio (mp3/ogg/flac) would
# register a decoder behind the same stage interface.

def encode_wav(samples: np.ndarray, sample_rate: int) -> bytes:
    """(n_samples,) or (n_samples, n_channels) int16 -> WAV bytes."""
    arr = np.asarray(samples, dtype=np.int16)
    if arr.ndim == 1:
        arr = arr[:, None]
    n, ch = arr.shape
    data = np.ascontiguousarray(arr).tobytes()
    block = ch * 2
    fmt = struct.pack("<HHIIHH", 1, ch, sample_rate,
                      sample_rate * block, block, 16)
    return (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data))
            + b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)


@quarantine_malformed
def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """WAV bytes -> ((n_samples, n_channels) int16, sample_rate).
    PCM s16le only; other codecs/depths raise loudly (-> quarantine).
    Walks RIFF chunks, skipping unknown ones (LIST/INFO etc.)."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("media: not a RIFF/WAVE payload")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(payload):
        cid = payload[pos:pos + 4]
        size, = struct.unpack_from("<I", payload, pos + 4)
        body = payload[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise ValueError("media: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise ValueError("media: WAV missing fmt/data chunk")
    audio_format, ch, rate, _, _, bits = fmt
    if audio_format == 1 and bits == 16:
        arr = np.frombuffer(data, dtype="<i2")
    elif audio_format == 7 and bits == 8:   # G.711 μ-law
        arr = _MULAW_TABLE[np.frombuffer(data, np.uint8)]
    elif audio_format == 6 and bits == 8:   # G.711 A-law
        arr = _ALAW_TABLE[np.frombuffer(data, np.uint8)]
    else:
        raise ValueError(
            f"media: only PCM s16 / G.711 u-law / A-law WAV supported "
            f"(got format {audio_format}, {bits}-bit)")
    if ch > 1:
        arr = arr[: (len(arr) // ch) * ch].reshape(-1, ch)
    else:
        arr = arr[:, None]
    return arr, rate


def _build_mulaw_table() -> np.ndarray:
    """G.711 μ-law byte -> int16 (classic CCITT expansion:
    ((mant·8 + 132) << exp) - 132, sign from the inverted byte)."""
    b = np.arange(256)
    u = (~b) & 0xFF
    exp = (u >> 4) & 7
    mant = u & 0xF
    mag = (((mant << 3) + 0x84) << exp) - 0x84
    return np.where(u & 0x80, -mag, mag).astype(np.int16)


def _build_alaw_table() -> np.ndarray:
    """G.711 A-law byte -> int16 (0x55-xor form; exp 0 is linear)."""
    b = np.arange(256)
    a = b ^ 0x55
    exp = (a >> 4) & 7
    mant = a & 0xF
    mag = np.where(exp == 0, (mant << 4) + 8,
                   ((mant << 4) + 0x108) << np.maximum(exp - 1, 0))
    return np.where(a & 0x80, mag, -mag).astype(np.int16)


_MULAW_TABLE = _build_mulaw_table()
_ALAW_TABLE = _build_alaw_table()


def encode_wav_g711(samples_u8: np.ndarray, sample_rate: int,
                    *, law: str = "mulaw") -> bytes:
    """Raw companded bytes -> single-channel G.711 WAV (format 7 for
    μ-law, 6 for A-law) — exists so the expansion path is testable
    and oracle-gated without a compressor."""
    data = np.ascontiguousarray(samples_u8, np.uint8).tobytes()
    code = 7 if law == "mulaw" else 6
    fmt = struct.pack("<HHIIHH", code, 1, sample_rate, sample_rate, 1, 8)
    return (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data))
            + b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)


def resample_nearest_audio(arr: np.ndarray, src_rate: int,
                           dst_rate: int) -> np.ndarray:
    """Nearest-index resample: same ``(dst * in) // out`` formula as
    the raster path, applied on the time axis."""
    n_in = arr.shape[0]
    n_out = (n_in * dst_rate) // src_rate
    if n_out == 0:
        return arr[:0]
    idx = (np.arange(n_out) * n_in) // n_out
    return arr[idx]


class AudioDecodeStage:
    """Actor-pool audio decode/feature stage over a binary WAV column.

    Emits typed metadata (sample_rate / n_samples / n_channels) plus
    INTEGER-exact signal statistics — sum |x|, sum x², zero crossings
    (sign-change count with x ≥ 0 as the sign rule) — which are
    SQL-recomputable for the arithmetic-payload gate query.  Junk
    rows produce nulls + ``media_error``, never task failures.
    """

    def __init__(self, column: str = "media") -> None:
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        rates, counts, chans = [], [], []
        sum_abs, sum_sq, zcr, errors = [], [], [], []
        for p in batch[self.column].to_pylist():
            try:
                arr, rate = decode_wav(p or b"")
                x = arr.astype(np.int64)
                rates.append(rate)
                counts.append(arr.shape[0]); chans.append(arr.shape[1])
                sum_abs.append(int(np.abs(x).sum()))
                sum_sq.append(int((x * x).sum()))
                nn = (arr >= 0)
                zcr.append(int((nn[1:] != nn[:-1]).sum()))
                errors.append(None)
            except ValueError as exc:
                rates.append(None); counts.append(None); chans.append(None)
                sum_abs.append(None); sum_sq.append(None); zcr.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
        drop = batch.drop_columns([self.column])
        return (
            drop.append_column("sample_rate", pa.array(rates, pa.int32()))
            .append_column("n_samples", pa.array(counts, pa.int64()))
            .append_column("n_channels", pa.array(chans, pa.int32()))
            .append_column("sum_abs", pa.array(sum_abs, pa.int64()))
            .append_column("sum_sq", pa.array(sum_sq, pa.int64()))
            .append_column("zero_crossings", pa.array(zcr, pa.int64()))
            .append_column("media_error", pa.array(errors, pa.string()))
        )


class AudioResampleStage:
    """Actor-pool nearest-index resample to ``target_rate``: new WAV
    payload + typed out metadata, per-row errors -> quarantine."""

    def __init__(self, column: str = "media",
                 target_rate: int = 8000) -> None:
        if target_rate < 1:
            raise ValueError(f"AudioResampleStage needs a positive "
                             f"target_rate (got {target_rate})")
        self.column = column
        self.target_rate = target_rate

    def __call__(self, batch: pa.Table) -> pa.Table:
        outs, rates, counts, sums, errors = [], [], [], [], []
        for p in batch[self.column].to_pylist():
            try:
                arr, rate = decode_wav(p or b"")
                res = resample_nearest_audio(arr, rate, self.target_rate)
                outs.append(encode_wav(res, self.target_rate))
                rates.append(self.target_rate)
                counts.append(res.shape[0])
                sums.append(int(res.astype(np.int64).sum()))
                errors.append(None)
            except ValueError as exc:
                outs.append(None); rates.append(None); counts.append(None)
                sums.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
        drop = batch.drop_columns([self.column])
        return (
            drop.append_column("media", pa.array(outs, pa.binary()))
            .append_column("out_rate", pa.array(rates, pa.int32()))
            .append_column("out_samples", pa.array(counts, pa.int64()))
            .append_column("sample_sum", pa.array(sums, pa.int64()))
            .append_column("media_error", pa.array(errors, pa.string()))
        )


# ---- video: real Y4M (YUV4MPEG2, mono colorspace) codec -------------
#
# YUV4MPEG2 with Cmono is raw luma frames behind a text header — fully
# decodable pure-numpy, so frame sampling is REAL for it too (the
# FAKEVID format keeps standing in for compressed containers).

def encode_y4m(frames: np.ndarray, fps: tuple[int, int] = (25, 1)) -> bytes:
    """(n_frames, h, w) uint8 luma -> YUV4MPEG2 Cmono bytes."""
    arr = np.ascontiguousarray(frames, dtype=np.uint8)
    n, h, w = arr.shape
    head = b"YUV4MPEG2 W%d H%d F%d:%d Ip A1:1 Cmono\n" % (w, h, *fps)
    body = b"".join(b"FRAME\n" + arr[f].tobytes() for f in range(n))
    return head + body


@quarantine_malformed
def decode_y4m(payload: bytes) -> tuple[np.ndarray, tuple[int, int]]:
    """YUV4MPEG2 Cmono bytes -> ((n_frames, h, w) uint8, (fps_n, fps_d)).
    Non-mono colorspaces raise loudly (4:2:0 would need chroma planes
    a sampling projection has no use for)."""
    nl = payload.find(b"\n")
    if nl < 0 or not payload.startswith(b"YUV4MPEG2"):
        raise ValueError("media: not a YUV4MPEG2 payload")
    w = h = None
    fps = (25, 1)
    mono = False
    for tok in payload[9:nl].split():
        if tok[:1] == b"W":
            w = int(tok[1:])
        elif tok[:1] == b"H":
            h = int(tok[1:])
        elif tok[:1] == b"F":
            a, b = tok[1:].split(b":")
            fps = (int(a), int(b))
        elif tok[:1] == b"C":
            mono = tok[1:] == b"mono"
    if w is None or h is None:
        raise ValueError("media: Y4M header missing W/H")
    if not mono:
        raise ValueError("media: only Cmono Y4M supported "
                         "(chroma-subsampled frames need a real codec)")
    fsize = w * h
    frames = []
    pos = nl + 1
    while pos < len(payload):
        fnl = payload.find(b"\n", pos)
        if fnl < 0 or payload[pos:pos + 5] != b"FRAME":
            raise ValueError("media: malformed Y4M frame marker")
        start = fnl + 1
        if start + fsize > len(payload):
            raise ValueError("media: truncated Y4M frame")
        frames.append(np.frombuffer(payload, np.uint8, fsize, start)
                      .reshape(h, w))
        pos = start + fsize
    return (np.stack(frames) if frames
            else np.zeros((0, h, w), np.uint8)), fps
