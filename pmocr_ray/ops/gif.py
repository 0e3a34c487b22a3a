"""GIF codec — pure Python/numpy, no image libraries.

GIF87a/89a is LZW + palettes: fully decodable with bit twiddling, and
LOSSLESS, so unlike JPEG every decoded pixel is an exact function of
the payload — the ``media_gif_real`` oracle gates on exact pixel sums
over real LZW-coded bytes.  Scope:

* decode: variable-width LZW (3-12 bit codes, clear/EOI), global and
  local color tables, interlace (4-pass), multi-frame animations with
  per-frame graphic-control extensions — transparency composes over
  the canvas, disposal methods 0/1 (leave) and 2 (restore to
  background) are honored; 3 (restore previous) is refused loudly
  (rare, and silently approximating it would break the exactness
  contract).  The background is transparent: the canvas starts as
  zeros and disposal 2 clears its frame rect to zeros, the common
  browser convention; the logical-screen background color index is
  not used.
* encode: single- or multi-frame, one global 256-color palette, no
  interlace, literal-code LZW (a CLEAR is emitted whenever the next
  code width would grow past the literal range — valid LZW any
  decoder accepts; simple, deterministic, ~1 byte/pixel).

Like the other media codecs the entropy loop is per-payload work
inside an actor/task stage; errors raise ``ValueError`` → per-row
quarantine.
"""

from __future__ import annotations

import struct

import numpy as np

from pmocr_ray.ops.media import quarantine_malformed


# ------------------------------------------------------------- decode

class _LzwReader:
    """LSB-first bit reader over concatenated GIF data sub-blocks."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self.acc = 0
        self.nbits = 0

    def read(self, n: int) -> int:
        while self.nbits < n:
            if self.pos >= len(self.data):
                raise ValueError("media: GIF LZW data truncated")
            self.acc |= self.data[self.pos] << self.nbits
            self.pos += 1
            self.nbits += 8
        v = self.acc & ((1 << n) - 1)
        self.acc >>= n
        self.nbits -= n
        return v


def _lzw_decode(data: bytes, min_code_size: int, n_pixels: int) -> np.ndarray:
    """GIF LZW -> index array of exactly n_pixels entries."""
    if not 2 <= min_code_size <= 8:
        raise ValueError(f"media: bad GIF LZW min code size {min_code_size}")
    clear = 1 << min_code_size
    eoi = clear + 1
    r = _LzwReader(data)
    out = np.empty(n_pixels, np.uint8)
    n_out = 0

    def reset():
        return [bytes([i]) for i in range(clear)] + [b"", b""], \
            min_code_size + 1

    table, width = reset()
    prev: bytes | None = None
    while n_out < n_pixels:
        code = r.read(width)
        if code == clear:
            table, width = reset()
            prev = None
            continue
        if code == eoi:
            break
        if code < len(table):
            entry = table[code]
        elif code == len(table) and prev is not None:
            entry = prev + prev[:1]
        else:
            raise ValueError("media: GIF LZW code out of range")
        take = min(len(entry), n_pixels - n_out)
        out[n_out:n_out + take] = np.frombuffer(entry[:take], np.uint8)
        n_out += take
        if prev is not None and len(table) < 4096:
            table.append(prev + entry[:1])
            if len(table) == (1 << width) and width < 12:
                width += 1
        prev = entry
    if n_out < n_pixels:
        raise ValueError("media: GIF frame ended short of its pixel count")
    return out


_INTERLACE_PASSES = ((0, 8), (4, 8), (2, 4), (1, 2))


def _deinterlace(idx: np.ndarray, w: int, h: int) -> np.ndarray:
    rows = idx.reshape(h, w)
    out = np.empty_like(rows)
    src = 0
    for start, step in _INTERLACE_PASSES:
        for y in range(start, h, step):
            out[y] = rows[src]
            src += 1
    return out.reshape(-1)


@quarantine_malformed
def decode_gif(payload: bytes):
    """GIF bytes -> (frames, delays_cs): ``frames`` is a list of
    (h, w, 4) uint8 RGBA canvases (one per image block, composed in
    order), ``delays_cs`` the per-frame delay in centiseconds (0 when
    no graphic-control extension preceded the frame)."""
    if payload[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("media: not a GIF payload")
    w, h, flags = struct.unpack_from("<HHB2x", payload, 6)
    pos = 13
    gct = None
    if flags & 0x80:
        n = 2 << (flags & 7)
        gct = np.frombuffer(payload, np.uint8, n * 3, pos).reshape(-1, 3)
        pos += n * 3

    canvas = np.zeros((h, w, 4), np.uint8)     # transparent background
    frames: list[np.ndarray] = []
    delays: list[int] = []
    transparent: int | None = None
    disposal = 0
    delay = 0
    while pos < len(payload):
        b = payload[pos]
        pos += 1
        if b == 0x3B:                          # trailer
            break
        if b == 0x21:                          # extension
            label = payload[pos]
            pos += 1
            blocks = []
            while payload[pos] != 0:
                ln = payload[pos]
                blocks.append(payload[pos + 1: pos + 1 + ln])
                pos += 1 + ln
            pos += 1                           # block terminator
            if label == 0xF9 and blocks:       # graphic control
                gflags, delay = struct.unpack_from("<BH", blocks[0], 0)
                disposal = (gflags >> 2) & 7
                transparent = blocks[0][3] if gflags & 1 else None
                if disposal == 3:
                    raise ValueError(
                        "media: GIF disposal 'restore previous' unsupported")
            continue
        if b != 0x2C:                          # image descriptor expected
            raise ValueError(f"media: unexpected GIF block 0x{b:02x}")
        ix, iy, iw, ih, iflags = struct.unpack_from("<HHHHB", payload, pos)
        pos += 9
        pal = gct
        if iflags & 0x80:                      # local color table
            n = 2 << (iflags & 7)
            pal = np.frombuffer(payload, np.uint8, n * 3, pos).reshape(-1, 3)
            pos += n * 3
        if pal is None:
            raise ValueError("media: GIF frame has no color table")
        min_code = payload[pos]
        pos += 1
        data = bytearray()
        while payload[pos] != 0:
            ln = payload[pos]
            data += payload[pos + 1: pos + 1 + ln]
            pos += 1 + ln
        pos += 1
        idx = _lzw_decode(bytes(data), min_code, iw * ih)
        if iflags & 0x40:
            idx = _deinterlace(idx, iw, ih)
        if int(idx.max(initial=0)) >= len(pal):
            raise ValueError("media: GIF palette index out of range")
        idx2 = idx.reshape(ih, iw)
        rgba = np.concatenate(
            [pal[idx2], np.full((ih, iw, 1), 255, np.uint8)], axis=2)
        if transparent is not None:
            rgba[idx2 == transparent, 3] = 0
        region = canvas[iy:iy + ih, ix:ix + iw]
        opaque = rgba[:, :, 3] == 255
        region[opaque] = rgba[opaque]
        frames.append(canvas.copy())
        delays.append(delay)
        if disposal == 2:                      # restore to background (zeros)
            canvas[iy:iy + ih, ix:ix + iw] = 0
        transparent = None
        disposal = 0
        delay = 0
    if not frames:
        raise ValueError("media: GIF has no image blocks")
    return frames, delays


# ------------------------------------------------------------- encode

class _LzwWriter:
    """LSB-first bit writer emitting literal LZW codes with periodic
    CLEARs so the code width never grows past min_code_size+1."""

    def __init__(self, min_code_size: int) -> None:
        self.min = min_code_size
        self.width = min_code_size + 1
        self.clear = 1 << min_code_size
        self.eoi = self.clear + 1
        self.acc = 0
        self.nbits = 0
        self.out = bytearray()
        self.count = 0

    def _emit(self, code: int) -> None:
        self.acc |= code << self.nbits
        self.nbits += self.width
        while self.nbits >= 8:
            self.out.append(self.acc & 0xFF)
            self.acc >>= 8
            self.nbits -= 8

    def literal(self, value: int) -> None:
        # the decoder's table grows by one per emitted code after the
        # first; CLEAR before it would force a width bump
        if self.count == 0 or self.count >= (1 << self.width) - self.clear - 3:
            self._emit(self.clear)
            self.count = 0
        self._emit(value)
        self.count += 1

    def finish(self) -> bytes:
        self._emit(self.eoi)
        if self.nbits:
            self.out.append(self.acc & 0xFF)
        return bytes(self.out)


def encode_gif(frames, palette: np.ndarray,
               delays_cs=None, transparent: int | None = None,
               disposal: int = 0) -> bytes:
    """Index frames -> GIF89a bytes.  ``frames`` is one (h, w) uint8
    index array or a list of them (all full-canvas, same size);
    ``palette`` is (n≤256, 3) uint8 RGB; ``delays_cs`` optional
    per-frame centisecond delays.  ``transparent`` marks one palette
    index transparent and ``disposal`` sets the per-frame disposal
    method (both emitted in graphic-control extensions; mainly for
    decoder-path tests)."""
    if isinstance(frames, np.ndarray) and frames.ndim == 2:
        frames = [frames]
    frames = [np.asarray(f, np.uint8) for f in frames]
    palette = np.asarray(palette, np.uint8)
    if palette.ndim != 2 or palette.shape[1] != 3 or len(palette) > 256:
        raise ValueError("media: GIF palette must be (n<=256, 3) uint8")
    h, w = frames[0].shape
    if any(f.shape != (h, w) for f in frames):
        raise ValueError("media: GIF frames must share one canvas size")
    if max(int(f.max(initial=0)) for f in frames) >= len(palette):
        raise ValueError("media: GIF frame index exceeds palette")
    # palette size rounded up to a power of two >= 4 (spec minimum 2 bits)
    bits = max(2, int(np.ceil(np.log2(max(len(palette), 2)))))
    n_pal = 1 << bits
    pal = np.zeros((n_pal, 3), np.uint8)
    pal[: len(palette)] = palette

    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | ((bits - 1) & 7) << 4
                       | (bits - 1), 0, 0)
    out += pal.tobytes()
    for fi, f in enumerate(frames):
        if delays_cs is not None or transparent is not None or disposal:
            gflags = ((disposal & 7) << 2) | (transparent is not None)
            out += b"\x21\xF9\x04" + struct.pack(
                "<BHB", gflags,
                int(delays_cs[fi]) if delays_cs is not None else 0,
                transparent or 0) + b"\x00"
        out += b"\x2C" + struct.pack("<HHHHB", 0, 0, w, h, 0)
        min_code = max(2, bits)
        out.append(min_code)
        lzw = _LzwWriter(min_code)
        for v in f.reshape(-1):
            lzw.literal(int(v))
        data = lzw.finish()
        for off in range(0, len(data), 255):
            chunk = data[off:off + 255]
            out.append(len(chunk))
            out += chunk
        out.append(0)
    out += b"\x3B"
    return bytes(out)
