"""Pluggable extractor registry — the user-extension surface.

Reference parity: pmOCR supports any OCR engine via configuration
(``OCR_ENGINE`` + per-engine exec/args bundles,
/root/reference/pmocr.sh:1825-1852, default.conf:24-87); the engine is
resolved once at startup (``SetOCREngineOptions``).  Here an extractor
is a pure function ``bytes -> str`` keyed by content type in
:data:`EXTRACTORS`; the extraction stage
(:class:`pmocr_ray.stages.ExtractStage`) resolves the registry in its
``__init__``, a dict copy per batch; the state kept warm per worker
process is the broadcast done set, mirroring the long-lived engine
processes.
"""

from __future__ import annotations

from collections.abc import Callable

from pmocr_ray.extract.docx_extractor import extract_docx
from pmocr_ray.extract.xlsx_extractor import extract_xlsx
from pmocr_ray.extract.html_extractor import extract_html
from pmocr_ray.extract.pdf_extractor import extract_pdf
from pmocr_ray.schema import CT_DOCX, CT_HTML, CT_PDF, CT_XLSX

EXTRACTORS: dict[str, Callable[[bytes], str]] = {
    CT_HTML: extract_html,
    CT_PDF: extract_pdf,
    # the OPC containers (the docx and xlsx targets' inverses):
    # sniff_content_type tells them apart by their word/ or xl/ parts
    CT_DOCX: extract_docx,
    CT_XLSX: extract_xlsx,
}


# ----------------------------------------------------------- preprocessors
#
# The reference's optional payload preprocessor (OCR_PREPROCESSOR_EXEC /
# _ARGS, /root/reference/default.conf:92-99, applied per conversion at
# pmocr.sh:1906-1921) as a registry of named bytes-like -> bytes-like
# transforms.  Config selects them by name (``preprocessors=a,b``); the
# extraction stage resolves names in ``__init__``, once per batch.


def strip_bom(payload):
    """Drop a UTF-8 byte-order mark so the strict decoder accepts the
    payload (the most common preprocessing need for crawled text)."""
    if bytes(payload[:3]) == b"\xef\xbb\xbf":
        return payload[3:]
    return payload


def normalize_crlf(payload):
    """CRLF/CR -> LF (affects extracted whitespace normalization only
    through tokenization, which already collapses runs)."""
    return bytes(payload).replace(b"\r\n", b"\n").replace(b"\r", b"\n")


PREPROCESSORS: dict[str, Callable] = {
    "strip_bom": strip_bom,
    "normalize_crlf": normalize_crlf,
}


def resolve_preprocessors(specs) -> list[Callable]:
    """Names (registry lookup) or callables -> ordered callable list.
    Raises ``KeyError`` for an unknown name (config error, fail fast —
    the reference refuses to start on a broken preprocessor the same
    way, pmocr.sh:1913-1921)."""
    out: list[Callable] = []
    for s in specs or []:
        out.append(PREPROCESSORS[s] if isinstance(s, str) else s)
    return out
