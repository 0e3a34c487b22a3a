"""Extraction engines + content sniffing.

The reference routes documents to an external OCR engine by extension
regex (/root/reference/default.conf:14) and invokes the engine per file
(/root/reference/pmocr.sh:1923-1963).  Here the router is magic-byte
content sniffing over the ``html`` binary column and the "engines" are
four deterministic pure-Python extractors:

  * :mod:`pmocr_ray.extract.html_extractor` — DOM boilerplate stripper
    (text-density / link-density scoring over an element tree).
  * :mod:`pmocr_ray.extract.pdf_extractor` — layout-stream text parser
    for PDF payloads (with an already-has-text-layer fast path).
  * :mod:`pmocr_ray.extract.docx_extractor` — paragraph text of a
    WordprocessingML (docx) container.
  * :mod:`pmocr_ray.extract.xlsx_extractor` — rows and cells of a
    SpreadsheetML (xlsx) container.

All four are pure functions of the payload bytes — no wall clock, no
randomness, no iteration-order dependence — so extracted text is
byte-identical per url at any parallelism (the conformance contract).
"""

from pmocr_ray.extract.sniff import sniff_content_type  # noqa: F401
from pmocr_ray.extract.html_extractor import extract_html  # noqa: F401
from pmocr_ray.extract.pdf_extractor import extract_pdf, pdf_has_text_layer  # noqa: F401
from pmocr_ray.extract.registry import EXTRACTORS  # noqa: F401
