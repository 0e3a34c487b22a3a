"""Multi-format target fan-out — one extraction pass, N derived outputs.

The reference converts each input to up to 5 output formats in a
per-target dispatch loop with per-format engine-argument bundles
(/root/reference/pmocr.sh:2546-2593; format bundles
default.conf:53-57,71-73,116-126 — pdf/txt/csv per-engine options).
Here a *target* is a named bundle of (derive-transform, writer,
writer-options); :func:`write_targets` runs the expensive extraction
exactly ONCE, lands the canonical ``text`` parquet, and derives every
other selected format by **re-reading the written text output** — a
streamed, much-smaller-than-input source — rather than re-running the
engine per format (the reference re-runs OCR per target; we do not).

Registry-shaped like the extractor registry (extension surface,
SURVEY §2.8): a user format is one more :data:`TARGETS` entry.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from collections.abc import Callable

import pyarrow as pa

import ray.data as rd


@dataclasses.dataclass(frozen=True)
class TargetSpec:
    """One output format: how to derive it and how to write it."""

    transform: Callable[[pa.Table], pa.Table] | None  # None = identity
    writer: str                                        # parquet | csv | json
    writer_kwargs: dict = dataclasses.field(default_factory=dict)
    columns: tuple[str, ...] | None = None             # projection, post-transform
    # columns the TRANSFORM consumes — pushed into the derived pass's
    # read_parquet so only those leave storage (None = read everything;
    # when transform is None the post-projection doubles as the input
    # set, so the read is pruned either way)
    input_columns: tuple[str, ...] | None = None


def _csv_transform(t: pa.Table) -> pa.Table:
    from pmocr_ray.stages import csv_hack

    return csv_hack(t)


def json_row_transform(t: pa.Table, columns: tuple[str, ...] = (
        "url", "status", "extracted_text")) -> pa.Table:
    """Append ``json_row`` — one compact JSON object per row (the JSONL
    line).  Compact separators + ensure_ascii=False match DuckDB's
    ``to_json(struct_pack(...))`` byte-for-byte so the format is
    oracle-checkable."""
    cols = {c: t[c].to_pylist() for c in columns}
    rows = [
        json.dumps({c: cols[c][i] for c in columns},
                   ensure_ascii=False, separators=(",", ":"))
        for i in range(t.num_rows)
    ]
    return t.append_column("json_row", pa.array(rows, pa.string()))


def pdf_transform(t: pa.Table) -> pa.Table:
    """Append ``pdf`` — a minimal searchable PDF rendering of the
    extracted text (the reference's PRIMARY target: pdf output with a
    text layer, pmocr.sh:2546-2560 / default.conf:53-55).  The builder
    is the exact inverse of :mod:`pmocr_ray.extract.pdf_extractor` for
    the engine's whitespace-normalized output (the PDF layout re-chunks
    words into Tj lines, so runs of whitespace collapse — unlike the
    docx/xlsx targets, whose _xHHHH_ escaping is lossless for ANY
    string): ``extract_pdf(pdf_transform(text)) == text`` per url,
    proved by the roundtrip test and the ``pdf_target_roundtrip`` gate
    query.  Rows with no extracted text (failed/quarantined) or empty
    text (no Tj operator to emit) get a null pdf."""
    from pmocr_ray.fixtures import build_pdf_page

    texts = t["extracted_text"].to_pylist()
    pdfs = [build_pdf_page(x, searchable=True) if x else None
            for x in texts]
    return t.append_column("pdf", pa.array(pdfs, pa.binary()))


def docx_transform(t: pa.Table) -> pa.Table:
    """Append ``docx`` — a minimal real WordprocessingML container
    (the reference's WORD target analogue, default.conf:56 / dispatch
    pmocr.sh:2546-2593).  Writer is the parser's exact inverse:
    ``extract_docx(docx_transform(text)) == text`` byte-for-byte,
    proved by the roundtrip test and the ``docx_target_roundtrip``
    gate query.  Rows with no extracted text get a null docx."""
    from pmocr_ray.extract.docx_extractor import build_docx

    texts = t["extracted_text"].to_pylist()
    docs = [build_docx(x) if x is not None else None for x in texts]
    return t.append_column("docx", pa.array(docs, pa.binary()))


def xlsx_transform(t: pa.Table) -> pa.Table:
    """Append ``xlsx`` — a minimal real SpreadsheetML container (the
    reference's EXCEL target analogue, default.conf:56-57 / dispatch
    pmocr.sh:2546-2593): one sheet row per line, one inline-string
    cell per ``;``-field (the CSV-hack delimiter, pmocr.sh:2013-2043).
    Writer is the parser's exact inverse:
    ``extract_xlsx(xlsx_transform(text)) == text`` byte-for-byte,
    proved by the roundtrip test and the ``xlsx_target_roundtrip``
    gate query.  Rows with no extracted text get a null xlsx."""
    from pmocr_ray.extract.xlsx_extractor import build_xlsx

    texts = t["extracted_text"].to_pylist()
    docs = [build_xlsx(x) if x is not None else None for x in texts]
    return t.append_column("xlsx", pa.array(docs, pa.binary()))


TARGETS: dict[str, TargetSpec] = {
    # canonical converted-document sink (reference: txt output file)
    "text": TargetSpec(transform=None, writer="parquet"),
    # the reference's primary pdf target (text-layer PDF per document)
    "pdf": TargetSpec(transform=pdf_transform, writer="parquet",
                      columns=("url", "status", "pdf"),
                      input_columns=("url", "status", "extracted_text")),
    # the reference's CSV hack (pmocr.sh:2013-2043) as a derived format,
    # written as real .csv files
    "csv": TargetSpec(transform=_csv_transform, writer="csv",
                      columns=("url", "status", "csv_text"),
                      input_columns=("url", "status", "extracted_text")),
    # JSONL — one object per line (write_json emits exactly that)
    "jsonl": TargetSpec(transform=None, writer="json",
                        columns=("url", "status", "extracted_text")),
    # the reference's WORD target analogue (structured document:
    # real minimal docx ZIP, one paragraph per line)
    "docx": TargetSpec(transform=docx_transform, writer="parquet",
                       columns=("url", "status", "docx"),
                       input_columns=("url", "status", "extracted_text")),
    # the reference's EXCEL target analogue (structured spreadsheet:
    # real minimal xlsx ZIP, one row per line, one cell per ;-field)
    "xlsx": TargetSpec(transform=xlsx_transform, writer="parquet",
                       columns=("url", "status", "xlsx"),
                       input_columns=("url", "status", "extracted_text")),
}


def write_targets(result_ds: rd.Dataset, out_dir: str,
                  targets: tuple[str, ...] | list[str] = ("text",)) -> dict[str, str]:
    """Write every selected target; returns {target: output_dir}.

    The extraction Dataset is consumed exactly once (the ``text``
    parquet write); derived formats stream from that parquet — at scale
    the text output is orders of magnitude smaller than the page corpus
    and each derived write is an independent, resumable map-only pass.
    ``text`` is always written (it is the source of the derived ones).

    Each per-target directory is CLEARED before its write: parquet/json
    writers add uniquely-named files, so re-running into a non-empty
    directory (the retry-after-crash case the derived passes exist
    for) would silently append a second copy of every row and feed the
    doubled text into every derived target.
    """
    unknown = [t for t in targets if t not in TARGETS]
    if unknown:
        raise KeyError(f"unknown targets {unknown!r}; known: {sorted(TARGETS)}")

    def _fresh(path: str) -> str:
        shutil.rmtree(path, ignore_errors=True)
        return path

    paths: dict[str, str] = {}
    text_dir = _fresh(os.path.join(out_dir, "text"))
    result_ds.write_parquet(text_dir)
    paths["text"] = text_dir

    for name in targets:
        if name == "text":
            continue
        spec = TARGETS[name]
        # prune at the read: only the transform's declared inputs (or,
        # for identity targets, the output projection itself) leave
        # storage — a 3-column jsonl target must not stream every
        # column of the text table
        read_cols = spec.input_columns or (
            spec.columns if spec.transform is None else None)
        ds = rd.read_parquet(
            text_dir, columns=list(read_cols) if read_cols else None)
        if spec.transform is not None:
            ds = ds.map_batches(spec.transform, batch_format="pyarrow")
        if spec.columns:
            ds = ds.select_columns(list(spec.columns))
        target_dir = _fresh(os.path.join(out_dir, name))
        getattr(ds, f"write_{spec.writer}")(target_dir, **spec.writer_kwargs)
        paths[name] = target_dir
    return paths
