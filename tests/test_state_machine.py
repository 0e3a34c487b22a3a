"""State machine unit tests — the skip / retry-once / quarantine logic.

Reference parity: done-suffix exclusion (pmocr.sh:2126-2131), pdffonts
skip (pmocr.sh:2162-2165), retry + _OCR_ERR quarantine
(pmocr.sh:1999-2011), 16 KiB error truncation (pmocr.sh:1054).
"""

from pmocr_ray import schema as S
from pmocr_ray.fixtures import POISON_PDF, build_html_page, build_pdf_page
from pmocr_ray.state_machine import process_row, truncate_error

TEXT = "one two three four five six seven eight nine ten eleven twelve thirteen"
HTML = build_html_page(TEXT, site=1, lang="en", variant=0, giant=False)
PDF = build_pdf_page(TEXT, searchable=False)
PDF_SEARCHABLE = build_pdf_page(TEXT, searchable=True)


def test_html_done():
    ct, status, attempts, error, text = process_row(HTML, None, False)
    assert (ct, status, attempts, error, text) == ("html", "done", 1, None, TEXT)


def test_pdf_done():
    ct, status, attempts, error, text = process_row(PDF, None, False)
    assert (ct, status, attempts, error, text) == ("pdf", "done", 1, None, TEXT)


def test_done_manifest_skip_short_circuits():
    """A done row is never parsed — even a poison payload sails through."""
    ct, status, attempts, error, text = process_row(POISON_PDF, None, True)
    assert status == S.STATUS_SKIPPED_SUFFIX
    assert attempts == 0 and error is None and text is None


def test_existing_text_skip_by_column():
    ct, status, attempts, error, text = process_row(PDF, "pre-extracted", False)
    assert status == S.STATUS_SKIPPED_TEXT
    assert text == "pre-extracted" and attempts == 0


def test_existing_text_skip_by_font_marker():
    ct, status, attempts, error, text = process_row(PDF_SEARCHABLE, None, False)
    assert status == S.STATUS_SKIPPED_TEXT
    assert attempts == 0


def test_html_with_pre_text_still_extracted():
    """The pdffonts predicate applies to PDFs only (CHECK_PDF semantics)."""
    ct, status, attempts, error, text = process_row(HTML, "ignored", False)
    assert status == S.STATUS_DONE and text == TEXT


def test_poison_retry_once_then_quarantine():
    ct, status, attempts, error, text = process_row(POISON_PDF, None, False)
    assert status == S.STATUS_FAILED
    assert attempts == S.MAX_ATTEMPTS == 2
    assert error.startswith("ValueError:") and text is None


def test_unknown_type_quarantined_without_attempt():
    ct, status, attempts, error, text = process_row(b"\x89PNG\r\n", None, False)
    assert ct == "unknown" and status == S.STATUS_FAILED and attempts == 0
    assert "no extractor" in error


def test_error_truncated_to_16k():
    assert len(truncate_error("x" * 100_000)) == S.ERROR_TRUNCATE_BYTES


def test_custom_extractor_registry():
    """User-extension surface: swap the engine per content type
    (reference: OCR_ENGINE config, default.conf:24-87)."""
    my = {"html": lambda b: "custom"}
    ct, status, attempts, error, text = process_row(HTML, None, False, extractors=my)
    assert text == "custom" and status == "done"


def test_done_row_is_not_preprocessed():
    """The done-skip comes first: a done url never reaches the
    preprocessors (the reference never opens a done file), so a raising
    one cannot quarantine it; the content type is the stored payload's."""
    def boom(payload):
        raise RuntimeError("engine broken")

    ct, status, attempts, error, text = process_row(
        PDF, None, True, preprocessors=[boom])
    assert (ct, status, attempts, error, text) == (
        "pdf", S.STATUS_SKIPPED_SUFFIX, 0, None, None)
    # a row that is not done still fails on the preprocessor
    ct, status, attempts, error, text = process_row(
        PDF, None, False, preprocessors=[boom])
    assert status == S.STATUS_FAILED and error.startswith("preprocessor:")


def test_redrive_wins_over_done_record():
    """A --retry-failed re-drive is in the done manifest too: a carried
    counter sends the row to the engine instead of the done-skip."""
    ct, status, attempts, error, text = process_row(
        HTML, None, True, prior_attempts=S.MAX_ATTEMPTS)
    assert (ct, status, attempts, error, text) == (
        "html", S.STATUS_DONE, S.MAX_TOTAL_ATTEMPTS, None, TEXT)
    ct, status, attempts, error, text = process_row(
        POISON_PDF, None, True, prior_attempts=S.MAX_ATTEMPTS)
    assert status == S.STATUS_FAILED and attempts == S.MAX_TOTAL_ATTEMPTS
