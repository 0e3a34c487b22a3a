"""Per-row conversion state machine — shared by oracle and pipeline.

This is the reference's per-file ``OCR()`` operator
(/root/reference/pmocr.sh:1854-2109) plus its dispatch-time skip
predicates (pmocr.sh:2126-2180) as one pure function over a row:

    done-manifest skip      (_OCR suffix exclusion, pmocr.sh:2126-2131)
    already-has-text skip   (pdffonts predicate,    pmocr.sh:2162-2165)
    engine invocation       (pmocr.sh:1923-1963)
    retry once, then quarantine with truncated error
                            (postpone-retry pmocr.sh:814-818,1133-1193;
                             _OCR_ERR quarantine pmocr.sh:1999-2011;
                             16 KiB error truncation pmocr.sh:1054,1983)

The attempt budget is decided here and nowhere else: a fresh row gets
``S.MAX_ATTEMPTS`` (retry once), a ``--retry-failed`` re-drive resumes
its carried counter up to the lifetime ``S.MAX_TOTAL_ATTEMPTS``
(maxPostponeRetries=3, pmocr.sh:814-818), and a carried counter
outranks the done-skip.

Both the single-process golden oracle and the distributed extract
stage call exactly this function, so distribution can only change
scheduling, never results.
"""

from __future__ import annotations

from pmocr_ray import schema as S
from pmocr_ray.extract.pdf_extractor import pdf_has_text_layer
from pmocr_ray.extract.registry import EXTRACTORS
from pmocr_ray.extract.sniff import sniff_content_type


def truncate_error(msg: str) -> str:
    """Reference truncates captured engine output to 16 KiB
    (head -c16384, /root/reference/pmocr.sh:1054)."""
    return msg[: S.ERROR_TRUNCATE_BYTES]


def process_row(
    payload: bytes,
    pre_text: str | None,
    is_done: bool,
    extractors: dict | None = None,
    check_existing_text: bool = True,
    max_payload_bytes: int | None = None,
    prior_attempts: int = 0,
    preprocessors: list | None = None,
) -> tuple[str, str, int, str | None, str | None]:
    """Run one row through sniff -> skip predicates -> engine -> state.

    Returns ``(content_type, status, attempts, error, extracted_text)``.
    Pure function of the inputs (byte-identical at any parallelism).
    ``payload`` may be any bytes-like view (``bytes`` or a zero-copy
    ``memoryview`` into an Arrow buffer — the hot path passes views).

    ``max_payload_bytes`` is the per-row resource guard standing in for
    the reference's per-task soft/hard timeouts (ExecTasks,
    /root/reference/pmocr.sh:1004-1038): a wall-clock kill would be
    nondeterministic under distribution, so the guard is a deterministic
    size cap — an oversize payload quarantines without being parsed.

    ``prior_attempts`` carries a quarantined row's attempt count into a
    ``--retry-failed`` re-drive: the engine loop resumes at
    ``prior_attempts + 1`` and runs up to the lifetime budget
    ``S.MAX_TOTAL_ATTEMPTS`` instead of ``S.MAX_ATTEMPTS`` — the
    reference's postpone-retry counter
    (/root/reference/pmocr.sh:814-818,1133-1193).

    ``preprocessors`` is an ordered list of ``bytes-like -> bytes-like``
    transforms applied to a row that is not done-skipped, BEFORE
    routing and extraction (the reference pipes the intermediary
    through ``OCR_PREPROCESSOR_EXEC`` per conversion,
    pmocr.sh:1906-1921, default.conf:92-99; our router is content-based
    rather than extension-based, so normalization must precede the
    sniff).  A preprocessor exception is a data failure ->
    quarantine (deterministic, so it is not retried).
    """
    if is_done and not prior_attempts:
        # Previously processed -> never reprocessed, nor preprocessed
        # (idempotent restart; the reference never opens a done file).
        # A --retry-failed re-drive is in the done manifest too, as
        # failed: its carried counter marks it for the engine.
        return sniff_content_type(payload), S.STATUS_SKIPPED_SUFFIX, 0, None, None

    extractors = extractors if extractors is not None else EXTRACTORS
    if preprocessors:
        try:
            for pp in preprocessors:
                payload = pp(payload)
        except Exception as exc:
            return (sniff_content_type(payload), S.STATUS_FAILED, 0,
                    truncate_error(f"preprocessor: {type(exc).__name__}: {exc}"),
                    None)
    content_type = sniff_content_type(payload)

    if check_existing_text and content_type == S.CT_PDF and (
        (pre_text is not None and pre_text != "") or pdf_has_text_layer(payload)
    ):
        # PDF already carries a text layer: skip the engine entirely,
        # surfacing any pre-existing text (cheap check before the heavy
        # stage — the reference hoisted this pre-dispatch in v1.8.0,
        # /root/reference/CHANGELOG.md:15).
        return content_type, S.STATUS_SKIPPED_TEXT, 0, None, pre_text or None

    if max_payload_bytes is not None and len(payload) > max_payload_bytes:
        return (
            content_type,
            S.STATUS_FAILED,
            0,
            truncate_error(
                f"guard: payload {len(payload)} bytes exceeds cap {max_payload_bytes}"
            ),
            None,
        )

    extractor = extractors.get(content_type)
    if extractor is None:
        return (
            content_type,
            S.STATUS_FAILED,
            0,
            truncate_error(f"router: no extractor registered for {content_type!r}"),
            None,
        )

    max_attempts = S.MAX_TOTAL_ATTEMPTS if prior_attempts else S.MAX_ATTEMPTS
    error: str | None = None
    for attempt in range(prior_attempts + 1, max_attempts + 1):
        try:
            extracted = extractor(payload)
        except Exception as exc:  # data failure -> quarantine, not task crash
            error = truncate_error(f"{type(exc).__name__}: {exc}")
            continue
        return content_type, S.STATUS_DONE, attempt, None, extracted
    if error is None:  # pragma: no cover - defensive: exhausted budget upstream
        error = truncate_error(
            f"guard: retry budget exhausted ({prior_attempts}/{max_attempts})")
    return content_type, S.STATUS_FAILED, max(prior_attempts, max_attempts), error, None
