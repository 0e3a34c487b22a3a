"""Unit tests for the extraction engines (Ray-free).

Mirrors the reference's per-target assertions over its 4-file corpus
(/root/reference/dev/tests/run_tests.sh:165-314): ordinary documents
convert, the searchable PDF is detected, broken input fails loudly.
"""

import pytest

from pmocr_ray.extract import (
    extract_html,
    extract_pdf,
    pdf_has_text_layer,
    sniff_content_type,
)
from pmocr_ray.fixtures import (
    POISON_HTML,
    POISON_PDF,
    build_html_page,
    build_pdf_page,
)

TEXT = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi"


class TestSniff:
    def test_pdf_magic(self):
        assert sniff_content_type(b"%PDF-1.4\nrest") == "pdf"

    def test_html_doctype(self):
        assert sniff_content_type(b"<!DOCTYPE html><html>") == "html"

    def test_html_leading_whitespace(self):
        assert sniff_content_type(b"  \n\t <html><body>") == "html"

    def test_unknown(self):
        assert sniff_content_type(b"\x89PNG\r\n") == "unknown"
        assert sniff_content_type(b"") == "unknown"

    def test_opc_containers(self):
        from pmocr_ray.extract.docx_extractor import build_docx
        from pmocr_ray.extract.xlsx_extractor import build_xlsx

        assert sniff_content_type(build_docx("hello")) == "docx"
        assert sniff_content_type(build_xlsx("a;b")) == "xlsx"
        # bare (non-OPC) zip prefix stays unknown
        assert sniff_content_type(b"PK\x03\x04\x14\x00junk") == "unknown"

    def test_vectorized_matches_scalar_on_opc(self):
        import pyarrow as pa

        from pmocr_ray.extract.docx_extractor import build_docx
        from pmocr_ray.extract.sniff import sniff_batch
        from pmocr_ray.extract.xlsx_extractor import build_xlsx

        payloads = [b"%PDF-1.4\nx", build_docx("d"), b"<html>",
                    build_xlsx("x"), b"PK\x03\x04zz", b"\x89PNG", b""]
        col = pa.array(payloads, pa.binary())
        got = sniff_batch(col).to_pylist()
        assert got == [sniff_content_type(p) for p in payloads]
        assert got == ["pdf", "docx", "html", "xlsx",
                       "unknown", "unknown", "unknown"]

    def test_opc_routes_through_state_machine(self):
        """An OPC payload extracts end-to-end: sniff -> registry ->
        done row with the exact original text."""
        from pmocr_ray.extract.registry import EXTRACTORS
        from pmocr_ray.extract.xlsx_extractor import build_xlsx
        from pmocr_ray.state_machine import process_row

        ct, status, attempts, err, text = process_row(
            build_xlsx("cell a;cell b\nrow 2"), pre_text=None,
            is_done=False, extractors=EXTRACTORS)
        assert (ct, status) == ("xlsx", "done")
        assert text == "cell a;cell b\nrow 2"


class TestHtmlExtractor:
    @pytest.mark.parametrize("variant", [0, 1, 2])
    def test_recovers_article_exactly(self, variant):
        page = build_html_page(TEXT, site=42, lang="en", variant=variant, giant=False)
        assert extract_html(page) == TEXT

    def test_giant_page(self):
        page = build_html_page(TEXT, site=1, lang="en", variant=0, giant=True)
        out = extract_html(page)
        assert out == " ".join([TEXT] * 200)

    def test_boilerplate_stripped(self):
        page = build_html_page(TEXT, site=7, lang="en", variant=2, giant=False)
        out = extract_html(page)
        for chrome_word in ("politics", "newsletter", "privacy", "subscriber"):
            assert chrome_word not in out

    def test_entities_unescaped(self):
        html = b"<html><body><nav><a href='/'>x</a></nav><div><p>a &amp; b &lt;c&gt;</p></div></body></html>"
        assert extract_html(html) == "a & b <c>"

    def test_script_style_skipped(self):
        html = (b"<html><body><div><p>real words here</p>"
                b"<script>var x = 'fake words';</script>"
                b"<style>.c{content:'nope'}</style></div></body></html>")
        assert extract_html(html) == "real words here"

    def test_invalid_utf8_raises(self):
        with pytest.raises(UnicodeDecodeError):
            extract_html(POISON_HTML)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            extract_html(b"<html><body></body></html>")

    def test_misnested_markup_tolerated(self):
        html = b"<html><body><div><p>one <b>two</p> three</div></body></html>"
        assert "one two" in extract_html(html)

    def test_deterministic(self):
        page = build_html_page(TEXT, site=3, lang="fr", variant=1, giant=False)
        assert extract_html(page) == extract_html(page)

    # Leaf elements (<tag>text</tag>) and their near misses.  The short
    # leading link makes the <p> win only when it holds all the
    # non-link text, so each output shows where the <p> was closed.
    @pytest.mark.parametrize("html, expected", [
        # a close of another case still closes the element
        (b"<div><a>l</a><P>upper open</p></div>", "upper open"),
        # '_' ends a tag name, '-' and letters continue it
        (b"<div><a>l</a><p>one</p_x> two</p></div>", "l one two"),
        (b"<div><a>l</a><p>alpha</px> beta</p></div>", "alpha beta"),
        (b"<div><a>l</a><p>gamma</p-x> delta</p></div>", "gamma delta"),
        # a raw-text element ends only at a close its end pattern knows
        (b"<div><p>kept<script>x</script_x> lost</script> after</p></div>",
         "kept after"),
        (b"<div><a>l</a><p>a <br>b</br> c</p></div>", "a b c"),
        # a self-closing <p/> opens nothing: its "close" ends the outer <p>
        (b"<p>outer <p/>inner</p> tail words here</p>", "outer inner"),
        (b'<div><a>l</a><p title="</p>">quoted close</p></div>',
         "quoted close"),
        (b"<div><a>l</a><p data-x='a>b'>quoted gt</p></div>", "quoted gt"),
        # a link inside a link: the outer one still counts its tail
        (b"<div><a>nav <a>inner</a> more words here</a><p>body text</p>"
         b"</div>", "body text"),
        # closes with no '>' after them are text
        (b"<div><a>l</a><p>x </p </p </p", "x < /p < /p < /p"),
    ])
    def test_leaf_elements(self, html, expected):
        assert extract_html(html) == expected


class TestPdfExtractor:
    def test_recovers_text_exactly(self):
        page = build_pdf_page(TEXT, searchable=False)
        assert extract_pdf(page) == TEXT

    def test_text_layer_predicate(self):
        assert pdf_has_text_layer(build_pdf_page(TEXT, searchable=True))
        assert not pdf_has_text_layer(build_pdf_page(TEXT, searchable=False))

    def test_escaped_pdf_strings(self):
        page = build_pdf_page("with (parens) and \\ backslash", searchable=False)
        assert extract_pdf(page) == "with (parens) and \\ backslash"

    def test_poison_raises(self):
        with pytest.raises(ValueError):
            extract_pdf(POISON_PDF)

    def test_non_pdf_raises(self):
        with pytest.raises(ValueError):
            extract_pdf(b"not a pdf at all")

    def test_no_text_operators_raises(self):
        with pytest.raises(ValueError):
            extract_pdf(b"%PDF-1.4\nstream\nnothing here\nendstream")


class TestHtmlExtractorEdgeCases:
    def test_cdata_and_pi_skipped(self):
        html = (b"<html><body><?php echo 'x'; ?><![CDATA[ raw cdata ]]>"
                b"<div><p>visible words only</p></div></body></html>")
        assert extract_html(html) == "visible words only"

    def test_comment_with_fake_tags_skipped(self):
        html = (b"<html><body><!-- <p>ghost words</p> -->"
                b"<div><p>actual content here</p></div></body></html>")
        assert extract_html(html) == "actual content here"

    def test_unterminated_comment_swallows_rest(self):
        html = b"<html><body><p>kept words</p><!-- never closed <p>lost</p>"
        assert extract_html(html) == "kept words"

    def test_deeply_nested_containers(self):
        inner = b"<p>deep content words</p>"
        html = b"<html><body>" + b"<div>" * 30 + inner + b"</div>" * 30 + b"</body></html>"
        assert extract_html(html) == "deep content words"

    def test_self_closing_container_no_content(self):
        html = b"<html><body><div/><p>after self close</p></body></html>"
        assert "after self close" in extract_html(html)

    def test_raw_text_end_tag_case_insensitive(self):
        html = (b"<html><body><script>var a=1;</SCRIPT>"
                b"<p>post script words</p></body></html>")
        assert extract_html(html) == "post script words"

    def test_attr_quoted_gt_does_not_break_tag(self):
        html = (b'<html><body><div data-x="a>b"><p>quoted attr safe</p>'
                b"</div></body></html>")
        assert extract_html(html) == "quoted attr safe"

    def test_multibyte_utf8_content(self):
        html = ("<html><body><div><p>café naïve 中文 words"
                "</p></div></body></html>").encode("utf-8")
        assert extract_html(html) == "café naïve 中文 words"


# ------------------------------------------------------------- tables


def test_extract_tables_basic_grid():
    from pmocr_ray.extract.table_extractor import extract_tables

    html = ("<table><tr><td>a</td><td>b</td></tr>"
            "<tr><th>c</th><td> d  e </td></tr></table>")
    assert extract_tables(html) == [
        (0, 0, 0, "a"), (0, 0, 1, "b"), (0, 1, 0, "c"), (0, 1, 1, "d e")]


def test_extract_tables_multiple_and_entities():
    from pmocr_ray.extract.table_extractor import extract_tables

    html = ("<p>x</p><TABLE class='z'><tr><td>A&amp;B</td></tr></TABLE>"
            "<table><tr><td><b>bold</b> text</td></tr></table>")
    assert extract_tables(html) == [
        (0, 0, 0, "A&B"), (1, 0, 0, "bold text")]


def test_extract_tables_malformed_degrades():
    from pmocr_ray.extract.table_extractor import extract_tables

    # unclosed cells/rows flush at the next structural tag; text
    # outside any table is ignored
    html = "<table><tr><td>a<td>b<tr><td>c</table>trailing"
    assert extract_tables(html) == [
        (0, 0, 0, "a"), (0, 0, 1, "b"), (0, 1, 0, "c")]
    assert extract_tables("no tables here") == []
    assert extract_tables("<td>orphan</td>") == []


def test_table_cells_explode(ray_session):
    import pyarrow as pa

    from pmocr_ray.extract.table_extractor import table_cells

    batch = pa.table({
        "doc_id": pa.array([7, 8], pa.int64()),
        "html": ["<table><tr><td>x</td></tr></table>", None],
    })
    out = table_cells(batch)
    assert out.to_pylist() == [{"doc_id": 7, "table_idx": 0,
                                "row_idx": 0, "col_idx": 0, "cell": "x"}]
