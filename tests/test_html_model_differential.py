"""Differential oracle for the fused HTML kernel.

The production extractor (`pmocr_ray.extract.html_extractor.extract_html`)
is a single fused loop whose element accounting runs on GLOBAL counters
and a stack of (start-index) snapshots — the part that every round's
kernel optimization touches.  This module re-implements the SAME
semantics with the opposite state discipline: every open element owns
its OWN word/link lists (O(depth x words), obviously correct, no index
arithmetic), and the two implementations are asserted byte-identical —
on corpus-shaped pages from the fixture generator AND on
hypothesis-generated adversarial markup (misnesting, stray closes,
entities, raw-text islands, self-closing candidates, comments/PI/CDATA,
stray '<', leaf elements with mismatched-case or name-continuing
closes, and closes with no '>' after them).

The model has its own tokenizer: a frozen copy of the kernel's
original token regex, one token per tag (1=close, 2 and 3=open,
4=text), with no leaf elements, no consumed trailing whitespace and no
tail pattern.  So a change to the kernel's tokenizer (fusing tags into
one token, restarting past the last '>') is checked here against the
plain tag-by-tag reading of the same document; only the element
vocabularies and the raw-text end patterns are shared.  The model
splits every text run into words; the kernel keeps runs whole and
counts and normalizes them in C, so the text alphabet below carries
every whitespace class on both sides of that ASCII / non-ASCII
boundary.

Reference parity: the reference proves its engine wrapper against known
documents (/root/reference/dev/tests/run_tests.sh:165-314); this is the
same idea with a generative corpus and an independent model.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmocr_ray.extract.html_extractor import (
    _CANDIDATES,
    _RAW_END,
    _SKIP_CONTENT,
    _VOID,
    extract_html,
)
from pmocr_ray.fixtures import build_html_page

# The kernel's tokenizer before leaf elements were fused, kept as is:
# one token per tag.  ``m.lastindex``: 1=close, 3=open, 4=text,
# None=markup or whitespace-only run.
_MODEL_TOKEN_RE = re.compile(
    r"""<!--.*?(?:-->|$)                    # comment
      | <!\[CDATA\[.*?(?:\]\]>|$)           # cdata
      | <![^>]*>?                           # doctype / declaration
      | <\?[^>]*>?                          # processing instruction
      | </\s*([a-zA-Z][a-zA-Z0-9:-]*)[^>]*> # closing tag   -> group 1
      | <([a-zA-Z][a-zA-Z0-9:-]*)           # opening tag   -> group 2
          ((?:"[^"]*"|'[^']*'|[^>"']+)*)    #   attrs       -> group 3
        >?
      | \s+(?=<|\Z)                         # whitespace-only run
      | ([^<]+|<)                           # text run or stray '<' -> 4
    """,
    re.VERBOSE | re.DOTALL,
)


def extract_html_model(payload) -> str:
    """Tree-discipline re-implementation of the extractor's semantics."""
    from html import unescape

    text = str(payload, "utf-8", "strict")

    class Node:
        __slots__ = ("tag", "words", "link_words")

        def __init__(self, tag: str) -> None:
            self.tag = tag
            self.words: list[str] = []
            self.link_words: list[str] = []

    stack = [Node("#root")]
    link_depth = 0
    best_score = None
    best_words: list[str] | None = None

    def close_node(node: Node) -> None:
        nonlocal best_score, best_words
        if node.tag in _CANDIDATES:
            tl = sum(len(w) for w in node.words)
            if tl > 0:
                ll = sum(len(w) for w in node.link_words)
                score = (tl - ll) * (1.0 - ll / tl)
                if best_score is None or score > best_score:
                    best_score = score
                    best_words = list(node.words)

    pos = 0
    n = len(text)
    while pos < n:
        restart = False
        for m in _MODEL_TOKEN_RE.finditer(text, pos):
            li = m.lastindex
            if li is None:  # markup or whitespace-only run: no words
                continue
            if li == 4:  # text run (or stray '<' treated as text)
                tok = m.group(4)
                ws = (unescape(tok) if "&" in tok else tok).split()
                if ws:
                    for node in stack:  # every open element owns them
                        node.words.extend(ws)
                        if link_depth:
                            node.link_words.extend(ws)
            elif li >= 2:  # opening tag
                tag = m.group(2).lower()
                if tag in _VOID:
                    continue
                if tag in _SKIP_CONTENT:
                    close = _RAW_END[tag].search(text, m.end())
                    pos = close.end() if close else n
                    restart = True
                    break
                attrs = m.group(3)
                if attrs and attrs.rstrip().endswith("/"):
                    continue
                if tag == "a":
                    link_depth += 1
                stack.append(Node(tag))
            else:  # closing tag
                tag = m.group(1).lower()
                if tag in _VOID or tag in _SKIP_CONTENT:
                    continue
                if tag == "a" and link_depth > 0:
                    link_depth -= 1
                idx = 0
                for i in range(len(stack) - 1, 0, -1):
                    if stack[i].tag == tag:
                        idx = i
                        break
                if idx == 0:  # stray close: ignored
                    continue
                while len(stack) > idx:
                    close_node(stack.pop())
        if not restart:
            break

    while len(stack) > 1:
        close_node(stack.pop())

    if best_words is None:
        raise ValueError("html extractor: no visible text content found")
    return " ".join(best_words)


def _outcome(fn, payload):
    try:
        return ("ok", fn(payload))
    except Exception as e:  # noqa: BLE001 - exception parity is the point
        return ("err", type(e).__name__)


def assert_parity(payload: bytes) -> None:
    assert _outcome(extract_html, payload) == _outcome(
        extract_html_model, payload)


# ---------------------------------------------------------------- corpus


@pytest.mark.parametrize("variant", range(3))
@pytest.mark.parametrize("giant", [False, True])
def test_fixture_pages_match_model(variant, giant):
    for site in range(6):
        payload = build_html_page(
            "The quick brown fox jumps over the lazy dog. " * (site + 1)
            + "Reach & teach <markup> survivors at large.",
            site=site, lang="en", variant=variant, giant=giant)
        assert_parity(payload)


# ------------------------------------------------------------ adversarial

_TAGS = sorted(_CANDIDATES) + ["a", "span", "nav", "br", "img", "script",
                               "style", "b"]
# the whitespace characters straddle the kernel's two counting paths:
# ASCII separators ``bytes.split`` misses (\x1c-\x1f) and non-ASCII ones
_text_frag = st.text(
    alphabet=st.sampled_from(list(
        "ab <>&;#x1!\"'= \t\né世"
        "\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u3000")),
    max_size=24)


_LEAF_TAGS = ["p", "P", "a", "A", "li", "div", "span", "b", "td", "br",
              "script", "style"]


@st.composite
def leaf(draw):
    """A leaf element (open tag, text with no '<', close) and its near
    misses: a close of another case or a longer name, a self-closing
    or quote-hiding open tag, a close with no '>' after it."""
    tag = draw(st.sampled_from(_LEAF_TAGS))
    attrs = draw(st.sampled_from(
        ["", " href='/x'", " /", "/", " id='a>b'", ' title="</p>"',
         " data-x='</" + tag + ">'"]))
    body = draw(_text_frag).replace("<", "")
    close = draw(st.sampled_from(
        [f"</{tag}>", f"</{tag}>", f"</ {tag} >", f"</{tag}\n>",
         f"</{tag.swapcase()}>", f"</{tag}_x>", f"</{tag}-x>",
         f"</{tag}x>", f"</{tag}:x>", f"</{tag} ", f"</{tag}"]))
    tail = draw(st.sampled_from(["", " ", "\n\t", " x"]))
    return f"<{tag}{attrs}>{body}{close}{tail}"


@st.composite
def markup(draw, depth=0):
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 7))
        if kind == 0:
            parts.append(draw(_text_frag))
        elif kind == 1 and depth < 4:  # (possibly misnested) element
            tag = draw(st.sampled_from(_TAGS))
            attrs = draw(st.sampled_from(
                ["", " id='x>y'", ' class="a b"', " data-x=1", " /"]))
            inner = draw(markup(depth=depth + 1))
            close = draw(st.sampled_from(
                [f"</{tag}>", f"</ {tag} >", "", "</div>", "</a>"]))
            parts.append(f"<{tag}{attrs}>{inner}{close}")
        elif kind == 2:
            parts.append(draw(st.sampled_from(
                ["<!-- c <div> -->", "<!-- unterminated", "<!doctype html>",
                 "<?php x ?>", "<![CDATA[ <b> ]]>"])))
        elif kind == 3:
            parts.append(draw(st.sampled_from(
                ["<script>var a = '</div>';</script>",
                 "<style>p { color: red }</style>",
                 "<script>unterminated raw text",
                 "<script>x</script_x> y</script>", "<script>x</script_x>",
                 "<style>x</STYLE>"])))
        elif kind == 4:
            parts.append(draw(st.sampled_from(
                ["&amp;", "&#32;", "&lt;b&gt;", "&bogus;", "&", "&nbsp;",
                 "&#160;", "&#x85;", "&#12;"])))
        elif kind == 5:
            parts.append(draw(st.sampled_from(
                ["<", "< notatag", "</>", "<3", "</nope>", "</p", "</p ",
                 "</a x", "</div  "])))
        elif kind == 6:
            parts.append(draw(st.sampled_from(
                ["<br>", "<img src=x>", "<hr/>", "<br>x</br>",
                 "<p><p/>x</p>", "<a><a>x</a>", "<a>y <a>x</a> z</a>",
                 "<p>x</P>", "<P>x</p>"])))
        else:
            parts.append(draw(leaf()))
    return "".join(parts)


@given(doc=markup())
@settings(max_examples=300, deadline=None)
def test_adversarial_markup_matches_model(doc):
    assert_parity(f"<html><body>{doc}</body></html>".encode())


@given(doc=markup())
@settings(max_examples=100, deadline=None)
def test_bare_fragment_matches_model(doc):
    # no <body> wrapper: the end-of-document drain does the scoring
    assert_parity(doc.encode())


@given(doc=markup(), tail=st.lists(st.sampled_from(
    ["</p ", "</a", "</div  x", "<p>y ", "</P", " ", "<", "&amp;"]),
    min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_unterminated_closes_after_last_gt_match_model(doc, tail):
    # everything after the document's last '>' is read by the kernel's
    # tail pattern; the model reads it with the one-token-per-tag regex
    assert_parity((doc + "".join(tail)).encode())


# ------------------------------------------------------------- hostile


def _unterminated_closes(k: int) -> bytes:
    return b"<p>x " + b"</p " * k


def test_unterminated_closes_match_model():
    assert_parity(_unterminated_closes(20_000))
    assert_parity(b"<div><script>" + b"</script " * 8_000)


def test_unterminated_closes_are_linear():
    # one '</' with no '>' after it used to scan to the end of the
    # document, so 250k of them (1 MB) took minutes
    import time

    t0 = time.perf_counter()
    out = extract_html(_unterminated_closes(250_000))
    with pytest.raises(ValueError):
        extract_html(b"<div><script>" + b"</script " * 250_000)
    assert time.perf_counter() - t0 < 10.0
    assert out == "x" + " < /p" * 250_000
