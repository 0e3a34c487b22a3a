"""Pinned outcomes of the HTML kernel over seeded corpora.

`test_html_model_differential.py` checks the kernel against a model
with its own one-token-per-tag tokenizer; this module checks it against
the kernel's own past.  It runs `extract_html` over fixed corpora and
compares a sha256 of every outcome — ``("ok", text)`` or ``("err",
type, message)`` — with a constant computed from an earlier kernel:
`PINNED_SHA256` from the kernel before its text runs were kept whole,
`LEAF_PINNED_SHA256` from the kernel before leaf elements were one
token.  Any change in extracted text, exception type or exception
message on any of these documents changes a digest.  A digest is never
recomputed to make a change pass; a new corpus is pinned with its
digest taken on the commit before the change.

The first corpus is every fixture class built by
`fixtures.build_page_row` (plain, PDF, already-done, poison and giant
pages over seeded texts with ASCII, non-ASCII and every whitespace
class `str.split` knows), plus seeded misnested markup: stray and
mismatched closes, raw-text islands, comments/PI/CDATA, entities that
unescape to whitespace, and stray '<'.  The leaf corpus is markup built
mostly of leaf elements (``<tag>text</tag>``) and their near misses:
closes of another case or of a longer name, void, raw-text and
self-closing leaves, '>' and '</p>' inside quoted attributes, links in
links, and closes with no '>' after them.
"""

from __future__ import annotations

import hashlib
import json
import random

from pmocr_ray import schema as S
from pmocr_ray.extract.html_extractor import extract_html
from pmocr_ray.fixtures import build_page_row

PINNED_SHA256 = (
    "0ef4b2bb30aeead10afd354a18055d484890c5aa79ebf50484a1105fbb7398b3")
# the leaf corpus below, over the kernel that read one token per tag
LEAF_PINNED_SHA256 = (
    "d387302c587333032be20a2b1b7a61928921e7b6896e5575b610a2ab27b6792a")

_WORDS = ("the", "quick", "brown", "fox", "a", "b&c", "x<y", "caf\xe9",
          "na\xefve", "\u4e2d\u6587", "\u4e16\u754c", "e\u0301", "1.5",
          "--")
# every character str.split() splits on, by class: ASCII (including the
# four separators bytes.split() does not know) and Unicode
_SEPS = (" ", " ", " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c",
         "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2009", "\u2028",
         "\u3000")
# half the documents draw from the ASCII-only part of both pools, so
# the kernel's ASCII path sees every ASCII separator too
_ASCII = (tuple(w for w in _WORDS if w.isascii()),
          tuple(c for c in _SEPS if c.isascii()))
_TAGS = ("article", "main", "body", "div", "section", "td", "li", "p",
         "blockquote", "a", "span", "nav", "b", "br", "img", "script",
         "style", "DIV", "P")
_MARKUP = ("<!-- c <div> -->", "<!-- unterminated", "<!doctype html>",
           "<?php x ?>", "<![CDATA[ <b> ]]>", "<", "< notatag", "</>",
           "<3", "</nope>", "<br>", "<img src=x>", "<hr/>",
           "<script>var a = '</div>';</script>",
           "<style>p { color: red }</style>", "<script>unterminated")
_ENTITIES = ("&amp;", "&#32;", "&lt;b&gt;", "&bogus;", "&", "&nbsp;",
             "&#160;", "&#x85;", "&#12;", "&#9;", "&#x1c;", "&#x3000;")


def _text(rng: random.Random, n: int, pools) -> str:
    words, seps = pools
    out = []
    for _ in range(n):
        out.append(rng.choice(words))
        out.append(rng.choice(seps))
    return "".join(out)


def _markup(rng: random.Random, pools, depth: int = 0) -> str:
    parts = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice((0, 0, 1, 1, 2, 3, 4))
        if kind == 0:
            parts.append(_text(rng, rng.randint(0, 6), pools))
        elif kind == 1 and depth < 5:
            tag = rng.choice(_TAGS)
            attrs = rng.choice(("", " id='x>y'", ' class="a b"', " href=/",
                                " /"))
            close = rng.choice((f"</{tag}>", f"</{tag}>", f"</ {tag} >", "",
                                "</div>", "</a>", "</p>"))
            inner = _markup(rng, pools, depth + 1)
            parts.append(f"<{tag}{attrs}>{inner}{close}")
        elif kind == 2:
            parts.append(rng.choice(_MARKUP))
        elif kind == 3:
            parts.append(rng.choice(_ENTITIES))
        else:
            parts.append(rng.choice(pools[1]) * rng.randint(1, 3))
    return "".join(parts)


_LEAF_TAGS = ("p", "P", "a", "A", "li", "div", "span", "b", "td", "br",
              "script")
_LEAF_ATTRS = ("", "", " href=/x", " /", "/", " id='a>b'", ' title="</p>"')
_LEAF_MARKUP = ("<br>x</br>", "<script>x</script_x> y</script>",
                "<style>x</STYLE>", "<p><p/>x</p>", "<a><a>x</a>",
                "<a>y <a>x</a> z</a>", "<p>x</P>", "<P>x</p>")
_UNTERMINATED = ("</p ", "</a", "</div x", "</P", "<p>y ", "<")


def _leaf(rng: random.Random, pools) -> str:
    """A leaf element, or one of its near misses: a close of another
    case or a longer name, a self-closing or quote-hiding open tag."""
    tag = rng.choice(_LEAF_TAGS)
    close = rng.choice((f"</{tag}>", f"</{tag}>", f"</ {tag} >",
                        f"</{tag}\n>", f"</{tag.swapcase()}>", f"</{tag}_x>",
                        f"</{tag}-x>", f"</{tag}x>", f"</{tag}:x>"))
    body = _text(rng, rng.randint(0, 4), pools)
    tail = rng.choice(("", "", " ", "\n\t", rng.choice(pools[1])))
    return f"<{tag}{rng.choice(_LEAF_ATTRS)}>{body}{close}{tail}"


def _leaf_markup(rng: random.Random, pools, depth: int = 0) -> str:
    parts = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice((0, 0, 0, 1, 1, 2, 3, 4))
        if kind == 0:
            parts.append(_leaf(rng, pools))
        elif kind == 1 and depth < 4:
            tag = rng.choice(("div", "p", "a", "li", "body", "span"))
            close = rng.choice((f"</{tag}>", f"</{tag}>", "", "</div>",
                                "</a>"))
            inner = _leaf_markup(rng, pools, depth + 1)
            parts.append(f"<{tag}{rng.choice(_LEAF_ATTRS)}>{inner}{close}")
        elif kind == 2:
            parts.append(rng.choice(_LEAF_MARKUP + _MARKUP))
        elif kind == 3:
            parts.append(_text(rng, rng.randint(0, 3), pools))
        else:
            parts.append(rng.choice(_ENTITIES))
    return "".join(parts)


def _corpus():
    rng = random.Random(20240612)
    reps = S.REPS_DEFAULT
    for doc_id in range(60):  # 480 rows: every one of the 20 classes
        text = _text(rng, rng.randint(1, 40),
                     _ASCII if doc_id % 2 else (_WORDS, _SEPS))
        for rep in range(reps):
            yield build_page_row(doc_id, rep, text, "en", reps)["html"]
    for _ in range(10000):
        doc = _markup(rng, _ASCII if rng.random() < 0.5 else (_WORDS, _SEPS))
        yield (f"<html><body>{doc}</body></html>" if rng.random() < 0.5
               else doc).encode()


def _leaf_corpus():
    rng = random.Random(20261019)
    for _ in range(6000):
        pools = _ASCII if rng.random() < 0.5 else (_WORDS, _SEPS)
        doc = _leaf_markup(rng, pools)
        if rng.random() < 0.5:
            doc = f"<html><body>{doc}</body></html>"
        if rng.random() < 0.25:  # closes with no '>' after them
            doc += "".join(rng.choice(_UNTERMINATED)
                           for _ in range(rng.randint(1, 5)))
        yield doc.encode()


def _outcome(payload) -> tuple:
    try:
        return ("ok", extract_html(payload))
    except Exception as e:  # noqa: BLE001 - type and message are pinned
        return ("err", type(e).__name__, str(e))


def test_corpus_covers_every_class():
    reps = S.REPS_DEFAULT
    classes = {S.cls_of(d, r, reps) for d in range(60) for r in range(reps)}
    assert classes == set(range(S.N_CLASSES))


def _digest(corpus) -> tuple[str, set]:
    h = hashlib.sha256()
    kinds = set()
    for payload in corpus:
        out = _outcome(payload)
        kinds.add(out[0] if out[0] == "ok" else out[1])
        h.update(json.dumps(out).encode())
        h.update(b"\n")
    return h.hexdigest(), kinds


def test_outcomes_match_pinned_digest():
    digest, kinds = _digest(_corpus())
    # the corpus must reach text, both exception types, and misnesting
    assert kinds == {"ok", "UnicodeDecodeError", "ValueError"}
    assert digest == PINNED_SHA256


def test_leaf_outcomes_match_pinned_digest():
    digest, kinds = _digest(_leaf_corpus())
    assert kinds == {"ok", "ValueError"}
    assert digest == LEAF_PINNED_SHA256
