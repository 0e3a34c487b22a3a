"""Pinned outcomes of the HTML kernel over a seeded corpus.

`test_html_model_differential.py` shares the tokenizer regex with the
kernel, so a change to that regex cannot show up there.  This test
runs `extract_html` over a fixed corpus and compares a sha256 of every
outcome — ``("ok", text)`` or ``("err", type, message)`` — with a
constant computed from the kernel before its text runs were kept
whole.  Any change in extracted text, exception type or exception
message on any of these documents changes the digest.

The corpus is every fixture class built by `fixtures.build_page_row`
(plain, PDF, already-done, poison and giant pages over seeded texts
with ASCII, non-ASCII and every whitespace class `str.split` knows),
plus seeded misnested markup: stray and mismatched closes, raw-text
islands, comments/PI/CDATA, entities that unescape to whitespace, and
stray '<'.
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


def _outcome(payload) -> tuple:
    try:
        return ("ok", extract_html(payload))
    except Exception as e:  # noqa: BLE001 - type and message are pinned
        return ("err", type(e).__name__, str(e))


def test_corpus_covers_every_class():
    reps = S.REPS_DEFAULT
    classes = {S.cls_of(d, r, reps) for d in range(60) for r in range(reps)}
    assert classes == set(range(S.N_CLASSES))


def test_outcomes_match_pinned_digest():
    h = hashlib.sha256()
    kinds = set()
    for payload in _corpus():
        out = _outcome(payload)
        kinds.add(out[0] if out[0] == "ok" else out[1])
        h.update(json.dumps(out).encode())
        h.update(b"\n")
    # the corpus must reach text, both exception types, and misnesting
    assert kinds == {"ok", "UnicodeDecodeError", "ValueError"}
    assert h.hexdigest() == PINNED_SHA256
