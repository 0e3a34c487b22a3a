"""HTML main-content extractor — DOM boilerplate stripper.

Plays the role of the reference's OCR engine invocation for image/HTML
documents (/root/reference/pmocr.sh:1923-1963): payload bytes in,
extracted text out, raising on malformed input so the caller can apply
the retry-once-then-quarantine state machine (pmocr.sh:1981-2011).

Algorithm (classic text-density / link-density heuristics, cf.
Kohlschütter et al., "Boilerplate Detection using Shallow Text
Features", WSDM 2010):

1. Tokenize the (strict-UTF-8-decoded) payload with a single-pass,
   quote-aware tag scanner (compiled regexes; ~4× the throughput of
   stdlib ``html.parser`` for this workload, and the engine kernel IS
   the pipeline's hot loop).  lxml is not available in this
   environment; the scanner is this engine's parser.  A leaf element
   (``<p>text</p>``, ``<a href=…>label</a>``: an opening tag, a text
   run with no ``<`` and the same tag's close) is one token, and the
   scan stays linear on closes that never find their ``>``.
2. For every *candidate container* element (article/main/body/div/
   section/td/li/p) accumulate, over its whole subtree:
   ``text_len`` (non-whitespace characters of visible text),
   ``link_len`` (the same inside <a>), and the ordered list of visible
   text runs (each kept whole, entity-unescaped, never split).
3. Score each candidate ``(text_len - link_len) * (1 - link_len/text_len)``
   — high text density and low link density win; navigation chrome
   (link-dominated) scores ~0.
4. The best-scoring candidate (ties broken by first close in document
   order — deterministic) is the main content; serialize its runs
   once, normalized to single spaces — its visible words joined by
   single spaces (whitespace-normalized, entity-unescaped).

Determinism: pure function of the payload bytes.  No locale dependence
(the reference pins LC_ALL=C for the same reason, pmocr.sh:38), no
wall clock, no randomness, stable tree walk — required for the
byte-identical-per-url conformance contract at any parallelism.
"""

from __future__ import annotations

import re
from html import unescape as _unescape

# Elements whose text is never content (raw-text elements are skipped
# to their closing tag in one step).
_SKIP_CONTENT = frozenset({"script", "style", "noscript", "template"})
# Elements eligible to be "the main content container".
_CANDIDATES = frozenset(
    {"article", "main", "body", "div", "section", "td", "li", "p", "blockquote"}
)
# Void elements (never pushed on the open-element stack).
_VOID = frozenset(
    {"br", "hr", "img", "input", "meta", "link", "area", "base", "col",
     "embed", "source", "track", "wbr"}
)

# One token per iteration: a comment, a declaration/doctype, a closing
# tag, a leaf element, an opening tag (attribute section is quote-aware
# so '>' inside quoted attribute values does not terminate the tag), a
# whitespace-only run, or a text run.  A leaf element is an opening tag,
# a text run with no '<' and the close of the same tag spelling
# (case-sensitive backreference; the lookahead stops ``</px>`` closing
# ``p`` exactly as the close alternative's greedy name does).  Closes
# and leaves also consume a following whitespace-only run.
# ``m.lastindex`` alone names the kind: 1=close, 3=open, 4=leaf,
# 5=text, None=markup or whitespace (no visible text).  The group
# numbering is private to this module.
_TOKEN_PATTERN = r"""<!--.*?(?:-->|$)                    # comment
      | <!\[CDATA\[.*?(?:\]\]>|$)           # cdata
      | <![^>]*>?                           # doctype / declaration
      | <\?[^>]*>?                          # processing instruction
      | </\s*([a-zA-Z][a-zA-Z0-9:-]*)[^>]*> # closing tag   -> group 1
          (?:\s+(?=<|\Z))?                  #   + trailing whitespace
      | <([a-zA-Z][a-zA-Z0-9:-]*)           # opening tag   -> group 2
          ((?:"[^"]*"|'[^']*'|[^>"']+)*)    #   quote-aware attrs -> group 3
                                            #   (unquoted runs consumed +-greedily:
                                            #   first-char-disjoint alternatives, so
                                            #   identical matches, fewer engine steps)
        (?:>([^<]*)                         #   leaf: text    -> group 4,
           </\s*\2(?![a-zA-Z0-9:-])[^>]*>   #   the same tag's close
           (?:\s+(?=<|\Z))?                 #   + trailing whitespace
         | >?)                              #   or the opening tag alone
      | \s+(?=<|\Z)                         # whitespace-only run: no words
      | ([^<]+|<)                           # text run, or stray '<' treated
                                            #   as text           -> group 5
    """
_TOKEN_RE = re.compile(_TOKEN_PATTERN, re.VERBOSE | re.DOTALL)
# The same tokens for a suffix with no '>' in it: there a closing tag
# can never find its '>', and the close alternative of ``_TOKEN_RE``
# would scan to the end of the document at every '</' before falling
# back to a stray '<' (quadratic in the number of unterminated closes).
_TAIL_RE = re.compile(
    _TOKEN_PATTERN.replace(r"[^>]*> # closing tag", r"(?!)   # closing tag"),
    re.VERBOSE | re.DOTALL,
)

# The ten ASCII characters ``str.split()`` splits on.  ``bytes.split()``
# knows only the first six, so ASCII runs are counted and normalized
# with ``translate`` over this set instead.
_ASCII_WS = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_WS_TO_SPACE = bytes.maketrans(_ASCII_WS, b" " * len(_ASCII_WS))

_RAW_END = {
    tag: re.compile(rf"</\s*{tag}\b[^>]*>", re.IGNORECASE)
    for tag in _SKIP_CONTENT
}

# raw tag spelling → (lowered, kind) with kind 0=normal/candidate,
# 1=void, 2=raw-text skip.  Tag vocabularies are tiny and repeat
# constantly, so one dict hit replaces lower() + set probes in the
# hot loop; the cache is process-global and bounded below so hostile
# inputs (millions of distinct tag spellings) cannot grow it without
# limit.
_TAG_KIND: dict = {}
_TAG_KIND_CAP = 4096


def _tag_kind(raw: str) -> tuple:
    e = _TAG_KIND.get(raw)
    if e is None:
        low = raw.lower()
        e = (low, 1 if low in _VOID else (2 if low in _SKIP_CONTENT
                                          else 0))
        if len(_TAG_KIND) < _TAG_KIND_CAP:
            _TAG_KIND[raw] = e
    return e


def extract_html(payload) -> str:
    """Extract main-content text from HTML bytes (any bytes-like view —
    the hot path passes a zero-copy memoryview into the Arrow buffer;
    ``str(view, "utf-8")`` decodes straight from it without an
    intermediate ``bytes`` copy).

    Single fused scan: tokenizer, element stack and density scoring
    live in ONE function frame with local-variable state.  This is the
    pipeline's hottest loop, and in CPython the split
    tokenizer→accumulator formulation spent a third of its time on
    method calls and ``self`` attribute traffic; the fused loop is the
    same algorithm with the same evaluation order (integer sums happen
    identically, so scores, tie-breaks and output text are
    byte-identical — hash-verified against the split implementation
    over the full fixture).

    The loop pays per token, not per word: each visible text run is
    kept whole, and its non-whitespace character count (what the sum
    of its words' lengths was) is taken in C — ``bytes.translate``
    deleting the ASCII whitespace for an ASCII run, ``str.split`` only
    for a run with non-ASCII characters.  Whitespace-only runs are
    consumed by the tokenizer itself and never reach a branch.  Only
    the winning window of runs is normalized to single spaces, once,
    at return — the same bytes as joining its words.

    It pays per element, not per tag: a plain leaf element (a normal or
    candidate tag, not self-closing, around one text run) is one token
    and one branch — the run is counted and kept, the link counters
    take it if the leaf is or sits in an ``<a>``, and a candidate leaf
    is scored on the spot, with the same expressions, in the same
    order, as its open/text/close triple whose stack effects cancel.
    A void, raw-text or self-closing leaf restarts the scan at the end
    of its opening tag, where the tag-by-tag tokens resume.

    Stack discipline: each open element records (tag, run-list start
    index, chars start, link-chars start) against GLOBAL counters — a
    subtree's totals on close are two subtractions and its runs one
    slice, O(tokens + elements) per document plus one pass over the
    winner's text.  Misnested markup folds skipped nodes into their
    ancestors; stray close tags are ignored (lenient-parser policy).

    Raises ``UnicodeDecodeError`` on non-UTF-8 payloads and
    ``ValueError`` when no visible text exists — both are *data*
    failures that the pipeline's state machine converts into a
    quarantined row (reference analogue: engine exit code != 0 ->
    ``_OCR_ERR`` rename, /root/reference/pmocr.sh:1981-2011).
    """
    text = str(payload, "utf-8", "strict")
    # local bindings: the loop below runs a few hundred times per
    # document and every global/attribute lookup in it is measurable
    finditer = _TOKEN_RE.finditer
    tail_finditer = _TAIL_RE.finditer
    raw_end = _RAW_END
    candidates = _CANDIDATES
    unescape = _unescape
    ascii_ws = _ASCII_WS
    tag_kind = _tag_kind
    # direct cache probe first: tag spellings repeat constantly, so the
    # common case is one dict hit with no Python call frame
    tag_kind_get = _TAG_KIND.get

    stack: list[tuple[str, int, int, int]] = [("#root", 0, 0, 0)]
    runs: list[str] = []
    chars = 0
    link_chars = 0
    link_depth = 0
    best_score = 0.0
    # winner tracked as a (start, end) window into ``runs`` — a new
    # best costs two int stores instead of copying the run slice
    # (nested candidates re-win constantly on real pages); the single
    # slice happens once, at return
    best_w0 = -1
    best_w1 = 0

    # ``finditer`` replaces per-token ``match(text, pos)`` stepping:
    # the token pattern matches at EVERY position (text runs, the
    # '<'-alternatives, and the stray-'<' catch-all tile the string),
    # so leftmost-match iteration yields the identical token stream
    # while the position bookkeeping runs in C.  Three jumps break out
    # and restart the iterator: a raw-text skip (<script>…) restarts at
    # its closing tag (a comment opener inside script text must NOT
    # swallow the close); a leaf element that is not plain restarts at
    # the end of its opening tag, where the separate tokens resume; and
    # a stray '<' past the document's last '>' restarts the same
    # position with ``_TAIL_RE``.  No closing tag ends after that last
    # '>', so both patterns give the same tokens there.
    pos = 0
    n = len(text)
    # every closing tag ends at or before the last '>': the tail pattern
    # takes over past it, and raw-text end searches stop there (an
    # unbounded search rescans to the end at every unterminated close)
    tail_from = text.rfind(">") + 1
    while pos < n:
        restart = False
        for m in finditer(text, pos):
            li = m.lastindex  # 1=close, 3=open, 4=leaf, 5=text, None
            if li == 4:  # leaf element: <tag attrs>text</tag>
                raw = m[2]
                e = tag_kind_get(raw)
                tag, kind = e if e is not None else tag_kind(raw)
                attrs = m[3]
                if kind or attrs and attrs.rstrip().endswith("/"):
                    # void, raw-text or self-closing: take it apart
                    pos = m.end(3) + 1
                    if kind == 2:
                        close = raw_end[tag].search(text, pos, tail_from)
                        pos = close.end() if close else n
                    restart = True
                    break
                # plain leaf: open, text and close fused; the element
                # would be pushed and popped around this one run, so
                # the stack and link depth are untouched
                tok = m[4]
                if "&" in tok:
                    tok = unescape(tok)
                if tok.isascii():
                    cn = len(tok.encode().translate(None, ascii_ws))
                else:
                    cn = sum(map(len, tok.split()))
                if cn:
                    runs.append(tok)
                    chars += cn
                    ll = 0
                    if link_depth or tag == "a":
                        link_chars += cn
                        ll = cn
                    if tag in candidates:
                        score = (cn - ll) * (1.0 - ll / cn)
                        if best_w0 < 0 or score > best_score:
                            best_score = score
                            best_w1 = len(runs)
                            best_w0 = best_w1 - 1
            elif li == 5:  # text run (or stray '<' treated as text)
                tok = m[5]
                if tok == "<" and finditer is not tail_finditer \
                        and m.start() >= tail_from:
                    pos = m.start()
                    finditer = tail_finditer
                    restart = True
                    break
                if "&" in tok:
                    tok = unescape(tok)
                if tok.isascii():
                    cn = len(tok.encode().translate(None, ascii_ws))
                else:
                    cn = sum(map(len, tok.split()))
                if cn:
                    runs.append(tok)
                    chars += cn
                    if link_depth:
                        link_chars += cn
            elif li == 3:  # opening tag
                raw = m[2]
                e = tag_kind_get(raw)
                tag, kind = e if e is not None else tag_kind(raw)
                if kind == 1:  # void
                    continue
                if kind == 2:  # raw-text element: jump to its closing tag
                    close = raw_end[tag].search(text, m.end(), tail_from)
                    pos = close.end() if close else n
                    restart = True
                    break
                attrs = m[3]
                if attrs and attrs.rstrip().endswith("/"):
                    continue  # self-closing: no content
                if tag == "a":
                    link_depth += 1
                stack.append((tag, len(runs), chars, link_chars))
            elif li == 1:  # closing tag
                raw = m[1]
                e = tag_kind_get(raw)
                tag, kind = e if e is not None else tag_kind(raw)
                if kind:  # void or raw-text: no stack effect
                    continue
                if tag == "a" and link_depth > 0:
                    link_depth -= 1
                if stack[-1][0] == tag:  # fast path: well-nested markup
                    idx = len(stack) - 1
                else:
                    idx = 0
                    for i in range(len(stack) - 1, 0, -1):
                        if stack[i][0] == tag:
                            idx = i
                            break
                    if idx == 0:  # stray close tag: ignored
                        continue
                while len(stack) > idx:
                    ctag, w0, c0, l0 = stack.pop()
                    if ctag in candidates:
                        tl = chars - c0
                        if tl > 0:
                            ll = link_chars - l0
                            score = (tl - ll) * (1.0 - ll / tl)
                            # strictly-greater wins; ties keep the
                            # earliest-closed candidate (document order)
                            if best_w0 < 0 or score > best_score:
                                best_score = score
                                best_w0 = w0
                                best_w1 = len(runs)
            # comments / doctype / cdata / PI / whitespace: no visible text
        if not restart:
            break

    while len(stack) > 1:  # close whatever the document left open
        ctag, w0, c0, l0 = stack.pop()
        if ctag in candidates:
            tl = chars - c0
            if tl > 0:
                ll = link_chars - l0
                score = (tl - ll) * (1.0 - ll / tl)
                if best_w0 < 0 or score > best_score:
                    best_score = score
                    best_w0 = w0
                    best_w1 = len(runs)

    if best_w0 < 0:
        raise ValueError("html extractor: no visible text content found")
    # the winner's words joined by single spaces, without splitting it
    # into words when it is ASCII: every whitespace byte becomes a
    # space, space runs collapse, the ends are trimmed
    out = " ".join(runs[best_w0:best_w1])
    if not out.isascii():
        return " ".join(out.split())
    b = out.encode().translate(_WS_TO_SPACE)
    while b"  " in b:
        b = b.replace(b"  ", b" ")
    return b.strip().decode()
