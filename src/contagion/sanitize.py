"""Text sanitizer for short social-media messages.

Strips retweet prefixes, links, hashtags, handles, HTML entities and emoji
so that downstream language identification sees only linguistic content.
Character counts are taken on the raw text, before any stripping.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

# a word character is an ASCII alphanumeric, an underscore, or any
# non-ASCII letter ([^\W\d_] is "letter" in unicode re)
_WORD = r"(?:[0-9A-Za-z_]|[^\W\d_])"

_RT_PREFIX = re.compile(r"^RT(?:\s*@%s+\s*:)?(?=\s|$)" % _WORD)
_URL = re.compile(r"(?i:https?://|www\.)\S*")
_HASHTAG = re.compile(r"#%s+" % _WORD)
_HANDLE = re.compile(r"@%s+" % _WORD)
_HTML_ENTITY = re.compile(r"&(?:[0-9A-Za-z]{2,6}|#[0-9]+);")

# code-point ranges treated as emoji: symbols and pictographs, misc symbols
# and dingbats, arrows, variation selectors, regional indicators, ZWJ
EMOJI_RANGES = (
    (0x1F000, 0x1FAFF),
    (0x2600, 0x27BF),
    (0x2190, 0x21FF),
    (0xFE00, 0xFE0F),
    (0x1F1E6, 0x1F1FF),
    (0x200D, 0x200D),
)

REMOVAL_CLASSES = ("rt_prefix", "link", "hashtag", "handle", "html_entity", "emoji")


_EMOJI = re.compile(
    "[%s]" % "".join("\\U%08x-\\U%08x" % (lo, hi) for lo, hi in EMOJI_RANGES)
)


@dataclass(frozen=True)
class SanitizedText:
    """Cleaned text plus the number of removals per class."""

    text: str
    removed_counts: Mapping[str, int]


def char_count(text: str) -> int:
    """Number of unicode code points in the raw message text."""
    return len(text)


def _strip_once(text: str, counts: dict) -> str:
    m = _RT_PREFIX.match(text)
    if m:
        counts["rt_prefix"] += 1
        text = text[m.end():]
    text, n = _URL.subn("", text)
    counts["link"] += n
    text, n = _HASHTAG.subn("", text)
    counts["hashtag"] += n
    text, n = _HANDLE.subn("", text)
    counts["handle"] += n
    text, n = _HTML_ENTITY.subn("", text)
    counts["html_entity"] += n
    text, n = _EMOJI.subn("", text)
    counts["emoji"] += n
    return " ".join(text.split())


def sanitize(raw: str) -> SanitizedText:
    """Strip non-linguistic tokens from ``raw``.

    One pass applies, in order: leading RT prefix, URLs, hashtags, handles,
    HTML entities, emoji code points, whitespace collapse. Removals can
    expose new matches (e.g. an entity split by a hashtag), so the pass is
    repeated until the text stops changing; this is what makes the result
    idempotent and free of any removable substring. Counts accumulate
    across passes.
    """
    counts = dict.fromkeys(REMOVAL_CLASSES, 0)
    text = raw
    while True:
        cleaned = _strip_once(text, counts)
        if cleaned == text:
            break
        text = cleaned
    return SanitizedText(text=text, removed_counts=counts)
