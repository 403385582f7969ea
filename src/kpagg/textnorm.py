"""Tokenization and stemming-based normalization for keyphrase matching.

A phrase or document is reduced to a sequence of normalized tokens: words
are extracted with a Unicode-aware pattern (hyphens and other punctuation
split tokens), lowercased, and purely ASCII-alphabetic tokens are Porter
stemmed; digits and non-ASCII tokens pass through lowercased. Two phrases
match when their normalized forms are equal; a phrase is *present* in a
document when its token sequence occurs contiguously in the document's
normalized tokens.

A phrase is made in one place, `NormalizedSource.phrases`: it turns a list
of surface strings (one sample's, or a document's gold) into
`NormalizedPhrase`s, each normalized and classified present or absent in
the source, dropping a surface with no alphanumeric content and keeping
the first phrase of each normalized form.

Performance: `normalize_token` memoises its stems for the whole process in a
bounded LRU cache (at most 65,536 entries of a few short strings each, so
memory stays bounded however long the process runs). A document's source is
normalised once into a `NormalizedSource`, which joins its tokens once into
a space-padded string, so a presence test is one substring search of it,
with no index to build. The source also memoises, per surface string, the
phrase normalised and classified against it: the n samples of a document
repeat the same phrases, and its gold list repeats some of them too, but
each distinct surface is normalised and presence-tested once. That memo is
a plain dict dropped with its document, so it costs no memory across
documents.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Sequence
from dataclasses import dataclass

from . import porter

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_ASCII_ALPHA_RE = re.compile(r"[a-z]+\Z")


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word tokens, dropping punctuation."""
    return [t.lower() for t in _TOKEN_RE.findall(text)]


@functools.lru_cache(maxsize=1 << 16)
def normalize_token(token: str) -> str:
    """Stem a lowercase token if it is plain ASCII letters, else keep it."""
    if _ASCII_ALPHA_RE.match(token):
        return porter.stem(token)
    return token


def normalize_tokens(text: str) -> list[str]:
    """Lowercased, stemmed token list for a piece of text."""
    return [normalize_token(t) for t in tokenize(text)]


@dataclass(frozen=True)
class NormalizedPhrase:
    """A keyphrase with its normalized form and its present/absent status
    relative to a source document."""

    surface: str
    normalized: str
    is_present: bool


class NormalizedSource:
    """A document's normalized source tokens, normalized once and shared by
    every presence test on that document.

    The tokens are kept joined once, with one space on each side:
    `" a b c "`. A token is nonempty and holds no space, and a normalized
    phrase is its tokens joined by single spaces, so `" <phrase> "` occurs
    in that string exactly when the phrase's tokens occur contiguously in
    the source. Each surface string passed to `phrases` is normalized and
    classified once.
    """

    __slots__ = ("_joined", "_phrases")

    def __init__(self, tokens: Sequence[str]):
        self._joined = f" {' '.join(tokens)} "
        self._phrases: dict[str, NormalizedPhrase | None] = {}

    @classmethod
    def from_text(cls, text: str) -> NormalizedSource:
        return cls(normalize_tokens(text))

    def phrases(self, surfaces: Sequence[str]) -> tuple[NormalizedPhrase, ...]:
        """The phrases of `surfaces` in order, each normalized and classified
        as present or absent in this source (memoised per surface). A surface
        that normalizes to nothing is dropped, and only the first phrase of
        each normalized form is kept."""
        memo = self._phrases
        for surface in surfaces:
            if surface not in memo:
                normalized = " ".join(normalize_tokens(surface))
                memo[surface] = (
                    NormalizedPhrase(surface, normalized, f" {normalized} " in self._joined)
                    if normalized
                    else None
                )
        return tuple(dedup_preserve_order([p for s in surfaces if (p := memo[s])]))


def dedup_preserve_order(phrases: list[NormalizedPhrase]) -> list[NormalizedPhrase]:
    """Keep the first phrase for each distinct normalized form."""
    seen: set[str] = set()
    out: list[NormalizedPhrase] = []
    for p in phrases:
        if p.normalized not in seen:
            seen.add(p.normalized)
            out.append(p)
    return out
