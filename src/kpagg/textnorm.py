"""Tokenization and stemming-based normalization for keyphrase matching.

A phrase or document is reduced to a sequence of normalized tokens: words
are extracted with a Unicode-aware pattern (hyphens and other punctuation
split tokens), lowercased, and purely ASCII-alphabetic tokens are Porter
stemmed; digits and non-ASCII tokens pass through lowercased. Two phrases
match when their normalized forms are equal; a phrase is *present* in a
document when its token sequence occurs contiguously in the document's
normalized tokens.

A phrase is its normalized form, a string. Phrases are made in one place,
`NormalizedSource.phrases`: it turns a list of surface strings (one
sample's, or a document's gold) into their normalized forms, dropping a
surface with no alphanumeric content and keeping the first of each form.
Presence is a property of the form, not of the surface, since matching
reads only the normalized tokens; the source keeps the set of its forms
found present (`NormalizedSource.present`).

The common text takes a path that does its work in C and gives the same
answer as the general one. An ASCII text is lowercased once and split by
one ASCII pattern; any other text is split first and each token lowercased
on its own, because lowering a whole text can change how it splits (`İ`
lowers to `i` and a combining dot, and `Σ` lowers to `ς` or `σ` depending
on what follows it). A phrase whose lowercase words occur verbatim, in
order, among the source's words is present without stemming any source
word, since equal words normalize alike; only the others take the stem
walk below.

Performance: `normalize_token` memoises its stems for the whole process in a
bounded LRU cache (at most 65,536 entries of a few short strings each, so
memory stays bounded however long the process runs). A document's source is
tokenized once into a `NormalizedSource`, which joins its lowercase surface
tokens once into a space-padded string and stems none of them up front. A
presence test stems only the source words that can match a phrase token q:
the normaliser takes every letter of a stem but the last from the word
itself (`word.startswith(normalize_token(word)[:-1])`, argued rule by rule
in `kpagg.porter`), so only a word starting with `q[:-1]` can normalize to
q. The result is the same as matching against the fully stemmed source,
but most source words start no phrase of any sample or gold list and are
never stemmed. The source also memoises the form of each surface string
and decides presence once per distinct form: the n samples of a document
repeat the same phrases, and its gold list repeats some of them too, in
other cases and punctuation as well. Those memos are plain containers
dropped with their document, so they cost no memory across documents.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Sequence

from . import porter

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# `_TOKEN_RE` on lowercase ASCII text
_ASCII_TOKEN_RE = re.compile(r"[a-z0-9]+")
_ASCII_ALPHA_RE = re.compile(r"[a-z]+\Z")


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word tokens, dropping punctuation. An ASCII
    text is lowercased whole; any other text token by token, since lowering
    a whole text can change its tokens."""
    if text.isascii():
        return _ASCII_TOKEN_RE.findall(text.lower())
    return [t.lower() for t in _TOKEN_RE.findall(text)]


@functools.lru_cache(maxsize=1 << 16)
def normalize_token(token: str) -> str:
    """Stem a lowercase token if it is plain ASCII letters, else keep it."""
    if _ASCII_ALPHA_RE.match(token):
        return porter.stem(token)
    return token


class NormalizedSource:
    """A document's source tokens, tokenized once and shared by every
    presence test on that document.

    The lowercase surface tokens (`tokenize`) are kept joined once, with one
    space on each side: `" a b c "`. A token is nonempty and holds no space,
    so `" " + p` occurs in that string exactly where a token starting with
    `p` starts. A phrase with normalized tokens q1 ... qk is present when
    some k consecutive source tokens normalize to q1 ... qk. A token that
    normalizes to q starts with `q[:-1]`, so the candidates are the tokens
    found by searching for `" " + q1[:-1]`, and a token is normalized only
    once it is known to start with the `q[:-1]` it must match. Each surface
    string passed to `phrases` is normalized once, and each distinct form
    classified once, into `present` or the absent forms.
    """

    __slots__ = ("_joined", "_forms", "_absent", "present")

    def __init__(self, tokens: Sequence[str]):
        self._joined = f" {' '.join(tokens)} "
        self._forms: dict[str, str] = {}  # surface -> its form, "" for none
        self._absent: set[str] = set()
        # the normalized forms classified so far that occur in the source
        self.present: set[str] = set()

    @classmethod
    def from_text(cls, text: str) -> NormalizedSource:
        return cls(tokenize(text))

    def _contains(self, phrase_tokens: list[str]) -> bool:
        """Whether consecutive source tokens normalize to `phrase_tokens`."""
        joined = self._joined
        probe = " " + phrase_tokens[0][:-1]
        at = joined.find(probe)
        while at >= 0:
            start = at + 1
            for want in phrase_tokens:
                end = joined.find(" ", start)
                word = joined[start:end]
                if end < 0 or not word.startswith(want[:-1]) or normalize_token(word) != want:
                    break
                start = end + 1
            else:
                return True
            at = joined.find(probe, at + 1)
        return False

    def phrases(self, surfaces: Sequence[str]) -> tuple[str, ...]:
        """The normalized forms of `surfaces` in order, each classified as
        present in this source (added to `present`) or absent. A surface that
        normalizes to nothing is dropped, and only the first of each form is
        kept. A new form whose surface's lowercase words occur verbatim in
        the source is present, since equal words normalize alike; only
        otherwise are source words stemmed (`_contains`)."""
        forms = self._forms
        present = self.present
        absent = self._absent
        for surface in surfaces:
            if surface in forms:
                continue
            words = tokenize(surface)
            form = forms[surface] = " ".join(map(normalize_token, words))
            if form and form not in present and form not in absent:
                if f" {' '.join(words)} " in self._joined or self._contains(form.split(" ")):
                    present.add(form)
                else:
                    absent.add(form)
        kept = dict.fromkeys(map(forms.__getitem__, surfaces))
        kept.pop("", None)
        return tuple(kept)
