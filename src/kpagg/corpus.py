"""Corpus loading and dataset statistics.

Corpora are JSON-lines files: one UTF-8 object per line with keys ``id``,
``title``, ``abstract``, ``keyphrases`` (list of strings) and an optional
``domain`` ("scientific" or "news"). A document's gold phrases are
`NormalizedSource.phrases` of its gold list against its title+body source:
normalized forms, deduplicated, each present or absent.
Each corpus statistic is one `CorpusStats` field, labelled once in
`_STAT_LABELS`, which orders the stats table and the CSV columns.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import NamedTuple

from . import textnorm

log = logging.getLogger(__name__)

DOMAINS = ("scientific", "news")


class CorpusError(Exception):
    """Fatal problem with a corpus file (unreadable, or no valid records)."""


class Document(NamedTuple):
    id: str
    title: str
    body: str
    gold: tuple[str, ...]
    domain: str = "scientific"

    @property
    def source_text(self) -> str:
        return f"{self.title} {self.body}"


class CorpusStats(NamedTuple):
    num_docs: int
    avg_input_words: float
    avg_words_per_present_kp: float | None
    avg_words_per_absent_kp: float | None
    avg_present_per_doc: float
    avg_absent_per_doc: float


# CorpusStats field -> its row label in the stats table; the CSV header is
# the field names in this order
_STAT_LABELS = {
    "num_docs": "Documents",
    "avg_input_words": "Avg words in title + body",
    "avg_words_per_present_kp": "Avg words per present keyphrase",
    "avg_words_per_absent_kp": "Avg words per absent keyphrase",
    "avg_present_per_doc": "Avg present keyphrases per doc",
    "avg_absent_per_doc": "Avg absent keyphrases per doc",
}


def _parse_record(obj: object, default_domain: str) -> Document:
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    for key in ("id", "title", "abstract"):
        if not isinstance(obj.get(key), str):
            raise ValueError(f"missing or non-string field {key!r}")
    if not obj["id"]:
        raise ValueError("empty id")
    kps = obj.get("keyphrases")
    if not isinstance(kps, list) or not all(isinstance(k, str) for k in kps):
        raise ValueError("field 'keyphrases' must be a list of strings")
    domain = obj.get("domain", default_domain)
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}")
    return Document(
        id=obj["id"],
        title=obj["title"],
        body=obj["abstract"],
        gold=tuple(kps),
        domain=domain,
    )


def load_corpus(path: str | Path, default_domain: str = "scientific") -> list[Document]:
    """Read documents from a JSON-lines corpus file, in file order.

    Malformed lines and duplicate ids are skipped with a logged warning.
    Raises CorpusError if the file cannot be read or holds no valid record.
    """
    path = Path(path)
    try:
        # a BOM some editors write is no part of the first record
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc

    docs: list[Document] = []
    seen_ids: set[str] = set()
    skipped = 0
    # JSON strings may hold raw U+2028, U+2029 and U+0085, at which
    # `splitlines` would also break; `read_text` has already mapped CR LF
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            doc = _parse_record(json.loads(line), default_domain)
            if doc.id in seen_ids:
                raise ValueError(f"duplicate id {doc.id!r}")
        except ValueError as exc:
            skipped += 1
            log.warning("%s:%d: skipping malformed record: %s", path, lineno, exc)
            continue
        seen_ids.add(doc.id)
        docs.append(doc)
    if skipped:
        log.warning("%s: skipped %d malformed record(s)", path, skipped)
    if not docs:
        raise CorpusError(f"no valid records in corpus file {path}")
    return docs


def corpus_stats(docs: list[Document]) -> CorpusStats:
    """Descriptive statistics: input length and gold keyphrase counts.

    Word counts use whitespace splitting of the raw surface text, not the
    stemming tokenizer. Per-keyphrase word averages pool all keyphrases in
    the corpus; per-document averages divide by the document count. When a
    corpus has no present (or absent) keyphrases at all, the corresponding
    words-per-keyphrase average is undefined and reported as None.
    """
    if not docs:
        raise CorpusError("corpus_stats requires at least one document")
    input_words = 0
    kps = {True: 0, False: 0}  # gold phrases, by presence
    kp_words = {True: 0, False: 0}  # their surface words, by presence
    for doc in docs:
        input_words += len(doc.source_text.split())
        source = textnorm.NormalizedSource.from_text(doc.source_text)
        # each gold form with its first surface: read backwards, that is written last
        first = {f: s for s in reversed(doc.gold) for f in source.phrases((s,))}
        for form, surface in first.items():
            kps[form in source.present] += 1
            kp_words[form in source.present] += len(surface.split())
    n = len(docs)
    return CorpusStats(
        num_docs=n,
        avg_input_words=input_words / n,
        avg_words_per_present_kp=kp_words[True] / kps[True] if kps[True] else None,
        avg_words_per_absent_kp=kp_words[False] / kps[False] if kps[False] else None,
        avg_present_per_doc=kps[True] / n,
        avg_absent_per_doc=kps[False] / n,
    )


def _stat_cells(stats: CorpusStats, places: int, undefined: str) -> list[str]:
    """Each stat in `_STAT_LABELS` order: the document count as is, an
    average to `places` decimals, an undefined average as `undefined`."""
    return [
        undefined if v is None else str(v) if isinstance(v, int) else f"{v:.{places}f}"
        for v in (getattr(stats, name) for name in _STAT_LABELS)
    ]


def format_stats(stats: CorpusStats) -> str:
    """Two-column text table for the stats CLI."""
    width = max(map(len, _STAT_LABELS.values()))
    rows = zip(_STAT_LABELS.values(), _stat_cells(stats, 2, "-"))
    return "\n".join(f"{label:<{width}}  {cell}" for label, cell in rows)


def stats_csv(stats: CorpusStats) -> str:
    """CSV form of the stats table (header + one row)."""
    return f"{','.join(_STAT_LABELS)}\n{','.join(_stat_cells(stats, 6, ''))}\n"
