"""The replay cache: the samples fetched, one JSON-lines file per endpoint
origin, corpus, variant, model and sampling settings (`harness.cache_path`).

Completed samples are appended to the file, keyed by (doc_id, prompt_hash,
sample_index), one line per sample with its logprob sum and count in place
of the per-token list; a warm cache replays a run without any network
traffic. JSON float repr round-trips exactly, so a replayed perplexity
equals the fetched one bit for bit.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
from pathlib import Path

from .llm_client import RawSample

log = logging.getLogger(__name__)


# The start of a cache line as `put` writes it: the record's first field,
# spaced as `json.dumps` spaces it. An id holding an escape (a quote, a
# backslash, a control character) does not match, nor does another key order.
_DOC_ID_PREFIX = re.compile(rb'\{"doc_id": "([^"\\]*)", ')
# json.loads without its Python-level steps: the C scanner reads one value
# after the JSON blanks that open a line, and only JSON blanks may follow it.
_scan_once = json.JSONDecoder().scan_once
_BLANKS = " \t\r\n"


class SampleCache:
    """Append-only JSON-lines store of RawSamples, keyed by
    (doc_id, prompt_hash, sample_index), a sample's first three fields.
    First write for a key wins. A line is one JSON object of the
    `RawSample` fields, by name, in field order. The file's directory must
    exist before the first `put`; `harness.grid` makes it before a fetch.

    The load keeps where each document's lines are, not their samples. A
    line that starts as `put` writes it (`_DOC_ID_PREFIX`) becomes a byte
    range, adjacent lines of one document a single range, if its doc_id is
    in `doc_ids` (None: every document); otherwise it is skipped. Any other
    line (an escaped id, another key order) is decoded at load for its
    doc_id alone, and is indexed so whatever `doc_ids` says. `take`
    reads a document's ranges with `os.pread`, through the file the load
    opened, and decodes them; a line that reads back short, or as another
    document's, is corrupt. Each corrupt line read is warned of by number;
    `close` warns of their total. `put` keeps where its lines went. A line
    whose JSON names `doc_id` twice, which `put` never writes, is indexed
    by the first and is corrupt unless the last names the same document.

    Each `put` appends its batch with a single `os.write` to an `O_APPEND`
    descriptor, so the batch lands whole at the end of the file even when
    another process appends to the same file at the same time. Two writers
    may both append a key neither had loaded; a reload keeps the line that
    came first. A file that ends without a newline when a batch is appended
    (a write cut short) gets one before the batch, in that same write, so
    the batch does not join the torn line. The append holds an exclusive
    `flock` on the file from that check to the end of its write, so it
    never sees another `put`'s batch half-written.

    Lines are bytes split on `\n` only; a line that is not UTF-8 (a write
    cut inside a character) is one more corrupt line.
    """

    def __init__(self, path: str | Path, doc_ids: set[str] | None = None):
        self.path = Path(path)
        self._lock = threading.Lock()
        # UTF-8 doc_id -> (start, end, first line number, line count) runs
        # of lines, in line order
        self._index: dict[bytes, list[tuple[int, int, int, int]]] = {}
        self._skipped: list[int] = []  # the numbers of the corrupt lines read
        self._size = self._lines = 0  # the bytes scanned or appended, and their newlines
        self._file = open(self.path, "rb") if self.path.exists() else None
        if doc_ids is not None:
            # as bytes, the form the prefix match captures; an id holding a
            # lone surrogate (a JSON escape) matches no line
            doc_ids = {doc_id.encode("utf-8", "surrogatepass") for doc_id in doc_ids}
        offset, match = 0, _DOC_ID_PREFIX.match
        for lineno, line in enumerate(self._file or (), start=1):
            if (m := match(line)) is None:
                sample = self._read(line, lineno, self._skipped)
                doc_id = sample and sample.doc_id.encode("utf-8", "surrogatepass")
            else:
                doc_id = m[1] if doc_ids is None or m[1] in doc_ids else None
            if doc_id is not None:
                self._add(doc_id, offset, offset + len(line), lineno)
            offset += len(line)
        self._size, self._lines = offset, lineno - (line[-1:] != b"\n") if offset else 0

    def close(self) -> None:
        """Close the file, and warn how many corrupt lines were skipped."""
        if self._file is not None:
            self._file.close()
        if self._skipped:
            log.warning("%s: skipped %d corrupt cache line(s)", self.path, len(self._skipped))

    def _add(self, doc_id: bytes, start: int, end: int, lineno: int) -> None:
        """Index a line; one right after its document's last run joins it."""
        entries = self._index.setdefault(doc_id, [])
        if entries and entries[-1][1] == start:
            first, _, lineno, count = entries[-1]
            # replaced whole, so a concurrent take never sees half of it
            entries[-1] = (first, end, lineno, count + 1)
        else:
            entries.append((start, end, lineno, 1))

    def _read(self, line: bytes, lineno: int, skipped: list, doc_id: str | None = None):
        """The sample of line `lineno`; None for a blank line at the load and
        for a corrupt line, whose number goes to `skipped` (and is warned of
        unless `skipped` is a put's). A take's (`doc_id`) line that is blank
        or another document's is corrupt too."""
        try:
            text = line.decode("utf-8")
            if doc_id is None and not text.strip():
                return None
            # StopIteration: no value where one should start
            obj, end = _scan_once(text, len(text) - len(text.lstrip(_BLANKS)))
            sample = self._decode(obj)
            if doc_id in (None, sample.doc_id) and not text[end:].strip(_BLANKS):
                return sample
        # RecursionError: a line nested too deep for the JSON parser
        except (ValueError, TypeError, KeyError, RecursionError, StopIteration):
            pass
        if skipped is self._skipped:
            log.warning("%s:%d: skipping corrupt cache line", self.path, lineno)
        skipped.append(lineno)
        return None

    def take(self, doc_id: str, skipped: list | None = None) -> dict[tuple[str, int], RawSample]:
        """The document's samples by (prompt_hash, sample_index), decoded now,
        first line first; a corrupt line is warned of unless put in `skipped`."""
        skipped = self._skipped if skipped is None else skipped
        samples = {}
        runs = self._index.get(doc_id.encode("utf-8", "surrogatepass"), ())
        for start, end, lineno, count in runs:
            lines = os.pread(self._file.fileno(), end - start, start).split(b"\n", count - 1)
            for n, line in enumerate(lines + [b""] * (count - len(lines)), lineno):
                if (sample := self._read(line, n, skipped, doc_id)) is not None:
                    samples.setdefault(sample[1:3], sample)
        return samples

    @staticmethod
    def _decode(obj: dict) -> RawSample:
        """The sample a cache line holds, read by `RawSample`'s field names;
        a line without one of them (an older format without `lp_sum`, say)
        raises KeyError. A field of the wrong JSON type raises TypeError, so
        the line counts as corrupt instead of being coerced (a string of
        digits into a logprob sum, a null finish reason into the
        clean-looking "None"): `lp_sum` must be null or a float other than
        NaN, `lp_n` a non-negative integer, and a positive `lp_n` needs a
        sum."""
        # a JSON scalar line has no fields: indexing it raises TypeError
        sample = RawSample(*[obj[field] for field in RawSample._fields])
        strings = (sample.doc_id, sample.prompt_hash, sample.text, sample.finish_reason)
        if set(map(type, strings)) != {str} or type(sample.sample_index) is not int:
            raise TypeError("cache line field of the wrong type")
        lp_sum, lp_n = sample.lp_sum, sample.lp_n
        if type(lp_n) is not int or lp_n < 0:
            raise TypeError("lp_n is not a non-negative integer")
        if lp_sum is None:
            if lp_n:
                raise TypeError("lp_n without lp_sum")
        elif type(lp_sum) is not float or lp_sum != lp_sum:
            raise TypeError("lp_sum is not null or a float other than NaN")
        return sample

    @staticmethod
    def _line(sample: RawSample) -> bytes:
        """The cache line of a sample, UTF-8 as it reads. A text holding a
        lone surrogate (a reply cut inside an emoji) has no UTF-8 form, so
        its line alone goes ASCII-escaped, which `json.loads` reads back to
        the same string."""
        obj = sample._asdict()
        try:
            return (json.dumps(obj, ensure_ascii=False) + "\n").encode("utf-8")
        except UnicodeEncodeError:
            return (json.dumps(obj) + "\n").encode("ascii")

    def put(self, *samples: RawSample) -> None:
        """Append the samples whose keys are new with one open and one write,
        keeping where their lines went; the first write for a key wins, within
        one call too."""
        with self._lock:
            new: dict[tuple[str, str, int], RawSample] = {}
            for sample in samples:
                new.setdefault(sample[:3], sample)
            for doc_id in {key[0] for key in new}:
                for prompt_hash, index in self.take(doc_id, skipped=[]):
                    new.pop((doc_id, prompt_hash, index), None)
            if not new:
                return
            lines = list(map(self._line, new.values()))
            data = b"".join(lines)
            import fcntl  # only a run that writes loads it

            fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                # held until the close: no other put writes between the
                # check of the last byte and this write
                fcntl.flock(fd, fcntl.LOCK_EX)
                size = os.fstat(fd).st_size
                # line numbers count the newlines other writers added too
                lineno = self._lines + sum(
                    os.pread(fd, min(1 << 20, size - pos), pos).count(b"\n")
                    for pos in range(self._size, size, 1 << 20)
                )
                # a torn last line is closed first, so it does not swallow the batch
                torn = size > 0 and os.pread(fd, 1, size - 1) != b"\n"
                data = b"\n" * torn + data
                written = os.write(fd, data)
                # A regular file takes the whole batch in one write; only a
                # full disk or a signal cuts it short, and then the rest
                # still goes out rather than being lost.
                while written < len(data):
                    written += os.write(fd, data[written:])
            finally:
                os.close(fd)
            offset, lineno = size + torn, lineno + torn
            for sample, line in zip(new.values(), lines):
                lineno += 1
                key = sample.doc_id.encode("utf-8", "surrogatepass")
                self._add(key, offset, offset + len(line), lineno)
                offset += len(line)
            self._size, self._lines = offset, lineno
            if self._file is None:
                self._file = open(self.path, "rb")

