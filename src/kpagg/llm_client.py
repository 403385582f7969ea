"""Chat-completions client, sample parsing, perplexity, and a replay cache.

Talks to any OpenAI-compatible endpoint through `kpagg.transport`: one
request per document with n choices (default) or n single-choice requests,
with per-token logprobs requested so samples can be ranked by perplexity.
A sample the endpoint did not return, because its request ran out of
retries, the answer held fewer choices than asked for or its choice had
the wrong shape, is absent from what the client yields; nothing stands in
for it.
Only a client imports the transport, so an offline replay loads no HTTP
code; `kpagg.transport` says which path loads which module.

A sample keeps only what ranking needs of its logprobs: their left-to-right
sum and their count (`lp_sum`, `lp_n`), the sufficient statistics of both
perplexity modes. Completed samples are appended to a JSON-lines cache
keyed by (doc_id, prompt_hash, sample_index), one line per sample with those
two fields in place of the per-token list; a warm cache replays a run
without any network traffic. JSON float repr round-trips exactly, so a
replayed perplexity equals the fetched one bit for bit.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import re
import threading
import time
import urllib.parse
from pathlib import Path
from typing import Iterator, NamedTuple

from . import __version__
from .prompting import RenderedPrompt

log = logging.getLogger(__name__)

# The environment variable that holds the API key.
API_KEY_ENV = "KPAGG_API_KEY"
# Statuses whose Retry-After header sets the wait before the next attempt.
_RETRY_AFTER_STATUS = {429, 503}
# The longest wait, in seconds, that a Retry-After header can ask for.
MAX_RETRY_AFTER_S = 60.0
# Retries after a request's first attempt, the backoff of the first retry
# (doubled for each further one), and the socket timeout of each attempt.
MAX_RETRIES = 4
BACKOFF_BASE_S = 0.5
TIMEOUT_S = 120.0
# Finish reasons of a completion that stopped before its list was done.
_CUT_FINISH_REASONS = frozenset({"length", "content_filter"})
# How a perplexity is taken from the token NLL, and how n samples are asked for.
PPL_MODES = ("mean", "sum")
REQUEST_MODES = ("choices", "per-request")


class LLMClientError(Exception):
    """An error of the client. Raised out of the iteration of
    `sample_completions`, it comes after the samples already received."""


class AuthenticationError(LLMClientError):
    """The endpoint rejected our credentials; retrying cannot help."""


class RequestError(LLMClientError):
    """The endpoint rejected the request itself (bad model name, bad body)."""


class RawSample(NamedTuple):
    doc_id: str
    prompt_hash: str
    sample_index: int
    text: str
    lp_sum: float | None  # sum of the token logprobs, left to right
    lp_n: int  # number of token logprobs; 0 means unknown
    finish_reason: str

    @property
    def truncated(self) -> bool:
        """Cut short, at the token limit or by a content filter, so its
        last list item may be incomplete."""
        return self.finish_reason in _CUT_FINISH_REASONS


class ParsedSample(NamedTuple):
    phrases: tuple[str, ...]
    fallback: bool


def perplexity(sample: RawSample, mode: str = "mean") -> float | None:
    """exp of the negative log-likelihood of the generated tokens.

    mode "mean" divides by the token count (length-normalized, the default);
    mode "sum" does not. Returns None when no logprobs were captured.
    """
    if mode not in PPL_MODES:
        raise ValueError(f"unknown perplexity mode {mode!r}")
    if sample.lp_sum is None or not sample.lp_n:
        return None
    nll = -sample.lp_sum
    if mode == "mean":
        nll /= sample.lp_n
    try:
        return math.exp(nll)
    except OverflowError:
        return math.inf


def _retry_after_s(value: str | None) -> float | None:
    """The wait a Retry-After header asks for in delta-seconds, capped at
    MAX_RETRY_AFTER_S; None when it is absent, an HTTP-date or malformed."""
    value = (value or "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), MAX_RETRY_AFTER_S)


def _logprob_stats(values) -> tuple[float | None, int]:
    """The left-to-right sum and the count of the logprobs as floats, or
    (None, 0) (unknown perplexity, ranked last) when there are none or any
    is NaN or infinite: such a value would make the perplexity NaN or
    infinite and the rank order meaningless. An integer too large for a
    float counts as infinite. A sum of finite values may still overflow to
    an infinity; its perplexity is then 0 or inf, as from the list."""
    try:
        lps = tuple(map(float, values))
    except OverflowError:
        return None, 0
    if not lps or not all(map(math.isfinite, lps)):
        return None, 0
    return sum(lps), len(lps)


def _content_logprobs(content: list) -> tuple[float | None, int]:
    """`_logprob_stats` of the int and float logprobs of the token objects
    in an answer's `logprobs.content`; other entries are skipped. The
    common answer, every entry an object whose logprob is a float, with a
    finite sum, is summed without the checks."""
    try:
        lps = [t["logprob"] for t in content]
    except (KeyError, TypeError):  # an entry no object, or one without a logprob
        lps = None
    # a non-finite value makes the sum non-finite, so a finite sum is all
    # `_logprob_stats` would test
    if lps and all(type(v) is float for v in lps) and math.isfinite(total := sum(lps)):
        return total, len(lps)
    # type(), not isinstance(): JSON true/false are not logprobs
    return _logprob_stats(
        t.get("logprob")
        for t in content
        if isinstance(t, dict) and type(t.get("logprob")) in (int, float)
    )


_STRIP_CHARS = " \t\r\n\"'`[]"

# A quote opens a quoted run only at the start of an item: as the first
# character after blanks (space, tab, CR, LF) that follow a `[`, a comma, a
# newline or the start of the scan. A run (to its closing quote, or to the
# end when unclosed) is skipped whole, so the bracket and separator
# characters inside it are plain text; anywhere else a quote is plain text
# too (`Parkinson's`). `_FIRST_RUN_RE` skips the first item's run and
# `_SEPARATOR_RE` each separator with the run of the item it opens (an LF
# after a separator is a separator itself); the rest of the text holds
# nothing significant and is sliced out whole.
_QUOTED_RUN = r"""(?:"[^"]*"?|'[^']*'?)"""
_FIRST_RUN_RE = re.compile(rf"[ \t\r]*{_QUOTED_RUN}?")
_SEPARATOR_RE = re.compile(rf"[\[,\n][ \t\r]*{_QUOTED_RUN}?|\]")
# A clean list after its `[`: double-quoted items separated by commas, with
# only blanks around them, then the closing `]`. Each item is one quoted
# run, so its phrase is the quoted text, stripped.
_BLANKS = r"[ \t\r\n]*"
_CLEAN_LIST_RE = re.compile(rf'{_BLANKS}(?:"[^"]*"{_BLANKS}(?:,{_BLANKS}"[^"]*"{_BLANKS})*)?\]')
_QUOTED_ITEM_RE = re.compile(r'"([^"]*)"')


def parse_sample(raw_text: str, prefill: str, truncated: bool = False) -> ParsedSample:
    """Extract the keyphrase list from one completion.

    `prefill` (the prompt's `assistant_prefill`) and the completion are
    expected to be a bracketed list. One scan, from just after the first
    `[`, splits on commas and newlines outside quoted runs and nested
    brackets and stops at the bracket that closes the list. A quote opens
    a run only at the start of an item, so an apostrophe inside a phrase
    is plain text. Without any bracket the whole text is split the same
    way (a `]` in it is plain text) and the sample is flagged as a parse
    fallback. A `truncated` completion (cut at the token limit) whose
    content runs to the end of the text, an unclosed list or fallback
    text, loses its last item, which may be a cut phrase. A clean list
    (double-quoted items, commas, blanks, the closing `]`) gives the same
    phrases from one regex match. Never raises.
    """
    full = prefill + raw_text
    # without a bracket `start` is -1, so the scan starts at 0, at depth 0
    start = full.find("[")
    fallback = start < 0
    item_start = start + 1
    if not fallback and (clean := _CLEAN_LIST_RE.match(full, item_start)):
        items = _QUOTED_ITEM_RE.findall(full, item_start, clean.end())
    else:
        depth = 0 if fallback else 1  # open brackets, the list's own included
        items = []
        end = len(full)
        for m in _SEPARATOR_RE.finditer(full, _FIRST_RUN_RE.match(full, item_start).end()):
            token = m.group()[0]
            if token == "[":
                depth += 1
            elif token == "]":
                depth -= 1
                # fallback text opens no bracket: its depth only falls below 0
                if depth == 0:
                    end = m.start()
                    break
            elif depth <= 1:  # a comma or a newline
                items.append(full[item_start : m.start()])
                item_start = m.start() + 1
        items.append(full[item_start:end])
        if truncated and end == len(full):
            items.pop()
    phrases = []
    for item in items:
        cleaned = item.strip(_STRIP_CHARS)
        if cleaned:
            phrases.append(cleaned)
    if not phrases:
        fallback = True
    return ParsedSample(phrases=tuple(phrases), fallback=fallback)


class LLMClient:
    """Client for OpenAI-compatible chat completions: the request body, the
    retry policy and the samples. `kpagg.transport` sends the requests, over
    one kept-alive connection per fetch thread, to the endpoint or to the
    proxy that the environment names for it; constructing a client imports
    it, and raises LLMClientError for an endpoint, API key or proxy that
    cannot be sent to. `close` closes the idle connections. The retry
    policy is set by MAX_RETRIES, BACKOFF_BASE_S and TIMEOUT_S."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        request_mode: str = "choices",
    ):
        if request_mode not in REQUEST_MODES:
            raise ValueError(f"unknown request mode {request_mode!r}")
        # the path gains /chat/completions unless it ends with it; a query
        # (Azure's api-version, say) is kept as given
        split = urllib.parse.urlsplit(endpoint)
        path = split.path.rstrip("/")
        if not path.endswith("/chat/completions"):
            path += "/chat/completions"
        split = split._replace(path=path)
        self.model = model
        self.request_mode = request_mode
        # An explicit agent: some CDN-fronted endpoints answer urllib's
        # default "Python-urllib/x.y" with 403.
        headers = {"Content-Type": "application/json", "User-Agent": f"kpagg/{__version__}"}
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        from .transport import Transport  # an offline run makes no client

        try:
            self._transport = Transport(split, TIMEOUT_S, headers)
        except ValueError as exc:
            # neither message names a header value, credentials or a query
            shown = split._replace(netloc=split.netloc.rpartition("@")[2], query="", fragment="")
            raise LLMClientError(f"endpoint {shown.geturl()!r}: {exc}") from None

    def close(self) -> None:
        """Close the idle connections; a later request opens a new one."""
        self._transport.close()

    def _post_with_retries(self, data: bytes) -> dict | None:
        """POST one serialised request until it gives a 200 with a JSON
        body; the body, or None when retries ran out. A 408, a 429 and any
        5xx are retried, as RFC 9110 (sections 15.5.9 and 15.6) calls them
        transient. A 429 or 503 with a delta-seconds Retry-After waits that
        long (at most MAX_RETRY_AFTER_S); any other retry waits a random
        time up to the exponential backoff."""
        for attempt in range(MAX_RETRIES + 1):
            wait = None
            try:
                status, headers, body = self._transport.send(data)
            except OSError as exc:
                # refused connections, timeouts, TLS failures and malformed
                # or truncated answers
                reason = f"connection error: {exc}"
            else:
                if status == 200:
                    try:
                        return json.loads(body)
                    except (ValueError, RecursionError):  # RecursionError: nested too deep
                        reason = "invalid JSON in response body"
                elif status in (401, 403):
                    raise AuthenticationError(
                        f"endpoint returned HTTP {status}; check {API_KEY_ENV}"
                    )
                elif status in (408, 429) or 500 <= status <= 599:
                    reason = f"HTTP {status}"
                    if status in _RETRY_AFTER_STATUS:
                        wait = _retry_after_s(headers.get("retry-after"))
                else:
                    text = body.decode("utf-8", errors="replace")
                    raise RequestError(f"endpoint returned HTTP {status}: {text[:200]}")
            if attempt < MAX_RETRIES:
                if wait is None:
                    # full jitter: concurrent clients do not retry in step
                    wait = random.uniform(0, BACKOFF_BASE_S * 2**attempt)
                log.warning(
                    "request failed (%s); retry %d/%d in %.1fs",
                    reason, attempt + 1, MAX_RETRIES, wait,
                )
                time.sleep(wait)
            else:
                log.warning("request failed (%s); retries exhausted", reason)
        return None

    def _payload(
        self, prompt: RenderedPrompt, n: int, temperature: float, max_tokens: int
    ) -> bytes:
        """The serialised request body."""
        messages = [
            {"role": "system", "content": prompt.system},
            {"role": "user", "content": prompt.user},
        ]
        if prompt.assistant_prefill:
            messages.append({"role": "assistant", "content": prompt.assistant_prefill})
        payload = {
            "model": self.model,
            "messages": messages,
            "temperature": temperature,
            "max_tokens": max_tokens,
            "n": n,
            "logprobs": True,
        }
        # allow_nan=False: NaN and infinities are not JSON
        return json.dumps(payload, allow_nan=False).encode("utf-8")

    @staticmethod
    def _sample_from_choice(
        doc_id: str, prompt_hash: str, index: int, choice
    ) -> RawSample | None:
        """The sample one choice of an answer holds, or None when the choice
        or its message is no JSON object or its content no string. A null or
        missing message or content is an empty text."""
        if not isinstance(choice, dict):
            return None
        message = choice.get("message")
        message = {} if message is None else message
        if not isinstance(message, dict):
            return None
        text = message.get("content")
        text = "" if text is None else text
        if not isinstance(text, str):
            return None
        lp_sum, lp_n = None, 0
        lpinfo = choice.get("logprobs")
        if isinstance(lpinfo, dict) and isinstance(lpinfo.get("content"), list):
            lp_sum, lp_n = _content_logprobs(lpinfo["content"])
        return RawSample(
            doc_id=doc_id,
            prompt_hash=prompt_hash,
            sample_index=index,
            text=text,
            lp_sum=lp_sum,
            lp_n=lp_n,
            finish_reason=str(choice.get("finish_reason") or "unknown"),
        )

    def sample_completions(
        self,
        prompt: RenderedPrompt,
        doc_id: str,
        indices: list[int],
        temperature: float,
        max_tokens: int,
    ) -> Iterator[RawSample]:
        """Yield the samples received for the slots `indices`, in slot
        order, each as soon as its answer is read.

        `choices` mode serves all the slots from one request, `per-request`
        mode each slot from a request of its own; every request sends the
        one body, serialised once. A slot whose request ran out of
        retries, that the answer left out, or whose choice has the wrong
        shape (`_sample_from_choice`), is absent. A fatal error
        (`AuthenticationError`, `RequestError`) is raised after the samples
        of the answers before it have been yielded, so a caller keeps them.
        """
        if not indices:
            return
        groups = [indices] if self.request_mode == "choices" else [[i] for i in indices]
        data = self._payload(prompt, len(groups[0]), temperature, max_tokens)
        for slots in groups:
            body = self._post_with_retries(data)
            choices = body.get("choices") if isinstance(body, dict) else None
            if not isinstance(choices, list):
                continue
            received = [
                self._sample_from_choice(doc_id, prompt.prompt_hash, index, choice)
                for index, choice in zip(slots, choices)
            ]
            kept = [s for s in received if s is not None]
            if len(kept) < len(received):
                log.warning(
                    "document %s: %d choice(s) of an answer had the wrong shape; "
                    "their sample(s) are absent",
                    doc_id,
                    len(received) - len(kept),
                )
            yield from kept


# The start of a cache line as `put` writes it: the record's first field,
# spaced as `json.dumps` spaces it. An id holding an escape (a quote, a
# backslash, a control character) does not match, nor does another key order.
_DOC_ID_PREFIX = re.compile(rb'\{"doc_id": "([^"\\]*)", ')


class SampleCache:
    """Append-only JSON-lines store of RawSamples, keyed by
    (doc_id, prompt_hash, sample_index), a sample's first three fields.
    First write for a key wins. A line is one JSON object of the
    `RawSample` fields, by name, in field order. The file's directory must
    exist before the first `put`; `harness.grid` makes it before a fetch.

    `doc_ids` is the set of documents a run can ask for. Given it, the load
    skips without decoding each line that starts as `put` writes it
    (`_DOC_ID_PREFIX`) with a doc_id not in `doc_ids`, and decodes every
    other line as a full load does. So `get` answers for a document in
    `doc_ids` exactly as after a full load, and the corrupt-line warnings
    of the lines it reads keep their line numbers; the lines of other
    documents cost one regex match each, and their corruption goes
    unreported. A line whose JSON names `doc_id` twice, which `put` never
    writes, is judged by the first. `doc_ids=None` loads every line.

    Each `put` appends its batch with a single `os.write` to an `O_APPEND`
    descriptor, so the batch lands whole at the end of the file even when
    another process appends to the same file at the same time. Two writers
    may both append a key neither had loaded; a reload keeps the line that
    came first. A file that ends without a newline when a batch is appended
    (a write cut short) gets one before the batch, in that same write, so
    the batch does not join the torn line. The append holds an exclusive
    `flock` on the file from that check to the end of its write, so it
    never sees another `put`'s batch half-written.

    The load reads bytes and splits them on `\n` only; a line that is not
    UTF-8 (a write cut inside a character) is one more corrupt line.
    """

    def __init__(self, path: str | Path, doc_ids: set[str] | None = None):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._index: dict[tuple[str, str, int], RawSample] = {}
        self._load(doc_ids)

    def _load(self, doc_ids: set[str] | None) -> None:
        if not self.path.exists():
            return
        corrupt = 0
        match = _DOC_ID_PREFIX.match
        if doc_ids is not None:
            # as bytes, the form the prefix match captures; an id holding a
            # lone surrogate (a JSON escape) matches no line
            doc_ids = {doc_id.encode("utf-8", "surrogatepass") for doc_id in doc_ids}
        with open(self.path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if doc_ids is not None:
                    m = match(line)
                    if m is not None and m[1] not in doc_ids:
                        continue
                try:
                    line = line.decode("utf-8")
                    if not line.strip():
                        continue
                    sample = self._decode(json.loads(line))  # too deep: RecursionError
                except (ValueError, TypeError, KeyError, RecursionError):
                    corrupt += 1
                    log.warning("%s:%d: skipping corrupt cache line", self.path, lineno)
                    continue
                self._index.setdefault(sample[:3], sample)
        if corrupt:
            log.warning("%s: skipped %d corrupt cache line(s)", self.path, corrupt)

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

    def get(self, doc_id: str, prompt_hash: str, sample_index: int) -> RawSample | None:
        return self._index.get((doc_id, prompt_hash, sample_index))

    def put(self, *samples: RawSample) -> None:
        """Append the samples whose keys are new with one open and one write;
        the first write for a key wins, within one call too."""
        with self._lock:
            new: dict[tuple[str, str, int], RawSample] = {}
            for sample in samples:
                key = sample[:3]
                if key not in self._index:
                    new.setdefault(key, sample)
            if not new:
                return
            data = b"".join(map(self._line, new.values()))
            import fcntl  # only a run that writes loads it

            fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                # held until the close: no other put writes between the
                # check of the last byte and this write
                fcntl.flock(fd, fcntl.LOCK_EX)
                # a torn last line is closed first, so it does not swallow the batch
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    data = b"\n" + data
                written = os.write(fd, data)
                # A regular file takes the whole batch in one write; only a
                # full disk or a signal cuts it short, and then the rest
                # still goes out rather than being lost.
                while written < len(data):
                    written += os.write(fd, data[written:])
            finally:
                os.close(fd)
            self._index.update(new)

    def __len__(self) -> int:
        return len(self._index)
