"""Chat-completions client, sample parsing and perplexity.

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
perplexity modes; `kpagg.cache` keeps the samples a run fetched.
"""

from __future__ import annotations

import json
import logging
import math
import random
import re
import time
import urllib.parse
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
    restarted: bool  # the completion opened its own list after a prefill


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
    expected to be a bracketed list. A completion that opens its own list
    after a prefill (its first character that is no JSON blank is `[`), as
    an endpoint that answers a trailing assistant turn afresh sends it, is
    read alone and flagged as restarted. One scan, from just after the first
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
    restarted = bool(prefill) and raw_text.lstrip(" \t\r\n").startswith("[")
    full = raw_text if restarted else prefill + raw_text
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
    return ParsedSample(phrases=tuple(phrases), fallback=fallback, restarted=restarted)


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
        self._refusal: LLMClientError | None = None  # the endpoint's first fatal answer
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
        time up to the exponential backoff. The first fatal answer, a 401 or
        403 (AuthenticationError) or other status (RequestError), is kept:
        every later attempt, on any thread, raises a copy and sends nothing."""
        for attempt in range(MAX_RETRIES + 1):
            if self._refusal is not None:
                raise type(self._refusal)(*self._refusal.args)
            wait = refusal = None
            try:
                # a refusal that came meanwhile stops the transport's resend too
                status, headers, body = self._transport.send(data, lambda: self._refusal is None)
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
                    refusal = AuthenticationError(
                        f"endpoint returned HTTP {status}; check {API_KEY_ENV}"
                    )
                elif status in (408, 429) or 500 <= status <= 599:
                    reason = f"HTTP {status}"
                    if status in _RETRY_AFTER_STATUS:
                        wait = _retry_after_s(headers.get("retry-after"))
                else:
                    text = body.decode("utf-8", errors="replace")
                    refusal = RequestError(f"endpoint returned HTTP {status}: {text[:200]}")
            if refusal is not None:
                # kept before it is raised, so no later attempt sends; of
                # two fatal answers at once either may be kept, as both refuse
                self._refusal = self._refusal or refusal
                raise refusal
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
