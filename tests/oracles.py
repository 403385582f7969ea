"""Independent brute-force reference implementations.

Everything here is deliberately written from the definitions, in the most
obvious way possible, sharing no code with the package: the test suite
compares library outputs against these.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"


# ---- aggregation over already-normalized, per-sample-distinct strings ----

def union_oracle(samples: list[list[str]]) -> list[str]:
    members = set()
    for sample in samples:
        members |= set(sample)
    return sorted(members)


def union_concat_oracle(samples: list[list[str]]) -> list[str]:
    out: list[str] = []
    for sample in samples:
        for phrase in sample:
            if phrase not in out:
                out.append(phrase)
    return out


def union_interleaf_oracle(samples: list[list[str]]) -> list[str]:
    out: list[str] = []
    longest = max((len(s) for s in samples), default=0)
    for pos in range(longest):
        for sample in samples:
            if pos < len(sample) and sample[pos] not in out:
                out.append(sample[pos])
    return out


def frequency_order_oracle(samples: list[list[str]]) -> list[str]:
    interleaf = union_interleaf_oracle(samples)
    freq = {p: sum(1 for s in samples if p in s) for p in interleaf}
    return sorted(interleaf, key=lambda p: (-freq[p], interleaf.index(p)))


def single_oracle(samples: list[list[tuple[str, bool]]]) -> dict:
    """The `single` prediction written out: the best-ranked sample split by
    presence, each part kept whole, with M its own length; all empty without
    samples. Samples are lists of (normalized, is_present), best first."""
    present = [p for p, is_present in samples[0] if is_present] if samples else []
    absent = [p for p, is_present in samples[0] if not is_present] if samples else []
    return {
        "present": present,
        "absent": absent,
        "m_pre": len(present),
        "m_abs": len(absent),
        "present_full": present,
        "absent_full": absent,
    }


def ceil_mean_oracle(counts: list[int]) -> int:
    if not counts:
        return 0
    return math.ceil(Fraction(sum(counts), len(counts)))


# ---- perplexity over the per-token list ----

def perplexity_oracle(logprobs: list[float], mode: str) -> float | None:
    """exp of the negative summed (mode "sum") or mean (mode "mean") token
    log-likelihood, from the list itself; None without logprobs."""
    if not logprobs:
        return None
    nll = -sum(logprobs)
    if mode == "mean":
        nll /= len(logprobs)
    try:
        return math.exp(nll)
    except OverflowError:
        return math.inf


# ---- metrics ----

def prf_oracle(
    pred: list[str], gold: set[str], k: int | None = None, pad: bool = False
) -> tuple[float, float, float]:
    if k is not None:
        pred = pred[:k]
    hits = len(set(pred) & gold)
    denom = len(pred)
    if pad and k is not None and denom < k:
        denom = k
    precision = hits / denom if denom else 0.0
    recall = hits / len(gold)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def recall_oracle(pred: list[str], gold: set[str]) -> float:
    return len(set(pred) & gold) / len(gold)


# ---- text ----

def window_scan_oracle(haystack: list[str], needle: list[str]) -> bool:
    if not needle:
        return False
    return any(
        haystack[i : i + len(needle)] == needle
        for i in range(len(haystack) - len(needle) + 1)
    )


def tokenize_oracle(text: str) -> list[str]:
    """The word tokens of `text`, each lowercased on its own."""
    return [t.lower() for t in re.findall(r"[^\W_]+", text)]


def normalize_oracle(text: str) -> list[str]:
    """`tokenize_oracle`'s tokens with each plain ASCII-letter token stemmed
    by `porter_oracle`; digits and non-ASCII tokens are kept."""
    return [
        porter_oracle(t) if re.fullmatch(r"[a-z]+", t) else t for t in tokenize_oracle(text)
    ]


def phrases_oracle(surfaces: list[str], source_tokens: list[str], normalize) -> list[tuple]:
    """(surface, normalized, present) of each phrase made of `surfaces`:
    `normalize(surface)` is its token list, a surface without tokens is
    dropped, only the first surface of each normalized form is kept, and a
    phrase is present when a window of `source_tokens` equals its tokens."""
    out: list[tuple] = []
    for surface in surfaces:
        tokens = normalize(surface)
        normalized = " ".join(tokens)
        if tokens and normalized not in [kept for _, kept, _ in out]:
            out.append((surface, normalized, window_scan_oracle(source_tokens, tokens)))
    return out


_stem_table: dict[str, str] | None = None


def reference_stems() -> dict[str, str]:
    """word -> stem pairs frozen from an independent stemmer implementation."""
    global _stem_table
    if _stem_table is None:
        _stem_table = {}
        with open(DATA_DIR / "porter_reference.tsv", encoding="utf-8") as fh:
            for line in fh:
                word, _, stem = line.rstrip("\n").partition("\t")
                _stem_table[word] = stem
    return _stem_table


# ---- Porter stemmer, letter by letter ----
#
# The stemmer as first written: a recursive consonant test per letter and a
# scan of every suffix table in full. `kpagg.porter` computes the same stems
# from one consonant/vowel map per word and letter-indexed tables.

def _porter_is_cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in "aeiou":
        return False
    if ch == "y":
        return True if i == 0 else not _porter_is_cons(word, i - 1)
    return True


def _porter_measure(stem: str) -> int:
    """Number of VC sequences in the [C](VC)^m[V] decomposition of stem."""
    n = len(stem)
    i = 0
    while i < n and _porter_is_cons(stem, i):
        i += 1
    m = 0
    while i < n:
        while i < n and not _porter_is_cons(stem, i):
            i += 1
        if i >= n:
            break
        m += 1
        while i < n and _porter_is_cons(stem, i):
            i += 1
    return m


def _porter_has_vowel(stem: str) -> bool:
    return any(not _porter_is_cons(stem, i) for i in range(len(stem)))


def _porter_ends_double_cons(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _porter_is_cons(word, len(word) - 1)
    )


def _porter_ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant at the end, final consonant not w, x or y;
    # used to decide whether to restore a trailing 'e' (hop-e, fil-e).
    n = len(word)
    return (
        n >= 3
        and _porter_is_cons(word, n - 1)
        and not _porter_is_cons(word, n - 2)
        and _porter_is_cons(word, n - 3)
        and word[-1] not in "wxy"
    )


# (suffix, replacement) tables; within each table the first suffix that
# matches is consumed whether or not the measure condition lets it rewrite.
_porter_STEP2 = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
    ("logi", "log"),
)

_porter_STEP3 = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_porter_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _porter_step1ab(word: str) -> str:
    if word.endswith("s"):
        if word.endswith("sses"):
            word = word[:-2]
        elif word.endswith("ies"):
            word = word[:-3] + "i"
        elif not word.endswith("ss"):
            word = word[:-1]
    if word.endswith("eed"):
        if _porter_measure(word[:-3]) > 0:
            word = word[:-1]
    elif word.endswith("ed") and _porter_has_vowel(word[:-2]):
        word = _porter_tidy_after_deletion(word[:-2])
    elif word.endswith("ing") and _porter_has_vowel(word[:-3]):
        word = _porter_tidy_after_deletion(word[:-3])
    return word


def _porter_tidy_after_deletion(word: str) -> str:
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _porter_ends_double_cons(word) and word[-1] not in "lsz":
        return word[:-1]
    if _porter_measure(word) == 1 and _porter_ends_cvc(word):
        return word + "e"
    return word


def _porter_step1c(word: str) -> str:
    if word.endswith("y") and _porter_has_vowel(word[:-1]):
        word = word[:-1] + "i"
    return word


def _porter_map_suffix(word: str, table, min_measure: int = 0) -> str:
    for suffix, repl in table:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _porter_measure(stem) > min_measure:
                word = stem + repl
            break
    return word


def _porter_step4(word: str) -> str:
    for suffix in _porter_STEP4:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                continue
            if _porter_measure(stem) > 1:
                word = stem
            break
    return word


def _porter_step5(word: str) -> str:
    if word.endswith("e"):
        m = _porter_measure(word[:-1])
        if m > 1 or (m == 1 and not _porter_ends_cvc(word[:-1])):
            word = word[:-1]
    if word.endswith("l") and _porter_ends_double_cons(word) and _porter_measure(word[:-1]) > 1:
        word = word[:-1]
    return word


def porter_oracle(word: str) -> str:
    """Stem a single lowercase ASCII word."""
    if len(word) <= 2:
        return word
    word = _porter_step1ab(word)
    word = _porter_step1c(word)
    word = _porter_map_suffix(word, _porter_STEP2)
    word = _porter_map_suffix(word, _porter_STEP3)
    word = _porter_step4(word)
    word = _porter_step5(word)
    return word


# ---- keyphrase list parsing, character by character ----

_PARSE_STRIP_CHARS = " \t\r\n\"'`[]"
_PARSE_BLANKS = " \t\r\n"


def _list_content_oracle(text: str, start: int) -> tuple[str, bool]:
    """Text between the bracket at `start` and its matching close, and
    whether the list closes (else the text runs to the end). A quote opens
    a quoted run only at the start of an item (see `_split_top_level_oracle`)."""
    depth = 1
    quote = None
    item_start = True
    for i in range(start + 1, len(text)):
        ch = text[i]
        if quote:
            if ch == quote:
                quote = None
            continue
        if ch in "\"'" and item_start:
            quote = ch
        elif ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                return text[start + 1 : i], True
        if ch in "[,\n":
            item_start = True
        elif ch not in _PARSE_BLANKS:
            item_start = False
    return text[start + 1 :], False


def _split_top_level_oracle(content: str) -> list[str]:
    """Split on commas and newlines outside quotes and nested brackets. A
    quote opens a quoted run only as the first non-blank character after a
    `[`, a comma, a newline or the start of `content`; anywhere else it is
    plain text."""
    items: list[str] = []
    buf: list[str] = []
    depth = 0
    quote = None
    item_start = True
    for ch in content:
        if quote:
            buf.append(ch)
            if ch == quote:
                quote = None
            continue
        if ch in "\"'" and item_start:
            quote = ch
            buf.append(ch)
        elif ch == "[":
            depth += 1
            buf.append(ch)
        elif ch == "]":
            depth = max(0, depth - 1)
            buf.append(ch)
        elif (ch == "," or ch == "\n") and depth == 0:
            items.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
        if ch in "[,\n":
            item_start = True
        elif ch not in _PARSE_BLANKS:
            item_start = False
    items.append("".join(buf))
    return items


def parse_sample_oracle(
    raw_text: str, had_prefill: bool, truncated: bool = False
) -> tuple[tuple[str, ...], bool, bool]:
    """(phrases, fallback, restarted) as `kpagg.llm_client.parse_sample`
    gives them. A text that, after a prefill, opens its own list (its first
    character other than a space, tab, CR or LF is `[`) is read without the
    prefill, and is restarted. A truncated text whose items run to its end,
    an unclosed list or fallback text, drops its last item."""
    head = next((c for c in raw_text if c not in " \t\r\n"), "")
    restarted = had_prefill and head == "["
    full = ("[" if had_prefill and not restarted else "") + raw_text
    start = full.find("[")
    fallback = start < 0
    content, closed = (full, False) if fallback else _list_content_oracle(full, start)
    items = _split_top_level_oracle(content)
    if truncated and not closed:
        items = items[:-1]
    phrases = tuple(
        cleaned for item in items if (cleaned := item.strip(_PARSE_STRIP_CHARS))
    )
    return phrases, fallback or not phrases, restarted


def choice_text_oracle(choice) -> str | None:
    """The text one choice of an answer yields: its message's content, ""
    when the message or the content is null or missing; None (an absent
    slot) when the choice or its message is no JSON object or the content
    is no string."""
    if not isinstance(choice, dict):
        return None
    message = choice.get("message")
    if message is None:
        return ""
    if not isinstance(message, dict):
        return None
    content = message.get("content")
    if content is None:
        return ""
    return content if isinstance(content, str) else None


def received_texts_oracle(
    mode: str, indices: list[int], bodies: list
) -> tuple[list[tuple[int, str]], list[int]]:
    """What a client does when its k-th request gets `bodies[k]`: the
    (slot, text) pairs it returns, in the order it returns them, and the
    number of choices each request it sends asks for.

    A request asks for the lowest-numbered slots still missing: all of them
    in mode "choices", the lowest one otherwise. Its answer's i-th choice
    fills the i-th slot asked for when `choice_text_oracle` gives it a text;
    a body without a `choices` list fills nothing. After `len(indices)`
    requests, after the one that fills the last missing slot, or after one
    that fills nothing while it asked for every missing slot, no request
    follows."""
    got, asked_counts = [], []
    missing = sorted(indices)
    for body in bodies[: len(indices)]:
        asked = missing if mode == "choices" else missing[:1]
        asked_counts.append(len(asked))
        choices = body.get("choices") if isinstance(body, dict) else None
        if not isinstance(choices, list):
            choices = []
        filled = [
            (slot, text)
            for slot, choice in zip(asked, choices)
            if (text := choice_text_oracle(choice)) is not None
        ]
        got += filled
        if not filled and asked == missing:
            break
        done = {slot for slot, _ in filled}
        missing = [slot for slot in missing if slot not in done]
        if not missing:
            break
    return got, asked_counts


def received_slots_oracle(
    mode: str, indices: list[int], bodies: list
) -> tuple[list[int], list[int]]:
    """The slots of `received_texts_oracle`, in the same order, and the
    number of choices each request asks for."""
    got, asked_counts = received_texts_oracle(mode, indices, bodies)
    return [slot for slot, _ in got], asked_counts


# ---- the whole report, composed from the stage oracles ----

STRATEGY_ORACLES = {
    "union": union_oracle,
    "union_concat": union_concat_oracle,
    "union_interleaf": union_interleaf_oracle,
    "frequency_order": frequency_order_oracle,
}


def _ranked_oracle(samples: list, perplexities: list) -> list:
    """`samples` by ascending perplexity, unknown (None or NaN) last, equal
    keys in their original order."""
    def unknown(ppl):
        return ppl is None or math.isnan(ppl)

    keys = [(True, 0.0) if unknown(p) else (False, p) for p in perplexities]
    return [samples[i] for i in sorted(range(len(samples)), key=keys.__getitem__)]


def _document_scores_oracle(document: dict, strategy: str, ppl_mode: str, empty_gold: str) -> dict:
    """One document's {(partition, metric): value}: its samples parsed,
    normalized against the stemmed source, ranked, merged, cut at the
    ceiling of the mean per-sample count, and scored per partition."""
    source = normalize_oracle(document["source"])
    classified = [
        [
            (normalized, present)
            for _, normalized, present in phrases_oracle(
                list(parse_sample_oracle(s["text"], document["had_prefill"], s["truncated"])[0]),
                source,
                normalize_oracle,
            )
        ]
        for s in document["samples"]
    ]
    perplexities = [perplexity_oracle(s["logprobs"], ppl_mode) for s in document["samples"]]
    ranked = _ranked_oracle(classified, perplexities)
    if strategy == "single":
        cut = single_oracle(ranked)
        parts = {
            "present": (cut["present_full"], cut["m_pre"]),
            "absent": (cut["absent_full"], cut["m_abs"]),
        }
    else:
        merged = STRATEGY_ORACLES[strategy]([[p for p, _ in sample] for sample in ranked])
        presence = {p: present for sample in ranked for p, present in sample}
        parts = {
            partition: (
                [p for p in merged if presence[p] is want],
                ceil_mean_oracle([sum(1 for _, pr in s if pr is want) for s in ranked]),
            )
            for partition, want in (("present", True), ("absent", False))
        }
    gold = phrases_oracle(list(document["gold"]), source, normalize_oracle)
    scores = {}
    for partition, want in (("present", True), ("absent", False)):
        gold_set = {normalized for _, normalized, present in gold if present is want}
        full, m = parts[partition]
        if not gold_set:
            if empty_gold == "zero":
                for metric in ("f1_at_m", "f1_at_5", "r_at_10", "r_at_inf"):
                    scores[(partition, metric)] = 0.0
            continue
        scores[(partition, "f1_at_m")] = prf_oracle(full, gold_set, k=m)[2]
        scores[(partition, "f1_at_5")] = prf_oracle(full, gold_set, k=5, pad=True)[2]
        scores[(partition, "r_at_10")] = prf_oracle(full, gold_set, k=10)[1]
        scores[(partition, "r_at_inf")] = recall_oracle(full, gold_set)
    return scores


def report_oracle(documents: list[dict], strategy: str, ppl_mode: str, empty_gold: str) -> tuple:
    """(table, counts) of one config's report over `documents`: each cell
    the plain mean of the documents that have it (None without any), and
    their number. A document is a dict with `source` (title, space, body),
    `gold` (surface strings), `had_prefill` and `samples`, each a dict with
    `text`, `logprobs` (a list, or None) and `truncated`; a document
    without samples has no record."""
    records = [
        _document_scores_oracle(document, strategy, ppl_mode, empty_gold)
        for document in documents
        if document["samples"]
    ]
    table, counts = {}, {}
    for partition in ("present", "absent"):
        for metric in ("f1_at_m", "f1_at_5", "r_at_10", "r_at_inf"):
            values = [r[(partition, metric)] for r in records if (partition, metric) in r]
            table[(partition, metric)] = sum(values) / len(values) if values else None
            counts[(partition, metric)] = len(values)
    return table, counts


# ---- the mock server's answer ----

def mock_answer_oracle(samples: list[dict], n: int, prefill: bool, logprobs: bool, model) -> dict:
    """The answer the mock server gives to a request for n choices from a
    fixture's samples, built one choice object at a time: choice i is
    sample i % len(samples), its text gains a leading "[" unless the
    request carries an assistant prefill turn, its finish reason is the
    sample's or "stop", and its logprobs show only when the request asks
    for them and the sample has them."""
    choices = []
    for i in range(n):
        sample = samples[i % len(samples)]
        text = sample.get("text", "")
        choice = {
            "index": i,
            "message": {"role": "assistant", "content": text if prefill else "[" + text},
            "finish_reason": sample.get("finish_reason", "stop"),
            "logprobs": None,
        }
        if logprobs and sample.get("logprobs") is not None:
            choice["logprobs"] = {
                "content": [
                    {"token": f"t{j}", "logprob": lp} for j, lp in enumerate(sample["logprobs"])
                ]
            }
        choices.append(choice)
    return {
        "id": "mock-completion", "object": "chat.completion", "model": model, "choices": choices
    }


# ---- the sample cache ----

_PUT_PREFIX_ORACLE = re.compile(rb'\{"doc_id": "([^"\\]*)", ')


def cache_load_oracle(content: bytes, doc_ids: set[str], decode) -> tuple[dict, list[int]]:
    """A cache file as a load read it while it decoded every line it kept:
    each line, split on `\\n` only, that starts as `put` writes it with an
    id outside `doc_ids` is skipped; every other nonblank line is decoded
    with `decode` (the package's field rules, which are not what this
    checks) or is corrupt. Returns {key: (line number, sample)} for the
    first line of each key, and the numbers of the corrupt lines."""
    wanted = {doc_id.encode("utf-8", "surrogatepass") for doc_id in doc_ids}
    lines = content.split(b"\n")
    if lines[-1] == b"":  # the end of the last line, not a line
        lines.pop()
    index, corrupt = {}, []
    for lineno, line in enumerate(lines, start=1):
        m = _PUT_PREFIX_ORACLE.match(line)
        if m is not None and m[1] not in wanted:
            continue
        try:
            text = line.decode("utf-8")
            if not text.strip():
                continue
            sample = decode(json.loads(text))
        except (ValueError, TypeError, KeyError, RecursionError):
            corrupt.append(lineno)
            continue
        index.setdefault(sample[:3], (lineno, sample))
    return index, corrupt
