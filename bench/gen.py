"""Deterministic benchmark inputs: corpus and mock-server fixtures.

Everything is drawn from one `random.Random(seed)` and the word column of
the repository's Porter reference vocabulary, so the same seed gives the
same bytes on every machine. Words follow a Zipf law over the full
vocabulary; drawing from only the most common words would flatter any
per-word memoisation. The frequency rank of each word is fixed, as in a
language, and only the draws depend on the seed: the few most frequent
words make up a large share of all tokens, so a seed-dependent order would
let the stemming cost of a handful of words decide a run's time.

Gold lists and sampled lists mix phrases copied from the document (present)
with phrases drawn from the vocabulary (mostly absent), 1 to 3 words long.
Each sample carries 20 to 60 token logprobs, as a chat endpoint returns.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from pathlib import Path

VOCAB_PATH = Path("tests") / "data" / "porter_reference.tsv"
TOY_FIXTURES_PATH = Path("tests") / "data" / "mock_fixtures.json"

ZIPF_EXPONENT = 1.05
RANK_ORDER_SEED = 0
N_SAMPLES = 10
# Fractional parts of the golden ratio, sqrt(2) and sqrt(3).
GOLDEN, SQRT2, SQRT3 = 0.6180339887498949, 0.4142135623730951, 0.7320508075688772


def load_vocabulary(root: Path) -> list[str]:
    with open(root / VOCAB_PATH, encoding="utf-8") as fh:
        return [line.split("\t", 1)[0] for line in fh if line.strip()]


class Zipf:
    """Weighted word draws by bisection over precomputed cumulative weights
    (a weighted `random.choices` call per draw is orders of magnitude slower)."""

    def __init__(self, words: list[str], rng: random.Random, exponent: float):
        self.words = list(words)
        random.Random(RANK_ORDER_SEED).shuffle(self.words)
        self.cum = list(
            itertools.accumulate(1.0 / r**exponent for r in range(1, len(words) + 1))
        )
        self.total = self.cum[-1]
        self.rng = rng

    def draw(self) -> str:
        return self.words[bisect.bisect_right(self.cum, self.rng.random() * self.total)]

    def phrase(self) -> str:
        return " ".join(self.draw() for _ in range(_phrase_length(self.rng)))


def _phrase_length(rng: random.Random) -> int:
    x = rng.random()
    return 1 if x < 0.3 else 2 if x < 0.8 else 3


def _present_phrase(words: list[str], rng: random.Random) -> str:
    n = _phrase_length(rng)
    start = rng.randrange(len(words) - n + 1)
    return " ".join(words[start : start + n])


def _spread(rng: random.Random, n: int, lo: int, hi: int, step: float) -> list[int]:
    """n integers covering lo..hi evenly, in an order in which every prefix
    covers it evenly too (an irrational-step sequence from a random start).
    Per-document sizes still vary, but the total work of the first k
    documents barely depends on the seed, which keeps timings comparable
    across seeds."""
    start = rng.random()
    return [lo + int((hi - lo + 1) * ((start + j * step) % 1.0)) for j in range(n)]


def _abstract(zipf: Zipf, rng: random.Random, length: int) -> list[list[str]]:
    sentences = []
    remaining = length
    while remaining > 0:
        sentence = [zipf.draw() for _ in range(min(remaining, rng.randint(8, 20)))]
        sentences.append(sentence)
        remaining -= len(sentence)
    return sentences


def _sample_text(pool: list[str], weights: list[float], length: int, rng: random.Random) -> str:
    if rng.random() < 0.02:
        return "]"  # an empty list: the harness counts it as a parse fallback
    phrases = []
    for _ in range(length):
        phrase = rng.choices(pool, weights)[0]
        if rng.random() < 0.1:
            phrase = phrase.title()
        elif rng.random() < 0.05:
            phrase += "s"
        phrases.append(phrase)
    return ", ".join(f'"{p}"' for p in phrases) + "]"


def _sample(pool: list[str], weights: list[float], length: int, rng: random.Random) -> dict:
    sample = {"text": _sample_text(pool, weights, length, rng)}
    if rng.random() >= 0.05:  # a few samples come back without logprobs
        scale = 0.2 + rng.random()
        sample["logprobs"] = [
            -round(rng.random() * 2 * scale, 4) for _ in range(rng.randint(20, 60))
        ]
    return sample


def make_inputs(root: Path, seed: int, n_docs: int) -> tuple[list[dict], list[dict]]:
    """Return (corpus records, fixture responses) for `n_docs` documents."""
    rng = random.Random(seed)
    zipf = Zipf(load_vocabulary(root), rng, ZIPF_EXPONENT)
    abstract_lengths = _spread(rng, n_docs, 140, 220, GOLDEN)
    present_counts = _spread(rng, n_docs, 3, 8, SQRT2)
    absent_counts = _spread(rng, n_docs, 1, 4, SQRT3)
    sample_lengths = _spread(rng, n_docs * N_SAMPLES, 3, 10, GOLDEN)
    records = []
    responses = []
    titles = set()
    while len(records) < n_docs:
        j = len(records)
        title_words = [zipf.draw() for _ in range(rng.randint(5, 10))]
        title = " ".join(w.capitalize() for w in title_words)
        if title in titles:
            continue
        titles.add(title)
        sentences = _abstract(zipf, rng, abstract_lengths[j])
        abstract = " ".join(
            " ".join([s[0].capitalize(), *s[1:]]) + "." for s in sentences
        )
        words = title_words + [w for s in sentences for w in s]
        present = [_present_phrase(words, rng) for _ in range(present_counts[j])]
        absent = [zipf.phrase() for _ in range(absent_counts[j])]
        gold = present + absent
        pool = gold + [_present_phrase(words, rng) for _ in range(4)]
        pool += [zipf.phrase() for _ in range(4)]
        weights = [3.0] * len(gold) + [1.0] * (len(pool) - len(gold))
        records.append(
            {
                "id": f"s{seed}-d{j:05d}",
                "title": title,
                "abstract": abstract,
                "keyphrases": gold,
                "domain": "news" if rng.random() < 0.1 else "scientific",
            }
        )
        responses.append(
            {
                # "Title: ...\nAbstract:" occurs once per prompt and titles are
                # unique, so the mock server's substring match is unambiguous.
                "match": f"Title: {title}\nAbstract:",
                "samples": [
                    _sample(pool, weights, sample_lengths[j * N_SAMPLES + i], rng)
                    for i in range(N_SAMPLES)
                ],
            }
        )
    return records, responses


def write_inputs(root: Path, seed: int, n_docs: int, corpus_path: Path, fixtures_path: Path) -> None:
    """Write the corpus and a fixtures file that also serves the toy corpus."""
    records, responses = make_inputs(root, seed, n_docs)
    toy = json.loads((root / TOY_FIXTURES_PATH).read_text(encoding="utf-8"))
    fixtures = {"responses": toy["responses"] + responses, "default": toy.get("default")}
    corpus_path.parent.mkdir(parents=True, exist_ok=True)
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    fixtures_path.write_text(json.dumps(fixtures), encoding="utf-8")
