"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``CRITERION <n> PASS/FAIL/SKIP`` line (visible
with ``pytest -s``) and enforces its stated tolerance. Criteria 7 and 9
need external resources (a public dataset file / a live endpoint); they
skip with a notice when those are not supplied.
"""

import itertools
import math
import os
import random
import time
from pathlib import Path

import pytest

from kpagg import harness
from kpagg.aggregation import (
    aggregate_frequency_order,
    aggregate_union,
    aggregate_union_concat,
    aggregate_union_interleaf,
    predict,
    rank,
)
from kpagg.cli import main
from kpagg.corpus import Document, load_corpus
from kpagg.metrics import score_at_k, score_at_m, score_document
from kpagg.mock_server import running_server
from kpagg.porter import stem
from kpagg.textnorm import NormalizedSource, tokenize

from . import oracles
from .conftest import EXPECTED_REPORT, MOCK_FIXTURES, TOY_CORPUS

INSPEC_ENV = "KPAGG_INSPEC_PATH"
SMOKE_ENV = "KPAGG_SMOKE_ENDPOINT"


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def skip(criterion: int, notice: str) -> None:
    print(f"\nCRITERION {criterion} SKIP: {notice}")
    pytest.skip(f"criterion {criterion}: {notice}")


# --- shared builders ---------------------------------------------------------

def sample_set(symbol_lists) -> tuple:
    """A ranked set of the given samples, best first."""
    return tuple(tuple(symbols) for symbols in symbol_lists)


def frequency_order(ranked) -> list[str]:
    """`aggregate_frequency_order` of `ranked`, given the interleaf that
    `predict` makes for it."""
    return aggregate_frequency_order(ranked, aggregate_union_interleaf(ranked))


STRATEGY_PAIRS = (
    (aggregate_union, oracles.union_oracle),
    (aggregate_union_concat, oracles.union_concat_oracle),
    (aggregate_union_interleaf, oracles.union_interleaf_oracle),
    (frequency_order, oracles.frequency_order_oracle),
)


def first_mismatch(symbol_lists):
    ss = sample_set(symbol_lists)
    as_lists = [list(s) for s in symbol_lists]
    for impl, oracle in STRATEGY_PAIRS:
        got = impl(ss)
        want = oracle(as_lists)
        if got != want:
            return f"{impl.__name__}{as_lists} = {got}, oracle says {want}"
    return None


def distinct_lists_up_to(symbols, max_len):
    """Every duplicate-free ordered phrase list of length <= max_len."""
    space = [()]
    for k in range(1, max_len + 1):
        space.extend(itertools.permutations(symbols, k))
    return space


def test_criterion_01_aggregation_oracle_equivalence():
    # Exhaustive over every sample set in a ladder of (n, phrases, alphabet)
    # tiers; the full n<=4 x len<=5 x 6-symbol space is ~2.3e12 sample sets,
    # so the ladder covers each dimension at its limit while the others are
    # reduced, plus 10,000 random instances beyond all the limits.
    t0 = time.monotonic()
    tiers = [
        (1, 5, "abcdef"),
        (2, 3, "abcdef"),
        (2, 5, "abcd"),
        (3, 2, "abcdef"),
        (4, 2, "abcd"),
        (4, 1, "abcdef"),
    ]
    checked = 0
    failure = None
    for n, max_len, alphabet in tiers:
        space = distinct_lists_up_to(alphabet, max_len)
        for combo in itertools.product(space, repeat=n):
            failure = first_mismatch(combo)
            checked += 1
            if failure:
                break
        if failure:
            break

    rng = random.Random(0xA66)
    symbols = [f"s{i}" for i in range(12)]
    randoms = 0
    while not failure and randoms < 10_000:
        n = rng.randint(5, 10)
        combo = [
            tuple(rng.sample(symbols, rng.randint(0, 8))) for _ in range(n)
        ]
        failure = first_mismatch(combo)
        randoms += 1
    elapsed = time.monotonic() - t0

    detail = failure or (
        f"{checked} exhaustive + {randoms} random sample sets, "
        f"4 strategies each, {elapsed:.1f}s"
    )
    report(1, failure is None and elapsed < 60.0, detail)


def test_criterion_02_frequency_order_tie_break():
    out = frequency_order(sample_set([("a", "b", "c"), ("b", "a"), ("b", "d")]))
    got = list(out)
    report(2, got == ["b", "a", "d", "c"], f"S1=[a,b,c] S2=[b,a] S3=[b,d] -> {got}")


_WORDS = (
    "graph network coloring sensor protocol routing energy model decoding "
    "translation beam search duality convex wireless acoustic delay slot "
    "assignment access control scheduling adaptive penalty system neural "
    "machine learning evaluation sampling metric oracle random baseline "
    "spectrum latency buffer queue fading underwater"
).split()


def _random_doc(rng) -> Document:
    title = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 6)))
    body = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(10, 25)))
    words = (title + " " + body).split()
    gold = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.5:
            start = rng.randrange(len(words))
            gold.append(" ".join(words[start : start + rng.randint(1, 2)]))
        else:
            gold.append(" ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 3))))
    return Document(id="r", title=title, body=body, gold=tuple(gold), domain="scientific")


def _random_phrases(rng, doc) -> tuple:
    words = doc.source_text.split()
    phrases = []
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.5:
            start = rng.randrange(len(words))
            text = " ".join(words[start : start + rng.randint(1, 3)])
        else:
            text = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.3:
            text = text.title()
        phrases.append(text)
    return tuple(phrases)


def test_criterion_03_single_sample_collapse():
    rng = random.Random(0xC0FFEE)
    failure = None
    for trial in range(1_000):
        doc = _random_doc(rng)
        phrases = _random_phrases(rng, doc)
        ppl = None if rng.random() < 0.15 else rng.uniform(1, 50)
        source = NormalizedSource.from_text(doc.source_text)
        ranked = rank([source.phrases(phrases)], [ppl])
        gold = source.phrases(doc.gold)
        gold_sets = (source.present.intersection(gold), set(gold) - source.present)
        [baseline] = predict(ranked, source.present, ["single"])
        base_scores = score_document(baseline, *gold_sets, empty_gold="zero")
        for strategy in ("union_concat", "union_interleaf", "frequency_order"):
            [pred] = predict(ranked, source.present, [strategy])
            if pred != baseline:
                failure = f"trial {trial}: {strategy} prediction diverges"
                break
            scores = score_document(pred, *gold_sets, empty_gold="zero")
            if scores != base_scores:
                failure = f"trial {trial}: {strategy} metrics diverge"
                break
        if failure:
            break
    report(3, failure is None, failure or "1000 random n=1 inputs, 3 strategies vs single")


def test_criterion_04_dynamic_selection_ceiling():
    rng = random.Random(0xD0C)
    failure = None
    for trial in range(1_000):
        n = rng.randint(1, 12)
        pres_counts = [rng.randint(0, 30) for _ in range(n)]
        abs_counts = [rng.randint(0, 30) for _ in range(n)]
        samples = []
        present = set()
        for i in range(n):
            phrases = tuple(f"p{i}.{j}" for j in range(pres_counts[i]))
            present.update(phrases)
            samples.append(phrases + tuple(f"a{i}.{j}" for j in range(abs_counts[i])))
        [pred] = predict(tuple(samples), present, ["union_concat"])
        want_pre = oracles.ceil_mean_oracle(pres_counts)
        want_abs = oracles.ceil_mean_oracle(abs_counts)
        if pred.m_pre != want_pre or pred.m_abs != want_abs:
            failure = f"trial {trial}: M=({pred.m_pre},{pred.m_abs}) want ({want_pre},{want_abs})"
            break
        # the cut itself is each part's first M phrases, taken by the metrics;
        # the parts keep the concatenation's order
        concat = oracles.union_concat_oracle([list(s) for s in samples])
        if (pred.present_full, pred.absent_full) != (
            tuple(p for p in concat if p in present),
            tuple(p for p in concat if p not in present),
        ):
            failure = f"trial {trial}: prediction is not the merged list split by presence"
            break
    report(4, failure is None, failure or "1000 random count vectors vs exact rational ceil(mean)")


def test_criterion_05_metric_oracle_equivalence():
    rng = random.Random(0x5C07)
    symbols = [f"k{i}" for i in range(20)]
    failure = None
    for trial in range(10_000):
        pred = rng.sample(symbols, rng.randint(0, 12))
        gold = set(rng.sample(symbols, rng.randint(1, 10)))
        k = rng.randint(1, 12)
        got_m = score_at_m(pred, gold)
        want_m = oracles.prf_oracle(pred, gold)
        got_k = score_at_k(pred, gold, k=k)
        want_k = oracles.prf_oracle(pred, gold, k=k, pad=True)
        if any(
            abs(g - w) > 1e-12 for g, w in zip(got_m + got_k, want_m + want_k)
        ):
            failure = f"trial {trial}: pred={pred} gold={sorted(gold)} k={k}"
            break
    _, _, f1 = score_at_k(["a"], {"a", "b"}, k=5)
    pad_ok = abs(f1 - 2 / 7) <= 1e-9
    if failure is None and not pad_ok:
        failure = f"F1@5 padding case: got {f1!r}, want 2/7"
    report(
        5,
        failure is None,
        failure or f"10000 random (pred, gold) pairs; padding case F1 = {f1:.10f}",
    )


def test_criterion_06_normalization():
    reference = oracles.reference_stems()
    assert len(reference) > 5_000, "reference vocabulary fixture looks truncated"
    matches = sum(1 for word, want in reference.items() if stem(word) == want)
    rate = matches / len(reference)

    # the vocabulary plus surface pairs that match only once stemmed
    words = _WORDS + (
        "decision decisions relational relate networking networks happy happiness".split()
    )
    rng = random.Random(0x57E4)
    scan_failure = None
    for trial in range(10_000):
        text_words = [rng.choice(words) for _ in range(rng.randint(0, 30))]
        phrase_words = [rng.choice(words) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5 and text_words:
            at = rng.randrange(len(text_words))
            text_words[at:at] = phrase_words
        text = " ".join(text_words)
        source = NormalizedSource(tokenize(text))
        (phrase,) = source.phrases([" ".join(phrase_words)])
        got = phrase in source.present
        want = oracles.window_scan_oracle(oracles.normalize_oracle(text), phrase.split(" "))
        if got != want:
            scan_failure = f"trial {trial}: phrase={phrase!r}"
            break

    ok = rate >= 0.999 and scan_failure is None
    detail = scan_failure or (
        f"stemmer {matches}/{len(reference)} = {rate:.4%} reference agreement; "
        f"presence matches window scan on 10000 pairs"
    )
    report(6, ok, detail)


def _inspec_path() -> Path | None:
    env = os.environ.get(INSPEC_ENV)
    if env:
        return Path(env)
    conventional = Path(__file__).resolve().parent.parent / "data" / "inspec_test.jsonl"
    return conventional if conventional.exists() else None


def test_criterion_07_inspec_statistics(capsys):
    path = _inspec_path()
    if path is None or not path.exists():
        skip(
            7,
            f"Inspec test split not available; set {INSPEC_ENV} to its "
            "JSON-lines file (or place it at data/inspec_test.jsonl)",
        )
    code = main(["stats", "--corpus", str(path)])
    output = capsys.readouterr().out
    assert code == 0, output
    values = {}
    for line in output.splitlines():
        parts = line.rsplit(None, 1)
        if len(parts) == 2 and parts[1].replace(".", "", 1).isdigit():
            values[parts[0].strip()] = float(parts[1])
    targets = {
        "Avg words in title + body": 121.82,
        "Avg present keyphrases per doc": 7.70,
        "Avg absent keyphrases per doc": 2.15,
    }
    deltas = {
        label: abs(values.get(label, float("inf")) - want)
        for label, want in targets.items()
    }
    ok = all(d <= 0.05 for d in deltas.values())
    detail = "; ".join(
        f"{label}: got {values.get(label)}, want {want} (|d|={deltas[label]:.3f})"
        for label, want in targets.items()
    )
    report(7, ok, detail)


def test_criterion_08_end_to_end_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    outputs = []
    with running_server(MOCK_FIXTURES) as endpoint:
        for i, extra in enumerate(([], [], ["--offline"])):
            out = tmp_path / f"run{i}.csv"
            args = [
                "run",
                "--corpus", str(TOY_CORPUS),
                "--variant", "baseline",
                "--aggregate", "frequency",
                "--n-samples", "10",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out),
            ] + (extra if extra else ["--endpoint", endpoint])
            code = main(args)
            assert code == 0, capsys.readouterr()
            outputs.append(out.read_bytes())
    elapsed = time.monotonic() - t0
    identical = outputs[0] == outputs[1] == outputs[2]
    pinned = outputs[0] == EXPECTED_REPORT.read_bytes()
    report(
        8,
        identical and pinned and elapsed < 10.0,
        f"3 runs (cold, warm, offline) byte-identical={identical}, "
        f"matches frozen report={pinned}, {elapsed:.1f}s",
    )


def test_criterion_09_live_smoke_parity(tmp_path):
    endpoint = os.environ.get(SMOKE_ENV)
    corpus_path = _inspec_path()
    if not endpoint:
        skip(9, f"no live endpoint; set {SMOKE_ENV} (and {INSPEC_ENV}) to enable")
    if corpus_path is None or not corpus_path.exists():
        skip(9, f"live endpoint set but no dataset; set {INSPEC_ENV}")

    def run_with(strategy):
        return harness.run(
            harness.RunConfig(
                corpus_path=str(corpus_path),
                strategy=strategy,
                endpoint=endpoint,
                model=os.environ.get("KPAGG_SMOKE_MODEL", "default"),
                limit=20,
                cache_dir=str(tmp_path / "cache"),
            )
        )

    freq = run_with("frequency_order")
    union = run_with("union")  # warm cache: identical samples by construction
    total_samples = 20 * 10
    fallback_rate = freq.parse_fallbacks / total_samples
    f1_freq = freq.report.table[("present", "f1_at_5")]
    f1_union = union.report.table[("present", "f1_at_5")]
    ok = (
        freq.errored == 0
        and union.errored == 0
        and fallback_rate <= 0.10
        and f1_freq is not None
        and f1_union is not None
        and f1_freq >= f1_union
    )
    report(
        9,
        ok,
        f"errored={freq.errored}/{union.errored}, "
        f"fallbacks={fallback_rate:.1%}, present-F1@5 "
        f"frequency={f1_freq} union={f1_union}",
    )
