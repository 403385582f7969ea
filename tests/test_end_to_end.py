"""The whole report against a naive evaluator composed from the stage oracles.

Each stage has its own oracle test; these check how the stages are joined:
which ranking, cut and gold a config's scores come from, and under which
config its record is filed, and which samples a config at n sees: those
in slots below n. The fixed test's inputs are the benchmark's
(`bench/gen.py`, seed 0, 30 documents), their samples written to a warm
cache straight from the fixtures, as the mock server would serve them. The
property test draws small corpora and their cache lines.
"""

import importlib.util
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpagg import corpus, harness, prompting
from kpagg.aggregation import STRATEGIES
from kpagg.llm_client import PPL_MODES, RawSample, SampleCache
from kpagg.metrics import CELLS, EMPTY_GOLD_POLICIES

from . import oracles

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
N_DOCS = 30


def _bench_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_inputs(tmp_path_factory):
    """(base config, oracle documents): the corpus on disk and every
    fixture sample in the config's cache file."""
    tmp = tmp_path_factory.mktemp("e2e")
    records, responses = _bench_gen().make_inputs(ROOT, SEED, N_DOCS)
    corpus_path = tmp / f"bench_s{SEED}.jsonl"
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    base = harness.RunConfig(
        corpus_path=str(corpus_path), cache_dir=str(tmp / "cache"), n_samples=10, offline=True
    )
    pcfg = prompting.load_prompt_config()
    path = harness.cache_path(base)
    path.parent.mkdir(parents=True)
    cache = SampleCache(path)
    documents = []
    for doc, record, response in zip(corpus.load_corpus(corpus_path), records, responses):
        assert doc.id == record["id"]
        prompt = prompting.build_prompt(doc, base.variant, pcfg, base.prefill)
        samples = response["samples"][: base.n_samples]
        cache.put(*(
            RawSample(
                doc.id,
                prompt.prompt_hash,
                i,
                s["text"],
                sum(s["logprobs"]) if s.get("logprobs") else None,
                len(s.get("logprobs") or ()),
                "stop",
            )
            for i, s in enumerate(samples)
        ))
        documents.append({
            "source": f"{record['title']} {record['abstract']}",
            "gold": record["keyphrases"],
            "had_prefill": base.prefill,
            "samples": [
                {"slot": i, "text": s["text"], "logprobs": s.get("logprobs"), "truncated": False}
                for i, s in enumerate(samples)
            ],
        })
    return base, documents


# every config that only changes how samples are scored
EVALUATIONS = list(itertools.product(STRATEGIES, PPL_MODES, EMPTY_GOLD_POLICIES))


def seen_at(documents, n):
    """The oracle documents as a config at n sees them: each keeps the
    samples whose slot is below n."""
    return [
        {**document, "samples": [s for s in document["samples"] if s["slot"] < n]}
        for document in documents
    ]


def assert_reports_match_the_oracle(configs, summaries, documents):
    """Each config's report against the oracle's over the samples it sees,
    and its processed and errored documents counted on their own."""
    for config, summary in zip(configs, summaries):
        seen = seen_at(documents, config.n_samples)
        table, counts = oracles.report_oracle(
            seen, config.strategy, config.ppl_mode, config.empty_gold
        )
        label = (config.n_samples, config.strategy, config.ppl_mode, config.empty_gold)
        processed = sum(1 for d in seen if d["samples"])
        assert (summary.processed, summary.errored) == (processed, len(seen) - processed), label
        assert summary.report.counts == counts, label
        for cell in CELLS:
            got, want = summary.report.table[cell], table[cell]
            if want is None:
                assert got is None, (label, cell)
            else:
                assert got == pytest.approx(want, abs=1e-12, rel=0), (label, cell)


@pytest.mark.oracle
def test_grid_reports_match_the_composed_oracle(bench_inputs):
    base, documents = bench_inputs
    configs = [
        base._replace(n_samples=n, strategy=strategy, ppl_mode=mode, empty_gold=policy)
        for n in (1, 3, 5, 10)
        for strategy, mode, policy in EVALUATIONS
    ]
    assert len(configs) == 80
    summaries = harness.grid(configs)
    for summary in summaries:
        assert (summary.processed, summary.errored, summary.cache_misses) == (N_DOCS, 0, 0)
    assert_reports_match_the_oracle(configs, summaries, documents)


# Words of the phrases; `parkinson's` puts an apostrophe inside an item.
WORDS = ["graph", "graphs", "neural", "network", "parkinson's", "disease"]
PHRASES = st.lists(st.sampled_from(WORDS), min_size=1, max_size=2).map(" ".join)
# A document's source, gold and samples pick their phrases from a pool of
# a few, so that predictions often hit the gold, present and absent; a pick
# is an index into the pool, taken modulo its size.
POOLS = st.lists(PHRASES, min_size=2, max_size=5, unique=True)
PICKS = st.lists(st.integers(0, 59), max_size=4)


def sometimes_none(values):
    """None one time in four, else a value of `values`."""
    return st.tuples(st.integers(0, 3), values).map(lambda t: t[1] if t[0] else None)


# A sample slot, None where the sample is absent: the picks of its list
# items; how the list is written (quote, separator, what comes before the
# items and what after; with no items and neither `[` nor `]` the text is
# empty); its logprobs, of few distinct values so that the two perplexity
# modes often rank differently; and its finish reason.
SLOTS = sometimes_none(st.tuples(
    st.lists(st.integers(0, 59), max_size=5),
    st.sampled_from(['"', "'", ""]),
    st.sampled_from([", ", ",", "\n"]),
    st.sampled_from(["", "[", "Keyphrases: ["]),
    st.sampled_from(["]", "", "] and more"]),
    sometimes_none(st.lists(st.sampled_from([-0.25, -1.0, -2.5, -4.0]), min_size=1, max_size=6)),
    st.sampled_from(["stop", "length", "content_filter"]),
))


@st.composite
def drawn_corpora(draw):
    """(n_samples, prefill, records, slots of each record): 1-6 documents,
    each with n_samples (2-5) slots. A slot holds a sample's text, logprobs
    and finish reason, or None where the sample is absent, so a document
    may have one sample or none."""
    n_samples = draw(st.integers(2, 5))
    records, slots = [], []
    for j in range(draw(st.integers(1, 6))):
        pool = draw(POOLS)
        records.append({
            "id": f"d{j}",
            "title": draw(PHRASES),
            "abstract": ". ".join(pool[i % len(pool)] for i in draw(PICKS)),
            "keyphrases": [pool[i % len(pool)] for i in draw(PICKS)],
        })
        samples = []
        for slot in draw(st.lists(SLOTS, min_size=n_samples, max_size=n_samples)):
            if slot is not None:
                picks, quote, separator, opener, closer, logprobs, finish_reason = slot
                items = separator.join(quote + pool[i % len(pool)] + quote for i in picks)
                slot = {
                    "text": opener + items + closer,
                    "logprobs": logprobs,
                    "finish_reason": finish_reason,
                }
            samples.append(slot)
        slots.append(samples)
    return n_samples, draw(st.booleans()), records, slots


PROMPTS = prompting.load_prompt_config()


@pytest.mark.oracle
@given(
    drawn_corpora(),
    # a grid over some strategies, one or both perplexity modes and one or
    # both policies
    st.tuples(
        st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=3, unique=True),
        st.lists(st.sampled_from(PPL_MODES), min_size=1, unique=True),
        st.lists(st.sampled_from(EMPTY_GOLD_POLICIES), min_size=1, unique=True),
    ).map(lambda factors: list(itertools.product(*factors))),
    st.data(),
)
def test_drawn_grid_reports_match_the_composed_oracle(drawn, evaluations, data):
    n_samples, prefill, records, slots = drawn
    # each config's own sample count, from 1 up to the slot count
    counts = data.draw(st.lists(
        st.integers(1, n_samples), min_size=len(evaluations), max_size=len(evaluations)
    ))
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "drawn.jsonl"
        corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        base = harness.RunConfig(
            corpus_path=str(corpus_path),
            cache_dir=str(Path(tmp) / "cache"),
            n_samples=n_samples,
            prefill=prefill,
            offline=True,
        )
        path = harness.cache_path(base)
        path.parent.mkdir(parents=True)
        cache = SampleCache(path)
        for doc, doc_slots in zip(corpus.load_corpus(corpus_path), slots):
            prompt = prompting.build_prompt(doc, base.variant, PROMPTS, prefill)
            cache.put(*(
                RawSample(
                    doc.id,
                    prompt.prompt_hash,
                    i,
                    s["text"],
                    sum(s["logprobs"]) if s["logprobs"] else None,
                    len(s["logprobs"] or ()),
                    s["finish_reason"],
                )
                for i, s in enumerate(doc_slots)
                if s is not None
            ))
        configs = [
            base._replace(n_samples=n, strategy=strategy, ppl_mode=mode, empty_gold=policy)
            for n, (strategy, mode, policy) in zip(counts, evaluations)
        ]
        summaries = harness.grid(configs)
    documents = [
        {
            "source": f"{record['title']} {record['abstract']}",
            "gold": record["keyphrases"],
            "had_prefill": prefill,
            "samples": [
                {
                    "slot": i,
                    "text": s["text"],
                    "logprobs": s["logprobs"],
                    "truncated": s["finish_reason"] != "stop",
                }
                for i, s in enumerate(doc_slots)
                if s is not None
            ],
        }
        for record, doc_slots in zip(records, slots)
    ]
    assert_reports_match_the_oracle(configs, summaries, documents)
