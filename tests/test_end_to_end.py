"""The whole report against a naive evaluator composed from the stage oracles.

Each stage has its own oracle test; this one checks how the stages are
joined: which ranking, cut and gold a config's scores come from, and under
which config its record is filed. Inputs are the benchmark's (`bench/gen.py`,
seed 0, 30 documents), their samples written to a warm cache straight from
the fixtures, as the mock server would serve them.
"""

import importlib.util
import itertools
import json
from pathlib import Path

import pytest

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
                {"text": s["text"], "logprobs": s.get("logprobs"), "truncated": False}
                for s in samples
            ],
        })
    return base, documents


def test_grid_reports_match_the_composed_oracle(bench_inputs):
    base, documents = bench_inputs
    configs = [
        base._replace(strategy=strategy, ppl_mode=mode, empty_gold=policy)
        for strategy, mode, policy in itertools.product(
            STRATEGIES, PPL_MODES, EMPTY_GOLD_POLICIES
        )
    ]
    assert len(configs) == 20
    summaries = harness.grid(configs)
    for config, summary in zip(configs, summaries):
        assert (summary.processed, summary.errored, summary.cache_misses) == (N_DOCS, 0, 0)
        table, counts = oracles.report_oracle(
            documents, config.strategy, config.ppl_mode, config.empty_gold
        )
        label = (config.strategy, config.ppl_mode, config.empty_gold)
        assert summary.report.counts == counts, label
        for cell in CELLS:
            got, want = summary.report.table[cell], table[cell]
            if want is None:
                assert got is None, (label, cell)
            else:
                assert got == pytest.approx(want, abs=1e-12, rel=0), (label, cell)
