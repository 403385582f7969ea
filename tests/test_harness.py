"""Run orchestration: caching, determinism, grid runs, and the CLI."""

import argparse
import errno
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from contextlib import closing
from pathlib import Path

import pytest
import yaml

from kpagg import aggregation, corpus, harness, metrics, prompting, textnorm
from kpagg.aggregation import STRATEGIES, STRATEGY_ALIASES
from kpagg.cli import build_parser, main
from kpagg.corpus import CorpusError, load_corpus
from kpagg.harness import (
    API_KEY_ENV,
    ENDPOINT_ENV,
    HarnessError,
    RunConfig,
    cache_path,
    load_grid_config,
    provenance,
    select_documents,
)
from kpagg.cache import SampleCache
from kpagg.llm_client import REQUEST_MODES, AuthenticationError, LLMClientError, RawSample
from kpagg.mock_server import MockFixtures, running_server
from kpagg.prompting import VARIANT_ALIASES, PromptConfigError

from .conftest import EXPECTED_REPORT, MOCK_FIXTURES, TOY_CORPUS


@pytest.fixture(scope="module")
def endpoint():
    with running_server(MOCK_FIXTURES) as url:
        yield url


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    monkeypatch.delenv(API_KEY_ENV, raising=False)


# A server whose every answer differs from MOCK_FIXTURES' answers.
OTHER_FIXTURES = MockFixtures(
    {"responses": [], "default": {"samples": [{"text": '"graph coloring"]', "logprobs": [-0.5]}]}}
)


def config(endpoint, tmp_path, **kw):
    kw.setdefault("corpus_path", str(TOY_CORPUS))
    kw.setdefault("endpoint", endpoint)
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    return RunConfig(**kw)


@pytest.fixture(scope="module")
def docs():
    return load_corpus(TOY_CORPUS)


class TestSelectDocuments:
    def test_no_limit_keeps_all(self, docs):
        assert select_documents(docs, None, None) == docs

    def test_limit_without_seed_takes_prefix(self, docs):
        assert select_documents(docs, 2, None) == docs[:2]

    def test_limit_beyond_size(self, docs):
        assert select_documents(docs, 99, 5) == docs

    def test_seeded_subset_is_deterministic(self, docs):
        a = select_documents(docs, 3, seed=7)
        b = select_documents(docs, 3, seed=7)
        assert a == b
        assert len(a) == 3

    def test_seeded_subset_keeps_corpus_order(self, docs):
        chosen = select_documents(docs, 3, seed=11)
        positions = [docs.index(d) for d in chosen]
        assert positions == sorted(positions)

    def test_different_seeds_vary(self, docs):
        picks = {tuple(d.id for d in select_documents(docs, 2, seed=s)) for s in range(10)}
        assert len(picks) > 1


class TestCachePath:
    def test_layout(self, tmp_path):
        cfg = RunConfig(
            corpus_path="data/inspec_test.jsonl",
            variant="baseline",
            model="gpt-4o",
            endpoint="http://127.0.0.1:8000/v1",
            cache_dir=str(tmp_path),
        )
        name = Path("inspec_test", "baseline", "gpt-4o.t0.8.m500.jsonl")
        origin = "http_127.0.0.1_8000_v1_chat_completions"
        assert cache_path(cfg) == tmp_path / origin / name
        # without an endpoint, and no origin holding the file
        assert cache_path(cfg._replace(endpoint=None)) == tmp_path / "_" / name

    def test_origin_is_the_scheme_host_port_and_path_posted_to(self, tmp_path):
        def origin(endpoint):
            cfg = RunConfig("c.jsonl", endpoint=endpoint, cache_dir=str(tmp_path))
            return cache_path(cfg).relative_to(tmp_path).parts[0]

        # no user name, password, query or fragment
        assert origin("https://u:p@api.example.com/v1?api-key=K#f") == (
            "https_api.example.com_v1_chat_completions"
        )
        assert origin("https://api.example.com/v1/chat/completions/") == (
            "https_api.example.com_v1_chat_completions"
        )
        assert origin("http://h:1/v1") != origin("http://h:2/v1")
        # Azure OpenAI serves each deployment under its own path on one host
        azure = "https://r.openai.azure.com/openai/deployments/{}?api-version=1"
        assert origin(azure.format("gpt-4o")) != origin(azure.format("gpt-4o-mini"))

    @pytest.mark.parametrize("bad", ["http://[::1/v1", "not a url", "ftp://h/v1"])
    def test_an_endpoint_the_client_refuses_fails_in_the_client(self, tmp_path, bad):
        cfg = config(bad, tmp_path)
        assert cache_path(cfg).parent.name == "baseline"
        with pytest.raises(LLMClientError, match="endpoint"):
            harness.run(cfg)

    def test_without_an_endpoint_the_origin_that_holds_the_file(self, tmp_path):
        cfg = RunConfig("c.jsonl", cache_dir=str(tmp_path), offline=True)
        name = cache_path(cfg).relative_to(tmp_path / "_")
        for origin in ("b", "a"):
            (tmp_path / origin / name).parent.mkdir(parents=True)
            (tmp_path / origin / name).touch()
            if origin == "b":
                assert cache_path(cfg) == tmp_path / "b" / name
        with pytest.raises(HarnessError, match=f"{re.escape(str(name))} .*: a, b; name one"):
            cache_path(cfg)
        assert cache_path(cfg._replace(endpoint="http://x")) == (
            tmp_path / "http_x_chat_completions" / name
        )

    def test_hostile_names_sanitized(self, tmp_path):
        cfg = RunConfig(
            corpus_path="c.jsonl",
            model="org/model:v1",
            cache_dir=str(tmp_path),
        )
        path = cache_path(cfg)
        assert path.name == "org_model_v1.t0.8.m500.jsonl"
        assert "/" not in path.stem

    def test_variant_alias_canonicalized(self, tmp_path):
        # alias and canonical name land in the same cache file
        a = cache_path(RunConfig(corpus_path="c.jsonl", variant="combined", cache_dir=str(tmp_path)))
        b = cache_path(RunConfig(corpus_path="c.jsonl", variant="combined_control", cache_dir=str(tmp_path)))
        assert a == b
        assert a.parts[-2] == "combined_control"

    def test_sampling_settings_in_the_name(self, tmp_path):
        base = dict(corpus_path="c.jsonl", cache_dir=str(tmp_path))
        default = cache_path(RunConfig(**base))
        for change in ({"temperature": 0.0}, {"max_tokens": 5}):
            assert cache_path(RunConfig(**base, **change)) != default
        assert cache_path(RunConfig(**base, temperature=0.0, max_tokens=5)).name == (
            "default.t0.0.m5.jsonl"
        )

    def test_temperature_normalised(self, tmp_path):
        base = dict(corpus_path="c.jsonl", cache_dir=str(tmp_path))
        assert cache_path(RunConfig(**base, temperature=1)) == cache_path(
            RunConfig(**base, temperature=1.0)
        )
        assert cache_path(RunConfig(**base, temperature=-0.0)) == cache_path(
            RunConfig(**base, temperature=0)
        )

    def test_sample_count_and_request_mode_share_the_file(self, tmp_path):
        base = dict(corpus_path="c.jsonl", cache_dir=str(tmp_path))
        default = cache_path(RunConfig(**base))
        assert cache_path(RunConfig(**base, n_samples=3)) == default
        assert cache_path(RunConfig(**base, request_mode="per-request")) == default


class TestRunConfig:
    def test_cli_defaults_are_the_config_defaults(self, monkeypatch):
        # `kpagg run --corpus X` and nothing else builds `RunConfig(corpus_path=X)`
        built = []

        def fake_run(config):
            built.append(config)
            raise HarnessError("stop")

        monkeypatch.setattr(harness, "run", fake_run)
        assert main(["run", "--corpus", str(TOY_CORPUS)]) == 1
        assert built == [RunConfig(corpus_path=str(TOY_CORPUS))]

    def test_alias_and_full_name_make_equal_configs(self):
        for alias, name in VARIANT_ALIASES.items():
            assert RunConfig("c", variant=alias) == RunConfig("c", variant=name)
            assert RunConfig("c", variant=alias).variant == name
        for alias, name in STRATEGY_ALIASES.items():
            assert RunConfig("c", strategy=alias) == RunConfig("c", strategy=name)
            assert RunConfig("c", strategy=alias).strategy == name

    def test_fields_cannot_be_assigned(self):
        cfg = RunConfig("c")
        with pytest.raises(AttributeError):
            cfg.temperature = "hot"
        # a changed copy is checked like a new config
        with pytest.raises(HarnessError, match="temperature"):
            cfg._replace(temperature="hot")

    def test_replaced_copy_is_checked_and_canonical(self):
        cfg = RunConfig("c")
        assert cfg._replace(variant="present").variant == "present_specialist"
        assert cfg._replace(strategy="union-concat").strategy == "union_concat"
        assert cfg._replace(variant="present") == RunConfig("c", variant="present_specialist")
        with pytest.raises(HarnessError, match="n_samples"):
            cfg._replace(n_samples=0)
        with pytest.raises(HarnessError, match="variant"):
            RunConfig._make(["c", "no-such-variant"])

    def test_temperature_is_kept_as_a_float(self):
        for given, kept in ((1, "1.0"), (1.0, "1.0"), (0, "0.0"), (-0.0, "0.0"), (0.8, "0.8")):
            assert repr(RunConfig("c", temperature=given).temperature) == kept

    def test_takes_no_new_attribute(self):
        cfg = RunConfig("c")
        with pytest.raises(AttributeError):
            cfg.extra = 1
        assert not hasattr(cfg, "__dict__")


class TestProvenance:
    def test_identifying_fields_present(self):
        data = provenance(RunConfig(corpus_path="x/inspec.jsonl", variant="present", strategy="union"))
        assert data["corpus"] == "inspec.jsonl"
        assert data["variant"] == "present_specialist"
        assert data["strategy"] == "union"
        assert data["n_samples"] == 10
        assert data["temperature"] == 0.8

    def test_volatile_fields_absent(self):
        data = provenance(RunConfig(corpus_path="c.jsonl", endpoint="http://x", out="r.csv"))
        for volatile in ("endpoint", "cache_dir", "out", "offline", "max_in_flight"):
            assert volatile not in data

    def test_every_setting_but_where_a_run_reads_writes_and_connects(self):
        data = provenance(RunConfig("x/c.jsonl", prompt_config="p.yaml"))
        assert list(data) == [
            "variant", "strategy", "n_samples", "temperature", "max_tokens", "model", "limit",
            "seed", "empty_gold", "prefill", "ppl_mode", "default_domain", "corpus",
        ]
        assert set(RunConfig._fields) - set(data) == {
            "corpus_path", "endpoint", "cache_dir", "out", "prompt_config", "request_mode",
            "offline", "max_in_flight",
        }


# each role's answers: (names the cache file, splits fetch groups, in the provenance)
ROLE_ANSWERS = {
    "cache": (True, True, True),
    "place": (True, True, False),
    "sample": (False, True, True),
    "source": (False, True, False),
    "score": (False, False, True),
    "run": (False, False, False),
}
# every RunConfig field in order, a value other than its default, and its role
VARIED = [
    ("corpus_path", "d/other.jsonl", "place"),
    ("variant", "combined", "cache"),
    ("strategy", "union", "score"),
    ("n_samples", 3, "score"),
    ("temperature", 0.5, "cache"),
    ("max_tokens", 100, "cache"),
    ("model", "m", "cache"),
    ("endpoint", "http://x", "place"),
    ("limit", 2, "sample"),
    ("seed", 1, "sample"),
    ("cache_dir", "other", "place"),
    ("empty_gold", "zero", "score"),
    ("out", "r.csv", "run"),
    ("prompt_config", "p.yaml", "source"),
    ("prefill", False, "sample"),
    ("request_mode", "per-request", "run"),
    ("ppl_mode", "sum", "score"),
    ("offline", True, "source"),
    ("default_domain", "news", "sample"),
    ("max_in_flight", 1, "run"),
]


class TestFieldRoles:
    def test_every_field_has_one_known_role(self):
        assert sorted(harness.FIELD_ROLES) == sorted(RunConfig._fields)
        assert set(harness.FIELD_ROLES.values()) == set(ROLE_ANSWERS)
        assert [field for field, _, _ in VARIED] == list(RunConfig._fields)

    @pytest.mark.parametrize("field, value, role", VARIED)
    def test_a_field_varied_alone_does_what_its_role_says(self, field, value, role):
        base = RunConfig("d/c.jsonl")
        varied = base._replace(**{field: value})
        assert harness.FIELD_ROLES[field] == role
        names_file, splits_groups, recorded = ROLE_ANSWERS[role]
        assert (cache_path(varied) != cache_path(base)) == names_file
        assert harness.fetch_groups([base, varied]) == ([[0], [1]] if splits_groups else [[0, 1]])
        assert (field in provenance(base)) == (field in provenance(varied)) == recorded


class TestRunEndToEnd:
    def test_cold_run_counts_and_report(self, endpoint, tmp_path):
        out = tmp_path / "report.csv"
        summary = harness.run(config(endpoint, tmp_path, out=str(out)))
        assert summary.processed == 5
        assert summary.errored == 0
        assert summary.cache_misses == 50
        assert summary.cache_hits == 0
        assert summary.parse_fallbacks == 3
        assert summary.truncated == 0  # the mock always answers "stop"
        assert out.read_bytes() == EXPECTED_REPORT.read_bytes()

    def test_no_prefill_run_writes_the_expected_report(self, endpoint, tmp_path):
        """Without an assistant turn the mock answers the whole list, `[`
        included, as an endpoint that rejects a prefill does; its report is
        the prefilled run's. The two prompts hash apart, so a prefilled run
        on the same cache replays none of its samples."""
        out = tmp_path / "report.csv"
        cfg = config(endpoint, tmp_path, prefill=False, out=str(out))
        summary = harness.run(cfg)
        assert (summary.processed, summary.cache_misses, summary.parse_fallbacks) == (5, 50, 3)
        assert out.read_bytes() == EXPECTED_REPORT.read_bytes()
        lines = cache_path(cfg).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 50
        assert all(json.loads(line)["text"].startswith("[") for line in lines)
        summary = harness.run(cfg._replace(prefill=True, out=None))
        assert (summary.cache_hits, summary.cache_misses) == (0, 50)
        assert len(cache_path(cfg).read_text(encoding="utf-8").splitlines()) == 100

    def test_meta_json_written_sorted(self, endpoint, tmp_path):
        out = tmp_path / "report.csv"
        harness.run(config(endpoint, tmp_path, out=str(out)))
        meta = json.loads((tmp_path / "report.csv.meta.json").read_text())
        assert list(meta) == sorted(meta)
        assert meta["corpus"] == "toy_corpus.jsonl"

    def test_warm_cache_replays_identically(self, endpoint, tmp_path):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        harness.run(config(endpoint, tmp_path, out=str(out1)))
        summary = harness.run(config(endpoint, tmp_path, out=str(out2)))
        assert summary.cache_hits == 50
        assert summary.cache_misses == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_offline_with_warm_cache(self, endpoint, tmp_path):
        harness.run(config(endpoint, tmp_path))
        out = tmp_path / "offline.csv"
        summary = harness.run(
            config(None, tmp_path, offline=True, out=str(out))
        )
        assert summary.cache_hits == 50
        assert summary.errored == 0
        assert out.read_bytes() == EXPECTED_REPORT.read_bytes()

    def test_offline_cold_cache_errors_documents(self, tmp_path):
        summary = harness.run(config(None, tmp_path, offline=True))
        assert summary.processed == 0
        assert summary.errored == 5
        assert all(v is None for v in summary.report.table.values())

    def test_unavailable_samples_warned_once_per_run(self, docs, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="kpagg.harness"):
            harness.run(config(None, tmp_path, offline=True))
        records = [r for r in caplog.records if "unavailable" in r.getMessage()]
        assert len(records) == 1
        message = records[0].getMessage()
        assert message.startswith(f"50 sample(s) unavailable in {len(docs)} document(s)")
        assert message.endswith(", ".join(doc.id for doc in docs[:5]))

    def test_samples_the_endpoint_did_not_return_are_warned_as_such(self, tmp_path, caplog):
        serving = running_server(MOCK_FIXTURES)

        class OneChoiceThenNone(serving.server.RequestHandlerClass):
            # an endpoint that ignores `n`: a document's first answer holds one
            # choice of the 3 asked for, and the next, asking for the other 2,
            # none, so no request follows it
            def _answer(self, status, body):
                if status == 200:
                    answer = json.loads(body)
                    answer["choices"] = answer["choices"][:1] if len(answer["choices"]) == 3 else []
                    body = json.dumps(answer).encode("utf-8")
                super()._answer(status, body)

        serving.server.RequestHandlerClass = OneChoiceThenNone
        with serving as url, caplog.at_level(logging.WARNING, logger="kpagg.harness"):
            summary = harness.run(config(url, tmp_path, n_samples=3))
        assert (summary.processed, summary.cache_misses) == (5, 15)
        (record,) = [r for r in caplog.records if "unavailable" in r.getMessage()]
        assert record.getMessage().startswith(
            "10 sample(s) unavailable in 5 document(s) (not returned by the endpoint, "
            "or offline without a warm cache), first: "
        )

    @pytest.mark.parametrize("k, asked", [(1, list(range(10, 0, -1))), (3, [10, 7, 4, 1])])
    def test_an_endpoint_that_caps_its_answers_is_asked_for_the_rest(
        self, tmp_path, caplog, k, asked
    ):
        """An endpoint that answers at most k choices, whatever `n` says: each
        request asks for every slot still missing, so each toy document
        sends the requests `asked` and all 50 samples at n = 10 are cached.
        The client warns once, for all four fetchers."""
        serving = running_server(MOCK_FIXTURES)
        requests = []

        class Capped(serving.server.RequestHandlerClass):
            def _answer(self, status, body):
                if status == 200:
                    answer = json.loads(body)
                    requests.append(len(answer["choices"]))
                    answer["choices"] = answer["choices"][:k]
                    body = json.dumps(answer).encode("utf-8")
                super()._answer(status, body)

        serving.server.RequestHandlerClass = Capped
        cfg = config(None, tmp_path, n_samples=10)
        with serving as url, caplog.at_level(logging.WARNING):
            summary = harness.run(cfg._replace(endpoint=url))
        assert sorted(requests) == sorted(asked * 5)
        assert (summary.processed, summary.cache_misses) == (5, 50)
        lines = cache_path(cfg).read_text(encoding="utf-8").splitlines()
        assert sorted((r["doc_id"], r["sample_index"]) for r in map(json.loads, lines)) == [
            (f"doc-00{d}", i) for d in range(1, 6) for i in range(10)
        ]
        warnings = [r.getMessage() for r in caplog.records]
        assert len([w for w in warnings if "it asked for" in w]) == 1
        assert not [w for w in warnings if "unavailable" in w]
        assert harness.run(cfg._replace(offline=True)).cache_hits == 50

    @pytest.mark.parametrize("mode", REQUEST_MODES)
    def test_a_replay_in_the_other_request_mode_writes_the_same_files(
        self, endpoint, tmp_path, mode
    ):
        online = config(endpoint, tmp_path, request_mode=mode, out=str(tmp_path / "online.csv"))
        harness.run(online)
        other = next(m for m in REQUEST_MODES if m != mode)
        replay = online._replace(
            endpoint=None, offline=True, request_mode=other, out=str(tmp_path / "replay.csv")
        )
        harness.run(replay)
        online_files, replay_files = map(harness.report_files, (online.out, replay.out))
        assert [f.read_bytes() for f in replay_files] == [f.read_bytes() for f in online_files]
        assert "request_mode" not in json.loads(online_files[1].read_text(encoding="utf-8"))

    def test_samples_without_logprobs_are_counted_and_warned_once(
        self, endpoint, tmp_path, caplog, capsys
    ):
        # every sample of the mock's answers without logprobs: no perplexity,
        # so each document's samples rank in slot order; the toy report
        # does not change
        fixtures = json.loads(MOCK_FIXTURES.read_text(encoding="utf-8"))
        for response in fixtures["responses"]:
            for sample in response["samples"]:
                sample.pop("logprobs", None)
        with running_server(MockFixtures(fixtures)) as stripped:
            with caplog.at_level(logging.WARNING, logger="kpagg.harness"):
                summary = harness.run(config(
                    stripped, tmp_path / "stripped", out=str(tmp_path / "stripped.csv")
                ))
                assert main([
                    "run", "--corpus", str(TOY_CORPUS), "--offline",
                    "--cache-dir", str(tmp_path / "stripped" / "cache"),
                ]) == 0
        warned = [r.getMessage() for r in caplog.records if "no logprobs" in r.getMessage()]
        assert warned == [
            "50 sample(s) have no logprobs, so no perplexity: they rank last, in slot order"
        ] * 2  # once for the run, once for its offline replay
        assert " truncated=0 unranked=50 cache_hits=50 " in capsys.readouterr().out
        with_logprobs = harness.run(config(
            endpoint, tmp_path / "full", out=str(tmp_path / "full.csv")
        ))
        assert (summary.unranked, with_logprobs.unranked) == (50, 4)
        for stripped_file, full_file in zip(
            harness.report_files(tmp_path / "stripped.csv"),
            harness.report_files(tmp_path / "full.csv"),
        ):
            assert stripped_file.read_bytes() == full_file.read_bytes()
        assert (tmp_path / "full.csv").read_bytes() == EXPECTED_REPORT.read_bytes()

    def test_restarted_lists_are_counted_warned_and_read_alone(self, tmp_path, caplog, capsys):
        # every text of the mock's answers opens its own list, as an endpoint
        # that answers the prefilled assistant turn afresh sends it
        fixtures = json.loads(MOCK_FIXTURES.read_text(encoding="utf-8"))
        for response in fixtures["responses"]:
            for sample in response["samples"]:
                sample["text"] = "[" + sample["text"]
        out = tmp_path / "report.csv"
        with running_server(MockFixtures(fixtures)) as restarting:
            with caplog.at_level(logging.WARNING, logger="kpagg.harness"):
                assert main([
                    "run", "--corpus", str(TOY_CORPUS), "--endpoint", restarting,
                    "--cache-dir", str(tmp_path / "cache"), "--out", str(out),
                ]) == 0
        assert " parse_fallbacks=3 restarted=50 truncated=0 " in capsys.readouterr().out
        warned = [r.getMessage() for r in caplog.records if "restarted" in r.getMessage()]
        assert warned == [
            "50 sample(s) restarted their list after the prefill and were read alone; "
            "if the endpoint does not continue an assistant turn, use --no-prefill"
        ]
        assert out.read_bytes() == EXPECTED_REPORT.read_bytes()

    def test_other_sampling_settings_do_not_replay(self, endpoint, tmp_path):
        harness.run(config(endpoint, tmp_path, temperature=0.8))
        summary = harness.run(config(endpoint, tmp_path, temperature=0.0, max_tokens=5))
        assert summary.cache_hits == 0
        assert summary.cache_misses == 50

    def test_legacy_cache_is_named_and_not_replayed(self, endpoint, tmp_path, caplog):
        """Groups without a file of their own name each file of an older
        layout once, and replay none: the layout without the origin, and
        the one before it, `<model>.jsonl`, without the sampling settings."""
        cfg = config(None, tmp_path, offline=True)
        harness.run(config(endpoint, tmp_path))
        current = cache_path(cfg)
        # the same samples where the layout without the origin kept them
        legacy = [tmp_path / "cache" / Path(*current.parts[-3:])]
        legacy.append(legacy[0].with_name("default.jsonl"))
        legacy[0].parent.mkdir(parents=True)
        current.rename(legacy[0])
        legacy[1].write_text(
            json.dumps({"doc_id": "doc-001", "prompt_hash": "h", "sample_index": 0,
                        "text": '["x"]', "token_logprobs": [-0.5], "finish_reason": "stop"})
            + "\n",
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING, logger="kpagg.harness"):
            # two fetch groups that would read one file
            summaries = harness.grid([cfg, cfg._replace(limit=2)])
        assert [s.cache_hits for s in summaries] == [0, 0]
        for path in legacy:
            assert len([r for r in caplog.records if str(path) in r.getMessage()]) == 1
        harness.run(config(endpoint, tmp_path))  # writes the current file
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="kpagg.harness"):
            assert harness.run(cfg).cache_hits == 50
        assert "older cache layout" not in caplog.text

    def test_length_truncated_samples_counted_and_cut(self, tmp_path, docs, prompt_cfg):
        doc = docs[0]
        prompt = prompting.build_prompt(doc, "baseline", prompt_cfg)
        # cut inside the gold "wireless sensor networks": the stub is
        # present in the source but no gold phrase
        cut = '"graph coloring", "wireless sensor'
        reports = {}
        for finish in ("length", "content_filter", "stop"):
            cfg = config(None, tmp_path / finish, offline=True, limit=1, n_samples=1)
            cache_path(cfg).parent.mkdir(parents=True)
            with closing(SampleCache(cache_path(cfg))) as cache:
                cache.put(RawSample(doc.id, prompt.prompt_hash, 0, cut, -1.0, 2, finish))
            summary = harness.run(cfg)
            assert summary.processed == 1
            assert summary.truncated == (finish != "stop")
            reports[finish] = summary.report
        assert reports["length"].counts == reports["stop"].counts
        # a content filter cuts the list as the token limit does
        assert reports["content_filter"].table == reports["length"].table
        # "graph coloring" is one of 4 present gold phrases; the stub is a
        # miss, so it halves the precision of the untruncated reading
        assert reports["length"].table["present", "f1_at_m"] == pytest.approx(0.4)  # P 1, R 1/4
        assert reports["stop"].table["present", "f1_at_m"] == pytest.approx(1 / 3)  # P 1/2

    def test_lone_surrogate_answer_is_evaluated_and_replayed(self, tmp_path):
        # the second sample is cut inside an emoji: half a surrogate pair
        fixtures = MockFixtures({"responses": [], "default": {"samples": [
            {"text": '"graph coloring", "tdma"]'},
            {"text": '"graph coloring", "cut \ud83d"]'},
        ]}})
        with running_server(fixtures) as url:
            cold = harness.run(config(url, tmp_path, limit=1, n_samples=2))
        assert (cold.processed, cold.errored, cold.cache_misses) == (1, 0, 2)
        replay = harness.run(config(None, tmp_path, offline=True, limit=1, n_samples=2))
        assert (replay.processed, replay.cache_hits, replay.cache_misses) == (1, 2, 0)
        assert replay.report == cold.report

    def test_partial_cache_resumes(self, endpoint, tmp_path):
        harness.run(config(endpoint, tmp_path, n_samples=4))
        summary = harness.run(config(endpoint, tmp_path, n_samples=10))
        assert summary.cache_hits == 20
        assert summary.cache_misses == 30

    def test_no_endpoint_is_fatal(self, tmp_path):
        with pytest.raises(HarnessError):
            harness.run(config(None, tmp_path))

    def test_endpoint_env_fallback(self, endpoint, tmp_path, monkeypatch):
        monkeypatch.setenv(ENDPOINT_ENV, endpoint)
        summary = harness.run(config(None, tmp_path))
        assert summary.processed == 5

    def test_endpoint_from_the_environment_names_the_cache_origin(
        self, endpoint, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(ENDPOINT_ENV, endpoint)
        harness.run(config(None, tmp_path))
        path = cache_path(config(endpoint, tmp_path))
        assert len(path.read_text(encoding="utf-8").splitlines()) == 50
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [path.parts[-4]]

    def test_a_second_server_on_one_cache_dir_fetches_its_own_samples(
        self, endpoint, tmp_path
    ):
        """Two servers with different answers, one cache directory: the
        second replays nothing of the first's, and its report is its own."""
        first = harness.run(config(endpoint, tmp_path, n_samples=5))
        with running_server(OTHER_FIXTURES) as other:
            second = harness.run(config(other, tmp_path, n_samples=5))
        assert (first.cache_hits, first.cache_misses) == (0, 25)
        assert (second.cache_hits, second.cache_misses) == (0, 25)
        assert metrics.reports_csv([second.report]) != metrics.reports_csv([first.report])

    @pytest.mark.parametrize("named_by", ["flag", "env"])
    def test_offline_replay_reads_the_origin_it_names(
        self, endpoint, tmp_path, monkeypatch, named_by
    ):
        harness.run(config(endpoint, tmp_path))
        with running_server(OTHER_FIXTURES) as other:
            harness.run(config(other, tmp_path, out=str(tmp_path / "other.csv")))
        assert (tmp_path / "other.csv").read_bytes() != EXPECTED_REPORT.read_bytes()
        for url, expected in ((endpoint, EXPECTED_REPORT), (other, tmp_path / "other.csv")):
            out = tmp_path / "replay.csv"
            args = ["run", "--corpus", str(TOY_CORPUS), "--offline", "--out", str(out),
                    "--cache-dir", str(tmp_path / "cache")]
            if named_by == "flag":
                args += ["--endpoint", url]
            else:
                monkeypatch.setenv(ENDPOINT_ENV, url)
            assert main(args) == 0
            assert out.read_bytes() == expected.read_bytes(), url

    def test_offline_replay_of_several_origins_fails_before_writing(
        self, endpoint, tmp_path, capsys
    ):
        """Without an endpoint, an offline group over a file that two
        origins hold fails in the grid's pre-pass: no group runs, so the
        online group before it writes no cache file, and no report is
        written."""
        harness.run(config(endpoint, tmp_path))
        with running_server(OTHER_FIXTURES) as other:
            harness.run(config(other, tmp_path))
        origins = sorted(p.name for p in (tmp_path / "cache").iterdir())
        assert len(origins) == 2
        before = sorted(tmp_path.rglob("*"))
        replay = config(None, tmp_path, offline=True, out=str(tmp_path / "replay.csv"))
        online = config(endpoint, tmp_path, temperature=0.5, out=str(tmp_path / "online.csv"))
        with pytest.raises(HarnessError, match="several endpoints") as raised:
            harness.grid([online, replay])
        assert all(origin in str(raised.value) for origin in origins)
        assert sorted(tmp_path.rglob("*")) == before
        capsys.readouterr()
        assert main(["run", "--corpus", str(TOY_CORPUS), "--offline", "--out", replay.out,
                     "--cache-dir", replay.cache_dir]) == 1
        err = capsys.readouterr().err
        assert err.startswith("Error: ") and all(origin in err for origin in origins)
        assert sorted(tmp_path.rglob("*")) == before

    def test_limit_restricts_evaluation(self, endpoint, tmp_path):
        summary = harness.run(config(endpoint, tmp_path, limit=2))
        assert summary.processed == 2
        assert summary.cache_misses == 20

    def test_single_equals_frequency_for_one_sample(self, endpoint, tmp_path):
        a = harness.run(config(endpoint, tmp_path, n_samples=1, strategy="single"))
        b = harness.run(config(endpoint, tmp_path, n_samples=1, strategy="frequency_order"))
        assert a.report.table == b.report.table
        assert a.report.counts == b.report.counts

    def test_bad_strategy_is_harness_error(self, endpoint, tmp_path):
        with pytest.raises(HarnessError):
            harness.run(config(endpoint, tmp_path, strategy="median"))


class TestDocumentFailure:
    """One document's evaluation raising costs that document only, on the
    offline (calling thread alone) and the online (several fetchers) path
    alike; a fatal endpoint error ends the run."""

    @pytest.fixture()
    def failing(self, monkeypatch):
        """Make `_evaluate` raise `exc` for doc-003; records the threads
        that evaluate."""
        threads = []

        def patch(exc):
            evaluate = harness._evaluate

            def failing_evaluate(doc, *args):
                threads.append(threading.current_thread())
                if doc.id == "doc-003":
                    raise exc
                return evaluate(doc, *args)

            monkeypatch.setattr(harness, "_evaluate", failing_evaluate)
            return threads

        return patch

    @pytest.mark.parametrize("offline", [True, False], ids=["offline", "online"])
    def test_other_error_costs_one_document(
        self, endpoint, tmp_path, caplog, failing, offline
    ):
        harness.run(config(endpoint, tmp_path))  # warm the cache
        caplog.clear()  # its warning of the samples without logprobs
        failing(ValueError("boom"))
        cfg = config(None if offline else endpoint, tmp_path, offline=offline)
        with caplog.at_level(logging.ERROR, logger="kpagg.harness"):
            summary = harness.run(cfg)
        assert (summary.processed, summary.errored) == (4, 1)
        assert summary.cache_hits == 50
        (record,) = caplog.records
        assert record.getMessage() == "document doc-003 failed; continuing"
        assert record.exc_info[0] is ValueError

    def test_failed_fetch_frees_its_fetcher_for_the_next_document(
        self, endpoint, tmp_path, caplog, monkeypatch
    ):
        # With one fetcher, each document starts only after the one before
        # it was evaluated, and a fetch that raises costs its document only:
        # the fetcher takes the next one.
        events = []
        fetch, evaluate = harness._fetch, harness._evaluate

        def failing_fetch(doc, *args):
            events.append(("fetch", doc.id))
            if doc.id == "doc-003":
                raise ValueError("boom")
            return fetch(doc, *args)

        def recording_evaluate(doc, *args):
            events.append(("evaluate", doc.id))
            return evaluate(doc, *args)

        monkeypatch.setattr(harness, "_fetch", failing_fetch)
        monkeypatch.setattr(harness, "_evaluate", recording_evaluate)
        with caplog.at_level(logging.ERROR, logger="kpagg.harness"):
            summary = harness.run(config(endpoint, tmp_path, max_in_flight=1))
        assert (summary.processed, summary.errored) == (4, 1)
        assert (summary.cache_hits, summary.cache_misses) == (0, 40)
        ids = [f"doc-00{k}" for k in range(1, 6)]
        steps = [(step, d) for d in ids for step in ("fetch", "evaluate")]
        assert events == [e for e in steps if e != ("evaluate", "doc-003")]
        (record,) = caplog.records
        assert record.getMessage() == "document doc-003 failed; continuing"
        assert record.exc_info[0] is ValueError

    def test_fatal_error_propagates_offline(self, endpoint, tmp_path, failing):
        harness.run(config(endpoint, tmp_path))
        threads = failing(AuthenticationError("bad key"))
        with pytest.raises(AuthenticationError):
            harness.run(config(None, tmp_path, offline=True))
        # corpus order on the calling thread: the documents after it never ran
        assert threads == [threading.main_thread()] * 3

    def test_offline_run_evaluates_on_the_calling_thread(
        self, endpoint, tmp_path, failing, monkeypatch
    ):
        harness.run(config(endpoint, tmp_path))
        threads = failing(ValueError("boom"))
        fetching = []
        fetch = harness._fetch

        def recording_fetch(*args):
            fetching.append(threading.current_thread())
            return fetch(*args)

        monkeypatch.setattr(harness, "_fetch", recording_fetch)
        harness.run(config(None, tmp_path, offline=True))
        assert fetching == threads == [threading.main_thread()] * 5


class TestFetchers:
    """The calling thread is a group's one fetcher offline and one of
    `max_in_flight` online; what a run counts and writes does not depend on
    how its fetchers interleave."""

    @staticmethod
    def record_starts(monkeypatch) -> list:
        """The threads the calling thread starts from now on (the mock
        server's own thread starts one per connection)."""
        started, start = [], threading.Thread.start
        caller = threading.current_thread()

        def recording_start(self):
            if threading.current_thread() is caller:
                started.append(self)
            return start(self)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        return started

    @pytest.mark.parametrize(
        "offline, max_in_flight, helpers",
        [(True, 1, 0), (True, 4, 0), (False, 1, 0), (False, 3, 2)],
        ids=["offline-1", "offline-4", "online-1", "online-3"],
    )
    def test_one_fetcher_starts_no_thread(
        self, endpoint, tmp_path, monkeypatch, offline, max_in_flight, helpers
    ):
        harness.run(config(endpoint, tmp_path, n_samples=4))  # a partly warm cache
        started = self.record_starts(monkeypatch)
        cfg = config(
            None if offline else endpoint, tmp_path, offline=offline, max_in_flight=max_in_flight
        )
        summary = harness.run(cfg)
        assert summary.processed == 5
        assert len(started) == helpers
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("max_in_flight", [1, 2, 4])
    def test_at_most_max_in_flight_fetchers_fetch_at_once(
        self, endpoint, tmp_path, monkeypatch, max_in_flight
    ):
        records = [json.loads(line) for line in TOY_CORPUS.read_text().splitlines()]
        corpus_path = tmp_path / "twelve.jsonl"
        corpus_path.write_text(
            "".join(json.dumps({**records[k % 5], "id": f"d{k}"}) + "\n" for k in range(12)),
            encoding="utf-8",
        )
        lock, fetching, peak = threading.Lock(), [0], [0]
        fetch = harness._fetch

        def counting_fetch(*args):
            with lock:
                fetching[0] += 1
                peak[0] = max(peak[0], fetching[0])
            try:
                time.sleep(0.01)  # long enough for every fetcher to be inside
                return fetch(*args)
            finally:
                with lock:
                    fetching[0] -= 1

        monkeypatch.setattr(harness, "_fetch", counting_fetch)
        cfg = config(
            endpoint, tmp_path, corpus_path=str(corpus_path), n_samples=2,
            max_in_flight=max_in_flight,
        )
        assert harness.run(cfg).processed == 12
        assert peak[0] == max_in_flight

    @pytest.mark.parametrize("exc", [AuthenticationError("bad key"), KeyboardInterrupt()])
    def test_fatal_error_on_a_helper_is_raised_after_every_fetcher_ended(
        self, endpoint, tmp_path, monkeypatch, exc
    ):
        fetchers, closed_with_alive = set(), []
        fetch = harness._fetch

        def failing_fetch(*args):
            fetchers.add(threading.current_thread())
            if threading.current_thread() is not threading.main_thread():
                raise exc
            time.sleep(0.01)
            return fetch(*args)

        close = harness.LLMClient.close

        def recording_close(self):
            closed_with_alive.extend(t for t in fetchers if t.is_alive())
            close(self)

        monkeypatch.setattr(harness, "_fetch", failing_fetch)
        monkeypatch.setattr(harness.LLMClient, "close", recording_close)
        with pytest.raises(type(exc)) as raised:
            harness.run(config(endpoint, tmp_path, max_in_flight=3))
        assert raised.value is exc
        helpers = fetchers - {threading.main_thread()}
        assert helpers
        # the client closed after the helpers had ended, and none is left
        assert closed_with_alive == []
        assert not any(t.is_alive() for t in helpers)

    @pytest.mark.parametrize("max_in_flight", [3, 8])
    def test_no_request_is_sent_after_a_fatal_error(self, tmp_path, monkeypatch, max_in_flight):
        """Per request at n = 5: the endpoint answers the 3rd request with a
        401 and every other in full, but holds each answer after the 401
        until the client has raised. Only requests already sent when the
        401 came reach it after the 401, one per other fetcher at most;
        sending on would cost each of them its document's rest. Threads
        switch every microsecond, so a check and a send interleave often."""
        records = [json.loads(line) for line in TOY_CORPUS.read_text().splitlines()]
        corpus_path = tmp_path / "twelve.jsonl"
        corpus_path.write_text(
            "".join(json.dumps({**records[k % 5], "id": f"d{k}"}) + "\n" for k in range(12)),
            encoding="utf-8",
        )
        serving = running_server(MOCK_FIXTURES)
        lock, raised = threading.Lock(), threading.Event()
        requests, held_too_long = [0], []

        class Refusing(serving.server.RequestHandlerClass):
            def _answer(self, status, body):
                with lock:
                    requests[0] += 1
                    k = requests[0]
                if k == 3:
                    status, body = 401, b'{"error": "bad key"}'
                elif k > 3 and not raised.wait(10):
                    held_too_long.append(k)
                super()._answer(status, body)

        post = harness.LLMClient._post_with_retries

        def signalling_post(self, data):
            try:
                return post(self, data)
            except AuthenticationError:
                raised.set()
                raise

        monkeypatch.setattr(harness.LLMClient, "_post_with_retries", signalling_post)
        serving.server.RequestHandlerClass = Refusing
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with serving as url:
                for run in range(5):
                    requests[0] = 0
                    raised.clear()
                    cfg = config(
                        url, tmp_path / str(run), corpus_path=str(corpus_path), n_samples=5,
                        request_mode="per-request", max_in_flight=max_in_flight,
                    )
                    with pytest.raises(AuthenticationError):
                        harness.run(cfg)
                    assert 3 <= requests[0] <= 3 + max_in_flight - 1
        finally:
            sys.setswitchinterval(interval)
        assert held_too_long == []

    def test_fetchers_count_exactly_under_interleaving(self, tmp_path, caplog):
        """Eight fetchers switching threads every microsecond count and
        write exactly what one fetcher does, on the same partly warm cache."""
        records = [json.loads(line) for line in TOY_CORPUS.read_text().splitlines()]
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(
            "".join(json.dumps({**records[k % 5], "id": f"doc-{k:02d}"}) + "\n"
                    for k in range(48)),
            encoding="utf-8",
        )
        fixtures = json.loads(MOCK_FIXTURES.read_text(encoding="utf-8"))
        for entry in fixtures["responses"]:
            entry["samples"][:0] = [
                # a content that is no string, also when slot 0 is asked for
                # again with n = 1: the sample is absent
                {"text": 7},
                {"text": '"graph coloring", "tdm', "finish_reason": "length"},  # truncated
                {"text": "]"},  # a parse fallback
            ]

        def run(endpoint, cache_dir, **kw):
            return harness.run(RunConfig(
                corpus_path=str(corpus_path), endpoint=endpoint, cache_dir=str(cache_dir), **kw
            ))

        outcomes = []
        with running_server(MockFixtures(fixtures)) as url:
            # the first 20 documents have four samples cached
            run(url, tmp_path / "warm", n_samples=4, limit=20, max_in_flight=1)
            # a lost update is rare, so the interleaved run is made three times
            for r, k in enumerate((1, 8, 8, 8)):
                shutil.copytree(tmp_path / "warm", tmp_path / f"cache{r}")
                out = tmp_path / f"report{r}.csv"
                caplog.clear()
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)
                try:
                    with caplog.at_level(logging.WARNING, logger="kpagg.harness"):
                        summary = run(url, tmp_path / f"cache{r}", max_in_flight=k, out=str(out))
                finally:
                    sys.setswitchinterval(interval)
                warnings = [r.getMessage() for r in caplog.records if "unavailable" in r.getMessage()]
                outcomes.append((
                    summary._replace(wall_time=0.0),
                    warnings,
                    out.read_bytes(),
                    out.with_suffix(".csv.meta.json").read_bytes(),
                ))
        one = outcomes[0]
        assert outcomes[1:] == [one] * 3
        summary, warnings = one[:2]
        assert summary.processed == 48
        assert 0 < summary.cache_hits < summary.cache_misses
        assert summary.parse_fallbacks > 0 and summary.truncated > 0
        assert len(warnings) == 1


N_CACHED = 4  # samples per document in the warm caches below


class TestFilteredCacheLoad:
    """A run decodes only the cache lines of its own documents, and reports
    exactly what a full load of the cache gives."""

    @pytest.fixture()
    def corpus_path(self, tmp_path):
        """Ten documents: the toy corpus twice, under new ids."""
        records = [json.loads(line) for line in TOY_CORPUS.read_text().splitlines()]
        path = tmp_path / "ten.jsonl"
        path.write_text(
            "".join(
                json.dumps({**records[k % 5], "id": f"doc-{k:02d}"}) + "\n" for k in range(10)
            ),
            encoding="utf-8",
        )
        return path

    def cfg(self, tmp_path, corpus_path, **kw):
        kw.setdefault("n_samples", N_CACHED)
        return config(None, tmp_path, corpus_path=str(corpus_path), offline=True, **kw)

    def warm(self, cfg, prompt_cfg) -> list[str]:
        """Cache N_CACHED samples of every document under `prompt_cfg`;
        returns the prompt hashes in corpus order."""
        hashes = []
        cache_path(cfg).parent.mkdir(parents=True)
        for doc in load_corpus(cfg.corpus_path):
            h = prompting.build_prompt(doc, cfg.variant, prompt_cfg).prompt_hash
            hashes.append(h)
            gold = [f'"{p}"' for p in doc.gold]
            with closing(SampleCache(cache_path(cfg))) as cache:
                cache.put(*(
                    RawSample(doc.id, h, i, ", ".join(gold[: i + 2]) + "]", -0.5 - i, 3, "stop")
                    for i in range(N_CACHED)
                ))
        return hashes

    @pytest.fixture()
    def decoded(self, monkeypatch):
        """The doc_id of every cache line decoded."""
        seen = []
        decode = SampleCache._decode

        def counting(obj):
            seen.append(obj["doc_id"])
            return decode(obj)

        monkeypatch.setattr(SampleCache, "_decode", staticmethod(counting))
        return seen

    def test_decodes_only_the_selected_documents(
        self, tmp_path, corpus_path, prompt_cfg, decoded
    ):
        cfg = self.cfg(tmp_path, corpus_path, limit=3)
        self.warm(cfg, prompt_cfg)
        decoded.clear()
        summary = harness.run(cfg)
        assert len(decoded) == 3 * N_CACHED
        assert set(decoded) == {"doc-00", "doc-01", "doc-02"}
        assert (summary.processed, summary.cache_hits, summary.cache_misses) == (3, 12, 0)

    @pytest.mark.parametrize("seed", [None, 5])
    def test_reports_equal_those_of_a_full_load(
        self, tmp_path, corpus_path, prompt_cfg, monkeypatch, seed
    ):
        configs = [
            self.cfg(
                tmp_path, corpus_path, limit=3, seed=seed, strategy=strategy,
                out=str(tmp_path / side / f"{strategy}.csv"),
            )
            for side in ("filtered", "full")
            for strategy in ("union", "frequency_order")
        ]
        self.warm(configs[0], prompt_cfg)
        harness.grid(configs[:2])

        class FullLoad(SampleCache):
            def __init__(self, path, doc_ids=None):
                super().__init__(path)

        monkeypatch.setattr(harness, "SampleCache", FullLoad)
        harness.grid(configs[2:])
        for strategy in ("union", "frequency_order"):
            for suffix in (".csv", ".csv.meta.json"):
                name = strategy + suffix
                filtered = (tmp_path / "filtered" / name).read_bytes()
                assert filtered == (tmp_path / "full" / name).read_bytes(), name

    def test_corrupt_line_warned_only_for_a_selected_document(
        self, tmp_path, corpus_path, prompt_cfg, caplog
    ):
        cfg = self.cfg(tmp_path, corpus_path, limit=3)
        hashes = self.warm(cfg, prompt_cfg)
        path = cache_path(cfg)
        with path.open("a", encoding="utf-8") as fh:
            for k in (9, 1):  # doc-09 is not among the first 3, doc-01 is
                line = {"doc_id": f"doc-{k:02d}", "prompt_hash": hashes[k], "text": 7}
                fh.write(json.dumps(line) + "\n")
        lines = 10 * N_CACHED
        with caplog.at_level(logging.WARNING, logger="kpagg.cache"):
            summary = harness.run(cfg)
        assert summary.cache_hits == 3 * N_CACHED
        messages = [r.getMessage() for r in caplog.records]
        assert messages == [
            f"{path}:{lines + 2}: skipping corrupt cache line",
            f"{path}: skipped 1 corrupt cache line(s)",
        ]


class TestDecodeOnTake:
    """A run's cache load keeps where each document's lines are; a fetcher
    decodes a document's lines when it takes the document, and the group
    closes the cache when it ends."""

    @pytest.fixture()
    def events(self, monkeypatch):
        """The cache's loads ("loaded"), the doc_id of each line it decodes,
        and each document evaluated, ("evaluate", doc_id), in order; and
        every cache a run made."""
        seen, caches = [], []
        decode = SampleCache._decode

        def counting(obj):
            seen.append(obj["doc_id"])
            return decode(obj)

        class Recorded(SampleCache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                caches.append(self)
                seen.append("loaded")

        evaluate = harness._evaluate

        def evaluating(doc, *args):
            seen.append(("evaluate", doc.id))
            return evaluate(doc, *args)

        monkeypatch.setattr(SampleCache, "_decode", staticmethod(counting))
        monkeypatch.setattr(harness, "SampleCache", Recorded)
        monkeypatch.setattr(harness, "_evaluate", evaluating)
        return seen, caches

    def test_a_replay_decodes_each_document_when_it_is_taken(
        self, endpoint, tmp_path, docs, events
    ):
        harness.run(config(endpoint, tmp_path))  # 10 cached samples per document
        seen, caches = events
        seen.clear()
        summary = harness.run(config(None, tmp_path, offline=True))
        assert summary.cache_hits == 50
        # nothing decoded at the load, then one document's lines before its
        # evaluation and no other's
        assert seen == ["loaded", *(
            event for doc in docs for event in [*[doc.id] * 10, ("evaluate", doc.id)]
        )]

    @pytest.mark.parametrize("offline", [True, False], ids=["offline", "online"])
    def test_a_group_closes_its_cache(self, endpoint, tmp_path, events, offline):
        harness.run(config(endpoint, tmp_path))
        harness.run(config(None if offline else endpoint, tmp_path, offline=offline))
        _, caches = events
        assert len(caches) == 2
        assert all(cache._file.closed for cache in caches)

    def test_a_group_ended_by_a_fatal_error_closes_its_cache(
        self, endpoint, tmp_path, events, monkeypatch
    ):
        harness.run(config(endpoint, tmp_path))

        def refused(*args):
            raise AuthenticationError("endpoint returned HTTP 401")

        monkeypatch.setattr(harness, "_evaluate", refused)
        with pytest.raises(AuthenticationError):
            harness.run(config(None, tmp_path, offline=True))
        _, caches = events
        assert caches[-1]._file.closed


class TestGrid:
    def grid_yaml(self, tmp_path, endpoint):
        return {
            "corpus": str(TOY_CORPUS),
            "endpoint": endpoint,
            "cache_dir": str(tmp_path / "cache"),
            "out": str(tmp_path / "merged.csv"),
            "runs": [
                {"aggregate": "union", "out": str(tmp_path / "union.csv")},
                {"aggregate": "frequency"},
            ],
        }

    def test_fetch_groups(self, tmp_path):
        base = config(None, tmp_path, offline=True)
        configs = [
            base._replace(strategy="union", n_samples=3),
            base._replace(temperature=0.5),
            base._replace(ppl_mode="sum", empty_gold="zero", out="a.csv"),
            base._replace(temperature=0.5, variant="combined"),
            base._replace(variant="combined_control"),
            base._replace(variant="combined", n_samples=1),  # an alias
        ]
        assert harness.fetch_groups(configs) == [[0, 2], [1], [3], [4, 5]]

    @pytest.mark.parametrize("field, values, sent", [
        ("max_in_flight", (1, 4), 5),
        ("request_mode", ("per-request", "choices"), 50),
    ], ids=["max_in_flight", "request_mode"])
    def test_runs_differing_only_in_a_run_setting_fetch_once(
        self, tmp_path, capsys, counted_endpoint, cache_loads, field, values, sent
    ):
        """Runs that differ only in a `run` setting are one fetch group,
        fetched with the first run's value: one fetch-group line, one cache
        load, the first run's requests, and each run's CSV and meta.json
        those of the first run alone. No meta.json holds the setting, so
        the table labels the rows by it."""
        endpoint, requests = counted_endpoint
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump({
            "corpus": str(TOY_CORPUS), "endpoint": endpoint, "cache_dir": str(tmp_path / "cache"),
            "runs": [{field: v, "out": str(tmp_path / f"grid-{v}.csv")} for v in values],
        }))
        assert main(["grid", "--config", str(path)]) == 0
        output = capsys.readouterr().out
        groups = [line for line in output.splitlines() if line.startswith("fetch group")]
        assert len(groups) == 1 and groups[0].startswith("fetch group of runs 1,2: ")
        assert (len(requests), len(cache_loads)) == (sent, 1)
        # `out` differs too, and is no label
        header, _, *rows = map(str.split, output[output.index("corpus  "):].splitlines())
        assert header[3:5] == [field, "processed"]
        assert [row[3] for row in rows] == list(map(str, values))
        alone = tmp_path / "alone.csv"
        harness.run(config(endpoint, tmp_path / "alone", **{field: values[0]}, out=str(alone)))
        for v in values:
            assert [f.read_bytes() for f in harness.report_files(tmp_path / f"grid-{v}.csv")] == [
                f.read_bytes() for f in harness.report_files(alone)
            ]

    def test_online_and_offline_configs_fetch_apart(self, tmp_path, counted_endpoint):
        endpoint, requests = counted_endpoint
        online = config(endpoint, tmp_path)
        offline = online._replace(offline=True)
        assert harness.fetch_groups([offline, online]) == [[0], [1]]
        # the offline group goes first, on an empty cache, and sends nothing
        summaries = harness.grid([offline, online])
        assert [(s.processed, s.cache_hits) for s in summaries] == [(0, 0), (5, 0)]
        assert len(requests) == 5  # the online group's, one per document

    def test_load_grid_config_aliases(self, tmp_path, endpoint):
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump(self.grid_yaml(tmp_path, endpoint)))
        configs, out = load_grid_config(path)
        assert [c.strategy for c in configs] == ["union", "frequency_order"]
        assert all(c.corpus_path == str(TOY_CORPUS) for c in configs)
        assert out == str(tmp_path / "merged.csv")

    def test_grid_runs_and_merges(self, tmp_path, endpoint):
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump(self.grid_yaml(tmp_path, endpoint)))
        configs, out = load_grid_config(path)
        summaries = harness.grid(configs, out=out)
        assert len(summaries) == 2
        merged = (tmp_path / "merged.csv").read_text().strip().split("\n")
        assert len(merged) == 1 + 2 * 8
        assert (tmp_path / "union.csv").exists()
        strategies = {line.split(",")[2] for line in merged[1:]}
        assert strategies == {"union", "frequency_order"}

    def test_merged_meta_names_every_row_block(self, endpoint, tmp_path):
        configs = [
            config(endpoint, tmp_path, ppl_mode=mode, n_samples=n, empty_gold=policy)
            for mode in ("mean", "sum")
            for n in (3, 5)
            for policy in ("exclude", "zero")
        ]
        merged = tmp_path / "merged.csv"
        harness.grid(configs, out=str(merged))
        # the outputs alone: the CSV's row blocks and the list beside it
        header, *rows = merged.read_text(encoding="utf-8").splitlines()
        meta_text = (tmp_path / "merged.csv.meta.json").read_text(encoding="utf-8")
        meta = json.loads(meta_text)
        assert meta_text == json.dumps(meta, sort_keys=True, indent=2) + "\n"
        size = len(rows) // len(configs)
        blocks = [rows[i : i + size] for i in range(0, len(rows), size)]
        assert len(blocks) == len(meta) == len(configs)
        assert len({json.dumps(entry, sort_keys=True) for entry in meta}) == len(configs)
        for i, (cfg, block, entry) in enumerate(zip(configs, blocks, meta)):
            single = tmp_path / f"single{i}.csv"
            harness.run(cfg._replace(out=str(single)))
            assert single.read_text(encoding="utf-8").splitlines() == [header, *block]
            single_meta = tmp_path / f"single{i}.csv.meta.json"
            assert entry == json.loads(single_meta.read_text(encoding="utf-8")) == provenance(cfg)

    @pytest.fixture
    def cache_loads(self, monkeypatch):
        loads = []

        class CountingCache(harness.SampleCache):
            def __init__(self, *args, **kwargs):
                loads.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "SampleCache", CountingCache)
        return loads

    def test_evaluation_only_configs_share_one_pass(self, endpoint, tmp_path, cache_loads):
        configs = [
            config(endpoint, tmp_path, strategy=strategy, ppl_mode=mode)
            for strategy in STRATEGIES
            for mode in ("mean", "sum")
        ]
        summaries = harness.grid(configs)
        assert len(cache_loads) == 1
        assert [s.cache_misses for s in summaries] == [50] * 10
        for cfg, summary in zip(configs, summaries):
            assert summary.report == harness.run(cfg).report, cfg

    def test_sample_counts_share_one_fetch(self, endpoint, tmp_path, cache_loads):
        configs = [config(endpoint, tmp_path, n_samples=n) for n in (3, 10)]
        summaries = harness.grid(configs)
        assert len(cache_loads) == 1
        # the cache counts are the group's, made at its largest n
        assert [s.cache_misses for s in summaries] == [50, 50]
        for cfg, summary in zip(configs, summaries):
            assert summary.report == harness.run(cfg).report, cfg

    @pytest.fixture
    def gappy_cache(self, endpoint, tmp_path):
        """A toy-corpus cache of 10 samples per document with slots taken
        out: doc-001 keeps only slots 3 and up, doc-002 loses slots 1 and 6,
        doc-004 keeps only slot 9."""
        harness.run(config(endpoint, tmp_path, n_samples=10))
        path = cache_path(config(None, tmp_path))
        dropped = {
            "doc-001": set(range(3)), "doc-002": {1, 6}, "doc-004": set(range(9)),
        }
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(
            line for line in lines
            if (r := json.loads(line))["sample_index"] not in dropped.get(r["doc_id"], ())
        ), encoding="utf-8")
        return path

    def test_sample_count_grid_writes_what_single_runs_write(self, tmp_path, gappy_cache):
        configs = [
            config(
                None, tmp_path, offline=True, n_samples=n, strategy=strategy, ppl_mode=mode,
                out=str(tmp_path / "grid" / f"{n}-{strategy}-{mode}.csv"),
            )
            for n in (1, 3, 5, 10)
            for strategy in ("single", "union_concat", "frequency_order")
            for mode in ("mean", "sum")
        ]
        harness.grid(configs)
        for cfg in configs:
            single = cfg._replace(out=cfg.out.replace("grid", "single"))
            harness.run(single)
            for suffix in ("", ".meta.json"):
                grid_bytes = Path(cfg.out + suffix).read_bytes()
                assert grid_bytes == Path(single.out + suffix).read_bytes(), (cfg, suffix)

    def test_document_without_a_sample_below_n_is_errored_at_that_n_only(
        self, tmp_path, gappy_cache
    ):
        configs = [config(None, tmp_path, offline=True, n_samples=n) for n in (1, 3, 4, 10)]
        summaries = harness.grid(configs)
        # doc-001 has samples from slot 3 and doc-004 only at slot 9
        assert [(s.processed, s.errored) for s in summaries] == [(3, 2), (3, 2), (4, 1), (5, 0)]
        # the cache counts are the group's, at n = 10
        assert {(s.cache_hits, s.cache_misses) for s in summaries} == {(36, 14)}
        for cfg, summary in zip(configs, summaries):
            single = harness.run(cfg)
            assert (single.processed, single.errored) == (summary.processed, summary.errored)

    @pytest.mark.parametrize("mode", ["choices", "per-request"])
    def test_sample_count_grid_sends_the_requests_of_its_largest_run(
        self, tmp_path, counted_endpoint, mode
    ):
        endpoint, requests = counted_endpoint
        grid_dir, single_dir = tmp_path / "grid", tmp_path / "single"
        harness.grid([
            config(endpoint, grid_dir, n_samples=n, request_mode=mode) for n in (1, 3, 5, 10)
        ])
        sent = len(requests)
        requests.clear()
        harness.run(config(endpoint, single_dir, n_samples=10, request_mode=mode))
        assert sent == len(requests) == {"choices": 5, "per-request": 50}[mode]

        def cached(cache_dir):
            path = cache_path(config(None, cache_dir))
            return sorted(path.read_text(encoding="utf-8").splitlines())

        assert cached(grid_dir) == cached(single_dir)

    def test_temperature_sweep_does_not_replay_across_temperatures(
        self, endpoint, tmp_path, cache_loads
    ):
        configs = [config(endpoint, tmp_path, temperature=t) for t in (0.2, 0.9)]
        summaries = harness.grid(configs)
        assert len(cache_loads) == 2
        assert [s.cache_hits for s in summaries] == [0, 0]
        assert [s.cache_misses for s in summaries] == [50, 50]

    def test_invalid_sampling_settings_rejected(self, tmp_path):
        with pytest.raises(HarnessError, match="temperature"):
            harness.grid([RunConfig(corpus_path="c.jsonl", temperature="hot")])

    def test_variant_alias_and_full_name_share_one_pass(self, endpoint, tmp_path, cache_loads):
        configs = [
            config(endpoint, tmp_path, variant=variant)
            for variant in ("combined", "combined_control")
        ]
        summaries = harness.grid(configs)
        assert len(cache_loads) == 1
        assert [s.cache_misses for s in summaries] == [50, 50]
        for cfg, summary in zip(configs, summaries):
            assert summary.report == harness.run(cfg).report, cfg

    def test_samples_classified_once_across_perplexity_modes(
        self, endpoint, tmp_path, monkeypatch
    ):
        # every source text and every new phrase surface is tokenized once
        calls = []
        tokenize = textnorm.tokenize

        def counting(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(textnorm, "tokenize", counting)
        harness.run(config(endpoint, tmp_path))  # warm the cache
        counts = {}
        for modes in (("mean",), ("mean", "sum")):
            configs = [
                config(endpoint, tmp_path, strategy=strategy, ppl_mode=mode)
                for strategy in STRATEGIES
                for mode in modes
            ]
            calls.clear()
            summaries = harness.grid(configs)
            counts[modes] = len(calls)
            for cfg, summary in zip(configs, summaries):
                assert summary.report == harness.run(cfg).report, cfg
        assert counts[("mean",)] == counts[("mean", "sum")] > 0

    def test_one_prediction_per_mode_and_strategy(self, endpoint, tmp_path, monkeypatch):
        harness.run(config(endpoint, tmp_path))  # warm the cache
        calls = []
        predict = aggregation.predict

        def recording(ranked, present, strategies):
            calls.append(tuple(strategies))
            return predict(ranked, present, strategies)

        monkeypatch.setattr(aggregation, "predict", recording)
        configs = [
            config(endpoint, tmp_path, strategy=strategy, ppl_mode=mode, empty_gold=policy)
            for strategy in STRATEGIES
            for mode in ("mean", "sum")
            for policy in ("exclude", "zero")
        ]
        summaries = harness.grid(configs)
        # one call per document and perplexity mode, for every strategy once
        assert calls == [STRATEGIES] * 2 * summaries[0].processed
        for cfg, summary in zip(configs, summaries):
            assert summary.report == harness.run(cfg).report, cfg

    @pytest.mark.parametrize(
        "bad", [{"strategy": "median"}, {"ppl_mode": "max"}, {"empty_gold": "skip"}]
    )
    def test_invalid_config_rejected_before_running(self, endpoint, tmp_path, bad):
        with pytest.raises(HarnessError):
            configs = [
                config(endpoint, tmp_path, out=str(tmp_path / "good.csv")),
                config(endpoint, tmp_path, out=str(tmp_path / "bad.csv"), **bad),
            ]
            harness.grid(configs, out=str(tmp_path / "merged.csv"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "bad",
        [
            {"n_samples": 0},
            {"max_in_flight": 0},
            {"limit": -1},
            {"limit": -1, "seed": 3},
            {"limit": True},
            {"temperature": -0.5},
            {"max_tokens": 0},
            {"request_mode": "batch"},
            {"temperature": float("nan")},
            {"temperature": float("inf")},
            {"temperature": 10**400},  # too large for a float
            {"default_domain": "News"},  # the domains are lower case
            {"model": 3.5},
            {"cache_dir": 5},
            {"corpus_path": 7},
            {"out": 5},
            {"prompt_config": 3},
            {"endpoint": 4},
            {"merged_out": 5},  # the grid's own merged CSV
            {"strategy": ["union"]},
            {"variant": ["baseline"]},
            {"prefill": "no"},  # a quoted YAML string is truthy
            {"prefill": 0},
            {"offline": "yes"},
            {"seed": [1]},
            {"seed": "x"},
            {"seed": True},
            {"seed": 1.0},
            {"temperature": "0.7"},  # a quoted YAML number
            {"temperature": True},
            {"max_tokens": 2.9},
            {"max_tokens": True},
            {"variant": "nope"},
            # an empty string is no setting: not $KPAGG_ENDPOINT, not ".", not "no report"
            {"model": ""},
            {"cache_dir": ""},
            {"endpoint": ""},
            {"out": ""},
            {"merged_out": ""},
            {"corpus_path": ""},
            {"prompt_config": ""},
        ],
    )
    def test_value_the_cli_rejects_is_rejected_before_running(
        self, endpoint, tmp_path, bad
    ):
        bad = {"out": str(tmp_path / "bad.csv"), **bad}
        merged = bad.pop("merged_out", str(tmp_path / "merged.csv"))
        with pytest.raises(HarnessError):
            configs = [
                config(endpoint, tmp_path, out=str(tmp_path / "good.csv")),
                config(bad.pop("endpoint", endpoint), tmp_path, **bad),
            ]
            harness.grid(configs, out=merged)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "bad, error",
        [
            ({"corpus_path": "missing.jsonl"}, CorpusError),
            ({"prompt_config": "missing.yaml"}, PromptConfigError),
            ({"endpoint": None}, HarnessError),
            ({"endpoint": "ftp://127.0.0.1/v1"}, LLMClientError),
        ],
        ids=["corpus", "prompt-config", "no-endpoint", "ftp-endpoint"],
    )
    def test_every_group_reads_its_inputs_before_the_first_runs(
        self, endpoint, tmp_path, bad, error
    ):
        bad = dict(bad)
        configs = [
            config(endpoint, tmp_path, out=str(tmp_path / "good.csv")),
            config(bad.pop("endpoint", endpoint), tmp_path, out=str(tmp_path / "bad.csv"), **bad),
        ]
        with pytest.raises(error):
            harness.grid(configs)
        assert list(tmp_path.iterdir()) == []

    def test_one_corpus_and_prompt_file_are_read_once_per_grid(
        self, endpoint, tmp_path, monkeypatch
    ):
        reads = []

        def counting(module, name):
            load = getattr(module, name)

            def wrapper(*args, **kwargs):
                reads.append(name)
                return load(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(corpus, "load_corpus")
        counting(prompting, "load_prompt_config")
        configs = [config(endpoint, tmp_path, variant=v) for v in ("baseline", "present")]
        summaries = harness.grid(configs)
        assert sorted(reads) == ["load_corpus", "load_prompt_config"]
        for cfg, summary in zip(configs, summaries):
            assert summary.report == harness.run(cfg).report, cfg

    def test_duplicate_outputs_rejected_before_running(self, tmp_path, monkeypatch):
        shared = dict(corpus_path="missing.jsonl", out=str(tmp_path / "same.csv"))
        configs = [RunConfig(**shared), RunConfig(**shared)]
        with pytest.raises(HarnessError, match="conflicting"):
            harness.grid(configs)
        # two spellings of one file, between configs or with the merged CSV
        monkeypatch.chdir(tmp_path)
        spellings = [("same.csv", "./same.csv"), ("same.csv", f"{tmp_path}/./same.csv")]
        for first, second in spellings:
            configs = [RunConfig("missing.jsonl", out=first), RunConfig("missing.jsonl", out=second)]
            with pytest.raises(HarnessError, match="conflicting"):
                harness.grid(configs)
            with pytest.raises(HarnessError, match="conflicting"):
                harness.grid(configs[:1], out=second)
        # an output named as the meta.json written beside another
        meta_named = RunConfig("missing.jsonl", out="same.csv.meta.json")
        with pytest.raises(HarnessError, match="conflicting"):
            harness.grid([meta_named], out="same.csv")
        with pytest.raises(HarnessError, match="conflicting"):
            harness.grid([RunConfig("missing.jsonl", out="same.csv"), meta_named])
        assert not (tmp_path / "same.csv").exists()

    @pytest.mark.parametrize("which", ["config", "merged"])
    @pytest.mark.parametrize("written", ["corpus", "prompt config", "cache", "meta.json"])
    def test_output_that_is_an_input_is_refused_before_running(
        self, tmp_path, which, written, counted_endpoint
    ):
        endpoint, requests = counted_endpoint
        # for "meta.json" the CSV is r.csv and its meta.json is the corpus
        corpus_path = tmp_path / ("r.csv.meta.json" if written == "meta.json" else "c.jsonl")
        shutil.copy(TOY_CORPUS, corpus_path)
        prompts = tmp_path / "p.yaml"
        prompts.write_text(json.dumps(prompting.load_prompt_config()._asdict()))
        base = RunConfig(
            str(corpus_path), endpoint=endpoint, cache_dir=str(tmp_path / "cache"),
            prompt_config=str(prompts),
        )
        out = str({
            "corpus": corpus_path,
            "prompt config": prompts,
            "cache": cache_path(base),
            "meta.json": tmp_path / "r.csv",
        }[written])
        inputs = {p: p.read_bytes() for p in (corpus_path, prompts)}
        configs = [base._replace(out=out)] if which == "config" else [base]
        with pytest.raises(HarnessError, match="is a .* file the run reads"):
            harness.grid(configs, out=out if which == "merged" else None)
        assert requests == []
        assert not (tmp_path / "cache").exists()
        assert {p: p.read_bytes() for p in inputs} == inputs

    @pytest.mark.parametrize("which", ["config", "merged", "meta.json"])
    def test_directory_output_is_refused_before_running(self, tmp_path, which, counted_endpoint):
        endpoint, requests = counted_endpoint
        (tmp_path / "r.csv.meta.json").mkdir()
        out = str(tmp_path / ("r.csv" if which == "meta.json" else "r.csv.meta.json"))
        base = config(endpoint, tmp_path)
        configs = [base] if which == "merged" else [base._replace(out=out)]
        with pytest.raises(HarnessError, match="is a directory"):
            harness.grid(configs, out=out if which == "merged" else None)
        assert requests == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv.meta.json"]

    def test_empty_config_list_rejected(self):
        with pytest.raises(HarnessError):
            harness.grid([])

    def test_malformed_grid_config(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("runs: {}\n")
        with pytest.raises(HarnessError):
            load_grid_config(path)

    def test_grid_config_list_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text(yaml.safe_dump([{"corpus": "c.jsonl", "runs": [{}]}]))
        with pytest.raises(HarnessError, match=f"^{re.escape(str(path))}: grid config must be a"):
            load_grid_config(path)

    def test_run_that_is_no_mapping_is_named(self, tmp_path):
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump({"corpus": "c.jsonl", "runs": [{}, "n_samples: 3"]}))
        with pytest.raises(HarnessError, match=r"grid\.yaml: run #2 must be a mapping"):
            load_grid_config(path)

    def test_run_without_corpus_is_named(self, tmp_path):
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump({"runs": [{"n_samples": 3}]}))
        with pytest.raises(HarnessError, match=r"grid\.yaml: run #1: missing 'corpus' path"):
            load_grid_config(path)

    def test_grid_config_nested_too_deep(self, tmp_path):
        path = tmp_path / "deep.yaml"
        path.write_text("[" * 100_000)
        with pytest.raises(HarnessError, match="invalid YAML"):
            load_grid_config(path)

    def test_bad_run_is_named(self, tmp_path):
        path = tmp_path / "grid.yaml"
        path.write_text(
            yaml.safe_dump({"corpus": "c.jsonl", "runs": [{}, {"temperature": -1}]})
        )
        with pytest.raises(HarnessError, match=r"grid\.yaml: run #2: temperature"):
            load_grid_config(path)

    @pytest.mark.parametrize("shared, run, where", [
        ({"aggregate": "union", "strategy": "single"}, {"aggregate": "frequency"}, "top level"),
        ({}, {"aggregate": "frequency", "strategy": "union"}, "run #2"),
    ])
    def test_one_setting_named_by_both_keys_is_refused(self, tmp_path, capsys, shared, run, where):
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump({"corpus": str(TOY_CORPUS), **shared, "runs": [{}, run]}))
        assert main(["grid", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"Error: {path}: {where}: 'aggregate' and 'strategy' both name strategy\n"
        )

    def test_a_run_key_overrides_the_shared_one_under_either_name(self, tmp_path):
        path = tmp_path / "grid.yaml"
        for shared, run in (("aggregate", "strategy"), ("strategy", "aggregate")):
            path.write_text(yaml.safe_dump(
                {"corpus": "c.jsonl", shared: "union", "runs": [{run: "single"}, {}]}
            ))
            configs, _ = load_grid_config(path)
            assert [c.strategy for c in configs] == ["single", "union"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            yaml.safe_dump({"corpus": "c.jsonl", "runs": [{"temprature": 1.0}]})
        )
        with pytest.raises(HarnessError, match="temprature"):
            load_grid_config(path)


# Each subcommand's flags and the attribute each one sets; `kpagg run`'s
# attributes are the `RunConfig` fields.
CLI_OPTIONS = {
    "run": {
        "--corpus": "corpus_path", "--variant": "variant", "--aggregate": "strategy",
        "--n-samples": "n_samples", "--temperature": "temperature",
        "--max-tokens": "max_tokens", "--model": "model", "--endpoint": "endpoint",
        "--limit": "limit", "--seed": "seed", "--cache-dir": "cache_dir", "--out": "out",
        "--empty-gold": "empty_gold", "--prompt-config": "prompt_config",
        "--prefill": "prefill", "--no-prefill": "prefill",
        "--request-mode": "request_mode", "--ppl-mode": "ppl_mode", "--offline": "offline",
        "--default-domain": "default_domain", "--max-in-flight": "max_in_flight",
    },
    "stats": {
        "--corpus": "corpus_path", "--limit": "limit",
        "--default-domain": "default_domain", "--csv": "csv_path",
    },
    "grid": {"--config": "config_path"},
}


def subcommands() -> dict[str, argparse.ArgumentParser]:
    (commands,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return commands.choices


class TestCli:
    def test_option_sets_are_pinned(self):
        parsers = subcommands()
        assert set(parsers) == set(CLI_OPTIONS)
        for name, parser in parsers.items():
            got = {
                flag: action.dest
                for action in parser._actions
                for flag in action.option_strings
                if flag not in ("-h", "--help")
            }
            assert got == CLI_OPTIONS[name], name
        run_defaults = {
            a.dest: a.default
            for a in parsers["run"]._actions
            if a.dest not in ("help", "corpus_path")
        }
        assert run_defaults == RunConfig._field_defaults
        assert set(CLI_OPTIONS["run"].values()) == set(RunConfig._fields)
        domain = next(a for a in parsers["stats"]._actions if a.dest == "default_domain")
        assert domain.default == RunConfig._field_defaults["default_domain"]

    def test_run_help_shows_each_default_but_none(self):
        words = " ".join(subcommands()["run"].format_help().split())
        assert "--n-samples N_SAMPLES Samples drawn per document. (default: 10)" in words
        assert "(default: None)" not in words

    def test_only_top_level_option_is_version(self, capsys):
        flags = {f for a in build_parser()._actions for f in a.option_strings}
        assert flags == {"-h", "--help", "--version"}
        with pytest.raises(SystemExit) as info:
            main(["-v", "run", "--corpus", str(TOY_CORPUS)])
        assert info.value.code == 2

    def test_run_command(self, endpoint, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = main(
            [
                "run",
                "--corpus", str(TOY_CORPUS),
                "--endpoint", endpoint,
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out),
            ],
        )
        output = capsys.readouterr().out
        assert code == 0, output
        assert "processed=5" in output
        assert "P-F1@M" in output
        assert out.read_bytes() == EXPECTED_REPORT.read_bytes()

    def test_run_without_endpoint_fails_cleanly(self, tmp_path, capsys):
        code = main(["run", "--corpus", str(TOY_CORPUS), "--cache-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("Error: ")
        assert "endpoint" in err.lower()

    def test_prompt_config_with_an_unknown_key_fails_cleanly(self, tmp_path, capsys, prompt_cfg):
        prompts = tmp_path / "p.yaml"
        prompts.write_text(json.dumps({**prompt_cfg._asdict(), "user_prompt_present": "x"}))
        code = main([
            "run", "--corpus", str(TOY_CORPUS), "--cache-dir", str(tmp_path / "cache"),
            "--offline", "--prompt-config", str(prompts),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"Error: {prompts}: unknown key(s) ['user_prompt_present']")

    def test_interrupted_run_exits_1_without_traceback(self, monkeypatch, capsys):
        def interrupted(config):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "run", interrupted)
        assert main(["run", "--corpus", str(TOY_CORPUS)]) == 1
        assert capsys.readouterr().err == "Aborted!\n"

    @pytest.mark.parametrize(
        "flag, aliases", [("--variant", VARIANT_ALIASES), ("--aggregate", STRATEGY_ALIASES)]
    )
    def test_canonical_name_builds_the_config_of_its_alias(self, monkeypatch, flag, aliases):
        built = []

        def fake_run(config):
            built.append(config)
            raise HarnessError("stop")

        monkeypatch.setattr(harness, "run", fake_run)
        for alias, name in aliases.items():
            for value in (alias, name):
                assert main(["run", "--corpus", str(TOY_CORPUS), flag, value]) == 1
            by_alias, by_name = built[-2:]
            assert by_alias == by_name
            assert name in (by_name.variant, by_name.strategy)

    def test_run_rejects_unknown_strategy(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--corpus", str(TOY_CORPUS), "--aggregate", "median"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--n-samples", "0"],
            ["--limit", "0"],
            ["--temperature", "-1"],
            ["--max-in-flight", "0"],
            ["--off"],  # a prefix of --offline is no flag
        ],
    )
    def test_run_usage_errors_exit_2(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--corpus", str(TOY_CORPUS), "--cache-dir", str(tmp_path), *args])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["run", "--offline"], ["stats"]])
    def test_missing_or_directory_corpus_exits_1(self, tmp_path, capsys, command):
        for corpus_path, problem in ((tmp_path / "none.jsonl", "No such file or directory"),
                                     (tmp_path, "Is a directory")):
            assert main([*command, "--corpus", str(corpus_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"Error: cannot read corpus file {corpus_path}: ")
            assert problem in err

    def test_grid_missing_config_exits_1(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.yaml"
        assert main(["grid", "--config", str(grid_path)]) == 1
        assert capsys.readouterr().err.startswith(f"Error: cannot read grid config {grid_path}: ")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_temperature_fails_cleanly(self, tmp_path, capsys, value):
        out = tmp_path / "cli.csv"
        with pytest.raises(SystemExit) as exc:
            main([
                "run",
                "--corpus", str(TOY_CORPUS),
                "--cache-dir", str(tmp_path / "cache"),
                "--temperature", value,
                "--offline",
                "--out", str(out),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"kpagg run: error: temperature must be a finite number >= 0, got {value}\n" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, flag, text, value",
        [
            ("run", "--temperature", "-1", -1.0),  # nan and inf: the test above
            ("run", "--n-samples", "0", 0),
            ("run", "--limit", "0", 0),
            ("run", "--max-in-flight", "0", 0),
            ("run", "--max-tokens", "0", 0),
            ("run", "--endpoint", "", ""),
            ("run", "--model", "", ""),
            ("run", "--cache-dir", "", ""),
            ("stats", "--limit", "0", 0),
        ],
    )
    def test_value_run_config_refuses_is_a_usage_error_in_its_words(
        self, tmp_path, monkeypatch, capsys, command, flag, text, value
    ):
        """A flag, a grid file and the library refuse one value in one message."""
        monkeypatch.chdir(tmp_path)  # where the default cache would go
        with pytest.raises(HarnessError) as refused:
            RunConfig(str(TOY_CORPUS), **{flag[2:].replace("-", "_"): value})
        with pytest.raises(SystemExit) as exc:
            main([command, "--corpus", str(TOY_CORPUS), flag, text])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"kpagg {command}: error: {refused.value}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_grid_rejects_non_finite_temperature(self, tmp_path, capsys, value):
        grid_path = tmp_path / "grid.yaml"
        grid_path.write_text(
            f"corpus: {TOY_CORPUS}\n"
            f"cache_dir: {tmp_path / 'cache'}\n"
            "offline: true\n"
            f"out: {tmp_path / 'merged.csv'}\n"
            f"runs: [{{aggregate: union}}, {{aggregate: union, temperature: {value}}}]\n"
        )
        code = main(["grid", "--config", str(grid_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("Error: ")
        assert "temperature" in err
        assert list(tmp_path.iterdir()) == [grid_path]

    def test_stats_command(self, tmp_path, capsys):
        csv_path = tmp_path / "stats.csv"
        code = main(["stats", "--corpus", str(TOY_CORPUS), "--csv", str(csv_path)])
        output = capsys.readouterr().out
        assert code == 0, output
        assert "Documents" in output
        assert csv_path.read_text().startswith("num_docs")

    def test_stats_csv_makes_its_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["stats", "--corpus", str(TOY_CORPUS), "--csv", "new/dir/s.csv"]) == 0
        assert "wrote new/dir/s.csv" in capsys.readouterr().out
        assert (tmp_path / "new" / "dir" / "s.csv").read_text().startswith("num_docs,")

    @pytest.mark.parametrize("csv", ["directory", "corpus", "empty"])
    def test_stats_csv_is_refused_before_the_corpus_is_read(
        self, tmp_path, monkeypatch, capsys, csv
    ):
        corpus_path = tmp_path / "c.jsonl"
        shutil.copy(TOY_CORPUS, corpus_path)
        read = []
        monkeypatch.setattr("kpagg.cli.load_corpus", lambda *args, **kwargs: read.append(args))
        value = {"directory": str(tmp_path), "corpus": str(corpus_path), "empty": ""}[csv]
        assert main(["stats", "--corpus", str(corpus_path), "--csv", value]) == 1
        assert capsys.readouterr().err.startswith("Error: output path ")
        assert read == []
        assert corpus_path.read_bytes() == TOY_CORPUS.read_bytes()
        assert list(tmp_path.iterdir()) == [corpus_path]

    def test_grid_and_run_at_one_temperature_write_one_meta_json(self, endpoint, tmp_path, capsys):
        """`temperature: 0` in a grid file and `--temperature 0` are one float."""
        cache_dir = str(tmp_path / "cache")
        grid_path = tmp_path / "grid.yaml"
        grid_path.write_text(yaml.safe_dump({
            "corpus": str(TOY_CORPUS), "endpoint": endpoint, "cache_dir": cache_dir,
            "temperature": 0, "runs": [{"out": str(tmp_path / "grid.csv")}],
        }))
        assert main(["grid", "--config", str(grid_path)]) == 0
        assert main([
            "run", "--corpus", str(TOY_CORPUS), "--cache-dir", cache_dir, "--offline",
            "--temperature", "0", "--out", str(tmp_path / "run.csv"),
        ]) == 0
        assert " cache_hits=50 cache_misses=0 " in capsys.readouterr().out
        grid_files, run_files = (
            harness.report_files(tmp_path / name) for name in ("grid.csv", "run.csv")
        )
        assert [f.read_bytes() for f in grid_files] == [f.read_bytes() for f in run_files]
        assert '"temperature": 0.0,' in run_files[1].read_text()

    def test_grid_command(self, endpoint, tmp_path, capsys):
        grid_path = tmp_path / "grid.yaml"
        grid_path.write_text(
            yaml.safe_dump(
                {
                    "corpus": str(TOY_CORPUS),
                    "endpoint": endpoint,
                    "cache_dir": str(tmp_path / "cache"),
                    "out": str(tmp_path / "merged.csv"),
                    "runs": [{"aggregate": "union"}, {"aggregate": "frequency"}],
                }
            )
        )
        code = main(["grid", "--config", str(grid_path)])
        output = capsys.readouterr().out
        assert code == 0, output
        assert (tmp_path / "merged.csv").exists()
        # one line for the one fetch group; each run's own counts are in the table
        (line,) = [line for line in output.splitlines() if "cache_misses=" in line]
        assert line.startswith("fetch group of runs 1,2: parse_fallbacks=")
        assert " cache_hits=0 cache_misses=50 " in line
        assert "processed=" not in output
        header, _, *rows = map(str.split, output[output.index("corpus  "):].splitlines()[:4])
        assert header[3:5] == ["processed", "errored"]
        assert [row[3:5] for row in rows] == [["5", "0"], ["5", "0"]]

    def test_grid_command_prints_one_line_per_fetch_group(self, endpoint, tmp_path, capsys):
        grid_path = tmp_path / "grid.yaml"
        grid_path.write_text(yaml.safe_dump({
            "corpus": str(TOY_CORPUS),
            "endpoint": endpoint,
            "cache_dir": str(tmp_path / "cache"),
            "runs": [{"n_samples": 3}, {"temperature": 0.5, "n_samples": 2}, {"n_samples": 10}],
        }))
        code = main(["grid", "--config", str(grid_path)])
        output = capsys.readouterr().out
        assert code == 0, output
        lines = [line for line in output.splitlines() if line.startswith("fetch group")]
        assert [line.split(":")[0] for line in lines] == [
            "fetch group of runs 1,3", "fetch group of runs 2",
        ]
        assert " cache_misses=50 " in lines[0] and " cache_misses=10 " in lines[1]

    def grid_table(self, tmp_path, capsys, **grid) -> str:
        """The table `kpagg grid` prints for `grid`."""
        grid_path = tmp_path / "grid.yaml"
        grid_path.write_text(yaml.safe_dump({"corpus": str(TOY_CORPUS), **grid}))
        code = main(["grid", "--config", str(grid_path)])
        output = capsys.readouterr().out
        assert code == 0, output
        return output[output.index("corpus  "):]

    def test_grid_table_names_the_fields_that_differ(self, endpoint, tmp_path, capsys):
        runs = [{"ppl_mode": p, "n_samples": n} for n in (2, 3) for p in ("mean", "sum")]
        table = self.grid_table(
            tmp_path, capsys, endpoint=endpoint, cache_dir=str(tmp_path / "cache"), runs=runs
        )
        header, _, *rows = map(str.split, table.splitlines())
        assert header[:8] == [
            "corpus", "variant", "strategy", "n_samples", "ppl_mode", "processed", "errored",
            "P-F1@M",
        ]
        assert [row[3:5] for row in rows] == [["2", "mean"], ["2", "sum"], ["3", "mean"], ["3", "sum"]]

    def test_grid_table_names_corpus_paths_that_share_a_stem(self, endpoint, tmp_path, capsys):
        paths = [tmp_path / "a" / "toy.jsonl", tmp_path / "b" / "toy.jsonl"]
        paths.append(tmp_path / "other.jsonl")
        for path in paths:
            path.parent.mkdir(exist_ok=True)
            shutil.copy(TOY_CORPUS, path)
        runs = [{"corpus": str(p)} for p in paths]
        table = self.grid_table(
            tmp_path, capsys, endpoint=endpoint, cache_dir=str(tmp_path / "cache"), runs=runs
        )
        header, _, *rows = map(str.split, table.splitlines())
        assert header[:4] == ["corpus", "variant", "strategy", "corpus_path"]
        assert [[row[0], row[3]] for row in rows] == [
            ["toy", str(paths[0])], ["toy", str(paths[1])], ["other", str(paths[2])]
        ]

    def test_grid_table_shows_endpoints_without_credentials_or_query(self, tmp_path, capsys):
        runs = [
            {"endpoint": f"https://{user}@api.example.com/v1?api-key={key}"}
            for user, key in (("alice:s3cret", "KEY1"), ("bob:hunter2", "KEY2"))
        ]
        table = self.grid_table(
            tmp_path, capsys, offline=True, cache_dir=str(tmp_path / "cache"), runs=runs
        )
        header, _, *rows = map(str.split, table.splitlines())
        assert header[3] == "endpoint"
        assert [row[3] for row in rows] == ["https://api.example.com/v1/chat/completions"] * 2
        for secret in ("s3cret", "KEY1", "hunter2", "KEY2"):
            assert secret not in table

    def test_strategy_grid_table_has_only_the_label_columns(self, endpoint, tmp_path, capsys):
        grid = {"endpoint": endpoint, "cache_dir": str(tmp_path / "cache")}
        runs = [{"aggregate": "union"}, {"aggregate": "frequency"}]
        table = self.grid_table(tmp_path, capsys, **grid, runs=runs)
        configs = [config(endpoint, tmp_path, strategy=run["aggregate"]) for run in runs]
        summaries = harness.grid(configs)
        counts = {
            "processed": [s.processed for s in summaries],
            "errored": [s.errored for s in summaries],
        }
        assert table == metrics.reports_table([s.report for s in summaries], counts) + "\n"


class TestCliOutputErrors:
    """An output that cannot be written ends the command with `Error:` and
    exit 1, not a traceback. The output's parent is a regular file, so no
    directory can be made there."""

    @pytest.fixture
    def blocked(self, tmp_path):
        (tmp_path / "file").write_text("")
        return tmp_path / "file" / "sub" / "out.csv"

    def check(self, code, capsys):
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("Error: ")
        assert "Traceback" not in err

    def test_stats(self, blocked, capsys):
        self.check(main(["stats", "--corpus", str(TOY_CORPUS), "--csv", str(blocked)]), capsys)

    def test_run(self, blocked, tmp_path, capsys):
        code = main([
            "run", "--corpus", str(TOY_CORPUS), "--cache-dir", str(tmp_path / "cache"),
            "--offline", "--out", str(blocked),
        ])
        self.check(code, capsys)

    def test_grid(self, blocked, tmp_path, capsys):
        grid_path = tmp_path / "grid.yaml"
        grid_path.write_text(yaml.safe_dump({
            "corpus": str(TOY_CORPUS), "cache_dir": str(tmp_path / "cache"), "offline": True,
            "out": str(blocked), "runs": [{"aggregate": "union"}],
        }))
        self.check(main(["grid", "--config", str(grid_path)]), capsys)

    @pytest.mark.parametrize("out", ["merged", "per run"])
    def test_grid_out_that_is_a_directory(self, tmp_path, capsys, out, counted_endpoint):
        endpoint, requests = counted_endpoint
        grid_path = tmp_path / "grid.yaml"
        run = {"aggregate": "union", **({"out": str(tmp_path)} if out == "per run" else {})}
        grid_path.write_text(yaml.safe_dump({
            "corpus": str(TOY_CORPUS), "cache_dir": str(tmp_path / "cache"), "endpoint": endpoint,
            **({"out": str(tmp_path)} if out == "merged" else {}), "runs": [run],
        }))
        self.check(main(["grid", "--config", str(grid_path)]), capsys)
        assert requests == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.yaml"]

    @pytest.mark.parametrize("out", ["grid.yaml", "grid.yaml.meta.json"])
    @pytest.mark.parametrize("where", ["merged", "per run"])
    def test_grid_out_that_is_the_grid_file(self, tmp_path, capsys, monkeypatch, out, where):
        monkeypatch.chdir(tmp_path)
        grid_path = tmp_path / ("grid.yaml" if out == "grid.yaml" else "grid.yaml.meta.json")
        csv_path = "grid.yaml"
        run = {"aggregate": "union", **({"out": csv_path} if where == "per run" else {})}
        grid_path.write_text(yaml.safe_dump({
            "corpus": str(TOY_CORPUS), "cache_dir": "cache", "offline": True,
            **({"out": csv_path} if where == "merged" else {}), "runs": [run],
        }))
        before = grid_path.read_bytes()
        self.check(main(["grid", "--config", str(grid_path)]), capsys)
        assert grid_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [grid_path.name]

    @pytest.mark.parametrize("overwritten", ["run corpus", "run prompt config", "stats corpus"])
    def test_an_input_named_as_the_output_is_left_intact(self, tmp_path, capsys, overwritten):
        corpus_path = tmp_path / "c.jsonl"
        shutil.copy(TOY_CORPUS, corpus_path)
        prompts = tmp_path / "p.yaml"
        prompts.write_text(json.dumps(prompting.load_prompt_config()._asdict()))
        run = ["run", "--corpus", str(corpus_path), "--cache-dir", str(tmp_path / "cache"),
               "--offline", "--prompt-config", str(prompts), "--out"]
        argv, target = {
            "run corpus": (run + [str(corpus_path)], corpus_path),
            "run prompt config": (run + [str(prompts)], prompts),
            "stats corpus": (["stats", "--corpus", str(corpus_path), "--csv", str(corpus_path)],
                             corpus_path),
        }[overwritten]
        before = target.read_bytes()
        self.check(main(argv), capsys)
        assert target.read_bytes() == before
        assert not (tmp_path / "cache").exists()


class TestCliFileRefusals:
    """A file is refused where it is opened: an input by its loader, an
    output by `harness.check_outputs`. The refusal exits 1 with one message
    whether the path came from a flag or a grid file, and writes and sends
    nothing."""

    @pytest.mark.parametrize(
        "refused",
        ["missing-corpus", "directory-corpus", "missing-prompt-config", "directory-output"],
    )
    def test_one_status_and_message(
        self, tmp_path, capsys, counted_endpoint, refused
    ):
        endpoint, requests = counted_endpoint
        directory = tmp_path / "dir"
        directory.mkdir()
        key, path, words = {
            "missing-corpus": ("corpus", tmp_path / "none.jsonl", "cannot read corpus file"),
            "directory-corpus": ("corpus", directory, "cannot read corpus file"),
            "missing-prompt-config": ("prompt_config", tmp_path / "none.yaml",
                                      "cannot read prompt config"),
            "directory-output": ("out", directory, "output path"),
        }[refused]
        files = {"corpus": TOY_CORPUS, "out": tmp_path / "new" / "r.csv", key: path}
        prompts = ["--prompt-config", str(path)] if key == "prompt_config" else []
        ways = {
            "run": ["run", "--corpus", str(files["corpus"]), "--endpoint", endpoint,
                    "--cache-dir", str(tmp_path / "cache"), "--out", str(files["out"]), *prompts],
            "stats": ["stats", "--corpus", str(files["corpus"]), "--csv", str(files["out"])],
            "grid": ["grid", "--config", str(tmp_path / "grid.yaml")],
        }
        if prompts:
            del ways["stats"]  # it reads no prompts
        (tmp_path / "grid.yaml").write_text(yaml.safe_dump({
            **{name: str(value) for name, value in files.items()},
            "endpoint": endpoint, "cache_dir": str(tmp_path / "cache"), "runs": [{}],
        }))
        before = sorted(tmp_path.rglob("*"))
        errors = set()
        for argv in ways.values():
            assert main(argv) == 1, argv
            errors.add(capsys.readouterr().err)
            assert sorted(tmp_path.rglob("*")) == before
        (error,) = errors
        assert error.startswith(f"Error: {words} {path.resolve() if key == 'out' else path}")
        assert requests == []


@pytest.mark.parametrize("command", ["stats", "run"])
def test_closed_stdout_ends_the_command_quietly(endpoint, tmp_path, command):
    """A reader that has left before the first write (`kpagg stats | head
    -1`) ends the command with 141, 128 + SIGPIPE, and adds nothing to
    the stderr the command writes with its stdout open."""
    argv = ["stats", "--corpus", str(TOY_CORPUS)]
    if command == "run":
        harness.run(config(endpoint, tmp_path))  # warm, so the offline run fetches nothing
        argv = ["run", "--corpus", str(TOY_CORPUS), "--cache-dir", str(tmp_path / "cache"),
                "--offline"]
    src = str(Path(harness.__file__).resolve().parent.parent)
    paths = os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": paths}
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "kpagg.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write)
    # with its stdout open the toy run warns of its samples without logprobs
    # and `stats` writes nothing to stderr
    opened = subprocess.run(
        [sys.executable, "-m", "kpagg.cli", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
    )
    assert opened.returncode == 0
    assert (command == "run") == (b"have no logprobs" in opened.stderr)
    assert (child.returncode, child.stderr) == (141, opened.stderr)


@pytest.fixture
def counted_endpoint():
    """A mock server's URL, and the list of the requests it has received."""
    serving = running_server(MOCK_FIXTURES)
    requests = []

    class Counting(serving.server.RequestHandlerClass):
        def do_POST(self):
            requests.append(self.path)
            super().do_POST()

    serving.server.RequestHandlerClass = Counting
    with serving as endpoint:
        yield endpoint, requests


@pytest.mark.parametrize("which", ["config", "merged"])
def test_unwritable_out_fails_before_anything_is_fetched(tmp_path, which, counted_endpoint):
    (tmp_path / "file").write_text("")
    blocked = str(tmp_path / "file" / "sub" / "out.csv")
    endpoint, requests = counted_endpoint
    config = RunConfig(
        corpus_path=str(TOY_CORPUS),
        endpoint=endpoint,
        cache_dir=str(tmp_path / "cache"),
        out=blocked if which == "config" else None,
    )
    with pytest.raises(OSError):
        harness.grid([config], out=blocked if which == "merged" else None)
    assert requests == []
    assert not (tmp_path / "cache").exists()


def run_cli(endpoint, cache_dir, capsys, *flags):
    """`kpagg run` on the toy corpus with 3 samples; its exit code and stderr."""
    argv = ["run", "--corpus", str(TOY_CORPUS), "--endpoint", endpoint,
            "--cache-dir", str(cache_dir), "--n-samples", "3", *flags]
    code = main(argv)
    return code, capsys.readouterr().err


def test_cache_dir_that_cannot_be_made_fails_before_any_request(
    tmp_path, capsys, counted_endpoint
):
    (tmp_path / "file").write_text("")
    endpoint, requests = counted_endpoint
    code, err = run_cli(endpoint, tmp_path / "file" / "cache", capsys)
    assert (code, requests) == (1, [])
    assert err.startswith("Error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("max_in_flight", [1, 2])
def test_cache_write_failing_mid_run_ends_the_run(
    tmp_path, capsys, monkeypatch, counted_endpoint, max_in_flight
):
    def full_disk(self, *samples):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(SampleCache, "put", full_disk)
    endpoint, requests = counted_endpoint
    code, err = run_cli(endpoint, tmp_path / "cache", capsys, "--max-in-flight", str(max_in_flight))
    assert code == 1
    assert err.startswith("Error: ")
    assert "No space left on device" in err
    assert "Traceback" not in err
    # only the documents already in flight when the first write failed
    assert 1 <= len(requests) <= max_in_flight
