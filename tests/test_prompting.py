"""Prompt variants, domain adaptation, and request digests."""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kpagg
from kpagg.corpus import Document
from kpagg.prompting import (
    ABSENT_SPECIALIST_SENTENCE,
    PRESENT_SPECIALIST_SENTENCE,
    VARIANT_ALIASES,
    VARIANTS,
    PromptConfigError,
    build_prompt,
    load_prompt_config,
    prompt_digest,
    resolve_variant,
)

DOC = Document(
    id="d1",
    title="Distributed Graph Coloring",
    body="We study TDMA slot assignment.",
    gold=("graph coloring",),
    domain="scientific",
)

NEWS_DOC = dataclasses.replace(DOC, domain="news")


class TestVariantResolution:
    def test_aliases_cover_all_variants(self):
        assert set(VARIANT_ALIASES.values()) == set(VARIANTS)

    def test_alias_and_canonical_accepted(self):
        assert resolve_variant("combined") == resolve_variant(
            VARIANT_ALIASES["combined"]
        )

    def test_unknown_rejected(self):
        with pytest.raises(PromptConfigError):
            resolve_variant("nope")


class TestPromptConfig:
    def test_bundled_config_loads(self, prompt_cfg):
        assert prompt_cfg.system_prompt
        assert prompt_cfg.user_prompt_baseline
        assert prompt_cfg.instruction_formatting

    def test_bundled_json_reads_the_same_through_yaml(self):
        bundled = Path(kpagg.__file__).parent / "data" / "prompts.json"
        assert load_prompt_config(None) == load_prompt_config(bundled)

    def test_missing_key_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("system_prompt: hi\n")
        with pytest.raises(PromptConfigError):
            load_prompt_config(p)

    def test_empty_value_rejected(self, tmp_path, prompt_cfg):
        p = tmp_path / "bad.yaml"
        lines = [
            f"system_prompt: {prompt_cfg.system_prompt!r}",
            "user_prompt_baseline: ''",
            f"instruction_formatting: {prompt_cfg.instruction_formatting!r}",
            f"instruction_order: {prompt_cfg.instruction_order!r}",
            f"instruction_length: {prompt_cfg.instruction_length!r}",
        ]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(PromptConfigError):
            load_prompt_config(p)


class TestBuildPrompt:
    @pytest.fixture()
    def prompts(self, prompt_cfg):
        return {
            v: build_prompt(DOC, v, prompt_cfg) for v in VARIANTS
        }

    def test_document_text_embedded(self, prompts):
        for rp in prompts.values():
            assert f"Title: {DOC.title}" in rp.user
            assert f"Abstract: {DOC.body}" in rp.user

    def test_present_specialist_sentence_verbatim(self, prompts, prompt_cfg):
        rp = build_prompt(DOC, resolve_variant("present"), prompt_cfg)
        assert rp.user.startswith(PRESENT_SPECIALIST_SENTENCE)
        assert PRESENT_SPECIALIST_SENTENCE == (
            "Extract present keyphrases from the following title and abstract"
            " of a scientific document."
        )

    def test_absent_specialist_sentence_verbatim(self, prompt_cfg):
        rp = build_prompt(DOC, resolve_variant("absent"), prompt_cfg)
        assert rp.user.startswith(ABSENT_SPECIALIST_SENTENCE)
        assert ABSENT_SPECIALIST_SENTENCE == (
            "Generate absent keyphrases from the following title and abstract"
            " of a scientific document."
        )

    def test_baseline_uses_configured_opening(self, prompts, prompt_cfg):
        assert prompts[resolve_variant("baseline")].user.startswith(
            prompt_cfg.user_prompt_baseline
        )

    def test_specialists_differ_from_baseline_only_in_sentence(
        self, prompts, prompt_cfg
    ):
        base = prompts[resolve_variant("baseline")]
        pres = prompts[resolve_variant("present")]
        swapped = pres.user.replace(
            PRESENT_SPECIALIST_SENTENCE, prompt_cfg.user_prompt_baseline, 1
        )
        assert swapped == base.user

    def test_controls_differ_from_baseline_only_in_block(
        self, prompts, prompt_cfg
    ):
        base = prompts[resolve_variant("baseline")]
        for alias in ("order", "length", "combined"):
            rp = prompts[resolve_variant(alias)]
            assert rp.user.endswith(base.user.split("\n\n", 2)[-1])
            assert rp.user.startswith(prompt_cfg.user_prompt_baseline)

    def test_combined_numbering(self, prompts, prompt_cfg):
        rp = prompts[resolve_variant("combined")]
        assert f"1. {prompt_cfg.instruction_length}" in rp.user
        assert f"2. {prompt_cfg.instruction_order}" in rp.user
        assert f"3. {prompt_cfg.instruction_formatting}" in rp.user

    def test_single_controls_number_their_instruction_first(
        self, prompts, prompt_cfg
    ):
        order = prompts[resolve_variant("order")]
        assert f"1. {prompt_cfg.instruction_order}" in order.user
        assert f"2. {prompt_cfg.instruction_formatting}" in order.user
        length = prompts[resolve_variant("length")]
        assert f"1. {prompt_cfg.instruction_length}" in length.user
        assert f"2. {prompt_cfg.instruction_formatting}" in length.user

    def test_formatting_instruction_always_present_and_last(
        self, prompts, prompt_cfg
    ):
        for rp in prompts.values():
            assert prompt_cfg.instruction_formatting in rp.user
            block = rp.user.split("\n\nTitle:")[0]
            assert block.rstrip().endswith(prompt_cfg.instruction_formatting)

    def test_prefill_is_open_bracket(self, prompts):
        for rp in prompts.values():
            assert rp.assistant_prefill == "["

    def test_news_substitution_total(self, prompt_cfg):
        for v in VARIANTS:
            rp = build_prompt(NEWS_DOC, v, prompt_cfg)
            for text in (rp.system, rp.user):
                assert "scientific document" not in text
            assert "news article" in rp.user

    def test_news_substitution_leaves_document_text_alone(self, prompt_cfg):
        doc = dataclasses.replace(
            NEWS_DOC, body="This scientific document studies X."
        )
        rp = build_prompt(doc, resolve_variant("baseline"), prompt_cfg)
        assert "This scientific document studies X." in rp.user


class TestDigest:
    def test_hash_is_hex_sha256(self, prompt_cfg):
        rp = build_prompt(DOC, resolve_variant("baseline"), prompt_cfg)
        assert len(rp.prompt_hash) == 64
        assert set(rp.prompt_hash) <= set("0123456789abcdef")

    def test_deterministic(self, prompt_cfg):
        a = build_prompt(DOC, resolve_variant("combined"), prompt_cfg)
        b = build_prompt(DOC, resolve_variant("combined"), prompt_cfg)
        assert a.prompt_hash == b.prompt_hash

    def test_variants_hash_differently(self, prompt_cfg):
        hashes = {
            build_prompt(DOC, v, prompt_cfg).prompt_hash for v in VARIANTS
        }
        assert len(hashes) == len(VARIANTS)

    def test_single_character_sensitivity(self, prompt_cfg):
        doc2 = dataclasses.replace(DOC, body=DOC.body + "!")
        a = build_prompt(DOC, resolve_variant("baseline"), prompt_cfg)
        b = build_prompt(doc2, resolve_variant("baseline"), prompt_cfg)
        assert a.prompt_hash != b.prompt_hash

    def test_field_boundary_not_ambiguous(self):
        assert prompt_digest("ab", "c", "") != prompt_digest("a", "bc", "")

    @given(st.text(max_size=30), st.text(max_size=30), st.text(max_size=5))
    def test_digest_stable_under_recomputation(self, s, u, p):
        assert prompt_digest(s, u, p) == prompt_digest(s, u, p)
