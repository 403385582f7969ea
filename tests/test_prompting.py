"""Prompt variants, domain adaptation, and request digests."""

import json
import re
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
    PromptConfig,
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

NEWS_DOC = DOC._replace(domain="news")


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


    def test_yaml_list_rejected(self, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- system_prompt: hi\n")
        with pytest.raises(PromptConfigError, match=f"^{re.escape(str(p))}: prompt config must"):
            load_prompt_config(p)

    def test_yaml_nested_too_deep_rejected(self, tmp_path):
        p = tmp_path / "deep.yaml"
        p.write_text("[" * 100_000)
        with pytest.raises(PromptConfigError, match="invalid YAML"):
            load_prompt_config(p)

    def test_unknown_key_rejected(self, tmp_path, prompt_cfg):
        # a key no variant reads: the present specialist's sentence is fixed
        # in code, so this file would still send the built-in one
        p = tmp_path / "extra.yaml"
        extra = {**prompt_cfg._asdict(), "user_prompt_present": "Extract keyphrases."}
        p.write_text(json.dumps(extra))
        with pytest.raises(PromptConfigError) as raised:
            load_prompt_config(p)
        message = str(raised.value)
        assert message.startswith(f"{p}: unknown key(s) ['user_prompt_present']; the keys are ")
        assert message.endswith(", ".join(PromptConfig._fields))
        del extra["user_prompt_present"]
        p.write_text(json.dumps(extra))
        assert load_prompt_config(p) == prompt_cfg

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
        doc = NEWS_DOC._replace(body="This scientific document studies X.")
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
        doc2 = DOC._replace(body=DOC.body + "!")
        a = build_prompt(DOC, resolve_variant("baseline"), prompt_cfg)
        b = build_prompt(doc2, resolve_variant("baseline"), prompt_cfg)
        assert a.prompt_hash != b.prompt_hash

    def test_field_boundary_not_ambiguous(self):
        assert prompt_digest("ab", "c", "") != prompt_digest("a", "bc", "")

    @given(st.text(max_size=30), st.text(max_size=30), st.text(max_size=5))
    def test_digest_stable_under_recomputation(self, s, u, p):
        assert prompt_digest(s, u, p) == prompt_digest(s, u, p)


# prompt_hash of DOC under each variant, for (scientific, prefill),
# (scientific, no prefill), (news, prefill) and (news, no prefill). The hash
# keys the sample cache, so a rendering change must show here first.
GOLDEN_PROMPT_HASHES = {
    "baseline": (
        "7657dcd2544f80f67424630fade57acdb886aed9446965781a1b1a9a8df3c428",
        "5334cd3b168e52bbd26e91d5aae000d4ae4f6627b8e3ec815b1e7f445aa7731c",
        "6cb858caf24902c496d50cc7e32e4d36182b6732a0b429771070e0b10bf37264",
        "e834338cb85d898b73e8915ebf2745ec1c8363dafe2d8ae4ba447fceb747a7ac",
    ),
    "present_specialist": (
        "78a752407d781abacbdd54333d8da1310fc21089ebd4303aedbe5b3468b4bb9d",
        "b0d5554b95a3d713ca3c3584af0931751ad4b70cca527686b58a93be7a4f3b6f",
        "3a6d6e03041fcd4862cea3e470c703e11272f89db7eb406e89b89741748b52c3",
        "b5df1188db074454fc6a26a385bb5068c8d7be25dc2fab341492de7d07a2af9b",
    ),
    "absent_specialist": (
        "c3e5d425288afb7c435cff77ce1e998a57744e81cc3b587468bf36ce4790b39e",
        "5aa486bbde5a0cc12c99a007ecd85f57eefff09ea487a02f8561161925c59f5e",
        "a5e2f6b0c23780a425733c610379678912bb1f526abac19721fc271337616fb9",
        "c6ed3b6c875c9ecde7595b83afda12a5a06af51e602c3bb1a847700a16094ed2",
    ),
    "order_control": (
        "fde47ae1205ca1737fee2a689f12cd3575c38940b355d4d0a676a8bd394d4867",
        "28d755b861463ddcf57e22a8dece60ff77e505924af60c227647dbe03dcc4a40",
        "76b43cacb1bc4664cd221dff394edc45b8bbff6961bf689a5cb065bfc140cf04",
        "5d31e84941e86cd8066ab7b2fbdbcc55b6f02e72cacfc7e78407157f67200dbb",
    ),
    "length_control": (
        "a8a3b6bda881304a3303979053106f022ff6c90a0076a1c9620d5d9d4a0ef23f",
        "0b6ed98875b737e14e637478e03444562e98f79d23abcd216d6edd874449a52e",
        "f8a901cc723cb753892295f78b5108aa19c2e6bd06294e4f80fe9c70b47c9195",
        "6710d5b517321437e141036030c9a5248ebceeb85bcf3e37c088363c90a9c615",
    ),
    "combined_control": (
        "56982a4d80e99e2ef6573deb8dd263dfb09e14e66b4212675762e5efa3048fac",
        "e71aac0b0a546844b1c37c087496a89484981e9fa8fc6513194978d603f4051d",
        "7619ba4d04fd85c39f6d2f8ad5d37b4d5d0d676f4d2debaeafd9a10545bcd367",
        "5b9164df1cbba6aa1759a45926b2441e1de298ec83789aec9deb41366e139052",
    ),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_prompt_hashes_are_pinned(prompt_cfg, variant):
    hashes = tuple(
        build_prompt(
            DOC._replace(domain=domain), variant, prompt_cfg, prefill
        ).prompt_hash
        for domain in ("scientific", "news")
        for prefill in (True, False)
    )
    assert hashes == GOLDEN_PROMPT_HASHES[variant]
