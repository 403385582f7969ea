"""Prompt variants and chat-message rendering.

Six variants share one template: a user sentence, an instruction block, and
the document's title and body. Each variant is one `_VARIANTS` entry: its
CLI alias, its user sentence (the specialists swap in their own), and the
instructions numbered before the formatting one (the controls: length
control first when combined, formatting always last; with none, the block
is the formatting instruction alone, unnumbered). For news-domain
documents every occurrence of "scientific document" in the configured
prompt strings is replaced with "news article"; document text itself is
never rewritten.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .corpus import Document

PRESENT_SPECIALIST_SENTENCE = (
    "Extract present keyphrases from the following title and abstract of a "
    "scientific document."
)
ABSENT_SPECIALIST_SENTENCE = (
    "Generate absent keyphrases from the following title and abstract of a "
    "scientific document."
)

# canonical name -> (short CLI alias, user sentence or None for the
# configured baseline one, the PromptConfig fields of the instructions
# numbered before the formatting one)
_VARIANTS = {
    "baseline": ("baseline", None, ()),
    "present_specialist": ("present", PRESENT_SPECIALIST_SENTENCE, ()),
    "absent_specialist": ("absent", ABSENT_SPECIALIST_SENTENCE, ()),
    "order_control": ("order", None, ("instruction_order",)),
    "length_control": ("length", None, ("instruction_length",)),
    "combined_control": ("combined", None, ("instruction_length", "instruction_order")),
}
VARIANT_ALIASES = {alias: name for name, (alias, _, _) in _VARIANTS.items()}
VARIANTS = tuple(_VARIANTS)

_DOMAIN_SUBSTITUTION = ("scientific document", "news article")


class PromptConfigError(Exception):
    """The prompt configuration file is missing or incomplete."""


class PromptConfig(NamedTuple):
    system_prompt: str
    user_prompt_baseline: str
    instruction_formatting: str
    instruction_order: str
    instruction_length: str


# the keys a prompt file must give, in the order they are checked
_CONFIG_KEYS = PromptConfig._fields


class RenderedPrompt(NamedTuple):
    system: str
    user: str
    assistant_prefill: str
    prompt_hash: str


def load_prompt_config(path: str | Path | None = None) -> PromptConfig:
    """Load prompt strings from a YAML file (JSON is YAML too); default to
    the bundled JSON, read without loading a YAML parser."""
    if path is None:
        data = json.loads(
            resources.files("kpagg").joinpath("data/prompts.json").read_text("utf-8")
        )
        source = "bundled prompts.json"
    else:
        import yaml  # only --prompt-config files need it

        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise PromptConfigError(f"cannot read prompt config {path}: {exc}") from exc
        source = str(path)
        try:
            data = yaml.safe_load(text)
        except (yaml.YAMLError, RecursionError) as exc:  # RecursionError: nested too deep
            raise PromptConfigError(f"{source}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise PromptConfigError(f"{source}: expected a mapping of prompt strings")
    values = {}
    for key in _CONFIG_KEYS:
        value = data.get(key)
        if not isinstance(value, str) or not value.strip():
            raise PromptConfigError(f"{source}: missing or empty key {key!r}")
        values[key] = value.strip()
    return PromptConfig(**values)


def resolve_variant(name: str) -> str:
    """Map a CLI alias or full variant name to the canonical variant name."""
    if name in VARIANT_ALIASES:
        return VARIANT_ALIASES[name]
    if name in _VARIANTS:
        return name
    raise PromptConfigError(f"unknown prompt variant {name!r}")


def prompt_digest(system: str, user: str, assistant_prefill: str) -> str:
    """Stable hex digest of the rendered fields (length-prefixed sha256)."""
    h = hashlib.sha256()
    for field in (system, user, assistant_prefill):
        data = field.encode("utf-8")
        h.update(str(len(data)).encode("ascii"))
        h.update(b":")
        h.update(data)
    return h.hexdigest()


def build_prompt(
    doc: Document,
    variant: str,
    cfg: PromptConfig,
    prefill_supported: bool = True,
) -> RenderedPrompt:
    """Render one chat prompt for a document under the given variant."""
    _, sentence, steps = _VARIANTS[resolve_variant(variant)]
    system = cfg.system_prompt
    sentence = sentence or cfg.user_prompt_baseline
    block = cfg.instruction_formatting
    if steps:
        numbered = [getattr(cfg, step) for step in steps] + [block]
        block = "\n".join(f"{i}. {text}" for i, text in enumerate(numbered, start=1))
    if doc.domain == "news":
        old, new = _DOMAIN_SUBSTITUTION
        system = system.replace(old, new)
        sentence = sentence.replace(old, new)
        block = block.replace(old, new)
    user = f"{sentence}\n\n{block}\n\nTitle: {doc.title}\nAbstract: {doc.body}"
    prefill = "[" if prefill_supported else ""
    return RenderedPrompt(
        system=system,
        user=user,
        assistant_prefill=prefill,
        prompt_hash=prompt_digest(system, user, prefill),
    )
