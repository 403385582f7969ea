import os

import pytest
from hypothesis import HealthCheck, settings

from kpagg import corpus, prompting

settings.register_profile(
    "suite",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# HYPOTHESIS_PROFILE=ci draws ten times as many examples; CI uses it for the
# oracle-equivalence tests.
settings.register_profile("ci", parent=settings.get_profile("suite"), max_examples=1000)
settings.load_profile("ci" if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else "suite")

from .oracles import DATA_DIR  # noqa: E402

TOY_CORPUS = DATA_DIR / "toy_corpus.jsonl"
MOCK_FIXTURES = DATA_DIR / "mock_fixtures.json"
EXPECTED_REPORT = DATA_DIR / "expected_report.csv"


@pytest.fixture(scope="session")
def toy_docs() -> list[corpus.Document]:
    return corpus.load_corpus(TOY_CORPUS)


@pytest.fixture(scope="session")
def prompt_cfg() -> prompting.PromptConfig:
    return prompting.load_prompt_config()
