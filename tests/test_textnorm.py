"""Normalization, phrase matching, and dedup behaviour."""

import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpagg import corpus, porter, textnorm

from .oracles import (
    normalize_oracle,
    phrases_oracle,
    reference_stems,
    tokenize_oracle,
    window_scan_oracle,
)


class TestTokenize:
    def test_splits_on_punctuation_and_lowercases(self):
        assert textnorm.tokenize("Graph Coloring-based TDMA!") == [
            "graph", "coloring", "based", "tdma",
        ]

    def test_hyphens_and_digits_split(self):
        assert textnorm.tokenize("distance-2 coloring") == ["distance", "2", "coloring"]

    def test_underscore_splits(self):
        assert textnorm.tokenize("foo_bar") == ["foo", "bar"]

    def test_empty(self):
        assert textnorm.tokenize("") == []
        assert textnorm.tokenize("  --- !! ") == []

    @pytest.mark.oracle
    @pytest.mark.parametrize(
        "text, tokens",
        [
            # `İ` lowers to `i` and a combining dot, which no token holds
            # when the whole text is lowered first
            ("İx", ["i\u0307x"]),
            # a final sigma: lowered alone, `ΟΔΟΣ` ends in `ς`; inside the
            # whole text `'Χ` follows it and it lowers to `σ`
            ("ΟΔΟΣ'Χ", ["οδος", "χ"]),
            ("Straße's", ["straße", "s"]),
            ("It's ASCII", ["it", "s", "ascii"]),
        ],
    )
    def test_each_token_lowered_on_its_own(self, text, tokens):
        assert textnorm.tokenize(text) == tokens == tokenize_oracle(text)


def normalize_tokens(text):
    """A text's tokens, each normalized, as the harness makes them."""
    return [textnorm.normalize_token(t) for t in textnorm.tokenize(text)]


class TestNormalizeTokens:
    def test_stemmed_example(self):
        assert normalize_tokens("Graph Coloring-based TDMA") == [
            "graph", "color", "base", "tdma",
        ]

    def test_plural(self):
        assert normalize_tokens("networks") == ["network"]

    def test_empty(self):
        assert normalize_tokens("") == []

    def test_digit_tokens_pass_through(self):
        assert normalize_tokens("5 stars") == ["5", "star"]

    def test_non_ascii_tokens_not_stemmed(self):
        assert normalize_tokens("Ümlauted words") == ["ümlauted", "word"]


class TestNormalizeTokenMemo:
    def test_memo_equals_stemmer_on_reference_vocabulary(self):
        words = list(reference_stems())
        for _ in range(2):  # the second pass answers from the memo
            mismatches = [w for w in words if textnorm.normalize_token(w) != porter.stem(w)]
            assert not mismatches, mismatches[:10]

    def test_memo_stays_bounded(self):
        for i in range(70_000):  # more distinct tokens than the memo holds
            textnorm.normalize_token(str(i))
        assert textnorm.normalize_token.cache_info().currsize <= 1 << 16


def phrase_of(surface, source_text=""):
    """(form, is_present) of the one phrase `surface` makes against the
    source `source_text`."""
    source = textnorm.NormalizedSource(textnorm.tokenize(source_text))
    (p,) = source.phrases([surface])
    return p, p in source.present


def classified(source, phrases):
    """Each phrase's (form, is_present) in `source`."""
    return [(p, p in source.present) for p in phrases]


def oracle_pairs(surfaces, source_tokens):
    """`phrases_oracle`'s (normalized, present) pairs."""
    return [(n, pres) for _, n, pres in phrases_oracle(surfaces, source_tokens, normalize_oracle)]


class TestNormalizePhrase:
    def test_multiword(self):
        form, is_present = phrase_of("Wireless Sensor Networks")
        assert form == "wireless sensor network"
        assert is_present is False

    def test_no_suffix_rules_fire(self):
        assert phrase_of("TDMA")[0] == "tdma"

    def test_punctuation_only_is_empty(self):
        assert textnorm.NormalizedSource(()).phrases(["  ---  "]) == ()

    def test_tokens_roundtrip(self):
        assert phrase_of("graph coloring")[0].split(" ") == ["graph", "color"]
        assert textnorm.NormalizedSource(()).phrases(["--"]) == ()

    def test_classified_copy(self):
        # the same surface is classified against each source on its own
        p = phrase_of("tdma", "tdma")
        q = phrase_of("tdma", "other")
        assert p[1] is True and q[1] is False
        assert q[0] == p[0]


def present(surface, source_text):
    return phrase_of(surface, source_text)[1]


class TestIsPresent:
    def test_contiguous_match(self):
        assert present("graph color", "distributed graph coloring based methods")

    def test_empty_source(self):
        assert not present("anything", "")

    def test_order_matters(self):
        assert not present("sensor network", "network of sensors reversed order")

    def test_token_boundaries_not_substrings(self):
        assert not present("art", "the artifact was found")
        source = textnorm.NormalizedSource(["ab", "c", "d"])
        for surface, is_present in [("b c", False), ("ab c", True), ("c d", True), ("a", False)]:
            assert (source.phrases([surface])[0] in source.present) is is_present

    def test_empty_phrase_rejected(self):
        # a surface without tokens is never presence-tested: it is dropped
        assert textnorm.NormalizedSource(["a"]).phrases(["--"]) == ()

    def test_stemmed_presence(self):
        assert present("Networks", "a network of agents")

    def test_source_is_surface_text(self):
        # the source holds words, not stems: the stem `decis` is itself a
        # word that normalizes to `deci`, so it does not contain `decision`
        assert present("decision", "decisions")
        assert not present("decision", "decis")


class TestNormalizedSource:
    def test_from_text_normalizes(self):
        source = textnorm.NormalizedSource.from_text("Graph Coloring-based TDMA")
        surfaces = ["graph color base tdma", "graph tdma", "tdma graph"]
        assert [p in source.present for p in source.phrases(surfaces)] == [True, False, False]


class TestLazyStemming:
    TEXT = "Relational networks decide: the decisions of happy networking agents"

    def stemmed_words(self, monkeypatch):
        """The list that collects every word `porter.stem` is called on from
        now on, with the stem memo emptied."""
        stemmed = []
        stem = porter.stem

        def counting(word):
            stemmed.append(word)
            return stem(word)

        monkeypatch.setattr(porter, "stem", counting)
        textnorm.normalize_token.cache_clear()
        return stemmed

    def test_source_stems_no_word(self, monkeypatch):
        stemmed = self.stemmed_words(monkeypatch)
        textnorm.NormalizedSource.from_text(self.TEXT)
        assert stemmed == []

    def test_phrase_stems_only_words_at_its_probe(self, monkeypatch):
        # A phrase token q can only match a source word starting with q[:-1]
        # (its probe), so that is the only kind of source word it may stem.
        stemmed = self.stemmed_words(monkeypatch)
        for surface, probes, is_present in [
            ("decision", ["deci"], True),
            ("happiness", ["happ"], True),
            ("relate", ["rela"], True),
            ("zebra", ["zebr"], False),
            ("network of agents", ["networ", "o", "agen"], False),
            ("networks decide", ["networ", "deci"], True),
        ]:
            source = textnorm.NormalizedSource.from_text(self.TEXT)
            textnorm.normalize_token.cache_clear()
            stemmed.clear()
            (phrase,) = source.phrases([surface])
            assert (phrase in source.present) is is_present, surface
            own = textnorm.tokenize(surface)
            assert stemmed[: len(own)] == own
            source_stemmed = stemmed[len(own) :]
            assert all(w.startswith(tuple(probes)) for w in source_stemmed), (surface, stemmed)
            if surface == "decision":  # its match is the source word `decisions`
                assert "decisions" in source_stemmed


def toy_samples(doc):
    """The phrase lists of three samples that repeat the gold phrases in
    different orders and add a source word and a phrase absent from the
    source."""
    gold = list(doc.gold)
    word = doc.source_text.split()[0]
    return [
        tuple(gold + [word]),
        tuple(reversed(gold)) + ("zzyzx quux",),
        (word, "--", word.upper()) + tuple(gold[:2]),
    ]


def source_of(doc):
    return textnorm.NormalizedSource.from_text(doc.source_text)


class TestSourcePhraseMemo:
    def test_phrases_equals_fresh_computation(self, toy_docs):
        for doc in toy_docs:
            source_tokens = normalize_oracle(doc.source_text)
            source = source_of(doc)
            for surfaces in toy_samples(doc) + [doc.gold]:
                got = classified(source, source.phrases(surfaces))
                assert got == oracle_pairs(surfaces, source_tokens), doc.id

    def test_empty_surface_dropped(self):
        source = textnorm.NormalizedSource.from_text("a source text")
        assert source.phrases(["--"]) == ()
        assert source.phrases(["--", "text", "--"]) == ("text",)
        assert "text" in source.present
        # the memo answers a repeated surface with the phrase it made
        assert source.phrases(["text"])[0] is source.phrases(["text"])[0]

    def test_same_normal_form_kept_once(self):
        source = textnorm.NormalizedSource.from_text("Neural networks learn")
        surfaces = ("neural networks", "Neural-Network")
        assert [source.phrases([s])[0] for s in surfaces] == ["neural network"] * 2
        kept = source.phrases(surfaces)
        assert classified(source, kept) == [("neural network", True)]
        doc = corpus.Document("d", "Neural networks learn", "", ())
        sample = ("Neural-Network", "neural networks")
        assert source_of(doc).phrases(sample) == ("neural network",)

    def test_each_surface_normalized_once_per_source(self, toy_docs, monkeypatch):
        doc = toy_docs[0]
        samples = toy_samples(doc)
        source, next_source = source_of(doc), source_of(doc)
        # a new surface is tokenized once, to be normalized and classified
        calls = []
        original = textnorm.tokenize

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(textnorm, "tokenize", counting)
        for _ in range(2):
            for surfaces in samples:
                source.phrases(surfaces)
        source.phrases(doc.gold)
        sampled = {s for surfaces in samples for s in surfaces}
        assert sorted(calls) == sorted(sampled | set(doc.gold))
        # a new source (the next document) starts with an empty memo
        calls.clear()
        for surfaces in samples:
            next_source.phrases(surfaces)
        assert sorted(calls) == sorted(sampled)


class TestDedup:
    def test_empty_normalized_dropped(self):
        out = textnorm.NormalizedSource(()).phrases(["--", "a"])
        assert list(out) == ["a"]


# Pairs of different surface words with one stem, so that a match often
# holds only after stemming the source word.
STEM_VARIANTS = (
    "decision", "decisions", "relational", "relate",
    "networking", "networks", "happy", "happiness",
)
words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8) | st.sampled_from(
    STEM_VARIANTS
)
token_lists = st.lists(words, max_size=12)
# Short words over tiny alphabets, so that a phrase often nearly matches the
# source across a token boundary (phrase `b c` against source `ab c`);
# non-ASCII words pass through normalization unstemmed.
near_words = (
    words
    | st.text(alphabet="ab", min_size=1, max_size=3)
    | st.text(alphabet="aéÉß", min_size=1, max_size=3)
)


@given(st.text(max_size=40))
def test_normalized_nonempty_iff_alnum_content(surface):
    phrases = textnorm.NormalizedSource(()).phrases([surface])
    has_alnum = bool(textnorm.tokenize(surface))
    assert bool(phrases) == has_alnum
    assert all(phrases)


@given(st.lists(st.text(max_size=10), max_size=10))
def test_dedup_output_distinct_and_subsequence(surfaces):
    out = textnorm.NormalizedSource(()).phrases(surfaces)
    assert len(set(out)) == len(out)
    assert all(out)
    # the forms of a subsequence of the input
    it = iter(surfaces)
    assert all(any(" ".join(normalize_oracle(s)) == p for s in it) for p in out)


@pytest.mark.oracle
@given(words, token_lists, token_lists, token_lists)
def test_presence_survives_context_extension(word, prefix, middle, suffix):
    core = middle + [word]
    assert present(word, " ".join(core))
    assert present(word, " ".join(prefix + core + suffix))


@pytest.mark.oracle
@given(st.lists(near_words, min_size=1, max_size=3), st.lists(near_words, max_size=12))
def test_is_present_matches_window_scan(phrase_words, source_words):
    text = " ".join(source_words)
    source = textnorm.NormalizedSource(textnorm.tokenize(text))
    phrases = source.phrases([" ".join(phrase_words)])
    if not phrases:
        return
    (phrase,) = phrases
    assert (phrase in source.present) == window_scan_oracle(
        normalize_oracle(text), phrase.split(" ")
    )


# Surface strings from a few pieces, so that a list repeats surfaces, holds
# case and stemming variants of one normalized form, and punctuation-only
# surfaces that normalize to nothing.
surface_pieces = st.sampled_from(
    ["net", "Net", "nets", "Networks", "ab", "AB", "a-b", "b", "é", "É", "--", "!?", " ", ""]
    + list(STEM_VARIANTS)
)
surfaces = st.lists(surface_pieces, min_size=1, max_size=3).map(" ".join)


# One phrase in three surfaces of one normalized form, differing in case and
# punctuation, and source words that may or may not spell it.
SENSOR_VARIANTS = ["Sensor-Networks", "sensor networks", "SENSOR NETWORKS"]
sensor_pieces = st.sampled_from(["sensor", "Sensors", "networks", "NETWORK", "sensor-network"])


@pytest.mark.oracle
@given(
    st.lists(surfaces, max_size=10),
    st.lists(surface_pieces | sensor_pieces, max_size=12),
    st.permutations(SENSOR_VARIANTS),
    st.integers(min_value=0, max_value=10),
)
def test_phrases_match_oracle(surface_list, source_pieces, variants, at):
    # presence is decided once per form, whichever of its surfaces comes first
    surface_list = surface_list[:at] + variants + surface_list[at:]
    text = " ".join(source_pieces)
    tokens = normalize_oracle(text)
    source = textnorm.NormalizedSource(textnorm.tokenize(text))
    got = source.phrases(surface_list)
    assert all(type(p) is str for p in got)
    assert classified(source, got) == oracle_pairs(surface_list, tokens)
    fresh = textnorm.NormalizedSource(textnorm.tokenize(text))
    for variant in variants:
        want = window_scan_oracle(tokens, normalize_oracle(variant))
        for one in (source, fresh):
            (form,) = one.phrases([variant])
            assert (form in one.present) is want, (variant, text)


# Text for the tokenizer: ASCII only (lowered whole) and with letters whose
# lowercase depends on their context or splits them (lowered per token).
tokenizer_text = (
    st.text(alphabet=string.printable, max_size=40)
    | st.text(alphabet="aZ9 _-'İΣßéΧΟ", max_size=30)
    | st.text(max_size=30)
)


@pytest.mark.oracle
@given(tokenizer_text)
def test_tokenize_matches_oracle(text):
    assert textnorm.tokenize(text) == tokenize_oracle(text)


# A partner of a word with the same stem, so that a phrase matches a source
# word only after stemming (`networks` against `network`).
STEM_PARTNERS = {
    "decision": "decisions", "decisions": "decision", "relational": "relate",
    "relate": "relational", "networking": "networks", "networks": "network",
    "network": "networks", "happy": "happiness", "happiness": "happy",
}
partner_words = words | st.sampled_from(sorted(STEM_PARTNERS))


@st.composite
def source_and_phrase(draw):
    """A source text and a phrase cut from its words: verbatim, in another
    case, with a word swapped for one of the same stem, with a letter cut
    off its first or last word (`b c` against `ab c`, `a b` against `a bc`),
    or drawn freely."""
    source_words = draw(st.lists(partner_words | near_words, min_size=1, max_size=10))
    start = draw(st.integers(0, len(source_words) - 1))
    stop = draw(st.integers(start + 1, min(len(source_words), start + 3)))
    phrase_words = source_words[start:stop]
    kind = draw(st.sampled_from(["verbatim", "case", "stem", "cut_first", "cut_last", "free"]))
    if kind == "case":
        phrase_words = [w.upper() for w in phrase_words]
    elif kind == "stem":
        phrase_words = [STEM_PARTNERS.get(w, w) for w in phrase_words]
    elif kind == "cut_first":
        phrase_words[0] = phrase_words[0][1:]
    elif kind == "cut_last":
        phrase_words[-1] = phrase_words[-1][:-1]
    elif kind == "free":
        phrase_words = draw(st.lists(near_words, min_size=1, max_size=3))
    separator = draw(st.sampled_from([" ", "  ", "-", ", "]))
    return separator.join(source_words), " ".join(phrase_words)


@pytest.mark.oracle
@given(source_and_phrase())
def test_presence_near_verbatim_matches_oracle(case):
    text, surface = case
    source = textnorm.NormalizedSource.from_text(text)
    got = classified(source, source.phrases([surface]))
    assert got == oracle_pairs([surface], normalize_oracle(text))
