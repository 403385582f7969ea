"""Stemmer checks against the frozen reference vocabulary and the classic
rule-by-rule examples."""

import itertools
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpagg import porter, textnorm

from .oracles import porter_oracle, reference_stems

# examples quoted in the algorithm's original description, step by step
CLASSIC_CASES = {
    "caresses": "caress",
    "ponies": "poni",
    "ties": "ti",
    "caress": "caress",
    "cats": "cat",
    "feed": "feed",
    "agreed": "agre",
    "plastered": "plaster",
    "bled": "bled",
    "motoring": "motor",
    "sing": "sing",
    "conflated": "conflat",
    "troubled": "troubl",
    "sized": "size",
    "hopping": "hop",
    "tanned": "tan",
    "falling": "fall",
    "hissing": "hiss",
    "fizzed": "fizz",
    "failing": "fail",
    "filing": "file",
    "happy": "happi",
    "sky": "sky",
    "relational": "relat",
    "rational": "ration",
    "conditional": "condit",
    "valenci": "valenc",
    "hesitanci": "hesit",
    "digitizer": "digit",
    "radicalli": "radic",
    "differentli": "differ",
    "vileli": "vile",
    "analogousli": "analog",
    "vietnamization": "vietnam",
    "predication": "predic",
    "operator": "oper",
    "feudalism": "feudal",
    "decisiveness": "decis",
    "hopefulness": "hope",
    "callousness": "callous",
    "formaliti": "formal",
    "sensitiviti": "sensit",
    "sensibiliti": "sensibl",
    "triplicate": "triplic",
    "formative": "form",
    "formalize": "formal",
    "electriciti": "electr",
    "electrical": "electr",
    "hopeful": "hope",
    "goodness": "good",
    "revival": "reviv",
    "allowance": "allow",
    "inference": "infer",
    "airliner": "airlin",
    "gyroscopic": "gyroscop",
    "adjustable": "adjust",
    "defensible": "defens",
    "irritant": "irrit",
    "replacement": "replac",
    "adjustment": "adjust",
    "dependent": "depend",
    "adoption": "adopt",
    "communism": "commun",
    "activate": "activ",
    "homologous": "homolog",
    "effective": "effect",
    "bowdlerize": "bowdler",
    "probate": "probat",
    "rate": "rate",
    "cease": "ceas",
    "controll": "control",
    "roll": "roll",
}


def test_classic_examples():
    for word, expected in CLASSIC_CASES.items():
        assert porter.stem(word) == expected, word


def test_short_words_unchanged():
    for word in ("a", "is", "as", "be", "on", "by"):
        assert porter.stem(word) == word


def test_y_handling():
    assert porter.stem("dying") == "dy"
    assert porter.stem("lying") == "ly"
    assert porter.stem("sky") == "sky"
    assert porter.stem("happy") == "happi"


def test_not_always_idempotent():
    # a faithful implementation restems some of its own outputs
    assert porter.stem("decision") == "decis"
    assert porter.stem("decis") == "deci"


def test_reference_vocabulary_agreement():
    table = reference_stems()
    assert len(table) > 5000
    mismatches = [w for w, s in table.items() if porter.stem(w) != s]
    ratio = 1 - len(mismatches) / len(table)
    assert ratio >= 0.999, f"agreement {ratio:.4%}; first mismatches: {mismatches[:10]}"


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20))
def test_deterministic_and_terminating(word):
    first = porter.stem(word)
    assert porter.stem(word) == first
    assert len(first) <= len(word)
    assert first == "" or first.isascii()


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20))
def test_repeated_stemming_converges(word):
    seen = set()
    current = word
    for _ in range(10):
        if current in seen:
            break
        seen.add(current)
        current = porter.stem(current)
    assert porter.stem(current) == current


# every suffix the rules strip or rewrite, so that generated words reach
# each step's tables and not only step 1
RULE_SUFFIXES = (
    "s", "ed", "ing", "eed", "ies", "sses",
    "ational", "tional", "enci", "anci", "izer", "bli", "alli", "entli", "eli",
    "ousli", "ization", "ation", "ator", "alism", "iveness", "fulness",
    "ousness", "aliti", "iviti", "biliti", "logi",
    "icate", "ative", "alize", "iciti", "ical", "ful", "ness",
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment",
    "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


rule_words = st.builds(
    str.__add__,
    st.text(alphabet="aeiouybcdlmnrstz", max_size=10),
    st.sampled_from(RULE_SUFFIXES),
)


@pytest.mark.oracle
@given(rule_words)
def test_stem_matches_letter_by_letter_oracle(word):
    assert porter.stem(word) == porter_oracle(word)


# The lazy presence test of `textnorm.NormalizedSource` stems only the source
# words that start with a phrase token minus its last letter, which is exact
# only if every letter of a stem but the last is the word's own.


def keeps_all_but_last_letter(word, normalize):
    return word.startswith(normalize(word)[:-1])


class TestStemKeepsWordPrefix:
    def test_reference_vocabulary(self):
        words = list(reference_stems())
        assert len(words) > 39_000
        for normalize in (porter.stem, textnorm.normalize_token):
            bad = [w for w in words if not keeps_all_but_last_letter(w, normalize)]
            assert not bad, bad[:10]

    def test_every_short_word(self):
        def short_words(max_len):
            for n in range(1, max_len + 1):
                yield from map("".join, itertools.product(string.ascii_lowercase, repeat=n))

        bad = [w for w in short_words(4) if not keeps_all_but_last_letter(w, porter.stem)]
        assert not bad, bad[:10]
        bad = [
            w for w in short_words(3) if not keeps_all_but_last_letter(w, textnorm.normalize_token)
        ]
        assert not bad, bad[:10]


@pytest.mark.oracle
@given(rule_words)
def test_stem_keeps_word_prefix(word):
    assert keeps_all_but_last_letter(word, porter.stem)
    assert keeps_all_but_last_letter(word, textnorm.normalize_token)
