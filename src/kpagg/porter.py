"""Porter stemmer (the classic 1980 suffix-stripping algorithm).

Self-contained port of the canonical reference implementation, including
its documented departures from the original article (e.g. words of length
<= 2 are left alone, -bli/-logi rules). Input must be a lowercase ASCII
word; callers that tokenize mixed text should gate on that before calling
:func:`stem`.

Every rule reads only whether letters are consonants or vowels, so each word
is mapped once to a consonant/vowel string (`c`/`v` per letter) with
`str.translate`; `y` is resolved by position only when the word has one. The
map of a prefix is the prefix of the map (a `y` depends only on the letters
before it) and no replacement contains a `y`, so each step slices the map or
appends the replacement's map instead of rescanning the word. The measure m
of the [C](VC)^m[V] decomposition is then `cv.count("vc")`. The step 2-4
suffix tables are indexed by final letter with their order kept, so the
first matching suffix still wins.

Every letter of a stem but the last comes from the word itself, in place:
`word.startswith(stem(word)[:-1])`. `kpagg.textnorm` relies on this to
stem only the source words that can match a phrase. Call the word's
current form r. Each rule does one of four things, and each keeps the
property that r[:-1] is a prefix of the word:

- It deletes a suffix (step 1a `-s`, `-sses`->`-ss`, `-ies`->`-i`; step 1b
  `-eed`->`-ee`, `-ed`, `-ing` and the undoubling of a final consonant;
  the step 2 and 3 rules whose replacement is a prefix of their suffix,
  such as `-tional`->`-tion` or `-alize`->`-al`; all of step 4; step 5's
  `-e` and `-ll`->`-l`). The new r[:-1] is shorter than the old one and
  a prefix of it.
- It rewrites a final `y` to `i` (step 1c). r[:-1] does not change.
- It appends one `e` (step 1b, after `-at`, `-bl`, `-iz` or a short
  cvc stem). This happens only right after step 1a and the deletion of
  `-ed` or `-ing`, so r is still a prefix of the word, and the new r[:-1]
  is that r.
- It swaps a suffix for a replacement that is no longer than it and
  agrees with it in all but the last letter (`-ational`->`-ate`,
  `-enci`->`-ence`, `-bli`->`-ble`, `-ization`->`-ize`, `-ator`->`-ate`,
  `-iviti`->`-ive`, ...). The new r[:-1] is a prefix of the old r[:-1].

The one exception is step 2's `-biliti`->`-ble`, which leaves `-bl` in
place of `-bi`. Its condition gives the part before it a measure m > 0, so
the result `...ble` has m > 0 without its `e` and does not end in cvc.
Step 3 has no suffix ending in `ble`. Step 4 either deletes `-able` or
`-ible`, which leaves a prefix of the word, or leaves `...ble`, and then
step 5 deletes the `e`, leaving `...bl` with r[:-1] = `...b`, a prefix of
the word. A word of at most two letters is left whole.
"""

from __future__ import annotations

_CV = str.maketrans("abcdefghijklmnopqrstuvwxyz", "vcccvcccvcccccvcccccvcccyc")


def _cv(word: str) -> str:
    """The word's consonant/vowel map: a `y` is a consonant at the start of
    the word or after a vowel, and a vowel after a consonant."""
    cv = word.translate(_CV)
    if "y" not in cv:
        return cv
    out = []
    prev = "v"  # a leading y is a consonant
    for ch in cv:
        if ch == "y":
            ch = "c" if prev == "v" else "v"
        out.append(ch)
        prev = ch
    return "".join(out)


def _ends_cvc(word: str, cv: str) -> bool:
    # consonant-vowel-consonant at the end, final consonant not w, x or y;
    # used to decide whether to restore a trailing 'e' (hop-e, fil-e).
    return cv.endswith("cvc") and word[-1] not in "wxy"


def _by_final_letter(*table):
    """{final letter: (suffix, replacement) pairs ending in it}, in table order."""
    index: dict[str, tuple] = {}
    for entry in table:
        index[entry[0][-1]] = index.get(entry[0][-1], ()) + (entry,)
    return index


# (suffix, replacement) tables; within each table the first suffix that
# matches is consumed whether or not the measure condition lets it rewrite.
_STEP2 = _by_final_letter(
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
    ("logi", "log"),
)

_STEP3 = _by_final_letter(
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4 = _by_final_letter(
    *(
        (suffix, "")
        for suffix in (
            "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
            "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
        )
    )
)


def _step1ab(word: str, cv: str) -> tuple[str, str]:
    if word.endswith("s"):
        if word.endswith(("sses", "ies")):  # -sses -> -ss, -ies -> -i
            word, cv = word[:-2], cv[:-2]
        elif not word.endswith("ss"):
            word, cv = word[:-1], cv[:-1]
    if word.endswith("eed"):
        if "vc" in cv[:-3]:
            word, cv = word[:-1], cv[:-1]
    elif word.endswith("ed") and "v" in cv[:-2]:
        word, cv = _tidy_after_deletion(word[:-2], cv[:-2])
    elif word.endswith("ing") and "v" in cv[:-3]:
        word, cv = _tidy_after_deletion(word[:-3], cv[:-3])
    return word, cv


def _tidy_after_deletion(word: str, cv: str) -> tuple[str, str]:
    if word.endswith(("at", "bl", "iz")):
        return word + "e", cv + "v"
    if len(word) >= 2 and word[-1] == word[-2] and cv[-1] == "c" and word[-1] not in "lsz":
        return word[:-1], cv[:-1]
    if cv.count("vc") == 1 and _ends_cvc(word, cv):
        return word + "e", cv + "v"
    return word, cv


def _map_suffix(word: str, cv: str, table) -> tuple[str, str]:
    for suffix, repl in table.get(word[-1:], ()):
        if word.endswith(suffix):
            k = len(word) - len(suffix)
            if "vc" in cv[:k]:
                return word[:k] + repl, cv[:k] + repl.translate(_CV)
            break
    return word, cv


def _step4(word: str, cv: str) -> tuple[str, str]:
    for suffix, _ in _STEP4.get(word[-1:], ()):
        if word.endswith(suffix):
            k = len(word) - len(suffix)
            if suffix == "ion" and not word[:k].endswith(("s", "t")):
                continue
            if cv[:k].count("vc") > 1:
                return word[:k], cv[:k]
            break
    return word, cv


def _step5(word: str, cv: str) -> str:
    if word.endswith("e"):
        m = cv[:-1].count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1], cv[:-1])):
            word, cv = word[:-1], cv[:-1]
    if word.endswith("ll") and cv[:-1].count("vc") > 1:
        word = word[:-1]
    return word


def stem(word: str) -> str:
    """Stem a single lowercase ASCII word."""
    if len(word) <= 2:
        return word
    word, cv = _step1ab(word, _cv(word))
    if word.endswith("y") and "v" in cv[:-1]:  # step 1c
        word, cv = word[:-1] + "i", cv[:-1] + "v"
    word, cv = _map_suffix(word, cv, _STEP2)
    word, cv = _map_suffix(word, cv, _STEP3)
    word, cv = _step4(word, cv)
    return _step5(word, cv)
