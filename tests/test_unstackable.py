from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_border_witnesses, naive_find_pattern
from wordmorph import (
    EndWitness,
    Morphism,
    NonUniformError,
    PatternKind,
    catalog,
    catalog_names,
    check_border_condition,
    check_image_triples,
    check_lemma_consequences,
    check_marked_ends,
    check_overlap_def,
    check_square_def,
    find_pattern,
)
from wordmorph.unstackable import pattern_free_triples
from wordmorph.words import Alphabet, Word


def doubling() -> Morphism:
    return Morphism.from_strings("01", ["00", "11"])


def border_witness_texts(m: Morphism) -> list[tuple[str, str, str, str, str, str, str]]:
    return [
        (w.a, w.b, w.border.text, w.stem.text, w.tail.text, w.side, w.offender)
        for w in check_border_condition(m).witnesses
    ]


def filtered_triples(alphabet: Alphabet, kind: PatternKind) -> list[Word]:
    # The oracle for pattern_free_triples: all k^3 words, filtered by the naive scan.
    out = []
    for t in itertools.product(range(len(alphabet)), repeat=3):
        w = Word(t, alphabet)
        if naive_find_pattern(w, kind) is None:
            out.append(w)
    return out


@pytest.mark.parametrize("kind", list(PatternKind))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pattern_free_triples_match_filtering(k, kind):
    alphabet = Alphabet.from_string("0123"[:k])
    assert list(pattern_free_triples(alphabet, kind)) == filtered_triples(alphabet, kind)


def test_pattern_free_triples_memo_stays_invisible():
    # the memo hands out its own tuple, which no caller can change
    triples = pattern_free_triples(Alphabet.from_string("012"), PatternKind.SQUARE)
    assert type(triples) is tuple
    # an equal but distinct alphabet finds the same memo entry
    assert pattern_free_triples(Alphabet.from_string("012"), PatternKind.SQUARE) is triples
    assert pattern_free_triples.cache_info().maxsize is not None


def test_image_triples_violations_doubling():
    rep = check_image_triples(doubling(), PatternKind.OVERLAP)
    assert not rep.holds
    assert rep.condition == "overlap-triples"
    got = [(w.word.text, w.occurrence.start, w.occurrence.period) for w in rep.witnesses]
    assert got == [("001", 0, 1), ("011", 2, 1), ("100", 2, 1), ("110", 0, 1)]
    for w in rep.witnesses:
        assert find_pattern(w.word, PatternKind.OVERLAP) is None
        assert w.occurrence.matches(w.image)


def test_image_triples_pass_examples():
    assert check_image_triples(catalog("thue_morse"), PatternKind.OVERLAP).holds
    assert check_image_triples(catalog("leech"), PatternKind.SQUARE).holds
    rep = check_image_triples(Morphism.from_strings("0", ["0"]), PatternKind.SQUARE)
    assert rep.holds
    assert rep.notes  # vacuous: no square-free triples over one letter


def test_image_triples_rejects_cube():
    with pytest.raises(ValueError):
        check_image_triples(doubling(), PatternKind.CUBE)


def test_border_witnesses_thue_morse():
    m = catalog("thue_morse")
    rep = check_border_condition(m)
    assert not rep.holds
    assert rep.condition == "border"
    got = [(w.a, w.b, w.border.text, w.side, w.offender) for w in rep.witnesses]
    assert got == [
        ("0", "1", "1", "stem-suffix", "1"),
        ("0", "1", "1", "tail-prefix", "0"),
        ("1", "0", "0", "stem-suffix", "0"),
        ("1", "0", "0", "tail-prefix", "1"),
    ]
    first = rep.witnesses[0]
    assert first.stem.text == "0"
    assert first.tail.text == "0"
    for w in rep.witnesses:
        assert m.image(w.a).text == w.stem.text + w.border.text
        assert m.image(w.b).text == w.border.text + w.tail.text
        if w.side == "stem-suffix":
            assert m.image(w.offender).text.endswith(w.stem.text)
        else:
            assert m.image(w.offender).text.startswith(w.tail.text)


def test_border_holds_for_catalog_squares():
    assert check_border_condition(catalog("leech")).holds
    assert check_border_condition(catalog("f4")).holds
    assert check_border_condition(catalog("g4")).holds


def test_border_requires_uniform():
    with pytest.raises(NonUniformError):
        check_border_condition(Morphism.from_strings("01", ["0", "11"]))


def test_border_witnesses_match_string_scan_on_catalog():
    for name in catalog_names():
        m = catalog(name)
        assert border_witness_texts(m) == brute_border_witnesses(m), name
    assert border_witness_texts(catalog("thue_morse")) == [
        ("0", "1", "1", "0", "0", "stem-suffix", "1"),
        ("0", "1", "1", "0", "0", "tail-prefix", "0"),
        ("1", "0", "0", "1", "1", "stem-suffix", "0"),
        ("1", "0", "0", "1", "1", "tail-prefix", "1"),
    ]


@pytest.mark.parametrize(
    "letters, images, target",
    [
        ("012", ["bba", "abb", "aab"], "ab"),
        ("01", ["abca", "cabc"], "abc"),
        ("0123", ["xyx", "yxy", "xxy", "yyx"], "xy"),
        # a 300-letter target t, symbols past 255: 0 -> t[299]t[280], 1 -> t[280]t[299]
        ("01", ["\u4f2b\u4f18", "\u4f18\u4f2b"], "".join(chr(0x4E00 + i) for i in range(300))),
    ],
)
def test_border_witnesses_match_string_scan_onto_target(letters, images, target):
    m = Morphism.from_strings(letters, images, target=target)
    assert border_witness_texts(m) == brute_border_witnesses(m)
    assert border_witness_texts(m)


def test_border_one_uniform_is_vacuous():
    rep = check_border_condition(Morphism.from_strings("012", ["1", "2", "0"]))
    assert rep.holds
    assert rep.notes


def test_marked_ends():
    assert check_marked_ends(catalog("leech")).holds
    assert check_marked_ends(doubling()).holds
    rep = check_marked_ends(Morphism.from_strings("01", ["01", "11"]))
    assert not rep.holds
    assert rep.witnesses == (EndWitness("0", "1", "last", "1"),)
    # pair by pair, first end before last end
    rep = check_marked_ends(Morphism.from_strings("0123", ["012", "002", "321", "320"]))
    assert rep.witnesses == (
        EndWitness("0", "1", "first", "0"),
        EndWitness("0", "1", "last", "2"),
        EndWitness("2", "3", "first", "3"),
    )


def test_lemma_consequences_hold_for_thue_morse():
    reports = check_lemma_consequences(catalog("thue_morse"))
    assert [r.condition for r in reports] == ["single-images", "letter-pairs", "marked-ends"]
    assert all(r.holds for r in reports)


def test_lemma_consequences_pair_failure():
    # each image and image(0)image(0) are overlap-free, but
    # image(0)image(1) = 010101 carries the overlap 01010
    m = Morphism.from_strings("01", ["010", "101"])
    singles, pairs, ends = check_lemma_consequences(m)
    assert singles.holds
    assert not pairs.holds
    assert [w.word.text for w in pairs.witnesses] == ["01", "10"]
    occ = pairs.witnesses[0].occurrence
    assert (occ.start, occ.period) == (0, 2)
    assert ends.holds
    # consistent with the triple condition failing for this morphism
    assert not check_image_triples(m, PatternKind.OVERLAP).holds


def test_lemma_consequences_requires_two_letters():
    with pytest.raises(ValueError):
        check_lemma_consequences(Morphism.from_strings("0", ["00"]))


def test_overlap_def_verdicts():
    v = check_overlap_def(catalog("thue_morse"))
    assert v.definition is PatternKind.OVERLAP
    assert not v.passed
    assert [r.condition for r in v.reports] == ["overlap-triples", "border"]
    assert v.reports[0].holds and not v.reports[1].holds
    assert check_overlap_def(catalog("f4")).passed
    assert check_overlap_def(catalog("g4")).passed
    message = "^the overlap conditions apply to uniform morphisms$"
    with pytest.raises(NonUniformError, match=message):
        check_overlap_def(Morphism.from_strings("01", ["0", "11"]))


def test_square_def_verdicts():
    v = check_square_def(catalog("leech"))
    assert v.definition is PatternKind.SQUARE
    assert v.passed
    assert [r.condition for r in v.reports] == ["square-triples", "marked-ends", "border"]
    assert check_square_def(Morphism.from_strings("012", ["0", "1", "2"])).passed
    assert not check_square_def(doubling()).passed
    message = "^the square conditions apply to uniform morphisms$"
    with pytest.raises(NonUniformError, match=message):
        check_square_def(Morphism.from_strings("01", ["0", "11"]))


def test_words_checked_counts_scanned_triples():
    bundles = ((check_overlap_def, PatternKind.OVERLAP), (check_square_def, PatternKind.SQUARE))
    for name in catalog_names():
        m = catalog(name)
        for check, kind in bundles:
            assert check(m).words_checked == len(pattern_free_triples(m.source, kind)), (name, kind)
    singles, pairs, ends = check_lemma_consequences(catalog("g4"))
    assert (singles.words_checked, pairs.words_checked, ends.words_checked) == (4, 16, 0)


@st.composite
def uniform_morphisms(draw):
    k = draw(st.integers(2, 3))
    n = draw(st.integers(1, 4))
    letters = "0123"[:k]
    images = [
        draw(st.text(alphabet=letters, min_size=n, max_size=n)) for _ in range(k)
    ]
    return Morphism.from_strings(letters, images)


@given(uniform_morphisms())
@settings(max_examples=60, deadline=None)
def test_border_witness_replay(m):
    rep = check_border_condition(m)
    n = m.uniform_length()
    for w in rep.witnesses:
        assert 1 <= len(w.border) <= n // 2
        assert m.image(w.a).text == w.stem.text + w.border.text
        assert m.image(w.b).text == w.border.text + w.tail.text
        if w.side == "stem-suffix":
            assert m.image(w.offender).text.endswith(w.stem.text)
        else:
            assert m.image(w.offender).text.startswith(w.tail.text)
    assert rep.holds == (not brute_border_witnesses(m))
    assert rep.holds == (not rep.witnesses)
    for verdict in (check_overlap_def(m), check_square_def(m)):
        assert verdict.passed == all(r.holds for r in verdict.reports)


@st.composite
def bordered_uniform_morphisms(draw):
    # k = 2-4, n = 1-8; about half the images are drawn with a border of
    # their own, so that a == b borders occur on every size
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 8))
    letters = "0123"[:k]
    images = []
    for _ in letters:
        image = draw(st.text(alphabet=letters, min_size=n, max_size=n))
        if n >= 2 and draw(st.booleans()):
            lv = draw(st.integers(1, n // 2))
            image = image[:n - lv] + image[:lv]
        images.append(image)
    return Morphism.from_strings(letters, images)


@given(bordered_uniform_morphisms())
@settings(max_examples=200, deadline=None)
def test_border_witnesses_match_string_scan(m):
    assert border_witness_texts(m) == brute_border_witnesses(m)


@given(uniform_morphisms(), st.sampled_from([PatternKind.OVERLAP, PatternKind.SQUARE]))
@settings(max_examples=60, deadline=None)
def test_image_triple_witness_replay(m, kind):
    rep = check_image_triples(m, kind)
    for w in rep.witnesses:
        assert find_pattern(w.word, kind) is None
        assert m.apply(w.word) == w.image
        assert w.occurrence.matches(w.image)


# Targets of 2-5 letters, and of 255, 256 and 300: from 256 letters on a
# symbol can be the batch scan's gap byte, 255, and each image is scanned
# alone, and from 257 the symbols do not fit a byte either.
@st.composite
def morphisms_into_targets(draw):
    k = draw(st.integers(1, 4))
    t = draw(st.sampled_from([2, 3, 4, 5, 255, 256, 300]))
    target = Alphabet(tuple(chr(0x4E00 + i) for i in range(t)))
    # a few letters per morphism, so that images do repeat; near 255 when
    # the target reaches that far
    pool = sorted({s for s in (0, 1, 2, 3, 4, 254, 255, 299) if s < t})
    used = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    uniform = draw(st.booleans())
    n = draw(st.integers(1, 8))
    images = [
        Word(tuple(draw(st.lists(st.sampled_from(used), min_size=n, max_size=n if uniform else 8))), target)
        for _ in range(k)
    ]
    return Morphism(Alphabet.from_string("0123"[:k]), target, tuple(images))


def onto_target(t: int) -> Morphism:
    # 0 -> ab, 1 -> ba, 2 -> aa over the last two letters a, b of a t-letter
    # target: images that hit and images that miss, on both kinds
    target = Alphabet(tuple(chr(0x4E00 + i) for i in range(t)))
    a, b = t - 1, t - 2
    images = [Word(pair, target) for pair in ((a, b), (b, a), (a, a))]
    return Morphism(Alphabet.from_string("012"), target, tuple(images))


def naive_image_witnesses(m: Morphism, words, kind: PatternKind) -> list:
    # one image at a time: apply, then the quadratic scan of the contract
    found = []
    for w in words:
        image = m.apply(w)
        occ = naive_find_pattern(image, kind)
        if occ is not None:
            found.append((w, image, occ))
    return found


def as_triples(report) -> list:
    return [(w.word, w.image, w.occurrence) for w in report.witnesses]


@given(morphisms_into_targets(), st.sampled_from([PatternKind.OVERLAP, PatternKind.SQUARE]))
# the batch scan's widest target, symbols that reach its gap byte 255, and
# symbols past 255: both sides of len(target) > 255 run on every run
@example(onto_target(255), PatternKind.OVERLAP)
@example(onto_target(256), PatternKind.SQUARE)
@example(onto_target(300), PatternKind.OVERLAP)
@settings(max_examples=150, deadline=None)
def test_image_witnesses_match_a_per_image_naive_scan(m, kind):
    # same words, same images, same minimal occurrences, in the same order
    triples = filtered_triples(m.source, kind)
    assert as_triples(check_image_triples(m, kind)) == naive_image_witnesses(m, triples, kind)
    if len(m.source) < 2:
        return
    singles, pairs, _ = check_lemma_consequences(m)
    for report, length in ((singles, 1), (pairs, 2)):
        words = [Word(t, m.source) for t in itertools.product(range(len(m.source)), repeat=length)]
        assert as_triples(report) == naive_image_witnesses(m, words, PatternKind.OVERLAP)
