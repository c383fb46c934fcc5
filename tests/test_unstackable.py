from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def brute_border_violations(m: Morphism) -> list[tuple[str, str, str]]:
    # Independent re-derivation over plain strings, deliberately written
    # differently from the library scan.
    images = {a: m.image(a).text for a in m.source.letters}
    n = m.uniform_length()
    bad = []
    for a, ia in images.items():
        for b, ib in images.items():
            for lv in range(1, n // 2 + 1):
                if ia[n - lv:] != ib[:lv]:
                    continue
                stem, tail = ia[:n - lv], ib[lv:]
                if any(img.endswith(stem) for img in images.values()) or any(
                    img.startswith(tail) for img in images.values()
                ):
                    bad.append((a, b, ib[:lv]))
    return bad


def filtered_triples(alphabet: Alphabet, kind: PatternKind) -> list[Word]:
    # The former library body: filter all k^3 words with find_pattern.
    out = []
    for t in itertools.product(range(len(alphabet)), repeat=3):
        w = Word(t, alphabet)
        if find_pattern(w, kind) is None:
            out.append(w)
    return out


@pytest.mark.parametrize("kind", list(PatternKind))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pattern_free_triples_match_filtering(k, kind):
    alphabet = Alphabet.from_string("0123"[:k])
    assert pattern_free_triples(alphabet, kind) == filtered_triples(alphabet, kind)


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


def test_border_one_uniform_is_vacuous():
    rep = check_border_condition(Morphism.from_strings("012", ["1", "2", "0"]))
    assert rep.holds
    assert rep.notes


def test_border_agrees_with_brute_scan_on_catalog():
    for name in catalog_names():
        m = catalog(name)
        rep = check_border_condition(m)
        brute = brute_border_violations(m)
        assert rep.holds == (not brute)
        assert sorted({(w.a, w.b, w.border.text) for w in rep.witnesses}) == sorted(set(brute))


def test_marked_ends():
    assert check_marked_ends(catalog("leech")).holds
    assert check_marked_ends(doubling()).holds
    rep = check_marked_ends(Morphism.from_strings("01", ["01", "11"]))
    assert not rep.holds
    assert rep.witnesses == (EndWitness("0", "1", "last", "1"),)


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
    with pytest.raises(NonUniformError):
        check_overlap_def(Morphism.from_strings("01", ["0", "11"]))


def test_square_def_verdicts():
    v = check_square_def(catalog("leech"))
    assert v.definition is PatternKind.SQUARE
    assert v.passed
    assert [r.condition for r in v.reports] == ["square-triples", "marked-ends", "border"]
    assert check_square_def(Morphism.from_strings("012", ["0", "1", "2"])).passed
    assert not check_square_def(doubling()).passed
    with pytest.raises(NonUniformError):
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
    assert rep.holds == (not brute_border_violations(m))


@given(uniform_morphisms(), st.sampled_from([PatternKind.OVERLAP, PatternKind.SQUARE]))
@settings(max_examples=60, deadline=None)
def test_image_triple_witness_replay(m, kind):
    rep = check_image_triples(m, kind)
    for w in rep.witnesses:
        assert find_pattern(w.word, kind) is None
        assert m.apply(w.word) == w.image
        assert w.occurrence.matches(w.image)
