from __future__ import annotations

import itertools
import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wordmorph import (
    AlignmentCase,
    Alphabet,
    Counterexample,
    Direction,
    Morphism,
    Occurrence,
    PatternKind,
    SearchResult,
    Word,
    catalog,
    catalog_names,
    certify_backward,
    certify_forward,
    check_border_condition,
    check_lemma_consequences,
    check_overlap_def,
    check_square_def,
    classify_alignment,
    enumerate_pattern_free,
    explain,
    find_pattern,
    parse_word,
    residues,
    search_backward,
    search_forward,
)
from wordmorph import certify as certify_module
from conftest import assert_same_as_validated

FOUR_TILE_CASES = {
    AlignmentCase.R0_LE_R2_LT_R1,
    AlignmentCase.R2_LT_R0_LT_R1,
    AlignmentCase.R1_LT_R0_LE_R2,
    AlignmentCase.R1_LT_R2_LT_R0,
}
LONG_CASES = {AlignmentCase.LONG_R0_LT_R1, AlignmentCase.LONG_R1_LT_R0}


def test_forward_finds_minimal_counterexample():
    m = Morphism.from_strings("01", ["00", "11"])
    cex = certify_forward(m, PatternKind.SQUARE, 3)
    assert cex is not None
    assert cex.direction is Direction.FORWARD
    assert cex.word.text == "0"
    assert cex.image.text == "00"
    assert cex.occurrence == Occurrence(PatternKind.SQUARE, 0, 1)


def test_forward_counterexample_is_shortest_then_lex():
    m = Morphism.from_strings("01", ["010", "101"])
    cex = certify_forward(m, PatternKind.OVERLAP, 4)
    assert cex is not None
    assert cex.word.text == "01"
    assert cex.occurrence == Occurrence(PatternKind.OVERLAP, 0, 2)


def test_forward_none_for_catalog():
    assert certify_forward(catalog("thue_morse"), PatternKind.OVERLAP, 8) is None
    assert certify_forward(catalog("leech"), PatternKind.SQUARE, 6) is None


def test_backward_none_even_for_checker_failures():
    # backward preservation needs nothing beyond non-erasing images
    assert certify_backward(catalog("thue_morse"), PatternKind.OVERLAP, 7) is None
    assert certify_backward(Morphism.from_strings("01", ["00", "11"]), PatternKind.SQUARE, 5) is None


def test_search_results_report_per_length_counts():
    res = search_forward(catalog("leech"), PatternKind.SQUARE, 6)
    assert res.counterexample is None
    assert res.checked_by_length == {1: 3, 2: 6, 3: 12, 4: 18, 5: 30, 6: 42}
    assert res.words_checked == 111

    res = search_backward(catalog("leech"), PatternKind.SQUARE, 6)
    assert res.counterexample is None
    assert res.checked_by_length == {1: 0, 2: 3, 3: 15, 4: 63, 5: 213, 6: 687}
    assert res.words_checked == 981


def test_certify_preconditions():
    m = catalog("thue_morse")
    with pytest.raises(ValueError):
        certify_forward(m, PatternKind.OVERLAP, 0)
    with pytest.raises(ValueError):
        certify_backward(m, PatternKind.OVERLAP, 2)
    with pytest.raises(ValueError):
        certify_backward(m, PatternKind.SQUARE, 1)
    with pytest.raises(ValueError):
        certify_backward(m, PatternKind.CUBE, 2)
    assert certify_backward(m, PatternKind.SQUARE, 2) is None
    assert certify_backward(m, PatternKind.CUBE, 3) is None


@st.composite
def nonerasing_morphisms(draw):
    k = draw(st.integers(1, 3))
    letters = "012"[:k]
    images = [
        draw(st.text(alphabet=letters, min_size=1, max_size=4)) for _ in range(k)
    ]
    return Morphism.from_strings(letters, images)


@given(nonerasing_morphisms(), st.sampled_from(list(PatternKind)))
@settings(max_examples=40, deadline=None)
def test_backward_never_finds_counterexamples(m, kind):
    assert certify_backward(m, kind, 4) is None


def naive_search_backward(m: Morphism, kind: PatternKind, max_len: int) -> SearchResult:
    # The former library body: two full scans per kind-containing word.
    if max_len < kind.min_span:
        article = "an" if kind is PatternKind.OVERLAP else "a"
        raise ValueError(
            f"max_len must be >= {kind.min_span} to fit {article} {kind.value}"
            " in the word"
        )
    k = len(m.source)
    checked = {length: 0 for length in range(1, max_len + 1)}
    cex = None
    for length in range(1, max_len + 1):
        for t in itertools.product(range(k), repeat=length):
            w = Word(t, m.source)
            occ = find_pattern(w, kind)
            if occ is None:
                continue
            checked[length] += 1
            image = m.apply(w)
            if find_pattern(image, kind) is None:
                cex = Counterexample(Direction.BACKWARD, w, image, occ)
                return SearchResult(Direction.BACKWARD, kind, max_len, cex, checked)
    return SearchResult(Direction.BACKWARD, kind, max_len, cex, checked)


def assert_same_backward_search(m: Morphism, kind: PatternKind, max_len: int) -> None:
    fast = search_backward(m, kind, max_len)
    naive = naive_search_backward(m, kind, max_len)
    assert fast.checked_by_length == naive.checked_by_length
    assert fast.counterexample == naive.counterexample


CATALOG_BACKWARD_DEPTHS = {"thue_morse": 10, "leech": 6, "f4": 5, "g4": 5}


@pytest.mark.parametrize("kind", list(PatternKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("name", sorted(CATALOG_BACKWARD_DEPTHS))
def test_backward_matches_naive_search_on_catalog(name, kind):
    assert_same_backward_search(catalog(name), kind, CATALOG_BACKWARD_DEPTHS[name])


def naive_search_forward(m: Morphism, kind: PatternKind, max_len: int) -> SearchResult:
    # The former library body: every kind-free word, all first letters.
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    checked = {length: 0 for length in range(1, max_len + 1)}
    cex = None
    for w in enumerate_pattern_free(m.source, kind, max_len):
        checked[len(w)] += 1
        image = m.apply(w)
        occ = find_pattern(image, kind)
        if occ is not None:
            cex = Counterexample(Direction.FORWARD, w, image, occ)
            break
    return SearchResult(Direction.FORWARD, kind, max_len, cex, checked)


def assert_same_forward_search(m: Morphism, kind: PatternKind, max_len: int) -> None:
    fast = search_forward(m, kind, max_len)
    naive = naive_search_forward(m, kind, max_len)
    assert fast.checked_by_length == naive.checked_by_length
    assert fast.counterexample == naive.counterexample


CATALOG_FORWARD_DEPTHS = {"thue_morse": 10, "leech": 6, "f4": 4, "g4": 4}


@pytest.mark.parametrize("kind", list(PatternKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("name", sorted(CATALOG_FORWARD_DEPTHS))
def test_forward_matches_naive_search_on_catalog(name, kind):
    assert_same_forward_search(catalog(name), kind, CATALOG_FORWARD_DEPTHS[name])


@pytest.mark.parametrize("kind", list(PatternKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("name", sorted(CATALOG_FORWARD_DEPTHS))
def test_search_counterexamples_pass_their_own_check(name, kind):
    m = catalog(name)
    for search in (search_forward, search_backward):
        cex = search(m, kind, 4).counterexample
        if cex is not None:
            cex.check(m)
            assert_same_as_validated(cex.word)
            assert_same_as_validated(cex.image)


def test_counterexample_check_names_the_broken_fact():
    m = catalog("thue_morse")
    word = parse_word("00", m.source)
    square = Occurrence(PatternKind.SQUARE, 0, 1)
    # A non-erasing image of a square contains a square, so no backward
    # counterexample exists to pass the check.
    with pytest.raises(ValueError, match="counterexample image is not square-free"):
        Counterexample(Direction.BACKWARD, word, m.apply(word), square).check(m)
    with pytest.raises(ValueError, match="occurrence fails its own re-check"):
        Counterexample(
            Direction.BACKWARD, word, m.apply(word), Occurrence(PatternKind.SQUARE, 1, 1)
        ).check(m)
    with pytest.raises(ValueError, match="does not come from this morphism"):
        Counterexample(Direction.BACKWARD, word, word, square).check(m)
    Counterexample(
        Direction.FORWARD, parse_word("01", m.source), parse_word("0110", m.source),
        Occurrence(PatternKind.SQUARE, 1, 1),
    ).check(m)


def test_searches_build_no_checked_words(word_checks):
    thue_morse, leech = catalog("thue_morse"), catalog("leech")
    word_checks.clear()
    assert search_backward(thue_morse, PatternKind.OVERLAP, 10).counterexample is None
    assert search_forward(leech, PatternKind.SQUARE, 8).counterexample is None
    assert word_checks == []


def test_conditions_and_explain_build_no_checked_words(word_checks):
    morphisms = [catalog(name) for name in catalog_names()]
    m = Morphism.from_strings("012", ["ab", "cd", "cd"], target="abcd")
    cex = certify_forward(m, PatternKind.SQUARE, 3)
    word_checks.clear()
    for check in (check_overlap_def, check_square_def, check_lemma_consequences):
        for catalog_morphism in morphisms:
            check(catalog_morphism)
    assert word_checks == []
    assert "share one image" in explain(m, cex)
    assert word_checks == []


def all_commuting_permutations(m: Morphism) -> list[tuple[int, ...]]:
    # Every letter permutation sigma with h(sigma(a)) = sigma(h(a)), by
    # trying all k! of them.
    images = [im.symbols for im in m.images]
    return [
        sigma
        for sigma in itertools.permutations(range(len(images)))
        if all(
            images[sigma[a]] == tuple(sigma[x] for x in im)
            for a, im in enumerate(images)
        )
    ]


def relabelled_morphism(images: list[list[int]], p) -> Morphism:
    # The morphism with letter a renamed p[a] throughout, over 0, 1, ...
    renamed = [None] * len(images)
    for a, im in enumerate(images):
        renamed[p[a]] = [p[x] for x in im]
    letters = "012345"[:len(images)]
    return Morphism.from_strings(letters, ["".join(letters[x] for x in im) for im in renamed])


@st.composite
def latin_square_morphisms(draw, max_k=6):
    # h(i) = sigma^i(h(0)) for the shift sigma(a) = a + 1 mod k: the draws
    # left as they are take the forward search's 0-word skip. Half of the
    # time they are relabelled by a drawn permutation, so that letter 0 need
    # not be special and the commuting permutations need not hold the shift,
    # and those take the full path unless the relabelling keeps the shift.
    k = draw(st.integers(2, max_k))
    h0 = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=7))
    images = [[(x + i) % k for x in h0] for i in range(k)]
    p = draw(st.permutations(range(k))) if draw(st.booleans()) else range(k)
    return relabelled_morphism(images, p)


@st.composite
def block_morphisms(draw):
    # Disjoint copies of small Latin-square morphisms with one image length,
    # relabelled: letter 0 reaches only its own copy. The shift
    # a -> a + 1 mod k commutes with the result for every relabelling of
    # one-letter copies, for some of alike copies (0 -> 02, 1 -> 13,
    # 2 -> 20, 3 -> 31 is two), and otherwise not: those draws take the
    # forward search's full path.
    size = draw(st.integers(1, 3))
    blocks = draw(st.integers(2, 6 // size))
    n = draw(st.integers(1, 3))
    first = draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))
    images = []
    for j in range(blocks):
        h0 = first if draw(st.booleans()) else draw(
            st.lists(st.integers(0, size - 1), min_size=n, max_size=n)
        )
        images += [[j * size + (x + i) % size for x in h0] for i in range(size)]
    return relabelled_morphism(images, draw(st.permutations(range(len(images)))))


def assert_one_orbit_is_the_shift(m: Morphism) -> bool:
    # _one_orbit holds exactly when the shift a -> a + 1 mod k commutes with
    # m. On at most three letters that is when the commuting permutations
    # map 0 to every letter: every transitive group of permutations of two
    # or three letters holds the shift.
    k = len(m.source)
    commuting = all_commuting_permutations(m)
    expected = tuple((a + 1) % k for a in range(k)) in commuting
    assert certify_module._one_orbit(m) == expected, m
    if k <= 3:
        assert expected == ({sigma[0] for sigma in commuting} == set(range(k))), m
    return expected


@given(st.one_of(latin_square_morphisms(max_k=5), nonerasing_morphisms(), block_morphisms()))
@settings(max_examples=100, deadline=None)
def test_one_orbit_detector_matches_all_permutations(m):
    assert_one_orbit_is_the_shift(m)


def uniform_morphisms(k: int, n: int):
    # Every morphism on k letters whose images all have length n.
    letters = "0123"[:k]
    words = ["".join(w) for w in itertools.product(letters, repeat=n)]
    for images in itertools.product(words, repeat=k):
        yield Morphism.from_strings(letters, images)


def test_one_orbit_detector_matches_all_permutations_exhaustively():
    one_orbit = 0
    for k, n in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1)]:
        for m in uniform_morphisms(k, n):
            one_orbit += assert_one_orbit_is_the_shift(m)
    assert one_orbit == 73


# f4 with letters 1 and 2 swapped: its commuting permutations are the
# relabelled shifts, and the shift a -> a + 1 mod 4 is not among them
SWAPPED_F4 = Morphism.from_strings("0123", [
    "02132130203123120",
    "13023021312032031",
    "21301302120310312",
    "30210213031201203",
])
# two isomorphic blocks, 0, 1 and 2, 3: swapping the blocks commutes with
# it, but the shift does not
TWO_BLOCKS = Morphism.from_strings("0123", ["01", "10", "23", "32"])


def test_one_orbit_detector_examples():
    assert certify_module._one_orbit(catalog("thue_morse"))
    assert certify_module._one_orbit(catalog("leech"))
    assert certify_module._one_orbit(catalog("f4"))
    assert not certify_module._one_orbit(catalog("g4"))
    # symmetric under the swap of 0 and 1, but no permutation moves 2
    assert not certify_module._one_orbit(Morphism.from_strings("012", ["01", "10", "22"]))
    # every letter maps to 1, so only the identity commutes
    assert not certify_module._one_orbit(Morphism.from_strings("01", ["1", "1"]))
    # every letter is a block of its own, and h(a) = aa is h(0) raised by a
    assert certify_module._one_orbit(Morphism.from_strings("0123", ["00", "11", "22", "33"]))
    assert not certify_module._one_orbit(Morphism.from_strings("01", ["01", "10"], target="10"))
    # a Latin-square morphism in which 0 reaches only 0 and 2, and 1 the
    # block 1, 3
    assert certify_module._one_orbit(Morphism.from_strings("0123", ["02", "13", "20", "31"]))
    # two blocks, 0, 1 and 2, 3, at k = 4 and n = 2: isomorphic, then of
    # equal size but not isomorphic, then of different sizes; the shift
    # commutes with none of them
    assert not certify_module._one_orbit(TWO_BLOCKS)
    assert (2, 3, 0, 1) in all_commuting_permutations(TWO_BLOCKS)
    assert not certify_module._one_orbit(Morphism.from_strings("0123", ["01", "10", "32", "23"]))
    assert not certify_module._one_orbit(Morphism.from_strings("0123", ["01", "10", "22", "33"]))
    # image lengths differ, so no permutation moves 0
    assert not certify_module._one_orbit(Morphism.from_strings("01", ["01", "100"]))
    # the swapped f4's commuting permutations together map 0 to every
    # letter, but none is the shift: the counts are f4's, from the full path
    assert not certify_module._one_orbit(SWAPPED_F4)
    assert (1, 2, 3, 0) not in all_commuting_permutations(SWAPPED_F4)
    assert {sigma[0] for sigma in all_commuting_permutations(SWAPPED_F4)} == {0, 1, 2, 3}
    assert search_forward(SWAPPED_F4, PatternKind.OVERLAP, 5).checked_by_length == {
        1: 4, 2: 16, 3: 60, 4: 228, 5: 852
    }


@given(latin_square_morphisms(), st.sampled_from(list(PatternKind)), st.data())
@settings(max_examples=40, deadline=None)
def test_searches_match_naive_on_latin_square_morphisms(m, kind, data):
    k = len(m.source)
    depth = data.draw(st.integers(kind.min_span, {2: 6, 3: 5, 4: 4}.get(k, 3)))
    assert_same_forward_search(m, kind, depth)
    assert_same_backward_search(m, kind, depth)


@pytest.mark.parametrize("kind", list(PatternKind), ids=lambda kind: kind.value)
def test_searches_match_naive_on_all_short_uniform_binary_morphisms(kind):
    # the swap-symmetric ones among these take both one-orbit paths
    for n in (1, 2, 3):
        for m in uniform_morphisms(2, n):
            assert_same_forward_search(m, kind, 6)
            assert_same_backward_search(m, kind, 6)


def counted_scans(monkeypatch) -> list:
    # The words certify passes to find_pattern, in call order.
    scans = []

    def counting(w, kind, **bounds):
        scans.append(w)
        return find_pattern(w, kind, **bounds)

    monkeypatch.setattr(certify_module, "find_pattern", counting)
    return scans


@pytest.mark.parametrize("kind", list(PatternKind), ids=lambda kind: kind.value)
def test_symmetric_forward_search_scans_only_zero_words(monkeypatch, kind):
    # leech is square-free, so no search stops early: the images of the
    # kind-free 0-words are scanned, and every kind-free word is counted.
    m, depth = catalog("leech"), 6
    scans = counted_scans(monkeypatch)
    res = search_forward(m, kind, depth)
    free = list(enumerate_pattern_free(m.source, kind, depth))
    assert scans == [m.apply(w) for w in free if w.symbols[0] == 0]
    assert res.words_checked == len(free)


@pytest.mark.parametrize(
    "kind, depth, stop, counts",
    [
        (PatternKind.CUBE, 6, "02102", {1: 3, 2: 9, 3: 24, 4: 66, 5: 49, 6: 0}),
        (PatternKind.OVERLAP, 5, "0210", {1: 3, 2: 9, 3: 24, 4: 18, 5: 0}),
    ],
    ids=["cube", "overlap"],
)
def test_symmetric_forward_search_that_stops(monkeypatch, kind, depth, stop, counts):
    # The rotation 0 -> 1 -> 2 -> 0 commutes with this morphism. Every word
    # before the counterexample is counted, including the 49 at the stop
    # length, which is no multiple of 3; only the 0-words' images are scanned.
    m = Morphism.from_strings("012", ["01", "12", "20"])
    assert certify_module._one_orbit(m)
    naive = naive_search_forward(m, kind, depth)
    scans = counted_scans(monkeypatch)
    res = search_forward(m, kind, depth)
    assert res.checked_by_length == naive.checked_by_length == counts
    assert res.counterexample == naive.counterexample
    assert res.counterexample.word.text == stop
    free = list(enumerate_pattern_free(m.source, kind, depth))
    walked = free[:free.index(res.counterexample.word) + 1]
    assert scans == [m.apply(w) for w in walked if w.symbols[0] == 0]


@pytest.mark.parametrize(
    "m, words",
    [
        (catalog("g4"), 308),
        (Morphism.from_strings("012", ["01", "10", "22"]), 12),
        (SWAPPED_F4, 308),
        (TWO_BLOCKS, 308),
    ],
    ids=["g4", "swap-and-fixed-letter", "swapped-f4", "two-blocks"],
)
def test_forward_search_without_one_orbit_takes_the_full_path(monkeypatch, m, words):
    # the image of every word the naive search checks is scanned, up to its
    # stop at 22 for the swap with a fixed letter; the swapped f4 and the
    # two blocks commute with letter permutations that together map 0 to
    # every letter, but not with the shift
    naive = naive_search_forward(m, PatternKind.OVERLAP, 4)
    scans = counted_scans(monkeypatch)
    res = search_forward(m, PatternKind.OVERLAP, 4)
    assert len(scans) == res.words_checked > len(m.source)
    assert res.checked_by_length == naive.checked_by_length
    assert res.counterexample == naive.counterexample
    assert res.words_checked == words


# Kind-free words of lengths 1, 2, ...: square-free ternary words (OEIS
# A006156) and overlap-free binary words (OEIS A007777).
SQUARE_FREE_TERNARY = [3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204, 264, 342, 456, 618, 798]
OVERLAP_FREE_BINARY = [
    2, 4, 6, 10, 14, 20, 24, 30, 36, 44, 48, 60,
    60, 62, 72, 82, 88, 96, 112, 120, 120, 136, 148, 164,
]


@pytest.mark.parametrize(
    "name, kind, free",
    [("leech", PatternKind.SQUARE, SQUARE_FREE_TERNARY),
     ("thue_morse", PatternKind.OVERLAP, OVERLAP_FREE_BINARY)],
    ids=["leech-square", "thue_morse-overlap"],
)
def test_backward_counts_every_kind_containing_word_from_the_literature(name, kind, free):
    # k^L words of length L, less the kind-free ones counted in the literature
    m = catalog(name)
    k = len(m.source)
    res = search_backward(m, kind, len(free))
    assert res.counterexample is None
    assert res.checked_by_length == {length: k**length - a for length, a in enumerate(free, 1)}


@pytest.mark.parametrize("name", ["g4", "leech"])
def test_backward_search_scans_every_child_of_a_kind_free_word(monkeypatch, name):
    # symmetric or not, the backward search scans each child of the empty
    # word and of each kind-free word shorter than the depth, and no other
    m, kind, depth = catalog(name), PatternKind.OVERLAP, 4
    scans = counted_scans(monkeypatch)
    search_backward(m, kind, depth)
    shorter = sum(1 for _ in enumerate_pattern_free(m.source, kind, depth - 1))
    assert len(scans) == len(m.source) * (1 + shorter)


@st.composite
def morphisms_onto_separate_alphabets(draw):
    # Source letters and target letters differ, unlike nonerasing_morphisms.
    source = "abc"[:draw(st.integers(1, 3))]
    target = "xyz"[:draw(st.integers(1, 3))]
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        sizes = {"min_size": n, "max_size": n}
    else:
        sizes = {"min_size": 1, "max_size": 4}
    images = [draw(st.text(alphabet=target, **sizes)) for _ in source]
    return Morphism.from_strings(source, images, target=target)


def test_forward_scans_only_occurrences_across_the_first_and_last_tiles(monkeypatch):
    # g4 has no letter symmetry, so every kind-free word's image is scanned,
    # and each scan of a word of length >= 2 skips the spans too short to
    # reach from h(w[0]) into h(w[-1]).
    m, kind, depth = catalog("g4"), PatternKind.OVERLAP, 4
    calls = []

    def recording(w, kind, **bounds):
        calls.append((w, bounds))
        return find_pattern(w, kind, **bounds)

    monkeypatch.setattr(certify_module, "find_pattern", recording)
    assert search_forward(m, kind, depth).counterexample is None
    free = list(enumerate_pattern_free(m.source, kind, depth))
    assert [image for image, _ in calls] == [m.apply(w) for w in free]
    two_or_more = [(w, bounds) for w, (_, bounds) in zip(free, calls) if len(w) >= 2]
    assert len(two_or_more) == len(free) - 4
    for w, bounds in two_or_more:
        first = len(m.images[w.symbols[0]])
        last = len(m.images[w.symbols[-1]])
        assert bounds == {"min_span": len(m.apply(w)) - first - last + 2}


@given(morphisms_onto_separate_alphabets(), st.sampled_from(list(PatternKind)), st.data())
@settings(max_examples=120, deadline=None)
def test_searches_match_naive_on_random_morphisms(m, kind, data):
    # non-uniform images and separate targets, in both directions
    depth = data.draw(st.integers(kind.min_span, 6))
    assert_same_forward_search(m, kind, depth)
    assert_same_backward_search(m, kind, depth)


@given(morphisms_onto_separate_alphabets(), st.sampled_from(list(PatternKind)))
@settings(max_examples=60, deadline=None)
def test_backward_confirms_each_image_occurrence_without_a_scan(m, kind):
    # The image of the word's own occurrence is an occurrence in the image,
    # so no image over the target alphabet ever needs a full scan. Only the
    # children of kind-free words (the empty word included) are scanned,
    # and only the images of those that contain the kind are built.
    scanned, applied = [], []
    apply = Morphism.apply

    def scan_source_words_only(w, kind):
        assert w.alphabet == m.source, f"full scan of image {w.text}"
        scanned.append(w)
        return find_pattern(w, kind)

    def recording(self, w):
        applied.append(w)
        return apply(self, w)

    with mock.patch.object(certify_module, "find_pattern", scan_source_words_only), \
            mock.patch.object(Morphism, "apply", recording):
        search_backward(m, kind, 6)
    kind_free_parents = 1 + sum(1 for _ in enumerate_pattern_free(m.source, kind, 5))
    assert len(scanned) == len(m.source) * kind_free_parents
    assert applied == [w for w in scanned if find_pattern(w, kind) is not None]


def test_backward_falls_back_to_a_full_image_scan(monkeypatch):
    # A valid morphism always confirms the inherited occurrence; refusing
    # every confirmation sends each checked word through the full scan.
    monkeypatch.setattr(Occurrence, "matches", lambda self, word: False)
    for kind in PatternKind:
        for name, depth in (("thue_morse", 8), ("leech", 5), ("g4", 4)):
            assert_same_backward_search(catalog(name), kind, depth)
        assert_same_backward_search(
            Morphism.from_strings("ab", ["xy", "xyy"], target="xy"), kind, 6
        )


@pytest.mark.parametrize(
    "name, kind, depth, fresh, containing",
    [("leech", PatternKind.SQUARE, 6, 99, 981), ("thue_morse", PatternKind.OVERLAP, 8, 52, 400),
     ("g4", PatternKind.OVERLAP, 4, 16, 32)],
    ids=["leech-square", "thue_morse-overlap", "g4-overlap"],
)
def test_backward_search_builds_only_the_images_of_fresh_words(
    monkeypatch, name, kind, depth, fresh, containing
):
    # Every kind-containing word is counted, symmetric morphism or not.
    # Only a fresh word, one whose parent w[:-1] is kind-free, has its
    # image built: any other inherits an occurrence in its image from its
    # parent's image.
    m = catalog(name)
    naive = naive_search_backward(m, kind, depth)
    words = [
        Word(t, m.source)
        for length in range(1, depth + 1)
        for t in itertools.product(range(len(m.source)), repeat=length)
    ]
    contains = [w for w in words if find_pattern(w, kind) is not None]
    applied = []
    apply = Morphism.apply

    def recording(self, w):
        applied.append(w)
        return apply(self, w)

    monkeypatch.setattr(Morphism, "apply", recording)
    res = search_backward(m, kind, depth)
    assert applied == [w for w in contains if find_pattern(w[:-1], kind) is None]
    assert (len(applied), len(contains)) == (fresh, containing)
    assert res.checked_by_length == naive.checked_by_length


ROTATION = Morphism.from_strings("012", ["01", "12", "20"])
UNEVEN = Morphism.from_strings("ab", ["xy", "xyy"], target="xy")


@pytest.mark.parametrize(
    "m, blind, counts",
    [
        (ROTATION, "1010", {1: 0, 2: 3, 3: 15, 4: 25, 5: 0, 6: 0}),
        (UNEVEN, "abab", {1: 0, 2: 2, 3: 6, 4: 6, 5: 0, 6: 0}),
        (ROTATION, "01011", None),
        (UNEVEN, "ababb", None),
    ],
    ids=["rotation-fresh", "uneven-fresh", "rotation-inherited", "uneven-inherited"],
)
def test_backward_search_stops_where_a_fresh_image_scan_misses(monkeypatch, m, blind, counts):
    # Refuse every confirmation and make the image scan miss on one image.
    # On a fresh word's image the search stops where the naive search does,
    # with the word's minimal occurrence; 1010 does not start with 0, and
    # the rotation 0 -> 1 -> 2 -> 0 commutes with its morphism. An inherited
    # word's image (01011 and ababb inherit the square of their parents,
    # counts None) is never built, so no search stops there.
    unpatched = naive_search_backward(m, PatternKind.SQUARE, 6)
    word = parse_word(blind, m.source)
    image = m.apply(word)
    scan = find_pattern

    def blind_on_image(w, kind):
        return None if w == image else scan(w, kind)

    monkeypatch.setattr(Occurrence, "matches", lambda self, word: False)
    monkeypatch.setattr(certify_module, "find_pattern", blind_on_image)
    monkeypatch.setattr(sys.modules[__name__], "find_pattern", blind_on_image)
    fast = search_backward(m, PatternKind.SQUARE, 6)
    if counts is None:
        assert scan(word[:-1], PatternKind.SQUARE) is not None
        assert fast.counterexample is None
        assert fast.checked_by_length == unpatched.checked_by_length
        return
    naive = naive_search_backward(m, PatternKind.SQUARE, 6)
    assert fast.counterexample == naive.counterexample == Counterexample(
        Direction.BACKWARD, word, image, Occurrence(PatternKind.SQUARE, 0, 2)
    )
    assert fast.checked_by_length == naive.checked_by_length == counts


@given(morphisms_onto_separate_alphabets(), st.sampled_from(list(PatternKind)), st.data())
@settings(max_examples=60, deadline=None)
def test_backward_search_stops_where_a_drawn_fresh_image_scan_misses(m, kind, data):
    # The rank arithmetic of the stop point, on any fresh word at any depth.
    # Refuse every confirmation and make the image scan miss on the image of
    # one fresh word. The word is drawn among those whose image is no
    # inherited word's image: the naive search scans inherited words'
    # images too, and a miss there (impossible for the real scan) would
    # stop it where the fast search, which never builds them, goes on.
    depth = data.draw(st.integers(kind.min_span, 6))
    fresh, inherited = [], set()
    for length in range(1, depth + 1):
        for t in itertools.product(range(len(m.source)), repeat=length):
            w = Word(t, m.source)
            if find_pattern(w, kind) is not None:
                if find_pattern(w[:-1], kind) is None:
                    fresh.append(w)
                else:
                    inherited.add(m.apply(w))
    blindable = [w for w in fresh if m.apply(w) not in inherited]
    assume(blindable)
    image = m.apply(data.draw(st.sampled_from(blindable)))
    scan = find_pattern

    def blind_on_image(w, kind):
        return None if w == image else scan(w, kind)

    with mock.patch.object(Occurrence, "matches", lambda self, word: False), \
            mock.patch.object(certify_module, "find_pattern", blind_on_image), \
            mock.patch.object(sys.modules[__name__], "find_pattern", blind_on_image):
        fast = search_backward(m, kind, depth)
        naive = naive_search_backward(m, kind, depth)
    assert fast.counterexample is not None
    assert fast.counterexample == naive.counterexample
    assert fast.checked_by_length == naive.checked_by_length


@given(block_morphisms(), st.sampled_from(list(PatternKind)), st.data())
@settings(max_examples=100, deadline=None)
def test_searches_match_naive_on_block_morphisms(m, kind, data):
    # mostly copies the shift does not commute with: the forward search's
    # full path, its 0-word skip for the others, and the backward search
    k = len(m.source)
    depth = data.draw(st.integers(kind.min_span, {2: 6, 3: 5, 4: 4}.get(k, 3)))
    assert_same_forward_search(m, kind, depth)
    assert_same_backward_search(m, kind, depth)


def test_residues_examples_and_validation():
    assert residues(3, 4, 13) == (3, 7, 11)
    assert residues(0, 13, 13) == (0, 0, 0)
    assert residues(5, 9, 13) == (5, 1, 10)
    with pytest.raises(ValueError):
        residues(0, 0, 13)
    with pytest.raises(ValueError):
        residues(0, 3, 0)
    with pytest.raises(ValueError):
        residues(-1, 3, 5)


@given(st.integers(0, 400), st.integers(1, 200), st.integers(1, 50))
def test_residue_identity(start, period, n):
    r0, r1, r2 = residues(start, period, n)
    assert r2 == (2 * r1 - r0) % n
    assert all(0 <= r < n for r in (r0, r1, r2))


def test_classify_alignment_examples():
    d = classify_alignment(Occurrence(PatternKind.OVERLAP, 3, 13), 13)
    assert d.case_label is AlignmentCase.ALIGNED
    assert (d.r0, d.r1, d.r2) == (3, 3, 3)
    assert d.tile_span == 3

    d = classify_alignment(Occurrence(PatternKind.OVERLAP, 10, 4), 13)
    assert d.case_label is AlignmentCase.R1_LT_R2_LT_R0
    assert (d.r0, d.r1, d.r2) == (10, 1, 5)
    assert d.tile_span == 2

    d = classify_alignment(Occurrence(PatternKind.OVERLAP, 0, 20), 13)
    assert d.tile_span == 4
    assert (d.r0, d.r1, d.r2) == (0, 7, 1)
    assert d.case_label is AlignmentCase.R0_LE_R2_LT_R1

    d = classify_alignment(Occurrence(PatternKind.OVERLAP, 0, 40), 13)
    assert d.tile_span > 4
    assert d.case_label is AlignmentCase.LONG_R0_LT_R1


def test_classify_alignment_rejects_non_overlaps():
    with pytest.raises(ValueError):
        classify_alignment(Occurrence(PatternKind.SQUARE, 0, 4), 13)


def _label_consistent(d) -> bool:
    r0, r1, r2 = d.r0, d.r1, d.r2
    label = d.case_label
    if label is AlignmentCase.ALIGNED:
        return r0 == r1 == r2
    if label is AlignmentCase.R0_LE_R2_LT_R1:
        return r0 <= r2 < r1
    if label is AlignmentCase.R2_LT_R0_LT_R1:
        return r2 < r0 < r1
    if label is AlignmentCase.R1_LT_R0_LE_R2:
        return r1 < r0 <= r2
    if label is AlignmentCase.R1_LT_R2_LT_R0:
        return r1 < r2 < r0
    if label is AlignmentCase.LONG_R0_LT_R1:
        return r0 < r1
    return r1 < r0


def test_classify_alignment_sweep():
    # exactly-four-tile misaligned occurrences always land in one of the four
    # residue-order cases; wider ones always get a long label
    four_tile_seen = 0
    for n in range(2, 10):
        for p in range(1, 4 * n):
            for start in range(0, 3 * n):
                occ = Occurrence(PatternKind.OVERLAP, start, p)
                d = classify_alignment(occ, n)
                assert _label_consistent(d), (n, p, start, d)
                if p % n == 0:
                    assert d.case_label is AlignmentCase.ALIGNED
                elif d.tile_span == 4:
                    assert d.case_label in FOUR_TILE_CASES, (n, p, start, d)
                    four_tile_seen += 1
                elif d.tile_span > 4:
                    assert d.case_label in LONG_CASES, (n, p, start, d)
    assert four_tile_seen > 0


# -- explain -----------------------------------------------------------------


def test_explain_validates_its_input():
    m = Morphism.from_strings("01", ["00", "11"])
    word = parse_word("00", m.source)
    occ = Occurrence(PatternKind.SQUARE, 0, 1)
    backward = Counterexample(Direction.BACKWARD, word, m.apply(word), occ)
    with pytest.raises(ValueError):
        explain(m, backward)
    wrong_image = Counterexample(Direction.FORWARD, word, parse_word("0000000", m.source), occ)
    with pytest.raises(ValueError):
        explain(m, wrong_image)
    bad_occ = Counterexample(
        Direction.FORWARD, word, m.apply(word), Occurrence(PatternKind.SQUARE, 3, 2)
    )
    with pytest.raises(ValueError):
        explain(m, bad_occ)
    cube = Counterexample(
        Direction.FORWARD, word, m.apply(word), Occurrence(PatternKind.CUBE, 0, 1)
    )
    with pytest.raises(ValueError, match="overlap and square counterexamples only"):
        explain(m, cube)


def test_explain_rejects_a_word_that_contains_the_pattern():
    # 00 is a square, so its square image 0101 is no forward counterexample
    m = catalog("thue_morse")
    word = parse_word("00", m.source)
    cex = Counterexample(
        Direction.FORWARD, word, m.apply(word), Occurrence(PatternKind.SQUARE, 0, 2)
    )
    with pytest.raises(ValueError, match="counterexample word is not square-free"):
        explain(m, cex)


def test_explain_aligned_square_counterexample():
    m = Morphism.from_strings("012", ["ab", "cd", "cd"], target="abcd")
    cex = certify_forward(m, PatternKind.SQUARE, 3)
    assert cex is not None
    assert cex.word.text == "12"
    text = explain(m, cex)
    assert "aligned" in text
    assert "share one image" in text
    assert "'1'" in text and "'2'" in text
    assert text == "\n".join([
        "forward square counterexample",
        "  word:  12 (square-free, length 2)",
        "  image: cdcd (length 4)",
        "  square at start 0, period 2: factor cdcd",
        "  tiles are the 2-letter images; occurrence touches tiles 0..1 (2 of them)",
        "  start-mark residues mod 2: r0=0 r1=0; aligned",
        "  aligned: the period 2 is 1 whole tile(s)",
        "  repeated marks: letter 'c' opens both halves (image positions 0 and 2),"
        " letter 'd' closes them (positions 1 and 3)",
        "  mark tiles and their source letters: tile 0 <- '1', tile 1 <- '2'",
        "  tile contents repeat every 1 tile(s); a preimage doing the same over"
        " tiles 0..1 would read 11",
        "  the word reads 12 instead; the image repetition survives because"
        " distinct letters map to matching content: letters '2' and '1' share one image",
    ])


def test_explain_aligned_overlap_counterexample():
    m = Morphism.from_strings("01", ["ab", "ab"], target="ab")
    cex = certify_forward(m, PatternKind.OVERLAP, 3)
    assert cex is not None
    assert cex.word.text == "001"
    assert cex.occurrence == Occurrence(PatternKind.OVERLAP, 0, 2)
    text = explain(m, cex)
    assert "case aligned" in text
    assert "r0=0 r1=0 r2=0" in text
    assert "share one image" in text
    assert text == "\n".join([
        "forward overlap counterexample",
        "  word:  001 (overlap-free, length 3)",
        "  image: ababab (length 6)",
        "  overlap at start 0, period 2: factor ababa",
        "  tiles are the 2-letter images; occurrence touches tiles 0..2 (3 of them)",
        "  mark residues mod 2: r0=0 r1=0 r2=0; case aligned",
        "  aligned: the period 2 is 1 whole tile(s)",
        "  mark tiles and their source letters: tile 0 <- '0', tile 1 <- '0', tile 2 <- '1'",
        "  tile contents repeat every 1 tile(s); a preimage doing the same over"
        " tiles 0..2 would read 000",
        "  the word reads 001 instead; the image repetition survives because"
        " distinct letters map to matching content: letters '1' and '0' share one image",
    ])


def test_explain_short_span_points_at_triples():
    m = Morphism.from_strings("01", ["010", "101"])
    cex = certify_forward(m, PatternKind.OVERLAP, 4)
    assert cex is not None
    text = explain(m, cex)
    assert "fits inside the image of the word factor '01'" in text
    assert "overlap-triples" in text
    assert text.splitlines() == [
        "forward overlap counterexample",
        "  word:  01 (overlap-free, length 2)",
        "  image: 010101 (length 6)",
        "  overlap at start 0, period 2: factor 01010",
        "  tiles are the 3-letter images; occurrence touches tiles 0..1 (2 of them)",
        "  mark residues mod 3: r0=0 r1=2 r2=1; case r0<=r2<r1",
        "  the occurrence fits inside the image of the word factor '01'"
        " (positions 0..1, length 2)",
        "  an overlap inside the image of at most three letters is exactly what the"
        " overlap-triples condition forbids; its report carries the offending triple",
    ]


def test_explain_short_square_golden_text():
    m = catalog("thue_morse")
    cex = certify_forward(m, PatternKind.SQUARE, 3)
    assert cex is not None
    assert explain(m, cex).splitlines() == [
        "forward square counterexample",
        "  word:  01 (square-free, length 2)",
        "  image: 0110 (length 4)",
        "  square at start 1, period 1: factor 11",
        "  tiles are the 2-letter images; occurrence touches tiles 0..1 (2 of them)",
        "  start-mark residues mod 2: r0=1 r1=0; misaligned",
        "  the occurrence fits inside the image of the word factor '01'"
        " (positions 0..1, length 2)",
        "  a square inside the image of at most three letters is exactly what the"
        " square-triples condition forbids; its report carries the offending triple",
    ]


def test_explain_misaligned_border_counterexample():
    # image of 0012 is bbabbaabbaab, whose minimal overlap (start 2, period 4)
    # touches four tiles and is misaligned (4 % 3 == 1)
    m = Morphism.from_strings("012", ["bba", "abb", "aab"], target="ab")
    word = parse_word("0012", m.source)
    image = m.apply(word)
    assert image.text == "bbabbaabbaab"
    occ = Occurrence(PatternKind.OVERLAP, 2, 4)
    assert occ.matches(image)
    assert find_pattern(image, PatternKind.OVERLAP) == occ
    cex = Counterexample(Direction.FORWARD, word, image, occ)
    text = explain(m, cex)
    assert "4 of them" in text
    assert "shared border V=a" in text
    assert "border condition violated" in text
    assert (
        "    border condition violated: S is a suffix of image('1'); U is a prefix of image('0')\n"
        in text
    )


def test_explain_border_golden_text():
    # two short borders with their offenders, and one border longer than
    # floor(n/2) that the border condition does not cover
    m = Morphism.from_strings("012", ["bba", "abb", "aab"], target="ab")
    word = parse_word("0012", m.source)
    cex = Counterexample(
        Direction.FORWARD, word, m.apply(word), Occurrence(PatternKind.OVERLAP, 2, 4)
    )
    assert explain(m, cex).splitlines() == [
        "forward overlap counterexample",
        "  word:  0012 (overlap-free, length 4)",
        "  image: bbabbaabbaab (length 12)",
        "  overlap at start 2, period 4: factor abbaabbaa",
        "  tiles are the 3-letter images; occurrence touches tiles 0..3 (4 of them)",
        "  mark residues mod 3: r0=2 r1=0 r2=1; case r1<r2<r0",
        "  shared border V=a (tile suffix of length 1 ending at boundary 3):"
        " image('0') = S·V with S=bb, image('1') = V·U with U=bb",
        "    border condition violated: S is a suffix of image('1'); U is a prefix of image('0')",
        "  shared border V=bb between image('1') and image('0') (tile prefix of length 2"
        " starting at boundary 3) is longer than floor(n/2)=1;"
        " outside the border condition's reach",
        "  shared border V=a (tile suffix of length 1 ending at boundary 6):"
        " image('0') = S·V with S=bb, image('2') = V·U with U=ab",
        "    border condition violated: S is a suffix of image('1'); U is a prefix of image('1')",
    ]


def test_explain_misaligned_square_golden_text():
    # image of 0120 is bbaabbaabbba; the square at start 2, period 4 touches
    # four tiles and is misaligned (4 % 3 == 1)
    m = Morphism.from_strings("012", ["bba", "abb", "aab"], target="ab")
    word = parse_word("0120", m.source)
    cex = Counterexample(
        Direction.FORWARD, word, m.apply(word), Occurrence(PatternKind.SQUARE, 2, 4)
    )
    assert explain(m, cex).splitlines() == [
        "forward square counterexample",
        "  word:  0120 (square-free, length 4)",
        "  image: bbaabbaabbba (length 12)",
        "  square at start 2, period 4: factor aabbaabb",
        "  tiles are the 3-letter images; occurrence touches tiles 0..3 (4 of them)",
        "  start-mark residues mod 3: r0=2 r1=0; misaligned",
        "  shared border V=a (tile suffix of length 1 ending at boundary 3):"
        " image('0') = S·V with S=bb, image('2') = V·U with U=ab",
        "    border condition violated: S is a suffix of image('1'); U is a prefix of image('1')",
        "  shared border V=ab between image('2') and image('1') (tile prefix of length 2"
        " starting at boundary 3) is longer than floor(n/2)=1;"
        " outside the border condition's reach",
    ]


_BORDER_LINE = re.compile(r"  shared border V=(\w+) \(.*\): image\('(.)'\) = S·V .* image\('(.)'\) = V·U")
_HIT = re.compile(r"(S is a suffix|U is a prefix) of image\('(.)'\)")


def _check_border_lines(m: Morphism, word: Word, occ: Occurrence, witnesses: tuple) -> int:
    # every border explain lists with |V| <= floor(n/2) is violated and names
    # exactly the checker's witnesses for that (a, b, V), in the checker's
    # order; an explanation that lists borders lists at least one that short.
    # Returns the number of short borders listed.
    side = {"S is a suffix": "stem-suffix", "U is a prefix": "tail-prefix"}
    lines = explain(m, Counterexample(Direction.FORWARD, word, m.apply(word), occ)).splitlines()
    short_here = 0
    for line, nxt in zip(lines, lines[1:]):
        match = _BORDER_LINE.match(line)
        if match is None:
            continue
        v, a, b = match.groups()
        short_here += 1
        hits = [(side[s], c) for s, c in _HIT.findall(nxt)]
        assert hits, (word.text, occ, line, nxt)
        assert hits == [
            (w.side, w.offender)
            for w in witnesses
            if (w.a, w.b, w.border.text) == (a, b, v)
        ], (word.text, line, nxt)
    if any(line.startswith("  shared border") for line in lines):
        assert short_here > 0, (word.text, occ)
    return short_here


def test_explain_border_hits_follow_checker_witnesses():
    m = Morphism.from_strings("012", ["bba", "abb", "aab"], target="ab")
    witnesses = check_border_condition(m).witnesses
    borders_seen = 0
    for word in enumerate_pattern_free(m.source, PatternKind.OVERLAP, 5):
        occ = find_pattern(m.apply(word), PatternKind.OVERLAP)
        if occ is not None:
            borders_seen += _check_border_lines(m, word, occ, witnesses)
    assert borders_seen > 0


def test_explain_border_lines_hold_on_random_uniform_morphisms():
    # every misaligned square or overlap over four or more tiles, in the
    # images of sampled kind-free words under seeded random uniform morphisms
    rng = random.Random(2010)
    kinds = (PatternKind.OVERLAP, PatternKind.SQUARE)
    pools = {
        (k, kind): [
            w.symbols
            for w in enumerate_pattern_free(Alphabet.from_string("0123"[:k]), kind, 6)
            if len(w) >= 4
        ]
        for k in (2, 3, 4)
        for kind in kinds
    }
    explained = borders_seen = 0
    for _ in range(400):
        k, n = rng.randint(2, 4), rng.randint(2, 8)
        letters = "0123"[:k]
        m = Morphism.from_strings(
            letters, ["".join(rng.choices(letters, k=n)) for _ in letters]
        )
        witnesses = check_border_condition(m).witnesses
        for kind in kinds:
            if not pools[k, kind]:
                continue  # binary square-free words stop at length 3
            for _ in range(24):
                word = Word(rng.choice(pools[k, kind]), m.source)
                sym = m.apply(word).symbols
                for p in range(1, len(sym) // 2 + 1):
                    if p % n == 0:
                        continue
                    span = kind.span(p)
                    for i in range(len(sym) - span + 1):
                        four_tiles = (i + span - 1) // n - i // n >= 3
                        if four_tiles and sym[i:i + span - p] == sym[i + p:i + span]:
                            occ = Occurrence(kind, i, p)
                            explained += 1
                            borders_seen += _check_border_lines(m, word, occ, witnesses)
    assert explained > 600 and borders_seen > 1200, (explained, borders_seen)


def test_explain_non_uniform_positions_only():
    m = Morphism.from_strings("01", ["0", "11"])
    cex = certify_forward(m, PatternKind.SQUARE, 2)
    assert cex is not None
    assert cex.word.text == "1"
    text = explain(m, cex)
    assert "not uniform" in text
    assert "square at start 0" in text
    assert text.splitlines() == [
        "forward square counterexample",
        "  word:  1 (square-free, length 1)",
        "  image: 11 (length 2)",
        "  square at start 0, period 1: factor 11",
        "  morphism is not uniform: positions only, no tile arithmetic",
    ]
