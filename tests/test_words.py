from __future__ import annotations

import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordmorph import (
    Alphabet,
    Occurrence,
    ParseError,
    PatternKind,
    Word,
    catalog,
    count_factor,
    enumerate_pattern_free,
    extend_check,
    find_pattern,
    iterate_prefix,
    parse_word,
)
from wordmorph.words import _match_at

BIN = Alphabet.from_string("01")
TERN = Alphabet.from_string("012")
LATIN = Alphabet.from_string("abcdefghijklmnopqrstuvwxyz")


def naive_find_pattern(word: Word, kind: PatternKind) -> Occurrence | None:
    # The former library body: a quadratic scan over (period, start).
    sym = word.symbols
    n = len(sym)
    p = 1
    while kind.span(p) <= n:
        span = kind.span(p)
        for i in range(n - span + 1):
            if _match_at(sym, kind, i, p):
                return Occurrence(kind, i, p)
        p += 1
    return None


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("ab",))
    with pytest.raises(ValueError):
        Alphabet(("0", "0"))
    with pytest.raises(ValueError):
        Alphabet((" ",))
    assert len(BIN) == 2
    assert "1" in BIN and "2" not in BIN
    assert BIN.index("1") == 1
    with pytest.raises(ParseError):
        BIN.index("2")


def test_parse_word_roundtrip():
    word = parse_word("0110", BIN)
    assert word.symbols == (0, 1, 1, 0)
    assert word.text == "0110" == str(word)
    assert len(word) == 4
    assert word.letter(1) == "1"
    assert word[2] == 1
    assert word[1:3].text == "11"
    assert BIN.word("0110") == word


def test_parse_word_rejects_foreign_characters():
    with pytest.raises(ParseError) as exc_info:
        parse_word("012a", TERN)
    assert "'a'" in str(exc_info.value)
    assert "position 3" in str(exc_info.value)
    assert exc_info.value.position == 3


def test_word_equality_includes_alphabet():
    assert parse_word("01", BIN) != parse_word("01", TERN)
    assert parse_word("01", BIN) == parse_word("01", Alphabet.from_string("01"))
    assert hash(parse_word("01", BIN)) == hash(parse_word("01", Alphabet.from_string("01")))


def test_word_concat():
    u = parse_word("01", BIN)
    v = parse_word("10", BIN)
    assert u.concat(v).text == "0110"
    with pytest.raises(ValueError):
        u.concat(parse_word("0", TERN))


def test_word_rejects_out_of_range_symbols():
    with pytest.raises(ValueError):
        Word((0, 2), BIN)
    with pytest.raises(ValueError):
        Word((-1,), BIN)


def test_count_factor():
    word = parse_word("abaababa", LATIN)
    assert count_factor(word, parse_word("aba", LATIN)) == 3
    assert count_factor(word, parse_word("a", LATIN)) == 5
    assert count_factor(word, parse_word("abaababa", LATIN)) == 1
    assert count_factor(word, parse_word("z", LATIN)) == 0
    with pytest.raises(ValueError):
        count_factor(word, parse_word("", LATIN))
    with pytest.raises(ValueError):
        count_factor(word, parse_word("0", BIN))


def test_find_pattern_examples():
    word = parse_word("alfalfa", LATIN)
    occ = find_pattern(word, PatternKind.OVERLAP)
    assert occ == Occurrence(PatternKind.OVERLAP, 0, 3)
    assert occ.span == 7
    assert occ.factor(word).text == "alfalfa"
    assert occ.matches(word)

    # smallest span wins: the length-2 square 00 beats the longer 010010
    word = parse_word("010010", BIN)
    assert find_pattern(word, PatternKind.SQUARE) == Occurrence(PatternKind.SQUARE, 2, 1)
    assert find_pattern(word, PatternKind.OVERLAP) is None

    assert find_pattern(parse_word("0110", BIN), PatternKind.OVERLAP) is None
    assert find_pattern(parse_word("", BIN), PatternKind.SQUARE) is None
    assert find_pattern(parse_word("000", BIN), PatternKind.CUBE) == Occurrence(
        PatternKind.CUBE, 0, 1
    )
    assert find_pattern(parse_word("010101", BIN), PatternKind.OVERLAP) == Occurrence(
        PatternKind.OVERLAP, 0, 2
    )


def test_find_pattern_start_breaks_span_ties():
    word = parse_word("011000", BIN)  # period-1 squares at 1, 3 and 4
    assert find_pattern(word, PatternKind.SQUARE) == Occurrence(PatternKind.SQUARE, 1, 1)


def test_occurrence_rechecks_claims():
    word = parse_word("0110", BIN)
    assert Occurrence(PatternKind.SQUARE, 1, 1).matches(word)
    assert not Occurrence(PatternKind.SQUARE, 1, 1).matches(parse_word("010", BIN))
    assert not Occurrence(PatternKind.SQUARE, 3, 1).matches(word)  # runs off the end
    assert not Occurrence(PatternKind.SQUARE, 0, 0).matches(word)
    with pytest.raises(ValueError):
        Occurrence(PatternKind.SQUARE, 3, 1).factor(word)


def test_pattern_kind_spans():
    assert PatternKind.SQUARE.span(3) == 6
    assert PatternKind.OVERLAP.span(3) == 7
    assert PatternKind.CUBE.span(3) == 9
    assert [k.min_span for k in PatternKind] == [2, 3, 3]


def test_extend_check_wants_the_occurrence_at_the_very_end():
    assert not extend_check(parse_word("01101", BIN), PatternKind.OVERLAP)
    assert extend_check(parse_word("011011", BIN), PatternKind.SQUARE)
    assert extend_check(parse_word("00", BIN), PatternKind.SQUARE)
    # the square 00 sits at the start, not at the end
    assert not extend_check(parse_word("001", BIN), PatternKind.SQUARE)
    assert not extend_check(parse_word("", BIN), PatternKind.SQUARE)
    assert extend_check(parse_word("01010", BIN), PatternKind.OVERLAP)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=12), st.sampled_from(list(PatternKind)))
def test_extend_check_agrees_with_suffix_scan(bits, kind):
    word = Word(tuple(bits), BIN)
    expected = any(
        Occurrence(kind, len(bits) - kind.span(p), p).matches(word)
        for p in range(1, len(bits) + 1)
        if kind.span(p) <= len(bits)
    )
    assert extend_check(word, kind) == expected


@given(st.lists(st.integers(0, 2), max_size=14), st.sampled_from(list(PatternKind)))
@settings(max_examples=150)
def test_find_pattern_witness_is_minimal_and_valid(symbols, kind):
    word = Word(tuple(symbols), TERN)
    occ = find_pattern(word, kind)
    if occ is None:
        for p in range(1, len(word) + 1):
            if kind.span(p) > len(word):
                break
            for i in range(len(word) - kind.span(p) + 1):
                assert not Occurrence(kind, i, p).matches(word)
    else:
        assert occ.matches(word)
        # nothing with a smaller span, nothing earlier with the same span
        for p in range(1, occ.period):
            for i in range(len(word) - kind.span(p) + 1):
                assert not Occurrence(kind, i, p).matches(word)
        for i in range(occ.start):
            assert not Occurrence(kind, i, occ.period).matches(word)


@pytest.mark.parametrize("k, max_len", [(1, 8), (2, 14), (3, 9)])
def test_find_pattern_matches_naive_scan_exhaustively(k, max_len):
    alphabet = Alphabet.from_string("012"[:k])
    for length in range(max_len + 1):
        for t in itertools.product(range(k), repeat=length):
            word = Word(t, alphabet)
            for kind in PatternKind:
                assert find_pattern(word, kind) == naive_find_pattern(word, kind), (t, kind)


@st.composite
def words_over_small_alphabets(draw):
    # Up to five letters, of which the word may use only some.
    alphabet = Alphabet.from_string("abcde"[:draw(st.integers(1, 5))])
    used = draw(st.lists(st.integers(0, len(alphabet) - 1), min_size=1, unique=True))
    return Word(tuple(draw(st.lists(st.sampled_from(used), max_size=200))), alphabet)


@given(words_over_small_alphabets(), st.sampled_from(list(PatternKind)))
@settings(max_examples=200, deadline=None)
def test_find_pattern_matches_naive_scan_on_random_words(word, kind):
    assert find_pattern(word, kind) == naive_find_pattern(word, kind)


# Planted starts at which the planted occurrence is the minimal witness. The
# periods are not powers of two, so the last shift-AND step is a short one;
# overlap-free binary words have squares only of periods 2^k and 3 * 2^k.
@pytest.mark.parametrize(
    "name, kind, n, period, start",
    [
        ("thue_morse", PatternKind.OVERLAP, 250, 24, 192),
        ("thue_morse", PatternKind.OVERLAP, 1000, 96, 768),
        ("leech", PatternKind.SQUARE, 250, 26, 169),
        ("leech", PatternKind.SQUARE, 1000, 104, 676),
        ("leech", PatternKind.CUBE, 250, 25, 172),
        ("leech", PatternKind.CUBE, 1000, 100, 697),
    ],
)
def test_find_pattern_matches_naive_scan_on_late_hits(name, kind, n, period, start):
    m = catalog(name)
    prefix = iterate_prefix(m, m.source.letters[0], n)
    assert find_pattern(prefix, kind) is None
    assert naive_find_pattern(prefix, kind) is None
    # copy each letter from one period back, so that an occurrence of the
    # period starts at start
    sym = list(prefix.symbols)
    for j in range(start + period, start + kind.span(period)):
        sym[j] = sym[j - period]
    word = Word(tuple(sym), prefix.alphabet)
    assert find_pattern(word, kind) == Occurrence(kind, start, period)
    assert naive_find_pattern(word, kind) == Occurrence(kind, start, period)


def test_find_pattern_edge_cases():
    for kind in PatternKind:
        assert find_pattern(parse_word("", BIN), kind) is None
    # letters the word never uses change nothing
    assert find_pattern(parse_word("zz", LATIN), PatternKind.SQUARE) == Occurrence(
        PatternKind.SQUARE, 0, 1
    )
    assert find_pattern(parse_word("abcab", LATIN), PatternKind.SQUARE) is None
    assert find_pattern(parse_word("abcabc", LATIN), PatternKind.SQUARE) == Occurrence(
        PatternKind.SQUARE, 0, 3
    )
    assert find_pattern(parse_word("yxzxzxy", LATIN), PatternKind.OVERLAP) == Occurrence(
        PatternKind.OVERLAP, 1, 2
    )
    # symbol indices far beyond a byte
    wide = Alphabet(tuple(chr(0x4E00 + i) for i in range(400)))
    word = Word((399, 300, 7, 300, 7, 0), wide)
    assert find_pattern(word, PatternKind.SQUARE) == Occurrence(PatternKind.SQUARE, 1, 2)
    assert find_pattern(word, PatternKind.OVERLAP) is None


def test_find_pattern_is_deterministic():
    word = parse_word("0110100110010110", BIN)
    for kind in PatternKind:
        assert find_pattern(word, kind) == find_pattern(word, kind)


def test_enumerate_order():
    words = [x.text for x in enumerate_pattern_free(BIN, PatternKind.OVERLAP, 3)]
    assert words == [
        "0", "1",
        "00", "01", "10", "11",
        "001", "010", "011", "100", "101", "110",
    ]


def test_enumerate_counts_frozen():
    by_len = collections.Counter(
        len(w) for w in enumerate_pattern_free(BIN, PatternKind.OVERLAP, 10)
    )
    assert [by_len[i] for i in range(1, 11)] == [2, 4, 6, 10, 14, 20, 24, 30, 36, 44]
    by_len = collections.Counter(
        len(w) for w in enumerate_pattern_free(TERN, PatternKind.SQUARE, 8)
    )
    assert [by_len[i] for i in range(1, 9)] == [3, 6, 12, 18, 30, 42, 60, 78]


def test_enumerate_equals_filtering_all_words():
    for kind in PatternKind:
        enumerated = [x.text for x in enumerate_pattern_free(BIN, kind, 7)]
        filtered = []
        for length in range(1, 8):
            for t in itertools.product(range(2), repeat=length):
                w = Word(t, BIN)
                if find_pattern(w, kind) is None:
                    filtered.append(w.text)
        assert enumerated == filtered


def test_enumerate_edge_cases():
    assert list(enumerate_pattern_free(BIN, PatternKind.SQUARE, 0)) == []
    with pytest.raises(ValueError):
        list(enumerate_pattern_free(BIN, PatternKind.SQUARE, -1))
    unary = Alphabet.from_string("a")
    assert [x.text for x in enumerate_pattern_free(unary, PatternKind.SQUARE, 5)] == ["a"]
    assert [x.text for x in enumerate_pattern_free(unary, PatternKind.OVERLAP, 5)] == ["a", "aa"]


def test_enumerate_is_deterministic():
    first = [x.text for x in enumerate_pattern_free(TERN, PatternKind.SQUARE, 6)]
    second = [x.text for x in enumerate_pattern_free(TERN, PatternKind.SQUARE, 6)]
    assert first == second


@given(st.sampled_from(list(PatternKind)), st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_enumerated_words_are_pattern_free_and_prefix_closed(kind, max_len):
    seen = set()
    for w in enumerate_pattern_free(BIN, kind, max_len):
        assert find_pattern(w, kind) is None
        assert len(w) <= max_len
        if len(w) > 1:
            assert w.symbols[:-1] in seen
        seen.add(w.symbols)
