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
from wordmorph.words import _find_pattern_blocks
from conftest import assert_same_as_validated, naive_find_pattern, occurs_at

BIN = Alphabet.from_string("01")
TERN = Alphabet.from_string("012")
LATIN = Alphabet.from_string("abcdefghijklmnopqrstuvwxyz")


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


LETTERS = st.characters().filter(lambda ch: ch.isprintable() and not ch.isspace())


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_parse_word_matches_a_plain_oracle(data):
    letters = data.draw(st.lists(LETTERS, min_size=1, max_size=5, unique=True))
    text = data.draw(st.lists(st.sampled_from(letters), max_size=20))
    for pos, ch in data.draw(st.lists(st.tuples(st.integers(0, 20), st.characters()), max_size=2)):
        text.insert(pos, ch)  # sometimes a foreign character, anywhere
    text = "".join(text)
    alphabet = Alphabet(tuple(letters))
    foreign = [pos for pos, ch in enumerate(text) if ch not in letters]
    if not foreign:
        assert parse_word(text, alphabet).symbols == tuple(letters.index(ch) for ch in text)
        return
    with pytest.raises(ParseError) as exc_info:
        parse_word(text, alphabet)
    pos = foreign[0]
    assert str(exc_info.value) == (
        f"character {text[pos]!r} at position {pos} is not in alphabet {''.join(letters)!r}"
    )
    assert exc_info.value.position == pos


def test_word_equality_includes_alphabet():
    assert parse_word("01", BIN) != parse_word("01", TERN)
    assert parse_word("01", BIN) == parse_word("01", Alphabet.from_string("01"))
    assert hash(parse_word("01", BIN)) == hash(parse_word("01", Alphabet.from_string("01")))


def test_word_from_a_generator_keeps_its_symbols():
    word = Word((s for s in (0, 1)), BIN)
    assert word.symbols == (0, 1)
    assert word == parse_word("01", BIN)


def test_word_from_a_list_is_a_frozen_tuple():
    symbols = [0, 1]
    word = Word(symbols, BIN)
    symbols[0] = 1
    assert word.symbols == (0, 1)
    assert word == Word((0, 1), BIN)
    assert hash(word) == hash(Word((0, 1), BIN))


def test_alphabet_from_any_sequence_of_letters():
    for letters in ("01", ["0", "1"]):
        alphabet = Alphabet(letters)
        assert alphabet.letters == ("0", "1")
        assert alphabet == BIN and hash(alphabet) == hash(BIN)
    m = catalog("thue_morse")
    assert m.apply(Word((0, 1), Alphabet("01"))).text == "0110"


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


def test_word_rejects_symbols_that_are_not_ints():
    with pytest.raises(ValueError, match="symbol 0.5 is not an int"):
        Word((0.5, 1), BIN)
    with pytest.raises(ValueError, match="symbol '0' is not an int"):
        Word(("0",), BIN)
    # bool is an int subclass, and True == 1
    assert Word((False, True), BIN) == parse_word("01", BIN)


# Word.text and Alphabet.spell spell in C, one byte per symbol; the 300-letter
# alphabet has symbols past 255, which fit no byte and take the fallback.
WIDE = Alphabet(tuple(chr(0x4E00 + i) for i in range(300)))
SPELLED = {
    "ascii": Alphabet.from_string("01"),
    "non-ascii": Alphabet.from_string("αβγ"),
    "non-bmp": Alphabet.from_string("😀🎉🐍"),
    "wide": WIDE,
    # exactly the 256 entries of CPython's fast charmap, and one past it
    "256": Alphabet(WIDE.letters[:256]),
    "257": Alphabet(WIDE.letters[:257]),
}


@pytest.mark.parametrize("alphabet", SPELLED.values(), ids=SPELLED.keys())
def test_text_matches_letter_by_letter_spelling(alphabet):
    k = len(alphabet)
    for symbols in [(), (k - 1,), tuple(range(k)), tuple(reversed(range(k))) * 3]:
        word = Word(symbols, alphabet)
        naive = "".join(alphabet.letters[s] for s in symbols)
        assert word.text == naive
        assert str(word) == naive
        assert parse_word(word.text, alphabet) == word
        assert alphabet.spell(symbols) == naive
        assert alphabet.spell(list(symbols)) == naive
        # an iterator is read whole, even when a symbol past 255 makes the
        # byte conversion fail partway through it
        assert alphabet.spell(iter(symbols)) == naive
        assert alphabet.spell(s for s in symbols) == naive
        if k <= 256:
            assert alphabet.spell(bytearray(symbols)) == naive


def test_text_matches_letter_by_letter_spelling_on_long_words():
    # a 10^5-letter leech prefix over 012 and over αβγ, and a 5,000-letter
    # word that uses all 300 letters of WIDE
    leech = iterate_prefix(catalog("leech"), "0", 10**5)
    for word in [
        leech,
        Word(leech.symbols, Alphabet.from_string("αβγ")),
        Word(tuple(i * 7919 % 300 for i in range(5000)), WIDE),
    ]:
        assert word.text == "".join([word.alphabet.letters[s] for s in word.symbols])


@given(
    st.lists(st.sampled_from([0, 1, 255, 256, 299]), max_size=60),
    st.sampled_from(list(PatternKind)),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_find_pattern_matches_naive_scan_past_255(symbols, kind, data):
    word = Word(tuple(symbols), WIDE)
    assert find_pattern(word, kind) == naive_find_pattern(word, kind)
    min_span = data.draw(st.integers(0, len(word) + 2))
    assert find_pattern(word, kind, min_span=min_span) == naive_find_pattern(
        word, kind, min_span
    )


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


def test_occurrence_factor_rejects_periods_below_one():
    # matches rejects these too; span(-1) == -2 would otherwise slice "11"
    word = parse_word("0110", BIN)
    for period in (0, -1):
        assert not Occurrence(PatternKind.SQUARE, 1, period).matches(word)
        with pytest.raises(ValueError, match="period must be >= 1"):
            Occurrence(PatternKind.SQUARE, 1, period).factor(word)


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


def test_matches_and_extend_check_agree_with_definitions_exhaustively():
    # Every word over two letters up to length 12 and over three up to length
    # 8, and every (start, period) whose pattern fits. Out of range: period 0,
    # start n, and for each period up to one too long for every kind, the
    # start one past the last that fits and the start -span(p) - 1, which
    # slicing would read as a start counted from the end.
    for k, max_len in ((2, 12), (3, 8)):
        alphabet = Alphabet.from_string("012"[:k])
        for n in range(max_len + 1):
            for kind in PatternKind:
                pairs = [
                    (i, p) for p in range(1, n // 2 + 1) for i in range(n - kind.span(p) + 1)
                ]
                fits = [Occurrence(kind, i, p) for i, p in pairs]
                at_end = [i + kind.span(p) == n for i, p in pairs]
                off = [Occurrence(kind, 0, 0), Occurrence(kind, n, 1)] + [
                    Occurrence(kind, i, p)
                    for p in range(1, n // 2 + 2)
                    for i in (n - kind.span(p) + 1, -kind.span(p) - 1)
                ]
                for t in itertools.product(range(k), repeat=n):
                    word = Word(t, alphabet)
                    expected = [occurs_at(t, kind, i, p) for i, p in pairs]
                    assert [o.matches(word) for o in fits] == expected, (t, kind)
                    assert not any(o.matches(word) for o in off), (t, kind)
                    ends_with = any(e and end for e, end in zip(expected, at_end))
                    assert extend_check(word, kind) == ends_with, (t, kind)


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
    # The shorter words are also scanned with every bound min_span from 1 to
    # length + 1; all of them would take half a minute.
    bounded_len = {1: 8, 2: 9, 3: 6}[k]
    alphabet = Alphabet.from_string("012"[:k])
    for length in range(max_len + 1):
        min_spans = range(1, length + 2) if length <= bounded_len else ()
        for t in itertools.product(range(k), repeat=length):
            word = Word(t, alphabet)
            for kind in PatternKind:
                assert find_pattern(word, kind) == naive_find_pattern(word, kind), (t, kind)
                for min_span in min_spans:
                    assert find_pattern(word, kind, min_span=min_span) == naive_find_pattern(
                        word, kind, min_span
                    ), (t, kind, min_span)


@st.composite
def words_over_small_alphabets(draw):
    # Up to five letters, of which the word may use only some.
    alphabet = Alphabet.from_string("abcde"[:draw(st.integers(1, 5))])
    used = draw(st.lists(st.integers(0, len(alphabet) - 1), min_size=1, unique=True))
    return Word(tuple(draw(st.lists(st.sampled_from(used), max_size=200))), alphabet)


@given(words_over_small_alphabets(), st.sampled_from(list(PatternKind)), st.data())
@settings(max_examples=200, deadline=None)
def test_find_pattern_matches_naive_scan_on_random_words(word, kind, data):
    assert find_pattern(word, kind) == naive_find_pattern(word, kind)
    min_span = data.draw(st.integers(0, len(word) + 2))
    assert find_pattern(word, kind, min_span=min_span) == naive_find_pattern(
        word, kind, min_span
    )


@given(words_over_small_alphabets(), st.data())
@settings(max_examples=50, deadline=None)
def test_find_pattern_byte_and_wide_paths_agree(word, data):
    # Symbols 0-4 of WIDE fit a byte each and take the translate tables; a
    # word with any symbol past 255 takes the str path. Relabelling letters
    # one-to-one moves no occurrence.
    k = len(word.alphabet)
    targets = st.sampled_from([*range(5), *range(256, 261)])
    mixed = data.draw(st.lists(targets, min_size=k, max_size=k, unique=True))
    byte_word = Word(word.symbols, WIDE)
    wide_words = [
        Word(tuple(256 + s for s in word.symbols), WIDE),
        Word(tuple(mixed[s] for s in word.symbols), WIDE),
    ]
    for kind in PatternKind:
        for min_span in range(len(word) + 3):
            expected = find_pattern(byte_word, kind, min_span=min_span)
            for wide in wide_words:
                assert find_pattern(wide, kind, min_span=min_span) == expected, (kind, min_span)


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


# _find_pattern_blocks takes bytes below its gap byte 255 only; words with a
# symbol of 255 or more are scanned one at a time by find_pattern
def test_block_scan_sees_no_occurrence_across_a_gap():
    # joined without the gap, 01 01 is a square and 00 00 a cube
    for words, kind in [
        ([(0, 1), (0, 1)], PatternKind.SQUARE),
        ([(0, 0), (0, 0)], PatternKind.CUBE),
        ([(0,), (0,), (0,)], PatternKind.SQUARE),
    ]:
        assert _find_pattern_blocks(list(map(bytes, words)), kind) == [], (words, kind)


def test_block_scan_edge_cases():
    for kind in PatternKind:
        assert _find_pattern_blocks([], kind) == []
        # every block is shorter than the kind's minimal span
        short = [(0,) * (kind.min_span - 1), (1,) * (kind.min_span - 1)]
        assert _find_pattern_blocks(list(map(bytes, short)), kind) == []
    # one block hits at period 1, one at period 2, one not at all; the
    # pairs still come in block order
    words = [(0, 1, 0, 1), (1, 0, 1), (0, 0)]
    assert _find_pattern_blocks(list(map(bytes, words)), PatternKind.SQUARE) == [
        (0, Occurrence(PatternKind.SQUARE, 0, 2)),
        (2, Occurrence(PatternKind.SQUARE, 0, 1)),
    ]


@given(
    st.lists(st.lists(st.sampled_from([0, 1, 2, 254]), max_size=40), max_size=8),
    st.sampled_from(list(PatternKind)),
)
@settings(max_examples=200, deadline=None)
def test_block_scan_matches_naive_scan_per_block(words, kind):
    # 254 is the largest symbol a block may hold: 255 is the gap byte
    expected = [
        (j, occ)
        for j, w in enumerate(words)
        if (occ := naive_find_pattern(Word(tuple(w), WIDE), kind)) is not None
    ]
    assert _find_pattern_blocks(list(map(bytes, words)), kind) == expected


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


@given(words_over_small_alphabets(), st.data())
@settings(max_examples=100, deadline=None)
def test_words_built_from_valid_words_equal_validated_words(word, data):
    alphabet = word.alphabet
    other = Word(data.draw(st.lists(st.integers(0, len(alphabet) - 1), max_size=20)), alphabet)
    built = [
        parse_word(word.text, alphabet),
        word[data.draw(st.slices(len(word)))],
        word.concat(other),
        other.concat(word),
    ]
    for kind in PatternKind:
        occ = find_pattern(word, kind)
        if occ is not None:
            built.append(occ.factor(word))
    built.extend(enumerate_pattern_free(alphabet, data.draw(st.sampled_from(list(PatternKind))), 4))
    for w in built:
        assert_same_as_validated(w)
