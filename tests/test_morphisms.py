from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordmorph import (
    Alphabet,
    Morphism,
    ParseError,
    Word,
    catalog,
    catalog_names,
    iterate_prefix,
    parse_word,
)
from conftest import assert_same_as_validated

BIN = Alphabet.from_string("01")
TERN = Alphabet.from_string("012")


def test_from_strings_and_apply():
    m = Morphism.from_strings("01", ["01", "10"])
    assert m.source == BIN and m.target == BIN
    assert m.image("1").text == "10"
    assert m.apply(parse_word("01", BIN)).text == "0110"
    assert m.apply(parse_word("", BIN)).text == ""
    assert m.uniform_length() == 2


def test_separate_target_alphabet():
    m = Morphism.from_strings("01", ["ab", "ba"], target="ab")
    assert m.apply(parse_word("01", BIN)).text == "abba"
    assert m.image("0").alphabet == Alphabet.from_string("ab")


def test_validation_errors():
    with pytest.raises(ValueError):
        Morphism.from_strings("01", ["01"])  # image count mismatch
    with pytest.raises(ValueError):
        Morphism.from_strings("01", ["01", ""])  # erasing
    with pytest.raises(ParseError):
        Morphism.from_strings("01", ["01", "2"])  # image over a foreign letter
    tern_word = parse_word("1", TERN)
    with pytest.raises(ValueError):
        Morphism(BIN, BIN, (parse_word("0", BIN), tern_word))


def test_morphism_from_a_list_of_images_equals_the_catalog_entry():
    m = catalog("leech")
    listed = Morphism(m.source, m.target, list(m.images))
    assert listed.images == m.images
    assert listed == m and hash(listed) == hash(m)


def test_apply_rejects_foreign_word():
    m = Morphism.from_strings("01", ["01", "10"])
    with pytest.raises(ValueError, match="word is not over the source alphabet"):
        m.apply(parse_word("2", TERN))
    with pytest.raises(ValueError, match="word is not over the source alphabet"):
        m.apply(parse_word("01", Alphabet.from_string("10")))
    # apply tests identity first, then equality: an equal alphabet object
    # that is not m.source is still the source alphabet
    equal = Alphabet.from_string("01")
    assert equal is not m.source
    assert m.apply(parse_word("01", equal)) == m.apply(parse_word("01", m.source))


@given(
    st.lists(st.text(alphabet="01", min_size=1, max_size=4), min_size=2, max_size=2),
    st.lists(st.integers(0, 1), max_size=8),
    st.lists(st.integers(0, 1), max_size=8),
)
def test_apply_is_a_homomorphism(images, u_syms, v_syms):
    m = Morphism.from_strings("01", images)
    u = Word(tuple(u_syms), BIN)
    v = Word(tuple(v_syms), BIN)
    assert m.apply(u.concat(v)) == m.apply(u).concat(m.apply(v))
    assert len(m.apply(u)) == sum(len(m.images[s]) for s in u.symbols)
    assert_same_as_validated(m.apply(u))


def test_uniform_length():
    assert Morphism.from_strings("01", ["00", "111"]).uniform_length() is None
    assert Morphism.from_strings("01", ["0", "1"]).uniform_length() == 1
    assert Morphism.from_strings("012", ["00", "11", "22"]).uniform_length() == 2


def test_iterate_prefix_thue_morse():
    m = catalog("thue_morse")
    assert iterate_prefix(m, "0", 32).text == "01101001100101101001011001101001"
    assert iterate_prefix(m, "0", 1).text == "0"
    assert iterate_prefix(m, "1", 4).text == "1001"


def test_iterate_prefix_is_prefix_coherent():
    m = catalog("leech")
    full = iterate_prefix(m, "0", 169)
    for length in (1, 2, 13, 50, 169):
        assert iterate_prefix(m, "0", length).symbols == full.symbols[:length]
    assert iterate_prefix(m, "0", 13) == m.image("0")


@given(st.integers(1, 64))
@settings(max_examples=25, deadline=None)
def test_iterate_prefix_coherent_for_every_length(length):
    m = catalog("thue_morse")
    full = iterate_prefix(m, "0", 64)
    assert iterate_prefix(m, "0", length).symbols == full.symbols[:length]


def test_iterate_prefix_errors():
    m = catalog("thue_morse")
    with pytest.raises(ValueError):
        iterate_prefix(m, "0", 0)
    with pytest.raises(ParseError):
        iterate_prefix(m, "2", 4)  # seed outside the alphabet
    swapped = Morphism.from_strings("01", ["10", "01"])
    with pytest.raises(ValueError) as exc_info:
        iterate_prefix(swapped, "0", 4)
    assert "'0'" in str(exc_info.value) and "'1'" in str(exc_info.value)
    crossed = Morphism.from_strings("01", ["ab", "ba"], target="ab")
    with pytest.raises(ValueError):
        iterate_prefix(crossed, "0", 4)


def test_iterate_prefix_identity_stops_growing():
    ident = Morphism.from_strings("01", ["0", "1"])
    assert iterate_prefix(ident, "0", 1).text == "0"
    with pytest.raises(ValueError) as exc_info:
        iterate_prefix(ident, "0", 2)
    assert str(exc_info.value) == "iteration on '0' stops growing at length 1"
    # h(0) == 0 stops on 0, while 1 -> 10 grows through it: 1000...
    half = Morphism.from_strings("01", ["0", "10"])
    assert iterate_prefix(half, "0", 1).text == "0"
    with pytest.raises(ValueError, match=r"^iteration on '0' stops growing at length 1$"):
        iterate_prefix(half, "0", 2)
    assert iterate_prefix(half, "1", 1).text == "1"
    assert iterate_prefix(half, "1", 7).text == "1000000"


def naive_iterate(images: dict[str, str], seed: str, target_len: int) -> str:
    """Apply the images letter by letter, round after round, over plain
    strings until the word is long enough; raise if a round adds nothing."""
    word = seed
    while len(word) < target_len:
        grown = "".join(images[c] for c in word)
        if len(grown) == len(word):
            raise ValueError(f"iteration on {seed!r} stops growing at length {len(word)}")
        word = grown
    return word[:target_len]


@st.composite
def prolongable_morphisms(draw):
    letters = "0123"[:draw(st.integers(1, 4))]
    seed = draw(st.sampled_from(letters))
    uniform = draw(st.integers(1, 6)) if draw(st.booleans()) else None
    images = {}
    for c in letters:
        size = uniform or draw(st.integers(1, 6))
        images[c] = draw(st.text(alphabet=letters, min_size=size, max_size=size))
    images[seed] = seed + images[seed][1:]
    return images, seed


@given(prolongable_morphisms(), st.integers(1, 500))
@settings(max_examples=300, deadline=None)
def test_iterate_prefix_agrees_with_naive_iteration(morphism, target_len):
    images, seed = morphism
    m = Morphism.from_strings("".join(images), list(images.values()))
    try:
        expected = naive_iterate(images, seed, target_len)
    except ValueError as exc:
        with pytest.raises(ValueError) as exc_info:
            iterate_prefix(m, seed, target_len)
        assert str(exc_info.value) == str(exc)
    else:
        prefix = iterate_prefix(m, seed, target_len)
        assert prefix.text == expected
        assert_same_as_validated(prefix)


def test_iterate_and_apply_build_no_checked_words(word_checks):
    m = catalog("thue_morse")
    word = iterate_prefix(m, "0", 10**5)
    assert len(m.apply(word)) == 2 * 10**5
    assert word_checks == []


def test_catalog_frozen_images():
    tm = catalog("thue_morse")
    assert [im.text for im in tm.images] == ["01", "10"]
    assert tm.uniform_length() == 2

    leech = catalog("leech")
    assert leech.uniform_length() == 13
    assert [im.text for im in leech.images] == [
        "0121021201210",
        "1202102012021",
        "2010210120102",
    ]

    f4 = catalog("f4")
    assert f4.uniform_length() == 17
    assert f4.image("0").text == "01231230103213210"
    assert f4.image("3").text == "30120123032102103"

    g4 = catalog("g4")
    assert g4.uniform_length() == 18
    assert g4.image("0").text == "012301221211203210"
    assert g4.image("3").text == "301230110100132103"


def test_catalog_names_and_unknown():
    assert catalog_names() == ("thue_morse", "leech", "f4", "g4")
    with pytest.raises(ValueError) as exc_info:
        catalog("nope")
    assert "nope" in str(exc_info.value)
