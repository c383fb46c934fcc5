from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordmorph import cli
from wordmorph import (
    Alphabet,
    Morphism,
    ParseError,
    Word,
    catalog,
    catalog_names,
    format_morphism_file,
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


def test_compose_applies_the_inner_morphism_first():
    inner = Morphism.from_strings("01", ["ab", "b"], target="ab")
    outer = Morphism.from_strings("ab", ["xy", "yzz"], target="xyz")
    both = outer.compose(inner)
    assert (both.source, both.target) == (inner.source, outer.target)
    for text in ("", "0", "01", "1101"):
        w = parse_word(text, BIN)
        assert both.apply(w) == outer.apply(inner.apply(w))
        assert_same_as_validated(both.apply(w))
    for image in both.images:
        assert_same_as_validated(image)
    with pytest.raises(ValueError, match="cannot compose"):
        inner.compose(outer)  # outer maps into xyz, inner reads 01


@pytest.mark.parametrize("name", catalog_names())
def test_compose_with_itself_is_applying_twice(name):
    m = catalog(name)
    square = m.compose(m)
    for text in ("", "0", "01", "0123"[:len(m.source)] * 2):
        w = parse_word(text, m.source)
        assert square.apply(w) == m.apply(m.apply(w))


@given(
    st.lists(st.text(alphabet="01", min_size=1, max_size=3), min_size=2, max_size=2),
    st.lists(st.text(alphabet="ab", min_size=1, max_size=3), min_size=2, max_size=2),
    st.lists(st.text(alphabet="xyz", min_size=1, max_size=3), min_size=2, max_size=2),
)
def test_compose_is_associative(first, second, third):
    f = Morphism.from_strings("ab", first, target="01")
    g = Morphism.from_strings("xy", second, target="ab")
    h = Morphism.from_strings("01", third, target="xyz")
    assert h.compose(f).compose(g) == h.compose(f.compose(g))


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


# up to 5,000 letters, so that iterate_prefix reads with a power h^r, r >= 2,
# for every image length drawn (images have at most 6 letters)
@given(prolongable_morphisms(), st.integers(1, 5000))
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


def iterate_command(path, seed: str, length: int) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of an in-process `wordmorph iterate`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["iterate", str(path), "--seed", seed, "--length", str(length)])
    return code, out.getvalue(), err.getvalue()


@given(prolongable_morphisms(), st.integers(1, 5000))
@settings(max_examples=200, deadline=None)
def test_iterate_command_agrees_with_naive_iteration(tmp_path_factory, morphism, target_len):
    # the drawn seed against naive iteration; every other letter, prolongable
    # or not, against the library, errors included
    images, seed = morphism
    m = Morphism.from_strings("".join(images), list(images.values()))
    path = tmp_path_factory.getbasetemp() / "iterate_command.txt"
    path.write_text(format_morphism_file(m), encoding="utf-8")
    try:
        expected = (0, naive_iterate(images, seed, target_len) + "\n", "")
    except ValueError as exc:
        expected = (2, "", f"error: {exc}\n")
    assert iterate_command(path, seed, target_len) == expected
    for letter in images:
        try:
            expected = (0, iterate_prefix(m, letter, target_len).text + "\n", "")
        except ValueError as exc:
            expected = (2, "", f"error: {exc}\n")
        assert iterate_command(path, letter, target_len) == expected


@pytest.mark.parametrize("k", [255, 256, 300])
def test_iterate_past_255_agrees_with_naive_iteration(tmp_path, k):
    # h(a) = a, a + 1, a + 97 (mod k): letter n of the fixed point on the
    # first letter is the sum of 0, 1 or 97 over n's base-3 digits, so on
    # 300 letters the first 26 letters have symbols below 256 and letter 26
    # has 291, a symbol that fits no byte. The command's cut symbol k fits a
    # byte on 255 letters and not on 256, so it reads into bytes on 255
    # letters and into a list on 256 and 300.
    letters = "".join(chr(0x4E00 + i) for i in range(k))
    images = {a: a + letters[(i + 1) % k] + letters[(i + 97) % k] for i, a in enumerate(letters)}
    m = Morphism.from_strings(letters, list(images.values()))
    path = tmp_path / "wide.txt"
    path.write_text(format_morphism_file(m), encoding="utf-8")
    for length in (26, 27, 10**4):
        expected = naive_iterate(images, letters[0], length)
        prefix = iterate_prefix(m, letters[0], length)
        assert (max(prefix.symbols) > 255) == (k == 300 and length > 26)
        assert prefix.text == expected
        assert iterate_command(path, letters[0], length) == (0, expected + "\n", "")


def test_iterate_prefix_lopsided_growth():
    # the seed's image grows linearly and letter 2's exponentially: the power
    # of h is bounded by the longest image, not by the seed's
    images = {"0": "01", "1": "1", "2": "2222"}
    m = Morphism.from_strings("012", list(images.values()))
    # naive_iterate takes one round per letter here, so it runs to 2,000
    assert iterate_prefix(m, "0", 2000).text == naive_iterate(images, "0", 2000)
    assert iterate_prefix(m, "0", 10**5).text == "0" + "1" * (10**5 - 1)


@pytest.mark.parametrize("name", catalog_names())
def test_iterate_prefix_catalog_at_power_boundaries(name):
    # around |h^r(seed)| the read-off loop starts reading or stops at once,
    # and around (longest |h^r(a)|)^2 the power r changes
    m = catalog(name)
    images = {letter: m.image(letter).text for letter in m.source.letters}
    lengths = {10**5}
    power = dict(images)
    while max(map(len, power.values())) ** 2 <= 10**5:
        for n in (len(power["0"]), max(map(len, power.values())) ** 2):
            lengths |= {n - 1, n, n + 1}
        power = {a: "".join(power[b] for b in image) for a, image in images.items()}
    for length in sorted(lengths):
        assert iterate_prefix(m, "0", length).text == naive_iterate(images, "0", length)


@pytest.mark.parametrize("name", catalog_names())
def test_iterate_command_catalog_at_power_boundaries(name):
    # the command spells g(x[0]) ... g(x[read - 1]) from g's images and cuts
    # the last one: besides the library test's lengths, every cut of the
    # last image, at the first whole image each power g reads past (the
    # longest image of the power before, squared)
    m = catalog(name)
    images = {letter: m.image(letter).text for letter in m.source.letters}
    lengths = {10**5}
    power, previous = dict(images), 1
    while previous**2 < 10**5:
        size, longest = len(power["0"]), max(map(len, power.values()))
        lengths |= {size - 1, size, size + 1, longest**2 - 1, longest**2, longest**2 + 1}
        start = -(-previous**2 // size) * size
        lengths |= set(range(start + 1, start + size + 1))
        previous = longest
        power = {a: "".join(power[b] for b in image) for a, image in images.items()}
    lengths = sorted(n for n in lengths if n <= 10**5 + 1)
    full = naive_iterate(images, "0", lengths[-1])
    for length in lengths:
        assert iterate_command(name, "0", length) == (0, full[:length] + "\n", "")


@pytest.mark.parametrize(
    "images, length, expected",
    [
        (("01", "1"), 10**5, "0" + "1" * (10**5 - 1)),
        (("01", "1", "2222"), 10**5, "0" + "1" * (10**5 - 1)),
        (("012", "12", "2"), 10**5, "0" + "".join("1" + "2" * i for i in range(1, 450))),
        (("012", "12", "2"), 10**6, "0" + "".join("1" + "2" * i for i in range(1, 1500))),
    ],
    ids=["01,1", "01,1,2222", "012,12,2", "012,12,2@10^6"],
)
def test_iterate_command_closed_forms_without_growth(tmp_path, images, length, expected):
    # a letter whose image never grows: the power reads about one letter for
    # each letter it writes, and nearly every image joined has one letter
    m = Morphism.from_strings("012"[: len(images)], images)
    path = tmp_path / "morphism.txt"
    path.write_text(format_morphism_file(m), encoding="utf-8")
    assert iterate_command(path, "0", length) == (0, expected[:length] + "\n", "")


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
