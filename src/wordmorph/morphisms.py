"""Letter-to-word morphisms: application, uniformity, fixed points, catalog."""

from __future__ import annotations

from collections.abc import Callable, Iterable, MutableSequence, Sequence
from dataclasses import dataclass
from operator import length_hint

from .words import Alphabet, Word, _trusted_word, parse_word


@dataclass(frozen=True)
class Morphism:
    """Non-erasing map from source letters to words over the target alphabet.

    Application extends the letterwise images by concatenation, so
    apply(uv) == apply(u) + apply(v) holds by construction. Images are stored
    in source-alphabet order.
    """

    source: Alphabet
    target: Alphabet
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != len(self.source):
            raise ValueError(
                f"expected {len(self.source)} images, got {len(self.images)}"
            )
        for letter, image in zip(self.source.letters, self.images):
            if image.alphabet != self.target:
                raise ValueError(f"image of {letter!r} is not over the target alphabet")
            if len(image) == 0:
                raise ValueError(f"erasing image: letter {letter!r} maps to the empty word")

    @classmethod
    def from_strings(
        cls, source: str, images: Sequence[str], target: str | None = None
    ) -> Morphism:
        """Build from plain strings; target defaults to the source alphabet."""
        src = Alphabet.from_string(source)
        tgt = src if target is None else Alphabet.from_string(target)
        return cls(src, tgt, tuple(parse_word(im, tgt) for im in images))

    def image(self, letter: str) -> Word:
        return self.images[self.source.index(letter)]

    def apply(self, word: Word) -> Word:
        # identity first: the dataclass __eq__ costs several times more
        if word.alphabet is not self.source and word.alphabet != self.source:
            raise ValueError("word is not over the source alphabet")
        out: list[int] = []
        for s in word.symbols:
            out.extend(self.images[s].symbols)
        return _trusted_word(tuple(out), self.target)

    def compose(self, other: Morphism) -> Morphism:
        """self after other: w -> self.apply(other.apply(w)).

        The result maps other's source to self's target, each letter to
        self's image of its image under other. Raises ValueError unless
        other's target is self's source.
        """
        if other.target != self.source:
            raise ValueError("cannot compose: the inner target is not the outer source")
        return Morphism(other.source, self.target, tuple(map(self.apply, other.images)))

    def uniform_length(self) -> int | None:
        """Common image length if all images agree, else None."""
        lengths = {len(im) for im in self.images}
        return lengths.pop() if len(lengths) == 1 else None


def iterate_prefix(m: Morphism, seed: str, target_len: int) -> Word:
    """First target_len letters of the fixed point of m on the given seed letter.

    Requires source == target and an image of seed beginning with seed;
    raises ValueError otherwise, as fixed_point_symbols does.
    """
    word, _, _ = fixed_point_symbols(m, seed, target_len, list)
    del word[target_len:]
    return _trusted_word(tuple(word), m.source)


def fixed_point_symbols(
    m: Morphism,
    seed: str,
    target_len: int,
    buffer: Callable[[Iterable[int]], MutableSequence[int]],
) -> tuple[MutableSequence[int], list[MutableSequence[int]], int]:
    """(word, images, read): the first target_len letters of the fixed point
    x of m on seed, read off a power g of m whose images are images.

    word and each of g's images are a buffer(...): list, or bytearray when
    every symbol fits a byte. word holds g(x[0]) g(x[1]) ... g(x[read - 1]).
    Its first target_len symbols are x[:target_len]; only the last image
    reaches past them. iterate_prefix cuts word to target_len; the iterate
    command spells only g's images and the letters read, word[:read].

    Requires source == target and an image of seed beginning with seed. With
    h = m, the fixed point x then satisfies x = h(x), hence x = g(x) for every
    power g = h^r, and g(seed) begins with seed too. So one left-to-right pass
    reads x off itself: start from g(seed) and append g(x[i]) for
    i = 1, 2, ... Each step reads one letter and writes at least one, so x[i]
    is always known when it is read.

    r is the least power whose longest image has at least sqrt(target_len)
    letters, so the pass reads about target_len / |g(a)| letters instead of
    target_len / |h(a)|. g is built one h per round as g.compose(h), g(a)
    becoming g(b1) g(b2) ... for h(a) = b1 b2 ... The longest image bounds
    r, not the seed's, since another letter may grow exponentially while
    the seed grows linearly. g's images then stay under
    sqrt(target_len) * max |h(a)| letters, and time and memory stay linear
    in target_len. The only stop is h(seed) == seed, which raises once
    target_len asks for a second letter; it is checked before g is built.
    """
    if m.source != m.target:
        raise ValueError("iteration requires source and target alphabets to match")
    if target_len < 1:
        raise ValueError("target_len must be >= 1")
    s = m.source.index(seed)
    first = m.images[s].symbols[0]
    if first != s:
        raise ValueError(
            f"morphism is not prolongable on {seed!r}:"
            f" its image begins with {m.source.letters[first]!r}"
        )
    if len(m.images[s]) == 1 and target_len > 1:
        raise ValueError(f"iteration on {seed!r} stops growing at length 1")
    g = m
    while max(map(len, g.images)) ** 2 < target_len:
        g = g.compose(m)
    images = [buffer(im.symbols) for im in g.images]
    word = buffer(images[s])
    letters = iter(word)
    next(letters)
    for letter in letters:
        if len(word) >= target_len:
            # the iterator stands past letter, which is not read; a list or
            # bytearray iterator's length hint is exact, so the pass counts
            # nothing per letter
            read = len(word) - length_hint(letters) - 1
            break
        word.extend(images[letter])
    else:  # g(seed) == seed, target_len == 1
        read = len(word)
    return word, images, read


_CATALOG: dict[str, tuple[str, tuple[str, ...]]] = {
    "thue_morse": ("01", ("01", "10")),
    "leech": (
        "012",
        (
            "0121021201210",
            "1202102012021",
            "2010210120102",
        ),
    ),
    "f4": (
        "0123",
        (
            "01231230103213210",
            "12302301210320321",
            "23013012321031032",
            "30120123032102103",
        ),
    ),
    "g4": (
        "0123",
        (
            "012301221211203210",
            "123013003033010321",
            "230120123310221032",
            "301230110100132103",
        ),
    ),
}


def catalog_names() -> tuple[str, ...]:
    """Frozen names of the built-in morphisms."""
    return tuple(_CATALOG)


def catalog(name: str) -> Morphism:
    """Built-in morphism by name; see catalog_names() for the choices."""
    try:
        letters, images = _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown catalog name {name!r}; known names: {', '.join(_CATALOG)}"
        ) from None
    return Morphism.from_strings(letters, images)
