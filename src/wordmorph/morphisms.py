"""Letter-to-word morphisms: application, uniformity, fixed points, catalog."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

from .words import Alphabet, Word, parse_word


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
        if word.alphabet != self.source:
            raise ValueError("word is not over the source alphabet")
        out: list[int] = []
        for s in word.symbols:
            out.extend(self.images[s].symbols)
        return Word(tuple(out), self.target)

    def uniform_length(self) -> int | None:
        """Common image length if all images agree, else None."""
        lengths = {len(im) for im in self.images}
        return lengths.pop() if len(lengths) == 1 else None


def iterate_prefix(m: Morphism, seed: str, target_len: int) -> Word:
    """First target_len letters of the fixed point of m on the given seed letter.

    Requires source == target and an image of seed beginning with seed. With
    h = m, the fixed point x then satisfies x = h(x) = h(x[0]) h(x[1]) ..., so
    one left-to-right pass reads it off itself: start from h(seed) and append
    h(x[i]) for i = 1, 2, ... Each step reads one letter and writes at least
    one, so x[i] is always known when it is read. The only stop is
    h(seed) == seed, which raises once target_len asks for a second letter.
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
    word = list(m.images[s].symbols)
    if len(word) == 1 and target_len > 1:
        raise ValueError(f"iteration on {seed!r} stops growing at length 1")
    for letter in islice(word, 1, None):
        if len(word) >= target_len:
            break
        word.extend(m.images[letter].symbols)
    return Word(tuple(word[:target_len]), m.source)


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
