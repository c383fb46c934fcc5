"""Sufficient-condition checkers for pattern-preserving uniform morphisms.

The checkers decide, by finite inspection of the images alone, whether a
uniform morphism maps every pattern-free word to a pattern-free image. Two
condition bundles are provided: one for overlaps and one for squares. Both
rest on the same two ingredients: the image of every short pattern-free word
must avoid the pattern, and the images must not share exploitable borders.
"""

from __future__ import annotations

import functools
import itertools

from collections.abc import Iterator
from dataclasses import dataclass

from .morphisms import Morphism
from .words import (
    Occurrence, PatternKind, Word, _trusted_word, enumerate_pattern_free, find_pattern,
)


class NonUniformError(ValueError):
    """Operation requires a uniform morphism."""


@dataclass(frozen=True)
class ImageWitness:
    """A pattern-free source word whose image contains the pattern."""

    word: Word
    image: Word
    occurrence: Occurrence


@dataclass(frozen=True)
class BorderWitness:
    """A short shared border whose remainder matches an image end.

    image(a) == stem + border and image(b) == border + tail. The violated
    requirement is named by side: "stem-suffix" when stem is a suffix of the
    offender's image, "tail-prefix" when tail is a prefix of it.
    """

    a: str
    b: str
    border: Word
    stem: Word
    tail: Word
    side: str
    offender: str


@dataclass(frozen=True)
class EndWitness:
    """Two distinct letters whose images begin (or end) with the same letter."""

    a: str
    b: str
    end: str  # "first" | "last"
    letter: str


Witness = ImageWitness | BorderWitness | EndWitness


@dataclass(frozen=True)
class ConditionReport:
    """One checked condition with every violation found.

    holds, a property, is True exactly when witnesses is empty; notes carry
    vacuity remarks and similar caveats. words_checked is the number of source
    words whose images the condition scanned: the pattern-free triples, the
    single letters or the letter pairs; 0 for the conditions comparing ends.
    """

    condition: str
    witnesses: tuple[Witness, ...] = ()
    notes: tuple[str, ...] = ()
    words_checked: int = 0

    @property
    def holds(self) -> bool:
        return not self.witnesses


@dataclass(frozen=True)
class Verdict:
    """The reports of one condition bundle; definition names the bundle, and
    passed, a property, is True exactly when every report holds."""

    definition: PatternKind
    reports: tuple[ConditionReport, ...]

    @property
    def passed(self) -> bool:
        return all(r.holds for r in self.reports)

    @property
    def words_checked(self) -> int:
        """Source words whose images the bundle scanned, summed over its reports."""
        return sum(r.words_checked for r in self.reports)


@functools.lru_cache(maxsize=64)
def pattern_free_triples(alphabet, kind: PatternKind) -> tuple[Word, ...]:
    """All kind-free words of length exactly 3, in lexicographic order.

    They depend only on the alphabet and the kind, so they are enumerated
    once per (alphabet, kind) and memoised, for the 64 most recent pairs;
    every call returns the memoised tuple.
    """
    return tuple(w for w in enumerate_pattern_free(alphabet, kind, 3) if len(w) == 3)


def _image_witnesses(m: Morphism, words, kind: PatternKind) -> tuple[Witness, ...]:
    """An ImageWitness, with the minimal occurrence, for each word whose image
    contains the kind; in the order of words."""
    witnesses: list[Witness] = []
    for w in words:
        image = m.apply(w)
        occ = find_pattern(image, kind)
        if occ is not None:
            witnesses.append(ImageWitness(w, image, occ))
    return tuple(witnesses)


def check_image_triples(m: Morphism, kind: PatternKind) -> ConditionReport:
    """Check that images of all kind-free length-3 words avoid the kind.

    Witnesses appear in lexicographic order of the source triple and carry
    the minimal occurrence found in the offending image.
    """
    if kind not in (PatternKind.OVERLAP, PatternKind.SQUARE):
        raise ValueError("image-triple check supports overlap and square patterns only")
    triples = pattern_free_triples(m.source, kind)
    witnesses = _image_witnesses(m, triples, kind)
    notes: tuple[str, ...] = ()
    if not triples:
        notes = (
            f"no {kind.value}-free words of length 3 exist over a"
            f" {len(m.source)}-letter alphabet; the condition holds vacuously",
        )
    return ConditionReport(f"{kind.value}-triples", witnesses, notes, words_checked=len(triples))


def border_offenders(m: Morphism, stem: Word, tail: Word) -> list[tuple[str, str]]:
    """The (side, letter) pairs that make a shared border exploitable.

    side is "stem-suffix" for each letter whose image ends with stem and
    "tail-prefix" for each letter whose image begins with tail. Every
    stem-suffix pair comes before every tail-prefix pair, letters in alphabet
    order within each side.
    """
    stem_hits = [
        ("stem-suffix", c) for c, image in zip(m.source.letters, m.images)
        if image.symbols[len(image) - len(stem):] == stem.symbols
    ]
    tail_hits = [
        ("tail-prefix", c) for c, image in zip(m.source.letters, m.images)
        if image.symbols[:len(tail)] == tail.symbols
    ]
    return stem_hits + tail_hits


def short_borders(m: Morphism) -> Iterator[tuple[str, str, Word, Word, Word]]:
    """The short shared borders the border condition inspects.

    Yields (a, b, V, S, U) for every ordered pair (a, b) of source letters,
    including a == b, and every V with 1 <= |V| <= floor(n/2) such that
    image(a) == S + V and image(b) == V + U, in (a, b, |V|) order; for a given
    (a, b) and length there is at most one such V. Raises NonUniformError for
    a non-uniform morphism.
    """
    n = m.uniform_length()
    if n is None:
        raise NonUniformError("the border condition requires a uniform morphism")
    letters = m.source.letters
    for a, ia in zip(letters, m.images):
        for b, ib in zip(letters, m.images):
            for lv in range(1, n // 2 + 1):
                if ia.symbols[n - lv:] == ib.symbols[:lv]:
                    yield a, b, ia[n - lv:], ia[:n - lv], ib[lv:]


def check_border_condition(m: Morphism) -> ConditionReport:
    """Check that no short shared border leaks an image end.

    For every border (a, b, V, S, U) of short_borders the condition requires
    that S is a suffix of no image and U a prefix of no image; border_offenders
    names the images that break it. Witnesses are ordered by (a, b, |V|),
    suffix side before prefix side, offenders in alphabet order, which is the
    full lexicographic order.
    """
    witnesses = tuple(
        BorderWitness(a, b, border, stem, tail, side, c)
        for a, b, border, stem, tail in short_borders(m)
        for side, c in border_offenders(m, stem, tail)
    )
    notes: tuple[str, ...] = ()
    if m.uniform_length() == 1:
        notes = (
            "a 1-uniform morphism admits no border with 1 <= |V| <= floor(n/2);"
            " the condition holds vacuously",
        )
    return ConditionReport("border", witnesses, notes)


def check_marked_ends(m: Morphism) -> ConditionReport:
    """Images of distinct letters must begin with distinct letters and end with
    distinct letters."""
    witnesses = tuple(
        EndWitness(a, b, end, ia.letter(i))
        for (a, ia), (b, ib) in itertools.combinations(zip(m.source.letters, m.images), 2)
        for end, i in (("first", 0), ("last", -1))
        if ia.symbols[i] == ib.symbols[i]
    )
    return ConditionReport("marked-ends", witnesses)


def check_lemma_consequences(
    m: Morphism,
) -> tuple[ConditionReport, ConditionReport, ConditionReport]:
    """Necessary consequences of the overlap image-triple condition.

    Whenever check_image_triples(m, OVERLAP) holds and the source has at
    least two letters, all three of these must hold as well: every single
    image is overlap-free, every two-letter concatenation image(a)image(b) is
    overlap-free, and the ends are marked. Each is reported separately so a
    failure pinpoints the leaking consequence.
    """
    if len(m.source) <= 1:
        raise ValueError("lemma consequences need at least two source letters")
    k, overlap = len(m.source), PatternKind.OVERLAP
    singles = [_trusted_word((a,), m.source) for a in range(k)]
    pairs = [_trusted_word(t, m.source) for t in itertools.product(range(k), repeat=2)]
    return (
        ConditionReport("single-images", _image_witnesses(m, singles, overlap), words_checked=k),
        ConditionReport("letter-pairs", _image_witnesses(m, pairs, overlap), words_checked=k * k),
        check_marked_ends(m),
    )


def _bundle(m: Morphism, kind: PatternKind, *conditions) -> Verdict:
    """The kind's image triples, then each of conditions, on a uniform morphism."""
    if m.uniform_length() is None:
        raise NonUniformError(f"the {kind.value} conditions apply to uniform morphisms")
    return Verdict(kind, (check_image_triples(m, kind), *(check(m) for check in conditions)))


def check_overlap_def(m: Morphism) -> Verdict:
    """Full overlap bundle: image triples plus the border condition.

    A passing uniform morphism maps overlap-free words to overlap-free words
    in both directions; see the certify module for the brute-force
    cross-check.
    """
    return _bundle(m, PatternKind.OVERLAP, check_border_condition)


def check_square_def(m: Morphism) -> Verdict:
    """Full square bundle: image triples, marked ends and the border condition."""
    return _bundle(m, PatternKind.SQUARE, check_marked_ends, check_border_condition)
