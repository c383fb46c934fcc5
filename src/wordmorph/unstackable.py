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

from dataclasses import dataclass

from .morphisms import Morphism
from .words import (
    Occurrence, PatternKind, Word, _find_pattern_blocks, _trusted_word, enumerate_pattern_free,
    find_pattern,
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
    contains the kind; in the order of words.

    Onto a target of at most 255 letters the images are scanned together,
    in one words._find_pattern_blocks pass. Each word's block is its
    letters' image symbols joined, one byte each below the gap byte 255; a
    hit's image Word is read off its block, and images that avoid the kind
    are never built as Words. Onto a larger target each image is built with
    m.apply and scanned alone by find_pattern, which gives it the same
    minimal occurrence.
    """
    if len(m.target) > 255:
        return tuple([
            ImageWitness(w, image, occ)
            for w in words
            if (occ := find_pattern(image := m.apply(w), kind)) is not None
        ])
    parts = [bytes(image.symbols) for image in m.images]
    blocks = [b"".join([parts[s] for s in w.symbols]) for w in words]
    return tuple([
        ImageWitness(words[j], _trusted_word(tuple(blocks[j]), m.target), occ)
        for j, occ in _find_pattern_blocks(blocks, kind)
    ])


def check_image_triples(m: Morphism, kind: PatternKind) -> ConditionReport:
    """Check that images of all kind-free length-3 words avoid the kind.

    Witnesses appear in lexicographic order of the source triple and carry
    the minimal occurrence found in the offending image, the one find_pattern
    gives it. The triples' images are scanned in one bit-parallel pass, or
    image by image onto a target of 256 letters or more (see _image_witnesses).
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


def check_border_condition(m: Morphism) -> ConditionReport:
    """Check that no short shared border leaks an image end.

    For every ordered pair of letters a, b, a == b included, and every V with
    1 <= |V| <= floor(n/2) such that image(a) == S + V and image(b) == V + U,
    S is a suffix of no image and U is a prefix of no image. Each image that
    breaks this is a witness of the border (a, b, V, S, U), on side
    "stem-suffix" or "tail-prefix". Witnesses are ordered by (a, b, |V|),
    suffix side first, offenders in alphabet order. The scan compares symbol
    tuples, and builds V, S and U as Words once per border with an offender.
    Raises NonUniformError for a non-uniform morphism.
    """
    n = m.uniform_length()
    if n is None:
        raise NonUniformError("the border condition requires a uniform morphism")
    symbols = [(c, image.symbols) for c, image in zip(m.source.letters, m.images)]
    witnesses: list[Witness] = []
    for (a, ia), (b, ib) in itertools.product(symbols, repeat=2):
        for lv in range(1, n // 2 + 1):
            border = ia[n - lv:]
            if border != ib[:lv]:
                continue
            stem, tail = ia[:n - lv], ib[lv:]
            offenders = [("stem-suffix", c) for c, ic in symbols if ic[lv:] == stem]
            offenders += [("tail-prefix", c) for c, ic in symbols if ic[:n - lv] == tail]
            if offenders:
                v, s, u = (_trusted_word(part, m.target) for part in (border, stem, tail))
                witnesses += [BorderWitness(a, b, v, s, u, side, c) for side, c in offenders]
    notes: tuple[str, ...] = ()
    if n == 1:
        notes = (
            "a 1-uniform morphism admits no border with 1 <= |V| <= floor(n/2);"
            " the condition holds vacuously",
        )
    return ConditionReport("border", tuple(witnesses), notes)


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
