"""Sufficient-condition checkers for pattern-preserving uniform morphisms.

The checkers decide, by finite inspection of the images alone, whether a
uniform morphism maps every pattern-free word to a pattern-free image. Two
condition bundles are provided: one for overlaps and one for squares. Both
rest on the same two ingredients: the image of every short pattern-free word
must avoid the pattern, and the images must not share exploitable borders.
"""

from __future__ import annotations

import itertools

from dataclasses import dataclass

from .morphisms import Morphism
from .words import Occurrence, PatternKind, Word, enumerate_pattern_free, find_pattern


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

    holds is True exactly when witnesses is empty; notes carry vacuity
    remarks and similar caveats. words_checked is the number of source words
    whose images the condition scanned: the pattern-free triples, the single
    letters or the letter pairs; 0 for the conditions that compare image ends.
    """

    condition: str
    holds: bool
    witnesses: tuple[Witness, ...] = ()
    notes: tuple[str, ...] = ()
    words_checked: int = 0

    @classmethod
    def from_witnesses(
        cls,
        condition: str,
        witnesses: list[Witness] | tuple[Witness, ...],
        notes: tuple[str, ...] = (),
        words_checked: int = 0,
    ) -> ConditionReport:
        ws = tuple(witnesses)
        return cls(condition, not ws, ws, notes, words_checked)


@dataclass(frozen=True)
class Verdict:
    """The reports of one condition bundle; definition names the bundle."""

    definition: PatternKind
    passed: bool
    reports: tuple[ConditionReport, ...]

    @property
    def words_checked(self) -> int:
        """Source words whose images the bundle scanned, summed over its reports."""
        return sum(r.words_checked for r in self.reports)


def pattern_free_triples(alphabet, kind: PatternKind) -> list[Word]:
    """All kind-free words of length exactly 3, in lexicographic order."""
    return [w for w in enumerate_pattern_free(alphabet, kind, 3) if len(w) == 3]


def _image_witnesses(m: Morphism, words, kind: PatternKind) -> list[Witness]:
    """An ImageWitness, with the minimal occurrence, for each word whose image
    contains the kind; in the order of words."""
    witnesses: list[Witness] = []
    for w in words:
        image = m.apply(w)
        occ = find_pattern(image, kind)
        if occ is not None:
            witnesses.append(ImageWitness(w, image, occ))
    return witnesses


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
    return ConditionReport.from_witnesses(
        f"{kind.value}-triples", witnesses, notes, words_checked=len(triples)
    )


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


def check_border_condition(m: Morphism) -> ConditionReport:
    """Check that no short shared border leaks an image end.

    For every ordered pair (a, b) of source letters, including a == b, and
    every nonempty V with |V| <= floor(n/2) such that image(a) ends with V
    and image(b) begins with V, split image(a) == S + V and image(b) == V + U.
    The condition requires that S is a suffix of no image and U a prefix of no
    image. Witnesses are ordered by (a, b, |V|), suffix side before prefix
    side, offenders in alphabet order; for a given (a, b) and length there is
    exactly one candidate V, so this is the full lexicographic order.
    """
    n = m.uniform_length()
    if n is None:
        raise NonUniformError("the border condition requires a uniform morphism")
    half = n // 2
    witnesses: list[Witness] = []
    letters = m.source.letters
    for a, ia in zip(letters, m.images):
        for b, ib in zip(letters, m.images):
            for lv in range(1, half + 1):
                if ia.symbols[n - lv:] != ib.symbols[:lv]:
                    continue
                border, stem, tail = ia[n - lv:], ia[:n - lv], ib[lv:]
                witnesses.extend(
                    BorderWitness(a, b, border, stem, tail, side, c)
                    for side, c in border_offenders(m, stem, tail)
                )
    notes: tuple[str, ...] = ()
    if half == 0:
        notes = (
            "a 1-uniform morphism admits no border with 1 <= |V| <= floor(n/2);"
            " the condition holds vacuously",
        )
    return ConditionReport.from_witnesses("border", witnesses, notes)


def check_marked_ends(m: Morphism) -> ConditionReport:
    """Images of distinct letters must begin with distinct letters and end with
    distinct letters."""
    witnesses: list[Witness] = []
    letters = m.source.letters
    for a_i, b_i in itertools.combinations(range(len(letters)), 2):
        ia, ib = m.images[a_i], m.images[b_i]
        if ia.symbols[0] == ib.symbols[0]:
            witnesses.append(EndWitness(letters[a_i], letters[b_i], "first", ia.letter(0)))
        if ia.symbols[-1] == ib.symbols[-1]:
            witnesses.append(
                EndWitness(letters[a_i], letters[b_i], "last", ia.letter(len(ia) - 1))
            )
    return ConditionReport.from_witnesses("marked-ends", witnesses)


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
    k = len(m.source)
    singles = _image_witnesses(m, [Word((a,), m.source) for a in range(k)], PatternKind.OVERLAP)
    pairs = _image_witnesses(
        m, [Word(t, m.source) for t in itertools.product(range(k), repeat=2)], PatternKind.OVERLAP
    )
    return (
        ConditionReport.from_witnesses("single-images", singles, words_checked=k),
        ConditionReport.from_witnesses("letter-pairs", pairs, words_checked=k * k),
        check_marked_ends(m),
    )


def check_overlap_def(m: Morphism) -> Verdict:
    """Full overlap bundle: image triples plus the border condition.

    A passing uniform morphism maps overlap-free words to overlap-free words
    in both directions; see the certify module for the brute-force
    cross-check.
    """
    if m.uniform_length() is None:
        raise NonUniformError("the overlap conditions apply to uniform morphisms")
    reports = (
        check_image_triples(m, PatternKind.OVERLAP),
        check_border_condition(m),
    )
    return Verdict(PatternKind.OVERLAP, all(r.holds for r in reports), reports)


def check_square_def(m: Morphism) -> Verdict:
    """Full square bundle: image triples, marked ends and the border condition."""
    if m.uniform_length() is None:
        raise NonUniformError("the square conditions apply to uniform morphisms")
    reports = (
        check_image_triples(m, PatternKind.SQUARE),
        check_marked_ends(m),
        check_border_condition(m),
    )
    return Verdict(PatternKind.SQUARE, all(r.holds for r in reports), reports)
