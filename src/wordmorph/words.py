"""Finite words over ordered alphabets, with square/overlap/cube detection."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum, unique


class ParseError(ValueError):
    """Text could not be interpreted over the given alphabet."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct single-character letters.

    Construction order is significant: it fixes lexicographic order and the
    order of every enumeration downstream.
    """

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("alphabet must contain at least one letter")
        for ch in self.letters:
            if not isinstance(ch, str) or len(ch) != 1:
                raise ValueError(f"letters must be single characters, got {ch!r}")
            if not ch.isprintable() or ch.isspace():
                raise ValueError(f"letters must be printable and non-blank, got {ch!r}")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError(f"letters must be distinct, got {''.join(self.letters)!r}")

    @classmethod
    def from_string(cls, text: str) -> Alphabet:
        return cls(tuple(text))

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, ch: object) -> bool:
        return ch in self.letters

    def index(self, ch: str) -> int:
        """Position of a letter, raising ParseError for foreign characters."""
        try:
            return self.letters.index(ch)
        except ValueError:
            raise ParseError(
                f"letter {ch!r} is not in alphabet {''.join(self.letters)!r}"
            ) from None

    def word(self, text: str) -> Word:
        return parse_word(text, self)


@dataclass(frozen=True)
class Word:
    """Immutable sequence of letter indices over an owning alphabet."""

    symbols: tuple[int, ...]
    alphabet: Alphabet

    def __post_init__(self) -> None:
        k = len(self.alphabet)
        for s in self.symbols:
            if not 0 <= s < k:
                raise ValueError(f"symbol index {s} out of range for a {k}-letter alphabet")

    @property
    def text(self) -> str:
        return "".join(self.alphabet.letters[s] for s in self.symbols)

    def __str__(self) -> str:
        return self.text

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, item: int | slice) -> int | Word:
        if isinstance(item, slice):
            return Word(self.symbols[item], self.alphabet)
        return self.symbols[item]

    def letter(self, i: int) -> str:
        return self.alphabet.letters[self.symbols[i]]

    def concat(self, other: Word) -> Word:
        if other.alphabet != self.alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word(self.symbols + other.symbols, self.alphabet)


@unique
class PatternKind(Enum):
    """The three fixed repetition patterns."""

    SQUARE = "square"    # XX with |X| >= 1
    OVERLAP = "overlap"  # cXcXc with |X| >= 0
    CUBE = "cube"        # XXX with |X| >= 1

    def span(self, period: int) -> int:
        """Length of an occurrence with the given period."""
        if self is PatternKind.SQUARE:
            return 2 * period
        if self is PatternKind.OVERLAP:
            return 2 * period + 1
        return 3 * period

    @property
    def min_span(self) -> int:
        """Shortest word that can contain the pattern."""
        return self.span(1)


@dataclass(frozen=True)
class Occurrence:
    """A located pattern instance: kind, start index and period.

    For overlaps the period is |cX| and the span 2*period + 1; for squares and
    cubes the period is |X| and the span 2*period resp. 3*period.
    """

    kind: PatternKind
    start: int
    period: int

    @property
    def span(self) -> int:
        return self.kind.span(self.period)

    def factor(self, word: Word) -> Word:
        if self.start < 0 or self.start + self.span > len(word):
            raise ValueError("occurrence does not fit inside the word")
        return Word(word.symbols[self.start:self.start + self.span], word.alphabet)

    def matches(self, word: Word) -> bool:
        """Re-check the claimed pattern by direct letter comparison."""
        if self.period < 1 or self.start < 0 or self.start + self.span > len(word):
            return False
        return _match_at(word.symbols, self.kind, self.start, self.period)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Map text to a Word, one letter per character."""
    symbols = []
    for pos, ch in enumerate(text):
        if ch not in alphabet:
            raise ParseError(
                f"character {ch!r} at position {pos} is not in alphabet"
                f" {''.join(alphabet.letters)!r}",
                position=pos,
            )
        symbols.append(alphabet.letters.index(ch))
    return Word(tuple(symbols), alphabet)


def count_factor(word: Word, factor: Word) -> int:
    """Number of (possibly overlapping) start positions of factor in word."""
    if len(factor) == 0:
        raise ValueError("factor must be nonempty")
    if factor.alphabet != word.alphabet:
        raise ValueError("factor and word must share an alphabet")
    f = factor.symbols
    sym = word.symbols
    return sum(1 for i in range(len(sym) - len(f) + 1) if sym[i:i + len(f)] == f)


def _match_at(sym: tuple[int, ...], kind: PatternKind, i: int, p: int) -> bool:
    # Caller guarantees i + kind.span(p) <= len(sym).
    if kind is PatternKind.SQUARE:
        return sym[i:i + p] == sym[i + p:i + 2 * p]
    if kind is PatternKind.OVERLAP:
        return sym[i] == sym[i + 2 * p] and sym[i:i + p] == sym[i + p:i + 2 * p]
    return sym[i:i + p] == sym[i + p:i + 2 * p] == sym[i + 2 * p:i + 3 * p]


def find_pattern(word: Word, kind: PatternKind) -> Occurrence | None:
    """First occurrence in (span, start) order, or None if the word avoids the kind.

    Smallest span wins, ties by smallest start; for a fixed kind the span
    determines the period, so the (span, start, period) witness order of the
    contract collapses to scanning periods upwards and taking the leftmost
    start of the first period that has one.

    Each period is tested for all starts at once, bit-parallel over Python
    ints (shift-and, Baeza-Yates & Gonnet 1992). M_c is the bitmask of the
    positions of letter c, and bit i of eq = OR_c (M_c & (M_c >> p)) is set
    exactly when letters i and i + p are equal. An occurrence of period p
    starts at i exactly when the span(p) - p bits i, i + 1, ... of eq are all
    set (p for a square, p + 1 for an overlap, 2p for a cube); shift-ANDs
    with doubling steps leave bit i set only at such starts, and the lowest
    set bit is the leftmost one.
    """
    sym = word.symbols
    n = len(sym)
    # One '0'/'1' string per letter, read as a base-2 int: linear in n, where
    # OR-ing in 1 << i position by position is quadratic.
    text = "".join(map(chr, reversed(sym)))
    letters = set(text)
    zeros = {ord(c): "0" for c in letters}
    masks = [int(text.translate({**zeros, ord(c): "1"}), 2) for c in letters]
    # Spans grow by a fixed amount per period; adding it is cheaper than
    # calling kind.span once per period.
    growth = kind.span(2) - kind.span(1)
    p, span = 1, kind.min_span
    while span <= n:
        eq = 0
        for m in masks:
            eq |= m & (m >> p)
        run = span - p
        have = 1  # bit i of eq now says the `have` pairs from i on are equal
        while eq and have < run:
            step = have if 2 * have <= run else run - have
            eq &= eq >> step
            have += step
        if eq:
            return Occurrence(kind, (eq & -eq).bit_length() - 1, p)
        p += 1
        span += growth
    return None


def extend_check(word: Word, kind: PatternKind) -> bool:
    """True iff some occurrence of the pattern ends exactly at the last letter.

    Growing a word one letter at a time and failing this check at every step
    is equivalent to the grown word being pattern-free.
    """
    return _ends_with_pattern(word.symbols, kind)


def _ends_with_pattern(sym: tuple[int, ...], kind: PatternKind) -> bool:
    # One probe per period, not find_pattern's masks: building masks for every
    # short candidate made enumerating g4/f4 overlap-free words to length 6 slower
    # (33 ms -> 61 ms).
    n = len(sym)
    p = 1
    while kind.span(p) <= n:
        if _match_at(sym, kind, n - kind.span(p), p):
            return True
        p += 1
    return False


def enumerate_pattern_free(alphabet: Alphabet, kind: PatternKind, max_len: int) -> Iterator[Word]:
    """Yield all pattern-free words of length 1..max_len.

    Shorter lengths come first and words of equal length appear in
    lexicographic order. Words grow one letter at a time with suffix pruning;
    pattern-free words are prefix-closed, so no survivor is missed.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    k = len(alphabet)
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        grown: list[tuple[int, ...]] = []
        for stem in frontier:
            for s in range(k):
                cand = stem + (s,)
                if not _ends_with_pattern(cand, kind):
                    grown.append(cand)
                    yield Word(cand, alphabet)
        frontier = grown
