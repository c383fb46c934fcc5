"""Finite words over ordered alphabets, with square/overlap/cube detection."""

from __future__ import annotations

import codecs
from bisect import bisect_right
from collections.abc import Iterator, Sequence
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
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.letters:
            raise ValueError("alphabet must contain at least one letter")
        for ch in self.letters:
            if not isinstance(ch, str) or len(ch) != 1:
                raise ValueError(f"letters must be single characters, got {ch!r}")
            if not ch.isprintable() or ch.isspace():
                raise ValueError(f"letters must be printable and non-blank, got {ch!r}")
        letters = "".join(self.letters)
        if len(set(self.letters)) != len(self.letters):
            raise ValueError(f"letters must be distinct, got {letters!r}")
        # spell's map: CPython's charmap_decode takes its fast path only for a
        # map of at least 256 characters, so the letters are padded with
        # letters[0]; in-range symbols read only the first len(self) entries
        object.__setattr__(self, "_charmap", letters + letters[0] * (256 - len(letters)))

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

    def spell(self, symbols: Sequence[int]) -> str:
        """The letters of in-range symbols, a tuple, list or bytearray of them.

        Spelled in C: the symbols become one byte each through `bytearray`
        (faster than `bytes` on a tuple of more than a few symbols), and
        `codecs.charmap_decode` maps byte s to letter s. Symbols past 255
        (an alphabet of more than 256 letters) fit no byte, and those are
        spelled letter by letter instead.
        """
        try:
            symbols = bytearray(symbols)
        except ValueError:  # a symbol past 255
            return "".join([self.letters[s] for s in symbols])
        return codecs.charmap_decode(symbols, "strict", self._charmap)[0]


@dataclass(frozen=True)
class Word:
    """Immutable sequence of letter indices over an owning alphabet.

    Symbols are validated at the public boundary: `Word(...)` raises
    ValueError for a symbol that is not an int in range(len(alphabet)).
    Words the library builds from already-valid data (parsed text, slices,
    concatenations, enumerated words, morphism images) are not checked again.

    `text` spells the word with `Alphabet.spell`.
    """

    symbols: tuple[int, ...]
    alphabet: Alphabet

    def __post_init__(self) -> None:
        if type(self.symbols) is not tuple:
            object.__setattr__(self, "symbols", tuple(self.symbols))
        k = len(self.alphabet)
        for s in self.symbols:
            if not isinstance(s, int):
                raise ValueError(f"symbol {s!r} is not an int letter index")
            if not 0 <= s < k:
                raise ValueError(f"symbol index {s} out of range for a {k}-letter alphabet")

    @property
    def text(self) -> str:
        return self.alphabet.spell(self.symbols)

    def __str__(self) -> str:
        return self.text

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, item: int | slice) -> int | Word:
        if isinstance(item, slice):
            return _trusted_word(self.symbols[item], self.alphabet)
        return self.symbols[item]

    def letter(self, i: int) -> str:
        return self.alphabet.letters[self.symbols[i]]

    def concat(self, other: Word) -> Word:
        if other.alphabet != self.alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        return _trusted_word(self.symbols + other.symbols, self.alphabet)


def _trusted_word(symbols: tuple[int, ...], alphabet: Alphabet) -> Word:
    """Word over alphabet from a tuple of symbols already known to be in range.

    Skips the per-symbol check of Word.__post_init__, which takes longer than
    building the object. Only for symbols taken from a valid Word, Alphabet
    or Morphism, or from range(len(alphabet)); anything else goes through
    Word(...).
    """
    word = object.__new__(Word)
    object.__setattr__(word, "symbols", symbols)
    object.__setattr__(word, "alphabet", alphabet)
    return word


@unique
class PatternKind(Enum):
    """The three fixed repetition patterns.

    An occurrence of period p >= 1 is a factor of length span(p) whose first
    span(p) - p letters recur p letters later; span alone tells kinds apart.
    """

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


# Each kind's (span(1), span(p + 1) - span(p)): the scans step spans by a
# fixed growth, and one lookup here is cheaper than calling kind.span.
_SPAN_STEPS = {kind: (kind.span(1), kind.span(2) - kind.span(1)) for kind in PatternKind}


@dataclass(frozen=True)
class Occurrence:
    """A located pattern instance: kind, start index and period.

    The factor of length span starting at start is the occurrence: its first
    span - period letters recur period letters later (see PatternKind).
    """

    kind: PatternKind
    start: int
    period: int

    @property
    def span(self) -> int:
        return self.kind.span(self.period)

    def factor(self, word: Word) -> Word:
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.start < 0 or self.start + self.span > len(word):
            raise ValueError("occurrence does not fit inside the word")
        return _trusted_word(word.symbols[self.start:self.start + self.span], word.alphabet)

    def matches(self, word: Word) -> bool:
        """Re-check the claimed pattern by direct letter comparison."""
        i, p = self.start, self.period
        span = self.kind.span(p)
        sym = word.symbols
        if p < 1 or i < 0 or i + span > len(sym):
            return False
        return sym[i:i + span - p] == sym[i + p:i + span]


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Map text to a Word, one letter per character."""
    index = {ch: i for i, ch in enumerate(alphabet.letters)}
    try:
        return _trusted_word(tuple([index[ch] for ch in text]), alphabet)
    except KeyError as exc:
        pos = text.index(exc.args[0])  # the first foreign character fails first
    raise ParseError(
        f"character {text[pos]!r} at position {pos} is not in alphabet"
        f" {''.join(alphabet.letters)!r}",
        position=pos,
    )


def count_factor(word: Word, factor: Word) -> int:
    """Number of (possibly overlapping) start positions of factor in word."""
    if len(factor) == 0:
        raise ValueError("factor must be nonempty")
    if factor.alphabet != word.alphabet:
        raise ValueError("factor and word must share an alphabet")
    f = factor.symbols
    sym = word.symbols
    return sum(1 for i in range(len(sym) - len(f) + 1) if sym[i:i + len(f)] == f)


# One bytes.translate table per byte value c: c -> b"1", every other byte -> b"0".
_ONE = [b"0" * c + b"1" + b"0" * (255 - c) for c in range(256)]


def find_pattern(word: Word, kind: PatternKind, *, min_span: int = 0) -> Occurrence | None:
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
    set; shift-ANDs with doubling steps leave bit i set only at such starts,
    and the lowest set bit is the leftmost one.

    min_span restricts the scan to occurrences with span >= min_span: the
    period loop starts at the first such span, and the result is the first
    of those occurrences in the same order.
    """
    sym = word.symbols
    n = len(sym)
    # One '0'/'1' string per letter over the reversed symbols, read as a
    # base-2 int: linear in n, where OR-ing in 1 << i position by position is
    # quadratic. The symbols become one byte each, and letter c's string is
    # one bytearray.translate through _ONE[c], its 256-byte table made once
    # at import. Symbols past 255 fit no byte and take a str path instead:
    # one character per symbol and a str.translate with a dict per letter.
    try:
        raw = bytearray(sym)
    except ValueError:  # a symbol past 255
        text = "".join(map(chr, reversed(sym)))
        letters = set(text)
        zeros = {ord(c): "0" for c in letters}
        masks = [int(text.translate({**zeros, ord(c): "1"}), 2) for c in letters]
    else:
        raw.reverse()
        masks = [int(raw.translate(_ONE[c]), 2) for c in set(raw)]
    span, growth = _SPAN_STEPS[kind]
    p = 1
    if span < min_span:
        p += -(-(min_span - span) // growth)  # the first span >= min_span
        span = kind.span(p)
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


def _find_pattern_blocks(
    blocks: Sequence[bytes], gap: int, kind: PatternKind
) -> list[tuple[int, Occurrence]]:
    """(index, find_pattern's occurrence) for each block that contains the kind.

    One scan for many words: blocks hold letter symbols, one byte each, and
    gap is a byte value in no block. They are joined into one buffer with
    gap between them; the letter masks are built once and the periods
    stepped once, up to the longest block. An occurrence's equal pairs cover
    every position of its span, and no pair with a gap in it is equal, so no
    occurrence crosses a gap. Each block therefore gets the first period that
    has a start in it, at its leftmost such start: the minimal occurrence
    find_pattern gives the block alone. Once a block has its occurrence, its
    starts are masked out of the later periods. Pairs come in block order.
    Words whose gap or symbols fit no byte are scanned one at a time by
    find_pattern instead, which has a str path for symbols past 255.

    find_pattern stays its own loop: a one-block batch made it about 50 %
    slower on 6-letter words, and a period generator shared by both cost it
    2-5 % per call.
    """
    if not blocks:
        return []
    # bit i of a mask is position i of the joined buffer, as in find_pattern
    raw = bytearray(bytes((gap,)).join(blocks))
    raw.reverse()
    letters = set(raw)
    letters.discard(gap)
    masks = [int(raw.translate(_ONE[c]), 2) for c in letters]
    starts = [0]  # where each block starts, then where one more would
    end = 0
    for block in blocks:
        end += len(block) + 1
        starts.append(end)
    live = (1 << end) - 1  # the starts of the blocks with no occurrence yet
    longest = max(map(len, blocks))
    hits = []
    span, growth = _SPAN_STEPS[kind]
    p = 1
    while span <= longest and live:
        eq = 0
        for m in masks:
            eq |= m & (m >> p)
        eq &= live
        run = span - p
        have = 1
        while eq and have < run:
            step = have if 2 * have <= run else run - have
            eq &= eq >> step
            have += step
        while eq:
            i = (eq & -eq).bit_length() - 1
            j = bisect_right(starts, i) - 1
            hits.append((j, Occurrence(kind, i - starts[j], p)))
            live ^= ((1 << len(blocks[j])) - 1) << starts[j]
            eq &= live
        p += 1
        span += growth
    hits.sort()  # block indices are distinct, so no two occurrences are compared
    return hits


def extend_check(word: Word, kind: PatternKind) -> bool:
    """True iff some occurrence of the pattern ends exactly at the last letter.

    Growing a word one letter at a time and failing this check at every step
    is equivalent to the grown word being pattern-free.
    """
    return _ends_with_pattern(word.symbols, kind)


def _ends_with_pattern(sym: tuple[int, ...], kind: PatternKind) -> bool:
    # One probe per period, not find_pattern's masks: building masks for every
    # short candidate made enumerating g4/f4 overlap-free words to length 6 slower
    # (33 ms -> 61 ms). Spans grow by a fixed step, as in find_pattern.
    n = len(sym)
    span, growth = _SPAN_STEPS[kind]
    p = 1
    while span <= n:
        if sym[n - span:n - p] == sym[n - span + p:]:
            return True
        p += 1
        span += growth
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
                    yield _trusted_word(cand, alphabet)
        frontier = grown
