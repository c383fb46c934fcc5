"""Naive repetition oracle and independent word generators.

Nothing here imports wordmorph. The benchmark checks the program's outputs
against these definitions, so they must share no code with it. Words are
plain strings, one character per letter; repetitions are found by regular
expressions with back-references (the definitions written as patterns) and
confirmed by direct slice comparison.
"""

from __future__ import annotations

import functools
import itertools
import re

KINDS = ("square", "overlap", "cube")

# The frozen catalog, written out here so that the oracle does not read it
# from the program it checks: (alphabet, images).
CATALOG = {
    "thue_morse": ("01", ("01", "10")),
    "leech": (
        "012",
        ("0121021201210", "1202102012021", "2010210120102"),
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


def span(kind: str, period: int) -> int:
    """Length of an occurrence: XX is 2p, cXcXc is 2p + 1 (p = |cX|), XXX is 3p."""
    if kind == "square":
        return 2 * period
    if kind == "overlap":
        return 2 * period + 1
    if kind == "cube":
        return 3 * period
    raise ValueError(f"unknown pattern kind {kind!r}")


def matches(text: str, kind: str, start: int, period: int) -> bool:
    """True iff text has an occurrence of kind at start with this period."""
    if period < 1 or start < 0 or start + span(kind, period) > len(text):
        return False
    x = text[start:start + period]
    if kind == "square":
        return text[start + period:start + 2 * period] == x
    if kind == "overlap":
        return text[start + period:start + 2 * period] == x and text[start + 2 * period] == x[0]
    return text[start + period:start + 2 * period] == x == text[start + 2 * period:start + 3 * period]


@functools.lru_cache(maxsize=None)
def _regex(kind: str, max_period: int | None) -> re.Pattern:
    if kind == "overlap":
        body = ".*?" if max_period is None else f".{{0,{max_period - 1}}}?"
        return re.compile(rf"(.)({body})\1\2\1", re.DOTALL)
    block = ".+?" if max_period is None else f".{{1,{max_period}}}?"
    reps = r"\1" if kind == "square" else r"\1\1"
    return re.compile(rf"({block}){reps}", re.DOTALL)


def find_any(text: str, kind: str, max_period: int | None = None) -> tuple[int, int] | None:
    """Some (start, period) occurrence with period <= max_period, or None."""
    m = _regex(kind, max_period).search(text)
    if m is None:
        return None
    period = len(m.group(1)) + len(m.group(2)) if kind == "overlap" else len(m.group(1))
    return m.start(), period


def contains(text: str, kind: str) -> bool:
    return find_any(text, kind) is not None


def minimal_error(text: str, kind: str, start: int, period: int) -> str | None:
    """Why (start, period) is not the minimal occurrence of kind in text, or None.

    Minimal means smallest span, then smallest start; for one kind the span
    grows with the period, so smaller span is smaller period.
    """
    if not matches(text, kind, start, period):
        return f"reported {kind} at start {start}, period {period} does not match"
    if period > 1:
        smaller = find_any(text, kind, period - 1)
        if smaller is not None:
            return f"{kind} of smaller period at start {smaller[0]}, period {smaller[1]}"
    for i in range(start):
        if matches(text, kind, i, period):
            return f"{kind} of equal span at smaller start {i}"
    return None


def first_occurrence(text: str, kind: str) -> tuple[int, int] | None:
    """The minimal occurrence, by plain scanning in (span, start) order."""
    if not contains(text, kind):
        return None
    period = 1
    while span(kind, period) <= len(text):
        for i in range(len(text) - span(kind, period) + 1):
            if matches(text, kind, i, period):
                return i, period
        period += 1
    raise AssertionError("regex and scan disagree")  # unreachable


def apply(letters: str, images: tuple[str, ...], word: str) -> str:
    return "".join(images[letters.index(ch)] for ch in word)


def thue_morse(n: int) -> str:
    """t_0 .. t_{n-1}, where t_i is the parity of the number of 1 bits of i."""
    return "".join("01"[bin(i).count("1") & 1] for i in range(n))


def fixed_point(letters: str, images: tuple[str, ...], n: int) -> str:
    """First n letters of the fixed point starting with letters[0], by translation."""
    table = str.maketrans(dict(zip(letters, images)))
    word = letters[0]
    while len(word) < n:
        word = word.translate(table)[:n]
    return word


def pattern_free_words(letters: str, kind: str, max_len: int):
    """Kind-free words of length 1..max_len, shorter first, then lexicographic."""
    frontier = [""]
    for _ in range(max_len):
        grown = []
        for stem in frontier:
            for ch in letters:
                w = stem + ch
                if not contains(w, kind):
                    grown.append(w)
        yield from grown
        frontier = grown


def _image_contains(letters: str, images: tuple[str, ...], word: str, kind: str) -> bool:
    # Under an n-uniform morphism the image of an occurrence at (i, p) is an
    # occurrence at (i*n, p*n); confirm that one directly and fall back to a
    # full search when it does not match.
    n = len(images[0])
    occ = find_any(word, kind)
    image = apply(letters, images, word)
    if occ is not None and matches(image, kind, occ[0] * n, occ[1] * n):
        return True
    return contains(image, kind)


def certify(
    letters: str, images: tuple[str, ...], kind: str, max_len: int, direction: str
) -> tuple[dict[int, int], dict | None]:
    """Per-length counts of checked words, and the counterexample if any.

    Forward checks kind-free words, backward kind-containing ones, each
    shortest first and lexicographic within a length, stopping at the first
    word whose image breaks preservation. The counterexample is a dict in the
    shape of the certify JSON witness.
    """
    counts = {length: 0 for length in range(1, max_len + 1)}
    if direction == "forward":
        for w in pattern_free_words(letters, kind, max_len):
            counts[len(w)] += 1
            image = apply(letters, images, w)
            occ = first_occurrence(image, kind)
            if occ is not None:
                return counts, _witness(w, image, kind, occ)
        return counts, None
    for length in range(1, max_len + 1):
        for t in itertools.product(letters, repeat=length):
            w = "".join(t)
            if not contains(w, kind):
                continue
            counts[length] += 1
            if not _image_contains(letters, images, w, kind):
                image = apply(letters, images, w)
                return counts, _witness(w, image, kind, first_occurrence(w, kind))
    return counts, None


def _witness(word: str, image: str, kind: str, occ: tuple[int, int]) -> dict:
    return {
        "word": word,
        "image": image,
        "occurrence": {"kind": kind, "start": occ[0], "period": occ[1]},
    }


def random_pattern_free(rng, letters: str, kind: str, n: int) -> str:
    """A kind-free word of length n, grown letter by letter with backtracking."""
    stack = [(rng.sample(letters, len(letters)), "")]
    while stack:
        choices, stem = stack[-1]
        if not choices:
            stack.pop()
            continue
        w = stem + choices.pop()
        if not contains(w, kind):
            if len(w) == n:
                return w
            stack.append((rng.sample(letters, len(letters)), w))
    raise ValueError(f"no {kind}-free word of length {n} over {letters!r}")

