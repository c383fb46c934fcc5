"""Bounded brute-force certification of morphisms, plus alignment diagnostics.

Certification is the independent cross-check for the condition bundles: it
enumerates source words shortest-first and hunts for a counterexample to
pattern preservation in either direction. The diagnostics replay the tiling
arithmetic that makes the conditions sufficient, turning a counterexample
into a readable account of where the image repetition sits relative to the
uniform tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique

from .morphisms import Morphism
from .unstackable import check_border_condition
from .words import (
    Occurrence,
    PatternKind,
    Word,
    _trusted_word,
    enumerate_pattern_free,
    find_pattern,
)


@unique
class Direction(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class Counterexample:
    """Word/image pair breaking one direction of pattern preservation.

    Forward: the word is pattern-free but its image is not; the occurrence
    locates the pattern in the image. Backward: the word contains the pattern
    but its image does not; the occurrence locates the pattern in the word.
    """

    direction: Direction
    word: Word
    image: Word
    occurrence: Occurrence

    def check(self, m: Morphism) -> None:
        """Raise ValueError unless this is a counterexample for m.

        In both directions the image is m(word). Forward: the word is free of
        the occurrence's kind and the occurrence matches the image. Backward:
        the occurrence matches the word and the image is kind-free.
        """
        if m.apply(self.word) != self.image:
            raise ValueError("counterexample image does not come from this morphism")
        if self.direction is Direction.FORWARD:
            repetitive, free, free_name = self.image, self.word, "word"
        else:
            repetitive, free, free_name = self.word, self.image, "image"
        if not self.occurrence.matches(repetitive):
            raise ValueError("counterexample occurrence fails its own re-check")
        kind = self.occurrence.kind
        if find_pattern(free, kind) is not None:
            raise ValueError(f"counterexample {free_name} is not {kind.value}-free")


@dataclass
class SearchResult:
    """Outcome of one bounded search, with per-length audit counts."""

    direction: Direction
    kind: PatternKind
    max_len: int
    counterexample: Counterexample | None
    checked_by_length: dict[int, int]

    @property
    def words_checked(self) -> int:
        return sum(self.checked_by_length.values())


def _one_orbit(m: Morphism) -> bool:
    """Whether m is a Latin-square morphism: h(a) = sigma^a(h(0)) for every letter a.

    sigma is the shift a -> a + 1 mod k, and it commutes with m exactly
    when m.source == m.target and h(a) is h(0) with every letter raised by
    a mod k. Then sigma maps kind-free words to kind-free words and
    occurrences to occurrences with the same start and period, so w is a
    counterexample in either direction exactly when sigma(w) is, and
    sigma^(-w[0])(w) is a copy of w that starts with 0. Only the forward
    search uses it.
    """
    k = len(m.source)
    h0 = m.images[0].symbols
    return m.source == m.target and all(
        im.symbols == tuple([(s + a) % k for s in h0]) for a, im in enumerate(m.images)
    )


def search_forward(m: Morphism, kind: PatternKind, max_len: int) -> SearchResult:
    """Scan images of every kind-free word up to max_len, shortest first.

    Enumeration order makes any counterexample minimal: shortest word first,
    lexicographically least among those, minimal occurrence inside its image.

    Every enumerated word is counted. When m commutes with the shift
    sigma(a) = a + 1 mod k (`_one_orbit`), only the images of words
    starting with 0 are scanned: every other word w has an earlier copy
    sigma^(-w[0])(w) starting with 0 that is a counterexample exactly when
    it is.

    Each scan skips the spans too short for an occurrence to reach from
    the image's first tile into its last. By the time w comes up, w[1:]
    and w[:-1] are kind-free (kind-free words are factor-closed), shorter,
    and their images are clean: the search stops at the first hit, and on
    the one-orbit path each of them has a copy starting with 0 whose image
    was scanned, and sigma^a maps images and their occurrences to each
    other. So every occurrence in h(w) starts inside h(w[0]) and ends
    inside h(w[-1]), and its span is at least |h(w)| - |h(w[0])| -
    |h(w[-1])| + 2. The bound holds for every occurrence, so the first hit
    of the bounded scan is the minimal one; for |w| = 1 it bounds nothing.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    one_orbit = _one_orbit(m)
    image_len = [len(im) for im in m.images]
    checked = {length: 0 for length in range(1, max_len + 1)}
    cex = None
    for w in enumerate_pattern_free(m.source, kind, max_len):
        checked[len(w)] += 1
        sym = w.symbols
        if one_orbit and sym[0]:
            continue
        image = m.apply(w)
        first, last = image_len[sym[0]], image_len[sym[-1]]
        occ = find_pattern(image, kind, min_span=len(image) - first - last + 2)
        if occ is not None:
            cex = Counterexample(Direction.FORWARD, w, image, occ)
            break
    return SearchResult(Direction.FORWARD, kind, max_len, cex, checked)


def search_backward(m: Morphism, kind: PatternKind, max_len: int) -> SearchResult:
    """Look for a kind-containing word with a kind-free image up to max_len, shortest first.

    Each length grows the kind-free frontier: every child stem + (s,) of a
    kind-free stem (the empty word included) is scanned, stems and letters
    in lexicographic order. A miss joins the next frontier. A hit is a
    fresh word, and only fresh words have their images built. Any other
    kind-containing word is a child of a kind-containing parent, and
    since h(child) = h(parent) h(last letter), its image contains every
    occurrence in h(parent), which has one: else the search would have
    stopped at the parent's first kind-containing prefix, whose image is a
    prefix of h(parent). Kind-containing words are counted, not visited:
    k^L less the frontier at a finished length L, and at a stop at fresh
    word t, the rank of t (t read in base k) plus one less the frontier
    so far, which holds every kind-free word before t.

    An occurrence at start i with period p in the word, the prefix of
    length span(p) = m*p + span(0) of uuu... for u = w[i:i+p], maps under
    any non-erasing h to one at start |h(w[:i])| with period P = |h(u)|:
    its image h(u)^m h(u[:span(0)]) begins with the prefix of length
    m*P + span(0) = span(P) of h(u)h(u).... Each fresh word's occurrence is
    mapped that way and confirmed on its image by a letter comparison in
    O(span). Only if a confirmation fails is the image scanned in full, and
    only if the scan finds nothing is the word a counterexample, reported
    with its minimal occurrence. So counts, witness and stop point are
    those of scanning every word and every image.
    """
    if max_len < kind.min_span:
        article = "an" if kind is PatternKind.OVERLAP else "a"
        raise ValueError(
            f"max_len must be >= {kind.min_span} to fit {article} {kind.value}"
            " in the word"
        )
    k = len(m.source)
    image_len = [len(im) for im in m.images]
    checked = {length: 0 for length in range(1, max_len + 1)}
    frontier: list[tuple[int, ...]] = [()]
    for length in range(1, max_len + 1):
        grown: list[tuple[int, ...]] = []
        for stem in frontier:
            for s in range(k):
                t = stem + (s,)
                w = _trusted_word(t, m.source)
                occ = find_pattern(w, kind)
                if occ is None:
                    grown.append(t)
                    continue
                i, p = occ.start, occ.period
                image_occ = Occurrence(
                    kind,
                    sum(image_len[a] for a in t[:i]),
                    sum(image_len[a] for a in t[i:i + p]),
                )
                image = m.apply(w)
                if not image_occ.matches(image) and find_pattern(image, kind) is None:
                    rank = 0
                    for a in t:
                        rank = rank * k + a
                    checked[length] = rank + 1 - len(grown)
                    cex = Counterexample(Direction.BACKWARD, w, image, occ)
                    return SearchResult(Direction.BACKWARD, kind, max_len, cex, checked)
        checked[length] = k**length - len(grown)
        frontier = grown
    return SearchResult(Direction.BACKWARD, kind, max_len, None, checked)


def certify_forward(m: Morphism, kind: PatternKind, max_len: int) -> Counterexample | None:
    """Minimal kind-free word with a kind-containing image, if one exists up to max_len."""
    return search_forward(m, kind, max_len).counterexample


def certify_backward(m: Morphism, kind: PatternKind, max_len: int) -> Counterexample | None:
    """Minimal kind-containing word with a kind-free image, if one exists up to max_len.

    For non-erasing morphisms the image of a pattern always contains the
    pattern, so any counterexample here indicates an implementation bug.
    """
    return search_backward(m, kind, max_len).counterexample


def residues(start: int, period: int, n: int) -> tuple[int, int, int]:
    """Offsets of the three period-spaced marks inside their n-letter tiles.

    Returns (start % n, (start + period) % n, (start + 2*period) % n); the
    triple always satisfies r2 == (2*r1 - r0) % n.
    """
    if n < 1:
        raise ValueError("tile length n must be >= 1")
    if period < 1:
        raise ValueError("period must be >= 1")
    if start < 0:
        raise ValueError("start must be >= 0")
    return (start % n, (start + period) % n, (start + 2 * period) % n)


@unique
class AlignmentCase(Enum):
    """How an overlap occurrence sits relative to the n-letter tiles."""

    ALIGNED = "aligned"
    R0_LE_R2_LT_R1 = "r0<=r2<r1"
    R2_LT_R0_LT_R1 = "r2<r0<r1"
    R1_LT_R0_LE_R2 = "r1<r0<=r2"
    R1_LT_R2_LT_R0 = "r1<r2<r0"
    LONG_R0_LT_R1 = "long_r0<r1"
    LONG_R1_LT_R0 = "long_r1<r0"


@dataclass(frozen=True)
class AlignmentDiagnosis:
    r0: int
    r1: int
    r2: int
    tile_span: int
    case_label: AlignmentCase


def classify_alignment(occ: Occurrence, n: int) -> AlignmentDiagnosis:
    """Classify an overlap occurrence inside an n-uniform image by tile alignment.

    aligned when the period is a multiple of n. Occurrences touching exactly
    four tiles carry the full three-residue order; anything wider is labelled
    long by r0 versus r1 alone. An occurrence on fewer than four tiles sits
    inside the image of a length-3 factor, which is the image-triple
    condition's territory; it still gets the three-residue label when one
    fits, and the coarse long label otherwise.
    """
    if occ.kind is not PatternKind.OVERLAP:
        raise ValueError("alignment classification applies to overlap occurrences")
    r0, r1, r2 = residues(occ.start, occ.period, n)
    tile_span = (occ.start + occ.span - 1) // n - occ.start // n + 1
    # The four orders realisable when the occurrence touches exactly four
    # tiles; r1 strictly between r0 and r2 fits none of them.
    if occ.period % n == 0:
        case = AlignmentCase.ALIGNED
    elif tile_span <= 4 and r1 > max(r0, r2):
        case = AlignmentCase.R0_LE_R2_LT_R1 if r0 <= r2 else AlignmentCase.R2_LT_R0_LT_R1
    elif tile_span <= 4 and r1 < min(r0, r2):
        case = AlignmentCase.R1_LT_R0_LE_R2 if r0 <= r2 else AlignmentCase.R1_LT_R2_LT_R0
    else:
        case = AlignmentCase.LONG_R0_LT_R1 if r0 < r1 else AlignmentCase.LONG_R1_LT_R0
    return AlignmentDiagnosis(r0, r1, r2, tile_span, case)


def explain(m: Morphism, cex: Counterexample) -> str:
    """Render a forward counterexample as a readable tiling diagnosis.

    For a uniform morphism the report names the mark residues and alignment
    case, the tiles the occurrence touches, and then either reconstructs the
    forced preimage repetition (aligned case), points at the length-3 factor
    whose image already contains the pattern (occurrences on at most three
    tiles), or exhibits the shared border between image ends and the violated
    stem/tail requirement (wider misaligned occurrences). Non-uniform
    morphisms get a positions-only report. Input that fails
    Counterexample.check, such as a word that itself contains the pattern,
    raises ValueError.
    """
    if cex.direction is not Direction.FORWARD:
        raise ValueError("only forward counterexamples are explained")
    kind = cex.occurrence.kind
    if kind not in (PatternKind.OVERLAP, PatternKind.SQUARE):
        raise ValueError("explanations cover overlap and square counterexamples only")
    cex.check(m)

    occ = cex.occurrence
    word, image = cex.word, cex.image
    lines = [
        f"forward {kind.value} counterexample",
        f"  word:  {word.text} ({kind.value}-free, length {len(word)})",
        f"  image: {image.text} (length {len(image)})",
        f"  {kind.value} at start {occ.start}, period {occ.period}:"
        f" factor {occ.factor(image).text}",
    ]
    n = m.uniform_length()
    if n is None:
        lines.append("  morphism is not uniform: positions only, no tile arithmetic")
        return "\n".join(lines)

    j0, p = occ.start, occ.period
    first_tile = j0 // n
    last_tile = (j0 + occ.span - 1) // n
    lines.append(
        f"  tiles are the {n}-letter images; occurrence touches tiles"
        f" {first_tile}..{last_tile} ({last_tile - first_tile + 1} of them)"
    )
    r0, r1, r2 = residues(j0, p, n)
    if kind is PatternKind.OVERLAP:
        lines.append(
            f"  mark residues mod {n}: r0={r0} r1={r1} r2={r2};"
            f" case {classify_alignment(occ, n).case_label.value}"
        )
    else:
        lines.append(
            f"  start-mark residues mod {n}: r0={r0} r1={r1};"
            f" {'aligned' if p % n == 0 else 'misaligned'}"
        )

    if p % n == 0:
        lines.extend(_explain_aligned(m, word, image, occ, n))
    elif last_tile - first_tile < 3:
        factor = word[first_tile:last_tile + 1]
        article = "an" if kind is PatternKind.OVERLAP else "a"
        lines += [
            f"  the occurrence fits inside the image of the word factor"
            f" {factor.text!r} (positions {first_tile}..{last_tile}, length {len(factor)})",
            f"  {article} {kind.value} inside the image of at most three letters is"
            f" exactly what the {kind.value}-triples condition forbids;"
            " its report carries the offending triple",
        ]
    else:
        lines.extend(_explain_border(m, word, occ, n))
    return "\n".join(lines)


def _explain_aligned(
    m: Morphism, word: Word, image: Word, occ: Occurrence, n: int
) -> list[str]:
    j0, p = occ.start, occ.period
    kind = occ.kind
    qt = p // n  # tiles per period
    s0 = j0 // n
    lines = [f"  aligned: the period {p} is {qt} whole tile(s)"]
    if kind is PatternKind.SQUARE:
        end0, end1 = j0 + p - 1, j0 + 2 * p - 1
        lines.append(
            f"  repeated marks: letter {image.letter(j0)!r} opens both halves"
            f" (image positions {j0} and {j0 + p}), letter {image.letter(end0)!r}"
            f" closes them (positions {end0} and {end1})"
        )
    # The occurrence touches the kind's span of qt tiles, and a mark opens
    # every qt-th of them.
    stretch = word[s0:s0 + kind.span(qt)]
    tiles = range(s0, s0 + len(stretch), qt)
    lines.append(
        "  mark tiles and their source letters: "
        + ", ".join(f"tile {s} <- {word.letter(s)!r}" for s in tiles)
    )
    # The image repeats with period p == qt tiles across the occurrence, so
    # tile contents repeat; if the word did the same it would carry the
    # pattern itself.
    ideal = _trusted_word(
        tuple([stretch[i % qt] for i in range(len(stretch))]), word.alphabet
    )
    lines.append(
        f"  tile contents repeat every {qt} tile(s); a preimage doing the same"
        f" over tiles {s0}..{s0 + len(stretch) - 1} would read {ideal.text}"
    )
    # The word is kind-free, so the stretch, kind.span(qt) letters long, is
    # not periodic with period qt and differs from the ideal somewhere.
    culprits = []
    for x, y in zip(stretch.symbols, ideal.symbols):
        if x != y and m.images[x].symbols == m.images[y].symbols:
            culprits.append(
                f"letters {word.alphabet.letters[x]!r} and"
                f" {word.alphabet.letters[y]!r} share one image"
            )
    lines.append(
        f"  the word reads {stretch.text} instead; the image repetition"
        " survives because distinct letters map to matching content"
        + (": " + "; ".join(sorted(set(culprits))) if culprits
           else " on the stretch the pattern covers")
    )
    return lines


def _explain_border(m: Morphism, word: Word, occ: Occurrence, n: int) -> list[str]:
    # Inside the repetition window image[i] == image[i + p], p = t*n + q with
    # t >= 1, 0 < q < n. Sliding the piece of a tile that ends (or begins) at
    # a boundary B by p lands it against another boundary: a shared border V
    # between the end of image(a) and the start of image(b), listed once per
    # (a, b, |V|) under the first boundary that shows it. Over four or more
    # tiles one has length min(q, n - q) <= floor(n/2), and every short one
    # is violated: past the first boundary the stem S lies in the window and
    # recurs p letters away as the end of a whole tile; at the first boundary
    # the tail U recurs as a whole-tile prefix instead (else the occurrence
    # touches at most three tiles and explain points at the triples).
    j0, p = occ.start, occ.period
    q = p % n
    t_tiles = p // n
    window_end = j0 + occ.span - p - 1
    exhibited: dict[tuple[str, str, int], str] = {}
    first_boundary = (j0 // n + 1) * n
    for boundary in range(first_boundary, window_end + 1, n):
        if boundary - q >= j0:
            a = word.letter(boundary // n - 1)
            b = word.letter(boundary // n + t_tiles)
            exhibited.setdefault(
                (a, b, q), f"tile suffix of length {q} ending at boundary {boundary}"
            )
        if boundary + (n - q) - 1 <= window_end:
            b = word.letter(boundary // n)
            a = word.letter((boundary + p) // n)
            exhibited.setdefault(
                (a, b, n - q), f"tile prefix of length {n - q} starting at boundary {boundary}"
            )
    witnesses: dict[tuple[str, str, int], list] = {}
    for w in check_border_condition(m).witnesses:
        witnesses.setdefault((w.a, w.b, len(w.border)), []).append(w)
    lines: list[str] = []
    for (a, b, lv), how in exhibited.items():
        if lv > n // 2:
            lines.append(
                f"  shared border V={m.image(b)[:lv].text} between image({a!r}) and"
                f" image({b!r}) ({how}) is longer than floor(n/2)={n // 2};"
                " outside the border condition's reach"
            )
            continue
        found = witnesses[a, b, lv]
        w = found[0]
        lines.append(
            f"  shared border V={w.border.text} ({how}): image({a!r}) = S·V with"
            f" S={w.stem.text}, image({b!r}) = V·U with U={w.tail.text}"
        )
        hits = [
            f"S is a suffix of image({hit.offender!r})" if hit.side == "stem-suffix"
            else f"U is a prefix of image({hit.offender!r})"
            for hit in found
        ]
        lines.append("    border condition violated: " + "; ".join(hits))
    return lines
