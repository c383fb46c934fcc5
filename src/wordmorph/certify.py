"""Bounded brute-force certification of morphisms, plus alignment diagnostics.

Certification is the independent cross-check for the condition bundles: it
enumerates source words shortest-first and hunts for a counterexample to
pattern preservation in either direction. The diagnostics replay the tiling
arithmetic that makes the conditions sufficient, turning a counterexample
into a readable account of where the image repetition sits relative to the
uniform tiles.
"""

from __future__ import annotations

import itertools

from dataclasses import dataclass
from enum import Enum, unique

from .morphisms import Morphism
from .unstackable import border_offenders, short_borders
from .words import (
    Occurrence,
    PatternKind,
    Word,
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
    """Whether the letter permutations commuting with m map letter 0 to every letter.

    A permutation sigma of the letters commutes with m when m(sigma(a)) =
    sigma(m(a)) for every letter a, which needs m.source == m.target. Such a
    sigma maps kind-free words to kind-free words and occurrences to
    occurrences with the same start and period, so w is a counterexample in
    either direction exactly when sigma(w) is. The permutations that commute
    form a group; when it maps 0 to every letter, every word has a copy
    starting with 0.
    """
    if m.source != m.target:
        return False
    images = [im.symbols for im in m.images]
    return all(
        _commuting_permutation(images, b) is not None for b in range(1, len(images))
    )


def _commuting_permutation(images: list[tuple[int, ...]], b: int) -> dict[int, int] | None:
    # Fix sigma(0) = b and propagate sigma(m(x)[i]) = m(sigma(x))[i]
    # through the images. Where that leaves letters unassigned, map the
    # least of them to the least unused letter and propagate again; None at
    # the first conflict. Every assigned letter's image is compared with the
    # image of its target letter, position by position, so a map this
    # completes commutes with m and needs no second check. No choice
    # needs undoing when the group maps 0 to every letter: then every letter
    # reaches equally many letters through the images, so the letters one
    # letter reaches form a block that each of them reaches, and group
    # elements map blocks onto blocks. The assigned letters fill whole
    # blocks on both sides, so the free and the unused letter lie in
    # untouched blocks, and propagating from one to the other builds the
    # restriction of the group element that maps one to the other.
    k = len(images)
    sigma: dict[int, int] = {}
    used: set[int] = set()
    a, c = 0, b
    while True:
        sigma[a] = c
        used.add(c)
        todo = [a]
        while todo:
            x = todo.pop()
            src, dst = images[x], images[sigma[x]]
            if len(src) != len(dst):
                return None
            for s, t in zip(src, dst):
                if s not in sigma:
                    if t in used:
                        return None
                    sigma[s] = t
                    used.add(t)
                    todo.append(s)
                elif sigma[s] != t:
                    return None
        if len(sigma) == k:
            return sigma
        a = min(x for x in range(k) if x not in sigma)
        c = min(y for y in range(k) if y not in used)


def search_forward(m: Morphism, kind: PatternKind, max_len: int) -> SearchResult:
    """Scan images of every kind-free word up to max_len, shortest first.

    Enumeration order makes any counterexample minimal: shortest word first,
    lexicographically least among those, minimal occurrence inside its image.

    When the letter permutations commuting with m map 0 to every letter
    (`_one_orbit`), only the words starting with 0 are scanned: every other
    word is a permuted copy of one of them, with a counterexample exactly
    when its copy has one. The count at each length below the stop is then
    k times the 0-word count, and the witness and the count at the stop
    length are those of the full search, because the least counterexample
    starts with 0.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    one_orbit = _one_orbit(m)
    checked = {length: 0 for length in range(1, max_len + 1)}
    cex = None
    for w in enumerate_pattern_free(m.source, kind, max_len):
        if one_orbit and w.symbols[0]:
            continue
        checked[len(w)] += 1
        image = m.apply(w)
        occ = find_pattern(image, kind)
        if occ is not None:
            cex = Counterexample(Direction.FORWARD, w, image, occ)
            break
    if one_orbit:
        # Below the stop length a permutation with sigma(0) = b maps the
        # kind-free 0-words one-to-one onto the b-words. At the stop length
        # the full search saw only 0-words, because the least counterexample
        # starts with 0 (some sigma maps its first letter to 0 and gives a
        # smaller one otherwise).
        stop = None if cex is None else len(cex.word)
        k = len(m.source)
        checked = {
            length: n if length == stop else k * n for length, n in checked.items()
        }
    return SearchResult(Direction.FORWARD, kind, max_len, cex, checked)


def search_backward(m: Morphism, kind: PatternKind, max_len: int) -> SearchResult:
    """Check the image of every kind-containing word up to max_len, shortest first.

    Words of each length are walked in lexicographic order, and the list
    `prev` holds, at each word's lexicographic rank, an occurrence of the
    pattern in the word's image, or None if the word is kind-free. The
    parent (the word less its last letter) of the word of rank r has rank
    r // k. A child of a kind-containing parent contains the parent's
    occurrence, and since h(child) = h(parent) h(last letter), it inherits
    the parent's image occurrence at the same offset. Only children of
    kind-free parents are scanned. An occurrence at start i with period p in
    the word, the prefix of length span(p) = m*p + span(0) of uuu... for
    u = w[i:i+p], maps under any non-erasing h to one at start |h(w[:i])|
    with period P = |h(u)|: its image h(u)^m h(u[:span(0)]) begins with the
    prefix of length m*P + span(0) = span(P) of h(u)h(u)....

    Each kind-containing word's image is still built, and the occurrence is
    confirmed on it by a letter comparison in O(span). Only if that fails is
    the image scanned in full, and only if the scan finds nothing is the word
    a counterexample, reported with its minimal occurrence. Counts, witness
    and stop point are those of scanning every word and every image.

    The rank list keeps one reference per word of the current length: k^L
    at the last length, 65,536 references (0.5 MB) for g4 at max_len 8.
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
    prev: list[Occurrence | None] = [None]
    for length in range(1, max_len + 1):
        cur: list[Occurrence | None] = []
        for rank, t in enumerate(itertools.product(range(k), repeat=length)):
            w = Word(t, m.source)
            image_occ = prev[rank // k]
            if image_occ is None:
                occ = find_pattern(w, kind)
                if occ is not None:
                    i, p = occ.start, occ.period
                    image_occ = Occurrence(
                        kind,
                        sum(image_len[s] for s in t[:i]),
                        sum(image_len[s] for s in t[i:i + p]),
                    )
            if image_occ is not None:
                checked[length] += 1
                image = m.apply(w)
                if not image_occ.matches(image):
                    image_occ = find_pattern(image, kind)
                    if image_occ is None:
                        cex = Counterexample(
                            Direction.BACKWARD, w, image, find_pattern(w, kind)
                        )
                        return SearchResult(Direction.BACKWARD, kind, max_len, cex, checked)
            cur.append(image_occ)
        prev = cur
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


def _four_tile_case(r0: int, r1: int, r2: int) -> AlignmentCase | None:
    # The four orders realisable when the occurrence touches exactly four
    # tiles; r1 strictly between r0 and r2 fits none of them.
    if r1 > r0 and r1 > r2:
        return AlignmentCase.R0_LE_R2_LT_R1 if r0 <= r2 else AlignmentCase.R2_LT_R0_LT_R1
    if r1 < r0 and r1 < r2:
        return AlignmentCase.R1_LT_R0_LE_R2 if r0 <= r2 else AlignmentCase.R1_LT_R2_LT_R0
    return None


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
    first = occ.start // n
    last = (occ.start + occ.span - 1) // n
    tile_span = last - first + 1
    if occ.period % n == 0:
        case = AlignmentCase.ALIGNED
    else:
        four = _four_tile_case(r0, r1, r2)
        if tile_span > 4 or four is None:
            case = AlignmentCase.LONG_R0_LT_R1 if r0 < r1 else AlignmentCase.LONG_R1_LT_R0
        else:
            case = four
    return AlignmentDiagnosis(r0, r1, r2, tile_span, case)


def explain(m: Morphism, cex: Counterexample) -> str:
    """Render a forward counterexample as a readable tiling diagnosis.

    For a uniform morphism the report names the mark residues and alignment
    case, the tiles the occurrence touches, and then either reconstructs the
    forced preimage repetition (aligned case), points at the length-3 factor
    whose image already contains the pattern (occurrences on at most three
    tiles), or exhibits the shared border between image ends and the violated
    stem/tail requirement (wider misaligned occurrences). Non-uniform
    morphisms get a positions-only report. A word that itself contains the
    pattern is no forward counterexample and raises ValueError, like any
    other inconsistent input.
    """
    if cex.direction is not Direction.FORWARD:
        raise ValueError("only forward counterexamples are explained")
    kind = cex.occurrence.kind
    if kind not in (PatternKind.OVERLAP, PatternKind.SQUARE):
        raise ValueError("explanations cover overlap and square counterexamples only")
    if m.apply(cex.word).symbols != cex.image.symbols:
        raise ValueError("counterexample image does not come from this morphism")
    if not cex.occurrence.matches(cex.image):
        raise ValueError("counterexample occurrence fails its own re-check")
    if find_pattern(cex.word, kind) is not None:
        raise ValueError(f"counterexample word is not {kind.value}-free")

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
    tile_span = last_tile - first_tile + 1
    lines.append(
        f"  tiles are the {n}-letter images; occurrence touches tiles"
        f" {first_tile}..{last_tile} ({tile_span} of them)"
    )

    if kind is PatternKind.OVERLAP:
        diag = classify_alignment(occ, n)
        lines.append(
            f"  mark residues mod {n}: r0={diag.r0} r1={diag.r1} r2={diag.r2};"
            f" case {diag.case_label.value}"
        )
    else:
        r0, r1 = j0 % n, (j0 + p) % n
        lines.append(
            f"  start-mark residues mod {n}: r0={r0} r1={r1};"
            f" {'aligned' if p % n == 0 else 'misaligned'}"
        )

    if p % n == 0:
        lines.extend(_explain_aligned(m, word, image, occ, n))
    elif tile_span <= 3:
        lines.extend(_explain_short(word, occ, first_tile, last_tile))
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
    if kind is PatternKind.OVERLAP:
        tiles = (s0, s0 + qt, s0 + 2 * qt)
        stretch = word[s0:s0 + 2 * qt + 1]
    else:
        end0, end1 = j0 + p - 1, j0 + 2 * p - 1
        lines.append(
            f"  repeated marks: letter {image.letter(j0)!r} opens both halves"
            f" (image positions {j0} and {j0 + p}), letter {image.letter(end0)!r}"
            f" closes them (positions {end0} and {end1})"
        )
        tiles = (s0, s0 + qt)
        stretch = word[s0:s0 + 2 * qt]
    letters = [word.letter(s) for s in tiles]
    lines.append(
        "  mark tiles and their source letters: "
        + ", ".join(f"tile {s} <- {d!r}" for s, d in zip(tiles, letters))
    )
    # The image repeats with period p == qt tiles across the occurrence, so
    # tile contents repeat; if the word did the same it would carry the
    # pattern itself.
    base = stretch.symbols[:qt]
    reps = -(-len(stretch) // qt)
    ideal = Word((base * reps)[:len(stretch)], word.alphabet)
    lines.append(
        f"  tile contents repeat every {qt} tile(s); a preimage doing the same"
        f" over tiles {s0}..{s0 + len(stretch) - 1} would read {ideal.text}"
    )
    # The word is kind-free, so the stretch, 2*qt (+ 1) letters long, is not
    # periodic with period qt and differs from the ideal somewhere.
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


def _explain_short(word: Word, occ: Occurrence, first_tile: int, last_tile: int) -> list[str]:
    factor = word[first_tile:last_tile + 1]
    return [
        f"  the occurrence fits inside the image of the word factor"
        f" {factor.text!r} (positions {first_tile}..{last_tile}, length {len(factor)})",
        f"  a {occ.kind.value} inside the image of at most three letters is"
        f" exactly what the {occ.kind.value}-triples condition forbids;"
        " its report carries the offending triple",
    ]


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
    # touches at most three tiles and _explain_short handles it).
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
    short = {
        (a, b, len(border)): (border, stem, tail)
        for a, b, border, stem, tail in short_borders(m)
    }
    lines: list[str] = []
    for (a, b, lv), how in exhibited.items():
        if (a, b, lv) not in short:
            lines.append(
                f"  shared border V={m.image(b)[:lv].text} between image({a!r}) and"
                f" image({b!r}) ({how}) is longer than floor(n/2)={n // 2};"
                " outside the border condition's reach"
            )
            continue
        border, stem, tail = short[a, b, lv]
        lines.append(
            f"  shared border V={border.text} ({how}): image({a!r}) = S·V with"
            f" S={stem.text}, image({b!r}) = V·U with U={tail.text}"
        )
        hits = [
            f"S is a suffix of image({c!r})" if side == "stem-suffix"
            else f"U is a prefix of image({c!r})"
            for side, c in border_offenders(m, stem, tail)
        ]
        lines.append("    border condition violated: " + "; ".join(hits))
    return lines
