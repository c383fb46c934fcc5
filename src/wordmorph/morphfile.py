"""Plain-text morphism files.

The format is line oriented. '#' starts a comment (to end of line) and blank
lines are ignored. The first meaningful line must be the header

    alphabet: <letters>

optionally followed by

    target: <letters>

(default: same as the alphabet). After the headers, exactly one rule per
source letter:

    <letter> -> <image>

Letters are single characters and the alphabet line fixes their order.
Since '#' starts a comment, '#' cannot be a letter in a file.
format_morphism_file and parse_morphism_file round-trip.
"""

from __future__ import annotations

from .morphisms import Morphism
from .words import Alphabet, ParseError, parse_word


def parse_morphism_file(text: str) -> Morphism:
    """Parse the file format above; ParseError carries the offending line."""
    source_letters: str | None = None
    target_letters: str | None = None
    rules: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            if source_letters is not None:
                raise ParseError(f"line {lineno}: duplicate alphabet line")
            if rules:
                raise ParseError(f"line {lineno}: alphabet line must precede the rules")
            source_letters = line[len("alphabet:"):].strip()
            if not source_letters:
                raise ParseError(f"line {lineno}: empty alphabet")
        elif line.startswith("target:"):
            if target_letters is not None:
                raise ParseError(f"line {lineno}: duplicate target line")
            if rules:
                raise ParseError(f"line {lineno}: target line must precede the rules")
            target_letters = line[len("target:"):].strip()
            if not target_letters:
                raise ParseError(f"line {lineno}: empty target alphabet")
        elif "->" in line:
            if source_letters is None:
                raise ParseError(f"line {lineno}: rule before the alphabet line")
            left, right = line.split("->", 1)
            letter = left.strip()
            if len(letter) != 1:
                raise ParseError(
                    f"line {lineno}: rule must map a single letter, got {letter!r}"
                )
            if letter not in source_letters:
                raise ParseError(
                    f"line {lineno}: rule for {letter!r}, which is not in the alphabet"
                )
            if letter in rules:
                raise ParseError(f"line {lineno}: duplicate rule for {letter!r}")
            rules[letter] = (lineno, right.strip())
        else:
            raise ParseError(
                f"line {lineno}: expected 'alphabet:', 'target:' or"
                f" '<letter> -> <image>', got {line!r}"
            )
    if source_letters is None:
        raise ParseError("missing 'alphabet:' line")
    try:
        source = Alphabet.from_string(source_letters)
        target = source if target_letters is None else Alphabet.from_string(target_letters)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    missing = [ch for ch in source.letters if ch not in rules]
    if missing:
        raise ParseError(
            "missing rule for letter(s): " + ", ".join(repr(ch) for ch in missing)
        )
    images = []
    for ch in source.letters:
        lineno, image_text = rules[ch]
        if not image_text:
            raise ParseError(f"line {lineno}: empty image for {ch!r} (erasing rule)")
        try:
            images.append(parse_word(image_text, target))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}", position=exc.position) from None
    return Morphism(source, target, tuple(images))


def format_morphism_file(m: Morphism, comment: str | None = None) -> str:
    """Render a morphism in the file format; inverse of parse_morphism_file.

    Raises ValueError when a letter is '#', which the format reads as a comment.
    """
    if "#" in m.source or "#" in m.target:
        raise ValueError("'#' starts a comment in a morphism file and cannot be a letter")
    lines = []
    if comment:
        lines.extend(f"# {part}" for part in comment.splitlines())
    lines.append(f"alphabet: {''.join(m.source.letters)}")
    if m.target != m.source:
        lines.append(f"target: {''.join(m.target.letters)}")
    for letter, image in zip(m.source.letters, m.images):
        lines.append(f"{letter} -> {image.text}")
    return "\n".join(lines) + "\n"
