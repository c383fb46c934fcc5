"""Plain-text morphism files.

The format is line oriented. '#' starts a comment (to end of line) and blank
lines are ignored. Two headers come before any rule, in either order, and
each appears at most once:

    alphabet: <letters>
    target: <letters>

The alphabet header is required; the target header is optional (default:
same as the alphabet). After the headers, exactly one rule per source letter:

    <letter> -> <image>

Letters are single characters and the alphabet line fixes their order.
Since '#' starts a comment, '#' cannot be a letter in a file.
format_morphism_file and parse_morphism_file round-trip.
"""

from __future__ import annotations

from .morphisms import Morphism
from .words import Alphabet, ParseError, parse_word

# header key -> what its value names in the "empty ..." message
_HEADERS = {"alphabet": "alphabet", "target": "target alphabet"}


def parse_morphism_file(text: str) -> Morphism:
    """Parse the file format above; ParseError carries the offending line."""
    headers: dict[str, str] = {}
    rules: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, value = line.partition(":")
        if colon and key in _HEADERS:
            if key in headers:
                raise ParseError(f"line {lineno}: duplicate {key} line")
            if rules:
                raise ParseError(f"line {lineno}: {key} line must precede the rules")
            headers[key] = value.strip()
            if not headers[key]:
                raise ParseError(f"line {lineno}: empty {_HEADERS[key]}")
        elif "->" in line:
            if "alphabet" not in headers:
                raise ParseError(f"line {lineno}: rule before the alphabet line")
            left, right = line.split("->", 1)
            letter = left.strip()
            if len(letter) != 1:
                raise ParseError(
                    f"line {lineno}: rule must map a single letter, got {letter!r}"
                )
            if letter not in headers["alphabet"]:
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
    if "alphabet" not in headers:
        raise ParseError("missing 'alphabet:' line")
    try:
        source = Alphabet.from_string(headers["alphabet"])
        target = Alphabet.from_string(headers["target"]) if "target" in headers else source
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
