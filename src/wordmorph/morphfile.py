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

Each line is checked completely as it is read, so a ParseError names the
first faulty line ("line N: ..."); a missing alphabet line or missing rules
are reported only when no line is at fault. The CLI skips a leading UTF-8
byte-order mark.
"""

from __future__ import annotations

from .morphisms import Morphism
from .words import Alphabet, ParseError, Word, parse_word

# header key -> what its value names in the "empty ..." message
_HEADERS = {"alphabet": "alphabet", "target": "target alphabet"}


def parse_morphism_file(text: str) -> Morphism:
    """Parse the file format above; ParseError names the first faulty line."""
    headers: dict[str, Alphabet] = {}
    images: dict[str, Word] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key, colon, value = line.partition(":")
            if colon and key in _HEADERS:
                if key in headers:
                    raise ParseError(f"duplicate {key} line")
                if images:
                    raise ParseError(f"{key} line must precede the rules")
                if not value.strip():
                    raise ParseError(f"empty {_HEADERS[key]}")
                headers[key] = Alphabet.from_string(value.strip())
            elif "->" in line:
                if "alphabet" not in headers:
                    raise ParseError("rule before the alphabet line")
                letter, image = (part.strip() for part in line.split("->", 1))
                if len(letter) != 1:
                    raise ParseError(f"rule must map a single letter, got {letter!r}")
                if letter not in headers["alphabet"]:
                    raise ParseError(f"rule for {letter!r}, which is not in the alphabet")
                if letter in images:
                    raise ParseError(f"duplicate rule for {letter!r}")
                if not image:
                    raise ParseError(f"empty image for {letter!r} (erasing rule)")
                images[letter] = parse_word(image, headers.get("target", headers["alphabet"]))
            else:
                raise ParseError(
                    "expected 'alphabet:', 'target:' or '<letter> -> <image>',"
                    f" got {line!r}"
                )
        except ValueError as exc:
            position = getattr(exc, "position", None)
            raise ParseError(f"line {lineno}: {exc}", position=position) from None
    if "alphabet" not in headers:
        raise ParseError("missing 'alphabet:' line")
    source = headers["alphabet"]
    missing = [ch for ch in source.letters if ch not in images]
    if missing:
        raise ParseError("missing rule for letter(s): " + ", ".join(map(repr, missing)))
    target = headers.get("target", source)
    return Morphism(source, target, tuple(images[ch] for ch in source.letters))


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
