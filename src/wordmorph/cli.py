"""Command line interface.

Exit codes are uniform across subcommands: 0 means pass / pattern-free / no
counterexample, 1 means a pattern, violation or counterexample was found,
and 2 means the invocation itself failed (bad arguments, unreadable or
malformed morphism file, letters outside the alphabet). Nothing is written
anywhere except stdout and stderr.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import json
import os
import sys
import time

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .certify import Direction, search_backward, search_forward
from .morphfile import format_morphism_file, parse_morphism_file
from .morphisms import Morphism, catalog, catalog_names, fixed_point_symbols
from .unstackable import (
    BorderWitness,
    EndWitness,
    ImageWitness,
    check_overlap_def,
    check_square_def,
)
from .words import Alphabet, Occurrence, ParseError, PatternKind, Word, find_pattern, parse_word

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

_EXIT_CODES = {"pass": EXIT_PASS, "none": EXIT_PASS, "fail": EXIT_FAIL, "found": EXIT_FAIL}

_WITNESS_PRINT_CAP = 8


@dataclass(frozen=True)
class _Report:
    """One command's outcome; main renders it as its text lines or as JSON.

    witness is the JSON witness of the first violation or counterexample.
    """

    verdict: str
    lines: list[str]
    witness: dict | None = None
    words_checked: int = 0
    max_len: int = 0


def load_morphism(ref: str) -> Morphism:
    """Resolve a morphism reference: file path first, then catalog name.

    An existing file shadows the catalog entry of the same spelling: a file
    named g4 in the working directory is loaded instead of catalog("g4"). A
    directory shadows nothing. Pipes such as /dev/stdin count as files. Files
    are read as UTF-8; a leading byte-order mark is skipped.
    """
    path = Path(ref)
    if path.exists() and not path.is_dir():
        return parse_morphism_file(path.read_text(encoding="utf-8-sig"))
    if ref in catalog_names():
        return catalog(ref)
    raise ParseError(f"no such morphism file or catalog name: {ref}")


def _occurrence_json(word: Word, occ: Occurrence, image: Word | None = None) -> dict:
    """The {word[, image], occurrence} witness of a located pattern."""
    witness: dict = {"word": word.text}
    if image is not None:
        witness["image"] = image.text
    witness["occurrence"] = {"kind": occ.kind.value, "start": occ.start, "period": occ.period}
    return witness


def _render_witness(w) -> tuple[dict, str]:
    """The JSON witness and the text line of one condition witness."""
    if isinstance(w, ImageWitness):
        occ = w.occurrence
        line = (
            f"word {w.word.text} -> image {w.image.text}:"
            f" {occ.kind.value} at start {occ.start}, period {occ.period}"
        )
        return _occurrence_json(w.word, occ, w.image), line
    if isinstance(w, BorderWitness):
        fields = {"a": w.a, "b": w.b, "V": w.border.text, "S": w.stem.text, "U": w.tail.text}
        what = "S is a suffix" if w.side == "stem-suffix" else "U is a prefix"
        line = " ".join(f"{name}={value}" for name, value in fields.items())
        return fields, f"{line}: {what} of the image of {w.offender!r}"
    if isinstance(w, EndWitness):
        where = "begin" if w.end == "first" else "end"
        line = f"images of {w.a!r} and {w.b!r} both {where} with {w.letter!r}"
        return {"a": w.a, "b": w.b}, line
    raise TypeError(f"unknown witness type: {type(w).__name__}")


def _cmd_check_word(args: argparse.Namespace) -> _Report:
    alphabet = Alphabet.from_string(args.alphabet)
    word = parse_word(args.word, alphabet)
    kind = PatternKind(args.pattern)
    occ = find_pattern(word, kind)
    if occ is None:
        return _Report("none", ["pattern-free"], None, 1, len(word))
    line = (
        f"found {kind.value} at start {occ.start}, period {occ.period}:"
        f" {occ.factor(word).text}"
    )
    return _Report("found", [line], _occurrence_json(word, occ), 1, len(word))


def _cmd_check_morphism(args: argparse.Namespace) -> _Report:
    m = load_morphism(args.morphism)
    kind = PatternKind(args.definition)
    verdict = (check_overlap_def if kind is PatternKind.OVERLAP else check_square_def)(m)
    lines = [f"definition: {verdict.definition.value}"]
    first = None
    for report in verdict.reports:
        status = "holds" if report.holds else f"FAILS ({len(report.witnesses)} witness(es))"
        lines.append(f"condition {report.condition}: {status}")
        lines += [f"  note: {note}" for note in report.notes]
        # JSON prints only the first witness, so it renders no other
        cap = (0 if first else 1) if args.json else _WITNESS_PRINT_CAP
        for w in report.witnesses[:cap]:
            witness, line = _render_witness(w)
            first = first or witness
            lines.append(f"  {line}")
        if len(report.witnesses) > _WITNESS_PRINT_CAP:
            lines.append(f"  ... {len(report.witnesses) - _WITNESS_PRINT_CAP} more")
    outcome = "pass" if verdict.passed else "fail"
    lines.append(f"verdict: {outcome}")
    return _Report(outcome, lines, first, verdict.words_checked, 3)


def _cmd_certify(args: argparse.Namespace) -> _Report:
    m = load_morphism(args.morphism)
    kind = PatternKind(args.pattern)
    directions = tuple(Direction) if args.direction == "both" else (Direction(args.direction),)
    lines = []
    total = 0
    for direction in directions:
        if direction is Direction.FORWARD:
            result, role = search_forward(m, kind, args.max_len), "free"
        else:
            result, role = search_backward(m, kind, args.max_len), "containing"
        lines.append(
            f"{direction.value}: checked {result.words_checked}"
            f" {kind.value}-{role} word(s) up to length {result.max_len}"
        )
        for length in sorted(result.checked_by_length):
            count = result.checked_by_length[length]
            if count:
                lines.append(f"  length {length}: {count}")
        total += result.words_checked
        cex = result.counterexample
        if cex is not None:
            break
    if cex is None:
        lines.append("no counterexample found")
        return _Report("none", lines, None, total, args.max_len)
    occ = cex.occurrence
    where = "image" if cex.direction is Direction.FORWARD else "word"
    lines += [
        f"counterexample ({cex.direction.value}):",
        f"  word:  {cex.word.text}",
        f"  image: {cex.image.text}",
        f"  {occ.kind.value} in the {where} at start {occ.start}, period {occ.period}",
    ]
    witness = _occurrence_json(cex.word, occ, cex.image)
    return _Report("found", lines, witness, total, args.max_len)


def _cmd_apply(args: argparse.Namespace) -> _Report:
    m = load_morphism(args.morphism)
    word = parse_word(args.word, m.source)
    return _Report("pass", [m.apply(word).text])


# glibc's mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 3 << 19  # 1.5 MiB


@functools.cache
def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 1.5 MiB and its trim threshold at 3 MiB.

    A 10^6-letter iterate allocates and frees two buffers of up to about
    1.25 MB: the symbol buffer, which grows by an eighth past what it holds,
    and the text, which charmap_decode grows by a quarter past what it holds
    before cutting it to size. Left alone, glibc slides both thresholds up
    to the largest mapped block freed so far (trim at twice mmap), so
    whether such a buffer is mapped afresh, with new page faults, or reuses
    warm heap, and how much freed heap stays resident, depends on what the
    process freed before. Fixed, those buffers come from the heap, larger
    ones are mapped and returned when freed, and the peak resident memory
    no longer depends on the order in which a process builds its big
    buffers. Does nothing where there is no mallopt.
    """
    if sys.platform != "linux":
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def _cmd_iterate(args: argparse.Namespace) -> _Report:
    _pin_malloc_thresholds()
    m = load_morphism(args.morphism)
    cut = len(m.source)  # the symbol of the last image, cut to --length
    # one byte per letter when every symbol, cut included, fits one
    buffer = bytearray if cut < 256 else list
    word, images, read = fixed_point_symbols(m, args.seed, args.length, buffer)
    # x[:N] is g(x[0]) ... g(x[read - 1]) for the power g whose images these
    # are, less what the last image adds past N. Shrinking word to the
    # letters read frees the rest of it before the text is built, so the
    # text reuses that memory, not fresh pages.
    surplus = len(word) - args.length
    del word[read:]
    images = [m.source.spell(image) for image in images]
    last = images[word[-1]]
    images.append(last[: len(last) - surplus])
    word[-1] = cut
    if buffer is bytearray:
        # each letter through a tuple of strings: no list of pieces is built
        text = codecs.charmap_decode(word, "strict", tuple(images))[0]
    else:
        text = "".join([images[s] for s in word])
    return _Report("pass", [text])


def _cmd_catalog(args: argparse.Namespace) -> _Report:
    if args.action == "list":
        if args.name is not None:
            raise ParseError(f"catalog list takes no name, got {args.name!r}")
        return _Report("pass", list(catalog_names()))
    if args.name is None:
        raise ParseError("catalog show needs a name; try: catalog show leech")
    text = format_morphism_file(catalog(args.name), comment=f"catalog morphism {args.name}")
    return _Report("pass", text.splitlines())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use.

    Building it costs about 1.3 ms, mostly argparse's HelpFormatter set-up
    (one formatter, with its terminal-size query, per argument added) and
    gettext lookups: most of a short in-process main() call. parse_args
    keeps no state between calls and returns a fresh Namespace each time, so
    one parser serves every call.
    """
    parser = argparse.ArgumentParser(
        prog="wordmorph",
        description=(
            "Check words for squares, overlaps and cubes; check uniform"
            " morphisms against sufficient pattern-preservation conditions;"
            " certify morphisms by bounded search."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-word", help="search one word for a pattern")
    p.add_argument("word", help="the word, one character per letter")
    p.add_argument(
        "--pattern",
        required=True,
        choices=[k.value for k in PatternKind],
        help="pattern to search for",
    )
    p.add_argument("--alphabet", required=True, help="alphabet letters in order")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=_cmd_check_word)

    p = sub.add_parser(
        "check-morphism",
        help="run the sufficient conditions for a uniform morphism",
        description=(
            "Runs the image-triple and border conditions, and for --def"
            " square the marked-ends condition as well."
            " The border condition: for every ordered pair of letters a, b,"
            " a == b included, and every V with 1 <= |V| <= floor(n/2) such"
            " that image(a) == S + V and image(b) == V + U, S is a suffix of"
            " no image and U is a prefix of no image."
            " A passing morphism preserves pattern-freeness; the"
            " certify subcommand provides the brute-force cross-check."
        ),
    )
    p.add_argument("morphism", help="morphism file path or catalog name")
    p.add_argument(
        "--def",
        dest="definition",
        required=True,
        choices=[PatternKind.OVERLAP.value, PatternKind.SQUARE.value],
        help="which condition bundle to run",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=_cmd_check_morphism)

    p = sub.add_parser(
        "certify", help="bounded search for pattern-preservation counterexamples"
    )
    p.add_argument("morphism", help="morphism file path or catalog name")
    p.add_argument(
        "--pattern",
        required=True,
        choices=[k.value for k in PatternKind],
        help="pattern whose preservation is certified",
    )
    p.add_argument("--max-len", type=int, required=True, help="word length bound")
    p.add_argument(
        "--direction",
        choices=[d.value for d in Direction] + ["both"],
        default="both",
        help="forward: pattern-free words; backward: pattern-containing words",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("apply", help="apply a morphism to a word")
    p.add_argument("morphism", help="morphism file path or catalog name")
    p.add_argument("word", help="word over the source alphabet")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("iterate", help="fixed-point prefix by repeated application")
    p.add_argument("morphism", help="morphism file path or catalog name")
    p.add_argument("--seed", required=True, help="letter the iteration starts from")
    p.add_argument("--length", type=int, required=True, help="prefix length to produce")
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("catalog", help="list or show the built-in morphisms")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", help="catalog name (for show)")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        report = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if getattr(args, "json", False):
        out: dict = {"command": args.command, "verdict": report.verdict}
        if report.witness is not None:
            out["witness"] = report.witness
        out["stats"] = {
            "words_checked": report.words_checked,
            "max_len": report.max_len,
            "elapsed_ms": int((time.monotonic() - t0) * 1000),
        }
        text = json.dumps(out)
    else:
        text = "\n".join(report.lines)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe early and has what it wanted
        _drop_stdout()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return _EXIT_CODES[report.verdict]


def _drop_stdout() -> None:
    # Point stdout's descriptor at devnull, so that a later flush, such as
    # the interpreter's last one, does not fail on the closed pipe again. A
    # stdout with no descriptor is left alone.
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
