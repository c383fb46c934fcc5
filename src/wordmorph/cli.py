"""Command line interface.

Exit codes are uniform across subcommands: 0 means pass / pattern-free / no
counterexample, 1 means a pattern, violation or counterexample was found,
and 2 means the invocation itself failed (bad arguments, unreadable or
malformed morphism file, letters outside the alphabet). Nothing is written
anywhere except stdout and stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from collections.abc import Sequence
from pathlib import Path

from .certify import Direction, SearchResult, search_backward, search_forward
from .morphfile import format_morphism_file, parse_morphism_file
from .morphisms import Morphism, catalog, catalog_names, iterate_prefix
from .unstackable import (
    BorderWitness,
    EndWitness,
    ImageWitness,
    Verdict,
    check_overlap_def,
    check_square_def,
    pattern_free_triples,
)
from .words import Alphabet, Occurrence, ParseError, PatternKind, Word, find_pattern, parse_word

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

_WITNESS_PRINT_CAP = 8


def load_morphism(ref: str) -> Morphism:
    """Resolve a morphism reference: file path first, then catalog name.

    An existing path shadows the catalog entry of the same spelling: a file
    named g4 in the working directory is loaded instead of catalog("g4").
    """
    path = Path(ref)
    if path.exists():
        return parse_morphism_file(path.read_text(encoding="utf-8"))
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


def _witness_json(w) -> dict:
    if isinstance(w, ImageWitness):
        return _occurrence_json(w.word, w.occurrence, w.image)
    if isinstance(w, BorderWitness):
        return {
            "a": w.a,
            "b": w.b,
            "V": w.border.text,
            "S": w.stem.text,
            "U": w.tail.text,
        }
    if isinstance(w, EndWitness):
        return {"a": w.a, "b": w.b}
    raise TypeError(f"unknown witness type: {type(w).__name__}")


def _emit_json(command: str, verdict: str, witness: dict | None, stats: dict) -> None:
    report: dict = {"command": command, "verdict": verdict}
    if witness is not None:
        report["witness"] = witness
    report["stats"] = stats
    print(json.dumps(report))


def _stats(words_checked: int, max_len: int, t0: float) -> dict:
    return {
        "words_checked": words_checked,
        "max_len": max_len,
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }


def _witness_line(w) -> str:
    if isinstance(w, ImageWitness):
        occ = w.occurrence
        return (
            f"word {w.word.text} -> image {w.image.text}:"
            f" {occ.kind.value} at start {occ.start}, period {occ.period}"
        )
    if isinstance(w, BorderWitness):
        what = (
            f"S is a suffix of the image of {w.offender!r}"
            if w.side == "stem-suffix"
            else f"U is a prefix of the image of {w.offender!r}"
        )
        return (
            f"a={w.a} b={w.b} V={w.border.text} S={w.stem.text} U={w.tail.text}: {what}"
        )
    if isinstance(w, EndWitness):
        where = "begin" if w.end == "first" else "end"
        return f"images of {w.a!r} and {w.b!r} both {where} with {w.letter!r}"
    raise TypeError(f"unknown witness type: {type(w).__name__}")


def _print_verdict(verdict: Verdict) -> None:
    print(f"definition: {verdict.definition.value}")
    for report in verdict.reports:
        status = "holds" if report.holds else f"FAILS ({len(report.witnesses)} witness(es))"
        print(f"condition {report.condition}: {status}")
        for note in report.notes:
            print(f"  note: {note}")
        for w in report.witnesses[:_WITNESS_PRINT_CAP]:
            print(f"  {_witness_line(w)}")
        if len(report.witnesses) > _WITNESS_PRINT_CAP:
            print(f"  ... {len(report.witnesses) - _WITNESS_PRINT_CAP} more")
    print(f"verdict: {'pass' if verdict.passed else 'fail'}")


def _cmd_check_word(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    alphabet = Alphabet.from_string(args.alphabet)
    word = parse_word(args.word, alphabet)
    kind = PatternKind(args.pattern)
    occ = find_pattern(word, kind)
    if args.json:
        _emit_json(
            "check-word",
            "none" if occ is None else "found",
            None if occ is None else _occurrence_json(word, occ),
            _stats(1, len(word), t0),
        )
    elif occ is None:
        print("pattern-free")
    else:
        print(
            f"found {kind.value} at start {occ.start}, period {occ.period}:"
            f" {occ.factor(word).text}"
        )
    return EXIT_PASS if occ is None else EXIT_FAIL


def _cmd_check_morphism(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    m = load_morphism(args.morphism)
    kind = PatternKind(args.definition)
    verdict = (check_overlap_def if kind is PatternKind.OVERLAP else check_square_def)(m)
    if args.json:
        witness = None
        for report in verdict.reports:
            if report.witnesses:
                witness = _witness_json(report.witnesses[0])
                break
        scanned = len(pattern_free_triples(m.source, kind))
        _emit_json(
            "check-morphism",
            "pass" if verdict.passed else "fail",
            witness,
            _stats(scanned, 3, t0),
        )
    else:
        _print_verdict(verdict)
    return EXIT_PASS if verdict.passed else EXIT_FAIL


def _cmd_certify(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    m = load_morphism(args.morphism)
    kind = PatternKind(args.pattern)
    directions = tuple(Direction) if args.direction == "both" else (Direction(args.direction),)
    results: list[SearchResult] = []
    for direction in directions:
        search = search_forward if direction is Direction.FORWARD else search_backward
        result = search(m, kind, args.max_len)
        results.append(result)
        if result.counterexample is not None:
            break
    cex = next((r.counterexample for r in results if r.counterexample), None)
    total = sum(r.words_checked for r in results)
    if args.json:
        witness = None if cex is None else _occurrence_json(cex.word, cex.occurrence, cex.image)
        _emit_json(
            "certify", "none" if cex is None else "found", witness, _stats(total, args.max_len, t0)
        )
        return EXIT_PASS if cex is None else EXIT_FAIL
    for result in results:
        role = "free" if result.direction is Direction.FORWARD else "containing"
        print(
            f"{result.direction.value}: checked {result.words_checked}"
            f" {kind.value}-{role} word(s) up to length {result.max_len}"
        )
        for length in sorted(result.checked_by_length):
            count = result.checked_by_length[length]
            if count:
                print(f"  length {length}: {count}")
    if cex is None:
        print("no counterexample found")
        return EXIT_PASS
    occ = cex.occurrence
    where = "image" if cex.direction is Direction.FORWARD else "word"
    print(f"counterexample ({cex.direction.value}):")
    print(f"  word:  {cex.word.text}")
    print(f"  image: {cex.image.text}")
    print(
        f"  {occ.kind.value} in the {where} at start {occ.start}, period {occ.period}"
    )
    return EXIT_FAIL


def _cmd_apply(args: argparse.Namespace) -> int:
    m = load_morphism(args.morphism)
    word = parse_word(args.word, m.source)
    print(m.apply(word).text)
    return EXIT_PASS


def _cmd_iterate(args: argparse.Namespace) -> int:
    m = load_morphism(args.morphism)
    print(iterate_prefix(m, args.seed, args.length).text)
    return EXIT_PASS


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name in catalog_names():
            print(name)
        return EXIT_PASS
    if args.name is None:
        raise ParseError("catalog show needs a name; try: catalog show leech")
    print(format_morphism_file(catalog(args.name), comment=f"catalog morphism {args.name}"), end="")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
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
            "Runs the image-triple, marked-ends and border conditions."
            " Borders are nonempty: every word V with 1 <= |V| <= floor(n/2)"
            " that is simultaneously a suffix of one image and a prefix of"
            " another must leave remainders that match no image suffix or"
            " prefix. A passing morphism preserves pattern-freeness; the"
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
        choices=[PatternKind.OVERLAP.value, PatternKind.SQUARE.value, PatternKind.CUBE.value],
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
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
