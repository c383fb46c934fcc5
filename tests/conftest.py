"""Shared helpers for the test suite."""

from __future__ import annotations

import subprocess
import sys

import pytest

from wordmorph import Morphism, Occurrence, PatternKind, Word


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "wordmorph", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def assert_same_as_validated(word: Word) -> None:
    # A word the library built without Word's own check must be the word
    # that check would have built: tuple symbols, equal and equally hashed.
    validated = Word(word.symbols, word.alphabet)
    assert type(word.symbols) is tuple
    assert word == validated
    assert hash(word) == hash(validated)


@pytest.fixture
def word_checks(monkeypatch) -> list[Word]:
    """Every word that runs Word.__post_init__ while the test runs."""
    checked: list[Word] = []
    post_init = Word.__post_init__

    def counting_post_init(self: Word) -> None:
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(Word, "__post_init__", counting_post_init)
    return checked


def occurs_at(sym: tuple[int, ...], kind: PatternKind, i: int, p: int) -> bool:
    """Whether the pattern with period p starts at i, written out from its definition.

    The caller keeps i, p and the pattern's length inside sym.
    """
    head = sym[i:i + p]  # X for squares and cubes, cX for overlaps
    if kind is PatternKind.SQUARE:
        written = head + head
    elif kind is PatternKind.OVERLAP:
        written = head + head + head[:1]
    else:
        written = head + head + head
    return sym[i:i + len(written)] == written


def naive_find_pattern(word: Word, kind: PatternKind, min_span: int = 0) -> Occurrence | None:
    # A quadratic scan over (period, start), the order of the witness contract,
    # from the first period whose span is at least min_span.
    sym = word.symbols
    n = len(sym)
    p = 1
    while kind.span(p) < min_span:
        p += 1
    while kind.span(p) <= n:
        for i in range(n - kind.span(p) + 1):
            if occurs_at(sym, kind, i, p):
                return Occurrence(kind, i, p)
        p += 1
    return None


def brute_border_witnesses(m: Morphism) -> list[tuple[str, str, str, str, str, str, str]]:
    # Every (a, b, V, S, U, side, offender) over plain strings: each short
    # prefix V of image(b) that ends image(a), then each image ending with S,
    # then each image beginning with U.
    images = [(c, m.image(c).text) for c in m.source.letters]
    n = m.uniform_length()
    out = []
    for a, ia in images:
        for b, ib in images:
            for lv in range(1, n // 2 + 1):
                v, s, u = ib[:lv], ia[:-lv], ib[lv:]
                if ia.endswith(v):
                    out += [(a, b, v, s, u, "stem-suffix", c) for c, ic in images if ic.endswith(s)]
                    out += [(a, b, v, s, u, "tail-prefix", c) for c, ic in images if ic.startswith(u)]
    return out


# Frozen JSON report schema shared by the CLI tests and the acceptance gate.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "verdict", "stats"],
    "additionalProperties": False,
    "properties": {
        "command": {"enum": ["check-word", "check-morphism", "certify"]},
        "verdict": {"enum": ["pass", "fail", "none", "found"]},
        "witness": {
            "type": "object",
            "oneOf": [
                {
                    "required": ["word", "occurrence"],
                    "additionalProperties": False,
                    "properties": {
                        "word": {"type": "string"},
                        "image": {"type": "string"},
                        "occurrence": {
                            "type": "object",
                            "required": ["kind", "start", "period"],
                            "additionalProperties": False,
                            "properties": {
                                "kind": {"enum": ["square", "overlap", "cube"]},
                                "start": {"type": "integer", "minimum": 0},
                                "period": {"type": "integer", "minimum": 1},
                            },
                        },
                    },
                },
                {
                    "required": ["a", "b"],
                    "additionalProperties": False,
                    "properties": {
                        "a": {"type": "string"},
                        "b": {"type": "string"},
                        "V": {"type": "string"},
                        "S": {"type": "string"},
                        "U": {"type": "string"},
                    },
                },
            ],
        },
        "stats": {
            "type": "object",
            "required": ["words_checked", "max_len", "elapsed_ms"],
            "additionalProperties": False,
            "properties": {
                "words_checked": {"type": "integer", "minimum": 0},
                "max_len": {"type": "integer", "minimum": 0},
                "elapsed_ms": {"type": "integer", "minimum": 0},
            },
        },
    },
}
