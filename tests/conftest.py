"""Shared helpers for the test suite."""

from __future__ import annotations

import subprocess
import sys

import pytest

from wordmorph import Morphism, Word


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


def brute_border_violations(m: Morphism) -> list[tuple[str, str, str]]:
    # Independent re-derivation over plain strings of every (a, b, V) with
    # |V| <= floor(n/2) whose S or U matches an image end, deliberately
    # written differently from the library scan.
    images = {a: m.image(a).text for a in m.source.letters}
    n = m.uniform_length()
    bad = []
    for a, ia in images.items():
        for b, ib in images.items():
            for lv in range(1, n // 2 + 1):
                if ia[n - lv:] != ib[:lv]:
                    continue
                stem, tail = ia[:n - lv], ib[lv:]
                if any(img.endswith(stem) for img in images.values()) or any(
                    img.startswith(tail) for img in images.values()
                ):
                    bad.append((a, b, ib[:lv]))
    return bad


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
