"""The three workloads: their seeded inputs, their requests and the output checks.

A workload turns a seed into inputs before any timing starts, then yields the
requests of one pass. Each request carries the check of its own output,
which the runner calls after the pass, outside the timed region. Every
expected value comes from the oracle module, never from wordmorph.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

ITERATE_LENGTH = 1_000_000


@dataclass
class Outcome:
    """What one request returned: exit code (None for library calls), stdout,
    the per-length counts of every certify search it ran, and any exception.
    seconds is its wall time less the speed samples taken inside it, and
    span its (start, end) on the perf_counter timeline."""

    seconds: float
    code: int | None
    out: str
    searches: list[dict[int, int]]
    error: str | None = None
    span: tuple[float, float] = (0.0, 0.0)


@dataclass
class Request:
    """One request of a pass: a CLI argv, or a library call returning text.

    check returns None for a correct outcome or a one-line reason. words and
    letters are the work the request did, for the throughput metrics; they are
    set by check from the outcome.
    """

    label: str
    check: Callable[[Request], str | None]
    argv: list[str] | None = None
    call: Callable[[], str] | None = None
    search: bool = False  # search requests feed words_per_s
    outcome: Outcome | None = None
    words: int = 0
    letters: int = 0
    checked_by_length: dict[int, int] | None = None


class CheckFailed(Exception):
    pass


def _report(req: Request, command: str) -> dict:
    out = req.outcome
    if out.error is not None:
        raise CheckFailed(f"raised {out.error}")
    if out.code not in (0, 1):
        raise CheckFailed(f"exit code {out.code}")
    try:
        report = json.loads(out.out)
    except json.JSONDecodeError:
        raise CheckFailed(f"stdout is not one JSON report: {out.out[:80]!r}") from None
    if report.get("command") != command:
        raise CheckFailed(f"command {report.get('command')!r}, expected {command!r}")
    return report


def _checked(fn: Callable[[Request], None]) -> Callable[[Request], str | None]:
    def check(req: Request) -> str | None:
        try:
            fn(req)
        except CheckFailed as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed output: {exc!r}"
        return None

    return check


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- certify ---------------------------------------------------------------


class CertifyOracle:
    """Expected per-length counts and counterexample per certify request."""

    def __init__(self) -> None:
        self._cache: dict[tuple, tuple[dict[int, int], dict | None]] = {}

    def expect(self, letters, images, kind, max_len, direction):
        key = (letters, images, kind, max_len, direction)
        if key not in self._cache:
            self._cache[key] = oracle.certify(letters, images, kind, max_len, direction)
        return self._cache[key]


def certify_request(
    certifier: CertifyOracle,
    label: str,
    ref: str,
    letters: str,
    images: tuple[str, ...],
    kind: str,
    max_len: int,
    direction: str,
    passed: Callable[[], bool] = lambda: False,
) -> Request:
    """A certify request checked against the oracle's search. passed() tells
    whether the morphism passed its check-morphism, which rules out a
    counterexample."""
    argv = [
        "certify", ref, "--pattern", kind, "--max-len", str(max_len),
        "--direction", direction, "--json",
    ]

    def check(req: Request) -> None:
        report = _report(req, "certify")
        _expect(
            report["verdict"] == "none" or not passed(),
            f"check-morphism --def {kind} passes but certify finds a counterexample",
        )
        counts, cex = certifier.expect(letters, images, kind, max_len, direction)
        searches = req.outcome.searches
        _expect(len(searches) == 1, f"{len(searches)} searches ran, expected 1")
        req.checked_by_length = got = searches[0]
        _expect(got == counts, f"words checked per length {got}, oracle {counts}")
        stats = report["stats"]
        _expect(
            stats["words_checked"] == sum(counts.values()),
            f"words_checked {stats['words_checked']}, oracle {sum(counts.values())}",
        )
        _expect(stats["max_len"] == max_len, f"max_len {stats['max_len']}")
        verdict = "none" if cex is None else "found"
        _expect(report["verdict"] == verdict, f"verdict {report['verdict']}, oracle {verdict}")
        _expect(req.outcome.code == (0 if cex is None else 1), f"exit code {req.outcome.code}")
        _expect(report.get("witness") == cex, f"witness {report.get('witness')}, oracle {cex}")
        n = len(images[0])
        req.words = stats["words_checked"]
        req.letters = sum(count * length * n for length, count in counts.items())

    return Request(label, _checked(check), argv=argv, search=True)


# --- certify-catalog -------------------------------------------------------


# Depths are one below the deepest users run, except thue_morse, so that a
# pass takes about 8 s and a run repeats it at least three times.
CATALOG_REQUESTS = (
    ("g4", "overlap", 5),
    ("f4", "overlap", 5),
    ("leech", "square", 8),
    ("leech", "cube", 6),
    ("thue_morse", "overlap", 14),  # backward-heavy: 2^14 candidates
    ("f4", "square", 6),  # forward fails on a 1-letter word, exit 1
)


class CertifyCatalog:
    """certify --json in each direction on six catalog requests; the seed only
    shuffles their order."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.certifier = CertifyOracle()
        self.items = [
            (name, kind, max_len, direction)
            for name, kind, max_len in CATALOG_REQUESTS
            for direction in ("forward", "backward")
        ]

    def requests(self, rng: random.Random):
        for name, kind, max_len, direction in rng.sample(self.items, len(self.items)):
            letters, images = oracle.CATALOG[name]
            label = f"certify {name} {kind} {max_len} {direction}"
            yield certify_request(
                self.certifier, label, name, letters, images, kind, max_len, direction
            )


# --- long-words ------------------------------------------------------------


def plant(word: str, start: int, period: int, copies: int) -> str:
    """word with copies of its factor x = word[start:start+period] inserted
    after that factor, cut back to its length.

    One copy makes xx at start, two make xxx; xx is an overlap when the
    letter after the copy equals the first letter of x.
    """
    x = word[start:start + period]
    return (word[:start + period] + x * copies + word[start + period:])[:len(word)]


def planted_variant(
    rng: random.Random, word: str, kind: str, period: int, align: int
) -> tuple[str, tuple[int, int]]:
    """A variant of a kind-free word with one planted repetition in its back half.

    Each input has a fixed period, so every seed's variant is scanned over the
    same spans before the hit. Positions, multiples of align, are redrawn
    until the planted repetition is there and has the smallest period in the
    variant. Returns the variant and the range of inserted letters, which any
    occurrence must meet because the word itself is kind-free.
    """
    n = len(word)
    copies = 2 if kind == "cube" else 1
    starts = range(-(-n // 2 // align) * align, n - oracle.span(kind, period) + 1, align)
    for _ in range(1000):
        start = rng.choice(starts)
        variant = plant(word, start, period, copies)
        if oracle.matches(variant, kind, start, period) and oracle.find_any(variant, kind, period - 1) is None:
            return variant, (start + period, start + period * (1 + copies))
    raise ValueError(f"no clean planting of a {kind} of period {period} in a {n}-letter word")


class LongWords:
    """check-word --json on fixed-point prefixes and on planted variants of
    them, plus iterate to 10^6 letters."""

    # (morphism, length, pattern, planted period, planted position multiple of).
    # Thue-Morse blocks duplicate cleanly only at block boundaries, and Leech
    # squares only at multiples of the 13-letter tile; the periods are about a
    # tenth of the length.
    CASES = (
        ("thue_morse", 250, "overlap", 16, 16),
        ("thue_morse", 1000, "overlap", 64, 64),
        ("thue_morse", 2000, "overlap", 128, 128),
        ("leech", 250, "square", 26, 1),
        ("leech", 250, "cube", 25, 1),
        ("leech", 1000, "square", 104, 1),
        ("leech", 1000, "cube", 100, 1),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"long-words inputs {seed}")
        longest = max(n for _, n, *_ in self.CASES)
        prefixes = {
            "thue_morse": oracle.thue_morse(longest),
            "leech": oracle.fixed_point(*oracle.CATALOG["leech"], longest),
        }
        self.words = []  # (label, alphabet, word, kind, inserted range or None)
        for name, n, kind, period, align in self.CASES:
            alphabet = oracle.CATALOG[name][0]
            word = prefixes[name][:n]
            if oracle.contains(word, kind):
                raise ValueError(f"{name} prefix of length {n} has a {kind}")
            self.words.append((f"check-word {name} {n} {kind}", alphabet, word, kind, None))
            variant, inserted = planted_variant(rng, word, kind, period, align)
            self.words.append((f"check-word {name} {n} {kind} planted", alphabet, variant, kind, inserted))
        self.expected_iterate: dict[str, str] = {}

    def _iterated(self, name: str) -> str:
        if name not in self.expected_iterate:
            if name == "thue_morse":
                text = oracle.thue_morse(ITERATE_LENGTH)
            else:
                text = oracle.fixed_point(*oracle.CATALOG[name], ITERATE_LENGTH)
            self.expected_iterate[name] = text + "\n"
        return self.expected_iterate[name]

    def requests(self, rng: random.Random):
        items = [("word", w) for w in self.words]
        items += [("iterate", name) for name in ("thue_morse", "leech")]
        for what, item in rng.sample(items, len(items)):
            yield self._check_word(*item) if what == "word" else self._iterate(item)

    def _check_word(self, label, alphabet, word, kind, changed) -> Request:
        argv = ["check-word", word, "--pattern", kind, "--alphabet", alphabet, "--json"]

        def check(req: Request) -> None:
            report = _report(req, "check-word")
            _expect(report["stats"]["words_checked"] == 1, "words_checked is not 1")
            _expect(report["stats"]["max_len"] == len(word), "max_len is not the word length")
            req.words = 1
            req.letters = len(word)
            if changed is None:
                _expect(report["verdict"] == "none", f"verdict {report['verdict']} on a {kind}-free word")
                _expect(req.outcome.code == 0, f"exit code {req.outcome.code}")
                return
            _expect(report["verdict"] == "found", f"planted {kind} not found")
            _expect(req.outcome.code == 1, f"exit code {req.outcome.code}")
            witness = report["witness"]
            occ = witness["occurrence"]
            _expect(witness["word"] == word, "witness word is not the input")
            _expect(occ["kind"] == kind, f"occurrence kind {occ['kind']}")
            error = oracle.minimal_error(word, kind, occ["start"], occ["period"])
            _expect(error is None, f"occurrence not minimal: {error}")
            end = occ["start"] + oracle.span(kind, occ["period"])
            _expect(occ["start"] < changed[1] and end > changed[0], "occurrence misses the inserted letters")

        return Request(label, _checked(check), argv=argv, search=True)

    def _iterate(self, name: str) -> Request:
        argv = ["iterate", name, "--seed", "0", "--length", str(ITERATE_LENGTH)]

        def check(req: Request) -> None:
            out = req.outcome
            _expect(out.error is None and out.code == 0, f"exit code {out.code}, error {out.error}")
            _expect(out.out == self._iterated(name), "output differs from the independent generator")
            req.letters = ITERATE_LENGTH

        return Request(f"iterate {name}", _checked(check), argv=argv)


# --- morphism-screen -------------------------------------------------------


SCREEN_CATALOG = (("thue_morse", "overlap"), ("leech", "square"), ("f4", "overlap"), ("g4", "overlap"))
SCREEN_PER_CELL = 6
SCREEN_MAX_LEN = 4


class MorphismScreen:
    """About 600 seeded uniform morphisms and the four catalog entries, each
    with two check-morphism requests, a forward certify and an explain."""

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"morphism-screen inputs {seed}")
        self.certifier = CertifyOracle()
        self.morphisms = [(name, *oracle.CATALOG[name], kind) for name, kind in SCREEN_CATALOG]
        # One cell per (k, n, image class) with the same number of morphisms,
        # so that seeds differ only in image content, not in the size mix.
        workdir.mkdir(parents=True, exist_ok=True)
        for k in (2, 3, 4):
            letters = "0123"[:k]
            for n in range(3, 19):
                for pattern_free in (False, True):
                    for i in range(SCREEN_PER_CELL):
                        kind = "overlap" if k == 2 or i % 2 == 0 else "square"
                        if pattern_free:
                            images = tuple(
                                oracle.random_pattern_free(rng, letters, kind, n) for _ in letters
                            )
                        else:
                            images = tuple(
                                "".join(rng.choice(letters) for _ in range(n)) for _ in letters
                            )
                        path = workdir / f"m{len(self.morphisms):04d}.txt"
                        path.write_text(
                            f"alphabet: {letters}\n"
                            + "".join(f"{a} -> {im}\n" for a, im in zip(letters, images)),
                            encoding="utf-8",
                        )
                        self.morphisms.append((str(path), letters, images, kind))
        self._triples: dict[tuple[str, str], int] = {}

    def _free_triples(self, letters: str, kind: str) -> int:
        key = (letters, kind)
        if key not in self._triples:
            self._triples[key] = sum(
                1 for w in oracle.pattern_free_words(letters, kind, 3) if len(w) == 3
            )
        return self._triples[key]

    def requests(self, rng: random.Random):
        import wordmorph

        for ref, letters, images, kind in rng.sample(self.morphisms, len(self.morphisms)):
            short = Path(ref).name
            verdicts = {}
            for definition in ("overlap", "square"):
                yield self._check_morphism(short, ref, letters, images, definition, verdicts)
            label = f"certify {short} {kind} {SCREEN_MAX_LEN} forward"
            req = certify_request(
                self.certifier, label, ref, letters, images, kind, SCREEN_MAX_LEN, "forward",
                passed=lambda kind=kind, verdicts=verdicts: verdicts.get(kind) == "pass",
            )
            yield req
            if req.outcome.code == 1 and req.outcome.error is None:
                try:
                    witness = json.loads(req.outcome.out)["witness"]
                except (json.JSONDecodeError, KeyError):
                    continue  # the certify check reports this
                yield self._explain(wordmorph, short, ref, kind, witness)

    def _check_morphism(self, short, ref, letters, images, definition, verdicts) -> Request:
        argv = ["check-morphism", ref, "--def", definition, "--json"]

        def check(req: Request) -> None:
            report = _report(req, "check-morphism")
            verdict = report["verdict"]
            _expect(verdict in ("pass", "fail"), f"verdict {verdict}")
            _expect(req.outcome.code == (0 if verdict == "pass" else 1), f"exit code {req.outcome.code}")
            triples = self._free_triples(letters, definition)
            stats = report["stats"]
            _expect(stats["words_checked"] == triples, f"words_checked {stats['words_checked']}, oracle {triples}")
            _expect(stats["max_len"] == 3, f"max_len {stats['max_len']}")
            verdicts[definition] = verdict
            if verdict == "fail":
                error = _witness_error(report.get("witness"), letters, images, definition)
                _expect(error is None, f"witness: {error}")
            else:
                _expect("witness" not in report, "a passing verdict carries a witness")

        return Request(f"check-morphism {short} {definition}", _checked(check), argv=argv)

    def _explain(self, wordmorph, short, ref, kind, witness) -> Request:
        def call() -> str:
            m = wordmorph.cli.load_morphism(ref)
            occ = witness["occurrence"]
            cex = wordmorph.Counterexample(
                wordmorph.Direction.FORWARD,
                wordmorph.parse_word(witness["word"], m.source),
                wordmorph.parse_word(witness["image"], m.target),
                wordmorph.Occurrence(wordmorph.PatternKind(occ["kind"]), occ["start"], occ["period"]),
            )
            return wordmorph.explain(m, cex)

        def check(req: Request) -> None:
            out = req.outcome
            _expect(out.error is None, f"raised {out.error}")
            _expect(out.out.startswith(f"forward {kind} counterexample\n"), "unexpected first line")
            _expect(f"  word:  {witness['word']} " in out.out, "word line missing")
            _expect(f"  image: {witness['image']} " in out.out, "image line missing")

        return Request(f"explain {short} {kind}", _checked(check), call=call)


def _witness_error(witness, letters, images, definition) -> str | None:
    """Why a check-morphism witness is not a real violation, or None."""
    if not isinstance(witness, dict):
        return "a failing verdict carries no witness"
    n = len(images[0])
    image = dict(zip(letters, images))
    if "word" in witness:
        word, occ = witness["word"], witness["occurrence"]
        if len(word) != 3 or oracle.contains(word, definition):
            return f"{word!r} is not a {definition}-free triple"
        if witness.get("image") != oracle.apply(letters, images, word):
            return "image is not the image of the word"
        return oracle.minimal_error(witness["image"], occ["kind"], occ["start"], occ["period"])
    a, b = witness["a"], witness["b"]
    if "V" not in witness:
        if a == b or not (image[a][0] == image[b][0] or image[a][-1] == image[b][-1]):
            return f"images of {a!r} and {b!r} have distinct ends"
        return None
    v, s, u = witness["V"], witness["S"], witness["U"]
    if not (1 <= len(v) <= n // 2 and image[a] == s + v and image[b] == v + u):
        return "V is not a short border with S·V = h(a) and V·U = h(b)"
    if not any(im.endswith(s) or im.startswith(u) for im in images):
        return "neither S nor U is an image end"
    return None


WORKLOADS = {
    "certify-catalog": CertifyCatalog,
    "long-words": LongWords,
    "morphism-screen": MorphismScreen,
}
