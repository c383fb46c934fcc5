"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Run `pytest -s tests/test_acceptance.py` to see every line; without -s the
lines still appear in the captured output of any failing criterion.
"""

from __future__ import annotations

import collections
import itertools
import json
import random

import jsonschema

from conftest import REPORT_SCHEMA, brute_border_violations, run_cli
from wordmorph import (
    Alphabet,
    Morphism,
    PatternKind,
    Word,
    catalog,
    catalog_names,
    certify_backward,
    certify_forward,
    check_image_triples,
    check_lemma_consequences,
    check_overlap_def,
    check_square_def,
    enumerate_pattern_free,
    find_pattern,
    format_morphism_file,
    iterate_prefix,
    parse_morphism_file,
    residues,
)
from wordmorph.unstackable import pattern_free_triples

SEED = 20240823

GOLDEN_PREFIX_32 = "01101001100101101001011001101001"

FROZEN_CATALOG = {
    "thue_morse": ["01", "10"],
    "leech": ["0121021201210", "1202102012021", "2010210120102"],
    "f4": [
        "01231230103213210",
        "12302301210320321",
        "23013012321031032",
        "30120123032102103",
    ],
    "g4": [
        "012301221211203210",
        "123013003033010321",
        "230120123310221032",
        "301230110100132103",
    ],
}


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _mutation_pool() -> list[Morphism]:
    """Deterministic pool: catalog, identities, random uniform, mutated catalog."""
    rng = random.Random(SEED)
    pool = [catalog(name) for name in catalog_names()]
    for k in (2, 3, 4):
        letters = "0123"[:k]
        pool.append(Morphism.from_strings(letters, list(letters)))
    for _ in range(110):
        k = rng.randint(2, 4)
        n = rng.randint(1, 8)
        letters = "0123"[:k]
        images = ["".join(rng.choice(letters) for _ in range(n)) for _ in range(k)]
        pool.append(Morphism.from_strings(letters, images))
    for _ in range(40):
        base = catalog(rng.choice(list(catalog_names())))
        letters = "".join(base.source.letters)
        imgs = [list(im.text) for im in base.images]
        which = rng.randrange(len(imgs))
        pos = rng.randrange(len(imgs[which]))
        imgs[which][pos] = rng.choice(letters)
        pool.append(Morphism.from_strings(letters, ["".join(x) for x in imgs]))
    return pool


def test_criterion_1_golden_fixed_point_prefix():
    got = iterate_prefix(catalog("thue_morse"), "0", 32).text
    _criterion(1, got == GOLDEN_PREFIX_32, f"32-letter fixed-point prefix is {got}")


def test_criterion_2_catalog_fidelity():
    mismatches = []
    for name, expected in FROZEN_CATALOG.items():
        got = [im.text for im in catalog(name).images]
        if got != expected:
            mismatches.append(name)
    uniform = {name: catalog(name).uniform_length() for name in catalog_names()}
    ok = not mismatches and uniform == {"thue_morse": 2, "leech": 13, "f4": 17, "g4": 18}
    _criterion(
        2,
        ok,
        f"catalog images frozen; uniform lengths {uniform}; mismatches: {mismatches}",
    )


def test_criterion_3_definition_checkers():
    problems = []
    if not check_square_def(catalog("leech")).passed:
        problems.append("leech square verdict")
    if not check_overlap_def(catalog("f4")).passed:
        problems.append("f4 overlap verdict")
    if not check_overlap_def(catalog("g4")).passed:
        problems.append("g4 overlap verdict")
    tm_verdict = check_overlap_def(catalog("thue_morse"))
    if tm_verdict.passed:
        problems.append("thue_morse unexpectedly passes")
    border_reports = [r for r in tm_verdict.reports if r.condition == "border"]
    witness = border_reports[0].witnesses[0] if border_reports and border_reports[0].witnesses else None
    if witness is None or (
        witness.a,
        witness.b,
        witness.border.text,
        witness.stem.text,
        witness.side,
        witness.offender,
    ) != ("0", "1", "1", "0", "stem-suffix", "1"):
        problems.append(f"first border witness {witness}")
    for name, expect_bad in [
        ("thue_morse", True),
        ("leech", False),
        ("f4", False),
        ("g4", False),
    ]:
        if bool(brute_border_violations(catalog(name))) != expect_bad:
            problems.append(f"independent scan disagrees on {name}")
    if ("0", "1", "1") not in brute_border_violations(catalog("thue_morse")):
        problems.append("independent scan misses the (0, 1, V=1) border")
    _criterion(
        3,
        not problems,
        "checker verdicts and the first border witness agree with the"
        f" independent border scan; problems: {problems}",
    )


def test_criterion_4_certification_soundness():
    violations = []
    gated = [
        ("leech", PatternKind.SQUARE),
        ("f4", PatternKind.OVERLAP),
        ("g4", PatternKind.OVERLAP),
    ]
    for name, kind in gated:
        m = catalog(name)
        verdict = check_square_def(m) if kind is PatternKind.SQUARE else check_overlap_def(m)
        if not verdict.passed:
            violations.append((name, "checker regressed"))
            continue
        for label, fn in (("forward", certify_forward), ("backward", certify_backward)):
            cex = fn(m, kind, 6)
            if cex is not None:
                violations.append((name, label, cex.word.text))
    # no binary catalog entry passes its checker, so the binary gate is
    # vacuous; certify the binary entry ungated at depth 10 anyway
    for label, fn in (("forward", certify_forward), ("backward", certify_backward)):
        cex = fn(catalog("thue_morse"), PatternKind.OVERLAP, 10)
        if cex is not None:
            violations.append(("thue_morse", label, cex.word.text))
    _criterion(
        4,
        not violations,
        "certification clean for checker-passing catalog entries at depth 6"
        f" (binary entry ungated at depth 10); violations: {violations}",
    )


def test_criterion_5_lemma_consequence_suite():
    pool = _mutation_pool()
    randomised = len(pool) - len(catalog_names())
    antecedent = 0
    violations = []
    for i, m in enumerate(pool):
        if len(m.source) <= 1:
            continue
        if not check_image_triples(m, PatternKind.OVERLAP).holds:
            continue
        antecedent += 1
        for rep in check_lemma_consequences(m):
            if not rep.holds:
                violations.append((i, rep.condition))
    ok = not violations and antecedent >= 7 and randomised >= 100
    _criterion(
        5,
        ok,
        f"{len(pool)} morphisms ({randomised} randomised), antecedent true for"
        f" {antecedent}, consequence violations: {violations}",
    )


def test_criterion_6_pattern_hierarchy():
    checked = 0
    violations = []
    for k in (2, 3):
        alphabet = Alphabet.from_string("012"[:k])
        for length in range(1, 11):
            for t in itertools.product(range(k), repeat=length):
                w = Word(t, alphabet)
                checked += 1
                sq = find_pattern(w, PatternKind.SQUARE)
                ov = find_pattern(w, PatternKind.OVERLAP)
                if sq is None and ov is not None:
                    violations.append(("square-free with overlap", w.text))
                if ov is None and find_pattern(w, PatternKind.CUBE) is not None:
                    violations.append(("overlap-free with cube", w.text))
    ok = not violations and checked == 2046 + 88572
    _criterion(
        6,
        ok,
        f"hierarchy holds on all {checked} binary and ternary words up to"
        f" length 10; violations: {violations[:3]}",
    )


def test_criterion_7_residue_identity_on_produced_images():
    occurrences = 0
    violations = []

    def check_image(m: Morphism, image: Word, n: int) -> None:
        nonlocal occurrences
        occ = find_pattern(image, PatternKind.OVERLAP)
        if occ is None:
            return
        occurrences += 1
        r0, r1, r2 = residues(occ.start, occ.period, n)
        if r2 != (2 * r1 - r0) % n:
            violations.append((image.text[:40], occ.start, occ.period))

    # the pattern-bearing images live in the backward certification streams;
    # forward images were shown pattern-free by criterion 4
    for name, kind in [
        ("leech", PatternKind.SQUARE),
        ("f4", PatternKind.OVERLAP),
        ("g4", PatternKind.OVERLAP),
    ]:
        m = catalog(name)
        n = m.uniform_length()
        for length in range(1, 7):
            for t in itertools.product(range(len(m.source)), repeat=length):
                w = Word(t, m.source)
                if find_pattern(w, kind) is None:
                    continue
                check_image(m, m.apply(w), n)
    # probe images over the criterion-5 pool
    for m in _mutation_pool():
        n = m.uniform_length()
        for w in pattern_free_triples(m.source, PatternKind.OVERLAP):
            check_image(m, m.apply(w), n)
    ok = not violations and occurrences > 0
    _criterion(
        7,
        ok,
        f"residue identity r2 == (2*r1 - r0) mod n on {occurrences} detected"
        f" overlap occurrences; violations: {violations[:3]}",
    )


def _has_square_text(s: str) -> bool:
    # independent square detector used only by criterion 8
    for i in range(len(s)):
        for j in range(i + 2, len(s) + 1, 2):
            half = (j - i) // 2
            if s[i:i + half] == s[i + half:j]:
                return True
    return False


def test_criterion_8_enumeration_matches_filtering():
    mismatches = []
    for k in (1, 2, 3):
        alphabet = Alphabet.from_string("012"[:k])
        for kind in PatternKind:
            enumerated = [w.text for w in enumerate_pattern_free(alphabet, kind, 8)]
            filtered = []
            for length in range(1, 9):
                for t in itertools.product(range(k), repeat=length):
                    w = Word(t, alphabet)
                    if find_pattern(w, kind) is None:
                        filtered.append(w.text)
            if enumerated != filtered:
                mismatches.append((k, kind.value))
    enum_counts = collections.Counter(
        len(w)
        for w in enumerate_pattern_free(Alphabet.from_string("012"), PatternKind.SQUARE, 8)
    )
    recount: collections.Counter = collections.Counter()
    for length in range(1, 9):
        for chars in itertools.product("012", repeat=length):
            if not _has_square_text("".join(chars)):
                recount[length] += 1
    ok = not mismatches and enum_counts == recount
    _criterion(
        8,
        ok,
        f"enumeration equals filtering for k<=3, len<=8; ternary square-free"
        f" counts {[enum_counts[i] for i in range(1, 9)]} match the independent"
        f" recount; mismatches: {mismatches}",
    )


def test_criterion_9_cli_contract():
    problems = []

    def expect(code: int, *args: str) -> None:
        res = run_cli(*args)
        if res.returncode != code:
            problems.append((args, f"exit {res.returncode} != {code}", res.stderr.strip()[:60]))

    expect(1, "check-word", "alfalfa", "--pattern", "overlap", "--alphabet", "alf")
    expect(0, "check-word", "0110", "--pattern", "overlap", "--alphabet", "01")
    expect(2, "check-word", "01x", "--pattern", "overlap", "--alphabet", "01")
    expect(0, "check-morphism", "leech", "--def", "square")
    expect(1, "check-morphism", "thue_morse", "--def", "overlap")
    expect(0, "certify", "leech", "--pattern", "square", "--max-len", "4")
    expect(2, "certify", "leech", "--pattern", "square", "--max-len", "0")
    expect(0, "apply", "leech", "0")
    expect(0, "iterate", "thue_morse", "--seed", "0", "--length", "16")
    expect(0, "catalog", "list")

    for args in (
        ("check-word", "alfalfa", "--pattern", "overlap", "--alphabet", "alf", "--json"),
        ("check-morphism", "thue_morse", "--def", "overlap", "--json"),
        ("check-morphism", "f4", "--def", "overlap", "--json"),
        ("certify", "leech", "--pattern", "square", "--max-len", "4", "--json"),
    ):
        res = run_cli(*args)
        try:
            jsonschema.validate(json.loads(res.stdout), REPORT_SCHEMA)
        except Exception as exc:  # noqa: BLE001 - collected for the report line
            problems.append((args, "schema", str(exc)[:60]))

    rng = random.Random(SEED + 1)
    morphisms = [catalog(name) for name in catalog_names()]
    for _ in range(25):
        k = rng.randint(1, 4)
        target = "abcd"[: rng.randint(1, 4)]
        images = [
            "".join(rng.choice(target) for _ in range(rng.randint(1, 6)))
            for _ in range(k)
        ]
        morphisms.append(Morphism.from_strings("0123"[:k], images, target=target))
    for m in morphisms:
        if parse_morphism_file(format_morphism_file(m)) != m:
            problems.append(("round-trip", "".join(m.source.letters)))
    _criterion(
        9,
        not problems,
        "exit codes, frozen JSON schema, and serialisation round-trips"
        f" (catalog + 25 random morphisms); problems: {problems[:3]}",
    )
