from __future__ import annotations

import errno
import io
import json
import os
import re
import shlex
import subprocess
import sys

from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPORT_SCHEMA, run_cli
from wordmorph import cli, unstackable
from wordmorph.cli import load_morphism
from wordmorph.unstackable import pattern_free_triples
from wordmorph import (
    Morphism,
    ParseError,
    catalog,
    catalog_names,
    format_morphism_file,
    parse_morphism_file,
)


def test_check_word_found():
    res = run_cli("check-word", "alfalfa", "--pattern", "overlap", "--alphabet", "alf")
    assert res.returncode == 1
    assert "overlap" in res.stdout
    assert "start 0" in res.stdout and "period 3" in res.stdout


def test_check_word_pattern_free():
    res = run_cli("check-word", "0110", "--pattern", "overlap", "--alphabet", "01")
    assert res.returncode == 0
    assert res.stdout.strip() == "pattern-free"


def test_check_word_parse_error():
    res = run_cli("check-word", "01x", "--pattern", "overlap", "--alphabet", "01")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error" in res.stderr and "'x'" in res.stderr


def test_check_word_json():
    res = run_cli(
        "check-word", "alfalfa", "--pattern", "overlap", "--alphabet", "alf", "--json"
    )
    assert res.returncode == 1
    report = json.loads(res.stdout)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["command"] == "check-word"
    assert report["verdict"] == "found"
    assert report["witness"]["word"] == "alfalfa"
    assert report["witness"]["occurrence"] == {"kind": "overlap", "start": 0, "period": 3}

    res = run_cli("check-word", "0110", "--pattern", "overlap", "--alphabet", "01", "--json")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["verdict"] == "none"
    assert "witness" not in report


def test_check_morphism_pass():
    res = run_cli("check-morphism", "leech", "--def", "square")
    assert res.returncode == 0
    assert "verdict: pass" in res.stdout
    assert "condition square-triples: holds" in res.stdout


def test_check_morphism_fail_border():
    res = run_cli("check-morphism", "thue_morse", "--def", "overlap")
    assert res.returncode == 1
    assert "condition overlap-triples: holds" in res.stdout
    assert "condition border: FAILS" in res.stdout
    assert "a=0 b=1 V=1" in res.stdout
    assert "verdict: fail" in res.stdout


def test_check_morphism_json_witness():
    res = run_cli("check-morphism", "thue_morse", "--def", "overlap", "--json")
    assert res.returncode == 1
    report = json.loads(res.stdout)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["verdict"] == "fail"
    assert report["witness"] == {"a": "0", "b": "1", "V": "1", "S": "0", "U": "0"}

    res = run_cli("check-morphism", "g4", "--def", "overlap", "--json")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["verdict"] == "pass"


def test_check_morphism_rejects_non_uniform_file(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("alphabet: 01\n0 -> 0\n1 -> 11\n")
    res = run_cli("check-morphism", str(f), "--def", "overlap")
    assert res.returncode == 2
    assert "uniform" in res.stderr


def test_certify_catalog_clean():
    res = run_cli("certify", "leech", "--pattern", "square", "--max-len", "6")
    assert res.returncode == 0
    assert "forward: checked 111" in res.stdout
    assert "backward: checked 981" in res.stdout
    assert "length 6: 42" in res.stdout
    assert "no counterexample found" in res.stdout


def test_certify_finds_forward_break(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("# doubles every letter\nalphabet: 01\n0 -> 00\n1 -> 11\n")
    res = run_cli("certify", str(f), "--pattern", "square", "--max-len", "4")
    assert res.returncode == 1
    assert "counterexample (forward):" in res.stdout
    assert "word:  0" in res.stdout
    assert "square in the image at start 0, period 1" in res.stdout


def test_certify_json():
    res = run_cli("certify", "f4", "--pattern", "overlap", "--max-len", "4", "--json")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["command"] == "certify"
    assert report["verdict"] == "none"
    assert "witness" not in report
    assert report["stats"]["max_len"] == 4
    assert report["stats"]["words_checked"] > 0

    res = run_cli(
        "certify", "thue_morse", "--pattern", "square", "--max-len", "3",
        "--direction", "forward", "--json",
    )
    assert res.returncode == 1
    report = json.loads(res.stdout)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["verdict"] == "found"
    assert report["witness"]["word"] == "01"
    assert report["witness"]["occurrence"]["kind"] == "square"


def test_certify_max_len_minimum():
    res = run_cli("certify", "leech", "--pattern", "square", "--max-len", "0")
    assert res.returncode == 2
    res = run_cli(
        "certify", "leech", "--pattern", "overlap", "--max-len", "2",
        "--direction", "backward",
    )
    assert res.returncode == 2


@pytest.mark.parametrize(
    "pattern, max_len, message",
    [
        ("overlap", "2", "error: max_len must be >= 3 to fit an overlap in the word\n"),
        ("square", "1", "error: max_len must be >= 2 to fit a square in the word\n"),
        ("cube", "2", "error: max_len must be >= 3 to fit a cube in the word\n"),
    ],
)
def test_certify_max_len_below_pattern_message(pattern, max_len, message):
    # with --direction both the forward search runs before backward raises;
    # no partial report reaches stdout
    res = run_cli("certify", "leech", "--pattern", pattern, "--max-len", max_len)
    assert res.returncode == 2
    assert res.stderr == message
    assert res.stdout == ""


def test_certify_backward_only():
    res = run_cli(
        "certify", "thue_morse", "--pattern", "overlap", "--max-len", "5",
        "--direction", "backward",
    )
    assert res.returncode == 0
    assert res.stdout == (
        "backward: checked 26 overlap-containing word(s) up to length 5\n"
        "  length 3: 2\n"
        "  length 4: 6\n"
        "  length 5: 18\n"
        "no counterexample found\n"
    )
    res = run_cli(
        "certify", "thue_morse", "--pattern", "overlap", "--max-len", "5",
        "--direction", "forward",
    )
    assert res.returncode == 0
    assert res.stdout == (
        "forward: checked 36 overlap-free word(s) up to length 5\n"
        "  length 1: 2\n"
        "  length 2: 4\n"
        "  length 3: 6\n"
        "  length 4: 10\n"
        "  length 5: 14\n"
        "no counterexample found\n"
    )


def test_apply():
    res = run_cli("apply", "thue_morse", "01")
    assert res.returncode == 0
    assert res.stdout.strip() == "0110"
    res = run_cli("apply", "leech", "0")
    assert res.stdout.strip() == "0121021201210"


def test_apply_rejects_foreign_letters():
    res = run_cli("apply", "thue_morse", "012")
    assert res.returncode == 2


def test_iterate():
    res = run_cli("iterate", "thue_morse", "--seed", "0", "--length", "32")
    assert res.returncode == 0
    assert res.stdout.strip() == "01101001100101101001011001101001"


def test_iterate_not_prolongable(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("alphabet: 01\n0 -> 10\n1 -> 01\n")
    res = run_cli("iterate", str(f), "--seed", "0", "--length", "8")
    assert res.returncode == 2
    assert "prolongable" in res.stderr
    # a length below 1 is named as the option the user gave, with its value
    res = run_cli("iterate", "thue_morse", "--seed", "0", "--length", "0")
    assert res.returncode == 2
    assert res.stderr == "error: length must be >= 1, got 0\n"


def test_reader_closing_the_pipe_early_is_not_an_error():
    # 100,000 letters overfill the pipe, so the write is still blocked
    # when the reader closes its end
    argv = [sys.executable, "-m", "wordmorph", "iterate", "thue_morse", "--seed", "0",
            "--length", "100000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(10) == b"0110100110"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=120) == 0
    # a reader gone before the write still gets the verdict's exit code
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "wordmorph", "certify", "f4", "--pattern", "square",
             "--max-len", "2", "--direction", "forward"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (res.returncode, res.stderr) == (1, b"")


@pytest.mark.parametrize("exc, code, err", [
    (BrokenPipeError(errno.EPIPE, "Broken pipe"), 1, ""),
    (OSError(errno.ENOSPC, "No space left on device"), 2,
     "error: [Errno 28] No space left on device\n"),
])
def test_failed_report_write_in_process(exc, code, err, monkeypatch, capsys):
    # a stdout with no file descriptor, whose every write fails
    class FailingStdout(io.StringIO):
        def write(self, s):
            raise exc

    monkeypatch.setattr(sys, "stdout", FailingStdout())
    assert cli.main(["check-word", "0101", "--pattern", "square", "--alphabet", "01"]) == code
    assert capsys.readouterr().err == err


def test_broken_pipe_leaves_stdout_writable(monkeypatch, capsys):
    # stdout's descriptor now points at devnull, so a later flush, such as
    # the interpreter's last one, cannot fail on the closed pipe again
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["check-word", "0101", "--pattern", "square", "--alphabet", "01"]) == 1
        stdout.write("more\n")
        stdout.flush()
    assert capsys.readouterr().err == ""


def test_catalog_list():
    res = run_cli("catalog", "list")
    assert res.returncode == 0
    assert res.stdout.split() == ["thue_morse", "leech", "f4", "g4"]


def test_catalog_list_rejects_a_name():
    res = run_cli("catalog", "list", "leech")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error: catalog list takes no name" in res.stderr


def test_catalog_show_roundtrip():
    res = run_cli("catalog", "show", "g4")
    assert res.returncode == 0
    assert parse_morphism_file(res.stdout) == catalog("g4")


def test_catalog_show_needs_name():
    res = run_cli("catalog", "show")
    assert res.returncode == 2


def test_unknown_morphism_reference():
    res = run_cli("apply", "unknown_name", "0")
    assert res.returncode == 2
    assert "no such morphism" in res.stderr


def test_usage_error_exit_code():
    res = run_cli("check-word", "01")  # missing required flags
    assert res.returncode == 2


def test_morphism_file_parse_errors(tmp_path, capsys):
    cases = [
        ("alphabet: 01\nalphabet: 01\n0 -> 0\n1 -> 1\n", "line 2: duplicate alphabet line"),
        # a second alphabet line after a rule is still reported as a duplicate
        ("alphabet: 01\n0 -> 0\nalphabet: 01\n1 -> 1\n", "line 3: duplicate alphabet line"),
        ("alphabet:  # nothing\n0 -> 0\n", "line 1: empty alphabet"),
        ("alphabet: 01\ntarget: ab\ntarget: ab\n0 -> a\n1 -> b\n", "line 3: duplicate target line"),
        ("alphabet: 01\ntarget:\n0 -> 0\n1 -> 1\n", "line 2: empty target alphabet"),
        (
            "alphabet: 01\n0 -> 0\ntarget: 01\n1 -> 1\n",
            "line 3: target line must precede the rules",
        ),
        ("0 -> 01\n", "line 1: rule before the alphabet line"),
        ("alphabet: 01\n01 -> 0\n", "line 2: rule must map a single letter, got '01'"),
        (
            "alphabet: 01\n0 -> 0\n1 -> 1\n2 -> 2\n",
            "line 4: rule for '2', which is not in the alphabet",
        ),
        ("alphabet: 01\n0 -> 01\n0 -> 0\n1 -> 1\n", "line 3: duplicate rule for '0'"),
        (
            "alphabet: 01\nbogus line\n0 -> 0\n1 -> 1\n",
            "line 2: expected 'alphabet:', 'target:' or '<letter> -> <image>', got 'bogus line'",
        ),
        ("# only a comment\n\n", "missing 'alphabet:' line"),
        ("alphabet: 011\n0 -> 0\n1 -> 1\n", "line 1: letters must be distinct, got '011'"),
        (
            "alphabet: 0 1\n0 -> 0\n1 -> 1\n",
            "line 1: letters must be printable and non-blank, got ' '",
        ),
        ("alphabet: 01\n0 -> 01\n", "missing rule for letter(s): '1'"),
        ("alphabet: 01\n0 -> 0\n1 ->\n", "line 3: empty image for '1' (erasing rule)"),
        (
            "alphabet: 01\n0 -> 02\n1 -> 1\n",
            "line 2: character '2' at position 1 is not in alphabet '01'",
        ),
    ]
    for i, (text, message) in enumerate(cases):
        f = tmp_path / f"bad{i}.txt"
        f.write_text(text)
        assert cli.main(["check-morphism", str(f), "--def", "overlap"]) == 2, text
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n"), text
    # the headers may come in either order
    m = parse_morphism_file("target: ab\nalphabet: 01\n0 -> ab\n1 -> ba\n")
    assert m == Morphism.from_strings("01", ["ab", "ba"], target="ab")


def test_morphism_file_reports_first_faulty_line():
    # each line is checked completely when it is read, so a fault on an
    # earlier line wins over a missing rule and over any later fault
    cases = [
        # a missing rule (for '1') is reported only when no line is at fault
        ("alphabet: 01\n0 -> 0x\n", "line 2: character 'x' at position 1 is not in alphabet '01'"),
        ("alphabet: 011\n2 -> 0\n", "line 1: letters must be distinct, got '011'"),
        (
            "alphabet: 01\n1 -> 1x\n0 ->\n",
            "line 2: character 'x' at position 1 is not in alphabet '01'",
        ),
        ("alphabet: 01\n0 ->\nbogus\n", "line 2: empty image for '0' (erasing rule)"),
        (
            "alphabet: 01\n0 -> 2\n0 -> 0\n",
            "line 2: character '2' at position 0 is not in alphabet '01'",
        ),
        (
            "target: a a\nalphabet: 011\n0 -> a\n1 -> a\n",
            "line 1: letters must be printable and non-blank, got ' '",
        ),
        # a second rule for a letter is refused before its image is read
        ("alphabet: 01\n0 -> 0\n0 ->\n1 -> 1\n", "line 3: duplicate rule for '0'"),
        # the image is parsed against the target known on its line
        (
            "alphabet: 01\ntarget: ab\n1 -> 0\n0 ->\n",
            "line 3: character '0' at position 0 is not in alphabet 'ab'",
        ),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as exc_info:
            parse_morphism_file(text)
        assert str(exc_info.value) == message, text


def test_morphism_file_accepts_a_byte_order_mark(tmp_path, capsys):
    f = tmp_path / "bom.txt"
    f.write_bytes(b"\xef\xbb\xbfalphabet: 01\n0 -> 01\n1 -> 10\n")
    assert cli.main(["apply", str(f), "01"]) == 0
    assert capsys.readouterr() == ("0110\n", "")


def test_morphism_file_comments_and_target(tmp_path):
    text = "# a comment\nalphabet: 01\ntarget: ab  # trailing comment\n0 -> ab\n1 -> ba\n"
    f = tmp_path / "m.txt"
    f.write_text(text)
    res = run_cli("apply", str(f), "01")
    assert res.returncode == 0
    assert res.stdout.strip() == "abba"


def test_format_parse_roundtrip_in_process():
    for name in catalog_names():
        m = catalog(name)
        assert parse_morphism_file(format_morphism_file(m)) == m
    m = Morphism.from_strings("01", ["ab", "ba"], target="ab")
    text = format_morphism_file(m, comment="two lines\nof comment")
    assert "target: ab" in text
    assert text.startswith("# two lines\n# of comment\n")
    assert parse_morphism_file(text) == m


# printable, non-blank and not '#', with the format's own ':', '-' and '>'
# drawn often; st.characters reaches non-ASCII letters
FILE_LETTERS = st.sampled_from(":->") | st.characters(exclude_characters="#").filter(
    lambda ch: ch.isprintable() and not ch.isspace()
)


@st.composite
def file_morphisms(draw):
    source = draw(st.lists(FILE_LETTERS, min_size=1, max_size=4, unique=True))
    target = draw(st.just(source) | st.lists(FILE_LETTERS, min_size=1, max_size=4, unique=True))
    images = [draw(st.text(st.sampled_from(target), min_size=1, max_size=5)) for _ in source]
    return Morphism.from_strings("".join(source), images, target="".join(target))


@given(file_morphisms())
@settings(max_examples=300, deadline=None)
def test_format_parse_roundtrip_random(m):
    assert parse_morphism_file(format_morphism_file(m)) == m


def test_format_rejects_comment_letter():
    # '#' would start a comment when the file is read back: a '#a' alphabet
    # would parse as empty, and target 01# with images 0#, 1# would come back
    # as target 01 with images 0 and 1
    for m in (
        Morphism.from_strings("#a", ["a#", "#a"]),
        Morphism.from_strings("01", ["0#", "1#"], target="01#"),
    ):
        with pytest.raises(ValueError, match="'#'"):
            format_morphism_file(m)


def test_load_morphism_path_shadows_catalog(tmp_path, monkeypatch):
    (tmp_path / "g4").write_text("alphabet: 01\n0 -> 00\n1 -> 11\n")
    monkeypatch.chdir(tmp_path)
    assert load_morphism("g4") == Morphism.from_strings("01", ["00", "11"])
    assert load_morphism("leech") == catalog("leech")


def test_load_morphism_directory_does_not_shadow_catalog(tmp_path, monkeypatch, capsys):
    (tmp_path / "g4").mkdir()
    monkeypatch.chdir(tmp_path)
    assert cli.main(["check-morphism", "g4", "--def", "overlap"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.endswith("verdict: pass\n")


def test_load_morphism_reads_a_pipe():
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "w") as f:
        f.write("alphabet: 01\n0 -> 01\n1 -> 10\n")
    try:
        assert load_morphism(f"/dev/fd/{read_end}") == catalog("thue_morse")
    finally:
        os.close(read_end)


def test_check_morphism_json_enumerates_triples_once(monkeypatch, capsys):
    calls = []

    def counting(*args):
        calls.append(args)
        return pattern_free_triples(*args)

    monkeypatch.setattr(unstackable, "pattern_free_triples", counting)
    # a copy bound in cli would count as well
    monkeypatch.setattr(cli, "pattern_free_triples", counting, raising=False)
    assert cli.main(["check-morphism", "g4", "--def", "overlap", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["stats"]["words_checked"] == 60
    assert len(calls) == 1


def test_parse_morphism_file_error_reports_line():
    with pytest.raises(ParseError) as exc_info:
        parse_morphism_file("alphabet: 01\n0 -> 0x\n1 -> 1\n")
    assert "line 2" in str(exc_info.value)
    assert "'x'" in str(exc_info.value)
    # the image's ParseError.position passes through; header errors have none
    with pytest.raises(ParseError) as exc_info:
        parse_morphism_file("alphabet: 01\n0 -> 02\n1 -> 1\n")
    assert exc_info.value.position == 1
    with pytest.raises(ParseError) as exc_info:
        parse_morphism_file("alphabet: 011\n0 -> 0\n1 -> 1\n")
    assert exc_info.value.position is None


# -- golden output -------------------------------------------------------------

DOUBLING = "# doubles every letter\nalphabet: 01\n0 -> 00\n1 -> 11\n"
# square-free images of the square-free triples 010 and 101, but both images
# begin with 0
SHARED_FIRST = "alphabet: 01\ntarget: 012\n0 -> 01\n1 -> 02\n"
# every image of an overlap-free triple repeats 01 or 10
PERIOD_TWO = "alphabet: 01\n0 -> 010\n1 -> 101\n"
# 1-uniform on one letter: both the triple and the border condition are vacuous
ONE_LETTER = "alphabet: 0\n0 -> 0\n"
DOUBLING_FOUR = "alphabet: 0123\n0 -> 00\n1 -> 11\n2 -> 22\n3 -> 33\n"


def _file(tmp_path, text: str) -> str:
    f = tmp_path / "m.txt"
    f.write_text(text)
    return str(f)


def test_check_morphism_golden_thue_morse():
    res = run_cli("check-morphism", "thue_morse", "--def", "overlap")
    assert res.returncode == 1
    assert res.stdout == (
        "definition: overlap\n"
        "condition overlap-triples: holds\n"
        "condition border: FAILS (4 witness(es))\n"
        "  a=0 b=1 V=1 S=0 U=0: S is a suffix of the image of '1'\n"
        "  a=0 b=1 V=1 S=0 U=0: U is a prefix of the image of '0'\n"
        "  a=1 b=0 V=0 S=1 U=1: S is a suffix of the image of '0'\n"
        "  a=1 b=0 V=0 S=1 U=1: U is a prefix of the image of '1'\n"
        "verdict: fail\n"
    )


def test_check_morphism_golden_image_triples(tmp_path):
    res = run_cli("check-morphism", _file(tmp_path, PERIOD_TWO), "--def", "overlap")
    assert res.returncode == 1
    assert res.stdout == (
        "definition: overlap\n"
        "condition overlap-triples: FAILS (6 witness(es))\n"
        "  word 001 -> image 010010101: overlap at start 3, period 2\n"
        "  word 010 -> image 010101010: overlap at start 0, period 2\n"
        "  word 011 -> image 010101101: overlap at start 0, period 2\n"
        "  word 100 -> image 101010010: overlap at start 0, period 2\n"
        "  word 101 -> image 101010101: overlap at start 0, period 2\n"
        "  word 110 -> image 101101010: overlap at start 3, period 2\n"
        "condition border: FAILS (4 witness(es))\n"
        "  a=0 b=0 V=0 S=01 U=10: S is a suffix of the image of '1'\n"
        "  a=0 b=0 V=0 S=01 U=10: U is a prefix of the image of '1'\n"
        "  a=1 b=1 V=1 S=10 U=01: S is a suffix of the image of '0'\n"
        "  a=1 b=1 V=1 S=10 U=01: U is a prefix of the image of '0'\n"
        "verdict: fail\n"
    )


def test_check_morphism_golden_marked_ends(tmp_path):
    res = run_cli("check-morphism", _file(tmp_path, SHARED_FIRST), "--def", "square")
    assert res.returncode == 1
    assert res.stdout == (
        "definition: square\n"
        "condition square-triples: holds\n"
        "condition marked-ends: FAILS (1 witness(es))\n"
        "  images of '0' and '1' both begin with '0'\n"
        "condition border: holds\n"
        "verdict: fail\n"
    )


def test_check_morphism_golden_vacuity_notes(tmp_path):
    res = run_cli("check-morphism", _file(tmp_path, ONE_LETTER), "--def", "square")
    assert res.returncode == 0
    assert res.stdout == (
        "definition: square\n"
        "condition square-triples: holds\n"
        "  note: no square-free words of length 3 exist over a 1-letter alphabet;"
        " the condition holds vacuously\n"
        "condition marked-ends: holds\n"
        "condition border: holds\n"
        "  note: a 1-uniform morphism admits no border with 1 <= |V| <= floor(n/2);"
        " the condition holds vacuously\n"
        "verdict: pass\n"
    )


def test_check_morphism_golden_witness_cap(tmp_path):
    res = run_cli("check-morphism", _file(tmp_path, DOUBLING_FOUR), "--def", "square")
    assert res.returncode == 1
    assert res.stdout == (
        "definition: square\n"
        "condition square-triples: FAILS (36 witness(es))\n"
        "  word 010 -> image 001100: square at start 0, period 1\n"
        "  word 012 -> image 001122: square at start 0, period 1\n"
        "  word 013 -> image 001133: square at start 0, period 1\n"
        "  word 020 -> image 002200: square at start 0, period 1\n"
        "  word 021 -> image 002211: square at start 0, period 1\n"
        "  word 023 -> image 002233: square at start 0, period 1\n"
        "  word 030 -> image 003300: square at start 0, period 1\n"
        "  word 031 -> image 003311: square at start 0, period 1\n"
        "  ... 28 more\n"
        "condition marked-ends: holds\n"
        "condition border: FAILS (8 witness(es))\n"
        "  a=0 b=0 V=0 S=0 U=0: S is a suffix of the image of '0'\n"
        "  a=0 b=0 V=0 S=0 U=0: U is a prefix of the image of '0'\n"
        "  a=1 b=1 V=1 S=1 U=1: S is a suffix of the image of '1'\n"
        "  a=1 b=1 V=1 S=1 U=1: U is a prefix of the image of '1'\n"
        "  a=2 b=2 V=2 S=2 U=2: S is a suffix of the image of '2'\n"
        "  a=2 b=2 V=2 S=2 U=2: U is a prefix of the image of '2'\n"
        "  a=3 b=3 V=3 S=3 U=3: S is a suffix of the image of '3'\n"
        "  a=3 b=3 V=3 S=3 U=3: U is a prefix of the image of '3'\n"
        "verdict: fail\n"
    )


def test_certify_golden_counterexample(tmp_path):
    res = run_cli("certify", _file(tmp_path, DOUBLING), "--pattern", "square", "--max-len", "4")
    assert res.returncode == 1
    assert res.stdout == (
        "forward: checked 1 square-free word(s) up to length 4\n"
        "  length 1: 1\n"
        "counterexample (forward):\n"
        "  word:  0\n"
        "  image: 00\n"
        "  square in the image at start 0, period 1\n"
    )


def _json_report(*args: str) -> tuple[int, dict]:
    res = run_cli(*args, "--json")
    report = json.loads(res.stdout)
    jsonschema.validate(report, REPORT_SCHEMA)
    del report["stats"]["elapsed_ms"]
    return res.returncode, report


def test_json_witness_golden(tmp_path):
    occurrence = {"kind": "overlap", "start": 0, "period": 3}
    assert _json_report("check-word", "alfalfa", "--pattern", "overlap", "--alphabet", "alf") == (
        1,
        {
            "command": "check-word",
            "verdict": "found",
            "witness": {"word": "alfalfa", "occurrence": occurrence},
            "stats": {"words_checked": 1, "max_len": 7},
        },
    )
    assert _json_report("check-morphism", "thue_morse", "--def", "overlap") == (
        1,
        {
            "command": "check-morphism",
            "verdict": "fail",
            "witness": {"a": "0", "b": "1", "V": "1", "S": "0", "U": "0"},
            "stats": {"words_checked": 6, "max_len": 3},
        },
    )
    assert _json_report("check-morphism", _file(tmp_path, PERIOD_TWO), "--def", "overlap") == (
        1,
        {
            "command": "check-morphism",
            "verdict": "fail",
            "witness": {
                "word": "001",
                "image": "010010101",
                "occurrence": {"kind": "overlap", "start": 3, "period": 2},
            },
            "stats": {"words_checked": 6, "max_len": 3},
        },
    )
    assert _json_report("check-morphism", _file(tmp_path, SHARED_FIRST), "--def", "square") == (
        1,
        {
            "command": "check-morphism",
            "verdict": "fail",
            "witness": {"a": "0", "b": "1"},
            "stats": {"words_checked": 2, "max_len": 3},
        },
    )
    doubling = _file(tmp_path, DOUBLING)
    assert _json_report("certify", doubling, "--pattern", "square", "--max-len", "4") == (
        1,
        {
            "command": "certify",
            "verdict": "found",
            "witness": {
                "word": "0",
                "image": "00",
                "occurrence": {"kind": "square", "start": 0, "period": 1},
            },
            "stats": {"words_checked": 1, "max_len": 4},
        },
    )
    # certify sums words_checked over the directions it ran
    assert _json_report("certify", "leech", "--pattern", "square", "--max-len", "5") == (
        0,
        {"command": "certify", "verdict": "none", "stats": {"words_checked": 363, "max_len": 5}},
    )


@pytest.mark.parametrize(
    "args",
    [
        ("check-word", "0110", "--pattern", "overlap", "--alphabet", "01"),
        ("check-word", "alfalfa", "--pattern", "overlap", "--alphabet", "alf"),
        ("check-morphism", "g4", "--def", "overlap"),
        ("check-morphism", "thue_morse", "--def", "overlap"),
        ("certify", "leech", "--pattern", "square", "--max-len", "4"),
        ("certify", "thue_morse", "--pattern", "square", "--max-len", "3"),
    ],
    ids=lambda args: " ".join(args[:2]),
)
def test_exit_code_follows_json_verdict(args):
    text = run_cli(*args)
    code, report = _json_report(*args)
    assert text.returncode == code
    assert (code == 0) == (report["verdict"] in ("pass", "none"))


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for each `$ wordmorph` line in the README's
    fenced blocks; the expected output runs to the next `$` line or the end
    of the block."""
    examples: list[tuple[str, list[str]]] = []
    current = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            current = None
        elif line.startswith("$ wordmorph "):
            current = []
            examples.append((line[len("$ wordmorph "):], current))
        elif current is not None:
            current.append(line)
    return [(command, "".join(f"{line}\n" for line in out)) for command, out in examples]


README_EXAMPLES = _readme_examples()


def _mask_elapsed(text: str) -> str:
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": N', text)


def test_readme_has_examples():
    assert len(README_EXAMPLES) >= 9


@pytest.mark.parametrize(
    "command, expected", README_EXAMPLES, ids=[command for command, _ in README_EXAMPLES]
)
def test_readme_example(command, expected):
    res = run_cli(*shlex.split(command))
    assert _mask_elapsed(res.stdout) == _mask_elapsed(expected)


def test_readme_python_example():
    # the Library map's Python block, run as written
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


@pytest.mark.parametrize(
    "command",
    [[], ["check-word"], ["check-morphism"], ["certify"], ["apply"], ["iterate"], ["catalog"]],
)
def test_help_renders(command, capsys):
    # argparse %-formats help strings only when it renders them
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: {' '.join(['wordmorph', *command])} ")


# One in-process sequence that could expose state a shared parser carries
# from one call into the next: options then defaults, usage errors,
# positional-less subcommands and --help.
CERTIFY_THUE_MORSE = ["certify", "thue_morse", "--pattern", "overlap", "--max-len", "6"]
SHARED_PARSER_SEQUENCE = [
    [*CERTIFY_THUE_MORSE, "--direction", "forward", "--json"],
    CERTIFY_THUE_MORSE,
    ["check-word", "01"],
    ["check-word", "0110", "--pattern", "overlap", "--alphabet", "01"],
    ["catalog", "show"],
    ["catalog", "list"],
    ["certify", "--help"],
    ["check-word", "0101", "--pattern", "square", "--alphabet", "01", "--json"],
]


def _main_outcome(argv, capsys) -> tuple[object, str, str]:
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, _mask_elapsed(out), err


def test_shared_parser_leaks_no_state(capsys):
    fresh = []
    for argv in SHARED_PARSER_SEQUENCE:
        cli.build_parser.cache_clear()
        fresh.append(_main_outcome(argv, capsys))
    cli.build_parser.cache_clear()
    shared = [_main_outcome(argv, capsys) for argv in SHARED_PARSER_SEQUENCE]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 2, 0, 0, 1]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(SHARED_PARSER_SEQUENCE) - 1)
