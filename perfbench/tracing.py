"""Spans around the public functions of each wordmorph module, from outside.

Each traced function is replaced wherever a module binds it, so that the
call a caller makes goes through the wrapper: wordmorph.certify.find_pattern,
wordmorph.unstackable.find_pattern and wordmorph.cli.find_pattern are all
wrapped, and Morphism.apply is wrapped on the class. A span is
(id, parent, request, name, start_ns, end_ns, a, b), where a and b are the
counts named in TRACED and parent is the span that was open when it began
(0 for none). Spans stay in memory until write() at the end.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path


def _letters_hit(args, result):
    return len(args[0]), int(result is not None)


def _result_len(args, result):  # letters of a word, words of a list
    return len(result), 0


def _witnesses(args, result):
    return len(result.witnesses), 0


def _words(args, result):
    return result.words_checked, 0


def _error(args, result):
    return int(result == 2), 0


# (defining module, function, (a, b) from (args, result)); None records no counts.
TRACED = (
    ("words", "find_pattern", _letters_hit),  # a = letters, b = hit
    ("words", "enumerate_pattern_free", None),  # one span per next(); a = word yielded
    ("words", "parse_word", None),
    ("morphisms", "iterate_prefix", _result_len),  # a = letters produced
    ("unstackable", "pattern_free_triples", _result_len),
    ("unstackable", "check_image_triples", _witnesses),
    ("unstackable", "check_border_condition", _witnesses),
    ("unstackable", "check_marked_ends", _witnesses),
    ("certify", "search_forward", _words),
    ("certify", "search_backward", _words),
    ("certify", "explain", None),
    ("morphfile", "parse_morphism_file", None),
    ("cli", "load_morphism", None),
    ("cli", "main", _error),  # a = 1 for exit 2 or an exception
)


FIELDS = ("id", "parent", "request", "name", "start_ns", "end_ns", "a", "b")


class Tracer:
    """Wrappers for the traced functions, and the spans they record.

    The wrappers are built once; install() and uninstall() swap them in and
    out, so that a run can time a request untraced and then traced. Spans
    are kept in columns of machine integers to keep a pass of a few hundred
    thousand spans small.
    """

    def __init__(self, package) -> None:
        self.request = 0
        self._columns = {name: array("q") for name in FIELDS}
        self._stack = [0]
        self._ids = itertools.count(1)
        self.names: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        prefix = package.__name__
        modules = [m for key, m in sys.modules.items() if key == prefix or key.startswith(prefix + ".")]
        for module_name, func_name, counts in TRACED:
            original = getattr(sys.modules[f"{prefix}.{module_name}"], func_name)
            if func_name == "enumerate_pattern_free":
                wrapper = self._wrap_generator(f"{module_name}.{func_name}", original)
            else:
                wrapper = self._wrap(f"{module_name}.{func_name}", original, counts)
            self._patches += [
                (module, func_name, original, wrapper)
                for module in modules
                if getattr(module, func_name, None) is original
            ]
        morphism = sys.modules[f"{prefix}.morphisms"].Morphism
        self._patches.append(
            (morphism, "apply", morphism.apply, self._wrap("morphisms.apply", morphism.apply, _result_len))
        )

    @property
    def count(self) -> int:
        return len(self._columns["id"])

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def _recorder(self, name: str):
        self.names.append(name)
        index = len(self.names) - 1
        appends = [self._columns[field].append for field in FIELDS]

        def record(sid, parent, t0, t1, a, b):
            for append, value in zip(appends, (sid, parent, self.request, index, t0, t1, a, b)):
                append(value)

        return record

    def _wrap(self, name, fn, counts):
        record, stack, ids, clock = self._recorder(name), self._stack, self._ids, time.perf_counter_ns
        error_count = 1 if name == "cli.main" else 0

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                record(sid, parent, t0, t1, error_count, 0)
                raise
            t1 = clock()
            stack.pop()
            a, b = counts(args, result) if counts else (0, 0)
            record(sid, parent, t0, t1, a, b)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        record, stack, ids, clock = self._recorder(name), self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    sid = next(ids)
                    parent = stack[-1]
                    stack.append(sid)
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        record(sid, parent, t0, clock(), 0, 0)
                        return
                    finally:
                        stack.pop()
                    record(sid, parent, t0, clock(), 1, 0)
                    yield item

            return steps()

        return traced

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            f.write(json.dumps({"fields": FIELDS}) + "\n")
            for sid, parent, req, name, *rest in zip(*self._columns.values()):
                f.write(json.dumps([sid, parent, req, self.names[name], *rest]) + "\n")


def read_spans(path: Path):
    with path.open(encoding="utf-8") as f:
        next(f)
        for line in f:
            yield json.loads(line)


def per_layer(spans, passes: int) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from spans, per pass.

    .s is a function's inclusive time; self_s subtracts the time of the
    spans it caused. Counts and times are divided by the number of passes.
    A span is recorded when it ends, so its children come before it, and
    one streaming pass over the spans suffices.
    """
    calls = defaultdict(int)
    secs = defaultdict(float)
    self_secs = defaultdict(float)
    a_sum = defaultdict(int)
    b_sum = defaultdict(int)
    child_secs = defaultdict(float)  # by open parent id
    child_scans = defaultdict(int)  # find_pattern children, by open parent id
    backward_scans = 0
    for sid, parent, _req, name, t0, t1, a, b in spans:
        dur = (t1 - t0) / 1e9
        calls[name] += 1
        secs[name] += dur
        self_secs[name] += dur - child_secs.pop(sid, 0.0)
        a_sum[name] += a
        b_sum[name] += b
        child_secs[parent] += dur
        scans = child_scans.pop(sid, 0)
        if name == "certify.search_backward":
            backward_scans += scans
        elif name == "words.find_pattern":
            child_scans[parent] += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fp = "words.find_pattern"
    enum = "words.enumerate_pattern_free"
    fwd, bwd = "certify.search_forward", "certify.search_backward"
    # Each checked word costs search_backward one scan of its image; every
    # other find_pattern call it makes scans a generated candidate.
    candidates = backward_scans - a_sum[bwd]
    m = {
        f"{fp}.calls": calls[fp],
        f"{fp}.s": secs[fp],
        f"{fp}.letters": a_sum[fp],
        f"{fp}.hit_ratio": ratio(b_sum[fp], calls[fp]),
        f"{enum}.words": a_sum[enum],
        f"{enum}.s": secs[enum],
        "words.parse_word.calls": calls["words.parse_word"],
        "words.parse_word.s": secs["words.parse_word"],
        "morphisms.apply.calls": calls["morphisms.apply"],
        "morphisms.apply.s": secs["morphisms.apply"],
        "morphisms.apply.letters": a_sum["morphisms.apply"],
        "morphisms.iterate_prefix.s": secs["morphisms.iterate_prefix"],
        "morphisms.iterate_prefix.letters": a_sum["morphisms.iterate_prefix"],
        "unstackable.check_image_triples.s": secs["unstackable.check_image_triples"],
        "unstackable.check_border_condition.s": secs["unstackable.check_border_condition"],
        "unstackable.check_marked_ends.s": secs["unstackable.check_marked_ends"],
        "unstackable.pattern_free_triples.s": secs["unstackable.pattern_free_triples"],
        "unstackable.witnesses": sum(
            a_sum[f"unstackable.{f}"]
            for f in ("check_image_triples", "check_border_condition", "check_marked_ends")
        ),
        f"{fwd}.calls": calls[fwd],
        f"{fwd}.s": secs[fwd],
        f"{fwd}.words": a_sum[fwd],
        f"{bwd}.calls": calls[bwd],
        f"{bwd}.s": secs[bwd],
        f"{bwd}.words": a_sum[bwd],
        f"{bwd}.useful_ratio": ratio(a_sum[bwd], candidates),
        "certify.self_s": self_secs[fwd] + self_secs[bwd],
        "certify.explain.calls": calls["certify.explain"],
        "certify.explain.s": secs["certify.explain"],
        "morphfile.parse_morphism_file.calls": calls["morphfile.parse_morphism_file"],
        "morphfile.parse_morphism_file.s": secs["morphfile.parse_morphism_file"],
        "cli.load_morphism.s": secs["cli.load_morphism"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_secs["cli.main"],
        "cli.main.errors": a_sum["cli.main"],
    }
    return {
        key: value if key.endswith("_ratio") else value / passes
        for key, value in m.items()
    }
