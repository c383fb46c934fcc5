"""Tests of the benchmark itself: the oracle, the output checks, the tracer
and the speed scale.

Run from the repository root with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import random
import tempfile
import time
import unittest
from pathlib import Path

import oracle
import run
import speed
import tracing
import workloads

wordmorph = run.import_wordmorph()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def scan_all(text: str, kind: str) -> list[tuple[int, int]]:
    """Every occurrence in (span, start) order, by exhaustive comparison."""
    return sorted(
        ((i, p) for p in range(1, len(text) + 1) for i in range(len(text))
         if oracle.matches(text, kind, i, p)),
        key=lambda occ: (occ[1], occ[0]),
    )


class OracleTest(unittest.TestCase):
    def test_regex_search_agrees_with_exhaustive_scan(self):
        for length in range(1, 8):
            for t in itertools.product("012", repeat=length):
                text = "".join(t)
                for kind in oracle.KINDS:
                    occs = scan_all(text, kind)
                    self.assertEqual(oracle.first_occurrence(text, kind), occs[0] if occs else None)
                    for p in range(1, 4):
                        bounded = oracle.find_any(text, kind, p)
                        self.assertEqual(bounded is None, not any(q <= p for _, q in occs))

    def test_minimal_error_names_each_way_to_be_wrong(self):
        text = "1001001"
        self.assertIsNone(oracle.minimal_error(text, "square", 1, 1))
        self.assertIn("does not match", oracle.minimal_error(text, "square", 0, 1))
        self.assertIn("smaller period", oracle.minimal_error(text, "square", 0, 3))
        self.assertIn("smaller start 1", oracle.minimal_error(text, "square", 4, 1))

    def test_generators_agree(self):
        self.assertEqual(oracle.thue_morse(16), "0110100110010110")
        tm = oracle.CATALOG["thue_morse"]
        self.assertEqual(oracle.fixed_point(*tm, 5000), oracle.thue_morse(5000))
        leech = oracle.fixed_point(*oracle.CATALOG["leech"], 500)
        self.assertTrue(leech.startswith(oracle.CATALOG["leech"][1][0]))
        self.assertFalse(oracle.contains(leech, "square"))

    def test_catalog_copy_matches_the_program(self):
        for name, (letters, images) in oracle.CATALOG.items():
            m = wordmorph.catalog(name)
            self.assertEqual("".join(m.source.letters), letters)
            self.assertEqual(tuple(im.text for im in m.images), images)

    def test_certify_counts_match_the_program_on_small_searches(self):
        cases = [
            ("thue_morse", "overlap", 8), ("leech", "square", 5),
            ("f4", "square", 4), ("g4", "overlap", 3), ("leech", "cube", 4),
        ]
        for name, kind, max_len in cases:
            m = wordmorph.catalog(name)
            k = wordmorph.PatternKind(kind)
            for direction, search in (("forward", wordmorph.search_forward),
                                      ("backward", wordmorph.search_backward)):
                counts, cex = oracle.certify(*oracle.CATALOG[name], kind, max_len, direction)
                result = search(m, k, max_len)
                self.assertEqual(counts, result.checked_by_length, (name, kind, direction))
                self.assertEqual(cex is None, result.counterexample is None)
                if cex is not None:
                    self.assertEqual(cex["word"], result.counterexample.word.text)
                    self.assertEqual(cex["occurrence"]["start"], result.counterexample.occurrence.start)

    def test_random_pattern_free_words_are_pattern_free(self):
        rng = random.Random(3)
        for letters, kind in (("01", "overlap"), ("012", "square"), ("0123", "square")):
            for n in (3, 10, 18):
                w = oracle.random_pattern_free(rng, letters, kind, n)
                self.assertEqual(len(w), n)
                self.assertFalse(oracle.contains(w, kind))


class PlantingTest(unittest.TestCase):
    def test_every_case_plants_its_period_as_the_smallest(self):
        lw = workloads.LongWords(7, Path("unused"))
        planted = [w for w in lw.words if w[4] is not None]
        self.assertEqual(len(planted), len(lw.CASES))
        for (label, _alphabet, word, kind, (lo, hi)), case in zip(planted, lw.CASES):
            start, period = oracle.first_occurrence(word, kind)
            self.assertEqual(period, case[3], label)
            self.assertGreaterEqual(start, len(word) // 2 - period, label)
            self.assertTrue(start < hi and start + oracle.span(kind, period) > lo, label)


class SpeedometerTest(unittest.TestCase):
    def test_factor_averages_the_samples_in_and_around_the_interval(self):
        speedometer = speed.Speedometer()
        speedometer.times.extend([1.0, 2.0, 3.0, 4.0, 5.0])
        speedometer.refs.extend([0.004, 0.001, 0.002, 0.002, 0.004])
        self.assertAlmostEqual(speedometer.factor(1.5, 2.5), speed.REFERENCE_S / (0.007 / 3))
        self.assertAlmostEqual(speedometer.factor(1.5, 2.5, around=0), speed.REFERENCE_S / 0.001)
        self.assertAlmostEqual(speedometer.factor(5.5, 6.0), speed.REFERENCE_S / 0.004)

    def test_timer_samples_while_entered_and_restores_the_handler(self):
        import signal

        before = signal.getsignal(signal.SIGALRM)
        with speed.Speedometer(interval=0.01) as speedometer:
            deadline = time.perf_counter() + 0.1
            while time.perf_counter() < deadline:
                pass
        self.assertGreaterEqual(len(speedometer.refs), 5)
        self.assertEqual(list(speedometer.times), sorted(speedometer.times))
        self.assertGreater(speedometer.busy_s, 0)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class ChecksFireTest(unittest.TestCase):
    """The output checks accept the program's real answers and reject wrong ones."""

    def setUp(self):
        self.client = run.Client(wordmorph)

    def certify(self, certifier, name="f4", kind="overlap", max_len=3, direction="forward"):
        req = workloads.certify_request(
            certifier, "t", name, *oracle.CATALOG[name], kind, max_len, direction
        )
        self.client.execute(req)
        return req

    def test_certify_check_fires_on_a_wrong_expected_count(self):
        certifier = workloads.CertifyOracle()
        req = self.certify(certifier)
        self.assertIsNone(req.check(req))
        counts, cex = certifier.expect(*oracle.CATALOG["f4"], "overlap", 3, "forward")
        wrong = {**counts, 3: counts[3] - 1}
        certifier._cache[(*oracle.CATALOG["f4"], "overlap", 3, "forward")] = (wrong, cex)
        self.assertIn("words checked per length", req.check(req))

    def test_certify_check_fires_on_a_wrong_reported_total(self):
        req = self.certify(workloads.CertifyOracle(), name="f4", kind="square", max_len=3)
        self.assertIsNone(req.check(req))
        report = json.loads(req.outcome.out)
        report["stats"]["words_checked"] += 1
        req.outcome.out = json.dumps(report)
        self.assertIn("words_checked", req.check(req))

    def test_certify_check_fires_on_a_wrong_witness(self):
        req = self.certify(workloads.CertifyOracle(), name="f4", kind="square", max_len=3)
        report = json.loads(req.outcome.out)
        report["witness"]["occurrence"]["start"] += 1
        req.outcome.out = json.dumps(report)
        self.assertIn("witness", req.check(req))

    def test_check_word_check_fires_on_a_non_minimal_occurrence(self):
        lw = workloads.LongWords(1, Path("unused"))
        planted = next(w for w in lw.words if w[4] is not None and len(w[2]) == 250)
        req = lw._check_word(*planted)
        self.client.execute(req)
        self.assertIsNone(req.check(req))
        report = json.loads(req.outcome.out)
        report["witness"]["occurrence"]["period"] += 1
        req.outcome.out = json.dumps(report)
        self.assertIn("not minimal", req.check(req))
        clean = next(w for w in lw.words if w[4] is None and len(w[2]) == 250)
        req = lw._check_word(*clean)
        self.client.execute(req)
        self.assertIsNone(req.check(req))
        req.outcome.code = 1
        self.assertIn("exit code", req.check(req))

    def test_iterate_check_fires_on_one_wrong_letter(self):
        lw = workloads.LongWords(1, Path("unused"))
        req = lw._iterate("thue_morse")
        self.client.execute(req)
        self.assertIsNone(req.check(req))
        expected = lw.expected_iterate["thue_morse"]
        lw.expected_iterate["thue_morse"] = expected[:500] + "10"[int(expected[500])] + expected[501:]
        self.assertIn("independent generator", req.check(req))

    def test_morphism_screen_rejects_a_counterexample_to_a_passing_morphism(self):
        screen = workloads.MorphismScreen.__new__(workloads.MorphismScreen)
        screen.certifier = workloads.CertifyOracle()
        screen._triples = {}
        screen.morphisms = [("f4", *oracle.CATALOG["f4"], "square")]
        reqs = []
        for req in screen.requests(random.Random(0)):
            self.client.execute(req)
            reqs.append(req)
        self.assertEqual([r.label.split()[0] for r in reqs],
                         ["check-morphism", "check-morphism", "certify", "explain"])
        self.assertEqual([r.check(r) for r in reqs], [None] * 4)
        # Pretend check-morphism --def square passed: certify's counterexample
        # then contradicts it.
        report = json.loads(reqs[1].outcome.out)
        report["verdict"] = "pass"
        del report["witness"]
        reqs[1].outcome.out = json.dumps(report)
        reqs[1].outcome.code = 0
        self.assertIsNone(reqs[1].check(reqs[1]))
        self.assertIn("passes but certify", reqs[2].check(reqs[2]))

    def test_check_morphism_check_fires_on_a_forged_witness(self):
        images = oracle.CATALOG["f4"][1]
        forged = (
            {"a": "0", "b": "1"},  # f4's images have distinct first and last letters
            {"a": "0", "b": "1", "V": "0", "S": images[0][:-1], "U": images[1][1:]},
            {"word": "010", "image": "x", "occurrence": {"kind": "square", "start": 0, "period": 1}},
            None,
        )
        for witness in forged:
            self.assertIsNotNone(workloads._witness_error(witness, "0123", images, "square"), witness)


class TracerTest(unittest.TestCase):
    def test_spans_nest_and_every_declared_metric_is_derived(self):
        tracer = tracing.Tracer(wordmorph)
        tracer.install()
        try:
            tracer.request = 1
            self.assertEqual(
                wordmorph.cli.main(["certify", "thue_morse", "--pattern", "overlap", "--max-len", "5", "--json"]), 0
            )
        finally:
            tracer.uninstall()
        self.assertIs(wordmorph.certify.find_pattern, wordmorph.words.find_pattern)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.jsonl"
            tracer.write(path)
            spans = list(tracing.read_spans(path))
        names = {span[0]: span[3] for span in spans}
        parents = {(names.get(span[1]), span[3]) for span in spans}
        self.assertIn(("certify.search_forward", "words.find_pattern"), parents)
        self.assertIn(("certify.search_forward", "words.enumerate_pattern_free"), parents)
        self.assertIn(("certify.search_backward", "morphisms.apply"), parents)
        self.assertIn(("cli.main", "certify.search_forward"), parents)
        self.assertIn((None, "cli.main"), parents)
        metrics = tracing.per_layer(spans, 1)
        metrics["trace.overhead_share"] = 0.0
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in BENCHMARK["per_layer"]))
        counts, _ = oracle.certify(*oracle.CATALOG["thue_morse"], "overlap", 5, "forward")
        self.assertEqual(metrics["certify.search_forward.words"], sum(counts.values()))
        self.assertGreater(metrics["certify.search_backward.useful_ratio"], 0)
        self.assertLessEqual(
            metrics["certify.self_s"],
            metrics["certify.search_forward.s"] + metrics["certify.search_backward.s"],
        )

    def test_end_to_end_names_match_the_benchmark_file(self):
        speedometer = speed.Speedometer()
        speedometer.sample()
        tally = run.Tally(speedometer)
        tally.times = {"a": ([0.1], [0.1]), "b": ([0.2], [0.2])}
        tally.work = {"a": (5, 10, True), "b": (0, 3, False)}
        tally.attempted = 2
        names = {"setup_s", "peak_rss_mb", *tally.end_to_end()}
        self.assertEqual(names, {m["name"] for m in BENCHMARK["end_to_end"]})
        self.assertEqual(sorted(workloads.WORKLOADS), sorted(w["name"] for w in BENCHMARK["workloads"]))


if __name__ == "__main__":
    unittest.main()
