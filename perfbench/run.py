"""wordmorph benchmark: end-to-end and per-layer metrics on three seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload certify-catalog --seed 1 --seconds 30 --trace 0

The load is one process with one client in a closed loop: each request is a
call of wordmorph.cli.main(argv) in this interpreter, with stdout captured,
or a call of the library's explain, and the next request starts when the
previous one returns. Requests come in passes, and a pass is the workload's
whole request set in a seeded order; the run measures whole passes until
the next one would end after --seconds, and always at least three. Every
time is scaled to a fixed machine speed (speed.py): a speed sample is taken
every 50 ms during the passes, and a request's wall time is multiplied by
the speed factor around it. A request's latency is the median of its scaled
times over the passes. Outputs are checked after each pass, outside the
timed region, against the naive oracle in oracle.py.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it, a JSON object under
"info", records the machine, the source, the seed, the load shape and
sample counts; the same and more goes to a result file under
.bench_build/perfbench/.

With --trace 1 every request runs twice in a row, untraced and then with
the functions in tracing.TRACED wrapped. The run writes the spans to
.bench_build/perfbench/spans-<workload>.jsonl, derives the per-layer metrics
from that file, and reports the tracing overhead as traced minus untraced
end-to-end numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracing
from speed import Speedometer
from workloads import WORKLOADS, Outcome, Request

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 15
SETUP_SAMPLES = 3  # speed samples on each side of a cold start
MIN_PASSES = 3
LOAD_SHAPE = "1 process, 1 client, closed loop"
WARMUP = (
    ["catalog", "list"],
    ["check-word", "0110", "--pattern", "overlap", "--alphabet", "01", "--json"],
    ["check-morphism", "thue_morse", "--def", "overlap", "--json"],
    ["certify", "thue_morse", "--pattern", "overlap", "--max-len", "3", "--json"],
)


def import_wordmorph():
    src = ROOT / "src"
    if not (src / "wordmorph" / "__init__.py").is_file():
        sys.exit(f"error: no wordmorph sources under {src}")
    sys.path.insert(0, str(src))
    import wordmorph
    import wordmorph.cli

    if Path(wordmorph.__file__).resolve().parent != src / "wordmorph":
        sys.exit(f"error: imported wordmorph from {wordmorph.__file__}, not from {src}")
    return wordmorph


def measure_setup(speedometer: Speedometer) -> tuple[float, float, bool]:
    """Median scaled and median wall time of `python -m wordmorph catalog
    list` in a fresh interpreter, and whether every answer was right."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    scaled, wall, ok = [], [], True
    for _ in range(SETUP_RUNS):
        for _ in range(SETUP_SAMPLES):
            speedometer.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "wordmorph", "catalog", "list"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        t1 = time.perf_counter()
        for _ in range(SETUP_SAMPLES):
            speedometer.sample()
        wall.append(t1 - t0)
        scaled.append((t1 - t0) * speedometer.factor(t0, t1, around=SETUP_SAMPLES))
        ok = ok and proc.returncode == 0 and proc.stdout.split() == list(oracle.CATALOG)
    return statistics.median(scaled), statistics.median(wall), ok


class Client:
    """Issues requests one at a time and records each outcome.

    It also records, for every certify search a request runs, the per-length
    counts of the words it checked, which the certify JSON report does not
    carry. The recording wrapper sits on cli's binding and calls the search
    through wordmorph.certify, so that a tracer wraps the search beneath it.
    """

    def __init__(self, wordmorph, speedometer: Speedometer | None = None) -> None:
        self.cli = wordmorph.cli
        self.speedometer = speedometer
        self._searches: list[dict[int, int]] = []
        self._requests = 0
        for name in ("search_forward", "search_backward"):
            setattr(self.cli, name, self._audited(wordmorph.certify, name))

    def _audited(self, module, name):
        def audited(*args, **kwargs):
            result = getattr(module, name)(*args, **kwargs)
            self._searches.append(dict(result.checked_by_length))
            return result

        return audited

    def execute(self, req: Request, tracer: tracing.Tracer | None = None) -> None:
        self._requests += 1
        if tracer is not None:
            tracer.request = self._requests
        self._searches = []
        out = io.StringIO()
        code = error = None
        busy = self.speedometer.busy_s if self.speedometer else 0.0
        t0 = time.perf_counter()
        try:
            if req.argv is not None:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.main(req.argv)
            else:
                out.write(req.call())
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed request, not a failed benchmark
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        seconds = t1 - t0 - ((self.speedometer.busy_s if self.speedometer else 0.0) - busy)
        req.outcome = Outcome(seconds, code, out.getvalue(), self._searches, error, (t0, t1))


class Tally:
    """Checked outcomes of some passes, with each request's times.

    Every pass repeats the same requests. A request's latency is the median
    of its times over the passes, scaled to a fixed machine speed, or as
    measured with scaled=False.
    """

    def __init__(self, speedometer: Speedometer) -> None:
        self.speedometer = speedometer
        self.times: dict[str, tuple[list[float], list[float]]] = {}  # (scaled, wall)
        self.work: dict[str, tuple[int, int, bool]] = {}  # (words, letters, search)
        self.attempted = 0
        self.failures: list[str] = []
        self.searches: dict[str, dict[int, int]] = {}

    def add_pass(self, reqs: list[Request]) -> None:
        for req in reqs:
            error = req.check(req)
            self.attempted += 1
            if error is not None:
                self.failures.append(f"{req.label}: {error}")
            seconds = req.outcome.seconds
            scaled, wall = self.times.setdefault(req.label, ([], []))
            scaled.append(seconds * self.speedometer.factor(*req.outcome.span))
            wall.append(seconds)
            self.work[req.label] = (req.words, req.letters, req.search)
            if req.checked_by_length is not None:
                self.searches.setdefault(req.label, req.checked_by_length)
            req.outcome = None  # release outputs, some are a million letters

    def latencies(self, scaled: bool = True) -> dict[str, float]:
        return {label: statistics.median(times[not scaled]) for label, times in self.times.items()}

    def seconds(self, scaled: bool = True) -> float:
        return sum(self.latencies(scaled).values())

    def end_to_end(self, scaled: bool = True) -> dict[str, float]:
        rows = [(s, *self.work[label]) for label, s in self.latencies(scaled).items()]
        ms = sorted(s * 1000 for s, *_ in rows)
        search = [(s, words) for s, words, _, is_search in rows if is_search]
        lettered = [(s, letters) for s, _, letters, _ in rows if letters]
        return {
            "requests_per_s": len(ms) / sum(ms) * 1000,
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
            "words_per_s": sum(w for _, w in search) / sum(s for s, _ in search),
            "letters_per_s": sum(n for _, n in lettered) / sum(s for s, _ in lettered),
            "ok_share": (self.attempted - len(self.failures)) / self.attempted,
        }


def run_passes(
    client: Client, workload, rng: random.Random, budget: float, min_passes: int,
    tracer: tracing.Tracer | None = None,
) -> tuple[list[float], Tally, Tally | None]:
    """Run whole passes while the next would end within budget, at least min_passes.

    With a tracer, each request runs twice in a row, untraced and then
    traced, so that both sides see the machine at the same speed. The
    client's speedometer must be running.
    """
    speedometer = client.speedometer
    tally, traced = Tally(speedometer), (Tally(speedometer) if tracer else None)
    pass_seconds: list[float] = []
    while len(pass_seconds) < min_passes or sum(pass_seconds) + pass_seconds[-1] <= budget:
        reqs, twins = [], []
        t0 = time.perf_counter()
        for req in workload.requests(rng):
            client.execute(req)
            reqs.append(req)
            if tracer is not None:
                twin = dataclasses.replace(req, outcome=None)
                tracer.install()
                client.execute(twin, tracer)
                tracer.uninstall()
                twins.append(twin)
        pass_seconds.append(time.perf_counter() - t0)
        speedometer.sample()  # every request has a sample after it
        tally.add_pass(reqs)
        if traced is not None:
            traced.add_pass(twins)
    return pass_seconds, tally, traced


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wordmorph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wordmorph = import_wordmorph()
    out_dir = ROOT / ".bench_build" / "perfbench"
    inputs = out_dir / f"inputs-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        speedometer = Speedometer()
        setup_s, setup_wall_s, setup_ok = measure_setup(speedometer)
        workload = WORKLOADS[args.workload](args.seed, inputs)
        rng = random.Random(f"{args.workload} order {args.seed}")
        client = Client(wordmorph, speedometer)
        for warm in WARMUP:
            client.execute(Request("warm-up", check=lambda req: None, argv=warm))

        info: dict = {}
        if not args.trace:
            with speedometer:
                pass_seconds, tally, _ = run_passes(client, workload, rng, args.seconds, MIN_PASSES)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {"setup_s": setup_s, **tally.end_to_end(), "peak_rss_mb": rss_mb}
            info["unscaled"] = {"setup_s": setup_wall_s, **tally.end_to_end(scaled=False)}
        else:
            tracer = tracing.Tracer(wordmorph)
            with speedometer:
                pass_seconds, tally, traced = run_passes(client, workload, rng, args.seconds, 1, tracer)
            spans_path = out_dir / f"spans-{args.workload}.jsonl"
            tracer.write(spans_path)
            info["spans"] = {"file": str(spans_path.relative_to(ROOT)), "count": tracer.count}
            del tracer
            metrics = tracing.per_layer(tracing.read_spans(spans_path), len(pass_seconds))
            metrics["trace.overhead_share"] = traced.seconds() / tally.seconds() - 1
            untraced_e2e, traced_e2e = tally.end_to_end(), traced.end_to_end()
            info["tracing_overhead"] = {
                name: {"untraced": untraced_e2e[name], "traced": traced_e2e[name],
                       "traced_minus_untraced": traced_e2e[name] - untraced_e2e[name]}
                for name in untraced_e2e
            }
            tally.attempted += traced.attempted
            tally.failures += traced.failures
        failures = tally.failures
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    if not setup_ok:
        failures.append("setup: `wordmorph catalog list` gave a wrong answer")
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": LOAD_SHAPE,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "passes": len(pass_seconds),
        "pass_seconds": pass_seconds,
        "requests": tally.attempted,
        "distinct_requests": len(tally.times),
        "setup_samples": SETUP_RUNS,
        "speed_samples": len(speedometer.refs),
        "reference_ms_median": statistics.median(speedometer.refs) * 1000,
        "failures": failures[:20],
    })
    result = {
        "correct": not failures,
        "attempted": tally.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {"info": info, "result": result, "certify_checked_by_length": tally.searches}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
