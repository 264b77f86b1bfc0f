"""Offline benchmark for samplecheck.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 20 --trace 0

It drives the public entry points in-process (``cli.main(["verify", ...])`` and
``cli.main(["eval", ...])``) against ``stub.py``, a latency-modelled
OpenAI-style endpoint started as a child process. Each workload is a closed
loop with one caller. The loop runs whole cycles of a seeded deck of inputs
until ``--seconds`` have passed, and at least ``MIN_CYCLES`` of them, so every
run sees the same input mix. Every
output is checked against oracles the benchmark computes itself; a failed check
fails the op and makes the run exit non-zero.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the loop for
half the time untraced and half traced, and prints the per-layer metrics,
measured per op from spans recorded around the calls into each layer (see
``spans.py``), with the tracing overhead as the difference of the two halves'
median op latency. The last line of standard output is one JSON object; the
lines before it repeat the figures for a human. README.md records the
workloads and why they were chosen.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import spans  # noqa: E402

EMBED_MODEL = "sfr-embedding-mistral"  # a preset, so the dimension check runs
CHAT_MODEL = "bench-chat"
CONCURRENCY = 2
THRESHOLDS = (0.9, 0.05)  # (mean_min, std_max), the program's defaults, set explicitly
MARGIN = 1e-6  # no summary lies this close to a threshold
TOLERANCE = 1e-9  # agreement with the scalar oracles
TAIL_BEYOND = 10
MIN_CYCLES = 3  # keeps the op count of the slow cold deck from jumping with CPU speed

# Decks of (k, drift, carries ground truth). A cycle runs its deck once in a
# seeded order. Drift 0.025 gives a HighConfidence verdict and drift 0.25
# Inspect. Drift 0 gives k identical replies, which sampled 80-token replies
# hardly ever are; the cold deck holds one such case only so that the
# all-identical matrix stays checked. The k mix puts the median inside the k=10
# group and the tail percentile inside the largest-k group.
COLD_DECK = [(10, 0.0, True), (10, 0.025, False), (10, 0.025, True),
             (10, 0.025, False), (10, 0.025, True), (10, 0.025, False),
             (10, 0.25, True), (10, 0.25, False), (10, 0.25, True), (10, 0.25, False),
             (16, 0.025, True),
             (32, 0.025, True), (32, 0.025, False), (32, 0.25, True), (32, 0.25, False),
             (32, 0.025, False)]
WARM_DECK = [(10, 0.025, True), (10, 0.025, False), (10, 0.25, True), (10, 0.25, False),
             (32, 0.025, True), (64, 0.25, True)]
EVAL_LEVELS, EVAL_K, EVAL_BASE_TOKENS, EVAL_SENTENCES = 5, 10, 60, 10
SMOKE_DECK = [(4, 0.0, True), (4, 0.25, False), (5, 0.025, True)]

WORKLOADS = ("verify-cold", "verify-warm", "eval-http")


class CheckFailed(Exception):
    """An output did not match the benchmark's oracle."""


# ---------------------------------------------------------------------------
# Stub process
# ---------------------------------------------------------------------------


class Stub:
    def __init__(self, workdir: Path) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "stub.py")],
                                     stdout=subprocess.PIPE, text=True, cwd=workdir)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.port = int(line.split()[1])
        self.url = f"http://127.0.0.1:{self.port}/v1"
        self._control = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)

    def stats(self) -> dict:
        self._control.request("GET", "/_bench/stats")
        return json.loads(self._control.getresponse().read())

    def prepare(self, prompts: list[str], texts: list[str]) -> None:
        """Have the stub encode these replies and embeddings before the timed ops."""
        body = json.dumps({"prompts": prompts, "texts": sorted(set(texts))})
        self._control.request("POST", "/_bench/prepare", body=body,
                              headers={"Content-Type": "application/json"})
        self._control.getresponse().read()

    def close(self) -> None:
        self._control.close()
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One verify input with the summary the scalar oracles give for it."""

    seed: int
    k: int
    prompt: str
    replies: tuple[str, ...]
    gt: str | None
    identical: bool
    mean: float
    std: float
    gt_alignment: float | None
    verdict: str


class Oracle:
    def __init__(self, cosine) -> None:
        self.cosine = cosine
        self.embed = corpus.Embedder(corpus.DIM)

    def offdiag(self, vectors: list) -> list[float]:
        return [self.cosine(vectors[i], vectors[j])
                for i in range(len(vectors)) for j in range(i + 1, len(vectors))]

    def case(self, seed: int, k: int, drift: float, with_gt: bool) -> Case:
        prompt = corpus.case_prompt(seed, k, drift)
        replies = corpus.reply_pool(prompt)
        by_text = {text: self.embed(text) for text in set(replies)}
        vectors = [by_text[text] for text in replies]
        offdiag = self.offdiag(vectors)
        mean = math.fsum(offdiag) / len(offdiag)
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in offdiag) / len(offdiag))
        gt = corpus.ground_truth(seed) if with_gt else None
        gt_alignment = None
        if gt is not None:
            g = self.embed(gt)
            gt_alignment = math.fsum(self.cosine(v, g) for v in vectors) / k
        verdict = ("HighConfidence" if mean > THRESHOLDS[0] and std < THRESHOLDS[1]
                   else "Inspect")
        return Case(seed, k, prompt, tuple(replies), gt, len(by_text) == 1, mean, std,
                    gt_alignment, verdict)

    def make_case(self, seed: int, k: int, drift: float, with_gt: bool) -> Case:
        """The first case from ``seed`` on whose summary keeps clear of the thresholds."""
        while True:
            case = self.case(seed, k, drift, with_gt)
            if abs(case.mean - THRESHOLDS[0]) > MARGIN and abs(case.std - THRESHOLDS[1]) > MARGIN:
                return case
            seed += 1

    def record_score(self, samples: list[str]) -> float:
        offdiag = self.offdiag([self.embed(text) for text in samples])
        return math.fsum(offdiag) / len(offdiag)


def _ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for m in range(i, j + 1):
            ranks[order[m]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _close(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= TOLERANCE


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    seconds: float
    k: int
    units: int  # ops this call completed: 1 per verify, 1 per eval record
    identical: int  # of those, ops whose k replies repeat exactly
    error: str | None
    cache_dir: Path | None


def _config(path: Path, url: str, cache_dir: Path, out_dir: Path, k: int) -> Path:
    provider = {"base_url": url, "timeout": 30, "max_retries": 3, "backoff_base": 0.05}
    path.write_text(json.dumps({
        "k": k, "measure": "cosine", "max_concurrency": CONCURRENCY,
        "thresholds": {"mean_min": THRESHOLDS[0], "std_max": THRESHOLDS[1]},
        "cache_dir": str(cache_dir), "output_dir": str(out_dir),
        "generation": {"model_id": CHAT_MODEL, "max_tokens": 512, **provider},
        "embedding": {"kind": "http", "model_id": EMBED_MODEL, **provider},
    }, indent=2), encoding="utf-8")
    return path


def _call_cli(cli, argv: list[str]) -> tuple[float, int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return seconds, code, out.getvalue()


class VerifyWorkload:
    """One ``samplecheck verify`` per op; cold ops use new prompts, warm ops rerun."""

    def __init__(self, bench: "Bench", warm: bool) -> None:
        self.bench = bench
        self.warm = warm
        self.zero_requests = warm
        self.setup_reps = 3 if warm else 5  # a warm priming pass runs the whole deck cold
        self.deck = SMOKE_DECK if bench.smoke else (WARM_DECK if warm else COLD_DECK)
        self.next_seed = bench.seed * 1_000_000
        self.primed: list[tuple[Case, Path, list[str], bytes]] = []  # argv, report bytes

    def _new_case(self, k: int, drift: float, with_gt: bool) -> Case:
        case = self.bench.oracle.make_case(self.next_seed, k, drift, with_gt)
        self.next_seed = case.seed + 1
        return case

    def _prepare(self, case: Case, op_dir: Path) -> list[str]:
        op_dir.mkdir(parents=True, exist_ok=True)
        cfg = _config(op_dir / "config.json", self.bench.stub.url, op_dir / "cache",
                      op_dir / "out", case.k)
        (op_dir / "prompt.txt").write_text(case.prompt, encoding="utf-8")
        argv = ["verify", "--config", str(cfg), "--prompt", str(op_dir / "prompt.txt"),
                "--k", str(case.k), "--out", str(op_dir / "out")]
        if case.gt is not None:
            (op_dir / "gt.txt").write_text(case.gt, encoding="utf-8")
            argv += ["--gt", str(op_dir / "gt.txt")]
        return argv

    def _check(self, case: Case, code: int, printed: str, op_dir: Path) -> bytes:
        expected_code = 0 if case.verdict == "HighConfidence" else 2
        if code != expected_code:
            raise CheckFailed(f"exit code {code}, oracle verdict {case.verdict}")
        data = (op_dir / "out" / "report.json").read_bytes()
        report = json.loads(data)
        s = report["summary"]
        if s["verdict"] != case.verdict or f"verdict={case.verdict}" not in printed:
            raise CheckFailed(f"verdict {s['verdict']}, oracle {case.verdict}")
        if report["k"] != case.k or len(report["matrix"]["entries"]) != case.k + (case.gt is not None):
            raise CheckFailed("report has the wrong k or matrix order")
        for name, want in (("mean_offdiag", case.mean), ("std_offdiag", case.std),
                           ("gt_alignment", case.gt_alignment)):
            if not _close(s[name], want):
                raise CheckFailed(f"{name} {s[name]!r} differs from oracle {want!r}")
        return data

    def _stage(self, cases: list[Case]) -> None:
        self.bench.stub.prepare(
            [c.prompt for c in cases],
            [t for c in cases for t in c.replies + ((c.gt,) if c.gt is not None else ())])

    def prime(self) -> float:
        """The priming pass; returns the seconds spent in the program.

        Cold: one verify of a throwaway prompt. Warm: the cold run of every deck
        prompt, which fills the cache the warm ops read.
        """
        cases = [self._new_case(*spec) for spec in (self.deck if self.warm else self.deck[:1])]
        self._stage(cases)
        rep_dir = self.bench.fresh_dir("prime")
        total = 0.0
        self.primed = []
        for i, case in enumerate(cases):
            op_dir = rep_dir / str(i)
            argv = self._prepare(case, op_dir)
            seconds, code, printed = _call_cli(self.bench.cli, argv)
            total += seconds
            self.primed.append((case, op_dir, argv, self._check(case, code, printed, op_dir)))
        return total

    def cycle(self) -> list:
        order = self.bench.rng.permutation(len(self.deck))
        if self.warm:
            return [self.primed[i] for i in order]
        cases = [self._new_case(*self.deck[i]) for i in order]
        self._stage(cases)
        return cases

    def run(self, item) -> OpResult:
        if self.warm:
            case, op_dir, argv, primed_bytes = item
        else:
            case = item
            op_dir = self.bench.fresh_dir("op")
            argv = self._prepare(case, op_dir)
        seconds, code, printed = _call_cli(self.bench.cli, argv)
        error = None
        try:
            data = self._check(case, code, printed, op_dir)
            if self.warm and data != primed_bytes:
                raise CheckFailed("warm report.json differs from the cold priming pass")
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            error = f"k={case.k} seed={case.seed}: {exc}"
        return OpResult(seconds, case.k, 1, int(case.identical), error, op_dir / "cache")

    def finish(self, item) -> None:
        if not self.warm:
            shutil.rmtree(self.bench.last_dir, ignore_errors=True)

    def expected_requests(self, item) -> int:
        if self.warm:
            return 0
        return 2 * item.k + (item.gt is not None)  # one request per sample per stage


class EvalWorkload:
    """One ``samplecheck eval --task wikibio --scheme checkembed`` per call; an op is a record."""

    def __init__(self, bench: "Bench") -> None:
        self.bench = bench
        self.levels = 3 if bench.smoke else EVAL_LEVELS
        self.k = 4 if bench.smoke else EVAL_K
        self.invocation = 0
        self.zero_requests = False
        self.setup_reps = 5

    def _dataset(self):
        self.invocation += 1
        records, _ = self.bench.evalmod.corruption_corpus(
            n_levels=self.levels, records_per_level=1, k=self.k,
            base_tokens=EVAL_BASE_TOKENS, seed=self.bench.seed * 100_000 + self.invocation)
        self.bench.stub.prepare([], [t for r in records for t in r.samples[: self.k]])
        return records

    def _invoke(self, records) -> OpResult:
        op_dir = self.bench.fresh_dir("eval")
        dataset = op_dir / "wikibio.jsonl"
        gold = []
        with dataset.open("w", encoding="utf-8") as fh:
            for idx, record in enumerate(records):
                n_acc = round(record.gold * EVAL_SENTENCES)
                gold.append(n_acc / EVAL_SENTENCES)
                labels = ["accurate"] * n_acc + ["major"] * (EVAL_SENTENCES - n_acc)
                fh.write(json.dumps({
                    "id": f"r{idx}", "labels": labels, "samples": list(record.samples),
                    "sentences": [f"Sentence {j}." for j in range(EVAL_SENTENCES)],
                }) + "\n")
        cfg = _config(op_dir / "config.json", self.bench.stub.url, op_dir / "cache",
                      op_dir / "out", self.k)
        argv = ["eval", "--config", str(cfg), "--dataset", str(dataset), "--scheme",
                "checkembed", "--task", "wikibio", "--out", str(op_dir / "out")]
        seconds, code, _ = _call_cli(self.bench.cli, argv)
        identical = sum(len(set(r.samples[: self.k])) == 1 for r in records)
        error = None
        try:
            self._check(records, gold, code, op_dir)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            error = f"eval invocation {self.invocation}: {exc}"
        return OpResult(seconds, self.k, len(records), identical, error, None)

    def _check(self, records, gold: list[float], code: int, op_dir: Path) -> None:
        if code != 0:
            raise CheckFailed(f"eval exit code {code}")
        result = json.loads((op_dir / "out" / "eval_wikibio_checkembed.json").read_text())
        if result["n_records"] != len(records) or result["k"] != self.k:
            raise CheckFailed("eval report has the wrong record count or k")
        scores = [self.bench.oracle.record_score(list(r.samples[: self.k])) for r in records]
        want = {"pearson_pct": statistics.correlation(scores, gold) * 100.0,
                "spearman_pct": statistics.correlation(_ranks(scores), _ranks(gold)) * 100.0}
        for name, value in want.items():
            # The report rounds to one decimal; allow exactly that.
            if abs(result[name] - value) > 0.05 + TOLERANCE:
                raise CheckFailed(f"{name} {result[name]} differs from oracle {value:.4f}")

    def prime(self) -> float:
        """The priming pass, one eval call; returns the seconds spent in the program."""
        result = self._invoke(self._dataset())
        if result.error:
            raise CheckFailed(result.error)
        return result.seconds

    def cycle(self) -> list:
        return [self._dataset()]

    def run(self, item) -> OpResult:
        return self._invoke(item)

    def finish(self, item) -> None:
        shutil.rmtree(self.bench.last_dir, ignore_errors=True)

    def expected_requests(self, item) -> int:
        return len(item) * self.k


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Bench:
    """What every workload shares: the program, the stub, the oracle, the seed."""

    def __init__(self, args: argparse.Namespace, workdir: Path, stub: Stub, cli, evalmod,
                 cosine) -> None:
        import numpy as np

        self.seed = args.seed
        self.smoke = args.smoke
        self.workdir = workdir
        self.rng = np.random.default_rng(args.seed)
        self.stub = stub
        self.cli = cli
        self.evalmod = evalmod
        self.oracle = Oracle(cosine)
        self.last_dir = workdir
        self._dirs = 0

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        self.last_dir = self.workdir / f"{prefix}{self._dirs}"
        self.last_dir.mkdir(parents=True)
        return self.last_dir


def _import_seconds() -> float:
    """Time ``import samplecheck`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import samplecheck.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip())


def _tree_bytes(path: Path | None) -> int:
    if path is None or not path.exists():
        return 0
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Loop:
    """Closed loop with one caller: whole deck cycles until the deadline, at least MIN_CYCLES."""

    def __init__(self, bench: Bench, workload) -> None:
        self.bench = bench
        self.workload = workload
        self.latencies_ms: list[float] = []  # one entry per op (per record for eval)
        self.by_k: dict[int, list[float]] = {}
        self.attempted = self.failed = self.identical = 0
        self.op_seconds = 0.0
        self.errors: list[str] = []
        self.requests = 0
        self.expected_requests = 0  # at one request per sample per stage

    def run(self, seconds: float, on_op=None) -> None:
        deadline = time.perf_counter() + seconds
        cycles = 0
        while time.perf_counter() < deadline or cycles < MIN_CYCLES:
            cycles += 1
            for item in self.workload.cycle():
                before = self.bench.stub.stats()
                if on_op:
                    on_op("start", item)
                result = self.workload.run(item)
                after = self.bench.stub.stats()
                if on_op:
                    on_op("end", (result, before, after))
                self.workload.finish(item)
                self._record(item, result, after["requests"] - before["requests"])

    def _record(self, item, result: OpResult, requests: int) -> None:
        per_unit_ms = result.seconds * 1000.0 / result.units
        self.latencies_ms += [per_unit_ms] * result.units
        self.by_k.setdefault(result.k, []).extend([per_unit_ms] * result.units)
        self.attempted += result.units
        self.op_seconds += result.seconds
        self.identical += result.identical
        self.requests += requests
        self.expected_requests += self.workload.expected_requests(item)
        if self.workload.zero_requests and requests != 0:
            result.error = result.error or f"op made {requests} provider requests, expected 0"
        if result.error:
            self.failed += result.units
            self.errors.append(result.error)

    def end_to_end(self) -> dict:
        tail, pct = _tail(self.latencies_ms)
        return {
            "op_p50_ms": statistics.median(self.latencies_ms),
            "op_tail_ms": tail,
            "tail_percentile": pct,
            # Ops per second of the program's own time: the harness's stats and
            # prepare calls between ops are left out.
            "ops_per_s": self.attempted / self.op_seconds,
            "requests_per_op": self.requests / self.attempted,
            "failed_frac": self.failed / self.attempted,
            "identical_frac": self.identical / self.attempted,
        }


class LayerMetrics:
    """Per-op sums of the traced layer metrics."""

    NAMES = {
        "providers.requests": "count", "providers.connections": "count",
        "providers.request_bytes": "bytes", "providers.response_bytes": "bytes",
        "providers.inflight_max": "count", "providers.batch_size": "count",
        "providers.call_ms": "ms", "providers.service_ms": "ms",
        "providers.overhead_ms": "ms", "providers.parallelism": "ratio",
        "providers.retries": "count", "providers.failed": "count",
        "pipeline.cache_reads": "count", "pipeline.cache_read_ms": "ms",
        "pipeline.cache_writes": "count", "pipeline.cache_write_ms": "ms",
        "pipeline.cache_hit_ratio": "ratio", "pipeline.cache_bytes": "bytes",
        "pipeline.report_json_ms": "ms", "pipeline.verify_self_ms": "ms",
        "scorematrix.pairs": "count", "scorematrix.build_matrix_ms": "ms",
        "scorematrix.summarize_ms": "ms",
        "render.svg_ms": "ms", "render.csv_ms": "ms", "render.output_bytes": "bytes",
        "cli.load_config_ms": "ms", "cli.self_ms": "ms",
        "eval.read_ms": "ms", "eval.score_ms": "ms", "eval.correlate_ms": "ms",
        "requests_per_op": "count", "trace.overhead_ms": "ms",
    }

    def __init__(self, tracer: spans.Tracer) -> None:
        self.tracer = tracer
        self.sums: dict[str, float] = dict.fromkeys(self.NAMES, 0.0)
        self.units = 0
        self.http_wall_ms = 0.0
        self.cache_hits = 0
        self.embed_inputs = self.embed_requests = 0

    def on_op(self, phase: str, payload) -> None:
        if phase == "start":
            self.tracer.take()
            return
        result, before, after = payload
        recorded = self.tracer.take()
        s = self.sums
        self.units += result.units
        for key, stat in (("providers.requests", "requests"),
                          ("providers.connections", "connections"),
                          ("providers.request_bytes", "request_bytes"),
                          ("providers.response_bytes", "response_bytes"),
                          ("providers.service_ms", "service_ms")):
            s[key] += after[stat] - before[stat]
        s["providers.inflight_max"] += after["inflight_max"] * result.units
        self.embed_inputs += after["embed_inputs"] - before["embed_inputs"]
        self.embed_requests += after["embed_requests"] - before["embed_requests"]
        s["pipeline.cache_bytes"] += _tree_bytes(result.cache_dir)

        http = [sp for sp in recorded if sp.name == "providers.http"]
        s["providers.call_ms"] += sum(sp.ms for sp in http)
        self.http_wall_ms += spans.covered([(sp.start, sp.end) for sp in http]) * 1000.0
        s["providers.retries"] += sum(
            sp.raised or getattr(sp.result, "status_code", 200) != 200 for sp in http)
        for sp in recorded:
            name = sp.name
            if name in ("providers.complete_once", "providers.embed_text"):
                s["providers.failed"] += sp.raised
            elif name == "pipeline.cache_read":
                s["pipeline.cache_reads"] += 1
                s["pipeline.cache_read_ms"] += sp.ms
                self.cache_hits += sp.result is not None
            elif name == "pipeline.cache_write":
                s["pipeline.cache_writes"] += 1
                s["pipeline.cache_write_ms"] += sp.ms
            elif name == "pipeline.report_json_bytes":
                s["pipeline.report_json_ms"] += sp.ms
            elif name == "pipeline.verify":
                s["pipeline.verify_self_ms"] += spans.self_ms(sp)
            elif name == "scorematrix.build_matrix":
                s["scorematrix.build_matrix_ms"] += sp.ms
                n = len(getattr(sp.result, "labels", ()))
                s["scorematrix.pairs"] += n * (n - 1) // 2
            elif name == "scorematrix.summarize":
                s["scorematrix.summarize_ms"] += sp.ms
            elif name in ("render.matrix_to_svg", "render.matrix_to_csv"):
                s["render.svg_ms" if name.endswith("svg") else "render.csv_ms"] += sp.ms
                s["render.output_bytes"] += len(sp.result or "")
            elif name == "cli.load_config":
                s["cli.load_config_ms"] += sp.ms
            elif name == "cli.main":
                s["cli.self_ms"] += spans.self_ms(sp)
            elif name == "eval.read_passages_jsonl":
                s["eval.read_ms"] += sp.ms
            elif name == "eval.score":
                s["eval.score_ms"] += sp.ms
            elif name == "eval.correlate":
                s["eval.correlate_ms"] += sp.ms

    def per_op(self, overhead_ms: float) -> dict[str, float]:
        out = {name: value / self.units for name, value in self.sums.items()}
        s = self.sums
        out["providers.overhead_ms"] = (s["providers.call_ms"] - s["providers.service_ms"]) / self.units
        out["providers.parallelism"] = (s["providers.call_ms"] / self.http_wall_ms
                                        if self.http_wall_ms else 0.0)
        out["providers.batch_size"] = (self.embed_inputs / self.embed_requests
                                       if self.embed_requests else 0.0)
        out["pipeline.cache_hit_ratio"] = (self.cache_hits / s["pipeline.cache_reads"]
                                           if s["pipeline.cache_reads"] else 0.0)
        out["requests_per_op"] = s["providers.requests"] / self.units
        out["trace.overhead_ms"] = overhead_ms
        return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args: argparse.Namespace, workdir: Path) -> tuple[dict, bool, int, int]:
    sys.path.insert(0, str(SRC))
    import requests
    from samplecheck import cli, eval as evalmod, pipeline, providers, render, vectors

    stub = Stub(workdir)
    bench = Bench(args, workdir, stub, cli, evalmod, vectors.cosine)
    try:
        workload = (EvalWorkload(bench) if args.workload == "eval-http"
                    else VerifyWorkload(bench, warm=args.workload == "verify-warm"))
        setups = []
        for _ in range(1 if args.smoke else workload.setup_reps):
            setups.append(_import_seconds() + workload.prime())
        setup_s = statistics.median(setups)

        loop = Loop(bench, workload)
        if not args.trace:
            loop.run(args.seconds)
            e2e = loop.end_to_end()
            metrics = {
                "setup_s": _metric(setup_s, "s"),
                "op_p50_ms": _metric(e2e["op_p50_ms"], "ms"),
                "op_tail_ms": _metric(e2e["op_tail_ms"], "ms"),
                "ops_per_s": _metric(e2e["ops_per_s"], "1/s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            _print_human(args.workload, loop, e2e, metrics)
            return metrics, loop.failed == 0, loop.attempted, loop.failed

        loop.run(args.seconds / 2)
        untraced_p50 = statistics.median(loop.latencies_ms)
        tracer = spans.Tracer()
        spans.install(tracer, cli, pipeline, providers, render, evalmod,
                      requests.sessions.Session)
        layers = LayerMetrics(tracer)
        traced = Loop(bench, workload)
        try:
            traced.run(args.seconds / 2, on_op=layers.on_op)
        finally:
            tracer.uninstall()
        overhead = statistics.median(traced.latencies_ms) - untraced_p50
        values = layers.per_op(overhead)
        metrics = {name: _metric(values[name], unit) for name, unit in LayerMetrics.NAMES.items()}
        for name, m in metrics.items():
            print(f"{name:<30} {m['value']:>14.4f} {m['unit']}")
        absent = sorted(set(tracer.absent))
        print("absent layer functions: " + (", ".join(absent) if absent else "none"))
        for lp in (loop, traced):
            for error in lp.errors[:5]:
                print(f"FAILED {error}", file=sys.stderr)
        failed = loop.failed + traced.failed
        return metrics, failed == 0, loop.attempted + traced.attempted, failed
    finally:
        stub.close()


def _print_human(workload: str, loop: Loop, e2e: dict, metrics: dict) -> None:
    print(f"workload {workload}: {loop.attempted} ops, closed loop, one caller")
    for name, m in metrics.items():
        print(f"{name:<16} {m['value']:>12.4f} {m['unit']}")
    print(f"{'op_tail_ms':<16} is p{e2e['tail_percentile']:.2f} "
          f"({TAIL_BEYOND} ops beyond it, {loop.attempted} ops)")
    print("p50 by k: " + ", ".join(f"k={k} {statistics.median(v):.1f} ms ({len(v)} ops)"
                                   for k, v in sorted(loop.by_k.items())))
    print(f"{'requests_per_op':<16} {e2e['requests_per_op']:>12.4f} count (one request per "
          f"sample per stage: {loop.expected_requests / loop.attempted:.4f})")
    print(f"{'failed_frac':<16} {e2e['failed_frac']:>12.4f} ratio")
    print(f"{'identical_frac':<16} {e2e['identical_frac']:>12.4f} ratio "
          "(ops whose k replies repeat exactly)")
    for error in loop.errors[:5]:
        print(f"FAILED {error}", file=sys.stderr)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Offline benchmark for samplecheck.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny decks and one set-up pass, for the smoke test")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "samplecheck" / "__init__.py").is_file():
        print(f"error: no samplecheck sources under {SRC}", file=sys.stderr)
        return 2
    workdir = HERE.parent / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        metrics, correct, attempted, failed = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
