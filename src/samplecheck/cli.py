"""Command-line surface: verify prompts, evaluate datasets, export heatmaps,
query the cost model.

Exit codes are machine-actionable: 0 means the verification verdict was
HighConfidence (or the command simply succeeded), 2 means the verdict was
Inspect, 1 means any error, a usage error included. Configuration is a single
JSON file; API keys are referenced by environment-variable name only.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import stat
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, NoReturn, Sequence

from . import costmodel, eval as evalmod, render
from .baselines import judge as judgemod
from .errors import SampleCheckError
from .pipeline import (
    PartialFailure,
    VerificationReport,
    _atomic_write,
    embed_cached,
    replies_cached,
    report_from_json,
    report_json_bytes,
    verify,
)
from .providers import EmbedderConfig, GeneratorConfig, ProviderConfig
from .scorematrix import MEASURES, ConfidenceThresholds, SimilarityMatrix

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INSPECT = 2

EVAL_SCHEMES = ("checkembed", "judge")
EVAL_TASKS = ("wikibio", "ragtruth")


class ConfigError(SampleCheckError):
    """The run configuration failed to parse or validate."""


@dataclass(frozen=True)
class EvalSettings:
    statistic: str = "mean_offdiag"

    def __post_init__(self) -> None:
        if self.statistic not in evalmod.STATISTICS:
            raise ConfigError(f"eval.statistic must be one of {', '.join(evalmod.STATISTICS)}")


@dataclass(frozen=True)
class RunConfig:
    """A run's settings; each section of the config file holds exactly its fields."""

    generation: GeneratorConfig
    embedding: EmbedderConfig = EmbedderConfig()
    thresholds: ConfidenceThresholds = ConfidenceThresholds()
    cache_dir: Path = Path("cache")
    output_dir: Path = Path("out")
    k: int = 10
    measure: str = "cosine"
    eval: EvalSettings = EvalSettings()

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ConfigError("k must be >= 2")
        if self.measure not in MEASURES:
            raise ConfigError(f"measure must be one of {', '.join(MEASURES)}")


# What the dataclasses do not say: the top-level max_concurrency is the default
# of both endpoints, and an embedding section without kind is an HTTP endpoint.
_ENDPOINT_DEFAULTS = ("max_concurrency",)
_PRESENT_DEFAULTS = {EmbedderConfig: {"kind": "http"}}
_SECTIONS = {cls.__name__: cls for cls in (GeneratorConfig, EmbedderConfig,
                                            ConfidenceThresholds, EvalSettings)}


class _Object(dict):
    """A JSON object, and the keys it holds more than once (json.loads keeps the last)."""

    def __init__(self, pairs: list[tuple[str, object]]) -> None:
        super().__init__(pairs)
        keys = [key for key, _ in pairs]
        self.repeated = sorted({key for key in keys if keys.count(key) > 1})


def _setting(kind: str, value: object) -> object:
    """A JSON value as a field of declared type kind, such as "int" or "float | None":
    a str or Path takes a string, a number may be a numeric string but never a
    boolean, and an int is never truncated. Any other type is a TypeError."""
    kind = kind.removesuffix(" | None")
    if kind in ("str", "Path"):
        if not isinstance(value, str):
            raise ValueError(f"expected a string, got {value!r}")
        return Path(value) if kind == "Path" else value
    if kind not in ("float", "int"):
        raise TypeError(f"no conversion to {kind}")
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"expected a number, got {value!r}")
    if kind == "float":
        return float(value)
    try:
        return int(str(value))  # an int, or a string of one
    except ValueError:
        number = float(value)  # a float, or a string such as "4e1"
    if not number.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(number)


@functools.cache
def _schema(cls: type) -> tuple[frozenset[str], tuple[tuple[str, str, object], ...]]:
    """The keys of cls's section, and its fields as (name, type without "| None", default)."""
    specs = tuple((f.name, f.type.removesuffix(" | None"), f.default) for f in fields(cls))
    return frozenset(key for name, kind, _ in specs for key in (
        _schema(ProviderConfig)[0] if kind == "ProviderConfig" else (name,))), specs


def _given(cls: type, obj: object, prefix: str, defaults: dict) -> dict[str, object]:
    """The arguments of cls set by obj, the JSON object of the config section
    whose keys are named prefix + key, on top of defaults[cls]. Every key must
    name a field, once; one that is absent or null takes the default. A dataclass
    field is built from the section of its name, but a ProviderConfig's fields
    are keys of this section; it is built if it has no default or one is set."""
    if not isinstance(obj, dict):
        raise ValueError(f"{prefix.rstrip('.') or 'the config'} must be a JSON object")
    keys, specs = _schema(cls)
    if unknown := obj.keys() - keys:
        raise ValueError(f"unknown key {', '.join(prefix + key for key in sorted(unknown))}")
    if repeated := getattr(obj, "repeated", None):
        raise ValueError(f"duplicate key {', '.join(prefix + key for key in repeated)}")
    given = dict(defaults.get(cls, ()))
    for field, kind, default in specs:
        if kind == "ProviderConfig":
            own = {key: obj[key] for key in obj.keys() & _schema(ProviderConfig)[0]}
            if default is MISSING or any(v is not None for v in own.values()):
                given[field] = ProviderConfig(**_given(ProviderConfig, own, prefix, defaults))
            continue
        if (value := obj.get(field)) is None:
            continue
        if section := _SECTIONS.get(kind):
            given[field] = section(**_given(section, value, f"{prefix}{field}.", defaults))
            continue
        try:
            given[field] = _setting(kind, value)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"{prefix}{field}: {exc}") from exc
    return given


def load_config(path: Path | str) -> RunConfig:
    """Parse the JSON run configuration (see _given); relative paths resolve against it."""
    path = Path(path)
    try:
        obj = json.loads(_read_input("config", path), object_pairs_hook=_Object)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    try:
        shared = {k: obj.pop(k) for k in _ENDPOINT_DEFAULTS if isinstance(obj, dict) and k in obj}
        defaults = {**_PRESENT_DEFAULTS, ProviderConfig: _given(ProviderConfig, shared, "", {})}
        given = _given(RunConfig, obj, "", defaults)
        given.update({field: path.parent / given.get(field, default)
                      for field, kind, default in _schema(RunConfig)[1] if kind == "Path"})
        return RunConfig(**given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The config file's RunConfig with the command's --k/--measure applied,
    checked by RunConfig like the file's own values."""
    cfg = load_config(args.config)
    return replace(cfg, **{name: getattr(args, name) for name in ("k", "measure")
                           if getattr(args, name, None) is not None})


def _write_output(path: Path, data: bytes) -> None:
    """Write an output file through _atomic_write, with the mode a plain
    open(path, "w") would give it, unless it already holds exactly data: then
    it is left as it is, so it keeps its inode, mtime and mode.

    Only a regular file is read back: reading a pipe or a terminal could block.
    """
    try:
        if stat.S_ISREG(path.stat().st_mode) and path.read_bytes() == data:
            return
    except OSError:  # missing, unreadable: _atomic_write says what is wrong
        pass
    _atomic_write(path, data, mode=0o666)


def _write_heatmap(matrix: SimilarityMatrix, svg_path: Path) -> Path:
    """Write the SVG and, next to it, the CSV; returns the CSV path."""
    csv_path = svg_path.with_suffix(".csv")
    _write_output(csv_path, render.matrix_to_csv(matrix).encode("utf-8"))
    _write_output(svg_path, render.matrix_to_svg(matrix).encode("utf-8"))
    return csv_path


def _write_json(path: Path, obj: object) -> None:
    _write_output(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _write_outputs(report: VerificationReport, output_dir: Path) -> None:
    _write_output(output_dir / "report.json", report_json_bytes(report))
    _write_heatmap(report.matrix, output_dir / "heatmap.svg")


def _read_input(what: str, path: Path | str) -> str:
    """The text of an input file; ConfigError naming it if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not UTF-8: {exc}") from exc


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    prompt = _read_input("prompt", args.prompt)
    if not prompt.strip():
        raise ConfigError(f"prompt file {args.prompt} is empty")
    gt = _read_input("ground truth", args.gt) if args.gt else None
    if gt is not None and not gt.strip():
        raise ConfigError(f"ground truth file {args.gt} is empty")
    report = verify(
        prompt,
        gt,
        cfg.k,
        cfg.generation,
        cfg.embedding,
        cfg.thresholds,
        measure=cfg.measure,
        cache_dir=cfg.cache_dir,
    )
    out_dir = Path(args.out) if args.out else cfg.output_dir
    _write_outputs(report, out_dir)
    summary = report.summary
    print(
        f"verdict={summary.verdict} mean={summary.mean_offdiag:.4f} "
        f"std={summary.std_offdiag:.4f} frobenius={summary.frobenius_normalized:.4f}"
        + (f" gt_alignment={summary.gt_alignment:.4f}" if summary.gt_alignment is not None else "")
    )
    return EXIT_OK if summary.verdict == "HighConfidence" else EXIT_INSPECT


# Most sample texts one eval window embeds in one embed_cached call. A window
# holds whole records, so its missing texts share EMBED_BATCH-text requests and
# the endpoint's max_concurrency workers across record boundaries; at d=4096
# its vectors take at most 8.4 MB.
EVAL_WINDOW = 256


def _named(record, score: Callable[[], float]) -> float:
    """score(), with a SampleCheckError or ValueError naming the record."""
    try:
        return score()
    except (SampleCheckError, ValueError) as exc:
        raise SampleCheckError(f"record {record.id!r}: {exc}") from exc


def _window_failure(window: Sequence, k: int, exc: PartialFailure) -> SampleCheckError:
    """exc split by record: each record of the window with a failed position, in
    dataset order, and its sample indices that failed."""
    by_record: dict[int, dict[int | str, Exception]] = {}
    for position, error in exc.failures.items():
        by_record.setdefault(position // k, {})[position % k] = error
    return SampleCheckError("; ".join(
        f"record {window[r].id!r}: {PartialFailure(exc.stage, failures)}"
        for r, failures in sorted(by_record.items())))


def _scores(
    cfg: RunConfig, scheme: str, task: str, records: Sequence
) -> tuple[str, list[float]]:
    """The statistic a scheme of EVAL_SCHEMES reports, and each record's score;
    errors name the record.

    checkembed scores each record's first k samples; cmd_eval has checked that
    every record holds k. It embeds records a window at a time: consecutive
    whole records holding at most EVAL_WINDOW texts (one record if k exceeds
    it), in one embed_cached call. Record i of a window is scored from vectors
    i*k to (i+1)*k of that call.

    judge asks for all records' replies in one replies_cached call, at most
    JUDGE_MAX_TOKENS each; one that parse_verdict refuses fails its records.
    """
    k = cfg.k
    if scheme == "checkembed":
        score = evalmod.stability_scorer(cfg.measure, cfg.eval.statistic)
        per_window = max(1, EVAL_WINDOW // k)
        scores: list[float] = []
        for start in range(0, len(records), per_window):
            window = records[start:start + per_window]
            try:
                vectors = embed_cached([t for r in window for t in r.samples[:k]],
                                       cfg.embedding, cfg.cache_dir)
            except PartialFailure as exc:
                raise _window_failure(window, k, exc) from exc
            scores += [_named(r, lambda: score(vectors[i * k:(i + 1) * k]))
                       for i, r in enumerate(window)]
        return cfg.eval.statistic, scores
    if task != "wikibio":
        raise ConfigError("the judge scheme is only wired for the wikibio task")
    prompts = [judgemod.assemble_prompt("wikibio", {"biography": r.text}) for r in records]
    gen = replace(cfg.generation, max_tokens=judgemod.JUDGE_MAX_TOKENS)
    try:
        replies = replies_cached(prompts, gen, cfg.cache_dir, judgemod.parse_verdict)
    except PartialFailure as exc:
        raise _window_failure(records, 1, exc) from exc
    return "judge_score", [_named(r, lambda: float(judgemod.parse_verdict(reply).score))
                           for r, reply in zip(records, replies)]


# The ragtruth protocol. Every score that reaches the sweep is low for a suspect
# record: checkembed's statistics rise as the samples agree, and the judge
# template gives 0 to a completely hallucinated text.
_RAGTRUTH_POLARITY = "low_score_flags"


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    task = args.task
    out_dir = Path(args.out) if args.out else cfg.output_dir

    read = evalmod.read_passages_jsonl if task == "wikibio" else evalmod.read_binary_jsonl
    records = read(args.dataset)
    # Checks that need no request come first: a record short of k samples, then
    # what correlate asks of the gold scores.
    if args.scheme == "checkembed":
        for r in records:
            if len(r.samples) < cfg.k:
                raise evalmod.InsufficientSamples(
                    f"record {r.id!r} has {len(r.samples)} samples, need k={cfg.k}")
    if task == "wikibio":
        gold = [evalmod.passage_score(r.labels) for r in records]
        evalmod.check_correlatable(gold)
    statistic, scores = _scores(cfg, args.scheme, task, records)

    result = {"task": task, "scheme": args.scheme, "n_records": len(records), "k": cfg.k,
              "statistic": statistic}
    if task == "wikibio":
        pe, sp = evalmod.correlate(scores, gold)
        result.update(pearson_pct=pe, spearman_pct=sp)
        print(f"{'metric':<14} {'value':>8}")
        print(f"{'pearson_pct':<14} {pe:>8.1f}")
        print(f"{'spearman_pct':<14} {sp:>8.1f}")
    else:
        labels = [r.label for r in records]
        # Each flagging a threshold can make is "score <= s" for an observed
        # score s, so the distinct scores are exactly the thresholds to try.
        sweep = evalmod.threshold_sweep(scores, labels, _RAGTRUTH_POLARITY,
                                         sorted(set(scores)))
        best = next(p for p in sweep.curve if p.threshold == sweep.best_threshold)
        result.update(
            polarity=_RAGTRUTH_POLARITY,
            best_threshold=sweep.best_threshold,
            best_f1=sweep.best_f1,
            precision=best.precision,
            recall=best.recall,
            curve=[vars(p) for p in sweep.curve],  # shallow: asdict deep-copies
            note="threshold chosen by exhaustive sweep on this dataset",
        )
        print(f"{'metric':<16} {'value':>10}")
        for name in ("best_threshold", "best_f1", "precision", "recall"):
            print(f"{name:<16} {result[name]:>10.4f}")

    out_path = out_dir / f"eval_{task}_{args.scheme}.json"
    _write_json(out_path, result)
    print(f"report written to {out_path}")
    return EXIT_OK


def cmd_heatmap(args: argparse.Namespace) -> int:
    out_svg = Path(args.out)
    if out_svg.suffix.lower() == ".csv":
        # The CSV goes to out_svg.with_suffix(".csv"): the SVG would overwrite it.
        raise ValueError(f"--out {out_svg} is a .csv path; give the SVG's path, "
                         "the CSV is written next to it")
    try:
        report = report_from_json(Path(args.report).read_bytes())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"report {args.report} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"report {args.report}: {exc}") from exc
    out_csv = _write_heatmap(report.matrix, out_svg)
    print(f"wrote {out_svg} and {out_csv}")
    return EXIT_OK


def cmd_cost(args: argparse.Namespace) -> int:
    params = costmodel.CostModelParams(
        **{f.name: getattr(args, f.name) for f in fields(costmodel.CostModelParams)})
    schemes = (
        [s.strip() for s in args.schemes.split(",") if s.strip()]
        if args.schemes
        else costmodel.applicable_schemes(args.task)
    )
    report = costmodel.compare(schemes, args.task, params)
    print(costmodel.render_table(report))
    if args.out:
        _write_json(Path(args.out), asdict(report))
        print(f"report written to {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that exits EXIT_ERROR on a usage error, since argparse's
    own code 2 is EXIT_INSPECT. Subparsers are of the same class."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The samplecheck parser, built once per process (building it takes about
    a millisecond); parse_args returns a fresh Namespace on every call."""
    parser = _Parser(
        prog="samplecheck",
        description="Stability-based verification of generative-model outputs.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="sample, embed, score and summarize one prompt")
    p.add_argument("--config", required=True)
    p.add_argument("--prompt", required=True, help="file holding the prompt text")
    p.add_argument("--gt", help="optional file holding the ground-truth answer")
    p.add_argument("--k", type=int, help="override the configured sample count")
    p.add_argument("--measure", choices=list(MEASURES))
    p.add_argument("--out", help="output directory (default: config output_dir)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="run a dataset evaluation protocol")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True, help="JSON Lines dataset file")
    p.add_argument("--scheme", required=True, choices=list(EVAL_SCHEMES))
    p.add_argument("--task", required=True, choices=list(EVAL_TASKS))
    p.add_argument("--k", type=int, help="samples per record to use")
    p.add_argument("--out", help="output directory (default: config output_dir)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("heatmap", help="render a report's matrix as SVG + CSV")
    p.add_argument("--report", required=True, help="path to a report.json")
    p.add_argument("--out", required=True, help="output SVG path, not ending in .csv "
                   "(the CSV is written alongside, as <name>.csv)")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("cost", help="compare analytical depth/work of schemes")
    p.add_argument("--task", default=costmodel.TASK_VERIFICATION,
                   choices=list(costmodel.TASKS))
    p.add_argument("--schemes", help="comma-separated scheme names (default: all applicable)")
    for f in fields(costmodel.CostModelParams):
        p.add_argument("--" + f.name.replace("_", "-"), type=float, default=f.default)
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=cmd_cost)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return int(args.func(args))
    except (SampleCheckError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
