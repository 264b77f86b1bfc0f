"""Command-line surface: verify prompts, evaluate datasets, export heatmaps,
query the cost model.

Exit codes are machine-actionable: 0 means the verification verdict was
HighConfidence (or the command simply succeeded), 2 means the verdict was
Inspect, 1 means any error. Configuration is a single JSON file; API keys are
referenced by environment-variable name only.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from . import costmodel, eval as evalmod, render
from .baselines import judge as judgemod
from .errors import SampleCheckError
from .pipeline import (
    EmbedderConfig,
    GeneratorConfig,
    VerificationReport,
    _atomic_write,
    embed_cached,
    report_from_json,
    report_json_bytes,
    verify,
)
from .providers import ProviderConfig
from .scorematrix import ConfidenceThresholds, SimilarityMatrix

log = logging.getLogger(__name__)

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
    polarity: str = "low_score_flags"
    grid_points: int = 101

    def __post_init__(self) -> None:
        if self.grid_points < 2:
            raise ConfigError("eval.grid_points must be >= 2")


@dataclass(frozen=True)
class RunConfig:
    generation: GeneratorConfig
    embedding: EmbedderConfig
    k: int
    measure: str
    thresholds: ConfidenceThresholds
    cache_dir: Path
    output_dir: Path
    eval: EvalSettings = EvalSettings()

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ConfigError("k must be >= 2")
        if self.measure not in ("cosine", "pearson"):
            raise ConfigError("measure must be 'cosine' or 'pearson'")


def _provider_from(obj: dict, max_concurrency: int) -> ProviderConfig:
    return ProviderConfig(
        base_url=obj["base_url"],
        api_key_env=obj.get("api_key_env"),
        timeout=float(obj.get("timeout", 30.0)),
        max_retries=int(obj.get("max_retries", 3)),
        max_concurrency=int(obj.get("max_concurrency", max_concurrency)),
        backoff_base=float(obj.get("backoff_base", 1.0)),
    )


def load_config(path: Path | str) -> RunConfig:
    """Parse the JSON run configuration; relative paths resolve against it."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    base = path.parent
    try:
        max_concurrency = int(obj.get("max_concurrency", 4))
        gen = obj["generation"]
        generation = GeneratorConfig(
            model_id=gen["model_id"],
            provider=_provider_from(gen, max_concurrency),
            temperature=float(gen.get("temperature", 1.0)),
            max_tokens=int(gen.get("max_tokens", 1024)),
            top_p=None if gen.get("top_p") is None else float(gen["top_p"]),
            top_k=None if gen.get("top_k") is None else int(gen["top_k"]),
        )
        emb = obj.get("embedding", {"kind": "mock"})
        kind = emb.get("kind", "http")
        if kind == "mock":
            embedding = EmbedderConfig(
                kind="mock", dim=int(emb.get("dim", 4096)), seed=int(emb.get("seed", 0))
            )
        else:
            embedding = EmbedderConfig(
                kind="http",
                model_id=emb["model_id"],
                provider=_provider_from(emb, max_concurrency),
            )
        thresholds_obj = obj.get("thresholds", {})
        thresholds = ConfidenceThresholds(
            mean_min=float(thresholds_obj.get("mean_min", 0.9)),
            std_max=float(thresholds_obj.get("std_max", 0.05)),
        )
        eval_obj = obj.get("eval", {})
        settings = EvalSettings(
            statistic=eval_obj.get("statistic", "mean_offdiag"),
            polarity=eval_obj.get("polarity", "low_score_flags"),
            grid_points=int(eval_obj.get("grid_points", 101)),
        )

        def respath(value: str) -> Path:
            p = Path(value)
            return p if p.is_absolute() else base / p

        return RunConfig(
            generation=generation,
            embedding=embedding,
            k=int(obj.get("k", 10)),
            measure=obj.get("measure", "cosine"),
            thresholds=thresholds,
            cache_dir=respath(obj.get("cache_dir", "cache")),
            output_dir=respath(obj.get("output_dir", "out")),
            eval=settings,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _write_heatmap(matrix: SimilarityMatrix, svg_path: Path) -> Path:
    """Write the SVG and, next to it, the CSV; returns the CSV path."""
    csv_path = svg_path.with_suffix(".csv")
    _atomic_write(csv_path, render.matrix_to_csv(matrix).encode("utf-8"))
    _atomic_write(svg_path, render.matrix_to_svg(matrix).encode("utf-8"))
    return csv_path


def _write_json(path: Path, obj: object) -> None:
    _atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _write_outputs(report: VerificationReport, output_dir: Path) -> None:
    _atomic_write(output_dir / "report.json", report_json_bytes(report))
    _write_heatmap(report.matrix, output_dir / "heatmap.svg")


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    prompt = Path(args.prompt).read_text(encoding="utf-8")
    if not prompt.strip():
        raise ConfigError(f"prompt file {args.prompt} is empty")
    gt = Path(args.gt).read_text(encoding="utf-8") if args.gt else None
    k = args.k or cfg.k
    measure = args.measure or cfg.measure
    report = verify(
        prompt,
        gt,
        k,
        cfg.generation,
        cfg.embedding,
        cfg.thresholds,
        measure=measure,
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


def _record_scorer(
    cfg: RunConfig, scheme: str, task: str, records: Sequence, k: int
) -> tuple[str, Callable[[object], float]]:
    """The statistic a scheme reports, and its record -> score callable.

    checkembed scores each record's first k samples, so every record must
    have k of them; that is checked here, before any request.
    """
    if scheme == "checkembed":
        for r in records:
            if len(r.samples) < k:
                raise evalmod.InsufficientSamples(
                    f"record {r.id!r} has {len(r.samples)} samples, need k={k}"
                )
        score = evalmod.stability_scorer(
            lambda texts: embed_cached(texts, cfg.embedding, cfg.cache_dir),
            cfg.measure, cfg.eval.statistic)
        return cfg.eval.statistic, lambda r: score(r.samples[:k])
    if scheme == "judge":
        if task != "wikibio":
            raise ConfigError("the judge scheme is only wired for the wikibio task")
        return "judge_score", lambda r: float(
            judgemod.llm_judge(
                "wikibio",
                {"biography": r.text},
                cfg.generation.provider,
                model_id=cfg.generation.model_id,
                temperature=cfg.generation.temperature,
            ).score
        )
    raise ConfigError(
        f"unknown scheme {scheme!r}; valid schemes: {', '.join(EVAL_SCHEMES)}"
    )


def _grid(scores: Sequence[float], points: int) -> list[float]:
    lo, hi = min(scores), max(scores)
    if lo == hi:
        return [lo]
    step = (hi - lo) / (points - 1)
    return [lo + i * step for i in range(points)]


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    task = args.task
    if task not in EVAL_TASKS:
        raise ConfigError(f"unknown task {task!r}; valid tasks: {', '.join(EVAL_TASKS)}")
    k = args.k or cfg.k
    out_dir = Path(args.out) if args.out else cfg.output_dir

    read = evalmod.read_passages_jsonl if task == "wikibio" else evalmod.read_binary_jsonl
    records = read(args.dataset)
    statistic, score = _record_scorer(cfg, args.scheme, task, records, k)
    scores = [score(r) for r in records]

    if task == "wikibio":
        gold = [evalmod.passage_score(r.labels) for r in records]
        pe, sp = evalmod.correlate(scores, gold)
        result = {
            "task": task,
            "scheme": args.scheme,
            "n_records": len(records),
            "k": k,
            "statistic": statistic,
            "pearson_pct": pe,
            "spearman_pct": sp,
        }
        print(f"{'metric':<14} {'value':>8}")
        print(f"{'pearson_pct':<14} {pe:>8.1f}")
        print(f"{'spearman_pct':<14} {sp:>8.1f}")
    else:
        labels = [r.label for r in records]
        sweep = evalmod.threshold_sweep(
            scores, labels, cfg.eval.polarity, _grid(scores, cfg.eval.grid_points)
        )
        best = next(p for p in sweep.curve if p.threshold == sweep.best_threshold)
        result = {
            "task": task,
            "scheme": args.scheme,
            "n_records": len(records),
            "k": k,
            "statistic": statistic,
            "polarity": cfg.eval.polarity,
            "best_threshold": sweep.best_threshold,
            "best_f1": sweep.best_f1,
            "precision": best.precision,
            "recall": best.recall,
            "curve": [
                {"threshold": p.threshold, "precision": p.precision,
                 "recall": p.recall, "f1": p.f1}
                for p in sweep.curve
            ],
            "note": "threshold chosen by exhaustive sweep on this dataset",
        }
        print(f"{'metric':<16} {'value':>10}")
        for name in ("best_threshold", "best_f1", "precision", "recall"):
            print(f"{name:<16} {result[name]:>10.4f}")

    out_path = out_dir / f"eval_{task}_{args.scheme}.json"
    _write_json(out_path, result)
    print(f"report written to {out_path}")
    return EXIT_OK


def cmd_heatmap(args: argparse.Namespace) -> int:
    report = report_from_json(Path(args.report).read_bytes())
    out_svg = Path(args.out)
    out_csv = _write_heatmap(report.matrix, out_svg)
    print(f"wrote {out_svg} and {out_csv}")
    return EXIT_OK


def cmd_cost(args: argparse.Namespace) -> int:
    params = costmodel.CostModelParams(
        samples=args.samples,
        embed_dim=args.embed_dim,
        sentences=args.sentences,
        tokens=args.tokens,
        inference_work=args.inference_work,
        inference_depth=args.inference_depth,
        embed_work=args.embed_work,
        embed_depth=args.embed_depth,
    )
    schemes = (
        [s.strip() for s in args.schemes.split(",") if s.strip()]
        if args.schemes
        else costmodel.applicable_schemes(args.task)
    )
    report = costmodel.compare(schemes, args.task, params)
    print(costmodel.render_table(report))
    if args.out:
        _write_json(Path(args.out), costmodel.report_to_json_obj(report))
        print(f"report written to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--measure", choices=["cosine", "pearson"])
    p.add_argument("--out", help="output directory (default: config output_dir)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="run a dataset evaluation protocol")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True, help="JSON Lines dataset file")
    p.add_argument("--scheme", required=True)
    p.add_argument("--task", required=True, choices=list(EVAL_TASKS))
    p.add_argument("--k", type=int, help="samples per record to use")
    p.add_argument("--out", help="output directory (default: config output_dir)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("heatmap", help="render a report's matrix as SVG + CSV")
    p.add_argument("--report", required=True, help="path to a report.json")
    p.add_argument("--out", required=True, help="output SVG path (CSV written alongside)")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("cost", help="compare analytical depth/work of schemes")
    p.add_argument("--task", default=costmodel.TASK_VERIFICATION,
                   choices=list(costmodel.TASKS))
    p.add_argument("--schemes", help="comma-separated scheme names (default: all applicable)")
    p.add_argument("--samples", type=float, default=10)
    p.add_argument("--embed-dim", type=float, default=3072, dest="embed_dim")
    p.add_argument("--sentences", type=float, default=10)
    p.add_argument("--tokens", type=float, default=25)
    p.add_argument("--inference-work", type=float, default=1e6, dest="inference_work")
    p.add_argument("--inference-depth", type=float, default=1e3, dest="inference_depth")
    p.add_argument("--embed-work", type=float, default=1e6, dest="embed_work")
    p.add_argument("--embed-depth", type=float, default=1e3, dest="embed_depth")
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
