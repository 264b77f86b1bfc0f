"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion. Every expected value is either trivially exact, frozen from an
independent high-precision oracle, or checked live against a brute-force
reference implemented in this file (kept independent of the library's own
computation paths).
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest

from samplecheck.baselines import (
    JUDGE_TASKS,
    TokenEmbeddingSeq,
    UnparsableVerdict,
    assemble_prompt,
    bertscore_greedy,
    parse_verdict,
    selfcheck_bert,
    template_slots,
    template_text,
)
from samplecheck.cli import main
from samplecheck.costmodel import CostModelParams, TASK_SIMILARITY, TASK_VERIFICATION, estimate
from samplecheck.eval import (
    corruption_corpus,
    mock_scorer,
    passage_score,
    pr_f1,
    sample_sweep,
    threshold_sweep,
)
from samplecheck.scorematrix import build_matrix, summarize
from samplecheck.vectors import Embedding, cosine, pearson, spearman


def ok(line: str) -> None:
    print(f"PASS {line}")


# ---------------------------------------------------------------------------
# Independent brute-force oracles (plain Python, exact summation)
# ---------------------------------------------------------------------------


def oracle_cosine(a, b) -> float:
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(y * y for y in b))
    return dot / (na * nb)


def oracle_pearson(a, b) -> float:
    n = len(a)
    ma = math.fsum(a) / n
    mb = math.fsum(b) / n
    cov = math.fsum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = math.fsum((x - ma) ** 2 for x in a)
    vb = math.fsum((y - mb) ** 2 for y in b)
    return cov / math.sqrt(va * vb)


def oracle_ranks(values) -> list[float]:
    # average ranks by exhaustive counting (no sorting machinery shared with
    # the implementation under test)
    return [
        1.0
        + sum(1 for u in values if u < x)
        + (sum(1 for u in values if u == x) - 1) / 2.0
        for x in values
    ]


def oracle_spearman(a, b) -> float:
    return oracle_pearson(oracle_ranks(a), oracle_ranks(b))


def oracle_bertscore(candidate: TokenEmbeddingSeq, reference: TokenEmbeddingSeq):
    def side(src, dst):
        maxima = []
        for sv in src.vectors:
            best = -2.0
            for dv in dst.vectors:
                best = max(best, cosine(sv, dv))
            maxima.append(best)
        if src.idf is None:
            return math.fsum(maxima) / len(maxima)
        return math.fsum(w * m for w, m in zip(src.idf, maxima)) / math.fsum(src.idf)

    p = side(candidate, reference)
    r = side(reference, candidate)
    return p, r, (0.0 if p + r == 0.0 else 2 * p * r / (p + r))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_acceptance_01_kernel_oracle_equivalence():
    rng = np.random.default_rng(100)
    started = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 65))
        a = rng.normal(size=dim).tolist()
        b = rng.normal(size=dim).tolist()
        worst = max(worst, abs(cosine(a, b) - oracle_cosine(a, b)))
        worst = max(worst, abs(pearson(a, b) - oracle_pearson(a, b)))
        worst = max(worst, abs(spearman(a, b) - oracle_spearman(a, b)))
    elapsed = time.monotonic() - started
    assert worst < 1e-9
    assert elapsed < 5.0
    ok(f"kernel oracle equivalence: 1000 instances, max |delta| = {worst:.2e}, "
       f"{elapsed:.2f}s < 5s")


def test_acceptance_02_matrix_properties():
    rng = np.random.default_rng(200)
    for trial in range(200):
        k = int(rng.integers(2, 7))
        dim = int(rng.integers(4, 33))
        items = [Embedding(rng.normal(size=dim), model_id="t") for _ in range(k)]
        gt = Embedding(rng.normal(size=dim), model_id="t") if trial % 3 == 0 else None

        matrix = build_matrix(items, gt)
        assert np.array_equal(matrix.entries, matrix.entries.T)
        assert np.all(np.diag(matrix.entries) == 1.0)

        perm = rng.permutation(k).tolist()
        permuted = build_matrix([items[i] for i in perm], gt)
        full_perm = perm + ([k] if gt is not None else [])
        assert np.array_equal(permuted.entries, matrix.entries[np.ix_(full_perm, full_perm)])
        assert summarize(permuted) == summarize(matrix)
    ok("matrix properties: 200 sample sets symmetric, unit-diagonal, "
       "permutation-equivariant, summary invariant")


def test_acceptance_03_synthetic_stability_benchmark():
    started = time.monotonic()
    records, fractions = corruption_corpus(
        n_levels=10, records_per_level=10, k=10, base_tokens=60, seed=0
    )
    assert len(records) == 100 and all(len(r.samples) == 10 for r in records)
    scorer = mock_scorer(dim=4096, seed=0)
    instability = [1.0 - scorer(r.samples) for r in records]
    rho = spearman(fractions, instability)
    elapsed = time.monotonic() - started
    assert rho >= 0.9
    assert elapsed < 60.0
    ok(f"synthetic stability benchmark: spearman(corruption, 1-mean) = {rho:.4f} "
       f">= 0.9, {elapsed:.1f}s < 60s")


def test_acceptance_04_sample_count_sweep():
    started = time.monotonic()
    records, _ = corruption_corpus(
        n_levels=10, records_per_level=10, k=10, base_tokens=60, seed=0
    )
    rows = sample_sweep(records, [2, 8], mock_scorer(dim=4096, seed=0))
    by_k = {row.k: row.spearman_pct for row in rows}
    elapsed = time.monotonic() - started
    assert by_k[8] >= by_k[2]
    assert elapsed < 120.0
    ok(f"sample-count sweep: spearman k=8 ({by_k[8]:.1f}) >= k=2 ({by_k[2]:.1f}), "
       f"{elapsed:.1f}s < 120s")


def test_acceptance_05_greedy_matching_oracles():
    rng = np.random.default_rng(500)

    def random_seq(n_tokens, dim, with_idf):
        vectors = tuple(
            Embedding(rng.normal(size=dim), model_id="tok") for _ in range(n_tokens)
        )
        idf = tuple(rng.uniform(0.1, 2.0, size=n_tokens).tolist()) if with_idf else None
        return TokenEmbeddingSeq(
            tokens=tuple(f"t{i}" for i in range(n_tokens)), vectors=vectors, idf=idf
        )

    for _ in range(500):
        dim = int(rng.integers(2, 9))
        c = random_seq(int(rng.integers(1, 6)), dim, bool(rng.integers(0, 2)))
        r = random_seq(int(rng.integers(1, 6)), dim, bool(rng.integers(0, 2)))
        assert bertscore_greedy(c, r) == oracle_bertscore(c, r)

    for _ in range(50):
        dim = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        sentences = [random_seq(int(rng.integers(1, 4)), dim, False) for _ in range(2)]
        samples = [
            [random_seq(int(rng.integers(1, 4)), dim, False)
             for _ in range(int(rng.integers(1, 4)))]
            for _ in range(k)
        ]
        got = selfcheck_bert(sentences, samples)
        expected = [
            math.fsum(
                max(oracle_bertscore(sent, other)[2] for other in doc) for doc in samples
            )
            / len(samples)
            for sent in sentences
        ]
        assert got == expected
    ok("greedy matching: 500 fixtures exact vs enumeration oracle; "
       "sentence-consistency exact vs double-loop oracle on k<=3")


def test_acceptance_06_passage_scoring_exhaustive():
    values = {"major": 0.0, "minor": 0.5, "accurate": 1.0}
    checked = 0
    for size in range(1, 5):
        for combo in itertools.combinations_with_replacement(sorted(values), size):
            expected = math.fsum(values[c] for c in combo) / size
            assert passage_score(list(combo)) == expected
            checked += 1
    ok(f"passage scoring: all {checked} label multisets of size <= 4 match the "
       "0 / 0.5 / 1 mean formula")


def test_acceptance_07_prf1_oracle_and_sweep_dominance():
    rng = np.random.default_rng(700)

    def oracle(scores, labels, threshold, polarity):
        tp = fp = fn = 0
        for s, lab in zip(scores, labels):
            flagged = s <= threshold if polarity == "low_score_flags" else s >= threshold
            if flagged and lab == "hallucinated":
                tp += 1
            elif flagged:
                fp += 1
            elif lab == "hallucinated":
                fn += 1
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        return p, r, (2 * p * r / (p + r) if p + r else 0.0)

    for _ in range(1000):
        n = int(rng.integers(1, 31))
        scores = rng.uniform(size=n).tolist()
        labels = ["hallucinated" if x < 0.5 else "faithful" for x in rng.uniform(size=n)]
        polarity = "low_score_flags" if rng.integers(0, 2) == 0 else "high_score_flags"
        threshold = float(rng.uniform())
        assert pr_f1(scores, labels, threshold, polarity) == oracle(
            scores, labels, threshold, polarity
        )
        grid = np.linspace(0, 1, 11).tolist()
        sweep = threshold_sweep(scores, labels, polarity, grid)
        assert all(sweep.best_f1 >= point.f1 for point in sweep.curve)
    ok("precision/recall/F1: 1000 random labelings exact vs confusion-matrix "
       "oracle; sweep best-F1 dominates its curve on all of them")


def test_acceptance_08_cost_model_anchors():
    p = CostModelParams(
        samples=10, embed_dim=3072, sentences=10, tokens=25,
        inference_work=1, inference_depth=1, embed_work=1, embed_depth=1,
    )
    work = estimate("checkembed", TASK_VERIFICATION, p).work
    assert work == 307220

    def sim_work(sentences, tokens):
        q = CostModelParams(
            samples=10, embed_dim=3072, sentences=sentences, tokens=tokens,
            inference_work=1, inference_depth=1, embed_work=1, embed_depth=1,
        )
        return estimate("checkembed", TASK_SIMILARITY, q).work

    assert sim_work(10, 25) == sim_work(400, 25) == sim_work(10, 999)

    def scgpt_work(samples, sentences):
        q = CostModelParams(
            samples=samples, embed_dim=3072, sentences=sentences, tokens=25,
            inference_work=1, inference_depth=1, embed_work=1, embed_depth=1,
        )
        return estimate("selfcheckgpt_bert", TASK_VERIFICATION, q).work

    base = scgpt_work(5, 5)
    assert scgpt_work(10, 5) == pytest.approx(2 * base)
    assert scgpt_work(5, 10) == pytest.approx(2 * base)
    assert scgpt_work(10, 10) == pytest.approx(4 * base)
    ok("cost model: verification work anchor 307220 exact; similarity work "
       "independent of sentence/token counts; consistency-checker work linear in k*s")


def test_acceptance_09_end_to_end_determinism(stub, tmp_path):
    fixtures = {
        "stable": (["the one canonical answer"], 0),
        "unstable": (
            [
                " ".join(f"alpha{i}" for i in range(40)),
                " ".join(f"beta{i}" for i in range(40)),
                " ".join(f"gamma{i}" for i in range(40)),
            ],
            2,
        ),
    }
    for name, (replies, expected_code) in fixtures.items():
        base = tmp_path / name
        base.mkdir()
        stub.state.chat_replies = replies
        config = base / "config.json"
        config.write_text(json.dumps({
            "k": 3,
            "measure": "cosine",
            "cache_dir": str(base / "cache"),
            "output_dir": str(base / "out"),
            "max_concurrency": 1,
            "generation": {
                "base_url": stub.url, "model_id": "stub-model",
                "timeout": 5, "max_retries": 1, "backoff_base": 0.001,
            },
            "embedding": {"kind": "mock", "dim": 4096, "seed": 0},
        }))
        prompt = base / "prompt.txt"
        prompt.write_text("the question under verification")

        code1 = main(["verify", "--config", str(config), "--prompt", str(prompt)])
        outputs1 = {
            n: (base / "out" / n).read_bytes()
            for n in ("report.json", "heatmap.csv", "heatmap.svg")
        }
        code2 = main(["verify", "--config", str(config), "--prompt", str(prompt)])
        outputs2 = {
            n: (base / "out" / n).read_bytes()
            for n in ("report.json", "heatmap.csv", "heatmap.svg")
        }
        assert code1 == code2 == expected_code
        assert outputs1 == outputs2
    ok("end-to-end determinism: repeated verify runs byte-identical "
       "(report.json, heatmap.csv, heatmap.svg); exit codes 0 and 2 as expected")


def test_acceptance_10_template_fidelity():
    required_sections = {
        "similar_descriptions": ["### INSTRUCTION ###", "### OUTPUT ###", "### INPUT ###"],
        "legal_summary": ["### INSTRUCTION ###", "### OUTPUT ###", "### INPUT ###",
                          "### ORIGINAL PASSAGE ###"],
        "scientific_passage": ["### INSTRUCTION ###", "### OUTPUT ###", "### INPUT ###"],
        "wikibio": ["### INSTRUCTION ###", "### OUTPUT ###", "### INPUT ###"],
        "wikibio_with_reference": ["### INSTRUCTION ###", "### OUTPUT ###",
                                   "### INPUT ###", "**Passage**:", "**Original**:"],
        "ragtruth": ["### INSTRUCTION ###", "### OUTPUT ###", "### ANSWER ###",
                     "### ORIGINAL REQUEST ###"],
    }
    assert set(required_sections) == set(JUDGE_TASKS)
    for task, sections in required_sections.items():
        filled = assemble_prompt(
            task, {slot: f"<{slot}>" for slot in template_slots(task)}
        )
        for section in sections:
            assert section in filled, f"{task} missing {section}"
        assert "You CANNOT output a decimal number." in template_text(task)
    with pytest.raises(UnparsableVerdict):
        parse_verdict("87.5")
    with pytest.raises(UnparsableVerdict):
        parse_verdict("0.99")
    assert parse_verdict(" 87 ").score == 87
    ok("template fidelity: all judge templates assemble with correct section "
       "headers and decimal replies are rejected")
