"""Evaluation harness: passage scoring, correlations, P/R/F1, sweeps, IO."""

from __future__ import annotations

import itertools
import json
import math
import re

import numpy as np
import pytest

from samplecheck.eval import (
    POLARITIES,
    BinaryRecord,
    DatasetError,
    EmptyLabels,
    InsufficientSamples,
    LabeledPassage,
    SweepRecord,
    correlate,
    corruption_corpus,
    mock_scorer,
    passage_score,
    pr_f1,
    read_binary_jsonl,
    read_passages_jsonl,
    sample_sweep,
    stability_scorer,
    threshold_sweep,
    write_records_jsonl,
)
from samplecheck.providers import mock_embed
from samplecheck.scorematrix import build_matrix, summarize
from samplecheck.vectors import ConstantSequence, pearson, spearman


def passages_from_sweep_records(
    records: list[SweepRecord], sentences_per_record: int = 10
) -> list[LabeledPassage]:
    """Encode sweep records as labeled passages for the file-based harness.

    The gold value (one decimal of quality) is encoded as a label multiset:
    round(gold * n) accurate sentences, the rest major-inaccurate, so
    passage_score recovers gold up to 1/n granularity. Each record's sentences
    name it, so no two records share a text (the judge asks once per text).
    """
    out = []
    for idx, record in enumerate(records):
        n_acc = round(record.gold * sentences_per_record)
        labels = ("accurate",) * n_acc + ("major",) * (sentences_per_record - n_acc)
        sentences = tuple(f"synthetic sentence {j} of record {idx}."
                          for j in range(sentences_per_record))
        out.append(
            LabeledPassage(
                id=f"syn-{idx:04d}", sentences=sentences, labels=labels, samples=record.samples
            )
        )
    return out


class TestPassageScore:
    def test_all_accurate(self):
        assert passage_score(["accurate", "accurate"]) == 1.0

    def test_half(self):
        assert passage_score(["major", "accurate"]) == 0.5

    def test_three_way(self):
        assert passage_score(["major", "minor", "accurate"]) == pytest.approx(0.5)

    def test_exhaustive_small_multisets(self):
        values = {"major": 0.0, "minor": 0.5, "accurate": 1.0}
        for size in range(1, 5):
            for combo in itertools.combinations_with_replacement(values, size):
                expected = sum(values[c] for c in combo) / size
                assert passage_score(list(combo)) == pytest.approx(expected, abs=1e-12)

    def test_permutation_invariant_and_bounded(self):
        labels = ["major", "accurate", "minor", "accurate"]
        assert passage_score(labels) == passage_score(list(reversed(labels)))
        assert 0.0 <= passage_score(labels) <= 1.0

    def test_empty(self):
        with pytest.raises(EmptyLabels):
            passage_score([])

    def test_unknown_label(self):
        with pytest.raises(DatasetError):
            passage_score(["bogus"])


class TestCorrelate:
    def test_identity(self):
        assert correlate([1, 2, 3, 4], [1, 2, 3, 4]) == (100.0, 100.0)

    def test_negated(self):
        pe, sp = correlate([1, 2, 3, 4], [-1, -2, -3, -4])
        assert pe == -100.0 and sp == -100.0

    def test_ten_pair_fixture_matches_oracle(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=10).tolist()
        b = rng.normal(size=10).tolist()
        pe, sp = correlate(a, b)
        assert abs(pe - pearson(a, b) * 100) < 1e-9 + 0.05  # within rounding step
        assert pe == round(pearson(a, b) * 100, 1)
        assert sp == round(spearman(a, b) * 100, 1)

    def test_constant_rejected(self):
        with pytest.raises(ConstantSequence):
            correlate([1.0, 1.0, 1.0], [1, 2, 3])

    def test_min_length(self):
        with pytest.raises(ValueError):
            correlate([1, 2], [1, 2])


def oracle_pr_f1(scores, labels, threshold, polarity):
    tp = fp = tn = fn = 0
    for s, lab in zip(scores, labels):
        flagged = s <= threshold if polarity == "low_score_flags" else s >= threshold
        positive = lab == "hallucinated"
        if flagged and positive:
            tp += 1
        elif flagged and not positive:
            fp += 1
        elif not flagged and positive:
            fn += 1
        else:
            tn += 1
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


class TestPrF1:
    def test_perfect_separation(self):
        scores = [0.1, 0.2, 0.8, 0.9]
        labels = ["hallucinated", "hallucinated", "faithful", "faithful"]
        assert pr_f1(scores, labels, 0.5, "low_score_flags") == (1.0, 1.0, 1.0)

    def test_all_predicted_positive_half_actual(self):
        scores = [0.0, 0.0, 0.0, 0.0]
        labels = ["hallucinated", "faithful", "hallucinated", "faithful"]
        p, r, f1 = pr_f1(scores, labels, 0.5, "low_score_flags")
        assert (p, r) == (0.5, 1.0)
        assert f1 == pytest.approx(2 / 3)

    def test_twenty_record_fixture_exact_oracle(self):
        rng = np.random.default_rng(42)
        scores = rng.uniform(size=20).tolist()
        labels = ["hallucinated" if rng.uniform() < 0.5 else "faithful" for _ in range(20)]
        for threshold in (0.2, 0.5, 0.8):
            for polarity in ("low_score_flags", "high_score_flags"):
                assert pr_f1(scores, labels, threshold, polarity) == oracle_pr_f1(
                    scores, labels, threshold, polarity
                )

    def test_polarity_flip_with_negated_scores(self):
        rng = np.random.default_rng(43)
        scores = rng.uniform(size=15).tolist()
        labels = ["hallucinated" if rng.uniform() < 0.4 else "faithful" for _ in range(15)]
        low = pr_f1(scores, labels, 0.5, "low_score_flags")
        high = pr_f1([-s for s in scores], labels, -0.5, "high_score_flags")
        assert low == high

    def test_degenerate_denominators(self):
        assert pr_f1([1.0], ["faithful"], 0.5, "low_score_flags") == (0.0, 0.0, 0.0)

    def test_bad_polarity(self):
        with pytest.raises(ValueError):
            pr_f1([1.0], ["faithful"], 0.5, "sideways")


class TestThresholdSweep:
    def test_separable_returns_smallest_separating(self):
        scores = [0.1, 0.2, 0.8, 0.9]
        labels = ["hallucinated", "hallucinated", "faithful", "faithful"]
        grid = [0.0, 0.2, 0.5, 0.7, 1.0]
        sweep = threshold_sweep(scores, labels, "low_score_flags", grid)
        assert sweep.best_f1 == 1.0
        assert sweep.best_threshold == 0.2  # smallest grid point with f1 == 1

    def test_single_point_grid(self):
        sweep = threshold_sweep([0.3], ["hallucinated"], "low_score_flags", [0.4])
        assert sweep.best_threshold == 0.4
        assert len(sweep.curve) == 1

    def test_dominance(self):
        rng = np.random.default_rng(44)
        scores = rng.uniform(size=30).tolist()
        labels = ["hallucinated" if rng.uniform() < 0.5 else "faithful" for _ in range(30)]
        grid = np.linspace(0, 1, 21).tolist()
        sweep = threshold_sweep(scores, labels, "low_score_flags", grid)
        assert all(sweep.best_f1 >= point.f1 for point in sweep.curve)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            threshold_sweep([0.5], ["faithful"], "low_score_flags", [])

    @pytest.mark.parametrize("polarity", POLARITIES)
    @pytest.mark.parametrize("scores, labels", [
        ([0.5, 0.2, 0.5, 0.2, 0.9, 0.5], ["hallucinated", "faithful", "faithful",
                                          "hallucinated", "hallucinated", "faithful"]),
        ([0.3], ["hallucinated"]),
        ([0.3], ["faithful"]),
        ([0.1, 0.4, 0.4], ["faithful"] * 3),
        ([0.1, 0.4, 0.4], ["hallucinated"] * 3),
    ], ids=["ties", "one-hallucinated", "one-faithful", "only-faithful", "only-hallucinated"])
    def test_every_point_equals_the_oracle(self, scores, labels, polarity):
        # Each score, the midpoints between neighbours and one threshold past either end.
        ranked = sorted(set(scores))
        grid = ranked + [(a + b) / 2 for a, b in zip(ranked, ranked[1:])] + [-1.0, 2.0]
        sweep = threshold_sweep(scores, labels, polarity, grid)
        assert [(p.threshold, p.precision, p.recall, p.f1) for p in sweep.curve] == [
            (t, *oracle_pr_f1(scores, labels, t, polarity)) for t in grid]
        best = max(sweep.curve, key=lambda p: (p.f1, -p.threshold))
        assert (sweep.best_threshold, sweep.best_f1) == (best.threshold, best.f1)

    def test_random_sets_equal_the_oracle(self):
        rng = np.random.default_rng(45)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            scores = rng.uniform(size=n).round(int(rng.integers(1, 4))).tolist()  # ties
            labels = ["hallucinated" if x < 0.5 else "faithful" for x in rng.uniform(size=n)]
            grid = rng.uniform(-0.1, 1.1, size=int(rng.integers(1, 12))).tolist() + scores
            for polarity in POLARITIES:
                sweep = threshold_sweep(scores, labels, polarity, grid)
                assert [(p.precision, p.recall, p.f1) for p in sweep.curve] == [
                    oracle_pr_f1(scores, labels, t, polarity) for t in grid]
                assert sweep.best_f1 == max(p.f1 for p in sweep.curve)
                assert sweep.best_threshold == min(
                    p.threshold for p in sweep.curve if p.f1 == sweep.best_f1)

    def test_observed_scores_never_lose_to_a_101_point_grid(self):
        rng = np.random.default_rng(46)
        misses = 0
        for _ in range(200):
            n = int(rng.integers(10, 101))
            hallucinated = rng.uniform(size=n) < 0.5
            scores = (rng.normal(size=n) - hallucinated).tolist()
            labels = ["hallucinated" if h else "faithful" for h in hallucinated]
            lo, hi = min(scores), max(scores)
            grid = [lo + i * (hi - lo) / 100 for i in range(100)] + [hi]
            exact = threshold_sweep(scores, labels, "low_score_flags", sorted(set(scores)))
            coarse = threshold_sweep(scores, labels, "low_score_flags", grid)
            assert exact.best_f1 >= coarse.best_f1
            assert exact.best_threshold in scores
            misses += exact.best_f1 > coarse.best_f1
        assert misses > 0

    @pytest.mark.parametrize("scores, grid", [
        ([0.1, math.nan], [0.5]),
        ([0.1, 0.2], [math.inf]),
    ], ids=["nan-score", "inf-threshold"])
    def test_non_finite_input_rejected(self, scores, grid):
        labels = ["hallucinated", "faithful"]
        with pytest.raises(ValueError, match="finite"):
            threshold_sweep(scores, labels, "low_score_flags", grid)
        with pytest.raises(ValueError, match="finite"):
            pr_f1(scores, labels, grid[0], "low_score_flags")

    @pytest.mark.parametrize("scores, labels, error", [
        ([0.1, 0.2], ["faithful"], ValueError),
        ([], [], ValueError),
        ([0.1, 0.2], ["faithful", "unsure"], DatasetError),
    ], ids=["length-mismatch", "no-records", "unknown-label"])
    def test_bad_records_rejected(self, scores, labels, error):
        with pytest.raises(error):
            threshold_sweep(scores, labels, "low_score_flags", [0.5])
        with pytest.raises(error):
            pr_f1(scores, labels, 0.5, "low_score_flags")


class TestStabilityScorer:
    def test_identical_samples_score_one(self):
        score = mock_scorer(dim=64)(["same text here"] * 4)
        assert score == 1.0

    def test_frobenius_statistic(self):
        scorer = mock_scorer(dim=64, statistic="frobenius_normalized")
        assert scorer(["same text here"] * 3) == 1.0

    def test_needs_two(self):
        with pytest.raises(InsufficientSamples):
            mock_scorer(dim=64)(["only one"])

    def test_scores_a_records_embeddings(self):
        vectors = [mock_embed(t, 64, 0) for t in ("alpha beta", "alpha gamma", "delta")]
        matrix = build_matrix(vectors)
        assert stability_scorer()(vectors) == summarize(matrix).mean_offdiag
        assert stability_scorer("cosine", "frobenius_normalized")(vectors) \
            == summarize(matrix).frobenius_normalized

    def test_unknown_statistic(self):
        with pytest.raises(ValueError):
            stability_scorer(statistic="determinant")


class TestSampleSweep:
    def test_more_samples_do_not_hurt_on_synthetic(self):
        records, _ = corruption_corpus(
            n_levels=5, records_per_level=6, k=8, base_tokens=40, seed=2
        )
        rows = sample_sweep(records, [2, 8], mock_scorer(dim=1024, seed=2))
        by_k = {row.k: row for row in rows}
        assert by_k[8].spearman_pct >= by_k[2].spearman_pct

    def test_single_k(self):
        records = [
            SweepRecord(samples=("a b", "a b"), gold=1.0),
            SweepRecord(samples=("a b", "c d"), gold=0.5),
            SweepRecord(samples=("e f", "g h"), gold=0.0),
        ]
        rows = sample_sweep(records, [2], mock_scorer(dim=256))
        assert len(rows) == 1 and rows[0].k == 2

    def test_insufficient_samples(self):
        records = [SweepRecord(samples=("a", "b"), gold=1.0)]
        with pytest.raises(InsufficientSamples):
            sample_sweep(records, [4], mock_scorer(dim=64))


class TestCorruptionCorpus:
    def test_shape_and_gold_levels(self):
        records, fractions = corruption_corpus(
            n_levels=4, records_per_level=3, k=5, base_tokens=20, seed=1
        )
        assert len(records) == 12 and len(fractions) == 12
        assert all(len(r.samples) == 5 for r in records)
        assert sorted(set(fractions)) == [0.0, 0.25, 0.5, 0.75]
        for record, p in zip(records, fractions):
            assert record.gold == pytest.approx(1.0 - p)

    def test_deterministic(self):
        a, _ = corruption_corpus(n_levels=2, records_per_level=2, k=3, base_tokens=10, seed=9)
        b, _ = corruption_corpus(n_levels=2, records_per_level=2, k=3, base_tokens=10, seed=9)
        assert [r.samples for r in a] == [r.samples for r in b]

    def test_zero_corruption_replies_identical(self):
        records, fractions = corruption_corpus(
            n_levels=2, records_per_level=1, k=4, base_tokens=15, seed=3
        )
        pristine = records[fractions.index(0.0)]
        assert len(set(pristine.samples)) == 1


def write_passages_jsonl(path, records) -> None:
    """The passage writer that write_records_jsonl replaced, kept as its reference."""
    lines = [
        json.dumps(
            {
                "id": r.id,
                "sentences": list(r.sentences),
                "labels": list(r.labels),
                "samples": list(r.samples),
            },
            ensure_ascii=False,
        )
        for r in records
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_binary_jsonl(path, records) -> None:
    """The binary writer that write_records_jsonl replaced, kept as its reference."""
    lines = [
        json.dumps(
            {
                "id": r.id,
                "response": r.response,
                "label": r.label,
                "samples": list(r.samples),
            },
            ensure_ascii=False,
        )
        for r in records
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


GOOD_PASSAGE = '{"id": "ok", "sentences": ["A."], "labels": ["accurate"], "samples": ["a", "b"]}'


class TestDatasetIO:
    @pytest.mark.parametrize("records, reference", [
        ([LabeledPassage(id="r1", sentences=("Zoë’s first.", "Ünïcode — second."),
                         labels=("accurate", "minor"), samples=("s1", "naïve \"quoted\"")),
          LabeledPassage(id="r2", sentences=("Only.",), labels=("major",))],
         write_passages_jsonl),
        ([BinaryRecord(id="b1", response="réponse\n2", label="hallucinated", samples=("x", "y")),
          BinaryRecord(id="b2", response="resp2", label="faithful", samples=())],
         write_binary_jsonl),
    ], ids=["passages", "binary"])
    def test_writer_bytes_equal_the_old_writers(self, tmp_path, records, reference):
        write_records_jsonl(tmp_path / "new.jsonl", records)
        reference(tmp_path / "old.jsonl", records)
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()

    @pytest.mark.parametrize("read, line", [
        (read_passages_jsonl,
         '{"id": "x", "sentences": ["A."], "labels": ["accurate"], "samples": "hello world"}'),
        (read_passages_jsonl,
         '{"id": "x", "sentences": ["A."], "labels": ["accurate"], "samples": [1, 2]}'),
        (read_passages_jsonl,
         '{"id": "x", "sentences": "One.", "labels": ["accurate"], "samples": ["a", "b"]}'),
        (read_passages_jsonl, '{"id": "x", "sentences": ["A."], "labels": "accurate"}'),
        (read_passages_jsonl, '{"id": "x", "labels": ["accurate"]}'),
        (read_passages_jsonl, '["not", "an", "object"]'),
        (read_binary_jsonl, '{"id": "x", "response": "r", "label": "faithful", "samples": "ab"}'),
        (read_binary_jsonl, '{"id": "x", "response": "r", "label": "faithful"}'),
    ], ids=["samples-string", "samples-numbers", "sentences-string", "labels-string",
            "no-sentences", "not-an-object", "binary-samples-string", "binary-no-samples"])
    def test_malformed_record_names_path_and_line(self, tmp_path, read, line):
        path = tmp_path / "bad.jsonl"
        good = (GOOD_PASSAGE if read is read_passages_jsonl else
                '{"id": "ok", "response": "r", "label": "faithful", "samples": ["a", "b"]}')
        path.write_text(f"{good}\n{line}\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:2: "):
            read(path)

    @pytest.mark.parametrize("read", [read_passages_jsonl, read_binary_jsonl])
    def test_non_utf8_line_names_path_and_line(self, tmp_path, read):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'\n{"id": "\xff"}\n')
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:2: not UTF-8: "):
            read(path)

    def test_lines_end_as_in_text_mode(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_bytes(f"{GOOD_PASSAGE}\r\n\r{GOOD_PASSAGE}\r{{broken\n".encode())
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:4: invalid JSON: "):
            read_passages_jsonl(path)
        path.write_bytes(f"{GOOD_PASSAGE}\r\n\r{GOOD_PASSAGE}\r".encode())
        assert len(read_passages_jsonl(path)) == 2

    def test_passages_round_trip(self, tmp_path):
        records = [
            LabeledPassage(
                id="r1",
                sentences=("First.", "Second."),
                labels=("accurate", "minor"),
                samples=("s1", "s2"),
            ),
            LabeledPassage(id="r2", sentences=("Only.",), labels=("major",)),
        ]
        path = tmp_path / "passages.jsonl"
        write_records_jsonl(path, records)
        assert read_passages_jsonl(path) == records

    def test_binary_round_trip(self, tmp_path):
        records = [
            BinaryRecord(id="b1", response="resp", label="hallucinated", samples=("x", "y")),
            BinaryRecord(id="b2", response="resp2", label="faithful", samples=("z",)),
        ]
        path = tmp_path / "binary.jsonl"
        write_records_jsonl(path, records)
        assert read_binary_jsonl(path) == records

    def test_invalid_label_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "x", "sentences": ["a"], "labels": ["wrong"]}\n')
        with pytest.raises(DatasetError):
            read_passages_jsonl(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(DatasetError):
            read_passages_jsonl(path)

    def test_passages_encode_gold(self):
        records, _ = corruption_corpus(
            n_levels=5, records_per_level=1, k=3, base_tokens=10, seed=4
        )
        passages = passages_from_sweep_records(records)
        for record, passage in zip(records, passages):
            assert passage_score(passage.labels) == pytest.approx(record.gold, abs=1e-12)
            assert passage.samples == record.samples
