"""Matrix construction, summaries, heatmap cells: oracles and properties."""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplecheck.errors import SampleCheckError
from samplecheck.pipeline import VerificationReport, report_json_bytes
from samplecheck.scorematrix import (
    DEFAULT_THRESHOLDS,
    MEASURES,
    ConfidenceThresholds,
    DegenerateMatrix,
    PairwiseKernelError,
    SimilarityMatrix,
    build_matrix,
    summarize,
)
from samplecheck.vectors import (
    ConstantVector,
    Embedding,
    ZeroVector,
    cosine,
    pearson,
)
from test_acceptance import oracle_cosine, oracle_pearson


def embs(rows, model="test"):
    return [Embedding(np.asarray(r, dtype=np.float64), model_id=model) for r in rows]


def random_embeddings(rng, k, dim):
    return embs(rng.normal(size=(k, dim)))


def reference_summary(m):
    """summarize's statistics as plain index loops over Python floats."""
    r, a = m.reply_count, m.entries
    offdiag = [float(a[i, j]) for i in range(r) for j in range(i + 1, r)]
    mean = math.fsum(offdiag) / len(offdiag)
    std = math.sqrt(math.fsum((v - mean) ** 2 for v in offdiag) / len(offdiag))
    frob = math.sqrt(math.fsum(float(a[i, j]) ** 2 for i in range(r) for j in range(r))) / r
    gt = math.fsum(float(a[i, r]) for i in range(r)) / r if m.has_gt else None
    return frob, mean, std, gt


class TestBuildMatrix:
    def test_two_identical(self):
        m = build_matrix(embs([[1, 2, 3], [1, 2, 3]]))
        assert np.array_equal(m.entries, [[1, 1], [1, 1]])
        assert m.labels == ("0", "1")

    def test_orthogonal_pair(self):
        m = build_matrix(embs([[1, 0], [0, 1]]))
        assert np.array_equal(m.entries, [[1, 0], [0, 1]])

    def test_matches_ordered_pair_oracle(self):
        rng = np.random.default_rng(7)
        items = random_embeddings(rng, 3, 8)
        m = build_matrix(items)
        for i in range(3):
            for j in range(3):
                expected = 1.0 if i == j else cosine(items[i], items[j])
                assert abs(m.entries[i, j] - expected) < 1e-12
                assert m.entries[i, j] == m.entries[j, i]

    def test_pearson_measure(self):
        rng = np.random.default_rng(8)
        items = random_embeddings(rng, 4, 6)
        m = build_matrix(items, measure="pearson")
        assert m.entries[0, 1] == pearson(items[0], items[1])

    def test_gt_appended_last(self):
        rng = np.random.default_rng(9)
        items = random_embeddings(rng, 3, 5)
        gt = Embedding(rng.normal(size=5), model_id="other-model")
        m = build_matrix(items, gt)
        assert m.labels == ("0", "1", "2", "GT")
        assert m.has_gt and m.reply_count == 3

    def test_needs_two(self):
        with pytest.raises(DegenerateMatrix):
            build_matrix(embs([[1, 2]]))

    def test_mixed_models_rejected(self):
        a = embs([[1, 2]], model="m1")[0]
        b = embs([[3, 4]], model="m2")[0]
        with pytest.raises(ValueError):
            build_matrix([a, b])

    def test_kernel_error_annotated_with_pair(self):
        items = embs([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])
        with pytest.raises(PairwiseKernelError) as err:
            build_matrix(items)
        assert err.value.pair == (0, 1)

    @given(st.integers(2, 6), st.integers(2, 12), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_unit_diagonal(self, k, dim, seed):
        rng = np.random.default_rng(seed)
        m = build_matrix(random_embeddings(rng, k, dim))
        assert np.array_equal(m.entries, m.entries.T)
        assert np.all(np.diag(m.entries) == 1.0)
        assert np.abs(m.entries).max() <= 1.0

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(11)
        items = random_embeddings(rng, 5, 8)
        perm = [3, 0, 4, 1, 2]
        base = build_matrix(items)
        permuted = build_matrix([items[i] for i in perm])
        reordered = base.entries[np.ix_(perm, perm)]
        assert np.array_equal(permuted.entries, reordered)

    @given(
        st.integers(2, 7),
        st.integers(2, 24),
        st.integers(0, 2**31),
        st.sampled_from(sorted(MEASURES)),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_entries_equal_kernel_and_oracles(self, k, dim, seed, measure, with_gt, duplicate):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(k, dim)) * 10.0 ** rng.integers(-3, 4, size=(k, 1))
        if duplicate:
            rows[rng.integers(1, k)] = rows[0]
        items = embs(rows)
        gt = Embedding(rng.normal(size=dim), model_id="gt-model") if with_gt else None
        m = build_matrix(items, gt, measure)
        everything = items + ([gt] if gt is not None else [])
        kernel = MEASURES[measure]
        oracle = {"cosine": oracle_cosine, "pearson": oracle_pearson}[measure]
        for i, a in enumerate(everything):
            for j, b in enumerate(everything):
                if i == j:
                    assert m.entries[i, j] == 1.0
                    continue
                assert m.entries[i, j] == kernel(a, b)
                assert abs(m.entries[i, j] - oracle(a.tolist(), b.tolist())) < 1e-9

    @pytest.mark.parametrize(
        "rows, with_gt_row, measure",
        [
            ([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], False, "cosine"),
            ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], False, "cosine"),
            ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.0, 0.0, 0.0]], True, "cosine"),
            ([[2.0, 2.0, 2.0], [1.0, 2.0, 3.0], [4.0, 5.0, 7.0]], False, "pearson"),
            ([[1.0, 2.0, 3.0], [4.0, 5.0, 7.0], [0.5, 0.5, 0.5]], False, "pearson"),
            ([[1.0, 2.0, 3.0], [4.0, 5.0, 7.0], [3.0, 3.0, 3.0]], True, "pearson"),
        ],
    )
    def test_kernel_error_names_first_failing_pair(self, rows, with_gt_row, measure):
        items = embs(rows)
        replies, gt = (items[:-1], items[-1]) if with_gt_row else (items, None)
        kernel = MEASURES[measure]

        def first_failure():
            for i, j in itertools.combinations(range(len(items)), 2):  # row-major
                try:
                    kernel(items[i], items[j])
                except SampleCheckError as exc:
                    return (i, j), type(exc), str(exc)

        expected = first_failure()
        with pytest.raises(PairwiseKernelError) as err:
            build_matrix(replies, gt, measure)
        cause = err.value.__cause__
        assert (err.value.pair, type(cause), str(cause)) == expected
        assert isinstance(cause, ZeroVector if measure == "cosine" else ConstantVector)


def golden_report_bytes(measure):
    """report.json of one seeded k=64 + GT, d=4096 input.

    Each row is 4 plus a zero-sum row of integers in [-4, 4] that holds a 4,
    so both measures scale it by a power of two (after centring on exactly 4
    for Pearson) and every dot product is exact: the bytes do not depend on
    the order in which the CPU's BLAS kernel sums.
    """
    rng = np.random.default_rng(20240602)
    base = rng.integers(-3, 4, size=2048)
    half = np.clip(base + rng.integers(-1, 2, size=(65, 2048)), -4, 4)
    half[:, 0] = 4
    rows = 4.0 + np.concatenate([half, -half], axis=1)[:, rng.permutation(4096)]
    items = embs(rows[:64], model="golden")
    m = build_matrix(items, Embedding(rows[64], model_id="golden"), measure)
    return report_json_bytes(VerificationReport(
        prompt_id="golden", k=64, measure=measure, summary=summarize(m), matrix=m,
        thresholds=DEFAULT_THRESHOLDS, provenance={"seed": 20240602}))


class TestProductionShapes:
    """build_matrix at the k and d that verify meets, where BLAS kernels unroll."""

    @given(
        st.integers(2, 65),
        st.sampled_from([1024, 3072, 4096, 4097]),
        st.integers(0, 2**31),
        st.sampled_from(sorted(MEASURES)),
        st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_entries_equal_kernel_symmetric_and_equivariant(self, k, dim, seed, measure,
                                                           with_gt):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=dim) + rng.uniform(0.1, 2.0) * rng.normal(size=(k, dim))
        items = embs(rows * 10.0 ** rng.integers(-3, 4, size=(k, 1)))
        gt = Embedding(rng.normal(size=dim), model_id="gt-model") if with_gt else None
        m = build_matrix(items, gt, measure)
        everything = items + ([gt] if gt is not None else [])
        kernel = MEASURES[measure]
        n = len(everything)
        expected = np.array([[1.0 if i == j else kernel(a, b) for j, b in enumerate(everything)]
                             for i, a in enumerate(everything)])
        assert np.array_equal(m.entries.view(np.uint64), expected.view(np.uint64))
        bits = m.entries.view(np.uint64)
        assert np.array_equal(bits, bits.T)

        perm = list(rng.permutation(k)) + list(range(k, n))
        permuted = build_matrix([items[i] for i in perm[:k]], gt, measure)
        reordered = m.entries[np.ix_(perm, perm)]
        assert np.array_equal(permuted.entries.view(np.uint64), reordered.view(np.uint64))

    @pytest.mark.parametrize("measure, digest", [
        ("cosine", "431d96e25880cd710ace665c855b894afc498d9bb53d4b1efb00daa7f43d620a"),
        ("pearson", "a2d331081b43d0cab9f2db7a6dfb0a4e9f0ad37de373440e348aafd76aadeeb8"),
    ])
    def test_golden_report(self, measure, digest):
        # Computed with the scalar per-pair loop, the reference the matrix must match.
        assert hashlib.sha256(golden_report_bytes(measure)).hexdigest() == digest


class TestSummarize:
    def test_all_ones(self):
        m = SimilarityMatrix(np.ones((3, 3)), ("0", "1", "2"), "cosine")
        s = summarize(m, ConfidenceThresholds(0.9, 0.05))
        assert s.mean_offdiag == 1.0
        assert s.std_offdiag == 0.0
        assert s.frobenius_normalized == 1.0
        assert s.gt_alignment is None
        assert s.verdict == "HighConfidence"

    def test_two_by_two_half(self):
        m = SimilarityMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), ("0", "1"), "cosine")
        s = summarize(m)
        assert s.mean_offdiag == 0.5
        assert s.std_offdiag == 0.0
        assert s.verdict == "Inspect"

    def test_high_mean_with_std_at_006_is_inspect(self):
        # Off-diagonal multiset: four values at 0.95+a and two at 0.95-2a with
        # a = sqrt(0.0018) has mean exactly 0.95 and population std 0.06; the
        # strict default gate (std < 0.05) therefore says Inspect even though
        # the mean is well above 0.9.
        a = math.sqrt(0.0018)
        hi, lo = 0.95 + a, 0.95 - 2 * a
        e = np.ones((4, 4))
        pairs_hi = [(0, 1), (0, 2), (1, 3), (2, 3)]
        pairs_lo = [(0, 3), (1, 2)]
        for i, j in pairs_hi:
            e[i, j] = e[j, i] = hi
        for i, j in pairs_lo:
            e[i, j] = e[j, i] = lo
        m = SimilarityMatrix(e, ("0", "1", "2", "3"), "cosine")
        s = summarize(m)
        assert s.mean_offdiag == pytest.approx(0.95, abs=1e-12)
        assert s.std_offdiag == pytest.approx(0.06, abs=1e-12)
        assert s.verdict == "Inspect"

    def test_gt_alignment_reported_separately(self):
        e = np.array(
            [
                [1.0, 0.8, 0.6],
                [0.8, 1.0, 0.4],
                [0.6, 0.4, 1.0],
            ]
        )
        m = SimilarityMatrix(e, ("0", "1", "GT"), "cosine")
        s = summarize(m)
        assert s.mean_offdiag == 0.8  # only the reply pair
        assert s.gt_alignment == pytest.approx((0.6 + 0.4) / 2)

    def test_gt_does_not_change_reply_statistics(self):
        rng = np.random.default_rng(12)
        items = embs(rng.normal(size=(4, 8)))
        gt = Embedding(rng.normal(size=8), model_id="test")
        bare = summarize(build_matrix(items))
        with_gt = summarize(build_matrix(items, gt))
        assert bare.mean_offdiag == with_gt.mean_offdiag
        assert bare.std_offdiag == with_gt.std_offdiag
        assert bare.frobenius_normalized == with_gt.frobenius_normalized
        assert bare.verdict == with_gt.verdict
        assert bare.gt_alignment is None and with_gt.gt_alignment is not None

    def test_summary_permutation_invariant(self):
        rng = np.random.default_rng(13)
        items = embs(rng.normal(size=(5, 8)))
        perm = [4, 2, 0, 3, 1]
        a = summarize(build_matrix(items))
        b = summarize(build_matrix([items[i] for i in perm]))
        assert a == b

    def test_frobenius_one_iff_all_ones(self):
        rng = np.random.default_rng(14)
        e = np.ones((3, 3))
        e[0, 1] = e[1, 0] = 0.999
        m = SimilarityMatrix(e, ("0", "1", "2"), "cosine")
        assert summarize(m).frobenius_normalized < 1.0

    def test_verdict_monotone_in_mean_when_std_not_increasing(self):
        t = ConfidenceThresholds(0.9, 0.05)
        low = SimilarityMatrix(
            np.array([[1.0, 0.92, 0.96], [0.92, 1.0, 0.94], [0.96, 0.94, 1.0]]),
            ("0", "1", "2"),
            "cosine",
        )
        assert summarize(low, t).verdict == "HighConfidence"
        # raising the smallest entry shrinks the spread and lifts the mean
        raised = SimilarityMatrix(
            np.array([[1.0, 0.94, 0.96], [0.94, 1.0, 0.94], [0.96, 0.94, 1.0]]),
            ("0", "1", "2"),
            "cosine",
        )
        s_low, s_raised = summarize(low, t), summarize(raised, t)
        assert s_raised.mean_offdiag > s_low.mean_offdiag
        assert s_raised.std_offdiag <= s_low.std_offdiag
        assert s_raised.verdict == "HighConfidence"

    @given(
        st.integers(2, 12),
        st.integers(2, 16),
        st.integers(0, 2**31),
        st.sampled_from(sorted(MEASURES)),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_reference_formulas(self, k, dim, seed, measure, with_gt):
        rng = np.random.default_rng(seed)
        items = random_embeddings(rng, k, dim)
        gt = Embedding(rng.normal(size=dim), model_id="test") if with_gt else None
        m = build_matrix(items, gt, measure)
        s = summarize(m)
        assert (s.frobenius_normalized, s.mean_offdiag, s.std_offdiag, s.gt_alignment) == (
            reference_summary(m)
        )

    def test_degenerate(self):
        m = SimilarityMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), ("0", "GT"), "cosine")
        with pytest.raises(DegenerateMatrix):
            summarize(m)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ConfidenceThresholds(mean_min=1.5)
        with pytest.raises(ValueError):
            ConfidenceThresholds(std_max=-0.1)


class TestMatrixValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SimilarityMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]), ("0", "1"), "cosine")

    def test_rejects_mirrored_signed_zero(self):
        # A writer formats each pair once and mirrors it, so -0.0 must face -0.0.
        with pytest.raises(ValueError, match="symmetric"):
            SimilarityMatrix(np.array([[1.0, -0.0], [0.0, 1.0]]), ("0", "1"), "cosine")
        m = SimilarityMatrix(np.array([[1.0, -0.0], [-0.0, 1.0]]), ("0", "1"), "cosine")
        assert np.signbit(m.entries[0, 1]) and np.signbit(m.entries[1, 0])

    def test_rejects_non_string_labels(self):
        with pytest.raises(ValueError, match="labels"):
            SimilarityMatrix(np.eye(2), (0, 1), "cosine")

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError):
            SimilarityMatrix(np.array([[0.9, 0.2], [0.2, 1.0]]), ("0", "1"), "cosine")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SimilarityMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]), ("0", "1"), "cosine")
