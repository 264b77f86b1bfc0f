"""Cost model: formula anchors, applicability, comparison report, properties."""

from __future__ import annotations

import math
from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplecheck.costmodel import (
    CONVENTION_NOTE,
    CostModelParams,
    InvalidParams,
    NotApplicable,
    SCHEMES,
    TASK_SIMILARITY,
    TASK_VERIFICATION,
    UnknownCost,
    applicable_schemes,
    compare,
    estimate,
    render_table,
)


def params(**overrides) -> CostModelParams:
    base = dict(
        samples=10,
        embed_dim=3072,
        sentences=10,
        tokens=25,
        inference_work=1.0,
        inference_depth=1.0,
        embed_work=1.0,
        embed_depth=1.0,
    )
    base.update(overrides)
    return CostModelParams(**base)


class TestEstimateAnchors:
    def test_checkembed_verification_unit_constants(self):
        # k(W_M + W_I) + k^2 d at k=10, d=3072, unit works: 20 + 307200.
        e = estimate("checkembed", TASK_VERIFICATION, params())
        assert e.work == 307220

    def test_checkembed_verification_depth(self):
        e = estimate("checkembed", TASK_VERIFICATION, params())
        assert e.depth == pytest.approx(1.0 + 1.0 + math.log2(3072))

    def test_checkembed_similarity_single_sample(self):
        e = estimate("checkembed", TASK_SIMILARITY, params(samples=1, embed_dim=512))
        assert e.work == 1.0 + 512  # one embedding run plus the dot product

    def test_selfcheckgpt_bert_verification_formula(self):
        p = params(samples=2, sentences=3, tokens=4, embed_dim=8, embed_work=5.0)
        e = estimate("selfcheckgpt_bert", TASK_VERIFICATION, p)
        expected = 2 * 2 * 3 * (5.0 + 16 * math.log2(8) + 16)
        assert e.work == pytest.approx(expected)

    def test_halocheck_verification_formula(self):
        p = params(samples=3, sentences=2, inference_work=7.0)
        e = estimate("halocheck", TASK_VERIFICATION, p)
        assert e.work == pytest.approx(9 * (4 * 7.0 + 4 + 1))

    def test_bertscore_open_ended_not_applicable(self):
        with pytest.raises(NotApplicable):
            estimate("bertscore", TASK_VERIFICATION, params())

    def test_sentencebert_open_ended_not_applicable(self):
        with pytest.raises(NotApplicable):
            estimate("sentencebert", TASK_VERIFICATION, params())

    def test_unieval_similarity_not_applicable(self):
        with pytest.raises(NotApplicable):
            estimate("unieval", TASK_SIMILARITY, params())

    def test_geval_similarity_not_applicable(self):
        with pytest.raises(NotApplicable):
            estimate("geval", TASK_SIMILARITY, params())

    def test_gptscore_similarity_unknown(self):
        with pytest.raises(UnknownCost):
            estimate("gptscore", TASK_SIMILARITY, params())

    def test_gptscore_verification_single_inference(self):
        e = estimate("gptscore", TASK_VERIFICATION, params(inference_work=9.0,
                                                           inference_depth=2.0))
        assert (e.depth, e.work) == (2.0, 9.0)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            estimate("mystery", TASK_VERIFICATION, params())

    def test_scheme_count_covers_all_rows(self):
        assert len(SCHEMES) == 10

    def test_schemes_and_applicable_schemes_in_table_order(self):
        assert SCHEMES == ("bartscore", "unieval", "selfcheckgpt_bert", "selfcheckgpt_nli",
                           "halocheck", "bertscore", "sentencebert", "geval", "gptscore",
                           "checkembed")
        assert applicable_schemes(TASK_SIMILARITY) == [
            "bartscore", "selfcheckgpt_bert", "selfcheckgpt_nli", "halocheck", "bertscore",
            "sentencebert", "checkembed"]
        assert applicable_schemes(TASK_VERIFICATION) == [
            "bartscore", "unieval", "selfcheckgpt_bert", "selfcheckgpt_nli", "halocheck",
            "geval", "gptscore", "checkembed"]


class TestPartialDifferences:
    def test_checkembed_similarity_independent_of_sentences_and_tokens(self):
        base = estimate("checkembed", TASK_SIMILARITY, params()).work
        assert estimate("checkembed", TASK_SIMILARITY, params(sentences=99)).work == base
        assert estimate("checkembed", TASK_SIMILARITY, params(tokens=77)).work == base

    def test_selfcheckgpt_bert_verification_linear_in_ks(self):
        w1 = estimate("selfcheckgpt_bert", TASK_VERIFICATION, params(samples=5)).work
        w2 = estimate("selfcheckgpt_bert", TASK_VERIFICATION, params(samples=10)).work
        assert w2 == pytest.approx(2 * w1)
        s1 = estimate("selfcheckgpt_bert", TASK_VERIFICATION, params(sentences=5)).work
        s2 = estimate("selfcheckgpt_bert", TASK_VERIFICATION, params(sentences=10)).work
        assert s2 == pytest.approx(2 * s1)
        # second difference in k is zero (linearity)
        w = [
            estimate("selfcheckgpt_bert", TASK_VERIFICATION, params(samples=k)).work
            for k in (4, 5, 6)
        ]
        assert w[2] - w[1] == pytest.approx(w[1] - w[0])

    def test_checkembed_verification_second_difference_is_2d(self):
        d = 3072
        works = [
            estimate("checkembed", TASK_VERIFICATION, params(samples=k)).work
            for k in (6, 7, 8)
        ]
        second_diff = (works[2] - works[1]) - (works[1] - works[0])
        assert second_diff == pytest.approx(2 * d)

    def test_checkembed_verification_linear_in_inference_work(self):
        k = 10
        w1 = estimate("checkembed", TASK_VERIFICATION, params(inference_work=1.0)).work
        w2 = estimate("checkembed", TASK_VERIFICATION, params(inference_work=3.0)).work
        assert w2 - w1 == pytest.approx(k * 2.0)


class TestCompare:
    def test_ratio_greater_than_one_for_selfcheck(self):
        p = params(
            samples=10, sentences=10, tokens=10, embed_dim=4096,
            inference_work=1e6, embed_work=1e6,
            inference_depth=1e3, embed_depth=1e3,
        )
        report = compare({"checkembed", "selfcheckgpt_bert"}, TASK_VERIFICATION, p)
        by_scheme = {r.scheme: r for r in report.rows}
        assert by_scheme["selfcheckgpt_bert"].ratio_vs_checkembed > 1.0
        assert by_scheme["checkembed"].ratio_vs_checkembed == 1.0

    def test_singleton_ratio_one(self):
        report = compare({"checkembed"}, TASK_VERIFICATION, params())
        assert len(report.rows) == 1
        assert report.rows[0].ratio_vs_checkembed == 1.0

    def test_sorted_ascending_by_work(self):
        report = compare(
            applicable_schemes(TASK_VERIFICATION), TASK_VERIFICATION, params()
        )
        works = [r.work for r in report.rows]
        assert works == sorted(works)

    def test_doubling_inference_work_shifts_checkembed_by_2k_delta(self):
        p1 = params(inference_work=100.0)
        p2 = params(inference_work=200.0)
        w1 = estimate("checkembed", TASK_VERIFICATION, p1).work
        w2 = estimate("checkembed", TASK_VERIFICATION, p2).work
        assert w2 - w1 == pytest.approx(10 * 100.0)  # k * delta_W

    def test_propagates_not_applicable(self):
        with pytest.raises(NotApplicable):
            compare({"checkembed", "bertscore"}, TASK_VERIFICATION, params())

    def test_report_labels_model_as_analytical(self):
        report = compare({"checkembed"}, TASK_VERIFICATION, params())
        assert report.note == CONVENTION_NOTE
        assert "not measurements" in render_table(report)
        assert asdict(report)["note"] == CONVENTION_NOTE


param_values = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)


@st.composite
def valid_params(draw):
    iw = draw(param_values)
    ew = draw(param_values)
    return CostModelParams(
        samples=draw(param_values),
        embed_dim=draw(param_values),
        sentences=draw(param_values),
        tokens=draw(param_values),
        inference_work=iw,
        inference_depth=draw(st.floats(min_value=1e-3, max_value=iw, allow_nan=False)),
        embed_work=ew,
        embed_depth=draw(st.floats(min_value=1e-3, max_value=ew, allow_nan=False)),
    )


class TestInvariants:
    @given(valid_params())
    @settings(max_examples=200)
    def test_depth_never_exceeds_work(self, p):
        for task in (TASK_SIMILARITY, TASK_VERIFICATION):
            for scheme in applicable_schemes(task):
                e = estimate(scheme, task, p)
                assert e.depth <= e.work, (scheme, task, p)

    @pytest.mark.parametrize("name", [f.name for f in fields(CostModelParams)])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_params_rejected(self, name, value):
        with pytest.raises(InvalidParams, match=f"{name} must be finite"):
            params(**{name: value})

    def test_param_validation(self):
        with pytest.raises(InvalidParams):
            params(samples=0.5)
        with pytest.raises(InvalidParams):
            params(inference_work=-1.0)
        with pytest.raises(InvalidParams):
            params(inference_depth=2.0, inference_work=1.0)
        with pytest.raises(InvalidParams):
            params(embed_depth=5.0, embed_work=1.0)
