"""Baseline verifiers: greedy matching oracles, self-consistency scoring,
NLI averaging, judge templates and verdict parsing."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from samplecheck.baselines import (
    JUDGE_TASKS,
    EmptySample,
    EmptySequence,
    JudgeVerdict,
    OutOfRangeScore,
    TokenEmbeddingSeq,
    UnparsableVerdict,
    assemble_prompt,
    bertscore_greedy,
    parse_verdict,
    selfcheck_bert,
    selfcheck_nli,
    split_sentences,
    template_slots,
    template_text,
)
from samplecheck.vectors import Embedding, ZeroVector, cosine


def seq(vectors, tokens=None, idf=None) -> TokenEmbeddingSeq:
    vecs = tuple(Embedding(np.asarray(v, dtype=np.float64), model_id="tok") for v in vectors)
    toks = tuple(tokens or [f"t{i}" for i in range(len(vecs))])
    return TokenEmbeddingSeq(tokens=toks, vectors=vecs, idf=tuple(idf) if idf else None)


def random_seq(rng, n_tokens, dim=4, with_idf=False):
    vectors = rng.normal(size=(n_tokens, dim))
    idf = rng.uniform(0.1, 2.0, size=n_tokens).tolist() if with_idf else None
    return seq(vectors, idf=idf)


def oracle_bertscore(candidate: TokenEmbeddingSeq, reference: TokenEmbeddingSeq):
    """Exhaustive enumeration oracle: explicit loops, fsum-weighted means."""

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
    f1 = 0.0 if p + r == 0.0 else 2 * p * r / (p + r)
    return p, r, f1


class TestBertscoreGreedy:
    def test_identical_sequences(self):
        s = seq([[1, 0], [0, 1], [1, 1]])
        assert bertscore_greedy(s, s) == (1.0, 1.0, 1.0)

    def test_orthogonal_single_tokens(self):
        c = seq([[1.0, 0.0]])
        r = seq([[0.0, 1.0]])
        assert bertscore_greedy(c, r) == (0.0, 0.0, 0.0)

    def test_three_vs_four_matches_oracle(self):
        rng = np.random.default_rng(31)
        c = random_seq(rng, 3)
        r = random_seq(rng, 4)
        assert bertscore_greedy(c, r) == oracle_bertscore(c, r)

    def test_idf_weighted_matches_oracle(self):
        rng = np.random.default_rng(32)
        c = random_seq(rng, 4, with_idf=True)
        r = random_seq(rng, 3, with_idf=True)
        assert bertscore_greedy(c, r) == oracle_bertscore(c, r)

    def test_role_duality(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            c = random_seq(rng, int(rng.integers(1, 6)))
            r = random_seq(rng, int(rng.integers(1, 6)))
            pc, rc, _ = bertscore_greedy(c, r)
            pr, rr, _ = bertscore_greedy(r, c)
            assert pc == rr and rc == pr

    def test_f1_between_min_and_max(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            c = random_seq(rng, int(rng.integers(1, 6)))
            r = random_seq(rng, int(rng.integers(1, 6)))
            p, rr, f1 = bertscore_greedy(c, r)
            if p >= 0 and rr >= 0 and p + rr > 0:
                assert min(p, rr) - 1e-12 <= f1 <= max(p, rr) + 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            bertscore_greedy(seq([[1, 0]]), seq([[1, 0, 0]]))

    def test_mismatch_names_side_and_token(self):
        c = seq([[1, 0], [0, 1]], tokens=["a", "b"])
        r = seq([[1, 0, 0], [0, 1, 0]], tokens=["x", "y"])
        with pytest.raises(ValueError, match=r"^reference token 0 \('x'\) has dim 3, "
                                             r"candidate token 0 has 2$"):
            bertscore_greedy(c, r)
        other = TokenEmbeddingSeq(tokens=("a", "b"), vectors=(
            c.vectors[0], Embedding(np.array([0.0, 1.0]), model_id="other")))
        with pytest.raises(ValueError, match=r"^candidate token 1 \('b'\) is from 'other', "
                                             r"candidate token 0 from 'tok'$"):
            bertscore_greedy(other, c)
        with pytest.raises(ValueError, match=r"^reference token 1 \('b'\) is from 'other'"):
            bertscore_greedy(c, other)

    def test_empty_sequence(self):
        with pytest.raises(EmptySequence):
            TokenEmbeddingSeq(tokens=(), vectors=())

    def test_idf_validation(self):
        with pytest.raises(ValueError):
            seq([[1, 0], [0, 1]], idf=[0.0, 0.0])
        with pytest.raises(ValueError):
            seq([[1, 0], [0, 1]], idf=[-1.0, 1.0])

    @pytest.mark.parametrize("with_idf", [False, True])
    def test_production_shape_matches_oracle(self, with_idf):
        # 25 tokens of d=1024, where BLAS dot kernels unroll; the fixtures above
        # stop at d=8.
        rng = np.random.default_rng(37)
        c = random_seq(rng, 25, dim=1024, with_idf=with_idf)
        r = random_seq(rng, 25, dim=1024, with_idf=with_idf)
        assert bertscore_greedy(c, r) == oracle_bertscore(c, r)
        assert bertscore_greedy(r, c) == oracle_bertscore(r, c)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_zero_token_vector_names_the_token(self, index):
        # Rejected with the sequence, so a caller learns which side and token;
        # build_matrix would name only a pair of rows of candidate + reference.
        vectors = [[1.0, 0.0], [1.0, 1.0], [0.5, 0.5]]
        vectors[index] = [0.0, 0.0]
        with pytest.raises(ZeroVector, match=fr"^token {index} \('w{index}'\) has a zero vector$"):
            seq(vectors, tokens=["w0", "w1", "w2"])

    def test_token_vectors_of_two_models_rejected(self):
        other = TokenEmbeddingSeq(tokens=("t0",),
                                  vectors=(Embedding(np.array([1.0, 0.0]), model_id="other"),))
        with pytest.raises(ValueError, match="'other'"):
            bertscore_greedy(seq([[1.0, 0.0]]), other)


class TestSelfcheckBert:
    def test_verbatim_sentence_scores_one(self):
        sentence = seq([[1, 0], [0, 1]])
        samples = [[sentence, seq([[1, 1]])], [sentence]]
        scores = selfcheck_bert([sentence], samples)
        assert scores == [1.0]

    def test_single_sample_equal_to_reply(self):
        sentences = [seq([[1, 0]]), seq([[0, 1], [1, 1]])]
        scores = selfcheck_bert(sentences, [list(sentences)])
        assert scores == [1.0, 1.0]

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(35)
        sentences = [random_seq(rng, int(rng.integers(1, 4))) for _ in range(3)]
        samples = [
            [random_seq(rng, int(rng.integers(1, 4))) for _ in range(int(rng.integers(1, 4)))]
            for _ in range(2)
        ]
        got = selfcheck_bert(sentences, samples)
        expected = []
        for sent in sentences:
            per_sample = []
            for doc in samples:
                best = max(oracle_bertscore(sent, other)[2] for other in doc)
                per_sample.append(best)
            expected.append(math.fsum(per_sample) / len(per_sample))
        assert got == expected

    def test_production_shape_matches_oracle(self):
        # 25 tokens of d=1024 per sentence: 3 reply sentences, 2 samples of 2.
        rng = np.random.default_rng(38)
        sentences = [random_seq(rng, 25, dim=1024) for _ in range(3)]
        samples = [[random_seq(rng, 25, dim=1024) for _ in range(2)] for _ in range(2)]
        expected = []
        for sent in sentences:
            per_sample = [max(oracle_bertscore(sent, other)[2] for other in doc)
                          for doc in samples]
            expected.append(math.fsum(per_sample) / len(per_sample))
        assert selfcheck_bert(sentences, samples) == expected

    def test_scores_bounded_by_best_pair(self):
        rng = np.random.default_rng(36)
        sentences = [random_seq(rng, 2)]
        samples = [[random_seq(rng, 3), random_seq(rng, 2)], [random_seq(rng, 1)]]
        score = selfcheck_bert(sentences, samples)[0]
        best = max(
            bertscore_greedy(sentences[0], other)[2] for doc in samples for other in doc
        )
        assert score <= best + 1e-12

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            selfcheck_bert([seq([[1, 0]])], [[]])
        with pytest.raises(EmptySample):
            selfcheck_bert([seq([[1, 0]])], [])


class TestSelfcheckNli:
    def test_constant_zero(self):
        scores = selfcheck_nli(["a.", "b."], ["s1", "s2"], lambda p, h: 0.0)
        assert scores == [0.0, 0.0]

    def test_constant_one(self):
        scores = selfcheck_nli(["a."], ["s1", "s2", "s3"], lambda p, h: 1.0)
        assert scores == [1.0]

    def test_arithmetic_mean(self):
        values = {"s1": 0.2, "s2": 0.4}
        scores = selfcheck_nli(["x."], ["s1", "s2"], lambda p, h: values[p])
        assert scores[0] == pytest.approx(0.3, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeScore):
            selfcheck_nli(["x."], ["s1"], lambda p, h: 1.5)


class TestSentenceSplitting:
    def test_basic(self):
        assert split_sentences("One. Two! Three?") == ["One.", "Two!", "Three?"]

    def test_trailing_fragment_kept(self):
        assert split_sentences("Done. And then") == ["Done.", "And then"]

    def test_no_split_inside_token(self):
        assert split_sentences("Version 2.5 shipped. Done.") == [
            "Version 2.5 shipped.",
            "Done.",
        ]


class TestJudgeTemplates:
    # Checksums freeze the shipped template assets; any edit must be deliberate.
    CHECKSUMS = {
        "similar_descriptions": "903b456df2de51a20fff47e4ffdfc4fbca8131544ae3e4eb3d68b133abd9523f",
        "legal_summary": "c172754e5c9ff7621453bdf6eba5543a1ae671eb47125dffd2fbcf076a34b451",
        "scientific_passage": "71b41baa4948f02e7ede76fbfbf7c5226593f3f122c3bc672c8c57c098bf6a90",
        "wikibio": "1e0caebef7c359adc5a35c7e93643be9605c476d7bbfbf1adc10461e9873879b",
        "wikibio_with_reference": "2791404af743cc038c8281937a6f7be55ba69e197cc97c7aaa600ef23727d481",
        "ragtruth": "2b1ee8067edadd508ea2c0ac9d3c4b0b2fda991c9ae337a983f81393cac36fb3",
    }

    def test_all_tasks_have_templates(self):
        assert set(JUDGE_TASKS) == set(self.CHECKSUMS)
        for task in JUDGE_TASKS:
            text = template_text(task)
            assert "### INSTRUCTION ###" in text
            assert "### OUTPUT ###" in text
            assert "You CANNOT output a decimal number." in text

    def test_checksums(self):
        for task, expected in self.CHECKSUMS.items():
            digest = hashlib.sha256(template_text(task).encode("utf-8")).hexdigest()
            assert digest == expected, f"template {task} changed"

    def test_slots(self):
        assert template_slots("similar_descriptions") == ("description1", "description2")
        assert template_slots("legal_summary") == ("legal_summary", "original_document")
        assert template_slots("scientific_passage") == ("text_passage",)
        assert template_slots("wikibio") == ("biography",)
        assert template_slots("wikibio_with_reference") == (
            "generated_biography",
            "original_biography",
        )
        assert template_slots("ragtruth") == ("generated_answer", "original_prompt")

    def test_ragtruth_section_headers(self):
        prompt = assemble_prompt(
            "ragtruth", {"generated_answer": "ANS", "original_prompt": "REQ"}
        )
        assert "### ANSWER ###" in prompt
        assert "### ORIGINAL REQUEST ###" in prompt
        assert "ANS" in prompt and "REQ" in prompt
        assert "{generated_answer}" not in prompt

    def test_wikibio_with_reference_sections(self):
        prompt = assemble_prompt(
            "wikibio_with_reference",
            {"generated_biography": "GEN", "original_biography": "ORIG"},
        )
        assert "**Passage**:" in prompt and "**Original**:" in prompt

    def test_substitution_is_exact(self):
        template = template_text("wikibio")
        prompt = assemble_prompt("wikibio", {"biography": "BIO-TEXT"})
        assert prompt == template.replace("{biography}", "BIO-TEXT")

    def test_missing_slot(self):
        with pytest.raises(ValueError, match="missing template slots"):
            assemble_prompt("ragtruth", {"generated_answer": "x"})

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown judge task"):
            assemble_prompt("nope", {})


class TestVerdictParsing:
    def test_plain_integer(self):
        assert parse_verdict("100").score == 100
        assert parse_verdict("0").score == 0

    def test_whitespace_tolerated(self):
        assert parse_verdict("  42\n").score == 42

    def test_decimal_rejected(self):
        with pytest.raises(UnparsableVerdict) as err:
            parse_verdict("87.5")
        assert err.value.raw_reply == "87.5"

    def test_out_of_range_rejected_not_clamped(self):
        with pytest.raises(UnparsableVerdict):
            parse_verdict("105")
        with pytest.raises(UnparsableVerdict):
            parse_verdict("-3")

    def test_prose_rejected(self):
        with pytest.raises(UnparsableVerdict):
            parse_verdict("the score is 80")

    def test_verdict_range_enforced_on_type(self):
        with pytest.raises(ValueError):
            JudgeVerdict(score=101, raw_reply="101")
