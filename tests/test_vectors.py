"""Kernel tests: frozen oracle values, algebraic properties, typed errors."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_providers import cfg_for

from samplecheck.providers import MalformedResponse, embed_many
from samplecheck.vectors import (
    ConstantSequence,
    ConstantVector,
    DimensionMismatch,
    Embedding,
    LengthMismatch,
    NonFiniteInput,
    ZeroVector,
    _average_ranks,
    cosine,
    pearson,
    spearman,
)

# Frozen by an arbitrary-precision evaluation of 32 / sqrt(14 * 77).
COSINE_123_456 = 0.97463184619707627108


def emb(*values: float) -> Embedding:
    return Embedding(np.asarray(values, dtype=np.float64), model_id="test")


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vector_pairs(min_dim: int = 2, max_dim: int = 64):
    return st.integers(min_value=min_dim, max_value=max_dim).flatmap(
        lambda n: st.tuples(
            st.lists(finite_floats, min_size=n, max_size=n),
            st.lists(finite_floats, min_size=n, max_size=n),
        )
    )


class TestCosine:
    def test_identical_vectors(self):
        assert cosine(emb(1, 2, 3), emb(1, 2, 3)) == 1.0

    def test_orthogonal(self):
        assert cosine(emb(1, 0), emb(0, 1)) == 0.0

    def test_frozen_oracle_value(self):
        assert cosine(emb(1, 2, 3), emb(4, 5, 6)) == pytest.approx(COSINE_123_456, abs=1e-9)

    def test_antiparallel_is_exactly_minus_one(self):
        a = emb(0.3, -1.7, 2.5)
        b = Embedding(-a.values, model_id="test")
        assert cosine(a, b) == -1.0

    def test_accepts_raw_sequences(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine(emb(1, 2), emb(1, 2, 3))

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine(emb(0, 0), emb(1, 2))

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteInput):
            cosine([1.0, float("nan")], [1.0, 2.0])

    @given(vector_pairs())
    def test_symmetric_and_bounded(self, pair):
        a, b = pair
        if not any(a) or not any(b):
            return
        left = cosine(a, b)
        assert left == cosine(b, a)
        assert -1.0 <= left <= 1.0

    @given(st.lists(finite_floats, min_size=2, max_size=32), st.integers(-20, 20))
    def test_power_of_two_scaling_is_exactly_one(self, values, exp):
        if not any(values):
            return
        scaled = [v * (2.0**exp) for v in values]
        assert cosine(values, scaled) == 1.0

    @given(
        st.lists(finite_floats, min_size=2, max_size=32),
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    def test_positive_scaling_near_one(self, values, c):
        scaled = [v * c for v in values]
        if not any(scaled):  # also when c < 1 underflows subnormal values to zero
            return
        assert cosine(values, scaled) >= 1.0 - 1e-9


class TestPearson:
    def test_identical(self):
        assert pearson(emb(1, 2, 3), emb(1, 2, 3)) == 1.0

    def test_positive_affine_image(self):
        assert pearson(emb(1, 2, 3), emb(7, 9, 11)) == 1.0

    def test_frozen_oracle_value(self):
        # Exact rational value: covariance 3, both variances 5 -> 3/5.
        assert pearson(emb(1, 2, 3, 4), emb(2, 1, 4, 3)) == pytest.approx(0.6, abs=1e-12)

    def test_constant_vector_raises(self):
        with pytest.raises(ConstantVector):
            pearson(emb(5, 5, 5), emb(1, 2, 3))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pearson(emb(1, 2), emb(1, 2, 3))

    def test_too_short(self):
        with pytest.raises(DimensionMismatch):
            pearson(emb(1), emb(2))

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteInput):
            pearson([1.0, float("inf"), 2.0], [1.0, 2.0, 3.0])

    @given(vector_pairs())
    def test_symmetric_and_bounded(self, pair):
        a, b = pair
        if len(set(a)) < 2 or len(set(b)) < 2:
            return
        left = pearson(a, b)
        assert left == pearson(b, a)
        assert -1.0 <= left <= 1.0

    @given(
        st.integers(min_value=2, max_value=16).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-10000, 10000), min_size=n, max_size=n),
                st.lists(st.integers(-10000, 10000), min_size=n, max_size=n),
            )
        ),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_positive_affine_invariance(self, pair, alpha, beta):
        # integer-valued inputs keep alpha*x + beta from collapsing distinct
        # values to the same float, which would change the data, not the stat
        a, b = pair
        if len(set(a)) < 2 or len(set(b)) < 2:
            return
        base = pearson(a, b)
        shifted = pearson([alpha * x + beta for x in a], b)
        assert abs(base - shifted) < 1e-12

    @given(vector_pairs(max_dim=16))
    def test_negation_flips_sign(self, pair):
        a, b = pair
        if len(set(a)) < 2 or len(set(b)) < 2:
            return
        assert pearson([-x for x in a], b) == pytest.approx(-pearson(a, b), abs=1e-12)


class TestSpearman:
    def test_same_order(self):
        assert spearman((1, 2, 3), (10, 20, 30)) == 1.0

    def test_reversed_order(self):
        assert spearman((1, 2, 3), (3, 2, 1)) == -1.0

    def test_tie_case_matches_rank_oracle(self):
        # Average ranks: xs -> (1, 2.5, 2.5, 4), ys -> (1, 3, 2, 4); the
        # Pearson correlation of those rank vectors is 3/sqrt(10).
        expected = 3.0 / math.sqrt(10.0)
        assert spearman((1, 2, 2, 4), (1, 3, 2, 4)) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            spearman((1, 2, 3), (1, 2))

    def test_constant_sequence(self):
        with pytest.raises(ConstantSequence):
            spearman((2, 2, 2), (1, 2, 3))

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteInput):
            spearman([1.0, float("nan"), 2.0], [1.0, 2.0, 3.0])

    @given(
        st.integers(min_value=2, max_value=24).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-10000, 10000), min_size=n, max_size=n),
                st.lists(st.integers(-10000, 10000), min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=60)
    def test_monotone_transform_invariance(self, pair):
        a, b = pair
        if len(set(a)) < 2 or len(set(b)) < 2:
            return
        base = spearman(a, b)
        # x^3 + x is strictly increasing and exact in doubles at this range,
        # so it preserves the rank structure precisely
        transformed = spearman([x**3 + x for x in a], b)
        assert transformed == base

    @given(vector_pairs(max_dim=24))
    def test_bounded(self, pair):
        a, b = pair
        if len(set(a)) < 2 or len(set(b)) < 2:
            return
        assert -1.0 <= spearman(a, b) <= 1.0


def loop_average_ranks(values: np.ndarray) -> np.ndarray:
    """Average-tie ranks by walking each run of equal values in stable order."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestAverageRanks:
    def test_equals_the_loop_bit_for_bit(self):
        rng = np.random.default_rng(47)
        for _ in range(2000):
            n = int(rng.integers(1, 60))
            values = rng.integers(-3, 4, size=n) / 2.0  # runs of ties
            values[rng.uniform(size=n) < 0.2] = -0.0  # equal to 0.0, other bits
            if rng.uniform() < 0.3:
                values = values + rng.uniform(size=n)  # mostly distinct
            got = _average_ranks(values)
            assert got.dtype == np.float64
            assert got.tobytes() == loop_average_ranks(values).tobytes()


class TestEmbeddingType:
    def test_validates_finiteness(self):
        with pytest.raises(NonFiniteInput):
            Embedding(np.asarray([1.0, float("nan")]), model_id="m")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Embedding(np.asarray([]), model_id="m")

    def test_dim_and_immutability(self):
        e = emb(1, 2, 3)
        assert e.dim == 3 and len(e) == 3
        with pytest.raises(ValueError):
            e.values[0] = 5.0

    def test_does_not_alias_its_input(self):
        values = np.array([1.0, 2.0])
        e = Embedding(values)
        values[0] = 9.0
        assert e.values.tolist() == [1.0, 2.0] and values.flags.writeable


# Each row is one JSON value that is not a vector; every entry path rejects it.
REJECTED = {
    "bools": "[true, false]",
    "bool-among-floats": "[1.0, true]",
    "bool-among-ints": "[0, false, 2]",
    "numeric-string": '["1.5"]',
    "null": "[null]",
    "nested": "[[1.0]]",
    "ragged": "[[1.0], [2.0, 3.0]]",
    "empty": "[]",
    "nan": "[NaN]",
    "float-overflow": "[1e400]",
    "int-beyond-64-bits": f"[{10 ** 400}]",
    "number-and-huge-int": f"[1.0, {10 ** 400}]",
    "object": '{"0": 1.0}',
    "bare-number": "1.0",
}

# Finite floats, ints within int64 and the edge values named in the README.
vector_lists = st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
        st.sampled_from([-0.0, 5e-324, 2 ** 53 + 1, 1.7e308, -1.7e308]),
    ),
    min_size=1, max_size=16,
)


class TestOneNumericRule:
    """Embedding and embeddings responses share one rule."""

    @pytest.mark.parametrize("text", REJECTED.values(), ids=REJECTED.keys())
    def test_embedding_rejects(self, text):
        with pytest.raises((ValueError, NonFiniteInput)):
            Embedding(json.loads(text))

    @pytest.mark.parametrize("text", REJECTED.values(), ids=REJECTED.keys())
    def test_embed_many_rejects(self, stub, text):
        stub.state.raw_body = (b'{"data": [{"index": 0, "embedding": [1.0, 0.0]},'
                               b' {"index": 1, "embedding": ' + text.encode() + b"}]}")
        with pytest.raises(MalformedResponse, match="embedding 1"):
            embed_many(["x", "y"], cfg_for(stub), "custom-model")

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=vector_lists)
    def test_every_path_is_bit_identical(self, stub, values):
        want = np.asarray(values, dtype=np.float64).view(np.uint64)
        text = json.dumps(values)
        stub.state.raw_body = f'{{"data": [{{"index": 0, "embedding": {text}}}]}}'.encode()
        got = [Embedding(values).values, embed_many(["x"], cfg_for(stub), "m")[0].values]
        for arr in got:
            assert arr.dtype == np.float64
            assert np.array_equal(arr.view(np.uint64), want)
