import time

import numpy as np
import pytest

from subsample_nn.errors import DimensionError, NumericError, ParameterError
from subsample_nn.linalg import (FLOPS, _product, as_matrix, col_norms, matmul,
                                 rng_choice_weighted, row_norms, stream)


def naive_matmul(a, b):
    m, n = a.shape
    p = b.shape[1]
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            for t in range(n):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    def test_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        np.testing.assert_array_equal(matmul(np.eye(3), m), m)

    def test_hand_case(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(matmul(a, b), [[19.0, 22.0], [43.0, 50.0]])

    def test_against_triple_loop(self):
        rng = stream(7, "matmul-oracle")
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 3))
        assert np.abs(matmul(a, b) - naive_matmul(a, b)).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_flop_count_exact(self):
        with FLOPS.phase("product"):
            matmul(np.zeros((4, 5)), np.zeros((5, 6)))
        assert FLOPS.take()[0]["product"] == 2 * 4 * 5 * 6

    def test_associativity(self):
        rng = stream(11, "assoc")
        for _ in range(20):
            a = rng.standard_normal((6, 4))
            b = rng.standard_normal((4, 5))
            c = rng.standard_normal((5, 3))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            bound = 1e-9 * np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)
            assert np.linalg.norm(left - right) <= bound

    @pytest.mark.parametrize("n,p", [(784, 128), (128, 10)])
    def test_inner_dimension_one_has_the_gemm_bytes(self, n, p):
        # a batch-1 weight gradient: zero activations against a negative delta
        # give -0.0 in a bare outer product and +0.0 in the GEMM
        rng = stream(5, "outer", n)
        a = np.maximum(rng.standard_normal((1, n)), 0.0).T
        b = -np.abs(rng.standard_normal((1, p)))
        assert (a == 0.0).any()
        product = _product(a, b)
        assert product.shape == (n, p)
        assert product.tobytes() == (a @ b).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_inner_dimension_one_rejects_a_non_finite_factor(self, bad, side):
        a, b = np.ones((784, 1)), np.zeros((1, 128))  # NaN or inf times 0 is NaN
        (a if side == "a" else b)[0, 0] = bad
        with pytest.raises(NumericError, match="matmul result contains NaN or Inf"):
            matmul(a, b)

    def test_inner_dimension_one_rejects_overflow(self):
        a, b = np.full((3, 1), 1e-3), np.full((1, 4), 1e-3)
        a[2, 0], b[0, 1] = 1e200, 1e200
        with pytest.raises(NumericError, match="matmul result contains NaN or Inf"):
            matmul(a, b)
        a[2, 0] = 1e100  # 1e300 is finite
        assert np.isfinite(matmul(a, b)).all()

    @pytest.mark.parametrize("a_shape,b_shape", [((0, 1), (1, 5)), ((5, 1), (1, 0))])
    def test_inner_dimension_one_with_an_empty_factor_passes(self, a_shape, b_shape):
        product = matmul(np.ones(a_shape), np.ones(b_shape))
        assert product.shape == (a_shape[0], b_shape[1])


class TestAsMatrix:
    @pytest.mark.parametrize("shape", [(128, 128), (128, 150), (192, 200), (128, 784),
                                       (784, 128), (10, 128), (128, 20), (1, 130),
                                       (130, 1), (100, 37)])
    def test_transposed_operand_copies_to_the_same_bytes(self, shape):
        x = stream(4, "as-matrix", *shape).standard_normal(shape[::-1]).T
        m = as_matrix(x)
        assert m.flags.c_contiguous and m.shape == shape
        assert m.tobytes() == np.ascontiguousarray(x).tobytes()

    def test_strided_and_integer_operands(self):
        x = np.arange(256 * 256).reshape(256, 256)
        for operand in (x.T, x[::2, ::3].T, x.astype(np.float64)[:, ::2]):
            m = as_matrix(operand)
            assert m.flags.c_contiguous and m.dtype == np.float64
            assert m.tobytes() == np.ascontiguousarray(operand, dtype=np.float64).tobytes()

    def test_contiguous_operand_is_not_copied(self):
        x = np.ones((128, 128))
        assert as_matrix(x) is x


class TestVecmat:
    """Row vector times matrix: the batch-1 product, a one-row matmul."""

    def test_zero_vector(self):
        out = matmul(np.zeros((1, 3)), np.ones((3, 4)))
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_basis_selection(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(np.array([[1.0, 0.0]]), m), [[1.0, 2.0]])

    def test_matches_matmul_reshape(self):
        rng = stream(3, "vecmat")
        v = rng.standard_normal(6)
        m = rng.standard_normal((6, 4))
        with FLOPS.phase("product"):
            out = matmul(v[None, :], m)[0]
        assert FLOPS.take()[0]["product"] == 2 * 6 * 4
        np.testing.assert_allclose(out, v @ m, atol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(np.zeros((1, 2)), np.zeros((3, 3)))


class TestFlopMeter:
    @pytest.fixture(autouse=True)
    def fresh_meter(self):
        FLOPS.take()

    def test_nested_phase_charges_innermost_only(self):
        with FLOPS.phase("outer"):
            FLOPS.add(3)
            with FLOPS.phase("inner"):
                FLOPS.add(5)
                time.sleep(0.02)
            FLOPS.add(7)
        flops, seconds = FLOPS.take()
        assert flops == {"outer": 10, "inner": 5}
        assert seconds["inner"] >= 0.02 > seconds["outer"]

    def test_exception_restores_outer_phase(self):
        with FLOPS.phase("outer"):
            with pytest.raises(ValueError):
                with FLOPS.phase("inner"):
                    raise ValueError("inside the inner phase")
            FLOPS.add(4)
        assert FLOPS.take()[0] == {"outer": 4, "inner": 0}

    def test_take_resets_totals(self):
        with FLOPS.phase("product"):
            FLOPS.add(6)
        assert FLOPS.take()[0] == {"product": 6}
        assert FLOPS.take() == ({}, {})

    def test_work_outside_phases_is_not_recorded(self):
        matmul(np.ones((2, 2)), np.ones((2, 2)))
        assert FLOPS.take() == ({}, {})


class TestNorms:
    def test_identity(self):
        np.testing.assert_array_equal(col_norms(np.eye(3)), np.ones(3))
        np.testing.assert_array_equal(row_norms(np.eye(3)), np.ones(3))

    def test_three_four_five(self):
        np.testing.assert_allclose(col_norms(np.array([[3.0], [4.0]])), [5.0])

    def test_against_scalar_loop(self):
        rng = stream(5, "norms")
        m = rng.standard_normal((4, 4))
        expected_cols = [sum(m[i, j] ** 2 for i in range(4)) ** 0.5 for j in range(4)]
        expected_rows = [sum(m[i, j] ** 2 for j in range(4)) ** 0.5 for i in range(4)]
        np.testing.assert_allclose(col_norms(m), expected_cols, rtol=1e-14)
        np.testing.assert_allclose(row_norms(m), expected_rows, rtol=1e-14)


class TestRng:
    # Bernoulli draws are `random() < p` wherever the package makes them
    # (dropout masks, MC keep decisions)

    def test_bernoulli_degenerate(self):
        # uniforms lie in [0, 1): p = 1 keeps everything, p = 0 nothing
        rng = stream(0, "bern")
        assert (rng.random(1000) < 1.0).all()
        assert not (rng.random(1000) < 0.0).any()

    def test_bernoulli_mean(self):
        # binomial std = sqrt(p(1-p)/n); stay within 3 sigma of 0.3
        n = 10**6
        draws = stream(42, "bern-mean").random(n) < 0.3
        sigma = np.sqrt(0.3 * 0.7 / n)
        assert abs(draws.mean() - 0.3) <= 3 * sigma

    def test_choice_weighted_validation(self):
        rng = stream(0, "choice")
        with pytest.raises(ParameterError):
            rng_choice_weighted(rng, [-1.0, 2.0], 10)
        with pytest.raises(ParameterError):
            rng_choice_weighted(rng, [0.0, 0.0], 10)

    def test_choice_weighted_distribution(self):
        rng = stream(9, "choice-dist")
        draws = rng_choice_weighted(rng, [1.0, 3.0], size=10**5)
        assert abs((draws == 1).mean() - 0.75) < 0.01

    def test_seed_reproducibility(self):
        a = stream(123, "repro").standard_normal(50)
        b = stream(123, "repro").standard_normal(50)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_independent(self):
        a = stream(123, "path-a").random(50)
        b = stream(123, "path-b").random(50)
        assert not np.array_equal(a, b)
