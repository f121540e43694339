from itertools import product

import numpy as np
import pytest

from subsample_nn.errors import DegenerateInputError, ParameterError
from subsample_nn.linalg import FLOPS, col_norms, row_norms, stream
from subsample_nn.mc import (approx_matmul_bernoulli, approx_matmul_cr,
                             bernoulli_error, optimal_probs_bernoulli,
                             optimal_probs_cr)


class ForcedUniforms:
    """rng stub whose .random(n) returns a preset sequence; lets tests walk
    the production sampler through every Bernoulli outcome."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        out = np.array(self.values[:n], dtype=np.float64)
        self.values = self.values[n:]
        return out


class ForcedDraws:
    """rng stub whose .choice returns a preset draw tuple; lets tests walk the
    production CR sampler through every with-replacement outcome."""

    def __init__(self, draws):
        self.draws = draws

    def choice(self, n, size, replace, p):
        assert replace and len(p) == n and size == len(self.draws)
        return np.array(self.draws, dtype=np.int64)


def enumerate_bernoulli(a, b, k, probs=None):
    """Expectation and variance of the production estimator over all outcomes."""
    if probs is None:
        probs = optimal_probs_bernoulli(a, b, k)
    n = probs.size
    exact = a @ b
    mean = np.zeros_like(exact)
    var = 0.0
    for zs in product((0, 1), repeat=n):
        weight = 1.0
        uniforms = []
        for z, p in zip(zs, probs):
            weight *= p if z else (1.0 - p)
            uniforms.append(0.0 if z else 1.0 - 1e-12)
        if weight == 0.0:
            continue
        est, _ = approx_matmul_bernoulli(a, b, k, ForcedUniforms(uniforms), probs=probs)
        mean += weight * est
        var += weight * float(((est - exact) ** 2).sum())
    return mean, var


def enumerate_cr(a, b, c, probs=None):
    """Expectation of the CR estimator over all with-replacement draw tuples."""
    if probs is None:
        probs = optimal_probs_cr(a, b)
    n = probs.size
    mean = np.zeros((a.shape[0], b.shape[1]))
    for draws in product(range(n), repeat=c):
        weight = float(np.prod(probs[list(draws)]))
        if weight == 0.0:
            continue
        est, _ = approx_matmul_cr(a, b, c, ForcedDraws(draws), probs=probs)
        mean += weight * est
    return mean


class TestOptimalProbsCR:
    def test_diagonal_case(self):
        a = np.diag([1.0, 2.0])
        np.testing.assert_allclose(optimal_probs_cr(a, np.eye(2)), [1 / 3, 2 / 3])

    def test_equal_norms_uniform(self):
        a = np.eye(4)
        b = np.eye(4)
        np.testing.assert_allclose(optimal_probs_cr(a, b), np.full(4, 0.25))

    def test_sums_to_one(self):
        rng = stream(0, "cr-probs")
        p = optimal_probs_cr(rng.standard_normal((6, 5)), rng.standard_normal((5, 7)))
        assert abs(p.sum() - 1.0) < 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            optimal_probs_cr(np.zeros((3, 3)), np.zeros((3, 3)))

    def test_beats_perturbed_distributions_empirically(self):
        # Monte-Carlo comparison on the expected squared Frobenius error (the
        # quantity the norm-product distribution provably minimizes; on the
        # unsquared mean norm, near-optimal perturbations can win by noise).
        rng = stream(2024, "cr-compare")
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        exact = a @ b
        outers = np.einsum("mi,ip->imp", a, b)
        c = 2

        def empirical_sq_error(probs, trials=10_000):
            draws = rng.choice(probs.size, size=(trials, c), p=probs)
            scales = 1.0 / (c * probs[draws])
            est = np.einsum("tc,tcmp->tmp", scales, outers[draws])
            diff = est - exact
            return float((diff**2).sum(axis=(1, 2)).mean())

        optimal = optimal_probs_cr(a, b)
        best = empirical_sq_error(optimal)
        assert optimal.argmax() == np.argmax(np.linalg.norm(a, axis=0)
                                             * np.linalg.norm(b, axis=1))
        for _ in range(200):
            raw = optimal ** rng.uniform(0.3, 3.0) * rng.uniform(0.2, 1.0, optimal.size)
            candidate = raw / raw.sum()
            assert best <= empirical_sq_error(candidate)


class TestApproxCR:
    def test_exhaustive_uniform_is_exact(self):
        rng = stream(1, "cr-exh")
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 3))
        uniform = np.full(4, 0.25)
        est, plan = approx_matmul_cr(a, b, 4, ForcedDraws(range(4)), probs=uniform)
        np.testing.assert_allclose(est, a @ b, atol=1e-12)
        assert plan.indices.tolist() == [0, 1, 2, 3]

    def test_one_by_one_always_exact(self):
        a = np.array([[3.0]])
        b = np.array([[-2.0]])
        est, _ = approx_matmul_cr(a, b, 1, stream(0, "cr-11"))
        np.testing.assert_allclose(est, [[-6.0]], atol=1e-14)

    def test_unbiased_by_enumeration(self):
        rng = stream(3, "cr-enum")
        for trial in range(10):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            mean = enumerate_cr(a, b, c=2)
            np.testing.assert_allclose(mean, a @ b, atol=1e-12)

    def test_empirical_mean_within_three_standard_errors(self):
        rng = stream(4, "cr-mean")
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        trials = 10_000
        draw_rng = stream(5, "cr-mean-draws")
        estimates = np.empty((trials, 3, 3))
        for t in range(trials):
            estimates[t], _ = approx_matmul_cr(a, b, 2, draw_rng)
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(trials)
        assert (np.abs(mean - a @ b) <= 3 * se + 1e-12).all()

    def test_invalid_samples(self):
        with pytest.raises(ParameterError):
            approx_matmul_cr(np.eye(2), np.eye(2), 0, stream(0))

    def test_plan_contract(self):
        rng = stream(20, "cr-plan")
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 4))
        est, plan = approx_matmul_cr(a, b, 3, stream(21, "draws"))
        probs = optimal_probs_cr(a, b)
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert plan.indices.shape == (3,)
        # the estimate is the plan's draws, each weighted 1/(c p_j)
        scales = 1.0 / (3 * probs[plan.indices])
        np.testing.assert_allclose(
            est, (a[:, plan.indices] * scales) @ b[plan.indices, :], atol=1e-12)


def charged(call):
    """call()'s result, and the FLOPs it charged."""
    with FLOPS.phase("product"):
        result = call()
    return result, FLOPS.take()[0]["product"]


@pytest.mark.parametrize("uniforms", [None, [1.0] * 6], ids=["drawn", "nothing-kept"])
def test_bernoulli_plan_flops_are_the_charged_flops(uniforms):
    rng = stream(30, "plan-flops")
    a, b = rng.standard_normal((4, 6)), rng.standard_normal((6, 5))
    probs = optimal_probs_bernoulli(a, b, 3)
    draws = stream(31, "draws") if uniforms is None else ForcedUniforms(uniforms)
    (_, plan), flops = charged(lambda: approx_matmul_bernoulli(a, b, 3, draws, probs=probs))
    assert plan.flops == flops
    assert (flops == 0) == (uniforms is not None)


def test_cr_plan_flops_are_the_charged_flops():
    rng = stream(32, "plan-flops")
    a, b = rng.standard_normal((4, 6)), rng.standard_normal((6, 5))
    probs = optimal_probs_cr(a, b)
    (_, plan), flops = charged(lambda: approx_matmul_cr(a, b, 3, stream(33, "draws"),
                                                        probs=probs))
    assert plan.flops == flops == 2 * 4 * 3 * 5


def test_reusing_one_plan_for_both_directions_is_biased():
    """Documented anti-pattern: sampling the forward product and reusing the
    same realized plan inside the gradient makes the gradient biased.

    For y = sum_i (Z_i/p_i) x_i w_i and loss y^2/2, the shared-plan gradient
    dL/dw_i = y * (Z_i/p_i) x_i has expectation exact + (1-p_i)/p_i * x_i^2 w_i,
    which enumeration confirms; hence only one side of a forward/backward pair
    may be sampled.
    """
    rng = stream(22, "bias")
    x = rng.standard_normal(3)
    w = rng.standard_normal(3)
    probs = np.array([0.5, 0.7, 0.9])
    exact_grad = (x @ w) * x
    mean_grad = np.zeros(3)
    for zs in product((0, 1), repeat=3):
        weight = float(np.prod([p if z else 1 - p for z, p in zip(zs, probs)]))
        y = sum(z / p * xi * wi for z, p, xi, wi in zip(zs, probs, x, w))
        mean_grad += weight * y * (np.array(zs) / probs) * x
    predicted_bias = (1 - probs) / probs * x**2 * w
    np.testing.assert_allclose(mean_grad - exact_grad, predicted_bias, atol=1e-12)
    assert np.abs(mean_grad - exact_grad).max() > 1e-3


def waterfill_reference(a, b, k):
    """Waterfilled keep probabilities, every pass on the free entries w[free]."""
    w = col_norms(a) * row_norms(b)
    probs = np.zeros(w.size)
    free = w > 0
    budget = float(min(k, int(free.sum())))
    while budget > 0 and free.any():
        trial = w * 0.0
        trial[free] = budget * w[free] / w[free].sum()
        clipped = free & (trial >= 1.0)
        if not clipped.any():
            probs[free] = trial[free]
            break
        probs[clipped] = 1.0
        budget -= int(clipped.sum())
        free &= ~clipped
    return probs


def bernoulli_reference(a, b, kept, scales):
    if kept.size:
        return (a[:, kept] * scales) @ b[kept, :]
    return np.zeros((a.shape[0], b.shape[1]))


def waterfill_cases():
    """(a, b, k): every weight positive, with and without clipping; zero-norm
    columns; a zero-norm column whose budget exceeds the positive weights; k = n."""
    rng = stream(17, "waterfill")
    cases = []
    for n, k in ((128, 10), (20, 10), (20, 20), (7, 7), (1, 1), (128, 128)):
        a, b = rng.standard_normal((20, n)), rng.standard_normal((n, 128))
        cases.append((a, b, k))
        skewed = a.copy()
        skewed[:, 0] *= 50.0  # one weight takes most of the mass and clips
        cases.append((skewed, b, k))
        if n > 2:
            dead = a.copy()
            dead[:, ::3] = 0.0  # a ReLU delta's dead nodes
            cases.append((dead, b, k))
    cases.append((np.array([[1.0, 0.0, 2.0]]), np.ones((3, 2)), 3))  # budget > positives
    return cases


class TestOptimalProbsBernoulli:
    @pytest.mark.parametrize("case", range(len(waterfill_cases())))
    def test_bytes_match_the_reference_loop(self, case):
        a, b, k = waterfill_cases()[case]
        assert optimal_probs_bernoulli(a, b, k).tobytes() == waterfill_reference(a, b, k).tobytes()

    def test_full_budget_all_ones(self):
        rng = stream(6, "bern-full")
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 4))
        np.testing.assert_array_equal(optimal_probs_bernoulli(a, b, 5), np.ones(5))

    def test_equal_norms_half(self):
        a = np.eye(6)
        np.testing.assert_allclose(optimal_probs_bernoulli(a, a, 3), np.full(6, 0.5))

    def test_clipping_redistributes(self):
        # norms (10,1,1,1) with budget 2: first index clips to 1 and the
        # leftover budget of 1 waterfills equally over the rest
        a = np.diag([10.0, 1.0, 1.0, 1.0])
        p = optimal_probs_bernoulli(a, np.eye(4), 2)
        np.testing.assert_allclose(p, [1.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)
        assert abs(p.sum() - 2.0) < 1e-12

    def test_clipped_solution_beats_random_feasible(self):
        rng = stream(7, "bern-opt")
        a = np.diag([10.0, 1.0, 1.0, 1.0])
        b = np.eye(4)
        k = 2
        best = bernoulli_error(a, b, optimal_probs_bernoulli(a, b, k))
        for _ in range(1000):
            raw = rng.uniform(0.05, 1.0, 4)
            candidate = np.minimum(raw * (k / raw.sum()), 1.0)
            candidate += (k - candidate.sum()) * (candidate < 1) / max((candidate < 1).sum(), 1)
            candidate = np.clip(candidate, 1e-6, 1.0)
            if abs(candidate.sum() - k) > 1e-9:
                continue
            assert best <= bernoulli_error(a, b, candidate) + 1e-12

    def test_budget_bounds(self):
        with pytest.raises(ParameterError):
            optimal_probs_bernoulli(np.eye(3), np.eye(3), 4)
        with pytest.raises(ParameterError):
            optimal_probs_bernoulli(np.eye(3), np.eye(3), 0)

    def test_zero_norm_indices_get_zero(self):
        a = np.array([[1.0, 0.0, 2.0]])
        b = np.array([[1.0], [5.0], [1.0]])
        p = optimal_probs_bernoulli(a, b, 2)
        assert p[1] == 0.0
        assert abs(p.sum() - 2.0) < 1e-12


class TestApproxBernoulli:
    @pytest.mark.parametrize("case", range(len(waterfill_cases())))
    def test_out_matches_the_returned_product(self, case):
        # into an 8-byte-offset view of a larger buffer, as a gradient view is
        a, b, k = waterfill_cases()[case]
        buffer = np.full(a.shape[0] * b.shape[1] + 1, np.nan)
        out = buffer[1:].reshape(a.shape[0], b.shape[1])
        estimate, plan = approx_matmul_bernoulli(a, b, k, stream(18, "out", case), out=out)
        assert estimate is out
        scales = 1.0 / optimal_probs_bernoulli(a, b, k)[plan.indices]
        want = bernoulli_reference(a, b, plan.indices, scales)
        assert out.tobytes() == want.tobytes()
        fresh, _ = approx_matmul_bernoulli(a, b, k, stream(18, "out", case))
        assert fresh.tobytes() == want.tobytes()

    def test_nothing_kept_writes_zeros_into_out(self):
        a, b = np.ones((2, 3)), np.ones((3, 4))
        out = np.full((2, 4), np.nan)
        estimate, plan = approx_matmul_bernoulli(a, b, 1, ForcedUniforms([1.0] * 3), out=out)
        assert plan.indices.size == 0
        assert estimate is out and out.tobytes() == np.zeros((2, 4)).tobytes()

    def test_full_budget_exact(self):
        rng = stream(8, "bern-exact")
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((6, 3))
        est, plan = approx_matmul_bernoulli(a, b, 6, stream(9, "draws"))
        np.testing.assert_allclose(est, a @ b, atol=1e-12)
        assert plan.indices.tolist() == list(range(6))

    def test_unbiased_by_enumeration(self):
        rng = stream(10, "bern-enum")
        for trial in range(10):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            mean, _ = enumerate_bernoulli(a, b, k=2)
            np.testing.assert_allclose(mean, a @ b, atol=1e-12)

    def test_variance_formula_matches_enumeration(self):
        rng = stream(11, "bern-var")
        for n in (2, 3, 4):
            a = rng.standard_normal((3, n))
            b = rng.standard_normal((n, 2))
            k = max(1, n - 1)
            probs = optimal_probs_bernoulli(a, b, k)
            _, enumerated = enumerate_bernoulli(a, b, k, probs=probs)
            assert abs(enumerated - bernoulli_error(a, b, probs)) <= 1e-12 * max(enumerated, 1.0)

    def test_variance_formula_matches_simulation(self):
        # independent vectorized simulation, 1e5 trials, within 5%
        rng = stream(12, "bern-sim")
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        probs = optimal_probs_bernoulli(a, b, 2)
        outers = np.einsum("mi,ip->imp", a, b)
        trials = 100_000
        z = rng.random((trials, 3)) < probs
        est = np.einsum("ti,imp->tmp", z / probs, outers)
        sq_err = ((est - a @ b) ** 2).sum(axis=(1, 2)).mean()
        assert abs(sq_err - bernoulli_error(a, b, probs)) <= 0.05 * sq_err

    def test_expected_sample_count(self):
        rng = stream(13, "bern-count")
        a = rng.standard_normal((8, 32))
        b = rng.standard_normal((32, 8))
        draw_rng = stream(14, "bern-count-draws")
        sizes = [approx_matmul_bernoulli(a, b, 6, draw_rng)[1].indices.size
                 for _ in range(2000)]
        assert abs(np.mean(sizes) - 6.0) < 0.2

    def test_flop_ratio_approaches_budget_fraction(self):
        n, k = 512, 10
        rng = stream(15, "bern-flops")
        a = rng.standard_normal((16, n))
        b = rng.standard_normal((n, 16))
        probs = optimal_probs_bernoulli(a, b, k)
        exact_flops = 2 * 16 * n * 16
        draw_rng = stream(16, "bern-flop-draws")
        ratios = []
        for _ in range(50):
            with FLOPS.phase("product"):
                approx_matmul_bernoulli(a, b, k, draw_rng, probs=probs)
            ratios.append(FLOPS.take()[0]["product"] / exact_flops)
        assert 0.8 * k / n <= np.mean(ratios) <= 1.3 * k / n
