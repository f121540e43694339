import numpy as np
import pytest

from subsample_nn.alsh import (AlshParams, _signatures, build_index,
                               collision_probability, query_active, rebuild_index,
                               rebuild_schedule, transform_data, transform_query)
from subsample_nn.errors import DimensionError, NormBoundError, ParameterError
from subsample_nn.linalg import stream


def angle(u, v):
    cos = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return np.arccos(np.clip(cos, -1.0, 1.0))


def bucket_sizes(idx, table):
    """Column count of every bucket of one table."""
    return np.bincount(idx.signatures[:, table], minlength=1 << idx.params.bits)


class TestTransforms:
    def test_zero_vector(self):
        out = transform_data(np.zeros(4), pad_terms=3)
        np.testing.assert_array_equal(out, np.zeros(7))

    def test_norm_power_padding(self):
        out = transform_data(np.array([0.6, 0.0]), pad_terms=2)
        np.testing.assert_allclose(out, [0.6, 0.0, 0.36, 0.1296], atol=1e-15)

    def test_padded_norm_identity(self):
        rng = stream(0, "pnorm")
        for _ in range(20):
            w = rng.standard_normal(6)
            w = w / np.linalg.norm(w) * rng.uniform(0.05, 0.95)
            m = int(rng.integers(1, 5))
            padded = transform_data(w, m)
            norm = np.linalg.norm(w)
            expected = norm**2 + sum(norm ** (2.0 ** (i + 1)) for i in range(1, m + 1))
            assert abs(np.dot(padded, padded) - expected) <= 1e-12

    def test_norm_bound_enforced(self):
        with pytest.raises(NormBoundError):
            transform_data(np.array([2.0, 0.0]), pad_terms=3, scale=1.0)

    def test_query_padding(self):
        np.testing.assert_allclose(transform_query(np.array([1.0, 0.0]), 3),
                                   [1.0, 0.0, 0.5, 0.5, 0.5])

    def test_query_norm(self):
        rng = stream(1, "qnorm")
        for m in (1, 2, 3, 5):
            q = transform_query(rng.standard_normal(8), m)
            assert abs(np.dot(q, q) - (1.0 + m / 4.0)) <= 1e-12

    def test_zero_query_padded_raw(self):
        q = transform_query(np.zeros(3), 2)
        np.testing.assert_array_equal(q, [0.0, 0.0, 0.0, 0.5, 0.5])

    def test_distance_identity(self):
        # ||Q(a)-P(w)||^2 = 1 + m/4 + ||w'||^(2^(m+1)) - 2 <a/||a||, w'>
        rng = stream(2, "dist")
        m = 3
        for _ in range(1000):
            a = rng.standard_normal(10)
            w = rng.standard_normal(10)
            w = w / np.linalg.norm(w) * rng.uniform(0.01, 0.83)
            q, p = transform_query(a, m), transform_data(w, m)
            lhs = float(((q - p) ** 2).sum())
            wnorm = np.linalg.norm(w)
            rhs = 1.0 + m / 4.0 + wnorm ** (2.0 ** (m + 1)) \
                - 2.0 * np.dot(a / np.linalg.norm(a), w)
            assert abs(lhs - rhs) <= 1e-12


class TestMatrixTransform:
    @pytest.mark.parametrize("shape, transposed", [
        pytest.param((1, 3), False, id="shape0"),
        pytest.param((64, 32), False, id="shape1"),
        pytest.param((128, 784), False, id="shape2"),
        # a 784 -> 128 layer's weights as AlshPolicy passes them: the W.T view
        pytest.param((784, 128), True, id="weights-T")])
    def test_index_signatures_come_from_transform_data(self, shape, transposed):
        cols = stream(shape[0], "cols").standard_normal(shape)
        cols = cols.T if transposed else cols
        params = AlshParams()
        idx = build_index(cols, params, seed=4)
        expected = _signatures(transform_data(cols, params.pad_terms, idx.scale),
                               idx.projections)
        np.testing.assert_array_equal(idx.signatures, expected)
        # the reference: a contiguous copy, its norms, the scaled copy and the
        # pads concatenated, each a new array
        copy = np.ascontiguousarray(cols)
        norms = np.linalg.norm(copy, axis=1, keepdims=True)
        scale = float(norms.max()) / params.norm_bound
        pads = (norms / scale) ** (2.0 ** np.arange(1, params.pad_terms + 1))
        reference = np.concatenate([copy / scale, pads], axis=-1)
        assert idx.scale == scale
        assert idx.signatures.tobytes() == _signatures(reference, idx.projections).tobytes()

    def test_matrix_rows_match_vector_transform(self):
        rng = stream(11, "rows")
        for _ in range(20):
            m = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 40))))
            scale = float(np.linalg.norm(m, axis=1).max()) / float(rng.uniform(0.1, 1.0))
            pad_terms = int(rng.integers(1, 5))
            out = transform_data(m, pad_terms, scale)
            for i in range(m.shape[0]):
                assert out[i].tobytes() == transform_data(m[i], pad_terms, scale).tobytes()

    def test_one_row_over_the_bound_raises(self):
        m = np.array([[0.1, 0.2], [0.3, 0.0], [0.0, 1.5]])
        with pytest.raises(NormBoundError):
            transform_data(m, pad_terms=3)

    def test_three_dimensional_input_raises(self):
        with pytest.raises(DimensionError):
            transform_data(np.zeros((2, 2, 2)), pad_terms=3)


class TestIndex:
    def test_single_column_one_bucket_per_table(self):
        idx = build_index(np.array([[1.0, 2.0, 3.0]]), AlshParams(), seed=0)
        for table in range(idx.params.tables):
            sizes = bucket_sizes(idx, table)
            assert sizes.size == 1 << idx.params.bits
            assert sizes.sum() == 1
            assert sizes.max() == 1

    def test_duplicate_columns_share_buckets(self):
        col = stream(3, "dup").standard_normal(8)
        idx = build_index(np.stack([col, col]), AlshParams(), seed=1)
        np.testing.assert_array_equal(idx.signatures[0], idx.signatures[1])

    def test_occupancy_sums_to_column_count(self):
        cols = stream(4, "occ").standard_normal((100, 16))
        idx = build_index(cols, AlshParams(), seed=2)
        for table in range(idx.params.tables):
            sizes = bucket_sizes(idx, table)
            assert sizes.size == 1 << idx.params.bits
            assert sizes.sum() == 100

    def test_scale_puts_largest_column_on_bound(self):
        cols = stream(5, "scale").standard_normal((10, 6))
        params = AlshParams(norm_bound=0.83)
        idx = build_index(cols, params, seed=3)
        max_norm = np.linalg.norm(cols, axis=1).max()
        assert abs(max_norm / idx.scale - 0.83) <= 1e-12

    def test_active_set_within_columns(self):
        cols = stream(6, "subset").standard_normal((20, 8))
        idx = build_index(cols, AlshParams(), seed=4)
        active = query_active(idx, stream(7, "q").standard_normal(8))
        assert (active >= 0).all() and (active < 20).all()
        assert len(np.unique(active)) == len(active)

    def test_more_tables_never_shrink_active_set(self):
        # same seed gives a shared projection prefix, so tables are additive
        cols = stream(8, "mono").standard_normal((40, 12))
        query = stream(9, "mono-q").standard_normal(12)
        previous = set()
        for tables in (1, 2, 4, 8):
            idx = build_index(cols, AlshParams(tables=tables), seed=5)
            active = set(query_active(idx, query).tolist())
            assert previous <= active
            previous = active

    def test_self_direction_collision_rate(self):
        # hit rate of a column queried by its own direction must match the
        # closed-form 1-(1-p1^K)^L with p1 = 1 - angle/pi in transformed space
        cols = stream(10, "self").standard_normal((4, 8)) * 0.3
        params = AlshParams(bits=2, tables=3)
        target = 2
        trials = 10_000
        hits = 0
        idx0 = build_index(cols, params, seed=0)
        p_query = transform_query(cols[target], params.pad_terms)
        scaled = transform_data(cols[target], params.pad_terms, idx0.scale)
        p1 = 1.0 - angle(p_query, scaled) / np.pi
        analytic = collision_probability(p1, params.bits, params.tables)
        for t in range(trials):
            idx = build_index(cols, params, seed=100 + t)
            if target in query_active(idx, cols[target]):
                hits += 1
        sigma = np.sqrt(analytic * (1 - analytic) / trials)
        assert hits / trials >= analytic - 3 * sigma

    def test_rebuild_matches_fresh_fill(self):
        rng = stream(11, "rebuild")
        cols = rng.standard_normal((30, 10))
        idx = build_index(cols, AlshParams(), seed=6)
        updated = cols + 0.5 * rng.standard_normal(cols.shape)
        rebuilt = rebuild_index(idx, updated)
        assert (not np.array_equal(rebuilt.signatures, idx.signatures)
                or np.array_equal(cols, updated))
        # identical projections imply identical buckets for identical data
        again = rebuild_index(idx, updated)
        np.testing.assert_array_equal(rebuilt.signatures, again.signatures)
        q = updated[7]
        np.testing.assert_array_equal(query_active(rebuilt, q), query_active(again, q))

    def test_rebuild_without_change_is_identity(self):
        cols = stream(12, "stable").standard_normal((15, 6))
        idx = build_index(cols, AlshParams(), seed=7)
        rebuilt = rebuild_index(idx, cols)
        np.testing.assert_array_equal(rebuilt.signatures, idx.signatures)

    @pytest.mark.parametrize("n_columns,dim,bits,tables", [
        (1, 3, 6, 5), (20, 8, 6, 5), (64, 32, 2, 3), (128, 16, 6, 5), (50, 10, 1, 8),
    ])
    def test_query_matches_bucket_union(self, n_columns, dim, bits, tables):
        # reference: a loop over the columns, keeping those that share the
        # query's bucket id in at least one table
        params = AlshParams(bits=bits, tables=tables)
        rng = stream(13, "union", n_columns)
        idx = build_index(rng.standard_normal((n_columns, dim)), params, seed=n_columns)
        queries = [rng.standard_normal(dim) for _ in range(20)] + [np.zeros(dim)]
        for query in queries:
            q = transform_query(query, params.pad_terms)
            query_ids = _signatures(q[None, :], idx.projections)[0]
            expected = [col for col, row in enumerate(idx.signatures)
                        if any(row[t] == query_ids[t] for t in range(tables))]
            active = query_active(idx, query)
            assert active.tolist() == expected
            assert len(active) == len(expected)


class TestMipsRecall:
    def test_top1_recall_meets_collision_bound(self):
        # 50 random instances; aggregate hits against the summed analytic bound
        params = AlshParams()
        trials_per_instance = 100
        total_hits = 0
        expected = 0.0
        variance = 0.0
        for inst in range(50):
            rng = stream(200 + inst, "mips")
            cols = rng.standard_normal((64, 32))
            query = rng.standard_normal(32)
            top1 = int(np.argmax(cols @ query))
            probe = build_index(cols, params, seed=0)
            p_query = transform_query(query, params.pad_terms)
            p_data = transform_data(cols[top1], params.pad_terms, probe.scale)
            p1 = 1.0 - angle(p_query, p_data) / np.pi
            p_hit = collision_probability(p1, params.bits, params.tables)
            expected += trials_per_instance * p_hit
            variance += trials_per_instance * p_hit * (1 - p_hit)
            for t in range(trials_per_instance):
                idx = build_index(cols, params, seed=5000 + inst * 1000 + t)
                if top1 in query_active(idx, query):
                    total_hits += 1
        assert total_hits >= expected - 3 * np.sqrt(variance)


class TestCollisionProbability:
    def test_endpoints(self):
        assert collision_probability(1.0, 6, 5) == 1.0
        assert collision_probability(0.0, 6, 5) == 0.0

    def test_arithmetic(self):
        # 1 - (1 - 0.9^6)^5 with 0.9^6 = 0.531441
        expected = 1.0 - (1.0 - 0.9**6) ** 5
        assert abs(collision_probability(0.9, 6, 5) - expected) <= 1e-15
        assert abs(expected - 0.9774149) <= 1e-6

    def test_invalid_p(self):
        with pytest.raises(ParameterError):
            collision_probability(1.5, 6, 5)


class TestRebuildSchedule:
    @pytest.mark.parametrize("seen,expected", [
        (0, False), (50, False), (100, True), (150, False), (200, True),
        (10000, True), (10500, False), (11000, True), (10100, False),
        (12000, True),
    ])
    def test_cadence(self, seen, expected):
        assert rebuild_schedule(seen) is expected

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            rebuild_schedule(-1)


def test_params_validation():
    with pytest.raises(ParameterError):
        AlshParams(bits=0)
    for bits in (65, 70):  # int64 bucket ids would drop every bit past 64
        with pytest.raises(ParameterError, match="at most 64"):
            AlshParams(bits=bits)
    assert AlshParams(bits=64).bits == 64
    with pytest.raises(ParameterError):
        AlshParams(norm_bound=1.0)
