"""Asymmetric LSH index for maximum inner-product search over weight columns.

Data vectors are scaled into the unit ball and padded with powers of their
norm; queries are unit-normalized and padded with constant 1/2. After that
transform, nearest-neighbor search under sign-projection hashing approximates
maximum inner-product search, so the columns sharing a query's bucket are
those with the largest activations. The index holds each column's K-bit
bucket id in each of L tables; a query returns the columns matching its own
id in at least one table. A vector agreeing with the query on one random
hyperplane with probability p shares a bucket in at least one table with
probability 1 - (1 - p^K)^L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NormBoundError, ParameterError
from .linalg import FLOPS, as_matrix, as_vector, stream


@dataclass(frozen=True)
class AlshParams:
    bits: int = 6  # hash bits per table
    tables: int = 5
    pad_terms: int = 3
    norm_bound: float = 0.83

    def __post_init__(self):
        if self.bits < 1 or self.tables < 1 or self.pad_terms < 1:
            raise ParameterError("bits, tables, and pad_terms must be at least 1")
        if self.bits > 64:  # bucket ids are int64 bit patterns
            raise ParameterError(f"bits must be at most 64, got {self.bits}")
        if not 0.0 < self.norm_bound < 1.0:
            raise ParameterError("norm_bound must lie strictly between 0 and 1")


@dataclass
class AlshIndex:
    params: AlshParams
    dim: int  # original column length
    scale: float  # columns are divided by this before padding
    projections: np.ndarray  # (tables, bits, dim + pad_terms)
    signatures: np.ndarray  # (n_columns, tables): each column's bucket id per table


def transform_data(w, pad_terms, scale=1.0) -> np.ndarray:
    """Scale stored vectors (a vector or a matrix of rows) into the unit ball
    and pad each with norm powers.

    Appends ||w'||^(2^i) for i = 1..pad_terms where w' = w / scale. The
    scaled norm must not exceed 1, otherwise the padded tail diverges and
    the search equivalence breaks.
    """
    w = np.asarray(w, dtype=np.float64)
    # a vector goes through as a one-row matrix: numpy's power rounds a
    # broadcast base and a contiguous one apart, and the index broadcasts
    out, norms = _copy_with_norms(_matrix(w[None] if w.ndim == 1 else w), pad_terms)
    _scale_and_pad(out, norms / scale, pad_terms, scale)
    return out[0] if w.ndim == 1 else out


def _matrix(x) -> np.ndarray:
    """x as a float64 2-D array, without a copy when it is one already (a
    W.T view stays a view)."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got ndim={m.ndim}")
    return m


_NORM_BLOCK = 1 << 14  # elements squared at a time for the row norms


def _copy_with_norms(rows, pad_terms):
    """An (n, dim + pad_terms) buffer whose leading columns hold a copy of
    rows, and the rows' norms (one column). Squaring whole rows of the
    buffer a block at a time (its tail is zeroed for that) and summing each
    block's leading columns is np.linalg.norm's pairwise reduction, without
    a temporary the size of the rows."""
    n, dim = rows.shape
    out = np.empty((n, dim + pad_terms))
    out[:, dim:] = 0.0
    as_matrix(rows, out=out[:, :dim])
    norms = np.empty((n, 1))
    step = max(1, _NORM_BLOCK // out.shape[1])
    for i in range(0, n, step):
        block = out[i : i + step]
        np.add.reduce((block * block)[:, :dim], axis=1, keepdims=True, out=norms[i : i + step])
    return out, np.sqrt(norms, out=norms)


def _scale_and_pad(out, norms, pad_terms, scale):
    """Divide out by scale in place, then write powers of the scaled norms
    (one column) into its last pad_terms columns."""
    if norms.max(initial=0.0) > 1.0 + 1e-12:  # initial: a matrix may have no rows
        raise NormBoundError(f"scaled norm {norms.max():.6f} exceeds 1")
    out /= scale  # all of it: numpy would divide the strided leading columns through a copy
    out[:, out.shape[1] - pad_terms :] = norms ** (2.0 ** np.arange(1, pad_terms + 1))


def transform_query(a, pad_terms) -> np.ndarray:
    """Unit-normalize a query and pad with 1/2 terms.

    A zero query cannot be normalized; it is padded as-is, which still yields
    a well-defined (if arbitrary) bucket. ReLU layers do emit all-zero
    activation vectors, so this case is reachable in training.
    """
    a = as_vector(a)
    norm = float(np.linalg.norm(a))
    if norm > 0.0:
        a = a / norm
    return np.concatenate([a, np.full(pad_terms, 0.5)])


def _signatures(vectors: np.ndarray, projections: np.ndarray) -> np.ndarray:
    """Bucket id per (vector, table): the K-bit sign pattern of the projections."""
    tables, bits, dim = projections.shape
    flat = projections.reshape(tables * bits, dim)
    FLOPS.add(2 * vectors.shape[0] * dim * tables * bits)
    signs = vectors @ flat.T >= 0.0
    signs = signs.reshape(vectors.shape[0], tables, bits)
    weights = 1 << np.arange(bits)
    return signs @ weights  # (n_vectors, tables)


def build_index(columns, params: AlshParams, seed: int) -> AlshIndex:
    """Hash every column (rows of `columns`) into all tables.

    The shared scale is max column norm / norm_bound, so the largest column
    lands exactly on the bound and everything fits in the unit ball.
    """
    cols = _matrix(columns)
    if cols.shape[0] == 0:
        raise ParameterError("need at least one column")
    rng = stream(seed, "alsh-proj")
    projections = rng.standard_normal(
        (params.tables, params.bits, cols.shape[1] + params.pad_terms))
    return _fill_tables(cols, params, projections)


def rebuild_index(index: AlshIndex, columns) -> AlshIndex:
    """Re-bucket updated columns under the index's existing projections."""
    cols = _matrix(columns)
    if cols.shape[1] != index.dim:
        raise DimensionError(f"column length {cols.shape[1]} != indexed {index.dim}")
    return _fill_tables(cols, index.params, index.projections)


def _fill_tables(cols, params, projections):
    """Transform the columns in one padded buffer, then hash them."""
    out, norms = _copy_with_norms(cols, params.pad_terms)
    FLOPS.add(2 * cols.size)
    max_norm = float(norms.max())
    scale = max_norm / params.norm_bound if max_norm > 0 else 1.0
    _scale_and_pad(out, norms / scale, params.pad_terms, scale)
    return AlshIndex(params, cols.shape[1], scale, projections, _signatures(out, projections))


def query_active(index: AlshIndex, a) -> np.ndarray:
    """Sorted ids of the columns sharing the query's bucket in any table."""
    a = as_vector(a)
    if a.shape[0] != index.dim:
        raise DimensionError(f"query length {a.shape[0]} != indexed {index.dim}")
    q = transform_query(a, index.params.pad_terms)
    ids = _signatures(q[None, :], index.projections)
    return np.flatnonzero((index.signatures == ids).any(axis=1))


def collision_probability(p: float, bits: int, tables: int) -> float:
    """Chance of sharing at least one bucket given per-hyperplane agreement p."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must be in [0,1], got {p}")
    return 1.0 - (1.0 - p**bits) ** tables


def rebuild_schedule(samples_seen: int) -> bool:
    """Rebuild every 100 samples for the first 10000, every 1000 after that."""
    if samples_seen < 0:
        raise ParameterError("samples_seen must be non-negative")
    if samples_seen == 0:
        return False
    if samples_seen <= 10000:
        return samples_seen % 100 == 0
    return samples_seen % 1000 == 0
