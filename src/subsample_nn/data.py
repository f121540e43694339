"""Dataset ingestion (IDX files), splitting, and synthetic generators.

The only binary ingestion format is IDX as published for MNIST-family sets:
big-endian, images magic 0x00000803 followed by (count, rows, cols) and raw
unsigned bytes; labels magic 0x00000801 followed by count and label bytes.
Pixel bytes are scaled by 1/255 so features always live in [0, 1].
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError, _read_block
from .linalg import stream

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Feature matrix in [0,1] with integer class labels."""

    features: np.ndarray  # (n_samples, n_features) float64
    labels: np.ndarray  # (n_samples,) int64
    n_classes: int

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ParameterError("features must be 2-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ParameterError("features/labels length mismatch")
        if self.labels.size and int(self.labels.max()) >= self.n_classes:
            raise ParameterError("label id out of range")
        if self.labels.size and int(self.labels.min()) < 0:
            raise ParameterError("negative label id")

    def __len__(self):
        return self.features.shape[0]


@dataclass(frozen=True)
class Split:
    train: Dataset
    validation: Dataset
    test: Dataset


def _read_idx(path, magic, n_dims):
    """The n_dims header counts of one IDX file and its prod(counts) bytes, after
    its magic; FormatError if the magic differs or the file is short or long."""
    with open(path, "rb") as f:
        found = int(_read_block(f, path, ">u4", 1, "magic")[0])
        if found != magic:
            raise FormatError(f"{path}: bad magic 0x{found:08x} at byte 0")
        counts = _read_block(f, path, ">u4", n_dims, "header").tolist()
        data = _read_block(f, path, np.uint8, math.prod(counts), "data")
        if f.read(1):
            raise FormatError(f"{path}: bytes after the declared data, at byte {f.tell() - 1}")
        return counts, data


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair into a Dataset."""
    (count, rows, cols), pixels = _read_idx(images_path, IMAGES_MAGIC, 3)
    (label_count,), labels = _read_idx(labels_path, LABELS_MAGIC, 1)
    if label_count != count:
        raise FormatError(f"{labels_path}: label count {label_count} at byte 4 does not "
                          f"match image count {count}")

    features = pixels.astype(np.float64).reshape(count, rows * cols)
    features /= 255.0  # in place: the same division, without a second copy
    n_classes = int(labels.max()) + 1 if count else 0
    return Dataset(features, labels.astype(np.int64), n_classes)


def write_idx(ds: Dataset, images_path, labels_path, rows=28, cols=28):
    """Write a Dataset back to an IDX pair (features are quantized to bytes)."""
    if ds.features.shape[1] != rows * cols:
        raise ParameterError(f"features have {ds.features.shape[1]} columns, expected {rows * cols}")
    if (ds.labels > 255).any():
        raise ParameterError(f"label {ds.labels.max()} does not fit an IDX label byte (0..255)")
    pixels = np.clip(np.rint(ds.features * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGES_MAGIC, len(ds), rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", LABELS_MAGIC, len(ds)))
        f.write(ds.labels.astype(np.uint8).tobytes())


def split(ds: Dataset, train_n: int, test_n: int, val_n: int, seed: int) -> Split:
    """Deterministic shuffle by seed, then partition into train/test/validation.

    The caller gives up ds. When the sizes add up to len(ds), ds's rows are
    permuted in place and the parts are views of its arrays. Otherwise the
    used rows are gathered into one new buffer, of which the parts are views,
    and ds's arrays are left as they were.
    """
    total = train_n + test_n + val_n
    if min(train_n, test_n, val_n) < 0:
        raise ParameterError("split sizes must be non-negative")
    if total > len(ds):
        raise ParameterError(f"requested {total} samples but dataset has {len(ds)}")
    order = stream(seed, "split").permutation(len(ds))
    if total < len(ds):
        features, labels = ds.features[order[:total]], ds.labels[order[:total]]
    else:
        features, labels = ds.features, ds.labels
        _permute_rows(features, order)
        labels[:] = labels[order]

    def part(lo, hi):
        return Dataset(features[lo:hi], labels[lo:hi], ds.n_classes)

    return Split(part(0, train_n), part(train_n + test_n, total), part(train_n, train_n + test_n))


def _permute_rows(rows: np.ndarray, order: np.ndarray):
    """rows[i] = rows[order[i]] for every i, in place: each cycle of the
    permutation is walked with one row buffer."""
    order = order.tolist()
    done = bytearray(len(order))
    for start in range(len(order)):
        if done[start]:
            continue
        held = rows[start].copy()
        i = start
        while order[i] != start:
            rows[i] = rows[order[i]]
            done[i] = 1
            i = order[i]
        rows[i] = held
        done[i] = 1


def synth_blobs(n_samples, n_features, n_classes, separation, seed) -> Dataset:
    """Gaussian class clusters with means `separation` apart, scaled into [0,1]."""
    if min(n_samples, n_features, n_classes) < 1:
        raise ParameterError("counts must be positive")
    if not separation > 0:
        raise ParameterError("separation must be positive")
    rng = stream(seed, "blobs")
    means = np.zeros((n_classes, n_features))
    for c in range(n_classes):
        axis = c % n_features
        means[c, axis] = separation * (1 + c // n_features)
    labels = rng.integers(0, n_classes, size=n_samples)
    features = means[labels] + rng.standard_normal((n_samples, n_features))
    # Affine min-max rescale keeps cluster geometry while restoring the [0,1] range.
    lo, hi = features.min(), features.max()
    if hi > lo:
        features = (features - lo) / (hi - lo)
    else:
        features = np.zeros_like(features)
    return Dataset(features, labels.astype(np.int64), n_classes)


# ---------------------------------------------------------------------------
# Synthetic digits: a deterministic desk-scale stand-in for handwritten-digit
# IDX data. Each class is a seven-segment-style glyph with per-sample jitter
# (translation, stroke intensity, pixel noise) so a small MLP can
# learn it well but not trivially.
# ---------------------------------------------------------------------------

_DIGITS_CHUNK = 64  # rows composed at once: about 0.4 MB per temporary
_DIGITS_MAX_SHIFT = 3  # a glyph moves at most this many pixels along each axis

# segments: top, top-left, top-right, middle, bottom-left, bottom-right, bottom
_SEGMENTS = {
    0: (1, 1, 1, 0, 1, 1, 1),
    1: (0, 0, 1, 0, 0, 1, 0),
    2: (1, 0, 1, 1, 1, 0, 1),
    3: (1, 0, 1, 1, 0, 1, 1),
    4: (0, 1, 1, 1, 0, 1, 0),
    5: (1, 1, 0, 1, 0, 1, 1),
    6: (1, 1, 0, 1, 1, 1, 1),
    7: (1, 0, 1, 0, 0, 1, 0),
    8: (1, 1, 1, 1, 1, 1, 1),
    9: (1, 1, 1, 1, 0, 1, 1),
}


# (rows, cols) box of each segment, in _SEGMENTS order; strokes are 3 pixels wide
_SEGMENT_BOXES = (
    (slice(4, 7), slice(8, 20)),
    (slice(4, 15), slice(8, 11)),
    (slice(4, 15), slice(17, 20)),
    (slice(12, 15), slice(8, 20)),
    (slice(12, 23), slice(8, 11)),
    (slice(12, 23), slice(17, 20)),
    (slice(20, 23), slice(8, 20)),
)


def _glyph(digit):
    """Rasterize one 28x28 glyph centered with margin for shifts."""
    img = np.zeros((28, 28))
    for lit, box in zip(_SEGMENTS[digit], _SEGMENT_BOXES):
        if lit:  # boxes overlap, so unlit ones are never written
            img[box] = 1.0
    return img


def synth_digits(n_samples, seed, noise=0.12) -> Dataset:
    """Deterministic 10-class 28x28 digit-like dataset in IDX-compatible layout.

    Each sample draws, in order, a stroke scale, a (dx, dy) shift and 784
    normals. The draws stay per sample; the images are composed afterwards,
    _DIGITS_CHUNK rows at a time, with the rounding of
    clip(roll(glyph * scale) + normals * noise, 0, 1).
    """
    if n_samples < 1:
        raise ParameterError("n_samples must be positive")
    if not noise >= 0:
        raise ParameterError(f"noise must be >= 0, got {noise}")
    rng = stream(seed, "digits")
    glyphs = np.stack([_glyph(d) for d in range(10)]).ravel()
    labels = rng.integers(0, 10, size=n_samples)
    out = np.empty((n_samples, 28 * 28))
    scales = np.empty(n_samples)
    shifts = np.empty((n_samples, 2), dtype=np.int64)  # (dx, dy)
    for i in range(n_samples):
        scales[i] = rng.uniform(0.6, 1.0)
        shifts[i] = rng.integers(-_DIGITS_MAX_SHIFT, _DIGITS_MAX_SHIFT + 1, size=2)
        rng.standard_normal(out=out[i])
    # np.roll only permutes: pixel (r, c) of the rolled glyph is pixel
    # ((r - dy) % 28, (c - dx) % 28) of the glyph.
    grid = np.arange(28)
    for lo in range(0, n_samples, _DIGITS_CHUNK):
        hi = min(lo + _DIGITS_CHUNK, n_samples)
        dx, dy = shifts[lo:hi, 0, None, None], shifts[lo:hi, 1, None, None]
        pixel = (labels[lo:hi, None, None] * 784 + (grid[:, None] - dy) % 28 * 28
                 + (grid - dx) % 28)
        img = glyphs[pixel.reshape(hi - lo, 784)]
        img *= scales[lo:hi, None]
        block = out[lo:hi]
        block *= noise
        block += img
        np.clip(block, 0.0, 1.0, out=block)
    return Dataset(out, labels.astype(np.int64), 10)
