import hashlib
import re
import struct
from itertools import product

import numpy as np
import pytest

from subsample_nn import data
from subsample_nn.data import (Dataset, load_idx, split, synth_blobs,
                               synth_digits, write_idx)
from subsample_nn.errors import FormatError, ParameterError
from subsample_nn.linalg import stream


def write_fixture_idx(tmp_path, images, labels):
    """Independent IDX writer: struct-packed byte by byte, no package code."""
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">I", 0x00000803))
        f.write(struct.pack(">I", n))
        f.write(struct.pack(">I", rows))
        f.write(struct.pack(">I", cols))
        for img in images:
            for row in img:
                f.write(bytes(int(v) for v in row))
    with open(lab_path, "wb") as f:
        f.write(struct.pack(">I", 0x00000801))
        f.write(struct.pack(">I", len(labels)))
        f.write(bytes(int(v) for v in labels))
    return img_path, lab_path


@pytest.fixture
def small_idx(tmp_path):
    images = np.zeros((4, 28, 28), dtype=np.uint8)
    images[1, 0, 0] = 255
    images[2, 13, 7] = 128
    images[3] = 7
    labels = [0, 3, 1, 9]
    return write_fixture_idx(tmp_path, images, labels)


class TestLoadIdx:
    def test_fixture_roundtrip(self, small_idx):
        ds = load_idx(*small_idx)
        assert ds.features.shape == (4, 784)
        assert ds.labels.tolist() == [0, 3, 1, 9]
        assert ds.n_classes == 10

    def test_zero_image_is_zero_row(self, small_idx):
        ds = load_idx(*small_idx)
        assert not ds.features[0].any()

    def test_pixel_255_scales_to_one(self, small_idx):
        ds = load_idx(*small_idx)
        assert ds.features[1, 0] == 1.0

    def test_feature_range(self, small_idx):
        ds = load_idx(*small_idx)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_bad_magic(self, tmp_path, small_idx):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"\x00\x00\x08\x99" + b"\x00" * 100)
        with pytest.raises(FormatError, match="magic"):
            load_idx(bad, small_idx[1])

    def test_truncated_file(self, tmp_path):
        trunc = tmp_path / "trunc.idx"
        trunc.write_bytes(struct.pack(">IIII", 0x00000803, 10, 28, 28) + b"\x00" * 50)
        with pytest.raises(FormatError, match="byte"):
            load_idx(trunc, trunc)

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_bytes_after_the_declared_data(self, small_idx, which):
        # 4 images of 28x28 end at byte 16 + 3136; 4 labels at byte 8 + 4
        images, labels = small_idx
        path, end = (images, 3152) if which == "images" else (labels, 12)
        path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(FormatError, match=re.escape(f"{path}: bytes after the declared "
                                                        f"data, at byte {end}")):
            load_idx(images, labels)

    def test_header_declaring_more_than_the_file_holds(self, small_idx):
        # 2**31 images of 28x28 would be 1.7 TB; the file holds 4 images, so
        # the reader refuses before it allocates
        images, labels = small_idx
        raw = bytearray(images.read_bytes())
        raw[4:8] = struct.pack(">I", 2**31)
        images.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=r"truncated data at byte 16 "
                                              r"\(wants 1683627180032 bytes, 3136 left\)"):
            load_idx(images, labels)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((3, 4, 4), dtype=np.uint8)
        img_path, _ = write_fixture_idx(tmp_path, images, [0, 1, 2])
        lab_path = tmp_path / "short.idx"
        lab_path.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x00\x01")
        with pytest.raises(FormatError, match="count"):
            load_idx(img_path, lab_path)

    def test_scaling_matches_division_bytewise(self, tmp_path):
        pixels = stream(4, "idx-pixels").integers(0, 256, size=(50, 28, 28)).astype(np.uint8)
        ds = load_idx(*write_fixture_idx(tmp_path, pixels, [0] * 50))
        expected = pixels.reshape(50, 784).astype(np.float64) / 255.0
        assert ds.features.tobytes() == expected.tobytes()

    def test_write_then_load_identity(self, tmp_path):
        ds = synth_digits(30, seed=5)
        img, lab = tmp_path / "w.idx", tmp_path / "wl.idx"
        write_idx(ds, img, lab)
        back = load_idx(img, lab)
        # quantization to bytes then /255 must be exactly reproduced
        np.testing.assert_array_equal(
            back.features, np.rint(ds.features * 255) / 255.0)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_write_refuses_label_above_a_byte(self, tmp_path):
        # a uint8 cast would wrap 256 to 0 and 299 to 43
        ds = Dataset(np.zeros((3, 784)), np.array([0, 256, 299]), 300)
        img, lab = tmp_path / "w.idx", tmp_path / "wl.idx"
        with pytest.raises(ParameterError, match="256|299"):
            write_idx(ds, img, lab)
        assert not img.exists() and not lab.exists()


class TestSplit:
    def make_ds(self, n=100):
        rng = np.random.default_rng(0)
        return Dataset(rng.random((n, 5)), rng.integers(0, 4, n), 4)

    def test_exact_partition(self):
        sp = split(self.make_ds(100), 60, 25, 15, seed=0)
        assert len(sp.train) == 60 and len(sp.test) == 25 and len(sp.validation) == 15

    def test_same_seed_identical(self):
        # split gives up its argument, so each split gets a fresh set
        a = split(self.make_ds(), 50, 30, 20, seed=7)
        b = split(self.make_ds(), 50, 30, 20, seed=7)
        np.testing.assert_array_equal(a.train.features, b.train.features)
        np.testing.assert_array_equal(a.test.labels, b.test.labels)

    def test_parts_disjoint_and_complete(self):
        ds = self.make_ds(80)
        original = ds.features.copy()  # split permutes ds's rows
        sp = split(ds, 40, 25, 15, seed=3)
        merged = np.vstack([sp.train.features, sp.test.features, sp.validation.features])
        # every original sample appears exactly once in the union
        recovered = merged[np.lexsort(merged.T)]
        np.testing.assert_array_equal(original[np.lexsort(original.T)], recovered)

    def test_full_split_permutes_the_set_in_place(self):
        ds = self.make_ds()
        order = stream(7, "split").permutation(100)
        features, labels = ds.features[order], ds.labels[order]
        sp = split(ds, 50, 30, 20, seed=7)
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()
        for part in (sp.train, sp.test, sp.validation):
            assert part.features.base is ds.features
            assert part.labels.base is ds.labels

    def test_partial_split_leaves_the_set_unchanged(self):
        ds = self.make_ds()
        features, labels = ds.features.copy(), ds.labels.copy()
        sp = split(ds, 50, 30, 10, seed=7)
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()
        assert not np.shares_memory(sp.train.features, ds.features)

    @pytest.mark.parametrize("sizes", [(60, 25, 15), (30, 12, 8), (0, 100, 0), (0, 0, 0)])
    def test_parts_are_the_permutation_prefix(self, sizes):
        # the parts the parent commit gathered with one fancy index per part
        ds = self.make_ds(100)
        train_n, test_n, val_n = sizes
        order = stream(5, "split").permutation(100)
        bounds = {"train": (0, train_n), "test": (train_n, train_n + test_n),
                  "validation": (train_n + test_n, sum(sizes))}
        expected = {name: (ds.features[order[lo:hi]], ds.labels[order[lo:hi]])
                    for name, (lo, hi) in bounds.items()}
        sp = split(ds, *sizes, seed=5)
        for name, (features, labels) in expected.items():
            part = getattr(sp, name)
            assert part.features.tobytes() == features.tobytes(), name
            assert part.labels.tobytes() == labels.tobytes(), name
            assert part.n_classes == 4

    def test_sizes_exceed_dataset(self):
        with pytest.raises(ParameterError):
            split(self.make_ds(10), 8, 2, 1, seed=0)


class TestSynthBlobs:
    def test_nearest_centroid_oracle_separable(self):
        ds = synth_blobs(400, 8, 2, separation=10.0, seed=1)
        centroids = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(2)])
        dists = ((ds.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assert (np.argmin(dists, axis=1) == ds.labels).mean() == 1.0

    def test_single_class(self):
        ds = synth_blobs(50, 4, 1, separation=1.0, seed=2)
        assert (ds.labels == 0).all()

    def test_determinism(self):
        a = synth_blobs(50, 4, 3, 2.0, seed=9)
        b = synth_blobs(50, 4, 3, 2.0, seed=9)
        np.testing.assert_array_equal(a.features, b.features)

    def test_feature_range(self):
        ds = synth_blobs(200, 6, 3, 5.0, seed=4)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            synth_blobs(0, 4, 2, 1.0, seed=0)
        with pytest.raises(ParameterError):
            synth_blobs(10, 4, 2, -1.0, seed=0)


class TestSynthDigits:
    def test_shapes_and_range(self):
        ds = synth_digits(64, seed=0)
        assert ds.features.shape == (64, 784)
        assert ds.n_classes == 10
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_determinism(self):
        a = synth_digits(32, seed=3)
        b = synth_digits(32, seed=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_all_classes_present(self):
        ds = synth_digits(500, seed=1)
        assert set(ds.labels.tolist()) == set(range(10))

    def test_glyph_atlas_digest(self):
        atlas = np.stack([data._glyph(d) for d in range(10)])
        assert atlas.shape == (10, 28, 28) and atlas.dtype == np.float64
        assert hashlib.sha256(atlas.tobytes()).hexdigest() == (
            "1c20d7b2d3bf94cc71e96fc3e8c5e1e349b75f512745742352de2d03b60fc3ee")

    @staticmethod
    def per_sample_reference(n_samples, seed, noise=0.12, max_shift=3):
        """The generator that composed one image per iteration, kept as it was
        (less its occlusion option, which was never set)."""
        rng = stream(seed, "digits")
        glyphs = np.stack([data._glyph(d) for d in range(10)])
        labels = rng.integers(0, 10, size=n_samples)
        out = np.empty((n_samples, 28 * 28))
        for i, lab in enumerate(labels):
            img = glyphs[lab] * rng.uniform(0.6, 1.0)
            dx, dy = rng.integers(-max_shift, max_shift + 1, size=2)
            img = np.roll(np.roll(img, dy, axis=0), dx, axis=1)
            img = img + rng.standard_normal((28, 28)) * noise
            out[i] = np.clip(img, 0.0, 1.0).ravel()
        return out, labels.astype(np.int64)

    @pytest.mark.parametrize("n,seed,noise", [
        *product([1, data._DIGITS_CHUNK - 1, data._DIGITS_CHUNK + 1, 2500], [0, 1, 2],
                 [0.12, 0.3]),
        (7000, 101, 0.12),  # the digit set of test_acceptance.digit_split
    ])
    def test_bytes_match_per_sample_generator(self, n, seed, noise):
        ds = synth_digits(n, seed=seed, noise=noise)
        features, labels = self.per_sample_reference(n, seed, noise=noise)
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()

    @pytest.mark.parametrize("noise", [-0.5, -1e-300, float("nan")])
    def test_negative_noise_is_rejected(self, noise):
        # a negative scale flips the normals' sign: a different set, not less noise
        with pytest.raises(ParameterError, match="noise must be >= 0"):
            synth_digits(5, seed=0, noise=noise)
