import os

import numpy as np
import pytest

from recnet.data import (
    CIFAR10_TRAIN_FILES,
    CROP_PAD,
    HFLIP_P,
    DataBundle,
    Dataset,
    Normalizer,
    augment_batch,
    channel_stats,
    load,
    minibatches,
    parse_records,
    sample_crop_offsets,
    serialize_records,
    synthetic_images,
    synthetic_split,
)
from recnet.errors import ConfigError, FormatError


def write_synthetic_dir(data_dir, n_train=512, n_test=128, n_classes=2, seed=0):
    """Materialize a synthetic dataset in the CIFAR-10 file layout."""
    os.makedirs(data_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    per = np.full(5, n_train // 5)
    per[: n_train % 5] += 1
    for name, count in zip(CIFAR10_TRAIN_FILES, per):
        images, labels = synthetic_images(int(count), n_classes, rng)
        with open(os.path.join(data_dir, name), "wb") as fh:
            fh.write(serialize_records(images, labels, "cifar10"))
    images, labels = synthetic_images(n_test, n_classes, rng)
    with open(os.path.join(data_dir, "test_batch.bin"), "wb") as fh:
        fh.write(serialize_records(images, labels, "cifar10"))


class TestRecords:
    def test_round_trip_cifar10(self, rng):
        images = rng.integers(0, 256, (7, 3, 32, 32), dtype=np.uint8)
        labels = rng.integers(0, 10, 7)
        buf = serialize_records(images, labels, "cifar10")
        assert len(buf) == 7 * 3073
        im2, lab2, coarse = parse_records(buf, "cifar10")
        assert np.array_equal(images, im2) and np.array_equal(labels, lab2)
        assert coarse is None
        assert serialize_records(im2, lab2, "cifar10") == buf

    def test_round_trip_cifar100_keeps_coarse(self, rng):
        images = rng.integers(0, 256, (4, 3, 32, 32), dtype=np.uint8)
        fine = rng.integers(0, 100, 4)
        coarse = rng.integers(0, 20, 4)
        buf = serialize_records(images, fine, "cifar100", coarse)
        assert len(buf) == 4 * 3074
        im2, f2, c2 = parse_records(buf, "cifar100")
        assert np.array_equal(images, im2)
        assert np.array_equal(fine, f2) and np.array_equal(coarse, c2)
        assert serialize_records(im2, f2, "cifar100", c2) == buf

    def test_bad_length_names_source(self):
        with pytest.raises(FormatError, match="some_file.bin"):
            parse_records(b"\x00" * 100, "cifar10", source="some_file.bin")

    def test_coarse_label_out_of_range(self, rng):
        images = rng.integers(0, 256, (2, 3, 32, 32), dtype=np.uint8)
        buf = serialize_records(images, np.array([0, 7]), "cifar100", np.array([19, 20]))
        with pytest.raises(FormatError, match="coarse label 20"):
            parse_records(buf, "cifar100", source="train.bin")

    def test_label_out_of_range(self, rng):
        images = rng.integers(0, 256, (2, 3, 32, 32), dtype=np.uint8)
        buf = serialize_records(images, np.array([0, 7]), "cifar10")
        with pytest.raises(FormatError, match="label"):
            parse_records(buf, "cifar10", n_classes=5)


class TestLoad:
    def test_synthetic_dir_round_trip(self, tmp_path):
        write_synthetic_dir(tmp_path, n_train=23, n_test=9, n_classes=2, seed=0)
        train = load(tmp_path, "cifar10", "train")
        test = load(tmp_path, "cifar10", "test")
        assert len(train) == 23 and len(test) == 9
        assert train.labels.max() <= 1

    def test_reserialization_reproduces_file_bytes(self, tmp_path):
        write_synthetic_dir(tmp_path, n_train=10, n_test=5, n_classes=2, seed=1)
        path = os.path.join(tmp_path, "test_batch.bin")
        raw = open(path, "rb").read()
        ds = load(tmp_path, "cifar10", "test")
        assert serialize_records(ds.images, ds.labels, "cifar10") == raw

    def test_truncated_file_names_offender(self, tmp_path):
        write_synthetic_dir(tmp_path, n_train=10, n_test=5, n_classes=2, seed=1)
        path = os.path.join(tmp_path, "data_batch_3.bin")
        with open(path, "ab") as fh:
            fh.write(b"\x01\x02\x03")
        with pytest.raises(FormatError, match="data_batch_3.bin"):
            load(tmp_path, "cifar10", "train")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="missing"):
            load(tmp_path, "cifar10", "train")

    def test_unknown_dataset(self, tmp_path):
        with pytest.raises(ConfigError):
            load(tmp_path, "mnist", "train")


class TestNormalization:
    def test_constant_dataset_guarded(self):
        images = np.full((10, 3, 32, 32), 128, dtype=np.uint8)
        mean, std = channel_stats(images)
        assert np.allclose(mean, 128 / 255)
        norm = Normalizer(mean, std)
        assert np.allclose(norm.apply(images), 0.0)

    def test_normalized_split_is_standard(self):
        ds = synthetic_split(256, 2, seed=0, split="train")
        norm = Normalizer.fit(ds)
        x = norm.apply(ds.images)
        assert np.all(np.abs(x.mean(axis=(0, 2, 3))) < 1e-3)
        assert np.all(np.abs(x.std(axis=(0, 2, 3)) - 1) < 1e-3)

    def test_fit_is_deterministic(self):
        a = Normalizer.fit(synthetic_split(64, 2, seed=5, split="train"))
        b = Normalizer.fit(synthetic_split(64, 2, seed=5, split="train"))
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.std, b.std)


class TestMinibatches:
    def test_batch_arithmetic_with_short_tail(self):
        ds = synthetic_split(200, 2, seed=0, split="train")
        batches = list(minibatches(ds, batch=64, seed=0, normalizer=Normalizer.fit(ds)))
        assert len(batches) == 4
        assert [len(y) for _, y in batches] == [64, 64, 64, 8]

    def test_normalizer_is_required(self):
        """Batches are normalized by the training split's fit, never by a
        fit of their own split."""
        ds = synthetic_split(8, 2, seed=0, split="test")
        with pytest.raises(TypeError, match="normalizer"):
            minibatches(ds, 4)

    def test_same_seed_identical_stream(self):
        ds = synthetic_split(100, 2, seed=0, split="train")
        norm = Normalizer.fit(ds)
        for augment in (False, True):
            a = list(minibatches(ds, 32, seed=7, augment=augment, normalizer=norm))
            b = list(minibatches(ds, 32, seed=7, augment=augment, normalizer=norm))
            for (xa, ya), (xb, yb) in zip(a, b):
                assert np.array_equal(xa, xb) and np.array_equal(ya, yb)

    def test_different_seed_different_order(self):
        ds = synthetic_split(100, 2, seed=0, split="train")
        norm = Normalizer.fit(ds)
        _, ya = next(iter(minibatches(ds, 32, seed=1, normalizer=norm)))
        _, yb = next(iter(minibatches(ds, 32, seed=2, normalizer=norm)))
        assert not np.array_equal(ya, yb)


class TestAugmentation:
    def test_crops_and_flips_follow_the_draws(self, rng):
        x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
        out = augment_batch(x, np.random.default_rng(0))
        draws = np.random.default_rng(0)
        offsets = draws.integers(0, 2 * CROP_PAD + 1, size=(8, 2))
        flips = draws.random(8) < HFLIP_P
        assert 0 < flips.sum() < 8
        for i in range(8):
            canvas = np.zeros((3, 32 + 2 * CROP_PAD, 32 + 2 * CROP_PAD), dtype=np.float32)
            canvas[:, CROP_PAD:CROP_PAD + 32, CROP_PAD:CROP_PAD + 32] = x[i]
            oy, ox = offsets[i]
            want = canvas[:, oy:oy + 32, ox:ox + 32]
            assert np.array_equal(out[i], want[:, :, ::-1] if flips[i] else want)

    def test_output_dims_preserved(self, rng):
        x = rng.standard_normal((5, 3, 32, 32)).astype(np.float32)
        out = augment_batch(x, np.random.default_rng(1))
        assert out.shape == x.shape

    def test_crop_offsets_uniform(self):
        rng = np.random.default_rng(0)
        draws = sample_crop_offsets(rng, 20_000, pad=4)
        assert draws.min() == 0 and draws.max() == 8
        counts = np.bincount(draws[:, 0] * 9 + draws[:, 1], minlength=81)
        expected = 20_000 / 81
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 80 degrees of freedom: mean 80, std ~12.6.
        assert chi2 < 140

    def test_crop_visible_region_comes_from_padded_input(self, rng):
        x = np.ones((1, 3, 32, 32), dtype=np.float32)
        out = augment_batch(x, np.random.default_rng(3))
        values = np.unique(out)
        assert set(values.tolist()) <= {0.0, 1.0}


def synthetic_images_per_image(n, n_classes, rng):
    """synthetic_images as one image at a time: the reference its blocked
    noise draws must match byte for byte."""
    yy, xx = np.mgrid[0:32, 0:32].astype(np.float64)
    labels = rng.integers(0, n_classes, size=n)
    images = np.empty((n, 3, 32, 32), dtype=np.uint8)
    for i in range(n):
        k = labels[i]
        angle = 2.0 * np.pi * k / max(n_classes, 2)
        cx, cy = 16 + 9 * np.cos(angle), 16 + 9 * np.sin(angle)
        blob = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * 5.0 ** 2))
        base = 40.0 + (150.0 * k / max(n_classes - 1, 1))
        img = np.empty((3, 32, 32))
        for ch in range(3):
            emphasis = 1.0 if ch == k % 3 else 0.3
            img[ch] = base * 0.4 + 170.0 * emphasis * blob
        img += rng.normal(0.0, 10.0, img.shape)
        images[i] = np.clip(img, 0, 255).astype(np.uint8)
    return images, labels.astype(np.int64)


class TestSynthetic:
    @pytest.mark.parametrize("n,n_classes", [(640, 10), (512, 2), (130, 3), (1, 1), (777, 7)])
    def test_matches_per_image_reference(self, n, n_classes):
        a, la = synthetic_images(n, n_classes, np.random.default_rng(n))
        b, lb = synthetic_images_per_image(n, n_classes, np.random.default_rng(n))
        assert np.array_equal(a, b) and np.array_equal(la, lb)

    def test_classes_and_determinism(self):
        rng1 = np.random.default_rng(4)
        rng2 = np.random.default_rng(4)
        a, la = synthetic_images(50, 4, rng1)
        b, lb = synthetic_images(50, 4, rng2)
        assert np.array_equal(a, b) and np.array_equal(la, lb)
        assert set(np.unique(la)) <= set(range(4))

    def test_bundle(self):
        bundle = DataBundle.synthetic(60, 20, 2, seed=0)
        assert len(bundle.train) == 60 and len(bundle.test) == 20
        assert bundle.n_classes == 2

    def test_class_count_bounds(self):
        with pytest.raises(ConfigError):
            synthetic_images(10, 11, np.random.default_rng(0))

    def test_dataset_validation(self):
        with pytest.raises(FormatError):
            Dataset(np.zeros((2, 3, 16, 16), dtype=np.uint8), [0, 1], 2, "train")
        with pytest.raises(FormatError):
            Dataset(np.zeros((2, 3, 32, 32), dtype=np.uint8), [0, 5], 2, "train")
