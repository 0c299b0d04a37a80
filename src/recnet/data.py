"""CIFAR binary reading, normalization, augmentation, and batch serving.

File formats (little more than byte concatenation):

  CIFAR-10   data_batch_{1..5}.bin, test_batch.bin
             record = 1 label byte + 1024 R + 1024 G + 1024 B  (3073 bytes)
  CIFAR-100  train.bin, test.bin
             record = coarse byte + fine byte + 3072 pixel bytes (3074 bytes)

Pixels are stored plane-major (all R rows, then G, then B), which maps
directly onto the (3, 32, 32) layout used everywhere else. A synthetic
Gaussian-blob generator emits the same record format so the whole pipeline
can run without downloads.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError

IMG_SHAPE = (3, 32, 32)
IMG_BYTES = 3 * 32 * 32
RECORD_BYTES = {"cifar10": 1 + IMG_BYTES, "cifar100": 2 + IMG_BYTES}
N_CLASSES = {"cifar10": 10, "cifar100": 100}
N_COARSE = 20  # CIFAR-100 superclasses
# Default sizes of the generated train/test splits (DataBundle.synthetic).
SYNTHETIC_TRAIN, SYNTHETIC_TEST = 512, 128

CIFAR10_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR10_TEST_FILES = ["test_batch.bin"]


class Dataset:
    """One split: byte image planes plus fine labels."""

    def __init__(self, images, labels, n_classes, split, name="cifar10"):
        images = np.ascontiguousarray(images, dtype=np.uint8)
        labels = np.asarray(labels, dtype=np.int64)
        if images.ndim != 4 or images.shape[1:] != IMG_SHAPE:
            raise FormatError(f"images must be (N, 3, 32, 32), got {images.shape}")
        if labels.shape != (images.shape[0],):
            raise FormatError(f"label count {labels.shape} != image count {images.shape[0]}")
        if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
            raise FormatError(
                f"label out of range: [{labels.min()}, {labels.max()}] with {n_classes} classes")
        self.images = images
        self.labels = labels
        self.n_classes = n_classes
        self.split = split
        self.name = name

    def __len__(self):
        return self.images.shape[0]


def channel_stats(images):
    """(mean, std) per channel over pixels scaled to [0, 1]; float32."""
    scaled = images.astype(np.float64) / 255.0
    mean = scaled.mean(axis=(0, 2, 3))
    std = scaled.std(axis=(0, 2, 3))
    return mean.astype(np.float32), np.maximum(std, 1e-8).astype(np.float32)


@dataclass
class Normalizer:
    """Applies (x - mean) / std after scaling bytes to [0, 1]."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, train_ds):
        return cls(*channel_stats(train_ds.images))

    def apply(self, images):
        x = images.astype(np.float32) / 255.0
        x -= self.mean.astype(x.dtype)[:, None, None]
        x /= self.std.astype(x.dtype)[:, None, None]
        return x


def parse_records(buf, fmt, n_classes=None, source="<memory>"):
    """Decode a raw record buffer; returns (images, fine labels, coarse|None)."""
    rec = RECORD_BYTES[fmt]
    n_classes = n_classes or N_CLASSES[fmt]
    if len(buf) == 0 or len(buf) % rec != 0:
        raise FormatError(
            f"{source}: length {len(buf)} is not a positive multiple of the "
            f"{rec}-byte {fmt} record")
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(-1, rec)
    if fmt == "cifar10":
        labels, coarse, pixels = raw[:, 0], None, raw[:, 1:]
    else:
        coarse, labels, pixels = raw[:, 0].copy(), raw[:, 1], raw[:, 2:]
    labels = labels.astype(np.int64)
    if labels.max(initial=0) >= n_classes:
        raise FormatError(f"{source}: label {labels.max()} out of range for {n_classes} classes")
    if coarse is not None and coarse.max(initial=0) >= N_COARSE:
        raise FormatError(f"{source}: coarse label {coarse.max()} out of range for "
                          f"{N_COARSE} superclasses")
    images = pixels.reshape(-1, *IMG_SHAPE).copy()
    return images, labels, coarse


def serialize_records(images, labels, fmt, coarse=None):
    """Inverse of parse_records; byte-exact round trip."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    n = images.shape[0]
    rec = RECORD_BYTES[fmt]
    out = np.empty((n, rec), dtype=np.uint8)
    if fmt == "cifar10":
        out[:, 0] = labels
        out[:, 1:] = images.reshape(n, -1)
    else:
        out[:, 0] = 0 if coarse is None else coarse
        out[:, 1] = labels
        out[:, 2:] = images.reshape(n, -1)
    return out.tobytes()


def _read_file(path, fmt, n_classes):
    if not os.path.isfile(path):
        raise FormatError(f"missing dataset file: {path}")
    with open(path, "rb") as fh:
        buf = fh.read()
    return parse_records(buf, fmt, n_classes, source=path)


def load(data_dir, dataset="cifar10", split="train"):
    """Read one split from the standard binary layout into a Dataset.
    CIFAR-100's coarse labels are validated and dropped: the networks are
    trained on the fine labels alone."""
    if dataset not in RECORD_BYTES:
        raise ConfigError(f"unknown dataset {dataset!r}")
    if split not in ("train", "test"):
        raise ConfigError(f"unknown split {split!r}")
    n_classes = N_CLASSES[dataset]
    if dataset == "cifar10":
        names = CIFAR10_TRAIN_FILES if split == "train" else CIFAR10_TEST_FILES
    else:
        names = ["train.bin" if split == "train" else "test.bin"]
    images, labels = [], []
    for name in names:
        imgs, labs, _ = _read_file(os.path.join(data_dir, name), dataset, n_classes)
        images.append(imgs)
        labels.append(labs)
    return Dataset(np.concatenate(images), np.concatenate(labels), n_classes, split, dataset)


# Training augmentation: zero-pad by CROP_PAD, crop back to the input size
# at a uniform offset, and mirror with probability HFLIP_P.
CROP_PAD = 4
HFLIP_P = 0.5


def sample_crop_offsets(rng, n, pad):
    """Uniform crop origins over [0, 2*pad]^2."""
    return rng.integers(0, 2 * pad + 1, size=(n, 2))


def augment_batch(x, rng):
    """Per-sample pad/crop/flip on an already-normalized (B, 3, H, W) batch."""
    b, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (CROP_PAD, CROP_PAD), (CROP_PAD, CROP_PAD)))
    offsets = sample_crop_offsets(rng, b, CROP_PAD)
    flips = rng.random(b) < HFLIP_P
    out = np.empty_like(x)
    for i in range(b):
        oy, ox = offsets[i]
        img = padded[i, :, oy:oy + h, ox:ox + w]
        out[i] = img[:, :, ::-1] if flips[i] else img
    return out


def minibatches(ds, batch=64, seed=0, augment=False, *, normalizer):
    """Yield (x, labels) over one shuffled epoch, normalized by normalizer
    (the one fit on the training split), pad/crop/flipped when augment is
    set; the last short batch is emitted. Identical seed gives a
    bit-identical stream."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ds))
    for start in range(0, len(ds), batch):
        idx = order[start:start + batch]
        x = normalizer.apply(ds.images[idx])
        if augment:
            x = augment_batch(x, rng)
        yield x, ds.labels[idx]


# ---------------------------------------------------------------------------
# synthetic data


def synthetic_images(n, n_classes, rng):
    """Gaussian-blob images: each class owns a blob location, a channel
    emphasis and a brightness level, so small networks separate them fast."""
    if n_classes < 1 or n_classes > 10:
        raise ConfigError(f"synthetic classes must be within 1..10, got {n_classes}")
    yy, xx = np.mgrid[0:32, 0:32].astype(np.float64)
    labels = rng.integers(0, n_classes, size=n)
    means = np.empty((n_classes, 3, 32, 32))
    for k in range(n_classes):
        angle = 2.0 * np.pi * k / max(n_classes, 2)
        cx, cy = 16 + 9 * np.cos(angle), 16 + 9 * np.sin(angle)
        blob = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * 5.0 ** 2))
        base = 40.0 + (150.0 * k / max(n_classes - 1, 1))
        for ch in range(3):
            emphasis = 1.0 if ch == k % 3 else 0.3
            means[k, ch] = base * 0.4 + 170.0 * emphasis * blob
    # One noise draw per 32 images reads the stream that one per image reads
    # and keeps a block's float64 temporaries under 2 MB.
    images = np.empty((n, 3, 32, 32), dtype=np.uint8)
    for lo in range(0, n, 32):
        img = means[labels[lo:lo + 32]]
        img += rng.normal(0.0, 10.0, img.shape)
        images[lo:lo + 32] = np.clip(img, 0, 255, out=img).astype(np.uint8)
    return images, labels.astype(np.int64)


def synthetic_split(n, n_classes, seed, split):
    """Generate blobs and round-trip them through the binary record format,
    exercising the same parser real files go through."""
    if n < 1:
        raise ConfigError(f"synthetic {split} split needs at least one image, got {n}")
    rng = np.random.default_rng(seed)
    images, labels = synthetic_images(n, n_classes, rng)
    buf = serialize_records(images, labels, "cifar10")
    images2, labels2, _ = parse_records(buf, "cifar10", n_classes, source=f"synthetic-{split}")
    return Dataset(images2, labels2, n_classes, split, "synthetic")


class DataBundle:
    """Train/test splits plus the normalizer fit on the training split."""

    def __init__(self, train, test):
        self.train = train
        self.test = test
        self.normalizer = Normalizer.fit(train)

    @property
    def n_classes(self):
        return self.train.n_classes

    @classmethod
    def from_dir(cls, data_dir, dataset="cifar10"):
        return cls(load(data_dir, dataset, "train"), load(data_dir, dataset, "test"))

    @classmethod
    def synthetic(cls, n_train=SYNTHETIC_TRAIN, n_test=SYNTHETIC_TEST, n_classes=2, seed=0):
        return cls(synthetic_split(n_train, n_classes, seed, "train"),
                   synthetic_split(n_test, n_classes, seed + 1, "test"))
