"""Bit-exact checkpoint container.

Layout (all integers little-endian):

    magic  b"RCN1"
    u32    tensor count
    per tensor:
        u16  name length, then UTF-8 name bytes
        u8   dtype code (0 = float32)
        u8   rank
        u32  dims[rank]
        raw little-endian float32 values, C order
    u32    metadata length, then UTF-8 JSON text
           (architecture 7-tuple, class count, variant, kernel sizes,
            epoch, seed; for a run on the synthetic set, its train and
            test split sizes)

Writes go to a temporary file in the same directory followed by an atomic
rename, so an interrupted run never leaves a torn checkpoint behind.
"""

import json
import math
import os
import struct
import tempfile

import numpy as np

from .crc import CrcVariant
from .errors import ConfigError, FormatError
from .model import RecNetConfig

MAGIC = b"RCN1"
_DTYPE_CODES = {0: np.dtype("<f4")}


def save_checkpoint(path, tensors, meta):
    """tensors: iterable of (name, ndarray); meta: JSON-serializable dict."""
    items = list(tensors)
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", len(items))
    for name, arr in items:
        arr = np.ascontiguousarray(arr, dtype="<f4")
        name_b = name.encode("utf-8")
        blob += struct.pack("<H", len(name_b))
        blob += name_b
        blob += struct.pack("<BB", 0, arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes()
    meta_b = json.dumps(meta, sort_keys=True).encode("utf-8")
    blob += struct.pack("<I", len(meta_b))
    blob += meta_b

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # open()'s mode; mkstemp's 0600 would outlive the rename
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, buf, source):
        self.buf = buf
        self.pos = 0
        self.source = source

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise FormatError(f"{self.source}: truncated checkpoint")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path):
    """Returns (tensors dict name -> float32 array, meta dict)."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read checkpoint {path}: {exc}") from exc
    r = _Reader(buf, path)
    if r.take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic, not a checkpoint")
    (count,) = r.unpack("<I")
    tensors = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: tensor name is not UTF-8: {exc}") from None
        if name in tensors:
            raise FormatError(f"{path}: tensor {name!r} appears twice")
        code, rank = r.unpack("<BB")
        if code not in _DTYPE_CODES:
            raise FormatError(f"{path}: unknown dtype code {code}")
        dims = r.unpack(f"<{rank}I")
        dtype = _DTYPE_CODES[code]
        # Python ints do not overflow: a tensor too large for the file reads
        # as truncated.
        data = np.frombuffer(r.take(math.prod(dims) * dtype.itemsize), dtype=dtype)
        try:
            tensors[name] = data.reshape(dims).copy()
        except ValueError as exc:
            raise FormatError(f"{path}: tensor {name!r} of rank {rank}: {exc}") from None
    (meta_len,) = r.unpack("<I")
    try:
        meta = json.loads(r.take(meta_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad metadata block: {exc}") from exc
    if r.pos != len(buf):
        raise FormatError(f"{path}: {len(buf) - r.pos} trailing bytes")
    return tensors, meta


def model_meta(model, epoch, seed, synthetic=None):
    """The checkpoint's metadata; synthetic is the (train, test) split sizes
    of a run on the synthetic set, None for real data."""
    cfg = model.cfg
    meta = {
        "config": list(cfg.tuple7),
        "n_classes": cfg.n_classes,
        "variant": cfg.variant.value,
        "k_x": cfg.k_x,
        "k_h": cfg.k_h,
        "epoch": epoch,
        "seed": seed,
    }
    if synthetic is not None:
        meta["synthetic_train"], meta["synthetic_test"] = synthetic
    return meta


def read_model_meta(meta, source):
    """(RecNetConfig, seed, synthetic split sizes) from the metadata
    model_meta wrote; the sizes are (train, test), or None where the
    checkpoint records neither, as a run on real data does. Raises
    FormatError naming the field that is missing, out of range or describes
    no network. The epoch is informational and not read."""
    if not isinstance(meta, dict):
        raise FormatError(f"{source}: metadata is not a JSON object")

    def field(name):
        if name not in meta:
            raise FormatError(f"{source}: metadata lacks field {name!r}")
        return meta[name]

    def integer(name):
        value = field(name)
        if type(value) is not int:
            raise FormatError(f"{source}: metadata field {name!r} is not an integer: {value!r}")
        return value

    tuple7 = field("config")
    if not (isinstance(tuple7, list) and len(tuple7) == 7
            and all(type(v) is int for v in tuple7)):
        raise FormatError(f"{source}: metadata field 'config' is not 7 integers: {tuple7!r}")
    variant = field("variant")
    try:
        variant = CrcVariant(variant)
    except ValueError:
        raise FormatError(
            f"{source}: metadata field 'variant' names no variant: {variant!r}") from None
    try:
        cfg = RecNetConfig(*tuple7, n_classes=integer("n_classes"), variant=variant,
                           k_x=integer("k_x"), k_h=integer("k_h"))
    except ConfigError as exc:
        raise FormatError(f"{source}: metadata describes no network: {exc}") from None
    seed = integer("seed")
    if seed < 0:
        raise FormatError(f"{source}: metadata field 'seed' is negative: {seed}")
    if "synthetic_train" not in meta and "synthetic_test" not in meta:
        return cfg, seed, None
    sizes = (integer("synthetic_train"), integer("synthetic_test"))
    for name, size in zip(("synthetic_train", "synthetic_test"), sizes):
        if size < 1:
            raise FormatError(f"{source}: metadata field {name!r} is below 1: {size}")
    return cfg, seed, sizes


def save_model(path, model, epoch, seed, synthetic=None):
    save_checkpoint(path, model.named_tensors(), model_meta(model, epoch, seed, synthetic))


def restore_model(model, tensors):
    """Copy checkpoint tensors into a compatibly-shaped model in place."""
    targets = dict(model.named_tensors())
    missing = sorted(set(targets) - set(tensors))
    if missing:
        raise FormatError(f"checkpoint missing tensors: {missing[:5]}")
    for name, arr in tensors.items():
        if name not in targets:
            raise FormatError(f"checkpoint has unexpected tensor {name!r}")
        dst = targets[name]
        if dst.shape != arr.shape:
            raise FormatError(f"tensor {name!r}: checkpoint {arr.shape} != model {dst.shape}")
        dst[...] = arr.astype(dst.dtype)
