import os
import stat
import struct

import numpy as np
import pytest

from recnet.checkpoint import (
    MAGIC,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    save_model,
)
from recnet.crc import CrcVariant
from recnet.errors import FormatError, ShapeError
from recnet.model import RecNetConfig, build


def _sample_tensors(rng):
    return [
        ("stem.w", rng.standard_normal((4, 3, 3, 3)).astype(np.float32)),
        ("fc.b", rng.standard_normal(10).astype(np.float32)),
    ]


class TestFormat:
    def test_round_trip(self, tmp_path, rng):
        path = os.path.join(tmp_path, "a.ckpt")
        meta = {"config": [1, 1, 1, 1, 1, 1, 1], "epoch": 3, "seed": 9}
        tensors = _sample_tensors(rng)
        save_checkpoint(path, tensors, meta)
        loaded, meta2 = load_checkpoint(path)
        assert meta2 == meta
        for name, arr in tensors:
            assert np.array_equal(loaded[name], arr)

    def test_layout_starts_with_magic_and_count(self, tmp_path, rng):
        path = os.path.join(tmp_path, "a.ckpt")
        save_checkpoint(path, _sample_tensors(rng), {})
        raw = open(path, "rb").read()
        assert raw[:4] == MAGIC == b"RCN1"
        assert struct.unpack("<I", raw[4:8])[0] == 2
        name_len = struct.unpack("<H", raw[8:10])[0]
        assert raw[10:10 + name_len] == b"stem.w"
        dtype_code, rank = raw[10 + name_len], raw[11 + name_len]
        assert dtype_code == 0 and rank == 4

    def test_save_is_bit_deterministic(self, tmp_path, rng):
        tensors = _sample_tensors(rng)
        p1, p2 = os.path.join(tmp_path, "1.ckpt"), os.path.join(tmp_path, "2.ckpt")
        save_checkpoint(p1, tensors, {"seed": 1})
        save_checkpoint(p2, tensors, {"seed": 1})
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_magic(self, tmp_path, rng):
        path = os.path.join(tmp_path, "a.ckpt")
        save_checkpoint(path, _sample_tensors(rng), {})
        raw = bytearray(open(path, "rb").read())
        raw[:4] = b"NOPE"
        open(path, "wb").write(raw)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path, rng):
        path = os.path.join(tmp_path, "a.ckpt")
        save_checkpoint(path, _sample_tensors(rng), {})
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-10])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path, rng):
        path = os.path.join(tmp_path, "a.ckpt")
        save_checkpoint(path, _sample_tensors(rng), {})
        with open(path, "ab") as fh:
            fh.write(b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    def test_repeated_tensor_name(self, tmp_path, rng):
        path = os.path.join(tmp_path, "a.ckpt")
        w = rng.standard_normal(3).astype(np.float32)
        save_checkpoint(path, [("w", w), ("w", w + 1)], {})
        with pytest.raises(FormatError, match="tensor 'w' appears twice"):
            load_checkpoint(path)

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_mode_follows_umask(self, tmp_path, rng, umask):
        """A checkpoint, new or replacing one, gets the mode that open()
        gives a new file, not mkstemp's owner-only 0600."""
        path = os.path.join(tmp_path, "a.ckpt")
        plain = os.path.join(tmp_path, "plain")
        old = os.umask(umask)
        try:
            save_checkpoint(path, _sample_tensors(rng), {})
            new_mode = stat.S_IMODE(os.stat(path).st_mode)
            save_checkpoint(path, _sample_tensors(rng), {})
            open(plain, "w").close()
        finally:
            os.umask(old)
        want = stat.S_IMODE(os.stat(plain).st_mode)
        assert want == 0o666 & ~umask
        assert new_mode == stat.S_IMODE(os.stat(path).st_mode) == want

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_checkpoint(os.path.join(tmp_path, "absent.ckpt"))


class TestModelRestore:
    def test_model_round_trip_preserves_eval(self, tmp_path):
        cfg = RecNetConfig(1, 1, 1, 1, 2, 2, 2, n_classes=2)
        model = build(cfg, seed=3)
        # Nudge BN running stats away from init so the restore is visible.
        for _, s in model.named_bn_states():
            s.running_mean += 0.25
        path = os.path.join(tmp_path, "m.ckpt")
        save_model(path, model, epoch=7, seed=3)
        tensors, meta = load_checkpoint(path)
        assert meta["config"] == [1, 1, 1, 1, 2, 2, 2]
        assert meta["epoch"] == 7 and meta["seed"] == 3

        other = build(cfg, seed=99)
        restore_model(other, tensors)
        x = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(np.float32)
        assert np.array_equal(model.forward(x), other.forward(x))

    def test_restore_rejects_shape_mismatch(self, tmp_path):
        cfg = RecNetConfig(1, 1, 1, 1, 2, 2, 2, n_classes=2)
        model = build(cfg, seed=0)
        path = os.path.join(tmp_path, "m.ckpt")
        save_model(path, model, epoch=0, seed=0)
        tensors, _ = load_checkpoint(path)
        bigger = build(RecNetConfig(2, 1, 1, 1, 2, 2, 2, n_classes=2), seed=0)
        with pytest.raises((ShapeError, FormatError)):
            restore_model(bigger, tensors)

    def test_restore_rejects_missing_tensor(self, tmp_path):
        cfg = RecNetConfig(1, 1, 1, 1, 1, 1, 1, n_classes=2)
        model = build(cfg, seed=0)
        path = os.path.join(tmp_path, "m.ckpt")
        save_model(path, model, epoch=0, seed=0)
        tensors, _ = load_checkpoint(path)
        del tensors["fc.w"]
        with pytest.raises(FormatError, match="missing"):
            restore_model(build(cfg, seed=1), tensors)


# named_tensors() of 1,2,2,2,2,2,2 per variant: the order in which a checkpoint
# stores its tensors, written out so that no refactor reorders it unseen.
TENSOR_ORDER = {
    CrcVariant.RELU: [
        "stem.w", "stem.bn.gamma", "stem.bn.beta",
        "m0.crc.w_x", "m0.crc.w_h", "m0.crc.b", "m0.tb.a", "m0.tb.bn.gamma", "m0.tb.bn.beta",
        "m1.crc.w_x", "m1.crc.w_h", "m1.crc.b", "m1.tb.a", "m1.tb.bn.gamma", "m1.tb.bn.beta",
        "m2.crc.w_x", "m2.crc.w_h", "m2.crc.b", "m2.tb.a", "m2.tb.bn.gamma", "m2.tb.bn.beta",
        "m3.crc.w_x", "m3.crc.w_h", "m3.crc.b", "m3.tb.a", "m3.tb.bn.gamma", "m3.tb.bn.beta",
        "m4.crc.w_x", "m4.crc.w_h", "m4.crc.b", "m4.tb.a", "m4.tb.bn.gamma", "m4.tb.bn.beta",
        "m5.crc.w_x", "m5.crc.w_h", "m5.crc.b", "m5.tb.a", "m5.tb.bn.gamma", "m5.tb.bn.beta",
        "fc.w", "fc.b",
        "stem.bn.running_mean", "stem.bn.running_var",
        "m0.tb.bn.running_mean", "m0.tb.bn.running_var",
        "m1.tb.bn.running_mean", "m1.tb.bn.running_var",
        "m2.tb.bn.running_mean", "m2.tb.bn.running_var",
        "m3.tb.bn.running_mean", "m3.tb.bn.running_var",
        "m4.tb.bn.running_mean", "m4.tb.bn.running_var",
        "m5.tb.bn.running_mean", "m5.tb.bn.running_var",
    ],
    CrcVariant.SHARED_BN_RELU: [
        "stem.w", "stem.bn.gamma", "stem.bn.beta",
        "m0.crc.w_x", "m0.crc.w_h", "m0.crc.bn0.gamma", "m0.crc.bn0.beta", "m0.tb.a",
        "m0.tb.bn.gamma", "m0.tb.bn.beta",
        "m1.crc.w_x", "m1.crc.w_h", "m1.crc.bn0.gamma", "m1.crc.bn0.beta", "m1.tb.a",
        "m1.tb.bn.gamma", "m1.tb.bn.beta",
        "m2.crc.w_x", "m2.crc.w_h", "m2.crc.bn0.gamma", "m2.crc.bn0.beta", "m2.tb.a",
        "m2.tb.bn.gamma", "m2.tb.bn.beta",
        "m3.crc.w_x", "m3.crc.w_h", "m3.crc.bn0.gamma", "m3.crc.bn0.beta", "m3.tb.a",
        "m3.tb.bn.gamma", "m3.tb.bn.beta",
        "m4.crc.w_x", "m4.crc.w_h", "m4.crc.bn0.gamma", "m4.crc.bn0.beta", "m4.tb.a",
        "m4.tb.bn.gamma", "m4.tb.bn.beta",
        "m5.crc.w_x", "m5.crc.w_h", "m5.crc.bn0.gamma", "m5.crc.bn0.beta", "m5.tb.a",
        "m5.tb.bn.gamma", "m5.tb.bn.beta",
        "fc.w", "fc.b",
        "stem.bn.running_mean", "stem.bn.running_var",
        "m0.crc.bn0.running_mean", "m0.crc.bn0.running_var", "m0.tb.bn.running_mean",
        "m0.tb.bn.running_var",
        "m1.crc.bn0.running_mean", "m1.crc.bn0.running_var", "m1.tb.bn.running_mean",
        "m1.tb.bn.running_var",
        "m2.crc.bn0.running_mean", "m2.crc.bn0.running_var", "m2.tb.bn.running_mean",
        "m2.tb.bn.running_var",
        "m3.crc.bn0.running_mean", "m3.crc.bn0.running_var", "m3.tb.bn.running_mean",
        "m3.tb.bn.running_var",
        "m4.crc.bn0.running_mean", "m4.crc.bn0.running_var", "m4.tb.bn.running_mean",
        "m4.tb.bn.running_var",
        "m5.crc.bn0.running_mean", "m5.crc.bn0.running_var", "m5.tb.bn.running_mean",
        "m5.tb.bn.running_var",
    ],
    CrcVariant.SEPARATE_BN_RELU: [
        "stem.w", "stem.bn.gamma", "stem.bn.beta",
        "m0.crc.w_x", "m0.crc.w_h", "m0.crc.bn0.gamma", "m0.crc.bn0.beta", "m0.crc.bn1.gamma",
        "m0.crc.bn1.beta", "m0.tb.a", "m0.tb.bn.gamma", "m0.tb.bn.beta",
        "m1.crc.w_x", "m1.crc.w_h", "m1.crc.bn0.gamma", "m1.crc.bn0.beta", "m1.crc.bn1.gamma",
        "m1.crc.bn1.beta", "m1.tb.a", "m1.tb.bn.gamma", "m1.tb.bn.beta",
        "m2.crc.w_x", "m2.crc.w_h", "m2.crc.bn0.gamma", "m2.crc.bn0.beta", "m2.crc.bn1.gamma",
        "m2.crc.bn1.beta", "m2.tb.a", "m2.tb.bn.gamma", "m2.tb.bn.beta",
        "m3.crc.w_x", "m3.crc.w_h", "m3.crc.bn0.gamma", "m3.crc.bn0.beta", "m3.crc.bn1.gamma",
        "m3.crc.bn1.beta", "m3.tb.a", "m3.tb.bn.gamma", "m3.tb.bn.beta",
        "m4.crc.w_x", "m4.crc.w_h", "m4.crc.bn0.gamma", "m4.crc.bn0.beta", "m4.crc.bn1.gamma",
        "m4.crc.bn1.beta", "m4.tb.a", "m4.tb.bn.gamma", "m4.tb.bn.beta",
        "m5.crc.w_x", "m5.crc.w_h", "m5.crc.bn0.gamma", "m5.crc.bn0.beta", "m5.crc.bn1.gamma",
        "m5.crc.bn1.beta", "m5.tb.a", "m5.tb.bn.gamma", "m5.tb.bn.beta",
        "fc.w", "fc.b",
        "stem.bn.running_mean", "stem.bn.running_var",
        "m0.crc.bn0.running_mean", "m0.crc.bn0.running_var", "m0.crc.bn1.running_mean",
        "m0.crc.bn1.running_var", "m0.tb.bn.running_mean", "m0.tb.bn.running_var",
        "m1.crc.bn0.running_mean", "m1.crc.bn0.running_var", "m1.crc.bn1.running_mean",
        "m1.crc.bn1.running_var", "m1.tb.bn.running_mean", "m1.tb.bn.running_var",
        "m2.crc.bn0.running_mean", "m2.crc.bn0.running_var", "m2.crc.bn1.running_mean",
        "m2.crc.bn1.running_var", "m2.tb.bn.running_mean", "m2.tb.bn.running_var",
        "m3.crc.bn0.running_mean", "m3.crc.bn0.running_var", "m3.crc.bn1.running_mean",
        "m3.crc.bn1.running_var", "m3.tb.bn.running_mean", "m3.tb.bn.running_var",
        "m4.crc.bn0.running_mean", "m4.crc.bn0.running_var", "m4.crc.bn1.running_mean",
        "m4.crc.bn1.running_var", "m4.tb.bn.running_mean", "m4.tb.bn.running_var",
        "m5.crc.bn0.running_mean", "m5.crc.bn0.running_var", "m5.crc.bn1.running_mean",
        "m5.crc.bn1.running_var", "m5.tb.bn.running_mean", "m5.tb.bn.running_var",
    ],
    CrcVariant.LINEAR: [
        "stem.w", "stem.bn.gamma", "stem.bn.beta",
        "m0.crc.w_x", "m0.crc.w_h", "m0.crc.b", "m0.crc.bn0.gamma", "m0.crc.bn0.beta",
        "m0.crc.bn1.gamma", "m0.crc.bn1.beta", "m0.tb.a", "m0.tb.bn.gamma", "m0.tb.bn.beta",
        "m1.crc.w_x", "m1.crc.w_h", "m1.crc.b", "m1.crc.bn0.gamma", "m1.crc.bn0.beta",
        "m1.crc.bn1.gamma", "m1.crc.bn1.beta", "m1.tb.a", "m1.tb.bn.gamma", "m1.tb.bn.beta",
        "m2.crc.w_x", "m2.crc.w_h", "m2.crc.b", "m2.crc.bn0.gamma", "m2.crc.bn0.beta",
        "m2.crc.bn1.gamma", "m2.crc.bn1.beta", "m2.tb.a", "m2.tb.bn.gamma", "m2.tb.bn.beta",
        "m3.crc.w_x", "m3.crc.w_h", "m3.crc.b", "m3.crc.bn0.gamma", "m3.crc.bn0.beta",
        "m3.crc.bn1.gamma", "m3.crc.bn1.beta", "m3.tb.a", "m3.tb.bn.gamma", "m3.tb.bn.beta",
        "m4.crc.w_x", "m4.crc.w_h", "m4.crc.b", "m4.crc.bn0.gamma", "m4.crc.bn0.beta",
        "m4.crc.bn1.gamma", "m4.crc.bn1.beta", "m4.tb.a", "m4.tb.bn.gamma", "m4.tb.bn.beta",
        "m5.crc.w_x", "m5.crc.w_h", "m5.crc.b", "m5.crc.bn0.gamma", "m5.crc.bn0.beta",
        "m5.crc.bn1.gamma", "m5.crc.bn1.beta", "m5.tb.a", "m5.tb.bn.gamma", "m5.tb.bn.beta",
        "fc.w", "fc.b",
        "stem.bn.running_mean", "stem.bn.running_var",
        "m0.crc.bn0.running_mean", "m0.crc.bn0.running_var", "m0.crc.bn1.running_mean",
        "m0.crc.bn1.running_var", "m0.tb.bn.running_mean", "m0.tb.bn.running_var",
        "m1.crc.bn0.running_mean", "m1.crc.bn0.running_var", "m1.crc.bn1.running_mean",
        "m1.crc.bn1.running_var", "m1.tb.bn.running_mean", "m1.tb.bn.running_var",
        "m2.crc.bn0.running_mean", "m2.crc.bn0.running_var", "m2.crc.bn1.running_mean",
        "m2.crc.bn1.running_var", "m2.tb.bn.running_mean", "m2.tb.bn.running_var",
        "m3.crc.bn0.running_mean", "m3.crc.bn0.running_var", "m3.crc.bn1.running_mean",
        "m3.crc.bn1.running_var", "m3.tb.bn.running_mean", "m3.tb.bn.running_var",
        "m4.crc.bn0.running_mean", "m4.crc.bn0.running_var", "m4.crc.bn1.running_mean",
        "m4.crc.bn1.running_var", "m4.tb.bn.running_mean", "m4.tb.bn.running_var",
        "m5.crc.bn0.running_mean", "m5.crc.bn0.running_var", "m5.crc.bn1.running_mean",
        "m5.crc.bn1.running_var", "m5.tb.bn.running_mean", "m5.tb.bn.running_var",
    ],
}


@pytest.mark.parametrize("variant", list(CrcVariant), ids=lambda v: v.value)
def test_tensor_order_pinned(variant):
    cfg = RecNetConfig.from_arch_string("1,2,2,2,2,2,2", variant=variant)
    assert [name for name, _ in build(cfg, seed=0).named_tensors()] == TENSOR_ORDER[variant]
