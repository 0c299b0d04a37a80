import numpy as np
import pytest

from recnet import crc as crc_mod
from recnet import model as model_mod
from recnet import rec as rec_mod
from recnet import tensor
from recnet.crc import CrcVariant
from recnet.errors import ConfigError
from recnet.model import (
    RecNetConfig,
    acronym,
    build,
    crc_layer_flops,
    crc_layer_params,
    dense_conv_params,
    flop_count,
    ledger,
    ledger_csv,
    ledger_text,
    module_layout,
    param_count,
)

REFERENCE = RecNetConfig(4, 8, 16, 32, 10, 10, 10, n_classes=100)

FAMILY = [
    ("4,4,8,16,10,10,10", "RecNet-60-640"),
    ("4,4,8,16,15,15,15", "RecNet-90-960"),
    ("4,4,8,16,20,20,20", "RecNet-120-1280"),
    ("4,8,16,32,10,10,10", "RecNet-60-1280"),
    ("4,8,16,32,15,15,15", "RecNet-90-1920"),
    ("4,8,16,32,20,20,20", "RecNet-120-2560"),
    ("4,8,8,8,5,10,15", "RecNet-60-480"),
    ("4,8,8,8,10,15,20", "RecNet-90-640"),
    ("4,8,8,8,10,20,30", "RecNet-120-960"),
    ("4,16,16,16,5,10,15", "RecNet-60-960"),
    ("4,16,16,16,10,15,20", "RecNet-90-1280"),
    ("4,16,16,16,10,20,30", "RecNet-120-1920"),
]


class TestConfig:
    def test_arch_string_round_trip(self):
        cfg = RecNetConfig.from_arch_string("4,8,16,32,10,10,10")
        assert cfg.arch_string() == "4,8,16,32,10,10,10"
        assert cfg.tuple7 == (4, 8, 16, 32, 10, 10, 10)

    def test_parse_errors_name_field(self):
        with pytest.raises(ConfigError, match="7 comma-separated"):
            RecNetConfig.from_arch_string("4,8")
        with pytest.raises(ConfigError, match="S2"):
            RecNetConfig.from_arch_string("4,8,x,32,10,10,10")

    def test_positive_fields(self):
        with pytest.raises(ConfigError):
            RecNetConfig(0, 8, 16, 32, 10, 10, 10)
        with pytest.raises(ConfigError):
            RecNetConfig(4, 8, 16, 32, 10, -1, 10)

    def test_kernel_choices(self):
        with pytest.raises(ConfigError):
            RecNetConfig(4, 8, 16, 32, 10, 10, 10, k_x=2)


class TestAcronym:
    @pytest.mark.parametrize("arch,expected", FAMILY)
    def test_family_acronyms(self, arch, expected):
        assert acronym(RecNetConfig.from_arch_string(arch)) == expected

    def test_depth_counts_both_layers_per_stage(self):
        assert acronym(RecNetConfig(4, 8, 8, 8, 5, 10, 15)) == "RecNet-60-480"


class TestAccounting:
    def test_reference_crc_layer(self):
        assert crc_layer_params(16, 64, 10, convention="with-bn") == 47_360
        assert crc_layer_params(16, 64, 10, convention="formula-only") == 46_080
        assert dense_conv_params(160, 640, 3) == 921_600

    def test_crc_flop_example(self):
        # 32x32, 64 in/out channels, k=3, d=4.
        assert crc_layer_flops(64, 64, 4, 32, 32) == 18_874_368 + 131_072

    def test_d1_flops_are_two_dense_convs_plus_additions(self):
        c, h = 6, 8
        expect = h * h * (9 * c + 9 * c) * c + 2 * h * h * c
        assert crc_layer_flops(c, c, 1, h, h) == expect

    def test_parameter_and_flop_scaling_in_d(self):
        # Fixed layer channels: parameters fall as 1/d^2, FLOPs as 1/d.
        c = 64
        params_d = {d: crc_layer_params(c // d, c // d, d, convention="formula-only")
                    for d in (1, 2, 4)}
        assert params_d[2] * 4 == params_d[1]
        assert params_d[4] * 16 == params_d[1]
        flops = {d: crc_layer_flops(c, c, d, 8, 8) - 2 * 64 * c for d in (1, 2, 4)}
        assert flops[2] * 2 == flops[1]
        assert flops[4] * 4 == flops[1]

    def test_reference_total_close_to_published(self):
        _, total = param_count(REFERENCE, "with-bn")
        assert abs(total / 1_769_000 - 1) < 0.05

    def test_kernel_variant_totals(self):
        for (kx, kh), ref in (((3, 1), 1_425_000), ((1, 3), 1_683_000)):
            cfg = RecNetConfig(4, 8, 16, 32, 10, 10, 10, n_classes=100, k_x=kx, k_h=kh)
            _, total = param_count(cfg, "with-bn")
            assert abs(total / ref - 1) < 0.05

    def test_monotone_in_expansion_and_depth(self):
        base = RecNetConfig(2, 4, 4, 4, 3, 3, 3)
        totals = []
        for e in (1, 2, 3, 4):
            cfg = RecNetConfig(e, 4, 4, 4, 3, 3, 3)
            totals.append(param_count(cfg, "with-bn")[1])
        assert all(a < b for a, b in zip(totals, totals[1:]))
        _, t0 = param_count(base, "with-bn")
        for field in ("d1", "d2", "d3"):
            kwargs = dict(e=2, s1=4, s2=4, s3=4, d1=3, d2=3, d3=3)
            kwargs[field] = 4
            assert param_count(RecNetConfig(**kwargs), "with-bn")[1] > t0

    def test_table_columns_for_reference_config(self):
        rows = ledger(REFERENCE)
        got = [(r.name.split(" (")[0], r.out_channels, r.out_h) for r in rows]
        assert got == [
            ("CONV", 80, 32),
            ("CRC", 320, 32), ("TB", 80, 32), ("CRC", 320, 32), ("TB", 160, 32),
            ("Max Pooling", 160, 16),
            ("CRC", 640, 16), ("TB", 160, 16), ("CRC", 640, 16), ("TB", 320, 16),
            ("Max Pooling", 320, 8),
            ("CRC", 1280, 8), ("TB", 320, 8), ("CRC", 1280, 8), ("TB", 320, 8),
            ("Average Pooling", 320, 1),
            ("Linear", 100, 1),
        ]

    def test_ledger_csv_shape(self):
        rows = ledger(REFERENCE)
        lines = ledger_csv(rows).splitlines()
        assert lines[0] == "layer,out_channels,out_h,out_w,params,flops"
        assert len(lines) == len(rows) + 1
        assert ledger_text(rows, REFERENCE)  # renders without error

    def test_exact_count_matches_built_model(self):
        rng = np.random.default_rng(0)
        variants = list(CrcVariant)
        for trial in range(20):
            cfg = RecNetConfig(
                e=int(rng.integers(1, 4)),
                s1=int(rng.integers(1, 4)), s2=int(rng.integers(1, 4)),
                s3=int(rng.integers(1, 4)),
                d1=int(rng.integers(1, 5)), d2=int(rng.integers(1, 5)),
                d3=int(rng.integers(1, 5)),
                n_classes=int(rng.integers(2, 12)),
                variant=variants[trial % len(variants)],
                k_x=int(rng.choice([1, 3])), k_h=int(rng.choice([1, 3])),
            )
            model = build(cfg, seed=trial)
            _, total = param_count(cfg, "with-bn-and-bias")
            assert total == model.num_params(), cfg

    def test_flop_count_totals(self):
        rows, total = flop_count(REFERENCE)
        assert total == sum(r.flops for r in rows)
        assert total > 0


class TestBuiltModel:
    def test_reference_wiring(self):
        model = build(REFERENCE, seed=0)
        assert model.stem_w.shape == (80, 3, 3, 3)
        crc_out = [m.crc.c_out for m in model.modules]
        assert crc_out == [320, 320, 640, 640, 1280, 1280]
        tb_out = [m.tb.c_out for m in model.modules]
        assert tb_out == [80, 160, 160, 320, 320, 320]
        assert model.fc_w.shape == (100, 320)

    def test_forward_shape(self):
        cfg = RecNetConfig(2, 2, 2, 2, 2, 2, 2, n_classes=100)
        model = build(cfg, seed=1)
        x = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(np.float32)
        assert model.forward(x).shape == (2, 100)

    def test_minimal_config_builds_and_runs(self):
        cfg = RecNetConfig(1, 1, 1, 1, 1, 1, 1, n_classes=2)
        model = build(cfg, seed=0)
        x = np.zeros((1, 3, 32, 32), dtype=np.float32)
        assert model.forward(x).shape == (1, 2)

    def test_set_mode_checks_its_argument_and_changes_nothing(self):
        model = build(RecNetConfig(1, 1, 1, 1, 1, 1, 1, n_classes=2), seed=0)

        def snapshot():
            return [(sorted(vars(s)), s.running_mean.copy(), s.running_var.copy())
                    for _, s in model.named_bn_states()]

        before = snapshot()
        forms = [m.mode for m in model.modules]
        for mode in ("eval", "train"):
            model.set_mode(mode)
        with pytest.raises(ConfigError, match="unknown mode"):
            model.set_mode("test")
        for (keys, mean, var), (keys2, mean2, var2) in zip(snapshot(), before, strict=True):
            assert keys == keys2
            assert np.array_equal(mean, mean2) and np.array_equal(var, var2)
        assert [m.mode for m in model.modules] == forms

    def test_acronym_recomputable_from_built_model(self):
        cfg = RecNetConfig(4, 8, 8, 8, 5, 10, 15)
        model = build(cfg, seed=0)
        depth = 2 * sum(m.crc.d for m in model.modules) // 2
        width = max(m.crc.c_out for m in model.modules)
        assert f"RecNet-{depth}-{width}" == acronym(cfg)

    @pytest.mark.parametrize("variant", [CrcVariant.RELU, CrcVariant.SEPARATE_BN_RELU],
                             ids=["bias", "bn"])
    def test_decay_set_excludes_bn_and_bias(self, variant):
        # Exactly the convolution and linear weights, whether the layers carry
        # a bias or BN states.
        model = build(RecNetConfig(1, 1, 1, 1, 1, 1, 1, variant=variant), seed=0)
        assert model.decay_names() == {
            "stem.w",
            "m0.crc.w_x", "m0.crc.w_h", "m0.tb.a", "m1.crc.w_x", "m1.crc.w_h", "m1.tb.a",
            "m2.crc.w_x", "m2.crc.w_h", "m2.tb.a", "m3.crc.w_x", "m3.crc.w_h", "m3.tb.a",
            "m4.crc.w_x", "m4.crc.w_h", "m4.tb.a", "m5.crc.w_x", "m5.crc.w_h", "m5.tb.a",
            "fc.w",
        }

    def test_training_forward_backward_runs(self):
        cfg = RecNetConfig(1, 1, 1, 1, 2, 2, 2, n_classes=2)
        model = build(cfg, seed=0)
        x = np.random.default_rng(1).standard_normal((2, 3, 32, 32)).astype(np.float32)
        logits, cache = model.forward_cached(x)
        model.zero_grad()
        model.backward(cache, np.ones_like(logits))
        grads = [name for name, p in model.named_params() if p.grad is not None]
        assert "stem.w" in grads and "fc.w" in grads


def count_macs(monkeypatch):
    """Wrap the conv and linear primitives where crc, rec and model bind
    them; the returned dict adds up each call's multiply-adds from its
    shapes, forward and backward apart. A conv is N*C_out*C_in*kh*kw*H*W,
    doubled in a backward that returns grad_x; a linear layer is N*F*K,
    doubled in the backward."""
    macs = {"forward": 0, "backward": 0}

    def weight_shape(w):
        return np.shape(getattr(w, "data", w))

    def conv_forward(x, w, bias=None, add_to=None):
        y = tensor.conv2d_forward(x, w, bias=bias, add_to=add_to)
        _, c_in, kh, kw = weight_shape(w)
        macs["forward"] += y.size * c_in * kh * kw
        return y

    def conv_backward(x, w, grad_out, need_grad_x=True):
        _, c_in, kh, kw = weight_shape(w)
        macs["backward"] += np.size(grad_out) * c_in * kh * kw * (2 if need_grad_x else 1)
        return tensor.conv2d_backward(x, w, grad_out, need_grad_x)

    def fc_forward(x, w, b):
        y = tensor.linear_forward(x, w, b)
        macs["forward"] += y.size * weight_shape(w)[1]
        return y

    def fc_backward(x, w, grad_out):
        macs["backward"] += 2 * np.size(grad_out) * weight_shape(w)[1]
        return tensor.linear_backward(x, w, grad_out)

    for module in (crc_mod, rec_mod, model_mod):
        monkeypatch.setattr(module, "conv2d_forward", conv_forward)
        monkeypatch.setattr(module, "conv2d_backward", conv_backward)
    monkeypatch.setattr(model_mod, "linear_forward", fc_forward)
    monkeypatch.setattr(model_mod, "linear_backward", fc_backward)
    return macs


def executed_forward_macs(cfg):
    """Multiply-adds per sample of one forward, from ledger(). Each CRC row
    counts 2*H*W*C_out additions for the merge and bias, and d convolutions
    with W_h, where the recurrence runs d - 1 since h_{-1} = 0."""
    rows = ledger(cfg)
    crc_rows = [r for r in rows if r.name.startswith("CRC")]
    total = sum(r.flops for r in rows)
    for row, (_, s_out, _, _, _) in zip(crc_rows, module_layout(cfg), strict=True):
        hw = row.out_h * row.out_w
        total -= 2 * hw * row.out_channels + cfg.k_h ** 2 * s_out ** 2 * hw
    return total


@pytest.mark.parametrize("kernels", [(3, 3), (1, 1), (3, 1), (1, 3)])
@pytest.mark.parametrize("variant", [CrcVariant.RELU, CrcVariant.LINEAR])
@pytest.mark.parametrize("arch", ["1,2,2,2,2,2,2", "4,8,8,8,5,10,15"])
def test_executed_macs_match_the_ledger(monkeypatch, arch, variant, kernels):
    """The multiply-adds the convolutions and the classifier run, counted
    from their call shapes, against the ledger. The backward runs twice the
    forward's work but for the stem, which computes no image gradient."""
    cfg = RecNetConfig.from_arch_string(arch, variant=variant, k_x=kernels[0], k_h=kernels[1],
                                        in_size=8)
    model = build(cfg, seed=0)
    macs = count_macs(monkeypatch)
    n = 2
    x = np.random.default_rng(0).standard_normal((n, 3, 8, 8)).astype(np.float32)
    logits, cache = model.forward_cached(x)
    model.backward(cache, np.ones_like(logits))
    per_sample = executed_forward_macs(cfg)
    stem = ledger(cfg)[0].flops
    assert macs["backward"] == n * (2 * per_sample - stem)
    cached, macs["forward"] = macs["forward"], 0
    model.forward(x)
    assert macs["forward"] == cached
    # A mixed pair runs every step after the first as one convolution of
    # [x_i; h_{i-1}] at max(k_x, k_h), with the smaller kernel zero-embedded
    # (crc.step_kernel), so its forward runs more than the ledger counts
    # until the two kernels run apart.
    if kernels[0] == kernels[1]:
        assert cached == n * per_sample
