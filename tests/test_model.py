import numpy as np
import pytest

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
        model.set_mode("eval")
        x = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(np.float32)
        assert model.forward(x).shape == (2, 100)

    def test_minimal_config_builds_and_runs(self):
        cfg = RecNetConfig(1, 1, 1, 1, 1, 1, 1, n_classes=2)
        model = build(cfg, seed=0)
        model.set_mode("eval")
        x = np.zeros((1, 3, 32, 32), dtype=np.float32)
        assert model.forward(x).shape == (1, 2)

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
