import math
import os

import numpy as np
import pytest

from conftest import max_rel_err, metrics_csv, numerical_grad
from recnet.checkpoint import load_checkpoint, restore_model
from recnet.data import DataBundle, Normalizer
from recnet.errors import ConfigError
from recnet.model import RecNetConfig, build
from recnet.tensor import Param
from recnet.train import (
    METRICS_HEADER,
    OptimizerState,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    lr_at,
    sgd_step,
    softmax_cross_entropy,
    train,
)

DEFAULTS = TrainConfig()


class TestSchedule:
    def test_initial_rate(self):
        assert lr_at(0, DEFAULTS) == pytest.approx(0.1)

    @pytest.mark.parametrize("epoch", [20, 60, 120])
    def test_restarts_reset_to_peak(self, epoch):
        assert lr_at(epoch, DEFAULTS) == pytest.approx(0.1)

    def test_midpoint_of_first_period(self):
        assert lr_at(10, DEFAULTS) == pytest.approx(0.05)

    def test_closed_form_everywhere(self):
        boundaries = [0, 20, 60, 120, 200]
        for s, e in zip(boundaries, boundaries[1:]):
            t = e - s
            for k in range(20):
                epoch = s + int(k * t / 20)
                want = 0.5 * 0.1 * (1 + math.cos(math.pi * (epoch - s) / t))
                assert abs(lr_at(epoch, DEFAULTS) - want) < 1e-12

    def test_period_maxima(self):
        peaks = [e for e in range(200)
                 if lr_at(e, DEFAULTS) == pytest.approx(0.1, abs=1e-12)]
        assert peaks == [0, 20, 60, 120]

    def test_monotone_within_period(self):
        rates = [lr_at(e, DEFAULTS) for e in range(20, 60)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_epoch_out_of_range(self):
        with pytest.raises(ConfigError):
            lr_at(200, DEFAULTS)
        with pytest.raises(ConfigError):
            lr_at(-1, DEFAULTS)

    def test_restart_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(restart_epochs=(20, 20))
        with pytest.raises(ConfigError):
            TrainConfig(epochs=10, restart_epochs=(20,))

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("lr0", math.nan), ("lr0", math.inf), ("lr0", -0.1),
        ("eta_min", -1e-3), ("eta_min", math.inf), ("weight_decay", -1.0),
        ("weight_decay", math.nan), ("momentum", 1.0), ("momentum", -0.1),
        ("momentum", math.nan)])
    def test_optimizer_and_seed_validation(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_optimizer_bounds_are_accepted(self):
        TrainConfig(lr0=0.0, eta_min=0.0, weight_decay=0.0, momentum=0.0, seed=0)


class TestSgdStep:
    def test_zero_grads_leave_params(self):
        p = Param(np.array([1.0, 2.0]))
        state = OptimizerState()
        sgd_step([("p", p)], state, lr=0.1, cfg=TrainConfig())
        assert np.array_equal(p.data, [1.0, 2.0])
        assert state.velocity == {}

    def test_scalar_nesterov_update(self):
        p = Param(np.array([0.0]))
        p.grad = np.array([1.0])
        state = OptimizerState()
        cfg = TrainConfig(weight_decay=0.0)
        sgd_step([("p", p)], state, lr=0.1, cfg=cfg)
        assert state.velocity["p"][0] == pytest.approx(1.0)
        assert p.data[0] == pytest.approx(-0.19)

    def test_weight_decay_only_term(self):
        p = Param(np.array([1.0]))
        p.grad = np.array([0.0])
        state = OptimizerState()
        cfg = TrainConfig(weight_decay=0.0005)
        sgd_step([("w", p)], state, lr=0.1, cfg=cfg, decay_names={"w"})
        assert state.velocity["w"][0] == pytest.approx(0.0005)
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.00095)

    def test_decay_respects_exclusion(self):
        p = Param(np.array([1.0]))
        p.grad = np.array([0.0])
        state = OptimizerState()
        sgd_step([("bn.gamma", p)], state, lr=0.1,
                 cfg=TrainConfig(weight_decay=0.0005), decay_names={"w"})
        assert p.data[0] == pytest.approx(1.0)

    def test_lr_zero_changes_nothing(self, rng):
        p = Param(rng.standard_normal(5))
        p.grad = rng.standard_normal(5)
        before = p.data.copy()
        sgd_step([("w", p)], OptimizerState(), lr=0.0,
                 cfg=TrainConfig(), decay_names={"w"})
        assert np.array_equal(p.data, before)


class TestCrossEntropy:
    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = rng.standard_normal((4, 5))
        labels = rng.integers(0, 5, 4)
        loss, grad = softmax_cross_entropy(logits, labels)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        onehot = np.eye(5)[labels]
        assert np.allclose(grad, (probs - onehot) / 4)

    def test_gradient_finite_differences(self, rng):
        logits = rng.standard_normal((3, 4))
        labels = rng.integers(0, 4, 3)

        def loss():
            return softmax_cross_entropy(logits, labels)[0]

        _, grad = softmax_cross_entropy(logits, labels)
        assert max_rel_err(grad, numerical_grad(loss, logits, h=1e-6)) < 1e-6

    def test_uniform_logits_loss(self):
        loss, _ = softmax_cross_entropy(np.zeros((8, 10)), np.arange(8))
        assert loss == pytest.approx(math.log(10))


class _StubModel:
    """Reads the label planted in pixel (0,0,0): bright means class 1."""

    def set_mode(self, mode):
        pass

    def forward(self, x):
        score = np.asarray(x)[:, 0, 0, 0]
        return np.stack([-score, score], axis=1)


def _planted_dataset(n, seed):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, (n, 3, 32, 32), dtype=np.uint8)
    labels = rng.integers(0, 2, n)
    images[:, 0, 0, 0] = np.where(labels == 1, 255, 0)
    from recnet.data import Dataset

    return Dataset(images, labels, 2, "test")


class TestEvaluate:
    def test_perfect_oracle(self):
        ds = _planted_dataset(64, seed=0)
        acc, loss = evaluate(_StubModel(), ds, Normalizer.fit(ds))
        assert acc == 1.0

    def test_constant_logits_pick_first_class(self):
        class Constant:
            def set_mode(self, mode):
                pass

            def forward(self, x):
                return np.zeros((len(x), 2))

        ds = _planted_dataset(100, seed=1)
        acc, _ = evaluate(Constant(), ds, Normalizer.fit(ds))
        assert acc == pytest.approx((ds.labels == 0).mean())

    def test_non_finite_logits_name_split_and_batch(self):
        class NanInSecondBatch:
            calls = 0

            def set_mode(self, mode):
                pass

            def forward(self, x):
                self.calls += 1
                out = np.zeros((len(x), 2))
                out[0, 1] = np.nan if self.calls == 2 else 0.0
                return out

        ds = _planted_dataset(20, seed=3)
        with pytest.raises(TrainingDiverged, match="on the test split, batch 1"):
            evaluate(NanInSecondBatch(), ds, Normalizer.fit(ds), batch=8)

    def test_deterministic(self):
        ds = _planted_dataset(50, seed=2)
        norm = Normalizer.fit(ds)
        model = _StubModel()
        assert evaluate(model, ds, norm) == evaluate(model, ds, norm)


def _tiny_setup(seed=0, n=96):
    bundle = DataBundle.synthetic(n, 32, 2, seed=seed)
    cfg = RecNetConfig(1, 1, 1, 1, 1, 1, 1, n_classes=2)
    model = build(cfg, seed=seed)
    return model, bundle


class TestTrainLoop:
    def test_metrics_and_checkpoint_files(self, tmp_path):
        model, bundle = _tiny_setup()
        tcfg = TrainConfig(epochs=2, restart_epochs=(), seed=0, batch=32)
        rows = train(model, bundle, tcfg, out_dir=tmp_path)
        assert len(rows) == 2
        text = open(os.path.join(tmp_path, "metrics.csv")).read()
        assert text.splitlines()[0] == METRICS_HEADER
        assert len(text.splitlines()) == 3
        assert os.path.exists(os.path.join(tmp_path, "model.ckpt"))

    def test_bit_identical_reruns(self, tmp_path):
        logs = []
        ckpts = []
        for run in range(2):
            model, bundle = _tiny_setup(seed=5)
            tcfg = TrainConfig(epochs=2, restart_epochs=(), seed=5, batch=32)
            out = os.path.join(tmp_path, f"run{run}")
            rows = train(model, bundle, tcfg, out_dir=out)
            logs.append(metrics_csv(rows))
            ckpts.append(open(os.path.join(out, "model.ckpt"), "rb").read())
        assert logs[0] == logs[1]
        assert ckpts[0] == ckpts[1]

    def test_epochs_zero_writes_initial_checkpoint(self, tmp_path):
        model, bundle = _tiny_setup()
        tcfg = TrainConfig(epochs=0, restart_epochs=(), seed=0)
        rows = train(model, bundle, tcfg, out_dir=tmp_path)
        assert rows == []
        assert os.path.exists(os.path.join(tmp_path, "model.ckpt"))

    def test_checkpoint_at_each_restart(self, tmp_path):
        model, bundle = _tiny_setup()
        tcfg = TrainConfig(epochs=4, restart_epochs=(1, 3), seed=0, batch=32,
                           checkpoint_restarts=True)
        train(model, bundle, tcfg, out_dir=tmp_path)
        kept = sorted(f for f in os.listdir(tmp_path) if f.startswith("model.ckpt."))
        assert kept == ["model.ckpt.epoch0", "model.ckpt.epoch2"]
        for epoch in (0, 2):
            tensors, meta = load_checkpoint(os.path.join(tmp_path, f"model.ckpt.epoch{epoch}"))
            assert meta["epoch"] == epoch
            restore_model(_tiny_setup()[0], tensors)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_aborts_with_location(self):
        model, bundle = _tiny_setup()
        tcfg = TrainConfig(epochs=2, restart_epochs=(), seed=0, batch=32, lr0=1e18)
        with pytest.raises(TrainingDiverged, match=r"epoch \d+, batch \d+"):
            train(model, bundle, tcfg)
