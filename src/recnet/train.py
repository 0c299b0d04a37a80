"""SGD with Nesterov momentum, cosine annealing with warm restarts, and the
training/evaluation loops.

The schedule follows the warm-restart recipe: the cosine is reset to the
initial rate at each restart epoch, and the rate is updated once per epoch.
Weight decay is applied to convolution and linear weights only; BN affine
parameters and biases are excluded, and momentum buffers survive restarts.
"""

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .checkpoint import save_model
from .data import minibatches
from .errors import ConfigError

METRICS_HEADER = "epoch,lr,train_loss,train_acc,test_loss,test_acc,seconds"


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    lr0: float = 0.1
    weight_decay: float = 0.0005
    momentum: float = 0.9
    batch: int = 64
    epochs: int = 200
    restart_epochs: tuple = (20, 60, 120)
    eta_min: float = 0.0
    seed: int = 0
    deterministic: bool = True
    augment: bool = True
    checkpoint_restarts: bool = False

    def __post_init__(self):
        self.restart_epochs = tuple(self.restart_epochs)
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch < 1:
            raise ConfigError(f"batch must be positive, got {self.batch}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name in ("lr0", "eta_min", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.restart_epochs and min(self.restart_epochs) < 0:
            raise ConfigError(f"restart epochs must be non-negative: {self.restart_epochs}")
        if any(r2 <= r1 for r1, r2 in zip(self.restart_epochs, self.restart_epochs[1:])):
            raise ConfigError(f"restart epochs must be strictly increasing: {self.restart_epochs}")
        if self.restart_epochs and self.epochs and self.restart_epochs[-1] >= self.epochs:
            raise ConfigError(
                f"restart epochs must lie below epochs={self.epochs}: {self.restart_epochs}")


def lr_at(epoch, cfg):
    """Learning rate for the given epoch under cosine annealing with warm
    restarts: within a period of length T starting at s,
    lr = eta_min + (lr0 - eta_min) * (1 + cos(pi*(epoch-s)/T)) / 2."""
    if epoch < 0 or epoch >= cfg.epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {cfg.epochs})")
    boundaries = [0, *cfg.restart_epochs, cfg.epochs]
    for s, e in zip(boundaries, boundaries[1:]):
        if s <= epoch < e:
            t = e - s
            return cfg.eta_min + 0.5 * (cfg.lr0 - cfg.eta_min) * (
                1.0 + math.cos(math.pi * (epoch - s) / t))
    raise AssertionError("unreachable")


class OptimizerState:
    """Per-parameter velocity buffers keyed by parameter name."""

    def __init__(self):
        self.velocity = {}


def sgd_step(named_params, state, lr, cfg, decay_names=frozenset()):
    """One Nesterov step: g <- grad (+ wd*param for decayed weights);
    v <- momentum*v + g; param <- param - lr*(g + momentum*v)."""
    for name, p in named_params:
        if p.grad is None:
            continue
        g = p.grad
        if cfg.weight_decay and name in decay_names:
            g = g + cfg.weight_decay * p.data
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(p.data)
            state.velocity[name] = v
        v *= cfg.momentum
        v += g
        p.data -= lr * (g + cfg.momentum * v)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch; returns (loss, dloss/dlogits)."""
    logits = np.asarray(logits, dtype=np.float64)
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    nll = -(shifted[np.arange(n), labels] - np.log(exp.sum(axis=1)))
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return float(nll.mean()), grad / n


@dataclass
class MetricsRow:
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float
    seconds: float

    def csv(self):
        return (f"{self.epoch},{self.lr:.10g},{self.train_loss:.6f},{self.train_acc:.6f},"
                f"{self.test_loss:.6f},{self.test_acc:.6f},{self.seconds:.3f}")


def evaluate(model, ds, normalizer, batch=256):
    """Top-1 accuracy and mean loss over a split; BN uses running stats.

    Raises TrainingDiverged, naming the split and batch, when the model
    outputs a non-finite logit."""
    model.set_mode("eval")
    total, correct, loss_sum = 0, 0, 0.0
    for batch_i, start in enumerate(range(0, len(ds), batch)):
        x = normalizer.apply(ds.images[start:start + batch])
        y = ds.labels[start:start + batch]
        logits = model.forward(x)
        if not np.isfinite(logits).all():
            raise TrainingDiverged(
                f"non-finite logits on the {ds.split} split, batch {batch_i}")
        loss, _ = softmax_cross_entropy(logits, y)
        loss_sum += loss * len(y)
        correct += int((logits.argmax(axis=1) == y).sum())
        total += len(y)
    return correct / total, loss_sum / total


def train(model, bundle, cfg, out_dir=None, log=None):
    """Full training loop; returns the list of MetricsRow.

    Per epoch: shuffled train pass (cross-entropy over softmax outputs),
    test evaluation, metrics append, checkpoint rewrite (atomic), so an
    interrupted run keeps its last completed epoch. With a fixed seed and
    the determinism flag the metrics log is bit-identical across runs.
    """
    decay = model.decay_names()
    state = OptimizerState()
    rows = []
    # Recorded in the checkpoint, so that evaluation can redraw the same set.
    synthetic = None
    if bundle.train.name == "synthetic":
        synthetic = (len(bundle.train), len(bundle.test))

    ckpt_path = metrics_path = None
    metrics_fh = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        ckpt_path = os.path.join(out_dir, "model.ckpt")
        metrics_path = os.path.join(out_dir, "metrics.csv")
        metrics_fh = open(metrics_path, "w")
        metrics_fh.write(METRICS_HEADER + "\n")
        metrics_fh.flush()

    try:
        if cfg.epochs == 0 and ckpt_path:
            save_model(ckpt_path, model, epoch=0, seed=cfg.seed, synthetic=synthetic)
        for epoch in range(cfg.epochs):
            started = time.monotonic()
            lr = lr_at(epoch, cfg)
            model.set_mode("train")
            epoch_seed = (cfg.seed * 1_000_003 + epoch) % (2 ** 63)
            seen, correct, loss_sum = 0, 0, 0.0
            for batch_i, (x, y) in enumerate(minibatches(
                    bundle.train, cfg.batch, seed=epoch_seed, augment=cfg.augment,
                    normalizer=bundle.normalizer)):
                logits, cache = model.forward_cached(x)
                loss, dlogits = softmax_cross_entropy(logits, y)
                if not math.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss {loss} at epoch {epoch}, batch {batch_i}")
                model.zero_grad()
                model.backward(cache, dlogits.astype(logits.dtype))
                sgd_step(model.named_params(), state, lr, cfg, decay)
                loss_sum += loss * len(y)
                correct += int((logits.argmax(axis=1) == y).sum())
                seen += len(y)
            test_acc, test_loss = evaluate(model, bundle.test, bundle.normalizer)
            # Under the determinism flag the log must be bit-identical across
            # runs, so wall time is not recorded.
            elapsed = 0.0 if cfg.deterministic else time.monotonic() - started
            row = MetricsRow(epoch, lr, loss_sum / seen, correct / seen,
                             test_loss, test_acc, elapsed)
            rows.append(row)
            if metrics_fh:
                metrics_fh.write(row.csv() + "\n")
                metrics_fh.flush()
            if log:
                log(f"epoch {epoch}: lr={lr:.4f} train_loss={row.train_loss:.4f} "
                    f"train_acc={row.train_acc:.4f} test_acc={row.test_acc:.4f}")
            if ckpt_path:
                save_model(ckpt_path, model, epoch=epoch, seed=cfg.seed, synthetic=synthetic)
                if cfg.checkpoint_restarts and (epoch + 1) in cfg.restart_epochs:
                    save_model(ckpt_path + f".epoch{epoch}", model, epoch, cfg.seed, synthetic)
    finally:
        if metrics_fh:
            metrics_fh.close()
    return rows
