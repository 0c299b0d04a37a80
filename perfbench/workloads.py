"""The benchmark's workloads.

Each workload is built from the seed (its set-up), exposes one timed
operation `op()` that returns whether the operation's outputs were finite,
and a `checks()` method that compares its outputs against a second,
independent computation outside the timed region. Everything reaches
recnet through its public functions.
"""

import os

import numpy as np

from recnet import RecNetConfig, build, sgd_step, train
from recnet.checkpoint import load_checkpoint, restore_model
from recnet.data import DataBundle, Normalizer, synthetic_split
from recnet.train import OptimizerState, TrainConfig, TrainingDiverged, softmax_cross_entropy

REF_ARCH = "4,8,8,8,5,10,15"
SMOKE_ARCH = "1,2,2,2,2,2,2"
N_CLASSES = 10
BATCH = 64

# Normwise relative-error tolerances. Logits and the merged/naive forms are
# well conditioned: float32 roundoff (6e-8) grows to about 2e-6 there. The
# gradients are not: perturbing the float64 model's weights and input by
# float32-sized relative noise moves its gradients by up to 2e-2 (batch-norm
# over 8 samples and ReLU masks, compounded through 13 conv layers and their
# recurrence steps). A wrong gradient term shows as an error of order 1.
LOGIT_TOL = 1e-4
GRAD_TOL = 1e-1
FORM_TOL = 1e-4


def rel_err(a, b):
    """Normwise relative error of a against the reference b."""
    b = np.asarray(b, dtype=np.float64)
    scale = np.linalg.norm(b)
    diff = np.linalg.norm(np.asarray(a, dtype=np.float64) - b)
    return diff / scale if scale > 0 else diff


def tolerance_check(name, got, want, tol):
    """(name, passed, detail) for a normwise comparison."""
    err = rel_err(got, want)
    return name, bool(err <= tol), f"rel_err={err:.2e} tol={tol:.0e}"


def identity_check(name, same):
    return name, bool(same), "identical" if same else "differ"


def seeded_head(model, rng):
    """Replace the zero-initialized classifier with random weights, so logits
    and every hidden gradient depend on the whole network."""
    w = model.fc_w.data
    w[...] = rng.normal(0.0, np.sqrt(1.0 / w.shape[1]), w.shape)


def fixed_batches(seed, count):
    """`count` pre-normalized synthetic batches of BATCH images."""
    ds = synthetic_split(count * BATCH, N_CLASSES, seed, "train")
    norm = Normalizer.fit(ds)
    return [(norm.apply(ds.images[i:i + BATCH]), ds.labels[i:i + BATCH])
            for i in range(0, count * BATCH, BATCH)]


def ref_model(seed, dtype=None):
    cfg = RecNetConfig.from_arch_string(REF_ARCH, n_classes=N_CLASSES)
    model = build(cfg, seed=seed, dtype=dtype)
    seeded_head(model, np.random.default_rng(seed))
    return model


class TrainRef:
    """Full training steps of the reference network on fixed batches."""

    name = "train-ref"
    unit_name = "training step of 64 samples"
    batch = BATCH

    def headline(self, op_s):
        return "train_samples_per_s", "1/s", BATCH / op_s

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.model = ref_model(seed)
        self.batches = fixed_batches(seed, 2)
        self.tcfg = TrainConfig()
        self.state = OptimizerState()
        self.decay = self.model.decay_names()
        self.steps = 0

    def _step(self, model, x, y):
        logits, cache = model.forward_cached(x)
        loss, dlogits = softmax_cross_entropy(logits, y)
        model.zero_grad()
        model.backward(cache, dlogits.astype(logits.dtype))
        return logits, loss

    def op(self):
        x, y = self.batches[self.steps % len(self.batches)]
        self.steps += 1
        logits, loss = self._step(self.model, x, y)
        sgd_step(self.model.named_params(), self.state, self.tcfg.lr0, self.tcfg, self.decay)
        return bool(np.isfinite(loss) and np.isfinite(logits).all())

    def checks(self):
        """First-step logits and every parameter gradient on an 8-sample
        slice, against a float64 model carrying the same weights."""
        m32 = ref_model(self.seed)
        m64 = ref_model(self.seed, dtype=np.float64)
        for (_, dst), (_, src) in zip(m64.named_tensors(), m32.named_tensors()):
            dst[...] = src
        x, y = self.batches[0][0][:8], self.batches[0][1][:8]
        logits32, _ = self._step(m32, x, y)
        logits64, _ = self._step(m64, x.astype(np.float64), y)
        results = [tolerance_check("f64 logits", logits32, logits64, LOGIT_TOL)]
        grads64 = dict(m64.named_params())
        for name, p in m32.named_params():
            results.append(tolerance_check(f"f64 grad {name}", p.grad, grads64[name].grad, GRAD_TOL))
        return results


class InferRef:
    """Eval-mode inference of the reference network in the merged form."""

    name = "infer-ref"
    unit_name = "inference batch of 64 samples"
    batch = BATCH

    def headline(self, op_s):
        return "infer_samples_per_s", "1/s", BATCH / op_s

    def __init__(self, seed, work_dir):
        self.model = ref_model(seed)
        self.model.set_mode("eval")
        self.batches = fixed_batches(seed, 2)
        self.calls = 0

    def op(self):
        x, _ = self.batches[self.calls % len(self.batches)]
        self.calls += 1
        return bool(np.isfinite(self.model.forward(x)).all())

    def checks(self):
        """Merged-form logits against naive-form logits on a 16-sample slice."""
        x = self.batches[0][0][:16]
        merged = self.model.forward(x)
        for mod in self.model.modules:
            mod.mode = "naive"
        try:
            naive = self.model.forward(x)
        finally:
            for mod in self.model.modules:
                mod.mode = "merged"
        return [tolerance_check("merged vs naive logits", merged, naive, FORM_TOL)]


class EpochSmoke:
    """Whole train() epochs of the smoke network on the synthetic set, with
    the metrics log and checkpoint written every epoch."""

    name = "epoch-smoke"
    unit_name = "train() epoch over 512 samples"
    batch = BATCH

    def headline(self, op_s):
        return "epoch_s", "s", op_s

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.cfg = RecNetConfig.from_arch_string(SMOKE_ARCH, n_classes=N_CLASSES)
        self.bundle = DataBundle.synthetic(512, 128, N_CLASSES, seed)
        self.model = build(self.cfg, seed=seed)
        self.epochs = 0

    def _epoch(self, model, out_dir, seed):
        tcfg = TrainConfig(epochs=1, restart_epochs=(), seed=seed)
        return train(model, self.bundle, tcfg, out_dir=out_dir)

    def op(self):
        self.epochs += 1
        try:
            rows = self._epoch(self.model, os.path.join(self.work_dir, "timed"),
                               self.seed + self.epochs)
        except TrainingDiverged:
            return False
        return bool(np.isfinite([rows[0].train_loss, rows[0].test_loss]).all())

    def checks(self):
        """Two same-seed runs write byte-identical metrics CSV and checkpoint,
        and the restored checkpoint reproduces the trained model's logits."""
        models, blobs = [], []
        for run in ("check-a", "check-b"):
            model = build(self.cfg, seed=self.seed)
            out_dir = os.path.join(self.work_dir, run)
            self._epoch(model, out_dir, self.seed)
            models.append(model)
            blobs.append([_read(os.path.join(out_dir, f)) for f in ("metrics.csv", "model.ckpt")])
        tensors, _ = load_checkpoint(os.path.join(self.work_dir, "check-a", "model.ckpt"))
        restored = build(self.cfg, seed=self.seed + 1)
        restore_model(restored, tensors)
        restored.set_mode("eval")
        models[0].set_mode("eval")
        x = self.bundle.normalizer.apply(self.bundle.test.images[:64])
        return [identity_check("same-seed metrics CSV", blobs[0][0] == blobs[1][0]),
                identity_check("same-seed checkpoint", blobs[0][1] == blobs[1][1]),
                identity_check("restored checkpoint logits",
                               np.array_equal(models[0].forward(x), restored.forward(x)))]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


WORKLOADS = {w.name: w for w in (TrainRef, InferRef, EpochSmoke)}
