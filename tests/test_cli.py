import argparse
import dataclasses
import inspect
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from recnet import checkpoint as ckpt
from recnet.cli import _arch_config, _train_config, build_parser, main
from recnet.crc import CrcVariant
from recnet.data import serialize_records
from recnet.model import RecNetConfig, build
from recnet.tensor import (
    BnState,
    batchnorm_backward,
    batchnorm_forward,
    batchnorm_replay,
    conv2d_backward,
    conv2d_forward,
)
from recnet.train import TrainConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDescribe:
    def test_reference_network(self, capsys):
        code, out, _ = run(capsys, "describe", "4,8,16,32,10,10,10", "--classes", "100")
        assert code == 0
        assert "acronym=RecNet-60-1280" in out
        total = int(out.split("params=")[1].split()[0])
        assert abs(total / 1_769_000 - 1) < 0.05

    def test_family_row_acronym(self, capsys):
        code, out, _ = run(capsys, "describe", "4,4,8,16,10,10,10")
        assert code == 0
        assert "acronym=RecNet-60-640" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "describe", "4,8,16,32,10,10,10", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "layer,out_channels,out_h,out_w,params,flops"
        assert len(lines) == 19  # 17 rows + header + summary line

    def test_malformed_arch_exits_2(self, capsys):
        code, _, err = run(capsys, "describe", "4,8")
        assert code == 2
        assert "7 comma-separated" in err

    def test_bad_field_named(self, capsys):
        code, _, err = run(capsys, "describe", "4,8,oops,32,10,10,10")
        assert code == 2
        assert "S2" in err

    def test_no_arguments_usage(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_flag_usage(self, capsys):
        assert run(capsys, "describe", "1,1,1,1,1,1,1", "--bogus")[0] == 2


# Every knob the CLI and its config dataclasses expose, written out so that
# a new option, or a deleted one, shows up in review as an edit here.
OPTIONS = {
    "describe": {"arch", "--variant", "--kx", "--kh", "--classes", "--convention", "--format"},
    "train": {"arch", "--variant", "--kx", "--kh", "--data", "--dataset", "--synthetic",
              "--synthetic-classes", "--synthetic-train", "--synthetic-test", "--out",
              "--epochs", "--batch", "--lr0", "--weight-decay", "--momentum", "--eta-min",
              "--restarts", "--seed", "--no-augment", "--checkpoint-restarts"},
    "eval": {"--ckpt", "--data", "--dataset", "--synthetic"},
    "verify": {"--suite", "--seed", "--trials"},
}
TRAIN_CONFIG_FIELDS = ["lr0", "weight_decay", "momentum", "batch", "epochs", "restart_epochs",
                       "eta_min", "seed", "augment", "checkpoint_restarts"]
RECNET_CONFIG_FIELDS = ["e", "s1", "s2", "s3", "d1", "d2", "d3", "n_classes", "variant",
                        "k_x", "k_h", "in_size"]


def test_option_census():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {name: {"/".join(a.option_strings) or a.dest for a in p._actions} - {"-h/--help"}
             for name, p in sub.choices.items()}
    assert found == OPTIONS
    assert [f.name for f in dataclasses.fields(TrainConfig)] == TRAIN_CONFIG_FIELDS
    assert [f.name for f in dataclasses.fields(RecNetConfig)] == RECNET_CONFIG_FIELDS


def test_conv_parameter_census():
    """Every convolution is same-padded and stride-1: the conv primitives
    take no padding or stride argument."""
    assert list(inspect.signature(conv2d_forward).parameters) == ["x", "w", "bias", "add_to"]
    assert list(inspect.signature(conv2d_backward).parameters) == [
        "x", "w", "grad_out", "need_grad_x"]


def test_bn_parameter_census():
    """A BN state covers all of its input's channels: the BN primitives
    take no channel-slice argument."""
    assert list(inspect.signature(batchnorm_forward).parameters) == ["x", "s", "out", "stats"]
    assert list(inspect.signature(batchnorm_replay).parameters) == ["x", "s", "stats", "out"]
    assert list(inspect.signature(batchnorm_backward).parameters) == [
        "x", "s", "grad_out", "stats", "out"]


def test_bn_state_census():
    """A BN state holds its affine pair and running statistics and no mode:
    the entry point picks batch norm's mode."""
    assert set(vars(BnState(1))) == {"gamma", "beta", "running_mean", "running_var"}


def test_python_dash_m_runs_the_cli():
    """`python -m recnet` with the source tree on PYTHONPATH, no install."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    ok = subprocess.run([sys.executable, "-m", "recnet", "describe", "1,2,2,2,2,2,2"],
                        env=env, capture_output=True, text=True, timeout=120)
    assert ok.returncode == 0, ok.stderr
    assert "acronym=RecNet-12-4" in ok.stdout
    bad = subprocess.run([sys.executable, "-m", "recnet", "describe", "4,8"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert bad.returncode == 2


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    code = main(["train", "1,1,1,1,1,1,1", "--synthetic", "--epochs", "2",
                 "--seed", "11", "--out", out, "--restarts", ""])
    assert code == 0
    return out


class TestTrainEval:
    def test_outputs_exist(self, trained):
        assert os.path.exists(os.path.join(trained, "model.ckpt"))
        assert os.path.exists(os.path.join(trained, "metrics.csv"))

    def test_metrics_rows(self, trained):
        lines = open(os.path.join(trained, "metrics.csv")).read().splitlines()
        assert lines[0].startswith("epoch,lr,")
        assert len(lines) == 3

    def test_eval_reproduces_logged_accuracy(self, trained, capsys):
        last = open(os.path.join(trained, "metrics.csv")).read().splitlines()[-1]
        logged = last.split(",")[5]
        code, out, _ = run(capsys, "eval", "--ckpt", os.path.join(trained, "model.ckpt"),
                           "--synthetic")
        assert code == 0
        assert out.strip() == f"test_acc={logged}"

    def test_eval_wrong_class_count(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "cifar10.ckpt")
        ckpt.save_model(path, build(RecNetConfig(1, 1, 1, 1, 1, 1, 1, n_classes=10), seed=0),
                        epoch=0, seed=0)
        images = np.zeros((2, 3, 32, 32), dtype=np.uint8)
        for name in ("train.bin", "test.bin"):
            with open(tmp_path / name, "wb") as fh:
                fh.write(serialize_records(images, [0, 99], "cifar100", coarse=[0, 19]))
        code, out, err = run(capsys, "eval", "--ckpt", path, "--data", str(tmp_path),
                             "--dataset", "cifar100")
        assert code == 2
        assert out == ""
        assert "dataset has 100 classes but checkpoint was trained with 10" in err

    def test_eval_synthetic_overrides_are_gone(self, trained, capsys):
        """The checkpoint alone decides the synthetic set eval redraws."""
        for flag, value in (("--synthetic-classes", "3"), ("--synthetic-train", "512"),
                            ("--synthetic-test", "128")):
            code, out, err = run(capsys, "eval", "--ckpt", os.path.join(trained, "model.ckpt"),
                                 "--synthetic", flag, value)
            assert code == 2
            assert out == ""
            assert f"unrecognized arguments: {flag} {value}" in err

    def test_eval_corrupted_magic_exits_3(self, trained, tmp_path, capsys):
        src = open(os.path.join(trained, "model.ckpt"), "rb").read()
        bad = os.path.join(tmp_path, "bad.ckpt")
        open(bad, "wb").write(b"XXXX" + src[4:])
        code, _, err = run(capsys, "eval", "--ckpt", bad, "--synthetic")
        assert code == 3
        assert "magic" in err

    def test_eval_rejects_one_output_bn_linear_checkpoint(self, tmp_path, capsys):
        """A linear-variant checkpoint that holds each CRC layer's BN as one
        out_bn state over all d*S_out channels, not one state per step,
        exits 3 naming the per-step tensors it lacks."""
        model = build(RecNetConfig.from_arch_string("1,1,1,1,2,2,2",
                                                    variant=CrcVariant.LINEAR), seed=0)
        tensors, merged = [], {}
        for name, arr in model.named_tensors():
            prefix, _, field = name.rpartition(".")
            if ".crc.bn" in prefix:
                merged.setdefault(prefix.split(".bn")[0] + ".out_bn." + field, []).append(arr)
            else:
                tensors.append((name, arr))
        tensors += [(name, np.concatenate(parts)) for name, parts in merged.items()]
        old = os.path.join(tmp_path, "old.ckpt")
        ckpt.save_checkpoint(old, tensors, ckpt.model_meta(model, 1, 0, (8, 4)))
        code, out, err = run(capsys, "eval", "--ckpt", old, "--synthetic")
        assert code == 3
        assert out == ""
        assert err.startswith("error: checkpoint missing tensors:")
        assert "m0.crc.bn0.beta" in err and "Traceback" not in err

    def test_train_requires_data_or_synthetic(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "1,1,1,1,1,1,1", "--out", str(tmp_path))
        assert code == 2
        assert "--synthetic" in err

    def test_missing_data_dir_exits_3(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "1,1,1,1,1,1,1", "--out", str(tmp_path),
                           "--data", str(tmp_path / "nowhere"))
        assert code == 3

    def test_eval_non_finite_logits_named(self, trained, tmp_path, capsys):
        tensors, meta = ckpt.load_checkpoint(os.path.join(trained, "model.ckpt"))
        model = build(RecNetConfig(*meta["config"], n_classes=meta["n_classes"]), seed=0)
        ckpt.restore_model(model, tensors)
        model.fc_b.data[0] = np.nan
        bad = os.path.join(tmp_path, "nan.ckpt")
        ckpt.save_model(bad, model, epoch=meta["epoch"], seed=meta["seed"],
                        synthetic=(meta["synthetic_train"], meta["synthetic_test"]))
        code, _, err = run(capsys, "eval", "--ckpt", bad, "--synthetic")
        assert code == 1
        assert "non-finite logits on the test split, batch 0" in err

    def test_restarts_beyond_epochs_warn(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "1,1,1,1,1,1,1", "--synthetic", "--epochs", "1",
                           "--synthetic-train", "8", "--synthetic-test", "4",
                           "--out", str(tmp_path), "--restarts", "0,1,5")
        assert code == 0
        assert "warning: --restarts 1,5 not below --epochs 1" in err

    def test_cifar100_coarse_label_out_of_range_exits_3(self, tmp_path, capsys):
        images = np.zeros((2, 3, 32, 32), dtype=np.uint8)
        for name in ("train.bin", "test.bin"):
            with open(tmp_path / name, "wb") as fh:
                fh.write(serialize_records(images, [0, 1], "cifar100", coarse=[3, 20]))
        code, _, err = run(capsys, "train", "1,1,1,1,1,1,1", "--data", str(tmp_path),
                           "--dataset", "cifar100", "--out", str(tmp_path / "out"))
        assert code == 3
        assert "coarse label 20" in err

    @pytest.mark.parametrize("flags, message", [
        (("--restarts", "-1"), "restart epochs must be non-negative"),
        (("--batch", "0"), "batch must be positive"),
        (("--batch", "-3"), "batch must be positive"),
        (("--synthetic-train", "0"), "synthetic train split needs at least one image"),
        (("--synthetic-test", "0"), "synthetic test split needs at least one image"),
        (("--seed", "-1"), "seed must be non-negative"),
        (("--lr0", "nan"), "lr0 must be finite and non-negative"),
        (("--lr0", "inf"), "lr0 must be finite and non-negative"),
        (("--lr0", "-0.1"), "lr0 must be finite and non-negative"),
        (("--eta-min", "-0.1"), "eta_min must be finite and non-negative"),
        (("--weight-decay", "-1"), "weight_decay must be finite and non-negative"),
        (("--momentum", "1.5"), "momentum must lie in [0, 1)"),
    ], ids=["restarts-negative", "batch-zero", "batch-negative", "no-train-images",
            "no-test-images", "seed-negative", "lr0-nan", "lr0-inf", "lr0-negative",
            "eta-min-negative", "weight-decay-negative", "momentum-above-one"])
    def test_malformed_train_options_exit_2(self, tmp_path, capsys, flags, message):
        code, _, err = run(capsys, "train", "1,1,1,1,1,1,1", "--synthetic", "--epochs", "1",
                           "--synthetic-train", "8", "--synthetic-test", "4", "--restarts", "",
                           "--out", str(tmp_path), *flags)
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("corrupt, field", [
        (lambda meta: meta.pop("config"), "'config'"),
        (lambda meta: meta.update(config=meta["config"][:5]), "'config'"),
        (lambda meta: meta.update(variant="tanh"), "'variant'"),
        # e = 2 doubles every CRC layer's S_out, so the tensors keep their
        # names but not their shapes.
        (lambda meta: meta["config"].__setitem__(0, 2), "checkpoint (1, 1, 3, 3) != model"),
        (lambda meta: meta.update(seed=-1), "'seed' is negative"),
        (lambda meta: meta.update(synthetic_train=-5), "'synthetic_train' is below 1"),
        (lambda meta: meta.update(synthetic_test=0), "'synthetic_test' is below 1"),
    ], ids=["no-config", "short-config", "unknown-variant", "arch-mismatch", "negative-seed",
            "synthetic-train-negative", "synthetic-test-zero"])
    def test_malformed_checkpoint_exits_3(self, trained, tmp_path, capsys, corrupt, field):
        tensors, meta = ckpt.load_checkpoint(os.path.join(trained, "model.ckpt"))
        corrupt(meta)
        bad = os.path.join(tmp_path, "bad.ckpt")
        ckpt.save_checkpoint(bad, tensors.items(), meta)
        code, _, err = run(capsys, "eval", "--ckpt", bad, "--synthetic")
        assert code == 3
        assert field in err

    @pytest.mark.parametrize("header, message", [
        # A name that is not UTF-8.
        (struct.pack("<H", 6) + b"stem.\xff" + struct.pack("<BB", 0, 1) + struct.pack("<I", 1),
         "tensor name is not UTF-8"),
        # Forty dims of 2**32 - 1: a byte count that overflows int64.
        (struct.pack("<H", 1) + b"w" + struct.pack("<BB", 0, 40)
         + struct.pack("<40I", *[2**32 - 1] * 40), "truncated checkpoint"),
        # Seventy dims of 1: one value, more dims than an ndarray can have.
        (struct.pack("<H", 1) + b"w" + struct.pack("<BB", 0, 70)
         + struct.pack("<70I", *[1] * 70), "tensor 'w' of rank 70"),
    ], ids=["name-not-utf8", "size-overflows-int64", "rank-beyond-numpy"])
    def test_malformed_tensor_header_exits_3(self, tmp_path, capsys, header, message):
        bad = os.path.join(tmp_path, "bad.ckpt")
        with open(bad, "wb") as fh:
            fh.write(ckpt.MAGIC + struct.pack("<I", 1) + header + struct.pack("<f", 0.0)
                     + struct.pack("<I", 2) + b"{}")
        code, _, err = run(capsys, "eval", "--ckpt", bad, "--synthetic")
        assert code == 3
        assert message in err

    def test_same_seed_runs_write_identical_metrics(self, tmp_path, capsys):
        logs = []
        for run_dir in ("a", "b"):
            out = str(tmp_path / run_dir)
            code, printed, _ = run(capsys, "train", "1,1,1,1,1,1,1", "--synthetic",
                                   "--epochs", "2", "--synthetic-train", "16",
                                   "--synthetic-test", "8", "--restarts", "", "--seed", "4",
                                   "--out", out)
            assert code == 0
            # Wall time goes to the progress line, never to the metrics log.
            progress = [line for line in printed.splitlines() if line.startswith("epoch ")]
            assert len(progress) == 2
            assert all(" seconds=" in line for line in progress)
            logs.append(open(os.path.join(out, "metrics.csv"), "rb").read())
        assert logs[0] == logs[1]
        assert logs[0].splitlines()[0] == b"epoch,lr,train_loss,train_acc,test_loss,test_acc"

    def test_no_determinism_flag_is_gone(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "1,1,1,1,1,1,1", "--synthetic", "--epochs", "1",
                           "--out", str(tmp_path), "--no-determinism")
        assert code == 2
        assert "unrecognized arguments: --no-determinism" in err
        assert not os.listdir(tmp_path)

    def test_parsed_defaults_are_the_dataclass_defaults(self):
        args = build_parser().parse_args(["train", "1,2,2,2,2,2,2", "--out", "unused"])
        assert _train_config(args) == TrainConfig()
        assert _arch_config(args, 10) == RecNetConfig(1, 2, 2, 2, 2, 2, 2)
        described = build_parser().parse_args(["describe", "1,2,2,2,2,2,2"])
        assert _arch_config(described, described.classes) == RecNetConfig(1, 2, 2, 2, 2, 2, 2)

    def test_epochs_zero_writes_initial_checkpoint(self, tmp_path, capsys):
        out = str(tmp_path / "zero")
        code, _, _ = run(capsys, "train", "1,1,1,1,1,1,1", "--synthetic",
                         "--epochs", "0", "--out", out, "--restarts", "")
        assert code == 0
        assert os.path.exists(os.path.join(out, "model.ckpt"))


class TestVerifyCommand:
    def test_counts_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "counts")
        assert code == 0
        assert "CRC(16,64,10) with-bn = 47,360" in out
        assert "WARN" in out  # documented non-gating reference totals

    def test_equiv_suite_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "equiv", "--trials", "5")
        assert code == 0
        assert "forward naive-vs-merged" in out

    def test_unroll_suite_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "unroll", "--trials", "1")
        assert code == 0

    def test_causality_suite_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "causality", "--trials", "20")
        assert code == 0

    def test_all_suites_check_count(self, capsys):
        # Pinned so that no suite can lose a check silently: 57 gating rows
        # plus 4 documented non-gating reference totals. The row count does
        # not depend on --trials.
        code, out, _ = run(capsys, "verify", "--suite", "all", "--trials", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "57/57 gating properties passed"
        assert len(lines) - 1 == 61
        assert sum(line.startswith("WARN") for line in lines) == 4

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "grad", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "--seed must be non-negative, got -1" in err

    def test_bad_suite_name(self, capsys):
        assert run(capsys, "verify", "--suite", "nope")[0] == 2

    @pytest.mark.parametrize("suite, trials", [("causality", "0"), ("causality", "-1"),
                                               ("equiv", "0"), ("equiv", "-1")])
    def test_trials_must_be_positive(self, capsys, suite, trials):
        code, out, err = run(capsys, "verify", "--suite", suite, "--trials", trials)
        assert code == 2
        assert out == ""
        assert f"--trials must be positive, got {trials}" in err


class TestSyntheticSplitSizes:
    """eval --synthetic redraws the split sizes the checkpoint records."""

    @pytest.fixture(scope="class")
    def small_run(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("small"))
        code = main(["train", "1,1,1,1,1,1,1", "--synthetic", "--epochs", "1",
                     "--synthetic-train", "32", "--synthetic-test", "16",
                     "--restarts", "", "--out", out])
        assert code == 0
        logged = open(os.path.join(out, "metrics.csv")).read().splitlines()[-1].split(",")[5]
        return os.path.join(out, "model.ckpt"), logged

    def test_checkpoint_records_split_sizes(self, small_run):
        _, meta = ckpt.load_checkpoint(small_run[0])
        assert (meta["synthetic_train"], meta["synthetic_test"]) == (32, 16)

    def test_eval_reproduces_logged_accuracy(self, small_run, capsys):
        path, logged = small_run
        code, out, _ = run(capsys, "eval", "--ckpt", path, "--synthetic")
        assert code == 0
        assert out.strip() == f"test_acc={logged}"

    def test_unrecorded_sizes_still_evaluate_on_data(self, tmp_path, capsys):
        """A checkpoint that records no split sizes, as a run on real data
        writes it, evaluates with --data; under --synthetic it exits 2
        (TestMetadataCensus)."""
        path = os.path.join(tmp_path, "real.ckpt")
        ckpt.save_model(path, build(RecNetConfig(1, 1, 1, 1, 1, 1, 1, n_classes=100), seed=0),
                        epoch=0, seed=0)
        images = np.zeros((2, 3, 32, 32), dtype=np.uint8)
        for name in ("train.bin", "test.bin"):
            with open(tmp_path / name, "wb") as fh:
                fh.write(serialize_records(images, [0, 99], "cifar100", coarse=[0, 19]))
        code, out, _ = run(capsys, "eval", "--ckpt", path, "--data", str(tmp_path),
                           "--dataset", "cifar100")
        assert code == 0
        assert out.startswith("test_acc=")


# Every key the writer puts in a synthetic run's checkpoint; a key added to
# model_meta joins the census below without an edit here.
CENSUS_MODEL = RecNetConfig(1, 1, 1, 1, 1, 1, 1, n_classes=2)
META_KEYS = sorted(ckpt.model_meta(build(CENSUS_MODEL, seed=0), epoch=0, seed=0,
                                   synthetic=(8, 4)))


class TestMetadataCensus:
    """A checkpoint is the whole record of its run: eval reads every field
    model_meta writes and fills in none. The epoch is informational."""

    @pytest.fixture(scope="class")
    def synthetic_ckpt(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("census") / "model.ckpt")
        ckpt.save_model(path, build(CENSUS_MODEL, seed=0), epoch=0, seed=0, synthetic=(8, 4))
        return path

    def eval_without(self, capsys, path, tmp_path, *keys):
        tensors, meta = ckpt.load_checkpoint(path)
        for key in keys:
            del meta[key]
        stripped = os.path.join(tmp_path, "stripped.ckpt")
        ckpt.save_checkpoint(stripped, tensors.items(), meta)
        return run(capsys, "eval", "--ckpt", stripped, "--synthetic")

    @pytest.mark.parametrize("key", META_KEYS)
    def test_each_field_is_read(self, synthetic_ckpt, tmp_path, capsys, key):
        code, out, err = self.eval_without(capsys, synthetic_ckpt, tmp_path, key)
        if key == "epoch":
            assert code == 0 and out.startswith("test_acc=")
        else:
            assert code == 3
            assert f"metadata lacks field {key!r}" in err

    def test_no_recorded_sizes_exit_2(self, synthetic_ckpt, tmp_path, capsys):
        code, out, err = self.eval_without(capsys, synthetic_ckpt, tmp_path,
                                           "synthetic_train", "synthetic_test")
        assert code == 2
        assert out == ""
        assert "records no synthetic set" in err

    def test_real_data_run_exits_2(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "real.ckpt")
        ckpt.save_model(path, build(CENSUS_MODEL, seed=0), epoch=0, seed=0)
        code, out, err = run(capsys, "eval", "--ckpt", path, "--synthetic")
        assert code == 2
        assert out == ""
        assert "records no synthetic set" in err
