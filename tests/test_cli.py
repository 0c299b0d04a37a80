import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from recnet import checkpoint as ckpt
from recnet.cli import _arch_config, _train_config, build_parser, main
from recnet.data import serialize_records
from recnet.model import RecNetConfig, build
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

    def test_eval_wrong_class_count(self, trained, capsys):
        code, _, err = run(capsys, "eval", "--ckpt", os.path.join(trained, "model.ckpt"),
                           "--synthetic", "--synthetic-classes", "3")
        assert code == 2
        assert "classes" in err

    def test_eval_corrupted_magic_exits_3(self, trained, tmp_path, capsys):
        src = open(os.path.join(trained, "model.ckpt"), "rb").read()
        bad = os.path.join(tmp_path, "bad.ckpt")
        open(bad, "wb").write(b"XXXX" + src[4:])
        code, _, err = run(capsys, "eval", "--ckpt", bad, "--synthetic")
        assert code == 3
        assert "magic" in err

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
        ckpt.save_model(bad, model, epoch=meta["epoch"], seed=meta["seed"])
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

    def test_unrecorded_sizes_default_to_512_and_128(self, small_run, capsys):
        path, _ = small_run
        flagged = run(capsys, "eval", "--ckpt", path, "--synthetic",
                      "--synthetic-train", "512", "--synthetic-test", "128")
        tensors, meta = ckpt.load_checkpoint(path)
        del meta["synthetic_train"], meta["synthetic_test"]
        legacy = os.path.join(os.path.dirname(path), "legacy.ckpt")
        ckpt.save_checkpoint(legacy, tensors.items(), meta)
        unrecorded = run(capsys, "eval", "--ckpt", legacy, "--synthetic")
        assert flagged[0] == unrecorded[0] == 0
        assert flagged[1] == unrecorded[1]
