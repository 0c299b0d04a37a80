"""Command-line entry point: describe / train / eval / verify.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 I/O or file-format error. The option defaults are read from
TrainConfig and RecNetConfig, which hold the CIFAR training protocol, so
`train` with only data paths runs the reference recipe.
"""

import argparse
import dataclasses
import os
import sys

from . import checkpoint as ckpt
from .crc import CrcVariant
from .data import SYNTHETIC_TEST, SYNTHETIC_TRAIN, DataBundle
from .errors import ConfigError, FormatError
from .model import RecNetConfig, acronym, build, ledger, ledger_csv, ledger_text
from .train import TrainConfig, TrainingDiverged, evaluate, train
from .verify import SUITES, run_suites

VARIANTS = {
    "relu": CrcVariant.RELU,
    "shared-bn": CrcVariant.SHARED_BN_RELU,
    "separate-bn": CrcVariant.SEPARATE_BN_RELU,
    "linear": CrcVariant.LINEAR,
}


def _defaults(cls):
    """Field name -> default of a dataclass, for the fields that have one."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


ARCH_DEFAULTS = _defaults(RecNetConfig)
TRAIN_DEFAULTS = _defaults(TrainConfig)


def _add_arch_options(p):
    p.add_argument("arch", help="architecture tuple e,S1,S2,S3,d1,d2,d3 (e.g. 4,8,16,32,10,10,10)")
    variant = next(name for name, v in VARIANTS.items() if v is ARCH_DEFAULTS["variant"])
    p.add_argument("--variant", choices=sorted(VARIANTS), default=variant,
                   help="recurrence non-linearity (default %(default)s)")
    p.add_argument("--kx", type=int, default=ARCH_DEFAULTS["k_x"], choices=(1, 3),
                   help="input kernel size")
    p.add_argument("--kh", type=int, default=ARCH_DEFAULTS["k_h"], choices=(1, 3),
                   help="hidden kernel size")


def _arch_config(args, n_classes):
    return RecNetConfig.from_arch_string(
        args.arch, n_classes=n_classes, variant=VARIANTS[args.variant],
        k_x=args.kx, k_h=args.kh)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="recnet",
        description="Channel-wise recurrent convolutional networks: cost ledgers, "
                    "training, evaluation, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print the per-layer parameter/FLOP ledger")
    _add_arch_options(p)
    p.add_argument("--classes", type=int, default=ARCH_DEFAULTS["n_classes"],
                   help="classifier outputs (default %(default)s)")
    p.add_argument("--convention", choices=("formula-only", "with-bn", "with-bn-and-bias"),
                   default="with-bn", help="parameter counting convention")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("train", help="train a network on CIFAR-format data")
    _add_arch_options(p)
    p.add_argument("--data", help="directory with the binary dataset files")
    p.add_argument("--dataset", choices=("cifar10", "cifar100"), default="cifar10")
    p.add_argument("--synthetic", action="store_true",
                   help="train on the generated Gaussian-blob dataset instead of files")
    p.add_argument("--synthetic-classes", type=int, default=2)
    p.add_argument("--synthetic-train", type=int, default=SYNTHETIC_TRAIN)
    p.add_argument("--synthetic-test", type=int, default=SYNTHETIC_TEST)
    p.add_argument("--out", required=True, help="output directory for checkpoint and metrics")
    p.add_argument("--epochs", type=int, default=TRAIN_DEFAULTS["epochs"])
    p.add_argument("--batch", type=int, default=TRAIN_DEFAULTS["batch"])
    p.add_argument("--lr0", type=float, default=TRAIN_DEFAULTS["lr0"])
    p.add_argument("--weight-decay", type=float, default=TRAIN_DEFAULTS["weight_decay"])
    p.add_argument("--momentum", type=float, default=TRAIN_DEFAULTS["momentum"])
    p.add_argument("--eta-min", type=float, default=TRAIN_DEFAULTS["eta_min"])
    p.add_argument("--restarts", default=",".join(map(str, TRAIN_DEFAULTS["restart_epochs"])),
                   help="comma-separated restart epochs (those >= --epochs are dropped "
                        "with a warning)")
    p.add_argument("--seed", type=int, default=TRAIN_DEFAULTS["seed"])
    p.add_argument("--no-augment", action="store_true", help="disable crop/flip augmentation")
    p.add_argument("--checkpoint-restarts", action="store_true",
                   help="also keep a checkpoint at each restart boundary")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", help="directory with the binary dataset files")
    p.add_argument("--dataset", choices=("cifar10", "cifar100"), default="cifar10")
    p.add_argument("--synthetic", action="store_true",
                   help="regenerate the synthetic dataset recorded in the checkpoint: its "
                        "class count, seed and split sizes")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="run the property suites in float64")
    p.add_argument("--suite", choices=(*sorted(SUITES), "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None,
                   help="instances per property, positive (default: suite-specific)")
    p.set_defaults(fn=cmd_verify)
    return parser


def cmd_describe(args):
    cfg = _arch_config(args, args.classes)
    rows = ledger(cfg, args.convention)
    if args.format == "csv":
        print(ledger_csv(rows))
    else:
        print(ledger_text(rows, cfg))
    total = sum(r.params for r in rows)
    flops = sum(r.flops for r in rows)
    print(f"acronym={acronym(cfg)} params={total} flops={flops} convention={args.convention}")
    return 0


def _restart_list(text, epochs):
    if not text.strip():
        return ()
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"--restarts must be comma-separated integers, got {text!r}") from None
    dropped = [v for v in values if v >= epochs]
    if dropped:
        print(f"warning: --restarts {','.join(map(str, dropped))} not below "
              f"--epochs {epochs}; dropped", file=sys.stderr)
    return tuple(v for v in values if v < epochs)


def _bundle_from_args(args, n_classes, seed, sizes):
    """The dataset the flags name; a synthetic one is drawn with n_classes,
    seed and the (train, test) split sizes."""
    if args.synthetic:
        return DataBundle.synthetic(*sizes, n_classes, seed)
    if not args.data:
        raise ConfigError("either --data or --synthetic is required")
    return DataBundle.from_dir(args.data, args.dataset)


def _train_config(args):
    return TrainConfig(
        lr0=args.lr0, weight_decay=args.weight_decay, momentum=args.momentum,
        batch=args.batch, epochs=args.epochs,
        restart_epochs=_restart_list(args.restarts, args.epochs),
        eta_min=args.eta_min, seed=args.seed, augment=not args.no_augment,
        checkpoint_restarts=args.checkpoint_restarts)


def cmd_train(args):
    # Validated before the seed draws any data.
    tcfg = _train_config(args)
    bundle = _bundle_from_args(args, args.synthetic_classes, args.seed,
                               (args.synthetic_train, args.synthetic_test))
    cfg = _arch_config(args, bundle.n_classes)
    model = build(cfg, seed=args.seed)
    print(f"{acronym(cfg)}: {model.num_params()} parameters, "
          f"{bundle.n_classes} classes, {len(bundle.train)} train / {len(bundle.test)} test")
    train(model, bundle, tcfg, out_dir=args.out, log=print)
    print(f"wrote {os.path.join(args.out, 'model.ckpt')} and metrics.csv")
    return 0


def cmd_eval(args):
    tensors, meta = ckpt.load_checkpoint(args.ckpt)
    cfg, seed, sizes = ckpt.read_model_meta(meta, args.ckpt)
    if args.synthetic and sizes is None:
        raise ConfigError(f"{args.ckpt} records no synthetic set; evaluate it with --data")
    model = build(cfg, seed=0)
    ckpt.restore_model(model, tensors)
    bundle = _bundle_from_args(args, cfg.n_classes, seed, sizes)
    if bundle.n_classes != cfg.n_classes:
        raise ConfigError(
            f"dataset has {bundle.n_classes} classes but checkpoint was trained "
            f"with {cfg.n_classes}")
    acc, _ = evaluate(model, bundle.test, bundle.normalizer)
    print(f"test_acc={acc:.6f}")
    return 0


def cmd_verify(args):
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    results, ok = run_suites(names, seed=args.seed, trials=args.trials)
    for r in results:
        print(r.line())
    gating = [r for r in results if r.gating]
    print(f"{sum(r.passed for r in gating)}/{len(gating)} gating properties passed")
    return 0 if ok else 1


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
