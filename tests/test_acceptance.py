"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Reference totals and tolerances are frozen here, independent of the
package's own tables.

Criterion 2 compares the ledger with the 19 published network totals through
the remainder R = published - ledger (classes = 100). The published networks
carry a parameter block that the documented architecture lacks: R is positive
everywhere and, apart from three entries, depends only on the simulated
widths (S1*d1, S2*d2, S3*d3). Entries that share widths must therefore share
R, and R must be smooth along a line of equal d-steps; these checks hold every
term of the ledger that depends on e, the kernel sizes or the S/d split, and
they cover expansion e=1 and RecNet-60-640, where the block is too large a
share of a small model for the 5% bound. Three published entries
(RecNet-60-480, RecNet-90-640, RecNet-90-1280) need a larger R than a network
that is wider in every stage, which no parameter block allows; the test
computes that set and asserts it. See README, "Known discrepancy".
"""

import itertools
import math
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from recnet.crc import CrcParams, CrcVariant
from recnet import model as model_mod
from recnet.data import DataBundle, minibatches
from recnet.model import (
    RecNetConfig,
    acronym,
    build,
    crc_layer_params,
    dense_conv_params,
    param_count,
)
from conftest import metrics_csv
from recnet.train import TrainConfig, lr_at, softmax_cross_entropy, train
from recnet.verify import MODEL_GRAD_TOL, model_grad_error, run_suites

EXPANSION_TOTALS = {1: 424_000, 2: 824_000, 4: 1_769_000, 8: 4_239_000}
KERNEL_TOTALS = {(3, 1): 1_425_000, (1, 3): 1_683_000, (3, 3): 1_769_000}
FAMILY_TABLE = [
    ((4, 4, 8, 16, 10, 10, 10), "RecNet-60-640", 471_000),
    ((4, 4, 8, 16, 15, 15, 15), "RecNet-90-960", 863_000),
    ((4, 4, 8, 16, 20, 20, 20), "RecNet-120-1280", 1_406_000),
    ((4, 8, 16, 32, 10, 10, 10), "RecNet-60-1280", 1_769_000),
    ((4, 8, 16, 32, 15, 15, 15), "RecNet-90-1920", 3_306_000),
    ((4, 8, 16, 32, 20, 20, 20), "RecNet-120-2560", 5_444_000),
    ((4, 8, 8, 8, 5, 10, 15), "RecNet-60-480", 316_000),
    ((4, 8, 8, 8, 10, 15, 20), "RecNet-90-640", 537_000),
    ((4, 8, 8, 8, 10, 20, 30), "RecNet-120-960", 930_000),
    ((4, 16, 16, 16, 5, 10, 15), "RecNet-60-960", 1_137_000),
    ((4, 16, 16, 16, 10, 15, 20), "RecNet-90-1280", 2_028_000),
    ((4, 16, 16, 16, 10, 20, 30), "RecNet-120-1920", 3_569_000),
]


def _report(num, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance {num:02d}] {status}  {name}")
    assert not failures, f"criterion {num} ({name}):\n  " + "\n  ".join(failures)


def test_01_crc_layer_accounting_exact():
    failures = []
    got = crc_layer_params(16, 64, 10, 3, 3, CrcVariant.SEPARATE_BN_RELU, "with-bn")
    if got != 47_360:
        failures.append(f"with-bn count {got} != 47,360")
    got = crc_layer_params(16, 64, 10, 3, 3, convention="formula-only")
    if got != 46_080:
        failures.append(f"formula-only count {got} != 46,080")
    got = dense_conv_params(160, 640, 3)
    if got != 921_600:
        failures.append(f"dense reference {got} != 921,600")
    _report(1, "CRC layer parameter accounting (exact)", failures)


def _ledger_total(cfg):
    return param_count(cfg, "with-bn")[1]


def _closest_total(total, tuple7, ref, k_x=3, k_h=3):
    """(relative error, total) at the class count, 100 or 10, closest to ref."""
    totals = (total(RecNetConfig(*tuple7, n_classes=n, k_x=k_x, k_h=k_h)) for n in (100, 10))
    return min((abs(got / ref - 1.0), got) for got in totals)


TOTAL_TOLERANCE = 0.05
WIDTH_GROUP_SPREAD = 1_000   # two totals published to 1K
SECOND_DIFF_BOUND = 2_000
DOMINANCE_MARGIN = 1_000
REMAINDER_FLOOR = -500
CONTRADICTED = {"RecNet-60-480", "RecNet-90-640", "RecNet-90-1280"}
# Entries the 5% bound leaves to a tighter check, and the check that holds each.
HELD_ELSEWHERE = {"expansion e=1": 1, "RecNet-60-640": 2,
                  "RecNet-60-480": 3, "RecNet-90-640": 3}


def _published_entries():
    """(name, tuple7, k_x, k_h, published total) for all 19 reference entries."""
    entries = [(f"expansion e={e}", (e, 8, 16, 32, 10, 10, 10), 3, 3, ref)
               for e, ref in EXPANSION_TOTALS.items()]
    entries += [(f"kernels {k_x}x{k_x}/{k_h}x{k_h}", (4, 8, 16, 32, 10, 10, 10), k_x, k_h, ref)
                for (k_x, k_h), ref in KERNEL_TOTALS.items()]
    entries += [(acr, tuple7, 3, 3, ref) for tuple7, acr, ref in FAMILY_TABLE]
    return entries


def _network_total_checks(total):
    """Criterion 2 for a parameter counter `total(cfg) -> int`.

    Returns (per-entry lines, checks); each check is (title, detail, failures).
    """
    entries = _published_entries()
    rem, widths, entry_lines = {}, {}, []
    for name, tuple7, k_x, k_h, ref in entries:
        got = total(RecNetConfig(*tuple7, n_classes=100, k_x=k_x, k_h=k_h))
        rem[name] = ref - got
        widths[name] = tuple(s * d for s, d in zip(tuple7[1:4], tuple7[4:]))
        entry_lines.append(f"{name}: ledger {got:,} vs published {ref:,} -> "
                           f"R = {ref - got:+,}")
    checks = []

    groups = defaultdict(list)
    for name, w in widths.items():
        groups[w].append(name)
    spreads = {w: max(rem[n] for n in names) - min(rem[n] for n in names)
               for w, names in groups.items() if len(names) > 1}
    failures = [f"widths {w}: R spread {s:,} > {WIDTH_GROUP_SPREAD:,} over "
                + ", ".join(groups[w]) for w, s in spreads.items() if s > WIDTH_GROUP_SPREAD]
    checks.append(("same widths, same remainder",
                   "R spread " + ", ".join(f"{s:,} at {w}" for w, s in spreads.items())
                   + f" (bound {WIDTH_GROUP_SPREAD:,})", failures))

    by_s = defaultdict(dict)
    for tuple7, acr, _ in FAMILY_TABLE:
        by_s[tuple7[1:4]][tuple7[4:]] = acr
    seconds, on_line = {}, set()
    for s, by_d in by_s.items():
        for a, b in itertools.permutations(by_d, 2):
            c = tuple(2 * y - x for x, y in zip(a, b))
            if a < b and c in by_d:
                names = (by_d[a], by_d[b], by_d[c])
                seconds[(s, a, b, c)] = rem[names[2]] - 2 * rem[names[1]] + rem[names[0]]
                on_line.update(names)
    failures = [f"S={s} d={a}/{b}/{c}: second difference of R {v:+,} beyond "
                f"+-{SECOND_DIFF_BOUND:,}" for (s, a, b, c), v in seconds.items()
                if abs(v) > SECOND_DIFF_BOUND]
    checks.append(("fixed S, equal d-steps",
                   "second difference " + ", ".join(f"{v:+,} at S={key[0]}"
                                                    for key, v in seconds.items())
                   + f" (bound +-{SECOND_DIFF_BOUND:,})", failures))

    contradicted = {n for n in rem for m in rem
                    if widths[m] != widths[n]
                    and all(x >= y for x, y in zip(widths[m], widths[n]))
                    and rem[n] > rem[m] + DOMINANCE_MARGIN}
    failures = [] if contradicted == CONTRADICTED else [
        f"entries whose R exceeds a wider entry's by > {DOMINANCE_MARGIN:,}: "
        f"{sorted(contradicted)}, expected {sorted(CONTRADICTED)}"]
    checks.append(("contradicted entries computed",
                   ", ".join(sorted(contradicted)), failures))

    failures = [f"{n}: ledger exceeds the published total, R = {r:+,}"
                for n, r in rem.items() if r < REMAINDER_FLOOR]
    checks.append(("lower bound", f"smallest R {min(rem.values()):+,} "
                   f"(floor {REMAINDER_FLOOR:+,})", failures))

    failures, worst = [], 0.0
    for name, tuple7, k_x, k_h, ref in entries:
        if name in HELD_ELSEWHERE:
            continue
        err, got = _closest_total(total, tuple7, ref, k_x, k_h)
        worst = max(worst, err)
        if err >= TOTAL_TOLERANCE:
            failures.append(f"{name}: ledger {got:,} vs published {ref:,} is "
                            f"{100 * err:.2f}% off")
    held_by = {1: {n for w in spreads for n in groups[w]},
               2: on_line, 3: contradicted}
    failures += [f"{n} is left to check {k}, which does not cover it"
                 for n, k in HELD_ELSEWHERE.items() if n not in held_by[k]]
    checks.append(("within 5%", f"{len(entries) - len(HELD_ELSEWHERE)} entries, worst "
                   f"{100 * worst:.2f}%", failures))
    return entry_lines, checks


def test_02_network_totals_within_5pct():
    entry_lines, checks = _network_total_checks(_ledger_total)
    for line in entry_lines:
        print("    " + line)
    failures = []
    for num, (title, detail, fails) in enumerate(checks, 1):
        print(f"    check {num} {'FAIL' if fails else 'PASS'}  {title}: {detail}")
        failures += fails
    _report(2, "network parameter totals agree with the reference tables", failures)


def _bn_once_total(cfg):
    """Miscount: each CRC layer's per-step normalization counted once."""
    return _ledger_total(replace(cfg, variant=CrcVariant.SHARED_BN_RELU))


def _tb_extra_vector_total(cfg):
    """Miscount: an extra c_in-sized vector in every transition block."""
    rows, total = param_count(cfg, "with-bn")
    return total + sum(prev.out_channels for prev, row in zip(rows, rows[1:])
                       if row.name.startswith("TB"))


@pytest.mark.parametrize("miscount", [_bn_once_total, _tb_extra_vector_total])
def test_02_rejects_seeded_miscounts(miscount):
    _, checks = _network_total_checks(miscount)
    named = {title: fails for title, _, fails in checks}
    assert named["same widths, same remainder"], miscount.__doc__


def test_03_acronyms_exact():
    failures = []
    for tuple7, acr, _ in FAMILY_TABLE:
        got = acronym(RecNetConfig(*tuple7))
        if got != acr:
            failures.append(f"{tuple7}: {got} != {acr}")
    _report(3, "all 12 family acronyms reproduced exactly", failures)


def test_04_gradient_suite():
    results, ok = run_suites(["grad"], seed=0)
    failures = [r.line() for r in results if not r.passed]
    worst = max(r.max_err for r in results)
    print(f"    worst gradient error {worst:.3e} (tolerance 1e-5, 64-bit, step 1e-4; "
          f"whole-model checks step 1e-7)")
    _report(4, "analytic vs finite-difference gradients < 1e-5", failures)


def _stem_mask_dropped(monkeypatch):
    """Miswiring: the stem's ReLU backward passes every gradient through."""
    monkeypatch.setattr(model_mod, "relu_backward", lambda x, g: np.array(g))


def _pool_indices_ignored(monkeypatch):
    """Miswiring: max-pool backward routes every gradient to the first cell."""
    original = model_mod.maxpool2_backward
    monkeypatch.setattr(model_mod, "maxpool2_backward",
                        lambda idx, g, shape: original(np.zeros_like(idx), g, shape))


@pytest.mark.parametrize("miswire", [_stem_mask_dropped, _pool_indices_ignored])
def test_04_model_gate_rejects_seeded_miswirings(miswire, monkeypatch):
    """The whole-model gradient check passes the real wiring and fails each
    miswiring on the same instances."""
    errs = {}
    for wired in ("real", "miswired"):
        if wired == "miswired":
            miswire(monkeypatch)
        rng = np.random.default_rng(0)
        errs[wired] = max(model_grad_error(rng, CrcVariant.SEPARATE_BN_RELU, kernels)
                          for kernels in ((3, 3), (3, 1)))
    assert errs["real"] < MODEL_GRAD_TOL
    assert errs["miswired"] > 1e3 * MODEL_GRAD_TOL, miswire.__doc__


def test_05_merged_equivalence():
    results, ok = run_suites(["equiv"], seed=0, trials=50)
    failures = [r.line() for r in results if not r.passed]
    for r in results:
        print("    " + r.line())
    _report(5, "merged vs naive module forward < 1e-9, backward < 1e-8", failures)


def test_06_linear_unroll_equivalence():
    results, ok = run_suites(["unroll"], seed=0)
    failures = [r.line() for r in results if not r.passed]
    for r in results:
        print("    " + r.line())
    _report(6, "unrolled linear recurrence agreement < 1e-5", failures)


def test_07_causality():
    results, ok = run_suites(["causality"], seed=0, trials=100)
    named = {r.name: r for r in results}
    failures = [r.line() for r in results if not r.passed and "grouped" not in r.name
                and "witness" not in r.name]
    if not named["history-only reads (bit-identical)"].passed:
        failures.append("causality violated")
    _report(7, "perturbing x_j never changes h_i for i < j (bit-identical)", failures)


def test_08_recurrent_vs_grouped_control():
    failures = []
    p = CrcParams(16, 64, 10, variant=CrcVariant.SEPARATE_BN_RELU)
    if p.num_params() != 47_360:
        failures.append("recurrent/grouped shared parameter set != 47,360 scalars")
    results, _ = run_suites(["causality"], seed=0, trials=10)
    named = {r.name: r for r in results}
    if not named["grouped form permutation-equivariant"].passed:
        failures.append("grouped form is not permutation-equivariant")
    if not named["recurrent form order-sensitive (witness)"].passed:
        failures.append("no order-sensitivity witness for the recurrent form in 10 seeds")
    _report(8, "grouped control: identical parameters, equivariance split", failures)


def test_09_schedule():
    cfg = TrainConfig()
    failures = []
    for epoch in (0, 20, 60, 120):
        if abs(lr_at(epoch, cfg) - 0.1) > 1e-15:
            failures.append(f"lr({epoch}) = {lr_at(epoch, cfg)} != 0.1")
    if abs(lr_at(10, cfg) - 0.05) > 1e-15:
        failures.append(f"lr(10) = {lr_at(10, cfg)} != 0.05")
    for start, end in ((0, 20), (20, 60), (60, 120), (120, 200)):
        t = end - start
        for k in range(20):
            epoch = start + int(k * t / 20)
            closed = 0.5 * 0.1 * (1 + math.cos(math.pi * (epoch - start) / t))
            if abs(lr_at(epoch, cfg) - closed) > 1e-12:
                failures.append(f"lr({epoch}) off closed form by "
                                f"{abs(lr_at(epoch, cfg) - closed):.2e}")
    _report(9, "cosine schedule with restarts matches closed form", failures)


def test_10_training_smoke():
    failures = []
    bundle = DataBundle.synthetic(512, 128, 2, seed=7)
    cfg = RecNetConfig.from_arch_string("1,2,2,2,2,2,2", n_classes=2)
    tcfg = TrainConfig(epochs=10, restart_epochs=(), seed=3, deterministic=True)

    model = build(cfg, seed=3)
    x, y = next(minibatches(bundle.train, 64, seed=0, normalizer=bundle.normalizer))
    model.set_mode("eval")
    loss0, _ = softmax_cross_entropy(model.forward(x), y)
    print(f"    initial loss {loss0:.4f} vs ln(2) = {math.log(2):.4f}")
    if abs(loss0 - math.log(2)) > 0.2:
        failures.append(f"initial loss {loss0:.4f} not within 0.2 of ln(2)")

    logs = []
    final_acc = None
    for _ in range(2):
        m = build(cfg, seed=3)
        rows = train(m, bundle, tcfg)
        logs.append(metrics_csv(rows))
        final_acc = rows[-1].train_acc
    print(f"    final train accuracy {final_acc:.4f} after {tcfg.epochs} epochs")
    if final_acc <= 0.9:
        failures.append(f"train accuracy {final_acc:.4f} <= 0.9 after 10 epochs")
    if logs[0] != logs[1]:
        failures.append("metrics logs differ between identical seeded runs")
    _report(10, "synthetic smoke training (accuracy, init loss, determinism)", failures)


def test_11_full_reproduction_excluded():
    print("[acceptance 11] PASS  full 200-epoch CIFAR runs are out of the gating "
          "suite (compute-bound; optional check documented in README)")
