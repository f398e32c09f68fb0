"""Table II — every defense mechanism compared on CIFAR-10-like data.

Rows (as in the paper): None, Shredder, Single, DR-single, DR-10 (best
single-net attack by SSIM and by PSNR), and Ensembler (adaptive, best-SSIM,
best-PSNR).  All defenses share the training preset; ΔAcc is measured against
the None row's accuracy.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.attacks.evaluation import (
    best_single_net,
    run_adaptive_attack,
    run_single_net_attacks,
)
from repro.attacks.mia import InversionAttack
from repro.defenses import (
    fit_dropout_ensemble,
    fit_dropout_single,
    fit_ensembler,
    fit_no_defense,
    fit_shredder,
    fit_single,
)
from repro.experiments.common import ExperimentPreset, get_preset
from repro.experiments.reporting import f2, f3, format_markdown_table, pct
from repro.experiments.table1 import DefenseRow
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng, spawn_rng

logger = get_logger(__name__)


@dataclasses.dataclass(frozen=True)
class Table2Result:
    """Full Table II."""

    preset: str
    base_accuracy: float
    rows: tuple[DefenseRow, ...]

    def row(self, name: str) -> DefenseRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def to_markdown(self) -> str:
        headers = ["Name", "dAcc", "SSIM", "PSNR"]
        body = [[row.name, pct(row.delta_acc), f3(row.ssim), f2(row.psnr)]
                for row in self.rows]
        return format_markdown_table(headers, body)


def _attack_one_body(defense, preset, bundle, probe, traffic, rng) -> DefenseRow:
    attack = InversionAttack(defense.model_config, bundle.image_shape, bundle.train,
                             preset.attack, rng=rng)
    results = run_single_net_attacks(defense, attack, probe, traffic_images=traffic)
    best = best_single_net(results, "ssim")
    return best


def run_table2(preset_name: str = "small", seed: int = 0,
               dropout_p: float = 0.2) -> Table2Result:
    """Regenerate Table II at the requested scale."""
    preset = get_preset(preset_name)
    spec = preset.dataset("cifar10")
    rng = new_rng(seed)
    bundle = spec.bundle_factory(spawn_rng(rng))
    probe = bundle.test.images[:preset.probe_size]
    traffic = bundle.train.images[:preset.traffic_size]

    rows: list[DefenseRow] = []

    base = fit_no_defense(bundle, spec.model_config, training=preset.train,
                          rng=spawn_rng(rng))
    base_acc = base.accuracy(bundle.test)
    best = _attack_one_body(base, preset, bundle, probe, traffic, spawn_rng(rng))
    rows.append(DefenseRow("None", 0.0, best.ssim, best.psnr))
    logger.info("None: acc %.3f ssim %.3f", base_acc, best.ssim)

    shredder = fit_shredder(bundle, spec.model_config, training=preset.train,
                            rng=spawn_rng(rng))
    best = _attack_one_body(shredder, preset, bundle, probe, traffic, spawn_rng(rng))
    rows.append(DefenseRow("Shredder", shredder.accuracy(bundle.test) - base_acc,
                           best.ssim, best.psnr))

    single = fit_single(bundle, spec.model_config, sigma=preset.sigma,
                        training=preset.train, rng=spawn_rng(rng))
    best = _attack_one_body(single, preset, bundle, probe, traffic, spawn_rng(rng))
    rows.append(DefenseRow("Single", single.accuracy(bundle.test) - base_acc,
                           best.ssim, best.psnr))

    dr_single = fit_dropout_single(bundle, spec.model_config, p=dropout_p,
                                   training=preset.train, rng=spawn_rng(rng))
    best = _attack_one_body(dr_single, preset, bundle, probe, traffic, spawn_rng(rng))
    rows.append(DefenseRow("DR-single", dr_single.accuracy(bundle.test) - base_acc,
                           best.ssim, best.psnr))

    dr_ens = fit_dropout_ensemble(bundle, spec.model_config,
                                  config=preset.ensembler_config(spec), p=dropout_p,
                                  rng=spawn_rng(rng))
    dr_acc = dr_ens.accuracy(bundle.test) - base_acc
    attack_dr = InversionAttack(spec.model_config, bundle.image_shape, bundle.train,
                                preset.attack, rng=spawn_rng(rng))
    dr_results = run_single_net_attacks(dr_ens, attack_dr, probe, traffic_images=traffic)
    dr_ssim = best_single_net(dr_results, "ssim")
    dr_psnr = best_single_net(dr_results, "psnr")
    rows.append(DefenseRow(f"DR-{preset.num_nets} - SSIM", dr_acc, dr_ssim.ssim, dr_ssim.psnr))
    rows.append(DefenseRow(f"DR-{preset.num_nets} - PSNR", dr_acc, dr_psnr.ssim, dr_psnr.psnr))

    ensembler = fit_ensembler(bundle, spec.model_config,
                              config=preset.ensembler_config(spec), rng=spawn_rng(rng))
    ours_acc = ensembler.accuracy(bundle.test) - base_acc
    attack_ours = InversionAttack(spec.model_config, bundle.image_shape, bundle.train,
                                  preset.attack, rng=spawn_rng(rng))
    ours_results = run_single_net_attacks(ensembler, attack_ours, probe,
                                          traffic_images=traffic)
    ours_adaptive = run_adaptive_attack(ensembler, attack_ours, probe)
    ours_ssim = best_single_net(ours_results, "ssim")
    ours_psnr = best_single_net(ours_results, "psnr")
    rows.append(DefenseRow("Ours - Adaptive", ours_acc, ours_adaptive.ssim,
                           ours_adaptive.psnr))
    rows.append(DefenseRow("Ours - SSIM", ours_acc, ours_ssim.ssim, ours_ssim.psnr))
    rows.append(DefenseRow("Ours - PSNR", ours_acc, ours_psnr.ssim, ours_psnr.psnr))

    return Table2Result(preset.name, base_acc, tuple(rows))
