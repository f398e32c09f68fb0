"""Table I — defense quality of Ensembler vs the Single baseline across the
three datasets (CIFAR-10-like, CIFAR-100-like, CelebA-HQ-like).

For each dataset the runner trains the unprotected reference (for ΔAcc), the
Single baseline and Ensembler, then mounts the two attack constructions of
Section III-B and reports the paper's four rows:

    Single         — strongest attack on the single-net baseline
    Ours-Adaptive  — attack trained on all N server nets
    Ours-SSIM      — strongest single-net attack by SSIM (worst-case defense)
    Ours-PSNR      — strongest single-net attack by PSNR
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.attacks.evaluation import (
    best_single_net,
    evaluate_reconstruction,
    run_adaptive_attack,
    run_single_net_attacks,
)
from repro.attacks.mia import InversionAttack
from repro.defenses import fit_ensembler, fit_no_defense, fit_single
from repro.experiments.common import DatasetSpec, ExperimentPreset, get_preset
from repro.experiments.reporting import f2, f3, format_markdown_table, pct
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng, spawn_rng

logger = get_logger(__name__)


@dataclasses.dataclass(frozen=True)
class DefenseRow:
    """One table row: a defense/attack combination and its three metrics."""

    name: str
    delta_acc: float  # defended accuracy minus unprotected accuracy
    ssim: float
    psnr: float


@dataclasses.dataclass(frozen=True)
class DatasetTable:
    """Table I block for one dataset."""

    dataset: str
    base_accuracy: float
    rows: tuple[DefenseRow, ...]

    def row(self, name: str) -> DefenseRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)


@dataclasses.dataclass(frozen=True)
class Table1Result:
    """Full Table I across datasets."""

    preset: str
    tables: tuple[DatasetTable, ...]

    def to_markdown(self) -> str:
        headers = ["Dataset", "Name", "dAcc", "SSIM", "PSNR"]
        rows = []
        for table in self.tables:
            for row in table.rows:
                rows.append([table.dataset, row.name, pct(row.delta_acc),
                             f3(row.ssim), f2(row.psnr)])
        return format_markdown_table(headers, rows)


def run_dataset(spec: DatasetSpec, preset: ExperimentPreset,
                rng: np.random.Generator) -> DatasetTable:
    """Run the Table I protocol for a single dataset."""
    bundle = spec.bundle_factory(spawn_rng(rng))
    probe = bundle.test.images[:preset.probe_size]
    traffic = bundle.train.images[:preset.traffic_size]

    base = fit_no_defense(bundle, spec.model_config, training=preset.train,
                          rng=spawn_rng(rng))
    base_acc = base.accuracy(bundle.test)
    logger.info("[%s] unprotected accuracy %.3f", spec.key, base_acc)

    # --- Single baseline ------------------------------------------------
    single = fit_single(bundle, spec.model_config, sigma=preset.sigma,
                        training=preset.train, rng=spawn_rng(rng))
    single_acc = single.accuracy(bundle.test)
    attack = InversionAttack(spec.model_config, bundle.image_shape, bundle.train,
                             preset.attack, rng=spawn_rng(rng))
    single_results = run_single_net_attacks(single, attack, probe, traffic_images=traffic)
    single_best = best_single_net(single_results, "ssim")
    logger.info("[%s] single: acc %.3f ssim %.3f", spec.key, single_acc, single_best.ssim)

    # --- Ensembler -------------------------------------------------------
    ensembler = fit_ensembler(bundle, spec.model_config,
                              config=preset.ensembler_config(spec), rng=spawn_rng(rng))
    ours_acc = ensembler.accuracy(bundle.test)
    attack_ours = InversionAttack(spec.model_config, bundle.image_shape, bundle.train,
                                  preset.attack, rng=spawn_rng(rng))
    ours_results = run_single_net_attacks(ensembler, attack_ours, probe,
                                          traffic_images=traffic)
    ours_adaptive = run_adaptive_attack(ensembler, attack_ours, probe)
    ours_best_ssim = best_single_net(ours_results, "ssim")
    ours_best_psnr = best_single_net(ours_results, "psnr")
    logger.info("[%s] ensembler: acc %.3f adaptive ssim %.3f best ssim %.3f",
                spec.key, ours_acc, ours_adaptive.ssim, ours_best_ssim.ssim)

    rows = (
        DefenseRow("Single", single_acc - base_acc, single_best.ssim, single_best.psnr),
        DefenseRow("Ours - Adaptive", ours_acc - base_acc,
                   ours_adaptive.ssim, ours_adaptive.psnr),
        DefenseRow("Ours - SSIM", ours_acc - base_acc,
                   ours_best_ssim.ssim, ours_best_ssim.psnr),
        DefenseRow("Ours - PSNR", ours_acc - base_acc,
                   ours_best_psnr.ssim, ours_best_psnr.psnr),
    )
    return DatasetTable(spec.key, base_acc, rows)


def run_table1(preset_name: str = "small", seed: int = 0,
               datasets: tuple[str, ...] | None = None) -> Table1Result:
    """Regenerate Table I at the requested scale."""
    preset = get_preset(preset_name)
    rng = new_rng(seed)
    selected = preset.datasets if datasets is None else tuple(
        preset.dataset(key) for key in datasets)
    tables = tuple(run_dataset(spec, preset, rng) for spec in selected)
    return Table1Result(preset.name, tables)
