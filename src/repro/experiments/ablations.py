"""Ablation studies over Ensembler's design knobs (DESIGN.md A1-A4).

The paper fixes N=10, P in {4,3,5}, sigma=0.1 and a regulariser weight; these
runners sweep each knob to expose the mechanism: defense quality should
improve with ensemble size and noise diversity, and degrade when the stage-3
regulariser is removed (the "favored net" effect discussed in Section IV-C).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.attacks.brute_force import expected_attack_work
from repro.attacks.evaluation import best_single_net, run_adaptive_attack, run_single_net_attacks
from repro.attacks.mia import InversionAttack
from repro.core.selector import brute_force_search_space
from repro.defenses import fit_ensembler
from repro.experiments.common import get_preset
from repro.experiments.reporting import f2, f3, format_markdown_table, pct
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng, spawn_rng

logger = get_logger(__name__)


@dataclasses.dataclass(frozen=True)
class AblationPoint:
    """One configuration of a sweep and its defense-quality metrics."""

    label: str
    accuracy: float
    adaptive_ssim: float
    best_single_ssim: float
    best_single_psnr: float


@dataclasses.dataclass(frozen=True)
class AblationResult:
    name: str
    points: tuple[AblationPoint, ...]

    def to_markdown(self) -> str:
        headers = [self.name, "Acc", "Adaptive SSIM", "Best-net SSIM", "Best-net PSNR"]
        rows = [[p.label, pct(p.accuracy), f3(p.adaptive_ssim), f3(p.best_single_ssim),
                 f2(p.best_single_psnr)] for p in self.points]
        return format_markdown_table(headers, rows)


def _evaluate_point(label, bundle, spec, config, preset, rng) -> AblationPoint:
    defense = fit_ensembler(bundle, spec.model_config, config=config, rng=spawn_rng(rng))
    accuracy = defense.accuracy(bundle.test)
    probe = bundle.test.images[:preset.probe_size]
    traffic = bundle.train.images[:preset.traffic_size]
    attack = InversionAttack(spec.model_config, bundle.image_shape, bundle.train,
                             preset.attack, rng=spawn_rng(rng))
    singles = run_single_net_attacks(defense, attack, probe, traffic_images=traffic)
    adaptive = run_adaptive_attack(defense, attack, probe)
    best_ssim = best_single_net(singles, "ssim")
    best_psnr = best_single_net(singles, "psnr")
    logger.info("%s: acc %.3f adaptive %.3f best %.3f", label, accuracy,
                adaptive.ssim, best_ssim.ssim)
    return AblationPoint(label, accuracy, adaptive.ssim, best_ssim.ssim, best_psnr.psnr)


def sweep_num_nets(values: tuple[int, ...] = (2, 4, 6), preset_name: str = "tiny",
                   seed: int = 0) -> AblationResult:
    """A1: defense quality as the ensemble grows (P scales with N/2)."""
    preset = get_preset(preset_name)
    spec = preset.dataset("cifar10")
    rng = new_rng(seed)
    bundle = spec.bundle_factory(spawn_rng(rng))
    points = []
    for num_nets in values:
        config = preset.ensembler_config(spec).replace(
            num_nets=num_nets, num_active=max(1, num_nets // 2))
        points.append(_evaluate_point(f"N={num_nets}", bundle, spec, config, preset, rng))
    return AblationResult("N", tuple(points))


def sweep_num_active(values: tuple[int, ...] = (1, 2, 3), preset_name: str = "tiny",
                     seed: int = 0) -> AblationResult:
    """A2a: selector size P at fixed N."""
    preset = get_preset(preset_name)
    spec = preset.dataset("cifar10")
    rng = new_rng(seed)
    bundle = spec.bundle_factory(spawn_rng(rng))
    points = []
    for num_active in values:
        config = preset.ensembler_config(spec).replace(num_active=num_active)
        points.append(_evaluate_point(f"P={num_active}", bundle, spec, config, preset, rng))
    return AblationResult("P", tuple(points))


def sweep_sigma(values: tuple[float, ...] = (0.0, 0.1, 0.3), preset_name: str = "tiny",
                seed: int = 0) -> AblationResult:
    """A2b: stage-1/3 noise scale sigma (0 removes the diversification)."""
    preset = get_preset(preset_name)
    spec = preset.dataset("cifar10")
    rng = new_rng(seed)
    bundle = spec.bundle_factory(spawn_rng(rng))
    points = []
    for sigma in values:
        config = preset.ensembler_config(spec).replace(sigma=sigma)
        points.append(_evaluate_point(f"sigma={sigma}", bundle, spec, config, preset, rng))
    return AblationResult("sigma", tuple(points))


def sweep_lambda(values: tuple[float, ...] = (0.0, 1.0, 10.0), preset_name: str = "tiny",
                 seed: int = 0) -> AblationResult:
    """A3: the Eq. 3 quasi-orthogonality regulariser weight."""
    preset = get_preset(preset_name)
    spec = preset.dataset("cifar10")
    rng = new_rng(seed)
    bundle = spec.bundle_factory(spawn_rng(rng))
    points = []
    for lam in values:
        config = preset.ensembler_config(spec).replace(lambda_reg=lam)
        points.append(_evaluate_point(f"lambda={lam}", bundle, spec, config, preset, rng))
    return AblationResult("lambda", tuple(points))


@dataclasses.dataclass(frozen=True)
class BruteForceCostTable:
    """A4: the O(2^N) attack-cost claim of Section III-D."""

    rows: tuple[tuple[int, int, int, float], ...]  # (N, subsets, C(N,P), hours at 1s/attack)

    def to_markdown(self) -> str:
        headers = ["N", "Subsets (2^N - 1)", "C(N, P=N//2)", "Hours @ 1 s/attack"]
        body = [[str(n), str(s), str(c), f2(h)] for n, s, c, h in self.rows]
        return format_markdown_table(headers, body)


def brute_force_cost_table(values: tuple[int, ...] = (4, 6, 8, 10, 12, 16)) -> BruteForceCostTable:
    """Tabulate the brute-force search space as N grows."""
    rows = []
    for n in values:
        subsets = brute_force_search_space(n)
        with_p = brute_force_search_space(n, n // 2)
        hours = expected_attack_work(n, single_attack_seconds=1.0) / 3600.0
        rows.append((n, subsets, with_p, hours))
    return BruteForceCostTable(tuple(rows))
