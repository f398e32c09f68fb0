"""Ensembler's three-stage training pipeline (Section III-C, Fig. 2 bottom).

Stage 1
    Train N complete networks ``M^i = {M^i_c,h, M^i_s, M^i_c,t}``, each with
    its own *fixed* Gaussian noise map injected after the head (Eq. 2).  The
    independently drawn noise maps are quasi-orthogonal, so the N heads learn
    different weights.
Stage 2
    The client secretly selects P of the N networks (the Selector).
Stage 3
    Freeze the P selected bodies.  Re-train a fresh head and a fresh
    (P x feature_dim -> classes) tail through the selector, with a new fixed
    noise map, minimising Eq. 3: the ensemble cross-entropy plus
    ``λ · max_i CS(M_c,h(x), M^i_c,h(x))`` which keeps the new head
    quasi-orthogonal to every stage-1 head.

Interpretation note: Eq. 3 writes the CE term as a sum over the P selected
nets.  Because the selector concatenates the P branches before the tail, the
gradient of the ensemble CE w.r.t. the head already *is* the sum of the P
per-branch gradients (the property Proposition 1 relies on); we therefore
implement the CE term as the cross-entropy of the ensembled prediction.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro import nn
from repro.core.ensemble import EnsemblerModel
from repro.core.noise import FixedGaussianNoise
from repro.core.selector import Selector
from repro.data.datasets import ArrayDataset, DataLoader
from repro.models.resnet import ResNet, ResNetConfig, ResNetHead, ResNetTail
from repro.nn import functional as F
from repro.nn.batched import (
    StackedBatchNorm2d,
    StackedBodies,
    UnstackableError,
    batched_cross_entropy,
    stack_modules,
    unbind,
)
from repro.nn.tensor import Tensor, no_grad
from repro.utils.config import FrozenConfig
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng, spawn_rng

logger = get_logger(__name__)


@dataclasses.dataclass(frozen=True)
class TrainingConfig(FrozenConfig):
    """One optimisation run over the dataset.

    ``optimizer`` selects momentum SGD (classifiers) or Adam (the inversion
    decoders, which barely move under SGD); ``momentum`` is ignored for Adam.
    """

    epochs: int = 3
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    optimizer: str = "sgd"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")

    def build_optimizer(self, params: list[nn.Parameter]) -> nn.Optimizer:
        if self.optimizer == "adam":
            return nn.Adam(params, lr=self.lr, weight_decay=self.weight_decay)
        return nn.SGD(params, lr=self.lr, momentum=self.momentum,
                      weight_decay=self.weight_decay)

    def build_stacked_optimizer(self, params: list[nn.Parameter],
                                num_stacked: int) -> nn.Optimizer:
        """Fused multi-net variant: per-member state along the ensemble axis."""
        if self.optimizer == "adam":
            return nn.StackedAdam(params, num_stacked, lr=self.lr,
                                  weight_decay=self.weight_decay)
        return nn.StackedSGD(params, num_stacked, lr=self.lr,
                             momentum=self.momentum,
                             weight_decay=self.weight_decay)


@dataclasses.dataclass(frozen=True)
class EnsemblerConfig(FrozenConfig):
    """Hyper-parameters of the full Ensembler pipeline.

    The paper's setting is ``num_nets=10``, ``num_active`` in {4, 3, 5}
    depending on the dataset, ``sigma=0.1`` and a cosine-similarity
    regulariser weight ``lambda_reg``.
    """

    num_nets: int = 10
    num_active: int = 4
    sigma: float = 0.1
    lambda_reg: float = 1.0
    regularizer: str = "standardized_cosine"
    stage1: TrainingConfig = TrainingConfig()
    stage3: TrainingConfig = TrainingConfig()

    def __post_init__(self):
        if not 1 <= self.num_active <= self.num_nets:
            raise ValueError("need 1 <= num_active <= num_nets")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.lambda_reg < 0:
            raise ValueError("lambda_reg must be non-negative")
        if self.regularizer not in ("cosine", "standardized_cosine"):
            raise ValueError("regularizer must be 'cosine' or 'standardized_cosine'")


def run_sgd(
    params: list[nn.Parameter],
    loss_fn: Callable[[np.ndarray, np.ndarray], Tensor],
    dataset: ArrayDataset,
    config: TrainingConfig,
    rng: np.random.Generator,
) -> list[float]:
    """Generic mini-batch SGD loop; returns per-epoch mean losses.

    ``loss_fn(images, labels)`` builds the autograd graph for one batch.
    Every trainer and defense in the library goes through this single loop.
    """
    optimizer = config.build_optimizer(params)
    loader = DataLoader(dataset, batch_size=config.batch_size, shuffle=True, rng=rng)
    history = []
    for epoch in range(config.epochs):
        losses = []
        for images, labels in loader:
            optimizer.zero_grad()
            loss = loss_fn(images, labels)
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
        history.append(float(np.mean(losses)))
        logger.debug("epoch %d loss %.4f", epoch, history[-1])
    return history


def run_stacked_sgd(
    params: list[nn.Parameter],
    loss_fn: Callable[[np.ndarray, np.ndarray], Tensor],
    dataset: ArrayDataset,
    config: TrainingConfig,
    rngs: list[np.random.Generator],
) -> list[list[float]]:
    """Fused sibling of :func:`run_sgd`: train E member networks in one pass.

    ``loss_fn(images, labels)`` receives stacked ``(E, B, ...)`` batches —
    member ``e``'s row drawn by its own shuffle stream ``rngs[e]`` — and must
    return the ``(E,)`` per-member loss vector (see
    :func:`repro.nn.batched.batched_cross_entropy`).  The sum of the vector
    backpropagates each member's own gradient into the stacked parameters
    and one elementwise optimiser step advances all members, so the result
    matches E independent :func:`run_sgd` runs with the same per-member RNG
    streams (up to float reassociation in the batched kernels).  Returns the
    per-member epoch-loss histories ``[E][epochs]``.
    """
    if not rngs:
        raise ValueError("need at least one member RNG stream")
    optimizer = config.build_stacked_optimizer(params, len(rngs))
    loaders = [DataLoader(dataset, batch_size=config.batch_size, shuffle=True, rng=rng)
               for rng in rngs]
    histories: list[list[float]] = [[] for _ in rngs]
    for epoch in range(config.epochs):
        sums = np.zeros(len(rngs), dtype=np.float64)
        batches_seen = 0
        for member_batches in zip(*loaders):
            images = np.stack([images for images, _ in member_batches])
            labels = np.stack([labels for _, labels in member_batches])
            optimizer.zero_grad()
            member_losses = loss_fn(images, labels)
            if member_losses.shape != (len(rngs),):
                raise ValueError(
                    f"loss_fn must return the (E,) per-member loss vector, got "
                    f"shape {member_losses.shape}")
            member_losses.sum().backward()
            optimizer.step()
            sums += member_losses.data.astype(np.float64)
            batches_seen += 1
        for member, history in enumerate(histories):
            history.append(float(sums[member] / batches_seen))
        logger.debug("epoch %d mean member loss %.4f", epoch,
                     float(sums.mean() / batches_seen))
    return histories


def recalibrate_batchnorm(
    modules: list[nn.Module],
    forward_fn: Callable[[np.ndarray], object],
    images: np.ndarray,
    batch_size: int = 64,
) -> None:
    """Re-estimate BatchNorm running statistics with a cumulative average.

    During training the running statistics trail the (still-moving) weights
    by the EMA horizon, which leaves a train/eval gap — fatal for Ensembler's
    stage 3, where the frozen server bodies amplify any shift in the head's
    output distribution.  This pass resets the statistics of every
    ``BatchNorm2d`` inside ``modules`` and replays the training data through
    ``forward_fn`` in train mode, averaging the per-batch statistics exactly
    (PyTorch's ``momentum=None`` behaviour).  Stacked (batched-ensemble)
    batch-norm layers are recalibrated the same way: their ``(E, C)``
    running statistics reset and re-average per member in one fused replay.
    """
    bns = [m for module in modules for m in module.modules()
           if isinstance(m, (nn.BatchNorm2d, StackedBatchNorm2d))]
    if not bns:
        return
    saved = [(bn.momentum, bn.training) for bn in bns]
    for bn in bns:
        bn.running_mean[...] = 0.0
        bn.running_var[...] = 1.0
        bn.train(True)
    with no_grad():
        for index, start in enumerate(range(0, len(images), batch_size)):
            for bn in bns:
                bn.momentum = 1.0 / (index + 1)
            forward_fn(images[start:start + batch_size])
    for bn, (momentum, training) in zip(bns, saved):
        bn.momentum = momentum
        bn.train(training)


@dataclasses.dataclass
class EnsemblerTrainingResult:
    """Everything stage 1-3 produce, kept for evaluation and attacks."""

    model: EnsemblerModel
    stage1_nets: list[ResNet]
    stage1_noises: list[nn.Module]
    selector: Selector
    stage1_history: list[list[float]]
    stage3_history: list[float]


NoiseFactory = Callable[[tuple[int, int, int], np.random.Generator], nn.Module]


class EnsemblerTrainer:
    """Runs the three training stages and assembles the Ensembler model.

    ``noise_factory`` builds the per-net split-point noise module; the default
    is the paper's fixed Gaussian map.  The DR-N baseline of Table II reuses
    this trainer with a dropout factory and no stage-1 noise.
    """

    def __init__(
        self,
        model_config: ResNetConfig,
        image_hw: int,
        config: EnsemblerConfig,
        rng: np.random.Generator | None = None,
        noise_factory: NoiseFactory | None = None,
    ):
        self.model_config = model_config
        self.image_hw = image_hw
        self.config = config
        self.rng = rng if rng is not None else new_rng()
        self.intermediate_shape = model_config.intermediate_shape(image_hw)
        if noise_factory is None:
            sigma = config.sigma
            noise_factory = lambda shape, noise_rng: FixedGaussianNoise(shape, sigma, noise_rng)
        self.noise_factory = noise_factory

    # -- stage 1 -----------------------------------------------------------
    def train_stage1(self, dataset: ArrayDataset) -> tuple[list[ResNet], list[nn.Module],
                                                           list[list[float]]]:
        """Train the N distinct networks of Eq. 2.

        When the N nets stack, the N independent trainings run as one
        fused multi-net pass (:func:`run_stacked_sgd`): the N parameter sets
        stack along the ensemble axis, each net keeps its own batch-shuffle
        stream, loss and optimiser state, and one elementwise update per
        step advances all N.  The RNG spawn order (net init, noise map, SGD
        stream, per net) matches the per-net loop exactly, so both paths
        consume identical random streams; ensembles that cannot be stacked
        (e.g. DR-N's dropout noise) fall back to that loop.
        """
        nets: list[ResNet] = []
        noises: list[nn.Module] = []
        sgd_rngs: list[np.random.Generator] = []
        for _ in range(self.config.num_nets):
            net = ResNet(self.model_config, rng=spawn_rng(self.rng))
            noise = self.noise_factory(self.intermediate_shape, spawn_rng(self.rng))
            net.train()
            noise.train()
            nets.append(net)
            noises.append(noise)
            sgd_rngs.append(spawn_rng(self.rng))
        histories = None
        if len(nets) > 1:
            histories = self._train_stage1_fused(nets, noises, dataset, sgd_rngs)
        if histories is None:
            histories = []
            for index, (net, noise, sgd_rng) in enumerate(zip(nets, noises, sgd_rngs)):
                def loss_fn(images, labels, net=net, noise=noise):
                    features = noise(net.head(Tensor(images)))
                    logits = net.tail(net.body(features))
                    return F.cross_entropy(logits, labels)

                history = run_sgd(net.parameters(), loss_fn, dataset,
                                  self.config.stage1, sgd_rng)
                logger.info("stage1 net %d final loss %.4f", index, history[-1])
                histories.append(history)
        self._recalibrate_stage1(nets, noises, dataset)
        for net in nets:
            net.eval()
        return nets, noises, histories

    def _train_stage1_fused(self, nets: list[ResNet], noises: list[nn.Module],
                            dataset: ArrayDataset,
                            sgd_rngs: list[np.random.Generator]
                            ) -> list[list[float]] | None:
        """One fused multi-net SGD pass over all N stage-1 networks.

        Returns the per-net histories, or ``None`` when the ensemble cannot
        be stacked (the caller then runs the reference per-net loop).
        """
        try:
            stacked_nets = stack_modules(nets)
            stacked_noise = stack_modules(noises)
        except UnstackableError:
            return None
        stacked_nets.train(True)
        stacked_noise.train(True)

        def loss_fn(images, labels):
            features = stacked_noise(stacked_nets.head(Tensor(images)))
            logits = stacked_nets.tail(stacked_nets.body(features))
            return batched_cross_entropy(logits, labels)

        histories = run_stacked_sgd(stacked_nets.parameters(), loss_fn, dataset,
                                    self.config.stage1, sgd_rngs)
        stacked_nets.unstack_to(nets)
        for index, history in enumerate(histories):
            logger.info("stage1 net %d final loss %.4f", index, history[-1])
        return histories

    def _recalibrate_stage1(self, nets: list[ResNet], noises: list[nn.Module],
                            dataset: ArrayDataset) -> None:
        """Close the stage-1 BN train/eval gap for all N nets.

        When the nets stack, the N per-net replays collapse into one
        fused :func:`~repro.nn.batched.stack_modules` pass (the N nets are
        architecturally identical by construction); the recalibrated running
        statistics are written back into the loop-format nets, so downstream
        stages see no difference.  Falls back to per-net replays when the
        nets or their noise modules cannot be stacked (e.g. DR-N's dropout).
        """
        batch_size = self.config.stage1.batch_size
        if len(nets) > 1:
            try:
                stacked_nets = stack_modules(nets)
                stacked_noise = stack_modules(noises)
            except UnstackableError:
                pass
            else:
                def replay(images):
                    features = stacked_noise(stacked_nets.head(Tensor(images)))
                    return stacked_nets.tail(stacked_nets.body(features))

                recalibrate_batchnorm([stacked_nets], replay, dataset.images,
                                      batch_size)
                stacked_nets.unstack_to(nets)
                return
        for net, noise in zip(nets, noises):
            def replay(images, net=net, noise=noise):
                return net.tail(net.body(noise(net.head(Tensor(images)))))

            recalibrate_batchnorm([net], replay, dataset.images, batch_size)

    # -- stage 2 -----------------------------------------------------------
    def select(self) -> Selector:
        """Secretly select P of the N networks."""
        return Selector.random(self.config.num_nets, self.config.num_active,
                               spawn_rng(self.rng))

    # -- stage 3 -----------------------------------------------------------
    def train_stage3(
        self,
        dataset: ArrayDataset,
        nets: list[ResNet],
        selector: Selector,
    ) -> tuple[EnsemblerModel, list[float]]:
        """Re-train a fresh head/tail against the frozen selected bodies (Eq. 3)."""
        config = self.config
        head = ResNetHead(self.model_config, spawn_rng(self.rng))
        tail = ResNetTail(self.model_config, spawn_rng(self.rng),
                          in_multiplier=selector.num_active)
        noise = self.noise_factory(self.intermediate_shape, spawn_rng(self.rng))

        bodies = [net.body for net in nets]
        stage1_heads = [net.head for net in nets]
        for body in bodies:
            body.requires_grad_(False)
            body.eval()  # freeze batch-norm statistics as well
        for s1_head in stage1_heads:
            s1_head.requires_grad_(False)
            s1_head.eval()
        selected_bodies = [bodies[i] for i in selector.indices]
        selected_heads = [stage1_heads[i] for i in selector.indices]
        head.train()
        tail.train()

        # Evaluate the P frozen bodies as one fused pass per batch when they
        # stack.  Their parameters are frozen, so gradients only flow through
        # the batched ops back into the new head — exactly as in the loop.
        stacked_selected = None
        if len(selected_bodies) > 1:
            stacked_selected = StackedBodies.try_build(selected_bodies, eval_mode=True)

        standardize = config.regularizer == "standardized_cosine"

        def prepare(features: Tensor) -> Tensor:
            """Flatten head output for the similarity penalty.

            With the standardized variant, features are centred and scaled by
            their batch statistics first, so the penalty measures the
            *image-dependent* correlation between heads — the component an
            attacker's traffic-standardised decoder actually exploits — and
            not just the static mean/scale offsets.
            """
            if standardize:
                mean = Tensor(features.data.mean(axis=0))
                std = Tensor(features.data.std(axis=0) + 1e-3)
                features = (features - mean) / std
            return features.flatten()

        def loss_fn(images, labels):
            x = Tensor(images)
            head_out = head(x)
            features = noise(head_out)
            if stacked_selected is not None:
                branch_outputs = unbind(stacked_selected(features))
            else:
                branch_outputs = [body(features) for body in selected_bodies]
            logits = tail(selector.apply_subset(branch_outputs))
            loss = F.cross_entropy(logits, labels)
            if config.lambda_reg > 0:
                # "Quasi-orthogonal to all of the previous heads": penalise the
                # largest absolute similarity (anti-correlation is as
                # invertible as correlation, so both directions are penalised).
                flat_new = prepare(head_out)
                sims = [F.cosine_similarity(flat_new, prepare(s1(x).detach()).detach())
                        .mean().abs() for s1 in selected_heads]
                penalty = nn.stack(sims).max()
                loss = loss + config.lambda_reg * penalty
            return loss

        params = head.parameters() + tail.parameters()
        history = run_sgd(params, loss_fn, dataset, config.stage3, spawn_rng(self.rng))
        # Close the BN train/eval gap: the frozen bodies amplify any shift in
        # the head's output distribution, so the head's running statistics
        # must match its final weights exactly.
        recalibrate_batchnorm([head], lambda images: head(Tensor(images)),
                              dataset.images, config.stage3.batch_size)
        head.eval()
        tail.eval()
        logger.info("stage3 final loss %.4f", history[-1])
        model = EnsemblerModel(head, bodies, tail, selector, noise)
        return model, history

    # -- full pipeline -----------------------------------------------------
    def train(self, dataset: ArrayDataset) -> EnsemblerTrainingResult:
        """Run stages 1-3 end to end."""
        nets, noises, stage1_history = self.train_stage1(dataset)
        selector = self.select()
        model, stage3_history = self.train_stage3(dataset, nets, selector)
        return EnsemblerTrainingResult(
            model=model,
            stage1_nets=nets,
            stage1_noises=noises,
            selector=selector,
            stage1_history=stage1_history,
            stage3_history=stage3_history,
        )
