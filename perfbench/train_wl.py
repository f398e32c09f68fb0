"""The ``train`` workload: fused stage-1 steps over N stacked ResNets.

Stage 1 of Ensembler trains N distinct networks (Eq. 2).  The batched
backend stacks them (``stack_modules``) and advances all N in one step:
one grad-mode forward through the stacked head, noise, body and tail,
``batched_cross_entropy`` per member, one backward over the summed loss
and one elementwise update (``TrainingConfig.build_stacked_optimizer``).
This exercises ``repro.nn.batched`` in grad mode with unfolded BN, where
the serving workloads run it folded and gradient-free.
"""

from __future__ import annotations

import numpy as np

from harness import BlockMeter, Run, clock
from repro.core.noise import FixedGaussianNoise
from repro.experiments.common import get_preset
from repro.models.resnet import ResNet
from repro.nn import functional as F
from repro.nn.batched import batched_cross_entropy, stack_modules
from repro.nn.profiling import FlopCounter
from repro.nn.tensor import Tensor
from repro.utils.rng import spawn_rng

BATCH = 32
IMAGE_HW = 16
#: distinct per-member batches generated from the seed (cycled)
POOL_STEPS = 8
WARM_UP_STEPS = 3
#: first-step losses must match the per-net looped step within this
TOLERANCE = 1e-5
BLOCK_S = 1.0


class Fixture:
    """N stacked stage-1 networks, their optimiser and a batch pool."""

    def __init__(self, seed: int):
        preset = get_preset("small")
        spec = preset.dataset("cifar10")
        config = spec.model_config
        rng = np.random.default_rng(seed)
        self.num_nets = preset.num_nets
        self.nets = [ResNet(config, rng=spawn_rng(rng))
                     for _ in range(self.num_nets)]
        self.noises = [FixedGaussianNoise(config.intermediate_shape(IMAGE_HW),
                                          preset.sigma, spawn_rng(rng))
                       for _ in range(self.num_nets)]
        for module in self.nets + self.noises:
            module.train()
        self.stacked = stack_modules(self.nets)
        self.stacked_noise = stack_modules(self.noises)
        self.stacked.train(True)
        self.stacked_noise.train(True)
        self.optimizer = preset.train.build_stacked_optimizer(
            self.stacked.parameters(), self.num_nets)
        self.images = rng.standard_normal(
            (POOL_STEPS, self.num_nets, BATCH, 3, IMAGE_HW, IMAGE_HW)
        ).astype(np.float32)
        self.labels = rng.integers(0, config.num_classes,
                                   (POOL_STEPS, self.num_nets, BATCH))
        self.step_index = 0
        self.first_losses = None
        self.nonfinite = 0
        for _ in range(WARM_UP_STEPS):
            losses = step(self)
            if self.first_losses is None:
                self.first_losses = losses

    def batch(self):
        index = self.step_index % POOL_STEPS
        return self.images[index], self.labels[index]

    def forward(self, images, labels):
        features = self.stacked_noise(self.stacked.head(Tensor(images)))
        logits = self.stacked.tail(self.stacked.body(features))
        return batched_cross_entropy(logits, labels)


def build(seed: int) -> Fixture:
    return Fixture(seed)


def step(fx: Fixture, tracer=None) -> np.ndarray:
    """One fused SGD step over all N members; returns member losses."""
    images, labels = fx.batch()
    fx.step_index += 1
    fx.optimizer.zero_grad()
    if tracer is None:
        losses = fx.forward(images, labels)
    else:
        with tracer.span("train.forward"):
            losses = fx.forward(images, labels)
    losses.sum().backward()
    fx.optimizer.step()
    values = losses.data.copy()
    if not np.all(np.isfinite(values)):
        fx.nonfinite += 1
    return values


def looped_first_losses(fx: Fixture) -> np.ndarray:
    """Per-net reference losses on the first batch, one network at a time
    (the source networks still hold the initial weights)."""
    images, labels = fx.images[0], fx.labels[0]
    losses = []
    for member, (net, noise) in enumerate(zip(fx.nets, fx.noises)):
        logits = net.tail(net.body(noise(net.head(Tensor(images[member])))))
        losses.append(float(F.cross_entropy(logits, labels[member]).data))
    return np.array(losses)


def measure(fx: Fixture, seconds: float, tracer=None):
    run = Run()
    meter = BlockMeter(run, seconds, BLOCK_S)
    samples = fx.num_nets * BATCH
    nonfinite = fx.nonfinite
    while not meter.done:
        start = clock()
        step(fx, tracer)
        elapsed = clock() - start
        run.attempted += 1
        run.latencies.append(elapsed)
        meter.add(samples, elapsed)
    meter.close()
    if tracer is not None:
        tracer.restore()  # the checks and counts below are not traced
    run.failed += fx.nonfinite - nonfinite
    expected = looped_first_losses(fx)
    diff = float(np.max(np.abs(expected - fx.first_losses)))
    if not diff <= TOLERANCE:
        run.failed += 1
    run.notes.append(f"first-step member losses vs looped: max |diff| "
                     f"{diff:.2e} (tolerance {TOLERANCE}); non-finite steps "
                     f"{fx.nonfinite - nonfinite}")
    if tracer is None:
        return run, {}
    images, labels = fx.batch()
    with FlopCounter() as counter:
        fx.forward(images, labels)
    layers = {f"flops.train_{kind}_per_step": counter.by_kind.get(kind, 0)
              for kind in ("conv2d", "batch_norm", "linear")}
    return run, layers


def instrument(tracer, fx: Fixture) -> None:
    """Wrap backward, the optimiser step and the stacked module kinds."""
    from serving_wl import instrument_batched

    tracer.wrap(Tensor, "backward", "train.backward")
    tracer.wrap(type(fx.optimizer), "step", "optim.step")
    instrument_batched(tracer)
