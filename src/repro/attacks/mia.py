"""Query-free model-inversion attack (He et al., 2019; Sections II-B, III-B).

The semi-honest server knows: the architecture, its own body weights
``M_s`` (or all N bodies ``{M_s^i}`` under Ensembler), and a dataset from the
same distribution as the private training data.  It cannot query the client.
The attack has two phases:

1. **Shadow training** — fit a shadow head ``~M_c,h`` (three convolutions per
   Section IV-A) and shadow tail ``~M_c,t`` so the pipeline through the
   *frozen, known* server bodies classifies the auxiliary data well.  If the
   shadow head converges near the client's head, its inverse transfers.
2. **Decoder training** — fit ``~M_c,h^{-1}`` to invert the shadow head by
   reconstruction on auxiliary data, then apply it to intercepted features.

Two constructions from Section III-B are provided: ``attack_single`` trains
the shadow against one chosen body; ``attack_adaptive`` trains against all N
bodies through a selector-shaped activation (uniform 1/N concatenation, since
the true selection is secret).

Multi-attack engine
-------------------
The brute-force validation of Section III-D (and the per-body sweep of
Table I) mounts *K independent* attacks that differ only in which body
subset the shadow trains against.  ``train_shadows`` / ``train_decoders``
run all K as **one fused stacked pass** (:mod:`repro.nn.batched`): the K
shadow heads, the gathered K·P frozen body copies and the K decoders stack
along the ensemble axis, each member keeps its own RNG streams (init, batch
order, noise augmentation), and one :func:`~repro.core.training.run_stacked_sgd`
drives all members.  ``attack_subsets`` orchestrates both phases and spawns
the per-member streams in exactly the order the looped path would, so
``backend="fused"`` and ``backend="looped"`` consume identical randomness
and agree up to float reassociation in the batched kernels.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

import numpy as np

from repro import nn
from repro.core.training import (
    TrainingConfig,
    recalibrate_batchnorm,
    run_sgd,
    run_stacked_sgd,
)
from repro.data.datasets import ArrayDataset
from repro.models.decoder import build_decoder, build_decoders
from repro.models.resnet import ResNetConfig
from repro.models.shadow import build_shadow_head, build_shadow_tail
from repro.nn import functional as F
from repro.nn.batched import (
    StackedBatchNorm2d,
    UnstackableError,
    batched_cross_entropy,
    batched_mse,
    stack_modules,
)
from repro.nn.tensor import Tensor, concat, no_grad
from repro.utils.config import FrozenConfig
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng, spawn_rng

logger = get_logger(__name__)


@dataclasses.dataclass
class MemberRngs:
    """The six RNG streams one subset attack consumes, in spawn order.

    The looped path spawns them lazily (head init, tail init, shadow batch
    order, then — after shadow training — decoder init, augmentation noise,
    decoder batch order).  The fused engine pre-spawns the same sequence per
    member before training anything, which keeps the two backends on
    identical random streams.
    """

    head: np.random.Generator
    tail: np.random.Generator
    shadow_sgd: np.random.Generator
    decoder: np.random.Generator
    aug: np.random.Generator
    decoder_sgd: np.random.Generator


@dataclasses.dataclass(frozen=True)
class AttackConfig(FrozenConfig):
    """Budgets for the two attack phases.

    ``moment_weight`` scales the traffic moment-matching term: the semi-honest
    server observes the client's uploaded features during normal service, so
    it can align its shadow head's per-channel feature statistics with the
    observed marginal distribution.  This uses no queries (it never sees
    input/feature *pairs*) and substantially strengthens the shadow — set it
    to 0 to ablate.
    """

    shadow: TrainingConfig = TrainingConfig(epochs=3, lr=0.05)
    decoder: TrainingConfig = TrainingConfig(epochs=3, lr=3e-3, optimizer="adam")
    decoder_width: int = 32
    moment_weight: float = 10.0
    gram_weight: float = 10.0
    bn_weight: float = 5.0
    decoder_noise_aug: float = 0.1
    standardize_features: bool = True
    shadow_mode: str = "matched"  # 'matched' (victim architecture) or 'paper' (3-conv)


@dataclasses.dataclass
class AttackArtifacts:
    """What a completed attack hands to the evaluation: the trained decoder
    (plus the shadow head it inverts, for inspection).

    ``input_mean`` / ``input_std`` standardise the decoder's input; at attack
    time they are the statistics of *observed victim traffic*, which cancels
    the element-wise scale/shift mismatch between shadow and victim features.
    """

    name: str
    shadow_head: nn.Module
    decoder: nn.Module
    input_mean: np.ndarray | None = None
    input_std: np.ndarray | None = None
    details: dict[str, Any] = dataclasses.field(default_factory=dict)

    def reconstruct(self, intercepted_features: np.ndarray) -> np.ndarray:
        """Apply the inversion decoder to intercepted intermediate features."""
        self.decoder.eval()
        features = np.asarray(intercepted_features, dtype=np.float32)
        if self.input_mean is not None:
            features = (features - self.input_mean) / (self.input_std + 1e-3)
        with no_grad():
            return self.decoder(Tensor(features)).data


class InversionAttack:
    """The adversarial server's attack toolkit."""

    def __init__(
        self,
        model_config: ResNetConfig,
        image_shape: tuple[int, int, int],
        aux_dataset: ArrayDataset,
        config: AttackConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.model_config = model_config
        self.image_shape = image_shape
        self.aux_dataset = aux_dataset
        self.config = config if config is not None else AttackConfig()
        self.rng = rng if rng is not None else new_rng()
        self.intermediate_shape = model_config.intermediate_shape(image_shape[1])
        self._observed_mean: np.ndarray | None = None
        self._observed_std: np.ndarray | None = None
        self._observed_gram: np.ndarray | None = None
        self._fusable_cache: dict[tuple[int, ...], bool] = {}

    def observe_traffic(self, intercepted_features: np.ndarray) -> None:
        """Record marginal statistics of intercepted client traffic.

        The server sees every uploaded feature tensor while providing the
        service; it keeps the element-wise mean and standard-deviation maps
        and the channel Gram matrix over observed uploads.  All are marginal
        statistics (never paired with inputs), so the query-free assumption
        holds.  The Gram matrix pins down channel identities, which is what
        makes the shadow head converge to the victim's representation.
        """
        features = np.asarray(intercepted_features)
        if features.ndim != 4:
            raise ValueError("expected NCHW intercepted features")
        self._observed_mean = features.mean(axis=0).astype(np.float32)
        self._observed_std = features.std(axis=0).astype(np.float32)
        n, c, h, w = features.shape
        flat = features.reshape(n, c, h * w)
        gram = np.einsum("ncl,ndl->cd", flat, flat) / (n * h * w)
        self._observed_gram = gram.astype(np.float32)

    def _spawn_member_rngs(self, count: int) -> list[MemberRngs]:
        """Spawn ``count`` per-member RNG bundles in looped-path order."""
        return [MemberRngs(*(spawn_rng(self.rng) for _ in range(6)))
                for _ in range(count)]

    # -- phase 1: shadow network ----------------------------------------
    def train_shadow(self, bodies: list[nn.Module]) -> nn.Module:
        """Fit a shadow head/tail against the frozen ``bodies``.

        With one body this is the standard CI shadow; with several, the
        attacker imitates the selector with a uniform 1/K concatenation.
        """
        if not bodies:
            raise ValueError("attack needs at least one server body")
        shadow_head = build_shadow_head(self.model_config, self.config.shadow_mode,
                                        spawn_rng(self.rng))
        shadow_tail = build_shadow_tail(self.model_config, in_multiplier=len(bodies),
                                        rng=spawn_rng(self.rng))
        return self._train_shadow_impl(bodies, shadow_head, shadow_tail,
                                       spawn_rng(self.rng))

    def _train_shadow_impl(self, bodies: list[nn.Module], shadow_head: nn.Module,
                           shadow_tail: nn.Module,
                           sgd_rng: np.random.Generator) -> nn.Module:
        """The looped shadow-training body, with modules/streams injected."""
        for body in bodies:
            body.requires_grad_(False)
            body.eval()
        shadow_head.train()
        shadow_tail.train()
        scale = 1.0 / len(bodies)
        moment_weight = self.config.moment_weight
        gram_weight = self.config.gram_weight
        bn_weight = self.config.bn_weight
        use_moments = moment_weight > 0 and self._observed_mean is not None
        use_gram = gram_weight > 0 and self._observed_gram is not None
        if use_moments:
            observed_mean = Tensor(self._observed_mean)
            observed_std = Tensor(self._observed_std)
        if use_gram:
            observed_gram = Tensor(self._observed_gram)

        body_bns: list[nn.BatchNorm2d] = []
        if bn_weight > 0:
            for body in bodies:
                for module in body.modules():
                    if isinstance(module, nn.BatchNorm2d):
                        module.record_batch_stats = True
                        body_bns.append(module)

        def loss_fn(images, labels):
            features = shadow_head(Tensor(images))
            outputs = [body(features) * scale for body in bodies]
            logits = shadow_tail(concat(outputs, axis=1))
            loss = F.cross_entropy(logits, labels)
            if use_moments:
                mean = features.mean(axis=0)
                std = (features.var(axis=0) + 1e-6).sqrt()
                moment_gap = (((mean - observed_mean) ** 2).mean()
                              + ((std - observed_std) ** 2).mean())
                loss = loss + moment_weight * moment_gap
            if use_gram:
                n, c, h, w = features.shape
                flat = features.reshape(n, c, h * w)
                gram = (flat @ flat.transpose(0, 2, 1)).sum(axis=0) / (n * h * w)
                loss = loss + gram_weight * ((gram - observed_gram) ** 2).mean()
            if body_bns:
                # DeepInversion-style prior: the frozen bodies' BatchNorm
                # running statistics describe the activations the victim's
                # head produced; a matching shadow reproduces them.
                gaps = []
                for bn in body_bns:
                    batch_mean, batch_var = bn.recorded_stats
                    gaps.append(((batch_mean - Tensor(bn.running_mean)) ** 2).mean()
                                + ((batch_var - Tensor(bn.running_var)) ** 2).mean())
                loss = loss + bn_weight * nn.stack(gaps).mean()
            return loss

        params = shadow_head.parameters() + shadow_tail.parameters()
        try:
            history = run_sgd(params, loss_fn, self.aux_dataset, self.config.shadow,
                              sgd_rng)
        finally:
            for bn in body_bns:
                bn.record_batch_stats = False
                bn.recorded_stats = None
        recalibrate_batchnorm([shadow_head],
                              lambda images: shadow_head(Tensor(images)),
                              self.aux_dataset.images, self.config.shadow.batch_size)
        logger.info("shadow training final loss %.4f", history[-1])
        shadow_head.eval()
        return shadow_head

    # -- fused multi-attack engine ----------------------------------------
    @staticmethod
    def _validated_subsets(bodies: list[nn.Module],
                           subsets: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
        subsets = [tuple(int(i) for i in subset) for subset in subsets]
        if not subsets:
            raise ValueError("need at least one subset to attack")
        sizes = {len(subset) for subset in subsets}
        if len(sizes) != 1:
            raise ValueError(f"subsets must share one size, got sizes {sorted(sizes)}")
        if not sizes.pop():
            raise ValueError("subsets must be non-empty")
        for subset in subsets:
            for index in subset:
                if not 0 <= index < len(bodies):
                    raise ValueError(f"body index {index} out of range")
        return subsets

    def train_shadows(self, bodies: list[nn.Module],
                      subsets: Sequence[Sequence[int]],
                      rngs: list[MemberRngs] | None = None) -> list[nn.Module]:
        """Fit K shadow heads — one per body subset — as one stacked pass.

        All subsets must share one size P (``attack_subsets`` chunks a mixed
        enumeration accordingly).  The K heads/tails and the K·P gathered
        frozen body copies stack along the ensemble axis; each member draws
        its own batches and the per-member losses (cross-entropy plus the
        moment/Gram/BN-prior terms of :meth:`train_shadow`) sum into one
        backward.  Falls back to K looped trainings — on the same
        pre-spawned streams — when the modules cannot be stacked.
        """
        subsets = self._validated_subsets(bodies, subsets)
        k, p = len(subsets), len(subsets[0])
        if rngs is None:
            rngs = self._spawn_member_rngs(k)
        chosen_lists = [[bodies[i] for i in subset] for subset in subsets]
        for chosen in chosen_lists:
            for body in chosen:
                body.requires_grad_(False)
                body.eval()
        heads = [build_shadow_head(self.model_config, self.config.shadow_mode,
                                   member.head) for member in rngs]
        tails = [build_shadow_tail(self.model_config, in_multiplier=p,
                                   rng=member.tail) for member in rngs]
        try:
            stacked_heads = stack_modules(heads)
            stacked_tails = stack_modules(tails)
            stacked_bodies = stack_modules(
                [body for chosen in chosen_lists for body in chosen])
        except UnstackableError:
            logger.info("multi-attack ensemble not stackable; running %d looped "
                        "shadow trainings", k)
            return [self._train_shadow_impl(chosen, head, tail, member.shadow_sgd)
                    for chosen, head, tail, member
                    in zip(chosen_lists, heads, tails, rngs)]
        self._train_shadows_fused(stacked_heads, stacked_tails, stacked_bodies,
                                  k, p, [member.shadow_sgd for member in rngs])
        stacked_heads.unstack_to(heads)
        for head in heads:
            head.eval()
        return heads

    def _train_shadows_fused(self, stacked_heads: nn.Module, stacked_tails: nn.Module,
                             stacked_bodies: nn.Module, k: int, p: int,
                             sgd_rngs: list[np.random.Generator]) -> None:
        """Run the fused K-member shadow optimisation in place."""
        stacked_bodies.train(False)
        stacked_heads.train(True)
        stacked_tails.train(True)
        scale = 1.0 / p
        feature_dim = self.model_config.feature_dim
        moment_weight = self.config.moment_weight
        gram_weight = self.config.gram_weight
        bn_weight = self.config.bn_weight
        use_moments = moment_weight > 0 and self._observed_mean is not None
        use_gram = gram_weight > 0 and self._observed_gram is not None
        if use_moments:
            observed_mean = Tensor(self._observed_mean)
            observed_std = Tensor(self._observed_std)
        if use_gram:
            observed_gram = Tensor(self._observed_gram)

        stacked_bns: list[StackedBatchNorm2d] = []
        if bn_weight > 0:
            for module in stacked_bodies.modules():
                if isinstance(module, StackedBatchNorm2d):
                    module.record_batch_stats = True
                    stacked_bns.append(module)
        # Member k's features feed each of its P gathered body copies.
        gather = np.repeat(np.arange(k), p)

        def loss_fn(images, labels):
            features = stacked_heads(Tensor(images))  # (K, B, c, h, w)
            branch_in = features[gather] if p > 1 else features
            outputs = stacked_bodies(branch_in) * scale  # (K*P, B, feat)
            batch = outputs.shape[1]
            # (K*P, B, F) -> (K, B, P*F): the per-subset 1/P-scaled
            # concatenation of Eq. 1, all members at once.
            merged = (outputs.reshape(k, p, batch, feature_dim)
                      .transpose(0, 2, 1, 3).reshape(k, batch, p * feature_dim))
            logits = stacked_tails(merged)
            loss = batched_cross_entropy(logits, labels)  # (K,)
            if use_moments:
                mean = features.mean(axis=1)
                std = (features.var(axis=1) + 1e-6).sqrt()
                moment_gap = (((mean - observed_mean) ** 2).mean(axis=(1, 2, 3))
                              + ((std - observed_std) ** 2).mean(axis=(1, 2, 3)))
                loss = loss + moment_weight * moment_gap
            if use_gram:
                _, n, c, h, w = features.shape
                flat = features.reshape(k, n, c, h * w)
                gram = (flat @ flat.transpose(0, 1, 3, 2)).sum(axis=1) / (n * h * w)
                loss = loss + gram_weight * ((gram - observed_gram) ** 2).mean(axis=(1, 2))
            if stacked_bns:
                gaps = []
                for bn in stacked_bns:
                    rec_mean, rec_var = bn.recorded_stats  # (K*P, C) each
                    gap = (((rec_mean - Tensor(bn.running_mean)) ** 2).mean(axis=1)
                           + ((rec_var - Tensor(bn.running_var)) ** 2).mean(axis=1))
                    gaps.append(gap.reshape(k, p))
                loss = loss + bn_weight * nn.stack(gaps).mean(axis=(0, 2))
            return loss

        params = stacked_heads.parameters() + stacked_tails.parameters()
        try:
            histories = run_stacked_sgd(params, loss_fn, self.aux_dataset,
                                        self.config.shadow, sgd_rngs)
        finally:
            for bn in stacked_bns:
                bn.record_batch_stats = False
                bn.recorded_stats = None
        recalibrate_batchnorm([stacked_heads],
                              lambda images: stacked_heads(Tensor(images)),
                              self.aux_dataset.images, self.config.shadow.batch_size)
        for index, history in enumerate(histories):
            logger.info("shadow %d training final loss %.4f", index, history[-1])

    # -- phase 2: inversion decoder ---------------------------------------
    def _shadow_feature_stats(self, shadow_head: nn.Module) -> tuple[np.ndarray, np.ndarray]:
        """Element-wise mean/std maps of the shadow features over aux data."""
        shadow_head.eval()
        outputs = []
        with no_grad():
            for start in range(0, len(self.aux_dataset), 128):
                batch = self.aux_dataset.images[start:start + 128]
                outputs.append(shadow_head(Tensor(batch)).data)
        features = np.concatenate(outputs)
        return features.mean(axis=0), features.std(axis=0)

    def train_decoder(self, shadow_head: nn.Module) -> tuple[nn.Module, np.ndarray, np.ndarray]:
        """Fit ``~M_c,h^{-1}``: reconstruct aux images from shadow features.

        Two transfer aids are applied: (1) the decoder input is standardised
        element-wise — at training time with shadow-feature statistics, at
        attack time with observed-traffic statistics — cancelling the
        first-order mismatch between shadow and victim features; (2) Gaussian
        input augmentation makes the decoder a denoising inverse, widening
        its basin so residual mismatch (and the victim's additive noise) do
        not break it.  Returns the decoder and the shadow stats.
        """
        decoder = build_decoder(self.intermediate_shape, self.image_shape,
                                width=self.config.decoder_width, rng=spawn_rng(self.rng))
        aug_rng = spawn_rng(self.rng)
        return self._train_decoder_impl(shadow_head, decoder, aug_rng,
                                        spawn_rng(self.rng))

    def _train_decoder_impl(self, shadow_head: nn.Module, decoder: nn.Module,
                            aug_rng: np.random.Generator,
                            sgd_rng: np.random.Generator
                            ) -> tuple[nn.Module, np.ndarray, np.ndarray]:
        """The looped decoder-training body, with modules/streams injected."""
        shadow_head.eval()
        decoder.train()
        aug_sigma = self.config.decoder_noise_aug
        if self.config.standardize_features:
            shadow_mean, shadow_std = self._shadow_feature_stats(shadow_head)
        else:
            shadow_mean = np.zeros(self.intermediate_shape, dtype=np.float32)
            shadow_std = np.ones(self.intermediate_shape, dtype=np.float32)

        def loss_fn(images, _labels):
            x = Tensor(images)
            with no_grad():
                features = shadow_head(x)
            feature_data = (features.data - shadow_mean) / (shadow_std + 1e-3)
            if aug_sigma > 0:
                feature_data = feature_data + aug_rng.normal(
                    0.0, aug_sigma, size=feature_data.shape).astype(np.float32)
            reconstruction = decoder(Tensor(feature_data.astype(np.float32)))
            return F.mse_loss(reconstruction, x)

        history = run_sgd(decoder.parameters(), loss_fn, self.aux_dataset,
                          self.config.decoder, sgd_rng)
        logger.info("decoder training final loss %.4f", history[-1])
        decoder.eval()
        return decoder, shadow_mean, shadow_std

    def train_decoders(self, shadow_heads: list[nn.Module],
                       rngs: list[MemberRngs] | None = None
                       ) -> list[tuple[nn.Module, np.ndarray, np.ndarray]]:
        """Fit K inversion decoders — one per trained shadow head — fused.

        The K (frozen) shadow heads and K fresh decoders stack along the
        ensemble axis; feature standardisation statistics, Gaussian input
        augmentation and batch order all stay per-member.  Falls back to K
        looped :meth:`train_decoder` runs on the same pre-spawned streams
        when stacking fails.  Returns ``(decoder, shadow_mean, shadow_std)``
        per member, exactly like :meth:`train_decoder`.
        """
        shadow_heads = list(shadow_heads)
        if not shadow_heads:
            raise ValueError("need at least one shadow head")
        k = len(shadow_heads)
        if rngs is None:
            rngs = self._spawn_member_rngs(k)
        decoders = build_decoders(self.intermediate_shape, self.image_shape,
                                  [member.decoder for member in rngs],
                                  width=self.config.decoder_width)
        try:
            stacked_heads = stack_modules(shadow_heads)
            stacked_decoders = stack_modules(decoders)
        except UnstackableError:
            logger.info("decoders not stackable; running %d looped trainings", k)
            return [self._train_decoder_impl(head, decoder, member.aug,
                                             member.decoder_sgd)
                    for head, decoder, member in zip(shadow_heads, decoders, rngs)]
        stacked_heads.train(False)
        stacked_decoders.train(True)
        aug_sigma = self.config.decoder_noise_aug
        aug_rngs = [member.aug for member in rngs]
        if self.config.standardize_features:
            means, stds = self._stacked_shadow_feature_stats(stacked_heads)
        else:
            means = np.zeros((k, *self.intermediate_shape), dtype=np.float32)
            stds = np.ones((k, *self.intermediate_shape), dtype=np.float32)
        mean_arr = means[:, None]  # (K, 1, C, h, w) against (K, B, C, h, w)
        std_arr = stds[:, None]

        def loss_fn(images, _labels):
            x = Tensor(images)
            with no_grad():
                features = stacked_heads(x)
            feature_data = (features.data - mean_arr) / (std_arr + 1e-3)
            if aug_sigma > 0:
                noise = np.stack([rng.normal(0.0, aug_sigma,
                                             size=feature_data.shape[1:])
                                  for rng in aug_rngs])
                feature_data = feature_data + noise.astype(np.float32)
            reconstruction = stacked_decoders(Tensor(feature_data.astype(np.float32)))
            return batched_mse(reconstruction, x)

        histories = run_stacked_sgd(stacked_decoders.parameters(), loss_fn,
                                    self.aux_dataset, self.config.decoder,
                                    [member.decoder_sgd for member in rngs])
        stacked_decoders.unstack_to(decoders)
        for index, history in enumerate(histories):
            logger.info("decoder %d training final loss %.4f", index, history[-1])
        for decoder in decoders:
            decoder.eval()
        return [(decoder, means[i], stds[i]) for i, decoder in enumerate(decoders)]

    def _stacked_shadow_feature_stats(self, stacked_heads: nn.Module
                                      ) -> tuple[np.ndarray, np.ndarray]:
        """Per-member element-wise mean/std maps over aux data, one fused pass."""
        outputs = []
        with no_grad():
            for start in range(0, len(self.aux_dataset), 128):
                batch = self.aux_dataset.images[start:start + 128]
                outputs.append(stacked_heads(Tensor(batch)).data)
        features = np.concatenate(outputs, axis=1)  # (K, M, C, h, w)
        return features.mean(axis=1), features.std(axis=1)

    def _attack_time_stats(self, shadow_mean: np.ndarray,
                           shadow_std: np.ndarray) -> tuple[np.ndarray, np.ndarray] | tuple[None, None]:
        """Standardisation stats applied to intercepted features.

        Observed victim-traffic statistics when available, else the shadow's
        own statistics (the attacker's best guess).
        """
        if not self.config.standardize_features:
            return None, None
        if self._observed_mean is not None:
            return self._observed_mean, self._observed_std
        return shadow_mean, shadow_std

    # -- attack constructions (Section III-B) ------------------------------
    def _assemble(self, name: str, shadow_head: nn.Module,
                  details: dict[str, Any]) -> AttackArtifacts:
        decoder, shadow_mean, shadow_std = self.train_decoder(shadow_head)
        mean, std = self._attack_time_stats(shadow_mean, shadow_std)
        return AttackArtifacts(name, shadow_head, decoder,
                               input_mean=mean, input_std=std, details=details)

    def attack_single(self, body: nn.Module, index: int | None = None) -> AttackArtifacts:
        """Proposition 1 setting: shadow built from a single server net."""
        shadow_head = self.train_shadow([body])
        name = "single" if index is None else f"single[{index}]"
        return self._assemble(name, shadow_head, {"body_index": index})

    def attack_adaptive(self, bodies: list[nn.Module]) -> AttackArtifacts:
        """Proposition 2 setting: shadow trained on the entire ensemble with a
        selector-shaped (uniform) activation."""
        shadow_head = self.train_shadow(list(bodies))
        return self._assemble("adaptive", shadow_head, {"num_bodies": len(bodies)})

    # -- multi-attack orchestration (Section III-D sweeps) -----------------
    def _fusable(self, bodies: list[nn.Module]) -> bool:
        """Can this attack configuration compile to stacked trees?

        Probes the body ensemble plus throwaway shadow-head/decoder builds
        (no stream from ``self.rng`` is consumed), so a negative answer
        falls back to the looped path *before* any member RNGs are spawned —
        keeping the fallback bit-identical to ``backend="looped"``.  The
        verdict is cached per body-ensemble identity, so repeated sweeps
        (the chunked brute force) probe once.
        """
        cache_key = tuple(id(body) for body in bodies)
        cached = self._fusable_cache.get(cache_key)
        if cached is not None:
            return cached
        probe_rng = np.random.default_rng(0)
        try:
            if len(bodies) > 1:
                stack_modules(list(bodies))
            head = build_shadow_head(self.model_config, self.config.shadow_mode,
                                     probe_rng)
            stack_modules([head, head])
            decoder = build_decoder(self.intermediate_shape, self.image_shape,
                                    width=self.config.decoder_width, rng=probe_rng)
            stack_modules([decoder, decoder])
        except UnstackableError:
            self._fusable_cache[cache_key] = False
            return False
        self._fusable_cache[cache_key] = True
        return True

    def _attack_chunk_fused(self, bodies: list[nn.Module],
                            subsets: list[tuple[int, ...]], names: list[str],
                            details: list[dict[str, Any]]) -> list[AttackArtifacts]:
        """Mount one fused chunk of equally-sized subset attacks."""
        rngs = self._spawn_member_rngs(len(subsets))
        shadow_heads = self.train_shadows(bodies, subsets, rngs=rngs)
        decoder_results = self.train_decoders(shadow_heads, rngs=rngs)
        artifacts = []
        for name, detail, head, (decoder, shadow_mean, shadow_std) in zip(
                names, details, shadow_heads, decoder_results):
            mean, std = self._attack_time_stats(shadow_mean, shadow_std)
            artifacts.append(AttackArtifacts(name, head, decoder, input_mean=mean,
                                             input_std=std, details=detail))
        return artifacts

    @staticmethod
    def iter_subset_chunks(subsets: Sequence[tuple[int, ...]],
                           chunk_size: int):
        """Yield ``(start, chunk)`` runs of consecutive equally-sized subsets.

        The canonical chunking of a subset enumeration: every fused consumer
        (``attack_subsets`` itself, and callers that want to stream results
        chunk by chunk, like ``brute_force_attack``) uses this one splitter
        so chunk boundaries — and therefore RNG spawn order — never diverge.
        """
        start = 0
        while start < len(subsets):
            end = start
            while (end < len(subsets) and end - start < chunk_size
                   and len(subsets[end]) == len(subsets[start])):
                end += 1
            yield start, list(subsets[start:end])
            start = end

    def attack_subsets(self, bodies: list[nn.Module],
                       subsets: Sequence[Sequence[int]],
                       backend: str = "fused", chunk_size: int = 8,
                       names: list[str] | None = None,
                       details: list[dict[str, Any]] | None = None
                       ) -> list[AttackArtifacts]:
        """Mount K independent subset attacks, fused where possible.

        ``backend="fused"`` splits the enumeration into consecutive
        equal-size runs of at most ``chunk_size`` subsets (the fused pass
        needs one tail width per chunk; the cap bounds the K·P stacked body
        memory) and trains each chunk's shadows and decoders as one stacked
        pass.  ``backend="looped"`` is the reference per-subset loop; the
        fused path spawns per-member streams in the same order, so both
        backends consume identical randomness and the per-subset artifacts
        agree up to float reassociation in the batched kernels.
        """
        if backend not in ("fused", "looped"):
            raise ValueError("backend must be 'fused' or 'looped'")
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        bodies = list(bodies)
        subsets = [tuple(int(i) for i in subset) for subset in subsets]
        if names is None:
            names = [f"subset{subset}" for subset in subsets]
        if details is None:
            details = [{"subset": subset} for subset in subsets]
        if len(names) != len(subsets) or len(details) != len(subsets):
            raise ValueError("names/details must align with subsets")
        if backend == "looped" or not self._fusable(bodies):
            artifacts = []
            for subset, name, detail in zip(subsets, names, details):
                shadow_head = self.train_shadow([bodies[i] for i in subset])
                artifacts.append(self._assemble(name, shadow_head, detail))
            return artifacts
        artifacts = []
        for start, chunk in self.iter_subset_chunks(subsets, chunk_size):
            end = start + len(chunk)
            artifacts.extend(self._attack_chunk_fused(
                bodies, chunk, names[start:end], details[start:end]))
        return artifacts

    def attack_all_single(self, bodies: list[nn.Module], backend: str = "fused",
                          chunk_size: int = 8) -> list[AttackArtifacts]:
        """Proposition 1 against every server body at once (the Table I rows).

        Equivalent to ``[attack_single(body, index=i) for i, body in ...]``
        but runs the N shadow/decoder trainings as fused stacked passes.
        """
        bodies = list(bodies)
        subsets = [(i,) for i in range(len(bodies))]
        names = [f"single[{i}]" for i in range(len(bodies))]
        details = [{"body_index": i} for i in range(len(bodies))]
        return self.attack_subsets(bodies, subsets, backend=backend,
                                   chunk_size=chunk_size, names=names,
                                   details=details)
