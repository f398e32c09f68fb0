"""Batched-ensemble execution: run E architecturally identical modules at once.

Ensembler's protocol requires the server to run *all* N bodies per query so
the client's selection stays secret.  Executing them as a Python loop over N
independent graphs pays N× interpreter and im2col overhead; this module
instead stacks the N parameter sets along a leading **ensemble axis** and
runs all members in one fused NumPy pass, so the heavy lifting stays inside
a single wide (or batched) BLAS matmul per layer.

Conventions
-----------
Activations carry a leading ensemble axis ``E``: convolutional features are
``(E, N, C, H, W)`` and pooled features are ``(E, N, C)``.  A plain NCHW
(4-D) or NC (2-D) input is interpreted as *shared* across all members — the
common entry case, since every body receives the same uploaded features.
The first parametric layer then lowers the shared input once (one im2col)
and applies one ``(E·out_c, C·kh·kw)`` matmul, after which activations are
per-member.

The conv, conv-transpose and batch-norm kernels live in
:mod:`repro.nn.functional` (the per-net ops are their E = 1 case); this
module imports them and adds the other stacked ops, the stacking registry
and the eval-time conv←BN fold.

Stacking
--------
:func:`stack_modules` compiles a list of architecturally identical modules
into a mirrored ``Stacked*`` tree via a type registry; composite layers
(e.g. residual blocks) register their own stackers with
:func:`register_stacker`.  :class:`StackedBodies` wraps the compiled tree
and adds ``sync_from`` / ``unstack_to`` so loop-trained checkpoints and the
stacked engine stay interchangeable.  All batched ops support autograd, so
joint fine-tuning can run through the stacked graph as well; modules that
cannot be stacked raise :class:`UnstackableError`, which callers use to fall
back to the looped path.

Registry extension points
-------------------------
The registry covers every topology the reproduction executes hot: the
classifier stack (``Conv2d``/``Linear``/``BatchNorm2d``/pooling/``ReLU``),
the *decoder* stack used by the inversion attacks
(``ConvTranspose2d``/``UpsampleNearest2d``/``Sigmoid``), and the composite
model pieces which register themselves next to their definitions
(``BasicBlock``/``ResNetHead``/… in :mod:`repro.models.resnet`,
``ShadowHead`` in :mod:`repro.models.shadow`, ``FixedGaussianNoise`` in
:mod:`repro.core.noise`).  To make a new layer stackable:

1. decorate a ``StackedModule`` subclass with
   ``@register_stacker(MyLayer)``; its ``__init__`` receives the member
   list and must set ``num_stacked``;
2. stack parameters with :func:`_stacked_parameter` (leading ensemble
   axis) and validate shared hyper-parameters with :func:`common_attr`;
3. express ``forward`` in the ``batched_*`` functional ops (or
   :func:`_fold_spatial` for per-sample NCHW ops) so a shared 4-D input
   and a per-member 5-D input both work;
4. leave ``sync_from`` / ``unstack_to`` alone if the stacked module only
   holds stacked children — the structural defaults recurse; override them
   only on parameter-holding leaves (a leaf whose parameters are just
   ``weight`` and an optional ``bias`` subclasses ``_StackedWeightBias``).

Training through a stacked tree is supported end to end: per-member losses
(:func:`batched_cross_entropy`, :func:`batched_mse`) reduce to an ``(E,)``
vector whose sum backpropagates each member's own gradient into the stacked
parameters, and the stacked optimisers in :mod:`repro.nn.optim` keep
per-member state along the same leading axis.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.nn import profiling
from repro.nn import functional as F
from repro.nn.functional import (
    batched_batch_norm2d,
    batched_conv2d,
    batched_conv_transpose2d,
)
from repro.nn.modules import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    UpsampleNearest2d,
)
from repro.nn.tensor import Tensor
from repro.nn.tensor import stack as tensor_stack


class UnstackableError(TypeError):
    """Raised when a list of modules cannot be compiled into a stacked pass."""


# ----------------------------------------------------------------------
# Functional ops (ensemble axis leading)
# ----------------------------------------------------------------------


def unbind(stacked: Tensor) -> list[Tensor]:
    """Split a stacked ``(E, ...)`` tensor into E per-member tensors.

    Gradient routing is preserved, so downstream per-member consumers (the
    selector, per-net losses) compose with the fused forward.
    """
    return [stacked[i] for i in range(stacked.shape[0])]


def batched_linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map for E members at once; ``weight`` is ``(E, out, in)``.

    ``x`` is ``(E, N, in)`` (per-member) or ``(N, in)`` (shared input); the
    result is always ``(E, N, out)`` via one batched matmul.
    """
    e, out_features, in_features = weight.shape
    rows = int(np.prod(x.shape[:-1]))
    members = 1 if x.ndim == 3 else e
    profiling.record("linear", 2 * rows * members * out_features * in_features)
    out = x @ weight.transpose(0, 2, 1)
    if bias is not None:
        out = out + bias.reshape(e, 1, out_features)
    return out


def batched_upsample_nearest2d(x: Tensor, scale: int) -> Tensor:
    """Nearest-neighbour upsampling over ``(E, N, C, H, W)`` (or NCHW) input."""
    return _fold_spatial(x, lambda t: F.upsample_nearest2d(t, scale))


def batched_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-member cross-entropy: ``(E, N, C)`` logits, ``(E, N)`` labels -> ``(E,)``.

    Member ``e``'s entry equals ``F.cross_entropy(logits[e], targets[e])``, so
    the sum of the vector backpropagates each member's own gradient — the
    reduction every fused multi-net training uses.
    """
    targets = np.asarray(targets)
    if logits.ndim != 3 or targets.shape != logits.shape[:2]:
        raise ValueError(f"expected (E, N, C) logits with (E, N) targets, got "
                         f"{logits.shape} and {targets.shape}")
    e, n, _ = logits.shape
    log_probs = F.log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(e)[:, None], np.arange(n)[None, :], targets]
    return -picked.mean(axis=1)


def batched_mse(prediction: Tensor, target: Tensor) -> Tensor:
    """Per-member mean squared error over stacked ``(E, ...)`` tensors -> ``(E,)``."""
    if prediction.shape != target.shape:
        raise ValueError(f"shape mismatch: {prediction.shape} vs {target.shape}")
    diff = prediction - target
    return (diff * diff).mean(axis=tuple(range(1, prediction.ndim)))


def _fold_spatial(x: Tensor, op: Callable[[Tensor], Tensor]) -> Tensor:
    """Apply a per-sample NCHW op by folding the ensemble axis into the batch."""
    if x.ndim == 4:
        return op(x)
    e, n = x.shape[0], x.shape[1]
    out = op(x.reshape(e * n, *x.shape[2:]))
    return out.reshape(e, n, *out.shape[1:])


def batched_max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None,
                       padding: int = 0) -> Tensor:
    """Max pooling over ``(E, N, C, H, W)`` (or shared NCHW) input."""
    return F.max_pool2d(x, kernel_size, stride, padding)


def batched_avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None,
                       padding: int = 0) -> Tensor:
    """Average pooling over ``(E, N, C, H, W)`` (or shared NCHW) input."""
    return _fold_spatial(x, lambda t: F.avg_pool2d(t, kernel_size, stride, padding))


def batched_global_avg_pool2d(x: Tensor) -> Tensor:
    """Spatial global average pooling; ``(E, N, C, H, W)`` -> ``(E, N, C)``."""
    return x.mean(axis=(-2, -1))


# ----------------------------------------------------------------------
# Stacking registry
# ----------------------------------------------------------------------

_STACKERS: dict[type, Callable[[list[Module]], "StackedModule"]] = {}


def register_stacker(module_type: type):
    """Register the stacked counterpart of ``module_type``.

    The decorated callable receives the list of source modules and returns
    the stacked module; composite layers outside this package (residual
    blocks, full bodies) use this to plug into :func:`stack_modules`.
    """

    def decorator(factory):
        _STACKERS[module_type] = factory
        return factory

    return decorator


def stack_modules(modules: Iterable[Module]) -> "StackedModule":
    """Compile architecturally identical modules into one stacked module.

    Raises :class:`UnstackableError` for heterogeneous lists or module types
    without a registered stacker — callers treat that as "use the looped
    path", never as a hard failure.
    """
    modules = list(modules)
    if not modules:
        raise ValueError("need at least one module to stack")
    first_type = type(modules[0])
    if any(type(m) is not first_type for m in modules):
        names = sorted({type(m).__name__ for m in modules})
        raise UnstackableError(f"heterogeneous module types: {names}")
    factory = _STACKERS.get(first_type)
    if factory is None:
        raise UnstackableError(f"no stacker registered for {first_type.__name__}")
    return factory(modules)


def common_attr(modules: list[Module], name: str):
    """The shared value of ``name`` across members, or :class:`UnstackableError`."""
    values = {getattr(m, name) for m in modules}
    if len(values) != 1:
        raise UnstackableError(f"members disagree on {name}: {sorted(values, key=repr)}")
    return values.pop()


class StackedModule(Module):
    """Base class for modules mirroring E identical source modules.

    ``sync_from`` pulls the source modules' parameters/buffers into the
    stacked arrays; ``unstack_to`` writes them back.  The default
    implementations recurse structurally — stacked children are matched to
    same-named attributes of the source modules — so only parameter-holding
    leaves override them.
    """

    num_stacked: int = 0

    def _check_arity(self, modules: list[Module]) -> list[Module]:
        modules = list(modules)
        if len(modules) != self.num_stacked:
            raise ValueError(f"expected {self.num_stacked} modules, got {len(modules)}")
        return modules

    def sync_from(self, modules: list[Module]) -> "StackedModule":
        modules = self._check_arity(modules)
        for name, child in self._modules.items():
            child.sync_from([getattr(m, name) for m in modules])
        return self

    def unstack_to(self, modules: list[Module]) -> "StackedModule":
        modules = self._check_arity(modules)
        for name, child in self._modules.items():
            child.unstack_to([getattr(m, name) for m in modules])
        return self


# ----------------------------------------------------------------------
# Stacked leaves
# ----------------------------------------------------------------------


def _stacked_parameter(tensors: list[Tensor]) -> Parameter:
    shapes = {t.shape for t in tensors}
    if len(shapes) != 1:
        raise UnstackableError(f"parameter shapes differ: {sorted(shapes)}")
    param = Parameter(np.stack([t.data for t in tensors]))
    param.requires_grad = any(t.requires_grad for t in tensors)
    return param


class _StackedWeightBias(StackedModule):
    """A stacked leaf holding its members' ``weight`` and optional ``bias``."""

    def __init__(self, mods: list[Module], kind: str):
        super().__init__()
        self.num_stacked = len(mods)
        if len({m.bias is None for m in mods}) != 1:
            raise UnstackableError(f"members disagree on {kind} bias")
        self.weight = _stacked_parameter([m.weight for m in mods])
        self.bias = (_stacked_parameter([m.bias for m in mods])
                     if mods[0].bias is not None else None)

    def sync_from(self, mods: list[Module]) -> "_StackedWeightBias":
        mods = self._check_arity(mods)
        self.weight.data = np.stack([m.weight.data for m in mods])
        self.weight.requires_grad = any(m.weight.requires_grad for m in mods)
        if self.bias is not None:
            self.bias.data = np.stack([m.bias.data for m in mods])
            self.bias.requires_grad = any(m.bias.requires_grad for m in mods)
        return self

    def unstack_to(self, mods: list[Module]) -> "_StackedWeightBias":
        mods = self._check_arity(mods)
        for i, m in enumerate(mods):
            m.weight.data = self.weight.data[i].copy()
            if self.bias is not None:
                m.bias.data = self.bias.data[i].copy()
        return self


@register_stacker(Conv2d)
class StackedConv2d(_StackedWeightBias):
    """E convolutions fused into one :func:`batched_conv2d` call."""

    def __init__(self, convs: list[Conv2d]):
        super().__init__(convs, "conv")
        self.stride = common_attr(convs, "stride")
        self.padding = common_attr(convs, "padding")

    def forward(self, x: Tensor) -> Tensor:
        return batched_conv2d(x, self.weight, self.bias, stride=self.stride,
                              padding=self.padding)


@register_stacker(Linear)
class StackedLinear(_StackedWeightBias):
    """E affine layers fused into one :func:`batched_linear` call."""

    def __init__(self, linears: list[Linear]):
        super().__init__(linears, "linear")
        self.in_features = common_attr(linears, "in_features")
        self.out_features = common_attr(linears, "out_features")

    def forward(self, x: Tensor) -> Tensor:
        return batched_linear(x, self.weight, self.bias)


@register_stacker(BatchNorm2d)
class StackedBatchNorm2d(StackedModule):
    """E batch-norm layers with stacked ``(E, C)`` affine and running stats.

    ``record_batch_stats`` mirrors :class:`repro.nn.modules.BatchNorm2d`:
    when enabled, each forward stores the input's differentiable per-member
    batch mean/variance — ``(E, C)`` each for a per-member 5-D input — in
    ``recorded_stats`` without changing the output.  The fused
    DeepInversion-style BN prior of the multi-attack engine reads them.
    """

    def __init__(self, bns: list[BatchNorm2d]):
        super().__init__()
        self.num_stacked = len(bns)
        self.num_features = common_attr(bns, "num_features")
        self.momentum = common_attr(bns, "momentum")
        self.eps = common_attr(bns, "eps")
        self.gamma = _stacked_parameter([bn.gamma for bn in bns])
        self.beta = _stacked_parameter([bn.beta for bn in bns])
        self.register_buffer("running_mean", np.stack([bn.running_mean for bn in bns]))
        self.register_buffer("running_var", np.stack([bn.running_var for bn in bns]))
        self.record_batch_stats = False
        self.recorded_stats: tuple[Tensor, Tensor] | None = None
        # True once :func:`fold_batch_norm` has moved this layer's affine
        # map into the preceding stacked conv: the forward is a pass-through.
        self.folded = False

    def forward(self, x: Tensor) -> Tensor:
        if self.folded:
            return x
        if self.record_batch_stats:
            axes = (0, 2, 3) if x.ndim == 4 else (1, 3, 4)
            self.recorded_stats = (x.mean(axis=axes), x.var(axis=axes))
        return batched_batch_norm2d(x, self.gamma, self.beta, self.running_mean,
                                    self.running_var, training=self.training,
                                    momentum=self.momentum, eps=self.eps)

    def sync_from(self, bns: list[BatchNorm2d]) -> "StackedBatchNorm2d":
        bns = self._check_arity(bns)
        self.gamma.data = np.stack([bn.gamma.data for bn in bns])
        self.gamma.requires_grad = any(bn.gamma.requires_grad for bn in bns)
        self.beta.data = np.stack([bn.beta.data for bn in bns])
        self.beta.requires_grad = any(bn.beta.requires_grad for bn in bns)
        self.running_mean[...] = np.stack([bn.running_mean for bn in bns])
        self.running_var[...] = np.stack([bn.running_var for bn in bns])
        return self

    def unstack_to(self, bns: list[BatchNorm2d]) -> "StackedBatchNorm2d":
        bns = self._check_arity(bns)
        for i, bn in enumerate(bns):
            bn.gamma.data = self.gamma.data[i].copy()
            bn.beta.data = self.beta.data[i].copy()
            bn.running_mean[...] = self.running_mean[i]
            bn.running_var[...] = self.running_var[i]
        return self


# ----------------------------------------------------------------------
# Stateless stacked layers
# ----------------------------------------------------------------------


@register_stacker(ConvTranspose2d)
class StackedConvTranspose2d(_StackedWeightBias):
    """E transposed convolutions fused into one :func:`batched_conv_transpose2d`.

    The stacker the inversion decoders compile through — with it (plus
    :class:`StackedUpsampleNearest2d` / :class:`StackedSigmoid`) a
    ``build_decoder`` tree stacks end to end.
    """

    def __init__(self, convs: list[ConvTranspose2d]):
        super().__init__(convs, "conv")
        self.stride = common_attr(convs, "stride")
        self.padding = common_attr(convs, "padding")
        self.output_padding = common_attr(convs, "output_padding")

    def forward(self, x: Tensor) -> Tensor:
        return batched_conv_transpose2d(x, self.weight, self.bias,
                                        stride=self.stride, padding=self.padding,
                                        output_padding=self.output_padding)


@register_stacker(ReLU)
class StackedReLU(StackedModule):
    def __init__(self, mods: list[ReLU]):
        super().__init__()
        self.num_stacked = len(mods)

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


@register_stacker(Sigmoid)
class StackedSigmoid(StackedModule):
    def __init__(self, mods: list[Sigmoid]):
        super().__init__()
        self.num_stacked = len(mods)

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


@register_stacker(Tanh)
class StackedTanh(StackedModule):
    def __init__(self, mods: list[Tanh]):
        super().__init__()
        self.num_stacked = len(mods)

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


@register_stacker(UpsampleNearest2d)
class StackedUpsampleNearest2d(StackedModule):
    def __init__(self, mods: list[UpsampleNearest2d]):
        super().__init__()
        self.num_stacked = len(mods)
        self.scale = common_attr(mods, "scale")

    def forward(self, x: Tensor) -> Tensor:
        return batched_upsample_nearest2d(x, self.scale)


@register_stacker(Identity)
class StackedIdentity(StackedModule):
    def __init__(self, mods: list[Identity]):
        super().__init__()
        self.num_stacked = len(mods)

    def forward(self, x: Tensor) -> Tensor:
        return x


@register_stacker(MaxPool2d)
class StackedMaxPool2d(StackedModule):
    def __init__(self, mods: list[MaxPool2d]):
        super().__init__()
        self.num_stacked = len(mods)
        self.kernel_size = common_attr(mods, "kernel_size")
        self.stride = common_attr(mods, "stride")
        self.padding = common_attr(mods, "padding")

    def forward(self, x: Tensor) -> Tensor:
        return batched_max_pool2d(x, self.kernel_size, self.stride, self.padding)


@register_stacker(AvgPool2d)
class StackedAvgPool2d(StackedModule):
    def __init__(self, mods: list[AvgPool2d]):
        super().__init__()
        self.num_stacked = len(mods)
        self.kernel_size = common_attr(mods, "kernel_size")
        self.stride = common_attr(mods, "stride")
        self.padding = common_attr(mods, "padding")

    def forward(self, x: Tensor) -> Tensor:
        return batched_avg_pool2d(x, self.kernel_size, self.stride, self.padding)


@register_stacker(GlobalAvgPool2d)
class StackedGlobalAvgPool2d(StackedModule):
    def __init__(self, mods: list[GlobalAvgPool2d]):
        super().__init__()
        self.num_stacked = len(mods)

    def forward(self, x: Tensor) -> Tensor:
        return batched_global_avg_pool2d(x)


@register_stacker(Flatten)
class StackedFlatten(StackedModule):
    """Flatten per member; a 5-D input keeps its leading ensemble axis."""

    def __init__(self, mods: list[Flatten]):
        super().__init__()
        self.num_stacked = len(mods)
        self.start_dim = common_attr(mods, "start_dim")

    def forward(self, x: Tensor) -> Tensor:
        start = self.start_dim + 1 if x.ndim == 5 else self.start_dim
        return x.flatten(start)


@register_stacker(Sequential)
class StackedSequential(StackedModule):
    """Child-wise stacking of E equally long sequential containers."""

    def __init__(self, seqs: list[Sequential]):
        super().__init__()
        self.num_stacked = len(seqs)
        lengths = {len(seq) for seq in seqs}
        if len(lengths) != 1:
            raise UnstackableError(f"sequential lengths differ: {sorted(lengths)}")
        for i in range(lengths.pop()):
            setattr(self, str(i), stack_modules([seq[i] for seq in seqs]))

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._modules.values():
            x = layer(x)
        return x


# ----------------------------------------------------------------------
# Eval-time conv←BN fold
# ----------------------------------------------------------------------


def find_fold_pairs(module: Module) -> "list[tuple[StackedConv2d, StackedBatchNorm2d]]":
    """Adjacent ``(StackedConv2d, StackedBatchNorm2d)`` pairs, dataflow order.

    Walks the stacked tree and pairs each conv with the batch-norm layer
    registered *immediately after it* in its parent's ``_modules`` order,
    provided the channel counts agree.  Every composite this package (and
    the model registry) ships declares its children in forward-dataflow
    order, which is what makes adjacency a faithful proxy for "the BN is
    applied straight after the conv"; a composite whose attribute order
    diverges from its dataflow must set ``fold_adjacent = False`` on its
    class to opt out of pairing at its own level (children still recurse).
    """
    pairs: list[tuple[StackedConv2d, StackedBatchNorm2d]] = []
    children = list(module._modules.values())
    for child in children:
        pairs.extend(find_fold_pairs(child))
    if not getattr(module, "fold_adjacent", True):
        return pairs
    for first, second in zip(children, children[1:]):
        if (isinstance(first, StackedConv2d)
                and isinstance(second, StackedBatchNorm2d)
                and first.weight.shape[1] == second.num_features):
            pairs.append((first, second))
    return pairs


def fold_batch_norm(engine: StackedBodies) -> StackedBodies:
    """Fold every conv→batch-norm pair of an eval engine into its conv.

    Each pair from :func:`find_fold_pairs` is rewritten in place::

        scale = gamma / sqrt(running_var + eps)        # (E, C)
        W'    = W * scale                              # per out-channel
        b'    = beta - running_mean * scale + b * scale

    and the batch-norm forward becomes a pass-through, so the eval hot
    path drops two full-tensor touches (and two allocations) per BN
    layer.  The fold is one-way: the engine then serves eval, no-grad
    forwards of the statistics it held when folded, and no longer
    mirrors the bodies (the bodies themselves are untouched — the engine
    holds copies).  Already-folded pairs are skipped, so folding twice
    equals folding once.  Folded outputs match the unfolded engine to
    float32 rounding (≪ 1e-5); ``tests/test_fold_parity.py`` sweeps this.
    """
    for conv, bn in find_fold_pairs(engine):
        if bn.folded:
            continue
        scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)  # (E, C)
        shift = bn.beta.data - bn.running_mean * scale
        conv.weight.data = conv.weight.data * scale[:, :, None, None, None]
        conv.bias = Parameter(shift if conv.bias is None
                              else shift + conv.bias.data * scale)
        bn.folded = True
    return engine


# ----------------------------------------------------------------------
# StackedBodies — the server's fused N-body pass
# ----------------------------------------------------------------------


class StackedBodies(StackedModule):
    """All N server bodies compiled into one fused batched forward.

    ``forward`` takes the shared uploaded features ``(N, C, H, W)`` and
    returns the stacked outputs ``(E, N, ...)``.  The stacked
    parameters are a *copy* of the source bodies' — call :meth:`sync_from`
    after mutating the bodies (or :meth:`unstack_to` after fine-tuning the
    stacked copy) to keep the two representations interchangeable.

    A serving engine is built in eval mode and then folded once by
    :func:`fold_batch_norm`.  A folded engine no longer mirrors the
    bodies, so a caller whose bodies changed builds a new engine instead
    of syncing the folded one.
    """

    def __init__(self, bodies: list[Module]):
        super().__init__()
        bodies = list(bodies)
        if not bodies:
            raise ValueError("need at least one body to stack")
        self.num_stacked = len(bodies)
        self.stacked = stack_modules(bodies)
        # Stacked trees with any state (parameters OR buffers, e.g. a pure
        # FixedGaussianNoise ensemble) emit the ensemble axis themselves;
        # only fully stateless trees pass the shared input through unchanged.
        self._parametric = (len(self.stacked.parameters()) > 0
                            or next(self.stacked.named_buffers(), None) is not None)

    @classmethod
    def try_build(cls, bodies: list[Module],
                  eval_mode: bool | None = None) -> "StackedBodies | None":
        """Build a stacked engine, or ``None`` when the bodies can't be fused.

        The standard construct-or-fall-back used everywhere a batched backend
        is optional.  ``eval_mode`` forces train/eval on the result; ``None``
        inherits the first body's mode.
        """
        try:
            stacked = cls(bodies)
        except UnstackableError:
            return None
        mode = bodies[0].training if eval_mode is None else not eval_mode
        stacked.train(mode)
        return stacked

    @property
    def num_bodies(self) -> int:
        return self.num_stacked

    def forward(self, features: Tensor) -> Tensor:
        out = self.stacked(features)
        if not self._parametric:
            # Degenerate all-stateless ensemble: the shared input passed
            # through untouched, so materialise the ensemble axis explicitly.
            out = tensor_stack([out] * self.num_stacked)
        return out

    def sync_from(self, bodies: list[Module]) -> "StackedBodies":
        self.stacked.sync_from(self._check_arity(bodies))
        return self

    def unstack_to(self, bodies: list[Module]) -> "StackedBodies":
        self.stacked.unstack_to(self._check_arity(bodies))
        return self
