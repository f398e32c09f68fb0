"""Collaborative-inference pipelines (Fig. 1a and Fig. 2 of the paper).

``StandardCIPipeline`` is the classical split: client head -> server body ->
client tail.  ``EnsembleCIPipeline`` is Ensembler's inference path: the client
uploads noised intermediate features once, the server runs *all* N bodies and
returns all N feature vectors, and the client privately selects P of them
before its tail.  Both run over a byte-counting :class:`~repro.ci.channel.Channel`.

Since the serving redesign both pipelines are thin *single-session adapters*
over the multi-tenant API in :mod:`repro.serving`: each ``infer`` call frames
a typed :class:`~repro.serving.protocol.UploadRequest`, runs one scheduler
tick and decodes the returned feature maps client-side.  Multi-client
deployments that want cross-client batch coalescing use
:class:`~repro.serving.service.InferenceService` directly.

Server execution backends
-------------------------
The server's mandatory "run every body" step supports two backends:

* ``"batched"`` (default) — the bodies are compiled once into a
  :class:`~repro.nn.batched.StackedBodies` and each request runs them as a
  single fused NumPy pass; this is the serving-throughput path.  Servers
  with a single body, or with architecturally heterogeneous bodies that
  cannot be stacked, fall back to the looped backend automatically.
* ``"looped"`` — a Python loop over the bodies; the reference path.

Both backends produce the same per-body outputs (≤1e-5), so the wire
protocol and the client are backend-agnostic.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.ci.channel import Channel
from repro.nn.arena import active_arena
from repro.nn.batched import StackedBodies, fold_batch_norm
from repro.nn.tensor import Tensor, no_grad

#: Bytes of stacked activations one chunk of the fused pass may hold: a
#: chunk takes as many images as fit ``k · (one image's upload bytes)``
#: each, for ``k`` bodies.  A 2 MiB working set is reused chunk after
#: chunk instead of being allocated, trimmed and faulted back in at the
#: whole batch's size on every pass.
CHUNK_BYTES = 2 << 20


class Client:
    """Edge-device role: holds ``M_c,h``, the noise layer, the (optional)
    selector and ``M_c,t``.  Never reveals selector or head weights."""

    def __init__(self, head: nn.Module, tail: nn.Module, noise: nn.Module | None = None,
                 selector=None):
        self.head = head
        self.tail = tail
        self.noise = noise if noise is not None else nn.Identity()
        self._selector = selector  # private by convention: the server must not see it

    def encode(self, images: np.ndarray) -> np.ndarray:
        """Compute the intermediate features ``M_c,h(x) + noise`` to upload."""
        with no_grad():
            features = self.noise(self.head(Tensor(images)))
        return features.data

    def decide(self, returned: np.ndarray | list[np.ndarray]) -> np.ndarray:
        """Run the private selector (if any) and the tail on returned features."""
        with no_grad():
            if self._selector is not None:
                tensors = [Tensor(arr) for arr in returned]
                combined = self._selector(tensors)
            else:
                combined = Tensor(returned)
            logits = self.tail(combined)
        return logits.data


class Server:
    """Cloud role: holds one or more bodies ``M_s^i`` and runs them all.

    The server is semi-honest: it follows the protocol but may retain the
    uploaded features for a model-inversion attack.  With the default
    ``"batched"`` backend, multi-body servers execute all bodies as one
    fused :class:`~repro.nn.batched.StackedBodies` pass; heterogeneous or
    single-body deployments run the looped reference path.  Each fused
    engine is built in eval mode from a snapshot of the bodies and, with
    ``fold_bn`` (the default), has its conv→BN pairs folded once by
    :func:`~repro.nn.batched.fold_batch_norm` — call :meth:`sync` after
    mutating the bodies so the engines are rebuilt from them.
    """

    def __init__(self, bodies: list[nn.Module], backend: str = "batched",
                 fold_bn: bool = True):
        if not bodies:
            raise ValueError("server needs at least one body network")
        if backend not in ("batched", "looped"):
            raise ValueError("backend must be 'batched' or 'looped'")
        self.bodies = bodies
        self.observed_features: list[np.ndarray] = []
        self.fold_bn = fold_bn
        # Fused eval engines over body *prefixes* bodies[:k], keyed by k
        # (``None`` when the prefix cannot be stacked).  The full engine
        # is built here; the overload controller's shrunken-ensemble
        # prefixes are built on first use.
        self._engines: dict[int, StackedBodies | None] = {}
        # True when a train-mode looped pass has mutated the bodies (BN
        # running statistics) since the engines were built.
        self._stacked_stale = False
        self.backend = "looped"
        if (backend == "batched" and len(bodies) > 1
                and self._engine(len(bodies)) is not None):
            self.backend = "batched"

    def sync(self) -> "Server":
        """Drop the fused engines so they rebuild from the bodies' weights."""
        self._engines.clear()
        self._stacked_stale = False
        return self

    def _engine(self, k: int) -> StackedBodies | None:
        """The fused eval engine over ``bodies[:k]``, built (and folded)
        on first use, or ``None`` when the prefix cannot be stacked."""
        if k not in self._engines:
            engine = StackedBodies.try_build(self.bodies[:k], eval_mode=True)
            if engine is not None and self.fold_bn:
                fold_batch_norm(engine)
            self._engines[k] = engine
        return self._engines[k]

    def compute(self, features: np.ndarray, record: bool = False,
                num_bodies: int | None = None) -> list[np.ndarray]:
        """Run every body on the uploaded features and return all outputs.

        The uploaded buffer is only copied on the (rare) recording path;
        the common ``record=False`` serve path reads it zero-copy.  The
        fused engine runs it depth-first in chunks of images along the
        batch axis (:data:`CHUNK_BYTES`), each chunk a zero-copy view of
        the upload shared by every body, and the per-chunk ``(k, n, ...)``
        outputs are joined along the batch axis.  Each image's eval output
        does not depend on the rest of its batch, so chunking does not
        change a served bit.  The looped backend runs the whole batch.

        ``num_bodies`` restricts the pass to the first ``k`` bodies — the
        overload controller's shrunken-ensemble degradation — returning
        ``k`` outputs; fused prefix engines are cached per ``k``.
        """
        total = len(self.bodies)
        k = total if num_bodies is None else int(num_bodies)
        if not 1 <= k <= total:
            raise ValueError(f"num_bodies must be in [1, {total}], got {k}")
        if record:
            # Snapshot: the buffer belongs to the channel/client and may be
            # reused, while a retained feature map must stay immutable.
            self.observed_features.append(np.array(features, copy=True))
        with no_grad():
            x = Tensor(features)
            # The fused engine serves eval-mode bodies only; any train-mode
            # body sends the whole request down the loop so BN running
            # statistics update in place (an engine must never hold the
            # only copy).  Mode is read off the *bodies* — ``body.train()``
            # called directly (without sync()) must not leave stale
            # eval-mode semantics being served from an engine.
            if any(body.training for body in self.bodies):
                # The looped train-mode forward mutates the bodies in
                # place, so the engines no longer match them.
                self._stacked_stale = True
                return [body(x).data for body in self.bodies[:k]]
            if self._stacked_stale:
                # A train-mode pass moved the bodies' BN statistics since
                # the engines were built; rebuild before serving fused.
                self.sync()
            engine = (self._engine(k) if self.backend == "batched" and k > 1
                      else None)
            if engine is not None:
                stacked_out = _chunked_pass(engine, features, k)
                return [np.ascontiguousarray(stacked_out[i])
                        for i in range(k)]
            return [body(x).data for body in self.bodies[:k]]


def _chunked_pass(engine: StackedBodies, features: np.ndarray,
                  k: int) -> np.ndarray:
    """``engine(features).data``, run over chunks of :data:`CHUNK_BYTES`.

    A batch that fits one chunk runs as one pass.  Under an active arena
    every chunk starts a new arena pass, so each chunk's layers reuse the
    slots of the chunk before instead of taking new ones.
    """
    chunk = max(1, CHUNK_BYTES // max(1, k * features[:1].nbytes))
    if len(features) <= chunk:
        return engine(Tensor(features)).data
    arena = active_arena()
    outs = []
    for start in range(0, len(features), chunk):
        if arena is not None:
            arena.begin_pass()
        outs.append(engine(Tensor(features[start:start + chunk])).data)
    return np.concatenate(outs, axis=1)


class _SingleSessionPipeline:
    """Shared adapter core: one client, one session, a drained-per-call service.

    Both pipelines are now thin single-tenant views over the multi-tenant
    serving API (:mod:`repro.serving`): ``infer`` submits one typed
    :class:`~repro.serving.protocol.UploadRequest`, drains the service and
    decodes the :class:`~repro.serving.protocol.FeatureResponse`.  The wire
    accounting is therefore the *actual framed payload* of the protocol
    messages, which coincides with the historical per-array framing.
    """

    def __init__(self, client: Client, server: Server, channel: Channel | None = None):
        # Deferred import: repro.serving builds on the roles defined above.
        from repro.serving.service import InferenceService

        self.client = client
        self.server = server
        self.channel = channel if channel is not None else Channel()
        # Single-tenant adapters pin the historical policy: FIFO scheduling
        # and the identity fp32 codec, so byte accounting and outputs stay
        # bit-for-bit comparable with the pre-serving pipelines.
        self._service = InferenceService(server, max_batch=1, max_queue=1,
                                         scheduler="fifo", codec="fp32")
        self._session = self._service.adopt_session(client, channel=self.channel)

    @property
    def session(self):
        """The underlying serving session (single-tenant view)."""
        return self._session

    def infer(self, images: np.ndarray, record: bool = False) -> np.ndarray:
        request_id = self._session.submit(images, record=record)
        self._service.run_until_idle()
        return self._session.result(request_id)


class StandardCIPipeline(_SingleSessionPipeline):
    """Classical collaborative inference with a single server body."""

    def __init__(self, client: Client, server: Server, channel: Channel | None = None):
        if len(server.bodies) != 1:
            raise ValueError("standard CI uses exactly one server body")
        super().__init__(client, server, channel)


class EnsembleCIPipeline(_SingleSessionPipeline):
    """Ensembler inference: one upload, N bodies, N downloads, private select.

    The server side runs on whichever backend its :class:`Server` resolved
    (fused batched pass by default); the protocol — byte counts, message
    counts, returned tensors — is identical either way.
    """

    def __init__(self, client: Client, server: Server, channel: Channel | None = None):
        if client._selector is None:
            raise ValueError("ensemble CI requires a client-side selector")
        super().__init__(client, server, channel)

    @property
    def num_nets(self) -> int:
        return len(self.server.bodies)
