"""Per-client sessions over the multi-tenant serving API.

A :class:`Session` is one tenant's view of an
:class:`~repro.serving.service.InferenceService`: it owns the client-side
halves of the split network (head, tail, noise, the private selector),
its own byte-counting channel, and the bookkeeping of outstanding
requests.  Nothing client-secret ever reaches the service — the selector
and noise map live here, and the wire carries only the noised features up
and all N feature maps down.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ci.channel import Channel, TransferStats
from repro.ci.pipeline import Client
from repro.serving.errors import (
    NoResultError,
    PrivacyExhaustedError,
    RequestCancelledError,
    RequestState,
    ServingError,
    TickFailedError,
)
from repro.serving.faults import RetryPolicy
from repro.serving.protocol import Codec, FeatureResponse, UploadRequest
from repro.privacy.budget import PrivacyBudget
from repro.privacy.rotation import (
    STREAM_NOISE,
    RotationPolicy,
    SelectorRotator,
    derive_rng,
)


class Session:
    """One client's connection to an :class:`InferenceService`.

    Sessions are created by :meth:`InferenceService.open_session` (from
    head/tail/noise/selector parts) or :meth:`InferenceService.adopt_session`
    (from an existing :class:`~repro.ci.pipeline.Client`); they should not
    be constructed directly.

    ``codec`` is the downlink encoding negotiated at open time: the
    service narrows this session's :class:`FeatureResponse` payloads with
    it, and :meth:`result` widens them back before the private selector
    and tail run.

    ``weight`` is the tenant's negotiated fair-share weight (consumed by
    weight-aware schedulers; 0 marks a best-effort tenant) and
    ``limiter`` its token bucket, enforced by the service at ``submit``
    time.  Both live for exactly this session: closing it drops the
    bucket, so no tokens leak into a later session.

    ``epoch`` is the session's incarnation number: 0 for a first open,
    bumped each time the session is restored from a checkpoint onto a
    replacement replica.  It feeds the retry-jitter RNG so a failed-over
    session never replays its predecessor's backoff sequence — seeding
    by session id alone would make every incarnation of a session (and
    every client retrying after the same replica crash) jitter in
    lock-step, re-synchronising exactly the retry storm the jitter
    exists to spread out.  The privacy subsystem's rotation and ladder
    noise draws are decorrelated the same way, from
    ``(session_id, epoch, rotation_index)``.

    ``privacy`` attaches a :class:`~repro.privacy.budget.PrivacyBudget`
    (or an ``(alpha, eps, q_budget)`` spec): the service charges it once
    per served query and refuses the session with
    :class:`~repro.serving.errors.PrivacyExhaustedError` once it
    depletes.  ``rotation`` attaches a
    :class:`~repro.privacy.rotation.RotationPolicy` (or a bare mode
    name) re-drawing the secret selector subset mid-stream; it requires
    a selector-bearing client.
    """

    def __init__(self, session_id: int, client: Client, service,
                 channel: Channel | None = None,
                 codec: Codec = Codec.FP32,
                 weight: float = 1.0,
                 limiter=None,
                 epoch: int = 0,
                 privacy=None,
                 rotation=None):
        self.session_id = session_id
        self.client = client
        self.channel = channel if channel is not None else Channel()
        self.codec = Codec.parse(codec)
        self.weight = float(weight)
        if not (self.weight >= 0 and math.isfinite(self.weight)):
            raise ValueError(
                f"session weight must be finite and >= 0, got {weight}")
        self.limiter = limiter
        self.epoch = int(epoch)
        # Noise provenance, recorded by open_session when the noise map
        # was drawn from a seed; checkpoint capture reads these so a
        # failover replica can redraw the bit-identical map.
        self.noise_seed: int | None = None
        self.noise_shape: tuple[int, ...] | None = None
        self.noise_sigma: float | None = None
        self._service = service
        self._next_request_id = 0
        self._responses: dict[int, FeatureResponse] = {}
        self._pending: set[int] = set()  # submitted, not yet served
        # Lifecycle state per request id, written by the service at each
        # transition; the conservation sweep in simulate() reads it.
        self._states: dict[int, RequestState] = {}
        # Deterministic per-session jitter source for retry backoff,
        # decorrelated across incarnations by the epoch.
        self._retry_rng = np.random.default_rng([session_id, self.epoch])
        self.privacy = PrivacyBudget.parse(privacy)
        rotation_policy = RotationPolicy.parse(rotation)
        if rotation_policy is not None and client._selector is None:
            raise ValueError(
                "selector rotation requires a selector-bearing client")
        self.rotation = (SelectorRotator(rotation_policy, session_id,
                                         self.epoch)
                         if rotation_policy is not None else None)
        self._refresh_privacy_rng()

    # -- introspection --------------------------------------------------

    @property
    def stats(self) -> TransferStats:
        """This session's own traffic counters."""
        return self.channel.stats

    @property
    def selector(self):
        """The session's private selector (client-side code only)."""
        return self.client._selector

    @property
    def outstanding(self) -> int:
        """Requests submitted but not yet served by a tick."""
        return len(self._pending)

    def request_state(self, request_id: int) -> RequestState | None:
        """The request's lifecycle state, or ``None`` for an unknown id.

        ``QUEUED`` is the only non-terminal state; every other value is
        final and set exactly once per lifecycle (a retry of a retryable
        terminal re-enters ``QUEUED`` and the last state stands).
        """
        return self._states.get(request_id)

    def request_states(self) -> dict[int, RequestState]:
        """A snapshot of every tracked request's lifecycle state."""
        return dict(self._states)

    # -- privacy side ---------------------------------------------------

    def _refresh_privacy_rng(self) -> None:
        """Re-key the ladder-noise RNG from (session_id, epoch, rotation).

        Called at construction, after each selector rotation and on epoch
        bumps, so a restored incarnation never replays its predecessor's
        extra-noise draws.
        """
        rotation_index = (self.rotation.rotation_index
                          if self.rotation is not None else 0)
        self._privacy_rng = derive_rng(self.session_id, self.epoch,
                                       rotation_index, STREAM_NOISE)

    def charge_privacy(self) -> float | None:
        """Charge one served query against the budget (service-side hook).

        Called by the service's tick loop exactly once per delivered
        response.  Returns the charged ε(α) loss, or ``None`` for an
        unmetered session.
        """
        if self.privacy is None:
            return None
        selector = self.client._selector
        if selector is not None:
            subset_size, num_nets = selector.num_active, selector.num_nets
        else:
            subset_size = num_nets = 1
        return self.privacy.charge_query(self.noise_sigma,
                                         subset_size=subset_size,
                                         num_nets=num_nets)

    # -- request side ---------------------------------------------------

    def encode(self, images: np.ndarray) -> np.ndarray:
        """The features this client would upload: ``M_c,h(x) + noise``.

        Past the budget ladder's raise-noise level, an *additional*
        independent Gaussian draw (std
        :meth:`~repro.privacy.budget.PrivacyBudget.extra_sigma`) is added
        on top of the client's fixed base noise map, from the
        (session_id, epoch, rotation_index)-derived RNG.
        """
        features = self.client.encode(images)
        if self.privacy is not None:
            extra = self.privacy.extra_sigma(self.noise_sigma)
            if extra > 0.0:
                draw = self._privacy_rng.normal(0.0, extra, features.shape)
                features = features + draw.astype(features.dtype, copy=False)
        return features

    def submit(self, images: np.ndarray, record: bool = False,
               deadline: float | None = None,
               retry: RetryPolicy | None = None) -> int:
        """Encode ``images`` client-side and enqueue the upload.

        Returns the request id to :meth:`result` on later.  Raises only
        :class:`~repro.serving.errors.ServingError` subclasses:
        :class:`~repro.serving.errors.BackpressureError` (queue full),
        :class:`~repro.serving.errors.RateLimitedError` (token bucket
        empty),
        :class:`~repro.serving.errors.PrivacyExhaustedError` (the
        session's privacy budget is spent; never retryable) — all three
        without transmitting anything — or
        :class:`~repro.serving.errors.ProtocolError` (the frame was
        mangled on a fault-injected wire).  ``deadline`` is an absolute
        service-clock SLO consumed by deadline-aware schedulers; with a
        :class:`~repro.serving.faults.RetryPolicy` transient failures are
        retried under exponential backoff (same request id each attempt).
        """
        return self.submit_features(self.encode(images), record=record,
                                    deadline=deadline, retry=retry)

    def reserve_request_id(self) -> int:
        """Burn and return the next request id without submitting.

        Retrying clients reserve the id first so every attempt — even one
        rejected at admission — reuses the *same* id, which is what lets
        the service deduplicate a retry whose earlier attempt survived.
        """
        request_id = self._next_request_id
        self._next_request_id += 1
        return request_id

    def submit_features(self, features: np.ndarray, record: bool = False,
                        deadline: float | None = None,
                        request_id: int | None = None,
                        retry: RetryPolicy | None = None) -> int:
        """Enqueue pre-encoded features (the raw protocol-level entry).

        ``request_id`` resubmits under an id from
        :meth:`reserve_request_id` (or from a previous failed attempt) —
        the idempotent-retry path; omitted, a fresh id is burned even
        when admission rejects the submit, so a later manual retry can
        reuse it.  ``retry`` arms automatic attempts: transient
        :class:`~repro.serving.errors.ServingError` failures back off
        exponentially (with deterministic jitter) on the service's
        virtual clock — enough for token buckets to refill and faulted
        wires to be re-rolled; the final attempt's error propagates.
        """
        if request_id is None:
            request_id = self.reserve_request_id()
        features = np.asarray(features)
        attempt = 0
        while True:
            request = UploadRequest(self.session_id, request_id, features,
                                    record=record, deadline=deadline)
            try:
                self._service.submit(request)
            except ServingError as exc:
                if (retry is None or attempt + 1 >= retry.max_attempts
                        or not retry.retryable(exc)):
                    raise
                attempt += 1
                # Back off on the virtual clock: buckets refill, queue
                # pressure may clear, and the wire is re-rolled.
                self._service.advance_clock(
                    self._service.now
                    + retry.delay_s(attempt - 1, self._retry_rng))
            else:
                self._pending.add(request_id)
                return request_id

    # -- response side --------------------------------------------------

    def _deliver(self, response: FeatureResponse) -> None:
        """Called by the service when a tick serves one of our requests."""
        self._responses[response.request_id] = response
        self._pending.discard(response.request_id)
        self._states[response.request_id] = RequestState.COMPLETED

    def _resolve(self, request_id: int, state: RequestState) -> None:
        """Called by the service at each lifecycle transition."""
        self._states[request_id] = state
        if state.terminal:
            self._pending.discard(request_id)

    def has_result(self, request_id: int) -> bool:
        """Whether a served response for ``request_id`` is waiting."""
        return request_id in self._responses

    def take_response(self, request_id: int) -> FeatureResponse | None:
        """Pop a served request's raw wire response without decoding it.

        For drivers (benchmarks, simulators) that inspect or discard the
        N feature maps themselves instead of running the tail via
        :meth:`result`.  Returns ``None`` when nothing is stored.
        """
        return self._responses.pop(request_id, None)

    def discard_results(self) -> int:
        """Drop every stored response; returns how many were discarded."""
        count = len(self._responses)
        self._responses.clear()
        return count

    def result(self, request_id: int) -> np.ndarray:
        """Decode a served request: private selection + tail -> logits.

        Pops the stored response; each result can be consumed once.
        Without one it raises a typed
        :class:`~repro.serving.errors.ServingError`:
        :class:`~repro.serving.errors.RequestCancelledError` (session
        closed while queued),
        :class:`~repro.serving.errors.TickFailedError` (crashed passes
        exhausted their retries, or the upload frame was corrupt),
        :class:`~repro.serving.errors.PrivacyExhaustedError` (refused by
        a spent privacy budget) or
        :class:`~repro.serving.errors.NoResultError` (still queued, shed
        at admission, already consumed or never submitted).
        """
        try:
            response = self._responses.pop(request_id)
        except KeyError:
            state = self._states.get(request_id)
            if state is RequestState.CANCELLED:
                raise RequestCancelledError(
                    f"request {request_id} of session {self.session_id} was "
                    f"cancelled by close_session while queued") from None
            if state is RequestState.FAILED:
                raise TickFailedError(
                    f"request {request_id} of session {self.session_id} "
                    f"failed terminally (crashed stacked passes exhausted "
                    f"their retries, or its upload frame was corrupt)"
                ) from None
            if (state is RequestState.REJECTED and self.privacy is not None
                    and self.privacy.exhausted):
                raise PrivacyExhaustedError(
                    f"request {request_id} of session {self.session_id} was "
                    f"refused: the session spent its privacy budget"
                ) from None
            if state in (RequestState.REJECTED, RequestState.THROTTLED):
                raise NoResultError(
                    f"request {request_id} of session {self.session_id} was "
                    f"shed at admission ({state.value}); resubmit it"
                ) from None
            if request_id in self._pending:
                raise NoResultError(
                    f"request {request_id} of session {self.session_id} has no "
                    f"result yet — run service.tick()/run_until_idle() first"
                ) from None
            raise NoResultError(
                f"request {request_id} of session {self.session_id} was "
                f"already consumed (results pop on read) or never submitted"
            ) from None
        outputs = response.decoded()  # widen codec-narrowed maps to fp32
        if self.client._selector is None:
            # Selector-less (standard-CI) clients consume the single body's map.
            return self.client.decide(outputs[0])
        return self.client.decide(outputs)

    def infer(self, images: np.ndarray, record: bool = False) -> np.ndarray:
        """Single-tenant convenience: submit, drain the service, decode."""
        request_id = self.submit(images, record=record)
        self._service.run_until_idle()
        return self.result(request_id)
