"""The multi-tenant inference service: tick-based cross-client coalescing.

Ensembler's server must run *all* N bodies for every upload (the client's
P-subset is secret), so its hot path is embarrassingly batchable: the
fused :class:`~repro.nn.batched.StackedBodies` engine makes the marginal
cost of extra samples in one stacked pass near-linear, while every extra
*pass* pays fixed interpreter/im2col dispatch overhead.  The
:class:`InferenceService` therefore queues concurrent client uploads and,
on each deterministic ``tick()``, coalesces a group of them along the
batch axis into **one** stacked forward over all N bodies, then splits
the N feature maps back out per request and routes each response through
its session's own channel.

Scheduling
----------
*Which* queued requests form a tick's group is delegated to a pluggable
:class:`~repro.serving.scheduler.Scheduler` (``scheduler="fifo"`` by
default — bit-exact with the historical drain-the-queue behaviour;
``"fair"`` round-robins across sessions; ``"deadline"`` forms groups
adaptively by payload size and SLO slack).  Whatever the policy, a group
always shares one per-sample feature shape/dtype, so byte accounting,
record order and outputs stay reproducible per session.  The service
carries a virtual clock (``now`` / :meth:`advance_clock`) that stamps
``arrival_time`` on admission; the event-driven front-end in
:mod:`repro.serving.simulate` drives it from an arrival-time trace.

Codecs
------
Each session negotiates a downlink :class:`~repro.serving.protocol.Codec`
at ``open_session`` (default from :class:`ServingConfig`): ``"fp16"``
narrows the N returned feature maps to half precision on the wire,
halving the dominant Table-III downlink term; channels account the
narrowed frames exactly.

Per-tenant QoS
--------------
Two knobs separate paying tiers.  Sessions negotiate a fair-share
``weight`` at ``open_session`` (consumed by weight-aware schedulers such
as ``scheduler="weighted"`` — a weight-2 tenant receives ~2x the stacked
samples of a weight-1 tenant while both have backlog).  Sessions may also
carry a token-bucket :class:`RateLimit`: ``submit`` refills the bucket
from the service clock and raises :class:`RateLimitedError` when a tenant
exceeds its sustained rate + burst, counted in ``throttled_requests`` —
a *policy* rejection, distinct from capacity backpressure below.

Backpressure
------------
The queue is bounded (``max_queue``): ``submit`` on a full queue raises
:class:`BackpressureError` *before* any bytes are accounted — admission
control happens ahead of transmission — and bumps the service's
``rejected_requests`` counter so load shedding is observable.  Closing a
session cancels its queued (already-transmitted) requests and counts them
in ``cancelled_requests``.

Fault tolerance
---------------
Every submitted request ends in exactly one typed terminal
:class:`~repro.serving.errors.RequestState` (the conservation invariant
the simulator checks).  A pluggable
:class:`~repro.serving.faults.FaultInjector` exercises the wire (frames
really are mangled and re-parsed through the CRC32-hardened protocol)
and the tick loop (a crashed stacked pass re-queues its group up to
``tick_retries`` times, then fails the riders terminally).  Idempotent
retries are deduplicated against the in-queue id set, and an
optional :class:`~repro.serving.overload.OverloadController` walks the
degradation ladder (shed best-effort tenants → narrow the codec →
shrink the ensemble) under sustained queue pressure — every step
counted on the controller and reversed when pressure clears.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.ci.channel import Channel, TransferStats
from repro.ci.pipeline import Client, Server
from repro.nn.arena import TensorArena, use_arena
from repro.serving.errors import (
    BackpressureError,
    PrivacyExhaustedError,
    ProtocolError,
    RateLimitedError,
    RequestState,
    UnknownSessionError,
)
from repro.serving.faults import (
    UPLINK_DROP,
    UPLINK_OK,
    FaultInjector,
)
from repro.serving.overload import OverloadController, OverloadPolicy
from repro.serving.protocol import Codec, FeatureResponse, UploadRequest
from repro.serving.scheduler import SCHEDULERS, Scheduler, make_scheduler
from repro.serving.session import Session


@dataclasses.dataclass(frozen=True)
class RateLimit:
    """Token-bucket parameters for one tenant's admission rate.

    ``rate_per_s`` tokens accrue per virtual-clock second up to ``burst``
    capacity.  Each submitted request spends one token, so a tenant can
    burst ``burst`` requests instantly but sustains at most
    ``rate_per_s`` requests/second.
    """

    rate_per_s: float
    burst: float = 1.0

    def __post_init__(self):
        if not self.rate_per_s > 0:
            raise ValueError("rate_per_s must be positive")
        if not self.burst >= 1:
            raise ValueError("burst must be >= 1 (a bucket must admit at "
                             "least one request)")

    @classmethod
    def parse(cls, value: "RateLimit | tuple | float | None"
              ) -> "RateLimit | None":
        """Coerce a user-facing spec to a :class:`RateLimit`.

        Args:
            value: ``None`` (unlimited), a :class:`RateLimit`, a bare rate
                in requests/second, or a ``(rate_per_s, burst)`` tuple.

        Returns:
            The parsed limit, or ``None`` for the unlimited spec.
        """
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, (int, float)):
            return cls(rate_per_s=float(value))
        return cls(*value)


class RateLimiter:
    """Mutable token-bucket state enforcing one session's :class:`RateLimit`.

    The bucket starts full and refills lazily from the (monotonic)
    service clock; limiters are created per session at open time and die
    with it, so bucket state never leaks across ``close_session`` into a
    later session (see ``tests/test_qos.py``).
    """

    def __init__(self, limit: RateLimit, now: float = 0.0):
        self.limit = limit
        self.tokens = float(limit.burst)
        self._last_refill = now

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last_refill)
        self._last_refill = max(self._last_refill, now)
        self.tokens = min(float(self.limit.burst),
                          self.tokens + elapsed * self.limit.rate_per_s)

    def available(self, now: float) -> float:
        """Tokens in the bucket after refilling up to ``now``."""
        self._refill(now)
        return self.tokens

    def try_acquire(self, now: float) -> bool:
        """Spend one token if the refilled bucket holds one.

        Returns:
            True (tokens spent) or False (bucket unchanged, caller
            should throttle).
        """
        self._refill(now)
        if self.tokens + 1e-9 < 1.0:
            return False
        self.tokens -= 1.0
        return True

    def seconds_until(self) -> float:
        """Virtual seconds until the next token will be available."""
        deficit = 1.0 - self.tokens
        return max(0.0, deficit / self.limit.rate_per_s)


#: sentinel distinguishing "use the service default" from an explicit
#: ``rate_limit=None`` (unlimited) at ``open_session`` / ``adopt_session``.
_DEFAULT_LIMIT = object()


def build_client(head, tail, *, selector=None, noise=None,
                 noise_seed: int | None = None,
                 noise_shape: tuple[int, ...] | None = None,
                 noise_sigma: float = 0.1) -> Client:
    """Assemble a :class:`~repro.ci.pipeline.Client` from its parts.

    ``noise_seed`` (with ``noise_shape``) draws the client its own fixed
    Gaussian map — per-tenant noise without sharing RNG state — unless an
    explicit ``noise`` module is given.  Shared by
    :meth:`InferenceService.open_session` and the fleet front-end, so
    both build byte-identical clients from the same spec.
    """
    if noise is None and noise_seed is not None:
        from repro.core.noise import FixedGaussianNoise
        from repro.utils.rng import new_rng
        if noise_shape is None:
            raise ValueError("noise_seed requires noise_shape")
        noise = FixedGaussianNoise(noise_shape, noise_sigma,
                                   rng=new_rng(noise_seed))
    return Client(head, tail, noise=noise, selector=selector)


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """Scheduler shape of one service (``InferenceService.config``).

    ``max_batch`` caps the requests coalesced into one stacked pass for
    the count-capped policies (``fifo`` / ``fair`` / ``weighted``);
    ``DeadlineScheduler`` deliberately ignores it and sizes groups by
    payload and SLO slack.  ``rate_limit`` is the *default* per-session
    token bucket applied to tenants that do not negotiate their own
    (``None`` = unlimited).  ``tick_retries`` bounds how often a crashed
    pass re-queues a request before it ends ``FAILED``; no setting sheds
    a request for a passed deadline.

    ``fast_path`` enables the eval-time serving optimisations: the
    service owns a :class:`~repro.nn.arena.TensorArena` whose buffers
    (im2col columns, pad canvases, the uplink staging buffer) persist
    across ticks, group batches are staged into that arena instead of
    ``np.concatenate``-ing fresh memory, and :meth:`InferenceService.\
submit_bytes` decodes wire frames zero-copy.  Served bytes are
    bit-identical with the flag off — the differential wire-equivalence
    suite pins this.
    """

    max_batch: int = 8   # group-size cap (ignored by the deadline policy)
    max_queue: int = 64  # bounded-queue backpressure threshold
    scheduler: str = "fifo"  # admission/grouping policy (see serving.scheduler)
    codec: str = "fp32"  # default downlink codec sessions negotiate
    rate_limit: RateLimit | None = None  # default per-session token bucket
    tick_retries: int = 1  # crashed-pass re-queues before a request FAILs
    fast_path: bool = True   # arena buffer reuse + zero-copy decode

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.tick_retries < 0:
            raise ValueError("tick_retries must be >= 0")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler '{self.scheduler}'; choose "
                             f"from {sorted(SCHEDULERS)}")
        Codec.parse(self.codec)  # raises on unknown codec names
        object.__setattr__(self, "rate_limit", RateLimit.parse(self.rate_limit))


#: :class:`ServiceStats` fields that are *levels*, not counters: fleet
#: aggregation takes their max, everything else sums.
_LEVEL_STATS = frozenset({"peak_coalesced"})


@dataclasses.dataclass
class ServiceStats:
    """Aggregate scheduler counters (transfer totals live per session).

    Stats are composable: ``a + b`` returns combined counters and
    ``a.merge(b)`` accumulates in place, so per-replica stats roll up
    into fleet totals (``sum(stats_list, ServiceStats())``).  Merging is
    field-driven over ``dataclasses.fields``, so a counter added later
    can never be silently dropped from fleet aggregation: every field
    sums, except the *level* fields (:data:`_LEVEL_STATS` — the peak
    group size), which take the max.  The overload ladder's level and
    transition counts are read from the controller (``service.overload``).
    """

    ticks: int = 0
    served_requests: int = 0
    served_samples: int = 0
    rejected_requests: int = 0
    throttled_requests: int = 0  # shed by per-tenant rate limits
    cancelled_requests: int = 0  # queued work shed by close_session
    peak_coalesced: int = 0
    deduped_requests: int = 0    # idempotent retries swallowed service-side
    corrupt_frames: int = 0      # uplink frames that failed parse / CRC
    dropped_frames: int = 0      # uplink frames lost on the (faulted) wire
    tick_failures: int = 0       # stacked passes that crashed mid-flight
    tick_failure_samples: int = 0  # samples riding crashed passes (cost basis)
    failed_requests: int = 0     # terminally FAILED (crash retries exhausted)
    shed_best_effort: int = 0    # weight-0 submits refused under overload
    degraded_responses: int = 0  # responses narrowed / ensemble-shrunk
    privacy_charged_queries: int = 0  # served queries charged to a budget
    privacy_refusals: int = 0    # submits/serves refused past exhaustion
    privacy_exhausted_sessions: int = 0  # sessions closed by a spent budget
    selector_rotations: int = 0  # switching-ensemble subset re-draws

    @property
    def mean_coalesced(self) -> float:
        """Average requests per stacked pass — the amortisation factor."""
        return self.served_requests / self.ticks if self.ticks else 0.0

    def merge(self, other: "ServiceStats") -> "ServiceStats":
        """Accumulate ``other`` into this instance (returns self).

        Every dataclass field participates: counters sum, level fields
        (:data:`_LEVEL_STATS`) take the max — so no counter, present or
        future, can fall out of fleet-wide totals.
        """
        for field in dataclasses.fields(self):
            mine, theirs = getattr(self, field.name), getattr(other, field.name)
            if field.name in _LEVEL_STATS:
                setattr(self, field.name, max(mine, theirs))
            else:
                setattr(self, field.name, mine + theirs)
        return self

    def __add__(self, other: "ServiceStats") -> "ServiceStats":
        """Combined counters of two stat blocks (neither is mutated)."""
        if not isinstance(other, ServiceStats):
            return NotImplemented
        return dataclasses.replace(self).merge(other)

    def __radd__(self, other) -> "ServiceStats":
        """Support plain ``sum(stats_list)`` (0 + stats)."""
        if other == 0:
            return dataclasses.replace(self)
        return NotImplemented


class InferenceService:
    """Shared server front-end multiplexing many client sessions.

    ``server`` may be a configured :class:`~repro.ci.pipeline.Server` or a
    plain body list (wrapped with the default batched backend).  The
    service never sees a selector or a noise map: it forwards uploaded
    features through all N bodies and returns all N maps, per session.

    ``scheduler`` accepts a registry name (``"fifo"``, ``"fair"``,
    ``"deadline"``) or a pre-built :class:`Scheduler` instance for
    policies that need constructor arguments.
    """

    def __init__(self, server: Server | list, max_batch: int = 8,
                 max_queue: int = 64,
                 scheduler: str | Scheduler = "fifo",
                 codec: Codec | int | str = Codec.FP32,
                 rate_limit: RateLimit | tuple | float | None = None,
                 faults: FaultInjector | None = None,
                 overload: "OverloadController | OverloadPolicy | None" = None,
                 tick_retries: int = 1,
                 fast_path: bool = True):
        if not isinstance(server, Server):
            server = Server(list(server))
        self.scheduler = make_scheduler(scheduler)
        self.config = ServingConfig(max_batch=max_batch, max_queue=max_queue,
                                    scheduler=self.scheduler.name,
                                    codec=Codec.parse(codec).name.lower(),
                                    rate_limit=RateLimit.parse(rate_limit),
                                    tick_retries=tick_retries,
                                    fast_path=fast_path)
        self.server = server
        #: the per-service scratch arena (``None`` with the fast path
        #: off): im2col / pad / staging buffers persist across ticks.
        self.arena = TensorArena() if fast_path else None
        self.faults = faults
        self.overload = (OverloadController(overload)
                         if isinstance(overload, OverloadPolicy) else overload)
        self.stats = ServiceStats()
        self.now = 0.0  # virtual clock; advanced by event-driven front-ends
        self._sessions: dict[int, Session] = {}
        self._next_session_id = 1
        # (session_id, request_id) pairs currently in the scheduler queue:
        # the dedup set idempotent retries are checked against.  A frame
        # the fault injector dropped never enters it, so a retry after a
        # genuine loss is re-queued rather than wrongly swallowed.
        self._queued_ids: set[tuple[int, int]] = set()
        self._tick_attempts = 0  # every tick() that formed a group
        # Traffic already accounted by sessions that have since closed —
        # service-level totals must not shrink on tenant churn.
        self._closed_transfer = TransferStats()

    # -- session management ---------------------------------------------

    @property
    def num_nets(self) -> int:
        return len(self.server.bodies)

    @property
    def sessions(self) -> tuple[Session, ...]:
        return tuple(self._sessions.values())

    @property
    def pending(self) -> int:
        """Queued requests not yet served."""
        return self.scheduler.pending

    @property
    def pressure(self) -> float:
        """Queue occupancy in [0, 1]: pending / max_queue.

        The raw congestion signal the autoscaler and admission
        controller smooth and threshold (see
        :mod:`repro.serving.autoscale`).
        """
        return min(1.0, self.scheduler.pending / self.config.max_queue)

    def open_session(self, head, tail, *, selector=None, noise=None,
                     noise_seed: int | None = None,
                     noise_shape: tuple[int, ...] | None = None,
                     noise_sigma: float = 0.1,
                     channel: Channel | None = None,
                     codec: Codec | int | str | None = None,
                     weight: float = 1.0,
                     rate_limit: "RateLimit | tuple | float | None" = _DEFAULT_LIMIT,
                     privacy=None,
                     rotation=None,
                     ) -> Session:
        """Register a new tenant from its client-side parts.

        ``noise_seed`` (with ``noise_shape``) draws this session its own
        fixed Gaussian map — per-tenant noise without sharing RNG state —
        unless an explicit ``noise`` module is given.  ``codec`` negotiates
        this session's downlink encoding (defaults to the service-wide
        :attr:`ServingConfig.codec`).  ``weight`` is the tenant's
        fair-share weight (consumed by weight-aware schedulers; 0 =
        best-effort) and ``rate_limit`` its token bucket — omitted, the
        service-wide default applies; an explicit ``None`` means
        unlimited.  ``privacy`` attaches a per-session
        :class:`~repro.privacy.budget.PrivacyBudget` (or an
        ``(alpha, eps, q_budget)`` spec) charged once per served query;
        ``rotation`` a :class:`~repro.privacy.rotation.RotationPolicy`
        (or bare mode name) re-drawing the secret selector mid-stream.
        """
        client = build_client(head, tail, selector=selector, noise=noise,
                              noise_seed=noise_seed, noise_shape=noise_shape,
                              noise_sigma=noise_sigma)
        session = self.adopt_session(client, channel=channel, codec=codec,
                                     weight=weight, rate_limit=rate_limit,
                                     privacy=privacy, rotation=rotation)
        if noise is None and noise_seed is not None:
            # Checkpointable noise provenance: a failover replica can
            # redraw the identical map from (seed, shape, sigma).
            session.noise_seed = int(noise_seed)
            session.noise_shape = tuple(int(d) for d in noise_shape)
            session.noise_sigma = float(noise_sigma)
        return session

    def adopt_session(self, client: Client, channel: Channel | None = None,
                      codec: Codec | int | str | None = None,
                      weight: float = 1.0,
                      rate_limit: "RateLimit | tuple | float | None" = _DEFAULT_LIMIT,
                      session_id: int | None = None,
                      epoch: int = 0,
                      privacy=None,
                      rotation=None,
                      ) -> Session:
        """Register an already-built :class:`Client` as a tenant.

        Args:
            client: the client-side head/tail/noise/selector bundle.
            channel: the byte-accounting channel (a fresh one if omitted).
            codec: downlink codec override (service default if ``None``).
            weight: fair-share weight for weight-aware schedulers.
            rate_limit: token-bucket override; omitted applies the
                service-wide default, explicit ``None`` means unlimited.
            session_id: explicit id (fleet front-ends allocate ids
                globally so a session keeps its id across replicas);
                omitted, the service burns its next local id.
            epoch: the session's incarnation epoch — 0 for a first open,
                bumped by checkpoint restore so a failed-over session
                never replays its predecessor's retry-jitter sequence.
            privacy: per-session privacy budget spec (``None`` =
                unmetered; see :meth:`open_session`).
            rotation: selector-rotation policy spec (``None`` = static
                selector; see :meth:`open_session`).

        Returns:
            The opened :class:`Session`; its limiter (if any) starts with
            a full bucket at the current service clock.
        """
        codec = Codec.parse(self.config.codec if codec is None else codec)
        limit = RateLimit.parse(self.config.rate_limit
                                if rate_limit is _DEFAULT_LIMIT else rate_limit)
        limiter = RateLimiter(limit, now=self.now) if limit is not None else None
        if session_id is None:
            session_id = self._next_session_id
        session = Session(session_id, client, self, channel=channel,
                          codec=codec, weight=weight, limiter=limiter,
                          epoch=epoch, privacy=privacy, rotation=rotation)
        return self.register_session(session)

    def register_session(self, session: Session) -> Session:
        """Register an externally-built :class:`Session` with this service.

        The registration path under :meth:`adopt_session`, exposed for
        fleet front-ends and checkpoint restore, which construct the
        session themselves (explicit id, restored epoch/state) and home
        it on a replica.  Registration happens only after every
        validation (including the scheduler's own weight check) has
        passed, so a failed adopt leaves no live session behind and
        never burns/reuses a session id.
        """
        if session.session_id in self._sessions:
            raise ValueError(f"session id {session.session_id} is already "
                             f"registered with this service")
        self.scheduler.set_session_weight(session.session_id, session.weight)
        self._sessions[session.session_id] = session
        self._next_session_id = max(self._next_session_id,
                                    session.session_id + 1)
        return session

    def close_session(self, session: Session) -> None:
        """Drop a tenant; its queued requests are cancelled (counted in
        ``stats.cancelled_requests`` and marked terminally ``CANCELLED``,
        exactly once), its already-accounted traffic is retained in the
        service totals."""
        closed = self._sessions.pop(session.session_id, None)
        if closed is not None:
            self._closed_transfer.merge(closed.stats)
        self._cancel_queued(session)

    # -- clock ----------------------------------------------------------

    def advance_clock(self, now: float) -> None:
        """Move the virtual clock forward (monotonic; never rewinds)."""
        self.now = max(self.now, float(now))

    # -- request path ---------------------------------------------------

    def submit(self, request: UploadRequest) -> int:
        """Enqueue one upload; accounts its framed bytes on the session.

        Admission control happens before any bytes are accounted:
        idempotent-retry dedup first (a retry of a request that is still
        queued — or already served — is swallowed, counted in
        ``deduped_requests``), then overload shedding of best-effort
        tenants, then the session's token bucket (policy — raises
        :class:`RateLimitedError`, counted in ``throttled_requests``)
        and the bounded queue (capacity — raises
        :class:`BackpressureError`, counted in ``rejected_requests``).
        A backpressured submit never spends a token.  Stamps the
        request's ``arrival_time`` from the service clock if unset.

        With a :class:`~repro.serving.faults.FaultInjector` plugged in,
        admitted frames then cross the (faulted) wire: a corrupted or
        truncated frame is really serialised, mangled and re-parsed — the
        CRC32-hardened protocol rejects it with a typed
        :class:`~repro.serving.errors.ProtocolError` and the request is
        marked ``FAILED`` (a retry with the same id re-enters cleanly); a
        dropped frame returns normally but never reaches the queue, so
        only a client-side retry timeout can recover it.
        """
        session = self._sessions.get(request.session_id)
        if session is None:
            raise UnknownSessionError(
                f"unknown session id {request.session_id}")
        key = (request.session_id, request.request_id)
        if (key in self._queued_ids or session.has_result(request.request_id)
                or session.request_state(request.request_id)
                is RequestState.COMPLETED):
            # Idempotent retry of a request that survived after all: the
            # retransmission crossed the wire (account it) but must not
            # enter the queue a second time.
            self.stats.deduped_requests += 1
            session.channel.send_up(request)
            return request.request_id
        if session.privacy is not None and session.privacy.exhausted:
            # The budget never refills: refuse (never silently serve),
            # close the session for new work exactly once, and keep it
            # registered as a tombstone so the error stays typed.
            self._close_exhausted(session)
            self.stats.privacy_refusals += 1
            session._resolve(request.request_id, RequestState.REJECTED)
            budget = session.privacy
            raise PrivacyExhaustedError(
                f"session {session.session_id} spent its privacy budget "
                f"(ε(α): {budget.spent:.4g}/{budget.policy.eps:g}, queries: "
                f"{budget.queries_charged}/{budget.policy.q_budget}); the "
                f"session is closed for new work")
        if (self.overload is not None and self.overload.shed_best_effort
                and session.weight == 0):
            self.stats.shed_best_effort += 1
            self.stats.rejected_requests += 1
            session._resolve(request.request_id, RequestState.REJECTED)
            raise BackpressureError(
                f"session {session.session_id} is best-effort (weight 0) "
                f"and the service is overloaded "
                f"({self.overload.level_name}); retry when pressure clears")
        limiter = session.limiter
        if limiter is not None and limiter.available(self.now) + 1e-9 < 1.0:
            self.stats.throttled_requests += 1
            session._resolve(request.request_id, RequestState.THROTTLED)
            raise RateLimitedError(
                f"session {session.session_id} exceeded its rate limit "
                f"({limiter.limit.rate_per_s:g} req/s, burst "
                f"{limiter.limit.burst:g}); retry in "
                f"{limiter.seconds_until():.3f}s")
        if self.scheduler.pending >= self.config.max_queue:
            self.stats.rejected_requests += 1
            session._resolve(request.request_id, RequestState.REJECTED)
            raise BackpressureError(
                f"service queue full ({self.config.max_queue} pending); "
                f"retry after a tick")
        if limiter is not None:
            limiter.try_acquire(self.now)  # refilled above: succeeds
        if request.arrival_time is None:
            request.arrival_time = self.now
        session.channel.send_up(request)
        outcome = (self.faults.upload_outcome() if self.faults is not None
                   else UPLINK_OK)
        if outcome != UPLINK_OK:
            if outcome == UPLINK_DROP:
                self.stats.dropped_frames += 1
                # Lost on the wire: the client believes it is in flight,
                # nothing reached the queue, and the dedup set was never
                # touched — a retry timeout recovers it cleanly.
                session._resolve(request.request_id, RequestState.QUEUED)
                return request.request_id
            blob = self.faults.mangle(request.to_bytes(), outcome)
            try:
                UploadRequest.from_bytes(blob)
            except ProtocolError:
                self.stats.corrupt_frames += 1
                session._resolve(request.request_id, RequestState.FAILED)
                raise
            # Unreachable under CRC32 framing (every mangle breaks the
            # checksum), but stay safe: an intact frame proceeds below.
        self.scheduler.enqueue(request)
        self._queued_ids.add(key)
        session._resolve(request.request_id, RequestState.QUEUED)
        return request.request_id

    def submit_bytes(self, data: bytes) -> int:
        """Admit one framed upload straight from its wire bytes.

        The network-facing twin of :meth:`submit`: parses the CRC32-framed
        :class:`~repro.serving.protocol.UploadRequest` and enqueues it.
        With the fast path on, the parse is **zero-copy** — the request's
        ``features`` are a read-only :func:`numpy.frombuffer` view into
        ``data``, and the only payload copy on the whole serve path is
        the tick's staging copy into the arena batch buffer.  Mutable
        buffers (``bytearray`` / ``memoryview``) are defensively copied
        at decode regardless, so a sender recycling its frame buffer can
        never alias into served features.  Admission control, accounting
        and the typed error surface are exactly :meth:`submit`'s.
        """
        request = UploadRequest.from_bytes(
            data, zero_copy=self.config.fast_path)
        return self.submit(request)

    def tick(self) -> list[FeatureResponse]:
        """One deterministic scheduler step: serve the next coalesced group.

        The scheduler picks a group of queued requests sharing one
        per-sample feature shape; the service runs **one** forward over
        all N bodies, splits the stacked outputs back per request and
        delivers each response (through its session's negotiated codec)
        over the session's channel.

        Fault tolerance wraps that hot path on two sides.  The overload
        controller observes queue pressure and may shed best-effort
        tenants, narrow the served codec or shrink the ensemble subset
        (responses flagged ``degraded``).  Requests are never shed for a
        passed ``deadline``: deadlines only order groups under the
        deadline policy, and a late request is served late.  A crashed
        stacked pass — injected by the fault plan or a real exception —
        re-queues its group up to ``tick_retries`` times before marking
        the riders terminally ``FAILED``; the tick itself never raises
        and returns ``[]`` (observable via ``stats.tick_failures``).

        Privacy-budgeted sessions are charged here, post-paid and exactly
        once per delivered response (crashed passes exit through
        ``_fail_tick`` before any delivery, so retried queries are never
        double-charged); the budget ladder masks downlink maps at its
        shrink-map level, selector rotation re-draws fire immediately
        before each delivery, and a rider whose budget was spent earlier
        in the same group is refused (``privacy_refusals``), never
        silently served.
        """
        if self.overload is not None:
            self.overload.observe(self.scheduler.pending,
                                  self.config.max_queue)
        group = self.scheduler.next_group(self.config.max_batch, now=self.now)
        if not group:
            return []
        tick_index = self._tick_attempts
        self._tick_attempts += 1

        # Per-request attack capture, in service order: identical to what K
        # sequential pipeline.infer(record=True) calls would retain.  Only
        # first attempts capture — a crashed pass must not duplicate the
        # retained features when its group rides a retry pass.
        for request in group:
            if request.record and request.attempts == 0:
                self.server.observed_features.append(
                    np.array(request.features, copy=True))

        total = self.num_nets
        num_bodies = (self.overload.num_bodies(total)
                      if self.overload is not None else total)
        per_request = None
        if self.faults is None or not self.faults.tick_fails(tick_index):
            try:
                per_request = self._split_outputs(
                    self._server_pass(self._stage_batch(group), num_bodies),
                    group)
            except Exception:
                per_request = None  # a real mid-pass crash: same recovery path
        if per_request is None:
            return self._fail_tick(group)
        degraded_pass = num_bodies < total
        if degraded_pass:
            # The client's selector needs all N positions: alias the maps
            # outside the served subset cyclically onto the k computed
            # ones, flagged degraded on the wire.
            per_request = [[outs[i % num_bodies] for i in range(total)]
                           for outs in per_request]

        responses = []
        served_samples = 0
        for request, outs in zip(group, per_request):
            n = request.batch_size
            self._queued_ids.discard((request.session_id, request.request_id))
            session = self._sessions.get(request.session_id)
            if (session is not None and session.privacy is not None
                    and session.privacy.exhausted):
                # An earlier response in this same group spent the last
                # of the budget: refuse this rider rather than silently
                # serving past exhaustion.
                self._close_exhausted(session)
                self.stats.privacy_refusals += 1
                session._resolve(request.request_id, RequestState.REJECTED)
                continue
            negotiated = session.codec if session is not None else Codec.FP32
            codec = (self.overload.codec_for(negotiated)
                     if self.overload is not None else negotiated)
            masked = (session.privacy.mask_outputs(outs)
                      if session is not None and session.privacy is not None
                      else False)
            degraded = degraded_pass or codec is not negotiated or masked
            response = FeatureResponse.encode(request.session_id,
                                              request.request_id, outs,
                                              codec=codec, degraded=degraded)
            if degraded:
                self.stats.degraded_responses += 1
            if session is not None:  # session may have closed mid-flight
                if session.rotation is not None:
                    # Rotate *before* delivery: this query is consumed
                    # under the subset in force at its own serve time.
                    if session.rotation.maybe_rotate(session):
                        self.stats.selector_rotations += 1
                session.channel.send_down(response)
                session._deliver(response)
                if session.charge_privacy() is not None:
                    # Post-paid, exactly once per delivered response.
                    self.stats.privacy_charged_queries += 1
                    if session.privacy.exhausted:
                        self._close_exhausted(session)
            served_samples += n
            responses.append(response)

        self.stats.ticks += 1
        self.stats.served_requests += len(responses)
        self.stats.served_samples += served_samples
        self.stats.peak_coalesced = max(self.stats.peak_coalesced, len(group))
        return responses

    # -- fused-pass fast path -------------------------------------------

    def _server_pass(self, batch: np.ndarray,
                     num_bodies: int) -> list[np.ndarray]:
        """One stacked forward with this service's arena active.

        The arena only lends *scratch* (im2col columns, pad canvases —
        see :mod:`repro.nn.arena`); the returned feature maps are always
        fresh memory, so responses may outlive any number of later ticks.
        """
        with use_arena(self.arena):
            return self.server.compute(batch, num_bodies=num_bodies)

    def _stage_batch(self, group: list[UploadRequest]) -> np.ndarray:
        """Assemble one shape-homogeneous group into a batch array.

        With the fast path on, rides the arena's persistent staging
        buffer (every element overwritten — the poisoning tests check
        this) instead of allocating a fresh ``np.concatenate`` each tick;
        it is also the single copy zero-copy-decoded payloads ever pay.
        """
        feats = [r.features for r in group]
        if len(feats) == 1:
            return feats[0]
        if self.arena is None:
            return np.concatenate(feats, axis=0)
        total = sum(f.shape[0] for f in feats)
        staged = self.arena.take_named(
            "uplink_staging", (total,) + feats[0].shape[1:], feats[0].dtype)
        offset = 0
        for feat in feats:
            staged[offset:offset + feat.shape[0]] = feat
            offset += feat.shape[0]
        return staged

    @staticmethod
    def _split_outputs(outputs: list[np.ndarray],
                       group: list[UploadRequest]) -> list[list[np.ndarray]]:
        """Slice batch-wide body outputs back into per-request lists."""
        per_request = []
        offset = 0
        for request in group:
            n = request.batch_size
            per_request.append([np.ascontiguousarray(out[offset:offset + n])
                                for out in outputs])
            offset += n
        return per_request

    def _fail_tick(self, group: list[UploadRequest]) -> list[FeatureResponse]:
        """Recover a crashed stacked pass: re-queue or fail its riders."""
        self.stats.tick_failures += 1
        self.stats.tick_failure_samples += sum(r.batch_size for r in group)
        for request in group:
            request.attempts += 1
            if request.attempts > self.config.tick_retries:
                self.stats.failed_requests += 1
                self._queued_ids.discard(
                    (request.session_id, request.request_id))
                session = self._sessions.get(request.session_id)
                if session is not None:
                    session._resolve(request.request_id, RequestState.FAILED)
            else:
                self.scheduler.enqueue(request)
        return []

    def _close_exhausted(self, session: Session) -> None:
        """Close a budget-exhausted session for new work, exactly once.

        Counted in ``privacy_exhausted_sessions``; the session's queued
        requests are cancelled (terminally ``CANCELLED``, counted in
        ``cancelled_requests``) but the session stays *registered* as a
        tombstone, so later submits raise the typed
        :class:`~repro.serving.errors.PrivacyExhaustedError` instead of
        :class:`~repro.serving.errors.UnknownSessionError`.
        """
        if session.privacy is None or session.privacy.closed:
            return
        session.privacy.closed = True
        self.stats.privacy_exhausted_sessions += 1
        self._cancel_queued(session)

    def _cancel_queued(self, session: Session) -> None:
        """Cancel the session's queued requests, exactly once each.

        Counted in ``cancelled_requests`` and marked terminally
        ``CANCELLED``.  The state is set on the session object itself,
        which may already be unregistered: clients holding the handle
        still see ``CANCELLED``.
        """
        cancelled = self.scheduler.cancel_session(session.session_id)
        self.stats.cancelled_requests += len(cancelled)
        for request in cancelled:
            self._queued_ids.discard((request.session_id, request.request_id))
            session._resolve(request.request_id, RequestState.CANCELLED)

    def run_until_idle(self, max_ticks: int = 100_000) -> int:
        """Tick until the queue drains; returns the number of ticks run."""
        ticks = 0
        while self.scheduler.pending:
            if ticks >= max_ticks:
                raise RuntimeError(f"queue did not drain in {max_ticks} ticks")
            self.tick()
            ticks += 1
        return ticks

    # -- aggregate accounting -------------------------------------------

    def transfer_totals(self) -> TransferStats:
        """Service-level traffic: every session's counters, open or closed."""
        return sum((s.stats for s in self._sessions.values()),
                   dataclasses.replace(self._closed_transfer))
