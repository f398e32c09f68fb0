"""Multi-tenant serving layer over the fused ensemble engine.

Ensembler's protocol (Fig. 2) makes the server run *all* N bodies per
upload so the client's P-subset selection stays secret; the fused
:class:`~repro.nn.batched.StackedBodies` engine made that affordable per
request, and this package makes it affordable per *fleet*: concurrent
client uploads are coalesced along the batch axis into one stacked
forward, so K waiting requests cost one fused pass instead of K.

* :mod:`repro.serving.protocol` — the typed wire protocol
  (:class:`UploadRequest` / :class:`FeatureResponse`) with real byte
  serialization and CRC32 frame checksums, so the channel accounts
  actual framed payloads and corruption is detected, not propagated;
* :mod:`repro.serving.errors` — the :class:`ServingError` hierarchy and
  the :class:`RequestState` lifecycle every submitted request traverses
  (exactly one terminal state per request — the conservation invariant);
* :mod:`repro.serving.session` — per-client :class:`Session` objects:
  own channel statistics, private selector, optional per-session noise;
* :mod:`repro.serving.service` — the :class:`InferenceService`: a
  deterministic tick-based front-end with bounded-queue backpressure,
  per-session codec negotiation and cross-client batch coalescing;
* :mod:`repro.serving.scheduler` — pluggable admission/grouping policies
  (:class:`FifoScheduler`, :class:`FairShareScheduler`,
  :class:`WeightedFairScheduler`, :class:`DeadlineScheduler`) the service
  delegates group formation to;
* :mod:`repro.serving.faults` — seeded deterministic fault injection
  (:class:`FaultInjector`) and client-side :class:`RetryPolicy` backoff;
* :mod:`repro.serving.overload` — the graceful-degradation ladder
  (:class:`OverloadController`): shed best-effort tenants, narrow the
  downlink codec, shrink the served ensemble — with hysteresis;
* :mod:`repro.serving.simulate` — an event-driven virtual-clock front-end
  replaying arrival-time traces (with faults, retries and mid-trace
  disconnects) and reporting latency percentiles, SLO violations and
  per-replay request conservation — plus :func:`simulate_fleet`, the
  same loop at fleet scope (per-replica busy clocks, heartbeat events,
  mid-trace replica kills, zero-duplicate-serve accounting);
* :mod:`repro.serving.fleet` — the replicated tier: a
  :class:`ServiceFleet` of hardened replicas behind a consistent-hash
  :class:`HashRing` (sticky session routing, ~1/N failover blast
  radius), a heartbeat :class:`FailureDetector` with hysteresis, and
  checkpoint-driven session failover;
* :mod:`repro.serving.checkpoint` — versioned, CRC32-checked
  :class:`SessionState` byte encoding (selector subset, noise seed,
  codec, weight, token level, request lifecycle) with an in-memory
  :class:`CheckpointStore`; corrupt blobs raise a typed
  :class:`CheckpointError`, never restore silently-wrong state;
* :mod:`repro.serving.autoscale` — the elastic-sizing control loop: an
  :class:`Autoscaler` spawns/drains fleet replicas on a smoothed
  queue-pressure signal with hysteresis and cooldown, migrating
  sessions through the existing drain/checkpoint machinery so privacy
  state never replays;
* :mod:`repro.serving.traffic` — fleet-scale traffic shaping: a
  per-session :class:`AdmissionController` (admit / best-effort
  downgrade / reject at the door) and lazy streaming trace builders
  (:func:`heavy_tailed_trace`, :func:`diurnal_trace`) that generate
  10^4–10^6-session arrival streams without materialising them.

Sessions may additionally carry a per-session privacy budget and a
selector-rotation policy from :mod:`repro.privacy`: the service charges
a Rényi-accounted loss per served query, degrades along a budget ladder,
refuses exhausted sessions with :class:`PrivacyExhaustedError`, and
re-draws the secret subset per the rotation policy (``docs/privacy.md``).

The single-tenant ``repro.ci`` pipelines are thin adapters over this API.
"""

from repro.serving.autoscale import (
    Autoscaler,
    AutoscaleEvent,
    AutoscalePolicy,
)
from repro.serving.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    SessionState,
)
from repro.serving.errors import (
    TERMINAL_STATES,
    BackpressureError,
    CheckpointError,
    NoResultError,
    PrivacyExhaustedError,
    ProtocolError,
    RateLimitedError,
    RequestCancelledError,
    RequestState,
    ServingError,
    TickFailedError,
    UnknownSessionError,
)
from repro.serving.faults import (
    FaultInjector,
    FaultPlan,
    FaultStats,
    ReplicaFault,
    RetryPolicy,
)
from repro.serving.fleet import (
    FailureDetector,
    FleetPolicy,
    FleetStats,
    HashRing,
    ReplicaHandle,
    ReplicaHealth,
    ServiceFleet,
)
from repro.serving.overload import (
    LADDER,
    OverloadController,
    OverloadPolicy,
)
from repro.serving.protocol import (
    Codec,
    FeatureResponse,
    UploadRequest,
    WIRE_VERSION,
)
from repro.serving.scheduler import (
    SCHEDULERS,
    DeadlineScheduler,
    FairShareScheduler,
    FifoScheduler,
    Scheduler,
    WeightedFairScheduler,
    make_scheduler,
)
from repro.serving.service import (
    InferenceService,
    RateLimit,
    RateLimiter,
    ServiceStats,
    ServingConfig,
)
from repro.serving.session import Session
from repro.serving.simulate import (
    Arrival,
    FleetSimulationReport,
    SimulationReport,
    TickCost,
    bursty_trace,
    poisson_trace,
    simulate,
    simulate_fleet,
)
from repro.serving.traffic import (
    ADMIT,
    DOWNGRADE,
    REJECT,
    AdmissionController,
    AdmissionPolicy,
    diurnal_trace,
    heavy_tailed_trace,
)

__all__ = [
    "ADMIT",
    "AdmissionController",
    "AdmissionPolicy",
    "Arrival",
    "Autoscaler",
    "AutoscaleEvent",
    "AutoscalePolicy",
    "BackpressureError",
    "DOWNGRADE",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointStore",
    "Codec",
    "DeadlineScheduler",
    "FailureDetector",
    "FairShareScheduler",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "FeatureResponse",
    "FifoScheduler",
    "FleetPolicy",
    "FleetSimulationReport",
    "FleetStats",
    "HashRing",
    "InferenceService",
    "LADDER",
    "NoResultError",
    "OverloadController",
    "OverloadPolicy",
    "PrivacyExhaustedError",
    "ProtocolError",
    "REJECT",
    "RateLimit",
    "RateLimitedError",
    "RateLimiter",
    "ReplicaFault",
    "ReplicaHandle",
    "ReplicaHealth",
    "RequestCancelledError",
    "RequestState",
    "RetryPolicy",
    "SCHEDULERS",
    "Scheduler",
    "ServiceFleet",
    "ServiceStats",
    "ServingConfig",
    "ServingError",
    "Session",
    "SessionState",
    "SimulationReport",
    "TERMINAL_STATES",
    "TickCost",
    "TickFailedError",
    "UnknownSessionError",
    "UploadRequest",
    "WIRE_VERSION",
    "WeightedFairScheduler",
    "bursty_trace",
    "diurnal_trace",
    "heavy_tailed_trace",
    "make_scheduler",
    "poisson_trace",
    "simulate",
    "simulate_fleet",
]
