"""Deterministic fault injection and client-side retry for the serving
stack.

A production fleet fails in boring, repeatable ways — frames arrive
corrupted or truncated, packets drop, networks add latency, a worker
crashes mid stacked pass.  This module makes every one of those
failures a *seeded, reproducible event*: a
:class:`FaultInjector` draws each decision from its own
``numpy`` generator in a fixed call order, so a chaos replay is exactly
as deterministic as a fault-free one — the same seed produces the same
corrupted frame on the same request, which is what lets
``scripts/check_perf.py`` gate goodput-under-faults as a hard number
rather than a flaky estimate.

The injector plugs into both halves of the stack:

* :class:`~repro.serving.service.InferenceService` consults it at
  ``submit`` (uplink wire faults: corruption, truncation, drop — a
  mangled frame really is serialised, mangled and re-parsed, so the
  CRC32-hardened protocol proves it raises
  :class:`~repro.serving.errors.ProtocolError`) and at ``tick``
  (injected stacked-pass crashes);
* :func:`~repro.serving.simulate.simulate` consults it per submission
  for network delay (a client-side time effect the service never
  observes).

:class:`RetryPolicy` is the client half of fault tolerance: exponential
backoff with deterministic jitter, reusing the *same request id* on
every attempt so the service can deduplicate a retry whose original
actually survived (see ``ServiceStats.deduped_requests``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.serving.errors import (
    BackpressureError,
    ProtocolError,
    RateLimitedError,
    TickFailedError,
)

#: uplink wire-fault outcomes, in the order the injector draws them.
UPLINK_OK = "ok"
UPLINK_CORRUPT = "corrupt"
UPLINK_TRUNCATE = "truncate"
UPLINK_DROP = "drop"

#: replica-level fault kinds (consumed by the fleet simulator).
REPLICA_CRASH = "crash"        # process dies; queued requests are lost
REPLICA_HANG = "hang"          # accepts submits but stops ticking
REPLICA_PARTITION = "partition"  # router <-> replica link severed
REPLICA_SLOW = "slow"          # ticks run ``factor`` x slower

_REPLICA_KINDS = (REPLICA_CRASH, REPLICA_HANG, REPLICA_PARTITION,
                  REPLICA_SLOW)


@dataclasses.dataclass(frozen=True)
class ReplicaFault:
    """One scheduled replica-level fault in a fleet replay.

    ``replica`` names the target by fleet index; ``at_s`` is the virtual
    time the fault strikes.  ``kind`` selects the failure mode:

    * :data:`REPLICA_CRASH` — the replica dies, taking its queued
      requests with it (recovered client-side via retry timeouts and
      checkpoint failover).  Crashes are permanent; ``duration_s`` is
      ignored.
    * :data:`REPLICA_HANG` — the replica keeps *accepting* submits but
      stops ticking for ``duration_s`` seconds: the
      hang-while-holding-requests scenario, the nastiest failure for
      exactly-once accounting.
    * :data:`REPLICA_PARTITION` — the router cannot reach the replica
      for ``duration_s`` seconds; submits routed to it are lost on the
      wire (the replica itself keeps ticking its backlog).
    * :data:`REPLICA_SLOW` — ticks cost ``factor`` x their normal time
      for ``duration_s`` seconds (a gray failure the detector must
      *not* over-react to).
    """

    replica: int
    at_s: float
    kind: str = REPLICA_CRASH
    duration_s: float = 0.0
    factor: float = 4.0  # slow-tick multiplier (REPLICA_SLOW only)

    def __post_init__(self):
        if self.replica < 0:
            raise ValueError("replica index must be >= 0")
        if self.at_s < 0:
            raise ValueError("at_s must be >= 0")
        if self.kind not in _REPLICA_KINDS:
            raise ValueError(f"unknown replica fault kind '{self.kind}'; "
                             f"choose from {_REPLICA_KINDS}")
        if self.kind != REPLICA_CRASH and self.duration_s <= 0:
            raise ValueError(f"{self.kind} faults need duration_s > 0")
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1 (slow means slower)")

    @property
    def until_s(self) -> float:
        """When the fault clears (``inf`` for a permanent crash)."""
        if self.kind == REPLICA_CRASH:
            return float("inf")
        return self.at_s + self.duration_s


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """What to break, and how often (all rates are probabilities in [0, 1]).

    ``tick_failures_at`` names exact tick indices (0-based, counted over
    tick *attempts*) that fail — the deterministic "worker crashes
    mid-pass at tick 3" scenario the chaos gate replays.  ``delay_s`` is
    the *maximum* added network delay (uniform draw).
    """

    corrupt_rate: float = 0.0    # uplink frame bytes flipped
    truncate_rate: float = 0.0   # uplink frame cut short
    drop_rate: float = 0.0       # uplink frame lost on the wire
    delay_rate: float = 0.0      # probability of added network delay
    delay_s: float = 0.0         # max added delay (uniform [0, delay_s])
    tick_failures_at: tuple[int, ...] = ()
    replica_faults: tuple[ReplicaFault, ...] = ()  # fleet-level schedule

    def __post_init__(self):
        for name in ("corrupt_rate", "truncate_rate", "drop_rate",
                     "delay_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.corrupt_rate + self.truncate_rate + self.drop_rate > 1.0:
            raise ValueError("corrupt + truncate + drop rates must not "
                             "exceed 1 (one fault per frame)")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        object.__setattr__(self, "tick_failures_at",
                           tuple(int(t) for t in self.tick_failures_at))
        object.__setattr__(self, "replica_faults",
                           tuple(sorted(self.replica_faults,
                                        key=lambda f: f.at_s)))

    @property
    def frame_fault_rate(self) -> float:
        """Total probability an uplink frame is corrupted/truncated/lost."""
        return self.corrupt_rate + self.truncate_rate + self.drop_rate


@dataclasses.dataclass
class FaultStats:
    """How many of each fault the injector actually dealt out."""

    corrupted_frames: int = 0
    truncated_frames: int = 0
    dropped_frames: int = 0
    delays: int = 0
    tick_failures: int = 0
    replica_crashes: int = 0      # replicas killed outright
    replica_hangs: int = 0        # tick loops frozen while holding work
    replica_partitions: int = 0   # router <-> replica links severed
    replica_slowdowns: int = 0    # slow-tick windows applied

    @property
    def total(self) -> int:
        """Every injected fault, across all kinds."""
        return sum(getattr(self, field.name)
                   for field in dataclasses.fields(self))

    def as_dict(self) -> dict:
        """The counters as a plain dict (for benchmark JSON records)."""
        return dataclasses.asdict(self)


class FaultInjector:
    """Seeded source of deterministic serving faults.

    One injector instance may be shared between an
    :class:`~repro.serving.service.InferenceService` and a
    :func:`~repro.serving.simulate.simulate` replay; decisions are drawn
    from a private generator in call order, so a single-threaded replay
    with the same seed reproduces the same fault sequence byte for byte.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = int(seed)
        self.stats = FaultStats()
        self._rng = np.random.default_rng(self.seed)

    def reset(self) -> "FaultInjector":
        """Rewind the generator and zero the counters (same fault replay)."""
        self._rng = np.random.default_rng(self.seed)
        self.stats = FaultStats()
        return self

    # -- uplink wire faults ---------------------------------------------

    def upload_outcome(self) -> str:
        """Draw one uplink frame's fate: ok / corrupt / truncate / drop."""
        plan = self.plan
        if plan.frame_fault_rate <= 0.0:
            return UPLINK_OK
        roll = float(self._rng.random())
        if roll < plan.corrupt_rate:
            self.stats.corrupted_frames += 1
            return UPLINK_CORRUPT
        if roll < plan.corrupt_rate + plan.truncate_rate:
            self.stats.truncated_frames += 1
            return UPLINK_TRUNCATE
        if roll < plan.frame_fault_rate:
            self.stats.dropped_frames += 1
            return UPLINK_DROP
        return UPLINK_OK

    def mangle(self, data: bytes, outcome: str) -> bytes:
        """Apply a drawn wire fault to real frame bytes.

        Corruption XORs 1..4 bytes at random offsets with non-zero
        masks; truncation cuts the frame at a random interior offset.
        Either way the CRC32-hardened parser must reject the result with
        a :class:`~repro.serving.errors.ProtocolError`.
        """
        if outcome == UPLINK_CORRUPT:
            blob = bytearray(data)
            flips = int(self._rng.integers(1, 5))
            for _ in range(flips):
                pos = int(self._rng.integers(0, len(blob)))
                blob[pos] ^= int(self._rng.integers(1, 256))
            return bytes(blob)
        if outcome == UPLINK_TRUNCATE:
            cut = int(self._rng.integers(0, len(data)))
            return data[:cut]
        return data

    # -- time faults (consumed by the simulator) ------------------------

    def submission_delay(self) -> float:
        """Added network delay for one submission (0.0 = on time)."""
        plan = self.plan
        if plan.delay_rate <= 0.0 or plan.delay_s <= 0.0:
            return 0.0
        if float(self._rng.random()) >= plan.delay_rate:
            return 0.0
        self.stats.delays += 1
        return float(self._rng.uniform(0.0, plan.delay_s))

    # -- replica-level faults (consumed by the fleet) --------------------

    def record_replica_fault(self, fault: ReplicaFault) -> ReplicaFault:
        """Count a scheduled :class:`ReplicaFault` as it is applied.

        Replica faults are *scheduled*, not drawn — the fleet simulator
        applies them at their ``at_s`` — so the injector only keeps the
        books: the matching ``replica_*`` counter in :attr:`stats` bumps
        and the fault is returned for chaining.
        """
        counter = {REPLICA_CRASH: "replica_crashes",
                   REPLICA_HANG: "replica_hangs",
                   REPLICA_PARTITION: "replica_partitions",
                   REPLICA_SLOW: "replica_slowdowns"}[fault.kind]
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        return fault

    # -- server-side crashes --------------------------------------------

    def tick_fails(self, tick_index: int) -> bool:
        """Whether tick attempt ``tick_index`` crashes mid stacked pass."""
        if tick_index in self.plan.tick_failures_at:
            self.stats.tick_failures += 1
            return True
        return False


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Client-side exponential backoff with deterministic jitter.

    Attempt ``k`` (0-based) backs off
    ``min(base_delay_s * multiplier**k, max_delay_s)`` plus a uniform
    jitter of up to ``jitter`` times that delay — jitter decorrelates
    retry storms after a shared fault.  Every retry reuses the original
    request id, so the service deduplicates a retry whose first
    transmission actually made it into the queue.

    ``timeout_s`` arms loss detection: a submitted request with no
    response after that many (virtual) seconds is resubmitted — the only
    way a client can recover a frame dropped on the wire.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.01
    multiplier: float = 2.0
    max_delay_s: float = 1.0
    jitter: float = 0.1
    timeout_s: float | None = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1 (backoff must not "
                             "shrink)")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive when set")

    def delay_s(self, attempt: int, rng: np.random.Generator | None = None
                ) -> float:
        """Backoff before retry ``attempt`` (0-based), jitter included."""
        base = min(self.base_delay_s * self.multiplier ** max(0, attempt),
                   self.max_delay_s)
        if self.jitter > 0.0 and rng is not None:
            base += base * self.jitter * float(rng.random())
        return base

    def retryable(self, exc: BaseException) -> bool:
        """Whether a submit failure is worth retrying under this policy.

        Backpressure, rate limiting, corrupt frames and crashed ticks are
        transient; anything outside the :class:`ServingError` hierarchy
        (or a non-transient member of it) is not.
        """
        return isinstance(exc, (BackpressureError, RateLimitedError,
                                ProtocolError, TickFailedError))
