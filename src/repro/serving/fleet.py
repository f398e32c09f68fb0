"""The replicated service tier: sticky routing, health checks, failover.

Ensembler pins privacy-critical state — the private selector subset and
the per-session noise seed — to the client session, so a fleet cannot
spray requests across stateless replicas: every session must route
*stickily* to one replica, and must survive that replica dying.  This
module is the layer that makes N hardened
:class:`~repro.serving.service.InferenceService` replicas behave like
one service that loses machines and keeps serving:

* :class:`HashRing` — consistent hashing with :data:`VNODES` virtual
  nodes per replica, keyed on session id.  Removing a replica moves only
  ~1/N of sessions (its arc), everyone else stays put — the property
  that bounds failover blast radius and that the fleet chaos gate
  asserts (≤ ~1/N of live sessions migrated per replica loss).
* :class:`FailureDetector` — heartbeat staleness on the virtual clock
  with :class:`OverloadController`-style hysteresis::

      HEALTHY ──(stale > suspect_after)──► SUSPECT ──(stale > down_after)──► DOWN
         ▲                                   │                               │
         └──(2 consecutive beats)────────────┘                    (fenced; failover)

      DRAINING is entered administratively (:meth:`ServiceFleet.drain`):
      out of the ring, still ticking its backlog.

  A replica marked ``DOWN`` is **fenced**: it never ticks again, so a
  half-dead replica that wakes up later cannot double-serve a request
  that already failed over.
* :class:`ServiceFleet` — owns the replicas, the ring, the detector and
  a :class:`~repro.serving.checkpoint.CheckpointStore`.  It implements
  the session-facing service surface (``submit`` / ``advance_clock`` /
  ``now`` / ``run_until_idle``), so a
  :class:`~repro.serving.session.Session` binds to the *fleet* and
  routing is invisible to clients.  On failover the replacement replica
  adopts each migrated session from its last checkpoint
  (:meth:`~repro.serving.checkpoint.SessionState.apply` — epoch bump,
  conservative token level, request-id floor); requests in flight on the
  dead replica are recovered by the client-side
  :class:`~repro.serving.faults.RetryPolicy` timeout and deduplicated
  service-side, so nothing is ever served twice.

Fleet overload ladder
---------------------
Each replica keeps its own
:class:`~repro.serving.overload.OverloadController`, but the fleet caps
it at ``narrow-codec``: a single hot replica may shed best-effort
tenants and narrow its downlink codec on its own, yet the
privacy-relevant last resort — shrinking the served ensemble — unlocks
only when *fleet-wide* queue pressure crosses
:attr:`FleetPolicy.shrink_pressure`.  Degrading the ensemble is a fleet
decision, not a local reflex.
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
import math
import zlib

from repro.serving.checkpoint import CheckpointStore
from repro.serving.errors import (
    BackpressureError,
    RequestState,
    UnknownSessionError,
)
from repro.serving.faults import (
    REPLICA_CRASH,
    REPLICA_HANG,
    REPLICA_PARTITION,
    REPLICA_SLOW,
    FaultInjector,
    ReplicaFault,
)
from repro.serving.overload import LEVEL_NARROW_CODEC, LEVEL_SHRINK_ENSEMBLE
from repro.serving.protocol import Codec, UploadRequest
from repro.serving.service import (
    _DEFAULT_LIMIT,
    InferenceService,
    RateLimit,
    RateLimiter,
    ServiceStats,
    build_client,
)
from repro.serving.session import Session


#: virtual nodes each replica places on the hash ring
VNODES = 64
#: consecutive on-time heartbeats that heal a SUSPECT replica
RECOVER_HEARTBEATS = 2


class ReplicaHealth(enum.Enum):
    """Health states of one replica, as seen by the failure detector."""

    HEALTHY = "healthy"    # heartbeating on time; in the ring
    SUSPECT = "suspect"    # heartbeats stale; still in the ring (hysteresis)
    DOWN = "down"          # declared dead; fenced and failed over
    DRAINING = "draining"  # administratively out of the ring; ticking backlog


@dataclasses.dataclass(frozen=True)
class FleetPolicy:
    """Shape of the fleet's routing, detection and failover behaviour.

    The detector declares a replica ``SUSPECT`` after
    ``suspect_after_s`` of heartbeat silence and ``DOWN`` (fenced,
    failed over) after ``down_after_s``; a suspect recovers after
    :data:`RECOVER_HEARTBEATS` consecutive heartbeats arrive.  Sessions
    are checkpointed at most every ``checkpoint_interval_s`` virtual
    seconds.  ``shrink_pressure`` is the fleet-wide queue-pressure ratio
    above which replicas are allowed to escalate to the
    ensemble-shrinking overload level.
    """

    heartbeat_interval_s: float = 0.01
    suspect_after_s: float = 0.025
    down_after_s: float = 0.05
    checkpoint_interval_s: float = 0.02
    shrink_pressure: float = 0.75

    def __post_init__(self):
        if not self.heartbeat_interval_s > 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if not self.suspect_after_s > self.heartbeat_interval_s:
            raise ValueError("suspect_after_s must exceed the heartbeat "
                             "interval (else healthy replicas flap)")
        if not self.down_after_s > self.suspect_after_s:
            raise ValueError("down_after_s must exceed suspect_after_s "
                             "(SUSPECT is the hysteresis band)")
        if self.checkpoint_interval_s < 0:
            raise ValueError("checkpoint_interval_s must be >= 0")
        if not 0.0 < self.shrink_pressure <= 1.0:
            raise ValueError("shrink_pressure must be in (0, 1]")


@dataclasses.dataclass
class FleetStats:
    """Fleet-level counters (per-replica counters live in each replica).

    ``lost_submits`` counts router→replica sends that vanished because
    the owner was partitioned or fenced (the client sees them exactly
    like a frame dropped on the wire: recoverable only by retry
    timeout).  ``migrated_sessions`` counts session re-homings caused by
    ring changes; ``restored_sessions`` counts how many of those applied
    a checkpoint.
    """

    heartbeats: int = 0          # heartbeats the router received
    lost_submits: int = 0        # submits lost to partition / fenced owner
    failovers: int = 0           # replicas declared DOWN and failed over
    drains: int = 0              # replicas administratively drained
    spawns: int = 0              # replicas added after construction
    migrated_sessions: int = 0   # sessions re-homed by ring changes
    restored_sessions: int = 0   # migrations that applied a checkpoint

    def as_dict(self) -> dict:
        """The counters as a plain dict (for benchmark JSON records)."""
        return dataclasses.asdict(self)


class HashRing:
    """Consistent-hash ring with virtual nodes, keyed on session id.

    Hashing is ``zlib.crc32`` over stable strings, so placement is
    deterministic across processes (never a function of
    ``PYTHONHASHSEED``).  Each replica contributes :data:`VNODES` points;
    a session is owned by the first point clockwise of its own hash.
    Removing a replica deletes only that replica's points, so exactly
    the sessions on its arcs move — the ~1/N failover blast radius.
    """

    def __init__(self):
        self._points: list[tuple[int, int]] = []  # (hash, replica_id)
        self._replicas: set[int] = set()

    @staticmethod
    def _hash(key: str) -> int:
        return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF

    def __len__(self) -> int:
        return len(self._replicas)

    def __contains__(self, replica_id: int) -> bool:
        return replica_id in self._replicas

    @property
    def replica_ids(self) -> tuple[int, ...]:
        """Replicas currently on the ring, ascending."""
        return tuple(sorted(self._replicas))

    def add(self, replica_id: int) -> None:
        """Place a replica's virtual nodes on the ring."""
        if replica_id in self._replicas:
            return
        self._replicas.add(replica_id)
        for v in range(VNODES):
            point = (self._hash(f"replica-{replica_id}/vnode-{v}"),
                     replica_id)
            bisect.insort(self._points, point)

    def remove(self, replica_id: int) -> None:
        """Delete a replica's points; only its arcs change owners."""
        if replica_id not in self._replicas:
            return
        self._replicas.discard(replica_id)
        self._points = [p for p in self._points if p[1] != replica_id]

    def owner(self, session_id: int) -> int | None:
        """The replica owning ``session_id`` (``None`` on an empty ring)."""
        if not self._points:
            return None
        h = self._hash(f"session-{session_id}")
        index = bisect.bisect_left(self._points, (h, -1))
        if index == len(self._points):
            index = 0  # wrap past the top of the ring
        return self._points[index][1]


class FailureDetector:
    """Heartbeat-staleness health tracking with hysteresis.

    The router records each replica's heartbeats on the virtual clock;
    :meth:`observe` turns staleness into state transitions (see the
    module diagram).  Recovery requires :data:`RECOVER_HEARTBEATS`
    *consecutive* heartbeats — one lucky packet does not un-suspect a
    replica, mirroring the patience counters of
    :class:`~repro.serving.overload.OverloadController`.  ``DOWN`` is
    terminal: a fenced replica's heartbeats are ignored (no split-brain
    resurrection).
    """

    def __init__(self, policy: FleetPolicy):
        self.policy = policy
        self._health: dict[int, ReplicaHealth] = {}
        self._last_seen: dict[int, float] = {}
        self._streak: dict[int, int] = {}

    def register(self, replica_id: int, now: float) -> None:
        """Start tracking a replica as HEALTHY, heartbeat fresh at ``now``."""
        self._health[replica_id] = ReplicaHealth.HEALTHY
        self._last_seen[replica_id] = now
        self._streak[replica_id] = 0

    def health(self, replica_id: int) -> ReplicaHealth:
        """The replica's current health state."""
        return self._health[replica_id]

    def mark(self, replica_id: int, health: ReplicaHealth) -> None:
        """Administratively force a state (DRAINING, or DOWN for fencing)."""
        self._health[replica_id] = health
        self._streak[replica_id] = 0

    def heartbeat(self, replica_id: int, now: float) -> None:
        """Record one heartbeat; a SUSPECT replica heals on a streak."""
        health = self._health[replica_id]
        if health is ReplicaHealth.DOWN:
            return  # fenced: late heartbeats cannot resurrect it
        self._last_seen[replica_id] = max(self._last_seen[replica_id], now)
        if health is ReplicaHealth.SUSPECT:
            self._streak[replica_id] += 1
            if self._streak[replica_id] >= RECOVER_HEARTBEATS:
                self._health[replica_id] = ReplicaHealth.HEALTHY
                self._streak[replica_id] = 0

    def observe(self, now: float) -> list[tuple[int, ReplicaHealth]]:
        """Advance staleness at ``now``; returns ``(replica, new_state)``
        transitions in replica order (empty when nothing changed)."""
        transitions = []
        for replica_id in sorted(self._health):
            health = self._health[replica_id]
            if health is ReplicaHealth.DOWN:
                continue
            stale = now - self._last_seen[replica_id]
            if stale >= self.policy.down_after_s:
                self._health[replica_id] = ReplicaHealth.DOWN
                transitions.append((replica_id, ReplicaHealth.DOWN))
            elif (stale >= self.policy.suspect_after_s
                  and health is ReplicaHealth.HEALTHY):
                self._health[replica_id] = ReplicaHealth.SUSPECT
                self._streak[replica_id] = 0
                transitions.append((replica_id, ReplicaHealth.SUSPECT))
        return transitions


class ReplicaHandle:
    """One replica as the router sees it: service + fault windows.

    The handle carries the *router-side* view of replica faults — a
    crashed flag, hang/partition/slow windows on the virtual clock and
    the fencing bit — so both the fleet and the fleet simulator ask the
    same object one question: can this replica tick (or be reached) at
    time ``t``?
    """

    def __init__(self, replica_id: int, service: InferenceService):
        self.replica_id = replica_id
        self.service = service
        self.crashed = False
        self.fenced = False          # DOWN: never ticks again
        self.hung_until = 0.0        # tick loop frozen before this time
        self.partitioned_until = 0.0  # router link severed before this time
        self.slow_until = 0.0        # ticks cost slow_factor x before this
        self.slow_factor = 1.0
        self.next_heartbeat = 0.0    # next scheduled emission time

    def alive(self, now: float) -> bool:
        """Not crashed and not fenced (may still be hung/partitioned)."""
        return not self.crashed and not self.fenced

    def hung(self, now: float) -> bool:
        """Whether the tick loop is frozen at ``now``."""
        return now < self.hung_until

    def partitioned(self, now: float) -> bool:
        """Whether the router↔replica link is severed at ``now``."""
        return now < self.partitioned_until

    def reachable(self, now: float) -> bool:
        """Whether the router can deliver a submit at ``now``."""
        return self.alive(now) and not self.partitioned(now)

    def tickable(self, now: float) -> bool:
        """Whether the replica may run a tick at ``now``.

        A partitioned replica holds its backlog instead of ticking —
        its responses could not reach any client anyway — which is what
        keeps exactly-once accounting simple: work either completes on
        a reachable replica or waits for retry-driven failover.
        """
        return (self.alive(now) and not self.hung(now)
                and not self.partitioned(now))

    def cost_factor(self, now: float) -> float:
        """Tick-cost multiplier at ``now`` (>1 inside a slow window)."""
        return self.slow_factor if now < self.slow_until else 1.0

    def heartbeats_at(self, at: float) -> bool:
        """Whether a heartbeat emitted at ``at`` reaches the router."""
        return (self.alive(at) and not self.hung(at)
                and not self.partitioned(at))


def _spent_epsilon(session: Session) -> float:
    """A session's spent privacy ε (0.0 for a session with no budget)."""
    return session.privacy.spent if session.privacy is not None else 0.0


class ServiceFleet:
    """N replicas behind one session-facing service surface.

    Sessions bind to the fleet exactly as they would to a single
    :class:`~repro.serving.service.InferenceService` — the fleet
    implements ``submit`` / ``advance_clock`` / ``now`` /
    ``run_until_idle`` / ``close_session`` — and the
    :class:`HashRing` pins each session to one replica.  The fleet
    drives heartbeats, failure detection, checkpointing and failover
    from :meth:`pump`, which runs on every clock advance and tick, all
    on the virtual clock (deterministic, replayable).

    ``faults`` (shared with the replicas and the simulator) books
    replica-level fault applications; ``checkpoints`` defaults to a
    fresh in-memory :class:`~repro.serving.checkpoint.CheckpointStore`
    with the policy's snapshot interval.
    """

    def __init__(self, replicas, policy: FleetPolicy | None = None,
                 faults: FaultInjector | None = None,
                 checkpoints: CheckpointStore | None = None):
        replicas = list(replicas)
        if not replicas:
            raise ValueError("a fleet needs at least one replica")
        self.policy = policy if policy is not None else FleetPolicy()
        self.faults = faults
        self.checkpoints = (checkpoints if checkpoints is not None
                            else CheckpointStore(
                                self.policy.checkpoint_interval_s))
        self.ring = HashRing()
        self.detector = FailureDetector(self.policy)
        self.fleet_stats = FleetStats()
        self.now = 0.0
        #: health transitions as ``(time, replica_id, state name)``, in
        #: order — the per-replica health timeline demos print.
        self.health_log: list[tuple[float, int, str]] = []
        #: every migration's privacy ledger entry, ``(session_id,
        #: spent_eps_before, spent_eps_after)`` — the fleet_scale gate
        #: asserts ``after >= before`` for every row (ε is ratcheted,
        #: never minted, across spawn/drain/failover migrations).
        self.migration_epsilon_log: list[tuple[int, float, float]] = []
        self._handles: dict[int, ReplicaHandle] = {}
        self._sessions: dict[int, Session] = {}
        self._homes: dict[int, int] = {}  # session id -> replica id
        self._next_session_id = 1
        self._next_ckpt_sweep = 0.0  # next due time of the snapshot sweep
        for replica_id, service in enumerate(replicas):
            if not isinstance(service, InferenceService):
                raise TypeError("replicas must be InferenceService instances")
            self._handles[replica_id] = ReplicaHandle(replica_id, service)
            self.ring.add(replica_id)
            self.detector.register(replica_id, 0.0)
            self.health_log.append((0.0, replica_id,
                                    ReplicaHealth.HEALTHY.value))

    # -- introspection ---------------------------------------------------

    @property
    def num_replicas(self) -> int:
        """How many replicas the fleet has ever owned (any health)."""
        return len(self._handles)

    @property
    def replica_ids(self) -> tuple[int, ...]:
        """Every replica id the fleet has ever owned, ascending."""
        return tuple(sorted(self._handles))

    @property
    def replicas(self) -> tuple[InferenceService, ...]:
        """The replica services, by replica id."""
        return tuple(h.service for _, h in sorted(self._handles.items()))

    def handle(self, replica_id: int) -> ReplicaHandle:
        """The router-side handle for one replica."""
        return self._handles[replica_id]

    @property
    def num_nets(self) -> int:
        """Ensemble size served by every replica."""
        return self.replicas[0].num_nets

    @property
    def sessions(self) -> tuple[Session, ...]:
        """Every open session, by session id."""
        return tuple(s for _, s in sorted(self._sessions.items()))

    def home_of(self, session_id: int) -> int:
        """The replica a session is currently homed on."""
        return self._homes[session_id]

    def health(self, replica_id: int) -> ReplicaHealth:
        """One replica's current health state."""
        return self.detector.health(replica_id)

    @property
    def pending(self) -> int:
        """Queued requests on replicas that can currently tick.

        Work held by hung, partitioned or fenced replicas is excluded —
        it cannot drain until the window clears (or a retry re-routes
        it), so counting it would deadlock ``run_until_idle``.
        """
        return sum(h.service.pending for h in self._handles.values()
                   if h.tickable(self.now))

    @property
    def stats(self) -> ServiceStats:
        """Fleet-wide service counters: every replica's stats, merged."""
        return sum((h.service.stats for h in self._handles.values()),
                   ServiceStats())

    @property
    def pressure(self) -> float:
        """Fleet-wide queue occupancy in [0, 1] over alive replicas.

        The congestion signal the overload cap already keys on, exposed
        for the autoscaler and admission controller (queued work divided
        by total queue capacity; fenced/crashed replicas excluded).
        """
        active = [h for h in self._handles.values() if h.alive(self.now)]
        capacity = sum(h.service.config.max_queue for h in active)
        queued = sum(h.service.pending for h in active)
        return queued / capacity if capacity else 0.0

    # -- sessions --------------------------------------------------------

    def open_session(self, head, tail, *, selector=None, noise=None,
                     noise_seed: int | None = None,
                     noise_shape: tuple[int, ...] | None = None,
                     noise_sigma: float = 0.1,
                     codec: Codec | int | str | None = None,
                     weight: float = 1.0,
                     rate_limit: "RateLimit | tuple | float | None" = _DEFAULT_LIMIT,
                     privacy=None,
                     rotation=None,
                     ) -> Session:
        """Open a tenant session against the fleet (see
        :meth:`InferenceService.open_session` for the knobs, including
        the ``privacy`` budget and ``rotation`` policy specs).

        The session binds to the fleet — its service handle *is* the
        fleet — and is homed on its ring owner; session ids are
        allocated fleet-wide, so a session keeps its id (and its privacy
        budget: one shared :class:`Session` object, charged by whichever
        replica serves it) when it migrates between replicas.
        """
        client = build_client(head, tail, selector=selector, noise=noise,
                              noise_seed=noise_seed, noise_shape=noise_shape,
                              noise_sigma=noise_sigma)
        session = self.adopt_session(client, codec=codec, weight=weight,
                                     rate_limit=rate_limit,
                                     privacy=privacy, rotation=rotation)
        if noise is None and noise_seed is not None:
            session.noise_seed = int(noise_seed)
            session.noise_shape = tuple(int(d) for d in noise_shape)
            session.noise_sigma = float(noise_sigma)
        return session

    def adopt_session(self, client, codec: Codec | int | str | None = None,
                      weight: float = 1.0,
                      rate_limit: "RateLimit | tuple | float | None" = _DEFAULT_LIMIT,
                      privacy=None,
                      rotation=None,
                      ) -> Session:
        """Adopt an already-built client bundle as a fleet tenant.

        Codec and rate-limit defaults come from the ring owner's
        replica config, so a homogeneous fleet behaves exactly like one
        of its replicas.
        """
        owner = self.ring.owner(self._next_session_id)
        if owner is None:
            raise BackpressureError("no live replicas on the ring")
        config = self._handles[owner].service.config
        codec = Codec.parse(config.codec if codec is None else codec)
        limit = RateLimit.parse(config.rate_limit
                                if rate_limit is _DEFAULT_LIMIT else rate_limit)
        limiter = RateLimiter(limit, now=self.now) if limit is not None else None
        session = Session(self._next_session_id, client, self,
                          codec=codec, weight=weight, limiter=limiter,
                          privacy=privacy, rotation=rotation)
        self._handles[owner].service.register_session(session)
        self._sessions[session.session_id] = session
        self._homes[session.session_id] = owner
        self._next_session_id += 1
        return session

    def close_session(self, session: Session) -> None:
        """Close a tenant fleet-wide: cancel queued work on its home
        replica and drop its checkpoint."""
        home = self._homes.pop(session.session_id, None)
        self._sessions.pop(session.session_id, None)
        if home is not None:
            self._handles[home].service.close_session(session)
        self.checkpoints.drop(session.session_id)

    # -- clock / pump ----------------------------------------------------

    def advance_clock(self, now: float) -> None:
        """Advance the fleet clock (monotonic) and pump the control loop.

        Every replica's virtual clock follows the fleet's, so limiter
        refills and arrival stamps agree regardless of which replica a
        session lands on.
        """
        self.now = max(self.now, float(now))
        for handle in self._handles.values():
            handle.service.advance_clock(self.now)
        self.pump(self.now)

    def next_heartbeat_time(self) -> float:
        """When the next scheduled heartbeat is due (``inf`` if none).

        Event-driven callers (the fleet simulator) advance the clock to
        this time when it precedes every other event, so failure
        detection never waits for unrelated traffic.
        """
        times = [h.next_heartbeat for h in self._handles.values()
                 if not h.crashed and not h.fenced]
        return min(times) if times else math.inf

    def pump(self, now: float) -> None:
        """Run one control-loop pass at ``now``.

        Emits due heartbeats (those a crashed/hung/partitioned replica
        would have missed are simply not received), advances the failure
        detector — fencing and failing over any replica that crosses
        ``down_after_s`` — refreshes the fleet overload cap, and
        snapshots sessions whose checkpoint interval has elapsed.
        """
        interval = self.policy.heartbeat_interval_s
        for handle in self._handles.values():
            while handle.next_heartbeat <= now:
                at = handle.next_heartbeat
                handle.next_heartbeat += interval
                if handle.heartbeats_at(at):
                    self.detector.heartbeat(handle.replica_id, at)
                    self.fleet_stats.heartbeats += 1
        for replica_id, health in self.detector.observe(now):
            self.health_log.append((now, replica_id, health.value))
            if health is ReplicaHealth.DOWN:
                self._failover(replica_id, now)
        self._update_overload_cap(now)
        # The snapshot sweep is O(sessions); at fleet scale (10^4+
        # sessions, one pump per event) running it every pump dominates
        # the simulator.  Sweep only when the checkpoint interval has
        # elapsed — maybe_snapshot would decline any sooner anyway
        # (interval 0 keeps the legacy every-pump behaviour).
        if now >= self._next_ckpt_sweep:
            for session in self._sessions.values():
                self.checkpoints.maybe_snapshot(session, now)
            self._next_ckpt_sweep = now + self.checkpoints.interval_s

    def _update_overload_cap(self, now: float) -> None:
        """Gate each replica's ladder depth on fleet-wide pressure."""
        allow = (LEVEL_SHRINK_ENSEMBLE
                 if self.pressure >= self.policy.shrink_pressure
                 else LEVEL_NARROW_CODEC)
        for handle in self._handles.values():
            if handle.alive(now) and handle.service.overload is not None:
                handle.service.overload.max_level = allow

    # -- faults / failover ----------------------------------------------

    def apply_fault(self, fault: ReplicaFault) -> None:
        """Apply one replica-level fault to the router-side handle.

        Crash and hang stop heartbeats (the emitter is the tick loop);
        partition stops them *arriving*; slow leaves them on time — the
        gray failure the detector must ride out.  Detection itself is
        left to :meth:`pump`: the fleet learns about the fault only
        through heartbeat silence, ``down_after_s`` later.
        """
        handle = self._handles[fault.replica]
        if fault.kind == REPLICA_CRASH:
            handle.crashed = True
        elif fault.kind == REPLICA_HANG:
            handle.hung_until = max(handle.hung_until, fault.until_s)
        elif fault.kind == REPLICA_PARTITION:
            handle.partitioned_until = max(handle.partitioned_until,
                                           fault.until_s)
        elif fault.kind == REPLICA_SLOW:
            handle.slow_until = max(handle.slow_until, fault.until_s)
            handle.slow_factor = fault.factor
        if self.faults is not None:
            self.faults.record_replica_fault(fault)

    def kill_replica(self, replica_id: int) -> None:
        """Crash a replica right now (mid-trace kill convenience)."""
        self.apply_fault(ReplicaFault(replica=replica_id, at_s=self.now,
                                      kind=REPLICA_CRASH))

    def spawn_replica(self, service: InferenceService) -> int:
        """Add a replica to a running fleet; returns its replica id.

        The new replica joins the ring, starts heartbeating from the
        current clock and — the half consistent hashing handles for us —
        *takes over* exactly the sessions whose ring owner it now is
        (~1/N of them, its arcs).  Those sessions migrate gracefully,
        exactly like a drain in reverse: the live :class:`Session`
        object moves (shared fleet-wide, so selector rotation state and
        the Rényi accountant carry without replay — no epoch bump, no
        checkpoint restore) and is snapshotted right after the move so
        the new home fails over from a fresh checkpoint.  Scale-up is
        therefore useless-work-free: the spawned replica serves existing
        load immediately instead of waiting for new sessions.
        """
        if not isinstance(service, InferenceService):
            raise TypeError("replicas must be InferenceService instances")
        replica_id = max(self._handles) + 1
        handle = ReplicaHandle(replica_id, service)
        handle.next_heartbeat = self.now  # no back-dated heartbeat burst
        service.advance_clock(self.now)
        self._handles[replica_id] = handle
        self.ring.add(replica_id)
        self.detector.register(replica_id, self.now)
        self.health_log.append((self.now, replica_id,
                                ReplicaHealth.HEALTHY.value))
        self.fleet_stats.spawns += 1
        self._rebalance_to(replica_id)
        return replica_id

    def _rebalance_to(self, replica_id: int) -> int:
        """Gracefully move the sessions a new replica's arcs now own.

        The inverse of a drain migration: live state moves (ε ledger
        entry recorded either side of the move), the session registers
        on the new home, and a checkpoint is snapshotted immediately so
        failover from the new home never rolls back past the move.
        """
        moved = 0
        for session_id, home in sorted(self._homes.items()):
            if home == replica_id:
                continue
            owner = self.ring.owner(session_id)
            if owner != replica_id:
                continue
            session = self._sessions[session_id]
            self._rehome(session, replica_id, _spent_epsilon(session))
            self.checkpoints.snapshot(session)
            moved += 1
        return moved

    def drain(self, replica_id: int) -> int:
        """Administratively drain a replica: out of the ring, still
        ticking its backlog.  Its sessions re-home immediately (graceful
        migration — live state moves, no checkpoint restore, no epoch
        bump); returns how many sessions moved."""
        handle = self._handles[replica_id]
        self.detector.mark(replica_id, ReplicaHealth.DRAINING)
        self.health_log.append((self.now, replica_id,
                                ReplicaHealth.DRAINING.value))
        self.ring.remove(replica_id)
        self.fleet_stats.drains += 1
        return self._migrate_sessions(replica_id, restore=False)

    def _failover(self, replica_id: int, now: float) -> None:
        """Fence a DOWN replica and re-home its sessions by checkpoint."""
        handle = self._handles[replica_id]
        handle.fenced = True
        self.ring.remove(replica_id)
        self.fleet_stats.failovers += 1
        self._migrate_sessions(replica_id, restore=True)

    def _migrate_sessions(self, replica_id: int, restore: bool) -> int:
        """Re-home every session of ``replica_id`` to its new ring owner.

        With ``restore=True`` (failover) each session first re-adopts
        its last checkpoint (epoch bump, conservative limiter level,
        request-id floor); the live client-side request states survive
        either way, so nothing already terminal is touched.
        """
        moved = 0
        for session_id, home in sorted(self._homes.items()):
            if home != replica_id:
                continue
            session = self._sessions[session_id]
            spent_before = _spent_epsilon(session)
            if restore and session_id in self.checkpoints:
                self.checkpoints.load(session_id).apply(session)
                self.fleet_stats.restored_sessions += 1
            owner = self.ring.owner(session_id)
            if owner is None:
                # No replicas left: the session strands homeless and its
                # submits raise BackpressureError until a replica joins.
                self._homes.pop(session_id, None)
                continue
            self._rehome(session, owner, spent_before)
            moved += 1
        return moved

    def _rehome(self, session: Session, replica_id: int,
                spent_before: float) -> None:
        """Home one live session on ``replica_id``; log its ε either side."""
        target = self._handles[replica_id].service
        if session.session_id not in target._sessions:
            target.register_session(session)
        self._homes[session.session_id] = replica_id
        self.migration_epsilon_log.append(
            (session.session_id, spent_before, _spent_epsilon(session)))
        self.fleet_stats.migrated_sessions += 1

    # -- request path ----------------------------------------------------

    def submit(self, request: UploadRequest) -> int:
        """Route one upload to its session's home replica.

        An unreachable owner (partitioned, or fenced before the ring
        caught up) behaves exactly like a frame dropped on the wire: the
        submit "succeeds" client-side, nothing is queued, and only the
        client's retry timeout can recover it (counted in
        ``fleet_stats.lost_submits``).  An empty ring raises
        :class:`~repro.serving.errors.BackpressureError` — there is
        nowhere left to shed to.
        """
        session = self._sessions.get(request.session_id)
        if session is None:
            raise UnknownSessionError(
                f"unknown session id {request.session_id}")
        owner = self._homes.get(request.session_id)
        if owner is None:
            session._resolve(request.request_id, RequestState.REJECTED)
            raise BackpressureError("no live replicas on the ring")
        handle = self._handles[owner]
        if not handle.reachable(self.now):
            self.fleet_stats.lost_submits += 1
            session._resolve(request.request_id, RequestState.QUEUED)
            return request.request_id
        return handle.service.submit(request)

    def tick(self) -> list:
        """Pump the control loop, then tick every tickable replica once.

        Returns the concatenated responses (a hung or partitioned
        replica contributes nothing — its backlog waits).
        """
        self.pump(self.now)
        responses = []
        for _, handle in sorted(self._handles.items()):
            if handle.tickable(self.now) and handle.service.pending:
                responses.extend(handle.service.tick())
        return responses

    def run_until_idle(self, max_ticks: int = 100_000) -> int:
        """Tick until no tickable replica holds work; returns tick rounds."""
        ticks = 0
        while self.pending:
            if ticks >= max_ticks:
                raise RuntimeError(f"fleet did not drain in {max_ticks} "
                                   f"tick rounds")
            self.tick()
            ticks += 1
        return ticks
