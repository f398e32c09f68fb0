"""Event-driven simulation front-end for the multi-tenant serving layer.

``run_until_idle`` answers "what does this request stream *compute*";
this module answers "what does it *feel like*": a virtual-clock event
loop replays an arrival-time trace through a real
:class:`~repro.serving.service.InferenceService` (real scheduler, real
stacked passes, real byte accounting) while charging virtual time from a
cost model, and reports p50/p95/p99 latency plus SLO violations.

Tick triggering is **deadline-aware** rather than drain-the-queue: the
next tick fires at ``max(server_free_at, scheduler.next_event_time(t))``,
so a :class:`~repro.serving.scheduler.DeadlineScheduler` can hold the
server idle for a few (virtual) milliseconds to let a burst coalesce into
one wide pass, while a FIFO scheduler (whose ``next_event_time`` is
"now") serves eagerly whenever the server is free — exactly the policy
difference the Table-III latency story turns on.

Costs come from a :class:`TickCost` — either explicit constants or
derived from the calibrated :class:`~repro.latency.model.LatencyModel`
via :meth:`TickCost.from_latency_model`, including the codec-narrowed
downlink bytes of fp16 sessions.

Fault-tolerant replay
---------------------
The loop is a real event queue (heap), not just a sorted arrival scan,
because fault tolerance adds *client-side* events between arrivals:

* a :class:`~repro.serving.faults.FaultInjector` (the service's own, or
  one passed explicitly) delays submissions — a time effect the service
  never observes;
* a :class:`~repro.serving.faults.RetryPolicy` schedules backoff
  resubmissions after transient :class:`~repro.serving.errors.ServingError`
  failures, and — when ``timeout_s`` is set — resubmits requests whose
  frames were silently dropped on the wire (same request id, so a retry
  of a request that actually survived is deduplicated service-side);
* an :class:`Arrival` with ``close_session=True`` closes its session
  mid-trace, cancelling that tenant's queued work;
* a tick that crashes (injected or real) still occupies the server for
  the attempted pass cost, and its group rides the service's re-queue /
  terminal-``FAILED`` recovery.

Every replay ends with a **conservation sweep**: each submission the
trace produced must sit in exactly one typed terminal
:class:`~repro.serving.errors.RequestState`
(``SimulationReport.conservation_ok``), with in-flight work that the
client abandoned (lost frames past their retry budget) resolved as
``FAILED`` — never silently dropped.

One event loop
--------------
:func:`simulate` and :func:`simulate_fleet` are thin front-ends over
one private core.  The fleet loop is the general case: a bare service
replays as a single always-healthy
:class:`~repro.serving.fleet.ReplicaHandle` with no heartbeats, replica
faults, autoscaler or admission.  Two edge rules are therefore shared.
A replica whose scheduler declines to form a group while work is
queued is parked (never ticked again this replay; the sweep resolves
what it holds).  A response for a request that already reached its
client is a duplicate serve: consumed, never re-measured, and it fails
``conservation_ok`` (a single service dedups retries, so it has none).
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math

import numpy as np

from repro.serving.errors import (
    TERMINAL_STATES,
    RequestState,
    ServingError,
)
from repro.serving.faults import FaultInjector, RetryPolicy
from repro.serving.fleet import ReplicaHandle
from repro.serving.service import InferenceService
from repro.serving.session import Session
from repro.telemetry import QuantileSketch

#: Per-session latency sketches are deliberately small: a tenant's own
#: p50/p95 needs far less resolution than the aggregate distribution,
#: and at 10^5+ sessions the per-session footprint is the bill.
_SESSION_SKETCH_CAPACITY = 64


@dataclasses.dataclass(frozen=True)
class Arrival:
    """One trace event: a session submits a request at a virtual time.

    ``deadline_s`` is the request's SLO *budget* relative to its arrival
    (absolute deadline = ``time + deadline_s``); ``None`` means no SLO.
    ``features`` overrides the simulation-wide default payload.  An
    arrival with ``close_session=True`` submits nothing: it closes the
    indexed session at that time, cancelling its queued requests — the
    mid-burst disconnect case.
    """

    time: float
    session_index: int
    deadline_s: float | None = None
    features: np.ndarray | None = None
    record: bool = False
    close_session: bool = False


@dataclasses.dataclass(frozen=True)
class TickCost:
    """Virtual seconds one coalesced tick occupies the server.

    ``pass_overhead_s`` is paid once per stacked pass (kernel dispatch,
    the Amdahl serial term); ``per_sample_s`` scales with the samples in
    the group; ``per_request_downlink_s`` is added per response after the
    pass completes (each session still receives its own N feature maps).
    A *crashed* pass charges the same formula for the samples it
    attempted — failure does not refund server time.
    """

    pass_overhead_s: float = 0.0
    per_sample_s: float = 0.0
    per_request_downlink_s: float = 0.0

    def pass_seconds(self, num_samples: int) -> float:
        """Virtual seconds one stacked pass over ``num_samples`` costs."""
        return self.pass_overhead_s + num_samples * self.per_sample_s

    @classmethod
    def from_latency_model(cls, model, workload, num_nets: int,
                           codec="fp32") -> "TickCost":
        """Derive per-tick costs from the calibrated Table-III model.

        The per-sample server time comes from the workload's body FLOPs;
        the per-pass overhead is the fused engine's Amdahl serial term
        (paid once per pass, which is what coalescing amortises); the
        per-request downlink charges the N codec-narrowed feature maps.
        """
        per_sample = model.server.seconds(
            workload.server_body_flops / workload.batch_size)
        overhead = per_sample * model.serial_fraction * (num_nets - 1)
        downlink = model.network.downlink_seconds(
            model.codec_downlink_bytes(workload.download_bytes_per_net, codec)
            * num_nets, messages=num_nets)
        return cls(pass_overhead_s=overhead, per_sample_s=per_sample,
                   per_request_downlink_s=downlink)


@dataclasses.dataclass
class SimulationReport:
    """What an arrival trace experienced end to end.

    Besides the aggregate latency distribution, ``latencies_by_session``
    keeps each tenant's own latencies, so proportional-share policies
    (weighted fair scheduling, per-tenant rate limits) are measurable at
    per-tenant p50/p95 via :meth:`session_percentile`.

    At fleet scale the exact per-request lists are the memory bill, so
    the trace decides whether they are kept: a list/tuple trace keeps
    them, a streamed (generator) trace is sketch-only.  Every replay
    always feeds ``latency_sketch`` (aggregate) and
    ``sketch_by_session`` (small per-tenant
    :class:`~repro.telemetry.QuantileSketch` summaries, O(sessions · k)
    total), and :meth:`percentile` / :meth:`session_percentile` fall
    back to the sketches when the exact lists were not retained.
    ``served_total`` counts served responses independently of the lists
    for the same reason.

    The resilience fields close the loop on fault tolerance:
    ``submitted`` counts the unique requests the trace produced,
    ``terminal_counts`` maps each terminal
    :class:`~repro.serving.errors.RequestState` name to how many requests
    ended there, and ``conservation_ok`` asserts the invariant the chaos
    gate enforces — every submitted request in exactly one terminal
    state.  ``rejected`` / ``throttled`` are *final-state* counts: with a
    retry policy a request rejected once but retried to completion
    counts as completed, not rejected (without retries this coincides
    with the historical per-attempt meaning).
    """

    scheduler: str
    latencies_s: list[float]
    violations: int  # served, but past their deadline
    rejected: int    # finally REJECTED (shed by backpressure / overload)
    ticks: int
    makespan_s: float
    throttled: int = 0  # finally THROTTLED (shed by per-tenant rate limits)
    latencies_by_session: dict[int, list[float]] = dataclasses.field(
        default_factory=dict)
    submitted: int = 0  # unique requests the trace produced
    terminal_counts: dict[str, int] = dataclasses.field(default_factory=dict)
    conservation_ok: bool = True  # every submission in exactly one terminal
    tick_failures: int = 0  # crashed stacked passes during this replay
    retries: int = 0        # resubmission attempts beyond each first try
    degraded: int = 0       # responses served narrowed / ensemble-shrunk
    privacy_refusals: int = 0  # submits/serves refused past budget exhaustion
    exhausted_sessions: int = 0  # sessions that spent their privacy budget
    rotations: int = 0      # switching-ensemble selector re-draws
    served_total: int = 0   # served responses (independent of exact lists)
    latency_sum_s: float = 0.0  # sum of served latencies (mean at any scale)
    latency_sketch: QuantileSketch | None = None  # aggregate, always fed
    sketch_by_session: dict[int, QuantileSketch] = dataclasses.field(
        default_factory=dict)

    @property
    def served(self) -> int:
        """How many submissions were actually served (not shed)."""
        return self.served_total if self.served_total else len(self.latencies_s)

    @property
    def mean_latency_s(self) -> float:
        """Mean served latency in seconds (0.0 when nothing served)."""
        return self.latency_sum_s / self.served if self.served else 0.0

    @property
    def goodput_rps(self) -> float:
        """Completed requests per virtual second of makespan.

        *Goodput*, not throughput: only requests that reached their
        client count, so shed, cancelled and failed work —
        however much server time it burned — contributes nothing.
        """
        return self.served / self.makespan_s if self.makespan_s > 0 else 0.0

    def percentile(self, q: float) -> float:
        """The q-th percentile of the aggregate latency distribution.

        Exact (``np.percentile``) when the per-request list was
        retained; otherwise answered from ``latency_sketch`` (≤ 1% of
        rank error); 0.0 when nothing was served.
        """
        if self.latencies_s:
            return float(np.percentile(np.asarray(self.latencies_s), q))
        if self.latency_sketch is not None and len(self.latency_sketch):
            return self.latency_sketch.percentile(q)
        return 0.0

    def session_percentile(self, session_id: int, q: float) -> float:
        """One tenant's q-th latency percentile (0.0 if it served nothing).

        Exact when per-session lists were retained, else answered from
        the tenant's sketch.

        Args:
            session_id: the tenant's session id (``Session.session_id``).
            q: percentile in [0, 100], e.g. 50 or 95.
        """
        latencies = self.latencies_by_session.get(session_id)
        if latencies:
            return float(np.percentile(np.asarray(latencies), q))
        sketch = self.sketch_by_session.get(session_id)
        if sketch is not None and len(sketch):
            return sketch.percentile(q)
        return 0.0

    @property
    def p50_s(self) -> float:
        """Aggregate median latency in seconds."""
        return self.percentile(50)

    @property
    def p95_s(self) -> float:
        """Aggregate 95th-percentile latency in seconds."""
        return self.percentile(95)

    @property
    def p99_s(self) -> float:
        """Aggregate 99th-percentile latency in seconds."""
        return self.percentile(99)

    @property
    def violation_rate(self) -> float:
        """Fraction of admitted-or-rejected arrivals that missed an SLO
        or were shed (throttled arrivals count as shed: the tenant's own
        policy, but still traffic the fleet did not serve in time)."""
        total = self.served + self.rejected + self.throttled
        return ((self.violations + self.rejected + self.throttled) / total
                if total else 0.0)

    def summary(self) -> str:
        """One-line human-readable digest of the replay."""
        return (f"{self.scheduler}: {self.served} served in {self.ticks} ticks "
                f"over {self.makespan_s * 1e3:.1f} ms — p50 {self.p50_s * 1e3:.1f} / "
                f"p95 {self.p95_s * 1e3:.1f} / p99 {self.p99_s * 1e3:.1f} ms, "
                f"{self.violations} SLO violations, {self.rejected} rejected, "
                f"{self.throttled} throttled")


@dataclasses.dataclass
class _Pending:
    """Client-side bookkeeping for one traced submission's lifecycle."""

    session: Session
    request_id: int
    features: np.ndarray
    record: bool
    deadline: float | None
    arrived: float       # the intended submission time (latency epoch)
    attempts: int = 0    # submit attempts consumed (first try included)
    done: bool = False   # a response reached the client


#: Event kinds, tie-break order.  _SCALE is the autoscaler's periodic
#: control-loop check in :func:`simulate_fleet`.
_ARRIVAL, _SUBMIT, _TIMEOUT, _FAULT, _SCALE = 0, 1, 2, 3, 4


def _prepare_trace(trace):
    """Resolve a trace into a lazy arrival iterator plus the retain flag.

    List/tuple traces are sorted eagerly (back-compat: arbitrary order
    allowed) and keep exact latency lists; any other iterable streams
    lazily — arrivals must then already be time-monotonic — and is
    sketch-only, since a streaming trace is exactly the fleet-scale case
    the exact lists would sink.
    """
    if isinstance(trace, (list, tuple)):
        return iter(sorted(trace, key=lambda a: a.time)), True
    return iter(trace), False


def _replay(owner, handles, sessions, trace, cost: TickCost,
            default_features, retry: RetryPolicy | None,
            faults: FaultInjector | None,
            next_heartbeat=lambda: math.inf, replica_faults=(),
            autoscaler=None, admission=None) -> tuple[dict, dict]:
    """The one event loop behind :func:`simulate` and :func:`simulate_fleet`.

    ``owner`` (a service or a fleet) owns the clock, the sessions and
    the stats; ``handles`` is a live view of its replica handles in
    ascending id order.  ``next_heartbeat``, ``replica_faults``,
    ``autoscaler`` and ``admission`` are the fleet's extra event
    sources.  Returns the :class:`SimulationReport` fields and the
    fleet-only :class:`FleetSimulationReport` fields the loop measured.
    """
    start = dataclasses.replace(owner.stats)  # a service's stats are live
    session_by_id = {s.session_id: s for s in sessions}
    arrivals, retain = _prepare_trace(trace)
    latencies: list[float] = []
    completions: list[float] = []
    by_session: dict[int, list[float]] = {}
    sketch = QuantileSketch()
    by_sketch: dict[int, QuantileSketch] = {}
    served_total, latency_sum = 0, 0.0
    tracked: list[_Pending] = []
    by_key: dict[tuple[int, int], _Pending] = {}
    ticks_by_replica: dict[int, int] = {}
    admission_decisions: dict[int, str] = {}  # session id -> outcome
    arrivals_rejected = 0
    scale_log: list[tuple[float, str, int, float]] = []
    violations = ticks = retry_attempts = duplicates = 0
    base = owner.now  # rebase the trace's epoch; advance_clock never rewinds
    # Replicas spawned mid-replay are absent: next_tick defaults them to base.
    free_at = {handle.replica_id: base for handle in handles}
    makespan = clock = base

    seq = itertools.count()
    heap: list[tuple[float, int, int, object]] = []
    next_arrival = next(arrivals, None)

    def pull_arrival() -> Arrival:
        """Consume the head arrival, enforcing stream monotonicity."""
        nonlocal next_arrival
        arrival = next_arrival
        next_arrival = next(arrivals, None)
        if next_arrival is not None and next_arrival.time < arrival.time:
            raise ValueError(
                "streaming traces must yield non-decreasing arrival times "
                f"(got {next_arrival.time} after {arrival.time}); "
                "materialise as a list to have the simulator sort")
        return arrival

    def push(at: float, kind: int, payload) -> None:
        heapq.heappush(heap, (at, next(seq), kind, payload))

    for fault in replica_faults:
        push(base + fault.at_s, _FAULT, fault)
    if autoscaler is not None:
        push(base + autoscaler.interval_s, _SCALE, None)

    def attempt(pend: _Pending) -> None:
        """One real submission attempt; schedules its own retry on failure."""
        nonlocal retry_attempts
        pend.attempts += 1
        if pend.attempts > 1:
            retry_attempts += 1
        try:
            pend.session.submit_features(pend.features, record=pend.record,
                                         deadline=pend.deadline,
                                         request_id=pend.request_id)
        except ServingError as exc:
            if (retry is not None and pend.attempts < retry.max_attempts
                    and retry.retryable(exc)):
                push(clock + retry.delay_s(pend.attempts - 1,
                                           pend.session._retry_rng),
                     _SUBMIT, pend)
            return  # otherwise: the service marked the terminal state
        if retry is not None and retry.timeout_s is not None:
            push(clock + retry.timeout_s, _TIMEOUT, pend)

    def next_tick() -> tuple[float, object | None]:
        """Earliest (time, handle) a replica could tick, or (inf, None).

        Walks the *current* handles, so spawned replicas tick too.
        """
        best_at, best = math.inf, None
        for handle in handles:
            if not handle.alive(clock) or not handle.service.pending:
                continue
            at = max(clock, free_at.get(handle.replica_id, base))
            # A hung/partitioned replica wakes when its windows clear
            # (iterate: waking from one window can land inside the other).
            while True:
                woken = at
                if handle.hung(woken):
                    woken = max(woken, handle.hung_until)
                if handle.partitioned(woken):
                    woken = max(woken, handle.partitioned_until)
                if woken == at:
                    break
                at = woken
            at = max(at, handle.service.scheduler.next_event_time(at))
            if at < best_at:
                best_at, best = at, handle
        return best_at, best

    while True:
        arrival_at = (base + next_arrival.time if next_arrival is not None
                      else math.inf)
        heap_at = heap[0][0] if heap else math.inf
        next_event = min(arrival_at, heap_at)
        tick_at, tick_handle = next_tick()
        heartbeat_at = (next_heartbeat()
                        if (heap or next_arrival is not None
                            or tick_handle is not None) else math.inf)
        soonest = min(next_event, tick_at, heartbeat_at)
        if math.isinf(soonest):
            break

        if heartbeat_at < min(next_event, tick_at):
            clock = max(clock, heartbeat_at)
            owner.advance_clock(clock)  # pumps: heartbeats, detection, ckpts
            continue

        if next_event <= tick_at:
            if arrival_at <= heap_at:  # arrivals win ties (trace order)
                arrival = pull_arrival()
                clock = max(clock, arrival_at)
                owner.advance_clock(clock)
                session = sessions[arrival.session_index]
                if arrival.close_session:
                    owner.close_session(session)
                    continue
                if admission is not None:
                    decision = admission_decisions.get(session.session_id)
                    if decision is None:  # the session's first arrival
                        decision = admission.decide(owner.pressure)
                        admission_decisions[session.session_id] = decision
                        if decision == "downgrade":
                            # Best-effort from here on: weight 0 at the
                            # home replica's scheduler (no-op for
                            # weight-blind schedulers).
                            session.weight = 0.0
                            home = owner.home_of(session.session_id)
                            owner.handle(home).service.scheduler \
                                .set_session_weight(session.session_id, 0.0)
                    if decision == "reject":
                        arrivals_rejected += 1
                        continue  # dropped at the door: nothing submitted
                features = (arrival.features if arrival.features is not None
                            else default_features)
                if features is None:
                    raise ValueError("arrival carries no features and no "
                                     "default_features was given")
                deadline = (clock + arrival.deadline_s
                            if arrival.deadline_s is not None else None)
                pend = _Pending(session=session,
                                request_id=session.reserve_request_id(),
                                features=features, record=arrival.record,
                                deadline=deadline, arrived=clock)
                tracked.append(pend)
                by_key[(session.session_id, pend.request_id)] = pend
                delay = (faults.submission_delay() if faults is not None
                         else 0.0)
                if delay > 0.0:
                    push(clock + delay, _SUBMIT, pend)
                else:
                    attempt(pend)
                continue
            at, _, kind, payload = heapq.heappop(heap)
            clock = max(clock, at)
            owner.advance_clock(clock)
            if kind == _SUBMIT:
                if not payload.done:
                    attempt(payload)
            elif kind == _TIMEOUT:  # loss detection for dropped frames
                pend = payload
                if (not pend.done and retry is not None
                        and pend.attempts < retry.max_attempts
                        and pend.session.request_state(pend.request_id)
                        is RequestState.QUEUED):
                    attempt(pend)  # re-arms its own timeout on success
            elif kind == _SCALE:  # the autoscaler's periodic check
                event = autoscaler.step(clock)
                if event is not None:
                    scale_log.append((event.time - base, event.action,
                                      event.replica_id, event.pressure))
                # Keep checking while traffic can still arrive or drain;
                # a finished, idle replay lets the loop wind down.
                if next_arrival is not None or heap or owner.pending:
                    push(clock + autoscaler.interval_s, _SCALE, None)
            else:  # _FAULT: the replica-level schedule strikes
                owner.apply_fault(dataclasses.replace(payload, at_s=clock))
            continue

        # A replica tick fires.
        clock = tick_at
        owner.advance_clock(clock)
        handle = tick_handle
        if not handle.tickable(clock) or not handle.service.pending:
            continue  # the pump fenced it (or drained it) at this instant
        service = handle.service
        rid = handle.replica_id
        failures_before = service.stats.tick_failures
        failed_samples_before = service.stats.tick_failure_samples
        refusals_before = service.stats.privacy_refusals
        responses = service.tick()
        factor = handle.cost_factor(clock)
        if not responses:
            if service.stats.tick_failures > failures_before:
                # The crashed pass still occupied the replica: charge the
                # attempted group's cost before the retry pass can start.
                attempted = (service.stats.tick_failure_samples
                             - failed_samples_before)
                free_at[rid] = clock + cost.pass_seconds(attempted) * factor
                continue
            if service.stats.privacy_refusals > refusals_before:
                continue  # progress: budget-exhausted riders were refused
            # The scheduler declined to form a group: park the replica
            # (its queue is swept as FAILED if nothing else wakes it).
            free_at[rid] = math.inf
            continue
        ticks += 1
        ticks_by_replica[rid] = ticks_by_replica.get(rid, 0) + 1
        group_samples = sum(r.outputs[0].shape[0] for r in responses)
        pass_done = clock + cost.pass_seconds(group_samples) * factor
        free_at[rid] = pass_done
        for response in responses:
            done = pass_done + cost.per_request_downlink_s
            makespan = max(makespan, done)
            session = session_by_id.get(response.session_id)
            if session is not None:  # consume so memory stays bounded
                session.take_response(response.request_id)
            pend = by_key.get((response.session_id, response.request_id))
            if pend is None:
                arrived, deadline = clock, None
            elif pend.done:
                # Second serve of one request: count the exactly-once
                # violation, never re-measure.
                duplicates += 1
                continue
            else:
                pend.done = True
                arrived, deadline = pend.arrived, pend.deadline
            latency = done - arrived
            served_total += 1
            latency_sum += latency
            sketch.add(latency)
            by_sketch.setdefault(
                response.session_id,
                QuantileSketch(_SESSION_SKETCH_CAPACITY)).add(latency)
            if retain:
                latencies.append(latency)
                completions.append(done - base)
                by_session.setdefault(response.session_id, []).append(latency)
            if deadline is not None and done > deadline:
                violations += 1

    # Conservation sweep: every traced submission must end in exactly one
    # terminal state.  Abandoned in-flight work (a frame lost past its
    # retry budget, work stranded on a fenced replica, a queue no tick
    # drained) resolves client-side as FAILED — never silently dropped.
    terminal_counts = {state.value: 0 for state in TERMINAL_STATES}
    for pend in tracked:
        state = pend.session.request_state(pend.request_id)
        if state is None or not state.terminal:
            pend.session._resolve(pend.request_id, RequestState.FAILED)
            state = RequestState.FAILED
        terminal_counts[state.value] += 1
    conservation_ok = (sum(terminal_counts.values()) == len(tracked)
                       and duplicates == 0)

    stats = owner.stats
    decisions = list(admission_decisions.values())
    actions = [action for _, action, _, _ in scale_log]
    report = dict(
        scheduler=next(iter(handles)).service.config.scheduler,
        latencies_s=latencies, violations=violations,
        rejected=terminal_counts[RequestState.REJECTED.value],
        ticks=ticks, makespan_s=makespan - base,
        throttled=terminal_counts[RequestState.THROTTLED.value],
        latencies_by_session=by_session, submitted=len(tracked),
        terminal_counts=terminal_counts, conservation_ok=conservation_ok,
        served_total=served_total, latency_sum_s=latency_sum,
        latency_sketch=sketch, sketch_by_session=by_sketch,
        tick_failures=stats.tick_failures - start.tick_failures,
        retries=retry_attempts,
        degraded=stats.degraded_responses - start.degraded_responses,
        privacy_refusals=stats.privacy_refusals - start.privacy_refusals,
        exhausted_sessions=(stats.privacy_exhausted_sessions
                            - start.privacy_exhausted_sessions),
        rotations=stats.selector_rotations - start.selector_rotations)
    fleet_only = dict(
        duplicate_serves=duplicates,
        ticks_by_replica=ticks_by_replica,
        completion_times_s=completions,
        admission_rejected=decisions.count("reject"),
        admission_downgraded=decisions.count("downgrade"),
        arrivals_rejected=arrivals_rejected, autoscale_log=scale_log,
        spawns=actions.count("spawn"), drains_scaled=actions.count("drain"))
    return report, fleet_only


def simulate(service: InferenceService, sessions, trace, cost: TickCost,
             default_features: np.ndarray | None = None,
             retry: RetryPolicy | None = None,
             faults: FaultInjector | None = None) -> SimulationReport:
    """Replay ``trace`` through ``service`` on a virtual clock.

    ``sessions`` is an indexable of open :class:`Session` objects
    (``Arrival.session_index`` selects one).  Every arrival really
    submits (framed bytes, backpressure, scheduler admission); every tick
    really runs the stacked pass; only *time* is virtual, charged from
    ``cost``.  Responses are consumed as they complete so long traces
    stay memory-bounded.

    ``trace`` may be a list/tuple (sorted eagerly, any order — the
    historical contract) or any iterable/generator of
    :class:`Arrival` objects in non-decreasing time order, which is
    consumed **lazily**: a 10^6-arrival stream never materialises.
    A list/tuple trace keeps the exact per-request latency lists on the
    report; a streamed one is sketch-only.  The mergeable quantile
    sketches are always fed.

    Trace times are *relative*: they are rebased onto the service's
    current (monotonic, never-rewinding) clock, so repeated ``simulate``
    calls against one service are well-defined — each replay starts at
    the service's "now", and reported latencies/makespan are unaffected.

    ``faults`` (defaulting to the service's own injector) adds network
    delay client-side; the service consults the same injector for wire
    faults and tick crashes.  ``retry`` arms
    backoff resubmission of transient failures and — via ``timeout_s`` —
    loss detection for dropped frames; retries reuse the original
    request id, so the service deduplicates a retry whose earlier
    attempt actually survived.  The replay ends with a conservation
    sweep (see the module docstring).
    """
    faults = faults if faults is not None else service.faults
    report, _ = _replay(service, (ReplicaHandle(0, service),), sessions,
                        trace, cost, default_features, retry, faults)
    return SimulationReport(**report)


# -- fleet mode ----------------------------------------------------------


@dataclasses.dataclass
class FleetSimulationReport(SimulationReport):
    """A :class:`SimulationReport` plus the fleet-scope invariants.

    ``duplicate_serves`` counts responses delivered for a request that
    had already reached its client — the exactly-once violation the
    fleet's fencing and idempotent dedup exist to prevent; the chaos
    gate requires it to be **zero**.  ``migrated_sessions`` /
    ``failovers`` / ``lost_submits`` are deltas over the replay;
    ``health_log`` is the per-replica health timeline (``(time,
    replica, state)`` — times rebased to the trace epoch) and
    ``ticks_by_replica`` attributes every stacked pass to the replica
    that ran it.  ``completion_times_s`` records when each served
    response reached its client (same order as ``latencies_s``, rebased
    to the trace epoch), so goodput can be split around a mid-trace
    event such as a replica kill.
    """

    duplicate_serves: int = 0
    migrated_sessions: int = 0
    failovers: int = 0
    lost_submits: int = 0
    health_log: list[tuple[float, int, str]] = dataclasses.field(
        default_factory=list)
    ticks_by_replica: dict[int, int] = dataclasses.field(default_factory=dict)
    completion_times_s: list[float] = dataclasses.field(default_factory=list)
    #: sessions turned away / downgraded to best-effort at the door by
    #: the admission controller (whole sessions, not requests).
    admission_rejected: int = 0
    admission_downgraded: int = 0
    #: arrivals dropped because their session was rejected at the door
    #: (never submitted, so they are outside the conservation sweep).
    arrivals_rejected: int = 0
    #: autoscaler actions as ``(trace_time, action, replica_id,
    #: pressure)`` rows; ``spawns``/``drains_scaled`` are their counts.
    autoscale_log: list[tuple[float, str, int, float]] = dataclasses.field(
        default_factory=list)
    spawns: int = 0
    drains_scaled: int = 0
    replicas_final: int = 0  # replicas on the ring when the replay ended
    #: ``(session_id, spent_eps_before, spent_eps_after)`` for every
    #: migration during the replay — the ε-ratchet evidence.
    migration_epsilon_log: list[tuple[int, float, float]] = dataclasses.field(
        default_factory=list)

    @property
    def epsilon_ratchet_ok(self) -> bool:
        """True when no migration ever *decreased* spent ε (never minted)."""
        return all(after >= before - 1e-12
                   for _, before, after in self.migration_epsilon_log)

    def goodput_between(self, start_s: float, end_s: float) -> float:
        """Completed requests per second inside ``[start_s, end_s)``.

        Times are trace-relative (0 = first arrival epoch); use it to
        compare goodput before and after a mid-trace replica kill.
        """
        if end_s <= start_s:
            return 0.0
        served = sum(1 for t in self.completion_times_s
                     if start_s <= t < end_s)
        return served / (end_s - start_s)


def simulate_fleet(fleet, sessions, trace, cost: TickCost,
                   default_features: np.ndarray | None = None,
                   retry: RetryPolicy | None = None,
                   faults: FaultInjector | None = None,
                   autoscaler=None,
                   admission=None) -> FleetSimulationReport:
    """Replay ``trace`` through a :class:`~repro.serving.fleet.ServiceFleet`.

    The same event loop as :func:`simulate`, at fleet scope: each
    replica keeps its **own** busy clock (``free_at``), so two replicas
    really do serve concurrently on virtual time; heartbeats are events
    (the loop advances to the next scheduled heartbeat when it precedes
    all traffic, so failure detection never stalls behind an idle
    trace); and the :class:`~repro.serving.faults.ReplicaFault` schedule
    of the fault plan fires mid-trace — crash, hang, partition, slow —
    through :meth:`~repro.serving.fleet.ServiceFleet.apply_fault`.

    A hung or partitioned replica's backlog waits for its window to
    clear (the loop wakes it then); a fenced replica's backlog is
    abandoned and recovered only by client retry timeouts re-routing
    through the ring.  A slow replica's passes cost
    ``handle.cost_factor`` times more.  The conservation sweep runs
    fleet-wide: every traced submission must end in exactly one
    terminal state *across failover*, and ``duplicate_serves`` proves
    no request was served twice.

    ``trace`` streams lazily, and decides latency-list retention,
    exactly as in :func:`simulate`.  An ``autoscaler``
    (:class:`~repro.serving.autoscale.Autoscaler` over this fleet) adds
    periodic control-loop events to the heap — its spawns and drains
    happen mid-replay, replicas appearing and disappearing under live
    traffic, and every migration's spent-ε ledger lands in
    ``migration_epsilon_log``.  An ``admission`` controller
    (:class:`~repro.serving.traffic.AdmissionController`) is consulted
    once per session at that session's **first** arrival: rejected
    sessions have all their arrivals dropped at the door (never
    submitted — no queue slot, no conservation entry, counted in
    ``arrivals_rejected``); downgraded sessions are re-weighted to 0
    (best-effort) before their first submit.
    """
    faults = faults if faults is not None else fleet.faults
    migrated_start = fleet.fleet_stats.migrated_sessions
    failovers_start = fleet.fleet_stats.failovers
    lost_start = fleet.fleet_stats.lost_submits
    health_mark = len(fleet.health_log)
    epsilon_mark = len(fleet.migration_epsilon_log)
    base = fleet.now
    # The handle view is live (spawned replicas join it mid-replay) and
    # in ascending replica id order (ids only ever grow).
    report, fleet_only = _replay(
        fleet, fleet._handles.values(), sessions, trace, cost,
        default_features, retry, faults,
        next_heartbeat=fleet.next_heartbeat_time,
        replica_faults=(faults.plan.replica_faults if faults is not None
                        else ()),
        autoscaler=autoscaler, admission=admission)
    return FleetSimulationReport(
        **report, **fleet_only,
        migrated_sessions=(fleet.fleet_stats.migrated_sessions
                           - migrated_start),
        failovers=fleet.fleet_stats.failovers - failovers_start,
        lost_submits=fleet.fleet_stats.lost_submits - lost_start,
        health_log=[(t - base, rid, state)
                    for t, rid, state in fleet.health_log[health_mark:]],
        replicas_final=len(fleet.ring.replica_ids),
        migration_epsilon_log=list(
            fleet.migration_epsilon_log[epsilon_mark:]))


# -- trace generators ----------------------------------------------------


def _weighted_session_cycle(num_sessions: int, session_weights=None):
    """Yield session indices forever, proportionally to ``session_weights``.

    Uses smooth weighted round-robin (each step every index gains its
    weight of credit; the richest index is emitted and pays the total),
    which interleaves deterministically — a (2, 1) weighting yields
    ``0, 1, 0, 0, 1, 0, ...`` rather than bursts of one index.  With
    ``session_weights=None`` this is plain round-robin.
    """
    if session_weights is None:
        index = 0
        while True:
            yield index % num_sessions
            index += 1
    weights = [float(w) for w in session_weights]
    if len(weights) != num_sessions:
        raise ValueError(f"need {num_sessions} session weights, "
                         f"got {len(weights)}")
    if any(w < 0 for w in weights) or not any(w > 0 for w in weights):
        raise ValueError("session weights must be >= 0 with a positive sum")
    total = sum(weights)
    credit = [0.0] * num_sessions
    while True:
        for i, w in enumerate(weights):
            credit[i] += w
        pick = max(range(num_sessions), key=credit.__getitem__)
        credit[pick] -= total
        yield pick


def bursty_trace(num_sessions: int, bursts: int, burst_size: int,
                 burst_gap_s: float, deadline_s: float | None = None,
                 jitter_s: float = 0.0, rng=None,
                 session_weights=None) -> list[Arrival]:
    """Synchronised bursts: every ``burst_gap_s``, ``burst_size`` requests
    land within ``jitter_s`` of the burst edge — the pathological regime
    for drain-the-queue FIFO, where fixed request-count groups make the
    tail of each burst wait many passes.

    Args:
        session_weights: per-session offered-load weights; requests in a
            burst are attributed to sessions proportionally (smooth
            weighted round-robin, continuing across bursts).  ``None``
            means plain round-robin — every session submits equally.
            Pair a (2, 1) trace with a weighted scheduler to measure
            proportional *service* shares under a proportional load.
    """
    cycle = _weighted_session_cycle(num_sessions, session_weights)
    trace = []
    for burst in range(bursts):
        edge = burst * burst_gap_s
        for _ in range(burst_size):
            offset = float(rng.uniform(0.0, jitter_s)) if rng is not None and jitter_s else 0.0
            trace.append(Arrival(time=edge + offset,
                                 session_index=next(cycle),
                                 deadline_s=deadline_s))
    return trace


def poisson_trace(num_sessions: int, num_requests: int, rate_hz: float,
                  deadline_s: float | None = None, rng=None,
                  session_weights=None) -> list[Arrival]:
    """Memoryless arrivals at ``rate_hz`` aggregate across all sessions.

    ``session_weights`` splits the aggregate stream across sessions
    proportionally (smooth weighted round-robin); ``None`` round-robins
    equally.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    cycle = _weighted_session_cycle(num_sessions, session_weights)
    gaps = rng.exponential(1.0 / rate_hz, size=num_requests)
    times = np.cumsum(gaps)
    return [Arrival(time=float(t), session_index=next(cycle),
                    deadline_s=deadline_s)
            for t in times]
