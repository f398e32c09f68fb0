"""The ``fleet_replay`` workload: an autoscaled fleet replays a diurnal day.

A lengthened version of the ``fleet_scale`` replay in
``benchmarks/bench_serving.py``: 10^4 sessions (200 of them metered by a
privacy budget) stream a diurnal arrival trace through a 2-replica fleet
that an :class:`Autoscaler` grows to at most 6 replicas, behind one
:class:`AdmissionController`.  Replica 1 crashes mid-trace; clients
recover through :class:`RetryPolicy` timeouts and checkpoint failover.
Bodies are identities, so the fleet's routing, failover, migration,
autoscaling, admission and telemetry do almost all of the work.

The replay runs on a virtual clock, so its outcome (what was served,
refused, migrated) is a pure function of the seed; only the wall time
varies.  Every replay of a run uses the same seed and must reproduce the
first replay's outcome exactly.
"""

from __future__ import annotations

import numpy as np

from harness import Run, clock, settle, speed_probe
from repro import nn
from repro.ci import Client, Server
from repro.serving import (
    AdmissionController,
    AdmissionPolicy,
    Autoscaler,
    AutoscalePolicy,
    FaultInjector,
    FaultPlan,
    FleetPolicy,
    InferenceService,
    ReplicaFault,
    RetryPolicy,
    ServiceFleet,
    TickCost,
    diurnal_trace,
    simulate_fleet,
)

SESSIONS = 10_000
ARRIVALS = 30_000
METERED = 200
BASE_HZ = 30.0
PERIOD_S = 40.0
PEAK_FACTOR = 8.0
#: mean arrival rate of the diurnal curve: ARRIVALS span about 220 s
MEAN_HZ = BASE_HZ * (1 + PEAK_FACTOR) / 2
CRASHED_REPLICA = 1
#: arrivals per latency sample (time to replay one chunk, see Chunks)
CHUNK = 1000
COST = TickCost(pass_overhead_s=0.010, per_sample_s=0.008,
                per_request_downlink_s=0.0005)
POLICY = FleetPolicy(heartbeat_interval_s=0.5, suspect_after_s=2.0,
                     down_after_s=4.0, checkpoint_interval_s=30.0)
AUTOSCALE = AutoscalePolicy(min_replicas=2, max_replicas=6,
                            scale_up_pressure=0.5, scale_down_pressure=0.1,
                            smoothing=0.4, patience=2, cooldown_s=2.0,
                            check_interval_s=0.25)
ADMISSION = AdmissionPolicy(downgrade_pressure=0.7, reject_pressure=0.95)
RETRY = RetryPolicy(max_attempts=4, base_delay_s=0.05, multiplier=2.0,
                    max_delay_s=1.0, jitter=0.1, timeout_s=5.0)
#: metered tenants get a budget the replay cannot spend
UNSPENDABLE = (2.0, 1e6, 10**6)
FEATURES = np.ones((1, 8, 4, 4), dtype=np.float32)


def _replica() -> InferenceService:
    return InferenceService(Server([nn.Identity(), nn.Identity()]),
                            max_batch=8, max_queue=96, scheduler="fifo")


class Fixture:
    """One fresh fleet, its sessions and controllers (replays mutate
    them, so every replay gets its own).  Replica 1 crashes half-way
    through the trace."""

    def __init__(self, seed: int, sessions: int = SESSIONS,
                 arrivals: int = ARRIVALS):
        self.seed = seed
        self.arrivals = arrivals
        crash_at_s = 0.5 * arrivals / MEAN_HZ
        plan = FaultPlan(replica_faults=(
            ReplicaFault(replica=CRASHED_REPLICA, at_s=crash_at_s),))
        self.fleet = ServiceFleet([_replica(), _replica()], policy=POLICY,
                                  faults=FaultInjector(plan, seed=seed))
        self.sessions = [
            self.fleet.adopt_session(
                Client(nn.Identity(), nn.Identity()), rate_limit=None,
                privacy=UNSPENDABLE if i < METERED else None)
            for i in range(sessions)]
        self.autoscaler = Autoscaler(self.fleet, AUTOSCALE,
                                     replica_factory=_replica)
        self.admission = AdmissionController(ADMISSION)
        self.replayed = False


def build(seed: int) -> Fixture:
    return Fixture(seed)


class Chunks:
    """Times a replay in chunks of CHUNK arrivals.  Each chunk's wall
    time is scaled by the speed probe run right after it (see
    ``harness.SpeedProbe``); probe time is not replay time."""

    def __init__(self):
        self.probe = speed_probe()
        #: seconds per chunk as measured, and in reference seconds
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._start = 0.0

    def _close(self) -> None:
        seconds = clock() - self._start
        self.raw.append(seconds)
        self.scaled.append(seconds * self.probe.factor())
        self._start = clock()

    def feed(self, trace):
        """Pass arrivals through, closing a chunk every CHUNK pulls."""
        self.probe.start()
        self._start = clock()
        for index, arrival in enumerate(trace):
            if index and index % CHUNK == 0:
                self._close()
            yield arrival

    def finish(self) -> None:
        """Close the last chunk, which ends when the replay has drained."""
        self._close()


def replay(fx: Fixture):
    """One full replay; returns (report, its :class:`Chunks`)."""
    trace = diurnal_trace(len(fx.sessions), fx.arrivals, BASE_HZ,
                          period_s=PERIOD_S,
                          peak_factor=PEAK_FACTOR, seed=fx.seed)
    chunks = Chunks()
    report = simulate_fleet(fx.fleet, fx.sessions, chunks.feed(trace),
                            COST, default_features=FEATURES, retry=RETRY,
                            autoscaler=fx.autoscaler,
                            admission=fx.admission)
    chunks.finish()
    return report, chunks


def outcome(report) -> dict:
    """The virtual outcome of a replay: identical for one seed."""
    return {
        "submitted": report.submitted,
        "served": report.served,
        "terminal": dict(sorted(report.terminal_counts.items())),
        "arrivals_rejected": report.arrivals_rejected,
        "admission_rejected": report.admission_rejected,
        "failovers": report.failovers,
        "migrations": len(report.migration_epsilon_log),
        "duplicates": report.duplicate_serves,
        "spawns": report.spawns,
        "drains": report.drains_scaled,
        "ticks": report.ticks,
        "retries": report.retries,
    }


def measure(fx: Fixture, seconds: float, tracer=None):
    """Replay until ``seconds`` of wall time have passed.

    A replay consumes its fixture, so each further replay builds a fresh
    one first; those builds count against ``seconds`` and are reported
    as set-up time (``run.setups``), not replay time.  A replay's time is
    the sum of its scaled chunk times (see :class:`Chunks`).
    """
    run = Run()
    probe = speed_probe()
    first = last = None
    began = clock()
    while clock() - began < seconds:
        if fx.replayed:
            settle()
            probe.start()
            start = clock()
            fx = Fixture(fx.seed, len(fx.sessions), fx.arrivals)
            run.setups.append((clock() - start) * probe.factor())
        settle()
        report, chunks = replay(fx)
        fx.replayed = True
        run.blocks.append((fx.arrivals, sum(chunks.scaled)))
        run.raw_blocks.append((fx.arrivals, sum(chunks.raw)))
        run.latencies.extend(chunks.scaled)
        run.raw_latencies.extend(chunks.raw)
        run.attempted += fx.arrivals
        result = outcome(report)
        ok = (report.conservation_ok and report.duplicate_serves == 0
              and report.epsilon_ratchet_ok and report.failovers == 1)
        if first is None:
            first = result
        if not ok or result != first:
            run.failed += fx.arrivals
            run.notes.append(f"replay outcome wrong: {result} (invariants "
                             f"{'ok' if ok else 'VIOLATED'})")
        last = report
    not_served = first["submitted"] - first["served"] + first[
        "arrivals_rejected"]
    drained = any(rid == CRASHED_REPLICA and state == "draining"
                  for _, rid, state in last.health_log)
    run.notes.append(f"virtual outcome per replay: {first}")
    run.notes.append(
        f"replica {CRASHED_REPLICA} crash: "
        + ("it had already been drained by the autoscaler, so the "
           "failover moved no live work" if drained else
           f"live replica, {last.lost_submits} submits lost in flight"))
    run.notes.append(f"arrivals not served (refused at admission, shed by "
                     f"a full queue after retries, or lost to the crash): "
                     f"{not_served} of {fx.arrivals}")
    if tracer is None:
        return run, {}
    layers = {
        "fleet.ticks": float(last.ticks),
        "fleet.failovers": float(last.failovers),
        "fleet.spawns": float(last.spawns),
        "fleet.drains": float(last.drains_scaled),
        "fleet.migrations": float(len(last.migration_epsilon_log)),
        "fleet.rejected_arrivals": float(last.arrivals_rejected),
    }
    return run, layers


def instrument(tracer, fx: Fixture) -> None:
    """Wrap the fleet's control-plane calls and the replica tick."""
    from repro.serving.checkpoint import CheckpointStore

    tracer.wrap(ServiceFleet, "submit", "fleet.submit",
                rid_of=lambda args: (args[1].session_id, args[1].request_id))
    tracer.wrap(ServiceFleet, "advance_clock", "fleet.advance_clock")
    tracer.wrap(InferenceService, "tick", "service.tick")
    tracer.wrap(Autoscaler, "step", "autoscale.step")
    tracer.wrap(AdmissionController, "decide", "traffic.decide")
    tracer.wrap(CheckpointStore, "snapshot", "checkpoint.snapshot")

