"""Tests for the replicated serving tier: ring, detector, failover."""

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.ci import Server
from repro.ci.pipeline import Client
from repro.models.resnet import ResNet, ResNetConfig
from repro.serving import (
    FailureDetector,
    FaultInjector,
    FaultPlan,
    FleetPolicy,
    HashRing,
    InferenceService,
    OverloadPolicy,
    ReplicaFault,
    ReplicaHealth,
    RequestState,
    RetryPolicy,
    ServiceFleet,
    ServiceStats,
    Session,
    TickCost,
    bursty_trace,
    simulate_fleet,
)
from repro.serving.faults import (
    REPLICA_CRASH,
    REPLICA_HANG,
    REPLICA_PARTITION,
    REPLICA_SLOW,
)
from repro.serving.overload import (
    LEVEL_NARROW_CODEC,
    LEVEL_SHRINK_ENSEMBLE,
    OverloadController,
)
from repro.serving.service import _LEVEL_STATS
from repro.utils.rng import new_rng

rng = np.random.default_rng(41)

FEATURES = rng.random((1, 8, 8, 8)).astype(np.float32)

#: Fast-converging detector policy so failover tests stay cheap.
POLICY = FleetPolicy(heartbeat_interval_s=0.01, suspect_after_s=0.025,
                     down_after_s=0.05, checkpoint_interval_s=0.01)


def tiny_bodies(num_nets=2):
    config = ResNetConfig(num_classes=4, stem_channels=8, stage_channels=(8, 16),
                          blocks_per_stage=(1, 1), use_maxpool=True)
    bodies = [ResNet(config, rng=new_rng(i)).body for i in range(num_nets)]
    for body in bodies:
        body.eval()
    return bodies


def make_fleet(num_replicas=3, num_sessions=6, policy=POLICY, plan=None,
               **service_kwargs):
    bodies = tiny_bodies()
    replicas = [InferenceService(Server(bodies), max_batch=4, max_queue=32,
                                 **service_kwargs)
                for _ in range(num_replicas)]
    faults = FaultInjector(plan if plan is not None else FaultPlan(), seed=3)
    fleet = ServiceFleet(replicas, policy=policy, faults=faults)
    sessions = [fleet.adopt_session(Client(nn.Identity(), nn.Identity()))
                for _ in range(num_sessions)]
    return fleet, sessions


class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        a, b = HashRing(), HashRing()
        for ring in (a, b):
            for rid in range(4):
                ring.add(rid)
        assert [a.owner(s) for s in range(200)] == [b.owner(s) for s in range(200)]

    def test_every_replica_owns_sessions(self):
        ring = HashRing()
        for rid in range(4):
            ring.add(rid)
        owners = {ring.owner(s) for s in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_removal_moves_only_the_dead_replicas_sessions(self):
        ring = HashRing()
        for rid in range(4):
            ring.add(rid)
        before = {s: ring.owner(s) for s in range(300)}
        ring.remove(2)
        after = {s: ring.owner(s) for s in range(300)}
        moved = [s for s in before if before[s] != after[s]]
        assert moved  # replica 2 owned something
        assert all(before[s] == 2 for s in moved)  # nobody else moved
        assert all(after[s] != 2 for s in range(300))
        # Blast radius stays ~1/N: far below a naive rehash (~3/4 moved).
        assert len(moved) < 300 / 2

    def test_remove_then_add_restores_placement(self):
        ring = HashRing()
        for rid in range(3):
            ring.add(rid)
        before = [ring.owner(s) for s in range(100)]
        ring.remove(1)
        ring.add(1)
        assert [ring.owner(s) for s in range(100)] == before

    def test_empty_ring_owner_is_none(self):
        ring = HashRing()
        assert ring.owner(7) is None
        ring.add(0)
        ring.remove(0)
        assert ring.owner(7) is None

    def test_add_is_idempotent(self):
        ring = HashRing()
        ring.add(0)
        points = len(ring._points)
        ring.add(0)
        assert len(ring._points) == points


class TestFailureDetector:
    def make(self):
        detector = FailureDetector(POLICY)
        detector.register(0, 0.0)
        return detector

    def test_fresh_replica_is_healthy(self):
        detector = self.make()
        assert detector.health(0) is ReplicaHealth.HEALTHY
        assert detector.observe(0.02) == []

    def test_staleness_walks_suspect_then_down(self):
        detector = self.make()
        assert detector.observe(0.03) == [(0, ReplicaHealth.SUSPECT)]
        assert detector.observe(0.04) == []  # still in the hysteresis band
        assert detector.observe(0.06) == [(0, ReplicaHealth.DOWN)]

    def test_suspect_needs_a_streak_to_heal(self):
        detector = self.make()
        detector.observe(0.03)
        detector.heartbeat(0, 0.031)  # one heartbeat is not enough
        assert detector.health(0) is ReplicaHealth.SUSPECT
        detector.heartbeat(0, 0.041)
        assert detector.health(0) is ReplicaHealth.HEALTHY

    def test_down_is_fenced_against_late_heartbeats(self):
        detector = self.make()
        detector.observe(0.06)
        assert detector.health(0) is ReplicaHealth.DOWN
        detector.heartbeat(0, 0.07)
        assert detector.health(0) is ReplicaHealth.DOWN
        assert detector.observe(0.5) == []  # no re-transition

    def test_heartbeats_keep_a_replica_healthy(self):
        detector = self.make()
        for k in range(1, 20):
            detector.heartbeat(0, k * 0.01)
            assert detector.observe(k * 0.01) == []
        assert detector.health(0) is ReplicaHealth.HEALTHY


class TestFleetPolicy:
    def test_detector_thresholds_must_be_ordered(self):
        with pytest.raises(ValueError):
            FleetPolicy(heartbeat_interval_s=0.05, suspect_after_s=0.01)
        with pytest.raises(ValueError):
            FleetPolicy(suspect_after_s=0.05, down_after_s=0.05)

    def test_shrink_pressure_bounds(self):
        with pytest.raises(ValueError):
            FleetPolicy(shrink_pressure=0.0)


class TestFleetRouting:
    def test_sessions_home_on_their_ring_owner(self):
        fleet, sessions = make_fleet(num_replicas=3, num_sessions=12)
        for session in sessions:
            home = fleet.home_of(session.session_id)
            assert home == fleet.ring.owner(session.session_id)
            assert session.session_id in fleet.handle(home).service._sessions

    def test_submit_routes_to_the_home_replica(self):
        fleet, sessions = make_fleet()
        session = sessions[0]
        session.submit_features(FEATURES)
        home = fleet.home_of(session.session_id)
        assert fleet.handle(home).service.pending == 1
        assert all(fleet.handle(rid).service.pending == 0
                   for rid in range(fleet.num_replicas) if rid != home)

    def test_infer_end_to_end_through_the_fleet(self):
        fleet, sessions = make_fleet()
        request_id = sessions[0].submit_features(FEATURES)
        fleet.run_until_idle()
        assert sessions[0].has_result(request_id)

    def test_session_ids_are_fleet_unique(self):
        fleet, sessions = make_fleet(num_replicas=3, num_sessions=20)
        ids = [s.session_id for s in sessions]
        assert len(set(ids)) == len(ids)

    def test_heartbeats_flow_on_clock_advance(self):
        fleet, _ = make_fleet()
        fleet.advance_clock(0.1)
        assert fleet.fleet_stats.heartbeats > 0
        assert all(fleet.health(rid) is ReplicaHealth.HEALTHY
                   for rid in range(fleet.num_replicas))

    def test_close_session_cancels_and_drops_checkpoint(self):
        fleet, sessions = make_fleet()
        session = sessions[0]
        fleet.advance_clock(0.05)  # pump snapshots every session
        assert session.session_id in fleet.checkpoints
        request_id = session.submit_features(FEATURES)
        fleet.close_session(session)
        assert session.request_state(request_id) is RequestState.CANCELLED
        assert session.session_id not in fleet.checkpoints


class TestReplicaFaults:
    def test_crash_stops_ticks_and_heartbeats(self):
        fleet, sessions = make_fleet()
        victim = fleet.home_of(sessions[0].session_id)
        fleet.kill_replica(victim)
        handle = fleet.handle(victim)
        assert not handle.tickable(fleet.now)
        assert not handle.heartbeats_at(fleet.now)
        assert fleet.faults.stats.replica_crashes == 1

    def test_hang_window_freezes_then_releases(self):
        fleet, _ = make_fleet()
        fleet.apply_fault(ReplicaFault(replica=0, at_s=0.0, kind=REPLICA_HANG,
                                       duration_s=0.1))
        handle = fleet.handle(0)
        assert not handle.tickable(0.05) and handle.alive(0.05)
        assert handle.tickable(0.11)

    def test_partition_loses_submits(self):
        fleet, sessions = make_fleet()
        victim = fleet.home_of(sessions[0].session_id)
        fleet.apply_fault(ReplicaFault(replica=victim, at_s=0.0,
                                       kind=REPLICA_PARTITION, duration_s=0.5))
        request_id = sessions[0].submit_features(FEATURES)
        assert fleet.fleet_stats.lost_submits == 1
        assert fleet.handle(victim).service.pending == 0
        assert sessions[0].request_state(request_id) is RequestState.QUEUED

    def test_slow_scales_cost_but_keeps_heartbeats(self):
        fleet, _ = make_fleet()
        fleet.apply_fault(ReplicaFault(replica=0, at_s=0.0, kind=REPLICA_SLOW,
                                       duration_s=0.2, factor=3.0))
        handle = fleet.handle(0)
        assert handle.cost_factor(0.1) == 3.0
        assert handle.cost_factor(0.3) == 1.0
        assert handle.heartbeats_at(0.1)  # the gray failure heartbeats on time

    def test_replica_fault_validation(self):
        with pytest.raises(ValueError):
            ReplicaFault(replica=-1, at_s=0.0)
        with pytest.raises(ValueError):
            ReplicaFault(replica=0, at_s=0.0, kind="nonsense")
        with pytest.raises(ValueError):
            ReplicaFault(replica=0, at_s=0.0, kind=REPLICA_HANG)  # no window
        assert ReplicaFault(replica=0, at_s=1.0,
                            kind=REPLICA_CRASH).until_s == float("inf")


class TestFailover:
    def kill_and_detect(self, fleet, victim):
        fleet.kill_replica(victim)
        # Step by heartbeat intervals so the detector walks the full
        # ladder (a single big jump would leap straight to DOWN).
        deadline = fleet.now + 2 * POLICY.down_after_s
        while fleet.now < deadline:
            fleet.advance_clock(fleet.now + POLICY.heartbeat_interval_s)

    def test_crash_walks_the_health_ladder(self):
        fleet, sessions = make_fleet()
        victim = fleet.home_of(sessions[0].session_id)
        fleet.advance_clock(0.02)  # a few healthy heartbeats first
        self.kill_and_detect(fleet, victim)
        states = [state for _, rid, state in fleet.health_log if rid == victim]
        assert states == ["healthy", "suspect", "down"]
        assert fleet.health(victim) is ReplicaHealth.DOWN
        assert fleet.handle(victim).fenced

    def test_failover_migrates_only_the_victims_sessions(self):
        fleet, sessions = make_fleet(num_replicas=3, num_sessions=12)
        victim = fleet.home_of(sessions[0].session_id)
        homed = [s for s in sessions
                 if fleet.home_of(s.session_id) == victim]
        before = {s.session_id: fleet.home_of(s.session_id)
                  for s in sessions if fleet.home_of(s.session_id) != victim}
        self.kill_and_detect(fleet, victim)
        assert fleet.fleet_stats.failovers == 1
        assert fleet.fleet_stats.migrated_sessions == len(homed)
        for s in homed:
            assert fleet.home_of(s.session_id) != victim
        for session_id, home in before.items():
            assert fleet.home_of(session_id) == home  # everyone else stayed

    def test_migrated_sessions_keep_serving(self):
        fleet, sessions = make_fleet()
        victim = fleet.home_of(sessions[0].session_id)
        self.kill_and_detect(fleet, victim)
        request_id = sessions[0].submit_features(FEATURES)
        fleet.run_until_idle()
        assert sessions[0].has_result(request_id)

    def test_failover_bumps_the_epoch_of_checkpointed_sessions(self):
        fleet, sessions = make_fleet()
        fleet.advance_clock(0.02)  # checkpoint every session at least once
        victim = fleet.home_of(sessions[0].session_id)
        homed = [s for s in sessions if fleet.home_of(s.session_id) == victim]
        self.kill_and_detect(fleet, victim)
        assert fleet.fleet_stats.restored_sessions == len(homed)
        assert all(s.epoch >= 1 for s in homed)

    def test_exactly_once_across_failover(self):
        # A request stranded on the dead replica's queue is recovered by
        # an idempotent retry through the new home -- and served once.
        fleet, sessions = make_fleet()
        session = sessions[0]
        victim = fleet.home_of(session.session_id)
        request_id = session.submit_features(FEATURES)
        fleet.kill_replica(victim)  # dies holding the queued request
        fleet.advance_clock(fleet.now + 2 * POLICY.down_after_s)
        assert session.request_state(request_id) is RequestState.QUEUED
        session.submit_features(FEATURES, request_id=request_id)  # retry
        fleet.run_until_idle()
        assert session.take_response(request_id) is not None
        assert session.take_response(request_id) is None  # exactly one

    def test_drain_rehomes_without_epoch_bump(self):
        fleet, sessions = make_fleet()
        victim = fleet.home_of(sessions[0].session_id)
        homed = [s for s in sessions if fleet.home_of(s.session_id) == victim]
        moved = fleet.drain(victim)
        assert moved == len(homed)
        assert fleet.health(victim) is ReplicaHealth.DRAINING
        assert all(s.epoch == 0 for s in homed)  # graceful: no restore
        assert fleet.fleet_stats.drains == 1
        # Still tickable: a drained replica finishes its backlog.
        assert fleet.handle(victim).tickable(fleet.now)

    def test_empty_ring_rejects_submits(self):
        fleet, sessions = make_fleet(num_replicas=1, num_sessions=1)
        self.kill_and_detect(fleet, 0)
        from repro.serving import BackpressureError
        with pytest.raises(BackpressureError):
            sessions[0].submit_features(FEATURES)


class TestFleetOverloadCap:
    def make(self, shrink_pressure=0.25):
        policy = dataclasses.replace(POLICY, shrink_pressure=shrink_pressure)
        return make_fleet(num_sessions=2, policy=policy,
                          overload=OverloadController(OverloadPolicy()))

    def test_quiet_fleet_caps_replicas_at_narrow_codec(self):
        fleet, _ = self.make()
        fleet.advance_clock(0.01)
        assert all(r.overload.max_level == LEVEL_NARROW_CODEC
                   for r in fleet.replicas)

    def test_fleet_wide_pressure_unlocks_ensemble_shrink(self):
        from repro.serving import BackpressureError
        fleet, sessions = self.make(shrink_pressure=0.25)
        # Flood one session's home queue: 32 of 96 fleet-wide slots is
        # past the (lowered) shrink threshold.
        with pytest.raises(BackpressureError):
            for _ in range(64):
                sessions[0].submit_features(FEATURES)
        fleet.pump(fleet.now)
        assert all(r.overload.max_level == LEVEL_SHRINK_ENSEMBLE
                   for r in fleet.replicas)

    def test_pressure_release_restores_the_cap(self):
        from repro.serving import BackpressureError
        fleet, sessions = self.make(shrink_pressure=0.25)
        with pytest.raises(BackpressureError):
            for _ in range(64):
                sessions[0].submit_features(FEATURES)
        fleet.pump(fleet.now)
        fleet.run_until_idle()
        fleet.pump(fleet.now)
        assert all(r.overload.max_level == LEVEL_NARROW_CODEC
                   for r in fleet.replicas)


class TestServiceStatsMerge:
    def distinct_stats(self, offset):
        stats = ServiceStats()
        for index, field in enumerate(dataclasses.fields(ServiceStats)):
            setattr(stats, field.name, offset + index)
        return stats

    def test_merge_sums_counters_and_maxes_levels(self):
        a, b = self.distinct_stats(1), self.distinct_stats(100)
        merged = a + b
        for field in dataclasses.fields(ServiceStats):
            left = getattr(a, field.name)
            right = getattr(b, field.name)
            expected = (max(left, right) if field.name in _LEVEL_STATS
                        else left + right)
            assert getattr(merged, field.name) == expected, field.name

    def test_every_field_participates(self):
        # Regression guard: a counter added to ServiceStats but forgotten
        # by merge() would show up here as a zero in the merged result.
        a, b = self.distinct_stats(1), self.distinct_stats(100)
        merged = a + b
        for field in dataclasses.fields(ServiceStats):
            assert getattr(merged, field.name) >= getattr(b, field.name)

    def test_sum_builtin_compatibility(self):
        parts = [self.distinct_stats(1), self.distinct_stats(50),
                 self.distinct_stats(200)]
        total = sum(parts, ServiceStats())
        assert total.ticks == sum(p.ticks for p in parts)
        assert total.peak_coalesced == max(p.peak_coalesced for p in parts)

    def test_fleet_stats_property_merges_replicas(self):
        fleet, sessions = make_fleet()
        for session in sessions:
            session.submit_features(FEATURES)
        fleet.run_until_idle()
        assert fleet.stats.served_requests == sum(
            r.stats.served_requests for r in fleet.replicas)
        assert fleet.stats.served_requests == len(sessions)


class TestRetryRngEpochs:
    def make_session(self, session_id, epoch):
        client = Client(nn.Identity(), nn.Identity())
        return Session(session_id, client, None, epoch=epoch)

    def test_same_seed_same_jitter(self):
        a = self.make_session(7, 0)
        b = self.make_session(7, 0)
        assert list(a._retry_rng.random(8)) == list(b._retry_rng.random(8))

    def test_epoch_decorrelates_incarnations(self):
        # Regression: seeding by session id alone made every incarnation
        # of a session replay the same backoff jitter after failover.
        a = self.make_session(7, 0)
        b = self.make_session(7, 1)
        assert list(a._retry_rng.random(8)) != list(b._retry_rng.random(8))

    def test_retry_delays_differ_across_epochs(self):
        retry = RetryPolicy(max_attempts=5, base_delay_s=0.01, jitter=0.5)
        a = self.make_session(9, 0)
        b = self.make_session(9, 1)
        delays_a = [retry.delay_s(k, a._retry_rng) for k in range(5)]
        delays_b = [retry.delay_s(k, b._retry_rng) for k in range(5)]
        assert delays_a != delays_b


class TestFleetSimulation:
    RETRY = RetryPolicy(max_attempts=6, base_delay_s=0.004, multiplier=2.0,
                        max_delay_s=0.05, jitter=0.1, timeout_s=0.06)
    COST = TickCost(pass_overhead_s=0.004, per_sample_s=0.0005,
                    per_request_downlink_s=0.0002)

    def run(self, plan=None, num_sessions=8):
        fleet, sessions = make_fleet(num_replicas=4,
                                     num_sessions=num_sessions, plan=plan)
        trace = bursty_trace(num_sessions, bursts=4, burst_size=8,
                             burst_gap_s=0.08)
        return simulate_fleet(fleet, sessions, trace, self.COST,
                              default_features=FEATURES, retry=self.RETRY)

    def test_fault_free_replay_conserves_and_serves_all(self):
        report = self.run()
        assert report.conservation_ok
        assert report.duplicate_serves == 0
        assert report.terminal_counts["completed"] == report.submitted
        assert len(report.ticks_by_replica) >= 2  # work actually spread

    def test_mid_trace_kill_fails_over_and_conserves(self):
        plan = FaultPlan(replica_faults=(
            ReplicaFault(replica=1, at_s=0.12, kind=REPLICA_CRASH),))
        report = self.run(plan=plan)
        assert report.conservation_ok
        assert report.duplicate_serves == 0
        assert report.failovers == 1
        down = [(t, rid) for t, rid, state in report.health_log
                if state == "down"]
        assert down and down[0][1] == 1
        assert report.ticks_by_replica.get(1, 0) >= 0
        served = report.terminal_counts["completed"]
        baseline = self.run().terminal_counts["completed"]
        assert served >= 0.7 * baseline

    def test_kill_migrates_at_most_the_victims_arc(self):
        plan = FaultPlan(replica_faults=(
            ReplicaFault(replica=1, at_s=0.12, kind=REPLICA_CRASH),))
        report = self.run(plan=plan, num_sessions=12)
        assert 0 < report.migrated_sessions <= 12 / 2

    def test_hang_window_rides_out_without_failover(self):
        plan = FaultPlan(replica_faults=(
            ReplicaFault(replica=0, at_s=0.05, kind=REPLICA_HANG,
                         duration_s=0.02),))
        report = self.run(plan=plan)
        # A hang shorter than suspect_after_s never even reaches SUSPECT.
        assert report.failovers == 0
        assert report.conservation_ok

    def test_slow_replica_is_a_gray_failure(self):
        plan = FaultPlan(replica_faults=(
            ReplicaFault(replica=0, at_s=0.0, kind=REPLICA_SLOW,
                         duration_s=10.0, factor=4.0),))
        report = self.run(plan=plan)
        assert report.failovers == 0  # heartbeats on time: never suspected
        assert report.conservation_ok
        assert report.terminal_counts["completed"] == report.submitted

    def test_goodput_between_counts_window_completions(self):
        report = self.run()
        total = report.goodput_between(0.0, report.makespan_s + 1e-9)
        assert total > 0
        assert report.goodput_between(report.makespan_s + 1.0,
                                      report.makespan_s + 2.0) == 0.0
